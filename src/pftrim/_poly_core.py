"""Term-level kernels for sparse polynomial arithmetic (pure Python).

A polynomial is a dict mapping a packed exponent key (three 20-bit lanes
in one integer) to a nonzero coefficient.  The modulus ``p`` selects the
coefficient arithmetic: ``p > 0`` means integers reduced to 0..p-1,
``p == 0`` means exact rational arithmetic on the values of
``polyring.RationalField``: an int where the denominator is 1, a Fraction
otherwise.  The kernels only add, subtract and multiply, so int inputs
give int outputs and integer work never builds a Fraction; a Fraction
result with denominator 1 may appear from non-integral inputs, and it
equals and hashes as its int.

Deferred reduction: a caller summing many products over F_p may pass
``p = 0`` to the accumulating kernels when every input coefficient is a
canonical residue (0..p-1).  The accumulator then holds exact integer
sums, congruent mod p to the reduced result, and ``reduce_terms`` brings
it back to canonical form in one pass.  Whether a term (or the whole
accumulator) is zero is known only after that pass: an unreduced nonzero
integer may be a multiple of p.  Over the rationals (``p == 0`` already)
there is nothing to reduce.

These functions are the hot path of the whole package.
"""


def add_terms(a, b, p):
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) + c
        if p:
            s %= p
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def sub_terms(a, b, p):
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) - c
        if p:
            s %= p
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def neg_terms(a, p):
    if p:
        return {k: p - c for k, c in a.items()}
    return {k: -c for k, c in a.items()}


def scale_terms(a, c, p):
    # c is a nonzero field element, so no term can vanish over a prime field
    # or the rationals.
    if p:
        return {k: (v * c) % p for k, v in a.items()}
    return {k: v * c for k, v in a.items()}


def mul_terms(a, b, p):
    out = {}
    addmul_into(out, a, b, p, 1)
    return out


def addmul_into(acc, a, b, p, sign):
    """acc += sign * a * b, with sign in {+1, -1}."""
    if len(a) > len(b):
        a, b = b, a
    for ka, ca in a.items():
        if sign < 0:
            ca = -ca
        for kb, cb in b.items():
            k = ka + kb
            s = acc.get(k, 0) + ca * cb
            if p:
                s %= p
            if s:
                acc[k] = s
            else:
                acc.pop(k, None)


def reduce_terms(a, p):
    """The terms of a, summed with p = 0 on canonical residues, reduced mod
    p > 0 with the zero terms dropped."""
    out = {}
    for k, c in a.items():
        c %= p
        if c:
            out[k] = c
    return out


def scale_into(acc, a, c, p, sign):
    """acc += sign * c * a for a field scalar c.

    No pftrim module calls this at present, but perfbench/tracing.py wraps
    every kernel it names, this one included, so it must stay."""
    if sign < 0:
        c = -c
    for k, v in a.items():
        s = acc.get(k, 0) + v * c
        if p:
            s %= p
        if s:
            acc[k] = s
        else:
            acc.pop(k, None)
