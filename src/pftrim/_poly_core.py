"""Term-level kernels for sparse polynomial arithmetic (pure Python).

A polynomial is a dict mapping a packed exponent key (three 20-bit lanes
in one integer) to a nonzero coefficient.  The modulus ``p`` selects the
coefficient arithmetic: ``p > 0`` means integers reduced to 0..p-1,
``p == 0`` means exact rational arithmetic (ints and Fractions).

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
