"""Internal exact linear algebra: polynomial matrices, reduced row
echelon form over the coefficient field, fraction-free determinants, and
exact polynomial division.  Matrices are tuples of tuples (rows), dense.

It also holds the point evaluation that the evaluation certificates share
(the scan's skip check in ``families`` and the Leibniz check on C2 in
``dgproducts``): the points ``POINTS`` of {0, 1}^3, rational coefficients
read mod ``QQ_MODULUS``, and ``residue_terms`` / ``residues_at`` taking
polynomials to their values at a point, where a term's value is its
coefficient when its support lies inside the point's and 0 otherwise.  A
nonzero value, or a nonzero minor of an evaluated matrix, proves the same
of the polynomial one.  Over F2, residue rows read only for their rank
and lead columns are ints, bit c for column c, eliminated with XOR.
"""

from __future__ import annotations

from . import polyring as _ring_mod
from .errors import ArgumentError
from .polyring import EXPONENT_LIMIT, Polynomial, PolyRing, \
    pack_exponents, unpack_exponents


def freeze(rows):
    return tuple(tuple(row) for row in rows)


def mat_mul(ring: PolyRing, a, b):
    if a and b and len(a[0]) != len(b):
        raise ArgumentError(f"shape mismatch: {len(a[0])} columns times {len(b)} rows")
    addmul = _ring_mod._core.addmul_into
    p = ring._p
    cols = tuple(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in cols:
            acc = {}
            for f, g in zip(row, col):
                if f.terms and g.terms:
                    addmul(acc, f.terms, g.terms, p, 1)
            out_row.append(Polynomial(ring, acc))
        out.append(tuple(out_row))
    return tuple(out)


#: rational matrices are evaluated mod this prime
QQ_MODULUS = 2 ** 31 - 1

#: the points an evaluation certificate tries, in order: the nonzero points
#: of {0, 1}^3, which stay distinct and nonzero mod every prime (entries in
#: the maximal ideal vanish at the origin)
POINTS = ((1, 1, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1),
          (0, 1, 1))


def residue_modulus(ring: PolyRing) -> int:
    """The prime evaluations over ``ring`` reduce mod: the characteristic,
    or ``QQ_MODULUS`` for the rationals."""
    return ring.field.char or QQ_MODULUS


def residue_terms(f: Polynomial, p: int):
    """The terms of f with coefficients mod p, as a read-only dict from
    packed key to coefficient (over F_p, f's own terms), or None when a
    rational coefficient has a denominator divisible by p: f then has no
    residue mod p."""
    if f.ring.field.char:
        return f.terms
    terms = {}
    for key, c in f.terms.items():
        if c.denominator % p == 0:
            return None
        terms[key] = c.numerator * pow(c.denominator, -1, p) % p
    return terms


def residues_at(polys, point, p: int):
    """The values mod p at ``point`` of polynomials given by their
    ``residue_terms``, as a list.  The point lies in {0, 1}^3, so a term's
    value there is its coefficient when its support lies inside the
    point's, and 0 otherwise: when its key meets no lane of a variable
    that is 0 there."""
    outside = pack_exponents(*(EXPONENT_LIMIT * (1 - v) for v in point))
    if not outside:
        return [sum(terms.values()) % p for terms in polys]
    return [sum(c for key, c in terms.items() if not key & outside) % p
            for terms in polys]


def residue_bits(polys, point):
    """``residues_at`` over F2 packed into an int, bit c for polys[c]: each
    coefficient is 1, so a value is the parity of the terms inside."""
    outside = pack_exponents(*(EXPONENT_LIMIT * (1 - v) for v in point))
    return sum(1 << c for c, terms in enumerate(polys)
               if sum(1 for key in terms if not key & outside) & 1)


def insert_row(basis, row, p):
    """One Gauss-Jordan step on canonical scalars of F_p, or of the
    rationals (ints and Fractions, see ``polyring.RationalField``) when p
    is 0.

    ``basis`` maps each lead column to its row, which is 1 there and 0 in
    every other lead column.  The row is reduced against the basis; if
    anything is left, it is scaled to 1 at its first nonzero column, that
    column is cleared from the other rows, and the row joins the basis.
    Returns the new lead column, or None when the row is in the span; the
    row passed in is left as it is.  An int row goes to ``insert_bits``.
    """
    if type(row) is int:
        return insert_bits(basis, row)
    for lead, other in basis.items():
        factor = row[lead]
        if factor:
            row = _sub_multiple(row, factor, other, p)
    lead = next((col for col, v in enumerate(row) if v), None)
    if lead is None:
        return None
    if p:
        inv = pow(row[lead], -1, p)
        row = [v * inv % p for v in row]
    else:
        inv = _ring_mod.QQ.inv(row[lead])
        row = [v * inv for v in row]
    for col, other in basis.items():
        factor = other[lead]
        if factor:
            basis[col] = _sub_multiple(other, factor, row, p)
    basis[lead] = row
    return lead


def insert_bits(basis, row):
    """``insert_row`` over F2 on rows packed into ints, bit c for column c:
    adding a row is XOR, and the first nonzero column is the lowest bit."""
    for lead, other in basis.items():
        if row >> lead & 1:
            row ^= other
    if not row:
        return None
    lead = (row & -row).bit_length() - 1
    for col, other in basis.items():
        if other >> lead & 1:
            basis[col] = other ^ row
    basis[lead] = row
    return lead


def _sub_multiple(row, factor, other, p):
    if p:
        return [(a - factor * b) % p for a, b in zip(row, other)]
    return [a - factor * b for a, b in zip(row, other)]


def rref(field, rows):
    """Reduced row echelon form of a matrix of canonical field scalars.

    Returns (rref_rows, pivot_columns): the nonzero rows in pivot order,
    then as many zero rows as the rank falls short of the row count.
    """
    basis = {}
    for row in rows:
        insert_row(basis, row, field.char)
    pivots = tuple(sorted(basis))
    zero_row = (field.of(0),) * (len(rows[0]) if rows else 0)
    reduced = [tuple(basis[col]) for col in pivots]
    return reduced + [zero_row] * (len(rows) - len(pivots)), pivots


def _lead_key(f: Polynomial) -> int:
    # packed key of the leading monomial in graded-lex order (z1 > z2 > z3)
    best = None
    best_sort = None
    for key in f.terms:
        a1, a2, a3 = unpack_exponents(key)
        sort = (a1 + a2 + a3, a1, a2, a3)
        if best_sort is None or sort > best_sort:
            best, best_sort = key, sort
    return best


def divide_exact(f: Polynomial, g: Polynomial):
    """Quotient f / g when g divides f exactly, else None."""
    ring = f.ring
    if not g.terms:
        return None
    if not f.terms:
        return ring.zero
    g_lead = _lead_key(g)
    g_coeff = g.terms[g_lead]
    field = ring.field
    quotient = ring.zero
    rem = f
    while rem.terms:
        r_lead = _lead_key(rem)
        la, lb, lc = unpack_exponents(r_lead)
        ga, gb, gc = unpack_exponents(g_lead)
        if la < ga or lb < gb or lc < gc:
            return None
        coeff = field.of(rem.terms[r_lead] * field.inv(g_coeff))
        mono = ring.monomial(coeff, (la - ga, lb - gb, lc - gc))
        quotient = quotient + mono
        rem = rem - mono * g
    return quotient


def det_bareiss(ring: PolyRing, rows) -> Polynomial:
    """Determinant by fraction-free elimination; all divisions are exact."""
    n = len(rows)
    if n == 0:
        return ring.one
    work = [list(row) for row in rows]
    sign = 1
    prev = ring.one
    for k in range(n - 1):
        if not work[k][k]:
            swap = next((r for r in range(k + 1, n) if work[r][k]), None)
            if swap is None:
                return ring.zero
            work[k], work[swap] = work[swap], work[k]
            sign = -sign
        pivot = work[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                value = work[i][j] * pivot - work[i][k] * work[k][j]
                quotient = divide_exact(value, prev)
                assert quotient is not None
                work[i][j] = quotient
            work[i][k] = ring.zero
        prev = pivot
    return work[n - 1][n - 1].scaled(sign)
