"""Internal exact linear algebra: polynomial matrices, reduced row
echelon form over the coefficient field, fraction-free determinants, and
exact polynomial division.  Matrices are tuples of tuples (rows), dense.
"""

from __future__ import annotations

from . import polyring as _ring_mod
from .errors import ArgumentError
from .polyring import Polynomial, PolyRing, unpack_exponents


def freeze(rows):
    return tuple(tuple(row) for row in rows)


def transpose(rows):
    return tuple(zip(*rows)) if rows else ()


def mat_mul(ring: PolyRing, a, b):
    if a and b and len(a[0]) != len(b):
        raise ArgumentError(f"shape mismatch: {len(a[0])} columns times {len(b)} rows")
    addmul = _ring_mod._core.addmul_into
    p = ring._p
    bt = transpose(b)
    out = []
    for row in a:
        out_row = []
        for col in bt:
            acc = {}
            for f, g in zip(row, col):
                if f.terms and g.terms:
                    addmul(acc, f.terms, g.terms, p, 1)
            out_row.append(Polynomial(ring, acc))
        out.append(tuple(out_row))
    return tuple(out)


def scalar_parts(rows):
    """Constant terms of every entry, as field values (the matrix over the
    residue field)."""
    return [[entry.constant_term() for entry in row] for row in rows]


def rref(field, rows):
    """Reduced row echelon form of a matrix of field scalars.

    Row-major sweep: columns left to right, pivot on the first untouched
    row with a nonzero entry.  Returns (rref_rows, pivot_columns).
    """
    work = [list(row) for row in rows]
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    zero = field.of(0)
    pivots = []
    pivot_row = 0
    for col in range(ncols):
        if pivot_row >= nrows:
            break
        hit = None
        for r in range(pivot_row, nrows):
            if work[r][col] != zero:
                hit = r
                break
        if hit is None:
            continue
        work[pivot_row], work[hit] = work[hit], work[pivot_row]
        inv = field.inv(work[pivot_row][col])
        work[pivot_row] = [field.of(v * inv) for v in work[pivot_row]]
        for r in range(nrows):
            if r != pivot_row:
                factor = work[r][col]
                if factor != zero:
                    work[r] = [field.of(a - factor * b)
                               for a, b in zip(work[r], work[pivot_row])]
        pivots.append(col)
        pivot_row += 1
    return [tuple(row) for row in work], tuple(pivots)


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
