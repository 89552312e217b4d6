"""Multiplication on the trimmed resolution.

The trimmed complex carries a DG-algebra structure extending the one on the
length-3 selfdual resolution and the Koszul blocks.  This module computes the
correction constants (`d_constants`), individual products (`product`), the
complete multiplication table (`full_table`), and checks the Leibniz rule
against the differentials (`verify_leibniz`).

A degree-1 basis element is a factor (i, l): e_i is (i, None), u^k_l is
(k, l).  As d(u^k_l) = -z_l y_k = -z_l d(e_k), away from its own Koszul block
u^k_l multiplies as rho(u^k_l) e_k, with rho(u^k_l) = -z_l and rho(e_i) = 1.
So for i != j, with n u factors and z_None = 1,

    (i,l)(j,s) = (-1)^n [z_l z_s v(i,j) + sum_{k, a<b} C(k; i,l; j,s; a,b) v^k_ab]

where v(i,j) = sum_r sigma3(i,j,r) pf(i,j,r) f_r is e_i e_j in the selfdual
resolution and C = D(k,i,j,a,b) z_l z_s (D: signed five-index subpfaffians
times splitting constants) unless k is the block of a u factor.  Then C
contracts that factor's variable l': S(i,j; k,b) if l' = a, -S(i,j; k,a) if
l' = b, else 0, times the other factor's z, with S(i,j; k,p) the sum over r
of sigma3(i,j,r) pf(i,j,r) c_{r,k,p}.  In one block, u^k_l u^k_s =
-y_k v^k_ls.  In degree (1, 2), x y = rho(x) (e_i y), plus a multiple of w^i
when x = u^i_l meets f_i or v^i_ab.  Degree-(2, 1) products equal the
(1, 2) ones; odd squares and degree sums past 3 are zero.
"""

import dataclasses

from . import polyring as _ring_mod
from .errors import ArgumentError, FieldMismatch
from .linalg import POINTS, insert_row, residue_modulus, residue_terms, \
    residues_at
from .pfaffian import pfaffian_drop, rearrange_sign, sigma3, sigma5
from .polyring import Polynomial, check_exponents, pack_exponents
from .resolution import _PAIRS, BasisElement, _selfdual_part, _trimmed_data, \
    signed_v


def _same_ring(a, b):
    # the rule of Polynomial._check: identity first, then equality
    return a is b or a == b


class ChainElement:
    """A finite combination of same-degree basis elements with polynomial
    coefficients.  Degree-0 elements are multiples of the unit generator."""

    __slots__ = ("ring", "degree", "coords")

    def __init__(self, ring, degree, coords=None):
        if not isinstance(degree, int) or degree < 0:
            raise ArgumentError(f"invalid homological degree {degree!r}")
        clean = {}
        for elem, coeff in (coords or {}).items():
            if not isinstance(elem, BasisElement):
                raise ArgumentError(f"not a basis element: {elem!r}")
            if elem.degree != degree:
                raise ArgumentError(
                    f"{elem.label} has degree {elem.degree}, element is "
                    f"declared degree {degree}")
            if not _same_ring(coeff.ring, ring):
                raise FieldMismatch("coefficient from a different ring")
            if not coeff.is_zero:
                clean[elem] = coeff
        self.ring = ring
        self.degree = degree
        self.coords = clean

    @classmethod
    def of(cls, ring, elem):
        return cls(ring, elem.degree, {elem: ring.one})

    @property
    def is_zero(self):
        return not self.coords

    @property
    def scalar(self):
        if self.degree != 0:
            raise ArgumentError("scalar part is only defined in degree 0")
        return self.coords.get(BasisElement.ONE(), self.ring.zero)

    def coefficient(self, elem):
        return self.coords.get(elem, self.ring.zero)

    def _combine(self, other, sign):
        if not isinstance(other, ChainElement):
            return NotImplemented
        if not _same_ring(other.ring, self.ring):
            raise FieldMismatch("elements over different rings")
        if other.degree != self.degree:
            raise ArgumentError(
                f"cannot combine degrees {self.degree} and {other.degree}")
        coords = dict(self.coords)
        for elem, coeff in other.coords.items():
            coords[elem] = coords.get(elem, self.ring.zero) + \
                (coeff if sign > 0 else -coeff)
        return ChainElement(self.ring, self.degree, coords)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, factor):
        if not hasattr(factor, "terms"):
            factor = self.ring.constant(factor)
        coords = {elem: coeff * factor for elem, coeff in self.coords.items()}
        return ChainElement(self.ring, self.degree, coords)

    def __eq__(self, other):
        if not isinstance(other, ChainElement):
            return NotImplemented
        return _same_ring(self.ring, other.ring) \
            and self.degree == other.degree and self.coords == other.coords

    __hash__ = None

    def __str__(self):
        if not self.coords:
            return "0"
        parts = []
        for elem in sorted(self.coords, key=lambda b: (b.kind, b.data)):
            text = str(self.coords[elem])
            if text == "1":
                parts.append(elem.label)
            elif "+" in text or text.startswith("-") or " " in text:
                parts.append(f"({text})*{elem.label}")
            else:
                parts.append(f"{text}*{elem.label}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self.__class__.__name__} deg {self.degree}: {self}>"


def zero_element(ring, degree):
    return ChainElement(ring, degree, {})


def boundary(complex_, element):
    """Apply the complex differential to a chain element."""
    deg = element.degree
    if not 1 <= deg <= 3:
        raise ArgumentError(f"no differential out of degree {deg}")
    mat = complex_.differential(deg)
    targets = complex_.basis(deg - 1)
    ring = complex_.ring
    coords = {}
    for elem, coeff in element.coords.items():
        col = complex_.index_of(deg, elem)
        for row, target in enumerate(targets):
            entry = mat[row][col]
            if entry.is_zero:
                continue
            coords[target] = coords.get(target, ring.zero) + entry * coeff
    return ChainElement(ring, deg - 1, coords)


_D_FLAVORS = {"two_index": 5, "three_index": 6, "four_index": 7}


def d_constants(td, flavor, indices):
    """Correction constant C for the given flavor and index tuple.

    Flavors and their index tuples: "two_index" (k,i,j,a,b), "three_index"
    (k,i,j,l,a,b), "four_index" (k,i,j,l,s,a,b).  Here k labels a trimmed
    index, i and j are matrix indices, l and s are variable indices, and (a,b)
    is the target variable pair, extended antisymmetrically when a >= b.
    The flavors are C(k; i,l; j,s; a,b) of the module docstring with no,
    one (u^i_l times e_j) and two (u^i_l times u^j_s) u factors.
    """
    if flavor not in _D_FLAVORS:
        raise ArgumentError(f"unknown constant flavor {flavor!r}")
    indices = tuple(indices)
    if len(indices) != _D_FLAVORS[flavor] or \
            not all(isinstance(n, int) for n in indices):
        raise ArgumentError(
            f"flavor {flavor!r} takes {_D_FLAVORS[flavor]} integer indices, "
            f"got {indices!r}")
    k, i, j, *rest = indices
    *vars_, a, b = rest
    if not 1 <= k <= td.t:
        raise ArgumentError(f"trimmed index {k} out of range 1..{td.t}")
    for n in (i, j):
        if not 1 <= n <= td.m:
            raise ArgumentError(f"matrix index {n} out of range 1..{td.m}")
    for n in (a, b, *vars_):
        if not 1 <= n <= 3:
            raise ArgumentError(f"variable index {n} out of range 1..3")
    if a == b:
        return td.ring.zero
    if a > b:
        return -d_constants(td, flavor, (k, i, j, *vars_, b, a))
    l, s = (*vars_, None, None)[:2]
    values, key = _correction(td, k, (i, l), (j, s))
    return _shifted(values[_PAIRS.index((a, b))], key, 1)


def _memo(fn):
    # cache fn(td, i, j, *rest) on td, keyed by its arguments.  fn returns a
    # tuple of polynomials and is antisymmetric in (i, j), so only i <= j is
    # computed.  The cache sits on the (frozen) dataclass through the
    # __dict__ escape so the public field set stays as documented
    def cached(td, i, j, *rest):
        cache = td.__dict__.setdefault("_product_cache", {})
        key = (fn.__name__, i, j, *rest)
        hit = cache.get(key)
        if hit is None:
            hit = fn(td, i, j, *rest) if i <= j else \
                tuple(-value for value in cached(td, j, i, *rest))
            cache[key] = hit
        return hit
    return cached


def _polynomial(ring, acc):
    # a Polynomial from an accumulator summed with p = 0 (see _poly_core)
    p = ring._p
    return Polynomial(ring, check_exponents(
        _ring_mod._core.reduce_terms(acc, p) if p else acc))


@_memo
def _selfdual(td, i, j):
    return _selfdual_part(td.T, i, j)


def _inner_sums(td, i, j, r, k):
    # (sum over h of sigma5(i,j,r,h,k) pf(i,j,r,h,k) c_{h,k,a} for a = 1, 2)
    # as term dicts; both factors depend on the set {i, j, r} only, so the
    # sums are cached on it
    cache = td.__dict__.setdefault("_product_cache", {})
    key = ("inner", 1 << i | 1 << j | 1 << r, k)
    hit = cache.get(key)
    if hit is None:
        core, ring = _ring_mod._core, td.ring
        accs = ({}, {})
        for h in range(1, td.m + 1):
            s5 = sigma5(i, j, r, h, k)
            if s5 == 0:
                continue
            pf = pfaffian_drop(td.T, (i, j, r, h, k)).terms
            if not pf:
                continue
            for acc, weight in zip(accs, td.c[(h, k)][:2]):
                if weight.terms:
                    core.addmul_into(acc, pf, weight.terms, 0, s5)
        hit = cache[key] = tuple(_polynomial(ring, acc).terms for acc in accs)
    return hit


@_memo
def _d_two(td, i, j, k):
    # (D(k,i,j,a,b) for (a, b) in _PAIRS), the sum over r of sigma3(i,j,r)
    # c_{r,k,b} times the inner sum over h of a; antisymmetric in (i, j):
    # sigma3 changes sign, sigma5 does not
    core = _ring_mod._core
    accs = ({}, {}, {})
    for r in range(1, td.m + 1):
        s3 = sigma3(i, j, r)
        if s3 == 0 or r == k:
            continue
        cr = td.c[(r, k)]
        for acc, (a, b) in zip(accs, _PAIRS):
            if cr[b - 1].terms:
                inner = _inner_sums(td, i, j, r, k)[a - 1]
                if inner:
                    core.addmul_into(acc, inner, cr[b - 1].terms, 0, s3)
    return tuple(_polynomial(td.ring, acc) for acc in accs)


@_memo
def _skew_weighted_sum(td, i, j, k):
    # (S(i,j; k,p) for p = 1, 2, 3): the sum over r of the f_r coordinate
    # of e_i e_j times the splitting constant c_{r,k,p}
    core = _ring_mod._core
    accs = ({}, {}, {})
    for r, value in enumerate(_selfdual(td, i, j), 1):
        if value.terms:
            for acc, weight in zip(accs, td.c[(r, k)]):
                if weight.terms:
                    core.addmul_into(acc, value.terms, weight.terms, 0, 1)
    return tuple(_polynomial(td.ring, acc) for acc in accs)


#: Packed exponent keys of z1, z2, z3.
_VAR_KEYS = tuple(pack_exponents(*(int(n == v) for n in range(3)))
                  for v in range(3))


def _z_key(l, s):
    # the packed exponents of z_l z_s over the u factors; 0 when both
    # factors are e's
    return sum(_VAR_KEYS[v - 1] for v in (l, s) if v is not None)


def _shifted(value, key, sign):
    # sign * z^key * value for a packed monomial key, as a key shift
    if sign > 0 and not key:
        return value
    terms = value.terms
    if sign < 0:
        terms = _ring_mod._core.neg_terms(terms, value.ring._p)
    if key:
        terms = check_exponents({k + key: c for k, c in terms.items()})
    return Polynomial(value.ring, terms)


def _correction(td, k, x, y):
    # (C(k; i,l; j,s; a,b) for (a, b) in _PAIRS) for factors x = (i, l),
    # y = (j, s), as (values, key): each C is z^key times its value
    (i, l), (j, s) = x, y
    if k == i and l is not None:
        var, other = l, s
    elif k == j and s is not None:
        var, other = s, l
    else:
        return _d_two(td, i, j, k), _z_key(l, s)
    # k is the block of the u factor with variable var: contract it
    sums = _skew_weighted_sum(td, i, j, k)
    zero = td.ring.zero
    return tuple(sums[b - 1] if var == a else -sums[a - 1] if var == b
                 else zero for a, b in _PAIRS), _z_key(other, None)


def _element(ring, degree, coords):
    # a ChainElement from coordinates already known to be valid: basis
    # elements of that degree with nonzero coefficients over ring
    elem = object.__new__(ChainElement)
    elem.ring, elem.degree, elem.coords = ring, degree, coords
    return elem


def gorenstein_product(T, x, y):
    """Product of two basis elements of the untrimmed selfdual resolution:
    `product` on the trimming with nothing trimmed, built once per matrix."""
    if T._untrimmed is None:
        T._untrimmed = _trimmed_data(T, 0)
    return product(T._untrimmed, x, y)


def product(td, x, y):
    """Product of two basis elements of the trimmed complex, by the rule of
    the module docstring: u^k_l multiplies as -z_l e_k away from its own
    Koszul block k, with the correction constants C of `d_constants`."""
    C = td.complex
    for elem in (x, y):
        if not isinstance(elem, BasisElement):
            raise ArgumentError(f"not a basis element: {elem!r}")
        C.index_of(elem.degree, elem)
    ring = td.ring
    if x.kind == "one":
        return ChainElement.of(ring, y)
    if y.kind == "one":
        return ChainElement.of(ring, x)
    dx, dy = x.degree, y.degree
    if dx + dy > 3:
        return zero_element(ring, dx + dy)
    if x == y:
        return zero_element(ring, 2)
    if dx > dy:
        # degrees (2,1); the commutativity sign (-1)^(2*1) is +1
        return product(td, y, x)
    # factors (i, l): e_i is (i, None) and u^k_l is (k, l)
    i, l = (*x.data, None)[:2]
    if dy == 2:
        return _product_with_degree_two(td, i, l, y)
    j, s = (*y.data, None)[:2]
    if i == j:
        # two u factors of one block: u^i_l u^i_s = -y_i v^i_ls
        sign, elem = signed_v(i, l, s)
        return ChainElement(ring, 2, {elem: td.y[i - 1].scaled(-sign)})
    sign = -1 if (l is None) != (s is None) else 1  # (-1)^n, n u factors
    zz = _z_key(l, s)
    basis2 = C.basis(2)
    coords = {f: _shifted(value, zz, sign)
              for f, value in zip(basis2, _selfdual(td, i, j)) if value.terms}
    for k in range(1, td.t + 1):
        values, key = _correction(td, k, (i, l), (j, s))
        for n, value in enumerate(values):
            if value.terms:
                v = basis2[td.m + 3 * (k - 1) + n]  # v^k for _PAIRS[n]
                coords[v] = _shifted(value, key, sign)
    return _element(ring, 2, coords)


def _ef_pairing(td, i, j):
    # the degree-3 pairing of the i-th selfdual generator with the j-th
    # degree-2 generator, valid for any i: g when i == j, plus a w^j part
    # (read off c, which holds rows j <= t only) when f_j belongs to a
    # trimmed generator; equals the (e, f) product when i is untrimmed
    coords = {}
    if i == j:
        coords[BasisElement.G()] = td.ring.one
    if j <= td.t:
        core = _ring_mod._core
        acc = {}
        for r in range(1, td.m + 1):
            cr = td.c[(r, j)][2]
            if cr.terms:
                core.addmul_into(acc, cr.terms, _d_two(td, i, r, j)[0].terms,
                                 0, 1)
        coords[BasisElement.W(j)] = _polynomial(td.ring, acc)
    return ChainElement(td.ring, 3, coords)


def _product_with_degree_two(td, i, l, y):
    # x y for the factor x = (i, l) and y of degree 2
    ring = td.ring
    if y.kind == "f":
        result = _ef_pairing(td, i, y.data[0])
    else:
        # e_i v^k_ab, zero when i == k
        k, a, b = y.data
        p = 6 - a - b
        acc = _skew_weighted_sum(td, k, i, k)[p - 1]
        result = ChainElement(ring, 3, {
            BasisElement.W(k): -acc if p % 2 == 1 else acc})
    if l is None:
        return result
    key = _VAR_KEYS[l - 1]
    result = _element(ring, 3, {elem: _shifted(value, key, -1)
                                for elem, value in result.coords.items()})
    if y.data[0] != i:
        return result
    # u^i_l against its own block
    if y.kind == "f":
        phi, psi = sorted({1, 2, 3} - {l})
        own = td.dk[(i, phi, psi)].scaled(1 if l % 2 == 1 else -1)
    else:
        own = td.y[i - 1].scaled(-rearrange_sign((l, a, b), (1, 2, 3)))
    return result + ChainElement(ring, 3, {BasisElement.W(i): own})


class ProductTable:
    """Complete multiplication table over ordered basis pairs."""

    __slots__ = ("complex", "entries")

    def __init__(self, complex_, entries):
        self.complex = complex_
        self.entries = dict(entries)

    def lookup(self, x, y):
        if x.kind == "one":
            return ChainElement.of(self.complex.ring, y)
        if y.kind == "one":
            return ChainElement.of(self.complex.ring, x)
        try:
            return self.entries[(x, y)]
        except KeyError:
            pass
        self.complex.index_of(x.degree, x)
        self.complex.index_of(y.degree, y)
        if x.degree + y.degree <= 3:
            raise ArgumentError(f"incomplete table: missing ({x!r}, {y!r})")
        return zero_element(self.complex.ring, x.degree + y.degree)

    def pairs(self):
        """Ordered pairs in deterministic (degree, basis position) order."""
        C = self.complex
        return [(x, y) for dx, dy in ((1, 1), (1, 2), (2, 1))
                for x in C.basis(dx) for y in C.basis(dy)]

    def records(self):
        out = []
        for x, y in self.pairs():
            value = self.entries[(x, y)]
            target = self.complex.basis(x.degree + y.degree)
            cells = [[elem.label, str(value.coefficient(elem))]
                     for elem in target if not value.coefficient(elem).is_zero]
            out.append({"left": x.label, "right": y.label, "value": cells})
        return out


#: Largest matrix size ``pftrim products`` accepts; it exits 2 above it
#: before any pfaffian is computed.  On dense linear forms over F3,
#: ``products --trim m`` took 0.9 s at size 9, 2.1 s at 11, 3.7 s at 13 and
#: 7.0 s at 15 (CPU time, Python 3.11 on a 2-core Xeon), with a peak RSS of
#: 34, 65, 135 and 270 MiB: the memory doubles with each step of 2.
MAX_PRODUCT_SIZE = 15


def full_table(td):
    """Multiplication table for every ordered basis pair of degree sum <= 3.

    Each unordered pair is multiplied once: by graded commutativity
    y x = (-1)^(|x| |y|) x y, so a degree-(1, 1) cell y x after x y is its
    negative and a (2, 1) cell is the (1, 2) cell before it."""
    table = ProductTable(td.complex, {})
    entries = table.entries
    for x, y in table.pairs():
        other = entries.get((y, x))
        if other is None:
            entries[(x, y)] = product(td, x, y)
        elif x.degree == y.degree:
            entries[(x, y)] = _element(other.ring, other.degree,
                                       {elem: -value for elem, value
                                        in other.coords.items()})
        else:
            entries[(x, y)] = other
    return table


def multiply(table, left, right):
    """Bilinear extension of the table to chain elements."""
    ring = table.complex.ring
    degree = left.degree + right.degree
    coords = {}
    for ex, cx in left.coords.items():
        for ey, cy in right.coords.items():
            value = table.lookup(ex, ey)
            weight = cx * cy
            for elem, coeff in value.coords.items():
                coords[elem] = coords.get(elem, ring.zero) + coeff * weight
    return ChainElement(ring, degree, coords)


@dataclasses.dataclass(frozen=True)
class LeibnizReport:
    pairs_checked: int
    violations: tuple

    @property
    def all_passed(self):
        return not self.violations

    def summary_lines(self):
        if self.all_passed:
            return [f"leibniz: {self.pairs_checked} pairs, ok"]
        x, y, _ = self.violations[0]
        return [f"leibniz: FAIL ({len(self.violations)} of "
                f"{self.pairs_checked} pairs, first: {x.label}*{y.label})"]


def _columns(mat):
    # nonzero entries of each column of a polynomial matrix, as
    # (row index, term dict) lists
    cols = [[] for _ in mat[0]] if mat else []
    for r, row in enumerate(mat):
        for c, entry in enumerate(row):
            if entry.terms:
                cols[c].append((r, entry.terms))
    return cols


def _left_column(complex_, table, x, y):
    # the column of L_x at y: the table's x*y as (basis index, term dict)
    degree = 1 + y.degree
    return [(complex_.index_of(degree, elem), coeff.terms)
            for elem, coeff in table.lookup(x, y).coords.items()]


def _accumulate(acc, combination, columns, addmul):
    # acc += the sum of coeff * columns[index] over (index, coeff), summed
    # with p = 0 (see _poly_core)
    for index, coeff in combination:
        for row, entry in columns[index]:
            cell = acc.get(row)
            if cell is None:
                cell = acc[row] = {}
            addmul(cell, entry, coeff, 0, 1)


def _negates(column, other, p):
    # whether two columns of (basis index, term dict) pairs are negatives
    neg = _ring_mod._core.neg_terms
    return dict(column) == {index: neg(terms, p) for index, terms in other}


def _certified_rows(C):
    """Rows S of C2 that settle the C2 Leibniz identity, or None.

    S is returned when, at one of ``linalg.POINTS`` in F_p^3 (rationals:
    mod ``linalg.QQ_MODULUS``, refusing a matrix with a denominator that
    vanishes there), d3 has rank rank C3 and the ranks of d2 and d3 add up
    to rank C2, and when d1 d2 = 0 and d2 d3 = 0 hold exactly.  It holds
    the rows of C2 that ``linalg.insert_row`` accepts when fed the rows of
    d3 at that point in order, so the S-rows of d3 form a square block
    whose determinant is a nonzero polynomial."""
    p = residue_modulus(C.ring)
    d2, d3 = ([[residue_terms(entry, p) for entry in row]
               for row in C.differential(d)] for d in (2, 3))
    if any(None in row for row in d2 + d3):
        return None
    for point in POINTS:
        basis = {}
        rows = frozenset(
            r for r, row in enumerate(d3)
            if insert_row(basis, residues_at(row, point, p), p) is not None)
        if len(rows) != C.rank(3):
            continue
        basis = {}
        for row in d2:
            insert_row(basis, residues_at(row, point, p), p)
        if len(basis) + len(rows) == C.rank(2):
            return rows if C.composes_to_zero() else None
    return None


def _on_rows(columns, rows):
    # the columns of (row index, term dict) pairs cut down to the rows given
    return [[(r, terms) for r, terms in column if r in rows]
            for column in columns]


def verify_leibniz(td, table):
    """Check the Leibniz rule d(xy) = d(x)y - x d(y) on every ordered pair
    with the first factor of degree 1 and degree sum at most 3.

    For each degree-1 basis element x the table gives the left
    multiplications L_x: C1 -> C2 and L_x: C2 -> C3, read through
    ``table.lookup`` so that a tampered or incomplete table is caught.
    The rule for all pairs (x, y) is then two polynomial-matrix identities,

        on C1:  d2 L_x = d1(x) I - e_x d1,
        on C2:  d3 L_x = d1(x) I - L_x d2,

    where e_x d1 is the matrix whose only nonzero row, the row of x, is d1.
    Column y of the residual (left side minus right side) is
    d(xy) - (d(x)y - x d(y)).  Each nonzero column is a violation
    (x, y, diff), with the column as a ChainElement of the degree of y;
    violations come in (x, degree of y, basis position of y) order.

    On C1 the residual column of (x, y) is d2(xy) + d1(y) e_x - d1(x) e_y,
    so when the table's x*y is the negative of its y*x, as graded
    commutativity makes it, the column is the negative of the one for
    (y, x) and is read off that one.  A pair whose two cells are not
    negatives of each other (a table tampered in one order, say) has its
    column computed from its own cell.  Each cell is summed over the
    integers and reduced once (the deferred reduction of _poly_core).

    On C2 most columns are checked on t + 1 rows only.  Let R be the C2
    residual of x.  When the C1 identity holds for x, and d1 d2 = 0 and
    d2 d3 = 0, then d2 R = d2 d3 L_x - d1(x) d2 + (d1(x) d2 - e_x d1 d2)
    = 0.  If also, at a point P of F_p^3, rank d3(P) = rank C3 (= t + 1)
    and rank d2(P) + rank d3(P) = rank C2, the complex is exact at C2 over
    the fraction field (the rank criterion of Buchsbaum and Eisenbud), so
    each column of R is d3 applied to some vector.  On the rows S where
    d3(P) has a nonzero maximal minor (``_certified_rows``: the rows
    ``linalg.insert_row`` accepts from d3(P) in order) that block of d3 is
    invertible over the fraction field, so a column of R is zero exactly
    when it is zero on S.  The full column is computed, as the violation's
    diff or in place of the restricted one, when no point certifies, a
    composition is nonzero, x has a C1 violation, or the column is
    nonzero on S; every report is therefore the one the full check
    gives."""
    C = td.complex
    ring = td.ring
    core = _ring_mod._core
    addmul, p = core.addmul_into, ring._p
    basis1, basis2 = C.basis(1), C.basis(2)
    d1 = [entry.terms for entry in C.differential(1)[0]]
    d2 = _columns(C.differential(2))
    d3 = _columns(C.differential(3))
    left1 = [[_left_column(C, table, x, y) for y in basis1] for x in basis1]
    rows = _certified_rows(C)
    if rows is not None:
        d3_rows = _on_rows(d3, rows)
    violations = []
    shared = {}  # (x, y) position -> nonzero C1 residual column, for (y, x)

    def residual(acc, ix, iy, diagonal=True):
        # subtract d1(x) from the diagonal unless told not to, then reduce
        # each cell once; the nonzero cells of the column
        if d1[ix] and diagonal:
            acc[iy] = core.sub_terms(acc.get(iy, {}), d1[ix], 0)
        if p:
            acc = {row: core.reduce_terms(terms, p)
                   for row, terms in acc.items()}
        return {row: terms for row, terms in acc.items() if terms}

    def record(ix, y, column, basis):
        if column:
            coords = {basis[row]: Polynomial(ring, terms)
                      for row, terms in column.items()}
            violations.append((basis1[ix], y,
                               ChainElement(ring, y.degree, coords)))

    for ix, x in enumerate(basis1):
        clean = len(violations)
        for iy, y in enumerate(basis1):
            if iy < ix and _negates(left1[ix][iy], left1[iy][ix], p):
                column = {row: core.neg_terms(terms, p) for row, terms
                          in shared.get((iy, ix), {}).items()}
            else:
                acc = {}
                _accumulate(acc, left1[ix][iy], d2, addmul)
                if d1[iy]:
                    acc[ix] = core.add_terms(acc.get(ix, {}), d1[iy], 0)
                column = residual(acc, ix, iy)
                if column and iy > ix:
                    shared[(ix, iy)] = column
            record(ix, y, column, basis1)
        certified = rows is not None and len(violations) == clean
        if certified:
            left1_rows = _on_rows(left1[ix], rows)
        left2 = [_left_column(C, table, x, y) for y in basis2]
        for iy, y in enumerate(basis2):
            if certified:
                acc = {}
                _accumulate(acc, left2[iy], d3_rows, addmul)
                _accumulate(acc, d2[iy], left1_rows, addmul)
                if not residual(acc, ix, iy, iy in rows):
                    continue
            acc = {}
            _accumulate(acc, left2[iy], d3, addmul)
            _accumulate(acc, d2[iy], left1[ix], addmul)
            record(ix, y, residual(acc, ix, iy), basis2)
    return LeibnizReport(len(basis1) * (len(basis1) + len(basis2)),
                         tuple(violations))
