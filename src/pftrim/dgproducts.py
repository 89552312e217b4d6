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

So every degree-(1, 1) cell of an index pair is a monomial shift of one
vector.  A factor index is a u block up to t and an e above it, and D(k,i,j)
vanishes for k in {i, j}, so the blocks a cell contracts are fixed by its
pair.  `full_table` keeps, per pair i < j, the base e_i e_j = v(i,j) + sum
over the other blocks k of D(k,i,j) v^k, and the sums S of the pair's u
blocks; the cell (i,l)(j,s) is the base times (-1)^n z_l z_s, negated again
when i > j, with each u factor's block set to its contraction.  A cell of
one block is -y_k v^k_ls, and x x has no part.  In degree (1, 2), e_i y is
kept per (i, y) and a u^i_l cell is its -z_l shift, plus a w^i term
against its own block.  That table is the one route to a cell: `product`
reads it, and the trimming keeps it from the first call on.  Every cell is
kept there as that recipe alone, its coordinates built on each read; its
residues mod the maximal ideal, which `classify.tor_products` reads, are
the constant terms of its unshifted parts.  `verify_leibniz` reads every
cell off its parts, any other `ChainElement` being its coordinates as one
unshifted part: a cell's C1 residual is the sum of the shifts of its
parts' d2 images, and its C2 column the shifts of its parts.  Whether a
cell is the trimming's own recipe at its own position decides only what
is shared: d2 of such a cell's part is taken once per call, and on C2 the
first certified u of a block settles, for the other two, the rows outside
the block, which their recipes make its z-shifts there (the trust rule of
`verify_leibniz`).
"""

import dataclasses
from itertools import combinations
from operator import attrgetter

from . import polyring as _ring_mod
from .errors import ArgumentError, FieldMismatch, _is_int
from .linalg import POINTS, insert_row, residue_bits, residue_modulus, \
    residue_terms, residues_at
from .pfaffian import rearrange_sign, sigma3, sigma5
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

    #: Read as a recipe is (``_Recipe``): (-1)^negate times the sum over the
    #: parts (name, (element, term dict) pairs, key) of z^key times the
    #: pairs.  A plain element is its coordinates as one unshifted part.
    negate = False

    def __init__(self, ring, degree, coords=None):
        if not _is_int(degree) or degree < 0:
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

    @property
    def parts(self):
        return ((None, [(elem, coeff.terms)
                        for elem, coeff in self.coords.items()], 0),)

    def _residues(self):
        # {basis element: nonzero constant term of its coefficient}, the
        # element modulo the maximal ideal, off the parts: a part shifted
        # by a nonzero key has none, and the parts hold disjoint elements
        p, negate = self.ring._p, self.negate
        out = {}
        for _, pairs, key in self.parts:
            if not key:
                for elem, terms in pairs:
                    c = terms.get(0)
                    if c:
                        out[elem] = p - c if negate else c
        return out

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
        coords = self.coords
        if not coords:
            return "0"
        parts = []
        for elem in sorted(coords, key=lambda b: (b.kind, b.data)):
            text = str(coords[elem])
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
            not all(_is_int(n) for n in indices):
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
    if a == b or i == j:
        return td.ring.zero
    if a > b:
        return -d_constants(td, flavor, (k, i, j, *vars_, b, a))
    # C is the v^k_ab coordinate of (i,l)(j,s) times (-1)^n
    l, s = (*vars_, None, None)[:2]
    value = _degree_one_product(td, i, l, j, s).get(BasisElement.V(k, a, b),
                                                    td.ring.zero)
    return -value if len(vars_) == 1 else value


def _memo(fn):
    # cache fn(td, *args) on td, keyed by its arguments; a helper of an
    # index pair is kept for i < j only, its callers applying the sign of
    # i > j.  The cache sits on the (frozen) dataclass through the __dict__
    # escape so the public field set stays as documented
    name = fn.__name__

    def cached(td, *args):
        cache = td.__dict__.get("_product_cache")
        if cache is None:
            cache = td.__dict__["_product_cache"] = {}
        key = (name, *args)
        hit = cache.get(key)
        if hit is None:
            hit = cache[key] = fn(td, *args)
        return hit
    return cached


def _reduced(acc, p):
    # the term dict of an accumulator summed with p = 0 (see _poly_core)
    return check_exponents(_ring_mod._core.reduce_terms(acc, p) if p else acc)


@_memo
def _splitting(td, k):
    # the rows h with a nonzero splitting constant c_{h,k}, as (h, (c_{h,k,1},
    # c_{h,k,2}, c_{h,k,3}) term dicts) pairs: no other row enters a sum
    return tuple((h, tuple(c.terms for c in td.c[(h, k)]))
                 for h in range(1, td.m + 1) if any(td.c[(h, k)]))


@_memo
def _block_constants(td, k):
    # {(i, j): (D(k,i,j,a,b) for (a, b) in _PAIRS)} for i < j, as term
    # dicts: the sum over r of sigma3(i,j,r) c_{r,k,b} times the inner sum
    # over h of sigma5(i,j,r,h,k) pf(i,j,r,h,k) c_{h,k,a}.  The inner sum
    # depends on the set {i, j, r} only, so each set is summed once and
    # added to its three pairs.  A pair holding k is left out: sigma5
    # vanishes on repeated indices, so its D is zero
    core, p = _ring_mod._core, td.ring._p
    rows = _splitting(td, k)
    weights = {r: w for r, w in rows if w[1] or w[2]}
    out = {}
    full = (1 << td.m) - 1
    for i, j, r in combinations([n for n in range(1, td.m + 1) if n != k], 3):
        pairs = [((x, y), z) for (x, y), z in (((j, r), i), ((i, r), j),
                                                ((i, j), r)) if z in weights]
        if not pairs:
            continue
        # the indices kept when i, j, r, k are dropped, as a pfaffian memo mask
        kept = full ^ sum(1 << (n - 1) for n in (i, j, r, k))
        inner = ({}, {})
        for h, w in rows:
            if h != k and h not in (i, j, r) and (w[0] or w[1]):
                pf = td.T._pf(kept ^ (1 << (h - 1))).terms
                if pf:
                    s5 = sigma5(i, j, r, h, k)
                    for acc, weight in zip(inner, w):
                        if weight:
                            core.addmul_into(acc, pf, weight, 0, s5)
        inner = [_reduced(acc, p) for acc in inner]
        for (x, y), z in pairs:
            accs = out.setdefault((x, y), ({}, {}, {}))
            for acc, (a, b) in zip(accs, _PAIRS):
                if weights[z][b - 1] and inner[a - 1]:
                    core.addmul_into(acc, inner[a - 1], weights[z][b - 1], 0,
                                     sigma3(x, y, z))
    return {pair: tuple(_reduced(acc, p) for acc in accs)
            for pair, accs in out.items()}


#: Packed exponent keys of z1, z2, z3.
_VAR_KEYS = tuple(pack_exponents(*(int(n == v) for n in range(3)))
                  for v in range(3))


def _z_key(l, s):
    # the packed exponents of z_l z_s over the u factors; 0 when both
    # factors are e's
    return (_VAR_KEYS[l - 1] if l else 0) + (_VAR_KEYS[s - 1] if s else 0)


def _shift(terms, key, negate, p):
    # (-1)^negate z^key terms for canonical terms in one pass, p - c being
    # the negative of c both over F_p and, with p = 0, over the rationals;
    # with neither a key nor a sign, the term dict itself
    if negate:
        return {k + key: p - c for k, c in terms.items()}
    return {k + key: c for k, c in terms.items()} if key else terms


def _shifted(ring, pairs, key, negate):
    # {element: _shift of its terms} as Polynomials, for (element, term
    # dict) pairs whose shift `_recipe` checked against EXPONENT_LIMIT;
    # built afresh on each read of a cell.  Polynomials are immutable, so
    # an unshifted one may share its term dict with the _memo cache
    return {elem: Polynomial(ring, _shift(terms, key, negate, ring._p))
            for elem, terms in pairs}


def gorenstein_product(T, x, y):
    """Product of two basis elements of the untrimmed selfdual resolution:
    `product` on the trimming with nothing trimmed, built once per matrix."""
    if T._untrimmed is None:
        T._untrimmed = _trimmed_data(T, 0)
    return product(T._untrimmed, x, y)


def _factor(elem):
    # a degree-1 basis element as a factor (i, l): e_i is (i, None) and
    # u^k_l is (k, l)
    return (*elem.data, None)[:2]


def product(td, x, y):
    """Product of two basis elements of the trimmed complex: the cell of
    td's multiplication table (`full_table`), built on the first call and
    kept on td."""
    C = td.complex
    for elem in (x, y):
        if not isinstance(elem, BasisElement):
            raise ArgumentError(f"not a basis element: {elem!r}")
        C.index_of(elem.degree, elem)
    return _kept_table(td).lookup(x, y)


@_memo
def _pair_base(td, i, j):
    # e_i e_j for i < j, as the degree-(1, 1) cells of the pair read it:
    # (element, term dict) pairs for the f part and the v^k = D(k,i,j) of
    # the blocks k other than i and j; per u block k of the pair the sums
    # S(i,j; k,p), p = 1, 2, 3, of the f_r coordinates times c_{r,k,p}, and
    # per u factor (k, var) its contraction, S(i,j; k,b) at v^k_ab if var
    # is a and -S(i,j; k,a) if it is b
    core, p = _ring_mod._core, td.ring._p
    basis2 = td.complex.basis(2)
    selfdual = [value.terms for value in _selfdual_part(td.T, i, j)]
    base = [(f, terms) for f, terms in zip(basis2, selfdual) if terms]
    sums, contractions = {}, {}
    for k in range(1, td.t + 1):
        blocks = basis2[td.m + 3 * (k - 1):td.m + 3 * k]
        if k != i and k != j:
            base.extend((v, terms) for v, terms in zip(
                blocks, _block_constants(td, k).get((i, j), ())) if terms)
            continue
        accs = ({}, {}, {})
        for r, weights in _splitting(td, k):
            for acc, weight in zip(accs, weights):
                if weight and selfdual[r - 1]:
                    core.addmul_into(acc, selfdual[r - 1], weight, 0, 1)
        sk = sums[k] = tuple(_reduced(acc, p) for acc in accs)
        for var in (1, 2, 3):
            contraction = tuple(
                (v, sk[b - 1] if var == a else core.neg_terms(sk[a - 1], p))
                for v, (a, b) in zip(blocks, _PAIRS)
                if var in (a, b) and sk[(b if var == a else a) - 1])
            contractions[(k, var)] = contraction
    return base, sums, contractions


def _cell_parts(td, i, l, j, s):
    # (i,l)(j,s) as (negate, parts): the cell is (-1)^negate times the sum
    # over the parts (name, (element, term dict) pairs, key) of z^key times
    # the pairs.  For i != j the first part is the base of the pair under
    # z_l z_s, named by the pair; then each u factor's contraction under
    # the other factor's z, named (pair, block, var).  In one block,
    # u^i_l u^i_s = -y_i v^i_ls is one part, named (i, i, a, b) for
    # v^i_ls = +-v^i_ab; x x, and a zero y_i, have none.  The parts hold
    # disjoint elements
    if i == j:
        sign, v = signed_v(i, l, s)
        y_i = td.y[i - 1].terms
        return sign > 0, [((i, *v.data), ((v, y_i),), 0)] if sign and y_i \
            else []
    pair = (i, j) if i < j else (j, i)
    base, _, contractions = _pair_base(td, *pair)
    parts = [(pair, base, _z_key(l, s))]
    for k, var, other in ((i, l, s), (j, s, l)):
        if var:
            parts.append(((*pair, k, var), contractions.get((k, var), ()),
                          _z_key(other, None)))
    return ((l is None) != (s is None)) != (i > j), parts


def _degree_one_product(td, i, l, j, s):
    # the coordinates of (i,l)(j,s): the base of the pair times (-1)^n z_l
    # z_s (n u factors), negated once more when i > j, and each u factor's
    # block contracted, times the other z; -y_i v^i_ls in one block
    return _built(_recipe(td, 2, (i, l, j, s), *_cell_parts(td, i, l, j, s)))


@_memo
def _checked(td):
    # the (part name, key) shifts `_recipe` found within EXPONENT_LIMIT
    return set()


def _recipe(td, degree, factors, negate, parts):
    # td's recipe cell of the factors, each (part name, key) shift checked
    # against EXPONENT_LIMIT once per trimming (on the shifted keys alone;
    # a zero key cannot pass it), so no cell read later can raise
    checked = _checked(td)
    for name, pairs, key in parts:
        if key and (name, key) not in checked:
            check_exponents(k + key for _, terms in pairs for k in terms)
            checked.add((name, key))
    return _Recipe(td, degree, factors, negate, parts)


def _built(cell):
    # the coordinates of a recipe cell, built afresh on each read: (-1)^negate
    # times the sum over its parts of z^key times their pairs, the parts
    # holding disjoint elements
    coords = {}
    for _, pairs, key in cell.parts:
        coords.update(_shifted(cell.ring, pairs, key, cell.negate))
    return coords


class _Recipe(ChainElement):
    # a cell of td's full_table (every cell is one) kept as its factors,
    # (i, l, j, s) in degree (1, 1) and (i, l, y) in degree (1, 2), and its
    # parts (negate, parts) from _cell_parts or _degree_two_parts.  It
    # keeps nothing else: its coords are built by _built on each read, a
    # fresh dict no caller's edit can carry back into the cell.  td,
    # factors, negate, parts and coords are properties with no setter, so
    # no caller can change the cell the recipe names.  _residues and
    # verify_leibniz read every cell off its parts, a recipe's as kept
    __slots__ = ("_td", "_factors", "_negate", "_parts")

    def __init__(self, td, degree, factors, negate, parts):
        self.ring, self.degree = td.ring, degree
        self._td, self._factors = td, factors
        self._negate, self._parts = negate, parts

    td = property(attrgetter("_td"))
    factors = property(attrgetter("_factors"))
    negate = property(attrgetter("_negate"))
    parts = property(attrgetter("_parts"))

    @property
    def coords(self):
        return _built(self)


@_memo
def _times_degree_two(td, i, y):
    # e_i y for y of degree 2 as (element, term dict) pairs, for any index
    # i (e_i need not be a basis element of this trimming)
    p = td.ring._p
    if y.kind == "v":
        # e_i v^k_ab = (-1)^c S(k,i; k,c) w^k with {a, b, c} = {1, 2, 3}
        k, a, b = y.data
        c = 6 - a - b
        if i == k:
            return ()
        value = _pair_base(td, min(i, k), max(i, k))[1][k][c - 1]
        return ((BasisElement.W(k), _shift(value, 0, (c % 2 == 1) != (k > i),
                                           p)),) if value else ()
    # the degree-3 pairing of the i-th selfdual generator with f_j: g when
    # i == j, else, when f_j belongs to a trimmed generator (c holds rows
    # j <= t only), w^j times the sum over r of c_{r,j,3} D(j,i,r,1,2)
    j = y.data[0]
    if i == j:
        return ((BasisElement.G(), td.ring.one.terms),)
    if j > td.t:
        return ()
    core, block = _ring_mod._core, _block_constants(td, j)
    acc = {}
    for r, weights in _splitting(td, j):
        d = block.get((min(i, r), max(i, r)))
        if weights[2] and d and d[0]:
            core.addmul_into(acc, weights[2], d[0], 0, 1 if i < r else -1)
    w = _reduced(acc, p)
    return ((BasisElement.W(j), w),) if w else ()


def _degree_two_parts(td, i, l, y):
    # x y for the factor x = (i, l) and y of degree 2 as (negate, parts),
    # as _cell_parts gives a degree-(1, 1) cell: e_i y, named (i, y), under
    # -z_l for a u; and for u^i_l against its own block, f_i or v^i_ab, a
    # w^i term named (i, l, y), kept negated under the cell's sign.  There
    # e_i y = g or 0 holds no w^i, so the parts hold disjoint elements
    pairs = _times_degree_two(td, i, y)
    if l is None:
        return False, [((i, y), pairs, 0)]
    parts = [((i, y), pairs, _VAR_KEYS[l - 1])]
    if y.data[0] == i:
        if y.kind == "f":
            phi, psi = sorted({1, 2, 3} - {l})
            own, sign = td.dk[(i, phi, psi)].terms, (-1) ** l
        else:
            own = td.y[i - 1].terms
            sign = rearrange_sign((l, *y.data[1:]), (1, 2, 3))
        if own and sign:
            parts.append(((i, l, y), ((BasisElement.W(i), _shift(
                own, 0, sign < 0, td.ring._p)),), 0))
    return True, parts


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
            coords = self.entries[(x, y)].coords
            target = self.complex.basis(x.degree + y.degree)
            cells = [[elem.label, str(coords[elem])]
                     for elem in target if elem in coords]
            out.append({"left": x.label, "right": y.label, "value": cells})
        return out


#: Largest matrix size ``pftrim products`` accepts; it exits 2 above it
#: before the matrix is built.  ``products --trim m`` took (CPU time, Python
#: 3.11 on a shared 2-core Xeon, most of it printing) 0.6-1.0, 1.5-2.2,
#: 3.1-5.0 and 6.6-7.9 s at sizes 9, 11, 13 and 15 on dense linear forms
#: over F3, with a peak RSS of 20, 22, 28 and 43 MiB; with 80% of the
#: entries quadratic of two terms over QQ, 1.5-2.4, 5.4-7.4, 13-18 and
#: 40-50 s, with 21, 31, 55 and 117 MiB.
MAX_PRODUCT_SIZE = 15


def full_table(td):
    """Multiplication table for every ordered basis pair of degree sum <= 3.

    A degree-(1, 1) cell x y of two indices is the base of its index pair
    under one packed-key shift and one sign, with the blocks of its u
    factors overridden by their contractions; u^i_l u^i_s is -y_i v^i_ls and
    x x is zero.  A degree-(1, 2) cell of u^i_l is the -z_l shift of e_i y
    plus its own-block w^i term.  By graded commutativity a (2, 1) cell is
    the (1, 2) cell of the swapped pair.  Every cell is kept as that
    recipe, its coordinates built on each read; each (part, key) shift is
    checked against EXPONENT_LIMIT as the recipe is made, so no cell read
    later can raise."""
    C = td.complex
    table = ProductTable(C, {})
    entries = table.entries
    basis1, basis2 = C.basis(1), C.basis(2)
    for x in basis1:
        i, l = _factor(x)
        for y in basis1:
            j, s = _factor(y)
            entries[(x, y)] = _recipe(td, 2, (i, l, j, s),
                                      *_cell_parts(td, i, l, j, s))
        for y in basis2:
            entries[(x, y)] = _recipe(td, 3, (i, l, y),
                                      *_degree_two_parts(td, i, l, y))
    entries.update(((y, x), entries[(x, y)]) for y in basis2 for x in basis1)
    return table


@_memo
def _kept_table(td):
    # the table `product` reads, built once per trimming
    return full_table(td)


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


def _accumulate(acc, combination, columns, addmul):
    # acc += the sum of coeff * columns[index] over (index, coeff), summed
    # with p = 0 (see _poly_core)
    for index, coeff in combination:
        for row, entry in columns[index]:
            cell = acc.get(row)
            if cell is None:
                cell = acc[row] = {}
            addmul(cell, entry, coeff, 0, 1)


def _reduced_rows(acc, p):
    # the nonzero rows of a column summed with p = 0, each reduced once
    if p:
        acc = {row: _ring_mod._core.reduce_terms(terms, p)
               for row, terms in acc.items()}
    return {row: terms for row, terms in acc.items() if terms}


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

    def at(row, point):  # the row's residues, packed over F2
        return residue_bits(row, point) if p == 2 else residues_at(row, point, p)
    for point in POINTS:
        basis = {}
        rows = frozenset(
            r for r, row in enumerate(d3)
            if insert_row(basis, at(row, point), p) is not None)
        if len(rows) != C.rank(3):
            continue
        basis = {}
        for row in d2:
            insert_row(basis, at(row, point), p)
        if len(basis) + len(rows) == C.rank(2):
            return rows if C.composes_to_zero() else None
    return None


def _d2_image(C, d2, pairs, p):
    # d2 of the degree-2 combination of (element, term dict) pairs, as the
    # reduced nonzero rows of its C1 column
    acc = {}
    _accumulate(acc, [(C.index_of(2, elem), terms) for elem, terms in pairs],
                d2, _ring_mod._core.addmul_into)
    return _reduced_rows(acc, p)


def _on_rows(columns, rows):
    # the columns of (row index, term dict) pairs cut down to the rows given
    return [[(r, terms) for r, terms in column if r in rows]
            for column in columns]


def _own_block(C, i):
    # the positions in C2 of the block of u^i: f_i and v^i_12, v^i_13, v^i_23
    return frozenset(C.index_of(2, elem) for elem in (
        BasisElement.F(i), *(BasisElement.V(i, a, b) for a, b in _PAIRS)))


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

    Every cell is read off its parts.  A recipe (``full_table``) is
    (-1)^negate times the sum of its parts v under z-shifts z^K
    (``_cell_parts``), and any other cell is its coordinates as one
    unshifted part.  d2 is R-linear, so d2(z^K v) = z^K d2(v): d2 of each
    part is summed and reduced (``_d2_image``), and d2 of the cell is the
    sum of the images' shifts under its sign.  A cell term is a term of v,
    key b, moved to key b + K with its coefficient, and a d2 entry term has
    some key e: the per-cell sum puts their product at (b + K) + e and the
    shifted image at (b + e) + K, the same int.  So both add the same
    coefficients at the same keys whatever a lane holds, past
    EXPONENT_LIMIT too, and the column equals the per-cell one term by
    term: over F_p both are the canonical residues of one sum.

    Trust decides what cells share, never how a cell is read.  A cell is
    trusted when it is td's own recipe at its own position, its td being
    td and its factors those of (x, y).  The image of a trusted cell's part
    is kept by part name for the rest of the call; any other cell,
    tampered, moved, from another table or not a recipe, has its images
    computed for it alone.  On C1 the residual column of (x, y) is d2(xy) +
    d1(y) e_x - d1(x) e_y, so when x*y is the negative of y*x, as graded
    commutativity makes it, the column is the negative of the one for
    (y, x).  It is read off that one when both cells are trusted: the
    recipes of (i,l)(j,s) and (j,s)(i,l) hold the same parts under
    opposite signs, c against p - c term by term.  Every report
    (violations, their order and diffs, ``pairs_checked``) is therefore
    the one the per-cell check gives.

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
    gives.  A cell is cut to S off its parts, and only the coordinates on
    S are shifted.

    The three u's of a block share most of that work.  As d(u^i_l) = -z_l
    d(e_i), u^i_l multiplies as -z_l e_i away from the own positions O_i =
    {f_i, v^i_12, v^i_13, v^i_23} of its block.  Split S into S_i, its rows
    in O_i, and S' = S - S_i.  The first certified u of block i, the anchor
    a, is checked on S as above and keeps the columns y outside O_i that
    vanish there.  Call a u of block i whole when every cell of its row is
    trusted, in both degrees; its cells of the block then lie in O_i.  When
    a and a later certified x = u^i_l are whole and z_a d1(x) = z_l d1(a),
    then z_a L_x = z_l L_a off O_i by construction: there x's recipes are
    z_l, and a's z_a, times the same parts under the same sign (the base
    under z_s and the contraction of (j,s), or e_i y).  The residual of x at
    y on S', d3|S' L_x(y) + (L_x|S') d2(y) - d1(x) [y in S'] e_y, is linear
    in (L_x|S', L_x(y), d1(x)), so at each y outside O_i, z_a R_x = z_l R_a
    on S'.  Both sums only add keys, so as for the C1 images above the two
    sides hold the same coefficients at the same int keys whatever a lane
    holds, and a shift is injective: R_x vanishes on S' with R_a, and each
    column the anchor kept is checked on S_i only.  A column in O_i, one the
    anchor did not keep, and every column of an x or anchor that is not
    whole are checked on S as above, so again every report is the one the
    full check gives.  As no cell of either degree is read off its
    coordinates, a clean check, certified or not, builds no recipe's."""
    C = td.complex
    ring = td.ring
    core = _ring_mod._core
    addmul, p = core.addmul_into, ring._p
    basis1, basis2 = C.basis(1), C.basis(2)
    d1 = [entry.terms for entry in C.differential(1)[0]]
    d2 = _columns(C.differential(2))
    d3 = _columns(C.differential(3))
    factors = [_factor(x) for x in basis1]

    def trusted(cell, *of):
        # whether the cell is td's own recipe of the product of the factors
        return isinstance(cell, _Recipe) and cell.td is td and \
            cell.factors == of

    cells = [[table.lookup(x, y) for y in basis1] for x in basis1]
    trust = [[trusted(cell, *factors[ix], *factors[iy])
              for iy, cell in enumerate(row)] for ix, row in enumerate(cells)]
    rows = _certified_rows(C)
    if rows is not None:
        d3_rows = _on_rows(d3, rows)
    violations = []
    shared = {}  # (x, y) position -> nonzero C1 residual column, for (y, x)
    images = {}  # part name of a trusted cell -> _d2_image of its pairs
    # u block -> its whole anchor's position, the C2 positions it settled
    # outside the block, and d3 cut to the block's rows of S; None when
    # the block's first certified u is not whole
    anchors = {}

    def residual(acc, ix, iy, diagonal=True):
        # subtract d1(x) from the diagonal unless told not to, then reduce
        # each cell once; the nonzero cells of the column
        if d1[ix] and diagonal:
            acc[iy] = core.sub_terms(acc.get(iy, {}), d1[ix], 0)
        return _reduced_rows(acc, p)

    def shifted_image(cell, cache):
        # d2 of the cell, summed with p = 0, from the images of its parts
        # under its sign; a part's image is kept in the cache by name
        acc = {}
        for name, pairs, key in cell.parts:
            image = cache.get(name)
            if image is None:
                image = cache[name] = _d2_image(C, d2, pairs, p)
            if cell.negate:
                image = {row: core.neg_terms(terms, p)
                         for row, terms in image.items()}
            for row, terms in image.items():
                entry = acc.get(row)
                if entry is None:
                    acc[row] = {k + key: c for k, c in terms.items()}
                    continue
                for k, c in terms.items():
                    k += key
                    c += entry.get(k, 0)
                    if c:
                        entry[k] = c
                    else:
                        del entry[k]
        return acc

    def read(cell, degree, rows):
        # L_x at y, the cell, off its parts as (basis index, term dict)
        # pairs on the rows given: only the coordinates kept are shifted
        return [(r, _shift(terms, key, cell.negate, p))
                for _, pairs, key in cell.parts for elem, terms in pairs
                if (r := C.index_of(degree, elem)) in rows]

    def record(ix, y, column, basis):
        if column:
            coords = {basis[row]: Polynomial(ring, terms)
                      for row, terms in column.items()}
            violations.append((basis1[ix], y,
                               ChainElement(ring, y.degree, coords)))

    for ix, x in enumerate(basis1):
        clean = len(violations)
        for iy, y in enumerate(basis1):
            if iy < ix and trust[ix][iy] and trust[iy][ix]:
                column = {row: core.neg_terms(terms, p) for row, terms
                          in shared.get((iy, ix), {}).items()}
            else:
                acc = shifted_image(cells[ix][iy],
                                    images if trust[ix][iy] else {})
                if d1[iy]:
                    acc[ix] = core.add_terms(acc.get(ix, {}), d1[iy], 0)
                column = residual(acc, ix, iy)
                if column and iy > ix:
                    shared[(ix, iy)] = column
            record(ix, y, column, basis1)
        certified = rows is not None and len(violations) == clean
        i, l = factors[ix]
        cells2 = [table.lookup(x, y) for y in basis2]
        left2 = [read(cell, 3, range(C.rank(3))) for cell in cells2]
        whole = all(trust[ix]) and all(
            trusted(cell, i, l, y) for cell, y in zip(cells2, basis2))
        settled, anchoring, left1 = (), None, None
        if certified:
            left1_rows = [read(cell, 2, rows) for cell in cells[ix]]
            if l:
                own = _own_block(C, i)
                if i not in anchors:
                    anchors[i] = None
                    if whole:
                        anchoring = set()
                        anchors[i] = (ix, anchoring, _on_rows(d3, rows & own))
                elif whole and anchors[i]:
                    a, kept, d3_own = anchors[i]
                    if _shift(d1[ix], _VAR_KEYS[factors[a][1] - 1], 0, p) == \
                            _shift(d1[a], _VAR_KEYS[l - 1], 0, p):
                        settled, left1_own = kept, _on_rows(left1_rows, own)
        for iy, y in enumerate(basis2):
            if certified:
                # a column the anchor settled is zero on S' with the
                # anchor's, so it is checked on S_i only
                d3_part, left1_part, diagonal = (d3_own, left1_own, False) \
                    if iy in settled else (d3_rows, left1_rows, iy in rows)
                acc = {}
                _accumulate(acc, left2[iy], d3_part, addmul)
                _accumulate(acc, d2[iy], left1_part, addmul)
                if not residual(acc, ix, iy, diagonal):
                    if anchoring is not None and iy not in own:
                        anchoring.add(iy)
                    continue
            if left1 is None:
                left1 = [read(cell, 2, range(len(basis2)))
                         for cell in cells[ix]]
            acc = {}
            _accumulate(acc, left2[iy], d3, addmul)
            _accumulate(acc, d2[iy], left1, addmul)
            record(ix, y, residual(acc, ix, iy), basis2)
    return LeibnizReport(len(basis1) * (len(basis1) + len(basis2)),
                         tuple(violations))
