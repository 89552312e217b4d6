"""Free resolutions: the trimmed resolution that glues one Koszul copy
per trimmed generator onto the truncated Gorenstein complex of a skew
matrix, and the rank-3 Koszul complex it glues in.  Trimming nothing
(t = 0) leaves the length-3 Gorenstein resolution itself, so
``gorenstein_resolution`` is that case of the same construction.

Basis conventions (order is part of the contract and golden tests rely
on it):

- degree 1: e_{t+1}, ..., e_m, then u-blocks u^1_1, u^1_2, u^1_3, ...,
  u^t_3;
- degree 2: f_1, ..., f_m, then v-blocks per copy in the order (1,2),
  (1,3), (2,3);
- degree 3: g, then w^1, ..., w^t;
- degree 0: the unit basis element "1".

Labels are rendered as e3, u2_3, f1, v2_13, w1, g, 1.

The boundary maps follow the block shapes

    b1 = ( y restricted | -y_k * koszul_1 blocks )
    b2 = [[rows t+1..m of T,    0          ],
          [-Q1,                 koszul_2 blocks]]
    b3 = [[column of y,         0          ],
          [Q2,                  koszul_3 blocks]]

where Q1 stacks the maps f_i -> sum_l c_{i,k,l} u^k_l and Q2 stacks the
columns (d^k_{1,2}, d^k_{1,3}, d^k_{2,3}).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import ArgumentError, MinimizationNotPolynomial
from .pfaffian import SkewMatrix, pfaffian_drop, sigma3
from .polyring import PolyRing, decompose_c


@dataclass(frozen=True, order=True)
class BasisElement:
    """One basis symbol of the resolution, tagged by kind.

    Kinds: "e" (degree 1, data (i,)), "u" (degree 1, data (k, l)),
    "f" (degree 2, data (i,)), "v" (degree 2, data (k, a, b) with a < b),
    "g" (degree 3), "w" (degree 3, data (k,)), "one" (degree 0).
    """

    kind: str
    data: tuple

    @classmethod
    def E(cls, i: int) -> "BasisElement":
        if i < 1:
            raise ArgumentError(f"e index must be positive, got {i}")
        return cls("e", (i,))

    @classmethod
    def U(cls, k: int, l: int) -> "BasisElement":
        if k < 1 or l not in (1, 2, 3):
            raise ArgumentError(f"invalid u indices ({k},{l})")
        return cls("u", (k, l))

    @classmethod
    def F(cls, i: int) -> "BasisElement":
        if i < 1:
            raise ArgumentError(f"f index must be positive, got {i}")
        return cls("f", (i,))

    @classmethod
    def V(cls, k: int, a: int, b: int) -> "BasisElement":
        if k < 1 or a not in (1, 2, 3) or b not in (1, 2, 3) or a >= b:
            raise ArgumentError(f"invalid v indices ({k},{a},{b})")
        return cls("v", (k, a, b))

    @classmethod
    def G(cls) -> "BasisElement":
        return cls("g", ())

    @classmethod
    def W(cls, k: int) -> "BasisElement":
        if k < 1:
            raise ArgumentError(f"w index must be positive, got {k}")
        return cls("w", (k,))

    @classmethod
    def ONE(cls) -> "BasisElement":
        return cls("one", ())

    @property
    def degree(self) -> int:
        return {"one": 0, "e": 1, "u": 1, "f": 2, "v": 2, "g": 3, "w": 3}[self.kind]

    @property
    def label(self) -> str:
        if self.kind == "e":
            return f"e{self.data[0]}"
        if self.kind == "u":
            return f"u{self.data[0]}_{self.data[1]}"
        if self.kind == "f":
            return f"f{self.data[0]}"
        if self.kind == "v":
            return f"v{self.data[0]}_{self.data[1]}{self.data[2]}"
        if self.kind == "w":
            return f"w{self.data[0]}"
        return {"g": "g", "one": "1"}[self.kind]

    def __repr__(self):
        return self.label


def signed_v(k: int, a: int, b: int):
    """Normalize v^k_{a,b}: returns (sign, element) with the element's
    index pair increasing, or (0, None) when a == b."""
    if a == b:
        return 0, None
    if a < b:
        return 1, BasisElement.V(k, a, b)
    return -1, BasisElement.V(k, b, a)


#: The variable pairs (a, b) of the v-blocks, in basis order.
_PAIRS = ((1, 2), (1, 3), (2, 3))

#: Koszul boundary matrices in the fixed bases (u_1,u_2,u_3),
#: (v_{1,2},v_{1,3},v_{2,3}), (w); entries are variable indices with sign,
#: encoded as (sign, variable) with variable in 1..3, or None for zero.
_KOSZUL_2 = (((-1, 2), (-1, 3), None),
             ((1, 1), None, (-1, 3)),
             (None, (1, 1), (1, 2)))
_KOSZUL_3 = ((1, 3), (-1, 2), (1, 1))


def _koszul_matrices(ring: PolyRing):
    # the Koszul boundaries 2 and 3; boundary 1 is (z1, z2, z3)
    z = ring.gens

    def of(cell):
        if cell is None:
            return ring.zero
        sign, var = cell
        return z[var - 1] if sign == 1 else -z[var - 1]

    delta2 = tuple(tuple(of(cell) for cell in row) for row in _KOSZUL_2)
    delta3 = tuple((of(cell),) for cell in _KOSZUL_3)
    return delta2, delta3


class ChainComplex:
    """Length-3 complex of free modules with named bases.

    Treated as immutable; differential d maps degree d to degree d-1 and
    is stored as a rank(d-1) x rank(d) matrix acting on column vectors.
    """

    def __init__(self, ring: PolyRing, bases, differentials):
        self.ring = ring
        self.bases = tuple(tuple(b) for b in bases)
        self.differentials = tuple(linalg.freeze(m) for m in differentials)
        if len(self.bases) != 4 or len(self.differentials) != 3:
            raise ArgumentError("a chain complex has degrees 0..3 and three boundary maps")
        for d in (1, 2, 3):
            mat = self.differentials[d - 1]
            if len(mat) != len(self.bases[d - 1]) or \
                    any(len(row) != len(self.bases[d]) for row in mat):
                raise ArgumentError(f"boundary {d} shape does not match basis sizes")
        self._index = tuple({elem: i for i, elem in enumerate(basis)}
                            for basis in self.bases)

    def rank(self, d: int) -> int:
        return len(self.bases[d])

    @property
    def ranks(self) -> tuple:
        return tuple(len(b) for b in self.bases)

    def basis(self, d: int):
        return self.bases[d]

    def labels(self, d: int):
        return tuple(elem.label for elem in self.bases[d])

    def differential(self, d: int):
        if d not in (1, 2, 3):
            raise ArgumentError(f"boundary index must be 1..3, got {d}")
        return self.differentials[d - 1]

    def index_of(self, d: int, elem: BasisElement) -> int:
        try:
            return self._index[d][elem]
        except KeyError:
            raise ArgumentError(f"{elem.label} is not a degree-{d} basis element here")

    def composes_to_zero(self) -> bool:
        """Whether (boundary d) o (boundary d+1) vanishes for d = 1, 2."""
        for d in (1, 2):
            product = linalg.mat_mul(self.ring, self.differentials[d - 1],
                                     self.differentials[d])
            if any(entry for row in product for entry in row):
                return False
        return True

    def is_minimal(self) -> bool:
        return all(not entry.constant_term()
                   for mat in self.differentials for row in mat for entry in row)

    def to_document(self) -> dict:
        """JSON-ready description: basis labels and matrix entries as
        strings in the polynomial grammar."""
        return {
            "ranks": list(self.ranks),
            "basis": {str(d): list(self.labels(d)) for d in range(4)},
            "differentials": {
                str(d): [[str(entry) for entry in row]
                         for row in self.differential(d)]
                for d in (1, 2, 3)
            },
        }


@dataclass(frozen=True)
class TrimmedData:
    """Everything the trimmed resolution construction produces.

    Fields:
        T: the input skew matrix.
        t: number of trimmed generators.
        c: map (i, k) with k <= t -> (c1, c2, c3) splitting T[k][i] over
            the variables; only the trimmed rows are split.
        y: the m signed subpfaffian generators, 1-based via y[i-1].
        dk: map (k, a, b) with a < b -> the degree-2 correction constant.
        Q1: (3t) x m connecting matrix, rows grouped in threes per copy.
        Q2: (3t) x 1 connecting matrix.
        complex: the assembled ChainComplex.
    """

    T: SkewMatrix
    t: int
    c: dict
    y: tuple
    dk: dict
    Q1: tuple
    Q2: tuple
    complex: ChainComplex

    @property
    def m(self) -> int:
        return self.T.m

    @property
    def ring(self) -> PolyRing:
        return self.T.ring


def _selfdual_part(T, i, j, factor):
    # the f-coordinates of e_i e_j in the Gorenstein resolution, times factor
    coords = {}
    for r in range(1, T.m + 1):
        s3 = sigma3(i, j, r)
        if s3 == 0:
            continue
        pf = pfaffian_drop(T, (i, j, r))
        if pf.is_zero:
            continue
        value = pf * factor if factor is not None else pf
        coords[BasisElement.F(r)] = value if s3 > 0 else -value
    return coords


def gorenstein_resolution(T: SkewMatrix) -> ChainComplex:
    """The resolution 0 -> R -> R^m -> R^m -> R with boundary maps (the
    signed subpfaffian row, T itself, the signed subpfaffian column): the
    trimmed resolution with nothing trimmed."""
    return _trimmed_data(T, 0).complex


def trimmed_resolution(T: SkewMatrix, t: int) -> TrimmedData:
    """Resolution of the ideal generated by m - t untouched subpfaffian
    generators plus the maximal-ideal multiples of the first t.

    Raises:
        ArgumentError: t outside 1..m.
    """
    if not isinstance(t, int) or not 1 <= t <= T.m:
        raise ArgumentError(f"trim count must satisfy 1 <= t <= {T.m}, got {t!r}")
    return _trimmed_data(T, t)


def _trimmed_data(T: SkewMatrix, t: int) -> TrimmedData:
    # the construction for 0 <= t <= m; t = 0 is the Gorenstein resolution
    ring = T.ring
    m = T.m
    zero = ring.zero
    z = ring.gens

    c = {(i, k): decompose_c(T.entry(k, i))
         for k in range(1, t + 1) for i in range(1, m + 1)}

    y = T.generators()

    # d^k_ab = sum over i, r of c_{i,k,b} c_{r,k,a} times the f_r
    # coordinate of e_i e_k, read once per row i with a nonzero splitting
    dk = {(k, a, b): zero for k in range(1, t + 1) for a, b in _PAIRS}
    for (i, k), ci in c.items():
        if not any(ci):
            continue
        selfdual = _selfdual_part(T, i, k, None)
        for a, b in _PAIRS:
            if ci[b - 1]:
                weights = ((c[(f.data[0], k)][a - 1], value)
                           for f, value in selfdual.items())
                inner = sum((w * value for w, value in weights if w), zero)
                dk[(k, a, b)] = dk[(k, a, b)] + ci[b - 1] * inner

    q1 = tuple(tuple(c[(i, k)][l - 1] for i in range(1, m + 1))
               for k in range(1, t + 1) for l in (1, 2, 3))
    q2 = tuple((dk[(k, a, b)],) for k in range(1, t + 1) for (a, b) in _PAIRS)

    deg1 = tuple(BasisElement.E(i) for i in range(t + 1, m + 1)) + \
        tuple(BasisElement.U(k, l) for k in range(1, t + 1) for l in (1, 2, 3))
    deg2 = tuple(BasisElement.F(i) for i in range(1, m + 1)) + \
        tuple(BasisElement.V(k, a, b) for k in range(1, t + 1) for (a, b) in _PAIRS)
    deg3 = (BasisElement.G(),) + tuple(BasisElement.W(k) for k in range(1, t + 1))

    delta2, delta3 = _koszul_matrices(ring)

    d1 = (y[t:] + tuple(-(y[k - 1] * z[l - 1])
                        for k in range(1, t + 1) for l in (1, 2, 3)),)

    d2 = []
    for i in range(t + 1, m + 1):
        d2.append(T.rows[i - 1] + (zero,) * (3 * t))
    for k in range(1, t + 1):
        for l in (1, 2, 3):
            row = [-q1[3 * (k - 1) + (l - 1)][j] for j in range(m)]
            for kk in range(1, t + 1):
                if kk == k:
                    row.extend(delta2[l - 1])
                else:
                    row.extend((zero, zero, zero))
            d2.append(tuple(row))

    d3 = []
    for i in range(1, m + 1):
        d3.append((y[i - 1],) + (zero,) * t)
    for k in range(1, t + 1):
        for offset in range(3):
            row = [q2[3 * (k - 1) + offset][0]]
            for kk in range(1, t + 1):
                row.append(delta3[offset][0] if kk == k else zero)
            d3.append(tuple(row))

    complex_ = ChainComplex(ring, ((BasisElement.ONE(),), deg1, deg2, deg3),
                            (d1, tuple(d2), tuple(d3)))
    return TrimmedData(T=T, t=t, c=c, y=y, dk=dk, Q1=q1, Q2=q2, complex=complex_)


@dataclass(frozen=True)
class DiagramCheck:
    name: str
    copy: int
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class DiagramReport:
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self):
        return tuple(c for c in self.checks if not c.passed)


def verify_diagrams(td: TrimmedData) -> DiagramReport:
    """Check, for every Koszul copy k, that the connecting maps commute:

    - q1_triangle: composing the Koszul degree-1 boundary with the k-th
      block of Q1 recovers row k of T;
    - q2_square: the Koszul degree-2 boundary applied to the k-th block
      of Q2 equals the k-th block of Q1 applied to the degree-3 boundary
      column of y.

    The checks read Q1 and Q2 from the data as stored, so tampering with
    either field is detected.
    """
    ring = td.ring
    z = ring.gens
    delta2, _ = _koszul_matrices(ring)
    checks = []
    for k in range(1, td.t + 1):
        block = td.Q1[3 * (k - 1): 3 * k]
        bad = None
        for i in range(1, td.m + 1):
            composed = sum((block[l - 1][i - 1] * z[l - 1] for l in (1, 2, 3)),
                           ring.zero)
            if composed != td.T.entry(k, i):
                bad = f"column {i}: {composed} != {td.T.entry(k, i)}"
                break
        checks.append(DiagramCheck("q1_triangle", k, bad is None, bad or ""))

        q2_block = tuple(td.Q2[3 * (k - 1) + off][0] for off in range(3))
        bad = None
        for l in (1, 2, 3):
            lhs = sum((delta2[l - 1][col] * q2_block[col] for col in range(3)),
                      ring.zero)
            rhs = sum((block[l - 1][i - 1] * td.y[i - 1]
                       for i in range(1, td.m + 1)), ring.zero)
            if lhs != rhs:
                bad = f"row {l}: {lhs} != {rhs}"
                break
        checks.append(DiagramCheck("q2_square", k, bad is None, bad or ""))
    return DiagramReport(tuple(checks))


def minimize(complex_: ChainComplex) -> ChainComplex:
    """Split off trivial summands until every boundary entry sits in the
    maximal ideal; the resulting ranks are the Betti numbers.

    Pivots are taken row-major on the lowest boundary index, preferring
    entries that are honest nonzero constants (splitting there stays in
    the polynomial ring).  If no constant entry remains but some entry
    still has a nonzero constant term, elimination continues with local
    fractions and the final entries are divided back; inputs whose
    minimal boundary maps are not polynomial raise.

    Raises:
        MinimizationNotPolynomial: the fraction tier could not return to
            polynomial entries.
    """
    ring = complex_.ring
    field = ring.field
    bases = [list(b) for b in complex_.bases]
    mats = {d: [list(row) for row in complex_.differential(d)] for d in (1, 2, 3)}

    def find_constant_pivot():
        for d in (1, 2, 3):
            for r, row in enumerate(mats[d]):
                for c, entry in enumerate(row):
                    if entry.terms and entry.is_constant():
                        return d, r, c
        return None

    while True:
        spot = find_constant_pivot()
        if spot is None:
            break
        d, r0, c0 = spot
        inv = field.inv(mats[d][r0][c0].constant_term())
        # subtract (col entry / pivot) * pivot row from each other row
        mat = mats[d]
        pivot_row = mat[r0]
        new_mat = []
        for r, row in enumerate(mat):
            if r == r0:
                continue
            factor = row[c0].scaled(inv)
            if factor.terms:
                new_row = [entry - factor * pivot_row[c]
                           for c, entry in enumerate(row) if c != c0]
            else:
                new_row = [entry for c, entry in enumerate(row) if c != c0]
            new_mat.append(new_row)
        mats[d] = new_mat
        if d + 1 in mats:
            mats[d + 1] = [row for r, row in enumerate(mats[d + 1]) if r != c0]
        if d - 1 in mats:
            mats[d - 1] = [[entry for c, entry in enumerate(row) if c != r0]
                           for row in mats[d - 1]]
        bases[d] = [elem for c, elem in enumerate(bases[d]) if c != c0]
        bases[d - 1] = [elem for r, elem in enumerate(bases[d - 1]) if r != r0]

    def has_unit_entry():
        for d in (1, 2, 3):
            for row in mats[d]:
                for entry in row:
                    if entry.terms.get(0):
                        return True
        return False

    if has_unit_entry():
        _minimize_with_fractions(ring, bases, mats)

    return ChainComplex(ring, [tuple(b) for b in bases],
                        (mats[1], mats[2], mats[3]))


def _minimize_with_fractions(ring, bases, mats):
    """Finish minimization when a boundary entry is a non-constant local
    unit: run the same elimination over local fractions (numerator,
    denominator with unit constant term), then divide back."""
    field = ring.field
    one = ring.one

    def reduce(num, den):
        if not num.terms:
            return ring.zero, one
        if den.is_constant():
            return num.scaled(field.inv(den.constant_term())), one
        q = linalg.divide_exact(num, den)
        if q is not None:
            return q, one
        return num, den

    frac = {d: [[(entry, one) for entry in row] for row in mat]
            for d, mat in mats.items()}

    def find_pivot():
        for d in (1, 2, 3):
            for r, row in enumerate(frac[d]):
                for c, (num, _) in enumerate(row):
                    if num.terms.get(0):
                        return d, r, c
        return None

    while True:
        spot = find_pivot()
        if spot is None:
            break
        d, r0, c0 = spot
        pn, pd = frac[d][r0][c0]
        mat = frac[d]
        pivot_row = mat[r0]
        new_mat = []
        for r, row in enumerate(mat):
            if r == r0:
                continue
            cn, cd = row[c0]
            new_row = []
            for c, (en, ed) in enumerate(row):
                if c == c0:
                    continue
                if cn.terms:
                    bn, bd = pivot_row[c]
                    # e - (c/p) * b, with p = pivot
                    sub_n = cn * bn * pd
                    sub_d = cd * bd * pn
                    num = en * sub_d - sub_n * ed
                    den = ed * sub_d
                    new_row.append(reduce(num, den))
                else:
                    new_row.append((en, ed))
            new_mat.append(new_row)
        frac[d] = new_mat
        if d + 1 in frac:
            frac[d + 1] = [row for r, row in enumerate(frac[d + 1]) if r != c0]
        if d - 1 in frac:
            frac[d - 1] = [[entry for c, entry in enumerate(row) if c != r0]
                           for row in frac[d - 1]]
        bases[d] = [elem for c, elem in enumerate(bases[d]) if c != c0]
        bases[d - 1] = [elem for r, elem in enumerate(bases[d - 1]) if r != r0]

    for d in (1, 2, 3):
        out = []
        for row in frac[d]:
            out_row = []
            for num, den in row:
                num, den = reduce(num, den)
                if den != one:
                    raise MinimizationNotPolynomial(
                        f"boundary {d} entry {num}/{den} has no polynomial form")
                out_row.append(num)
            out.append(out_row)
        mats[d] = out
