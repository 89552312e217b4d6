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
from .errors import ArgumentError, MinimizationNotPolynomial, _is_int
from .pfaffian import SkewMatrix, sigma3
from .polyring import PolyRing, decompose_c


_DEGREES = {"one": 0, "e": 1, "u": 1, "f": 2, "v": 2, "g": 3, "w": 3}


@dataclass(frozen=True, order=True)
class BasisElement:
    """One basis symbol of the resolution, tagged by kind.

    Kinds: "e" (degree 1, data (i,)), "u" (degree 1, data (k, l)),
    "f" (degree 2, data (i,)), "v" (degree 2, data (k, a, b) with a < b),
    "g" (degree 3), "w" (degree 3, data (k,)), "one" (degree 0).
    """

    kind: str
    data: tuple

    def __post_init__(self):
        # basis elements key every coordinate dict, so the hash of
        # (kind, data) is computed once; __reduce__ leaves it out, because
        # string hashes differ between processes
        object.__setattr__(self, "_hash", hash((self.kind, self.data)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return self.__class__, (self.kind, self.data)

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
        return _DEGREES[self.kind]

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
        self._composes = None

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
        """Whether (boundary d) o (boundary d+1) vanishes for d = 1, 2;
        computed on the first call only, as the complex is immutable."""
        if self._composes is None:
            self._composes = not any(
                entry for d in (1, 2)
                for row in linalg.mat_mul(self.ring, self.differentials[d - 1],
                                          self.differentials[d])
                for entry in row)
        return self._composes

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


def _selfdual_part(T, i, j):
    # the f-coordinates of e_i e_j in the Gorenstein resolution, as the
    # tuple (sigma3(i, j, r) pf(i, j, r) for r = 1..m), each pfaffian read
    # by the memo mask of the indices kept (sigma3 is 0 unless i, j, r are
    # distinct)
    zero = T.ring.zero
    kept = ((1 << T.m) - 1) ^ (1 << (i - 1)) ^ (1 << (j - 1))
    coords = []
    for r in range(1, T.m + 1):
        s3 = sigma3(i, j, r)
        pf = T._pf(kept ^ (1 << (r - 1))) if s3 else zero
        coords.append(-pf if s3 < 0 else pf)
    return tuple(coords)


def gorenstein_resolution(T: SkewMatrix) -> ChainComplex:
    """The resolution 0 -> R -> R^m -> R^m -> R with boundary maps (the
    signed subpfaffian row, T itself, the signed subpfaffian column): the
    trimmed resolution with nothing trimmed."""
    return _trimmed_data(T, 0).complex


#: Largest matrix size ``pftrim resolve`` accepts, with ``--minimize`` or
#: without, and ``pftrim pfaffians``; both exit 2 above it before the matrix
#: is built.  The cost is the m drop-one pfaffians, some three to four times
#: more per step of 2 in size.  On dense linear forms over F3, ``resolve
#: --trim m`` took 0.03 s at size 9, 0.44 s at 15, 1.2 s at 17, 2.8 s at 19
#: and 11 s at 21 (CPU time, Python 3.11 on a 2-core Xeon), with a peak RSS
#: of 16, 21, 33, 69 and 175 MiB; with ``--minimize``, 1.0 s, 3.8 s and
#: 9.9 s at 17, 19 and 21.
MAX_RESOLUTION_SIZE = 21


def trimmed_resolution(T: SkewMatrix, t: int) -> TrimmedData:
    """Resolution of the ideal generated by m - t untouched subpfaffian
    generators plus the maximal-ideal multiples of the first t.

    Raises:
        ArgumentError: t outside 1..m.
    """
    if not _is_int(t) or not 1 <= t <= T.m:
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
        selfdual = _selfdual_part(T, i, k)
        for a, b in _PAIRS:
            if ci[b - 1]:
                weights = ((c[(r, k)][a - 1], value)
                           for r, value in enumerate(selfdual, 1) if value)
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

    One elimination over the local ring, in which each row of a boundary
    carries one unit denominator (None for 1).  Pivots are taken
    row-major on the lowest boundary index: the first nonzero constant in
    a row without denominator, else the first entry with a nonzero
    constant term.  With pivot p and pivot row b, a row e whose entry in
    the pivot column is c becomes e - (c/p)*b when p is such a constant,
    and e*p - c*b, its denominator multiplied by p, otherwise (the pivot
    row's own denominator cancels); where b is zero, c*b is not formed.
    At the end each row is divided back
    by its denominator; inputs whose minimal boundary maps are not
    polynomial raise.

    Raises:
        MinimizationNotPolynomial: a row did not divide back into the
            polynomial ring.
    """
    ring = complex_.ring
    field = ring.field
    bases = [list(b) for b in complex_.bases]
    # boundary d as (denominator, row) pairs, rows indexed by bases[d - 1]
    mats = {d: [(None, list(row)) for row in complex_.differential(d)]
            for d in (1, 2, 3)}

    def find_pivot():
        unit = None
        for d in (1, 2, 3):
            for r, (den, row) in enumerate(mats[d]):
                for c, entry in enumerate(row):
                    if entry.terms.get(0):
                        if den is None and entry.is_constant():
                            return d, r, c
                        unit = unit or (d, r, c)
        return unit

    while True:
        spot = find_pivot()
        if spot is None:
            break
        d, r0, c0 = spot
        pivot_den, pivot_row = mats[d][r0]
        pivot = pivot_row[c0]
        inv = field.inv(pivot.constant_term()) \
            if pivot_den is None and pivot.is_constant() else None
        new_mat = []
        for r, (den, row) in enumerate(mats[d]):
            if r == r0:
                continue
            factor = row[c0]
            if not factor.terms:
                row = [entry for c, entry in enumerate(row) if c != c0]
            elif inv is not None:
                factor = factor.scaled(inv)
                row = [entry - factor * pivot_row[c] if pivot_row[c].terms
                       else entry for c, entry in enumerate(row) if c != c0]
            else:
                row = [entry * pivot - factor * pivot_row[c]
                       if pivot_row[c].terms else entry * pivot
                       for c, entry in enumerate(row) if c != c0]
                den = pivot if den is None else den * pivot
            new_mat.append((den, row))
        mats[d] = new_mat
        if d + 1 in mats:
            mats[d + 1] = [pair for r, pair in enumerate(mats[d + 1]) if r != c0]
        if d - 1 in mats:
            mats[d - 1] = [(den, [entry for c, entry in enumerate(row) if c != r0])
                           for den, row in mats[d - 1]]
        bases[d] = [elem for c, elem in enumerate(bases[d]) if c != c0]
        bases[d - 1] = [elem for r, elem in enumerate(bases[d - 1]) if r != r0]

    differentials = []
    for d, mat in mats.items():
        rows = []
        for r, (den, row) in enumerate(mat):
            if den is not None:
                row = [linalg.divide_exact(entry, den) for entry in row]
                if None in row:
                    raise MinimizationNotPolynomial(
                        f"boundary {d} entry at row {bases[d - 1][r].label}, column "
                        f"{bases[d][row.index(None)].label} has no polynomial form")
            rows.append(row)
        differentials.append(rows)
    return ChainComplex(ring, bases, differentials)
