"""Skew-symmetric matrices, their pfaffians, and the attached sign functions.

A SkewMatrix is an odd-size skew-symmetric matrix over the three-variable
ring with zero diagonal and every entry carrying zero constant term.  The
pfaffian engine evaluates pfaffians of arbitrary principal submatrices
through the least-index expansion, memoized per matrix on the index
subset, so repeated queries (and the identity checkers, which ask for
thousands of overlapping subsets) stay fast.

Index conventions are 1-based throughout, matching the usual matrix
notation.  ``pfaffian_keep`` selects the rows/columns to keep;
``pfaffian_drop`` names the rows/columns to remove and is zero when a
removed index repeats.

The two sign functions ``sigma3`` and ``sigma5`` are the signs of the
permutations that pull two chosen letters to the front of an increasing
sequence with one (resp. three) letters removed.  Production code uses
the closed forms in terms of the unit step function; they are zero when
any indices coincide and are independent of the ambient size.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ArgumentError, EntryNotInMaximalIdeal, UnsupportedSize
from .polyring import Polynomial, PolyRing
from . import polyring as _ring_mod


class SkewMatrix:
    """Odd-size skew-symmetric matrix with entries in the maximal ideal."""

    # _pf_cache: pfaffian memo by kept-index mask; _untrimmed: the t = 0
    # trimmed data, built by dgproducts.gorenstein_product on first use
    __slots__ = ("ring", "m", "rows", "_pf_cache", "_untrimmed")

    def __init__(self, ring: PolyRing, rows):
        rows = tuple(tuple(row) for row in rows)
        m = len(rows)
        if m % 2 == 0 or m < 1:
            raise UnsupportedSize(f"matrix size must be odd and positive, got {m}")
        for i, row in enumerate(rows):
            if len(row) != m:
                raise ArgumentError(f"row {i + 1} has length {len(row)}, expected {m}")
            for j, entry in enumerate(row):
                if not isinstance(entry, Polynomial) or entry.ring != ring:
                    raise ArgumentError(f"entry ({i + 1},{j + 1}) is not over {ring!r}")
        for i in range(m):
            if rows[i][i]:
                raise ArgumentError(f"nonzero diagonal entry at ({i + 1},{i + 1})")
            for j in range(i + 1, m):
                if rows[i][j] != -rows[j][i]:
                    raise ArgumentError(f"not skew-symmetric at ({i + 1},{j + 1})")
                if rows[i][j].constant_term():
                    raise EntryNotInMaximalIdeal(
                        f"entry ({i + 1},{j + 1}) has a nonzero constant term")
        self.ring = ring
        self.m = m
        self.rows = rows
        self._pf_cache = {0: ring.one}
        self._untrimmed = None

    @classmethod
    def from_upper(cls, ring: PolyRing, m: int, upper) -> "SkewMatrix":
        """Build from the strict upper triangle.

        ``upper`` maps (i, j) with 1 <= i < j <= m to a Polynomial (or a
        string parsed by the ring); omitted pairs are zero.
        """
        zero = ring.zero
        rows = [[zero] * m for _ in range(m)]
        for (i, j), value in dict(upper).items():
            if not (1 <= i < j <= m):
                raise ArgumentError(f"upper-triangle key ({i},{j}) out of range for size {m}")
            if isinstance(value, str):
                value = ring.from_string(value)
            rows[i - 1][j - 1] = value
            rows[j - 1][i - 1] = -value
        return cls(ring, rows)

    @classmethod
    def unchecked(cls, ring: PolyRing, rows) -> "SkewMatrix":
        """Testing hook: skip every invariant check.

        Used to feed deliberately invalid matrices to the verifiers; never
        use this for real inputs.
        """
        self = object.__new__(cls)
        self.ring = ring
        self.rows = tuple(tuple(row) for row in rows)
        self.m = len(self.rows)
        self._pf_cache = {0: ring.one}
        self._untrimmed = None
        return self

    def entry(self, i: int, j: int) -> Polynomial:
        """Entry in row i, column j (1-based)."""
        return self.rows[i - 1][j - 1]

    def upper_entries(self):
        """Nonzero strict-upper-triangle entries as ((i, j), Polynomial)."""
        out = []
        for i in range(self.m):
            for j in range(i + 1, self.m):
                if self.rows[i][j]:
                    out.append(((i + 1, j + 1), self.rows[i][j]))
        return out

    def generators(self) -> tuple:
        """The alternating-sign pfaffian generators: entry i (1-based) is
        (-1)^(i+1) times the pfaffian with row/column i removed."""
        out = []
        for i in range(1, self.m + 1):
            p = pfaffian_drop(self, (i,))
            out.append(p if i % 2 == 1 else -p)
        return tuple(out)

    def permuted(self, new_of_old) -> "SkewMatrix":
        """Conjugate by the permutation sending old index i to new_of_old[i-1]."""
        m = self.m
        rows = [[None] * m for _ in range(m)]
        for i in range(m):
            for j in range(m):
                rows[new_of_old[i] - 1][new_of_old[j] - 1] = self.rows[i][j]
        return SkewMatrix(self.ring, rows)

    def __eq__(self, other):
        return isinstance(other, SkewMatrix) and other.ring == self.ring \
            and other.rows == self.rows

    def __repr__(self):
        return f"SkewMatrix(size {self.m} over {self.ring.field!r})"

    def _pf(self, mask: int) -> Polynomial:
        cache = self._pf_cache
        val = cache.get(mask)
        if val is not None:
            return val
        core = _ring_mod._core
        p = self.ring._p
        b = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << b)
        row = self.rows[b]
        acc = {}
        sign = 1
        bits = rest
        while bits:
            low = bits & -bits
            r = low.bit_length() - 1
            bits ^= low
            entry = row[r]
            if entry.terms:
                sub = self._pf(mask ^ (1 << b) ^ low)
                if sub.terms:
                    core.addmul_into(acc, entry.terms, sub.terms, p, sign)
            sign = -sign
        val = Polynomial(self.ring, _ring_mod.check_exponents(acc))
        cache[mask] = val
        return val


def _mask_of(matrix: SkewMatrix, indices, allow_repeats: bool):
    mask = 0
    for i in indices:
        if not isinstance(i, int) or not 1 <= i <= matrix.m:
            raise IndexError(f"index {i!r} out of range 1..{matrix.m}")
        bit = 1 << (i - 1)
        if mask & bit:
            if allow_repeats:
                return None
            raise IndexError(f"repeated index {i}")
        mask |= bit
    return mask


def pfaffian_keep(matrix: SkewMatrix, indices) -> Polynomial:
    """Pfaffian of the principal submatrix on a strictly increasing index
    list.  The empty list gives 1; odd-length lists give 0.

    Raises:
        IndexError: out-of-range, repeated, or non-increasing indices.
    """
    indices = tuple(indices)
    for a, b in zip(indices, indices[1:]):
        if a >= b:
            raise IndexError(f"indices must be strictly increasing, got {indices}")
    mask = _mask_of(matrix, indices, allow_repeats=False)
    if len(indices) % 2 == 1:
        return matrix.ring.zero
    return matrix._pf(mask)


def pfaffian_drop(matrix: SkewMatrix, removed) -> Polynomial:
    """Pfaffian of the submatrix with the listed rows/columns removed.

    Repeated removal indices give 0 (by convention, so that sums over all
    index values degenerate gracefully).

    Raises:
        IndexError: an index outside 1..m.
    """
    mask = _mask_of(matrix, removed, allow_repeats=True)
    if mask is None:
        return matrix.ring.zero
    full = (1 << matrix.m) - 1
    keep = full ^ mask
    if bin(keep).count("1") % 2 == 1:
        return matrix.ring.zero
    return matrix._pf(keep)


def _theta(x: int) -> int:
    # unit step function on nonzero integers
    return 1 if x > 0 else 0


def sigma3(i: int, j: int, r: int) -> int:
    """Sign pulling j then r to the front of the increasing sequence with
    i removed, times (-1)^(i+1).  Zero when i, j, r are not distinct."""
    if i == j or i == r or j == r:
        return 0
    return -1 if (i + j + r + 1 + _theta(r - i) + _theta(r - j) + _theta(j - i)) % 2 else 1


def sigma5(i: int, j: int, r: int, h: int, k: int) -> int:
    """Sign pulling k then h to the front of the increasing sequence with
    i, j, r removed.  Zero when the five indices are not distinct; does
    not depend on the order of i, j, r."""
    if len({i, j, r, h, k}) != 5:
        return 0
    e = h + k + 1 + _theta(k - i) + _theta(k - j) + _theta(k - r) + _theta(k - h) \
        + _theta(h - i) + _theta(h - j) + _theta(h - r)
    return -1 if e % 2 else 1


def rearrange_sign(source, target) -> int:
    """Sign of the permutation carrying the sequence ``source`` to
    ``target``; 0 if either has repeats or they differ as multisets."""
    source = tuple(source)
    target = tuple(target)
    if len(set(source)) != len(source) or sorted(source) != sorted(target):
        return 0
    position = {value: idx for idx, value in enumerate(target)}
    image = [position[value] for value in source]
    inversions = 0
    for a in range(len(image)):
        for b in range(a + 1, len(image)):
            if image[a] > image[b]:
                inversions += 1
    return -1 if inversions % 2 else 1


@dataclass(frozen=True)
class IdentityCheck:
    """Result of one identity verified over all its admissible tuples."""

    name: str
    cases: int
    failures: int
    first_failure: str | None = None

    @property
    def passed(self) -> bool:
        return self.failures == 0


@dataclass(frozen=True)
class IdentityReport:
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary_lines(self):
        lines = []
        for c in self.checks:
            status = "ok" if c.passed else f"FAIL ({c.failures} tuples, first: {c.first_failure})"
            lines.append(f"{c.name}: {c.cases} cases, {status}")
        return lines


#: Largest matrix size ``check_identities`` accepts.  The expansion identity
#: visits every even index subset, 2^(m-1) of them.  On dense linear forms
#: over F3 (CPU time, Python 3.11 on a 2-core Xeon) the identities took
#: 2.4 s at size 13, 9.4 s at 15 and 69 s at 17.  ``pftrim verify --trim m``
#: took 0.4-0.5 s at size 9, 0.9-1.2 s at 11, 2.6-3.7 s at 13 and 13-14 s at
#: 15, with a peak RSS of 22, 27, 40 and 75 MiB; past 15 the identities
#: dominate.
MAX_IDENTITY_SIZE = 15


def _expansion_sign(pb: int, pr: int) -> int:
    """Sign of the permutation pulling the elements at positions pb, then
    pr to the front of an increasing sequence: (-1)^(pb + pr - [pr > pb])."""
    return -1 if (pb + pr - (pr > pb)) % 2 else 1


def check_identities(matrix: SkewMatrix) -> IdentityReport:
    """Evaluate the five pfaffian identities at every admissible tuple.

    The identities (all exact consequences of skew-symmetry):

    - expansion: the pfaffian of any even index subset equals its
      expansion along any chosen element of the subset.
    - drop1_expansion: the pfaffian with one index i removed equals its
      expansion along any second index j.
    - sum3_vanishing: for distinct i, j, k the sign-weighted sum of
      T[k][r] times the pfaffians with {i, j, r} removed vanishes.
    - drop3_expansion: the pfaffian with {i, j, r} removed equals its
      expansion along any fourth index k.
    - sum5_vanishing: for distinct i, h, s, k and j outside that set, the
      doubly sign-weighted sum of T[j][r] times the pfaffians with
      {i, r, h, s, k} removed vanishes.

    On any valid skew matrix all five pass; the report carries the first
    failing tuple of each identity otherwise.  Every ordered tuple is
    counted, but each verdict is evaluated once per index set, by two sign
    lemmas that hold for any rows, checked or not, since a pfaffian here
    depends only on its index set:

    - the sum3 vector r -> sigma3(i, j, r) of (j, i) is minus that of (i, j);
    - the sum5 vector r -> sigma3(i, r, h) * sigma5(i, r, h, s, k) of an
      ordered (i, h, s, k) is one sign times that of the sorted set.

    A residual and its negative vanish together, so the verdict of
    (i, j, k) depends on ({i, j}, k) and that of (i, h, s, k, j) on
    ({i, h, s, k}, j).

    Raises:
        UnsupportedSize: m above ``MAX_IDENTITY_SIZE``; checked before any
            pfaffian is computed.
    """
    m = matrix.m
    if m > MAX_IDENTITY_SIZE:
        raise UnsupportedSize(
            f"identity checks need size at most {MAX_IDENTITY_SIZE}, got {m}")
    core = _ring_mod._core
    p = matrix.ring._p
    pf = matrix._pf
    rows = [[entry.terms for entry in row] for row in matrix.rows]
    checks = []

    def run(name, outcomes):
        # outcomes: (tuple, residual is nonzero) in tuple order
        cases = 0
        failures = 0
        first = None
        for tup, failed in outcomes:
            cases += 1
            if failed:
                failures += 1
                if first is None:
                    first = repr(tup)
        checks.append(IdentityCheck(name, cases, failures, first))

    # expansion over every even-size subset and every expansion element; its
    # verdicts, keyed by (subset mask, b), also decide the drop identities
    verdicts = {}

    def expansion_residual(mask, bits, pb):
        b = bits[pb]
        row = rows[b]
        acc = dict(pf(mask).terms)
        for pr, r in enumerate(bits):
            if pr != pb and row[r]:
                sub = pf(mask ^ (1 << b) ^ (1 << r)).terms
                if sub:
                    core.addmul_into(acc, row[r], sub, p, -_expansion_sign(pb, pr))
        return bool(acc)

    def expansion_outcomes():
        for mask in range(1, 1 << m):
            bits = [v for v in range(m) if mask & (1 << v)]
            if len(bits) % 2:
                continue
            subset = tuple(v + 1 for v in bits)
            for pb, b in enumerate(subset):
                failed = verdicts[(mask, b)] = expansion_residual(mask, bits, pb)
                yield (subset, b), failed

    run("expansion", expansion_outcomes())

    full = (1 << m) - 1

    def without(*indices):
        # the mask of the complement of the given indices
        return full ^ sum(1 << (v - 1) for v in indices)

    # drop1_expansion over ordered pairs (i, j), i != j: the expansion of
    # the complement of {i} along j
    run("drop1_expansion", (((i, j), verdicts[(without(i), j)])
                            for i in range(1, m + 1)
                            for j in range(1, m + 1) if i != j))

    # the two vanishing sums are one row of T times a signed pfaffian
    # vector [(r - 1, sign, pfaffian terms)]; by the sign lemmas their
    # verdicts depend only on the index set (a mask of 1-based bits) and the
    # row k outside it, so each set's vector and verdicts are built once
    set_verdicts = {}

    def signed_drops(sign_of, dropped):
        vector = []
        for r in range(1, m + 1):
            sign = sign_of(r)
            if sign:
                sub = pfaffian_drop(matrix, dropped(r)).terms
                if sub:
                    vector.append((r - 1, sign, sub))
        return vector

    def row_times(k, vector):
        acc = {}
        row = rows[k - 1]
        for r, sign, sub in vector:
            if row[r]:
                core.addmul_into(acc, row[r], sub, p, sign)
        return bool(acc)

    def sum_verdicts(index_set, sign_of, dropped):
        # (k, residual is nonzero) for every k outside the set, in order
        verdict = set_verdicts.get(index_set)
        if verdict is None:
            vector = signed_drops(sign_of, dropped)
            verdict = set_verdicts[index_set] = [
                (k, row_times(k, vector)) for k in range(1, m + 1)
                if not index_set >> k & 1]
        return verdict

    # sum3_vanishing over ordered distinct triples (i, j, k)
    def sum3_outcomes():
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                if i == j:
                    continue
                for k, failed in sum_verdicts((1 << i) | (1 << j),
                                              lambda r: sigma3(i, j, r),
                                              lambda r: (i, j, r)):
                    yield (i, j, k), failed

    run("sum3_vanishing", sum3_outcomes())

    # drop3_expansion over ordered distinct quadruples (i, j, r, k) with
    # i < j < r: the expansion of the complement of {i, j, r} along k
    def drop3_outcomes():
        for i in range(1, m + 1):
            for j in range(i + 1, m + 1):
                for r in range(j + 1, m + 1):
                    for k in range(1, m + 1):
                        if k not in (i, j, r):
                            yield (i, j, r, k), verdicts[(without(i, j, r), k)]

    run("drop3_expansion", drop3_outcomes())

    # sum5_vanishing over ordered distinct (i, h, s, k) and j outside
    def sum5_outcomes():
        for i in range(1, m + 1):
            for h in range(1, m + 1):
                for s in range(1, m + 1):
                    for k in range(1, m + 1):
                        if len({i, h, s, k}) != 4:
                            continue
                        index_set = (1 << i) | (1 << h) | (1 << s) | (1 << k)
                        for j, failed in sum_verdicts(
                                index_set,
                                lambda r: sigma3(i, r, h) * sigma5(i, r, h, s, k),
                                lambda r: (i, r, h, s, k)):
                            yield (i, h, s, k, j), failed

    run("sum5_vanishing", sum5_outcomes())

    return IdentityReport(tuple(checks))
