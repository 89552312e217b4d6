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

    __slots__ = ("ring", "m", "rows", "_pf_cache")

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
        val = Polynomial(self.ring, acc)
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


def _complement(m: int, exclude) -> list:
    return [v for v in range(1, m + 1) if v not in exclude]


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
    failing tuple of each identity otherwise.
    """
    core = _ring_mod._core
    ring = matrix.ring
    p = ring._p
    m = matrix.m
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

    # expansion over every even-size subset and every expansion element
    def expansion_tuples():
        for mask in range(1, 1 << m):
            subset = [v + 1 for v in range(m) if mask & (1 << v)]
            if len(subset) % 2:
                continue
            for b in subset:
                yield (tuple(subset), b)

    def expansion_residual(tup):
        subset, b = tup
        acc = dict(pfaffian_keep(matrix, subset).terms)
        rest = [v for v in subset if v != b]
        for r in rest:
            sign = rearrange_sign(subset, (b, r) + tuple(v for v in subset if v not in (b, r)))
            entry = matrix.entry(b, r)
            if sign and entry.terms:
                sub = pfaffian_keep(matrix, [v for v in subset if v not in (b, r)])
                if sub.terms:
                    core.addmul_into(acc, entry.terms, sub.terms, p, -sign)
        return bool(acc)

    run("expansion", ((tup, expansion_residual(tup)) for tup in expansion_tuples()))

    # drop1_expansion over ordered pairs (i, j), i != j
    def drop1_tuples():
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                if i != j:
                    yield (i, j)

    def drop1_residual(tup):
        i, j = tup
        acc = dict(pfaffian_drop(matrix, (i,)).terms)
        body = _complement(m, {i})
        for r in body:
            sign = rearrange_sign(body, (j, r) + tuple(_complement(m, {i, j, r})))
            entry = matrix.entry(j, r)
            if sign and entry.terms:
                sub = pfaffian_drop(matrix, (i, j, r))
                if sub.terms:
                    core.addmul_into(acc, entry.terms, sub.terms, p, -sign)
        return bool(acc)

    run("drop1_expansion", ((tup, drop1_residual(tup)) for tup in drop1_tuples()))

    # the two vanishing sums are one row of T times a signed pfaffian
    # vector [(r - 1, sign, pfaffian terms)], built once per index set
    rows = [[entry.terms for entry in row] for row in matrix.rows]

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

    # sum3_vanishing over ordered distinct triples (i, j, k)
    def sum3_outcomes():
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                if i == j:
                    continue
                vector = signed_drops(lambda r: sigma3(i, j, r),
                                      lambda r: (i, j, r))
                for k in range(1, m + 1):
                    if k != i and k != j:
                        yield (i, j, k), row_times(k, vector)

    run("sum3_vanishing", sum3_outcomes())

    # drop3_expansion over ordered distinct quadruples (i, j, r, k)
    def drop3_tuples():
        for i in range(1, m + 1):
            for j in range(i + 1, m + 1):
                for r in range(j + 1, m + 1):
                    for k in range(1, m + 1):
                        if k not in (i, j, r):
                            yield (i, j, r, k)

    def drop3_residual(tup):
        i, j, r, k = tup
        acc = dict(pfaffian_drop(matrix, (i, j, r)).terms)
        body = _complement(m, {i, j, r})
        for h in body:
            if h == k:
                continue
            sign = rearrange_sign(body, (k, h) + tuple(_complement(m, {i, j, r, k, h})))
            entry = matrix.entry(k, h)
            if sign and entry.terms:
                sub = pfaffian_drop(matrix, (i, j, r, h, k))
                if sub.terms:
                    core.addmul_into(acc, entry.terms, sub.terms, p, -sign)
        return bool(acc)

    run("drop3_expansion", ((tup, drop3_residual(tup)) for tup in drop3_tuples()))

    # sum5_vanishing over ordered distinct (i, h, s, k) and j outside
    def sum5_outcomes():
        for i in range(1, m + 1):
            for h in range(1, m + 1):
                for s in range(1, m + 1):
                    for k in range(1, m + 1):
                        if len({i, h, s, k}) != 4:
                            continue
                        vector = signed_drops(
                            lambda r: sigma3(i, r, h) * sigma5(i, r, h, s, k),
                            lambda r: (i, r, h, s, k))
                        for j in range(1, m + 1):
                            if j not in (i, h, s, k):
                                yield (i, h, s, k, j), row_times(j, vector)

    run("sum5_vanishing", sum5_outcomes())

    return IdentityReport(tuple(checks))
