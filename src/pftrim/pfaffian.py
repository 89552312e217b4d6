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

import itertools
from dataclasses import dataclass

from .errors import ArgumentError, EntryNotInMaximalIdeal, UnsupportedSize, \
    _is_int
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
        self._setup(ring, rows)

    def _setup(self, ring, rows):
        self.ring = ring
        self.m = len(rows)
        self.rows = rows
        self._pf_cache = {0: ring.one}
        self._untrimmed = None

    @classmethod
    def from_upper(cls, ring: PolyRing, m: int, upper) -> "SkewMatrix":
        """Build from the strict upper triangle.

        ``upper`` maps (i, j) with 1 <= i < j <= m to a Polynomial (or a
        string parsed by the ring); omitted pairs are zero.  Each value is
        checked once and negated below the diagonal, so the matrix is skew;
        over F2, where -f = f, the value itself is stored there.
        """
        if not _is_int(m):
            raise ArgumentError(f"matrix size must be an integer, got {m!r}")
        zero = ring.zero
        char2 = ring.field.char == 2
        rows = [[zero] * m for _ in range(m)]
        for key, value in dict(upper).items():
            i, j = key if isinstance(key, tuple) and len(key) == 2 else (0, 0)
            if not (_is_int(i) and _is_int(j) and 1 <= i < j <= m):
                raise ArgumentError(f"upper-triangle key {key!r} out of range for size {m}")
            if isinstance(value, str):
                value = ring.from_string(value)
            if not isinstance(value, Polynomial) or \
                    (value.ring is not ring and value.ring != ring):
                raise ArgumentError(f"entry ({i},{j}) is not over {ring!r}")
            if value.terms.get(0):
                raise EntryNotInMaximalIdeal(f"entry ({i},{j}) has a nonzero constant term")
            rows[i - 1][j - 1] = value
            rows[j - 1][i - 1] = value if char2 else -value
        if m % 2 == 0 or m < 1:
            raise UnsupportedSize(f"matrix size must be odd and positive, got {m}")
        return cls.unchecked(ring, rows)

    @classmethod
    def unchecked(cls, ring: PolyRing, rows) -> "SkewMatrix":
        """Build with no invariant check.  ``from_upper`` builds through it
        rows that hold every invariant by construction, and tests feed
        deliberately invalid matrices to the verifiers through it; build
        real inputs with ``from_upper`` or the constructor."""
        self = object.__new__(cls)
        self._setup(ring, tuple(tuple(row) for row in rows))
        return self

    def entry(self, i: int, j: int) -> Polynomial:
        """Entry in row i, column j (1-based)."""
        return self.rows[i - 1][j - 1]

    def upper_entries(self):
        """Nonzero strict-upper-triangle entries as ((i, j), Polynomial)."""
        return [((i, j), f) for i, row in enumerate(self.rows, start=1)
                for j, f in enumerate(row[i:], start=i + 1) if f.terms]

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
        if not _is_int(i) or not 1 <= i <= matrix.m:
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
#: over F3 (CPU time, Python 3.11 on a shared 2-core Xeon) the identities
#: took 1.3 s at size 13, 8.0 s at 15 and 41 s at 17.  ``pftrim verify --trim
#: m`` took 0.3-0.5 s at size 9, 0.7-1.3 s at 11, 2.3-4.3 s at 13 and 9-17 s
#: at 15, with a peak RSS of 21, 24, 32 and 57 MiB; past 15 the identities
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
    counted, but each verdict is evaluated at most once and no ordered
    tuple is walked:

    - The expansion of a subset along its lowest element is counted as a
      passing case and not evaluated.  It is ``SkewMatrix._pf``'s own
      definition of the subset's memo entry: the same element, the same
      signs and the same memo entries of the smaller subsets, so its
      residual is zero by construction, whatever the rows.  A wrong memo
      entry still fails the expansions along the subset's other elements.
    - A sum3 or sum5 verdict depends only on the index set and the row
      outside it, by two sign lemmas that hold for any rows, checked or
      not, since a pfaffian here depends only on its index set: the sum3
      vector r -> sigma3(i, j, r) of (j, i) is minus that of (i, j), and
      the sum5 vector r -> sigma3(i, r, h) * sigma5(i, r, h, s, k) of an
      ordered (i, h, s, k) is one sign times that of the sorted set.  A
      residual and its negative vanish together.  So each pair i < j
      (each 4-set) is visited once, in ``itertools.combinations`` order,
      and a failing row counts once for each of its 2 (24) orderings.

    A sorted tuple is the lexicographically first ordering of its set, so
    the first failing ordered tuple is the first failing set in
    combinations order, sorted, followed by its smallest failing row.

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
    full = (1 << m) - 1
    checks = []

    def record(name, cases, failed):
        # failed: (first ordered tuple, orderings) of each failing class, in
        # the order of their first tuples
        checks.append(IdentityCheck(name, cases, sum(n for _, n in failed),
                                    repr(failed[0][0]) if failed else None))

    def mask_of(indices):
        return sum(1 << (v - 1) for v in indices)

    # expansion over every even-size subset and every expansion element but
    # the lowest; the failing (subset mask, element) pairs also decide the
    # drop identities
    cases = 0
    failed = []
    bad = set()
    for mask in range(3, 1 << m):
        size = mask.bit_count()
        if size % 2:
            continue
        cases += size
        bits = [v for v in range(m) if mask >> v & 1]
        whole = pf(mask).terms
        for pb in range(1, size):
            b = bits[pb]
            row = rows[b]
            rest = mask ^ (1 << b)
            acc = dict(whole)
            for pr, r in enumerate(bits):
                if pr != pb and row[r]:
                    sub = pf(rest ^ (1 << r)).terms
                    if sub:
                        core.addmul_into(acc, row[r], sub, p, -_expansion_sign(pb, pr))
            if acc:
                bad.add((mask, b + 1))
                failed.append(((tuple(v + 1 for v in bits), b + 1), 1))
    record("expansion", cases, failed)

    def drop_expansion(name, size):
        # the expansion of the complement of a size-set along a k outside it
        tuples = [dropped + (k,)
                  for dropped in itertools.combinations(range(1, m + 1), size)
                  for k in range(1, m + 1) if k not in dropped]
        record(name, len(tuples), [(tup, 1) for tup in tuples
                                   if (full ^ mask_of(tup[:-1]), tup[-1]) in bad])

    def vanishing_sum(name, size, orderings, sign_of):
        # row k outside each sorted size-set times the signed vector
        # [(r - 1, sign, pfaffian with the set and r removed)] of the set
        cases = 0
        failed = []
        for index_set in itertools.combinations(range(1, m + 1), size):
            kept = full ^ mask_of(index_set)
            vector = []
            for r in range(1, m + 1):
                sign = sign_of(*index_set, r)
                if sign:
                    sub = pf(kept ^ (1 << (r - 1))).terms
                    if sub:
                        vector.append((r - 1, sign, sub))
            for k in range(1, m + 1):
                if k in index_set:
                    continue
                cases += orderings
                row = rows[k - 1]
                acc = {}
                for r, sign, sub in vector:
                    if row[r]:
                        core.addmul_into(acc, row[r], sub, p, sign)
                if acc:
                    failed.append((index_set + (k,), orderings))
        record(name, cases, failed)

    drop_expansion("drop1_expansion", 1)
    vanishing_sum("sum3_vanishing", 2, 2, sigma3)
    drop_expansion("drop3_expansion", 3)
    vanishing_sum("sum5_vanishing", 4, 24,
                  lambda i, h, s, k, r: sigma3(i, r, h) * sigma5(i, r, h, s, k))
    return IdentityReport(tuple(checks))
