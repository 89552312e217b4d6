"""Parametric skew families with banded blocks, plus a randomized scanner.

Two families are built from a symmetric band matrix whose antidiagonals
carry x, z, y^2.  The odd family has size 4s+3 and trims its first 2s+1
generators; the even family has size 4s+1 and trims its first 2s.  Both
hit known residue-field formats and classes, which ``family_checks``
verifies together with the shape of three distinguished pfaffians.  Band
sizes up to ``MAX_FAMILY_BAND`` (8) are accepted.

``realizability_scan`` samples random skew matrices over a chosen field
and classifies every trim count, recording which classes actually occur.
Records are reproducible from the seed and the call parameters alone.  A
matrix whose value at a fixed point has full rank is kept without any
pfaffian, and all its trims are classified from one elimination; sizes up
to ``MAX_SCAN_SIZE`` (21) are accepted.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import random

from .classify import TorReport, _trim_reports, classify
from .errors import ArgumentError, UnsupportedSize, _is_int
from .linalg import POINTS, det_bareiss, insert_row, residue_modulus, \
    residue_terms, residues_at
from .pfaffian import SkewMatrix, pfaffian_drop
from .polyring import EXPONENT_LIMIT, Polynomial, PolyRing, PrimeField, \
    QQ, pack_exponents

__all__ = [
    "MAX_FAMILY_BAND",
    "MAX_SCAN_SIZE",
    "FamilySpec",
    "FamilyCheck",
    "FamilyReport",
    "ScanRecord",
    "ScanResult",
    "SCAN_COLUMNS",
    "build_family",
    "family_checks",
    "realizability_scan",
    "write_scan_csv",
]

_KINDS = ("odd", "even")

#: Largest band size s a ``FamilySpec`` accepts, so that ``pftrim family``
#: exits 2 above it before any pfaffian is computed.  The odd family's
#: checks compute three drop-one pfaffians, whose cost grows about four
#: times per step of s: over QQ, ``family odd --checks`` took 0.34 s at
#: s = 6, 1.05 s at 7, 4.2 s at 8 and 18.4 s at 9, with a peak RSS of 24,
#: 44, 124 and 437 MiB (CPU time, Python 3.11 on a 2-core Xeon).  The
#: largest member, of size 35, is far below ``cli.MAX_DOCUMENT_SIZE``.
MAX_FAMILY_BAND = 8


@dataclasses.dataclass(frozen=True)
class FamilySpec:
    """Which family member to build: the layout kind and the band size s."""

    kind: str
    s: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ArgumentError(f"family kind must be one of {_KINDS}, got {self.kind!r}")
        if not _is_int(self.s) or self.s < 1:
            raise ArgumentError(f"band size must be a positive integer, got {self.s!r}")
        if self.s > MAX_FAMILY_BAND:
            raise UnsupportedSize(
                f"band size must be at most {MAX_FAMILY_BAND}, got {self.s}")
        if self.kind == "even" and self.s < 2:
            raise ArgumentError("even family needs band size at least 2")

    @property
    def size(self) -> int:
        return 4 * self.s + 3 if self.kind == "odd" else 4 * self.s + 1

    @property
    def trim(self) -> int:
        return 2 * self.s + 1 if self.kind == "odd" else 2 * self.s


def _band(ring: PolyRing, s: int):
    """The s x s symmetric band: x where i+j = s, z where i+j = s+1,
    y^2 where i+j = s+2, zero elsewhere."""
    x, y, z = ring.gens
    values = {s: x, s + 1: z, s + 2: y * y}
    return [[values.get(i + j, ring.zero) for j in range(1, s + 1)]
            for i in range(1, s + 1)]


def build_family(spec: FamilySpec, ring: PolyRing = None):
    """Assemble the requested family member; returns (matrix, trim count).

    The default coefficient field is the rationals; the closed-form format
    and class are the same over any field.
    """
    if ring is None:
        ring = PolyRing(QQ)
    x, y, _ = ring.gens
    y2 = y * y
    s = spec.s
    upper = {}

    def place(r0, c0, block):
        # block's top-left entry lands at row r0+1, column c0+1
        for i, row in enumerate(block, start=1):
            for j, f in enumerate(row, start=1):
                if f:
                    upper[(r0 + i, c0 + j)] = f

    def layout(n):
        # (n, 1, n): x at (n, n+1), B_n in the next n columns, y^2 at (n+1, n+2)
        upper[(n, n + 1)] = x
        place(0, n + 1, _band(ring, n))
        upper[(n + 1, n + 2)] = y2

    if spec.kind == "odd":
        layout(s)  # inner (s, 1, s)
        layout(2 * s + 1)  # outer (2s+1, 1, 2s+1) wrapping it
    else:
        place(0, s, _band(ring, s))  # inner (s, s): one band block
        layout(2 * s)  # outer (2s, 1, 2s)
    return SkewMatrix.from_upper(ring, spec.size, upper), spec.trim


def closed_form(spec: FamilySpec):
    """Expected (format, class) for this family member."""
    s = spec.s
    if spec.kind == "odd":
        return (1, 6 * s + 2, 8 * s + 3, 2 * s + 2), f"G({2 * s})"
    return (1, 6 * s - 1, 8 * s - 1, 2 * s + 1), f"G({2 * s - 1})"


@dataclasses.dataclass(frozen=True)
class FamilyCheck:
    name: str
    passed: bool


@dataclasses.dataclass(frozen=True)
class FamilyReport:
    """Verdicts for one family member, with the classification attached."""

    spec: FamilySpec
    report: TorReport
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def summary_lines(self):
        head = f"{self.spec.kind} family, s={self.spec.s}"
        verdict = "ok" if self.all_passed else "FAIL"
        lines = [f"{head}: {len(self.checks)} checks, {verdict}"]
        lines.extend(f"  {check.name}: {'ok' if check.passed else 'FAIL'}"
                     for check in self.checks)
        lines.extend(f"  {line}" for line in self.report.summary_lines())
        return lines


def family_checks(spec: FamilySpec, ring: PolyRing = None) -> FamilyReport:
    """Build the member and test it against its expected shape.

    For the odd family the three distinguished generators are checked
    directly: dropping the first index leaves a pure power of y, dropping
    the middle singleton index 2s+2 leaves the determinant of the outer
    band (which carries the monomial z^(2s+1)), and dropping the last
    index leaves a polynomial carrying x^(2s+1).  Together these force
    grade 3.  Both families are then classified and compared against the
    closed-form format and class.
    """
    T, t = build_family(spec, ring)
    ring = T.ring
    report = classify(T, t)
    fmt, cls = closed_form(spec)
    checks = []
    if spec.kind == "odd":
        s = spec.s
        first = pfaffian_drop(T, (1,))
        power = ring.monomial(1, (0, 4 * s + 2, 0))
        checks.append(FamilyCheck(
            "first_generator_is_y_power", first in (power, -power)))
        # the singleton index between the inner matrix and the outer band
        middle = pfaffian_drop(T, (2 * s + 2,))
        det = det_bareiss(ring, _band(ring, 2 * s + 1))
        checks.append(FamilyCheck(
            "middle_generator_is_band_determinant", middle in (det, -det)))
        checks.append(FamilyCheck(
            "middle_generator_has_z_power",
            bool(middle.coefficient((0, 0, 2 * s + 1)))))
        last = pfaffian_drop(T, (spec.size,))
        checks.append(FamilyCheck(
            "last_generator_has_x_power",
            bool(last.coefficient((2 * s + 1, 0, 0)))))
    checks.append(FamilyCheck("format_closed_form", report.format == fmt))
    checks.append(FamilyCheck("class_closed_form", report.class_ == cls))
    return FamilyReport(spec, report, tuple(checks))


#: Largest size ``realizability_scan`` accepts.  Classification reads
#: residues only, and the skip check is settled by evaluation for nearly
#: every matrix: such a certified trial takes about 0.2, 0.5 and 1.2 ms of
#: CPU at sizes 7, 13 and 21.  The bound is for the rest, whose drop-one
#: pfaffians the check computes symbolically.  Their cost grows about four
#: times per step of 2 in size, some 3 s of CPU and 130 MiB per trial at
#: size 21 (all F2, degree bound 2, Python 3.11 on a 2-core Xeon).
MAX_SCAN_SIZE = 21


def _certified(T):
    """True when T evaluated at one of ``linalg.POINTS`` in F_p^3 has rank
    m - 1 over F_p (rationals: mod ``linalg.QQ_MODULUS``).  A skew matrix
    has a nonsingular principal submatrix of the size of its rank, and
    evaluation commutes with the pfaffian, so then some drop-one pfaffian
    of T is a nonzero polynomial.  False proves nothing."""
    m = T.m
    p = residue_modulus(T.ring)
    cells = T.upper_entries()
    polys = [residue_terms(f, p) for _, f in cells]
    if None in polys:
        return False
    for point in POINTS:
        values = residues_at(polys, point, p)
        if p == 2:  # packed rows, bit j - 1 for column j; -v = v
            rows = [0] * m
            for ((i, j), _), v in zip(cells, values):
                rows[i - 1] |= v << j - 1
                rows[j - 1] |= v << i - 1
        else:
            rows = [[0] * m for _ in range(m)]
            for ((i, j), _), v in zip(cells, values):
                rows[i - 1][j - 1] = v
                rows[j - 1][i - 1] = -v % p
        basis = {}
        misses = 0
        for row in rows:
            if insert_row(basis, row, p) is None:
                misses += 1
                if misses > 1:
                    break  # the rank is below m - 1 already
        if len(basis) == m - 1:
            return True
    return False


def _keeps(T):
    # the skip check: some drop-one pfaffian is nonzero, by certificate or
    # else computed exactly
    return _certified(T) or \
        any(pfaffian_drop(T, (i,)) for i in range(1, T.m + 1))


#: Column order of the scan CSV.
SCAN_COLUMNS = ("seed", "trial", "p", "m", "t", "rank_q1", "pivots_tail",
                "l", "n", "r", "class")


@dataclasses.dataclass(frozen=True)
class ScanRecord:
    """One classified (matrix, trim count) pair from a scan.

    ``p`` is the field characteristic (0 for the rationals), ``l`` and
    ``n`` the first and last interior format entries, ``r`` the class
    parameter (None when the class is NotG).
    """

    seed: int
    trial: int
    p: int
    m: int
    t: int
    rank_q1: int
    pivots_tail: int
    l: int
    n: int
    r: object
    class_: str
    degree_bound: int

    def csv_row(self):
        return (self.seed, self.trial, self.p, self.m, self.t, self.rank_q1,
                self.pivots_tail, self.l, self.n,
                "" if self.r is None else self.r, self.class_)


@dataclasses.dataclass(frozen=True)
class ScanResult:
    records: tuple
    trials: int
    skipped: int

    def summary_lines(self):
        return [f"scan: {len(self.records)} records, "
                f"{self.skipped} of {self.trials} trials skipped"]


def _randbelow(rng):
    # below(n) draws from 0..n-1 as rng.randint, randrange and choice do,
    # by CPython's _randbelow_with_getrandbits (n = 1 included): the same
    # values and state after, without their argument layers
    getrandbits = rng.getrandbits

    def below(n):
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r
    return below


def _random_skew(ring, m, rng, min_degree, degree_bound):
    # each entry canonical as drawn: summed by packed key, reduced, zeros
    # dropped
    char = ring.field.char
    below = _randbelow(rng)
    upper = {}
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            terms = {}
            for _ in range(below(4)):
                d = min_degree + below(degree_bound - min_degree + 1)
                a1 = below(d + 1)
                a2 = below(d - a1 + 1)
                exps = (a1, a2, d - a1 - a2)
                if d > EXPONENT_LIMIT:
                    ring.from_terms({exps: 1})  # refuses the exponent
                if char:
                    coeff = 1 + below(char - 1) if char > 2 else 1
                else:
                    coeff = (-3, -2, -1, 1, 2, 3)[below(6)]
                key = pack_exponents(*exps)
                terms[key] = terms.get(key, 0) + coeff
            if char:
                terms = {key: c % char for key, c in terms.items() if c % char}
            else:
                terms = {key: c for key, c in terms.items() if c}
            if terms:
                upper[(i, j)] = Polynomial(ring, terms)
    return SkewMatrix.from_upper(ring, m, upper)


def realizability_scan(char: int, m: int, trials: int, degree_bound: int = 2,
                       seed: int = 0, *, min_degree: int = 1) -> ScanResult:
    """Classify random skew matrices for every trim count.

    Entries are sparse polynomials with up to three terms of degree between
    ``min_degree`` and ``degree_bound`` and zero constant term.  A matrix
    whose generator vector is identically zero is skipped (its trial index
    is still consumed, so records stay reproducible).  Each kept matrix
    produces one record per trim count t in 1..m, in trial order.

    Raises:
        ArgumentError: an argument not an integer, m even or below 5, or
            another argument out of range.
        UnsupportedSize: m above ``MAX_SCAN_SIZE``; checked before any
            matrix is built.
    """
    for name, value in (("char", char), ("m", m), ("trials", trials),
                        ("degree_bound", degree_bound), ("seed", seed),
                        ("min_degree", min_degree)):
        if not _is_int(value):
            raise ArgumentError(f"{name} must be an integer, got {value!r}")
    if m % 2 == 0 or m < 5:
        raise ArgumentError(f"scan size must be odd and at least 5, got {m}")
    if m > MAX_SCAN_SIZE:
        raise UnsupportedSize(
            f"scan size must be at most {MAX_SCAN_SIZE}, got {m}")
    if trials < 1:
        raise ArgumentError(f"need at least one trial, got {trials}")
    if not 1 <= min_degree <= degree_bound:
        raise ArgumentError(
            f"need 1 <= min_degree <= degree_bound, got {min_degree}..{degree_bound}")
    field = QQ if char == 0 else PrimeField(char)
    ring = PolyRing(field)
    records = []
    skipped = 0
    for trial in range(trials):
        # per-trial generator, so trials are independent and order-stable
        rng = random.Random(seed * 1_000_003 + trial)
        T = _random_skew(ring, m, rng, min_degree, degree_bound)
        if not _keeps(T):
            skipped += 1
            continue
        for _, t, rank, p, _, mu, r, cls, _ in _trim_reports(T, m):
            records.append(ScanRecord(seed, trial, field.char, m, t, rank, p,
                                      mu, t + 1, r, cls, degree_bound))
    return ScanResult(tuple(records), trials, skipped)


def write_scan_csv(records, out):
    """Write scan records as CSV with a header row.

    ``out`` is a path or a writable text file object.
    """
    with contextlib.nullcontext(out) if hasattr(out, "write") else \
            open(out, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SCAN_COLUMNS)
        writer.writerows(record.csv_row() for record in records)
