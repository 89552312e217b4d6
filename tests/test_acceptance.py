"""End-to-end acceptance gate: golden data for the printed 5x5 example,
randomized property corpora over three primes and three sizes, sign-oracle
equivalence, family closed forms, and scan-level classification bounds.

Each check prints one verdict line through a capture-suspending emitter so
a plain ``pytest -v`` run shows the per-criterion outcome.
"""

import collections
import contextlib
import itertools
import random
import time

import pytest

from pftrim import (
    BasisElement,
    ChainElement,
    FamilySpec,
    PolyRing,
    PrimeField,
    SkewMatrix,
    check_identities,
    classify,
    family_checks,
    full_table,
    minimize,
    realizability_scan,
    sigma3,
    sigma5,
    tor_products,
    trimmed_resolution,
    verify_diagrams,
    verify_leibniz,
)
from pftrim.cli import main as cli_main

from oracles import oracle_sign, random_skew

B = BasisElement
R2 = PolyRing(PrimeField(2))

PRIMES = (2, 3, 5)
SIZES = (5, 7, 9)
PER_CELL = 50

EXAMPLE_UPPER = {(1, 4): "x", (1, 5): "z", (2, 3): "x",
                 (2, 4): "z", (2, 5): "y", (3, 4): "y"}

EXAMPLE_DOCUMENT = """{
  "field": {"kind": "prime", "p": 2},
  "variables": ["x", "y", "z"],
  "size": 5,
  "upper": [[1, 4, "x"], [1, 5, "z"], [2, 3, "x"],
            [2, 4, "z"], [2, 5, "y"], [3, 4, "y"]]
}
"""

PFAFFIANS_GOLDEN = """\
y1 = y^2
y2 = y*z
y3 = x*y + z^2
y4 = x*z
y5 = x^2
"""

RESOLVE_GOLDEN = """\
resolution of the trimmed ideal: size 5, trim 1
ranks: 1 7 8 2
boundary 1 (e2, e3, e4, e5, u1_1, u1_2, u1_3):
  [y*z  x*y + z^2  x*z  x^2  x*y^2  y^3  y^2*z]
boundary 2 (f1, f2, f3, f4, f5, v1_12, v1_13, v1_23):
  [0  0  x  z  y  0  0  0]
  [0  x  0  y  0  0  0  0]
  [x  z  y  0  0  0  0  0]
  [z  y  0  0  0  0  0  0]
  [0  0  0  1  0  y  z  0]
  [0  0  0  0  0  x  0  z]
  [0  0  0  0  1  0  x  y]
boundary 3 (g, w1):
  [      y^2  0]
  [      y*z  0]
  [x*y + z^2  0]
  [      x*z  0]
  [      x^2  0]
  [        0  z]
  [        x  y]
  [        0  x]
"""

FAMILY_EXPECTED = [
    ("odd", 1, (1, 8, 11, 4), "G(2)"),
    ("odd", 2, (1, 14, 19, 6), "G(4)"),
    ("odd", 3, (1, 20, 27, 8), "G(6)"),
    ("even", 2, (1, 11, 15, 5), "G(3)"),
    ("even", 3, (1, 17, 23, 7), "G(5)"),
]


def example_matrix():
    return SkewMatrix.from_upper(R2, 5, EXAMPLE_UPPER)


def mat_of(ring, rows):
    return tuple(tuple(ring.from_string(s) for s in row) for row in rows)


def elem(ring, pairs):
    coords = {basis: ring.from_string(text) for basis, text in pairs}
    degree = next(iter(coords)).degree if coords else 0
    return ChainElement(ring, degree, coords)


@pytest.fixture(scope="module")
def verdict(request):
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def emit(num, ok, detail=""):
        line = f"criterion {num:2d}: {'pass' if ok else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        suspend = capman.global_and_fixture_disabled() if capman \
            else contextlib.nullcontext()
        with suspend:
            print(line, flush=True)

    return emit


def corpus_profile(idx):
    # mostly sparse linear entries, a slice of fuller and quadratic ones;
    # all homogeneous so that minimization stays inside the polynomial ring
    if idx < 30:
        return {"degree": 1, "terms": 1, "density": 0.6}
    if idx < 42:
        return {"degree": 1, "terms": 2, "density": 0.5}
    if idx < 45:
        return {"degree": 1, "terms": 2, "density": 1.0}
    return {"degree": 2, "terms": 1, "density": 0.5}


@pytest.fixture(scope="module")
def corpus():
    """One deterministic pass over the randomized corpus.

    Per matrix: the five pfaffian identities; per trim: boundary
    composition, both connecting diagrams, and the classified format
    against the minimized ranks; per representative trim (first, full,
    and one rotating value): the Leibniz rule on the full product table
    and, for sizes seven and up, the residue-field product table built
    from the same table.  Only verdicts and timings are kept.
    """
    times = collections.defaultdict(float)
    stats = {
        "matrices": 0,
        "trims": 0,
        "identity_cases": 0,
        "leibniz_trims": 0,
        "leibniz_pairs": 0,
        "tor_members": 0,
        "identity_failures": [],
        "compose_failures": [],
        "diagram_failures": [],
        "leibniz_failures": [],
        "format_mismatches": [],
        "tor_failures": [],
        "times": times,
    }
    for char in PRIMES:
        ring = PolyRing(PrimeField(char))
        for m in SIZES:
            for idx in range(PER_CELL):
                rng = random.Random(1_000_000 * char + 1_000 * m + idx)
                T = random_skew(ring, m, rng, **corpus_profile(idx))
                tag = (char, m, idx)
                stats["matrices"] += 1

                t0 = time.perf_counter()
                ident = check_identities(T)
                times["identities"] += time.perf_counter() - t0
                stats["identity_cases"] += sum(c.cases for c in ident.checks)
                if not ident.all_passed:
                    stats["identity_failures"].append(tag)

                held = {}
                for t in range(1, m + 1):
                    t0 = time.perf_counter()
                    td = trimmed_resolution(T, t)
                    composed = td.complex.composes_to_zero()
                    times["complexes"] += time.perf_counter() - t0
                    stats["trims"] += 1
                    if not composed:
                        stats["compose_failures"].append(tag + (t,))

                    t0 = time.perf_counter()
                    if not verify_diagrams(td).all_passed:
                        stats["diagram_failures"].append(tag + (t,))
                    times["diagrams"] += time.perf_counter() - t0

                    t0 = time.perf_counter()
                    rep = classify(T, t)
                    minimal = minimize(td.complex)
                    times["formats"] += time.perf_counter() - t0
                    if rep.format != minimal.ranks:
                        stats["format_mismatches"].append(tag + (t,))
                    held[t] = (td, rep)

                for t in sorted({1, m, (idx % m) + 1}):
                    td, rep = held[t]
                    t0 = time.perf_counter()
                    table = full_table(td)
                    t1 = time.perf_counter()
                    leib = verify_leibniz(td, table)
                    times["table"] += t1 - t0
                    times["leibniz"] += time.perf_counter() - t1
                    stats["leibniz_trims"] += 1
                    stats["leibniz_pairs"] += leib.pairs_checked
                    if not leib.all_passed:
                        stats["leibniz_failures"].append(tag + (t,))
                    if m >= 7:
                        t0 = time.perf_counter()
                        tor = tor_products(td, table)
                        times["tor"] += time.perf_counter() - t0
                        stats["tor_members"] += 1
                        diagonal = (tor.is_diagonal_pairing()
                                    and rep.class_ == f"G({rep.r})"
                                    and len(tor.g_pairing_indices()) == rep.r)
                        if not diagonal:
                            stats["tor_failures"].append(tag + (t,))
    return stats


def test_criterion_01_golden_resolution(tmp_path, capsys, verdict):
    t0 = time.perf_counter()
    T = example_matrix()
    gens = T.generators()
    assert [str(g) for g in gens] == ["y^2", "y*z", "x*y + z^2", "x*z", "x^2"]

    td = trimmed_resolution(T, 1)
    assert td.Q1 == mat_of(R2, [["0", "0", "0", "1", "0"],
                                ["0", "0", "0", "0", "0"],
                                ["0", "0", "0", "0", "1"]])
    assert td.Q2 == mat_of(R2, [["0"], ["x"], ["0"]])

    path = tmp_path / "example.json"
    path.write_text(EXAMPLE_DOCUMENT)
    assert cli_main(["pfaffians", str(path)]) == 0
    assert capsys.readouterr().out == PFAFFIANS_GOLDEN
    assert cli_main(["resolve", str(path), "--trim", "1"]) == 0
    assert capsys.readouterr().out == RESOLVE_GOLDEN
    elapsed = time.perf_counter() - t0

    verdict(1, elapsed < 1.0, f"printed data bit-exact, {elapsed * 1000:.0f}ms")
    assert elapsed < 1.0


def test_criterion_02_golden_product_tables(verdict):
    t0 = time.perf_counter()
    td = trimmed_resolution(example_matrix(), 1)
    table = full_table(td)

    degree_one = {
        (2, 3): [(B.F(4), "z"), (B.F(5), "x"), (B.V(1, 1, 3), "1")],
        (2, 4): [(B.F(3), "z")],
        (2, 5): [(B.F(1), "y"), (B.F(3), "x")],
        (3, 4): [(B.F(1), "y"), (B.F(2), "z")],
        (3, 5): [(B.F(1), "z"), (B.F(2), "x")],
        (4, 5): [(B.F(1), "x")],
    }
    for i, j in itertools.combinations(range(2, 6), 2):
        assert table.lookup(B.E(i), B.E(j)) == \
            elem(R2, degree_one.get((i, j), [])), (i, j)
    for i in range(2, 6):
        assert table.lookup(B.E(i), B.E(i)).is_zero

    mixed = {
        (2, 1): [(B.F(5), "x*y"), (B.V(1, 1, 3), "y")],
        (2, 2): [(B.F(5), "y^2"), (B.V(1, 2, 3), "y")],
        (2, 3): [(B.F(5), "y*z")],
        (3, 1): [(B.F(4), "x*y"), (B.F(5), "x*z"), (B.V(1, 1, 3), "z")],
        (3, 2): [(B.F(4), "y^2"), (B.F(5), "y*z"), (B.V(1, 1, 2), "y"),
                 (B.V(1, 2, 3), "z")],
        (3, 3): [(B.F(4), "y*z"), (B.F(5), "z^2"), (B.V(1, 1, 3), "y")],
        (4, 1): [(B.F(3), "x*y"), (B.F(5), "x^2"), (B.V(1, 1, 3), "x")],
        (4, 2): [(B.F(3), "y^2"), (B.F(5), "x*y"), (B.V(1, 2, 3), "x")],
        (4, 3): [(B.F(3), "y*z"), (B.F(5), "x*z")],
        (5, 1): [(B.F(2), "x*y"), (B.F(3), "x*z"), (B.F(4), "x^2")],
        (5, 2): [(B.F(2), "y^2"), (B.F(3), "y*z"), (B.F(4), "x*y"),
                 (B.V(1, 1, 2), "x")],
        (5, 3): [(B.F(2), "y*z"), (B.F(3), "z^2"), (B.F(4), "x*z"),
                 (B.V(1, 1, 3), "x")],
    }
    for (j, l), pairs in mixed.items():
        assert table.lookup(B.E(j), B.U(1, l)) == elem(R2, pairs), (j, l)

    # the two spotlighted cells: the corrected off-diagonal product and
    # the diagonal column pairing onto the top generator
    assert table.lookup(B.E(2), B.E(3)) == \
        elem(R2, [(B.F(4), "z"), (B.F(5), "x"), (B.V(1, 1, 3), "1")])
    top = ChainElement.of(R2, B.G())
    for i in range(2, 6):
        for j in range(1, 6):
            value = table.lookup(B.E(i), B.F(j))
            assert value == top if i == j else value.is_zero, (i, j)
    elapsed = time.perf_counter() - t0

    verdict(2, elapsed < 1.0, f"tables bit-exact, {elapsed * 1000:.0f}ms")
    assert elapsed < 1.0


def test_criterion_03_complex_property_corpus(corpus, verdict):
    elapsed = sum(corpus["times"][key]
                  for key in ("identities", "complexes", "diagrams"))
    failures = (corpus["identity_failures"] + corpus["compose_failures"]
                + corpus["diagram_failures"])
    expected = len(PRIMES) * len(SIZES) * PER_CELL
    ok = (not failures and corpus["matrices"] == expected
          and elapsed < 300.0)
    verdict(3, ok, f"{corpus['matrices']} matrices, {corpus['trims']} trims, "
            f"{corpus['identity_cases']} identity cases, {elapsed:.1f}s")
    assert corpus["matrices"] == expected
    assert not failures, failures[:5]
    assert elapsed < 300.0


def test_criterion_04_leibniz_corpus(corpus, verdict):
    # the phase breakdown of the corpus pass, shown by pytest -rP
    print("corpus phases (s):", {key: round(value, 2) for key, value
                                 in sorted(corpus["times"].items())})
    ok = not corpus["leibniz_failures"]
    verdict(4, ok, f"{corpus['leibniz_pairs']} pairs over "
            f"{corpus['leibniz_trims']} trimmed complexes")
    assert ok, corpus["leibniz_failures"][:5]


def test_criterion_05_sign_oracle_equivalence(verdict):
    frame = list(range(1, 10))

    def sigma3_oracle(i, j, r):
        body = [v for v in frame if v != i]
        target = [j, r] + [v for v in frame if v not in (i, j, r)]
        s = oracle_sign(body, target)
        return s if i % 2 == 1 else -s

    def sigma5_oracle(i, j, r, h, k):
        body = [v for v in frame if v not in (i, j, r)]
        target = [k, h] + [v for v in frame if v not in (i, j, r, k, h)]
        return oracle_sign(body, target)

    mismatches = 0
    triples = 0
    for i, j, r in itertools.product(frame, repeat=3):
        triples += 1
        expected = sigma3_oracle(i, j, r) if len({i, j, r}) == 3 else 0
        if sigma3(i, j, r) != expected:
            mismatches += 1
    quints = 0
    for i, j, r, h, k in itertools.product(frame, repeat=5):
        quints += 1
        expected = sigma5_oracle(i, j, r, h, k) \
            if len({i, j, r, h, k}) == 5 else 0
        if sigma5(i, j, r, h, k) != expected:
            mismatches += 1

    verdict(5, mismatches == 0,
            f"{triples} triples, {quints} quintuples, exhaustive")
    assert mismatches == 0


def test_criterion_06_family_closed_forms(verdict):
    t0 = time.perf_counter()
    failures = []
    for kind, s, fmt, cls in FAMILY_EXPECTED:
        report = family_checks(FamilySpec(kind, s))
        if not (report.all_passed and report.report.format == fmt
                and report.report.class_ == cls):
            failures.append((kind, s))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    verdict(6, ok, f"{len(FAMILY_EXPECTED)} members, {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 120.0


def test_criterion_07_format_cross_check(corpus, verdict):
    ok = not corpus["format_mismatches"]
    verdict(7, ok, f"{corpus['trims']} classified trims against "
            "minimized ranks")
    assert ok, corpus["format_mismatches"][:5]


def test_criterion_08_gap_and_bounds(verdict):
    records = []
    records += realizability_scan(2, 7, 160, degree_bound=2, seed=11).records
    records += realizability_scan(3, 5, 100, degree_bound=2, seed=12).records
    in_g = [rec for rec in records if rec.class_.startswith("G(")]
    violations = []
    for rec in in_g:
        gap = rec.l - rec.r
        if not 2 * rec.t <= gap <= 3 * rec.t:
            violations.append(("range", rec))
        if gap == 3 * rec.t - 1:
            violations.append(("forbidden", rec))
        if rec.t == 1 and rec.r != rec.l - 3:
            violations.append(("first-trim", rec))
        if rec.t >= 2 and rec.r > rec.l - 4:
            violations.append(("deep-trim", rec))
    ok = len(in_g) >= 1000 and not violations
    verdict(8, ok, f"{len(in_g)} class-G records of {len(records)}")
    assert len(in_g) >= 1000
    assert not violations, violations[:5]


def test_criterion_09_high_degree_scans(verdict):
    records = []
    records += realizability_scan(2, 5, 60, degree_bound=2, seed=13,
                                  min_degree=2).records
    records += realizability_scan(3, 7, 20, degree_bound=2, seed=14,
                                  min_degree=2).records
    off = [rec for rec in records
           if rec.class_ != f"G({rec.m - rec.t})" or rec.l - rec.r != 3 * rec.t]
    ok = bool(records) and not off
    verdict(9, ok, f"{len(records)} records, entries of degree two")
    assert records
    assert not off, off[:5]


def test_criterion_10_tor_table_consistency(corpus, verdict):
    ok = corpus["tor_members"] > 0 and not corpus["tor_failures"]
    verdict(10, ok, f"{corpus['tor_members']} residue-field tables, "
            "diagonal with matching rank")
    assert corpus["tor_members"] > 0
    assert not corpus["tor_failures"], corpus["tor_failures"][:5]
