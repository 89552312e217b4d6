"""Family builders, their check reports, and the realizability scanner."""

import hashlib
import io
import itertools
import random
from fractions import Fraction

import pytest

from pftrim import families
from pftrim.classify import classify, tor_products
from pftrim.dgproducts import ChainElement, d_constants, full_table, \
    verify_leibniz
from pftrim.errors import ArgumentError, UnsupportedSize
from pftrim.families import (
    MAX_FAMILY_BAND,
    MAX_SCAN_SIZE,
    SCAN_COLUMNS,
    FamilySpec,
    build_family,
    closed_form,
    family_checks,
    realizability_scan,
    write_scan_csv,
    _band,
)
from pftrim.linalg import POINTS, QQ_MODULUS, det_bareiss, residue_bits, \
    residue_modulus, residue_terms, residues_at
from pftrim.pfaffian import SkewMatrix, pfaffian_drop
from pftrim.polyring import PolyRing, PrimeField, QQ
from pftrim.resolution import trimmed_resolution

from oracles import oracle_value, random_poly, tuple_terms

RQ = PolyRing(QQ)
R2 = PolyRing(PrimeField(2))

# format and class for each member, frozen from the closed forms
EXPECTED = {
    ("odd", 1): ((1, 8, 11, 4), "G(2)"),
    ("odd", 2): ((1, 14, 19, 6), "G(4)"),
    ("odd", 3): ((1, 20, 27, 8), "G(6)"),
    ("even", 2): ((1, 11, 15, 5), "G(3)"),
    ("even", 3): ((1, 17, 23, 7), "G(5)"),
}


# sha256 of the CSV of the criterion 8 and 9 scans and of more, keyed by
# (char, size, trials, seed, min_degree, degree_bound)
SCAN_DIGESTS = {
    (2, 7, 160, 11, 1, 2):
        "e88537c927bd5805044691bf1bee5e531922fc02cff3a60d92bee0d98381b74e",
    (3, 5, 100, 12, 1, 2):
        "1c72541748504bf2b76d498a1222d20232248eb27f9011e4cbba98edd45200fb",
    (2, 5, 60, 13, 2, 2):
        "74f2ec8936ee08c6d0e3fbf64b9f58aea9656b3096734e8b7685337c403b1b00",
    (3, 7, 20, 14, 2, 2):
        "3293467a745218da72e950308f4fbd3c9326684e6f3cb090f27e83c452e49a08",
    # the draw's other coefficient branches: rng.choice over QQ, and
    # rng.randrange over a prime above 3
    (0, 7, 20, 15, 1, 2):
        "67450e0d9f0fd0ee073ad34616aa4e9c0b832839ae9d16bb6ccc03907a4f7b90",
    (7, 7, 40, 17, 1, 2):
        "02a97c8e952e88e5a5daf81f855c7218ca22b560c926e7f2c003039b95b97c15",
    # F2 at the largest scan size, so the certificate's and the
    # classification's eliminations run at their widest rows
    (2, 21, 40, 18, 1, 2):
        "1beb3540c4c8359fed5e00390c159979f44909115ca6854b9f8e5d45a3656fd8",
    # other draw ranges: a degree bound of 1 draws every degree from a
    # range of one value, a bound of 5 draws exponents up to 5
    (5, 9, 40, 19, 1, 1):
        "6ad038f92a1d6c040713f34b68c9977022170cfbae55ff758f3de8edab575c7b",
    (2, 7, 40, 22, 1, 1):
        "758e04e6aa23b2b39cad2e2788f18d776aa071087ece6fbc225263cef442580a",
    (3, 7, 30, 20, 2, 5):
        "03acaabdbfe4f4534a85274d2fdcdf72a0155ea8b0772b256c83e638be059945",
    (0, 7, 20, 21, 1, 5):
        "4e52428e2915820a23692d82f2a7b084d8d02beff99931c6a6fcd0db7dd995b6",
}


def _scan_id(key):
    # the degree bound is named only where it is not 2, so the entries
    # frozen before it joined the key keep their test ids
    *head, degree_bound = key
    suffix = "" if degree_bound == 2 else f"-bound{degree_bound}"
    return "-".join(map(str, head)) + suffix


class TestFamilySpec:
    def test_sizes(self):
        assert FamilySpec("odd", 1).size == 7
        assert FamilySpec("odd", 1).trim == 3
        assert FamilySpec("odd", 3).size == 15
        assert FamilySpec("even", 2).size == 9
        assert FamilySpec("even", 2).trim == 4

    def test_validation(self):
        with pytest.raises(ArgumentError):
            FamilySpec("diagonal", 1)
        with pytest.raises(ArgumentError):
            FamilySpec("odd", 0)
        with pytest.raises(ArgumentError):
            FamilySpec("odd", -2)
        with pytest.raises(ArgumentError):
            FamilySpec("even", 1)
        assert FamilySpec("even", MAX_FAMILY_BAND).size == 4 * MAX_FAMILY_BAND + 1
        with pytest.raises(UnsupportedSize):
            FamilySpec("odd", MAX_FAMILY_BAND + 1)


class TestBand:
    def test_one_and_two(self):
        x, y, z = RQ.gens
        assert _band(RQ, 1) == [[z]]
        assert _band(RQ, 2) == [[x, z], [z, y * y]]

    def test_symmetric_with_empty_corners(self):
        block = _band(RQ, 4)
        for i in range(4):
            for j in range(4):
                assert block[i][j] == block[j][i]
        # i+j below s or above s+2 stays empty
        assert not block[0][0]
        assert not block[3][3]


class TestBuildFamily:
    def test_smallest_odd_member(self):
        T, t = build_family(FamilySpec("odd", 1), RQ)
        assert (T.m, t) == (7, 3)
        x, y, z = RQ.gens
        expected = {
            (1, 2): x, (1, 3): z, (2, 3): y * y,
            (3, 4): x, (1, 6): x, (1, 7): z,
            (2, 5): x, (2, 6): z, (2, 7): y * y,
            (3, 5): z, (3, 6): y * y, (4, 5): y * y,
        }
        assert dict(T.upper_entries()) == expected

    def test_constructor_invariants_hold_up_to_four(self):
        # SkewMatrix validates skew-symmetry, zero diagonal, and zero
        # constant terms; surviving construction is the assertion
        for kind, start in (("odd", 1), ("even", 2)):
            for s in range(start, 5):
                spec = FamilySpec(kind, s)
                T, t = build_family(spec, RQ)
                assert T.m == spec.size
                assert t == spec.trim

    def test_default_field_is_rational(self):
        T, _ = build_family(FamilySpec("odd", 1))
        assert T.ring.field.char == 0

    def test_first_generator_power(self):
        T, _ = build_family(FamilySpec("odd", 1), RQ)
        assert pfaffian_drop(T, (1,)) in (
            RQ.monomial(1, (0, 6, 0)), RQ.monomial(-1, (0, 6, 0)))

    def test_middle_generator_is_outer_band_determinant(self):
        T, _ = build_family(FamilySpec("odd", 1), RQ)
        det = det_bareiss(RQ, _band(RQ, 3))
        assert det == RQ.from_string("2*x*y^2*z - z^3")
        assert pfaffian_drop(T, (4,)) in (det, -det)


class TestFamilyChecks:
    @pytest.mark.parametrize("kind,s", list(EXPECTED))
    def test_members_pass_with_closed_forms(self, kind, s):
        spec = FamilySpec(kind, s)
        assert closed_form(spec) == EXPECTED[(kind, s)]
        report = family_checks(spec)
        assert report.all_passed, report.summary_lines()
        fmt, cls = EXPECTED[(kind, s)]
        assert report.report.format == fmt
        assert report.report.class_ == cls

    def test_check_names(self):
        odd = family_checks(FamilySpec("odd", 1))
        assert [c.name for c in odd.checks] == [
            "first_generator_is_y_power",
            "middle_generator_is_band_determinant",
            "middle_generator_has_z_power",
            "last_generator_has_x_power",
            "format_closed_form",
            "class_closed_form",
        ]
        even = family_checks(FamilySpec("even", 2))
        assert [c.name for c in even.checks] == [
            "format_closed_form", "class_closed_form"]

    def test_prime_field_member(self):
        report = family_checks(FamilySpec("odd", 1), PolyRing(PrimeField(5)))
        assert report.all_passed
        assert report.report.class_ == "G(2)"

    def test_summary_lines(self):
        report = family_checks(FamilySpec("odd", 1))
        lines = report.summary_lines()
        assert lines[0] == "odd family, s=1: 6 checks, ok"
        assert "  first_generator_is_y_power: ok" in lines
        assert any("format (1, 8, 11, 4)" in line for line in lines)


class TestScan:
    def test_deterministic(self):
        first = realizability_scan(3, 5, 6, 2, seed=11)
        second = realizability_scan(3, 5, 6, 2, seed=11)
        assert first.records == second.records
        assert first.skipped == second.skipped

    def test_record_shape(self):
        result = realizability_scan(2, 5, 5, 2, seed=7)
        assert len(result.records) == 5 * (5 - result.skipped)
        for index, record in enumerate(result.records):
            assert (record.seed, record.p, record.m) == (7, 2, 5)
            assert record.trial == index // 5
            assert record.t == index % 5 + 1
            assert record.n == record.t + 1
            assert record.l == record.m + 2 * record.t - record.rank_q1
            assert 0 <= record.pivots_tail <= record.rank_q1
            assert record.degree_bound == 2
            if record.class_ == "NotG":
                assert record.r is None
            else:
                assert record.class_ == f"G({record.r})"

    def test_class_g_bounds(self):
        records = realizability_scan(3, 5, 20, 2, seed=2).records
        hits = [r for r in records if r.r is not None]
        assert hits
        for record in hits:
            spread = record.l - record.r
            assert 2 * record.t <= spread <= 3 * record.t
            assert spread != 3 * record.t - 1

    def test_square_entries_force_diagonal_class(self):
        # entries of degree >= 2 only: always G(m - t) with spread 3t
        result = realizability_scan(2, 5, 8, 2, seed=3, min_degree=2)
        assert result.records
        for record in result.records:
            assert record.class_ == f"G({record.m - record.t})"
            assert record.l - record.r == 3 * record.t

    def test_rational_scan(self):
        result = realizability_scan(0, 5, 3, 2, seed=1)
        assert result.records
        assert all(record.p == 0 for record in result.records)

    def test_skipped_trials_consume_indices(self):
        # seed chosen so a sparse degree-1 trial has a zero generator
        # vector; the records of later trials keep their trial numbers
        result = realizability_scan(2, 5, 40, 1, seed=1)
        assert result.skipped >= 1
        assert len(result.records) == 5 * (40 - result.skipped)
        kept = sorted({record.trial for record in result.records})
        assert len(kept) == 40 - result.skipped
        assert kept != list(range(len(kept)))
        assert "skipped" in result.summary_lines()[0]

    def test_validation(self):
        with pytest.raises(ArgumentError):
            realizability_scan(2, 6, 1)
        with pytest.raises(ArgumentError):
            realizability_scan(2, 3, 1)
        with pytest.raises(ArgumentError):
            realizability_scan(2, 5, 0)
        with pytest.raises(ArgumentError):
            realizability_scan(2, 5, 1, 2, min_degree=3)
        with pytest.raises(ArgumentError):
            realizability_scan(4, 5, 1)

    def test_size_limit_before_any_matrix(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("matrix built above the size limit")

        monkeypatch.setattr(families, "_random_skew", forbidden)
        assert MAX_SCAN_SIZE == 21
        with pytest.raises(UnsupportedSize):
            realizability_scan(2, MAX_SCAN_SIZE + 2, 1)

    def test_csv_output(self):
        result = realizability_scan(2, 5, 2, 2, seed=7)
        buffer = io.StringIO()
        write_scan_csv(result.records, buffer)
        lines = buffer.getvalue().strip().splitlines()
        assert lines[0] == ",".join(SCAN_COLUMNS)
        assert len(lines) == len(result.records) + 1
        first = lines[1].split(",")
        assert first[:5] == ["7", "0", "2", "5", "1"]
        for line, record in zip(lines[1:], result.records):
            cells = line.split(",")
            assert cells[-1] == record.class_
            assert cells[-2] == ("" if record.r is None else str(record.r))

    @pytest.mark.parametrize("key", sorted(SCAN_DIGESTS), ids=_scan_id)
    def test_golden_csv(self, key):
        char, m, trials, seed, min_degree, degree_bound = key
        result = realizability_scan(char, m, trials, degree_bound, seed,
                                    min_degree=min_degree)
        buffer = io.StringIO()
        write_scan_csv(result.records, buffer)
        digest = hashlib.sha256(buffer.getvalue().encode()).hexdigest()
        assert digest == SCAN_DIGESTS[key]


class TestResidues:
    def test_points_are_nonzero_corners(self):
        # residues_at reads a term's value off its support, which is exact
        # only at points of {0, 1}^3
        corners = set(itertools.product((0, 1), repeat=3)) - {(0, 0, 0)}
        assert set(POINTS) <= corners
        assert len(set(POINTS)) == len(POINTS)

    @pytest.mark.parametrize("field", [PrimeField(2), PrimeField(5), QQ],
                             ids=repr)
    def test_against_oracle(self, field):
        ring = PolyRing(field)
        p = residue_modulus(ring)
        rng = random.Random(field.char + 41)
        polys = [random_poly(ring, rng, degree, terms)
                 for degree in (0, 1, 2, 5) for terms in (0, 1, 3, 8)
                 for _ in range(3)]
        if not field.char:
            polys.append(ring.from_terms({(2, 0, 1): Fraction(3, 7),
                                          (0, 1, 0): Fraction(-5, 4),
                                          (0, 0, 0): Fraction(1, 2)}))
        assert any(f.terms for f in polys)
        residues = [residue_terms(f, p) for f in polys]
        for point in POINTS:
            values = [oracle_value(tuple_terms(f), point, p) for f in polys]
            assert residues_at(residues, point, p) == values, point
            if p == 2:
                assert residue_bits(residues, point) == \
                    sum(v << c for c, v in enumerate(values)), point


#: draw ranges for the equivalence of ``families._randbelow`` with the
#: generator's own methods: every n up to 70, and each side of the powers
#: of two, where the rejection loop of CPython's draw changes bit count
DRAW_RANGES = sorted(set(range(1, 71)) |
                     {n for k in range(21) for n in (2 ** k, 2 ** k + 1)})


class TestDraw:
    # the draw reads the generator through _randbelow, and the scan CSV and
    # every caller that goes on drawing from the same generator after
    # _random_skew depend on its values and its state being the
    # generator's own
    @pytest.mark.parametrize("method", [
        lambda rng, n: rng.randint(0, n - 1),
        lambda rng, n: rng.randrange(1, n + 1) - 1,
        # choice reads only the length of the sequence, and a range of n
        # is an n-element sequence that is never built
        lambda rng, n: rng.choice(range(n))],
        ids=["randint", "randrange", "choice"])
    def test_matches_the_generator(self, method):
        for seed in range(200):
            ours, theirs = random.Random(seed), random.Random(seed)
            below = families._randbelow(ours)
            for n in DRAW_RANGES:
                assert below(n) == method(theirs, n), (seed, n)
            assert ours.getstate() == theirs.getstate(), seed


class TestF2Aliasing:
    def test_no_path_edits_an_entry(self):
        # over F2, from_upper puts one Polynomial object at (i, j) and
        # (j, i), so an in-place edit of either would change both
        T = families._random_skew(R2, 7, random.Random(3), 1, 2)
        assert all(T.rows[i][j] is T.rows[j][i]
                   for i in range(7) for j in range(i + 1, 7))
        before = [[dict(f.terms) for f in row] for row in T.rows]
        assert families._certified(T)
        for t in range(1, 8):
            classify(T, t)
            td = trimmed_resolution(T, t)
            table = full_table(td)
            assert verify_leibniz(td, table).all_passed
            tor_products(td, table)
        assert [[f.terms for f in row] for row in T.rows] == before


def linear_matrix():
    x, y, z = R2.gens
    return SkewMatrix.from_upper(R2, 5, {
        (i, j): x + (y, z)[(i + j) % 2] for i in range(1, 6)
        for j in range(i + 1, 6)})


@pytest.mark.parametrize("call", [
    lambda: realizability_scan(2, 5, 1.5),
    lambda: realizability_scan(2, 5, True),
    lambda: realizability_scan(2, 5, 1, degree_bound=2.5),
    lambda: realizability_scan(2, 5, 1, seed=1.5),
    lambda: realizability_scan(2, 5, 1, min_degree=True),
    lambda: FamilySpec("odd", True),
    lambda: trimmed_resolution(linear_matrix(), True),
    lambda: classify(linear_matrix(), True),
    lambda: d_constants(trimmed_resolution(linear_matrix(), 1), "two_index",
                        (1, True, 2, 1, 2)),
    lambda: ChainElement(R2, True)],
    ids=["scan-trials", "scan-bool-trials", "scan-degree-bound",
         "scan-seed", "scan-bool-min-degree", "family-band", "trim",
         "classify", "d-constants", "chain-degree"])
def test_integer_arguments_refuse_others(call):
    # a float or a bool where an index, size, count or seed goes fails
    # with the documented error, not a TypeError, a ValueError or a result
    with pytest.raises(ArgumentError):
        call()


class TestSkipCertificate:
    def test_certified_scans_compute_no_pfaffian(self, monkeypatch):
        golden = {(char, m): realizability_scan(char, m, 6, 2, seed=5)
                  for char, m in ((2, 13), (0, 7))}

        def forbidden(*args):
            raise AssertionError("a certified scan computed a pfaffian")

        monkeypatch.setattr(SkewMatrix, "_pf", forbidden)
        for (char, m), expected in golden.items():
            result = realizability_scan(char, m, 6, 2, seed=5)
            assert result.skipped == 0
            assert result.records == expected.records

    def test_vanishing_generators_are_skipped(self):
        # rows 1 and 2 are zero, so every drop-one pfaffian keeps a zero row
        x, y, z = R2.gens
        T = SkewMatrix.from_upper(R2, 5, {(3, 4): x, (3, 5): y, (4, 5): z})
        assert not families._certified(T)
        assert not families._keeps(T)

    def test_uncertified_nonzero_generator_is_kept(self, monkeypatch):
        # xy(x + y) vanishes at every point of F2^3, so T does too, but the
        # pfaffian dropping index 5 is its square
        f = R2.from_string("x^2*y + x*y^2")
        T = SkewMatrix.from_upper(R2, 5, {(1, 2): f, (3, 4): f})
        assert pfaffian_drop(T, (5,)) == f * f
        calls = []
        monkeypatch.setattr(families, "pfaffian_drop",
                            lambda *args: calls.append(args) or
                            pfaffian_drop(*args))
        assert not families._certified(T)
        assert families._keeps(T)
        assert calls

    def test_rational_denominator_at_the_modulus(self):
        # a coefficient with no value mod the prime gives no certificate
        x, y, z = RQ.gens
        big = QQ_MODULUS
        upper = {(i, j): x + y.scaled(i) + z.scaled(j)
                 for i in range(1, 6) for j in range(i + 1, 6)}
        T = SkewMatrix.from_upper(RQ, 5, upper)
        assert families._certified(T)
        upper[(1, 2)] = x.scaled(Fraction(1, big))
        T = SkewMatrix.from_upper(RQ, 5, upper)
        assert not families._certified(T)
        assert families._keeps(T)
