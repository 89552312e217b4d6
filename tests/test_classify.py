"""Class decision against the 5x5 golden example, induced Tor products,
conjecture verdicts, and trim-set conjugation."""

import hashlib
import json
import random
import sys
from fractions import Fraction

import pytest

from pftrim import dgproducts, polyring, resolution
from pftrim.classify import ConjectureReport, TorReport, check_conjectures, \
    classify, conjugate_trim_set, tor_products, _residue_q1, _trim_reports
from pftrim.dgproducts import ChainElement, ProductTable, full_table
from pftrim.errors import ArgumentError, NotApplicable, UnsupportedSize
from pftrim.families import _random_skew
from pftrim.pfaffian import SkewMatrix, pfaffian_drop
from pftrim.linalg import POINTS, insert_bits, insert_row, residue_bits, \
    residues_at, rref
from pftrim.polyring import PolyRing, PrimeField, QQ
from pftrim.resolution import BasisElement, minimize, trimmed_resolution

from oracles import oracle_pivots, oracle_rank, random_skew

from test_dgproducts import DIGEST_FIELDS, digest_matrix
from test_pfaffian import example_matrix


R3 = PolyRing(PrimeField(3))
R5 = PolyRing(PrimeField(5))


class TestClassify:
    def test_example_not_g(self):
        rep = classify(example_matrix(), 1)
        assert rep.m == 5 and rep.t == 1
        assert rep.format == (1, 5, 6, 2)
        assert rep.rank_q1 == 2 and rep.p == 2
        assert rep.mu == 5
        assert rep.r is None and rep.class_ == "NotG"
        assert rep.failing_minor == (2, 3, 1)
        assert rep.to_document() == {
            "m": 5, "t": 1, "rank_q1": 2, "p": 2, "format": [1, 5, 6, 2],
            "mu": 5, "r": None, "class": "NotG"}
        assert "class NotG" in rep.summary_lines()[0]

    def test_size_five_minor_vanishes_mod_p(self):
        # row 1 has residue columns (2, 1, 0) at 3 and (1, 2, 0) at 4, whose
        # minor 2*2 - 1*1 vanishes over F3: no witness, and no degree-one
        # products in the Tor algebra
        T = SkewMatrix.from_upper(R3, 5, {
            (1, 3): "2*x + y", (1, 4): "x + 2*y", (2, 4): "2*y*z + x + y",
            (2, 5): "2*x^2 + z", (3, 4): "2*z^2", (3, 5): "2*x + 2*y",
            (4, 5): "2*x^2"})
        rep = classify(T, 1)
        assert rep.failing_minor is None and rep.class_ == "G(3)"
        assert not tor_products(trimmed_resolution(T, 1)) \
            .has_degree_one_products()

    def test_full_trim_always_g0(self):
        rng = random.Random(11)
        for T in (example_matrix(), random_skew(R3, 5, rng, degree=1)):
            rep = classify(T, T.m)
            assert rep.class_ == "G(0)" and rep.r == 0 and rep.p == 0

    def test_size_validation(self):
        x = R3.gens[0]
        small = SkewMatrix.from_upper(R3, 3, {(1, 2): x, (1, 3): x,
                                              (2, 3): x})
        with pytest.raises(UnsupportedSize):
            classify(small, 1)
        with pytest.raises(ArgumentError):
            classify(example_matrix(), 0)
        with pytest.raises(ArgumentError):
            classify(example_matrix(), 6)

    def test_large_sizes_always_g(self):
        rng = random.Random(12)
        for m in (7, 9):
            T = random_skew(R3, m, rng, degree=1)
            for t in (1, m // 2, m):
                rep = classify(T, t)
                assert rep.r == m - t - rep.p
                assert rep.class_ == f"G({rep.r})"
                assert rep.failing_minor is None

    def test_format_matches_minimization(self):
        rng = random.Random(13)
        for p in (2, 5):
            ring = PolyRing(PrimeField(p))
            for m in (5, 7):
                T = random_skew(ring, m, rng, degree=rng.choice((1, 2)))
                for t in range(1, m + 1):
                    rep = classify(T, t)
                    td = trimmed_resolution(T, t)
                    assert minimize(td.complex).ranks == rep.format
                    assert 0 <= rep.rank_q1 - rep.p <= t


# sha256 over t = 1..m of (report document, failing minor), frozen before
# classify read its residues straight off the matrix entries
REPORT_DIGESTS = {
    ("F2", 5):
        "adadcc649422eda57c8c185c18fa328e9e81337427ebb8ccd20f568c07a1e14e",
    ("F2", 7):
        "4cd6ae8bf49c8a4d81f43f0e708f8ac0827e074185d7271166505d345509041f",
    ("F3", 5):
        "484a37e0b9a244648d1320681a993397943724ad74c18068d92520c07bb9fd86",
    ("F3", 7):
        "73b317fc363d2c398518a94adab4ef17b19a706d02bafd554be34464790108d8",
    ("F3", 9):
        "3d157eecf2ec5dedb90a887757ac0f3d442598607c4e3a21b6828304f7bcf7e0",
    ("F5", 5):
        "9cd7302f850e8a4225cc95ddbe076aa0b9ba01dd8dc63ab300c690557937ad37",
    ("F5", 7):
        "61d645a14cab402bd93356adbce14c9fdf7fc70d1f06fef0921a966afb595f24",
    ("QQ", 5):
        "22b558c24d0425cad1a6bb69a013cd3680fa6775a72d9081838dbb782bd068fe",
    ("QQ", 7):
        "a830cd4ae81b5f9cef32cc84ff1b4ffec0eb82f2b69a2acae387d89ce23f2ef5",
    ("QQ", 11):
        "95909b0422e46ee7770dbdd47263a73a8c17bbfb0f40d8c332dbe3e4aa06e939",
}


def report_matrix(name, m):
    if m <= 7:
        return digest_matrix(name, m)
    ring = PolyRing(DIGEST_FIELDS[name])
    rng = random.Random(100 * list(DIGEST_FIELDS).index(name) + m)
    if m == 9:
        return random_skew(ring, m, rng, degree=2, terms=3, homogeneous=False)
    return random_skew(ring, m, rng, degree=1, density=0.6)


# sha256 of tor_products(td).to_document() at every trim of report_matrix,
# pinned with the scalars reduced mod p and before the residues were read
# off the kept recipes, which must not change them
TOR_DIGESTS = {
    ("F2", 5):
        "35c0d0547b7b35747c6d1b9d37cfbd6d5c0dde2e963af1d49b2702c6b1eb3a89",
    ("F2", 7):
        "8db75354da61912c11dd30f882cba4ec7b5274ae03a5eca2f905518999a64837",
    ("F3", 5):
        "684b57d44376d47af53f6358468e25b93f14f1b355f36324fcc08ed88e3142a1",
    ("F3", 7):
        "812a4cb372f04d52544219b5777ead84946eb0b2f3d3ad0dd57e7e916fd4dc11",
    ("F3", 9):
        "5bff222c7edb84b043045f950d089fe43339e3d65ce773cfb5f2f3152f49edba",
    ("F5", 5):
        "80dc0d90566c27165dca0018f0d56d770756fe565aff965e7231f907bb001026",
    ("F5", 7):
        "fdab7ae39d0116c4d02c572c8b609b40b2adf05f428dcde67447304932705c3f",
    ("QQ", 5):
        "846394875ad98edcecc7d73befce07c6a265ffc8e08064c64a095f1c4a1504e6",
    ("QQ", 7):
        "733e3f94d86faa7f3bb6528e682a4a01c05701c8900ca2db624f7e50d0ad2950",
}


def report_digest(T):
    h = hashlib.sha256()
    for t in range(1, T.m + 1):
        rep = classify(T, t)
        h.update(json.dumps([rep.to_document(), rep.failing_minor]).encode())
    return h.hexdigest()


class TestGoldenReports:
    @pytest.mark.parametrize("name,m", sorted(REPORT_DIGESTS))
    def test_reports(self, name, m):
        assert report_digest(report_matrix(name, m)) == \
            REPORT_DIGESTS[(name, m)]

    def test_no_polynomial_work(self, monkeypatch):
        T = report_matrix("F3", 9)

        def forbidden(*args):
            raise AssertionError("classify did polynomial work")

        monkeypatch.setattr(SkewMatrix, "_pf", forbidden)
        monkeypatch.setattr(resolution, "trimmed_resolution", forbidden)
        monkeypatch.setattr(polyring.Polynomial, "__mul__", forbidden)
        rep = classify(example_matrix(), 1)
        assert rep.class_ == "NotG" and rep.failing_minor == (2, 3, 1)
        assert report_digest(T) == REPORT_DIGESTS[("F3", 9)]


class TestTrimReports:
    # one elimination for all trims against a per-trim oracle, on residues
    # read straight off the entries: row (k, l), column i is the
    # coefficient of the l-th variable in T[k, i]
    UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    @pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3),
                                       PrimeField(5), QQ], ids=repr)
    def test_against_oracle(self, field):
        ring = PolyRing(field)
        rng = random.Random(field.char + 17)
        for m in (5, 7, 9, 11, 13):
            for shape in ({"degree": 1}, {"degree": 1, "density": 0.4},
                          {"degree": 2, "terms": 3, "homogeneous": False}):
                T = random_skew(ring, m, rng, **shape)
                residues = [[T.entry(k, i).coefficient(unit)
                             for i in range(1, m + 1)]
                            for k in range(1, m + 1) for unit in self.UNITS]
                reports = [TorReport(*fields)
                           for fields in _trim_reports(T, m)]
                assert [rep.t for rep in reports] == list(range(1, m + 1))
                for t, rep in enumerate(reports, start=1):
                    pivots = oracle_pivots(residues[:3 * t], field.char)
                    assert rep.rank_q1 == len(pivots), (field, m, shape, t)
                    assert rep.p == sum(1 for col in pivots if col >= t)
                    assert rep == classify(T, t)

    def test_prefix_of_a_shorter_run(self):
        T = report_matrix("QQ", 7)
        assert list(_trim_reports(T, 4)) == list(_trim_reports(T, 7))[:4]


class TestRref:
    # outputs frozen before rref was rebuilt on linalg.insert_row
    def test_prime_field_with_zero_rows(self):
        rows = [[0, 2, 4, 1, 0, 3], [0, 0, 0, 0, 0, 0], [0, 4, 3, 2, 0, 1],
                [0, 1, 0, 3, 4, 2], [0, 3, 1, 0, 2, 4]]
        assert rref(PrimeField(5), rows) == (
            [(0, 1, 0, 0, 3, 1), (0, 0, 1, 0, 3, 1), (0, 0, 0, 1, 2, 2),
             (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0)], (1, 2, 3))

    def test_rationals_with_zero_rows(self):
        F = Fraction
        rows = [[F(0), F(2), F(-1, 3), F(1)], [F(0), F(4), F(-2, 3), F(2)],
                [F(0), F(0), F(0), F(0)], [F(1), F(1, 2), F(0), F(-3)],
                [F(0), F(0), F(5), F(1)]]
        zero = (F(0),) * 4
        assert rref(QQ, rows) == (
            [(F(1), F(0), F(0), F(-49, 15)), (F(0), F(1), F(0), F(8, 15)),
             (F(0), F(0), F(1), F(1, 5)), zero, zero], (0, 1, 2))

    def test_empty_and_zero(self):
        assert rref(QQ, []) == ([], ())
        assert rref(PrimeField(2), [[0, 0], [0, 0]]) == \
            ([(0, 0), (0, 0)], ())


def _packed(row):
    return sum(v << c for c, v in enumerate(row))


def _f2_batches():
    # random 0/1 rows of every width up to 64, each batch with a zero row
    # and a repeated row, then the scan's own residue rows over F2: Q1 and
    # the certificate's matrix at every point
    rng = random.Random(2)
    for width in range(1, 65):
        rows = [[int(rng.random() < rng.choice((0.1, 0.5, 0.9)))
                 for _ in range(width)]
                for _ in range(rng.randint(1, 12))]
        rows.insert(rng.randrange(len(rows) + 1), [0] * width)
        rows.insert(rng.randrange(len(rows) + 1), rng.choice(rows))
        yield rows
    ring = PolyRing(PrimeField(2))
    for m in (7, 13, 21):
        T = _random_skew(ring, m, random.Random(m), 1, 2)
        qbar = _residue_q1(T, m)
        assert _residue_q1(T, m, packed=True) == [_packed(row) for row in qbar]
        yield qbar
        for point in POINTS:
            rows = [residues_at([f.terms for f in row], point, 2)
                    for row in T.rows]
            assert [residue_bits([f.terms for f in row], point)
                    for row in T.rows] == [_packed(row) for row in rows]
            yield rows


class TestInsertBits:
    def test_against_insert_row(self):
        # every step returns the dense step's value and leaves its basis,
        # packed, and the leads are the reduced echelon form's pivots;
        # insert_row hands a packed row to insert_bits
        for rows in _f2_batches():
            dense, packed, handed = {}, {}, {}
            for row in rows:
                lead = insert_row(dense, row, 2)
                assert insert_bits(packed, _packed(row)) == lead
                assert insert_row(handed, _packed(row), 2) == lead
                assert packed == handed == {
                    col: _packed(other) for col, other in dense.items()}
            assert len(packed) == oracle_rank(rows, 2)
            assert tuple(sorted(packed)) == oracle_pivots(rows, 2)


class TestTorProducts:
    def test_example_degree_one_image(self):
        tab = tor_products(trimmed_resolution(example_matrix(), 1))
        one = tab.field.of(1)
        assert tab.has_degree_one_products()
        assert tab.lookup("e2", "e3") == (("v1_13", one),)
        assert tab.lookup("e3", "e2") == (("v1_13", one),)
        assert not tab.is_diagonal_pairing()
        # the pairing cells survive alongside the obstruction
        assert tab.g_pairing_indices() == (2, 3)
        assert tab.basis1 == ("e2", "e3", "e4", "e5", "u1_2")
        assert tab.basis2 == ("f1", "f2", "f3", "v1_12", "v1_13", "v1_23")
        assert tab.basis3 == ("g", "w1")

    def test_lookup_validation_and_order(self):
        tab = tor_products(trimmed_resolution(example_matrix(), 1))
        assert tab.lookup("f2", "e2") == tab.lookup("e2", "f2")
        assert tab.lookup("e2", "e4") == ()
        with pytest.raises(ArgumentError):
            tab.lookup("e1", "e2")
        with pytest.raises(ArgumentError):
            tab.lookup("g", "e2")

    def test_full_trim_empty(self):
        tab = tor_products(trimmed_resolution(example_matrix(), 5))
        assert not tab.entries
        assert tab.is_diagonal_pairing()

    def test_large_sizes_diagonal(self):
        rng = random.Random(21)
        for m, t in ((7, 1), (7, 3), (9, 4)):
            T = random_skew(R5, m, rng, degree=1)
            rep = classify(T, t)
            tab = tor_products(trimmed_resolution(T, t))
            assert tab.is_diagonal_pairing()
            assert len(tab.g_pairing_indices()) == rep.r
            assert len(tab.basis1) == rep.mu
            assert len(tab.basis2) == rep.format[2]

    def test_size_five_iff(self):
        rng = random.Random(22)
        for p in (2, 3):
            ring = PolyRing(PrimeField(p))
            for _ in range(6):
                T = random_skew(ring, 5, rng, degree=rng.choice((1, 2)),
                                density=0.8)
                for t in range(1, 6):
                    rep = classify(T, t)
                    tab = tor_products(trimmed_resolution(T, t))
                    assert (rep.r is not None) == \
                        (not tab.has_degree_one_products()), (p, t)

    def test_split_column_component_raises(self):
        # a degree-1 product is a cycle, so a table with a unit on a pivot
        # column of one is refused, also when asserts are off
        T = _random_skew(R3, 7, random.Random(0), 1, 1)
        td = trimmed_resolution(T, 2)
        table = full_table(td)
        pivots = {}
        for row in _residue_q1(T, 2):
            insert_row(pivots, row, 3)
        pair = table.pairs()[0]
        assert pair[0].degree == pair[1].degree == 1
        table.entries[pair] = table.entries[pair] + ChainElement.of(
            R3, BasisElement.F(min(pivots) + 1))
        with pytest.raises(ArgumentError, match="^degree-1 product with a "
                           "component on a split column$"):
            tor_products(td, table)

    def test_scalars_reduced_mod_p(self):
        # e3*e4 sums to 3 = 0 in F3 here, so it is no product; every stored
        # scalar over F_p is a canonical unit
        rng = random.Random(1)
        m, d = rng.choice((5, 7)), rng.choice((1, 2))
        T = _random_skew(R3, m, rng, 1, d)
        assert tor_products(trimmed_resolution(T, 1)).lookup("e3", "e4") \
            == ()
        rng = random.Random(23)
        for p in (2, 3, 5, 7):
            ring = PolyRing(PrimeField(p))
            for _ in range(4):
                T = _random_skew(ring, 5, rng, 1, rng.choice((1, 2)))
                for t in range(1, 6):
                    tab = tor_products(trimmed_resolution(T, t))
                    assert all(isinstance(c, int) and 1 <= c < p
                               for cells in tab.entries.values()
                               for _, c in cells), (p, t)

    @pytest.mark.parametrize("name,m", [("F3", 5), ("F3", 7), ("QQ", 5),
                                        ("QQ", 7)])
    def test_no_coordinates_built(self, name, m, monkeypatch):
        # the residues are read off the kept recipes: no recipe cell, of
        # degree (1, 1) or (1, 2), has its coordinates built
        T = report_matrix(name, m)
        tds = [trimmed_resolution(T, t) for t in range(1, m + 1)]
        expected = [tor_products(td).to_document() for td in tds]
        tables = [full_table(td) for td in tds]

        def forbidden(cell):
            raise AssertionError("built the coordinates of a product cell")

        monkeypatch.setattr(dgproducts, "_built", forbidden)
        assert [tor_products(td, table).to_document()
                for td, table in zip(tds, tables)] == expected

    def test_cells_found_by_identity(self, monkeypatch):
        # the representatives hold the complex's own basis elements, so no
        # table lookup compares two equal elements through __eq__
        td = trimmed_resolution(report_matrix("F3", 7), 3)
        table = full_table(td)
        eq, calls = BasisElement.__eq__, []

        def counting(self, other):
            if sys._getframe(1).f_code is ProductTable.lookup.__code__:
                calls.append((self, other))
            return eq(self, other)

        monkeypatch.setattr(BasisElement, "__eq__", counting)
        assert tor_products(td, table).entries
        assert not calls

    @pytest.mark.parametrize("name,m", sorted(TOR_DIGESTS))
    def test_golden_documents(self, name, m):
        T = report_matrix(name, m)
        h = hashlib.sha256()
        for t in range(1, m + 1):
            doc = tor_products(trimmed_resolution(T, t)).to_document()
            h.update(json.dumps(doc).encode())
        assert h.hexdigest() == TOR_DIGESTS[(name, m)]

    def test_document(self):
        tab = tor_products(trimmed_resolution(example_matrix(), 1))
        doc = tab.to_document()
        assert doc["basis3"] == ["g", "w1"]
        by_pair = {(rec["left"], rec["right"]): rec["value"]
                   for rec in doc["products"]}
        assert by_pair[("e2", "e3")] == [["v1_13", "1"]]


class TestConjectures:
    def test_random_class_g_reports(self):
        rng = random.Random(31)
        for m in (5, 7, 9):
            T = random_skew(R3, m, rng, degree=1)
            for t in range(1, m + 1):
                rep = classify(T, t)
                if rep.r is None:
                    continue
                conj = check_conjectures(rep)
                assert conj.all_passed, (m, t, conj.verdicts())
                if t == 1:
                    assert rep.rank_q1 == rep.p
                    assert rep.r == rep.mu - 3

    def test_not_applicable(self):
        rep = classify(example_matrix(), 1)
        with pytest.raises(NotApplicable):
            check_conjectures(rep)

    def test_synthetic_forbidden_spread(self):
        # mu - r = 3t - 1 must be flagged
        rep = TorReport(m=9, t=2, rank_q1=2, p=1, format=(1, 11, 13, 3),
                        mu=11, r=6, class_="G(6)")
        conj = check_conjectures(rep)
        assert not conj.spread_off_forbidden
        assert not conj.all_passed
        assert "FAIL" in " ".join(conj.summary_lines())

    def test_verdict_fields(self):
        conj = ConjectureReport(1, 5, 2, True, True, True, True)
        assert conj.all_passed
        assert set(conj.verdicts()) == {
            "single_trim_exact", "multi_trim_bound", "spread_in_range",
            "spread_off_forbidden"}


class TestConjugateTrimSet:
    def test_identity(self):
        T = example_matrix()
        M, perm = conjugate_trim_set(T, {1, 2})
        assert perm == (1, 2, 3, 4, 5)
        assert M == T

    def test_example_single_generator(self):
        T = example_matrix()
        M, perm = conjugate_trim_set(T, {3})
        assert perm == (2, 3, 1, 4, 5)
        assert pfaffian_drop(M, (1,)) == T.ring.from_string("x*y + z^2")

    def test_random_preserves_pfaffians(self):
        rng = random.Random(41)
        T = random_skew(R5, 7, rng, degree=1)
        M, perm = conjugate_trim_set(T, {6, 2, 4})
        assert sorted(perm) == list(range(1, 8))
        for i in range(1, 8):
            for j in range(1, 8):
                assert M.entry(perm[i - 1], perm[j - 1]) == T.entry(i, j)
        for i in range(1, 8):
            q = pfaffian_drop(T, (i,))
            moved = pfaffian_drop(M, (perm[i - 1],))
            assert moved == q or moved == -q, i

    def test_validation(self):
        T = example_matrix()
        with pytest.raises(ArgumentError):
            conjugate_trim_set(T, set())
        with pytest.raises(ArgumentError):
            conjugate_trim_set(T, {0, 2})
        with pytest.raises(ArgumentError):
            conjugate_trim_set(T, {6})
