"""Resolution construction against the printed 5x5 golden data, diagram
verification, and minimization."""

import dataclasses
import random

import pytest

from pftrim.errors import ArgumentError, MinimizationNotPolynomial
from pftrim.linalg import rref
from pftrim.pfaffian import SkewMatrix, pfaffian_drop, sigma3
from pftrim.polyring import PolyRing, PrimeField, QQ
from pftrim.resolution import BasisElement, ChainComplex, gorenstein_resolution, \
    minimize, signed_v, trimmed_resolution, verify_diagrams

from oracles import random_skew

from test_pfaffian import example_matrix


R2 = PolyRing(PrimeField(2))
RQ = PolyRing(QQ)


def mat_of(ring, rows):
    return tuple(tuple(ring.from_string(s) for s in row) for row in rows)


class TestBasisElement:
    def test_labels(self):
        assert BasisElement.E(3).label == "e3"
        assert BasisElement.U(2, 3).label == "u2_3"
        assert BasisElement.F(1).label == "f1"
        assert BasisElement.V(2, 1, 3).label == "v2_13"
        assert BasisElement.W(1).label == "w1"
        assert BasisElement.G().label == "g"
        assert BasisElement.ONE().label == "1"

    def test_degrees(self):
        assert BasisElement.E(1).degree == BasisElement.U(1, 1).degree == 1
        assert BasisElement.F(1).degree == BasisElement.V(1, 2, 3).degree == 2
        assert BasisElement.G().degree == BasisElement.W(1).degree == 3
        assert BasisElement.ONE().degree == 0

    def test_validation(self):
        with pytest.raises(ArgumentError):
            BasisElement.V(1, 2, 2)
        with pytest.raises(ArgumentError):
            BasisElement.V(1, 3, 1)
        with pytest.raises(ArgumentError):
            BasisElement.U(1, 4)
        with pytest.raises(ArgumentError):
            BasisElement.E(0)

    def test_signed_v(self):
        sign, elem = signed_v(1, 3, 1)
        assert sign == -1 and elem == BasisElement.V(1, 1, 3)
        assert signed_v(1, 1, 3) == (1, BasisElement.V(1, 1, 3))
        assert signed_v(1, 2, 2) == (0, None)


class TestGorenstein:
    def test_example_matrix(self):
        T = example_matrix()
        F = gorenstein_resolution(T)
        assert F.ranks == (1, 5, 5, 1)
        assert F.differential(1) == mat_of(R2, [["y^2", "y*z", "x*y + z^2", "x*z", "x^2"]])
        assert F.differential(2) == T.rows
        assert F.differential(3) == tuple(
            (entry,) for entry in F.differential(1)[0])
        assert F.composes_to_zero()
        assert F.labels(1) == ("e1", "e2", "e3", "e4", "e5")

    def test_random_composes(self):
        rng = random.Random(3)
        for m in (5, 7):
            T = random_skew(PolyRing(PrimeField(3)), m, rng, degree=1)
            F = gorenstein_resolution(T)
            assert F.composes_to_zero()
            assert F.is_minimal()

    def test_degree_one_entry_expansions(self):
        # each entry of the first differential can be recovered by expanding
        # along the matrix row of any other index, with the three-index sign
        rng = random.Random(4)
        ring = PolyRing(PrimeField(7))
        T = random_skew(ring, 7, rng, degree=1)
        ys = gorenstein_resolution(T).differential(1)[0]
        for i in range(1, 8):
            for k in range(1, 8):
                if k == i:
                    continue
                acc = ring.zero
                for r in range(1, 8):
                    s3 = sigma3(i, k, r)
                    if s3 == 0:
                        continue
                    term = T.entry(k, r) * pfaffian_drop(T, (i, k, r))
                    acc = acc + term if s3 > 0 else acc - term
                assert acc == ys[i - 1], (i, k)


class TestTrimmed:
    def test_example_golden(self):
        td = trimmed_resolution(example_matrix(), 1)
        C = td.complex
        assert C.ranks == (1, 7, 8, 2)
        assert C.labels(1) == ("e2", "e3", "e4", "e5", "u1_1", "u1_2", "u1_3")
        assert C.labels(2) == ("f1", "f2", "f3", "f4", "f5",
                               "v1_12", "v1_13", "v1_23")
        assert C.labels(3) == ("g", "w1")
        assert C.differential(1) == mat_of(
            R2, [["y*z", "x*y + z^2", "x*z", "x^2", "x*y^2", "y^3", "y^2*z"]])
        assert C.differential(2) == mat_of(R2, [
            ["0", "0", "x", "z", "y", "0", "0", "0"],
            ["0", "x", "0", "y", "0", "0", "0", "0"],
            ["x", "z", "y", "0", "0", "0", "0", "0"],
            ["z", "y", "0", "0", "0", "0", "0", "0"],
            ["0", "0", "0", "1", "0", "y", "z", "0"],
            ["0", "0", "0", "0", "0", "x", "0", "z"],
            ["0", "0", "0", "0", "1", "0", "x", "y"],
        ])
        assert C.differential(3) == mat_of(R2, [
            ["y^2", "0"], ["y*z", "0"], ["x*y + z^2", "0"], ["x*z", "0"],
            ["x^2", "0"], ["0", "z"], ["x", "y"], ["0", "x"],
        ])
        assert C.composes_to_zero()

    def test_example_connecting_maps(self):
        td = trimmed_resolution(example_matrix(), 1)
        assert td.Q1 == mat_of(R2, [["0", "0", "0", "1", "0"],
                                    ["0", "0", "0", "0", "0"],
                                    ["0", "0", "0", "0", "1"]])
        assert td.Q2 == mat_of(R2, [["0"], ["x"], ["0"]])
        assert td.dk[(1, 1, 3)] == R2.gens[0]
        assert td.dk[(1, 1, 2)].is_zero and td.dk[(1, 2, 3)].is_zero

    def test_c_table(self):
        # only trimmed rows are split, so trim all five to see every one
        td = trimmed_resolution(example_matrix(), 5)
        x, y, z = R2.gens
        # splitting T[j][i] over the variables, checked via reconstruction
        for i in range(1, 6):
            for j in range(1, 6):
                c1, c2, c3 = td.c[(i, j)]
                assert c1 * x + c2 * y + c3 * z == td.T.entry(j, i)
        assert td.c[(4, 1)] == (R2.one, R2.zero, R2.zero)
        assert td.c[(5, 1)] == (R2.zero, R2.zero, R2.one)

    def test_splits_only_trimmed_rows(self):
        T = example_matrix()
        for t in (1, 3, 5):
            td = trimmed_resolution(T, t)
            assert set(td.c) == {(i, k) for i in range(1, 6)
                                 for k in range(1, t + 1)}
            assert set(td.dk) == {(k, a, b) for k in range(1, t + 1)
                                  for a, b in ((1, 2), (1, 3), (2, 3))}

    def test_dk_matches_direct_double_sum(self):
        # d^k_ab summed term by term over (i, r), as the definition reads
        rng = random.Random(9)
        for ring in (PolyRing(PrimeField(3)), RQ):
            T = random_skew(ring, 7, rng, degree=1, density=0.6)
            for t in (1, 4, 7):
                td = trimmed_resolution(T, t)
                for (k, a, b), value in td.dk.items():
                    acc = ring.zero
                    for i in range(1, 8):
                        for r in range(1, 8):
                            sign = sigma3(i, k, r)
                            if sign:
                                acc = acc + (td.c[(i, k)][b - 1] *
                                             td.c[(r, k)][a - 1] *
                                             pfaffian_drop(T, (i, k, r))
                                             ).scaled(sign)
                    assert value == acc, (ring, t, k, a, b)

    def test_trim_count_validation(self):
        T = example_matrix()
        for bad in (0, 6, -1, "1"):
            with pytest.raises(ArgumentError):
                trimmed_resolution(T, bad)

    def test_full_trim(self):
        T = example_matrix()
        td = trimmed_resolution(T, 5)
        C = td.complex
        assert C.ranks == (1, 15, 20, 6)
        assert all(elem.kind == "u" for elem in C.basis(1))
        x, y, z = R2.gens
        gens = T.generators()
        for k in range(1, 6):
            for idx, var in enumerate((x, y, z)):
                col = C.index_of(1, BasisElement.U(k, idx + 1))
                assert C.differential(1)[0][col] == -(gens[k - 1] * var)
        assert C.composes_to_zero()

    def test_zero_matrix(self):
        T = SkewMatrix(RQ, [[RQ.zero] * 5 for _ in range(5)])
        td = trimmed_resolution(T, 2)
        assert td.complex.composes_to_zero()
        assert verify_diagrams(td).all_passed

    def test_changed_d2_entry_fails_composition(self):
        C = trimmed_resolution(example_matrix(), 1).complex
        assert C.composes_to_zero()
        assert not change_d2_entry(C).composes_to_zero()

    def test_random_composes_all_t(self):
        rng = random.Random(7)
        for m in (5, 7):
            T = random_skew(PolyRing(PrimeField(5)), m, rng, degree=1)
            for t in range(1, m + 1):
                td = trimmed_resolution(T, t)
                assert td.complex.composes_to_zero(), (m, t)


def change_d2_entry(complex_):
    """The complex with its first boundary-2 entry raised by the first
    variable, so that boundary 1 after boundary 2 no longer vanishes."""
    d2 = [list(row) for row in complex_.differential(2)]
    d2[0][0] = d2[0][0] + complex_.ring.gens[0]
    return ChainComplex(complex_.ring, complex_.bases,
                        (complex_.differential(1), d2, complex_.differential(3)))


class TestDiagrams:
    def test_example_passes(self):
        report = verify_diagrams(trimmed_resolution(example_matrix(), 1))
        assert report.all_passed
        assert [c.name for c in report.checks] == ["q1_triangle", "q2_square"]

    def test_random_passes(self):
        rng = random.Random(13)
        for m in (5, 7):
            T = random_skew(PolyRing(PrimeField(3)), m, rng, degree=2)
            for t in (1, 2, m):
                assert verify_diagrams(trimmed_resolution(T, t)).all_passed

    def test_zeroed_q2_fails(self):
        td = trimmed_resolution(example_matrix(), 1)
        zero_q2 = tuple((R2.zero,) for _ in td.Q2)
        tampered = dataclasses.replace(td, Q2=zero_q2)
        report = verify_diagrams(tampered)
        assert not report.all_passed
        assert {c.name for c in report.failures} == {"q2_square"}

    def test_zeroed_q1_fails(self):
        td = trimmed_resolution(example_matrix(), 1)
        zero_q1 = tuple((R2.zero,) * 5 for _ in td.Q1)
        tampered = dataclasses.replace(td, Q1=zero_q1)
        report = verify_diagrams(tampered)
        assert not report.all_passed
        assert any(c.name == "q1_triangle" for c in report.failures)


class TestMinimize:
    def test_example_ranks(self):
        td = trimmed_resolution(example_matrix(), 1)
        minimal = minimize(td.complex)
        assert minimal.ranks == (1, 5, 6, 2)
        assert minimal.is_minimal()
        assert minimal.composes_to_zero()
        ideal_row = minimal.differential(1)[0]
        assert set(map(str, ideal_row)) == {"y*z", "x*y + z^2", "x*z", "x^2", "y^3"}

    def test_already_minimal_unchanged(self):
        F = gorenstein_resolution(example_matrix())
        minimal = minimize(F)
        assert minimal.ranks == F.ranks
        assert minimal.differentials == F.differentials

    def test_identity_block_cancels(self):
        C = ChainComplex(RQ, ((BasisElement.ONE(),), (BasisElement.E(1),),
                              (BasisElement.F(1),), ()),
                         (((RQ.zero,),), ((RQ.one,),), ((),)))
        minimal = minimize(C)
        assert minimal.ranks == (1, 0, 0, 0)

    def test_rank_formula_consistency(self):
        rng = random.Random(19)
        field = PrimeField(3)
        ring = PolyRing(field)
        for m in (5, 7):
            T = random_skew(ring, m, rng, degree=1)
            for t in range(1, m + 1):
                td = trimmed_resolution(T, t)
                residues = [[entry.constant_term() for entry in row]
                            for row in td.Q1]
                rank = len(rref(field, residues)[1])
                minimal = minimize(td.complex)
                assert minimal.ranks == \
                    (1, m + 2 * t - rank, m + 3 * t - rank, 1 + t), (m, t)

    def test_fraction_tier_success(self):
        x, y, _ = RQ.gens
        one = RQ.one
        C = ChainComplex(
            RQ,
            ((BasisElement.ONE(),), (BasisElement.E(1), BasisElement.E(2)),
             (BasisElement.F(1), BasisElement.F(2)), ()),
            (((RQ.zero, RQ.zero),),
             ((one + y, y * (one + y)), (x, x * x)),
             ((), ())))
        minimal = minimize(C)
        assert minimal.ranks == (1, 1, 1, 0)
        assert minimal.differential(2) == ((x * x - x * y,),)

    def test_fraction_tier_failure(self):
        x, y, _ = RQ.gens
        one = RQ.one
        C = ChainComplex(
            RQ,
            ((BasisElement.ONE(),), (BasisElement.E(1), BasisElement.E(2)),
             (BasisElement.F(1), BasisElement.F(2)), ()),
            (((RQ.zero, RQ.zero),),
             ((one + y, y), (x, x * x)),
             ((), ())))
        with pytest.raises(MinimizationNotPolynomial):
            minimize(C)


class TestDocument:
    def test_structure(self):
        td = trimmed_resolution(example_matrix(), 1)
        doc = td.complex.to_document()
        assert doc["ranks"] == [1, 7, 8, 2]
        assert doc["basis"]["1"][4] == "u1_1"
        assert doc["differentials"]["1"][0][0] == "y*z"
        parsed = R2.from_string(doc["differentials"]["2"][0][2])
        assert parsed == R2.gens[0]
