"""Resolution construction against the printed 5x5 golden data, diagram
verification, and minimization."""

import copy
import dataclasses
import hashlib
import json
import os
import pickle
import random
import subprocess
import sys

import pytest

from pftrim.classify import classify
from pftrim.errors import ArgumentError, MinimizationNotPolynomial
from pftrim.families import _random_skew
from pftrim import linalg
from pftrim.linalg import rref
from pftrim.pfaffian import SkewMatrix, pfaffian_drop, sigma3
from pftrim.polyring import Polynomial, PolyRing, PrimeField, QQ
from pftrim.resolution import BasisElement, ChainComplex, _selfdual_part, \
    gorenstein_resolution, minimize, signed_v, trimmed_resolution, \
    verify_diagrams

from oracles import random_skew

from test_pfaffian import example_matrix


R2 = PolyRing(PrimeField(2))
RQ = PolyRing(QQ)
MIXED_FIELDS = {"F2": PrimeField(2), "F3": PrimeField(3),
                "F5": PrimeField(5), "QQ": QQ}


def mat_of(ring, rows):
    return tuple(tuple(ring.from_string(s) for s in row) for row in rows)


def is_minimal(C):
    """Whether no differential entry of C has a nonzero constant term."""
    return not any(entry.constant_term() for mat in C.differentials
                   for row in mat for entry in row)


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

    def test_rebuilt_element_finds_its_entry(self):
        # the hash is computed once per element; a copy or an unpickled
        # element hashes as a freshly built equal one
        elem = BasisElement.V(2, 1, 3)
        table = {elem: "v"}
        for rebuilt in (pickle.loads(pickle.dumps(elem)), copy.copy(elem),
                        copy.deepcopy(elem), dataclasses.replace(elem),
                        BasisElement("v", (2, 1, 3))):
            assert rebuilt == elem and hash(rebuilt) == hash(elem)
            assert table[rebuilt] == "v"

    def test_hash_not_carried_to_another_process(self):
        # string hashes differ between processes, so an element unpickled
        # elsewhere must hash there as an element built there
        payload = pickle.dumps([BasisElement.U(1, 2), BasisElement.G()])
        script = ("import pickle, sys\n"
                  "from pftrim.resolution import BasisElement as B\n"
                  "u, g = pickle.loads(sys.stdin.buffer.read())\n"
                  "table = {B.U(1, 2): 'u', B.G(): 'g'}\n"
                  "print(table[u] + table[g], hash(u) == hash(B.U(1, 2)))\n")
        env = dict(os.environ, PYTHONHASHSEED="12345",
                   PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", script], input=payload,
                              env=env, capture_output=True, timeout=60)
        assert done.stdout.decode().split() == ["ug", "True"], done.stderr

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
            assert is_minimal(F)

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

    def test_composition_computed_once(self, monkeypatch):
        td = trimmed_resolution(random_skew(R2, 7, random.Random(3), degree=1), 2)
        calls = []
        mat_mul = linalg.mat_mul
        monkeypatch.setattr(linalg, "mat_mul",
                            lambda *args: calls.append(1) or mat_mul(*args))
        assert td.complex.composes_to_zero() and td.complex.composes_to_zero()
        assert len(calls) == 2
        broken = change_d2_entry(td.complex)
        assert not broken.composes_to_zero() and not broken.composes_to_zero()
        assert len(calls) == 3

    def test_random_composes_all_t(self):
        rng = random.Random(7)
        for m in (5, 7):
            T = random_skew(PolyRing(PrimeField(5)), m, rng, degree=1)
            for t in range(1, m + 1):
                td = trimmed_resolution(T, t)
                assert td.complex.composes_to_zero(), (m, t)


class TestSelfdualSignLemma:
    """Copy k's correction constants sum the f-coordinates of e_i e_k off
    the pair-oriented ones, negated for i > k: e_i e_k = -e_k e_i term by
    term."""

    @pytest.mark.parametrize("name", sorted(MIXED_FIELDS))
    def test_swapped_pair_negates(self, name):
        ring = PolyRing(MIXED_FIELDS[name])
        rng = random.Random(f"sign-lemma/{name}")
        for m in (3, 5, 7, 9, 11):
            T = random_skew(ring, m, rng, degree=1, density=0.8)
            for i in range(1, m + 1):
                for k in range(1, m + 1):
                    if i != k:
                        assert [(-value).terms for value in
                                _selfdual_part(T, i, k)] == \
                            [value.terms for value in
                             _selfdual_part(T, k, i)], (m, i, k)


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
        assert is_minimal(minimal)
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
        minimal = minimize(unit_pivot_complex(y * (RQ.one + y)))
        assert minimal.ranks == (1, 1, 1, 0)
        assert minimal.differential(2) == ((x * x - x * y,),)

    def test_fraction_tier_failure(self):
        _, y, _ = RQ.gens
        with pytest.raises(MinimizationNotPolynomial) as info:
            minimize(unit_pivot_complex(y))
        # one short line naming the entry, not the fraction
        message = str(info.value)
        assert "\n" not in message and len(message) < 200
        assert "row e2" in message and "column f2" in message

    def test_mixed_degree_digests(self):
        # outputs frozen before the constant and local-unit pivots shared
        # one elimination loop
        unit_pivots = raised = 0
        for (name, lo, hi, m), digest in MINIMIZE_DIGESTS.items():
            outcomes = []
            for _, _, C in mixed_degree_complexes(name, lo, hi, m, range(2)):
                unit_pivots += needs_unit_pivot(C)
                outcomes.append(minimized_outcome(C))
            raised += outcomes.count("raise")
            assert hashlib.sha256(json.dumps(outcomes).encode()).hexdigest() \
                == digest, (name, lo, hi, m)
        assert unit_pivots >= 20 and raised >= 10

    def test_no_product_with_a_zero_pivot_row_entry(self, monkeypatch):
        # an entry whose pivot-row entry is zero is left as it is (times
        # the pivot for a non-constant one): no product by zero is formed
        products = []
        mul = Polynomial.__mul__

        def counting(a, b):
            products.append(b.is_zero)
            return mul(a, b)

        unit_pivots = 0
        for _, _, C in mixed_degree_complexes("F3", 1, 2, 5, range(2)):
            expected = minimized_outcome(C)
            unit_pivots += needs_unit_pivot(C)
            monkeypatch.setattr(Polynomial, "__mul__", counting)
            assert minimized_outcome(C) == expected
            monkeypatch.undo()
        assert unit_pivots and products
        assert products.count(True) == 0

    @pytest.mark.parametrize("name", sorted(MIXED_FIELDS))
    def test_local_unit_pivots(self, name):
        succeeded = 0
        for m in (5, 7):
            for T, t, C in mixed_degree_complexes(name, 1, 2, m, range(2, 6)):
                try:
                    minimal = minimize(C)
                except MinimizationNotPolynomial:
                    continue
                assert is_minimal(minimal) and minimal.composes_to_zero()
                assert minimal.ranks == classify(T, t).format, (m, t)
                succeeded += 1
        assert succeeded


def unit_pivot_complex(top_right):
    """Boundary 2 = [[1 + y, top_right], [x, x^2]] over QQ, between bases
    (e1, e2) and (f1, f2); its one unit entry 1 + y is not a constant."""
    x, y, _ = RQ.gens
    return ChainComplex(
        RQ,
        ((BasisElement.ONE(),), (BasisElement.E(1), BasisElement.E(2)),
         (BasisElement.F(1), BasisElement.F(2)), ()),
        (((RQ.zero, RQ.zero),),
         ((RQ.one + y, top_right), (x, x * x)),
         ((), ())))


def mixed_degree_complexes(name, lo, hi, m, seeds):
    """(T, t, trimmed complex) for every trim of seeded random matrices
    whose entries have degrees lo..hi; mixed degrees give boundary entries
    that are local units without being constants."""
    ring = PolyRing(MIXED_FIELDS[name])
    for seed in seeds:
        T = _random_skew(ring, m, random.Random(f"{name}-{lo}{hi}-{m}-{seed}"),
                         lo, hi)
        for t in range(1, m + 1):
            yield T, t, trimmed_resolution(T, t).complex


def minimized_outcome(C):
    """Basis labels and boundary strings of minimize(C), or "raise"."""
    try:
        minimal = minimize(C)
    except MinimizationNotPolynomial:
        return "raise"
    return [[list(minimal.labels(d)) for d in range(4)],
            [[[str(entry) for entry in row] for row in minimal.differential(d)]
             for d in (1, 2, 3)]]


def needs_unit_pivot(C):
    """Whether splitting off constant pivots alone leaves a boundary entry
    with a nonzero constant term, so that minimizing C has to pivot on a
    non-constant local unit."""
    field = C.ring.field
    mats = {d: [list(row) for row in C.differential(d)] for d in (1, 2, 3)}
    while True:
        spot = next(((d, r, c) for d in (1, 2, 3)
                     for r, row in enumerate(mats[d])
                     for c, entry in enumerate(row)
                     if entry.terms and entry.is_constant()), None)
        if spot is None:
            return any(entry.constant_term() for mat in mats.values()
                       for row in mat for entry in row)
        d, r0, c0 = spot
        pivot_row = mats[d][r0]
        inv = field.inv(pivot_row[c0].constant_term())
        mats[d] = [[entry - row[c0].scaled(inv) * pivot_row[c]
                    for c, entry in enumerate(row) if c != c0]
                   for r, row in enumerate(mats[d]) if r != r0]
        if d < 3:
            mats[d + 1] = [row for r, row in enumerate(mats[d + 1]) if r != c0]
        if d > 1:
            mats[d - 1] = [[entry for c, entry in enumerate(row) if c != r0]
                           for row in mats[d - 1]]


#: sha256 of the JSON list of minimized_outcome over
#: mixed_degree_complexes(name, lo, hi, m, range(2)).
MINIMIZE_DIGESTS = {
    ("F2", 1, 2, 5): "31ca34518862142be41f65c0524146c232a2ee69f28e57021df9a49869768d71",
    ("F2", 1, 2, 7): "398d6d9d220dd9ea610e2f9524f85b34de749883e9f7cc1bbb23d4988fa73ef2",
    ("F2", 2, 2, 5): "6e8498a6b4db87b5b1dfb42a8f7e07ef7dc97695c10593d0bcbfe5f4393102d2",
    ("F2", 2, 2, 7): "edfce3f692228931b8efa56eb916c430a145b78ec5aeb1b13c017c1edf66f8fb",
    ("F3", 1, 2, 5): "1466771a47964912233397d0c885f89a1cd1f5237328a10e2a8edb6d4705ed7d",
    ("F3", 1, 2, 7): "829086aff752e7582679508f33ff92296bfb26b3e01c9d2eb75ddc54b1d5d637",
    ("F3", 2, 2, 5): "09a91c1e9c82c13615cfc8ff2936585f7847b5a625dae566a269686036ad6fdf",
    ("F3", 2, 2, 7): "9ce539f908bf07df135ec7c908e26713cd2958647570de2e977ce49d3b386fe5",
    ("F5", 1, 2, 5): "2f04aa166285f75e03a047cd8189253b4b976bfc7ccda56312062dc66f42b730",
    ("F5", 1, 2, 7): "4f08554ef16a8791864d7e9d31bde4936577a1857e2b778cf040f3617b514a6b",
    ("F5", 2, 2, 5): "3a8614c276be8d61a91803e487ab88beb28439106a25a04ce5d54b50dcc3b342",
    ("F5", 2, 2, 7): "e7dcbb1b65571481a5292afe02689912bcfb5aa4530b2c71b56fa71dc379a820",
    ("QQ", 1, 2, 5): "d6f50e70396e32814129bf8a825fe56e2894d4b6102e8441f9d21550dad60d10",
    ("QQ", 1, 2, 7): "398d6d9d220dd9ea610e2f9524f85b34de749883e9f7cc1bbb23d4988fa73ef2",
    ("QQ", 2, 2, 5): "e85b408696d9e6d54c299da2fd34051aba23bf1b11d5aceb5a07d2986c1edd33",
    ("QQ", 2, 2, 7): "84cfc31ca730717804b083144f2988836b4bcbe54cd380828d258b9746aef455",
}


class TestDocument:
    def test_structure(self):
        td = trimmed_resolution(example_matrix(), 1)
        doc = td.complex.to_document()
        assert doc["ranks"] == [1, 7, 8, 2]
        assert doc["basis"]["1"][4] == "u1_1"
        assert doc["differentials"]["1"][0][0] == "y*z"
        parsed = R2.from_string(doc["differentials"]["2"][0][2])
        assert parsed == R2.gens[0]
