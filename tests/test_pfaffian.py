"""Pfaffian engine and sign functions against the brute-force oracles,
plus skew-matrix validation and the five-identity checker."""

import hashlib
import itertools
import json
import random

import pytest

from pftrim.errors import ArgumentError, EntryNotInMaximalIdeal, UnsupportedSize
from pftrim.pfaffian import MAX_IDENTITY_SIZE, SkewMatrix, _expansion_sign, \
    check_identities, pfaffian_drop, pfaffian_keep, rearrange_sign, sigma3, \
    sigma5
from pftrim import polyring
from pftrim.polyring import PolyRing, PrimeField, QQ

from oracles import oracle_det, oracle_identity_report, oracle_pfaffian, \
    oracle_sign, random_skew


R2 = PolyRing(PrimeField(2))
R7 = PolyRing(PrimeField(7))
RQ = PolyRing(QQ)


def generic_skew(ring, m):
    """Skew matrix whose upper entries are distinct degree-one monomial
    multiples, so no accidental cancellation hides sign errors."""
    x, y, z = ring.gens
    gens = (x, y, z)
    upper = {}
    n = 0
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            upper[(i, j)] = gens[n % 3].scaled(n + 1) * gens[(n + n // 3) % 3]
            n += 1
    return SkewMatrix.from_upper(ring, m, upper)


def example_matrix(ring=None):
    """The fixed 5x5 matrix used across the golden tests."""
    ring = ring or R2
    return SkewMatrix.from_upper(ring, 5, {
        (1, 4): "x", (1, 5): "z",
        (2, 3): "x", (2, 4): "z", (2, 5): "y",
        (3, 4): "y",
    })


class TestSigns:
    def test_frozen_values(self):
        # values frozen from the bubble-sort oracle
        assert sigma3(1, 2, 3) == 1
        assert sigma3(2, 1, 3) == -1
        assert sigma3(1, 3, 2) == -1
        assert sigma5(1, 2, 3, 4, 5) == -1
        assert sigma5(1, 2, 3, 5, 4) == 1

    def test_repeats_vanish(self):
        assert sigma3(1, 1, 2) == 0
        assert sigma3(3, 2, 3) == 0
        assert sigma5(1, 2, 3, 4, 4) == 0
        assert sigma5(1, 2, 3, 1, 5) == 0

    @staticmethod
    def _sigma3_oracle(i, j, r, m):
        body = [v for v in range(1, m + 1) if v != i]
        target = [j, r] + [v for v in range(1, m + 1) if v not in (i, j, r)]
        s = oracle_sign(body, target)
        return s if i % 2 == 1 else -s

    @staticmethod
    def _sigma5_oracle(i, j, r, h, k, m):
        body = [v for v in range(1, m + 1) if v not in (i, j, r)]
        target = [k, h] + [v for v in range(1, m + 1) if v not in (i, j, r, k, h)]
        return oracle_sign(body, target)

    def test_sigma3_exhaustive_small(self):
        for m in (5, 7):
            for i in range(1, m + 1):
                for j in range(1, m + 1):
                    for r in range(1, m + 1):
                        if len({i, j, r}) == 3:
                            assert sigma3(i, j, r) == self._sigma3_oracle(i, j, r, m), \
                                (i, j, r, m)

    def test_sigma5_sampled(self):
        rng = random.Random(5)
        for m in (6, 7, 9):
            for _ in range(300):
                i, j, r, h, k = (rng.randint(1, m) for _ in range(5))
                if len({i, j, r, h, k}) < 5:
                    assert sigma5(i, j, r, h, k) == 0
                else:
                    assert sigma5(i, j, r, h, k) == \
                        self._sigma5_oracle(i, j, r, h, k, m), (i, j, r, h, k, m)

    def test_sigma3_relations(self):
        for i, j, r in ((1, 2, 3), (2, 5, 3), (4, 1, 6), (7, 3, 2)):
            assert sigma3(i, j, r) == -sigma3(j, i, r)
            assert sigma3(i, j, r) == sigma3(j, r, i) == sigma3(r, i, j)

    def test_sigma5_first_block_symmetric(self):
        for i, j, r in ((1, 2, 3), (3, 1, 2), (2, 3, 1), (3, 2, 1)):
            assert sigma5(i, j, r, 4, 5) == sigma5(1, 2, 3, 4, 5)

    def test_rearrange_sign(self):
        assert rearrange_sign((1, 2, 3), (1, 2, 3)) == 1
        assert rearrange_sign((1, 2, 3), (2, 1, 3)) == -1
        assert rearrange_sign((1, 2, 3), (3, 1, 2)) == 1
        assert rearrange_sign((1, 2, 3), (1, 2, 4)) == 0
        assert rearrange_sign((1, 1, 2), (1, 2, 1)) == 0
        assert rearrange_sign((), ()) == 1

    def test_rearrange_matches_oracle(self):
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randint(0, 7)
            src = rng.sample(range(1, 10), n)
            dst = src[:]
            rng.shuffle(dst)
            assert rearrange_sign(src, dst) == oracle_sign(src, dst)


class TestSignLemmas:
    """The sign facts that let check_identities evaluate each vanishing-sum
    and expansion verdict once per index set."""

    def test_sum5_vector_is_sorted_vector_up_to_sign(self):
        m = 13
        for quad in itertools.permutations(range(1, m + 1), 4):
            i, h, s, k = quad
            a, b, c, d = sorted(quad)
            ratios = set()
            for r in range(1, m + 1):
                ordered = sigma3(i, r, h) * sigma5(i, r, h, s, k)
                canonical = sigma3(a, r, b) * sigma5(a, r, b, c, d)
                assert (ordered == 0) == (canonical == 0), (quad, r)
                if ordered:
                    ratios.add(ordered * canonical)
            assert len(ratios) == 1, quad

    def test_sum3_swap_negates(self):
        for i, j, r in itertools.permutations(range(1, 14), 3):
            assert sigma3(j, i, r) == -sigma3(i, j, r), (i, j, r)

    def test_expansion_sign_is_rearrange_sign(self):
        m = 9
        for size in range(2, m + 1, 2):
            for subset in itertools.combinations(range(1, m + 1), size):
                for pb, b in enumerate(subset):
                    for pr, r in enumerate(subset):
                        if pr == pb:
                            continue
                        rest = tuple(v for v in subset if v not in (b, r))
                        assert _expansion_sign(pb, pr) == \
                            rearrange_sign(subset, (b, r) + rest), (subset, b, r)


class TestSkewMatrixValidation:
    def test_even_size_rejected(self):
        with pytest.raises(UnsupportedSize):
            SkewMatrix(RQ, [[RQ.zero] * 4 for _ in range(4)])

    def test_nonskew_rejected(self):
        x = RQ.gens[0]
        rows = [[RQ.zero, x, RQ.zero],
                [x, RQ.zero, RQ.zero],
                [RQ.zero, RQ.zero, RQ.zero]]
        with pytest.raises(ArgumentError, match=r"\(1,2\)"):
            SkewMatrix(RQ, rows)

    def test_nonzero_diagonal_rejected(self):
        x = RQ.gens[0]
        rows = [[x, RQ.zero, RQ.zero],
                [RQ.zero, RQ.zero, RQ.zero],
                [RQ.zero, RQ.zero, RQ.zero]]
        with pytest.raises(ArgumentError, match=r"\(1,1\)"):
            SkewMatrix(RQ, rows)

    def test_constant_term_rejected(self):
        x = RQ.gens[0]
        with pytest.raises(EntryNotInMaximalIdeal, match=r"\(1,3\)"):
            SkewMatrix.from_upper(RQ, 3, {(1, 3): x + 1})

    def test_from_upper_bad_key(self):
        with pytest.raises(ArgumentError):
            SkewMatrix.from_upper(RQ, 3, {(3, 1): "x"})
        with pytest.raises(ArgumentError):
            SkewMatrix.from_upper(RQ, 3, {(1, 4): "x"})

    @pytest.mark.parametrize("upper", [
        {(1, 2): None}, {(1, 2): ["x"]}, {(1, 2): object()}, {(1, 2): 0},
        {(1,): "x"}, {("a", 2): "x"}, {(True, 2): "x"}, {(1, 2.0): "x"},
        {(1, 2, 3): "x"}, {"12": "x"}],
        ids=["none", "list", "object", "int", "short-key", "str-index",
             "bool-index", "float-index", "long-key", "str-key"])
    def test_from_upper_refuses_bad_input(self, upper):
        # neither a raw TypeError or ValueError nor a matrix
        with pytest.raises(ArgumentError):
            SkewMatrix.from_upper(RQ, 3, upper)

    def test_from_upper_refuses_a_foreign_polynomial(self):
        with pytest.raises(ArgumentError, match=r"\(1,2\)"):
            SkewMatrix.from_upper(RQ, 3, {(1, 2): R7.gens[0]})

    def test_from_upper_refuses_a_non_integer_size(self):
        # True would build a size-1 matrix and 5.0 fail inside range()
        for bad in (True, 5.0, "5", None):
            with pytest.raises(ArgumentError, match="must be an integer"):
                SkewMatrix.from_upper(R7, bad, {})

    def test_from_upper_builds_skew(self):
        T = example_matrix(RQ)
        x = RQ.gens[0]
        assert T.entry(1, 4) == x
        assert T.entry(4, 1) == -x
        assert T.entry(1, 2).is_zero
        assert T.m == 5

    def test_upper_entries(self):
        T = example_matrix(RQ)
        keys = [key for key, _ in T.upper_entries()]
        assert keys == [(1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4)]

    def test_unchecked_skips_validation(self):
        x = RQ.gens[0]
        rows = [[RQ.zero, x, x], [x, RQ.zero, x], [x, x, RQ.zero]]
        T = SkewMatrix.unchecked(RQ, rows)
        assert T.entry(1, 2) == T.entry(2, 1) == x


class TestPfaffians:
    def test_trivial_cases(self):
        T = generic_skew(RQ, 5)
        assert pfaffian_keep(T, ()) == RQ.one
        assert pfaffian_keep(T, (2,)).is_zero
        assert pfaffian_keep(T, (1, 3, 5)).is_zero
        assert pfaffian_keep(T, (2, 4)) == T.entry(2, 4)

    def test_four_index_golden(self):
        T = generic_skew(RQ, 5)
        expected = T.entry(1, 2) * T.entry(3, 4) \
            - T.entry(1, 3) * T.entry(2, 4) \
            + T.entry(1, 4) * T.entry(2, 3)
        assert pfaffian_keep(T, (1, 2, 3, 4)) == expected

    def test_index_validation(self):
        T = generic_skew(RQ, 5)
        with pytest.raises(IndexError):
            pfaffian_keep(T, (2, 1))
        with pytest.raises(IndexError):
            pfaffian_keep(T, (1, 1))
        with pytest.raises(IndexError):
            pfaffian_keep(T, (0, 2))
        with pytest.raises(IndexError):
            pfaffian_keep(T, (1, 6))
        with pytest.raises(IndexError):
            pfaffian_drop(T, (6,))

    def test_boolean_indices_rejected(self):
        T = generic_skew(RQ, 5)
        for call, indices in ((pfaffian_drop, (True,)), (pfaffian_drop, (False, 3)),
                              (pfaffian_keep, (True, 2)), (pfaffian_keep, (False, 1))):
            with pytest.raises(IndexError, match="out of range"):
                call(T, indices)

    def test_drop_conventions(self):
        T = generic_skew(RQ, 5)
        assert pfaffian_drop(T, (2, 2)).is_zero
        assert pfaffian_drop(T, ()).is_zero
        assert pfaffian_drop(T, (1, 2)).is_zero
        assert pfaffian_drop(T, (5,)) == pfaffian_keep(T, (1, 2, 3, 4))
        assert pfaffian_drop(T, (2, 4, 5)) == pfaffian_keep(T, (1, 3))

    def test_matches_partition_oracle(self):
        rng = random.Random(23)
        for ring in (RQ, R7, R2):
            for m in (5, 7):
                T = random_skew(ring, m, rng, degree=1, homogeneous=False)
                for _ in range(12):
                    size = rng.choice((2, 4, 6))
                    subset = sorted(rng.sample(range(1, m + 1), min(size, m)))
                    assert pfaffian_keep(T, subset) == oracle_pfaffian(T, subset), \
                        (ring.field, m, subset)

    def test_square_is_determinant(self):
        rng = random.Random(29)
        for ring in (RQ, R7):
            T = random_skew(ring, 9, rng, degree=1, homogeneous=False, density=0.8)
            for size in (2, 4, 6):
                subset = sorted(rng.sample(range(1, 10), size))
                sub_rows = [[T.entry(i, j) for j in subset] for i in subset]
                pf = pfaffian_keep(T, subset)
                assert pf * pf == oracle_det(ring, sub_rows), (ring.field, subset)

    def test_square_is_determinant_size_eight(self):
        rng = random.Random(31)
        T = random_skew(R7, 9, rng, degree=1, terms=1)
        subset = list(range(1, 9))
        sub_rows = [[T.entry(i, j) for j in subset] for i in subset]
        pf = pfaffian_keep(T, subset)
        assert pf * pf == oracle_det(R7, sub_rows)

    def test_memo_consistency(self):
        rng = random.Random(37)
        T = random_skew(R7, 7, rng)
        warm = pfaffian_drop(T, (3,))
        fresh = SkewMatrix(R7, T.rows)
        assert pfaffian_drop(fresh, (3,)) == warm

    def test_generators_signs(self):
        T = generic_skew(RQ, 5)
        gens = T.generators()
        for i in range(1, 6):
            expected = pfaffian_drop(T, (i,))
            if i % 2 == 0:
                expected = -expected
            assert gens[i - 1] == expected

    def test_example_matrix_generators(self):
        T = example_matrix()
        x, y, z = R2.gens
        drops = [pfaffian_drop(T, (i,)) for i in range(1, 6)]
        assert drops == [y * y, y * z, x * y + z * z, x * z, x * x]


class TestPermuted:
    def test_identity_permutation(self):
        T = generic_skew(RQ, 5)
        assert T.permuted((1, 2, 3, 4, 5)) == T

    def test_entry_transport(self):
        T = generic_skew(RQ, 5)
        perm = (3, 1, 5, 2, 4)
        S = T.permuted(perm)
        for i in range(1, 6):
            for j in range(1, 6):
                assert S.entry(perm[i - 1], perm[j - 1]) == T.entry(i, j)

    def test_pfaffian_changes_by_sign_only(self):
        T = generic_skew(RQ, 5)
        perm = (2, 4, 1, 5, 3)
        S = T.permuted(perm)
        full_T = pfaffian_drop(T, (1,))
        moved = pfaffian_drop(S, (perm[0],))
        assert moved == full_T or moved == -full_T


class TestIdentities:
    def test_valid_matrices_pass(self):
        rng = random.Random(41)
        for T in (example_matrix(),
                  generic_skew(RQ, 5),
                  random_skew(PolyRing(PrimeField(5)), 7, rng, degree=2)):
            report = check_identities(T)
            assert report.all_passed, report.summary_lines()
            names = [c.name for c in report.checks]
            assert names == ["expansion", "drop1_expansion", "sum3_vanishing",
                             "drop3_expansion", "sum5_vanishing"]
            assert all(c.cases > 0 for c in report.checks)

    def test_symmetric_matrix_fails(self):
        x, y, z = RQ.gens
        entries = [x, y, z, x + y, x + z, y + z, x * y, y * z, x * z, x * x]
        rows = [[RQ.zero] * 5 for _ in range(5)]
        n = 0
        for i in range(5):
            for j in range(i + 1, 5):
                rows[i][j] = rows[j][i] = entries[n]
                n += 1
        bad = SkewMatrix.unchecked(RQ, rows)
        report = check_identities(bad)
        assert not report.all_passed
        assert [(c.name, c.cases, c.failures, c.first_failure)
                for c in report.checks] == [
            ("expansion", 40, 25, "((1, 2), 2)"),
            ("drop1_expansion", 20, 15, "(1, 3)"),
            ("sum3_vanishing", 60, 20, "(1, 2, 4)"),
            ("drop3_expansion", 20, 10, "(1, 2, 3, 5)"),
            ("sum5_vanishing", 120, 0, None),
        ]
        assert any("FAIL" in line for line in report.summary_lines())

    def test_one_broken_entry(self):
        # skew-symmetry broken at (6, 2) alone: every identity fails
        R5 = PolyRing(PrimeField(5))
        T = random_skew(R5, 7, random.Random(71), degree=1)
        rows = [list(row) for row in T.rows]
        rows[5][1] = rows[1][5]
        report = check_identities(SkewMatrix.unchecked(R5, rows))
        assert [(c.name, c.cases, c.failures, c.first_failure)
                for c in report.checks] == [
            ("expansion", 224, 15, "((2, 6), 6)"),
            ("drop1_expansion", 42, 5, "(1, 6)"),
            ("sum3_vanishing", 210, 20, "(1, 3, 6)"),
            ("drop3_expansion", 140, 9, "(1, 3, 4, 6)"),
            ("sum5_vanishing", 2520, 120, "(1, 3, 4, 5, 6)"),
        ]

    def test_tampered_reports(self):
        failing = set()
        for (name, m, kind), digest in TAMPERED_DIGESTS.items():
            report = check_identities(tampered_matrix(name, m, kind))
            rows = [(c.name, c.cases, c.failures, c.first_failure)
                    for c in report.checks]
            assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == \
                digest, (name, m, kind, rows)
            failing.update(c.name for c in report.checks if c.failures)
        assert failing == {"expansion", "drop1_expansion", "sum3_vanishing",
                           "drop3_expansion", "sum5_vanishing"}

    def test_matches_identity_oracle(self):
        for name in TAMPERED_FIELDS:
            for m in (1, 3, 5, 7):
                for kind in TAMPERED_KINDS:
                    if m < TAMPERED_KINDS[kind]:
                        continue
                    T = tampered_matrix(name, m, kind)
                    rows = [(c.name, c.cases, c.failures, c.first_failure)
                            for c in check_identities(T).checks]
                    assert rows == oracle_identity_report(T), (name, m, kind)

    def test_wrong_memo_entry_fails_other_elements(self):
        # the expansion along a subset's lowest element is _pf's own
        # definition, so it is not evaluated; a wrong memo entry for
        # {2, 3, 5, 6} must still fail its expansions along 3, 5 and 6.
        # Evaluating along the lowest element as well would add one failure
        # to expansion, ((2, 3, 5, 6), 2), and one to drop3_expansion,
        # (1, 4, 7, 2)
        R5 = PolyRing(PrimeField(5))
        T = random_skew(R5, 7, random.Random(73), degree=1)
        x, y, _ = R5.gens
        T._pf_cache[0b110110] = oracle_pfaffian(T, (2, 3, 5, 6)) + x * y
        assert [(c.name, c.cases, c.failures, c.first_failure)
                for c in check_identities(T).checks] == [
            ("expansion", 224, 9, "((2, 3, 5, 6), 3)"),
            ("drop1_expansion", 42, 6, "(1, 4)"),
            ("sum3_vanishing", 210, 16, "(1, 4, 2)"),
            ("drop3_expansion", 140, 3, "(1, 4, 7, 3)"),
            ("sum5_vanishing", 2520, 0, None),
        ]

    def test_lowest_element_expansion_not_evaluated(self, monkeypatch):
        T = random_skew(PolyRing(PrimeField(5)), 7, random.Random(74), degree=1)
        check_identities(T)   # fills the memo, so no pfaffian is built below

        class Recorder:
            def __init__(self, core):
                self.core = core
                self.factors = set()

            def __getattr__(self, name):
                return getattr(self.core, name)

            def addmul_into(self, acc, a, b, p, sign):
                self.factors.add((id(a), id(b)))
                return self.core.addmul_into(acc, a, b, p, sign)

        recorder = Recorder(polyring._core)
        monkeypatch.setattr(polyring, "_core", recorder)
        assert check_identities(T).all_passed

        def expansion_factors(mask, pb):
            # the nonzero (entry, memo entry) products of the expansion of
            # mask along its element at position pb; no other check
            # multiplies these pairs
            bits = [v for v in range(T.m) if mask >> v & 1]
            b = bits[pb]
            pairs = ((T.rows[b][r], T._pf_cache[mask ^ (1 << b) ^ (1 << r)])
                     for r in bits if r != b)
            return {(id(entry.terms), id(sub.terms)) for entry, sub in pairs
                    if entry and sub}

        even = [mask for mask in T._pf_cache if mask.bit_count() >= 2]
        assert len(even) == 2 ** (T.m - 1) - 1
        for mask in even:
            assert not expansion_factors(mask, 0) & recorder.factors, mask
            assert expansion_factors(mask, 1) <= recorder.factors, mask

    def test_size_limit_comes_first(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("check_identities did pfaffian work")

        monkeypatch.setattr(SkewMatrix, "_pf", forbidden)
        too_big = SkewMatrix.from_upper(RQ, MAX_IDENTITY_SIZE + 2, {})
        with pytest.raises(UnsupportedSize, match=f"at most {MAX_IDENTITY_SIZE}"):
            check_identities(too_big)
        # the largest accepted size gets as far as the first pfaffian
        with pytest.raises(AssertionError, match="pfaffian work"):
            check_identities(SkewMatrix.from_upper(RQ, MAX_IDENTITY_SIZE, {}))


TAMPERED_FIELDS = {"F2": PrimeField(2), "F3": PrimeField(3),
                   "F5": PrimeField(5), "QQ": QQ}


#: Smallest size each kind of tampering applies to.
TAMPERED_KINDS = {"pair": 3, "diagonal": 3, "symmetric": 1, "two": 5}


def tampered_matrix(name, m, kind):
    """A random matrix with skew-symmetry broken in one of four ways."""
    ring = PolyRing(TAMPERED_FIELDS[name])
    x, y, z = ring.gens
    T = random_skew(ring, m, random.Random(10 * m + len(kind)), degree=1)
    rows = [list(row) for row in T.rows]
    if kind == "pair":
        rows[1][m - 1] = rows[1][m - 1] + x * y
    elif kind == "diagonal":
        rows[2][2] = z
    elif kind == "symmetric":
        for i in range(m):
            for j in range(i + 1, m):
                rows[j][i] = rows[i][j]
    elif kind == "two":
        rows[m - 1][0] = rows[0][m - 1]
        rows[3][1] = rows[1][3] + y
    return SkewMatrix.unchecked(ring, rows)


# sha256 digests of [(name, cases, failures, first_failure)] over the five
# identities of each tampered matrix, taken when every ordered tuple was
# still evaluated on its own, so they pin that sharing verdicts across the
# orderings of an index set changes no report.
TAMPERED_DIGESTS = {
    ("F2", 5, "pair"):
        "db11685013b4e9073f3ee58e0919e516883e6d18c6ca015f51b15d196b3db4ee",
    ("F3", 7, "diagonal"):
        "1ad62b5e87d04fe54ffb5582fc05cea7f1184e7b2f9638419eb0194dff3e611d",
    ("F5", 7, "symmetric"):
        "9cc61d1afa343fdbe38fc7998bf8892e482cc8f1d95dc972b3dcbf621a445a58",
    ("QQ", 9, "two"):
        "96d0909288a66d63ff3a940c14d4c3e818470d674568517a48dae9407cc4675c",
    ("F3", 9, "pair"):
        "eaa8f7466aaead145f423c47cb0b852a9e7156d6c0a18e9226d834b2b3884d83",
    ("QQ", 5, "diagonal"):
        "c95b0774c6a8437acb42aedd2165a0c80087ac8109f63ef410d82167312bbdef",
    ("QQ", 7, "symmetric"):
        "7b26e6853f640029bc0b8b6ea53468129813828d328cbedb59a5fcda9df6f9bc",
    ("F2", 7, "two"):
        "39333b7e1283d81cc5f242cd863019b60acd46236b193fa771f35771a47e88df",
}
