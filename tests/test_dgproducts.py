"""DG products against the printed 5x5 golden tables, correction-constant
goldens, golden digests of whole tables, structural laws, and the Leibniz
rule."""

import dataclasses
import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from pftrim import _poly_core, dgproducts, polyring
from pftrim.dgproducts import ChainElement, LeibnizReport, ProductTable, \
    boundary, d_constants, full_table, gorenstein_product, multiply, \
    product, verify_leibniz, zero_element
from pftrim.errors import ArgumentError, FieldMismatch
from pftrim.linalg import QQ_MODULUS, det_bareiss
from pftrim.pfaffian import SkewMatrix, pfaffian_drop, sigma3
from pftrim.polyring import EXPONENT_LIMIT, PolyRing, Polynomial, \
    PrimeField, QQ, unpack_exponents
from pftrim.resolution import BasisElement as B
from pftrim.resolution import ChainComplex, gorenstein_resolution, \
    trimmed_resolution

from oracles import random_skew

from test_pfaffian import R2, example_matrix


R3 = PolyRing(PrimeField(3))
R5 = PolyRing(PrimeField(5))
RQ = PolyRing(QQ)


def example_trim():
    return trimmed_resolution(example_matrix(), 1)


def elem(ring, pairs):
    coords = {}
    for basis, text in pairs:
        coords[basis] = ring.from_string(text)
    degree = next(iter(coords)).degree if coords else 0
    return ChainElement(ring, degree, coords)


class TestChainElement:
    def test_validation(self):
        x = RQ.gens[0]
        with pytest.raises(ArgumentError):
            ChainElement(RQ, 1, {B.F(1): x})
        with pytest.raises(ArgumentError):
            ChainElement(RQ, -1)
        with pytest.raises(FieldMismatch):
            ChainElement(RQ, 1, {B.E(1): R2.one})
        with pytest.raises(ArgumentError):
            ChainElement(RQ, 1, {"e1": x})

    def test_zero_coefficients_dropped(self):
        e = ChainElement(RQ, 1, {B.E(1): RQ.zero, B.E(2): RQ.one})
        assert list(e.coords) == [B.E(2)]
        assert e.coefficient(B.E(1)).is_zero
        assert not e.is_zero
        assert zero_element(RQ, 2).is_zero

    def test_arithmetic(self):
        x, y, _ = RQ.gens
        a = ChainElement(RQ, 1, {B.E(1): x, B.E(2): y})
        b = ChainElement(RQ, 1, {B.E(2): y})
        assert (a - b).coords == {B.E(1): x}
        assert (a + (-a)).is_zero
        assert a.scaled(2).coefficient(B.E(1)) == x + x
        assert a.scaled(y).coefficient(B.E(2)) == y * y
        with pytest.raises(ArgumentError):
            a + zero_element(RQ, 2)
        with pytest.raises(FieldMismatch):
            a + ChainElement(R2, 1, {B.E(1): R2.one})

    def test_scalar_part(self):
        s = ChainElement(RQ, 0, {B.ONE(): RQ.gens[0]})
        assert s.scalar == RQ.gens[0]
        with pytest.raises(ArgumentError):
            ChainElement(RQ, 1).scalar

    def test_equal_rings_built_twice(self):
        # rings are compared as Polynomial does: identity, then equality
        R1, R2b = PolyRing(PrimeField(3)), PolyRing(PrimeField(3))
        a = ChainElement(R1, 1, {B.E(1): R2b.gens[0]})
        b = ChainElement(R2b, 1, {B.E(1): R2b.gens[0]})
        assert a == b
        assert (a - b).is_zero
        assert (a + b).coefficient(B.E(1)) == R1.gens[0] * 2
        with pytest.raises(FieldMismatch):
            ChainElement(R1, 1, {B.E(1): PolyRing(PrimeField(5)).one})

    def test_str(self):
        x, y, _ = RQ.gens
        e = ChainElement(RQ, 2, {B.F(2): x + y, B.V(1, 1, 3): RQ.one,
                                 B.F(1): x})
        assert str(e) == "x*f1 + (x + y)*f2 + v1_13"
        assert str(zero_element(RQ, 1)) == "0"


class TestDConstants:
    def test_example_two_index(self):
        td = example_trim()
        assert d_constants(td, "two_index", (1, 2, 3, 1, 3)) == R2.one
        # the other two pairs vanish on this matrix
        assert d_constants(td, "two_index", (1, 2, 3, 1, 2)).is_zero
        assert d_constants(td, "two_index", (1, 2, 3, 2, 3)).is_zero
        for i in range(2, 6):
            for j in range(2, 6):
                value = d_constants(td, "two_index", (1, i, j, 1, 3))
                assert value == pfaffian_drop(td.T, (i, j, 5, 4, 1)), (i, j)

    def test_example_three_index(self):
        td = example_trim()
        for j in range(2, 6):
            assert d_constants(td, "three_index", (1, 1, j, 1, 1, 2)).is_zero
            assert d_constants(td, "three_index", (1, 1, j, 2, 1, 2)) == \
                pfaffian_drop(td.T, (1, j, 4))
            assert d_constants(td, "three_index", (1, 1, j, 1, 1, 3)) == \
                pfaffian_drop(td.T, (1, j, 5))

    def test_repeated_index_vanishes(self):
        td = example_trim()
        assert d_constants(td, "two_index", (1, 4, 4, 1, 2)).is_zero

    def test_antisymmetry(self):
        rng = random.Random(31)
        td = trimmed_resolution(random_skew(R5, 7, rng, degree=1), 3)
        for flavor, extra in (("two_index", ()), ("three_index", (2,)),
                              ("four_index", (2, 3))):
            plus = d_constants(td, flavor, (2, 4, 6, *extra, 1, 3))
            minus = d_constants(td, flavor, (2, 4, 6, *extra, 3, 1))
            assert plus == -minus
            assert d_constants(td, flavor, (2, 4, 6, *extra, 2, 2)).is_zero

    def test_case_splits(self):
        rng = random.Random(32)
        td = trimmed_resolution(random_skew(R5, 7, rng, degree=1), 3)
        x, y, z = R5.gens
        base = d_constants(td, "two_index", (2, 4, 6, 1, 3))
        assert d_constants(td, "three_index", (2, 4, 6, 1, 1, 3)) == base * x
        assert d_constants(td, "four_index", (2, 4, 6, 1, 2, 1, 3)) == \
            base * (x * y)
        # trimmed index equal to the first matrix index
        three = d_constants(td, "three_index", (2, 2, 6, 1, 1, 3))
        assert d_constants(td, "four_index", (2, 2, 6, 1, 3, 1, 3)) == \
            three * z
        # trimmed index equal to the second matrix index
        assert d_constants(td, "four_index", (2, 4, 2, 1, 3, 1, 2)).is_zero
        direct = d_constants(td, "four_index", (2, 4, 2, 1, 1, 1, 3))
        acc = R5.zero
        for r in range(1, 8):
            s3 = sigma3(4, 2, r)
            if s3 == 0:
                continue
            term = pfaffian_drop(td.T, (4, 2, r)) * td.c[(r, 2)][2]
            acc = acc + term if s3 > 0 else acc - term
        assert direct == acc * x

    def test_validation(self):
        td = example_trim()
        with pytest.raises(ArgumentError):
            d_constants(td, "five_index", (1, 2, 3, 1, 2))
        with pytest.raises(ArgumentError):
            d_constants(td, "two_index", (1, 2, 3, 1))
        with pytest.raises(ArgumentError):
            d_constants(td, "two_index", (2, 2, 3, 1, 2))
        with pytest.raises(ArgumentError):
            d_constants(td, "two_index", (1, 2, 6, 1, 2))
        with pytest.raises(ArgumentError):
            d_constants(td, "three_index", (1, 2, 3, 4, 1, 2))


class TestGorensteinProduct:
    def test_degree_one_pairs(self):
        T = example_matrix()
        value = gorenstein_product(T, B.E(2), B.E(3))
        assert value == elem(R2, [(B.F(4), "z"), (B.F(5), "x")])
        assert gorenstein_product(T, B.E(2), B.E(2)).is_zero
        for i in range(1, 6):
            for j in range(1, 6):
                ef = gorenstein_product(T, B.E(i), B.F(j))
                fe = gorenstein_product(T, B.F(j), B.E(i))
                expected = (i == j)
                assert (ef.coefficient(B.G()) == T.ring.one) == expected
                assert ef == fe

    def test_unit_and_vanishing(self):
        T = example_matrix()
        assert gorenstein_product(T, B.ONE(), B.F(2)) == \
            ChainElement.of(R2, B.F(2))
        assert gorenstein_product(T, B.F(1), B.F(2)).is_zero
        assert gorenstein_product(T, B.G(), B.E(1)).is_zero

    def test_validation(self):
        T = example_matrix()
        with pytest.raises(ArgumentError):
            gorenstein_product(T, B.U(1, 1), B.E(2))
        with pytest.raises(ArgumentError):
            gorenstein_product(T, B.E(6), B.E(2))

    def test_untrimmed_data_built_once(self, monkeypatch):
        T = random_skew(R5, 7, random.Random(42), degree=1)
        build = dgproducts._trimmed_data
        calls = []

        def counted(matrix, t):
            calls.append(t)
            return build(matrix, t)
        monkeypatch.setattr(dgproducts, "_trimmed_data", counted)
        F = gorenstein_resolution(T)
        basis = [x for d in range(4) for x in F.basis(d)]
        for x in basis:
            for y in basis:
                gorenstein_product(T, x, y)
        assert calls == [0]

    def test_matches_trimmed_selfdual_component(self):
        rng = random.Random(41)
        T = random_skew(R5, 7, rng, degree=1)
        td = trimmed_resolution(T, 2)
        for i in range(3, 8):
            for j in range(3, 8):
                full = product(td, B.E(i), B.E(j))
                ambient = gorenstein_product(T, B.E(i), B.E(j))
                for r in range(1, 8):
                    assert full.coefficient(B.F(r)) == \
                        ambient.coefficient(B.F(r)), (i, j, r)


class TestExampleTables:
    def test_products_a(self):
        td = example_trim()
        expected = {
            (2, 3): [(B.F(4), "z"), (B.F(5), "x"), (B.V(1, 1, 3), "1")],
            (2, 4): [(B.F(3), "z")],
            (2, 5): [(B.F(1), "y"), (B.F(3), "x")],
            (3, 4): [(B.F(1), "y"), (B.F(2), "z")],
            (3, 5): [(B.F(1), "z"), (B.F(2), "x")],
            (4, 5): [(B.F(1), "x")],
        }
        for (i, j), pairs in expected.items():
            assert product(td, B.E(i), B.E(j)) == elem(R2, pairs), (i, j)
        for i in range(2, 6):
            assert product(td, B.E(i), B.E(i)).is_zero

    def test_products_b(self):
        td = example_trim()
        expected = {
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
        for (j, l), pairs in expected.items():
            assert product(td, B.E(j), B.U(1, l)) == elem(R2, pairs), (j, l)

    def test_products_e(self):
        td = example_trim()
        for i in range(2, 6):
            for j in range(1, 6):
                value = product(td, B.E(i), B.F(j))
                if i == j:
                    assert value == ChainElement.of(R2, B.G())
                else:
                    assert value.is_zero, (i, j)


class TestStructure:
    def test_unit_law(self):
        td = example_trim()
        for x in (B.E(3), B.U(1, 2), B.F(4), B.V(1, 1, 2), B.G(), B.W(1)):
            assert product(td, B.ONE(), x) == ChainElement.of(R2, x)
            assert product(td, x, B.ONE()) == ChainElement.of(R2, x)

    def test_same_block_degree_one(self):
        rng = random.Random(51)
        td = trimmed_resolution(random_skew(R5, 5, rng, degree=1), 3)
        for k in range(1, 4):
            yk = td.y[k - 1]
            value = product(td, B.U(k, 1), B.U(k, 2))
            assert value == ChainElement(R5, 2, {B.V(k, 1, 2): -yk})
            swapped = product(td, B.U(k, 2), B.U(k, 1))
            assert swapped == ChainElement(R5, 2, {B.V(k, 1, 2): yk})
            assert product(td, B.U(k, 3), B.U(k, 3)).is_zero

    def test_graded_commutativity_and_squares(self):
        rng = random.Random(52)
        td = trimmed_resolution(random_skew(R5, 5, rng, degree=1), 2)
        table = full_table(td)
        C = td.complex
        for x in C.basis(1):
            assert table.lookup(x, x).is_zero
            for y in C.basis(1):
                assert table.lookup(y, x) == -table.lookup(x, y), (x, y)
            for y in C.basis(2):
                assert table.lookup(y, x) == table.lookup(x, y), (x, y)

    def test_high_degree_pairs_vanish(self):
        td = example_trim()
        assert product(td, B.F(1), B.F(2)).is_zero
        assert product(td, B.G(), B.E(2)).degree == 4
        assert product(td, B.W(1), B.V(1, 1, 2)).is_zero
        table = full_table(td)
        assert table.lookup(B.F(1), B.F(2)).is_zero

    def test_membership_validation(self):
        td = example_trim()
        with pytest.raises(ArgumentError):
            product(td, B.E(1), B.E(2))
        with pytest.raises(ArgumentError):
            product(td, B.U(2, 1), B.E(2))
        with pytest.raises(ArgumentError):
            product(td, "e2", B.E(3))

    def test_equivalent_forms_of_trimmed_pairing(self):
        # the three variable-split sums defining the top correction agree up
        # to the middle sign
        rng = random.Random(53)
        for m, t in ((5, 2), (7, 3)):
            td = trimmed_resolution(random_skew(R5, m, rng, degree=1), t)
            for i in range(t + 1, m + 1):
                for j in range(1, t + 1):
                    sums = []
                    for (a, b), p in (((1, 2), 3), ((1, 3), 2), ((2, 3), 1)):
                        acc = R5.zero
                        for r in range(1, m + 1):
                            acc = acc + td.c[(r, j)][p - 1] * \
                                d_constants(td, "two_index", (j, i, r, a, b))
                        sums.append(acc)
                    s12, s13, s23 = sums
                    assert s12 == -s13 == s23, (m, t, i, j)


class TestBoundaryHelper:
    def test_basis_boundaries(self):
        td = example_trim()
        C = td.complex
        b = boundary(C, ChainElement.of(R2, B.E(2)))
        assert b.degree == 0 and b.scalar == td.y[1]
        with pytest.raises(ArgumentError):
            boundary(C, ChainElement.of(R2, B.ONE()))

    def test_linearity(self):
        td = example_trim()
        C = td.complex
        x = R2.gens[0]
        e = ChainElement(R2, 2, {B.F(1): x, B.V(1, 1, 2): R2.one})
        split = boundary(C, ChainElement(R2, 2, {B.F(1): x})) + \
            boundary(C, ChainElement(R2, 2, {B.V(1, 1, 2): R2.one}))
        assert boundary(C, e) == split


class TestTableAndMultiply:
    def test_records(self):
        td = example_trim()
        table = full_table(td)
        recs = table.records()
        assert len(recs) == 7 * 7 + 2 * 7 * 8
        first = recs[0]
        assert first["left"] == "e2" and first["right"] == "e2"
        assert first["value"] == []
        by_pair = {(r["left"], r["right"]): r["value"] for r in recs}
        assert by_pair[("e2", "e3")] == \
            [["f4", "z"], ["f5", "x"], ["v1_13", "1"]]

    def test_lookup_unit_and_missing(self):
        td = example_trim()
        table = full_table(td)
        assert table.lookup(B.ONE(), B.F(3)) == ChainElement.of(R2, B.F(3))
        partial = ProductTable(td.complex, {})
        with pytest.raises(ArgumentError):
            partial.lookup(B.E(2), B.E(3))
        with pytest.raises(ArgumentError):
            table.lookup(B.E(1), B.E(2))

    def test_multiply_bilinear(self):
        td = example_trim()
        table = full_table(td)
        y = R2.gens[1]
        left = ChainElement(R2, 1, {B.E(2): y})
        right = ChainElement(R2, 1, {B.E(3): R2.one, B.E(4): y})
        expected = product(td, B.E(2), B.E(3)).scaled(y) + \
            product(td, B.E(2), B.E(4)).scaled(y * y)
        assert multiply(table, left, right) == expected

    def test_unshifted_cells_share_the_base_terms(self):
        # an e*e cell of an upper pair is its pair base with no shift and no
        # sign: its coordinates wrap the base's term dicts, not copies
        T = random_skew(R5, 7, random.Random(65), degree=1)
        td = trimmed_resolution(T, 2)
        table = full_table(td)
        base = dgproducts._pair_base(td, 3, 5)[0]
        coords = table.entries[(B.E(3), B.E(5))].coords
        assert base and len(coords) == len(base)
        assert all(coords[elem].terms is terms for elem, terms in base)

    @pytest.mark.parametrize("ring", [R5, RQ, R2])
    def test_each_unordered_pair_multiplied_once(self, ring, monkeypatch):
        # y*x of degree (1, 1) is the negative of x*y and a (2, 1) cell is
        # its (1, 2) cell; every cell equals the formula evaluated directly,
        # on its own trimming with the reversed pairs first.  `full_table`
        # makes each (1, 2) cell once and never calls `product`, which
        # reads the one table its trimming keeps.  Inputs: linear at t = 3,
        # degree <= 2 and not homogeneous at t = 1 and t = m, and a matrix
        # whose y1 vanishes, so that u1_l u1_s is zero
        calls = Counter()
        for name in ("product", "_degree_two_parts", "full_table"):
            monkeypatch.setattr(dgproducts, name, counted(
                calls, name, getattr(dgproducts, name)))
        vanishing = vanishing_generator_matrix(ring)
        assert vanishing.generators()[0].is_zero
        square = random_skew(ring, 5, random.Random(66), degree=2, terms=3,
                             homogeneous=False)
        for T, t in ((random_skew(ring, 7, random.Random(65), degree=1), 3),
                     (square, 1), (square, 5), (vanishing, 2)):
            td = trimmed_resolution(T, t)
            pairs = ProductTable(td.complex, {}).pairs()
            fresh = trimmed_resolution(T, t)
            direct = {(x, y): formula_cell(fresh, x, y)
                      for x, y in pairs[::-1]}
            calls.clear()
            table = full_table(td)
            r1, r2 = td.complex.rank(1), td.complex.rank(2)
            assert calls == {"_degree_two_parts": r1 * r2}
            assert table.entries == direct
            assert [str(table.entries[pair]) for pair in pairs] == \
                [str(direct[pair]) for pair in pairs]
            assert all(coeff.terms for value in table.entries.values()
                       for coeff in value.coords.values())
            assert verify_leibniz(td, table).all_passed
            # the cache keeps each index pair once: no negated copy under
            # the reversed pair
            cache = td.__dict__["_product_cache"]
            for name, *args in cache:
                if len(args) > 1 and args[0] != args[1]:
                    assert (name, args[1], args[0], *args[2:]) not in cache, \
                        (name, *args)
            # product reads one table built on its first call
            calls.clear()
            basis = [b for d in range(4) for b in td.complex.basis(d)]
            assert all(product(td, x, y) == table.lookup(x, y)
                       for x in basis for y in basis)
            assert calls["full_table"] == 1 and calls["product"] == 0
        assert str(table.entries[(B.U(1, 1), B.U(1, 2))]) == "0"


def counted(calls, name, fn):
    """fn, counting its calls in calls[name]."""
    def wrapper(*args):
        calls[name] += 1
        return fn(*args)
    return wrapper


def formula_cell(td, x, y):
    """The cell x*y of degree sum <= 3 from the product formula, without a
    table: zero for x*x, and a (2, 1) cell as its (1, 2) cell."""
    if x.degree > y.degree:
        x, y = y, x
    i, l = dgproducts._factor(x)
    if y.degree == 2:
        # the sum of the parts' shifts, whether or not they overlap
        negate, parts = dgproducts._degree_two_parts(td, i, l, y)
        value = zero_element(td.ring, 3)
        for _, pairs, key in parts:
            z = td.ring.monomial(1, unpack_exponents(key))
            value += ChainElement(td.ring, 3, {
                elem: Polynomial(td.ring, terms) * z for elem, terms in pairs})
        return -value if negate else value
    if x == y:
        return zero_element(td.ring, 2)
    return ChainElement(td.ring, 2, dgproducts._degree_one_product(
        td, i, l, *dgproducts._factor(y)))


def vanishing_generator_matrix(ring):
    """A seeded linear size-7 matrix with row 2 cleared except for the
    entry at (1, 2): dropping index 1 leaves a zero row, so y1 = 0."""
    T = random_skew(ring, 7, random.Random(67), degree=1)
    return SkewMatrix.from_upper(ring, 7, {
        (i, j): T.entry(i, j) for i in range(1, 8) for j in range(i + 1, 8)
        if i != 2})


def leibniz_reference(td, table):
    """Per-pair Leibniz differences d(xy) - (d(x)y - x d(y)), in the order
    of verify_leibniz, through the public boundary and multiply."""
    C = td.complex
    out = []
    for x in C.basis(1):
        x_elem = ChainElement.of(td.ring, x)
        bx = boundary(C, x_elem)
        for dy in (1, 2):
            for y in C.basis(dy):
                y_elem = ChainElement.of(td.ring, y)
                diff = boundary(C, table.lookup(x, y)) - (
                    multiply(table, bx, y_elem)
                    - multiply(table, x_elem, boundary(C, y_elem)))
                if not diff.is_zero:
                    out.append((x, y, diff))
    return out


def drop_w(td, table, kinds):
    """Copy of the table with the w coordinate removed from the first
    degree-(1, 2) cell of the given kinds that has one; returns the copy and
    the tampered pair."""
    entries = dict(table.entries)
    for (x, y), value in table.entries.items():
        if (x.kind, y.kind) != kinds:
            continue
        coords = {e: c for e, c in value.coords.items() if e.kind != "w"}
        if len(coords) < len(value.coords):
            entries[(x, y)] = ChainElement(td.ring, 3, coords)
            return ProductTable(td.complex, entries), (x, y)
    raise AssertionError(f"no {kinds} cell with a w coordinate")


class TestLeibniz:
    def test_example_clean(self):
        td = example_trim()
        report = verify_leibniz(td, full_table(td))
        assert report.all_passed
        assert report.pairs_checked == 7 * 7 + 7 * 8
        assert report.summary_lines() == ["leibniz: 105 pairs, ok"]

    def test_random_clean(self):
        rng = random.Random(61)
        for p in (2, 5):
            ring = PolyRing(PrimeField(p))
            for m in (5, 7):
                T = random_skew(ring, m, rng, degree=1)
                for t in range(1, m + 1):
                    td = trimmed_resolution(T, t)
                    report = verify_leibniz(td, full_table(td))
                    assert report.all_passed, (p, m, t, report.violations[:1])

    def test_rational_clean(self):
        rng = random.Random(62)
        td = trimmed_resolution(random_skew(RQ, 5, rng, degree=1), 2)
        assert verify_leibniz(td, full_table(td)).all_passed

    def test_tampered_table_detected(self):
        td = example_trim()
        table = full_table(td)
        entries = dict(table.entries)
        key = (B.E(2), B.E(3))
        clean = entries[key]
        coords = {e: c for e, c in clean.coords.items() if e != B.V(1, 1, 3)}
        entries[key] = ChainElement(R2, 2, coords)
        tampered = ProductTable(td.complex, entries)
        report = verify_leibniz(td, tampered)
        assert not report.all_passed
        assert key in [(x, y) for x, y, _ in report.violations]
        assert list(report.violations) == leibniz_reference(td, tampered)
        assert "FAIL" in report.summary_lines()[0]
        assert "e2*e3" in report.summary_lines()[0]

    @pytest.mark.parametrize("size,kinds", [
        (5, ("u", "v")), (7, ("e", "f")), (7, ("u", "v"))])
    def test_tampered_degree_three_cell(self, size, kinds):
        # on the example matrix every e*f cell has a zero w coordinate
        if size == 5:
            td = example_trim()
        else:
            rng = random.Random(63)
            td = trimmed_resolution(random_skew(R5, 7, rng, degree=1), 3)
        tampered, key = drop_w(td, full_table(td), kinds)
        report = verify_leibniz(td, tampered)
        expected = leibniz_reference(td, tampered)
        assert key in [(x, y) for x, y, _ in expected]
        assert list(report.violations) == expected
        r1, r2 = td.complex.rank(1), td.complex.rank(2)
        assert report.pairs_checked == r1 * (r1 + r2)


def tamper_degree_one(td, table, mode):
    """Copy of the table with degree-(1, 1) cells changed, and the changed
    pairs.  "one" changes e*u of one pair and u*e of another, each in one
    order only; "negatives" changes both orders of a pair to exact
    negatives of each other; "different" changes both orders of a pair by
    unrelated elements."""
    ring = td.ring
    basis1, basis2 = td.complex.basis(1), td.complex.basis(2)
    e, e2, u2, u = basis1[0], basis1[1], basis1[-2], basis1[-1]
    x, y, z = ring.gens
    delta = ChainElement(ring, 2, {basis2[0]: z, basis2[-1]: x})
    entries = dict(table.entries)
    if mode == "one":
        keys = [(e, u), (u2, e2)]
        for key in keys:
            entries[key] = entries[key] + delta
    elif mode == "negatives":
        keys = [(e, u), (u, e)]
        entries[(e, u)] = entries[(e, u)] + delta
        entries[(u, e)] = -entries[(e, u)]
    else:
        keys = [(e, u), (u, e)]
        entries[(e, u)] = entries[(e, u)] + delta
        entries[(u, e)] = entries[(u, e)] + delta.scaled(y)
    return ProductTable(td.complex, entries), keys


class TestLeibnizSharedResiduals:
    """The degree-(1, 1) residual of (x, y) is read off that of (y, x) when
    both cells are the trimming's own recipes, negatives of each other;
    tampered cells must give the same violations as the reference."""

    @pytest.mark.parametrize("mode", ["one", "negatives", "different"])
    @pytest.mark.parametrize("ring,size", [
        (R2, 5), (R2, 7), (R5, 5), (R5, 7), (RQ, 5)],
        ids=["F2-5", "F2-7", "F5-5", "F5-7", "QQ-5"])
    def test_tampered_degree_one_cells(self, ring, size, mode):
        T = random_skew(ring, size, random.Random(70 + size), degree=1)
        td = trimmed_resolution(T, 2)
        tampered, keys = tamper_degree_one(td, full_table(td), mode)
        report = verify_leibniz(td, tampered)
        expected = leibniz_reference(td, tampered)
        assert list(report.violations) == expected
        diffs = {(x, y): diff for x, y, diff in report.violations}
        assert set(keys) <= set(diffs)
        if mode == "negatives":
            (x, y), _ = keys
            assert diffs[(y, x)] == -diffs[(x, y)]
        r1, r2 = td.complex.rank(1), td.complex.rank(2)
        assert report.pairs_checked == r1 * (r1 + r2)


def tamper_gated_cell(td, table, x, y, mode):
    """Copy of the table with the degree-(1, 1) cell x*y changed, for x = u^i_1
    and y from another index (in either order).  "coefficient" adds 1 to one
    coefficient of one base term, "contraction" drops one term of a
    contraction block, "extra" adds a coordinate the cell lacks, and "key"
    puts the base under z_2 in place of the z_1 of u^i_1 (z_1 z_2 in place
    of z_1^2 on a u*u cell), the contractions kept.  The changed
    coordinates have a nonzero d2, so x*y's own C1 residual is nonzero."""
    ring, C = td.ring, td.complex
    cell = table.entries[(x, y)]
    negate, ((_, base, key), *contractions) = dgproducts._cell_parts(
        td, *dgproducts._factor(x), *dgproducts._factor(y))
    bounded = {elem for col, elem in enumerate(C.basis(2))
               if any(row[col] for row in C.differential(2))}
    coords = dict(cell.coords)
    if mode == "coefficient":
        elem, terms = next(pair for pair in base if pair[0] in bounded)
        coords[elem] = coords[elem] + ring.monomial(
            1, unpack_exponents(next(iter(terms)) + key))
    elif mode == "contraction":
        elem = next(elem for _, pairs, _ in contractions
                    for elem, _ in pairs if elem in bounded)
        first = next(iter(coords[elem].terms))
        coords[elem] = coords[elem] - ring.monomial(
            coords[elem].terms[first], unpack_exponents(first))
    elif mode == "extra":
        elem = next(e for e in C.basis(2) if e not in coords and e in bounded)
        coords[elem] = ring.gens[0]
    else:
        z1, z2 = dgproducts._VAR_KEYS[:2]
        coords.update(dgproducts._shifted(ring, base, key - z1 + z2, negate))
    entries = dict(table.entries)
    entries[(x, y)] = ChainElement(ring, 2, coords)
    return ProductTable(td.complex, entries)


def limit_trim(e):
    """The t = 2 trimming of the size-5 F3 matrix with every entry y or z
    but (4, 5) = x^e."""
    y, z = R3.gens[1:]
    upper = {pair: (y, z)[n % 2] for n, pair in enumerate(
        itertools.combinations(range(1, 6), 2))}
    upper[(4, 5)] = R3.monomial(1, (e, 0, 0))
    return trimmed_resolution(SkewMatrix.from_upper(R3, 5, upper), 2)


class TestLeibnizGate:
    """A degree-(1, 1) cell of two indices with a u factor has its C1
    residual read off the d2 images of its pair base and contractions when
    it is the trimming's own recipe at its own position; any other cell is
    imaged off its own parts, unshared.  Either way the report is the
    reference's."""

    @pytest.mark.parametrize("mode", ["coefficient", "contraction", "extra",
                                      "key"])
    @pytest.mark.parametrize("kinds", ["uu", "eu", "ue"])
    @pytest.mark.parametrize("ring,size", [(R2, 7), (R5, 5), (RQ, 5)],
                             ids=["F2-7", "F5-5", "QQ-5"])
    def test_tampered_gated_cell(self, ring, size, kinds, mode):
        T = random_skew(ring, size, random.Random(110), degree=1)
        td = trimmed_resolution(T, 2)
        x, y = {"uu": (B.U(1, 1), B.U(2, 1)), "eu": (B.E(3), B.U(1, 1)),
                "ue": (B.U(1, 1), B.E(3))}[kinds]
        table = full_table(td)
        assert verify_leibniz(td, table).all_passed
        tampered = tamper_gated_cell(td, table, x, y, mode)
        assert tampered.entries[(x, y)] != table.entries[(x, y)]
        report = verify_leibniz(td, tampered)
        expected = leibniz_reference(td, tampered)
        assert (x, y) in [(a, b) for a, b, _ in expected]
        assert list(report.violations) == expected
        r1, r2 = td.complex.rank(1), td.complex.rank(2)
        assert report.pairs_checked == r1 * (r1 + r2)

    @pytest.mark.parametrize("ring,size", [(R2, 7), (R5, 5), (RQ, 5)],
                             ids=["F2-7", "F5-5", "QQ-5"])
    def test_each_pair_base_imaged_once(self, ring, size, monkeypatch):
        # at t = m every factor is a u, so every index pair has gated
        # cells; a gate that refused them all would image no base
        T = random_skew(ring, size, random.Random(111 + size), degree=1)
        td = trimmed_resolution(T, size)
        table = full_table(td)
        imaged = Counter()
        image = dgproducts._d2_image

        def counting(C, d2, pairs, p):
            imaged[id(pairs)] += 1
            return image(C, d2, pairs, p)

        monkeypatch.setattr(dgproducts, "_d2_image", counting)
        for _ in range(2):
            imaged.clear()
            assert verify_leibniz(td, table).all_passed
            bases = [id(dgproducts._pair_base(td, i, j)[0])
                     for i, j in itertools.combinations(range(1, size + 1),
                                                        2)]
            assert [imaged[base] for base in bases] == [1] * len(bases)

    def test_shift_past_exponent_limit(self):
        # every entry y or z but (4, 5) = x^e: the shift of a cell by z_1^2
        # passes EXPONENT_LIMIT exactly when e > EXPONENT_LIMIT - 2
        td = limit_trim(EXPONENT_LIMIT - 1)
        with pytest.raises(ArgumentError, match=f"exponent above "
                           f"{EXPONENT_LIMIT}"):
            full_table(td)
        td = limit_trim(EXPONENT_LIMIT - 2)
        assert verify_leibniz(td, full_table(td)).all_passed
        # t = 1 and a sparser pattern: the first cell past the limit is
        # e2*u1_1, the base of (1, 2) under z_1 alone
        y, z = R3.gens[1:]
        upper = {pair: y for pair in ((1, 2), (1, 4), (2, 5), (3, 5))}
        upper.update({pair: z for pair in ((1, 3), (1, 5), (2, 4), (3, 4))})
        upper[(4, 5)] = R3.monomial(1, (EXPONENT_LIMIT, 0, 0))
        td = trimmed_resolution(SkewMatrix.from_upper(R3, 5, upper), 1)
        for build in (full_table, lambda td: dgproducts._degree_one_product(
                td, 2, None, 1, 1)):
            with pytest.raises(ArgumentError, match=f"exponent above "
                               f"{EXPONENT_LIMIT}"):
                build(td)
        upper[(4, 5)] = R3.monomial(1, (EXPONENT_LIMIT - 1, 0, 0))
        td = trimmed_resolution(SkewMatrix.from_upper(R3, 5, upper), 1)
        assert verify_leibniz(td, full_table(td)).all_passed

    def test_gated_cell_past_exponent_limit(self, monkeypatch):
        # full_table refuses u1_1*u2_1 of the t = 2 input at e =
        # EXPONENT_LIMIT - 1, whose x lane the z_1^2 shift takes past the
        # limit, so the table is built and every cell read with the limit
        # checks off (a recipe cell builds its coordinates on first read).
        # As a recipe the cell is read off shifted images and its lower
        # partner off it; as a plain cell, the shifted sum of its parts, it
        # is one unshifted part, imaged on its own.  Both reports are the
        # reference's
        td = limit_trim(EXPONENT_LIMIT - 1)
        x, y = B.U(1, 1), B.U(2, 1)
        negate, parts = dgproducts._cell_parts(td, 1, 1, 2, 1)
        assert not negate
        cell = ChainElement(R3, 2, {
            elem: Polynomial(R3, {k + key: c for k, c in terms.items()})
            for _, pairs, key in parts for elem, terms in pairs})
        assert max(unpack_exponents(k)[0] for coeff in cell.coords.values()
                   for k in coeff.terms) > EXPONENT_LIMIT
        with monkeypatch.context() as patch:
            for module in (dgproducts, polyring):
                patch.setattr(module, "check_exponents", lambda terms: terms)
            table = full_table(td)
            assert table.entries[(x, y)] == cell
            plain = ProductTable(td.complex, {**table.entries, (x, y): cell})
            for tab in (table, plain):
                report = verify_leibniz(td, tab)
                assert list(report.violations) == leibniz_reference(td, tab)


class TestRecipeCells:
    """full_table keeps each degree-(1, 1) cell of two indices as its
    recipe alone, its coordinates built afresh on each read; verify_leibniz
    reads every cell off its parts, and shares their images only for the
    trimming's own cell at its own position."""

    def test_coords_built_on_each_read_and_read_only(self):
        # each read is a fresh dict equal to the formula's, so editing one
        # leaves the cell, and the next read, as it was
        T = random_skew(R5, 7, random.Random(65), degree=1)
        td = trimmed_resolution(T, 3)
        table = full_table(td)
        for x, y in ((B.U(1, 1), B.U(2, 2)), (B.U(2, 2), B.U(1, 1)),
                     (B.E(4), B.U(3, 1)), (B.E(5), B.E(6))):
            cell = table.entries[(x, y)]
            expected = formula_cell(td, x, y).coords
            coords = cell.coords
            assert coords == expected and coords
            coords[next(iter(coords))] = R5.one
            coords[B.G()] = R5.one
            assert cell.coords is not coords
            assert cell.coords == expected
            assert cell == formula_cell(td, x, y)

    @pytest.mark.parametrize("name", ["coords", "factors", "parts",
                                      "negate", "td"])
    def test_attributes_read_only(self, name):
        # a table's recipe cell cannot be changed under what lookup,
        # _residues and verify_leibniz read, neither before nor after its
        # coordinates are built
        td = trimmed_resolution(random_skew(R5, 7, random.Random(65),
                                            degree=1), 3)
        table = full_table(td)
        cell = table.entries[(B.U(1, 1), B.E(5))]
        for _ in range(2):
            before = getattr(cell, name)
            with pytest.raises(AttributeError):
                setattr(cell, name, None)
            with pytest.raises(AttributeError):
                delattr(cell, name)
            # coords is a fresh dict on each read, equal to the last
            if name == "coords":
                assert getattr(cell, name) == before
            else:
                assert getattr(cell, name) is before
        assert cell == formula_cell(td, B.U(1, 1), B.E(5))

    @pytest.mark.parametrize("ring", [R2, R5, RQ], ids=["F2", "F5", "QQ"])
    def test_moved_and_foreign_cells_checked(self, ring):
        # cells swapped within the table, and the degree-(1, 1) cells of the
        # t - 1 table (all of them, or those of one order only, so that
        # each pair mixes the two trimmings) are recipes of the wrong
        # position or trimming: each is imaged off its own parts, unshared,
        # and the report is the reference's
        T = random_skew(ring, 7, random.Random(65), degree=1)
        td = trimmed_resolution(T, 3)
        table = full_table(td)
        a, b = (B.U(1, 1), B.U(2, 1)), (B.U(1, 1), B.U(2, 2))
        swapped = dict(table.entries)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        previous = full_table(trimmed_resolution(T, 2)).entries
        position = {x: n for n, x in enumerate(td.complex.basis(1))}
        foreign = [pair for pair, cell in previous.items()
                   if pair in table.entries and cell.degree == 2]
        tables = [swapped]
        for pairs in (foreign, [(x, y) for x, y in foreign
                                if position[x] < position[y]]):
            tables.append({**table.entries,
                           **{pair: previous[pair] for pair in pairs}})
        for entries in tables:
            tampered = ProductTable(td.complex, entries)
            report = verify_leibniz(td, tampered)
            expected = leibniz_reference(td, tampered)
            assert expected and list(report.violations) == expected

    @pytest.mark.parametrize("ring,size", [(R2, 7), (R5, 7), (RQ, 5)],
                             ids=["F2-7", "F5-7", "QQ-5"])
    def test_moved_foreign_and_changed_one_index_cells(self, ring, size):
        # the same-block cell u1_1*u1_2 and the diagonal cells u1_1*u1_1
        # and e4*e4, each moved within the table, taken from the t - 1
        # table (in one order only, or with the partner of the pair too),
        # or changed: each is read off its own parts, and the report is
        # the reference's.  Every move and change breaks the identity, and
        # the t - 1 cells equal the table's
        T = random_skew(ring, size, random.Random(65), degree=1)
        td = trimmed_resolution(T, 3)
        assert td.y[0]
        table = full_table(td)
        entries = table.entries
        x, z = ring.gens[0], ring.gens[2]
        same, diagonal, e = (B.U(1, 1), B.U(1, 2)), (B.U(1, 1), B.U(1, 1)), \
            (B.E(4), B.E(4))
        previous = full_table(trimmed_resolution(T, 2)).entries
        broken = [
            {same: entries[(B.U(1, 1), B.U(1, 3))]},
            {same: entries[diagonal]},
            {diagonal: entries[same]},
            {e: entries[(B.E(4), B.E(5))]},
            {same: entries[same] + ChainElement(ring, 2, {B.V(1, 1, 3): z})},
            {diagonal: ChainElement(ring, 2, {B.F(1): x})},
            {e: ChainElement(ring, 2, {B.V(2, 1, 2): x})}]
        kept = [{pair: previous[pair] for pair in pairs}
                for pairs in ([same], [same, same[::-1]], [diagonal], [e])]
        for n, cells in enumerate(broken + kept):
            tampered = ProductTable(td.complex, {**entries, **cells})
            report = verify_leibniz(td, tampered)
            expected = leibniz_reference(td, tampered)
            assert list(report.violations) == expected, n
            assert bool(expected) == (n < len(broken)), n

    @pytest.mark.parametrize("ring", [R2, R5, RQ], ids=["F2", "F5", "QQ"])
    def test_moved_foreign_and_changed_degree_three_cells(self, ring):
        # degree-(1, 2) cells moved within a row and between the u's of a
        # block, those of the t - 1 table (all, or block 1's only), and one
        # recipe replaced by a plain cell with its w coordinate dropped:
        # each is read off its own parts, and the report is the
        # reference's.  The t - 1 cells differ only over F5 (at f3)
        T = random_skew(ring, 7, random.Random(65), degree=1)
        td = trimmed_resolution(T, 3)
        table = full_table(td)
        v = B.V(2, 1, 2)
        tables = []
        for a, b in (((B.U(1, 1), v), (B.U(1, 1), B.V(2, 1, 3))),
                     ((B.U(1, 2), v), (B.U(1, 3), v))):
            swapped = dict(table.entries)
            swapped[a], swapped[b] = swapped[b], swapped[a]
            tables.append(swapped)
        tables.append(drop_w(td, table, ("u", "v"))[0].entries)
        previous = full_table(trimmed_resolution(T, 2)).entries
        foreign = [(x, y) for (x, y), cell in previous.items()
                   if (x, y) in table.entries and cell.degree == 3
                   and x.degree == 1]
        for pairs in (foreign, [(x, y) for x, y in foreign
                                if x.data[0] == 1]):
            tables.append({**table.entries,
                           **{pair: previous[pair] for pair in pairs}})
        for n, entries in enumerate(tables):
            tampered = ProductTable(td.complex, entries)
            report = verify_leibniz(td, tampered)
            expected = leibniz_reference(td, tampered)
            assert list(report.violations) == expected
            assert bool(expected) == (n < 3 or ring is R5)

    @pytest.mark.parametrize("ring,size,t,rows", [
        (R2, 7, 3, "certified"), (R5, 7, 3, "certified"),
        (RQ, 5, 3, "certified"), (R5, 5, 5, "certified"),
        (R5, 7, 3, "patched"), (R5, 5, 3, "vanishing")],
        ids=["F2-7", "F5-7", "QQ-5", "F5-5-all-u", "F5-7-uncertified",
             "F5-5-one-entry"])
    def test_clean_check_builds_no_cell(self, ring, size, t, rows,
                                        monkeypatch):
        # on a clean table every cell, e e, x x and u u of one block
        # included, is read off its parts: the check builds the coordinates
        # of none, with the rows S certified or not (when every C2 column
        # is checked in full).  The one-entry matrix, whose drop-one
        # pfaffians all vanish, has no certificate; the F5-7 one has its
        # certificate patched away
        if rows == "vanishing":
            T = SkewMatrix.from_upper(ring, size, {(1, 2): ring.gens[0]})
        else:
            T = random_skew(ring, size, random.Random(112 + size), degree=1)
        td = trimmed_resolution(T, t)
        assert (dgproducts._certified_rows(td.complex) is None) == \
            (rows == "vanishing")
        if rows == "patched":
            monkeypatch.setattr(dgproducts, "_certified_rows", lambda C: None)
        table = full_table(td)

        def forbidden(cell):
            raise AssertionError(f"built {cell.factors}")

        monkeypatch.setattr(dgproducts, "_built", forbidden)
        assert verify_leibniz(td, table).all_passed

    @pytest.mark.parametrize("ring,size,t", [(R2, 7, 3), (R5, 5, 5),
                                             (RQ, 5, 2)],
                             ids=["F2-7", "F5-5", "QQ-5"])
    def test_clean_check_builds_no_degree_three_cells(self, ring, size, t,
                                                      monkeypatch):
        # a clean certified check reads every degree-(1, 2) cell, own-block
        # w terms included, off its parts; so does the check of a table
        # with a recipe moved to another position, whose images it does
        # not share
        T = random_skew(ring, size, random.Random(122 + size), degree=1)
        td = trimmed_resolution(T, t)
        assert dgproducts._certified_rows(td.complex) is not None
        table = full_table(td)
        built, build = [], dgproducts._built

        def recording(cell):
            built.append(cell)
            return build(cell)

        monkeypatch.setattr(dgproducts, "_built", recording)
        assert verify_leibniz(td, table).all_passed
        assert not [cell for cell in built if cell.degree == 3]
        x, y = B.U(1, 2), B.F(1)
        moved = table.entries[(B.U(1, 1), y)]
        tampered = ProductTable(td.complex, {**table.entries, (x, y): moved})
        report = verify_leibniz(td, tampered)
        assert not [cell for cell in built if cell.degree == 3]
        assert list(report.violations) == leibniz_reference(td, tampered)


def tamper_off_block(td, table, mode):
    """Copy of the table with one cell of the non-anchor u1_2 changed where
    only rows of S outside block 1 see it (w2 has d3 nonzero on the v2 row
    of S alone), and the changed pair.  "boundary" adds d3(w2) to the C1
    cell u1_2*e_or_u of the last degree-1 basis element, which keeps every
    C1 residual; "w" drops the w2 coordinate of u1_2 times the first v2_ab
    that has one."""
    ring, C = td.ring, td.complex
    x, entries = B.U(1, 2), dict(table.entries)
    if mode == "boundary":
        y = C.basis(1)[-1]
        col = C.index_of(3, B.W(2))
        d3_w = ChainElement(ring, 2, {
            elem: row[col] for elem, row in zip(C.basis(2),
                                                C.differential(3))})
        entries[(x, y)] = entries[(x, y)] + d3_w
    else:
        y = next(y for y in C.basis(2) if y.kind == "v" and y.data[0] == 2
                 and B.W(2) in entries[(x, y)].coords)
        entries[(x, y)] = ChainElement(ring, 3, {
            e: c for e, c in entries[(x, y)].coords.items() if e != B.W(2)})
    return ProductTable(C, entries), (x, y)


class TestLeibnizBlockGate:
    """On C2 a certified u^i_l after the first certified u of its block
    (the anchor) reads the anchor's columns outside the block's own
    positions: when both are whole (every cell with a factor outside the
    block td's own recipe, in both degrees, and every cell of the block
    within its own positions) and z_a d1(x) = z_l d1(a), a column the
    anchor settled on S is checked on the block's rows of S only.  Any
    tamper must still give the reference's report."""

    @pytest.mark.parametrize("mode", ["boundary", "w"])
    @pytest.mark.parametrize("ring,size,t", [
        (R2, 7, 2), (R5, 5, 5), (R5, 7, 3), (RQ, 5, 2)],
        ids=["F2-7", "F5-5", "F5-7", "QQ-5"])
    def test_tamper_seen_outside_the_block(self, ring, size, t, mode):
        T = random_skew(ring, size, random.Random(120 + size), degree=1)
        td = trimmed_resolution(T, t)
        C = td.complex
        rows = dgproducts._certified_rows(C)
        assert rows is not None
        d3 = C.differential(3)
        col = C.index_of(3, B.W(2))
        seen = {r for r in rows if d3[r][col]}
        assert seen and not seen & dgproducts._own_block(C, 1)
        tampered, key = tamper_off_block(td, full_table(td), mode)
        report = verify_leibniz(td, tampered)
        expected = leibniz_reference(td, tampered)
        assert list(report.violations) == expected
        bad = [(x, y) for x, y, _ in expected]
        if mode == "w":
            assert key in bad
        else:
            # C1 stays clean and C2 breaks on the columns d2 sends to y
            assert all(y.degree == 2 for _, y in bad)
            assert bad and all(x == key[0] for x, _ in bad)
        r1, r2 = C.rank(1), C.rank(2)
        assert report.pairs_checked == r1 * (r1 + r2)

    @pytest.mark.parametrize("ring,size", [(R2, 7), (R5, 5), (RQ, 5)],
                             ids=["F2-7", "F5-5", "QQ-5"])
    def test_anchor_checks_the_block_on_all_rows(self, ring, size,
                                                 monkeypatch):
        # at t = m every degree-1 element is a u.  Count the C2 columns
        # checked on all of S (d3 cut to S): each block's anchor checks its
        # r2 columns, the other two only their 4 own-block columns, so r2 +
        # 8 per block against 3 r2 when every u is checked on its own
        T = random_skew(ring, size, random.Random(121 + size), degree=1)
        td = trimmed_resolution(T, size)
        C = td.complex
        rows = dgproducts._certified_rows(C)
        table = full_table(td)
        accumulate, on_all = dgproducts._accumulate, Counter()

        def counting(acc, combination, columns, addmul):
            if len(columns) == C.rank(3) and \
                    {r for column in columns for r, _ in column} == rows:
                on_all["S"] += 1
            return accumulate(acc, combination, columns, addmul)

        monkeypatch.setattr(dgproducts, "_accumulate", counting)
        assert verify_leibniz(td, table).all_passed
        assert on_all["S"] == size * (C.rank(2) + 8)
        # the same values with every degree-(1, 2) cell a plain element: no
        # u is whole, so each checks every column on S
        on_all.clear()
        plain = ProductTable(C, {pair: ChainElement(ring, 3, dict(
            cell.coords)) if cell.degree == 3 else cell
            for pair, cell in table.entries.items()})
        assert verify_leibniz(td, plain).all_passed
        assert on_all["S"] == 3 * size * C.rank(2)

    @pytest.mark.parametrize("ring,size,t", [(R2, 7, 3), (R5, 5, 5),
                                             (RQ, 5, 2)],
                             ids=["F2-7", "F5-5", "QQ-5"])
    def test_gate_checks_each_clause(self, ring, size, t, monkeypatch):
        # each clause of wholeness, broken for the non-anchor u1_2 alone,
        # where only rows of S outside block 1 would see it (d3(w2) is
        # nonzero on those rows alone): an off-block C1 coordinate, an
        # off-block C2 coordinate, a same-block u*u cell given one, the
        # anchor's (1, 2) cell moved to u1_2's place, the t - 1 table's (1,
        # 2) cells of u1_2, and u1_2*f1 with its w1 term dropped.  Each
        # report is the reference's; the last breaks the column f1, and
        # each other change but the t - 1 cells (which differ from the
        # table's at F5-5 only) a column outside the block.  Last, a table
        # whose e1*v gains w2 has all three u1_l*v wrong: with the anchor's
        # cell put right, u1_2's recipe is whole but the anchor is not
        T = random_skew(ring, size, random.Random(122 + size), degree=1)
        td = trimmed_resolution(T, t)
        C, x, anchor = td.complex, B.U(1, 2), B.U(1, 1)
        rows = dgproducts._certified_rows(C)
        own = dgproducts._own_block(C, 1)
        w2 = C.index_of(3, B.W(2))
        assert not {r for r in rows if C.differential(3)[r][w2]} & own
        table = full_table(td)
        assert verify_leibniz(td, table).all_passed
        d3_w2 = ChainElement(ring, 2, {elem: row[w2] for elem, row in zip(
            C.basis(2), C.differential(3))})
        v = next(y for y in C.basis(2) if y.kind == "v" and y.data[0] == 2
                 and table.entries[(x, y)].coords)
        previous = full_table(trimmed_resolution(T, t - 1)).entries
        entries = table.entries
        tampers = {
            "C1": {(x, C.basis(1)[-1]): entries[(x, C.basis(1)[-1])] + d3_w2},
            "C2": {(x, v): entries[(x, v)] + ChainElement.of(ring, B.W(2))},
            "same block": {(x, B.U(1, 3)): entries[(x, B.U(1, 3))] + d3_w2},
            "moved": {(x, v): entries[(anchor, v)]},
            "foreign": {(x, y): previous[(x, y)] for y in C.basis(2)
                        if (x, y) in previous},
            "changed": {(x, B.F(1)): ChainElement(ring, 3, {
                B.G(): entries[(x, B.F(1))].coefficient(B.G())})}}
        assert entries[(x, B.F(1))].coefficient(B.W(1))
        for mode, cells in tampers.items():
            tampered = ProductTable(C, {**entries, **cells})
            report = verify_leibniz(td, tampered)
            expected = leibniz_reference(td, tampered)
            assert list(report.violations) == expected, mode
            bad = [y for a, y, _ in expected if a == x and y.degree == 2]
            if mode == "changed":
                assert B.F(1) in bad
            elif mode != "foreign":
                assert any(C.index_of(2, y) not in own for y in bad), mode
        times = dgproducts._times_degree_two

        def wrong(td, i, y):
            pairs = times(td, i, y)
            if (i, y) != (1, v):
                return pairs
            (w, terms), = pairs
            assert w == B.W(2) and 0 not in terms
            return ((w, {**terms, 0: 1}),)

        td = trimmed_resolution(T, t)
        with monkeypatch.context() as patch:
            patch.setattr(dgproducts, "_times_degree_two", wrong)
            table = full_table(td)
        tampered = ProductTable(C, {**table.entries, (anchor, v): ChainElement(
            ring, 3, dict(entries[(anchor, v)].coords))})
        report = verify_leibniz(td, tampered)
        expected = leibniz_reference(td, tampered)
        assert list(report.violations) == expected
        assert [(a, y) for a, y, _ in expected if y == v] == [
            (B.U(1, 2), v), (B.U(1, 3), v)]


class TestCertifiedRows:
    """On C2, verify_leibniz checks each residual column on the t + 1 rows
    of _certified_rows and computes the full column only when the check
    cannot settle it; every report must be the one of the full check."""

    def test_rows_carry_a_nonzero_minor(self):
        tds = [example_trim()]
        for ring, size, t in ((R2, 7, 3), (R5, 5, 5), (R5, 7, 1), (RQ, 5, 2)):
            T = random_skew(ring, size, random.Random(80 + size + t), degree=1)
            tds.append(trimmed_resolution(T, t))
        for td in tds:
            rows = dgproducts._certified_rows(td.complex)
            assert rows is not None and len(rows) == td.t + 1
            d3 = td.complex.differential(3)
            assert det_bareiss(td.ring, [d3[r] for r in sorted(rows)])

    def test_no_certificate_when_pfaffians_vanish(self):
        # one nonzero entry pair: every drop-one pfaffian is zero
        T = SkewMatrix.from_upper(R5, 5, {(1, 2): R5.gens[0]})
        for t in (1, 3):
            td = trimmed_resolution(T, t)
            assert dgproducts._certified_rows(td.complex) is None
            table = full_table(td)
            for tab in (table, tamper_degree_one(td, table, "one")[0]):
                report = verify_leibniz(td, tab)
                assert list(report.violations) == leibniz_reference(td, tab)

    @pytest.mark.parametrize("ring,size", [(R2, 7), (R5, 7), (RQ, 5)],
                             ids=["F2-7", "F5-7", "QQ-5"])
    def test_same_reports_without_certificate(self, ring, size, monkeypatch):
        T = random_skew(ring, size, random.Random(90 + size), degree=1)
        td = trimmed_resolution(T, 3)
        assert dgproducts._certified_rows(td.complex) is not None
        table = full_table(td)
        tables = [table, drop_w(td, table, ("u", "v"))[0]] + [
            tamper_degree_one(td, table, mode)[0]
            for mode in ("one", "negatives", "different")]
        reports = [verify_leibniz(td, tab) for tab in tables]
        assert reports[0].all_passed
        assert not any(report.all_passed for report in reports[1:])
        monkeypatch.setattr(dgproducts, "_certified_rows", lambda C: None)
        assert [verify_leibniz(td, tab) for tab in tables] == reports

    def test_no_certificate_past_modulus_denominator(self, monkeypatch):
        # a coefficient whose denominator QQ_MODULUS divides has no residue
        # mod QQ_MODULUS, so no point is tried; with 1/7 there it certifies
        T = random_skew(RQ, 5, random.Random(95), degree=1)
        upper = {(i, j): T.entry(i, j) for i in range(1, 6)
                 for j in range(i + 1, 6)}

        def trimming(coeff):
            upper[(1, 2)] = RQ.from_terms({(1, 0, 0): coeff, (0, 1, 0): 1})
            return trimmed_resolution(SkewMatrix.from_upper(RQ, 5, upper), 2)

        assert dgproducts._certified_rows(
            trimming(Fraction(1, 7)).complex) is not None
        td = trimming(Fraction(1, QQ_MODULUS))
        assert dgproducts._certified_rows(td.complex) is None
        table = full_table(td)
        tables = [table] + [tamper_degree_one(td, table, mode)[0]
                            for mode in ("one", "different")]
        reports = [verify_leibniz(td, tab) for tab in tables]
        assert reports[0].all_passed
        assert not any(report.all_passed for report in reports[1:])
        monkeypatch.setattr(dgproducts, "_certified_rows", lambda C: None)
        assert [verify_leibniz(td, tab) for tab in tables] == reports

    @pytest.mark.parametrize("d", [2, 3])
    def test_changed_boundary_gives_no_certificate(self, d):
        # d1 d2 or d2 d3 no longer vanishes: the rows are not trusted, and
        # the report is still the full check's
        T = random_skew(R5, 7, random.Random(65), degree=1)
        td = trimmed_resolution(T, 3)
        C = td.complex
        bounds = [[list(row) for row in C.differential(k)] for k in (1, 2, 3)]
        bounds[d - 1][-1][0] = bounds[d - 1][-1][0] + R5.gens[0]
        changed = dataclasses.replace(
            td, complex=ChainComplex(td.ring, C.bases, bounds))
        assert not changed.complex.composes_to_zero()
        assert dgproducts._certified_rows(changed.complex) is None
        table = full_table(td)
        report = verify_leibniz(changed, table)
        assert list(report.violations) == leibniz_reference(changed, table)

    def test_no_certificate_without_exactness(self):
        # with d1 and d2 zero every composition vanishes and d3 keeps its
        # rank, but ker d2 is all of C2, so the rank count refuses
        td = trimmed_resolution(random_skew(R5, 7, random.Random(65)), 3)
        C = td.complex
        zeros = [[[R5.zero] * len(row) for row in C.differential(k)]
                 for k in (1, 2)]
        C0 = ChainComplex(R5, C.bases, (*zeros, C.differential(3)))
        assert C0.composes_to_zero()
        assert dgproducts._certified_rows(C0) is None

    def test_c2_products_read_only_certified_rows(self, monkeypatch):
        T = random_skew(R5, 7, random.Random(64), degree=1)
        td = trimmed_resolution(T, 3)
        C = td.complex
        table = full_table(td)
        rows = dgproducts._certified_rows(C)
        assert rows is not None
        # the term dicts of L_x on C1, by whether their row is in S.  Each
        # read builds the cell anew, so the builds are kept alive: a freed
        # term dict's id could be reused by one verify_leibniz makes
        inside, outside, built = set(), set(), []
        for x in C.basis(1):
            for y in C.basis(1):
                built.append(table.lookup(x, y).coords)
                for elem, coeff in built[-1].items():
                    side = inside if C.index_of(2, elem) in rows else outside
                    side.add(id(coeff.terms))
        outside -= {id(entry.terms) for d in (1, 2, 3)
                    for row in C.differential(d) for entry in row}
        read = set()
        addmul = _poly_core.addmul_into

        def recording(acc, a, b, p, sign):
            # in L_x d2 the first factor is the L_x entry
            read.add(id(a))
            return addmul(acc, a, b, p, sign)

        monkeypatch.setattr(_poly_core, "addmul_into", recording)
        assert verify_leibniz(td, table).all_passed
        assert read & inside
        assert not read & outside


# sha256 digests that pin every product and every correction constant:
# full_table(td).records() over t = 1..m for one seeded matrix per field and
# size (size 5: degree <= 2, three terms, not homogeneous; size 7: linear,
# 60% of entries set), and d_constants over every admissible tuple.  A change
# to the product rules that moves any cell changes a digest.
DIGEST_FIELDS = {"F2": PrimeField(2), "F3": PrimeField(3),
                 "F5": PrimeField(5), "QQ": QQ}
TABLE_DIGESTS = {
    ("F2", 5): "953c8a2b77e4d8a81bc60c5b45e8ebc37ff6df9f59b62fcbc838d78793a3967f",
    ("F2", 7): "cd497772a46bc05e0e0365efafdc4fc55e65318ffa4db683a7d1f402bd58383e",
    ("F3", 5): "14cb3298000f204eb1d4ff00a267ee65eddfa3a9ff950b1c433caedbd46549fc",
    ("F3", 7): "da6666e0c31a6e691a4fb476183ab067941e30eb1ded55c81d945c585e0c2bb6",
    ("F5", 5): "798cf9d4bef25ea862e59af3a0b7db319894502033e0386c0d75e5512e1ac689",
    ("F5", 7): "a1f4c6da6d26184224b7254cd3a89d9dd2b00badb6678d8fed8921793ceb6fae",
    ("QQ", 5): "d51a92ebbed68a65552328e099992c4d1c4c2b6a3ec035b6be822f139461357c",
    ("QQ", 7): "4246f1e37250f928c4172b20bb8f51bca73dd34b2b820cf83dfcd552245d4a60",
}
D_CONSTANTS_DIGEST = \
    "96f5820a3a80cc92c0806ad3695da66048d06b953c89c9342d958d23001ae788"
# sha256 digests of the untrimmed structure on the same matrices: the
# gorenstein_resolution document (labels and boundaries), then
# gorenstein_product on every ordered pair of basis elements of degrees 0-3.
UNTRIMMED_DIGESTS = {
    ("F2", 5): "b80f219c76f3ec8f0637e6862d543818cdd6bdec9161f98c078b2d04a512b2cb",
    ("F2", 7): "e8d5925465536ea50fcd5d7015914ec39a2d84ac8add1770c033d62beef666c0",
    ("F3", 5): "2a177f8220d8307905ceb8fea142b175387bc7c4b1760f8e26665db95f4e0003",
    ("F3", 7): "e5131476cdf20c24678bd24e8ea780f738004639a7c7bff852e0e20005a10309",
    ("F5", 5): "48f1b91fc72114da4a8aef47a559dd4efa0a5b066a606c341eab7da09e0c318a",
    ("F5", 7): "c2b61046a054b12bc3ba9b8cdd011796120a82bb4a1d32ed6ef4728374270f82",
    ("QQ", 5): "a786a3f694f6837648ce89f5d023f2d1a7f65ce527cdfecb1cab51d68d112b9d",
    ("QQ", 7): "ac44bfdde8569803dd5e8bf798f2162faa8f8b0d11cdb13d1f1c7a6804af21d2",
}


def digest_matrix(name, m):
    ring = PolyRing(DIGEST_FIELDS[name])
    rng = random.Random(100 * list(DIGEST_FIELDS).index(name) + m)
    if m == 5:
        return random_skew(ring, m, rng, degree=2, terms=3, homogeneous=False)
    return random_skew(ring, m, rng, degree=1, density=0.6)


class TestGoldenDigests:
    @pytest.mark.parametrize("name,m", sorted(TABLE_DIGESTS))
    def test_product_tables(self, name, m):
        T = digest_matrix(name, m)
        h = hashlib.sha256()
        for t in range(1, m + 1):
            records = full_table(trimmed_resolution(T, t)).records()
            h.update(json.dumps(records).encode())
        assert h.hexdigest() == TABLE_DIGESTS[(name, m)]

    @pytest.mark.parametrize("name,m", sorted(TABLE_DIGESTS))
    def test_every_cell_an_own_recipe(self, name, m):
        # every cell with a degree-1 factor, x x and u u of one block
        # included, is td's own recipe of its factors at its own position;
        # a (2, 1) cell is the recipe of the swapped pair
        T, factor = digest_matrix(name, m), dgproducts._factor
        for t in range(1, m + 1):
            td = trimmed_resolution(T, t)
            entries = full_table(td).entries
            r1, r2 = td.complex.rank(1), td.complex.rank(2)
            assert len(entries) == r1 * (r1 + 2 * r2)
            for (x, y), cell in entries.items():
                if x.degree == 2:
                    x, y = y, x
                factors = (*factor(x), *factor(y)) if y.degree == 1 else \
                    (*factor(x), y)
                assert isinstance(cell, dgproducts._Recipe), (t, x, y)
                assert cell.td is td and cell.factors == factors, (t, x, y)

    @pytest.mark.parametrize("name,m", sorted(TABLE_DIGESTS))
    def test_residues_match_constant_terms(self, name, m):
        # each cell's residues, read off the parts for a recipe, are the
        # nonzero constant terms of its coordinates, negated recipes (lower
        # cells, and cells with one u factor) and QQ's -c included.  The
        # size-7 matrices are linear, so no degree-(1, 1) cell of theirs
        # has a constant term
        T = digest_matrix(name, m)
        negated = 0
        for t in range(1, m + 1):
            td = trimmed_resolution(T, t)
            for cell in full_table(td).entries.values():
                residues = cell._residues()
                assert residues == {
                    elem: coeff.constant_term()
                    for elem, coeff in cell.coords.items()
                    if coeff.constant_term() != 0}
                negated += bool(residues and getattr(cell, "negate", False))
        assert bool(negated) == (m == 5)

    @pytest.mark.parametrize("name,m", sorted(TABLE_DIGESTS))
    def test_own_block_products_hold_no_own_w(self, name, m):
        # e_i y for y of block i is g (y = f_i) or zero (y = v^i_ab), never
        # a w^i term, so the own-block w^i part of each u^i_l y is disjoint
        # from it, as a recipe's coords and _residues take the parts to be
        T = digest_matrix(name, m)
        own = 0
        for t in range(1, m + 1):
            td = trimmed_resolution(T, t)
            for i in range(1, t + 1):
                for y in td.complex.basis(2):
                    if y.data[0] == i:
                        pairs = dict(dgproducts._times_degree_two(td, i, y))
                        assert list(pairs) == ([B.G()] if y.kind == "f"
                                               else [])
                        own += sum(len(dgproducts._degree_two_parts(
                            td, i, l, y)[1]) == 2 for l in (1, 2, 3))
        assert own

    @pytest.mark.parametrize("name,m", sorted(UNTRIMMED_DIGESTS))
    def test_untrimmed_structure(self, name, m):
        T = digest_matrix(name, m)
        F = gorenstein_resolution(T)
        h = hashlib.sha256(json.dumps(F.to_document()).encode())
        basis = [x for d in range(4) for x in F.basis(d)]
        for x in basis:
            for y in basis:
                value = gorenstein_product(T, x, y)
                h.update(f"{x.label}*{y.label}={value.degree}:{value};".encode())
        assert h.hexdigest() == UNTRIMMED_DIGESTS[(name, m)]

    def test_d_constants(self):
        ring = PolyRing(QQ)
        T = random_skew(ring, 5, random.Random(1005), degree=2, terms=3,
                        homogeneous=False)
        td = trimmed_resolution(T, 5)
        h = hashlib.sha256()
        for flavor, n_vars in (("two_index", 0), ("three_index", 1),
                               ("four_index", 2)):
            for k, i, j in itertools.product(range(1, 6), repeat=3):
                for rest in itertools.product((1, 2, 3), repeat=n_vars + 2):
                    value = d_constants(td, flavor, (k, i, j, *rest))
                    h.update(str(value).encode() + b";")
        assert h.hexdigest() == D_CONSTANTS_DIGEST
