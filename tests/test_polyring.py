"""Field and polynomial ring behaviour: parsing, printing, arithmetic,
the maximal-ideal decomposition, and arithmetic parity with the schoolbook
oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pftrim.errors import ArgumentError, EntryNotInMaximalIdeal, \
    FieldMismatch, ParseError
from pftrim.polyring import EXPONENT_LIMIT, PolyRing, PrimeField, QQ, \
    decompose_c, poly_arith

from oracles import oracle_poly_add, oracle_poly_mul, poly_from_tuples, \
    random_poly, tuple_terms


R2 = PolyRing(PrimeField(2))
R5 = PolyRing(PrimeField(5))
RQ = PolyRing(QQ)


class TestFields:
    def test_prime_validation(self):
        for bad in (0, 1, 4, 9, 2 ** 31, 2 ** 31 + 5, -3, "7"):
            with pytest.raises(ArgumentError):
                PrimeField(bad)
        assert PrimeField(2 ** 31 - 1).p == 2 ** 31 - 1

    def test_canonical_representatives(self):
        f = PrimeField(5)
        assert f.of(-1) == 4
        assert f.of(Fraction(1, 2)) == 3
        assert f.inv(3) == 2
        with pytest.raises(ArgumentError):
            f.of(Fraction(1, 5))

    def test_rationals(self):
        assert QQ.char == 0
        assert QQ.of(3) == Fraction(3)
        assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)

    def test_equality(self):
        assert PrimeField(7) == PrimeField(7)
        assert PrimeField(7) != PrimeField(5)
        assert QQ == QQ and QQ != PrimeField(2)


class TestRingConstruction:
    def test_gens_and_names(self):
        x, y, z = RQ.gens
        assert str(x) == "x" and str(y) == "y" and str(z) == "z"
        other = PolyRing(QQ, ("a", "b", "c"))
        assert str(other.gens[0]) == "a"

    def test_bad_names(self):
        for names in (("x", "y"), ("x", "x", "y"), ("x", "y", "2z")):
            with pytest.raises(ArgumentError):
                PolyRing(QQ, names)

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            R2.gens[0] + R5.gens[0]

    def test_monomial_validation(self):
        with pytest.raises(ArgumentError):
            RQ.monomial(1, (0, 0, EXPONENT_LIMIT + 1))
        assert RQ.monomial(0, (1, 2, 3)).is_zero


class TestParsing:
    def test_golden_strings(self):
        x, y, z = RQ.gens
        assert RQ.from_string("x*y + z^2") == x * y + z ** 2
        assert RQ.from_string("-y") == -y
        assert RQ.from_string("3*x^2 - 2*x*y") == 3 * x ** 2 - 2 * x * y
        assert RQ.from_string("5") == RQ.constant(5)
        assert RQ.from_string("0") == RQ.zero
        assert RQ.from_string("- -x") == x
        assert RQ.from_string("2*3*x") == 6 * x
        assert RQ.from_string("x*x") == x ** 2

    def test_char_two_cancellation(self):
        assert R2.from_string("x + x").is_zero
        assert R2.from_string("3*x") == R2.gens[0]

    def test_parse_errors(self):
        for bad in ("", "x +", "x y", "x^-1", "x^", "w", "x**2", "x@y", "+"):
            with pytest.raises(ParseError):
                RQ.from_string(bad)

    def test_error_position(self):
        with pytest.raises(ParseError, match="column 3"):
            RQ.from_string("x @")

    def test_custom_names(self):
        ring = PolyRing(PrimeField(3), ("u", "v", "w"))
        u, v, w = ring.gens
        assert ring.from_string("u*v - w") == u * v - w
        with pytest.raises(ParseError):
            ring.from_string("x")


class TestPrinting:
    def test_descending_graded_order(self):
        x, y, z = RQ.gens
        f = z + x * y + RQ.constant(1) + x ** 3
        assert str(f) == "x^3 + x*y + z + 1"

    def test_negative_coefficients(self):
        x, y, z = RQ.gens
        assert str(-x + 2 * y - 3) == "-x + 2*y - 3"

    def test_zero(self):
        assert str(RQ.zero) == "0"

    def test_roundtrip_small(self):
        for text in ("x^2 + y*z", "-x + y - z", "2*x^2*y^3*z", "7"):
            f = RQ.from_string(text)
            assert RQ.from_string(str(f)) == f


class TestArithmetic:
    def test_poly_arith_dispatch(self):
        x, y, _ = RQ.gens
        assert poly_arith(x, y, "add") == x + y
        assert poly_arith(x, y, "sub") == x - y
        assert poly_arith(x, y, "mul") == x * y
        with pytest.raises(ArgumentError):
            poly_arith(x, y, "div")

    def test_scalar_mixing(self):
        x = R5.gens[0]
        assert 2 * x + x == 3 * x
        assert x - 1 == x + 4
        assert (x + 1) * 5 == R5.zero

    def test_pow(self):
        x = RQ.gens[0]
        assert x ** 0 == RQ.one
        assert x ** 3 == x * x * x
        with pytest.raises(ArgumentError):
            x ** -1

    def test_degree_and_terms(self):
        x, y, z = RQ.gens
        f = x * y ** 2 + z
        assert f.degree() == 3
        assert RQ.zero.degree() == -1
        assert f.coefficient((1, 2, 0)) == 1
        assert f.coefficient((3, 0, 0)) == 0
        assert (f - f).is_zero
        assert f.monomials() == [(1, 2, 0), (0, 0, 1)]


class TestDecompose:
    def test_greedy_rule(self):
        x, y, z = RQ.gens
        f = x ** 2 + x * y + y * z + z ** 2
        c1, c2, c3 = decompose_c(f)
        assert c1 == x + y
        assert c2 == z
        assert c3 == z

    def test_reconstruction(self):
        rng = random.Random(11)
        for ring in (R2, R5, RQ):
            x, y, z = ring.gens
            for _ in range(25):
                f = random_poly(ring, rng, 4, 5)
                f = f - f.constant_term()
                c1, c2, c3 = decompose_c(f)
                assert c1 * x + c2 * y + c3 * z == f

    def test_rejects_constant_term(self):
        with pytest.raises(EntryNotInMaximalIdeal):
            decompose_c(RQ.one + RQ.gens[0])

    def test_zero(self):
        assert decompose_c(RQ.zero) == (RQ.zero, RQ.zero, RQ.zero)


def _poly_strategy(ring):
    exps = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
    if ring.field.char:
        coeff = st.integers(1, ring.field.char - 1)
    else:
        coeff = st.fractions(min_value=-5, max_value=5).filter(bool)
    return st.dictionaries(exps, coeff, max_size=6).map(ring.from_terms)


@pytest.mark.parametrize("ring", [R2, PolyRing(PrimeField(3)), R5, RQ],
                         ids=lambda r: repr(r.field))
class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_axioms(self, ring, data):
        f = data.draw(_poly_strategy(ring))
        g = data.draw(_poly_strategy(ring))
        h = data.draw(_poly_strategy(ring))
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + ring.zero == f
        assert f * ring.one == f
        assert f - f == ring.zero
        assert f * ring.zero == ring.zero

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_backend_matches_oracle(self, ring, data):
        p = ring.field.char
        f = data.draw(_poly_strategy(ring))
        g = data.draw(_poly_strategy(ring))
        assert tuple_terms(f + g) == oracle_poly_add(tuple_terms(f), tuple_terms(g), p)
        assert tuple_terms(f * g) == oracle_poly_mul(tuple_terms(f), tuple_terms(g), p)
        back = poly_from_tuples(ring, oracle_poly_mul(tuple_terms(f), tuple_terms(g), p))
        assert back == f * g

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_string_roundtrip(self, ring, data):
        f = data.draw(_poly_strategy(ring))
        if ring.field.char == 0:
            # the textual grammar carries integer coefficients only
            f = ring.from_terms({e: c.numerator for e, c in tuple_terms(f).items()})
        assert ring.from_string(str(f)) == f
