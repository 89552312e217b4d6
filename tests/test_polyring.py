"""Field and polynomial ring behaviour: parsing, printing, arithmetic,
the maximal-ideal decomposition, and arithmetic parity with the schoolbook
oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pftrim.errors import ArgumentError, EntryNotInMaximalIdeal, \
    FieldMismatch, ParseError
from pftrim.polyring import EXPONENT_LIMIT, PolyRing, Polynomial, \
    PrimeField, QQ, decompose_c, pack_exponents

from oracles import oracle_poly_add, oracle_poly_mul, poly_from_tuples, \
    random_poly, tuple_terms


R2 = PolyRing(PrimeField(2))
R5 = PolyRing(PrimeField(5))
RQ = PolyRing(QQ)


class TestFields:
    def test_prime_validation(self):
        # 2147117569 = 46337^2 needs the divisor isqrt(n) itself
        for bad in (0, 1, 4, 9, 2 ** 31, 2 ** 31 + 5, -3, "7", 2147117569):
            with pytest.raises(ArgumentError):
                PrimeField(bad)
        for p in (2 ** 31 - 1, 2147483629):
            assert PrimeField(p).p == p

    def test_miller_rabin_witnesses(self):
        # 1373653 = 829 * 1657 is a strong pseudoprime to bases 2 and 3;
        # trial division finds its factor 829
        assert PrimeField(41).p == 41
        with pytest.raises(ArgumentError):
            PrimeField(1373653)

    def test_primes_match_sieve(self):
        limit = 20000
        sieve = [True] * limit
        sieve[0] = sieve[1] = False
        for q in range(2, 142):
            if sieve[q]:
                sieve[q * q::q] = [False] * len(range(q * q, limit, q))
        for n in range(2, limit):
            if sieve[n]:
                assert PrimeField(n).p == n
            else:
                with pytest.raises(ArgumentError):
                    PrimeField(n)

    def test_canonical_representatives(self):
        f = PrimeField(5)
        assert f.of(-1) == 4
        assert f.of(Fraction(1, 2)) == 3
        assert f.inv(3) == 2
        with pytest.raises(ArgumentError):
            f.of(Fraction(1, 5))

    def test_rationals(self):
        assert QQ.char == 0
        assert QQ.of(3) == Fraction(3) == 3
        assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)

    def test_equality(self):
        assert PrimeField(7) == PrimeField(7)
        assert PrimeField(7) != PrimeField(5)
        assert QQ == QQ and QQ != PrimeField(2)


def coefficient_types(f):
    return {type(c) for c in f.terms.values()}


class TestRationalForm:
    # over QQ a value is an int when its denominator is 1, a Fraction
    # otherwise
    def test_integral_values_are_ints(self):
        for value in (QQ.of(3), QQ.of(Fraction(6, 3)), QQ.inv(1), QQ.inv(-1),
                      QQ.inv(Fraction(-1, 4))):
            assert type(value) is int
        assert (QQ.inv(1), QQ.inv(-1), QQ.inv(Fraction(-1, 4))) == (1, -1, -4)
        f = RQ.from_string("3*x^2 - 2*y*z + 5")
        g = RQ.from_string("-x + 7*z")
        built = (f, g, f + g, f - g, f * g, -f, f ** 2, f + 1, 2 - g,
                 f.scaled(4), f.scaled(Fraction(8, 2)), RQ.constant(-2),
                 RQ.monomial(Fraction(9, 3), (1, 0, 0)),
                 RQ.from_terms({(1, 0, 0): Fraction(4, 2), (0, 1, 0): -1}))
        for h in built:
            assert coefficient_types(h) == {int}, h

    def test_non_integral_values_stay_fractions(self):
        assert type(QQ.of(Fraction(2, 4))) is Fraction
        assert QQ.inv(2) == Fraction(1, 2) and type(QQ.inv(2)) is Fraction
        x = RQ.gens[0]
        f = x.scaled(Fraction(2, 3)) - RQ.constant(Fraction(-1, 2))
        assert coefficient_types(f) == {Fraction}
        assert str(f) == "2/3*x + 1/2"

    def test_both_forms_of_an_integer_agree(self):
        key = pack_exponents(1, 0, 2)
        a = Polynomial(RQ, {key: 2})
        b = Polynomial(RQ, {key: Fraction(2)})
        assert a == b and hash(a) == hash(b) and str(a) == str(b) == "2*x*z^2"
        assert a - b == RQ.zero


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
        for exps, bad in (((0, EXPONENT_LIMIT + 1, 0), EXPONENT_LIMIT + 1),
                          ((-1, 0, 0), -1)):
            with pytest.raises(ArgumentError, match=rf"^exponent {bad} "
                               rf"outside 0\.\.{EXPONENT_LIMIT}$"):
                R5.monomial(1, exps)
        with pytest.raises(ValueError):
            R5.monomial(1, (1, 2))
        with pytest.raises(ArgumentError, match="vanishes mod 5"):
            R5.monomial(Fraction(1, 5), (1, 0, 0))
        assert R5.monomial(7, [2, 0, 1]) == 2 * R5.gens[0] ** 2 * R5.gens[2]
        assert R5.monomial(10, (1, 1, 1)).is_zero

    def test_product_past_exponent_limit_raises(self):
        # unchecked, x^524287 cubed would carry between lanes into y
        top = R2.monomial(1, (EXPONENT_LIMIT, 0, 0))
        with pytest.raises(ArgumentError, match="exponent above"):
            top * top * top
        with pytest.raises(ArgumentError, match="exponent above"):
            top * R2.gens[0]
        with pytest.raises(ArgumentError, match="exponent above"):
            R2.monomial(1, (0, 0, EXPONENT_LIMIT)) ** 2
        half = R2.monomial(1, (0, EXPONENT_LIMIT // 2, 0))
        assert str(half * half * R2.gens[1]) == f"y^{EXPONENT_LIMIT}"


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

    @pytest.mark.parametrize("ring", [R2, R5, RQ], ids=["F2", "F5", "QQ"])
    def test_cancelled_term_added_back(self, ring):
        x, y, _ = ring.gens
        f = ring.from_string("x + y - x + x")
        assert f == x + y
        assert str(f) == "x + y"

    def test_parse_errors(self):
        for bad in ("", "x +", "x y", "x^-1", "x^", "w", "x**2", "x@y", "+"):
            with pytest.raises(ParseError):
                RQ.from_string(bad)

    def test_error_position(self):
        with pytest.raises(ParseError, match="column 3"):
            RQ.from_string("x @")

    def test_integer_literal_past_digit_limit(self):
        # int() refuses more than 4300 digits with a ValueError
        with pytest.raises(ParseError, match=r"too long \(5000 digits\) at column 1"):
            RQ.from_string("9" * 5000 + "*x")
        with pytest.raises(ParseError, match=r"too long \(4400 digits\) at column 7"):
            RQ.from_string("y + x^" + "9" * 4400)

    def test_exponent_past_limit(self):
        for text, col in (("x^524288", 9), ("x^300000*x^300000", 18)):
            with pytest.raises(ParseError, match=rf"^exponent above "
                               rf"{EXPONENT_LIMIT} at column {col}$"):
                RQ.from_string(text)

    def test_non_ascii_digits(self):
        # Arabic-Indic three and a fullwidth two are decimal digits to \d
        with pytest.raises(ParseError, match="column 1"):
            RQ.from_string("\u0663*x")
        with pytest.raises(ParseError, match="column 3"):
            RQ.from_string("x^\u0663")
        with pytest.raises(ParseError, match="column 6"):
            RQ.from_string("y + 1\uff12*z")

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

    def test_coefficients_past_digit_limit(self):
        # str() refuses ints of more than 4300 digits with a ValueError
        x = RQ.gens[0]
        big = 10 ** 5000
        assert str(x.scaled(-big) + 1) == "-1" + "0" * 5000 + "*x + 1"
        assert str(x.scaled(Fraction(3, big))) == "3/1" + "0" * 5000 + "*x"
        assert str(RQ.constant(Fraction(big, 7))) == "1" + "0" * 5000 + "/7"

    def test_roundtrip_small(self):
        for text in ("x^2 + y*z", "-x + y - z", "2*x^2*y^3*z", "7"):
            f = RQ.from_string(text)
            assert RQ.from_string(str(f)) == f


class TestArithmetic:
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

    def test_pow_refuses_bools_and_floats(self):
        # bool is an int subclass: x ** True must not pass as x ** 1
        x = R5.gens[0]
        for bad in (True, False, 2.0, "2"):
            with pytest.raises(ArgumentError, match="nonnegative integer"):
                x ** bad

    def test_degree_and_terms(self):
        x, y, z = RQ.gens
        f = x * y ** 2 + z
        assert f.degree() == 3
        assert RQ.zero.degree() == -1
        assert f.coefficient((1, 2, 0)) == 1
        assert f.coefficient((3, 0, 0)) == 0
        assert (f - f).is_zero
        assert str(f) == "x*y^2 + z"


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
