"""Exact coefficient fields and the three-variable polynomial ring.

Everything downstream (pfaffians, resolutions, product tables,
classification) works over R = k[z1, z2, z3] for an exact field k, which
is either a prime field F_p or the rationals.  Polynomials are stored
sparsely as dicts from a packed exponent key to a nonzero coefficient,
with the three exponents packed into 20-bit lanes of one integer so that
monomial multiplication is a single integer addition.

The canonical term order is graded lexicographic with z1 > z2 > z3;
serialization and display list terms in decreasing order, so equal
polynomials always print identically.  The default display names for
z1, z2, z3 are x, y, z.

Example:
    >>> ring = PolyRing(PrimeField(2))
    >>> x, y, z = ring.gens
    >>> (x + y) * (x + y)
    Polynomial(x^2 + y^2 over F2)
    >>> ring.from_string("x*y + z^2") == x * y + z ** 2
    True
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ArgumentError, EntryNotInMaximalIdeal, FieldMismatch, ParseError

# Every caller, in this module and the others, resolves ``polyring._core`` at
# call time instead of binding the kernels at import, so that the counting
# proxy of perfbench/tracing.py can stand in for the kernel module.
from . import _poly_core as _core


_LANE_BITS = 20
_LANE_MASK = (1 << _LANE_BITS) - 1

#: Largest exponent a single variable may carry.  Chosen so that the sum of
#: two valid exponents still fits in one 20-bit lane without carrying.
EXPONENT_LIMIT = (1 << (_LANE_BITS - 1)) - 1


def pack_exponents(a1: int, a2: int, a3: int) -> int:
    return a1 | (a2 << _LANE_BITS) | (a3 << (2 * _LANE_BITS))


def unpack_exponents(key: int) -> tuple[int, int, int]:
    return (key & _LANE_MASK, (key >> _LANE_BITS) & _LANE_MASK,
            (key >> (2 * _LANE_BITS)) & _LANE_MASK)


def monomial_degree(key: int) -> int:
    return (key & _LANE_MASK) + ((key >> _LANE_BITS) & _LANE_MASK) + \
        ((key >> (2 * _LANE_BITS)) & _LANE_MASK)


def _is_prime(n: int) -> bool:
    # Deterministic Miller-Rabin; this witness set is exact far beyond 2^31.
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        v = pow(a, d, n)
        if v in (1, n - 1):
            continue
        for _ in range(s - 1):
            v = v * v % n
            if v == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field F_p with canonical representatives in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not 2 <= p <= 2 ** 31 or not _is_prime(p):
            raise ArgumentError(f"field characteristic must be a prime <= 2^31, got {p!r}")
        self.p = p

    @property
    def char(self) -> int:
        return self.p

    def of(self, value) -> int:
        """Canonical representative of an integer value."""
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ArgumentError(f"denominator of {value} vanishes mod {self.p}")
            return value.numerator * pow(value.denominator, -1, self.p) % self.p
        return int(value) % self.p

    def inv(self, value):
        return pow(value, -1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"F{self.p}"


class RationalField:
    """The rationals, with fully reduced Fraction values."""

    __slots__ = ()

    @property
    def char(self) -> int:
        return 0

    def of(self, value) -> Fraction:
        return Fraction(value)

    def inv(self, value) -> Fraction:
        return 1 / Fraction(value)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "QQ"


#: Shared rationals instance.
QQ = RationalField()

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


class PolyRing:
    """Polynomial ring in three fixed variables over an exact field.

    Attributes:
        field: the coefficient field (PrimeField or RationalField).
        var_names: display/parse names of the three variables.
        gens: the three variable polynomials.
        zero, one: cached constants.
    """

    __slots__ = ("field", "var_names", "gens", "zero", "one", "_p")

    def __init__(self, field, var_names=("x", "y", "z")):
        names = tuple(var_names)
        if len(names) != 3 or len(set(names)) != 3 or \
                not all(_NAME_RE.match(n) for n in names):
            raise ArgumentError(f"need three distinct variable names, got {names!r}")
        self.field = field
        self.var_names = names
        self._p = field.char
        self.zero = Polynomial(self, {})
        self.one = Polynomial(self, {0: field.of(1)})
        self.gens = tuple(
            Polynomial(self, {pack_exponents(*(int(i == j) for j in range(3))):
                              field.of(1)})
            for i in range(3))

    def constant(self, value) -> "Polynomial":
        c = self.field.of(value)
        return Polynomial(self, {0: c} if c else {})

    def monomial(self, coeff, exponents) -> "Polynomial":
        a1, a2, a3 = exponents
        for a in (a1, a2, a3):
            if not 0 <= a <= EXPONENT_LIMIT:
                raise ArgumentError(f"exponent {a} outside 0..{EXPONENT_LIMIT}")
        c = self.field.of(coeff)
        return Polynomial(self, {pack_exponents(a1, a2, a3): c} if c else {})

    def from_terms(self, mapping) -> "Polynomial":
        """Build a polynomial from {(a1, a2, a3): coefficient}, normalizing."""
        terms = {}
        for exps, coeff in mapping.items():
            a1, a2, a3 = exps
            for a in (a1, a2, a3):
                if not 0 <= a <= EXPONENT_LIMIT:
                    raise ArgumentError(f"exponent {a} outside 0..{EXPONENT_LIMIT}")
            key = pack_exponents(a1, a2, a3)
            s = terms.get(key, 0) + self.field.of(coeff)
            if self._p:
                s %= self._p
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
        return Polynomial(self, terms)

    def from_string(self, text: str) -> "Polynomial":
        """Parse the textual grammar: terms joined by + or -, each term an
        optional integer coefficient and *-separated variable powers with
        optional ^k exponents.  Examples: "x*y + z^2", "3*x^2", "-y".
        """
        return _parse(self, text)

    def __eq__(self, other):
        return isinstance(other, PolyRing) and other.field == self.field \
            and other.var_names == self.var_names

    def __hash__(self):
        return hash((self.field, self.var_names))

    def __repr__(self):
        return f"PolyRing({self.field!r}, vars={','.join(self.var_names)})"


def _sort_key(key):
    a1, a2, a3 = unpack_exponents(key)
    return (-(a1 + a2 + a3), -a1, -a2, -a3)


class Polynomial:
    """Immutable sparse polynomial.  Use PolyRing factories to build one."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        # terms must already be canonical (nonzero field coefficients,
        # valid exponent lanes); the ring factories guarantee this.
        self.ring = ring
        self.terms = terms

    def _check(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.ring is not self.ring and other.ring != self.ring:
                raise FieldMismatch(f"cannot mix {self.ring!r} and {other.ring!r}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.constant(other)
        return NotImplemented

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial(self.ring, _core.add_terms(self.terms, other.terms, self.ring._p))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial(self.ring, _core.sub_terms(self.terms, other.terms, self.ring._p))

    def __rsub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial(self.ring, _core.sub_terms(other.terms, self.terms, self.ring._p))

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial(self.ring, _core.mul_terms(self.terms, other.terms, self.ring._p))

    __rmul__ = __mul__

    def __neg__(self):
        return Polynomial(self.ring, _core.neg_terms(self.terms, self.ring._p))

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ArgumentError(f"polynomial powers take a nonnegative integer, got {n!r}")
        out = self.ring.one
        for _ in range(n):
            out = out * self
        return out

    def scaled(self, coeff) -> "Polynomial":
        """Product with a field scalar."""
        c = self.ring.field.of(coeff)
        if not c:
            return self.ring.zero
        return Polynomial(self.ring, _core.scale_terms(self.terms, c, self.ring._p))

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return other.ring == self.ring and other.terms == self.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == self.ring.constant(other).terms
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(monomial_degree(k) for k in self.terms)

    def constant_term(self):
        """Coefficient of the constant monomial, as a field value."""
        return self.terms.get(0, self.ring.field.of(0))

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def monomials(self):
        """Exponent triples present, in canonical (decreasing) order."""
        return [unpack_exponents(k) for k in sorted(self.terms, key=_sort_key)]

    def coefficient(self, exponents):
        """Coefficient of one monomial, as a field value."""
        return self.terms.get(pack_exponents(*exponents), self.ring.field.of(0))

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.ring.var_names
        parts = []
        for key in sorted(self.terms, key=_sort_key):
            coeff = self.terms[key]
            exps = unpack_exponents(key)
            factors = []
            for name, a in zip(names, exps):
                if a == 1:
                    factors.append(name)
                elif a > 1:
                    factors.append(f"{name}^{a}")
            sign = ""
            if coeff < 0:
                sign, coeff = "-", -coeff
            if not factors:
                body = str(coeff)
            elif coeff == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(coeff)] + factors)
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = [first_sign + first_body if first_sign else first_body]
        for sign, body in parts[1:]:
            out.append(f" {sign or '+'} {body}")
        return "".join(out)

    def __repr__(self):
        return f"Polynomial({self} over {self.ring.field!r})"


def poly_arith(a: Polynomial, b: Polynomial, op: str) -> Polynomial:
    """Dispatch exact arithmetic: op is one of "add", "sub", "mul"."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise ArgumentError(f"op must be add, sub or mul, got {op!r}")


def constant_term(f: Polynomial):
    """Coefficient of the constant monomial of f (zero if absent)."""
    return f.constant_term()


def decompose_c(f: Polynomial) -> tuple[Polynomial, Polynomial, Polynomial]:
    """Split f with zero constant term as c1*z1 + c2*z2 + c3*z3.

    Deterministic greedy rule, applied monomial by monomial: a monomial
    divisible by z1 goes to c1 (divided by z1); otherwise, if divisible
    by z2 it goes to c2; otherwise it goes to c3.

    Raises:
        EntryNotInMaximalIdeal: if f has a nonzero constant term.
    """
    if f.terms.get(0):
        raise EntryNotInMaximalIdeal(
            f"polynomial has nonzero constant term: {f}")
    parts = ({}, {}, {})
    for key, coeff in f.terms.items():
        a1, a2, a3 = unpack_exponents(key)
        if a1:
            parts[0][pack_exponents(a1 - 1, a2, a3)] = coeff
        elif a2:
            parts[1][pack_exponents(a1, a2 - 1, a3)] = coeff
        else:
            parts[2][pack_exponents(a1, a2, a3 - 1)] = coeff
    return tuple(Polynomial(f.ring, p) for p in parts)


_TOKENS = re.compile(r"(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\^)|(\*)|(\+)|(-)|(\S)")


def _parse(ring: PolyRing, text: str) -> Polynomial:
    tokens = []
    for match in _TOKENS.finditer(text):
        if match.group(7):
            raise ParseError(f"unexpected character {match.group(7)!r} at column {match.start() + 1}")
        tokens.append((match.lastindex, match.group(match.lastindex), match.start() + 1))
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, None, len(text) + 1)

    var_index = {name: i for i, name in enumerate(ring.var_names)}
    terms = {}
    first = True
    while pos < len(tokens) or first:
        sign = 1
        kind, value, col = peek()
        while kind in (5, 6):
            if kind == 6:
                sign = -sign
            pos += 1
            kind, value, col = peek()
        if kind is None:
            raise ParseError(f"expected a term at column {col}")
        coeff = sign
        exps = [0, 0, 0]
        saw_factor = False
        while True:
            kind, value, col = peek()
            if kind == 1:
                pos += 1
                coeff *= int(value)
            elif kind == 2:
                if value not in var_index:
                    raise ParseError(f"unknown variable {value!r} at column {col}")
                pos += 1
                power = 1
                kind, value2, col2 = peek()
                if kind == 3:
                    pos += 1
                    kind, value2, col2 = peek()
                    if kind != 1:
                        raise ParseError(f"expected an exponent at column {col2}")
                    pos += 1
                    power = int(value2)
                exps[var_index[value]] += power
            else:
                raise ParseError(f"expected a coefficient or variable at column {col}")
            saw_factor = True
            kind, value, col = peek()
            if kind == 4:
                pos += 1
                continue
            break
        if not saw_factor:
            raise ParseError(f"empty term at column {col}")
        if any(a > EXPONENT_LIMIT for a in exps):
            raise ParseError(f"exponent above {EXPONENT_LIMIT} at column {col}")
        key = pack_exponents(*exps)
        s = terms.get(key, 0) + ring.field.of(coeff)
        if ring._p:
            s %= ring._p
        if s:
            terms[key] = s
        else:
            terms.pop(key, None)
        first = False
        kind, value, col = peek()
        if kind is None:
            break
        if kind not in (5, 6):
            raise ParseError(f"expected + or - at column {col}")
    return Polynomial(ring, terms)
