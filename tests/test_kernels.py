"""The term kernels against the schoolbook oracle, and the kernel names the
benchmark's tracing layer relies on."""

import ast
import importlib.util
import inspect
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from pftrim import _poly_core as kernels
from pftrim import pfaffian, polyring
from pftrim.dgproducts import full_table, verify_leibniz
from pftrim.pfaffian import SkewMatrix
from pftrim.polyring import PolyRing, PrimeField, QQ, pack_exponents, \
    unpack_exponents
from pftrim.resolution import trimmed_resolution

from oracles import oracle_poly_add, oracle_poly_mul, random_skew

# largest supported modulus; products must stay exact at 2^62 scale
BIG_PRIME = 2_147_483_647


def triple_dicts(p, max_exp=4):
    exps = st.tuples(*(st.integers(min_value=0, max_value=max_exp),) * 3)
    if p:
        coeff = st.integers(min_value=1, max_value=p - 1)
    else:
        coeff = st.one_of(
            st.integers(min_value=-9, max_value=9).filter(bool),
            st.fractions(min_value=-5, max_value=5).filter(bool))
    return st.dictionaries(exps, coeff, max_size=8)


def scalars(p):
    if p:
        return st.integers(min_value=1, max_value=p - 1)
    return st.fractions(min_value=-5, max_value=5).filter(bool)


def packed(terms):
    return {pack_exponents(*e): c for e, c in terms.items()}


def triples(terms):
    return {unpack_exponents(k): c for k, c in terms.items()}


def oracle_scale(a, c, p):
    return oracle_poly_mul(a, {(0, 0, 0): c}, p)


@pytest.mark.parametrize("p", [0, 2, 5, BIG_PRIME])
class TestParity:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_binary_ops(self, p, data):
        a = data.draw(triple_dicts(p))
        b = data.draw(triple_dicts(p))
        ka, kb = packed(a), packed(b)
        minus_b = oracle_scale(b, -1, p)
        assert triples(kernels.add_terms(ka, kb, p)) == oracle_poly_add(a, b, p)
        assert triples(kernels.sub_terms(ka, kb, p)) == oracle_poly_add(a, minus_b, p)
        assert triples(kernels.mul_terms(ka, kb, p)) == oracle_poly_mul(a, b, p)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_pointwise_ops(self, p, data):
        # keys at full lane width are fine here: nothing adds exponents
        a = data.draw(triple_dicts(p, max_exp=(1 << 20) - 1))
        c = data.draw(scalars(p))
        ka = packed(a)
        assert triples(kernels.neg_terms(ka, p)) == oracle_scale(a, -1, p)
        assert triples(kernels.scale_terms(ka, c, p)) == oracle_scale(a, c, p)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_accumulating_ops(self, p, data):
        acc = data.draw(triple_dicts(p))
        a = data.draw(triple_dicts(p))
        b = data.draw(triple_dicts(p))
        c = data.draw(scalars(p))
        sign = data.draw(st.sampled_from((1, -1)))
        out = packed(acc)
        kernels.addmul_into(out, packed(a), packed(b), p, sign)
        product = oracle_scale(oracle_poly_mul(a, b, p), sign, p)
        assert triples(out) == oracle_poly_add(acc, product, p)
        out = packed(acc)
        kernels.scale_into(out, packed(a), c, p, sign)
        assert triples(out) == oracle_poly_add(acc, oracle_scale(a, sign * c, p), p)


@pytest.mark.parametrize("p", [2, 5, BIG_PRIME])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_deferred_reduction(p, data):
    # products of canonical residues summed with p = 0 and reduced once equal
    # the sum reduced at every step, cancelled terms included
    parts = data.draw(st.lists(st.tuples(
        triple_dicts(p), triple_dicts(p), st.sampled_from((1, -1))), max_size=5))
    parts += [(a, b, -sign) for a, b, sign in parts[:1]]
    eager, lazy = {}, {}
    for a, b, sign in parts:
        kernels.addmul_into(eager, packed(a), packed(b), p, sign)
        kernels.addmul_into(lazy, packed(a), packed(b), 0, sign)
    assert kernels.reduce_terms(lazy, p) == eager


class TestBounds:
    def test_largest_modulus_exact(self):
        p = BIG_PRIME
        top = pack_exponents((1 << 20) - 1, 0, (1 << 20) - 1)
        a = {top: p - 1, 7: p - 1}
        b = {top: p - 1, 7: 1}
        # the small key cancels in the sum, the large one in the difference
        assert kernels.add_terms(a, b, p) == {top: p - 2}
        assert kernels.sub_terms(a, b, p) == {7: p - 2}
        # (p-1)^2 = 1 mod p sits right at the 2^62 product bound
        assert kernels.mul_terms({3: p - 1}, {5: p - 1}, p) == {8: 1}
        acc = {8: p - 1}
        kernels.addmul_into(acc, {3: p - 1}, {5: 1}, p, 1)
        assert acc == {8: p - 2}
        acc = {8: 1}
        kernels.addmul_into(acc, {3: p - 1}, {5: 1}, p, 1)
        assert acc == {}
        acc = {8: 1}
        kernels.scale_into(acc, {8: p - 1}, p - 1, p, -1)
        assert acc == {}


def _load_tracing():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_proxy_covers_every_kernel():
    # The traced benchmark run wraps each kernel it names on polyring._core;
    # a kernel missing here makes every traced run raise.
    tracing = _load_tracing()
    for name in tracing.KERNELS:
        assert callable(getattr(polyring._core, name, None)), name
    matrix = random_skew(PolyRing(PrimeField(3)), 5, random.Random(5))
    with tracing.traced(tracing.Tracer()) as tracer:
        report = pfaffian.check_identities(matrix)
    assert report.all_passed
    assert tracer.counts["polyring.mul_calls"] > 0
    assert tracer.counts["pfaffian.identity_cases"] == \
        sum(check.cases for check in report.checks)
    assert polyring._core is kernels


def test_every_kernel_has_a_caller():
    # A public kernel that no pftrim module refers to is dead code unless the
    # traced benchmark run wraps it by name (scale_into).
    tracing = _load_tracing()
    package = pathlib.Path(kernels.__file__).parent
    referenced = set()
    for path in package.glob("*.py"):
        if path.name != "_poly_core.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            referenced.update(node.attr for node in ast.walk(tree)
                              if isinstance(node, ast.Attribute))
    public = [name for name, fn in inspect.getmembers(kernels, inspect.isfunction)
              if fn.__module__ == kernels.__name__ and not name.startswith("_")]
    assert "addmul_into" in public
    for name in public:
        assert name in referenced or name in tracing.KERNELS, name


def test_integer_rational_matrix_stays_in_ints():
    # a matrix like the benchmark corpus's rational ones (half the upper
    # cells, two-term linear entries, coefficients -3..3): every kernel
    # result is an int, so the trimmed complex and its product table hold
    # no Fraction
    ring = PolyRing(QQ)
    rng = random.Random(39)
    m = 7
    cells = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    upper = {}
    for cell in rng.sample(cells, len(cells) // 2):
        upper[cell] = ring.from_terms(
            {tuple(int(v == n) for n in range(3)): rng.choice((-3, -2, -1, 1, 2, 3))
             for v in rng.sample(range(3), 2)})
    T = SkewMatrix.from_upper(ring, m, upper)
    assert any(T.generators())
    td = trimmed_resolution(T, 3)
    table = full_table(td)
    assert verify_leibniz(td, table).all_passed
    values = [entry for d in (1, 2, 3) for row in td.complex.differential(d)
              for entry in row]
    values += [coeff for cell in table.entries.values()
               for coeff in cell.coords.values()]
    types = {type(c) for f in values for c in f.terms.values()}
    assert types == {int}
