"""Spans and counters around pftrim's public functions, for the traced run.

``traced(tracer)`` patches each named function in every pftrim namespace
that holds it (the modules import one another's functions by name, so
``pftrim.classify.trimmed_resolution`` must be patched as well as
``pftrim.resolution.trimmed_resolution``), plus a few methods on their
classes, and restores every original on exit.  Nothing is patched
outside that block, so untraced runs call pftrim unchanged.

A span records [name, start, end, parent span index, op index].  Spans
stay in memory; run.py writes them out when the run ends.  Polynomial
arithmetic and ``pfaffian_drop`` run millions of times per op, so they
are counted (and arithmetic timed) without spans.

Term arithmetic is entered two ways: through the ``Polynomial`` operators
and, in the hot loops (the pfaffian engine, the identity checks), by
calling the term kernels of ``pftrim.polyring._core`` directly.  The
kernel module is swapped for a counting proxy, which every caller sees
because they resolve ``polyring._core`` at call time; products and sums
are counted there, once each, whichever way they were entered.
``polyring.arith_s`` is the time in the outermost arithmetic call, operator
or kernel, so an operator's own kernel call is not counted twice.
"""

import collections
import contextlib
import sys
import time
import types

# (module, function, span name, counter fed from the return value)
FUNCTION_SPANS = (
    ("cli", "parse_matrix_document", "cli.parse_matrix_document", None),
    ("pfaffian", "check_identities", "pfaffian.check_identities",
     ("pfaffian.identity_cases", lambda rep: sum(c.cases for c in rep.checks))),
    ("resolution", "trimmed_resolution", "resolution.trimmed_resolution",
     ("resolution.trimmed_resolution_calls", lambda td: 1)),
    ("resolution", "verify_diagrams", "resolution.verify_diagrams", None),
    ("resolution", "minimize", "resolution.minimize", None),
    ("dgproducts", "full_table", "dgproducts.full_table",
     ("dgproducts.table_cells", lambda table: len(table.entries))),
    ("dgproducts", "verify_leibniz", "dgproducts.verify_leibniz",
     ("dgproducts.leibniz_pairs", lambda rep: rep.pairs_checked)),
    ("classify", "classify", "classify.classify",
     ("classify.classify_calls", lambda rep: 1)),
    ("classify", "tor_products", "classify.tor_products", None),
    ("linalg", "mat_mul", "linalg.mat_mul", None),
    ("linalg", "rref", "linalg.rref", None),
    ("families", "realizability_scan", "families.realizability_scan",
     ("families.scan_records", lambda result: len(result.records))),
)

# (module, class, method, span name)
METHOD_SPANS = (
    ("cli", "MatrixDocument", "to_matrix", "cli.to_matrix"),
    ("pfaffian", "SkewMatrix", "generators", "pfaffian.generators"),
    ("resolution", "ChainComplex", "composes_to_zero", "resolution.composes_to_zero"),
)

ARITH_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__neg__")

# term kernel -> (counter, position of the two factors of a product or None)
KERNELS = {
    "mul_terms": ("polyring.mul_calls", (0, 1)),
    "addmul_into": ("polyring.mul_calls", (1, 2)),
    "add_terms": ("polyring.addsub_calls", None),
    "sub_terms": ("polyring.addsub_calls", None),
    "scale_into": ("polyring.addsub_calls", None),
    "neg_terms": (None, None),
    "scale_terms": (None, None),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = collections.Counter()
        self.arith_s = 0.0
        self.arith_depth = 0
        self.op = None

    def open(self, name):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else None, self.op])
        self.stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def inclusive(self):
        """Total duration per span name."""
        out = collections.Counter()
        for name, start, end, _parent, _op in self.spans:
            out[name] += end - start
        return out

    def self_times(self):
        """Per span name, duration minus the time its child spans cover."""
        out = self.inclusive()
        for _name, start, end, parent, _op in self.spans:
            if parent is not None:
                out[self.spans[parent][0]] -= end - start
        return out


def _spanned(tracer, name, fn, counter):
    def wrapped(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if counter is not None:
            tracer.counts[counter[0]] += counter[1](result)
        return result
    return wrapped


def _counted(tracer, counter, fn):
    def wrapped(*args, **kwargs):
        tracer.counts[counter] += 1
        return fn(*args, **kwargs)
    return wrapped


def _arith(tracer, fn, counter=None, factors=None):
    """Time ``fn`` into arith_s unless an outer arithmetic call already
    does; count it under ``counter``, with len(a)*len(b) term pairs for a
    product of the arguments at positions ``factors``."""
    counts = tracer.counts
    clock = time.perf_counter

    def wrapped(*args):
        if counter is not None:
            counts[counter] += 1
            if factors is not None:
                counts["polyring.mul_term_pairs"] += \
                    len(args[factors[0]]) * len(args[factors[1]])
        if tracer.arith_depth:
            return fn(*args)
        tracer.arith_depth = 1
        start = clock()
        try:
            return fn(*args)
        finally:
            tracer.arith_s += clock() - start
            tracer.arith_depth = 0
    return wrapped


def _kernel_proxy(tracer, core):
    """A stand-in for the term-kernel module whose kernels count and time."""
    proxy = types.SimpleNamespace(**vars(core))
    for name, (counter, factors) in KERNELS.items():
        setattr(proxy, name, _arith(tracer, getattr(core, name), counter, factors))
    return proxy


def _pftrim_namespaces():
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "pftrim" or name.startswith("pftrim.")]


@contextlib.contextmanager
def traced(tracer):
    """Install every wrapper for the duration of the block."""
    import pftrim  # noqa: F401  (loads every module that gets patched)
    modules = {mod.__name__.split(".")[-1]: mod for mod in _pftrim_namespaces()}
    replacements = []  # (original, wrapper)
    for mod, attr, name, counter in FUNCTION_SPANS:
        fn = getattr(modules[mod], attr)
        replacements.append((fn, _spanned(tracer, name, fn, counter)))
    drop = modules["pfaffian"].pfaffian_drop
    replacements.append((drop, _counted(tracer, "pfaffian.pfaffian_drop_calls", drop)))

    patches = []
    for mod in _pftrim_namespaces():
        for attr, value in list(vars(mod).items()):
            for fn, wrapper in replacements:
                if value is fn:
                    patches.append((mod, attr, fn, wrapper))
    for mod, cls, attr, name in METHOD_SPANS:
        owner = getattr(modules[mod], cls)
        fn = owner.__dict__[attr]
        patches.append((owner, attr, fn, _spanned(tracer, name, fn, None)))
    polyring = modules["polyring"]
    for attr in ARITH_METHODS:
        fn = polyring.Polynomial.__dict__[attr]
        patches.append((polyring.Polynomial, attr, fn, _arith(tracer, fn)))
    patches.append((polyring, "_core", polyring._core,
                    _kernel_proxy(tracer, polyring._core)))
    try:
        for owner, attr, _fn, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, fn, _wrapper in reversed(patches):
            setattr(owner, attr, fn)


def layer_metrics(tracer):
    """Per-layer numbers from the spans and counters of one traced run."""
    incl = tracer.inclusive()
    own = tracer.self_times()
    c = tracer.counts
    return {
        "cli.parse_s": incl["cli.parse_matrix_document"] + incl["cli.to_matrix"],
        "polyring.mul_calls": c["polyring.mul_calls"],
        "polyring.mul_term_pairs": c["polyring.mul_term_pairs"],
        "polyring.addsub_calls": c["polyring.addsub_calls"],
        "polyring.arith_s": tracer.arith_s,
        "pfaffian.check_identities_s": incl["pfaffian.check_identities"],
        "pfaffian.identity_cases": c["pfaffian.identity_cases"],
        "pfaffian.pfaffian_drop_calls": c["pfaffian.pfaffian_drop_calls"],
        "pfaffian.generators_s": incl["pfaffian.generators"],
        "resolution.trimmed_resolution_s": incl["resolution.trimmed_resolution"],
        "resolution.trimmed_resolution_calls": c["resolution.trimmed_resolution_calls"],
        "resolution.composes_to_zero_s": incl["resolution.composes_to_zero"],
        "resolution.verify_diagrams_s": incl["resolution.verify_diagrams"],
        "resolution.minimize_s": incl["resolution.minimize"],
        "dgproducts.full_table_s": incl["dgproducts.full_table"],
        "dgproducts.table_cells": c["dgproducts.table_cells"],
        "dgproducts.verify_leibniz_s": incl["dgproducts.verify_leibniz"],
        "dgproducts.leibniz_pairs": c["dgproducts.leibniz_pairs"],
        "classify.classify_s": own["classify.classify"],
        "classify.classify_calls": c["classify.classify_calls"],
        "classify.tor_products_s": incl["classify.tor_products"],
        "linalg.mat_mul_s": incl["linalg.mat_mul"],
        "linalg.rref_s": incl["linalg.rref"],
        "families.realizability_scan_s": incl["families.realizability_scan"],
        "families.scan_records": c["families.scan_records"],
    }
