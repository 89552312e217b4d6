"""Seeded input generator for the benchmark.

Writes matrix documents (the JSON format ``pftrim.cli`` parses) as plain
text, without importing pftrim, so the program under test sees only the
documents.  The same seed always gives the same documents.
"""

import json
import random

VARIABLES = ("x", "y", "z")

# The acceptance corpus (tests/test_acceptance.py) runs 50 matrices per
# (prime, size) cell; matrix idx takes the profile of CORPUS_PROFILES below
# (idx 0-29 one-term, 30-41 two-term, 42-44 dense, 45-49 quadratic: shares
# 60/24/6/10) and checks Leibniz at trims 1, m and (idx % m) + 1.  All
# entries are homogeneous so that minimization stays inside the polynomial
# ring.
CORPUS_PROFILES = {
    "one_term": {"degree": 1, "terms": 1, "density": 0.6},
    "two_term": {"degree": 1, "terms": 2, "density": 0.5},
    "dense": {"degree": 1, "terms": 2, "density": 1.0},
    "quadratic": {"degree": 2, "terms": 1, "density": 0.5},
}


def acceptance_profile(idx):
    if idx < 30:
        return "one_term"
    if idx < 42:
        return "two_term"
    if idx < 45:
        return "dense"
    return "quadratic"


# One round of corpus ops covers every (field, size) cell once; QQ is a
# fourth field, which the acceptance corpus lacks.  Its 12 matrices take a
# systematic sample of the 50 acceptance indices (every 50/12-th: 2, 6,
# 10, 14, 18, 22, 27, 31, 35, 39, 43, 47), so 7 one-term, 3 two-term, 1
# dense and 1 quadratic, the nearest 12 ops come to the 60/24/6/10 shares,
# and each keeps its index's rotating trim (idx % m) + 1.  The two-term
# matrices take one cell of each size.  The single dense and quadratic
# matrices take size 7, whose cost is nearest their mean cost over the
# three sizes, so each profile's share of the round's time stays near its
# share of the acceptance corpus's time (at size 9 the dense matrix alone
# would take 40% of it, not 13%).  The round runs field by field, so the
# ops of one size are spread over it and a slow stretch of the host does
# not hit all the ops that op_p50_s is read from at once.
# (characteristic, 0 for QQ; size; acceptance idx)
CORPUS_CELLS = (
    (2, 5, 2), (2, 7, 43), (2, 9, 6),
    (3, 5, 31), (3, 7, 10), (3, 9, 14),
    (5, 5, 18), (5, 7, 47), (5, 9, 35),
    (0, 5, 22), (0, 7, 39), (0, 9, 27),
)
# (characteristic; size; profile; the rotating Leibniz trim)
CORPUS_ROUND = tuple((char, m, acceptance_profile(idx), idx % m + 1)
                     for char, m, idx in CORPUS_CELLS)


#: Generator parameters of each workload; run.py copies these into its
#: result so a number can be traced back to the inputs that produced it.
PARAMS = {
    "verify": {"field": 3, "size": 9, "entries": "dense random linear forms",
               "trims": "t = 1..9, rotating across ops"},
    "scan": {"char": 2, "size": 13, "trials": 1,
             "scan_seed": "seed * 100000 + op index"},
    "corpus": {"round": CORPUS_ROUND, "profiles": CORPUS_PROFILES,
               "leibniz_trims": "1, m and (idx % m) + 1 of the sampled acceptance idx"},
}


def _term(coeff, exps):
    factors = []
    for name, a in zip(VARIABLES, exps):
        if a == 1:
            factors.append(name)
        elif a > 1:
            factors.append(f"{name}^{a}")
    body = "*".join(factors)
    if coeff == 1:
        return body
    if coeff == -1:
        return "-" + body
    return f"{coeff}*{body}"


def _entry(rng, char, degree, terms):
    """Homogeneous polynomial text with up to ``terms`` terms, or None when
    they cancel.  Like terms are combined here, before reduction mod p."""
    build = {}
    for _ in range(terms):
        a1 = rng.randint(0, degree)
        a2 = rng.randint(0, degree - a1)
        exps = (a1, a2, degree - a1 - a2)
        coeff = rng.randint(1, char - 1) if char else rng.choice((-3, -2, -1, 1, 2, 3))
        build[exps] = build.get(exps, 0) + coeff
    parts = []
    for exps in sorted(build, reverse=True):
        c = build[exps] % char if char else build[exps]
        if c:
            parts.append(_term(c, exps))
    return " + ".join(parts).replace("+ -", "- ") or None


def _document(char, m, upper):
    field = {"kind": "prime", "p": char} if char else {"kind": "rational"}
    return json.dumps({"field": field, "variables": list(VARIABLES),
                       "size": m, "upper": upper}) + "\n"


def dense_linear(rng, char, m):
    """Every upper entry a random linear form c1*x + c2*y + c3*z."""
    upper = []
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            coeffs = [rng.randrange(char) for _ in VARIABLES]
            parts = [_term(c, tuple(int(v == n) for n in range(3)))
                     for v, c in enumerate(coeffs) if c]
            if parts:
                upper.append([i, j, " + ".join(parts)])
    return _document(char, m, upper)


def sparse(rng, char, m, degree, terms, density):
    """A share ``density`` of the upper entries (an exact count, so that
    matrices of one profile cost about the same), each homogeneous of the
    given degree with up to ``terms`` terms."""
    cells = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    upper = []
    for i, j in sorted(rng.sample(cells, round(density * len(cells)))):
        text = None
        while text is None:
            text = _entry(rng, char, degree, terms)
        upper.append([i, j, text])
    return _document(char, m, upper)


def verify_op(seed, index):
    """(document, t) for the index-th verify op."""
    rng = random.Random(f"verify/{seed}/{index}")
    return dense_linear(rng, PARAMS["verify"]["field"], PARAMS["verify"]["size"]), \
        index % PARAMS["verify"]["size"] + 1


def scan_op(seed, index):
    """The ``--seed`` value handed to ``pftrim scan`` for the index-th op."""
    return seed * 100_000 + index


def corpus_op(seed, index):
    """(document, size, rotating t) for the index-th corpus op."""
    char, m, profile, t_rot = CORPUS_ROUND[index % len(CORPUS_ROUND)]
    rng = random.Random(f"corpus/{seed}/{index}")
    return sparse(rng, char, m, **CORPUS_PROFILES[profile]), m, t_rot
