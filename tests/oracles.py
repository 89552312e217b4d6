"""Independent brute-force oracles used only by the test suite.

Each oracle recomputes a quantity by a route disjoint from the production
code: permutation signs by bubble-sort swap counting, pfaffians by
summing over pair partitions straight from the definition, determinants
by minor expansion, and polynomial arithmetic by schoolbook loops on
exponent-triple dicts.  They are deliberately slow and simple.
"""

from fractions import Fraction

from pftrim.polyring import PolyRing, Polynomial, pack_exponents, unpack_exponents


def oracle_sign(source, target) -> int:
    """Sign of the permutation taking source to target, by counting the
    adjacent swaps a bubble sort needs; 0 on repeats or multiset mismatch."""
    source = list(source)
    target = list(target)
    if len(set(source)) != len(source) or sorted(source) != sorted(target):
        return 0
    work = source[:]
    swaps = 0
    for pos in range(len(target)):
        at = work.index(target[pos])
        while at > pos:
            work[at - 1], work[at] = work[at], work[at - 1]
            at -= 1
            swaps += 1
    assert work == target
    return -1 if swaps % 2 else 1


def _pair_partitions(values):
    """All partitions of values into unordered pairs, each pair (a, b)
    with a < b, pairs ordered by first element."""
    values = sorted(values)
    if not values:
        yield []
        return
    first = values[0]
    for idx in range(1, len(values)):
        partner = values[idx]
        rest = values[1:idx] + values[idx + 1:]
        for tail in _pair_partitions(rest):
            yield [(first, partner)] + tail


def oracle_pfaffian(matrix, indices) -> Polynomial:
    """Pfaffian of the principal submatrix on the given indices, summed
    over pair partitions by definition.  Empty gives 1, odd length 0."""
    ring = matrix.ring
    indices = sorted(indices)
    if len(indices) % 2:
        return ring.zero
    total = ring.zero
    for pairing in _pair_partitions(indices):
        word = [v for pair in pairing for v in pair]
        sign = oracle_sign(indices, word)
        product = ring.one
        for a, b in pairing:
            product = product * matrix.entry(a, b)
        total = total + product.scaled(sign)
    return total


def oracle_det(ring: PolyRing, rows) -> Polynomial:
    """Determinant by minor expansion along the first remaining row,
    memoized on the surviving column set."""
    n = len(rows)
    cache = {}

    def minor(row, colmask):
        if row == n:
            return ring.one
        key = colmask
        val = cache.get(key)
        if val is not None:
            return val
        total = ring.zero
        sign = 1
        for col in range(n):
            bit = 1 << col
            if not colmask & bit:
                continue
            entry = rows[row][col]
            if entry:
                total = total + (entry * minor(row + 1, colmask ^ bit)).scaled(sign)
            sign = -sign
        cache[key] = total
        return total

    return minor(0, (1 << n) - 1)


def oracle_poly_add(a: dict, b: dict, p: int) -> dict:
    """Schoolbook addition on {(a1,a2,a3): coeff} dicts."""
    out = {}
    for src in (a, b):
        for exps, coeff in src.items():
            s = out.get(exps, 0) + coeff
            if p:
                s %= p
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
    return out


def oracle_poly_mul(a: dict, b: dict, p: int) -> dict:
    """Schoolbook multiplication on {(a1,a2,a3): coeff} dicts."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exps = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            s = out.get(exps, 0) + ca * cb
            if p:
                s %= p
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
    return out


def oracle_value(terms: dict, point, p: int) -> int:
    """Value mod p at a point of an exponent-triple dict with int or
    Fraction coefficients: the exact rational sum of c * x^a * y^b * z^d,
    then its numerator over its denominator mod p."""
    x, y, z = point
    total = sum((Fraction(c) * x ** a * y ** b * z ** d
                 for (a, b, d), c in terms.items()), Fraction(0))
    return total.numerator * pow(total.denominator, -1, p) % p


def tuple_terms(f: Polynomial) -> dict:
    """View a Polynomial's terms as an exponent-triple dict."""
    return {unpack_exponents(k): c for k, c in f.terms.items()}


def poly_from_tuples(ring: PolyRing, terms: dict) -> Polynomial:
    return Polynomial(ring, {pack_exponents(*e): c for e, c in terms.items()})


def random_poly(ring: PolyRing, rng, degree: int, terms: int,
                homogeneous: bool = False) -> Polynomial:
    """Random polynomial with the given number of attempted terms, each of
    total degree <= degree (== degree when homogeneous), coefficients
    nonzero."""
    build = {}
    for _ in range(terms):
        d = degree if homogeneous else rng.randint(0, degree)
        a1 = rng.randint(0, d)
        a2 = rng.randint(0, d - a1)
        a3 = d - a1 - a2 if homogeneous else rng.randint(0, d - a1 - a2)
        if ring.field.char:
            coeff = rng.randint(1, ring.field.char - 1)
        else:
            coeff = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
        build[(a1, a2, a3)] = build.get((a1, a2, a3), 0) + coeff
    return ring.from_terms(build)


def random_skew(ring: PolyRing, m: int, rng, degree: int = 1,
                terms: int = 2, homogeneous: bool = True,
                density: float = 1.0):
    """Random odd-size skew matrix whose entries have no constant term.

    Each upper entry is drawn with probability density (entries not drawn
    are zero) as a random_poly with its constant term dropped.  An entry
    may still be zero: its drawn terms can cancel or be all constant, as
    for entry (6, 3) of the size-7 matrix over F5 from random.Random(74).
    So the matrix need not be dense even at density 1."""
    from pftrim.pfaffian import SkewMatrix
    upper = {}
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            if rng.random() >= density:
                continue
            f = random_poly(ring, rng, max(degree, 1), terms, homogeneous)
            if f.constant_term():
                f = f - f.constant_term()
            upper[(i, j)] = f
    return SkewMatrix.from_upper(ring, m, upper)


def oracle_rank(vectors, p) -> int:
    """Rank of a list of vectors over F_p (the rationals when p is 0), by
    fraction-free elimination down the columns: a row is cleared below a
    pivot by cross-multiplying, never by dividing."""
    work = [[v % p if p else Fraction(v) for v in vec] for vec in vectors]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        hit = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if hit is None:
            continue
        work[rank], work[hit] = work[hit], work[rank]
        top = work[rank]
        for r in range(rank + 1, len(work)):
            f = work[r][col]
            if f:
                work[r] = [a * top[col] - f * b for a, b in zip(work[r], top)]
                if p:
                    work[r] = [v % p for v in work[r]]
        rank += 1
    return rank


def oracle_pivots(rows, p) -> tuple:
    """Pivot columns of the reduced row echelon form of rows: the columns
    outside the span of the columns before them."""
    cols = list(zip(*rows))
    return tuple(j for j in range(len(cols))
                 if oracle_rank(cols[:j + 1], p) > oracle_rank(cols[:j], p))


def oracle_identity_report(matrix) -> list:
    """[(name, cases, failures, first_failure)] of the five pfaffian
    identities ``check_identities`` reports, every ordered tuple evaluated
    on its own by definition: pfaffians from ``oracle_pfaffian``, signs
    from ``oracle_sign``.  Tuples are walked in the checker's order: even
    subsets by bit mask, then each element; the other identities
    lexicographically."""
    from itertools import combinations, permutations
    ring = matrix.ring
    everything = list(range(1, matrix.m + 1))
    pfaffians = {}

    def pf(indices):
        key = tuple(indices)
        if key not in pfaffians:
            pfaffians[key] = oracle_pfaffian(matrix, key)
        return pfaffians[key]

    def without(*removed):
        return [v for v in everything if v not in removed]

    def expansion_fails(subset, b):
        total = ring.zero
        for r in subset:
            if r != b:
                rest = [v for v in subset if v not in (b, r)]
                sign = oracle_sign(subset, [b, r] + rest)
                total = total + (matrix.entry(b, r) * pf(rest)).scaled(sign)
        return total != pf(subset)

    def sigma3(i, j, r):
        s = oracle_sign(without(i), [j, r] + without(i, j, r))
        return s if i % 2 else -s

    def sigma5(i, j, r, h, k):
        return oracle_sign(without(i, j, r), [k, h] + without(i, j, r, h, k))

    def signed_sum_fails(row, terms):
        # terms: (sign, removed indices) over every r
        total = ring.zero
        for sign, removed, r in terms:
            if sign:
                total = total + (matrix.entry(row, r) * pf(without(*removed))).scaled(sign)
        return bool(total)

    def tally(name, outcomes):
        failing = [tup for tup, failed in outcomes if failed]
        return (name, len(outcomes), len(failing),
                repr(failing[0]) if failing else None)

    subsets = [[v + 1 for v in range(matrix.m) if mask >> v & 1]
               for mask in range(1, 1 << matrix.m)]
    return [
        tally("expansion", [((tuple(s), b), expansion_fails(s, b))
                            for s in subsets if len(s) % 2 == 0 for b in s]),
        tally("drop1_expansion", [((i, j), expansion_fails(without(i), j))
                                  for i, j in permutations(everything, 2)]),
        tally("sum3_vanishing", [
            ((i, j, k), signed_sum_fails(
                k, [(sigma3(i, j, r), (i, j, r), r) for r in everything]))
            for i, j, k in permutations(everything, 3)]),
        tally("drop3_expansion", [
            ((i, j, r, k), expansion_fails(without(i, j, r), k))
            for i, j, r in combinations(everything, 3)
            for k in everything if k not in (i, j, r)]),
        tally("sum5_vanishing", [
            ((i, h, s, k, j), signed_sum_fails(
                j, [(sigma3(i, r, h) * sigma5(i, r, h, s, k), (i, r, h, s, k), r)
                    for r in everything]))
            for i, h, s, k in permutations(everything, 4)
            for j in everything if j not in (i, h, s, k)]),
    ]
