"""Residue-field analysis of a trimmed complex: minimal Betti format,
the multiplicative class decision, the induced scalar products on the
minimal bases, and the numerical consequences the scanner checks.

The unit entries of the degree-two differential all sit in the connecting
block Q1, so the minimal format follows from the rank of Q1 over the
residue field.  Entry (k, l), i of Q1 is c_l of T[k, i], whose constant
term is the coefficient of z_l in T[k, i] under the greedy rule of
``decompose_c``; so ``classify`` and ``tor_products`` read Q1 mod the
maximal ideal off T, and ``classify`` never builds the resolution.  The
class decision needs no products for sizes seven and up; for size five it
reduces to vanishing 2x2 minors of the same residues.  ``tor_products``
reads the products mod the maximal ideal off the table's cells without
building their coordinates: a cell kept as a recipe has constant terms
in its unshifted parts only.
"""

import dataclasses

from .dgproducts import full_table
from .errors import ArgumentError, NotApplicable, UnsupportedSize, \
    _is_int
from .linalg import insert_row
from .resolution import _PAIRS


@dataclasses.dataclass(frozen=True)
class TorReport:
    """Minimal format and multiplicative class of a trimmed ideal.

    Fields:
        m, t: matrix size and trim count.
        rank_q1: rank of the connecting block over the residue field.
        p: its pivot columns among the last m - t (untrimmed) columns.
        format: the minimal rank tuple (1, mu, mu + t, 1 + t).
        mu: minimal number of generators (= format[1]).
        r: the class parameter m - t - p, or None when not of class G.
        class_: "G(r)" with the numeral filled in, or "NotG".
        failing_minor: for size 5 failures, the first witness (i, j, k)
            whose residue rows have a nonvanishing 2x2 minor.
    """

    m: int
    t: int
    rank_q1: int
    p: int
    format: tuple
    mu: int
    r: object
    class_: str
    failing_minor: object = None

    def to_document(self):
        return {"m": self.m, "t": self.t, "rank_q1": self.rank_q1,
                "p": self.p, "format": list(self.format), "mu": self.mu,
                "r": self.r, "class": self.class_}

    def summary_lines(self):
        fmt = ", ".join(str(n) for n in self.format)
        return [f"size {self.m}, trim {self.t}: format ({fmt}), "
                f"rank {self.rank_q1}, tail pivots {self.p}, "
                f"class {self.class_}"]


def _residue_q1(T, t, packed=False):
    # Q1 mod the maximal ideal, 3t x m: row (k, l), column i is the
    # coefficient of z_l in T[k, i]; packed (over F2), each row is an int
    # with bit i set where that coefficient is 1
    z_keys = [next(iter(z.terms)) for z in T.ring.gens]
    if packed:
        return [sum(1 << i for i, f in enumerate(T.rows[k]) if key in f.terms)
                for k in range(t) for key in z_keys]
    zero = T.ring.field.of(0)
    return [[f.terms.get(key, zero) for f in T.rows[k]]
            for k in range(t) for key in z_keys]


def _minor_failure(field, qbar, m, t):
    # first trimmed column and pair of untrimmed indices whose two
    # complementary residue columns in some block of Q1 have a
    # nonvanishing 2x2 minor
    zero = field.of(0)
    for i in range(t + 1, m + 1):
        for j in range(i + 1, m + 1):
            for k in range(1, t + 1):
                h, r = (n - 1 for n in range(1, m + 1) if n not in (i, j, k))
                for a, b in _PAIRS:
                    row_a, row_b = qbar[3 * k + a - 4], qbar[3 * k + b - 4]
                    if field.of(row_a[h] * row_b[r] -
                                row_b[h] * row_a[r]) != zero:
                        return i, j, k
    return None


def classify(T, t):
    """Minimal format and Tor class of the ideal obtained by trimming the
    first t pfaffian generators of the selfdual ideal of T.  Q1 mod the
    maximal ideal is the z-coefficients of the first t rows of T, so no
    pfaffian, Q2 sum or boundary map is built."""
    m = T.m
    if m % 2 == 0 or m < 5:
        raise UnsupportedSize(
            f"classification needs odd size at least 5, got {m}")
    if not _is_int(t) or not 1 <= t <= m:
        raise ArgumentError(f"trim count must satisfy 1 <= t <= {m}, got {t!r}")
    *_, fields = _trim_reports(T, t)
    return TorReport(*fields)


def _trim_reports(T, last):
    # the TorReport fields of every trim count 1..last, from one
    # elimination: the residue block of trim t is the first 3t rows of that
    # of trim last, so its rank is the size of the echelon basis after
    # those rows, and its pivot columns are the basis's lead columns
    m, field = T.m, T.ring.field
    # packed over F2, but for the size-5 minor test, which reads entries
    qbar = _residue_q1(T, last, field.char == 2 and m > 5)
    basis = {}
    for t in range(1, last + 1):
        for row in qbar[3 * t - 3:3 * t]:
            insert_row(basis, row, field.char)
        rank = len(basis)
        p = sum(1 for col in basis if col >= t)
        fmt = (1, m + 2 * t - rank, m + 3 * t - rank, 1 + t)
        failure = _minor_failure(field, qbar, m, t) if m == 5 else None
        r = m - t - p if failure is None else None
        cls = "NotG" if failure else f"G({r})"
        yield m, t, rank, p, fmt, fmt[1], r, cls, failure


class TorProductTable:
    """Scalar products between the minimal residue-field classes.

    Basis labels name each class by its lead generator; the pivot columns
    of the connecting block and a matching independent set of its rows are
    split away first, and the remaining selfdual classes are corrected so
    that the products are well defined.  Only nonzero products are stored,
    keyed by ordered label pairs (both orders in degree one, the degree-one
    factor first otherwise).  For sizes seven and up the table of a trimmed
    ideal is the diagonal selfdual pairing; in size five it can also carry
    correction cells in either degree.
    """

    __slots__ = ("field", "basis1", "basis2", "basis3", "entries")

    def __init__(self, field, basis1, basis2, basis3, entries):
        self.field = field
        self.basis1 = tuple(basis1)
        self.basis2 = tuple(basis2)
        self.basis3 = tuple(basis3)
        self.entries = dict(entries)

    def lookup(self, left, right):
        """Nonzero cells of one product as (label, scalar) pairs."""
        ones = set(self.basis1)
        twos = set(self.basis2)
        if left in ones and (right in ones or right in twos):
            return self.entries.get((left, right), ())
        if left in twos and right in ones:
            return self.entries.get((right, left), ())
        raise ArgumentError(f"no product recorded for ({left!r}, {right!r})")

    def has_degree_one_products(self):
        ones = set(self.basis1)
        return any(l in ones and r in ones for l, r in self.entries)

    def g_pairing_indices(self):
        """Indices whose selfdual class pairs to the top class with unit
        coefficient against its own degree-two partner."""
        one = self.field.of(1)
        top = self.basis3[0]
        out = []
        for label in self.basis1:
            if label[0] != "e":
                continue
            partner = "f" + label[1:]
            if partner in self.basis2 and \
                    self.entries.get((label, partner)) == ((top, one),):
                out.append(int(label[1:]))
        return tuple(out)

    def is_diagonal_pairing(self):
        """True when the only nonzero products are unit selfdual pairs
        against the top class."""
        one = self.field.of(1)
        top = self.basis3[0]
        for (left, right), cells in self.entries.items():
            if left[0] == "e" and right == "f" + left[1:] \
                    and cells == ((top, one),):
                continue
            return False
        return True

    def to_document(self):
        return {
            "basis1": list(self.basis1),
            "basis2": list(self.basis2),
            "basis3": list(self.basis3),
            "products": [
                {"left": left, "right": right,
                 "value": [[label, str(scalar)] for label, scalar in cells]}
                for (left, right), cells in sorted(self.entries.items())],
        }


def tor_products(td, table=None):
    """Products induced on the minimal residue-field classes.

    Reads each cell of the product table (built here, or the prebuilt one
    passed in) modulo the maximal ideal once: a cell kept as a recipe
    gives its residues off its parts, so no cell's coordinates are
    built.  The products of the representatives are summed in the
    field, and rewritten in the split basis that removes the unit pivots
    of the degree-two differential, whose residues are read off T as in
    ``classify``.
    """
    field = td.ring.field
    zero = field.of(0)
    one = field.of(1)
    m, t = td.m, td.t
    if table is None:
        table = full_table(td)
    # one Gauss-Jordan pass over the residue rows gives the reduced pivot
    # rows, keyed by pivot column, and the rows independent of the earlier
    # ones, which split away with them
    basis = {}
    split_rows = {idx for idx, row in enumerate(_residue_q1(td.T, t))
                  if insert_row(basis, row, field.char) is not None}
    pivots = sorted(basis)

    # degree 1: every selfdual class, corrected on pivot columns so that
    # products with the corrected degree-2 classes vanish, then the
    # Koszul classes away from a maximal independent set of rows.  The
    # representatives hold the complex's own basis elements, so the table
    # finds their cells by identity
    C = td.complex
    basis1, basis2 = C.basis(1), C.basis(2)
    deg1 = []
    for i in range(t + 1, m + 1):
        rep = {basis1[i - t - 1]: one}
        if i - 1 in basis:
            row = basis[i - 1]
            for k in range(t + 1, m + 1):
                if k - 1 not in basis and row[k - 1] != zero:
                    rep[basis1[k - t - 1]] = row[k - 1]
        deg1.append((basis1[i - t - 1].label, rep))
    deg1.extend((elem.label, {elem: one})
                for row_idx, elem in enumerate(basis1[m - t:])
                if row_idx not in split_rows)

    # degree 2: nonpivot columns absorb the pivot ones, Koszul part as is
    deg2 = []
    for j in range(1, m + 1):
        if j - 1 in basis:
            continue
        rep = {basis2[j - 1]: one}
        for col in pivots:
            alpha = field.of(-basis[col][j - 1])
            if alpha != zero:
                rep[basis2[col]] = alpha
        deg2.append((basis2[j - 1].label, rep))
    deg2.extend((elem.label, {elem: one}) for elem in basis2[m:])
    deg3_order = [elem.label for elem in C.basis(3)]

    residues = {}  # (x, y) -> the residues of the table's cell x y

    def reduced_product(rep_x, rep_y):
        acc = {}
        for ex, cx in rep_x.items():
            for ey, cy in rep_y.items():
                cell = residues.get((ex, ey))
                if cell is None:
                    cell = residues[(ex, ey)] = \
                        table.lookup(ex, ey)._residues()
                scale = cx * cy
                for target, c0 in cell.items():
                    acc[target] = acc.get(target, zero) + c0 * scale
        reduced = ((elem, field.of(v)) for elem, v in acc.items())
        return {elem: v for elem, v in reduced if v != zero}

    def degree2_cells(acc):
        # products of degree-1 elements are cycles, so the expansion in
        # the split basis has no component on the pivot columns
        if not acc:
            return ()
        cells = []
        residual = dict(acc)
        for label, rep in deg2:
            lead = next(iter(rep))
            beta = acc.get(lead, zero)
            if beta == zero:
                continue
            cells.append((label, beta))
            for elem, coeff in rep.items():
                residual[elem] = residual.get(elem, zero) - beta * coeff
        if any(field.of(v) != zero for v in residual.values()):
            raise ArgumentError(
                "degree-1 product with a component on a split column")
        return tuple(cells)

    def degree3_cells(acc):
        by_label = {elem.label: v for elem, v in acc.items()}
        return tuple((label, by_label[label]) for label in deg3_order
                     if label in by_label)

    entries = {}
    for lx, rx in deg1:
        for ly, ry in deg1:
            cells = degree2_cells(reduced_product(rx, ry))
            if cells:
                entries[(lx, ly)] = cells
        for ly, ry in deg2:
            cells = degree3_cells(reduced_product(rx, ry))
            if cells:
                entries[(lx, ly)] = cells
    return TorProductTable(field, [lab for lab, _ in deg1],
                           [lab for lab, _ in deg2], deg3_order, entries)


@dataclasses.dataclass(frozen=True)
class ConjectureReport:
    """Verdicts for the numerical consequences of a class G report."""

    t: int
    mu: int
    r: int
    single_trim_exact: bool
    multi_trim_bound: bool
    spread_in_range: bool
    spread_off_forbidden: bool

    @property
    def all_passed(self):
        return self.single_trim_exact and self.multi_trim_bound and \
            self.spread_in_range and self.spread_off_forbidden

    def verdicts(self):
        return {"single_trim_exact": self.single_trim_exact,
                "multi_trim_bound": self.multi_trim_bound,
                "spread_in_range": self.spread_in_range,
                "spread_off_forbidden": self.spread_off_forbidden}

    def summary_lines(self):
        return [f"{name}: {'ok' if passed else 'FAIL'}"
                for name, passed in self.verdicts().items()]


def check_conjectures(report):
    """Check the spread bounds and generator-count relations of a class G
    report: trimming once forces r = mu - 3, deeper trims force
    r <= mu - 4, the spread mu - r lies in [2t, 3t] and never equals
    3t - 1."""
    if report.r is None:
        raise NotApplicable("conjecture checks need a class G report")
    t, mu, r = report.t, report.mu, report.r
    spread = mu - r
    return ConjectureReport(
        t, mu, r,
        t != 1 or r == mu - 3,
        t < 2 or r <= mu - 4,
        2 * t <= spread <= 3 * t,
        spread != 3 * t - 1)


def conjugate_trim_set(T, generators):
    """Conjugate T by the permutation moving the chosen generator indices
    to the front, so that trimming an arbitrary index set reduces to
    trimming the first t.  Returns the conjugated matrix and the
    permutation as a tuple of new positions indexed by old position."""
    chosen = sorted(set(generators))
    if not chosen:
        raise ArgumentError("no generators chosen")
    if chosen[0] < 1 or chosen[-1] > T.m:
        raise ArgumentError(f"generator indices out of range 1..{T.m}")
    order = chosen + [i for i in range(1, T.m + 1) if i not in set(chosen)]
    new_of_old = [0] * T.m
    for new_pos, old in enumerate(order, start=1):
        new_of_old[old - 1] = new_pos
    return T.permuted(new_of_old), tuple(new_of_old)
