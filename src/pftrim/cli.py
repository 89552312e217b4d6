"""Command-line surface: matrix documents in, printed reports out.

A matrix document is JSON with four keys::

    {
      "field": {"kind": "prime", "p": 2},      // or {"kind": "rational"}
      "variables": ["x", "y", "z"],            // optional, these defaults
      "size": 5,
      "upper": [[1, 4, "x"], [2, 5, "y"]]      // strict upper triangle
    }

Pairs omitted from ``upper`` are zero; the lower triangle is filled by
skew-symmetry.  Entries use the polynomial grammar of the ring parser.

Exit codes: 0 on success, 1 when a requested verification fails, 2 for
usage, file, or parse problems.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from itertools import chain

from .classify import check_conjectures, classify, conjugate_trim_set
from .dgproducts import MAX_PRODUCT_SIZE, full_table, verify_leibniz
from .errors import ParseError, PftrimError, UnsupportedSize, _is_int
from .families import (MAX_FAMILY_BAND, MAX_SCAN_SIZE, FamilySpec,
                       build_family, family_checks, realizability_scan,
                       write_scan_csv)
from .pfaffian import MAX_IDENTITY_SIZE, SkewMatrix, check_identities
from .polyring import PolyRing, PrimeField, QQ
from .resolution import (MAX_RESOLUTION_SIZE, gorenstein_resolution,
                         minimize, trimmed_resolution, verify_diagrams)

__all__ = [
    "MAX_DOCUMENT_SIZE",
    "MatrixDocument",
    "parse_matrix_document",
    "serialize_matrix_document",
    "document_of_matrix",
    "main",
]

_DEFAULT_VARIABLES = ("x", "y", "z")

#: Largest ``size`` a matrix document may declare, checked before anything
#: is allocated.  Every command builds the dense m x m matrix, so memory and
#: time grow with m^2 before the first check.  ``classify`` reads residues
#: only and stays usable far past the sizes where pfaffians stop finishing:
#: on the odd band family document of size 999 it took 2.7 s and 42 MiB
#: (CPU time, Python 3.11 on a 2-core Xeon).  A size of 40000 would ask for
#: some 1600 times that, 1.6 * 10^9 cells, with no check run first.
MAX_DOCUMENT_SIZE = 1001


@dataclasses.dataclass(frozen=True)
class MatrixDocument:
    """Validated file content, not yet parsed into polynomials.

    ``field_kind`` is "prime" or "rational", ``char`` the characteristic
    (0 for rational), ``upper`` a tuple of (i, j, entry string) triples
    with 1 <= i < j <= size and no duplicates, in file order.
    """

    field_kind: str
    char: int
    variables: tuple
    size: int
    upper: tuple

    def ring(self) -> PolyRing:
        field = QQ if self.field_kind == "rational" else PrimeField(self.char)
        return PolyRing(field, self.variables)

    def to_matrix(self) -> SkewMatrix:
        ring = self.ring()
        entries = {}
        for i, j, text in self.upper:
            try:
                entries[(i, j)] = ring.from_string(text)
            except ParseError as exc:
                raise ParseError(f"entry ({i},{j}): {exc}")
        return SkewMatrix.from_upper(ring, self.size, entries)


def parse_matrix_document(text: str) -> MatrixDocument:
    """Parse and validate document JSON; raises ParseError on any defect."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise ParseError("document nests too deeply")
    if not isinstance(data, dict):
        raise ParseError("document must be a JSON object")
    for key in ("field", "size", "upper"):
        if key not in data:
            raise ParseError(f"missing key {key!r}")
    unknown = set(data) - {"field", "variables", "size", "upper"}
    if unknown:
        raise ParseError(f"unknown keys {sorted(unknown)}")

    field = data["field"]
    if not isinstance(field, dict) or "kind" not in field:
        raise ParseError("field must be an object with a 'kind'")
    unknown = set(field) - {"kind", "p"}
    if unknown:
        raise ParseError(f"unknown field keys {sorted(unknown)}")
    kind = field["kind"]
    if kind == "prime":
        char = field.get("p")
        if not _is_int(char):
            raise ParseError("prime field needs an integer 'p'")
    elif kind == "rational":
        char = 0
        given = field.get("p", 0)
        if not _is_int(given) or given != 0:
            raise ParseError("rational field takes no characteristic")
    else:
        raise ParseError(f"field kind must be 'prime' or 'rational', got {kind!r}")

    variables = data.get("variables", list(_DEFAULT_VARIABLES))
    if not (isinstance(variables, list) and len(variables) == 3
            and all(isinstance(v, str) for v in variables)):
        raise ParseError("variables must be a list of three names")

    size = data["size"]
    if not _is_int(size) or size < 1:
        raise ParseError(f"size must be a positive integer, got {size!r}")
    if size > MAX_DOCUMENT_SIZE:
        raise ParseError(f"size must be at most {MAX_DOCUMENT_SIZE}, got {size}")

    if not isinstance(data["upper"], list):
        raise ParseError("upper must be a list of [i, j, entry] triples")
    seen = set()
    upper = []
    for cell in data["upper"]:
        if not (isinstance(cell, list) and len(cell) == 3
                and _is_int(cell[0]) and _is_int(cell[1])
                and isinstance(cell[2], str)):
            raise ParseError(f"malformed upper entry {cell!r}")
        i, j, entry = cell
        if not 1 <= i < j <= size:
            raise ParseError(f"entry ({i},{j}) is not strictly upper in size {size}")
        if (i, j) in seen:
            raise ParseError(f"duplicate entry ({i},{j})")
        seen.add((i, j))
        upper.append((i, j, entry))
    return MatrixDocument(kind, char, tuple(variables), size, tuple(upper))


def serialize_matrix_document(doc: MatrixDocument) -> str:
    field = {"kind": doc.field_kind}
    if doc.field_kind == "prime":
        field["p"] = doc.char
    data = {
        "field": field,
        "variables": list(doc.variables),
        "size": doc.size,
        "upper": [[i, j, entry] for i, j, entry in doc.upper],
    }
    return json.dumps(data, indent=2) + "\n"


def document_of_matrix(T: SkewMatrix) -> MatrixDocument:
    char = T.ring.field.char
    kind = "rational" if char == 0 else "prime"
    upper = tuple((i, j, str(f)) for (i, j), f in T.upper_entries())
    return MatrixDocument(kind, char, T.ring.var_names, T.m, upper)


def _load_matrix(path: str, limit=None, what="") -> SkewMatrix:
    """The document's matrix; a size above ``limit`` raises UnsupportedSize
    naming ``what`` before the matrix is built."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})")
    doc = parse_matrix_document(text)
    if limit is not None and doc.size > limit:
        raise UnsupportedSize(f"{what} need size at most {limit}, "
                              f"got {doc.size}")
    return doc.to_matrix()


def _emit(lines, out_path):
    # line by line: the whole text is never held as one string
    text = (line + "\n" for line in lines)
    if out_path:
        with open(out_path, "w") as handle:
            handle.writelines(text)
    else:
        sys.stdout.writelines(text)


def _format_matrix(rows):
    """Column-aligned text form, one bracketed line per row."""
    cells = [[str(entry) for entry in row] for row in rows]
    if not cells:
        return ["  []"]
    widths = [max(len(cells[r][c]) for r in range(len(cells)))
              for c in range(len(cells[0]))]
    return ["  [" + "  ".join(cell.rjust(width)
                              for cell, width in zip(row, widths)) + "]"
            for row in cells]


def _index_list(text: str):
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}")


def _trim_target(args, T):
    """Resolve --trim/--trim-set into (matrix, t, note lines)."""
    if getattr(args, "trim_set", None) is not None:
        M, _perm = conjugate_trim_set(T, args.trim_set)
        chosen = sorted(set(args.trim_set))
        note = ("conjugated generators {" + ", ".join(map(str, chosen))
                + "} to the leading positions")
        return M, len(chosen), [note]
    return T, args.trim, []


def cmd_pfaffians(args) -> int:
    T = _load_matrix(args.file, MAX_RESOLUTION_SIZE, "pfaffians")
    lines = [f"y{i} = {g}" for i, g in enumerate(T.generators(), start=1)]
    _emit(lines, args.out)
    return 0


def cmd_resolve(args) -> int:
    T = _load_matrix(args.file, MAX_RESOLUTION_SIZE, "resolutions")
    M, t, lines = _trim_target(args, T)
    if t is None:
        complex_ = gorenstein_resolution(M)
        lines.append(f"resolution of the full pfaffian ideal: size {M.m}")
    else:
        complex_ = trimmed_resolution(M, t).complex
        lines.append(f"resolution of the trimmed ideal: size {M.m}, trim {t}")
    if args.minimize:
        complex_ = minimize(complex_)
        lines.append("minimized")
    lines.append("ranks: " + " ".join(str(r) for r in complex_.ranks))
    for d in (1, 2, 3):
        lines.append(f"boundary {d} ({', '.join(complex_.labels(d))}):")
        lines.extend(_format_matrix(complex_.differential(d)))
    _emit(lines, args.out)
    return 0


def cmd_products(args) -> int:
    T = _load_matrix(args.file, MAX_PRODUCT_SIZE, "product tables")
    M, t, lines = _trim_target(args, T)
    td = trimmed_resolution(M, t)
    table = full_table(td)
    C = td.complex
    # each cell is formatted as it is written and then dropped
    cells = (f"{x.label}*{y.label} = {table.lookup(x, y)}"
             for dx, dy in ((1, 1), (1, 2))
             for x in C.basis(dx) for y in C.basis(dy))
    _emit(chain(lines, cells), args.out)
    return 0


def cmd_classify(args) -> int:
    T = _load_matrix(args.file)
    M, t, lines = _trim_target(args, T)
    report = classify(M, t)
    lines.extend(report.summary_lines())
    code = 0
    if args.conjectures:
        if report.r is None:
            lines.append("conjectures: not applicable (class NotG)")
        else:
            conj = check_conjectures(report)
            lines.extend(conj.summary_lines())
            if not conj.all_passed:
                code = 1
    _emit(lines, args.out)
    return code


def cmd_verify(args) -> int:
    T = _load_matrix(args.file, MAX_IDENTITY_SIZE, "identity checks")
    M, t, lines = _trim_target(args, T)
    td = trimmed_resolution(M, t)  # refuses a bad t before any other work
    ok = True

    identities = check_identities(M)
    lines.extend(identities.summary_lines())
    ok = ok and identities.all_passed

    ambient = gorenstein_resolution(M)
    squares = ambient.composes_to_zero() and td.complex.composes_to_zero()
    lines.append(f"boundary composition: {'ok' if squares else 'FAIL'}")
    ok = ok and squares

    diagrams = verify_diagrams(td)
    if diagrams.all_passed:
        lines.append(f"diagrams: {len(diagrams.checks)} checks, ok")
    else:
        first = diagrams.failures[0]
        lines.append(f"diagrams: FAIL ({len(diagrams.failures)} of "
                     f"{len(diagrams.checks)}, first: {first.name} copy {first.copy})")
    ok = ok and diagrams.all_passed

    leibniz = verify_leibniz(td, full_table(td))
    lines.extend(leibniz.summary_lines())
    ok = ok and leibniz.all_passed

    lines.append("verify: ok" if ok else "verify: FAIL")
    _emit(lines, args.out)
    return 0 if ok else 1


def cmd_family(args) -> int:
    spec = FamilySpec(args.kind, args.s)
    field = QQ if args.char == 0 else PrimeField(args.char)
    ring = PolyRing(field)
    code = 0
    lines = []
    if args.checks:
        report = family_checks(spec, ring)
        lines.extend(report.summary_lines())
        if not report.all_passed:
            code = 1
    elif args.classify:
        T, t = build_family(spec, ring)
        lines.extend(classify(T, t).summary_lines())
    else:
        T, _ = build_family(spec, ring)
        lines.append(serialize_matrix_document(document_of_matrix(T)).rstrip("\n"))
    _emit(lines, args.out)
    return code


def cmd_scan(args) -> int:
    result = realizability_scan(args.char, args.size, args.trials,
                                args.degree_bound, args.seed,
                                min_degree=args.min_degree)
    write_scan_csv(result.records, args.out if args.out else sys.stdout)
    print(result.summary_lines()[0], file=sys.stderr)
    return 0


def _add_file(sub):
    sub.add_argument("file", help="matrix document (JSON)")


def _add_out(sub):
    sub.add_argument("--out", metavar="PATH", help="write output here instead of stdout")


def _add_trim(sub, required):
    group = sub.add_mutually_exclusive_group(required=required)
    group.add_argument("--trim", type=int, metavar="T",
                       help="trim the first T generators")
    group.add_argument("--trim-set", type=_index_list, metavar="I,J,...",
                       help="generator indices to trim; the matrix is "
                            "conjugated so they become the leading ones")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pftrim",
        description="Resolutions, products, and classification for trimmed "
                    "pfaffian ideals in three variables.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pfaffians", help="print the signed generator pfaffians")
    _add_file(p)
    _add_out(p)
    p.set_defaults(handler=cmd_pfaffians)

    p = sub.add_parser("resolve", help="print a resolution's bases and boundaries")
    _add_file(p)
    _add_trim(p, required=False)
    p.add_argument("--minimize", action="store_true",
                   help="split off unit pivots before printing")
    _add_out(p)
    p.set_defaults(handler=cmd_resolve)

    p = sub.add_parser("products", help="print the multiplication table")
    _add_file(p)
    _add_trim(p, required=True)
    _add_out(p)
    p.set_defaults(handler=cmd_products)

    p = sub.add_parser("classify", help="residue-field format and class")
    _add_file(p)
    _add_trim(p, required=True)
    p.add_argument("--conjectures", action="store_true",
                   help="also check the trim-count bounds on the class")
    _add_out(p)
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("verify", help="run every structural check")
    _add_file(p)
    _add_trim(p, required=True)
    _add_out(p)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("family", help="build a banded family member")
    p.add_argument("kind", choices=("odd", "even"))
    p.add_argument("--s", type=int, required=True, metavar="S",
                   help=f"band size parameter (at most {MAX_FAMILY_BAND})")
    p.add_argument("--char", type=int, default=0, metavar="P",
                   help="field characteristic, 0 for rationals (default)")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--classify", action="store_true",
                      help="print the classification instead of the matrix")
    mode.add_argument("--checks", action="store_true",
                      help="run the family sanity checks")
    _add_out(p)
    p.set_defaults(handler=cmd_family)

    p = sub.add_parser("scan", help="classify random matrices, emit CSV")
    p.add_argument("--char", type=int, default=2, metavar="P",
                   help="field characteristic, 0 for rationals (default 2)")
    p.add_argument("--size", type=int, required=True, metavar="M",
                   help=f"matrix size (odd, 5 to {MAX_SCAN_SIZE})")
    p.add_argument("--trials", type=int, default=10, metavar="N")
    p.add_argument("--degree-bound", type=int, default=2, metavar="D")
    p.add_argument("--min-degree", type=int, default=1, metavar="D")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="PATH", help="CSV destination (default stdout)")
    p.set_defaults(handler=cmd_scan)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (PftrimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
