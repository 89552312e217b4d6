"""Matrix documents and the command-line surface."""

import contextlib
import dataclasses
import decimal
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pftrim.classify import classify, conjugate_trim_set
from pftrim.cli import (
    MatrixDocument,
    document_of_matrix,
    main,
    parse_matrix_document,
    serialize_matrix_document,
)
from pftrim import cli, dgproducts
from pftrim.dgproducts import MAX_PRODUCT_SIZE, full_table
from pftrim.errors import ArgumentError, EntryNotInMaximalIdeal, ParseError
from pftrim.families import MAX_FAMILY_BAND, _random_skew
from pftrim.pfaffian import MAX_IDENTITY_SIZE, SkewMatrix
from pftrim.polyring import PolyRing, PrimeField
from pftrim.resolution import MAX_RESOLUTION_SIZE, DiagramCheck, \
    DiagramReport, trimmed_resolution

from test_resolution import change_d2_entry

EX32_TEXT = json.dumps({
    "field": {"kind": "prime", "p": 2},
    "variables": ["x", "y", "z"],
    "size": 5,
    "upper": [[1, 4, "x"], [1, 5, "z"], [2, 3, "x"],
              [2, 4, "z"], [2, 5, "y"], [3, 4, "y"]],
})

PFAFFIAN_LINES = ["y1 = y^2", "y2 = y*z", "y3 = x*y + z^2",
                  "y4 = x*z", "y5 = x^2"]


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "ex.json"
    path.write_text(EX32_TEXT)
    return str(path)


class TestDocument:
    def test_parse(self):
        doc = parse_matrix_document(EX32_TEXT)
        assert doc.field_kind == "prime"
        assert doc.char == 2
        assert doc.variables == ("x", "y", "z")
        assert doc.size == 5
        assert doc.upper[0] == (1, 4, "x")
        assert len(doc.upper) == 6

    def test_round_trip(self):
        doc = parse_matrix_document(EX32_TEXT)
        again = parse_matrix_document(serialize_matrix_document(doc))
        assert again == doc

    def test_matrix_round_trip(self):
        doc = parse_matrix_document(EX32_TEXT)
        assert document_of_matrix(doc.to_matrix()) == doc

    def test_default_variables(self):
        doc = parse_matrix_document(
            '{"field": {"kind": "prime", "p": 3}, "size": 3, "upper": []}')
        assert doc.variables == ("x", "y", "z")

    def test_rational_field(self):
        text = ('{"field": {"kind": "rational"}, "size": 3,'
                ' "upper": [[1, 2, "2*x - y"]]}')
        doc = parse_matrix_document(text)
        assert doc.char == 0
        assert doc.to_matrix().ring.field.char == 0
        assert '"p"' not in serialize_matrix_document(doc)

    def test_custom_variable_names(self):
        text = ('{"field": {"kind": "prime", "p": 2}, '
                '"variables": ["a", "b", "c"], "size": 3, '
                '"upper": [[1, 2, "a + b*c"]]}')
        T = parse_matrix_document(text).to_matrix()
        assert str(T.entry(1, 2)) == "b*c + a"
        assert str(T.entry(2, 1)) == "b*c + a"

    @pytest.mark.parametrize("text,needle", [
        ("{", "line 1"),
        ("[1, 2]", "JSON object"),
        ('{"size": 5, "upper": []}', "field"),
        ('{"field": {"kind": "prime", "p": 2}, "size": 5, "upper": [], "extra": 1}',
         "unknown keys"),
        ('{"field": {"kind": "complex"}, "size": 5, "upper": []}', "kind"),
        ('{"field": {"kind": "prime"}, "size": 5, "upper": []}', "integer 'p'"),
        ('{"field": {"kind": "rational", "p": 7}, "size": 5, "upper": []}',
         "no characteristic"),
        ('{"field": {"kind": "prime", "p": 2}, "variables": ["x"], "size": 5, "upper": []}',
         "three names"),
        ('{"field": {"kind": "prime", "p": 2}, "size": 0, "upper": []}',
         "positive integer"),
        ('{"field": {"kind": "prime", "p": 2}, "size": 5, "upper": [[1, 4]]}',
         "malformed"),
        ('{"field": {"kind": "prime", "p": 2}, "size": 5, "upper": [[4, 1, "x"]]}',
         "(4,1)"),
        ('{"field": {"kind": "prime", "p": 2}, "size": 5, "upper": [[2, 2, "x"]]}',
         "(2,2)"),
        ('{"field": {"kind": "prime", "p": 2}, "size": 5, "upper": [[1, 9, "x"]]}',
         "(1,9)"),
        ('{"field": {"kind": "prime", "p": 2}, "size": 5,'
         ' "upper": [[1, 4, "x"], [1, 4, "y"]]}', "duplicate entry (1,4)"),
        # JSON booleans are not integers, although Python's bool is an int
        ('{"field": {"kind": "prime", "p": 2}, "size": true, "upper": []}',
         "positive integer"),
        ('{"field": {"kind": "prime", "p": 2}, "size": 5,'
         ' "upper": [[true, 2, "x"]]}', "malformed"),
        ('{"field": {"kind": "prime", "p": true}, "size": 5, "upper": []}',
         "integer 'p'"),
        ('{"field": {"kind": "rational", "p": false}, "size": 5, "upper": []}',
         "no characteristic"),
    ])
    def test_document_defects(self, text, needle):
        with pytest.raises(ParseError) as err:
            parse_matrix_document(text)
        assert needle in str(err.value)

    @pytest.mark.parametrize("field,needle", [
        ({"kind": "prime", "p": 2, "q": 1}, "unknown field keys ['q']"),
        ({"kind": "rational", "char": 0}, "unknown field keys ['char']"),
        ({"kind": "rational", "p": 0.0}, "no characteristic"),
        ({"kind": "rational", "p": "0"}, "no characteristic"),
    ])
    def test_field_object_defects(self, field, needle, tmp_path, capsys):
        text = json.dumps({"field": field, "size": 5, "upper": []})
        with pytest.raises(ParseError) as err:
            parse_matrix_document(text)
        assert needle in str(err.value)
        path = tmp_path / "field.json"
        path.write_text(text)
        assert main(["pfaffians", str(path)]) == 2
        assert capsys.readouterr().out == ""

    def test_rational_field_explicit_zero(self):
        doc = parse_matrix_document(
            '{"field": {"kind": "rational", "p": 0}, "size": 3, "upper": []}')
        assert doc.char == 0

    def test_entry_parse_error_names_position(self):
        text = ('{"field": {"kind": "prime", "p": 2}, "size": 5,'
                ' "upper": [[2, 3, "x +"]]}')
        with pytest.raises(ParseError) as err:
            parse_matrix_document(text).to_matrix()
        assert "entry (2,3)" in str(err.value)

    def test_constant_term_rejected(self):
        text = ('{"field": {"kind": "prime", "p": 2}, "size": 5,'
                ' "upper": [[1, 4, "1 + x"]]}')
        with pytest.raises(EntryNotInMaximalIdeal) as err:
            parse_matrix_document(text).to_matrix()
        assert "(1,4)" in str(err.value)

    def test_non_prime_characteristic(self):
        text = '{"field": {"kind": "prime", "p": 6}, "size": 5, "upper": []}'
        with pytest.raises(ArgumentError):
            parse_matrix_document(text).to_matrix()


class TestCommands:
    def test_pfaffians_golden(self, example_file, capsys):
        assert main(["pfaffians", example_file]) == 0
        assert capsys.readouterr().out.splitlines() == PFAFFIAN_LINES

    def test_pfaffians_zero_matrix(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text('{"field": {"kind": "prime", "p": 2}, "size": 5, "upper": []}')
        assert main(["pfaffians", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"y{i} = 0" for i in range(1, 6)]

    def test_classify_golden(self, example_file, capsys):
        assert main(["classify", example_file, "--trim", "1"]) == 0
        out = capsys.readouterr().out
        assert out == ("size 5, trim 1: format (1, 5, 6, 2), rank 2, "
                       "tail pivots 2, class NotG\n")

    def test_classify_conjectures(self, example_file, capsys):
        assert main(["classify", example_file, "--trim", "5",
                     "--conjectures"]) == 0
        out = capsys.readouterr().out
        assert "class G(0)" in out
        assert "spread_off_forbidden: ok" in out

    def test_classify_conjectures_not_applicable(self, example_file, capsys):
        assert main(["classify", example_file, "--trim", "1",
                     "--conjectures"]) == 0
        assert "not applicable" in capsys.readouterr().out

    def test_verify_exit_zero(self, example_file, capsys):
        assert main(["verify", example_file, "--trim", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "verify: ok"
        assert "leibniz: 105 pairs, ok" in out
        assert "boundary composition: ok" in out
        assert "diagrams: 2 checks, ok" in out

    def test_verify_boundary_composition_fail(self, example_file, capsys,
                                              monkeypatch):
        def broken(T, t):
            td = trimmed_resolution(T, t)
            return dataclasses.replace(td, complex=change_d2_entry(td.complex))

        monkeypatch.setattr(cli, "trimmed_resolution", broken)
        assert main(["verify", example_file, "--trim", "1"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "boundary composition: FAIL" in out
        assert out[-1] == "verify: FAIL"

    def test_verify_diagrams_fail(self, example_file, capsys, monkeypatch):
        def failing(td):
            return DiagramReport((DiagramCheck("beta", 1, True),
                                  DiagramCheck("alpha", 2, False)))

        monkeypatch.setattr(cli, "verify_diagrams", failing)
        assert main(["verify", example_file, "--trim", "1"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "diagrams: FAIL (1 of 2, first: alpha copy 2)" in out
        assert out[-1] == "verify: FAIL"

    @pytest.mark.parametrize("trim", ["0", "6"])
    def test_verify_trim_checked_first(self, example_file, capsys,
                                       monkeypatch, trim):
        # a trim count outside 1..m exits before the identity checks run
        def no_identities(M):
            raise AssertionError("identities were checked")

        monkeypatch.setattr(cli, "check_identities", no_identities)
        assert main(["verify", example_file, "--trim", trim]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "trim count must satisfy" in captured.err

    def test_products_table(self, example_file, capsys):
        assert main(["products", example_file, "--trim", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "e2*e3 = z*f4 + x*f5 + v1_13" in lines
        assert "e2*f2 = g" in lines
        assert "e3*f3 = g" in lines
        # 7x7 degree-one pairs plus 7x8 mixed pairs
        assert len(lines) == 49 + 56

    def test_products_builds_each_printed_cell_once(self, tmp_path, capsys,
                                                    monkeypatch):
        # products hands _emit an iterator, so no cell is built before the
        # writing starts, and each printed cell is built exactly once
        T = _random_skew(PolyRing(PrimeField(5)), 7, random.Random(7), 1, 1)
        path = tmp_path / "f5.json"
        path.write_text(serialize_matrix_document(document_of_matrix(T)))
        builds, handed = [], []
        build, emit = dgproducts._built, cli._emit

        def counting(cell):
            builds.append(cell)
            return build(cell)

        def recording(lines, out_path):
            assert not builds
            handed.append(lines)
            return emit(lines, out_path)

        monkeypatch.setattr(dgproducts, "_built", counting)
        monkeypatch.setattr(cli, "_emit", recording)
        assert main(["products", str(path), "--trim", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        C = trimmed_resolution(T, 3).complex
        r1, r2 = C.rank(1), C.rank(2)
        assert len(lines) == len(builds) == r1 * r1 + r1 * r2
        assert len({id(cell) for cell in builds}) == len(builds)
        assert len(handed) == 1 and iter(handed[0]) is handed[0]

    def test_resolve_trimmed(self, example_file, capsys):
        assert main(["resolve", example_file, "--trim", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "resolution of the trimmed ideal: size 5, trim 1"
        assert lines[1] == "ranks: 1 7 8 2"
        assert lines[2] == "boundary 1 (e2, e3, e4, e5, u1_1, u1_2, u1_3):"
        assert lines[3] == "  [y*z  x*y + z^2  x*z  x^2  x*y^2  y^3  y^2*z]"

    def test_resolve_ambient(self, example_file, capsys):
        assert main(["resolve", example_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "resolution of the full pfaffian ideal: size 5"
        assert lines[1] == "ranks: 1 5 5 1"

    def test_resolve_minimize(self, example_file, capsys):
        assert main(["resolve", example_file, "--trim", "1",
                     "--minimize"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "minimized" in lines
        assert "ranks: 1 5 6 2" in lines

    def test_resolve_minimize_not_polynomial(self, tmp_path, capsys):
        # mixed degrees: the trim-3 minimal maps would divide by a
        # non-constant local unit
        T = _random_skew(PolyRing(PrimeField(5)), 7, random.Random(347771649),
                         1, 2)
        path = tmp_path / "unit.json"
        path.write_text(serialize_matrix_document(document_of_matrix(T)))
        assert main(["resolve", str(path), "--trim", "3", "--minimize"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and len(err[0]) < 200
        assert "row e4" in err[0] and "column v1_12" in err[0]

    def test_trim_set_matches_direct_conjugation(self, example_file, capsys):
        assert main(["classify", example_file, "--trim-set", "2,4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ("conjugated generators {2, 4} to the leading "
                            "positions")
        T = parse_matrix_document(EX32_TEXT).to_matrix()
        M, _ = conjugate_trim_set(T, [2, 4])
        assert lines[1:] == classify(M, 2).summary_lines()

    def test_out_flag(self, example_file, tmp_path, capsys):
        target = tmp_path / "report.txt"
        assert main(["classify", example_file, "--trim", "1",
                     "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert "class NotG" in target.read_text()

    def test_family_document_parses(self, capsys):
        assert main(["family", "odd", "--s", "1"]) == 0
        doc = parse_matrix_document(capsys.readouterr().out)
        assert doc.field_kind == "rational"
        assert doc.size == 7
        assert doc.to_matrix().m == 7

    def test_family_classify(self, capsys):
        assert main(["family", "odd", "--s", "1", "--classify"]) == 0
        assert capsys.readouterr().out == (
            "size 7, trim 3: format (1, 8, 11, 4), rank 5, tail pivots 2, "
            "class G(2)\n")

    def test_family_checks(self, capsys):
        assert main(["family", "even", "--s", "2", "--checks",
                     "--char", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "even family, s=2: 2 checks, ok"

    def test_scan_stdout_and_file(self, tmp_path, capsys):
        assert main(["scan", "--size", "5", "--trials", "2",
                     "--seed", "7"]) == 0
        captured = capsys.readouterr()
        stdout_lines = captured.out.strip().splitlines()
        assert stdout_lines[0] == "seed,trial,p,m,t,rank_q1,pivots_tail,l,n,r,class"
        assert "trials skipped" in captured.err

        target = tmp_path / "records.csv"
        assert main(["scan", "--size", "5", "--trials", "2", "--seed", "7",
                     "--out", str(target)]) == 0
        assert target.read_text().strip().splitlines() == stdout_lines

    def test_missing_file(self, capsys):
        assert main(["pfaffians", "/nonexistent/matrix.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_parse_error_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"field": {"kind": "prime", "p": 2}, "size": 5,'
                        ' "upper": [[1, 4, "1 + x"]]}')
        assert main(["pfaffians", str(path)]) == 2
        assert "(1,4)" in capsys.readouterr().err

    def test_undecodable_file_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main(["pfaffians", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "not UTF-8 text" in captured.err

    def test_deeply_nested_document_exit(self, tmp_path, capsys):
        depth = 100_000
        path = tmp_path / "deep.json"
        path.write_text("[" * depth + "]" * depth)
        assert main(["pfaffians", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: document nests too deeply")

    def test_boolean_size_exit(self, tmp_path, capsys):
        path = tmp_path / "bool.json"
        path.write_text('{"field": {"kind": "prime", "p": 2}, "size": true,'
                        ' "upper": []}')
        assert main(["pfaffians", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "size must be a positive integer" in captured.err

    def test_document_size_limit_exit(self, tmp_path, capsys, monkeypatch):
        # a size past the limit is refused while parsing, before the dense
        # m x m matrix is allocated
        def no_matrix(*args):
            raise AssertionError("a matrix was built")
        monkeypatch.setattr(SkewMatrix, "from_upper", no_matrix)
        limit = cli.MAX_DOCUMENT_SIZE
        text = '{{"field": {{"kind": "prime", "p": 2}}, "size": {}, "upper": []}}'
        assert parse_matrix_document(text.format(limit)).size == limit
        path = tmp_path / "huge.json"
        for size in (limit + 1, 40000):
            path.write_text(text.format(size))
            for command in ("pfaffians", "resolve"):
                assert main([command, str(path)]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == (f"error: size must be at most {limit}, "
                                        f"got {size}\n")

    def test_bad_trim_value(self, example_file, capsys):
        assert main(["classify", example_file, "--trim", "9"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_trim_set_exit(self, example_file, capsys):
        # an empty set is a usage error, not a request for the untrimmed
        # resolution that resolve prints without --trim-set
        for command in ("resolve", "products", "classify", "verify"):
            assert main([command, example_file, "--trim-set", ""]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: no generators chosen\n", command

    def test_pfaffian_exponent_overflow_exit(self, tmp_path, capsys):
        # y7 = x^(3 * 524287) would carry between exponent lanes
        path = tmp_path / "big.json"
        path.write_text(json.dumps({
            "field": {"kind": "prime", "p": 2}, "size": 7,
            "upper": [[1, 2, "x^524287"], [3, 4, "x^524287"],
                      [5, 6, "x^524287"]]}))
        assert main(["pfaffians", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: product has an exponent above 524287\n"

    def test_verify_size_limit_exit(self, tmp_path, capsys):
        size = MAX_IDENTITY_SIZE + 2
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"field": {"kind": "prime", "p": 3},
                                    "size": size, "upper": []}))
        assert main(["verify", str(path), "--trim", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: identity checks need size at most "
                                f"{MAX_IDENTITY_SIZE}, got {size}\n")

    def test_products_size_limit_exit(self, tmp_path, capsys, monkeypatch):
        # the limit is checked before any pfaffian is computed
        def no_pfaffians(matrix, mask):
            raise AssertionError("a pfaffian was computed")
        monkeypatch.setattr(SkewMatrix, "_pf", no_pfaffians)
        size = MAX_PRODUCT_SIZE + 2
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"field": {"kind": "prime", "p": 3},
                                    "size": size, "upper": []}))
        for trim in (["--trim", "1"], ["--trim-set", "1,2"]):
            assert main(["products", str(path), *trim]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("error: product tables need size at most "
                                    f"{MAX_PRODUCT_SIZE}, got {size}\n")

    def test_resolve_size_limit_exit(self, tmp_path, capsys, monkeypatch):
        # the limit is checked before any pfaffian is computed
        def no_pfaffians(matrix, mask):
            raise AssertionError("a pfaffian was computed")
        monkeypatch.setattr(SkewMatrix, "_pf", no_pfaffians)
        size = MAX_RESOLUTION_SIZE + 2
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"field": {"kind": "prime", "p": 3},
                                    "size": size, "upper": []}))
        for extra in ([], ["--trim", "1"], ["--trim-set", "1,2"],
                      ["--minimize"], ["--trim", "3", "--minimize"]):
            assert main(["resolve", str(path), *extra]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("error: resolutions need size at most "
                                    f"{MAX_RESOLUTION_SIZE}, got {size}\n")

    @pytest.mark.parametrize("command, limit, what", [
        (["pfaffians"], MAX_RESOLUTION_SIZE, "pfaffians"),
        (["resolve"], MAX_RESOLUTION_SIZE, "resolutions"),
        (["products", "--trim", "1"], MAX_PRODUCT_SIZE, "product tables"),
        (["verify", "--trim", "1"], MAX_IDENTITY_SIZE, "identity checks")])
    def test_size_limit_before_matrix(self, tmp_path, capsys, monkeypatch,
                                      command, limit, what):
        # each bound is checked on the parsed document, before the m x m
        # matrix is built
        def no_matrix(*args):
            raise AssertionError("a matrix was built")
        monkeypatch.setattr(SkewMatrix, "from_upper", no_matrix)
        size = limit + 2
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"field": {"kind": "prime", "p": 3},
                                    "size": size, "upper": []}))
        name, *extra = command
        assert main([name, str(path), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {what} need size at most {limit}, "
                                f"got {size}\n")

    def test_family_band_limit_exit(self, capsys, monkeypatch):
        # every mode exits 2 above the limit before any pfaffian is computed
        def no_pfaffians(*args):
            raise AssertionError("a pfaffian was computed")
        monkeypatch.setattr(SkewMatrix, "_pf", no_pfaffians)
        monkeypatch.setattr(SkewMatrix, "generators", no_pfaffians)
        s = MAX_FAMILY_BAND + 1
        for kind in ("odd", "even"):
            for mode in ([], ["--classify"], ["--checks"]):
                assert main(["family", kind, "--s", str(s), *mode]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == ("error: band size must be at most "
                                        f"{MAX_FAMILY_BAND}, got {s}\n")

    def test_family_checks_and_classify_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["family", "odd", "--s", "1", "--checks", "--classify"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument" in captured.err

    def test_largest_family_document_parses(self, capsys):
        assert main(["family", "odd", "--s", str(MAX_FAMILY_BAND)]) == 0
        doc = parse_matrix_document(capsys.readouterr().out)
        assert doc.size == 4 * MAX_FAMILY_BAND + 3 <= cli.MAX_DOCUMENT_SIZE

    def test_non_ascii_digit_exit(self, tmp_path, capsys):
        # \u0663 is ARABIC-INDIC DIGIT THREE, a decimal digit to \d
        for entry, col in (("\u0663*x", 1), ("x^\u0663", 3)):
            path = tmp_path / "digit.json"
            path.write_text(json.dumps({
                "field": {"kind": "prime", "p": 5}, "size": 5,
                "upper": [[1, 4, entry]]}))
            assert main(["pfaffians", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("error: entry (1,4): unexpected character "
                                    f"'\u0663' at column {col}\n")

    def test_long_integer_literal_exit(self, tmp_path, capsys):
        # int() raises ValueError past 4300 digits
        path = tmp_path / "long.json"
        path.write_text(json.dumps({
            "field": {"kind": "rational"}, "size": 5,
            "upper": [[1, 4, "9" * 5000 + "*x"]]}))
        assert main(["pfaffians", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: entry (1,4): integer literal too long "
                                "(5000 digits) at column 1\n")

    def test_long_coefficient_output(self, tmp_path, capsys):
        # y7 has a 4500-digit coefficient, past what str() converts
        c = "9" * 1500
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "field": {"kind": "rational"}, "size": 7,
            "upper": [[1, 2, c + "*x"], [3, 4, c + "*y"], [5, 6, c + "*z"]]}))
        assert main(["pfaffians", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:6] == [f"y{i} = 0" for i in range(1, 7)]
        cube = decimal.Decimal(int(c) ** 3)
        assert lines[6] == f"y7 = {cube}*x*y*z"

    def test_usage_errors(self, example_file):
        with pytest.raises(SystemExit) as err:
            main(["classify", example_file, "--trim", "1", "--trim-set", "2"])
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            main(["products", example_file])
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_trim_set_not_integers_exit(self, example_file, capsys):
        with pytest.raises(SystemExit) as err:
            main(["classify", example_file, "--trim-set", "1,a"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "expected comma-separated integers, got '1,a'" in captured.err

    def test_scan_validation_exit(self, capsys):
        assert main(["scan", "--size", "6", "--trials", "1"]) == 2
        assert "odd" in capsys.readouterr().err

    def test_scan_size_limit_exit(self, capsys):
        assert main(["scan", "--size", "23", "--trials", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: scan size must be at most 21, got 23\n"

    @pytest.mark.parametrize("bound,code,err", [
        ("2000000", 2, "error: exponent 538284 outside 0..524287\n"),
        ("524288", 0, "scan: 15 records, 0 of 3 trials skipped\n")])
    def test_scan_exponent_limit(self, tmp_path, capsys, bound, code, err):
        # a drawn exponent above EXPONENT_LIMIT is refused as
        # PolyRing.from_terms refuses it; with the bound at 524288, seed 1
        # happens to draw no exponent past the limit
        target = tmp_path / "records.csv"
        assert main(["scan", "--char", "2", "--size", "5", "--trials", "3",
                     "--seed", "1", "--degree-bound", bound,
                     "--out", str(target)]) == code
        assert capsys.readouterr().err == err
        if code == 0:
            assert len(target.read_text().splitlines()) == 16

    def test_module_entry_point(self, example_file):
        # the child finds the package of this checkout, installed or not
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "pftrim", "pfaffians", example_file],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == PFAFFIAN_LINES


# Polynomial entries: valid ones, near misses of the grammar, integer
# literals past Python's 4300-digit conversion limit, and random text.
FUZZ_ENTRIES = st.one_of(
    st.sampled_from(["x", "y*z", "2*x - y", "x^2 + y*z", "-z", "x + 1", "1",
                     "0", "", "x^", "x^-1", "**", "x y", "1/2*x", "x^524287",
                     "x^99999999999", "y7", "(x)", " z ", "\u00e9", "3*",
                     "x--y", "x^\u00b2"]),
    st.sampled_from(["9" * 4400 + "*x", "x^" + "9" * 4400, "7" * 1500 + "*y"]),
    st.text(alphabet="xyzab0123456789+-*^/ ()._", max_size=12),
    st.text(max_size=6))
FUZZ_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 12), st.floats(),
              st.text(max_size=6)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8)
FUZZ_FIELDS = [{"kind": "prime", "p": 2}, {"kind": "prime", "p": 3},
               {"kind": "prime", "p": 5}, {"kind": "rational"}]
# what replaces one part of a well-formed document
FUZZ_SPOILERS = {
    "field": st.one_of(
        st.fixed_dictionaries({"kind": st.just("prime"), "p": st.sampled_from(
            [2147483647, 4, 1, 0, -3, True, "3", 3.0, None])}),
        st.fixed_dictionaries({"kind": st.just("rational"),
                               "p": st.sampled_from([1, False, None])}),
        FUZZ_VALUES),
    "variables": st.one_of(
        st.sampled_from([["a", "b", "c"], ["x", "x", "y"], ["", "1", "x y"],
                         ["x", "y"]]),
        st.lists(st.text(max_size=3), min_size=3, max_size=3), FUZZ_VALUES),
    "size": st.one_of(st.integers(-1, 9), st.booleans(), FUZZ_VALUES),
    "upper": st.one_of(st.lists(st.one_of(
        st.lists(st.one_of(st.integers(-1, 8), st.booleans(), FUZZ_ENTRIES),
                 max_size=4),
        FUZZ_VALUES), max_size=4), FUZZ_VALUES),
    "extra": FUZZ_VALUES,
}


#: least share of test_cli_never_raises's examples whose command builds a
#: product table
FUZZ_TABLE_SHARE = 0.1

# entries that parse, the lane-size power among them
FUZZ_GOOD_ENTRIES = st.sampled_from(["x", "y", "z", "x + y", "2*x - y", "y*z",
                                     "x^2 + y*z", "-z", "x^524287", "3*x + z"])


@st.composite
def fuzz_documents(draw):
    """Matrix document text: well-formed, mostly with entries that parse
    (``FUZZ_GOOD_ENTRIES``) so that the commands get past parsing, and now
    and then with odd entries, a part missing or replaced, cut short, or no
    document at all."""
    if not draw(st.integers(0, 7)):
        return draw(st.one_of(st.text(max_size=20), FUZZ_VALUES.map(json.dumps)))
    size = draw(st.sampled_from([5, 7]) if draw(st.integers(0, 3))
                else st.integers(1, 7))
    cells = [(i, j) for i in range(1, size + 1) for j in range(i + 1, size + 1)]
    pairs = sorted(draw(st.lists(st.sampled_from(cells), max_size=8,
                                 unique=True))) if cells else []
    entries = FUZZ_GOOD_ENTRIES if draw(st.integers(0, 3)) else FUZZ_ENTRIES
    doc = {"field": draw(st.sampled_from(FUZZ_FIELDS)), "size": size,
           "upper": [[i, j, draw(entries)] for i, j in pairs]}
    spoiled = [] if draw(st.integers(0, 3)) else draw(st.lists(
        st.sampled_from(sorted(FUZZ_SPOILERS)), min_size=1, max_size=2))
    for key in spoiled:
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(FUZZ_SPOILERS[key])
    text = json.dumps(doc)
    if not draw(st.integers(0, 9)):
        text = text[:draw(st.integers(0, len(text)))]
    return text


@st.composite
def fuzz_matrices(draw):
    """Well-formed matrix documents of size 5 or 7 with any set of entries,
    so that the commands get past parsing, degenerate matrices whose
    pfaffians vanish among them."""
    size = draw(st.sampled_from([5, 7]))
    cells = [(i, j) for i in range(1, size + 1) for j in range(i + 1, size + 1)]
    chosen = draw(st.lists(st.sampled_from(cells), unique=True))
    doc = {"field": draw(st.sampled_from(FUZZ_FIELDS)), "size": size,
           "upper": [[i, j, draw(FUZZ_GOOD_ENTRIES)] for i, j in sorted(chosen)]}
    return json.dumps(doc)


def run_cli_on(text, argv):
    """The exit code of the command with the document text as its file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "wb") as handle:
            # lone surrogates go out as bytes that are not UTF-8
            handle.write(text.encode("utf-8", "surrogatepass"))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return main([argv[0], path, *argv[1:]])


class TestFuzz:
    def test_cli_never_raises(self, monkeypatch):
        reached = []
        monkeypatch.setattr(cli, "full_table",
                            lambda td: reached.append(1) or full_table(td))
        examples = []

        @settings(max_examples=150, derandomize=True, database=None,
                  deadline=None, suppress_health_check=[HealthCheck.too_slow])
        @given(text=fuzz_documents(),
               command=st.sampled_from(["pfaffians", "classify", "verify",
                                        "products"]),
               trim=st.one_of(st.integers(1, 5), st.integers(-1, 8)),
               conjectures=st.booleans())
        def run(text, command, trim, conjectures):
            examples.append(command)
            try:
                parse_matrix_document(text)
            except ParseError:
                pass
            argv = [command]
            if command != "pfaffians":
                argv += ["--trim", str(trim)]
            if command == "classify" and conjectures:
                argv.append("--conjectures")
            assert run_cli_on(text, argv) in (0, 1, 2)

        run()
        # verify and products build a product table on a share of the
        # examples, so the fuzz reaches past the parser
        assert len(reached) >= FUZZ_TABLE_SHARE * len(examples)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(text=fuzz_matrices(), command=st.sampled_from(["verify", "products"]),
           trim=st.integers(1, 7))
    def test_table_commands_never_raise(self, text, command, trim):
        # verify and products on documents that parse, so that the tables
        # and the Leibniz certificate run, certified or not
        assert run_cli_on(text, [command, "--trim", str(trim)]) in (0, 1, 2)
