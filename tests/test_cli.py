"""Matrix documents and the command-line surface."""

import json
import subprocess
import sys

import pytest

from pftrim.classify import classify, conjugate_trim_set
from pftrim.cli import (
    MatrixDocument,
    document_of_matrix,
    main,
    parse_matrix_document,
    serialize_matrix_document,
)
from pftrim.errors import ArgumentError, EntryNotInMaximalIdeal, ParseError

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

    def test_products_table(self, example_file, capsys):
        assert main(["products", example_file, "--trim", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "e2*e3 = z*f4 + x*f5 + v1_13" in lines
        assert "e2*f2 = g" in lines
        assert "e3*f3 = g" in lines
        # 7x7 degree-one pairs plus 7x8 mixed pairs
        assert len(lines) == 49 + 56

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

    def test_bad_trim_value(self, example_file, capsys):
        assert main(["classify", example_file, "--trim", "9"]) == 2
        assert "error:" in capsys.readouterr().err

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

    def test_scan_validation_exit(self, capsys):
        assert main(["scan", "--size", "6", "--trials", "1"]) == 2
        assert "odd" in capsys.readouterr().err

    def test_module_entry_point(self, example_file):
        proc = subprocess.run(
            [sys.executable, "-m", "pftrim", "pfaffians", example_file],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == PFAFFIAN_LINES
