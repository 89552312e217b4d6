"""Import hygiene: every name a pftrim module imports is used there, and
every name a module defines at its top level is read somewhere, so
deleting code cannot leave a stranded import or helper behind."""

import ast
import pathlib

import pytest

import pftrim

PACKAGE = pathlib.Path(pftrim.__file__).resolve().parent
# __init__ imports names only to re-export them
MODULES = sorted(path.name for path in PACKAGE.glob("*.py")
                 if path.name != "__init__.py")


def imported_names(tree):
    """(bound name, line) for every import outside ``from __future__``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend((alias.asname or alias.name.split(".")[0], node.lineno)
                       for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out.extend((alias.asname or alias.name, node.lineno)
                       for alias in node.names)
    return out


def test_modules_found():
    assert "resolution.py" in MODULES and "dgproducts.py" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{bound} (line {line})" for bound, line in imported_names(tree)
              if bound not in used]
    assert not unused, f"{name} imports unused names: {', '.join(unused)}"


def test_unused_import_detected():
    tree = ast.parse("import os\nfrom .a import b as c, d\nprint(d)\n")
    names = [bound for bound, _ in imported_names(tree)]
    assert names == ["os", "c", "d"]


# perfbench/tracing.py patches these by name to time and count them; they
# go once the benchmark stops naming them (ROADMAP item 2), which
# test_kept_names_still_traced reports
KEPT_FOR_TRACING = {("_poly_core", "scale_into"), ("linalg", "rref")}


def defined_names(tree):
    """(name, top-level statement) for every function, class and constant a
    module defines, dunder names aside."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            yield stmt.name, stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            for node in (n for t in targets for n in ast.walk(t)):
                if isinstance(node, ast.Name) and \
                        not node.id.startswith("__"):
                    yield node.id, stmt


def loaded_names(node):
    """The names read under node: loaded names, attribute names and names
    imported from a module."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def dead_names(trees, exported):
    """(module, name) for every top-level name of the trees, keyed by
    module, that no statement other than its own definition reads."""
    reads = [(module, stmt, loaded_names(stmt))
             for module, tree in trees.items() for stmt in tree.body]
    return sorted(
        (module, name) for module, tree in trees.items()
        for name, definition in defined_names(tree)
        if name not in exported and not any(
            name in names for other, stmt, names in reads
            if (other, stmt) != (module, definition)))


def test_every_top_level_name_is_read():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in PACKAGE.glob("*.py")}
    assert dead_names(trees, set(pftrim.__all__)) == sorted(KEPT_FOR_TRACING)


def traced_names(tree):
    """(module, name) for every kernel of KERNELS and every function of
    FUNCTION_SPANS that perfbench/tracing.py names."""
    tables = {target.id: stmt.value for stmt in tree.body
              if isinstance(stmt, ast.Assign) for target in stmt.targets
              if isinstance(target, ast.Name)}
    return {("_poly_core", key.value) for key in tables["KERNELS"].keys} | \
        {(span.elts[0].value, span.elts[1].value)
         for span in tables["FUNCTION_SPANS"].elts}


def test_kept_names_still_traced():
    tracing = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / \
        "tracing.py"
    traced = traced_names(ast.parse(tracing.read_text(encoding="utf-8")))
    assert KEPT_FOR_TRACING <= traced, KEPT_FOR_TRACING - traced


def test_dead_name_detected():
    trees = {"a": ast.parse("def f():\n    return f()\n"
                            "def g():\n    return 1\nK = g()\n"
                            "L = 2\n__all__ = []\n"),
             "b": ast.parse("from .a import L\n")}
    assert dead_names(trees, {"g"}) == [("a", "K"), ("a", "f")]
