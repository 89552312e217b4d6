"""Import hygiene: every name a pftrim module imports is used there, so
deleting code cannot leave a stranded import behind."""

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
