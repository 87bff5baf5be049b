"""Every name a qcanon module imports is used in that module, and no module
imports rational or decimal arithmetic: all arithmetic is in Z[v, v^-1]."""

import ast
from pathlib import Path

import pytest

PACKAGE = sorted((Path(__file__).parent.parent / "src" / "qcanon").glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]


def imported_modules(source):
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            out.add(node.module.split(".")[0])
    return out


def unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_sees_an_unused_import():
    assert unused_imports("import os\nfrom math import gcd, lcm\nx = gcd(1, 2)\n") == [
        (1, "os"), (2, "lcm")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_rational_arithmetic(path):
    assert imported_modules(path.read_text()) & {"fractions", "decimal"} == set()


def test_detector_sees_a_rational_import():
    assert imported_modules("import decimal as d\nfrom fractions import Fraction\n"
                            "from .qarith import ZERO\n") == {"decimal", "fractions"}
