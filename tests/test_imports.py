"""Every name a qcanon module imports is used in that module, every
function and class the package defines is used in the package, no module
imports rational or decimal arithmetic (all arithmetic is in Z[v, v^-1]),
and the package re-exports every class and function under its own name."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import qcanon

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


def unreferenced_definitions(sources):
    """Functions and classes, dunder methods aside, that no source names
    (as a variable or an attribute) anywhere but in their own definition."""
    defined = set()
    used = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(defined - used)


def test_no_dead_code():
    # __init__.py only re-exports, so its names do not count as uses
    assert unreferenced_definitions([p.read_text() for p in SOURCES]) == []


def test_detector_sees_dead_code():
    sources = ["def used():\n    pass\n\n\ndef dead():\n    pass\n\n\n"
               "class Kept:\n    def __repr__(self):\n        return ''\n\n"
               "    def method(self):\n        return used()\n\n"
               "    def unused_method(self):\n        return self\n",
               "x = Kept().method\n"]
    assert unreferenced_definitions(sources) == ["dead", "unused_method"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_rational_arithmetic(path):
    assert imported_modules(path.read_text()) & {"fractions", "decimal"} == set()


def test_detector_sees_a_rational_import():
    assert imported_modules("import decimal as d\nfrom fractions import Fraction\n"
                            "from .qarith import ZERO\n") == {"decimal", "fractions"}


def renamed_exports(namespace):
    """Public names bound to a class or function defined under another name."""
    return sorted(name for name, obj in namespace.items()
                  if not name.startswith("_")
                  and (inspect.isclass(obj) or inspect.isfunction(obj))
                  and obj.__name__ != name)


def test_exports_keep_their_names():
    # the exports are resolved on first use, so read them through getattr
    exported = {name: getattr(qcanon, name) for name in qcanon.__all__}
    assert exported and renamed_exports(exported) == []


def test_exports_are_the_objects_their_modules_define():
    for name in qcanon.__all__:
        obj = getattr(qcanon, name)
        owner = importlib.import_module(obj.__module__)
        assert owner.__name__.startswith("qcanon.")
        assert vars(owner)[name] is obj


def test_an_unknown_export_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qcanon.no_such_name
    assert not hasattr(qcanon, "word_coordinates")


def test_detector_sees_an_alias():
    namespace = {}
    exec("class UMinusElement:\n    pass\n\n\nModuleVector = UMinusElement\n", namespace)
    assert renamed_exports(namespace) == ["ModuleVector"]
