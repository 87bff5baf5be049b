"""Every name a qcanon module imports is used in that module, every
function and class the package defines is used in the package, every
parameter is read, every default is overridden by some caller, the layers
import one way only, no module imports rational or decimal arithmetic (all
arithmetic is in Z[v, v^-1]), the package re-exports every class and
function under its own name, the tests' reference eliminations share no
elimination with the package, their reference coproduct takes nothing from
the package's coproduct, their reference form takes no Kronecker packing
helper and no package division, and only the packed division calls
``divmod``."""

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


def unused_parameters(source):
    """(function, parameter) pairs, ``self`` aside, where the function's
    body never reads the parameter."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            name = getattr(node, "name", "<lambda>")
            found += [(name, p) for p in params if p != "self" and p not in read]
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []


def test_detector_sees_an_unused_parameter():
    source = ("def f(self, a, b, *rest, c=0, **kw):\n    return a + kw['x']\n\n\n"
              "def g(x):\n    def h(y):\n        return x\n    return h\n\n\n"
              "key = lambda e: 0\n")
    assert unused_parameters(source) == [
        ("f", "b"), ("f", "c"), ("f", "rest"), ("h", "y"), ("<lambda>", "e")]


TESTS = sorted(Path(__file__).parent.glob("*.py"))


def unset_defaults(defining, calling):
    """(function, parameter) pairs of the ``defining`` sources where the
    parameter has a default that no call in the ``calling`` sources sets,
    by keyword or by position.  Calls match by name, as
    ``unreferenced_definitions`` does: ``f(...)`` and ``x.f(...)`` both call
    every ``f``, and a class call calls its ``__init__``.  A method's first
    parameter, a static method's aside, is bound, not passed; a call with
    ``*args`` or ``**kwargs`` sets every parameter it could reach."""
    defaults = []  # (name, parameter, position or None)
    for source in defining:
        tree = ast.parse(source)
        methods = {id(item): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for item in cls.body if isinstance(item, ast.FunctionDef)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            bound = id(node) in methods and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
            name = methods[id(node)] if node.name == "__init__" else node.name
            first = len(positional) - len(a.defaults)
            defaults += [(name, p.arg, i - bound)
                         for i, p in enumerate(positional) if i >= first]
            defaults += [(name, p.arg, None)
                         for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    calls = {}  # name -> [(positional count, keywords)]
    for source in calling:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                count = float("inf") if any(isinstance(x, ast.Starred) for x in node.args) \
                    else len(node.args)
                keywords = {k.arg for k in node.keywords}
                calls.setdefault(name, []).append((count, keywords))
    return sorted((name, param) for name, param, pos in defaults
                  if not any(param in kw or None in kw or pos is not None and pos < count
                             for count, kw in calls.get(name, ())))


def test_every_default_is_overridden_somewhere():
    # a default no caller overrides is a constant spelled as a parameter
    sources = [p.read_text() for p in PACKAGE]
    assert unset_defaults(sources, sources + [p.read_text() for p in TESTS]) == []


def test_detector_sees_a_default_no_caller_sets():
    source = ("def f(a, b=1, c=2, *, d=3, e=4):\n    return a\n\n\n"
              "class K:\n    def __init__(self, x, y=0):\n        self.x = x\n\n"
              "    def m(self, z=0, w=1):\n        return z\n\n"
              "    @staticmethod\n    def s(u=0, t=1):\n        return u\n")
    calls = "f(0, 1, d=2)\nK(1)\nK(1).m(2)\nK.s(5)\nf(*args)\n"
    assert unset_defaults([source], [calls]) == [
        ("K", "y"), ("f", "e"), ("m", "w"), ("s", "t")]
    # **kwargs reaches every parameter
    assert unset_defaults([source], [calls + "f(**kw)\nK(1, **kw)\nK.s(**kw)\n"]) == [
        ("m", "w")]


def package_imports(source):
    """The qcanon modules a source imports, at any depth of the file."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("qcanon."))
        elif isinstance(node, ast.ImportFrom):
            # every relative import in the package is from the package
            base = node.module or ""
            if node.level:
                base = "qcanon." + base if base else "qcanon"
            if base == "qcanon":
                out.update(alias.name for alias in node.names)
            elif base.startswith("qcanon."):
                out.add(base.split(".")[1])
    return out


# the basis owns t_i and the crystal layer reads it: neither looks back up
LAYER_DIRECTION = {"canonical": {"crystalgraph", "verify"},
                   "crystalgraph": {"canonical", "verify"}}


@pytest.mark.parametrize("name", sorted(LAYER_DIRECTION))
def test_layers_import_one_way(name):
    source = (PACKAGE[0].parent / f"{name}.py").read_text()
    assert package_imports(source) & LAYER_DIRECTION[name] == set()


def test_detector_sees_a_package_import():
    source = ("from . import cartan\nfrom .qarith import ONE\n"
              "from qcanon import uminus\nfrom qcanon.verify import SUITES\n"
              "import qcanon.hwmodule\nimport os\n\n\n"
              "def f():\n    from . import crystalgraph as cg\n    return cg\n")
    assert package_imports(source) == {"cartan", "qarith", "uminus", "verify",
                                       "hwmodule", "crystalgraph"}


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


ORACLES = Path(__file__).parent / "oracles.py"


def module_names(source):
    """The names a source binds at module level: its functions, classes and
    assigned names."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


# every name the package's elimination defines, its evaluation point among
# them
ELIMINATION_NAMES = module_names((PACKAGE[0].parent / "elimination.py").read_text())


def taken_names(source, module):
    """The names a source takes from the package module ``module`` (such as
    ``qcanon.qarith``): imported from it, or read as attributes of the
    module under any name it is bound to."""
    short = module.split(".")[1]
    tree = ast.parse(source)
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "qcanon":
            modules.update(alias.asname or short for alias in node.names
                           if alias.name == short)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names
                           if alias.name == module)
    names.update(node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and ast.unparse(node.value) in modules)
    return names


def test_oracles_share_no_elimination_with_the_package():
    assert {"lp_sym_echelon", "_eval", "EVAL_POINT", "EVAL_PRIME"} <= ELIMINATION_NAMES
    source = ORACLES.read_text()
    assert "def lp_rank(" in source
    for module in ("qcanon.qarith", "qcanon.elimination"):
        assert taken_names(source, module) & ELIMINATION_NAMES == set()


def test_detector_sees_qarith_names():
    source = ("from qcanon.qarith import ONE, addmul\n"
              "from qcanon import qarith as qa\nimport qcanon.qarith\n\n\n"
              "def f():\n    return qa.qint(2) + qcanon.qarith.ZERO\n")
    assert taken_names(source, "qcanon.qarith") == {"ONE", "addmul", "qint", "ZERO"}


# the Kronecker packing of qarith: what the pairing oracle must not take
PACKING_NAMES = {"pack", "unpack", "pdot", "pdivexact", "pqint", "PZERO", "PONE",
                 "WidthError", "_digits", "_halves", "_DIGIT_FORMATS"}


def method_calls(source, name):
    """The lines of a source that call a method ``name`` (``x.name(...)``)."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == name)


def test_the_pairing_oracle_takes_no_packing_helper():
    assert PACKING_NAMES <= module_names((PACKAGE[0].parent / "qarith.py").read_text())
    source = ORACLES.read_text()
    assert "class PairingOracle" in source
    assert taken_names(source, "qcanon.qarith") & PACKING_NAMES == set()
    # nor the package's pairing, which it is the reference for
    assert "_pair_packed" not in source
    # nor the package's division, which runs on the packing: the oracles
    # divide with their own long division
    assert "def divexact(" in source
    assert method_calls(source, "divexact") == []


def divmod_callers(source):
    """The functions of a source (innermost enclosing definition, or
    ``<module>``) that call the builtin ``divmod``."""
    found = set()

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "divmod"):
                found.add(owner)
            walk(child, owner)
    walk(ast.parse(source), "<module>")
    return found


def test_only_the_packed_division_calls_divmod():
    # one exact division: LaurentPoly.divexact goes through pdivexact
    found = {(p.name, f) for p in PACKAGE for f in divmod_callers(p.read_text())}
    assert found == {("qarith.py", "pdivexact")}


def test_detector_sees_divmod_callers():
    source = ("q, r = divmod(7, 2)\n\n\nclass P:\n    def divexact(self, d):\n"
              "        def inner(n):\n            return divmod(n, d)\n"
              "        return inner(3)\n\n\ndef f(x):\n    return x.divmod(2)\n\n\n"
              "def g(n):\n    return [divmod(n, k) for k in (2, 3)]\n")
    assert divmod_callers(source) == {"<module>", "inner", "g"}
    assert method_calls("x.divexact(y)\nz = divexact(x, y)\nx.bar().divexact(2)\n",
                        "divexact") == [1, 3]


MODULAR_NAMES = {"EVAL_PRIME", "EVAL_POINT"}


def modular_lines(source):
    """The lines of a source that name the evaluation prime or point (as a
    name, an attribute or an import) or call the three-argument pow."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Name) and node.id in MODULAR_NAMES
                or isinstance(node, ast.Attribute) and node.attr in MODULAR_NAMES
                or isinstance(node, ast.alias) and node.name in MODULAR_NAMES
                or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "pow" and len(node.args) == 3):
            lines.add(node.lineno)
    return sorted(lines)


def test_only_the_elimination_computes_modulo_a_prime():
    # qarith is exact Z[v, v^-1] arithmetic; the weight-space elimination,
    # which basis and graph do not load, owns the one evaluation point
    found = {p.name: modular_lines(p.read_text()) for p in PACKAGE}
    assert [name for name, lines in found.items() if lines] == ["elimination.py"]


def test_detector_sees_modular_arithmetic():
    source = ("from .elimination import EVAL_PRIME\nimport qcanon.elimination as el\n\n\n"
              "def f(a, k):\n    x = pow(a, k)\n    return pow(a, k, 7) + el.EVAL_POINT + x\n"
              "\n\nEVAL_POINT = 3\n")
    assert modular_lines(source) == [1, 7, 10]


def reached(source, root, *imported):
    """The module-level definitions and assignments of a source that
    ``root`` reaches through the names their bodies read, root included;
    the walk goes on into the definitions of the ``imported`` sources (the
    modules the first one imports from), which its own names shadow."""
    defs = {}
    for text in (*imported, source):
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[node.name] = node
            elif isinstance(node, ast.Assign):
                defs.update((t.id, node) for t in node.targets if isinstance(t, ast.Name))
    seen, todo = set(), [root]
    while todo:
        name = todo.pop()
        if name in defs and name not in seen:
            seen.add(name)
            todo.extend(n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name))
    return seen


def test_the_coproduct_oracle_takes_nothing_from_the_coproduct_path():
    here = PACKAGE[0].parent
    path = reached((here / "coproduct.py").read_text(), "restriction_coproduct",
                   (here / "uminus.py").read_text())
    assert {"restriction_coproduct", "_coproduct", "concat_words", "EMPTY_WORD"} <= path
    source = ORACLES.read_text()
    assert "def slotwise_coproduct(" in source
    for module in ("qcanon.coproduct", "qcanon.uminus"):
        assert taken_names(source, module) & path == set()


def test_detector_sees_a_reached_definition():
    source = ("X = 1\n\n\ndef root():\n    return helper() + X\n\n\n"
              "def helper():\n    return deep()\n\n\ndef deep():\n    return 0\n\n\n"
              "def other():\n    return root()\n")
    assert reached(source, "root") == {"root", "helper", "deep", "X"}
    assert reached("def root():\n    return helper()\n", "root", source) == {
        "root", "helper", "deep"}
    assert taken_names("from qcanon.uminus import concat_words\nfrom qcanon import uminus\n"
                       "x = uminus._coproduct\n", "qcanon.uminus") == {
        "concat_words", "_coproduct"}
