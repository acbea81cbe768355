"""Every name a library module imports is used in that module, every
function, class and method the library defines is used somewhere, and
outside the tests too unless it is traced or `KEPT`, and every dataclass
field it defines is read somewhere.

No linter runs on this package, so these stdlib-`ast` checks stand in for
one.  `__init__.py` is exempt from the import check: its imports are the
public re-exports.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "koszulalg"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# where a library definition may be used: the library, its tests, the benchmark
USERS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c\nc()\n") == [(1, "os"), (2, "b")]


def dead_definitions(library, users, named=()):
    """(module, line, name) of each function, class and method defined in
    the `library` sources ({module: source}), dunders aside, whose name no
    source in `users` reads as a name or an attribute, and that is not
    among the `named`."""
    used = set(named)
    for source in users:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(
        (module, node.lineno, node.name)
        for module, source in library.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used
    )


def test_no_dead_definitions():
    library = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert dead_definitions(library, [p.read_text() for p in USERS]) == []


def test_detects_a_dead_definition():
    library = {"m.py": "class A:\n    def used(self): pass\n    def dead(self): pass\n"
                       "def helper(): pass\ndef unused(): pass\n"}
    users = list(library.values()) + ["from m import A, unused\nA().used()\nhelper()\n"]
    assert dead_definitions(library, users) == [("m.py", 3, "dead"), ("m.py", 5, "unused")]


# Definitions that may have tests as their only users, each with its reason.
KEPT = {
    "multiplicative_alpha": "the multiplicative bound, which ROADMAP item 4 gives a CLI caller",
    "parse": "RingSpec.parse, the documented reader of the polynomial text form",
}


def _traced_layers():
    """The LAYERS of perfbench/tracing.py, loaded as test_benchmark_layers does."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def definitions_only_tests_use(library, users, layers, kept):
    """The dead definitions of `library` when only `users` count, with
    the last part of each traced layer name in `layers` and the `kept`
    names counted as used.  The callers pass the library outside
    `__init__.py` and the benchmark as `users`, so a definition that only
    the tests or the re-exports name is listed."""
    named = {name.rsplit(".", 1)[-1] for name in layers} | set(kept)
    return dead_definitions(library, users, named)


def test_no_test_only_definitions():
    library = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    users = [p.read_text() for p in MODULES]
    users += [p.read_text() for p in sorted((ROOT / "perfbench").rglob("*.py"))]
    assert definitions_only_tests_use(library, users, _traced_layers(), KEPT) == []


def test_detects_a_test_only_definition():
    library = {"m.py": "def used(): pass\ndef traced(): pass\ndef kept(): pass\n"
                       "def tested(): pass\nclass A:\n    def exported(self): pass\n"}
    users = list(library.values()) + ["used()\n"]
    # neither a test ("A().exported(); tested()") nor __init__.py is a user
    assert definitions_only_tests_use(library, users, {"m.traced": ()}, {"kept": ""}) == [
        ("m.py", 4, "tested"), ("m.py", 5, "A"), ("m.py", 6, "exported")
    ]


def _is_dataclass(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def dead_fields(library, users):
    """(module, line, class.field) of each dataclass field defined in the
    `library` sources ({module: source}) that no source in `users` reads
    as an attribute."""
    read = {
        node.attr
        for source in users
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        (module, stmt.lineno, f"{node.name}.{stmt.target.id}")
        for module, source in library.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list))
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and stmt.target.id not in read
    )


def test_no_dead_fields():
    library = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert dead_fields(library, [p.read_text() for p in USERS]) == []


def test_detects_a_dead_field():
    library = {"m.py": "@dataclass\nclass A:\n    read: int\n    written: int\n"
                       "    dead: int = 0\n\n"
                       "@dataclass(frozen=True)\nclass B:\n    unread: int\n\n"
                       "class Plain:\n    ignored: int\n"}
    users = list(library.values()) + ["a = A(1, 2, dead=3)\na.written = a.read\n"]
    assert dead_fields(library, users) == [
        ("m.py", 4, "A.written"), ("m.py", 5, "A.dead"), ("m.py", 9, "B.unread")
    ]
