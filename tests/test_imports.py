"""Every name a library module imports is used in that module, and every
function, class and method the library defines is used somewhere.

No linter runs on this package, so these stdlib-`ast` checks stand in for
one.  `__init__.py` is exempt from the import check: its imports are the
public re-exports.
"""

import ast
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


def dead_definitions(library, users):
    """(module, line, name) of each function, class and method defined in
    the `library` sources ({module: source}), dunders aside, whose name no
    source in `users` reads as a name or an attribute."""
    used = set()
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
