"""Every name a library module imports is used in that module, every
function, class and method the library defines is used somewhere, and
outside the tests too unless it is traced or `KEPT`, every parameter
with a default is passed outside the tests unless it is in
`KEPT_OPTIONS`, and every field of a class it defines (an attribute
its `__init__` assigns) is read somewhere.

No linter runs on this package, so these stdlib-`ast` checks stand in for
one.  `__init__.py` is exempt from the import check: its imports are the
public re-exports.
"""

import ast
import importlib.util
import re
import subprocess
import sys
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
    "multiplicative_alpha": "the multiplicative bound, which ROADMAP item 7 gives a CLI caller",
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


def _options(node, method):
    """(position, name) of each parameter with a default of the function
    `node`, position None for a keyword-only one.  A method's first
    parameter is bound, so its positions start after it."""
    a = node.args
    positional = (a.posonlyargs + a.args)[method:]
    out = [(k, p.arg) for k, p in enumerate(positional) if k >= len(positional) - len(a.defaults)]
    return out + [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]


def unpassed_options(library, users):
    """(module, line, "function.parameter") of each parameter with a
    default, of a function or method defined in the `library` sources
    ({module: source}), that no call in `users` passes by position or
    keyword.  Calls match by name, as in `dead_definitions`: `f(...)` and
    `x.f(...)` call every f, `C(...)` calls `C.__init__`, and a call with
    *args or **kwargs passes every parameter."""
    calls = {}
    for source in users:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)

    def passed(name, position, arg):
        return any(
            any(isinstance(x, ast.Starred) for x in call.args)
            or (position is not None and position < len(call.args))
            or any(k.arg in (None, arg) for k in call.keywords)
            for call in calls.get(name, ())
        )

    found = []
    for module, source in library.items():
        for owner in ast.walk(ast.parse(source)):
            if not isinstance(owner, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                continue
            method = isinstance(owner, ast.ClassDef)
            for node in owner.body:
                if not isinstance(node, ast.FunctionDef):
                    continue
                name = owner.name if method and node.name == "__init__" else node.name
                qualified = f"{owner.name}.{node.name}" if method else node.name
                found += [
                    (module, node.lineno, f"{qualified}.{arg}")
                    for position, arg in _options(node, method)
                    if not passed(name, position, arg)
                ]
    return sorted(found)


# Parameters with a default that only the tests pass, each with its reason.
KEPT_OPTIONS = {
    "minimal_model.pivot_rng": "the test seam for the pivot-order invariance of the model",
    "case0_improved_bound.augmentation": "case0_improved_bound is a traced layer only tests call",
}


def test_no_test_only_options():
    """The flagged parameters are exactly the kept ones, so an exception
    that no longer applies is flagged too."""
    library = {p.name: p.read_text() for p in MODULES}
    users = [p.read_text() for p in MODULES]
    users += [p.read_text() for p in sorted((ROOT / "perfbench").rglob("*.py"))]
    assert {name for _, _, name in unpassed_options(library, users)} == set(KEPT_OPTIONS)


def test_detects_a_test_only_option():
    library = {"m.py": "def f(a, b=1, *, c=2, d=3): pass\n"
                       "class A:\n    def __init__(self, x=0, y=0): pass\n"
                       "    def m(self, z=0):\n        def inner(w=0): pass\n"}
    users = list(library.values()) + ["f(1, 2, c=3)\nA(1)\nA().m(**{})\n"]
    # neither a test ("f(d=4); A(y=1); inner(1)") nor __init__.py is a user
    assert unpassed_options(library, users) == [
        ("m.py", 1, "f.d"), ("m.py", 3, "A.__init__.y"), ("m.py", 5, "inner.w")
    ]


def init_fields(source):
    """(line, class, field) of each field of a class in `source`: an
    attribute its `__init__` assigns on `self`, as `self.field = ...` or,
    in a frozen value type, `object.__setattr__(self, "field", ...)`.  A
    class whose `__init__` assigns none has the fields of its bases."""
    fields = {}  # class name -> {field: line}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        own = {}
        for stmt in (s for init in node.body if getattr(init, "name", None) == "__init__"
                     for s in ast.walk(init)):
            if isinstance(stmt, ast.Attribute) and isinstance(stmt.ctx, ast.Store):
                target, name = stmt.value, stmt.attr
            elif (isinstance(stmt, ast.Call) and ast.unparse(stmt.func) == "object.__setattr__"
                  and isinstance(stmt.args[1], ast.Constant)):
                target, name = stmt.args[0], stmt.args[1].value
            else:
                continue
            if getattr(target, "id", None) == "self":
                own.setdefault(name, stmt.lineno)
        for base in () if own else node.bases:
            own.update(fields.get(getattr(base, "id", None), {}))
        fields[node.name] = own
    return sorted((line, cls, name) for cls, own in fields.items() for name, line in own.items())


def dead_fields(library, users):
    """(module, line, class.field) of each field (`init_fields`) of a
    class defined in the `library` sources ({module: source}) that no
    source in `users` reads as an attribute.  A read off `args`, the
    parsed command line, reads an option, not a field."""
    read = {
        node.attr
        for source in users
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and getattr(node.value, "id", None) != "args"
    }
    return sorted(
        (module, line, f"{cls}.{name}")
        for module, source in library.items()
        for line, cls, name in init_fields(source)
        if name not in read
    )


# The records and frozen value types of the library: the check must
# reach the fields of each.
RECORDS = {
    "ChainMap", "Homotopy", "Augmentation", "DgaStructure", "MinimalModel", "LambdaAction",
    "Filtration", "FieldSpec", "RationalField", "PrimeField", "RingSpec",
}


def test_no_dead_fields():
    library = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    covered = {cls for source in library.values() for _, cls, _ in init_fields(source)}
    assert RECORDS <= covered
    assert dead_fields(library, [p.read_text() for p in USERS]) == []


def test_detects_a_dead_field():
    library = {"m.py": "class A:\n    def __init__(self, read, written, dead=0):\n"
                       "        self.read = read\n        self.written = written\n"
                       "        self.dead = dead\n\n"
                       "class B:\n    def __init__(self, unread):\n"
                       "        object.__setattr__(self, 'unread', unread)\n\n"
                       "class Plain:\n    ignored: int\n"
                       "    def later(self):\n        self.not_a_field = 1\n\n"
                       "class K:\n    def __init__(self, m):\n        self.m = m\n"}
    users = list(library.values()) + ["a = A(1, 2, dead=3)\na.written = a.read\n"
                                      "def cmd(args):\n    return K(args.m)\n"]
    assert dead_fields(library, users) == [
        ("m.py", 4, "A.written"), ("m.py", 5, "A.dead"), ("m.py", 9, "B.unread"),
        ("m.py", 18, "K.m"),
    ]


def test_a_class_without_fields_of_its_own_has_its_base_fields():
    source = ("class A:\n    def __init__(self):\n        self.x = 1\n"
              "class B(A):\n    pass\nclass C(A):\n    def __init__(self):\n        self.y = 2\n")
    assert init_fields(source) == [(3, "A", "x"), (3, "B", "x"), (8, "C", "y")]


def test_cold_start_loads_no_dataclasses():
    """A fresh interpreter that imports the library and its CLI loads
    neither `dataclasses` nor `inspect` (which pulls in `ast`, `dis` and
    `tokenize`): each CLI run is a new process and pays for its imports."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import koszulalg, koszulalg.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src")],
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


def packed_form_names(ring_source):
    """The names ring.py gives the packed form of its monomials: each
    class and function, each module-level name and each attribute it
    assigns, that says pack, codec or memo."""
    tree = ast.parse(ring_source)
    names = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    names |= {t.id for node in tree.body if isinstance(node, ast.Assign)
              for t in node.targets if isinstance(t, ast.Name)}
    names |= {node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}
    return {name for name in names if re.search("pack|codec|memo", name, re.IGNORECASE)}


def packed_form_readers(names, sources):
    """(module, line, name) of each use of one of `names` in the
    `sources` ({module: source}), as a name or an attribute."""
    return sorted(
        (module, node.lineno, name)
        for module, source in sources.items()
        for node in ast.walk(ast.parse(source))
        for name in [getattr(node, "id", None) if isinstance(node, ast.Name)
                     else getattr(node, "attr", None)]
        if name in names
    )


def test_only_ring_reads_the_packed_form():
    """The packed monomials (the cache on a Polynomial and the codec)
    stay inside ring.py, so no second term-product loop grows elsewhere;
    other modules reach products only through add_product and the row
    builders."""
    names = packed_form_names((PACKAGE / "ring.py").read_text())
    assert {"_packed", "_pack", "_codec", "_MonomialCodec", "packed"} <= names
    others = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py")) if p.name != "ring.py"}
    assert packed_form_readers(names, others) == []


def test_detects_a_packed_form_reader():
    ring = ("class _Codec:\n    def __init__(self):\n        self.packed = {}\n"
            "_codec = _Codec()\ndef _pack(p):\n    p._packed = 1\ndef triples(x): pass\n")
    names = packed_form_names(ring)
    assert names == {"_Codec", "_codec", "_pack", "_packed", "packed"}
    user = "from .ring import triples\ntriples(x)\ny = x._packed or 0\n"
    assert packed_form_readers(names, {"m.py": user}) == [("m.py", 3, "_packed")]
