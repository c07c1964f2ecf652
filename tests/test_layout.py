"""Module layout guards, on parsed (not imported) sources.

No mlop module reaches into another's private names: a private name is one
with a leading underscore that is not a dunder, and the check fails on
``from .other import _name`` and on reading ``other._name`` through a name
bound to another mlop module.

No public top-level function or class of ``src/mlop``, and no public
method, classmethod or property of a top-level class, is there for tests
alone: each is referenced somewhere in ``src/mlop`` outside its own
definition and ``__init__.py``, or by the benchmark in ``perfbench/``.
Members match by name alone, so a reference to another class's member of
the same name counts as a use.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mlop"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def imported_module(node: ast.ImportFrom) -> str | None:
    """Absolute name of the mlop module an import-from reads, else None."""
    if node.level == 1:
        return "mlop" + (f".{node.module}" if node.module else "")
    if node.level == 0 and node.module and node.module.split(".")[0] == "mlop":
        return node.module
    return None


def dotted(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def private_reaches(source: str, own: str) -> list[str]:
    """Private names of other mlop modules that ``source`` (the text of
    module ``own``, e.g. "mlop.solver") imports or reads as attributes."""
    tree = ast.parse(source)
    aliases = {}  # local name -> mlop module it is bound to
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            mod = imported_module(node)
            if mod is None:
                continue
            for a in node.names:
                if mod == "mlop" and a.name in MODULES:
                    aliases[a.asname or a.name] = f"mlop.{a.name}"
                elif is_private(a.name) and mod != own:
                    hits.append(f"{own} imports {mod}.{a.name}")
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "mlop":
                    local = a.asname or a.name
                    aliases[local] = a.name if a.asname else local
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and is_private(node.attr):
            base = dotted(node.value)
            mod = aliases.get(base, base if base and base.startswith("mlop.") else None)
            if mod is not None and mod != own:
                hits.append(f"{own} reads {mod}.{node.attr} (line {node.lineno})")
    return hits


@pytest.mark.parametrize("name", MODULES)
def test_module_uses_no_private_name_of_another(name):
    source = (SRC / f"{name}.py").read_text()
    assert private_reaches(source, f"mlop.{name}") == []


@pytest.mark.parametrize("source, flagged", [
    ("from .kernels import _chunks", True),
    ("from mlop.kernels import _chunks as c", True),
    ("from . import kernels\nkernels._screen(1)", True),
    ("from . import solver as s\ns._init_indices", True),
    ("import mlop.kernels\nmlop.kernels._chunks", True),
    ("from .kernels import min_dists\nfrom . import kernels\nkernels.CHUNK", False),
    ("from .metrics import _own", False),  # a module's own private names
    ("import numpy as np\nnp._private", False),
    ("from . import __version__", False),
])
def test_guard_flags_private_reaches(source, flagged):
    assert bool(private_reaches(source, "mlop.metrics")) == flagged


DEFS = (ast.FunctionDef, ast.ClassDef)


def node_names(node) -> set[str]:
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.alias):
        return {node.name.split(".")[-1]}
    if (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and DOTTED.fullmatch(node.value)):
        return set(node.value.split("."))
    return set()


def referenced_names(source: str, skip_own_defs: bool = False) -> set[str]:
    """Every name that ``source`` reads, imports or spells as a string that
    is a dotted name ("kernels.min_dists" gives both parts; prose does not
    count).  With ``skip_own_defs`` a definition's references to its own
    name do not count."""
    names = set()

    def visit(node, own):
        if skip_own_defs and isinstance(node, DEFS):
            own = own | {node.name}
        names.update(node_names(node) - own)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    visit(ast.parse(source), frozenset())
    return names


def public_defs(source: str) -> list[str]:
    """Public top-level functions and classes, and the public members of
    those classes as "Class.member"."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, DEFS) and not node.name.startswith("_"):
            out.append(node.name)
            if isinstance(node, ast.ClassDef):
                out += [f"{node.name}.{m.name}" for m in node.body
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return out


def unreferenced_public_defs(library: dict, outside: list) -> list[str]:
    """"module.name" for each public definition of the library modules
    (name -> source) that no library module other than __init__, and no
    source in ``outside``, references; a member counts as referenced when
    its own name is."""
    used = set()
    for mod, source in library.items():
        if mod != "__init__":
            used |= referenced_names(source, skip_own_defs=True)
    for source in outside:
        used |= referenced_names(source)
    return [f"{mod}.{name}" for mod, source in library.items()
            for name in public_defs(source) if name.split(".")[-1] not in used]


def test_every_public_definition_has_a_non_test_user():
    library = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    perfbench = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert unreferenced_public_defs(library, perfbench) == []


def test_guard_flags_test_only_definitions():
    library = {
        "__init__": "from .a import used, exported_only",
        "a": "def used(): pass\ndef exported_only(): pass\n"
             "def recursive(n): return recursive(n - 1)\ndef traced(): pass\n"
             "class Helper: pass\ndef _private(): pass",
        "b": "from .a import used\nfrom . import a\nx = a.Helper()",
    }
    outside = ['TARGETS = ("a.traced",)', '"""Docstring: see a.recursive."""']
    assert unreferenced_public_defs(library, outside) == ["a.exported_only", "a.recursive"]
    # members of top-level classes: a method, property or classmethod that
    # only its own body or a test names is flagged
    library = {
        "a": "class Box:\n"
             "    def __init__(self): self.width = self.measured()\n"
             "    def measured(self): return 1\n"
             "    @property\n    def size(self): return self.size\n"
             "    @classmethod\n    def empty(cls): return cls()\n"
             "    def traced(self): pass\n"
             "    def _private(self): pass\n"
             "def make(): return Box().width",
        "b": "from .a import make\nmake()",
    }
    outside = ['TARGETS = ("a.traced",)']
    assert unreferenced_public_defs(library, outside) == ["a.Box.size", "a.Box.empty"]
