"""Module layout guard: no mlop module reaches into another's private names.

Each module of ``src/mlop`` is parsed, not imported.  A private name is one
with a leading underscore that is not a dunder.  The check fails on
``from .other import _name`` and on reading ``other._name`` through a name
bound to another mlop module.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mlop"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


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
