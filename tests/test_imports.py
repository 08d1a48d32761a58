"""Every name a library module imports is referenced in that module,
``__all__`` lists exactly the public definitions of a module that has one,
and no module imports scipy.integrate."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "levyfield"


def _annotation_names(node: ast.AST) -> set[str]:
    # a string annotation such as -> "PathBatch" names a class as well
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names |= _annotation_names(ast.parse(sub.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[str]:
    """Names bound by an import of ``source`` that nothing in it references.

    Names used in annotations and names listed in ``__all__`` count as used;
    ``from __future__`` imports are not names of the module.
    """
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted(name for name in set(imported) if name not in used)


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_has_no_unused_import(module):
    assert unused_imports((SRC / module).read_text()) == []


def imports_scipy_integrate(source: str) -> bool:
    """Whether ``source`` imports scipy.integrate, a name from it, or reads
    it as an attribute of scipy, at any depth."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(a.name.startswith("scipy.integrate") for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("scipy.integrate") or (
                    node.module == "scipy" and any(a.name == "integrate" for a in node.names)):
                return True
        elif (isinstance(node, ast.Attribute) and node.attr == "integrate"
              and isinstance(node.value, ast.Name) and node.value.id == "scipy"):
            # scipy loads a submodule on first attribute access
            return True
    return False


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_does_not_import_scipy_integrate(module):
    # every law has closed forms, and the oracle's panel rule is numpy
    assert not imports_scipy_integrate((SRC / module).read_text())


@pytest.mark.parametrize("source", [
    "import scipy.integrate", "import scipy.integrate as si", "from scipy import integrate",
    "from scipy.integrate import quad", "def f():\n    from scipy import fft, integrate\n",
    "import scipy\nscipy.integrate.quad(abs, 0, 1)"])
def test_integrate_scan_sees_every_form(source):
    assert imports_scipy_integrate(source)
    assert not imports_scipy_integrate(source.replace("integrate", "special"))


def test_scan_sees_annotations_and_flags_the_rest():
    source = ("from __future__ import annotations\n"
              "import csv\n"
              "import numpy as np\n"
              "from typing import Optional\n"
              "from .subordinator import PathBatch, SubordinatorSpec, simulate_paths\n"
              "__all__ = ['simulate_paths']\n"
              "def f(x: Optional[int]) -> 'PathBatch':\n"
              "    return np.zeros(1)\n")
    assert unused_imports(source) == ["SubordinatorSpec", "csv"]


def _exports(tree: ast.Module):
    """The names of ``__all__`` in a module, or None if it has none."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [e.value for e in node.value.elts]
    return None


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_all_lists_exactly_the_public_definitions(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    exports = _exports(tree)
    if exports is None:
        return
    mod = importlib.import_module(f"levyfield.{module}")
    assert [name for name in exports if not hasattr(mod, name)] == []
    public = [node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]
    assert [name for name in public if name not in exports] == []
