"""Every name a library module imports is referenced in that module, and
``__all__`` lists exactly the public definitions of a module that has one."""

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
