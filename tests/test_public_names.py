"""Every public name of the library is used by the library or by an acceptance test.

A name in a module's ``__all__`` that no code in ``src/levyfield`` outside its
own definition, and no test in ``tests/test_acceptance.py``, refers to is
reached by its unit tests alone: it does nothing for the library.  The
exceptions are reference tools and exact criteria kept on purpose, each with
its reason in ``ALLOWED``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "levyfield"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

# public names that nothing but their unit tests reaches, each with its reason
ALLOWED = {
    "cos_coefficients": "the reference cosine transform that the Burgers transforms are "
                        "checked against",
    "convolution_variances_batch": "the closed-form OU variances V_j of a path batch at "
                                   "one time, kept for the critical-exponent gate of the "
                                   "regularity check",
    "finite_variation_diagnostic": "the exact finite-variation criterion of W(Z): no drift "
                                   "and Sub(1)",
    "jump_rate": "the exact rate of the jumps of Y above a threshold, that the large-jump "
                 "counts are checked against",
}


def public_names(source: str) -> list[str]:
    """The names listed in the module-level ``__all__`` of ``source``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def references(source: str) -> set[str]:
    """The names ``source`` reads, bare or as an attribute (``spectral.f``
    reads ``f``); a top-level function or class does not count its own name
    in its body."""
    found = set()
    for stmt in ast.parse(source).body:
        names = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)
                 and isinstance(n.ctx, ast.Load)}
        names |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        found |= names
    return found


def unused_public_names(modules: dict[str, str], callers) -> list[tuple[str, str]]:
    """(module, name) of each name in the ``__all__`` of ``modules`` ({file
    name: source}) that no source in ``callers`` reads."""
    used = set().union(*(references(source) for source in callers))
    return sorted((module, name) for module, source in modules.items()
                  for name in public_names(source) if name not in used)


def _unused():
    modules = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    return unused_public_names(modules, [*modules.values(), ACCEPTANCE.read_text()])


def test_every_public_name_is_used():
    assert [(m, n) for m, n in _unused() if n not in ALLOWED] == []


def test_allowed_names_are_still_unused():
    # an allowance for a name that is gone, or that the library now uses,
    # should be deleted
    assert sorted(set(ALLOWED) - {n for _, n in _unused()}) == []


def test_scan_flags_names_only_their_own_definition_reads():
    lib = ("__all__ = ['f', 'g', 'h', 'K', 'k']\n"
           "def f(x):\n    return f(x - 1)\n"
           "def g():\n    return f(1)\n"
           "def h():\n    pass\n"
           "class K:\n    def m(self):\n        return K()\n"
           "k = 3\n")
    assert public_names(lib) == ["f", "g", "h", "K", "k"]
    assert unused_public_names({"lib.py": lib}, [lib]) == [
        ("lib.py", "K"), ("lib.py", "g"), ("lib.py", "h"), ("lib.py", "k")]
    # an attribute read counts, and so does a read by another source
    assert unused_public_names({"lib.py": lib}, [lib, "lib.g()\nK.m(None)\nprint(k)\n"]) == [
        ("lib.py", "h")]
    assert unused_public_names({"lib.py": "x = 1\n"}, ["x\n"]) == []
