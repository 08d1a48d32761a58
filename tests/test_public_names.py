"""Every public name and every method of the library is used by the library or
by an acceptance test.

A name in a module's ``__all__`` that no code in ``src/levyfield`` outside its
own definition, and no test in ``tests/test_acceptance.py``, refers to is
reached by its unit tests alone: it does nothing for the library.  The
exceptions are reference tools and exact criteria kept on purpose, each with
its reason in ``ALLOWED``.  The same holds for the methods and properties of
every class in ``src/levyfield`` but its dunders, which the language calls:
each must be read as an attribute outside its own body.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "levyfield"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

# public names that nothing but their unit tests reaches, each with its reason
ALLOWED = {
    "convolution_variances_batch": "the closed-form OU variances V_j of a path batch at "
                                   "one time, kept for the critical-exponent gate of the "
                                   "regularity check",
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


def methods(source: str) -> list[tuple[str, str]]:
    """(class, name) of each method and property of the top-level classes in
    ``source``, dunders left out."""
    return [(node.name, fn.name) for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef) for fn in node.body
            if isinstance(fn, ast.FunctionDef)
            and not (fn.name.startswith("__") and fn.name.endswith("__"))]


def attribute_reads(source: str) -> set[str]:
    """The attribute names ``source`` reads (``op.n_modes`` reads
    ``n_modes``); a function does not count its own name in its body."""
    found = set()

    def visit(node, own):
        if isinstance(node, ast.Attribute) and node.attr != own:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, child.name if isinstance(child, ast.FunctionDef) else own)

    visit(ast.parse(source), None)
    return found


def unused_methods(modules: dict[str, str], callers) -> list[tuple[str, str]]:
    """(module, "class.name") of each method in ``modules`` ({file name:
    source}) that no source in ``callers`` reads as an attribute."""
    used = set().union(*(attribute_reads(source) for source in callers))
    return sorted((module, f"{cls}.{name}") for module, source in modules.items()
                  for cls, name in methods(source) if name not in used)


def unused_public_names(modules: dict[str, str], callers) -> list[tuple[str, str]]:
    """(module, name) of each name in the ``__all__`` of ``modules`` ({file
    name: source}) that no source in ``callers`` reads."""
    used = set().union(*(references(source) for source in callers))
    return sorted((module, name) for module, source in modules.items()
                  for name in public_names(source) if name not in used)


def _sources():
    modules = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    return modules, [*modules.values(), ACCEPTANCE.read_text()]


def _unused():
    return unused_public_names(*_sources())


def test_every_public_name_is_used():
    assert [(m, n) for m, n in _unused() if n not in ALLOWED] == []


def test_every_method_is_used():
    assert unused_methods(*_sources()) == []


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
    # a method or property counts as used when read as an attribute outside
    # its own body; dunders are left out
    lib = ("class K:\n"
           "    def __len__(self):\n        return self.n\n"
           "    @property\n    def n(self):\n        return 3\n"
           "    def m(self):\n        return self.m()\n"
           "    def _h(self):\n        pass\n"
           "    def g(self):\n        return self._h()\n"
           "class _P:\n    def q(self):\n        pass\n")
    assert methods(lib) == [("K", "n"), ("K", "m"), ("K", "_h"), ("K", "g"), ("_P", "q")]
    assert unused_methods({"lib.py": lib}, [lib]) == [
        ("lib.py", "K.g"), ("lib.py", "K.m"), ("lib.py", "_P.q")]
    assert unused_methods({"lib.py": lib}, [lib, "K().g()\nK().m\n_P().q()\n"]) == []
