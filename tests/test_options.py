"""Every defaulted parameter of the library's public API is set by the library
or by an acceptance test, and every None default is left out by one.

A default that no call in ``src/levyfield`` or ``tests/test_acceptance.py``
overrides, either because no call passes it or because every call that does
passes the default's own literal, is a constant spelled as an option: it
widens the API, and the branches only it reaches serve its unit tests alone.
Such a value belongs in a module constant.  The exceptions, each with its
reason in ``ALLOWED``, are options kept on purpose.  The mirror case is a
None default that such calls reach and every one of them overrides: the None
path serves unit tests alone, and the parameter belongs among the required
ones.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "levyfield"
CALLERS = sorted(SRC.glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]

# (function, parameter) of the defaults no call sets, each with its reason
ALLOWED = {
    ("main", "argv"): "the command line the CLI's entry point parses; tests pass their own",
}


def _function_options(fn: ast.FunctionDef,
                      skip_first: bool) -> list[tuple[str, int, ast.expr]]:
    """(name, position, default) of each defaulted parameter of ``fn``;
    keyword-only parameters get no position (-1)."""
    names = [a.arg for a in fn.args.posonlyargs + fn.args.args][1 if skip_first else 0:]
    defaulted = names[len(names) - len(fn.args.defaults):]
    out = [(n, names.index(n), d) for n, d in zip(defaulted, fn.args.defaults)]
    out += [(a.arg, -1, d) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if d is not None]
    return out


def public_options(source: str) -> dict[tuple[str, str], tuple[str, int, ast.expr]]:
    """{(label, parameter): (callee, position, default)} for the defaulted
    parameters of the public functions, methods and dataclass fields in
    ``source``; the callee is the name a call uses (the class name for a
    constructor)."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            for name, pos, default in _function_options(node, False):
                found[(node.name, name)] = (node.name, pos, default)
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        fields = [s for s in node.body if isinstance(s, ast.AnnAssign)
                  and isinstance(s.target, ast.Name)]
        for pos, s in enumerate(fields):
            if s.value is not None:
                found[(node.name, s.target.id)] = (node.name, pos, s.value)
        for fn in node.body:
            if not isinstance(fn, ast.FunctionDef) or (fn.name.startswith("_")
                                                       and fn.name != "__init__"):
                continue
            static = any(getattr(d, "id", "") == "staticmethod" for d in fn.decorator_list)
            callee = node.name if fn.name == "__init__" else fn.name
            for name, pos, default in _function_options(fn, not static):
                found[(f"{node.name}.{fn.name}", name)] = (callee, pos, default)
    return found


class _Calls(ast.NodeVisitor):
    """(callee, positional arguments, {keyword: argument}) of every call;
    ``cls(...)`` inside a class body is a call of that class."""

    def __init__(self):
        self.classes, self.calls = [], []

    def visit_ClassDef(self, node):
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def visit_Call(self, node):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name == "cls" and self.classes:
            name = self.classes[-1]
        self.calls.append((name, node.args, {kw.arg: kw.value for kw in node.keywords}))
        self.generic_visit(node)


def call_sites(sources) -> list[tuple[str, list, dict]]:
    visitor = _Calls()
    for source in sources:
        visitor.visit(ast.parse(source))
    return visitor.calls


def _argument(args: list, keywords: dict, name: str, pos: int):
    """The expression a call passes for parameter ``name`` at ``pos``, None
    if it passes none, or ``...`` if a ``*args`` or ``**kwargs`` argument
    may pass it."""
    if name in keywords:
        return keywords[name]
    if 0 <= pos:
        for i, a in enumerate(args):
            if isinstance(a, ast.Starred):
                return ...
            if i == pos:
                return a
    return ... if None in keywords else None


def _is_literal(node, value: ast.expr) -> bool:
    """Whether ``node`` is a literal equal to the literal ``value``."""
    try:
        return ast.literal_eval(node) == ast.literal_eval(value)
    except (ValueError, TypeError):
        return False


def _passed(modules: dict[str, str], callers):
    """(label, parameter, default, the argument of each call) of every
    defaulted public parameter in ``modules`` ({file name: source}), with the
    arguments of the calls in ``callers`` as ``_argument`` reads them."""
    calls = call_sites(callers)
    for source in modules.values():
        for (label, name), (callee, pos, default) in public_options(source).items():
            yield label, name, default, [_argument(args, kws, name, pos)
                                         for c, args, kws in calls if c == callee]


def idle_options(modules: dict[str, str], callers) -> list[tuple[str, str]]:
    """(label, parameter) of each defaulted public parameter in ``modules``
    that no call in ``callers`` sets to anything but its default literal."""
    return sorted((label, name) for label, name, default, passed in _passed(modules, callers)
                  if not any(a is ... or (a is not None and not _is_literal(a, default))
                             for a in passed))


def always_set_none_defaults(modules: dict[str, str], callers) -> list[tuple[str, str]]:
    """(label, parameter) of each public parameter in ``modules`` whose
    default is None while some call in ``callers`` exists and every such
    call passes it something other than the literal None."""
    return sorted((label, name) for label, name, default, passed in _passed(modules, callers)
                  if _is_literal(default, ast.Constant(None)) and passed
                  and all(a is not None and a is not ... and not _is_literal(a, default)
                          for a in passed))


def _library():
    return {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}


def test_every_public_option_is_set_by_some_call():
    idle = idle_options(_library(), [p.read_text() for p in CALLERS])
    assert [o for o in idle if o not in ALLOWED] == []


def test_every_none_default_is_left_out_by_some_call():
    assert always_set_none_defaults(_library(), [p.read_text() for p in CALLERS]) == []


def test_allowed_options_are_still_there():
    # an allowance that names no option should be deleted with its option
    options = {key for source in _library().values() for key in public_options(source)}
    assert sorted(set(ALLOWED) - options) == []


def test_allowed_options_are_still_idle():
    # an allowance for an option that a call now sets should be deleted
    idle = set(idle_options(_library(), [p.read_text() for p in CALLERS]))
    assert sorted(set(ALLOWED) - idle) == []


def test_scan_flags_unset_options_and_passes_set_ones():
    library = ("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
               "def _private(x=1):\n    pass\n"
               "class K:\n"
               "    x: int\n"
               "    y: int = 0\n"
               "    z: int = 1\n"
               "    def m(self, p=1, q=2):\n        pass\n"
               "    @classmethod\n"
               "    def make(cls, v):\n        return cls(v, z=v)\n")
    callers = [library, "f(1, 2, d=5)\n", "K(1, 2).m(5)\n"]
    assert idle_options({"lib.py": library}, callers) == [
        ("K.m", "q"), ("f", "c"), ("f", "e")]
    assert idle_options({"lib.py": library}, ["f(*xs, **kw)\nK(*xs)\nK.m(K, **kw)\n"]) == []
    # a call that passes the default's own literal does not set it
    callers = [library, "f(1, 2, 2, d=3.0, e=x)\n", "K(1, y=0, z=2).m(1, q=-2)\n"]
    assert idle_options({"lib.py": library}, callers) == [
        ("K", "y"), ("K.m", "p"), ("f", "c"), ("f", "d")]
    # a None default that every call overrides is a None path only unit tests take;
    # one that a call leaves out or passes as None, or that no call reaches, is not
    library = "def g(a, b=None, c=None, d=None, *, e=None):\n    pass\ndef h(x=None):\n    pass\n"
    callers = ["g(1, 2, None, e=3)\ng(1, b=5, d=x, e=4)\n", "g(*xs, e=1)\n"]
    assert always_set_none_defaults({"lib.py": library}, callers[:1]) == [("g", "b"), ("g", "e")]
    assert always_set_none_defaults({"lib.py": library}, callers) == [("g", "e")]
