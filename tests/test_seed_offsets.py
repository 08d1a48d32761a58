"""No library module seeds a draw with arithmetic on ``seed`` or with a literal.

Streams come from ``master_seed`` through spawn keys (``stream(seed, *key)``),
so neighbouring seeds share no draws; ``stream(seed + 1)`` would give
``master_seed`` 0 the draws of ``master_seed`` 1, and ``stream(12345)``
gives every master seed the same draws.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "levyfield"

# (module, callee) of the calls allowed to seed with an offset, each with its reason
ALLOWED = {
    # perfbench/bench.py's circle_reference redraws the circle profiles with
    # seed + 1 to check the experiment; both move in one benchmark change
    ("cli.py", "fourier_profile"),
}


def _callee(call: ast.Call) -> str:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def _is_offset(node: ast.AST) -> bool:
    """Whether ``node`` is arithmetic on the name ``seed``, such as seed + 1."""
    return isinstance(node, ast.BinOp) and any(
        isinstance(sub, ast.Name) and sub.id == "seed" for sub in ast.walk(node))


def _is_int_literal(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is int


def seed_offsets(source: str) -> list[tuple[str, int]]:
    """(callee, line) of every call in ``source`` that passes an offset seed
    to ``stream`` or as a ``seed=`` argument, or an integer literal as the
    master seed of ``stream``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        args = [kw.value for kw in node.keywords if kw.arg == "seed"]
        literal = False
        if _callee(node) == "stream":
            args += node.args
            literal = bool(node.args) and _is_int_literal(node.args[0])
        if literal or any(_is_offset(a) for a in args):
            found.append((_callee(node), node.lineno))
    return found


def test_library_seeds_come_from_spawn_keys():
    found = [(p.name, callee, line) for p in sorted(SRC.glob("*.py"))
             for callee, line in seed_offsets(p.read_text())
             if (p.name, callee) not in ALLOWED]
    assert found == []


def test_allowed_offsets_are_still_there():
    # an allowance that matches nothing should be deleted with its site
    for module, callee in ALLOWED:
        assert callee in {c for c, _ in seed_offsets((SRC / module).read_text())}, module


def test_scan_flags_offsets_and_passes_spawn_keys():
    source = ("a = stream(seed + 1)\n"
              "b = stream(seed, 1)\n"
              "c = rng.stream(17 * m + seed)\n"
              "d = draw(spec, seed=seed + 1)\n"
              "e = draw(spec, seed=seed)\n"
              "f = draw(spec, seed + 1)\n"
              "g = stream(12345)\n"
              "h = stream(0, 2)\n"
              "i = stream(cfg[\"master_seed\"], 1)\n")
    assert seed_offsets(source) == [("stream", 1), ("stream", 3), ("draw", 4),
                                    ("stream", 7), ("stream", 8)]
