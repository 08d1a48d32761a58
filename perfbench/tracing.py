"""Span tracing of the levyfield modules from outside the library.

Inside a ``with Tracer(levyfield):`` block every public function of every
levyfield module is replaced, in every levyfield module namespace that holds
it by name, by a wrapper that records a span ``(name, start, end, parent)``.
A module imports a function by name (``from ._rng import stream``), so the
name each importer holds is rebound too, not only the defining module's.
The ``scipy.fft`` module that levyfield modules hold (as ``sfft``) is
replaced by a namespace whose callables record spans of the ``sfft`` layer;
scipy itself is left untouched.  Leaving the block restores every rebound
name.

Spans stay in memory (``Tracer.spans``); a span's name is ``layer.function``
where the layer is the module name.  ``Tracer.counts`` holds the work counts
of ``COUNTERS``, measured from each call's arguments or result.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import types
from collections import Counter
from time import perf_counter


def _cell_terms(args, result):
    # modes x jumps up to t: the terms of the per-mode jump sum
    return args["op"].n_modes * int((args["zpath"].times <= args["t"]).sum())


# traced function -> (count name, count of one call from its arguments by name and
# its result); the arguments a count reads have no defaults
COUNTERS = {
    "subordinator.simulate_path": ("subordinator.jumps_drawn", lambda args, result: result.times.size),
    "spectral.convolution_variances": ("spectral.cell_terms", _cell_terms),
    "regularity.circle_convolution": (
        "regularity.jump_evals",
        lambda args, result: args["path"].jump_times.size * (args["grid_M"] + 1)),
    "burgers.solve_stochastic_burgers": ("burgers.steps", lambda args, result: result["times"].size - 1),
}


def package_modules(package) -> list[types.ModuleType]:
    """Every module of ``package``, imported."""
    return [importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)]


class Tracer:
    """Records spans of every public levyfield function while active."""

    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        params = list(inspect.signature(fn).parameters) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counter:
                self.counts[counter[0]] += counter[1]({**dict(zip(params, args)), **kwargs}, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = package_modules(self.package)
        replacement = {}  # id(original) -> (original, wrapper)
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    replacement[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        fft = sys.modules.get("scipy.fft")
        if fft is not None:
            proxy = types.SimpleNamespace(**{
                attr: self._wrap(obj, f"sfft.{attr}") if callable(obj) else obj
                for attr, obj in vars(fft).items() if not attr.startswith("_")})
            replacement[id(fft)] = (fft, proxy)
        try:
            for module in modules:
                for attr, obj in list(vars(module).items()):
                    original, wrapper = replacement.get(id(obj), (None, None))
                    if original is obj:
                        self._saved.append((module, attr, obj))
                        setattr(module, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __exit__(self, *exc) -> None:
        self._restore()


def summarize(spans, base: int = 0) -> tuple[Counter, Counter, Counter]:
    """Per-layer call counts and self time, and inclusive time per span name.

    ``spans`` are the spans from index ``base`` of a tracer's list, whose
    parents are all at or after ``base``.  A span's self time is its
    duration minus the durations of its child spans.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= base:
            child[parent - base] += end - start
    calls, self_s, inclusive = Counter(), Counter(), Counter()
    for (name, start, end, _), covered in zip(spans, child):
        layer = name.split(".", 1)[0]
        calls[layer] += 1
        self_s[layer] += end - start - covered
        inclusive[name] += end - start
    return calls, self_s, inclusive
