"""The orthonormal sine basis sqrt(2) sin(k pi x), k = 1, 2, ..., on (0,1).

Values live at the interior points i/M (i = 1..M-1) of a uniform grid, where
DST-I and DCT-I are exact.  Each function transforms a whole trajectory (the
last axis of any array; ``sine_values`` any ``axis``) BLOCK_ROWS rows at a
time, and ``by_blocks`` runs a caller's chain of transforms the same way.
"""

from __future__ import annotations

import importlib.util
import math
import sys

import numpy as np


def _lazy_module(name: str):
    """``name`` as registered in sys.modules, executed on its first attribute access.

    The object never changes identity, so ``sfft is sys.modules["scipy.fft"]``
    holds before and after the load.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


sfft = _lazy_module("scipy.fft")

__all__ = ["by_blocks", "sine_values", "sine_coefficients", "cos_coefficients", "l4_norm4"]

BLOCK_ROWS = 64


def by_blocks(fn, a, axis: int = -1) -> np.ndarray:
    """fn applied to the 1-d slices of ``a`` along ``axis``, BLOCK_ROWS at a time.

    fn maps a (rows, n) block to (rows, m), which replaces the axis, or to
    (rows,), which drops it.  With no rows fn still sees one empty block.
    """
    a = np.moveaxis(np.asarray(a, dtype=float), axis, -1)
    rows = a.reshape(-1, a.shape[-1])
    for lo in range(0, max(len(rows), 1), BLOCK_ROWS):
        block = fn(rows[lo:lo + BLOCK_ROWS])
        if lo == 0:
            out = np.empty((len(rows),) + block.shape[1:])
        out[lo:lo + BLOCK_ROWS] = block
    out = out.reshape(a.shape[:-1] + out.shape[1:])
    return np.moveaxis(out, -1, axis) if out.ndim == a.ndim else out[()]


def _values(coef: np.ndarray, M: int) -> np.ndarray:
    if M - 1 < coef.shape[-1]:
        raise ValueError("the grid size M must exceed the number of coefficients")
    return sfft.dst(coef, type=1, n=M - 1, axis=-1) * (math.sqrt(2.0) / 2.0)


def sine_values(coef, M: int | None = None, axis: int = -1) -> np.ndarray:
    """Values at i/M (i = 1..M-1) of sine coefficients c_1..c_n; M defaults to n+1."""
    return by_blocks(lambda c: _values(c, M or c.shape[-1] + 1), coef, axis)


def sine_coefficients(values) -> np.ndarray:
    """Inverse of sine_values on the same grid (n values give n coefficients)."""
    return by_blocks(lambda v: sfft.dst(v, type=1, axis=-1) / (math.sqrt(2.0) * (v.shape[-1] + 1)),
                     values)


def cos_coefficients(values) -> np.ndarray:
    """Coefficients int q(x) sqrt(2) cos(k pi x) dx, k = 1..M-1, from the ``values``
    of q at i/M; q = 0 at both ends, as for products v*z and v^2 of Dirichlet fields."""
    def rows(q):
        full = np.pad(q, ((0, 0), (1, 1)))
        return sfft.dct(full, type=1, axis=-1)[:, 1:-1] * (math.sqrt(2.0) / (2.0 * (q.shape[-1] + 1)))

    return by_blocks(rows, values)


def l4_norm4(coef, grid_M: int | None = None):
    """int_0^1 v^4 dx from sine coefficients (rectangle rule on a grid of grid_M
    cells, by default 2(n+1)); one vector gives a scalar."""
    def rows(c):
        M = grid_M or 2 * (c.shape[-1] + 1)
        return (_values(c, M) ** 4).sum(axis=-1) / M

    return by_blocks(rows, coef)
