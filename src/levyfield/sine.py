"""The orthonormal sine basis sqrt(2) sin(k pi x), k = 1, 2, ..., on (0,1).

Values live at the interior points i/M (i = 1..M-1) of a uniform grid, where
DST-I and DCT-I are exact.  Each function transforms a whole trajectory (the
last axis of any array; ``sine_values`` any ``axis``) BLOCK_ROWS rows at a
time, and ``by_blocks`` runs a caller's chain of transforms the same way.
The row kernels ``_values``, ``_cos``, ``_l4`` and ``_transport`` take one
vector or a block of rows as they are, for callers that do their own
blocking.  On the doubled grid of 2(n+1) cells, where the square of n
modes is exact, ``l4_norm4`` integrates and ``_transport`` gives the sine
coefficients of -(v^2/2)_x, with both its transforms written into the held
arrays of a ``_work``.

Every transform of the library is ``_dst1`` or ``_dct1``: scipy's compiled
pocketfft binding, the kernels that ``scipy.fft`` and ``scipy.fftpack`` both
end in, called without their per-call Python wrapper.  The binding is loaded
from its extension file on the first transform, not with this module, and
without the ``scipy.fft`` package, whose import runs some 300 modules that
no transform uses.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os

import numpy as np


@functools.cache
def _pocketfft():
    """scipy's pocketfft binding, loaded on its first use from its file
    ``scipy/fft/_pocketfft/pypocketfft<suffix>`` under its full name.

    ``find_spec`` locates scipy without importing it, and the module is not
    added to ``sys.modules``; a later ``import scipy.fft`` gets the same
    module object.  The file's path is private to scipy: where it is missing
    this raises ImportError naming the path.
    """
    name = "scipy.fft._pocketfft.pypocketfft"
    scipy = importlib.util.find_spec("scipy").submodule_search_locations[0]
    stem = os.path.join(scipy, "fft", "_pocketfft", "pypocketfft")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(stem + suffix):
            loader = importlib.machinery.ExtensionFileLoader(name, stem + suffix)
            module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
            loader.exec_module(module)
            return module
    raise ImportError(f"scipy's pocketfft binding is not at {stem}"
                      f"{{{','.join(importlib.machinery.EXTENSION_SUFFIXES)}}}", path=stem)


def _dst1(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unnormalized DST-I of the float array x along its last axis, into
    ``out`` if given (x itself, or an array that does not overlap it):
    ``scipy.fft.dst(x, type=1)`` bit for bit."""
    return _pocketfft().dst(x, 1, (-1,), 0, out)


def _dct1(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unnormalized DCT-I of x along its last axis, as ``_dst1``:
    ``scipy.fft.dct(x, type=1)`` bit for bit."""
    return _pocketfft().dct(x, 1, (-1,), 0, out)


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


def _work(shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The arrays ``_transport`` writes into, for n coefficients on the
    last axis of ``shape``: the zero-padded sine input and its output (the
    values on the doubled grid), the cosine input (zero ends) and its output."""
    lead, m = shape[:-1], 2 * shape[-1] + 1
    return (np.zeros(lead + (m,)), np.empty(lead + (m,)),
            np.zeros(lead + (m + 2,)), np.empty(lead + (m + 2,)))


def _values(coef: np.ndarray, M: int, work=None) -> np.ndarray:
    if M - 1 < coef.shape[-1]:
        raise ValueError("the grid size M must exceed the number of coefficients")
    full, out = (np.zeros(coef.shape[:-1] + (M - 1,)),) * 2 if work is None else work[:2]
    full[..., :coef.shape[-1]] = coef
    out = _dst1(full, out=out)
    out *= math.sqrt(2.0) / 2.0
    return out


def sine_values(coef, M: int | None = None, axis: int = -1) -> np.ndarray:
    """Values at i/M (i = 1..M-1) of sine coefficients c_1..c_n; M defaults to n+1."""
    return by_blocks(lambda c: _values(c, c.shape[-1] + 1 if M is None else M), coef, axis)


def sine_coefficients(values) -> np.ndarray:
    """Inverse of sine_values on the same grid (n values give n coefficients)."""
    return by_blocks(lambda v: _dst1(v) / (math.sqrt(2.0) * (v.shape[-1] + 1)), values)


def _cos(q: np.ndarray) -> np.ndarray:
    full = np.zeros(q.shape[:-1] + (q.shape[-1] + 2,))
    full[..., 1:-1] = q            # the ends stay zero
    out = _dct1(full, out=full)[..., 1:-1]
    out *= math.sqrt(2.0) / (2.0 * (q.shape[-1] + 1))
    return out


def cos_coefficients(values) -> np.ndarray:
    """Coefficients int q(x) sqrt(2) cos(k pi x) dx, k = 1..M-1, from the ``values``
    of q at i/M; q = 0 at both ends, as for products v*z and v^2 of Dirichlet fields."""
    return by_blocks(_cos, values)


def _transport(coef: np.ndarray, kpi: np.ndarray, work,
               out: np.ndarray | None = None) -> np.ndarray:
    """Sine coefficients of -(v^2/2)_x for the n = ``kpi.size`` sine
    coefficients ``coef`` of v (one vector or a block of rows), dealiased on
    the doubled grid; ``kpi`` is k pi, k = 1..n.

    Integration by parts against the sine basis turns the x-derivative into
    k pi times the cosine coefficients of v^2/2.  Both transforms write into
    ``work``, a ``_work(coef.shape)`` that keeps v's grid values for ``_l4``;
    only the n cosine coefficients read are scaled, and the result is
    ``out`` or a new array, never part of the work.
    """
    v = _values(coef, work[0].shape[-1] + 1, work)
    q = work[2][..., 1:-1]
    np.multiply(0.5, v, out=q)
    q *= v
    c = _dct1(work[2], out=work[3])[..., 1:kpi.size + 1]
    out = np.multiply(c, math.sqrt(2.0) / (2.0 * (q.shape[-1] + 1)), out=out)
    out *= kpi
    return out


def _l4(values: np.ndarray) -> np.ndarray:
    """int v^4 dx of each row by the rectangle rule on the grid of its ``values``."""
    return np.square(np.square(values)).sum(axis=-1) / (values.shape[-1] + 1)


def l4_norm4(coef):
    """int_0^1 v^4 dx from n sine coefficients (rectangle rule on a grid of
    2(n+1) cells); one vector gives a scalar."""
    return by_blocks(lambda c: _l4(_values(c, 2 * (c.shape[-1] + 1))), coef)
