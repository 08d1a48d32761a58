"""The orthonormal sine basis sqrt(2) sin(k pi x), k = 1, 2, ..., on (0,1).

Values live at the interior points i/M (i = 1..M-1) of a uniform grid, where
DST-I and DCT-I are exact.  Each function transforms a whole trajectory (the
last axis of any array; ``sine_values`` any ``axis``) BLOCK_ROWS rows at a
time, and ``by_blocks`` runs a caller's chain of transforms the same way.
The row kernels ``_values`` and ``_l4``, and the call ``_transport_kernel``
builds, take one vector or a block of rows, for callers that do their own
blocking.  On the doubled grid of 2(n+1) cells, where the square of n modes
is exact, ``l4_norm4`` integrates and that call gives the sine
coefficients of -(v^2/2)_x, on arrays the kernel holds.

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


__all__ = ["by_blocks", "sine_values", "sine_coefficients", "l4_norm4"]

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


def _grid(shape: tuple[int, ...]) -> tuple[int, ...]:
    """The shape of the values on the doubled grid of ``shape``'s rows of coefficients."""
    return shape[:-1] + (2 * shape[-1] + 1,)


def _values(coef: np.ndarray, M: int) -> np.ndarray:
    if M - 1 < coef.shape[-1]:
        raise ValueError("the grid size M must exceed the number of coefficients")
    out = np.zeros(coef.shape[:-1] + (M - 1,))
    out[..., :coef.shape[-1]] = coef
    out = _dst1(out, out=out)
    out *= math.sqrt(2.0) / 2.0
    return out


def sine_values(coef, M: int | None = None, axis: int = -1) -> np.ndarray:
    """Values at i/M (i = 1..M-1) of sine coefficients c_1..c_n; M defaults to n+1."""
    return by_blocks(lambda c: _values(c, c.shape[-1] + 1 if M is None else M), coef, axis)


def sine_coefficients(values) -> np.ndarray:
    """Inverse of sine_values on the same grid (n values give n coefficients)."""
    return by_blocks(lambda v: _dst1(v) / (math.sqrt(2.0) * (v.shape[-1] + 1)), values)


def _transport_kernel(shape: tuple[int, ...]):
    """``(coef, transport)`` on arrays held for n = shape[-1] sine
    coefficients per row of ``shape``: ``coef`` is the head of the
    zero-padded sine input, where the caller writes v, and
    ``transport(values, out)`` writes v's values on the doubled grid into
    ``values`` (of shape ``_grid(shape)``) and the sine coefficients of
    -(v^2/2)_x, k pi times the cosine coefficients of v^2/2, into ``out``.

    The cosine transform takes v^2, and the half goes into its scale:
    halving is exact and the DCT commutes exactly with a factor of 2, so
    this is bit for bit the transform of v^2/2 as long as no value of v^2
    or of the transform's intermediates is subnormal.  Only the n cosine
    coefficients read are scaled.  Every call looks up ``_dst1`` and
    ``_dct1`` anew, so that a caller can count them.
    """
    n = shape[-1]
    sin_in, cos_in = np.zeros(_grid(shape)), np.zeros(shape[:-1] + (2 * n + 3,))
    cos_out = np.empty(cos_in.shape)
    square, cos = cos_in[..., 1:-1], cos_out[..., 1:n + 1]     # cos_in's ends stay zero
    kpi = np.arange(1, n + 1) * math.pi
    value_scale, cos_scale = math.sqrt(2.0) / 2.0, math.sqrt(2.0) / (4.0 * (2 * n + 2))

    def transport(values: np.ndarray, out: np.ndarray) -> np.ndarray:
        _dst1(sin_in, out=values)
        values *= value_scale
        np.square(values, out=square)
        _dct1(cos_in, out=cos_out)
        np.multiply(cos, cos_scale, out=out)
        out *= kpi
        return out

    return sin_in[..., :n], transport


def _l4(values: np.ndarray) -> np.ndarray:
    """int v^4 dx of each row by the rectangle rule on the grid of its ``values``."""
    return np.square(np.square(values)).sum(axis=-1) / (values.shape[-1] + 1)


def l4_norm4(coef):
    """int_0^1 v^4 dx from n sine coefficients (rectangle rule on a grid of
    2(n+1) cells); one vector gives a scalar."""
    return by_blocks(lambda c: _l4(_values(c, 2 * (c.shape[-1] + 1))), coef)
