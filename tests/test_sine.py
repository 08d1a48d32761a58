"""The sine-basis transforms against the one-vector helpers they replaced.

The reference functions below are the per-vector helpers the Burgers solver
used before the transforms moved to ``levyfield.sine``; every transform must
equal them bitwise, one row at a time, at every shape and block count.
"""

import importlib.machinery
import math

import numpy as np
import pytest
from scipy import fft as sfft

from levyfield import sine
from levyfield._rng import stream
from levyfield.sine import BLOCK_ROWS, by_blocks, l4_norm4, sine_coefficients, sine_values


def ref_sine_values(coef, M=None):
    n = coef.size
    M = M or n + 1
    pad = np.zeros(M - 1)
    pad[:n] = coef
    return sfft.dst(pad, type=1) * (math.sqrt(2.0) / 2.0)


def ref_sine_coefficients(values):
    M = values.size + 1
    return sfft.dst(values, type=1) / (math.sqrt(2.0) * M)


def ref_transport(coef):
    """The sine coefficients of -(v^2/2)_x on the doubled grid: k pi times
    the cosine coefficients of v^2/2, from scipy's DCT-I."""
    n = coef.size
    vals = ref_sine_values(coef, 2 * (n + 1))
    full = np.concatenate([[0.0], 0.5 * vals * vals, [0.0]])
    d = sfft.dct(full, type=1)
    return np.arange(1, n + 1) * math.pi * (d[1:n + 1] * (math.sqrt(2.0) / (2.0 * (2 * n + 2))))


def held_transport(a):
    """The transport of a, any number of rows, by one kernel for its shape."""
    coef, transport = sine._transport_kernel(a.shape)
    coef[...] = a
    return transport(np.empty(sine._grid(a.shape)), np.empty(a.shape))


def ref_l4_norm4(coef):
    M = 2 * (coef.size + 1)
    vals = ref_sine_values(coef, M)
    return float(np.square(np.square(vals)).sum() / M)


def row_by_row(ref, a):
    """The reference applied to every vector along the last axis of a."""
    rows = [ref(r) for r in a.reshape(-1, a.shape[-1])]
    return np.array(rows).reshape(a.shape[:-1] + np.shape(rows[0]))


N = 31
SHAPES = [(N,), (3, N), (BLOCK_ROWS, N), (2 * BLOCK_ROWS + 5, N), (2, BLOCK_ROWS + 1, N)]
CASES = [
    (lambda a: sine_values(a), ref_sine_values),
    (lambda a: sine_values(a, 4 * (N + 1)), lambda r: ref_sine_values(r, 4 * (N + 1))),
    (sine_coefficients, ref_sine_coefficients),
    (held_transport, ref_transport),
    (l4_norm4, ref_l4_norm4),
]


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("case", range(len(CASES)))
def test_transforms_are_bitwise_the_one_vector_helpers(shape, case):
    fn, ref = CASES[case]
    a = stream(3, case).standard_normal(shape)
    out = fn(a)
    expected = row_by_row(ref, a)
    assert np.shape(out) == expected.shape
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("shape", [(511,), (513,), (7,), (BLOCK_ROWS, 511), (5, 513), (3, 7)],
                         ids=str)
@pytest.mark.parametrize("kind", ["dst", "dct"])
def test_held_transforms_are_bitwise_scipy_fft(kind, shape):
    # every transform of the library is _dst1 or _dct1 on pocketfft's binding;
    # on one row and on a block, into a new array, into a separate out and
    # into the input itself, its values are scipy.fft's type-1 transform bit
    # for bit
    kernel = {"dst": sine._dst1, "dct": sine._dct1}[kind]
    x = stream(9, len(shape)).standard_normal(shape)
    want = getattr(sfft, kind)(x, type=1).tobytes()
    assert kernel(x).tobytes() == want
    out = np.empty_like(x)
    assert kernel(x, out=out) is out
    assert out.tobytes() == want
    inplace = x.copy()
    assert kernel(inplace, out=inplace) is inplace
    assert inplace.tobytes() == want


def test_one_vector_l4_norm_is_a_scalar():
    c = stream(4).standard_normal(N)
    assert np.ndim(l4_norm4(c)) == 0
    assert float(l4_norm4(c)) == ref_l4_norm4(c)


def test_l4_norm_by_squaring_is_within_rounding_of_the_fourth_power():
    c = stream(8).standard_normal((200, N)) / np.arange(1, N + 1)
    vals = sine_values(c, 2 * (N + 1))
    power = (vals ** 4).sum(axis=-1) / (2 * (N + 1))
    assert np.allclose(l4_norm4(c), power, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("axis", [0, 1, -2])
def test_axis_argument_transforms_along_that_axis(axis):
    a = stream(5).standard_normal((N, 4, 7))
    last = np.moveaxis(a, axis, -1)
    assert np.array_equal(sine_values(a, 64, axis=axis),
                          np.moveaxis(sine_values(last, 64), -1, axis))


@pytest.mark.parametrize("lead", [(0,), (2, 0)], ids=str)
def test_no_rows_give_an_empty_result(lead):
    a = np.empty(lead + (N,))
    assert sine_values(a).shape == lead + (N,)
    assert sine_values(a, 64).shape == lead + (63,)
    assert sine_coefficients(a).shape == lead + (N,)
    assert l4_norm4(a).shape == lead


def test_by_blocks_hands_fn_at_most_block_rows(monkeypatch):
    monkeypatch.setattr(sine, "BLOCK_ROWS", 4)
    seen = []
    a = stream(7).standard_normal((2, 5, N))
    out = by_blocks(lambda b: seen.append(b.shape[0]) or b[:, 0], a)
    assert seen == [4, 4, 2]
    assert np.array_equal(out, a[..., 0])


def test_too_coarse_grid_is_refused():
    with pytest.raises(ValueError):
        sine_values(np.ones(N), N)
    # 0 is a grid size like any other, not a request for the default
    with pytest.raises(ValueError, match="grid size M must exceed"):
        sine_values(np.ones(N), 0)


def test_binding_is_scipy_fft_s_own_module():
    assert sine._pocketfft() is sfft._pocketfft.pypocketfft


def test_missing_binding_file_raises_import_error_naming_its_path(monkeypatch):
    # scipy keeps the binding at a private path: a scipy that moves it fails
    # here, with the path it was looked for at
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
    with pytest.raises(ImportError, match=r"fft.*_pocketfft.*pypocketfft\{\.missing\}"):
        sine._pocketfft.__wrapped__()
