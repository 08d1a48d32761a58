"""Empirical regularity diagnostics for the OU field.

Tools here turn the qualitative path properties into measurable,
desk-scale statistics: Hoelder exponents from dyadic increments of the
synthesized field, time-integrability of trajectory norms under grid
refinement, a blow-up probe for the large-jump part in spaces that are
too small for the jump marks, and the circle convolution of a periodic
profile against a scalar subordinated Levy path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import stream
from .spaces import SpaceSpec
from .noise import LevyNoiseSpec, increment_coefficients
from .spectral import SpectralOperator, cell_moments, synthesize
from .subordinator import SubordinatorSpec, jump_law, simulate_paths

__all__ = [
    "CirclePath",
    "estimate_holder",
    "holder_from_values",
    "time_integrability",
    "blowup_probe",
    "circle_convolution",
    "fourier_profile",
    "scalar_levy_jumps",
]

# circle_convolution refuses a common grid finer than this many cells
MAX_CIRCLE_CELLS = 1 << 24
# dyadic scales holder_from_values needs, and the fewest its regression keeps
MIN_SCALES = 4
# cells of the grid on which scalar_levy_jumps draws the Brownian part
SLOPE_GRID = 4096
# horizon of blowup_probe's noise path, and its window after the first large jump
BLOWUP_HORIZON = 1.0
BLOWUP_WINDOW = 0.1


# -- Hoelder estimation --------------------------------------------------


def holder_from_values(values: np.ndarray) -> dict:
    """Hoelder exponent from max dyadic increments of grid values on (0,1).

    For scales 2^-k the statistic is max_i |f(x_(i+M/2^k)) - f(x_i)|; the
    estimate is the log-log regression slope, clipped below 1 only by the
    data itself (a smooth input saturates near 1).

    The exponent is an asymptotic small-scale quantity, so the regression
    uses only the finest half of the available scales; the coarse half is
    pinned by the overall oscillation of f (boundedness, not the local
    increment ratio) and biases the slope for fields whose range is set by
    a few large excursions.
    """
    f = np.asarray(values, dtype=float)
    M = f.size + 1
    if M & (M - 1):
        raise ValueError("values must fill a dyadic grid (length 2^m - 1)")
    kmax = int(math.log2(M))
    scales, incs = [], []
    for k in range(1, kmax):
        step = M >> k
        inc = np.abs(f[step:] - f[:-step]).max()
        if inc > 0:
            scales.append(step / M)
            incs.append(inc)
    if len(scales) < MIN_SCALES:
        raise ValueError(f"fewer than {MIN_SCALES} usable dyadic scales")
    keep = max(MIN_SCALES, (len(scales) + 1) // 2)
    scales, incs = scales[-keep:], incs[-keep:]
    ls, li = np.log(scales), np.log(incs)
    slope, intercept = np.polyfit(ls, li, 1)
    resid = li - (slope * ls + intercept)
    n = ls.size
    se = math.sqrt((resid ** 2).sum() / max(n - 2, 1) / ((ls - ls.mean()) ** 2).sum())
    return {"delta_hat": float(slope), "stderr": float(se),
            "scales": np.asarray(scales), "increments": np.asarray(incs)}


def estimate_holder(coefficients, op: SpectralOperator, physical_grid_M: int) -> dict:
    """Synthesize a 1-d field from its coefficients on a dyadic grid and
    estimate its exponent."""
    if op.dim_d != 1:
        raise ValueError("Hoelder estimation implemented for d=1 grids")
    if physical_grid_M & (physical_grid_M - 1):
        raise ValueError("physical_grid_M must be a power of 2")
    vals = synthesize(op, coefficients, physical_grid_M)
    return holder_from_values(vals)


# -- time integrability --------------------------------------------------


def time_integrability(norms, T: float, p: float) -> dict:
    """Riemann sums of int_0^T |X(t)|_E^p dt at dyadic coarsenings of the grid.

    ``norms`` has shape (paths, n) and holds |X(t_k)|_E at t_k = kT/n, k = 1..n,
    with n a power of 2 and at least 8; the level of m cells sums the norms at
    its right endpoints jT/m.  Stabilization of the estimates under refinement
    is the desk-scale evidence that the integral is finite; ``stabilization``
    is the relative change on the last halving of the mesh (per-path median).
    """
    if not p > 0:
        raise ValueError(f"p must be positive, not {p}")
    if not 0 < T < math.inf:
        raise ValueError(f"T must be finite and positive, not {T}")
    norms = np.asarray(norms, dtype=float)
    if norms.ndim != 2:
        raise ValueError("norms must have shape (paths, n)")
    n_times = norms.shape[1]
    if n_times & (n_times - 1):
        raise ValueError("time grid length must be a power of 2 for dyadic coarsening")
    if n_times < 8:
        raise ValueError("time_integrability needs at least 8 grid times (two dyadic levels)")
    norms = norms ** p
    levels = []
    stride = 1
    while n_times // stride >= 4:
        sub = norms[:, stride - 1::stride]
        dt = T / (n_times // stride)
        levels.append({"n_cells": n_times // stride, "integrals": sub.sum(axis=1) * dt})
        stride *= 2
    levels = levels[::-1]   # coarse -> fine
    fine, half = levels[-1]["integrals"], levels[-2]["integrals"]
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.abs(fine - half) / np.where(fine > 0, fine, 1.0)
    return {
        "mesh_cells": [lv["n_cells"] for lv in levels],
        "mean_integral": [float(lv["integrals"].mean()) for lv in levels],
        "per_path_final": levels[-1]["integrals"],
        "stabilization": float(np.median(rel)),
    }


# -- blow-up probe -------------------------------------------------------


def blowup_probe(op: SpectralOperator, noise: LevyNoiseSpec, F: SpaceSpec,
                 N_sequence, seed: int = 0, threshold: float = 1.0, *,
                 u_space: SpaceSpec) -> dict:
    """Growth of sup |X2(t)|_F right after the first large jump, across truncations.

    One noise path on [0, BLOWUP_HORIZON] is drawn at the full truncation:
    Z, of the law ``jump_law`` of the subordinator, from stream(seed), the
    marks of its jumps from stream(seed, 1); sub-truncations take mode
    prefixes (modes are sorted by eigenvalue, so prefixes are nested).
    X2 is the convolution of the large jumps only, those whose mark has
    U-norm at least ``threshold``, evaluated at geometric time offsets in
    (tau_1, tau_1 + BLOWUP_WINDOW].  A positive log-log slope of the sup in
    N while the U-norm of the mark stays bounded is the blow-up signature;
    no large jump in the horizon yields an inconclusive report.  Raises ValueError
    for fewer than two distinct truncations, through which no slope can be
    fitted, for a truncation that is not a positive integer (a bool is
    none), and for a threshold that is not positive.
    """
    if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 1
               for n in N_sequence):
        raise ValueError(f"truncations must be positive integers, not {list(N_sequence)}")
    N_sequence = sorted(map(int, N_sequence))
    if len(set(N_sequence)) < 2:
        raise ValueError("a growth slope needs at least two distinct truncations")
    if N_sequence[-1] > op.n_modes:
        raise ValueError("truncation sequence exceeds the operator mode count")
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    zp = simulate_paths(jump_law(noise.subordinator), BLOWUP_HORIZON, 1, stream(seed))
    marks = increment_coefficients(noise, zp.sizes, stream(seed, 1))
    large = u_space.norm(marks) >= threshold
    times, marks = zp.times[large], marks[large]
    if times.size == 0:
        return {"conclusive": False, "reason": "no jump reached the threshold"}
    tau1 = float(times[0])
    t = tau1 + np.geomspace(1e-9, BLOWUP_WINDOW, 40)
    n = N_sequence[-1]
    x2 = cell_moments(op.lambdas[:n], 1.0, 0.0, np.zeros(t.size), t, times, marks[:, :n],
                      np.zeros(t.size, dtype=int), np.searchsorted(times, t, side="right"))
    sups = [float(F.prefix(N).norm(x2[:, :N]).max()) for N in N_sequence]
    mark = marks[0]
    u_norms = [float(u_space.prefix(N).norm(mark[:N])) for N in N_sequence]
    slope = float(np.polyfit(np.log(N_sequence), np.log(sups), 1)[0])
    return {
        "conclusive": True, "tau1": tau1, "window_h": BLOWUP_WINDOW,
        "truncations": N_sequence, "sup_F": sups, "u_norm_of_mark": u_norms,
        "growth_slope": slope, "blowup_detected": bool(slope > 0.1),
    }


# -- circle convolution --------------------------------------------------


@dataclass(frozen=True)
class CirclePath:
    """Periodic profiles plus a scalar driving Levy path on [0, 2*pi].

    ``profile`` holds values on the uniform circle grid including both
    endpoints (first == last), one profile of shape (P+1,) or a batch of
    shape (k, P+1), one profile per row.  The driving path is a list of
    increments at times in (0, 2*pi]; ``scalar_levy_jumps`` merges the
    continuous part in as Brownian increments on a grid.
    """

    profile: np.ndarray
    jump_times: np.ndarray
    jump_increments: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.profile, dtype=float)
        if f.ndim not in (1, 2) or f.shape[-1] < 3 or f.size == 0:
            raise ValueError("profile must have shape (P+1,) or (k, P+1), with P >= 2 and k >= 1")
        if not np.all(np.abs(f[..., 0] - f[..., -1]) <= 1e-12):
            raise ValueError("profile must be periodic: first and last grid values equal")
        t = np.asarray(self.jump_times, dtype=float)
        dy = np.asarray(self.jump_increments, dtype=float)
        if t.shape != dy.shape or (t.size and (np.any(np.diff(t) <= 0)
                                               or t[0] <= 0 or t[-1] > 2 * np.pi)):
            raise ValueError("jump times must be strictly increasing in (0, 2*pi]")
        object.__setattr__(self, "profile", f)
        object.__setattr__(self, "jump_times", t)
        object.__setattr__(self, "jump_increments", dy)


def scalar_levy_jumps(sub: SubordinatorSpec, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Scalar subordinated Levy path on [0, 2*pi] as (times, increments).

    Z is drawn from ``jump_law(sub)``, from stream(seed).  Jumps of Z get
    Gaussian marks sqrt(dZ) g; a positive slope of Z contributes Brownian
    increments on a uniform grid of SLOPE_GRID cells (times at the cell
    right endpoints), merged into the same list.
    """
    T = 2.0 * np.pi
    zp = simulate_paths(jump_law(sub), T, 1, stream(seed))
    rng = stream(seed, 1)
    incs = np.sqrt(zp.sizes) * rng.standard_normal(zp.sizes.size)
    times = zp.times.copy()
    if zp.drift_slope > 0:
        gt = np.linspace(T / SLOPE_GRID, T, SLOPE_GRID)
        gi = math.sqrt(zp.drift_slope * T / SLOPE_GRID) * rng.standard_normal(SLOPE_GRID)
        times = np.concatenate([times, gt])
        incs = np.concatenate([incs, gi])
        order = np.argsort(times, kind="stable")
        times, incs = times[order], incs[order]
        keep = np.concatenate([[True], np.diff(times) > 0])
        times, incs = times[keep], incs[keep]
    return times, incs


def fourier_profile(theta: float, n_harmonics: int, grid_M: int, seed: int = 0) -> np.ndarray:
    """Periodic profile with Fourier decay |f_k| ~ k^(-(theta + 1/2)).

    Random signs per harmonic; theta sweeps the Sobolev smoothness
    W^(theta,2) boundary of the profile family.  The grid_M + 1 values come
    from one inverse FFT, harmonics at or above grid_M folded onto k mod
    grid_M, which is exact on the grid.  Raises ValueError if n_harmonics < 1
    or grid_M < 1.
    """
    if n_harmonics < 1:
        raise ValueError(f"n_harmonics must be positive, not {n_harmonics}")
    if grid_M < 1:
        raise ValueError("grid_M must be positive")
    signs = stream(seed).choice([-1.0, 1.0], size=(n_harmonics, 2))
    k = np.arange(1, n_harmonics + 1)
    amp = k ** (-(theta + 0.5))
    # amp (sc cos kz + ss sin kz) = Re(amp (sc - i ss) e^(ikz))
    c = np.zeros(grid_M, dtype=complex)
    np.add.at(c, k % grid_M, amp * (signs[:, 0] - 1j * signs[:, 1]))
    f = np.fft.ifft(c).real * grid_M
    return np.append(f, f[0])


def circle_convolution(path: CirclePath, grid_M: int) -> np.ndarray:
    """z -> sum_k profile(z - tau_k) dY_k on the uniform circle grid.

    The profile is interpolated periodically and linearly; output has
    grid_M + 1 points with matching endpoints, shape (grid_M + 1,) for one
    profile and (k, grid_M + 1) for a batch of k.  On the grid of L =
    lcm(P, grid_M) cells (P profile cells) the interpolant's knots and the
    output points are grid points, so depositing each increment onto its
    two neighbouring grid points with linear weights and convolving
    circularly (one FFT) gives the same function exactly.  The deposit and
    its FFT serve every row of a batch, and each row's result equals its
    own call's bitwise.  Raises ValueError if grid_M < 1 or L exceeds
    MAX_CIRCLE_CELLS.
    """
    if grid_M < 1:
        raise ValueError("grid_M must be positive")
    f = path.profile
    P = f.shape[-1] - 1
    L = math.lcm(P, grid_M)
    if L > MAX_CIRCLE_CELLS:
        raise ValueError(f"circle grid of lcm({P}, {grid_M}) = {L} cells exceeds "
                         f"MAX_CIRCLE_CELLS = {MAX_CIRCLE_CELLS}")
    u = path.jump_times * (L / (2.0 * np.pi))
    cell = np.floor(u)
    w = u - cell
    i0 = cell.astype(np.int64) % L
    dy = path.jump_increments
    d = (np.bincount(i0, (1.0 - w) * dy, minlength=L)
         + np.bincount((i0 + 1) % L, w * dy, minlength=L))
    d_hat = np.fft.rfft(d)
    r = L // P
    x, knots = np.arange(L) / r, np.arange(P + 1)
    rows = f.reshape(-1, P + 1)
    # rows in blocks of at most MAX_CIRCLE_CELLS grid values, so a batch
    # holds no larger transform than one profile on the finest grid allowed
    block = max(1, MAX_CIRCLE_CELLS // L)
    out = np.empty((rows.shape[0], grid_M + 1))
    for lo in range(0, rows.shape[0], block):
        part = rows[lo:lo + block]
        # np.interp at its own knots (r == 1) returns the knot values
        g = part[:, :-1] if r == 1 else np.stack([np.interp(x, knots, row) for row in part])
        out[lo:lo + block, :-1] = np.fft.irfft(np.fft.rfft(g) * d_hat, n=L)[:, ::L // grid_M]
    out[:, -1] = out[:, 0]
    return out.reshape(f.shape[:-1] + (grid_M + 1,))
