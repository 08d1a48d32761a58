"""Subordinated cylindrical noise Y(t) = W(Z(t)) on a spectral truncation.

W is a cylindrical Wiener process on a weighted-l2 space H (mode weights
w_j), Z an independent subordinator.  Conditionally on a path of Z the
mode-j increment of Y over a time cell is centered Gaussian with variance
w_j^{-2} * (increment of Z), which makes exact sampling and the
characteristic functional

    E exp(i <Y(t), phi>) = exp(-t psi(0.5 |phi|_H^2))

available in closed form (psi = Laplace exponent of Z).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._rng import stream
from .spaces import SpaceSpec
from .subordinator import (
    QuadratureError,
    SubordinatorPath,
    SubordinatorSpec,
    _quad,
    laplace_exponent,
    simulate_path,
)

__all__ = [
    "CylindricalWienerSpec",
    "LevyNoiseSpec",
    "NoiseIncrementSample",
    "char_functional",
    "sample_increments",
    "increment_coefficients",
    "intensity_measure_functional",
    "finite_variation_test",
    "export_increments_csv",
]


@dataclass(frozen=True)
class CylindricalWienerSpec:
    """Cylindrical Wiener process on H = weighted-l2 over a mode truncation.

    ``hilbert_weights`` are the per-mode weights w_j of the H-norm; all ones
    gives H = L^2 of the sine basis.
    """

    hilbert_weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.hilbert_weights, dtype=float)
        if w.ndim != 1 or w.size == 0 or not np.all(w > 0):
            raise ValueError("hilbert_weights must be a non-empty positive 1-d sequence")
        object.__setattr__(self, "hilbert_weights", w)

    @property
    def truncation_N(self) -> int:
        return self.hilbert_weights.size

    def h_norm_sq(self, phi: np.ndarray) -> float:
        phi = np.asarray(phi, dtype=float)
        if phi.shape[-1] != self.truncation_N:
            raise ValueError(f"expected {self.truncation_N} coefficients")
        return ((self.hilbert_weights * phi) ** 2).sum(axis=-1)


@dataclass(frozen=True)
class LevyNoiseSpec:
    wiener: CylindricalWienerSpec
    subordinator: SubordinatorSpec

    @classmethod
    def scalar(cls, subordinator: SubordinatorSpec) -> "LevyNoiseSpec":
        return cls(CylindricalWienerSpec(np.ones(1)), subordinator)


@dataclass(frozen=True)
class NoiseIncrementSample:
    """Mode-wise increments of Y over one time cell, plus the generating dZ."""

    t_lo: float
    t_hi: float
    coefficients: np.ndarray
    generating_dZ: float


def char_functional(spec: LevyNoiseSpec, phi, t: float) -> float:
    """E exp(i <Y(t), phi>) = exp(-t psi(0.5 |phi|_H^2)); real and positive."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    half_sq = 0.5 * spec.wiener.h_norm_sq(phi)
    return float(np.exp(-t * laplace_exponent(spec.subordinator, half_sq)))


def sample_increments(
    spec: LevyNoiseSpec,
    zpath: SubordinatorPath,
    grid: np.ndarray,
    seed: int = 0,
) -> list[NoiseIncrementSample]:
    """Sample Y-increments over the cells of ``grid``, conditionally on zpath.

    Increments across cells and modes are independent given the Z path; each
    mode j over cell [s,t] is N(0, w_j^{-2} (Z(t)-Z(s))).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) < 0):
        raise ValueError("grid must be a nondecreasing 1-d array of length >= 2")
    if grid[0] < 0 or grid[-1] > zpath.horizon_T:
        raise ValueError("grid must lie within [0, horizon_T]")
    dz = np.diff(zpath.value(grid))
    coeffs = increment_coefficients(spec, dz, stream(seed))
    return [
        NoiseIncrementSample(t_lo=grid[i], t_hi=grid[i + 1],
                             coefficients=coeffs[i], generating_dZ=float(dz[i]))
        for i in range(dz.size)
    ]


def increment_coefficients(spec: LevyNoiseSpec, dz, rng: np.random.Generator) -> np.ndarray:
    """Mode-wise Y increments given Z increments ``dz`` (any shape).

    Mode j of the increment over dz is N(0, w_j^{-2} dz); the result has
    shape dz.shape + (n_modes,), drawn from rng in C order.
    """
    dz = np.asarray(dz, dtype=float)
    inv_w = 1.0 / spec.wiener.hilbert_weights
    return np.sqrt(dz)[..., None] * inv_w * rng.standard_normal(dz.shape + inv_w.shape)


def export_increments_csv(samples: list[NoiseIncrementSample], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["cell_lo", "cell_hi", "mode", "value", "dz"])
        for s in samples:
            for j, v in enumerate(s.coefficients):
                w.writerow([repr(float(s.t_lo)), repr(float(s.t_hi)), j,
                            repr(float(v)), repr(float(s.generating_dZ))])


def intensity_measure_functional(
    spec: LevyNoiseSpec,
    radial_test: Callable[[np.ndarray], np.ndarray],
    quad_tol: float = 1e-6,
    u_space: Optional[SpaceSpec] = None,
    inner_samples: int = 4096,
    inner_seed: int = 12345,
) -> float:
    """Integral of radial_test(|u|_U) against the jump intensity of Y.

    The intensity is nu(G) = int_0^inf zeta_s(G) rho(ds) with zeta_s the
    N-mode Gaussian law of W(s).  The inner Gaussian expectation uses a
    fixed standard-normal cloud rescaled by sqrt(s) (common random numbers,
    so the outer integrand is smooth in s); the outer rho-integral is
    adaptive quadrature, or an atom sum for compound-Poisson intensities.
    """
    sub = spec.subordinator
    if sub.kind == "drift_only":
        return 0.0
    inv_w = 1.0 / spec.wiener.hilbert_weights
    cloud = stream(inner_seed).standard_normal((inner_samples, inv_w.size)) * inv_w
    if u_space is None:
        norms = np.sqrt((cloud ** 2).sum(axis=1))
    else:
        norms = u_space.norm(cloud)

    def inner(s):
        return float(np.mean(radial_test(np.sqrt(s) * norms)))

    meas = sub.intensity
    if meas.atoms is not None:
        sizes, rates = meas.atoms
        return float(sum(r * inner(s) for s, r in zip(sizes, rates)))

    # The inner expectation is an average over a finite cloud, so it has
    # O(1/M)-size kinks in s that defeat adaptive quadrature.  A log-spaced
    # trapezoid rule averages over them instead; node count is sized from
    # quad_tol.  Endpoint decay is checked so truncating the s-range is safe.
    n_nodes = int(np.clip(20.0 / np.sqrt(max(quad_tol, 1e-12)), 2000, 20000))
    cap = meas.support_cap if np.isfinite(meas.support_cap) else 1e16
    svals = np.geomspace(1e-12, cap, n_nodes)
    fvals = np.empty(n_nodes)
    for i0 in range(0, n_nodes, 256):
        sl = svals[i0:i0 + 256]
        fvals[i0:i0 + sl.size] = np.asarray(
            radial_test(np.sqrt(sl)[:, None] * norms[None, :]), dtype=float).mean(axis=1)
    fvals *= np.asarray(meas.density(svals), dtype=float)
    logland = fvals * svals  # integrand per unit of log s
    if logland.max() > 0 and np.isinf(meas.support_cap) and logland[-1] > 1e-6 * logland.max():
        raise QuadratureError("intensity integrand has not decayed by s=1e16; "
                              "supply a support_cap or a faster-decaying radial_test")
    return float(np.trapezoid(logland, np.log(svals)))


def finite_variation_test(
    spec: LevyNoiseSpec,
    mc_paths: int = 20,
    T: float = 1.0,
    seed: int = 0,
    u_space: Optional[SpaceSpec] = None,
) -> dict:
    """Finite-variation verdict for Y, analytic criterion plus an MC cross-check.

    Analytic: Y has finite variation iff Z has no drift (drift would make Y
    partly Brownian) and int_0^1 E[|W(s)|_U ; |W(s)|_U < 1] rho(ds) < inf.
    The integral's convergence near s=0 is probed on shrinking lower limits.

    Empirical: total variation of sampled paths on dyadically refined grids;
    a persistent ~sqrt(2) growth per refinement flags infinite variation.
    Disagreement is reported, not raised.
    """
    sub = spec.subordinator
    inv_w = 1.0 / spec.wiener.hilbert_weights

    # analytic verdict
    if sub.kind == "drift_only" or sub.drift_b > 0:
        analytic_finite = False
        criterion_integral = 0.0 if sub.kind == "drift_only" else None
    else:
        cloud = stream(997).standard_normal((4096, inv_w.size)) * inv_w
        norms = np.sqrt((cloud ** 2).sum(axis=1)) if u_space is None else u_space.norm(cloud)

        def inner(s):
            x = np.sqrt(s) * norms
            return float(np.mean(np.where(x < 1.0, x, 0.0)))

        if sub.intensity.atoms is not None:
            sizes, rates = sub.intensity.atoms
            criterion_integral = float(sum(r * inner(s) for s, r in zip(sizes, rates) if s < 1.0))
            analytic_finite = True
        else:
            def tail_int(lo):
                # log-trapezoid; the MC inner expectation is too kinked for quad
                svals = np.geomspace(lo, 1.0, 4000)
                ivals = np.array([inner(s) for s in svals])
                dens = np.asarray(sub.intensity.density(svals), dtype=float)
                return float(np.trapezoid(ivals * dens * svals, np.log(svals)))

            probes = [tail_int(10.0 ** -k) for k in (2, 4, 6)]
            d1, d2 = probes[1] - probes[0], probes[2] - probes[1]
            # geometric extrapolation: increments shrinking under the cutoff
            # shrinking means the s->0 contribution converges
            if d2 <= max(1e-9 * max(probes[2], 1.0), 0.9 * d1):
                analytic_finite = True
                criterion_integral = probes[2] + (d2 ** 2 / (d1 - d2) if d1 > d2 > 0 else 0.0)
            else:
                analytic_finite = False
                criterion_integral = float("inf")

    # empirical cross-check: TV growth under grid refinement.  For the stable
    # kind the Z-path is re-drawn resolution-matched so each scale sees the
    # true increment law; other kinds reuse one (finitely resolved) path.
    grids = [2 ** k for k in (8, 10, 12)]
    ratios = []
    for m in range(mc_paths):
        zp_fixed = None if sub.kind == "stable" else simulate_path(sub, T, seed=seed + 7919 * m)
        tvs = []
        for n in grids:
            zp = zp_fixed if zp_fixed is not None else simulate_path(
                sub, T, seed=seed + 7919 * m + n, grid_n=n)
            samples = sample_increments(spec, zp, np.linspace(0.0, T, n + 1), seed=seed + 104729 * m + n)
            inc = np.array([s.coefficients for s in samples])
            step = np.sqrt((inc ** 2).sum(axis=1)) if u_space is None else u_space.norm(inc)
            tvs.append(step.sum())
        if tvs[0] == 0.0:  # path without jumps (possible for finite intensities)
            ratios.append(1.0)
        else:
            ratios.append((tvs[-1] / tvs[0]) ** (1.0 / (len(grids) - 1)))
    growth = float(np.median(ratios))
    # per-refinement-step ratio: ~1 for finite variation, 2 for Brownian,
    # 4^(1-1/(2 beta)) for the stable kind
    empirical_finite = growth < 1.25
    return {
        "analytic_finite": bool(analytic_finite),
        "criterion_integral": criterion_integral,
        "empirical_growth_ratio": growth,
        "empirical_finite": bool(empirical_finite),
        "agree": bool(analytic_finite == empirical_finite),
    }
