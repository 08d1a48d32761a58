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

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._rng import stream
from .spaces import SpaceSpec
from .subordinator import QuadratureError, SubordinatorSpec, laplace_exponent

__all__ = [
    "CylindricalWienerSpec",
    "LevyNoiseSpec",
    "char_functional",
    "increment_coefficients",
    "intensity_measure_functional",
]

# s-nodes per block when averaging over the 4096-norm Gaussian cloud: 512 KB
# per temporary, which stays in a core's L2; 256-node (8 MB) blocks ran 3-4x
# slower on a 2-vCPU Xeon with 4 MB of L2
CLOUD_BLOCK = 16


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


def char_functional(spec: LevyNoiseSpec, phi, t: float) -> float:
    """E exp(i <Y(t), phi>) = exp(-t psi(0.5 |phi|_H^2)); real and positive.
    Raises ValueError for a t that is negative, infinite or NaN."""
    if not 0 <= t < np.inf:
        raise ValueError(f"t must be finite and nonnegative, not {t}")
    half_sq = 0.5 * spec.wiener.h_norm_sq(phi)
    return float(np.exp(-t * laplace_exponent(spec.subordinator, half_sq)))


def increment_coefficients(spec: LevyNoiseSpec, dz, rng: np.random.Generator) -> np.ndarray:
    """Mode-wise Y increments given Z increments ``dz`` (any shape).

    Mode j of the increment over dz is N(0, w_j^{-2} dz); the result has
    shape dz.shape + (n_modes,), drawn from rng in C order.
    """
    dz = np.asarray(dz, dtype=float)
    inv_w = 1.0 / spec.wiener.hilbert_weights
    return np.sqrt(dz)[..., None] * inv_w * rng.standard_normal(dz.shape + inv_w.shape)


def _u_norm(x: np.ndarray, u_space: Optional[SpaceSpec]) -> np.ndarray:
    """|x|_U along the last axis; the Euclidean norm when u_space is None."""
    return np.sqrt((x ** 2).sum(axis=-1)) if u_space is None else u_space.norm(x)


def _radial_norms(spec: LevyNoiseSpec, u_space: Optional[SpaceSpec]) -> np.ndarray:
    """|W(1)|_U over a fixed cloud of 4096 draws of the N-mode Gaussian law of
    W(1), from stream(12345).

    sqrt(s) times the cloud is a cloud of W(s): averages over it are common
    random numbers, so they are smooth in s.
    """
    inv_w = 1.0 / spec.wiener.hilbert_weights
    return _u_norm(stream(12345).standard_normal((4096, inv_w.size)) * inv_w, u_space)


def _cloud_means(radial_test, svals: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Mean of radial_test(sqrt(s) * norms) over the cloud at each s of svals,
    CLOUD_BLOCK nodes at a time."""
    means = np.empty(svals.size)
    for lo in range(0, svals.size, CLOUD_BLOCK):
        sl = svals[lo:lo + CLOUD_BLOCK]
        means[lo:lo + sl.size] = np.asarray(
            radial_test(np.sqrt(sl)[:, None] * norms[None, :]), dtype=float).mean(axis=1)
    return means


def intensity_measure_functional(
    spec: LevyNoiseSpec,
    radial_test: Callable[[np.ndarray], np.ndarray],
    quad_tol: float = 1e-6,
    u_space: Optional[SpaceSpec] = None,
) -> float:
    """Integral of radial_test(|u|_U) against the jump intensity of Y.

    The intensity is nu(G) = int_0^inf zeta_s(G) rho(ds) with zeta_s the
    N-mode Gaussian law of W(s).  The inner Gaussian expectation is an
    average over the fixed cloud of ``_radial_norms``; the outer rho-integral
    is a log-spaced trapezoid rule from the cutoff of a truncated law (from
    1e-12 otherwise) up to 1e16.
    """
    sub = spec.subordinator
    if sub.kind == "drift_only":
        return 0.0
    norms = _radial_norms(spec, u_space)
    meas = sub.jump_measure

    # The inner expectation is an average over a finite cloud, so it has
    # O(1/M)-size kinks in s that defeat adaptive quadrature.  A log-spaced
    # trapezoid rule averages over them instead; node count is sized from
    # quad_tol.  Endpoint decay is checked so truncating the s-range is safe.
    n_nodes = int(np.clip(20.0 / np.sqrt(max(quad_tol, 1e-12)), 2000, 20000))
    # rho is 0 below a truncated law's cutoff: starting there keeps the
    # density's step at the cutoff out of the trapezoid
    svals = np.geomspace(sub.cutoff or 1e-12, 1e16, n_nodes)
    fvals = _cloud_means(radial_test, svals, norms) * np.asarray(meas.density(svals), dtype=float)
    logland = fvals * svals  # integrand per unit of log s
    if logland.max() > 0 and logland[-1] > 1e-6 * logland.max():
        raise QuadratureError("intensity integrand has not decayed by s=1e16; "
                              "supply a faster-decaying radial_test")
    return float(np.trapezoid(logland, np.log(svals)))
