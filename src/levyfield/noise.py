"""Subordinated cylindrical noise Y(t) = W(Z(t)) on a spectral truncation.

W is a cylindrical Wiener process on a weighted-l2 space H (mode weights
w_j), Z an independent subordinator.  Conditionally on a path of Z the
mode-j increment of Y over a time cell is centered Gaussian with variance
w_j^{-2} * (increment of Z), which makes exact sampling and the
characteristic functional

    E exp(i <Y(t), phi>) = exp(-t psi(0.5 |phi|_H^2))

available in closed form (psi = Laplace exponent of Z).  The jumps of Y
are those of Z with Gaussian marks, so their intensity
nu = int_0^inf zeta_s rho(ds) (zeta_s the law of W(s)) has the exact rate
``jump_rate`` above a threshold for a stable Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spaces import SpaceSpec
from .subordinator import SubordinatorSpec, laplace_exponent

__all__ = [
    "CylindricalWienerSpec",
    "LevyNoiseSpec",
    "char_functional",
    "increment_coefficients",
    "jump_rate",
]

# relative tolerance of jump_rate's quadrature
RATE_RTOL = 1e-12


@dataclass(frozen=True)
class CylindricalWienerSpec:
    """Cylindrical Wiener process on H = weighted-l2 over a mode truncation.

    ``hilbert_weights`` are the per-mode weights w_j of the H-norm, each
    positive and finite; all ones gives H = L^2 of the sine basis.
    """

    hilbert_weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.hilbert_weights, dtype=float)
        if w.ndim != 1 or w.size == 0 or not np.all((w > 0) & (w < np.inf)):
            raise ValueError("hilbert_weights must be a non-empty 1-d sequence of positive, "
                             "finite weights")
        object.__setattr__(self, "hilbert_weights", w)

    @property
    def truncation_N(self) -> int:
        return self.hilbert_weights.size


@dataclass(frozen=True)
class LevyNoiseSpec:
    wiener: CylindricalWienerSpec
    subordinator: SubordinatorSpec


def char_functional(spec: LevyNoiseSpec, phi, t: float) -> float:
    """E exp(i <Y(t), phi>) = exp(-t psi(0.5 |phi|_H^2)); real and positive.
    Raises ValueError for a t that is negative, infinite or NaN, and unless
    phi has shape (n_modes,)."""
    if not 0 <= t < np.inf:
        raise ValueError(f"t must be finite and nonnegative, not {t}")
    w = spec.wiener.hilbert_weights
    phi = np.asarray(phi, dtype=float)
    if phi.shape != w.shape:
        raise ValueError(f"phi must have shape {w.shape}, not {phi.shape}")
    half_sq = 0.5 * ((w * phi) ** 2).sum(axis=-1)
    return float(np.exp(-t * laplace_exponent(spec.subordinator, half_sq)))


def increment_coefficients(spec: LevyNoiseSpec, dz, rng: np.random.Generator) -> np.ndarray:
    """Mode-wise Y increments given Z increments ``dz`` (any shape).

    Mode j of the increment over dz is N(0, w_j^{-2} dz); the result has
    shape dz.shape + (n_modes,), drawn from rng in C order.
    """
    dz = np.asarray(dz, dtype=float)
    inv_w = 1.0 / spec.wiener.hilbert_weights
    return np.sqrt(dz)[..., None] * inv_w * rng.standard_normal(dz.shape + inv_w.shape)


def jump_rate(spec: LevyNoiseSpec, threshold: float,
              u_space: SpaceSpec) -> float:
    """nu(|u|_U >= threshold): the rate per unit time of the jumps of Y whose
    mark has U-norm, in ``u_space``, at least the threshold.

    The jump intensity of Y is nu = int_0^inf zeta_s rho(ds), with zeta_s
    the Gaussian law of W(s).  For the stable rho the scaling in s gives

        nu(|u|_U >= r) = r^(-2 beta) E X^beta / Gamma(1 - beta),

    X = |W(1)|_U^2 = sum_j a_j g_j^2, a_j = (u_j / w_j)^2, and

        E X^beta = beta / Gamma(1 - beta)
                   * int_0^inf (1 - prod_j (1 + 2 a_j u)^(-1/2)) u^(-1-beta) du,

    taken by ``spectral._panel_integral`` on one geometric panel per decade
    of [1e-12 / sum a, 1e20 / min a], plus the integrand's leading terms in
    closed form below and above; the mode sums take blocks of at most
    max(1, CHUNK_TERMS // modes) nodes.  A pure drift has no jumps, so
    its rate is 0.  Raises ValueError for a truncated law, whose scaling
    stops at its cutoff, for a U-norm other than a weighted l^2 norm on the
    noise's modes, and for a threshold that is not positive.
    """
    # imported here: spectral imports this module
    from .spectral import CHUNK_TERMS, _panel_integral

    sub = spec.subordinator
    if sub.kind == "truncated_stable":
        raise ValueError("the jump rate is in closed form for an untruncated law only")
    n = spec.wiener.truncation_N
    if u_space.exponent_q != 2 or u_space.dim != n:
        raise ValueError(f"the U-norm must be a weighted l^2 norm on {n} modes")
    if not threshold > 0:
        raise ValueError(f"threshold must be positive, not {threshold}")
    if sub.kind == "drift_only":
        return 0.0
    beta = sub.beta
    two_a = 2.0 * (u_space.weights / spec.wiener.hilbert_weights) ** 2
    rows = max(1, CHUNK_TERMS // n)

    def integrand(u):
        # 1 - prod_j (1 + 2 a_j u)^(-1/2), without cancellation at small u
        log_prod = np.concatenate([-0.5 * np.log1p(np.multiply.outer(u[i:i + rows], two_a))
                                   .sum(axis=1) for i in range(0, u.size, rows)])
        return -np.expm1(log_prod) * u ** (-1.0 - beta)

    lo, hi = 2e-12 / two_a.sum(), 2e20 / two_a.min()
    edges = np.geomspace(lo, hi, math.ceil(math.log10(hi / lo)) + 1)
    # below lo the integrand is sum_j a_j u^(-beta), above hi it is u^(-1-beta)
    head = 0.5 * two_a.sum() * lo ** (1.0 - beta) / (1.0 - beta)
    tail = hi ** -beta / beta
    gamma = math.gamma(1.0 - beta)
    mean_x_beta = beta / gamma * (head + _panel_integral(integrand, edges, RATE_RTOL) + tail)
    return threshold ** (-2.0 * beta) * mean_x_beta / gamma
