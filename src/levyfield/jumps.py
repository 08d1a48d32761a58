"""Jump-measure view of the subordinated noise and moment inequalities.

The noise Y jumps exactly where its subordinator Z jumps; the mark of a
jump of size dZ is a Gaussian vector with mode-j variance w_j^{-2} dZ,
which ``noise.increment_coefficients`` draws for every jump of a
``PathBatch``, and ``spectral.cell_moments`` integrates the OU kernel
against them.  This module verifies the p-th moment inequalities for
Poisson stochastic integrals of step functions by Monte Carlo; the bound
for p in (1, 2] takes the exact type-p constant of l^2, which is 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import stream

__all__ = [
    "StepIntegrand",
    "verify_moment_inequality_p_le_1",
    "verify_moment_inequality_type_p",
]

# fixed slack on the type-p bound of verify_moment_inequality_type_p
TYPE_P_MARGIN = 1.25


@dataclass(frozen=True)
class StepIntegrand:
    """Step function f = sum_i f_i 1_{B_i} over disjoint sets of finite measure.

    Only the pair (measure nu(B_i), value vector f_i) matters for the
    Poisson-integral moments.
    """

    measures: np.ndarray       # (k,)
    values: np.ndarray         # (k, n)

    def __post_init__(self):
        nu = np.asarray(self.measures, dtype=float)
        f = np.atleast_2d(np.asarray(self.values, dtype=float))
        if nu.ndim != 1 or f.shape[0] != nu.size:
            raise ValueError("measures (k,) and values (k, n) must agree")
        if np.any(nu < 0) or not np.all(np.isfinite(nu)):
            raise ValueError("piece measures must be finite and nonnegative")
        object.__setattr__(self, "measures", nu)
        object.__setattr__(self, "values", f)

    def lp_nu(self, p: float) -> float:
        """int |f|^p d(nu) = sum_i |f_i|_2^p nu(B_i), exact for a step function."""
        norms = np.linalg.norm(self.values, axis=1)
        return float((norms ** p * self.measures).sum())


def _poisson_integral_norms(step: StepIntegrand, mc: int, rng: np.random.Generator,
                            compensated: bool) -> np.ndarray:
    counts = rng.poisson(step.measures, size=(mc, step.measures.size)).astype(float)
    if compensated:
        counts -= step.measures
    return np.linalg.norm(counts @ step.values, axis=1)


def verify_moment_inequality_p_le_1(step: StepIntegrand, p: float, mc: int = 100000,
                                    seed: int = 0) -> dict:
    """Check E |int f dpi|^p <= int |f|^p dnu for p in (0, 1] and f valued in
    l^2 by Monte Carlo."""
    if not 0 < p <= 1:
        raise ValueError("p must be in (0,1]")
    norms = _poisson_integral_norms(step, mc, stream(seed), compensated=False)
    lhs = float(np.mean(norms ** p))
    se = float(np.std(norms ** p) / np.sqrt(mc))
    rhs = step.lp_nu(p)
    return {
        "inequality": "uncompensated_p_le_1",
        "p": p, "mc": mc,
        "lhs_estimate": lhs, "lhs_stderr": se, "rhs": rhs,
        "pass": bool(lhs - 4.0 * se <= rhs),
    }


def verify_moment_inequality_type_p(step: StepIntegrand, p: float, mc: int = 100000,
                                    seed: int = 0) -> dict:
    """Check E|int f dpi~|^p <= 2^(2-p) K_p int |f|^p dnu for p in (1, 2]
    and f valued in l^2.

    pi~ is the compensated Poisson measure.  l^2 has type-p constant
    K_p = 1 for p <= 2: E|sum_i eps_i x_i|^p <= (sum_i |x_i|^2)^(p/2)
    <= sum_i |x_i|^p, with equality for one vector.  The bound carries the
    fixed slack TYPE_P_MARGIN.  The Poisson counts come from
    stream(seed, 1).
    """
    if not 1 < p <= 2:
        raise ValueError("p must be in (1,2]")
    norms = _poisson_integral_norms(step, mc, stream(seed, 1), compensated=True)
    lhs = float(np.mean(norms ** p))
    se = float(np.std(norms ** p) / np.sqrt(mc))
    rhs = 2.0 ** (2.0 - p) * TYPE_P_MARGIN * step.lp_nu(p)
    return {
        "inequality": "compensated_type_p",
        "p": p, "mc": mc, "margin": TYPE_P_MARGIN,
        "lhs_estimate": lhs, "lhs_stderr": se, "rhs": rhs,
        "pass": bool(lhs - 4.0 * se <= rhs),
    }
