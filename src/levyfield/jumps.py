"""Jump-measure view of the subordinated noise and moment inequalities.

The noise Y jumps exactly where its subordinator Z jumps; the mark of a
jump of size dZ is a Gaussian vector with mode-j variance w_j^{-2} dZ,
which ``noise.increment_coefficients`` draws for every jump of a
``PathBatch``, and ``spectral.cell_moments`` integrates the OU kernel
against them.  This module verifies the p-th moment inequalities for
Poisson stochastic integrals of step functions by Monte Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import stream

__all__ = [
    "StepIntegrand",
    "verify_moment_inequality_p_le_1",
    "verify_moment_inequality_type_p",
    "estimate_type_p_constant",
]

# random sign rows per ensemble of more than 12 vectors in estimate_type_p_constant
SIGNS_MC = 4096
# factor on the estimated type-p constant, which is a lower bound of the true one
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

    def lp_nu(self, p: float, q: float = 2.0) -> float:
        """int |f|^p d(nu) = sum_i |f_i|_q^p nu(B_i), exact for a step function."""
        norms = np.linalg.norm(self.values, ord=q, axis=1) if np.isfinite(q) \
            else np.abs(self.values).max(axis=1)
        return float((norms ** p * self.measures).sum())


def _poisson_integral_norms(step: StepIntegrand, q: float, mc: int,
                            rng: np.random.Generator, compensated: bool) -> np.ndarray:
    counts = rng.poisson(step.measures, size=(mc, step.measures.size)).astype(float)
    if compensated:
        counts -= step.measures
    vals = counts @ step.values
    if np.isfinite(q):
        return np.linalg.norm(vals, ord=q, axis=1)
    return np.abs(vals).max(axis=1)


def verify_moment_inequality_p_le_1(step: StepIntegrand, p: float, mc: int = 100000,
                                    q: float = 2.0, seed: int = 0) -> dict:
    """Check E |int f dpi|^p <= int |f|^p dnu for p in (0, 1] by Monte Carlo."""
    if not 0 < p <= 1:
        raise ValueError("p must be in (0,1]")
    norms = _poisson_integral_norms(step, q, mc, stream(seed), compensated=False)
    lhs = float(np.mean(norms ** p))
    se = float(np.std(norms ** p) / np.sqrt(mc))
    rhs = step.lp_nu(p, q)
    return {
        "inequality": "uncompensated_p_le_1",
        "p": p, "q": q, "mc": mc,
        "lhs_estimate": lhs, "lhs_stderr": se, "rhs": rhs,
        "pass": bool(lhs - 4.0 * se <= rhs),
    }


def estimate_type_p_constant(p: float, q: float, n: int, values: np.ndarray,
                             rng: np.random.Generator, ensembles: int = 200) -> float:
    """Empirical type-p constant of (R^n, l^q).

    Maximizes  E_eps |sum_i eps_i x_i|_q^p / sum_i |x_i|_q^p  over random
    vector ensembles (including the supplied values); signs enumerated
    exactly for up to 12 vectors, SIGNS_MC random sign rows otherwise.  A
    lower bound for the true constant K_p^p, so callers add a safety
    margin.  Every draw comes from ``rng``.
    """
    best = 0.0

    def ratio(xs):
        k = xs.shape[0]
        if k == 0:
            return 0.0
        denom = (np.linalg.norm(xs, ord=q, axis=1) ** p).sum()
        if denom == 0:
            return 0.0
        if k <= 12:
            signs = np.array(np.meshgrid(*([[-1.0, 1.0]] * k))).reshape(k, -1).T
        else:
            signs = rng.choice([-1.0, 1.0], size=(SIGNS_MC, k))
        sums = signs @ xs
        return float(np.mean(np.linalg.norm(sums, ord=q, axis=1) ** p)) / denom

    best = max(best, ratio(np.atleast_2d(values)))
    for _ in range(ensembles):
        k = rng.integers(1, 9)
        xs = rng.standard_normal((k, n)) * rng.exponential(size=(k, 1))
        best = max(best, ratio(xs))
    return best


def verify_moment_inequality_type_p(step: StepIntegrand, p: float, q: float = 2.0,
                                    mc: int = 100000, seed: int = 0) -> dict:
    """Check E|int f dpi~|^p <= 2^(2-p) K_p int |f|^p dnu for p in (1, 2].

    pi~ is the compensated Poisson measure; K_p is the empirical type-p
    constant of (R^n, l^q) inflated by TYPE_P_MARGIN (the estimator maximizes a
    ratio, hence is a lower bound).  The Poisson counts come from
    stream(seed, 1) and the constant from stream(seed, 2), so calls at
    consecutive seeds share no draws.
    """
    if not 1 < p <= 2:
        raise ValueError("p must be in (1,2]")
    if q < p:
        raise ValueError("l^q is type p only for q >= p")
    norms = _poisson_integral_norms(step, q, mc, stream(seed, 1), compensated=True)
    lhs = float(np.mean(norms ** p))
    se = float(np.std(norms ** p) / np.sqrt(mc))
    n = step.values.shape[1]
    k_hat = estimate_type_p_constant(p, q, n, step.values, rng=stream(seed, 2))
    rhs = 2.0 ** (2.0 - p) * TYPE_P_MARGIN * k_hat * step.lp_nu(p, q)
    return {
        "inequality": "compensated_type_p",
        "p": p, "q": q, "mc": mc,
        "k_hat": k_hat, "margin": TYPE_P_MARGIN,
        "lhs_estimate": lhs, "lhs_stderr": se, "rhs": rhs,
        "pass": bool(lhs - 4.0 * se <= rhs),
    }
