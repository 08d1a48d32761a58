"""Jump-measure view of the subordinated noise and moment inequalities.

The noise Y jumps exactly where its subordinator Z jumps; the mark of a
jump of size dZ is a Gaussian vector with mode-j variance w_j^{-2} dZ.
This module materializes the jump list, splits it at a U-norm threshold
into small and large parts, integrates time-dependent diagonal kernels
against either part, and verifies the p-th moment inequalities for
Poisson stochastic integrals of step functions by Monte Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._rng import stream
from .spaces import SpaceSpec
from .noise import LevyNoiseSpec
from .subordinator import SubordinatorPath

__all__ = [
    "MarkedJumpList",
    "StepIntegrand",
    "marked_path_from_z",
    "split",
    "integrate_large",
    "verify_moment_inequality_p_le_1",
    "verify_moment_inequality_type_p",
    "estimate_type_p_constant",
]


@dataclass(frozen=True)
class MarkedJumpList:
    """Ordered jumps (time, mark vector, U-size) of a truncated noise path."""

    horizon_T: float
    times: np.ndarray          # (n,)
    marks: np.ndarray          # (n, N)
    sizes: np.ndarray          # (n,)  U-norms of the marks
    threshold: float = 1.0

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        m = np.atleast_2d(np.asarray(self.marks, dtype=float))
        s = np.asarray(self.sizes, dtype=float)
        if t.size == 0:
            m = m.reshape(0, m.shape[-1] if m.size else 1)
        if m.shape[0] != t.size or s.size != t.size:
            raise ValueError("times, marks, sizes must agree in length")
        if t.size and np.any(np.diff(t) <= 0):
            raise ValueError("jump times must be strictly increasing")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "marks", m)
        object.__setattr__(self, "sizes", s)

    @property
    def n_jumps(self) -> int:
        return self.times.size

    def sum_until(self, t: float) -> np.ndarray:
        """Sum of marks with jump time <= t (the pure-jump part of the path)."""
        k = np.searchsorted(self.times, t, side="right")
        if k == 0:
            return np.zeros(self.marks.shape[1])
        return self.marks[:k].sum(axis=0)


def marked_path_from_z(
    spec: LevyNoiseSpec,
    zpath: SubordinatorPath,
    seed: int = 0,
    u_space: Optional[SpaceSpec] = None,
    threshold: float = 1.0,
) -> MarkedJumpList:
    """Attach Gaussian marks to the jumps of a subordinator path.

    The jump of Y at a jump time of Z with size dZ has mode-j coefficient
    N(0, w_j^{-2} dZ); the recorded size is the U-norm of that mark
    (unweighted l2 when ``u_space`` is None).
    """
    rng = stream(seed)
    inv_w = 1.0 / spec.wiener.hilbert_weights
    n = zpath.times.size
    marks = np.sqrt(zpath.sizes)[:, None] * inv_w * rng.standard_normal((n, inv_w.size))
    if u_space is None:
        sizes = np.sqrt((marks ** 2).sum(axis=1))
    else:
        sizes = u_space.norm(marks) if n else np.empty(0)
    return MarkedJumpList(horizon_T=zpath.horizon_T, times=zpath.times,
                          marks=marks, sizes=np.asarray(sizes), threshold=threshold)


def split(path: MarkedJumpList) -> tuple[MarkedJumpList, MarkedJumpList]:
    """Small/large decomposition at the U-norm threshold (large: size >= threshold)."""
    big = path.sizes >= path.threshold
    def pick(mask):
        return MarkedJumpList(horizon_T=path.horizon_T, times=path.times[mask],
                              marks=path.marks[mask], sizes=path.sizes[mask],
                              threshold=path.threshold)
    return pick(~big), pick(big)


def integrate_large(psi: Callable[[float], np.ndarray], y2: MarkedJumpList,
                    t: Optional[float] = None) -> np.ndarray:
    """Sum over jump times tau_k <= t of diag(psi(tau_k)) applied to the mark.

    This is also the compensated integral over the small part of a split:
    the Gaussian mark law is symmetric, so its compensator vanishes.
    """
    if t is None:
        t = y2.horizon_T
    k = np.searchsorted(y2.times, t, side="right")
    out = np.zeros(y2.marks.shape[1])
    for i in range(k):
        out += np.asarray(psi(y2.times[i]), dtype=float) * y2.marks[i]
    return out


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
                             ensembles: int = 200, signs_mc: int = 4096,
                             rng: Optional[np.random.Generator] = None) -> float:
    """Empirical type-p constant of (R^n, l^q).

    Maximizes  E_eps |sum_i eps_i x_i|_q^p / sum_i |x_i|_q^p  over random
    vector ensembles (including the supplied values); signs enumerated
    exactly for small ensembles, Monte Carlo otherwise.  A lower bound for
    the true constant K_p^p, so callers add a safety margin.  ``rng``
    defaults to stream(1).
    """
    rng = stream(1) if rng is None else rng
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
            signs = rng.choice([-1.0, 1.0], size=(signs_mc, k))
        sums = signs @ xs
        return float(np.mean(np.linalg.norm(sums, ord=q, axis=1) ** p)) / denom

    best = max(best, ratio(np.atleast_2d(values)))
    for _ in range(ensembles):
        k = rng.integers(1, 9)
        xs = rng.standard_normal((k, n)) * rng.exponential(size=(k, 1))
        best = max(best, ratio(xs))
    return best


def verify_moment_inequality_type_p(step: StepIntegrand, p: float, q: float = 2.0,
                                    mc: int = 100000, seed: int = 0,
                                    margin: float = 1.25) -> dict:
    """Check E|int f dpi~|^p <= 2^(2-p) K_p int |f|^p dnu for p in (1, 2].

    pi~ is the compensated Poisson measure; K_p is the empirical type-p
    constant of (R^n, l^q) inflated by ``margin`` (the estimator maximizes a
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
    rhs = 2.0 ** (2.0 - p) * margin * k_hat * step.lp_nu(p, q)
    return {
        "inequality": "compensated_type_p",
        "p": p, "q": q, "mc": mc,
        "k_hat": k_hat, "margin": margin,
        "lhs_estimate": lhs, "lhs_stderr": se, "rhs": rhs,
        "pass": bool(lhs - 4.0 * se <= rhs),
    }
