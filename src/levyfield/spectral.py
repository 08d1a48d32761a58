"""Diagonal Ornstein-Uhlenbeck machinery on sine-mode truncations.

The generator is A = -(-Laplacian)^gamma on the d-cube with Dirichlet
conditions, diagonal in the product-sine basis with eigenvalues
lambda_j = (n_1^2 + ... + n_d^2)^gamma.  Everything here is exact on the
truncation: operator norms of the semigroup between weighted l^q spaces,
the gamma-radonifying summability test, exact-in-law sampling of the
stochastic convolution X(t) = int_0^t e^((t-s)A) dY(s) on a time grid
given a batch of subordinator paths (``sample_trajectory``, the one
sampler of X; a one-point grid draws X(t)), and the analytic
characteristic functional of X.  A field at one time is its coefficient
array, in the operator's mode order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .sine import BLOCK_ROWS, sine_values
from .spaces import SpaceSpec
from .noise import LevyNoiseSpec
from .subordinator import PathBatch, _checked, laplace_exponent, sub_p_membership

__all__ = [
    "SpectralOperator",
    "semigroup_norm",
    "semigroup_norm_power",
    "power_law_envelope",
    "check_radonifying",
    "cell_moments",
    "convolution_variances_batch",
    "sample_trajectory",
    "charfn_oracle",
    "regularity_exponent_bound",
    "synthesize",
]

# cell_moments and charfn_oracle hold at most this many jump (or node) x
# mode terms in memory at once
CHUNK_TERMS = 1 << 16
# charfn_oracle's Gauss-Legendre nodes per panel (twice as many for the
# error estimate), its initial geometric panels, and how many times it may
# halve the panels that miss the tolerance
ORACLE_NODES = 16
ORACLE_PANELS = 24
ORACLE_SPLITS = 8
# check_radonifying reads s * growth within this of 1 as the divergent boundary
RADON_TOL = 1e-3


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    # imported on first use: numpy.polynomial is not loaded with numpy
    from numpy.polynomial.legendre import leggauss

    return leggauss(n)


@dataclass(frozen=True)
class SpectralOperator:
    """Diagonal generator on a multi-index truncation.

    Modes are multi-indices n in {1..N}^d sorted by |n|^2 (ties broken
    lexicographically); ``mu`` holds |n|^2 and ``lambdas`` the eigenvalues
    mu^gamma.  ``from_eigenvalues`` wraps a user-supplied increasing
    sequence instead.
    """

    dim_d: int
    gamma: float
    truncation_N: int
    multi_indices: np.ndarray   # (n_modes, d)
    mu: np.ndarray              # (n_modes,)
    lambdas: np.ndarray         # (n_modes,)

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        if not (np.all(lam > 0) and np.all(np.diff(lam) >= 0)):
            raise ValueError("eigenvalues must be positive and nondecreasing")
        object.__setattr__(self, "lambdas", lam)

    @property
    def n_modes(self) -> int:
        return self.lambdas.size

    @classmethod
    def dirichlet(cls, dim_d: int, gamma: float, truncation_N: int) -> "SpectralOperator":
        if dim_d < 1 or truncation_N < 1 or not gamma > 0:
            raise ValueError("need dim_d >= 1, truncation_N >= 1, gamma > 0")
        axes = [np.arange(1, truncation_N + 1)] * dim_d
        grids = np.meshgrid(*axes, indexing="ij")
        idx = np.stack([g.ravel() for g in grids], axis=1)
        mu = (idx ** 2).sum(axis=1).astype(float)
        order = np.lexsort(tuple(idx[:, k] for k in range(dim_d - 1, -1, -1)) + (mu,))
        idx, mu = idx[order], mu[order]
        return cls(dim_d=dim_d, gamma=gamma, truncation_N=truncation_N,
                   multi_indices=idx, mu=mu, lambdas=mu ** gamma)

    @classmethod
    def from_eigenvalues(cls, lambdas) -> "SpectralOperator":
        lam = np.asarray(lambdas, dtype=float)
        idx = np.arange(1, lam.size + 1)[:, None]
        return cls(dim_d=1, gamma=float("nan"), truncation_N=lam.size,
                   multi_indices=idx, mu=idx[:, 0].astype(float), lambdas=lam)


# -- operator norms ------------------------------------------------------


def semigroup_norm(op: SpectralOperator, U: SpaceSpec, E: SpaceSpec, t: float) -> dict:
    """|e^(tA)|_{L(U,E)} for U = l^r with weights 1/a and E = l^q with weights b.

    On the diagonal truncation the norm is sup_n e^(-lambda_n t) b_n a_n^(r/q);
    the full mode scan is vectorized, so this is exact on the truncation.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if U.dim != op.n_modes or E.dim != op.n_modes:
        raise ValueError("space weights must cover all operator modes")
    a = 1.0 / U.weights
    b = E.weights
    r, q = U.exponent_q, E.exponent_q
    vals = np.exp(-op.lambdas * t) * b * a ** (r / q)
    j = int(np.argmax(vals))
    return {"norm": float(vals[j]), "argmax_mode": j, "argmax_lambda": float(op.lambdas[j])}


def semigroup_norm_power(op: SpectralOperator, alpha: float, beta: float,
                         r: float, q: float, t: float) -> dict:
    """Same norm for the power-law weights a = lambda^alpha, b = lambda^beta.

    The mode value e^(-lambda t) lambda^theta (theta = beta + (r/q) alpha) is
    unimodal in lambda with peak at lambda = theta / t, so only the
    eigenvalues adjacent to the peak need evaluating.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    theta = beta + (r / q) * alpha
    lam = op.lambdas
    if theta <= 0:
        cands = np.array([0])
    else:
        k = np.searchsorted(lam, theta / t)
        cands = np.unique(np.clip(np.arange(k - 1, k + 2), 0, lam.size - 1))
    vals = np.exp(-lam[cands] * t) * lam[cands] ** theta
    j = int(cands[np.argmax(vals)])
    return {"norm": float(vals.max()), "argmax_mode": j,
            "argmax_lambda": float(lam[j]), "theta": theta}


def power_law_envelope(alpha: float, beta: float, r: float, q: float, t) -> np.ndarray:
    """Envelope c* t^(-theta) with c* = e^(-theta) theta^theta dominating the norm."""
    theta = beta + (r / q) * alpha
    t = np.asarray(t, dtype=float)
    if theta == 0:
        return np.ones_like(t)
    c_star = math.exp(-theta) * theta ** theta
    return c_star * t ** (-theta)


def check_radonifying(op: SpectralOperator, alpha: float, r: float,
                      growth: Optional[float] = None) -> tuple[bool, float]:
    """Summability test sum_j lambda_j^(-r alpha) deciding gamma-radonification.

    For the Dirichlet eigenvalues (lambda_k ~ k^(2 gamma / d)) the verdict
    is the p-series criterion r*alpha*2*gamma/d > 1; the certificate is the
    truncation partial sum plus an integral tail estimate when convergent.
    User-supplied eigenvalue sequences are decided by fitting the power
    growth of lambda_k over the last decade of modes, unless the caller
    passes the exact ``growth`` exponent (lambda_k ~ c k^growth), which
    makes boundary cases decidable.  Raises ValueError for a fit over fewer
    than 2 eigenvalues.
    """
    s = r * alpha
    if growth is None and math.isnan(op.gamma):
        lam = op.lambdas
        if lam.size < 2:
            raise ValueError("fitting the eigenvalue growth needs at least 2 eigenvalues; "
                             "pass growth")
        k0, k1 = lam.size // 10 + 1, lam.size
        growth = (math.log(lam[k1 - 1]) - math.log(lam[k0 - 1])) / (math.log(k1) - math.log(k0))
    elif growth is None:
        growth = 2.0 * op.gamma / op.dim_d
    partial = float((op.lambdas ** (-s)).sum())
    # the boundary |s * growth - 1| <= RADON_TOL is treated as divergent (harmonic-type)
    if s * growth > 1.0 + RADON_TOL:
        # integral tail bound for lambda_k ~ c k^growth beyond the truncation
        n = op.n_modes
        c = op.lambdas[-1] / n ** growth
        tail = c ** (-s) * n ** (1.0 - s * growth) / (s * growth - 1.0)
        return True, partial + tail
    return False, math.inf


# -- sampling and the characteristic functional --------------------------


def cell_moments(lam: np.ndarray, c: float, slope: float, t0: np.ndarray, t1: np.ndarray,
                 jump_times: np.ndarray, weights: np.ndarray, starts: np.ndarray,
                 counts: np.ndarray) -> np.ndarray:
    """OU cell moments int_(t0_s, t1_s] e^(-c lam_j (t1_s - s)) dW(s), shape (cells, modes).

    W has the slope ``slope`` and the jumps ``jump_times`` with weights
    (jumps, 1) (one size per jump) or (jumps, modes) (one mark per jump and
    mode); the jumps of cell s are ``starts[s]:starts[s] + counts[s]``.  So

        moment = slope (1 - e^(-c lam (t1_s - t0_s))) / (c lam)
                 + sum_(k in cell s) e^(-c lam (t1_s - tau_k)) w_k.

    The slope term is computed once per distinct cell length and gathered.
    Cells are summed in groups of equal jump count k, each group in slices
    of at most max(1, CHUNK_TERMS // (k * modes)) cells, so every jump x
    mode array built holds at most CHUNK_TERMS terms (or one cell's
    k * modes), whatever the number of cells.  Each slice is one (modes,
    cells, jumps) array reduced over its last axis: every cell's sum then
    rounds exactly as it does for a slice of one cell.
    """
    # the slope term depends on the cell length alone: one row per distinct
    # length, which each cell finds by searchsorted; np.unique's own inverse
    # runs an argsort, which raised the peak RSS of ou-sample by about 0.7 MB
    lengths = t1 - t0
    table = np.unique(lengths)
    out = (slope * (1.0 - np.exp(-c * lam * table[:, None])) / (c * lam))[
        np.searchsorted(table, lengths)]
    weights = weights.T
    for k in np.unique(counts[counts > 0]):
        group = np.flatnonzero(counts == k)
        step = max(1, CHUNK_TERMS // (k * lam.size))
        for lo in range(0, group.size, step):
            cells = group[lo:lo + step]
            jumps = starts[cells][:, None] + np.arange(k)
            # updated in place, so a slice holds one (modes, cells, jumps) array
            terms = lam[:, None, None] * (t1[cells][:, None] - jump_times[jumps])
            terms *= -c
            np.exp(terms, out=terms)
            terms *= weights[:, jumps]
            out[cells] += terms.sum(axis=-1).T
    return out


def convolution_variances_batch(op: SpectralOperator, batch: PathBatch, t: float) -> np.ndarray:
    """V_j = int_0^t e^(-2 lambda_j (t-s)) dZ(s) of every path of a batch, shape
    (n_paths, n_modes): the cell moment with c = 2 over the one cell [0, t].

    Jumps after t are dropped (their terms overflow exp), so a path with
    no jump up to t keeps the slope term alone.
    """
    if not 0 <= t <= batch.horizon_T:
        raise ValueError("t must lie in [0, horizon_T]")
    starts, counts = batch.cells((0.0, t))
    ends = np.full(batch.n_paths, float(t))
    return cell_moments(op.lambdas, 2.0, batch.total_slope, np.zeros(batch.n_paths), ends,
                        batch.times, batch.sizes[:, None], starts[:, 0], counts[:, 0])


def sample_trajectory(op: SpectralOperator, noise: LevyNoiseSpec,
                      batch: PathBatch, times, rng: np.random.Generator) -> np.ndarray:
    """Exact joint draw of X at the given times for every path of a batch,
    conditionally on the path, shape (n_paths, len(times), n_modes).

    Uses the OU recursion X_j(t') = e^(-lambda_j (t'-t)) X_j(t) + eta with
    eta Gaussian of variance w_j^(-2) int_t^(t') e^(-2 lambda_j (t'-s)) dZ(s)
    (closed form over the cell's jumps), so the joint law across the grid is
    exact given Z; on a one-point grid (t,), mode j of X(t) is centered
    Gaussian with variance w_j^(-2) V_j (``convolution_variances_batch``).
    The Gaussian variates are drawn from rng in one call, path after path,
    cell after cell, so drawing a batch in consecutive slices from one
    generator gives the same values.  Raises ValueError for a noise whose
    truncation is not the operator's mode count, and for times that are
    empty, not strictly increasing, or not in [0, horizon_T] (NaN included).
    """
    times = np.asarray(times, dtype=float)
    if noise.wiener.truncation_N != op.n_modes:
        raise ValueError("noise truncation must match the operator mode count")
    if times.ndim != 1 or times.size == 0 or not np.all(np.diff(times) > 0):
        raise ValueError("times must be a non-empty, strictly increasing sequence")
    if not (0 <= times[0] and times[-1] <= batch.horizon_T):
        raise ValueError(f"times must lie in [0, horizon_T = {batch.horizon_T}]")
    lam = op.lambdas
    inv_w = 1.0 / noise.wiener.hilbert_weights
    n_paths = batch.n_paths
    # cell i is (t0[i], t1[i]]; a grid starting at 0 starts with X(0) = 0
    # and draws nothing for it
    edges = times if times[0] == 0 else np.append(0.0, times)
    t0, t1 = edges[:-1], edges[1:]
    starts, counts = batch.cells(edges)
    x = rng.standard_normal((n_paths, t1.size, lam.size))
    prev = 0.0
    for lo in range(0, t1.size, BLOCK_ROWS):
        s = slice(lo, lo + BLOCK_ROWS)
        var = cell_moments(lam, 2.0, batch.total_slope, np.tile(t0[s], n_paths),
                           np.tile(t1[s], n_paths), batch.times, batch.sizes[:, None],
                           starts[:, s].ravel(), counts[:, s].ravel())
        eta = x[:, s]
        eta *= np.sqrt(var).reshape(eta.shape) * inv_w
        decay = np.exp(-lam * (t1[s] - t0[s])[:, None])
        for i in range(eta.shape[1]):
            eta[:, i] += decay[i] * prev
            prev = eta[:, i]
    if t1.size < times.size:
        x = np.concatenate((np.zeros((n_paths, 1, lam.size)), x), axis=1)
    return x


def _panel_integral(fn, edges: np.ndarray, rtol: float) -> float:
    """int fn over [edges[0], edges[-1]]: Gauss-Legendre rules of ORACLE_NODES
    and 2 ORACLE_NODES nodes on each panel between edges, with fn called once
    on all nodes.  The error estimate is the sum of the panels' gaps between
    the rules, floored as QUADPACK's at 50 epsilon times int |fn|.  While it
    misses 100 rtol relative to the integral, the panels with a gap of at
    least the mean are halved, up to ORACLE_SPLITS times; then it raises
    QuadratureError.
    """
    rules = [_gauss_legendre(n) for n in (ORACLE_NODES, 2 * ORACLE_NODES)]
    for _ in range(ORACLE_SPLITS + 1):
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
        values = fn(np.concatenate([(mid[:, None] + half[:, None] * x).ravel() for x, _ in rules]))
        coarse, fine = (half * (v.reshape(half.size, -1) @ w) for (_, w), v in
                        zip(rules, np.split(values, [half.size * ORACLE_NODES])))
        total, gaps = float(fine.sum()), np.abs(fine - coarse)
        floor = 50.0 * np.finfo(float).eps * float(np.abs(fine).sum())
        if gaps.sum() <= max(100 * rtol * max(abs(total), 1e-10), floor):
            break
        wide = gaps >= gaps.mean()
        edges = np.insert(edges, np.flatnonzero(wide) + 1, mid[wide])
    return _checked(total, max(float(gaps.sum()), floor), edges[0], edges[-1], rtol)


def charfn_oracle(op: SpectralOperator, noise: LevyNoiseSpec, phi, t: float,
                  quad_tol: float = 1e-10) -> float:
    """E exp(i <X(t), phi>) = exp(-int_0^t psi(0.5 |e^(sigma A) phi|_H^2) dsigma).

    The integrand is steepest at sigma = 0, on the scale 1 / lambda_N, so the
    panels start as [0, lo] and ORACLE_PANELS geometric panels from
    lo = 1e-3 min(t, 1 / (2 lambda_N)) up to t.  The mode sums take blocks
    of at most max(1, CHUNK_TERMS // modes) nodes.  Raises ValueError for a
    t that is negative, infinite or NaN, and unless phi and the noise have
    one coefficient per operator mode.
    """
    phi = np.asarray(phi, dtype=float)
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be finite and nonnegative, not {t}")
    if phi.shape != (op.n_modes,) or noise.wiener.truncation_N != op.n_modes:
        raise ValueError("phi and the noise truncation must match the operator mode count")
    if t == 0 or not phi.any():
        return 1.0
    wsq_phi = (noise.wiener.hilbert_weights * phi) ** 2
    rows = max(1, CHUNK_TERMS // op.n_modes)

    def integrand(sigma):
        # one contiguous sum per node, so a node's value does not depend on its block
        hs = np.concatenate([(np.exp(-2.0 * np.multiply.outer(sigma[i:i + rows], op.lambdas))
                              * wsq_phi).sum(axis=1) for i in range(0, sigma.size, rows)])
        return laplace_exponent(noise.subordinator, 0.5 * hs)

    lo = 1e-3 * min(t, 1.0 / (2.0 * op.lambdas[-1]))
    edges = np.concatenate([[0.0], np.geomspace(lo, t, ORACLE_PANELS + 1)])
    return math.exp(-_panel_integral(integrand, edges, quad_tol))


def regularity_exponent_bound(op: SpectralOperator, noise: LevyNoiseSpec,
                              target: tuple[str, float],
                              p_certificate: Optional[float] = None) -> dict:
    """Critical Hoelder exponent of X(t) and admissibility of a target.

    With the generator written as a fractional power of order g (so
    eigenvalues grow like |n|^g, i.e. g = 2*gamma for this operator), the
    critical exponents are

        stable index alpha in (0,2):  delta* = g / max(alpha, 1) - d/2
        Sub(p) noise, p in (1,2]:     delta* = g / p - d/2
        Sub(p) noise, p <= 1:         delta* = g - d/2
        Gaussian (drift-only Z):      delta* = g / 2 - d/2

    ``target`` is ("holder", delta) or ("sobolev", s); a Sobolev order is
    admissible when s < delta* + d/2 (l2 Sobolev-to-Hoelder embedding).
    """
    if math.isnan(op.gamma):
        raise ValueError("critical exponents need the fractional-power form of A")
    g = 2.0 * op.gamma
    d = op.dim_d
    sub = noise.subordinator
    if sub.kind == "stable":
        alpha = 2.0 * sub.beta
        delta_star = g / max(alpha, 1.0) - d / 2.0
        regime = f"stable(alpha={alpha})"
    elif sub.kind == "drift_only":
        delta_star = g / 2.0 - d / 2.0
        regime = "gaussian"
    else:
        if p_certificate is None:
            raise ValueError("non-stable noise needs an explicit Sub(p) certificate p")
        p = p_certificate
        ok, _ = sub_p_membership(sub, p)
        if not ok:
            raise ValueError(f"subordinator is not Sub({p})")
        delta_star = (g - d / 2.0) if p <= 1 else (g / p - d / 2.0)
        regime = f"sub_p(p={p})"
    kind, value = target
    if kind == "holder":
        admissible = 0.0 <= value < delta_star
    elif kind == "sobolev":
        admissible = value < delta_star + d / 2.0
    else:
        raise ValueError("target kind must be 'holder' or 'sobolev'")
    return {"critical_exponent": delta_star, "regime": regime,
            "target": {"kind": kind, "value": value}, "admissible": bool(admissible)}


# -- physical synthesis --------------------------------------------------


def synthesize(op: SpectralOperator, coefficients, grid_M: int) -> np.ndarray:
    """Evaluate the field with these coefficients, in the operator's mode
    order, on the uniform grid of (0,1)^d via sine synthesis.

    Basis functions are prod_i sqrt(2) sin(n_i pi x_i); returns values at
    the interior points (i_1/M, ..., i_d/M), shape (M-1,)*d.  Raises
    ValueError unless there is one coefficient per operator mode.
    """
    coefficients = np.asarray(coefficients, dtype=float)
    if coefficients.shape != (op.n_modes,):
        raise ValueError(f"expected {op.n_modes} coefficients, got shape {coefficients.shape}")
    out = np.zeros((op.truncation_N,) * op.dim_d)
    out[tuple((op.multi_indices - 1).T)] = coefficients
    for axis in range(op.dim_d):
        out = sine_values(out, grid_M, axis=axis)
    return out
