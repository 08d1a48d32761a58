"""Diagonal Ornstein-Uhlenbeck machinery on sine-mode truncations.

The generator is A = -(-Laplacian)^gamma on the d-cube with Dirichlet
conditions, diagonal in the product-sine basis with eigenvalues
lambda_j = (n_1^2 + ... + n_d^2)^gamma.  Everything here is exact on the
truncation: operator norms of the semigroup between power-weighted l^q
spaces, the gamma-radonifying summability test, exact-in-law sampling of
the stochastic convolution X(t) = int_0^t e^((t-s)A) dY(s) on a time grid
given a batch of subordinator paths (``sample_trajectory``, the one
sampler of X; a one-point grid draws X(t)), and the analytic
characteristic functional of X.  A field at one time is its coefficient
array, in the operator's mode order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .sine import BLOCK_ROWS, sine_values
from .noise import LevyNoiseSpec
from .subordinator import PathBatch, QuadratureError, laplace_exponent

__all__ = [
    "SpectralOperator",
    "semigroup_norm_power",
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
# error estimate), its relative tolerance, its initial geometric panels, and
# how many times it may halve the panels that miss the tolerance
ORACLE_NODES = 16
ORACLE_RTOL = 1e-10
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
    lexicographically); ``lambdas`` holds the eigenvalues |n|^(2 gamma).
    ``from_eigenvalues`` wraps a user-supplied increasing sequence instead.
    """

    dim_d: int
    gamma: float
    truncation_N: int
    multi_indices: np.ndarray   # (n_modes, d)
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
                   multi_indices=idx, lambdas=mu ** gamma)

    @classmethod
    def from_eigenvalues(cls, lambdas) -> "SpectralOperator":
        lam = np.asarray(lambdas, dtype=float)
        idx = np.arange(1, lam.size + 1)[:, None]
        return cls(dim_d=1, gamma=float("nan"), truncation_N=lam.size,
                   multi_indices=idx, lambdas=lam)


# -- operator norms ------------------------------------------------------


def semigroup_norm_power(op: SpectralOperator, alpha: float, beta: float,
                         r: float, q: float, t: float) -> dict:
    """|e^(tA)|_{L(U,E)} for U = l^r with weights lambda^(-alpha) and E = l^q
    with weights lambda^beta, on the diagonal truncation.

    The norm is the largest mode value e^(-lambda t) lambda^theta, theta =
    beta + (r/q) alpha, which is unimodal in lambda with peak at lambda =
    theta / t, so only the eigenvalues adjacent to the peak need evaluating
    (for theta <= 0 it is decreasing, and the peak is the first mode).
    """
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    theta = beta + (r / q) * alpha
    lam = op.lambdas
    k = np.searchsorted(lam, theta / t)
    cands = np.unique(np.clip(np.arange(k - 1, k + 2), 0, lam.size - 1))
    vals = np.exp(-lam[cands] * t) * lam[cands] ** theta
    j = int(cands[np.argmax(vals)])
    return {"norm": float(vals.max()), "argmax_mode": j,
            "argmax_lambda": float(lam[j]), "theta": theta}


def check_radonifying(op: SpectralOperator, alpha: float, r: float,
                      growth: float) -> tuple[bool, float]:
    """Summability test sum_j lambda_j^(-r alpha) deciding gamma-radonification.

    ``growth`` is the exact power growth of the eigenvalues, lambda_k ~ c
    k^growth (2 gamma / d for the Dirichlet ones).  The verdict is the
    p-series criterion r * alpha * growth > 1; the certificate is the
    truncation partial sum plus an integral tail estimate when convergent.
    Raises ValueError for a NaN alpha or r and for a growth that is NaN,
    infinite or not positive.
    """
    if math.isnan(alpha) or math.isnan(r):
        raise ValueError(f"alpha and r must be numbers, got alpha={alpha}, r={r}")
    if not 0 < growth < math.inf:
        raise ValueError(f"growth must be finite and positive, got {growth}")
    s = r * alpha
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

        moment = sum_(k in cell s) e^(-c lam (t1_s - tau_k)) w_k
                 + slope (1 - e^(-c lam (t1_s - t0_s))) / (c lam).

    Each cell's jump terms are added in time order, the first term first,
    and the slope term last: the moment is bitwise a Python loop over the
    cell's jumps, whatever the cells around it.  A cell with at most 7
    jumps therefore also equals np.sum of its (modes, jumps) block, which
    adds fewer than 8 terms in order; a longer one moves by about 1 ulp
    from numpy's pairwise sum.  The slope term is computed once per
    distinct cell length and gathered.

    The cells with jumps, sorted by falling jump count, go in blocks of
    max(1, CHUNK_TERMS // modes) cells, each with one contiguous (modes,
    cells) accumulator.  Rank r adds jump r of every cell of the block with
    more than r jumps, which are the first cells of the block, as one
    column slice.  Once no more cells remain than ranks, each remaining
    cell is finished in one call: its partial sum stacked on its remaining
    terms, summed over the jump axis.  So every jump x mode array built
    holds at most CHUNK_TERMS terms (or one cell's), whatever the number of
    cells, and the values do not depend on that bound.
    """
    # for c = 1 or 2, a power of two, (-c lam) dt rounds as -c (lam dt)
    rate = -c * lam
    # the slope term depends on the cell length alone: one row per distinct
    # length, which each cell finds by searchsorted.  np.unique loads numpy.ma,
    # and its inverse runs an argsort (+0.7 MB peak RSS in ou-sample)
    lengths = t1 - t0
    table = np.sort(lengths, kind="stable")
    table = table[np.diff(table, prepend=-np.inf) > 0]
    out = (slope * (1.0 - np.exp(rate * table[:, None])) / (c * lam))[
        np.searchsorted(table, lengths)]
    # a stable sort: numpy's default one loads its SIMD sort code, which
    # raised the peak RSS of ou-sample by about 0.3 MB
    cells = np.flatnonzero(counts)
    cells = cells[np.argsort(-counts[cells], kind="stable")]
    width = max(1, CHUNK_TERMS // lam.size)
    for lo in range(0, cells.size, width):
        block = cells[lo:lo + width]
        k, first, end = counts[block], starts[block], t1[block]
        # active[r] cells, the first of the block, have more than r jumps
        active = np.searchsorted(-k, -np.arange(k[0] + 1))
        # rank 0 always runs; the ranks stop once no more cells remain than ranks
        switch = next(r for r in range(1, k[0] + 1) if active[r] <= k[0] - r)
        acc = np.empty((lam.size, block.size))
        buf = np.empty_like(acc)
        for r in range(switch):
            m = active[r]
            jumps = first[:m] + r
            # rank 0 covers every cell of the block and starts its sums
            terms = np.multiply.outer(rate, end[:m] - jump_times[jumps],
                                      out=(buf if r else acc)[:, :m])
            np.exp(terms, out=terms)
            terms *= weights[jumps].T
            if r:
                acc[:, :m] += terms
        for i in range(active[switch]):
            jumps = slice(first[i] + switch, first[i] + k[i])
            rows = np.empty((k[i] - switch + 1, lam.size))
            rows[0] = acc[:, i]
            terms = rows[1:]
            np.multiply.outer(end[i] - jump_times[jumps], rate, out=terms)
            np.exp(terms, out=terms)
            terms *= weights[jumps]
            # ndarray.sum over the first axis adds whole rows in order, but
            # one column is a contiguous run, which numpy sums pairwise
            acc[:, i] = rows.sum(axis=0) if lam.size > 1 else np.cumsum(rows, axis=0)[-1]
        # out[block] += acc.T, through buf, which is free by now: the
        # indexed += would gather a copy of out[block].  The block's cells
        # are in range, so "clip" clips none; np.take's default "raise"
        # would buffer its output in a copy
        part = np.take(out, block, axis=0, out=buf.reshape(block.size, lam.size), mode="clip")
        part += acc.T
        out[block] = part
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
    return cell_moments(op.lambdas, 2.0, batch.drift_slope, np.zeros(batch.n_paths), ends,
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
    # the grid (0,) has no cell, and draws nothing
    x = np.empty((n_paths, 0, lam.size))
    prev = 0.0
    for lo in range(0, t1.size, BLOCK_ROWS):
        s = slice(lo, lo + BLOCK_ROWS)
        var = cell_moments(lam, 2.0, batch.drift_slope, np.tile(t0[s], n_paths),
                           np.tile(t1[s], n_paths), batch.times, batch.sizes[:, None],
                           starts[:, s].ravel(), counts[:, s].ravel())
        if not lo:
            # drawn once the first block's moments are, so that x and the
            # moment sums are not held at once
            x = rng.standard_normal((n_paths, t1.size, lam.size))
        np.sqrt(var, out=var)
        var *= inv_w
        eta = x[:, s]
        eta *= var.reshape(eta.shape)
        decay = np.exp(-lam * (t1[s] - t0[s])[:, None])
        for i in range(eta.shape[1]):
            eta[:, i] += decay[i] * prev
            prev = eta[:, i]
    if t1.size < times.size:
        x = np.concatenate((np.zeros((n_paths, 1, lam.size)), x), axis=1)
    return x


def _checked(val, err, lo, hi, rtol):
    """val, or QuadratureError if the error estimate err of the integral over
    [lo, hi] exceeds 100 rtol relative to max(|val|, 1e-10)."""
    scale = max(abs(val), 1e-10)
    if err / scale > 100 * rtol:
        raise QuadratureError(
            f"quadrature on [{lo}, {hi}] reached relative error {err / scale:.2e} "
            f"(requested {rtol:.2e})",
            achieved_tol=err / scale,
        )
    return val


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


def charfn_oracle(op: SpectralOperator, noise: LevyNoiseSpec, phi, t: float) -> float:
    """E exp(i <X(t), phi>) = exp(-int_0^t psi(0.5 |e^(sigma A) phi|_H^2) dsigma).

    The integrand is steepest at sigma = 0, on the scale 1 / lambda_N, so the
    panels start as [0, lo] and ORACLE_PANELS geometric panels from
    lo = 1e-3 min(t, 1 / (2 lambda_N)) up to t, and the quadrature is held
    to the relative tolerance ORACLE_RTOL.  The mode sums take blocks
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
    return math.exp(-_panel_integral(integrand, edges, ORACLE_RTOL))


def regularity_exponent_bound(op: SpectralOperator, noise: LevyNoiseSpec) -> dict:
    """Critical Hoelder exponent delta* of X(t), with the regime it is read in.

    With the generator written as a fractional power of order g (so
    eigenvalues grow like |n|^g, i.e. g = 2*gamma for this operator), the
    critical exponents are

        stable index alpha in (0,2):  delta* = g / max(alpha, 1) - d/2
        Sub(p) noise, p <= 1:         delta* = g - d/2
        Gaussian (Z with a drift):    delta* = g / 2 - d/2

    Every law is read off the spec.  A drift of Z gives W(Z) a Brownian
    part, and every jump delta* is at least the Gaussian one, so any Z with
    a drift b > 0 (a truncated stable law among them) reads the Gaussian
    delta*.  An undrifted truncated stable law has finitely many jumps per
    unit time, so it is Sub(p) for every p and reads g - d/2.  Raises
    ValueError for an operator without the fractional-power form.
    """
    if math.isnan(op.gamma):
        raise ValueError("critical exponents need the fractional-power form of A")
    g = 2.0 * op.gamma
    d = op.dim_d
    sub = noise.subordinator
    if sub.kind == "drift_only" or sub.drift_b > 0:
        delta_star = g / 2.0 - d / 2.0
        regime = "gaussian"
    elif sub.kind == "stable":
        alpha = 2.0 * sub.beta
        delta_star = g / max(alpha, 1.0) - d / 2.0
        regime = f"stable(alpha={alpha})"
    else:
        delta_star = g - d / 2.0
        regime = "finite_jumps"
    return {"critical_exponent": delta_star, "regime": regime}


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
