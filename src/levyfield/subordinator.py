"""Subordinators: increasing Levy processes given by drift and jump intensity.

A subordinator Z is determined by a drift b >= 0 and an intensity measure
rho on (0, inf) with rho({0}) = 0, rho([1, inf)) < inf and
int_0^1 xi rho(dxi) < inf.  Its Laplace exponent is

    psi(r) = b r + int_0^inf (1 - exp(-r xi)) rho(dxi),

so that E exp(-r Z(t)) = exp(-t psi(r)).  Three kinds of law are
supported, each in closed form and each with a drift: the one-sided
beta-stable subordinator (psi(r) = r^beta, beta in (0,1)), the stable one
``truncated(eps)`` (its jumps at or above eps, with the mean of the smaller
ones added to the drift; Asmussen and Rosinski, J. Appl. Probab. 2001)
and a pure drift.  Stable paths are drawn exactly on a grid; the
truncated law, with finitely many jumps per unit time, is drawn exactly
as a Poisson jump process, with exact jump times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "SubordinatorSpec",
    "PathBatch",
    "QuadratureError",
    "jump_law",
    "laplace_exponent",
    "simulate_paths",
    "sample_stable_oneside",
]

# the cutoff at which jump_law truncates a stable spec
JUMP_CUTOFF = 1e-3
# simulate_paths refuses to draw more jumps than this in expectation; each
# jump costs three 8-byte values, so the cap bounds a batch at about 240 MB
MAX_EXPECTED_JUMPS = 10_000_000


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature cannot reach the requested tolerance."""

    def __init__(self, message, achieved_tol):
        super().__init__(message)
        self.achieved_tol = achieved_tol


class _StableIntensity:
    """The density c xi^(-1-beta), c = beta / Gamma(1-beta), of the one-sided
    beta-stable subordinator on [lower, inf), with its mass and sampler in
    closed form; lower = 0 is the whole stable measure.  Only
    ``SubordinatorSpec.jump_measure`` makes it."""

    def __init__(self, beta: float, lower: float):
        self.beta = beta
        self.lower = lower
        self._c = beta / math.gamma(1.0 - beta)

    @property
    def mass(self) -> float:
        """rho([lower, inf)): inf for the whole stable measure."""
        return self._c / self.beta * self.lower ** (-self.beta) if self.lower > 0 else math.inf

    def sample_sizes(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # Pareto tail: rho([x,inf)) proportional to x^-beta above lower > 0.
        return self.lower * rng.uniform(size=n) ** (-1.0 / self.beta)


# -- spec ----------------------------------------------------------------


@dataclass(frozen=True)
class SubordinatorSpec:
    """The law of a subordinator: a finite drift ``drift_b`` >= 0 and
    ``beta`` in (0,1), psi(r) = b r + r^beta, or no beta for a pure drift.
    A stable spec with a ``cutoff`` eps keeps only the stable jumps at or
    above eps; ``truncated`` makes it.  Every reader takes the jump measure
    from ``jump_measure``.  Raises ValueError for any other drift or beta
    and for a cutoff outside (0, 1] or without beta."""

    drift_b: float = 0.0
    beta: Optional[float] = None
    cutoff: Optional[float] = None

    def __post_init__(self):
        if not 0 <= self.drift_b < math.inf:
            raise ValueError(f"drift must be finite and nonnegative, got {self.drift_b}")
        if self.beta is not None and not 0 < self.beta < 1:
            raise ValueError("beta must be in (0,1)")
        if self.cutoff is not None and (self.beta is None or not 0 < self.cutoff <= 1):
            raise ValueError(f"a cutoff truncates a stable spec and lies in (0,1], "
                             f"got {self.cutoff}")

    @property
    def jump_measure(self) -> _StableIntensity | None:
        """rho: the stable measure on [cutoff, inf) for a stable spec (all of
        it without a cutoff), else None."""
        if self.beta is None:
            return None
        return _StableIntensity(self.beta, self.cutoff or 0.0)

    @property
    def kind(self) -> str:
        """The family read off the fields: "stable" (beta is set),
        "truncated_stable" (beta and a cutoff) or "drift_only" (no beta)."""
        if self.beta is not None:
            return "stable" if self.cutoff is None else "truncated_stable"
        return "drift_only"

    def truncated(self, eps: float) -> "SubordinatorSpec":
        """The jumps of this stable law at or above eps, with the mean of the
        smaller ones, int_0^eps xi rho(dxi), added to the drift: a law with
        finitely many jumps per unit time, whose Laplace exponent exceeds
        the stable one by at most r^2 c eps^(2-beta) / (2 (2-beta)).  Raises
        ValueError for eps outside (0, 1] and for a spec that is not an
        untruncated stable spec."""
        if self.kind != "stable":
            raise ValueError(f"only a stable spec can be truncated, not a {self.kind} spec")
        if not 0 < eps <= 1:
            raise ValueError(f"the cutoff must be in (0,1], got {eps}")
        beta = self.beta
        c = beta / math.gamma(1.0 - beta)
        small_mean = c / (1.0 - beta) * eps ** (1.0 - beta)
        return SubordinatorSpec(drift_b=self.drift_b + small_mean, beta=beta, cutoff=eps)

    # constructors

    @classmethod
    def stable(cls, beta: float) -> "SubordinatorSpec":
        return cls(beta=beta)

    @classmethod
    def drift_only(cls, b: float) -> "SubordinatorSpec":
        return cls(drift_b=b)


def jump_law(spec: SubordinatorSpec) -> SubordinatorSpec:
    """The law drawn where exact jump times are needed: a stable spec
    truncated at JUMP_CUTOFF, and any other spec as it is."""
    return spec.truncated(JUMP_CUTOFF) if spec.kind == "stable" else spec


# -- paths ---------------------------------------------------------------


@dataclass(frozen=True)
class PathBatch:
    """Independent realizations of Z on [0, T] in CSR layout.

    Path p has the jumps ``times[offsets[p]:offsets[p+1]]`` (nondecreasing,
    in [0, horizon_T]) with sizes ``sizes[offsets[p]:offsets[p+1]]``
    (finite, nonnegative); all paths share the slope ``drift_slope``, the
    drift of the law drawn.  A single path is a batch of one.  Raises
    ValueError for a layout that breaks any of these.
    """

    horizon_T: float
    drift_slope: float
    offsets: np.ndarray
    times: np.ndarray
    sizes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "offsets", np.asarray(self.offsets, dtype=int))
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "sizes", np.asarray(self.sizes, dtype=float))
        offsets, times, sizes = self.offsets, self.times, self.sizes
        if (offsets.ndim != 1 or offsets.size == 0 or offsets[0] != 0
                or offsets[-1] != times.size or np.any(np.diff(offsets) < 0)):
            raise ValueError("offsets must start at 0, end at the jump count and never fall")
        if times.ndim != 1 or sizes.shape != times.shape:
            raise ValueError("times and sizes must be 1-d and of one length")
        # min and max are NaN if any value is, and then fail both tests
        if times.size and not (0.0 <= times.min() and times.max() <= self.horizon_T):
            raise ValueError("jump times must lie in [0, horizon_T]")
        rises = np.diff(times) >= 0.0
        # a path may start below where the one before it ends
        firsts = offsets[1:-1]
        rises[firsts[(firsts > 0) & (firsts < times.size)] - 1] = True
        if not rises.all():
            raise ValueError("jump times must be nondecreasing within each path")
        if sizes.size and not (0.0 <= sizes.min() and sizes.max() < np.inf):
            raise ValueError("jump sizes must be finite and nonnegative")

    @property
    def n_paths(self) -> int:
        return self.offsets.size - 1

    @property
    def counts(self) -> np.ndarray:
        """Number of jumps of each path."""
        return np.diff(self.offsets)

    @property
    def rows(self) -> np.ndarray:
        """Path index of each jump."""
        return np.repeat(np.arange(self.n_paths), self.counts)

    def __getitem__(self, paths: slice) -> "PathBatch":
        """The paths ``lo:hi`` as a batch of their own."""
        lo, hi, step = paths.indices(self.n_paths)
        if step != 1:
            raise ValueError("a batch slice must be contiguous")
        hi = max(lo, hi)
        a, b = self.offsets[lo], self.offsets[hi]
        return PathBatch(horizon_T=self.horizon_T, drift_slope=self.drift_slope,
                         offsets=self.offsets[lo:hi + 1] - a, times=self.times[a:b],
                         sizes=self.sizes[a:b])

    def _bins(self, edges: np.ndarray, weights=None) -> np.ndarray:
        """Jump count (or sum of ``weights``) of every path in each of the
        len(edges) + 1 bins: up to edges[0], each cell (edges[i], edges[i+1]]
        and after edges[-1]; shape (n_paths, len(edges) + 1).  Raises
        ValueError unless the edges are 1-d, finite and nondecreasing."""
        if edges.ndim != 1 or not (np.isfinite(edges).all() and np.all(np.diff(edges) >= 0)):
            raise ValueError("edges must be a 1-d, finite, nondecreasing sequence")
        n_bins = edges.size + 1
        flat = np.searchsorted(edges, self.times, side="left") + n_bins * self.rows
        return np.bincount(flat, weights, minlength=self.n_paths * n_bins).reshape(-1, n_bins)

    def increments(self, edges) -> np.ndarray:
        """Z(edges[i+1]) - Z(edges[i]) of every path for nondecreasing edges,
        shape (n_paths, len(edges) - 1).

        Each cell is the slope times its length plus one sum of the jumps in
        (edges[i], edges[i+1]]: a jump on an edge belongs to the cell that
        edge closes, and jumps outside the edges are not counted.  Raises
        ValueError for edges that are not 1-d, finite and nondecreasing.
        """
        edges = np.asarray(edges, dtype=float)
        jumps = self._bins(edges, self.sizes)[:, 1:-1]
        return self.drift_slope * np.diff(edges) + jumps

    def cells(self, edges) -> tuple[np.ndarray, np.ndarray]:
        """(starts, counts), each of shape (n_paths, len(edges) - 1), for
        nondecreasing edges: the jumps of path p in the cell
        (edges[i], edges[i+1]] are ``times[starts[p, i]:starts[p, i] + counts[p, i]]``.

        The cells are those of ``increments``: a jump on an edge belongs to
        the cell that edge closes, and jumps outside the edges are in none.
        Raises ValueError as ``increments`` does.
        """
        bins = self._bins(np.asarray(edges, dtype=float))
        # times are sorted within a path, so the bins, path after path, are
        # consecutive runs of jumps, each ending at the running total
        ends = np.cumsum(bins).reshape(bins.shape)
        return ends[:, :-2], bins[:, 1:-1]


# -- operations ----------------------------------------------------------


def laplace_exponent(spec: SubordinatorSpec, r) -> np.ndarray:
    """psi(r) = b r + int (1 - exp(-r xi)) rho(dxi), in closed form."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("r must be nonnegative")
    psi = spec.drift_b * r
    if spec.kind == "stable":
        psi = psi + r ** spec.beta
    elif spec.kind == "truncated_stable":
        # int_eps^inf (1 - exp(-r xi)) c xi^(-1-beta) dxi, by parts; loaded
        # here, so that the other laws never load scipy.special
        from scipy.special import gammaincc
        beta, eps = spec.beta, spec.cutoff
        psi = psi + (-np.expm1(-r * eps) * eps ** -beta / math.gamma(1.0 - beta)
                     + r ** beta * gammaincc(1.0 - beta, r * eps))
    # a 0-d r gives a numpy scalar, an array r an array
    return psi[()]


def sample_stable_oneside(beta: float, size, rng: np.random.Generator) -> np.ndarray:
    """Exact one-sided beta-stable variates S with E exp(-r S) = exp(-r^beta).

    Kanter's representation from one uniform and one exponential variate:
    S = (A(U)/E)^((1-beta)/beta) with
    A(u) = [sin(beta u)^beta sin((1-beta) u)^(1-beta) / sin(u)]^(1/(1-beta)).
    Raises ValueError for beta outside (0, 1), NaN included, before it
    draws, and OverflowError when a draw exceeds the double range, which only
    small beta make likely (about exp(-709.8 beta) / Gamma(1-beta) per draw).
    """
    if not 0 < beta < 1:
        raise ValueError(f"beta must be in (0,1), got {beta}")
    u = rng.uniform(0.0, np.pi, size=size)
    e = rng.exponential(size=size)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_a = (beta * np.log(np.sin(beta * u))
                 + (1.0 - beta) * np.log(np.sin((1.0 - beta) * u))
                 - np.log(np.sin(u))) / (1.0 - beta)
    # uniform(0, pi) can return u = 0, where the formula reads 0/0; A is
    # continuous there, with A(0+) = beta^(beta/(1-beta)) (1-beta)
    log_a = np.where(u > 0.0, log_a,
                     (beta * math.log(beta) + (1.0 - beta) * math.log(1.0 - beta)) / (1.0 - beta))
    with np.errstate(over="ignore"):
        s = np.exp((1.0 - beta) / beta * (log_a - np.log(e)))
    if np.isinf(s).any():
        raise OverflowError(f"a one-sided stable draw at beta={beta:g} exceeds the double range")
    return s


def _check_expected_jumps(expected: float) -> None:
    if not expected <= MAX_EXPECTED_JUMPS:
        raise ValueError(f"the batch would draw {expected:.3g} jumps in expectation, more "
                         f"than the limit {MAX_EXPECTED_JUMPS:.3g}")


def _sort_within_paths(times: np.ndarray, offsets: np.ndarray) -> None:
    """Sort each path's run ``times[offsets[p]:offsets[p+1]]`` in place.

    The paths with k jumps are sorted together, as the rows of one
    (paths, k) array, for each count k above 1.
    """
    counts = np.diff(offsets)
    # the distinct counts, by bincount: np.unique would load numpy.ma
    present = np.flatnonzero(np.bincount(counts))
    for k in present[present > 1]:
        jumps = offsets[:-1][counts == k][:, None] + np.arange(k)
        times[jumps] = np.sort(times[jumps], axis=1)


def simulate_paths(
    spec: SubordinatorSpec,
    T: float,
    n_paths: int,
    rng: np.random.Generator,
    grid_n: int = 256,
) -> PathBatch:
    """Simulate ``n_paths`` independent paths of Z on [0, T] in one draw from rng.

    The route is read off the spec, and each is exact in law.  A stable
    spec is drawn on a uniform grid of ``grid_n`` cells, each increment
    from the one-sided stable law.  A stable spec ``truncated`` at a
    cutoff, with finitely many jumps per unit time, is drawn as a
    marked Poisson process with exact jump times, as the convolution
    formulas need: every path's jump count, then every jump time, then
    every jump size.  Raises ValueError when the batch would hold more than
    MAX_EXPECTED_JUMPS jumps in expectation.
    """
    if not 0 < T < np.inf:
        raise ValueError(f"T must be finite and positive, got {T}")
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    if grid_n < 1:
        raise ValueError("grid_n must be positive")

    if spec.kind == "drift_only":
        return PathBatch(horizon_T=T, drift_slope=spec.drift_b,
                         offsets=np.zeros(n_paths + 1, dtype=int),
                         times=np.empty(0), sizes=np.empty(0))

    if spec.kind == "stable":
        _check_expected_jumps(n_paths * grid_n)
        dt = T / grid_n
        incr = dt ** (1.0 / spec.beta) * sample_stable_oneside(spec.beta, (n_paths, grid_n), rng)
        # the grid's own times, so the last is T itself and not grid_n * dt
        times = np.tile(np.linspace(0.0, T, grid_n + 1)[1:], n_paths)
        return PathBatch(horizon_T=T, drift_slope=spec.drift_b,
                         offsets=grid_n * np.arange(n_paths + 1), times=times,
                         sizes=incr.ravel())

    # marked Poisson process of all the jumps of a finite jump measure
    rho = spec.jump_measure
    rate = rho.mass
    _check_expected_jumps(n_paths * rate * T)
    counts = rng.poisson(rate * T, size=n_paths)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    n = int(offsets[-1])
    times = rng.uniform(0.0, T, size=n)
    _sort_within_paths(times, offsets)
    sizes = rho.sample_sizes(n, rng)
    return PathBatch(horizon_T=T, drift_slope=spec.drift_b, offsets=offsets,
                     times=times, sizes=sizes)
