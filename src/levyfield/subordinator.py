"""Subordinators: increasing Levy processes given by drift and jump intensity.

A subordinator Z is determined by a drift b >= 0 and an intensity measure
rho on (0, inf) with rho({0}) = 0, rho([1, inf)) < inf and
int_0^1 xi rho(dxi) < inf.  Its Laplace exponent is

    psi(r) = b r + int_0^inf (1 - exp(-r xi)) rho(dxi),

so that E exp(-r Z(t)) = exp(-t psi(r)).  The one-sided beta-stable
subordinator (psi(r) = r^beta, beta in (0,1)) is supported exactly; general
intensities are simulated as marked Poisson jump processes above a cutoff
with mean-drift compensation of the removed small jumps.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "IntensityMeasure",
    "SubordinatorSpec",
    "SubordinatorPath",
    "PathBatch",
    "QuadratureError",
    "stable_intensity",
    "laplace_exponent",
    "sub_p_membership",
    "simulate_paths",
    "finite_variation_diagnostic",
    "sample_stable_oneside",
]

DEFAULT_CUTOFF = 1e-4
QUAD_RTOL = 1e-8
# simulate_paths refuses to draw more jumps than this in expectation; each
# jump costs three 8-byte values, so the cap bounds a batch at about 240 MB
MAX_EXPECTED_JUMPS = 10_000_000


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature cannot reach the requested tolerance."""

    def __init__(self, message, achieved_tol=None):
        super().__init__(message)
        self.achieved_tol = achieved_tol


def _quad(fn, lo, hi, rtol=QUAD_RTOL, **kw):
    from scipy import integrate  # loaded on first use: it dominates import time

    with warnings.catch_warnings():
        # The explicit error-estimate check below supersedes quad's warning.
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(fn, lo, hi, epsrel=rtol, epsabs=1e-13, limit=200, **kw)
    scale = max(abs(val), 1e-10)
    if err / scale > 100 * rtol:
        raise QuadratureError(
            f"quadrature on [{lo}, {hi}] reached relative error {err / scale:.2e} "
            f"(requested {rtol:.2e})",
            achieved_tol=err / scale,
        )
    return val


class IntensityMeasure:
    """The jump measure rho of a subordinator.

    Either a density on (0, inf) or a finite list of atoms.  Closed-form
    moment callbacks may be supplied; otherwise moments fall back to
    adaptive quadrature.
    """

    def __init__(
        self,
        density: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        atoms: Optional[tuple[np.ndarray, np.ndarray]] = None,
        tail_mass_fn: Optional[Callable[[float], float]] = None,
        truncated_moment_fn: Optional[Callable[[float, float, float], float]] = None,
        sample_sizes_fn: Optional[Callable] = None,
        support_cap: float = np.inf,
    ):
        if (density is None) == (atoms is None):
            raise ValueError("exactly one of density/atoms must be given")
        self.density = density
        self.support_cap = support_cap
        if atoms is not None:
            sizes = np.asarray(atoms[0], dtype=float)
            rates = np.asarray(atoms[1], dtype=float)
            if np.any(sizes <= 0) or np.any(rates < 0):
                raise ValueError("atom sizes must be positive and rates nonnegative")
            order = np.argsort(sizes)
            self.atoms = (sizes[order], rates[order])
        else:
            self.atoms = None
        self._tail_mass_fn = tail_mass_fn
        self._truncated_moment_fn = truncated_moment_fn
        self._sample_sizes_fn = sample_sizes_fn
        self._cdf_cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    # -- moments ---------------------------------------------------------

    def tail_mass(self, eps: float) -> float:
        """rho([eps, inf))."""
        if self._tail_mass_fn is not None:
            return self._tail_mass_fn(eps)
        if self.atoms is not None:
            sizes, rates = self.atoms
            return float(rates[sizes >= eps].sum())
        hi = self.support_cap
        return _quad(self.density, eps, hi)

    def truncated_moment(self, power: float, lo: float, hi: float) -> float:
        """int_lo^hi xi^power rho(dxi); may return inf for divergent densities."""
        if self._truncated_moment_fn is not None:
            return self._truncated_moment_fn(power, lo, hi)
        if self.atoms is not None:
            sizes, rates = self.atoms
            mask = (sizes >= lo) & (sizes < hi)
            return float((sizes[mask] ** power * rates[mask]).sum())
        hi = min(hi, self.support_cap)
        if hi <= lo:
            return 0.0
        return _quad(lambda x: x ** power * self.density(x), lo, hi)

    def validate(self) -> None:
        """Check integrability of the intensity: finite tail mass and small-jump mean."""
        tail = self.tail_mass(1.0)
        small_mean = self.truncated_moment(1.0, 0.0, 1.0)
        if not (np.isfinite(tail) and np.isfinite(small_mean)):
            raise ValueError(
                f"invalid intensity measure: rho([1,inf))={tail}, "
                f"int_0^1 xi rho(dxi)={small_mean}"
            )

    # -- sampling --------------------------------------------------------

    def sample_sizes(self, eps: float, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n jump sizes from rho restricted to [eps, inf) and normalized."""
        if n == 0:
            return np.empty(0)
        if self._sample_sizes_fn is not None:
            return self._sample_sizes_fn(eps, n, rng)
        if self.atoms is not None:
            sizes, rates = self.atoms
            mask = sizes >= eps
            sizes, rates = sizes[mask], rates[mask]
            total = rates.sum()
            if total <= 0:
                raise ValueError(f"no intensity mass above cutoff {eps}")
            idx = rng.choice(sizes.size, size=n, p=rates / total)
            return sizes[idx]
        return self._sample_sizes_density(eps, n, rng)

    def _sample_sizes_density(self, eps, n, rng):
        # Inverse-CDF on a log-spaced grid; cap chosen so the ignored far tail
        # carries < 1e-12 of the truncated mass.  The table is cached per eps
        # so repeated path draws don't redo the quadrature.
        if eps not in self._cdf_cache:
            cap = max(10.0 * eps, 1.0)
            if not np.isfinite(self.support_cap):
                # extend decade by decade; each increment is integrated on its
                # own (well-scaled) interval rather than as a difference of two
                # wide integrals, which loses the tail to cancellation
                mass = _quad(self.density, eps, cap)
                while cap <= 1e14:
                    inc = _quad(self.density, cap, 10.0 * cap)
                    if inc <= 1e-12 * (mass + inc):
                        break
                    mass += inc
                    cap *= 10.0
            else:
                cap = self.support_cap
            grid = np.geomspace(eps, cap, 4096)
            dens = self.density(grid)
            cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
            cdf /= cdf[-1]
            self._cdf_cache[eps] = (cdf, grid)
        cdf, grid = self._cdf_cache[eps]
        u = rng.uniform(size=n)
        return np.interp(u, cdf, grid)


# -- concrete intensity families ----------------------------------------


def stable_intensity(beta: float) -> IntensityMeasure:
    """Intensity of the one-sided beta-stable subordinator, psi(r) = r^beta.

    The density is (beta / Gamma(1-beta)) xi^(-1-beta); all moments used by
    the samplers have closed forms.
    """
    if not 0 < beta < 1:
        raise ValueError("beta must be in (0,1)")
    # scipy's gamma, not math.gamma: the two differ in the last bit for most beta
    from scipy.special import gamma

    c = beta / gamma(1.0 - beta)

    def density(x):
        return c * np.asarray(x, dtype=float) ** (-1.0 - beta)

    def tail_mass(eps):
        return c / beta * eps ** (-beta)

    def truncated_moment(power, lo, hi):
        expo = power - beta
        if lo <= 0.0:
            if expo <= 0:
                return math.inf
            lo_term = 0.0
        else:
            lo_term = lo ** expo
        if math.isinf(hi):
            if expo >= 0:
                return math.inf
            return c / (-expo) * lo_term
        if expo == 0:
            return c * math.log(hi / max(lo, 1e-300))
        return c / expo * (hi ** expo - lo_term)

    def sample_sizes(eps, n, rng):
        # Pareto tail: rho([x,inf)) proportional to x^-beta above eps.
        return eps * rng.uniform(size=n) ** (-1.0 / beta)

    return IntensityMeasure(
        density=density,
        tail_mass_fn=tail_mass,
        truncated_moment_fn=truncated_moment,
        sample_sizes_fn=sample_sizes,
    )


# -- spec ----------------------------------------------------------------


@dataclass(frozen=True)
class SubordinatorSpec:
    """Drift + intensity parametrization of a subordinator.

    ``kind`` is one of "stable", "drift_only", "tabulated", "compound_poisson".
    For the stable kind ``beta`` is set and closed forms are used throughout.
    """

    kind: str
    drift_b: float = 0.0
    beta: Optional[float] = None
    intensity: Optional[IntensityMeasure] = None

    def __post_init__(self):
        if self.drift_b < 0:
            raise ValueError("drift must be nonnegative")
        if self.kind == "stable":
            if self.beta is None or not 0 < self.beta < 1:
                raise ValueError("stable kind requires beta in (0,1)")
            if self.intensity is None:
                object.__setattr__(self, "intensity", stable_intensity(self.beta))
        elif self.kind == "drift_only":
            if self.intensity is not None:
                raise ValueError("drift_only kind has no intensity")
        elif self.kind in ("tabulated", "compound_poisson"):
            if self.intensity is None:
                raise ValueError(f"{self.kind} kind requires an intensity measure")
            self.intensity.validate()
        else:
            raise ValueError(f"unknown kind {self.kind!r}")

    # constructors

    @classmethod
    def stable(cls, beta: float) -> "SubordinatorSpec":
        return cls(kind="stable", beta=beta)

    @classmethod
    def drift_only(cls, b: float) -> "SubordinatorSpec":
        return cls(kind="drift_only", drift_b=b)

    @classmethod
    def compound_poisson(cls, sizes, rates, drift_b: float = 0.0) -> "SubordinatorSpec":
        return cls(kind="compound_poisson", drift_b=drift_b,
                   intensity=IntensityMeasure(atoms=(np.asarray(sizes), np.asarray(rates))))

    @classmethod
    def tabulated(cls, density, drift_b: float = 0.0, support_cap: float = np.inf) -> "SubordinatorSpec":
        return cls(kind="tabulated", drift_b=drift_b,
                   intensity=IntensityMeasure(density=density, support_cap=support_cap))

    # config record

    def to_config(self) -> dict:
        cfg = {"kind": self.kind, "drift_b": self.drift_b}
        if self.kind == "stable":
            cfg["beta"] = self.beta
        elif self.kind == "compound_poisson":
            sizes, rates = self.intensity.atoms
            cfg["atom_sizes"] = sizes.tolist()
            cfg["atom_rates"] = rates.tolist()
        elif self.kind == "tabulated":
            raise ValueError("tabulated densities are not config-serializable; "
                             "use stable/compound_poisson kinds in configs")
        return cfg

    @classmethod
    def from_config(cls, cfg: dict) -> "SubordinatorSpec":
        kind = cfg["kind"]
        if kind == "stable":
            return cls.stable(float(cfg["beta"]))
        if kind == "drift_only":
            return cls.drift_only(float(cfg["drift_b"]))
        if kind == "compound_poisson":
            return cls.compound_poisson(cfg["atom_sizes"], cfg["atom_rates"],
                                        drift_b=float(cfg.get("drift_b", 0.0)))
        raise ValueError(f"unknown kind {kind!r} in config")


# -- paths ---------------------------------------------------------------


@dataclass(frozen=True)
class SubordinatorPath:
    """One realization of Z on [0, T]: a drift slope plus a finite jump list.

    ``compensation`` is the extra slope absorbing the mean of the removed
    small jumps; Z(t) = (drift_slope + compensation) * t + sum of jumps up
    to t.
    """

    horizon_T: float
    drift_slope: float
    times: np.ndarray
    sizes: np.ndarray
    compensation: float = 0.0

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.sizes, dtype=float)
        if t.shape != s.shape:
            raise ValueError("times and sizes must have equal length")
        if t.size and (np.any(np.diff(t) <= 0) or t[0] <= 0 or t[-1] > self.horizon_T):
            raise ValueError("jump times must be strictly increasing in (0, T]")
        if np.any(s <= 0):
            raise ValueError("jump sizes must be positive")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "sizes", s)

    @property
    def total_slope(self) -> float:
        return self.drift_slope + self.compensation

    def value(self, t) -> np.ndarray:
        """Z(t) for scalar or array t in [0, T]."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.times, t, side="right")
        cum = np.concatenate([[0.0], np.cumsum(self.sizes)])
        return self.total_slope * t + cum[idx]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["# horizon_T", self.horizon_T])
            w.writerow(["# drift_slope", self.drift_slope])
            w.writerow(["# compensation", self.compensation])
            w.writerow(["tau", "dz"])
            for tau, dz in zip(self.times, self.sizes):
                w.writerow([repr(float(tau)), repr(float(dz))])

    @classmethod
    def from_csv(cls, path) -> "SubordinatorPath":
        meta, rows = {}, []
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if row and row[0].startswith("#"):
                    meta[row[0][1:].strip()] = float(row[1])
                elif row and row[0] != "tau":
                    rows.append((float(row[0]), float(row[1])))
        times = np.array([r[0] for r in rows])
        sizes = np.array([r[1] for r in rows])
        return cls(horizon_T=meta["horizon_T"], drift_slope=meta["drift_slope"],
                   compensation=meta.get("compensation", 0.0), times=times, sizes=sizes)


@dataclass(frozen=True)
class PathBatch:
    """Independent realizations of Z on [0, T] in CSR layout.

    Path p has the jumps ``times[offsets[p]:offsets[p+1]]`` (increasing)
    with sizes ``sizes[offsets[p]:offsets[p+1]]``; all paths share the
    slope ``drift_slope + compensation``.
    """

    horizon_T: float
    drift_slope: float
    offsets: np.ndarray
    times: np.ndarray
    sizes: np.ndarray
    compensation: float = 0.0

    @property
    def n_paths(self) -> int:
        return self.offsets.size - 1

    @property
    def total_slope(self) -> float:
        return self.drift_slope + self.compensation

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
                         sizes=self.sizes[a:b], compensation=self.compensation)

    def path(self, p: int) -> SubordinatorPath:
        a, b = self.offsets[p], self.offsets[p + 1]
        return SubordinatorPath(horizon_T=self.horizon_T, drift_slope=self.drift_slope,
                                times=self.times[a:b], sizes=self.sizes[a:b],
                                compensation=self.compensation)

    def values(self, t: float) -> np.ndarray:
        """Z(t) of every path at one time t in [0, T]."""
        up_to_t = self.times <= t
        jumps = np.bincount(self.rows[up_to_t], weights=self.sizes[up_to_t],
                            minlength=self.n_paths)
        return self.total_slope * t + jumps


# -- operations ----------------------------------------------------------


def laplace_exponent(spec: SubordinatorSpec, r) -> np.ndarray:
    """psi(r) = b r + int (1 - exp(-r xi)) rho(dxi); closed form where available."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("r must be nonnegative")
    psi = spec.drift_b * r
    if spec.kind == "stable":
        psi = psi + r ** spec.beta
    elif spec.kind == "compound_poisson":
        sizes, rates = spec.intensity.atoms
        psi = psi + ((1.0 - np.exp(-np.multiply.outer(r, sizes))) * rates).sum(axis=-1)
    elif spec.kind != "drift_only":
        def one(rv):
            if rv == 0.0:
                return 0.0
            integrand = lambda x: (1.0 - np.exp(-rv * x)) * spec.intensity.density(x)
            return _quad(integrand, 0.0, 1.0) + _quad(integrand, 1.0, min(np.inf, spec.intensity.support_cap))

        psi = psi + np.vectorize(one)(r)
    # a 0-d r gives a numpy scalar, an array r an array
    return psi[()]


def sub_p_membership(spec: SubordinatorSpec, p: float) -> tuple[bool, float]:
    """Whether int_0^1 xi^(p/2) rho(dxi) is finite, with the integral as certificate."""
    if not 0 < p <= 2:
        raise ValueError("p must be in (0,2]")
    if spec.kind == "drift_only":
        return True, 0.0
    if spec.kind == "stable":
        if p / 2.0 > spec.beta:
            return True, spec.intensity.truncated_moment(p / 2.0, 0.0, 1.0)
        return False, math.inf
    try:
        cert = spec.intensity.truncated_moment(p / 2.0, 0.0, 1.0)
    except QuadratureError:
        # Divergence shows up as quadrature failure near 0; probe the scaling.
        probe = [spec.intensity.truncated_moment(p / 2.0, 10.0 ** -k, 1.0) for k in (2, 4, 6)]
        if probe[-1] > 2.0 * probe[0]:
            return False, math.inf
        return True, probe[-1]
    if not np.isfinite(cert):
        return False, math.inf
    return True, float(cert)


def finite_variation_diagnostic(spec: SubordinatorSpec) -> bool:
    """Finite variation of the scalar subordinated process: int_0^1 s^(1/2) rho(ds) < inf."""
    ok, _ = sub_p_membership(spec, 1.0)
    if spec.kind == "drift_only":
        # Scalar Brownian motion has unbounded variation.
        return False
    return ok


def sample_stable_oneside(beta: float, size, rng: np.random.Generator) -> np.ndarray:
    """Exact one-sided beta-stable variates S with E exp(-r S) = exp(-r^beta).

    Kanter's representation from one uniform and one exponential variate:
    S = (A(U)/E)^((1-beta)/beta) with
    A(u) = [sin(beta u)^beta sin((1-beta) u)^(1-beta) / sin(u)]^(1/(1-beta)).
    """
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
    return np.exp((1.0 - beta) / beta * (log_a - np.log(e)))


def _check_expected_jumps(expected: float) -> None:
    if not expected <= MAX_EXPECTED_JUMPS:
        raise ValueError(f"the batch would draw {expected:.3g} jumps in expectation, more "
                         f"than the limit {MAX_EXPECTED_JUMPS:.3g}")


def simulate_paths(
    spec: SubordinatorSpec,
    T: float,
    n_paths: int,
    rng: np.random.Generator,
    cutoff_eps: float = DEFAULT_CUTOFF,
    method: Optional[str] = None,
    grid_n: int = 256,
) -> PathBatch:
    """Simulate ``n_paths`` independent paths of Z on [0, T] in one draw from rng.

    Stable kind defaults to exact grid sampling (increments drawn from the
    one-sided stable law on a uniform grid of ``grid_n`` cells; the cutoff is
    ignored).  Passing method="jumps" forces the marked-Poisson route with
    small jumps below ``cutoff_eps`` folded into the slope, which keeps the
    exact jump times needed by convolution formulas at the cost of an
    O(eps^(2-beta)) bias in the law.  The jump route draws every path's jump
    count, then every jump time, then every jump size; raises ValueError
    when the batch would hold more than MAX_EXPECTED_JUMPS jumps in
    expectation.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    if not 0 < cutoff_eps <= 1:
        raise ValueError("cutoff_eps must be in (0,1]")
    if n_paths < 1:
        raise ValueError("n_paths must be positive")

    if spec.kind == "drift_only":
        return PathBatch(horizon_T=T, drift_slope=spec.drift_b,
                         offsets=np.zeros(n_paths + 1, dtype=int),
                         times=np.empty(0), sizes=np.empty(0))

    if spec.kind == "stable" and method != "jumps":
        _check_expected_jumps(n_paths * grid_n)
        dt = T / grid_n
        incr = dt ** (1.0 / spec.beta) * sample_stable_oneside(spec.beta, (n_paths, grid_n), rng)
        times = np.tile(dt * np.arange(1, grid_n + 1), n_paths)
        return PathBatch(horizon_T=T, drift_slope=spec.drift_b,
                         offsets=grid_n * np.arange(n_paths + 1), times=times,
                         sizes=incr.ravel())

    # Marked Poisson process of jumps >= eps, mean-compensated below.
    if spec.kind == "compound_poisson":
        eps = 0.0
        rate = spec.intensity.tail_mass(0.0)
        compensation = 0.0
    else:
        eps = cutoff_eps
        rate = spec.intensity.tail_mass(eps)
        compensation = spec.intensity.truncated_moment(1.0, 0.0, eps)
    if not np.isfinite(rate):
        raise ValueError(f"intensity mass above cutoff {eps} is not finite")
    _check_expected_jumps(n_paths * rate * T)
    counts = rng.poisson(rate * T, size=n_paths)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    n = int(offsets[-1])
    # sort the times within each path: complex numbers sort by real part
    # (the path index), then by imaginary part (the time)
    keys = np.empty(n, dtype=complex)
    keys.real = np.repeat(np.arange(n_paths), counts)
    keys.imag = rng.uniform(0.0, T, size=n)
    keys.sort()
    times = keys.imag.copy()
    sizes = spec.intensity.sample_sizes(max(eps, 1e-300), n, rng)
    return PathBatch(horizon_T=T, drift_slope=spec.drift_b, offsets=offsets,
                     times=times, sizes=sizes, compensation=compensation)
