"""1-d Burgers solvers on (0,1) with Dirichlet conditions.

The deterministic "modified" equation

    v_t + A v + (v z)_x + (v^2/2)_x = g,    v(0) = v0,

with A the Dirichlet Laplacian, is solved pseudo-spectrally in the
orthonormal sine basis sqrt(2) sin(k pi x): diffusion is integrated
exactly per mode (exponential Euler), the transport terms are evaluated
on a doubled physical grid (exact dealiasing for quadratic products).
The stochastic Burgers equation du + [Au + B(u)]dt = f dt + dY is solved
pathwise as u = v + z with z the sampled OU convolution of the noise and
g = f - (z^2/2)_x, which is the same construction the a priori estimates
are stated for.  The weak residual that checks a solution takes its
nonlinear term in closed form from the sine coefficients, not through the
solver's transforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._rng import stream
from .noise import LevyNoiseSpec
from .sine import BLOCK_ROWS, _values, by_blocks, l4_norm4, sfft
from .subordinator import PathBatch, simulate_paths

__all__ = [
    "BurgersTrajectory",
    "AprioriConstants",
    "StepSizeError",
    "solve_modified_burgers",
    "check_apriori",
    "solve_stochastic_burgers",
    "weak_residual",
]


class StepSizeError(RuntimeError):
    """Energy left the a priori corridor; the explicit step is too large."""


def _transport_work(shape: tuple[int, ...]):
    """The work arrays of ``_transport_coefficients`` for v of ``shape``: the
    zero-padded inputs of its sine and cosine transforms, and k pi."""
    rows, n = shape[:-1], shape[-1]
    return (np.zeros(rows + (2 * n + 1,)), np.zeros(rows + (2 * n + 3,)),
            np.arange(1, n + 1) * math.pi)


def _transport_coefficients(v: np.ndarray, zz: Optional[np.ndarray] = None,
                            out: Optional[np.ndarray] = None, work=None) -> np.ndarray:
    """Sine coefficients of -(v z)_x - (v^2/2)_x, dealiased on a doubled grid.

    ``zz`` holds the values of z at i/(2(n+1)), i = 1..2n+1, as
    ``_values(z, 2(n+1))`` gives them, or None for z = 0.  Integration by
    parts against the sine basis turns the x-derivative into k pi times the
    cosine coefficients of q = v z + v^2/2; the doubled grid makes the
    quadratic product's cosine transform exact.  One sine and one cosine
    transform call, along the last axis and unblocked: v is one vector or a
    block of rows, and a caller with a whole trajectory runs it through
    ``by_blocks``.  A caller that applies it again and again passes the
    ``_transport_work(v.shape)`` to reuse as ``work``, and ``out`` for the
    result.
    """
    n = v.shape[-1]
    sin_in, cos_in, kpi = _transport_work(v.shape) if work is None else work
    sin_in[..., :n] = v
    vv = sfft.dst(sin_in, type=1)
    vv *= math.sqrt(2.0) / 2.0
    q = cos_in[..., 1:-1]          # the ends stay zero: q vanishes at x = 0 and 1
    np.multiply(0.5, vv, out=q)
    q *= vv
    if zz is not None:
        vv *= zz
        q += vv
    c = sfft.dct(cos_in, type=1)[..., 1:n + 1]
    c *= math.sqrt(2.0) / (2.0 * (2 * n + 2))
    return np.multiply(kpi, c, out=out)


@dataclass(frozen=True)
class BurgersTrajectory:
    """Solution record of the modified equation on a uniform time grid."""

    times: np.ndarray              # (n_steps+1,) including t=0
    v_coeffs: np.ndarray           # (n_steps+1, n_modes)
    z_l4: np.ndarray               # |z(t)|_{L^4}^4 at grid times
    g_vprime: np.ndarray           # |g(t)|_{V'}^2 at grid times
    vprime_vprime: np.ndarray      # |v'(t)|_{V'}^2 at grid times (from the equation)

    @property
    def n_modes(self) -> int:
        return self.v_coeffs.shape[1]


@dataclass(frozen=True)
class AprioriConstants:
    """The four constants of the modified-equation energy estimates.

    K^2 = exp(2 int |z|_L4^4), L^2 = |v0|^2 + 2 int |g|_V'^2,
    M^2 = |v0|^2 + 9KL int |z|_L4^4 + int |g|_V'^2,
    N   = |g|_L2(V') + 2KLM |z|^2_L4(L4) + (T^(1/4)/sqrt2) K^(3/2) L^(1/2).
    """

    K: float
    L: float
    M: float
    N: float

    @classmethod
    def from_data(cls, v0_l2: float, int_z_l4: float, int_g_vp: float, T: float) -> "AprioriConstants":
        K = math.exp(int_z_l4)                       # K = e^{int |z|^4}
        L = math.sqrt(v0_l2 ** 2 + 2.0 * int_g_vp)
        M = math.sqrt(v0_l2 ** 2 + 9.0 * K * L * int_z_l4 + int_g_vp)
        N = math.sqrt(int_g_vp) + 2.0 * K * L * M * math.sqrt(int_z_l4) \
            + T ** 0.25 / math.sqrt(2.0) * K ** 1.5 * math.sqrt(L)
        return cls(K=K, L=L, M=M, N=N)


def _on_grid(name: str, a, shape: tuple[int, int]) -> Optional[np.ndarray]:
    """``a`` read-only broadcast to ``shape``; None stays None."""
    if a is None:
        return None
    a = np.asarray(a, dtype=float)
    if a.shape not in (shape[1:], shape):
        raise ValueError(f"{name} must have shape {shape[1:]} or {shape}, not {a.shape}")
    return np.broadcast_to(a, shape)


def _time_grid(T: float, dt: float) -> tuple[int, np.ndarray]:
    """n_steps and the grid dt * (0, 1, ..., n_steps) of [0, T]; ValueError
    unless T and dt are finite and positive and T is a multiple of dt."""
    for name, x in (("T", T), ("dt", dt)):
        if not (math.isfinite(x) and x > 0):
            raise ValueError(f"{name} must be finite and positive, not {x!r}")
    n_steps = int(round(T / dt))
    if abs(n_steps * dt - T) > 1e-9 * T:
        raise ValueError(f"T must be an integer multiple of dt (T={T!r}, dt={dt!r})")
    return n_steps, dt * np.arange(n_steps + 1)


def solve_modified_burgers(
    v0: np.ndarray,
    zs: Optional[np.ndarray],
    gs: Optional[np.ndarray],
    T: float,
    dt: float,
    n_modes: int,
) -> BurgersTrajectory:
    """Exponential-Euler integration of the modified Burgers equation.

    ``zs``/``gs`` hold sine coefficients of z and g: None (zero), one
    constant (n_modes,) vector, or an (n_steps+1, n_modes) array with one
    row per grid time; any other shape is a ValueError.  Raises
    StepSizeError if |v|^2 leaves 10x its a priori corridor,
    which is how an unstable explicit step shows up, and RuntimeError if
    int |z|_L4^4 exceeds 1 and 4 times its trapezoid sum over every other
    grid point (z too rough for the grid).

    The steps go BLOCK_ROWS at a time: each block takes z's values on the
    doubled grid in one transform call, and each step makes one sine
    transform of v and one cosine transform through reused buffers, writing
    v into the trajectory and the right-hand side into a block buffer, from
    which |v'|^2_V' is computed once per block.
    """
    v0 = np.asarray(v0, dtype=float)
    if v0.size != n_modes:
        raise ValueError("v0 must have n_modes sine coefficients")
    n_steps, times = _time_grid(T, dt)
    k = np.arange(1, n_modes + 1)
    lam = (k * math.pi) ** 2
    decay = np.exp(-lam * dt)
    phi1 = (1.0 - decay) / lam

    zs = _on_grid("zs", zs, (n_steps + 1, n_modes))
    gs = _on_grid("gs", gs, (n_steps + 1, n_modes))
    z_l4 = np.zeros(n_steps + 1) if zs is None else l4_norm4(zs)
    int_z = float(np.trapezoid(z_l4, times))
    # refinement diagnostic for int |z|^4: compare full grid vs every other point
    half = float(np.trapezoid(z_l4[::2], times[::2]))
    if int_z > 1.0 and half > 0 and int_z / half > 4.0:
        raise RuntimeError(
            f"int |Y_A|_L4^4 not stable under refinement ({half:.3g} -> {int_z:.3g}); "
            "the OU path is too rough for this grid")
    g_vp = (np.zeros(n_steps + 1) if gs is None
            else by_blocks(lambda g: (g ** 2 / lam).sum(axis=1), gs))

    # explicit a priori corridor for the blow-up guard
    int_g = float(np.trapezoid(g_vp, times))
    consts = AprioriConstants.from_data(float(np.sqrt((v0 ** 2).sum())), int_z, int_g, T)
    corridor = 10.0 * (consts.K * consts.L) ** 2 + 1e-12

    v_hist = np.empty((n_steps + 1, n_modes))
    vp_hist = np.empty(n_steps + 1)
    v_hist[0] = v0
    rhs = np.empty((min(BLOCK_ROWS, n_steps + 1), n_modes))
    work = _transport_work((n_modes,))
    for lo in range(0, n_steps + 1, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, n_steps + 1)
        zz = None if zs is None else _values(zs[lo:hi], 2 * (n_modes + 1))
        for i in range(lo, hi):
            r = _transport_coefficients(v_hist[i], None if zz is None else zz[i - lo],
                                        out=rhs[i - lo], work=work)
            if gs is not None:
                r += gs[i]
            if i == n_steps:
                break
            v = np.multiply(decay, v_hist[i], out=v_hist[i + 1])
            v += phi1 * r
            if v @ v > corridor:
                raise StepSizeError(
                    f"|v|^2 exceeded 10x the a priori bound at t={times[i + 1]:.4g}; "
                    f"reduce dt (currently {dt:g})")
        vp_hist[lo:hi] = ((rhs[:hi - lo] - lam * v_hist[lo:hi]) ** 2 / lam).sum(axis=1)
    return BurgersTrajectory(times=times, v_coeffs=v_hist, z_l4=z_l4,
                             g_vprime=g_vp, vprime_vprime=vp_hist)


def check_apriori(traj: BurgersTrajectory, slack: float = 0.05) -> dict:
    """Evaluate the four energy inequalities on a computed trajectory.

    Each bound is checked with a multiplicative ``slack`` allowance for
    quadrature error; violations are reported, not raised.
    """
    times = traj.times
    T = float(times[-1])
    lam = (np.arange(1, traj.n_modes + 1) * math.pi) ** 2
    v0_l2 = float(np.sqrt((traj.v_coeffs[0] ** 2).sum()))
    int_z = float(np.trapezoid(traj.z_l4, times))
    int_g = float(np.trapezoid(traj.g_vprime, times))
    c = AprioriConstants.from_data(v0_l2, int_z, int_g, T)

    sup_v2 = float((traj.v_coeffs ** 2).sum(axis=1).max())
    grad2 = (traj.v_coeffs ** 2 * lam).sum(axis=1)
    int_grad = float(np.trapezoid(grad2, times))
    int_vp = float(np.trapezoid(traj.vprime_vprime, times))
    v_l4 = l4_norm4(traj.v_coeffs)
    int_v4 = float(np.trapezoid(v_l4, times))

    bounds = {
        "sup_v_sq": (sup_v2, (c.K * c.L) ** 2),
        "int_grad_sq": (int_grad, c.M ** 2),
        "int_vprime_sq": (int_vp, c.N ** 2),
        "int_v_l4": (int_v4, 2.0 * math.sqrt(T) * c.K ** 3 * c.L ** 3 * c.M),
    }
    report = {"constants": {"K": c.K, "L": c.L, "M": c.M, "N": c.N}, "bounds": {}}
    ok = True
    for name, (lhs, rhs) in bounds.items():
        passed = lhs <= rhs * (1.0 + slack) + 1e-14
        ok &= passed
        report["bounds"][name] = {"lhs": lhs, "rhs": rhs, "pass": bool(passed)}
    report["all_pass"] = bool(ok)
    return report


# -- stochastic solver ---------------------------------------------------


def _regression(v_dy: np.ndarray, v_eta: np.ndarray, cov: np.ndarray):
    """sqrt Var(DY), the slope beta of eta on DY and sqrt Var(eta - beta DY)
    from the moments of (DY, eta); a DY of zero variance has beta = 0."""
    with np.errstate(invalid="ignore", divide="ignore"):
        beta = np.where(v_dy > 0, cov / np.where(v_dy > 0, v_dy, 1.0), 0.0)
        resid = np.maximum(v_eta - beta * cov, 0.0)
    return np.sqrt(v_dy), beta, np.sqrt(resid)


def _joint_ou_noise_paths(lam: np.ndarray, inv_w: np.ndarray,
                          zpath: PathBatch, times: np.ndarray,
                          seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact joint draw of the OU path z and the driving noise Y on a grid.

    Cell i is (times[i-1], times[i]], with times[-1] taken as 0.  Per cell
    and mode, (Delta Y, OU innovation) is bivariate Gaussian with
    Var(DY) = w^-2 dZ, Var(eta) = w^-2 int e^(-2 lam (t'-s)) dZ and
    Cov = w^-2 int e^(-lam (t'-s)) dZ, all closed-form over the cell's jumps.
    A cell without jumps has dZ = slope * length, so its moments depend on
    its length alone: they are computed once per distinct cell length (13
    for the 2,000 cells of dt * (0, 1, ..., 2000), which round differently),
    in a table whose rows the cells gather.  A cell with jumps adds its jump
    sums to its length's row; the table holds no row per jump, so its size
    does not grow with the number of jumps.  The cells are taken BLOCK_ROWS
    at a time; a cell of zero length draws nothing.  The Gaussian draws come from ``stream(seed, 1)``, cell after
    cell, so they do not depend on the block size.
    """
    n = lam.size
    z_hist = np.empty((times.size, n))
    y_hist = np.empty((times.size, n))
    rng = stream(seed, 1)
    slope = zpath.total_slope
    inv_w2 = inv_w ** 2
    edges = np.concatenate(([0.0], times))
    dtc = np.diff(edges)
    dz = zpath.increments(edges)[0]
    # the jumps of cell i are zpath.times[starts[i]:starts[i] + counts[i]]
    (starts,), (counts,) = zpath.cells(edges)
    drawn = dtc > 0
    lengths, length_row = np.unique(dtc[drawn], return_inverse=True)
    row = np.zeros(times.size, dtype=int)
    row[drawn] = length_row
    d = lengths[:, None]
    decay = np.exp(-lam * d)
    v_eta = slope * (1.0 - np.exp(-2.0 * lam * d)) / (2.0 * lam)
    cov = slope * (1.0 - decay) / lam
    sd, beta, sr = _regression(slope * d * inv_w2, v_eta * inv_w2, cov * inv_w2)
    z = np.zeros(n)
    y = np.zeros(n)
    for lo in range(0, times.size, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, times.size)
        cells = lo + np.flatnonzero(drawn[lo:hi])
        rows = row[cells]
        sd_c, beta_c, sr_c = sd[rows], beta[rows], sr[rows]
        for j in np.flatnonzero(counts[cells]).tolist():
            c, r = cells[j], rows[j]
            jumps = slice(starts[c], starts[c] + counts[c])
            e1 = np.exp(-np.multiply.outer(lam, times[c] - zpath.times[jumps]))
            sd_c[j], beta_c[j], sr_c[j] = _regression(
                dz[c] * inv_w2,
                (v_eta[r] + (e1 ** 2 * zpath.sizes[jumps]).sum(axis=1)) * inv_w2,
                (cov[r] + (e1 * zpath.sizes[jumps]).sum(axis=1)) * inv_w2)
        g = rng.standard_normal((cells.size, 2, n))
        dy = sd_c * g[:, 0]
        eta = beta_c * dy + sr_c * g[:, 1]
        j = 0
        for i, fresh in enumerate(drawn[lo:hi].tolist(), lo):
            if fresh:
                y = np.add(y, dy[j], out=y_hist[i])
                z = np.multiply(decay[row[i]], z, out=z_hist[i])
                z += eta[j]
                j += 1
            else:
                y_hist[i] = y
                z_hist[i] = z
    return z_hist, y_hist


def solve_stochastic_burgers(
    u0: np.ndarray,
    noise: LevyNoiseSpec,
    f: Optional[np.ndarray],
    T: float,
    dt: float,
    n_modes: int,
    seed: int = 0,
    cutoff_eps: float = 1e-3,
) -> dict:
    """Pathwise solution of du + [Au + B(u)]dt = f dt + dY via the OU shift.

    z is the sampled stochastic convolution of the noise under the heat
    semigroup (lambda_k = (k pi)^2); v solves the modified equation with
    g = f - (z^2/2)_x and the solution is u = v + z.  Returns the
    trajectory, the sampled (z, Y) paths and the solution certificate
    sup_t |u|^2, int |u|_L4^4 dt.  The path of Z comes from ``stream(seed)``,
    the Gaussian draws of (z, Y) from ``stream(seed, 1)``.
    """
    u0 = np.asarray(u0, dtype=float)
    if u0.size != n_modes:
        raise ValueError("u0 must have n_modes sine coefficients")
    if noise.wiener.truncation_N != n_modes:
        raise ValueError("noise truncation must equal n_modes")
    _, times = _time_grid(T, dt)
    lam = (np.arange(1, n_modes + 1) * math.pi) ** 2
    sub = noise.subordinator
    zpath = simulate_paths(sub, T, 1, stream(seed), cutoff_eps=cutoff_eps, method="jumps")
    z_hist, y_hist = _joint_ou_noise_paths(lam, 1.0 / noise.wiener.hilbert_weights,
                                           zpath, times, seed=seed)

    # g(t) = f - (z(t)^2/2)_x  (sine coefficients, dealiased)
    g = by_blocks(_transport_coefficients, z_hist)
    if f is not None:
        g += f

    v0 = u0 - z_hist[0]
    traj = solve_modified_burgers(v0, z_hist, g, T, dt, n_modes)
    del g
    u_hist = traj.v_coeffs + z_hist
    u_l2sq = by_blocks(lambda u: (u ** 2).sum(axis=1), u_hist)
    u_l4 = l4_norm4(u_hist)
    certificate = {"sup_u_sq": float(u_l2sq.max()),
                   "int_u_l4": float(np.trapezoid(u_l4, times))}
    return {"times": times, "u_coeffs": u_hist, "v_traj": traj,
            "z_coeffs": z_hist, "y_coeffs": y_hist, "certificate": certificate}


def _half_square_against_gradient(u: np.ndarray, modes: Sequence[int]) -> np.ndarray:
    """1/2 (u^2, d/dx psi_k) for psi_k = sqrt(2) sin(k pi x), one column per k
    in ``modes`` (1 <= k <= n), from the sine coefficients u_1..u_n of each row.

    The exact Galerkin coefficient, without a transform: the product of
    two sines is a difference of cosines, so
    1/2 (u^2, d/dx psi_k) = k pi sqrt(2)/4 (2 sum_j u_j u_(j+k) - sum_(j<k) u_j u_(k-j)).
    """
    n = u.shape[-1]
    out = np.empty(u.shape[:-1] + (len(modes),))
    for col, k in enumerate(modes):
        if not 1 <= k <= n:
            raise ValueError(f"test mode {k} is not in 1..{n}")
        low = u[..., :k - 1]
        lagged = np.einsum("...j,...j->...", u[..., :n - k], u[..., k:])
        folded = np.einsum("...j,...j->...", low, low[..., ::-1])
        out[..., col] = k * math.pi * math.sqrt(2.0) / 4.0 * (2.0 * lagged - folded)
    return out


def weak_residual(result: dict, f: Optional[np.ndarray], test_modes: Sequence[int]) -> list[float]:
    """Residuals of the weak identity against psi = sqrt(2) sin(k pi x), one
    per test mode k in ``test_modes``.

    (u(t),psi) - (u0,psi) - int (u, Lap psi) - 1/2 int (u^2, grad psi)
      - int (f,psi) - <psi, Y(t)>, with time integrals by the trapezoid
    rule on the solver grid, at the final grid time t.  The nonlinear term
    is computed in closed form from the sine coefficients of u, so the check
    shares no transform code with the solver it checks.
    """
    times = result["times"]
    u = result["u_coeffs"]
    y = result["y_coeffs"]
    z = result["z_coeffs"]
    modes = [int(k) for k in test_modes]
    q = _half_square_against_gradient(u, modes)
    residuals = []
    for j, k in enumerate(modes):
        c = k - 1
        lamk = (k * math.pi) ** 2
        # (u, Lap psi) = -lam_k u_k; the v part is smooth (trapezoid), while the
        # rough OU part integrates exactly through its own equation:
        # lam int z_k ds = Y_k(t) - z_k(t) + z_k(0)
        int_lap = float(np.trapezoid(-lamk * (u[:, c] - z[:, c]), times)) \
            - (y[-1, c] - z[-1, c] + z[0, c])
        int_nl = float(np.trapezoid(q[:, j], times))
        int_f = 0.0 if f is None else float(f[c]) * float(times[-1])
        lhs = u[-1, c] - u[0, c] - int_lap - int_nl
        residuals.append(float(lhs - (int_f + y[-1, c])))
    return residuals
