"""1-d Burgers solvers on (0,1) with Dirichlet conditions.

The deterministic "modified" equation

    v_t + A v + (v z)_x + (v^2/2)_x = g,    v(0) = v0,

with A the Dirichlet Laplacian, is solved pseudo-spectrally in the
orthonormal sine basis sqrt(2) sin(k pi x), in its u-form: with
N(w) = -(w^2/2)_x its transport and g are N(v + z) + h, h = g - N(z), so
a step transports the one field v + z.  Diffusion is integrated exactly
per mode (exponential Euler), and the transport on the doubled grid of
``sine``, whose kernels and held work alone know that grid, its padding
and scales (exact dealiasing for quadratic products).  The stochastic
Burgers equation du + [Au + B(u)]dt = f dt + dY is solved pathwise as
u = v + z with z the sampled OU convolution of the noise and
g = f - (z^2/2)_x, which is the same construction the a priori estimates
are stated for; in the u-form its h is f itself.  Both solvers read the
mode count off the initial data.  The weak residual checks a solve with
the forcing its result holds, and takes its nonlinear term in closed form
from the sine coefficients, not through the solver's transforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from ._rng import stream
from .noise import LevyNoiseSpec
from .sine import BLOCK_ROWS, _half_square_cos, _l4, _work, by_blocks, l4_norm4
from .subordinator import PathBatch, jump_law, simulate_paths

__all__ = [
    "BurgersTrajectory",
    "AprioriConstants",
    "StepSizeError",
    "solve_modified_burgers",
    "check_apriori",
    "solve_stochastic_burgers",
    "weak_residual",
]

# relative allowance of check_apriori on each bound, for quadrature error
APRIORI_SLACK = 0.05


class StepSizeError(RuntimeError):
    """Energy left the a priori corridor; the explicit step is too large."""


def _transport_coefficients(w: np.ndarray, kpi: np.ndarray, work,
                            out: Optional[np.ndarray] = None) -> np.ndarray:
    """Sine coefficients of N(w) = -(w^2/2)_x, dealiased on sine's doubled grid.

    Integration by parts against the sine basis turns the x-derivative into
    k pi (``kpi``) times the cosine coefficients of q = w^2/2.  w is one
    vector or a block of rows; the transforms write into ``work``, a
    ``sine._work(w.shape)`` that keeps w's grid values for ``sine._l4``, and
    the result is a new array or ``out``, never part of the work.
    """
    return np.multiply(kpi, _half_square_cos(w, work)[..., :kpi.size], out=out)


def _nonlinear_blocks(zs: np.ndarray) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """(rows, |z|_L4^4, N(z)) of each block of BLOCK_ROWS rows of the sine
    coefficients ``zs``, with rows the block's slice of ``zs``: one sine
    transform puts the block on the grid, and its values serve both."""
    kpi = np.arange(1, zs.shape[-1] + 1) * math.pi
    held = _work((min(BLOCK_ROWS, len(zs)), zs.shape[-1]))
    for lo in range(0, len(zs), BLOCK_ROWS):
        block = zs[lo:lo + BLOCK_ROWS]
        work = [a[:len(block)] for a in held]
        nz = _transport_coefficients(block, kpi, work)
        yield slice(lo, lo + len(block)), _l4(work[1]), nz


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
        """The constants, or RuntimeError if K = e^(int |z|_L4^4) or a power of
        it overflows the double range."""
        try:
            K = math.exp(int_z_l4)                       # K = e^{int |z|^4}
            L = math.sqrt(v0_l2 ** 2 + 2.0 * int_g_vp)
            M = math.sqrt(v0_l2 ** 2 + 9.0 * K * L * int_z_l4 + int_g_vp)
            N = math.sqrt(int_g_vp) + 2.0 * K * L * M * math.sqrt(int_z_l4) \
                + T ** 0.25 / math.sqrt(2.0) * K ** 1.5 * math.sqrt(L)
        except OverflowError:
            raise RuntimeError(
                f"int |z|_L4^4 dt = {int_z_l4:.4g} makes the a priori constant "
                "K = e^(int |z|_L4^4 dt) overflow the double range") from None
        return cls(K=K, L=L, M=M, N=N)


@dataclass(frozen=True)
class BurgersTrajectory:
    """Solution record of the modified equation on a uniform time grid."""

    times: np.ndarray              # (n_steps+1,) including t=0
    v_coeffs: np.ndarray           # (n_steps+1, n_modes)
    vprime_vprime: np.ndarray      # |v'(t)|_{V'}^2 at grid times (from the equation)
    constants: AprioriConstants    # K, L, M, N of the data, on [0, times[-1]]

    @property
    def n_modes(self) -> int:
        return self.v_coeffs.shape[1]


def _finite(name: str, a: np.ndarray) -> np.ndarray:
    """``a``; a NaN or an infinity, which no step guard sees, is a ValueError."""
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite, not hold NaN or inf")
    return a


def _initial(name: str, a) -> np.ndarray:
    """``a`` as a float vector; ValueError unless it is non-empty and finite."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ValueError(f"{name} must be a non-empty vector, not of shape {a.shape}")
    return _finite(name, a)


def _on_grid(name: str, a, shape: tuple[int, int]) -> Optional[np.ndarray]:
    """``a`` as a finite float array of shape ``shape[1:]`` (one row for
    every grid time) or ``shape``; None stays None."""
    if a is None:
        return None
    a = np.asarray(a, dtype=float)
    if a.shape not in (shape[1:], shape):
        raise ValueError(f"{name} must have shape {shape[1:]} or {shape}, not {a.shape}")
    return _finite(name, a)


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


def _u_form_steps(v0: np.ndarray, zs: Optional[np.ndarray], h: Optional[np.ndarray],
                  z_l4: np.ndarray, g_vp: np.ndarray, dt: float,
                  times: np.ndarray) -> tuple[BurgersTrajectory, np.ndarray]:
    """The modified equation stepped in its u-form, and |v + z|_L4^4 at the grid times.

    v_(i+1) = e^(-lam dt) v_i + phi1 (N(v_i + z_i) + h_i) with
    phi1 = (1 - e^(-lam dt)) / lam; ``zs`` and ``h`` are None (zero) or
    broadcast to one row per grid time, and ``z_l4``, ``g_vp`` are |z|_L4^4
    and |g|_V'^2 there, for the a priori constants on [0, times[-1]].
    Raises RuntimeError if int |z|_L4^4 exceeds 1 and 4 times its trapezoid
    sum over every other grid point (z too rough for the grid), and
    StepSizeError if |v|^2 leaves 10x its a priori corridor after any
    step, which is how an unstable explicit step shows up.

    The steps go BLOCK_ROWS at a time.  Each step makes one sine transform
    of v + z and one cosine transform of half its square, into a held
    ``sine._work``; it writes v into the trajectory, the right-hand side
    into a block buffer and the grid values into a block of rows, and
    allocates no array.  Once per block |v'|^2_V' comes from the
    right-hand sides and |v + z|_L4^4 from the grid values.
    """
    n_modes = v0.size
    shape = (times.size, n_modes)
    kpi = np.arange(1, n_modes + 1) * math.pi
    lam = kpi ** 2
    decay = np.exp(-lam * dt)
    phi1 = (1.0 - decay) / lam

    int_z = float(np.trapezoid(z_l4, times))
    # refinement diagnostic for int |z|^4: compare full grid vs every other point
    half = float(np.trapezoid(z_l4[::2], times[::2]))
    if int_z > 1.0 and half > 0 and int_z / half > 4.0:
        raise RuntimeError(
            f"int |Y_A|_L4^4 not stable under refinement ({half:.3g} -> {int_z:.3g}); "
            "the OU path is too rough for this grid")
    # the trajectory's a priori constants, and from them the blow-up guard's corridor
    int_g = float(np.trapezoid(g_vp, times))
    consts = AprioriConstants.from_data(float(np.sqrt((v0 ** 2).sum())), int_z, int_g,
                                        float(times[-1]))
    corridor = 10.0 * (consts.K * consts.L) ** 2 + 1e-12

    zs = None if zs is None else np.broadcast_to(zs, shape)
    h = None if h is None else np.broadcast_to(h, shape)
    v_hist = np.empty(shape)
    vp_hist = np.empty(times.size)
    w_l4 = np.empty(times.size)
    v_hist[0] = v0
    rhs = np.empty((min(BLOCK_ROWS, times.size), n_modes))
    push = np.empty(n_modes)       # phi1 times the right-hand side
    u = np.empty(n_modes)          # v + z
    sin_in, _, cos_in, cos_out = _work((n_modes,))
    grid = np.empty((len(rhs),) + sin_in.shape)    # the grid values of a block of steps
    for lo in range(0, times.size, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, times.size)
        for i in range(lo, hi):
            w = v_hist[i] if zs is None else np.add(v_hist[i], zs[i], out=u)
            r = _transport_coefficients(w, kpi, (sin_in, grid[i - lo], cos_in, cos_out),
                                        out=rhs[i - lo])
            if h is not None:
                r += h[i]
            if i == times.size - 1:
                break
            v = np.multiply(decay, v_hist[i], out=v_hist[i + 1])
            v += np.multiply(phi1, r, out=push)
            if v @ v > corridor:
                raise StepSizeError(
                    f"|v|^2 exceeded 10x the a priori bound at t={times[i + 1]:.4g}; "
                    f"reduce dt (currently {dt:g})")
        vp_hist[lo:hi] = ((rhs[:hi - lo] - lam * v_hist[lo:hi]) ** 2 / lam).sum(axis=1)
        w_l4[lo:hi] = _l4(grid[:hi - lo])
    traj = BurgersTrajectory(times=times, v_coeffs=v_hist, vprime_vprime=vp_hist,
                             constants=consts)
    return traj, w_l4


def solve_modified_burgers(
    v0: np.ndarray,
    zs: Optional[np.ndarray],
    gs: Optional[np.ndarray],
    T: float,
    dt: float,
) -> BurgersTrajectory:
    """Exponential-Euler integration of the modified Burgers equation.

    ``v0`` is a vector of n_modes >= 1 sine coefficients; ``zs``/``gs`` hold
    those of z and g: None (zero), one constant (n_modes,) vector, or an
    (n_steps+1, n_modes) array with one row per grid time; any other shape,
    or a NaN or infinity in any of them, is a ValueError.  Raises
    StepSizeError if |v|^2 leaves 10x its a priori corridor, which is how
    an unstable explicit step shows up, and RuntimeError if int |z|_L4^4
    exceeds 1 and 4 times its trapezoid sum over every other grid point
    (z too rough for the grid).

    The steps run in the u-form, v_t + A v = N(v + z) + h with
    N(w) = -(w^2/2)_x and h = g - N(z): z's rows are put on the doubled
    grid once, in blocks of BLOCK_ROWS, for |z|_L4^4 and N(z), and h is
    one vector unless ``zs`` or ``gs`` is a full array.  Each step then
    makes one sine transform of v + z and one cosine transform.
    """
    v0 = _initial("v0", v0)
    n_modes = v0.size
    n_steps, times = _time_grid(T, dt)
    shape = (n_steps + 1, n_modes)
    zs = _on_grid("zs", zs, shape)
    gs = _on_grid("gs", gs, shape)
    lam = (np.arange(1, n_modes + 1) * math.pi) ** 2

    z_l4, h = np.zeros(n_steps + 1), gs
    if zs is not None:
        z_rows = np.atleast_2d(zs)
        row_l4, nz = np.empty(len(z_rows)), np.empty(z_rows.shape)
        for rows, l4, block in _nonlinear_blocks(z_rows):
            row_l4[rows] = l4
            nz[rows] = block
        z_l4[:] = row_l4
        h = -nz if gs is None else gs - nz
    g_vp = np.zeros(n_steps + 1)
    if gs is not None:
        g_vp[:] = by_blocks(lambda g: (g ** 2 / lam).sum(axis=1), np.atleast_2d(gs))
    return _u_form_steps(v0, zs, h, z_l4, g_vp, dt, times)[0]


def check_apriori(traj: BurgersTrajectory) -> dict:
    """Evaluate the four energy inequalities on a computed trajectory.

    Each bound, from the trajectory's ``constants``, is checked with a
    multiplicative ``APRIORI_SLACK`` allowance; violations are reported.
    """
    times, c = traj.times, traj.constants
    lam = (np.arange(1, traj.n_modes + 1) * math.pi) ** 2

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
        "int_v_l4": (int_v4, 2.0 * math.sqrt(times[-1]) * c.K ** 3 * c.L ** 3 * c.M),
    }
    report = {"constants": {"K": c.K, "L": c.L, "M": c.M, "N": c.N}, "bounds": {}}
    ok = True
    for name, (lhs, rhs) in bounds.items():
        passed = lhs <= rhs * (1.0 + APRIORI_SLACK) + 1e-14
        ok &= passed
        report["bounds"][name] = {"lhs": lhs, "rhs": rhs, "pass": bool(passed)}
    report["all_pass"] = bool(ok)
    return report


# -- stochastic solver ---------------------------------------------------


def _regression(v_eta: np.ndarray, v_dy: np.ndarray, cov: np.ndarray):
    """sqrt Var(eta), the slope b of DY on eta and Var(DY - b eta) from the
    moments of (eta, DY); an eta of zero variance has b = 0."""
    with np.errstate(invalid="ignore", divide="ignore"):
        b = np.where(v_eta > 0, cov / np.where(v_eta > 0, v_eta, 1.0), 0.0)
        resid = np.maximum(v_dy - b * cov, 0.0)
    return np.sqrt(v_eta), b, resid


def _joint_ou_noise_paths(lam: np.ndarray, inv_w: np.ndarray,
                          zpath: PathBatch, times: np.ndarray,
                          seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact joint draw of the OU path z on a grid and of the driving noise
    Y at the last grid time: (z at every grid time, Y(times[-1])).

    Cell i is (times[i-1], times[i]], with times[-1] taken as 0.  Per cell
    and mode, (OU innovation eta, Delta Y) is bivariate Gaussian with
    Var(eta) = w^-2 int e^(-2 lam (t'-s)) dZ, Var(DY) = w^-2 dZ and
    Cov = w^-2 int e^(-lam (t'-s)) dZ, all closed-form over the cell's jumps.
    A cell without jumps has dZ = slope * length, so its moments depend on
    its length alone: they are computed once per distinct cell length (13
    for the 2,000 cells of dt * (0, 1, ..., 2000), which round differently),
    in a table whose rows the cells gather.  A cell with jumps adds its jump
    sums to its length's row; the table holds no row per jump, so its size
    does not grow with the number of jumps.

    Only Y at the last grid time is read, so no Delta Y is drawn: given
    every eta the increments are independent, and
    Y = sum_i b_i eta_i + (sum_i r_i^2)^(1/2) G with b = Cov / Var(eta) and
    r^2 = Var(DY) - b Cov, per mode, which is the law of the sum of the
    increments.  The cells are taken BLOCK_ROWS at a time: one Gaussian per
    cell and mode for eta, and after the last block one per mode for G,
    all from ``stream(seed, 1)``, so they and the cell-after-cell sums do
    not depend on the block size.  A cell of zero length draws nothing
    and keeps the z before it.
    """
    n = lam.size
    z_hist = np.empty((times.size, n))
    rng = stream(seed, 1)
    slope = zpath.drift_slope
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
    sd, b, r2 = _regression(v_eta * inv_w2, slope * d * inv_w2, cov * inv_w2)
    z, z_rows = np.zeros(n), list(z_hist)
    y_mean = np.zeros(n)    # sum_i b_i eta_i
    y_var = np.zeros(n)     # sum_i r_i^2
    for lo in range(0, times.size, BLOCK_ROWS):
        cells = lo + np.flatnonzero(drawn[lo:lo + BLOCK_ROWS])
        rows = row[cells]
        sd_c, b_c, r2_c = sd[rows], b[rows], r2[rows]
        for j in np.flatnonzero(counts[cells]).tolist():
            c, r = cells[j], rows[j]
            jumps = slice(starts[c], starts[c] + counts[c])
            e1 = np.exp(-np.multiply.outer(lam, times[c] - zpath.times[jumps]))
            sd_c[j], b_c[j], r2_c[j] = _regression(
                (v_eta[r] + (e1 ** 2 * zpath.sizes[jumps]).sum(axis=1)) * inv_w2,
                dz[c] * inv_w2,
                (cov[r] + (e1 * zpath.sizes[jumps]).sum(axis=1)) * inv_w2)
        eta = sd_c * rng.standard_normal((cells.size, n))
        y_mean = np.add.reduce(np.concatenate(([y_mean], b_c * eta)), axis=0)
        y_var = np.add.reduce(np.concatenate(([y_var], r2_c)), axis=0)
        # z_i = decay z_(i-1) + eta_i, cell after cell, into the rows of z_hist
        for zi, dec, e in zip([z_rows[i] for i in cells.tolist()], decay[rows], eta):
            np.multiply(dec, z, zi)
            np.add(zi, e, zi)
            z = zi
    for i in np.flatnonzero(~drawn).tolist():
        z_hist[i] = z_hist[i - 1] if i else 0.0
    return z_hist, y_mean + np.sqrt(y_var) * rng.standard_normal(n)


def solve_stochastic_burgers(
    u0: np.ndarray,
    noise: LevyNoiseSpec,
    f: Optional[np.ndarray],
    T: float,
    dt: float,
    seed: int = 0,
) -> dict:
    """Pathwise solution of du + [Au + B(u)]dt = f dt + dY via the OU shift.

    z is the sampled stochastic convolution of the noise under the heat
    semigroup (lambda_k = (k pi)^2); v solves the modified equation with
    g = f - (z^2/2)_x and the solution is u = v + z.  Returns a dict of the
    grid ``times``, the sine coefficients ``u_coeffs`` of u and
    ``z_coeffs`` of z at every grid time, the noise ``y_final`` = Y(T), the
    forcing ``f`` and the solution ``certificate`` sup_t |u|^2,
    int |u|_L4^4 dt.  The path of Z, of the law ``jump_law`` of the
    noise's subordinator, comes from ``stream(seed)``, the Gaussian draws
    of (z, Y) from ``stream(seed, 1)``.  ``u0`` is a vector of n_modes >= 1
    sine coefficients, the noise is truncated at n_modes, and ``f`` is
    None or one time-independent vector of n_modes coefficients, the form
    ``weak_residual`` checks; anything else, or a NaN or infinity in u0 or
    f, raises ValueError.

    One blocked pass puts z on the doubled grid once, for |z|_L4^4 and
    |g|_V'^2 = |f + N(z)|_V'^2; g itself is not kept.  The steps run in
    the u-form with h = f, and int |u|_L4^4 comes from the squares the
    steps already hold on the grid.  u is formed in v's array, so the
    solve holds two trajectories, u and z.
    """
    u0 = _initial("u0", u0)
    n_modes = u0.size
    if noise.wiener.truncation_N != n_modes:
        raise ValueError(f"noise truncation must equal len(u0) = {n_modes}")
    _, times = _time_grid(T, dt)
    if f is not None:
        f = _initial("f", f)
        if f.size != n_modes:
            raise ValueError(f"f must be None or one vector of shape ({n_modes},), not {f.shape}")
    lam = (np.arange(1, n_modes + 1) * math.pi) ** 2
    zpath = simulate_paths(jump_law(noise.subordinator), T, 1, stream(seed))
    z_hist, y_final = _joint_ou_noise_paths(lam, 1.0 / noise.wiener.hilbert_weights,
                                            zpath, times, seed=seed)

    z_l4, g_vp = np.empty(times.size), np.empty(times.size)
    for rows, l4, g in _nonlinear_blocks(z_hist):
        z_l4[rows] = l4
        if f is not None:
            g += f
        g_vp[rows] = (g ** 2 / lam).sum(axis=1)

    traj, u_l4 = _u_form_steps(u0 - z_hist[0], z_hist, f, z_l4, g_vp, dt, times)
    u_hist = traj.v_coeffs
    u_hist += z_hist
    u_l2sq = by_blocks(lambda u: (u ** 2).sum(axis=1), u_hist)
    certificate = {"sup_u_sq": float(u_l2sq.max()),
                   "int_u_l4": float(np.trapezoid(u_l4, times))}
    return {"times": times, "u_coeffs": u_hist, "z_coeffs": z_hist, "y_final": y_final,
            "f": f, "certificate": certificate}


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


def weak_residual(result: dict, test_modes: Sequence[int]) -> list[float]:
    """Residuals of the weak identity against psi = sqrt(2) sin(k pi x), one
    per test mode k in ``test_modes``, of a ``solve_stochastic_burgers``
    result with the forcing f it was solved with.

    (u(t),psi) - (u0,psi) - int (u, Lap psi) - 1/2 int (u^2, grad psi)
      - int (f,psi) - <psi, Y(t)>, with time integrals by the trapezoid
    rule on the solver grid, at the final grid time t.  The nonlinear term
    is computed in closed form from the sine coefficients of u, so the check
    shares no transform code with the solver it checks.
    """
    times = result["times"]
    u = result["u_coeffs"]
    y = result["y_final"]
    z = result["z_coeffs"]
    f = result["f"]
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
            - (y[c] - z[-1, c] + z[0, c])
        int_nl = float(np.trapezoid(q[:, j], times))
        int_f = 0.0 if f is None else float(f[c]) * float(times[-1])
        lhs = u[-1, c] - u[0, c] - int_lap - int_nl
        residuals.append(float(lhs - (int_f + y[c])))
    return residuals
