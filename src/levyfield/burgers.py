"""1-d Burgers solvers on (0,1) with Dirichlet conditions.

The deterministic "modified" equation

    v_t + A v + (v z)_x + (v^2/2)_x = g,    v(0) = v0,

with A the Dirichlet Laplacian, is solved pseudo-spectrally in the
orthonormal sine basis sqrt(2) sin(k pi x), in its u-form: with
N(w) = -(w^2/2)_x its transport and g are N(v + z) + h, h = g - N(z), so
a step transports the one field v + z.  Diffusion is integrated exactly
per mode (exponential Euler), and the transport by one call of a held
``sine._transport_kernel`` on sine's doubled grid; only ``sine`` knows
that grid, its padding and scales (exact dealiasing for quadratic
products).  The stochastic Burgers equation du + [Au + B(u)]dt = f dt + dY,
with f one constant vector, is solved pathwise as u = v + z with z the
sampled OU convolution of the noise and g = f - (z^2/2)_x, which is the
same construction the a priori estimates are stated for; in the u-form
its h is f itself.  Both solvers read the mode count off the initial
data.  The weak residual checks a solve with the forcing its result
holds, and takes its nonlinear term in closed form from the sine
coefficients, not through the solver's transforms.  It is v's equation,
from which the noise Y cancels against z's own OU identity, so the
stochastic solver draws z alone, never Y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from ._rng import stream
from .noise import LevyNoiseSpec
from .sine import BLOCK_ROWS, _grid, _l4, _transport_kernel, by_blocks, l4_norm4
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


def _heat_eigenvalues(n_modes: int) -> np.ndarray:
    """The eigenvalues (k pi)^2, k = 1..n_modes, of A on the sine basis."""
    return (np.arange(1, n_modes + 1) * math.pi) ** 2


def _nonlinear_blocks(zs: np.ndarray) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """(rows, |z|_L4^4, N(z)) of each block of BLOCK_ROWS rows of the sine
    coefficients ``zs``, with rows the block's slice of ``zs``: one sine
    transform puts the block on the grid, and its values serve both."""
    for lo in range(0, len(zs), BLOCK_ROWS):
        block = zs[lo:lo + BLOCK_ROWS]
        if lo == 0 or len(block) < BLOCK_ROWS:
            coef, transport = _transport_kernel(block.shape)
            values = np.empty(_grid(block.shape))
        coef[...] = block
        nz = transport(values, np.empty(block.shape))
        yield slice(lo, lo + len(block)), _l4(values), nz


@dataclass(frozen=True)
class AprioriConstants:
    """The four constants of the modified-equation energy estimates.

    K^2 = exp(2 int |z|_L4^4), L^2 = |v0|^2 + 2 int |g|_V'^2,
    M^2 = |v0|^2 + 9KL int |z|_L4^4 + int |g|_V'^2,
    N   = M + |g|_L2(V') + 2KLM |z|^2_L4(L4) + (T^(1/4)/sqrt2) K^(3/2) L^(1/2):
    |v'|_L2(V') <= |Av|_L2(V') + |v' + Av|_L2(V'), and |Av|_L2(V') <= M.
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
            N = M + math.sqrt(int_g_vp) + 2.0 * K * L * M * math.sqrt(int_z_l4) \
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

    The steps go BLOCK_ROWS at a time, each block by ``zip`` over lists
    of its rows (v, the next v, z, h, right-hand side, grid values), so no
    step indexes an array.  A step writes v + z into the input of a held
    ``sine._transport_kernel``, whose one call writes the step's grid values
    and right-hand side, and allocates no array.  Once per block |v'|^2_V'
    comes from the right-hand sides and |v + z|_L4^4 from the grid values.
    """
    n_modes = v0.size
    shape = (times.size, n_modes)
    lam = _heat_eigenvalues(n_modes)
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

    # v + 0 is v up to the sign of a zero, which the transport squares away
    zs = np.broadcast_to(np.zeros(n_modes) if zs is None else zs, shape)
    h = [None] * times.size if h is None else np.broadcast_to(h, shape)
    v_hist = np.empty(shape)
    vp_hist = np.empty(times.size)
    w_l4 = np.empty(times.size)
    v_hist[0] = v0
    rhs = np.empty((min(BLOCK_ROWS, times.size), n_modes))
    grid = np.empty(_grid(rhs.shape))    # the grid values of a block of steps
    rhs_rows, grid_rows = list(rhs), list(grid)
    push = np.empty(n_modes)       # phi1 times the right-hand side
    coef, transport = _transport_kernel((n_modes,))
    for lo in range(0, times.size, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, times.size)
        steps = zip(range(lo, hi), list(v_hist[lo:hi]), list(v_hist[lo + 1:hi + 1]) + [None],
                    list(zs[lo:hi]), list(h[lo:hi]), rhs_rows, grid_rows)
        for i, v, v_next, z, g, r, values in steps:
            np.add(v, z, out=coef)
            transport(values, r)
            if g is not None:
                r += g
            if v_next is None:     # the last grid time
                break
            np.multiply(decay, v, out=v_next)
            v_next += np.multiply(phi1, r, out=push)
            if v_next @ v_next > corridor:
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
    lam = _heat_eigenvalues(n_modes)

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
    lam = _heat_eigenvalues(traj.n_modes)

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


def _ou_noise_path(lam: np.ndarray, inv_w: np.ndarray, zpath: PathBatch,
                   times: np.ndarray, seed: int) -> np.ndarray:
    """Exact draw of the OU path z of the noise at every grid time.

    Cell i is (times[i-1], times[i]], with times[-1] taken as 0.  Per cell
    and mode the OU innovation eta is Gaussian with
    Var(eta) = w^-2 int e^(-2 lam (t'-s)) dZ, closed-form over the cell's
    jumps.  A cell without jumps has dZ = slope * length, so its variance
    depends on its length alone: it is computed once per distinct cell
    length (13 for the 2,000 cells of dt * (0, 1, ..., 2000), which round
    differently), in a table whose rows the cells gather.  A cell with jumps
    adds its jump sums to its length's row; the table holds no row per jump,
    so its size does not grow with the number of jumps.

    The cells are taken BLOCK_ROWS at a time, one Gaussian per cell and
    mode from ``stream(seed, 1)``, so the draws and z_i = e^(-lam dt_i)
    z_(i-1) + eta_i, cell after cell, do not depend on the block size.  A
    cell of zero length draws nothing and keeps the z before it.
    """
    n = lam.size
    z_hist = np.empty((times.size, n))
    rng = stream(seed, 1)
    inv_w2 = inv_w ** 2
    edges = np.concatenate(([0.0], times))
    dtc = np.diff(edges)
    # the jumps of cell i are zpath.times[starts[i]:starts[i] + counts[i]]
    (starts,), (counts,) = zpath.cells(edges)
    drawn = dtc > 0
    lengths, length_row = np.unique(dtc[drawn], return_inverse=True)
    row = np.zeros(times.size, dtype=int)
    row[drawn] = length_row
    d = lengths[:, None]
    decay = np.exp(-lam * d)
    v_eta = zpath.drift_slope * (1.0 - np.exp(-2.0 * lam * d)) / (2.0 * lam)
    sd = np.sqrt(v_eta * inv_w2)
    z, z_rows, decay_rows = np.zeros(n), list(z_hist), list(decay)
    for lo in range(0, times.size, BLOCK_ROWS):
        cells = lo + np.flatnonzero(drawn[lo:lo + BLOCK_ROWS])
        rows = row[cells]
        sd_c = sd[rows]
        for j in np.flatnonzero(counts[cells]).tolist():
            c = cells[j]
            jumps = slice(starts[c], starts[c] + counts[c])
            e1 = np.exp(-np.multiply.outer(lam, times[c] - zpath.times[jumps]))
            sd_c[j] = np.sqrt((v_eta[rows[j]] + (e1 ** 2 * zpath.sizes[jumps]).sum(axis=1))
                              * inv_w2)
        eta = rng.standard_normal((cells.size, n))
        eta *= sd_c
        # z_i = decay z_(i-1) + eta_i, cell after cell, into the rows of z_hist
        for zi, r, e in zip([z_rows[i] for i in cells.tolist()], rows.tolist(), eta):
            np.multiply(decay_rows[r], z, zi)
            np.add(zi, e, zi)
            z = zi
    for i in np.flatnonzero(~drawn).tolist():
        z_hist[i] = z_hist[i - 1] if i else 0.0
    return z_hist


def solve_stochastic_burgers(
    u0: np.ndarray,
    noise: LevyNoiseSpec,
    f: np.ndarray,
    T: float,
    dt: float,
    seed: int = 0,
) -> dict:
    """Pathwise solution of du + [Au + B(u)]dt = f dt + dY via the OU shift.

    z is the sampled stochastic convolution of the noise under the heat
    semigroup (lambda_k = (k pi)^2); v solves the modified equation with
    g = f - (z^2/2)_x and the solution is u = v + z.  Returns a dict of the
    grid ``times``, the sine coefficients ``u_coeffs`` of u and
    ``z_coeffs`` of z at every grid time, the forcing ``f`` and the
    solution ``certificate`` sup_t |u|^2, int |u|_L4^4 dt.  The noise Y
    itself is not drawn: ``weak_residual`` checks v's equation, in which
    it does not appear.  The path of Z, of the law ``jump_law`` of the
    noise's subordinator, comes from ``stream(seed)``, the Gaussian draws
    of z from ``stream(seed, 1)``.  ``u0`` is a vector of n_modes >= 1
    sine coefficients, the noise is truncated at n_modes, and ``f`` is
    one time-independent vector of n_modes coefficients, the form
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
    f = _initial("f", f)
    if f.size != n_modes:
        raise ValueError(f"f must be one vector of shape ({n_modes},), not {f.shape}")
    lam = _heat_eigenvalues(n_modes)
    zpath = simulate_paths(jump_law(noise.subordinator), T, 1, stream(seed))
    z_hist = _ou_noise_path(lam, 1.0 / noise.wiener.hilbert_weights, zpath, times, seed)

    z_l4, g_vp = np.empty(times.size), np.empty(times.size)
    for rows, l4, g in _nonlinear_blocks(z_hist):
        z_l4[rows] = l4
        g += f
        g_vp[rows] = (g ** 2 / lam).sum(axis=1)

    traj, u_l4 = _u_form_steps(u0 - z_hist[0], z_hist, f, z_l4, g_vp, dt, times)
    u_hist = traj.v_coeffs
    u_hist += z_hist
    u_l2sq = by_blocks(lambda u: (u ** 2).sum(axis=1), u_hist)
    certificate = {"sup_u_sq": float(u_l2sq.max()),
                   "int_u_l4": float(np.trapezoid(u_l4, times))}
    return {"times": times, "u_coeffs": u_hist, "z_coeffs": z_hist, "f": f,
            "certificate": certificate}


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
    """Residuals of the weak identity against psi_k = sqrt(2) sin(k pi x), one
    per test mode k in ``test_modes``, of a ``solve_stochastic_burgers``
    result with the forcing f it was solved with.

    The weak form of du + [Au + B(u)]dt = f dt + dY against psi_k is
    u_k(t) - u_k(0) + lam_k int u_k - 1/2 int (u^2, d/dx psi_k) - f_k t = Y_k(t),
    and z = u - v satisfies z_k(t) - z_k(0) + lam_k int z_k = Y_k(t) exactly,
    its own OU identity.  Their difference holds no Y:

        v_k(T) - v_k(0) + lam_k int v_k - 1/2 int (u^2, d/dx psi_k) - f_k T,

    at the final grid time T, which is the residual returned.  So the
    check is v's modified equation, with z entering through u^2 and
    through v = u - z.  Time integrals take the trapezoid rule on the
    solver grid, over v, which is smooth, not over the rough z.  The
    nonlinear term is computed in closed form from the sine coefficients of
    u, so the check shares no transform code with the solver it checks.
    """
    times = result["times"]
    u = result["u_coeffs"]
    z = result["z_coeffs"]
    f = result["f"]
    modes = [int(k) for k in test_modes]
    q = _half_square_against_gradient(u, modes)
    lam = _heat_eigenvalues(u.shape[1])
    residuals = []
    for j, k in enumerate(modes):
        c = k - 1
        v = u[:, c] - z[:, c]
        int_lap = float(np.trapezoid(-lam[c] * v, times))   # int (v, Lap psi_k)
        int_nl = float(np.trapezoid(q[:, j], times))
        int_f = float(f[c]) * float(times[-1])
        residuals.append(float(v[-1] - v[0] - int_lap - int_nl - int_f))
    return residuals
