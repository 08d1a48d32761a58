import math
import tracemalloc

import numpy as np
import pytest

from levyfield import burgers, sine
from levyfield._rng import stream
from levyfield.burgers import (
    AprioriConstants,
    StepSizeError,
    _half_square_against_gradient,
    _joint_ou_noise_paths,
    _nonlinear_blocks,
    _transport_coefficients,
    check_apriori,
    solve_modified_burgers,
    solve_stochastic_burgers,
    weak_residual,
)
from levyfield.noise import CylindricalWienerSpec, LevyNoiseSpec
from levyfield.sine import cos_coefficients, l4_norm4, sine_coefficients, sine_values
from levyfield.subordinator import PathBatch, SubordinatorSpec, simulate_paths


# -- spectral plumbing ---------------------------------------------------


def test_sine_roundtrip():
    rng = stream(1)
    vals = rng.standard_normal(63)
    assert np.allclose(sine_values(sine_coefficients(vals)), vals, atol=1e-12)


def test_l4_norm_of_single_mode():
    # int_0^1 (sqrt2 sin(pi x))^4 dx = 4 * 3/8 = 1.5; the rectangle rule on
    # 32 cells is exact for a trigonometric polynomial of degree 4
    c = np.zeros(15)
    c[0] = 1.0
    assert l4_norm4(c) == pytest.approx(1.5, rel=1e-14)


@pytest.mark.parametrize("reused_work", [False, True])
@pytest.mark.parametrize("n", [15, 63, 255])
def test_transport_of_one_vector_is_bitwise_its_row_and_the_blocked_composition(n, reused_work):
    rng = stream(21, n)
    w = rng.standard_normal((5, n))
    kpi = np.arange(1, n + 1) * math.pi
    work = sine._work(w.shape)
    block = _transport_coefficients(w, kpi, work)
    # the kernel leaves w's values on the doubled grid in the work, and
    # |w|_L4^4 read from them is l4_norm4, bitwise
    assert np.array_equal(work[1], sine_values(w, 2 * (n + 1)))
    assert np.array_equal(sine._l4(work[1]), l4_norm4(w))
    # the step loop hands one work to every step
    held = sine._work((n,))
    for i in range(5):
        row = _transport_coefficients(w[i], kpi, held if reused_work else sine._work((n,)))
        assert np.array_equal(row, block[i])
        # the same square through the blocked public transforms
        ww = sine_values(w[i], 2 * (n + 1))
        assert np.array_equal(row, kpi * cos_coefficients(0.5 * ww * ww)[:n])


@pytest.mark.parametrize("shape", [(31,), (5, 31)], ids=str)
def test_transport_results_never_share_the_reused_work(shape):
    # the transforms write into the outputs the work holds; a result is a
    # new array, so the next call on the same work leaves it as it was
    w = stream(23, len(shape)).standard_normal((2,) + shape)
    kpi = np.arange(1, 32) * math.pi
    work = sine._work(shape)
    first = _transport_coefficients(w[0], kpi, work)
    kept = first.copy()
    second = _transport_coefficients(w[1], kpi, work)
    assert first.tobytes() == kept.tobytes()
    assert second.tobytes() == _transport_coefficients(w[1], kpi, sine._work(shape)).tobytes()
    for result in (first, second):
        assert not any(np.shares_memory(result, a) for a in work)


@pytest.mark.parametrize("block_rows", [1, 7, 64])
def test_nonlinear_blocks_are_bitwise_the_per_row_calls(monkeypatch, block_rows):
    # 71 rows: a multiple of none of the block sizes but 1, so the last
    # block reuses a part of the work
    zs = stream(24).standard_normal((71, 31)) / np.arange(1, 32)
    monkeypatch.setattr(burgers, "BLOCK_ROWS", block_rows)
    l4, nz = np.full(len(zs), np.nan), np.full(zs.shape, np.nan)
    for rows, block_l4, block_nz in _nonlinear_blocks(zs):
        assert rows.start % block_rows == 0
        assert len(block_l4) == len(block_nz) == min(block_rows, len(zs) - rows.start)
        l4[rows] = block_l4
        nz[rows] = block_nz
    assert l4.tobytes() == np.array([l4_norm4(z) for z in zs]).tobytes()
    kpi = np.arange(1, 32) * math.pi
    rows = [_transport_coefficients(z, kpi, sine._work(z.shape)) for z in zs]
    assert nz.tobytes() == np.array(rows).tobytes()


# -- deterministic solver ------------------------------------------------


def test_constant_data_equals_its_broadcast_array():
    n, T, dt = 31, 0.05, 1e-3
    rng = stream(22)
    v0, zc, gc = 0.3 * rng.standard_normal((3, n)) / np.arange(1, n + 1)
    const = solve_modified_burgers(v0, zc, gc, T=T, dt=dt)
    rows = np.tile(zc, (51, 1)), np.tile(gc, (51, 1))
    full = solve_modified_burgers(v0, *rows, T=T, dt=dt)
    for field in ("v_coeffs", "vprime_vprime"):
        assert np.array_equal(getattr(const, field), getattr(full, field)), field
    assert const.constants == full.constants


@pytest.mark.parametrize("shape", [(32,), (50, 31), (51, 1), (51, 31, 1), ()], ids=str)
@pytest.mark.parametrize("which", ["zs", "gs"])
def test_data_of_a_wrong_shape_is_refused(shape, which):
    n = 31
    data = {"zs": None, "gs": None, which: np.zeros(shape)}
    with pytest.raises(ValueError, match=which):
        solve_modified_burgers(np.zeros(n), **data, T=0.05, dt=1e-3)


@pytest.mark.parametrize("T, dt, message", [
    (0.05, 0.0, "dt must be"), (0.05, -1e-3, "dt must be"), (0.05, math.nan, "dt must be"),
    (math.inf, 1e-3, "T must be"), (0.0, 1e-3, "T must be"), (0.05, 0.03, "multiple of dt"),
])
def test_both_solvers_refuse_a_bad_time_grid(T, dt, message):
    n = 15
    with pytest.raises(ValueError, match=message):
        solve_modified_burgers(np.zeros(n), None, None, T=T, dt=dt)
    with pytest.raises(ValueError, match=message):
        solve_stochastic_burgers(np.zeros(n), burgers_noise(n), None, T=T, dt=dt)


@pytest.mark.parametrize("shape", [(51, 15), (1, 15), (16,), ()], ids=str)
def test_stochastic_solver_takes_only_a_constant_forcing(shape):
    # weak_residual integrates f as one vector, so a time-dependent f would
    # be solved with but not checked
    n = 15
    with pytest.raises(ValueError, match="f must be"):
        solve_stochastic_burgers(np.zeros(n), burgers_noise(n), np.zeros(shape),
                                 T=0.05, dt=1e-3)


@pytest.mark.parametrize("shape", [(2, 15), (1, 15), (0,), ()], ids=str)
def test_solvers_refuse_initial_data_that_is_not_one_vector(shape):
    # the mode count is read off the initial data
    with pytest.raises(ValueError, match="v0 must be a non-empty vector"):
        solve_modified_burgers(np.zeros(shape), None, None, T=0.05, dt=1e-3)
    with pytest.raises(ValueError, match="u0 must be a non-empty vector"):
        solve_stochastic_burgers(np.zeros(shape), burgers_noise(15), None, T=0.05, dt=1e-3)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["v0", "zs", "gs", "u0", "f"])
def test_both_solvers_refuse_non_finite_data(name, bad):
    # a NaN never trips the step guard |v|^2 > corridor: the solve would
    # return a NaN trajectory with NaN a priori constants
    n = 15
    data = {"v0": np.zeros(n), "zs": np.zeros((51, n)), "gs": np.zeros(n),
            "u0": np.zeros(n), "f": np.zeros(n)}
    data[name][-1] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        if name in ("u0", "f"):
            solve_stochastic_burgers(data["u0"], burgers_noise(n), data["f"], T=0.05, dt=1e-3)
        else:
            solve_modified_burgers(data["v0"], data["zs"], data["gs"], T=0.05, dt=1e-3)


@pytest.mark.parametrize("truncation", [14, 16])
def test_stochastic_solver_refuses_a_noise_of_another_truncation(truncation):
    with pytest.raises(ValueError, match="noise truncation"):
        solve_stochastic_burgers(np.zeros(15), burgers_noise(truncation), None, T=0.05, dt=1e-3)


def reference_constants(v0, zs, gs, times, end):
    """The a priori constants of v0 and of z, g (None or one row per grid
    time), with their integrals over ``times`` and the horizon ``end``."""
    lam = (np.arange(1, v0.size + 1) * math.pi) ** 2
    z_l4 = np.zeros(times.size) if zs is None else l4_norm4(zs)
    g_vp = np.zeros(times.size) if gs is None else (gs ** 2 / lam).sum(axis=1)
    return AprioriConstants.from_data(float(np.sqrt((v0 ** 2).sum())),
                                      float(np.trapezoid(z_l4, times)),
                                      float(np.trapezoid(g_vp, times)), end)


def per_step_modified_burgers(v0, zs, gs, T, dt, n):
    """Reference for solve_modified_burgers: one step per iteration, each with
    one sine transform of v and z stacked and one cosine transform, and
    |v'|^2_V' step by step.  Returns (v_coeffs, vprime_vprime,
    constants)."""
    n_steps = round(T / dt)
    times = dt * np.arange(n_steps + 1)
    lam = (np.arange(1, n + 1) * math.pi) ** 2
    decay = np.exp(-lam * dt)
    phi1 = (1.0 - decay) / lam
    zs = None if zs is None else np.broadcast_to(zs, (n_steps + 1, n))
    gs = None if gs is None else np.broadcast_to(gs, (n_steps + 1, n))
    c = reference_constants(v0, zs, gs, times, float(times[-1]))
    corridor = 10.0 * (c.K * c.L) ** 2 + 1e-12
    M2 = 2 * (n + 1)
    v = v0.copy()
    v_hist = np.empty((n_steps + 1, n))
    vp_hist = np.empty(n_steps + 1)
    v_hist[0] = v
    for i in range(n_steps + 1):
        if zs is None:
            vv = sine_values(v, M2)
            q = 0.5 * vv * vv
        else:
            vv, zz = sine_values(np.stack((v, zs[i])), M2)
            q = 0.5 * vv * vv + vv * zz
        rhs = np.arange(1, n + 1) * math.pi * cos_coefficients(q)[:n]
        if gs is not None:
            rhs += gs[i]
        vp_hist[i] = ((rhs - lam * v) ** 2 / lam).sum()
        if i == n_steps:
            break
        v = decay * v + phi1 * rhs
        if (v ** 2).sum() > corridor:
            raise StepSizeError(
                f"|v|^2 exceeded 10x the a priori bound at t={times[i + 1]:.4g}; "
                f"reduce dt (currently {dt:g})")
        v_hist[i + 1] = v
    return v_hist, vp_hist, c


def per_step_u_form_burgers(v0, zs, gs, T, dt, n):
    """Reference for the u-form steps: one step per iteration, each with one
    sine transform of v + z and one cosine transform, h = g - N(z) and
    |v'|^2_V' step by step.  Returns (v_coeffs, vprime_vprime,
    constants)."""
    n_steps = round(T / dt)
    times = dt * np.arange(n_steps + 1)
    lam = (np.arange(1, n + 1) * math.pi) ** 2
    decay = np.exp(-lam * dt)
    phi1 = (1.0 - decay) / lam
    zs = None if zs is None else np.broadcast_to(zs, (n_steps + 1, n))
    gs = None if gs is None else np.broadcast_to(gs, (n_steps + 1, n))
    c = reference_constants(v0, zs, gs, times, float(times[-1]))
    corridor = 10.0 * (c.K * c.L) ** 2 + 1e-12

    def transport(w):       # N(w) = -(w^2/2)_x
        ww = sine_values(w, 2 * (n + 1))
        return np.arange(1, n + 1) * math.pi * cos_coefficients(0.5 * ww * ww)[:n]

    v = v0.copy()
    v_hist = np.empty((n_steps + 1, n))
    vp_hist = np.empty(n_steps + 1)
    v_hist[0] = v
    for i in range(n_steps + 1):
        rhs = transport(v if zs is None else v + zs[i])
        if zs is not None:
            rhs += -transport(zs[i]) if gs is None else gs[i] - transport(zs[i])
        elif gs is not None:
            rhs += gs[i]
        vp_hist[i] = ((rhs - lam * v) ** 2 / lam).sum()
        if i == n_steps:
            break
        v = decay * v + phi1 * rhs
        if (v ** 2).sum() > corridor:
            raise StepSizeError(
                f"|v|^2 exceeded 10x the a priori bound at t={times[i + 1]:.4g}; "
                f"reduce dt (currently {dt:g})")
        v_hist[i + 1] = v
    return v_hist, vp_hist, c


def step_loop_data(z_kind, g_kind):
    """v0, zs and gs of 31 modes on 71 grid times, each z and g None, one
    constant vector or an array."""
    n = 31
    rng = stream(24)
    decay = 1.0 / np.arange(1, n + 1)
    v0 = 0.3 * rng.standard_normal(n) * decay
    data = {kind: (None if kind is None else
                   0.3 * rng.standard_normal(n if kind == "constant" else (71, n)) * decay)
            for kind in (None, "constant", "array")}
    return v0, data[z_kind], data[g_kind]


@pytest.mark.parametrize("block_rows", [1, 7, 64])
@pytest.mark.parametrize("z_kind", [None, "constant", "array"])
@pytest.mark.parametrize("g_kind", [None, "constant", "array"])
def test_blocked_step_loop_equals_the_per_step_loop(monkeypatch, block_rows, z_kind, g_kind):
    # 71 grid times: a multiple of none of the block sizes but 1
    n, T, dt = 31, 0.07, 1e-3
    v0, zs, gs = step_loop_data(z_kind, g_kind)
    want = per_step_u_form_burgers(v0, zs, gs, T, dt, n)
    monkeypatch.setattr(burgers, "BLOCK_ROWS", block_rows)
    got = solve_modified_burgers(v0, zs, gs, T=T, dt=dt)
    assert got.v_coeffs.tobytes() == want[0].tobytes()
    assert got.vprime_vprime.tobytes() == want[1].tobytes()
    assert got.constants == want[2]


def test_constants_are_built_on_the_grid_the_solve_ends_at():
    # 23 steps of 0.1 end at 2.3000000000000003, not at T = 2.3, and N moves
    # with the end: the constants and check_apriori both take the grid's end
    n = 31
    v0 = step_loop_data(None, None)[0]
    traj = solve_modified_burgers(v0, None, None, T=2.3, dt=0.1)
    c = traj.constants
    assert c == per_step_u_form_burgers(v0, None, None, 2.3, 0.1, n)[2]
    assert c.N != reference_constants(v0, None, None, traj.times, 2.3).N
    assert check_apriori(traj)["constants"] == {"K": c.K, "L": c.L, "M": c.M, "N": c.N}


@pytest.mark.parametrize("z_kind", [None, "constant", "array"])
@pytest.mark.parametrize("g_kind", [None, "constant", "array"])
def test_u_form_steps_match_the_v_form_loop(z_kind, g_kind):
    # N(v + z) + g - N(z) is -(vz)_x - (v^2/2)_x + g up to rounding
    n, T, dt = 31, 0.07, 1e-3
    v0, zs, gs = step_loop_data(z_kind, g_kind)
    want = per_step_modified_burgers(v0, zs, gs, T, dt, n)[0]
    got = solve_modified_burgers(v0, zs, gs, T=T, dt=dt).v_coeffs
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("block_rows", [1, 7, 64])
def test_unstable_step_raises_the_per_step_message(monkeypatch, block_rows):
    n = 255
    v0 = np.zeros(n)
    v0[0] = 40.0
    with pytest.raises(StepSizeError) as want:
        per_step_modified_burgers(v0, None, None, 0.2, 5e-3, n)
    monkeypatch.setattr(burgers, "BLOCK_ROWS", block_rows)
    with pytest.raises(StepSizeError) as got:
        solve_modified_burgers(v0, None, None, T=0.2, dt=5e-3)
    assert str(got.value) == str(want.value)


def test_zero_data_stays_zero():
    traj = solve_modified_burgers(np.zeros(31), None, None, T=0.1, dt=1e-3)
    assert np.all(traj.v_coeffs == 0.0)


def test_pure_burgers_energy_decay():
    n = 63
    v0 = np.zeros(n)
    v0[0] = 1.0 / math.sqrt(2.0)   # v(0) = sin(pi x)
    traj = solve_modified_burgers(v0, None, None, T=0.1, dt=1e-4)
    energy = (traj.v_coeffs ** 2).sum(axis=1)
    assert np.all(np.diff(energy) <= 1e-12)


def test_manufactured_solution_convergence_in_dt():
    # v*(t,x) = e^{-t} sin(pi x); g closes the equation including transport
    n = 63
    k = np.arange(1, n + 1)
    lam = (k * math.pi) ** 2
    z = np.zeros(n)
    z[1] = 0.2

    def v_star(t):
        out = np.zeros(n)
        out[0] = math.exp(-t) / math.sqrt(2.0)
        return out

    import sympy as sp
    t_, x_ = sp.symbols("t x")
    v_expr = sp.exp(-t_) * sp.sin(sp.pi * x_)
    z_expr = 0.2 * sp.sqrt(2) * sp.sin(2 * sp.pi * x_)
    g_expr = sp.diff(v_expr, t_) - sp.diff(v_expr, x_, 2) \
        + sp.diff(v_expr * z_expr + v_expr ** 2 / 2, x_)
    g_fn_x = sp.lambdify((t_, x_), g_expr, "numpy")
    grid = np.arange(1, n + 1) / (n + 1)

    def g(t):
        return sine_coefficients(g_fn_x(t, grid))

    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        times = dt * np.arange(round(0.2 / dt) + 1)
        gs = np.array([g(t) for t in times])
        traj = solve_modified_burgers(v_star(0.0), z, gs, T=0.2, dt=dt)
        errs.append(float(np.abs(traj.v_coeffs[-1] - v_star(0.2)).max()))
    order = math.log(errs[0] / errs[-1]) / math.log(4.0)
    assert order >= 0.9


def test_step_size_guard_trips():
    n = 255
    v0 = np.zeros(n)
    v0[0] = 40.0
    with pytest.raises(StepSizeError):
        solve_modified_burgers(v0, None, None, T=0.2, dt=5e-3)


# -- a priori bounds -----------------------------------------------------


def test_apriori_zero_z_g_reduces_to_energy_decay():
    n = 63
    v0 = np.zeros(n)
    v0[0] = 0.5
    traj = solve_modified_burgers(v0, None, None, T=0.2, dt=1e-3)
    rep = check_apriori(traj)
    assert rep["constants"]["K"] == pytest.approx(1.0)
    assert rep["constants"]["L"] == pytest.approx(0.5)
    # with z = g = 0 the first inequality is exactly the energy decay
    assert rep["bounds"]["sup_v_sq"]["lhs"] == pytest.approx(0.25, rel=1e-12)
    assert rep["bounds"]["sup_v_sq"]["pass"]
    assert rep["bounds"]["int_grad_sq"]["pass"]
    assert rep["bounds"]["int_v_l4"]["pass"]


def test_apriori_time_derivative_bound_has_a_gap_without_forcing():
    # the N constant has no term covering the diffusion part A v on its own,
    # so for pure decay from a large enough v0 the third inequality fails;
    # check_apriori must report that honestly instead of passing
    n = 63
    v0 = np.zeros(n)
    v0[0] = 0.5
    traj = solve_modified_burgers(v0, None, None, T=0.2, dt=1e-3)
    rep = check_apriori(traj)
    b = rep["bounds"]["int_vprime_sq"]
    assert b["lhs"] > b["rhs"]
    assert not b["pass"]
    assert not rep["all_pass"]


def test_apriori_bounds_on_smooth_instance():
    n = 63
    v0 = np.zeros(n); v0[0] = 0.3
    zc = np.zeros(n); zc[1] = 0.25
    gc = np.zeros(n); gc[2] = 0.2
    traj = solve_modified_burgers(v0, zc, gc, T=0.5, dt=1e-3)
    rep = check_apriori(traj)
    assert rep["all_pass"], rep


def test_apriori_forcing_scaling():
    n = 63
    v0 = np.zeros(n); v0[0] = 0.1
    gc = np.zeros(n); gc[1] = 0.2
    lam2 = (2 * math.pi) ** 2

    def consts(scale):
        traj = solve_modified_burgers(v0, None, scale * gc, T=0.3, dt=1e-3)
        rep = check_apriori(traj)
        return rep

    r1, r2 = consts(1.0), consts(2.0)
    # L^2 = |v0|^2 + 2 int |g|_V'^2: the forcing part scales by 4
    g1 = r1["constants"]["L"] ** 2 - 0.1 ** 2
    g2 = r2["constants"]["L"] ** 2 - 0.1 ** 2
    assert g2 == pytest.approx(4.0 * g1, rel=1e-9)
    assert r1["all_pass"] and r2["all_pass"]


def test_apriori_random_instances():
    rng = stream(77)
    n = 63
    for i in range(10):
        v0 = np.zeros(n); v0[rng.integers(0, 4)] = rng.uniform(-0.3, 0.3)
        zc = np.zeros(n); zc[rng.integers(0, 4)] = rng.uniform(-0.3, 0.3)
        gc = np.zeros(n); gc[rng.integers(0, 4)] = rng.uniform(-0.3, 0.3)
        traj = solve_modified_burgers(v0, zc, gc, T=0.5, dt=1e-3)
        assert check_apriori(traj)["all_pass"]


# -- stochastic solver ---------------------------------------------------


def burgers_noise(n, theta=0.25, w_scale=5.0, beta=0.75):
    k = np.arange(1, n + 1)
    w = w_scale * (k * math.pi) ** theta
    return LevyNoiseSpec(CylindricalWienerSpec(w), SubordinatorSpec.stable(beta))


def cell_by_cell_ou_noise_paths(lam, inv_w, zpath, times, seed):
    """Reference for _joint_ou_noise_paths: one cell per iteration, each
    drawing its OU innovation eta; z at every grid time, and Y at the last
    as sum_i b_i eta_i plus one Gaussian of variance sum_i r_i^2 per mode."""
    rng = stream(seed, 1)
    n = lam.size
    z = np.zeros(n)
    y_mean = np.zeros(n)
    y_var = np.zeros(n)
    z_hist = np.empty((times.size, n))
    t_prev = 0.0
    for i, t in enumerate(times):
        dtc = t - t_prev
        if dtc > 0:
            slope = zpath.drift_slope
            dz_cell = zpath.increments([t_prev, t])[0, 0]
            v_dy = dz_cell * np.ones(n)
            v_eta = slope * (1.0 - np.exp(-2.0 * lam * dtc)) / (2.0 * lam)
            cov = slope * (1.0 - np.exp(-lam * dtc)) / lam
            k0 = np.searchsorted(zpath.times, t_prev, side="right")
            k1 = np.searchsorted(zpath.times, t, side="right")
            if k1 > k0:
                e1 = np.exp(-np.multiply.outer(lam, t - zpath.times[k0:k1]))
                v_eta = v_eta + (e1 ** 2 * zpath.sizes[k0:k1]).sum(axis=1)
                cov = cov + (e1 * zpath.sizes[k0:k1]).sum(axis=1)
            v_dy = v_dy * inv_w ** 2
            v_eta = v_eta * inv_w ** 2
            cov = cov * inv_w ** 2
            eta = np.sqrt(v_eta) * rng.standard_normal(n)
            with np.errstate(invalid="ignore", divide="ignore"):
                b = np.where(v_eta > 0, cov / np.where(v_eta > 0, v_eta, 1.0), 0.0)
                resid = np.maximum(v_dy - b * cov, 0.0)
            y_mean = y_mean + b * eta
            y_var = y_var + resid
            z = np.exp(-lam * dtc) * z + eta
        z_hist[i] = z
        t_prev = t
    return z_hist, y_mean + np.sqrt(y_var) * rng.standard_normal(n)


def burgers_cli_path(seed):
    """The path of Z and the noise of the `burgers` experiment at its defaults."""
    noise = burgers_noise(255)
    zpath = simulate_paths(noise.subordinator.truncated(1e-3), 0.2, 1, stream(seed))
    return noise, zpath


HAND_TIMES = 0.01 * np.arange(51)
# a jump exactly at a grid time, two jumps in the cell (0.12, 0.13] and one
# after the last grid time
HAND_PATH = PathBatch(horizon_T=1.0, drift_slope=0.3, offsets=np.array([0, 4]),
                      times=np.array([HAND_TIMES[5], 0.123, 0.127, 0.9]),
                      sizes=np.array([0.4, 0.05, 1.2, 2.0]))
UNEVEN_TIMES = np.sort(np.concatenate([stream(23).uniform(0.0, 0.2, 150),
                                       HAND_TIMES[:21:4], [0.07, 0.07]]))


@pytest.mark.parametrize("case", ["default-grid", "odd-length", "late-start", "uneven",
                                  "hand-built-jumps", "no-jumps", "no-noise"])
def test_blocked_ou_noise_paths_equal_the_cell_by_cell_draw(monkeypatch, case):
    if case == "default-grid":
        noise, zpath = burgers_cli_path(1)
        times = 1e-4 * np.arange(2001)
    else:
        noise, zpath = burgers_noise(31), burgers_cli_path(2)[1]
        times = {"odd-length": 1e-3 * np.arange(131),
                 "late-start": 0.05 + 1e-3 * np.arange(100),
                 "uneven": UNEVEN_TIMES}.get(case, HAND_TIMES)
        if case == "hand-built-jumps":
            zpath = HAND_PATH
        elif case in ("no-jumps", "no-noise"):
            slope = 0.5 if case == "no-jumps" else 0.0
            zpath = PathBatch(horizon_T=1.0, drift_slope=slope, offsets=np.array([0, 0]),
                              times=np.array([]), sizes=np.array([]))
    n = noise.wiener.truncation_N
    lam = (np.arange(1, n + 1) * math.pi) ** 2
    inv_w = 1.0 / noise.wiener.hilbert_weights
    want = cell_by_cell_ou_noise_paths(lam, inv_w, zpath, times, seed=5)
    for block_rows in (1, 7, 64):
        monkeypatch.setattr(burgers, "BLOCK_ROWS", block_rows)
        got = _joint_ou_noise_paths(lam, inv_w, zpath, times, seed=5)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes(), block_rows


@pytest.mark.parametrize("cells", [13, 50])
def test_noise_path_has_the_joint_law_of_z_and_y_at_the_last_time(cells):
    # given the path of Z, over the Gaussian draws of independent seeds:
    # Var Y_k(T) = w_k^-2 Z(T), Cov(z_k(T), Y_k(T)) = w_k^-2 int e^(-lam_k (T-s)) dZ(s)
    # and Var z_k(T) = w_k^-2 int e^(-2 lam_k (T-s)) dZ(s).  At T = 0.13 the
    # two jumps of the last cell make z_1(T) and Y_1(T) nearly collinear; in
    # mode 25 a cell's innovation explains little of its increment, so most
    # of Var Y_25(T) is the one draw after the cells
    k = np.array([1, 5, 25])
    lam = (k * math.pi) ** 2
    inv_w = 1.0 / burgers_noise(25).wiener.hilbert_weights[k - 1]
    times = HAND_TIMES[:cells + 1]
    T = times[-1]
    draws = [_joint_ou_noise_paths(lam, inv_w, HAND_PATH, times, seed) for seed in range(2000)]
    z = np.array([z_hist[-1] for z_hist, _ in draws])
    y = np.array([y_final for _, y_final in draws])
    before = HAND_PATH.times <= T
    age, sizes = T - HAND_PATH.times[before], HAND_PATH.sizes[before]
    slope = HAND_PATH.drift_slope
    e1 = np.exp(-np.multiply.outer(lam, age))
    want = {
        "var_y": inv_w ** 2 * (slope * T + sizes.sum()),
        "cov_zy": inv_w ** 2 * (slope * (1.0 - np.exp(-lam * T)) / lam + e1 @ sizes),
        "var_z": inv_w ** 2 * (slope * (1.0 - np.exp(-2.0 * lam * T)) / (2.0 * lam)
                               + e1 ** 2 @ sizes),
    }
    for name, products in (("var_y", y * y), ("cov_zy", z * y), ("var_z", z * z)):
        mean = products.mean(axis=0)
        se = products.std(axis=0) / math.sqrt(len(products))
        assert np.all(np.abs(mean - want[name]) <= 4.0 * se), (name, mean, want[name], se)


@pytest.mark.parametrize("n", [5, 31, 255])
def test_closed_form_nonlinear_term_matches_the_transport_transform(n):
    rng = stream(25, n)
    u = rng.standard_normal((6, n)) / np.arange(1, n + 1)
    modes = sorted({1, 3, 5, n})
    want = _transport_coefficients(u, np.arange(1, n + 1) * math.pi, sine._work(u.shape))
    want = want[:, [k - 1 for k in modes]]
    got = _half_square_against_gradient(u, modes)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    for k in (0, n + 1):
        with pytest.raises(ValueError, match="test mode"):
            _half_square_against_gradient(u, [k])


def test_stochastic_solve_holds_no_more_than_its_outputs_and_g():
    # u and z are returned, v becomes u in place, Y is kept at T alone and g
    # is never stored; every other temporary is a row block.  At these sizes
    # the peak is 2.21 trajectories (seed 1).  A short solve first loads the
    # modules the solve imports on first use, which are not its holdings.
    n = 255
    u0 = np.zeros(n); u0[0] = 0.2
    f = np.zeros(n); f[1] = 0.1
    trajectory_bytes = 2001 * n * 8
    solve_stochastic_burgers(u0, burgers_noise(n), f, T=1e-4, dt=1e-4, seed=1)
    tracemalloc.start()
    try:
        solve_stochastic_burgers(u0, burgers_noise(n), f, T=0.2, dt=1e-4, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.3 * trajectory_bytes


class CountingKernels:
    """sine's transform kernels ``_dst1`` and ``_dct1``, counting their calls."""

    def __init__(self):
        self.calls = 0

    def counted(self, kernel):
        def call(*args, **kwargs):
            self.calls += 1
            return kernel(*args, **kwargs)
        return call


@pytest.mark.parametrize("block_rows", [7, 64])
def test_stochastic_solve_stays_at_the_transform_floor(monkeypatch, block_rows):
    # one sine and one cosine transform per step and per block of z's rows:
    # a third transform per step exceeds the count, and a step transform
    # that goes round sine's kernels falls below it
    n, T, dt = 31, 0.05, 1e-3
    counter = CountingKernels()
    for name in ("_dst1", "_dct1"):
        monkeypatch.setattr(sine, name, counter.counted(getattr(sine, name)))
    monkeypatch.setattr(burgers, "BLOCK_ROWS", block_rows)
    u0 = np.zeros(n); u0[0] = 0.2
    res = solve_stochastic_burgers(u0, burgers_noise(n), None, T=T, dt=dt, seed=3)
    rows = res["times"].size
    assert rows == 51
    assert 2 * rows <= counter.calls <= 2 * rows + 2 * math.ceil(rows / block_rows)


def test_stochastic_zero_noise_matches_deterministic():
    n = 63
    u0 = np.zeros(n); u0[0] = 0.4
    f = np.zeros(n); f[1] = 0.1
    k = np.arange(1, n + 1)
    noise = LevyNoiseSpec(CylindricalWienerSpec(1e9 * np.ones(n)),
                          SubordinatorSpec.drift_only(1e-12))
    res = solve_stochastic_burgers(u0, noise, f, T=0.1, dt=1e-3, seed=0)
    det = solve_modified_burgers(u0, None, f, T=0.1, dt=1e-3)
    assert np.allclose(res["u_coeffs"][-1], det.v_coeffs[-1], atol=1e-6)


def test_stochastic_weak_residual_small():
    n = 127
    u0 = np.zeros(n); u0[0] = 0.2
    f = np.zeros(n); f[1] = 0.1
    res = solve_stochastic_burgers(u0, burgers_noise(n), f, T=0.1, dt=5e-4, seed=4)
    residuals = weak_residual(res, range(1, 6))
    assert len(residuals) == 5
    assert max(abs(r) for r in residuals) < 1e-3
    # the residual reads the forcing the solve stored: without it, residual
    # k moves by int (f, psi_k) = f_k T
    assert res["f"] is not None and np.array_equal(res["f"], f)
    unforced = weak_residual({**res, "f": None}, range(1, 6))
    assert np.allclose(np.subtract(unforced, residuals), f[:5] * 0.1, rtol=0.0, atol=1e-15)


def test_stochastic_certificate_finite():
    n = 63
    u0 = np.zeros(n); u0[0] = 0.2
    res = solve_stochastic_burgers(u0, burgers_noise(n), None, T=0.1, dt=1e-3, seed=7)
    cert = res["certificate"]
    assert np.isfinite(cert["sup_u_sq"]) and np.isfinite(cert["int_u_l4"])


def test_certificate_l4_integral_is_the_trajectory_l4_norm():
    # the steps' squares on the grid give int |u|_L4^4 without another transform
    n = 63
    u0 = np.zeros(n); u0[0] = 0.2
    f = np.zeros(n); f[1] = 0.1
    res = solve_stochastic_burgers(u0, burgers_noise(n), f, T=0.1, dt=1e-3, seed=7)
    want = float(np.trapezoid(l4_norm4(res["u_coeffs"]), res["times"]))
    assert res["certificate"]["int_u_l4"] == pytest.approx(want, rel=1e-13, abs=0.0)


def test_stochastic_determinism():
    n = 31
    u0 = np.zeros(n); u0[0] = 0.2
    a = solve_stochastic_burgers(u0, burgers_noise(n), None, T=0.05, dt=1e-3, seed=11)
    b = solve_stochastic_burgers(u0, burgers_noise(n), None, T=0.05, dt=1e-3, seed=11)
    assert np.array_equal(a["u_coeffs"], b["u_coeffs"])


def test_rough_z_fails_the_refinement_diagnostic():
    # z is large on odd steps and tiny on even ones, so int |z|_L4^4 on
    # every other grid point misses almost all of it
    n, dt = 15, 1e-3
    big, tiny = np.zeros(n), np.zeros(n)
    big[0], tiny[3] = 6.0, 1e-3
    zs = np.array([big if i % 2 else tiny for i in range(21)])
    with pytest.raises(RuntimeError, match="not stable under refinement"):
        solve_modified_burgers(np.zeros(n), zs, None, T=0.02, dt=dt)


def test_apriori_constants_formulas():
    c = AprioriConstants.from_data(v0_l2=2.0, int_z_l4=0.5, int_g_vp=1.0, T=1.0)
    assert c.K == pytest.approx(math.exp(0.5))
    assert c.L == pytest.approx(math.sqrt(4.0 + 2.0))
    assert c.M == pytest.approx(math.sqrt(4.0 + 9.0 * c.K * c.L * 0.5 + 1.0))
