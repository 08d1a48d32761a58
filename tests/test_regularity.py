import math

import numpy as np
import pytest

from levyfield import regularity
from levyfield._rng import stream
from levyfield.noise import CylindricalWienerSpec, LevyNoiseSpec, increment_coefficients
from levyfield.regularity import (
    MAX_CIRCLE_CELLS,
    CirclePath,
    blowup_probe,
    circle_convolution,
    estimate_holder,
    fourier_profile,
    holder_from_values,
    scalar_levy_jumps,
    time_integrability,
)
from levyfield.spaces import SpaceSpec
from levyfield.spectral import SpectralOperator, convolution_variances_batch, sample_trajectory
from levyfield.subordinator import JUMP_CUTOFF, SubordinatorSpec, jump_law, simulate_paths


def make_noise(sub, n):
    return LevyNoiseSpec(CylindricalWienerSpec(np.ones(n)), sub)


# -- Hoelder estimation --------------------------------------------------


def test_holder_sanity_on_cusp_functions():
    # deterministic f(x) = |x - x0|^h must be recovered within 0.1
    M = 4096
    x = np.arange(1, M) / M
    for h in (0.25, 0.5, 0.75):
        f = np.abs(x - 0.5) ** h
        est = holder_from_values(f)["delta_hat"]
        assert abs(est - h) <= 0.1, (h, est)


def test_holder_smooth_mode_saturates_near_one():
    op = SpectralOperator.dirichlet(1, 1.0, 4)
    c = np.zeros(4)
    c[0] = 1.0
    est = estimate_holder(c, op, 2048)["delta_hat"]
    assert est > 0.9


def test_holder_gaussian_field_near_half():
    # drift-only noise under the heat semigroup: critical exponent 0.5
    N, M = 1024, 2048
    op = SpectralOperator.dirichlet(1, 1.0, N)
    noise = make_noise(SubordinatorSpec.drift_only(1.0), N)
    vals = []
    for s in range(10):
        batch = simulate_paths(noise.subordinator, 1.0, 1, stream(s))
        c = sample_trajectory(op, noise, batch, (1.0,), stream(100 + s))[0, 0]
        vals.append(estimate_holder(c, op, M)["delta_hat"])
    assert abs(np.mean(vals) - 0.5) <= 0.15


def test_holder_white_coefficient_comparison_oracle():
    # independent mode coefficients with variance lambda_j^-1 mimic the
    # stationary Gaussian field; estimate stays near the 0.5 boundary
    N, M = 1024, 2048
    op = SpectralOperator.dirichlet(1, 1.0, N)
    vals = []
    for s in range(10):
        c = stream(50, s).standard_normal(N) / np.sqrt(op.lambdas)
        vals.append(estimate_holder(c, op, M)["delta_hat"])
    assert abs(np.mean(vals) - 0.5) <= 0.15


def test_holder_requires_dyadic_grid():
    with pytest.raises(ValueError):
        holder_from_values(np.zeros(100))
    with pytest.raises(ValueError):
        holder_from_values(np.ones(7))   # constant: no usable scales


# -- trajectories and time integrability ---------------------------------


def test_trajectory_matches_marginal_variances():
    # at each grid time the marginal variance of the recursion equals the
    # closed-form convolution variance
    N = 4
    op = SpectralOperator.dirichlet(1, 1.0, N)
    noise = make_noise(SubordinatorSpec.stable(0.5), N)
    batch = simulate_paths(noise.subordinator.truncated(1e-3), 1.0, 1, stream(3))
    times = np.array([0.3, 0.6, 1.0])
    mc = 4000
    acc = np.zeros((times.size, N))
    for m in range(mc):
        acc += sample_trajectory(op, noise, batch, times, stream(m))[0] ** 2
    emp = acc / mc
    for i, t in enumerate(times):
        v = convolution_variances_batch(op, batch, float(t))[0]
        assert np.allclose(emp[i], v, rtol=0.15)


def _per_cell_trajectory(op, noise, zpath, times, rng):
    """The per-cell loop that sample_trajectory was for one path before it
    summed cells in blocks: a cell's variance adds its jumps' terms in time
    order, then the slope term."""
    lam = op.lambdas
    inv_w = 1.0 / noise.wiener.hilbert_weights
    out = np.empty((times.size, lam.size))
    x = np.zeros(lam.size)
    t_prev = 0.0
    for i, t in enumerate(times):
        dt = t - t_prev
        if dt > 0:
            var = zpath.drift_slope * (1.0 - np.exp(-2.0 * lam * dt)) / (2.0 * lam)
            k0 = np.searchsorted(zpath.times, t_prev, side="right")
            k1 = np.searchsorted(zpath.times, t, side="right")
            if k1 > k0:
                jumps = -0.0
                for tau, size in zip(zpath.times[k0:k1], zpath.sizes[k0:k1]):
                    jumps = jumps + np.exp(-2.0 * (lam * (t - tau))) * size
                var = jumps + var
            x = np.exp(-lam * dt) * x + np.sqrt(var) * inv_w * rng.standard_normal(lam.size)
        out[i] = x
        t_prev = t
    return out


@pytest.mark.parametrize("sub", [SubordinatorSpec.stable(0.5), SubordinatorSpec.drift_only(0.3)])
@pytest.mark.parametrize("n_times", [1, 3, 512, 2049])
@pytest.mark.parametrize("from_zero", [False, True])
def test_trajectory_is_bitwise_the_per_cell_loop(sub, n_times, from_zero):
    # a batch of several paths draws path after path from one generator;
    # n_times = 1 gives the one-point grids [0.0] and [1.0]
    op = SpectralOperator.dirichlet(1, 1.0, 24)
    noise = LevyNoiseSpec(CylindricalWienerSpec(np.linspace(1.0, 3.0, 24)), sub)
    times = np.linspace(0.0 if from_zero else 1.0 / n_times, 1.0, n_times)
    for n_paths in (1, 3):
        zp = simulate_paths(jump_law(sub), 1.0, n_paths, stream(2))
        got = sample_trajectory(op, noise, zp, times, stream(9))
        assert got.shape == (n_paths, n_times, 24)
        rng = stream(9)
        for p in range(n_paths):
            ref = _per_cell_trajectory(op, noise, zp[p:p + 1], times, rng)
            assert np.array_equal(got[p], ref), (n_paths, p)


def test_one_time_draws_are_bitwise_the_per_cell_loop():
    # one-point grids on a 2-d operator too, over paths with no jump and
    # paths with more than 40
    jumps = set()
    for op in (SpectralOperator.dirichlet(1, 1.0, 16), SpectralOperator.dirichlet(2, 0.75, 5)):
        noise = LevyNoiseSpec(CylindricalWienerSpec(np.linspace(1.0, 2.0, op.n_modes)),
                              SubordinatorSpec.stable(0.5))
        for seed in range(15):
            for eps in (1e-1, 1e-4):
                batch = simulate_paths(noise.subordinator.truncated(eps), 1.0, 1, stream(seed))
                jumps.add(batch.times.size)
                for t in (0.0, 0.45, 1.0):
                    got = sample_trajectory(op, noise, batch, (t,), stream(seed + 100))
                    ref = _per_cell_trajectory(op, noise, batch, np.array([t]),
                                               stream(seed + 100))
                    assert np.array_equal(got[0], ref), (op.dim_d, seed, eps, t)
    assert min(jumps) == 0 and max(jumps) > 40


def test_time_integrability_zero_noise():
    rep = time_integrability(np.zeros((3, 16)), 1.0, p=4.0)
    assert rep["mean_integral"][-1] == 0.0
    with pytest.raises(ValueError, match="p must be positive"):
        time_integrability(np.zeros((3, 16)), 1.0, p=float("nan"))
    for T in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="T must be finite and positive"):
            time_integrability(np.zeros((3, 16)), T, p=4.0)
    with pytest.raises(ValueError, match="shape"):
        time_integrability(np.zeros(16), 1.0, p=4.0)


@pytest.mark.parametrize("n_times", [1, 2, 4])
def test_time_integrability_needs_two_dyadic_levels(n_times):
    with pytest.raises(ValueError, match="at least 8 grid times"):
        time_integrability(np.zeros((3, n_times)), 1.0, p=4.0)
    assert time_integrability(np.ones((3, 8)), 1.0, p=2.0)["mesh_cells"] == [4, 8]


def test_time_integrability_closed_form_on_a_linear_norm():
    # norms t_k = kT/n: the level of m cells sums jT/m over j = 1..m, times T/m
    n, T = 64, 2.5
    rep = time_integrability(np.tile(T * np.arange(1, n + 1) / n, (2, 1)), T, p=1.0)
    assert rep["mesh_cells"] == [4, 8, 16, 32, 64]
    for m, got in zip(rep["mesh_cells"], rep["mean_integral"]):
        assert got == pytest.approx(T ** 2 * (m + 1) / (2 * m), rel=1e-14), m


def test_time_integrability_stabilizes_for_ou():
    N = 64
    op = SpectralOperator.dirichlet(1, 1.0, N)
    noise = make_noise(SubordinatorSpec.stable(0.75), N)
    batch = simulate_paths(noise.subordinator.truncated(1e-3), 1.0, 4, stream(0, 1))
    coeffs = sample_trajectory(op, noise, batch, np.arange(1, 513) / 512, stream(0, 2))
    rep = time_integrability(SpaceSpec(2.0, np.ones(N)).norm(coeffs), 1.0, p=2.0)
    assert rep["stabilization"] < 0.05
    assert np.all(np.isfinite(rep["per_path_final"]))


# -- blow-up probe -------------------------------------------------------


def test_blowup_detected_in_small_space():
    Nmax = 1024
    op = SpectralOperator.dirichlet(1, 1.0, Nmax)
    noise = make_noise(SubordinatorSpec.stable(0.5), Nmax)
    j = np.arange(1.0, Nmax + 1)
    F = SpaceSpec(2.0, j)            # sum (F/H ratio)^2 = sum j^2 = inf
    U = SpaceSpec(2.0, 1.0 / j)
    truncs = [2 ** k for k in range(6, 11)]
    for seed in range(5):
        rep = blowup_probe(op, noise, F, truncs, seed=seed, threshold=0.05,
                           u_space=U)
        if rep["conclusive"]:
            break
    assert rep["conclusive"]
    assert rep["growth_slope"] > 0.1
    assert rep["blowup_detected"]
    assert np.all(np.diff(rep["sup_F"]) >= 0)          # monotone in N
    u = rep["u_norm_of_mark"]
    assert max(u) <= 2.0 * min(u)                      # mark lives in U


def test_blowup_bounded_in_matching_space():
    Nmax = 1024
    op = SpectralOperator.dirichlet(1, 1.0, Nmax)
    noise = make_noise(SubordinatorSpec.stable(0.5), Nmax)
    # weights 1/j: sum of squared weight ratios converges, so the jump mark
    # has a finite F-norm and the sup saturates across truncations
    F = SpaceSpec(2.0, 1.0 / np.arange(1.0, Nmax + 1))
    rep = blowup_probe(op, noise, F, [2 ** k for k in range(6, 11)],
                       seed=1, threshold=0.05, u_space=F)
    assert rep["conclusive"]
    assert not rep["blowup_detected"]


def test_blowup_inconclusive_without_jumps():
    Nmax = 64
    op = SpectralOperator.dirichlet(1, 1.0, Nmax)
    noise = make_noise(SubordinatorSpec.drift_only(1.0), Nmax)
    E = SpaceSpec(2.0, np.ones(Nmax))
    rep = blowup_probe(op, noise, E, [16, 32, 64], seed=0, u_space=E)
    assert not rep["conclusive"]


def test_blowup_inconclusive_when_no_mark_reaches_the_threshold():
    # the path jumps, but every mark's U-norm lies below the threshold
    Nmax = 64
    op = SpectralOperator.dirichlet(1, 1.0, Nmax)
    noise = make_noise(SubordinatorSpec.stable(0.5), Nmax)
    zp = simulate_paths(noise.subordinator.truncated(1e-3), 1.0, 1, stream(0))
    marks = increment_coefficients(noise, zp.sizes, stream(0, 1))
    assert zp.times.size > 0
    F = SpaceSpec(2.0, np.ones(Nmax))
    rep = blowup_probe(op, noise, F, [16, 32, 64], seed=0, u_space=F,
                       threshold=float(F.norm(marks).max()) * 1.01)
    assert rep == {"conclusive": False, "reason": "no jump reached the threshold"}


@pytest.mark.parametrize("threshold", [0.0, -1.0, math.nan])
def test_blowup_refuses_a_threshold_that_is_not_positive(threshold):
    Nmax = 64
    op = SpectralOperator.dirichlet(1, 1.0, Nmax)
    noise = make_noise(SubordinatorSpec.stable(0.5), Nmax)
    E = SpaceSpec(2.0, np.ones(Nmax))
    with pytest.raises(ValueError, match="threshold"):
        blowup_probe(op, noise, E, [16, 32, 64], seed=0, threshold=threshold, u_space=E)


def _per_truncation_probe(op, noise, F, N_sequence, seed, threshold, u_space):
    """The sups and mark norms of blowup_probe before it summed at the full
    truncation once, with the weighted norms written out."""
    zp = simulate_paths(noise.subordinator.truncated(1e-3), 1.0, 1, stream(seed))
    marks = increment_coefficients(noise, zp.sizes, stream(seed, 1))
    um = np.abs(marks) * u_space.weights
    big = (um ** u_space.exponent_q).sum(axis=-1) ** (1.0 / u_space.exponent_q) >= threshold
    times, marks = zp.times[big], marks[big]
    tau1 = float(times[0])
    sups, u_norms = [], []
    for N in N_sequence:
        lamN = op.lambdas[:N]
        fw = F.weights[:N]
        sup = 0.0
        for dt in np.geomspace(1e-9, 0.1, 40):
            t = tau1 + dt
            k = np.searchsorted(times, t, side="right")
            x2 = (np.exp(-np.multiply.outer(lamN, t - times[:k]))
                  * marks[:k, :N].T).sum(axis=1)
            wx = np.abs(x2) * fw
            sup = max(sup, float((wx ** F.exponent_q).sum() ** (1.0 / F.exponent_q)))
        sups.append(sup)
        mark = marks[0, :N]
        um = np.abs(mark) * u_space.weights[:N]
        u_norms.append(float((um ** u_space.exponent_q).sum() ** (1.0 / u_space.exponent_q)))
    return sups, u_norms


@pytest.mark.parametrize("q", [2.0, 1.0])
@pytest.mark.parametrize("weighted_u", [False, True])
def test_blowup_probe_matches_the_per_truncation_loop(q, weighted_u):
    Nmax = 512
    op = SpectralOperator.dirichlet(1, 1.0, Nmax)
    noise = make_noise(SubordinatorSpec.stable(0.5), Nmax)
    j = np.arange(1.0, Nmax + 1)
    F = SpaceSpec(q, j)
    U = SpaceSpec(q, 1.0 / j if weighted_u else np.ones(Nmax))
    truncs = [2 ** k for k in range(4, 10)]
    conclusive = 0
    for seed in range(6):
        rep = blowup_probe(op, noise, F, truncs, seed=seed, threshold=0.05, u_space=U)
        if rep["conclusive"]:
            conclusive += 1
            ref = _per_truncation_probe(op, noise, F, truncs, seed, 0.05, U)
            assert (rep["sup_F"], rep["u_norm_of_mark"]) == ref, seed
    assert conclusive >= 3


def test_space_prefix_keeps_exponent_and_weights():
    E = SpaceSpec(3.0, np.arange(1.0, 6.0))
    P = E.prefix(2)
    assert (P.exponent_q, P.weights.tolist()) == (3.0, [1.0, 2.0])
    assert E.prefix(5).dim == 5
    for n in (-1, 0, 6):
        with pytest.raises(ValueError):
            E.prefix(n)


@pytest.mark.parametrize("q", [float("nan"), math.inf, 0.5])
def test_space_exponent_refuses_nan_and_infinity(q):
    with pytest.raises(ValueError, match="exponent_q"):
        SpaceSpec(q, np.ones(3))


@pytest.mark.parametrize("bad", [math.inf, float("nan"), 0.0, -1.0])
def test_space_refuses_a_weight_that_is_not_positive_and_finite(bad):
    # an infinite weight made norm([1, 0]) NaN, from 0 * inf
    with pytest.raises(ValueError, match="positive and finite"):
        SpaceSpec(2.0, [1.0, bad])


# -- circle convolution --------------------------------------------------


def test_circle_constant_profile_gives_total_mass():
    times, incs = scalar_levy_jumps(SubordinatorSpec.stable(0.6), seed=2)
    prof = np.ones(257)
    cp = CirclePath(profile=prof, jump_times=times, jump_increments=incs)
    out = circle_convolution(cp, 128)
    assert np.allclose(out, incs.sum(), atol=1e-10)


@pytest.mark.parametrize("beta", [0.5, 0.75])
def test_jump_time_draws_of_a_stable_spec_are_those_of_it_truncated_at_jump_cutoff(beta):
    # the circle experiment, and the benchmark's reference for it, call
    # scalar_levy_jumps with the untruncated stable spec
    stable = SubordinatorSpec.stable(beta)
    truncated = stable.truncated(JUMP_CUTOFF)
    assert jump_law(stable) == truncated and jump_law(truncated) == truncated
    a, b = (simulate_paths(jump_law(sub), 1.0, 3, stream(6)) for sub in (stable, truncated))
    assert a.drift_slope == b.drift_slope
    for field in ("offsets", "times", "sizes"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    for x, y in zip(scalar_levy_jumps(stable, seed=6), scalar_levy_jumps(truncated, seed=6)):
        assert np.array_equal(x, y)
    op = SpectralOperator.dirichlet(1, 1.0, 256)
    F = SpaceSpec(2.0, np.arange(1.0, 257))
    probe, probe_truncated = (blowup_probe(op, make_noise(sub, 256), F, [64, 128, 256], seed=6,
                                           threshold=0.05, u_space=F)
                              for sub in (stable, truncated))
    assert probe["conclusive"] and probe == probe_truncated


def test_scalar_path_of_a_pure_drift_is_brownian_on_the_slope_grid():
    # no jumps: the whole path is the Brownian part, drawn from stream(seed, 1)
    T, b = 2.0 * np.pi, 0.7
    times, incs = scalar_levy_jumps(SubordinatorSpec.drift_only(b), seed=4)
    assert np.array_equal(times, np.linspace(T / 4096, T, 4096))
    assert np.array_equal(incs, math.sqrt(b * T / 4096) * stream(4, 1).standard_normal(4096))
    # a zero drift leaves nothing to draw
    times, incs = scalar_levy_jumps(SubordinatorSpec.drift_only(0.0), seed=4)
    assert times.size == incs.size == 0


def test_circle_smooth_profile_sup_stabilizes():
    times, incs = scalar_levy_jumps(SubordinatorSpec.stable(0.75), seed=3)
    prof = fourier_profile(2.0, 256, 4096, seed=4)    # fast Fourier decay
    cp = CirclePath(profile=prof, jump_times=times, jump_increments=incs)
    sups = [np.abs(circle_convolution(cp, M)).max() for M in (128, 256, 512, 1024)]
    assert max(sups) <= 1.05 * min(sups[1:]) + 1e-12


def test_circle_finite_variation_rough_profile_stabilizes():
    # alpha < 1 driving path has finite variation, so even a rough profile
    # yields a bounded convolution under refinement
    times, incs = scalar_levy_jumps(SubordinatorSpec.stable(0.25), seed=5)
    prof = fourier_profile(0.0, 256, 4096, seed=6)
    cp = CirclePath(profile=prof, jump_times=times, jump_increments=incs)
    sups = [np.abs(circle_convolution(cp, M)).max() for M in (256, 512, 1024)]
    assert max(sups) <= 1.2 * min(sups)


def test_circle_profile_must_be_periodic():
    with pytest.raises(ValueError):
        CirclePath(profile=np.array([0.0, 1.0, 2.0]),
                   jump_times=np.array([1.0]), jump_increments=np.array([1.0]))


def interp_loop_convolution(path, grid_M):
    # the per-increment np.interp loop that circle_convolution replaced
    f = path.profile
    zf = np.linspace(0.0, 2.0 * np.pi, f.size)
    z = np.linspace(0.0, 2.0 * np.pi, grid_M + 1)
    out = np.zeros_like(z)
    for tau, dy in zip(path.jump_times, path.jump_increments):
        arg = np.mod(z - tau, 2.0 * np.pi)
        out += dy * np.interp(arg, zf, f)
    return out


def harmonic_loop_profile(theta, n_harmonics, grid_M, seed=0):
    # the per-harmonic loop that fourier_profile replaced
    rng = stream(seed)
    z = np.linspace(0.0, 2.0 * np.pi, grid_M + 1)
    f = np.zeros_like(z)
    for k in range(1, n_harmonics + 1):
        amp = k ** (-(theta + 0.5))
        sc, ss = rng.choice([-1.0, 1.0], size=2)
        f += amp * (sc * np.cos(k * z) + ss * np.sin(k * z))
    return f


def assert_close_to(actual, expected, rtol):
    # relative to the sup, since single grid values may cross zero
    np.testing.assert_allclose(actual, expected, rtol=rtol,
                               atol=rtol * np.abs(expected).max())


@pytest.mark.parametrize("profile_size", [257, 4097])
@pytest.mark.parametrize("grid_M", [32, 100, 128, 384, 1024, 8192])
def test_circle_convolution_matches_interp_loop(profile_size, grid_M):
    times, incs = scalar_levy_jumps(SubordinatorSpec.stable(0.75), seed=11)
    prof = fourier_profile(0.5, 96, profile_size - 1, seed=12)
    cp = CirclePath(profile=prof, jump_times=times, jump_increments=incs)
    out = circle_convolution(cp, grid_M)
    assert out.shape == (grid_M + 1,)
    assert out[0] == out[-1]
    assert_close_to(out, interp_loop_convolution(cp, grid_M), 1e-10)


def test_circle_convolution_jump_at_two_pi_and_no_jumps():
    prof = fourier_profile(1.0, 64, 256, seed=3)
    for tau in (2.0 * np.pi, np.nextafter(2.0 * np.pi, 0.0), 1e-300):
        cp = CirclePath(profile=prof, jump_times=np.sort([1.0, tau]),
                        jump_increments=np.array([0.5, -2.0]))
        for grid_M in (64, 100):
            assert_close_to(circle_convolution(cp, grid_M),
                            interp_loop_convolution(cp, grid_M), 1e-12)
    empty = CirclePath(profile=prof, jump_times=np.array([]), jump_increments=np.array([]))
    out = circle_convolution(empty, 128)
    assert out.shape == (129,) and not out.any()


def test_circle_convolution_refuses_too_fine_a_common_grid():
    prof = np.ones(4097)
    cp = CirclePath(profile=prof, jump_times=np.array([1.0]), jump_increments=np.array([1.0]))
    assert math.lcm(4096, 4097) > MAX_CIRCLE_CELLS
    with pytest.raises(ValueError, match="MAX_CIRCLE_CELLS"):
        circle_convolution(cp, 4097)
    with pytest.raises(ValueError, match="positive"):
        circle_convolution(cp, 0)
    assert circle_convolution(cp, 4096 * 4) == pytest.approx(1.0)


def profile_batch(profile_size, seed=12):
    # one row per smoothness, the profile family of the circle experiment
    return np.stack([fourier_profile(th, 96, profile_size - 1, seed=seed)
                     for th in (0.0, 0.5, 2.0)])


@pytest.mark.parametrize("profile_size", [257, 4097])
@pytest.mark.parametrize("grid_M", [32, 100, 8192])
def test_circle_batch_matches_one_call_per_row(profile_size, grid_M):
    times, incs = scalar_levy_jumps(SubordinatorSpec.stable(0.75), seed=11)
    batch = profile_batch(profile_size)
    out = circle_convolution(CirclePath(batch, times, incs), grid_M)
    assert out.shape == (batch.shape[0], grid_M + 1)
    for row, profile in zip(out, batch):
        assert np.array_equal(row, circle_convolution(CirclePath(profile, times, incs), grid_M))


def test_circle_batch_in_row_blocks_is_unchanged(monkeypatch):
    # a common grid of MAX_CIRCLE_CELLS cells takes one row per block
    times, incs = scalar_levy_jumps(SubordinatorSpec.stable(0.75), seed=11)
    cp = CirclePath(profile_batch(257), times, incs)
    whole = circle_convolution(cp, 8192)
    monkeypatch.setattr(regularity, "MAX_CIRCLE_CELLS", 8192)
    assert np.array_equal(circle_convolution(cp, 8192), whole)


@pytest.mark.parametrize("profile_size", [257, 4097])
@pytest.mark.parametrize("grid_M", [3, 100, 128])
def test_circle_common_grid_read_off_is_the_grid_call(profile_size, grid_M):
    # on L = lcm(P, M) cells, the grid-M call reads every (L/M)-th point
    times, incs = scalar_levy_jumps(SubordinatorSpec.stable(0.75), seed=11)
    L = math.lcm(profile_size - 1, grid_M)
    batch = profile_batch(profile_size)
    for profile in (batch, batch[1]):
        cp = CirclePath(profile, times, incs)
        assert np.array_equal(circle_convolution(cp, L)[..., ::L // grid_M],
                              circle_convolution(cp, grid_M))


def test_circle_batch_refuses_a_row_that_is_not_periodic():
    batch = profile_batch(257)
    batch[1, -1] += 1e-9
    with pytest.raises(ValueError, match="periodic"):
        CirclePath(batch, np.array([1.0]), np.array([1.0]))
    for shape in ((0, 257), (2, 2), (1, 2, 257)):
        with pytest.raises(ValueError, match="shape"):
            CirclePath(np.zeros(shape), np.array([1.0]), np.array([1.0]))


@pytest.mark.parametrize("n_harmonics,grid_M", [(512, 4096), (256, 4096), (300, 257)])
def test_fourier_profile_matches_harmonic_loop(n_harmonics, grid_M):
    for theta in (0.0, 2.0):
        f = fourier_profile(theta, n_harmonics, grid_M, seed=5)
        assert f.shape == (grid_M + 1,)
        assert f[0] == f[-1]
        assert_close_to(f, harmonic_loop_profile(theta, n_harmonics, grid_M, seed=5), 1e-12)


def test_fourier_profile_refuses_an_empty_grid():
    with pytest.raises(ValueError, match="grid_M"):
        fourier_profile(0.5, 8, 0)
    with pytest.raises(ValueError, match="n_harmonics"):
        fourier_profile(0.5, -1, 8)
