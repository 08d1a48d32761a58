import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from levyfield import cli, spectral
from levyfield._rng import stream
from levyfield.noise import CylindricalWienerSpec, LevyNoiseSpec
from levyfield.spaces import SpaceSpec
from levyfield.spectral import (
    SpectralOperator,
    cell_moments,
    charfn_oracle,
    check_radonifying,
    convolution_variances_batch,
    power_law_envelope,
    regularity_exponent_bound,
    sample_trajectory,
    semigroup_norm,
    semigroup_norm_power,
    synthesize,
)
from levyfield.subordinator import (DEFAULT_CUTOFF, PathBatch, QuadratureError, SubordinatorSpec,
                                   laplace_exponent, simulate_paths)


def make_noise(sub, n_modes):
    return LevyNoiseSpec(CylindricalWienerSpec(np.ones(n_modes)), sub)


# -- operator construction -----------------------------------------------


def test_dirichlet_eigenvalues_1d():
    op = SpectralOperator.dirichlet(1, 2.0, 5)
    assert np.allclose(op.lambdas, np.arange(1, 6, dtype=float) ** 4)
    assert np.all(np.diff(op.lambdas) > 0)


@pytest.mark.parametrize("make", [
    lambda: SpectralOperator.dirichlet(1, float("nan"), 4),
    lambda: SpectralOperator.dirichlet(1, -1.0, 4),
    lambda: SpectralOperator.from_eigenvalues([1.0, float("nan"), 3.0]),
    lambda: SpectralOperator.from_eigenvalues([1.0, 3.0, 2.0]),
    lambda: SpectralOperator.from_eigenvalues([0.0, 1.0]),
], ids=["dirichlet-nan-gamma", "dirichlet-negative-gamma", "nan-eigenvalue",
        "decreasing", "zero-eigenvalue"])
def test_operator_refuses_bad_eigenvalues(make):
    with pytest.raises(ValueError):
        make()


def test_dirichlet_eigenvalues_2d_sorted():
    op = SpectralOperator.dirichlet(2, 1.0, 3)
    # |n|^2 values for n in {1..3}^2, sorted
    mu = (op.multi_indices ** 2).sum(axis=1)
    assert np.all(np.diff(mu) >= 0)
    assert op.lambdas == pytest.approx(mu.astype(float))
    assert op.n_modes == 9


# -- semigroup norms -----------------------------------------------------


def test_semigroup_norm_unit_weights():
    op = SpectralOperator.dirichlet(1, 1.0, 32)
    U = SpaceSpec(2.0, np.ones(32))
    E = SpaceSpec(2.0, np.ones(32))
    out = semigroup_norm(op, U, E, t=0.7)
    assert out["norm"] == pytest.approx(math.exp(-op.lambdas[0] * 0.7), rel=1e-14)
    assert out["argmax_mode"] == 0


def test_semigroup_norm_power_matches_full_scan():
    op = SpectralOperator.dirichlet(1, 1.5, 4096)
    rng = stream(7)
    for _ in range(10):
        alpha, beta = rng.uniform(0.1, 1.5, size=2)
        r, q = rng.uniform(1.0, 4.0, size=2)
        t = float(rng.uniform(1e-4, 1.0))
        fast = semigroup_norm_power(op, alpha, beta, r, q, t)
        theta = beta + (r / q) * alpha
        scan = np.exp(-op.lambdas * t) * op.lambdas ** theta
        j = int(np.argmax(scan))
        assert fast["argmax_mode"] == j
        assert fast["norm"] == pytest.approx(float(scan[j]), rel=1e-14)


def test_power_law_envelope_dominates():
    op = SpectralOperator.dirichlet(1, 1.0, 4096)
    alpha, beta, r, q = 0.4, 0.3, 2.0, 2.0
    for t in np.geomspace(1e-5, 10.0, 40):
        sup = semigroup_norm_power(op, alpha, beta, r, q, float(t))["norm"]
        env = float(power_law_envelope(alpha, beta, r, q, t))
        assert sup <= env * (1.0 + 1e-12)


def test_semigroup_slope_matches_exponent():
    op = SpectralOperator.dirichlet(1, 1.0, 4096)
    alpha, beta, r, q = 0.5, 0.25, 2.0, 2.0
    theta = beta + (r / q) * alpha
    ts = np.geomspace(1e-6, 1e-2, 12)
    sups = [semigroup_norm_power(op, alpha, beta, r, q, float(t))["norm"] for t in ts]
    slope = np.polyfit(np.log(ts), np.log(sups), 1)[0]
    assert slope == pytest.approx(-theta, abs=0.05)


# -- radonifying certificate ---------------------------------------------


def test_radonifying_p_series_convergent():
    op = SpectralOperator.dirichlet(1, 1.0, 20000)
    ok, cert = check_radonifying(op, alpha=1.0, r=1.0)
    assert ok
    assert cert == pytest.approx(math.pi ** 2 / 6.0, rel=1e-6)


def test_radonifying_boundary_divergent():
    op = SpectralOperator.dirichlet(1, 1.0, 1000)
    ok, cert = check_radonifying(op, alpha=0.5, r=1.0)   # s*growth = 1 exactly
    assert not ok and cert == math.inf


def test_radonifying_user_eigenvalues_with_growth():
    lam = np.arange(1.0, 2001.0) ** 2.0
    op = SpectralOperator.from_eigenvalues(lam)
    assert check_radonifying(op, 0.5, 1.0, growth=2.0) == (False, math.inf)
    ok, cert = check_radonifying(op, 0.6, 1.0, growth=2.0)
    assert ok and np.isfinite(cert)
    from scipy.special import zeta
    assert cert == pytest.approx(float(zeta(1.2)), rel=1e-3)
    # one eigenvalue fits no growth, but a passed growth decides
    one = SpectralOperator.from_eigenvalues([1.0])
    with pytest.raises(ValueError, match="growth"):
        check_radonifying(one, 1.0, 1.0)
    assert check_radonifying(one, 1.0, 1.0, growth=2.0)[0]


def test_radonifying_theorem_setting():
    # for p < 2 gamma / d there are r, alpha with r*alpha*(2 gamma/d) > 1 and
    # r*alpha < 1/p; the wrong side fails
    gamma, d, p = 1.0, 1, 0.7
    op = SpectralOperator.dirichlet(d, gamma, 5000)
    ralpha_good = 0.5 * (d / (2 * gamma) + 1.0 / p)      # between the bounds
    assert check_radonifying(op, ralpha_good, 1.0)[0]
    assert ralpha_good < 1.0 / p
    ralpha_bad = 0.9 * d / (2 * gamma)
    assert not check_radonifying(op, ralpha_bad, 1.0)[0]


# -- convolution sampling ------------------------------------------------


def test_stationary_variance_drift_only():
    op = SpectralOperator.from_eigenvalues([1.0])
    batch = PathBatch(horizon_T=100.0, drift_slope=1.0, offsets=np.array([0, 0]),
                      times=np.empty(0), sizes=np.empty(0))
    v = convolution_variances_batch(op, batch, 50.0)[0]
    assert v[0] == pytest.approx(0.5, rel=1e-12)


def test_single_jump_variance():
    lam, tau, dz, t = 2.0, 0.3, 1.7, 0.9
    op = SpectralOperator.from_eigenvalues([lam])
    batch = PathBatch(horizon_T=1.0, drift_slope=0.0, offsets=np.array([0, 1]),
                      times=np.array([tau]), sizes=np.array([dz]))
    v = convolution_variances_batch(op, batch, t)[0]
    assert v[0] == pytest.approx(math.exp(-2 * lam * (t - tau)) * dz, rel=1e-13)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000), t=st.floats(0.1, 1.0))
def test_variances_nonincreasing_in_lambda(seed, t):
    op = SpectralOperator.dirichlet(1, 1.0, 64)
    batch = simulate_paths(SubordinatorSpec.stable(0.5), 1.0, 1, stream(seed), cutoff_eps=1e-3,
                           method="jumps")
    v = convolution_variances_batch(op, batch, t)[0]
    assert np.all(np.diff(v) <= 1e-14)


def test_sample_convolution_mc_matches_oracle():
    N = 8
    op = SpectralOperator.dirichlet(1, 1.0, N)
    noise = make_noise(SubordinatorSpec.stable(0.5), N)
    phi = stream(5).standard_normal(N) / math.sqrt(N)
    t, mc = 0.8, 20000
    batch = simulate_paths(noise.subordinator, t, mc, stream(5, 1), cutoff_eps=1e-3,
                           method="jumps")
    vals = np.cos(sample_trajectory(op, noise, batch, (t,), stream(5, 2))[:, 0] @ phi)
    ana = charfn_oracle(op, noise, phi, t)
    se = vals.std() / math.sqrt(mc)
    assert abs(vals.mean() - ana) < 4.0 * se


def _batch_with_every_kind_of_path():
    # about 22% of the paths have no jump on [0, 1]; t = 0.6 leaves paths
    # whose jumps all come after t, whose terms overflow exp if not dropped
    spec = SubordinatorSpec.compound_poisson([0.3, 2.0], [1.0, 0.5], drift_b=0.2)
    batch = simulate_paths(spec, 1.0, 400, stream(21), method="jumps")
    t = 0.6
    first = np.full(batch.n_paths, np.inf)
    has = batch.counts > 0
    first[has] = batch.times[batch.offsets[:-1][has]]
    assert (~has).any() and (first > t)[has].any() and (first <= t).any()
    return batch, t


def test_batch_variances_match_per_path_and_direct_sum():
    op = SpectralOperator.dirichlet(1, 1.0, 32)  # 2 lambda_32 (1 - 0.6) > 709
    batch, t = _batch_with_every_kind_of_path()
    v = convolution_variances_batch(op, batch, t)
    assert v.shape == (batch.n_paths, 32) and np.all(np.isfinite(v))
    loop = np.concatenate([convolution_variances_batch(op, batch[p:p + 1], t)
                           for p in range(batch.n_paths)])
    assert np.allclose(v, loop, rtol=1e-12, atol=0.0)
    lam = op.lambdas
    slope = batch.total_slope * (1.0 - np.exp(-2.0 * lam * t)) / (2.0 * lam)
    for p in range(batch.n_paths):
        direct = slope.copy()
        jumps = slice(batch.offsets[p], batch.offsets[p + 1])
        for tau, xi in zip(batch.times[jumps], batch.sizes[jumps]):
            if tau <= t:
                direct += np.exp(-2.0 * lam * (t - tau)) * xi
        np.testing.assert_allclose(v[p], direct, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("c", [1.0, 2.0])
@pytest.mark.parametrize("marks", [False, True])
def test_cell_moments_match_a_direct_double_loop(c, marks):
    rng = stream(4)
    lam = SpectralOperator.dirichlet(1, 1.0, 6).lambdas
    jump_times = np.sort(rng.uniform(0.0, 1.0, 30))
    weights = rng.standard_normal((30, 6)) if marks else rng.exponential(size=(30, 1))
    for edges in (
        # (0, 0.2], (0.2, 0.2] (empty, zero length), (0.2, 0.5], (0.5, 0.55], (0.55, 1]
        [0.0, 0.2, 0.2, 0.5, 0.55, 1.0],
        # four cells of length 0.25 and two of length 0: two rows of slope terms
        [0.0, 0.25, 0.25, 0.5, 0.75, 0.75, 1.0],
    ):
        t0, t1 = np.array(edges[:-1]), np.array(edges[1:])
        k = np.searchsorted(jump_times, np.append(t0, 1.0), side="right")
        starts, counts = k[:-1], np.diff(k)
        assert (counts == 0).any() and len(np.unique(counts)) > 2
        got = cell_moments(lam, c, 0.7, t0, t1, jump_times, weights, starts, counts)
        for s in range(t0.size):
            direct = 0.7 * (1.0 - np.exp(-c * lam * (t1[s] - t0[s]))) / (c * lam)
            for j in range(lam.size):
                for tau, w in zip(jump_times, weights[:, j if marks else 0]):
                    if t0[s] < tau <= t1[s]:
                        direct[j] += math.exp(-c * lam[j] * (t1[s] - tau)) * w
            np.testing.assert_allclose(got[s], direct, rtol=1e-12, atol=0.0)
        none = cell_moments(lam, c, 0.7, t0, t1, np.empty(0), weights[:0],
                            np.zeros(t0.size, dtype=int), np.zeros(t0.size, dtype=int))
        np.testing.assert_array_equal(none, 0.7 * (1.0 - np.exp(-c * lam * (t1 - t0)[:, None]))
                                      / (c * lam))


@pytest.mark.parametrize("marks", [False, True])
def test_cell_moments_do_not_depend_on_the_term_bound(monkeypatch, marks):
    # each (mode, cell) row is one contiguous sum, whatever slice holds it;
    # counts of 128 and more reach numpy's pairwise blocks
    rng = stream(5)
    lam = SpectralOperator.dirichlet(1, 1.0, 16).lambdas
    counts = rng.integers(0, 40, 400)
    counts[::50] = 150
    starts = np.cumsum(counts) - counts
    t1 = rng.uniform(0.5, 1.0, counts.size)
    t0 = t1 - rng.uniform(0.0, 0.5, counts.size)
    jump_times = np.repeat(t1, counts) - rng.uniform(0.0, 0.5, counts.sum())
    weights = (rng.standard_normal((counts.sum(), 16)) if marks
               else rng.exponential(size=(counts.sum(), 1)))
    args = (lam, 2.0, 0.7, t0, t1, jump_times, weights, starts, counts)
    # at the default bound no group of this call is split
    assert counts.max() * lam.size * np.bincount(counts).max() <= spectral.CHUNK_TERMS
    whole = cell_moments(*args)
    monkeypatch.setattr(spectral, "CHUNK_TERMS", 1)
    np.testing.assert_array_equal(cell_moments(*args), whole)


def test_cell_moments_bound_their_temporaries():
    # unsplit, the one group of 2,000 cells x 8 jumps x 256 modes is a
    # 33 MB array; the output is 4 MB
    n_cells, k = 2000, 8
    lam = SpectralOperator.dirichlet(1, 1.0, 256).lambdas
    t1 = np.linspace(0.5, 1.0, n_cells)
    jump_times = np.repeat(t1, k) - stream(6).uniform(0.0, 0.5, n_cells * k)
    sizes = np.ones((n_cells * k, 1))
    starts, counts = k * np.arange(n_cells), np.full(n_cells, k)
    tracemalloc.start()
    try:
        out = cell_moments(lam, 2.0, 0.7, t1 - 0.5, t1, jump_times, sizes, starts, counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes == n_cells * lam.size * 8
    assert peak < 16e6


def test_batch_sample_does_not_depend_on_the_slicing():
    op = SpectralOperator.dirichlet(1, 1.0, 8)
    noise = make_noise(SubordinatorSpec.stable(0.5), 8)
    batch = simulate_paths(noise.subordinator, 1.0, 50, stream(2), cutoff_eps=1e-2,
                           method="jumps")
    whole = sample_trajectory(op, noise, batch, (0.7,), stream(3))
    rng = stream(3)
    parts = [sample_trajectory(op, noise, batch[lo:hi], (0.7,), rng)
             for lo, hi in ((0, 1), (1, 20), (20, 50))]
    assert np.array_equal(whole, np.concatenate(parts))
    single = sample_trajectory(op, noise, batch[0:1], (0.7,), stream(3))
    assert np.array_equal(single[0], whole[0])


@pytest.mark.parametrize("times, n_weights, message", [
    ([], 8, "non-empty"),
    ([float("nan")], 8, "horizon_T"),
    ([0.2, float("nan"), 0.5], 8, "strictly increasing"),
    ([0.5, 0.2], 8, "strictly increasing"),
    ([-0.1, 0.5], 8, "horizon_T"),
    ([0.5, 1.5], 8, "horizon_T"),
    ([0.5], 6, "truncation"),
])
def test_trajectory_refuses_bad_times_and_a_truncation_mismatch(times, n_weights, message):
    op = SpectralOperator.dirichlet(1, 1.0, 8)
    noise = make_noise(SubordinatorSpec.stable(0.5), n_weights)
    batch = simulate_paths(noise.subordinator, 1.0, 2, stream(2), cutoff_eps=1e-2,
                           method="jumps")
    with pytest.raises(ValueError, match=message):
        sample_trajectory(op, noise, batch, times, stream(3))


# -- characteristic-functional oracle ------------------------------------


def test_charfn_oracle_trivial():
    op = SpectralOperator.dirichlet(1, 1.0, 4)
    noise = make_noise(SubordinatorSpec.stable(0.5), 4)
    assert charfn_oracle(op, noise, np.zeros(4), 1.0) == 1.0
    assert charfn_oracle(op, noise, np.ones(4), 0.0) == 1.0


@pytest.mark.parametrize("t, n_phi, message", [
    (float("nan"), 4, "finite and nonnegative"),
    (math.inf, 4, "finite and nonnegative"),
    (-0.5, 4, "finite and nonnegative"),
    (1.0, 3, "mode count"),
])
def test_charfn_oracle_refuses_bad_times_and_lengths(t, n_phi, message):
    op = SpectralOperator.dirichlet(1, 1.0, 4)
    noise = make_noise(SubordinatorSpec.stable(0.5), 4)
    with pytest.raises(ValueError, match=message):
        charfn_oracle(op, noise, np.ones(n_phi), t)


def test_charfn_oracle_single_mode_gaussian_closed_form():
    op = SpectralOperator.dirichlet(1, 1.0, 4)
    b, c, j, t = 1.3, 0.7, 2, 0.9
    noise = make_noise(SubordinatorSpec.drift_only(b), 4)
    phi = np.zeros(4)
    phi[j] = c
    lam = op.lambdas[j]
    expected = math.exp(-b * c * c * (1.0 - math.exp(-2 * lam * t)) / (4.0 * lam))
    assert charfn_oracle(op, noise, phi, t) == pytest.approx(expected, rel=1e-8)


def test_charfn_oracle_stable_matches_direct_quadrature():
    N = 6
    op = SpectralOperator.dirichlet(1, 1.0, N)
    beta = 0.4
    noise = make_noise(SubordinatorSpec.stable(beta), N)
    phi = stream(9).standard_normal(N) * 0.5
    t = 0.7

    def integrand(sigma):
        hs = float((np.exp(-2.0 * op.lambdas * sigma) * phi ** 2).sum())
        return (0.5 * hs) ** beta

    direct, _ = integrate.quad(integrand, 0.0, t, limit=200)
    assert charfn_oracle(op, noise, phi, t) == pytest.approx(math.exp(-direct), rel=1e-7)


def _quad_oracle(op, noise, phi, t):
    """The oracle by adaptive QUADPACK quadrature at a tolerance near the double
    precision, with a scalar integrand and the split at 1 / (2 lambda_N)."""
    wsq_phi = (noise.wiener.hilbert_weights * phi) ** 2

    def integrand(sigma):
        hs = 0.5 * float((np.exp(-2.0 * op.lambdas * sigma) * wsq_phi).sum())
        return float(laplace_exponent(noise.subordinator, hs))

    brk = min(t, 1.0 / (2.0 * op.lambdas[-1]))
    total = integrate.quad(integrand, 0.0, brk, epsrel=1e-13, epsabs=0.0, limit=500)[0]
    if brk < t:
        total += integrate.quad(integrand, brk, t, epsrel=1e-13, epsabs=0.0, limit=500,
                                points=np.geomspace(brk, t, 12)[1:-1])[0]
    return math.exp(-total)


@pytest.mark.parametrize("sub", [
    SubordinatorSpec.stable(0.1),
    SubordinatorSpec.stable(0.5),
    SubordinatorSpec.stable(0.9),
    SubordinatorSpec.drift_only(1.3),
    SubordinatorSpec.compound_poisson([0.5, 2.0], [1.0, 0.3], drift_b=0.2),
], ids=["stable-0.1", "stable-0.5", "stable-0.9", "drift-only", "compound-poisson"])
@pytest.mark.parametrize("N", [1, 16, 256])
def test_charfn_oracle_matches_adaptive_quadrature(sub, N):
    op = SpectralOperator.dirichlet(1, 1.0, N)
    noise = make_noise(sub, N)
    rng = stream(12, N)
    for t in (1e-3, 0.7, 5.0):
        phi = rng.standard_normal(N) / math.sqrt(N)
        assert charfn_oracle(op, noise, phi, t) == pytest.approx(
            _quad_oracle(op, noise, phi, t), rel=1e-12), t


@pytest.mark.parametrize("size", [1e8, 1e12])
def test_charfn_oracle_halves_the_panels_of_a_steep_integrand(size):
    # psi(r) = 1 - exp(-size r) switches from 1 to 0 within sigma ~ 1 around
    # sigma = log(size) / 2, where a geometric panel is wider than 10
    op = SpectralOperator.dirichlet(1, 1.0, 1)
    noise = make_noise(SubordinatorSpec.compound_poisson([size], [1.0]), 1)
    phi, t = np.ones(1), 50.0
    assert charfn_oracle(op, noise, phi, t) == pytest.approx(
        _quad_oracle(op, noise, phi, t), rel=1e-12)


def test_charfn_oracle_raises_at_an_unreachable_tolerance():
    op = SpectralOperator.dirichlet(1, 1.0, 16)
    noise = make_noise(SubordinatorSpec.stable(0.5), 16)
    phi = stream(13).standard_normal(16) / 4.0
    with pytest.raises(QuadratureError) as info:
        charfn_oracle(op, noise, phi, 0.7, quad_tol=1e-20)
    assert info.value.achieved_tol > 1e-18


def test_charfn_oracle_bounds_its_temporaries():
    # unblocked, the (nodes, modes) exponentials of 4,096 modes would take
    # 1,200 x 4,096 x 8 bytes = 39 MB
    N = 4096
    op = SpectralOperator.dirichlet(1, 1.0, N)
    noise = make_noise(SubordinatorSpec.stable(0.5), N)
    phi = stream(14).standard_normal(N) / math.sqrt(N)
    charfn_oracle(op, noise, phi, 0.7)
    tracemalloc.start()
    try:
        charfn_oracle(op, noise, phi, 0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


# -- regularity exponents ------------------------------------------------


def test_critical_exponent_stable():
    # order-2 generator (lambda ~ n^2), alpha = 1, d = 1 -> delta* = 1.5
    op = SpectralOperator.dirichlet(1, 1.0, 4)
    noise = make_noise(SubordinatorSpec.stable(0.5), 4)   # alpha = 1
    rep = regularity_exponent_bound(op, noise, ("holder", 1.0))
    assert rep["critical_exponent"] == pytest.approx(1.5)
    assert rep["admissible"]
    assert not regularity_exponent_bound(op, noise, ("holder", 1.5))["admissible"]


def test_critical_exponent_gaussian():
    op = SpectralOperator.dirichlet(1, 1.0, 4)
    noise = make_noise(SubordinatorSpec.drift_only(1.0), 4)
    rep = regularity_exponent_bound(op, noise, ("holder", 0.4))
    assert rep["critical_exponent"] == pytest.approx(0.5)
    assert rep["admissible"]


def test_critical_exponent_empty_range():
    op = SpectralOperator.dirichlet(2, 0.5, 2)   # g = 1, d = 2 -> delta* = 0
    noise = LevyNoiseSpec(CylindricalWienerSpec(np.ones(4)), SubordinatorSpec.stable(0.5))
    rep = regularity_exponent_bound(op, noise, ("holder", 0.0))
    assert rep["critical_exponent"] <= 0.0
    assert not rep["admissible"]


def test_critical_exponent_monotone_in_alpha():
    op = SpectralOperator.dirichlet(1, 2.0, 4)
    vals = []
    for alpha in (1.2, 1.5, 1.8):
        noise = make_noise(SubordinatorSpec.stable(alpha / 2.0), 4)
        vals.append(regularity_exponent_bound(op, noise, ("holder", 0.0))["critical_exponent"])
    assert vals[0] > vals[1] > vals[2]


def test_critical_exponent_sub_p_route():
    op = SpectralOperator.dirichlet(1, 2.0, 4)
    noise = make_noise(SubordinatorSpec.compound_poisson([0.5], [1.0]), 4)
    rep = regularity_exponent_bound(op, noise, ("holder", 0.0), p_certificate=1.5)
    assert rep["critical_exponent"] == pytest.approx(4.0 / 1.5 - 0.5)
    rep2 = regularity_exponent_bound(op, noise, ("holder", 0.0), p_certificate=0.8)
    assert rep2["critical_exponent"] == pytest.approx(4.0 - 0.5)


# -- synthesis -----------------------------------------------------------


def test_synthesize_single_mode_exact():
    op = SpectralOperator.dirichlet(1, 1.0, 4)
    c = np.zeros(4)
    c[2] = 1.0   # mode n=3
    vals = synthesize(op, c, 16)
    x = np.arange(1, 16) / 16.0
    assert np.allclose(vals, math.sqrt(2.0) * np.sin(3 * math.pi * x), atol=1e-12)


def test_synthesize_2d_exact():
    op = SpectralOperator.dirichlet(2, 1.0, 2)
    coef = stream(13).standard_normal(op.n_modes)
    vals = synthesize(op, coef, 8)
    x = np.arange(1, 8) / 8.0
    direct = np.zeros((7, 7))
    for (n1, n2), c in zip(op.multi_indices, coef):
        direct += c * 2.0 * np.outer(np.sin(n1 * math.pi * x), np.sin(n2 * math.pi * x))
    assert np.allclose(vals, direct, atol=1e-12)
    with pytest.raises(ValueError, match="expected 4 coefficients"):
        synthesize(op, coef[:3], 8)


def test_field_sample_csv(tmp_path):
    # ou-sample exports one field sample: case n_pairs at the default cutoff,
    # one row per mode with its multi-index and its coefficient's repr
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "ou-sample", "master_seed": 3,
                               "n_modes": 8, "mc_paths": 3000, "n_pairs": 2}))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    op = SpectralOperator.dirichlet(1, 1.0, 8)
    coeffs = cli._ou_draws(op, make_noise(SubordinatorSpec.stable(0.5), 8), 1.0, 1, 3, 2,
                           cutoff_eps=DEFAULT_CUTOFF)[0]
    lines = (out / "field_sample.csv").read_text().splitlines()
    assert len(lines) == 2 + op.n_modes
    assert lines[:2] == ["# time_t,1.0", "mode,multi_index,coefficient"]
    assert lines[2:] == [f"{j},{j + 1},{float(c)!r}" for j, c in enumerate(coeffs)]
