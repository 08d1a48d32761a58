import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from levyfield._rng import stream
from levyfield.noise import CylindricalWienerSpec, LevyNoiseSpec, increment_coefficients
from levyfield.subordinator import (
    JUMP_CUTOFF,
    MAX_EXPECTED_JUMPS,
    PathBatch,
    _sort_within_paths,
    SubordinatorSpec,
    jump_law,
    laplace_exponent,
    sample_stable_oneside,
    simulate_paths,
)


# -- Laplace exponent ----------------------------------------------------


def test_laplace_exponent_stable_closed_form():
    spec = SubordinatorSpec.stable(0.5)
    assert laplace_exponent(spec, 4.0) == pytest.approx(2.0, rel=1e-14)


def test_laplace_exponent_zero_argument():
    for spec in (SubordinatorSpec.stable(0.3),
                 SubordinatorSpec.stable(0.3).truncated(1e-2),
                 SubordinatorSpec.drift_only(1.0)):
        assert laplace_exponent(spec, 0.0) == 0.0


def test_laplace_exponent_drift_only():
    spec = SubordinatorSpec.drift_only(1.5)
    assert laplace_exponent(spec, 2.0) == pytest.approx(3.0, rel=1e-14)


@pytest.mark.parametrize("beta, eps, b, r", [
    (0.3, 1e-2, 0.0, 1.3),
    (0.5, 0.5, 0.0, 0.2),
    (0.75, 0.3, 0.2, 7.0),
    (0.9, 1e-3, 0.0, 50.0),
    (0.5, 1e-3, 0.0, 1e-6),
])
def test_laplace_exponent_truncated_stable_matches_the_levy_khintchine_integral(beta, eps, b, r):
    # b r + int_eps^inf (1 - exp(-r xi)) c xi^(-1-beta) dxi, by quadrature
    c = beta / math.gamma(1.0 - beta)
    with mpmath.workdps(50):
        jumps = mpmath.quad(lambda xi: -mpmath.expm1(-r * xi) * c * xi ** (-1 - beta),
                            [eps, 1, mpmath.inf])
    spec = SubordinatorSpec(beta=beta, drift_b=b, cutoff=eps)
    assert laplace_exponent(spec, r) == pytest.approx(b * r + float(jumps), rel=1e-12)


def test_laplace_exponent_rejects_negative_argument():
    with pytest.raises(ValueError):
        laplace_exponent(SubordinatorSpec.stable(0.5), -1.0)


# -- exact stable sampling -----------------------------------------------


def test_stable_sampler_laplace_transform():
    rng = stream(42)
    for beta in (0.25, 0.5, 0.9):
        s = sample_stable_oneside(beta, 100000, rng)
        for r in (0.5, 1.0, 2.0):
            vals = np.exp(-r * s)
            emp = vals.mean()
            se = vals.std() / math.sqrt(vals.size)
            assert abs(emp - math.exp(-r ** beta)) < 4.0 * se, (beta, r)


@pytest.mark.parametrize("beta", [0.0, 1.0, 1.2, -0.5, math.nan, math.inf])
def test_stable_sampler_refuses_beta_outside_the_unit_interval(beta):
    # checked before any draw: NaN once gave NaN draws, and 0, 1 or 1.2 a
    # bare math domain error
    rng = stream(0)
    with pytest.raises(ValueError, match="beta"):
        sample_stable_oneside(beta, 4, rng)
    assert rng.bit_generator.state == stream(0).bit_generator.state


# -- path simulation -----------------------------------------------------


def test_drift_only_path_is_deterministic():
    path = simulate_paths(SubordinatorSpec.drift_only(2.0), 3.0, 1, stream(0))
    assert path.times.size == 0
    assert path.increments([0.0, 3.0])[0, 0] == pytest.approx(6.0)
    assert path.increments([0.0, 0.0])[0, 0] == 0.0


def test_stable_grid_path_laplace_transform():
    spec = SubordinatorSpec.stable(0.5)
    batch = simulate_paths(spec, 1.0, 3000, stream(0), grid_n=4)
    vals = np.exp(-batch.increments((0.0, 1.0))[:, 0])
    se = vals.std() / math.sqrt(vals.size)
    assert abs(vals.mean() - math.exp(-1.0)) < 4.0 * se


@pytest.mark.parametrize("eps", [2e-2, 0.5])
def test_truncated_route_matches_its_own_laplace_exponent(eps):
    # the jump route draws the truncated law exactly, so it meets that law's
    # own exponent at any path count
    spec = SubordinatorSpec.stable(0.5).truncated(eps)
    n = 20000
    z = simulate_paths(spec, 1.0, n, stream(0)).increments((0.0, 1.0))[:, 0]
    for r in (0.5, 1.0, 2.0):
        vals = np.exp(-r * z)
        se = vals.std() / math.sqrt(n)
        assert abs(vals.mean() - math.exp(-laplace_exponent(spec, r))) < 4.0 * se, r


def test_truncated_exponent_exceeds_the_stable_one_by_a_bounded_gap():
    # psi_eps - psi = int_0^eps (r xi - 1 + exp(-r xi)) rho(dxi), which lies
    # in [0, r^2 / 2 int_0^eps xi^2 rho(dxi)] and falls with the cutoff
    beta = 0.5
    c = beta / math.gamma(1.0 - beta)
    r = np.array([0.1, 1.0, 7.0])
    psi = laplace_exponent(SubordinatorSpec.stable(beta), r)
    gaps = []
    for eps in (0.5, 0.25, 2e-2, 1e-2, 1e-3):
        gap = laplace_exponent(SubordinatorSpec.stable(beta).truncated(eps), r) - psi
        assert np.all(gap >= 0.0), eps
        assert np.all(gap <= r ** 2 * c * eps ** (2.0 - beta) / (2.0 * (2.0 - beta))), eps
        gaps.append(gap)
    assert np.all(np.diff(gaps, axis=0) < 0.0)


def test_path_determinism_is_bitwise():
    spec = SubordinatorSpec.stable(0.6).truncated(1e-3)
    a = simulate_paths(spec, 2.0, 4, stream(7))
    b = simulate_paths(spec, 2.0, 4, stream(7))
    assert np.array_equal(a.offsets, b.offsets)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.sizes, b.sizes)
    assert a.drift_slope == b.drift_slope


# -- batched paths -------------------------------------------------------


def _per_path_sampler(spec, T, seed, grid_n):
    """The one-path sampler that a batch of one was before paths were drawn in
    batches, with the truncated stable law written out: rho([eps, inf)) =
    c eps^(-beta) / beta and Pareto sizes eps U^(-1/beta), c = beta / Gamma(1-beta)."""
    rng = stream(seed)
    if spec.kind == "drift_only":
        return np.empty(0), np.empty(0)
    if spec.kind == "stable":
        dt = T / grid_n
        incr = dt ** (1.0 / spec.beta) * sample_stable_oneside(spec.beta, grid_n, rng)
        return dt * np.arange(1, grid_n + 1), incr
    beta, eps = spec.beta, spec.cutoff
    rate = beta / math.gamma(1.0 - beta) / beta * eps ** (-beta)
    n = rng.poisson(rate * T)
    times = np.sort(rng.uniform(0.0, T, size=n))
    sizes = eps * rng.uniform(size=n) ** (-1.0 / beta)
    return times, sizes


@pytest.mark.parametrize("beta, eps", [(0.25, 1.0), (0.5, JUMP_CUTOFF), (0.9, 1e-4)])
def test_jump_sizes_are_bitwise_the_pareto_formula_of_the_streams_uniforms(beta, eps):
    # the power and the scale are taken in place on the uniforms
    rho = SubordinatorSpec.stable(beta).truncated(eps).jump_measure
    u = stream(9).uniform(size=5000)
    assert np.array_equal(rho.sample_sizes(5000, stream(9)), eps * u ** (-1.0 / beta))


@pytest.mark.parametrize("spec, route", [
    (SubordinatorSpec.stable(0.5), None),
    (SubordinatorSpec.stable(0.9), "jumps"),
    (SubordinatorSpec.drift_only(1.5), None),
    (SubordinatorSpec(beta=0.3, drift_b=0.2).truncated(0.05), None),
])
def test_simulate_path_is_bitwise_the_per_path_sampler(spec, route):
    # route "jumps" draws the stable spec truncated at each cutoff
    laws = [spec.truncated(eps) for eps in (1e-2, 1e-4)] if route == "jumps" else [spec]
    for seed in range(20):
        for law in laws:
            grid_n = 1 + seed % 7
            zp = simulate_paths(law, 1.3, 1, stream(seed), grid_n=grid_n)
            times, sizes = _per_path_sampler(law, 1.3, seed, grid_n)
            assert np.array_equal(zp.times, times)
            assert np.array_equal(zp.sizes, sizes)
            assert zp.drift_slope == law.drift_b


def test_truncation_adds_the_mean_of_the_small_jumps_to_the_drift():
    # int_0^eps xi c xi^(-1-beta) dxi = c eps^(1-beta) / (1-beta)
    for beta, b, eps in ((0.9, 0.0, 1e-2), (0.5, 0.3, 1e-4), (0.25, 1.0, 1.0)):
        spec = SubordinatorSpec(beta=beta, drift_b=b).truncated(eps)
        c = beta / math.gamma(1.0 - beta)
        assert (spec.beta, spec.cutoff, spec.kind) == (beta, eps, "truncated_stable")
        assert spec.drift_b == b + c / (1.0 - beta) * eps ** (1.0 - beta)
        assert spec.jump_measure.mass == c / beta * eps ** (-beta)


@pytest.mark.parametrize("beta", [0.25, 0.5, 0.9])
def test_an_untruncated_stable_measure_has_infinite_mass(beta):
    for spec in (SubordinatorSpec.stable(beta), SubordinatorSpec(beta=beta, drift_b=1.0)):
        assert spec.jump_measure.mass == math.inf
    assert SubordinatorSpec.stable(beta).truncated(1.0).jump_measure.mass == beta / math.gamma(1.0 - beta) / beta


@pytest.mark.parametrize("eps", [1e-3, 1.0])
@pytest.mark.parametrize("beta", [0.1, 0.5, 0.9])
def test_truncated_law_splits_the_measure_at_eps_by_quadrature(beta, eps):
    # the drift gains int_0^eps xi rho(dxi), and the kept jumps have mass
    # rho([eps, inf)), each against a numerical integral of rho(dxi) =
    # c xi^(-1-beta) dxi, taken in xi = eps e^(-u) and xi = eps e^u, u > 0
    b = 0.2
    spec = SubordinatorSpec(beta=beta, drift_b=b).truncated(eps)
    with mpmath.workdps(30):
        c = beta / mpmath.gamma(1 - mpmath.mpf(beta))
        small_mean = mpmath.quad(lambda u: c * (eps * mpmath.exp(-u)) ** (1 - beta),
                                 [0, mpmath.inf])
        mass = mpmath.quad(lambda u: c * (eps * mpmath.exp(u)) ** (-beta), [0, mpmath.inf])
    assert spec.drift_b - b == pytest.approx(float(small_mean), rel=1e-12)
    assert spec.jump_measure.mass == pytest.approx(float(mass), rel=1e-12)


# -- the jump measure of the drawn jumps ---------------------------------

JUMP_BANDS = (1e-3, 1e-2, 1e-1, 1.0, math.inf)


def _band_measure(beta, T, lo, hi):
    """rho([lo, hi)) T for the stable measure: T (lo^-beta - hi^-beta) / Gamma(1 - beta)."""
    return T * (lo ** -beta - hi ** -beta) / math.gamma(1.0 - beta)


@pytest.fixture(scope="module")
def set_counts():
    """Jump counts of 4,000 paths of stable(0.5).truncated(1e-3) on T = 1 in
    the sets (window, size band), windows (0, 0.5] and (0.5, 1] as
    PathBatch.cells bins them; shape (4000, 2, 4)."""
    n = 4000
    batch = simulate_paths(SubordinatorSpec.stable(0.5).truncated(1e-3), 1.0, n, stream(47))
    band = np.searchsorted(JUMP_BANDS, batch.sizes, side="right") - 1
    window = (batch.times > 0.5).astype(int)
    flat = 8 * batch.rows + 4 * window + band
    return np.bincount(flat, minlength=8 * n).reshape(n, 2, 4)


@pytest.mark.parametrize("band", range(4))
def test_band_counts_are_poisson_with_the_closed_form_mean(set_counts, band):
    # chi-square of one band's per-path count on [0, 1] against the Poisson
    # pmf with mean rho(band)
    counts = set_counts[:, :, band].sum(axis=1)
    rate = _band_measure(0.5, 1.0, JUMP_BANDS[band], JUMP_BANDS[band + 1])
    kmax = int(counts.max())
    observed = np.bincount(counts, minlength=kmax + 1).astype(float)
    expected = stats.poisson.pmf(np.arange(kmax + 1), rate) * counts.size
    expected[-1] += counts.size - expected.sum()   # fold the pmf tail in
    # merge sparse bins at both ends so every cell has expected count >= 5
    while expected.size > 2 and expected[-1] < 5.0:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    while expected.size > 2 and expected[0] < 5.0:
        expected[1] += expected[0]
        observed[1] += observed[0]
        expected, observed = expected[1:], observed[1:]
    chi2 = ((observed - expected) ** 2 / expected).sum()
    assert stats.chi2.sf(chi2, observed.size - 1) > 0.01


def test_counts_in_disjoint_sets_are_uncorrelated(set_counts):
    # a Poisson random measure: counts in disjoint sets are independent, so
    # every sample covariance of two sets is 0 within 4 SE
    x = set_counts.reshape(set_counts.shape[0], -1).astype(float)
    x -= x.mean(axis=0)
    for i in range(8):
        for j in range(i + 1, 8):
            prod = x[:, i] * x[:, j]
            assert abs(prod.mean()) <= 4.0 * prod.std() / math.sqrt(prod.size), (i, j)


@pytest.mark.parametrize("p", [0.3, 0.5, 1.0, 1.2, 1.5, 2.0])
def test_poisson_integral_moment_is_the_enumerated_one_and_obeys_its_bound(set_counts, p):
    # f = e_1 on (window 0, band 1) and -2 e_2 on (window 1, band 2), in
    # l^2 = R^2: E|int f dpi|^p for p <= 1 and E|int f dpi~|^p for p > 1 by
    # summing over the Poisson count pairs, against the drawn counts within
    # 4 SE; the sum obeys the paper's bound, int |f|^p dnu for p <= 1 and
    # 2^(2-p) int |f|^p dnu for p in (1, 2] (equality at p = 2)
    n1, n2 = set_counts[:, 0, 1], set_counts[:, 1, 2]
    nu = np.array([_band_measure(0.5, 0.5, 1e-2, 1e-1), _band_measure(0.5, 0.5, 1e-1, 1.0)])
    f_norm = np.array([1.0, 2.0])
    shift = nu if p > 1 else np.zeros(2)
    k = np.arange(60.0)
    weight = np.outer(stats.poisson.pmf(k, nu[0]), stats.poisson.pmf(k, nu[1]))
    exact = (weight * np.hypot.outer(k - shift[0], 2.0 * (k - shift[1])) ** p).sum()
    drawn = np.hypot(n1 - shift[0], 2.0 * (n2 - shift[1])) ** p
    assert abs(drawn.mean() - exact) <= 4.0 * drawn.std() / math.sqrt(drawn.size)
    bound = (2.0 ** (2.0 - p) if p > 1 else 1.0) * (nu * f_norm ** p).sum()
    assert exact <= bound * (1.0 + 1e-12)


@pytest.mark.parametrize("spec, route", [
    (SubordinatorSpec.stable(0.5), None),
    (SubordinatorSpec.stable(0.5).truncated(1e-3), "jumps"),
    (SubordinatorSpec(beta=0.75, drift_b=0.2).truncated(0.3), "jumps"),
])
def test_simulate_paths_laplace_identity(spec, route):
    # E exp(-r Z(T)) = exp(-T psi(r)), each route against the exponent of
    # the law it draws
    T, n = 0.8, 20000
    batch = simulate_paths(spec, T, n, stream(11, 0 if route is None else 1), grid_n=4)
    z = batch.increments((0.0, T))[:, 0]
    for r in (0.5, 1.0, 2.0):
        vals = np.exp(-r * z)
        se = vals.std() / math.sqrt(n)
        assert abs(vals.mean() - math.exp(-T * laplace_exponent(spec, r))) < 4.0 * se, r


def _complex_key_sort(times, offsets):
    """The jump route's sort before it sorted paths by jump count: complex
    numbers sort by real part (the path index), then by imaginary part (the time)."""
    keys = np.empty(times.size, dtype=complex)
    keys.real = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
    keys.imag = times
    keys.sort()
    return keys.imag.copy()


@pytest.mark.parametrize("counts", [
    [0, 1, 0, 3, 3, 3, 1, 5, 0, 3, 2],
    [0, 0, 0],
    [1],
    [9],
    [2, 2, 2, 2],
    stream(8).poisson(14.0, 4000),
], ids=["mixed", "no-jumps", "one-jump", "one-path", "equal-counts", "poisson"])
def test_times_are_sorted_within_paths_as_by_the_complex_key(counts):
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(int)
    rng = stream(5)
    for times in (rng.uniform(0.0, 2.0, offsets[-1]),
                  # a coarse grid, so that paths hold repeated times
                  0.25 * rng.integers(0, 4, offsets[-1])):
        expected = _complex_key_sort(times, offsets)
        _sort_within_paths(times, offsets)
        assert np.array_equal(times, expected)


def test_path_batch_csr_layout():
    # about 2 jumps per path
    spec = SubordinatorSpec(beta=0.5, drift_b=0.2).truncated(0.3)
    batch = simulate_paths(spec, 2.0, 300, stream(4))
    assert batch.offsets.shape == (301,) and batch.offsets[0] == 0
    assert batch.offsets[-1] == batch.times.size == batch.sizes.size
    assert (batch.counts == 0).any() and (batch.counts > 2).any()
    assert np.all((batch.times > 0) & (batch.times <= 2.0))
    assert np.array_equal(batch.rows, np.repeat(np.arange(300), batch.counts))
    # sorted within each path
    within = np.diff(batch.times)[np.diff(batch.rows) == 0]
    assert np.all(within > 0)
    z = batch.increments((0.0, 1.1))[:, 0]
    part = batch[100:200]
    assert part.n_paths == 100 and part.drift_slope == batch.drift_slope
    assert np.array_equal(part.increments((0.0, 1.1))[:, 0], z[100:200])
    for p in range(100, 200):
        jumps = slice(batch.offsets[p], batch.offsets[p + 1])
        single = batch[p:p + 1]
        assert single.n_paths == 1
        assert np.array_equal(single.times, batch.times[jumps])
        assert np.array_equal(single.sizes, batch.sizes[jumps])
        direct = batch.drift_slope * 1.1 + batch.sizes[jumps][batch.times[jumps] <= 1.1].sum()
        assert z[p] == pytest.approx(direct, rel=1e-14)


def test_drift_only_batch_has_no_jumps():
    batch = simulate_paths(SubordinatorSpec.drift_only(2.0), 3.0, 5, stream(0))
    assert batch.n_paths == 5 and batch.times.size == 0
    assert np.array_equal(batch.increments((0.0, 1.5))[:, 0], np.full(5, 3.0))


@pytest.mark.parametrize("beta", [0.25, 0.75])
def test_increments_are_the_sampled_grid_increments(beta):
    # with zero drift the cells of the sampling grid hold exactly the drawn
    # stable increments; a difference of cumulative values rounds them, and
    # at beta = 0.25 rounds many of them to 0
    n_paths, grid_n = 20, 4096
    batch = simulate_paths(SubordinatorSpec.stable(beta), 1.0, n_paths, stream(0),
                           grid_n=grid_n)
    edges = np.concatenate(([0.0], batch.times[:grid_n]))
    assert np.array_equal(batch.increments(edges), batch.sizes.reshape(n_paths, grid_n))


def test_grid_route_times_end_at_T():
    # 11 * (0.1 / 11) rounds above 0.1; the last grid time is T itself
    batch = simulate_paths(SubordinatorSpec.stable(0.5), 0.1, 3, stream(0), grid_n=11)
    assert 11 * (0.1 / 11) > 0.1 and batch.times.max() == 0.1
    assert np.array_equal(batch.increments(np.linspace(0.0, 0.1, 12)),
                          batch.sizes.reshape(3, 11))


def test_increments_at_edges_and_outside():
    # path 0 jumps before the first edge, on an edge, inside a cell and after
    # the last edge; path 1 has no jumps; path 2 jumps on the repeated edge
    batch = PathBatch(horizon_T=1.0, drift_slope=0.5,
                      offsets=np.array([0, 4, 4, 5]),
                      times=np.array([0.1, 0.25, 0.4, 0.9, 0.5]),
                      sizes=np.array([1.0, 2.0, 4.0, 8.0, 16.0]))
    edges = [0.2, 0.25, 0.5, 0.5, 0.75]
    jumps = np.array([[2.0, 4.0, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 0.0],
                      [0.0, 16.0, 0.0, 0.0]])
    got = batch.increments(edges)
    assert np.array_equal(got, 0.5 * np.diff(edges) + jumps)
    assert np.all(got[:, 2] == 0.0)
    assert batch.increments([0.3, 0.3]).shape == (3, 1)
    assert np.all(batch.increments([0.25, 0.25]) == 0.0)


@pytest.mark.parametrize("t", [0.5, 1.0])
def test_increments_from_zero_are_z_of_t(t):
    # a grid_n=1 batch has one jump per path at exactly t, and it counts
    batch = simulate_paths(SubordinatorSpec(beta=0.9, drift_b=0.3), t, 1024,
                           stream(5), grid_n=1)
    up_to_t = batch.times <= t
    z = batch.drift_slope * t + np.bincount(batch.rows[up_to_t], weights=batch.sizes[up_to_t],
                                            minlength=batch.n_paths)
    assert np.array_equal(batch.increments((0, t))[:, 0], z)


@pytest.mark.parametrize("n_paths", [1, 2, 7])
def test_marks_of_a_batch_are_bitwise_those_of_its_one_path_slices(n_paths):
    # the marks of every jump of a batch, drawn in one call, are the marks of
    # its one-path slices drawn in turn from the same generator, so no
    # reader of marks needs a batch of one path
    sub = SubordinatorSpec.stable(0.5).truncated(1e-2)
    noise = LevyNoiseSpec(CylindricalWienerSpec(np.arange(1.0, 6.0)), sub)
    batch = simulate_paths(sub, 1.0, n_paths, stream(0))
    assert batch.times.size > n_paths
    marks = increment_coefficients(noise, batch.sizes, stream(1))
    rng = stream(1)
    per_path = [increment_coefficients(noise, batch[p:p + 1].sizes, rng) for p in range(n_paths)]
    assert np.array_equal(marks, np.concatenate(per_path))


def _hand_built(**fields):
    return PathBatch(**{"horizon_T": 1.0, "drift_slope": 0.0, "offsets": [0, 2],
                        "times": [0.2, 0.5], "sizes": [1.0, 2.0], **fields})


def test_hand_built_batch_is_coerced():
    batch = _hand_built(offsets=[0, 1, 1, 2], times=[0.5, 0.2], sizes=[1, 2])
    assert batch.n_paths == 3 and batch.offsets.dtype.kind == "i"
    assert batch.times.dtype == batch.sizes.dtype == float
    # a jump at time 0 (uniform(0, T) can draw it), at T and of size 0
    assert _hand_built(times=[0.0, 1.0], sizes=[0.0, 1.0]).n_paths == 1


@pytest.mark.parametrize("fields, match", [
    ({"times": [0.5, 0.2]}, "nondecreasing"),
    ({"offsets": [0, 1, 3], "times": [0.2, 0.5, 0.4], "sizes": [1, 1, 1]}, "nondecreasing"),
    ({"offsets": [1, 2]}, "offsets"),
    ({"offsets": [0, 1]}, "offsets"),
    ({"offsets": [0, 3]}, "offsets"),
    ({"offsets": [0, 2, 1, 2]}, "offsets"),
    ({"offsets": []}, "offsets"),
    ({"sizes": [1.0]}, "one length"),
    ({"times": [-0.1, 0.5]}, r"\[0, horizon_T\]"),
    ({"times": [0.2, 1.5]}, r"\[0, horizon_T\]"),
    ({"times": [0.2, np.nan]}, r"\[0, horizon_T\]"),
    ({"sizes": [1.0, -1.0]}, "finite and nonnegative"),
    ({"sizes": [1.0, np.inf]}, "finite and nonnegative"),
    ({"sizes": [np.nan, 1.0]}, "finite and nonnegative"),
])
def test_hand_built_batch_breaking_the_layout_is_refused(fields, match):
    with pytest.raises(ValueError, match=match):
        _hand_built(**fields)


def test_cells_at_edges_and_outside():
    # the batch of test_increments_at_edges_and_outside
    batch = PathBatch(horizon_T=1.0, drift_slope=0.5,
                      offsets=np.array([0, 4, 4, 5]),
                      times=np.array([0.1, 0.25, 0.4, 0.9, 0.5]),
                      sizes=np.array([1.0, 2.0, 4.0, 8.0, 16.0]))
    starts, counts = batch.cells([0.2, 0.25, 0.5, 0.5, 0.75])
    assert np.array_equal(starts, [[1, 2, 3, 3], [4, 4, 4, 4], [4, 4, 5, 5]])
    assert np.array_equal(counts, [[1, 1, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0]])
    starts, counts = batch.cells([0.5])
    assert starts.shape == counts.shape == (3, 0)


@pytest.mark.parametrize("edges", [[0.5, 0.2], [0.0, 0.5, 0.25], [0.0, math.nan, 1.0],
                                   [0.0, math.inf], [-math.inf, 0.5], [[0.0, 0.5]], 0.5])
def test_increments_and_cells_refuse_bad_edges(edges):
    # unchecked, falling edges give a negative "increment" without the
    # jumps, and a NaN edge gives NaN increments and arbitrary cells
    batch = PathBatch(horizon_T=1.0, drift_slope=0.5, offsets=np.array([0, 4, 4, 5]),
                      times=np.array([0.1, 0.25, 0.4, 0.9, 0.5]),
                      sizes=np.array([1.0, 2.0, 4.0, 8.0, 16.0]))
    for reader in (batch.increments, batch.cells):
        with pytest.raises(ValueError, match="1-d, finite, nondecreasing"):
            reader(edges)


def test_expected_jump_count_is_bounded_before_drawing():
    with pytest.raises(ValueError, match="jumps in expectation"):
        simulate_paths(SubordinatorSpec.stable(0.9).truncated(1e-12), 1.0, 1, stream(0))
    with pytest.raises(ValueError, match="jumps in expectation"):
        simulate_paths(SubordinatorSpec.stable(0.5), 1.0, MAX_EXPECTED_JUMPS + 1,
                       stream(0), grid_n=1)
    with pytest.raises(ValueError):
        simulate_paths(SubordinatorSpec.stable(0.5), 1.0, 0, stream(0))


# -- property tests ------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(beta=st.floats(0.1, 0.9), seed=st.integers(0, 10_000),
       kind=st.sampled_from(["grid", "jumps"]))
def test_paths_are_nondecreasing(beta, seed, kind):
    spec = SubordinatorSpec.stable(beta)
    if kind == "jumps":
        spec = spec.truncated(1e-3)
    zp = simulate_paths(spec, 1.0, 1, stream(seed))
    dz = zp.increments(np.linspace(0.0, 1.0, 101))
    assert np.all(dz >= 0)
    assert dz.sum() == pytest.approx(zp.increments((0.0, 1.0))[0, 0], rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 10_000), n_paths=st.integers(1, 4),
       kind=st.sampled_from(["grid", "jumps"]))
def test_cells_hold_the_jumps_of_increments(data, seed, n_paths, kind):
    # slope x cell length + the jumps cells() names is the increment of the cell
    spec = SubordinatorSpec(beta=0.5, drift_b=0.3)
    if kind == "jumps":
        spec = spec.truncated(0.05)
    batch = simulate_paths(spec, 1.0, n_paths, stream(seed), grid_n=8)
    # edges on jump times too, so that jumps fall on edges
    point = st.floats(0.0, 1.0)
    if batch.times.size:
        point = point | st.sampled_from(batch.times.tolist())
    edges = np.sort(data.draw(st.lists(point, min_size=1, max_size=12)))
    starts, counts = batch.cells(edges)
    assert starts.shape == counts.shape == (n_paths, edges.size - 1)
    assert np.all(counts >= 0)
    assert np.all(starts >= batch.offsets[:-1, None])
    assert np.all(starts + counts <= batch.offsets[1:, None])
    jumps = [[batch.sizes[s:s + c].sum() for s, c in zip(*row)] for row in zip(starts, counts)]
    summed = batch.drift_slope * np.diff(edges) + np.reshape(jumps, starts.shape)
    assert np.allclose(summed, batch.increments(edges), rtol=1e-12, atol=0.0)


@settings(max_examples=20, deadline=None)
@given(r=st.floats(0.0, 50.0), beta=st.floats(0.05, 0.95), b=st.floats(0.0, 3.0))
def test_laplace_exponent_is_monotone_and_zero_at_zero(r, beta, b):
    spec = SubordinatorSpec(beta=beta, drift_b=b)
    assert laplace_exponent(spec, 0.0) == 0.0
    assert laplace_exponent(spec, r) <= laplace_exponent(spec, r + 1.0)


class _ChosenDraws:
    """Stands in for a Generator in sample_stable_oneside: uniform(0, pi) returns
    pi * k 2^-53, numpy's grid of uniforms, and exponential returns e."""

    def __init__(self, k, e):
        self.k, self.e = k, e

    def uniform(self, low, high, size=None):
        return low + (high - low) * np.array([self.k * 2.0 ** -53])

    def exponential(self, size=None):
        return np.array([self.e])


def _exact_log_stable(beta, u, e):
    """log S of Kanter's formula in 40-digit arithmetic, at the same double u."""
    with mpmath.workdps(40):
        b, u, e = mpmath.mpf(beta), mpmath.mpf(u), mpmath.mpf(e)
        if u == 0:
            log_a = (b * mpmath.log(b) + (1 - b) * mpmath.log(1 - b)) / (1 - b)
        else:
            log_a = (b * mpmath.log(mpmath.sin(b * u)) + (1 - b) * mpmath.log(mpmath.sin((1 - b) * u))
                     - mpmath.log(mpmath.sin(u))) / (1 - b)
        return float((1 - b) / b * (log_a - mpmath.log(e)))


LOG_MAX = math.log(np.finfo(float).max)
UNIFORM_K = st.one_of(st.integers(0, 2 ** 10), st.integers(2 ** 53 - 2 ** 10, 2 ** 53 - 1),
                      st.integers(0, 2 ** 53 - 1))


@settings(max_examples=300, deadline=None)
@given(beta=st.one_of(st.sampled_from([0.02, 0.98]), st.floats(0.02, 0.98)),
       k=UNIFORM_K, e=st.floats(2.0 ** -53, 45.0))
@example(beta=0.02, k=0, e=1.0)
@example(beta=0.98, k=0, e=1.0)
@example(beta=0.02, k=2 ** 53 - 1, e=45.0)
@example(beta=0.98, k=2 ** 53 - 1, e=2.0 ** -53)
def test_stable_sampler_at_kanter_edges(beta, k, e):
    # every uniform numpy can draw, u = 0 included, and exponentials over
    # their practical range: never NaN, positive, and OverflowError only
    # where the exact value exceeds the double range (at beta = 0.02 that is
    # a tail of probability about exp(-0.02 * 709.8) / Gamma(0.98), 7e-7)
    ref = _exact_log_stable(beta, np.pi * (k * 2.0 ** -53), e)
    if ref > LOG_MAX + 1e-6:
        with pytest.raises(OverflowError, match=f"beta={beta:g}"):
            sample_stable_oneside(beta, 1, _ChosenDraws(k, e))
    elif ref < LOG_MAX - 1e-6:
        s = float(sample_stable_oneside(beta, 1, _ChosenDraws(k, e))[0])
        assert 0.0 < s < math.inf
        assert math.log(s) == pytest.approx(ref, rel=1e-9, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(beta=st.one_of(st.sampled_from([0.02, 0.98]), st.floats(0.02, 0.98)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stable_sampler_draws_are_positive_and_finite(beta, seed):
    # at beta >= 0.25 the chance of a draw beyond the double range is below
    # 1e-70; at smaller beta such a draw raises OverflowError, and only NaN
    # and non-positive values are ruled out
    try:
        s = sample_stable_oneside(beta, 4096, stream(seed))
    except OverflowError:
        assert beta < 0.25
        return
    assert s.shape == (4096,)
    assert np.all(s > 0.0)
    assert np.all(np.isfinite(s))


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        SubordinatorSpec.stable(1.5)
    with pytest.raises(ValueError):
        SubordinatorSpec(drift_b=-1.0)
    with pytest.raises(ValueError):
        simulate_paths(SubordinatorSpec.stable(0.5), -1.0, 1, stream(0))
    with pytest.raises(ValueError, match="cutoff"):
        SubordinatorSpec.stable(0.5).truncated(2.0)
    for grid_n in (0, -2):
        with pytest.raises(ValueError, match="grid_n"):
            simulate_paths(SubordinatorSpec.stable(0.5), 1.0, 1, stream(0), grid_n=grid_n)


def test_kind_is_read_off_the_fields_and_a_bad_law_is_refused():
    assert SubordinatorSpec.stable(0.5).kind == "stable"
    assert SubordinatorSpec.drift_only(1.0).kind == "drift_only"
    assert SubordinatorSpec.stable(0.5).truncated(0.1).kind == "truncated_stable"
    # a cutoff truncates a stable law once, within (0, 1]
    for spec in (SubordinatorSpec.stable(0.5).truncated(0.1), SubordinatorSpec.drift_only(1.0)):
        with pytest.raises(ValueError, match="only a stable spec"):
            spec.truncated(0.1)
    for eps in (0.0, -0.1, 1.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="cutoff"):
            SubordinatorSpec.stable(0.5).truncated(eps)
        with pytest.raises(ValueError, match="cutoff"):
            SubordinatorSpec(beta=0.5, cutoff=eps)
    with pytest.raises(ValueError, match="cutoff"):
        SubordinatorSpec(drift_b=1.0, cutoff=0.1)
    assert jump_law(SubordinatorSpec.stable(0.5)) == SubordinatorSpec.stable(0.5).truncated(
        JUMP_CUTOFF)
    for spec in (SubordinatorSpec.stable(0.5).truncated(0.1), SubordinatorSpec.drift_only(1.0)):
        assert jump_law(spec) is spec
    for beta in (0.0, 1.0, math.nan):
        with pytest.raises(ValueError, match="beta"):
            SubordinatorSpec(beta=beta)
    for b in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="drift"):
            SubordinatorSpec.drift_only(b)
        with pytest.raises(ValueError, match="drift"):
            SubordinatorSpec(beta=0.5, drift_b=b)


def test_a_stable_spec_compares_by_its_fields():
    spec = SubordinatorSpec.stable(0.5)
    assert spec == SubordinatorSpec.stable(0.5) != SubordinatorSpec.stable(0.6)
    drifted = dataclasses.replace(spec, drift_b=1.0)
    assert (drifted.drift_b, drifted.beta, drifted.kind) == (1.0, 0.5, "stable")
    assert drifted.jump_measure.mass == spec.jump_measure.mass == math.inf
    # a truncated spec too, and it stays hashable
    cut = spec.truncated(0.1)
    assert cut == SubordinatorSpec.stable(0.5).truncated(0.1) != spec.truncated(0.2)
    assert len({cut, SubordinatorSpec.stable(0.5).truncated(0.1), spec}) == 2


@pytest.mark.parametrize("T", [math.nan, math.inf])
@pytest.mark.parametrize("spec", [
    SubordinatorSpec.stable(0.5), SubordinatorSpec.stable(0.5).truncated(1e-4),
    SubordinatorSpec.drift_only(1.0), SubordinatorSpec(beta=0.3, drift_b=0.2).truncated(0.05)],
    ids=["stable-grid", "stable-jumps", "drift-only", "drifted-jumps"])
def test_simulate_paths_refuses_a_horizon_that_is_not_finite(spec, T):
    with pytest.raises(ValueError, match="T must be finite and positive"):
        simulate_paths(spec, T, 1, stream(0))
