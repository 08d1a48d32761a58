import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from levyfield._rng import stream
from levyfield.subordinator import (
    MAX_EXPECTED_JUMPS,
    SubordinatorPath,
    SubordinatorSpec,
    finite_variation_diagnostic,
    laplace_exponent,
    sample_stable_oneside,
    simulate_paths,
    sub_p_membership,
)


# -- Laplace exponent ----------------------------------------------------


def test_laplace_exponent_stable_closed_form():
    spec = SubordinatorSpec.stable(0.5)
    assert laplace_exponent(spec, 4.0) == pytest.approx(2.0, rel=1e-14)


def test_laplace_exponent_zero_argument():
    for spec in (SubordinatorSpec.stable(0.3),
                 SubordinatorSpec.drift_only(1.0),
                 SubordinatorSpec.compound_poisson([2.5], [0.7])):
        assert laplace_exponent(spec, 0.0) == 0.0


def test_laplace_exponent_drift_only():
    spec = SubordinatorSpec.drift_only(1.5)
    assert laplace_exponent(spec, 2.0) == pytest.approx(3.0, rel=1e-14)


def test_laplace_exponent_tabulated_matches_stable():
    # same density as the 0.5-stable intensity, but integrated numerically
    beta = 0.5
    c = beta / math.gamma(1.0 - beta)
    spec = SubordinatorSpec.tabulated(lambda x: c * x ** (-1.0 - beta))
    for r in (0.5, 1.0, 2.0):
        assert laplace_exponent(spec, r) == pytest.approx(r ** beta, rel=1e-6)


def test_laplace_exponent_compound_poisson_exact():
    sizes, rates = np.array([0.5, 2.0]), np.array([1.0, 0.25])
    spec = SubordinatorSpec.compound_poisson(sizes, rates)
    r = 1.3
    expected = ((1.0 - np.exp(-r * sizes)) * rates).sum()
    assert laplace_exponent(spec, r) == pytest.approx(expected, rel=1e-14)


def test_laplace_exponent_rejects_negative_argument():
    with pytest.raises(ValueError):
        laplace_exponent(SubordinatorSpec.stable(0.5), -1.0)


# -- Sub(p) membership ---------------------------------------------------


def test_sub_p_stable_above_and_below():
    ok, cert = sub_p_membership(SubordinatorSpec.stable(0.75), 1.0)
    assert not ok and cert == math.inf
    ok, cert = sub_p_membership(SubordinatorSpec.stable(0.25), 1.0)
    assert ok and np.isfinite(cert)
    # closed form: c/(p/2 - beta) with c = beta/Gamma(1-beta)
    c = 0.25 / math.gamma(0.75)
    assert cert == pytest.approx(c / (0.5 - 0.25), rel=1e-12)


def test_sub_p_compound_poisson_all_p():
    spec = SubordinatorSpec.compound_poisson([0.5, 2.0], [1.0, 1.0])
    ok, cert = sub_p_membership(spec, 0.1)
    assert ok
    assert cert == pytest.approx(0.5 ** 0.05, rel=1e-12)  # only the atom < 1 counts


def test_sub_p_boundary_is_excluded():
    # p/2 == beta diverges (log divergence at 0)
    ok, _ = sub_p_membership(SubordinatorSpec.stable(0.5), 1.0)
    assert not ok


# -- finite variation ----------------------------------------------------


def test_finite_variation_verdicts():
    assert finite_variation_diagnostic(SubordinatorSpec.stable(0.25)) is True
    assert finite_variation_diagnostic(SubordinatorSpec.stable(0.75)) is False
    assert finite_variation_diagnostic(
        SubordinatorSpec.compound_poisson([1.5], [2.0])) is True
    assert finite_variation_diagnostic(SubordinatorSpec.drift_only(1.0)) is False


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


# -- path simulation -----------------------------------------------------


def test_drift_only_path_is_deterministic():
    path = simulate_paths(SubordinatorSpec.drift_only(2.0), 3.0, 1, stream(0)).path(0)
    assert path.times.size == 0
    assert path.value(3.0) == pytest.approx(6.0)
    assert path.value(0.0) == 0.0


def test_stable_grid_path_laplace_transform():
    spec = SubordinatorSpec.stable(0.5)
    batch = simulate_paths(spec, 1.0, 3000, stream(0), grid_n=4)
    vals = np.exp(-batch.values(1.0))
    se = vals.std() / math.sqrt(vals.size)
    assert abs(vals.mean() - math.exp(-1.0)) < 4.0 * se


def test_jump_route_matches_laplace_transform_within_cutoff_bias():
    beta = 0.5
    c = beta / math.gamma(1.0 - beta)
    spec = SubordinatorSpec.tabulated(lambda x: c * x ** (-1.0 - beta))
    vals = np.exp(-simulate_paths(spec, 1.0, 20000, stream(0), cutoff_eps=1e-4).values(1.0))
    assert abs(vals.mean() - math.exp(-1.0)) < 1e-2


def test_cutoff_bias_decreases_when_halved():
    spec = SubordinatorSpec.stable(0.5)
    target = math.exp(-1.0)

    def bias(eps):
        batch = simulate_paths(spec, 1.0, 3000, stream(0), cutoff_eps=eps, method="jumps")
        vals = np.exp(-batch.values(1.0))
        return vals.mean() - target, vals.std() / math.sqrt(vals.size)

    b_coarse, se = bias(2e-2)
    b_fine, _ = bias(1e-2)
    assert abs(b_fine) < abs(b_coarse) + 4.0 * se


def test_path_determinism_is_bitwise():
    spec = SubordinatorSpec.stable(0.6)
    a = simulate_paths(spec, 2.0, 4, stream(7), cutoff_eps=1e-3, method="jumps")
    b = simulate_paths(spec, 2.0, 4, stream(7), cutoff_eps=1e-3, method="jumps")
    assert np.array_equal(a.offsets, b.offsets)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.sizes, b.sizes)
    assert a.compensation == b.compensation


def test_csv_roundtrip(tmp_path):
    zp = simulate_paths(SubordinatorSpec.stable(0.5), 1.0, 1, stream(3), method="jumps").path(0)
    f = tmp_path / "path.csv"
    zp.to_csv(f)
    back = SubordinatorPath.from_csv(f)
    assert back.horizon_T == zp.horizon_T
    assert np.array_equal(back.times, zp.times)
    assert np.array_equal(back.sizes, zp.sizes)
    assert back.compensation == zp.compensation


def test_config_roundtrip():
    for spec in (SubordinatorSpec.stable(0.4),
                 SubordinatorSpec.drift_only(2.0),
                 SubordinatorSpec.compound_poisson([1.0, 3.0], [0.5, 0.2])):
        back = SubordinatorSpec.from_config(spec.to_config())
        assert back.kind == spec.kind
        assert laplace_exponent(back, 1.7) == pytest.approx(
            laplace_exponent(spec, 1.7), rel=1e-14)


# -- batched paths -------------------------------------------------------


def _per_path_sampler(spec, T, cutoff_eps, seed, grid_n, method):
    """The one-path sampler that a batch of one was before paths were drawn in batches."""
    rng = stream(seed)
    if spec.kind == "drift_only":
        return np.empty(0), np.empty(0), 0.0
    if spec.kind == "stable" and method != "jumps":
        dt = T / grid_n
        incr = dt ** (1.0 / spec.beta) * sample_stable_oneside(spec.beta, grid_n, rng)
        return dt * np.arange(1, grid_n + 1), incr, 0.0
    if spec.kind == "compound_poisson":
        eps, rate, compensation = 0.0, spec.intensity.tail_mass(0.0), 0.0
    else:
        eps = cutoff_eps
        rate = spec.intensity.tail_mass(eps)
        compensation = spec.intensity.truncated_moment(1.0, 0.0, eps)
    n = rng.poisson(rate * T)
    times = np.sort(rng.uniform(0.0, T, size=n))
    sizes = spec.intensity.sample_sizes(max(eps, 1e-300), n, rng) if n else np.empty(0)
    return times, sizes, compensation


def _stable_density(beta):
    c = beta / math.gamma(1.0 - beta)
    return SubordinatorSpec.tabulated(lambda x: c * x ** (-1.0 - beta))


@pytest.mark.parametrize("spec, method", [
    (SubordinatorSpec.stable(0.5), None),
    (SubordinatorSpec.stable(0.9), "jumps"),
    (SubordinatorSpec.drift_only(1.5), None),
    (SubordinatorSpec.compound_poisson([0.3, 2.0], [2.0, 0.5], drift_b=0.2), None),
    (_stable_density(0.5), None),
])
def test_simulate_path_is_bitwise_the_per_path_sampler(spec, method):
    for seed in range(20):
        for eps in (1e-2, 1e-4):
            grid_n = 1 + seed % 7
            zp = simulate_paths(spec, 1.3, 1, stream(seed), cutoff_eps=eps, method=method,
                                grid_n=grid_n).path(0)
            times, sizes, compensation = _per_path_sampler(spec, 1.3, eps, seed, grid_n, method)
            assert np.array_equal(zp.times, times)
            assert np.array_equal(zp.sizes, sizes)
            assert zp.compensation == compensation
            assert zp.drift_slope == spec.drift_b


@pytest.mark.parametrize("spec, method", [
    (SubordinatorSpec.stable(0.5), None),
    (SubordinatorSpec.stable(0.5), "jumps"),
    (SubordinatorSpec.compound_poisson([0.3, 2.0], [2.0, 0.5], drift_b=0.2), "jumps"),
])
def test_simulate_paths_laplace_identity(spec, method):
    # E exp(-r Z(T)) = exp(-T psi(r)); the cutoff route's bias at eps=1e-3
    # is below 1e-5, far under the Monte Carlo standard error
    T, n = 0.8, 20000
    batch = simulate_paths(spec, T, n, stream(11, 0 if method is None else 1),
                           cutoff_eps=1e-3, method=method, grid_n=4)
    z = batch.values(T)
    for r in (0.5, 1.0, 2.0):
        vals = np.exp(-r * z)
        se = vals.std() / math.sqrt(n)
        assert abs(vals.mean() - math.exp(-T * laplace_exponent(spec, r))) < 4.0 * se, r


def test_path_batch_csr_layout():
    spec = SubordinatorSpec.compound_poisson([0.3, 2.0], [1.0, 0.5], drift_b=0.2)
    batch = simulate_paths(spec, 2.0, 300, stream(4), method="jumps")
    assert batch.offsets.shape == (301,) and batch.offsets[0] == 0
    assert batch.offsets[-1] == batch.times.size == batch.sizes.size
    assert (batch.counts == 0).any() and (batch.counts > 2).any()
    assert np.all((batch.times > 0) & (batch.times <= 2.0))
    assert np.array_equal(batch.rows, np.repeat(np.arange(300), batch.counts))
    # sorted within each path, and each path is a valid SubordinatorPath
    within = np.diff(batch.times)[np.diff(batch.rows) == 0]
    assert np.all(within > 0)
    values = batch.values(1.1)
    part = batch[100:200]
    assert part.n_paths == 100 and part.total_slope == batch.total_slope
    for p in range(100, 200):
        zp = batch.path(p)
        assert zp.value(1.1) == pytest.approx(values[p], rel=1e-14)
        assert np.array_equal(part.path(p - 100).times, zp.times)
        single = batch[p:p + 1]
        assert single.n_paths == 1 and np.array_equal(single.path(0).sizes, zp.sizes)


def test_drift_only_batch_has_no_jumps():
    batch = simulate_paths(SubordinatorSpec.drift_only(2.0), 3.0, 5, stream(0))
    assert batch.n_paths == 5 and batch.times.size == 0
    assert np.array_equal(batch.values(1.5), np.full(5, 3.0))


def test_expected_jump_count_is_bounded_before_drawing():
    with pytest.raises(ValueError, match="jumps in expectation"):
        simulate_paths(SubordinatorSpec.stable(0.9), 1.0, 1, stream(0),
                       cutoff_eps=1e-12, method="jumps")
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
    zp = simulate_paths(spec, 1.0, 1, stream(seed), cutoff_eps=1e-3,
                        method="jumps" if kind == "jumps" else None).path(0)
    grid = np.linspace(0.0, 1.0, 101)
    vals = zp.value(grid)
    assert np.all(np.diff(vals) >= 0)
    assert vals[0] == 0.0


@settings(max_examples=20, deadline=None)
@given(r=st.floats(0.0, 50.0), beta=st.floats(0.05, 0.95), b=st.floats(0.0, 3.0))
def test_laplace_exponent_is_monotone_and_zero_at_zero(r, beta, b):
    spec = SubordinatorSpec(kind="stable", beta=beta, drift_b=b)
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
@pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
def test_stable_sampler_at_kanter_edges(beta, k, e):
    # every uniform numpy can draw, u = 0 included, and exponentials over
    # their practical range: never NaN, positive, and +inf only where the
    # exact value exceeds the double range (at beta = 0.02 that is a tail
    # of probability about exp(-0.02 * 709.8) / Gamma(0.98), 7e-7)
    s = float(sample_stable_oneside(beta, 1, _ChosenDraws(k, e))[0])
    ref = _exact_log_stable(beta, np.pi * (k * 2.0 ** -53), e)
    assert s > 0.0
    if ref > LOG_MAX + 1e-6:
        assert s == math.inf
    elif ref < LOG_MAX - 1e-6:
        assert math.isfinite(s)
        assert math.log(s) == pytest.approx(ref, rel=1e-9, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(beta=st.one_of(st.sampled_from([0.02, 0.98]), st.floats(0.02, 0.98)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stable_sampler_draws_are_positive_and_finite(beta, seed):
    # at beta >= 0.25 the chance of a draw beyond the double range is below
    # 1e-70; at smaller beta only NaN and non-positive values are ruled out
    s = sample_stable_oneside(beta, 4096, stream(seed))
    assert s.shape == (4096,)
    assert np.all(s > 0.0)
    if beta >= 0.25:
        assert np.all(np.isfinite(s))


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        SubordinatorSpec.stable(1.5)
    with pytest.raises(ValueError):
        SubordinatorSpec(kind="drift_only", drift_b=-1.0)
    with pytest.raises(ValueError):
        simulate_paths(SubordinatorSpec.stable(0.5), -1.0, 1, stream(0))
    with pytest.raises(ValueError):
        simulate_paths(SubordinatorSpec.stable(0.5), 1.0, 1, stream(0), cutoff_eps=2.0)
