import math

import numpy as np
import pytest
from scipy import stats

from levyfield._rng import stream
from levyfield.noise import (
    CylindricalWienerSpec,
    LevyNoiseSpec,
    char_functional,
    finite_variation_test,
    increment_coefficients,
    intensity_measure_functional,
)
from levyfield.subordinator import SubordinatorSpec, finite_variation_diagnostic, simulate_paths


def make_spec(sub, n_modes=8, weights=None):
    w = np.ones(n_modes) if weights is None else np.asarray(weights, dtype=float)
    return LevyNoiseSpec(CylindricalWienerSpec(w), sub)


# -- characteristic functional -------------------------------------------


def test_charfn_zero_test_function():
    spec = make_spec(SubordinatorSpec.stable(0.7))
    for t in (0.1, 1.0, 5.0):
        assert char_functional(spec, np.zeros(8), t) == 1.0


@pytest.mark.parametrize("t", [float("nan"), -1.0])
def test_charfn_refuses_a_nan_or_negative_time(t):
    with pytest.raises(ValueError, match="t must be nonnegative"):
        char_functional(make_spec(SubordinatorSpec.stable(0.7)), np.ones(8), t)


def test_charfn_stable_closed_form():
    # |phi|_H = c gives exp(-t (1/2)^(alpha/2) c^alpha) with alpha = 2 beta
    beta = 0.45
    alpha = 2.0 * beta
    spec = make_spec(SubordinatorSpec.stable(beta))
    phi = np.zeros(8)
    phi[2] = 1.3
    c = 1.3
    for t in (0.5, 2.0):
        expected = math.exp(-t * 0.5 ** (alpha / 2.0) * c ** alpha)
        assert char_functional(spec, phi, t) == pytest.approx(expected, rel=1e-13)


def test_charfn_gaussian_case():
    spec = make_spec(SubordinatorSpec.drift_only(1.7))
    phi = stream(1).standard_normal(8)
    t = 0.8
    expected = math.exp(-t * 1.7 * 0.5 * float((phi ** 2).sum()))
    assert char_functional(spec, phi, t) == pytest.approx(expected, rel=1e-13)


def test_charfn_weighted_h_norm():
    w = np.array([1.0, 2.0, 0.5])
    spec = make_spec(SubordinatorSpec.stable(0.5), 3, w)
    phi = np.array([1.0, 1.0, 2.0])
    hsq = float(((w * phi) ** 2).sum())
    expected = math.exp(-(0.5 * hsq) ** 0.5)
    assert char_functional(spec, phi, 1.0) == pytest.approx(expected, rel=1e-13)


def test_charfn_semigroup_property():
    spec = make_spec(SubordinatorSpec.stable(0.6))
    phi = stream(2).standard_normal(8) * 0.4
    assert char_functional(spec, phi, 2.0) == pytest.approx(
        char_functional(spec, phi, 1.0) ** 2, rel=1e-12)


# -- increment sampling --------------------------------------------------


def test_increment_variance_drift_only():
    spec = make_spec(SubordinatorSpec.drift_only(1.0))
    dz = simulate_paths(spec.subordinator, 1.0, 4000, stream(0, 1)).increments((0.0, 1.0))[:, 0]
    assert np.all(dz == 1.0)
    inc = increment_coefficients(spec, dz, stream(0, 2))
    var = inc.var(axis=0)
    # chi-square band for the per-mode sample variance at 99.9% coverage
    n = inc.shape[0]
    lo = stats.chi2.ppf(5e-4, n - 1) / (n - 1)
    hi = stats.chi2.ppf(1 - 5e-4, n - 1) / (n - 1)
    assert np.all(var > lo) and np.all(var < hi)


def test_zero_length_cell_gives_zero_increment():
    spec = make_spec(SubordinatorSpec.stable(0.5))
    zp = simulate_paths(spec.subordinator, 1.0, 1, stream(1))
    out = increment_coefficients(spec, zp.increments([0.5, 0.5])[0], stream(0))
    assert np.all(out == 0.0)


def test_increment_mc_matches_charfn():
    beta = 0.9
    spec = make_spec(SubordinatorSpec.stable(beta), n_modes=8)
    phi = stream(3).standard_normal(8) / math.sqrt(8.0)
    t = 1.0
    mc = 20000
    z = simulate_paths(spec.subordinator, t, mc, stream(3, 1), grid_n=1).increments((0.0, t))[:, 0]
    vals = np.cos(increment_coefficients(spec, z, stream(3, 2)) @ phi)
    emp = vals.mean()
    se = vals.std() / math.sqrt(mc)
    assert abs(emp - char_functional(spec, phi, t)) < 4.0 * se


def test_jump_times_of_y_match_z():
    spec = make_spec(SubordinatorSpec.stable(0.5))
    zp = simulate_paths(spec.subordinator, 1.0, 1, stream(5), cutoff_eps=1e-2,
                        method="jumps")
    # increments over cells that contain no Z-jump have zero conditional
    # variance beyond the compensation slope contribution
    grid = np.linspace(0.0, 1.0, 21)
    jump_part = zp.increments(grid)[0] - zp.total_slope * np.diff(grid)
    for lo, hi, part in zip(grid[:-1], grid[1:], jump_part):
        in_cell = np.any((zp.times > lo) & (zp.times <= hi))
        assert (part > 1e-12) == bool(in_cell)


# -- intensity measure ---------------------------------------------------


def test_intensity_functional_compound_poisson_total_mass():
    spec = make_spec(SubordinatorSpec.compound_poisson([0.5, 2.0], [1.2, 0.3]))
    total = intensity_measure_functional(spec, lambda x: np.ones_like(x))
    assert total == pytest.approx(1.5, rel=1e-12)


def test_intensity_functional_large_jump_rate_vs_empirical():
    spec = make_spec(SubordinatorSpec.stable(0.5), n_modes=4)
    rate = intensity_measure_functional(
        spec, lambda x: (x >= 1.0).astype(float), quad_tol=1e-4)
    batch = simulate_paths(spec.subordinator, 1.0, 600, stream(0, 1), cutoff_eps=1e-3,
                           method="jumps")
    marks = np.sqrt(batch.sizes)[:, None] * stream(0, 2).standard_normal((batch.sizes.size, 4))
    large = np.sqrt((marks ** 2).sum(axis=1)) >= 1.0
    counts = np.bincount(batch.rows[large], minlength=batch.n_paths)
    emp = np.mean(counts)
    se = np.std(counts) / math.sqrt(counts.size)
    assert abs(emp - rate) < 4.0 * se


def test_intensity_second_moment_bound():
    # int_{|u|<=1} |u|^2 nu(du) <= sum w_j^-2 * int_0^1 s rho(ds) + rho([1,inf))
    spec = make_spec(SubordinatorSpec.stable(0.4), n_modes=4)
    lhs = intensity_measure_functional(
        spec, lambda x: np.where(x <= 1.0, x ** 2, 0.0), quad_tol=1e-4)
    c_trace = float((1.0 / spec.wiener.hilbert_weights ** 2).sum())
    small = spec.subordinator.intensity.truncated_moment(1.0, 0.0, 1.0)
    tail = spec.subordinator.intensity.tail_mass(1.0)
    assert lhs <= c_trace * small + tail + 1e-9


# -- finite variation ----------------------------------------------------


def test_finite_variation_scalar_stable_cases():
    fine = finite_variation_test(make_spec(SubordinatorSpec.stable(0.25), 1))
    assert fine["analytic_finite"] and fine["empirical_finite"] and fine["agree"]
    rough = finite_variation_test(make_spec(SubordinatorSpec.stable(0.75), 1))
    assert not rough["analytic_finite"] and not rough["empirical_finite"]


def test_finite_variation_gaussian_case():
    rep = finite_variation_test(make_spec(SubordinatorSpec.drift_only(1.0), 1))
    assert not rep["analytic_finite"]
    assert not rep["empirical_finite"]
    # Brownian total variation doubles per 4x refinement step
    assert rep["empirical_growth_ratio"] == pytest.approx(2.0, abs=0.2)


def test_finite_variation_stable_verdict_holds_across_seeds():
    # int_0^1 s^(1/2) rho(ds) < inf for beta = 1/4: every seed must agree
    spec = make_spec(SubordinatorSpec.stable(0.25), 1)
    for seed in range(10):
        rep = finite_variation_test(spec, seed=seed)
        assert rep["analytic_finite"] and rep["agree"], (seed, rep)


@pytest.mark.parametrize("sub", [
    SubordinatorSpec.stable(0.25),
    SubordinatorSpec.stable(0.75),
    SubordinatorSpec.drift_only(1.0),
    SubordinatorSpec.compound_poisson([2.5], [1.0], drift_b=0.5),
    SubordinatorSpec.tabulated(lambda x: 0.5 / math.gamma(0.5) * x ** -1.5),
], ids=["stable-0.25", "stable-0.75", "gaussian", "compound-poisson", "tabulated"])
def test_finite_variation_growth_is_at_least_one(sub):
    # refining the grid of one path cannot lower its total variation
    rep = finite_variation_test(make_spec(sub, 2), mc_paths=8, seed=1)
    assert rep["empirical_growth_ratio"] >= 1.0


def test_finite_variation_compound_poisson():
    rep = finite_variation_test(
        make_spec(SubordinatorSpec.compound_poisson([2.5], [1.0]), 1))
    assert rep["analytic_finite"] and rep["empirical_finite"]


@pytest.mark.parametrize("sub, finite, integral", [
    (SubordinatorSpec.stable(0.25), True, 0.25 / math.gamma(0.75) / 0.25),
    (SubordinatorSpec.stable(0.49), True, 0.49 / math.gamma(0.51) / 0.01),
    (SubordinatorSpec.stable(0.5), False, math.inf),
    (SubordinatorSpec.stable(0.75), False, math.inf),
    (SubordinatorSpec.drift_only(1.0), False, 0.0),
    (SubordinatorSpec.compound_poisson([2.5], [1.0]), True, 0.0),
    (SubordinatorSpec.compound_poisson([2.5], [1.0], drift_b=0.5), False, 0.0),
    (SubordinatorSpec.compound_poisson([0.5, 1.0], [2.0, 1.0], drift_b=0.5), False, 2.0 * 0.5 ** 0.5),
    (SubordinatorSpec.tabulated(lambda x: 0.5 / math.gamma(0.5) * x ** -1.5), False, math.inf),
], ids=["stable-0.25", "stable-0.49", "stable-0.5", "stable-0.75", "gaussian",
        "compound-poisson", "compound-poisson-drift", "small-jumps-drift", "tabulated"])
def test_finite_variation_verdict_is_the_exact_criterion(sub, finite, integral):
    # the verdict is finite_variation_diagnostic's, and the certificate
    # int_0^1 s^(1/2) rho(ds) is Sub(1)'s, for every U-norm
    rep = finite_variation_test(make_spec(sub, 2), mc_paths=2)
    assert rep["analytic_finite"] is finite_variation_diagnostic(sub) is finite
    assert rep["criterion_integral"] == pytest.approx(integral, rel=1e-12)
