import math

import numpy as np
import pytest
from scipy import stats

from levyfield._rng import stream
from levyfield.noise import (
    CylindricalWienerSpec,
    LevyNoiseSpec,
    char_functional,
    increment_coefficients,
    jump_rate,
)
from levyfield.spaces import SpaceSpec
from levyfield.subordinator import PathBatch, SubordinatorSpec, simulate_paths


def make_spec(sub, n_modes=8, weights=None):
    w = np.ones(n_modes) if weights is None else np.asarray(weights, dtype=float)
    return LevyNoiseSpec(CylindricalWienerSpec(w), sub)


def euclidean(n_modes=8):
    """U = l^2 with unit weights on n_modes modes: |u|_U is the Euclidean norm."""
    return SpaceSpec(2.0, np.ones(n_modes))


# -- characteristic functional -------------------------------------------


def test_charfn_zero_test_function():
    spec = make_spec(SubordinatorSpec.stable(0.7))
    for t in (0.1, 1.0, 5.0):
        assert char_functional(spec, np.zeros(8), t) == 1.0


@pytest.mark.parametrize("t", [float("nan"), math.inf, -math.inf, -1.0])
def test_charfn_refuses_a_non_finite_or_negative_time(t):
    with pytest.raises(ValueError, match="t must be finite and nonnegative"):
        char_functional(make_spec(SubordinatorSpec.stable(0.7)), np.ones(8), t)


@pytest.mark.parametrize("phi", [1.0, np.ones((2, 8)), np.ones(7)],
                         ids=["scalar", "block", "short"])
def test_charfn_refuses_a_phi_that_is_not_one_coefficient_per_mode(phi):
    with pytest.raises(ValueError, match=r"phi must have shape \(8,\)"):
        char_functional(make_spec(SubordinatorSpec.stable(0.7)), phi, 1.0)


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
    zp = simulate_paths(spec.subordinator.truncated(1e-2), 1.0, 1, stream(5))
    # increments over cells that contain no Z-jump have zero conditional
    # variance beyond the drift's contribution
    grid = np.linspace(0.0, 1.0, 21)
    jump_part = zp.increments(grid)[0] - zp.drift_slope * np.diff(grid)
    for lo, hi, part in zip(grid[:-1], grid[1:], jump_part):
        in_cell = np.any((zp.times > lo) & (zp.times <= hi))
        assert (part > 1e-12) == bool(in_cell)


# -- weights -------------------------------------------------------------


@pytest.mark.parametrize("bad", [math.inf, float("nan"), 0.0, -1.0])
def test_wiener_spec_refuses_a_weight_that_is_not_positive_and_finite(bad):
    with pytest.raises(ValueError, match="positive, finite"):
        CylindricalWienerSpec([1.0, bad])


# -- jump rate -----------------------------------------------------------


def unit_weight_rate(beta, n_modes, r):
    """nu(|u| >= r) for unit weights: X is chi-square with n_modes degrees,
    so E X^beta = 2^beta Gamma(n/2 + beta) / Gamma(n/2)."""
    mean_x_beta = 2.0 ** beta * math.exp(math.lgamma(n_modes / 2 + beta)
                                         - math.lgamma(n_modes / 2))
    return r ** (-2.0 * beta) * mean_x_beta / math.gamma(1.0 - beta)


@pytest.mark.parametrize("r", [0.05, 1.0, 3.0])
@pytest.mark.parametrize("n_modes", [1, 4, 64])
@pytest.mark.parametrize("beta", [0.1, 0.5, 0.95])
def test_jump_rate_matches_the_unit_weight_closed_form(beta, n_modes, r):
    spec = make_spec(SubordinatorSpec.stable(beta), n_modes=n_modes)
    rate = jump_rate(spec, r, euclidean(n_modes))
    assert rate == pytest.approx(unit_weight_rate(beta, n_modes, r), rel=1e-10)


@pytest.mark.parametrize("c", [0.3, 7.0])
@pytest.mark.parametrize("beta", [0.2, 0.6, 0.9])
def test_jump_rate_scales_the_wiener_weights_into_the_threshold(beta, c):
    # W(1) with weights c w is W(1) with weights w divided by c
    w = np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    U = SpaceSpec(2.0, [1.0, 0.3, 2.0, 0.7, 0.1, 5.0])
    scaled = jump_rate(make_spec(SubordinatorSpec.stable(beta), 6, c * w), 0.8, U)
    assert scaled == pytest.approx(
        jump_rate(make_spec(SubordinatorSpec.stable(beta), 6, w), c * 0.8, U), rel=1e-10)


def test_jump_rate_at_the_blowup_defaults():
    # 4096 unit-weight modes, U-weights 1/j, beta = 0.5 and threshold 0.05
    j = np.arange(1.0, 4097.0)
    rate = jump_rate(make_spec(SubordinatorSpec.stable(0.5), 4096), 0.05, SpaceSpec(2.0, 1.0 / j))
    assert round(rate, 2) == 13.40


def test_jump_rate_of_a_pure_drift_is_zero():
    assert jump_rate(make_spec(SubordinatorSpec.drift_only(1.3)), 0.5, euclidean()) == 0.0


@pytest.mark.parametrize("beta, eps", [(0.5, 0.1), (0.75, 0.3), (0.5, 0.5), (0.5, 1e-3)])
def test_jump_rate_refuses_a_truncated_law(beta, eps):
    # the scaling in s behind the closed form stops at the cutoff
    with pytest.raises(ValueError, match="untruncated"):
        jump_rate(make_spec(SubordinatorSpec(beta=beta, cutoff=eps), n_modes=4), 1.0,
                  euclidean(4))


@pytest.mark.parametrize("U", [SpaceSpec(1.0, np.ones(8)), SpaceSpec(3.0, np.ones(8)),
                               SpaceSpec(2.0, np.ones(7))])
def test_jump_rate_refuses_a_u_norm_that_is_not_l2_on_the_modes(U):
    with pytest.raises(ValueError, match="weighted l\\^2"):
        jump_rate(make_spec(SubordinatorSpec.stable(0.5)), 1.0, U)


@pytest.mark.parametrize("r", [0.0, -1.0, float("nan")])
def test_jump_rate_refuses_a_threshold_that_is_not_positive(r):
    with pytest.raises(ValueError, match="threshold"):
        jump_rate(make_spec(SubordinatorSpec.stable(0.5)), r, euclidean())


def test_large_jump_rate_vs_empirical():
    # the law drawn is truncated at 1e-3; a jump below it has a mark of norm
    # >= 1 only if chi-square_4 >= 1000, so its gap to the exact rate of the
    # untruncated law is below 1e-200
    spec = make_spec(SubordinatorSpec.stable(0.5), n_modes=4)
    rate = jump_rate(spec, 1.0, euclidean(4))
    batch = simulate_paths(spec.subordinator.truncated(1e-3), 1.0, 600, stream(0, 1))
    marks = np.sqrt(batch.sizes)[:, None] * stream(0, 2).standard_normal((batch.sizes.size, 4))
    large = np.sqrt((marks ** 2).sum(axis=1)) >= 1.0
    counts = np.bincount(batch.rows[large], minlength=batch.n_paths)
    emp = np.mean(counts)
    se = np.std(counts) / math.sqrt(counts.size)
    assert abs(emp - rate) < 4.0 * se


# -- small and large jumps -----------------------------------------------


def marked(spec, zp, rng):
    """(times, marks, U-sizes) of the jumps of a batch, marks drawn from rng."""
    marks = increment_coefficients(spec, zp.sizes, rng)
    return zp.times, marks, np.sqrt((marks ** 2).sum(axis=-1))


def test_split_additivity_exact():
    spec = make_spec(SubordinatorSpec.stable(0.5).truncated(1e-2), n_modes=4)
    zp = simulate_paths(spec.subordinator, 1.0, 1, stream(1))
    times, marks, sizes = marked(spec, zp, stream(2))
    big = sizes >= np.median(sizes)
    assert 0 < big.sum() < big.size
    for t in (0.25, 0.5, 1.0):
        upto = times <= t
        total = marks[upto].sum(axis=0)
        parts = [marks[m & upto].sum(axis=0) for m in (~big, big)]
        assert np.allclose(parts[0] + parts[1], total, rtol=0.0, atol=1e-14)


def test_repeated_jump_times_are_marked_and_split():
    # a batch may hold two jumps at one time; marking it once raised
    spec = make_spec(SubordinatorSpec.stable(0.5), n_modes=4)
    zp = PathBatch(horizon_T=1.0, drift_slope=0.0, offsets=[0, 2], times=[0.5, 0.5],
                   sizes=[1, 2])
    times, marks, sizes = marked(spec, zp, stream(3))
    big = sizes >= sizes.max()
    assert big.sum() == (~big).sum() == 1
    assert times[big][0] == times[~big][0] == 0.5
    both = marks.sum(axis=0)
    for t, total in ((0.4, np.zeros(4)), (0.5, both), (1.0, both)):
        parts = [marks[m & (times <= t)].sum(axis=0) for m in (~big, big)]
        assert np.array_equal(parts[0] + parts[1], total)


def test_large_jump_count_is_poisson():
    # count of jumps above the threshold vs the exact rate, chi-square
    # against the Poisson pmf over 400 independent paths; a jump below the
    # drawn law's cutoff 1e-3 reaches the threshold only if chi-square_4 >= 1000
    spec = make_spec(SubordinatorSpec.stable(0.5), n_modes=4)
    rate = jump_rate(spec, 1.0, SpaceSpec(2.0, np.ones(4)))
    counts = []
    for m in range(400):
        zp = simulate_paths(spec.subordinator.truncated(1e-3), 1.0, 1, stream(m))
        counts.append(int((marked(spec, zp, stream(m + 10_000))[2] >= 1.0).sum()))
    counts = np.asarray(counts)
    kmax = int(counts.max())
    observed = np.bincount(counts, minlength=kmax + 1).astype(float)
    expected = stats.poisson.pmf(np.arange(kmax + 1), rate) * counts.size
    expected[-1] += counts.size - expected.sum()   # fold the pmf tail in
    # merge sparse right-hand bins so every cell has expected count >= 5
    while expected.size > 2 and expected[-1] < 5.0:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    chi2 = ((observed - expected) ** 2 / expected).sum()
    pval = stats.chi2.sf(chi2, observed.size - 1)
    assert pval > 0.01
