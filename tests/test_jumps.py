import numpy as np
import pytest
from scipy import stats

from levyfield._rng import stream
from levyfield.jumps import (
    StepIntegrand,
    verify_moment_inequality_p_le_1,
    verify_moment_inequality_type_p,
)
from levyfield.noise import (CylindricalWienerSpec, LevyNoiseSpec, increment_coefficients,
                             jump_rate)
from levyfield.spaces import SpaceSpec
from levyfield.subordinator import PathBatch, SubordinatorSpec, simulate_paths


def make_spec(sub, n_modes=4):
    return LevyNoiseSpec(CylindricalWienerSpec(np.ones(n_modes)), sub)


def marked(spec, zp, rng):
    """(times, marks, U-sizes) of the jumps of a batch, marks drawn from rng."""
    marks = increment_coefficients(spec, zp.sizes, rng)
    return zp.times, marks, np.sqrt((marks ** 2).sum(axis=-1))


# -- small and large jumps -----------------------------------------------


def test_split_additivity_exact():
    spec = make_spec(SubordinatorSpec.stable(0.5).truncated(1e-2))
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
    spec = make_spec(SubordinatorSpec.stable(0.5))
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
    spec = make_spec(SubordinatorSpec.stable(0.5))
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


# -- moment inequalities -------------------------------------------------


def test_p1_single_piece_equality():
    # E |pi(B) e| = nu(B) for p=1 with a nonnegative integrand
    step = StepIntegrand(measures=np.array([2.0]), values=np.array([[1.0]]))
    rep = verify_moment_inequality_p_le_1(step, p=1.0, mc=200000, seed=0)
    assert rep["pass"]
    assert rep["rhs"] == pytest.approx(2.0, rel=1e-14)
    assert rep["lhs_estimate"] == pytest.approx(2.0, abs=4.0 * rep["lhs_stderr"])


def test_p_le_1_zero_integrand():
    step = StepIntegrand(measures=np.array([1.0]), values=np.array([[0.0, 0.0]]))
    rep = verify_moment_inequality_p_le_1(step, p=0.5, mc=1000)
    assert rep["lhs_estimate"] == 0.0 and rep["rhs"] == 0.0 and rep["pass"]


def test_p_half_two_pieces_vs_enumeration():
    # brute-force E |n1 f1 + n2 f2|_2^(1/2) over Poisson count pairs
    nu = np.array([0.8, 1.5])
    f = np.array([[1.0, 0.0], [0.0, -2.0]])
    step = StepIntegrand(measures=nu, values=f)
    rep = verify_moment_inequality_p_le_1(step, p=0.5, mc=200000, seed=1)
    exact = 0.0
    for n1 in range(40):
        for n2 in range(40):
            w = stats.poisson.pmf(n1, nu[0]) * stats.poisson.pmf(n2, nu[1])
            exact += w * (n1 ** 2 + (2.0 * n2) ** 2) ** 0.25
    assert rep["lhs_estimate"] == pytest.approx(exact, abs=4.0 * rep["lhs_stderr"])
    assert exact <= rep["rhs"]
    assert rep["pass"]


def test_p_le_1_holds_on_random_steps():
    rng = stream(21)
    for trial in range(10):
        k = int(rng.integers(1, 5))
        nu = rng.exponential(size=k)
        f = rng.standard_normal((k, 3))
        step = StepIntegrand(measures=nu, values=f)
        p = float(rng.choice([0.3, 0.7, 1.0]))
        rep = verify_moment_inequality_p_le_1(step, p=p, mc=30000, seed=trial)
        assert rep["pass"], rep


def test_type_p_poisson_variance_identity():
    # p=2, n=1: E|pi~(B)|^2 = nu(B) exactly; K_2 = 1 so the bound holds
    step = StepIntegrand(measures=np.array([3.0]), values=np.array([[1.0]]))
    rep = verify_moment_inequality_type_p(step, p=2.0, mc=200000, seed=2)
    assert rep["lhs_estimate"] == pytest.approx(3.0, abs=4.0 * rep["lhs_stderr"])
    assert rep["pass"]


def test_type_p_two_piece_l2_variance_additivity():
    nu = np.array([1.0, 1.0])
    f = np.array([[1.0, 0.0], [0.0, 1.0]])
    step = StepIntegrand(measures=nu, values=f)
    rep = verify_moment_inequality_type_p(step, p=2.0, mc=200000, seed=3)
    # independence: E|sum|^2 = sum nu_i |f_i|^2 = 2
    assert rep["lhs_estimate"] == pytest.approx(2.0, abs=4.0 * rep["lhs_stderr"])
    assert rep["pass"]


def test_type_p_fractional_p_holds():
    rng = stream(33)
    for trial in range(6):
        k = int(rng.integers(1, 5))
        step = StepIntegrand(measures=rng.exponential(size=k),
                             values=rng.standard_normal((k, 3)))
        p = float(rng.uniform(1.1, 2.0))
        rep = verify_moment_inequality_type_p(step, p=p, mc=30000, seed=trial)
        assert rep["pass"], rep


def test_type_p_rejects_bad_exponents():
    step = StepIntegrand(measures=np.array([1.0]), values=np.array([[1.0]]))
    with pytest.raises(ValueError):
        verify_moment_inequality_type_p(step, p=0.5)
    with pytest.raises(ValueError):
        verify_moment_inequality_p_le_1(step, p=1.5)
