"""End-to-end acceptance checks, one per headline library guarantee.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output) and asserts the same verdict.
"""

import math
import time

import numpy as np
from scipy.special import zeta

from levyfield._rng import stream
from levyfield.burgers import (check_apriori, solve_modified_burgers,
                               solve_stochastic_burgers, weak_residual)
from levyfield.jumps import (StepIntegrand, verify_moment_inequality_p_le_1,
                             verify_moment_inequality_type_p)
from levyfield.noise import CylindricalWienerSpec, LevyNoiseSpec, char_functional
from levyfield.regularity import (TrajectoryEnsemble, blowup_probe,
                                  estimate_holder, time_integrability)
from levyfield.sine import l4_norm4, sine_coefficients, sine_values
from levyfield.spaces import SpaceSpec
from levyfield.spectral import (SpectralOperator, charfn_oracle, check_radonifying,
                                sample_trajectory, semigroup_norm_power)
from levyfield.subordinator import (SubordinatorSpec, sample_stable_oneside,
                                    simulate_paths)


def _report(num, label, checks):
    failed = {k: v for k, v in checks.items() if not v}
    print(f"\n[{num:2d}/10] {label}: {'FAIL' if failed else 'PASS'}")
    assert not failed, failed


def make_noise(sub, n):
    return LevyNoiseSpec(CylindricalWienerSpec(np.ones(n)), sub)


def test_01_stable_subordinator_laplace_oracle():
    t0 = time.perf_counter()
    checks = {}
    n = 100_000
    for i, beta in enumerate((0.25, 0.5, 0.9)):
        s = sample_stable_oneside(beta, n, stream(101, i))
        for r in (0.5, 1.0, 2.0):
            vals = np.exp(-r * s)
            se = vals.std() / math.sqrt(n)
            checks[f"beta={beta},r={r}"] = (
                abs(vals.mean() - math.exp(-r ** beta)) <= 4.0 * se)
    checks["runtime<30s"] = (time.perf_counter() - t0) < 30.0
    _report(1, "exact stable path Laplace transform", checks)


def test_02_noise_characteristic_functional():
    N, M, beta = 64, 100_000, 0.9
    spec = make_noise(SubordinatorSpec.stable(beta), N)
    rng = stream(202)
    phis = rng.standard_normal((5, N)) / math.sqrt(N)
    checks = {}
    for j, t in enumerate((0.5, 1.0)):
        # Y(t) = W(Z(t)) with Z(t) equal in law to t^(1/beta) Z(1)
        z = t ** (1.0 / beta) * sample_stable_oneside(beta, M, stream(202, j, 0))
        g = stream(202, j, 1).standard_normal((M, N))
        proj = np.sqrt(z)[:, None] * (g @ phis.T)        # (M, 5)
        for i in range(5):
            vals = np.cos(proj[:, i])
            se = vals.std() / math.sqrt(M)
            ana = char_functional(spec, phis[i], t)
            checks[f"t={t},phi={i}"] = abs(vals.mean() - ana) <= 4.0 * se
    _report(2, "subordinated noise characteristic functional", checks)


def test_03_ou_characteristic_functional():
    N = 16
    op = SpectralOperator.dirichlet(1, 1.0, N)
    spec = make_noise(SubordinatorSpec.stable(0.5), N)
    rng = stream(303)
    checks = {}
    mc = 3000
    for i in range(10):
        phi = rng.standard_normal(N) / math.sqrt(N)
        t = float(rng.uniform(0.4, 1.2))
        ana = charfn_oracle(op, spec, phi, t)
        batch = simulate_paths(spec.subordinator, t, mc, stream(303, 1, i), cutoff_eps=1e-3,
                               method="jumps")
        vals = np.cos(sample_trajectory(op, spec, batch, (t,), stream(303, 2, i))[:, 0] @ phi)
        se = vals.std() / math.sqrt(mc)
        checks[f"pair{i}"] = abs(vals.mean() - ana) <= 4.0 * se
    # drift-only noise: closed-form Gaussian stationary-variance expression
    b = 1.3
    gspec = make_noise(SubordinatorSpec.drift_only(b), N)
    phi = stream(303, 1).standard_normal(N)
    t = 0.7
    var = b * (1.0 - np.exp(-2.0 * op.lambdas * t)) / (2.0 * op.lambdas)
    closed = math.exp(-0.5 * float((phi ** 2 * var).sum()))
    checks["gaussian_closed_form"] = abs(
        charfn_oracle(op, gspec, phi, t) - closed) < 1e-8
    _report(3, "stochastic convolution characteristic functional", checks)


def test_04_poisson_integral_moment_inequalities():
    rng = stream(404)
    checks = {}
    for trial in range(50):
        k = int(rng.integers(1, 5))
        step = StepIntegrand(measures=rng.exponential(size=k),
                             values=rng.standard_normal((k, 3)))
        p = float(rng.choice([0.3, 0.7, 1.0]))
        rep = verify_moment_inequality_p_le_1(step, p=p, mc=30000, seed=trial)
        checks[f"plain_p{trial}"] = rep["pass"]
    for trial in range(20):
        k = int(rng.integers(1, 5))
        step = StepIntegrand(measures=rng.exponential(size=k),
                             values=rng.standard_normal((k, 3)))
        p = float(rng.uniform(1.1, 2.0))
        rep = verify_moment_inequality_type_p(step, p=p, q=2.0, mc=30000,
                                              seed=100 + trial)
        checks[f"compensated_p{trial}"] = rep["pass"]
    # p=2 with a single piece: exact Poisson variance identity
    step = StepIntegrand(measures=np.array([3.0]), values=np.array([[1.0]]))
    rep = verify_moment_inequality_type_p(step, p=2.0, mc=200000, seed=9)
    checks["poisson_variance"] = (
        abs(rep["lhs_estimate"] - 3.0) <= 4.0 * rep["lhs_stderr"] and rep["pass"])
    _report(4, "jump-measure moment inequalities", checks)


def test_05_diagonal_semigroup_norm():
    op = SpectralOperator.dirichlet(1, 1.0, 1_000_000)
    rng = stream(505)
    checks = {}
    draws = []
    for i in range(20):
        alpha, beta = float(rng.uniform(0.2, 1.5)), float(rng.uniform(0.2, 1.5))
        r, q = float(rng.uniform(1.0, 4.0)), float(rng.uniform(1.0, 4.0))
        t = float(10.0 ** rng.uniform(-5, -2))
        draws.append((alpha, beta, r, q))
        got = semigroup_norm_power(op, alpha, beta, r, q, t)
        theta = beta + (r / q) * alpha
        vals = np.exp(-op.lambdas * t) * op.lambdas ** theta
        j = int(np.argmax(vals))
        checks[f"scan{i}"] = (got["argmax_mode"] == j
                              and abs(got["norm"] - vals[j]) <= 1e-12 * vals[j])
    for i in (0, 7, 14):
        alpha, beta, r, q = draws[i]
        ts = np.geomspace(1e-6, 1e-2, 20)
        sups = [semigroup_norm_power(op, alpha, beta, r, q, float(t))["norm"]
                for t in ts]
        slope = float(np.polyfit(np.log(ts), np.log(sups), 1)[0])
        checks[f"slope{i}"] = abs(slope + beta + (r / q) * alpha) <= 0.05
    _report(5, "diagonal semigroup operator norm", checks)


def test_06_radonifying_certificate():
    rng = stream(606)
    N = 50_000
    checks = {}
    for i in range(20):
        d = int(rng.integers(1, 5))
        growth = 2.0 / d
        op = SpectralOperator.from_eigenvalues(np.arange(1.0, N + 1) ** growth)
        if i % 5 == 0:
            r, alpha = float(rng.uniform(0.5, 2.0)), 0.0
            alpha = d / (2.0 * r)               # exact boundary: s*growth = 1
        else:
            r, alpha = float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.3, 2.0))
        ok, cert = check_radonifying(op, alpha, r, growth=growth)
        s = r * alpha * growth
        expect = s > 1.0 + 1e-3
        checks[f"verdict{i}"] = ok == expect and (np.isfinite(cert) == expect)
        if expect and s >= 1.2:
            checks[f"zeta{i}"] = abs(cert - zeta(s)) <= 1e-3 * zeta(s)
    _report(6, "summability certificate for diagonal embeddings", checks)


def test_07_holder_regularity_estimator():
    N, M, n_paths = 2048, 4096, 20
    op = SpectralOperator.dirichlet(1, 1.0, N)
    checks = {}
    means = {}
    cases = [("gaussian", SubordinatorSpec.drift_only(1.0), None, 1e-3),
             ("stable", SubordinatorSpec.stable(0.5), "jumps", 1e-6)]
    for label, sub, method, eps in cases:
        spec = make_noise(sub, N)
        ests = []
        for m in range(n_paths):
            batch = simulate_paths(sub, 1.0, 1, stream(700 + 17 * m), cutoff_eps=eps,
                                   method=method)
            coeffs = sample_trajectory(op, spec, batch, (1.0,), stream(701 + 17 * m))[0, 0]
            ests.append(estimate_holder(coeffs, op, M)["delta_hat"])
        means[label] = float(np.mean(ests))
    checks["gaussian_band"] = 0.35 <= means["gaussian"] <= 0.65
    checks["stable_high"] = means["stable"] >= 0.8
    checks["monotone"] = means["stable"] > means["gaussian"]
    _report(7, "spatial roughness exponent estimator", checks)


def test_08_post_jump_blowup_probe():
    Nmax = 4096
    op = SpectralOperator.dirichlet(1, 1.0, Nmax)
    spec = make_noise(SubordinatorSpec.stable(0.5), Nmax)
    j = np.arange(1.0, Nmax + 1)
    F = SpaceSpec(2.0, j)                  # sum of squared weight ratios = inf
    U = SpaceSpec(2.0, 1.0 / j)
    truncs = [2 ** k for k in range(6, 13)]
    successes, conclusive, seed = 0, 0, 0
    while conclusive < 10 and seed < 40:
        rep = blowup_probe(op, spec, F, truncs, seed=seed, threshold=0.05,
                           u_space=U)
        seed += 1
        if not rep["conclusive"]:
            continue
        conclusive += 1
        u = rep["u_norm_of_mark"]
        if (rep["blowup_detected"] and rep["growth_slope"] >= 0.1
                and max(u) <= 2.0 * min(u)):
            successes += 1
    _report(8, "post-jump norm blow-up across truncations",
            {"ten_conclusive_seeds": conclusive == 10,
             "at_least_8_of_10": successes >= 8})


def test_09_time_integrability_and_scaling():
    checks = {}
    # (a) per-path int_0^T |X(t)|_{L^4}^4 dt stabilizes under grid refinement
    N = 64
    op = SpectralOperator.dirichlet(1, 1.0, N)
    spec = make_noise(SubordinatorSpec.stable(0.75), N)
    ens = TrajectoryEnsemble.simulate(op, spec, T=1.0, n_times=16384,
                                      n_paths=8, seed=900)
    l4 = l4_norm4(ens.coefficients) ** 0.25
    wrapped = TrajectoryEnsemble(times=ens.times, coefficients=l4[:, :, None])
    rep = time_integrability(wrapped, SpaceSpec(2.0, np.ones(1)), p=4.0)
    checks["l4_stabilizes"] = rep["stabilization"] < 0.05
    checks["l4_finite"] = bool(np.all(np.isfinite(rep["per_path_final"])))

    # (b) mean int_0^T |X1|^2 dt scales like T^(2 - theta p), theta=1/4, p=2.
    # Conditionally on the clock the mean is a linear functional of the
    # small-jump clock, so each path contributes its exact conditional
    # expectation (Rao-Blackwellized over the Gaussian layer): a drift term
    # plus sum_jumps xi * H(T - tau) with H(u) = sum_j (1-e^(-2 lam_j u))/(2 lam_j).
    N = 256
    lam = np.arange(1.0, N + 1) ** 2
    sub = SubordinatorSpec.stable(0.75)
    Ts = [1 / 64, 1 / 32, 1 / 16, 1 / 8]
    means = []
    for k, T in enumerate(Ts):
        slope_w = float((T / (2 * lam)
                         - (1 - np.exp(-2 * lam * T)) / (4 * lam ** 2)).sum())
        n_paths = 4000
        batch = simulate_paths(sub, T, n_paths, stream(910, k), cutoff_eps=1e-3,
                               method="jumps")
        keep = batch.sizes < 1.0                # small-jump part of the clock
        tau, xi = batch.times[keep], batch.sizes[keep]
        H = ((1 - np.exp(-2 * np.multiply.outer(T - tau, lam))) / (2 * lam)).sum(axis=1)
        means.append(batch.total_slope * slope_w + float((xi * H).sum()) / n_paths)
    slope = float(np.polyfit(np.log(Ts), np.log(means), 1)[0])
    checks["t_scaling"] = abs(slope - 1.5) <= 0.15
    _report(9, "time integrability and horizon scaling", checks)


def test_10_burgers_suite():
    t0 = time.perf_counter()
    checks = {}
    n = 63

    # (a) convergence order >= 1 in dt against a manufactured solution
    import sympy as sp
    t_, x_ = sp.symbols("t x")
    v_expr = sp.exp(-t_) * sp.sin(sp.pi * x_)
    z_expr = 0.2 * sp.sqrt(2) * sp.sin(2 * sp.pi * x_)
    g_expr = sp.diff(v_expr, t_) - sp.diff(v_expr, x_, 2) \
        + sp.diff(v_expr * z_expr + v_expr ** 2 / 2, x_)
    g_fn_x = sp.lambdify((t_, x_), g_expr, "numpy")
    grid = np.arange(1, n + 1) / (n + 1)
    zc = np.zeros(n); zc[1] = 0.2
    v0 = np.zeros(n); v0[0] = 1.0 / math.sqrt(2.0)
    target = np.zeros(n); target[0] = math.exp(-0.2) / math.sqrt(2.0)
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        times = dt * np.arange(round(0.2 / dt) + 1)
        gs = np.array([sine_coefficients(g_fn_x(t, grid)) for t in times])
        traj = solve_modified_burgers(v0, zc, gs, T=0.2, dt=dt, n_modes=n)
        errs.append(float(np.abs(traj.v_coeffs[-1] - target).max()))
    order_dt = math.log(errs[0] / errs[-1]) / math.log(4.0)
    checks["order_dt>=1"] = order_dt >= 1.0

    # (b) spatial order >= 2: truncations of rough data vs a fine reference,
    # same time grid so the time-stepping error cancels
    xfull = np.arange(1, 256) / 256
    cfull = sine_coefficients(xfull * (1.0 - xfull))
    ref = solve_modified_burgers(cfull, None, None, T=0.1, dt=2e-4, n_modes=255)
    errs_m = []
    for M in (8, 16, 32):
        traj = solve_modified_burgers(cfull[:M], None, None, T=0.1, dt=2e-4,
                                      n_modes=M)
        pad = np.zeros(255)
        pad[:M] = traj.v_coeffs[-1]
        errs_m.append(float(np.abs(sine_values(pad - ref.v_coeffs[-1])).max()))
    order_m = math.log(errs_m[0] / errs_m[-1]) / math.log(16.0)
    checks["order_M>=2"] = order_m >= 2.0

    # (c) all four a priori inequalities with 5% slack on 50 random instances
    rng = stream(1010)
    bounds_ok = True
    for i in range(50):
        v0r = np.zeros(n); v0r[rng.integers(0, 4)] = rng.uniform(-0.3, 0.3)
        zr = np.zeros(n); zr[rng.integers(0, 4)] = rng.uniform(-0.3, 0.3)
        gr = np.zeros(n); gr[rng.integers(0, 4)] = rng.uniform(-0.3, 0.3)
        traj = solve_modified_burgers(v0r, zr, gr, T=0.5, dt=1e-3, n_modes=n)
        bounds_ok &= check_apriori(traj, slack=0.05)["all_pass"]
    checks["apriori_bounds_50"] = bool(bounds_ok)

    # (d) weak-form residual below 1e-3 on 5 test functions at dt=1e-4
    nm = 255
    k = np.arange(1, nm + 1)
    noise = LevyNoiseSpec(CylindricalWienerSpec(5.0 * (k * math.pi) ** 0.25),
                          SubordinatorSpec.stable(0.75))
    u0 = np.zeros(nm); u0[0] = 0.2
    f = np.zeros(nm); f[1] = 0.1
    res = solve_stochastic_burgers(u0, noise, f, T=0.1, dt=1e-4, n_modes=nm,
                                   seed=12)
    checks["weak_residual"] = all(
        abs(r) < 1e-3 for r in weak_residual(res, f, range(1, 6)))

    checks["runtime<10min"] = (time.perf_counter() - t0) < 600.0
    _report(10, "viscous conservation-law solver suite", checks)
