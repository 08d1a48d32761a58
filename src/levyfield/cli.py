"""Command-line experiment runner.

Every experiment is described by a JSON config file ({"experiment": kind,
"master_seed": int, ...params}); results land in an output directory as
report.json plus plot-ready CSV files.  Exit codes: 0 all assertions
passed, 1 assertion failures, 2 config errors, 3 numeric/runtime
failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import spectral
from ._rng import stream
from .spaces import SpaceSpec
from .subordinator import (DEFAULT_CUTOFF, QuadratureError, SubordinatorSpec,
                           sample_stable_oneside, simulate_paths)
from .noise import (CylindricalWienerSpec, LevyNoiseSpec, char_functional,
                    increment_coefficients)
from .spectral import (SpectralOperator, charfn_oracle, regularity_exponent_bound,
                       sample_trajectory)
from .regularity import (CirclePath, blowup_probe, circle_convolution,
                         estimate_holder, fourier_profile, scalar_levy_jumps)
from .burgers import (StepSizeError, check_apriori, solve_modified_burgers,
                      solve_stochastic_burgers, weak_residual)

# experiment name -> (function, default of every config key it accepts,
# one-line summary shown by list-experiments), in the order they are listed
EXPERIMENTS = {}


def _experiment(name, summary, **defaults):
    def wrap(fn):
        EXPERIMENTS[name] = (fn, defaults, summary)
        return fn
    return wrap


def _non_finite(value) -> bool:
    """True for a NaN or infinite float, also one inside (nested) lists or tuples."""
    if isinstance(value, (list, tuple)):
        return any(map(_non_finite, value))
    return isinstance(value, float) and not math.isfinite(value)


def _at_least_one(cfg, key) -> int:
    """cfg[key] as an int, or ValueError naming the key if it is below 1."""
    value = int(cfg[key])
    if value < 1:
        raise ValueError(f"{key} must be at least 1, not {value}")
    return value


def _non_empty(cfg, key) -> list:
    """cfg[key], or ValueError naming the key if it holds no entry."""
    if not cfg[key]:
        raise ValueError(f"{key} must not be empty")
    return cfg[key]


def _within(cfg, key, lo: float, hi: float) -> list:
    """cfg[key], or ValueError naming the key if it holds no entry or an entry
    outside the open interval (lo, hi)."""
    values = _non_empty(cfg, key)
    for value in values:
        if not lo < float(value) < hi:
            raise ValueError(f"{key} must lie in ({lo:g}, {hi:g}), not {value}")
    return values


def _write_csv(path: Path, header, rows):
    """Writes the header and the rows, or raises FloatingPointError if a float
    in them is NaN or infinite."""
    rows = list(rows)
    if _non_finite([header, rows]):
        raise FloatingPointError(f"non-finite value in {path.name}")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _mc_check(vals: np.ndarray, analytic) -> list:
    """[empirical mean, its standard error, analytic, pass] of a Monte Carlo
    check, which passes when the mean lies within 4 standard errors."""
    emp, se = float(vals.mean()), float(vals.std() / math.sqrt(vals.size))
    return [emp, se, analytic, abs(emp - analytic) <= 4.0 * se]


def _checks_summary(rows) -> tuple[dict, bool]:
    """The case and failure counts of rows ending in a _mc_check, and
    whether all passed."""
    failures = sum(not row[-1] for row in rows)
    return {"cases": len(rows), "failures": failures}, failures == 0


@_experiment("subordinator-check", "Laplace-transform identity of exact stable subordinator paths",
             betas=[0.25, 0.5, 0.9], r_values=[0.5, 1.0, 2.0], n_paths=100000)
def _run_subordinator(cfg, out: Path):
    betas = _within(cfg, "betas", 0.0, 1.0)
    rs = _non_empty(cfg, "r_values")
    n_paths = _at_least_one(cfg, "n_paths")
    seed = int(cfg["master_seed"])
    rows = []
    for i, beta in enumerate(betas):
        s = sample_stable_oneside(beta, n_paths, stream(seed, i))
        rows += [[beta, r, *_mc_check(np.exp(-r * s), math.exp(-r ** beta))] for r in rs]
    _write_csv(out / "laplace.csv", ["beta", "r", "empirical", "stderr", "analytic", "pass"], rows)
    return _checks_summary(rows)


def _charfn_projections(spec: LevyNoiseSpec, phis, t: float, n_paths: int,
                        seed: int, case: int) -> np.ndarray:
    """<Y(t), phi> for each path (rows) and test function phi (columns).

    The Z(t) values come from stream(seed, 1, case), the Gaussian mode draws
    from stream(seed, 2, case), drawn and projected in row blocks of
    spectral.CHUNK_TERMS // modes paths.
    """
    batch = simulate_paths(spec.subordinator, t, n_paths, stream(seed, 1, case), grid_n=1)
    dz = batch.increments((0.0, t))[:, 0]
    rng = stream(seed, 2, case)
    rows = max(1, spectral.CHUNK_TERMS // spec.wiener.truncation_N)
    return np.concatenate([increment_coefficients(spec, dz[lo:lo + rows], rng) @ phis.T
                           for lo in range(0, dz.size, rows)])


@_experiment("charfn-test", "characteristic functional of the subordinated cylindrical noise",
             n_modes=64, beta=0.9, t_values=[0.5, 1.0], n_phi=5, mc_paths=100000)
def _run_charfn(cfg, out: Path):
    N = _at_least_one(cfg, "n_modes")
    beta = float(cfg["beta"])
    ts = _within(cfg, "t_values", 0.0, math.inf)
    n_phi = _at_least_one(cfg, "n_phi")
    mc = _at_least_one(cfg, "mc_paths")
    seed = int(cfg["master_seed"])
    spec = LevyNoiseSpec(CylindricalWienerSpec(np.ones(N)), SubordinatorSpec.stable(beta))
    phis = stream(seed, 0).standard_normal((n_phi, N)) / math.sqrt(N)
    rows = []
    for case, t in enumerate(ts):
        vals = np.cos(_charfn_projections(spec, phis, t, mc, seed, case))
        rows += [[t, i, *_mc_check(vals[:, i], char_functional(spec, phi, t))]
                 for i, phi in enumerate(phis)]
    _write_csv(out / "charfn.csv", ["t", "phi_index", "empirical", "stderr", "analytic", "pass"], rows)
    return _checks_summary(rows)


def _ou_draws(op: SpectralOperator, spec: LevyNoiseSpec, t: float, n_paths: int,
              seed: int, case: int, cutoff_eps: float):
    """Per-path draws of X(t), through the cutoff jump route if Z jumps: the
    coefficients of every path in one sample_trajectory call on the grid
    (t,), shape (paths, modes).

    The jumps come from stream(seed, 1, case), the Gaussian mode draws from
    stream(seed, 2, case).
    """
    batch = simulate_paths(spec.subordinator, t, n_paths, stream(seed, 1, case),
                           cutoff_eps=cutoff_eps, method="jumps")
    return sample_trajectory(op, spec, batch, (t,), stream(seed, 2, case))[:, 0]


@_experiment("ou-sample", "OU stochastic convolution sampler vs the quadrature oracle",
             n_modes=16, beta=0.5, mc_paths=20000, n_pairs=4)
def _run_ou(cfg, out: Path):
    N = _at_least_one(cfg, "n_modes")
    beta = float(cfg["beta"])
    mc = _at_least_one(cfg, "mc_paths")
    n_pairs = _at_least_one(cfg, "n_pairs")
    seed = int(cfg["master_seed"])
    op = SpectralOperator.dirichlet(1, 1.0, N)
    spec = LevyNoiseSpec(CylindricalWienerSpec(np.ones(N)), SubordinatorSpec.stable(beta))
    rng = stream(seed, 0)
    rows = []
    for i in range(n_pairs):
        phi = rng.standard_normal(N) / math.sqrt(N)
        t = float(rng.uniform(0.4, 1.2))
        ana = charfn_oracle(op, spec, phi, t)
        vals = np.cos(_ou_draws(op, spec, t, mc, seed, i, cutoff_eps=1e-3) @ phi)
        rows.append([i, t, *_mc_check(vals, ana)])
    _write_csv(out / "ou_charfn.csv", ["pair", "t", "empirical", "stderr", "analytic", "pass"], rows)
    # one exported field sample, drawn as case n_pairs at the default cutoff
    coeffs = _ou_draws(op, spec, 1.0, 1, seed, n_pairs, cutoff_eps=DEFAULT_CUTOFF)[0]
    _write_csv(out / "field_sample.csv", ["# time_t", 1.0],
               [["mode", "multi_index", "coefficient"]]
               + [[j, "x".join(map(str, mi)), c]
                  for j, (mi, c) in enumerate(zip(op.multi_indices, coeffs.tolist()))])
    return _checks_summary(rows)


@_experiment("regularity", "spatial Hoelder exponent of the OU field vs its critical value",
             n_modes=512, grid_M=2048, n_paths=10)
def _run_regularity(cfg, out: Path):
    N = _at_least_one(cfg, "n_modes")
    M = int(cfg["grid_M"])
    n_paths = int(cfg["n_paths"])
    seed = int(cfg["master_seed"])
    op = SpectralOperator.dirichlet(1, 1.0, N)
    rows = []
    results = {}
    for case, (label, sub) in enumerate([("gaussian", SubordinatorSpec.drift_only(1.0)),
                                         ("stable_alpha1", SubordinatorSpec.stable(0.5))]):
        spec = LevyNoiseSpec(CylindricalWienerSpec(np.ones(N)), sub)
        coeffs = _ou_draws(op, spec, 1.0, n_paths, seed, case, cutoff_eps=1e-3)
        ests = [estimate_holder(c, op, M)["delta_hat"] for c in coeffs]
        rows += [[label, m, d] for m, d in enumerate(ests)]
        critical = regularity_exponent_bound(op, spec, ("holder", 0.0))["critical_exponent"]
        results[label] = {"mean_delta": float(np.mean(ests)), "per_path": ests, "critical": critical}
    _write_csv(out / "holder.csv", ["case", "path", "delta_hat"], rows)
    ok = (0.2 <= results["gaussian"]["mean_delta"] <= 0.8
          and results["stable_alpha1"]["mean_delta"] > results["gaussian"]["mean_delta"])
    return results, ok


@_experiment("blowup", "post-jump norm blow-up of the large-jump part across truncations",
             n_modes=4096, truncations=[2 ** k for k in range(6, 13)], threshold=0.05)
def _run_blowup(cfg, out: Path):
    Nmax = _at_least_one(cfg, "n_modes")
    truncs = cfg["truncations"]
    seed = int(cfg["master_seed"])
    threshold = float(cfg["threshold"])
    op = SpectralOperator.dirichlet(1, 1.0, Nmax)
    spec = LevyNoiseSpec(CylindricalWienerSpec(np.ones(Nmax)), SubordinatorSpec.stable(0.5))
    j = np.arange(1.0, Nmax + 1)
    F = SpaceSpec(2.0, j)
    U = SpaceSpec(2.0, 1.0 / j)
    rep = blowup_probe(op, spec, F, truncs, seed=seed, threshold=threshold, u_space=U)
    if rep.get("conclusive"):
        _write_csv(out / "blowup.csv", ["N", "sup_F", "u_norm"],
                   list(zip(rep["truncations"], rep["sup_F"], rep["u_norm_of_mark"])))
        ok = rep["blowup_detected"]
    else:
        ok = False
    return rep, ok


@_experiment("circle", "circle convolution of a profile family against a scalar Levy path",
             beta=0.75, thetas=[0.0, 0.5, 1.0, 2.0], grids=[128, 256, 512, 1024])
def _run_circle(cfg, out: Path):
    beta = float(cfg["beta"])
    thetas = _non_empty(cfg, "thetas")
    grids = _non_empty(cfg, "grids")
    seed = int(cfg["master_seed"])
    times, incs = scalar_levy_jumps(SubordinatorSpec.stable(beta), seed=seed)
    rows = []
    for th in thetas:
        prof = fourier_profile(th, 512, 4096, seed=seed + 1)
        cp = CirclePath(profile=prof, jump_times=times, jump_increments=incs)
        for M in grids:
            sup = float(np.abs(circle_convolution(cp, M)).max())
            rows.append([th, M, sup])
    _write_csv(out / "circle.csv", ["theta", "grid_M", "sup"], rows)
    return {"rows": len(rows)}, True


@_experiment("burgers", "stochastic Burgers solve with weak-form residual check",
             n_modes=255, dt=1e-4, T=0.2, theta=0.25, weight_scale=5.0,
             residual_tol=1e-3, u0_amplitude=0.2, forcing_amplitude=0.1)
def _run_burgers(cfg, out: Path):
    n = int(cfg["n_modes"])
    dt = float(cfg["dt"])
    T = float(cfg["T"])
    theta = float(cfg["theta"])
    w_scale = float(cfg["weight_scale"])
    tol = float(cfg["residual_tol"])
    seed = int(cfg["master_seed"])
    if n < 5:
        raise ValueError(f"n_modes must be at least 5, not {n}: the weak residual tests modes 1-5")
    k = np.arange(1, n + 1)
    w = w_scale * (k * math.pi) ** theta
    noise = LevyNoiseSpec(CylindricalWienerSpec(w), SubordinatorSpec.stable(0.75))
    u0 = np.zeros(n); u0[0] = float(cfg["u0_amplitude"])
    f = np.zeros(n); f[1] = float(cfg["forcing_amplitude"])
    res = solve_stochastic_burgers(u0, noise, f, T, dt, n, seed=seed)
    residuals = weak_residual(res, f, range(1, 6))
    _write_csv(out / "burgers_residuals.csv", ["test_mode", "residual"],
               list(enumerate(residuals, start=1)))
    _write_csv(out / "burgers_final.csv", ["mode", "u_coefficient"],
               list(enumerate(res["u_coeffs"][-1], start=1)))
    ok = max(abs(r) for r in residuals) < tol
    return {"certificate": res["certificate"],
            "max_residual": max(abs(r) for r in residuals)}, ok


@_experiment("bounds", "modified-Burgers a priori energy inequalities on random instances",
             n_modes=63, n_instances=20, dt=1e-3, T=0.5)
def _run_bounds(cfg, out: Path):
    n = int(cfg["n_modes"])
    n_instances = _at_least_one(cfg, "n_instances")
    dt = float(cfg["dt"])
    T = float(cfg["T"])
    seed = int(cfg["master_seed"])
    if n < 4:
        raise ValueError(f"n_modes must be at least 4, not {n}: "
                         "each instance sets one of the first four modes")
    rng = stream(seed)
    rows, all_ok = [], True
    for i in range(n_instances):
        v0 = np.zeros(n)
        v0[rng.integers(0, 4)] = rng.uniform(-0.3, 0.3)
        zc = np.zeros(n); zc[rng.integers(0, 4)] = rng.uniform(-0.3, 0.3)
        gc = np.zeros(n); gc[rng.integers(0, 4)] = rng.uniform(-0.3, 0.3)
        traj = solve_modified_burgers(v0, zc, gc, T, dt, n)
        rep = check_apriori(traj)
        all_ok &= rep["all_pass"]
        for name, b in rep["bounds"].items():
            rows.append([i, name, b["lhs"], b["rhs"], b["pass"]])
    _write_csv(out / "bounds.csv", ["instance", "bound", "lhs", "rhs", "pass"], rows)
    return {"instances": n_instances, "all_pass": bool(all_ok)}, bool(all_ok)


def _report_json(report: dict) -> str:
    """The report as JSON, or FloatingPointError if it holds a NaN or infinite float."""
    try:
        return json.dumps(report, indent=2, default=str, allow_nan=False)
    except ValueError as exc:
        raise FloatingPointError(f"non-finite value in report.json: {exc}") from None


def run(config: dict, out_dir: str) -> int:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    kind = config.get("experiment")
    if kind not in EXPERIMENTS:
        print(f"error: unknown experiment {kind!r}; choices: {sorted(EXPERIMENTS)}",
              file=sys.stderr)
        return 2
    if "master_seed" not in config:
        print("error: config is missing required field 'master_seed'", file=sys.stderr)
        return 2
    experiment, defaults, _ = EXPERIMENTS[kind]
    unknown = sorted(set(config) - {"experiment", "master_seed"} - set(defaults))
    if unknown:
        print(f"error: unknown config keys {unknown} for {kind}; accepted: {sorted(defaults)}",
              file=sys.stderr)
        return 2
    non_finite = sorted(key for key, value in config.items() if _non_finite(value))
    if non_finite:
        print(f"error: non-finite values (NaN or Infinity) for config keys {non_finite}",
              file=sys.stderr)
        return 2
    t0 = time.time()
    try:
        summary, passed = experiment({**defaults, **config}, out)
        report = {"experiment": kind, "config": config,
                  "status": "pass" if passed else "fail",
                  "elapsed_s": round(time.time() - t0, 3), "summary": summary}
        text = _report_json(report)
    except (StepSizeError, QuadratureError, ArithmeticError, RuntimeError) as exc:
        report = {"experiment": kind, "config": config, "status": "numeric-failure",
                  "error": str(exc)}
        (out / "report.json").write_text(json.dumps(report, indent=2, default=str))
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    (out / "report.json").write_text(text)
    print(f"{kind}: {report['status']} ({report['elapsed_s']}s)")
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="levyfield",
                                     description="experiment runner for the subordinated-noise library")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run an experiment from a JSON config")
    runp.add_argument("--config", required=True)
    runp.add_argument("--seed", type=int, default=None, help="override master_seed")
    runp.add_argument("--out", default="out")
    sub.add_parser("list-experiments", help="show the experiment table")
    args = parser.parse_args(argv)

    if args.command == "list-experiments":
        width = max(map(len, EXPERIMENTS))
        for name, (_, _, summary) in EXPERIMENTS.items():
            print(f"{name:<{width}}  {summary}")
        return 0

    try:
        config = json.loads(Path(args.config).read_text())
        if not isinstance(config, dict):
            raise ValueError("top-level config must be a JSON object")
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        config["master_seed"] = args.seed
    return run(config, args.out)


if __name__ == "__main__":
    sys.exit(main())
