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

from ._rng import stream
from .spaces import SpaceSpec
from .subordinator import (DEFAULT_CUTOFF, PathBatch, QuadratureError, SubordinatorSpec,
                           sample_stable_oneside, simulate_paths)
from .noise import (CylindricalWienerSpec, LevyNoiseSpec, char_functional,
                    increment_coefficients)
from .spectral import (FieldSample, SpectralOperator, charfn_oracle, regularity_exponent_bound,
                       sample_convolution_batch)
from .regularity import (CirclePath, blowup_probe, circle_convolution,
                         estimate_holder, fourier_profile, scalar_levy_jumps)
from .burgers import (StepSizeError, check_apriori, solve_modified_burgers,
                      solve_stochastic_burgers, weak_residual)

# experiment name -> (function, default of every config key it accepts)
EXPERIMENTS = {}
# The batched Monte Carlo experiments hold at most this many jump x mode
# terms in memory at once.
CHUNK_TERMS = 1 << 16

# static mapping shown by list-experiments
EXPERIMENT_SUMMARY = {
    "subordinator-check": "Laplace-transform identity of exact stable subordinator paths",
    "charfn-test": "characteristic functional of the subordinated cylindrical noise",
    "ou-sample": "OU stochastic convolution sampler vs the quadrature oracle",
    "regularity": "spatial Hoelder exponent of the OU field vs its critical value",
    "blowup": "post-jump norm blow-up of the large-jump part across truncations",
    "circle": "circle convolution of a profile family against a scalar Levy path",
    "burgers": "stochastic Burgers solve with weak-form residual check",
    "bounds": "modified-Burgers a priori energy inequalities on random instances",
}


def _experiment(name, **defaults):
    def wrap(fn):
        EXPERIMENTS[name] = (fn, defaults)
        return fn
    return wrap


def _chunks(batch: PathBatch, n_modes: int):
    """Consecutive slices of a batch, each holding at most CHUNK_TERMS
    jump x mode terms (or one path); a path without jumps counts as one,
    for its own Gaussian mode draws."""
    ends = np.cumsum(np.maximum(batch.counts, 1) * n_modes)
    lo = 0
    while lo < batch.n_paths:
        start = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, start + CHUNK_TERMS, side="right")))
        yield batch[lo:hi]
        lo = hi


def _write_csv(path: Path, header, rows):
    """Writes the rows, or raises FloatingPointError if a float in them is
    NaN or infinite."""
    rows = list(rows)
    if any(isinstance(v, float) and not math.isfinite(v) for row in rows for v in row):
        raise FloatingPointError(f"non-finite value in {path.name}")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


@_experiment("subordinator-check", betas=[0.25, 0.5, 0.9], r_values=[0.5, 1.0, 2.0],
             n_paths=100000)
def _run_subordinator(cfg, out: Path):
    betas = cfg["betas"]
    rs = cfg["r_values"]
    n_paths = int(cfg["n_paths"])
    seed = int(cfg["master_seed"])
    rows, checks = [], []
    for i, beta in enumerate(betas):
        s = sample_stable_oneside(beta, n_paths, stream(seed, i))
        for r in rs:
            vals = np.exp(-r * s)
            emp, se = float(vals.mean()), float(vals.std() / math.sqrt(n_paths))
            ana = math.exp(-r ** beta)
            ok = abs(emp - ana) <= 4.0 * se
            rows.append([beta, r, emp, se, ana, ok])
            checks.append(ok)
    _write_csv(out / "laplace.csv", ["beta", "r", "empirical", "stderr", "analytic", "pass"], rows)
    return {"cases": len(rows), "failures": int(len(checks) - sum(checks))}, all(checks)


def _charfn_projections(spec: LevyNoiseSpec, phis, t: float, n_paths: int,
                        seed: int, case: int) -> np.ndarray:
    """<Y(t), phi> for each path (rows) and test function phi (columns).

    The Z(t) values come from stream(seed, 1, case), the Gaussian mode draws
    from stream(seed, 2, case).
    """
    batch = simulate_paths(spec.subordinator, t, n_paths, stream(seed, 1, case), grid_n=1)
    rng = stream(seed, 2, case)
    return np.concatenate([increment_coefficients(spec, part.values(t), rng) @ phis.T
                           for part in _chunks(batch, spec.wiener.truncation_N)])


@_experiment("charfn-test", n_modes=64, beta=0.9, t_values=[0.5, 1.0], n_phi=5,
             mc_paths=100000)
def _run_charfn(cfg, out: Path):
    N = int(cfg["n_modes"])
    beta = float(cfg["beta"])
    ts = cfg["t_values"]
    n_phi = int(cfg["n_phi"])
    mc = int(cfg["mc_paths"])
    seed = int(cfg["master_seed"])
    spec = LevyNoiseSpec(CylindricalWienerSpec(np.ones(N)), SubordinatorSpec.stable(beta))
    phis = stream(seed, 0).standard_normal((n_phi, N)) / math.sqrt(N)
    rows, checks = [], []
    for case, t in enumerate(ts):
        vals = np.cos(_charfn_projections(spec, phis, t, mc, seed, case))
        for i, phi in enumerate(phis):
            emp, se = float(vals[:, i].mean()), float(vals[:, i].std() / math.sqrt(mc))
            ana = char_functional(spec, phi, t)
            ok = abs(emp - ana) <= 4.0 * se
            rows.append([t, i, emp, se, ana, ok])
            checks.append(ok)
    _write_csv(out / "charfn.csv", ["t", "phi_index", "empirical", "stderr", "analytic", "pass"], rows)
    return {"cases": len(rows), "failures": int(len(checks) - sum(checks))}, all(checks)


def _ou_draws(op: SpectralOperator, spec: LevyNoiseSpec, t: float, n_paths: int,
              seed: int, case: int, cutoff_eps: float):
    """Per-path draws of X(t), through the cutoff jump route if Z jumps: yields
    the coefficients of consecutive chunks of paths, shape (paths, modes).

    The jumps come from stream(seed, 1, case), the Gaussian mode draws from
    stream(seed, 2, case).
    """
    batch = simulate_paths(spec.subordinator, t, n_paths, stream(seed, 1, case),
                           cutoff_eps=cutoff_eps, method="jumps")
    rng = stream(seed, 2, case)
    for part in _chunks(batch, op.n_modes):
        yield sample_convolution_batch(op, spec, part, t, rng)


@_experiment("ou-sample", n_modes=16, beta=0.5, mc_paths=20000, n_pairs=4)
def _run_ou(cfg, out: Path):
    N = int(cfg["n_modes"])
    beta = float(cfg["beta"])
    mc = int(cfg["mc_paths"])
    n_pairs = int(cfg["n_pairs"])
    seed = int(cfg["master_seed"])
    op = SpectralOperator.dirichlet(1, 1.0, N)
    spec = LevyNoiseSpec(CylindricalWienerSpec(np.ones(N)), SubordinatorSpec.stable(beta))
    rng = stream(seed, 0)
    rows, checks = [], []
    for i in range(n_pairs):
        phi = rng.standard_normal(N) / math.sqrt(N)
        t = float(rng.uniform(0.4, 1.2))
        ana = charfn_oracle(op, spec, phi, t)
        vals = np.concatenate([np.cos(coeffs @ phi)
                               for coeffs in _ou_draws(op, spec, t, mc, seed, i, cutoff_eps=1e-3)])
        emp, se = float(vals.mean()), float(vals.std() / math.sqrt(mc))
        ok = abs(emp - ana) <= 4.0 * se
        rows.append([i, t, emp, se, ana, ok])
        checks.append(ok)
    _write_csv(out / "ou_charfn.csv", ["pair", "t", "empirical", "stderr", "analytic", "pass"], rows)
    # one exported field sample, drawn as case n_pairs at the default cutoff
    coeffs = next(_ou_draws(op, spec, 1.0, 1, seed, n_pairs, cutoff_eps=DEFAULT_CUTOFF))[0]
    FieldSample(coefficients=coeffs, time_t=1.0).to_csv(out / "field_sample.csv", op)
    return {"cases": len(rows), "failures": int(len(checks) - sum(checks))}, all(checks)


@_experiment("regularity", n_modes=512, grid_M=2048, n_paths=10)
def _run_regularity(cfg, out: Path):
    N = int(cfg["n_modes"])
    M = int(cfg["grid_M"])
    n_paths = int(cfg["n_paths"])
    seed = int(cfg["master_seed"])
    op = SpectralOperator.dirichlet(1, 1.0, N)
    rows = []
    results = {}
    for case, (label, sub) in enumerate([("gaussian", SubordinatorSpec.drift_only(1.0)),
                                         ("stable_alpha1", SubordinatorSpec.stable(0.5))]):
        spec = LevyNoiseSpec(CylindricalWienerSpec(np.ones(N)), sub)
        coeffs = np.concatenate(list(_ou_draws(op, spec, 1.0, n_paths, seed, case, cutoff_eps=1e-3)))
        ests = [estimate_holder(FieldSample(c, 1.0), op, M)["delta_hat"] for c in coeffs]
        rows += [[label, m, d] for m, d in enumerate(ests)]
        critical = regularity_exponent_bound(op, spec, ("holder", 0.0))["critical_exponent"]
        results[label] = {"mean_delta": float(np.mean(ests)), "per_path": ests, "critical": critical}
    _write_csv(out / "holder.csv", ["case", "path", "delta_hat"], rows)
    ok = (0.2 <= results["gaussian"]["mean_delta"] <= 0.8
          and results["stable_alpha1"]["mean_delta"] > results["gaussian"]["mean_delta"])
    return results, ok


@_experiment("blowup", n_modes=4096, truncations=[2 ** k for k in range(6, 13)],
             threshold=0.05)
def _run_blowup(cfg, out: Path):
    Nmax = int(cfg["n_modes"])
    truncs = cfg["truncations"]
    seed = int(cfg["master_seed"])
    threshold = float(cfg["threshold"])
    op = SpectralOperator.dirichlet(1, 1.0, Nmax)
    spec = LevyNoiseSpec(CylindricalWienerSpec(np.ones(Nmax)), SubordinatorSpec.stable(0.5))
    j = np.arange(1.0, Nmax + 1)
    F = SpaceSpec(2.0, j, "F")
    U = SpaceSpec(2.0, 1.0 / j, "U")
    rep = blowup_probe(op, spec, F, truncs, seed=seed, threshold=threshold, u_space=U)
    if rep.get("conclusive"):
        _write_csv(out / "blowup.csv", ["N", "sup_F", "u_norm"],
                   list(zip(rep["truncations"], rep["sup_F"], rep["u_norm_of_mark"])))
        ok = rep["blowup_detected"]
    else:
        ok = False
    return rep, ok


@_experiment("circle", beta=0.75, thetas=[0.0, 0.5, 1.0, 2.0], grids=[128, 256, 512, 1024])
def _run_circle(cfg, out: Path):
    beta = float(cfg["beta"])
    thetas = cfg["thetas"]
    grids = cfg["grids"]
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


@_experiment("burgers", n_modes=255, dt=1e-4, T=0.2, theta=0.25, weight_scale=5.0,
             residual_tol=1e-3, u0_amplitude=0.2, forcing_amplitude=0.1)
def _run_burgers(cfg, out: Path):
    n = int(cfg["n_modes"])
    dt = float(cfg["dt"])
    T = float(cfg["T"])
    theta = float(cfg["theta"])
    w_scale = float(cfg["weight_scale"])
    tol = float(cfg["residual_tol"])
    seed = int(cfg["master_seed"])
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


@_experiment("bounds", n_modes=63, n_instances=20, dt=1e-3, T=0.5)
def _run_bounds(cfg, out: Path):
    n = int(cfg["n_modes"])
    n_instances = int(cfg["n_instances"])
    dt = float(cfg["dt"])
    T = float(cfg["T"])
    seed = int(cfg["master_seed"])
    rng = stream(seed)
    rows, all_ok = [], True
    for i in range(n_instances):
        v0 = np.zeros(n)
        v0[rng.integers(0, 4)] = rng.uniform(-0.3, 0.3)
        zc = np.zeros(n); zc[rng.integers(0, 4)] = rng.uniform(-0.3, 0.3)
        gc = np.zeros(n); gc[rng.integers(0, 4)] = rng.uniform(-0.3, 0.3)
        traj = solve_modified_burgers(v0, lambda t: zc, lambda t: gc, T, dt, n)
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
    experiment, defaults = EXPERIMENTS[kind]
    unknown = sorted(set(config) - {"experiment", "master_seed"} - set(defaults))
    if unknown:
        print(f"error: unknown config keys {unknown} for {kind}; accepted: {sorted(defaults)}",
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
        width = max(map(len, EXPERIMENT_SUMMARY))
        for name, desc in EXPERIMENT_SUMMARY.items():
            print(f"{name:<{width}}  {desc}")
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
