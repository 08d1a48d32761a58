"""Command-line experiment runner.

Every experiment is described by a JSON config file ({"experiment": kind,
"master_seed": int, ...params}); results land in an output directory as
report.json plus plot-ready CSV files.  Exit codes: 0 all assertions
passed, 1 assertion failures, 2 config errors, 3 numeric/runtime
failures.  The directory is made where the first file is written, so a
run refused with exit 2 leaves no output, not even the directory.

Each experiment declares the keys it accepts, with their defaults, in its
@_experiment(...) line, and run() checks every value of a config against
its key's default before the experiment starts, naming the key: an integer
default takes a JSON integer of at least 1, a number default a finite int
or float, a list default a non-empty list whose entries each follow the
rule for the default's first entry, and master_seed an integer of at least
0; a bool is neither an integer nor a number.  What a type cannot say (a
beta in (0, 1), a grid that is a power of 2) the experiments and the
library refuse themselves, also before anything is drawn.

charfn-test, subordinator-check and ou-sample run their cases (the
t_values, the betas and the (phi, t) pairs) on two threads, this one and
one more.  Each case draws from its own streams, so no output depends on
which thread runs it or on how many CPUs there are; peak memory is that of
up to two cases at once.  The other experiments run their cases one after
another.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import threading
import time
from pathlib import Path

import numpy as np

from . import spectral, subordinator
from ._rng import stream
from .spaces import SpaceSpec
from .subordinator import (QuadratureError, SubordinatorSpec, jump_law, sample_stable_oneside,
                           simulate_paths)
from .noise import (CylindricalWienerSpec, LevyNoiseSpec, char_functional,
                    increment_coefficients)
from .spectral import (SpectralOperator, charfn_oracle, regularity_exponent_bound,
                       sample_trajectory)
from .regularity import (MAX_CIRCLE_CELLS, CirclePath, blowup_probe, circle_convolution,
                         estimate_holder, fourier_profile, scalar_levy_jumps)
from .burgers import (StepSizeError, check_apriori, solve_modified_burgers,
                      solve_stochastic_burgers, weak_residual)

# cells of the circle grid on which the circle experiment draws its profiles
_CIRCLE_PROFILE_CELLS = 4096

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


def _check_value(key, value, default, kind: str, least: int, lowest: str):
    """ValueError naming ``key`` unless ``value`` is a finite int or float,
    and an int of at least ``least`` if ``default`` is one (a bool is
    neither); the message says ``kind`` or ``lowest`` of what it must be."""
    integer = isinstance(default, int)
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ValueError(f"{key} must {kind}, not {value!r}")
    if _non_finite(value):
        raise ValueError(f"non-finite value {value!r} for config key {key!r}")
    if integer and value < least:
        raise ValueError(f"{key} must {lowest}, not {value!r}")


def _check_config(config: dict, defaults: dict):
    """ValueError naming the key unless every value of ``config`` follows the
    rule of the module docstring for the default of its key in ``defaults``."""
    for key, value in config.items():
        if key == "experiment":
            continue
        default, least = (0, 0) if key == "master_seed" else (defaults[key], 1)
        if not isinstance(default, list):
            kind = "be an integer" if isinstance(default, int) else "be a number"
            _check_value(key, value, default, kind, least, f"be at least {least}")
            continue
        what = "integers" if isinstance(default[0], int) else "numbers"
        if not isinstance(value, list):
            raise ValueError(f"{key} must be a list of {what}, not {value!r}")
        if not value:
            raise ValueError(f"{key} must not be empty")
        for entry in value:
            _check_value(key, entry, default[0], f"hold {what}", 1, "hold positive integers")


def _within(cfg, key, lo: float, hi: float) -> list:
    """cfg[key], or ValueError naming the key if it holds an entry outside
    the open interval (lo, hi)."""
    values = cfg[key]
    for value in values:
        if not lo < value < hi:
            raise ValueError(f"{key} must lie in ({lo:g}, {hi:g}), not {value}")
    return values


def _write_csv(path: Path, header, rows):
    """Writes the header and the rows, making the directory, or raises
    FloatingPointError if a float in them is NaN or infinite."""
    rows = list(rows)
    if _non_finite([header, rows]):
        raise FloatingPointError(f"non-finite value in {path.name}")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _mc_check(vals: np.ndarray, analytic) -> list:
    """[empirical mean, its standard error, analytic, pass] of a Monte Carlo
    check, which passes when the mean lies within 4 standard errors."""
    emp, se = float(vals.mean()), float(vals.std() / math.sqrt(vals.size))
    return [emp, se, analytic, abs(emp - analytic) <= 4.0 * se]


def _checks_summary(rows, path_sets: int) -> tuple[dict, bool]:
    """The counts of rows ending in a _mc_check, of the independent path
    sets they are drawn from and of failures, and whether all passed."""
    failures = sum(not row[-1] for row in rows)
    return {"cases": len(rows), "path_sets": path_sets, "failures": failures}, failures == 0


def _each_case(fn, cases) -> list:
    """[fn(case) for case in cases], run by this thread and one more, which
    take the cases from one shared iterator.

    Every case runs; then the exception of the lowest-index case that
    raised one is raised, the one a loop over the cases would raise first.
    """
    cases = list(cases)
    results, errors = [None] * len(cases), {}
    todo = enumerate(cases)

    def work():
        for i, case in todo:
            try:
                results[i] = fn(case)
            except BaseException as exc:
                errors[i] = exc

    helper = threading.Thread(target=work)
    helper.start()
    work()
    helper.join()
    if errors:
        raise errors[min(errors)]
    return results


@_experiment("subordinator-check", "Laplace-transform identity of exact stable subordinator paths",
             betas=[0.25, 0.5, 0.9], r_values=[0.5, 1.0, 2.0], n_paths=100000)
def _run_subordinator(cfg, out: Path):
    betas = _within(cfg, "betas", 0.0, 1.0)
    rs = _within(cfg, "r_values", 0.0, math.inf)

    def checks(i):
        beta = betas[i]
        s = sample_stable_oneside(beta, cfg["n_paths"], stream(cfg["master_seed"], i))
        return [[beta, r, *_mc_check(np.exp(-r * s), math.exp(-r ** beta))] for r in rs]

    rows = [row for case in _each_case(checks, range(len(betas))) for row in case]
    _write_csv(out / "laplace.csv", ["beta", "r", "empirical", "stderr", "analytic", "pass"], rows)
    return _checks_summary(rows, len(betas))


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
    N, seed = cfg["n_modes"], cfg["master_seed"]
    ts = _within(cfg, "t_values", 0.0, math.inf)
    spec = LevyNoiseSpec(CylindricalWienerSpec(np.ones(N)), SubordinatorSpec.stable(cfg["beta"]))
    phis = stream(seed, 0).standard_normal((cfg["n_phi"], N)) / math.sqrt(N)

    def checks(case):
        t = ts[case]
        vals = np.cos(_charfn_projections(spec, phis, t, cfg["mc_paths"], seed, case))
        return [[t, i, *_mc_check(vals[:, i], char_functional(spec, phi, t))]
                for i, phi in enumerate(phis)]

    rows = [row for case in _each_case(checks, range(len(ts))) for row in case]
    _write_csv(out / "charfn.csv", ["t", "phi_index", "empirical", "stderr", "analytic", "pass"], rows)
    return _checks_summary(rows, len(ts))


def _ou_draws(op: SpectralOperator, spec: LevyNoiseSpec, t: float, n_paths: int,
              seed: int, case: int):
    """Per-path draws of X(t) driven by Z of the law ``jump_law`` of the
    subordinator (a stable one truncated at JUMP_CUTOFF): the coefficients
    of every path in one sample_trajectory call on the grid (t,), shape
    (paths, modes).

    The jumps come from stream(seed, 1, case), the Gaussian mode draws from
    stream(seed, 2, case), so ou-sample can draw two cases at once on two
    threads; regularity draws its cases one after another.
    """
    batch = simulate_paths(jump_law(spec.subordinator), t, n_paths, stream(seed, 1, case))
    return sample_trajectory(op, spec, batch, (t,), stream(seed, 2, case))[:, 0]


@_experiment("ou-sample", "OU stochastic convolution sampler vs the quadrature oracle",
             n_modes=16, beta=0.5, mc_paths=20000, n_pairs=4)
def _run_ou(cfg, out: Path):
    """Each (phi, t) pair checks its draws against charfn_oracle.  The pairs
    run on two threads (_each_case); the field sample is drawn after them.
    MAX_EXPECTED_JUMPS bounds the longest pair alone, so two pairs at that
    cap may be held at once."""
    N, beta, n_pairs, seed = cfg["n_modes"], cfg["beta"], cfg["n_pairs"], cfg["master_seed"]
    op = SpectralOperator.dirichlet(1, 1.0, N)
    spec = LevyNoiseSpec(CylindricalWienerSpec(np.ones(N)), SubordinatorSpec.stable(beta))
    rng = stream(seed, 0)
    cases = [(rng.standard_normal(N) / math.sqrt(N), float(rng.uniform(0.4, 1.2)))
             for _ in range(n_pairs)]
    # the longest case draws the most jumps; refuse before any case is drawn
    rate = jump_law(spec.subordinator).jump_measure.mass
    expected = cfg["mc_paths"] * rate * max(t for _, t in cases)
    if not expected <= subordinator.MAX_EXPECTED_JUMPS:
        raise ValueError(f"mc_paths = {cfg['mc_paths']} would draw {expected:.3g} jumps in "
                         f"expectation in the longest case, more than the limit "
                         f"{subordinator.MAX_EXPECTED_JUMPS:.3g}")

    def check(i):
        phi, t = cases[i]
        ana = charfn_oracle(op, spec, phi, t)
        vals = np.cos(_ou_draws(op, spec, t, cfg["mc_paths"], seed, i) @ phi)
        return [i, t, *_mc_check(vals, ana)]

    rows = _each_case(check, range(n_pairs))
    _write_csv(out / "ou_charfn.csv", ["pair", "t", "empirical", "stderr", "analytic", "pass"], rows)
    # one exported field sample, drawn as case n_pairs with a finer cutoff
    field = LevyNoiseSpec(spec.wiener, SubordinatorSpec.stable(beta).truncated(1e-4))
    coeffs = _ou_draws(op, field, 1.0, 1, seed, n_pairs)[0]
    _write_csv(out / "field_sample.csv", ["# time_t", 1.0],
               [["mode", "multi_index", "coefficient"]]
               + [[j, "x".join(map(str, mi)), c]
                  for j, (mi, c) in enumerate(zip(op.multi_indices, coeffs.tolist()))])
    return _checks_summary(rows, n_pairs)


@_experiment("regularity", "spatial Hoelder exponent of the OU field vs its critical value",
             n_modes=512, grid_M=2048, n_paths=10)
def _run_regularity(cfg, out: Path):
    N, M = cfg["n_modes"], cfg["grid_M"]
    if M & (M - 1) or M <= N:
        raise ValueError(f"grid_M must be a power of 2 above n_modes = {N}, not {M}")
    op = SpectralOperator.dirichlet(1, 1.0, N)
    rows = []
    results = {}
    for case, (label, sub) in enumerate([("gaussian", SubordinatorSpec.drift_only(1.0)),
                                         ("stable_alpha1", SubordinatorSpec.stable(0.5))]):
        spec = LevyNoiseSpec(CylindricalWienerSpec(np.ones(N)), sub)
        coeffs = _ou_draws(op, spec, 1.0, cfg["n_paths"], cfg["master_seed"], case)
        ests = [estimate_holder(c, op, M)["delta_hat"] for c in coeffs]
        rows += [[label, m, d] for m, d in enumerate(ests)]
        critical = regularity_exponent_bound(op, spec)["critical_exponent"]
        results[label] = {"mean_delta": float(np.mean(ests)), "per_path": ests, "critical": critical}
    _write_csv(out / "holder.csv", ["case", "path", "delta_hat"], rows)
    ok = (0.2 <= results["gaussian"]["mean_delta"] <= 0.8
          and results["stable_alpha1"]["mean_delta"] > results["gaussian"]["mean_delta"])
    return results, ok


@_experiment("blowup", "post-jump norm blow-up of the large-jump part across truncations",
             n_modes=4096, truncations=[2 ** k for k in range(6, 13)], threshold=0.05)
def _run_blowup(cfg, out: Path):
    Nmax = cfg["n_modes"]
    op = SpectralOperator.dirichlet(1, 1.0, Nmax)
    spec = LevyNoiseSpec(CylindricalWienerSpec(np.ones(Nmax)), SubordinatorSpec.stable(0.5))
    j = np.arange(1.0, Nmax + 1)
    F = SpaceSpec(2.0, j)
    U = SpaceSpec(2.0, 1.0 / j)
    rep = blowup_probe(op, spec, F, cfg["truncations"], seed=cfg["master_seed"],
                       threshold=cfg["threshold"], u_space=U)
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
    thetas, grids, seed = cfg["thetas"], cfg["grids"], cfg["master_seed"]
    fine = {}   # grid M -> the common grid of L = lcm(profile cells, M) cells
    for M in grids:
        fine[M] = math.lcm(_CIRCLE_PROFILE_CELLS, M)
        if fine[M] > MAX_CIRCLE_CELLS:
            raise ValueError(f"grids entry {M}: lcm({_CIRCLE_PROFILE_CELLS}, {M}) = {fine[M]} "
                             f"cells exceeds MAX_CIRCLE_CELLS = {MAX_CIRCLE_CELLS}")
    times, incs = scalar_levy_jumps(SubordinatorSpec.stable(cfg["beta"]), seed=seed)
    profiles = [fourier_profile(th, 512, _CIRCLE_PROFILE_CELLS, seed=seed + 1) for th in thetas]
    cp = CirclePath(profile=np.stack(profiles), jump_times=times, jump_increments=incs)
    # one convolution per common grid for every profile; grid M reads every
    # (L/M)-th point of it, which is bitwise the grid-M call
    sups = {}
    for L in sorted(set(fine.values())):
        conv = circle_convolution(cp, L)
        sups.update({(i, M): float(np.abs(conv[i, ::L // M]).max())
                     for i in range(len(thetas)) for M in grids if fine[M] == L})
    rows = [[th, M, sups[i, M]] for i, th in enumerate(thetas) for M in grids]
    _write_csv(out / "circle.csv", ["theta", "grid_M", "sup"], rows)
    return {"rows": len(rows)}, True


@_experiment("burgers", "stochastic Burgers solve with weak-form residual check",
             n_modes=255, dt=1e-4, T=0.2, theta=0.25, weight_scale=5.0,
             residual_tol=1e-3, u0_amplitude=0.2, forcing_amplitude=0.1)
def _run_burgers(cfg, out: Path):
    n = cfg["n_modes"]
    if n < 5:
        raise ValueError(f"n_modes must be at least 5, not {n}: the weak residual tests modes 1-5")
    if not cfg["weight_scale"] > 0:
        raise ValueError(f"weight_scale must be positive, not {cfg['weight_scale']}")
    w = cfg["weight_scale"] * (np.arange(1, n + 1) * math.pi) ** cfg["theta"]
    noise = LevyNoiseSpec(CylindricalWienerSpec(w), SubordinatorSpec.stable(0.75))
    u0 = np.zeros(n); u0[0] = cfg["u0_amplitude"]
    f = np.zeros(n); f[1] = cfg["forcing_amplitude"]
    res = solve_stochastic_burgers(u0, noise, f, cfg["T"], cfg["dt"], seed=cfg["master_seed"])
    residuals = weak_residual(res, range(1, 6))
    _write_csv(out / "burgers_residuals.csv", ["test_mode", "residual"],
               list(enumerate(residuals, start=1)))
    _write_csv(out / "burgers_final.csv", ["mode", "u_coefficient"],
               list(enumerate(res["u_coeffs"][-1], start=1)))
    ok = max(abs(r) for r in residuals) < cfg["residual_tol"]
    return {"certificate": res["certificate"],
            "max_residual": max(abs(r) for r in residuals)}, ok


@_experiment("bounds", "modified-Burgers a priori energy inequalities on random instances",
             n_modes=63, n_instances=20, dt=1e-3, T=0.5)
def _run_bounds(cfg, out: Path):
    n, n_instances = cfg["n_modes"], cfg["n_instances"]
    if n < 4:
        raise ValueError(f"n_modes must be at least 4, not {n}: "
                         "each instance sets one of the first four modes")
    rng = stream(cfg["master_seed"])
    rows, all_ok = [], True
    for i in range(n_instances):
        v0 = np.zeros(n)
        v0[rng.integers(0, 4)] = rng.uniform(-0.3, 0.3)
        zc = np.zeros(n); zc[rng.integers(0, 4)] = rng.uniform(-0.3, 0.3)
        gc = np.zeros(n); gc[rng.integers(0, 4)] = rng.uniform(-0.3, 0.3)
        traj = solve_modified_burgers(v0, zc, gc, cfg["T"], cfg["dt"])
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
    kind = config.get("experiment")
    # a JSON list or object is no experiment name, and no dict key either
    if not isinstance(kind, str) or kind not in EXPERIMENTS:
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
    t0 = time.time()
    try:
        _check_config(config, defaults)
        summary, passed = experiment({**defaults, **config}, out)
        report = {"experiment": kind, "config": config,
                  "status": "pass" if passed else "fail",
                  "elapsed_s": round(time.time() - t0, 3), "summary": summary}
        text = _report_json(report)
    except (StepSizeError, QuadratureError, ArithmeticError, RuntimeError, MemoryError) as exc:
        report = {"experiment": kind, "config": config, "status": "numeric-failure",
                  "error": str(exc)}
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(json.dumps(report, indent=2, default=str))
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
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
