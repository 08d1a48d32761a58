"""Closed-loop benchmark of the levyfield experiment runner.

One benchmark run is one process with one client: it calls
``levyfield.cli.run`` on a workload's config again and again, each call
starting after the previous one returned, with the workload seed as
``master_seed``.  Every call's outputs are checked (exit code, status,
failure count, byte-identical reruns, and for the circle experiment an
exact reference).  ``run.py`` is the command-line entry point.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import levyfield
from levyfield import cli
from levyfield.regularity import fourier_profile, scalar_levy_jumps
from levyfield.subordinator import SubordinatorSpec

from tracing import Tracer, summarize

SETUP_REPEATS = 3
# What a CLI invocation does before its experiment starts.
SETUP_CHILD = ("import json, sys\n"
               "sys.path.insert(0, sys.argv[1])\n"
               "import levyfield.cli\n"
               "json.loads(open(sys.argv[2]).read())\n")
# The circle experiment draws its profiles as fourier_profile(theta, 512, 4096).
CIRCLE_HARMONICS, CIRCLE_PROFILE_GRID = 512, 4096
# Today's np.interp route reaches 1.1e-2 of the sup (1.8e-2 pointwise) on
# seeds 1-20; an exact evaluation reaches rounding error.
CIRCLE_REL_TOL = 5e-2
# A shared host's speed drifts by tens of percent within seconds to minutes,
# and it slows every cli.run alike.  A fixed calibration loop timed right
# before and after each run measures that speed: the run's wall time scaled
# by REFERENCE_CALIBRATION_S / (mean calibration time) is in seconds at one
# fixed machine speed.
CALIBRATION_ITERATIONS = 1_000_000
REFERENCE_CALIBRATION_S = 0.075
ELAPSED = re.compile(rb'"elapsed_s": [^,\n}]*')
# counts that must repeat exactly across traced runs at one seed
COUNT_METRICS = ("rng.calls", "subordinator.calls", "subordinator.paths",
                 "subordinator.jumps_drawn", "noise.calls", "spectral.calls",
                 "spectral.cell_terms", "burgers.calls", "burgers.steps",
                 "burgers.transform_calls", "regularity.calls", "regularity.jump_evals")


def circle_reference(config: dict) -> dict:
    """sup |z -> sum_k profile(z - tau_k) dY_k| per (theta, grid_M), exactly.

    Redraws the experiment's inputs with the public samplers and evaluates
    the convolution as a Fourier sum: the profile is a trigonometric
    polynomial, so conv(z) = sum_n c_n S_n e^(inz) with
    S_n = sum_k dY_k e^(-in tau_k).
    """
    seed = config["master_seed"]
    times, incs = scalar_levy_jumps(SubordinatorSpec.stable(config["beta"]), seed=seed)
    n = np.arange(CIRCLE_HARMONICS + 1)
    s = np.zeros(n.size, dtype=complex)
    for lo in range(0, times.size, 256):
        s += np.exp(-1j * np.outer(n, times[lo:lo + 256])) @ incs[lo:lo + 256]
    sups = {}
    for theta in config["thetas"]:
        profile = fourier_profile(theta, CIRCLE_HARMONICS, CIRCLE_PROFILE_GRID, seed=seed + 1)
        c = np.fft.rfft(profile[:-1])[:n.size] / CIRCLE_PROFILE_GRID
        coef = c * s
        for grid_m in config["grids"]:
            z = np.linspace(0.0, 2.0 * np.pi, grid_m + 1)
            conv = 2.0 * (np.exp(1j * np.outer(z, n)) @ coef).real - coef[0].real
            sups[(float(theta), int(grid_m))] = float(np.abs(conv).max())
    return {"sups": sups, "increments": int(times.size)}


def work_items(config: dict, reference: dict | None) -> int:
    """Work one run does, in the unit the workload's work_item names."""
    kind = config["experiment"]
    if kind == "charfn-test":
        return config["mc_paths"] * len(config["t_values"])
    if kind == "ou-sample":
        return config["mc_paths"] * config["n_pairs"] + 1
    if kind == "burgers":
        return round(config["T"] / config["dt"])
    if kind == "circle":
        return reference["increments"] * len(config["thetas"]) * sum(m + 1 for m in config["grids"])
    raise ValueError(f"no work count for experiment {kind!r}")


class Client:
    """Calls cli.run on one config and checks the outputs of every call."""

    def __init__(self, config: dict, out_dir: Path, reference: dict | None):
        self.config = config
        self.out_dir = out_dir
        self.reference = reference
        self.first_outputs = None
        self.attempted = 0
        self.failed = 0
        self.problems = Counter()
        self.worst_reference_err = 0.0
        out_dir.mkdir(parents=True, exist_ok=True)

    def run(self) -> float:
        for path in self.out_dir.iterdir():
            path.unlink()
        with contextlib.redirect_stdout(sys.stderr):
            start = perf_counter()
            code = cli.run(dict(self.config), str(self.out_dir))
            elapsed = perf_counter() - start
        outputs = {p.name: p.read_bytes() for p in sorted(self.out_dir.iterdir())}
        problems = self._check(code, outputs)
        self.attempted += 1
        self.failed += bool(problems)
        self.problems.update(problems)
        return elapsed

    def _check(self, code: int, outputs: dict) -> list[str]:
        if code != 0:
            return ["exit_code"]
        problems = []
        report = json.loads(outputs["report.json"])
        if report.get("status") != "pass":
            problems.append("status")
        if report.get("summary", {}).get("failures", 0) != 0:
            problems.append("failures")
        # reruns at one seed must match byte for byte, apart from elapsed_s
        normalized = {name: ELAPSED.sub(b'"elapsed_s": _', data) for name, data in outputs.items()}
        if self.first_outputs is None:
            self.first_outputs = normalized
        elif normalized != self.first_outputs:
            problems.append("determinism")
        if self.reference is not None and not self._matches_reference(outputs.get("circle.csv")):
            problems.append("reference")
        return problems

    def _matches_reference(self, data: bytes | None) -> bool:
        if data is None:
            return False
        expected = self.reference["sups"]
        sups = {(float(row["theta"]), int(row["grid_M"])): float(row["sup"])
                for row in csv.DictReader(io.StringIO(data.decode()))}
        if sups.keys() != expected.keys():
            return False
        worst = max(abs(sups[key] - sup) / sup for key, sup in expected.items())
        self.worst_reference_err = max(self.worst_reference_err, worst)
        return worst <= CIRCLE_REL_TOL


def timed_runs(run_once, seconds: float, min_runs: int) -> list[float]:
    """Call ``run_once`` back to back until the next call would end past ``seconds``."""
    times: list[float] = []
    start = perf_counter()
    while len(times) < min_runs or perf_counter() - start + statistics.median(times) <= seconds:
        times.append(run_once())
    return times


def setup_seconds(src: Path, config_path: Path) -> float:
    """Median wall time of a fresh interpreter importing levyfield.cli and parsing the config."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CHILD, str(src), str(config_path)],
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return statistics.median(times)


def describe(samples: list[float]) -> str:
    """Median and quartiles, plus the highest tail percentile with ten samples beyond it."""
    n = len(samples)
    text = f"median {statistics.median(samples):.4f}"
    if n >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        text += f" q1 {q1:.4f} q3 {q3:.4f}"
    tails = [p for p in (90, 99, 99.9) if n * (1 - p / 100) >= 10]
    if tails:
        p = tails[-1]
        text += f" p{p:g} {statistics.quantiles(samples, n=1000)[round(p * 10) - 1]:.4f}"
    return text + f" (n={n})"


def layer_metrics(spans: list, base: int, counts: Counter) -> dict:
    """Per-layer metrics of one traced cli.run."""
    calls, self_s, inclusive = summarize(spans, base)
    paths = sum(1 for span in spans if span[0] == "subordinator.simulate_path")
    steps = counts["burgers.steps"]
    return {
        "rng.calls": calls["_rng"],
        "rng.self_s": self_s["_rng"],
        "rng.streams_per_path": calls["_rng"] / paths if paths else 0.0,
        "subordinator.calls": calls["subordinator"],
        "subordinator.self_s": self_s["subordinator"],
        "subordinator.paths": paths,
        "subordinator.jumps_drawn": counts["subordinator.jumps_drawn"],
        "noise.calls": calls["noise"],
        "noise.self_s": self_s["noise"],
        "spectral.calls": calls["spectral"],
        "spectral.self_s": self_s["spectral"],
        "spectral.cell_terms": counts["spectral.cell_terms"],
        "spectral.oracle_s": inclusive["spectral.charfn_oracle"],
        "burgers.calls": calls["burgers"],
        "burgers.self_s": self_s["burgers"],
        "burgers.residual_s": inclusive["burgers.weak_residual"],
        "burgers.steps": steps,
        "burgers.transform_calls": calls["sfft"],
        "burgers.transform_s": self_s["sfft"],
        "burgers.transforms_per_step": calls["sfft"] / steps if steps else 0.0,
        "regularity.calls": calls["regularity"],
        "regularity.self_s": self_s["regularity"],
        "regularity.jump_evals": counts["regularity.jump_evals"],
        "cli.self_s": self_s["cli"],
    }


def write_spans(spans: list, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["span", "parent", "name", "start_s", "end_s"])
        origin = spans[0][1] if spans else 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            writer.writerow([i, parent, name, f"{start - origin:.7f}", f"{end - origin:.7f}"])


def traced_metrics(client: Client, seconds: float, spans_path: Path) -> tuple[dict, list[str], bool]:
    """Half the time untraced, half traced: per-layer metrics and the tracing overhead.

    The overhead is the difference of the verdict_ref_s medians; layer times
    are wall seconds.
    """
    untraced, untraced_ref = calibrated_runs(client.run, seconds / 2, 1)
    per_run = []
    with Tracer(levyfield) as tracer:
        def traced_once() -> float:
            base = len(tracer.spans)
            tracer.counts.clear()
            elapsed = client.run()
            per_run.append(layer_metrics(tracer.spans[base:], base, tracer.counts))
            return elapsed

        traced, traced_ref = calibrated_runs(traced_once, seconds / 2, 2)
    write_spans(tracer.spans, spans_path)
    values = {name: per_run[0][name] if name in COUNT_METRICS
              else statistics.median(run[name] for run in per_run)
              for name in per_run[0]}
    values["trace_overhead_s"] = statistics.median(traced_ref) - statistics.median(untraced_ref)
    repeat = all(run[name] == per_run[0][name] for run in per_run for name in COUNT_METRICS)
    units = dict.fromkeys(COUNT_METRICS, "count")
    units.update({"rng.streams_per_path": "count/path", "burgers.transforms_per_step": "count/step"})
    metrics = {name: {"value": value, "unit": units.get(name, "s")} for name, value in values.items()}
    lines = [f"verdict_s untraced {describe(untraced)} s, traced {describe(traced)} s",
             f"verdict_ref_s untraced {describe(untraced_ref)} s, traced {describe(traced_ref)} s",
             f"check counts_repeat {'ok' if repeat else 'FAILED'} ({len(per_run)} traced runs)"]
    return metrics, lines, repeat


def calibration_seconds() -> float:
    """Wall time of a fixed pure-Python loop; interpreted loops dominate every workload."""
    start = perf_counter()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i % 7
    return perf_counter() - start


def calibrated_runs(run_once, seconds: float, min_runs: int) -> tuple[list[float], list[float]]:
    """Wall times of back-to-back runs, and the same times at the reference machine speed.

    Each run is scaled by the mean of the calibrations just before and just
    after it.
    """
    calibration = []

    def calibrated_run() -> float:
        calibration.append(calibration_seconds())
        return run_once()

    times = timed_runs(calibrated_run, seconds, min_runs)
    calibration.append(calibration_seconds())
    return times, [2.0 * t * REFERENCE_CALIBRATION_S / (before + after)
                   for t, before, after in zip(times, calibration, calibration[1:])]


def end_to_end_metrics(client: Client, seconds: float, src: Path) -> tuple[dict, list[str]]:
    config_path = client.out_dir / "config.json"
    config_path.write_text(json.dumps(client.config))
    setup = setup_seconds(src, config_path)
    times, ref_times = calibrated_runs(client.run, seconds, 3)
    verdict, verdict_ref = statistics.median(times), statistics.median(ref_times)
    items = work_items(client.config, client.reference)
    metrics = {
        "setup_s": {"value": setup, "unit": "s"},
        "verdict_ref_s": {"value": verdict_ref, "unit": "s"},
        "work_per_ref_s": {"value": items / verdict_ref, "unit": "1/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }
    lines = [f"verdict_s {describe(times)} s",
             f"work_per_s {items / verdict:.6g} 1/s ({items} items per run)",
             f"verdict_ref_s {describe(ref_times)} s"]
    return metrics, lines


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "threads": {var: value for var, value in sorted(os.environ.items())
                        if var.endswith("_NUM_THREADS")}}


def run_benchmark(workload: str, spec: dict, seed: int, seconds: float, trace: bool,
                  root: Path, overrides: dict | None = None) -> tuple[dict, list[str]]:
    """One benchmark run.  Returns the result object and the lines that describe it."""
    config = {**spec["config"], **(overrides or {}), "master_seed": seed}
    work_dir = root / ".perfbench_out"
    reference = circle_reference(config) if config["experiment"] == "circle" else None
    client = Client(config, work_dir / f"run-{os.getpid()}", reference)
    lines = [f"env {json.dumps(environment())}",
             f"workload {workload} seed {seed} trace {int(trace)} config {json.dumps(config)}"]
    try:
        if trace:
            metrics, more, repeat = traced_metrics(client, seconds, work_dir / f"spans-{workload}.csv")
        else:
            metrics, more = end_to_end_metrics(client, seconds, root / "src")
            repeat = True
    finally:
        shutil.rmtree(client.out_dir)
    lines += more
    checks = ["exit_code", "status", "failures", "determinism"] + (["reference"] if reference else [])
    lines += [f"check {name} {'FAILED' if client.problems[name] else 'ok'}"
              f" ({client.attempted - client.problems[name]}/{client.attempted} runs)" for name in checks]
    if reference:
        lines.append(f"reference worst relative error of sup {client.worst_reference_err:.3e}"
                     f" (tolerance {CIRCLE_REL_TOL:g})")
    lines.append(f"fail_ratio {client.failed / client.attempted:g} ratio"
                 f" ({client.failed} of {client.attempted} runs failed)")
    lines += [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    result = {"correct": client.failed == 0 and repeat, "attempted": client.attempted,
              "failed": client.failed, "metrics": metrics}
    return result, lines
