import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from levyfield import cli, spectral, subordinator
from levyfield._rng import stream
from levyfield.cli import EXPERIMENTS, _charfn_projections, main
from levyfield.noise import CylindricalWienerSpec, LevyNoiseSpec
from levyfield.regularity import (CirclePath, circle_convolution, fourier_profile,
                                   scalar_levy_jumps)
from levyfield.subordinator import SubordinatorSpec


def write_config(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_list_experiments(capsys):
    assert main(["list-experiments"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


UNUSED = ("scipy.integrate", "scipy.special", "scipy.fft", "scipy.fftpack", "numpy.ma")

COLD_IMPORT = """
import sys
import levyfield.cli
unused = %r
assert not [m for m in unused if m in sys.modules]
import numpy as np
from levyfield import sine
sine.sine_values(np.arange(1.0, 6.0))
loaded = [m for m in unused if m in sys.modules]
assert not loaded, loaded
import scipy.fft
rng = np.random.default_rng(5)
for n in (7, 511, 513, 997, 1000):
    for x in (rng.standard_normal(n), rng.standard_normal((3, n))):
        assert np.array_equal(sine._dst1(x), scipy.fft.dst(x, type=1)), n
        assert np.array_equal(sine._dct1(x), scipy.fft.dct(x, type=1)), n
""" % (UNUSED,)


def _run_fresh(code):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_cold_import_defers_scipy_submodules():
    # sine loads scipy's pocketfft binding from its file on the first
    # transform, so neither the CLI nor a transform loads scipy's integrate,
    # special, fft or fftpack, or numpy.ma; a later import of scipy.fft gives
    # the same kernels, bit for bit
    _run_fresh(COLD_IMPORT)


EVERY_RUN = """
import sys, tempfile
from levyfield import cli
configs = [
    {"experiment": "ou-sample", "n_modes": 8, "mc_paths": 200, "n_pairs": 2},
    {"experiment": "charfn-test", "n_modes": 8, "mc_paths": 200, "n_phi": 1, "t_values": [0.5]},
    {"experiment": "circle", "thetas": [0.5], "grids": [64]},
    {"experiment": "blowup", "n_modes": 256, "truncations": [64, 128, 256]},
    {"experiment": "subordinator-check", "n_paths": 2000},
    {"experiment": "regularity", "n_modes": 32, "grid_M": 64, "n_paths": 2},
    {"experiment": "burgers", "n_modes": 31, "T": 0.01},
    {"experiment": "bounds", "n_modes": 15, "n_instances": 2, "T": 0.05},
]
assert sorted(cfg["experiment"] for cfg in configs) == sorted(cli.EXPERIMENTS)
for cfg in configs:
    with tempfile.TemporaryDirectory() as out:
        assert cli.run({**cfg, "master_seed": 1}, out) in (0, 1), cfg
    loaded = [m for m in %r if m in sys.modules]
    assert not loaded, (cfg["experiment"], loaded)
""" % (UNUSED,)


def test_no_run_loads_scipy_integrate_special_fft_fftpack_or_numpy_ma():
    # every law has closed forms and the oracle's quadrature is numpy, the
    # stable intensity's Gamma is math, and the transforms call the pocketfft
    # binding loaded from its file; no distinct values come from np.unique,
    # which loads numpy.ma
    _run_fresh(EVERY_RUN)


def test_run_subordinator_check_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiment": "subordinator-check",
                                  "master_seed": 7, "n_paths": 20000})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "pass"
    assert report["summary"]["failures"] == 0
    assert (out / "laplace.csv").exists()


def test_run_charfn_test_small(tmp_path):
    cfg = write_config(tmp_path, {"experiment": "charfn-test", "master_seed": 3,
                                  "n_modes": 16, "mc_paths": 4000, "n_phi": 2,
                                  "t_values": [0.5]})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "pass"


def test_seed_override(tmp_path):
    cfg = write_config(tmp_path, {"experiment": "subordinator-check",
                                  "master_seed": 7, "n_paths": 5000})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--seed", "99", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["master_seed"] == 99


def test_malformed_config_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    p2 = tmp_path / "list.json"
    p2.write_text("[1, 2]")
    assert main(["run", "--config", str(p2), "--out", str(tmp_path / "o")]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("kind", ["nope", ["burgers"], {"name": "burgers"}])
def test_unknown_experiment_exit_2(tmp_path, capsys, kind):
    cfg = write_config(tmp_path, {"experiment": kind, "master_seed": 1})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "unknown experiment" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_missing_master_seed_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiment": "subordinator-check"})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "master_seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_burgers_step_size_failure_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiment": "burgers", "master_seed": 1,
                                  "u0_amplitude": 40, "dt": 0.005})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "numeric-failure"
    assert report["error"]


def test_burgers_overflow_exit_3(tmp_path, capsys):
    # a tiny weight scale makes int |z|_L4^4 overflow exp in the a priori constants
    cfg = write_config(tmp_path, {"experiment": "burgers", "master_seed": 1,
                                  "weight_scale": 0.001, "T": 0.01})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "numeric-failure"
    assert "numeric failure" in capsys.readouterr().err


def test_burgers_apriori_constant_overflow_names_its_integral(tmp_path, capsys):
    # int |z|_L4^4 of about 5e4: K = e^(int |z|_L4^4) is beyond the double range
    cfg = write_config(tmp_path, {"experiment": "burgers", "master_seed": 1,
                                  "weight_scale": 0.01, "dt": 0.01, "T": 0.5})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "int |z|_L4^4 dt = " in err
    assert "K = e^(int |z|_L4^4 dt) overflow the double range" in err
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "numeric-failure" and report["error"] in err


def test_out_of_memory_exit_3(tmp_path, monkeypatch, capsys):
    # a draw too large to allocate is a numeric failure, not an assertion
    # failure (exit 1); the draw raises rather than allocates, since whether
    # a huge allocation fails at once depends on the host's overcommit policy
    message = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"

    def unallocatable(beta, n, rng):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "sample_stable_oneside", unallocatable)
    cfg = write_config(tmp_path, {"experiment": "subordinator-check", "master_seed": 0,
                                  "n_paths": 10 ** 12})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    assert f"numeric failure: {message}" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "numeric-failure" and report["error"] == message


def test_report_and_csv_deterministic_across_reruns(tmp_path):
    payload = {"experiment": "subordinator-check", "master_seed": 5,
               "n_paths": 5000}
    cfg = write_config(tmp_path, payload)
    outs = []
    for d in ("a", "b"):
        out = tmp_path / d
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        rep.pop("elapsed_s")
        outs.append((rep, (out / "laplace.csv").read_text()))
    assert outs[0] == outs[1]


def test_run_ou_sample_small(tmp_path):
    cfg = write_config(tmp_path, {"experiment": "ou-sample", "master_seed": 3,
                                  "n_modes": 8, "mc_paths": 3000, "n_pairs": 2})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "pass" and report["summary"]["cases"] == 2


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_field_sample_csv_refuses_non_finite_values(tmp_path, monkeypatch, capsys, bad):
    draws = cli._ou_draws

    def spoiled(op, spec, t, n_paths, *args, **kwargs):
        x = draws(op, spec, t, n_paths, *args, **kwargs)
        if n_paths == 1:    # the exported field sample
            x[0, 1] = bad
        return x

    monkeypatch.setattr(cli, "_ou_draws", spoiled)
    cfg = write_config(tmp_path, {"experiment": "ou-sample", "master_seed": 3,
                                  "n_modes": 4, "mc_paths": 200, "n_pairs": 1})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    assert "field_sample.csv" in json.loads((out / "report.json").read_text())["error"]
    assert not (out / "field_sample.csv").exists()
    # the header row is checked too
    with pytest.raises(FloatingPointError):
        cli._write_csv(tmp_path / "field.csv", ["# time_t", bad], [["mode"]])
    assert not (tmp_path / "field.csv").exists()


@pytest.mark.parametrize("beta", [1.5, float("nan")])
def test_invalid_config_value_exit_2(tmp_path, capsys, beta):
    cfg = write_config(tmp_path, {"experiment": "charfn-test", "master_seed": 1,
                                  "beta": beta, "mc_paths": 10})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "beta" in capsys.readouterr().err


def test_expected_jump_limit_exit_2(tmp_path, capsys):
    # 10^12 paths of about 14 jumps each: refused before anything is drawn
    cfg = write_config(tmp_path, {"experiment": "ou-sample", "master_seed": 1,
                                  "mc_paths": 10 ** 12, "n_pairs": 1})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "jumps in expectation" in capsys.readouterr().err


def test_expected_jump_limit_is_checked_before_any_case_is_drawn(tmp_path, capsys, monkeypatch):
    # at master seed 1 the cases' t are 1.04, 1.10, 1.05 and 0.98, and about
    # 17.8 jumps fall in a unit of time: 52 paths fit the limit of 1,000 at
    # the first t but not at the second
    monkeypatch.setattr(subordinator, "MAX_EXPECTED_JUMPS", 1000)
    drawn = []
    monkeypatch.setattr(cli, "sample_trajectory", lambda *args: drawn.append(args))
    cfg = write_config(tmp_path, {"experiment": "ou-sample", "master_seed": 1, "mc_paths": 52})
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "mc_paths = 52" in err and "jumps in expectation" in err
    assert drawn == []
    assert not out.exists()


def test_unknown_config_key_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiment": "charfn-test", "master_seed": 1,
                                  "mc_path": 10})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "mc_path" in capsys.readouterr().err


def test_charfn_cases_draw_independent_paths():
    # With shared draws Z(1) = 2^(1/beta) Z(0.5) path by path, so every
    # projection at t=1 would be 2^(1/(2 beta)) times the one at t=0.5.
    beta, n_modes = 0.9, 16
    spec = LevyNoiseSpec(CylindricalWienerSpec(np.ones(n_modes)), SubordinatorSpec.stable(beta))
    phis = stream(3, 0).standard_normal((2, n_modes)) / np.sqrt(n_modes)
    half = _charfn_projections(spec, phis, 0.5, 4000, 3, 0)
    whole = _charfn_projections(spec, phis, 1.0, 4000, 3, 1)
    assert not np.allclose(whole, 2.0 ** (1.0 / (2.0 * beta)) * half)
    for i in range(2):
        assert abs(np.corrcoef(half[:, i], whole[:, i])[0, 1]) < 0.1


@pytest.mark.parametrize("payload, csv_name", [
    ({"experiment": "charfn-test", "n_modes": 16, "mc_paths": 3000, "n_phi": 2}, "charfn.csv"),
    ({"experiment": "ou-sample", "n_modes": 8, "mc_paths": 2000, "n_pairs": 2}, "ou_charfn.csv"),
    ({"experiment": "regularity", "n_modes": 64, "grid_M": 256, "n_paths": 12}, "holder.csv"),
])
def test_batched_experiments_do_not_depend_on_the_chunk_size(tmp_path, monkeypatch,
                                                             payload, csv_name):
    # at a bound of one term, cell_moments sums each cell alone, charfn_oracle
    # sums the modes of one node at a time and charfn-test projects one path
    # at a time
    cfg = write_config(tmp_path, {**payload, "master_seed": 4})
    outs = []
    for chunk_terms in (spectral.CHUNK_TERMS, 1):
        monkeypatch.setattr(spectral, "CHUNK_TERMS", chunk_terms)
        outs.append(tmp_path / str(chunk_terms))
        assert main(["run", "--config", cfg, "--out", str(outs[-1])]) == 0
    if csv_name == "charfn.csv":
        # the draws are the same; BLAS may round a projection by its block size
        tables = [np.genfromtxt(out / csv_name, delimiter=",", skip_header=1,
                                usecols=(0, 1, 2, 3, 4)) for out in outs]
        np.testing.assert_allclose(tables[0], tables[1], rtol=1e-12, atol=0.0)
    else:
        names = sorted(path.name for path in outs[0].glob("*.csv"))
        assert csv_name in names
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_regularity_seeds_do_not_share_paths(tmp_path):
    # integer seed offsets (seed + 17 m) once gave master_seed 17 the paths
    # of master_seed 0 shifted by one
    deltas = []
    for seed in (0, 17):
        cfg = write_config(tmp_path, {"experiment": "regularity", "master_seed": seed,
                                      "n_modes": 64, "grid_M": 256, "n_paths": 3})
        out = tmp_path / str(seed)
        assert main(["run", "--config", cfg, "--out", str(out)]) in (0, 1)
        rows = (out / "holder.csv").read_text().splitlines()[1:]
        deltas.append({row.split(",")[2] for row in rows})
    assert len(deltas[0]) == len(deltas[1]) == 6
    assert not deltas[0] & deltas[1]


def test_non_finite_output_exit_3(tmp_path, monkeypatch, capsys):
    def nan_experiment(cfg, out):
        cli._write_csv(out / "nan.csv", ["x"], [[1.0], [float("nan")]])
        return {}, True

    monkeypatch.setitem(EXPERIMENTS, "nan-probe", (nan_experiment, {}, ""))
    cfg = write_config(tmp_path, {"experiment": "nan-probe", "master_seed": 0})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "numeric-failure"
    assert "nan.csv" in report["error"]
    assert not (out / "nan.csv").exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_summary_exit_3(tmp_path, monkeypatch, capsys, value):
    # report.json is strict JSON: a summary it cannot hold is a numeric failure
    def probe(cfg, out):
        return {"stat": value, "nested": [1.0, {"x": value}]}, True

    monkeypatch.setitem(EXPERIMENTS, "inf-probe", (probe, {}, ""))
    cfg = write_config(tmp_path, {"experiment": "inf-probe", "master_seed": 0})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "numeric-failure"
    assert "report.json" in report["error"]
    assert "summary" not in report
    assert "numeric failure" in capsys.readouterr().err


def test_circle_grid_limit_exit_2(tmp_path, capsys):
    # lcm(4096, 4097) cells: refused before any convolution
    cfg = write_config(tmp_path, {"experiment": "circle", "master_seed": 1,
                                  "thetas": [1.0], "grids": [4097]})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "MAX_CIRCLE_CELLS" in capsys.readouterr().err


def refuse_draws(*args, **kwargs):
    raise AssertionError("a config error must be found before anything is drawn")


@pytest.mark.parametrize("payload, message", [
    ({"grids": [100.5]}, "grids must hold integers, not 100.5"),
    ({"grids": [-4]}, "grids must hold positive integers, not -4"),
    ({"grids": [0]}, "grids must hold positive integers, not 0"),
    ({"grids": 128}, "grids must be a list of integers, not 128"),
    ({"grids": [True]}, "grids must hold integers, not True"),
    ({"thetas": [True]}, "thetas must hold numbers, not True"),
    ({"thetas": ["1"]}, "thetas must hold numbers, not '1'"),
    ({"thetas": 0.5}, "thetas must be a list of numbers, not 0.5"),
    ({"grids": [128, 4097]}, "grids entry 4097: lcm(4096, 4097) = 16781312 cells exceeds "
                             "MAX_CIRCLE_CELLS"),
], ids=["float-grid", "negative-grid", "zero-grid", "grids-not-a-list", "bool-grid",
        "bool-theta", "string-theta", "thetas-not-a-list", "common-grid-too-fine"])
def test_invalid_circle_grids_and_thetas_exit_2(tmp_path, monkeypatch, capsys, payload, message):
    # refused before the path or a profile is drawn, naming the key
    monkeypatch.setattr(cli, "scalar_levy_jumps", refuse_draws)
    monkeypatch.setattr(cli, "fourier_profile", refuse_draws)
    cfg = write_config(tmp_path, {"experiment": "circle", "master_seed": 1, **payload})
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_circle_csv_is_bitwise_one_call_per_profile_and_grid(tmp_path):
    grids, seed = [100, 128, 3, 5000, 128], 4
    thetas = EXPERIMENTS["circle"][1]["thetas"]
    assert cli.run({"experiment": "circle", "master_seed": seed, "grids": grids},
                   str(tmp_path)) == 0
    with open(tmp_path / "circle.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    times, incs = scalar_levy_jumps(SubordinatorSpec.stable(0.75), seed=seed)
    expected = []
    for th in thetas:
        cp = CirclePath(fourier_profile(th, 512, 4096, seed=seed + 1), times, incs)
        expected += [[th, M, float(np.abs(circle_convolution(cp, M)).max())] for M in grids]
    assert [[float(th), int(M), float(sup)] for th, M, sup in rows] == expected


@pytest.mark.parametrize("grids", [None, [100, 128, 3, 5000, 128]])
def test_circle_makes_one_convolution_per_common_grid(tmp_path, monkeypatch, grids):
    # every profile and every grid M with one L = lcm(4096, M) share one call
    calls = []

    def counting(path, grid_M):
        calls.append(grid_M)
        return circle_convolution(path, grid_M)

    monkeypatch.setattr(cli, "circle_convolution", counting)
    cfg = {"experiment": "circle", "master_seed": 2}
    if grids is not None:
        cfg["grids"] = grids
    assert cli.run(cfg, str(tmp_path)) == 0
    common = {math.lcm(4096, M) for M in grids or EXPERIMENTS["circle"][1]["grids"]}
    assert sorted(calls) == sorted(common)
    assert len(calls) == (1 if grids is None else 4)


@pytest.mark.parametrize("truncations", [[64], [64, 64]])
def test_blowup_needs_two_distinct_truncations_exit_2(tmp_path, capsys, truncations):
    # a slope through one truncation is a one-point fit, not a blow-up verdict
    cfg = write_config(tmp_path, {"experiment": "blowup", "master_seed": 1,
                                  "truncations": truncations})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "two distinct truncations" in capsys.readouterr().err


@pytest.mark.parametrize("truncations, message", [
    ([64.5, 128], "truncations must hold integers, not 64.5"),
    ([True, 128], "truncations must hold integers, not True"),
    ([0, 128], "truncations must hold positive integers, not 0"),
    ([-64, 128], "truncations must hold positive integers, not -64"),
    (128, "truncations must be a list of integers, not 128"),
], ids=["float", "bool", "zero", "negative", "not-a-list"])
def test_blowup_truncations_that_are_not_positive_integers_exit_2(tmp_path, monkeypatch, capsys,
                                                                  truncations, message):
    # a cast would run 64.5 as 64 and true as 1, with a report that does not
    # match the config; each is refused before the path is drawn
    monkeypatch.setattr(cli, "blowup_probe", refuse_draws)
    cfg = write_config(tmp_path, {"experiment": "blowup", "master_seed": 1,
                                  "truncations": truncations})
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("payload, key", [
    ({"experiment": "burgers", "residual_tol": float("nan")}, "residual_tol"),
    ({"experiment": "burgers", "theta": float("inf")}, "theta"),
    ({"experiment": "bounds", "T": -float("inf")}, "T"),
    ({"experiment": "circle", "thetas": [0.0, float("nan")]}, "thetas"),
], ids=["nan", "infinity", "minus-infinity", "nan-in-a-list"])
def test_non_finite_config_value_exit_2(tmp_path, capsys, payload, key):
    # json reads NaN and Infinity; they are refused before the experiment starts
    cfg = write_config(tmp_path, {**payload, "master_seed": 1})
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "non-finite" in err and repr(key) in err
    assert not out.exists()


@pytest.mark.parametrize("payload, key", [
    ({"experiment": "ou-sample", "n_pairs": 0}, "n_pairs"),
    ({"experiment": "charfn-test", "n_phi": 0}, "n_phi"),
    ({"experiment": "charfn-test", "t_values": []}, "t_values"),
    ({"experiment": "subordinator-check", "betas": []}, "betas"),
    ({"experiment": "subordinator-check", "r_values": []}, "r_values"),
    ({"experiment": "subordinator-check", "n_paths": 0}, "n_paths"),
    ({"experiment": "circle", "thetas": []}, "thetas"),
    ({"experiment": "circle", "grids": []}, "grids"),
    ({"experiment": "charfn-test", "mc_paths": 0}, "mc_paths"),
    ({"experiment": "ou-sample", "mc_paths": 0}, "mc_paths"),
    ({"experiment": "ou-sample", "n_modes": 0}, "n_modes"),
    ({"experiment": "charfn-test", "n_modes": 0}, "n_modes"),
    ({"experiment": "regularity", "n_modes": 0}, "n_modes"),
    ({"experiment": "blowup", "n_modes": 0}, "n_modes"),
], ids=lambda v: v if isinstance(v, str) else v["experiment"])
def test_empty_case_list_exit_2(tmp_path, capsys, payload, key):
    # no case (or no draw, or no mode) would run, and a verdict over none would
    # read "pass" or fail on the mean of no draws; the error names the key
    cfg = write_config(tmp_path, {**payload, "master_seed": 1})
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("payload, message", [
    ({"experiment": "subordinator-check", "betas": [1.0]}, "betas must lie in (0, 1), not 1.0"),
    ({"experiment": "subordinator-check", "betas": [0.5, 0.0]}, "betas must lie in (0, 1), not 0.0"),
    ({"experiment": "subordinator-check", "betas": [1.5]}, "betas must lie in (0, 1), not 1.5"),
    ({"experiment": "subordinator-check", "r_values": [1.0, -0.5]},
     "r_values must lie in (0, inf), not -0.5"),
    ({"experiment": "subordinator-check", "r_values": [0]}, "r_values must lie in (0, inf), not 0"),
    ({"experiment": "charfn-test", "t_values": [0.0]}, "t_values must lie in (0, inf), not 0.0"),
    ({"experiment": "charfn-test", "t_values": [0.5, -1.0]},
     "t_values must lie in (0, inf), not -1.0"),
], ids=["beta-one", "beta-zero", "beta-above-one", "r-negative", "r-zero", "t-zero",
        "t-negative"])
def test_out_of_range_case_value_exit_2(tmp_path, capsys, payload, message):
    # refused before any case runs, naming the key, not as a math domain error
    cfg = write_config(tmp_path, {**payload, "master_seed": 1})
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("payload, message", [
    ({"experiment": "burgers", "dt": -1e-4}, "dt must be finite and positive"),
    ({"experiment": "burgers", "dt": 0}, "dt must be finite and positive"),
    ({"experiment": "burgers", "n_modes": 1}, "n_modes must be at least 5"),
    ({"experiment": "bounds", "dt": 0}, "dt must be finite and positive"),
    ({"experiment": "bounds", "n_modes": 2}, "n_modes must be at least 4"),
    ({"experiment": "bounds", "n_instances": 0}, "n_instances must be at least 1"),
], ids=["burgers-negative-dt", "burgers-zero-dt", "burgers-n_modes", "bounds-zero-dt",
        "bounds-n_modes", "bounds-n_instances"])
def test_invalid_burgers_and_bounds_values_exit_2(tmp_path, capsys, payload, message):
    cfg = write_config(tmp_path, {**payload, "master_seed": 1})
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
