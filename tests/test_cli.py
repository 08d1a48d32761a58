import json

import numpy as np
import pytest

from levyfield import cli
from levyfield._rng import stream
from levyfield.cli import EXPERIMENT_SUMMARY, EXPERIMENTS, _charfn_projections, main
from levyfield.noise import CylindricalWienerSpec, LevyNoiseSpec
from levyfield.subordinator import SubordinatorSpec


def write_config(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_list_experiments(capsys):
    assert main(["list-experiments"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENT_SUMMARY:
        assert name in out
    assert set(EXPERIMENT_SUMMARY) == set(EXPERIMENTS)


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


def test_unknown_experiment_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiment": "nope", "master_seed": 1})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_missing_master_seed_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiment": "subordinator-check"})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "master_seed" in capsys.readouterr().err


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
    assert (out / "field_sample.csv").exists()


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
])
def test_batched_experiments_do_not_depend_on_the_chunk_size(tmp_path, monkeypatch,
                                                             payload, csv_name):
    # the draws are the same; only the rounding of the projections may move
    cfg = write_config(tmp_path, {**payload, "master_seed": 4})
    tables = []
    for chunk_terms in (cli.CHUNK_TERMS, 100):
        monkeypatch.setattr(cli, "CHUNK_TERMS", chunk_terms)
        out = tmp_path / str(chunk_terms)
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        tables.append(np.genfromtxt(out / csv_name, delimiter=",", skip_header=1,
                                    usecols=(0, 1, 2, 3, 4)))
    np.testing.assert_allclose(tables[0], tables[1], rtol=1e-12, atol=0.0)


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

    monkeypatch.setitem(EXPERIMENTS, "nan-probe", (nan_experiment, {}))
    cfg = write_config(tmp_path, {"experiment": "nan-probe", "master_seed": 0})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "numeric-failure"
    assert "nan.csv" in report["error"]
    assert not (out / "nan.csv").exists()


def test_circle_grid_limit_exit_2(tmp_path, capsys):
    # lcm(4096, 4097) cells: refused before any convolution
    cfg = write_config(tmp_path, {"experiment": "circle", "master_seed": 1,
                                  "thetas": [1.0], "grids": [4097]})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "MAX_CIRCLE_CELLS" in capsys.readouterr().err


@pytest.mark.parametrize("truncations", [[64], [64, 64]])
def test_blowup_needs_two_distinct_truncations_exit_2(tmp_path, capsys, truncations):
    # a slope through one truncation is a one-point fit, not a blow-up verdict
    cfg = write_config(tmp_path, {"experiment": "blowup", "master_seed": 1,
                                  "truncations": truncations})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "two distinct truncations" in capsys.readouterr().err
