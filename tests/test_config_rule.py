"""The config rule of ``levyfield.cli``, generated from ``cli.EXPERIMENTS``.

Every key of every experiment, ``master_seed`` included, is given values
that break the rule its default declares; each must exit 2 with a message
naming the key, before anything is drawn and without an output
directory.
"""

import json
import math
import re

import numpy as np
import pytest

from levyfield import cli
from levyfield.noise import CylindricalWienerSpec, LevyNoiseSpec
from levyfield.regularity import blowup_probe
from levyfield.spaces import SpaceSpec
from levyfield.spectral import SpectralOperator
from levyfield.subordinator import SubordinatorSpec

# every name through which an experiment draws or solves
SAMPLERS = ("stream", "simulate_paths", "sample_stable_oneside", "sample_trajectory",
            "scalar_levy_jumps", "fourier_profile", "blowup_probe",
            "solve_stochastic_burgers", "solve_modified_burgers")


def refuse_draws(*args, **kwargs):
    raise AssertionError("a config error must be found before anything is drawn")


@pytest.fixture
def no_draws(monkeypatch):
    for name in SAMPLERS:
        monkeypatch.setattr(cli, name, refuse_draws)


def _bad_values(key, default):
    """Values that break the rule for ``default``: a bool, a string, and by
    kind of key (integer: 2.5 and below the least; number: NaN; list: empty,
    a bare scalar and bad entries)."""
    if isinstance(default, list):
        entry = [2.5, 0] if isinstance(default[0], int) else [math.nan]
        return [True, "1", [], default[0], [True], ["1"]] + [[e] for e in entry]
    if key == "master_seed":
        return [True, "1", 2.5, -1]
    return [True, "1"] + ([2.5, 0] if isinstance(default, int) else [math.nan])


CASES = [(name, key, value)
         for name, (_, defaults, _) in cli.EXPERIMENTS.items()
         for key, default in {"master_seed": 0, **defaults}.items()
         for value in _bad_values(key, default)]


def _run(tmp_path, capsys, config):
    out = tmp_path / "o"
    code = cli.run(config, str(out))
    return code, capsys.readouterr().err, out


def _names(err, key) -> bool:
    return re.search(rf"\b{re.escape(key)}\b", err) is not None


@pytest.mark.parametrize("name", list(cli.EXPERIMENTS))
def test_defaults_follow_the_rule(name):
    defaults = cli.EXPERIMENTS[name][1]
    cli._check_config({"experiment": name, "master_seed": 0, **defaults}, defaults)


@pytest.mark.parametrize("name, key, value", CASES, ids=lambda v: repr(v))
def test_every_key_refuses_what_its_default_rules_out(tmp_path, capsys, no_draws,
                                                      name, key, value):
    code, err, out = _run(tmp_path, capsys, {"experiment": name, "master_seed": 1, key: value})
    assert code == 2 and _names(err, key) and not out.exists(), err


@pytest.mark.parametrize("payload, key", [
    ({"experiment": "regularity", "n_modes": 64.5}, "n_modes"),
    ({"experiment": "charfn-test", "mc_paths": True}, "mc_paths"),
    ({"experiment": "burgers", "n_modes": "63"}, "n_modes"),
    ({"experiment": "ou-sample", "beta": "0.5"}, "beta"),
    ({"experiment": "subordinator-check", "master_seed": 1.7}, "master_seed"),
    ({"experiment": "bounds", "n_instances": 2.9}, "n_instances"),
    ({"experiment": "regularity", "grid_M": 0}, "grid_M"),
    ({"experiment": "regularity", "grid_M": 100}, "grid_M"),
    ({"experiment": "regularity", "n_modes": 64, "grid_M": 64}, "grid_M"),
    ({"experiment": "burgers", "weight_scale": 0.0}, "weight_scale"),
    ({"experiment": "burgers", "weight_scale": -5}, "weight_scale"),
], ids=lambda v: v if isinstance(v, str) else json.dumps(v))
def test_values_once_cast_or_refused_late_exit_2(tmp_path, capsys, no_draws, payload, key):
    # a cast once ran 64.5 modes as 64, true paths as 1 and "63" as 63; a
    # grid or weight refusal came after the draws and did not name the key
    code, err, out = _run(tmp_path, capsys, {"master_seed": 1, **payload})
    assert code == 2 and _names(err, key) and not out.exists(), err


@pytest.mark.parametrize("seed, message", [
    ("-1", "master_seed must be at least 0, not -1"),
    ("1.7", "invalid int value"),
])
def test_seed_option_follows_the_rule(tmp_path, capsys, no_draws, seed, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "subordinator-check", "master_seed": 1}))
    out = tmp_path / "o"
    try:
        code = cli.main(["run", "--config", str(cfg), "--seed", seed, "--out", str(out)])
    except SystemExit as exc:   # argparse refuses a seed that is not an int
        code = exc.code
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("truncations", [[64.5, 128], [True, 128], [0, 128], ["64", 128]])
def test_blowup_probe_refuses_truncations_that_are_not_positive_integers(truncations):
    op = SpectralOperator.dirichlet(1, 1.0, 128)
    noise = LevyNoiseSpec(CylindricalWienerSpec(np.ones(128)), SubordinatorSpec.stable(0.5))
    with pytest.raises(ValueError, match="truncations must be positive integers"):
        blowup_probe(op, noise, SpaceSpec(2.0, np.ones(128)), truncations, seed=0,
                     u_space=SpaceSpec(2.0, np.ones(128)))


def test_blowup_probe_takes_numpy_integers():
    op = SpectralOperator.dirichlet(1, 1.0, 64)
    noise = LevyNoiseSpec(CylindricalWienerSpec(np.ones(64)), SubordinatorSpec.stable(0.5))
    F = SpaceSpec(2.0, np.ones(64))
    reps = [blowup_probe(op, noise, F, truncs, seed=3, threshold=0.05, u_space=F)
            for truncs in ([16, 32, 64], np.array([16, 32, 64]))]
    assert reps[0]["conclusive"] and reps[0] == reps[1]
    assert [type(n) for n in reps[1]["truncations"]] == [int] * 3
