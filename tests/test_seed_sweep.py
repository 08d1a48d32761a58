"""``tools/seed_sweep.py``, which prints an experiment's gated statistics at a
range of master seeds and which CI's seed loops call."""

import importlib.util
from pathlib import Path

import pytest

from levyfield import cli

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("seed_sweep", ROOT / "tools" / "seed_sweep.py")
sweep = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(sweep)


def table(capsys):
    return [line.split() for line in capsys.readouterr().out.splitlines()]


def test_every_experiment_has_its_statistics():
    assert sorted(sweep.STATISTICS) == sorted(cli.EXPERIMENTS)


def test_circle_at_two_seeds_prints_one_row_per_seed(capsys):
    assert sweep.main(["circle", "--seeds", "0-1"]) == 0
    assert table(capsys) == [["seed", "exit", "rows"], ["0", "0", "16"], ["1", "0", "16"]]


def test_a_refused_seed_sets_the_exit_code_and_has_no_statistics(capsys):
    # burgers refuses fewer than 5 modes with exit 2, before it draws
    assert sweep.main(["burgers", "--seeds", "3", "--set", "n_modes=2"]) == 2
    assert table(capsys) == [["seed", "exit", "max_residual"], ["3", "2", "-"]]


def test_monte_carlo_failures_are_counted_against_chance(capsys):
    assert sweep.main(["subordinator-check", "--seeds", "0-1", "--set", "n_paths=1000",
                       "--set", "betas=[0.5]"]) == 0
    rows = table(capsys)
    assert rows[:3] == [["seed", "exit", "cases", "failures"], ["0", "0", "3", "0"],
                        ["1", "0", "3", "0"]]
    assert " ".join(rows[3]) == "4-SE failures: 0 of 6 checks, 0.00038 expected by chance"


@pytest.mark.parametrize("argv", [["circle", "--seeds", "2-1"], ["circle", "--seeds", "a"],
                                  ["circle", "--seeds", "0", "--set", "grids"],
                                  ["circle", "--seeds", "0", "--set", "grids=[1"],
                                  ["nothing", "--seeds", "0"]])
def test_a_bad_command_line_exits_2(argv):
    with pytest.raises(SystemExit) as exc:
        sweep.main(argv)
    assert exc.value.code == 2
