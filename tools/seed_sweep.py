"""An experiment's gated statistics at a range of master seeds.

    python tools/seed_sweep.py EXPERIMENT --seeds A-B [--set key=value ...]

runs ``cli.run`` once per master seed from A to B (inclusive), all in this
process and into a temporary directory, and prints one row per seed: the
seed, the exit code and the statistics of ``report.json`` that the
experiment's verdict reads (``-`` where the report has none, as after a
refusal).  Each ``--set`` value is read as JSON, so ``--set T=0.5`` sets
a number and ``--set grids=[128,256]`` a list.  For an experiment whose
verdict counts 4-SE Monte Carlo checks it also prints the failures of the
sweep against the number expected by chance, 2 (1 - Phi(4)) per check.

It exits with the largest exit code of the seeds, so non-zero if any seed
failed; 2 for a bad command line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# experiment -> the paths in the report's summary of the statistics its
# verdict reads
STATISTICS = {
    "subordinator-check": ("cases", "failures"),
    "charfn-test": ("cases", "failures"),
    "ou-sample": ("cases", "failures"),
    "regularity": ("gaussian.mean_delta", "stable_alpha1.mean_delta"),
    "blowup": ("growth_slope",),
    "circle": ("rows",),
    "burgers": ("max_residual",),
    "bounds": ("all_pass",),
}
# the chance that one 4-SE check of a true mean fails, 2 (1 - Phi(4))
FOUR_SE_MISS = math.erfc(4.0 / math.sqrt(2.0))


def seed_range(text: str) -> range:
    """The seeds of "A-B" (A to B inclusive) or of a single "A"."""
    lo, _, hi = text.partition("-")
    try:
        seeds = range(int(lo), int(hi or lo) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seeds must be A-B or A, not {text!r}") from None
    if not seeds or seeds.start < 0:
        raise argparse.ArgumentTypeError(f"seeds must run from A >= 0 up to B, not {text!r}")
    return seeds


def setting(text: str) -> tuple[str, object]:
    """(key, value) of "key=value", the value read as JSON."""
    key, eq, value = text.partition("=")
    try:
        if not (key and eq):
            raise ValueError
        return key, json.loads(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--set takes key=JSON value, not {text!r}") from None


def statistic(summary: dict, path: str):
    """The value at the dotted ``path`` of the summary, or "-" if it has none."""
    for key in path.split("."):
        if not isinstance(summary, dict) or key not in summary:
            return "-"
        summary = summary[key]
    return summary


def sweep(cli, experiment: str, seeds, settings: dict) -> list[list]:
    """[seed, exit code, statistic, ...] of each seed; what ``cli.run``
    prints to stdout is dropped, what it prints to stderr is not."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            out = Path(tmp) / str(seed)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.run({"experiment": experiment, "master_seed": seed, **settings},
                               str(out))
            report = out / "report.json"
            summary = json.loads(report.read_text()).get("summary", {}) if report.exists() else {}
            rows.append([seed, code, *(statistic(summary, p) for p in STATISTICS[experiment])])
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("experiment", choices=sorted(STATISTICS))
    parser.add_argument("--seeds", type=seed_range, required=True, help="A-B, inclusive")
    parser.add_argument("--set", type=setting, action="append", default=[], dest="settings",
                        metavar="KEY=VALUE", help="a config key, its value as JSON")
    args = parser.parse_args(argv)

    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from levyfield import cli

    header = ["seed", "exit", *STATISTICS[args.experiment]]
    rows = sweep(cli, args.experiment, args.seeds, dict(args.settings))
    table = [header, *([f"{v:.6g}" if isinstance(v, float) else str(v) for v in row]
                       for row in rows)]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for row in table:
        print("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    if header[-1] == "failures":
        counted = [row for row in rows if isinstance(row[-1], int)]
        checks = sum(row[-2] for row in counted)
        print(f"4-SE failures: {sum(row[-1] for row in counted)} of {checks} checks, "
              f"{checks * FOUR_SE_MISS:.2g} expected by chance")
    return max(row[1] for row in rows)


if __name__ == "__main__":
    sys.exit(main())
