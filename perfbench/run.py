"""Benchmark of the levyfield experiment runner, one workload per invocation.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload mc-charfn --seed 1 --seconds 25 --trace 0

It imports levyfield from ``src/`` of the checkout and calls
``levyfield.cli.run`` in a closed loop with one client for ``--seconds``
seconds on the workload's config (``workloads.json``), with ``--seed`` as
``master_seed``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs half the time untraced and half traced, and reports the
per-layer metrics of ``tracing.py``.  The lines printed first describe the
environment, the samples and each output check; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Without
levyfield sources in the checkout it exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = json.loads((HERE / "workloads.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One BLAS/OpenMP thread: the loop has one client, and numpy reads
    # these when it is first imported.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "levyfield" / "cli.py").is_file():
        print(f"error: no levyfield sources in {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench
    if Path(bench.cli.__file__).resolve().parent != src / "levyfield":
        print(f"error: levyfield was imported from {bench.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2

    result, lines = bench.run_benchmark(args.workload, WORKLOADS[args.workload], args.seed,
                                        args.seconds, bool(args.trace), ROOT)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
