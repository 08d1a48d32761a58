"""Smoke test of the benchmark at tiny sizes.

Runs every workload untraced and traced, checks that its outputs pass and
that it reports exactly the metrics BENCHMARK.json names, and that tracing
leaves every levyfield module attribute as it found it.  From the checkout
root: ``python3 -m pytest perfbench/test_smoke.py``.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bench  # noqa: E402
import levyfield  # noqa: E402
import run  # noqa: E402
from tracing import package_modules  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {
    "mc-charfn": {"mc_paths": 200},
    "ou-jumps": {"mc_paths": 100},
    "burgers-residual": {"T": 0.01},
    "circle-conv": {"thetas": [0.0, 2.0], "grids": [32, 64]},
}
LAYER_METRIC = {"_rng": "rng", "subordinator": "subordinator", "noise": "noise",
                "spectral": "spectral", "burgers": "burgers", "regularity": "regularity"}


def namespaces() -> dict:
    return {module.__name__: dict(vars(module)) for module in package_modules(levyfield)}


def test_workloads_match_benchmark_json():
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("workload", sorted(TINY))
def test_workload_at_tiny_size(workload):
    spec = run.WORKLOADS[workload]
    before = namespaces()
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result, lines = bench.run_benchmark(workload, spec, 1, 0, trace, run.ROOT, TINY[workload])
        assert result["correct"] and result["failed"] == 0, lines
        assert result["attempted"] >= 3
        assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[kind]}
    layers = result["metrics"]
    for layer in spec["exercises"]:
        if layer in LAYER_METRIC:
            assert layers[f"{LAYER_METRIC[layer]}.calls"]["value"] > 0, layer
    for layer in spec["bypasses"]:
        if layer in LAYER_METRIC:
            assert layers[f"{LAYER_METRIC[layer]}.calls"]["value"] == 0, layer

    after = namespaces()
    assert after.keys() == before.keys()
    for module, attrs in before.items():
        assert after[module].keys() == attrs.keys(), module
        moved = [attr for attr, obj in attrs.items() if after[module][attr] is not obj]
        assert not moved, f"{module} still has traced {moved}"
