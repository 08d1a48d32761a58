"""Line-level guard: every line of ``src/levyfield`` that no experiment and no
acceptance test executes is listed in ``ALLOWED`` with its reason.

Under a ``sys.settrace`` line tracer it runs ``levyfield list-experiments``,
every experiment at its defaults and master seed 0, the ``circle`` grids
config that CI runs, and ``tests/test_acceptance.py``.  The executable
lines are those of the library's function bodies (module and class bodies
run on import); the lines of a ``raise`` statement are left out, since
the refusals are what unit tests reach.  An unreached line is keyed by its
module, its function's qualified name and its stripped source text, not by
its number, so an edit elsewhere in the file does not move the list; a key
that several unreached lines share is listed once for each.

It exits 1 and prints each offender when an unreached line is not in
``ALLOWED`` (a branch only unit tests reach), or when a line in ``ALLOWED``
is now reached or no longer in the source (a stale allowance); else 0.
It needs Python 3.11 or later (code objects carry ``co_qualname``).  Run it
from anywhere (about 12 s on 2 cores):

    python tools/unreached_lines.py
"""

from __future__ import annotations

import ast
import inspect
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "levyfield"

# reason -> the (module, function, stripped line) of each line that nothing
# above reaches; the item numbers are those of ROADMAP.md
ALLOWED: dict[str, list[tuple[str, str, str]]] = {
    "cli's error paths: refusals (exit 2), numeric failures (exit 3) and the "
    "--seed override of the console script, which tests/test_cli.py, "
    "tests/test_config_rule.py and CI's exit-2 steps reach": [
        ('cli', '_report_json', 'except ValueError as exc:'),
        ('cli', 'main', 'config["master_seed"] = args.seed'),
        ('cli', 'main', 'except (OSError, ValueError) as exc:'),
        ('cli', 'main', 'print(f"config error: {exc}", file=sys.stderr)'),
        ('cli', 'main', 'return 2'),
        ('cli', 'run', '"error": str(exc)}'),
        ('cli', 'run', '(out / "report.json").write_text(json.dumps(report, indent=2, default=str))'),
        ('cli', 'run', 'except (StepSizeError, QuadratureError, ArithmeticError, RuntimeError, MemoryError) as exc:'),
        ('cli', 'run', 'except (ValueError, TypeError) as exc:'),
        ('cli', 'run', 'file=sys.stderr)'),
        ('cli', 'run', 'file=sys.stderr)'),
        ('cli', 'run', 'out.mkdir(parents=True, exist_ok=True)'),
        ('cli', 'run', 'print("error: config is missing required field \'master_seed\'", file=sys.stderr)'),
        ('cli', 'run', 'print(f"config error: {exc}", file=sys.stderr)'),
        ('cli', 'run', 'print(f"error: unknown config keys {unknown} for {kind}; accepted: {sorted(defaults)}",'),
        ('cli', 'run', 'print(f"error: unknown experiment {kind!r}; choices: {sorted(EXPERIMENTS)}",'),
        ('cli', 'run', 'print(f"numeric failure: {exc}", file=sys.stderr)'),
        ('cli', 'run', 'report = {"experiment": kind, "config": config, "status": "numeric-failure",'),
        ('cli', 'run', 'return 2'),
        ('cli', 'run', 'return 2'),
        ('cli', 'run', 'return 2'),
        ('cli', 'run', 'return 2'),
        ('cli', 'run', 'return 3'),
    ],
    "open items plan to call it: noise.jump_rate (items 3 and 11), psi_eps of a "
    "truncated law in laplace_exponent (items 7 and 11), "
    "convolution_variances_batch and the finite_jumps regime of "
    "regularity_exponent_bound (item 2), and the grid-from-zero branch of "
    "sample_trajectory (item 16)": [
        ('noise', 'jump_rate', 'beta = sub.beta'),
        ('noise', 'jump_rate', 'def integrand(u):'),
        ('noise', 'jump_rate', 'def jump_rate(spec: LevyNoiseSpec, threshold: float,'),
        ('noise', 'jump_rate', 'edges = np.geomspace(lo, hi, math.ceil(math.log10(hi / lo)) + 1)'),
        ('noise', 'jump_rate', 'from .spectral import CHUNK_TERMS, _panel_integral'),
        ('noise', 'jump_rate', 'gamma = math.gamma(1.0 - beta)'),
        ('noise', 'jump_rate', 'head = 0.5 * two_a.sum() * lo ** (1.0 - beta) / (1.0 - beta)'),
        ('noise', 'jump_rate', 'if not threshold > 0:'),
        ('noise', 'jump_rate', 'if sub.kind == "drift_only":'),
        ('noise', 'jump_rate', 'if sub.kind == "truncated_stable":'),
        ('noise', 'jump_rate', 'if u_space.exponent_q != 2 or u_space.dim != n:'),
        ('noise', 'jump_rate', 'lo, hi = 2e-12 / two_a.sum(), 2e20 / two_a.min()'),
        ('noise', 'jump_rate', 'mean_x_beta = beta / gamma * (head + _panel_integral(integrand, edges, RATE_RTOL) + tail)'),
        ('noise', 'jump_rate', 'n = spec.wiener.truncation_N'),
        ('noise', 'jump_rate', 'return 0.0'),
        ('noise', 'jump_rate', 'return threshold ** (-2.0 * beta) * mean_x_beta / gamma'),
        ('noise', 'jump_rate', 'rows = max(1, CHUNK_TERMS // n)'),
        ('noise', 'jump_rate', 'sub = spec.subordinator'),
        ('noise', 'jump_rate', 'tail = hi ** -beta / beta'),
        ('noise', 'jump_rate', 'two_a = 2.0 * (u_space.weights / spec.wiener.hilbert_weights) ** 2'),
        ('noise', 'jump_rate.<locals>.integrand', '.sum(axis=1) for i in range(0, u.size, rows)])'),
        ('noise', 'jump_rate.<locals>.integrand', 'def integrand(u):'),
        ('noise', 'jump_rate.<locals>.integrand', 'log_prod = np.concatenate([-0.5 * np.log1p(np.multiply.outer(u[i:i + rows], two_a))'),
        ('noise', 'jump_rate.<locals>.integrand', 'return -np.expm1(log_prod) * u ** (-1.0 - beta)'),
        ('noise', 'jump_rate.<locals>.integrand.<locals>.<listcomp>', '.sum(axis=1) for i in range(0, u.size, rows)])'),
        ('noise', 'jump_rate.<locals>.integrand.<locals>.<listcomp>', 'log_prod = np.concatenate([-0.5 * np.log1p(np.multiply.outer(u[i:i + rows], two_a))'),
        ('spectral', 'convolution_variances_batch', 'batch.times, batch.sizes[:, None], starts[:, 0], counts[:, 0])'),
        ('spectral', 'convolution_variances_batch', 'def convolution_variances_batch(op: SpectralOperator, batch: PathBatch, t: float) -> np.ndarray:'),
        ('spectral', 'convolution_variances_batch', 'ends = np.full(batch.n_paths, float(t))'),
        ('spectral', 'convolution_variances_batch', 'if not 0 <= t <= batch.horizon_T:'),
        ('spectral', 'convolution_variances_batch', 'return cell_moments(op.lambdas, 2.0, batch.drift_slope, np.zeros(batch.n_paths), ends,'),
        ('spectral', 'convolution_variances_batch', 'starts, counts = batch.cells((0.0, t))'),
        ('spectral', 'regularity_exponent_bound', 'delta_star = g - d / 2.0'),
        ('spectral', 'regularity_exponent_bound', 'regime = "finite_jumps"'),
        ('spectral', 'sample_trajectory', 'x = np.concatenate((np.zeros((n_paths, 1, lam.size)), x), axis=1)'),
        ('subordinator', 'laplace_exponent', '+ r ** beta * gammaincc(1.0 - beta, r * eps))'),
        ('subordinator', 'laplace_exponent', 'beta, eps = spec.beta, spec.cutoff'),
        ('subordinator', 'laplace_exponent', 'from scipy.special import gammaincc'),
        ('subordinator', 'laplace_exponent', 'psi = psi + (-np.expm1(-r * eps) * eps ** -beta / math.gamma(1.0 - beta)'),
    ],
    "defensive: _panel_integral's panel splits, QuadratureError, an overflowing a "
    "priori constant K, the inconclusive blowup_probe branch and its cli verdict, "
    "charfn_oracle at t = 0 and jump_measure of a pure drift": [
        ('burgers', 'AprioriConstants.from_data', 'except OverflowError:'),
        ('cli', '_run_blowup', 'ok = False'),
        ('regularity', 'blowup_probe', 'return {"conclusive": False, "reason": "no jump reached the threshold"}'),
        ('spectral', '_panel_integral', 'edges = np.insert(edges, np.flatnonzero(wide) + 1, mid[wide])'),
        ('spectral', '_panel_integral', 'wide = gaps >= gaps.mean()'),
        ('spectral', 'charfn_oracle', 'return 1.0'),
        ('subordinator', 'QuadratureError.__init__', 'def __init__(self, message, achieved_tol):'),
        ('subordinator', 'QuadratureError.__init__', 'self.achieved_tol = achieved_tol'),
        ('subordinator', 'QuadratureError.__init__', 'super().__init__(message)'),
        ('subordinator', 'SubordinatorSpec.jump_measure', 'return None'),
    ],
    "the tests' reference: PathBatch.__getitem__ (tests compare a batch with "
    "its slices)": [
        ('subordinator', 'PathBatch.__getitem__', 'a, b = self.offsets[lo], self.offsets[hi]'),
        ('subordinator', 'PathBatch.__getitem__', 'def __getitem__(self, paths: slice) -> "PathBatch":'),
        ('subordinator', 'PathBatch.__getitem__', 'hi = max(lo, hi)'),
        ('subordinator', 'PathBatch.__getitem__', 'if step != 1:'),
        ('subordinator', 'PathBatch.__getitem__', 'lo, hi, step = paths.indices(self.n_paths)'),
        ('subordinator', 'PathBatch.__getitem__', 'offsets=self.offsets[lo:hi + 1] - a, times=self.times[a:b],'),
        ('subordinator', 'PathBatch.__getitem__', 'return PathBatch(horizon_T=self.horizon_T, drift_slope=self.drift_slope,'),
        ('subordinator', 'PathBatch.__getitem__', 'sizes=self.sizes[a:b])'),
    ],
}


def executable_lines(path: Path) -> set[tuple[str, int]]:
    """(function, line) of every line with bytecode in a function body of
    the source file ``path``, but the lines of its ``raise`` statements."""
    source = path.read_text()
    raises = {line for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise)
              for line in range(node.lineno, node.end_lineno + 1)}
    found, codes = set(), [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        codes += [c for c in code.co_consts if inspect.iscode(c)]
        if code.co_flags & inspect.CO_OPTIMIZED:
            found |= {(code.co_qualname, line) for _, _, line in code.co_lines()
                      if line is not None and line not in raises}
    return found


class LineTracer:
    """Records (file, function, line) of each line run in ``files`` while active;
    a call counts as reaching its function's first line."""

    def __init__(self, files: set[str]):
        self.files, self.reached = files, set()

    def _local(self, frame, event, arg):
        if event == "line":
            self.reached.add((frame.f_code.co_filename, frame.f_code.co_qualname, frame.f_lineno))
        return self._local

    def _global(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename not in self.files:
            return None
        self.reached.add((code.co_filename, code.co_qualname, code.co_firstlineno))
        return self._local

    def __enter__(self):
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)


def run_everything(cli) -> None:
    """What CI runs of the library: every experiment's defaults at master
    seed 0, the circle grids config and the acceptance tests."""
    import pytest

    with tempfile.TemporaryDirectory() as tmp:
        configs = [{"experiment": name, "master_seed": 0} for name in cli.EXPERIMENTS]
        configs.append({"experiment": "circle", "master_seed": 0, "grids": [100, 128, 3, 5000]})
        assert cli.main(["list-experiments"]) == 0
        for i, config in enumerate(configs):
            path = Path(tmp) / f"{i}.json"
            path.write_text(json.dumps(config))
            if cli.main(["run", "--config", str(path), "--out", str(Path(tmp) / str(i))]) != 0:
                sys.exit(f"{config} did not pass")
    acceptance = ROOT / "tests" / "test_acceptance.py"
    if pytest.main(["-q", "-p", "no:cacheprovider", str(acceptance)]) != 0:
        sys.exit("tests/test_acceptance.py did not pass")


def main() -> int:
    sys.path.insert(0, str(SRC.parent))
    paths = {str(p): p for p in sorted(SRC.glob("*.py"))}
    with LineTracer(set(paths)) as tracer:
        from levyfield import cli   # traced: cli's decorators fill its table on import

        if Path(cli.__file__).resolve().parent != SRC:
            sys.exit(f"levyfield was imported from {cli.__file__}, not {SRC}")
        run_everything(cli)
    unreached, present = Counter(), set()
    for name, path in paths.items():
        lines = path.read_text().splitlines()
        for function, line in executable_lines(path):
            key = (path.stem, function, lines[line - 1].strip())
            present.add(key)
            unreached[key] += (name, function, line) not in tracer.reached
    allowed = Counter(key for keys in ALLOWED.values() for key in keys)
    new, stale = unreached - allowed, allowed - unreached
    reached = Counter({key: n for key, n in stale.items() if key in present})
    for title, keys in (("unreached and not allowed", new), ("allowed but reached", reached),
                        ("allowed but not in the source", stale - reached)):
        if keys:
            print(f"{title}:")
            print("".join(f"    {key!r},\n" for key in sorted(keys.elements())))
    print(f"{unreached.total()} unreached lines, {allowed.total()} allowed")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
