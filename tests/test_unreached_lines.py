"""The helpers of ``tools/unreached_lines.py``, the CI guard that lists every
library line no experiment and no acceptance test runs, on a small module."""

import importlib.util
import sys
import threading
from pathlib import Path

import pytest

# the guard keys lines by co_qualname, which code objects carry from Python 3.11
pytestmark = pytest.mark.skipif(sys.version_info < (3, 11), reason="needs co_qualname")

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("unreached_lines",
                                              ROOT / "tools" / "unreached_lines.py")
guard = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(guard)

SOURCE = '''\
LIMIT = 3


def f(x):
    if x > LIMIT:
        raise ValueError(
            "too large")
    y = [i * 2
         for i in range(x)]
    return sum(y)


class K:
    size = 2

    def g(self):
        return self.size
'''


def test_executable_lines_are_function_bodies_without_raise_statements(tmp_path):
    path = tmp_path / "lib.py"
    path.write_text(SOURCE)
    lines = guard.executable_lines(path)
    # module and class bodies run on import; both lines of the raise are left out
    assert {line for _, line in lines} == {4, 5, 8, 9, 10, 16, 17}
    assert {function for function, _ in lines} == {"f", "f.<locals>.<listcomp>", "K.g"}


def test_tracer_reaches_the_lines_a_call_runs_and_only_in_its_files(tmp_path):
    path = tmp_path / "lib.py"
    path.write_text(SOURCE)
    namespace = {}
    exec(compile(SOURCE, str(path), "exec"), namespace)
    with guard.LineTracer({str(path)}) as tracer:
        assert namespace["f"](2) == 2
        assert sys.gettrace() is not None
    assert sys.gettrace() is None
    reached = {(function, line) for _, function, line in tracer.reached}
    # the call reaches f's first line, and every line of a statement it runs
    assert reached == {("f", 4), ("f", 5), ("f", 8), ("f", 9), ("f", 10),
                       ("f.<locals>.<listcomp>", 8), ("f.<locals>.<listcomp>", 9)}
    assert guard.executable_lines(path) - reached == {("K.g", 16), ("K.g", 17)}


def test_tracer_reaches_the_lines_another_thread_runs(tmp_path):
    path = tmp_path / "lib.py"
    path.write_text(SOURCE)
    namespace = {}
    exec(compile(SOURCE, str(path), "exec"), namespace)
    with guard.LineTracer({str(path)}) as tracer:
        helper = threading.Thread(target=namespace["K"]().g)
        helper.start()
        helper.join()
    assert threading.gettrace() is None
    reached = {(function, line) for _, function, line in tracer.reached}
    assert reached == {("K.g", 16), ("K.g", 17)}
