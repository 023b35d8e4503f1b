import os
import subprocess
import sys
from pathlib import Path

import pytest

from disclab import _blas

SRC = str(Path(_blas.__file__).resolve().parents[1])


def _run(code: str) -> str:
    """stdout of `code` run in a fresh interpreter that imports disclab from this tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return proc.stdout.strip()


def _counts() -> list[int]:
    """The calling thread's OpenBLAS thread count in each library, left as it was."""
    setters = _blas._setters()
    counts = [fn(1) for fn in setters]
    for fn, count in zip(setters, counts):
        fn(count)
    return counts


def test_finds_numpy_openblas_then_scipy_openblas():
    # numpy's and scipy's wheels each carry their own OpenBLAS; scipy's is
    # only looked for once scipy.linalg has been imported
    code = (
        "import sys, ctypes; from disclab import _blas; "
        "before = _blas._setters(); assert 'scipy' not in sys.modules; "
        "import scipy.linalg; after = _blas._setters(); "
        "print(len(before), len(after), len({ctypes.cast(fn, ctypes.c_void_p).value for fn in after}))"
    )
    assert _run(code) == "1 2 2"


class TestScope:
    @pytest.fixture(autouse=True)
    def two_threads(self):
        import scipy.linalg  # noqa: F401  (so the scope covers both libraries)

        setters = _blas._setters()
        assert len(setters) == 2
        saved = [fn(2) for fn in setters]
        yield
        for fn, count in zip(setters, saved):
            fn(count)

    def test_one_thread_inside_prior_count_after(self):
        assert _counts() == [2, 2]
        with _blas.single_thread():
            assert _counts() == [1, 1]
            with _blas.single_thread():
                assert _counts() == [1, 1]
            assert _counts() == [1, 1]
        assert _counts() == [2, 2]

    def test_restores_when_the_body_raises(self):
        with pytest.raises(ZeroDivisionError):
            with _blas.single_thread():
                assert _counts() == [1, 1]
                1 / 0
        assert _counts() == [2, 2]


def test_no_idle_spin_after_equilibrium_solve():
    # a threaded LU of this size leaves OpenBLAS's worker busy-waiting for
    # about 124 ms, which a 50 ms sleep would count as about 50 ms of CPU
    code = (
        "import math, time; from disclab import capacity; from disclab.geometry import Arc; "
        "mu = capacity.equilibrium_measure([Arc(2 * math.pi * j / 64, 0.005) for j in range(64)]); "
        "start = time.process_time(); time.sleep(0.05); "
        "print(len(mu.nodes), time.process_time() - start)"
    )
    nodes, cpu = _run(code).split()
    assert int(nodes) == 1536
    assert float(cpu) < 0.010
