import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import equilibrium_oracle
from disclab import _blas, capacity
from disclab.geometry import Arc

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
    # a threaded factorisation of this size leaves OpenBLAS's worker busy-waiting for
    # about 124 ms, which a 50 ms sleep would count as about 50 ms of CPU.  The worker
    # busy-waits as long once more when numpy's import starts it, so the solve waits
    # 0.25 s for that to end: only a spin the solve leaves behind is counted
    code = (
        "import math, time; from disclab import capacity; from disclab.geometry import Arc; "
        "time.sleep(0.25); "
        "mu = capacity.equilibrium_measure([Arc(2 * math.pi * j / 64, 0.005) for j in range(64)]); "
        "start = time.process_time(); time.sleep(0.05); "
        "print(len(mu.nodes), time.process_time() - start)"
    )
    nodes, cpu = _run(code).split()
    assert int(nodes) == 1536
    assert float(cpu) < 0.010


def _symmetric(n: int, seed: int, kind: str) -> np.ndarray:
    g = np.random.default_rng(seed).standard_normal((n, n))
    if kind == "definite":
        return g @ g.T / n + 0.1 * np.eye(n)
    a = g + g.T
    if kind == "zero diagonal":  # every pivot is a 2 x 2 block or a swap
        np.fill_diagonal(a, 0.0)
    return a


class TestSolveSymmetric:
    @given(
        st.integers(1, 200),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["definite", "indefinite", "zero diagonal"]),
        st.booleans(),
    )
    def test_matches_lu_solve(self, n, seed, kind, lower):
        assume(n > 1 or kind != "zero diagonal")
        a = _symmetric(n, seed, kind)
        b = np.random.default_rng(seed + 1).standard_normal(n)
        x = _blas.solve_symmetric(a.copy(), b.copy(), lower)
        reference = np.linalg.solve(a, b)
        scale = np.abs(a).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max()
        assert np.abs(a @ x - b).max() <= 1e-12 * scale
        assert np.abs(x - reference).max() <= 1e-12 * np.linalg.cond(a) * np.abs(reference).max()

    @pytest.mark.parametrize("lower", [True, False])
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 200])
    def test_other_triangle_untouched(self, n, lower):
        a = _symmetric(n, n, "indefinite")
        other = np.triu_indices(n, 1) if lower else np.tril_indices(n, -1)
        before = a[other]
        b = np.ones(n)
        x = _blas.solve_symmetric(a, b, lower)
        assert x is b
        assert np.array_equal(a[other], before)

    @pytest.mark.parametrize("lower", [True, False])
    @pytest.mark.parametrize("symbol", ["found", "missing"])
    def test_reads_only_its_triangle(self, monkeypatch, symbol, lower):
        if symbol == "missing":
            monkeypatch.setattr(_blas, "_sysv_rook", lambda: None)
        a = _symmetric(65, 3, "indefinite")
        held = a.copy()
        held[np.triu_indices(65, 1) if lower else np.tril_indices(65, -1)] = np.nan
        x = _blas.solve_symmetric(held, np.ones(65), lower)
        assert np.abs(a @ x - 1.0).max() <= 1e-12 * (np.abs(a).sum(axis=1).max() * np.abs(x).max() + 1.0)

    @pytest.mark.parametrize("lower", [True, False])
    @pytest.mark.parametrize("a", [np.zeros((3, 3)), np.ones((2, 2))], ids=["zero", "rank one"])
    def test_exactly_singular_raises(self, a, lower):
        with pytest.raises(np.linalg.LinAlgError):
            _blas.solve_symmetric(a.copy(), np.ones(len(a)), lower)

    def test_rejects_wrong_layout(self):
        with pytest.raises(ValueError):
            _blas.solve_symmetric(np.asfortranarray(np.eye(3) + np.tri(3)), np.ones(3), True)
        with pytest.raises(ValueError):
            _blas.solve_symmetric(np.eye(3, dtype=np.float32), np.ones(3), True)

    @pytest.mark.parametrize(
        "arcs",
        [
            [Arc(0.0, 1.0)],
            [Arc(5.073419076239693, 0.5146155028463495), Arc(2.562352128421005, 0.8214097941892161)],
            [Arc(2.0 * np.pi * j / 16, 0.01) for j in range(16)],
        ],
        ids=["full circle", "second sweep", "16 arcs"],
    )
    def test_fallback_without_the_symbol(self, monkeypatch, arcs):
        # where numpy's LAPACK has no dsysv_rook, np.linalg.solve on a copy runs
        monkeypatch.setattr(_blas, "_sysv_rook", lambda: None)
        mu = capacity.equilibrium_measure(arcs)
        nodes, weights, energy, _ = equilibrium_oracle.equilibrium_measure(arcs)
        assert np.array_equal(mu.nodes, nodes)
        assert mu.energy == pytest.approx(energy, rel=1e-12)
        assert np.abs(mu.weights - weights).max() <= 1e-12
