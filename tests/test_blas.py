import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import equilibrium_oracle
from disclab import _blas, capacity
from disclab.geometry import Arc

SRC = str(Path(_blas.__file__).resolve().parents[1])


def _run(code: str) -> str:
    """stdout of `code` run in a fresh interpreter that imports disclab from this tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return proc.stdout.strip()


def _scipy_setter():
    """The thread-local setter of the OpenBLAS that scipy.linalg links (importing it)."""
    import scipy.linalg

    fn = ctypes.CDLL(scipy.linalg._flapack.__file__).openblas_set_num_threads_local
    fn.argtypes = [ctypes.c_int]
    fn.restype = ctypes.c_int
    return fn


def _counts() -> list[int]:
    """The calling thread's OpenBLAS thread count in numpy's and scipy's libraries, left as it was."""
    setters = [_blas._setter(), _scipy_setter()]
    counts = [fn(1) for fn in setters]
    for fn, count in zip(setters, counts):
        fn(count)
    return counts


def test_finds_numpy_openblas_only():
    # numpy's and scipy's wheels each carry their own OpenBLAS; disclab solves
    # in numpy's alone, so scipy's is never looked for, even once loaded
    code = (
        "import sys, ctypes; from disclab import _blas; "
        "before = _blas._setter(); assert before is not None and 'scipy' not in sys.modules; "
        "import scipy.linalg; "
        "theirs = ctypes.CDLL(scipy.linalg._flapack.__file__).openblas_set_num_threads_local; "
        "address = lambda fn: ctypes.cast(fn, ctypes.c_void_p).value; "
        "print(_blas._setter() is before, address(before) != address(theirs))"
    )
    assert _run(code) == "True True"


class TestScope:
    @pytest.fixture(autouse=True)
    def two_threads(self):
        setters = [_blas._setter(), _scipy_setter()]
        saved = [fn(2) for fn in setters]
        yield
        for fn, count in zip(setters, saved):
            fn(count)

    def test_one_thread_inside_prior_count_after(self):
        # only numpy's OpenBLAS is set: scipy's, loaded here, keeps its count
        assert _counts() == [2, 2]
        with _blas.single_thread():
            assert _counts() == [1, 2]
            with _blas.single_thread():
                assert _counts() == [1, 2]
            assert _counts() == [1, 2]
        assert _counts() == [2, 2]

    def test_restores_when_the_body_raises(self):
        with pytest.raises(ZeroDivisionError):
            with _blas.single_thread():
                assert _counts() == [1, 2]
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
            monkeypatch.setattr(_blas, "_routine", lambda name: None)
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
        monkeypatch.setattr(_blas, "_routine", lambda name: None)
        mu = capacity.equilibrium_measure(arcs)
        nodes, weights, energy, _ = equilibrium_oracle.equilibrium_measure(arcs)
        assert np.array_equal(mu.nodes, nodes)
        assert mu.energy == pytest.approx(energy, rel=1e-12)
        assert np.abs(mu.weights - weights).max() <= 1e-12


def _upper(a: np.ndarray) -> np.ndarray:
    """a's upper triangle in a Fortran-ordered copy, NaN below it (so a read of it shows)."""
    held = np.array(a, dtype=np.float64, order="F")
    held[np.tril_indices(len(a), -1)] = np.nan
    return held


class TestSolveDefinite:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 300), st.integers(0, 2**32 - 1), st.sampled_from([1, 2]))
    def test_matches_scipy_cholesky(self, n, seed, nrhs):
        # sizes from 128 rows up are where OpenBLAS would hand the work to its threads
        import scipy.linalg

        a = _symmetric(n, seed, "definite")
        rng = np.random.default_rng(seed + 1)
        b = rng.standard_normal(n) if nrhs == 1 else np.asfortranarray(rng.standard_normal((n, 2)))
        want = scipy.linalg.cho_solve(scipy.linalg.cho_factor(a), b)
        x = _blas.solve_definite(_upper(a), b)
        assert x is b
        assert np.array_equal(x, want)

    @pytest.mark.parametrize("n", [2, 65, 200])
    def test_indefinite_raises(self, n):
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            _blas.solve_definite(_upper(_symmetric(n, n, "indefinite")), np.ones(n))

    def test_rejects_wrong_layout(self):
        a = _symmetric(3, 0, "definite")
        with pytest.raises(ValueError):
            _blas.solve_definite(np.ascontiguousarray(a), np.ones(3))
        with pytest.raises(ValueError):
            _blas.solve_definite(np.asfortranarray(a, dtype=np.float32), np.ones(3))
        with pytest.raises(ValueError):
            _blas.solve_definite(np.asfortranarray(a), np.ones((3, 2)))
        with pytest.raises(ValueError):
            _blas.solve_definite(np.asfortranarray(a), np.ones(4))
        read_only = np.asfortranarray(a)
        read_only.flags.writeable = False
        with pytest.raises(ValueError):
            _blas.solve_definite(read_only, np.ones(3))

    @pytest.mark.parametrize("nrhs", [1, 2])
    @pytest.mark.parametrize("n", [0, 1, 65, 200])
    def test_fallback_without_the_symbol(self, monkeypatch, n, nrhs):
        # where numpy's LAPACK lacks a routine, scipy's dpotrf and dpotrs run
        a = _symmetric(n, n, "definite")
        rng = np.random.default_rng(n)
        b = rng.standard_normal(n) if nrhs == 1 else np.asfortranarray(rng.standard_normal((n, 2)))
        want = _blas.solve_definite(_upper(a), b.copy(order="F"))
        monkeypatch.setattr(_blas, "_routine", lambda name: None)
        assert np.array_equal(_blas.solve_definite(_upper(a), b), want)
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            _blas.solve_definite(_upper(np.diag([1.0, -1.0, 1.0])), np.ones(3))


def _band(n: int, kd: int, seed: int, definite: bool = True) -> np.ndarray:
    """LAPACK's lower band storage of a random symmetric band matrix, each diagonal
    entry one more than the row's off-diagonal absolute sum, so positive definite;
    not definite, the second half of the diagonal is negated, so indefinite."""
    rng = np.random.default_rng(seed)
    ab = np.zeros((kd + 1, n), order="F")
    for r in range(1, kd + 1):
        ab[r, : n - r] = rng.standard_normal(n - r)
    off = np.abs(ab[1:])
    ab[0] = off.sum(axis=0) + 1.0
    for r in range(1, kd + 1):
        ab[0, r:] += off[r - 1, : n - r]
    if not definite:
        ab[0, n // 2 :] *= -1.0
    return ab


class TestSolveBanded:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 300), st.integers(0, 40), st.integers(0, 2**32 - 1))
    def test_matches_scipy_banded_cholesky(self, n, kd, seed):
        import scipy.linalg

        kd = min(kd, max(n - 1, 0))
        ab = _band(n, kd, seed)
        b = np.random.default_rng(seed + 1).standard_normal(n)
        # solveh_banded factors with dpbsv at every bandwidth but 1, where it runs dptsv
        if kd == 1:
            want = scipy.linalg.lapack.dpbsv(ab.copy(order="F"), b, lower=True)[1]
        else:
            want = scipy.linalg.solveh_banded(ab, b, lower=True)
        x = _blas.solve_banded(ab.copy(order="F"), b.copy())
        assert np.array_equal(x, want)

    @pytest.mark.parametrize("n, kd", [(2, 0), (40, 3), (200, 12)])
    def test_indefinite_raises(self, n, kd):
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            _blas.solve_banded(_band(n, kd, n, definite=False), np.ones(n))

    def test_rejects_wrong_layout(self):
        ab = _band(5, 2, 0)
        with pytest.raises(ValueError):
            _blas.solve_banded(np.ascontiguousarray(ab), np.ones(5))
        with pytest.raises(ValueError):
            _blas.solve_banded(np.asfortranarray(ab, dtype=np.float32), np.ones(5))
        with pytest.raises(ValueError):
            _blas.solve_banded(ab, np.ones((5, 1)))

    @pytest.mark.parametrize("n, kd", [(0, 0), (1, 0), (40, 1), (200, 12)])
    def test_fallback_without_the_symbol(self, monkeypatch, n, kd):
        # where numpy's LAPACK lacks dpbsv, scipy's runs
        b = np.random.default_rng(n).standard_normal(n)
        want = _blas.solve_banded(_band(n, kd, n), b.copy())
        monkeypatch.setattr(_blas, "_routine", lambda name: None)
        assert np.array_equal(_blas.solve_banded(_band(n, kd, n), b), want)
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            _blas.solve_banded(_band(3, 1, 0, definite=False), np.ones(3))
