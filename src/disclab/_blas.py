"""Dense factorisations on one BLAS thread, and the symmetric solve.

OpenBLAS hands a solve of 128 rows or more to its worker threads, and
after the call each worker busy-waits about 120 ms for more work before
it sleeps.  At the sizes disclab factors the second thread buys little,
so a loop of solves keeps it spinning for nothing.  single_thread() sets
the calling thread's OpenBLAS thread count to 1 for the duration of a
block, in every OpenBLAS that numpy.linalg and (once it is imported)
scipy.linalg have loaded, and puts the old counts back on exit.  The
setting is thread-local, so the host's own BLAS setting is left as it
was.  Where no OpenBLAS is found it does nothing.

solve_symmetric() solves a symmetric system given by one triangle with
LAPACK's rook-pivoted Bunch-Kaufman LDL^T factorisation (dsysv_rook;
Ashcraft, Grimes & Lewis, SIAM J. Matrix Anal. Appl. 20, 1998), called
in numpy's own OpenBLAS, so scipy is not loaded.  It needs half the
multiply-adds of an LU, serves definite and indefinite matrices alike,
and factors in place: the other triangle keeps the matrix.  Where that
OpenBLAS lacks the routine, np.linalg.solve on a symmetric copy runs
instead.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
import sys

import numpy as np

_NUMPY_LAPACK = "numpy.linalg._umath_linalg"

# (package whose import loads the library, extension module linked against it)
_LINKED = (("numpy.linalg", _NUMPY_LAPACK), ("scipy.linalg", "scipy.linalg._flapack"))


@functools.cache
def _library(module: str):
    """The shared library of an extension module, or None where it cannot be loaded.

    A symbol looked up through this handle is searched in the library's
    dependencies too, so numpy's and scipy's copies of OpenBLAS are told
    apart.
    """
    try:
        return ctypes.CDLL(importlib.import_module(module).__file__)
    except (ImportError, OSError):
        return None


@functools.cache
def _setter(module: str):
    """The thread-local setter of the OpenBLAS the module links, or None."""
    fn = getattr(_library(module), "openblas_set_num_threads_local", None)
    if fn is None:
        return None
    fn.argtypes = [ctypes.c_int]
    fn.restype = ctypes.c_int
    return fn


def _setters() -> list:
    """The setters of the OpenBLAS libraries loaded so far; never imports scipy."""
    found = (_setter(module) for package, module in _LINKED if package in sys.modules)
    return [fn for fn in found if fn is not None]


@contextlib.contextmanager
def single_thread():
    """Run the block with one OpenBLAS thread in the calling thread."""
    setters = _setters()
    saved = [fn(1) for fn in setters]
    try:
        yield
    finally:
        for fn, count in zip(reversed(setters), reversed(saved)):
            fn(count)


_INT = ctypes.POINTER(ctypes.c_int64)
_PTR = ctypes.c_void_p


@functools.cache
def _sysv_rook():
    """(dsysv_rook of numpy's OpenBLAS, workspace entries per row), or None.

    numpy's wheels carry OpenBLAS with 64-bit integers and a scipy_
    prefix on its symbols.  The optimal workspace is n times LAPACK's
    block size, asked for once here, so a solve makes one call.
    """
    fn = getattr(_library(_NUMPY_LAPACK), "scipy_dsysv_rook_64_", None)
    if fn is None:
        return None
    # uplo, n, nrhs, a, lda, ipiv, b, ldb, work, lwork, info, and the
    # length of uplo that Fortran passes after the arguments
    fn.argtypes = [ctypes.c_char_p, _INT, _INT, _PTR, _INT, _PTR, _PTR, _INT, _PTR, _INT, _INT, ctypes.c_size_t]
    fn.restype = None
    size = np.zeros(1)
    _sysv(fn, b"L", np.zeros((1, 1)), np.zeros(1), size, -1)
    return fn, max(1, int(size[0]))


def _sysv(fn, uplo: bytes, a: np.ndarray, b: np.ndarray, work: np.ndarray, lwork: int) -> int:
    """One dsysv_rook call on len(b) rows and one right-hand side; returns LAPACK's info."""
    ipiv = np.empty(len(b), dtype=np.int64)
    n, ld = ctypes.c_int64(len(b)), ctypes.c_int64(max(1, len(b)))
    nrhs, size, info = ctypes.c_int64(1), ctypes.c_int64(lwork), ctypes.c_int64()
    fn(uplo, n, nrhs, a.ctypes.data, ld, ipiv.ctypes.data, b.ctypes.data, ld, work.ctypes.data, size, info, 1)
    return info.value


def solve_symmetric(a: np.ndarray, b: np.ndarray, lower: bool) -> np.ndarray:
    """x with A x = b for the symmetric A held in one triangle of a.

    a is a C-ordered float64 square array whose lower (or, with lower
    False, upper) triangle, diagonal included, is A's.  That triangle
    is overwritten with the LDL^T factors and b with x, which is
    returned; the other strict triangle is left bit for bit as it was.
    (Without the routine both are left as they were and x is new.)
    Raises np.linalg.LinAlgError where D is exactly singular.
    """
    n = len(b)
    if a.shape != (n, n) or not all(v.dtype == np.float64 and v.flags.carray for v in (a, b)):
        raise ValueError("need a writeable C-ordered float64 n x n array and n-vector")
    kernel = _sysv_rook()
    if kernel is None:
        full = np.tril(a) + np.tril(a, -1).T if lower else np.triu(a) + np.triu(a, 1).T
        return np.linalg.solve(full, b)
    fn, per_row = kernel
    work = np.empty(max(1, n * per_row))
    # read column-major, a C-ordered array is its transpose: LAPACK's upper
    # triangle is the rows' lower one
    info = _sysv(fn, b"U" if lower else b"L", a, b, work, len(work))
    if info > 0:
        raise np.linalg.LinAlgError(f"Singular matrix: D[{info - 1}] is exactly zero")
    if info < 0:
        raise ValueError(f"dsysv_rook rejected argument {-info}")
    return b
