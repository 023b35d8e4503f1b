"""Dense and banded factorisations in numpy's own LAPACK, on one BLAS thread.

numpy's wheels carry OpenBLAS, LAPACK included, so disclab's solves call
it through ctypes and scipy is not loaded:

* solve_symmetric() solves a symmetric system given by one triangle with
  LAPACK's rook-pivoted Bunch-Kaufman LDL^T factorisation (dsysv_rook;
  Ashcraft, Grimes & Lewis, SIAM J. Matrix Anal. Appl. 20, 1998).  It
  needs half the multiply-adds of an LU, serves definite and indefinite
  matrices alike, and factors in place: the other triangle keeps the
  matrix.  Where numpy's OpenBLAS lacks the routine, np.linalg.solve on
  a symmetric copy runs instead.
* solve_definite() solves a symmetric positive definite system by its
  Cholesky factorisation (dpotrf, then dpotrs), and solve_banded() a
  banded one by the banded Cholesky factorisation (dpbsv).  Where
  numpy's OpenBLAS lacks a routine, the same routine runs from scipy's
  LAPACK, imported at that point.

Every call checks the dtype, shape and memory order of each array before
it hands LAPACK a pointer, and raises ValueError on a mismatch.

OpenBLAS hands a solve of 128 rows or more to its worker threads, and
after the call each worker busy-waits about 120 ms for more work before
it sleeps.  At the sizes disclab factors the second thread buys little,
so a loop of solves keeps it spinning for nothing.  single_thread() sets
the calling thread's OpenBLAS thread count to 1 for the duration of a
block, in the OpenBLAS that numpy links, and puts the old count back on
exit.  The setting is thread-local, so the host's own BLAS setting is
left as it was.  Where no OpenBLAS is found it does nothing, and a
routine that falls back to scipy runs with scipy's own thread count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib

import numpy as np

_NUMPY_LAPACK = "numpy.linalg._umath_linalg"

# Each routine's arguments before info, as numpy's OpenBLAS takes them:
# c a character, i a 64-bit integer, p an array.  Fortran takes every
# argument by reference, then info, then the length of each character.
_SIGNATURES = {
    "dsysv_rook": "ciipippipi",  # uplo, n, nrhs, a, lda, ipiv, b, ldb, work, lwork
    "dpotrf": "cipi",  # uplo, n, a, lda
    "dpotrs": "ciipipi",  # uplo, n, nrhs, a, lda, b, ldb
    "dpbsv": "ciiipipi",  # uplo, n, kd, nrhs, ab, ldab, b, ldb
}
_KINDS = {"c": ctypes.c_char_p, "i": ctypes.POINTER(ctypes.c_int64), "p": ctypes.c_void_p}


@functools.cache
def _library():
    """numpy's LAPACK extension as a shared library, or None where it cannot be loaded.

    A symbol looked up through this handle is searched in the library's
    dependencies too, so it finds numpy's copy of OpenBLAS.
    """
    try:
        return ctypes.CDLL(importlib.import_module(_NUMPY_LAPACK).__file__)
    except (ImportError, OSError):
        return None


@functools.cache
def _setter():
    """The thread-local thread-count setter of numpy's OpenBLAS, or None."""
    fn = getattr(_library(), "openblas_set_num_threads_local", None)
    if fn is None:
        return None
    fn.argtypes = [ctypes.c_int]
    fn.restype = ctypes.c_int
    return fn


@contextlib.contextmanager
def single_thread():
    """Run the block with one OpenBLAS thread in the calling thread."""
    setter = _setter()
    saved = None if setter is None else setter(1)
    try:
        yield
    finally:
        if setter is not None:
            setter(saved)


@functools.cache
def _routine(name: str):
    """The LAPACK routine `name` of numpy's OpenBLAS, or None where it lacks it.

    numpy's wheels carry OpenBLAS with 64-bit integers and a scipy_
    prefix on its symbols.
    """
    fn = getattr(_library(), f"scipy_{name}_64_", None)
    if fn is None:
        return None
    kinds = _SIGNATURES[name]
    fn.argtypes = [_KINDS[k] for k in kinds + "i"] + [ctypes.c_size_t] * kinds.count("c")
    fn.restype = None
    return fn


def _call(name: str, *args) -> int:
    """Run LAPACK routine `name` of numpy's OpenBLAS; returns its info.

    args are the arguments before info: a character as bytes, an integer
    as int, an array as its data pointer (see _pointer).
    """
    kinds = _SIGNATURES[name]
    values = [ctypes.c_int64(v) if k == "i" else v for k, v in zip(kinds, args)]
    info = ctypes.c_int64()
    _routine(name)(*values, info, *[1] * kinds.count("c"))
    if info.value < 0:
        raise ValueError(f"{name} rejected argument {-info.value}")
    return info.value


# a zero-length ctypes view of an array's buffer: its address is the array's data pointer
_VIEW = ctypes.c_char * 0


def _address(a: np.ndarray) -> int:
    """The data pointer of a writeable C-contiguous array, three times quicker to read than a.ctypes.data."""
    return ctypes.addressof(_VIEW.from_buffer(a))


def _pointer(a: np.ndarray, shape: tuple, order: str) -> int:
    """a's data pointer, once a is checked to be a writeable float64 array of this shape and order ("C" or "F")."""
    if a.dtype == np.float64 and a.shape == shape and a.flags.aligned:
        try:
            # the view asks for a writeable C-contiguous buffer; a.T's is a's in F order
            return _address(a if order == "C" else a.T)
        except (TypeError, ValueError):  # read-only, or not contiguous in that order
            pass
    raise ValueError(f"need a writeable {order}-ordered float64 array of shape {shape}, not {a.dtype} {a.shape}")


@functools.cache
def _sysv_work_per_row() -> int:
    """The optimal workspace of dsysv_rook per row: LAPACK's block size, asked for once."""
    a, b, size, ipiv = np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1, dtype=np.int64)
    _call("dsysv_rook", b"L", 1, 1, _address(a), 1, _address(ipiv), _address(b), 1, _address(size), -1)
    return max(1, int(size[0]))


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
    pa, pb = _pointer(a, (n, n), "C"), _pointer(b, (n,), "C")
    if _routine("dsysv_rook") is None:
        full = np.tril(a) + np.tril(a, -1).T if lower else np.triu(a) + np.triu(a, 1).T
        return np.linalg.solve(full, b)
    ipiv = np.empty(n, dtype=np.int64)
    work = np.empty(max(1, n * _sysv_work_per_row()))
    ld = max(1, n)
    # read column-major, a C-ordered array is its transpose: LAPACK's upper
    # triangle is the rows' lower one
    uplo = b"U" if lower else b"L"
    info = _call("dsysv_rook", uplo, n, 1, pa, ld, _address(ipiv), pb, ld, _address(work), len(work))
    if info > 0:
        raise np.linalg.LinAlgError(f"Singular matrix: D[{info - 1}] is exactly zero")
    return b


def solve_definite(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with A x = b for the symmetric positive definite A held in the upper triangle of a.

    a is a Fortran-ordered float64 square array whose upper triangle,
    diagonal included, is A's; it is overwritten with the Cholesky
    factor U of A = U^T U, and the strict lower triangle is not read.
    b is an n-vector or a Fortran-ordered n x k array of right-hand
    sides, overwritten with x, which is returned.  Raises
    np.linalg.LinAlgError where A is not positive definite.
    """
    n, nrhs = len(b), b.shape[1] if b.ndim == 2 else 1
    pa, pb = _pointer(a, (n, n), "F"), _pointer(b, (n, nrhs)[: b.ndim], "F")
    if _routine("dpotrf") is None or _routine("dpotrs") is None:
        from scipy.linalg import lapack

        _, info = lapack.dpotrf(a, overwrite_a=True, clean=False)
        if info == 0 and n:
            lapack.dpotrs(a, b.reshape(n, nrhs, order="F"), overwrite_b=True)
    else:
        ld = max(1, n)
        info = _call("dpotrf", b"U", n, pa, ld)
        if info == 0:
            _call("dpotrs", b"U", n, nrhs, pa, ld, pb, ld)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    return b


def solve_banded(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with A x = b for the symmetric positive definite band matrix A held in ab.

    ab is a Fortran-ordered float64 array of shape (kd + 1, n) in
    LAPACK's lower band storage: ab[r, j] = A[j + r, j], the entries r
    below the diagonal in row r.  It is overwritten with the banded
    Cholesky factor, and the n-vector b with x, which is returned.
    Raises np.linalg.LinAlgError where A is not positive definite.
    """
    n, kd = len(b), len(ab) - 1
    pab, pb = _pointer(ab, (kd + 1, n), "F"), _pointer(b, (n,), "F")
    if _routine("dpbsv") is None:
        from scipy.linalg import lapack

        *_, info = lapack.dpbsv(ab, b, lower=True, overwrite_ab=True, overwrite_b=True)
    else:
        info = _call("dpbsv", b"L", n, kd, 1, pab, kd + 1, pb, max(1, n))
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor not positive definite")
    return b
