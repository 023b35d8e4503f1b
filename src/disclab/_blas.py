"""Dense factorisations on one BLAS thread.

OpenBLAS hands a solve of 128 rows or more to its worker threads, and
after the call each worker busy-waits about 120 ms for more work before
it sleeps.  At the sizes disclab factors the second thread buys little,
so a loop of solves keeps it spinning for nothing.  single_thread() sets
the calling thread's OpenBLAS thread count to 1 for the duration of a
block, in every OpenBLAS that numpy.linalg and (once it is imported)
scipy.linalg have loaded, and puts the old counts back on exit.  The
setting is thread-local, so the host's own BLAS setting is left as it
was.  Where no OpenBLAS is found it does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
import sys

# (package whose import loads the library, extension module linked against it)
_LINKED = (("numpy.linalg", "numpy.linalg._umath_linalg"), ("scipy.linalg", "scipy.linalg._flapack"))


@functools.cache
def _setter(module: str):
    """The thread-local setter of the OpenBLAS the module links, or None.

    The symbol is looked up through the module's own library handle,
    which searches that library's dependencies, so numpy's and scipy's
    copies of OpenBLAS are told apart.
    """
    try:
        fn = ctypes.CDLL(importlib.import_module(module).__file__).openblas_set_num_threads_local
    except (ImportError, OSError, AttributeError):
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
