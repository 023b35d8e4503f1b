"""Adaptive quadrature, the independent reference for harmonic measure.

The oracle, not the library, holds harmonic measure in closed form
(geometry_oracle.harmonic_measure); the tests hold it against this
numerical integration of the Poisson kernel.
"""

import numpy as np

from disclab.errors import DomainError, NumericalError


def adaptive_integrate(f, a: float, b: float, tol: float = 1e-10, max_depth: int = 50) -> float:
    """Adaptive Simpson with Richardson acceptance test."""

    def simpson(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        fl = f(0.5 * (lo + mid))
        fr = f(0.5 * (mid + hi))
        left = simpson(lo, mid, flo, fl, fmid)
        right = simpson(mid, hi, fmid, fr, fhi)
        if depth >= max_depth:
            best = left + right + (left + right - whole) / 15.0
            raise NumericalError(f"adaptive integration hit max depth; estimate {best!r}")
        if abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(lo, mid, flo, fl, fmid, left, eps / 2.0, depth + 1) + recurse(
            mid, hi, fmid, fr, fhi, right, eps / 2.0, depth + 1
        )

    if a == b:
        return 0.0
    mid = 0.5 * (a + b)
    fa, fm, fb = f(a), f(mid), f(b)
    for v in (fa, fm, fb):
        if not np.isfinite(v):
            raise DomainError("integrand not finite on the interval")
    return recurse(a, b, fa, fm, fb, simpson(a, b, fa, fm, fb), tol, 0)
