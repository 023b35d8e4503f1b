"""Shared numerical plumbing: SPD solves and adaptive integration.

Deterministic, dense, desk-scale.  Larger sparse systems live with the
grid solver in the capacity module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DomainError, NumericalError


@dataclass
class SymmetricSystem:
    matrix: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DomainError(f"matrix not square: {a.shape}")
        scale = max(np.abs(a).max(), 1.0)
        if np.abs(a - a.T).max() > 1e-13 * scale:
            raise DomainError("matrix not symmetric within 1e-13 relative")
        self.matrix = a
        self.rhs = np.asarray(self.rhs, dtype=float)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def solve_spd(system: SymmetricSystem) -> np.ndarray:
    """Cholesky solve; raises NumericalError naming the failing pivot."""
    a, b = system.matrix, system.rhs
    try:
        c, low = scipy.linalg.cho_factor(a, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"matrix not positive definite: {exc}") from exc
    x = scipy.linalg.cho_solve((c, low), b, check_finite=False)
    resid = np.linalg.norm(a @ x - b)
    bound = 1e-10 * (np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(b))
    if resid > bound:
        raise NumericalError(f"residual {resid:.3e} exceeds bound {bound:.3e}", estimate=x)
    return x


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
            raise NumericalError("adaptive integration hit max depth", estimate=best)
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
