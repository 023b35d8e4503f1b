"""Reference for the equilibrium-measure solve.

The energy matrix is built in one shot over all pairs of nodes, and each
active-set sweep solves the bordered system [[K + ridge I, 1], [1^T, 0]]
for the weights and the multiplier on a freshly gathered copy of the
active block, so none of this shares the blocked kernel, the in-place
ridge or the normalised direct solve of ``capacity.equilibrium_measure``.
The quadrature rule is the library's own (``capacity._unit_arc_nodes``),
laid out arc by arc here.
"""

import math

import numpy as np

from disclab import capacity, geometry
from disclab.errors import DomainError, NumericalError


def energy_matrix(angles: np.ndarray, widths: np.ndarray) -> np.ndarray:
    d = np.abs(np.sin(0.5 * (angles[:, None] - angles[None, :])))
    with np.errstate(divide="ignore"):
        k = np.log(2.0) - np.log(2.0 * d)
    np.fill_diagonal(k, np.log(2.0 / widths) + 1.5)
    return k


def nodes(arcs) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature angles and cell widths of the merged family."""
    arcs = geometry.merge_arcs(list(arcs))
    if not arcs:
        raise DomainError("empty arc family")
    t, cells = capacity._unit_arc_nodes()
    parts = []
    for a in arcs:
        span = 2.0 * a.half_width
        if a.length < 1e-12:
            parts.append((np.array([a.center_angle]), np.array([span])))
        else:
            parts.append((a.start + t * span, cells * span))
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def equilibrium_measure(arcs) -> tuple[np.ndarray, np.ndarray, float, int]:
    """(angles, weights, energy, sweeps) by the bordered KKT active-set solve."""
    angles, widths = nodes(arcs)
    k = energy_matrix(angles, widths)
    n = len(angles)
    k_reg = k + (capacity.RIDGE_FACTOR * np.trace(k) / n) * np.eye(n)
    active = np.ones(n, dtype=bool)
    w = np.zeros(n)
    for sweeps in range(1, 26):
        idx = np.where(active)[0]
        m = len(idx)
        kkt = np.zeros((m + 1, m + 1))
        kkt[:m, :m] = k_reg[np.ix_(idx, idx)]
        kkt[:m, m] = 1.0
        kkt[m, :m] = 1.0
        rhs = np.zeros(m + 1)
        rhs[m] = 1.0
        sol = np.linalg.solve(kkt, rhs)
        w = np.zeros(n)
        w[idx] = sol[:m]
        neg = w < -1e-12
        if not neg.any():
            break
        active &= ~neg
    w = np.maximum(w, 0.0)
    total = w.sum()
    if not math.isfinite(total) or total <= 0:
        raise NumericalError("equilibrium weights degenerate")
    w /= total
    return angles, w, float(w @ k @ w), sweeps
