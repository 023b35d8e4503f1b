"""Full-grid references for the polar grid solver.

Each plate test runs over every node of the grid, the energy sums every
edge, and the harmonic values come from scipy's default sparse solve
with partial pivoting, so none of this shares the windows, the local
edge sums or the SPD factorisation of ``PolarGrid``.
"""

import numpy as np
import scipy.sparse.linalg

from disclab.capacity import PolarGrid, _angles_in_arc
from disclab.errors import DomainError
from disclab.geometry import Arc, CarlesonBox, HyperbolicDisc


def rasterize(grid: PolarGrid, plate) -> np.ndarray:
    """Mask of the nodes inside a plate, tested on every node."""
    if isinstance(plate, HyperbolicDisc):
        c, rad = plate.euclidean()
        zs = grid.node_r * np.exp(1j * grid.node_t)
        return np.abs(zs - c) <= rad
    if isinstance(plate, CarlesonBox):
        mask = (grid.node_r >= plate.inner_radius - 1e-15) & _angles_in_arc(grid.node_t, plate.base_arc)
        mask[0] = plate.inner_radius == 0.0
        return mask
    if isinstance(plate, Arc):
        return (grid.node_r >= 1.0 - 1e-15) & _angles_in_arc(grid.node_t, plate)
    raise DomainError(f"unsupported plate type: {type(plate).__name__}")


def energy(grid: PolarGrid, u: np.ndarray) -> float:
    """Dirichlet energy of u summed over every edge of the grid."""
    d = u[grid.edge_a] - u[grid.edge_b]
    return float(np.sum(grid.edge_g * d * d))


def l2_norm_sq(grid: PolarGrid, u: np.ndarray) -> float:
    return float(np.sum(grid.node_areas() * u * u))


def solve(grid: PolarGrid, mask0: np.ndarray, mask1: np.ndarray) -> np.ndarray:
    """Harmonic values with u=0 on mask0 and u=1 on mask1, by spsolve."""
    u = np.zeros(grid.n_nodes)
    u[mask1] = 1.0
    fixed = mask0 | mask1
    free = ~fixed
    rows = grid.laplacian[free]
    u[free] = scipy.sparse.linalg.spsolve(rows[:, free].tocsc(), -(rows[:, fixed] @ u[fixed]))
    return u
