"""Full-grid references for the polar grid solver.

Each plate test runs over every node of the grid, the edges are listed
ring by ring and assembled into a global Laplacian, the energy sums every
edge, and the harmonic values come from scipy's default sparse solve
with partial pivoting, so none of this shares the windows, the stencil
rows or the SPD factorisation of ``PolarGrid``.
"""

import numpy as np
import scipy.sparse
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


def edges(grid: PolarGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, g) of every edge: the centre's spokes to the first ring, the
    radial edges from ring k to k+1, then the angular edges of each ring."""
    nt, dt = grid.n_t, grid.dtheta
    r = grid.ring_r
    node = 1 + np.arange(len(r) * nt)  # ring nodes, ring by ring
    after = node + 1  # angular neighbour, wrapping at the end of each ring
    after[nt - 1 :: nt] -= nt
    face = 0.5 * (r[:-1] + r[1:])
    prev = np.concatenate([[0.0], r[:-1]])
    nxt = np.concatenate([r[1:], [1.0]])
    widths = 0.5 * (nxt - prev)
    a = np.concatenate([np.zeros(nt, dtype=int), node[:-nt], node])
    b = np.concatenate([node[:nt], node[nt:], after])
    g = np.concatenate(
        [np.full(nt, 0.5 * dt), np.repeat(face * dt / (r[1:] - r[:-1]), nt), np.repeat(widths / (r * dt), nt)]
    )
    return a, b, g


def laplacian(grid: PolarGrid) -> scipy.sparse.csr_matrix:
    """The grid Laplacian assembled from the edge list."""
    a, b, g = edges(grid)
    i = np.concatenate([a, b, a, b])
    j = np.concatenate([b, a, a, b])
    v = np.concatenate([-g, -g, g, g])
    return scipy.sparse.coo_matrix((v, (i, j)), shape=(grid.n_nodes, grid.n_nodes)).tocsr()


def green(grid: PolarGrid, nodes: np.ndarray) -> np.ndarray:
    """The grounded Green's matrix on the given ring nodes: the inverse of the Laplacian without the centre's row and column.

    The dense inverse's columns at the nodes get one step of iterative
    refinement, with the residual summed edge by edge, g (x_a - x_b)
    over every edge, so that it never forms a rounded diagonal.  On a
    strongly graded grid the assembled diagonal's one-ulp roundings move
    the plain inverse by up to 4e-10 of its largest entry (16x32 with
    minimum depth 1e-6, condition number 1e8); the refined one is within
    1e-15 of it there.
    """
    a, b, g = edges(grid)
    inverse = np.linalg.inv(laplacian(grid)[1:, 1:].toarray())
    x = np.zeros((grid.n_nodes, len(nodes)))  # row 0: the grounded centre
    x[1:] = inverse[:, nodes - 1]
    # unit charges at the nodes less the Laplacian of x
    flow = g[:, None] * (x[a] - x[b])
    residual = np.zeros_like(x)
    np.add.at(residual, b, flow)
    np.add.at(residual, a, -flow)
    residual[nodes, np.arange(len(nodes))] += 1.0
    return (x[1:] + inverse @ residual[1:])[nodes - 1]


def energy(grid: PolarGrid, u: np.ndarray) -> float:
    """Dirichlet energy of u summed over every edge of the grid."""
    a, b, g = edges(grid)
    d = u[a] - u[b]
    return float(np.sum(g * d * d))


def l2_norm_sq(grid: PolarGrid, u: np.ndarray) -> float:
    return float(np.sum(grid.node_areas() * u * u))


def solve(grid: PolarGrid, mask0: np.ndarray, mask1: np.ndarray) -> np.ndarray:
    """Harmonic values with u=0 on mask0 and u=1 on mask1, by spsolve."""
    u = np.zeros(grid.n_nodes)
    u[mask1] = 1.0
    fixed = mask0 | mask1
    free = ~fixed
    rows = laplacian(grid)[free]
    u[free] = scipy.sparse.linalg.spsolve(rows[:, free].tocsc(), -(rows[:, fixed] @ u[fixed]))
    return u
