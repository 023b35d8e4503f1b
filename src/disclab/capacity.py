"""Capacities on the unit disc.

Two routes, kept deliberately independent:

* a fast route via discrete equilibrium measures on boundary arcs
  (first-kind log-kernel system with endpoint-clustered nodes), and
* a polar-grid Dirichlet-energy solver for condensers (5-point scheme,
  Dirichlet plates, Neumann on the circle), which serves as the oracle
  for the fast route and as the factory for W^{1,2} building blocks.

The normalization C(E) = cap_D(Delta_1(0), E) is realized by an affine
calibration of the inverse equilibrium energy against the grid solver on
single arcs (frozen constants below).

The grid's cost follows the plates, not the grid: a plate is rasterized
by testing only a window of rings and angles around it, and no global
Laplacian is assembled.  The five-point stencil rows of any node set
come from the ring radii and the ring and angle indices, so a grid's
set-up is O(n_r + n_t) plus the node coordinates.  A solve builds the
symmetric positive definite system on the free nodes from their rows
and factors it once, without pivoting, under a minimum-degree ordering;
part labels cut the edges between parts, so one factorisation serves a
whole set of interpolant blocks.  The energy sums only the rows of free
or Dirichlet-one nodes.  scipy is imported only inside the functions
that build or factor sparse matrices, so importing disclab does not
load it.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import DomainError, NumericalError, ResolutionError
from .geometry import Arc, CarlesonBox, DiscPoint, HyperbolicDisc

# Calibration of C(E) = CAP_SCALE / (energy + CAP_SHIFT) against the grid
# value of cap_D(Delta_1(0), I) on single arcs (see scripts/calibrate.py).
# The denominator floor pins C at the grid value for the full circle so
# the formula stays positive and monotone for large arc unions.
CAP_SCALE = 2.904
CAP_SHIFT = -1.943
CAP_DEN_FLOOR = CAP_SCALE / 22.9

RIDGE_FACTOR = 1e-10


@dataclass(frozen=True)
class EquilibriumMeasure:
    """Discrete unit-mass measure minimizing the log-kernel energy."""

    nodes: np.ndarray  # boundary angles
    weights: np.ndarray  # nonnegative, sums to 1
    energy: float


@dataclass(frozen=True)
class CondenserSpec:
    plate_inner: HyperbolicDisc
    plate_outer: list  # arcs, boxes or hyperbolic discs


@dataclass(frozen=True)
class CondenserResult:
    value: float
    warnings: tuple = ()


@functools.cache
def _unit_arc_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes on [0, 1] and their cell widths, built once per node count.

    The t = sin^2 substitution of the Gauss-Legendre nodes clusters them
    at the endpoints like the inverse-square-root blow-up of the
    equilibrium density.  The arrays are shared, so they are read-only.
    """
    x = np.polynomial.legendre.leggauss(n)[0]
    tau = 0.5 * (x + 1.0)
    t = np.sin(0.5 * math.pi * tau) ** 2
    cells = np.diff(np.concatenate(([0.0], 0.5 * (t[1:] + t[:-1]), [1.0])))
    t.flags.writeable = False
    cells.flags.writeable = False
    return t, cells


def _arc_nodes(arc: Arc, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature angles on one arc plus cell widths (radians)."""
    t, cells = _unit_arc_nodes(n)
    span = 2.0 * arc.half_width
    return arc.start + t * span, cells * span


def _energy_matrix(angles: np.ndarray, widths: np.ndarray) -> np.ndarray:
    d = np.abs(np.sin(0.5 * (angles[:, None] - angles[None, :])))
    with np.errstate(divide="ignore"):
        k = np.log(2.0) - np.log(2.0 * d)
    np.fill_diagonal(k, np.log(2.0 / widths) + 1.5)
    return k


def equilibrium_measure(arcs: list[Arc], quad_nodes_per_arc: int = 24) -> EquilibriumMeasure:
    """Equilibrium measure of a finite union of disjoint arcs.

    Solves the first-kind system for a unit-mass measure with constant
    potential on the arcs, with a small ridge, then enforces
    nonnegativity by an active-set sweep.
    """
    if quad_nodes_per_arc < 8:
        raise DomainError(f"need >= 8 nodes per arc, got {quad_nodes_per_arc}")
    arcs = geometry.merge_arcs(list(arcs))
    if not arcs:
        raise DomainError("empty arc family")
    parts = [_arc_nodes(a, quad_nodes_per_arc) for a in arcs]
    # arcs shorter than the float resolution of absolute angles collapse
    # to one node carrying the whole width; the point-mass energy
    # log(2/width) is then the right self-interaction
    parts = [
        (np.array([a.center_angle]), np.array([2.0 * a.half_width])) if a.length < 1e-12 else p
        for a, p in zip(arcs, parts)
    ]
    angles = np.concatenate([p[0] for p in parts])
    widths = np.concatenate([p[1] for p in parts])
    k = _energy_matrix(angles, widths)
    n = len(angles)
    k_reg = k + (RIDGE_FACTOR * np.trace(k) / n) * np.eye(n)

    active = np.ones(n, dtype=bool)
    w = np.zeros(n)
    for _ in range(25):
        idx = np.where(active)[0]
        m = len(idx)
        kkt = np.zeros((m + 1, m + 1))
        kkt[:m, :m] = k_reg[np.ix_(idx, idx)]
        kkt[:m, m] = 1.0
        kkt[m, :m] = 1.0
        rhs = np.zeros(m + 1)
        rhs[m] = 1.0
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"equilibrium system singular: {exc}",
                condition=float(np.linalg.cond(k_reg)),
            ) from exc
        w = np.zeros(n)
        w[idx] = sol[:m]
        neg = w < -1e-12
        if not neg.any():
            break
        active &= ~neg
    w = np.maximum(w, 0.0)
    total = w.sum()
    if not math.isfinite(total) or total <= 0:
        raise NumericalError(
            "equilibrium weights degenerate", condition=float(np.linalg.cond(k_reg))
        )
    w /= total
    energy = float(w @ k @ w)
    if not math.isfinite(energy) or energy <= 0:
        raise NumericalError(f"nonpositive equilibrium energy {energy}")
    return EquilibriumMeasure(angles, w, energy)


def log_capacity(arcs: list[Arc], quad_nodes_per_arc: int = 24) -> float:
    """C(E) = cap_D(Delta_1(0), E) for a finite union of arcs; 0 if empty."""
    arcs = list(arcs)
    if not arcs:
        return 0.0
    mu = equilibrium_measure(arcs, quad_nodes_per_arc)
    return CAP_SCALE / max(mu.energy + CAP_SHIFT, CAP_DEN_FLOOR)


def _disc_meets_box(c: complex, rho: float, box: CarlesonBox) -> bool:
    """Whether the closed Euclidean disc (c, rho) meets the box.

    The box is the annular sector r >= r0 over its base arc.  The disc
    reaches radius r0 or more along the rays within alpha of arg c, so the
    two meet iff the base arc meets that arc of rays.  alpha is the
    tangent angle asin(rho/|c|) when the tangent points lie at radius
    r0 or more, and else the angle at which the circle |w| = r0 crosses
    the disc's rim (law of cosines).
    """
    r0, a = box.inner_radius, abs(c)
    if a + rho < r0:
        return False
    if r0 <= rho - a:  # the disc covers the circle |w| = r0
        return True
    if a * a - rho * rho >= r0 * r0:
        alpha = math.asin(rho / a)
    else:
        alpha = math.acos(max(-1.0, min(1.0, (r0 * r0 + a * a - rho * rho) / (2.0 * r0 * a))))
    arc = box.base_arc
    gap = abs(geometry._signed_angle(cmath.phase(c) - arc.center_angle))
    return arc.is_full_circle() or gap <= arc.half_width + alpha


def _target_to_arc_and_clearance(z: DiscPoint, target) -> tuple[Arc | None, bool, bool]:
    """(image arc, plates_touch, precondition_ok) for one outer-plate item."""
    if isinstance(target, DiscPoint):
        if geometry.hyperbolic_distance(z, target) <= 2.0:
            return None, True, True
        ok = target.depth <= z.depth / 2.0
        return geometry.boundary_arc(geometry.mobius(z, target)), False, ok
    if isinstance(target, HyperbolicDisc):
        touch = geometry.hyperbolic_distance(z, target.center) <= 1.0 + target.radius
        if touch:
            return None, True, True
        ok = target.center.depth <= z.depth / 2.0
        return geometry.boundary_arc(geometry.mobius(z, target.center)), False, ok
    if isinstance(target, CarlesonBox):
        if _disc_meets_box(*geometry.unit_hyperbolic_disc(z).euclidean(), target):
            return None, True, True
        depth_b = target.base_arc.length
        w = DiscPoint(target.base_arc.center_angle, depth_b)
        ok = depth_b <= z.depth / 2.0
        # the arc of the image point; when w == z, as for a full-circle box
        # around the origin, the image is the origin and its arc the whole circle
        image = geometry.mobius(z, w)
        return Arc(image.theta, image.depth), False, ok
    if isinstance(target, Arc):
        return geometry.arc_mobius_image(z, target), False, True
    raise DomainError(f"unsupported target type: {type(target).__name__}")


def condenser_capacity(z: DiscPoint, targets: list, quad_nodes_per_arc: int = 24) -> CondenserResult:
    """cap_D(Delta_1(z), targets) via Mobius transfer to arcs at the origin.

    Boxes and discs are reduced to the arcs of representative points; the
    reduction is a comparability, so a violated depth precondition is
    reported as a warning, not an error.  Plates that touch Delta_1(z)
    give capacity 0 by convention.
    """
    if not targets:
        raise DomainError("empty target list")
    arcs = []
    warnings = []
    for t in targets:
        arc, touch, ok = _target_to_arc_and_clearance(z, t)
        if touch:
            return CondenserResult(0.0, ("plates intersect; capacity 0 by convention",))
        if not ok:
            warnings.append("target depth exceeds half the base depth; comparability not guaranteed")
        arcs.append(arc)
    value = log_capacity(arcs, quad_nodes_per_arc)
    return CondenserResult(value, tuple(dict.fromkeys(warnings)))


# ---------------------------------------------------------------------------
# polar grid solver


class PolarGrid:
    """Node-centered polar grid on the closed disc with a center node.

    Ring radii are graded geometrically toward the circle; the last ring
    sits at r = 1 so boundary arcs can carry Dirichlet data while the
    rest of the circle is naturally Neumann.
    """

    def __init__(self, n_r: int, n_t: int, min_depth: float = 1e-3):
        if n_r < 4 or n_t < 8:
            raise DomainError(f"grid too small: {n_r}x{n_t}")
        if not (0.0 < min_depth <= 0.5):
            raise DomainError(f"min_depth out of (0, 0.5]: {min_depth}")
        self.n_r = n_r
        self.n_t = n_t
        self.min_depth = min_depth
        k = np.arange(0, n_r + 1)
        radii = 1.0 - min_depth ** (k / n_r)  # radii[0] = 0 (center)
        self.ring_r = np.concatenate([radii[1:], [1.0]])  # rings 1..K
        self.n_rings = len(self.ring_r)
        self.dtheta = 2.0 * math.pi / n_t
        self.thetas = np.arange(n_t) * self.dtheta
        self.n_nodes = 1 + self.n_rings * n_t
        r = self.ring_r
        prev = np.concatenate([[0.0], r[:-1]])
        nxt = np.concatenate([r[1:], [1.0]])
        self.cell_widths = 0.5 * (nxt - prev)
        # conductances by ring: to the inner neighbour (the centre for ring 0)
        # and along the ring
        face = 0.5 * (r[:-1] + r[1:])
        self._g_radial = np.concatenate([[0.5 * self.dtheta], face * self.dtheta / (r[1:] - r[:-1])])
        self._g_angular = self.cell_widths / (r * self.dtheta)
        # flat node coordinates for rasterization
        self.node_r = np.concatenate([[0.0], np.repeat(self.ring_r, n_t)])
        self.node_t = np.concatenate([[0.0], np.tile(self.thetas, self.n_rings)])

    def _stencil(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Five-point stencil rows of the given nodes: (heads, tails, g).

        One entry per edge end at a node: the edge from head to tail has
        conductance g, so a node's Laplacian row is sum(g) on the diagonal
        and -g at each tail.  nodes must increase; the entries come
        grouped by head in that order.  Node j of ring k is
        1 + k n_t + j; its neighbours are j -+ 1 on its ring, wrapping at
        the ring's ends, and j on rings k -+ 1, where ring 0's inner
        neighbour is the centre node and the last ring has no outer one.
        The centre node's row holds its n_t spokes to ring 0.
        """
        nt = self.n_t
        spokes = nt if len(nodes) and nodes[0] == 0 else 0  # the centre node comes first
        ring_nodes = nodes[1:] if spokes else nodes
        k, j = np.divmod(ring_nodes - 1, nt)
        tails = ring_nodes[:, None] + np.array([-nt, -1, 1, nt])
        tails[k == 0, 0] = 0
        tails[j == 0, 1] += nt
        tails[j == nt - 1, 2] -= nt
        g = np.empty(tails.shape)
        g[:, 0] = self._g_radial[k]
        g[:, 1] = g[:, 2] = self._g_angular[k]
        # the last ring's nodes come last and have no outer neighbour
        inner = np.searchsorted(k, self.n_rings - 1)
        g[:inner, 3] = self._g_radial[k[:inner] + 1]
        heads = np.broadcast_to(ring_nodes[:, None], tails.shape)
        heads = np.concatenate([np.zeros(spokes, dtype=nodes.dtype), heads[:inner].ravel(), heads[inner:, :3].ravel()])
        tails = np.concatenate([np.arange(1, spokes + 1), tails[:inner].ravel(), tails[inner:, :3].ravel()])
        g = np.concatenate([np.full(spokes, self._g_radial[0]), g[:inner].ravel(), g[inner:, :3].ravel()])
        return heads, tails, g

    def node_areas(self) -> np.ndarray:
        """Control areas (plain dxdy measure) for L2 norms."""
        areas = np.empty(self.n_nodes)
        areas[0] = math.pi * (0.5 * self.ring_r[0]) ** 2
        ring_area = self.cell_widths * self.ring_r * self.dtheta
        areas[1:] = np.repeat(ring_area, self.n_t)
        return areas

    @functools.cached_property
    def node_z(self) -> np.ndarray:
        """Complex node positions, built on first use by a disc plate."""
        return self.node_r * np.exp(1j * self.node_t)

    def _columns(self, center: float, half: float) -> np.ndarray:
        """Angle indices within half of center, padded by one cell each side."""
        lo = math.floor((center - half) / self.dtheta) - 1
        hi = math.ceil((center + half) / self.dtheta) + 1
        if hi - lo >= self.n_t - 1:
            return np.arange(self.n_t)
        return np.arange(lo, hi + 1) % self.n_t

    def _arc_columns(self, arc: Arc) -> np.ndarray:
        """Angle indices of the nodes whose angle lies in the arc."""
        if arc.is_full_circle():
            return np.arange(self.n_t)
        cols = self._columns(arc.center_angle, arc.half_width)
        return cols[_angles_in_arc(self.thetas[cols], arc)]

    def _nodes(self, k0: int, k1: int, cols: np.ndarray) -> np.ndarray:
        """Flat indices of the nodes on rings k0..k1-1 at the given angle indices."""
        return (1 + np.arange(k0, k1)[:, None] * self.n_t + cols).ravel()

    def rasterize(self, plate, name: str = "plate", min_cells: int = 4) -> np.ndarray:
        """Mask of the grid nodes inside a plate.

        Only a window of rings and angles around the plate is tested, so
        the cost follows the plate's size, not the grid's; the test on
        each candidate node is the full-grid one.
        """
        mask = np.zeros(self.n_nodes, dtype=bool)
        if isinstance(plate, HyperbolicDisc):
            c, rad = plate.euclidean()
            a = abs(c)
            # rings within rad of |c|, angles within the tangent angle of arg c
            k0 = int(np.searchsorted(self.ring_r, a - rad - 1e-12))
            k1 = int(np.searchsorted(self.ring_r, a + rad + 1e-12, side="right"))
            if rad >= a * (1.0 - 1e-9):
                cols = np.arange(self.n_t)
            else:
                cols = self._columns(cmath.phase(c), math.asin(rad / a))
            idx = np.concatenate([[0], self._nodes(k0, k1, cols)])
            mask[idx] = np.abs(self.node_z[idx] - c) <= rad
        elif isinstance(plate, CarlesonBox):
            k0 = int(np.searchsorted(self.ring_r, plate.inner_radius - 1e-15))
            mask[self._nodes(k0, self.n_rings, self._arc_columns(plate.base_arc))] = True
            mask[0] = plate.inner_radius == 0.0
        elif isinstance(plate, Arc):
            k0 = int(np.searchsorted(self.ring_r, 1.0 - 1e-15))
            mask[self._nodes(k0, self.n_rings, self._arc_columns(plate))] = True
        else:
            raise DomainError(f"unsupported plate type: {type(plate).__name__}")
        cells = int(np.count_nonzero(mask))
        if cells < min_cells:
            raise ResolutionError(
                f"{name} covers only {cells} grid cells (< {min_cells}); refine the grid"
            )
        return mask

    def solve(
        self, mask0: np.ndarray, mask1: np.ndarray, parts: np.ndarray | None = None
    ) -> tuple[np.ndarray, float | np.ndarray]:
        """Harmonic values with u=0 on mask0, u=1 on mask1; returns (u, energy).

        parts, if given, labels every node outside mask0 with an integer
        >= 0.  An edge between two parts is cut: each side sees 0 across
        it, as if the other part were in mask0, and energy is the array of
        the parts' energies indexed by label.

        The system on the free nodes is built from their stencil rows.  It
        is symmetric positive definite (the grid graph is connected, the
        fixed set is not empty, and a cut edge leaves its g on the
        diagonal), so it is factored without pivoting under a
        minimum-degree ordering of A + A^T.  Every edge with no end at a
        free or mask1 node joins two zeros, so the energy sums only the
        stencil rows of those nodes.
        """
        # here, not at module level, so that importing disclab does not load
        # scipy; and first, so that the import's objects do not land on the
        # heap among the solve's arrays and keep it from shrinking
        import scipy.sparse
        import scipy.sparse.linalg

        if (mask0 & mask1).any():
            return np.zeros(self.n_nodes), 0.0 if parts is None else np.zeros(parts.max() + 1)
        u = np.zeros(self.n_nodes)
        u[mask1] = 1.0
        live = ~mask0
        heads, tails, g = self._stencil(np.flatnonzero(live))
        joined = live[tails]
        if parts is not None:
            joined &= parts[heads] == parts[tails]
        free = live & ~mask1
        n_free = int(np.count_nonzero(free))
        if n_free:
            # the matrix row of each free node, and a spare row for the fixed ones
            pos = np.where(free, np.cumsum(free) - 1, n_free)
            rows = pos[heads]
            # each row holds its diagonal, then -g at its joined free tails: the
            # e-th off-diagonal entry, in row r, follows e others and r + 1 diagonals
            off = joined & free[tails] & free[heads]
            off_rows = rows[off]
            indptr = np.concatenate([[0], np.cumsum(np.bincount(off_rows, minlength=n_free) + 1)])
            slots = np.arange(len(off_rows)) + off_rows + 1
            data = np.empty(indptr[-1])
            indices = np.empty(indptr[-1], dtype=np.int32)
            data[indptr[:-1]] = np.bincount(rows, weights=g, minlength=n_free + 1)[:n_free]
            indices[indptr[:-1]] = np.arange(n_free)
            data[slots] = -g[off]
            indices[slots] = pos[tails[off]]
            # the matrix is symmetric, so its CSR arrays are its CSC arrays
            lu = scipy.sparse.linalg.splu(
                scipy.sparse.csc_matrix((data, indices, indptr), shape=(n_free, n_free)),
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
            rhs = np.bincount(rows, weights=g * (joined & mask1[tails]), minlength=n_free + 1)[:n_free]
            u[free] = lu.solve(rhs)
        d = u[heads] - np.where(joined, u[tails], 0.0)
        # an edge joining two live nodes sits in both their rows: count it once
        once = ~joined | (heads < tails)
        terms = (g * d * d)[once]
        if parts is None:
            return u, float(np.sum(terms))
        return u, np.bincount(parts[heads[once]], weights=terms, minlength=parts.max() + 1)


def _angles_in_arc(thetas: np.ndarray, arc: Arc) -> np.ndarray:
    if arc.is_full_circle():
        return np.ones_like(thetas, dtype=bool)
    d = np.mod(thetas - arc.center_angle + math.pi, 2.0 * math.pi) - math.pi
    return np.abs(d) <= arc.half_width * (1 + 1e-15)


@dataclass
class GridPotential:
    """Discrete equilibrium potential; values indexed like the grid's nodes."""

    grid: PolarGrid
    values: np.ndarray
    energy: float

    @property
    def resolution(self) -> tuple[int, int]:
        return (self.grid.n_r, self.grid.n_t)

    def to_csv(self, path):
        rows = np.column_stack([self.grid.node_r, self.grid.node_t, self.values])
        np.savetxt(path, rows, delimiter=",", header="r,theta,value", comments="")


def _plate_min_depth(spec: CondenserSpec) -> float:
    depths = []
    c, rad = spec.plate_inner.euclidean()
    depths.append(max(1.0 - (abs(c) + rad), 1e-6))
    for t in spec.plate_outer:
        if isinstance(t, Arc):
            depths.append(max(t.length / 4.0, 1e-6))
        elif isinstance(t, CarlesonBox):
            depths.append(max(1.0 - t.inner_radius, 1e-6))
        elif isinstance(t, HyperbolicDisc):
            ci, ri = t.euclidean()
            depths.append(max(1.0 - (abs(ci) + ri), 1e-6))
        else:
            raise DomainError(f"unsupported plate type: {type(t).__name__}")
    return min(0.5, min(depths) / 8.0)


def grid_condenser_capacity(spec: CondenserSpec, resolution: tuple[int, int] = (96, 256)) -> GridPotential:
    """Energy-minimizing grid potential for a condenser; energy ~ capacity."""
    n_r, n_t = resolution
    grid = PolarGrid(n_r, n_t, _plate_min_depth(spec))
    mask0 = grid.rasterize(spec.plate_inner, "inner plate")
    mask1 = np.zeros(grid.n_nodes, dtype=bool)
    for i, t in enumerate(spec.plate_outer):
        mask1 |= grid.rasterize(t, f"outer plate #{i}")
    u, energy = grid.solve(mask0, mask1)
    return GridPotential(grid, u, energy)


def three_condenser_capacities(
    z: DiscPoint, points: list, resolution: tuple[int, int] = (128, 256)
) -> tuple[float, float, float]:
    """Grid capacities from Delta_1(z) to the boxes, unit discs, and arcs
    of the given points.

    The three outer plates are comparable condenser targets; their
    capacities agree up to absolute constants when every point is at
    most half as deep as z.
    """
    inner = geometry.unit_hyperbolic_disc(z)
    plate_sets = (
        [geometry.carleson_box(p) for p in points],
        [geometry.unit_hyperbolic_disc(p) for p in points],
        [geometry.boundary_arc(p) for p in points],
    )
    return tuple(
        grid_condenser_capacity(CondenserSpec(inner, plates), resolution).energy
        for plates in plate_sets
    )
