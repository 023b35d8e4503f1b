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
Laplacian is assembled.  The conductances depend only on the ring, so
a grid's set-up is O(n_r + n_t); the node coordinates are built only
when read.

A condenser solve is a capacitance-matrix method (Buzbee, Dorr, George
& Golub, SIAM J. Numer. Anal. 8, 1971; Proskurowski & Widlund, Math.
Comp. 30, 1976).  With the centre node grounded the grid operator is
diagonal in the angular Fourier modes, one tridiagonal matrix over the
rings per mode.  The plates enter only through the fixed nodes next to
free ones, a few hundred at 128x256: the grounded Green's function on
them is Cholesky-factored and solved once, for those nodes' values and
for a column of ones, which gives the charges that hold the nodes at
their values whether the centre node is fixed or free.  One FFT, the
tridiagonal solves and one inverse FFT give the field.  Each mode's
inverse is semiseparable, a product of a factor of the row's ring and
one of the column's, and so is each angular harmonic, so that Green's
matrix is one blocked GEMM over n_t mode columns, accurate to about
|log P| eps per entry for the products P of the modes' decay ratios
(see PolarGrid._green).  The rest of the solve works on the ring nodes as one (ring, angle) array, where each
edge family (angular, radial, the centre's spokes) is one slice or roll
difference: the layer of fixed nodes next to free ones comes from the
free mask shifted one step each way, and the residual every free node
is checked against and the energy from the flows along the edges.  No
node's stencil row is built.

A solve with part labels cuts the edges between parts, so one
factorisation serves a whole set of interpolant blocks.  That system on
the free nodes is built from the five-point stencil rows of the nodes
outside the zero plate, which come from the ring radii and the ring and
angle indices, and is block diagonal, one block per part.  With each
part's nodes in its own (ring, column) order, the shorter side inner,
it is a band as wide as the widest part's shorter side (a
bandwidth-reducing order in the sense of Cuthill & McKee, Proc. 24th
ACM National Conference, 1969), and LAPACK's banded Cholesky
factorisation takes O(n b^2) for n unknowns in a band of b.  The same
rows give the residual and the parts' Dirichlet form: each part's energy
on the diagonal and, from the cut edges, the couplings between parts off
it.  Rows cost in proportion to the live nodes, an interpolant's small
supports, where the arrays cost in proportion to the whole grid.

The dense and banded factorisations (the equilibrium LDL^T, the
capacitance Cholesky, the banded Cholesky) and the capacitance matrix's
GEMMs run in numpy's own OpenBLAS, so no route here loads scipy, each
on one BLAS thread, set for the calling thread for the duration of the
call (see _blas).  At these sizes OpenBLAS's second thread pays too
little.  After any solve
of 128 rows or more its worker busy-waits about 120 ms for more work, so
in a loop of solves it never sleeps and the CPU time doubles; and of 300
back-to-back threaded solves of 128 rows, 6 stalled for up to 116 ms,
where on one thread the slowest took 0.7 ms (numpy 2.4 with OpenBLAS
0.3.31, 2 vCPUs).  The equilibrium LDL^T needs half the multiply-adds
of an LU, so on one thread it beats numpy's LU on two: 41-51 against
67-76 ms on 1536 nodes (64 arcs) and 292-328 against 366-377 ms on 3072.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _blas, geometry
from .errors import DomainError, NumericalError, ResolutionError
from .geometry import Arc, CarlesonBox, DiscPoint, HyperbolicDisc

# Calibration of C(E) = CAP_SCALE / (energy + CAP_SHIFT) against the grid
# value of cap_D(Delta_1(0), I) on single arcs.
# The constants are frozen, not refitted; the exact kernel of the annulus
# Delta_1(0) is to replace the map (direction 1 of ROADMAP.md).
# The denominator floor pins C at the grid value for the full circle so
# the formula stays positive and monotone for large arc unions.
CAP_SCALE = 2.904
CAP_SHIFT = -1.943
CAP_DEN_FLOOR = CAP_SCALE / 22.9

RIDGE_FACTOR = 1e-10

# quadrature nodes per arc: the one rule every fast-route number is
# computed with.  Under the frozen map above each node count gives its
# own capacity, with no reference to prefer one, so it is no setting.
QUAD_NODES = 24

# rows per strip of the equilibrium energy matrix; temporaries stay O(n * block)
_KERNEL_BLOCK = 64
_STRICT_LOWER = np.tri(_KERNEL_BLOCK, k=-1, dtype=bool)

# largest residual of a grid solve, relative to each free node's conductance sum
RESIDUAL_BOUND = 1e-10

# fewest grid nodes a rasterized plate may cover
MIN_PLATE_CELLS = 4

# columns of the capacitance matrix per GEMM; temporaries stay O(n_t * block)
_GREEN_BLOCK = 128
# largest log-range of a mode's P over the layer: each GEMM factor spans
# half of it, and e^700 is below the float maximum e^709.8
_GREEN_LOG_RANGE = 1400.0


@dataclass(frozen=True)
class EquilibriumMeasure:
    """Discrete unit-mass measure minimizing the log-kernel energy."""

    nodes: np.ndarray  # boundary angles
    weights: np.ndarray  # nonnegative, sums to 1
    energy: float


@dataclass(frozen=True)
class CondenserResult:
    value: float
    warnings: tuple = ()


@functools.cache
def _unit_arc_nodes() -> tuple[np.ndarray, np.ndarray]:
    """The QUAD_NODES nodes on [0, 1] and their cell widths, built once.

    The t = sin^2 substitution of the Gauss-Legendre nodes clusters them
    at the endpoints like the inverse-square-root blow-up of the
    equilibrium density.  The arrays are shared, so they are read-only.
    """
    x = np.polynomial.legendre.leggauss(QUAD_NODES)[0]
    tau = 0.5 * (x + 1.0)
    t = np.sin(0.5 * math.pi * tau) ** 2
    cells = np.diff(np.concatenate(([0.0], 0.5 * (t[1:] + t[:-1]), [1.0])))
    t.flags.writeable = False
    cells.flags.writeable = False
    return t, cells


def _nodes(arcs: geometry.ArcGroups) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quadrature angles and cell widths (radians) of every arc, and where each group's nodes start.

    An arc gets the QUAD_NODES nodes of _unit_arc_nodes from its start
    to its end.  Arcs shorter than the float resolution of absolute
    angles collapse to one node carrying the whole width; the point-mass
    energy log(2/width) is then the right self-interaction.
    """
    t, cells = _unit_arc_nodes()
    half = math.pi * arcs.length
    span = 2.0 * half
    angles = (arcs.center - half)[:, None] + t * span[:, None]
    widths = cells * span[:, None]
    tiny = arcs.length < 1e-12
    if not tiny.any():
        return angles.ravel(), widths.ravel(), QUAD_NODES * arcs.start
    # a tiny arc keeps its first node, at its center and as wide as it
    angles[tiny, 0] = arcs.center[tiny]
    widths[tiny, 0] = span[tiny]
    kept = np.ones(angles.shape, dtype=bool)
    kept[tiny, 1:] = False
    first = np.cumsum(np.concatenate([[0], np.where(tiny, 1, QUAD_NODES)]))
    return angles[kept], widths[kept], first[arcs.start]


def _energy_matrix(angles: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Log-kernel matrix log(1 / |sin((a_i - a_j) / 2)|) with self-cells on the diagonal.

    The upper triangle is filled in strips of rows, each computed in place
    in one reused buffer, and each strip is mirrored below the diagonal.
    Negating the angle difference is exact and sin is odd, so the mirror
    equals the formula evaluated there.
    """
    n = len(angles)
    k = np.empty((n, n))
    # halving the angles first is exact, so each difference is the halved one
    half = 0.5 * angles
    buffer = np.empty(min(n, _KERNEL_BLOCK) * n)
    for a in range(0, n, _KERNEL_BLOCK):
        b = min(a + _KERNEL_BLOCK, n)
        d = buffer[: (b - a) * (n - a)].reshape(b - a, n - a)
        np.subtract(half[a:b, None], half[None, a:], out=d)
        np.sin(d, out=d)
        np.abs(d, out=d)
        np.multiply(d, 2.0, out=d)
        with np.errstate(divide="ignore"):
            np.log(d, out=d)
        np.subtract(np.log(2.0), d, out=k[a:b, a:])
        k[b:, a:b] = k[a:b, b:].T
    np.fill_diagonal(k, np.log(2.0 / widths) + 1.5)
    return k


def _lower_energy(k: np.ndarray, diag: np.ndarray, w: np.ndarray) -> float:
    """w^T K w from K's strict lower triangle in k and its diagonal, in strips of rows."""
    n = len(w)
    below = 0.0
    for a in range(0, n, _KERNEL_BLOCK):
        b = min(a + _KERNEL_BLOCK, n)
        square = np.where(_STRICT_LOWER[: b - a, : b - a], k[a:b, a:b], 0.0)
        below += float(w[a:b] @ (k[a:b, :a] @ w[:a] + square @ w[a:b]))
    return 2.0 * below + float(w @ (diag * w))


def equilibrium_measure(arcs: list[Arc]) -> EquilibriumMeasure:
    """Equilibrium measure of a finite union of arcs; see equilibrium_measures."""
    (mu,) = equilibrium_measures(geometry.ArcGroups.from_lists([geometry.merge_arcs(arcs)]))
    if isinstance(mu, Exception):
        raise mu
    return mu


def equilibrium_measures(families: geometry.ArcGroups) -> list:
    """The equilibrium measure of each group of disjoint arcs, as merge_arc_groups gives them.

    Each entry is the group's EquilibriumMeasure, or the error its solve
    raised: a NumericalError, or a DomainError for an empty group.  The
    quadrature nodes of every group are laid out at once (_nodes), and
    the solves run one group at a time on one BLAS thread.

    The unit-mass measure with constant potential on the nodes minimises
    w^T K w subject to sum(w) = 1, so it is x / sum(x) for K x = 1.  A
    ridge of RIDGE_FACTOR times K's mean diagonal is added to the
    diagonal in place, and LAPACK's rook-pivoted LDL^T factorisation
    (_blas.solve_symmetric) factors the upper triangle of the same
    matrix in place, so the solve works in the one n x n matrix with no
    copy: the strict lower triangle and the saved diagonal still hold K.
    LDL^T, not Cholesky: K is symmetric but not always definite, e.g. on
    the full circle, where the two end nodes nearly meet across the wrap.
    Nonnegativity is enforced by an active-set sweep: nodes with negative
    weight are dropped and the system on the rest, gathered from the
    lower triangle with the ridged diagonal, solved again.  The energy
    w^T K w is summed from the lower triangle and the saved diagonal.
    """
    angles, widths, start = _nodes(families)
    start = start.tolist()
    out = []
    with _blas.single_thread():
        for a, b in zip(start, start[1:]):
            if a == b:
                out.append(DomainError("empty arc family"))
                continue
            try:
                out.append(_equilibrium(angles[a:b], widths[a:b]))
            except NumericalError as exc:
                out.append(exc)
    return out


def _equilibrium(angles: np.ndarray, widths: np.ndarray) -> EquilibriumMeasure:
    """The equilibrium measure on the given nodes; the caller holds one BLAS thread."""
    k = _energy_matrix(angles, widths)
    n = len(angles)
    diag = k.diagonal().copy()
    ridged = diag + RIDGE_FACTOR * np.trace(k) / n
    np.fill_diagonal(k, ridged)
    active = np.ones(n, dtype=bool)
    for _ in range(25):
        idx = np.flatnonzero(active)
        if len(idx) == n:
            # factored in place over the upper triangle; K stays in the lower
            block, lower = k, False
        else:
            block, lower = k[np.ix_(idx, idx)], True
            np.fill_diagonal(block, ridged[idx])
        try:
            x = _blas.solve_symmetric(block, np.ones(len(idx)), lower)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"equilibrium system singular: {exc}") from exc
        w = np.zeros(n)
        w[idx] = x / x.sum()
        neg = w < -1e-12
        if not neg.any():
            break
        active &= ~neg
    w = np.maximum(w, 0.0)
    total = w.sum()
    if not math.isfinite(total) or total <= 0:
        raise NumericalError("equilibrium weights degenerate")
    w /= total
    energy = _lower_energy(k, diag, w)
    if not math.isfinite(energy) or energy <= 0:
        raise NumericalError(f"nonpositive equilibrium energy {energy}")
    return EquilibriumMeasure(angles, w, energy)


def log_capacity(arcs: list[Arc]) -> float:
    """C(E) = cap_D(Delta_1(0), E) for a finite union of arcs; 0 if empty."""
    arcs = list(arcs)
    if not arcs:
        return 0.0
    return _calibrated(equilibrium_measure(arcs).energy)


def log_capacities(families: geometry.ArcGroups) -> list:
    """log_capacity of each group of disjoint arcs, as merge_arc_groups gives them.

    A group whose solve failed gets its NumericalError in place of the
    value (see equilibrium_measures).
    """
    start = families.start.tolist()
    return [
        0.0 if a == b else mu if isinstance(mu, Exception) else _calibrated(mu.energy)
        for a, b, mu in zip(start, start[1:], equilibrium_measures(families))
    ]


def _calibrated(energy: float) -> float:
    """C(E) from the equilibrium energy of E by the frozen affine map."""
    return CAP_SCALE / max(energy + CAP_SHIFT, CAP_DEN_FLOOR)


def condenser_capacity(z: DiscPoint, targets: list) -> CondenserResult:
    """cap_D(Delta_1(z), targets) for points and arcs via Mobius transfer to arcs at the origin.

    A point stands for the arc of its image; the reduction is a
    comparability, so a violated depth precondition is reported as a
    warning, not an error.  A point within hyperbolic distance 2 of z,
    whose unit disc touches Delta_1(z), gives capacity 0 by convention.
    The points' images and distances from z come from one PointSet call
    each.  Any other target raises a DomainError; boxes and discs are
    plates of the grid route (grid_condenser_capacity).
    """
    if not targets:
        raise DomainError("empty target list")
    for t in targets:
        if not isinstance(t, (DiscPoint, Arc)):
            raise DomainError(f"unsupported target type: {type(t).__name__}")
    at_z = geometry.PointSet.from_points([z])
    points = geometry.PointSet.from_points([t for t in targets if isinstance(t, DiscPoint)])
    images = iter(at_z.mobius(points).points())
    distances = iter(at_z.hyperbolic_distance(points).tolist())
    arcs = []
    warnings = []
    for t in targets:
        if isinstance(t, Arc):
            arcs.append(geometry.arc_mobius_image(z, t))
            continue
        image, distance = next(images), next(distances)
        if distance <= 2.0:
            return CondenserResult(0.0, ("plates intersect; capacity 0 by convention",))
        if t.depth > z.depth / 2.0:
            warnings.append("target depth exceeds half the base depth; comparability not guaranteed")
        arcs.append(Arc(image.theta, image.depth))
    value = log_capacity(arcs)
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
        # a ring node's conductance sum; the centre's is n_t _g_radial[0]
        self._g_sum = 2.0 * self._g_angular + self._g_radial + np.append(self._g_radial[1:], 0.0)

    @functools.cached_property
    def node_r(self) -> np.ndarray:
        """The radius of every node, indexed like the grid's nodes."""
        return np.concatenate([[0.0], np.repeat(self.ring_r, self.n_t)])

    @functools.cached_property
    def node_t(self) -> np.ndarray:
        """The angle of every node, indexed like the grid's nodes (the centre's is 0)."""
        return np.concatenate([[0.0], np.tile(self.thetas, self.n_rings)])

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

    def rasterize(self, plate, name: str = "plate") -> np.ndarray:
        """Mask of the grid nodes inside a plate.

        Only a window of rings and angles around the plate is tested, so
        the cost follows the plate's size, not the grid's; the test on
        each candidate node is the full-grid one.  A ResolutionError is
        raised where the plate covers fewer than MIN_PLATE_CELLS nodes.
        """
        mask = np.zeros(self.n_nodes, dtype=bool)
        if isinstance(plate, Arc):  # the box over the arc at inner radius 1: its last-ring nodes
            plate = CarlesonBox(plate, 1.0)
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
            # the window's complex positions, node by node as r e^{i theta}
            z = self.ring_r[k0:k1, None] * np.exp(1j * self.thetas[cols])
            mask[self._nodes(k0, k1, cols)] = (np.abs(z - c) <= rad).ravel()
            mask[0] = abs(c) <= rad
        elif isinstance(plate, CarlesonBox):
            k0 = int(np.searchsorted(self.ring_r, plate.inner_radius - 1e-15))
            mask[self._nodes(k0, self.n_rings, self._arc_columns(plate.base_arc))] = True
            mask[0] = plate.inner_radius == 0.0
        else:
            raise DomainError(f"unsupported plate type: {type(plate).__name__}")
        cells = int(np.count_nonzero(mask))
        if cells < MIN_PLATE_CELLS:
            raise ResolutionError(f"{name} covers only {cells} grid cells (< {MIN_PLATE_CELLS}); refine the grid")
        return mask

    @functools.cached_property
    def _modes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(pivots, rho, diag): the grid operator, centre node grounded, by mode.

        The operator on the ring nodes is then rotation invariant, so in
        the angular Fourier mode m it is one symmetric tridiagonal matrix
        T_m over the rings: diagonal g_in + g_out + g_angular lam_m, off
        the diagonal -g_radial, where lam_m = 2 - 2 cos(2 pi m / n_t) and
        ring 0's g_in is its spokes to the grounded centre.  Row m of
        each array is mode m, for m = 0..n_t // 2:

        * pivots, the LDL^T pivots of T_m, first ring first;
        * rho, the ratios g_radial / pivot between each ring and the
          next, by which every column of T_m^{-1} decays above its ring;
        * diag, the diagonal of T_m^{-1}.

        Each pivot and each diagonal entry is a sum of positive
        conductances: the ring's shunt g_angular lam_m plus the
        conductances to ground of the rings inside it and, for diag, of
        the rings outside it, each a series and parallel combination
        (zero outside the last ring for m = 0, whose outer side is
        Neumann).  Nothing cancels, so every entry is accurate to a few
        ulps however strongly the rings are graded.
        """
        n_rings = self.n_rings
        lam = 2.0 - 2.0 * np.cos(self.dtheta * np.arange(self.n_t // 2 + 1))
        shunt = lam[:, None] * self._g_angular
        g = self._g_radial[1:]
        inside = np.empty_like(shunt)
        outside = np.empty_like(shunt)
        inside[:, 0] = self._g_radial[0]
        outside[:, -1] = 0.0
        for k in range(1, n_rings):
            s = shunt[:, k - 1] + inside[:, k - 1]
            inside[:, k] = g[k - 1] * s / (g[k - 1] + s)
            s = shunt[:, n_rings - k] + outside[:, n_rings - k]
            outside[:, n_rings - k - 1] = g[n_rings - k - 1] * s / (g[n_rings - k - 1] + s)
        pivots = shunt + inside
        pivots[:, :-1] += g
        return pivots, g / pivots[:, :-1], 1.0 / (shunt + inside + outside)

    def _green(self, nodes: np.ndarray) -> np.ndarray:
        """The grounded Green's matrix on the given ring nodes (increasing).

        Entry (a, b) is the value at a of the potential of a unit charge
        at b with the centre node grounded.  T_m^{-1} is semiseparable
        (Meurant, SIAM J. Matrix Anal. Appl. 13, 1992): on rings k <= l,
        T_m^{-1}[k, l] = diag[m, l] P_m[l] / P_m[k], where P_m[k] is the
        product of rho[m, i] over i < k.  For nodes a, b at angles
        theta_a, theta_b on rings k_a <= k_b, G[a, b] is the inverse real
        DFT over the modes, the sum over m of (w_m / n_t) cos(m (theta_a
        - theta_b)) T_m^{-1}[k_a, k_b], with irfft's weights: w_m is 1 at
        m = 0 and m = n_t / 2, 2 otherwise.  As cos(x - y) = cos x cos y
        + sin x sin y, each term is a factor of a times one of b, so the
        upper triangle is X Y^T for two arrays with a row per node and a
        column per cos(m theta) and per sin(m theta), n_t columns in all
        (no sin at m = 0 or n_t / 2, where it vanishes): X holds
        (w_m / n_t) (s_m / P_m[k_a]) times cos(m theta_a) or
        sin(m theta_a), Y holds diag[m, k_b] (P_m[k_b] / s_m) times
        cos(m theta_b) or sin(m theta_b).  cos and sin are read from the
        grid's table at (m j) mod n_t for angle index j.  That costs
        O(nodes^2 n_t) multiply-adds in one BLAS GEMM per block.

        P_m comes from cumulative sums of log rho over the nodes' rings,
        so each entry carries a relative error of about |log P| eps.  The
        anchor s_m is the geometric midpoint of P_m over the nodes' rings,
        so where a mode's log P spans r over them none of its factors
        exceeds e^(r / 2); a NumericalError is raised where r exceeds
        _GREEN_LOG_RANGE, past which a factor could overflow.

        Only the upper block triangle is computed, one GEMM per column
        block of _GREEN_BLOCK nodes, straight into a Fortran-ordered
        array: LAPACK's upper triangle, factored in place.  The caller
        holds one BLAS thread (see _blas.single_thread) for the GEMMs as
        for the factorisation.  Y and the block's rows of X are built
        block by block, so the temporaries are O(n_t x block) besides X.
        Below the diagonal blocks the array
        holds zeros; a diagonal block's strict lower triangle holds values
        that are not G's, which LAPACK does not read.
        """
        _, rho, diag = self._modes
        n_t, n = self.n_t, len(nodes)
        green = np.zeros((n, n), order="F")
        if not n:
            return green
        n_cos, n_sin = len(rho), (n_t - 1) // 2
        k, j = np.divmod(nodes - 1, n_t)
        k0 = k[0]
        # log P_m on rings k0..k[-1], one row per ring, relative to ring k0; it falls outwards
        log_p = np.zeros((k[-1] - k0 + 1, n_cos))
        np.cumsum(np.log(rho[:, k0 : k[-1]].T), axis=0, out=log_p[1:])
        spread = -log_p[-1]
        if spread.max() > _GREEN_LOG_RANGE:
            raise NumericalError(
                f"mode {spread.argmax()}'s log-range {spread.max():.4g} over the layer's rings exceeds"
                f" {_GREEN_LOG_RANGE:g}, the most the capacitance matrix's factors can span"
            )
        log_p += 0.5 * spread
        m = np.arange(n_cos)
        weights = np.where((m == 0) | (2 * m == n_t), 1.0, 2.0) / n_t
        x_ring = weights * np.exp(-log_p)
        y_ring = diag[:, k0 : k[-1] + 1].T * np.exp(log_p)
        # the columns at each angle index the nodes use, read from the tables at (m j) mod n_t
        angles, angle_of = np.unique(j, return_inverse=True)
        turns = angles[:, None] * m % n_t
        basis = np.concatenate([np.cos(self.thetas)[turns], np.sin(self.thetas)[turns[:, 1 : n_sin + 1]]], axis=1)

        def scale(rows, by_mode, out):
            """rows times a factor per mode into out: the cos columns (m = 0..) and the sin columns (m = 1..)."""
            np.multiply(rows[:, :n_cos], by_mode, out=out[:, :n_cos])
            np.multiply(rows[:, n_cos:], by_mode[:, 1 : n_sin + 1], out=out[:, n_cos:])

        x = np.empty((n, n_t))
        for c0 in range(0, n, _GREEN_BLOCK):
            c1 = min(c0 + _GREEN_BLOCK, n)
            ring = k[c0:c1] - k0
            y = basis[angle_of[c0:c1]]
            scale(y, x_ring[ring], x[c0:c1])
            scale(y, y_ring[ring], y)
            # a diagonal block's lower triangle, not G's, can overflow
            with np.errstate(over="ignore", invalid="ignore"):
                np.matmul(y, x[:c1].T, out=green[:c1, c0:c1].T)
        return green

    def _radial_solve(self, rhs: np.ndarray) -> np.ndarray:
        """T_m x = rhs in every mode at once; rhs and x are (modes, rings)."""
        pivots, rho, _ = self._modes
        x = rhs.copy()
        for k in range(1, self.n_rings):
            x[:, k] += rho[:, k - 1] * x[:, k - 1]
        x /= pivots
        for k in range(self.n_rings - 2, -1, -1):
            x[:, k] += rho[:, k] * x[:, k + 1]
        return x

    def _layer(self, free: np.ndarray) -> np.ndarray:
        """The fixed ring nodes with a free neighbour, increasing.

        On the (ring, angle) array of the ring nodes a node's neighbours
        are one step away along either axis, wrapping in angle; ring 0
        also neighbours the centre node.
        """
        ring_free = free[1:].reshape(self.n_rings, self.n_t)
        near = np.roll(ring_free, 1, axis=1)
        near |= np.roll(ring_free, -1, axis=1)
        near[1:] |= ring_free[:-1]
        near[:-1] |= ring_free[1:]
        near[0] |= free[0]
        near &= ~ring_free
        return 1 + np.flatnonzero(near)

    def _flows(self, u: np.ndarray) -> tuple[np.ndarray, float]:
        """(L u, energy): the grid Laplacian of u at every node and u's Dirichlet energy.

        Both come from u's ring nodes as a (ring, angle) array, one edge
        family at a time: the angular edges from each node to the next
        on its ring, g = _g_angular[k] on ring k; the radial edges from
        ring k to ring k + 1, g = _g_radial[k + 1]; and the centre's
        spokes to ring 0, g = _g_radial[0].  The flow g d along an edge
        whose ends differ by d enters L u at its first end with + and at
        its second with -, and the energy sums g d^2 over every edge.
        """
        rings = u[1:].reshape(self.n_rings, self.n_t)
        angular = rings - np.roll(rings, -1, axis=1)
        radial = rings[:-1] - rings[1:]
        spokes = u[0] - rings[0]
        energy = float(
            self._g_angular @ np.einsum("kj,kj->k", angular, angular)
            + self._g_radial[1:] @ np.einsum("kj,kj->k", radial, radial)
            + self._g_radial[0] * (spokes @ spokes)
        )
        angular *= self._g_angular[:, None]
        radial *= self._g_radial[1:, None]
        spokes *= self._g_radial[0]
        lu = np.empty(self.n_nodes)
        lu[0] = spokes.sum()
        ring_lu = lu[1:].reshape(self.n_rings, self.n_t)
        np.subtract(angular, np.roll(angular, 1, axis=1), out=ring_lu)
        ring_lu[:-1] += radial
        ring_lu[1:] -= radial
        ring_lu[0] -= spokes
        return lu, energy

    def _capacitance_solve(self, u: np.ndarray, free: np.ndarray, layer: np.ndarray) -> np.ndarray:
        """Harmonic values on the free nodes, given u on the fixed ones.

        layer holds the fixed ring nodes with a free neighbour (see
        _layer).  Let G be the grounded Green's function (see _green)
        and put charges sigma on the layer: c + G sigma is harmonic at
        every free ring node.  It takes u's values on the layer if G's
        block on the layer, the capacitance matrix, maps sigma to u - c
        there.  That block is a principal block of the inverse of the
        grounded operator, so it is SPD, and one Cholesky solve with the
        two columns u and 1 gives x0 and x1: sigma = x0 - c x1 for every
        c.  When the centre is fixed, c is its value: G grounds the
        centre, so c + G sigma holds it at c.  When it is free, being
        harmonic there means the charges sum to 0, so c = sum(x0) /
        sum(x1).  The field then comes from one real FFT in angle, the
        tridiagonal solves over the rings and one inverse FFT.  With only
        the centre fixed the layer is empty, and so are the capacitance
        matrix and the charges: every node takes the centre's value.  A
        free centre has a layer, as solve refuses a grid with no node
        fixed.
        """
        rhs = np.ones((len(layer), 2), order="F")
        rhs[:, 0] = u[layer]
        try:
            with _blas.single_thread():
                x0, x1 = _blas.solve_definite(self._green(layer), rhs).T
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"capacitance matrix on {len(layer)} nodes not positive definite: {exc}") from exc
        c = x0.sum() / x1.sum() if free[0] else u[0]
        charges = x0 - c * x1
        f = np.zeros(self.n_nodes - 1)
        f[layer - 1] = charges
        modes = self._radial_solve(np.fft.rfft(f.reshape(self.n_rings, self.n_t), axis=1).T)
        field = c + np.fft.irfft(modes.T, self.n_t, axis=1).ravel()
        return np.concatenate([[c], field])[free]

    def solve(
        self, mask0: np.ndarray, mask1: np.ndarray, parts: np.ndarray | None = None
    ) -> tuple[np.ndarray, float | np.ndarray]:
        """Harmonic values with u=0 on mask0, u=1 on mask1; returns (u, energy).

        parts, if given, labels every node outside mask0 with an integer
        >= 0.  An edge between two parts is cut: each side sees 0 across
        it, as if the other part were in mask0, and energy is the parts'
        Dirichlet form B L B^T by label (row i of B is u on part i, 0 off it).

        Without parts the free values come from the capacitance matrix
        of the fixed ring nodes next to free ones (see _capacitance_solve
        and _layer), and the residual L u at every free node, the centre
        included, and the energy come from the ring x angle arrays (see
        _flows), so no node's stencil row is built.  With parts the
        system on the free nodes is built from the stencil rows of the
        nodes outside mask0 (see _parts_solve).

        Each route checks every free node's residual: a NumericalError
        is raised if one exceeds RESIDUAL_BOUND times the node's
        conductance sum, its scale for values in [0, 1].
        """
        if (mask0 & mask1).any():
            return np.zeros(self.n_nodes), 0.0 if parts is None else np.zeros((parts.max() + 1,) * 2)
        u = np.zeros(self.n_nodes)
        u[mask1] = 1.0
        if parts is not None:
            return u, self._parts_solve(u, mask0, mask1, parts)
        free = ~(mask0 | mask1)
        if free.all():
            raise DomainError("no node is fixed; a condenser solve needs a plate")
        if free.any():
            u[free] = self._capacitance_solve(u, free, self._layer(free))
        lu, energy = self._flows(u)
        lu[0] /= self.n_t * self._g_radial[0]
        ring_lu = lu[1:].reshape(self.n_rings, self.n_t)
        ring_lu /= self._g_sum[:, None]
        _check_residual(lu[free])
        return u, energy

    def _parts_solve(self, u: np.ndarray, mask0: np.ndarray, mask1: np.ndarray, parts: np.ndarray) -> np.ndarray:
        """Harmonic values part by part into u's free nodes; returns the parts' Dirichlet form.

        The system on the free nodes comes from the stencil rows of the
        nodes outside mask0, with the edges between parts cut.  It is
        symmetric positive definite (the grid graph is connected, the
        fixed set is not empty, and a cut edge leaves its g on the
        diagonal), and no edge joins two parts, so in the parts' band
        order (see _band_order) one banded Cholesky factorisation solves
        it (see _banded_solve).  Every edge with no end outside mask0
        joins two zeros, so the form sums only the same rows, which also
        give each free node's residual: the energies on the diagonal, and
        off it -g u_h u_t of each cut edge between two parts.

        The centre node must be fixed: a DomainError is raised if it is
        free.  An interpolant's support holds the centre only when its
        point is within rounding of the origin, and then so does the
        point's core disc.
        """
        live = ~mask0
        free = live & ~mask1
        if free[0]:
            raise DomainError("the centre node is free; a parts solve needs it in mask0 or mask1")
        heads, tails, g = self._stencil(np.flatnonzero(live))
        joined = live[tails] & (parts[heads] == parts[tails])
        if free.any():
            u[free] = self._banded_solve(free, mask1, parts, heads, tails, g, joined)
        d = u[heads] - np.where(joined, u[tails], 0.0)
        residual = np.bincount(heads, weights=g * d, minlength=self.n_nodes)[free]
        _check_residual(residual / self._g_sum[(np.flatnonzero(free) - 1) // self.n_t])
        n = parts.max() + 1
        # an edge joining two live nodes of one part sits in both their rows: count it once
        once = ~joined | (heads < tails)
        energies = np.bincount(parts[heads[once]], weights=(g * d * d)[once], minlength=n)
        # a cut edge between two parts sits in both their rows: once for each side of the form
        cut = live[tails] & ~joined
        heads, tails, g = heads[cut], tails[cut], g[cut]
        coupling = np.bincount(parts[heads] * n + parts[tails], weights=g * u[heads] * u[tails], minlength=n * n)
        return np.diag(energies) - coupling.reshape(n, n)

    def _band_order(self, nodes: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """The order of the given nodes (increasing) that keeps each part in a narrow band.

        The nodes go by part label, and within a part by (outer, inner)
        index.  A node's two indices are its ring offset from the part's
        innermost ring and its column offset from the column just after
        the part's largest angular gap, so a part that wraps across angle
        0 stays contiguous.  The inner index is the part's shorter side,
        which is then the band's width.  A part that closes the circle
        has no gap: its columns go folded, 0, n_t - 1, 1, n_t - 2, ...,
        so that neighbours stay at most two columns apart, and its ring
        side counts twice.  The nodes are ring nodes: a parts solve
        holds the centre fixed.
        """
        n_t = self.n_t
        n_parts = labels.max() + 1
        k, j = np.divmod(nodes - 1, n_t)
        # each part's columns in order, with the gap before each, cyclically
        used = np.zeros((n_parts, n_t), dtype=bool)
        used[labels, j] = True
        cl, cj = np.nonzero(used)
        first = np.flatnonzero(np.diff(cl, prepend=-1))
        last = np.flatnonzero(np.diff(cl, append=n_parts))
        gap = np.diff(cj, prepend=0)
        gap[first] = cj[first] + n_t - cj[last]
        widest = np.lexsort((-gap, cl))[first]
        start = np.zeros(n_parts, dtype=k.dtype)
        start[cl[first]] = cj[widest]
        width = np.zeros(n_parts, dtype=k.dtype)
        width[cl[first]] = n_t + 1 - gap[widest]
        inner_ring = np.full(n_parts, self.n_rings, dtype=k.dtype)
        np.minimum.at(inner_ring, labels, k)
        height = np.zeros(n_parts, dtype=k.dtype)
        np.maximum.at(height, labels, k + 1)
        height -= inner_ring
        closed = width == n_t
        ring_major = width <= np.where(closed, 2 * height, height)
        ring_off = k - inner_ring[labels]
        col_off = (j - start[labels]) % n_t
        col_off = np.where(closed[labels], np.minimum(2 * col_off, 2 * (n_t - col_off) - 1), col_off)
        by_ring = ring_major[labels]
        outer = np.where(by_ring, ring_off, col_off)
        inner = np.where(by_ring, col_off, ring_off)
        # one sort key: both offsets are below span
        span = max(n_t, self.n_rings)
        return np.argsort((labels * span + outer) * span + inner)

    def _banded_solve(
        self,
        free: np.ndarray,
        mask1: np.ndarray,
        parts: np.ndarray,
        heads: np.ndarray,
        tails: np.ndarray,
        g: np.ndarray,
        joined: np.ndarray,
    ) -> np.ndarray:
        """Values on the free nodes from their stencil rows, by a banded Cholesky factorisation.

        The matrix's rows and columns go in the parts' band order (see
        _band_order).  Row r of the lower band ab holds the entries r
        below the diagonal: ab[0] the conductance sums, and -g at
        ab[p - q, q] for each joined edge between the free nodes in rows
        p > q.
        """
        nodes = np.flatnonzero(free)
        n_free = len(nodes)
        # the matrix row of each free node, and a spare row for the fixed ones
        pos = np.full(self.n_nodes, n_free)
        pos[nodes[self._band_order(nodes, parts[nodes])]] = np.arange(n_free)
        rows = pos[heads]
        # a tail above a free head's row is free itself
        lower = joined & free[heads] & (pos[tails] < rows)
        cols = pos[tails[lower]]
        offsets = rows[lower] - cols
        # in LAPACK's column-major layout, so it is factored in place
        ab = np.zeros((1 + offsets.max(initial=0), n_free), order="F")
        ab[0] = np.bincount(rows, weights=g, minlength=n_free + 1)[:n_free]
        ab[offsets, cols] = -g[lower]
        rhs = np.bincount(rows, weights=g * (joined & mask1[tails]), minlength=n_free + 1)[:n_free]
        try:
            with _blas.single_thread():
                x = _blas.solve_banded(ab, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"banded system on {n_free} nodes, bandwidth {len(ab) - 1}, not positive definite: {exc}"
            ) from exc
        return x[pos[nodes]]


def _check_residual(relative: np.ndarray) -> None:
    """Raise a NumericalError if a residual, relative to its node's conductance sum, exceeds RESIDUAL_BOUND."""
    worst = float(np.max(np.abs(relative), initial=0.0))
    if not worst <= RESIDUAL_BOUND:
        raise NumericalError(f"grid solve residual {worst:.3g} of the conductance sum exceeds {RESIDUAL_BOUND:g}")


def _angles_in_arc(thetas: np.ndarray, arc: Arc) -> np.ndarray:
    if arc.is_full_circle():
        return np.ones_like(thetas, dtype=bool)
    d = np.mod(thetas - arc.center_angle + math.pi, 2.0 * math.pi) - math.pi
    return np.abs(d) <= arc.half_width * (1 + 1e-15)


class GridPotential:
    """Discrete potential with its energy; values indexed like the grid's nodes.

    values is given as the solved array, or as a function of no arguments
    that builds it: an assembled interpolant's energy needs no grid
    function, so its array is built on the first read of values and kept.
    """

    def __init__(self, grid: PolarGrid, values, energy: float):
        self.grid = grid
        self.energy = energy
        if callable(values):
            self._build_values = values
        else:
            # an instance attribute shadows the cached property
            self.__dict__["values"] = values

    @functools.cached_property
    def values(self) -> np.ndarray:
        return self._build_values()


def _plate_min_depth(inner: HyperbolicDisc, outer: list) -> float:
    depths = []
    c, rad = inner.euclidean()
    depths.append(max(1.0 - (abs(c) + rad), 1e-6))
    for t in outer:
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


def grid_condenser_capacity(
    inner: HyperbolicDisc, outer: list, resolution: tuple[int, int] = (96, 256)
) -> GridPotential:
    """Energy-minimizing grid potential for a condenser; energy ~ capacity.

    The plates are the disc inner at potential 0 and the outer ones, arcs,
    boxes or hyperbolic discs, at potential 1.
    """
    n_r, n_t = resolution
    grid = PolarGrid(n_r, n_t, _plate_min_depth(inner, outer))
    mask0 = grid.rasterize(inner, "inner plate")
    mask1 = np.zeros(grid.n_nodes, dtype=bool)
    for i, t in enumerate(outer):
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
    return tuple(grid_condenser_capacity(inner, plates, resolution).energy for plates in plate_sets)
