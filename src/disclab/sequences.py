"""Sequence-level machinery for interpolation diagnostics.

Vicinities, the weak separation / capacitary / Carleson / restricted
vicinity checkers, generators, and the grid assembly of W^{1,2}
interpolants from condenser equilibrium blocks.  On prebuilt blocks an
assembly costs one quadratic form in their Gram matrix, O(n^2) on n
points; its grid function is built on the first read of its values.
read_json is the one reader of input files: sequences here, arc
families and condenser specs in the command line tool, which writes
every output file.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import capacity, geometry
from .errors import DomainError, InputError, ResolutionError
from .geometry import DiscPoint

DEFAULT_GAMMA = 0.75
DEFAULT_ETA = 0.9
DEFAULT_DELTA = 0.1
COMPARABILITY_BUDGET = 64.0

# rows per numpy block of the pairwise checks; memory stays O(n * block)
_PAIR_BLOCK = 64


@dataclass(frozen=True)
class Sequence:
    """Finite (truncated) point sequence with cached kernel norms."""

    points: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))

    def __len__(self) -> int:
        return len(self.points)

    # cached_property stores into __dict__, past the frozen __setattr__
    @functools.cached_property
    def pointset(self) -> geometry.PointSet:
        """The points as arrays, for the pairwise checks."""
        return geometry.PointSet.from_points(self.points)

    @functools.cached_property
    def norms(self) -> tuple:
        """Kernel norms d(z_i); the weights of the associated measure."""
        return tuple(self.pointset.norm_sq.tolist())

    @functools.cached_property
    def _vicinity_cache(self) -> dict:
        """The swept vicinity lists by gamma, filled by _vicinities."""
        return {}


def sequence_from_json(d: dict) -> Sequence:
    try:
        pts = tuple(geometry.point_from_json(p) for p in d["points"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed sequence JSON: {exc}") from exc
    return Sequence(pts)


def read_json(path) -> dict:
    """The JSON object in a UTF-8 file; InputError if the file cannot be
    read, decoded or parsed, or holds anything but an object."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    # JSONDecodeError and UnicodeDecodeError are both ValueErrors
    except (OSError, ValueError) as exc:
        raise InputError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: want a JSON object, got a {type(data).__name__}")
    return data


def load_sequence(path) -> Sequence:
    return sequence_from_json(read_json(path))


@dataclass
class CheckReport:
    """Per-point ledger of a condition check.

    Each record carries (index, lhs, rhs, ratio); the check passes iff
    sup_ratio stays within the budget stored in params["K"].  A NaN
    ratio marks a point whose solve failed: the sup and the witness come
    from the other points, and passed is None, as the verdict is not
    determined.
    """

    condition_name: str
    records: list
    sup_ratio: float
    witness_index: int | None
    passed: bool | None
    params: dict
    warnings: tuple = ()

    def to_json(self) -> dict:
        return {
            "condition_name": self.condition_name,
            "records": self.records,
            "sup_ratio": self.sup_ratio,
            "witness_index": self.witness_index,
            "pass": self.passed,
            "params": self.params,
            "warnings": list(self.warnings),
        }


def _finish(name, records, params, budget, warnings=()):
    sup = 0.0
    witness = None
    for rec in records:
        ratio = rec["ratio"]
        if not math.isnan(ratio) and (witness is None or ratio > sup):
            sup = ratio
            witness = rec["index"]
    passed = None if any(math.isnan(rec["ratio"]) for rec in records) else sup <= budget
    return CheckReport(name, records, sup, witness, passed, params, tuple(warnings))


@dataclass(frozen=True)
class _Vicinities:
    """The vicinity lists of every point of one sequence at one gamma.

    The members of point i are members[start[i]:start[i + 1]], ascending.
    Point i's expanded box has base arc (center[i], length[i]).
    """

    start: np.ndarray
    members: np.ndarray
    center: np.ndarray
    length: np.ndarray


def _vicinities(seq: Sequence, gamma: float) -> _Vicinities:
    """The vicinity lists of seq at gamma, swept once and kept on seq."""
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"gamma out of (0, 1): {gamma}")
    cached = seq._vicinity_cache.get(gamma)
    if cached is None:
        cached = seq._vicinity_cache[gamma] = _sweep_vicinities(seq, gamma)
    return cached


def _sweep_vicinities(seq: Sequence, gamma: float) -> _Vicinities:
    pts = seq.pointset
    n = len(pts)
    center = geometry._wrap_angles(pts.theta)
    # the origin has no expanded box and is deeper than no point: it is in no list
    boxed = np.flatnonzero(pts.depth < 1.0)
    length = np.ones(n)
    # Python's pow, as expanded_box takes it, keeps every verdict exact
    length[boxed] = [d**gamma for d in pts.depth[boxed].tolist()]
    i, j = geometry.intersecting_arc_pairs(center[boxed], math.pi * length[boxed])
    i, j = boxed[i], boxed[j]
    # of a meeting pair i < j, the deeper point joins the other's vicinity;
    # on equal depth the later index does
    deeper_j = pts.depth[j] <= pts.depth[i]
    owner = np.where(deeper_j, i, j)
    member = np.where(deeper_j, j, i)
    order = np.lexsort((member, owner))
    start = np.concatenate(([0], np.cumsum(np.bincount(owner, minlength=n))))
    return _Vicinities(start, member[order], center, length)


def vicinity(seq: Sequence, i: int, gamma: float = DEFAULT_GAMMA) -> list[int]:
    """Indices j with |z_j| >= |z_i| whose expanded boxes meet z_i's.

    Equal radii are broken by index order so the relation stays
    antisymmetric.
    """
    lists = _vicinities(seq, gamma)
    i = range(len(seq))[i]
    if seq.points[i].is_origin():
        raise DomainError("expanded box undefined at the origin")
    return lists.members[lists.start[i] : lists.start[i + 1]].tolist()


def restricted_vicinity(seq: Sequence, i: int, gamma: float = DEFAULT_GAMMA) -> list[int]:
    """Vicinity members whose plain box is not swallowed by another member's
    expanded box."""
    vic = np.array(vicinity(seq, i, gamma), dtype=np.int64)
    lists = _vicinities(seq, gamma)
    depth = seq.pointset.depth
    # expanded box k over plain box j, tried for the members j not yet
    # swallowed against blocks of k, widest boxes first
    kept = np.ones(len(vic), dtype=bool)
    widest = vic[np.argsort(-lists.length[vic], kind="stable")]
    for a in range(0, len(vic), _PAIR_BLOCK):
        k = widest[a : a + _PAIR_BLOCK]
        j = vic[kept, None]
        radius = np.where(lists.length[k] >= 1.0, 0.0, 1.0 - lists.length[k])
        inside = geometry.boxes_contain(
            lists.center[k], lists.length[k], radius, lists.center[j], depth[j], 1.0 - depth[j]
        )
        kept[kept] = ~(inside & (j != k)).any(axis=1)
    return vic[kept].tolist()


def check_weak_separation(seq: Sequence, delta: float = DEFAULT_DELTA) -> CheckReport:
    """Pairwise kernel-metric separation; passes iff min distance > delta.

    Also records the hyperbolic-form minimum of d(z_i, z_j)/(d(z_i,0)+1)
    for diagnostics.  Each unordered pair is evaluated once, in blocks of
    rows.
    """
    n = len(seq)
    if n < 2:
        raise DomainError("need at least two points")
    pts = seq.pointset
    to_origin = pts.hyperbolic_distance(geometry.PointSet.from_points([geometry.ORIGIN]))
    best = np.full(n, math.inf)
    hyp_min = math.inf
    for a in range(0, n - 1, _PAIR_BLOCK):
        b = min(a + _PAIR_BLOCK, n - 1)
        rows, cols = pts[a:b, None], pts[a + 1 :]
        upper = np.arange(a + 1, n) > np.arange(a, b)[:, None]
        metric = np.where(upper, rows.dirichlet_metric(cols), math.inf)
        best[a:b] = np.minimum(best[a:b], metric.min(axis=1))
        best[a + 1 :] = np.minimum(best[a + 1 :], metric.min(axis=0))
        # the distance is symmetric, so of the two ratios of a pair the
        # one over the larger distance to the origin is the smaller
        form = rows.hyperbolic_distance(cols) / (
            np.maximum(to_origin[a:b, None], to_origin[a + 1 :]) + 1.0
        )
        hyp_min = min(hyp_min, float(np.where(upper, form, math.inf).min()))
    records = [
        {"index": i, "lhs": delta, "rhs": r, "ratio": delta / r if r > 0 else math.inf}
        for i, r in enumerate(best.tolist())
    ]
    metric_min = float(best.min())
    params = {"delta": delta, "K": 1.0, "metric_min": metric_min, "hyperbolic_form_min": hyp_min}
    report = _finish("weak_separation", records, params, 1.0)
    report.passed = metric_min > delta
    return report


def check_capacitary_condition(
    seq: Sequence,
    gamma: float = DEFAULT_GAMMA,
    budget: float = COMPARABILITY_BUDGET,
) -> CheckReport:
    """Capacity of the Mobius-pulled vicinity arcs against 1/d(z_i).

    The capacities' inputs come from one array pass over the vicinity
    lists: one Mobius call over every (point, member) pair, the images'
    boundary arcs as arrays, one merge of all vicinities
    (geometry.merge_arc_groups) and one layout of their quadrature nodes.
    Only the equilibrium solves run vicinity by vicinity
    (capacity.log_capacities).  A point with a member whose image the
    disc refuses or is the origin, or whose solve fails, gets a NaN
    record and a warning; the other records are unaffected.
    """
    warnings = []
    if len({(p.theta, p.depth) for p in seq.points}) < len(seq):
        warnings.append("sequence has coincident points; weak separation fails")
    lists = _vicinities(seq, gamma)
    pts = seq.pointset
    if (pts.depth == 1.0).any():
        raise DomainError("expanded box undefined at the origin")
    n = len(seq)
    owner = np.repeat(np.arange(n), lists.start[1:] - lists.start[:-1])
    images = pts[owner]._mobius(pts[lists.members])
    # each point's first refused image, as mobius reports it; else its first image at the origin
    failed = {}
    for k in np.flatnonzero(~(images.depth > 0.0)).tolist():
        failed.setdefault(int(owner[k]), geometry._outside_disc(images.theta[k], images.depth[k]))
    for k in np.flatnonzero(images.depth == 1.0).tolist():
        failed.setdefault(int(owner[k]), geometry._origin_arc())
    # the image arcs are (theta, depth), as boundary_arc makes them; a point that failed keeps none
    theta, depth, start = images.theta, images.depth, lists.start
    if failed:
        kept = np.ones(n, dtype=bool)
        kept[list(failed)] = False
        kept = kept[owner]
        theta, depth = theta[kept], depth[kept]
        start = np.concatenate([[0], np.cumsum(np.bincount(owner[kept], minlength=n))])
    arcs = geometry.ArcGroups(theta, depth, start)
    records = []
    for i, (d_i, lhs) in enumerate(zip(seq.norms, capacity.log_capacities(geometry.merge_arc_groups(arcs)))):
        exc = failed.get(i, lhs if isinstance(lhs, Exception) else None)
        if exc is not None:
            warnings.append(f"capacity solver failed at index {i}: {exc}")
            records.append({"index": i, "lhs": math.nan, "rhs": 1.0 / d_i, "ratio": math.nan})
            continue
        records.append({"index": i, "lhs": lhs, "rhs": 1.0 / d_i, "ratio": lhs * d_i})
    params = {"gamma": gamma, "quad_nodes_per_arc": capacity.QUAD_NODES, "K": budget}
    return _finish("capacitary_condition", records, params, budget, warnings)


def check_carleson(
    seq: Sequence,
    test_families: list,
    budget: float = COMPARABILITY_BUDGET,
) -> CheckReport:
    """Mass-in-box against capacity over the supplied arc families only.

    A sampler for the necessary condition, not an exhaustive supremum.
    The families are merged in one call, and their capacities come from
    the merged arcs in one more.
    """
    records = []
    pts = seq.pointset
    merged = geometry.merge_arc_groups(geometry.ArcGroups.from_lists(test_families))
    for fi, cap_e in enumerate(capacity.log_capacities(merged)):
        if isinstance(cap_e, Exception):
            raise cap_e
        center = merged.center[merged.start[fi] : merged.start[fi + 1]]
        length = merged.length[merged.start[fi] : merged.start[fi + 1]]
        # points x boxes: the box over each merged arc has inner radius
        # max(1 - length, 0); the angle slack covers rounded endpoint angles
        gap = np.abs(geometry._signed_angles(pts.theta[:, None] - center))
        inside = (1.0 - pts.depth[:, None] >= np.maximum(1.0 - length, 0.0)) & (
            (length >= 1.0) | (gap <= math.pi * length * (1 + 1e-15) + 1e-14)
        )
        # Python's sum in point order, as the scalar loop added the masses
        mass = sum((1.0 / d for d, hit in zip(seq.norms, inside.any(axis=1).tolist()) if hit), 0.0)
        # positive mass needs a point over a merged arc, so cap_e > 0 then
        ratio = mass / cap_e if mass else 0.0
        records.append({"index": fi, "lhs": mass, "rhs": cap_e, "ratio": ratio})
    params = {"quad_nodes_per_arc": capacity.QUAD_NODES, "K": budget, "families": len(test_families)}
    return _finish("carleson_measure", records, params, budget)


def check_finite_measure(seq: Sequence) -> float:
    """Total mass of the associated measure, sum of 1/d(z_i)."""
    return sum((1.0 / d for d in seq.norms), 0.0)


def check_theorem_d(
    seq: Sequence, gamma: float = DEFAULT_GAMMA, budget: float = COMPARABILITY_BUDGET
) -> CheckReport:
    """Restricted-vicinity mass sum against 1/d(z_i).

    How large gamma must be for this to be a sufficient condition is not
    quantified; the parameter is explicit for that reason.
    """
    records = []
    for i, d_i in enumerate(seq.norms):
        total = sum((1.0 / seq.norms[j] for j in restricted_vicinity(seq, i, gamma)), 0.0)
        records.append({"index": i, "lhs": total, "rhs": 1.0 / d_i, "ratio": total * d_i})
    params = {"gamma": gamma, "K": budget}
    return _finish("restricted_vicinity_sum", records, params, budget)


# ---------------------------------------------------------------------------
# generators


def disjoint_boxes(
    count: int = 10,
    seed: int = 0,
    eta: float = DEFAULT_GAMMA,
    depth_min: float = 2.0**-8,
    depth_max: float = 2.0**-6,
) -> Sequence:
    """count points with depths log-uniform in [depth_min, depth_max] and disjoint eta-expanded boxes."""
    if not (0.0 < depth_min <= depth_max < 1.0 and 0.0 < eta < 1.0):
        raise InputError(f"bad disjoint_boxes params: eta={eta}, depth_min={depth_min}, depth_max={depth_max}")
    rng = np.random.default_rng(seed)
    depths = np.exp(rng.uniform(math.log(depth_min), math.log(depth_max), size=count))
    depths.sort()
    depths = depths[::-1]  # shallow first so the sequence is radius-ordered
    placed = []  # (center fraction, half-length fraction)
    pts = []
    for i, depth in enumerate(depths):
        half = 0.5 * depth**eta
        ok_angle = None
        for _ in range(600):
            frac = rng.uniform(0.0, 1.0)
            if all(min(abs(frac - c), 1.0 - abs(frac - c)) > half + h for c, h in placed):
                ok_angle = frac
                break
        if ok_angle is None:
            raise InputError(
                f"cannot place point #{i} (depth={depth:.3g}): no free angular slot"
            )
        placed.append((ok_angle, half))
        pts.append(DiscPoint(2.0 * math.pi * ok_angle, float(depth)))
    seq = Sequence(tuple(pts))
    for i in range(count):
        if vicinity(seq, i, eta):
            raise InputError(f"disjoint_boxes produced overlapping boxes at point #{i}")
    return seq


def union(parts) -> Sequence:
    """The points of all parts, deepest last."""
    pts = [p for part in parts for p in part.points]
    pts.sort(key=lambda p: -p.depth)
    return Sequence(tuple(pts))


# ---------------------------------------------------------------------------
# W^{1,2} interpolant assembly


@dataclass(frozen=True)
class InterpolantBlocks:
    """Fixed condenser-potential blocks for one (sequence, gamma, grid).

    The supports are pairwise disjoint, so the blocks are stored as one
    value per covered node: block owner[k] takes the value values[k] at
    node nodes[k] and vanishes off its support.  gram is the W^{1,2} form
    on the blocks, B (L + diag(areas)) B^T: their one solve returns
    B L B^T (see PolarGrid.solve), whose diagonal is block_energies.
    The arrays are read-only, as an assembled interpolant reads them
    only when its grid values are first read.
    """

    grid: capacity.PolarGrid
    nodes: np.ndarray  # the covered nodes, increasing
    owner: np.ndarray  # the block of each covered node
    values: np.ndarray  # each covered node's value in its block
    block_energies: np.ndarray
    gram: np.ndarray  # (n_points, n_points)

    def __post_init__(self):
        for array in (self.nodes, self.owner, self.values, self.block_energies, self.gram):
            array.flags.writeable = False


def _build_blocks(seq: Sequence, gamma: float, resolution) -> InterpolantBlocks:
    n_r, n_t = resolution
    n = len(seq)
    min_depth = min(0.5, min(p.depth for p in seq.points) / 8.0)
    grid = capacity.PolarGrid(n_r, n_t, max(min_depth, 1e-6))
    supports = [
        np.flatnonzero(grid.rasterize(geometry.expanded_box(z, gamma), f"support region of point {i}"))
        for i, z in enumerate(seq.points)
    ]
    # a node claimed by two regions belongs to neither, so the regions are pairwise disjoint
    claims = np.bincount(np.concatenate(supports), minlength=grid.n_nodes)
    supports = [s[claims[s] == 1] for s in supports]
    owner = np.full(grid.n_nodes, -1)
    cores = np.zeros(grid.n_nodes, dtype=bool)
    for i, (z, support) in enumerate(zip(seq.points, supports)):
        owner[support] = i
        inner = grid.rasterize(geometry.unit_hyperbolic_disc(z), f"core disc of point {i}") & (owner == i)
        if not inner.any():
            raise ResolutionError(
                f"core disc of point {i} (depth {z.depth:.3g}) lost to neighboring supports; refine the grid"
            )
        cores |= inner
    # one solve for all blocks: the supports are its parts, so each block
    # sees 0 across the edges to its neighbours, as if they were in mask0
    covered = owner >= 0
    u, form = grid.solve(~covered, cores, owner)
    nodes = np.flatnonzero(covered)
    l2 = np.bincount(owner[nodes], weights=grid.node_areas()[nodes] * u[nodes] ** 2, minlength=n)
    gram = form + np.diag(l2)
    return InterpolantBlocks(grid, nodes, owner[nodes], u[nodes], form.diagonal(), gram)


def _grid_values(blocks: InterpolantBlocks, coeffs: np.ndarray) -> np.ndarray:
    """The sum of the blocks scaled by coeffs, as a full-grid array."""
    values = np.zeros(blocks.grid.n_nodes)
    values[blocks.nodes] = coeffs[blocks.owner] * blocks.values
    return values


def assemble_sobolev_interpolant(
    seq: Sequence,
    data,
    gamma: float = DEFAULT_GAMMA,
    resolution: tuple[int, int] = (64, 256),
    blocks: InterpolantBlocks | None = None,
) -> tuple[capacity.GridPotential, float]:
    """Sum of scaled condenser-potential blocks hitting the target values.

    The block of z_i equals 1 on the cells of its core disc and vanishes
    outside its support region, so the assembled function takes the value
    a_i sqrt(d(z_i)) on the core cells.  Returns the grid function and
    its W^{1,2} energy (Dirichlet part plus L2 part).  Pass a
    prebuilt InterpolantBlocks to reuse the solves across data vectors:
    each assembly then costs one quadratic form in their Gram matrix,
    O(n^2) on n points, and the grid function is built on the first read
    of its values.
    """
    if blocks is not None and len(blocks.gram) != len(seq):
        raise InputError(f"blocks built for {len(blocks.gram)} points do not match sequence length {len(seq)}")
    data = np.asarray(data, dtype=float)
    if data.shape != (len(seq),):
        raise InputError(f"data length {data.shape} does not match sequence length {len(seq)}")
    if blocks is None:
        blocks = _build_blocks(seq, gamma, resolution)
    coeffs = data * np.sqrt(seq.pointset.norm_sq)
    energy = float(coeffs @ blocks.gram @ coeffs)
    return capacity.GridPotential(blocks.grid, functools.partial(_grid_values, blocks, coeffs), energy), energy
