"""Sequence-level machinery for interpolation diagnostics.

Vicinities, the weak separation / capacitary / Carleson / restricted
vicinity checkers, normalization, generators, and the grid assembly of
W^{1,2} interpolants from condenser equilibrium blocks.
"""

from __future__ import annotations

import csv
import json
import math
import warnings as _warnings
from dataclasses import dataclass, field

import numpy as np

from . import capacity, geometry
from .errors import DomainError, InputError, NumericalError, ResolutionError
from .geometry import Arc, CarlesonBox, DiscPoint

DEFAULT_GAMMA = 0.75
DEFAULT_ETA = 0.9
DEFAULT_BETA = 0.5
DEFAULT_DELTA = 0.1
COMPARABILITY_BUDGET = 64.0
NORMALIZED_NORM_FLOOR = 100.0


@dataclass(frozen=True)
class Sequence:
    """Finite (truncated) point sequence with cached kernel norms.

    tail_bound, when set by a generator, bounds the depth sum of the
    dropped infinite tail.
    """

    points: tuple
    label: str = ""
    tail_bound: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))

    def __len__(self) -> int:
        return len(self.points)

    @property
    def norms(self) -> tuple:
        """Kernel norms d(z_i); the weights of the associated measure."""
        cached = getattr(self, "_norms", None)
        if cached is None:
            cached = tuple(geometry.kernel_norm_sq(p) for p in self.points)
            object.__setattr__(self, "_norms", cached)
        return cached

    def to_json(self) -> dict:
        out = {"label": self.label, "points": [geometry.point_to_json(p) for p in self.points]}
        if self.tail_bound is not None:
            out["tail_bound"] = self.tail_bound
        return out


def sequence_from_json(d: dict) -> Sequence:
    try:
        pts = tuple(geometry.point_from_json(p) for p in d["points"])
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed sequence JSON: {exc}") from exc
    return Sequence(pts, d.get("label", ""), d.get("tail_bound"))


def load_sequence(path) -> Sequence:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: {exc}") from exc
    return sequence_from_json(data)


@dataclass
class CheckReport:
    """Per-point ledger of a condition check.

    Each record carries (index, lhs, rhs, ratio); the check passes iff
    sup_ratio stays within the budget stored in params["K"].
    """

    condition_name: str
    records: list
    sup_ratio: float
    witness_index: int | None
    passed: bool
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

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "lhs", "rhs", "ratio"])
            for rec in self.records:
                writer.writerow([rec["index"], rec["lhs"], rec["rhs"], rec["ratio"]])


def _finish(name, records, params, budget, warnings=()):
    sup = 0.0
    witness = None
    for rec in records:
        ratio = rec["ratio"]
        if not math.isnan(ratio) and (witness is None or ratio > sup):
            sup = ratio
            witness = rec["index"]
    return CheckReport(name, records, sup, witness, sup <= budget, params, tuple(warnings))


def vicinity(seq: Sequence, i: int, gamma: float = DEFAULT_GAMMA) -> list[int]:
    """Indices j with |z_j| >= |z_i| whose expanded boxes meet z_i's.

    Equal radii are broken by index order so the relation stays
    antisymmetric.
    """
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"gamma out of (0, 1): {gamma}")
    zi = seq.points[i]
    box_i = geometry.expanded_box(zi, gamma)
    out = []
    for j, zj in enumerate(seq.points):
        if j == i:
            continue
        if zj.depth > zi.depth or (zj.depth == zi.depth and j < i):
            continue
        if geometry.expanded_box(zj, gamma).intersects(box_i):
            out.append(j)
    return out


def restricted_vicinity(seq: Sequence, i: int, gamma: float = DEFAULT_GAMMA) -> list[int]:
    """Vicinity members whose plain box is not swallowed by another member's
    expanded box."""
    vic = vicinity(seq, i, gamma)
    boxes = {k: geometry.expanded_box(seq.points[k], gamma) for k in vic}
    out = []
    for j in vic:
        plain = geometry.carleson_box(seq.points[j])
        if not any(k != j and boxes[k].contains_box(plain) for k in vic):
            out.append(j)
    return out


def check_weak_separation(seq: Sequence, delta: float = DEFAULT_DELTA) -> CheckReport:
    """Pairwise kernel-metric separation; passes iff min distance > delta.

    Also records the hyperbolic-form minimum of d(z_i, z_j)/(d(z_i,0)+1)
    for diagnostics.
    """
    n = len(seq)
    if n < 2:
        raise DomainError("need at least two points")
    metric_min = math.inf
    hyp_min = math.inf
    records = []
    for i, zi in enumerate(seq.points):
        best = math.inf
        for j, zj in enumerate(seq.points):
            if j == i:
                continue
            best = min(best, geometry.dirichlet_metric(zi, zj))
            if zi != zj:
                dh = geometry.hyperbolic_distance(zi, zj)
                hyp_min = min(hyp_min, dh / (geometry.hyperbolic_distance(zi, geometry.ORIGIN) + 1.0))
            else:
                hyp_min = 0.0
        metric_min = min(metric_min, best)
        ratio = delta / best if best > 0 else math.inf
        records.append({"index": i, "lhs": delta, "rhs": best, "ratio": ratio})
    params = {"delta": delta, "K": 1.0, "metric_min": metric_min, "hyperbolic_form_min": hyp_min}
    report = _finish("weak_separation", records, params, 1.0)
    report.passed = metric_min > delta
    return report


def check_capacitary_condition(
    seq: Sequence,
    gamma: float = DEFAULT_GAMMA,
    quad_nodes_per_arc: int = 24,
    budget: float = COMPARABILITY_BUDGET,
) -> CheckReport:
    """Capacity of the Mobius-pulled vicinity arcs against 1/d(z_i)."""
    warnings = []
    if len({(p.theta, p.depth) for p in seq.points}) < len(seq):
        warnings.append("sequence has coincident points; weak separation fails")
    records = []
    for i, zi in enumerate(seq.points):
        vic = vicinity(seq, i, gamma)
        d_i = seq.norms[i]
        if not vic:
            records.append({"index": i, "lhs": 0.0, "rhs": 1.0 / d_i, "ratio": 0.0})
            continue
        try:
            arcs = [geometry.boundary_arc(geometry.mobius(zi, seq.points[j])) for j in vic]
            lhs = capacity.log_capacity(arcs, quad_nodes_per_arc)
        except (NumericalError, DomainError) as exc:
            warnings.append(f"capacity solver failed at index {i}: {exc}")
            records.append({"index": i, "lhs": math.nan, "rhs": 1.0 / d_i, "ratio": math.nan})
            continue
        records.append({"index": i, "lhs": lhs, "rhs": 1.0 / d_i, "ratio": lhs * d_i})
    params = {"gamma": gamma, "quad_nodes_per_arc": quad_nodes_per_arc, "K": budget}
    return _finish("capacitary_condition", records, params, budget, warnings)


def check_carleson(
    seq: Sequence,
    test_families: list,
    quad_nodes_per_arc: int = 24,
    budget: float = COMPARABILITY_BUDGET,
) -> CheckReport:
    """Mass-in-box against capacity over the supplied arc families only.

    A sampler for the necessary condition, not an exhaustive supremum.
    """
    records = []
    warnings = []
    for fi, family in enumerate(test_families):
        arcs = geometry.merge_arcs(list(family))
        boxes = [CarlesonBox(a, max(1.0 - a.length, 0.0)) for a in arcs]
        mass = sum(
            1.0 / d for p, d in zip(seq.points, seq.norms) if any(b.contains_point(p) for b in boxes)
        )
        cap_e = capacity.log_capacity(arcs, quad_nodes_per_arc)
        if mass == 0.0:
            ratio = 0.0
        elif cap_e == 0.0:
            ratio = math.inf
            warnings.append(f"family {fi}: positive mass over zero capacity")
        else:
            ratio = mass / cap_e
        records.append({"index": fi, "lhs": mass, "rhs": cap_e, "ratio": ratio})
    params = {"quad_nodes_per_arc": quad_nodes_per_arc, "K": budget, "families": len(test_families)}
    return _finish("carleson_measure", records, params, budget, warnings)


def check_finite_measure(seq: Sequence) -> float:
    """Total mass of the associated measure, sum of 1/d(z_i)."""
    return sum(1.0 / d for d in seq.norms)


def check_theorem_d(
    seq: Sequence, gamma: float = DEFAULT_GAMMA, budget: float = COMPARABILITY_BUDGET
) -> CheckReport:
    """Restricted-vicinity mass sum against 1/d(z_i).

    How large gamma must be for this to be a sufficient condition is not
    quantified; the parameter is explicit for that reason.
    """
    records = []
    for i, d_i in enumerate(seq.norms):
        total = sum(1.0 / seq.norms[j] for j in restricted_vicinity(seq, i, gamma))
        records.append({"index": i, "lhs": total, "rhs": 1.0 / d_i, "ratio": total * d_i})
    params = {"gamma": gamma, "K": budget}
    return _finish("restricted_vicinity_sum", records, params, budget)


def _normalized_ok(points, eta, beta):
    sub = Sequence(points)
    if any(d <= NORMALIZED_NORM_FLOOR for d in sub.norms):
        return False
    for i, zi in enumerate(points):
        for j in vicinity(sub, i, eta):
            dj = points[j].depth
            if dj**beta > zi.depth or dj > zi.depth / 2.0:
                return False
    return True


def normalize(seq: Sequence, eta: float = DEFAULT_ETA, beta: float = DEFAULT_BETA) -> Sequence:
    """Drop the minimal prefix making the remainder deep and graded.

    After normalization every point has d(z_i) > 100 and vicinity
    members are at least twice as deep, within the beta power window.
    Idempotent.
    """
    if not (0.0 < beta < eta < 1.0):
        raise DomainError(f"need 0 < beta < eta < 1, got beta={beta}, eta={eta}")
    pts = list(seq.points)
    for p in range(len(pts) + 1):
        tail = pts[p:]
        if not tail:
            break
        if _normalized_ok(tail, eta, beta):
            return Sequence(tuple(tail), seq.label, seq.tail_bound)
    _warnings.warn(f"normalization dropped every point of {seq.label or 'sequence'}")
    return Sequence((), seq.label, seq.tail_bound)


# ---------------------------------------------------------------------------
# generators


def generate(kind: str, params: dict | None = None, seed: int = 0) -> Sequence:
    params = dict(params or {})
    if kind == "radial":
        return _generate_radial(params)
    if kind == "disjoint_boxes":
        return _generate_disjoint_boxes(params, seed)
    if kind == "union":
        return _generate_union(params)
    raise InputError(f"unknown generator kind: {kind}")


def _generate_radial(params: dict) -> Sequence:
    lam = float(params.get("lam", 0.5))
    count = int(params.get("count", 5))
    theta = float(params.get("theta", 0.0))
    if not 0.0 < lam < 1.0 or count < 1:
        raise InputError(f"radial generator needs 0 < lam < 1 and count >= 1, got {params}")
    pts = tuple(DiscPoint(theta, lam**n) for n in range(1, count + 1))
    tail = lam ** (count + 1) / (1.0 - lam)  # geometric depth tail of the dropped points
    return Sequence(pts, f"radial(lam={lam}, n={count})", tail)


def _generate_disjoint_boxes(params: dict, seed: int) -> Sequence:
    count = int(params.get("count", 10))
    exponent = float(params.get("eta", DEFAULT_GAMMA))
    lo = float(params.get("depth_min", 2.0**-8))
    hi = float(params.get("depth_max", 2.0**-6))
    if not (0.0 < lo <= hi < 1.0 and 0.0 < exponent < 1.0):
        raise InputError(f"bad disjoint_boxes params: {params}")
    rng = np.random.default_rng(seed)
    depths = np.exp(rng.uniform(math.log(lo), math.log(hi), size=count))
    depths.sort()
    depths = depths[::-1]  # shallow first so the sequence is radius-ordered
    placed = []  # (center fraction, half-length fraction)
    pts = []
    for i, depth in enumerate(depths):
        half = 0.5 * depth**exponent
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
    seq = Sequence(tuple(pts), f"disjoint_boxes(n={count}, eta={exponent})")
    for i in range(count):
        if vicinity(seq, i, exponent):
            raise InputError(f"disjoint_boxes produced overlapping boxes at point #{i}")
    return seq


def _generate_union(params: dict) -> Sequence:
    parts = params.get("parts")
    if not parts:
        raise InputError("union generator needs params['parts']")
    pts = [p for part in parts for p in part.points]
    pts.sort(key=lambda p: -p.depth)
    label = " | ".join(part.label or "?" for part in parts)
    return Sequence(tuple(pts), f"union({label})")


# ---------------------------------------------------------------------------
# W^{1,2} interpolant assembly


@dataclass
class InterpolantBlocks:
    """Fixed condenser-potential blocks for one (sequence, gamma, grid)."""

    grid: capacity.PolarGrid
    block_values: np.ndarray  # (n_points, n_nodes)
    block_energies: np.ndarray


def _build_blocks(seq: Sequence, gamma: float, resolution) -> InterpolantBlocks:
    n_r, n_t = resolution
    min_depth = min(0.5, min(p.depth for p in seq.points) / 8.0)
    grid = capacity.PolarGrid(n_r, n_t, max(min_depth, 1e-6))
    support_masks = []
    for i, z in enumerate(seq.points):
        support_masks.append(
            grid.rasterize(geometry.expanded_box(z, gamma), f"support region of point {i}")
        )
    blocks = np.zeros((len(seq), grid.n_nodes))
    energies = np.zeros(len(seq))
    for i, z in enumerate(seq.points):
        support = support_masks[i].copy()
        for j, other in enumerate(support_masks):
            if j != i:
                support &= ~other  # keep the regions pairwise disjoint
        inner = grid.rasterize(geometry.unit_hyperbolic_disc(z), f"core disc of point {i}")
        inner &= support
        if inner.sum() < 1:
            raise ResolutionError(
                f"core disc of point {i} (depth {z.depth:.3g}) lost to neighboring supports; refine the grid"
            )
        u, energy = grid.solve(~support, inner)
        blocks[i] = u
        energies[i] = energy
    return InterpolantBlocks(grid, blocks, energies)


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
    prebuilt InterpolantBlocks to reuse the solves across data vectors.
    """
    data = np.asarray(data, dtype=float)
    if data.shape != (len(seq),):
        raise InputError(f"data length {data.shape} does not match sequence length {len(seq)}")
    if blocks is None:
        blocks = _build_blocks(seq, gamma, resolution)
    coeffs = data * np.sqrt(np.asarray(seq.norms))
    values = coeffs @ blocks.block_values
    energy = blocks.grid.energy_of(values) + blocks.grid.l2_norm_sq(values)
    return capacity.GridPotential(blocks.grid, values, energy), energy
