"""Independent references for the pairwise sequence layer.

These are the scalar loops the array layer replaced: every pair goes
through the scalar formulas of geometry_oracle, vicinities are rebuilt
per point and arcs are merged by an all-pairs union-find, each group
cut at the uncovered interval found over all pairs.  They share no
sweep, hull, block or cached list with the library.
"""

import math

import geometry_oracle
from disclab import capacity, geometry, sequences
from disclab.errors import DomainError, NumericalError
from disclab.geometry import TWO_PI, Arc
from disclab.sequences import Sequence


def vicinity(seq: Sequence, i: int, gamma: float) -> list[int]:
    zi = seq.points[i]
    box_i = geometry.expanded_box(zi, gamma)
    out = []
    for j, zj in enumerate(seq.points):
        if j == i:
            continue
        if zj.depth > zi.depth or (zj.depth == zi.depth and j < i):
            continue
        if geometry_oracle.arcs_meet(geometry.expanded_box(zj, gamma).base_arc, box_i.base_arc):
            out.append(j)
    return out


def restricted_vicinity(seq: Sequence, i: int, gamma: float) -> list[int]:
    vic = vicinity(seq, i, gamma)
    boxes = {k: geometry.expanded_box(seq.points[k], gamma) for k in vic}
    out = []
    for j in vic:
        plain = geometry.carleson_box(seq.points[j])
        if not any(k != j and geometry_oracle.contains_box(boxes[k], plain) for k in vic):
            out.append(j)
    return out


def weak_separation(seq: Sequence, delta: float) -> sequences.CheckReport:
    metric_min = math.inf
    hyp_min = math.inf
    records = []
    for i, zi in enumerate(seq.points):
        best = math.inf
        for j, zj in enumerate(seq.points):
            if j == i:
                continue
            best = min(best, geometry_oracle.dirichlet_metric(zi, zj))
            if zi != zj:
                dh = geometry_oracle.hyperbolic_distance(zi, zj)
                hyp_min = min(hyp_min, dh / (geometry_oracle.hyperbolic_distance(zi, geometry.ORIGIN) + 1.0))
            else:
                hyp_min = 0.0
        metric_min = min(metric_min, best)
        ratio = delta / best if best > 0 else math.inf
        records.append({"index": i, "lhs": delta, "rhs": best, "ratio": ratio})
    params = {"delta": delta, "K": 1.0, "metric_min": metric_min, "hyperbolic_form_min": hyp_min}
    report = sequences._finish("weak_separation", records, params, 1.0)
    report.passed = metric_min > delta
    return report


def capacitary_condition(seq: Sequence, gamma: float, budget: float = 64.0) -> sequences.CheckReport:
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
            arcs = [geometry.boundary_arc(geometry_oracle.mobius(zi, seq.points[j])) for j in vic]
            lhs = capacity.log_capacity(arcs)
        except (NumericalError, DomainError) as exc:
            warnings.append(f"capacity solver failed at index {i}: {exc}")
            records.append({"index": i, "lhs": math.nan, "rhs": 1.0 / d_i, "ratio": math.nan})
            continue
        records.append({"index": i, "lhs": lhs, "rhs": 1.0 / d_i, "ratio": lhs * d_i})
    return sequences._finish("capacitary_condition", records, {"K": budget}, budget, warnings)


def _hull(members: list[Arc]) -> Arc | None:
    """The union of a group of meeting arcs as one arc, or None where it is the circle.

    Each member is an interval relative to the first member's center, so
    very short arcs keep their lengths.  The interval past an end that is
    widest before some member starts again, taken over every pair and
    every turn, is left uncovered; the circle is cut at its midpoint and
    every member lifted by whole turns to end before the cut, and the
    hull of those intervals is the union.  If no end is followed by such
    an interval, every point is covered.
    """
    ref = members[0].center_angle
    spans = []
    for a in members:
        offset = math.remainder(a.center_angle - ref, TWO_PI)
        spans.append((offset - a.half_width, offset + a.half_width))
    best, cut = 0.0, None
    for _, end in spans:
        gap = min(s + k * TWO_PI - end for s, e in spans for k in range(-3, 4) if e + k * TWO_PI > end)
        if gap > best:
            best, cut = gap, end + 0.5 * gap
    if cut is None:
        return None
    lifted = []
    for s, e in spans:
        turns = math.floor((cut - e) / TWO_PI) * TWO_PI
        lifted.append((s + turns, e + turns))
    lo, hi = min(s for s, _ in lifted), max(e for _, e in lifted)
    if hi - lo >= TWO_PI:
        return None
    return Arc(ref + 0.5 * (lo + hi), (hi - lo) / TWO_PI)


def _merge_intervals(arcs: list[Arc]) -> list[Arc]:
    if any(a.is_full_circle() for a in arcs):
        return [Arc(0.0, 1.0)]
    n = len(arcs)
    group = list(range(n))

    def find(i):
        while group[i] != i:
            group[i] = group[group[i]]
            i = group[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if geometry_oracle.arcs_meet(arcs[i], arcs[j]):
                group[find(i)] = find(j)
    clusters: dict[int, list[Arc]] = {}
    for i, a in enumerate(arcs):
        clusters.setdefault(find(i), []).append(a)
    out = []
    for members in clusters.values():
        hull = members[0] if len(members) == 1 else _hull(members)
        if hull is None:
            return [Arc(0.0, 1.0)]
        out.append(hull)
    return sorted(out, key=lambda a: a.center_angle)


def merge_arcs(arcs: list[Arc]) -> list[Arc]:
    if not arcs:
        return []
    merged = _merge_intervals(arcs)
    while True:
        again = _merge_intervals(merged)
        if len(again) == len(merged):
            break
        merged = again
    if len(merged) == 1 and merged[0].length >= 1.0 - 1e-12:
        return [Arc(0.0, 1.0)]
    return merged
