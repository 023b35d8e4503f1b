"""Independent references for the pairwise sequence layer.

These are the scalar loops the array layer replaced: every pair goes
through the scalar formulas of geometry_oracle, vicinities are rebuilt
per point and arcs are merged by an all-pairs union-find.  They share
no sweep, block or cached list with the library.
"""

import math

import geometry_oracle
from disclab import capacity, geometry, sequences
from disclab.errors import DomainError, NumericalError
from disclab.geometry import TWO_PI, Arc, _signed_angle
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
        if len(members) == 1:
            out.append(members[0])
            continue
        ref = members[0].center_angle
        lo = min(_signed_angle(a.center_angle - ref) - a.half_width for a in members)
        hi = max(_signed_angle(a.center_angle - ref) + a.half_width for a in members)
        if hi - lo >= TWO_PI:
            return [Arc(0.0, 1.0)]
        out.append(Arc(ref + 0.5 * (lo + hi), (hi - lo) / TWO_PI))
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
