"""Span tracer for the traced benchmark run.

The tracer wraps, from outside the library, every public module-level
function of the traced disclab modules plus the methods of
``capacity.PolarGrid``.  Library code calls its callees through module
globals (``geometry.mobius(...)``, or ``mobius(...)`` inside geometry), so
replacing the module attribute also catches calls made inside the
library.  Each span records its name, start, end, parent span and the
benchmark operation it ran under; spans stay in memory in flat arrays
and are written out when the run ends.  Layer metrics are derived from
the spans of one pass after it finishes.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

TRACED_MODULES = ("cli", "sequences", "geometry", "capacity", "tree")


def _vicinity_members(acc, args, result):
    acc["sequences.vicinity.members"] = acc.get("sequences.vicinity.members", 0) + len(result)


def _equilibrium_nodes(acc, args, result):
    acc.setdefault("equilibrium.nodes", []).append(len(result.nodes))
    acc["equilibrium.dropped"] = acc.get("equilibrium.dropped", 0) + int(np.count_nonzero(result.weights == 0.0))


def _solve_masks(acc, args, result):
    grid, mask0, mask1 = args[:3]
    fixed = int(np.count_nonzero(mask0 | mask1))
    acc.setdefault("solve.fixed", []).append(fixed)
    acc.setdefault("solve.unknowns", []).append(grid.n_nodes - fixed)


def _path_union(acc, args, result):
    acc["tree.targets"] = acc.get("tree.targets", 0) + len(args[0].targets)
    acc["tree.path_union_nodes"] = acc.get("tree.path_union_nodes", 0) + int(result)


# span name -> observer(acc, args, result) reading the call's own
# arguments or result, for the counts that spans alone cannot give
OBSERVERS = {
    "sequences.vicinity": _vicinity_members,
    "capacity.equilibrium_measure": _equilibrium_nodes,
    "capacity.PolarGrid.solve": _solve_masks,
    "tree.path_union_size": _path_union,
}


class Tracer:
    """Records nested spans around calls into the traced modules."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.current = -1
        self.current_op = -1
        self.observed: dict = {}
        self._saved: list = []

    def reset(self):
        """Forget the spans and observations of the previous pass."""
        for arr in (self.name, self.parent, self.op, self.start, self.end):
            del arr[:]
        self.current = -1
        self.current_op = -1
        self.observed = {}

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, span_name: str, fn):
        name_id = self._name_id(span_name)
        observer = OBSERVERS.get(span_name)
        names, parents, ops, starts, ends = self.name, self.parent, self.op, self.start, self.end
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = tracer.current
            idx = len(names)
            names.append(name_id)
            parents.append(parent)
            ops.append(tracer.current_op)
            ends.append(0)
            tracer.current = idx
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                tracer.current = parent
            if observer is not None:
                observer(tracer.observed, args, result)
            return result

        return span

    def install(self):
        """Replace the traced functions by span-recording wrappers."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for short in TRACED_MODULES:
            module = getattr(self.package, short)
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(f"{short}.{attr}", fn))
        grid_cls = self.package.capacity.PolarGrid
        for attr, fn in list(vars(grid_cls).items()):
            if not inspect.isfunction(fn) or (attr.startswith("_") and attr != "__init__"):
                continue
            self._saved.append((grid_cls, attr, fn))
            setattr(grid_cls, attr, self._wrap(f"capacity.PolarGrid.{attr.strip('_')}", fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    def spans(self) -> dict:
        """The recorded spans as numpy arrays (times in ns, parent -1 at top level)."""
        return {
            key: np.frombuffer(arr, dtype=np.int64).copy()
            for key, arr in (
                ("name", self.name),
                ("parent", self.parent),
                ("op", self.op),
                ("start", self.start),
                ("end", self.end),
            )
        }


# per-layer metric -> (unit, better); the traced run reports exactly these
LAYER_METRICS = {
    "geometry.calls": ("count", "lower"),
    "geometry.self_s": ("s", "lower"),
    "geometry.ns_per_call": ("ns", "lower"),
    "geometry.mobius.calls": ("count", "lower"),
    "geometry.dirichlet_metric.calls": ("count", "lower"),
    "geometry.expanded_box.calls": ("count", "lower"),
    "geometry.merge_arcs.self_s": ("s", "lower"),
    "sequences.self_s": ("s", "lower"),
    "sequences.check_weak_separation.total_s": ("s", "lower"),
    "sequences.check_capacitary_condition.total_s": ("s", "lower"),
    "sequences.check_theorem_d.total_s": ("s", "lower"),
    "sequences.vicinity.calls": ("count", "lower"),
    "sequences.vicinity.members": ("count", "lower"),
    "sequences.vicinity.useful_ratio": ("ratio", "higher"),
    "capacity.log_capacity.calls": ("count", "lower"),
    "capacity.equilibrium_measure.self_s": ("s", "lower"),
    "capacity.equilibrium_measure.nodes_mean": ("count", "lower"),
    "capacity.equilibrium_measure.nodes_max": ("count", "lower"),
    "capacity.equilibrium_measure.dropped_frac": ("ratio", "lower"),
    "capacity.PolarGrid.init.calls": ("count", "lower"),
    "capacity.PolarGrid.init.self_s": ("s", "lower"),
    "capacity.PolarGrid.rasterize.self_s": ("s", "lower"),
    "capacity.PolarGrid.solve.calls": ("count", "lower"),
    "capacity.PolarGrid.solve.self_s": ("s", "lower"),
    "capacity.PolarGrid.solve.ms_per_call": ("ms", "lower"),
    "capacity.PolarGrid.solve.unknowns_mean": ("count", "lower"),
    "capacity.PolarGrid.solve.fixed_mean": ("count", "lower"),
    "tree.tree_capacity_recursive.self_s": ("s", "lower"),
    "tree.tree_capacity_exact.self_s": ("s", "lower"),
    "tree.path_union_size.self_s": ("s", "lower"),
    "tree.targets": ("count", "lower"),
    "tree.path_union_nodes": ("count", "lower"),
    "cli.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}
TIME_UNITS = ("s", "ms", "ns")


def _below(parent: np.ndarray, flag: np.ndarray) -> np.ndarray:
    """For each span, whether a proper ancestor has flag set."""
    out = np.zeros(len(parent), dtype=bool)
    anc = parent.copy()
    live = np.flatnonzero(anc >= 0)
    while live.size:
        out[live] |= flag[anc[live]]
        anc[live] = parent[anc[live]]
        live = live[anc[live] >= 0]
    return out


def _mean(values) -> float:
    return float(np.mean(values)) if values else 0.0


def layer_metrics(spans: dict, names: list, observed: dict) -> dict:
    """Per-layer metrics of one traced pass (all but trace.overhead_frac)."""
    name, parent = spans["name"], spans["parent"]
    dur = (spans["end"] - spans["start"]).astype(float)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_ns = dur - child
    k = len(names)
    calls = np.bincount(name, minlength=k)
    self_by = np.bincount(name, weights=self_ns, minlength=k)
    total_by = np.bincount(name, weights=dur, minlength=k)
    ids = {n: i for i, n in enumerate(names)}

    def count(n):
        return int(calls[ids[n]]) if n in ids else 0

    def self_s(n):
        return float(self_by[ids[n]]) / 1e9 if n in ids else 0.0

    def total_s(n):
        return float(total_by[ids[n]]) / 1e9 if n in ids else 0.0

    def module(prefix):
        sel = [i for n, i in ids.items() if n.startswith(prefix + ".")]
        return int(calls[sel].sum()), float(self_by[sel].sum()) / 1e9

    geo_calls, geo_self = module("geometry")
    cli_calls, cli_self = module("cli")
    _, seq_self = module("sequences")
    under_vicinity = 0
    if "sequences.vicinity" in ids and "geometry.expanded_box" in ids:
        below = _below(parent, name == ids["sequences.vicinity"])
        under_vicinity = int(np.count_nonzero(below & (name == ids["geometry.expanded_box"])))
    members = observed.get("sequences.vicinity.members", 0)
    nodes = observed.get("equilibrium.nodes", [])
    solves = count("capacity.PolarGrid.solve")
    return {
        "geometry.calls": geo_calls,
        "geometry.self_s": geo_self,
        "geometry.ns_per_call": geo_self * 1e9 / geo_calls if geo_calls else 0.0,
        "geometry.mobius.calls": count("geometry.mobius"),
        "geometry.dirichlet_metric.calls": count("geometry.dirichlet_metric"),
        "geometry.expanded_box.calls": count("geometry.expanded_box"),
        "geometry.merge_arcs.self_s": self_s("geometry.merge_arcs"),
        "sequences.self_s": seq_self,
        "sequences.check_weak_separation.total_s": total_s("sequences.check_weak_separation"),
        "sequences.check_capacitary_condition.total_s": total_s("sequences.check_capacitary_condition"),
        "sequences.check_theorem_d.total_s": total_s("sequences.check_theorem_d"),
        "sequences.vicinity.calls": count("sequences.vicinity"),
        "sequences.vicinity.members": members,
        "sequences.vicinity.useful_ratio": members / under_vicinity if under_vicinity else 0.0,
        "capacity.log_capacity.calls": count("capacity.log_capacity"),
        "capacity.equilibrium_measure.self_s": self_s("capacity.equilibrium_measure"),
        "capacity.equilibrium_measure.nodes_mean": _mean(nodes),
        "capacity.equilibrium_measure.nodes_max": max(nodes, default=0),
        "capacity.equilibrium_measure.dropped_frac": (
            observed.get("equilibrium.dropped", 0) / sum(nodes) if nodes else 0.0
        ),
        "capacity.PolarGrid.init.calls": count("capacity.PolarGrid.init"),
        "capacity.PolarGrid.init.self_s": self_s("capacity.PolarGrid.init"),
        "capacity.PolarGrid.rasterize.self_s": self_s("capacity.PolarGrid.rasterize"),
        "capacity.PolarGrid.solve.calls": solves,
        "capacity.PolarGrid.solve.self_s": self_s("capacity.PolarGrid.solve"),
        "capacity.PolarGrid.solve.ms_per_call": (
            self_s("capacity.PolarGrid.solve") * 1e3 / solves if solves else 0.0
        ),
        "capacity.PolarGrid.solve.unknowns_mean": _mean(observed.get("solve.unknowns", [])),
        "capacity.PolarGrid.solve.fixed_mean": _mean(observed.get("solve.fixed", [])),
        "tree.tree_capacity_recursive.self_s": self_s("tree.tree_capacity_recursive"),
        "tree.tree_capacity_exact.self_s": self_s("tree.tree_capacity_exact"),
        "tree.path_union_size.self_s": self_s("tree.path_union_size"),
        "tree.targets": observed.get("tree.targets", 0),
        "tree.path_union_nodes": observed.get("tree.path_union_nodes", 0),
        "cli.calls": cli_calls,
        "cli.self_s": cli_self,
    }


def write_trace(path, spans: dict, names: list, op_names: list):
    """Write one pass's spans as a compressed numpy archive."""
    np.savez_compressed(path, names=np.array(names), op_names=np.array(op_names), **spans)
