"""Time one layer of the library as its input grows.

    PYTHONPATH=src python3 scripts/scaling.py {equilibrium,grid,interpolant} [--repeats 9]

Each row makes the layer's call on one input, once to warm up and then
--repeats times, and prints the row's label, the layer's own columns, the
median wall and CPU time (`time.process_time`, all of this process's
threads) of the call, and the peak RSS of a fresh interpreter that
imports disclab and makes the call once (`--child LABEL...`).  That peak
counts everything, the interpreter and numpy (about 30 MB) included; it
is the child's own high-water mark (`VmHWM`, Linux), as its `ru_maxrss`
would also count the RSS this process had when it started the child.

equilibrium: `capacity.equilibrium_measure` on 1, 4, 16, 64 and 128
pairwise disjoint arcs at random centres, each as long as 0.3-0.9 of the
room to its nearer neighbour.  n is the node count, and peak MB the
memory `tracemalloc` traced during one call, which counts numpy's arrays
but not the workspace LAPACK allocates itself.

grid: `capacity.grid_condenser_capacity` (grid set-up, rasterization and
solve, as criterion 07 and `disclab capacity grid` make them) at 64x256
to 256x512, from the unit disc around the base point of the first
configuration criterion 07 draws to the Carleson boxes, the unit discs or
the arcs of its one to three points.  layer and rings are the size of the
boundary layer, the fixed nodes next to free ones on which the
capacitance matrix is built.  green ms is the median time per solve in
`PolarGrid._green`, the Green's matrix on the layer, together with the
grid's modes, which it is the first to read, and green % its share of
the wall time.  `_green` is one blocked GEMM over the modes' factors, so
its cost grows with the layer's nodes squared times the modes (n_t).

interpolant: `sequences._build_blocks` at 64x256 to 128x512 on three
families of `disjoint_boxes` sequences: 20 deep boxes (depth 2^-8 to
2^-6), 3 shallow ones (0.05 to 0.2) and 2 shallower ones (0.2 to 0.45).
unknowns and band are the size of the one banded system it factors.
"""

import argparse
import contextlib
import functools
import math
import statistics
import subprocess
import sys
import time
import tracemalloc
from typing import Callable, NamedTuple

import numpy as np

from disclab import _blas, capacity, geometry, sequences
from disclab.geometry import Arc, DiscPoint

ARC_COUNTS = (1, 4, 16, 64, 128)
PLATE_SETS = {
    "boxes": geometry.carleson_box,
    "discs": geometry.unit_hyperbolic_disc,
    "arcs": geometry.boundary_arc,
}
GRID_RESOLUTIONS = ((64, 256), (128, 256), (128, 512), (256, 512))
GAMMA = 0.75
FAMILIES = {
    "deep": {"count": 20, "depth_min": 2.0**-8, "depth_max": 2.0**-6},
    "shallow": {"count": 3, "depth_min": 0.05, "depth_max": 0.2},
    "shallower": {"count": 2, "depth_min": 0.2, "depth_max": 0.45},
}
INTERPOLANT_RESOLUTIONS = ((64, 256), (96, 384), (128, 512))


class Recorder:
    """While in use, wraps owner.name to keep each call's wall time and the last call's arguments.

    Only the last arguments are kept, so that the arrays of the repeated
    calls do not pile up.
    """

    def __init__(self, owner, name: str):
        self.owner, self.name = owner, name
        self.seconds, self.args = [], ()

    def __enter__(self):
        self.original = original = getattr(self.owner, self.name)

        def recorded(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.seconds.append(time.perf_counter() - start)
                self.args = args

        setattr(self.owner, self.name, recorded)
        return self

    def __exit__(self, *exc):
        setattr(self.owner, self.name, self.original)


def timed(call, repeats: int, recorder=contextlib.nullcontext()):
    """The result of a warm-up call, then the wall and CPU seconds of each repeat, under the recorder."""
    result = call()
    walls, cpus = [], []
    with recorder:
        for _ in range(repeats):
            start, cpu = time.perf_counter(), time.process_time()
            call()
            walls.append(time.perf_counter() - start)
            cpus.append(time.process_time() - cpu)
    return result, walls, cpus


def ms(seconds) -> str:
    return f"{1e3 * statistics.median(seconds):.2f}"


def disjoint_arcs(rng, k: int) -> list[Arc]:
    centers = np.sort(rng.uniform(0.0, 1.0, k))
    gaps = np.diff(np.concatenate([centers, [centers[0] + 1.0]]))
    room = np.minimum(gaps, np.roll(gaps, 1)) if k > 1 else np.array([1.0])
    lengths = room * rng.uniform(0.3, 0.9, k)
    return [Arc(2.0 * math.pi * c, float(l)) for c, l in zip(centers, lengths)]


def equilibrium_rows() -> dict:
    # the families are drawn in turn from one generator
    rng = np.random.default_rng(0)
    return {(str(k),): functools.partial(capacity.equilibrium_measure, disjoint_arcs(rng, k)) for k in ARC_COUNTS}


def equilibrium(call, repeats: int) -> list[str]:
    mu, walls, cpus = timed(call, repeats)
    tracemalloc.start()
    call()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return [str(len(mu.nodes)), ms(walls), ms(cpus), f"{peak / 2**20:.1f}"]


def grid_rows() -> dict:
    """Criterion 07's first configuration: the unit disc around z against each kind of plate at its points."""
    rng = np.random.default_rng(0)
    z = DiscPoint(rng.uniform(0, 2 * math.pi), 2.0 ** rng.uniform(-4.5, -3.0))
    points = []
    for _ in range(int(rng.integers(1, 4))):
        depth = 2.0 ** rng.uniform(-6.0, math.log2(z.depth / 2.0))
        theta = z.theta + rng.uniform(0.6, 1.5) * rng.choice([-1.0, 1.0])
        points.append(DiscPoint(theta, depth))
    inner = geometry.unit_hyperbolic_disc(z)
    return {
        (name, f"{n_r}x{n_t}"): functools.partial(
            capacity.grid_condenser_capacity, inner, [plate(p) for p in points], (n_r, n_t)
        )
        for n_r, n_t in GRID_RESOLUTIONS
        for name, plate in PLATE_SETS.items()
    }


def grid(call, repeats: int) -> list[str]:
    green = Recorder(capacity.PolarGrid, "_green")
    _, walls, cpus = timed(call, repeats, green)
    polar, layer = green.args
    rings = len(np.unique((layer - 1) // polar.n_t))
    share = 100.0 * sum(green.seconds) / sum(walls)
    return [str(len(layer)), str(rings), ms(walls), ms(cpus), ms(green.seconds), f"{share:.1f}"]


def interpolant_rows() -> dict:
    return {
        (name, f"{n_r}x{n_t}"): functools.partial(
            sequences._build_blocks, sequences.disjoint_boxes(seed=1, **params), GAMMA, (n_r, n_t)
        )
        for name, params in FAMILIES.items()
        for n_r, n_t in INTERPOLANT_RESOLUTIONS
    }


def interpolant(call, repeats: int) -> list[str]:
    solve = Recorder(_blas, "solve_banded")
    _, walls, cpus = timed(call, repeats, solve)
    rows, unknowns = solve.args[0].shape
    return [str(unknowns), str(rows - 1), ms(walls), ms(cpus)]


class Layer(NamedTuple):
    rows: Callable[[], dict]  # label -> the call a row times
    measure: Callable[..., list[str]]  # (call, repeats) -> the cells between the label and the RSS
    columns: tuple[tuple[str, int], ...]  # (title, width), label to RSS


LAYERS = {
    "equilibrium": Layer(
        equilibrium_rows,
        equilibrium,
        (("arcs", 5), ("n", 6), ("wall ms", 8), ("cpu ms", 8), ("peak MB", 8), ("RSS MB", 8)),
    ),
    "grid": Layer(
        grid_rows,
        grid,
        (("plates", 6), ("grid", 8), ("layer", 6), ("rings", 6), ("wall ms", 8), ("cpu ms", 8),
         ("green ms", 8), ("green %", 8), ("RSS MB", 8)),
    ),
    "interpolant": Layer(
        interpolant_rows,
        interpolant,
        (("family", 10), ("grid", 8), ("unknowns", 9), ("band", 5), ("wall ms", 8), ("cpu ms", 8), ("RSS MB", 8)),
    ),
}


def own_peak_rss_mb() -> float:
    """This process's peak RSS in MB since it started its program.

    Linux keeps the RSS of the process that started it in ru_maxrss, but
    VmHWM is that of the program's own memory, which exec starts afresh.
    """
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024  # kB


def child_peak_rss_mb(layer: str, label: tuple[str, ...]) -> float:
    """Peak RSS of a fresh interpreter that makes the row's call once."""
    command = [sys.executable, __file__, layer, "--child", *label]
    return float(subprocess.run(command, capture_output=True, text=True, check=True).stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("layer", choices=LAYERS)
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument(
        "--child", nargs="+", metavar="LABEL", help="make the labelled row's call once and print the peak RSS in MB"
    )
    args = parser.parse_args()
    layer = LAYERS[args.layer]
    rows = layer.rows()
    if args.child:
        label = tuple(args.child)
        if label not in rows:
            parser.error(f"no {args.layer} row {' '.join(label)}; the rows are: {', '.join(map(' '.join, rows))}")
        rows[label]()
        print(own_peak_rss_mb())
        return
    print(" ".join(f"{title:>{width}}" for title, width in layer.columns))
    for label, call in rows.items():
        cells = [*label, *layer.measure(call, args.repeats), f"{child_peak_rss_mb(args.layer, label):.1f}"]
        print(" ".join(f"{cell:>{width}}" for cell, (_, width) in zip(cells, layer.columns)))


if __name__ == "__main__":
    main()
