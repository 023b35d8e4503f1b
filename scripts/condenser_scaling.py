"""Time the condenser grid solve as the grid grows.

On the first configuration criterion 07 draws (the unit disc around a
base point z, against the Carleson boxes, the unit discs or the arcs of
one to three points), at 64x256, 128x256, 128x512 and 256x512, prints
for each solve the median wall and CPU time (`time.process_time`, all
of this process's threads) of `capacity.grid_condenser_capacity` over
the repeats (grid set-up, rasterization and solve, as criterion 07 and
`disclab capacity grid` make them), the size of its boundary layer (the
fixed nodes next to free ones, on which the capacitance matrix is built)
in nodes and in rings, the median time per solve spent in
`PolarGrid._green`, the Green's matrix on the layer, and its share of
the wall time (both without the grid's `_modes`, which `_green` reads
first and which the timer builds before it starts its clock), and the
peak RSS of a fresh interpreter that imports disclab and makes one
solve, which counts everything, the interpreter and numpy (about 30 MB)
included (see equilibrium_scaling.own_peak_rss_mb).

`_green` is one blocked GEMM over the modes' factors, so its cost grows
with the layer's nodes squared times the modes (n_t), not with its
rings squared times n_t log n_t as an inverse FFT per layer ring would.

    PYTHONPATH=src python3 scripts/condenser_scaling.py [--repeats 9]
"""

import argparse
import math
import statistics
import subprocess
import sys
import time

import numpy as np

from disclab import capacity, geometry
from disclab.geometry import DiscPoint
from equilibrium_scaling import own_peak_rss_mb

RESOLUTIONS = ((64, 256), (128, 256), (128, 512), (256, 512))
PLATE_SETS = {
    "boxes": geometry.carleson_box,
    "discs": geometry.unit_hyperbolic_disc,
    "arcs": geometry.boundary_arc,
}


def criterion_07_configuration() -> tuple[DiscPoint, list[DiscPoint]]:
    """The base point and the points of the first configuration criterion 07 draws."""
    rng = np.random.default_rng(0)
    z = DiscPoint(rng.uniform(0, 2 * math.pi), 2.0 ** rng.uniform(-4.5, -3.0))
    points = []
    for _ in range(int(rng.integers(1, 4))):
        depth = 2.0 ** rng.uniform(-6.0, math.log2(z.depth / 2.0))
        theta = z.theta + rng.uniform(0.6, 1.5) * rng.choice([-1.0, 1.0])
        points.append(DiscPoint(theta, depth))
    return z, points


class GreenTimer:
    """Wraps PolarGrid._green, keeping the wall time of each call after the grid's modes and the last layer."""

    def __init__(self):
        self.seconds = []
        self.layer = np.empty(0, dtype=np.int64)
        self.green = capacity.PolarGrid._green

    def __call__(self, grid, nodes):
        grid._modes  # a cached property, built on the first read
        start = time.perf_counter()
        try:
            return self.green(grid, nodes)
        finally:
            self.seconds.append(time.perf_counter() - start)
            self.layer = nodes


def condenser(name: str) -> capacity.CondenserSpec:
    """The condenser from the configuration's unit disc around z to its points' plates of one kind."""
    z, points = criterion_07_configuration()
    return capacity.CondenserSpec(geometry.unit_hyperbolic_disc(z), [PLATE_SETS[name](p) for p in points])


def peak_rss_mb(name: str, n_r: int, n_t: int) -> float:
    """Peak RSS of a fresh interpreter that makes one solve with the named plates at n_r x n_t."""
    command = [sys.executable, __file__, "--one-solve", name, str(n_r), str(n_t)]
    return float(subprocess.run(command, capture_output=True, text=True, check=True).stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument(
        "--one-solve", nargs=3, metavar=("PLATES", "N_R", "N_T"),
        help="solve once with the named plates at N_R x N_T and print the peak RSS in MB",
    )
    args = parser.parse_args()
    if args.one_solve is not None:
        name, n_r, n_t = args.one_solve
        capacity.grid_condenser_capacity(condenser(name), (int(n_r), int(n_t)))
        print(own_peak_rss_mb())
        return
    timer = GreenTimer()
    capacity.PolarGrid._green = lambda grid, nodes: timer(grid, nodes)
    header = f"{'plates':>6} {'grid':>8} {'layer':>6} {'rings':>6} {'wall ms':>8} {'cpu ms':>8}"
    print(f"{header} {'green ms':>8} {'green %':>8} {'RSS MB':>8}")
    try:
        for n_r, n_t in RESOLUTIONS:
            for name in PLATE_SETS:
                spec = condenser(name)
                capacity.grid_condenser_capacity(spec, (n_r, n_t))  # warm-up
                timer.seconds = []
                walls, cpus = [], []
                for _ in range(args.repeats):
                    start, cpu = time.perf_counter(), time.process_time()
                    capacity.grid_condenser_capacity(spec, (n_r, n_t))
                    walls.append(time.perf_counter() - start)
                    cpus.append(time.process_time() - cpu)
                rings = len(np.unique((timer.layer - 1) // n_t))
                share = 100.0 * sum(timer.seconds) / sum(walls)
                wall, cpu = 1e3 * statistics.median(walls), 1e3 * statistics.median(cpus)
                green = 1e3 * statistics.median(timer.seconds)
                grid = f"{n_r}x{n_t}"
                rss = peak_rss_mb(name, n_r, n_t)
                row = f"{name:>6} {grid:>8} {len(timer.layer):6d} {rings:6d} {wall:8.2f} {cpu:8.2f}"
                print(f"{row} {green:8.2f} {share:8.1f} {rss:8.1f}")
    finally:
        capacity.PolarGrid._green = timer.green


if __name__ == "__main__":
    main()
