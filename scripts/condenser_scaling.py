"""Time the condenser grid solve as the grid grows.

On the first configuration criterion 07 draws (the unit disc around a
base point z, against the Carleson boxes, the unit discs or the arcs of
one to three points), at 64x256, 128x256, 128x512 and 256x512, prints
for each solve the median wall and CPU time (`time.process_time`, all
of this process's threads) of `capacity.grid_condenser_capacity` over
the repeats (grid set-up, rasterization and solve, as criterion 07 and
`disclab capacity grid` make them), the size of its boundary layer (the
fixed nodes next to free ones, on which the capacitance matrix is built)
in nodes and in rings, and the share of the wall time spent in
`PolarGrid._green`, the Green's matrix on the layer.

    PYTHONPATH=src python3 scripts/condenser_scaling.py [--repeats 9]
"""

import argparse
import math
import statistics
import time

import numpy as np

from disclab import capacity, geometry
from disclab.geometry import DiscPoint

RESOLUTIONS = ((64, 256), (128, 256), (128, 512), (256, 512))
PLATE_SETS = (
    ("boxes", geometry.carleson_box),
    ("discs", geometry.unit_hyperbolic_disc),
    ("arcs", geometry.boundary_arc),
)


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
    """Wraps PolarGrid._green, adding up its wall time and keeping the last layer it was given."""

    def __init__(self):
        self.seconds = 0.0
        self.layer = np.empty(0, dtype=np.int64)
        self.green = capacity.PolarGrid._green

    def __call__(self, grid, nodes):
        start = time.perf_counter()
        try:
            return self.green(grid, nodes)
        finally:
            self.seconds += time.perf_counter() - start
            self.layer = nodes


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=9)
    args = parser.parse_args()
    z, points = criterion_07_configuration()
    inner = geometry.unit_hyperbolic_disc(z)
    timer = GreenTimer()
    capacity.PolarGrid._green = lambda grid, nodes: timer(grid, nodes)
    print(f"{'plates':>6} {'grid':>8} {'layer':>6} {'rings':>6} {'wall ms':>8} {'cpu ms':>8} {'green %':>8}")
    try:
        for n_r, n_t in RESOLUTIONS:
            for name, make in PLATE_SETS:
                spec = capacity.CondenserSpec(inner, [make(p) for p in points])
                capacity.grid_condenser_capacity(spec, (n_r, n_t))  # warm-up
                timer.seconds = 0.0
                walls, cpus = [], []
                for _ in range(args.repeats):
                    start, cpu = time.perf_counter(), time.process_time()
                    capacity.grid_condenser_capacity(spec, (n_r, n_t))
                    walls.append(time.perf_counter() - start)
                    cpus.append(time.process_time() - cpu)
                rings = len(np.unique((timer.layer - 1) // n_t))
                share = 100.0 * timer.seconds / sum(walls)
                wall, cpu = 1e3 * statistics.median(walls), 1e3 * statistics.median(cpus)
                grid = f"{n_r}x{n_t}"
                print(f"{name:>6} {grid:>8} {len(timer.layer):6d} {rings:6d} {wall:8.2f} {cpu:8.2f} {share:8.1f}")
    finally:
        capacity.PolarGrid._green = timer.green


if __name__ == "__main__":
    main()
