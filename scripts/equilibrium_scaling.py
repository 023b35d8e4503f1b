"""Time the equilibrium-measure solve as the number of arcs grows.

For k = 1, 4, 16, 64 and 128 pairwise disjoint arcs at random centres
(each as long as 0.3-0.9 of the room to its nearer neighbour), prints the
node count n, the median wall and CPU time (`time.process_time`, all of
this process's threads) of `capacity.equilibrium_measure` over the
repeats, and the peak of memory traced by `tracemalloc` during one
call, which counts numpy's arrays but not the workspace LAPACK allocates
itself.

    PYTHONPATH=src python3 scripts/equilibrium_scaling.py [--repeats 9] [--seed 0]
"""

import argparse
import math
import statistics
import time
import tracemalloc

import numpy as np

from disclab import capacity
from disclab.geometry import Arc

ARC_COUNTS = (1, 4, 16, 64, 128)


def disjoint_arcs(rng, k: int) -> list[Arc]:
    centers = np.sort(rng.uniform(0.0, 1.0, k))
    gaps = np.diff(np.concatenate([centers, [centers[0] + 1.0]]))
    room = np.minimum(gaps, np.roll(gaps, 1)) if k > 1 else np.array([1.0])
    lengths = room * rng.uniform(0.3, 0.9, k)
    return [Arc(2.0 * math.pi * c, float(l)) for c, l in zip(centers, lengths)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    print(f"{'arcs':>5} {'n':>6} {'wall ms':>8} {'cpu ms':>8} {'peak MB':>8}")
    for k in ARC_COUNTS:
        arcs = disjoint_arcs(rng, k)
        mu = capacity.equilibrium_measure(arcs)  # warm-up
        walls, cpus = [], []
        for _ in range(args.repeats):
            start, cpu = time.perf_counter(), time.process_time()
            capacity.equilibrium_measure(arcs)
            walls.append(time.perf_counter() - start)
            cpus.append(time.process_time() - cpu)
        tracemalloc.start()
        capacity.equilibrium_measure(arcs)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        wall, cpu = 1e3 * statistics.median(walls), 1e3 * statistics.median(cpus)
        print(f"{k:5d} {len(mu.nodes):6d} {wall:8.2f} {cpu:8.2f} {peak / 2**20:8.1f}")


if __name__ == "__main__":
    main()
