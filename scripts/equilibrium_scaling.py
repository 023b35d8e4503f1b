"""Time the equilibrium-measure solve as the number of arcs grows.

For k = 1, 4, 16, 64 and 128 pairwise disjoint arcs at random centres
(each as long as 0.3-0.9 of the room to its nearer neighbour), prints the
node count n, the median wall and CPU time (`time.process_time`, all of
this process's threads) of `capacity.equilibrium_measure` over the
repeats, the peak of memory traced by `tracemalloc` during one call,
which counts numpy's arrays but not the workspace LAPACK allocates
itself, and the peak RSS of a fresh interpreter that imports disclab
and makes one call, which counts everything, the interpreter and numpy
(about 30 MB) included.  That peak is the child's own high-water mark
(`VmHWM`, Linux): its `ru_maxrss` would also count the RSS this
process had when it started the child.

    PYTHONPATH=src python3 scripts/equilibrium_scaling.py [--repeats 9] [--seed 0]
"""

import argparse
import math
import statistics
import subprocess
import sys
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


def families(seed: int) -> dict[int, list[Arc]]:
    """The arc family for each count, drawn in turn from one generator."""
    rng = np.random.default_rng(seed)
    return {k: disjoint_arcs(rng, k) for k in ARC_COUNTS}


def own_peak_rss_mb() -> float:
    """This process's peak RSS in MB since it started its program.

    Linux keeps the RSS of the process that started it in ru_maxrss, but
    VmHWM is that of the program's own memory, which exec starts afresh.
    """
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024  # kB


def peak_rss_mb(seed: int, k: int) -> float:
    """Peak RSS of a fresh interpreter that makes one solve on the k-arc family."""
    command = [sys.executable, __file__, "--seed", str(seed), "--one-solve", str(k)]
    return float(subprocess.run(command, capture_output=True, text=True, check=True).stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--one-solve", type=int, metavar="K", help="solve once on K arcs and print the peak RSS in MB")
    args = parser.parse_args()
    if args.one_solve is not None:
        capacity.equilibrium_measure(families(args.seed)[args.one_solve])
        print(own_peak_rss_mb())
        return
    print(f"{'arcs':>5} {'n':>6} {'wall ms':>8} {'cpu ms':>8} {'peak MB':>8} {'RSS MB':>8}")
    for k, arcs in families(args.seed).items():
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
        rss = peak_rss_mb(args.seed, k)
        print(f"{k:5d} {len(mu.nodes):6d} {wall:8.2f} {cpu:8.2f} {peak / 2**20:8.1f} {rss:8.1f}")


if __name__ == "__main__":
    main()
