"""Time the interpolant block build as the grid and the supports grow.

For three families of `disjoint_boxes` sequences (deep boxes, depth
2^-8 to 2^-6, 20 points; shallow boxes, 0.05 to 0.2, 3 points; shallow
boxes, 0.2 to 0.45, 2 points) at 64x256, 96x384 and 128x512, prints the
median wall and CPU time (`time.process_time`, all of this process's
threads) of `sequences._build_blocks` over the repeats, the
size of the one banded system it factors: its unknowns (the free nodes
of all supports) and its bandwidth, and the peak RSS of a fresh
interpreter that imports disclab and makes one build, which counts
everything, the interpreter and numpy (about 30 MB) included (see
equilibrium_scaling.own_peak_rss_mb).

    PYTHONPATH=src python3 scripts/interpolant_scaling.py [--repeats 9] [--seed 1]
"""

import argparse
import statistics
import subprocess
import sys
import time

from disclab import _blas, sequences
from equilibrium_scaling import own_peak_rss_mb

GAMMA = 0.75
FAMILIES = {
    "deep": {"count": 20, "depth_min": 2.0**-8, "depth_max": 2.0**-6},
    "shallow": {"count": 3, "depth_min": 0.05, "depth_max": 0.2},
    "shallower": {"count": 2, "depth_min": 0.2, "depth_max": 0.45},
}
RESOLUTIONS = ((64, 256), (96, 384), (128, 512))


def band_shape(seq, resolution) -> tuple[int, int]:
    """(unknowns, bandwidth) of the system one block build factors."""
    shapes = []
    solve = _blas.solve_banded

    def recording(ab, *args, **kwargs):
        shapes.append(ab.shape)
        return solve(ab, *args, **kwargs)

    _blas.solve_banded = recording
    try:
        sequences._build_blocks(seq, GAMMA, resolution)
    finally:
        _blas.solve_banded = solve
    (rows, unknowns), = shapes
    return unknowns, rows - 1


def peak_rss_mb(name: str, seed: int, n_r: int, n_t: int) -> float:
    """Peak RSS of a fresh interpreter that makes one block build of the family at n_r x n_t."""
    command = [sys.executable, __file__, "--seed", str(seed), "--one-build", name, str(n_r), str(n_t)]
    return float(subprocess.run(command, capture_output=True, text=True, check=True).stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--one-build", nargs=3, metavar=("FAMILY", "N_R", "N_T"),
        help="build the family's blocks once at N_R x N_T and print the peak RSS in MB",
    )
    args = parser.parse_args()
    if args.one_build is not None:
        name, n_r, n_t = args.one_build
        sequences._build_blocks(sequences.disjoint_boxes(seed=args.seed, **FAMILIES[name]), GAMMA, (int(n_r), int(n_t)))
        print(own_peak_rss_mb())
        return
    print(f"{'family':>10} {'grid':>8} {'unknowns':>9} {'band':>5} {'wall ms':>8} {'cpu ms':>8} {'RSS MB':>8}")
    for name, params in FAMILIES.items():
        seq = sequences.disjoint_boxes(seed=args.seed, **params)
        for n_r, n_t in RESOLUTIONS:
            unknowns, band = band_shape(seq, (n_r, n_t))  # also the warm-up
            walls, cpus = [], []
            for _ in range(args.repeats):
                start, cpu = time.perf_counter(), time.process_time()
                sequences._build_blocks(seq, GAMMA, (n_r, n_t))
                walls.append(time.perf_counter() - start)
                cpus.append(time.process_time() - cpu)
            grid = f"{n_r}x{n_t}"
            wall, cpu = 1e3 * statistics.median(walls), 1e3 * statistics.median(cpus)
            rss = peak_rss_mb(name, args.seed, n_r, n_t)
            print(f"{name:>10} {grid:>8} {unknowns:9d} {band:5d} {wall:8.2f} {cpu:8.2f} {rss:8.1f}")


if __name__ == "__main__":
    main()
