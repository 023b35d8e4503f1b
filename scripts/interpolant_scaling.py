"""Time the interpolant block build as the grid and the supports grow.

For three families of `disjoint_boxes` sequences (deep boxes, depth
2^-8 to 2^-6, 20 points; shallow boxes, 0.05 to 0.2, 3 points; shallow
boxes, 0.2 to 0.45, 2 points) at 64x256, 96x384 and 128x512, prints the
median wall and CPU time (`time.process_time`, all of this process's
threads) of `sequences._build_blocks` over the repeats and the
size of the one banded system it factors: its unknowns (the free nodes
of all supports) and its bandwidth.

    PYTHONPATH=src python3 scripts/interpolant_scaling.py [--repeats 9] [--seed 1]
"""

import argparse
import statistics
import time

import scipy.linalg

from disclab import sequences

GAMMA = 0.75
FAMILIES = (
    ("deep", {"count": 20, "depth_min": 2.0**-8, "depth_max": 2.0**-6}),
    ("shallow", {"count": 3, "depth_min": 0.05, "depth_max": 0.2}),
    ("shallower", {"count": 2, "depth_min": 0.2, "depth_max": 0.45}),
)
RESOLUTIONS = ((64, 256), (96, 384), (128, 512))


def band_shape(seq, resolution) -> tuple[int, int]:
    """(unknowns, bandwidth) of the system one block build factors."""
    shapes = []
    solve = scipy.linalg.solveh_banded

    def recording(ab, *args, **kwargs):
        shapes.append(ab.shape)
        return solve(ab, *args, **kwargs)

    scipy.linalg.solveh_banded = recording
    try:
        sequences._build_blocks(seq, GAMMA, resolution)
    finally:
        scipy.linalg.solveh_banded = solve
    (rows, unknowns), = shapes
    return unknowns, rows - 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    print(f"{'family':>10} {'grid':>8} {'unknowns':>9} {'band':>5} {'wall ms':>8} {'cpu ms':>8}")
    for name, params in FAMILIES:
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
            print(f"{name:>10} {grid:>8} {unknowns:9d} {band:5d} {wall:8.2f} {cpu:8.2f}")


if __name__ == "__main__":
    main()
