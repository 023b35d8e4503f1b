"""Run every workload once and print its end-to-end metrics by name and unit.

    python3 perfbench/run_all.py --seed 3

Each workload runs in its own process (``run.py``) for BENCHMARK.json's
``run_seconds``, so peak RSS is per workload.  Exits 1 if any run fails its correctness gate.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    with open(HERE.parent / "BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]
    ok = True
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload}: run.py exited {proc.returncode}")
            ok = False
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        ok &= result["correct"]
        print(f"{workload}: correct={result['correct']}")
        print(f"  {'failed_frac':12s} {result['failed'] / result['attempted']:12.6g} ratio")
        for name, metric in result["metrics"].items():
            print(f"  {name:12s} {metric['value']:12.6g} {metric['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
