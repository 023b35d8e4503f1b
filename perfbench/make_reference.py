"""Record reference outputs for the correctness gate.

Run at the commit whose outputs are the reference (the stored files were
recorded at 5acb0eb):

    python3 perfbench/make_reference.py --size full --count 32
    python3 perfbench/make_reference.py --size smoke --count 1

Each workload's file maps input set -> operation -> output summary.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--size", choices=("full", "smoke"), required=True)
    parser.add_argument("--count", type=int, default=run.INPUT_POOL)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.ROOT / "src"))
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in sorted(workloads.WORKLOADS):
        spec = workloads.WORKLOADS[name]
        stored = {}
        for index in range(args.count):
            workdir = run.input_dir(name)
            pkg, inputs = workloads.set_up(name, args.size, index, workdir)
            ops = spec["ops"](pkg, inputs, spec["sizes"][args.size])
            results = run.run_pass(ops, run.Usage())
            shutil.rmtree(workdir)
            failed = [f"{op}: {out}" for (op, _), (ok, out, *_) in zip(ops, results) if not ok]
            if failed:
                print(f"{name} input set {index}: operations failed: {failed}", file=sys.stderr)
                return 1
            stored[str(index)] = {op: out for (op, _), (_, out, *_) in zip(ops, results)}
            print(f"{name} input set {index}: {len(ops)} operations, {sum(r[2] for r in results):.2f}s", flush=True)
        with open(run.REFERENCE_DIR / f"{name}.{args.size}.json", "w") as fh:
            json.dump(stored, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
