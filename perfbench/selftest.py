"""Fast self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

For each workload it checks that an untraced run emits every end-to-end
metric of BENCHMARK.json with its unit and passes the correctness gate,
that a traced run emits every per-layer metric with its unit, that the
count metrics repeat exactly between two traced runs, and that the gate
flags a deliberately perturbed reference (one float off by 1e-8
relative; one integer, such as an exit code, changed).  It also checks
that CPU time and peak RSS count work moved onto a persistent process
pool's worker.
"""

from __future__ import annotations

import concurrent.futures
import copy
import json
import multiprocessing
import resource
import sys
import time

import run
import tracer as tracing
import workloads

SEED = 0


def _first(ref, want):
    """Path (list of keys) to the first value of type `want` in a reference."""
    if isinstance(ref, dict):
        items = ref.items()
    elif isinstance(ref, list):
        items = enumerate(ref)
    else:
        return [] if type(ref) is want else None
    for key, value in items:
        path = _first(value, want)
        if path is not None:
            return [key] + path
    return None


def _perturbed(reference: dict, want, change) -> dict | None:
    ref = copy.deepcopy(reference)
    path = _first(ref, want)
    if path is None:
        return None
    holder = ref
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = change(holder[path[-1]])
    return ref


_HELD = []


def _burn(cpu_seconds: float, hold_mb: int = 0) -> None:
    """Spin for `cpu_seconds` of CPU time, keeping `hold_mb` of touched memory alive."""
    if hold_mb:
        _HELD.append(b"\x01" * (hold_mb << 20))
    end = time.process_time() + cpu_seconds
    while time.process_time() < end:
        pass


def _check_pool_usage() -> list[str]:
    """The same work must cost as much CPU on a live pool worker as in-process."""
    usage = run.Usage()
    with concurrent.futures.ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        pool.submit(_burn, 0.0).result()  # the worker stays alive across operations from here on
        [(_, _, _, local)] = run.run_pass([("local", lambda: _burn(0.3))], usage)
        [(_, _, _, pooled)] = run.run_pass([("pooled", lambda: pool.submit(_burn, 0.3, 64).result())], usage)
        held_mb = (usage.peak_kb - resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) / 1024.0
    problems = []
    if pooled < 0.8 * local:
        problems.append(f"pool: CPU of work on a live worker {pooled:.3f}s against {local:.3f}s in-process")
    if held_mb < 64:
        problems.append(f"pool: peak RSS misses the 64 MB a live worker holds (sees {held_mb:.1f} MB)")
    return problems


def _run(workload, trace, reference=None):
    return run.run_workload(workload, SEED, 0.0, trace, size="smoke", min_passes=1, setup_repeats=1,
                            reference=reference)


def _check_metrics(record, declared: list, label: str) -> list[str]:
    line = run.result_line(record)
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(line)}")
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    if got != want:
        problems.append(f"{label}: metrics {got} != BENCHMARK.json {want}")
    if not line["correct"] or line["failed"]:
        problems.append(f"{label}: gate failed on unperturbed reference: {record['failures'] + record['inconsistent']}")
    json.dumps(line, allow_nan=False)  # the result line must be strict JSON
    return problems


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    declared_workloads = {w["name"] for w in bench["workloads"]}
    problems = _check_pool_usage()
    if declared_workloads != set(workloads.WORKLOADS):
        problems.append(f"workloads {sorted(workloads.WORKLOADS)} != BENCHMARK.json {sorted(declared_workloads)}")
    for workload in sorted(workloads.WORKLOADS):
        problems += _check_metrics(_run(workload, False), bench["end_to_end"], f"{workload} untraced")
        first, second = _run(workload, True), _run(workload, True)
        problems += _check_metrics(first, bench["per_layer"], f"{workload} traced")
        for name, value in first["metrics"].items():
            if tracing.LAYER_METRICS[name][0] not in tracing.TIME_UNITS and name != "trace.overhead_frac":
                if second["metrics"][name] != value:
                    problems.append(f"{workload}: count {name} {value} then {second['metrics'][name]}")

        reference = run.load_reference(workload, "smoke", SEED % run.INPUT_POOL)
        for label, want, change in (
            ("float off by 1e-8", float, lambda v: v * (1.0 + 1e-8) if v else 1e-300),
            ("integer changed", int, lambda v: v + 7),
        ):
            perturbed = _perturbed(reference, want, change)
            if perturbed is None:
                if want is float:
                    problems.append(f"{workload}: reference holds no float to perturb")
                continue
            record = _run(workload, False, perturbed)
            if not record["failures"]:
                problems.append(f"{workload}: gate missed a perturbed reference ({label})")
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print(f"SELFTEST FAILED {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
