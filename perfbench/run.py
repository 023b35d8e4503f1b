"""disclab benchmark: one seeded workload per run, checked against references.

    python3 perfbench/run.py --workload seq-checks --seed 3 --seconds 18 --trace 0
    python3 perfbench/run_all.py --seed 3        # all four workloads, one table
    python3 perfbench/selftest.py                # tiny sizes, a few seconds

Set-up imports disclab from ``src/``, draws the workload's inputs from
``--seed`` (input set ``seed % INPUT_POOL``) and writes them as input
files.  ``setup_s`` is the median wall time of several set-ups, each in a
fresh interpreter, so it includes every import disclab pulls in.  The
timed phase then runs the workload's operation list as a closed loop in
this process, one operation after the other, pass after pass, until
``--seconds`` have gone by (at least three passes, after one untimed
warm-up pass).  Every operation's outputs are compared against the
stored reference for these inputs; an operation fails if it raises,
returns an unexpected CLI exit code or disagrees with the reference.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
wall and CPU time of a typical pass (see ``per_pass``; CPU counts this
process and all its descendants, see ``Usage``), set-up time and peak
RSS.  With ``--trace 1`` untraced and traced passes alternate and the
line reports the per-layer metrics of the traced passes plus the
tracing overhead.  The run record (metadata, every pass, every failure) and the spans of
the last traced pass are written under ``.perfbench_run/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
RUN_DIR = ROOT / ".perfbench_run"

# inputs are drawn from seed mod INPUT_POOL, the number of input sets with
# stored reference outputs
INPUT_POOL = 32
SETUP_REPEATS = 9
MIN_PASSES = 3
REL_TOL = 1e-10

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# correctness gate


def compare(out, ref, where: str = "") -> list[str]:
    """Mismatches of an operation's outputs against its reference.

    Floats agree within REL_TOL relative (non-finite values exactly);
    everything else (exit codes, verdicts, indices, counts) must be equal.
    """
    if isinstance(ref, dict):
        if not isinstance(out, dict) or out.keys() != ref.keys():
            return [f"{where}: keys {sorted(out) if isinstance(out, dict) else out!r} != {sorted(ref)}"]
        return [m for key in ref for m in compare(out[key], ref[key], f"{where}.{key}")]
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return [f"{where}: {out!r} is not a list of {len(ref)}"]
        return [m for i, (o, r) in enumerate(zip(out, ref)) for m in compare(o, r, f"{where}[{i}]")]
    if isinstance(ref, float):
        if not isinstance(out, (float, int)) or isinstance(out, bool):
            return [f"{where}: {out!r} != {ref!r}"]
        if math.isfinite(ref):
            ok = abs(out - ref) <= REL_TOL * abs(ref)
        else:
            ok = out == ref or (math.isnan(out) and math.isnan(ref))
        return [] if ok else [f"{where}: {out!r} != {ref!r} (rel tol {REL_TOL})"]
    if type(out) is not type(ref) or out != ref:
        return [f"{where}: {out!r} != {ref!r}"]
    return []


def load_reference(workload: str, size: str, index: int) -> dict:
    path = REFERENCE_DIR / f"{workload}.{size}.json"
    with open(path) as fh:
        stored = json.load(fh)
    if str(index) not in stored:
        raise SystemExit(f"{path} holds no reference for input set {index}")
    return stored[str(index)]


# ---------------------------------------------------------------------------
# run metadata


def _git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(seed: int, index: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": _git_commit(ROOT),
        "seed": seed,
        "input_set": index,
    }


# ---------------------------------------------------------------------------
# set-up and passes


CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _descendants(pid: int) -> list[int]:
    """Live descendant processes of `pid` (children are listed per thread)."""
    found, todo = [], [pid]
    while todo:
        for children in Path(f"/proc/{todo.pop()}/task").glob("*/children"):
            try:
                kids = [int(kid) for kid in children.read_text().split()]
            except OSError:  # the thread ended meanwhile
                continue
            found += kids
            todo += kids
    return found


def _proc_usage(pid: int) -> tuple[float, int]:
    """CPU seconds (its own and its reaped children's) and peak RSS in kB of a live process."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:  # ended meanwhile; counted through RUSAGE_CHILDREN once reaped
        return 0.0, 0
    # fields 14-17 of stat: utime, stime, cutime, cstime
    ticks = sum(int(field) for field in stat[stat.rindex(")") + 2 :].split()[11:15])
    hwm = [line.split()[1] for line in status.splitlines() if line.startswith("VmHWM:")]
    return ticks / CLOCK_TICKS, int(hwm[0]) if hwm else 0


class Usage:
    """CPU time and peak RSS of this process and all its descendants.

    getrusage covers this process and the children it has reaped; live
    descendants, such as the workers of a pool kept between calls, are
    read from /proc at every sample.  The peak RSS is this process's own
    plus the larger of the summed peaks of the descendants alive at a
    sample and the peak of the largest descendant that has ended.
    """

    def __init__(self):
        self.peak_kb = 0

    def sample(self) -> float:
        """CPU seconds used so far by the process tree; updates the peak RSS."""
        own, reaped = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime
        live_kb = 0
        for pid in _descendants(os.getpid()):
            seconds, hwm_kb = _proc_usage(pid)
            cpu += seconds
            live_kb += hwm_kb
        self.peak_kb = max(self.peak_kb, own.ru_maxrss + max(live_kb, reaped.ru_maxrss))
        return cpu


def input_dir(workload: str, tag: str = "") -> Path:
    """A fresh directory for one set-up's input files."""
    path = RUN_DIR / f"{workload}-inputs-{os.getpid()}{tag}"
    shutil.rmtree(path, ignore_errors=True)
    return path


# a fresh interpreter's set-up: argv is src dir, perfbench dir, workload, size, input set, workdir
_SETUP_CHILD = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.set_up(sys.argv[3], sys.argv[4], int(sys.argv[5]), sys.argv[6])"
)


def time_set_up(workload: str, size: str, index: int, repeats: int) -> list[float]:
    """Wall times of `repeats` set-ups, each in a fresh interpreter.

    Each one starts Python, imports disclab with everything it imports
    (numpy, scipy), draws the inputs and writes the input files, as a
    user's first command would.
    """
    times = []
    for i in range(repeats):
        workdir = input_dir(workload, f"-setup{i}")
        argv = [sys.executable, "-c", _SETUP_CHILD, str(ROOT / "src"), str(HERE), workload, size, str(index),
                str(workdir)]
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        times.append(time.perf_counter() - start)
        shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up of {workload} failed: {proc.stderr.strip()}")
    return times


def run_pass(ops, usage: Usage, tracer=None) -> list:
    """Run every operation once; [(ok, output or error, wall_s, cpu_s)] per operation."""
    results = []
    cpu = usage.sample()
    for i, (_, fn) in enumerate(ops):
        if tracer is not None:
            tracer.current_op = i
        start = time.perf_counter()
        try:
            out = (True, fn())
        except Exception as exc:  # a failing operation is counted, not fatal
            out = (False, f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - start
        cpu, before = usage.sample(), cpu
        results.append(out + (wall, cpu - before))
    return results


def per_pass(passes: list, column: int) -> float:
    """Time of a typical pass: the sum over operations of each one's median.

    Other load on the machine comes in bursts that slow some operations of
    a pass; the median of each operation over the passes leaves those out,
    and unlike a minimum it does not shift with the number of passes.
    """
    return math.fsum(statistics.median(op) for op in zip(*([r[column] for r in p] for p in passes)))


def check_pass(ops, results, reference: dict) -> list[str]:
    failures = []
    for (name, _), (ok, out, *_) in zip(ops, results):
        if not ok:
            failures.append(f"{name}: raised {out}")
            continue
        # compare the outputs as they would be stored: through JSON
        mismatches = compare(json.loads(json.dumps(out)), reference.get(name), name)
        if mismatches:
            failures.append("; ".join(mismatches[:3]))
    return failures


def timed_phase(ops, usage: Usage, tracer, seconds: float, min_passes: int, reference: dict) -> dict:
    """An untimed warm-up pass, then passes over `ops` until `seconds` have gone by.

    Untraced, at least `min_passes` passes.  With a tracer, untraced and
    traced passes alternate, at least one untraced and two traced.
    """
    phase = {"plain": [], "traced": [], "layers": [], "failures": [], "attempted": 0, "spans": None}
    plain, traced = phase["plain"], phase["traced"]
    # the first pass of a process runs up to a third slower (heap growth, lazy
    # state in numpy and scipy): it is checked but not timed
    warm_up = run_pass(ops, usage)
    phase["attempted"] += len(ops)
    phase["failures"] += [f"warm-up pass: {f}" for f in check_pass(ops, warm_up, reference)]
    started = time.perf_counter()
    while True:
        enough = len(plain) >= 1 and len(traced) >= 2 if tracer else len(plain) >= min_passes
        if enough and time.perf_counter() - started >= seconds:
            return phase
        if tracer and len(traced) < len(plain):
            tracer.reset()
            tracer.install()
            try:
                results = run_pass(ops, usage, tracer)
            finally:
                tracer.uninstall()
            phase["spans"] = tracer.spans()
            phase["layers"].append(tracing.layer_metrics(phase["spans"], tracer.names, tracer.observed))
            traced.append(results)
        else:
            results = run_pass(ops, usage)
            plain.append(results)
        phase["attempted"] += len(ops)
        n = len(plain) + len(traced)
        phase["failures"] += [f"pass {n}: {f}" for f in check_pass(ops, results, reference)]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
                 min_passes: int = MIN_PASSES, setup_repeats: int = SETUP_REPEATS,
                 reference: dict | None = None) -> dict:
    """One benchmark run; returns the run record with its metrics."""
    index = seed % INPUT_POOL
    if reference is None:
        reference = load_reference(workload, size, index)
    workdir = input_dir(workload)
    try:
        pkg, inputs = workloads.set_up(workload, size, index, workdir)
        spec = workloads.WORKLOADS[workload]
        ops = spec["ops"](pkg, inputs, spec["sizes"][size])
        tracer = tracing.Tracer(pkg) if trace else None
        usage = Usage()
        phase = timed_phase(ops, usage, tracer, seconds, min_passes, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = phase["plain"]
    peak_rss_mb = usage.peak_kb / 1024.0
    # after the timed phase, so that the set-up interpreters, reaped children
    # of this process, do not count in its peak RSS
    setup_times = time_set_up(workload, size, index, setup_repeats) if not trace else []
    record = {
        "workload": workload,
        "size": size,
        "meta": metadata(seed, index),
        "setup_s_all": setup_times,
        "pass_wall_s": [math.fsum(r[2] for r in p) for p in plain],
        "pass_cpu_s": [math.fsum(r[3] for r in p) for p in plain],
        "traced_pass_wall_s": [math.fsum(r[2] for r in p) for p in phase["traced"]],
        "op_wall_s": {name: [p[i][2] for p in plain] for i, (name, _) in enumerate(ops)},
        "attempted": phase["attempted"],
        "failures": phase["failures"],
        "inconsistent": [],
    }
    if not trace:
        record["metrics"] = {
            "wall_s": per_pass(plain, 2),
            "setup_s": statistics.median(setup_times),
            "cpu_s": per_pass(plain, 3),
            "peak_rss_mb": peak_rss_mb,
        }
        record["units"] = dict(END_TO_END)
        return record

    metrics = {}
    for name in phase["layers"][0]:
        values = [layers[name] for layers in phase["layers"]]
        if tracing.LAYER_METRICS[name][0] in tracing.TIME_UNITS:
            metrics[name] = statistics.median(values)
        else:
            # counts depend on the inputs alone, so they must repeat exactly
            if any(v != values[0] for v in values):
                record["inconsistent"].append(f"count {name} differs between traced passes: {values}")
            metrics[name] = values[0]
    metrics["trace.overhead_frac"] = per_pass(phase["traced"], 2) / per_pass(plain, 2) - 1.0
    record["metrics"] = metrics
    record["units"] = {name: tracing.LAYER_METRICS[name][0] for name in metrics}
    record["op_names"] = [name for name, _ in ops]
    record["spans"] = phase["spans"]
    record["span_names"] = list(tracer.names)
    return record


def write_record(record: dict, seed: int, trace: bool) -> None:
    stem = RUN_DIR / f"{record['workload']}-seed{seed}-trace{int(trace)}"
    spans = record.pop("spans", None)
    if spans is not None:
        tracing.write_trace(stem.with_suffix(".spans.npz"), spans, record["span_names"], record["op_names"])
    with open(stem.with_suffix(".json"), "w") as fh:
        json.dump(record, fh, indent=1)


def result_line(record: dict) -> dict:
    return {
        "correct": not record["failures"] and not record["inconsistent"],
        "attempted": record["attempted"],
        "failed": len(record["failures"]),
        "metrics": {
            name: {"value": value, "unit": record["units"][name]} for name, value in record["metrics"].items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "disclab" / "__init__.py").is_file():
        print(f"no disclab sources under {ROOT / 'src'}; run from a disclab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    write_record(record, args.seed, bool(args.trace))
    for failure in record["failures"] + record["inconsistent"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print("meta " + json.dumps(record["meta"]))
    print(f"failed_frac = {len(record['failures']) / record['attempted']:.6g} "
          f"({len(record['failures'])} of {record['attempted']} operations)")
    for name, value in record["metrics"].items():
        print(f"{name} = {value:.6g} {record['units'][name]}")
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
