"""The benchmark's four workloads: seeded inputs and the operations on them.

Each workload has a set-up, which draws its inputs from a numpy
generator and writes them as the files the program reads (sequence JSON,
arc and condenser specs), and an operation list.  An operation reads its
input files, calls into disclab and returns a JSON-able summary of the
outputs; the correctness gate compares that summary against the stored
reference.  Operations look library functions up on the
module at call time (``pkg.capacity.log_capacity``), so the tracer's
wrappers see them.

Why each workload was chosen is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

GAMMA = 0.75


class OperationError(Exception):
    """An operation got an unexpected exit code or inconsistent outputs."""


def _write(path: Path, data) -> str:
    with open(path, "w") as fh:
        json.dump(data, fh)
    return str(path)


def _point(theta: float, depth: float) -> dict:
    # depth form: r = 1 - depth would round deep points onto the circle
    return {"theta": float(theta), "depth": float(depth)}


def _run_cli(pkg, argv) -> tuple[int, dict | None]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pkg.cli.main(argv)
    text = out.getvalue()
    if code not in (0, 1):
        raise OperationError(f"exit code {code}: {err.getvalue().strip()}")
    return code, json.loads(text) if text else None


def _check_summary(code: int, report: dict) -> dict:
    ratios = [rec["ratio"] for rec in report["records"]]
    finite = [r for r in ratios if math.isfinite(r)]
    return {
        "exit": code,
        "pass": report["pass"],
        "sup_ratio": report["sup_ratio"],
        "witness_index": report["witness_index"],
        "ratio_sum": math.fsum(finite),
        "nonfinite_ratios": len(ratios) - len(finite),
        "rhs_sum": math.fsum(rec["rhs"] for rec in report["records"]),
        "warnings": len(report["warnings"]),
    }


# ---------------------------------------------------------------------------
# seq-checks


def _comb_nodes(m: int, anchor_k: int) -> list[tuple[int, int]]:
    """Anchor (m^2, anchor_k) of a comb followed by its m teeth, as (level, index).

    Spine node i is the i-th child_plus iterate (N + i, anchor_k 2^i); its
    tooth hangs N levels below through child_minus, (n, k) -> (n + 1, 2k - 1).
    """
    big_n = m * m
    nodes = [(big_n, anchor_k)]
    for i in range(1, m + 1):
        n, k = big_n + i, anchor_k * 2**i
        for _ in range(big_n):
            n, k = n + 1, 2 * k - 1
        nodes.append((n, k))
    return nodes


def _comb_points(m: int) -> list[dict]:
    """The comb at anchor (m^2, 1), anchor included, embedded in the disc."""
    return [
        _point(2.0 * math.pi * float(Fraction(k % 2**n, 2**n)), math.ldexp(1.0, -n))
        for n, k in _comb_nodes(m, 1)
    ]


def _arc_union(rng, k: int) -> list[dict]:
    """k pairwise disjoint arcs at uniform centers."""
    centers = np.sort(rng.uniform(0.0, 1.0, k))
    gaps = np.diff(np.concatenate([centers, [centers[0] + 1.0]]))
    room = np.minimum(gaps, np.roll(gaps, 1)) if k > 1 else np.array([1.0])
    lengths = room * rng.uniform(0.3, 0.9, k)
    return [{"center_angle": 2.0 * math.pi * c, "length": float(l)} for c, l in zip(centers, lengths)]


def _stratified(rng, n: int) -> np.ndarray:
    """n uniform draws on [0, 1), one in each of n equal strata, in random order."""
    return (rng.permutation(n) + rng.uniform(0.0, 1.0, n)) / n


def setup_seq_checks(rng, size: dict, workdir: Path) -> dict:
    # angles uniform and depths log-uniform in [1e-6, 0.5], each stratified:
    # the checkers' cost follows how the points cluster, and one draw per
    # stratum keeps that, and so the work per pass, nearly the same across seeds
    n = size["points"]
    thetas = 2.0 * math.pi * _stratified(rng, n)
    depths = np.exp(math.log(1e-6) + _stratified(rng, n) * (math.log(0.5) - math.log(1e-6)))
    inputs = {
        "sequence": _write(workdir / "sequence.json", {"points": [_point(t, d) for t, d in zip(thetas, depths)]}),
        "arcs": {k: _write(workdir / f"arcs-{k}.json", {"arcs": _arc_union(rng, k)}) for k in size["arcs"]},
        "combs": {m: _write(workdir / f"comb-{m}.json", {"points": _comb_points(m)}) for m in size["comb_m"]},
    }
    return inputs


def ops_seq_checks(pkg, inputs: dict, size: dict) -> list:
    ops = []

    def check(condition, path):
        def op():
            code, report = _run_cli(pkg, ["check", condition, path])
            if condition == "mass":
                return {"exit": code, "total_mass": report["total_mass"]}
            out = _check_summary(code, report)
            if condition == "ws":
                out["metric_min"] = report["params"]["metric_min"]
            return out

        return op

    for condition in ("ws", "cc", "theorem-d", "mass"):
        ops.append((f"check-{condition}", check(condition, inputs["sequence"])))

    def vicinity():
        seq = pkg.sequences.load_sequence(inputs["sequence"])
        sizes = [len(pkg.sequences.vicinity(seq, i, GAMMA)) for i in range(len(seq))]
        return {"members": sum(sizes), "nonempty": sum(1 for s in sizes if s), "largest": max(sizes)}

    ops.append(("vicinity", vicinity))

    def arcs(path):
        def op():
            code, report = _run_cli(pkg, ["capacity", "arcs", path])
            return {"exit": code, "capacity": report["capacity"], "arc_count": report["arc_count"]}

        return op

    for k, path in inputs["arcs"].items():
        ops.append((f"capacity-arcs-{k}", arcs(path)))
    for m, path in inputs["combs"].items():
        ops.append((f"comb-cc-{m}", check("cc", path)))

    def counterexample():
        code, report = _run_cli(pkg, ["tree", "counterexample"])
        return {
            "exit": code,
            "pass": report["pass"],
            "metric_min": report["weak_separation"]["params"]["metric_min"],
            "teeth": _check_summary(code, report["teeth_capacitary"]),
            "mass_ratios": [rec["ratio"] for rec in report["mass_records"]],
            "tree_ratios": [rec["ratio"] for rec in report["tree_records"]],
        }

    ops.append(("tree-counterexample", counterexample))
    return ops


# ---------------------------------------------------------------------------
# grid-condensers


def _condenser_configuration(rng) -> dict:
    """A base point and 1-3 points at most half as deep (criterion 07's draw)."""
    z_theta = rng.uniform(0, 2 * math.pi)
    z_depth = 2.0 ** rng.uniform(-4.5, -3.0)
    points = []
    for _ in range(int(rng.integers(1, 4))):
        depth = 2.0 ** rng.uniform(-6.0, math.log2(z_depth / 2.0))
        theta = z_theta + rng.uniform(0.6, 1.5) * rng.choice([-1.0, 1.0])
        points.append(_point(theta, depth))
    return {"z": _point(z_theta, z_depth), "points": points}


def _grid_spec(rng) -> dict:
    """Inner unit hyperbolic disc against one arc and one box across the disc."""
    theta = rng.uniform(0.0, 2.0 * math.pi)
    side = rng.choice([-1.0, 1.0])
    box_len = rng.uniform(0.02, 0.05)
    return {
        "plate_inner": {"center": _point(theta, 2.0 ** rng.uniform(-4.0, -2.5)), "radius": 1.0},
        "plate_outer": {
            "arcs": [{"center_angle": theta + side * rng.uniform(1.0, 2.0), "length": rng.uniform(0.02, 0.06)}],
            "boxes": [
                {
                    "base_arc": {"center_angle": theta - side * rng.uniform(1.0, 2.0), "length": box_len},
                    "inner_radius": 1.0 - box_len,
                }
            ],
        },
    }


def setup_grid_condensers(rng, size: dict, workdir: Path) -> dict:
    return {
        "configs": [
            _write(workdir / f"config-{i}.json", _condenser_configuration(rng)) for i in range(size["configs"])
        ],
        "grid_spec": _write(workdir / "grid-spec.json", _grid_spec(rng)),
    }


def ops_grid_condensers(pkg, inputs: dict, size: dict) -> list:
    resolution = tuple(size["resolution"])

    def config(path):
        def op():
            with open(path) as fh:
                spec = json.load(fh)
            z = pkg.geometry.point_from_json(spec["z"])
            points = [pkg.geometry.point_from_json(p) for p in spec["points"]]
            boxes, discs, arcs = pkg.capacity.three_condenser_capacities(z, points, resolution)
            return {"boxes": boxes, "discs": discs, "arcs": arcs}

        return op

    ops = [(f"three-condensers-{i}", config(path)) for i, path in enumerate(inputs["configs"])]

    def grid():
        code, report = _run_cli(
            pkg, ["capacity", "grid", inputs["grid_spec"], "--grid-r", str(size["cli_grid"][0]),
                  "--grid-t", str(size["cli_grid"][1])]
        )
        return {"exit": code, "capacity": report["capacity"], "refined_capacity": report["refined_capacity"]}

    ops.append(("capacity-grid", grid))
    return ops


# ---------------------------------------------------------------------------
# interpolant


def _disjoint_boxes(rng, count: int, lo: float = 2.0**-8, hi: float = 2.0**-6) -> list[dict]:
    """Points, shallow first, whose GAMMA-expanded boxes are pairwise disjoint."""
    while True:
        depths = np.sort(np.exp(rng.uniform(math.log(lo), math.log(hi), count)))[::-1]
        placed = []  # (center, half-length) as fractions of the circle
        for depth in depths:
            half = 0.5 * depth**GAMMA
            for _ in range(600):
                frac = rng.uniform(0.0, 1.0)
                if all(min(abs(frac - c), 1.0 - abs(frac - c)) > half + h for c, h in placed):
                    placed.append((frac, half))
                    break
            else:
                break  # no free slot: draw the whole sequence again
        if len(placed) == count:
            return [_point(2.0 * math.pi * c, d) for (c, _), d in zip(placed, depths)]


def setup_interpolant(rng, size: dict, workdir: Path) -> dict:
    count = size["count"]
    seqs = []
    for s in range(size["sequences"]):
        points = _disjoint_boxes(rng, count)
        data = rng.normal(size=(size["vectors"], count))
        data /= np.linalg.norm(data, axis=1, keepdims=True)
        seqs.append(
            (
                _write(workdir / f"boxes-{s}.json", {"points": points}),
                _write(workdir / f"data-{s}.json", data.tolist()),
            )
        )
    return {"sequences": seqs}


def ops_interpolant(pkg, inputs: dict, size: dict) -> list:
    def interpolant(seq_path, data_path, resolution):
        def op():
            seq = pkg.sequences.load_sequence(seq_path)
            with open(data_path) as fh:
                data = np.array(json.load(fh))
            # the call path of criterion 12: one block build, many assemblies
            blocks = pkg.sequences._build_blocks(seq, GAMMA, resolution)
            energies = [
                pkg.sequences.assemble_sobolev_interpolant(seq, a, GAMMA, blocks=blocks)[1] for a in data
            ]
            return {"block_energies": [float(e) for e in blocks.block_energies], "energies": energies}

        return op

    return [
        (f"interpolant-{s}-{r}x{t}", interpolant(seq_path, data_path, (r, t)))
        for s, (seq_path, data_path) in enumerate(inputs["sequences"])
        for r, t in size["resolutions"]
    ]


# ---------------------------------------------------------------------------
# tree-condensers


def _comb_condenser(m: int) -> dict:
    """The comb condenser at tree.default_anchor(m^2), the last node of its level."""
    anchor, *teeth = _comb_nodes(m, 2 ** (m * m))
    return {"source": list(anchor), "targets": [list(t) for t in teeth], "m": m}


def _random_condenser(rng, targets: int) -> dict:
    """Distinct targets at levels 10-29 below the source (2, 1).

    At 250 targets every path union has 2400-3000 nodes, above the
    2000-node limit of tree_capacity_exact's dense solve, so every input
    set takes the same route through the program.
    """
    chosen = set()
    while len(chosen) < targets:
        level = int(rng.integers(10, 30))
        chosen.add((level, int(rng.integers(1, 2 ** (level - 2) + 1))))
    return {"source": [2, 1], "targets": [list(t) for t in sorted(chosen)]}


def setup_tree_condensers(rng, size: dict, workdir: Path) -> dict:
    return {
        "combs": {m: _write(workdir / f"comb-{m}.json", _comb_condenser(m)) for m in size["comb_m"]},
        "random": [
            _write(workdir / f"random-{i}.json", _random_condenser(rng, size["targets"]))
            for i in range(size["random"])
        ],
    }


def ops_tree_condensers(pkg, inputs: dict, size: dict) -> list:
    tree = pkg.tree

    def condenser(path):
        def op():
            with open(path) as fh:
                spec = json.load(fh)
            cond = tree.TreeCondenser(
                tree.TreeNode(*spec["source"]), tuple(tree.TreeNode(n, k) for n, k in spec["targets"])
            )
            rec = tree.tree_capacity_recursive(cond)
            exact = float(tree.tree_capacity_exact(cond))
            if not abs(rec - exact) <= 1e-10 * abs(exact):
                raise OperationError(f"recursive {rec!r} and exact {exact!r} differ beyond 1e-10 relative")
            out = {"recursive": rec, "exact": exact, "path_union_size": int(tree.path_union_size(cond))}
            if "m" in spec:
                out["closed_form"] = tree.comb_capacity_closed_form(spec["m"] ** 2)
            return out

        return op

    ops = [(f"comb-{m}", condenser(path)) for m, path in inputs["combs"].items()]
    ops += [(f"random-{i}", condenser(p)) for i, p in enumerate(inputs["random"])]

    def comb_sweep():
        code, report = _run_cli(pkg, ["tree", "comb", "--m-max", str(size["sweep_m_max"])])
        return {
            "exit": code,
            "c0": [row["c0"] for row in report["sweep"]],
            "closed_form": [row["closed_form"] for row in report["sweep"]],
        }

    ops.append(("tree-comb-sweep", comb_sweep))
    return ops


# ---------------------------------------------------------------------------
# registry and set-up


WORKLOADS = {
    "seq-checks": {
        "stream": 1,
        "setup": setup_seq_checks,
        "ops": ops_seq_checks,
        "sizes": {
            "full": {"points": 240, "arcs": (1, 4, 16, 64), "comb_m": tuple(range(4, 21))},
            "smoke": {"points": 24, "arcs": (1, 4), "comb_m": (4, 5)},
        },
    },
    "grid-condensers": {
        "stream": 2,
        "setup": setup_grid_condensers,
        "ops": ops_grid_condensers,
        "sizes": {
            "full": {"configs": 2, "resolution": (128, 256), "cli_grid": (96, 256)},
            "smoke": {"configs": 1, "resolution": (32, 256), "cli_grid": (32, 256)},
        },
    },
    "interpolant": {
        "stream": 3,
        "setup": setup_interpolant,
        "ops": ops_interpolant,
        "sizes": {
            "full": {"sequences": 4, "count": 20, "vectors": 50, "resolutions": ((64, 256), (96, 384), (128, 512))},
            "smoke": {"sequences": 1, "count": 6, "vectors": 4, "resolutions": ((32, 128),)},
        },
    },
    "tree-condensers": {
        "stream": 4,
        "setup": setup_tree_condensers,
        "ops": ops_tree_condensers,
        "sizes": {
            "full": {"comb_m": (32, 40), "random": 3, "targets": 250, "sweep_m_max": 60},
            "smoke": {"comb_m": (4,), "random": 1, "targets": 12, "sweep_m_max": 8},
        },
    },
}


def set_up(workload: str, size: str, index: int, workdir) -> tuple:
    """Import disclab, draw input set `index` and write its files; (package, inputs)."""
    pkg = importlib.import_module("disclab")
    importlib.import_module("disclab.cli")
    spec = WORKLOADS[workload]
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([index, spec["stream"]])
    return pkg, spec["setup"](rng, spec["sizes"][size], workdir)
