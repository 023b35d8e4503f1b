"""Batch front door: run checkers, tree computations, and capacity solves.

Exit codes: 0 pass, 1 condition failed, 2 bad input, 3 numerical failure.
Reports are strict JSON (sweep tables CSV) and echo the parameters the
subcommand read; a non-finite number is written as null, with a warning
naming where.  This module is the file boundary: input files are read
by sequences.read_json and output files written by _write, each mapping
what goes wrong with a file to an InputError, so an unreadable,
undecodable or unwritable file exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import sys
from dataclasses import asdict

from . import __version__, capacity, geometry, sequences, tree
from .errors import DisclabError, InputError, NumericalError, ResolutionError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _number(text: str) -> float:
    """A float flag; NaN compares false to everything, so it is refused."""
    with contextlib.suppress(ValueError):
        value = float(text)
        if not math.isnan(value):
            return value
    raise argparse.ArgumentTypeError(f"not a number: {text!r}")


# Flags by name.  Each subcommand takes only the flags it reads.
_FLAGS = {
    "gamma": dict(type=_number, default=sequences.DEFAULT_GAMMA),
    "eta": dict(type=_number, default=sequences.DEFAULT_ETA),
    "delta": dict(type=_number, default=sequences.DEFAULT_DELTA),
    "budget": dict(type=_number, default=sequences.COMPARABILITY_BUDGET),
    "grid-r": dict(type=int, default=96),
    "grid-t": dict(type=int, default=256),
    "seed": dict(type=int, default=0),
    "out": dict(default=None, help="write the JSON report here as well as stdout"),
    "csv": dict(default=None, help="write tabular output here"),
    "arcs": dict(required=True, help="arc-family JSON for the cm sampler"),
}

# the parsed values a report echoes in its "config" block, in this order
_CONFIG_KEYS = ("gamma", "eta", "delta", "budget", "grid_r", "grid_t", "seed")


def _add_flags(p, names: str):
    for name in names.split():
        p.add_argument(f"--{name}", **_FLAGS[name])


def _write(path, text: str):
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc


def _write_csv(path, header, rows):
    """The table, header row first, in the csv module's default dialect (lines end in CRLF)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    _write(path, buf.getvalue())


def _finite(value, path: str, warnings: list):
    """value with each non-finite float, which strict JSON cannot hold, as None; warnings get its path."""
    if isinstance(value, float):
        if math.isfinite(value):
            return value
        warnings.append(f"{path} was {value!r}, not a JSON number; written as null")
        return None
    if isinstance(value, dict):
        return {key: _finite(v, f"{path}.{key}" if path else key, warnings) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v, f"{path}[{i}]", warnings) for i, v in enumerate(value)]
    return value


def _emit(report: dict, args):
    given = vars(args)
    config = {key: given[key] for key in _CONFIG_KEYS if key in given}
    report = {"version": __version__, "config": config, **report}
    found = []
    report = _finite(report, "", found)
    if found:
        report["warnings"] = report.get("warnings", []) + found
    text = json.dumps(report, indent=2, allow_nan=False)
    if args.out:
        _write(args.out, text + "\n")
    print(text)


@contextlib.contextmanager
def _parsing(what: str):
    """Map whatever a malformed spec raises while it is parsed to an InputError."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InputError(f"malformed {what}: {exc}") from exc


def _parse_arcs(data) -> list:
    return [geometry.arc_from_json(a) for a in data]


def cmd_check(args) -> int:
    seq = sequences.load_sequence(args.sequence)
    if args.condition == "mass":
        total = sequences.check_finite_measure(seq)
        _emit({"condition_name": "finite_measure", "total_mass": total, "pass": True}, args)
        return EXIT_PASS
    if args.condition == "ws":
        report = sequences.check_weak_separation(seq, args.delta)
    elif args.condition == "cc":
        report = sequences.check_capacitary_condition(seq, args.gamma, args.budget)
    elif args.condition == "cm":
        spec = sequences.read_json(args.arcs)
        with _parsing(f"arc families in {args.arcs} (want a list of arc lists under 'families')"):
            families = [_parse_arcs(f) for f in spec["families"]]
        report = sequences.check_carleson(seq, families, args.budget)
    else:  # theorem-d
        report = sequences.check_theorem_d(seq, args.gamma, args.budget)
    if args.csv:
        rows = ([rec["index"], rec["lhs"], rec["rhs"], rec["ratio"]] for rec in report.records)
        _write_csv(args.csv, ["index", "lhs", "rhs", "ratio"], rows)
    _emit(report.to_json(), args)
    if report.passed is None:  # a solve failed; the warnings name where
        return EXIT_NUMERICAL
    return EXIT_PASS if report.passed else EXIT_FAIL


def _parse_node(text) -> tree.TreeNode:
    try:
        n, k = (int(x) for x in text.split(","))
        return tree.TreeNode(n, k)
    except (ValueError, DisclabError) as exc:
        raise InputError(f"bad tree node {text!r} (want 'level,index'): {exc}") from exc


def cmd_tree(args) -> int:
    if args.tree_cmd == "cap":
        cond = tree.TreeCondenser(_parse_node(args.source), tuple(_parse_node(t) for t in args.target))
        exact = tree.tree_capacity_exact(cond)
        rec = tree.tree_capacity_recursive(cond)
        _emit(
            {"capacity_exact": exact, "capacity_recursive": rec, "difference": abs(exact - rec)},
            args,
        )
        return EXIT_PASS
    if args.tree_cmd == "comb":
        if args.m_min > args.m_max:
            raise InputError(f"--m-min {args.m_min} exceeds --m-max {args.m_max}, so the sweep is empty")
        rows = tree.comb_sweep(range(args.m_min, args.m_max + 1), with_exact=args.exact)
        if args.csv:
            _write_csv(
                args.csv,
                ["N", "c0", "c0_sqrtN", "closed_form", "exact_solver", "limit_gap"],
                ([r.big_n, r.c0, r.c0_sqrt_n, r.closed_form, r.exact_solver, r.limit_gap] for r in rows),
            )
        _emit({"sweep": [asdict(r) for r in rows], "limit": tree.COMB_LIMIT}, args)
        return EXIT_PASS
    if args.tree_cmd == "counterexample":
        report = tree.counterexample_scenario(
            tuple(args.m), gamma=args.gamma, eta=args.eta, seed=args.seed
        )
        _emit(report.to_json(), args)
        if report.passed is None:  # the teeth check's solve failed
            return EXIT_NUMERICAL
        return EXIT_PASS if report.passed else EXIT_FAIL
    # distcheck
    result = tree.tree_disc_distance_check(args.n_max)
    _emit(result, args)
    return EXIT_PASS if result["pass"] else EXIT_FAIL


def cmd_capacity(args) -> int:
    spec = sequences.read_json(args.spec)
    with _parsing(f"{args.cap_cmd} spec {args.spec}"):
        if args.cap_cmd == "grid":
            inner, outer = spec["plate_inner"], spec.get("plate_outer", {})
            disc = geometry.HyperbolicDisc(
                geometry.point_from_json(inner["center"]), geometry.number_from_json(inner["radius"])
            )
            plates = _parse_arcs(outer.get("arcs", []))
            plates += [
                geometry.CarlesonBox(
                    geometry.arc_from_json(b["base_arc"]), geometry.number_from_json(b["inner_radius"])
                )
                for b in outer.get("boxes", [])
            ]
        else:
            if args.cap_cmd == "condenser":
                z = geometry.point_from_json(spec["z"])
                points = [geometry.point_from_json(p) for p in spec.get("points", [])]
            arcs = _parse_arcs(spec.get("arcs", []))
    if args.cap_cmd == "arcs":
        value = capacity.log_capacity(arcs)
        _emit({"capacity": value, "arc_count": len(arcs)}, args)
        return EXIT_PASS
    if args.cap_cmd == "condenser":
        result = capacity.condenser_capacity(z, points + arcs)
        _emit({"capacity": result.value, "warnings": list(result.warnings)}, args)
        return EXIT_PASS
    # grid
    pot = capacity.grid_condenser_capacity(disc, plates, (args.grid_r, args.grid_t))
    refined = capacity.grid_condenser_capacity(
        disc, plates, (args.grid_r + args.grid_r // 2, args.grid_t + args.grid_t // 2)
    )
    if args.csv:
        columns = (pot.grid.node_r.tolist(), pot.grid.node_t.tolist(), pot.values.tolist())
        _write_csv(args.csv, ["r", "theta", "value"], zip(*columns))
    _emit(
        {
            "capacity": pot.energy,
            "refined_capacity": refined.energy,
            "refinement_delta": refined.energy - pot.energy,
            "resolution": [pot.grid.n_r, pot.grid.n_t],
        },
        args,
    )
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="disclab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run a sequence condition checker")
    check_sub = p_check.add_subparsers(dest="condition", required=True)
    for name, flags in (
        ("ws", "delta csv out"),
        ("cc", "gamma budget csv out"),
        ("cm", "arcs budget csv out"),
        ("mass", "out"),
        ("theorem-d", "gamma budget csv out"),
    ):
        p = check_sub.add_parser(name)
        p.add_argument("sequence", help="sequence JSON file")
        _add_flags(p, flags)
        p.set_defaults(func=cmd_check, parser=p)

    p_tree = sub.add_parser("tree", help="tree capacities, combs, the counterexample")
    tree_sub = p_tree.add_subparsers(dest="tree_cmd", required=True)
    p_cap = tree_sub.add_parser("cap")
    p_cap.add_argument("--source", required=True, help="level,index")
    p_cap.add_argument("--target", required=True, nargs="+", help="level,index ...")
    _add_flags(p_cap, "out")
    p_cap.set_defaults(func=cmd_tree, parser=p_cap)
    p_comb = tree_sub.add_parser("comb")
    p_comb.add_argument("--m-min", type=int, default=2)
    p_comb.add_argument("--m-max", type=int, default=10)
    p_comb.add_argument("--exact", action="store_true", help="also run the linear-solver oracle")
    _add_flags(p_comb, "csv out")
    p_comb.set_defaults(func=cmd_tree, parser=p_comb)
    p_ce = tree_sub.add_parser("counterexample")
    p_ce.add_argument("--m", type=int, nargs="+", default=[4, 5, 6])
    _add_flags(p_ce, "gamma eta seed out")
    p_ce.set_defaults(func=cmd_tree, parser=p_ce)
    p_dist = tree_sub.add_parser("distcheck")
    p_dist.add_argument("--n-max", type=int, default=60)
    _add_flags(p_dist, "out")
    p_dist.set_defaults(func=cmd_tree, parser=p_dist)

    p_capc = sub.add_parser("capacity", help="capacity of arc unions and condensers")
    cap_sub = p_capc.add_subparsers(dest="cap_cmd", required=True)
    for name, flags in (("arcs", "out"), ("condenser", "out"), ("grid", "grid-r grid-t csv out")):
        p = cap_sub.add_parser(name)
        p.add_argument("spec", help="spec JSON file")
        _add_flags(p, flags)
        p.set_defaults(func=cmd_capacity, parser=p)

    return parser


# argparse parsers are reusable, so one serves every call of main
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    # leftover arguments are refused by the subcommand's own parser, whose
    # usage line names the flags it does take
    args, extra = _parser().parse_known_args(argv)
    if extra:
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericalError, ResolutionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DisclabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
