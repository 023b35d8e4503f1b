import argparse
import contextlib
import dataclasses
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from disclab import cli, sequences
from disclab.geometry import DiscPoint


def write_sequence(path, points):
    path.write_text(json.dumps({"points": [{"theta": p.theta, "depth": p.depth} for p in points]}))
    return path


@pytest.fixture
def good_sequence(tmp_path):
    points = [DiscPoint(0.9 * k, 0.2 / 2**k) for k in range(5)]
    return write_sequence(tmp_path / "seq.json", points)


@pytest.fixture
def duplicate_sequence(tmp_path):
    p = DiscPoint(1.0, 0.1)
    return write_sequence(tmp_path / "dup.json", [p, p])


# Delta_{atanh 0.3}(0) against the whole circle: an annulus of capacity 2 pi / log(1/0.3)
ANNULUS_SPEC = {
    "plate_inner": {"center": {"theta": 0.0, "depth": 1.0}, "radius": math.atanh(0.3)},
    "plate_outer": {"arcs": [{"center_angle": 0.0, "length": 1.0}]},
}


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


def strict_json(text):
    """text parsed as RFC 8259 JSON, which has no NaN or Infinity."""
    return json.loads(text, parse_constant=_refuse)


def leaf_commands(parser, prefix=()):
    """The subcommand paths of parser's leaves, such as ("check", "ws")."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {prefix}
    return {leaf for name, p in subs[0].choices.items() for leaf in leaf_commands(p, prefix + (name,))}


class TestCheck:
    def test_ws_pass(self, good_sequence, capsys):
        code, out, _ = run(["check", "ws", str(good_sequence)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert report["condition_name"] == "weak_separation"

    def test_ws_duplicate_fails(self, duplicate_sequence, capsys):
        code, out, _ = run(["check", "ws", str(duplicate_sequence)], capsys)
        assert code == 1
        assert json.loads(out)["pass"] is False

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code, _, err = run(["check", "ws", str(bad)], capsys)
        assert code == 2
        assert "input error" in err

    def test_mass(self, good_sequence, capsys):
        code, out, _ = run(["check", "mass", str(good_sequence)], capsys)
        assert code == 0
        assert json.loads(out)["total_mass"] > 0

    def test_masses_are_floats(self, good_sequence, tmp_path, capsys):
        # an empty family and a family over none of the points hold no mass
        arcs = tmp_path / "arcs.json"
        arcs.write_text(json.dumps({"families": [[], [{"center_angle": 3.0, "length": 1e-3}]]}))
        code, out, _ = run(["check", "cm", str(good_sequence), "--arcs", str(arcs)], capsys)
        assert code == 0
        assert [rec["lhs"] for rec in json.loads(out)["records"]] == [0.0, 0.0]
        assert out.count('"lhs": 0.0,') == 2
        # and a sequence with no point none at all
        code, out, _ = run(["check", "mass", str(write_sequence(tmp_path / "empty.json", []))], capsys)
        assert code == 0
        assert '"total_mass": 0.0,' in out
        # a point with no restricted vicinity none either, in the report and the table
        csv_path = tmp_path / "td.csv"
        code, out, _ = run(["check", "theorem-d", str(good_sequence), "--csv", str(csv_path)], capsys)
        assert code == 0
        lhs = [rec["lhs"] for rec in json.loads(out)["records"]]
        assert 0.0 in lhs and all(isinstance(x, float) for x in lhs)
        assert out.count('"lhs": 0.0,') == lhs.count(0.0)
        assert [row.split(",")[1] for row in csv_path.read_text().splitlines()[1:]].count("0.0") == lhs.count(0.0)

    def test_cc_with_csv(self, good_sequence, tmp_path, capsys):
        csv_path = tmp_path / "cc.csv"
        code, out, _ = run(
            ["check", "cc", str(good_sequence), "--csv", str(csv_path)], capsys
        )
        assert code == 0
        assert csv_path.read_text().startswith("index,")

    def test_cm_with_family_file(self, good_sequence, tmp_path, capsys):
        arcs = tmp_path / "arcs.json"
        arcs.write_text(
            json.dumps(
                {"families": [[{"center_angle": 0.0, "length": 0.25}]]}
            )
        )
        code, out, _ = run(
            ["check", "cm", str(good_sequence), "--arcs", str(arcs)], capsys
        )
        assert code == 0
        assert json.loads(out)["records"]

    def test_cc_failed_solve_exits_3(self, tmp_path, capsys):
        # the second of two coincident points maps to the origin under the
        # first's Mobius map, where boundary_arc is undefined: that solve
        # fails, so the check cannot pass on the other point's ratio alone
        seq = write_sequence(tmp_path / "seq.json", [DiscPoint(1.0, 0.01)] * 2)
        out_path = tmp_path / "report.json"
        code, out, err = run(["check", "cc", str(seq), "--out", str(out_path)], capsys)
        assert code == 3
        assert err == ""
        assert out_path.read_text() == out
        report = strict_json(out)
        assert report["pass"] is None
        assert report["records"][0]["ratio"] is None and report["records"][1]["ratio"] == 0.0
        assert (report["sup_ratio"], report["witness_index"]) == (0.0, 1)
        assert any("failed at index 0" in w for w in report["warnings"])

    def test_config_echoed(self, good_sequence, tmp_path, capsys):
        # every subcommand prints plain JSON that echoes exactly the parameters it reads
        arcs = tmp_path / "arcs.json"
        arcs.write_text(json.dumps({"arcs": [{"center_angle": 0.0, "length": 0.1}]}))
        families = tmp_path / "families.json"
        families.write_text(json.dumps({"families": [[{"center_angle": 0.0, "length": 0.25}]]}))
        condenser = tmp_path / "condenser.json"
        condenser.write_text(
            json.dumps({"z": {"theta": 0.0, "depth": 0.5}, "arcs": [{"center_angle": 3.0, "length": 0.01}]})
        )
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(ANNULUS_SPEC))
        seq = str(good_sequence)
        cases = [
            (["check", "ws", seq, "--delta", "0.05"], {"delta": 0.05}),
            (
                ["check", "cc", seq, "--gamma", "0.5"],
                {"gamma": 0.5, "budget": sequences.COMPARABILITY_BUDGET},
            ),
            (["check", "cm", seq, "--arcs", str(families), "--budget", "8"], {"budget": 8.0}),
            (["check", "mass", seq], {}),
            (["check", "theorem-d", seq, "--gamma", "0.5"], {"gamma": 0.5, "budget": sequences.COMPARABILITY_BUDGET}),
            (["tree", "cap", "--source", "3,2", "--target", "10,256"], {}),
            (["tree", "comb", "--m-max", "3"], {}),
            (
                ["tree", "counterexample", "--m", "4", "--seed", "7"],
                {"gamma": sequences.DEFAULT_GAMMA, "eta": sequences.DEFAULT_ETA, "seed": 7},
            ),
            (["tree", "distcheck", "--n-max", "5"], {}),
            (["capacity", "arcs", str(arcs)], {}),
            (["capacity", "condenser", str(condenser)], {}),
            (["capacity", "grid", str(grid), "--grid-r", "32", "--grid-t", "64"], {"grid_r": 32, "grid_t": 64}),
        ]
        # a new subcommand needs a case here
        assert sorted(tuple(argv[:2]) for argv, _ in cases) == sorted(leaf_commands(cli.build_parser()))
        for argv, config in cases:
            code, out, _ = run(argv, capsys)
            assert code == 0
            assert json.loads(out)["config"] == config


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "ws", "seq.json", "--grid-r", "32"],
            ["check", "cc", "seq.json", "--seed", "1"],
            ["check", "cc", "seq.json", "--quad", "16"],
            ["check", "cm", "seq.json", "--arcs", "arcs.json", "--quad", "16"],
            ["check", "ws", "seq.json", "--arcs", "arcs.json"],
            ["check", "mass", "seq.json", "--gamma", "0.3"],
            ["check", "mass", "seq.json", "--csv", "mass.csv"],
            ["check", "theorem-d", "seq.json", "--quad", "16"],
            ["tree", "cap", "--source", "3,2", "--target", "10,256", "--gamma", "0.5"],
            ["tree", "comb", "--quad", "16"],
            ["tree", "counterexample", "--delta", "0.1"],
            ["tree", "distcheck", "--csv", "d.csv"],
            ["capacity", "arcs", "spec.json", "--beta", "0.1"],
            ["capacity", "arcs", "spec.json", "--quad", "16"],
            ["capacity", "condenser", "spec.json", "--grid-t", "64"],
            ["capacity", "condenser", "spec.json", "--quad", "16"],
            ["capacity", "grid", "spec.json", "--format", "json"],
        ],
        ids=lambda argv: "-".join(argv[:2] + [[a for a in argv if a.startswith("--")][-1][2:]]),
    )
    def test_unread_flag_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err
        # the subcommand's own usage line, which lists the flags it takes
        assert f"usage: disclab {argv[0]} {argv[1]} " in err

    def test_cm_without_arcs_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "cm", "seq.json"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "required: --arcs" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["check", "ws", "seq.json", "--delta", "nan"], "not a number: 'nan'"),
            (["check", "cc", "seq.json", "--budget", "nan"], "not a number: 'nan'"),
            (["check", "cc", "seq.json", "--gamma", "x"], "not a number: 'x'"),
        ],
        ids=["ws-delta", "cc-budget", "cc-gamma-x"],
    )
    def test_nan_rejected(self, argv, message, capsys):
        # NaN compares false, so a check against it would fail (exit 1) instead of refusing the input
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        # the message names the flag's meaning, not the parser's private type function
        assert "_number" not in err

    def test_benchmark_invocations_parse(self):
        parser = cli.build_parser()
        for condition in ("ws", "cc", "theorem-d", "mass"):
            assert parser.parse_args(["check", condition, "seq.json"]).condition == condition
        args = parser.parse_args(["capacity", "grid", "grid.json", "--grid-r", "96", "--grid-t", "256"])
        assert (args.grid_r, args.grid_t) == (96, 256)
        assert parser.parse_args(["tree", "counterexample"]).m == [4, 5, 6]
        assert parser.parse_args(["tree", "comb", "--m-max", "60"]).m_max == 60


class TestTree:
    def test_cap_series(self, capsys):
        code, out, _ = run(
            ["tree", "cap", "--source", "3,2", "--target", "10,256"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["capacity_exact"] == pytest.approx(1.0 / 7.0, abs=1e-10)
        assert report["difference"] <= 1e-10

    def test_target_not_below_source_exits_2(self, capsys):
        # a DomainError raised by the library is bad input too
        code, out, err = run(["tree", "cap", "--source", "3,2", "--target", "12,1025"], capsys)
        assert code == 2
        assert err == "error: target TreeNode(n=12, k=1025) is not strictly below the source\n"
        assert out == ""

    def test_bad_node_string(self, capsys):
        code, _, err = run(
            ["tree", "cap", "--source", "banana", "--target", "4,1"], capsys
        )
        assert code == 2
        assert "bad tree node" in err

    def test_comb_sweep_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        code, out, _ = run(
            ["tree", "comb", "--m-min", "2", "--m-max", "4", "--csv", str(csv_path)],
            capsys,
        )
        assert code == 0
        assert len(json.loads(out)["sweep"]) == 3
        assert csv_path.read_text().startswith("N,c0")

    def test_counterexample(self, capsys):
        code, out, _ = run(["tree", "counterexample", "--m", "4", "5"], capsys)
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_counterexample_undetermined_exits_3(self, tmp_path, capsys, monkeypatch):
        # at these m the teeth make no solve, so a failed one is stood in for
        real = sequences.check_capacitary_condition
        monkeypatch.setattr(
            sequences, "check_capacitary_condition", lambda *a: dataclasses.replace(real(*a), passed=None)
        )
        out_path = tmp_path / "report.json"
        code, out, _ = run(["tree", "counterexample", "--m", "4", "5", "--out", str(out_path)], capsys)
        assert code == 3
        assert out_path.read_text() == out
        assert strict_json(out)["pass"] is None

    def test_comb_without_exact_is_strict_json(self, capsys):
        # the exact route did not run: its column is null, and no number was non-finite
        code, out, _ = run(["tree", "comb", "--m-max", "3"], capsys)
        assert code == 0
        report = strict_json(out)
        assert [row["exact_solver"] for row in report["sweep"]] == [None, None]
        assert "warnings" not in report

    def test_distcheck(self, capsys):
        code, out, _ = run(["tree", "distcheck", "--n-max", "10"], capsys)
        assert code == 0
        assert json.loads(out)["pass"] is True


class TestCapacity:
    def test_arcs_empty(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"arcs": []}))
        code, out, _ = run(["capacity", "arcs", str(spec)], capsys)
        assert code == 0
        assert json.loads(out)["capacity"] == 0.0

    def test_arcs_single(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"arcs": [{"center_angle": 0.0, "length": 0.1}]}))
        code, out, _ = run(["capacity", "arcs", str(spec)], capsys)
        assert code == 0
        assert json.loads(out)["capacity"] > 0.0

    def test_condenser_touching_notes(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "z": {"theta": 0.0, "depth": 0.5},
                    "points": [{"theta": 0.0, "depth": 0.45}],
                }
            )
        )
        code, out, _ = run(["capacity", "condenser", str(spec)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["capacity"] == 0.0
        assert report["warnings"]

    def test_condenser_sub_resolution_arc(self, tmp_path, capsys):
        # an arc too short for its endpoint angles to differ is not the full circle
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps({"z": {"theta": 0.0, "depth": 0.5}, "arcs": [{"center_angle": 1.0, "length": 1e-18}]})
        )
        code, out, _ = run(["capacity", "condenser", str(spec)], capsys)
        assert code == 0
        assert json.loads(out)["capacity"] == pytest.approx(0.0730, abs=5e-4)

    def test_grid_writes_out_file(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(ANNULUS_SPEC))
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            [
                "capacity",
                "grid",
                str(spec),
                "--grid-r",
                "32",
                "--grid-t",
                "64",
                "--out",
                str(out_path),
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        exact = 2.0 * math.pi / math.log(1.0 / 0.3)
        assert report["capacity"] == pytest.approx(exact, rel=0.2)

    def test_plate_below_grid_resolution_exits_3(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "plate_inner": {"center": {"theta": 0, "depth": 1}, "radius": 0.5},
                    "plate_outer": {"arcs": [{"center_angle": 3, "length": 0.001}]},
                }
            )
        )
        code, out, err = run(["capacity", "grid", str(spec), "--grid-r", "32", "--grid-t", "64"], capsys)
        assert code == 3
        assert err.startswith("numerical failure: outer plate #0 covers only 0 grid cells")
        assert out == ""

    def test_missing_spec_file(self, capsys):
        code, _, err = run(["capacity", "arcs", "/nonexistent/spec.json"], capsys)
        assert code == 2
        assert "input error" in err


# the malformed-input cases whose message names no file
NAMES_NO_FILE = {"non-numeric-point"}

# files written for the malformed-input cases, by name: bytes as they are, anything else as JSON
MALFORMED = {
    "bad_point": {"points": [{"r": "x", "theta": 0}]},
    "no_families": {"arcs": []},
    "arc_list": [{"center_angle": 0.0, "length": 1.0}],
    "utf16": b"\xff\xfe{}",
    "outer_list": {"plate_inner": {"center": {"theta": 0.0, "depth": 0.5}, "radius": 1.0}, "plate_outer": []},
    "annulus": ANNULUS_SPEC,
}


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "ws", "{dir}/missing.json"],
        ["check", "ws", "{bad_point}"],
        ["check", "cm", "{seq}", "--arcs", "{no_families}"],
        ["capacity", "arcs", "{arc_list}"],
        ["check", "ws", "{utf16}"],
        ["capacity", "arcs", "{utf16}"],
        ["check", "cm", "{seq}", "--arcs", "{utf16}"],
        ["capacity", "grid", "{outer_list}"],
        ["check", "ws", "{seq}", "--out", "{dir}/missing/x.json"],
        ["check", "cc", "{seq}", "--csv", "{dir}"],
        ["tree", "comb", "--csv", "{dir}/missing/a.csv"],
        ["capacity", "grid", "{annulus}", "--grid-r", "32", "--grid-t", "64", "--csv", "{dir}/missing/a.csv"],
    ],
    ids=[
        "missing-sequence",
        "non-numeric-point",
        "arcs-without-families",
        "spec-not-an-object",
        "sequence-not-utf8",
        "spec-not-utf8",
        "families-not-utf8",
        "plate-outer-a-list",
        "out-in-missing-dir",
        "csv-is-a-dir",
        "comb-csv-in-missing-dir",
        "grid-csv-in-missing-dir",
    ],
)
def test_malformed_input_exits_2(argv, good_sequence, tmp_path, capsys, request):
    paths = {"dir": str(tmp_path), "seq": str(good_sequence)}
    for name, blob in MALFORMED.items():
        path = tmp_path / f"{name}.json"
        paths[name] = str(path)
        if isinstance(blob, bytes):
            path.write_bytes(blob)
        else:
            path.write_text(json.dumps(blob))
    code, out, err = run([a.format(**paths) for a in argv], capsys)
    assert code == 2
    assert "input error" in err
    assert "Traceback" not in err
    # the file at fault, the last one named on the command line, is named once
    named = [a.format(**paths) for a in argv if "{" in a]
    assert err.count(named[-1]) == (request.node.callspec.id not in NAMES_NO_FILE)
    assert all(err.count(path) <= 1 for path in named)
    # every file is written before the report is printed, so a failed run prints none
    assert out == ""


NAN_ARC = {"center_angle": math.nan, "length": 0.1}


def grid_spec(radius):
    return {"plate_inner": {"center": {"theta": 0.0, "depth": 1.0}, "radius": radius}, "plate_outer": {}}


@pytest.mark.parametrize(
    "argv, spec, message",
    [
        (["capacity", "arcs"], {"arcs": [NAN_ARC]}, "arc center angle not finite: nan"),
        (["check", "cm", "{seq}", "--arcs"], {"families": [[NAN_ARC]]}, "arc center angle not finite: nan"),
        (["capacity", "grid"], grid_spec(math.nan), "hyperbolic radius must be finite and > 0: nan"),
        (["capacity", "grid"], grid_spec(math.inf), "hyperbolic radius must be finite and > 0: inf"),
        (["capacity", "grid"], grid_spec(True), "want a number, got true"),
        (["check", "ws"], {"points": [{"theta": True, "depth": 0.5}, {"theta": 2.0, "depth": 0.5}]}, "got true"),
        (["capacity", "arcs"], {"arcs": [{"center_angle": 0.0, "length": False}]}, "want a number, got false"),
        (["check", "ws"], {"points": [{"theta": 0.5, "depth": 10**400}]}, "integer beyond float range"),
    ],
    ids=[
        "arcs-nan-center",
        "cm-nan-center",
        "grid-nan-radius",
        "grid-infinite-radius",
        "grid-boolean-radius",
        "sequence-boolean-theta",
        "arcs-boolean-length",
        "sequence-huge-integer-depth",
    ],
)
def test_non_finite_or_boolean_value_exits_2(argv, spec, message, good_sequence, tmp_path, capsys):
    # Python's json reads NaN, Infinity and booleans; none is a value any spec can hold
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run([a.format(seq=good_sequence) for a in argv] + [str(path)], capsys)
    assert code == 2
    assert message in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize(
    "condition, code, warned",
    [
        ("cc", 3, ["records[0].lhs", "records[0].ratio"]),
        ("ws", 1, ["records[0].ratio", "records[1].ratio", "sup_ratio"]),
    ],
    ids=["cc", "ws"],
)
def test_non_finite_numbers_written_as_null(condition, code, warned, tmp_path, capsys):
    # two coincident points: cc's solve fails at the first (NaN), ws divides by a zero metric (inf)
    seq = write_sequence(tmp_path / "seq.json", [DiscPoint(1.0, 0.01)] * 2)
    got, out, _ = run(["check", condition, str(seq)], capsys)
    assert got == code
    report = strict_json(out)
    noted = [w.split(" was ")[0] for w in report["warnings"] if w.endswith("not a JSON number; written as null")]
    assert noted == warned


# One valid input per leaf that reads JSON: the command line, with {name}
# for each file, and the files.  The grid is small and fixed: size flags
# are not fuzzed, as a huge one asks for a huge allocation.
FUZZ_SEQUENCE = {
    "points": [{"theta": 0.3, "depth": 0.2}, {"re": -0.5, "im": 0.3}, {"r": 0.9, "theta": 4.0}, {"depth": 0.01}]
}
FUZZ_ARCS = [{"center_angle": 0.5, "length": 0.1}, {"center_angle": 3.0, "length": 0.2}]
FUZZ_LEAVES = [
    (["check", "ws", "{seq}"], {"seq": FUZZ_SEQUENCE}),
    (["check", "cc", "{seq}"], {"seq": FUZZ_SEQUENCE}),
    (["check", "cm", "{seq}", "--arcs", "{families}"], {"seq": FUZZ_SEQUENCE, "families": {"families": [FUZZ_ARCS]}}),
    (["check", "mass", "{seq}"], {"seq": FUZZ_SEQUENCE}),
    (["check", "theorem-d", "{seq}"], {"seq": FUZZ_SEQUENCE}),
    (["capacity", "arcs", "{spec}"], {"spec": {"arcs": FUZZ_ARCS}}),
    (
        ["capacity", "condenser", "{spec}"],
        {"spec": {"z": {"theta": 0.2, "depth": 0.3}, "points": [{"theta": 2.0, "depth": 0.1}], "arcs": FUZZ_ARCS}},
    ),
    (
        ["capacity", "grid", "{spec}", "--grid-r", "16", "--grid-t", "32"],
        {
            "spec": {
                "plate_inner": {"center": {"theta": 0.0, "depth": 0.6}, "radius": 0.5},
                "plate_outer": {
                    "arcs": [{"center_angle": 3.0, "length": 0.25}],
                    "boxes": [{"base_arc": {"center_angle": 1.0, "length": 0.2}, "inner_radius": 0.8}],
                },
            }
        },
    ),
]
FUZZ_VALUES = [math.nan, math.inf, -math.inf, True, "x", [1], 0, -1.0, 1e308, 10**400]


def _number_paths(value, path=()):
    """The key and index paths of the numbers in a JSON value."""
    if isinstance(value, dict):
        return [p for key, v in value.items() for p in _number_paths(v, path + (key,))]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in _number_paths(v, path + (i,))]
    return [path]


def _replaced(value, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(value, dict):
        return {key: _replaced(v, rest, new) if key == head else v for key, v in value.items()}
    return [_replaced(v, rest, new) if i == head else v for i, v in enumerate(value)]


# (leaf, file, path) for every number of every leaf's files
FUZZ_TARGETS = [
    (i, name, path) for i, (_, files) in enumerate(FUZZ_LEAVES) for name in files for path in _number_paths(files[name])
]


@settings(max_examples=120)
@given(st.sampled_from(FUZZ_TARGETS), st.sampled_from(FUZZ_VALUES))
def test_fuzzed_json_value_exits_cleanly(target, new):
    leaf, name, path = target
    argv, files = FUZZ_LEAVES[leaf]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for key, blob in files.items():
            paths[key] = Path(tmp, f"{key}.json")
            # Python's json writes NaN, Infinity and huge integers, and reads them back
            paths[key].write_text(json.dumps(_replaced(blob, path, new) if key == name else blob))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([a.format(**paths) for a in argv])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if out.getvalue():
        strict_json(out.getvalue())


def test_files_touched_only_at_the_boundary():
    """No library module but cli.py opens or writes a file: open, savetxt and
    csv appear nowhere else except in sequences.read_json."""
    import ast
    from pathlib import Path

    banned = {"open", "savetxt", "csv"}
    found = []
    for path in sorted(Path(cli.__file__).resolve().parent.glob("*.py")):
        if path.name == "cli.py":
            continue
        module = ast.parse(path.read_text(encoding="utf-8"))
        reader = [f for f in module.body if path.name == "sequences.py" and getattr(f, "name", "") == "read_json"]
        allowed = {id(n) for f in reader for n in ast.walk(f)}
        for node in ast.walk(module):
            if isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.alias):
                names = set(node.name.split("."))
            elif isinstance(node, ast.ImportFrom):
                names = set((node.module or "").split("."))
            else:
                continue
            if names & banned and id(node) not in allowed:
                found.append(f"{path.name}:{node.lineno}: {sorted(names & banned)}")
    assert found == []


def test_console_script_entry_matches_main():
    """The `disclab` console script is declared as `disclab.cli:main`.

    The declaration is read from the repository's `pyproject.toml`, so the
    check also holds when the package is imported from `src/` without being
    installed. An installed entry point, where there is one, must agree
    with that declaration.
    """
    import importlib
    import importlib.metadata as md
    import sys
    from pathlib import Path

    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    declared = scripts.get("disclab")
    assert declared == "disclab.cli:main"

    module_name, _, attr = declared.partition(":")
    target = getattr(importlib.import_module(module_name), attr, None)
    assert target is cli.main

    installed = md.entry_points().select(group="console_scripts", name="disclab")
    for ep in installed:
        assert ep.value == declared


def _scipy_modules_after(code: str) -> str:
    """The scipy modules loaded once `code` has run in a fresh interpreter."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"import sys; {code}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return proc.stdout.strip()


def test_import_loads_no_scipy():
    # the checkers never factor a sparse matrix, so a fresh process running them
    # should not pay for importing scipy
    assert _scipy_modules_after("import disclab.cli") == "[]"


def test_equilibrium_route_loads_no_scipy():
    # the equilibrium solve is an LDL^T factorisation in numpy's own LAPACK, which cc and
    # `capacity arcs` run once per call
    code = (
        "from disclab import capacity; from disclab.geometry import Arc; "
        "capacity.log_capacity([Arc(0.3 + 1.5 * j, 0.05) for j in range(4)])"
    )
    assert _scipy_modules_after(code) == "[]"


def test_interpolant_route_loads_no_scipy():
    # the interpolant's parts solve is one banded Cholesky factorisation in numpy's own LAPACK
    code = (
        "from disclab import sequences; "
        "seq = sequences.disjoint_boxes(6, seed=11); "
        "sequences._build_blocks(seq, 0.75, (64, 256))"
    )
    assert _scipy_modules_after(code) == "[]"


def test_grid_route_loads_no_scipy(tmp_path):
    # a condenser solve factors its capacitance matrix by Cholesky in numpy's own
    # LAPACK, in the library (the centre free) and in `disclab capacity grid`
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(ANNULUS_SPEC))
    code = (
        "from disclab import capacity, cli; from disclab.geometry import DiscPoint; "
        "capacity.three_condenser_capacities(DiscPoint(1.0, 0.08), [DiscPoint(2.0, 0.02)], (64, 256)); "
        f"assert cli.main(['capacity', 'grid', {str(spec)!r}, '--grid-r', '32', '--grid-t', '64']) == 0"
    )
    assert _scipy_modules_after(code).splitlines()[-1] == "[]"
