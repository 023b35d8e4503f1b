import csv
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import geometry_oracle
import sequence_oracle
from conftest import angles, arc_lengths, disc_points
from disclab import capacity, cli, geometry, sequences
from disclab.errors import DisclabError, DomainError, InputError
from disclab.geometry import Arc, CarlesonBox, DiscPoint
from disclab.sequences import Sequence


def rotated(seq, angle):
    return Sequence(tuple(DiscPoint(p.theta + angle, p.depth) for p in seq.points))


@pytest.fixture(scope="module")
def boxes12():
    return sequences.disjoint_boxes(12, seed=3, eta=0.75)


class TestVicinity:
    def test_disjoint_boxes_empty(self, boxes12):
        for i in range(len(boxes12)):
            assert sequences.vicinity(boxes12, i, 0.75) == []

    def test_three_point_configuration(self):
        # two stacked points share a box column; the third sits far away
        seq = Sequence(
            (DiscPoint(0.0, 0.1), DiscPoint(0.01, 0.01), DiscPoint(math.pi, 0.1))
        )
        assert sequences.vicinity(seq, 0, 0.75) == [1]
        assert sequences.vicinity(seq, 2, 0.75) == []

    def test_only_deeper_points_qualify(self):
        seq = Sequence((DiscPoint(0.0, 0.01), DiscPoint(0.0, 0.1)))
        assert sequences.vicinity(seq, 0, 0.75) == []
        assert sequences.vicinity(seq, 1, 0.75) == [0]

    def test_equal_depth_tiebreak_antisymmetric(self):
        seq = Sequence((DiscPoint(0.0, 0.05), DiscPoint(0.01, 0.05)))
        in_0 = sequences.vicinity(seq, 0, 0.75)
        in_1 = sequences.vicinity(seq, 1, 0.75)
        assert (1 in in_0) != (0 in in_1)

    @given(st.floats(0.2, 0.5), st.floats(0.55, 0.9))
    def test_monotone_in_gamma(self, g1, g2):
        seq = Sequence(
            (
                DiscPoint(0.0, 0.2),
                DiscPoint(0.3, 0.05),
                DiscPoint(5.0, 0.1),
                DiscPoint(0.1, 0.02),
            )
        )
        for i in range(len(seq)):
            small = set(sequences.vicinity(seq, i, g2))
            large = set(sequences.vicinity(seq, i, g1))
            assert small <= large

    def test_restricted_subset_of_vicinity(self, boxes12):
        seq = Sequence(
            (
                DiscPoint(0.0, 0.2),
                DiscPoint(0.05, 0.05),
                DiscPoint(0.0, 0.01),
                DiscPoint(3.0, 0.1),
            )
        )
        for i in range(len(seq)):
            assert set(sequences.restricted_vicinity(seq, i, 0.75)) <= set(
                sequences.vicinity(seq, i, 0.75)
            )

    def test_restricted_excludes_swallowed_point(self):
        # z1's expanded box swallows the plain box of the much deeper z2
        z0 = DiscPoint(0.0, 0.3)
        z1 = DiscPoint(0.0, 0.05)
        z2 = DiscPoint(0.0, 1e-4)
        seq = Sequence((z0, z1, z2))
        vic = sequences.vicinity(seq, 0, 0.75)
        assert vic == [1, 2]
        assert sequences.restricted_vicinity(seq, 0, 0.75) == [1]

    def test_every_member_swallowed_by_the_first_block(self):
        # more members than one block of expanded boxes, each plain box inside
        # its neighbours' expanded boxes: the first block swallows them all,
        # and the later blocks test an empty set
        seq = Sequence((DiscPoint(0.0, 0.3), *(DiscPoint(1e-9 * k, 1e-4) for k in range(sequences._PAIR_BLOCK + 6))))
        assert len(sequences.vicinity(seq, 0, 0.75)) > sequences._PAIR_BLOCK
        assert sequences.restricted_vicinity(seq, 0, 0.75) == []
        assert sequence_oracle.restricted_vicinity(seq, 0, 0.75) == []


class TestWeakSeparation:
    def test_duplicate_fails(self):
        p = DiscPoint(1.0, 0.2)
        report = sequences.check_weak_separation(Sequence((p, p)))
        assert not report.passed
        assert report.params["metric_min"] == 0.0

    def test_antipodal_points(self):
        seq = Sequence((DiscPoint(0.0, 0.1), DiscPoint(math.pi, 0.1)))
        report = sequences.check_weak_separation(seq)
        assert report.params["metric_min"] > 0.9

    def test_radial_geometric(self):
        seq = Sequence(tuple(DiscPoint(0.0, 2.0 ** -(n * n)) for n in range(1, 9)))
        assert sequences.check_weak_separation(seq, 0.1).passed

    def test_rotation_invariance(self):
        seq = Sequence(
            tuple(DiscPoint(0.7 * k, 0.3 / (k + 1)) for k in range(5))
        )
        base = sequences.check_weak_separation(seq).params["metric_min"]
        rot = sequences.check_weak_separation(rotated(seq, 1.234)).params["metric_min"]
        assert rot == pytest.approx(base, abs=1e-12)

    def test_single_point_rejected(self):
        with pytest.raises(DomainError):
            sequences.check_weak_separation(Sequence((DiscPoint(0.0, 0.5),)))


class TestCapacitaryCondition:
    def test_empty_vicinities_sup_zero(self, boxes12):
        report = sequences.check_capacitary_condition(boxes12, 0.75)
        assert report.sup_ratio == 0.0
        assert report.passed

    def test_single_neighbor_bounded(self):
        seq = Sequence((DiscPoint(0.0, 0.1), DiscPoint(0.0, 0.01)))
        report = sequences.check_capacitary_condition(seq, 0.75)
        assert 0.0 < report.sup_ratio <= 64.0

    def test_coincident_points_warn(self):
        p = DiscPoint(0.2, 0.3)
        report = sequences.check_capacitary_condition(Sequence((p, p)), 0.75)
        assert report.warnings

    def test_failed_solve_leaves_the_verdict_open(self):
        # point 0's solve fails (its coincident neighbour maps to the origin);
        # the sup and witness come from point 1, and the verdict is None
        p = DiscPoint(1.0, 0.01)
        report = sequences.check_capacitary_condition(Sequence((p, p)), 0.75)
        assert math.isnan(report.records[0]["ratio"])
        assert (report.sup_ratio, report.witness_index, report.passed) == (0.0, 1, None)
        assert report.to_json()["pass"] is None


@st.composite
def carleson_cases(draw):
    """Arc families, with points anywhere and on, inside and outside the edges of the boxes
    over their merged arcs, to the ulp."""
    families = draw(
        st.lists(
            st.lists(st.builds(Arc, angles(), st.one_of(arc_lengths(1e-9, 0.5), st.just(1.0))), max_size=4),
            min_size=1,
            max_size=3,
        )
    )
    points = draw(st.lists(disc_points(min_depth=1e-300), max_size=8))
    ulps = st.integers(-2, 2)
    for arc in [a for family in families for a in geometry.merge_arcs(family)]:
        edge = arc.center_angle + draw(st.sampled_from([-1.0, 1.0])) * (arc.half_width * (1 + 1e-15) + 1e-14)
        depth = arc.length + draw(ulps) * math.ulp(arc.length)
        points.append(DiscPoint(edge + draw(ulps) * math.ulp(edge), min(depth, 1.0)))
    return points, families


class TestCarleson:
    def test_family_without_points(self, boxes12):
        report = sequences.check_carleson(boxes12, [[Arc(0.0, 1e-5)]])
        assert report.records[0]["ratio"] == 0.0

    def test_full_circle_family(self, boxes12):
        report = sequences.check_carleson(boxes12, [[Arc(0.0, 1.0)]])
        mass = sequences.check_finite_measure(boxes12)
        assert report.records[0]["lhs"] == pytest.approx(mass)
        assert report.records[0]["ratio"] == pytest.approx(
            mass / report.records[0]["rhs"]
        )

    @given(carleson_cases())
    # on the angle bound exactly, and inside it only by the absolute slack
    @example(
        ([DiscPoint(math.pi / 4 * (1 + 1e-15) + 1e-14, 0.1), DiscPoint(math.pi / 4 + 5e-15, 0.1)], [[Arc(0.0, 0.25)]])
    )
    # deep points and the origin against the full circle, an empty family and a tiny arc
    @example(
        ([DiscPoint(3.0, 1e-20), geometry.ORIGIN, DiscPoint(2.0, 0.5)], [[Arc(0.0, 1.0)], [], [Arc(3.0, 1e-9)]])
    )
    def test_masses_match_scalar_oracle(self, case):
        points, families = case
        # the scalar loop over points and the boxes over the merged arcs, bit for bit
        seq = Sequence(tuple(points))
        report = sequences.check_carleson(seq, families)
        for rec, family in zip(report.records, families):
            boxes = [CarlesonBox(a, max(1.0 - a.length, 0.0)) for a in geometry.merge_arcs(family)]
            hits = [any(geometry_oracle.box_contains_point(b, p) for b in boxes) for p in seq.points]
            mass = sum((1.0 / d for d, hit in zip(seq.norms, hits) if hit), 0.0)
            assert repr(rec["lhs"]) == repr(mass)

    def test_dyadic_sweep_finite(self):
        seq = Sequence(tuple(DiscPoint(0.0, 2.0**-n) for n in range(2, 10)))
        families = [[Arc(0.0, 2.0**-k)] for k in range(1, 8)]
        report = sequences.check_carleson(seq, families)
        assert math.isfinite(report.sup_ratio)


class TestFiniteMeasureAndRestrictedSum:
    def test_origin_mass_one(self):
        assert sequences.check_finite_measure(Sequence((geometry.ORIGIN,))) == 1.0

    def test_empty_sequence(self):
        assert sequences.check_finite_measure(Sequence(())) == 0.0

    def test_restricted_sum_empty(self, boxes12):
        assert sequences.check_theorem_d(boxes12, 0.75).sup_ratio == 0.0

    def test_neighbor_at_double_norm(self):
        zi = DiscPoint(0.0, 2.0**-20)
        zj = DiscPoint(0.0, 2.0**-40)
        report = sequences.check_theorem_d(Sequence((zi, zj)), 0.75)
        ratio = report.records[0]["ratio"]
        assert ratio == pytest.approx(0.5, abs=0.02)


class TestGenerators:
    def test_radial_values(self):
        seq = Sequence(tuple(DiscPoint(0.0, 0.5**n) for n in range(1, 6)))
        assert [p.r for p in seq.points] == pytest.approx(
            [0.5, 0.75, 0.875, 0.9375, 0.96875]
        )

    def test_disjoint_boxes_deterministic(self):
        a = sequences.disjoint_boxes(8, seed=5)
        b = sequences.disjoint_boxes(8, seed=5)
        assert a.points == b.points

    def test_union_weakly_separated(self):
        a = sequences.disjoint_boxes(6, seed=1)
        b = sequences.disjoint_boxes(6, seed=2, depth_min=2.0**-12, depth_max=2.0**-10)
        union = sequences.union([a, b])
        assert len(union) == 12
        report = sequences.check_weak_separation(union)
        assert report.params["metric_min"] > 0.0

    def test_infeasible_packing_names_point(self):
        with pytest.raises(InputError, match="cannot place point"):
            sequences.disjoint_boxes(40, seed=0, eta=0.5, depth_min=0.3, depth_max=0.4)

    def test_disjoint_boxes_overlap_raises(self, monkeypatch):
        monkeypatch.setattr(sequences, "vicinity", lambda seq, i, gamma: [i + 1])
        with pytest.raises(InputError, match="overlapping boxes at point #0"):
            sequences.disjoint_boxes(3, seed=0)


def metric_close(got, want):
    # the metric is sqrt(1 - g) with g good to a few ulps, so near 0 the
    # root spreads those ulps over many digits: compare 1 - g there
    return math.isclose(got, want, rel_tol=1e-12) or abs(got * got - want * want) <= 16 * 2.0**-52


def ratios_close(got, want):
    return [r["index"] for r in got.records] == [r["index"] for r in want.records] and all(
        (math.isnan(a["ratio"]) and math.isnan(b["ratio"])) or math.isclose(a["ratio"], b["ratio"], rel_tol=1e-12)
        for a, b in zip(got.records, want.records)
    )


def outcome(f, *args):
    """f(*args), or the type of the DisclabError it raises."""
    try:
        return f(*args)
    except DisclabError as exc:
        return type(exc)


def _touching_pair(gamma):
    # expanded arcs of the two points meet end to end, up to rounding
    a, b = 0.02, 0.005
    return [DiscPoint(1.0, a), DiscPoint(1.0 + math.pi * (a**gamma + b**gamma), b)]


class TestArrayLayerMatchesOracle:
    @given(st.lists(disc_points(), min_size=2, max_size=12), st.sampled_from([0.3, 0.75, 0.9]))
    @example([DiscPoint(0.01, 0.05), DiscPoint(2.0 * math.pi - 0.01, 0.01), DiscPoint(3.0, 0.2)], 0.75)
    @example([DiscPoint(0.0, 0.05), DiscPoint(0.01, 0.05), DiscPoint(0.02, 0.05)], 0.75)  # equal depths
    @example([DiscPoint(1.0, 0.1), DiscPoint(1.0, 0.1), DiscPoint(1.02, 0.01)], 0.75)  # coincident
    @example(_touching_pair(0.75), 0.75)
    @example([DiscPoint(1.0, 1.0 - 2.0**-53), DiscPoint(4.0, 0.3), DiscPoint(2.0, 1e-4)], 0.3)  # a full circle
    # equal depths, angles apart by a subnormal-scale amount: a kernel quotient an
    # ulp off the scalar one gave a metric of 1.5e-8 where the scalar metric is 0
    @example([DiscPoint(0.0, 1.670170079024566e-05), DiscPoint(0.0, 1.0), DiscPoint(0.0, 1.0),
              DiscPoint(8.17662427021193e-89, 1.670170079024566e-05)], 0.3)
    @example([DiscPoint(2.92580944123713e-266, 0.09735478666869765), DiscPoint(0.0, 1.0), DiscPoint(0.0, 1.0),
              DiscPoint(0.0, 0.09735478666869765)], 0.3)
    @example([DiscPoint(2.2872594319707817e-98, 0.27693726268067703), DiscPoint(0.0, 1.0), DiscPoint(0.0, 1.0),
              DiscPoint(0.0, 0.27693726268067703)], 0.3)
    def test_lists_and_checks(self, points, gamma):
        seq = Sequence(tuple(points))
        for i in range(len(seq)):
            assert outcome(sequences.vicinity, seq, i, gamma) == outcome(sequence_oracle.vicinity, seq, i, gamma)
            assert outcome(sequences.restricted_vicinity, seq, i, gamma) == outcome(
                sequence_oracle.restricted_vicinity, seq, i, gamma
            )

        ws, want = sequences.check_weak_separation(seq), sequence_oracle.weak_separation(seq, sequences.DEFAULT_DELTA)
        assert (ws.passed, ws.witness_index) == (want.passed, want.witness_index)
        assert metric_close(ws.params["metric_min"], want.params["metric_min"])
        assert all(metric_close(a["rhs"], b["rhs"]) for a, b in zip(ws.records, want.records))
        assert math.isclose(
            ws.params["hyperbolic_form_min"], want.params["hyperbolic_form_min"], rel_tol=1e-12, abs_tol=16 * 2.0**-52
        )

        cc = outcome(sequences.check_capacitary_condition, seq, gamma)
        want = outcome(sequence_oracle.capacitary_condition, seq, gamma)
        if isinstance(want, type):  # the origin has no vicinity
            assert cc is want
        else:
            assert (cc.passed, cc.witness_index, cc.warnings) == (want.passed, want.witness_index, want.warnings)
            assert ratios_close(cc, want)
            td = sequences.check_theorem_d(seq, gamma)
            for rec in td.records:
                i = rec["index"]
                total = sum(1.0 / seq.norms[j] for j in sequence_oracle.restricted_vicinity(seq, i, gamma))
                assert rec["lhs"] == total


@pytest.fixture(scope="module")
def setup():
    seq = sequences.disjoint_boxes(6, seed=11)
    blocks = sequences._build_blocks(seq, 0.75, (48, 192))
    return seq, blocks


class TestInterpolant:
    def test_zero_data(self, setup):
        seq, blocks = setup
        pot, energy = sequences.assemble_sobolev_interpolant(
            seq, np.zeros(len(seq)), blocks=blocks
        )
        assert energy == 0.0
        assert not pot.values.any()

    def test_linear_in_data(self, setup):
        seq, blocks = setup
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(2, len(seq)))
        pa, _ = sequences.assemble_sobolev_interpolant(seq, a, blocks=blocks)
        pb, _ = sequences.assemble_sobolev_interpolant(seq, b, blocks=blocks)
        pab, _ = sequences.assemble_sobolev_interpolant(seq, a + b, blocks=blocks)
        assert np.abs(pab.values - pa.values - pb.values).max() < 1e-10

    def test_single_block_energy_scale(self, setup):
        seq, blocks = setup
        data = np.zeros(len(seq))
        data[0] = 1.0
        _, energy = sequences.assemble_sobolev_interpolant(seq, data, blocks=blocks)
        # block energy ~ d(z_0) * cap(block condenser), an O(1)-to-O(10) number
        assert 0.01 < energy < 1e3

    def test_length_mismatch(self, setup):
        seq, blocks = setup
        with pytest.raises(InputError):
            sequences.assemble_sobolev_interpolant(seq, [1.0, 2.0], blocks=blocks)

    def test_values_read_match_the_scatter(self, setup):
        seq, blocks = setup
        data = np.random.default_rng(1).normal(size=len(seq))
        pot, _ = sequences.assemble_sobolev_interpolant(seq, data, blocks=blocks)
        coeffs = data * np.sqrt(np.asarray(seq.norms))
        want = np.zeros(blocks.grid.n_nodes)
        want[blocks.nodes] = coeffs[blocks.owner] * blocks.values
        values = pot.values
        assert np.array_equal(values, want)
        assert pot.values is values

    @pytest.mark.parametrize("name", ["nodes", "owner", "values", "block_energies", "gram"])
    def test_block_arrays_are_read_only(self, setup, name):
        _, blocks = setup
        with pytest.raises(ValueError):
            getattr(blocks, name)[0] = 0

    def test_blocks_of_another_sequence(self, setup):
        seq, blocks = setup
        longer = sequences.disjoint_boxes(len(seq) + 1, seed=11)
        with pytest.raises(InputError, match=f"blocks built for {len(seq)} points .* sequence length {len(seq) + 1}"):
            sequences.assemble_sobolev_interpolant(longer, np.ones(len(longer)), blocks=blocks)

    def test_build_builds_the_stencil_rows_once(self, setup, monkeypatch):
        # the Gram matrix comes out of the blocks' one solve, which builds its rows once
        seq, _ = setup
        calls = []
        stencil = capacity.PolarGrid._stencil

        def counting(grid, nodes):
            calls.append(len(nodes))
            return stencil(grid, nodes)

        monkeypatch.setattr(capacity.PolarGrid, "_stencil", counting)
        blocks = sequences._build_blocks(seq, 0.75, (48, 192))
        assert calls == [len(blocks.nodes)]

    def test_parts_solve_leaves_no_state_on_the_grid(self, setup):
        _, blocks = setup
        grid = blocks.grid
        parts = np.full(grid.n_nodes, -1)
        parts[blocks.nodes] = blocks.owner
        cores = np.zeros(grid.n_nodes, dtype=bool)
        cores[blocks.nodes[blocks.values == 1.0]] = True
        before = set(vars(grid))
        grid.solve(parts < 0, cores, parts)
        assert set(vars(grid)) == before


def write_sequence(path, seq):
    path.write_text(json.dumps({"points": [{"theta": p.theta, "depth": p.depth} for p in seq.points]}))
    return path


class TestSerialization:
    def test_sequence_json_roundtrip(self, boxes12, tmp_path):
        # the depth form is exact
        back = sequences.load_sequence(write_sequence(tmp_path / "seq.json", boxes12))
        assert back.points == boxes12.points

    def test_load_rejects_malformed(self, tmp_path):
        path = tmp_path / "seq.json"
        for blob in (b"{not json", b"\xff\xfe{}", b"[]", b'{"points": 3}'):
            path.write_bytes(blob)
            with pytest.raises(InputError):
                sequences.load_sequence(path)

    def test_report_json_and_csv(self, boxes12, tmp_path, capsys):
        report = sequences.check_weak_separation(boxes12)
        blob = json.dumps(report.to_json())
        assert "sup_ratio" in blob
        # the command line writes the same records as a table
        csv_path = tmp_path / "report.csv"
        seq_path = write_sequence(tmp_path / "seq.json", boxes12)
        assert cli.main(["check", "ws", str(seq_path), "--csv", str(csv_path)]) == 0
        capsys.readouterr()
        with open(csv_path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["index", "lhs", "rhs", "ratio"]
        assert rows == [[repr(rec[key]) for key in header] for rec in report.records]
