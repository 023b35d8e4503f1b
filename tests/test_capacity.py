import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import equilibrium_oracle
import geometry_oracle
from conftest import angles, arc_lengths
from disclab import _blas, capacity, cli, geometry
from disclab.errors import DomainError, NumericalError, ResolutionError
from disclab.geometry import ORIGIN, Arc, CarlesonBox, DiscPoint, HyperbolicDisc


def single_arc_energy(length):
    """Equilibrium energy of one arc: log(2 / sin(pi*length/2))."""
    return math.log(2.0 / math.sin(math.pi * length / 2.0))


class TestEquilibriumMeasure:
    def test_symmetric_on_single_arc(self):
        mu = capacity.equilibrium_measure([Arc(0.0, 0.25)])
        assert np.allclose(mu.weights, mu.weights[::-1], atol=1e-9)

    def test_antipodal_arcs_split_mass(self):
        mu = capacity.equilibrium_measure([Arc(0.0, 0.1), Arc(math.pi, 0.1)])
        half = len(mu.nodes) // 2
        assert mu.weights[:half].sum() == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_energy_matches_exact_single_arc(self, k):
        ell = 2.0**-k
        mu = capacity.equilibrium_measure([Arc(1.0, ell)])
        assert mu.energy == pytest.approx(single_arc_energy(ell), rel=0.02)

    def test_small_arc_energy_scale(self):
        mu = capacity.equilibrium_measure([Arc(0.0, 2.0**-8)])
        assert 0.05 <= mu.energy / math.log(2.0**8) <= 20.0

    def test_tiny_arcs_use_point_masses(self):
        arcs = [Arc(1.0, 2.0**-60), Arc(2.0, 2.0**-64)]
        mu = capacity.equilibrium_measure(arcs)
        assert len(mu.nodes) == 2
        assert math.isfinite(mu.energy) and mu.energy > 0


def assert_matches_oracle(arcs):
    mu = capacity.equilibrium_measure(arcs)
    nodes, weights, energy, _ = equilibrium_oracle.equilibrium_measure(arcs)
    assert np.array_equal(mu.nodes, nodes)
    assert mu.energy == pytest.approx(energy, rel=1e-12)
    assert np.abs(mu.weights - weights).max() <= 1e-12


class TestEquilibriumOracle:
    @pytest.mark.parametrize("n", [1, 24, 63, 64, 65, 129, 1536])
    def test_kernel_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        angles = rng.uniform(0.0, 2.0 * math.pi, n)
        angles[n // 2 :] = np.sort(angles[n // 2 :])
        widths = rng.uniform(1e-9, 1e-2, n)
        assert np.array_equal(
            capacity._energy_matrix(angles, widths), equilibrium_oracle.energy_matrix(angles, widths)
        )

    @given(st.lists(st.builds(Arc, angles(), arc_lengths(1e-9, 0.5)), min_size=1, max_size=64))
    def test_matches_bordered_solve(self, arcs):
        assert_matches_oracle(arcs)

    def test_full_circle_is_indefinite(self):
        # the two end nodes sit 1.8e-4 rad apart across the wrap, closer
        # than their 1.3e-3 rad cells are wide, so their coupling (9.32)
        # exceeds their self-cell diagonal (8.85) and K is indefinite: the
        # solve cannot be a Cholesky one
        nodes, widths = equilibrium_oracle.nodes([Arc(0.0, 1.0)])
        assert np.linalg.eigvalsh(equilibrium_oracle.energy_matrix(nodes, widths))[0] < -0.4
        assert_matches_oracle([Arc(0.0, 1.0)])

    def test_point_masses(self):
        assert_matches_oracle([Arc(1.0, 2.0**-60), Arc(2.0, 2.0**-64), Arc(4.0, 1e-13)])
        assert_matches_oracle([Arc(1.0, 2.0**-60), Arc(3.0, 0.1)])

    def test_second_active_set_sweep(self):
        # two expanded-box arcs from the capacitary check of a random
        # sequence; together they cover the circle, and the first sweep
        # leaves negative weights
        arcs = [Arc(5.073419076239693, 0.5146155028463495), Arc(2.562352128421005, 0.8214097941892161)]
        assert equilibrium_oracle.equilibrium_measure(arcs)[3] == 2
        assert_matches_oracle(arcs)


class TestEquilibriumErrors:
    ARCS = [Arc(0.3 + 1.5 * j, 0.05) for j in range(4)]

    def test_singular_system_raises(self, monkeypatch):
        call = _blas._call

        def singular(*args):
            call(*args)
            return 1  # info: D[0] exactly zero

        monkeypatch.setattr(_blas, "_call", singular)
        with pytest.raises(NumericalError, match="singular"):
            capacity.equilibrium_measure(self.ARCS)

    def test_degenerate_weights_raise(self, monkeypatch):
        monkeypatch.setattr(_blas, "solve_symmetric", lambda a, b, lower: np.full(len(b), np.nan))
        with pytest.raises(NumericalError, match="degenerate"):
            capacity.equilibrium_measure(self.ARCS)


class TestArcNodes:
    @pytest.mark.parametrize("n", [capacity.QUAD_NODES])
    def test_cached_rule_matches_fresh_build(self, n):
        t, cells = capacity._unit_arc_nodes()
        assert capacity._unit_arc_nodes()[0] is t
        for shared in (t, cells):
            with pytest.raises(ValueError):
                shared[0] = 0.0
        x = np.polynomial.legendre.leggauss(n)[0]
        fresh = np.sin(0.25 * math.pi * (x + 1.0)) ** 2
        bounds = np.concatenate(([0.0], 0.5 * (fresh[1:] + fresh[:-1]), [1.0]))
        arc = Arc(2.5, 0.03)
        span = 2.0 * arc.half_width
        nodes, widths, start = capacity._nodes(geometry.ArcGroups.from_lists([[arc]]))
        assert np.array_equal(nodes, arc.start + fresh * span)
        assert np.array_equal(widths, np.diff(bounds) * span)
        assert start.tolist() == [0, n]


class TestLogCapacity:
    def test_empty(self):
        assert capacity.log_capacity([]) == 0.0

    def test_monotone_nested(self):
        inner = capacity.log_capacity([Arc(0.0, 0.05)])
        outer = capacity.log_capacity([Arc(0.0, 0.2)])
        assert inner <= outer

    def test_monotone_adding_arc(self):
        base = [Arc(0.0, 0.05)]
        more = base + [Arc(math.pi, 0.05)]
        assert capacity.log_capacity(base) <= capacity.log_capacity(more) + 1e-10

    def test_slow_decay_in_arc_length(self):
        ratio = capacity.log_capacity([Arc(0.0, 2.0**-4)]) / capacity.log_capacity(
            [Arc(0.0, 2.0**-12)]
        )
        assert 1.0 <= ratio <= 10.0


class TestCondenserCapacity:
    def test_touching_plates_zero(self):
        z = DiscPoint(0.0, 0.5)
        near = DiscPoint(0.0, 0.45)
        result = capacity.condenser_capacity(z, [near])
        assert result.value == 0.0
        assert result.warnings

    def test_single_target_tracks_inverse_distance(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            z = DiscPoint(rng.uniform(0, 2 * math.pi), rng.uniform(0.05, 0.4))
            w = DiscPoint(
                z.theta + rng.uniform(-1.0, 1.0), z.depth * rng.uniform(0.01, 0.5)
            )
            result = capacity.condenser_capacity(z, [w])
            if result.value == 0.0:
                continue  # plates touched
            product = result.value * geometry_oracle.hyperbolic_distance(z, w)
            assert 1.0 / 64.0 <= product <= 64.0

    def test_falls_with_sub_resolution_arc_length(self):
        # below about 1e-16 the arc's endpoint images round to one angle;
        # the capacity keeps falling with the length instead of jumping to
        # the full circle's
        z = DiscPoint(0.0, 0.5)
        caps = [capacity.condenser_capacity(z, [Arc(1.0, 10.0**-e)]).value for e in range(14, 19)]
        assert all(a > b > 0.0 for a, b in zip(caps, caps[1:]))
        assert caps[-1] < 0.1 < capacity.log_capacity([Arc(0.0, 1.0)])

    def test_empty_targets_rejected(self):
        with pytest.raises(DomainError):
            capacity.condenser_capacity(ORIGIN, [])

    def test_depth_precondition_warns(self):
        z = DiscPoint(0.0, 0.1)
        shallow = DiscPoint(math.pi, 0.5)  # deeper than z/2 is fine; shallower warns
        result = capacity.condenser_capacity(z, [shallow])
        assert result.warnings

    @pytest.mark.parametrize(
        "target",
        [CarlesonBox(Arc(1.0, 0.01), 0.5), HyperbolicDisc(DiscPoint(2.0, 0.01), 0.5), (0.0, 0.5)],
        ids=["box", "disc", "tuple"],
    )
    def test_only_points_and_arcs_are_targets(self, target):
        # checked before any transfer, so a touching point ahead of it does not hide it
        with pytest.raises(DomainError, match="unsupported target type"):
            capacity.condenser_capacity(DiscPoint(0.0, 0.5), [DiscPoint(0.0, 0.45), Arc(2.0, 0.1), target])


class TestPolarGrid:
    def test_annulus_benchmark(self):
        inner_r = 0.3
        plates = geometry.HyperbolicDisc(ORIGIN, math.atanh(inner_r)), [Arc(0.0, 1.0)]
        exact = 2.0 * math.pi / math.log(1.0 / inner_r)
        coarse = capacity.grid_condenser_capacity(*plates, (48, 96)).energy
        fine = capacity.grid_condenser_capacity(*plates, (96, 192)).energy
        assert abs(fine - exact) / exact < 0.15
        assert abs(fine - exact) <= abs(coarse - exact)

    def test_equal_plates_zero(self):
        disc = geometry.HyperbolicDisc(ORIGIN, 1.0)
        assert capacity.grid_condenser_capacity(disc, [disc], (16, 16)).energy == 0.0

    def test_unresolved_plate_raises(self):
        grid = capacity.PolarGrid(16, 16, 0.1)
        with pytest.raises(ResolutionError):
            grid.rasterize(Arc(0.0, 1e-4), "test arc")

    def test_values_between_plates(self):
        z = DiscPoint(math.pi, 0.05)
        pot = capacity.grid_condenser_capacity(
            geometry.unit_hyperbolic_disc(ORIGIN), [geometry.boundary_arc(z)], (48, 128)
        )
        assert pot.values.min() >= -1e-12
        assert pot.values.max() <= 1.0 + 1e-12

    def test_csv_export(self, tmp_path, capsys):
        # the CLI's --csv table of the potential holds every node's r, theta and value exactly
        z = DiscPoint(1.0, 0.2)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "plate_inner": {"center": {"theta": z.theta, "depth": z.depth}, "radius": 1.0},
                    "plate_outer": {"arcs": [{"center_angle": 3.0, "length": 0.25}]},
                }
            )
        )
        path = tmp_path / "field.csv"
        argv = ["capacity", "grid", str(spec_path), "--grid-r", "16", "--grid-t", "32", "--csv", str(path)]
        assert cli.main(argv) == 0
        capsys.readouterr()
        pot = capacity.grid_condenser_capacity(geometry.unit_hyperbolic_disc(z), [Arc(3.0, 0.25)], (16, 32))
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["r", "theta", "value"]
        expected = np.column_stack([pot.grid.node_r, pot.grid.node_t, pot.values])
        assert np.array_equal(np.array(rows, dtype=float), expected)

    def test_fast_route_calibrated_to_grid(self):
        for k in (5, 7):
            arc = Arc(0.0, 2.0**-k)
            fast = capacity.log_capacity([arc])
            grid = capacity.grid_condenser_capacity(geometry.unit_hyperbolic_disc(ORIGIN), [arc], (96, 512)).energy
            assert fast == pytest.approx(grid, rel=0.15)
