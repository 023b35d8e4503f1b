"""The polar grid solver against its full-grid references in grid_oracle."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import grid_oracle
from conftest import angles, disc_points
from disclab import _blas, capacity, geometry, sequences
from disclab.errors import DomainError, NumericalError, ResolutionError
from disclab.geometry import ORIGIN, Arc, CarlesonBox, DiscPoint, HyperbolicDisc

REL = 1e-12
# The values agree to VALUES_TOL, not to 1e-12: on these graded grids the
# conditioning turns the one-ulp differences between the stencil's and the
# oracle's diagonals into differences of up to 4e-12, whichever
# factorisation solves the stencil system.
VALUES_TOL = 1e-11


@st.composite
def grids(draw):
    """Grids from 8x16 to 128x512 with log-uniform minimum depth."""
    n_r = draw(st.integers(8, 128))
    n_t = draw(st.integers(16, 512))
    min_depth = math.exp(draw(st.floats(math.log(1e-6), math.log(0.5))))
    return capacity.PolarGrid(n_r, n_t, min_depth)


@st.composite
def arcs(draw, grid):
    """Arcs of any length up to the full circle; some sit exactly on node angles."""
    if draw(st.booleans()):
        # centre and ends on node angles, so the arc test decides at its boundary
        j = draw(st.integers(0, grid.n_t - 1))
        m = draw(st.integers(1, grid.n_t // 2))
        return Arc(j * grid.dtheta, min(1.0, 2.0 * m / grid.n_t))
    length = draw(st.one_of(st.just(1.0), st.floats(1e-4, 1.0)))
    return Arc(draw(st.one_of(angles(), st.floats(-0.3, 0.3))), length)


@st.composite
def plates(draw, grid):
    kind = draw(st.sampled_from(["disc", "box", "arc"]))
    if kind == "disc":
        center = draw(st.one_of(st.just(ORIGIN), disc_points(min_depth=1e-3), disc_points(min_depth=0.3)))
        if draw(st.booleans()):
            # on a node ray, so the disc's nearest and farthest points can fall on nodes
            center = DiscPoint(draw(st.integers(0, grid.n_t - 1)) * grid.dtheta, center.depth)
        return HyperbolicDisc(center, draw(st.floats(0.05, 4.0)))
    if kind == "box":
        inner = draw(
            st.one_of(
                st.just(0.0),
                st.sampled_from(list(grid.ring_r)),
                st.floats(0.0, 1.0),
            )
        )
        return CarlesonBox(draw(arcs(grid)), inner)
    return draw(arcs(grid))


def _check_mask(grid, plate):
    want = grid_oracle.rasterize(grid, plate)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(capacity, "MIN_PLATE_CELLS", 0)
        got = grid.rasterize(plate)
    assert got.dtype == bool and got.shape == want.shape
    assert np.array_equal(got, want)
    if np.count_nonzero(want) < 4:
        with pytest.raises(ResolutionError):
            grid.rasterize(plate)
    else:
        assert np.array_equal(grid.rasterize(plate), want)


class TestRasterize:
    # a window that is too narrow misses only the few nodes at a plate's edge
    @settings(max_examples=500)
    @given(st.data())
    def test_matches_full_grid_mask(self, data):
        grid = data.draw(grids())
        _check_mask(grid, data.draw(plates(grid)))

    @pytest.mark.parametrize(
        "shape, plate",
        [
            ((8, 16, 0.5), HyperbolicDisc(ORIGIN, 1.0)),  # centred on the centre node
            ((128, 512, 1e-6), HyperbolicDisc(DiscPoint(0.01, 0.2), 3.0)),  # holds the centre node
            ((64, 256, 1e-3), HyperbolicDisc(DiscPoint(6.27, 0.05), 1.0)),  # straddles theta = 0
            ((128, 512, 1e-3), HyperbolicDisc(DiscPoint(1.0, 0.5), 0.508)),  # seen over 2 * asin(0.9)
            ((32, 64, 0.01), CarlesonBox(Arc(0.0, 1.0), 0.0)),  # the whole disc
            ((32, 64, 0.01), CarlesonBox(Arc(6.2, 0.1), 0.0)),  # wraps across 0, with the centre node
            ((16, 16, 0.1), Arc(6.0, 0.3)),  # wraps across 0
            ((16, 16, 0.1), Arc(1.0, 1.0)),  # the full circle
            ((16, 16, 0.1), Arc(0.0, 1e-4)),  # below the resolution
        ],
    )
    def test_edge_cases(self, shape, plate):
        _check_mask(capacity.PolarGrid(*shape), plate)


def _check_stencil_rows(grid, nodes):
    heads, tails, g = grid._stencil(nodes)
    # grouped by head, in the order of nodes, with no loop and no repeated edge
    assert np.all(np.diff(heads) >= 0) and np.array_equal(np.unique(heads), nodes)
    assert np.all(heads != tails)
    rows = np.searchsorted(nodes, heads)
    got = rows * grid.n_nodes + tails
    assert len(np.unique(got)) == len(got)
    want = grid_oracle.laplacian(grid)[nodes].tocoo()
    want_rows, want_cols = want.row.astype(np.int64), want.col.astype(np.int64)
    diag = want_cols == nodes[want_rows]
    key = want_rows[~diag] * grid.n_nodes + want_cols[~diag]
    order, want_order = np.argsort(got), np.argsort(key)
    assert np.array_equal(got[order], key[want_order])
    assert np.array_equal(-g[order], want.data[~diag][want_order])
    want_diag = np.zeros(len(nodes))
    want_diag[want_rows[diag]] = want.data[diag]
    assert np.all(np.abs(np.bincount(rows, weights=g) - want_diag) <= np.spacing(want_diag))


class TestStencil:
    @pytest.mark.parametrize("shape", [(4, 8), (8, 16), (48, 192), (128, 512)])
    def test_rows_match_assembled_laplacian(self, shape):
        grid = capacity.PolarGrid(*shape)
        n_t, last = grid.n_t, grid.n_nodes - grid.n_t
        ring_nodes = 1 + np.arange(grid.n_rings) * n_t
        special = np.concatenate(
            [[0], np.arange(1, n_t + 1), np.arange(last, grid.n_nodes), ring_nodes, ring_nodes + n_t - 1]
        )
        sample = np.random.default_rng(shape[0]).choice(grid.n_nodes, size=grid.n_nodes // 5, replace=False)
        for nodes in (np.arange(grid.n_nodes), np.unique(np.concatenate([special, sample])), np.array([3, 5])):
            _check_stencil_rows(grid, nodes)


def test_setup_builds_no_per_node_array():
    grid = capacity.PolarGrid(128, 512)
    assert max(np.size(value) for value in vars(grid).values()) <= max(grid.n_rings, grid.n_t)
    # the node coordinates, built when read
    assert grid.node_r[0] == grid.node_t[0] == 0.0
    rings = (grid.n_rings, grid.n_t)
    assert np.array_equal(grid.node_r[1:].reshape(rings), np.broadcast_to(grid.ring_r[:, None], rings))
    assert np.array_equal(grid.node_t[1:].reshape(rings), np.broadcast_to(grid.thetas, rings))


def _criterion_07_configuration():
    """The first configuration criterion 07 draws."""
    rng = np.random.default_rng(0)
    z = DiscPoint(rng.uniform(0, 2 * math.pi), 2.0 ** rng.uniform(-4.5, -3.0))
    points = []
    for _ in range(int(rng.integers(1, 4))):
        depth = 2.0 ** rng.uniform(-6.0, math.log2(z.depth / 2.0))
        theta = z.theta + rng.uniform(0.6, 1.5) * rng.choice([-1.0, 1.0])
        points.append(DiscPoint(theta, depth))
    return z, points


def _check_solve(grid, mask0, mask1):
    u, energy = grid.solve(mask0, mask1)
    assert energy > 0.0
    assert energy == pytest.approx(grid_oracle.energy(grid, u), rel=REL)
    pivoted = grid_oracle.solve(grid, mask0, mask1)
    assert energy == pytest.approx(grid_oracle.energy(grid, pivoted), rel=REL)
    return u


class TestSolveEnergy:
    @pytest.mark.parametrize("plate_set", ["boxes", "discs", "arcs"])
    def test_criterion_07_configuration(self, plate_set):
        z, points = _criterion_07_configuration()
        make = {
            "boxes": geometry.carleson_box,
            "discs": geometry.unit_hyperbolic_disc,
            "arcs": geometry.boundary_arc,
        }[plate_set]
        inner, outer = geometry.unit_hyperbolic_disc(z), [make(p) for p in points]
        grid = capacity.PolarGrid(128, 256, capacity._plate_min_depth(inner, outer))
        mask0 = grid_oracle.rasterize(grid, inner)
        mask1 = np.zeros(grid.n_nodes, dtype=bool)
        for t in outer:
            mask1 |= grid_oracle.rasterize(grid, t)
        _check_solve(grid, mask0, mask1)

    def test_interpolant_blocks(self, setups):
        for seq, blocks, oracle_blocks in setups:
            grid = blocks.grid
            for i, (mask0, mask1) in enumerate(oracle_blocks.masks):
                u = _check_solve(grid, mask0, mask1)
                assert blocks.block_energies[i] == pytest.approx(grid_oracle.energy(grid, u), rel=REL)
                block = np.zeros(grid.n_nodes)
                mine = blocks.owner == i
                block[blocks.nodes[mine]] = blocks.values[mine]
                assert np.abs(block - oracle_blocks.values[i]).max() < 1e-12

    def test_parts_cut_shared_edges(self):
        # part 0 wraps across angle 0; part 1 lies beside it on the same rings
        # and under both, so the parts share angular and radial edges
        grid = capacity.PolarGrid(16, 32, 0.05)
        n_t, k0 = grid.n_t, 8
        cols = [np.arange(-6, 4) % n_t, np.arange(4, 14)]
        parts = np.full(grid.n_nodes, -1)
        parts[grid._nodes(k0 - 3, k0, np.concatenate(cols))] = 1
        cores = np.zeros(grid.n_nodes, dtype=bool)
        for label, c in enumerate(cols):
            parts[grid._nodes(k0, grid.n_rings, c)] = label
            cores[grid._nodes(grid.n_rings - 2, grid.n_rings, c[2:-2])] = True
        u, form = grid.solve(parts < 0, cores, parts)
        assert form.shape == (2, 2)
        wants = []
        for label in (0, 1):
            inside = parts == label
            want = grid_oracle.solve(grid, ~inside, cores & inside)
            assert np.abs(u[inside] - want[inside]).max() < 1e-12
            assert form[label, label] == pytest.approx(grid_oracle.energy(grid, want), rel=REL)
            wants.append(np.where(inside, want, 0.0))
        # the cut edges couple the parts: b0^T L b1, the same from either side
        assert np.allclose(form, form.T, rtol=1e-14, atol=0.0)
        coupling = wants[0] @ (grid_oracle.laplacian(grid) @ wants[1])
        assert coupling < 0.0
        assert form[0, 1] == pytest.approx(coupling, rel=1e-12)


@st.composite
def small_grids(draw):
    """Grids from 8x16 to 32x96 with log-uniform minimum depth down to 1e-3."""
    n_r = draw(st.integers(8, 32))
    n_t = draw(st.integers(16, 96))
    min_depth = math.exp(draw(st.floats(math.log(1e-3), math.log(0.5))))
    return capacity.PolarGrid(n_r, n_t, min_depth)


def _short_arcs(grid):
    """Arcs shorter than the full circle, so a box over one leaves ring 0 partly free."""
    return arcs(grid).filter(lambda a: not a.is_full_circle())


@st.composite
def condensers(draw):
    """(grid, plates0, plates1): the plates of mask0 and of mask1.

    The cases reach every branch of the capacitance solve: the centre
    free, fixed next to free nodes (a box down to radius 0) or fixed
    inside a plate (a disc at the origin over ring 0); boundary layers
    on one ring (arcs on the last ring only) or many; the whole circle as
    a plate; and plates that overlap.
    """
    grid = draw(small_grids())
    case = draw(st.sampled_from(["random", "centre box", "origin disc", "last-ring arcs", "full circle"]))
    outer = st.lists(plates(grid), min_size=1, max_size=3)
    if case == "random":
        return grid, [draw(plates(grid))], draw(outer)
    if case == "centre box":
        box = [CarlesonBox(draw(_short_arcs(grid)), 0.0)]
        others = draw(st.lists(arcs(grid), min_size=1, max_size=2))
        return (grid, box, others) if draw(st.booleans()) else (grid, others, box)
    if case == "origin disc":
        rho = draw(st.floats(grid.ring_r[0], grid.ring_r[-2]))
        return grid, [HyperbolicDisc(ORIGIN, math.atanh(rho))], draw(outer)
    if case == "last-ring arcs":
        last_ring = st.lists(arcs(grid), min_size=1, max_size=2)
        return grid, draw(last_ring), draw(last_ring)
    disc = draw(plates(grid).filter(lambda p: isinstance(p, HyperbolicDisc)))
    return grid, [disc], [Arc(0.0, 1.0)]


def _union(grid, plates):
    mask = np.zeros(grid.n_nodes, dtype=bool)
    for p in plates:
        mask |= grid_oracle.rasterize(grid, p)
    return mask


def _check_green(grid, nodes):
    """grid._green on the nodes against the refined dense inverse of the grounded Laplacian, on and above the diagonal."""
    want = grid_oracle.green(grid, nodes)
    green = grid._green(nodes)
    assert green.shape == want.shape and green.flags.f_contiguous
    assert np.abs(np.triu(green) - np.triu(want)).max() <= 1e-12 * np.abs(want).max()


class TestCapacitanceSolve:
    @settings(max_examples=300)
    @given(condensers())
    def test_matches_pivoting_oracle(self, condenser):
        grid, plates0, plates1 = condenser
        mask0, mask1 = _union(grid, plates0), _union(grid, plates1)
        assume(mask0.any() and mask1.any())
        u, energy = grid.solve(mask0, mask1)
        if (mask0 & mask1).any():
            assert not u.any() and energy == 0.0
            return
        want = grid_oracle.solve(grid, mask0, mask1)
        assert np.abs(u - want).max() < VALUES_TOL
        assert energy == pytest.approx(grid_oracle.energy(grid, want), rel=REL)

    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_only_the_centre_fixed(self, value):
        # no ring node is fixed, so the layer and its capacitance matrix are
        # empty and every node takes the centre's value
        grid = capacity.PolarGrid(8, 16)
        centre = np.zeros(grid.n_nodes, dtype=bool)
        centre[0] = True
        none = np.zeros(grid.n_nodes, dtype=bool)
        u, energy = grid.solve(*((none, centre) if value else (centre, none)))
        assert np.array_equal(u, np.full(grid.n_nodes, value))
        assert energy == 0.0

    def test_nothing_fixed_rejected(self):
        grid = capacity.PolarGrid(8, 16)
        none = np.zeros(grid.n_nodes, dtype=bool)
        with pytest.raises(DomainError, match="no node is fixed"):
            grid.solve(none, none)

    @pytest.mark.parametrize("shape", [(8, 16, 0.5), (12, 25, 0.01), (32, 96, 1e-4)])
    def test_modes_match_stencil_rows(self, shape):
        # T_m from its LDL^T factors, applied to v(k) cos(m theta_j) and
        # v(k) sin(m theta_j), against the stencil rows with the centre at 0
        grid = capacity.PolarGrid(*shape)
        pivots, rho, _ = grid._modes
        heads, tails, g = grid._stencil(np.arange(1, grid.n_nodes))
        v = np.random.default_rng(shape[1]).normal(size=grid.n_rings)
        for m in range(grid.n_t // 2 + 1):
            y = v.copy()
            y[:-1] -= rho[m] * v[1:]
            y *= pivots[m]
            y[1:] -= rho[m] * y[:-1]
            # sin(m theta_j) vanishes at m = 0 and m = n_t / 2
            for wave in (np.cos, np.sin) if 0 < m < grid.n_t / 2 else (np.cos,):
                profile = wave(m * grid.thetas)
                w = np.concatenate([[0.0], np.outer(v, profile).ravel()])
                rows = np.bincount(heads, weights=g * (w[heads] - w[tails]), minlength=grid.n_nodes)[1:]
                scale = np.bincount(heads, weights=g * (np.abs(w[heads]) + np.abs(w[tails]))).max()
                assert np.abs(rows - np.outer(y, profile).ravel()).max() <= 1e-13 * scale

    @pytest.mark.parametrize(
        "shape",
        [
            (8, 16, 0.5),
            (12, 25, 0.01),  # odd n_t: no Nyquist mode, weight 2 from m = 1 on
            (16, 32, 1e-6),  # strongly graded
            (13, 27, 1e-6),
        ],
    )
    def test_green_is_the_grounded_inverse(self, shape):
        grid = capacity.PolarGrid(*shape)
        nodes = np.unique(np.random.default_rng(1).choice(np.arange(1, grid.n_nodes), size=40))
        _check_green(grid, nodes)

    @pytest.mark.parametrize(
        "shape, pick",
        [
            ((24, 48, 1e-3), "more than two blocks"),
            ((16, 33, 1e-3), "first and last rings"),
            ((16, 32, 1e-3), "one node"),
        ],
    )
    def test_green_on_chosen_nodes(self, shape, pick):
        grid = capacity.PolarGrid(*shape)
        n_t, n_nodes = grid.n_t, grid.n_nodes
        nodes = {
            "more than two blocks": lambda: np.sort(
                np.random.default_rng(1).choice(
                    np.arange(1, n_nodes), size=2 * capacity._GREEN_BLOCK + 40, replace=False
                )
            ),
            "first and last rings": lambda: np.r_[1 : n_t + 1, n_nodes - n_t : n_nodes],
            "one node": lambda: np.array([n_t + 3]),
        }[pick]()
        _check_green(grid, nodes)

    @given(
        st.builds(
            capacity.PolarGrid,
            st.integers(4, 16),
            st.integers(8, 40),
            st.floats(math.log(1e-6), math.log(0.5)).map(math.exp),
        ),
        st.data(),
    )
    def test_green_on_drawn_nodes(self, grid, data):
        # any share of the ring nodes, so that some sets cross block edges
        share = data.draw(st.floats(0.0, 1.0))
        seed = data.draw(st.integers(0, 2**32 - 1))
        nodes = 1 + np.flatnonzero(np.random.default_rng(seed).random(grid.n_nodes - 1) < share)
        nodes = np.union1d(nodes, data.draw(st.integers(1, grid.n_nodes - 1)))
        _check_green(grid, nodes)

    @pytest.mark.parametrize("over", [False, True])
    def test_log_range_guard(self, over):
        # every ring's decay ratio scaled by one factor, so the layer's log P
        # spans just under or just over the limit in its widest mode
        grid, mask0, mask1 = self._condenser()
        layer = grid._layer(~(mask0 | mask1))
        pivots, rho, diag = grid._modes
        k0, k1 = (layer[[0, -1]] - 1) // grid.n_t
        spread = -np.log(rho[:, k0:k1]).sum(axis=1).max()
        target = capacity._GREEN_LOG_RANGE * (1.01 if over else 0.99)
        rho = rho * math.exp((spread - target) / (k1 - k0))
        grid.__dict__["_modes"] = (pivots, rho, diag)
        if over:
            with pytest.raises(NumericalError, match=f"exceeds {capacity._GREEN_LOG_RANGE:g}"):
                grid.solve(mask0, mask1)
            return
        # no factor overflows: the entries are the plain sum over the modes,
        # each ratio P_m[k_b] / P_m[k_a] at most 1 for rings k_a <= k_b
        nodes = np.union1d(layer[:: len(layer) // 40], layer[-1])
        k, j = np.divmod(nodes - 1, grid.n_t)
        log_p = np.concatenate([np.zeros((len(rho), 1)), np.cumsum(np.log(rho), axis=1)], axis=1)
        m = np.arange(len(rho))[:, None, None]
        weights = np.where((m == 0) | (2 * m == grid.n_t), 1.0, 2.0) / grid.n_t
        ratio = np.exp(np.minimum(log_p[:, None, k] - log_p[:, k, None], 0.0))
        want = (weights * np.cos(m * (j[:, None] - j) * grid.dtheta) * diag[:, None, k] * ratio).sum(axis=0)
        green = grid._green(nodes)
        assert np.isfinite(np.triu(green)).all()
        # both sum logs over up to 1400 in magnitude: about 1400 eps = 3e-13 relative apart
        assert np.abs(np.triu(green) - np.triu(want)).max() <= 1e-12 * np.abs(want).max()

    def _condenser(self):
        z, points = _criterion_07_configuration()
        inner, outer = geometry.unit_hyperbolic_disc(z), [geometry.carleson_box(p) for p in points]
        grid = capacity.PolarGrid(48, 96, capacity._plate_min_depth(inner, outer))
        mask1 = np.zeros(grid.n_nodes, dtype=bool)
        for t in outer:
            mask1 |= grid.rasterize(t)
        return grid, grid.rasterize(inner), mask1

    def test_failed_cholesky_raises_numerical_error(self, monkeypatch):
        def not_positive_definite(*args, **kwargs):
            raise np.linalg.LinAlgError("leading minor not positive definite")

        monkeypatch.setattr(_blas, "solve_definite", not_positive_definite)
        with pytest.raises(NumericalError, match="not positive definite"):
            capacity.PolarGrid.solve(*self._condenser())

    def test_residual_guard(self, monkeypatch):
        solve_definite = _blas.solve_definite
        monkeypatch.setattr(_blas, "solve_definite", lambda *a, **k: solve_definite(*a, **k) * (1.0 + 1e-6))
        with pytest.raises(NumericalError, match="residual"):
            capacity.PolarGrid.solve(*self._condenser())

    def test_residual_guard_at_the_free_centre(self, monkeypatch):
        grid, mask0, mask1 = self._condenser()
        assert not (mask0[0] or mask1[0])
        delta = 10.0 * capacity.RESIDUAL_BOUND
        # ring 0 sees delta through one spoke, g_radial[0] of its conductance
        # sum: below the bound there, so only the centre's own residual can fire
        assert grid._g_radial[0] * delta < 0.1 * capacity.RESIDUAL_BOUND * grid._g_sum[0]
        capacitance_solve = capacity.PolarGrid._capacitance_solve

        def centre_off(self, *args):
            values = capacitance_solve(self, *args)
            values[0] += delta  # the centre is the first free node
            return values

        monkeypatch.setattr(capacity.PolarGrid, "_capacitance_solve", centre_off)
        with pytest.raises(NumericalError, match="residual"):
            grid.solve(mask0, mask1)

    def test_builds_no_stencil_rows(self, monkeypatch):
        def no_rows(*args):
            raise AssertionError("a condenser solve built stencil rows")

        monkeypatch.setattr(capacity.PolarGrid, "_stencil", no_rows)
        grid, mask0, mask1 = self._condenser()
        u, energy = grid.solve(mask0, mask1)
        assert energy > 0.0


@st.composite
def ring_cases(draw):
    """(grid, mask0, mask1, u): disjoint masks, and values 0 on mask0, 1 on mask1 and random elsewhere.

    The cases: the centre free (a box down to a ring's radius, which on
    ring 0 fixes some or all of the centre's neighbours), in mask0 or in
    mask1 (a box down to radius 0), plates on the last ring only, and no
    free node at all.
    """
    grid = draw(small_grids())
    case = draw(st.sampled_from(["centre free", "centre in mask0", "centre in mask1", "last ring", "no free node"]))
    last_ring = st.lists(arcs(grid), min_size=1, max_size=2)
    if case == "centre free":
        plates0 = [CarlesonBox(draw(arcs(grid)), draw(st.sampled_from(list(grid.ring_r))))]
        plates1 = draw(last_ring)
    elif case == "centre in mask0":
        plates0, plates1 = [CarlesonBox(draw(_short_arcs(grid)), 0.0)], draw(last_ring)
    elif case == "centre in mask1":
        plates0, plates1 = draw(last_ring), [CarlesonBox(draw(_short_arcs(grid)), 0.0)]
    else:
        plates0, plates1 = draw(last_ring), draw(last_ring)
    mask0 = _union(grid, plates0)
    mask1 = ~mask0 if case == "no free node" else _union(grid, plates1) & ~mask0
    u = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1.0, 2.0, grid.n_nodes)
    u[mask0], u[mask1] = 0.0, 1.0
    return grid, mask0, mask1, u


class TestRingArrays:
    @settings(max_examples=300)
    @given(ring_cases())
    def test_match_stencil_rows_and_oracle(self, case):
        grid, mask0, mask1, u = case
        free = ~(mask0 | mask1)
        heads, tails, _ = grid._stencil(np.flatnonzero(~mask0))
        layer = np.unique(tails[free[heads] & ~free[tails]])
        assert np.array_equal(grid._layer(free), layer[layer > 0])
        lu, energy = grid._flows(u)
        laplacian = grid_oracle.laplacian(grid)
        scale = abs(laplacian) @ np.abs(u)
        assert np.all(np.abs(lu - laplacian @ u)[free] <= 1e-13 * scale[free])
        want = grid_oracle.energy(grid, u)
        assert abs(energy - want) <= 1e-13 * want


@st.composite
def labelled_windows(draw):
    """(grid, parts, cores): labelled (ring, column) windows and their cores.

    Each window spans a range of rings and a range of columns, which may
    wrap across angle 0, be wider than tall or close the circle; a later
    window keeps only the nodes no earlier one took.  Each core is a
    window inside its part's, so the rows through it are split in two.
    The first part may start at ring 0 and hold the centre node, which
    is then in its core: a parts solve holds the centre fixed.
    """
    grid = draw(small_grids())
    n_t, n_rings = grid.n_t, grid.n_rings
    centre = draw(st.booleans())
    parts = np.full(grid.n_nodes, -1)
    cores = np.zeros(grid.n_nodes, dtype=bool)
    for label in range(draw(st.integers(1, 3))):
        k0 = 0 if centre and label == 0 else draw(st.integers(0, n_rings - 1))
        k1 = draw(st.integers(k0 + 1, n_rings))
        c0, width = draw(st.integers(0, n_t - 1)), draw(st.integers(1, n_t))
        window = grid._nodes(k0, k1, (c0 + np.arange(width)) % n_t)
        window = window[parts[window] < 0]
        parts[window] = label
        if centre and label == 0:
            parts[0] = 0
            cores[0] = True
        h0 = draw(st.integers(k0, k1 - 1))
        h1 = draw(st.integers(h0 + 1, k1))
        d0 = draw(st.integers(0, width - 1))
        d1 = draw(st.integers(d0 + 1, width))
        core = grid._nodes(h0, h1, (c0 + np.arange(d0, d1)) % n_t)
        cores[core[parts[core] == label]] = True
    return grid, parts, cores


def _recorded_bandwidth(monkeypatch, grid, mask0, mask1, parts) -> int:
    """The bandwidth of the one banded system a parts solve factors."""
    shapes = []
    solve_banded = _blas.solve_banded

    def recording(ab, *args, **kwargs):
        shapes.append(ab.shape)
        return solve_banded(ab, *args, **kwargs)

    monkeypatch.setattr(_blas, "solve_banded", recording)
    grid.solve(mask0, mask1, parts)
    ((rows, _),) = shapes
    return rows - 1


class TestBandedSolve:
    @settings(max_examples=300)
    @given(labelled_windows())
    def test_matches_pivoting_oracle_part_by_part(self, windows):
        grid, parts, cores = windows
        u, form = grid.solve(parts < 0, cores, parts)
        assert form.shape == (parts.max() + 1,) * 2
        for label in np.unique(parts[parts >= 0]):
            inside = parts == label
            want = grid_oracle.solve(grid, ~inside, cores & inside)
            assert np.abs(u[inside] - want[inside]).max() < VALUES_TOL
            assert form[label, label] == pytest.approx(grid_oracle.energy(grid, want), rel=REL)

    @pytest.mark.parametrize(
        "windows, band",
        [
            ([(4, 16, 0, 5)], 5),  # taller than wide: ring by ring
            ([(4, 8, 0, 20)], 4),  # wider than tall: column by column
            ([(4, 8, 54, 20)], 4),  # the same across angle 0
            ([(2, 20, 62, 5)], 5),  # taller than wide across angle 0
            ([(4, 8, 0, 64)], 8),  # closes the circle: folded columns, two apart
            ([(0, 40, 0, 64)], 64),  # closes the circle, taller than half its width: ring by ring
            ([(0, 24, 0, 10)], 10),  # from ring 0, beside the centre in mask0: ring by ring
            ([(4, 16, 0, 5), (4, 10, 30, 20)], 6),  # the band is the wider of the parts' bands
        ],
    )
    def test_bandwidth_is_the_shorter_side(self, monkeypatch, windows, band):
        grid = capacity.PolarGrid(40, 64, 0.05)
        parts = np.full(grid.n_nodes, -1)
        for label, (k0, k1, c0, width) in enumerate(windows):
            parts[grid._nodes(k0, k1, (c0 + np.arange(width)) % grid.n_t)] = label
        assert _recorded_bandwidth(monkeypatch, grid, parts < 0, np.zeros(grid.n_nodes, dtype=bool), parts) == band

    def test_free_centre_rejected(self):
        grid = capacity.PolarGrid(8, 16, 0.5)
        parts = np.full(grid.n_nodes, -1)
        parts[: 1 + 2 * grid.n_t] = 0  # the centre and rings 0 and 1
        cores = np.zeros(grid.n_nodes, dtype=bool)
        cores[grid._nodes(1, 2, np.arange(grid.n_t))] = True
        with pytest.raises(DomainError, match="centre"):
            grid.solve(parts < 0, cores, parts)

    def _blocks_system(self):
        """The parts solve of test_parts_cut_shared_edges."""
        grid = capacity.PolarGrid(16, 32, 0.05)
        parts = np.full(grid.n_nodes, -1)
        parts[grid._nodes(8, grid.n_rings, np.arange(-6, 4) % grid.n_t)] = 0
        parts[grid._nodes(8, grid.n_rings, np.arange(4, 14))] = 1
        cores = (parts >= 0) & (np.arange(grid.n_nodes) > grid.n_nodes - 2 * grid.n_t)
        return grid, parts < 0, cores, parts

    def test_failed_cholesky_raises_numerical_error(self, monkeypatch):
        def not_positive_definite(*args, **kwargs):
            raise np.linalg.LinAlgError("4-th leading minor not positive definite")

        monkeypatch.setattr(_blas, "solve_banded", not_positive_definite)
        with pytest.raises(NumericalError, match="not positive definite"):
            capacity.PolarGrid.solve(*self._blocks_system())

    def test_residual_guard(self, monkeypatch):
        solve_banded = _blas.solve_banded
        monkeypatch.setattr(_blas, "solve_banded", lambda *a, **k: solve_banded(*a, **k) * (1.0 + 1e-6))
        with pytest.raises(NumericalError, match="residual"):
            capacity.PolarGrid.solve(*self._blocks_system())


class _OracleBlocks:
    """The blocks as full-length masks and dense values: each support loses
    every node of the other supports, and each block is solved by spsolve."""

    def __init__(self, seq, gamma, grid):
        supports = [grid_oracle.rasterize(grid, geometry.expanded_box(z, gamma)) for z in seq.points]
        self.masks = []
        self.values = np.zeros((len(seq), grid.n_nodes))
        for i, z in enumerate(seq.points):
            support = supports[i].copy()
            for j, other in enumerate(supports):
                if j != i:
                    support &= ~other
            inner = grid_oracle.rasterize(grid, geometry.unit_hyperbolic_disc(z)) & support
            self.masks.append((~support, inner))
            self.values[i] = grid_oracle.solve(grid, ~support, inner)


@pytest.fixture(scope="module")
def setups():
    """(sequence, blocks, oracle blocks) for two sequences of six points; at
    seed 24 two supports sit side by side, so their blocks share edges."""
    out = []
    for seed in (11, 24):
        seq = sequences.disjoint_boxes(6, seed=seed)
        blocks = sequences._build_blocks(seq, 0.75, (48, 192))
        out.append((seq, blocks, _OracleBlocks(seq, 0.75, blocks.grid)))
    return out


class TestGramEnergy:
    @given(st.lists(st.floats(-10.0, 10.0), min_size=6, max_size=6).filter(lambda a: any(a)))
    def test_matches_edge_sum_plus_l2(self, setups, data):
        for seq, blocks, oracle_blocks in setups:
            pot, energy = sequences.assemble_sobolev_interpolant(seq, data, blocks=blocks)
            coeffs = np.asarray(data) * np.sqrt(np.asarray(seq.norms))
            values = coeffs @ oracle_blocks.values
            assert np.abs(pot.values - values).max() <= 1e-12 * np.abs(coeffs).max()
            grid = blocks.grid
            want = grid_oracle.energy(grid, pot.values) + grid_oracle.l2_norm_sq(grid, pot.values)
            assert energy == pytest.approx(want, rel=REL)
