import csv
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import example, given, strategies as st

from disclab import cli, geometry, sequences, tree
from disclab.errors import DomainError, InputError, NumericalError
from disclab.tree import ROOT, CombSpec, TreeCondenser, TreeNode
import geometry_oracle
from tree_oracle import (
    ancestor_at,
    box,
    child_minus,
    comb_lower_bound_check,
    dense_capacity,
    parent,
    path_union_size_walk,
)


def random_node(rng, max_level=12):
    n = int(rng.integers(0, max_level + 1))
    return TreeNode(n, int(rng.integers(1, 2**n + 1)))


def random_condenser(rng, max_targets=8, max_drop=12):
    source = random_node(rng, 6)
    targets = []
    for _ in range(int(rng.integers(1, max_targets + 1))):
        node = source
        for _ in range(int(rng.integers(1, max_drop + 1))):
            node = node.child_plus() if rng.random() < 0.5 else child_minus(node)
        targets.append(node)
    return TreeCondenser(source, tuple(targets))


def descend(node, steps):
    for plus in steps:
        node = node.child_plus() if plus else child_minus(node)
    return node


@st.composite
def condensers(draw):
    """Sources from the root down past level 1000; targets may repeat or nest."""
    n = draw(st.sampled_from([0, 1, 7, 40, 1003]))
    source = TreeNode(n, draw(st.integers(1, 2**n)))
    targets = []
    for _ in range(draw(st.integers(1, 6))):
        if targets and draw(st.booleans()):
            # zero steps repeats a target, more nest one below it
            base = draw(st.sampled_from(targets))
            targets.append(descend(base, draw(st.lists(st.booleans(), max_size=8))))
        else:
            targets.append(descend(source, draw(st.lists(st.booleans(), min_size=1, max_size=12))))
    return TreeCondenser(source, tuple(targets))


class TestStructure:
    def test_children_of_root(self):
        kids = (ROOT.child_plus(), child_minus(ROOT))
        assert {(c.n, c.k) for c in kids} == {(1, 1), (1, 2)}
        assert all(parent(c) == ROOT for c in kids)

    @given(st.integers(0, 30), st.data())
    def test_parent_child_roundtrip(self, n, data):
        k = data.draw(st.integers(1, 2**n))
        node = TreeNode(n, k)
        assert parent(node.child_plus()) == node
        assert parent(child_minus(node)) == node

    def test_root_has_no_parent(self):
        with pytest.raises(DomainError):
            parent(ROOT)

    def test_invalid_index(self):
        with pytest.raises(DomainError):
            TreeNode(2, 5)

    @pytest.mark.parametrize("n", [0, 1, 5, 64, 3700])
    def test_index_range_edges(self, n):
        assert TreeNode(n, 1).k == 1
        assert TreeNode(n, 2**n).k == 2**n
        for k in (0, -1, 2**n + 1):
            with pytest.raises(DomainError):
                TreeNode(n, k)
        with pytest.raises(DomainError):
            TreeNode(-1, 1)

    def test_ancestor_and_is_below(self):
        node = TreeNode(6, 37)
        anc = ancestor_at(node, 3)
        assert node.is_below(anc)
        assert not anc.is_below(node)
        assert ancestor_at(node, 0) == ROOT

    def test_is_below_matches_ancestor_oracle(self):
        # a node's box contains itself, so every node is below itself
        rng = np.random.default_rng(12)
        for _ in range(200):
            a = random_node(rng, 12)
            for b in (random_node(rng, 12), ancestor_at(a, int(rng.integers(0, a.n + 1))), a):
                assert a.is_below(b) == (a.n >= b.n and ancestor_at(a, b.n) == b)

    def test_embedding_values(self):
        node = TreeNode(5, 3)
        p = node.embed()
        assert p.depth == 2.0**-5
        assert p.theta == pytest.approx(2.0 * math.pi * 3.0 / 32.0)

    def test_structural_box_containment(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            alpha = random_node(rng, 20)
            outer = box(alpha)
            assert geometry_oracle.contains_box(outer, box(child_minus(alpha)))
            assert geometry_oracle.contains_box(outer, box(alpha.child_plus()))

    def test_embedded_point_in_own_box(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            alpha = random_node(rng, 30)
            if alpha.n == 0:
                continue
            assert geometry_oracle.box_contains_point(box(alpha), alpha.embed())

    def test_lca(self):
        a = TreeNode(6, 5)
        b = TreeNode(7, 12)
        lca = tree._lca(a, b)
        assert a.is_below(lca) and b.is_below(lca)
        child_levels = [lca.n + 1]
        for lev in child_levels:
            deeper_a = ancestor_at(a, lev) if lev <= a.n else None
            deeper_b = ancestor_at(b, lev) if lev <= b.n else None
            if deeper_a is not None and deeper_b is not None:
                assert deeper_a != deeper_b


class TestCapacitySolvers:
    def test_single_path_series(self):
        source = TreeNode(3, 2)
        target = TreeNode(10, source.k * 2**7)
        cond = TreeCondenser(source, (target,))
        assert tree.tree_capacity_exact(cond) == pytest.approx(1.0 / 7.0, abs=1e-12)
        assert tree.tree_capacity_recursive(cond) == pytest.approx(1.0 / 7.0, abs=1e-12)

    def test_two_grandchildren_through_one_child(self):
        alpha = TreeNode(2, 1)
        beta = alpha.child_plus()
        cond = TreeCondenser(alpha, (beta.child_plus(), child_minus(beta)))
        assert tree.tree_capacity_exact(cond) == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert tree.tree_capacity_recursive(cond) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_parallel_law(self):
        alpha = TreeNode(1, 1)
        left = alpha.child_plus()
        right = child_minus(alpha)
        t1 = left.child_plus().child_plus()
        t2 = child_minus(right)
        joint = tree.tree_capacity_recursive(TreeCondenser(alpha, (t1, t2)))
        solo = tree.tree_capacity_recursive(
            TreeCondenser(alpha, (t1,))
        ) + tree.tree_capacity_recursive(TreeCondenser(alpha, (t2,)))
        assert joint == pytest.approx(solo, abs=1e-12)

    def test_series_law_rational(self):
        # depth a+b path equals folding 1/b across a more edges
        a, b = 4, 9
        source = TreeNode(0, 1)
        node = source
        for _ in range(a + b):
            node = child_minus(node)
        cap = tree.tree_capacity_recursive(TreeCondenser(source, (node,)))
        c_b = Fraction(1, b)
        folded = c_b / (1 + a * c_b)
        assert cap == pytest.approx(float(folded), abs=1e-14)

    def test_monotone_in_targets(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            cond = random_condenser(rng)
            extra = child_minus(cond.targets[0].child_plus())
            bigger = TreeCondenser(cond.source, cond.targets + (extra,))
            assert (
                tree.tree_capacity_recursive(bigger)
                >= tree.tree_capacity_recursive(cond) - 1e-12
            )

    def test_recursive_matches_exact_random(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            cond = random_condenser(rng)
            assert tree.path_union_size(cond) <= 500
            assert abs(
                tree.tree_capacity_recursive(cond) - tree.tree_capacity_exact(cond)
            ) <= 1e-10

    def test_compressed_solver_matches_dense(self):
        cond = CombSpec(tree.default_anchor(49)).condenser()
        assert abs(dense_capacity(cond) - tree.tree_capacity_exact(cond)) <= 1e-10

    @given(condensers())
    @example(TreeCondenser(ROOT, (TreeNode(3, 2),)))
    @example(TreeCondenser(ROOT, (TreeNode(2, 1), TreeNode(2, 1), TreeNode(4, 1), TreeNode(3, 8))))
    @example(TreeCondenser(TreeNode(1000, 5), (TreeNode(1004, 65), TreeNode(1009, 2085))))
    def test_virtual_tree_matches_full_path_union(self, cond):
        assert tree.path_union_size(cond) == path_union_size_walk(cond)
        exact = tree.tree_capacity_exact(cond)
        assert abs(exact - dense_capacity(cond)) <= 1e-10
        assert abs(exact - tree.tree_capacity_recursive(cond)) <= 1e-10

    def test_singular_factor_raises_numerical_error(self, monkeypatch):
        def singular(a):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
        cond = CombSpec(tree.default_anchor(4)).condenser()
        with pytest.raises(NumericalError, match="singular"):
            tree.tree_capacity_exact(cond)

    def test_target_above_source_rejected(self):
        with pytest.raises(DomainError):
            TreeCondenser(TreeNode(3, 1), (TreeNode(2, 1),))
        with pytest.raises(DomainError):
            TreeCondenser(TreeNode(3, 1), ())


class TestComb:
    def test_hand_recursion_n4(self):
        assert tree.comb_capacity_recursive(4) == pytest.approx(0.45 / 1.45, abs=1e-12)

    def test_closed_form_n4(self):
        assert tree.comb_capacity_closed_form(4) == pytest.approx(0.310345, abs=1e-5)

    def test_matrix_power_oracle_n100(self):
        # the fold is the Moebius action of M = [[1, 1/N], [1, 1+1/N]];
        # applying M^m to 0 reads off c0 as the quotient of the second column
        big_n, m = 100, 10
        mat = np.linalg.matrix_power(
            np.array([[1.0, 1.0 / big_n], [1.0, 1.0 + 1.0 / big_n]]), m
        )
        oracle = mat[0, 1] / mat[1, 1]
        c0 = tree.comb_capacity_recursive(big_n)
        assert c0 == pytest.approx(oracle, abs=1e-14)
        assert c0 * 10 == pytest.approx(0.73260, abs=1e-4)

    def test_closed_form_equals_recursion_everywhere(self):
        for m in range(2, 61):
            big_n = m * m
            assert abs(
                tree.comb_capacity_closed_form(big_n) - tree.comb_capacity_recursive(big_n)
            ) <= 1e-10

    def test_scaled_value_increasing_and_bounded(self):
        values = [tree.comb_capacity_recursive(m * m) * m for m in range(2, 61)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] <= tree.COMB_LIMIT + 1e-6

    @pytest.mark.parametrize(
        "capacity, m_max", [(tree.comb_capacity_closed_form, 16384), (tree.comb_capacity_recursive, 1024)]
    )
    def test_rate_of_approach_to_limit(self, capacity, m_max):
        # expanding the closed form, c0(N) sqrt(N) = tanh 1 - a / sqrt(N) + O(1/N)
        # with a = tanh^2(1) / 2, so the rate times sqrt(N) goes to -a like 1/sqrt(N)
        a = tree.COMB_LIMIT**2 / 2.0
        for m in range(2, m_max + 1):
            rate = (capacity(m * m) * m - tree.COMB_LIMIT) * m
            assert abs(rate + a) * m <= 0.02, m

    def test_spine_and_teeth_shape(self):
        spec = CombSpec(tree.default_anchor(16))
        assert len(spec.spine()) == 5
        teeth = spec.teeth()
        assert len(teeth) == 4
        assert all(t.n == 16 + i + 16 for i, t in enumerate(teeth, start=1))
        assert teeth == [descend(w, [False] * 16) for w in spec.spine()[1:]]

    def test_bad_sizes_rejected(self):
        with pytest.raises(DomainError):
            tree.comb_capacity_recursive(10)
        with pytest.raises(DomainError):
            tree.comb_capacity_closed_form(2)
        with pytest.raises(DomainError):
            CombSpec(TreeNode(10, 1))
        # the sweep names the comb size it was given, not the level it makes
        with pytest.raises(DomainError, match="comb size m must be at least 2, got 1"):
            tree.comb_sweep([2, 1])

    def test_lower_bound_check(self):
        report = comb_lower_bound_check([16, 25, 100])
        assert report["pass"]
        assert report["minimum"] >= 0.1

    def test_exact_solver_agrees_on_comb(self):
        cond = CombSpec(tree.default_anchor(4)).condenser()
        assert tree.tree_capacity_exact(cond) == pytest.approx(0.310345, abs=1e-6)

    def test_sweep_with_exact_up_to_n3600(self):
        rows = tree.comb_sweep(range(2, 61), with_exact=True)
        assert [row.big_n for row in rows] == [m * m for m in range(2, 61)]
        for row in rows:
            assert abs(row.exact_solver - row.c0) <= 1e-10
            assert abs(row.closed_form - row.c0) <= 1e-10


class TestDistanceCheck:
    def test_bounds_hold(self):
        report = tree.tree_disc_distance_check(60)
        assert report["pass"]

    def test_level_five_value(self):
        rec = tree.tree_disc_distance_check(5)["records"][-1]
        assert rec["d"] == pytest.approx(0.5 * math.log(63.0), abs=1e-10)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            tree.tree_disc_distance_check(61)


class TestScenario:
    def test_default_scenario_passes(self):
        report = tree.counterexample_scenario()
        assert report.passed
        assert report.weak_separation.params["metric_min"] > 0
        assert all(r["ratio"] <= 64.0 for r in report.mass_records)
        assert all(r["ratio"] >= 0.1 for r in report.tree_records)
        assert math.isfinite(report.teeth_cc.sup_ratio)

    def test_comb_disc_sequence_shape(self):
        spec = CombSpec(tree.default_anchor(16))
        seq = tree.comb_disc_sequence(spec)
        assert len(seq) == 5
        assert len(tree.comb_disc_sequence(spec, include_anchor=False)) == 4

    def test_too_deep_comb_rejected(self):
        with pytest.raises(InputError):
            tree.counterexample_scenario(m_list=(4, 5, 8))

    def test_more_than_four_combs_rejected(self):
        # a fifth anchor would be past the last node of its level
        with pytest.raises(InputError, match="at most four combs fit, one anchor per quadrant; got 5"):
            tree.counterexample_scenario(m_list=(4, 4, 4, 4, 4))

    @pytest.mark.parametrize("m_list", [(4, 5), (6, 4)])
    def test_overlapping_anchor_boxes_rejected(self, m_list):
        # at eta 0.05 a level-16 anchor's expanded arc is 0.57 of the circle,
        # so the quadrant-separated anchors' boxes meet
        with pytest.raises(InputError, match="anchor placement infeasible: expanded boxes overlap"):
            tree.counterexample_scenario(m_list, eta=0.05)

    def test_report_serializes(self):
        import json

        report = tree.counterexample_scenario(m_list=(4, 5))
        json.dumps(report.to_json())

    def test_sweep_csv(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        assert cli.main(["tree", "comb", "--m-min", "2", "--m-max", "4", "--exact", "--csv", str(path)]) == 0
        capsys.readouterr()
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["N", "c0", "c0_sqrtN", "closed_form", "exact_solver", "limit_gap"]
        expected = [
            [r.big_n, r.c0, r.c0_sqrt_n, r.closed_form, r.exact_solver, r.limit_gap]
            for r in tree.comb_sweep([2, 3, 4], with_exact=True)
        ]
        assert rows == [[repr(v) for v in row] for row in expected]
