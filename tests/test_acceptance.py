"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Each test computes its verdict first, prints a single summary line that
survives pytest capture, then asserts. Tolerances are pinned in-line.
"""

import itertools
import math
import time

import numpy as np
import pytest

import geometry_oracle
from disclab import capacity, geometry, sequences, tree
from disclab.geometry import ORIGIN, Arc, DiscPoint
from disclab.sequences import Sequence
from disclab.tree import CombSpec, TreeCondenser, TreeNode
from tree_oracle import child_minus, comb_lower_bound_check, dense_capacity

TANH_ONE = (math.e**2 - 1.0) / (math.e**2 + 1.0)


def announce(capsys, number, name, ok, detail):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"criterion {number:02d} {name}: {verdict} ({detail})")


def test_criterion_01_comb_limit_arithmetic(capsys):
    start = time.perf_counter()
    rows = tree.comb_sweep(range(2, 61))
    elapsed = time.perf_counter() - start
    by_n = {r.big_n: r.c0 for r in rows}
    scaled = [by_n[m * m] * m for m in range(2, 61)]
    ok = (
        abs(by_n[4] - 0.310346) <= 1e-3
        and abs(by_n[100] * 10.0 - 0.73260) <= 1e-3
        and abs(by_n[3600] * 60.0 - 0.75679) <= 1e-3
        and abs(scaled[-1] - TANH_ONE) <= 0.02
        and all(b > a for a, b in zip(scaled, scaled[1:]))
        and elapsed < 1.0
    )
    announce(
        capsys,
        1,
        "comb-limit-arithmetic",
        ok,
        f"c0(4)={by_n[4]:.6f}, c0*60={scaled[-1]:.5f}, "
        f"gap to tanh(1)={abs(scaled[-1] - TANH_ONE):.4f}, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_02_comb_lower_bound(capsys):
    start = time.perf_counter()
    report = comb_lower_bound_check([m * m for m in range(4, 61)])
    elapsed = time.perf_counter() - start
    ok = report["pass"] and report["minimum"] >= 0.1 and elapsed < 1.0
    announce(
        capsys,
        2,
        "comb-lower-bound",
        ok,
        f"min c0*sqrt(N)={report['minimum']:.5f} over N in [16, 3600], {elapsed:.2f}s",
    )
    assert ok


def test_criterion_03_recursion_vs_exact_solver(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = worst_dense = 0.0
    for _ in range(200):
        source = TreeNode(int(rng.integers(0, 7)), 1)
        source = TreeNode(source.n, int(rng.integers(1, 2**source.n + 1)))
        targets = []
        for _ in range(int(rng.integers(1, 9))):
            node = source
            for _ in range(int(rng.integers(1, 13))):
                node = node.child_plus() if rng.random() < 0.5 else child_minus(node)
            targets.append(node)
        cond = TreeCondenser(source, tuple(targets))
        assert tree.path_union_size(cond) <= 500
        exact = tree.tree_capacity_exact(cond)
        worst = max(worst, abs(tree.tree_capacity_recursive(cond) - exact))
        worst_dense = max(worst_dense, abs(dense_capacity(cond) - exact))
    for m in range(2, 11):
        cond = CombSpec(tree.default_anchor(m * m)).condenser()
        exact = tree.tree_capacity_exact(cond)
        worst = max(worst, abs(tree.tree_capacity_recursive(cond) - exact))
        worst_dense = max(worst_dense, abs(dense_capacity(cond) - exact))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and worst_dense <= 1e-10 and elapsed < 10.0
    announce(
        capsys,
        3,
        "recursion-vs-exact-solver",
        ok,
        f"worst |recursive - exact|={worst:.2e}, |dense - exact|={worst_dense:.2e} "
        f"on 200 random + 9 comb condensers, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_04_closed_form_vs_recursion(capsys):
    worst = max(
        abs(tree.comb_capacity_closed_form(m * m) - tree.comb_capacity_recursive(m * m))
        for m in range(2, 61)
    )
    ok = worst <= 1e-10
    announce(
        capsys,
        4,
        "closed-form-vs-recursion",
        ok,
        f"worst difference={worst:.2e} over all square N <= 3600",
    )
    assert ok


def test_criterion_05_tree_disc_distance(capsys):
    report = tree.tree_disc_distance_check(60)
    ok = report["pass"] and len(report["records"]) == 60
    margin = min(
        min(r["d"] - r["lower"] for r in report["records"]),
        min(r["upper"] - r["d"] for r in report["records"]),
    )
    announce(
        capsys,
        5,
        "tree-disc-distance",
        ok,
        f"(log2/2)n <= d <= 2n holds for n=1..60, slack min={margin:.4f}",
    )
    assert ok


def test_criterion_06_harmonic_measure_quadrature(capsys):
    from quadrature_oracle import adaptive_integrate

    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        z = DiscPoint(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.05, 0.9))
        arc = Arc(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.01, 0.6))
        r, phi = z.r, z.theta
        def poisson(t):
            return (1.0 - r * r) / (
                1.0 - 2.0 * r * math.cos(t - phi) + r * r
            ) / (2.0 * math.pi)
        lo = arc.center_angle - arc.half_width
        quad = adaptive_integrate(poisson, lo, lo + 2.0 * arc.half_width, tol=1e-12)
        worst = max(worst, abs(geometry_oracle.harmonic_measure(z, arc) - quad))
    origin_err = max(
        abs(geometry_oracle.harmonic_measure(ORIGIN, Arc(a, ell)) - ell)
        for a, ell in [(0.3, 0.1), (2.0, 0.45), (5.0, 0.999)]
    )
    total_err = max(
        abs(geometry_oracle.harmonic_measure(DiscPoint(t, d), Arc(0.0, 1.0)) - 1.0)
        for t, d in [(0.0, 0.5), (1.0, 0.05), (4.0, 0.9)]
    )
    ok = worst <= 1e-8 and origin_err <= 1e-12 and total_err <= 1e-12
    announce(
        capsys,
        6,
        "harmonic-measure-quadrature",
        ok,
        f"max |closed form - quadrature|={worst:.2e} on 100 pairs, "
        f"origin err={origin_err:.1e}, total err={total_err:.1e}",
    )
    assert ok


def test_criterion_07_condenser_comparability(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 1.0
    for _ in range(50):
        z = DiscPoint(rng.uniform(0, 2 * math.pi), 2.0 ** rng.uniform(-4.5, -3.0))
        points = []
        for _ in range(int(rng.integers(1, 4))):
            depth = 2.0 ** rng.uniform(-6.0, math.log2(z.depth / 2.0))
            theta = z.theta + rng.uniform(0.6, 1.5) * rng.choice([-1.0, 1.0])
            points.append(DiscPoint(theta, depth))
        caps = capacity.three_condenser_capacities(z, points, (128, 256))
        worst = max(worst, max(a / b for a, b in itertools.permutations(caps, 2)))
    elapsed = time.perf_counter() - start
    ok = worst <= 64.0 and elapsed < 300.0
    announce(
        capsys,
        7,
        "condenser-comparability",
        ok,
        f"max pairwise ratio={worst:.2f} (budget 64) over 50 configurations, "
        f"{elapsed:.0f}s at 128x256",
    )
    assert ok


def test_criterion_08_annulus_benchmark(capsys):
    inner_r = 0.3
    plates = geometry.HyperbolicDisc(ORIGIN, math.atanh(inner_r)), [Arc(0.0, 1.0)]
    exact = 2.0 * math.pi / math.log(1.0 / inner_r)
    coarse = capacity.grid_condenser_capacity(*plates, (48, 96)).energy
    fine = capacity.grid_condenser_capacity(*plates, (96, 192)).energy
    rel = abs(fine - exact) / exact
    ok = rel < 0.15 and abs(fine - exact) <= abs(coarse - exact)
    announce(
        capsys,
        8,
        "annulus-benchmark",
        ok,
        f"relative error {rel:.3f} at (96,192), improving from "
        f"{abs(coarse - exact) / exact:.3f} at (48,96)",
    )
    assert ok


def test_criterion_09_equilibrium_potential_level(capsys):
    rng = np.random.default_rng(9)
    worst_min = 1.0
    for _ in range(10):
        depth = rng.uniform(0.005, 0.03)
        w = DiscPoint(rng.uniform(0.0, 2.0 * math.pi), depth)
        assert geometry_oracle.hyperbolic_distance(ORIGIN, w) > 2.0
        pot = capacity.grid_condenser_capacity(
            geometry.unit_hyperbolic_disc(ORIGIN), [geometry.unit_hyperbolic_disc(w)], (128, 384)
        )
        grid = pot.grid
        x = grid.node_r * np.exp(1j * grid.node_t)
        rho_w = np.abs(x - w.z) / np.abs(1.0 - np.conj(w.z) * x)
        # boundary-ring nodes are at pseudo-hyperbolic distance 1 from both
        # w and 0; the comparison is undefined there, so keep interior nodes
        nearer_w = (rho_w < grid.node_r) & (grid.node_r < 1.0)
        worst_min = min(worst_min, float(pot.values[nearer_w].min()))
    ok = worst_min >= 0.45
    announce(
        capsys,
        9,
        "equilibrium-potential-level",
        ok,
        f"min potential on the near-w half={worst_min:.3f} (need >= 0.45), 10 samples",
    )
    assert ok


def test_criterion_10_cc_checker_soundness(capsys):
    boxes = sequences.disjoint_boxes(15, seed=1)
    zero_sup = sequences.check_capacitary_condition(boxes, 0.75).sup_ratio
    sups = []
    for m in (4, 6, 8, 10):
        seq = tree.comb_disc_sequence(CombSpec(TreeNode(m * m, 1)))
        sups.append(sequences.check_capacitary_condition(seq, 0.75).sup_ratio)
    ok = zero_sup == 0.0 and all(b > a for a, b in zip(sups, sups[1:])) and sups[0] > 0
    announce(
        capsys,
        10,
        "cc-checker-soundness",
        ok,
        f"disjoint boxes sup=0, comb teeth sup ratios "
        f"{', '.join(f'{s:.2f}' for s in sups)} increasing over m=4,6,8,10",
    )
    assert ok


def test_criterion_11_counterexample_scenario(capsys):
    start = time.perf_counter()
    report = tree.counterexample_scenario()
    elapsed = time.perf_counter() - start
    min_sep = report.weak_separation.params["metric_min"]
    mass_worst = max(r["ratio"] for r in report.mass_records)
    tree_worst = min(r["ratio"] for r in report.tree_records)
    ok = (
        report.passed
        and min_sep > 0.0
        and mass_worst <= 64.0
        and tree_worst >= 0.1
        and elapsed < 60.0
    )
    announce(
        capsys,
        11,
        "counterexample-scenario",
        ok,
        f"min d_D={min_sep:.3f}, max mass ratio={mass_worst:.3f} (<= 64), "
        f"min tree ratio={tree_worst:.3f} (>= 0.1), {elapsed:.1f}s",
    )
    assert ok


def test_criterion_12_sobolev_interpolant(capsys):
    seq = sequences.disjoint_boxes(20, seed=7)
    assert sequences.check_capacitary_condition(seq, 0.75).sup_ratio == 0.0
    rng = np.random.default_rng(12)
    data = rng.normal(size=(10, len(seq)))
    data /= np.linalg.norm(data, axis=1, keepdims=True)
    constants = []
    for resolution in ((64, 256), (96, 384)):
        blocks = sequences._build_blocks(seq, 0.75, resolution)
        energies = [
            sequences.assemble_sobolev_interpolant(seq, a, blocks=blocks)[1]
            for a in data
        ]
        constants.append(max(energies))
    ratio = max(constants) / min(constants)
    ok = all(math.isfinite(c) and c > 0 for c in constants) and ratio < 2.0
    announce(
        capsys,
        12,
        "sobolev-interpolant",
        ok,
        f"energy constant C={constants[0]:.1f} at (64,256), {constants[1]:.1f} at "
        f"(96,384), refinement ratio {ratio:.2f} < 2",
    )
    assert ok
