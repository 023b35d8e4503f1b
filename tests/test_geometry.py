import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import geometry_oracle
import sequence_oracle
from conftest import arc_lengths, angles, disc_points
from disclab import geometry
from disclab.errors import DomainError, InputError
from disclab.geometry import ORIGIN, Arc, CarlesonBox, DiscPoint, PointSet
from quadrature_oracle import adaptive_integrate


def one(p: DiscPoint) -> PointSet:
    return PointSet.from_points([p])


def mobius(z: DiscPoint, w: DiscPoint) -> DiscPoint:
    """phi_z(w) for one pair, through PointSet."""
    (image,) = one(z).mobius(one(w)).points()
    return image


def hyperbolic_distance(z: DiscPoint, w: DiscPoint) -> float:
    return float(one(z).hyperbolic_distance(one(w))[0])


class TestDiscPoint:
    def test_constructors_agree(self):
        p = DiscPoint.from_xy(0.3, 0.4)
        q = DiscPoint.from_polar(0.5, math.atan2(0.4, 0.3))
        assert p.r == pytest.approx(q.r)
        assert p.theta == pytest.approx(q.theta)

    def test_outside_disc_rejected(self):
        with pytest.raises(DomainError):
            DiscPoint.from_xy(1.0, 0.0)
        with pytest.raises(DomainError):
            DiscPoint.from_polar(1.2, 0.0)

    @given(disc_points(min_depth=1e-300))
    @example(DiscPoint(1.0, 1e-20))
    @example(DiscPoint(1.0, 0.3))
    def test_json_roundtrip(self, p):
        # the depth form is exact, where r = 1 - depth would put depth 1e-20
        # on the circle and read depth 0.3 back as 0.30000000000000004
        q = geometry.point_from_json(json.loads(json.dumps({"theta": p.theta, "depth": p.depth})))
        assert (q.theta, q.depth) == (p.theta, p.depth)

    def test_json_accepts_xy_form(self):
        p = geometry.point_from_json({"re": 0.3, "im": 0.4})
        assert p.r == pytest.approx(0.5)


class TestMobius:
    def test_hand_value(self):
        z = DiscPoint.from_xy(0.5, 0.0)
        w = DiscPoint.from_xy(0.25, 0.0)
        assert mobius(z, w).z == pytest.approx(0.25 / 0.875)

    @given(disc_points(min_depth=1e-2), disc_points(min_depth=1e-2))
    def test_involution(self, z, w):
        back = mobius(z, mobius(z, w))
        assert abs(back.z - w.z) < 1e-12

    @given(disc_points(min_depth=1e-6), disc_points(min_depth=1e-6))
    def test_involution_deep(self, z, w):
        # the map's derivative grows like 1/depth near the circle
        back = mobius(z, mobius(z, w))
        assert abs(back.z - w.z) < 1e-12 / min(z.depth, w.depth, 0.5)

    @given(disc_points())
    def test_fixed_points(self, z):
        assert mobius(z, z).is_origin()
        assert mobius(z, ORIGIN).z == pytest.approx(z.z, abs=1e-15)


class TestKernel:
    def test_at_origin(self):
        z = DiscPoint.from_xy(0.3, -0.2)
        assert one(ORIGIN).kernel(one(z))[0] == pytest.approx(1.0)

    def test_half_half(self):
        z = DiscPoint.from_xy(0.5, 0.0)
        assert one(z).kernel(one(z))[0].real == pytest.approx(4.0 * math.log(4.0 / 3.0), abs=1e-12)

    @given(disc_points(min_depth=1e-3), disc_points(min_depth=1e-3))
    def test_hermitian(self, z, w):
        a = one(w).kernel(one(z))[0]
        b = one(z).kernel(one(w))[0]
        assert abs(a - b.conjugate()) < 1e-10 * max(1.0, abs(a))

    def test_gram_positive_semidefinite(self):
        rng = np.random.default_rng(11)
        pts = PointSet.from_points(
            [DiscPoint(rng.uniform(0, 2 * math.pi), rng.uniform(0.05, 0.9)) for _ in range(8)]
        )
        gram = pts[:, None].kernel(pts)
        eigs = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
        assert eigs.min() >= -1e-9

    def test_norm_values(self):
        assert geometry.kernel_norm_sq(ORIGIN) == pytest.approx(1.0)
        deep = DiscPoint(0.0, 2.0**-5)
        assert geometry.kernel_norm_sq(deep) == pytest.approx(2.9708, abs=1e-3)
        assert geometry.kernel_norm_sq(DiscPoint(0.0, 0.1)) < geometry.kernel_norm_sq(
            DiscPoint(0.0, 0.01)
        )

    def test_norm_matches_power_series(self):
        z = DiscPoint(1.0, 0.25)
        x = z.r**2
        series = sum(x**n / (n + 1) for n in range(200))
        assert geometry.kernel_norm_sq(z) == pytest.approx(series, rel=1e-12)


class TestDirichletMetric:
    def test_zero_iff_equal(self):
        z = DiscPoint(0.7, 0.3)
        assert one(z).dirichlet_metric(one(z))[0] == 0.0
        w = DiscPoint(0.7, 0.31)
        assert one(z).dirichlet_metric(one(w))[0] > 0.0

    def test_origin_to_deep(self):
        deep = DiscPoint(0.0, 2.0**-5)
        expected = math.sqrt(1.0 - 1.0 / geometry.kernel_norm_sq(deep))
        assert one(ORIGIN).dirichlet_metric(one(deep))[0] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.8145, abs=1e-3)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(5)
        triples = [
            [DiscPoint(rng.uniform(0, 2 * math.pi), rng.uniform(1e-3, 1.0)) for _ in range(3)]
            for _ in range(300)
        ]
        a, b, c = (PointSet.from_points(corner) for corner in zip(*triples))
        assert np.all(a.dirichlet_metric(c) <= a.dirichlet_metric(b) + b.dirichlet_metric(c) + 1e-12)

    @given(disc_points(min_depth=1e-4), disc_points(min_depth=1e-4))
    def test_symmetric(self, z, w):
        assert one(z).dirichlet_metric(one(w))[0] == pytest.approx(
            one(w).dirichlet_metric(one(z))[0], abs=1e-12
        )


class TestHyperbolicDistance:
    def test_closed_form(self):
        deep = DiscPoint(0.0, 2.0**-5)
        assert hyperbolic_distance(ORIGIN, deep) == pytest.approx(
            0.5 * math.log(63.0), abs=1e-12
        )

    @given(disc_points(min_depth=1e-4), disc_points(min_depth=1e-4))
    def test_symmetric(self, z, w):
        d1 = hyperbolic_distance(z, w)
        d2 = hyperbolic_distance(w, z)
        assert d1 == pytest.approx(d2, rel=1e-10, abs=1e-12)

    def test_very_deep_points_finite(self):
        a = DiscPoint(0.0, 2.0**-500)
        b = DiscPoint(0.0, 2.0**-900)
        d = hyperbolic_distance(a, b)
        assert 100.0 < d < 400.0


class TestArcs:
    def test_boundary_arc(self):
        z = DiscPoint(0.0, 0.5)
        arc = geometry.boundary_arc(z)
        assert arc.center_angle == 0.0
        assert arc.length == 0.5
        with pytest.raises(DomainError):
            geometry.boundary_arc(ORIGIN)

    def test_merge_overlapping(self):
        merged = geometry.merge_arcs([Arc(0.0, 0.2), Arc(0.3, 0.2)])
        assert len(merged) == 1
        # hull spans the center gap plus one half-width on each side
        expected = (0.3 + 2.0 * math.pi * 0.2) / (2.0 * math.pi)
        assert merged[0].length == pytest.approx(expected, abs=1e-12)

    def test_merge_keeps_disjoint(self):
        merged = geometry.merge_arcs([Arc(0.0, 0.1), Arc(math.pi, 0.1)])
        assert len(merged) == 2

    def test_merge_preserves_tiny_arcs(self):
        tiny = [Arc(1.0, 2.0**-60), Arc(1.5, 2.0**-70)]
        merged = geometry.merge_arcs(tiny)
        assert sorted(a.length for a in merged) == sorted(a.length for a in tiny)

    def test_merge_wraparound(self):
        merged = geometry.merge_arcs([Arc(0.05, 0.1), Arc(-0.05, 0.1)])
        assert len(merged) == 1

    def test_merge_full_circle(self):
        arcs = [Arc(k * math.pi / 2, 0.3) for k in range(4)]
        merged = geometry.merge_arcs(arcs)
        assert len(merged) == 1 and merged[0].is_full_circle()


class TestBoxes:
    def test_expanded_contains_plain(self):
        z = DiscPoint(1.0, 0.1)
        assert geometry_oracle.contains_box(geometry.expanded_box(z, 0.75), geometry.carleson_box(z))

    @given(disc_points(min_depth=1e-5, max_depth=0.5), st.floats(0.1, 0.9))
    def test_expanded_box_grows_with_smaller_eta(self, z, eta):
        wide = geometry.expanded_box(z, eta * 0.5)
        narrow = geometry.expanded_box(z, eta)
        assert wide.base_arc.length >= narrow.base_arc.length


class TestHarmonicMeasure:
    def test_at_origin_equals_length(self):
        assert geometry_oracle.harmonic_measure(ORIGIN, Arc(1.0, 0.25)) == pytest.approx(0.25, abs=1e-14)

    def test_full_circle(self):
        z = DiscPoint(2.0, 0.3)
        assert geometry_oracle.harmonic_measure(z, Arc(0.0, 1.0)) == pytest.approx(1.0, abs=1e-14)

    def test_additive_over_disjoint(self):
        z = DiscPoint(0.4, 0.5)
        a, b = Arc(0.0, 0.1), Arc(math.pi, 0.15)
        total = geometry_oracle.harmonic_measure(z, [a, b])
        assert total == pytest.approx(
            geometry_oracle.harmonic_measure(z, a) + geometry_oracle.harmonic_measure(z, b), abs=1e-13
        )

    def test_overlapping_arcs_rejected(self):
        with pytest.raises(InputError):
            geometry_oracle.harmonic_measure(ORIGIN, [Arc(0.0, 0.3), Arc(0.1, 0.3)])

    def test_matches_quadrature(self):
        z = DiscPoint(0.0, 0.5)
        arc = Arc(0.0, 0.25)
        r = z.r

        def poisson(t):
            return (1 - r * r) / abs(1 - r * cmath.exp(-1j * t)) ** 2 / (2 * math.pi)

        quad = adaptive_integrate(poisson, arc.start, arc.end, tol=1e-12)
        assert geometry_oracle.harmonic_measure(z, arc) == pytest.approx(quad, abs=1e-10)

    def test_conformal_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            z = DiscPoint(rng.uniform(0, 2 * math.pi), rng.uniform(0.05, 0.95))
            arc = Arc(rng.uniform(0, 2 * math.pi), rng.uniform(0.01, 0.4))
            image = geometry.arc_mobius_image(z, arc)
            assert geometry_oracle.harmonic_measure(z, arc) == pytest.approx(image.length, abs=1e-10)

    @pytest.mark.parametrize("length", [1e-17, 1e-18])
    def test_sub_resolution_arc_image(self, length):
        # both endpoints of the arc round to its center angle; the image is
        # the arc at phi_z(e^{ic}) scaled by |phi_z'(e^{ic})| = (1-|z|^2)/|e^{ic} - z|^2
        z = DiscPoint(0.0, 0.5)
        arc = Arc(1.0, length)
        assert arc.start == arc.end
        image = geometry.arc_mobius_image(z, arc)
        zeta = cmath.exp(1j)
        assert image.length == pytest.approx(length * 0.75 / abs(zeta - 0.5) ** 2, rel=1e-14)
        assert image.length / length == pytest.approx(1.05679, abs=1e-5)
        want = cmath.phase((0.5 - zeta) / (1.0 - 0.5 * zeta)) % (2.0 * math.pi)
        assert image.center_angle == pytest.approx(want, abs=1e-15)

    def test_reversed_endpoint_images(self):
        # the endpoint images differ by -8.3e-17, so their span wraps to the
        # whole circle; the image is 1.2834723241355027e-22 long (mpmath, 60 digits)
        z = DiscPoint(0.17793774164533058, 9.868842363928766e-08)
        image = geometry.arc_mobius_image(z, Arc(4.066411630084061, 2.2548729330228962e-15))
        assert image.length == pytest.approx(1.2834723241355027e-22, rel=1e-5)

    def test_image_length_matches_mpmath(self):
        # the endpoint images, or the derivative one, against both endpoint
        # images at 60 digits; depths from 1e-8, where 60 digits hold z exactly
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(1)
        with mpmath.workdps(60):
            for _ in range(1000):
                z = DiscPoint(rng.uniform(0, 2 * math.pi), math.exp(rng.uniform(math.log(1e-8), 0.0)))
                arc = Arc(rng.uniform(0, 2 * math.pi), math.exp(rng.uniform(math.log(1e-18), math.log(0.3))))
                zz = (1 - mpmath.mpf(z.depth)) * mpmath.expj(z.theta)

                def angle(t):
                    zeta = mpmath.expj(t)
                    return mpmath.arg((zz - zeta) / (1 - mpmath.conj(zz) * zeta))

                half = mpmath.pi * mpmath.mpf(arc.length)
                c = mpmath.mpf(arc.center_angle)
                exact = ((angle(c + half) - angle(c - half)) % (2 * mpmath.pi)) / (2 * mpmath.pi)
                assert abs(geometry.arc_mobius_image(z, arc).length / exact - 1) <= 1e-5

    def test_no_tiny_arc_becomes_the_circle(self):
        rng = np.random.default_rng(0)
        for _ in range(20000):
            z = DiscPoint(rng.uniform(0, 2 * math.pi), math.exp(rng.uniform(math.log(1e-8), 0.0)))
            arc = Arc(rng.uniform(0, 2 * math.pi), math.exp(rng.uniform(math.log(1e-18), math.log(1e-13))))
            assert geometry.arc_mobius_image(z, arc).length <= 0.5

    def test_comparable_to_image_arc_of_deep_point(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            z = DiscPoint(rng.uniform(0, 2 * math.pi), rng.uniform(0.05, 0.5))
            w = DiscPoint(
                z.theta + rng.uniform(-0.5, 0.5), rng.uniform(1e-4, z.depth / 2.0)
            )
            hm = geometry_oracle.harmonic_measure(z, geometry.boundary_arc(w))
            image_len = geometry.boundary_arc(mobius(z, w)).length
            assert 1.0 / 64.0 <= hm / image_len <= 64.0


# Agreement of PointSet with the scalar oracle, in units of the
# spacing of the larger magnitude; numpy's exp, log, hypot and atan2 are
# not the C library's, and the worst seen over 10^5 pairs is 8.
ULPS = 16


def near(actual, expected, scale=None):
    if actual == expected:  # infinities included
        return True
    scale = max(abs(actual), abs(expected)) if scale is None else scale
    return abs(actual - expected) <= ULPS * np.spacing(scale)


def mobius_partner(z, u):
    """The point w with phi_z(w) = u, so rho(z, w) = |u|."""
    return geometry_oracle.mobius(z, u)


# depths down to 1e-300, and near the origin, where |w conj(z)| falls on
# both sides of the kernel's series cutoff 1e-4
pair_points = st.one_of(disc_points(min_depth=1e-300), disc_points(min_depth=0.98))


class TestPointSetMatchesScalar:
    @given(st.lists(pair_points, min_size=1, max_size=6), st.lists(disc_points(min_depth=0.3), max_size=3))
    @example([DiscPoint(1.0, 0.99), DiscPoint(4.0, 0.98999)], [])  # |q| just above 1e-4
    @example([DiscPoint(1.0, 0.99), DiscPoint(4.0, 0.99001)], [])  # |q| just below
    @example([DiscPoint(0.3, 1e-300), DiscPoint(0.3, 2e-300), DiscPoint(3.0, 1e-300)], [])
    @example([DiscPoint(2.0, 0.1), DiscPoint(2.0, 0.1), ORIGIN], [DiscPoint(0.5, 0.5)])
    def test_pairwise_functions(self, points, offsets):
        # partners at |phi_z(w)| = 1 - depth(u) put rho on both sides of 0.5
        points = points + [mobius_partner(points[0], u) for u in offsets]
        pts = PointSet.from_points(points)
        rows, cols = pts[:, None], pts
        omcp = rows.one_minus_conj_prod(cols)
        diff = rows._diff(cols)
        kern = rows.kernel(cols)
        metric = rows.dirichlet_metric(cols)
        for i, z in enumerate(points):
            assert pts.norm_sq[i] == geometry.kernel_norm_sq(z)
            for j, w in enumerate(points):
                expected = geometry_oracle.one_minus_conj_prod(z, w)
                assert near(omcp[i, j], expected)
                assert near(diff[i, j], geometry_oracle.diff(z, w))
                assert near(kern[i, j], geometry_oracle.kernel(z, w))
                # the metric is sqrt(1 - g), so compare 1 - g
                assert near(metric[i, j] ** 2, geometry_oracle.dirichlet_metric(z, w) ** 2, scale=1.0)
                try:
                    image = geometry_oracle.mobius(z, w)
                except DomainError:  # the scalar map's depth clamp left the disc
                    with pytest.raises(DomainError):
                        pts[i].mobius(pts[j])
                    continue
                got = pts[i].mobius(pts[j])
                assert near(got.depth, image.depth)
                assert near(geometry._signed_angle(got.theta - image.theta), 0.0, scale=geometry.TWO_PI)
                dist = geometry_oracle.hyperbolic_distance(z, w)
                assert near(pts[i].hyperbolic_distance(pts[j]), dist, scale=max(dist, 1.0))

    def test_mobius_depth_underflow_raises(self):
        # far apart at depth 1e-300 the image depth underflows past the clamp
        pts = PointSet.from_points([DiscPoint(0.0, 1e-300), DiscPoint(3.0, 1e-300)])
        with pytest.raises(DomainError) as scalar:
            geometry_oracle.mobius(DiscPoint(0.0, 1e-300), DiscPoint(3.0, 1e-300))
        with pytest.raises(DomainError, match="not in open disc") as array:
            pts[:1].mobius(pts[1:])
        assert str(array.value) == str(scalar.value)


class TestBoxesContain:
    @given(angles(), arc_lengths(1e-9, 1.0), angles(), arc_lengths(1e-9, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @example(1.0, 0.9 - 5e-13, 1.0, 0.9, 0.1 + 5e-13, 0.1)  # arc inside, inner radius just too large
    @example(1.0, 1.0, 4.0, 0.3, 0.0, 0.7)  # a full outer arc
    @example(1.0, 1.0 - 1e-13, 1.0, 1.0, 0.0, 0.0)  # a full inner arc in a nearly full one
    def test_matches_scalar(self, outer_center, outer_length, center, length, outer_radius, radius):
        outer = CarlesonBox(Arc(outer_center, outer_length), outer_radius)
        inner = CarlesonBox(Arc(center, length), radius)
        got = geometry.boxes_contain(
            outer.base_arc.center_angle, outer_length, outer_radius, inner.base_arc.center_angle, length, radius
        )
        assert bool(got) == geometry_oracle.contains_box(outer, inner)


def touching(arc, length, side=1.0):
    """An arc of the given length whose center sits hw_a + hw_b away from arc's."""
    return Arc(arc.center_angle + side * (arc.half_width + math.pi * length), length)


_a = Arc(1.0, 0.1)
_b = touching(_a, 0.05)
# end to end, but 5.6e-17 apart in the float test, so they do not meet
_c = Arc(1.0, 0.02**0.75)
_d = touching(_c, 0.005**0.75)
_e = Arc(1.0, 0.03)
_tiny = Arc(_e.start, 1e-20)  # starts where _e starts, yet misses it in the float test
# one union of length 0.975, leaving out (1.85 pi, 1.9 pi)
_f, _g, _h = Arc(0.0, 0.10), Arc(0.9 * math.pi, 0.86), Arc(1.8 * math.pi, 0.05)


class TestArcSweepMatchesOracle:
    @given(st.lists(st.builds(Arc, angles(), arc_lengths(1e-12, 0.5)), max_size=12))
    @example([Arc(0.05, 0.05), Arc(2.0 * math.pi - 0.05, 0.05), Arc(3.0, 0.01)])  # across 0
    @example([_a, _b, touching(_b, 0.2), touching(_a, 0.01, -1.0)])  # touching chains
    @example([_c, _d, Arc(4.0, 0.01)])
    @example([_e, _tiny, Arc(_e.start + 1e-15, 1e-20)])  # thin overlaps at an endpoint
    @example([Arc(0.3, 0.01), Arc(2.0, 1.0), Arc(4.0, 0.2)])  # one full circle
    @example([Arc(0.0, 0.4), Arc(2.0, 0.4), Arc(4.0, 0.4)])  # a ring of overlaps
    # a chain reaching more than pi round from its first arc, in every order
    @example([_f, _g, _h])
    @example([_f, _h, _g])
    @example([_g, _f, _h])
    @example([_g, _h, _f])
    @example([_h, _f, _g])
    @example([_h, _g, _f])
    def test_merge_and_pairs(self, arcs):
        merged = geometry.merge_arcs(arcs)
        expected = sequence_oracle.merge_arcs(arcs)
        assert len(merged) == len(expected)
        for got, want in zip(merged, expected):
            assert abs(geometry._signed_angle(got.center_angle - want.center_angle)) <= 1e-12
            assert got.length == pytest.approx(want.length, rel=1e-12, abs=1e-12)
        center = np.array([a.center_angle for a in arcs])
        half = np.array([a.half_width for a in arcs])
        i, j = geometry.intersecting_arc_pairs(center, half)
        pairs = [
            (a, b) for a in range(len(arcs)) for b in range(a + 1, len(arcs)) if geometry_oracle.arcs_meet(arcs[a], arcs[b])
        ]
        assert list(zip(i.tolist(), j.tolist())) == pairs
