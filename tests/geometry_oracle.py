"""Independent scalar references for the disc formulas.

One pair at a time in Python complex arithmetic, with the C library's
exp, log and hypot: the Dirichlet kernel and its metric, the Mobius map
and hyperbolic distance that `PointSet` evaluates over arrays, the
box containment that `boxes_contain` tests elementwise, the arc meeting
that `intersecting_arc_pairs` confirms, and the point in box test that
`check_carleson` makes over points x boxes.  None of them
calls `PointSet`, `boxes_contain` or the arc sweep.  Harmonic measure,
in closed form, is here too: the library has no caller for it, and the
tests hold `arc_mobius_image`'s length against it.
"""

import cmath
import math

from disclab.errors import InputError
from disclab.geometry import ORIGIN, TWO_PI, Arc, CarlesonBox, DiscPoint, _signed_angle, kernel_norm_sq

# |w*conj(z)| below which the kernel power series replaces the log formula
KERNEL_SERIES_CUTOFF = 1e-4


def one_minus_conj_prod(z: DiscPoint, w: DiscPoint) -> complex:
    """1 - conj(z)*w, evaluated without cancellation.

    conj(z)*w = (1-s_z)(1-s_w) e^{i(tw-tz)}; splitting off 1 - e^{i*delta}
    = -2i sin(delta/2) e^{i*delta/2} keeps full accuracy when both points
    are deep and nearly aligned.
    """
    delta = w.theta - z.theta
    s = z.depth + w.depth - z.depth * w.depth
    half = cmath.exp(0.5j * delta)
    return -2j * math.sin(0.5 * delta) * half + s * half * half


def diff(z: DiscPoint, w: DiscPoint) -> complex:
    """z - w as a complex number, stable for deep nearly-aligned points."""
    half = cmath.exp(0.5j * (z.theta + w.theta))
    rot = 2j * math.sin(0.5 * (z.theta - w.theta)) * half
    return rot + w.depth * cmath.exp(1j * w.theta) - z.depth * cmath.exp(1j * z.theta)


def mobius(z: DiscPoint, w: DiscPoint) -> DiscPoint:
    """The disc automorphism phi_z(w) = (z - w)/(1 - conj(z) w)."""
    num = diff(z, w)
    den = one_minus_conj_prod(z, w)
    rho = abs(num) / abs(den)
    if rho < 0.5:
        # the quotient keeps full relative accuracy near the origin
        if rho == 0.0:
            return ORIGIN
        return DiscPoint(cmath.phase(num / den), 1.0 - rho)
    # 1 - |phi|^2 = (1-|z|^2)(1-|w|^2)/|den|^2, cancellation-free near the
    # circle; divide factor by factor so extreme depths do not underflow
    a = abs(den)
    t = (z.depth * (2.0 - z.depth) / a) * (w.depth * (2.0 - w.depth) / a)
    t = min(max(t, 5e-324), 1.0)
    depth = t / (1.0 + math.sqrt(1.0 - t))
    return DiscPoint(cmath.phase(num / den), depth)


def kernel(w: DiscPoint, z: DiscPoint) -> complex:
    """Dirichlet reproducing kernel k(w, z) = log(1/(1 - w conj(z)))/(w conj(z))."""
    q = (1.0 - w.depth) * (1.0 - z.depth) * cmath.exp(1j * (w.theta - z.theta))
    if abs(q) < KERNEL_SERIES_CUTOFF:
        # sum q^n/(n+1); |q|<1e-4 makes 4 terms exact to machine precision
        return 1.0 + q * (0.5 + q * (1.0 / 3.0 + q * 0.25))
    return -cmath.log(one_minus_conj_prod(z, w)) / q


def dirichlet_metric(z: DiscPoint, w: DiscPoint) -> float:
    """d_D(z,w) = sqrt(1 - |<k_z,k_w>|^2 / (||k_z||^2 ||k_w||^2)), in [0, 1)."""
    if z == w:
        return 0.0
    g = abs(kernel(z, w)) ** 2 / (kernel_norm_sq(z) * kernel_norm_sq(w))
    return math.sqrt(max(0.0, 1.0 - min(g, 1.0)))


def hyperbolic_distance(z: DiscPoint, w: DiscPoint) -> float:
    """(1/2) log((1+rho)/(1-rho)) with rho = |phi_z(w)|."""
    m = mobius(z, w)
    return 0.5 * math.log((2.0 - m.depth) / m.depth)


def arcs_meet(a: Arc, b: Arc) -> bool:
    if a.is_full_circle() or b.is_full_circle():
        return True
    return abs(_signed_angle(b.center_angle - a.center_angle)) <= a.half_width + b.half_width


def contains_arc(outer: Arc, inner: Arc) -> bool:
    if outer.is_full_circle():
        return True
    if inner.is_full_circle():
        return False
    gap = abs(_signed_angle(inner.center_angle - outer.center_angle))
    return gap + inner.half_width <= outer.half_width * (1 + 1e-12) + 1e-14


def contains_box(outer: CarlesonBox, inner: CarlesonBox) -> bool:
    return (
        contains_arc(outer.base_arc, inner.base_arc)
        and outer.inner_radius <= inner.inner_radius * (1 + 1e-12)
    )


def box_contains_point(box: CarlesonBox, p: DiscPoint) -> bool:
    if p.r < box.inner_radius:
        return False
    arc = box.base_arc
    if arc.is_full_circle():
        return True
    # absolute slack covers rounding of endpoint angles near magnitude 2*pi
    return abs(_signed_angle(p.theta - arc.center_angle)) <= arc.half_width * (1 + 1e-15) + 1e-14


def _poisson_antiderivative(r: float, s: float) -> float:
    """Continuous antiderivative of the Poisson kernel (1-r^2)/|1-r e^{is}|^2.

    H(s) = s - 2 arg(1 - r e^{is}); the argument stays in (-pi/2, pi/2)
    because Re(1 - r e^{is}) >= 1-r > 0, so no branch surgery is needed.
    """
    return s + 2.0 * math.atan2(r * math.sin(s), 1.0 - r * math.cos(s))


def harmonic_measure(z: DiscPoint, arcs: list[Arc] | Arc) -> float:
    """omega(z, union of arcs, D): Poisson integral of the arc indicator at z.

    Additive over the (required pairwise disjoint) arcs; equals the total
    arc length at z = 0 and 1 for the full circle.
    """
    if isinstance(arcs, Arc):
        arcs = [arcs]
    for i in range(len(arcs)):
        for j in range(i + 1, len(arcs)):
            gap = abs(_signed_angle(arcs[j].center_angle - arcs[i].center_angle))
            if gap < arcs[i].half_width + arcs[j].half_width - 1e-14:
                raise InputError(f"overlapping arcs: {arcs[i]} and {arcs[j]}")
    r = 1.0 - z.depth
    total = 0.0
    for arc in arcs:
        if arc.is_full_circle():
            total += 1.0
            continue
        a = arc.start - z.theta
        b = arc.end - z.theta
        # shift by whole turns so the interval sits inside one period
        a = _signed_angle(a)
        b = a + 2.0 * arc.half_width
        total += (_poisson_antiderivative(r, b) - _poisson_antiderivative(r, a)) / TWO_PI
    return min(total, 1.0)
