"""Exact formulas of the unit disc.

Mobius automorphisms, the Dirichlet reproducing kernel and its induced
metric, hyperbolic distance, boundary arcs and Carleson boxes.
Everything here is a pure function of its inputs.

Points are stored as (theta, depth) with depth = 1 - |z|.  This keeps
points that are exponentially close to the boundary (depth ~ 2^-800)
representable, which cartesian coordinates cannot do; all pairwise
formulas route through a cancellation-free evaluation of 1 - w*conj(z).
PointSet holds points as arrays and is the one implementation of the
pairwise formulas, a single pair included.  Box containment has one
elementwise test, boxes_contain, and arc meeting one sweep,
intersecting_arc_pairs, over whose pairs arc unions are grouped.
point_from_json and arc_from_json parse the input forms of points and
arcs; of the point forms only {"theta", "depth"} is exact for deep points.
number_from_json reads every number of those forms and of the condenser
specs, and refuses a boolean and an integer beyond float range.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError

TWO_PI = 2.0 * math.pi

# |w*conj(z)| below which the kernel power series replaces the log formula
_KERNEL_SERIES_CUTOFF = 1e-4

# Angular slack of the arc sweeps: far above the rounding of angle sums
# below 6*pi (~1e-15), so no pair the exact test accepts is missed.
_SWEEP_SLACK = 1e-12


def _wrap_angle(t: float) -> float:
    """Reduce an angle to [0, 2*pi)."""
    t = math.fmod(t, TWO_PI)
    return t + TWO_PI if t < 0 else t


def _signed_angle(t: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    t = math.fmod(t, TWO_PI)
    if t > math.pi:
        t -= TWO_PI
    elif t <= -math.pi:
        t += TWO_PI
    return t


def _wrap_angles(t: np.ndarray) -> np.ndarray:
    """_wrap_angle elementwise."""
    t = np.fmod(t, TWO_PI)
    return np.where(t < 0, t + TWO_PI, t)


def _signed_angles(t: np.ndarray) -> np.ndarray:
    """_signed_angle elementwise."""
    t = np.fmod(t, TWO_PI)
    return np.where(t > math.pi, t - TWO_PI, np.where(t <= -math.pi, t + TWO_PI, t))


@dataclass(frozen=True)
class DiscPoint:
    """A point of the open unit disc, stored as angle and boundary depth.

    depth = 1 - |z| must lie in (0, 1]; depth == 1 is the origin.
    """

    theta: float
    depth: float

    def __post_init__(self):
        if not (0.0 < self.depth <= 1.0) or not math.isfinite(self.theta):
            raise DomainError(f"point not in open disc: theta={self.theta}, depth={self.depth}")
        object.__setattr__(self, "theta", _wrap_angle(self.theta))

    @classmethod
    def from_xy(cls, re: float, im: float) -> "DiscPoint":
        rsq = re * re + im * im
        if rsq >= 1.0:
            raise DomainError(f"point on or outside the unit circle: {re}+{im}j")
        r = math.sqrt(rsq)
        return cls(math.atan2(im, re) if r > 0 else 0.0, 1.0 - r)

    @classmethod
    def from_polar(cls, r: float, theta: float) -> "DiscPoint":
        if not (0.0 <= r < 1.0):
            raise DomainError(f"radius out of [0,1): {r}")
        return cls(theta if r > 0 else 0.0, 1.0 - r)

    @property
    def r(self) -> float:
        return 1.0 - self.depth

    @property
    def z(self) -> complex:
        return complex(self.r * math.cos(self.theta), self.r * math.sin(self.theta))

    def is_origin(self) -> bool:
        return self.depth == 1.0


ORIGIN = DiscPoint(0.0, 1.0)


@dataclass(frozen=True, eq=False)
class PointSet:
    """Points of the open disc as theta and depth arrays.

    The arrays broadcast against each other and against another
    PointSet's, so ``pts[rows, None].kernel(pts)`` evaluates a block of
    pairs.  The methods are the library's only implementation of the
    pairwise formulas.
    """

    theta: np.ndarray
    depth: np.ndarray

    @classmethod
    def from_points(cls, points) -> "PointSet":
        return cls(
            np.array([p.theta for p in points], dtype=float),
            np.array([p.depth for p in points], dtype=float),
        )

    def __len__(self) -> int:
        return len(self.theta)

    def __getitem__(self, idx) -> "PointSet":
        out = PointSet(self.theta[idx], self.depth[idx])
        if "norm_sq" in self.__dict__:
            out.__dict__["norm_sq"] = self.norm_sq[idx]
        return out

    @functools.cached_property
    def norm_sq(self) -> np.ndarray:
        """kernel_norm_sq of each point, from the scalar function.

        Its log sum cancels near the origin, where numpy's log would move
        the result by tens of ulps; this is O(n) work per point set.
        """
        norms = [kernel_norm_sq(DiscPoint(0.0, d)) for d in self.depth.ravel().tolist()]
        return np.array(norms, dtype=float).reshape(self.depth.shape)

    def points(self) -> list[DiscPoint]:
        return [DiscPoint(t, d) for t, d in zip(self.theta.ravel().tolist(), self.depth.ravel().tolist())]

    def one_minus_conj_prod(self, other: "PointSet") -> np.ndarray:
        """1 - conj(z)*w for z in self and w in other, without cancellation.

        conj(z)*w = (1-s_z)(1-s_w) e^{i(tw-tz)}; splitting off 1 - e^{i*delta}
        = -2i sin(delta/2) e^{i*delta/2} keeps full accuracy when both points
        are deep and nearly aligned.
        """
        delta = other.theta - self.theta
        s = self.depth + other.depth - self.depth * other.depth
        # -2i sin(delta/2) h + s h^2 with h = e^{i*delta/2}, in real arithmetic
        # operation for operation as Python evaluates the complex expression:
        # near the kernel's series cutoff its log turns an ulp here into
        # thousands in the kernel
        hc, hs = np.cos(0.5 * delta), np.sin(0.5 * delta)
        sc, ss = s * hc, s * hs
        return (2.0 * hs * hs + (sc * hc - ss * hs)) + 1j * (-2.0 * hs * hc + (sc * hs + ss * hc))

    def _diff(self, other: "PointSet") -> np.ndarray:
        """z - w for z in self and w in other, stable for deep nearly-aligned points."""
        half = np.exp(0.5j * (self.theta + other.theta))
        rot = 2j * np.sin(0.5 * (self.theta - other.theta)) * half
        return rot + other.depth * np.exp(1j * other.theta) - self.depth * np.exp(1j * self.theta)

    def mobius(self, other: "PointSet") -> "PointSet":
        """phi_z(w) = (z - w)/(1 - conj(z) w) for z in self and w in other.

        The disc automorphism that exchanges z and the origin; an
        involution in w.
        """
        num = self._diff(other)
        den = self.one_minus_conj_prod(other)
        a = np.abs(den)
        rho = np.abs(num) / a
        # below rho = 0.5 the quotient keeps full relative accuracy; above it
        # 1 - |phi|^2 = (1-|z|^2)(1-|w|^2)/|den|^2 is cancellation-free, divided
        # factor by factor so extreme depths do not underflow, and beyond float
        # range pinned to the deepest representable point
        t = (self.depth * (2.0 - self.depth) / a) * (other.depth * (2.0 - other.depth) / a)
        t = np.minimum(np.maximum(t, 5e-324), 1.0)
        depth = np.where(rho < 0.5, 1.0 - rho, t / (1.0 + np.sqrt(1.0 - t)))
        theta = _wrap_angles(np.where(rho == 0.0, 0.0, np.angle(num / den)))
        if not np.all(depth > 0.0):
            # the clamped depth can round to 0, which DiscPoint refuses
            k = np.flatnonzero(~(depth > 0.0))[0]
            raise DomainError(f"point not in open disc: theta={theta.flat[k]}, depth={depth.flat[k]}")
        return PointSet(theta, depth)

    def kernel(self, other: "PointSet") -> np.ndarray:
        """Dirichlet reproducing kernel k(w, z) = log(1/(1 - w conj(z)))/(w conj(z)).

        For w in self and z in other.  Hermitian; equals 1 when the
        product w*conj(z) vanishes (power-series limit).
        """
        q = (1.0 - self.depth) * (1.0 - other.depth) * np.exp(1j * (self.theta - other.theta))
        # sum q^n/(n+1); |q| < 1e-4 makes 4 terms exact to machine precision
        series = 1.0 + q * (0.5 + q * (1.0 / 3.0 + q * 0.25))
        closed = _quotient(-np.log(other.one_minus_conj_prod(self)), q)  # q == 0 takes the series
        return np.where(np.abs(q) < _KERNEL_SERIES_CUTOFF, series, closed)

    def dirichlet_metric(self, other: "PointSet") -> np.ndarray:
        """d_D(z,w) = sqrt(1 - |<k_z,k_w>|^2 / (||k_z||^2 ||k_w||^2)), in [0, 1)."""
        g = np.abs(self.kernel(other)) ** 2 / (self.norm_sq * other.norm_sq)
        metric = np.sqrt(np.maximum(0.0, 1.0 - np.minimum(g, 1.0)))
        same = (self.theta == other.theta) & (self.depth == other.depth)
        return np.where(same, 0.0, metric)

    def hyperbolic_distance(self, other: "PointSet") -> np.ndarray:
        """d(z,w) = (1/2) log((1+rho)/(1-rho)) with rho = |phi_z(w)|."""
        m = self.mobius(other)
        with np.errstate(over="ignore"):  # inf past depth ~1e-308, as for Python floats
            return 0.5 * np.log((2.0 - m.depth) / m.depth)


def _quotient(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a / b in real arithmetic, operation for operation as Python divides.

    CPython scales by the larger part of b (Smith's method); numpy
    multiplies by a reciprocal, which can differ by an ulp, and one ulp of
    the kernel can separate a metric of 0.0 from one of 1.5e-8.
    """
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    by_real = np.abs(br) >= np.abs(bi)
    # np.where evaluates both branches; the one it drops, and b == 0, may divide by 0 or overflow
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = np.where(by_real, bi / br, br / bi)
        denom = np.where(by_real, br + bi * ratio, br * ratio + bi)
        re = np.where(by_real, ar + ai * ratio, ar * ratio + ai) / denom
        im = np.where(by_real, ai - ar * ratio, ai * ratio - ar) / denom
    return re + 1j * im


def number_from_json(value) -> float:
    """A JSON number as a float; a boolean, which float() reads as 0 or 1, is a
    TypeError, and an integer beyond float range a ValueError."""
    if isinstance(value, bool):
        raise TypeError(f"want a number, got {str(value).lower()}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError("integer beyond float range") from exc


def point_from_json(d: dict) -> DiscPoint:
    if "re" in d and "im" in d:
        return DiscPoint.from_xy(number_from_json(d["re"]), number_from_json(d["im"]))
    if "depth" in d:
        return DiscPoint(number_from_json(d.get("theta", 0.0)), number_from_json(d["depth"]))
    if "r" in d and "theta" in d:
        return DiscPoint.from_polar(number_from_json(d["r"]), number_from_json(d["theta"]))
    raise InputError(f"cannot parse point: {d!r}")


def kernel_norm_sq(z: DiscPoint) -> float:
    """d(z) = ||k_z||^2 = log(1/(1-|z|^2))/|z|^2; equals 1 at the origin."""
    s = z.depth
    x = (1.0 - s) ** 2  # |z|^2
    if x < _KERNEL_SERIES_CUTOFF:
        return 1.0 + x * (0.5 + x * (1.0 / 3.0 + x * 0.25))
    # 1 - x = s(2-s), evaluated in log form so depths ~1e-300 survive
    return -(math.log(s) + math.log(2.0 - s)) / x


@dataclass(frozen=True)
class Arc:
    """Closed boundary arc; length is a fraction of the circle (|T| = 1)."""

    center_angle: float
    length: float

    def __post_init__(self):
        if not (0.0 < self.length <= 1.0):
            raise DomainError(f"arc length out of (0,1]: {self.length}")
        if not math.isfinite(self.center_angle):
            raise DomainError(f"arc center angle not finite: {self.center_angle}")
        object.__setattr__(self, "center_angle", _wrap_angle(self.center_angle))

    @property
    def half_width(self) -> float:
        """Half the angular extent, in radians."""
        return math.pi * self.length

    @property
    def start(self) -> float:
        return self.center_angle - self.half_width

    @property
    def end(self) -> float:
        return self.center_angle + self.half_width

    def is_full_circle(self) -> bool:
        return self.length >= 1.0


def arc_from_json(d: dict) -> Arc:
    return Arc(number_from_json(d["center_angle"]), number_from_json(d["length"]))


def merge_arcs(arcs: list[Arc]) -> list[Arc]:
    """Union of closed arcs as a list of disjoint arcs."""
    if not arcs:
        return []
    merged = _merge_intervals(arcs)
    count = len(arcs)
    # a hull's ends round afresh, so at a touching end a hull can meet an arc
    # that none of its members met in the float test; iterate to a fixpoint
    while len(merged) < count:
        count = len(merged)
        merged = _merge_intervals(merged)
    if len(merged) == 1 and merged[0].length >= 1.0 - 1e-12:
        return [Arc(0.0, 1.0)]
    return merged


def intersecting_arc_pairs(center: np.ndarray, half_width: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs i < j of the arcs that meet, in ascending order.

    center and half_width are as Arc stores them.  A sort-and-sweep over
    the arc extents on the line proposes the pairs whose extents overlap,
    in O(k log k + proposals); each is confirmed with the float test of
    the scalar reference arcs_meet in tests/geometry_oracle.py, so the
    pairs are those that testing all k^2 gives.
    """
    k = len(center)
    if k < 2:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    # each arc's extent at its center in [0, 2*pi), and once more a turn up
    # when that copy can reach another arc, so every pair that meets on
    # the circle overlaps as a pair of extents
    start = center - half_width
    end = center + half_width
    up = np.flatnonzero(start + TWO_PI <= end.max() + _SWEEP_SLACK)
    arc = np.concatenate([np.arange(k), up])
    start = np.concatenate([start, start[up] + TWO_PI])
    end = np.concatenate([end, end[up] + TWO_PI])
    order = np.argsort(start, kind="stable")
    start, end, arc = start[order], end[order], arc[order]
    # extent t overlaps the later extents t+1 .. stop[t]-1, which start before it ends
    stop = np.searchsorted(start, end + _SWEEP_SLACK, side="right")
    first = np.arange(1, len(start) + 1)
    count = np.maximum(stop - first, 0)
    a = np.repeat(np.arange(len(start)), count)
    b = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - first, count)
    i, j = arc[a], arc[b]
    keep = i != j
    lo, hi = np.divmod(np.unique(np.minimum(i, j)[keep] * k + np.maximum(i, j)[keep]), k)
    hit = np.abs(_signed_angles(center[hi] - center[lo])) <= half_width[lo] + half_width[hi]
    return lo[hit], hi[hit]


def _merge_intervals(arcs: list[Arc]) -> list[Arc]:
    """Merge by transitive overlap; singleton groups pass through untouched.

    Groups are hulled in coordinates relative to a member arc, so very
    short arcs (lengths far below the float resolution of absolute
    angles) survive with their lengths intact.  A group's union is cut at
    the one gap it leaves, which a chain of arcs can put anywhere round
    the circle, not only opposite the reference arc.
    """
    if any(a.is_full_circle() for a in arcs):
        return [Arc(0.0, 1.0)]
    first, second = intersecting_arc_pairs(
        np.array([a.center_angle for a in arcs]), np.array([a.half_width for a in arcs])
    )
    group = list(range(len(arcs)))

    def find(i):
        while group[i] != i:
            group[i] = group[group[i]]
            i = group[i]
        return i

    for i, j in zip(first.tolist(), second.tolist()):
        group[find(i)] = find(j)
    # members keep their input order, which fixes each hull's reference arc
    clusters: dict[int, list[Arc]] = {}
    for i, a in enumerate(arcs):
        clusters.setdefault(find(i), []).append(a)
    out = []
    for members in clusters.values():
        if len(members) == 1:
            out.append(members[0])
            continue
        ref = members[0].center_angle
        spans = []
        for a in members:
            offset = _signed_angle(a.center_angle - ref)
            spans.append((offset - a.half_width, offset + a.half_width))
        # a group's union leaves out at most one gap of the circle.  On the
        # turn from the first start (a member starting a turn on is taken a
        # turn back) it is the widest between the running end and the next
        # start, where the running end starts at the members' last end less
        # a turn: their previous turn covers up to there, and the first gap
        # is the one round the back.  The members before the gap go a turn up
        first = min(s for s, _ in spans)
        spans = sorted((s - TWO_PI, e - TWO_PI) if s >= first + TWO_PI else (s, e) for s, e in spans)
        end = max(e for _, e in spans) - TWO_PI
        widest, cut = -math.inf, first
        for s, e in spans:
            if s - end > widest:
                widest, cut = s - end, s
            end = max(end, e)
        spans = [(s + TWO_PI, e + TWO_PI) if s < cut else (s, e) for s, e in spans]
        lo = min(s for s, _ in spans)
        hi = max(e for _, e in spans)
        if widest <= 0.0 or hi - lo >= TWO_PI:
            return [Arc(0.0, 1.0)]
        out.append(Arc(ref + 0.5 * (lo + hi), (hi - lo) / TWO_PI))
    return sorted(out, key=lambda a: a.center_angle)


def boundary_arc(z: DiscPoint) -> Arc:
    """I_z: the arc centered at the radial projection z/|z| of length 1-|z|."""
    if z.is_origin():
        raise DomainError("boundary_arc undefined at the origin")
    return Arc(z.theta, z.depth)


def _boundary_mobius_angle(z: DiscPoint, t: float) -> float:
    """Angle of phi_z(e^{it}); the boundary maps to itself."""
    zeta = cmath.exp(1j * t)
    num = z.z - zeta
    den = 1.0 - z.z.conjugate() * zeta
    return cmath.phase(num / den)


def arc_mobius_image(z: DiscPoint, arc: Arc) -> Arc:
    """Image of a boundary arc under phi_z (an arc again, orientation kept).

    Of two forms, the one with the smaller relative error.  The endpoint
    image runs counterclockwise between the images of the endpoints; its
    error is the rounding of those two angles, about 4e-15, over the
    image's span.  The derivative image is the arc at phi_z(e^{ic}), for
    the center e^{ic}, of the length times |phi_z'(e^{ic})| =
    (1-|z|^2)/|e^{ic} - z|^2; its error is about (pi length)^2 /
    |e^{ic} - z|^2.  It also serves where the endpoint images are equal.
    The rule matters for short arcs: their endpoint images can round into
    reverse order, and the span between them is then nearly the circle.
    """
    if arc.is_full_circle():
        return Arc(0.0, 1.0)
    # |e^{ic} - z|^2 = depth^2 + 4|z| sin^2((c - theta)/2), free of cancellation
    dist_sq = z.depth**2 + 4.0 * z.r * math.sin(0.5 * (arc.center_angle - z.theta)) ** 2
    scale = z.depth * (2.0 - z.depth)  # 1 - |z|^2
    # the endpoint image unless the derivative one errs less, that is unless
    # half_width^2 / dist_sq < 4e-15 dist_sq / (2 pi length scale), multiplied
    # out so that nothing divides by 0
    if arc.half_width**2 * TWO_PI * arc.length * scale >= 4e-15 * dist_sq**2:
        a = _boundary_mobius_angle(z, arc.start)
        b = _boundary_mobius_angle(z, arc.end)
        if a != b:
            span = _wrap_angle(b - a)
            return Arc(a + 0.5 * span, span / TWO_PI)
    return Arc(_boundary_mobius_angle(z, arc.center_angle), arc.length * scale / dist_sq)


@dataclass(frozen=True)
class CarlesonBox:
    """Box {r e^{it} : inner_radius <= r < 1, e^{it} in base_arc}."""

    base_arc: Arc
    inner_radius: float

    def __post_init__(self):
        # inner_radius 1.0 is allowed: boxes of very deep points round to it
        if not (0.0 <= self.inner_radius <= 1.0):
            raise DomainError(f"inner radius out of [0,1]: {self.inner_radius}")


def boxes_contain(outer_center, outer_length, outer_radius, center, length, radius) -> np.ndarray:
    """Whether each outer box contains the inner box, elementwise.

    Each box is given by its base arc (center angle, length) and inner
    radius; the arrays broadcast.  A full outer arc contains every arc
    and a full inner arc fits in no smaller one.  The outer half-width
    and inner radius get 1e-12 relative slack, and the angles 1e-14 rad
    for the rounding of angle sums near 2*pi.
    """
    gap = np.abs(_signed_angles(center - outer_center))
    arc_in = (outer_length >= 1.0) | (
        (length < 1.0) & (gap + math.pi * length <= math.pi * outer_length * (1 + 1e-12) + 1e-14)
    )
    return arc_in & (outer_radius <= radius * (1 + 1e-12))


def carleson_box(z: DiscPoint) -> CarlesonBox:
    """S(z): the box over I_z with inner radius |z|."""
    return CarlesonBox(boundary_arc(z), 1.0 - z.depth)


def expanded_box(z: DiscPoint, eta: float) -> CarlesonBox:
    """S^eta(z) = S(z* (1 - (1-|z|)^eta)): depth (1-|z|)^eta over the same center."""
    if not (0.0 < eta < 1.0):
        raise DomainError(f"eta out of (0,1): {eta}")
    if z.is_origin():
        raise DomainError("expanded box undefined at the origin")
    d = z.depth**eta
    if d >= 1.0:
        return CarlesonBox(Arc(z.theta, 1.0), 0.0)
    return CarlesonBox(Arc(z.theta, d), 1.0 - d)


@dataclass(frozen=True)
class HyperbolicDisc:
    """Hyperbolic disc Delta_r(center); radius in the hyperbolic metric."""

    center: DiscPoint
    radius: float

    def __post_init__(self):
        if not (0.0 < self.radius < math.inf):
            raise DomainError(f"hyperbolic radius must be finite and > 0: {self.radius}")

    def euclidean(self) -> tuple[complex, float]:
        """(center, radius) of the Euclidean disc this set equals."""
        rho = math.tanh(self.radius)
        z = self.center.z
        a2 = abs(z) ** 2
        den = 1.0 - rho * rho * a2
        return z * (1.0 - rho * rho) / den, rho * (1.0 - a2) / den


def unit_hyperbolic_disc(z: DiscPoint) -> HyperbolicDisc:
    """Delta_1(z), the default plate around a point."""
    return HyperbolicDisc(z, 1.0)
