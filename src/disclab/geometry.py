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
elementwise test, boxes_contain, and arc meeting one sweep, which runs
over many groups of arcs at once and confirms its pairs chunk by chunk.
ArcGroups holds such groups as arrays, and merge_arc_groups merges them
all in one array pass: the components of each group's meeting pairs are
found by label hooking with no loop over pairs, and each is hulled at
the one gap its union leaves.  merge_arcs is that merge on one list of
arcs.
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

# Proposed arc pairs confirmed at a time: a union of overlapping arcs
# proposes every pair of its members, so the sweep works in chunks of
# about this many to keep its temporaries to a few MB.
_PAIR_CHUNK = 1 << 16


def _wrap_angle(t: float) -> float:
    """Reduce an angle to [0, 2*pi)."""
    t = math.fmod(t, TWO_PI)
    if t < 0:
        t += TWO_PI
    # a negative angle within half an ulp of 2*pi of 0 rounds up to a full turn
    return 0.0 if t == TWO_PI else t


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
    t = np.where(t < 0, t + TWO_PI, t)
    return np.where(t == TWO_PI, 0.0, t)


def _signed_angles(t: np.ndarray) -> np.ndarray:
    """_signed_angle elementwise."""
    t = np.fmod(t, TWO_PI)
    return np.where(t > math.pi, t - TWO_PI, np.where(t <= -math.pi, t + TWO_PI, t))


def _outside_disc(theta, depth) -> DomainError:
    """The error for a point, or a Mobius image, that is not in the open disc."""
    return DomainError(f"point not in open disc: theta={theta}, depth={depth}")


def _origin_arc() -> DomainError:
    """The error for the boundary arc of the origin, which has none."""
    return DomainError("boundary_arc undefined at the origin")


@dataclass(frozen=True)
class DiscPoint:
    """A point of the open unit disc, stored as angle and boundary depth.

    depth = 1 - |z| must lie in (0, 1]; depth == 1 is the origin.
    """

    theta: float
    depth: float

    def __post_init__(self):
        if not (0.0 < self.depth <= 1.0) or not math.isfinite(self.theta):
            raise _outside_disc(self.theta, self.depth)
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
        involution in w.  The clamped depth of an image can round to 0,
        which DiscPoint refuses, and so does this.
        """
        image = self._mobius(other)
        refused = np.flatnonzero(~(image.depth > 0.0))
        if len(refused):
            raise _outside_disc(image.theta.flat[refused[0]], image.depth.flat[refused[0]])
        return image

    def _mobius(self, other: "PointSet") -> "PointSet":
        """mobius without the check of the image depths."""
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


@dataclass(frozen=True, eq=False)
class ArcGroups:
    """Groups of closed boundary arcs as arrays.

    Group g holds the arcs start[g]:start[g + 1]; center and length are
    as Arc stores them.
    """

    center: np.ndarray
    length: np.ndarray
    start: np.ndarray

    @classmethod
    def from_lists(cls, groups) -> "ArcGroups":
        groups = [list(g) for g in groups]
        arcs = [a for g in groups for a in g]
        return cls(
            np.array([a.center_angle for a in arcs], dtype=float),
            np.array([a.length for a in arcs], dtype=float),
            np.cumsum([0] + [len(g) for g in groups], dtype=np.int64),
        )

    def __len__(self) -> int:
        return len(self.start) - 1

    def arcs(self, g: int) -> list[Arc]:
        """Group g as Arc objects."""
        a, b = self.start[g], self.start[g + 1]
        return [Arc(c, n) for c, n in zip(self.center[a:b].tolist(), self.length[a:b].tolist())]


def merge_arcs(arcs: list[Arc]) -> list[Arc]:
    """Union of closed arcs as a list of disjoint arcs."""
    return merge_arc_groups(ArcGroups.from_lists([arcs])).arcs(0)


def merge_arc_groups(groups: ArcGroups) -> ArcGroups:
    """The union of each group as disjoint arcs, in order of center angle.

    All groups are merged in one array pass (see _merge_pass).  A hull's
    ends round afresh, so at a touching end a hull can meet an arc that
    none of its members met in the float test: the groups that a pass
    merged something in are passed again, until none is.  A group whose
    union is one arc within 1e-12 of the circle is the full circle.
    """
    n = len(groups)
    center, length, start = groups.center, groups.length, groups.start
    count = start[1:] - start[:-1]
    # a pass leaves a single arc as it is, or makes it the full circle as the end does
    todo = count > 1
    while todo.any():
        group = np.repeat(np.arange(n), count)
        picked = todo[group]
        if picked.all():
            merged = _merge_pass(center, length, group, n)
            center, length = merged[:2]
        else:
            merged = _merge_pass(center[picked], length[picked], group[picked], n)
            # each group's arcs stay together and in their order
            order = np.argsort(np.concatenate([group[~picked], merged[2]]), kind="stable")
            center, length = (np.concatenate([a[~picked], b])[order] for a, b in zip((center, length), merged))
        if len(center) == len(group):
            break  # the pass merged nothing
        merged_count = np.bincount(merged[2], minlength=n)
        count, todo = np.where(todo, merged_count, count), todo & (merged_count < count) & (merged_count > 1)
        start = np.cumsum(np.concatenate([[0], count]))
    near = np.flatnonzero(length >= 1.0 - 1e-12)
    if len(near):
        circle = near[count[np.searchsorted(start, near, side="right") - 1] == 1]
        center, length = center.copy(), length.copy()
        center[circle], length[circle] = 0.0, 1.0
    return ArcGroups(center, length, start)


def intersecting_arc_pairs(center: np.ndarray, half_width: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs i < j of the arcs that meet, in ascending order.

    center and half_width are as Arc stores them; see _meeting_pairs.
    """
    k = len(center)
    chunks = _meeting_pairs(center, half_width, np.zeros(k, dtype=np.int64))
    pairs = [np.minimum(i, j) * k + np.maximum(i, j) for i, j in chunks]
    return np.divmod(np.unique(np.concatenate([np.zeros(0, dtype=np.int64), *pairs])), max(k, 1))


def _meeting_pairs(center: np.ndarray, half_width: np.ndarray, group: np.ndarray):
    """The pairs of arcs of one group that meet, as index arrays (i, j), chunk by chunk.

    group holds each arc's group and does not decrease.  A sort-and-sweep
    over the arc extents on the line proposes the pairs of a group whose
    extents overlap, in O(k log k + proposals); each is confirmed with the
    float test of the scalar reference arcs_meet in
    tests/geometry_oracle.py, so the pairs are those that testing all
    pairs of each group gives.  A chunk confirms about _PAIR_CHUNK
    proposals, and a pair can come twice, once on each turn.
    """
    k = len(center)
    if k < 2:
        return
    # each arc's extent at its center in [0, 2*pi), and once more a turn up
    # when that copy can reach another arc, so every pair that meets on the
    # circle overlaps as a pair of extents
    start = center - half_width
    end = center + half_width
    up = np.flatnonzero(start + TWO_PI <= end.max() + _SWEEP_SLACK)
    arc = np.concatenate([np.arange(k), up])
    # numpy orders complex numbers by real part, then imaginary part: keyed
    # group + i*start, the extents sort by group and then start, and one
    # searchsorted finds each extent's last overlap within its own group
    key = group[arc] + 1j * np.concatenate([start, start[up] + TWO_PI])
    end = np.concatenate([end, end[up] + TWO_PI])
    order = np.argsort(key, kind="stable")
    key, end, arc = key[order], end[order], arc[order]
    # extent t overlaps the later extents t+1 .. stop[t]-1, which start before it ends
    stop = np.searchsorted(key, key.real + 1j * (end + _SWEEP_SLACK), side="right")
    count = np.maximum(stop - np.arange(1, len(key) + 1), 0)
    total = np.cumsum(count)
    cuts = np.searchsorted(total, np.arange(_PAIR_CHUNK, total[-1], _PAIR_CHUNK)).tolist()
    for t0, t1 in zip([0, *cuts], [*cuts, len(key)]):
        c = count[t0:t1]
        a = np.repeat(np.arange(t0, t1), c)
        b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(c) - c, c)
        i, j = arc[a], arc[b]
        keep = i != j
        i, j = i[keep], j[keep]
        # the test is symmetric in i and j: negating a difference is exact, and so is swapping a sum
        hit = np.abs(_signed_angles(center[j] - center[i])) <= half_width[i] + half_width[j]
        yield i[hit], j[hit]


def _merge_pass(
    center: np.ndarray, length: np.ndarray, group: np.ndarray, n_groups: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One merge of arcs by transitive overlap within each group; (center, length, group).

    The arcs come sorted by group.  Each connected component of the
    meeting pairs becomes one arc: a single arc passes through untouched,
    and two or more are hulled (see _hulls).  A group that holds a full
    arc, or whose union covers the circle, becomes the full circle.  Each
    group's arcs go out in order of center angle, and on equal angles in
    the order of their components' first members.
    """
    k = len(center)
    half = np.pi * length
    root = np.arange(k)
    for i, j in _meeting_pairs(center, half, group):
        root = _join(root, i, j)
    out = np.flatnonzero(root == np.arange(k))
    out_center, out_length, out_group = center[out], length[out], group[out]
    # the arcs that make their group the full circle: full arcs, and the first members of gapless hulls
    full = length >= 1.0
    if len(out) < k:
        hulled, hull_center, hull_length, circle = _hulls(center, half, root)
        at = np.searchsorted(out, hulled)
        out_center[at], out_length[at] = hull_center, hull_length
        full[hulled[circle]] = True
    if full.any():
        whole = np.zeros(n_groups, dtype=bool)
        whole[group[full]] = True
        kept = ~whole[out_group]
        circles = np.flatnonzero(whole)
        out_center = np.concatenate([out_center[kept], np.zeros(len(circles))])
        out_length = np.concatenate([out_length[kept], np.ones(len(circles))])
        out_group = np.concatenate([out_group[kept], circles])
    # lexsort is stable, and the arcs come in order of their components' first members
    order = np.lexsort((out_center, out_group))
    return out_center[order], out_length[order], out_group[order]


def _join(label: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The labels once the edges (lo, hi) join their nodes: each node's smallest fellow.

    label gives each node the smallest node of its component so far, as
    np.arange does before any edge.  Every label points to a smaller node
    of its component.  Each round hooks the larger label of every edge
    whose ends disagree onto the smaller one and then follows the labels
    to their roots, until every edge agrees; the one root left in a
    component is its smallest node.  Edges joined in an earlier call
    still agree, as hooking moves only roots and both ends follow theirs.
    """
    while True:
        a, b = label[lo], label[hi]
        apart = a != b
        if not apart.any():
            return label
        np.minimum.at(label, np.maximum(a, b)[apart], np.minimum(a, b)[apart])
        while True:
            root = label[label]
            if np.array_equal(root, label):
                break
            label = root


def _hulls(
    center: np.ndarray, half: np.ndarray, root: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The union of each component of two or more arcs; (roots, center, length, circle).

    root is each arc's component, its first member.  The members of a
    component are hulled in coordinates relative to that member, so very
    short arcs (lengths far below the float resolution of absolute
    angles) survive with their lengths intact.  A component's union
    leaves out at most one gap of the circle.  On the turn from the first
    start (a member starting a turn on is taken a turn back) it is the
    widest between the running end and the next start, where the running
    end starts at the members' last end less a turn: their previous turn
    covers up to there, and the first gap is the one round the back.  The
    members before the gap go a turn up.  circle marks the components
    that leave no gap, or whose hull spans the circle.
    """
    member = np.flatnonzero(np.bincount(root, minlength=len(root))[root] > 1)
    if not len(member):
        empty = np.zeros(0)
        return member, empty, empty, np.zeros(0, dtype=bool)
    ref = root[member]
    offset = _signed_angles(center[member] - center[ref])
    s, e = offset - half[member], offset + half[member]
    first = np.full(len(root), np.inf)
    np.minimum.at(first, ref, s)
    back = s >= first[ref] + TWO_PI
    s, e = np.where(back, s - TWO_PI, s), np.where(back, e - TWO_PI, e)
    order = np.lexsort((e, s, ref))
    s, e, ref = s[order], e[order], ref[order]
    new = np.concatenate([[True], ref[1:] != ref[:-1]])
    head = np.flatnonzero(new)
    part = np.cumsum(new) - 1
    before = np.concatenate([[0.0], e[:-1]])
    before[head] = np.maximum.reduceat(e, head) - TWO_PI
    gap = s - _running_max(before, part)
    widest = np.maximum.reduceat(gap, head)
    # the first start after the widest gap, as the scalar sweep takes it
    at = np.flatnonzero(gap == widest[part])
    cut = s[at[np.flatnonzero(np.diff(part[at], prepend=-1))]]
    up = s < cut[part]
    s, e = np.where(up, s + TWO_PI, s), np.where(up, e + TWO_PI, e)
    lo, hi = np.minimum.reduceat(s, head), np.maximum.reduceat(e, head)
    roots = ref[head]
    circle = (widest <= 0.0) | (hi - lo >= TWO_PI)
    return roots, _wrap_angles(center[roots] + 0.5 * (lo + hi)), (hi - lo) / TWO_PI, circle


def _running_max(values: np.ndarray, part: np.ndarray) -> np.ndarray:
    """The running maximum of values within each run of equal part (non-decreasing).

    It runs over the values' ranks, offset by part so that each part's
    maximum starts afresh, and maps them back to the values themselves.
    """
    n = len(values)
    order = np.argsort(values, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    return values[order[np.maximum.accumulate(part * n + rank) - part * n]]


def boundary_arc(z: DiscPoint) -> Arc:
    """I_z: the arc centered at the radial projection z/|z| of length 1-|z|."""
    if z.is_origin():
        raise _origin_arc()
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
