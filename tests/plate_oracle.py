"""Dense-sampling reference for whether Delta_1(z) meets an outer plate.

Both plates are closed sets in the open disc, and Delta_1(z) is a
Euclidean disc.  A Carleson box reaches the unit circle, so it cannot lie
inside Delta_1(z): the two meet iff the rim of Delta_1(z) meets the box.
Two discs meet iff the rim of one meets the other.  The rims are sampled
at n points; a sample inside the other plate is a witness, so a hit is
always right, while overlaps thinner than the sample spacing h can be
missed.  With slack, the plate the samples are tested against is grown
by what a spacing of h can hide, so a miss of the grown plates proves
that the plates miss.
"""

import math

import numpy as np

from disclab.geometry import CarlesonBox, DiscPoint, HyperbolicDisc, unit_hyperbolic_disc


def _rim(disc: HyperbolicDisc, n: int) -> tuple[np.ndarray, float]:
    """n points on the disc's Euclidean rim and their spacing."""
    c, rad = disc.euclidean()
    return c + rad * np.exp(2j * math.pi * np.arange(n) / n), 2.0 * math.pi * rad / n


def _in_disc(w: np.ndarray, disc: HyperbolicDisc, grow: float) -> bool:
    c, rad = disc.euclidean()
    return bool(np.any(np.abs(w - c) <= rad + grow))


def _in_box(w: np.ndarray, box: CarlesonBox, grow: float) -> bool:
    r0 = box.inner_radius - grow
    # a point within grow of one at radius >= inner_radius lies within this angle of it
    spread = 0.0 if grow == 0.0 else (math.asin(grow / box.inner_radius) if box.inner_radius > grow else math.pi)
    half_width = math.pi if box.base_arc.is_full_circle() else box.base_arc.half_width + spread
    gap = np.abs(np.mod(np.angle(w) - box.base_arc.center_angle + math.pi, 2.0 * math.pi) - math.pi)
    return bool(np.any((np.abs(w) >= r0) & (gap <= half_width)))


def plates_meet(z: DiscPoint, target, n: int = 4096, slack: bool = False) -> bool:
    """Whether Delta_1(z) meets a CarlesonBox or HyperbolicDisc target, from n rim samples.

    Without slack a True is certain; with slack a False is certain.
    """
    inner = unit_hyperbolic_disc(z)
    w, h = _rim(inner, n)
    if isinstance(target, CarlesonBox):
        return _in_box(w, target, h if slack else 0.0)
    v, k = _rim(target, n)
    return _in_disc(w, target, h if slack else 0.0) or _in_disc(v, inner, k if slack else 0.0)
