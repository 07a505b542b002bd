"""Boundary polylines of the certified regions, ready for plotting.

Each region becomes a tuple of named segments; a segment carries exactly
`resolution` (re, im) samples so downstream row counts are predictable.
Unbounded regions are cut at a clipping radius, which callers default to
ten times the largest input magnitude.  Samples are plain float
arithmetic: `_linspace` does the operations of np.linspace in the same
order, so plotting a region loads no numpy.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .enclosures import GKCover, QuadBound
from .errors import ConditionNotApplicable, record, require_finite, require_int, require_positive

if TYPE_CHECKING:
    from .applications import CoulombRegion, DiracSpec

__all__ = [
    "Segment",
    "hyperbola_boundary",
    "strip_boundary",
    "sector_boundary",
    "coulomb_boundary",
    "envelope_boundary",
    "segments_to_csv",
]


class Segment(record("Segment", "name re im")):
    """One polyline: connect the points in order, segments are independent."""

    __slots__ = ()

    def __new__(cls, name: str, re: tuple[float, ...], im: tuple[float, ...]):
        if len(re) != len(im):
            raise ValueError("re and im must have equal length")
        return tuple.__new__(cls, (name, re, im))


def _seg(name: str, re: list[float], im: list[float]) -> Segment:
    # a boundary whose samples leave the doubles has no polyline: the CLI exits 3
    if not all(map(math.isfinite, re)) or not all(map(math.isfinite, im)):
        raise FloatingPointError(f"segment {name!r} has a sample beyond the finite doubles")
    return Segment(name, tuple(re), tuple(im))


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """np.linspace(start, stop, num) bit for bit: i * step + start, the last sample stop.

    Where stop - start overflows, the samples are taken between the halved
    ends and doubled, which is exact for ends that large.
    """
    div = num - 1
    delta = stop - start
    if math.isinf(delta) and math.isfinite(start) and math.isfinite(stop):
        return [2.0 * x for x in _linspace(0.5 * start, 0.5 * stop, num)]
    step = delta / div
    if step == 0.0:
        # np.linspace's branch for a step that underflows
        samples = [i / div * delta + start for i in range(div)]
    else:
        samples = [i * step + start for i in range(div)]
    samples.append(stop)
    return samples


def _hyperbola_height(q: QuadBound, re: list[float]) -> list[float]:
    if q.b >= 1.0:
        raise ConditionNotApplicable("no enclosure for b >= 1: the hyperbola degenerates")
    try:
        a2 = q.a**2
    except OverflowError:
        a2 = math.inf
    b2 = q.b**2
    heights = [math.sqrt((a2 + b2 * (x * x)) / (1.0 - b2)) for x in re]
    # where a square overflows (or 0 * inf is NaN), hypot gives the height without squares
    return [
        h if math.isfinite(h) else math.hypot(q.a, q.b * x) / math.sqrt(1.0 - b2)
        for x, h in zip(re, heights)
    ]


def hyperbola_boundary(q: QuadBound, resolution: int, clip: float) -> tuple[Segment, Segment]:
    """Upper and lower branch of |Im z|^2 = (a^2 + b^2 Re^2)/(1 - b^2).

    With b = 0 the branches degenerate to the horizontal lines Im = +-a.
    """
    resolution = require_int("resolution", resolution, 2)
    clip = require_positive("clip", clip)
    re = _linspace(-clip, clip, resolution)
    im = _hyperbola_height(q, re)
    return _seg("upper", re, im), _seg("lower", re, [-h for h in im])


def strip_boundary(lo: float, hi: float, resolution: int, clip: float) -> tuple[Segment, ...]:
    """The rectangle around the strip (lo, hi) cut at |Im| = clip: four sides, counter-clockwise.

    Each side runs corner to corner, so every corner is a sample of the two
    sides that meet there, at every resolution.
    """
    resolution = require_int("resolution", resolution, 2)
    clip = require_positive("clip", clip)
    # + 0.0 turns an end of -0.0 into 0.0, so that the sides meeting at a corner agree on its sign
    lo, hi = require_finite("lo", lo) + 0.0, require_finite("hi", hi) + 0.0
    if not lo < hi:
        raise ValueError("requires lo < hi")
    corners = [(lo, -clip), (hi, -clip), (hi, clip), (lo, clip), (lo, -clip)]
    return tuple(
        _seg(name, _linspace(x0, x1, resolution), _linspace(y0, y1, resolution))
        for name, (x0, y0), (x1, y1) in zip(("bottom", "right", "top", "left"), corners, corners[1:])
    )


def sector_boundary(cover: GKCover, resolution: int, clip: float) -> tuple[Segment, ...]:
    """Ball circle plus the four sector boundary rays, cut at |z| = clip."""
    resolution = require_int("resolution", resolution, 2)
    clip = require_positive("clip", clip)
    theta = _linspace(0.0, 2.0 * math.pi, resolution)
    segments = [
        _seg("ball", [cover.r_eps * math.cos(t) for t in theta], [cover.r_eps * math.sin(t) for t in theta])
    ]
    r = _linspace(cover.r_eps, max(clip, cover.r_eps), resolution)
    for name, angle in (
        ("sector-ne", cover.half_angle),
        ("sector-se", -cover.half_angle),
        ("sector-nw", math.pi - cover.half_angle),
        ("sector-sw", math.pi + cover.half_angle),
    ):
        cos, sin = math.cos(angle), math.sin(angle)
        segments.append(_seg(name, [x * cos for x in r], [x * sin for x in r]))
    return tuple(segments)


def coulomb_boundary(region: CoulombRegion, resolution: int, clip: float) -> tuple[Segment, ...]:
    """Boundary of the two lens-shaped components the spectrum may occupy.

    Each component {+-Re z >= halfwidth, inside the hyperbola} contributes
    a vertical chord plus upper and lower hyperbola arcs: six segments.
    """
    resolution = require_int("resolution", resolution, 2)
    clip = require_positive("clip", clip)
    hw = region.halfwidth
    (h0,) = _hyperbola_height(region.quad, [hw])
    chord_im = _linspace(-h0, h0, resolution)
    arc_re = _linspace(hw, max(clip, hw), resolution)
    arc_im = _hyperbola_height(region.quad, arc_re)
    segments = []
    for side, sign in (("right", 1.0), ("left", -1.0)):
        segments.append(_seg(f"{side}-chord", [sign * hw] * resolution, chord_im))
        segments.append(_seg(f"{side}-upper", [sign * x for x in arc_re], arc_im))
        segments.append(_seg(f"{side}-lower", [sign * x for x in arc_re], [-y for y in arc_im]))
    return tuple(segments)


def envelope_boundary(
    spec: DiracSpec, resolution: int, clip: float, name: str | None = None
) -> tuple[Segment]:
    """Upper envelope arm from |Re z| = clip in to the real-axis crossing; C_p is computed once per arm."""
    from .applications import _envelope_b_at, _envelope_b_max, _envelope_x, _envelope_y, _log_grid, dirac2d_cp

    resolution = require_int("resolution", resolution, 2)
    clip = require_positive("clip", clip)
    p, cp = spec.p, dirac2d_cp(spec)
    b = _log_grid(_envelope_b_at(p, cp, clip)[0], _envelope_b_max(p), resolution)
    xy = [(_envelope_x(p, cp, v), _envelope_y(p, cp, v)) for v in b]
    re = [math.sqrt(max(x, 0.0)) for x, _ in xy]
    return (_seg(name or f"p={spec.p:g}", re, [math.sqrt(y) for _, y in xy]),)


def segments_to_csv(segments: tuple[Segment, ...]) -> str:
    """Fixed-header CSV, one row per sample, floats in round-trip form."""
    lines = ["segment,re,im"]
    for seg in segments:
        for re, im in zip(seg.re, seg.im):
            lines.append(f"{seg.name},{re!r},{im!r}")
    return "\n".join(lines) + "\n"
