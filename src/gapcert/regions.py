"""Boundary polylines of the certified regions, ready for plotting.

Each region becomes a tuple of named segments; a segment carries exactly
`resolution` (re, im) samples so downstream row counts are predictable.
Unbounded regions are cut at a clipping radius, which callers default to
ten times the largest input magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .applications import CoulombRegion, DiracSpec, _envelope_b_at, _envelope_b_max, _envelope_xy
from .enclosures import GKCover, QuadBound
from .errors import ConditionNotApplicable, require_int, require_positive

__all__ = [
    "Segment",
    "hyperbola_boundary",
    "strip_boundary",
    "sector_boundary",
    "coulomb_boundary",
    "envelope_boundary",
    "segments_to_csv",
]


@dataclass(frozen=True)
class Segment:
    """One polyline: connect the points in order, segments are independent."""

    name: str
    re: tuple[float, ...]
    im: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.re) != len(self.im):
            raise ValueError("re and im must have equal length")


# a boundary whose samples leave the doubles has no polyline: in the samplers an
# overflow or invalid operation raises FloatingPointError (the CLI exits 3)
_in_doubles = np.errstate(over="raise", invalid="raise", divide="raise")


def _seg(name: str, re: np.ndarray, im: np.ndarray) -> Segment:
    return Segment(name, tuple(float(x) for x in re), tuple(float(y) for y in im))


def _hyperbola_height(q: QuadBound, re: np.ndarray) -> np.ndarray:
    if q.b >= 1.0:
        raise ConditionNotApplicable("no enclosure for b >= 1: the hyperbola degenerates")
    try:
        a2 = q.a**2
    except OverflowError:
        a2 = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        height = np.sqrt((a2 + q.b**2 * re**2) / (1.0 - q.b**2))
    # where a square overflows (or 0 * inf is NaN), hypot gives the height without squares
    wide = ~np.isfinite(height)
    height[wide] = np.hypot(q.a, q.b * re[wide]) / math.sqrt(1.0 - q.b**2)
    return height


@_in_doubles
def hyperbola_boundary(q: QuadBound, resolution: int, clip: float) -> tuple[Segment, Segment]:
    """Upper and lower branch of |Im z|^2 = (a^2 + b^2 Re^2)/(1 - b^2).

    With b = 0 the branches degenerate to the horizontal lines Im = +-a.
    """
    resolution = require_int("resolution", resolution, 2)
    clip = require_positive("clip", clip)
    re = np.linspace(-clip, clip, resolution)
    im = _hyperbola_height(q, re)
    return _seg("upper", re, im), _seg("lower", re, -im)


@_in_doubles
def strip_boundary(lo: float, hi: float, resolution: int, clip: float) -> tuple[Segment]:
    """Closed rectangle around the strip (lo, hi) cut at |Im| = clip."""
    resolution = require_int("resolution", resolution, 2)
    clip = require_positive("clip", clip)
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        raise ValueError("requires lo < hi")
    corners = np.array(
        [(lo, -clip), (hi, -clip), (hi, clip), (lo, clip), (lo, -clip)], dtype=float
    )
    # every side is axis-aligned, so hypot is its exact length and squares nothing
    lengths = np.hypot(*np.diff(corners, axis=0).T)
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    t = np.linspace(0.0, cum[-1], resolution)
    re = np.interp(t, cum, corners[:, 0])
    im = np.interp(t, cum, corners[:, 1])
    return (_seg("rectangle", re, im),)


@_in_doubles
def sector_boundary(cover: GKCover, resolution: int, clip: float) -> tuple[Segment, ...]:
    """Ball circle plus the four sector boundary rays, cut at |z| = clip."""
    resolution = require_int("resolution", resolution, 2)
    clip = require_positive("clip", clip)
    theta = np.linspace(0.0, 2.0 * math.pi, resolution)
    segments = [_seg("ball", cover.r_eps * np.cos(theta), cover.r_eps * np.sin(theta))]
    r = np.linspace(cover.r_eps, max(clip, cover.r_eps), resolution)
    for name, angle in (
        ("sector-ne", cover.half_angle),
        ("sector-se", -cover.half_angle),
        ("sector-nw", math.pi - cover.half_angle),
        ("sector-sw", math.pi + cover.half_angle),
    ):
        segments.append(_seg(name, r * math.cos(angle), r * math.sin(angle)))
    return tuple(segments)


@_in_doubles
def coulomb_boundary(region: CoulombRegion, resolution: int, clip: float) -> tuple[Segment, ...]:
    """Boundary of the two lens-shaped components the spectrum may occupy.

    Each component {+-Re z >= halfwidth, inside the hyperbola} contributes
    a vertical chord plus upper and lower hyperbola arcs: six segments.
    """
    resolution = require_int("resolution", resolution, 2)
    clip = require_positive("clip", clip)
    hw = region.halfwidth
    h0 = float(_hyperbola_height(region.quad, np.array([hw]))[0])
    chord_im = np.linspace(-h0, h0, resolution)
    arc_re = np.linspace(hw, max(clip, hw), resolution)
    arc_im = _hyperbola_height(region.quad, arc_re)
    segments = []
    for side, sign in (("right", 1.0), ("left", -1.0)):
        segments.append(_seg(f"{side}-chord", np.full(resolution, sign * hw), chord_im))
        segments.append(_seg(f"{side}-upper", sign * arc_re, arc_im))
        segments.append(_seg(f"{side}-lower", sign * arc_re, -arc_im))
    return tuple(segments)


@_in_doubles
def envelope_boundary(
    spec: DiracSpec, resolution: int, clip: float, name: str | None = None
) -> tuple[Segment]:
    """Upper envelope arm from |Re z| = clip in to the real-axis crossing."""
    resolution = require_int("resolution", resolution, 2)
    clip = require_positive("clip", clip)
    b = np.geomspace(_envelope_b_at(spec, clip)[0], _envelope_b_max(spec.p), resolution)
    x, y = _envelope_xy(spec, b)
    return (_seg(name or f"p={spec.p:g}", np.sqrt(np.maximum(x, 0.0)), np.sqrt(y)),)


def segments_to_csv(segments: tuple[Segment, ...]) -> str:
    """Fixed-header CSV, one row per sample, floats in round-trip form."""
    lines = ["segment,re,im"]
    for seg in segments:
        for re, im in zip(seg.re, seg.im):
            lines.append(f"{seg.name},{re!r},{im!r}")
    return "\n".join(lines) + "\n"
