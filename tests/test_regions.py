"""Region samplers and the envelope grid against the numpy code they replace.

`gapcert.regions` and `applications.dirac2d_envelope` compute with
`math` and float lists.  The numpy formulations they replaced are kept
here as references.  Each sampler must give the reference's rows bit for
bit wherever the reference gives them, huge magnitudes included.  There
is one exception: where a^2 + b^2 Re^2 overflows, the hyperbola height
comes from math.hypot, which is correctly rounded, while np.hypot is the
C library's and may be one ulp off.  Where the reference overflows an
intermediate but every sample is a double, the sampler must still give
finite rows.  The strip has no numpy reference: its four sides are
`_linspace` between its corners, and its rows are pinned directly.  The
envelope grid is np.geomspace's formula with the `math` module's log10
and power, so it is held to 1e-13 relative.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gapcert import applications, regions
from gapcert.applications import (
    CoulombSpec,
    DiracSpec,
    _envelope_b_at,
    _envelope_b_max,
    _envelope_x,
    _envelope_y,
    _log_grid,
    dirac2d_cp,
    dirac2d_envelope,
    dirac3d_coulomb,
    envelope_im_at_re,
)
from gapcert.enclosures import GKCover, QuadBound
from gapcert.errors import ConditionNotApplicable
from gapcert.regions import Segment, segments_to_csv

_MAX = 1.7976931348623157e308

# ---------------------------------------------------------------------------
# the numpy formulations the samplers replaced


def _np_seg(name, re, im):
    return Segment(name, tuple(float(x) for x in re), tuple(float(y) for y in im))


def _np_formula(q, re):
    # the squared height; not finite where the reference falls back to hypot
    try:
        a2 = q.a**2
    except OverflowError:
        a2 = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sqrt((a2 + q.b**2 * re**2) / (1.0 - q.b**2))


def _np_height(q, re):
    if q.b >= 1.0:
        raise ConditionNotApplicable("no enclosure for b >= 1: the hyperbola degenerates")
    height = _np_formula(q, re)
    wide = ~np.isfinite(height)
    height[wide] = np.hypot(q.a, q.b * re[wide]) / math.sqrt(1.0 - q.b**2)
    return height


def np_hyperbola_boundary(q, resolution, clip):
    re = np.linspace(-clip, clip, resolution)
    im = _np_height(q, re)
    return _np_seg("upper", re, im), _np_seg("lower", re, -im)


def np_sector_boundary(cover, resolution, clip):
    theta = np.linspace(0.0, 2.0 * math.pi, resolution)
    segments = [_np_seg("ball", cover.r_eps * np.cos(theta), cover.r_eps * np.sin(theta))]
    r = np.linspace(cover.r_eps, max(clip, cover.r_eps), resolution)
    for name, angle in (
        ("sector-ne", cover.half_angle),
        ("sector-se", -cover.half_angle),
        ("sector-nw", math.pi - cover.half_angle),
        ("sector-sw", math.pi + cover.half_angle),
    ):
        segments.append(_np_seg(name, r * math.cos(angle), r * math.sin(angle)))
    return tuple(segments)


def np_coulomb_boundary(region, resolution, clip):
    hw = region.halfwidth
    h0 = float(_np_height(region.quad, np.array([hw]))[0])
    chord_im = np.linspace(-h0, h0, resolution)
    arc_re = np.linspace(hw, max(clip, hw), resolution)
    arc_im = _np_height(region.quad, arc_re)
    segments = []
    for side, sign in (("right", 1.0), ("left", -1.0)):
        segments.append(_np_seg(f"{side}-chord", np.full(resolution, sign * hw), chord_im))
        segments.append(_np_seg(f"{side}-upper", sign * arc_re, arc_im))
        segments.append(_np_seg(f"{side}-lower", sign * arc_re, -arc_im))
    return tuple(segments)


def _envelope_xy(spec, b):
    # (x, y) = (|Re z|^2, |Im z|^2) on the envelope at b, C_p computed at each call, as first written
    cp = dirac2d_cp(spec)
    return _envelope_x(spec.p, cp, b), _envelope_y(spec.p, cp, b)


def np_envelope_grid(b_min, b_max, samples):
    with np.errstate(over="raise"):
        return np.geomspace(b_min, b_max, samples)


def np_envelope_rows(spec, b):
    # the envelope's (re, im) at the b grid, in numpy's elementwise arithmetic
    with np.errstate(over="raise"):
        x, y = _envelope_xy(spec, np.asarray(b, dtype=float))
    return np.sqrt(np.maximum(x, 0.0)), np.sqrt(y)


def ref_envelope_b_at(spec, re):
    # _envelope_b_at's bisection as first written: each step takes the full _envelope_xy, C_p included
    target = re * re
    hi = _envelope_b_max(spec.p)
    if target == 0.0:
        return hi, hi
    try:
        lo = 0.5 * hi
        while _envelope_xy(spec, lo)[0] < target:
            lo *= 0.5
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if _envelope_xy(spec, mid)[0] >= target:
                if mid == lo:
                    break
                lo = mid
            else:
                if mid == hi:
                    break
                hi = mid
    except ArithmeticError:
        raise ConditionNotApplicable(f"re={re!r} beyond the representable envelope range") from None
    return lo, hi


# ---------------------------------------------------------------------------
# comparisons


def _run(sampler, *args):
    """The sampler's segments, or None where it reports a FloatingPointError."""
    try:
        return sampler(*args)
    except FloatingPointError:
        return None


def _reference(np_sampler, *args):
    """The numpy formulation's segments where every row is finite, else None.

    Under np.errstate(over="raise", invalid="raise", divide="raise"), as
    they ran, they also failed where an intermediate that no row keeps
    overflowed; that case counts as finite rows here.
    """
    with np.errstate(all="ignore"):
        segments = np_sampler(*args)
    return segments if _finite(segments) else None


def _finite(segments):
    return all(math.isfinite(v) for s in segments for v in s.re + s.im)


def _assert_same_rows(ours, ref, q=None, hypot_rows=()):
    """Equal CSV rows, but for the (segment, row) pairs in hypot_rows.

    There the height is hypot(a, b Re) / sqrt(1 - b^2) of q, from math.hypot
    in ours and np.hypot in the reference, and the two hypots lie within an ulp.
    """
    assert [(s.name, len(s.re)) for s in ours] == [(s.name, len(s.re)) for s in ref]
    for mine, theirs in zip(ours, ref):
        for k, pair in enumerate(zip(mine.re, mine.im, theirs.re, theirs.im)):
            x, y, rx, ry = pair
            if (mine.name, k) in hypot_rows:
                ours_h, ref_h = math.hypot(q.a, q.b * x), float(np.hypot(q.a, q.b * x))
                assert x == rx and abs(ours_h - ref_h) <= math.ulp(ref_h), (mine.name, k, pair)
                scale = math.sqrt(1.0 - q.b**2)
                assert (abs(y), abs(ry)) == (ours_h / scale, ref_h / scale), (mine.name, k, pair)
            else:
                assert (repr(x), repr(y)) == (repr(rx), repr(ry)), (mine.name, k, pair)


def _hypot_rows(q, names, re):
    """The (segment, row) pairs whose height the reference took from np.hypot."""
    wide = np.flatnonzero(~np.isfinite(_np_formula(q, np.asarray(re, dtype=float))))
    return {(name, int(k)) for name in names for k in wide}


_SIZE = st.integers(2, 48)
# every magnitude from the subnormals to the largest double, and ordinary ones often
_ANY = st.one_of(st.floats(0.0, 10.0), st.floats(0.0, _MAX))
_CLIP = st.one_of(st.floats(1e-3, 1e3), st.floats(5e-324, _MAX)).filter(lambda c: c > 0.0)
_SIGNED = st.one_of(st.floats(-10.0, 10.0), st.floats(-_MAX, _MAX))


class TestLinspace:
    @given(start=_SIGNED, stop=_SIGNED, num=st.integers(2, 300))
    @settings(max_examples=200, deadline=None)
    def test_bits_of_np_linspace_and_halved_where_the_span_overflows(self, start, stop, num):
        ours = regions._linspace(start, stop, num)
        with np.errstate(over="ignore", invalid="ignore"):
            ref = np.linspace(start, stop, num)
            if not np.isfinite(ref).all():
                assert math.isinf(stop - start)
                ref = 2.0 * np.linspace(0.5 * start, 0.5 * stop, num)
        assert [repr(x) for x in ours] == [repr(float(x)) for x in ref]
        assert all(map(math.isfinite, ours))

    @pytest.mark.parametrize("start, stop, num", [
        (0.0, 5e-324, 7), (-5e-324, 5e-324, 5), (1.0, 1.0, 4), (-_MAX, _MAX, 3), (_MAX, -_MAX, 6),
    ])
    def test_edge_cases(self, start, stop, num):
        with np.errstate(over="ignore", invalid="ignore"):
            ref = np.linspace(start, stop, num)
        if math.isinf(stop - start):
            ref = 2.0 * np.linspace(0.5 * start, 0.5 * stop, num)
        assert [repr(x) for x in regions._linspace(start, stop, num)] == [repr(float(x)) for x in ref]


class TestSamplersMatchNumpy:
    @given(a=_ANY, b=st.floats(0.0, 0.999), clip=_CLIP, resolution=_SIZE)
    @settings(max_examples=150, deadline=None)
    def test_hyperbola(self, a, b, clip, resolution):
        q = QuadBound(a, b)
        ours = _run(regions.hyperbola_boundary, q, resolution, clip)
        ref = _reference(np_hyperbola_boundary, q, resolution, clip)
        if ref is None:
            assert ours is None or _finite(ours)
            return
        _assert_same_rows(ours, ref, q, _hypot_rows(q, ("upper", "lower"), ref[0].re))

    @given(lo=_SIGNED, hi=_SIGNED, clip=_CLIP, resolution=_SIZE)
    @settings(max_examples=150, deadline=None)
    def test_strip(self, lo, hi, clip, resolution):
        # four sides, counter-clockwise, each the _linspace between its two
        # corners (checked against np.linspace above); the corners are exact
        assume(lo < hi)
        corners = [(lo, -clip), (hi, -clip), (hi, clip), (lo, clip), (lo, -clip)]
        ours = regions.strip_boundary(lo, hi, resolution, clip)
        assert [s.name for s in ours] == ["bottom", "right", "top", "left"]
        assert _finite(ours)
        for side, start, stop in zip(ours, corners, corners[1:]):
            assert len(side.re) == len(side.im) == resolution
            assert (side.re[0], side.im[0]) == start and (side.re[-1], side.im[-1]) == stop
            assert list(side.re) == regions._linspace(start[0], stop[0], resolution)
            assert list(side.im) == regions._linspace(start[1], stop[1], resolution)
        # the horizontal sides keep Im = -+clip, the vertical ones Re = hi, lo
        assert set(ours[0].im) == {-clip} and set(ours[2].im) == {clip}
        assert set(ours[1].re) == {hi} and set(ours[3].re) == {lo}

    @pytest.mark.parametrize("lo, hi, resolution, clip, rows", [
        (1.0, 2.0, 2, 20.0, [(1.0, -20.0), (2.0, -20.0), (2.0, -20.0), (2.0, 20.0),
                             (2.0, 20.0), (1.0, 20.0), (1.0, 20.0), (1.0, -20.0)]),
        (1.0, 2.0, 3, 20.0, [(1.0, -20.0), (1.5, -20.0), (2.0, -20.0), (2.0, -20.0), (2.0, 0.0), (2.0, 20.0),
                             (2.0, 20.0), (1.5, 20.0), (1.0, 20.0), (1.0, 20.0), (1.0, 0.0), (1.0, -20.0)]),
        # a width far below the height's rounding keeps its corners apart
        (1.0, 2.0, 3, 1e20, [(1.0, -1e20), (1.5, -1e20), (2.0, -1e20), (2.0, -1e20), (2.0, 0.0), (2.0, 1e20),
                             (2.0, 1e20), (1.5, 1e20), (1.0, 1e20), (1.0, 1e20), (1.0, 0.0), (1.0, -1e20)]),
        # 2 * clip overflows: the vertical sides are taken at half scale and doubled
        (1.0, 2.0, 3, 1e308, [(1.0, -1e308), (1.5, -1e308), (2.0, -1e308), (2.0, -1e308), (2.0, 0.0),
                              (2.0, 1e308), (2.0, 1e308), (1.5, 1e308), (1.0, 1e308), (1.0, 1e308),
                              (1.0, 0.0), (1.0, -1e308)]),
    ])
    def test_strip_rows(self, lo, hi, resolution, clip, rows):
        segments = regions.strip_boundary(lo, hi, resolution, clip)
        assert [(x, y) for s in segments for x, y in zip(s.re, s.im)] == rows
        assert [s.name for s in segments for _ in s.re] == [
            name for name in ("bottom", "right", "top", "left") for _ in range(resolution)
        ]

    @given(r_eps=_ANY, half_angle=st.floats(1e-6, math.pi / 2 - 1e-6), clip=_CLIP, resolution=_SIZE)
    @settings(max_examples=100, deadline=None)
    def test_sector(self, r_eps, half_angle, clip, resolution):
        cover = GKCover(r_eps, half_angle)
        ours = _run(regions.sector_boundary, cover, resolution, clip)
        ref = _reference(np_sector_boundary, cover, resolution, clip)
        if ref is None:
            assert ours is None or _finite(ours)
            return
        _assert_same_rows(ours, ref)

    @given(c1=_ANY, c2=st.floats(0.0, 0.49), mass=_ANY.filter(lambda m: m > 0.0), clip=_CLIP,
           resolution=_SIZE)
    @settings(max_examples=100, deadline=None)
    def test_coulomb(self, c1, c2, mass, clip, resolution):
        try:
            region = dirac3d_coulomb(CoulombSpec(c1, c2, mass))
        except ConditionNotApplicable:
            assume(False)
        ours = _run(regions.coulomb_boundary, region, resolution, clip)
        ref = _reference(np_coulomb_boundary, region, resolution, clip)
        if ref is None:
            assert ours is None or _finite(ours)
            return
        q = region.quad
        arcs = ("right-upper", "right-lower", "left-upper", "left-lower")
        if not np.isfinite(_np_formula(q, np.array([region.halfwidth]))[0]):
            # h0 came from hypot: within an ulp of the reference's, and the
            # chords are np.linspace over it
            h0 = ours[0].im[-1]
            assert abs(h0 - ref[0].im[-1]) <= math.ulp(h0)
            chord = tuple(float(y) for y in np.linspace(-h0, h0, resolution))
            ref = tuple(Segment(s.name, s.re, chord) if s.name.endswith("chord") else s for s in ref)
        _assert_same_rows(ours, ref, q, _hypot_rows(q, arcs, ref[1].re))

    def test_csv_text_equals_the_reference_on_ordinary_inputs(self):
        cases = [
            (regions.hyperbola_boundary, np_hyperbola_boundary, (QuadBound(1.0, 0.3), 400, 13.0)),
            (regions.sector_boundary, np_sector_boundary, (GKCover(2.0, 0.4), 256, 20.0)),
            (regions.coulomb_boundary, np_coulomb_boundary,
             (dirac3d_coulomb(CoulombSpec(0.2, 0.1, 1.0)), 256, 10.0)),
        ]
        for ours, ref, args in cases:
            assert segments_to_csv(ours(*args)) == segments_to_csv(ref(*args)), ours.__name__


class TestEnvelopeGrid:
    @given(lo_exp=st.floats(-300.0, 300.0), span=st.floats(1e-6, 600.0), samples=st.integers(2, 400))
    @settings(max_examples=100, deadline=None)
    def test_log_grid_matches_geomspace(self, lo_exp, span, samples):
        lo, hi = 10.0**lo_exp, 10.0 ** min(lo_exp + span, 307.0)
        assume(lo < hi)
        grid = _log_grid(lo, hi, samples)
        assert (grid[0], grid[-1], len(grid)) == (lo, hi, samples)
        assert grid == pytest.approx(np_envelope_grid(lo, hi, samples).tolist(), rel=1e-13)

    @given(vnorm=st.floats(0.05, 20.0), p=st.floats(2.2, 50.0), samples=st.integers(2, 400),
           b_min=st.none() | st.floats(1e-8, 0.1), b_max=st.none() | st.floats(0.2, 3.0))
    @settings(max_examples=80, deadline=None)
    def test_rows_are_the_numpy_formula_at_the_grid(self, vnorm, p, samples, b_min, b_max):
        spec = DiracSpec(vnorm, p)
        curve = dirac2d_envelope(spec, samples, b_min=b_min, b_max=b_max)
        re, im = np_envelope_rows(spec, curve.b)
        assert curve.re == pytest.approx(re.tolist(), rel=1e-13)
        assert curve.im == pytest.approx(im.tolist(), rel=1e-13)
        assert curve.clipped == any(_envelope_xy(spec, b)[0] < 0.0 for b in curve.b)

    @pytest.mark.parametrize("vnorm, p, samples", [(1.0, 5.0, 200), (0.3, 2.5, 16), (2.0, 8.0, 256), (1.3, 4.5, 25)])
    def test_default_curve_matches_the_numpy_reference(self, vnorm, p, samples):
        # near the real-axis crossing x(b) cancels, so an ulp of b moves x by
        # far more than an ulp; at the default grid's spacing it stays below 1e-13
        spec = DiracSpec(vnorm, p)
        curve = dirac2d_envelope(spec, samples)
        cap = _envelope_b_max(p)
        b = np_envelope_grid(1e-3 * cap, cap, samples)
        re, im = np_envelope_rows(spec, b)
        assert curve.b == pytest.approx(b.tolist(), rel=1e-13)
        assert curve.re == pytest.approx(re.tolist(), rel=1e-13)
        assert curve.im == pytest.approx(im.tolist(), rel=1e-13)

    @given(vnorm=st.floats(0.05, 20.0), p=st.floats(2.2, 50.0), clip=st.floats(1e-3, 1e6),
           resolution=st.integers(2, 300))
    @settings(max_examples=80, deadline=None)
    def test_region_arm_is_the_numpy_formula_at_a_geomspace_grid(self, vnorm, p, clip, resolution):
        spec = DiracSpec(vnorm, p)
        (seg,) = regions.envelope_boundary(spec, resolution, clip)
        b = _log_grid(_envelope_b_at(p, dirac2d_cp(spec), clip)[0], _envelope_b_max(p), resolution)
        assert b == pytest.approx(np_envelope_grid(b[0], b[-1], resolution).tolist(), rel=1e-13)
        re, im = np_envelope_rows(spec, b)
        assert seg.re == pytest.approx(re.tolist(), rel=1e-13)
        assert seg.im == pytest.approx(im.tolist(), rel=1e-13)

    def test_overflow_is_not_applicable_for_a_curve_and_a_float_error_for_a_segment(self):
        spec = DiracSpec(1.0, 2.01)
        with pytest.raises(ConditionNotApplicable, match="representable"):
            dirac2d_envelope(spec, 3)
        with pytest.raises(ConditionNotApplicable, match="representable"):
            dirac2d_envelope(DiracSpec(1.0, 5.0), 4, b_min=1e-300)
        with pytest.raises(FloatingPointError):
            regions._seg("p=5", [1.0, math.inf], [0.0, 1.0])


class TestEnvelopeAbscissa:
    """The envelope's bisection and curve evaluate x(b) and y(b) with C_p computed once per call."""

    @staticmethod
    def _outcome(fn, *args):
        """The bits of what fn returns, or the type and message of what it raised."""
        try:
            out = fn(*args)
        except (ArithmeticError, ConditionNotApplicable) as exc:
            return type(exc), str(exc)
        return tuple(x.hex() for x in out) if isinstance(out, tuple) else out.hex()

    @staticmethod
    def _ref_im_at_re(spec, re):
        lo, hi = ref_envelope_b_at(spec, re)
        try:
            return math.sqrt(_envelope_xy(spec, math.sqrt(lo * hi))[1])
        except ArithmeticError:
            # a height past the double range is a domain answer, as the bisection's overflow is
            raise ConditionNotApplicable(f"re={re!r} beyond the representable envelope range") from None

    @given(vnorm=st.floats(0.05, 20.0), p=st.floats(2.01, 50.0),
           re=st.floats(0.0, 1e6) | st.floats(0.0, 1e300))
    # at re = 0 here x(b) overflows while y(b) rounds to inf, so only x refuses the height
    @example(vnorm=1.472, p=2.01, re=0.0)
    @settings(max_examples=200, deadline=None)
    def test_bisection_bits(self, vnorm, p, re):
        spec = DiracSpec(vnorm, p)
        assert self._outcome(_envelope_b_at, p, dirac2d_cp(spec), re) == self._outcome(ref_envelope_b_at, spec, re)
        assert self._outcome(envelope_im_at_re, spec, re) == self._outcome(self._ref_im_at_re, spec, re)

    @given(vnorm=st.floats(0.05, 20.0), p=st.floats(2.2, 50.0), clip=st.floats(1e-3, 1e6),
           resolution=st.integers(2, 300))
    @settings(max_examples=100, deadline=None)
    def test_arm_computes_cp_once(self, vnorm, p, clip, resolution):
        # one dirac2d_cp call per arm, and the rows of the arm as first written (C_p at every point)
        spec = DiracSpec(vnorm, p)
        calls = []

        def counted(s):
            calls.append(s)
            return dirac2d_cp(s)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(applications, "dirac2d_cp", counted)
            (seg,) = regions.envelope_boundary(spec, resolution, clip)
        assert calls == [spec]
        b = _log_grid(_envelope_b_at(p, dirac2d_cp(spec), clip)[0], _envelope_b_max(p), resolution)
        xy = [_envelope_xy(spec, v) for v in b]
        assert seg.re == tuple(math.sqrt(max(x, 0.0)) for x, _ in xy)
        assert seg.im == tuple(math.sqrt(y) for _, y in xy)

    @given(vnorm=st.floats(0.05, 20.0), p=st.floats(2.2, 50.0), samples=st.integers(2, 100))
    @settings(max_examples=100, deadline=None)
    def test_curve_bits(self, vnorm, p, samples):
        spec = DiracSpec(vnorm, p)
        curve = dirac2d_envelope(spec, samples)
        xy = [_envelope_xy(spec, b) for b in curve.b]
        assert curve.re == tuple(math.sqrt(max(x, 0.0)) for x, _ in xy)
        assert curve.im == tuple(math.sqrt(y) for _, y in xy)
