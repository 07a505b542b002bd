"""Preset families: frozen constants, envelope geometry, channel bounds."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapcert.applications import (
    CoulombSpec,
    DiracSpec,
    ManifoldSpec,
    TwoChannelSpec,
    dirac2d_constants,
    dirac2d_cp,
    dirac2d_envelope,
    dirac3d_coulomb,
    envelope_im_at_re,
    manifold_relbounds,
    two_channel_bound,
)
from gapcert.blocks import BlockMinima, OffDiagBounds, even_lowerbound
from gapcert.enclosures import QuadBound, hyperbola_excluded, symmetric_gap_strip
from gapcert.errors import ConditionNotApplicable
from gapcert.gap_sequences import powerlaw_example
from gapcert import regions
from gapcert.regions import envelope_boundary


class TestPlanarConstants:
    def test_cp_frozen_value(self):
        # v=1, p=4: (2 pi)^(-1/2) * pi^(1/4)
        want = (2.0 * math.pi) ** -0.5 * math.pi**0.25
        assert dirac2d_cp(DiracSpec(1.0, 4.0)) == pytest.approx(want, rel=1e-15)

    def test_t_one_gives_cp_twice(self):
        spec = DiracSpec(1.0, 4.0)
        q = dirac2d_constants(spec, t=1.0)
        cp = dirac2d_cp(spec)
        assert q.a == pytest.approx(cp, rel=1e-15)
        assert q.b == pytest.approx(cp, rel=1e-15)

    def test_reparametrization_inverts(self):
        spec = DiracSpec(2.0, 5.0)
        cp = dirac2d_cp(spec)
        for b in np.geomspace(1e-3, 0.9, 20):
            t = (b / cp) ** (spec.p / (spec.p - 2.0))
            via_t = dirac2d_constants(spec, t=t)
            via_b = dirac2d_constants(spec, b=float(b))
            assert via_t.b == pytest.approx(b, rel=1e-12)
            assert via_b.a == pytest.approx(via_t.a, rel=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DiracSpec(1.0, 2.0)
        with pytest.raises(ValueError):
            DiracSpec(0.0, 5.0)
        spec = DiracSpec(1.0, 5.0)
        with pytest.raises(ValueError):
            dirac2d_constants(spec)
        with pytest.raises(ValueError):
            dirac2d_constants(spec, t=1.0, b=0.5)
        with pytest.raises(ValueError):
            dirac2d_constants(spec, t=-1.0)


class TestEnvelope:
    def test_defining_system(self):
        """Each sampled point solves the tangency system to 1e-8."""
        spec = DiracSpec(1.5, 5.0)
        cp = dirac2d_cp(spec)
        p = spec.p
        curve = dirac2d_envelope(spec, 80)
        for b, re, im in zip(curve.b, curve.re, curve.im):
            x, y = re * re, im * im
            a = cp ** (p / (p - 2.0)) * b ** (-2.0 / (p - 2.0))
            da = -(2.0 / (p - 2.0)) * cp ** (p / (p - 2.0)) * b ** (-2.0 / (p - 2.0) - 1.0)
            r1 = (1.0 - b * b) * y - (a * a + b * b * x)
            r2 = -b * y - (a * da + b * x)
            scale = max(1.0, abs(y), abs(x))
            assert abs(r1) <= 1e-8 * scale
            assert abs(r2) <= 1e-8 * scale

    def test_asymptote_ratio_identity(self):
        """im^2 / (coeff^2 re^(4/p)) equals (1 - p b^2/2)^(-2/p) exactly."""
        spec = DiracSpec(0.7, 6.0)
        curve = dirac2d_envelope(spec, 50, b_max=0.9 * math.sqrt(2.0 / 6.0))
        for b, re, im in zip(curve.b, curve.re, curve.im):
            lhs = im * im / (curve.asymptote_coeff**2 * re ** (4.0 / spec.p))
            rhs = (1.0 - spec.p * b * b / 2.0) ** (-2.0 / spec.p)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_asymptote_approached_at_large_re(self):
        spec = DiracSpec(1.0, 5.0)
        curve = dirac2d_envelope(spec, 400, b_min=1e-6)
        big = [k for k, re in enumerate(curve.re) if re >= 1e3]
        assert big
        for k in big:
            pred = curve.asymptote_coeff * curve.re[k] ** curve.asymptote_exponent
            assert curve.im[k] == pytest.approx(pred, rel=1e-2)

    def test_monotone_and_nested(self):
        """Larger p gives the inner curve once |Re z| clears the crossover.

        Near the imaginary axis the ordering flips (the p=7 envelope is
        higher at re=0); the nesting is the large-|Re z| statement.
        """
        p5 = DiracSpec(1.0, 5.0)
        p7 = DiracSpec(1.0, 7.0)
        assert envelope_im_at_re(p7, 0.0) > envelope_im_at_re(p5, 0.0)
        for re in [1.5, 2.0, 5.0, 25.0, 100.0, 1e4]:
            assert envelope_im_at_re(p7, re) < envelope_im_at_re(p5, re)

    def test_im_at_re_matches_polyline(self):
        spec = DiracSpec(1.3, 4.5)
        curve = dirac2d_envelope(spec, 25)
        for re, im in zip(curve.re, curve.im):
            assert envelope_im_at_re(spec, re) == pytest.approx(im, rel=1e-9)

    def test_region_boundary_in_re_im(self):
        """The region sampler emits (Re z, Im z) on the envelope, cut at |Re z| = clip."""
        spec = DiracSpec(1.0, 5.0)
        (seg,) = envelope_boundary(spec, 9, 70.0)
        assert seg.re[-1] == 0.0
        assert seg.im[-1] == envelope_im_at_re(spec, 0.0)
        assert seg.im[-1] == pytest.approx(0.6584, abs=1e-4)
        assert seg.re[0] == pytest.approx(70.0, rel=1e-12)
        for re, im in zip(seg.re, seg.im):
            assert envelope_im_at_re(spec, re) == pytest.approx(im, rel=1e-9)

    def test_overflowing_curve_is_not_applicable(self):
        """The sampled curve near p = 2 overflows at small b: a domain answer, no warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConditionNotApplicable, match="representable"):
                dirac2d_envelope(DiracSpec(1.0, 2.01), 3)
            # huge but finite samples are kept as they are
            curve = dirac2d_envelope(DiracSpec(1.0, 2.05), 3)
        assert curve.re == (1.196386669002097e+134, 3.781416600447368e+72, 0.0)
        assert curve.im == (1.1963872671958803e+131, 1.1963872671952845e+71, 119638726719.46994)

    def test_beyond_representable_range_is_not_applicable(self):
        """Near p = 2 the envelope abscissa overflows a double before reaching re."""
        spec = DiracSpec(1.0, 2.01)
        with pytest.raises(ConditionNotApplicable, match="representable"):
            envelope_im_at_re(spec, 1e-6)
        with pytest.raises(ConditionNotApplicable, match="representable"):
            envelope_boundary(spec, 4, 10.0)

    def test_clipping_reported(self):
        spec = DiracSpec(1.0, 5.0)
        inside = dirac2d_envelope(spec, 30)
        assert not inside.clipped
        over = dirac2d_envelope(spec, 30, b_max=0.99)
        assert over.clipped
        assert min(over.re) == 0.0

    def test_boundary_of_intersection(self):
        """Envelope points avoid every member region; inflated points do not."""
        spec = DiracSpec(1.0, 5.0)
        curve = dirac2d_envelope(spec, 40, b_min=1e-2)
        b_grid = np.geomspace(1e-4, 0.999, 400)
        quads = [dirac2d_constants(spec, b=float(b)) for b in b_grid]
        for re, im in zip(curve.re, curve.im):
            on = complex(re, im * (1.0 - 1e-9))
            outside = complex(re, im * 1.01)
            assert not any(hyperbola_excluded(q, on) for q in quads)
            assert any(hyperbola_excluded(q, outside) for q in quads)

    def test_sample_validation(self):
        spec = DiracSpec(1.0, 5.0)
        with pytest.raises(ValueError):
            dirac2d_envelope(spec, 1)
        with pytest.raises(ValueError):
            dirac2d_envelope(spec, 10, b_min=0.5, b_max=0.1)


class TestCoulomb:
    def test_worked_example(self):
        region = dirac3d_coulomb(CoulombSpec(0.0, 0.2, 1.0))
        assert region.halfwidth == pytest.approx(0.6, rel=1e-14)
        assert region.bisectorial

    def test_rejects_wide_potential(self):
        with pytest.raises(ConditionNotApplicable):
            dirac3d_coulomb(CoulombSpec(1.0, 0.0, 0.5))

    def test_pure_bounded_part_matches_symmetric_gap(self):
        # C2 = 0 must reproduce the unstructured symmetric-gap result exactly
        for c1, m in [(0.3, 1.0), (0.0, 2.0), (1.4, 1.5)]:
            region = dirac3d_coulomb(CoulombSpec(c1, 0.0, m))
            direct = symmetric_gap_strip(QuadBound(c1, 0.0), m)
            assert region.gap == direct
            assert region.halfwidth == direct.beta_pert

    def test_certified_free_predicate(self):
        region = dirac3d_coulomb(CoulombSpec(0.1, 0.1, 1.0))
        assert region.certified_free(0.0)
        assert region.certified_free(complex(region.halfwidth * 0.99, 5.0))
        assert region.certified_free(complex(2.0, 100.0))
        assert not region.certified_free(complex(1.0, 0.0))
        assert not region.certified_free(complex(-1.2, 0.05))


class TestHyperbolaHeight:
    @given(a=st.floats(0.0, 1e150), b=st.floats(0.0, 0.99), re=st.floats(-1e300, 1e300))
    @settings(max_examples=300, deadline=None)
    def test_formula_bits_where_finite_and_finite_where_it_overflows(self, a, b, re):
        re_arr = np.array([re])
        with np.errstate(over="ignore", invalid="ignore"):
            formula = float(np.sqrt((a**2 + b**2 * re_arr**2) / (1.0 - b**2))[0])
        with np.errstate(over="raise", invalid="raise"):
            height = float(regions._hyperbola_height(QuadBound(a, b), re_arr)[0])
        if math.isfinite(formula):
            assert height == formula
        else:
            assert height == pytest.approx(math.hypot(a, b * re) / math.sqrt(1.0 - b * b), rel=1e-15)


class TestManifold:
    def test_pointwise_frozen_values(self):
        spec = ManifoldSpec(1.0, 4.0, 1, 0.5)
        mb = manifold_relbounds(spec, 2)
        kappa = (4.0 * math.pi) ** -0.25
        assert mb.pointwise.a == pytest.approx(kappa * math.sqrt(3.0), rel=1e-14)
        assert mb.pointwise.b == pytest.approx(kappa / (2.0 * math.sqrt(2.0)), rel=1e-14)

    def test_models_capture_large_n_behaviour(self):
        spec = ManifoldSpec(2.0, 6.0, 1, 0.3)
        slope = 2.0 * (4.0 * math.pi) ** (-1.0 / 6.0) / 2.0
        n = 10**6
        mb = manifold_relbounds(spec, n)
        assert mb.pointwise.b * n == pytest.approx(slope, rel=1e-12)
        assert mb.pointwise.a / n == pytest.approx(slope, rel=1e-9)
        assert mb.a_model.coeff == pytest.approx(slope, rel=1e-14)
        assert mb.b_model.power == -1.0

    def test_band_models_by_case(self):
        one = manifold_relbounds(ManifoldSpec(1.0, 5.0, 1, 0.4), 3)
        two = manifold_relbounds(ManifoldSpec(1.0, 5.0, 2, 0.4), 3)
        assert one.band_model.q1 == 2.0 and one.band_model.q2 == -0.4
        assert two.band_model.q1 == pytest.approx(1.6) and two.band_model.q2 == 0.0
        assert one.band_model.p1 == two.band_model.p1 == 2.0

    def test_pipeline_gives_finite_budget(self):
        """Composing with the power-law criterion certifies a scale window."""
        spec = ManifoldSpec(1.0, 4.0, 1, 0.5)
        mb = manifold_relbounds(spec, 2)
        out = powerlaw_example(mb.band_model, mb.a_model, mb.b_model)
        slope = (4.0 * math.pi) ** -0.25 / math.sqrt(2.0)
        assert out.kappa_bound == pytest.approx(2.0 * slope, rel=1e-12)
        assert 0.0 < out.eps0 < math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            ManifoldSpec(1.0, 2.0, 1, 0.5)
        with pytest.raises(ValueError):
            ManifoldSpec(1.0, 4.0, 3, 0.5)
        with pytest.raises(ValueError):
            ManifoldSpec(1.0, 4.0, 1, 1.0)
        with pytest.raises(ValueError):
            manifold_relbounds(ManifoldSpec(1.0, 4.0, 1, 0.5), 1)


def _unit_spec(d: int, p: float, v: float, p0: float, lin: float, quad: float) -> TwoChannelSpec:
    return TwoChannelSpec(
        d=d,
        p=p,
        v12_norm=v,
        p0=p0,
        p1=(lin,) * d,
        p2=(quad,) * (d * (d + 1) // 2),
    )


class TestTwoChannel:
    def test_gamma_beta_oracles(self):
        # the special-function route used for C_p, against factorials
        assert math.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        for n in range(1, 10):
            assert math.gamma(n) == pytest.approx(math.factorial(n - 1), rel=1e-13)
        for x, y in [(1.5, 1.0), (0.5, 2.0), (1.0, 3.5), (2.5, 0.75)]:
            direct = math.gamma(x) * math.gamma(y) / math.gamma(x + y)
            via_l = math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))
            assert via_l == pytest.approx(direct, rel=1e-10)

    def test_cp_frozen_value(self):
        # d=3, p=2.5: B(1.5, 1) = 2/3 and 2 pi^1.5 / Gamma(1.5) = 4 pi,
        # so C_p = v * (2 pi)^(-1.2) * (8 pi / 3)
        out = two_channel_bound(_unit_spec(3, 2.5, 1.0, 0.0, 0.0, 0.0))
        want = (2.0 * math.pi) ** -1.2 * 8.0 * math.pi / 3.0
        assert out.c_p == pytest.approx(want, rel=1e-12)

    def test_zero_inputs_give_zero_bound(self):
        silent = two_channel_bound(_unit_spec(3, 2.5, 0.0, 0.5, 0.3, 0.2))
        assert silent.c_p == 0.0
        assert silent.lower_bound == 0.0
        confined = two_channel_bound(_unit_spec(2, 2.0, 1.0, 0.0, 0.0, 0.0))
        assert confined.b21 == 0.0
        assert confined.lower_bound == 0.0

    def test_b21_formula(self):
        # d=2: b21^2 = 2 p0^2/4 + (p1a^2+p1b^2)/2 + 2(three quadratic terms)
        spec = TwoChannelSpec(2, 3.0, 1.0, 1.0, (1.0, 2.0), (0.5, 0.5, 1.0))
        out = two_channel_bound(spec)
        want = math.sqrt(0.5 + 2.5 + 2.0 * 1.5)
        assert out.b21 == pytest.approx(want, rel=1e-14)

    @given(scale=st.floats(0.1, 5.0), bump=st.floats(1e-3, 2.0))
    @settings(max_examples=60)
    def test_monotone_in_every_parameter(self, scale, bump):
        base = _unit_spec(2, 3.0, scale, 0.4, 0.3, 0.2)
        ref = two_channel_bound(base).lower_bound
        grown = [
            _unit_spec(2, 3.0, scale + bump, 0.4, 0.3, 0.2),
            _unit_spec(2, 3.0, scale, 0.4 + bump, 0.3, 0.2),
            _unit_spec(2, 3.0, scale, 0.4, 0.3 + bump, 0.2),
            _unit_spec(2, 3.0, scale, 0.4, 0.3, 0.2 + bump),
        ]
        for spec in grown:
            assert two_channel_bound(spec).lower_bound <= ref + 1e-15

    def test_matches_even_structure_infimum(self):
        """The closed form is the b -> 1/b21 limit of the block lower bound."""
        spec = _unit_spec(3, 2.5, 0.8, 0.3, 0.2, 0.1)
        out = two_channel_bound(spec)
        d = float(spec.d)
        exponent = 2.0 * spec.p / (2.0 * spec.p - d)
        best = -math.inf
        for frac in np.linspace(0.5, 1.0 - 1e-9, 200):
            b12 = frac / out.b21
            a12 = out.c_p**exponent * b12 ** (-d / (2.0 * spec.p - d))
            got = even_lowerbound(
                OffDiagBounds(a12, b12, 0.0, out.b21), BlockMinima(d, 0.0)
            )
            best = max(best, got)
        assert best == pytest.approx(out.lower_bound, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            _unit_spec(0, 3.0, 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            _unit_spec(3, 1.4, 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            _unit_spec(5, 2.0, 1.0, 0.0, 0.0, 0.0)  # needs p > 5/2
        with pytest.raises(ValueError):
            TwoChannelSpec(2, 3.0, 1.0, 0.0, (1.0,), (0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            TwoChannelSpec(2, 3.0, 1.0, 0.0, (1.0, 1.0), (0.0,))
        with pytest.raises(ValueError):
            TwoChannelSpec(2, 3.0, -1.0, 0.0, (0.0, 0.0), (0.0, 0.0, 0.0))
