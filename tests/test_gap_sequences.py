"""Tests for the gap-sequence criteria."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gapcert.enclosures import Gap, QuadBound, perturbed_strip
from gapcert.errors import ConditionNotApplicable
from gapcert.gap_sequences import (
    BandProfile,
    ConstModel,
    GapSequence,
    GrowthTerm,
    PerGapConstants,
    TailModel,
    Verdict,
    kappa_s,
    necessary_growth_check,
    per_gap_criterion,
    powerlaw_example,
    ratio_criterion,
)


def linear_endpoints(n: int) -> GapSequence:
    return GapSequence(tuple(float(k) for k in range(1, n + 1)), tuple(float(k + 1) for k in range(1, n + 1)))


class TestGrowthTerm:
    def test_limit_table(self):
        cases = [
            (GrowthTerm(3.0, 1.0, -0.5, 4.0), 0.0),
            (GrowthTerm(3.0, 1.0, 0.0, -0.1), 0.0),
            (GrowthTerm(3.0, 1.0, 0.0, 0.0), 3.0),
            (GrowthTerm(3.0, 1.0, 0.0, 0.2), math.inf),
            (GrowthTerm(3.0, 1.0, 0.1, -9.0), math.inf),
            (GrowthTerm(0.0, 2.0, 5.0, 5.0), 0.0),
            (GrowthTerm(1.0, 2.0, -9.0, 0.0), math.inf),
            (GrowthTerm(1.0, 0.5, 9.0, 0.0), 0.0),
        ]
        for term, expected in cases:
            assert term.limit() == expected

    def test_limits_agree_with_large_n_evaluation(self):
        term = GrowthTerm(2.0, 1.0, -1.0, 3.0)
        assert term.limit() == 0.0
        assert term.value(10**9) < 1e-4

    def test_arithmetic(self):
        t = GrowthTerm(2.0, 1.0, 1.5, -1.0).times(GrowthTerm(3.0, 1.0, -0.5, 2.0))
        assert (t.coeff, t.power, t.log_power) == (6.0, 1.0, 1.0)


class TestSequences:
    def test_profile_roundtrip_sum_identity(self):
        # integer data keeps the telescoping sum exact in floats
        seq = GapSequence((1.0, 4.0, 9.0, 16.0), (2.0, 6.0, 11.0, 20.0))
        prof = seq.profile()
        for n in range(len(seq)):
            partial = math.fsum(prof.lengths[:n]) + math.fsum(prof.widths[:n])
            assert partial == seq.alphas[n] - seq.alphas[0]
        back = prof.to_sequence(seq.alphas[0])
        assert back == seq

    def test_rejects_overlapping_gaps(self):
        with pytest.raises(ValueError):
            GapSequence((0.0, 1.0), (2.0, 3.0))

    def test_touching_gaps_allowed(self):
        seq = GapSequence((0.0, 1.0), (1.0, 2.0))
        assert seq.widths == (0.0,)


class TestRatioCriterion:
    def test_geometric_doubling_verdicts(self):
        model = TailModel("geometric", ratio=2.0, band_ratio=2.0)
        for delta in (0.0, 0.1, 0.3):
            res = ratio_criterion(model, delta)
            assert res.exact
            assert res.liminf == res.limsup == 2.0
            assert res.verdict is Verdict.COFINITELY_MANY

    def test_geometric_threshold_example(self):
        res = ratio_criterion(TailModel("geometric", ratio=2.0, band_ratio=2.0), 0.2)
        assert res.threshold == pytest.approx(1.5)
        assert res.verdict is Verdict.COFINITELY_MANY

    def test_polynomial_growth_is_inconclusive(self):
        alpha_n = TailModel("power-log", p1=0.0, q1=0.0, width_prefactor=0.0)
        alpha_n_sq = TailModel("power-log", p1=1.0, q1=0.0, length_prefactor=2.0, width_prefactor=0.0)
        for model in (alpha_n, alpha_n_sq):
            for delta in (0.0, 0.1, 0.3):
                res = ratio_criterion(model, delta)
                assert res.exact and res.liminf == res.limsup == 1.0
                assert res.verdict is Verdict.INCONCLUSIVE

    def test_finite_data_doubling(self):
        alphas = tuple(2.0**n for n in range(1, 21))
        seq = GapSequence(alphas, tuple(2 * a for a in alphas))
        res = ratio_criterion(seq, 0.2)
        assert not res.exact
        assert res.verdict is Verdict.COFINITELY_MANY

    def test_delta_at_least_one_rejected(self):
        with pytest.raises(ConditionNotApplicable):
            ratio_criterion(linear_endpoints(10), 1.0)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            ratio_criterion(linear_endpoints(10), -0.1)


class TestPerGap:
    def test_zero_constants_cofinite(self):
        seq = linear_endpoints(20)
        res = per_gap_criterion(seq, PerGapConstants((0.0,) * 20, (0.0,) * 20))
        assert res.verdict is Verdict.COFINITELY_MANY
        assert res.limsup == 0.0
        assert all(s.open for s in res.strips)

    def test_single_gap_degenerates_to_gap_condition(self):
        seq = GapSequence((0.0,), (3.0,))
        res = per_gap_criterion(seq, PerGapConstants((1.0,), (0.0,)))
        assert res.strips[0] == perturbed_strip(QuadBound(1.0, 0.0), Gap(0.0, 3.0))
        assert res.verdict is Verdict.COFINITELY_MANY
        closed = per_gap_criterion(seq, PerGapConstants((2.0,), (0.0,)))
        assert not closed.strips[0].open
        assert closed.verdict is Verdict.INCONCLUSIVE

    @given(
        a_seq=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=8),
        b_seq=st.lists(st.floats(0.0, 0.99), min_size=1, max_size=8),
        bad=st.lists(
            st.tuples(st.booleans(), st.integers(0, 7),
                      st.sampled_from([math.nan, math.inf]) | st.floats(max_value=0.0, exclude_max=True)),
            max_size=3,
        ),
        as_iterators=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_constants_refuse_the_first_bad_entry(self, a_seq, b_seq, bad, as_iterators):
        """NaN, +-inf or a negative entry anywhere: the error names the first one, a_seq before b_seq."""
        b_seq = b_seq[: len(a_seq)]
        a_seq = a_seq[: len(b_seq)]
        for in_a, pos, value in bad:
            seq = a_seq if in_a else b_seq
            seq[pos % len(seq)] = value
        first = next(((name, x) for name, seq in (("a_n", a_seq), ("b_n", b_seq))
                      for x in seq if not 0.0 <= x < math.inf), None)
        args = (iter(a_seq), iter(b_seq)) if as_iterators else (tuple(a_seq), tuple(b_seq))
        if first is None:
            consts = PerGapConstants(*args)
            assert consts == (tuple(a_seq), tuple(b_seq))
            return
        name, x = first
        with pytest.raises(ValueError) as info:
            PerGapConstants(*args)
        assert str(info.value) == f"{name} must be finite and nonnegative, got {x!r}"

    def test_strips_match_core_module(self):
        seq = GapSequence((1.0, 10.0), (4.0, 20.0))
        consts = PerGapConstants((0.5, 1.0), (0.1, 0.2))
        res = per_gap_criterion(seq, consts)
        for strip, (a, b), (alpha, beta) in zip(
            res.strips, zip(consts.a_seq, consts.b_seq), zip(seq.alphas, seq.betas)
        ):
            assert strip == perturbed_strip(QuadBound(a, b), Gap(alpha, beta))


class TestKappa:
    def test_analytic_zero_example(self):
        bands = TailModel("power-log", p1=2.0, q1=2.0)
        consts = ConstModel(GrowthTerm(1.0, 1.0, 1.0), GrowthTerm(1.0, 1.0, -2.0))
        assert kappa_s(bands, consts) == 0.0

    def test_analytic_constant_band_example(self):
        bands = TailModel("power-log", p1=0.0, q1=0.0, length_prefactor=1.5)
        consts = ConstModel(GrowthTerm(2.0), GrowthTerm(0.0))
        assert kappa_s(bands, consts) == pytest.approx(2 * 2.0 / 1.5)

    def test_finite_estimate_tracks_analytic_limit(self):
        n = 400
        lengths = tuple(float(k * k) for k in range(1, n + 1))
        widths = tuple(float(k * k) for k in range(1, n))
        a_seq = tuple(float(k) for k in range(1, n + 1))
        b_seq = tuple(min(0.9, k**-2.0) for k in range(1, n + 1))
        est = kappa_s(BandProfile(lengths, widths), PerGapConstants(a_seq, b_seq))
        assert est < 0.05

    def test_infinite_when_b_does_not_decay(self):
        bands = TailModel("power-log", p1=1.0, q1=1.0)
        consts = ConstModel(GrowthTerm(0.0), GrowthTerm(0.5, 1.0, 0.0))
        assert kappa_s(bands, consts) == math.inf

    @given(
        n=st.integers(40, 120),
        growth=st.floats(1.2, 3.0),
        a_scale=st.floats(0.0, 0.3),
        b_scale=st.floats(0.0, 0.4),
        alpha1=st.floats(0.0, 2.0),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_kappa_below_one_implies_limsup_condition(self, n, growth, a_scale, b_scale, alpha1, seed):
        rng = np.random.default_rng(seed)
        ks = np.arange(1, n + 1, dtype=float)
        lengths = ks**growth
        widths = rng.uniform(0.0, 1.0, n - 1) * ks[:-1] ** growth
        a_seq = a_scale * rng.uniform(0.5, 1.0, n) * ks
        b_seq = np.minimum(b_scale * rng.uniform(0.5, 1.0, n) / ks, 0.99)
        prof = BandProfile(tuple(lengths), tuple(widths))
        seq = prof.to_sequence(alpha1)
        consts = PerGapConstants(tuple(a_seq), tuple(b_seq))
        kappa = kappa_s(prof, consts)
        window = math.ceil(n / 4)
        slack = max(
            2.0 * b * alpha1 / l
            for b, l in zip(b_seq[-window:], lengths[-window:])
        )
        assume(kappa + slack < 1.0 - 1e-6)
        res = per_gap_criterion(seq, consts)
        assert res.limsup < 1.0
        assert res.verdict is Verdict.COFINITELY_MANY


class TestGrowthCheck:
    def test_linear_endpoints_flagged_for_positive_delta(self):
        model = TailModel("power-log", p1=0.0, q1=0.0, width_prefactor=0.0)
        diag = necessary_growth_check(model, 0.3)
        assert not diag.ok
        assert diag.failed_condition == "endpoint-ratio-growth"
        assert diag.details["threshold"] == pytest.approx(13.0 / 7.0)
        finite = necessary_growth_check(linear_endpoints(200), 0.3)
        assert not finite.ok

    def test_geometric_growth_passes(self):
        model = TailModel("geometric", ratio=3.0, band_ratio=2.0)
        assert necessary_growth_check(model, 0.3).ok

    def test_delta_zero_without_constants(self):
        diag = necessary_growth_check(linear_endpoints(50), 0.0)
        assert diag.ok and diag.failed_condition is None

    def test_delta_zero_bounded_lengths_unbounded_constants_fails(self):
        n = 100
        seq = BandProfile((2.0,) * n, (1.0,) * (n - 1)).to_sequence(0.0)
        consts = PerGapConstants(tuple(float(k) for k in range(1, n + 1)), (0.0,) * n)
        diag = necessary_growth_check(seq, 0.0, consts)
        assert not diag.ok
        assert diag.failed_condition == "gap-length-growth"

    def test_delta_zero_analytic(self):
        bands = TailModel("power-log", p1=2.0, q1=2.0)
        good = ConstModel(GrowthTerm(1.0, 1.0, 1.0), GrowthTerm(0.0))
        assert necessary_growth_check(bands, 0.0, good).ok
        bad = ConstModel(GrowthTerm(1.0, 1.0, 2.0), GrowthTerm(0.0))
        assert not necessary_growth_check(bands, 0.0, bad).ok


class TestPowerlawExample:
    def test_case_one_kappa_is_twice_a_prefactor(self):
        # l_n ~ n^2, w_n ~ n^2 (log n)^{-1/2}, a_n = A n^2, b_n = B n^{-2}
        model = TailModel("power-log", p1=2.0, p2=0.0, q1=2.0, q2=-0.5)
        for a_pref, b_pref in [(0.7, 0.3), (2.0, 1.0)]:
            res = powerlaw_example(
                model, GrowthTerm(a_pref, 1.0, 2.0), GrowthTerm(b_pref, 1.0, -2.0)
            )
            assert res.kappa_bound == pytest.approx(2.0 * a_pref, rel=1e-12)
            assert res.eps0 == pytest.approx((1.0 - 1e-6) / (2.0 * a_pref), rel=1e-12)

    def test_case_two_shorter_widths(self):
        model = TailModel("power-log", p1=2.0, p2=0.0, q1=1.5, q2=0.0)
        res = powerlaw_example(model, GrowthTerm(0.5, 1.0, 2.0), GrowthTerm(0.25, 1.0, -1.0))
        # b_n n and b_n n^{q1-p1+1} both contribute: 2*(0.5 + 0.25 + 0) with the
        # width term vanishing (power 0.5 - 1 < 0 after folding b)
        assert res.kappa_bound == pytest.approx(2.0 * (0.5 + 0.25), rel=1e-12)

    def test_zero_constants_unbounded_scale(self):
        model = TailModel("power-log", p1=2.0, q1=2.0)
        res = powerlaw_example(model, GrowthTerm(0.0), GrowthTerm(0.0))
        assert res.kappa_bound == 0.0
        assert math.isinf(res.eps0)

    def test_dominance_rejections(self):
        model = TailModel("power-log", p1=2.0, q1=2.0)
        with pytest.raises(ConditionNotApplicable):
            powerlaw_example(model, GrowthTerm(1.0, 1.0, 3.0), GrowthTerm(0.0))
        with pytest.raises(ConditionNotApplicable):
            powerlaw_example(model, GrowthTerm(0.0), GrowthTerm(1.0, 1.0, -0.5))
        with pytest.raises(ConditionNotApplicable):
            powerlaw_example(
                TailModel("power-log", p1=0.0, q1=1.0), GrowthTerm(0.0), GrowthTerm(0.0)
            )

    def test_scaled_family_respects_kappa_budget(self):
        # finite-data kappa of the scaled constants stays below 1 for eps < eps0
        model = TailModel("power-log", p1=2.0, p2=0.0, q1=2.0, q2=-0.5)
        a_pref, b_pref = 0.8, 0.2
        res = powerlaw_example(model, GrowthTerm(a_pref, 1.0, 2.0), GrowthTerm(b_pref, 1.0, -2.0))
        n = 600
        ks = np.arange(2, n + 2, dtype=float)
        lengths = ks**2
        widths = (ks**2 * np.log(ks) ** -0.5)[:-1]
        eps = 0.9 * res.eps0
        a_seq = eps * a_pref * ks**2
        b_seq = np.minimum(eps * b_pref / ks**2, 0.99)
        kappa_est = kappa_s(
            BandProfile(tuple(lengths), tuple(widths)),
            PerGapConstants(tuple(a_seq), tuple(b_seq)),
        )
        assert kappa_est < 1.0


class TestTailModels:
    """TailModel(kind, ...) builds one small class per kind."""

    def test_constructor_by_name(self):
        import gapcert.gap_sequences as gs

        power = TailModel("power-log", p1=1, q1=2)
        assert type(power) is gs.PowerLogTail
        assert (power.p2, power.q2) == (0.0, 0.0)
        assert type(power.p1) is float and type(power.q2) is float
        assert type(TailModel("geometric", ratio=3.0, band_ratio=2.0)) is gs.GeometricTail
        finite = TailModel("finite-data", seq=linear_endpoints(4), window=2)
        assert type(finite) is gs.FiniteTail
        with pytest.raises(ValueError, match="unknown tail model kind"):
            TailModel("exponential", ratio=2.0)
        with pytest.raises(TypeError):
            TailModel("geometric", ratio=2.0, band_ratio=2.0, alpha_scale=1.0)

    @pytest.mark.parametrize("kind, fields", [
        ("power-log", {"p1": math.nan, "q1": 0.0}),
        ("power-log", {"p1": 1.0, "q1": math.inf}),
        ("power-log", {"p1": 1.0, "q1": 0.0, "p2": math.nan}),
        ("power-log", {"p1": 1.0, "q1": 0.0, "q2": -math.inf}),
        ("power-log", {"p1": 1.0, "q1": 0.0, "length_prefactor": math.nan}),
        ("power-log", {"p1": 1.0, "q1": 0.0, "width_prefactor": math.inf}),
        ("geometric", {"ratio": math.inf, "band_ratio": math.inf}),
        ("geometric", {"ratio": math.nan, "band_ratio": 2.0}),
        ("finite-data", {"seq": linear_endpoints(4), "window": math.nan}),
        ("finite-data", {"seq": linear_endpoints(4), "window": 1.5}),
        ("finite-data", {"seq": linear_endpoints(4), "window": 0}),
    ])
    def test_non_finite_and_out_of_range_fields_rejected(self, kind, fields):
        with pytest.raises(ValueError):
            TailModel(kind, **fields)

    @pytest.mark.parametrize("fields", [
        {"coeff": 1.0, "power": math.nan},
        {"coeff": 1.0, "log_power": math.inf},
        {"coeff": math.nan},
    ])
    def test_growth_term_rejects_non_finite(self, fields):
        with pytest.raises(ValueError):
            GrowthTerm(**fields)

    @pytest.mark.parametrize("delta_a", [math.nan, math.inf])
    def test_non_finite_delta_rejected(self, delta_a):
        model = TailModel("geometric", ratio=2.0, band_ratio=2.0)
        with pytest.raises(ValueError):
            ratio_criterion(model, delta_a)
        with pytest.raises(ValueError):
            necessary_growth_check(model, delta_a)


class TestFiniteDataWindow:
    # alpha_{n+1}/alpha_n is 1.1 once, then 2; beta_n/alpha_n is 1.05 and
    # 1.8 early, then 1.2, so only a wide window sees the early terms
    ALPHAS = (1.0, 1.1, 2.2, 4.4, 8.8, 17.6, 35.2, 70.4)
    BETAS = (1.05, 1.98, 3.96, 5.28, 10.56, 21.12, 42.24, 84.48)

    def model(self, window=None):
        return TailModel("finite-data", seq=GapSequence(self.ALPHAS, self.BETAS), window=window)

    def test_window_changes_ratio_estimates(self):
        default = ratio_criterion(self.model(), 0.2)
        assert default == ratio_criterion(GapSequence(self.ALPHAS, self.BETAS), 0.2)
        assert (default.liminf, default.limsup) == pytest.approx((1.2, 1.2))
        assert default.verdict is Verdict.INCONCLUSIVE
        wide = ratio_criterion(self.model(window=8), 0.2)
        assert (wide.liminf, wide.limsup) == pytest.approx((1.05, 1.8))
        assert not wide.exact
        assert wide.verdict is Verdict.INFINITELY_MANY

    def test_window_changes_growth_estimate(self):
        default = necessary_growth_check(self.model(), 0.3)
        assert default.ok and default.details["liminf"] == pytest.approx(2.0)
        wide = necessary_growth_check(self.model(window=7), 0.3)
        assert not wide.ok and wide.details["liminf"] == pytest.approx(1.1)
        assert wide.failed_condition == "endpoint-ratio-growth"

    def test_window_changes_length_estimate(self):
        seq = GapSequence(self.ALPHAS, self.BETAS)
        consts = PerGapConstants((1.0,) + (0.0,) * 7, (0.0,) * 8)
        assert necessary_growth_check(TailModel("finite-data", seq=seq), 0.0, consts).ok
        wide = necessary_growth_check(TailModel("finite-data", seq=seq, window=8), 0.0, consts)
        assert not wide.ok and wide.details["limsup_2a_over_l"] == pytest.approx(40.0)


class TestGrowthCheckBoundary:
    """The necessary condition is non-strict: equality at the threshold passes."""

    @pytest.mark.parametrize("delta_a", [0.2, 1.0 / 3.0, 0.5])
    def test_geometric_ratio_at_threshold(self, delta_a):
        threshold = (1.0 + delta_a) / (1.0 - delta_a)
        at = TailModel("geometric", ratio=threshold, band_ratio=threshold)
        assert necessary_growth_check(at, delta_a).ok
        below = math.nextafter(threshold, 0.0)
        assert not necessary_growth_check(TailModel("geometric", ratio=below, band_ratio=below), delta_a).ok

    def test_finite_ratio_at_straddle_edge(self):
        # an estimate fails only below threshold - 1e-6 * threshold
        threshold = (1.0 + 0.2) / (1.0 - 0.2)
        edge = threshold - 1e-6 * threshold
        for ratio, ok in ((edge, True), (math.nextafter(edge, 0.0), False)):
            seq = GapSequence((1.0, ratio), (1.0 + 1e-9, ratio + 1.0))
            assert necessary_growth_check(seq, 0.2).ok is ok

    def test_analytic_length_ratio_at_one(self):
        # 2 a_n / l_n = 2 * n**2 / (2 n**2) is exactly 1: the limsup condition fails
        bands = TailModel("power-log", p1=2.0, q1=2.0, length_prefactor=2.0)
        at = ConstModel(GrowthTerm(1.0, 1.0, 2.0), GrowthTerm(0.0))
        diag = necessary_growth_check(bands, 0.0, at)
        assert diag.details == {"limsup_2a_over_l": 1.0, "exact": True}
        assert not diag.ok
        below = ConstModel(GrowthTerm(math.nextafter(1.0, 0.0), 1.0, 2.0), GrowthTerm(0.0))
        assert necessary_growth_check(bands, 0.0, below).ok

    def test_finite_length_ratio_at_straddle_edge(self):
        seq = BandProfile((2.0,) * 4, (1.0,) * 3).to_sequence(0.0)
        edge = 1.0 - 1e-6
        for a, ok in ((edge, False), (math.nextafter(edge, 0.0), True)):
            consts = PerGapConstants((a,) * 4, (0.0,) * 4)
            assert necessary_growth_check(seq, 0.0, consts).ok is ok


def test_kappa_nan_from_overflowed_partial_sum_is_a_numerical_failure():
    from gapcert.errors import NumericalFailure

    bands = BandProfile((1e308, 1e308, 1.0), (1e308, 1e308))
    with pytest.raises(NumericalFailure):
        kappa_s(bands, PerGapConstants((0.0,) * 3, (0.0,) * 3))
