"""Tests for the closed-form enclosure module.

Derived expected values are recomputed here by independent oracles (grid
scans, small dense matrices) before being compared against the library.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gapcert.enclosures import (
    Disk,
    Gap,
    GKCover,
    IsolatedEigSpec,
    LinBound,
    QuadBound,
    gap_condition,
    gk_sector_cover,
    hyperbola_excluded,
    isolated_eigenvalue_strip,
    lower_semicont_balls,
    optimal_shift_linear,
    perturbed_strip,
    perturbed_strip_linear,
    quad_from_linear,
    resolvent_bound_offreal,
    resolvent_bound_strip,
    resolvent_bound_strip_refined,
    semibounded_lower_bound,
    subordination_family,
    symmetric_gap_strip,
)
from gapcert.errors import BoundNotValid, ConditionNotApplicable, NumericalFailure

finite = st.floats(allow_nan=False, allow_infinity=False)


class TestConversion:
    def test_known_values(self):
        q = quad_from_linear(LinBound(3.0, 0.5), 2.0 / 3.0)
        np.testing.assert_allclose(q.a, math.sqrt(15.0), rtol=1e-15)
        np.testing.assert_allclose(q.b, math.sqrt(0.625), rtol=1e-15)
        # at x = 4 the converted pair reproduces the linear shift exactly
        np.testing.assert_allclose(q.shift(4.0), 3.0 + 0.5 * 4.0, rtol=1e-15)

    def test_identity_conversion_b_zero(self):
        q = quad_from_linear(LinBound(2.0, 0.0), 1.0)
        assert q.b == 0.0
        np.testing.assert_allclose(q.a, 2.0 * math.sqrt(2.0), rtol=1e-15)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            quad_from_linear(LinBound(1.0, 1.0), 0.0)

    @given(
        a=st.one_of(st.just(0.0), st.floats(1e-3, 50.0)),
        b=st.one_of(st.just(0.0), st.floats(1e-3, 5.0)),
        x=st.one_of(st.just(0.0), st.floats(1e-3, 100.0), st.floats(-100.0, -1e-3)),
    )
    @settings(max_examples=200, deadline=None)
    def test_optimal_shift_is_eps_infimum(self, a, b, x):
        lin = LinBound(a, b)
        best = optimal_shift_linear(lin, x)
        # oracle: scan an eps grid bracketing the analytic minimizer
        grid = np.geomspace(1e-4, 1e4, 300)
        if a > 0 and b * abs(x) > 0:
            grid = np.append(grid, b * abs(x) / a)
        vals = [quad_from_linear(lin, e).shift(x) for e in grid]
        assert min(vals) >= best - 1e-10 * max(1.0, best)
        if a > 0 and b * abs(x) > 0:
            np.testing.assert_allclose(vals[-1], best, rtol=1e-12)


class TestHyperbola:
    def test_examples(self):
        assert hyperbola_excluded(QuadBound(1.0, 0.0), 2j)
        assert hyperbola_excluded(QuadBound(0.0, 0.5), 1 + 1j)
        assert not hyperbola_excluded(QuadBound(0.1, 0.1), 5.0 + 0j)

    def test_rejects_b_at_least_one(self):
        with pytest.raises(ConditionNotApplicable):
            hyperbola_excluded(QuadBound(0.0, 1.0), 1j)

    @given(a=st.floats(0.0, 10.0), re=st.floats(-20.0, 20.0), im=st.floats(-20.0, 20.0))
    @settings(max_examples=200, deadline=None)
    def test_b_zero_degenerates_to_horizontal_lines(self, a, re, im):
        # squaring is only order-exact away from ties and underflow
        assume(abs(abs(im) - a) > 1e-9 * (abs(im) + a + 1.0))
        assert hyperbola_excluded(QuadBound(a, 0.0), complex(re, im)) == (abs(im) > a)

    def test_two_by_two_oracle(self):
        # A*A = b^2 T^2 exactly, so (0, 0.5) is the measured pair
        t = np.diag([1.0, -2.0])
        a_mat = 0.5 * t @ np.diag([1j, np.exp(0.3j)])
        gram = a_mat.conj().T @ a_mat
        np.testing.assert_allclose(gram, 0.25 * t @ t, atol=1e-15)
        q = QuadBound(0.0, 0.5)
        for s in np.linspace(0.0, 1.0, 11):
            for lam in np.linalg.eigvals(t + s * a_mat):
                assert not hyperbola_excluded(q, lam)


class TestStrip:
    def test_open_example(self):
        res = perturbed_strip(QuadBound(1.0, 0.0), Gap(0.0, 3.0))
        assert (res.lo, res.hi, res.open) == (1.0, 2.0, True)
        assert gap_condition(QuadBound(1.0, 0.0), Gap(0.0, 3.0))

    def test_closed_example(self):
        res = perturbed_strip(QuadBound(2.0, 0.0), Gap(0.0, 3.0))
        assert (res.lo, res.hi, res.open) == (2.0, 1.0, False)

    def test_zero_perturbation(self):
        res = perturbed_strip(QuadBound(0.0, 0.0), Gap(-1.0, 1.0))
        assert (res.lo, res.hi, res.open) == (-1.0, 1.0, True)

    def test_linear_example(self):
        res = perturbed_strip_linear(LinBound(1.0, 0.1), Gap(0.0, 4.0))
        np.testing.assert_allclose([res.lo, res.hi], [1.0, 2.6], rtol=1e-15)
        assert res.open

    def test_linear_matches_quad_when_b_zero(self):
        for alpha, beta in [(-3.0, -1.0), (0.0, 4.0), (-2.0, 5.0)]:
            lin = perturbed_strip_linear(LinBound(0.7, 0.0), Gap(alpha, beta))
            quad = perturbed_strip(QuadBound(0.7, 0.0), Gap(alpha, beta))
            assert (lin.lo, lin.hi, lin.open) == (quad.lo, quad.hi, quad.open)

    @given(
        a1=st.floats(0.0, 5.0),
        da=st.floats(0.0, 5.0),
        b1=st.floats(0.0, 0.99),
        db=st.floats(0.0, 0.5),
        alpha=st.floats(-10.0, 10.0),
        width=st.floats(0.1, 20.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_strip_monotone_in_constants(self, a1, da, b1, db, alpha, width):
        g = Gap(alpha, alpha + width)
        small = perturbed_strip(QuadBound(a1, b1), g)
        big = perturbed_strip(QuadBound(a1 + da, min(b1 + db, 0.999)), g)
        assert big.lo >= small.lo and big.hi <= small.hi
        if not small.open:
            assert not big.open or big.lo >= big.hi or math.isclose(big.lo, big.hi)

    def test_balls_example(self):
        d1, d2 = lower_semicont_balls(QuadBound(0.0, 0.25), Gap(-4.0, 4.0))
        assert d1 == Disk(-4.0, 1.0)
        assert d2 == Disk(4.0, 1.0)


class TestResolventBounds:
    def test_offreal_examples(self):
        np.testing.assert_allclose(resolvent_bound_offreal(QuadBound(1.0, 0.0), 3j), 0.5)
        np.testing.assert_allclose(resolvent_bound_offreal(QuadBound(0.0, 0.5), 2j), 1.0)

    def test_offreal_rejects_uncovered_point(self):
        with pytest.raises(BoundNotValid):
            resolvent_bound_offreal(QuadBound(1.0, 0.0), 0.5j)

    def test_strip_center_example(self):
        val = resolvent_bound_strip(QuadBound(0.0, 0.0), Gap(-1.0, 1.0), 0j)
        np.testing.assert_allclose(val, 1.0)

    def test_strip_rejects_outside(self):
        with pytest.raises(BoundNotValid):
            resolvent_bound_strip(QuadBound(1.0, 0.0), Gap(0.0, 3.0), 2.5 + 0j)
        with pytest.raises(BoundNotValid):
            resolvent_bound_strip(QuadBound(2.0, 0.0), Gap(0.0, 3.0), 1.5 + 0j)

    def test_diagonal_oracle_soundness(self):
        # diagonal T and A = a U keep the resolvent norm computable by hand
        rng = np.random.default_rng(7)
        for _ in range(50):
            alpha, width = rng.uniform(-4, 2), rng.uniform(1, 6)
            g = Gap(alpha, alpha + width)
            a = rng.uniform(0.0, 0.45) * width
            q = QuadBound(a, 0.0)
            strip = perturbed_strip(q, g)
            assert strip.open
            t = np.diag([g.alpha, g.beta, g.alpha - rng.uniform(0, 3), g.beta + rng.uniform(0, 3)])
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
            m = t + a * np.diag(phases)
            mu = rng.uniform(strip.lo + 1e-6 * width, strip.hi - 1e-6 * width)
            z = complex(mu, rng.uniform(-2, 2))
            true_norm = 1.0 / np.linalg.svd(m - z * np.eye(4), compute_uv=False)[-1]
            assert true_norm <= resolvent_bound_strip(q, g, z) * (1 + 1e-8)

    @given(
        a=st.floats(0.0, 2.0),
        b=st.floats(0.0, 0.6),
        alpha=st.floats(-6.0, 2.0),
        width=st.floats(0.5, 10.0),
        frac=st.floats(1e-6, 1.0 - 1e-6),
        im=st.floats(-5.0, 5.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_refined_never_exceeds_plain(self, a, b, alpha, width, frac, im):
        g = Gap(alpha, alpha + width)
        q = QuadBound(a, b)
        strip = perturbed_strip(q, g)
        if not strip.open:
            return
        z = complex(strip.lo + frac * (strip.hi - strip.lo), im)
        if not strip.lo < z.real < strip.hi:
            return
        plain = resolvent_bound_strip(q, g, z)
        refined = resolvent_bound_strip_refined(q, g, z)
        assert refined <= plain * (1 + 1e-12)
        # the piecewise form agrees with the plain one up to rounding
        np.testing.assert_allclose(refined, plain, rtol=1e-9)


    def test_refined_overflow_is_numerical_failure(self):
        """An infinite gap width leaves the two crossover forms at -inf and +inf."""
        q, g = QuadBound(8e307, 0.0), Gap(-1.7e308, 1.7e308)
        assert perturbed_strip(q, g).open
        with pytest.raises(NumericalFailure):
            resolvent_bound_strip_refined(q, g, 0j)


class TestSymmetricGap:
    def test_known_value(self):
        res = symmetric_gap_strip(QuadBound(1.0, 0.1), 2.0)
        np.testing.assert_allclose(res.beta_pert, 2.0 - math.sqrt(1.04), rtol=1e-15)
        assert res.strip.open

    def test_closed_when_shift_reaches_beta(self):
        res = symmetric_gap_strip(QuadBound(3.0, 0.0), 2.0)
        assert not res.strip.open
        with pytest.raises(BoundNotValid):
            res.resolvent_bound(0j)

    def test_bound_against_diagonal_oracle(self):
        rng = np.random.default_rng(3)
        beta = 2.0
        q = QuadBound(0.5, 0.0)
        res = symmetric_gap_strip(q, beta)
        t = np.diag([-beta, beta, -3.0, 3.0])
        for _ in range(30):
            m = t + 0.5 * np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 4)))
            mu = rng.uniform(-res.beta_pert + 1e-9, res.beta_pert - 1e-9)
            z = complex(mu, rng.uniform(-3, 3))
            true_norm = 1.0 / np.linalg.svd(m - z * np.eye(4), compute_uv=False)[-1]
            assert true_norm <= res.resolvent_bound(z) * (1 + 1e-8)

    def test_semibounded_values(self):
        assert semibounded_lower_bound(QuadBound(3.0, 0.0), 1.0) == -2.0
        assert semibounded_lower_bound(LinBound(1.0, 0.5), 2.0) == 0.0


class TestSectorCover:
    def test_known_radius(self):
        cover = gk_sector_cover(lambda eps: QuadBound(1.0, 0.0), 1.0)
        np.testing.assert_allclose(cover.r_eps, math.sqrt(3.0), rtol=1e-15)

    def test_zero_family_gives_sector_only(self):
        cover = gk_sector_cover(lambda eps: QuadBound(0.0, 0.0), 0.5)
        assert cover.r_eps == 0.0
        assert cover.contains(5.0 + 0j)
        assert cover.contains(-5.0 + 0.1j)
        assert not cover.contains(5j)

    def test_rejects_large_b(self):
        with pytest.raises(ConditionNotApplicable):
            gk_sector_cover(lambda eps: QuadBound(1.0, 0.9), 0.5)

    @pytest.mark.parametrize(
        "r_eps, half_angle",
        [(-1.0, 0.4), (math.nan, 0.4), (2.0, -1.0), (2.0, 0.0), (2.0, math.pi / 2), (2.0, math.inf)],
    )
    def test_cover_fields_validated(self, r_eps, half_angle):
        with pytest.raises(ValueError):
            GKCover(r_eps, half_angle)

    def test_matrix_oracle_containment(self):
        rng = np.random.default_rng(11)
        t = np.diag(rng.uniform(-50, 50, 12))
        a_mat = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        a_mat *= 0.4 / np.linalg.norm(a_mat, 2)
        family = lambda eps: QuadBound(np.linalg.norm(a_mat, 2), 0.0)
        for eps in (0.3, 0.7, 1.2):
            cover = gk_sector_cover(family, eps)
            for lam in np.linalg.eigvals(t + a_mat):
                assert cover.contains(complex(lam))


class TestSubordination:
    def test_known_value(self):
        a = subordination_family(2.0, 0.5)
        np.testing.assert_allclose(a(1.0), 1.0, rtol=1e-15)

    def test_p_zero_constant(self):
        a = subordination_family(3.0, 0.0)
        assert a(0.0) == 3.0 and a(10.0) == 3.0

    @given(
        c=st.floats(0.01, 20.0),
        p=st.floats(0.05, 0.95),
        b=st.floats(0.01, 20.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_oracle_least_constant(self, c, p, b):
        # oracle: a(b) must equal sup_v (c v^p - b v), scanned on a v grid
        a_val = subordination_family(c, p)(b)
        v_star = (c * p / b) ** (1.0 / (1.0 - p))
        grid = np.geomspace(max(v_star * 1e-3, 1e-12), v_star * 1e3, 2000)
        grid = np.append(grid, v_star)
        sup = np.max(c * grid**p - b * grid)
        np.testing.assert_allclose(a_val, sup, rtol=1e-8)
        # validity: c v^p <= a + b v on the grid
        assert np.all(c * grid**p <= a_val + b * grid + 1e-9 * max(1.0, a_val))


class TestIsolatedEigenvalue:
    def test_known_strip(self):
        strip = isolated_eigenvalue_strip(
            QuadBound(0.1, 0.0), IsolatedEigSpec(0.0, -2.0, 2.0, 3)
        )
        np.testing.assert_allclose([strip.lo, strip.hi], [-0.1, 0.1], rtol=1e-15)
        assert strip.count == 3

    def test_degenerate_axis_case(self):
        # a = 0 at lam = 0 collapses the strip onto the imaginary axis
        strip = isolated_eigenvalue_strip(
            QuadBound(0.0, 0.5), IsolatedEigSpec(0.0, -2.0, 2.0, 1)
        )
        assert strip.lo == strip.hi == 0.0

    def test_rejects_wide_constants(self):
        with pytest.raises(ConditionNotApplicable):
            isolated_eigenvalue_strip(QuadBound(1.5, 0.0), IsolatedEigSpec(0.0, -2.0, 2.0, 1))

    def test_count_against_matrix_oracle(self):
        rng = np.random.default_rng(5)
        for m in (1, 2, 3):
            t = np.diag([-2.0] * 2 + [0.0] * m + [2.0] * 2)
            n = t.shape[0]
            a_mat = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            a_mat *= 0.3 / np.linalg.norm(a_mat, 2)
            a = np.linalg.norm(a_mat, 2)
            strip = isolated_eigenvalue_strip(QuadBound(a, 0.0), IsolatedEigSpec(0.0, -2.0, 2.0, m))
            eigs = np.linalg.eigvals(t + a_mat)
            inside = np.sum((eigs.real > strip.lo) & (eigs.real < strip.hi))
            assert inside == m
