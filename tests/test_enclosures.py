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

from gapcert import blocks, enclosures, gap_sequences
from gapcert.enclosures import (
    _crossover,
    _offreal_bounds,
    _strip_bound_pairs,
    _strip_ends,
    Disk,
    Gap,
    GKCover,
    IsolatedEigSpec,
    LinBound,
    QuadBound,
    StripResult,
    gap_condition,
    gk_sector_cover,
    hyperbola_excluded,
    isolated_eigenvalue_strip,
    lower_semicont_balls,
    perturbed_strip,
    quad_from_linear,
    resolvent_bound_offreal,
    resolvent_bound_strip,
    resolvent_bound_strip_refined,
    semibounded_lower_bound,
    subordination_family,
    symmetric_gap_strip,
)
from gapcert.errors import BoundNotValid, ConditionNotApplicable, NumericalFailure
from gapcert.gap_sequences import GapSequence, PerGapConstants, per_gap_criterion

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


# ---------------------------------------------------------------------------
# a linear pair ||Ax|| <= a||x|| + b||Tx|| reaches a strip only through
# quad_from_linear, with one eps for both ends; A = a W1 + b W2 T with
# ||W1||, ||W2|| <= 1 attains such a pair


EPS_GRID = np.geomspace(1e-4, 1e4, 33)
S_GRID = np.linspace(0.0, 1.0, 11)


def _unit_norm(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m / np.linalg.norm(m, 2)


def _converted_strips(lin, gap, eps_grid):
    """(lo, hi) of each open strip perturbed_strip(quad_from_linear(lin, eps), gap) over the grid."""
    strips = []
    for eps in eps_grid:
        try:
            lo, hi, open_ = perturbed_strip(quad_from_linear(lin, float(eps)), gap)
        except ConditionNotApplicable:
            continue
        if open_:
            strips.append((lo, hi))
    return strips


_G, _SPEC = Gap(-1.0, 3.0), IsolatedEigSpec(1.0, -1.0, 3.0, 2)
# every certificate that reads a quadratic pair's fields by name
_QUAD_CALLS = {
    "gap_condition": lambda q: gap_condition(q, _G),
    "perturbed_strip": lambda q: perturbed_strip(q, _G),
    "lower_semicont_balls": lambda q: lower_semicont_balls(q, _G),
    "hyperbola_excluded": lambda q: hyperbola_excluded(q, 0.5 + 3j),
    "resolvent_bound_offreal": lambda q: resolvent_bound_offreal(q, 0.5 + 3j),
    "resolvent_bound_strip": lambda q: resolvent_bound_strip(q, _G, 1 + 0.5j),
    "resolvent_bound_strip_refined": lambda q: resolvent_bound_strip_refined(q, _G, 1 + 0.5j),
    "symmetric_gap_strip": lambda q: symmetric_gap_strip(q, 2.0),
    "isolated_eigenvalue_strip": lambda q: isolated_eigenvalue_strip(q, _SPEC),
    "almost_gap_eig_bound": lambda q: blocks.almost_gap_eig_bound("i", q, _G, 2),
}


class TestLinearPairs:
    @pytest.mark.parametrize("pair", [LinBound(0.3, 0.2), (0.3, 0.2)], ids=["LinBound", "tuple"])
    @pytest.mark.parametrize("name", list(_QUAD_CALLS))
    def test_certificate_refuses_a_linear_pair(self, name, pair):
        """A LinBound and a bare (a, b) equal QuadBound(a, b) as tuples, so a certificate
        that unpacked its pair would take them; reading q.a and q.b by name refuses both."""
        assert QuadBound(*pair) == pair
        _QUAD_CALLS[name](QuadBound(*pair))
        with pytest.raises(AttributeError):
            _QUAD_CALLS[name](pair)

    def test_strip_witness(self):
        # the removed eps-per-end strip certified (0.05, 0.15) for this pair and gap
        lin, gap = LinBound(0.05, 0.8), Gap(0.0, 1.0)
        t = np.diag([0.0, 1.0])
        w1 = np.array([[0.0, 0.0], [-1.0, 0.0]])
        w2 = np.array([[0.0, math.sqrt(31.0) / 16.0], [0.0, -15.0 / 16.0]])
        assert np.linalg.norm(w1, 2) == 1.0 and np.linalg.norm(w2, 2) <= 1.0 + 1e-15
        a_mat = lin.a_lin * w1 + lin.b_lin * w2 @ t
        np.testing.assert_allclose(a_mat, [[0.0, 0.05 * math.sqrt(31.0)], [-0.05, -0.75]], rtol=1e-15)
        lam = np.linalg.eigvals(t + a_mat)
        low = lam.real.min()
        assert np.all(lam.imag == 0.0) and abs(low - 0.08370) < 1e-5 and 0.05 < low < 0.15
        strips = _converted_strips(lin, gap, np.geomspace(1e-6, 1e6, 1201))
        assert not [(lo, hi) for lo, hi in strips if lo < low < hi]

    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 4),
        alpha=st.floats(-10.0, 10.0),
        width=st.floats(0.1, 20.0),
        load=st.floats(0.0, 1.2),
        share=st.floats(0.0, 1.0),
        tail=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_no_eigenvalue_in_a_converted_strip(self, seed, dim, alpha, width, load, share, tail):
        beta = alpha + width
        assume(alpha < beta)
        # linear shifts a + b|alpha| and a + b|beta| summing to load * width, b kept below 1
        a = 0.5 * load * width * share
        b = min(0.99, load * width * (1.0 - share) / (abs(alpha) + abs(beta)))
        lin, gap = LinBound(a, b), Gap(alpha, beta)
        rng = np.random.default_rng(seed)
        # T holds the gap's edges (one of them at dim 1); the rest of its spectrum
        # sits on the edges, or on geometric tails out to 10^3 beyond them
        rest = 1e3 ** (np.arange(1, dim - 1) / (dim - 2)) if tail and dim > 2 else np.zeros(max(dim - 2, 0))
        sides = rng.integers(0, 2, rest.size)
        t = np.concatenate([[alpha, beta], np.where(sides == 0, alpha - rest, beta + rest)])
        t = t[rng.integers(0, 2, 1)] if dim == 1 else t
        a_mat = a * _unit_norm(rng, dim) + b * _unit_norm(rng, dim) * t
        re = np.linalg.eigvals(np.diag(t) + S_GRID[:, None, None] * a_mat).real.ravel()
        # eigvals rounding, relative to the largest |t|
        tol = 1e-9 * max(1.0, np.abs(t).max())
        for lo, hi in _converted_strips(lin, gap, EPS_GRID):
            assert not np.any((re > lo + tol) & (re < hi - tol)), (lo, hi, re)


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
        # the grid path gives both bounds bit for bit
        assert _strip_bound_pairs(q, g, [z, z]) == [(plain, refined)] * 2
        assert refined <= plain * (1 + 1e-12)
        # the piecewise form agrees with the plain one up to rounding
        np.testing.assert_allclose(refined, plain, rtol=1e-9)


    def test_refined_overflow_is_numerical_failure(self):
        """An infinite gap width leaves the two crossover forms at -inf and +inf."""
        q, g = QuadBound(8e307, 0.0), Gap(-1.7e308, 1.7e308)
        assert perturbed_strip(q, g).open
        with pytest.raises(NumericalFailure):
            resolvent_bound_strip_refined(q, g, 0j)
        with pytest.raises(NumericalFailure):
            _strip_bound_pairs(q, g, [0j])

    def test_grid_path_refuses_as_the_scalar_bounds_do(self):
        q, g = QuadBound(1.0, 0.0), Gap(0.0, 3.0)
        with pytest.raises(BoundNotValid, match="outside certified strip"):
            _strip_bound_pairs(q, g, [1.5 + 0j, 2.5 + 0j])
        closed = QuadBound(2.0, 0.0)
        with pytest.raises(BoundNotValid, match="no certified strip"):
            _strip_bound_pairs(closed, g, [1.5 + 0j])
        assert _strip_bound_pairs(q, g, []) == []


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


class TestSemibound:
    @pytest.mark.parametrize("lin, beta, t", [
        (LinBound(0.0, 0.5), -1.0, [-1.0]),
        (LinBound(0.0, 2.0), 1.0, [1.0, 10.0]),
    ], ids=["negative-beta", "b-above-1"])
    def test_linear_pair_refused(self, lin, beta, t):
        # A = -b |T| attains the linear pair, and T + A has an eigenvalue below
        # beta - (a + b beta), what the removed linear branch returned
        t = np.diag(t)
        low = np.linalg.eigvalsh(t - lin.b_lin * abs(t))[0]
        assert low < beta - (lin.a_lin + lin.b_lin * beta)
        with pytest.raises(TypeError, match="quad_from_linear"):
            semibounded_lower_bound(lin, beta)
        # the one route left is sound where it applies
        for eps in np.geomspace(1e-4, 1e4, 33):
            q = quad_from_linear(lin, float(eps))
            assert q.b >= 1.0 or semibounded_lower_bound(q, beta) <= low

    def test_attained_by_hermitian_minus_g(self):
        # A = -g(|T|) with g(t) = sqrt(a^2 + b^2 t^2) puts an eigenvalue on the bound
        q = QuadBound(0.3, 0.6)
        for beta in (-3.0, -0.2, 0.5, 7.0):
            t = beta + np.array([0.0, 10.0, 1e3])
            low = np.linalg.eigvalsh(np.diag(t - np.hypot(q.a, q.b * t)))[0]
            np.testing.assert_allclose(low, semibounded_lower_bound(q, beta), rtol=1e-14)

    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 4),
        beta=st.floats(0.01, 100.0),
        sign=st.sampled_from([-1.0, 1.0]),
        a=st.floats(0.01, 10.0),
        b=st.floats(0.0, 0.95),
        tail=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_hermitian_oracle(self, seed, dim, beta, sign, a, b, tail):
        beta *= sign
        rng = np.random.default_rng(seed)
        # T >= beta, with beta attained and the rest on it or on a geometric tail out to beta + 10^3
        rest = 1e3 ** (np.arange(1, dim) / (dim - 1)) if tail and dim > 1 else np.zeros(dim - 1)
        t = beta + np.concatenate([[0.0], rest])
        g = np.hypot(a, b * t)
        # a Hermitian A = W g(|T|) with ||W|| = 1
        h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h += h.conj().T
        a_mat = h / np.linalg.norm(h / g, 2)
        low = np.linalg.eigvalsh(np.diag(t) + a_mat)[0]
        assert low >= semibounded_lower_bound(QuadBound(a, b), beta) - 1e-12 * max(1.0, np.abs(t).max())

    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 4),
        beta=st.floats(0.01, 100.0),
        sign=st.sampled_from([-1.0, 1.0]),
        a=st.floats(0.01, 10.0),
        b=st.floats(0.0, 0.95),
        tail=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_nonhermitian_oracle(self, seed, dim, beta, sign, a, b, tail):
        # test_hermitian_oracle's draw with h left unsymmetrised: the bound holds for Re sigma
        beta *= sign
        rng = np.random.default_rng(seed)
        rest = 1e3 ** (np.arange(1, dim) / (dim - 1)) if tail and dim > 1 else np.zeros(dim - 1)
        t = beta + np.concatenate([[0.0], rest])
        g = np.hypot(a, b * t)
        h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a_mat = h / np.linalg.norm(h / g, 2)
        low = np.linalg.eigvals(np.diag(t) + a_mat).real.min()
        assert low >= semibounded_lower_bound(QuadBound(a, b), beta) - 1e-12 * max(1.0, np.abs(t).max())


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


# ---------------------------------------------------------------------------
# one strip per certificate call: the shared endpoint shifts against the
# formulas they replaced, kept here as references


def _bits(*xs: float) -> tuple[str, ...]:
    """The exact doubles, signed zeros told apart."""
    return tuple(float(x).hex() for x in xs)


def _ref_gap_condition(q, g):
    return q.shift(g.alpha) + q.shift(g.beta) < g.width


def _ref_strip(q, g):
    # perturbed_strip as two shift calls plus gap_condition, which shifts both ends again
    return StripResult(g.alpha + q.shift(g.alpha), g.beta - q.shift(g.beta), _ref_gap_condition(q, g))


def _ref_crossover(q, g):
    sa = q.shift(g.alpha)
    sb = q.shift(g.beta)
    if not sa + sb > 0:
        return 0.5 * (g.alpha + g.beta)
    zeta = g.alpha + g.width * (sa / (sa + sb))
    zeta_alt = g.beta - g.width * (sb / (sa + sb))
    scale = max(1.0, abs(g.alpha), abs(g.beta))
    if abs(zeta - zeta_alt) > 1e-12 * scale:
        raise NumericalFailure("crossover forms disagree beyond rounding")
    # the form anchored at the endpoint nearer 0, so that reflection negates it exactly
    return zeta if abs(g.alpha) <= abs(g.beta) else zeta_alt


# the strip bounds' formulas as the helpers folded into them wrote them
def _ref_plain_bound(b, alpha, beta, lo, hi, z):
    mu, nu = z.real, z.imag
    dist = math.hypot(min(mu - alpha, beta - mu), nu)
    comp = min(1.0 - b, (mu - lo) / (mu - alpha), (hi - mu) / (beta - mu))
    return 1.0 / (dist * comp)


def _ref_refined_bound(alpha, beta, lo, hi, zeta, z):
    mu, nu = z.real, z.imag
    mid = 0.5 * (alpha + beta)
    da, db = mu - alpha, beta - mu
    ra, rb = da / (mu - lo), db / (hi - mu)
    dist = math.hypot(da if mu < mid else db if mu > mid else min(da, db), nu)
    return (ra if mu < zeta else rb if mu > zeta else max(ra, rb)) / dist


def _ends(q, g):
    return _strip_ends(q.a, q.b, g.alpha, g.beta)


def _outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ArithmeticError, ConditionNotApplicable, NumericalFailure) as exc:
        return type(exc), str(exc)


quad_a = st.floats(0.0, 3.0)
quad_b = st.floats(0.0, 0.95)


@st.composite
def gaps(draw, lo=-10.0, hi=10.0, min_width=0.01):
    alpha = draw(st.floats(lo, hi))
    beta = alpha + draw(st.floats(min_width, 20.0))
    assume(alpha < beta)
    return Gap(alpha, beta)


class TestSharedShifts:
    @given(a=quad_a, b=st.floats(0.0, 1.5), g=gaps())
    @settings(max_examples=200, deadline=None)
    def test_strip_and_condition_bits(self, a, b, g):
        q = QuadBound(a, b)
        if b >= 1.0:
            for fn in (perturbed_strip, gap_condition, _ends):
                with pytest.raises(ConditionNotApplicable):
                    fn(q, g)
            return
        want = _ref_strip(q, g)
        lo, hi, open_, sa, sb = _ends(q, g)
        assert StripResult(lo, hi, open_) == perturbed_strip(q, g)
        assert _bits(lo, hi, sa, sb) == _bits(want.lo, want.hi, q.shift(g.alpha), q.shift(g.beta))
        assert open_ is want.open is gap_condition(q, g)

    @given(a=quad_a, b=quad_b, g=gaps(lo=-1e6, hi=1e6, min_width=1e-9))
    @settings(max_examples=200, deadline=None)
    def test_crossover_bits(self, a, b, g):
        q = QuadBound(a, b)
        got = _outcome(_crossover, g.alpha, g.beta, *_ends(q, g)[3:])
        want = _outcome(_ref_crossover, q, g)
        assert got == want if isinstance(want, tuple) else _bits(got) == _bits(want)

    @given(a=quad_a, b=quad_b, g=gaps(), frac=st.floats(0.0, 1.0), im=st.floats(-5.0, 5.0))
    @settings(max_examples=200, deadline=None)
    def test_strip_bounds_bits(self, a, b, g, frac, im):
        q = QuadBound(a, b)
        strip = _ref_strip(q, g)
        z = complex(strip.lo + frac * (strip.hi - strip.lo), im)
        if not (strip.open and strip.lo < z.real < strip.hi):
            for fn in (resolvent_bound_strip, resolvent_bound_strip_refined):
                with pytest.raises(BoundNotValid):
                    fn(q, g, z)
            return
        ends = (g.alpha, g.beta, strip.lo, strip.hi)
        plain = _ref_plain_bound(q.b, *ends, z)
        refined = _outcome(lambda: _ref_refined_bound(*ends, _ref_crossover(q, g), z))
        assert _bits(resolvent_bound_strip(q, g, z)) == _bits(plain)
        got = _outcome(resolvent_bound_strip_refined, q, g, z)
        assert got == refined if isinstance(refined, tuple) else _bits(got) == _bits(refined)

    @given(
        a_seq=st.lists(quad_a, min_size=1, max_size=6),
        b=quad_b,
        start=st.floats(-10.0, 10.0),
        steps=st.lists(st.floats(0.01, 5.0), min_size=12, max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_per_gap_criterion_bits(self, a_seq, b, start, steps):
        n = len(a_seq)
        ends = [start]
        for step in steps[: 2 * n - 1]:
            ends.append(ends[-1] + step)
        alphas, betas = tuple(ends[0::2]), tuple(ends[1::2])
        assume(all(x < y for x, y in zip(ends, ends[1:])))
        seq, consts = GapSequence(alphas, betas), PerGapConstants(tuple(a_seq), (b,) * n)
        res = per_gap_criterion(seq, consts)
        qs = [QuadBound(a, b) for a in a_seq]
        want = [(q.shift(al) + q.shift(be)) / (be - al) for q, al, be in zip(qs, alphas, betas)]
        assert _bits(*res.ratios) == _bits(*want)
        assert res.strips == tuple(_ref_strip(q, Gap(al, be)) for q, al, be in zip(qs, alphas, betas))

    @given(
        a=quad_a,
        b=st.floats(0.0, 1.2),
        pts=st.lists(
            st.tuples(st.floats(-40.0, 40.0), st.floats(0.0, 2.0), st.sampled_from((1.0, -1.0)), st.booleans()),
            max_size=8,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_offreal_grid_bits(self, a, b, pts):
        q = QuadBound(a, b)
        zs = []
        for re, t, sign, near in pts:
            # Im z at t times the hyperbola's height, or at t itself
            height = math.sqrt((a * a + b * b * re * re) / (1.0 - b * b)) if near and b < 1.0 else 1.0
            zs.append(complex(re, sign * t * height))
        each = [_outcome(resolvent_bound_offreal, q, z) for z in zs]
        for z, got in zip(zs, each):
            excluded = _outcome(hyperbola_excluded, q, z)
            if isinstance(excluded, tuple):
                assert got == excluded
            else:
                assert (isinstance(got, tuple) and got[0] is BoundNotValid) is not excluded
        # the grid raises what its first failing point raises, else gives every bound bit for bit
        failure = next((got for got in each if isinstance(got, tuple)), None)
        grid = _outcome(_offreal_bounds, q, zs)
        assert grid == failure if failure is not None else _bits(*grid) == _bits(*each)
        kept = [z for z, got in zip(zs, each) if not isinstance(got, tuple)]
        want = [resolvent_bound_offreal(q, z) for z in kept]
        assert _bits(*_offreal_bounds(q, np.array(kept, dtype=complex))) == _bits(*want)

    @given(
        a=quad_a,
        b=quad_b,
        g=gaps(),
        pts=st.lists(
            st.tuples(st.sampled_from(("strip", "mid", "zeta", "outside")), st.floats(0.0, 1.0), st.floats(-5.0, 5.0)),
            max_size=8,
        ),
        outside_last=st.booleans(),
        as_array=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_strip_grid_bits(self, a, b, g, pts, outside_last, as_array):
        q = QuadBound(a, b)
        strip = _ref_strip(q, g)
        zeta = _outcome(_crossover, g.alpha, g.beta, *_ends(q, g)[3:])
        at = {"mid": 0.5 * (g.alpha + g.beta), "zeta": zeta if isinstance(zeta, float) else g.alpha}
        zs = []
        for where, frac, im in pts + [("outside", 0.5, 1.0)] * outside_last:
            if where == "strip":
                re = strip.lo + frac * (strip.hi - strip.lo)
            elif where == "outside":
                re = strip.hi + frac if frac < 0.5 else strip.lo - frac
            else:
                re = at[where]
            zs.append(complex(re, im))
        each = [(_outcome(resolvent_bound_strip, q, g, z), _outcome(resolvent_bound_strip_refined, q, g, z))
                for z in zs]
        # the grid raises what the scalar bounds raise at its first point they refuse, else gives both bit for bit
        failure = next((got for pair in each for got in pair if isinstance(got, tuple)), None)
        grid = _outcome(_strip_bound_pairs, q, g, np.array(zs, dtype=complex) if as_array else zs)
        if failure is not None:
            assert grid == failure
        else:
            assert [_bits(*pair) for pair in grid] == [_bits(*pair) for pair in each]

    def test_refined_bound_computes_each_shift_once(self, monkeypatch):
        # every hypot the module evaluates, counted through its `math` reference
        calls = []

        class CountingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            @staticmethod
            def hypot(*args):
                calls.append(args)
                return math.hypot(*args)

        monkeypatch.setattr(enclosures, "math", CountingMath())
        q, g, z = QuadBound(0.3, 0.2), Gap(-1.0, 3.0), 1.0 + 0.5j
        shifts = [(q.a, q.b * g.alpha), (q.a, q.b * g.beta)]
        for call in (lambda: gap_condition(q, g), lambda: perturbed_strip(q, g)):
            calls.clear()
            call()
            assert calls == shifts
        for fn in (resolvent_bound_strip, resolvent_bound_strip_refined):
            calls.clear()
            fn(q, g, z)
            # the two shifts in the kernel, then the distance factor
            assert calls[:2] == shifts and len(calls) == 3

    def test_no_result_object_that_is_not_returned(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built a value object the function does not return")

        q, g, z = QuadBound(0.3, 0.2), Gap(-1.0, 3.0), 1.0 + 0.5j
        want = [gap_condition(q, g), resolvent_bound_strip(q, g, z), resolvent_bound_strip_refined(q, g, z)]
        seq, consts = GapSequence((-1.0, 4.0), (3.0, 9.0)), PerGapConstants((0.3, 0.1), (0.2, 0.2))
        per_gap = per_gap_criterion(seq, consts)
        monkeypatch.setattr(enclosures, "StripResult", refuse)
        assert [gap_condition(q, g), resolvent_bound_strip(q, g, z), resolvent_bound_strip_refined(q, g, z)] == want
        monkeypatch.undo()
        for name in ("QuadBound", "Gap"):
            monkeypatch.setattr(enclosures, name, refuse)
            monkeypatch.setattr(gap_sequences, name, refuse, raising=False)
        assert per_gap_criterion(seq, consts) == per_gap


# ---------------------------------------------------------------------------
# symmetries the certificates keep bit for bit: reflection (alpha, beta) ->
# (-beta, -alpha) with z -> -conj(z), conjugation z -> conj(z), and scaling
# (a, alpha, beta, z) -> 2^k (a, alpha, beta, z) with b kept


def _normal(lo, hi):
    # no magnitude below 2^-60, so no product or difference meets the subnormals even at k = -20
    return st.floats(lo, hi).filter(lambda x: x == 0.0 or abs(x) >= 2.0**-60)


sym_a, sym_b = _normal(0.0, 3.0), _normal(0.0, 0.95)
sym_alpha, sym_width = _normal(-10.0, 10.0), _normal(0.01, 20.0)
sym_frac, sym_im, sym_re = _normal(0.0, 1.0), _normal(-30.0, 30.0), _normal(-40.0, 40.0)
sym_case = dict(a=sym_a, b=sym_b, alpha=sym_alpha, width=sym_width, frac=sym_frac, im=sym_im, re=sym_re)


class TestSymmetries:
    @staticmethod
    def _strip_bounds(q, g, z):
        return [_outcome(fn, q, g, z) for fn in (resolvent_bound_strip, resolvent_bound_strip_refined)]

    @staticmethod
    def _same(got, want, scale=1.0):
        for x, y in zip(got, want, strict=True):
            if isinstance(y, tuple):
                assert isinstance(x, tuple) and x[0] is y[0]
            else:
                assert not isinstance(x, tuple) and _bits(x) == _bits(y * scale)

    @given(**sym_case)
    @settings(max_examples=200, deadline=None)
    def test_reflection(self, a, b, alpha, width, frac, im, re):
        q, g = QuadBound(a, b), Gap(alpha, alpha + width)
        mirror = Gap(-g.beta, -g.alpha)
        strip, flipped = perturbed_strip(q, g), perturbed_strip(q, mirror)
        # equal as numbers: an end of 0.0 mirrors to 0.0, not to -0.0
        assert (flipped.lo, flipped.hi, flipped.open) == (-strip.hi, -strip.lo, strip.open)
        z = complex(strip.lo + frac * (strip.hi - strip.lo), im)
        self._same(self._strip_bounds(q, mirror, -z.conjugate()), self._strip_bounds(q, g, z))
        w = complex(re, im)
        self._same([_outcome(resolvent_bound_offreal, q, -w.conjugate())], [_outcome(resolvent_bound_offreal, q, w)])
        if g.beta > 0 and (sym := symmetric_gap_strip(q, g.beta)).strip.open:
            self._same([_outcome(sym.resolvent_bound, -z.conjugate())], [_outcome(sym.resolvent_bound, z)])

    def test_refined_tie_breaks_reflection(self):
        # Re z is the computed midpoint 0.5000009999999999: the alpha side reads distance
        # 0.49999999999999994, the beta side 0.5; a tie takes the smaller distance either way round
        q, g = QuadBound(0.0, 0.0), Gap(1e-06, 1.000001)
        mu = 0.5 * (g.alpha + g.beta)
        mirrored = resolvent_bound_strip_refined(q, Gap(-g.beta, -g.alpha), complex(-mu, 0.0))
        assert mirrored == resolvent_bound_strip_refined(q, g, complex(mu, 0.0)) == 1.0 / (mu - g.alpha)

    @given(**sym_case)
    @settings(max_examples=200, deadline=None)
    def test_conjugation(self, a, b, alpha, width, frac, im, re):
        q, g = QuadBound(a, b), Gap(alpha, alpha + width)
        w = complex(re, im)
        self._same([_outcome(resolvent_bound_offreal, q, w.conjugate())], [_outcome(resolvent_bound_offreal, q, w)])
        strip = perturbed_strip(q, g)
        z = complex(strip.lo + frac * (strip.hi - strip.lo), im)
        self._same(self._strip_bounds(q, g, z.conjugate()), self._strip_bounds(q, g, z))
        if g.beta > 0 and (sym := symmetric_gap_strip(q, g.beta)).strip.open:
            self._same([_outcome(sym.resolvent_bound, z.conjugate())], [_outcome(sym.resolvent_bound, z)])

    @given(**sym_case, k=st.integers(-20, 20))
    @settings(max_examples=200, deadline=None)
    def test_power_of_two_scaling(self, a, b, alpha, width, frac, im, re, k):
        s = 2.0**k
        q, g = QuadBound(a, b), Gap(alpha, alpha + width)
        qs, gs = QuadBound(s * a, b), Gap(s * g.alpha, s * g.beta)
        strip, scaled = perturbed_strip(q, g), perturbed_strip(qs, gs)
        assert _bits(scaled.lo, scaled.hi) == _bits(s * strip.lo, s * strip.hi) and scaled.open is strip.open
        z = complex(strip.lo + frac * (strip.hi - strip.lo), im)
        self._same(self._strip_bounds(qs, gs, s * z), self._strip_bounds(q, g, z), 1.0 / s)
        w = complex(re, im)
        self._same([_outcome(resolvent_bound_offreal, qs, s * w)], [_outcome(resolvent_bound_offreal, q, w)], 1.0 / s)
        if g.beta > 0:
            sym, sym_s = symmetric_gap_strip(q, g.beta), symmetric_gap_strip(qs, gs.beta)
            assert _bits(sym_s.beta_pert) == _bits(s * sym.beta_pert) and sym_s.strip.open is sym.strip.open
            if sym.strip.open:
                self._same([_outcome(sym_s.resolvent_bound, s * z)], [_outcome(sym.resolvent_bound, z)], 1.0 / s)
