import dataclasses
import functools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gapcert import Gap, QuadBound, matrix_lab
from gapcert.blocks import NumRangeBounds, even_lowerbound, odd_symmetric_gap, offdiag_gap
from gapcert.enclosures import (
    isolated_eigenvalue_strip,
    perturbed_strip,
    resolvent_bound_strip,
    resolvent_bound_strip_refined,
)
from gapcert.errors import ConditionNotApplicable, NumericalFailure
from gapcert.matrix_lab import (
    MatrixInstance,
    SuiteResult,
    VerifyOptions,
    gen_instance,
    gen_isolated_instance,
    measure_quad_bound,
    run_suite,
    standard_suite_specs,
    verify_instance,
)


class NearSingular(NumericalFailure):
    """Resolvent norm requested within 1e-12 of an eigenvalue."""


def eig(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a square dense matrix, algebraic multiplicity kept."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("requires a square matrix")
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK hiccup
        raise NumericalFailure(f"eigenvalue iteration failed: {exc}") from exc


def resolvent_norm(m: np.ndarray, z: complex) -> float:
    """1/sigma_min(M - zI), one SVD per point: the reference for the oracle's batched norms.

    Refuses z within 1e-12 of being singular.
    """
    m = np.asarray(m, dtype=complex)
    shifted = m - complex(z) * np.eye(m.shape[0])
    smin = float(np.linalg.svd(shifted, compute_uv=False)[-1])
    if smin < 1e-12:
        raise NearSingular(f"z={z!r} is within {smin:.3e} of the spectrum")
    return 1.0 / smin


def numrange_extremes(inst: MatrixInstance) -> NumRangeBounds:
    """Extreme eigenvalues of a Hermitian perturbation."""
    a = inst.a_mat
    if not matrix_lab._exactly_hermitian(a):
        raise ValueError("numerical-range extremes need a Hermitian A")
    ev = np.linalg.eigvalsh(0.5 * (a + a.conj().T))
    return NumRangeBounds(float(ev[0]), float(ev[-1]))


def _manual(t_diag, a_mat, quad, **kw):
    return MatrixInstance(
        name="manual", kind="none", seed=0, t_diag=np.asarray(t_diag, float),
        a_mat=np.asarray(a_mat, complex), quad=quad, **kw,
    )


class TestMeasureQuadBound:
    def test_monte_carlo_is_never_larger(self):
        rng = np.random.default_rng(11)
        t = np.sort(rng.uniform(-3.0, 3.0, size=6))
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        inst = _manual(t, a, QuadBound(1.0, 0.0))
        b = 0.4
        a_min = measure_quad_bound(inst, b)
        x = rng.standard_normal((6, 100_000)) + 1j * rng.standard_normal((6, 100_000))
        x /= np.linalg.norm(x, axis=0)
        vals = np.linalg.norm(a @ x, axis=0) ** 2 - b * b * np.linalg.norm(t[:, None] * x, axis=0) ** 2
        assert float(vals.max()) <= a_min**2 + 1e-6
        # the top eigenvector attains the measured value
        h = a.conj().T @ a - b * b * np.diag(t * t)
        w, v = np.linalg.eigh(0.5 * (h + h.conj().T))
        top = v[:, -1]
        attained = np.linalg.norm(a @ top) ** 2 - b * b * np.linalg.norm(t * top) ** 2
        assert attained == pytest.approx(a_min**2, abs=1e-10)

    def test_zero_perturbation(self):
        inst = _manual([-1.0, 1.0], np.zeros((2, 2)), QuadBound(0.0, 0.0))
        assert measure_quad_bound(inst, 0.0) == 0.0

    def test_identity_perturbation(self):
        inst = _manual([-1.0, 2.0], np.eye(2), QuadBound(1.0, 0.0))
        assert measure_quad_bound(inst, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_scaled_isometry_is_exact(self):
        # A = a * diag(signs) gives a_min(0) = a with no rounding at all
        a = 0.7303
        inst = _manual([-2.0, -1.0, 1.0, 3.0], np.diag([a, -a, a, -a]), QuadBound(a, 0.0))
        assert measure_quad_bound(inst, 0.0) == a

    @given(b1=st.floats(0.0, 0.9), b2=st.floats(0.0, 0.9))
    @settings(max_examples=80, deadline=None)
    def test_nonincreasing_in_b(self, b1, b2):
        rng = np.random.default_rng(5)
        t = np.array([-2.0, -0.5, 1.0, 2.5])
        a = rng.standard_normal((4, 4))
        inst = _manual(t, a, QuadBound(1.0, 0.0))
        lo, hi = sorted((b1, b2))
        assert measure_quad_bound(inst, hi) <= measure_quad_bound(inst, lo) + 1e-12

    def test_rejects_bad_b(self):
        inst = _manual([0.0, 1.0], np.eye(2), QuadBound(1.0, 0.0))
        with pytest.raises(ValueError):
            measure_quad_bound(inst, 1.0)
        with pytest.raises(ValueError):
            measure_quad_bound(inst, -0.1)


class TestEig:
    def test_diagonal(self):
        got = np.sort(eig(np.diag([1.0, 2.0, 3.0])).real)
        np.testing.assert_allclose(got, [1.0, 2.0, 3.0], atol=1e-14)

    def test_rotation_pair(self):
        got = eig(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        np.testing.assert_allclose(np.sort(got.imag), [-1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(got.real, 0.0, atol=1e-14)

    def test_trace_identity(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        lam = eig(m)
        assert abs(lam.sum() - np.trace(m)) <= 1e-9 * max(1.0, abs(np.trace(m)))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            eig(np.zeros((2, 3)))


class TestResolventNorm:
    def test_zero_operator(self):
        assert resolvent_norm(np.zeros((3, 3)), 2.0) == pytest.approx(0.5, abs=1e-15)

    def test_selfadjoint_is_inverse_distance(self):
        m = np.diag([1.0, 2.0, 5.0])
        z = 3.0 + 4.0j
        want = 1.0 / min(abs(t - z) for t in (1.0, 2.0, 5.0))
        assert resolvent_norm(m, z) == pytest.approx(want, rel=1e-10)

    def test_near_singular_refused(self):
        with pytest.raises(NearSingular):
            resolvent_norm(np.diag([1.0, 2.0]), 1.0 + 1e-14)


class TestNumRangeExtremes:
    def test_hermitian_diag(self):
        inst = _manual([0.0, 0.0], np.diag([-1.0, 3.0]), QuadBound(3.0, 0.0))
        w = numrange_extremes(inst)
        assert (w.inf_w, w.sup_w) == (-1.0, 3.0)

    def test_rejects_non_hermitian(self):
        inst = _manual([0.0, 0.0], np.array([[0.0, 1.0], [0.0, 0.0]]), QuadBound(1.0, 0.0))
        with pytest.raises(ValueError):
            numrange_extremes(inst)


class TestGenInstance:
    def test_minimal_gap_instance(self):
        inst = gen_instance(2, 5, gaps=((-1.0, 1.0),))
        np.testing.assert_array_equal(inst.t_diag, [-1.0, 1.0])

    def test_deterministic(self):
        i1 = gen_instance(10, 77, kind="symmetric")
        i2 = gen_instance(10, 77, kind="symmetric")
        np.testing.assert_array_equal(i1.t_diag, i2.t_diag)
        np.testing.assert_array_equal(i1.a_mat, i2.a_mat)
        assert i1.quad == i2.quad

    def test_gap_endpoints_attained(self):
        for kind in ("none", "multi", "symmetric"):
            inst = gen_instance(12, 9, kind=kind, n_gaps=2 if kind == "multi" else 1)
            for gap in inst.gaps:
                assert np.any(inst.t_diag == gap.alpha)
                assert np.any(inst.t_diag == gap.beta)

    def test_magnitude_is_binding(self):
        """Every kind meets its calibration target at the magnitude, formulas written out here.

        The plain and isolated kinds hit their gap ratio, symmetric its own
        ratio, probe 2a / width; the block kinds' cert constants give
        sqrt(s1 s2) = magnitude * scale with every scaled block b below 0.9.
        """
        def gap_ratio(q, gaps):
            return max((q.shift(g.alpha) + q.shift(g.beta)) / g.width for g in gaps)

        for kind in matrix_lab._KINDS:
            for dim, seed, magnitude in ((14, 21, 0.8), (6, 3, 0.35), (10, 8, 0.93), (8, 40, 0.6)):
                inst = gen_instance(dim, seed, kind=kind, magnitude=magnitude, n_gaps=2 if kind == "multi" else 1)
                q = inst.quad
                if kind in ("none", "multi", "isolated"):
                    rho = gap_ratio(q, inst.gaps)
                elif kind == "symmetric":
                    window, inside, nr = inst.cert
                    sa, sb, w = q.shift(window.alpha), q.shift(window.beta), window.width
                    own = (sa + sb) / w if inside else gap_ratio(q, inst.gaps)
                    rho = max(own, (nr.sup_w + sb) / w, (sa - nr.inf_w) / w, (nr.sup_w - nr.inf_w) / w)
                elif kind == "probe":
                    rho = 2.0 * q.a / inst.gaps[0].width
                else:
                    (a1, b1, a2, b2), where = inst.cert
                    # A12 (or A11) is measured at the edge of the other block (of T12)
                    if kind == "offdiag":
                        edges, scale = (where.beta, where.alpha), 0.5 * where.width
                    elif kind == "even":
                        edges, scale = (where.beta2, where.beta1), 0.5 * (where.beta1 + where.beta2)
                    else:
                        edges, scale = (where, where), where
                    assert max(b1, b2) < 0.9
                    rho = math.sqrt(math.hypot(a1, b1 * edges[0]) * math.hypot(a2, b2 * edges[1])) / scale
                assert rho == pytest.approx(magnitude, rel=1e-12), (kind, dim, seed)

    @pytest.mark.parametrize("dim, magnitude, name", [
        (65, 0.6, "dim"), (80, 0.6, "dim"), (8, 0.0, "magnitude"), (8, 1.0, "magnitude"),
        (8, 5.0, "magnitude"), (8, -1.0, "magnitude"), (8, math.nan, "magnitude"),
    ])
    def test_both_builders_refuse_dim_and_magnitude_alike(self, dim, magnitude, name):
        # gen_isolated_instance once built dim 80 and magnitudes 0 and 1, and
        # failed later and elsewhere on 5.0, -1.0 and NaN
        with pytest.raises(ValueError, match=name):
            gen_instance(dim, 0, magnitude=magnitude)
        with pytest.raises(ValueError, match=name):
            gen_isolated_instance(dim, 1, 0, magnitude)

    def test_rejections(self):
        with pytest.raises(ValueError):
            gen_instance(1, 0)
        with pytest.raises(ValueError):
            gen_instance(65, 0)
        with pytest.raises(ValueError):
            gen_instance(8, 0, magnitude=1.0)
        with pytest.raises(ValueError):
            gen_instance(8, 0, kind="bogus")
        with pytest.raises(ValueError):
            gen_instance(7, 0, kind="offdiag")
        with pytest.raises(ValueError):
            gen_instance(2, 0, gaps=((-2.0, -1.0), (1.0, 2.0)))
        with pytest.raises(ValueError):
            gen_instance(4, 0, gaps=((-1.0, 1.0), (0.5, 2.0)))

    @pytest.mark.parametrize("kind", ["offdiag", "even", "diag-blocks"])
    def test_block_kinds_need_even_dim_and_place_their_own_gap(self, kind):
        with pytest.raises(ValueError, match="even dimension"):
            gen_instance(7, 0, kind=kind)
        with pytest.raises(ValueError, match="gaps"):
            gen_instance(8, 0, kind=kind, gaps=((-10.0, 10.0),))
        gen_instance(8, 0, kind=kind)

    @pytest.mark.parametrize("kind, n_gaps", [
        ("multi", 0), ("multi", -1), ("multi", 2.5), ("none", 0), ("none", 2.5),
    ])
    def test_rejects_n_gaps_that_is_no_count(self, kind, n_gaps):
        with pytest.raises(ValueError, match="n_gaps must be an integer >= 1"):
            gen_instance(8, 0, kind=kind, n_gaps=n_gaps)

    @pytest.mark.parametrize("kind", [kind for kind in matrix_lab._KINDS if kind != "multi"])
    def test_single_gap_kinds_refuse_n_gaps(self, kind):
        with pytest.raises(ValueError, match="n_gaps must be 1"):
            gen_instance(8, 0, kind=kind, n_gaps=3)
        gen_instance(8, 0, kind=kind, n_gaps=1)

    @pytest.mark.parametrize("args, name", [
        ((4.5, 0), "dim"), ((4.0 + 1e-9, 0), "dim"), (("4", 0), "dim"), ((math.inf, 0), "dim"),
        ((4, 0.5), "seed"), ((4, -1), "seed"), ((4, "0"), "seed"), ((4, math.nan), "seed"),
    ])
    def test_rejects_dim_and_seed_by_name(self, args, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer >= "):
            gen_instance(*args)

    @pytest.mark.parametrize("args, name", [
        ((6.5, 1, 0), "dim"), ((6, 1.5, 0), "mult"), ((6, 0, 0), "mult"), ((6, None, 0), "mult"),
        ((6, 1, 0.5), "seed"), ((6, 1, -1), "seed"),
    ])
    def test_isolated_rejects_dim_mult_and_seed_by_name(self, args, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer >= "):
            gen_isolated_instance(*args)

    def test_whole_floats_build_the_int_instance(self):
        for got, want in ((gen_instance(6.0, 3.0), gen_instance(6, 3)),
                          (gen_isolated_instance(6.0, 2.0, 3.0), gen_isolated_instance(6, 2, 3))):
            assert got.a_mat.tobytes() == want.a_mat.tobytes() and (got.name, got.seed) == (want.name, want.seed)

    def test_multi_builds_n_gaps_gaps(self):
        assert len(gen_instance(12, 0, kind="multi", n_gaps=3).gaps) == 3

    def test_isolated_multiplicity(self):
        inst = gen_isolated_instance(12, 3, 4)
        assert int(np.sum(inst.t_diag == inst.cert[0].lam)) == 3
        with pytest.raises(ValueError):
            gen_isolated_instance(4, 3, 0)

    @pytest.mark.parametrize("dim", [3, 4, 5, 12, 40])
    def test_isolated_kind_is_gen_isolated_instance(self, dim):
        # the isolated row takes multiplicity 1 + seed % 3, at most dim - 2
        for seed in range(6):
            got = gen_instance(dim, seed, kind="isolated", magnitude=0.7, name="x")
            want = gen_isolated_instance(dim, min(1 + seed % 3, dim - 2), seed, magnitude=0.7, name="x")
            assert got.t_diag.tobytes() == want.t_diag.tobytes()
            assert got.a_mat.tobytes() == want.a_mat.tobytes()
            assert (got.name, got.kind, got.seed, got.quad, got.gaps, got.cert) == (
                want.name, want.kind, want.seed, want.quad, want.gaps, want.cert)
        with pytest.raises(ValueError, match="mult"):
            gen_instance(2, 0, kind="isolated")
        with pytest.raises(ValueError, match="gaps"):
            gen_instance(8, 0, kind="isolated", gaps=((-1.0, 1.0),))


class TestVerifyInstance:
    def test_zero_perturbation_all_pass(self):
        t = np.array([-3.0, -1.0, 1.0, 2.0])
        inst = _manual(
            t, np.zeros((4, 4)), QuadBound(0.0, 0.0),
            gaps=(Gap(-1.0, 1.0),),
        )
        rep = verify_instance(inst)
        assert rep.ok
        assert all(c.margin >= 0.0 for c in rep.checks)

    def test_probe_strip_margin_is_sharp(self):
        rep = verify_instance(gen_instance(10, 3, kind="probe"))
        strip = next(c for c in rep.checks if c.check == "strip")
        assert strip.passed
        assert abs(strip.margin) <= 1e-15

    def test_unwidened_strip_tests_the_certificate_ends(self):
        # the certificate's ends, not center -/+ half (which moves them by an ulp)
        rep = verify_instance(gen_instance(29, 335288494, kind="probe", magnitude=0.3147028161939025))
        strip = next(c for c in rep.checks if c.check == "strip")
        assert strip.margin == 0.0 and strip.passed

    def test_widening_produces_witness(self):
        rep = verify_instance(gen_instance(10, 3, kind="probe"), VerifyOptions(widen=0.1))
        bad = [c for c in rep.checks if not c.passed]
        assert bad and all(c.witness for c in bad)

    @pytest.mark.parametrize("kind", list(matrix_lab._KINDS))
    def test_every_kind_verifies(self, kind):
        inst = gen_instance(12, 7, kind=kind, n_gaps=2 if kind == "multi" else 1)
        rep = verify_instance(inst)
        assert rep.ok, (kind, [(c.check, c.margin) for c in rep.checks if not c.passed])

    def test_structured_checks_present(self):
        names = {c.check for c in verify_instance(gen_instance(12, 0, kind="diag-blocks")).checks}
        assert "structured-odd" in names
        assert "resolvent-symgap" in names
        names = {c.check for c in verify_instance(gen_instance(12, 0, kind="offdiag")).checks}
        assert "structured-offdiag" in names
        names = {c.check for c in verify_instance(gen_instance(12, 0, kind="even")).checks}
        assert "structured-even" in names
        names = {c.check for c in verify_instance(gen_instance(12, 0, kind="symmetric")).checks}
        assert "numrange-window" in names
        assert "balls" in names or "numrange-window" in names

    @pytest.mark.parametrize("kind", list(matrix_lab._KINDS))
    def test_check_names_and_order_per_kind(self, kind):
        # suite CSV rows follow this order: the common checks, resolvent-symgap
        # and balls where they apply, then the kind's own check last
        common = ("eig-sanity", "hyperbola", "strip", "resolvent-offreal",
                  "resolvent-strip", "refined-le-plain")
        want = {
            "none": common,
            "symmetric": common + ("numrange-window",),
            "probe": common + ("balls",),
            "offdiag": common + ("structured-offdiag",),
            "even": common + ("structured-even",),
            "diag-blocks": common + ("resolvent-symgap", "structured-odd"),
            "multi": common,
            "isolated": common + ("eig-count",),
        }
        inst = gen_instance(12, 7, kind=kind, n_gaps=2 if kind == "multi" else 1)
        names = tuple(c.check for c in verify_instance(inst).checks)
        assert names[:len(common)] == common
        assert names == want.get(kind, names), kind
        if kind == "isolated":
            # the isolated row's instance at seed 7 has multiplicity 2
            rep = verify_instance(gen_isolated_instance(12, 2, 7))
            assert tuple(c.check for c in rep.checks) == common + ("eig-count",)

    def test_isolated_count_check(self):
        rep = verify_instance(gen_isolated_instance(14, 2, 99))
        count = next(c for c in rep.checks if c.check == "eig-count")
        assert count.passed and count.margin == 0.0

    @pytest.mark.parametrize("widen", [0.0, 0.5])
    def test_empty_counting_strip_is_not_applicable(self, widen):
        # at magnitude 1e-20 shift(lam) is below half an ulp of lam, so the
        # counting strip (lam, lam) is empty: refused, and eig-count passes
        # noted "not applicable" instead of claiming a count in it
        inst = gen_instance(8, 1, kind="isolated", magnitude=1e-20)
        with pytest.raises(ConditionNotApplicable):
            isolated_eigenvalue_strip(inst.quad, *inst.cert)
        rep = verify_instance(inst, VerifyOptions(widen=widen))
        count = next(c for c in rep.checks if c.check == "eig-count")
        assert (count.margin, count.passed, count.witness, count.note) == (0.0, True, "", "not applicable")

    def test_report_json_round_trip(self):
        rep = verify_instance(gen_instance(8, 1, kind="none"))
        doc = json.loads(rep.to_json())
        assert doc["instance"] == rep.instance
        assert doc["s_points"] == 11
        assert len(doc["checks"]) == len(rep.checks)
        assert rep.to_json() == verify_instance(gen_instance(8, 1, kind="none")).to_json()

    def test_report_json_writes_quad_as_an_object(self):
        # QuadBound is a tuple; asdict alone would have JSON write it as a list
        rep = verify_instance(gen_instance(8, 1, kind="none"))
        assert json.loads(rep.to_json())["quad"] == {"a": rep.quad.a, "b": rep.quad.b}


class TestVerifyOptions:
    @pytest.mark.parametrize("kwargs, name", [
        ({"s_points": 0}, "s_points"),
        ({"s_points": 1}, "s_points"),
        ({"s_points": 2.5}, "s_points"),
        ({"widen": float("nan")}, "widen"),
        ({"widen": float("inf")}, "widen"),
        ({"widen": -0.1}, "widen"),
    ])
    def test_rejects_bad_grid_or_widen(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            VerifyOptions(**kwargs)

    @pytest.mark.parametrize("name", ["z_re", "z_im", "inset", "rel_margin", "resolvent_tol",
                                      "refined_tol"])
    def test_grid_shape_and_tolerances_are_not_options(self, name):
        with pytest.raises(TypeError, match=name):
            VerifyOptions(**{name: getattr(matrix_lab, "_" + name.upper())})

    def test_extremes_accepted(self, monkeypatch):
        monkeypatch.setattr(matrix_lab, "_Z_RE", 1)
        opt = VerifyOptions(s_points=2, widen=0.0)
        rep = verify_instance(gen_instance(8, 1, kind="none"), opt)
        assert rep.s_points == 2 and rep.ok

    def test_suite_count_at_least_one(self):
        with pytest.raises(ValueError, match="count"):
            run_suite(0)


class TestSuite:
    def test_specs_deterministic(self):
        assert standard_suite_specs(40) == standard_suite_specs(40)

    def test_small_suite_green(self):
        res = run_suite(24, dim_hi=16, seed=5)
        assert res.ok
        assert len(res.reports) == 24
        assert res.elapsed > 0.0

    def test_specs_reject_inverted_dimension_range(self):
        with pytest.raises(ValueError, match="dim_lo.*dim_hi"):
            standard_suite_specs(4, dim_lo=10, dim_hi=5)
        with pytest.raises(ValueError, match="dim_lo"):
            run_suite(2, dim_lo=10, dim_hi=5)
        assert {spec[1] for spec in standard_suite_specs(20, dim_lo=10, dim_hi=10)} == {10}

    @pytest.mark.parametrize("dims, name", [
        ((1, 3), "dim_lo"), ((0, 40), "dim_lo"), ((4, 65), "dim_hi"), ((4, 1), "dim_hi"),
        ((2.5, 10), "dim_lo"),
    ])
    def test_specs_reject_dimensions_outside_2_to_64(self, dims, name):
        with pytest.raises(ValueError, match=name):
            standard_suite_specs(3, *dims)
        with pytest.raises(ValueError, match=name):
            run_suite(3, *dims)

    @pytest.mark.parametrize("seed", [-1, 2.5, "0", math.nan, None])
    def test_specs_reject_seed_by_name(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            standard_suite_specs(3, seed=seed)
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            run_suite(3, seed=seed)

    @pytest.mark.parametrize("count", [0, -3, 2.5, "4"])
    def test_specs_reject_count_by_name(self, count):
        with pytest.raises(ValueError, match="count must be an integer >= 1"):
            standard_suite_specs(count)

    def test_whole_seeds_keep_the_int_plan(self):
        want = standard_suite_specs(20, seed=7)
        assert standard_suite_specs(20, seed=np.int64(7)) == standard_suite_specs(20, seed=7.0) == want

    def test_specs_accept_the_ends_of_the_range(self):
        assert {spec[1] for spec in standard_suite_specs(30, 2, 2)} <= {2, 8}
        assert max(spec[1] for spec in standard_suite_specs(30, 60, 64)) <= 64

    @pytest.mark.usefixtures("empty_store")
    def test_isolated_suite_runs_through_run_suite(self):
        # the isolated suite takes run_suite's one path (lanes, batches, CSV);
        # its dims default to the suite's own range
        specs = standard_suite_specs(40, seed=3, suite="isolated")
        assert {kind for kind, *_ in specs} == {"isolated"}
        assert all(6 <= dim <= 40 for _, dim, *_ in specs)
        res = run_suite(40, seed=3, suite="isolated")
        assert all(r.checks[-1].check == "eig-count" for r in res.reports)
        assert res.ok
        serial = [
            verify_instance(gen_instance(dim, seed, kind=kind, magnitude=magnitude, n_gaps=n_gaps,
                                         name=f"{kind}-{idx:04d}"))
            for idx, (kind, dim, seed, magnitude, n_gaps) in enumerate(specs)
        ]
        assert res.to_csv() == SuiteResult(tuple(serial), 0.0).to_csv()

    def test_unknown_suite_lists_the_suites(self):
        with pytest.raises(ValueError, match="'bogus'; valid suites: standard, isolated"):
            standard_suite_specs(4, suite="bogus")
        with pytest.raises(ValueError, match="valid suites"):
            run_suite(4, suite="bogus")

    def test_csv_shape(self):
        res = run_suite(6, dim_hi=10, seed=2)
        lines = res.to_csv().strip().split("\n")
        assert lines[0] == "instance,check,margin,pass"
        assert len(lines) == 1 + sum(len(r.checks) for r in res.reports)
        for row in lines[1:]:
            name, check, margin, flag = row.split(",")
            float(margin)
            assert flag in ("0", "1")


@functools.cache
def _serial_reports(*args) -> tuple[str, ...]:
    """JSON of each report of run_suite(*args), the instances verified one by one.

    A pure function of args, so each plan is built once per test process.
    """
    reports = []
    for idx, (kind, dim, seed, magnitude, n_gaps) in enumerate(standard_suite_specs(*args)):
        inst = gen_instance(dim, seed, kind=kind, magnitude=magnitude, n_gaps=n_gaps,
                            name=f"{kind}-{idx:04d}")
        reports.append(verify_instance(inst).to_json())
    return tuple(reports)


class TestParallelOracle:
    """run_suite runs whole batches on lanes, one per usable CPU; reports stay serial."""

    def test_round_stack_matches_scalar_resolvent_norm(self, oracle_calls):
        # the rounds of three instances of one order stacked into one SVD call
        rng = np.random.default_rng(3)
        asks = []
        for k, size in enumerate((105, 1, 40)):
            inst = gen_instance(24, 7 + k)
            zs = rng.uniform(-4.0, 4.0, size) + 1j * rng.uniform(0.1, 3.0, size)
            asks.append((inst.t_mat + inst.a_mat, zs))
        norms = matrix_lab._stacked_norms(asks)
        assert oracle_calls["svd"] == 1
        assert [n.tolist() for n in norms] == [[resolvent_norm(m0, z) for z in zs] for m0, zs in asks]

    @pytest.mark.usefixtures("empty_store")
    def test_suite_matches_serial_loop(self):
        # orders 4 to 40 mixed, so that run_suite plans batches of several
        # orders and the lanes take them in turn
        args = (60, 4, 40)
        laned = run_suite(*args).reports
        assert tuple(r.to_json() for r in laned) == _serial_reports(*args)

    @pytest.mark.usefixtures("empty_store")
    def test_concurrent_callers_match_serial(self):
        plans = [(10, 4, 12, 31 + k) for k in range(3)] + [(6, 36, 40, 34 + k) for k in range(3)]
        want = [_serial_reports(*args) for args in plans]
        # six callers at once, each starting lanes of its own
        got = [None] * len(plans)

        def caller(k):
            got[k] = tuple(r.to_json() for r in run_suite(*plans[k]).reports)

        threads = [threading.Thread(target=caller, args=(k,)) for k in range(len(plans))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == want

    @pytest.mark.usefixtures("empty_store")
    @pytest.mark.parametrize("error", [NumericalFailure, KeyboardInterrupt])
    def test_lane_failure_stops_every_lane(self, monkeypatch, error):
        args = (30, 4, 12, 9)
        store = matrix_lab._previous_suite = (("another plan",), ())
        batches = matrix_lab._suite_batches(standard_suite_specs(*args), 11)
        bad = batches[0][0]
        exits, started = [], set()
        lock = threading.Lock()

        def refused(kw) -> bool:
            if error is KeyboardInterrupt:
                # an interrupt reaches the calling thread, in whichever batch it runs
                return threading.current_thread() is threading.main_thread()
            return kw["name"].endswith(f"-{bad:04d}")

        def logged(fn, fail=lambda kw: False):
            def wrapper(*a, **kw):
                try:
                    if "name" in kw:
                        idx = int(kw["name"].rsplit("-", 1)[1])
                        started.add(next(k for k, b in enumerate(batches) if idx in b))
                    if fail(kw):
                        raise error(f"refused {kw['name']}")
                    return fn(*a, **kw)
                finally:
                    with lock:
                        exits.append(time.perf_counter())
            return wrapper

        with monkeypatch.context() as patch:
            patch.setattr(matrix_lab, "gen_instance", logged(matrix_lab.gen_instance, refused))
            patch.setattr(matrix_lab, "verify_instance", logged(matrix_lab.verify_instance))
            with pytest.raises(error, match="refused"):
                run_suite(*args)
            returned = time.perf_counter()
            time.sleep(0.3)
        # no lane ran on after the call returned, and none took a batch after
        # the failure: at most one batch per lane, and one more taken as it fell
        assert exits and max(exits) <= returned
        assert len(started) <= min(len(batches) - 1, matrix_lab._usable_cpus() + 1)
        assert matrix_lab._previous_suite is store
        got = tuple(r.to_json() for r in run_suite(*args).reports)
        assert got == _serial_reports(*args)

    def test_interrupt_between_batches_stops_every_lane(self):
        class Batches:
            """50 batches; the calling thread is interrupted when it asks for its second."""

            taken = 0

            def __len__(self):
                return 50

            def __iter__(self):
                return self

            def __next__(self):
                if threading.current_thread() is threading.main_thread() and self.taken:
                    raise KeyboardInterrupt
                if self.taken == 50:
                    raise StopIteration
                self.taken += 1
                return self.taken

        done = []
        batches = Batches()
        with pytest.raises(KeyboardInterrupt):
            matrix_lab._run_lanes(lambda batch: (time.sleep(0.01), done.append(batch)), batches)
        finished = len(done)
        time.sleep(0.2)
        assert len(done) == finished == batches.taken < 50

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    @pytest.mark.usefixtures("empty_store")
    def test_forked_child_verifies_after_parent_ran_lanes(self):
        args = (12, 20, 24, 11)
        want = run_suite(*args).to_csv()

        def child():
            # the child observes again, on lanes of its own
            matrix_lab._previous_suite = (None, ())
            sys.exit(0 if run_suite(*args).to_csv() == want else 1)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(60)
        if proc.is_alive():
            proc.kill()
            proc.join()
            pytest.fail("forked child hung in run_suite")
        assert proc.exitcode == 0

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
    def test_one_cpu_starts_no_thread(self):
        assert _fresh_process_prints(
            "import os, sys, threading",
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})",
            "from gapcert.matrix_lab import gen_instance, run_suite, verify_instance",
            "assert verify_instance(gen_instance(24, 11)).ok",
            "assert run_suite(12, 20, 24, 11).ok",
            "print(threading.active_count(), 'concurrent.futures' in sys.modules)",
        ) == ["1", "False"]

    def test_no_thread_outlives_the_call(self):
        # in a fresh process, so that no earlier call's thread is counted;
        # four usable CPUs, so that the call starts lanes on any machine
        assert _fresh_process_prints(
            "import threading",
            "from gapcert import matrix_lab",
            "from gapcert.errors import NumericalFailure",
            "matrix_lab._usable_cpus = lambda: 4",
            "generate, lanes, refuse = matrix_lab.gen_instance, set(), False",
            "def refusing(*args, **kw):",
            "    lanes.add(threading.current_thread().name)",
            "    if refuse and kw['name'].endswith('-0007'):",
            "        raise NumericalFailure('refused')",
            "    return generate(*args, **kw)",
            "matrix_lab.gen_instance = refusing",
            "before = threading.active_count()",
            "assert matrix_lab.run_suite(12, 20, 24, 11).ok",
            "returned, refuse = threading.active_count(), True",
            "try:",
            "    matrix_lab.run_suite(12, 20, 24, 12)",
            "except NumericalFailure:",
            "    raised = threading.active_count()",
            "print(before, returned, raised, len(lanes) > 1)",
        ) == ["1", "1", "1", "True"]


def _fresh_process_prints(*lines: str) -> list[str]:
    """The words the script of `lines` prints in a new interpreter that imports gapcert from src/."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", "\n".join(lines)], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


_SMALL = (16, 6, 14, 11)
_WIDENED = VerifyOptions(widen=0.1)


@pytest.fixture
def empty_store(monkeypatch):
    monkeypatch.setattr(matrix_lab, "_previous_suite", (None, ()))


@pytest.fixture
def oracle_calls(monkeypatch):
    """Counts of eigvals, eigvalsh, svd and slogdet calls made through numpy.linalg, and of matrices swept.

    The swept matrices are those of the stacks (3-D arrays) that eigvals or
    eigvalsh took; generation calls eigvalsh on single matrices only.
    """
    calls = {"eigvals": 0, "eigvalsh": 0, "svd": 0, "slogdet": 0, "swept": 0}
    lock = threading.Lock()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            with lock:
                calls[name] += 1
                if name in ("eigvals", "eigvalsh") and args[0].ndim == 3:
                    calls["swept"] += args[0].shape[0]
            return fn(*args, **kwargs)
        return wrapper

    for name in ("eigvals", "eigvalsh", "svd", "slogdet"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    return calls


def _stored_arrays(obs):
    arrays = [obs.s_grid, obs.eigs]
    for record in obs.bounded:
        arrays.extend((record.zs, record.bounds, record.values, record.exact))
    return arrays


def _resolvent_records(obs):
    """The observation's resolvent records, whose values are norms: every one but refined-le-plain's."""
    return [record for record in obs.bounded if record.check != "refined-le-plain"]


@pytest.mark.usefixtures("empty_store")
class TestObservationReuse:
    """run_suite judges instances the previous call observed on that call's arrays."""

    def test_widened_after_plain_matches_fresh_widened(self):
        plain = run_suite(*_SMALL).to_csv()
        reused = run_suite(*_SMALL, options=_WIDENED).to_csv()
        matrix_lab._previous_suite = (None, ())
        fresh = run_suite(*_SMALL, options=_WIDENED).to_csv()
        assert reused == fresh
        assert fresh != plain
        assert run_suite(*_SMALL).to_csv() == plain

    def test_second_call_does_no_linear_algebra(self, oracle_calls, monkeypatch):
        run_suite(*_SMALL)
        assert oracle_calls["swept"] == _SMALL[0] * 11 and oracle_calls["svd"] > 0
        for name in oracle_calls:
            oracle_calls[name] = 0
        monkeypatch.setattr(matrix_lab, "_REL_MARGIN", 1e-6)
        monkeypatch.setattr(matrix_lab, "_REFINED_TOL", 0.0)
        run_suite(*_SMALL, options=_WIDENED)
        assert oracle_calls == {"eigvals": 0, "eigvalsh": 0, "svd": 0, "slogdet": 0, "swept": 0}

    def test_reuse_generates_nothing(self, monkeypatch):
        calls = {"gen_instance": 0, "verify_instance": 0}
        lock = threading.Lock()

        def counted(name):
            fn = getattr(matrix_lab, name)

            def wrapper(*args, **kwargs):
                with lock:
                    calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # rebound through the module names, as perfbench/tracer.py does
        for name in calls:
            monkeypatch.setattr(matrix_lab, name, counted(name))
        run_suite(*_SMALL)
        assert calls == {"gen_instance": _SMALL[0], "verify_instance": _SMALL[0]}
        calls.update(gen_instance=0, verify_instance=0)
        reused = run_suite(*_SMALL, options=_WIDENED).to_csv()
        assert calls == {"gen_instance": 0, "verify_instance": _SMALL[0]}
        matrix_lab._previous_suite = (None, ())
        assert run_suite(*_SMALL, options=_WIDENED).to_csv() == reused

    @pytest.mark.parametrize("changed", [("s_points", 9), ("_INSET", 1e-5), ("_Z_RE", 14), ("_Z_IM", 5)])
    def test_changed_grid_observes_again(self, oracle_calls, monkeypatch, changed):
        run_suite(*_SMALL)
        oracle_calls["swept"] = 0
        name, value = changed
        if name == "s_points":
            options = VerifyOptions(s_points=value)
        else:
            monkeypatch.setattr(matrix_lab, name, value)
            options = VerifyOptions()
        run_suite(*_SMALL, options=options)
        assert oracle_calls["swept"] == _SMALL[0] * options.s_points

    def test_only_the_previous_call_is_kept(self, oracle_calls):
        run_suite(*_SMALL)
        run_suite(4, 6, 14, 12)
        oracle_calls["swept"] = 0
        run_suite(*_SMALL)
        assert oracle_calls["swept"] == _SMALL[0] * 11
        assert len(matrix_lab._previous_suite[1]) == _SMALL[0]

    def test_direct_calls_leave_the_store_alone(self, oracle_calls):
        inst = gen_instance(12, 4)
        first = verify_instance(inst).to_json()
        assert verify_instance(inst).to_json() == first
        assert oracle_calls["eigvals"] == 2
        assert matrix_lab._previous_suite == (None, ())
        run_suite(*_SMALL)
        store = matrix_lab._previous_suite
        verify_instance(inst)
        assert matrix_lab._previous_suite == store

    @pytest.mark.parametrize("kind", list(matrix_lab._KINDS))
    def test_given_observation_is_judged_as_is(self, oracle_calls, kind):
        inst = gen_instance(12, 5, kind=kind, n_gaps=2 if kind == "multi" else 1)
        for options in (VerifyOptions(), _WIDENED):
            want = verify_instance(inst, options).to_json()
            obs = matrix_lab._observe(inst, options)
            for name in oracle_calls:
                oracle_calls[name] = 0
            assert verify_instance(inst, options, observation=obs).to_json() == want
            assert oracle_calls == {"eigvals": 0, "eigvalsh": 0, "svd": 0, "slogdet": 0, "swept": 0}

    def test_stored_arrays_reject_writes(self):
        run_suite(*_SMALL)
        stored = list(matrix_lab._previous_suite[1])
        assert len(stored) == _SMALL[0]
        assert any(obs.strips for _, obs in stored)
        assert any(r.check == "resolvent-symgap" for _, obs in stored for r in obs.bounded)
        for inst, obs in stored:
            for array in [inst.t_diag, inst.a_mat, *_stored_arrays(obs)]:
                with pytest.raises(ValueError, match="read-only"):
                    array.flat[0] = 0
            # the records' container and each record refuse assignment too
            assert isinstance(obs.bounded, tuple) and obs.bounded
            with pytest.raises(TypeError):
                obs.bounded[0] = obs.bounded[-1]
            with pytest.raises(AttributeError):
                obs.bounded[0].values = obs.bounded[-1].values
            with pytest.raises(dataclasses.FrozenInstanceError):
                obs.bounded = ()

    def test_concurrent_suites_match_serial(self):
        plans = [((8, 6, 12, 11), None), ((8, 6, 12, 11), _WIDENED),
                 ((8, 6, 12, 13), None), ((8, 6, 12, 13), _WIDENED)]

        def run(args, options):
            return run_suite(*args, **({"options": options} if options else {})).to_csv()

        want = []
        for plan in plans:
            matrix_lab._previous_suite = (None, ())
            want.append(run(*plan))
        matrix_lab._previous_suite = (None, ())
        got = [None] * 4

        def caller(k):
            # more threads than cores, each starting at another plan, so
            # every call may find the store of any other thread's call
            order = list(range(k, len(plans))) + list(range(k))
            got[k] = sorted((i, run(*plans[i])) for i in order)

        threads = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [list(enumerate(want))] * 4


_PRUNE_KINDS = list(matrix_lab._KINDS)


def _prune_instance(kind, dim, seed, magnitude):
    if kind == "isolated":
        return gen_isolated_instance(dim, min(2, dim - 2), seed, magnitude=magnitude)
    n_gaps = 2 if kind == "multi" else 1
    return gen_instance(dim, seed, kind=kind, magnitude=magnitude, n_gaps=n_gaps)


def _full_grid(record, m0):
    """The record with every norm evaluated by one batch over all of its points; refined-le-plain's, whose values are bounds, as it is."""
    if record.check == "refined-le-plain":
        return record
    (full,) = matrix_lab._stacked_norms([(m0, record.zs)])
    return record._replace(values=full, exact=np.ones(full.size, dtype=bool))


def _assert_pruning_changes_no_report(inst):
    """The observation, plain and in rounds of one point per check run to the end, judges as the full grid does."""
    m0 = inst.t_mat + inst.a_mat
    observed = [matrix_lab._observe(inst, VerifyOptions())]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matrix_lab, "_round_size", lambda n, pending: 1)
        patch.setattr(matrix_lab, "_ROUNDS", 10**6)
        observed.append(matrix_lab._observe(inst, VerifyOptions()))
    obs = observed[0]
    full = dataclasses.replace(obs, bounded=tuple(_full_grid(record, m0) for record in obs.bounded))
    want = [matrix_lab._judge(inst, full, o).to_json() for o in (VerifyOptions(), _WIDENED)]
    for obs in observed:
        assert obs.bounded
        for record, reference in zip(obs.bounded, full.bounded):
            exact, norms = record.exact, reference.values
            assert record.values[exact].tolist() == norms[exact].tolist()
            assert np.all(record.values[~exact] >= norms[~exact])
        got = [matrix_lab._judge(inst, obs, o).to_json() for o in (VerifyOptions(), _WIDENED)]
        assert got == want


def _hermitian_instance(kind, dim, seed, magnitude):
    """An exactly Hermitian kind's instance, or a hypothesis rejection where it does not calibrate."""
    try:
        return gen_instance(dim, seed, kind=kind, magnitude=magnitude)
    except NumericalFailure:
        assume(False)


_HERMITIAN_DRAW = dict(
    kind=st.sampled_from([kind for kind, row in matrix_lab._KINDS.items() if row.hermitian]),
    dim=st.integers(4, 40), seed=st.integers(0, 2**31 - 2), magnitude=st.floats(0.3, 0.95),
)


class TestPrunedOracle:
    """Pruning by both Weyl brackets skips SVDs but changes no report, whatever the round schedule."""

    @pytest.mark.parametrize("dim, magnitude", [(4, 0.9), (10, 0.5), (22, 0.9), (40, 0.5)])
    @pytest.mark.parametrize("kind", _PRUNE_KINDS)
    def test_pruning_changes_no_report(self, kind, dim, magnitude):
        _assert_pruning_changes_no_report(_prune_instance(kind, dim, dim, magnitude))

    @given(**_HERMITIAN_DRAW)
    @settings(max_examples=30, deadline=None)
    def test_hermitian_pruning_changes_no_report(self, kind, dim, seed, magnitude):
        # the two-sided bracket prunes all but about one point per check
        _assert_pruning_changes_no_report(_hermitian_instance(kind, dim, seed, magnitude))

    @given(**_HERMITIAN_DRAW)
    @settings(max_examples=40, deadline=None)
    def test_hermitian_bracket_is_two_sided(self, kind, dim, seed, magnitude):
        # for an exactly Hermitian M, |sigma_min(M - z) - dist(z, eigs)| <= slack_h at every
        # point of every grid, eigs the s = 1 eigvalsh row; slack_h is the SVD's slack plus
        # 8 n eps (max|eig| + max|z|), and the brackets take exactly that slack
        inst = _hermitian_instance(kind, dim, seed, magnitude)
        m0 = inst.t_mat + inst.a_mat
        _, grids, _ = matrix_lab._resolvent_grids(inst)
        assume(grids)
        eigs = matrix_lab._sweep([inst], matrix_lab._s_grid(VerifyOptions()))[0, -1]
        brackets = matrix_lab._Brackets(m0, inst.t_diag, None, eigs, grids)
        zs = brackets.zs
        sigma = np.linalg.svd(m0[None] - zs[:, None, None] * np.eye(dim), compute_uv=False)[:, -1]
        dist = np.abs(zs[:, None] - eigs[None, :]).min(axis=1)
        eps = float(np.finfo(float).eps)
        slack = 8.0 * dim * eps * (float(np.linalg.norm(m0)) + float(np.abs(zs).max()))
        slack_h = slack + 8.0 * dim * eps * (float(np.abs(eigs).max()) + float(np.abs(zs).max()))
        assert np.all(np.abs(sigma - dist) <= slack_h)
        assert brackets.fixed.tolist() == (dist - slack_h).tolist()

    @pytest.mark.parametrize("dim", [4, 10, 22, 40])
    def test_hermitian_instance_svds_at_most_two_points_per_check(self, dim):
        # the worst point, and at most its conjugate twin: dist(z, sigma(M)) is even in Im z.
        # A probe's strip check is the exception: its norms meet its bounds along the real
        # axis, ties that only an SVD at each point can order
        for seed in range(8):
            inst = gen_instance(dim, seed, kind="symmetric", magnitude=0.3 + 0.08 * seed)
            records = _resolvent_records(matrix_lab._observe(inst, VerifyOptions()))
            exact = {record.check: int(record.exact.sum()) for record in records}
            assert len(exact) == len(records)
            assert exact and all(1 <= count <= 2 for count in exact.values())

    @pytest.mark.parametrize("dim, magnitude", [(4, 0.9), (10, 0.5), (22, 0.9), (40, 0.5)])
    @pytest.mark.parametrize("kind", _PRUNE_KINDS)
    def test_second_bracket_is_an_upper_bound(self, kind, dim, magnitude):
        # dist(z, sigma(T)) - ||A||_2 - slack_t bounds sigma_min(M - z) below at every point
        # of every grid, and the points it prunes keep a norm above the full grid's
        inst = _prune_instance(kind, dim, dim, magnitude)
        m0 = inst.t_mat + inst.a_mat
        _, grids, _ = matrix_lab._resolvent_grids(inst)
        a_norm = float(np.linalg.svd(inst.a_mat, compute_uv=False)[0])
        brackets = matrix_lab._Brackets(m0, inst.t_diag, a_norm, np.linalg.eigvals(m0), grids)
        (full,) = matrix_lab._stacked_norms([(m0, brackets.zs)])
        proven = brackets.fixed > 0.0
        assert proven.any()
        assert np.all(1.0 / brackets.fixed[proven] >= full[proven])
        records = _resolvent_records(matrix_lab._observe(inst, VerifyOptions()))
        pruned = ~np.concatenate([r.exact for r in records])
        assert np.all(np.concatenate([r.values for r in records])[pruned] >= full[pruned])

    @pytest.mark.parametrize("dim", [22, 40])
    def test_most_points_are_pruned(self, dim):
        exact = total = 0
        for kind in _PRUNE_KINDS:
            obs = matrix_lab._observe(_prune_instance(kind, dim, 3, 0.7), VerifyOptions())
            for record in _resolvent_records(obs):
                exact += int(record.exact.sum())
                total += record.exact.size
        assert exact < total / 2


def _per_matrix_eigvals(inst, s_grid):
    """Reference: one call per matrix T + s A, of eigvalsh where A == A^H entry for entry, else of eigvals."""
    a = inst.a_mat
    solver = np.linalg.eigvalsh if np.array_equal(a, a.conj().T) else np.linalg.eigvals
    return np.array([solver(inst.t_mat + s * a) for s in s_grid], dtype=complex)


def _batch_count(dim: int, s_points: int = 11) -> int:
    """The fewest order-dim instances whose s-sweep numpy runs without the GIL."""
    return next(k for k in range(1, 1000) if k * s_points > matrix_lab._GIL_FREE_SIZE // dim)


def _batch_key(spec) -> tuple[int, bool]:
    """(order, sweep solver is eigvalsh) of a spec: the key of its suite batch."""
    kind, dim, *_ = spec
    return dim, matrix_lab._KINDS[kind].hermitian


class TestBatchedSweep:
    """The s-sweep runs in batches of same-order, same-solver instances; every eigenvalue stays that of its own matrix."""

    @pytest.mark.parametrize("dim", [4, 10, 22, 40])
    @pytest.mark.parametrize("kind", _PRUNE_KINDS)
    def test_observed_eigs_match_per_matrix_eigvals(self, kind, dim):
        options = VerifyOptions()
        s_grid = matrix_lab._s_grid(options)
        count = _batch_count(dim)
        specs = [(kind, dim, seed, 0.7, 1) for seed in range(3 * count)]
        assert matrix_lab._suite_batches(specs, s_grid.size) == [
            list(range(k, k + count)) for k in range(0, 3 * count, count)
        ]
        insts = [_prune_instance(kind, dim, seed, 0.7) for seed in range(count)]
        want = [_per_matrix_eigvals(inst, s_grid).tobytes() for inst in insts]
        assert [eigs.tobytes() for eigs in matrix_lab._sweep(insts, s_grid)] == want
        # a direct verification sweeps its instance alone
        assert matrix_lab._observe(insts[0], options).eigs.tobytes() == want[0]

    @pytest.mark.parametrize("s_points", [2, 11, 60])
    def test_batches_follow_the_specs_alone(self, s_points, monkeypatch):
        specs = standard_suite_specs(300, 4, 40, 3)
        batches = matrix_lab._suite_batches(specs, s_points)
        assert sorted(idx for batch in batches for idx in batch) == list(range(len(specs)))
        sizes = Counter(_batch_key(spec) for spec in specs)
        hermitian = []
        for batch in batches:
            # one order and one sweep solver per batch
            (key,) = {_batch_key(specs[idx]) for idx in batch}
            hermitian.append(key[1])
            count = _batch_count(key[0], s_points)
            assert batch == sorted(batch) and len(batch) < 2 * count
            # short only where its key has too few instances for a full batch
            assert len(batch) >= count or len(batch) == sizes[key] < count
        assert set(hermitian) == {False, True}
        # general batches first, then Hermitian ones, each larger before smaller
        assert hermitian == sorted(hermitian)
        for side in (False, True):
            mine = [len(batch) for batch, h in zip(batches, hermitian) if h == side]
            assert mine == sorted(mine, reverse=True)
        for cpus in (1, 64):
            monkeypatch.setattr(matrix_lab, "_usable_cpus", lambda: cpus)
            assert matrix_lab._suite_batches(specs, s_points) == batches

    @pytest.mark.parametrize("dim", [4, 22, 40])
    def test_sweep_falls_back_to_eigvals_off_hermitian(self, dim, oracle_calls):
        # eigvalsh reads one triangle: an A one ulp off Hermitian in one upper
        # entry must go to eigvals, alone or stacked beside a Hermitian one
        s_grid = matrix_lab._s_grid(VerifyOptions())
        inst = gen_instance(dim, 5, kind="symmetric")
        a = inst.a_mat.copy()
        a[0, 1] = complex(np.nextafter(a[0, 1].real, np.inf), a[0, 1].imag)
        bent = dataclasses.replace(inst, a_mat=a)
        want = {}
        for case, solvers in ((inst, {"eigvalsh": 1, "eigvals": 0}), (bent, {"eigvalsh": 0, "eigvals": 1})):
            oracle_calls.update(eigvalsh=0, eigvals=0)
            (eigs,) = matrix_lab._sweep([case], s_grid)
            assert {name: oracle_calls[name] for name in solvers} == solvers
            want[id(case)] = _per_matrix_eigvals(case, s_grid).tobytes()
            assert eigs.tobytes() == want[id(case)]
        # a mixed stack takes two calls, and each instance keeps its lone sweep
        oracle_calls.update(eigvalsh=0, eigvals=0)
        mixed = matrix_lab._sweep([bent, inst, bent], s_grid)
        assert (oracle_calls["eigvalsh"], oracle_calls["eigvals"]) == (1, 1)
        assert [e.tobytes() for e in mixed] == [want[id(bent)], want[id(inst)], want[id(bent)]]
        assert matrix_lab._observe(bent, VerifyOptions()).eigs.tobytes() == want[id(bent)]

    @pytest.mark.parametrize("kind", _PRUNE_KINDS)
    def test_kinds_column_says_which_a_is_exactly_hermitian(self, kind):
        for dim in (4, 12, 40):
            for seed in range(5):
                a = _prune_instance(kind, dim, seed, 0.3 + 0.1 * seed).a_mat
                assert matrix_lab._KINDS[kind].hermitian == np.array_equal(a, a.conj().T)


def _same_observation(got, want) -> bool:
    """Whether two observations hold the same arrays, bit for bit."""
    pairs = list(zip(_stored_arrays(got), _stored_arrays(want)))
    return (
        len(_stored_arrays(got)) == len(_stored_arrays(want))
        and [r.check for r in got.bounded] == [r.check for r in want.bounded]
        and got.strips == want.strips
        and all(a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in pairs)
        and got.trace_slogdet == want.trace_slogdet
    )


class TestLockstep:
    """A batch's bracket rounds run in lockstep, one SVD call per round over every instance's picks; each instance keeps its lone observation."""

    @pytest.mark.parametrize("dim", [4, 10, 22, 40])
    def test_batch_matches_lone_observe(self, dim, monkeypatch):
        options = VerifyOptions()
        # every kind in one batch at least once, as suite batches mix them
        kinds = _PRUNE_KINDS * -(-_batch_count(dim) // len(_PRUNE_KINDS))
        insts = [_prune_instance(kind, dim, seed, 0.7) for seed, kind in enumerate(kinds)]
        assert {inst.kind for inst in insts} == set(matrix_lab._KINDS)
        lone = [matrix_lab._observe(inst, options) for inst in insts]
        masks = [[r.exact.tolist() for r in obs.bounded] for obs in lone]
        # the batch twice on the lanes: at the real CPU count, at 1 (both
        # copies on the calling thread) and at 64 (one copy on a started lane)
        for cpus in (matrix_lab._usable_cpus(), 1, 64):
            monkeypatch.setattr(matrix_lab, "_usable_cpus", lambda: cpus)
            observed = []
            matrix_lab._run_lanes(
                lambda batch: observed.append(matrix_lab._observe_batch(batch, options)), [insts] * 2
            )
            assert len(observed) == 2
            for batch in observed:
                assert all(_same_observation(got, want) for got, want in zip(batch, lone))
                assert [[r.exact.tolist() for r in obs.bounded] for obs in batch] == masks

    def test_one_svd_call_per_round(self, oracle_calls):
        # a symmetric instance beside general ones: it needs no ||A||_2 and fewer rounds
        insts = [gen_instance(22, 0, kind="symmetric")]
        insts += [gen_instance(22, seed) for seed in range(1, _batch_count(22))]
        oracle_calls.update(eigvalsh=0)  # generation's own calls
        matrix_lab._observe_batch(insts, VerifyOptions())
        batched = oracle_calls["svd"]
        lone = []
        for inst in insts:
            oracle_calls["svd"] = 0
            matrix_lab._observe(inst, VerifyOptions())
            lone.append(oracle_calls["svd"])
        assert (oracle_calls["eigvals"], oracle_calls["eigvalsh"]) == (len(insts), 2)
        # one call for every ||A||_2, then one per round, at most three: the
        # batch takes as many rounds as its slowest instance
        assert len(set(lone)) > 1 and all(count <= 4 for count in lone)
        assert batched == max(lone)


def _hyperbola_rows(inst, s_grid, eigs):
    """Reference: the per-row loop that _check_hyperbola's one reduction replaced."""
    worst = (math.inf, "")
    for s, row in zip(s_grid, eigs):
        a, b = s * inst.quad.a, s * inst.quad.b
        bound_sq = (a * a + b * b * row.real**2) / (1.0 - b * b)
        margin = (bound_sq - row.imag**2) / np.maximum(1.0, bound_sq)
        k = int(np.argmin(margin))
        if margin[k] < worst[0]:
            worst = (float(margin[k]), repr(complex(row[k])))
    return worst


def _eig_count_rows(eigs, lo, hi, mult):
    """Reference: the per-row loop that _check_count's one reduction replaced."""
    worst = (0.0, "")
    for row in eigs:
        count = int(np.sum((row.real > lo) & (row.real < hi)))
        if abs(count - mult) > abs(worst[0]):
            worst = (float(-(abs(count - mult))), f"count={count}")
    return worst


class TestRowReductions:
    """The hyperbola and eig-count checks reduce all rows at once, with the loops' exact results."""

    @pytest.mark.parametrize("kind", _PRUNE_KINDS)
    def test_hyperbola_matches_row_loop(self, kind):
        inst = _prune_instance(kind, 12, 5, 0.8)
        obs = matrix_lab._observe(inst, VerifyOptions())
        # the observed eigenvalues, then ones pushed off the real axis in proportion
        # to s, so that the worst point lies in a row with s > 0, each next to its
        # conjugate: a tie whose first point is the witness
        pushed = obs.eigs + 1j * np.outer(obs.s_grid, np.linspace(0.5, 3.0, obs.eigs.shape[-1]))
        pushed = np.concatenate([pushed, pushed.conj()], axis=1)
        for eigs in (obs.eigs, pushed):
            margin, witness = _hyperbola_rows(inst, obs.s_grid, eigs)
            got = matrix_lab._check_hyperbola(inst, obs.s_grid, eigs)
            assert got.margin == margin
            assert got.witness == ("" if got.passed else witness)

    @pytest.mark.parametrize("widen", [0.0, 0.5, 2.0, 5.0])
    def test_eig_count_matches_row_loop(self, widen):
        for seed in range(4):
            inst = gen_isolated_instance(12, 2, seed)
            eigs = matrix_lab._observe(inst, VerifyOptions()).eigs
            (spec,) = inst.cert
            strip = matrix_lab.isolated_eigenvalue_strip(inst.quad, spec)
            lo, hi, mult = matrix_lab._widen(("count", strip.lo, strip.hi, spec.mult), widen)
            margin, witness = _eig_count_rows(eigs, lo, hi, mult)
            got = matrix_lab._check_own("eig-count", matrix_lab._count_claims, matrix_lab._check_count, inst, eigs, widen)
            assert got.margin == margin
            assert got.witness == ("" if got.passed else witness)


def _least_above(values, floor: float, scale: float) -> float:
    """Reference: a block check's floor margin before the location checks shared one judge.

    The margin of the least of `values` (one per eigenvalue) above a claimed floor.
    """
    return (float(np.min(values)) - floor) / scale


def _even_floor(eigs, f: float) -> float:
    """Reference: structured-even, Re z above the floor f."""
    return _least_above(np.ravel(eigs).real, f, max(1.0, abs(f)))


def _odd_floor(eigs, c: float) -> float:
    """Reference: structured-odd, |Re z| above the half-width c."""
    return _least_above(np.abs(np.ravel(eigs).real), c, max(1.0, c))


def _refined_points(bounded):
    """Reference: refined-le-plain's margins, point by point, over (zs, plain, refined) triples."""
    for zs, plain, refined in bounded:
        for z, p, r in zip(zs.tolist(), plain.tolist(), refined.tolist()):
            yield (p * (1.0 + matrix_lab._REFINED_TOL) - r) / p, z


def _assert_keeps_bits(got, margin: float, margin_at) -> None:
    """got's margin is margin, bit for bit (the sign of a zero too), and its witness, if any, attains it."""
    assert got.margin.hex() == margin.hex()
    if got.witness:
        assert margin_at(complex(got.witness)).hex() == margin.hex()


def _assert_floors_keep_bits(eigs, f: float) -> None:
    """The location judge on (-inf, f) and on (-|f|, |f|) against the even and odd floor references."""
    got = matrix_lab._check_location("structured-even", eigs, [(-math.inf, f, max(1.0, abs(f)))])
    _assert_keeps_bits(got, _even_floor(eigs, f), lambda z: _even_floor([z], f))
    c = abs(f)
    if c > 0.0:  # a certified half-width is positive
        got = matrix_lab._check_location("structured-odd", eigs, [(-c, c, max(1.0, c))])
        _assert_keeps_bits(got, _odd_floor(eigs, c), lambda z: _odd_floor([z], c))


def _ends(x: float):
    """x and the floats one ulp either side of it."""
    return (x, float(np.nextafter(x, -math.inf)), float(np.nextafter(x, math.inf)))


def _finite(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _centre_rule(lo: float, hi: float, widen: float) -> tuple[float, float]:
    """Reference: a strip's ends, its width scaled by 1 + widen about its center; at widen 0 its own ends."""
    if not widen:
        return lo, hi
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo) * (1.0 + widen)
    return center - half, center + half


def _gap_scale(gap) -> float:
    """Reference: the scale of a strip over `gap`, its largest |end| and at least 1."""
    return max(1.0, abs(gap.alpha), abs(gap.beta))


def _first_least(points, margins) -> tuple[float, str]:
    """Reference: the first least of the margins, point by point, with its point as the witness."""
    k = min(range(len(margins)), key=margins.__getitem__)
    return margins[k], repr(complex(points[k]))


def _strips_worst(eigs, strips) -> tuple[float, str]:
    """Reference: max(lo - Re z, Re z - hi) / scale over the (lo, hi, scale) strips in order, point by point."""
    flat = np.ravel(eigs).tolist()
    margins = [max(lo - z.real, z.real - hi) / scale for lo, hi, scale in strips for z in flat]
    return _first_least(flat * len(strips), margins)


# each claim-based kind's own check
_OWN = {"offdiag": "structured-offdiag", "even": "structured-even", "diag-blocks": "structured-odd",
        "isolated": "eig-count"}


def _widened_references(inst, obs, widen: float) -> dict:
    """Reference: (margin, witness, note) of each widen-sensitive check, with the widening written out.

    The strip and structured-offdiag ends follow the center rule, the even
    floor bound + widen (least block minimum - bound) with scale max(1, |f|),
    the odd half-width c (1 + widen) with scale max(1, c), and eig-count
    counts in the center-ruled counting strip.  A refused certificate gives
    the pass noted "not applicable".
    """
    eigs = obs.eigs
    flat = np.ravel(eigs).tolist()
    refs = {"strip": (0.0, "", "no certified strip")}
    if obs.strips:
        strips = [(*_centre_rule(strip.lo, strip.hi, widen), _gap_scale(gap)) for gap, strip in obs.strips]
        note = " ".join(f"({gap.alpha:.3g},{gap.beta:.3g})" for gap, _ in obs.strips)
        refs["strip"] = (*_strips_worst(eigs, strips), note)
    if inst.kind not in _OWN:
        return refs
    try:
        if inst.kind == "offdiag":
            off, gap = inst.cert
            strip = offdiag_gap(off, gap).strip
            own = (*_strips_worst(eigs, [(*_centre_rule(strip.lo, strip.hi, widen), _gap_scale(gap))]), "")
        elif inst.kind == "even":
            off, minima = inst.cert
            bound = even_lowerbound(off, minima)
            f = bound + widen * (min(minima.beta1, minima.beta2) - bound)
            own = (*_first_least(flat, [(z.real - f) / max(1.0, abs(f)) for z in flat]), "")
        elif inst.kind == "diag-blocks":
            c = odd_symmetric_gap(*inst.cert) * (1.0 + widen)
            own = (*_first_least(flat, [(abs(z.real) - c) / max(1.0, c) for z in flat]), "")
        else:
            (spec,) = inst.cert
            strip = isolated_eigenvalue_strip(inst.quad, spec)
            lo, hi = _centre_rule(strip.lo, strip.hi, widen)
            own = (*_eig_count_rows(eigs, lo, hi, spec.mult), f"expect {spec.mult} in ({lo:.6g},{hi:.6g})")
    except ConditionNotApplicable:
        own = (0.0, "", "not applicable")
    refs[_OWN[inst.kind]] = own
    return refs


def _assert_matches_references(inst, obs, widen: float) -> None:
    """Every widen-sensitive check of the report at widen keeps its reference's margin bits, witness and note."""
    report = {c.check: c for c in matrix_lab._judge(inst, obs, VerifyOptions(widen=widen)).checks}
    for check, (margin, witness, note) in _widened_references(inst, obs, widen).items():
        got = report[check]
        assert got.margin.hex() == margin.hex(), (check, got.margin, margin)
        assert got.passed == (margin >= -matrix_lab._REL_MARGIN), check
        assert got.witness == ("" if got.passed else witness), check
        assert got.note == note, check


def _hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


@functools.cache
def _observed(kind: str, seed: int):
    """One instance of a kind with its observation; "isolated-empty" has an empty counting strip."""
    if kind == "isolated-empty":
        inst = gen_instance(8, 1, kind="isolated", magnitude=1e-20)
    else:
        inst = _prune_instance(kind, 10, seed, (0.5, 0.8, 0.95)[seed])
    return inst, matrix_lab._observe(inst, VerifyOptions())


class TestJudgeReferences:
    """The location judge keeps the floor formulas' bits, the bound-ratio judge refined-le-plain's.

    Every widen-sensitive check keeps the bits of the widening expressions written out in _widened_references.
    """

    @pytest.mark.parametrize("widen", [0.0, 0.1, 0.5])
    @pytest.mark.parametrize("kind", _PRUNE_KINDS)
    def test_every_kind_keeps_the_reference_bits(self, kind, widen):
        inst = _prune_instance(kind, 10, 7, 0.8)
        obs = matrix_lab._observe(inst, VerifyOptions())
        report = {c.check: c for c in matrix_lab._judge(inst, obs, VerifyOptions(widen=widen)).checks}
        # the block kinds' own checks against their floors
        if kind == "even":
            off, minima = inst.cert
            bound = even_lowerbound(off, minima)
            f = bound + widen * (min(minima.beta1, minima.beta2) - bound)
            _assert_keeps_bits(report["structured-even"], _even_floor(obs.eigs, f), lambda z: _even_floor([z], f))
        if kind == "diag-blocks":
            c = odd_symmetric_gap(*inst.cert) * (1.0 + widen)
            _assert_keeps_bits(report["structured-odd"], _odd_floor(obs.eigs, c), lambda z: _odd_floor([z], c))
        # the widened ends of strip and structured-offdiag and the widened count of
        # eig-count against the center rule, and every widen-sensitive check
        for gap, strip in obs.strips:
            want = (*_centre_rule(strip.lo, strip.hi, widen), _gap_scale(gap))
            assert _hexes(matrix_lab._widen(matrix_lab._strip_claim(gap, strip), widen)) == _hexes(want)
        if kind == "offdiag":
            off, gap = inst.cert
            strip = offdiag_gap(off, gap).strip
            want = (*_centre_rule(strip.lo, strip.hi, widen), _gap_scale(gap))
            (claim,) = matrix_lab._offdiag_claims(inst)
            assert _hexes(matrix_lab._widen(claim, widen)) == _hexes(want)
        if kind == "isolated":
            (spec,) = inst.cert
            strip = isolated_eigenvalue_strip(inst.quad, spec)
            lo, hi = _centre_rule(strip.lo, strip.hi, widen)
            (claim,) = matrix_lab._count_claims(inst)
            assert _hexes(matrix_lab._widen(claim, widen)) == _hexes((lo, hi, spec.mult))
            count = int(np.sum((obs.eigs[-1].real > lo) & (obs.eigs[-1].real < hi)))
            assert count == spec.mult
        _assert_matches_references(inst, obs, widen)
        # every kind's eigenvalues against floors on their own real parts and one ulp off
        for x in obs.eigs.real.ravel()[::7].tolist():
            for f in _ends(x):
                _assert_floors_keep_bits(obs.eigs, f)
        bounded = [(r.zs, r.bounds, r.values) for r in obs.bounded if r.check == "refined-le-plain"]
        if bounded:
            margin = min(m for m, _ in _refined_points(bounded))
            margins = {z: m for m, z in _refined_points(bounded)}
            _assert_keeps_bits(report["refined-le-plain"], margin, margins.__getitem__)
        else:
            assert report["refined-le-plain"].note == "no certified strip"

    @pytest.mark.parametrize("claim, widen, want", [
        # unwidened, a strip keeps its own ends: the center rule would move
        # 0.1 to 0.09999999999999998 and 0.3 to 0.30000000000000004
        (("strip", 0.1, 0.7, 2.0), 0.0, (0.1, 0.7, 2.0)),
        (("strip", -1.0, 3.0, 2.0), 0.5, (-2.0, 4.0, 2.0)),
        (("count", 0.3, 0.7, 2), 0.0, (0.3, 0.7, 2)),
        (("count", 0.25, 0.75, 3), 1.0, (0.0, 1.0, 3)),
        (("floor", 1.0, 3.0), 0.0, (-math.inf, 1.0, 1.0)),
        (("floor", 1.0, 3.0), 0.5, (-math.inf, 2.0, 2.0)),
        (("floor", -0.5, 0.25), 0.5, (-math.inf, -0.125, 1.0)),
        (("half", 0.5), 0.0, (-0.5, 0.5, 1.0)),
        (("half", 2.0), 0.5, (-3.0, 3.0, 3.0)),
    ])
    def test_widen_applies_each_rule(self, claim, widen, want):
        assert _hexes(matrix_lab._widen(claim, widen)) == _hexes(want)

    @given(widen=st.floats(0.0, 10.0), seed=st.integers(0, 2))
    @example(widen=0.0, seed=0)
    @example(widen=0.1, seed=1)
    @example(widen=0.5, seed=2)
    @settings(max_examples=100, deadline=None)
    def test_every_widen_keeps_the_reference_bits(self, widen, seed):
        for kind in _PRUNE_KINDS:
            _assert_matches_references(*_observed(kind, seed), widen)
        _assert_matches_references(*_observed("isolated-empty", 0), widen)

    @given(
        re=st.lists(_finite(-50.0, 50.0), min_size=1, max_size=12),
        im=st.lists(_finite(-5.0, 5.0), min_size=12, max_size=12),
        at=st.integers(0, 11),
        shape=st.sampled_from([(-1,), (1, -1), (-1, 1)]),
    )
    @settings(max_examples=200, deadline=None)
    def test_location_judge_keeps_floor_bits_at_interval_ends(self, re, im, at, shape):
        eigs = (np.array(re) + 1j * np.array(im[:len(re)])).reshape(shape)
        for f in _ends(re[at % len(re)]):
            _assert_floors_keep_bits(eigs, f)
            _assert_floors_keep_bits(eigs, -f)

    @given(
        plain=st.lists(_finite(1e-6, 1e6), min_size=1, max_size=10),
        step=st.lists(st.sampled_from([-2, -1, 0, 1, 2]), min_size=10, max_size=10),
        grids=st.integers(1, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_bound_ratio_judge_keeps_refined_bits_at_tolerance_ends(self, plain, step, grids):
        # refined on plain (1 + tol), where the margin is zero, and one or two ulps either side
        plain = np.array(plain)
        edge = plain * (1.0 + matrix_lab._REFINED_TOL)
        refined = edge.copy()
        for i, k in enumerate(step[:plain.size]):
            for _ in range(abs(k)):
                refined[i] = np.nextafter(refined[i], math.copysign(math.inf, k))
        zs = np.arange(plain.size) + 1j * np.arange(plain.size)
        bounded = [(part_zs, part_plain, part_refined) for part_zs, part_plain, part_refined in zip(
            np.array_split(zs, grids), np.array_split(plain, grids), np.array_split(refined, grids)) if part_zs.size]
        margin = min(m for m, _ in _refined_points(bounded))
        # the judge sees the parts joined in one record, as the observation joins the strips' grids
        record = matrix_lab._Bounded("refined-le-plain", zs, plain, refined, np.ones(plain.size, dtype=bool))
        got = matrix_lab._check_bounded("refined-le-plain", (record,), matrix_lab._REFINED_TOL, 0.0)
        assert got.passed == (margin >= 0.0)
        margins = {z: m for m, z in _refined_points(bounded)}
        _assert_keeps_bits(got, margin, margins.__getitem__)

    def test_bound_ratio_judge_takes_the_first_of_tied_grids(self):
        # two grids joined in one record, each failing with the same least margin at
        # another point: the first grid's point is the witness, as in a per-grid loop
        tol, pass_tol = matrix_lab._RESOLVENT_TOL, matrix_lab._REL_MARGIN
        grids = [
            (np.array([1 + 1j, 2 + 1j, 3 + 1j]), np.array([2.0, 1.0, 4.0]), np.array([1.0, 3.0, 4.0])),
            (np.array([4 + 2j, 5 + 2j]), np.array([1.0, 0.5]), np.array([3.0, 0.25])),
        ]
        worst = (math.inf, "")
        for zs, bounds, values in grids:
            margins = [(b * (1.0 + tol) - v) / b for b, v in zip(bounds.tolist(), values.tolist())]
            k = min(range(len(margins)), key=margins.__getitem__)
            if margins[k] < worst[0]:
                worst = (margins[k], repr(complex(zs[k])))
        assert worst[1] == repr(2 + 1j)
        joined = [np.concatenate(part) for part in zip(*grids)]
        record = matrix_lab._Bounded("resolvent-strip", *joined, np.ones(5, dtype=bool))
        got = matrix_lab._check_bounded("resolvent-strip", (record,), tol, pass_tol)
        assert not got.passed
        assert (got.margin.hex(), got.witness) == (worst[0].hex(), worst[1])
        assert matrix_lab._check_bounded("resolvent-symgap", (record,), tol, pass_tol) is None

    @pytest.mark.parametrize("n_gaps", [2, 3])
    def test_strip_records_join_the_per_gap_grids(self, n_gaps):
        # a multi instance's resolvent-strip and refined-le-plain records hold the
        # per-gap z-grids and bounds, each written out by the scalar bounds, in gap order
        inst = gen_instance(12, 3, kind="multi", magnitude=0.7, n_gaps=n_gaps)
        obs = matrix_lab._observe(inst, VerifyOptions())
        assert [gap for gap, _ in obs.strips] == list(inst.gaps)
        assert all(strip == perturbed_strip(inst.quad, gap) for gap, strip in obs.strips)
        zs, plain, refined = [], [], []
        for gap, strip in obs.strips:
            grid = matrix_lab._strip_zgrid(gap, strip)
            zs.append(grid)
            plain.append([resolvent_bound_strip(inst.quad, gap, z) for z in grid.tolist()])
            refined.append([resolvent_bound_strip_refined(inst.quad, gap, z) for z in grid.tolist()])
        zs, plain, refined = np.concatenate(zs), np.concatenate(plain), np.concatenate(refined)
        (strip_record,) = [r for r in obs.bounded if r.check == "resolvent-strip"]
        (refined_record,) = [r for r in obs.bounded if r.check == "refined-le-plain"]
        for record in (strip_record, refined_record):
            assert record.zs.tobytes() == zs.tobytes()
        assert strip_record.bounds.tobytes() == np.minimum(plain, refined).tobytes()
        assert refined_record.bounds.tobytes() == plain.tobytes()
        assert refined_record.values.tobytes() == refined.tobytes()
        assert refined_record.exact.all()
        # the strip record's exact norms are the joined grid's own
        (norms,) = matrix_lab._stacked_norms([(inst.t_mat + inst.a_mat, zs)])
        exact = strip_record.exact
        assert exact.any() and strip_record.values[exact].tobytes() == norms[exact].tobytes()
        assert np.all(strip_record.values[~exact] >= norms[~exact])
