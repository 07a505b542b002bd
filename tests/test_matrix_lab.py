import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gapcert import Gap, QuadBound, matrix_lab
from gapcert.blocks import NumRangeBounds
from gapcert.errors import NearSingular, NumericalFailure
from gapcert.matrix_lab import (
    MatrixInstance,
    VerifyOptions,
    gen_instance,
    gen_isolated_instance,
    measure_quad_bound,
    run_suite,
    standard_suite_specs,
    verify_instance,
)


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
    if not matrix_lab._is_hermitian(a):
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
        inst = gen_instance(14, 21, kind="none", magnitude=0.8)
        q = inst.quad
        rho = max((q.shift(g.alpha) + q.shift(g.beta)) / g.width for g in inst.gaps)
        assert rho == pytest.approx(0.8, rel=1e-12)

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

    @pytest.mark.parametrize("kind", ["none", "symmetric", "probe", "offdiag", "even", "diag-blocks"])
    def test_single_gap_kinds_refuse_n_gaps(self, kind):
        with pytest.raises(ValueError, match="n_gaps must be 1"):
            gen_instance(8, 0, kind=kind, n_gaps=3)
        gen_instance(8, 0, kind=kind, n_gaps=1)

    def test_multi_builds_n_gaps_gaps(self):
        assert len(gen_instance(12, 0, kind="multi", n_gaps=3).gaps) == 3

    def test_isolated_multiplicity(self):
        inst = gen_isolated_instance(12, 3, 4)
        assert int(np.sum(inst.t_diag == inst.cert[0].lam)) == 3
        with pytest.raises(ValueError):
            gen_isolated_instance(4, 3, 0)


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

    def test_every_kind_verifies(self):
        for kind in ("none", "symmetric", "probe", "offdiag", "even", "diag-blocks", "multi"):
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

    def test_check_names_and_order_per_kind(self):
        # suite CSV rows follow this order; the kind alone adds the last checks
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
        }
        for kind, names in want.items():
            inst = gen_instance(12, 7, kind=kind, n_gaps=2 if kind == "multi" else 1)
            assert tuple(c.check for c in verify_instance(inst).checks) == names, kind
        rep = verify_instance(gen_isolated_instance(12, 2, 7))
        assert tuple(c.check for c in rep.checks) == common + ("eig-count",)

    def test_isolated_count_check(self):
        rep = verify_instance(gen_isolated_instance(14, 2, 99))
        count = next(c for c in rep.checks if c.check == "eig-count")
        assert count.passed and count.margin == 0.0

    def test_report_json_round_trip(self):
        rep = verify_instance(gen_instance(8, 1, kind="none"))
        doc = json.loads(rep.to_json())
        assert doc["instance"] == rep.instance
        assert doc["s_points"] == 11
        assert len(doc["checks"]) == len(rep.checks)
        assert rep.to_json() == verify_instance(gen_instance(8, 1, kind="none")).to_json()


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

    def test_specs_accept_the_ends_of_the_range(self):
        assert {spec[1] for spec in standard_suite_specs(30, 2, 2)} <= {2, 8}
        assert max(spec[1] for spec in standard_suite_specs(30, 60, 64)) <= 64

    def test_csv_shape(self):
        res = run_suite(6, dim_hi=10, seed=2)
        lines = res.to_csv().strip().split("\n")
        assert lines[0] == "instance,check,margin,pass"
        assert len(lines) == 1 + sum(len(r.checks) for r in res.reports)
        for row in lines[1:]:
            name, check, margin, flag = row.split(",")
            float(margin)
            assert flag in ("0", "1")


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


class TestParallelOracle:
    """Large resolvent batches are split across the usable CPUs; results stay serial."""

    def test_split_batch_matches_scalar_resolvent_norm(self):
        inst = gen_instance(24, 7)
        m0 = inst.t_mat + inst.a_mat
        rng = np.random.default_rng(3)
        zs = rng.uniform(-4.0, 4.0, 105) + 1j * rng.uniform(0.1, 3.0, 105)
        norms = matrix_lab._batch_resolvent_norms(m0, zs)
        if _usable_cpus() > 1:
            assert matrix_lab._svd_pool[0] is not None
        assert norms.tolist() == [resolvent_norm(m0, z) for z in zs]

    @pytest.mark.usefixtures("empty_store")
    def test_suite_matches_serial_loop(self, monkeypatch):
        # orders 4 to 40 mixed, so that run_suite holds back and batches
        # the s-sweeps of several orders at once, and splits some of them
        args = (60, 4, 40)
        pooled = run_suite(*args).reports
        monkeypatch.setattr(matrix_lab, "_svd_pool", (None, 1))
        reports = []
        for idx, (kind, dim, seed, magnitude, n_gaps) in enumerate(standard_suite_specs(*args)):
            inst = gen_instance(dim, seed, kind=kind, magnitude=magnitude, n_gaps=n_gaps,
                                name=f"{kind}-{idx:04d}")
            reports.append(verify_instance(inst))
        assert [r.to_json() for r in pooled] == [r.to_json() for r in reports]

    def test_concurrent_callers_match_serial(self, monkeypatch):
        insts = [gen_instance(16 + 4 * k, 30 + k) for k in range(6)]
        monkeypatch.setattr(matrix_lab, "_svd_pool", (None, 1))
        want = [verify_instance(inst).to_json() for inst in insts]
        # six callers race to create the pool and then share it
        monkeypatch.setattr(matrix_lab, "_svd_pool", None)
        got = [None] * len(insts)

        def caller(k):
            got[k] = [verify_instance(insts[k]).to_json() for _ in range(3)]

        threads = [threading.Thread(target=caller, args=(k,)) for k in range(len(insts))]
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
        assert got == [[w] * 3 for w in want]
        if matrix_lab._svd_pool[0] is not None:
            matrix_lab._svd_pool[0].shutdown()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_verifies_after_parent_used_pool(self):
        inst = gen_instance(24, 11)
        want = verify_instance(inst).to_json()

        def child():
            sys.exit(0 if verify_instance(inst).to_json() == want else 1)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(60)
        if proc.is_alive():
            proc.kill()
            proc.join()
            pytest.fail("forked child hung in verify_instance")
        assert proc.exitcode == 0

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
    def test_one_cpu_starts_no_thread(self):
        script = "\n".join([
            "import os, sys, threading",
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})",
            "from gapcert.matrix_lab import gen_instance, verify_instance",
            "assert verify_instance(gen_instance(24, 11)).ok",
            "print(threading.active_count(), 'concurrent.futures' in sys.modules)",
        ])
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1", "False"]


_SMALL = (16, 6, 14, 11)
_WIDENED = VerifyOptions(widen=0.1)


@pytest.fixture
def empty_store(monkeypatch):
    monkeypatch.setattr(matrix_lab, "_previous_suite", (None, ()))


@pytest.fixture
def oracle_calls(monkeypatch):
    """Counts of eigvals, svd and slogdet calls made through numpy.linalg, and of matrices swept by eigvals."""
    calls = {"eigvals": 0, "svd": 0, "slogdet": 0, "swept": 0}
    lock = threading.Lock()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            with lock:
                calls[name] += 1
                if name == "eigvals":
                    calls["swept"] += args[0].shape[0]
            return fn(*args, **kwargs)
        return wrapper

    for name in ("eigvals", "svd", "slogdet"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    return calls


def _stored_arrays(obs):
    arrays = [obs.s_grid, obs.eigs]
    for grid in obs.grids:
        arrays.extend((grid.zs, grid.bounds, grid.norms, grid.exact))
    for _, _, zs, plain, refined in obs.strips:
        arrays.extend((zs, plain, refined))
    return arrays


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
        assert oracle_calls == {"eigvals": 0, "svd": 0, "slogdet": 0, "swept": 0}

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

    @pytest.mark.parametrize("kind", [kind for kind, _ in matrix_lab._SUITE_MIX])
    def test_given_observation_is_judged_as_is(self, oracle_calls, kind):
        inst = gen_instance(12, 5, kind=kind, n_gaps=2 if kind == "multi" else 1)
        for options in (VerifyOptions(), _WIDENED):
            want = verify_instance(inst, options).to_json()
            obs = matrix_lab._observe(inst, options)
            for name in oracle_calls:
                oracle_calls[name] = 0
            assert verify_instance(inst, options, observation=obs).to_json() == want
            assert oracle_calls == {"eigvals": 0, "svd": 0, "slogdet": 0, "swept": 0}

    def test_stored_arrays_reject_writes(self):
        run_suite(*_SMALL)
        stored = list(matrix_lab._previous_suite[1])
        assert len(stored) == _SMALL[0]
        assert any(obs.strips for obs in stored)
        assert any(g.check == "resolvent-symgap" for obs in stored for g in obs.grids)
        for obs in stored:
            for array in _stored_arrays(obs):
                with pytest.raises(ValueError, match="read-only"):
                    array.flat[0] = 0

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


_PRUNE_KINDS = [kind for kind, _ in matrix_lab._SUITE_MIX] + ["isolated"]


def _prune_instance(kind, dim, seed, magnitude):
    if kind == "isolated":
        return gen_isolated_instance(dim, min(2, dim - 2), seed, magnitude=magnitude)
    n_gaps = 2 if kind == "multi" else 1
    return gen_instance(dim, seed, kind=kind, magnitude=magnitude, n_gaps=n_gaps)


def _full_grid(grid, m0):
    """The grid with every norm evaluated by one batch over all of its points."""
    full = matrix_lab._batch_resolvent_norms(m0, grid.zs)
    return dataclasses.replace(grid, norms=full, exact=np.ones(full.size, dtype=bool))


class TestPrunedOracle:
    """Weyl-bracket pruning skips SVDs but changes no report, whatever the round schedule."""

    @pytest.mark.parametrize("dim, magnitude", [(4, 0.9), (10, 0.5), (22, 0.9), (40, 0.5)])
    @pytest.mark.parametrize("kind", _PRUNE_KINDS)
    def test_pruning_changes_no_report(self, kind, dim, magnitude, monkeypatch):
        inst = _prune_instance(kind, dim, dim, magnitude)
        m0 = inst.t_mat + inst.a_mat
        observed = [matrix_lab._observe(inst, VerifyOptions())]
        # the serial oracle, then rounds of one point per check
        with monkeypatch.context() as patch:
            patch.setattr(matrix_lab, "_svd_pool", (None, 1))
            observed.append(matrix_lab._observe(inst, VerifyOptions()))
            patch.setattr(matrix_lab, "_round_size", lambda n, pending: 1)
            observed.append(matrix_lab._observe(inst, VerifyOptions()))
        obs = observed[0]
        full = dataclasses.replace(obs, grids=tuple(_full_grid(grid, m0) for grid in obs.grids))
        want = [matrix_lab._judge(inst, full, o).to_json() for o in (VerifyOptions(), _WIDENED)]
        for obs in observed:
            assert obs.grids
            for grid, reference in zip(obs.grids, full.grids):
                exact, norms = grid.exact, reference.norms
                assert grid.norms[exact].tolist() == norms[exact].tolist()
                assert np.all(grid.norms[~exact] >= norms[~exact])
            got = [matrix_lab._judge(inst, obs, o).to_json() for o in (VerifyOptions(), _WIDENED)]
            assert got == want

    @pytest.mark.parametrize("dim", [22, 40])
    def test_most_points_are_pruned(self, dim):
        exact = total = 0
        for kind in _PRUNE_KINDS:
            obs = matrix_lab._observe(_prune_instance(kind, dim, 3, 0.7), VerifyOptions())
            for grid in obs.grids:
                exact += int(grid.exact.sum())
                total += grid.exact.size
        assert exact < total / 2


def _per_matrix_eigvals(inst, s_grid):
    """Reference: one eigvals call per matrix T + s A."""
    return np.array([np.linalg.eigvals(inst.t_mat + s * inst.a_mat) for s in s_grid])


class TestBatchedSweep:
    """The s-sweep runs in batches of same-order instances; every eigenvalue stays that of its own matrix."""

    @pytest.mark.parametrize("dim", [4, 10, 22, 40])
    @pytest.mark.parametrize("kind", _PRUNE_KINDS)
    def test_observed_eigs_match_per_matrix_eigvals(self, kind, dim, monkeypatch):
        options = VerifyOptions()
        s_grid = matrix_lab._s_grid(options)
        # the fewest instances whose sweep the split gives every usable CPU a part of
        count = -(-matrix_lab._gil_free_batch(dim) // s_grid.size)
        assert count * s_grid.size // (matrix_lab._GIL_FREE_SIZE // dim + 1) >= 2
        insts = [_prune_instance(kind, dim, seed, 0.7) for seed in range(count)]
        want = [_per_matrix_eigvals(inst, s_grid).tobytes() for inst in insts]
        assert [eigs.tobytes() for eigs in matrix_lab._sweep(insts, s_grid)] == want
        if _usable_cpus() > 1:
            assert matrix_lab._svd_pool[0] is not None
        with monkeypatch.context() as patch:
            patch.setattr(matrix_lab, "_svd_pool", (None, 1))
            assert [eigs.tobytes() for eigs in matrix_lab._sweep(insts, s_grid)] == want
        # a direct verification sweeps its instance alone
        assert matrix_lab._observe(insts[0], options).eigs.tobytes() == want[0]


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
    """Reference: the per-row loop that _check_eig_count's one reduction replaced."""
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
            lo, hi = matrix_lab._widened(matrix_lab.isolated_eigenvalue_strip(inst.quad, spec), widen)
            margin, witness = _eig_count_rows(eigs, lo, hi, spec.mult)
            got = matrix_lab._check_eig_count(inst, eigs, widen)
            assert got.margin == margin
            assert got.witness == ("" if got.passed else witness)
