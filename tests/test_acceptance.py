"""End-to-end acceptance gate.

Each test function covers one release criterion at its stated tolerance;
the terminal summary (see conftest) prints one pass/fail line per
criterion.  These tests are deliberately independent of the unit suites:
properties are recomputed from eigensolves and closed forms rather than
trusted from the library's own reporting wherever feasible.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from gapcert import (
    BlockMinima,
    DiagBounds,
    DiracSpec,
    LinBound,
    ManifoldSpec,
    OffDiagBounds,
    QuadBound,
    TailModel,
    TwoChannelSpec,
    Verdict,
    VerifyOptions,
    dirac2d_constants,
    dirac2d_cp,
    dirac2d_envelope,
    envelope_im_at_re,
    even_lowerbound,
    even_lowerbound_quadratic,
    gen_instance,
    gen_isolated_instance,
    isolated_eigenvalue_strip,
    lower_semicont_balls,
    manifold_relbounds,
    necessary_growth_check,
    odd_symmetric_gap,
    powerlaw_example,
    quad_from_linear,
    ratio_criterion,
    run_suite,
    symmetric_gap_strip,
    two_channel_bound,
)
from gapcert import matrix_lab
from gapcert.blocks import almost_gap_eig_bound
from gapcert.errors import ConditionNotApplicable

S_GRID = np.linspace(0.0, 1.0, 11)


@pytest.fixture(scope="session")
def standard_suite():
    return run_suite(500)


@pytest.fixture(scope="session")
def widened_suite():
    return run_suite(500, options=VerifyOptions(widen=0.10))


def _symmetric_instances(count, require_gap):
    out = []
    seed = 0
    while len(out) < count:
        if seed > 40 * count:
            raise AssertionError("instance generation starved")
        inst = gen_instance(8 + seed % 12, seed, kind="symmetric")
        seed += 1
        if require_gap and not inst.gaps:
            continue
        out.append(inst)
    return out


def test_criterion_1_enclosure_soundness(standard_suite):
    suite = standard_suite
    assert len(suite.reports) == 500
    assert suite.elapsed < 60.0, f"suite took {suite.elapsed:.1f} s"
    location = [
        c.margin
        for r in suite.reports
        for c in r.checks
        if c.check in ("hyperbola", "strip", "structured-offdiag",
                       "structured-even", "structured-odd", "eig-count")
    ]
    assert location, "no eigenvalue-location checks ran"
    assert min(location) >= -1e-9
    assert suite.ok, [f"{name}: {c.check}" for name, c in suite.failures()]


def test_criterion_2_resolvent_soundness(standard_suite):
    assert matrix_lab._RESOLVENT_TOL == 1e-8 and matrix_lab._REFINED_TOL == 1e-12
    names = ("resolvent-offreal", "resolvent-strip", "resolvent-symgap",
             "refined-le-plain")
    seen = {n: 0 for n in names}
    for report in standard_suite.reports:
        for c in report.checks:
            if c.check in seen:
                seen[c.check] += 1
                assert c.passed, f"{report.instance} {c.check}: {c.witness}"
    assert all(seen[n] > 0 for n in names), seen


def test_criterion_3_algebraic_identities():
    rng = np.random.default_rng(31)
    # golden-section minimum over the conversion parameter recovers the
    # linear shift a' + b'|x|
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(200):
        lin = LinBound(float(rng.uniform(0.01, 3.0)), float(rng.uniform(0.01, 0.9)))
        x = float(rng.uniform(-20.0, 20.0))

        def shift_at(log_eps):
            q = quad_from_linear(lin, math.exp(log_eps))
            return math.hypot(q.a, q.b * x)

        lo, hi = math.log(1e-10), math.log(1e10)
        c, d = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
        fc, fd = shift_at(c), shift_at(d)
        for _ in range(120):
            if fc < fd:
                hi, d, fd = d, c, fc
                c = hi - inv_phi * (hi - lo)
                fc = shift_at(c)
            else:
                lo, c, fc = c, d, fd
                d = lo + inv_phi * (hi - lo)
                fd = shift_at(d)
        want = lin.a_lin + lin.b_lin * abs(x)
        assert abs(min(fc, fd) - want) <= 1e-10 * want

    # tan-arctan and quadratic-root forms of the even-structure bound agree
    for i in range(10_000):
        bounds = OffDiagBounds(
            float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.0, 0.95)),
            float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.0, 0.95)),
        )
        b1 = float(rng.uniform(0.0, 4.0))
        b2 = b1 if i % 10 == 0 else float(rng.uniform(0.0, 4.0))
        minima = BlockMinima(b1, b2)
        v1 = even_lowerbound(bounds, minima)
        v2 = even_lowerbound_quadratic(bounds, minima)
        assert abs(v1 - v2) <= 1e-10 * max(1.0, abs(v1))

    # equal-constant degenerations collapse to the symmetric gap constants
    for _ in range(500):
        beta = float(rng.uniform(0.5, 4.0))
        b = float(rng.uniform(0.0, 0.7))
        a = 0.9 * float(rng.uniform(0.0, 1.0)) * beta * math.sqrt(1.0 - b * b)
        s = math.hypot(a, b * beta)
        sym = symmetric_gap_strip(QuadBound(a, b), beta)
        assert abs(sym.shift - s) <= 1e-12 * s if s else sym.shift == 0.0
        assert abs(sym.beta_pert - (beta - s)) <= 1e-12 * beta
        odd = odd_symmetric_gap(DiagBounds(a, b, a, b), beta)
        assert abs(odd - (beta - s)) <= 1e-12 * beta
        even = even_lowerbound(OffDiagBounds(a, b, a, b), BlockMinima(beta, beta))
        assert abs(even - (beta - s)) <= 1e-12 * beta


def test_criterion_4_eigenvalue_counting():
    for i in range(100):
        mult = 1 + i % 3
        dim = 6 + (3 * i) % 30
        inst = gen_isolated_instance(dim, mult, seed=i)
        strip = isolated_eigenvalue_strip(inst.quad, inst.cert[0])
        for s in S_GRID:
            lam = np.linalg.eigvals(inst.t_mat + s * inst.a_mat)
            inside = int(((lam.real > strip.lo) & (lam.real < strip.hi)).sum())
            assert inside == mult, (inst.name, float(s), inside)

    # symmetric perturbations: the numerical-range windows hold at most
    # as many eigenvalues as the unperturbed almost-gap
    applied = 0
    for inst in _symmetric_instances(60, require_gap=False):
        eigs = np.linalg.eigvalsh(inst.t_mat + inst.a_mat)
        for case in ("i", "ii", "iii", "iv"):
            try:
                window = almost_gap_eig_bound(
                    case, inst.quad, *inst.cert,
                )
            except ConditionNotApplicable:
                continue
            applied += 1
            inside = int(((eigs > window.lo) & (eigs < window.hi)).sum())
            assert inside <= window.max_count, (inst.name, case, inside)
    assert applied >= 60


def test_criterion_5_symmetric_ball_nonemptiness():
    for inst in _symmetric_instances(100, require_gap=True):
        eigs = np.linalg.eigvalsh(inst.t_mat + inst.a_mat)
        for gap in inst.gaps:
            for disk in lower_semicont_balls(inst.quad, gap):
                closest = float(np.abs(eigs - disk.center).min())
                assert closest <= disk.radius + 1e-9 * max(1.0, disk.radius), (
                    inst.name, disk, closest,
                )


def test_criterion_6_gap_sequence_criteria():
    linear = TailModel("power-log", p1=0.0, q1=0.0)
    quadratic = TailModel("power-log", p1=1.0, q1=1.0)
    exponential = TailModel("geometric", ratio=2.0, band_ratio=2.0)
    for delta in (0.0, 0.1, 0.3):
        assert ratio_criterion(linear, delta).verdict is Verdict.INCONCLUSIVE
        assert ratio_criterion(quadratic, delta).verdict is Verdict.INCONCLUSIVE
        assert ratio_criterion(exponential, delta).verdict is Verdict.COFINITELY_MANY

    flagged = necessary_growth_check(linear, 0.3)
    assert not flagged.ok and flagged.failed_condition == "endpoint-ratio-growth"
    assert necessary_growth_check(exponential, 0.3).ok

    bounds = manifold_relbounds(ManifoldSpec(1.0, 4.0, 1, 0.5), 5)
    budget = powerlaw_example(bounds.band_model, bounds.a_model, bounds.b_model)
    assert math.isfinite(budget.kappa_bound) and budget.kappa_bound > 0.0
    assert budget.eps0 > 0.0


def test_criterion_7_envelope_geometry():
    for spec in (DiracSpec(1.7, 5.0), DiracSpec(1.0, 7.0)):
        env = dirac2d_envelope(spec, 300)
        for b, re, im in zip(env.b, env.re, env.im):
            x, y = re * re, im * im
            a2 = dirac2d_constants(spec, b=b).a ** 2
            member = y * (1.0 - b * b) - (a2 + b * b * x)
            assert abs(member) <= 1e-8 * max(y, a2)

            # each sampled point must be stationary in b at its abscissa
            def height(bb, x=x):
                aa = dirac2d_constants(spec, b=bb).a
                return (aa * aa + bb * bb * x) / (1.0 - bb * bb)

            h = 1e-5 * b
            slope = (height(b + h) - height(b - h)) / (2.0 * h)
            assert abs(slope) * b <= 1e-8 * height(b)

    # larger exponent gives the tighter curve away from the axis crossing
    p5, p7 = DiracSpec(1.0, 5.0), DiracSpec(1.0, 7.0)
    for re in np.geomspace(1.5, 1e4, 120):
        assert envelope_im_at_re(p7, float(re)) < envelope_im_at_re(p5, float(re))

    # power-law asymptote within 1 percent far out
    for spec in (p5, p7):
        scale = dirac2d_cp(spec) ** (spec.p / (spec.p - 2.0))
        re = 1e3 * scale
        env = dirac2d_envelope(spec, 8)
        asym = env.asymptote_coeff * re ** env.asymptote_exponent
        assert abs(envelope_im_at_re(spec, re) / asym - 1.0) <= 0.01

    # large exponent limit flattens onto the supremum-norm strip
    flat = dirac2d_envelope(DiracSpec(1.3, 1000.0), 100, b_min=0.01)
    im = np.asarray(flat.im)
    assert float(np.abs(im / 1.3 - 1.0).max()) <= 0.01


def test_criterion_8_two_channel():
    base = dict(d=3, p=2.5, v12_norm=1.3, p0=0.4, p1=(0.2, 0.1, 0.3), p2=(0.05,) * 6)
    assert two_channel_bound(TwoChannelSpec(**{**base, "v12_norm": 0.0})).lower_bound == 0.0
    assert two_channel_bound(
        TwoChannelSpec(**{**base, "p0": 0.0, "p1": (0.0,) * 3, "p2": (0.0,) * 6})
    ).lower_bound == 0.0

    def bound_at(**kw):
        return two_channel_bound(TwoChannelSpec(**{**base, **kw})).lower_bound

    for param, setter in (
        ("v12_norm", lambda v: {"v12_norm": v}),
        ("p0", lambda v: {"p0": v}),
        ("p1", lambda v: {"p1": (v, 0.1, 0.3)}),
        ("p2", lambda v: {"p2": (v,) + (0.05,) * 5}),
    ):
        sweep = [bound_at(**setter(float(v))) for v in np.linspace(0.0, 3.0, 1000)]
        diffs = np.diff(sweep)
        assert (diffs <= 1e-12).all(), f"{param} sweep not monotone"

    # the closed form is the supremum of the even-structure bounds over
    # the admissible forward constants
    spec = TwoChannelSpec(**base)
    res = two_channel_bound(spec)
    d = float(spec.d)
    expo = -d / (2.0 * spec.p - d)
    best = -math.inf
    for frac in 1.0 - np.geomspace(1e-8, 0.5, 1000):
        b12 = float(frac) / res.b21
        a12 = res.c_p ** (2.0 * spec.p / (2.0 * spec.p - d)) * b12 ** expo
        best = max(best, even_lowerbound_quadratic(
            OffDiagBounds(a12, b12, 0.0, res.b21), BlockMinima(d, 0.0),
        ))
    assert abs(best - res.lower_bound) <= 1e-6 * abs(res.lower_bound)


def test_criterion_9_mutation_sensitivity(widened_suite):
    failing = [
        (report.instance, c)
        for report in widened_suite.reports
        for c in report.checks
        if not c.passed
    ]
    assert failing, "widening every strip by 10% produced no failing check"
    assert all(c.witness for _, c in failing), "failures must carry witnesses"
