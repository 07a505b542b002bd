"""`certs`: in-process certificate bundles, a quarter built on a decision boundary."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from gapcert import applications, blocks, enclosures, gap_sequences
from gapcert.applications import CoulombSpec, DiracSpec
from gapcert.blocks import BlockMinima, DiagBounds, OffDiagBounds
from gapcert.enclosures import Gap, IsolatedEigSpec, QuadBound
from gapcert.errors import BoundNotValid, ConditionNotApplicable
from gapcert.gap_sequences import GapSequence, PerGapConstants

from workloads import Item


def _close(x: float, y: float, scale: float, rel: float = 1e-12) -> bool:
    return abs(x - y) <= rel * max(1.0, abs(scale))


N_GAPS = 6
# a batch is this many queries, the first built on a decision boundary
TARGET_EVERY = 4
# Boundary cases (a, b, alpha, beta, Re z, Im z) as float.hex: beta lies
# within 2 ulp of where the float gap condition for (alpha, beta) flips,
# and z within 2 ulp of the hyperbola, each on the side where the float
# test passes and exact rational arithmetic on the same doubles fails it.
# They were found by scanning random (a, b, alpha, Re z) with that exact
# test; scaling a, alpha, beta and z by 2**k (|k| <= BOUNDARY_SCALE) and
# flipping the signs of Re z and Im z keeps every rounding, so each
# targeted query meets both predicates on their unsafe side.
BOUNDARY_CASES = (
    ("0x1.4f4242127b523p+1", "0x1.b44deeda188bdp-2", "0x1.0f2d5cc7ffb0fp+3", "0x1.722437f2b1189p+4",
     "0x1.181e82c04f6a3p+0", "0x1.7867bebe89bb5p+1"),
    ("0x1.0f807571d9efbp+1", "0x1.c26161e87a9a2p-2", "0x1.7978e7342fc25p+3", "0x1.f5a616f68d93ap+4",
     "0x1.1536421b9cf52p+2", "0x1.96587fe2a4884p+1"),
    ("0x1.0443ba857aac5p-1", "0x1.edf79f1181204p-3", "0x1.5122dfa96cf73p+1", "0x1.2bf7f07bc3124p+2",
     "0x1.46df49c1c83d5p-2", "0x1.0f3da93c819b6p-1"),
    ("0x1.64b290111fa3ap+1", "0x1.0dce2e98b9cb4p-2", "0x1.81f3ce7d89ea1p+4", "0x1.5516d69d70efcp+5",
     "0x1.007cc9430a5b7p+4", "0x1.4fb73471ad3bap+2"),
    ("0x1.348b35d24ec87p+1", "0x1.0951d41d00514p-2", "0x1.e081e9ef663f3p+4", "0x1.9e8cd0621fc65p+5",
     "0x1.81cf7abcec7dep+2", "0x1.7ca795431e8cbp+1"),
    ("0x1.1e48b7baf1d6ap-1", "0x1.d68ad0313beb7p-2", "0x1.7baf6750ff8a2p+0", "0x1.20c757995262ep+2",
     "0x1.212f282a06866p+0", "0x1.b7d04434f342ap-1"),
    ("0x1.6c363057e7dc6p+0", "0x1.f0c7f0ad620dcp-2", "0x1.f25a14afbe02ap+2", "0x1.7237dcfc78d4bp+4",
     "0x1.bbc5c51e476f9p+2", "0x1.0b519b2ea7f2ep+2"),
    ("0x1.33d907db59334p+1", "0x1.7a013e6ef97e4p-2", "0x1.530da9f073c1bp+4", "0x1.769e506bdfa22p+5",
     "0x1.28e9caf3ad7ffp+3", "0x1.20353aa944e50p+2"),
)
BOUNDARY_SCALE = 6
# in-strip sample points: (fraction of the strip, Im z in gap widths)
STRIP_POINTS = ((0.25, 0.0), (0.5, 0.3), (0.8, -1.0))


@dataclass(frozen=True)
class CertQuery:
    spec: DiracSpec
    b: float
    # a boundary case's constants, used instead of the preset's when targeted
    quad: QuadBound | None
    gaps: tuple[Gap, ...]
    seq: GapSequence
    profile: Any
    hyperbola_probe: complex
    offreal: tuple[complex, complex]
    sym_beta: float
    isolated: IsolatedEigSpec
    offdiag: OffDiagBounds
    offdiag_gap: Gap
    minima: BlockMinima
    diag: DiagBounds
    odd_beta: float
    coulomb: CoulombSpec
    env_re: float
    targeted: bool


def make_cert_query(rng: random.Random, targeted: bool) -> CertQuery:
    spec = DiracSpec(rng.uniform(0.3, 2.0), rng.uniform(2.5, 8.0))
    b = rng.uniform(0.05, 0.5)
    if targeted:
        a_c, b_c, alpha_c, beta_c, re_c, im_c = map(float.fromhex, rng.choice(BOUNDARY_CASES))
        k = rng.randint(-BOUNDARY_SCALE, BOUNDARY_SCALE)
        quad = QuadBound(math.ldexp(a_c, k), b_c)
        q = quad
        alpha = math.ldexp(alpha_c, k)
    else:
        quad = None
        q = applications.dirac2d_constants(spec, b=b)
        alpha = max(q.a / q.b, 1.0) * rng.uniform(1.0, 4.0)
    threshold = (1.0 + q.b) / (1.0 - q.b)
    ratio = 2.5 * threshold
    alphas, betas = [], []
    for _ in range(N_GAPS):
        alphas.append(alpha)
        betas.append(alpha * (1.0 + (threshold - 1.0) * rng.uniform(0.8, 1.6)))
        alpha *= ratio
    z_scale = max(q.a, 1.0) * rng.uniform(0.5, 3.0)
    if targeted:
        betas[0] = math.ldexp(beta_c, k)
        signs = (rng.choice((1.0, -1.0)), rng.choice((1.0, -1.0)))
        probe = complex(signs[0] * math.ldexp(re_c, k), signs[1] * math.ldexp(im_c, k))
    else:
        re0 = rng.uniform(-3.0, 3.0) * z_scale
        rhs = (q.a * q.a + q.b * q.b * re0 * re0) / (1.0 - q.b * q.b)
        probe = complex(re0, math.sqrt(rhs) * rng.uniform(0.5, 1.5))
    re1 = rng.uniform(-3.0, 3.0) * z_scale
    rhs1 = (q.a * q.a + q.b * q.b * re1 * re1) / (1.0 - q.b * q.b)
    # one point clearly outside the enclosure, one inside it
    offreal = (
        complex(re1, 2.0 * math.sqrt(rhs1) + 1.0),
        complex(rng.uniform(-1.0, 1.0) * z_scale, 0.1 * q.a),
    )
    seq = GapSequence(tuple(alphas), tuple(betas))
    mass = rng.uniform(0.5, 3.0)
    return CertQuery(
        spec=spec,
        b=b,
        quad=quad,
        gaps=seq.gaps(),
        seq=seq,
        profile=seq.profile(),
        hyperbola_probe=probe,
        offreal=offreal,
        sym_beta=max(q.a, 1.0) * rng.uniform(1.0, 5.0),
        isolated=IsolatedEigSpec(0.5 * (alphas[0] + alphas[1]), alphas[0], alphas[1], rng.randint(1, 3)),
        offdiag=OffDiagBounds(
            rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.5), rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.5)
        ),
        offdiag_gap=Gap(-rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)),
        minima=BlockMinima(rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0)),
        diag=DiagBounds(
            rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.5), rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.5)
        ),
        odd_beta=rng.uniform(1.0, 4.0),
        coulomb=CoulombSpec(rng.uniform(0.0, 0.5) * mass, rng.uniform(0.0, 0.45), mass),
        env_re=rng.uniform(0.0, 10.0),
        targeted=targeted,
    )


def _domain(fn, *args):
    """Call fn; a documented domain refusal is returned, any other error propagates."""
    try:
        return fn(*args)
    except ConditionNotApplicable as exc:
        return exc


def _offreal(q: QuadBound, z: complex):
    """resolvent_bound_offreal, with its refusal or a division by zero as the value."""
    try:
        return enclosures.resolvent_bound_offreal(q, z)
    except (BoundNotValid, ZeroDivisionError) as exc:
        return exc


def run_cert_query(cq: CertQuery) -> dict:
    """One bundle.  The hyperbola probe, which targeted queries put within a
    few ulp of the hyperbola, goes to hyperbola_excluded and to the off-real
    resolvent bound with the two clear-cut points.  A targeted query runs
    the band structure on its boundary case's constants, not the preset's."""
    enc, gs, blk, app = enclosures, gap_sequences, blocks, applications
    preset = app.dirac2d_constants(cq.spec, b=cq.b)
    q = preset if cq.quad is None else cq.quad
    gaps = []
    for gap in cq.gaps:
        strip = enc.perturbed_strip(q, gap)
        cond = enc.gap_condition(q, gap)
        bounds = []
        if strip.open:
            for frac, nu in STRIP_POINTS:
                z = complex(strip.lo + frac * (strip.hi - strip.lo), nu * gap.width)
                try:
                    pair = (enc.resolvent_bound_strip(q, gap, z), enc.resolvent_bound_strip_refined(q, gap, z))
                except BoundNotValid:
                    pair = None
                bounds.append((z, pair))
        gaps.append((strip, cond, bounds))
    offreal = []
    for z in (cq.hyperbola_probe,) + cq.offreal:
        offreal.append((z, enc.hyperbola_excluded(q, z), _offreal(q, z)))
    consts = PerGapConstants((q.a,) * N_GAPS, (q.b,) * N_GAPS)
    return {
        "q": q,
        "gaps": gaps,
        "offreal": offreal,
        "balls": enc.lower_semicont_balls(q, cq.gaps[0]),
        "sym": enc.symmetric_gap_strip(q, cq.sym_beta),
        "isolated": _domain(enc.isolated_eigenvalue_strip, q, cq.isolated),
        "ratio": gs.ratio_criterion(cq.seq, q.b),
        "per_gap": gs.per_gap_criterion(cq.seq, consts),
        "kappa": gs.kappa_s(cq.profile, consts),
        "growth": gs.necessary_growth_check(cq.seq, q.b),
        "offdiag": _domain(blk.offdiag_gap, cq.offdiag, cq.offdiag_gap),
        "even": _domain(blk.even_lowerbound, cq.offdiag, cq.minima),
        "odd": _domain(blk.odd_symmetric_gap, cq.diag, cq.odd_beta),
        "almost": _domain(blk.almost_gap_eig_bound, "i", q, cq.gaps[0], 2),
        "coulomb": _domain(app.dirac3d_coulomb, cq.coulomb),
        "envelope": app.envelope_im_at_re(cq.spec, cq.env_re),
    }


def cert_problems(cq: CertQuery, r: dict) -> list[str]:
    """Identities the benchmark recomputes from the query's own inputs."""
    out = []
    q = r["q"]
    a, b = q.a, q.b
    for gap, (strip, cond, bounds) in zip(cq.gaps, r["gaps"]):
        scale = max(abs(gap.alpha), abs(gap.beta))
        if strip.open != cond:
            out.append("strip.open disagrees with gap_condition")
        margin = gap.width - math.hypot(a, b * gap.alpha) - math.hypot(a, b * gap.beta)
        if abs(margin) <= 1e-9 * scale:
            if cond and not _exactly_open(q, gap):
                out.append("gap_condition holds where exact arithmetic closes the gap")
        if not (_close(strip.lo, gap.alpha + math.hypot(a, b * gap.alpha), scale)
                and _close(strip.hi, gap.beta - math.hypot(a, b * gap.beta), scale)):
            out.append("strip endpoints differ from alpha + shift(alpha), beta - shift(beta)")
        for z, pair in bounds:
            if pair is None:
                if strip.lo < z.real < strip.hi:
                    out.append("strip bound refused inside the open strip")
                continue
            plain, refined = pair
            if not (0.0 < refined <= plain * (1.0 + 1e-12) and math.isfinite(plain)):
                out.append("refined strip bound exceeds the plain bound")
    for z, excluded, bound in r["offreal"]:
        rhs = (a * a + b * b * z.real * z.real) / (1.0 - b * b)
        if abs(z.imag * z.imag - rhs) > 1e-9 * max(1.0, rhs):
            if excluded != (z.imag * z.imag > rhs):
                out.append("hyperbola_excluded wrong away from the boundary")
        elif excluded and not _exactly_excluded(q, z):
            out.append("hyperbola_excluded certifies a point exact arithmetic puts on the enclosure")
        if isinstance(bound, ZeroDivisionError):
            out.append("resolvent_bound_offreal divided by zero")
        elif isinstance(bound, BoundNotValid):
            if excluded:
                out.append("resolvent_bound_offreal refused an excluded point")
        elif not excluded:
            out.append("resolvent_bound_offreal bounded a point inside the enclosure")
        elif not (math.isfinite(bound) and bound * abs(z.imag) >= 1.0 - 1e-12):
            out.append("off-real bound below 1/|Im z|")
    alpha, beta = cq.gaps[0].alpha, cq.gaps[0].beta
    lo_disk, hi_disk = r["balls"]
    if not (lo_disk.center == alpha and hi_disk.center == beta
            and _close(lo_disk.radius, math.hypot(a, b * alpha), alpha)
            and _close(hi_disk.radius, math.hypot(a, b * beta), beta)):
        out.append("lower_semicont_balls radii differ from the endpoint shifts")
    sym = r["sym"]
    if not _close(sym.beta_pert, cq.sym_beta - math.hypot(a, b * cq.sym_beta), cq.sym_beta):
        out.append("symmetric gap half-width differs from beta - shift(beta)")
    iso = r["isolated"]
    if not isinstance(iso, ConditionNotApplicable):
        if not (iso.count == cq.isolated.mult and iso.lo < cq.isolated.lam < iso.hi):
            out.append("isolated eigenvalue strip misses lam or miscounts")
    if not _close(r["ratio"].threshold, (1.0 + b) / (1.0 - b), 1.0):
        out.append("ratio criterion threshold differs from (1 + b)/(1 - b)")
    per_gap = r["per_gap"]
    for strip, (loop_strip, _, _) in zip(per_gap.strips, r["gaps"]):
        if strip.open != loop_strip.open:
            out.append("per_gap_criterion strip disagrees with perturbed_strip")
    if len(per_gap.strips) != N_GAPS:
        out.append("per_gap_criterion dropped gaps")
    if not (math.isfinite(r["kappa"]) and r["kappa"] >= b):
        out.append("kappa_s below b_n")
    if not isinstance(r["growth"].ok, bool):
        out.append("necessary_growth_check verdict is not a bool")
    off = r["offdiag"]
    if not isinstance(off, ConditionNotApplicable):
        g = cq.offdiag_gap
        if not (off.delta >= 0.0 and g.alpha < off.strip.lo <= off.strip.hi < g.beta):
            out.append("offdiag strip leaves the gap")
    even = r["even"]
    if not isinstance(even, ConditionNotApplicable):
        o, m = cq.offdiag, cq.minima
        gg = math.sqrt(math.hypot(o.a12, o.b12 * m.beta2) * math.hypot(o.a21, o.b21 * m.beta1))
        quadratic = 0.5 * (m.beta1 + m.beta2) - math.hypot(0.5 * (m.beta1 - m.beta2), gg)
        if not _close(even, quadratic, max(m.beta1, m.beta2, gg), rel=1e-9):
            out.append("even_lowerbound differs from its quadratic-root form")
    odd = r["odd"]
    if not isinstance(odd, ConditionNotApplicable) and not 0.0 < odd <= cq.odd_beta:
        out.append("odd symmetric gap outside (0, beta]")
    almost = r["almost"]
    first_open = r["gaps"][0][1]
    if isinstance(almost, ConditionNotApplicable) == first_open:
        out.append("almost_gap_eig_bound case i disagrees with gap_condition")
    coul = r["coulomb"]
    if not isinstance(coul, ConditionNotApplicable):
        c = cq.coulomb
        if not (coul.bisectorial and _close(coul.halfwidth, c.m - math.hypot(c.c1, 2.0 * c.c2 * c.m), c.m)):
            out.append("Coulomb half-width differs from m - sqrt(C1^2 + 4 C2^2 m^2)")
    env = r["envelope"]
    if not (math.isfinite(env) and env > 0.0):
        out.append("envelope height not positive")
    return out


def _exactly_open(q: QuadBound, gap: Gap) -> bool:
    """sqrt(A) + sqrt(B) < W on the exact values of the doubles."""
    a2, b2 = Fraction(q.a) ** 2, Fraction(q.b) ** 2
    big_a = a2 + b2 * Fraction(gap.alpha) ** 2
    big_b = a2 + b2 * Fraction(gap.beta) ** 2
    rest = (Fraction(gap.beta) - Fraction(gap.alpha)) ** 2 - big_a - big_b
    return rest > 0 and 4 * big_a * big_b < rest * rest


def _exactly_excluded(q: QuadBound, z: complex) -> bool:
    a2, b2 = Fraction(q.a) ** 2, Fraction(q.b) ** 2
    return Fraction(z.imag) ** 2 * (1 - b2) > a2 + b2 * Fraction(z.real) ** 2


class CertsWorkload:
    """In-process certificate queries; a quarter sit on a decision boundary."""

    name = "certs"
    # On the boundary cases the float predicates claim more than exact
    # arithmetic on their doubles allows, so every targeted query fails
    # and fail_ratio is 1 / TARGET_EVERY until they round soundly.
    known_defects = {
        "resolvent_bound_offreal divided by zero":
            "hyperbola_excluded passes, then |Im z| - shift(|z|) rounds to 0",
        "off-real bound below 1/|Im z|":
            "hyperbola_excluded passes, then |Im z| - shift(|z|) rounds below 0",
        "hyperbola_excluded certifies a point exact arithmetic puts on the enclosure":
            "the float test Im^2 > rhs rounds in the unsafe direction",
        "gap_condition holds where exact arithmetic closes the gap":
            "the float sum shift(alpha) + shift(beta) rounds below the width",
    }

    def __init__(self) -> None:
        self.targeted = 0

    def notes(self) -> dict:
        return {"boundary_targeted_queries": self.targeted}

    def batch(self, rng: random.Random, record: bool = False) -> list[Item]:
        return [self._item(make_cert_query(rng, i == 0)) for i in range(TARGET_EVERY)]

    def _item(self, cq: CertQuery) -> Item:
        def check(result) -> list[str]:
            self.targeted += cq.targeted
            return cert_problems(cq, result)

        return Item(lambda: run_cert_query(cq), 1, check)
