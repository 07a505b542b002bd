"""Closed-form spectral enclosures for relatively bounded perturbations.

Throughout, T is self-adjoint and A satisfies a quadratic relative bound
against T,

    ||A x||^2 <= a^2 ||x||^2 + b^2 ||T x||^2        (a, b >= 0).

A linear pair ||A x|| <= a' ||x|| + b' ||T x|| reaches a certificate only
through quad_from_linear, with one eps for the whole operator.  Still
open: `gapcert gk-cover` passes subordination_family's a_eps, the least
a of the linear form, to gk_sector_cover as a quadratic a (ROADMAP.md).

From (a, b) and spectral data of T alone (a gap (alpha, beta), a
semibound, an isolated eigenvalue) the functions below produce regions
certified free of the spectrum of T + A, norm bounds for the resolvent
on those regions, and eigenvalue counting strips.  No operator enters;
every result is a closed-form expression, so soundness can be checked
against finite-dimensional oracles.

Conventions: strict inequalities and returned endpoints are plain double
arithmetic, not yet rounded in the safe direction, so within a few ulp of
a threshold a verdict can differ from exact arithmetic on the same
inputs; a constant b >= 1 is rejected as not applicable rather than
clamped.  The two strict decisions that most certificates rest on have
one float kernel each: _strip_ends decides the gap condition wherever it
is used (strips, strip bounds, counting strips, the per-gap criterion),
_excluded the hyperbola test.  Exact predicates and safe-direction
rounding belong there.  The public functions read their arguments'
fields once, call a kernel, and build a result object only where they
return one.

Value types, here and in the other certificate modules, are validated
namedtuple records (errors.record): __new__ checks and converts the
fields, also when _make or _replace builds the record, and a record is
immutable.  Records are tuples, so they unpack, index and order like
tuples, and a record equals any tuple with the same items, a record of
another type included.  They cost a cold process no `dataclasses`
import (which pulls in inspect, ast, dis and tokenize) and no per-class
exec at import.  matrix_lab keeps dataclasses: its types hold numpy
arrays, compare by identity, and load only with numpy, whose import
dwarfs that cost.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import (
    BoundNotValid,
    ConditionNotApplicable,
    NumericalFailure,
    record,
    require_finite,
    require_int,
    require_nonneg,
    require_positive,
)

__all__ = [
    "QuadBound",
    "LinBound",
    "Gap",
    "StripResult",
    "Disk",
    "GKCover",
    "SymmetricGapResult",
    "EigStrip",
    "IsolatedEigSpec",
    "quad_from_linear",
    "hyperbola_excluded",
    "gap_condition",
    "perturbed_strip",
    "lower_semicont_balls",
    "resolvent_bound_offreal",
    "resolvent_bound_strip",
    "resolvent_bound_strip_refined",
    "symmetric_gap_strip",
    "semibounded_lower_bound",
    "gk_sector_cover",
    "subordination_family",
    "isolated_eigenvalue_strip",
]


class QuadBound(record("QuadBound", "a b")):
    """Constants of a quadratic relative bound ||Ax||^2 <= a^2||x||^2 + b^2||Tx||^2."""

    __slots__ = ()

    def __new__(cls, a: float, b: float):
        return tuple.__new__(cls, (require_nonneg("a", a), require_nonneg("b", b)))

    def shift(self, x: float) -> float:
        """Vertical half-width sqrt(a^2 + b^2 x^2) of the enclosure at abscissa x."""
        return math.hypot(self.a, self.b * x)


class LinBound(record("LinBound", "a_lin b_lin")):
    """Constants of a linear relative bound ||Ax|| <= a_lin||x|| + b_lin||Tx||."""

    __slots__ = ()

    def __new__(cls, a_lin: float, b_lin: float):
        return tuple.__new__(cls, (require_nonneg("a_lin", a_lin), require_nonneg("b_lin", b_lin)))


class Gap(record("Gap", "alpha beta")):
    """Open interval (alpha, beta) free of the spectrum of T, endpoints attained."""

    __slots__ = ()

    def __new__(cls, alpha: float, beta: float):
        alpha, beta = require_finite("alpha", alpha), require_finite("beta", beta)
        if not alpha < beta:
            raise ValueError("gap requires alpha < beta")
        return tuple.__new__(cls, (alpha, beta))

    @property
    def width(self) -> float:
        return self.beta - self.alpha


class StripResult(record("StripResult", "lo hi open")):
    """Vertical strip {lo < Re z < hi}; certified spectrum-free only when open."""

    __slots__ = ()


class Disk(record("Disk", "center radius")):
    """Closed disk in the complex plane with real center."""

    __slots__ = ()

    def contains(self, z: complex, slack: float = 0.0) -> bool:
        return abs(complex(z) - self.center) <= self.radius + slack


def _check_b_lt_1(b: float) -> None:
    if b >= 1.0:
        raise ConditionNotApplicable(f"requires b < 1, got b={b!r}")


def quad_from_linear(lin: LinBound, eps: float) -> QuadBound:
    """Convert linear constants to quadratic ones via a Peter-Paul split.

    For any eps > 0,  (a' + b' t)^2 <= a'^2 (1+eps) + b'^2 (1+1/eps) t^2,
    so (a, b) = (a' sqrt(1+eps), b' sqrt(1+1/eps)) is a valid quadratic pair.
    """
    eps = require_positive("eps", eps)
    return QuadBound(lin.a_lin * math.sqrt(1.0 + eps), lin.b_lin * math.sqrt(1.0 + 1.0 / eps))


def _excluded(a: float, b: float, re: float, im: float) -> bool:
    """The one site of the hyperbola test im^2 > (a^2 + b^2 re^2) / (1 - b^2); checks b < 1 first."""
    if b >= 1.0:
        _check_b_lt_1(b)
    return im * im > (a * a + b * b * re * re) / (1.0 - b * b)


def hyperbola_excluded(q: QuadBound, z: complex) -> bool:
    """Whether z lies in the certified resolvent set outside the enclosing hyperbola.

    For b < 1 the spectrum of T + A is confined to
    |Im z|^2 <= (a^2 + b^2 |Re z|^2) / (1 - b^2); strictly outside is certified.
    """
    z = complex(z)
    return _excluded(q.a, q.b, z.real, z.imag)


def _strip_ends(a: float, b: float, alpha: float, beta: float) -> tuple[float, float, bool, float, float]:
    """(lo, hi, open, shift(alpha), shift(beta)) of the strip of gap (alpha, beta) under (a, b).

    The one site that checks b < 1 and decides the gap condition shift(alpha) + shift(beta) < beta - alpha.
    """
    if b >= 1.0:
        _check_b_lt_1(b)
    sa, sb = math.hypot(a, b * alpha), math.hypot(a, b * beta)
    return alpha + sa, beta - sb, sa + sb < beta - alpha, sa, sb


def gap_condition(q: QuadBound, gap: Gap) -> bool:
    """Strict inequality guaranteeing the gap survives the perturbation."""
    return _strip_ends(q.a, q.b, gap.alpha, gap.beta)[2]


def perturbed_strip(q: QuadBound, gap: Gap) -> StripResult:
    """Strip (alpha + shift(alpha), beta - shift(beta)) avoided by sigma(T + sA).

    When the gap condition holds the strip is open and is avoided by the
    spectrum of T + sA for every coupling s in [0, 1].
    """
    lo, hi, open_, _, _ = _strip_ends(q.a, q.b, gap.alpha, gap.beta)
    return StripResult(lo, hi, open_)


def lower_semicont_balls(q: QuadBound, gap: Gap) -> tuple[Disk, Disk]:
    """Disks around the gap endpoints that must meet sigma(T + A) for symmetric A.

    Requires b < 1.  Each disk K_r(alpha), K_r(beta) with r = shift(endpoint)
    intersects the spectrum of the perturbed operator when A is symmetric.
    """
    _, _, _, sa, sb = _strip_ends(q.a, q.b, gap.alpha, gap.beta)
    return Disk(gap.alpha, sa), Disk(gap.beta, sb)


def resolvent_bound_offreal(q: QuadBound, z: complex) -> float:
    """Resolvent norm bound 1/(|Im z| - sqrt(a^2 + b^2 |z|^2)) off the real axis."""
    a, b, z = q.a, q.b, complex(z)
    if not _excluded(a, b, z.real, z.imag):
        raise BoundNotValid(f"z={z!r} is not certified outside the enclosure")
    return 1.0 / (abs(z.imag) - math.hypot(a, b * abs(z)))


def _offreal_bounds(q: QuadBound, zs) -> list[float]:
    """resolvent_bound_offreal at every z of a grid, bit for bit, refusing as it does at the first point it refuses.

    One loop over Python complexes; the b < 1 check and the squares of a
    and b are taken once per grid.
    """
    a, b = q.a, q.b
    zs = list(map(complex, zs))
    if zs:
        _check_b_lt_1(b)
    aa, bb = a * a, b * b
    den = 1.0 - bb
    bounds = []
    for z in zs:
        re, im = z.real, z.imag
        if not im * im > (aa + bb * re * re) / den:
            raise BoundNotValid(f"z={z!r} is not certified outside the enclosure")
        bounds.append(1.0 / (abs(im) - math.hypot(a, b * abs(z))))
    return bounds


def _inside(lo: float, hi: float, open_: bool, z: complex) -> None:
    if not open_:
        raise BoundNotValid("gap condition fails; no certified strip")
    if not (lo < z.real < hi):
        raise BoundNotValid(f"Re z={z.real!r} outside certified strip ({lo!r}, {hi!r})")


def _crossover(alpha: float, beta: float, sa: float, sb: float) -> float:
    """Abscissa zeta where the two endpoint ratios of the refined bound coincide.

    sa and sb are the endpoint shifts shift(alpha) and shift(beta).  Of the
    two closed forms, the one anchored at the endpoint nearer 0 is returned,
    so the mirrored gap (-beta, -alpha) gets exactly -zeta.
    """
    if not sa + sb > 0:
        return 0.5 * (alpha + beta)
    width = beta - alpha
    from_alpha = alpha + width * (sa / (sa + sb))
    from_beta = beta - width * (sb / (sa + sb))
    # the two closed forms of the crossover must agree to rounding
    scale = max(1.0, abs(alpha), abs(beta))
    if abs(from_alpha - from_beta) > 1e-12 * scale:
        raise NumericalFailure("crossover forms disagree beyond rounding")
    return from_alpha if abs(alpha) <= abs(beta) else from_beta


def resolvent_bound_strip(q: QuadBound, gap: Gap, z: complex) -> float:
    """Resolvent norm bound inside the certified strip of a survived gap.

    bound = 1 / (sqrt(min{Re z - alpha, beta - Re z}^2 + (Im z)^2)
                 * (1 - max{b, shift(alpha)/(Re z - alpha), shift(beta)/(beta - Re z)}))
    """
    b, alpha, beta = q.b, gap.alpha, gap.beta
    lo, hi, open_, _, _ = _strip_ends(q.a, b, alpha, beta)
    z = complex(z)
    mu = z.real
    if not (open_ and lo < mu < hi):
        _inside(lo, hi, open_, z)
    da, db = mu - alpha, beta - mu
    # 1 - max{b, s_a/(mu-alpha), s_b/(beta-mu)} evaluated in the
    # cancellation-free complementary form
    return 1.0 / (math.hypot(min(da, db), z.imag) * min(1.0 - b, (mu - lo) / da, (hi - mu) / db))


def resolvent_bound_strip_refined(q: QuadBound, gap: Gap, z: complex) -> float:
    """Piecewise form of the strip bound with explicit crossover abscissae.

    The distance factor switches endpoint at the gap midpoint; the ratio
    factor switches at the abscissa where the two endpoint ratios coincide,
        zeta = alpha + (beta - alpha) * s_alpha / (s_alpha + s_beta).
    Never exceeds resolvent_bound_strip beyond rounding.
    """
    alpha, beta = gap.alpha, gap.beta
    lo, hi, open_, sa, sb = _strip_ends(q.a, q.b, alpha, beta)
    z = complex(z)
    mu = z.real
    if not (open_ and lo < mu < hi):
        _inside(lo, hi, open_, z)
    zeta = _crossover(alpha, beta, sa, sb)
    # the distance switches endpoint at the midpoint, the ratio at zeta; a
    # tie takes the smaller distance and the larger ratio
    mid = 0.5 * (alpha + beta)
    da, db = mu - alpha, beta - mu
    ra, rb = da / (mu - lo), db / (hi - mu)
    dist = math.hypot(da if mu < mid else db if mu > mid else min(da, db), z.imag)
    return (ra if mu < zeta else rb if mu > zeta else max(ra, rb)) / dist


def _strip_bound_pairs(q: QuadBound, gap: Gap, zs) -> list[tuple[float, float]]:
    """(plain, refined) strip bounds at every z of a grid.

    Each pair equals (resolvent_bound_strip, resolvent_bound_strip_refined)
    at that z bit for bit, and the grid raises what they raise at its
    first point they refuse.  One loop over Python complexes: the strip,
    its two endpoint shifts, 1 - b, the midpoint and the crossover are
    computed once per grid instead of once per bound, the crossover after
    the first point is found inside the strip, as the refined bound does.
    """
    b, alpha, beta = q.b, gap.alpha, gap.beta
    lo, hi, open_, sa, sb = _strip_ends(q.a, b, alpha, beta)
    zs = list(map(complex, zs))
    if not zs:
        return []
    _inside(lo, hi, open_, zs[0])
    zeta = _crossover(alpha, beta, sa, sb)
    one_b, mid = 1.0 - b, 0.5 * (alpha + beta)
    pairs = []
    for z in zs:
        mu, nu = z.real, z.imag
        if not lo < mu < hi:
            _inside(lo, hi, open_, z)
        da, db = mu - alpha, beta - mu
        plain = 1.0 / (math.hypot(min(da, db), nu) * min(one_b, (mu - lo) / da, (hi - mu) / db))
        ra, rb = da / (mu - lo), db / (hi - mu)
        dist = math.hypot(da if mu < mid else db if mu > mid else min(da, db), nu)
        pairs.append((plain, (ra if mu < zeta else rb if mu > zeta else max(ra, rb)) / dist))
    return pairs


class SymmetricGapResult(record("SymmetricGapResult", "strip beta_pert beta shift")):
    """Survived symmetric gap (-beta_pert, beta_pert) with its resolvent bound."""

    __slots__ = ()

    def resolvent_bound(self, z: complex) -> float:
        """1/sqrt((beta - |Re z|)^2 + (Im z)^2) * (beta - |Re z|)/(beta_pert - |Re z|)."""
        z = complex(z)
        if not self.strip.open:
            raise BoundNotValid("symmetric gap does not survive; no certified strip")
        mu = abs(z.real)
        if mu >= self.beta_pert:
            raise BoundNotValid(f"|Re z|={mu!r} outside certified strip half-width {self.beta_pert!r}")
        return (self.beta - mu) / (math.hypot(self.beta - mu, z.imag) * (self.beta_pert - mu))


def symmetric_gap_strip(q: QuadBound, beta: float) -> SymmetricGapResult:
    """Symmetric gap (-beta, beta) of T: survived strip and resolvent bound.

    The gap survives when sqrt(a^2 + b^2 beta^2) < beta; the perturbed
    half-width is beta_pert = beta - sqrt(a^2 + b^2 beta^2).
    """
    beta = require_positive("beta", beta)
    _check_b_lt_1(q.b)
    s = q.shift(beta)
    beta_pert = beta - s
    return SymmetricGapResult(StripResult(-beta_pert, beta_pert, s < beta), beta_pert, beta, s)


def semibounded_lower_bound(bound: QuadBound, beta: float) -> float:
    """Lower bound beta - sqrt(a^2 + b^2 beta^2) of Re sigma(T + A) when T >= beta; requires b < 1.

    Any A with the quadratic pair, symmetric or not: for Re z below the bound,
    ||A (T - z)^-1|| <= sup_{t >= beta} sqrt(a^2 + b^2 t^2) / (t - Re z) < 1, as
    sqrt(a^2 + b^2 t^2) - (t - Re z) is negative at t = beta and decreases in t
    when b < 1; so T + A - z = (I + A (T - z)^-1)(T - z) is invertible.

    Only a QuadBound is taken, checked by type since a LinBound equals a
    QuadBound as a tuple; a linear pair enters through quad_from_linear.
    """
    beta = require_finite("beta", beta)
    if not isinstance(bound, QuadBound):
        raise TypeError(f"expected QuadBound, got {type(bound).__name__}; convert a linear pair with quad_from_linear")
    _check_b_lt_1(bound.b)
    return beta - bound.shift(beta)


class GKCover(record("GKCover", "r_eps half_angle")):
    """Spectral cover: ball of radius r_eps plus a double sector about the real axis."""

    __slots__ = ()

    def __new__(cls, r_eps: float, half_angle: float):
        r_eps, half_angle = require_nonneg("r_eps", r_eps), require_finite("half_angle", half_angle)
        if not 0.0 < half_angle < math.pi / 2:
            raise ValueError("half_angle must lie in (0, pi/2)")
        return tuple.__new__(cls, (r_eps, half_angle))

    def contains(self, z: complex) -> bool:
        z = complex(z)
        if abs(z) <= self.r_eps:
            return True
        arg = abs(math.atan2(z.imag, z.real))
        return arg <= self.half_angle or (math.pi - arg) <= self.half_angle


def gk_sector_cover(family: Callable[[float], QuadBound], eps: float) -> GKCover:
    """Sector-plus-ball cover of sigma(T + A) from an eps-indexed bound family.

    Evaluates the family at eps; requires b_eps^2/(1 - b_eps^2) < eps^2/2.
    Then with r0^2 = (a_eps^2/(1 - b_eps^2)) (2/eps^2) the whole spectrum lies
    in the ball of radius r_eps, r_eps^2 = r0^2 + (a_eps^2 + b_eps^2 r0^2)/(1 - b_eps^2),
    united with the double sector of half-angle eps.
    """
    eps = require_finite("eps", eps)
    if not 0.0 < eps < math.pi / 2:
        raise ValueError("eps must lie in (0, pi/2)")
    q = family(eps)
    _check_b_lt_1(q.b)
    bb = q.b * q.b
    if bb / (1.0 - bb) >= eps * eps / 2.0:
        raise ConditionNotApplicable(
            f"requires b_eps^2/(1-b_eps^2) < eps^2/2 at eps={eps!r}, got b_eps={q.b!r}"
        )
    r0_sq = (q.a * q.a / (1.0 - bb)) * (2.0 / (eps * eps))
    r_eps_sq = r0_sq + (q.a * q.a + bb * r0_sq) / (1.0 - bb)
    return GKCover(math.sqrt(r_eps_sq), eps)


def subordination_family(c: float, p: float) -> Callable[[float], float]:
    """Optimal a(b) for a p-subordinate perturbation, ||Ax|| <= c ||x||^(1-p) ||Tx||^p.

    For p in (0, 1):  a(b) = (1-p) p^(p/(1-p)) c^(1/(1-p)) b^(-p/(1-p)),
    the least constant with c v^p <= a(b) + b v for all v >= 0.  For p = 0
    the family is constant a(b) = c.
    """
    c = require_nonneg("c", c)
    p = require_finite("p", p)
    if not 0.0 <= p < 1.0:
        raise ValueError("p must lie in [0, 1)")

    if p == 0.0 or c == 0.0:

        def a_const(b: float) -> float:
            if b < 0:
                raise ValueError("b must be nonnegative")
            return c

        return a_const

    expo = p / (1.0 - p)

    def a_of_b(b: float) -> float:
        b = float(b)
        if b <= 0:
            raise ValueError("b must be positive for p > 0")
        return (1.0 - p) * math.pow(p, expo) * math.pow(c, 1.0 / (1.0 - p)) * math.pow(b, -expo)

    return a_of_b


class IsolatedEigSpec(record("IsolatedEigSpec", "lam alpha beta mult")):
    """Isolated eigenvalue lam of T with neighbors alpha < lam < beta and multiplicity."""

    __slots__ = ()

    def __new__(cls, lam: float, alpha: float, beta: float, mult: int):
        lam, alpha, beta = map(require_finite, ("lam", "alpha", "beta"), (lam, alpha, beta))
        if not (alpha < lam < beta):
            raise ValueError("requires alpha < lam < beta")
        return tuple.__new__(cls, (lam, alpha, beta, require_int("mult", mult, 0)))


class EigStrip(record("EigStrip", "lo hi count")):
    """Vertical strip (lo, hi) + iR containing exactly `count` eigenvalues of T + A.

    The field `count` shadows tuple.count.
    """

    __slots__ = ()


def isolated_eigenvalue_strip(q: QuadBound, spec: IsolatedEigSpec) -> EigStrip:
    """Counting strip around an isolated eigenvalue that persists under T + A.

    Requires the gap conditions of (alpha, lam) and (lam, beta),
        shift(alpha) + shift(lam) < lam - alpha,
        shift(lam) + shift(beta) < beta - lam;
    then (lam - shift(lam), lam + shift(lam)) + iR contains exactly mult
    eigenvalues of T + A (counted with algebraic multiplicity).
    """
    a, b, lam = q.a, q.b, spec.lam
    _, _, below, _, s_lam = _strip_ends(a, b, spec.alpha, lam)
    if not below:
        raise ConditionNotApplicable("separation from the lower neighbor fails")
    if not _strip_ends(a, b, lam, spec.beta)[2]:
        raise ConditionNotApplicable("separation from the upper neighbor fails")
    return EigStrip(lam - s_lam, lam + s_lam, spec.mult)
