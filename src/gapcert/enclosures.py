"""Closed-form spectral enclosures for relatively bounded perturbations.

Throughout, T is self-adjoint and A satisfies a relative bound against T,
either quadratic

    ||A x||^2 <= a^2 ||x||^2 + b^2 ||T x||^2        (a, b >= 0),

or linear  ||A x|| <= a' ||x|| + b' ||T x||.  From (a, b) and spectral data
of T alone (a gap (alpha, beta), a semibound, an isolated eigenvalue) the
functions below produce regions certified free of the spectrum of T + A,
norm bounds for the resolvent on those regions, and eigenvalue counting
strips.  No operator enters; every result is a closed-form expression, so
soundness can be checked against finite-dimensional oracles.

Conventions: strict inequalities and returned endpoints are plain double
arithmetic, not yet rounded in the safe direction, so within a few ulp of
a threshold a verdict can differ from exact arithmetic on the same
inputs; a constant b >= 1 is rejected as not applicable rather than
clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

from .errors import (
    BoundNotValid,
    ConditionNotApplicable,
    NumericalFailure,
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
    "optimal_shift_linear",
    "hyperbola_excluded",
    "gap_condition",
    "perturbed_strip",
    "perturbed_strip_linear",
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


@dataclass(frozen=True)
class QuadBound:
    """Constants of a quadratic relative bound ||Ax||^2 <= a^2||x||^2 + b^2||Tx||^2."""

    a: float
    b: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", require_nonneg("a", self.a))
        object.__setattr__(self, "b", require_nonneg("b", self.b))

    def shift(self, x: float) -> float:
        """Vertical half-width sqrt(a^2 + b^2 x^2) of the enclosure at abscissa x."""
        return math.hypot(self.a, self.b * x)


@dataclass(frozen=True)
class LinBound:
    """Constants of a linear relative bound ||Ax|| <= a_lin||x|| + b_lin||Tx||."""

    a_lin: float
    b_lin: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "a_lin", require_nonneg("a_lin", self.a_lin))
        object.__setattr__(self, "b_lin", require_nonneg("b_lin", self.b_lin))


@dataclass(frozen=True)
class Gap:
    """Open interval (alpha, beta) free of the spectrum of T, endpoints attained."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", require_finite("alpha", self.alpha))
        object.__setattr__(self, "beta", require_finite("beta", self.beta))
        if not self.alpha < self.beta:
            raise ValueError("gap requires alpha < beta")

    @property
    def width(self) -> float:
        return self.beta - self.alpha


@dataclass(frozen=True)
class StripResult:
    """Vertical strip {lo < Re z < hi}; certified spectrum-free only when open."""

    lo: float
    hi: float
    open: bool


@dataclass(frozen=True)
class Disk:
    """Closed disk in the complex plane with real center."""

    center: float
    radius: float

    def contains(self, z: complex, slack: float = 0.0) -> bool:
        return abs(complex(z) - self.center) <= self.radius + slack


def _check_b_lt_1(q: QuadBound) -> None:
    if q.b >= 1.0:
        raise ConditionNotApplicable(f"requires b < 1, got b={q.b!r}")


def quad_from_linear(lin: LinBound, eps: float) -> QuadBound:
    """Convert linear constants to quadratic ones via a Peter-Paul split.

    For any eps > 0,  (a' + b' t)^2 <= a'^2 (1+eps) + b'^2 (1+1/eps) t^2,
    so (a, b) = (a' sqrt(1+eps), b' sqrt(1+1/eps)) is a valid quadratic pair.
    """
    eps = require_positive("eps", eps)
    return QuadBound(lin.a_lin * math.sqrt(1.0 + eps), lin.b_lin * math.sqrt(1.0 + 1.0 / eps))


def optimal_shift_linear(lin: LinBound, x: float) -> float:
    """Best possible vertical shift at abscissa x over all eps conversions.

    min over eps > 0 of sqrt(a(eps)^2 + b(eps)^2 x^2) equals a' + b'|x|,
    attained at eps = b'|x|/a' (limiting cases a' = 0 or b'|x| = 0 included).
    """
    x = require_finite("x", x)
    return lin.a_lin + lin.b_lin * abs(x)


def hyperbola_excluded(q: QuadBound, z: complex) -> bool:
    """Whether z lies in the certified resolvent set outside the enclosing hyperbola.

    For b < 1 the spectrum of T + A is confined to
    |Im z|^2 <= (a^2 + b^2 |Re z|^2) / (1 - b^2); strictly outside is certified.
    """
    _check_b_lt_1(q)
    z = complex(z)
    rhs = (q.a * q.a + q.b * q.b * z.real * z.real) / (1.0 - q.b * q.b)
    return z.imag * z.imag > rhs


def gap_condition(q: QuadBound, gap: Gap) -> bool:
    """Strict inequality guaranteeing the gap survives the perturbation."""
    _check_b_lt_1(q)
    return q.shift(gap.alpha) + q.shift(gap.beta) < gap.width


def perturbed_strip(q: QuadBound, gap: Gap) -> StripResult:
    """Strip (alpha + shift(alpha), beta - shift(beta)) avoided by sigma(T + sA).

    When the gap condition holds the strip is open and is avoided by the
    spectrum of T + sA for every coupling s in [0, 1].
    """
    _check_b_lt_1(q)
    lo = gap.alpha + q.shift(gap.alpha)
    hi = gap.beta - q.shift(gap.beta)
    return StripResult(lo, hi, gap_condition(q, gap))


def perturbed_strip_linear(lin: LinBound, gap: Gap) -> StripResult:
    """Strip from linear constants with eps-optimized endpoint shifts."""
    lo = gap.alpha + optimal_shift_linear(lin, gap.alpha)
    hi = gap.beta - optimal_shift_linear(lin, gap.beta)
    open_ = (optimal_shift_linear(lin, gap.alpha) + optimal_shift_linear(lin, gap.beta)) < gap.width
    return StripResult(lo, hi, open_)


def lower_semicont_balls(q: QuadBound, gap: Gap) -> tuple[Disk, Disk]:
    """Disks around the gap endpoints that must meet sigma(T + A) for symmetric A.

    Requires b < 1.  Each disk K_r(alpha), K_r(beta) with r = shift(endpoint)
    intersects the spectrum of the perturbed operator when A is symmetric.
    """
    _check_b_lt_1(q)
    return (
        Disk(gap.alpha, q.shift(gap.alpha)),
        Disk(gap.beta, q.shift(gap.beta)),
    )


def resolvent_bound_offreal(q: QuadBound, z: complex) -> float:
    """Resolvent norm bound 1/(|Im z| - sqrt(a^2 + b^2 |z|^2)) off the real axis."""
    z = complex(z)
    if not hyperbola_excluded(q, z):
        raise BoundNotValid(f"z={z!r} is not certified outside the enclosure")
    return 1.0 / (abs(z.imag) - q.shift(abs(z)))


def _strip_data(q: QuadBound, gap: Gap, z: complex):
    strip = perturbed_strip(q, gap)
    z = complex(z)
    if not strip.open:
        raise BoundNotValid("gap condition fails; no certified strip")
    if not (strip.lo < z.real < strip.hi):
        raise BoundNotValid(f"Re z={z.real!r} outside certified strip ({strip.lo!r}, {strip.hi!r})")
    return strip, z


def resolvent_bound_strip(q: QuadBound, gap: Gap, z: complex) -> float:
    """Resolvent norm bound inside the certified strip of a survived gap.

    bound = 1 / (sqrt(min{Re z - alpha, beta - Re z}^2 + (Im z)^2)
                 * (1 - max{b, shift(alpha)/(Re z - alpha), shift(beta)/(beta - Re z)}))
    """
    strip, z = _strip_data(q, gap, z)
    mu, nu = z.real, z.imag
    dist = math.hypot(min(mu - gap.alpha, gap.beta - mu), nu)
    # 1 - max{b, s_a/(mu-alpha), s_b/(beta-mu)} evaluated in the
    # cancellation-free complementary form
    comp = min(
        1.0 - q.b,
        (mu - strip.lo) / (mu - gap.alpha),
        (strip.hi - mu) / (gap.beta - mu),
    )
    return 1.0 / (dist * comp)


def resolvent_bound_strip_refined(q: QuadBound, gap: Gap, z: complex) -> float:
    """Piecewise form of the strip bound with explicit crossover abscissae.

    The distance factor switches endpoint at the gap midpoint; the ratio
    factor switches at the abscissa where the two endpoint ratios coincide,
        zeta = alpha + (beta - alpha) * s_alpha / (s_alpha + s_beta).
    Never exceeds resolvent_bound_strip beyond rounding.
    """
    strip, z = _strip_data(q, gap, z)
    mu, nu = z.real, z.imag
    sa = q.shift(gap.alpha)
    sb = q.shift(gap.beta)
    if sa + sb > 0:
        zeta = gap.alpha + gap.width * (sa / (sa + sb))
        zeta_alt = gap.beta - gap.width * (sb / (sa + sb))
        # the two closed forms of the crossover must agree to rounding
        scale = max(1.0, abs(gap.alpha), abs(gap.beta))
        if abs(zeta - zeta_alt) > 1e-12 * scale:
            raise NumericalFailure("crossover forms disagree beyond rounding")
    else:
        zeta = 0.5 * (gap.alpha + gap.beta)
    mid = 0.5 * (gap.alpha + gap.beta)

    if abs(gap.alpha) <= abs(gap.beta):
        # zeta <= mid: alpha-side ratio up to zeta, alpha-side distance up to mid
        if mu <= zeta:
            dist = math.hypot(mu - gap.alpha, nu)
            ratio = (mu - gap.alpha) / (mu - strip.lo)
        elif mu <= mid:
            dist = math.hypot(mu - gap.alpha, nu)
            ratio = (gap.beta - mu) / (strip.hi - mu)
        else:
            dist = math.hypot(gap.beta - mu, nu)
            ratio = (gap.beta - mu) / (strip.hi - mu)
    else:
        # mid <= zeta: beta-side distance past mid, alpha-side ratio up to zeta
        if mu <= mid:
            dist = math.hypot(mu - gap.alpha, nu)
            ratio = (mu - gap.alpha) / (mu - strip.lo)
        elif mu <= zeta:
            dist = math.hypot(gap.beta - mu, nu)
            ratio = (mu - gap.alpha) / (mu - strip.lo)
        else:
            dist = math.hypot(gap.beta - mu, nu)
            ratio = (gap.beta - mu) / (strip.hi - mu)
    return ratio / dist


@dataclass(frozen=True)
class SymmetricGapResult:
    """Survived symmetric gap (-beta_pert, beta_pert) with its resolvent bound."""

    strip: StripResult
    beta_pert: float
    beta: float
    shift: float

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
    _check_b_lt_1(q)
    s = q.shift(beta)
    beta_pert = beta - s
    return SymmetricGapResult(
        strip=StripResult(-beta_pert, beta_pert, s < beta),
        beta_pert=beta_pert,
        beta=beta,
        shift=s,
    )


def semibounded_lower_bound(bound: Union[QuadBound, LinBound], beta: float) -> float:
    """Lower bound of sigma(T + A) when T >= beta.

    Quadratic constants give beta - sqrt(a^2 + b^2 beta^2) (requires b < 1);
    linear constants give beta - (a' + b' beta).
    """
    beta = require_finite("beta", beta)
    if isinstance(bound, QuadBound):
        _check_b_lt_1(bound)
        return beta - bound.shift(beta)
    if isinstance(bound, LinBound):
        return beta - (bound.a_lin + bound.b_lin * beta)
    raise TypeError(f"expected QuadBound or LinBound, got {type(bound).__name__}")


@dataclass(frozen=True)
class GKCover:
    """Spectral cover: ball of radius r_eps plus a double sector about the real axis."""

    r_eps: float
    half_angle: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "r_eps", require_nonneg("r_eps", self.r_eps))
        half_angle = require_finite("half_angle", self.half_angle)
        if not 0.0 < half_angle < math.pi / 2:
            raise ValueError("half_angle must lie in (0, pi/2)")
        object.__setattr__(self, "half_angle", half_angle)

    def contains(self, z: complex) -> bool:
        z = complex(z)
        if abs(z) <= self.r_eps:
            return True
        if z == 0:
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
    _check_b_lt_1(q)
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


@dataclass(frozen=True)
class IsolatedEigSpec:
    """Isolated eigenvalue lam of T with neighbors alpha < lam < beta and multiplicity."""

    lam: float
    alpha: float
    beta: float
    mult: int

    def __post_init__(self) -> None:
        for name in ("lam", "alpha", "beta"):
            object.__setattr__(self, name, require_finite(name, getattr(self, name)))
        if not (self.alpha < self.lam < self.beta):
            raise ValueError("requires alpha < lam < beta")
        object.__setattr__(self, "mult", require_int("mult", self.mult, 0))


@dataclass(frozen=True)
class EigStrip:
    """Vertical strip (lo, hi) + iR containing exactly `count` eigenvalues of T + A."""

    lo: float
    hi: float
    count: int


def isolated_eigenvalue_strip(q: QuadBound, spec: IsolatedEigSpec) -> EigStrip:
    """Counting strip around an isolated eigenvalue that persists under T + A.

    Requires both of
        shift(alpha) + shift(lam) < lam - alpha,
        shift(lam) + shift(beta) < beta - lam;
    then (lam - shift(lam), lam + shift(lam)) + iR contains exactly mult
    eigenvalues of T + A (counted with algebraic multiplicity).
    """
    _check_b_lt_1(q)
    s_lam = q.shift(spec.lam)
    if not q.shift(spec.alpha) + s_lam < spec.lam - spec.alpha:
        raise ConditionNotApplicable("separation from the lower neighbor fails")
    if not s_lam + q.shift(spec.beta) < spec.beta - spec.lam:
        raise ConditionNotApplicable("separation from the upper neighbor fails")
    return EigStrip(spec.lam - s_lam, spec.lam + s_lam, spec.mult)
