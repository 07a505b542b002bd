"""Sharper enclosures when T and A have 2x2 block structure.

Three structured situations refine the unstructured gap results:

* A symmetric with numerical-range information: eigenvalues in an almost
  gap of T are counted inside intervals built from the quadratic shifts
  and the extremes of the numerical range W(A);
* T diagonal with a gap around 0 and A off-diagonal: the gap shrinks by
  delta = half - sqrt(half^2 - G), G the geometric mean of the two block
  shifts, instead of closing linearly;
* an involution splitting: T nonnegative diagonal with A off-diagonal
  (even case) keeps Re sigma(T + A) above min{beta_1, beta_2} - delta_plus,
  and T off-diagonal with A block-diagonal (odd case) keeps a symmetric
  strip of half-width beta_plus open around the imaginary axis.

All bounds are closed forms in the block constants; the tan-arctan and
quadratic-root forms of delta_plus are kept as separate entry points so
they can be cross-checked against each other.
"""

from __future__ import annotations

import math

from .enclosures import Gap, QuadBound, StripResult, _strip_ends
from .errors import ConditionNotApplicable, record, require_int, require_nonneg, require_positive

__all__ = [
    "OffDiagBounds",
    "DiagBounds",
    "NumRangeBounds",
    "BlockMinima",
    "EigCountInterval",
    "OffDiagGapResult",
    "almost_gap_eig_bound",
    "offdiag_gap",
    "even_lowerbound",
    "even_lowerbound_quadratic",
    "odd_symmetric_gap",
]


class OffDiagBounds(record("OffDiagBounds", "a12 b12 a21 b21")):
    """Block constants for off-diagonal A: A12 against T22, A21 against T11."""

    __slots__ = ()

    def __new__(cls, a12: float, b12: float, a21: float, b21: float):
        return tuple.__new__(cls, map(require_nonneg, cls._fields, (a12, b12, a21, b21)))


class DiagBounds(record("DiagBounds", "a11 b11 a22 b22")):
    """Block constants for diagonal A: A11 against T12*, A22 against T12."""

    __slots__ = ()

    def __new__(cls, a11: float, b11: float, a22: float, b22: float):
        return tuple.__new__(cls, map(require_nonneg, cls._fields, (a11, b11, a22, b22)))


class NumRangeBounds(record("NumRangeBounds", "inf_w sup_w")):
    """Extremes of the numerical range of a symmetric perturbation."""

    __slots__ = ()

    def __new__(cls, inf_w: float, sup_w: float):
        if math.isnan(inf_w) or math.isnan(sup_w):
            raise ValueError("numerical-range extremes must not be NaN")
        if inf_w > sup_w:
            raise ValueError("requires inf_w <= sup_w")
        return tuple.__new__(cls, (inf_w, sup_w))


class BlockMinima(record("BlockMinima", "beta1 beta2")):
    """Spectral minima of the two diagonal blocks of a nonnegative T."""

    __slots__ = ()

    def __new__(cls, beta1: float, beta2: float):
        return tuple.__new__(cls, (require_nonneg("beta1", beta1), require_nonneg("beta2", beta2)))


class EigCountInterval(record("EigCountInterval", "lo hi max_count")):
    """Real interval containing at most max_count eigenvalues of T + A."""

    __slots__ = ()


def almost_gap_eig_bound(
    case: str,
    q: QuadBound,
    gap: Gap,
    m: int,
    w: NumRangeBounds | None = None,
) -> EigCountInterval:
    """Eigenvalue confinement intervals for symmetric A and an almost gap.

    (alpha, beta) contains m eigenvalues of T.  Cases:
      i:   gap condition; interval (alpha + shift(alpha), beta - shift(beta));
      ii:  sup_w + shift(beta) < beta - alpha; interval (alpha + sup_w, beta - shift(beta));
      iii: shift(alpha) - inf_w < beta - alpha; interval (alpha + shift(alpha), beta + inf_w);
      iv:  sup_w - inf_w < beta - alpha; interval (alpha + sup_w, beta + inf_w).
    Each interval contains at most m eigenvalues of T + A.
    """
    m = require_int("m", m, 0)
    lo, hi, open_, sa, sb = _strip_ends(q.a, q.b, gap.alpha, gap.beta)
    if case == "i":
        if not open_:
            raise ConditionNotApplicable("gap condition fails for case i")
        return EigCountInterval(lo, hi, m)
    if case == "ii":
        if w is None or not math.isfinite(w.sup_w):
            raise ConditionNotApplicable("case ii needs a finite numerical-range supremum")
        if not w.sup_w + sb < gap.width:
            raise ConditionNotApplicable("requires sup_w + shift(beta) < beta - alpha")
        return EigCountInterval(gap.alpha + w.sup_w, gap.beta - sb, m)
    if case == "iii":
        if w is None or not math.isfinite(w.inf_w):
            raise ConditionNotApplicable("case iii needs a finite numerical-range infimum")
        if not sa - w.inf_w < gap.width:
            raise ConditionNotApplicable("requires shift(alpha) - inf_w < beta - alpha")
        return EigCountInterval(gap.alpha + sa, gap.beta + w.inf_w, m)
    if case == "iv":
        if w is None or not (math.isfinite(w.inf_w) and math.isfinite(w.sup_w)):
            raise ConditionNotApplicable("case iv needs both numerical-range extremes")
        if not w.sup_w - w.inf_w < gap.width:
            raise ConditionNotApplicable("requires sup_w - inf_w < beta - alpha")
        return EigCountInterval(gap.alpha + w.sup_w, gap.beta + w.inf_w, m)
    raise ValueError(f"case must be one of i, ii, iii, iv, got {case!r}")


class OffDiagGapResult(record("OffDiagGapResult", "delta strip")):
    """Gap shrinkage delta and the surviving strip for off-diagonal A."""

    __slots__ = ()


def offdiag_gap(bounds: OffDiagBounds, gap: Gap) -> OffDiagGapResult:
    """Surviving strip of a gap around 0 under an off-diagonal perturbation.

    With G = sqrt((a12^2 + b12^2 beta^2)(a21^2 + b21^2 alpha^2)) and
    half = (beta - alpha)/2, requires b12 b21 < 1 and G < half^2; then the
    strip (alpha + delta, beta - delta), delta = half - sqrt(half^2 - G),
    is free of sigma(T + A).
    """
    if not gap.alpha < 0 < gap.beta:
        raise ConditionNotApplicable("requires a gap containing 0")
    if not bounds.b12 * bounds.b21 < 1:
        raise ConditionNotApplicable("requires b12 * b21 < 1")
    s12 = math.hypot(bounds.a12, bounds.b12 * gap.beta)
    s21 = math.hypot(bounds.a21, bounds.b21 * gap.alpha)
    half = 0.5 * gap.width
    g = math.sqrt(s12 * s21)
    if not g * g < half * half:
        raise ConditionNotApplicable("requires sqrt(s12 s21) < (beta - alpha)/2")
    delta = half - math.sqrt(half * half - s12 * s21)
    return OffDiagGapResult(delta, StripResult(gap.alpha + delta, gap.beta - delta, True))


def _even_shift_data(bounds: OffDiagBounds, minima: BlockMinima) -> tuple[float, float, float]:
    if not bounds.b12 * bounds.b21 < 1:
        raise ConditionNotApplicable("requires b12 * b21 < 1")
    s12 = math.hypot(bounds.a12, bounds.b12 * minima.beta2)
    s21 = math.hypot(bounds.a21, bounds.b21 * minima.beta1)
    return s12, s21, math.sqrt(s12 * s21)


def even_lowerbound(bounds: OffDiagBounds, minima: BlockMinima) -> float:
    """Lower bound of Re sigma(T + A) for nonnegative block-diagonal T.

    T = diag(T1, T2) >= 0 with min sigma(Ti) = beta_i, A off-diagonal.
    With g the geometric mean of the block shifts,

        bound = min{beta1, beta2} - g * tan(arctan(2 g / |beta1 - beta2|) / 2),

    the tan factor degenerating to 1 for beta1 = beta2.
    """
    s12, s21, g = _even_shift_data(bounds, minima)
    if minima.beta1 == minima.beta2:
        delta = g
    else:
        delta = g * math.tan(0.5 * math.atan(2.0 * g / abs(minima.beta1 - minima.beta2)))
    return min(minima.beta1, minima.beta2) - delta


def even_lowerbound_quadratic(bounds: OffDiagBounds, minima: BlockMinima) -> float:
    """Quadratic-root form of even_lowerbound, kept separate for cross-checks.

    (beta1 + beta2)/2 - sqrt(((beta1 - beta2)/2)^2 + g^2).
    """
    _, _, g = _even_shift_data(bounds, minima)
    half_diff = 0.5 * (minima.beta1 - minima.beta2)
    return 0.5 * (minima.beta1 + minima.beta2) - math.hypot(half_diff, g)


def odd_symmetric_gap(bounds: DiagBounds, beta: float) -> float:
    """Surviving half-width of the symmetric gap (-beta, beta) for odd structure.

    T off-diagonal with ||T12 y|| >= beta, A = diag(A11, A22).  With block
    shifts s1 = sqrt(a11^2 + b11^2 beta^2), s2 = sqrt(a22^2 + b22^2 beta^2),
    requires b11 b22 < 1 and s1 s2 < beta^2; then

        beta_plus = sqrt(beta^2 + ((s1 - s2)/2)^2) - (s1 + s2)/2

    lies in (0, beta] and {|Re z| < beta_plus} is free of sigma(T + sA), s in [0, 1].
    """
    beta = require_positive("beta", beta)
    if not bounds.b11 * bounds.b22 < 1:
        raise ConditionNotApplicable("requires b11 * b22 < 1")
    s1 = math.hypot(bounds.a11, bounds.b11 * beta)
    s2 = math.hypot(bounds.a22, bounds.b22 * beta)
    if not s1 * s2 < beta * beta:
        raise ConditionNotApplicable("requires s1 * s2 < beta^2")
    return math.hypot(beta, 0.5 * (s1 - s2)) - 0.5 * (s1 + s2)
