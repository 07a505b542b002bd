"""Persistence of infinitely many spectral gaps under relative perturbation.

A self-adjoint T with discrete band structure has gaps (alpha_n, beta_n),
beta_n <= alpha_{n+1}.  Two routes decide how many gaps survive T + A:

* the endpoint-ratio route: limsup (resp. liminf) of beta_n/alpha_n above
  (1 + delta)/(1 - delta), with delta the T-bound of A, keeps infinitely
  (resp. cofinitely) many gaps open;
* the per-gap route: ratio_n = (shift(alpha_n) + shift(beta_n))/(beta_n -
  alpha_n) below 1 for infinitely (liminf) or cofinitely (limsup) many n.

Finite data is estimated over a tail window (default the last ceil(N/4)
terms, max/min); the analytic tail models (PowerLogTail, GeometricTail)
evaluate the limits exactly.  A verdict is refused (inconclusive) rather
than guessed whenever a finite estimate straddles its threshold within 1e-6.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING, Optional, Sequence, Union

from .errors import ConditionNotApplicable, NumericalFailure, record
from .errors import require_finite, require_int, require_nonneg, require_positive

# enclosures loads where a gap or a strip is built (per_gap_criterion binds
# its names on its first call), so that the band-model criteria (gapcert
# gaps, kappa, growth-check, powerlaw) run without it
if TYPE_CHECKING:
    from .enclosures import Gap

__all__ = [
    "Verdict",
    "GrowthTerm",
    "GapSequence",
    "BandProfile",
    "PerGapConstants",
    "ConstModel",
    "PowerLogTail",
    "GeometricTail",
    "FiniteTail",
    "TailModel",
    "RatioResult",
    "PerGapResult",
    "GrowthDiagnostic",
    "PowerlawBound",
    "ratio_criterion",
    "per_gap_criterion",
    "kappa_s",
    "necessary_growth_check",
    "powerlaw_example",
]

_STRADDLE_TOL = 1e-6


class Verdict(str, Enum):
    INFINITELY_MANY = "infinitely_many"
    COFINITELY_MANY = "cofinitely_many"
    INCONCLUSIVE = "inconclusive"


class GrowthTerm(record("GrowthTerm", "coeff base power log_power")):
    """One asymptotic term coeff * base**n * n**power * log(n)**log_power."""

    __slots__ = ()

    def __new__(cls, coeff: float, base: float = 1.0, power: float = 0.0, log_power: float = 0.0):
        return tuple.__new__(cls, (
            require_nonneg("coeff", coeff),
            require_positive("base", base),
            require_finite("power", power),
            require_finite("log_power", log_power),
        ))

    def value(self, n: int) -> float:
        """The term at n >= 2, where log(n) > 0."""
        n = require_int("n", n, 2)
        return self.coeff * self.base**n * float(n) ** self.power * math.log(n) ** self.log_power

    def times(self, other: "GrowthTerm") -> "GrowthTerm":
        return GrowthTerm(
            self.coeff * other.coeff,
            self.base * other.base,
            self.power + other.power,
            self.log_power + other.log_power,
        )

    def over(self, other: "GrowthTerm") -> "GrowthTerm":
        if other.coeff == 0:
            raise ZeroDivisionError("division by a zero growth term")
        return GrowthTerm(
            self.coeff / other.coeff,
            self.base / other.base,
            self.power - other.power,
            self.log_power - other.log_power,
        )

    def limit(self) -> float:
        """Limit as n -> infinity, in [0, inf]."""
        if self.coeff == 0.0:
            return 0.0
        if self.base > 1.0:
            return math.inf
        if self.base < 1.0:
            return 0.0
        if self.power > 0:
            return math.inf
        if self.power < 0:
            return 0.0
        if self.log_power > 0:
            return math.inf
        if self.log_power < 0:
            return 0.0
        return self.coeff


def _lex_le(e1: float, f1: float, e2: float, f2: float) -> bool:
    """Power-log dominance: n**e1 log**f1 is O(n**e2 log**f2)."""
    return e1 < e2 or (e1 == e2 and f1 <= f2)


class GapSequence(record("GapSequence", "alphas betas")):
    """Finite list of gaps (alpha_n, beta_n) with beta_n <= alpha_{n+1}.

    len() counts the gaps, not the record's two fields.
    """

    __slots__ = ()

    def __new__(cls, alphas: tuple[float, ...], betas: tuple[float, ...]):
        alphas = tuple(require_finite("alpha_n", x) for x in alphas)
        betas = tuple(require_finite("beta_n", x) for x in betas)
        if len(alphas) != len(betas) or not alphas:
            raise ValueError("alphas and betas must be nonempty and equally long")
        for a, b in zip(alphas, betas):
            if not a < b:
                raise ValueError("each gap requires finite alpha_n < beta_n")
        for b, a_next in zip(betas, alphas[1:]):
            if b > a_next:
                raise ValueError("gaps must be ordered: beta_n <= alpha_{n+1}")
        return tuple.__new__(cls, (alphas, betas))

    def __len__(self) -> int:
        return len(self.alphas)

    @property
    def lengths(self) -> tuple[float, ...]:
        return tuple(b - a for a, b in zip(self.alphas, self.betas))

    @property
    def widths(self) -> tuple[float, ...]:
        """Band widths w_n = alpha_{n+1} - beta_n (zero for touching gaps)."""
        return tuple(a - b for b, a in zip(self.betas, self.alphas[1:]))

    def profile(self) -> "BandProfile":
        return BandProfile(self.lengths, self.widths)

    def gaps(self) -> tuple[Gap, ...]:
        from .enclosures import Gap

        return tuple(Gap(a, b) for a, b in zip(self.alphas, self.betas))

    def ratio_limits(self, window: Optional[int] = None) -> tuple[float, float, bool]:
        """Tail-window (liminf, limsup, exact) estimate of beta_n/alpha_n."""
        ratios = [b / a for a, b in zip(self.alphas, self.betas) if a > 0]
        if not ratios:
            raise ValueError("endpoint ratios need strictly positive alpha_n in the tail")
        tail = _tail(ratios, window)
        return min(tail), max(tail), False

    def growth_limits(self, window: Optional[int] = None) -> tuple[float, bool]:
        """Tail-window (liminf, exact) estimate of alpha_{n+1}/alpha_n."""
        ratios = [a2 / a1 for a1, a2 in zip(self.alphas, self.alphas[1:]) if a1 > 0]
        if not ratios:
            raise ValueError("endpoint ratios need strictly positive alpha_n")
        return min(_tail(ratios, window)), False


class BandProfile(record("BandProfile", "lengths widths")):
    """Gap lengths l_n > 0 and band widths w_n >= 0 (one fewer width than lengths)."""

    __slots__ = ()

    def __new__(cls, lengths: tuple[float, ...], widths: tuple[float, ...]):
        lengths = tuple(require_positive("gap length", x) for x in lengths)
        widths = tuple(require_nonneg("band width", x) for x in widths)
        if not lengths:
            raise ValueError("at least one gap length required")
        if len(widths) not in (len(lengths) - 1, len(lengths)):
            raise ValueError("widths must number len(lengths)-1 (trailing width optional)")
        return tuple.__new__(cls, (lengths, widths))

    def to_sequence(self, alpha1: float) -> GapSequence:
        alphas, betas = [], []
        a = float(alpha1)
        for i, l in enumerate(self.lengths):
            alphas.append(a)
            betas.append(a + l)
            if i < len(self.lengths) - 1:
                a = a + l + self.widths[i]
        return GapSequence(tuple(alphas), tuple(betas))


def _nonneg_floats(name: str, values) -> tuple[float, ...]:
    """The values as a tuple of floats, each finite and nonnegative.  One pass checks a tuple of
    floats; require_nonneg converts any other entries and raises for the first value it refuses."""
    values = tuple(values)
    for x in values:
        if type(x) is not float or not 0.0 <= x < math.inf:
            return tuple(require_nonneg(name, x) for x in values)
    return values


class PerGapConstants(record("PerGapConstants", "a_seq b_seq")):
    """Per-gap relative-bound constants (a_n, b_n), each b_n in [0, 1).

    len() counts the gaps, not the record's two fields.
    """

    __slots__ = ()

    def __new__(cls, a_seq: tuple[float, ...], b_seq: tuple[float, ...]):
        a_seq, b_seq = _nonneg_floats("a_n", a_seq), _nonneg_floats("b_n", b_seq)
        if len(a_seq) != len(b_seq) or not a_seq:
            raise ValueError("a_seq and b_seq must be nonempty and equally long")
        if max(b_seq) >= 1:
            raise ValueError("b_n must lie in [0, 1)")
        return tuple.__new__(cls, (a_seq, b_seq))

    def __len__(self) -> int:
        return len(self.a_seq)


class ConstModel(record("ConstModel", "a_term b_term")):
    """Analytic power-log models for the constant sequences a_n and b_n."""

    __slots__ = ()

    def __new__(cls, a_term: GrowthTerm, b_term: GrowthTerm):
        if a_term.base != 1.0 or b_term.base != 1.0:
            raise ValueError("constant models must be power-log (base 1)")
        return tuple.__new__(cls, (a_term, b_term))


class PowerLogTail(record("PowerLogTail", "p1 q1 p2 q2 length_prefactor width_prefactor")):
    """Power-log bands: l_n = length_prefactor * n**p1 * log(n)**p2 and
    w_n = width_prefactor * n**q1 * log(n)**q2."""

    __slots__ = ()

    def __new__(
        cls,
        p1: float,
        q1: float,
        p2: float = 0.0,
        q2: float = 0.0,
        length_prefactor: float = 1.0,
        width_prefactor: float = 1.0,
    ):
        p1, q1 = require_nonneg("p1", p1), require_nonneg("q1", q1)
        width_prefactor = require_nonneg("width_prefactor", width_prefactor)
        p2, q2 = require_finite("p2", p2), require_finite("q2", q2)
        length_prefactor = require_positive("length_prefactor", length_prefactor)
        return tuple.__new__(cls, (p1, q1, p2, q2, length_prefactor, width_prefactor))

    def ratio_limits(self) -> tuple[float, float, bool]:
        # alpha_n grows one power faster than l_n, so the ratio tends to 1
        return 1.0, 1.0, True

    def growth_limits(self) -> tuple[float, bool]:
        return 1.0, True

    def length_term(self) -> GrowthTerm:
        return GrowthTerm(self.length_prefactor, 1.0, self.p1, self.p2)

    def width_term(self) -> GrowthTerm:
        return GrowthTerm(self.width_prefactor, 1.0, self.q1, self.q2)


class GeometricTail(record("GeometricTail", "ratio band_ratio")):
    """Geometric bands: alpha_n ~ ratio**n and beta_n = band_ratio * alpha_n,
    with 1 < band_ratio <= ratio.  The criteria read ratios only, so the
    scale of alpha_n is left open."""

    __slots__ = ()

    def __new__(cls, ratio: float, band_ratio: float):
        ratio, band_ratio = require_finite("ratio", ratio), require_finite("band_ratio", band_ratio)
        if ratio <= 1:
            raise ValueError("geometric endpoint growth requires ratio > 1")
        if not 1 < band_ratio <= ratio:
            raise ValueError("requires 1 < band_ratio <= ratio")
        return tuple.__new__(cls, (ratio, band_ratio))

    def ratio_limits(self) -> tuple[float, float, bool]:
        return self.band_ratio, self.band_ratio, True

    def growth_limits(self) -> tuple[float, bool]:
        return self.ratio, True


class FiniteTail(record("FiniteTail", "seq window")):
    """A GapSequence whose limits are estimated over the last `window` terms
    (default ceil(N/4))."""

    __slots__ = ()

    def __new__(cls, seq: GapSequence, window: Optional[int] = None):
        if not isinstance(seq, GapSequence):
            raise TypeError("finite-data model requires a GapSequence")
        if window is not None:
            window = require_int("window", window, 1)
        return tuple.__new__(cls, (seq, window))

    def ratio_limits(self) -> tuple[float, float, bool]:
        return self.seq.ratio_limits(self.window)

    def growth_limits(self) -> tuple[float, bool]:
        return self.seq.growth_limits(self.window)


Tail = Union[PowerLogTail, GeometricTail, FiniteTail]
_TAIL_KINDS = {"power-log": PowerLogTail, "geometric": GeometricTail, "finite-data": FiniteTail}


def TailModel(kind: str, **fields) -> Tail:
    """The tail model of the named kind ("power-log", "geometric" or
    "finite-data"), built from that class's fields."""
    if kind not in _TAIL_KINDS:
        raise ValueError(f"unknown tail model kind {kind!r}")
    return _TAIL_KINDS[kind](**fields)


def _tail(values: Sequence[float], window: Optional[int] = None) -> Sequence[float]:
    w = window if window is not None else math.ceil(len(values) / 4)
    w = min(max(w, 1), len(values))
    return values[-w:]


def _decide(value: float, threshold: float, exact: bool, want_greater: bool) -> int:
    """Three-way strict test: 1 holds, -1 fails, 0 straddling (estimates only)."""
    if not want_greater:
        # negation is exact and rounding symmetric, so value < threshold is -value > -threshold
        value, threshold = -value, -threshold
    if exact:
        return 1 if value > threshold else -1
    tol = _STRADDLE_TOL * max(1.0, abs(threshold))
    if value > threshold + tol:
        return 1
    if value < threshold - tol:
        return -1
    return 0


def _verdict(worst: float, best: float, threshold: float, exact: bool, want_greater: bool) -> Verdict:
    """Cofinitely many gaps when the tail's worst value passes _decide, else infinitely many when its best does."""
    if _decide(worst, threshold, exact, want_greater) == 1:
        return Verdict.COFINITELY_MANY
    if _decide(best, threshold, exact, want_greater) == 1:
        return Verdict.INFINITELY_MANY
    return Verdict.INCONCLUSIVE


class RatioResult(record("RatioResult", "verdict liminf limsup threshold exact")):
    __slots__ = ()


def ratio_criterion(data: Union[GapSequence, Tail], delta_a: float) -> RatioResult:
    """Endpoint-ratio gap test against the threshold (1 + delta)/(1 - delta).

    limsup beta_n/alpha_n above the threshold keeps infinitely many gaps
    open, liminf above keeps cofinitely many.  delta_a is the T-bound of
    the perturbation; delta_a >= 1 admits no conclusion.
    """
    delta_a = require_nonneg("delta_a", delta_a)
    if delta_a >= 1:
        raise ConditionNotApplicable("T-bound delta_a >= 1 admits no gap conclusion")
    threshold = (1.0 + delta_a) / (1.0 - delta_a)
    liminf, limsup, exact = data.ratio_limits()
    return RatioResult(_verdict(liminf, limsup, threshold, exact, True), liminf, limsup, threshold, exact)


class PerGapResult(record("PerGapResult", "verdict ratios strips liminf limsup")):
    __slots__ = ()


def per_gap_criterion(seq: GapSequence, consts: PerGapConstants) -> PerGapResult:
    """Per-gap shift ratios, survived strips, and the tail verdict.

    ratio_n = (shift(alpha_n) + shift(beta_n)) / (beta_n - alpha_n); a tail
    of ratios below 1 in the liminf sense keeps infinitely many gaps open,
    in the limsup sense cofinitely many.
    """
    global StripResult, _strip_ends
    if "_strip_ends" not in globals():
        from .enclosures import StripResult, _strip_ends
    alphas, a_seq = seq.alphas, consts.a_seq
    if len(alphas) != len(a_seq):
        raise ValueError("constants must match the number of gaps")
    ratios, strips = [], []
    # both containers validated (a, b) and (alpha, beta) already
    for a, b, alpha, beta in zip(a_seq, consts.b_seq, alphas, seq.betas):
        lo, hi, open_, sa, sb = _strip_ends(a, b, alpha, beta)
        ratios.append((sa + sb) / (beta - alpha))
        strips.append(StripResult(lo, hi, open_))
    tail = _tail(ratios)
    liminf, limsup = min(tail), max(tail)
    return PerGapResult(_verdict(limsup, liminf, 1.0, False, False), tuple(ratios), tuple(strips), liminf, limsup)


def _sum_limits(*parts: float) -> float:
    total = 0.0
    for p in parts:
        if math.isinf(p):
            return math.inf
        total += p
    return total


def kappa_s(
    bands: Union[BandProfile, PowerLogTail],
    consts: Union[PerGapConstants, ConstModel],
) -> float:
    """limsup of kappa_n = b_n + (2/l_n) (a_n + b_n sum_{j<n} (l_j + w_j)).

    kappa_s < 1 certifies the limsup per-gap condition.  Finite data gives
    a tail-window estimate; a power-log band model with constant models
    gives the exact limit (integral comparison for the partial sums).
    """
    if isinstance(bands, BandProfile) and isinstance(consts, PerGapConstants):
        lengths, a_seq = bands.lengths, consts.a_seq
        if len(a_seq) != len(lengths):
            raise ValueError("constants must match the number of gaps")
        values = []
        cum = 0.0
        # cum is the sum over j < n; the width after the last gap, if any, is never read
        for l, a, b, w in zip(lengths, a_seq, consts.b_seq, bands.widths + (0.0,)):
            values.append(b + (2.0 / l) * (a + b * cum))
            cum += l + w
        tail = _tail(values)
        # only b_n = 0 against an overflowed partial sum (0 * inf) is NaN
        if math.isnan(sum(tail)):
            raise NumericalFailure("kappa_n is NaN: the partial sums of l_j + w_j overflow")
        return max(tail)
    if isinstance(bands, PowerLogTail) and isinstance(consts, ConstModel):
        l_term = bands.length_term()
        w_term = bands.width_term()
        a_term, b_term = consts.a_term, consts.b_term
        # sum_{j<n} l_j ~ l_n * n/(p1+1), likewise for widths
        part_b = b_term.limit()
        part_a = 2.0 * a_term.over(l_term).limit()
        part_l = (2.0 / (bands.p1 + 1.0)) * b_term.times(GrowthTerm(1.0, 1.0, 1.0)).limit()
        # a zero width prefactor gives a zero coefficient, whose limit is 0
        sum_w = GrowthTerm(w_term.coeff / (bands.q1 + 1.0), 1.0, bands.q1 + 1.0, bands.q2)
        part_w = 2.0 * b_term.times(sum_w).over(l_term).limit()
        return _sum_limits(part_b, part_a, part_l, part_w)
    raise TypeError("kappa_s takes (BandProfile, PerGapConstants) or (PowerLogTail, ConstModel)")


class GrowthDiagnostic(record("GrowthDiagnostic", "ok failed_condition details")):
    """Outcome of the necessary-condition screen for gap persistence."""

    __slots__ = ()

    def __new__(cls, ok: bool, failed_condition: Optional[str], details: Optional[dict] = None):
        # each record left without details gets a dict of its own
        return tuple.__new__(cls, (ok, failed_condition, {} if details is None else details))


def necessary_growth_check(
    data: Union[GapSequence, Tail],
    delta_a: float,
    consts: Union[PerGapConstants, ConstModel, None] = None,
) -> GrowthDiagnostic:
    """Screen the growth a cofinite gap verdict would require.

    For delta_a > 0 the endpoints must satisfy
        liminf alpha_{n+1}/alpha_n >= (1 + delta_a)/(1 - delta_a).
    For delta_a = 0 with an unbounded perturbation (constants supplied) the
    gap lengths must outgrow the constants: limsup 2 a_n / l_n < 1.
    """
    delta_a = require_nonneg("delta_a", delta_a)
    if delta_a >= 1:
        raise ValueError("delta_a must lie in [0, 1)")
    if delta_a > 0:
        threshold = (1.0 + delta_a) / (1.0 - delta_a)
        liminf, exact = data.growth_limits()
        # necessary condition is non-strict, so only a clear shortfall fails
        failed = _decide(liminf, threshold, exact, False) == 1
        return GrowthDiagnostic(not failed, "endpoint-ratio-growth" if failed else None,
                                {"liminf": liminf, "threshold": threshold, "exact": exact})
    # delta_a == 0: only unbounded perturbations constrain the gap lengths
    if consts is None:
        return GrowthDiagnostic(True, None, {"note": "no constants supplied; bounded perturbations need no growth"})
    if isinstance(consts, ConstModel):
        if not isinstance(data, PowerLogTail):
            raise ValueError("analytic constants require a power-log band model")
        limsup = 2.0 * consts.a_term.over(data.length_term()).limit()
        exact = True
    else:
        window = None
        if isinstance(data, FiniteTail):
            data, window = data.seq, data.window
        if not isinstance(data, GapSequence):
            raise ValueError("finite constants require finite band data")
        if len(consts) != len(data):
            raise ValueError("constants must match the number of gaps")
        vals = [2.0 * a / l for a, l in zip(consts.a_seq, data.lengths)]
        limsup, exact = max(_tail(vals, window)), False
    failed = _decide(limsup, 1.0, exact, False) != 1
    return GrowthDiagnostic(not failed, "gap-length-growth" if failed else None,
                            {"limsup_2a_over_l": limsup, "exact": exact})


class PowerlawBound(record("PowerlawBound", "kappa_bound eps0")):
    """Scale budget for power-log bands: kappa bound and admissible scale eps0."""

    __slots__ = ()


def powerlaw_example(
    model: PowerLogTail, a_model: GrowthTerm, b_model: GrowthTerm
) -> PowerlawBound:
    """Closed kappa bound for power-log bands with power-log constants.

    Requires p1, q1 > 0, a_n = O(n**p1 log**p2), and
    b_n = O(min{n**-1, n**(p1-q1-1) log**(p2-q2)}).  Then

      kappa_bound = 2 limsup{ a_n/(P_l n**p1 log**p2)
                              + b_n (1/2 + n + (P_w/P_l) n**(q1-p1+1) log**(q2-p2)) }

    with band prefactors P_l, P_w, and the scaled family eps*(a_n, b_n)
    keeps cofinitely many gaps open for every eps < eps0 = (1 - 1e-6)/kappa_bound.
    """
    if not isinstance(model, PowerLogTail):
        raise ValueError("requires a power-log band model")
    if a_model.base != 1.0 or b_model.base != 1.0:
        raise ValueError("constant models must be power-log (base 1)")
    if not (model.p1 > 0 and model.q1 > 0):
        raise ConditionNotApplicable("requires growing bands: p1 > 0 and q1 > 0")
    if a_model.coeff > 0 and not _lex_le(a_model.power, a_model.log_power, model.p1, model.p2):
        raise ConditionNotApplicable("a_n must be dominated by n**p1 log**p2")
    if b_model.coeff > 0:
        if not _lex_le(b_model.power, b_model.log_power, -1.0, 0.0):
            raise ConditionNotApplicable("b_n must be dominated by 1/n")
        if not _lex_le(
            b_model.power, b_model.log_power, model.p1 - model.q1 - 1.0, model.p2 - model.q2
        ):
            raise ConditionNotApplicable(
                "b_n must be dominated by n**(p1-q1-1) log**(p2-q2)"
            )
    term_a = a_model.over(model.length_term()).limit()
    term_half = GrowthTerm(0.5 * b_model.coeff, 1.0, b_model.power, b_model.log_power).limit()
    term_n = b_model.times(GrowthTerm(1.0, 1.0, 1.0)).limit()
    # a zero width prefactor gives a zero coefficient, whose limit is 0
    ratio_wl = model.width_term().over(model.length_term())
    term_w = b_model.times(ratio_wl).times(GrowthTerm(1.0, 1.0, 1.0)).limit()
    kappa_bound = 2.0 * _sum_limits(term_a, term_half, term_n, term_w)
    if kappa_bound == 0.0:
        eps0 = math.inf
    else:
        eps0 = (1.0 - 1e-6) / kappa_bound
    return PowerlawBound(kappa_bound, eps0)
