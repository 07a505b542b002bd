"""Help, handlers and flag rows of the gapcert subcommands that call gap_sequences."""

from __future__ import annotations

from .cli import _F, _I, _S, _exclusive, _floats, _inf_as_null, _need
from .errors import require_finite, require_nonneg
from .gap_sequences import BandProfile, ConstModel, GapSequence, GrowthTerm, PerGapConstants
from .gap_sequences import PowerLogTail, TailModel, kappa_s, necessary_growth_check, powerlaw_example
from .gap_sequences import ratio_criterion


def _band_data(args, parser):
    """Tail model or GapSequence from the band-structure flags."""
    if args.alphas is not None or args.betas is not None:
        if args.model is not None:
            parser.error("--model cannot be combined with --alphas/--betas")
        _need(parser, args, "alphas", "betas")
        seq = GapSequence(_floats(args.alphas), _floats(args.betas))
        if args.window is not None:
            return TailModel("finite-data", seq=seq, window=args.window)
        return seq
    if args.window is not None:
        parser.error("--window applies only to finite data (--alphas/--betas), not to --model")
    _need(parser, args, "model")
    if args.model == "power-log":
        return _power_log(args, parser)
    if args.model == "geometric":
        _need(parser, args, "ratio", "band_ratio")
        return TailModel("geometric", ratio=args.ratio, band_ratio=args.band_ratio)
    parser.error(f"unknown band model {args.model!r}")


def _power_log(args, parser) -> PowerLogTail:
    _need(parser, args, "p1", "q1")
    return TailModel(
        "power-log",
        p1=args.p1,
        p2=args.p2,
        q1=args.q1,
        q2=args.q2,
        length_prefactor=args.length_prefactor,
        width_prefactor=args.width_prefactor,
    )


def _cmd_gaps(args, parser):
    _need(parser, args, "delta_a")
    res = ratio_criterion(_band_data(args, parser), args.delta_a)
    # Verdict is a str enum, so it serializes as its value
    return _inf_as_null({"status": "ok", **res._asdict()})


def _growth_terms(args) -> tuple[GrowthTerm, GrowthTerm]:
    """Power-log models of a_n and b_n; a coefficient left unset is 0."""
    return tuple(
        GrowthTerm(
            require_nonneg(f"--{side}-coeff", getattr(args, f"{side}_coeff") or 0.0),
            1.0,
            require_finite(f"--{side}-power", getattr(args, f"{side}_power")),
            require_finite(f"--{side}-log-power", getattr(args, f"{side}_log_power")),
        )
        for side in ("a", "b")
    )


def _const_terms(args) -> ConstModel | None:
    if args.a_coeff is None and args.b_coeff is None:
        return None
    return ConstModel(*_growth_terms(args))


def _cmd_kappa(args, parser):
    _exclusive(parser, args, ("lengths",), ("model", "p1", "q1", "ratio", "band_ratio",
                                            "alphas", "betas", "window", "a_coeff", "b_coeff"))
    if args.lengths is not None:
        _need(parser, args, "a_seq", "b_seq")
        bands = BandProfile(_floats(args.lengths), _floats(args.widths))
        consts = PerGapConstants(_floats(args.a_seq), _floats(args.b_seq))
    else:
        if args.a_seq is not None or args.b_seq is not None:
            parser.error("--a-seq/--b-seq apply only with --lengths")
        bands = _band_data(args, parser)
        consts = _const_terms(args)
        if not isinstance(bands, PowerLogTail) or consts is None:
            parser.error("analytic kappa needs a power-log band model and constant terms")
    return _inf_as_null({"status": "ok", "kappa": kappa_s(bands, consts)})


def _cmd_growth_check(args, parser):
    _need(parser, args, "delta_a")
    _exclusive(parser, args, ("a_coeff", "b_coeff"), ("a_seq", "b_seq"))
    data = _band_data(args, parser)
    consts: ConstModel | PerGapConstants | None = _const_terms(args)
    if consts is None and args.a_seq is not None:
        _need(parser, args, "b_seq")
        consts = PerGapConstants(_floats(args.a_seq), _floats(args.b_seq))
    diag = necessary_growth_check(data, args.delta_a, consts)
    return {"status": "ok", **diag._asdict(), "details": _inf_as_null(diag.details)}


def _cmd_powerlaw(args, parser):
    res = powerlaw_example(_power_log(args, parser), *_growth_terms(args))
    return {"status": "ok", **res._asdict()}


_PREFACTORS = [
    ("--length-prefactor", _F, "gap-length prefactor of the power-log model (default 1)", 1.0),
    ("--width-prefactor", _F, "band-width prefactor of the power-log model (default 1)", 1.0),
]
_POWER_LOG = [
    ("--p1", _F, "power-log model: gap lengths l_n ~ n^p1 log(n)^p2"),
    ("--p2", _F, "power-log model: log power p2 of l_n (default 0)", 0.0),
    ("--q1", _F, "power-log model: band widths w_n ~ n^q1 log(n)^q2"),
    ("--q2", _F, "power-log model: log power q2 of w_n (default 0)", 0.0),
]
_BAND = _PREFACTORS + [
    ("--model", {"choices": ["power-log", "geometric"]},
     "analytic band model (power-log: --p1 --q1; geometric: --ratio --band-ratio)"),
    *_POWER_LOG,
    ("--ratio", _F, "geometric model: endpoint growth alpha_n ~ ratio^n, ratio > 1"),
    ("--band-ratio", _F, "geometric model: beta_n / alpha_n in (1, ratio]"),
    ("--alphas", _S, "finite data: comma-separated lower gap ends alpha_n (with --betas)"),
    ("--betas", _S, "finite data: comma-separated upper gap ends beta_n (with --alphas)"),
    ("--window", _I, "finite data: tail terms the limits are estimated over (default ceil(N/4))"),
]
_CONSTS = [
    ("--a-coeff", _F, "constants model: coefficient c of a_n ~ c n^p log(n)^q (unset: 0)"),
    ("--a-power", _F, "constants model: power p of n in a_n (default 0)", 0.0),
    ("--a-log-power", _F, "constants model: power q of log(n) in a_n (default 0)", 0.0),
    ("--b-coeff", _F, "constants model: coefficient c of b_n ~ c n^p log(n)^q (unset: 0)"),
    ("--b-power", _F, "constants model: power p of n in b_n (default 0)", 0.0),
    ("--b-log-power", _F, "constants model: power q of log(n) in b_n (default 0)", 0.0),
]
_DELTA = ("--delta-a", _F, "T-bound delta_a of the perturbation, in [0, 1)")

COMMANDS = {
    "gaps": ("endpoint-ratio gap verdict", _cmd_gaps, _BAND + [_DELTA]),
    "kappa": ("limsup per-gap condition number", _cmd_kappa, _BAND + _CONSTS + [
        ("--lengths", _S, "finite data: comma-separated gap lengths l_n (instead of a band model)"),
        ("--widths", _S, "finite data: comma-separated band widths w_n, one fewer than lengths", ()),
        ("--a-seq", _S, "finite data: comma-separated per-gap constants a_n (with --lengths)"),
        ("--b-seq", _S, "finite data: comma-separated per-gap constants b_n (with --lengths)"),
    ]),
    "growth-check": ("necessary growth screen", _cmd_growth_check, _BAND + _CONSTS + [
        _DELTA,
        ("--a-seq", _S, "comma-separated per-gap constants a_n (instead of --a-coeff)"),
        ("--b-seq", _S, "comma-separated per-gap constants b_n (instead of --b-coeff)"),
    ]),
    "powerlaw": ("power-log band scale budget", _cmd_powerlaw, _PREFACTORS + _POWER_LOG + _CONSTS),
}
