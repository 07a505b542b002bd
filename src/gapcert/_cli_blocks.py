"""Help, handler and flag rows of the gapcert subcommand that calls blocks."""

from __future__ import annotations

from .blocks import BlockMinima, DiagBounds, OffDiagBounds, even_lowerbound, even_lowerbound_quadratic
from .blocks import odd_symmetric_gap, offdiag_gap
from .cli import _F, _need
from .enclosures import Gap


def _cmd_structured(args, parser):
    if args.shape == "offdiag":
        _need(parser, args, "a12", "b12", "a21", "b21", "alpha", "beta")
        res = offdiag_gap(
            OffDiagBounds(args.a12, args.b12, args.a21, args.b21),
            Gap(args.alpha, args.beta),
        )
        return {"status": "open", "delta": res.delta, "lo": res.strip.lo, "hi": res.strip.hi}
    if args.shape == "even":
        _need(parser, args, "a12", "b12", "a21", "b21", "beta1", "beta2")
        bounds = OffDiagBounds(args.a12, args.b12, args.a21, args.b21)
        minima = BlockMinima(args.beta1, args.beta2)
        return {
            "status": "ok",
            "lower_bound": even_lowerbound(bounds, minima),
            "lower_bound_quadratic": even_lowerbound_quadratic(bounds, minima),
        }
    if args.shape == "odd":
        _need(parser, args, "a11", "b11", "a22", "b22", "beta")
        beta_plus = odd_symmetric_gap(
            DiagBounds(args.a11, args.b11, args.a22, args.b22), args.beta
        )
        return {"status": "open", "beta_plus": beta_plus}
    parser.error(f"unknown shape {args.shape!r}")


COMMANDS = {
    "structured": ("block-structured bounds", _cmd_structured, [
        ("--shape", {"choices": ["offdiag", "even", "odd"]},
         "block structure: offdiag (gap around 0), even (lower bound), odd (symmetric gap)"),
        ("--a12", _F, "offdiag, even: constant a12 of A12 against T22"),
        ("--b12", _F, "offdiag, even: constant b12 of A12 against T22"),
        ("--a21", _F, "offdiag, even: constant a21 of A21 against T11"),
        ("--b21", _F, "offdiag, even: constant b21 of A21 against T11"),
        ("--a11", _F, "odd: constant a11 of the diagonal block A11"),
        ("--b11", _F, "odd: constant b11 of the diagonal block A11"),
        ("--a22", _F, "odd: constant a22 of the diagonal block A22"),
        ("--b22", _F, "odd: constant b22 of the diagonal block A22"),
        ("--alpha", _F, "offdiag: lower end of the gap (alpha, beta) of T around 0"),
        ("--beta", _F, "offdiag: upper end of the gap; odd: half-width of the gap (-beta, beta)"),
        ("--beta1", _F, "even: spectral minimum of the block T1"),
        ("--beta2", _F, "even: spectral minimum of the block T2"),
    ]),
}
