"""Help, handler and flag rows of the gapcert subcommand that calls matrix_lab."""

from __future__ import annotations

from .cli import _F, _I, _S, _write_csv


def _cmd_verify(args, parser):
    # matrix_lab loads numpy: root help imports this module, but not numpy
    from .matrix_lab import _SUITES, VerifyOptions, run_suite

    if args.suite not in _SUITES:
        parser.error(f"unknown suite {args.suite!r}; valid suites: {', '.join(_SUITES)}")
    res = run_suite(
        count=args.instances,
        dim_lo=args.dim_lo,
        dim_hi=args.dim_hi,
        seed=args.seed,
        options=VerifyOptions(s_points=args.s_points, widen=args.widen),
        suite=args.suite,
    )
    if args.csv is not None and _write_csv(args.csv, res.to_csv()) is None:
        return None
    checks = sum(len(r.checks) for r in res.reports)
    doc = {
        "status": "ok",
        "ok": res.ok,
        "instances": len(res.reports),
        "checks": checks,
        "failures": len(res.failures()),
        "worst_margin": min(c.margin for r in res.reports for c in r.checks),
        "elapsed": res.elapsed,
    }
    if args.csv is not None:
        doc["csv"] = args.csv
    return doc


COMMANDS = {
    "verify": ("run the matrix verification suite", _cmd_verify, [
        ("--suite", _S, "instance suite: standard or isolated (default standard)", "standard"),
        ("--instances", _I, "number of instances (default 500)", 500),
        ("--seed", _I, "seed of the suite's instances (default 20260822)", 20260822),
        ("--dim-lo", _I, "least matrix order (default: the suite's own)"),
        ("--dim-hi", _I, "largest matrix order, at most 64 (default: the suite's own)"),
        ("--widen", _F, "widen every certified strip and floor by this fraction (default 0)", 0.0),
        ("--s-points", _I, "samples of the coupling s in [0, 1] (default 11)", 11),
        ("--csv", _S, "write one row per check as CSV to FILE ('-' for stdout)"),
    ]),
}
