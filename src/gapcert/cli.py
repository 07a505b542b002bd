"""Command-line front end: bounds as JSON, region boundaries as CSV.

Every numeric in the output serializes in round-trip form, so piping a
result back into a test compares bit-for-bit with the library call.
Conditional results carry a status field (open / closed / not-applicable);
a failed applicability condition is a domain answer, not an error exit.
Parameter problems exit 2, numerical failures (float overflow or division
by zero among them) exit 3.  A process imports only the modules its
subcommand calls, and builds the flags of that subcommand alone.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from contextlib import nullcontext
from dataclasses import asdict

from .errors import ConditionNotApplicable, NumericalFailure, require_finite, require_nonneg

__all__ = ["main"]


def _floats(value) -> tuple[float, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(float(v) for v in value)
    parts = [p for p in str(value).replace(";", ",").split(",") if p.strip()]
    return tuple(float(p) for p in parts)


# the exact JSON type an integer flag or a switch takes in --json input
_TYPE_NAMES = {int: "an integer", bool: "true or false"}


def _merge_json(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Fill unset flags from --json, then from the subcommand's declared defaults."""
    src = args.json
    doc = {}
    if src:
        try:
            with nullcontext(sys.stdin) if src == "-" else open(src, encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            parser.error(f"cannot read --json input: {exc}")
        except json.JSONDecodeError as exc:
            parser.error(f"--json input is not valid JSON: {exc}")
        if not isinstance(doc, dict):
            parser.error("--json input must be a JSON object")
    for key, value in doc.items():
        dest = key.replace("-", "_")
        if not hasattr(args, dest):
            parser.error(f"unknown parameter {key!r} in --json input")
        want = args.json_types.get(dest)
        if want is not None and type(value) is not want:
            parser.error(f"parameter {key!r} must be {_TYPE_NAMES[want]}, got {value!r}")
        if getattr(args, dest) is None:
            setattr(args, dest, value)
    for dest, value in args.fallbacks.items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)


def _need(parser: argparse.ArgumentParser, args: argparse.Namespace, *names: str) -> None:
    missing = ["--" + n.replace("_", "-") for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        parser.error("missing required parameters: " + ", ".join(missing))


def _exclusive(parser, args, first: tuple[str, ...], second: tuple[str, ...]) -> None:
    """Exit 2 when flags of both groups are set, since the handler would ignore the second group."""
    def given(names):
        return ["--" + n.replace("_", "-") for n in names if getattr(args, n) is not None]

    used, ignored = given(first), given(second)
    if used and ignored:
        parser.error(f"{', '.join(used)} cannot be combined with {', '.join(ignored)}")


def _point(parser, args) -> complex | None:
    """z = --re + i --im, None when neither is given; exit 2 when only one is."""
    if (args.re is None) != (args.im is None):
        parser.error("--re and --im must be given together")
    if args.re is None:
        return None
    return complex(require_finite("--re", args.re), require_finite("--im", args.im))


def _inf_as_null(doc: dict) -> dict:
    """doc with each infinite limit as None: strict JSON has no Infinity."""
    return {
        key: None if isinstance(value, float) and math.isinf(value) else value
        for key, value in doc.items()
    }


def _json_text(doc: dict) -> str:
    """doc as JSON; a NaN or infinity is a numerical failure, bar eps0 = Infinity at kappa_bound 0."""
    documented = doc.get("eps0") == math.inf and doc.get("kappa_bound") == 0.0
    try:
        json.dumps({**doc, "eps0": None} if documented else doc, allow_nan=False)
    except ValueError:
        raise NumericalFailure("a result overflowed or is undefined in floating point") from None
    return json.dumps(doc)


def _write_csv(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
        return None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------------------
# handlers


def _cmd_enclose(args, parser):
    from .enclosures import QuadBound, hyperbola_excluded

    _need(parser, args, "a", "b")
    z = _point(parser, args)
    q = QuadBound(args.a, args.b)
    if q.b >= 1.0:
        raise ConditionNotApplicable("b >= 1 excludes nothing: the enclosure is the whole plane")
    denom = math.sqrt(1.0 - q.b * q.b)
    doc = {"status": "open", **asdict(q), "intercept": q.a / denom, "slope": q.b / denom}
    if z is not None:
        doc["excluded"] = hyperbola_excluded(q, z)
    return doc


def _cmd_strip(args, parser):
    from .enclosures import Gap, QuadBound, perturbed_strip

    _need(parser, args, "a", "b", "alpha", "beta")
    res = perturbed_strip(QuadBound(args.a, args.b), Gap(args.alpha, args.beta))
    return {"status": "open" if res.open else "closed", **asdict(res)}


def _cmd_resolvent(args, parser):
    from .enclosures import Gap, QuadBound, resolvent_bound_offreal, resolvent_bound_strip
    from .enclosures import resolvent_bound_strip_refined

    _need(parser, args, "a", "b", "re", "im")
    if (args.alpha is None) != (args.beta is None):
        parser.error("--alpha and --beta must be given together")
    z = _point(parser, args)
    q = QuadBound(args.a, args.b)
    if args.alpha is None:
        return {"status": "open", "bound": resolvent_bound_offreal(q, z)}
    gap = Gap(args.alpha, args.beta)
    return {
        "status": "open",
        "plain": resolvent_bound_strip(q, gap, z),
        "refined": resolvent_bound_strip_refined(q, gap, z),
    }


def _cmd_symmetric_gap(args, parser):
    from .enclosures import QuadBound, symmetric_gap_strip

    _need(parser, args, "a", "b", "beta")
    z = _point(parser, args)
    res = symmetric_gap_strip(QuadBound(args.a, args.b), args.beta)
    doc = {
        "status": "open" if res.strip.open else "closed",
        "lo": res.strip.lo,
        "hi": res.strip.hi,
        "beta_pert": res.beta_pert,
        "shift": res.shift,
    }
    if z is not None:
        doc["bound"] = res.resolvent_bound(z)
    return doc


def _cmd_gk_cover(args, parser):
    from .enclosures import QuadBound, gk_sector_cover, subordination_family

    _need(parser, args, "c", "p", "eps")
    a_of_b = subordination_family(args.c, args.p)

    def bound_at(eps: float) -> QuadBound:
        # unset, b_eps is half the largest b the cover admits at eps (eps checked first)
        b = args.b if args.b is not None else 0.5 * eps / math.sqrt(2.0 + eps**2)
        return QuadBound(a_of_b(b), b)

    cover = gk_sector_cover(bound_at, args.eps)
    q = bound_at(cover.half_angle)
    return {"status": "ok", **asdict(cover), "a_eps": q.a, "b_eps": q.b}


def _cmd_eig_strip(args, parser):
    from .enclosures import IsolatedEigSpec, QuadBound, isolated_eigenvalue_strip

    _need(parser, args, "a", "b", "lam", "alpha", "beta", "mult")
    spec = IsolatedEigSpec(args.lam, args.alpha, args.beta, args.mult)
    strip = isolated_eigenvalue_strip(QuadBound(args.a, args.b), spec)
    return {"status": "open", **asdict(strip)}


def _band_data(args, parser):
    """Tail model or GapSequence from the band-structure flags."""
    from .gap_sequences import GapSequence, TailModel

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
    from .gap_sequences import TailModel

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
    from .gap_sequences import ratio_criterion

    _need(parser, args, "delta_a")
    res = ratio_criterion(_band_data(args, parser), args.delta_a)
    # Verdict is a str enum, so it serializes as its value
    return _inf_as_null({"status": "ok", **asdict(res)})


def _growth_terms(args) -> tuple[GrowthTerm, GrowthTerm]:
    """Power-log models of a_n and b_n; a coefficient left unset is 0."""
    from .gap_sequences import GrowthTerm

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
    from .gap_sequences import ConstModel

    if args.a_coeff is None and args.b_coeff is None:
        return None
    return ConstModel(*_growth_terms(args))


def _cmd_kappa(args, parser):
    from .gap_sequences import BandProfile, PerGapConstants, PowerLogTail, kappa_s

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
    from .gap_sequences import PerGapConstants, necessary_growth_check

    _need(parser, args, "delta_a")
    _exclusive(parser, args, ("a_coeff", "b_coeff"), ("a_seq", "b_seq"))
    data = _band_data(args, parser)
    consts: ConstModel | PerGapConstants | None = _const_terms(args)
    if consts is None and args.a_seq is not None:
        _need(parser, args, "b_seq")
        consts = PerGapConstants(_floats(args.a_seq), _floats(args.b_seq))
    diag = necessary_growth_check(data, args.delta_a, consts)
    return {"status": "ok", **asdict(diag), "details": _inf_as_null(diag.details)}


def _cmd_powerlaw(args, parser):
    from .gap_sequences import powerlaw_example

    res = powerlaw_example(_power_log(args, parser), *_growth_terms(args))
    return {"status": "ok", **asdict(res)}


def _cmd_structured(args, parser):
    from .blocks import BlockMinima, DiagBounds, OffDiagBounds, even_lowerbound, offdiag_gap
    from .blocks import even_lowerbound_quadratic, odd_symmetric_gap
    from .enclosures import Gap

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


def _cmd_dirac_envelope(args, parser):
    from .applications import DiracSpec, dirac2d_cp, dirac2d_envelope, envelope_im_at_re

    _need(parser, args, "p", "vnorm", "samples")
    spec = DiracSpec(args.vnorm, args.p)
    # --re first, so that its not-applicable reason wins over the curve's
    im_at_re = envelope_im_at_re(spec, args.re) if args.re is not None else None
    curve = dirac2d_envelope(spec, args.samples, b_min=args.b_min, b_max=args.b_max)
    doc = {
        "status": "ok",
        "p": spec.p,
        "vnorm": spec.v_norm,
        "cp": dirac2d_cp(spec),
        "asymptote_coeff": curve.asymptote_coeff,
        "asymptote_exponent": curve.asymptote_exponent,
        "clipped": curve.clipped,
    }
    if im_at_re is not None:
        doc["im_at_re"] = im_at_re
    if args.csv is not None:
        from .regions import Segment, segments_to_csv

        text = segments_to_csv((Segment(f"p={spec.p:g}", curve.re, curve.im),))
        if _write_csv(args.csv, text) is None:
            return None
        doc["csv"] = args.csv
        doc["rows"] = len(curve.re)
    else:
        doc["points"] = [[b, re, im] for b, re, im in zip(curve.b, curve.re, curve.im)]
    return doc


def _cmd_coulomb(args, parser):
    from .applications import CoulombSpec, dirac3d_coulomb

    _need(parser, args, "c1", "c2", "mass")
    z = _point(parser, args)
    region = dirac3d_coulomb(CoulombSpec(args.c1, args.c2, args.mass))
    doc = {
        "status": "open" if region.gap.strip.open else "closed",
        "halfwidth": region.halfwidth,
        "lo": region.gap.strip.lo,
        "hi": region.gap.strip.hi,
        "bisectorial": region.bisectorial,
    }
    if z is not None:
        doc["certified_free"] = region.certified_free(z)
    return doc


def _cmd_manifold(args, parser):
    from .applications import ManifoldSpec, manifold_relbounds
    from .gap_sequences import powerlaw_example

    _need(parser, args, "c", "p", "case", "n", "eps_geom")
    spec = ManifoldSpec(args.c, args.p, args.case, args.eps_geom)
    mb = manifold_relbounds(
        spec, args.n, length_prefactor=args.length_prefactor, width_prefactor=args.width_prefactor
    )
    doc = {
        "status": "ok",
        "a_n": mb.pointwise.a,
        "b_n": mb.pointwise.b,
        "slope": mb.a_model.coeff,
        "band": {key: getattr(mb.band_model, key) for key in ("p1", "p2", "q1", "q2")},
    }
    if args.pipeline:
        res = powerlaw_example(mb.band_model, mb.a_model, mb.b_model)
        doc["kappa_bound"] = res.kappa_bound
        doc["eps0"] = res.eps0
    return doc


def _cmd_two_channel(args, parser):
    from .applications import TwoChannelSpec, two_channel_bound

    _need(parser, args, "d", "p", "v12", "p0")
    # unset (or empty) coefficient lists are all zero
    p1 = _floats(args.p1) or (0.0,) * args.d
    p2 = _floats(args.p2) or (0.0,) * (args.d * (args.d + 1) // 2)
    spec = TwoChannelSpec(args.d, args.p, args.v12, args.p0, p1, p2)
    return {"status": "ok", **asdict(two_channel_bound(spec))}


def _cmd_verify(args, parser):
    from .matrix_lab import VerifyOptions, run_suite

    if args.suite != "standard":
        parser.error(f"unknown suite {args.suite!r}")
    res = run_suite(
        count=args.instances,
        dim_lo=args.dim_lo,
        dim_hi=args.dim_hi,
        seed=args.seed,
        options=VerifyOptions(s_points=args.s_points, widen=args.widen),
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


def _clip_value(parser, args, magnitudes) -> float:
    if args.clip is not None:
        if args.clip <= 0:
            parser.error("--clip must be positive")
        return args.clip
    base = max((abs(float(m)) for m in magnitudes), default=0.0)
    if base <= 0:
        parser.error("region is unbounded; give a positive --clip")
    return 10.0 * base


def _cmd_sample_region(args, parser):
    from .applications import CoulombSpec, DiracSpec, dirac3d_coulomb
    from .enclosures import GKCover, QuadBound
    from .regions import (
        coulomb_boundary,
        envelope_boundary,
        hyperbola_boundary,
        sector_boundary,
        segments_to_csv,
        strip_boundary,
    )

    _need(parser, args, "kind")
    resolution = args.resolution
    if args.kind == "hyperbola":
        _need(parser, args, "a", "b")
        clip = _clip_value(parser, args, (args.a, args.b))
        segments = hyperbola_boundary(QuadBound(args.a, args.b), resolution, clip)
    elif args.kind == "strip":
        _need(parser, args, "lo", "hi")
        clip = _clip_value(parser, args, (args.lo, args.hi))
        segments = strip_boundary(args.lo, args.hi, resolution, clip)
    elif args.kind == "sector":
        _need(parser, args, "r_eps", "half_angle")
        clip = _clip_value(parser, args, (args.r_eps,))
        segments = sector_boundary(GKCover(args.r_eps, args.half_angle), resolution, clip)
    elif args.kind == "coulomb":
        _need(parser, args, "c1", "c2", "mass")
        clip = _clip_value(parser, args, (args.c1, args.c2, args.mass))
        region = dirac3d_coulomb(CoulombSpec(args.c1, args.c2, args.mass))
        segments = coulomb_boundary(region, resolution, clip)
    elif args.kind == "envelope":
        _need(parser, args, "p", "vnorm")
        ps = args.p if isinstance(args.p, list) else [args.p]
        clip = _clip_value(parser, args, list(ps) + [args.vnorm])
        specs = [DiracSpec(args.vnorm, float(p)) for p in ps]
        # each segment is named after its p, so that the CSV splits back into polylines
        names = [f"p={spec.p:g}" for spec in specs]
        if len(set(names)) < len(names):
            parser.error(f"--p values must give distinct segment names, got {', '.join(names)}")
        segments = ()
        for spec, name in zip(specs, names):
            segments += envelope_boundary(spec, resolution, clip, name)
    else:
        parser.error(f"unknown region kind {args.kind!r}")
    text = segments_to_csv(segments)
    if _write_csv(args.csv, text) is None:
        return None
    return {
        "status": "ok",
        "segments": len(segments),
        "rows": sum(len(s.re) for s in segments),
        "csv": args.csv,
    }


# ---------------------------------------------------------------------------
# parser


# Values argparse would otherwise take for flags ("-1e-3", "-inf", "-3,1,4");
# no gapcert flag starts with "-" and a digit, ".", inf or nan
_NEGATIVE_VALUE = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)


class _Subcommand(argparse.ArgumentParser):
    """Subcommand whose (flag, argparse kwargs[, default]) entries are added when it first parses.

    So a call builds only the flags of the subcommand it runs.  Every flag
    parses to None when absent, so --json can fill it; a declared default
    applies after that (see _merge_json).  A negative value may follow its
    flag as the next argument or after "=".
    """

    def __init__(self, *args, func, flags, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_VALUE
        self._unbuilt = (func, flags)

    def build(self) -> None:
        """Add the flags, unless they are added already."""
        if self._unbuilt is None:
            return
        (func, flags), self._unbuilt = self._unbuilt, None
        fallbacks, json_types = {}, {}
        for flag, kwargs, *default in flags:
            dest = self.add_argument(flag, **kwargs).dest
            if default:
                fallbacks[dest] = default[0]
            if kwargs.get("type") is int:
                json_types[dest] = int
            elif kwargs.get("action") == "store_true":
                json_types[dest] = bool
        self.add_argument("--json", metavar="FILE", help="read parameters from a JSON object ('-' for stdin)")
        self.set_defaults(func=func, fallbacks=fallbacks, json_types=json_types)

    def parse_known_args(self, args=None, namespace=None):
        self.build()
        return super().parse_known_args(args, namespace)


def _add(sub, name, func, helptext, flags):
    return sub.add_parser(name, help=helptext, func=func, flags=flags)


_F = {"type": float}
_I = {"type": int}
_S = {}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapcert",
        description="certified spectral enclosures for relatively bounded perturbations",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)

    _add(sub, "enclose", _cmd_enclose, "hyperbola enclosure parameters", [
        ("--a", _F), ("--b", _F), ("--re", _F), ("--im", _F),
    ])
    _add(sub, "strip", _cmd_strip, "perturbed spectral-free strip", [
        ("--a", _F), ("--b", _F), ("--alpha", _F), ("--beta", _F),
    ])
    _add(sub, "resolvent", _cmd_resolvent, "resolvent norm bounds", [
        ("--a", _F), ("--b", _F), ("--re", _F), ("--im", _F),
        ("--alpha", _F), ("--beta", _F),
    ])
    _add(sub, "symmetric-gap", _cmd_symmetric_gap, "survived symmetric gap", [
        ("--a", _F), ("--b", _F), ("--beta", _F), ("--re", _F), ("--im", _F),
    ])
    _add(sub, "gk-cover", _cmd_gk_cover, "sector-plus-ball cover", [
        ("--c", _F), ("--p", _F), ("--eps", _F), ("--b", _F),
    ])
    _add(sub, "eig-strip", _cmd_eig_strip, "isolated-eigenvalue counting strip", [
        ("--a", _F), ("--b", _F), ("--lam", _F), ("--alpha", _F), ("--beta", _F),
        ("--mult", _I),
    ])
    prefactor_flags = [("--length-prefactor", _F, 1.0), ("--width-prefactor", _F, 1.0)]
    band_flags = prefactor_flags + [
        ("--model", {"choices": ["power-log", "geometric"]}),
        ("--p1", _F), ("--p2", _F, 0.0), ("--q1", _F), ("--q2", _F, 0.0),
        ("--ratio", _F), ("--band-ratio", _F),
        ("--alphas", _S), ("--betas", _S), ("--window", _I),
    ]
    const_flags = [
        ("--a-coeff", _F), ("--a-power", _F, 0.0), ("--a-log-power", _F, 0.0),
        ("--b-coeff", _F), ("--b-power", _F, 0.0), ("--b-log-power", _F, 0.0),
    ]
    _add(sub, "gaps", _cmd_gaps, "endpoint-ratio gap verdict", band_flags + [("--delta-a", _F)])
    _add(sub, "kappa", _cmd_kappa, "limsup per-gap condition number", band_flags + const_flags + [
        ("--lengths", _S), ("--widths", _S, ()), ("--a-seq", _S), ("--b-seq", _S),
    ])
    _add(sub, "growth-check", _cmd_growth_check, "necessary growth screen",
         band_flags + const_flags + [("--delta-a", _F), ("--a-seq", _S), ("--b-seq", _S)])
    _add(sub, "powerlaw", _cmd_powerlaw, "power-log band scale budget", prefactor_flags + [
        ("--p1", _F), ("--p2", _F, 0.0), ("--q1", _F), ("--q2", _F, 0.0),
    ] + const_flags)
    _add(sub, "structured", _cmd_structured, "block-structured bounds", [
        ("--shape", {"choices": ["offdiag", "even", "odd"]}),
        ("--a12", _F), ("--b12", _F), ("--a21", _F), ("--b21", _F),
        ("--a11", _F), ("--b11", _F), ("--a22", _F), ("--b22", _F),
        ("--alpha", _F), ("--beta", _F), ("--beta1", _F), ("--beta2", _F),
    ])
    _add(sub, "dirac-envelope", _cmd_dirac_envelope, "planar Dirac envelope curve", [
        ("--p", _F), ("--vnorm", _F), ("--samples", _I), ("--b-min", _F), ("--b-max", _F),
        ("--re", _F), ("--csv", _S),
    ])
    _add(sub, "coulomb", _cmd_coulomb, "Coulomb-type spectrum region", [
        ("--c1", _F), ("--c2", _F), ("--mass", _F), ("--re", _F), ("--im", _F),
    ])
    _add(sub, "manifold", _cmd_manifold, "waveguide band relative bounds", prefactor_flags + [
        ("--c", _F), ("--p", _F), ("--case", _I), ("--n", _I), ("--eps-geom", _F),
        ("--pipeline", {"action": "store_true", "default": None}, False),
    ])
    _add(sub, "two-channel", _cmd_two_channel, "two-channel lower bound", [
        ("--d", _I), ("--p", _F), ("--v12", _F), ("--p0", _F),
        ("--p1", _S, ()), ("--p2", _S, ()),
    ])
    _add(sub, "verify", _cmd_verify, "run the matrix verification suite", [
        ("--suite", _S, "standard"), ("--instances", _I, 500), ("--seed", _I, 20260822),
        ("--dim-lo", _I, 4), ("--dim-hi", _I, 40), ("--widen", _F, 0.0), ("--s-points", _I, 11),
        ("--csv", _S),
    ])
    _add(sub, "sample-region", _cmd_sample_region, "region boundary polylines as CSV", [
        ("--kind", {"choices": ["hyperbola", "strip", "sector", "coulomb", "envelope"]}),
        ("--resolution", _I, 256), ("--clip", _F), ("--csv", _S, "-"),
        ("--a", _F), ("--b", _F), ("--lo", _F), ("--hi", _F),
        ("--r-eps", _F), ("--half-angle", _F),
        ("--c1", _F), ("--c2", _F), ("--mass", _F),
        ("--p", {"type": float, "action": "append"}),
        ("--vnorm", _F),
    ])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _merge_json(parser, args)
    try:
        doc = args.func(args, parser)
        text = None if doc is None else _json_text(doc)
    except ConditionNotApplicable as exc:
        print(json.dumps({"status": "not-applicable", "reason": str(exc)}))
        return 0
    except (NumericalFailure, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if text is not None:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
