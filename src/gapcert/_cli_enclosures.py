"""Help, handlers and flag rows of the gapcert subcommands that call enclosures."""

from __future__ import annotations

import math

from .cli import _F, _I, _need, _point
from .enclosures import Gap, IsolatedEigSpec, QuadBound, gk_sector_cover, hyperbola_excluded
from .enclosures import isolated_eigenvalue_strip, perturbed_strip, resolvent_bound_offreal
from .enclosures import resolvent_bound_strip, resolvent_bound_strip_refined, subordination_family
from .enclosures import symmetric_gap_strip
from .errors import ConditionNotApplicable


def _cmd_enclose(args, parser):
    _need(parser, args, "a", "b")
    z = _point(parser, args)
    q = QuadBound(args.a, args.b)
    if q.b >= 1.0:
        raise ConditionNotApplicable("b >= 1 excludes nothing: the enclosure is the whole plane")
    denom = math.sqrt(1.0 - q.b * q.b)
    doc = {"status": "open", **q._asdict(), "intercept": q.a / denom, "slope": q.b / denom}
    if z is not None:
        doc["excluded"] = hyperbola_excluded(q, z)
    return doc


def _cmd_strip(args, parser):
    _need(parser, args, "a", "b", "alpha", "beta")
    res = perturbed_strip(QuadBound(args.a, args.b), Gap(args.alpha, args.beta))
    return {"status": "open" if res.open else "closed", **res._asdict()}


def _cmd_resolvent(args, parser):
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
    _need(parser, args, "c", "p", "eps")
    a_of_b = subordination_family(args.c, args.p)

    def bound_at(eps: float) -> QuadBound:
        # unset, b_eps is half the largest b the cover admits at eps (eps checked first)
        b = args.b if args.b is not None else 0.5 * eps / math.sqrt(2.0 + eps**2)
        return QuadBound(a_of_b(b), b)

    cover = gk_sector_cover(bound_at, args.eps)
    q = bound_at(cover.half_angle)
    return {"status": "ok", **cover._asdict(), "a_eps": q.a, "b_eps": q.b}


def _cmd_eig_strip(args, parser):
    _need(parser, args, "a", "b", "lam", "alpha", "beta", "mult")
    spec = IsolatedEigSpec(args.lam, args.alpha, args.beta, args.mult)
    strip = isolated_eigenvalue_strip(QuadBound(args.a, args.b), spec)
    return {"status": "open", **strip._asdict()}


_QUAD = [
    ("--a", _F, "constant a of the relative bound ||Ax||^2 <= a^2 ||x||^2 + b^2 ||Tx||^2"),
    ("--b", _F, "constant b of that bound (b < 1 for a certificate)"),
]
_GAP = [
    ("--alpha", _F, "lower end of the spectral gap (alpha, beta) of T"),
    ("--beta", _F, "upper end of the spectral gap (alpha, beta) of T"),
]
_POINT = [
    ("--re", _F, "real part of the point z (with --im)"),
    ("--im", _F, "imaginary part of the point z (with --re)"),
]

COMMANDS = {
    "enclose": ("hyperbola enclosure parameters", _cmd_enclose, _QUAD + _POINT),
    "strip": ("perturbed spectral-free strip", _cmd_strip, _QUAD + _GAP),
    "resolvent": ("resolvent norm bounds", _cmd_resolvent, _QUAD + _POINT + _GAP),
    "symmetric-gap": ("survived symmetric gap", _cmd_symmetric_gap, _QUAD + [
        ("--beta", _F, "half-width of the symmetric gap (-beta, beta) of T"),
    ] + _POINT),
    "gk-cover": ("sector-plus-ball cover", _cmd_gk_cover, [
        ("--c", _F, "constant c of the subordination ||Ax|| <= c ||x||^(1-p) ||Tx||^p"),
        ("--p", _F, "subordination exponent p in [0, 1)"),
        ("--eps", _F, "sector half-angle eps in (0, pi/2)"),
        ("--b", _F, "relative bound b_eps at eps (default: half the largest the cover admits)"),
    ]),
    "eig-strip": ("isolated-eigenvalue counting strip", _cmd_eig_strip, _QUAD + [
        ("--lam", _F, "isolated eigenvalue lam of T"),
        ("--alpha", _F, "nearest spectrum of T below lam"),
        ("--beta", _F, "nearest spectrum of T above lam"),
        ("--mult", _I, "multiplicity of lam"),
    ]),
}
