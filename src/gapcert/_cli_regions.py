"""Help, handler and flag rows of the gapcert subcommand that calls regions."""

from __future__ import annotations

import sys

from .cli import _F, _I, _S, _need, _write_csv
from .enclosures import GKCover, QuadBound
from .regions import coulomb_boundary, envelope_boundary, hyperbola_boundary, sector_boundary
from .regions import segments_to_csv, strip_boundary


def _clip_value(parser, args, magnitudes) -> float:
    if args.clip is not None:
        if args.clip <= 0:
            parser.error("--clip must be positive")
        return args.clip
    base = max((abs(float(m)) for m in magnitudes), default=0.0)
    if base <= 0:
        parser.error("region is unbounded; give a positive --clip")
    # ten times an input beyond max / 10 is the largest double, not infinity
    return min(10.0 * base, sys.float_info.max)


def _cmd_sample_region(args, parser):
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
        from .applications import CoulombSpec, dirac3d_coulomb

        _need(parser, args, "c1", "c2", "mass")
        clip = _clip_value(parser, args, (args.c1, args.c2, args.mass))
        region = dirac3d_coulomb(CoulombSpec(args.c1, args.c2, args.mass))
        segments = coulomb_boundary(region, resolution, clip)
    elif args.kind == "envelope":
        from .applications import DiracSpec

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


COMMANDS = {
    "sample-region": ("region boundary polylines as CSV", _cmd_sample_region, [
        ("--kind", {"choices": ["hyperbola", "strip", "sector", "coulomb", "envelope"]},
         "region whose boundary is sampled"),
        ("--resolution", _I, "points per boundary segment (default 256)", 256),
        ("--clip", _F, "half-size of the window drawn (default: ten times the largest input)"),
        ("--csv", _S, "CSV output FILE ('-', the default, for stdout)", "-"),
        ("--a", _F, "hyperbola: constant a of the relative bound"),
        ("--b", _F, "hyperbola: constant b of the relative bound"),
        ("--lo", _F, "strip: left end"),
        ("--hi", _F, "strip: right end"),
        ("--r-eps", _F, "sector: radius of the ball"),
        ("--half-angle", _F, "sector: half-angle of the double sector, in (0, pi/2)"),
        ("--c1", _F, "coulomb: constant C1 of the potential bound"),
        ("--c2", _F, "coulomb: constant C2 of the potential bound"),
        ("--mass", _F, "coulomb: mass m > 0"),
        ("--p", {"type": float, "action": "append"},
         "envelope: exponent p > 2 of the potential's L^p norm; repeat for several curves"),
        ("--vnorm", _F, "envelope: L^p norm of the potential"),
    ]),
}
