"""Help, handlers and flag rows of the gapcert subcommands that call applications."""

from __future__ import annotations

from .applications import CoulombSpec, DiracSpec, ManifoldSpec, TwoChannelSpec, dirac2d_cp, dirac2d_envelope
from .applications import dirac3d_coulomb, envelope_im_at_re, manifold_relbounds, two_channel_bound
from .cli import _F, _I, _S, _floats, _need, _point, _write_csv


def _cmd_dirac_envelope(args, parser):
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
    _need(parser, args, "d", "p", "v12", "p0")
    # unset (or empty) coefficient lists are all zero
    p1 = _floats(args.p1) or (0.0,) * args.d
    p2 = _floats(args.p2) or (0.0,) * (args.d * (args.d + 1) // 2)
    spec = TwoChannelSpec(args.d, args.p, args.v12, args.p0, p1, p2)
    return {"status": "ok", **two_channel_bound(spec)._asdict()}


COMMANDS = {
    "dirac-envelope": ("planar Dirac envelope curve", _cmd_dirac_envelope, [
        ("--p", _F, "exponent p > 2 of the potential's L^p norm"),
        ("--vnorm", _F, "L^p norm of the potential"),
        ("--samples", _I, "points on the curve, at least 2"),
        ("--b-min", _F, "least relative bound b sampled (default: 1e-3 times the largest)"),
        ("--b-max", _F, "largest relative bound b sampled (default: sqrt(2/p))"),
        ("--re", _F, "also give the curve's height at this real part"),
        ("--csv", _S, "write the curve as CSV to FILE ('-' for stdout) instead of as JSON points"),
    ]),
    "coulomb": ("Coulomb-type spectrum region", _cmd_coulomb, [
        ("--c1", _F, "constant C1 of the potential bound ||V(x)||^2 <= C1^2 + C2^2 |x|^-2"),
        ("--c2", _F, "constant C2 of that bound"),
        ("--mass", _F, "mass m > 0"),
        ("--re", _F, "real part of a point z to test (with --im)"),
        ("--im", _F, "imaginary part of a point z to test (with --re)"),
    ]),
    "manifold": ("waveguide band relative bounds", _cmd_manifold, [
        ("--length-prefactor", _F, "gap-length prefactor of the band model (default 1)", 1.0),
        ("--width-prefactor", _F, "band-width prefactor of the band model (default 1)", 1.0),
        ("--c", _F, "bound c on the per-sphere L^p norms of the potential"),
        ("--p", _F, "exponent p > 2 of those norms"),
        ("--case", _I, "1: spheres coupled through touching points, 2: through line segments"),
        ("--n", _I, "band index n >= 2"),
        ("--eps-geom", _F, "exponent defect eps_geom in (0, 1) of the band-width law"),
        ("--pipeline", {"action": "store_true", "default": None},
         "also give powerlaw's kappa_bound and eps0 for the band model", False),
    ]),
    "two-channel": ("two-channel lower bound", _cmd_two_channel, [
        ("--d", _I, "dimension d >= 1 of the confined oscillator channel"),
        ("--p", _F, "exponent p of the coupling's L^p norm (p > d/2, p >= 2)"),
        ("--v12", _F, "L^p norm of the confined-to-free coupling"),
        ("--p0", _F, "constant coefficient of the reverse coupling's polynomial bound"),
        ("--p1", _S, "comma-separated linear coefficients, d of them (default zeros)", ()),
        ("--p2", _S, "comma-separated quadratic coefficients, d(d+1)/2 of them (default zeros)", ()),
    ]),
}
