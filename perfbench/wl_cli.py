"""`cli`: cold `gapcert` processes over the scalar subcommands and sample-region."""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from typing import Any

from gapcert import applications, blocks, enclosures, gap_sequences, regions
from gapcert.applications import CoulombSpec, DiracSpec
from gapcert.blocks import BlockMinima, DiagBounds, OffDiagBounds
from gapcert.enclosures import Gap, IsolatedEigSpec, QuadBound
from gapcert.gap_sequences import GapSequence, GrowthTerm, PerGapConstants, TailModel

from workloads import ROOT, Item

# The console script installed for `gapcert` runs exactly this.
CLI_BOOT = "import sys; from gapcert.cli import main; sys.exit(main())"
# Same entry, with the phase boundaries reported on stderr.
CLI_BOOT_TRACED = (
    "import sys, time\n"
    "t0 = time.monotonic()\n"
    "from gapcert.cli import main\n"
    "t1 = time.monotonic()\n"
    "try:\n"
    "    code = main()\n"
    "finally:\n"
    "    sys.stdout.flush()\n"
    "    t2 = time.monotonic()\n"
    "    import json\n"
    "    print('PERFBENCH ' + json.dumps({'start': t0, 'imported': t1, 'done': t2,"
    " 'modules': len(sys.modules), 'numpy': 'numpy' in sys.modules}), file=sys.stderr)\n"
    "sys.exit(code)\n"
)
CLI_TIMEOUT_S = 60.0


class NonJsonConstant(ValueError):
    """NaN, Infinity or -Infinity in a document that must be strict JSON."""


def _strict_json(text: str):
    def reject(token):
        raise NonJsonConstant(token)

    return json.loads(text, parse_constant=reject)


def _arg(x) -> str:
    return repr(float(x))


def _cli_mix(rng: random.Random, cycle: int) -> list[tuple[list[str], Any]]:
    """One cycle: every subcommand but verify, with its expected output."""
    enc, app, blk, gs = enclosures, applications, blocks, gap_sequences
    mix = []
    a, b = rng.uniform(0.1, 2.0), rng.uniform(0.0, 0.6)
    q = QuadBound(a, b)
    re, im = rng.uniform(-5.0, 5.0), rng.uniform(-8.0, 8.0)
    mix.append((["enclose", "--a", _arg(a), "--b", _arg(b), "--re", _arg(re), "--im", _arg(im)],
                {"status": "open", "a": a, "b": b, "excluded": enc.hyperbola_excluded(q, complex(re, im))}))

    alpha = rng.uniform(-2.0, 2.0)
    width = 2.0 * (q.shift(alpha) + q.shift(alpha + 10.0 * (a + 1.0))) + rng.uniform(0.5, 5.0)
    gap = Gap(alpha, alpha + width)
    strip = enc.perturbed_strip(q, gap)
    mix.append((["strip", "--a", _arg(a), "--b", _arg(b), "--alpha", _arg(gap.alpha), "--beta", _arg(gap.beta)],
                {"status": "open" if strip.open else "closed", "lo": strip.lo, "hi": strip.hi, "open": strip.open}))

    z = complex(re, 3.0 * (q.shift(abs(complex(re, 10.0))) + 10.0))
    mix.append((["resolvent", "--a", _arg(a), "--b", _arg(b), "--re", _arg(z.real), "--im", _arg(z.imag)],
                {"status": "open", "bound": enc.resolvent_bound_offreal(q, z)}))

    zs = complex(strip.lo + rng.uniform(0.2, 0.8) * (strip.hi - strip.lo), rng.uniform(-2.0, 2.0))
    mix.append((["resolvent", "--a", _arg(a), "--b", _arg(b), "--re", _arg(zs.real), "--im", _arg(zs.imag),
                 "--alpha", _arg(gap.alpha), "--beta", _arg(gap.beta)],
                {"status": "open", "plain": enc.resolvent_bound_strip(q, gap, zs),
                 "refined": enc.resolvent_bound_strip_refined(q, gap, zs)}))

    sym_beta = 2.0 * q.shift(10.0) + rng.uniform(1.0, 5.0)
    sym = enc.symmetric_gap_strip(q, sym_beta)
    zy = complex(rng.uniform(-0.5, 0.5) * sym.beta_pert, rng.uniform(-1.0, 1.0))
    mix.append((["symmetric-gap", "--a", _arg(a), "--b", _arg(b), "--beta", _arg(sym_beta),
                 "--re", _arg(zy.real), "--im", _arg(zy.imag)],
                {"status": "open", "lo": sym.strip.lo, "hi": sym.strip.hi, "beta_pert": sym.beta_pert,
                 "shift": sym.shift, "bound": sym.resolvent_bound(zy)}))

    small = QuadBound(rng.uniform(0.0, 0.2), rng.uniform(0.0, 0.1))
    lam = rng.uniform(-1.0, 1.0)
    iso_spec = IsolatedEigSpec(lam, lam - rng.uniform(2.0, 4.0), lam + rng.uniform(2.0, 4.0), rng.randint(1, 3))
    iso = enc.isolated_eigenvalue_strip(small, iso_spec)
    mix.append((["eig-strip", "--a", _arg(small.a), "--b", _arg(small.b), "--lam", _arg(lam),
                 "--alpha", _arg(iso_spec.alpha), "--beta", _arg(iso_spec.beta), "--mult", str(iso_spec.mult)],
                {"status": "open", "lo": iso.lo, "hi": iso.hi, "count": iso.count}))

    c, p, eps = rng.uniform(0.1, 2.0), rng.uniform(0.1, 0.8), rng.uniform(0.3, 1.2)
    b_eps = 0.5 * eps / math.sqrt(2.0 + eps * eps) * rng.uniform(0.5, 0.95)
    a_eps = enc.subordination_family(c, p)(b_eps)
    cover = enc.gk_sector_cover(lambda _eps: QuadBound(a_eps, b_eps), eps)
    mix.append((["gk-cover", "--c", _arg(c), "--p", _arg(p), "--eps", _arg(eps), "--b", _arg(b_eps)],
                {"status": "ok", "r_eps": cover.r_eps, "half_angle": cover.half_angle,
                 "a_eps": a_eps, "b_eps": b_eps}))

    n = 12
    ratio = rng.uniform(1.5, 3.0)
    alphas = [ratio**k for k in range(1, n + 1)]
    betas = [x * rng.uniform(1.05, 0.99 * ratio) for x in alphas]
    delta_a = rng.uniform(0.0, 0.5)
    res = gs.ratio_criterion(GapSequence(tuple(alphas), tuple(betas)), delta_a)
    mix.append((["gaps", "--alphas", ",".join(map(_arg, alphas)), "--betas", ",".join(map(_arg, betas)),
                 "--delta-a", _arg(delta_a)],
                {"status": "ok", "verdict": res.verdict.value, "liminf": res.liminf, "limsup": res.limsup,
                 "threshold": res.threshold, "exact": res.exact}))

    lengths = [rng.uniform(1.0, 5.0) * (k + 1) for k in range(n)]
    widths = [rng.uniform(0.0, 2.0) for _ in range(n - 1)]
    a_seq = [rng.uniform(0.0, 1.0) for _ in range(n)]
    b_seq = [rng.uniform(0.0, 0.3) for _ in range(n)]
    kappa = gs.kappa_s(gap_sequences.BandProfile(tuple(lengths), tuple(widths)),
                       PerGapConstants(tuple(a_seq), tuple(b_seq)))
    mix.append((["kappa", "--lengths", ",".join(map(_arg, lengths)), "--widths", ",".join(map(_arg, widths)),
                 "--a-seq", ",".join(map(_arg, a_seq)), "--b-seq", ",".join(map(_arg, b_seq))],
                {"status": "ok", "kappa": kappa}))

    o = [rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.3)]
    shape = ("offdiag", "even", "odd")[cycle % 3]
    if shape == "offdiag":
        g = Gap(-rng.uniform(2.0, 4.0), rng.uniform(2.0, 4.0))
        res_o = blk.offdiag_gap(OffDiagBounds(*o), g)
        argv = ["structured", "--shape", "offdiag", "--a12", _arg(o[0]), "--b12", _arg(o[1]), "--a21", _arg(o[2]),
                "--b21", _arg(o[3]), "--alpha", _arg(g.alpha), "--beta", _arg(g.beta)]
        expect = {"status": "open", "delta": res_o.delta, "lo": res_o.strip.lo, "hi": res_o.strip.hi}
    elif shape == "even":
        mins = BlockMinima(rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0))
        argv = ["structured", "--shape", "even", "--a12", _arg(o[0]), "--b12", _arg(o[1]), "--a21", _arg(o[2]),
                "--b21", _arg(o[3]), "--beta1", _arg(mins.beta1), "--beta2", _arg(mins.beta2)]
        expect = {"status": "ok", "lower_bound": blk.even_lowerbound(OffDiagBounds(*o), mins),
                  "lower_bound_quadratic": blk.even_lowerbound_quadratic(OffDiagBounds(*o), mins)}
    else:
        beta = rng.uniform(2.0, 4.0)
        argv = ["structured", "--shape", "odd", "--a11", _arg(o[0]), "--b11", _arg(o[1]), "--a22", _arg(o[2]),
                "--b22", _arg(o[3]), "--beta", _arg(beta)]
        expect = {"status": "open", "beta_plus": blk.odd_symmetric_gap(DiagBounds(*o), beta)}
    mix.append((argv, expect))

    spec = DiracSpec(rng.uniform(0.3, 2.0), rng.uniform(2.5, 8.0))
    env_re = rng.uniform(0.0, 5.0)
    curve = app.dirac2d_envelope(spec, 16)
    mix.append((["dirac-envelope", "--p", _arg(spec.p), "--vnorm", _arg(spec.v_norm), "--samples", "16",
                 "--re", _arg(env_re)],
                {"status": "ok", "p": spec.p, "vnorm": spec.v_norm, "cp": app.dirac2d_cp(spec),
                 "asymptote_coeff": curve.asymptote_coeff, "asymptote_exponent": curve.asymptote_exponent,
                 "clipped": curve.clipped, "im_at_re": app.envelope_im_at_re(spec, env_re),
                 "points": [[x, y, w] for x, y, w in zip(curve.b, curve.re, curve.im)]}))

    mass = rng.uniform(0.5, 3.0)
    cspec = CoulombSpec(rng.uniform(0.0, 0.4) * mass, rng.uniform(0.0, 0.3), mass)
    region = app.dirac3d_coulomb(cspec)
    zc = complex(rng.uniform(-2.0, 2.0) * mass, rng.uniform(-2.0, 2.0) * mass)
    mix.append((["coulomb", "--c1", _arg(cspec.c1), "--c2", _arg(cspec.c2), "--mass", _arg(mass),
                 "--re", _arg(zc.real), "--im", _arg(zc.imag)],
                {"status": "open", "halfwidth": region.halfwidth, "lo": region.gap.strip.lo,
                 "hi": region.gap.strip.hi, "bisectorial": region.bisectorial,
                 "certified_free": region.certified_free(zc)}))

    mspec = app.ManifoldSpec(rng.uniform(0.5, 3.0), rng.uniform(2.5, 8.0), rng.randint(1, 2), rng.uniform(0.1, 0.9))
    n_band = rng.randint(2, 50)
    mb = app.manifold_relbounds(mspec, n_band)
    pl = gs.powerlaw_example(mb.band_model, mb.a_model, mb.b_model)
    mix.append((["manifold", "--c", _arg(mspec.c), "--p", _arg(mspec.p), "--case", str(mspec.case),
                 "--n", str(n_band), "--eps-geom", _arg(mspec.eps_geom), "--pipeline"],
                {"status": "ok", "a_n": mb.pointwise.a, "b_n": mb.pointwise.b, "slope": mb.a_model.coeff,
                 "band": {"p1": mb.band_model.p1, "p2": mb.band_model.p2, "q1": mb.band_model.q1,
                          "q2": mb.band_model.q2},
                 "kappa_bound": pl.kappa_bound, "eps0": pl.eps0}))

    tspec = app.TwoChannelSpec(2, rng.uniform(2.0, 4.0), rng.uniform(0.1, 1.0), rng.uniform(0.0, 1.0),
                               tuple(rng.uniform(0.0, 1.0) for _ in range(2)),
                               tuple(rng.uniform(0.0, 1.0) for _ in range(3)))
    tres = app.two_channel_bound(tspec)
    mix.append((["two-channel", "--d", "2", "--p", _arg(tspec.p), "--v12", _arg(tspec.v12_norm),
                 "--p0", _arg(tspec.p0), "--p1", ",".join(map(_arg, tspec.p1)),
                 "--p2", ",".join(map(_arg, tspec.p2))],
                {"status": "ok", "b21": tres.b21, "c_p": tres.c_p, "coupling": tres.coupling,
                 "lower_bound": tres.lower_bound}))

    # Two powerlaw forms: constants growing as fast as the budget admits
    # (a_n ~ n**p1, the largest admissible b_n), as in the manifold preset,
    # and constants growing strictly slower, for which kappa_bound is 0 and
    # eps0 infinite.
    p1, q1 = rng.uniform(1.0, 3.0), rng.uniform(0.5, 2.0)
    b_budget = min(-1.0, p1 - q1 - 1.0)
    a_term = GrowthTerm(rng.uniform(0.1, 2.0), 1.0, p1, 0.0)
    b_term = GrowthTerm(rng.uniform(0.1, 2.0), 1.0, b_budget, 0.0)
    slack = (GrowthTerm(rng.uniform(0.1, 2.0), 1.0, rng.uniform(0.0, p1 - 0.5), 0.0),
             GrowthTerm(rng.uniform(0.1, 2.0), 1.0, b_budget - rng.uniform(0.5, 2.0), 0.0))
    for a_pl, b_pl in ((a_term, b_term), slack):
        plb = gs.powerlaw_example(TailModel("power-log", p1=p1, q1=q1), a_pl, b_pl)
        mix.append((["powerlaw", "--p1", _arg(p1), "--q1", _arg(q1), "--a-coeff", _arg(a_pl.coeff),
                     "--a-power", _arg(a_pl.power), "--b-coeff", _arg(b_pl.coeff), "--b-power", _arg(b_pl.power)],
                    {"status": "ok", "kappa_bound": plb.kappa_bound, "eps0": plb.eps0}))

    model = TailModel("power-log", p1=p1, q1=q1)
    consts = gap_sequences.ConstModel(a_term, GrowthTerm(b_term.coeff, 1.0, b_term.power, 0.0))
    diag = gs.necessary_growth_check(model, 0.0, consts)
    mix.append((["growth-check", "--model", "power-log", "--p1", _arg(p1), "--q1", _arg(q1), "--delta-a", "0.0",
                 "--a-coeff", _arg(a_term.coeff), "--a-power", _arg(a_term.power),
                 "--b-coeff", _arg(b_term.coeff), "--b-power", _arg(b_term.power)],
                {"status": "ok", "ok": diag.ok, "failed_condition": diag.failed_condition,
                 "details": diag.details}))

    clip = 10.0 * max(a, b, 1.0)
    csv = regions.segments_to_csv(regions.hyperbola_boundary(q, 48, clip))
    mix.append((["sample-region", "--kind", "hyperbola", "--a", _arg(a), "--b", _arg(b), "--resolution", "48",
                 "--clip", _arg(clip)], csv))
    return mix


def cli_problem(expected, returncode: int, stdout: str) -> str | None:
    """What is wrong with one process's output, if anything."""
    if returncode != 0:
        return f"exit code {returncode}"
    if isinstance(expected, str):
        return None if stdout == expected else "CSV differs from the library's segments_to_csv"
    try:
        doc = _strict_json(stdout)
    except NonJsonConstant as exc:
        return f"stdout holds the non-JSON constant {exc}"
    except ValueError:
        return "stdout is not JSON"
    wrong = [key for key, value in expected.items() if doc.get(key) != value]
    return f"{', '.join(wrong)} differ from the library call" if wrong else None


class CliWorkload:
    """Sequential cold `gapcert` processes over a fixed subcommand mix."""

    name = "cli"
    known_defects = {
        "powerlaw: stdout holds the non-JSON constant Infinity":
            "a zero kappa_bound makes eps0 infinite, which json.dumps prints as Infinity",
    }

    def __init__(self) -> None:
        self.traced = False  # the worker sets it for the traced phase
        self.phases: list[dict] = []
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self._drawn: Counter = Counter()

    def notes(self) -> dict:
        return {}

    def batch(self, rng: random.Random, record: bool = False) -> list[Item]:
        mix = _cli_mix(rng, self._drawn[rng])
        self._drawn[rng] += 1
        return [self._item(argv, expected) for argv, expected in mix]

    def _item(self, argv: list[str], expected) -> Item:
        boot = CLI_BOOT_TRACED if self.traced else CLI_BOOT

        def run():
            spawned = time.monotonic()
            proc = subprocess.run(
                [sys.executable, "-c", boot, *argv], env=self.env, capture_output=True,
                text=True, timeout=CLI_TIMEOUT_S, cwd=ROOT,
            )
            return spawned, proc

        def check(result) -> list[str]:
            spawned, proc = result
            if self.traced:
                lines = [ln for ln in proc.stderr.splitlines() if ln.startswith("PERFBENCH ")]
                if not lines:
                    return [f"{argv[0]}: no phase timings on stderr"]
                info = json.loads(lines[-1][len("PERFBENCH "):])
                info["spawned"] = spawned
                self.phases.append(info)
            problem = cli_problem(expected, proc.returncode, proc.stdout)
            return [f"{argv[0]}: {problem}"] if problem else []

        return Item(run, 1, check)

