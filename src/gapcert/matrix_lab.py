"""Finite-dimensional oracle for every certified enclosure.

Instances pair a real diagonal T (gap endpoints placed in the spectrum
exactly) with a dense complex A whose relative-bound constants are
measured, never assumed: a_min(b)^2 = lambda_max(A*A - b^2 T^2).  A is
rescaled so the relevant certification condition holds with a prescribed
ratio, which keeps the soundness checks honest and non-vacuous.  A kind
of instance is one row of _KINDS (its generator, its dim rule in a suite,
its own check), so a new kind is one generator, one check and one table
row; a suite is one row of _SUITES (its mix of kinds, its dim range).
A generator draws each T block with _pinned_block and scales its raw A
by the one calibration loop, _calibrate (two-block kinds through
_two_block); gen_instance and gen_isolated_instance check dim, seed and
magnitude in one place, _instance_args.

verify_instance samples the coupling s in [0, 1] and a z-grid per
certified region and reports signed margins; failures become report
entries with witnesses, not exceptions.  It runs in two steps: _observe
does the linear algebra (eigenvalues along s, resolvent norms on the
z-grids) and computes every grid's certified bounds once, _judge turns
those arrays into the common checks and the kind's own.  A location or
counting check (strip, the block kinds' own, eig-count) reads widen-free
claims off its certificate: ("strip", lo, hi, scale), ("floor", f, m),
("half", c), ("count", lo, hi, mult).  _widen alone applies the options'
widen, and _check_location or _check_count judges; the resolvent checks
and refined-le-plain share one bound-ratio judge, _check_bounded.

Each bound-ratio check reads one _Bounded record (zs, bounds, values,
exact); a resolvent check's values are norms, and proven upper brackets
of the norm where not exact: the oracle prunes a point by two Weyl bounds,
sigma_min(M - z) >= sigma_min(M - z0) - |z - z0| from each exact point z0
and sigma_min(M - z) >= dist(z, sigma(T)) - ||A||_2 before any, each
less a slack for rounding (see _Brackets), once it provably cannot be
its check's worst, so reports equal those of a full-grid evaluation.
An exactly Hermitian instance (A == A^H entry for entry: the symmetric
and probe kinds) takes the Hermitian path: eigvalsh sweeps it, and the
second bound becomes two-sided, sigma_min(M - z) = dist(z, sigma(M))
within a slack, so about one point per check needs an SVD.

verify_instance observes only when it is given no observation, on the
calling thread.  run_suite drives a named suite, by default the
standard mix of the acceptance gate.  A call with its previous call's
specs, s_points and grid constants judges that call's instances on its
observations and generates nothing; any other runs batches of one order
and one sweep solver on lanes, one per usable CPU, started and joined
within the call, each lane generating, sweeping (one eigvals or one
eigvalsh call), observing (_observe_batch: one SVD call for every
||A||_2, then one per bracket round, at most _ROUNDS) and judging a
whole batch.  Batches are sized so that their LAPACK calls run without
the GIL (_GIL_FREE_SIZE, _suite_batches).

Importing this module loads every certificate module, applications and
gap_sequences among them although the oracle calls neither: code that
rebinds the certificate functions module by module in an oracle process
(such as perfbench/tracer.py) then finds them all loaded, since the
package root loads none of them.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import threading
import time
from collections import namedtuple
from dataclasses import asdict, dataclass
from functools import cache

import numpy as np

from . import applications, gap_sequences  # noqa: F401  (loaded for tracers; see above)
from .blocks import (
    BlockMinima,
    DiagBounds,
    NumRangeBounds,
    OffDiagBounds,
    almost_gap_eig_bound,
    even_lowerbound,
    odd_symmetric_gap,
    offdiag_gap,
)
from .enclosures import (
    Gap,
    IsolatedEigSpec,
    QuadBound,
    StripResult,
    SymmetricGapResult,
    gap_condition,
    isolated_eigenvalue_strip,
    lower_semicont_balls,
    perturbed_strip,
    _offreal_bounds,
    _strip_bound_pairs,
    resolvent_bound_strip,  # noqa: F401  (perfbench's self-test traces it through this module)
    symmetric_gap_strip,
)
from .errors import (
    ConditionNotApplicable,
    NumericalFailure,
    require_int,
    require_nonneg,
)

__all__ = [
    "MatrixInstance",
    "VerifyOptions",
    "CheckResult",
    "VerificationReport",
    "SuiteResult",
    "gen_instance",
    "gen_isolated_instance",
    "measure_quad_bound",
    "verify_instance",
    "standard_suite_specs",
    "run_suite",
]

@dataclass(frozen=True, eq=False)
class MatrixInstance:
    """One (T, A) pair with measured constants and certification targets.

    T is held as its diagonal; A is dense.  `kind` names the instance's
    row of _KINDS, which built it and adds its own check; `cert` holds the
    arguments the kind's own certificate takes besides `quad`, as the
    row's comment says.  A new kind is one generator, one check and one
    table row; the generator returns (t_diag, a_mat, quad, gaps, cert),
    to which gen_instance (or gen_isolated_instance) adds name, kind, seed.
    """

    name: str
    kind: str
    seed: int
    t_diag: np.ndarray
    a_mat: np.ndarray
    quad: QuadBound
    gaps: tuple[Gap, ...] = ()
    cert: tuple = ()

    def __post_init__(self) -> None:
        t = np.asarray(self.t_diag, dtype=float)
        a = np.asarray(self.a_mat, dtype=complex)
        if a.shape != (t.size, t.size):
            raise ValueError("A must be square and match the dimension of T")
        object.__setattr__(self, "t_diag", t)
        object.__setattr__(self, "a_mat", a)

    @property
    def dim(self) -> int:
        return int(self.t_diag.size)

    @property
    def t_mat(self) -> np.ndarray:
        return np.diag(self.t_diag)


def _amin(a_mat: np.ndarray, t_diag: np.ndarray, b: float) -> float:
    h = a_mat.conj().T @ a_mat - (b * b) * np.diag(t_diag * t_diag)
    top = float(np.linalg.eigvalsh(0.5 * (h + h.conj().T))[-1])
    return math.sqrt(max(0.0, top))


def measure_quad_bound(inst: MatrixInstance, b: float) -> float:
    """Smallest a with ||Ax||^2 <= a^2 ||x||^2 + b^2 ||Tx||^2 for this instance."""
    b = float(b)
    if not 0.0 <= b < 1.0:
        raise ValueError("requires b in [0, 1)")
    return _amin(inst.a_mat, inst.t_diag, b)


# ---------------------------------------------------------------------------
# generation


def _gap_ratio(q: QuadBound, gaps: tuple[Gap, ...]) -> float:
    """The largest (shift(alpha) + shift(beta)) / width over the gaps; each gap stays open below 1."""
    return max((q.shift(g.alpha) + q.shift(g.beta)) / g.width for g in gaps)


def _t_with_gaps(rng: np.random.Generator, dim: int, gaps: tuple[Gap, ...]) -> np.ndarray:
    """Diagonal attaining every gap endpoint, remaining entries off the gaps."""
    if 2 * len(gaps) > dim:
        raise ValueError("gaps not realizable: need two eigenvalues per gap")
    edges = [end for g in gaps for end in (g.alpha, g.beta)]
    # the bands between the gaps, and 4 beyond the outer ends
    ends = [min(edges) - 4.0, *edges, max(edges) + 4.0]
    bands = list(zip(ends[::2], ends[1::2]))
    extra = []
    for _ in range(dim - len(edges)):
        a, b = bands[int(rng.integers(len(bands)))]
        extra.append(float(rng.uniform(a, b)))
    return np.sort(np.array(edges + extra))


def _auto_gaps(rng: np.random.Generator, n_gaps: int) -> tuple[Gap, ...]:
    if n_gaps == 1:
        return (Gap(-float(rng.uniform(0.5, 2.5)), float(rng.uniform(0.5, 2.5))),)
    x = -5.0
    gaps = []
    for _ in range(n_gaps):
        x += float(rng.uniform(0.8, 2.0))
        width = float(rng.uniform(0.8, 2.2))
        gaps.append(Gap(x, x + width))
        x += width
    return tuple(gaps)


def _calibrate(rng: np.random.Generator, b_hi: float, blocks, measure, target: float) -> tuple[float, list[QuadBound]]:
    """The one calibration loop: (t, q) with t = target / measure(*q) and t * max(b) < 0.9.

    blocks holds each raw A block of a kind with the T diagonal it is
    measured against; q[i] is QuadBound(a_min(b_i), b_i) of block i, each
    b_i drawn from [0.05, b_hi) in block order, then every b halved until
    t * max(b) < 0.9.  measure(*q) must be finite and positive.
    """
    b = [float(rng.uniform(0.05, b_hi)) for _ in blocks]
    for _ in range(80):
        q = [QuadBound(_amin(raw, t_diag, b_i), b_i) for (raw, t_diag), b_i in zip(blocks, b)]
        rho = measure(*q)
        if not (math.isfinite(rho) and rho > 0.0):
            raise NumericalFailure("degenerate certification ratio during calibration")
        t = target / rho
        if t * max(b) < 0.9:
            return t, q
        b = [0.5 * b_i for b_i in b]
    raise NumericalFailure("failed to calibrate instance magnitude")


def _pinned_block(rng: np.random.Generator, n: int, edge: float, reach: float) -> np.ndarray:
    """A T block: n eigenvalues drawn between edge and edge + reach, sorted, the one nearest edge set to edge."""
    d = np.sort(rng.uniform(*sorted((edge, edge + reach)), size=n))
    d[-1 if reach < 0.0 else 0] = edge
    return d


def _dense(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _instance_args(dim, seed, magnitude) -> tuple[int, int]:
    """(dim, seed) as ints once dim lies in [2, 64], seed >= 0 and magnitude in (0, 1); both builders check here."""
    dim = require_int("dim", dim, 2)
    if dim > 64:
        raise ValueError(f"dim must lie in [2, 64], got {dim!r}")
    seed = require_int("seed", seed, 0)
    if not 0.0 < magnitude < 1.0:
        raise ValueError("magnitude must lie in (0, 1)")
    return dim, seed


def gen_instance(
    dim: int,
    seed: int,
    kind: str = "none",
    gaps: tuple[tuple[float, float], ...] | None = None,
    magnitude: float = 0.6,
    n_gaps: int = 1,
    name: str | None = None,
) -> MatrixInstance:
    """Build one deterministic instance of a kind of _KINDS (its rows describe the kinds).

    gaps and n_gaps must keep their defaults unless the kind's row takes
    them; the block kinds need an even dim.
    """
    dim, seed = _instance_args(dim, seed, magnitude)
    if kind not in _KINDS:
        raise ValueError(f"unknown instance kind {kind!r}")
    generate, _, _, takes, *_ = _KINDS[kind]
    n_gaps = require_int("n_gaps", n_gaps, 1)
    if n_gaps != 1 and "n_gaps" not in takes:
        raise ValueError(f"{kind} instances take no gap count; n_gaps must be 1, got {n_gaps!r}")
    if gaps is not None and "gaps" not in takes:
        raise ValueError(f"{kind} instances place their own gaps; gaps must be None")
    parts = generate(kind, np.random.default_rng(seed), dim, seed, magnitude, gaps, n_gaps)
    return MatrixInstance(name or f"{kind}-{seed:08d}", kind, seed, *parts)


def _gen_plain(kind, rng, dim, seed, magnitude, gaps, n_gaps) -> tuple:
    gap_t = _auto_gaps(rng, n_gaps) if gaps is None else tuple(Gap(float(a), float(b)) for a, b in gaps)
    if any(left.beta > right.alpha for left, right in zip(gap_t, gap_t[1:])):
        raise ValueError("prescribed gaps overlap")
    inside = 0
    if kind == "symmetric":
        inside = int(rng.integers(0, 3))
        if 2 * len(gap_t) + inside > dim:
            inside = 0
    t_diag = _t_with_gaps(rng, dim - inside, gap_t)
    window = gap_t[0]
    if inside:
        mid = np.sort(rng.uniform(window.alpha + 0.15 * window.width,
                                  window.beta - 0.15 * window.width, size=inside))
        t_diag = np.sort(np.concatenate([t_diag, mid]))

    if kind == "probe":
        gap = gap_t[0]
        a = magnitude * gap.width / 2.0
        signs = np.where(t_diag >= gap.beta, 1.0, -1.0)
        signs[np.argmin(np.abs(t_diag - gap.alpha))] = 1.0
        signs[np.argmin(np.abs(t_diag - gap.beta))] = -1.0
        return t_diag, np.diag(a * signs).astype(complex), QuadBound(a, 0.0), gap_t, ()

    raw = _dense(rng, dim)
    if kind == "symmetric":
        raw = 0.5 * (raw + raw.conj().T)
        w_raw = np.linalg.eigvalsh(raw)
        w_lo, w_hi = float(w_raw[0]), float(w_raw[-1])

    def ratio(q: QuadBound) -> float:
        if kind != "symmetric":
            return _gap_ratio(q, gap_t)
        sa, sb = q.shift(window.alpha), q.shift(window.beta)
        # an almost-gap window (one holding `inside` eigenvalues of T) is
        # calibrated by its own shifts, true gaps by the gap condition
        own = (sa + sb) / window.width if inside else _gap_ratio(q, gap_t)
        return max(own, (w_hi + sb) / window.width, (sa - w_lo) / window.width, (w_hi - w_lo) / window.width)

    t, (q_raw,) = _calibrate(rng, 0.6, [(raw, t_diag)], ratio, magnitude)
    cert = (window, inside, NumRangeBounds(t * w_lo, t * w_hi)) if kind == "symmetric" else ()
    return t_diag, t * raw, QuadBound(t * q_raw.a, t * q_raw.b), gap_t if not inside else (), cert


def _two_block(rng, layout, blocks, edges, target, t_diag):
    """A = t * block(layout), where _calibrate over the two blocks makes t sqrt(s1 s2) = target.

    s_i = hypot(a_i, b_i edges[i]) is the shift of blocks[i].  Returns A,
    its QuadBound at b = 0.3, and the scaled block constants (a1, b1, a2, b2).
    """
    t, (q1, q2) = _calibrate(rng, 0.45, blocks, lambda q1, q2: math.sqrt(q1.shift(edges[0]) * q2.shift(edges[1])), target)
    a_mat = t * np.block(layout)
    return a_mat, QuadBound(_amin(a_mat, t_diag, 0.3), 0.3), (t * q1.a, t * q1.b, t * q2.a, t * q2.b)


def _offdiag_pair(rng, n, block1, block2, scale, magnitude):
    """offdiag's and even's T = diag(T11, T22), T_ii = _pinned_block(rng, n, *block_i), A = [[0, A12], [A21, 0]].

    A12 maps block-2 coordinates and is measured against T22 at its edge,
    A21 against T11 at its edge, both dense and calibrated by _two_block.
    Returns (T's diagonal, A, its QuadBound, OffDiagBounds).
    """
    t11 = _pinned_block(rng, n, *block1)
    t22 = _pinned_block(rng, n, *block2)
    t_diag = np.concatenate([t11, t22])
    raw12 = _dense(rng, n)
    raw21 = _dense(rng, n)
    zero = np.zeros_like(raw12)
    a_mat, quad, consts = _two_block(
        rng, [[zero, raw12], [raw21, zero]], [(raw12, t22), (raw21, t11)], (block2[0], block1[0]),
        magnitude * scale, t_diag,
    )
    return t_diag, a_mat, quad, OffDiagBounds(*consts)


def _half(kind: str, dim: int) -> int:
    """The order of each of the two equal blocks of a block kind."""
    if dim % 2:
        raise ValueError(f"{kind} instances need an even dimension")
    return dim // 2


def _gen_offdiag(kind, rng, dim, seed, magnitude, *_) -> tuple:
    n1 = _half(kind, dim)
    gap = Gap(-float(rng.uniform(0.5, 2.5)), float(rng.uniform(0.5, 2.5)))
    # block 1 sits below the gap, block 2 above
    t_diag, a_mat, quad, off = _offdiag_pair(rng, n1, (gap.alpha, -4.0), (gap.beta, 4.0), 0.5 * gap.width, magnitude)
    return t_diag, a_mat, quad, (gap,) if gap_condition(quad, gap) else (), (off, gap)


def _gen_even(kind, rng, dim, seed, magnitude, *_) -> tuple:
    n1 = _half(kind, dim)
    beta1 = float(rng.uniform(0.2, 2.0))
    beta2 = float(rng.uniform(0.2, 2.0))
    t_diag, a_mat, quad, off = _offdiag_pair(rng, n1, (beta1, 4.0), (beta2, 4.0), 0.5 * (beta1 + beta2), magnitude)
    return t_diag, a_mat, quad, (), (off, BlockMinima(beta1, beta2))


def _gen_odd(kind, rng, dim, seed, magnitude, *_) -> tuple:
    """T = diag(D, -D) with pair-coupled A = [[P, Q], [Q, P]].

    The swap involution commutes with A and anticommutes with T; in its
    eigenbasis T is off-diagonal with T12 = D and A is diag(P+Q, P-Q),
    which is the shape the symmetric-strip block theorem consumes.
    """
    n1 = _half(kind, dim)
    beta = float(rng.uniform(0.5, 2.0))
    d = _pinned_block(rng, n1, beta, 3.0)
    t_diag = np.concatenate([d, -d])
    raw_p = _dense(rng, n1)
    raw_q = _dense(rng, n1)
    a_mat, quad, consts = _two_block(
        rng, [[raw_p, raw_q], [raw_q, raw_p]], [(raw_p + raw_q, d), (raw_p - raw_q, d)], (beta, beta),
        magnitude * beta, t_diag,
    )
    gap = Gap(-beta, beta)
    return t_diag, a_mat, quad, (gap,) if gap_condition(quad, gap) else (), (DiagBounds(*consts), beta)


def gen_isolated_instance(
    dim: int, mult: int, seed: int, magnitude: float = 0.6, name: str | None = None
) -> MatrixInstance:
    """Instance with an isolated eigenvalue of exact multiplicity `mult`.

    Both neighbor conditions are calibrated to `magnitude`, so the
    counting strip is certified with room to spare.
    """
    dim, seed = _instance_args(dim, seed, magnitude)
    parts = _isolated_parts(np.random.default_rng(seed), dim, mult, magnitude)
    return MatrixInstance(name or f"isolated-{seed:08d}", "isolated", seed, *parts)


def _gen_isolated(kind, rng, dim, seed, magnitude, *_) -> tuple:
    """The isolated row: _isolated_parts at mult = 1 + seed % 3, at most dim - 2, as gen_isolated_instance builds it."""
    return _isolated_parts(rng, dim, min(1 + seed % 3, dim - 2), magnitude)


def _isolated_parts(rng, dim: int, mult, magnitude: float) -> tuple:
    """The generated fields of an isolated instance, its cluster of multiplicity mult at a uniform lam in [-1, 1]."""
    mult = require_int("mult", mult, 1)
    if mult > dim - 2:
        raise ValueError("need mult + 2 eigenvalues to isolate one cluster")
    lam = float(rng.uniform(-1.0, 1.0))
    alpha = lam - float(rng.uniform(1.5, 3.0))
    beta = lam + float(rng.uniform(1.5, 3.0))
    rest = dim - mult - 2
    n_lo = rest // 2
    below = rng.uniform(alpha - 4.0, alpha, size=n_lo)
    above = rng.uniform(beta, beta + 4.0, size=rest - n_lo)
    t_diag = np.sort(np.concatenate([[alpha, beta], [lam] * mult, below, above]))
    raw = _dense(rng, dim)
    gaps = (Gap(alpha, lam), Gap(lam, beta))
    t, (q_raw,) = _calibrate(rng, 0.6, [(raw, t_diag)], lambda q: _gap_ratio(q, gaps), magnitude)
    return t_diag, t * raw, QuadBound(t * q_raw.a, t * q_raw.b), gaps, (IsolatedEigSpec(lam, alpha, beta, mult),)


# ---------------------------------------------------------------------------
# verification


# Im z offsets of the in-strip z-grids, in units of the gap width
_NU = np.array([0.0, 0.05, -0.05, 0.7, -0.7, 5.0, -5.0])
# z-grid shape: _Z_RE real parts by _Z_IM imaginary parts (the first _Z_IM
# offsets of _NU in a strip, _Z_IM geometric steps off the real axis), kept
# _INSET (relative) inside the certified strips and outside the enclosure
_Z_RE = 15
_Z_IM = 7
_INSET = 1e-6
# tolerances: a location margin passes at >= -_REL_MARGIN, a resolvent norm
# may exceed its bound by the factor 1 + _RESOLVENT_TOL, a refined bound the
# plain one by 1 + _REFINED_TOL
_REL_MARGIN = 1e-9
_RESOLVENT_TOL = 1e-8
_REFINED_TOL = 1e-12


@dataclass(frozen=True)
class VerifyOptions:
    """Coupling samples and the mutation knob for one verify run.

    s_points >= 2 samples the coupling (s = 0 and s = 1 included); widen >= 0
    widens every claim of a location or counting check by that fraction, in
    _widen alone, so that a sound certificate should fail.  Grid shape and
    tolerances are the module constants above.
    """

    s_points: int = 11
    widen: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "s_points", require_int("s_points", self.s_points, 2))
        object.__setattr__(self, "widen", require_nonneg("widen", self.widen))


@dataclass(frozen=True)
class CheckResult:
    check: str
    margin: float
    passed: bool
    witness: str = ""
    note: str = ""


@dataclass(frozen=True)
class VerificationReport:
    instance: str
    quad: QuadBound
    s_points: int
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        # asdict rebuilds the QuadBound record, a tuple, which JSON would write as a list
        doc = {**asdict(self), "quad": self.quad._asdict()}
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _widen(claim: tuple, widen: float) -> tuple[float, float, float]:
    """The one place widen is applied: a claim's interval (lo, hi, x) of Re z, widened by that fraction.

    ("strip" or "count", lo, hi, x): width times 1 + widen about the center, unwidened its own ends, x kept;
    ("floor", f, m): (-inf, f'), f' = f + widen (m - f); ("half", c): (-c', c'), c' = c (1 + widen); x = max(1, |end|).
    """
    match claim:
        case ("floor", bound, least):
            f = bound + widen * (least - bound)
            return -math.inf, f, max(1.0, abs(f))
        case ("half", half_width):
            c = half_width * (1.0 + widen)
            return -c, c, max(1.0, c)
        case (_, lo, hi, x) if widen:
            center = 0.5 * (lo + hi)
            half = 0.5 * (hi - lo) * (1.0 + widen)
            return center - half, center + half, x
    return claim[1:]


def _judged(check: str, worst: tuple[float, str], tol: float, note: str = "") -> CheckResult:
    """Verdict on the worst (margin, witness): pass when margin >= -tol; failures keep the witness."""
    margin, witness = worst
    passed = margin >= -tol
    return CheckResult(check, margin, passed, witness if not passed else "", note)


def _check_location(check: str, eigs: np.ndarray, free, note: str = "", absent: str = "") -> CheckResult:
    """Eigenvalues along s against a claim's free intervals (lo, hi, scale) of Re z; none: a pass noted `absent`.

    Each margin is max(lo - Re z, Re z - hi) / scale; the witness is the first least, intervals in order.
    """
    if not free:
        return CheckResult(check, 0.0, True, note=absent)
    flat = eigs.ravel()
    re, worst = flat.real, (math.inf, "")
    for lo, hi, scale in free:
        worst = _first_worst(flat, np.maximum(lo - re, re - hi) / scale, worst)
    return _judged(check, worst, _REL_MARGIN, note)


def _check_eig_sanity(obs: _Observation) -> CheckResult:
    lam, (trace, sign, logabs) = obs.eigs[-1], obs.trace_slogdet
    err = abs(complex(np.sum(lam)) - trace) / max(1.0, abs(trace))
    if sign != 0 and float(np.abs(lam).min()) > 0.0:
        # compare log det = sum log lambda in the log domain; the phase
        # difference is only defined mod 2 pi
        diff = complex(np.sum(np.log(lam))) - complex(logabs, cmath.phase(complex(sign)))
        angle = (diff.imag + math.pi) % (2.0 * math.pi) - math.pi
        err = max(err, abs(complex(diff.real, angle)))
    return _judged("eig-sanity", (1e-9 - err, ""), 0.0, "trace and determinant identities")


def _check_hyperbola(inst, s_grid, eigs) -> CheckResult:
    a, b = s_grid[:, None] * inst.quad.a, s_grid[:, None] * inst.quad.b
    bound_sq = (a * a + b * b * eigs.real**2) / (1.0 - b * b)
    margin = (bound_sq - eigs.imag**2) / np.maximum(1.0, bound_sq)
    return _judged("hyperbola", _first_worst(eigs.ravel(), margin.ravel()), _REL_MARGIN)


# numpy frees the GIL in a batched svd or eigvals only past this many elements
# (matrices x order); a smaller call stalls every other lane, so none is split.
_GIL_FREE_SIZE = 500


def _usable_cpus() -> int:
    """CPUs in the process's affinity mask, else os.cpu_count()."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_lanes(work, batches: list) -> None:
    """work(batch) for every batch; each lane, the caller or a thread started for this call, takes the next batch.

    One lane per usable CPU, at most one per batch.  Once a lane raises (the
    caller's KeyboardInterrupt too) no lane takes another batch; every
    started lane is joined before the first exception is re-raised, so no
    thread outlives the call."""
    todo, lock, stop, errors = iter(batches), threading.Lock(), threading.Event(), []

    def lane() -> None:
        while True:
            with lock:
                batch = None if stop.is_set() else next(todo, None)
            if batch is None:
                return
            try:
                work(batch)
            except BaseException as exc:
                with lock:
                    errors.append(exc)
                    stop.set()

    lanes = [threading.Thread(target=lane, name="gapcert-lane") for _ in range(min(_usable_cpus(), len(batches)) - 1)]
    try:
        for t in lanes:
            t.start()
        lane()
    finally:
        stop.set()
        for t in lanes:
            if t.is_alive():
                t.join()  # a running lane finishes its batch
    if errors:
        raise errors[0]


def _exactly_hermitian(a: np.ndarray) -> bool:
    """Whether A == A^H entry for entry; then every T + s A is Hermitian too, T being real diagonal."""
    return bool(np.array_equal(a, a.conj().T))


def _sweep(insts, s_grid: np.ndarray) -> np.ndarray:
    """Eigenvalues of T + s A (complex) for every instance (all of one order) and s in s_grid.

    The stack of shape (len(insts) * s_grid.size, n, n) is built in place by
    the IEEE operations of T + s A.  The solver is chosen per instance:
    the matrices of an instance whose A is _exactly_hermitian go to
    eigvalsh, whose eigenvalues are real and ascending, with an error of
    a few n eps ||M||_2 (Weyl); the others go to eigvals.  Each solver
    takes all of its matrices in one call, so every eigenvalue is
    bit-identical to its solver's on T + s A alone, whatever the batch.
    eigvalsh reads one triangle only, so it never sees a matrix that is
    not exactly Hermitian.  Suite batches hold one solver's instances
    alone (_suite_batches); a mixed stack takes two calls.
    """
    k, n = s_grid.size, insts[0].dim
    stack = np.empty((len(insts) * k, n, n), dtype=complex)
    for i, inst in enumerate(insts):
        block = stack[i * k:(i + 1) * k]
        np.multiply(s_grid[:, None, None], inst.a_mat, out=block)
        block += inst.t_mat
    herm = np.repeat([_exactly_hermitian(inst.a_mat) for inst in insts], k)
    eigs = np.empty((len(insts) * k, n), dtype=complex)
    for solver, mine in ((np.linalg.eigvalsh, herm), (np.linalg.eigvals, ~herm)):
        if mine.all():
            eigs[...] = solver(stack)  # a suite batch: one solver, no copy of the stack
        elif mine.any():
            eigs[mine] = solver(stack[mine])
    return eigs.reshape(len(insts), k, n)


_EPS = float(np.finfo(float).eps)
# A point is pruned only when its upper bracket of norm/bound lies below its
# check's best lower bracket r by more than _TIE_ULPS * eps * (1 + r): far
# above the rounding of the judge's margin formula for any tolerance below 1.
_TIE_ULPS = 16.0


# An instance's bracket oracle takes at most _ROUNDS rounds, the last evaluating
# every point still live: later rounds would be small SVD calls holding the GIL.
_ROUNDS = 3


def _round_size(n: int, pending: int) -> int:
    """Points per oracle round of one order-n instance before its last: enough for a GIL-free SVD, at most a quarter of those pending.

    The quarter keeps a single round at small orders from evaluating most
    of a grid; the last round (_ROUNDS) takes every point still live.
    """
    return min(_GIL_FREE_SIZE // n + 1, pending // 4 + 1)


class _Brackets:
    """The oracle rounds of one instance M = T + A over its z-grids, each a (check, zs, bounds), one per check.

    Two proven lower brackets of sigma_min(M - z) prune points.  Weyl's
    bound that sigma_min(M - z) is 1-Lipschitz in z makes each exact
    sigma_min(M - z0) bracket every other point of every grid:
    sigma_min(M - z) >= sigma_min(M - z0) - |z - z0| - slack, the slack
    covering the SVD error.  The second one needs no SVD.  For a general
    M, Weyl's inequality for T + A, with T - z diagonal, gives
    sigma_min(M - z) >= dist(z, sigma(T)) - ||A||_2 - slack_t, where
    slack_t adds to slack the error of ||A||_2 and of the distance.  For
    an exactly Hermitian M (a_norm None, eigs its eigvalsh), M - z is
    normal, so sigma_min(M - z) = dist(z, sigma(M)); Weyl's inequality
    puts each computed eigenvalue within a few n eps max|eig| of its own,
    so the bracket is two-sided:
    |sigma_min(M - z) - dist(z, eigs)| <= slack_h, where slack_h adds
    8 n eps (max|eig| + max|z|) to slack.

    pick() gives each round's points: per check with pending points (its
    share of the _round_size quota), the unevaluated ones with the highest
    upper bracket of norm/bound under the first bracket alone, ties (as in
    the first round) going to the higher lower estimate
    1/(dist(z, eigs) bound); the last round (_ROUNDS) takes every point
    still live.  The second bracket prunes but never orders:
    ordering by it spent more SVDs than its pruning saved.  update() takes
    the round's norms.  A point whose upper bracket under both falls
    below its check's best lower bracket of norm/bound (see _TIE_ULPS) is
    pruned for good, and keeps that upper bracket as its norm.  Exact
    ratios are lower brackets, and for an exactly Hermitian M so is
    1/((dist(z, eigs) + slack_h) bound) at every point; a general M has
    no other.  The best lower bracket only rises and the upper brackets
    only tighten, so the judge finds the full grid's first worst point
    with the same margin whatever the round schedule.  records() gives
    each check's _Bounded record, the norms and upper brackets its values.
    """

    def __init__(self, m0: np.ndarray, t_diag: np.ndarray, a_norm: float | None, eigs: np.ndarray, grids) -> None:
        self.grids_in = grids
        sizes = [zs.size for _, zs, _ in grids]
        self.cuts = np.cumsum(sizes)[:-1]
        self.owner = np.repeat(np.arange(len(grids)), sizes)  # each point's grid, so its check
        self.m0, n = m0, m0.shape[0]
        zs = self.zs = np.concatenate([zs for _, zs, _ in grids])
        bounds = self.bounds = np.concatenate([bounds for _, _, bounds in grids])
        self.slack = 8.0 * n * _EPS * (float(np.linalg.norm(m0)) + float(np.abs(zs).max()))
        dist = np.abs(zs[:, None] - eigs[None, :]).min(axis=1)
        self.best = np.zeros(len(grids))  # per check, its best lower bracket of norm/bound
        with np.errstate(divide="ignore"):
            self.hint = 1.0 / (dist * bounds)
            if a_norm is None:
                slack_h = self.slack + 8.0 * n * _EPS * (float(np.abs(eigs).max()) + float(np.abs(zs).max()))
                self.fixed = dist - slack_h
                np.maximum.at(self.best, self.owner, 1.0 / ((dist + slack_h) * bounds))
            else:
                slack_t = self.slack + 8.0 * n * _EPS * (a_norm + float(np.abs(t_diag).max()))
                self.fixed = np.abs(zs[:, None] - t_diag[None, :]).min(axis=1) - a_norm - slack_t
        self.norms = np.full(zs.size, np.inf)
        self.exact = np.zeros(zs.size, dtype=bool)
        self.floor = np.full(zs.size, -np.inf)  # the first bracket's lower bracket of sigma_min(M - z)
        self.live = np.arange(zs.size)  # the points neither exact nor pruned, in grid order

    def pick(self, last: bool) -> np.ndarray:
        """Prune, then the points of the next round, every live one if `last`; none once every point is exact or pruned."""
        live, best = self.live, self.best
        floor, owner, bounds = self.floor[live], self.owner[live], self.bounds[live]
        lower = np.maximum(floor, self.fixed[live])
        with np.errstate(divide="ignore", over="ignore"):
            upper = np.where(lower > 0.0, 1.0 / lower, np.inf)
            ratio = np.where(floor > 0.0, 1.0 / floor, np.inf) / bounds
        keep = upper / bounds >= (best - _TIE_ULPS * _EPS * (1.0 + best))[owner]
        self.norms[live[~keep]] = upper[~keep]
        live, ratio, owner = live[keep], ratio[keep], owner[keep]
        self.live = live
        if last or not live.size:
            return live
        active = np.unique(owner)
        quota = -(-_round_size(self.m0.shape[0], live.size) // active.size)
        new = []
        for check in active:
            mine = np.flatnonzero(owner == check)
            new.append(live[mine[np.lexsort((-self.hint[live[mine]], -ratio[mine]))[:quota]]])
        return np.concatenate(new)

    def update(self, new: np.ndarray, norms: np.ndarray) -> None:
        """Take the exact norms at the points `new` of a round and raise the first bracket of the rest."""
        self.norms[new] = norms
        self.exact[new] = True
        np.maximum.at(self.best, self.owner[new], norms / self.bounds[new])
        rest = self.live = self.live[~self.exact[self.live]]
        if rest.size:
            reach = (1.0 / norms)[None, :] - np.abs(self.zs[rest, None] - self.zs[None, new])
            self.floor[rest] = np.maximum(self.floor[rest], reach.max(axis=1) - self.slack)

    def records(self) -> tuple[_Bounded, ...]:
        """Every grid's _Bounded record, once pick() found no point left."""
        splits = zip(self.grids_in, np.split(self.norms, self.cuts), np.split(self.exact, self.cuts))
        return tuple(_Bounded(check, *_read_only(zs, bounds, nrm, ex)) for (check, zs, bounds), nrm, ex in splits)


def _stacked_norms(asks) -> list[np.ndarray]:
    """||(m0 - z)^-1|| at every z of every (m0, zs) in asks (all of one order), in one SVD call.

    The stack is built in place by the IEEE operations of m0 - z, so each
    norm is its own matrix's.
    """
    sizes = [zs.size for _, zs in asks]
    n = asks[0][0].shape[0]
    stack, diag = np.empty((sum(sizes), n, n), dtype=complex), np.arange(n)
    for (m0, zs), at in zip(asks, np.cumsum([0, *sizes])):
        block = stack[at:at + zs.size]
        block[...] = m0
        block[:, diag, diag] -= zs[:, None]
    smin = np.linalg.svd(stack, compute_uv=False)[:, -1]
    return np.split(1.0 / np.maximum(smin, 1e-300), np.cumsum(sizes)[:-1])


def _bracket_rounds(brackets: list[_Brackets]) -> None:
    """Run the _ROUNDS rounds of every instance, each round one _stacked_norms call over all their picks.

    An instance leaves once its pick is empty, and the last round
    evaluates every point still live, so the k-th round of an instance is
    the same in a batch as alone.
    """
    for k in range(1, _ROUNDS + 1):
        asks = [(b, new) for b in brackets if (new := b.pick(last=k == _ROUNDS)).size]
        if not asks:
            return
        for (b, new), norms in zip(asks, _stacked_norms([(b.m0, b.zs[new]) for b, new in asks])):
            b.update(new, norms)
        brackets = [b for b, _ in asks]


def _zgrid(mu: np.ndarray, width: float) -> np.ndarray:
    nu = width * _NU[:_Z_IM]
    return (mu[:, None] + 1j * nu[None, :]).ravel()


@cache
def _grid_fractions(z_re: int, z_im: int, inset: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The z-grids' fixed steps for one grid shape, made once: off-real Im, strip Re, symmetric-gap Re."""
    return _read_only(
        np.geomspace(inset, 10.0, z_im),
        np.linspace(inset, 1.0 - inset, z_re),
        np.linspace(-(1.0 - inset), 1.0 - inset, z_re),
    )


def _offreal_zgrid(inst) -> np.ndarray:
    q = inst.quad
    r = 1.05 * float(np.abs(inst.t_diag).max()) + 1.0
    res = np.linspace(-r, r, _Z_RE)
    fracs = _grid_fractions(_Z_RE, _Z_IM, _INSET)[0]
    boundary = np.sqrt((q.a**2 + q.b**2 * res**2) / (1.0 - q.b**2))
    im = boundary[:, None] * (1.0 + fracs[None, :])
    # a degenerate boundary (a = 0 at re = 0) excludes every im > 0
    im = np.where(boundary[:, None] > 0.0, im, r * fracs[None, :])
    return (res[:, None] + 1j * im).ravel()


def _strip_zgrid(gap: Gap, strip: StripResult) -> np.ndarray:
    mu = strip.lo + (strip.hi - strip.lo) * _grid_fractions(_Z_RE, _Z_IM, _INSET)[1]
    return _zgrid(mu, gap.width)


def _symgap_zgrid(result: SymmetricGapResult, gap: Gap) -> np.ndarray:
    mu = result.beta_pert * _grid_fractions(_Z_RE, _Z_IM, _INSET)[2]
    return _zgrid(mu, gap.beta)


def _first_worst(zs, margins, worst=(math.inf, "")) -> tuple[float, str]:
    """(margin, witness) of the first least margin, unless `worst` is already lower."""
    k = int(np.argmin(margins))
    if margins[k] < worst[0]:
        worst = (float(margins[k]), repr(complex(zs[k])))
    return worst


def _check_bounded(check: str, bounded, tol: float, pass_tol: float, absent: str | None = None) -> CheckResult | None:
    """Values against bounds over the check's _Bounded record in `bounded`; none: a pass noted `absent`.

    A point's margin is (bound (1 + tol) - value) / bound, the witness the first least; it passes at >= -pass_tol.
    """
    record = next((r for r in bounded if r.check == check), None)
    if record is None:
        return None if absent is None else CheckResult(check, 0.0, True, note=absent)
    margins = (record.bounds * (1.0 + tol) - record.values) / record.bounds
    return _judged(check, _first_worst(record.zs, margins), pass_tol)


def _check_balls(inst, s_grid, eigs) -> CheckResult:
    worst = (math.inf, "")
    for gap in inst.gaps:
        for s, row in zip(s_grid, eigs):
            q = QuadBound(s * inst.quad.a, s * inst.quad.b)
            for disk in lower_semicont_balls(q, gap):
                dist = float(np.abs(row - disk.center).min())
                margin = (disk.radius - dist) / max(1.0, disk.radius)
                if margin < worst[0]:
                    worst = (margin, f"disk@{disk.center!r}")
    if math.isinf(worst[0]):
        return CheckResult("balls", 0.0, True, note="no gap data")
    return _judged("balls", worst, _REL_MARGIN)


def _check_count(check: str, eigs: np.ndarray, free) -> CheckResult:
    """Each row's eigenvalues with Re z in the one (lo, hi, count) of `free` against count; the first row farthest off."""
    ((lo, hi, mult),) = free
    counts = np.sum((eigs.real > lo) & (eigs.real < hi), axis=1)
    k = int(np.argmax(np.abs(counts - mult)))  # the first row farthest off
    off = abs(int(counts[k]) - mult)
    worst = (float(-off), f"count={counts[k]}" if off else "")
    return _judged(check, worst, _REL_MARGIN, f"expect {mult} in ({lo:.6g},{hi:.6g})")


def _check_numrange_windows(inst, eigs) -> CheckResult | None:
    """Eigenvalues of T + A in each applicable almost-gap window; None unless A is _exactly_hermitian."""
    if not _exactly_hermitian(inst.a_mat):
        return None
    re = eigs[-1].real
    applicable = []
    worst = (0.0, "")
    for case in ("i", "ii", "iii", "iv"):
        try:
            out = almost_gap_eig_bound(case, inst.quad, *inst.cert)
        except ConditionNotApplicable:
            continue
        applicable.append(case)
        count = int(np.sum((re > out.lo) & (re < out.hi)))
        excess = float(count - out.max_count)
        if -excess < worst[0]:
            worst = (-excess, f"case {case}: count={count}")
    if not applicable:
        return CheckResult("numrange-window", 0.0, True, note="no applicable case")
    return _judged("numrange-window", worst, _REL_MARGIN, "cases " + ",".join(applicable))


# The claim functions: widen-free data read off a certificate, tagged as _widen reads them.
def _strip_claim(gap: Gap, strip: StripResult) -> tuple:  # a strip over gap, scaled by max(1, |alpha|, |beta|)
    return ("strip", strip.lo, strip.hi, max(1.0, abs(gap.alpha), abs(gap.beta)))
def _offdiag_claims(inst):  # structured-offdiag: the perturbed strip over the generating gap
    return [_strip_claim(inst.cert[1], offdiag_gap(*inst.cert).strip)]
def _even_claims(inst):  # structured-even: Re z below the floor, which widens toward the least block minimum
    return [("floor", even_lowerbound(*inst.cert), min(inst.cert[1]))]
def _odd_claims(inst):  # structured-odd: |Re z| below the half-width of the symmetric gap
    return [("half", odd_symmetric_gap(*inst.cert))]
def _count_claims(inst):  # eig-count: the counting strip's ends and its count, the eigenvalue's multiplicity
    return [("count", *isolated_eigenvalue_strip(inst.quad, *inst.cert))]


def _check_own(check: str, claims, judge, inst, eigs, widen) -> CheckResult:
    """judge(check, eigs, free) on the _widen of each of claims(inst); a refusal passes, noted "not applicable"."""
    try:
        made = claims(inst)
    except ConditionNotApplicable:
        return CheckResult(check, 0.0, True, note="not applicable")
    return judge(check, eigs, [_widen(claim, widen) for claim in made])


# ---------------------------------------------------------------------------
# kinds


def _even_dim(rng, dim: int, dim_hi: int) -> tuple[int, int]:
    """An odd dim moves to its even neighbour, the upper one unless that exceeds dim_hi."""
    if dim % 2:
        dim = dim + 1 if dim + 1 <= dim_hi else dim - 1
    return dim, 1


# One row per instance kind.  generate(kind, rng, dim, seed, magnitude, gaps,
# n_gaps) returns its (t_diag, a_mat, quad, gaps, cert), drawn from
# rng = default_rng(seed), which gen_instance names; takes names the gap
# arguments it uses, and gen_instance refuses the others off their defaults.
# dim_rule(rng, dim, dim_hi) is the (dim, n_gaps) a suite builds it at from
# the dim drawn off the suite's rng, which it draws from only for n_gaps.
# check(inst, eigs) (None where it does not apply), or claims = (check, claim
# function, judge) for _check_own, the one that widen reaches, is its own
# check after the common ones.  hermitian says that the kind's A is exactly
# Hermitian (_exactly_hermitian), so that a suite batches it apart from the
# others and sweeps its batches by eigvalsh alone (_suite_batches).
_Kind = namedtuple("_Kind", "generate dim_rule check takes hermitian claims",
                   defaults=(lambda rng, dim, hi: (dim, 1), None, (), False, None))

# kind -> its row, with what MatrixInstance.cert holds
_KINDS = {
    "none": _Kind(_gen_plain, takes=("gaps",)),  # dense A over one gap; ()
    # Hermitian A, almost-gap window data; (window, eigenvalues of T inside it, NumRangeBounds of A)
    "symmetric": _Kind(_gen_plain, check=_check_numrange_windows, takes=("gaps",), hermitian=True),
    # A off-diagonal over a gap straddling 0; (OffDiagBounds, generating gap)
    "offdiag": _Kind(_gen_offdiag, _even_dim, claims=("structured-offdiag", _offdiag_claims, _check_location)),
    # T = diag(D, -D), pair-coupled A (see _gen_odd); (DiagBounds, beta of the gap (-beta, beta))
    "diag-blocks": _Kind(_gen_odd, _even_dim, claims=("structured-odd", _odd_claims, _check_location)),
    # nonnegative T, A off-diagonal; (OffDiagBounds, BlockMinima)
    "even": _Kind(_gen_even, _even_dim, claims=("structured-even", _even_claims, _check_location)),
    # tight real diagonal A, extreme eigenvalues on the strip's ends; ()
    "probe": _Kind(_gen_plain, takes=("gaps",), hermitian=True),
    # dense A over its gaps, 2 or 3 and dim 8 at least in a suite; ()
    "multi": _Kind(_gen_plain, lambda rng, dim, hi: (max(dim, 8), int(rng.integers(2, 4))), takes=("gaps", "n_gaps")),
    # an eigenvalue isolated by two gaps, dim 3 at least (see _gen_isolated); (IsolatedEigSpec,)
    "isolated": _Kind(_gen_isolated, lambda rng, dim, hi: (max(dim, 3), 1), claims=("eig-count", _count_claims, _check_count)),
}


# One bound-ratio check's data (see _Observation): its name, points, their
# bounds, the values judged against them and a mask of the exact values.
_Bounded = namedtuple("_Bounded", "check zs bounds values exact")


@dataclass(frozen=True, eq=False)
class _Observation:
    """What the linear algebra of one verification saw; every array is read-only.

    eigs[i] holds the eigenvalues of T + s_grid[i] A.  `strips` has one
    (gap, perturbed strip) per open strip, in gap order.  `bounded` has one
    _Bounded record per bound-ratio check that applies: resolvent-offreal
    unless b >= 1, resolvent-strip on the open strips' z-grids joined in
    gap order (bounds the lesser of plain and refined), resolvent-symgap
    for an open symmetric gap, each valued by ||(M - z)^-1||, M = T + A;
    then refined-le-plain on resolvent-strip's zs, its values the refined
    bounds, its bounds the plain ones, every point exact.  A resolvent
    value where not exact is the upper bracket, from the better of the two
    Weyl bounds of _Brackets, that proved its point cannot be the check's
    worst, never below the norm itself.
    """

    s_grid: np.ndarray
    eigs: np.ndarray
    trace_slogdet: tuple[complex, complex, float]
    strips: tuple
    bounded: tuple[_Bounded, ...]


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _s_grid(options: VerifyOptions) -> np.ndarray:
    return np.linspace(0.0, 1.0, options.s_points)


def _observe(inst: MatrixInstance, options: VerifyOptions) -> _Observation:
    """All the linear algebra of a verification and every certified bound it is judged against; no tolerance or widen."""
    return _observe_batch([inst], options)[0]


def _observe_batch(insts, options: VerifyOptions) -> list[_Observation]:
    """The _observe of every instance (all of one order), in one pass over the batch.

    One sweep of s (_sweep: eigvalsh for the exactly Hermitian instances,
    eigvals for the others), one SVD call gives the ||A||_2 of every
    instance that is not exactly Hermitian, and the bracket rounds of all
    instances share one SVD call per round.  An exactly Hermitian
    instance's brackets take its s = 1 eigvalsh row, and no ||A||_2.
    """
    s_grid = _s_grid(options)
    hermitian = [_exactly_hermitian(inst.a_mat) for inst in insts]
    general = [inst.a_mat for inst, h in zip(insts, hermitian) if not h]
    a_norms = iter(np.linalg.svd(np.stack(general), compute_uv=False)[:, 0].tolist() if general else ())
    parts = []
    for inst, eigs, h in zip(insts, _sweep(insts, s_grid), hermitian):
        a_norm = None if h else next(a_norms)
        m0 = inst.t_mat + inst.a_mat
        sign, logabs = np.linalg.slogdet(m0)
        strips, grids, records = _resolvent_grids(inst)
        b = _Brackets(m0, inst.t_diag, a_norm, eigs[-1], grids) if grids else None
        parts.append((eigs, (complex(np.trace(m0)), complex(sign), float(logabs)), strips, records, b))
    _bracket_rounds([b for *_, b in parts if b is not None])
    return [
        _Observation(*_read_only(s_grid, eigs), trace_slogdet, strips, (b.records() if b is not None else ()) + records)
        for eigs, trace_slogdet, strips, records, b in parts
    ]


def _resolvent_grids(inst: MatrixInstance) -> tuple[tuple, list, tuple]:
    """(strips, grids, records) of an _Observation of inst; each grid, a (check, zs, bounds), goes to _Brackets.

    One grid per check, in check order, the open strips' z-grids joined in
    gap order; records is () or the refined-le-plain _Bounded record.
    """
    q = inst.quad
    grids = []
    if q.b < 1.0:
        zs = _offreal_zgrid(inst)
        grids.append(("resolvent-offreal", zs, np.array(_offreal_bounds(q, zs.tolist()))))
    strips = tuple((g, strip) for g in inst.gaps if (strip := perturbed_strip(q, g)).open)
    records = ()
    if strips:
        per_gap = [(g, _strip_zgrid(g, strip)) for g, strip in strips]
        zs = np.concatenate([grid for _, grid in per_gap])
        pairs = [pair for g, grid in per_gap for pair in _strip_bound_pairs(q, g, grid.tolist())]
        plain, refined = (np.array(col) for col in zip(*pairs))
        grids.append(("resolvent-strip", zs, np.minimum(plain, refined)))
        records = (_Bounded("refined-le-plain", *_read_only(zs, plain, refined, np.ones(zs.size, dtype=bool))),)
    gap = next((g for g in inst.gaps if g.alpha == -g.beta), None)
    if gap is not None and (result := symmetric_gap_strip(q, gap.beta)).strip.open:
        zs = _symgap_zgrid(result, gap)
        grids.append(("resolvent-symgap", zs, np.array([result.resolvent_bound(z) for z in zs.tolist()])))
    return strips, grids, records


def _judge(inst: MatrixInstance, obs: _Observation, options: VerifyOptions) -> VerificationReport:
    """Every applicable check of `inst` under `options`, from the observation alone.

    Every instance gets the common checks, then resolvent-symgap and balls
    where they apply, then its kind's own check (its _KINDS row's).
    """
    s_grid, eigs, widen = obs.s_grid, obs.eigs, options.widen
    row, bounded = _KINDS[inst.kind], obs.bounded
    checks = (
        _check_eig_sanity(obs),
        _check_hyperbola(inst, s_grid, eigs),
        _check_location("strip", eigs, [_widen(_strip_claim(gap, strip), widen) for gap, strip in obs.strips],
                        " ".join(f"({gap.alpha:.3g},{gap.beta:.3g})" for gap, _ in obs.strips), "no certified strip"),
        _check_bounded("resolvent-offreal", bounded, _RESOLVENT_TOL, _REL_MARGIN, "not applicable: b >= 1"),
        _check_bounded("resolvent-strip", bounded, _RESOLVENT_TOL, _REL_MARGIN, "no certified strip"),
        _check_bounded("refined-le-plain", bounded, _REFINED_TOL, 0.0, "no certified strip"),
        _check_bounded("resolvent-symgap", bounded, _RESOLVENT_TOL, _REL_MARGIN),
        _check_balls(inst, s_grid, eigs) if inst.gaps and _exactly_hermitian(inst.a_mat) else None,
        row.check(inst, eigs) if row.check else _check_own(*row.claims, inst, eigs, widen) if row.claims else None,
    )
    checks = tuple(c for c in checks if c is not None)
    return VerificationReport(instance=inst.name, quad=inst.quad, s_points=options.s_points, checks=checks)


# (plan, (instance, observation) pairs in spec order) of the previous
# run_suite call, where plan = (specs, s_points, _Z_RE, _Z_IM, _INSET): a
# call with the same plan judges these instances on these observations.
# Every array in it is read-only; run_suite(500)'s store holds about 13 MB.
_previous_suite: tuple = (None, ())


def verify_instance(
    inst: MatrixInstance, options: VerifyOptions = VerifyOptions(), observation: _Observation | None = None
) -> VerificationReport:
    """Run every applicable soundness check; failures are entries, not raises.

    observation, when given, is what _observe(inst, options) returns; it is
    judged as is (the same report), and without it the instance is
    observed here first.  run_suite passes each instance the observation
    it made from its batched s-sweep, or the one its previous call made.
    """
    if observation is None:
        observation = _observe(inst, options)
    return _judge(inst, observation, options)


# ---------------------------------------------------------------------------
# suite


# suite -> (mix of (kind, share), default (dim_lo, dim_hi)); isolated
# starts at dim 6, so that even multiplicity 3 leaves T an eigenvalue
# beside the cluster and its two neighbours
_SUITES = {
    "standard": ((("none", 0.30), ("symmetric", 0.20), ("offdiag", 0.15), ("diag-blocks", 0.15),
                  ("even", 0.10), ("probe", 0.05), ("multi", 0.05)), (4, 40)),
    "isolated": ((("isolated", 1.0),), (6, 40)),
}


def standard_suite_specs(
    count: int = 500, dim_lo: int | None = None, dim_hi: int | None = None, seed: int = 20260822,
    suite: str = "standard",
) -> list[tuple[str, int, int, float, int]]:
    """Deterministic (kind, dim, seed, magnitude, n_gaps) plan for a suite of _SUITES.

    The kinds follow the suite's mix (shares rounded, padded with its
    first kind) in a random order.  Dimensions are drawn from [dim_lo,
    dim_hi], each the suite's own where None, which must lie in [2, 64];
    each kind's dim rule then gives its n_gaps and the dim it is built at,
    which can lie outside that range (see the _KINDS rows).
    """
    count = require_int("count", count, 1)
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; valid suites: {', '.join(_SUITES)}")
    mix, (suite_lo, suite_hi) = _SUITES[suite]
    dim_lo = require_int("dim_lo", suite_lo if dim_lo is None else dim_lo, 2)
    dim_hi = require_int("dim_hi", suite_hi if dim_hi is None else dim_hi, 2)
    if dim_hi > 64:
        raise ValueError(f"dim_hi must be at most 64, got {dim_hi!r}")
    if dim_lo > dim_hi:
        raise ValueError(f"dim_lo must not exceed dim_hi, got dim_lo={dim_lo!r}, dim_hi={dim_hi!r}")
    seed = require_int("seed", seed, 0)
    kinds = [kind for kind, frac in mix for _ in range(int(round(frac * count)))][:count]
    kinds += [mix[0][0]] * (count - len(kinds))
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(kinds))
    specs = []
    for i in order:
        kind = kinds[int(i)]
        dim, n_gaps = _KINDS[kind].dim_rule(rng, int(rng.integers(dim_lo, dim_hi + 1)), dim_hi)
        magnitude = float(rng.uniform(0.3, 0.95))
        specs.append((kind, dim, int(rng.integers(0, 2**31 - 1)), magnitude, n_gaps))
    return specs


@dataclass(frozen=True)
class SuiteResult:
    reports: tuple[VerificationReport, ...]
    elapsed: float

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.reports)

    def failures(self) -> list[tuple[str, CheckResult]]:
        return [(r.instance, c) for r in self.reports for c in r.checks if not c.passed]

    def to_csv(self) -> str:
        lines = ["instance,check,margin,pass"]
        for r in self.reports:
            for c in r.checks:
                lines.append(f"{r.instance},{c.check},{c.margin!r},{int(c.passed)}")
        return "\n".join(lines) + "\n"


def _suite_batches(specs, s_points: int) -> list[list[int]]:
    """Spec indices in batches of one order n and one sweep solver, general batches first, larger before smaller.

    The solver is eigvalsh for the kinds whose _KINDS row is hermitian and
    eigvals for the others, so each batch's sweep is one LAPACK call; a
    batch split by solver would be two.  A batch fills in spec order up to
    the fewest instances whose s-sweep exceeds _GIL_FREE_SIZE // n
    matrices, which numpy runs without the GIL.  The short last batch of
    an (order, solver), whose sweep would hold the GIL, joins that key's
    last full batch; a key with no full batch keeps it.  Lanes take the
    plan in order, so they end on the cheap eigvalsh batches.  The plan
    depends on the specs and s_points alone.
    """
    batches, waiting, last = [], {}, {}
    for idx, (kind, dim, *_) in enumerate(specs):
        key = (dim, _KINDS[kind].hermitian)
        batch = waiting.setdefault(key, [])
        batch.append(idx)
        if len(batch) * s_points > _GIL_FREE_SIZE // dim:
            last[key] = waiting.pop(key)
            batches.append(last[key])
    for key, short in waiting.items():
        if key in last:
            last[key].extend(short)
        else:
            batches.append(short)
    return sorted(batches, key=lambda batch: (_KINDS[specs[batch[0]][0]].hermitian, -len(batch)))


def _suite_instance(idx: int, spec) -> MatrixInstance:
    kind, dim, inst_seed, magnitude, n_gaps = spec
    return gen_instance(dim, inst_seed, kind=kind, magnitude=magnitude, n_gaps=n_gaps, name=f"{kind}-{idx:04d}")


def run_suite(
    count: int = 500,
    dim_lo: int | None = None,
    dim_hi: int | None = None,
    seed: int = 20260822,
    options: VerifyOptions = VerifyOptions(),
    suite: str = "standard",
) -> SuiteResult:
    """Generate and verify a suite of _SUITES (standard_suite_specs); reports keep spec order.

    Every suite takes this one path: a new kind (one generator, one check,
    one _KINDS row) in a suite of its own (one _SUITES row) gets the lanes,
    batches, reuse and CSV.  A call with the previous call's specs,
    s_points and grid constants judges that call's instances on its
    observations, on the calling thread, so a suite verified again under
    another widen generates no instance and does no new linear algebra.
    Any other call runs the _suite_batches on lanes (_run_lanes), and if an
    instance raises keeps the previous call's.
    """
    global _previous_suite
    t0 = time.perf_counter()
    specs = standard_suite_specs(count, dim_lo, dim_hi, seed, suite)
    plan = (tuple(specs), options.s_points, _Z_RE, _Z_IM, _INSET)
    previous_plan, observed = _previous_suite
    if previous_plan == plan:
        reports = [verify_instance(inst, options, obs) for inst, obs in observed]
    else:
        observed = [None] * len(specs)
        reports = [None] * len(specs)

        def observe(batch) -> None:
            insts = [_suite_instance(idx, specs[idx]) for idx in batch]
            for idx, inst, obs in zip(batch, insts, _observe_batch(insts, options)):
                _read_only(inst.t_diag, inst.a_mat)
                observed[idx] = (inst, obs)
                reports[idx] = verify_instance(inst, options, obs)

        _run_lanes(observe, _suite_batches(specs, options.s_points))
    _previous_suite = (plan, tuple(observed))
    return SuiteResult(tuple(reports), time.perf_counter() - t0)
