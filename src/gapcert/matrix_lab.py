"""Finite-dimensional oracle for every certified enclosure.

Instances pair a real diagonal T (gap endpoints placed in the spectrum
exactly) with a dense complex A whose relative-bound constants are
measured, never assumed: a_min(b)^2 = lambda_max(A*A - b^2 T^2).  A is
rescaled so the relevant certification condition holds with a prescribed
ratio, which keeps the soundness checks honest and non-vacuous.

verify_instance samples the coupling s in [0, 1] and a z-grid per
certified region and reports signed margins; failures become report
entries with witnesses, not exceptions.  It runs in two steps: _observe
does the linear algebra (eigenvalues along s, resolvent norms on the
z-grids) and computes every grid's certified bounds once, _judge turns
those arrays into checks under the module's tolerances and the options'
widen.  Each resolvent grid holds its check, its points, their bounds, a
mask of the points evaluated exactly, and at the other points a proven
upper bracket of the norm: the oracle prunes a point by Weyl's bound
sigma_min(M - z) >= sigma_min(M - z0) - |z - z0| once it provably cannot
be its check's worst, so reports equal those of a full-grid evaluation.
verify_instance observes only when it is given no observation, sweeping
a batch of one.  run_suite drives the standard mixed suite used by the
acceptance gate and hands verify_instance each observation: a call with
its previous call's specs, s_points and grid constants reuses that call's;
any other sweeps the coupling s in batches of instances of one order,
each batch one eigvals call split across the usable CPUs as the SVD
rounds are.

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
from dataclasses import asdict, dataclass

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
    resolvent_bound_offreal,
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

# kinds with a diagonal T placed around their gaps
_PLAIN_KINDS = ("none", "multi", "symmetric", "probe")
# kinds whose A couples two blocks of T = diag(T1, T2) of equal size
_BLOCK_KINDS = ("offdiag", "even", "diag-blocks")


@dataclass(frozen=True, eq=False)
class MatrixInstance:
    """One (T, A) pair with measured constants and certification targets.

    T is held as its diagonal; A is dense.  `kind` is the generation
    recipe and picks the checks; `cert` holds the arguments the kind's
    own certificate takes besides `quad`:

      isolated      (IsolatedEigSpec,)
      symmetric     (almost-gap window, eigenvalues of T inside it, NumRangeBounds of A)
      offdiag       (OffDiagBounds, generating gap)
      even          (OffDiagBounds, BlockMinima)
      diag-blocks   (DiagBounds, beta of the gap (-beta, beta))
      other kinds   ()
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


def _is_hermitian(a: np.ndarray) -> bool:
    return float(np.abs(a - a.conj().T).max()) <= 1e-14 * max(1.0, float(np.abs(a).max()))


# ---------------------------------------------------------------------------
# generation


def _gap_ratio(q: QuadBound, gap: Gap) -> float:
    return (q.shift(gap.alpha) + q.shift(gap.beta)) / gap.width


def _t_with_gaps(rng: np.random.Generator, dim: int, gaps: tuple[Gap, ...]) -> np.ndarray:
    """Diagonal attaining every gap endpoint, remaining entries off the gaps."""
    if 2 * len(gaps) > dim:
        raise ValueError("gaps not realizable: need two eigenvalues per gap")
    edges: list[float] = []
    for g in gaps:
        edges.extend((g.alpha, g.beta))
    lo = min(edges) - 4.0
    hi = max(edges) + 4.0
    bands = [(lo, gaps[0].alpha)]
    for left, right in zip(gaps, gaps[1:]):
        bands.append((left.beta, right.alpha))
    bands.append((gaps[-1].beta, hi))
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


def _calibrate(
    rng: np.random.Generator,
    raw: np.ndarray,
    t_diag: np.ndarray,
    ratio: "callable[[float, float], float]",
    magnitude: float,
) -> tuple[float, float, float]:
    """Find (t, a_raw, b_raw) with ratio(t*a_raw, t*b_raw) = magnitude, t*b_raw < 0.9.

    a_raw is the measured a_min(b_raw) of the unscaled perturbation raw against T.
    """
    b_raw = float(rng.uniform(0.05, 0.6))
    for _ in range(80):
        a_raw = _amin(raw, t_diag, b_raw)
        rho = ratio(a_raw, b_raw)
        if not (math.isfinite(rho) and rho > 0.0):
            raise NumericalFailure("degenerate certification ratio during calibration")
        t = magnitude / rho
        if t * b_raw < 0.9:
            return t, a_raw, b_raw
        b_raw *= 0.5
    raise NumericalFailure("failed to calibrate instance magnitude")


def _dense(rng: np.random.Generator, n: int, m: int | None = None) -> np.ndarray:
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def gen_instance(
    dim: int,
    seed: int,
    kind: str = "none",
    gaps: tuple[tuple[float, float], ...] | None = None,
    magnitude: float = 0.6,
    n_gaps: int = 1,
    name: str | None = None,
) -> MatrixInstance:
    """Build one deterministic instance of the requested recipe.

    Recipes: none (dense A), multi (dense A, several gaps), symmetric
    (Hermitian A, almost-gap window data), probe (tight diagonal A whose
    extreme eigenvalues land exactly on the strip boundary), offdiag
    (A off-diagonal over a gap straddling 0), even (nonnegative T,
    A off-diagonal), diag-blocks (T = diag(D, -D) with pair-coupled A,
    certifying a symmetric strip through the involution splitting).
    The three block recipes need an even dim and place their own gap.
    """
    if not 2 <= dim <= 64:
        raise ValueError("dim must lie in [2, 64]")
    if not 0.0 < magnitude < 1.0:
        raise ValueError("magnitude must lie in (0, 1)")
    if kind not in _PLAIN_KINDS + _BLOCK_KINDS:
        raise ValueError(f"unknown instance kind {kind!r}")
    n_gaps = require_int("n_gaps", n_gaps, 1)
    if n_gaps != 1 and kind != "multi":
        raise ValueError(f"{kind} instances have one gap; n_gaps must be 1, got {n_gaps!r}")
    rng = np.random.default_rng(seed)
    name = name or f"{kind}-{seed:08d}"
    if kind in _PLAIN_KINDS:
        return _gen_plain(rng, dim, seed, kind, gaps, magnitude, n_gaps, name)
    if dim % 2:
        raise ValueError(f"{kind} instances need an even dimension")
    if gaps is not None:
        raise ValueError(f"{kind} instances place their own gap; gaps must be None")
    gen = {"offdiag": _gen_offdiag, "even": _gen_even, "diag-blocks": _gen_odd}[kind]
    return gen(rng, dim, seed, magnitude, name)


def _gen_plain(rng, dim, seed, kind, gaps, magnitude, n_gaps, name) -> MatrixInstance:
    if gaps is not None:
        gap_t = tuple(Gap(float(a), float(b)) for a, b in gaps)
        for left, right in zip(gap_t, gap_t[1:]):
            if left.beta > right.alpha:
                raise ValueError("prescribed gaps overlap")
    else:
        gap_t = _auto_gaps(rng, n_gaps)
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
        return MatrixInstance(
            name=name, kind=kind, seed=seed,
            t_diag=t_diag, a_mat=np.diag(a * signs).astype(complex),
            quad=QuadBound(a, 0.0), gaps=gap_t,
        )

    raw = _dense(rng, dim)
    if kind == "symmetric":
        raw = 0.5 * (raw + raw.conj().T)
        w_raw = np.linalg.eigvalsh(raw)
        w_lo, w_hi = float(w_raw[0]), float(w_raw[-1])

    def ratio(a_min: float, b: float) -> float:
        q = QuadBound(a_min, b)
        # certified gaps: true gaps only (the almost-gap window carries
        # `inside` eigenvalues of T and is calibrated separately below)
        rho = max(_gap_ratio(q, g) for g in gap_t) if not inside else 0.0
        if kind == "symmetric":
            sa, sb = q.shift(window.alpha), q.shift(window.beta)
            rho = max(
                rho,
                (w_hi + sb) / window.width,
                (sa - w_lo) / window.width,
                (w_hi - w_lo) / window.width,
            )
            if inside:
                rho = max(rho, (sa + sb) / window.width)
        return rho

    t, a_raw, b_raw = _calibrate(rng, raw, t_diag, ratio, magnitude)
    cert = (window, inside, NumRangeBounds(t * w_lo, t * w_hi)) if kind == "symmetric" else ()
    return MatrixInstance(
        name=name, kind=kind, seed=seed, t_diag=t_diag, a_mat=t * raw,
        quad=QuadBound(t * a_raw, t * b_raw), gaps=gap_t if not inside else (), cert=cert,
    )


def _calibrate_pair(rng, layout, blocks, scale, magnitude, t_diag):
    """Scale t so that t sqrt(s1 s2) = magnitude * scale with t * max(b1, b2) < 0.9.

    Block i is (raw, T block, edge) with shift s_i = hypot(a_i, b_i edge_i).
    Returns A = t * block(layout), its QuadBound at b = 0.3, and the scaled
    block constants (a1, b1, a2, b2).
    """
    b1 = float(rng.uniform(0.05, 0.45))
    b2 = float(rng.uniform(0.05, 0.45))
    (raw1, t1, edge1), (raw2, t2, edge2) = blocks
    for _ in range(80):
        a1 = _amin(raw1, t1, b1)
        a2 = _amin(raw2, t2, b2)
        s1 = math.hypot(a1, b1 * edge1)
        s2 = math.hypot(a2, b2 * edge2)
        t = magnitude * scale / math.sqrt(s1 * s2)
        if t * max(b1, b2) < 0.9:
            break
        b1 *= 0.5
        b2 *= 0.5
    else:
        raise NumericalFailure("failed to calibrate two-block instance")
    a_mat = t * np.block(layout)
    return a_mat, QuadBound(_amin(a_mat, t_diag, 0.3), 0.3), (t * a1, t * b1, t * a2, t * b2)


def _gen_offdiag(rng, dim, seed, magnitude, name) -> MatrixInstance:
    n1 = dim // 2
    gap = Gap(-float(rng.uniform(0.5, 2.5)), float(rng.uniform(0.5, 2.5)))
    # block 1 sits below the gap, block 2 above; A12 maps block-2
    # coordinates and is measured against T22, A21 against T11
    t1 = np.sort(rng.uniform(gap.alpha - 4.0, gap.alpha, size=n1))
    t1[-1] = gap.alpha
    t2 = np.sort(rng.uniform(gap.beta, gap.beta + 4.0, size=n1))
    t2[0] = gap.beta
    t_diag = np.concatenate([t1, t2])
    raw12 = _dense(rng, n1)
    raw21 = _dense(rng, n1)
    zero = np.zeros_like(raw12)
    a_mat, quad, consts = _calibrate_pair(
        rng, [[zero, raw12], [raw21, zero]], ((raw12, t2, gap.beta), (raw21, t1, gap.alpha)),
        0.5 * gap.width, magnitude, t_diag,
    )
    return MatrixInstance(
        name=name, kind="offdiag", seed=seed, t_diag=t_diag, a_mat=a_mat, quad=quad,
        gaps=(gap,) if gap_condition(quad, gap) else (),
        cert=(OffDiagBounds(*consts), gap),
    )


def _gen_even(rng, dim, seed, magnitude, name) -> MatrixInstance:
    n1 = dim // 2
    beta1 = float(rng.uniform(0.2, 2.0))
    beta2 = float(rng.uniform(0.2, 2.0))
    d1 = np.sort(rng.uniform(beta1, beta1 + 4.0, size=n1))
    d1[0] = beta1
    d2 = np.sort(rng.uniform(beta2, beta2 + 4.0, size=n1))
    d2[0] = beta2
    t_diag = np.concatenate([d1, d2])
    raw12 = _dense(rng, n1)
    raw21 = _dense(rng, n1)
    zero = np.zeros_like(raw12)
    a_mat, quad, consts = _calibrate_pair(
        rng, [[zero, raw12], [raw21, zero]], ((raw12, d2, beta2), (raw21, d1, beta1)),
        0.5 * (beta1 + beta2), magnitude, t_diag,
    )
    return MatrixInstance(
        name=name, kind="even", seed=seed, t_diag=t_diag, a_mat=a_mat, quad=quad,
        cert=(OffDiagBounds(*consts), BlockMinima(beta1, beta2)),
    )


def _gen_odd(rng, dim, seed, magnitude, name) -> MatrixInstance:
    """T = diag(D, -D) with pair-coupled A = [[P, Q], [Q, P]].

    The swap involution commutes with A and anticommutes with T; in its
    eigenbasis T is off-diagonal with T12 = D and A is diag(P+Q, P-Q),
    which is the shape the symmetric-strip block theorem consumes.
    """
    n1 = dim // 2
    beta = float(rng.uniform(0.5, 2.0))
    d = np.sort(rng.uniform(beta, beta + 3.0, size=n1))
    d[0] = beta
    t_diag = np.concatenate([d, -d])
    raw_p = _dense(rng, n1)
    raw_q = _dense(rng, n1)
    a_mat, quad, consts = _calibrate_pair(
        rng, [[raw_p, raw_q], [raw_q, raw_p]], ((raw_p + raw_q, d, beta), (raw_p - raw_q, d, beta)),
        beta, magnitude, t_diag,
    )
    gap = Gap(-beta, beta)
    return MatrixInstance(
        name=name, kind="diag-blocks", seed=seed, t_diag=t_diag, a_mat=a_mat, quad=quad,
        gaps=(gap,) if gap_condition(quad, gap) else (),
        cert=(DiagBounds(*consts), beta),
    )


def gen_isolated_instance(
    dim: int, mult: int, seed: int, magnitude: float = 0.6, name: str | None = None
) -> MatrixInstance:
    """Instance with an isolated eigenvalue of exact multiplicity `mult`.

    Both neighbor conditions are calibrated to `magnitude`, so the
    counting strip is certified with room to spare.
    """
    if not 1 <= mult <= dim - 2:
        raise ValueError("need mult + 2 eigenvalues to isolate one cluster")
    rng = np.random.default_rng(seed)
    lam = float(rng.uniform(-1.0, 1.0))
    alpha = lam - float(rng.uniform(1.5, 3.0))
    beta = lam + float(rng.uniform(1.5, 3.0))
    rest = dim - mult - 2
    n_lo = rest // 2
    below = rng.uniform(alpha - 4.0, alpha, size=n_lo)
    above = rng.uniform(beta, beta + 4.0, size=rest - n_lo)
    t_diag = np.sort(np.concatenate([[alpha, beta], [lam] * mult, below, above]))
    raw = _dense(rng, dim)

    def ratio(a_min: float, b: float) -> float:
        q = QuadBound(a_min, b)
        return max(
            (q.shift(alpha) + q.shift(lam)) / (lam - alpha),
            (q.shift(lam) + q.shift(beta)) / (beta - lam),
        )

    t, a_raw, b_raw = _calibrate(rng, raw, t_diag, ratio, magnitude)
    return MatrixInstance(
        name=name or f"isolated-{seed:08d}", kind="isolated", seed=seed,
        t_diag=t_diag, a_mat=t * raw, quad=QuadBound(t * a_raw, t * b_raw),
        gaps=(Gap(alpha, lam), Gap(lam, beta)),
        cert=(IsolatedEigSpec(lam, alpha, beta, mult),),
    )


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
    widens every claimed strip and floor by that fraction, so that a sound
    certificate should fail.  Grid shape and tolerances are the module
    constants above.
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
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))


def _widened(strip: StripResult, widen: float) -> tuple[float, float]:
    """The strip's ends, its width scaled by 1 + widen about its center; unwidened, the certificate's own."""
    if not widen:
        return strip.lo, strip.hi
    center = 0.5 * (strip.lo + strip.hi)
    half = 0.5 * (strip.hi - strip.lo) * (1.0 + widen)
    return center - half, center + half


def _judged(check: str, worst: tuple[float, str], tol: float, note: str = "") -> CheckResult:
    """Verdict on the worst (margin, witness): pass when margin >= -tol; failures keep the witness."""
    margin, witness = worst
    passed = margin >= -tol
    return CheckResult(check, margin, passed, witness if not passed else "", note)


def _strip_margin(
    eigs: np.ndarray, lo: float, hi: float, scale: float, worst=(math.inf, "")
) -> tuple[float, str]:
    """(margin, witness) of the eigenvalue least outside lo < Re z < hi, unless `worst` is already lower."""
    re = eigs.real.ravel()
    return _first_worst(eigs.ravel(), np.maximum(lo - re, re - hi) / scale, worst)


def _floor_margin(values: np.ndarray, claimed: float, scale: float, eigs: np.ndarray) -> tuple[float, str]:
    """Margin of the least of `values` (one per eigenvalue) above a claimed floor."""
    k = int(np.argmin(values))
    return (float(values[k]) - claimed) / scale, repr(complex(eigs.ravel()[k]))


def _check_eig_sanity(obs: _Observation) -> CheckResult:
    top, (trace, sign, logabs) = obs.eigs[-1], obs.trace_slogdet
    tol = 1e-9
    err = abs(complex(np.sum(top)) - trace) / max(1.0, abs(trace))
    lam = top.astype(complex)
    if sign != 0 and float(np.abs(lam).min()) > 0.0:
        # compare log det = sum log lambda in the log domain; the phase
        # difference is only defined mod 2 pi
        diff = complex(np.sum(np.log(lam))) - complex(logabs, cmath.phase(complex(sign)))
        angle = (diff.imag + math.pi) % (2.0 * math.pi) - math.pi
        err = max(err, abs(complex(diff.real, angle)))
    return _judged("eig-sanity", (tol - err, ""), 0.0, "trace and determinant identities")


def _check_hyperbola(inst, s_grid, eigs) -> CheckResult:
    a, b = s_grid[:, None] * inst.quad.a, s_grid[:, None] * inst.quad.b
    bound_sq = (a * a + b * b * eigs.real**2) / (1.0 - b * b)
    margin = (bound_sq - eigs.imag**2) / np.maximum(1.0, bound_sq)
    return _judged("hyperbola", _first_worst(eigs.ravel(), margin.ravel()), _REL_MARGIN)


def _check_strips(strips, eigs, widen) -> CheckResult:
    """Eigenvalues along s against every open (gap, perturbed strip) pair."""
    if not strips:
        return CheckResult("strip", 0.0, True, note="no certified strip")
    worst = (math.inf, "")
    for gap, strip, *_ in strips:
        lo, hi = _widened(strip, widen)
        worst = _strip_margin(eigs, lo, hi, max(1.0, abs(gap.alpha), abs(gap.beta)), worst)
    notes = " ".join(f"({gap.alpha:.3g},{gap.beta:.3g})" for gap, *_ in strips)
    return _judged("strip", worst, _REL_MARGIN, notes)


# numpy runs a gufunc loop without the GIL only when the loop covers more
# than 500 elements (batch length x order n for a batched svd or eigvals);
# a smaller part of a split batch would hold the GIL and serialize the
# split.  For the 105-matrix z-grids this splits in two from n = 10 on.
# One instance's s-sweep (11 matrices) never reaches it for n <= 40, so
# run_suite sweeps instances of one order in batches of _gil_free_batch
# matrices.
_GIL_FREE_SIZE = 500

# (thread pool or None, usable CPUs), made when the first batch is sized or
# split, SVD or eigvals alike; one per process, since the CPUs are the
# process's
_svd_pool = None
_svd_pool_lock = threading.Lock()


def _drop_svd_pool() -> None:
    # a forked child inherits the pool object but none of its threads
    global _svd_pool, _svd_pool_lock
    _svd_pool, _svd_pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_svd_pool)


def _svd_workers():
    global _svd_pool
    with _svd_pool_lock:
        if _svd_pool is None:
            if hasattr(os, "sched_getaffinity"):
                cpus = len(os.sched_getaffinity(0))
            else:
                cpus = os.cpu_count() or 1
            pool = None
            if cpus > 1:
                from concurrent.futures import ThreadPoolExecutor

                pool = ThreadPoolExecutor(cpus - 1, thread_name_prefix="gapcert-svd")
            _svd_pool = (pool, cpus)
        return _svd_pool


def _gil_free_batch(n: int) -> int:
    """The least number of order-n matrices _split_batch gives every usable CPU a GIL-free part of."""
    _, cpus = _svd_workers()
    return max(2, cpus) * (_GIL_FREE_SIZE // n + 1)


def _split_batch(lapack, stack: np.ndarray) -> np.ndarray:
    """lapack(stack), one result per matrix, large stacks split across the usable CPUs.

    The calling thread computes the first part and gathers the others in
    order; each matrix goes through the same LAPACK call either way, so
    the result is bit-identical to one serial batch.
    """
    min_part = _GIL_FREE_SIZE // stack.shape[-1] + 1
    parts = stack.shape[0] // min_part
    if parts > 1:
        pool, cpus = _svd_workers()
        if pool is not None:
            chunks = np.array_split(stack, min(parts, cpus))
            futures = [pool.submit(lapack, c) for c in chunks[1:]]
            try:
                first = lapack(chunks[0])
            finally:
                rest = [f.result() for f in futures]
            return np.concatenate([first, *rest])
    return lapack(stack)


def _smallest_singular_values(stack: np.ndarray) -> np.ndarray:
    return np.linalg.svd(stack, compute_uv=False)[:, -1]


def _batch_resolvent_norms(m0: np.ndarray, zs: np.ndarray) -> np.ndarray:
    n = m0.shape[0]
    shifted = np.repeat(m0[None, :, :], zs.size, axis=0)
    diag = np.arange(n)
    shifted[:, diag, diag] -= zs[:, None]
    smin = _split_batch(_smallest_singular_values, shifted)
    return 1.0 / np.maximum(smin, 1e-300)


def _sweep(insts, s_grid: np.ndarray) -> np.ndarray:
    """Eigenvalues of T + s A for every instance (all of one order) and s in s_grid.

    One eigvals batch of shape (len(insts), s_grid.size, n), split as the
    SVD rounds are.  The stack is built in place by the IEEE operations of
    T + s A, so every eigenvalue is bit-identical to eigvals(T + s A).
    """
    k = s_grid.size
    stack = np.empty((len(insts) * k, insts[0].dim, insts[0].dim), dtype=complex)
    for i, inst in enumerate(insts):
        block = stack[i * k:(i + 1) * k]
        np.multiply(s_grid[:, None, None], inst.a_mat, out=block)
        block += inst.t_mat
    return _split_batch(np.linalg.eigvals, stack).reshape(len(insts), k, -1)


_EPS = float(np.finfo(float).eps)
# A point is pruned only when its upper bracket of norm/bound lies below its
# check's best exact ratio r by more than _TIE_ULPS * eps * (1 + r): far
# above the rounding of the judge's margin formula for any tolerance below 1.
_TIE_ULPS = 16.0


def _round_size(n: int, pending: int) -> int:
    """Points per oracle round at order n with `pending` points unresolved.

    The least batch the split gives every usable CPU a GIL-free part of,
    but at most a quarter of the pending points, so that at small orders no
    single round evaluates most of a grid.
    """
    return min(_gil_free_batch(n), pending // 4 + 1)


def _bracketed_grids(m0: np.ndarray, eigs: np.ndarray, grids) -> tuple[_Grid, ...]:
    """The _Grid of every (check, zs, bounds), its norms exact only where a point could be its check's worst.

    sigma_min(M - z) is 1-Lipschitz in z (Weyl), so each exact
    sigma_min(M - z0) brackets every other point of every grid:
    sigma_min(M - z) >= sigma_min(M - z0) - |z - z0| - slack, the slack
    covering the SVD error.  Each round takes, per check, the unevaluated
    points with the highest upper bracket of norm/bound, ties (as in the
    first round) going to the higher lower estimate 1/(dist(z, eigs) bound),
    and evaluates them in one batch.  Points whose upper bracket falls below
    their check's best exact ratio (see _TIE_ULPS) are pruned and keep that
    upper bracket as their norm, so the judge finds the full grid's first
    worst point with the same margin whatever the round schedule.
    """
    checks = [check for check, _, _ in grids]
    sizes = [zs.size for _, zs, _ in grids]
    # the grids of one check are adjacent: owner numbers the checks in order
    firsts = [i == 0 or check != checks[i - 1] for i, check in enumerate(checks)]
    owner = np.repeat(np.cumsum(firsts) - 1, sizes)
    starts = np.flatnonzero(np.diff(owner, prepend=-1))
    zs = np.concatenate([zs for _, zs, _ in grids])
    bounds = np.concatenate([bounds for _, _, bounds in grids])
    n = m0.shape[0]
    slack = 8.0 * n * _EPS * (float(np.linalg.norm(m0)) + float(np.abs(zs).max()))
    with np.errstate(divide="ignore"):
        hint = 1.0 / (np.abs(zs[:, None] - eigs[None, :]).min(axis=1) * bounds)
    norms = np.full(zs.size, np.inf)
    exact = np.zeros(zs.size, dtype=bool)
    floor = np.full(zs.size, -np.inf)  # proven lower bracket of sigma_min(M - z)
    while True:
        with np.errstate(divide="ignore", over="ignore"):
            upper = np.where(floor > 0.0, 1.0 / floor, np.inf)
        ratio = np.where(exact, norms, upper) / bounds
        best = np.maximum.reduceat(np.where(exact, ratio, 0.0), starts)
        pending = ~exact & (ratio >= (best - _TIE_ULPS * _EPS * (1.0 + best))[owner])
        if not pending.any():
            break
        active = np.unique(owner[pending])
        quota = -(-_round_size(n, int(pending.sum())) // active.size)
        new = []
        for check in active:
            idx = np.flatnonzero(pending & (owner == check))
            new.append(idx[np.lexsort((-hint[idx], -ratio[idx]))[:quota]])
        new = np.concatenate(new)
        norms[new] = _batch_resolvent_norms(m0, zs[new])
        exact[new] = True
        rest = np.flatnonzero(~exact)
        if rest.size:
            reach = (1.0 / norms[new])[None, :] - np.abs(zs[rest, None] - zs[None, new])
            floor[rest] = np.maximum(floor[rest], reach.max(axis=1) - slack)
    norms = np.where(exact, norms, upper)
    cuts = np.cumsum(sizes)[:-1]
    return tuple(
        _Grid(check, *_read_only(zs, bounds, nrm, ex))
        for (check, zs, bounds), nrm, ex in zip(grids, np.split(norms, cuts), np.split(exact, cuts))
    )


def _zgrid(mu: np.ndarray, width: float) -> np.ndarray:
    nu = width * _NU[:_Z_IM]
    return (mu[:, None] + 1j * nu[None, :]).ravel()


def _offreal_zgrid(inst) -> np.ndarray:
    q = inst.quad
    r = 1.05 * float(np.abs(inst.t_diag).max()) + 1.0
    res = np.linspace(-r, r, _Z_RE)
    fracs = np.geomspace(_INSET, 10.0, _Z_IM)
    boundary = np.sqrt((q.a**2 + q.b**2 * res**2) / (1.0 - q.b**2))
    im = boundary[:, None] * (1.0 + fracs[None, :])
    # a degenerate boundary (a = 0 at re = 0) excludes every im > 0
    im = np.where(boundary[:, None] > 0.0, im, r * fracs[None, :])
    return (res[:, None] + 1j * im).ravel()


def _strip_zgrid(gap: Gap, strip: StripResult) -> np.ndarray:
    mu = strip.lo + (strip.hi - strip.lo) * np.linspace(_INSET, 1.0 - _INSET, _Z_RE)
    return _zgrid(mu, gap.width)


def _symgap_zgrid(result: SymmetricGapResult, gap: Gap) -> np.ndarray:
    mu = result.beta_pert * np.linspace(-(1.0 - _INSET), 1.0 - _INSET, _Z_RE)
    return _zgrid(mu, gap.beta)


def _first_worst(zs, margins, worst=(math.inf, "")) -> tuple[float, str]:
    """(margin, witness) of the first least margin, unless `worst` is already lower."""
    k = int(np.argmin(margins))
    if margins[k] < worst[0]:
        worst = (float(margins[k]), repr(complex(zs[k])))
    return worst


# resolvent check -> its outcome on an observation without a grid of it (None: no check)
_NO_GRID = {
    "resolvent-offreal": CheckResult("resolvent-offreal", 0.0, True, note="not applicable: b >= 1"),
    "resolvent-strip": CheckResult("resolvent-strip", 0.0, True, note="no certified strip"),
    "resolvent-symgap": None,
}


def _check_resolvent(check: str, grids) -> CheckResult | None:
    """Worst relative margin of the check's certified bounds over the oracle norms on its grids."""
    mine = [grid for grid in grids if grid.check == check]
    if not mine:
        return _NO_GRID[check]
    worst = (math.inf, "")
    for g in mine:
        worst = _first_worst(g.zs, (g.bounds * (1.0 + _RESOLVENT_TOL) - g.norms) / g.bounds, worst)
    return _judged(check, worst, _REL_MARGIN)


def _check_refined_le_plain(strips) -> CheckResult:
    """The refined strip bound against the plain one on every strip grid."""
    if not strips:
        return CheckResult("refined-le-plain", 0.0, True, note="no certified strip")
    worst = (math.inf, "")
    for _, _, zs, plain, refined in strips:
        worst = _first_worst(zs, (plain * (1.0 + _REFINED_TOL) - refined) / plain, worst)
    return _judged("refined-le-plain", worst, 0.0)


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


def _check_eig_count(inst, eigs, widen) -> CheckResult:
    (spec,) = inst.cert
    strip = isolated_eigenvalue_strip(inst.quad, spec)
    lo, hi = _widened(strip, widen)
    counts = np.sum((eigs.real > lo) & (eigs.real < hi), axis=1)
    k = int(np.argmax(np.abs(counts - spec.mult)))  # the first row farthest off
    off = abs(int(counts[k]) - spec.mult)
    worst = (float(-off), f"count={counts[k]}" if off else "")
    return _judged("eig-count", worst, _REL_MARGIN, f"expect {spec.mult} in ({lo:.6g},{hi:.6g})")


def _check_numrange_windows(inst, eigs_full) -> CheckResult:
    applicable = []
    worst = (0.0, "")
    for case in ("i", "ii", "iii", "iv"):
        try:
            out = almost_gap_eig_bound(case, inst.quad, *inst.cert)
        except ConditionNotApplicable:
            continue
        applicable.append(case)
        count = int(np.sum((eigs_full.real > out.lo) & (eigs_full.real < out.hi)))
        excess = float(count - out.max_count)
        if -excess < worst[0]:
            worst = (-excess, f"case {case}: count={count}")
    if not applicable:
        return CheckResult("numrange-window", 0.0, True, note="no applicable case")
    return _judged("numrange-window", worst, _REL_MARGIN, "cases " + ",".join(applicable))


def _offdiag_worst(eigs, off, gap, widen) -> tuple[float, str]:
    lo, hi = _widened(offdiag_gap(off, gap).strip, widen)
    return _strip_margin(eigs, lo, hi, max(1.0, abs(gap.alpha), abs(gap.beta)))


def _even_worst(eigs, off, minima, widen) -> tuple[float, str]:
    bound = even_lowerbound(off, minima)
    claimed = bound + widen * (min(minima.beta1, minima.beta2) - bound)
    flat = eigs.ravel()
    return _floor_margin(flat.real, claimed, max(1.0, abs(claimed)), flat)


def _odd_worst(eigs, diag, beta, widen) -> tuple[float, str]:
    claimed = odd_symmetric_gap(diag, beta) * (1.0 + widen)
    flat = eigs.ravel()
    return _floor_margin(np.abs(flat.real), claimed, max(1.0, claimed), flat)


# block kind -> (check, worst (margin, witness) of its block-structure bound)
_STRUCTURED = {
    "offdiag": ("structured-offdiag", _offdiag_worst),
    "even": ("structured-even", _even_worst),
    "diag-blocks": ("structured-odd", _odd_worst),
}


def _check_structured(inst, eigs, widen) -> CheckResult:
    check, worst_of = _STRUCTURED[inst.kind]
    try:
        worst = worst_of(eigs, *inst.cert, widen)
    except ConditionNotApplicable:
        return CheckResult(check, 0.0, True, note="not applicable")
    return _judged(check, worst, _REL_MARGIN)


@dataclass(frozen=True, eq=False)
class _Grid:
    """One resolvent z-grid of M = T + A for `check`; every array is read-only.

    bounds[i] is the check's certified bound at zs[i].  Where exact[i],
    norms[i] is the oracle's ||(M - zs[i])^-1||; elsewhere the oracle
    pruned zs[i] and norms[i] is the Weyl upper bracket that proved zs[i]
    cannot be the check's worst point, never below the norm itself.
    """

    check: str
    zs: np.ndarray
    bounds: np.ndarray
    norms: np.ndarray
    exact: np.ndarray


@dataclass(frozen=True, eq=False)
class _Observation:
    """What the linear algebra of one verification saw; every array is read-only.

    eigs[i] holds the eigenvalues of T + s_grid[i] A.  `strips` has one
    (gap, perturbed strip, zs, plain bounds, refined bounds) per open strip;
    `grids` holds every resolvent _Grid in check order: resolvent-offreal
    unless b >= 1, one resolvent-strip per open strip (same zs, bounds the
    lesser of plain and refined), resolvent-symgap for an open symmetric gap.
    """

    s_grid: np.ndarray
    eigs: np.ndarray
    trace_slogdet: tuple[complex, complex, float]
    strips: tuple
    grids: tuple[_Grid, ...]


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _s_grid(options: VerifyOptions) -> np.ndarray:
    return np.linspace(0.0, 1.0, options.s_points)


def _observe(inst: MatrixInstance, options: VerifyOptions, eigs: np.ndarray | None = None) -> _Observation:
    """All the linear algebra of a verification, and every certified bound it is judged against.

    eigs is the instance's row of a _sweep over _s_grid(options); without
    it the instance is swept alone.  Depends on no tolerance and not on
    widen.
    """
    s_grid = _s_grid(options)
    if eigs is None:
        eigs = _sweep([inst], s_grid)[0]
    m0 = inst.t_mat + inst.a_mat
    sign, logabs = np.linalg.slogdet(m0)

    q = inst.quad
    # (check, zs, bounds) per z-grid, in check order; the open strips share one check
    grids = []
    if q.b < 1.0:
        zs = _offreal_zgrid(inst)
        grids.append(("resolvent-offreal", zs, np.array([resolvent_bound_offreal(q, z) for z in zs])))
    strips = []
    for g in inst.gaps:
        if (strip := perturbed_strip(q, g)).open:
            zs = _strip_zgrid(g, strip)
            plain, refined = (np.array(col) for col in zip(*_strip_bound_pairs(q, g, strip, zs)))
            strips.append((g, strip, zs, *_read_only(plain, refined)))
            grids.append(("resolvent-strip", zs, np.minimum(plain, refined)))
    gap = next((g for g in inst.gaps if g.alpha == -g.beta), None)
    if gap is not None and (result := symmetric_gap_strip(q, gap.beta)).strip.open:
        zs = _symgap_zgrid(result, gap)
        grids.append(("resolvent-symgap", zs, np.array([result.resolvent_bound(z) for z in zs])))
    return _Observation(
        *_read_only(s_grid, eigs), (complex(np.trace(m0)), complex(sign), float(logabs)),
        tuple(strips), _bracketed_grids(m0, eigs[-1], grids) if grids else (),
    )


def _judge(inst: MatrixInstance, obs: _Observation, options: VerifyOptions) -> VerificationReport:
    """Every applicable check of `inst` under `options`, from the observation alone.

    Every instance gets the common checks; the kind alone adds its own
    certificate's check (eig-count, numrange-window or structured-*).
    """
    s_grid, eigs, widen = obs.s_grid, obs.eigs, options.widen
    checks: list[CheckResult] = [
        _check_eig_sanity(obs),
        _check_hyperbola(inst, s_grid, eigs),
        _check_strips(obs.strips, eigs, widen),
        _check_resolvent("resolvent-offreal", obs.grids),
        _check_resolvent("resolvent-strip", obs.grids),
        _check_refined_le_plain(obs.strips),
    ]
    hermitian = _is_hermitian(inst.a_mat)
    optional = [_check_resolvent("resolvent-symgap", obs.grids)]
    if hermitian and inst.gaps:
        optional.append(_check_balls(inst, s_grid, eigs))
    if inst.kind == "isolated":
        optional.append(_check_eig_count(inst, eigs, widen))
    elif inst.kind == "symmetric" and hermitian:
        optional.append(_check_numrange_windows(inst, eigs[-1]))
    elif inst.kind in _BLOCK_KINDS:
        optional.append(_check_structured(inst, eigs, widen))
    checks.extend(c for c in optional if c is not None)
    return VerificationReport(
        instance=inst.name, quad=inst.quad, s_points=options.s_points, checks=tuple(checks)
    )


# (plan, observations in spec order) of the previous run_suite call, where
# plan = (specs, s_points, _Z_RE, _Z_IM, _INSET): a call with the same plan
# regenerates the same instances and judges them on these observations.
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


_SUITE_MIX = (
    ("none", 0.30),
    ("symmetric", 0.20),
    ("offdiag", 0.15),
    ("diag-blocks", 0.15),
    ("even", 0.10),
    ("probe", 0.05),
    ("multi", 0.05),
)


def standard_suite_specs(
    count: int = 500, dim_lo: int = 4, dim_hi: int = 40, seed: int = 20260822
) -> list[tuple[str, int, int, float, int]]:
    """Deterministic (kind, dim, seed, magnitude, n_gaps) plan for the suite.

    Dimensions are drawn from [dim_lo, dim_hi], which must lie in [2, 64];
    a block kind drawn an odd dim moves to an even neighbour, and a multi
    instance to dim 8 at least.
    """
    dim_lo = require_int("dim_lo", dim_lo, 2)
    dim_hi = require_int("dim_hi", dim_hi, 2)
    if dim_hi > 64:
        raise ValueError(f"dim_hi must be at most 64, got {dim_hi!r}")
    if dim_lo > dim_hi:
        raise ValueError(f"dim_lo must not exceed dim_hi, got dim_lo={dim_lo!r}, dim_hi={dim_hi!r}")
    kinds: list[str] = []
    for kind, frac in _SUITE_MIX:
        kinds.extend([kind] * int(round(frac * count)))
    kinds = kinds[:count]
    while len(kinds) < count:
        kinds.append("none")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(kinds))
    specs = []
    for i in order:
        kind = kinds[int(i)]
        dim = int(rng.integers(dim_lo, dim_hi + 1))
        if kind in _BLOCK_KINDS and dim % 2:
            dim = dim + 1 if dim + 1 <= dim_hi else dim - 1
        n_gaps = 1
        if kind == "multi":
            dim = max(dim, 8)
            n_gaps = int(rng.integers(2, 4))
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


def run_suite(
    count: int = 500,
    dim_lo: int = 4,
    dim_hi: int = 40,
    seed: int = 20260822,
    options: VerifyOptions = VerifyOptions(),
) -> SuiteResult:
    """Generate and verify the standard mixed suite; reports keep spec order.

    A call with the previous call's specs, s_points and grid constants
    judges its instances on that call's observations, so a suite verified
    again under another widen does no new linear algebra.  Any other call
    observes every instance: instances wait, per order, until they fill
    one GIL-free eigvals batch (_gil_free_batch) for their s-sweep; the
    last batches of each order go at the end.
    """
    global _previous_suite
    require_int("count", count, 1)
    t0 = time.perf_counter()
    specs = standard_suite_specs(count, dim_lo, dim_hi, seed)
    s_grid = _s_grid(options)
    plan = (tuple(specs), options.s_points, _Z_RE, _Z_IM, _INSET)
    previous_plan, observations = _previous_suite
    reuse = previous_plan == plan
    if not reuse:
        observations = [None] * len(specs)
    reports: list[VerificationReport | None] = [None] * len(specs)
    waiting: dict[int, list] = {}  # order -> [(index, instance)] not yet swept

    def verify(batch) -> None:
        eigs = _sweep([inst for _, inst in batch], s_grid)
        for (idx, inst), inst_eigs in zip(batch, eigs):
            observations[idx] = _observe(inst, options, inst_eigs)
            reports[idx] = verify_instance(inst, options, observations[idx])

    for idx, (kind, dim, inst_seed, magnitude, n_gaps) in enumerate(specs):
        inst = gen_instance(
            dim, inst_seed, kind=kind, magnitude=magnitude, n_gaps=n_gaps,
            name=f"{kind}-{idx:04d}",
        )
        if reuse:
            reports[idx] = verify_instance(inst, options, observations[idx])
            continue
        batch = waiting.setdefault(inst.dim, [])
        batch.append((idx, inst))
        if len(batch) * s_grid.size >= _gil_free_batch(inst.dim):
            verify(waiting.pop(inst.dim))
    for batch in waiting.values():
        verify(batch)
    _previous_suite = (plan, tuple(observations))
    return SuiteResult(tuple(reports), time.perf_counter() - t0)
