"""Finite-dimensional oracle for every certified enclosure.

Instances pair a real diagonal T (gap endpoints placed in the spectrum
exactly) with a dense complex A whose relative-bound constants are
measured, never assumed: a_min(b)^2 = lambda_max(A*A - b^2 T^2).  A is
rescaled so the relevant certification condition holds with a prescribed
ratio, which keeps the soundness checks honest and non-vacuous.

verify_instance samples the coupling s in [0, 1] and a z-grid per
certified region and reports signed margins; failures become report
entries with witnesses, not exceptions.  run_suite drives the standard
mixed suite used by the acceptance gate.
"""

from __future__ import annotations

import cmath
import json
import math
import time
from dataclasses import dataclass

import numpy as np

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
    gap_condition,
    isolated_eigenvalue_strip,
    lower_semicont_balls,
    perturbed_strip,
    resolvent_bound_offreal,
    resolvent_bound_strip,
    resolvent_bound_strip_refined,
    symmetric_gap_strip,
)
from .errors import ConditionNotApplicable, NearSingular, NumericalFailure

__all__ = [
    "MatrixInstance",
    "VerifyOptions",
    "CheckResult",
    "VerificationReport",
    "SuiteResult",
    "gen_instance",
    "gen_isolated_instance",
    "measure_quad_bound",
    "eig",
    "resolvent_norm",
    "numrange_extremes",
    "verify_instance",
    "standard_suite_specs",
    "run_suite",
]

_STRUCTURES = ("none", "offdiag", "diag-blocks", "symmetric")


@dataclass(frozen=True, eq=False)
class MatrixInstance:
    """One (T, A) pair with measured constants and certification targets.

    T is held as its diagonal; A is dense.  `structure` is the formal
    block structure (none / offdiag / diag-blocks / symmetric), `kind`
    the generation recipe that decides which checks apply.
    """

    name: str
    kind: str
    structure: str
    seed: int
    t_diag: np.ndarray
    a_mat: np.ndarray
    quad: QuadBound
    gaps: tuple[Gap, ...] = ()
    block_split: int | None = None
    off_bounds: OffDiagBounds | None = None
    diag_bounds: DiagBounds | None = None
    minima: BlockMinima | None = None
    odd_beta: float | None = None
    almost_gap: Gap | None = None
    almost_inside: int | None = None
    almost_w: NumRangeBounds | None = None
    isolated: IsolatedEigSpec | None = None

    def __post_init__(self) -> None:
        if self.structure not in _STRUCTURES:
            raise ValueError(f"unknown structure {self.structure!r}")
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


def eig(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a square dense matrix, algebraic multiplicity kept."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("requires a square matrix")
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK hiccup
        raise NumericalFailure(f"eigenvalue iteration failed: {exc}") from exc


def resolvent_norm(m: np.ndarray, z: complex) -> float:
    """1/sigma_min(M - zI); refuses z within 1e-12 of being singular."""
    m = np.asarray(m, dtype=complex)
    shifted = m - complex(z) * np.eye(m.shape[0])
    smin = float(np.linalg.svd(shifted, compute_uv=False)[-1])
    if smin < 1e-12:
        raise NearSingular(f"z={z!r} is within {smin:.3e} of the spectrum")
    return 1.0 / smin


def numrange_extremes(inst: MatrixInstance) -> NumRangeBounds:
    """Extreme eigenvalues of a Hermitian perturbation."""
    a = inst.a_mat
    scale = float(np.abs(a).max()) if a.size else 0.0
    if float(np.abs(a - a.conj().T).max()) > 1e-14 * max(1.0, scale):
        raise ValueError("numerical-range extremes need a Hermitian A")
    ev = np.linalg.eigvalsh(0.5 * (a + a.conj().T))
    return NumRangeBounds(float(ev[0]), float(ev[-1]))


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
    measure: "callable[[float], float]",
    ratio: "callable[[float, float], float]",
    magnitude: float,
) -> tuple[float, float, float]:
    """Find (t, a_raw, b_raw) with ratio(t*a_raw, t*b_raw) = magnitude, t*b_raw < 0.9."""
    b_raw = float(rng.uniform(0.05, 0.6))
    for _ in range(80):
        a_raw = measure(b_raw)
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
    """
    if not 2 <= dim <= 64:
        raise ValueError("dim must lie in [2, 64]")
    if not 0.0 < magnitude < 1.0:
        raise ValueError("magnitude must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    name = name or f"{kind}-{seed:08d}"
    if kind in ("none", "multi", "symmetric", "probe"):
        return _gen_plain(rng, dim, seed, kind, gaps, magnitude, n_gaps, name)
    if kind == "offdiag":
        return _gen_offdiag(rng, dim, seed, magnitude, name)
    if kind == "even":
        return _gen_even(rng, dim, seed, magnitude, name)
    if kind == "diag-blocks":
        return _gen_odd(rng, dim, seed, magnitude, name)
    raise ValueError(f"unknown instance kind {kind!r}")


def _gen_plain(rng, dim, seed, kind, gaps, magnitude, n_gaps, name) -> MatrixInstance:
    if gaps is not None:
        gap_t = tuple(Gap(float(a), float(b)) for a, b in gaps)
        for left, right in zip(gap_t, gap_t[1:]):
            if left.beta > right.alpha:
                raise ValueError("prescribed gaps overlap")
    else:
        gap_t = _auto_gaps(rng, n_gaps if kind == "multi" else 1)
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
            name=name, kind=kind, structure="symmetric", seed=seed,
            t_diag=t_diag, a_mat=np.diag(a * signs).astype(complex),
            quad=QuadBound(a, 0.0), gaps=gap_t,
        )

    raw = _dense(rng, dim)
    if kind == "symmetric":
        raw = 0.5 * (raw + raw.conj().T)
        w_raw = np.linalg.eigvalsh(raw)
        w_lo, w_hi = float(w_raw[0]), float(w_raw[-1])

    def measure(b: float) -> float:
        return _amin(raw, t_diag, b)

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

    t, a_raw, b_raw = _calibrate(rng, measure, ratio, magnitude)
    a_mat = t * raw
    quad = QuadBound(t * a_raw, t * b_raw)
    almost_kwargs = {}
    cert_gaps = gap_t if not inside else ()
    if kind == "symmetric":
        almost_kwargs = dict(
            almost_gap=window,
            almost_inside=inside,
            almost_w=NumRangeBounds(t * w_lo, t * w_hi),
        )
    return MatrixInstance(
        name=name, kind=kind, structure="symmetric" if kind == "symmetric" else "none",
        seed=seed, t_diag=t_diag, a_mat=a_mat, quad=quad, gaps=cert_gaps,
        **almost_kwargs,
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
    if dim % 2:
        raise ValueError("offdiag instances need an even dimension")
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
        name=name, kind="offdiag", structure="offdiag", seed=seed,
        t_diag=t_diag, a_mat=a_mat, quad=quad,
        gaps=(gap,) if gap_condition(quad, gap) else (),
        block_split=n1,
        off_bounds=OffDiagBounds(*consts),
    )


def _gen_even(rng, dim, seed, magnitude, name) -> MatrixInstance:
    if dim % 2:
        raise ValueError("even-structure instances need an even dimension")
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
        name=name, kind="even", structure="offdiag", seed=seed,
        t_diag=t_diag, a_mat=a_mat, quad=quad, gaps=(),
        block_split=n1,
        off_bounds=OffDiagBounds(*consts),
        minima=BlockMinima(beta1, beta2),
    )


def _gen_odd(rng, dim, seed, magnitude, name) -> MatrixInstance:
    """T = diag(D, -D) with pair-coupled A = [[P, Q], [Q, P]].

    The swap involution commutes with A and anticommutes with T; in its
    eigenbasis T is off-diagonal with T12 = D and A is diag(P+Q, P-Q),
    which is the shape the symmetric-strip block theorem consumes.
    """
    if dim % 2:
        raise ValueError("diag-blocks instances need an even dimension")
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
        name=name, kind="diag-blocks", structure="diag-blocks", seed=seed,
        t_diag=t_diag, a_mat=a_mat, quad=quad,
        gaps=(gap,) if gap_condition(quad, gap) else (),
        block_split=n1,
        diag_bounds=DiagBounds(*consts),
        odd_beta=beta,
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

    def measure(b: float) -> float:
        return _amin(raw, t_diag, b)

    def ratio(a_min: float, b: float) -> float:
        q = QuadBound(a_min, b)
        return max(
            (q.shift(alpha) + q.shift(lam)) / (lam - alpha),
            (q.shift(lam) + q.shift(beta)) / (beta - lam),
        )

    t, a_raw, b_raw = _calibrate(rng, measure, ratio, magnitude)
    return MatrixInstance(
        name=name or f"isolated-{seed:08d}", kind="isolated", structure="none",
        seed=seed, t_diag=t_diag, a_mat=t * raw,
        quad=QuadBound(t * a_raw, t * b_raw),
        gaps=(Gap(alpha, lam), Gap(lam, beta)),
        isolated=IsolatedEigSpec(lam, alpha, beta, mult),
    )


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class VerifyOptions:
    """Grid densities, tolerances and the mutation knob for one verify run."""

    s_points: int = 11
    z_re: int = 15
    z_im: int = 7
    inset: float = 1e-6
    rel_margin: float = 1e-9
    resolvent_tol: float = 1e-8
    refined_tol: float = 1e-12
    widen: float = 0.0


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
        doc = {
            "instance": self.instance,
            "quad": {"a": self.quad.a, "b": self.quad.b},
            "s_points": self.s_points,
            "checks": [
                {
                    "check": c.check,
                    "margin": c.margin,
                    "passed": c.passed,
                    "witness": c.witness,
                    "note": c.note,
                }
                for c in self.checks
            ],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _widened(strip: StripResult, widen: float) -> tuple[float, float]:
    center = 0.5 * (strip.lo + strip.hi)
    half = 0.5 * (strip.hi - strip.lo) * (1.0 + widen)
    return center - half, center + half


def _judged(check: str, worst: tuple[float, str], tol: float, note: str = "") -> CheckResult:
    """Verdict on the worst (margin, witness): pass when margin >= -tol; failures keep the witness."""
    margin, witness = worst
    passed = margin >= -tol
    return CheckResult(check, margin, passed, witness if not passed else "", note)


def _strip_margin(
    eigs: np.ndarray, lo: float, hi: float, scale: float
) -> tuple[float, str]:
    re = eigs.real.ravel()
    outside = np.maximum(lo - re, re - hi) / scale
    k = int(np.argmin(outside))
    return float(outside[k]), repr(complex(eigs.ravel()[k]))


def _floor_margin(values: np.ndarray, claimed: float, scale: float, eigs: np.ndarray) -> tuple[float, str]:
    """Margin of the least of `values` (one per eigenvalue) above a claimed floor."""
    k = int(np.argmin(values))
    return (float(values[k]) - claimed) / scale, repr(complex(eigs.ravel()[k]))


def _check_eig_sanity(inst: MatrixInstance, top: np.ndarray) -> CheckResult:
    m = inst.t_mat + inst.a_mat
    tol = 1e-9
    err = abs(complex(np.sum(top)) - complex(np.trace(m))) / max(1.0, abs(complex(np.trace(m))))
    sign, logabs = np.linalg.slogdet(m)
    lam = top.astype(complex)
    if sign != 0 and float(np.abs(lam).min()) > 0.0:
        # compare log det = sum log lambda in the log domain; the phase
        # difference is only defined mod 2 pi
        diff = complex(np.sum(np.log(lam))) - complex(logabs, cmath.phase(complex(sign)))
        angle = (diff.imag + math.pi) % (2.0 * math.pi) - math.pi
        err = max(err, abs(complex(diff.real, angle)))
    return _judged("eig-sanity", (tol - err, ""), 0.0, "trace and determinant identities")


def _check_hyperbola(inst, s_grid, eigs, opt) -> CheckResult:
    worst = (math.inf, "")
    for s, row in zip(s_grid, eigs):
        a, b = s * inst.quad.a, s * inst.quad.b
        bound_sq = (a * a + b * b * row.real**2) / (1.0 - b * b)
        margin = (bound_sq - row.imag**2) / np.maximum(1.0, bound_sq)
        k = int(np.argmin(margin))
        if margin[k] < worst[0]:
            worst = (float(margin[k]), repr(complex(row[k])))
    return _judged("hyperbola", worst, opt.rel_margin)


def _check_strips(inst, eigs, opt) -> CheckResult:
    worst, notes = (math.inf, ""), []
    for gap in inst.gaps:
        strip = perturbed_strip(inst.quad, gap)
        if not strip.open:
            continue
        lo, hi = _widened(strip, opt.widen)
        scale = max(1.0, abs(gap.alpha), abs(gap.beta))
        notes.append(f"({gap.alpha:.3g},{gap.beta:.3g})")
        found = _strip_margin(eigs, lo, hi, scale)
        if found[0] < worst[0]:
            worst = found
    if not notes:
        return CheckResult("strip", 0.0, True, note="no certified strip")
    return _judged("strip", worst, opt.rel_margin, " ".join(notes))


def _batch_resolvent_norms(m0: np.ndarray, zs: np.ndarray) -> np.ndarray:
    n = m0.shape[0]
    shifted = m0[None, :, :] - zs[:, None, None] * np.eye(n)[None]
    smin = np.linalg.svd(shifted, compute_uv=False)[:, -1]
    return 1.0 / np.maximum(smin, 1e-300)


# Im z offsets of the in-strip z-grids, in units of the gap width
_NU = np.array([0.0, 0.05, -0.05, 0.7, -0.7, 5.0, -5.0])


def _zgrid(mu: np.ndarray, width: float, opt) -> np.ndarray:
    nu = width * _NU[: opt.z_im]
    return (mu[:, None] + 1j * nu[None, :]).ravel()


def _resolvent_worst(m0, zs, bounds, opt, worst=(math.inf, "")) -> tuple[float, str]:
    """Worst relative margin of certified resolvent bounds over the oracle's norms at zs."""
    for z, bound, nrm in zip(zs, bounds, _batch_resolvent_norms(m0, zs)):
        margin = (bound * (1.0 + opt.resolvent_tol) - nrm) / bound
        if margin < worst[0]:
            worst = (float(margin), repr(complex(z)))
    return worst


def _check_resolvent_offreal(inst, m0, opt) -> CheckResult:
    q = inst.quad
    if q.b >= 1.0:
        return CheckResult("resolvent-offreal", 0.0, True, note="not applicable: b >= 1")
    r = 1.05 * float(np.abs(inst.t_diag).max()) + 1.0
    res = np.linspace(-r, r, opt.z_re)
    fracs = np.geomspace(opt.inset, 10.0, opt.z_im)
    boundary = np.sqrt((q.a**2 + q.b**2 * res**2) / (1.0 - q.b**2))
    im = boundary[:, None] * (1.0 + fracs[None, :])
    # a degenerate boundary (a = 0 at re = 0) excludes every im > 0
    im = np.where(boundary[:, None] > 0.0, im, r * fracs[None, :])
    zs = (res[:, None] + 1j * im).ravel()
    bounds = [resolvent_bound_offreal(q, z) for z in zs]
    return _judged("resolvent-offreal", _resolvent_worst(m0, zs, bounds, opt), opt.rel_margin)


def _check_resolvent_strip(inst, m0, opt) -> tuple[CheckResult, CheckResult]:
    q = inst.quad
    worst_s = worst_r = (math.inf, "")
    any_strip = False
    for gap in inst.gaps:
        strip = perturbed_strip(q, gap)
        if not strip.open:
            continue
        any_strip = True
        mu = strip.lo + (strip.hi - strip.lo) * np.linspace(opt.inset, 1.0 - opt.inset, opt.z_re)
        zs = _zgrid(mu, gap.width, opt)
        bounds = []
        for z in zs:
            plain = resolvent_bound_strip(q, gap, z)
            refined = resolvent_bound_strip_refined(q, gap, z)
            bounds.append(min(plain, refined))
            margin = (plain * (1.0 + opt.refined_tol) - refined) / plain
            if margin < worst_r[0]:
                worst_r = (float(margin), repr(complex(z)))
        worst_s = _resolvent_worst(m0, zs, bounds, opt, worst_s)
    if not any_strip:
        skip = CheckResult("resolvent-strip", 0.0, True, note="no certified strip")
        return skip, CheckResult("refined-le-plain", 0.0, True, note="no certified strip")
    return (
        _judged("resolvent-strip", worst_s, opt.rel_margin),
        _judged("refined-le-plain", worst_r, 0.0),
    )


def _check_resolvent_symgap(inst, m0, opt) -> CheckResult | None:
    gap = next((g for g in inst.gaps if g.alpha == -g.beta), None)
    if gap is None:
        return None
    result = symmetric_gap_strip(inst.quad, gap.beta)
    if not result.strip.open:
        return None
    mu = result.beta_pert * np.linspace(-(1.0 - opt.inset), 1.0 - opt.inset, opt.z_re)
    zs = _zgrid(mu, gap.beta, opt)
    bounds = [result.resolvent_bound(z) for z in zs]
    return _judged("resolvent-symgap", _resolvent_worst(m0, zs, bounds, opt), opt.rel_margin)


def _check_balls(inst, s_grid, eigs, opt) -> CheckResult:
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
    return _judged("balls", worst, opt.rel_margin)


def _check_eig_count(inst, eigs, opt) -> CheckResult:
    spec = inst.isolated
    strip = isolated_eigenvalue_strip(inst.quad, spec)
    lo, hi = _widened(strip, opt.widen) if opt.widen else (strip.lo, strip.hi)
    worst = (0.0, "")
    for row in eigs:
        count = int(np.sum((row.real > lo) & (row.real < hi)))
        if abs(count - spec.mult) > abs(worst[0]):
            worst = (float(-(abs(count - spec.mult))), f"count={count}")
    return _judged("eig-count", worst, opt.rel_margin, f"expect {spec.mult} in ({lo:.6g},{hi:.6g})")


def _check_numrange_windows(inst, eigs_full, opt) -> CheckResult:
    applicable = []
    worst = (0.0, "")
    for case in ("i", "ii", "iii", "iv"):
        try:
            out = almost_gap_eig_bound(case, inst.quad, inst.almost_gap, inst.almost_inside, inst.almost_w)
        except ConditionNotApplicable:
            continue
        applicable.append(case)
        count = int(np.sum((eigs_full.real > out.lo) & (eigs_full.real < out.hi)))
        excess = float(count - out.max_count)
        if -excess < worst[0]:
            worst = (-excess, f"case {case}: count={count}")
    if not applicable:
        return CheckResult("numrange-window", 0.0, True, note="no applicable case")
    return _judged("numrange-window", worst, opt.rel_margin, "cases " + ",".join(applicable))


def _check_structured(inst, eigs, opt) -> CheckResult | None:
    """The block-structure bound of an offdiag, even or diag-blocks instance."""
    flat = eigs.ravel()
    try:
        if inst.kind == "offdiag" and inst.off_bounds is not None:
            check = "structured-offdiag"
            # the generating gap is recoverable from the block spectra
            n1 = inst.block_split
            gap = Gap(float(inst.t_diag[:n1].max()), float(inst.t_diag[n1:].min()))
            lo, hi = _widened(offdiag_gap(inst.off_bounds, gap).strip, opt.widen)
            worst = _strip_margin(eigs, lo, hi, max(1.0, abs(gap.alpha), abs(gap.beta)))
        elif inst.kind == "even" and inst.minima is not None:
            check = "structured-even"
            bound = even_lowerbound(inst.off_bounds, inst.minima)
            claimed = bound + opt.widen * (min(inst.minima.beta1, inst.minima.beta2) - bound)
            worst = _floor_margin(flat.real, claimed, max(1.0, abs(claimed)), flat)
        elif inst.kind == "diag-blocks" and inst.diag_bounds is not None:
            check = "structured-odd"
            claimed = odd_symmetric_gap(inst.diag_bounds, inst.odd_beta) * (1.0 + opt.widen)
            worst = _floor_margin(np.abs(flat.real), claimed, max(1.0, claimed), flat)
        else:
            return None
    except ConditionNotApplicable:
        return CheckResult(check, 0.0, True, note="not applicable")
    return _judged(check, worst, opt.rel_margin)


def verify_instance(inst: MatrixInstance, options: VerifyOptions = VerifyOptions()) -> VerificationReport:
    """Run every applicable soundness check; failures are entries, not raises."""
    s_grid = np.linspace(0.0, 1.0, options.s_points)
    mats = inst.t_mat[None, :, :] + s_grid[:, None, None] * inst.a_mat[None, :, :]
    eigs = np.linalg.eigvals(mats)
    m0 = inst.t_mat + inst.a_mat
    checks: list[CheckResult] = [
        _check_eig_sanity(inst, eigs[-1]),
        _check_hyperbola(inst, s_grid, eigs, options),
        _check_strips(inst, eigs, options),
        _check_resolvent_offreal(inst, m0, options),
        *_check_resolvent_strip(inst, m0, options),
    ]
    hermitian = float(np.abs(inst.a_mat - inst.a_mat.conj().T).max()) <= 1e-14 * max(
        1.0, float(np.abs(inst.a_mat).max())
    )
    optional = [_check_resolvent_symgap(inst, m0, options)]
    if hermitian and inst.gaps:
        optional.append(_check_balls(inst, s_grid, eigs, options))
    if inst.isolated is not None:
        optional.append(_check_eig_count(inst, eigs, options))
    if inst.almost_gap is not None and hermitian:
        optional.append(_check_numrange_windows(inst, eigs[-1], options))
    optional.append(_check_structured(inst, eigs, options))
    checks.extend(c for c in optional if c is not None)
    return VerificationReport(
        instance=inst.name, quad=inst.quad, s_points=options.s_points, checks=tuple(checks)
    )


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
    """Deterministic (kind, dim, seed, magnitude, n_gaps) plan for the suite."""
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
        if kind in ("offdiag", "diag-blocks", "even") and dim % 2:
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
    """Generate and verify the standard mixed suite."""
    t0 = time.perf_counter()
    reports = []
    for idx, (kind, dim, inst_seed, magnitude, n_gaps) in enumerate(
        standard_suite_specs(count, dim_lo, dim_hi, seed)
    ):
        inst = gen_instance(
            dim, inst_seed, kind=kind, magnitude=magnitude, n_gaps=n_gaps,
            name=f"{kind}-{idx:04d}",
        )
        reports.append(verify_instance(inst, options))
    return SuiteResult(tuple(reports), time.perf_counter() - t0)
