"""Preset bound families for four concrete operator classes.

Each preset turns physical input data into the abstract constants the
core enclosures consume:

* planar massless relativistic Hamiltonian with an L^p matrix potential:
  one-parameter family (a_p(t), b_p(t)), its reparametrization by the
  relative bound b, and the envelope curve of the resulting hyperbola
  intersection together with its power-law asymptote;
* three-dimensional massive case with a Coulomb-like potential bound
  ||V(x)||^2 <= C1^2 + C2^2 |x|^-2: two-sided spectrum separation;
* necklaces of spheres with point couplings: per-band relative bounds
  from the sphere interpolation inequality, packaged as growth models
  ready for the power-law gap pipeline;
* a confined/free two-channel Hamiltonian with dissipative coupling:
  m-accretivity via the even-structure lower bound.

Everything is a closed-form evaluation; no operators are discretized.
"""

from __future__ import annotations

import math

from .enclosures import QuadBound, hyperbola_excluded, symmetric_gap_strip
from .errors import ConditionNotApplicable, record, require_int, require_nonneg, require_positive

__all__ = [
    "DiracSpec",
    "CoulombSpec",
    "ManifoldSpec",
    "TwoChannelSpec",
    "EnvelopeCurve",
    "CoulombRegion",
    "ManifoldBounds",
    "TwoChannelResult",
    "dirac2d_cp",
    "dirac2d_constants",
    "dirac2d_envelope",
    "envelope_im_at_re",
    "dirac3d_coulomb",
    "manifold_relbounds",
    "two_channel_bound",
]


class DiracSpec(record("DiracSpec", "v_norm p")):
    """Potential data for the planar massless case: L^p norm and exponent p > 2."""

    __slots__ = ()

    def __new__(cls, v_norm: float, p: float):
        v_norm, p = require_positive("v_norm", v_norm), float(p)
        if not math.isfinite(p) or p <= 2:
            raise ValueError("requires p > 2")
        return tuple.__new__(cls, (v_norm, p))


def dirac2d_cp(spec: DiracSpec) -> float:
    """Constant C_p = v_norm (2 pi)^(-2/p) (2 pi / (p-2))^(1/p)."""
    p = spec.p
    return spec.v_norm * (2.0 * math.pi) ** (-2.0 / p) * (2.0 * math.pi / (p - 2.0)) ** (1.0 / p)


def dirac2d_constants(
    spec: DiracSpec, t: float | None = None, b: float | None = None
) -> QuadBound:
    """Relative bound pair for the planar massless operator.

    Exactly one of the two parameters selects the family member:
    t > 0 gives (C_p t^(-2/p), C_p t^((p-2)/p)); b > 0 gives the
    reparametrized (C_p^(p/(p-2)) b^(-2/(p-2)), b).
    """
    if (t is None) == (b is None):
        raise ValueError("provide exactly one of t and b")
    cp = dirac2d_cp(spec)
    p = spec.p
    if t is not None:
        t = require_positive("t", t)
        return QuadBound(cp * t ** (-2.0 / p), cp * t ** ((p - 2.0) / p))
    b = require_positive("b", b)
    return QuadBound(cp ** (p / (p - 2.0)) * b ** (-2.0 / (p - 2.0)), b)


def _envelope_x(p: float, cp: float, b: float) -> float:
    # x = |Re z|^2 on the envelope of the hyperbola family at b, cp = dirac2d_cp
    return (cp / b) ** (2.0 * p / (p - 2.0)) * (2.0 - p * b * b) / (p - 2.0)


def _envelope_y(p: float, cp: float, b: float) -> float:
    # y = |Im z|^2 on the envelope of the hyperbola family at b, cp = dirac2d_cp
    return (p * cp * cp / (p - 2.0)) * (cp / b) ** (4.0 / (p - 2.0))


def _envelope_xy(spec: DiracSpec, b: float) -> tuple[float, float]:
    # (x, y) = (|Re z|^2, |Im z|^2) on the envelope of the hyperbola family at b
    cp = dirac2d_cp(spec)
    return _envelope_x(spec.p, cp, b), _envelope_y(spec.p, cp, b)


class EnvelopeCurve(record("EnvelopeCurve", "b re im asymptote_coeff asymptote_exponent clipped")):
    """Sampled envelope polyline with its large-|Re z| asymptote.

    Rows are (re, im) = (sqrt(x), sqrt(y)); im ~ asymptote_coeff *
    re**asymptote_exponent as re grows.
    """

    __slots__ = ()


def _envelope_b_max(p: float) -> float:
    return math.sqrt(2.0 / p)


def _log_grid(lo: float, hi: float, samples: int) -> list[float]:
    """samples points from lo to hi, evenly spaced in log10, both ends exact.

    np.geomspace's formula, 10 ** (i * step + log10(lo)), with the `math`
    module's log10 and power, whose bits do not follow numpy's SIMD dispatch.
    """
    start = math.log10(lo)
    step = (math.log10(hi) - start) / (samples - 1)
    return [lo, *(10.0 ** (i * step + start) for i in range(1, samples - 1)), hi]


def dirac2d_envelope(
    spec: DiracSpec,
    samples: int,
    b_min: float | None = None,
    b_max: float | None = None,
) -> EnvelopeCurve:
    """Envelope of the intersection of all certified hyperbola regions.

    Samples a log grid of the relative bound b in (0, sqrt(2/p)]; beyond
    sqrt(2/p) the squared abscissa turns negative and the curve is
    clipped to x >= 0 (reported via the clipped flag).  A grid on which
    the curve overflows a double (near p = 2) is not applicable.
    """
    samples = require_int("samples", samples, 2)
    p = spec.p
    cap = _envelope_b_max(p)
    if b_max is None:
        b_max = cap
    b_max = require_positive("b_max", b_max)
    if b_min is None:
        b_min = 1e-3 * min(b_max, cap)
    b_min = require_positive("b_min", b_min)
    if not b_min < b_max:
        raise ValueError("requires b_min < b_max")
    cp = dirac2d_cp(spec)
    try:
        grid = _log_grid(b_min, b_max, samples)
        xy = [(_envelope_x(p, cp, b), _envelope_y(p, cp, b)) for b in grid]
        if not all(math.isfinite(x) and math.isfinite(y) for x, y in xy):
            raise OverflowError
    except ArithmeticError:
        raise ConditionNotApplicable(f"b in [{b_min!r}, {b_max!r}] leaves the representable range") from None
    coeff = math.sqrt(p / (p - 2.0)) * (4.0 * math.pi) ** (-1.0 / p) * spec.v_norm
    return EnvelopeCurve(
        b=tuple(grid),
        re=tuple(math.sqrt(max(x, 0.0)) for x, _ in xy),
        im=tuple(math.sqrt(y) for _, y in xy),
        asymptote_coeff=coeff,
        asymptote_exponent=2.0 / p,
        clipped=any(x < 0.0 for x, _ in xy),
    )


def _envelope_b_at(p: float, cp: float, re: float) -> tuple[float, float]:
    """Bracket lo <= hi around the b whose envelope abscissa is |Re z| = re; cp = dirac2d_cp.

    x(b) decreases strictly on (0, sqrt(2/p)], so halving from the top
    finds lo with x(lo) >= re^2; geometric bisection then stops at its
    fixed point, the first step that leaves (lo, hi) unchanged.  Both
    loops evaluate _envelope_x's expression inline, with 2p/(p-2) and p-2
    computed once per call.
    """
    target = re * re
    hi = _envelope_b_max(p)
    if target == 0.0:
        return hi, hi
    pm2, expo = p - 2.0, 2.0 * p / (p - 2.0)
    try:
        # halving ends at the latest when x(lo) overflows or cp / lo divides by zero
        lo = 0.5 * hi
        while (cp / lo) ** expo * (2.0 - p * lo * lo) / pm2 < target:
            lo *= 0.5
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if (cp / mid) ** expo * (2.0 - p * mid * mid) / pm2 >= target:
                if mid == lo:
                    break
                lo = mid
            else:
                if mid == hi:
                    break
                hi = mid
    except ArithmeticError:
        raise ConditionNotApplicable(f"re={re!r} beyond the representable envelope range") from None
    return lo, hi


def envelope_im_at_re(spec: DiracSpec, re: float) -> float:
    """Envelope height |Im z| above a given |Re z|.

    Inverts the strictly decreasing map b -> x(b) by bisection and
    evaluates the ordinate there.  re = 0 sits at b = sqrt(2/p).
    """
    abscissa = require_nonneg("re", re)
    p, cp = spec.p, dirac2d_cp(spec)
    lo, hi = _envelope_b_at(p, cp, abscissa)
    try:
        b = math.sqrt(lo * hi)
        # x(b) too, as _envelope_xy takes it: an abscissa past the double range refuses
        _envelope_x(p, cp, b)
        return math.sqrt(_envelope_y(p, cp, b))
    except ArithmeticError:
        raise ConditionNotApplicable(f"re={re!r} beyond the representable envelope range") from None


class CoulombSpec(record("CoulombSpec", "c1 c2 m")):
    """Coulomb-like potential envelope ||V(x)||^2 <= C1^2 + C2^2 |x|^-2, mass m."""

    __slots__ = ()

    def __new__(cls, c1: float, c2: float, m: float):
        return tuple.__new__(cls, (require_nonneg("c1", c1), require_nonneg("c2", c2), require_positive("m", m)))


class CoulombRegion(record("CoulombRegion", "halfwidth quad mass gap bisectorial")):
    """Two-component enclosure: |Re z| >= halfwidth, |Im z| below a hyperbola.

    quad is the QuadBound of the hyperbola, gap the SymmetricGapResult of
    the mass gap.
    """

    __slots__ = ()

    def certified_free(self, z: complex) -> bool:
        """True when z provably avoids the spectrum."""
        z = complex(z)
        if abs(z.real) < self.halfwidth:
            return True
        return hyperbola_excluded(self.quad, z)


def dirac3d_coulomb(spec: CoulombSpec) -> CoulombRegion:
    """Spectrum separation for the massive operator with Coulomb-like potential.

    Requires sqrt(C1^2 + 4 C2^2 m^2) < m.  The spectrum stays inside
    {|Re z| >= m - sqrt(C1^2 + 4 C2^2 m^2)} intersected with
    {|Im z|^2 <= (C1^2 + 4 C2^2 |Re z|^2) / (1 - 4 C2^2)}, and the
    operator is bisectorial.
    """
    q = QuadBound(spec.c1, 2.0 * spec.c2)
    if not q.shift(spec.m) < spec.m:
        raise ConditionNotApplicable(
            "spectrum separation not certified: sqrt(C1^2 + 4 C2^2 m^2) >= m"
        )
    gap = symmetric_gap_strip(q, spec.m)
    return CoulombRegion(gap.beta_pert, q, spec.m, gap, True)


class ManifoldSpec(record("ManifoldSpec", "c p case eps_geom")):
    """Necklace-of-spheres data: potential L^p budget and geometry case.

    c bounds the per-sphere L^p norms, p in (2, inf); case 1 couples the
    spheres through touching points, case 2 through line segments, and
    eps_geom is the exponent defect in the band-width law.
    """

    __slots__ = ()

    def __new__(cls, c: float, p: float, case: int, eps_geom: float):
        c, p = require_positive("c", c), float(p)
        if not math.isfinite(p) or p <= 2:
            raise ValueError("requires p > 2")
        if case not in (1, 2):
            raise ValueError("case must be 1 or 2")
        eps = float(eps_geom)
        if not 0.0 < eps < 1.0:
            raise ValueError("requires eps_geom in (0, 1)")
        return tuple.__new__(cls, (c, p, case, eps))


class ManifoldBounds(record("ManifoldBounds", "pointwise a_model b_model band_model")):
    """Per-band constants at one band index plus their asymptotic models.

    pointwise is a QuadBound, a_model and b_model are GrowthTerms, and
    band_model is a PowerLogTail.
    """

    __slots__ = ()


def manifold_relbounds(
    spec: ManifoldSpec,
    n: int,
    length_prefactor: float = 1.0,
    width_prefactor: float = 1.0,
) -> ManifoldBounds:
    """Relative bounds of the potential against the n-th spectral band.

    With kappa = c (4 pi)^(-1/p): a_n = kappa sqrt(1 + n^2/(p-2)) and
    b_n = kappa / (n sqrt(p-2)); asymptotically both behave like
    kappa/sqrt(p-2) times n and 1/n.  The band model carries
    l_n ~ n^2 and w_n ~ n^2 (log n)^(-eps) (case 1) or n^(2-eps)
    (case 2), with configurable prefactors standing in for the
    unspecified geometry constants.
    """
    from .gap_sequences import GrowthTerm, PowerLogTail

    n = require_int("n", n, 2)
    p = spec.p
    kappa = spec.c * (4.0 * math.pi) ** (-1.0 / p)
    a_n = kappa * math.sqrt(1.0 + n * n / (p - 2.0))
    b_n = kappa / (n * math.sqrt(p - 2.0))
    slope = kappa / math.sqrt(p - 2.0)
    q1, q2 = (2.0, -spec.eps_geom) if spec.case == 1 else (2.0 - spec.eps_geom, 0.0)
    return ManifoldBounds(
        pointwise=QuadBound(a_n, b_n),
        a_model=GrowthTerm(slope, power=1.0),
        b_model=GrowthTerm(slope, power=-1.0),
        band_model=PowerLogTail(2.0, q1, 0.0, q2, length_prefactor, width_prefactor),
    )


class TwoChannelSpec(record("TwoChannelSpec", "d p v12_norm p0 p1 p2")):
    """Confined/free two-channel model with dissipative coupling.

    The confined channel is a d-dimensional oscillator, the free channel
    a Laplacian.  v12_norm is the L^p norm of the confined-to-free
    coupling (p > d/2, p >= 2); the reverse coupling is dominated by a
    quadratic polynomial with coefficients p0, p1 (the d linear ones)
    and p2 (the d(d+1)/2 quadratic ones).
    """

    __slots__ = ()

    def __new__(
        cls, d: int, p: float, v12_norm: float, p0: float, p1: tuple[float, ...], p2: tuple[float, ...]
    ):
        d, p = require_int("d", d, 1), float(p)
        if not math.isfinite(p) or not (p > d / 2.0 and p >= 2.0):
            raise ValueError("requires p > d/2 and p >= 2")
        v12_norm, p0 = require_nonneg("v12_norm", v12_norm), require_nonneg("p0", p0)
        p1 = tuple(require_nonneg("p1 entry", v) for v in p1)
        p2 = tuple(require_nonneg("p2 entry", v) for v in p2)
        if len(p1) != d:
            raise ValueError(f"p1 needs {d} entries, got {len(p1)}")
        want = d * (d + 1) // 2
        if len(p2) != want:
            raise ValueError(f"p2 needs {want} entries, got {len(p2)}")
        return tuple.__new__(cls, (d, p, v12_norm, p0, p1, p2))


class TwoChannelResult(record("TwoChannelResult", "b21 c_p coupling lower_bound")):
    """Coupling constants and the certified real-part lower bound."""

    __slots__ = ()


def _beta_fn(x: float, y: float) -> float:
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def two_channel_bound(spec: TwoChannelSpec) -> TwoChannelResult:
    """m-accretivity bound Re sigma(H) >= lower_bound for the two-channel model.

    b21^2 = 2 p0^2/d^2 + (1/d) sum p1^2 + 2 sum p2^2 bounds the reverse
    coupling relative to the oscillator; C_p collects the Hausdorff-Young
    constant of the forward coupling.  The even-structure bound at block
    minima (d, 0), optimized over the forward family a(b) =
    C_p^(2p/(2p-d)) b^(-d/(2p-d)) as b -> 1/b21, gives

        lower_bound = d/2 - sqrt(d^2/4 + h),
        h = d (C_p b21)^(2p/(2p-d)).
    """
    d = float(spec.d)
    b21 = math.sqrt(
        2.0 * spec.p0**2 / (d * d)
        + math.fsum(v * v for v in spec.p1) / d
        + 2.0 * math.fsum(v * v for v in spec.p2)
    )
    c_p = (
        spec.v12_norm
        * (2.0 * math.pi) ** (-d / spec.p)
        * (2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0))
        * _beta_fn(d / 2.0, spec.p - d / 2.0)
    )
    h = d * (c_p * b21) ** (2.0 * spec.p / (2.0 * spec.p - d))
    lower = d / 2.0 - math.sqrt(d * d / 4.0 + h)
    return TwoChannelResult(b21=b21, c_p=c_p, coupling=h, lower_bound=lower)
