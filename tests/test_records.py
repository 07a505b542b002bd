"""The value types of the certificate modules: validated, immutable records.

Every record takes its fields by position and by keyword, validates them
as documented, prints as `Name(field=value, ...)`, refuses assignment and
survives a pickle round trip.  Records are tuples, so they also equal
plain tuples of the same items.
"""

from __future__ import annotations

import math
import pickle

import pytest

from gapcert import applications as app
from gapcert import blocks as blk
from gapcert import enclosures as enc
from gapcert import gap_sequences as gs
from gapcert import regions as reg

_STRIP = enc.StripResult(-1.5, 1.5, True)
_SEQ = gs.GapSequence((1.0, 3.0), (2.0, 5.0))
_NAN, _INF = math.nan, math.inf


def _nonneg(name, value):
    return ValueError, f"{name} must be finite and nonnegative, got {value!r}"


def _positive(name, value):
    return ValueError, f"{name} must be finite and positive, got {value!r}"


def _finite(name, value):
    return ValueError, f"{name} must be finite, got {value!r}"


def _integer(name, least, value):
    return ValueError, f"{name} must be an integer >= {least}, got {value!r}"


def _says(message):
    return ValueError, message


# record -> (its fields in order, a valid field tuple, [(invalid field tuple, (exception, message))])
RECORDS = {
    enc.QuadBound: ("a b", (1.0, 0.5), [
        ((-1.0, 0.5), _nonneg("a", -1.0)),
        ((1.0, _NAN), _nonneg("b", _NAN)),
        ((-1.0, -2.0), _nonneg("a", -1.0)),
    ]),
    enc.LinBound: ("a_lin b_lin", (1.0, 0.5), [
        ((-1.0, 0.5), _nonneg("a_lin", -1.0)),
        ((1.0, _INF), _nonneg("b_lin", _INF)),
    ]),
    enc.Gap: ("alpha beta", (0.0, 3.0), [
        ((_NAN, 1.0), _finite("alpha", _NAN)),
        ((0.0, _INF), _finite("beta", _INF)),
        ((2.0, 1.0), _says("gap requires alpha < beta")),
        ((1.0, 1.0), _says("gap requires alpha < beta")),
    ]),
    enc.StripResult: ("lo hi open", (1.0, 2.0, True), []),
    enc.Disk: ("center radius", (0.5, 1.0), []),
    enc.SymmetricGapResult: ("strip beta_pert beta shift", (_STRIP, 1.5, 2.0, 0.5), []),
    enc.GKCover: ("r_eps half_angle", (2.0, 0.4), [
        ((-1.0, 0.4), _nonneg("r_eps", -1.0)),
        ((_NAN, 0.4), _nonneg("r_eps", _NAN)),
        ((2.0, -1.0), _says("half_angle must lie in (0, pi/2)")),
        ((2.0, 0.0), _says("half_angle must lie in (0, pi/2)")),
        ((2.0, math.pi / 2), _says("half_angle must lie in (0, pi/2)")),
        ((2.0, _INF), _finite("half_angle", _INF)),
    ]),
    enc.IsolatedEigSpec: ("lam alpha beta mult", (1.0, -1.0, 3.0, 2), [
        ((_NAN, -1.0, 3.0, 2), _finite("lam", _NAN)),
        ((1.0, -_INF, 3.0, 2), _finite("alpha", -_INF)),
        ((1.0, 2.0, 3.0, 2), _says("requires alpha < lam < beta")),
        ((1.0, -1.0, 3.0, 1.5), _integer("mult", 0, 1.5)),
        ((1.0, -1.0, 3.0, -1), _integer("mult", 0, -1)),
    ]),
    enc.EigStrip: ("lo hi count", (0.8, 1.2, 2), []),
    blk.OffDiagBounds: ("a12 b12 a21 b21", (0.3, 0.1, 0.2, 0.2), [
        ((0.3, -0.1, 0.2, 0.2), _nonneg("b12", -0.1)),
        ((-1.0, -1.0, 0.2, _NAN), _nonneg("a12", -1.0)),
        ((0.3, 0.1, 0.2, _INF), _nonneg("b21", _INF)),
    ]),
    blk.DiagBounds: ("a11 b11 a22 b22", (0.3, 0.1, 0.2, 0.2), [
        ((0.3, 0.1, -0.2, 0.2), _nonneg("a22", -0.2)),
        ((_NAN, 0.1, 0.2, -1.0), _nonneg("a11", _NAN)),
    ]),
    blk.NumRangeBounds: ("inf_w sup_w", (-0.5, 0.6), [
        ((_NAN, 0.6), _says("numerical-range extremes must not be NaN")),
        ((-0.5, _NAN), _says("numerical-range extremes must not be NaN")),
        ((1.0, 0.6), _says("requires inf_w <= sup_w")),
    ]),
    blk.BlockMinima: ("beta1 beta2", (1.0, 2.0), [
        ((-0.5, 1.0), _nonneg("beta1", -0.5)),
        ((1.0, _INF), _nonneg("beta2", _INF)),
    ]),
    blk.EigCountInterval: ("lo hi max_count", (0.5, 1.5, 2), []),
    blk.OffDiagGapResult: ("delta strip", (0.1, _STRIP), []),
    gs.GrowthTerm: ("coeff base power log_power", (1.0, 1.0, 1.0, 0.0), [
        ((_NAN, 1.0, 0.0, 0.0), _nonneg("coeff", _NAN)),
        ((1.0, 0.0, 0.0, 0.0), _positive("base", 0.0)),
        ((1.0, 1.0, _NAN, 0.0), _finite("power", _NAN)),
        ((1.0, 1.0, 0.0, _INF), _finite("log_power", _INF)),
    ]),
    gs.GapSequence: ("alphas betas", ((1.0, 3.0), (2.0, 5.0)), [
        (((0.0, 1.0), (2.0, 3.0)), _says("gaps must be ordered: beta_n <= alpha_{n+1}")),
        (((0.0,), (1.0, 2.0)), _says("alphas and betas must be nonempty and equally long")),
        (((), ()), _says("alphas and betas must be nonempty and equally long")),
        (((1.0,), (0.0,)), _says("each gap requires finite alpha_n < beta_n")),
        (((_NAN,), (1.0,)), _finite("alpha_n", _NAN)),
        (((0.0,), (_INF,)), _finite("beta_n", _INF)),
    ]),
    gs.BandProfile: ("lengths widths", ((1.0, 2.0), (0.5,)), [
        (((0.0,), ()), _positive("gap length", 0.0)),
        (((1.0,), (-1.0,)), _nonneg("band width", -1.0)),
        (((), ()), _says("at least one gap length required")),
        (((1.0, 2.0), (1.0, 1.0, 1.0)), _says("widths must number len(lengths)-1 (trailing width optional)")),
    ]),
    gs.PerGapConstants: ("a_seq b_seq", ((0.1, 0.2), (0.1, 0.2)), [
        (((-1.0,), (0.0,)), _nonneg("a_n", -1.0)),
        (((0.1,), (_NAN,)), _nonneg("b_n", _NAN)),
        (((0.1,), ()), _says("a_seq and b_seq must be nonempty and equally long")),
        (((0.1,), (1.0,)), _says("b_n must lie in [0, 1)")),
    ]),
    gs.ConstModel: ("a_term b_term", (gs.GrowthTerm(1.0, 1.0, 1.0), gs.GrowthTerm(1.0, 1.0, -1.0)), [
        ((gs.GrowthTerm(1.0, 2.0), gs.GrowthTerm(1.0)), _says("constant models must be power-log (base 1)")),
        ((gs.GrowthTerm(1.0), gs.GrowthTerm(1.0, 0.5)), _says("constant models must be power-log (base 1)")),
    ]),
    gs.PowerLogTail: ("p1 q1 p2 q2 length_prefactor width_prefactor", (1.0, 0.5, 0.0, -1.0, 2.0, 1.0), [
        ((_NAN, 0.0, 0.0, 0.0, 1.0, 1.0), _nonneg("p1", _NAN)),
        ((1.0, _INF, 0.0, 0.0, 1.0, 1.0), _nonneg("q1", _INF)),
        ((1.0, 0.0, _NAN, 0.0, 1.0, 1.0), _finite("p2", _NAN)),
        ((1.0, 0.0, 0.0, -_INF, 1.0, 1.0), _finite("q2", -_INF)),
        ((1.0, 0.0, 0.0, 0.0, _NAN, 1.0), _positive("length_prefactor", _NAN)),
        ((1.0, 0.0, 0.0, 0.0, 1.0, _INF), _nonneg("width_prefactor", _INF)),
        # the nonnegative fields are checked first, then the finite ones, then length_prefactor
        ((1.0, 0.0, _NAN, 0.0, 0.0, -1.0), _nonneg("width_prefactor", -1.0)),
        ((1.0, 0.0, _NAN, 0.0, 0.0, 1.0), _finite("p2", _NAN)),
    ]),
    gs.GeometricTail: ("ratio band_ratio", (2.0, 1.6), [
        ((_INF, _INF), _finite("ratio", _INF)),
        ((_NAN, 2.0), _finite("ratio", _NAN)),
        ((1.0, 1.0), _says("geometric endpoint growth requires ratio > 1")),
        ((2.0, 3.0), _says("requires 1 < band_ratio <= ratio")),
        ((2.0, 1.0), _says("requires 1 < band_ratio <= ratio")),
    ]),
    gs.FiniteTail: ("seq window", (_SEQ, 2), [
        ((_SEQ, _NAN), _integer("window", 1, _NAN)),
        ((_SEQ, 1.5), _integer("window", 1, 1.5)),
        ((_SEQ, 0), _integer("window", 1, 0)),
        ((((1.0,), (2.0,)), None), (TypeError, "finite-data model requires a GapSequence")),
    ]),
    gs.RatioResult: ("verdict liminf limsup threshold exact", (gs.Verdict.INFINITELY_MANY, 1.2, 1.8, 1.5, False), []),
    gs.PerGapResult: ("verdict ratios strips liminf limsup", (gs.Verdict.COFINITELY_MANY, (0.5,), (_STRIP,), 0.5, 0.5), []),
    gs.GrowthDiagnostic: ("ok failed_condition details", (True, None, {"note": "x"}), []),
    gs.PowerlawBound: ("kappa_bound eps0", (1.0, 0.5), []),
    app.DiracSpec: ("v_norm p", (1.0, 5.0), [
        ((1.0, 2.0), _says("requires p > 2")),
        ((1.0, _NAN), _says("requires p > 2")),
        ((0.0, 5.0), _positive("v_norm", 0.0)),
    ]),
    app.EnvelopeCurve: ("b re im asymptote_coeff asymptote_exponent clipped", ((0.1,), (1.0,), (2.0,), 0.5, 0.4, False), []),
    app.CoulombSpec: ("c1 c2 m", (0.2, 0.1, 1.0), [
        ((-0.2, 0.1, 1.0), _nonneg("c1", -0.2)),
        ((0.2, _NAN, 1.0), _nonneg("c2", _NAN)),
        ((0.2, 0.1, 0.0), _positive("m", 0.0)),
    ]),
    app.CoulombRegion: (
        "halfwidth quad mass gap bisectorial",
        (1.5, enc.QuadBound(0.2, 0.2), 2.0, enc.SymmetricGapResult(_STRIP, 1.5, 2.0, 0.5), True),
        [],
    ),
    app.ManifoldSpec: ("c p case eps_geom", (1.0, 4.0, 1, 0.5), [
        ((1.0, 2.0, 1, 0.5), _says("requires p > 2")),
        ((1.0, 4.0, 3, 0.5), _says("case must be 1 or 2")),
        ((1.0, 4.0, 1, 1.0), _says("requires eps_geom in (0, 1)")),
        ((0.0, 4.0, 1, 0.5), _positive("c", 0.0)),
    ]),
    app.ManifoldBounds: (
        "pointwise a_model b_model band_model",
        (enc.QuadBound(1.0, 0.1), gs.GrowthTerm(0.5, 1.0, 1.0), gs.GrowthTerm(0.5, 1.0, -1.0),
         gs.PowerLogTail(2.0, 2.0)),
        [],
    ),
    app.TwoChannelSpec: ("d p v12_norm p0 p1 p2", (2, 3.0, 1.0, 0.5, (0.0, 1.0), (0.0, 0.0, 2.0)), [
        ((0, 3.0, 1.0, 0.0, (), ()), _integer("d", 1, 0)),
        ((3, 1.4, 1.0, 0.0, (0.0,) * 3, (0.0,) * 6), _says("requires p > d/2 and p >= 2")),
        ((5, 2.0, 1.0, 0.0, (0.0,) * 5, (0.0,) * 15), _says("requires p > d/2 and p >= 2")),
        ((2, 3.0, 1.0, 0.0, (1.0,), (0.0, 0.0, 0.0)), _says("p1 needs 2 entries, got 1")),
        ((2, 3.0, 1.0, 0.0, (1.0, 1.0), (0.0,)), _says("p2 needs 3 entries, got 1")),
        ((2, 3.0, -1.0, 0.0, (0.0, 0.0), (0.0, 0.0, 0.0)), _nonneg("v12_norm", -1.0)),
        ((2, 3.0, 1.0, 0.0, (0.0, -1.0), (0.0, 0.0, 0.0)), _nonneg("p1 entry", -1.0)),
    ]),
    app.TwoChannelResult: ("b21 c_p coupling lower_bound", (1.0, 0.5, 0.3, -0.1), []),
    reg.Segment: ("name re im", ("upper", (0.0, 1.0), (1.0, 2.0)), [
        (("upper", (0.0,), ()), _says("re and im must have equal length")),
    ]),
}
# the fields with a default, and that default; every other field is required
DEFAULTS = {
    gs.GrowthTerm: {"base": 1.0, "power": 0.0, "log_power": 0.0},
    gs.PowerLogTail: {"p2": 0.0, "q2": 0.0, "length_prefactor": 1.0, "width_prefactor": 1.0},
    gs.FiniteTail: {"window": None},
    gs.GrowthDiagnostic: {"details": {}},
}
_CASES = [(cls, *spec) for cls, spec in RECORDS.items()]
_INVALID = [(cls, args, want) for cls, _, _, bad in _CASES for args, want in bad]
_VALID = {cls: (fields.split(), args) for cls, fields, args, _ in _CASES}


def _ids(case):
    return case.__name__ if isinstance(case, type) else None


def test_every_value_type_has_a_case():
    modules = (enc, blk, gs, app, reg)
    value_types = {getattr(m, name) for m in modules for name in m.__all__ if isinstance(getattr(m, name), type)}
    value_types -= {gs.Verdict}
    assert value_types == set(RECORDS)
    assert len(RECORDS) == 36


@pytest.mark.parametrize("cls, fields, args, bad", _CASES, ids=_ids)
class TestRecordContract:
    def test_position_and_keyword_agree(self, cls, fields, args, bad):
        by_position = cls(*args)
        by_keyword = cls(**dict(zip(fields.split(), args)))
        assert type(by_position) is type(by_keyword) is cls
        assert by_position == by_keyword
        assert tuple(getattr(by_position, f) for f in fields.split()) == args

    def test_defaults(self, cls, fields, args, bad):
        names = fields.split()
        defaults = DEFAULTS.get(cls, {})
        required = {f: v for f, v in zip(names, args) if f not in defaults}
        rec = cls(**required)
        assert {f: getattr(rec, f) for f in defaults} == defaults
        if not defaults:
            with pytest.raises(TypeError):
                cls(*args[:-1])

    def test_repr(self, cls, fields, args, bad):
        rec = cls(*args)
        shown = ", ".join(f"{f}={getattr(rec, f)!r}" for f in fields.split())
        assert repr(rec) == f"{cls.__name__}({shown})"

    def test_assignment_refused(self, cls, fields, args, bad):
        rec = cls(*args)
        with pytest.raises(AttributeError):
            setattr(rec, fields.split()[0], args[0])
        with pytest.raises(AttributeError):
            rec.not_a_field = 1.0
        assert cls(*args) == rec

    def test_pickle_round_trip(self, cls, fields, args, bad):
        rec = cls(*args)
        back = pickle.loads(pickle.dumps(rec))
        assert type(back) is cls and back == rec

    def test_replace_and_make_build_through_the_constructor(self, cls, fields, args, bad):
        rec = cls(*args)
        assert type(rec._replace()) is cls and rec._replace() == rec
        assert type(cls._make(args)) is cls and cls._make(args) == rec


@pytest.mark.parametrize("cls, args, want", _INVALID, ids=_ids)
def test_invalid_fields_refused_with_the_documented_message(cls, args, want):
    exc, message = want
    names, valid = _VALID[cls]
    for build in (lambda: cls(*args), lambda: cls._make(args), lambda: cls(*valid)._replace(**dict(zip(names, args)))):
        with pytest.raises(exc) as info:
            build()
        assert type(info.value) is exc and str(info.value) == message


def test_growth_diagnostic_details_default_is_fresh():
    first, second = gs.GrowthDiagnostic(True, None), gs.GrowthDiagnostic(True, None)
    assert first.details == {} and first.details is not second.details


def test_records_are_tuples():
    # the intended change from frozen dataclasses: a record is the tuple of its fields
    q = enc.QuadBound(1.0, 0.5)
    assert q == (1.0, 0.5) and hash(q) == hash((1.0, 0.5))
    assert q == enc.LinBound(1.0, 0.5)
    a, b = q
    assert (a, b, q[0]) == (1.0, 0.5, 1.0)
    assert enc.Gap(0.0, 1.0) < enc.Gap(0.0, 2.0)
    assert len(gs.GapSequence((1.0, 3.0, 5.0), (2.0, 4.0, 6.0))) == 3  # len counts gaps, not fields
