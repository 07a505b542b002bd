import argparse
import gc
import io
import json
import math
import os
import subprocess
import sys
import warnings
from unittest import mock
from contextlib import redirect_stderr, redirect_stdout
from importlib import import_module

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapcert import (
    Gap,
    IsolatedEigSpec,
    QuadBound,
    TwoChannelSpec,
    isolated_eigenvalue_strip,
    perturbed_strip,
    resolvent_bound_strip,
    resolvent_bound_strip_refined,
    two_channel_bound,
)
from gapcert import DiracSpec, _cli_enclosures, cli, envelope_im_at_re
from gapcert.errors import NumericalFailure
from gapcert.matrix_lab import _SUITES


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


class TestStripCommand:
    def test_worked_example(self):
        code, out = run_cli("strip", "--a", "1", "--b", "0", "--alpha", "0", "--beta", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"status": "open", "lo": 1.0, "hi": 2.0, "open": True}

    def test_matches_library_bit_for_bit(self):
        code, out = run_cli("strip", "--a", "0.37", "--b", "0.22", "--alpha", "-1.3", "--beta", "2.1")
        assert code == 0
        doc = json.loads(out)
        res = perturbed_strip(QuadBound(0.37, 0.22), Gap(-1.3, 2.1))
        assert doc["lo"] == res.lo and doc["hi"] == res.hi

    def test_large_b_is_domain_answer(self):
        code, out = run_cli("strip", "--a", "1", "--b", "1.2", "--alpha", "0", "--beta", "3")
        assert code == 0
        assert json.loads(out)["status"] == "not-applicable"

    def test_bad_gap_exits_2(self):
        code, _ = run_cli("strip", "--a", "1", "--b", "0", "--alpha", "3", "--beta", "0")
        assert code == 2

    def test_missing_parameter_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("strip", "--a", "1", "--b", "0")
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == 2

    def test_missing_parameter_names_the_dashed_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("manifold", "--c", "1", "--p", "3", "--case", "1", "--n", "2")
        assert exc.value.code == 2
        assert "missing required parameters: --eps-geom" in capsys.readouterr().err


class TestErrorsNameTheSubcommand:
    """An error found once the subcommand is known prints that subcommand's usage and prog."""

    @pytest.mark.parametrize("argv, doc, message", [
        (["strip", "--a", "1", "--b", "0"], None, "missing required parameters: --alpha, --beta"),
        (["enclose", "--a", "1", "--b", "0", "--re", "1"], None, "--re and --im must be given together"),
        (["kappa", "--lengths", "1,2", "--a-seq", "0,0", "--b-seq", "0,0", "--model", "geometric"], None,
         "--lengths cannot be combined with --model"),
        (["strip", "--a", "1", "--b", "0", "--alpha", "0", "--beta", "3", "extra"], None,
         "unrecognized arguments: extra"),
        (["gaps", "--json"], {"model": "cubic", "delta-a": 0.1}, "unknown band model 'cubic'"),
        (["strip", "--json"], [1, 2], "--json input must be a JSON object"),
        (["strip", "--json"], {"a": 1, "bogus": 2}, "unknown parameter 'bogus' in --json input"),
    ], ids=["missing", "half-point", "exclusive", "trailing", "band-model", "json-array", "json-key"])
    def test_error_prints_the_subcommand_usage(self, argv, doc, message, tmp_path, capsys):
        if doc is not None:
            src = tmp_path / "params.json"
            src.write_text(json.dumps(doc))
            argv = [*argv, str(src)]
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage: gapcert {argv[0]} [-h]")
        assert err.endswith(f"gapcert {argv[0]}: error: {message}\n")


class TestResolventCommand:
    def test_strip_bounds_match_library(self):
        q, gap, z = QuadBound(0.5, 0.1), Gap(0.0, 3.0), complex(1.5, 0.2)
        code, out = run_cli(
            "resolvent", "--a", "0.5", "--b", "0.1", "--re", "1.5", "--im", "0.2",
            "--alpha", "0", "--beta", "3",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["plain"] == resolvent_bound_strip(q, gap, z)
        assert doc["refined"] == resolvent_bound_strip_refined(q, gap, z)

    def test_invalid_point_is_domain_answer(self):
        code, out = run_cli("resolvent", "--a", "0.5", "--b", "0.1", "--re", "0", "--im", "0.1")
        assert code == 0
        assert json.loads(out)["status"] == "not-applicable"

    def test_half_gap_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("resolvent", "--a", "1", "--b", "0", "--re", "0", "--im", "5", "--alpha", "0")
        assert exc.value.code == 2


class TestJsonInput:
    def test_file_input(self, tmp_path):
        src = tmp_path / "params.json"
        src.write_text(json.dumps({"a": 1, "b": 0, "alpha": 0, "beta": 3}))
        code, out = run_cli("strip", "--json", str(src))
        assert code == 0
        assert json.loads(out)["lo"] == 1.0

    def test_flags_override_json(self, tmp_path):
        src = tmp_path / "params.json"
        src.write_text(json.dumps({"a": 1, "b": 0, "alpha": 0, "beta": 3}))
        code, out = run_cli("strip", "--a", "2", "--json", str(src))
        assert json.loads(out)["lo"] == 2.0

    def test_unknown_key_exits_2(self, tmp_path):
        src = tmp_path / "params.json"
        src.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(SystemExit) as exc:
            run_cli("strip", "--json", str(src))
        assert exc.value.code == 2

    @pytest.mark.parametrize("key", ["command", "func", "fallbacks", "json_types", "json"])
    def test_non_parameter_key_exits_2(self, key, tmp_path, capsys):
        src = tmp_path / "params.json"
        src.write_text(json.dumps({"a": 1, "b": 0.2, "alpha": 0, "beta": 5, key: 1}))
        with pytest.raises(SystemExit) as exc:
            run_cli("strip", "--json", str(src))
        assert exc.value.code == 2
        assert f"gapcert strip: error: unknown parameter {key!r} in --json input" in capsys.readouterr().err

    def test_json_switch_matches_flag(self, tmp_path):
        params = {"c": 1, "p": 3, "case": 1, "n": 2, "eps-geom": 0.1}
        src = tmp_path / "params.json"
        src.write_text(json.dumps({**params, "pipeline": True}))
        code, out = run_cli("manifold", "--json", str(src))
        assert code == 0
        flags = [f"--{key}={value}" for key, value in params.items()]
        assert out == run_cli("manifold", "--pipeline", *flags)[1]
        doc = json.loads(out)
        assert "kappa_bound" in doc and "eps0" in doc
        src.write_text(json.dumps({**params, "pipeline": False}))
        assert "kappa_bound" not in json.loads(run_cli("manifold", "--json", str(src))[1])
        src.write_text(json.dumps({**params, "pipeline": "false"}))
        with pytest.raises(SystemExit) as exc:
            run_cli("manifold", "--json", str(src))
        assert exc.value.code == 2

    def test_json_file_is_closed(self, tmp_path):
        src = tmp_path / "params.json"
        src.write_text(json.dumps({"a": 1, "b": 0, "alpha": 0, "beta": 3}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _ = run_cli("strip", "--json", str(src))
            gc.collect()
        assert code == 0
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestEigStripCommand:
    def test_matches_library(self):
        code, out = run_cli(
            "eig-strip", "--a", "0.2", "--b", "0.1", "--lam", "1",
            "--alpha", "-1", "--beta", "3", "--mult", "2",
        )
        doc = json.loads(out)
        want = isolated_eigenvalue_strip(QuadBound(0.2, 0.1), IsolatedEigSpec(1.0, -1.0, 3.0, 2))
        assert (doc["lo"], doc["hi"], doc["count"]) == (want.lo, want.hi, want.count)


class TestTwoChannelCommand:
    def test_matches_library(self):
        code, out = run_cli(
            "two-channel", "--d", "3", "--p", "2.5", "--v12", "1", "--p0", "0.5",
            "--p1", "0.1,0.2,0.3", "--p2", "0,0,0,0,0,0",
        )
        doc = json.loads(out)
        want = two_channel_bound(
            TwoChannelSpec(3, 2.5, 1.0, 0.5, (0.1, 0.2, 0.3), (0.0,) * 6)
        )
        assert doc["lower_bound"] == want.lower_bound
        assert doc["b21"] == want.b21


class TestGapsCommand:
    def test_geometric_verdict(self):
        code, out = run_cli(
            "gaps", "--model", "geometric", "--ratio", "2", "--band-ratio", "1.6",
            "--delta-a", "0.1",
        )
        assert json.loads(out)["verdict"] == "cofinitely_many"

    def test_delta_too_large_is_domain_answer(self):
        code, out = run_cli(
            "gaps", "--model", "geometric", "--ratio", "2", "--band-ratio", "1.6",
            "--delta-a", "1.5",
        )
        assert code == 0
        assert json.loads(out)["status"] == "not-applicable"


INFINITY = object()


def strict_json(text: str, allow=()):
    """Parse text, refusing NaN and Infinity unless named in allow (read as INFINITY)."""
    def constant(token):
        if token in allow:
            return INFINITY
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(text, parse_constant=constant)


class TestBandModelCommands:
    @pytest.mark.parametrize("argv", [
        ("gaps", "--model", "power-log", "--p1", "nan", "--q1", "0", "--delta-a", "0.1"),
        ("gaps", "--model", "power-log", "--p1", "1", "--q1", "0", "--p2", "nan", "--delta-a", "0.1"),
        ("gaps", "--model", "power-log", "--p1", "1", "--q1", "0", "--length-prefactor", "nan",
         "--delta-a", "0.1"),
        ("gaps", "--model", "geometric", "--ratio", "inf", "--band-ratio", "inf", "--delta-a", "0.1"),
        ("gaps", "--model", "geometric", "--ratio", "2", "--band-ratio", "2", "--delta-a", "inf"),
        ("kappa", "--model", "power-log", "--p1", "0", "--q1", "inf", "--a-coeff", "1"),
        ("kappa", "--model", "power-log", "--p1", "1", "--q1", "1", "--a-coeff", "1", "--a-power", "nan"),
        ("powerlaw", "--p1", "2", "--q1", "2", "--a-coeff", "1", "--a-power", "nan"),
        ("powerlaw", "--p1", "2", "--q1", "2", "--b-coeff", "1", "--b-power", "nan"),
        ("manifold", "--c", "1", "--p", "3", "--case", "1", "--n", "5", "--eps-geom", "0.5",
         "--length-prefactor", "nan"),
    ])
    def test_non_finite_input_exits_2(self, argv, capsys):
        code, out = run_cli(*argv)
        assert (code, out) == (2, "")
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, flags", [
        (("--model", "power-log", "--p1", "1", "--q1", "1", "--window", "3"), ("--window", "--model")),
        (("--model", "power-log", "--p1", "1", "--q1", "1", "--alphas", "1,2", "--betas", "1.5,3"),
         ("--model", "--alphas")),
    ])
    def test_conflicting_band_flags_exit_2(self, extra, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("gaps", "--delta-a", "0.1", *extra)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert all(flag in err for flag in flags)

    @pytest.mark.parametrize("argv, flag", [
        (("powerlaw", "--p1", "2", "--q1", "2", "--b-coeff", "1", "--b-power", "nan"), "--b-power"),
        (("powerlaw", "--p1", "2", "--q1", "2", "--a-coeff", "1", "--a-log-power", "inf"),
         "--a-log-power"),
        (("powerlaw", "--p1", "2", "--q1", "2", "--a-coeff", "nan"), "--a-coeff"),
        (("kappa", "--model", "power-log", "--p1", "1", "--q1", "1", "--b-coeff", "1",
          "--b-log-power", "nan"), "--b-log-power"),
    ])
    def test_bad_growth_term_names_its_flag(self, argv, flag, capsys):
        code, out = run_cli(*argv)
        assert (code, out) == (2, "")
        assert f"error: {flag} must be finite" in capsys.readouterr().err

    _LENGTHS = ("kappa", "--lengths", "1,2", "--widths", "1", "--a-seq", "0,0", "--b-seq", "0,0")

    @pytest.mark.parametrize("argv, flags", [
        (_LENGTHS + ("--model", "power-log"), ("--lengths", "--model")),
        (_LENGTHS + ("--alphas", "1,2"), ("--lengths", "--alphas")),
        (_LENGTHS + ("--betas", "1.5,3"), ("--lengths", "--betas")),
        (_LENGTHS + ("--window", "3"), ("--lengths", "--window")),
        (("growth-check", "--model", "geometric", "--ratio", "2", "--band-ratio", "2",
          "--delta-a", "0.1", "--a-coeff", "1", "--a-seq", "1,2", "--b-seq", "0,0"),
         ("--a-coeff", "--a-seq", "--b-seq")),
        (("growth-check", "--model", "geometric", "--ratio", "2", "--band-ratio", "2",
          "--delta-a", "0.1", "--b-coeff", "1", "--a-seq", "1,2"), ("--b-coeff", "--a-seq")),
        (("kappa", "--model", "power-log", "--p1", "1", "--q1", "1", "--a-coeff", "1",
          "--b-seq", "1,1"), ("--b-seq", "--lengths")),
    ])
    def test_ignored_flags_exit_2(self, argv, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert all(flag in err for flag in flags)

    def test_lengths_alone_still_runs(self):
        code, out = run_cli(*self._LENGTHS)
        assert code == 0 and strict_json(out)["status"] == "ok"

    def test_alpha_scale_flag_removed(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("gaps", "--model", "geometric", "--ratio", "2", "--band-ratio", "2",
                    "--alpha-scale", "3", "--delta-a", "0.2")
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, key", [
        (("gaps", "--alphas", "5e-324,1", "--betas", "1,2", "--window", "2", "--delta-a", "0.1"),
         "limsup"),
        (("kappa", "--model", "power-log", "--p1", "0", "--q1", "0", "--a-coeff", "1",
          "--a-power", "2"), "kappa"),
    ])
    def test_infinite_limit_prints_null(self, argv, key):
        code, out = run_cli(*argv)
        assert code == 0
        assert strict_json(out)[key] is None

    def test_infinite_growth_limit_prints_null(self):
        code, out = run_cli("growth-check", "--model", "power-log", "--p1", "0", "--q1", "0",
                            "--a-coeff", "1", "--a-power", "2", "--delta-a", "0")
        assert code == 0
        doc = strict_json(out)
        assert doc["details"] == {"limsup_2a_over_l": None, "exact": True}
        assert doc["ok"] is False

    def test_nan_kappa_exits_3(self):
        code, out = run_cli("kappa", "--lengths", "1e308,1e308,1", "--widths", "1e308,1e308",
                            "--a-seq", "0,0,0", "--b-seq", "0,0,0")
        assert (code, out) == (3, "")

    def test_finite_data_window(self):
        argv = ("gaps", "--alphas", "1,1.1,2.2,4.4", "--betas", "1.05,1.98,3.96,5.28",
                "--delta-a", "0.2")
        narrow = strict_json(run_cli(*argv)[1])
        wide = strict_json(run_cli(*argv, "--window", "4")[1])
        assert narrow["limsup"] == pytest.approx(1.2) and narrow["verdict"] == "inconclusive"
        assert wide["limsup"] == pytest.approx(1.8) and wide["verdict"] == "infinitely_many"


# two draws in three are ordinary inputs, one is an edge case or any float
_NUMBERS = st.one_of(
    st.sampled_from([0.0, 0.2, 0.5, 1.0, 2.0, 3.0]),
    st.floats(0.0, 4.0),
    st.sampled_from([-1.0, 1e308, 5e-324, math.nan, math.inf, -math.inf]) | st.floats(),
)
_VALUES = _NUMBERS.map(repr)
_LISTS = st.lists(_VALUES, min_size=1, max_size=4).map(",".join)
# increasing positive endpoints, alternately alpha_n and beta_n
_FINITE_DATA = st.lists(st.floats(5e-324, 1e308), min_size=2, max_size=8, unique=True).map(sorted).map(
    lambda e: {"--alphas": ",".join(map(repr, e[0:-1:2])), "--betas": ",".join(map(repr, e[1::2]))}
)
_BAND_MODES = [
    st.fixed_dictionaries({"--model": st.just("power-log"), "--p1": _VALUES, "--q1": _VALUES}),
    st.fixed_dictionaries({"--model": st.just("geometric"), "--ratio": _VALUES, "--band-ratio": _VALUES}),
    _FINITE_DATA,
]
_BAND_FLAGS = {
    "--model": st.sampled_from(["power-log", "geometric"]),
    "--p1": _VALUES, "--p2": _VALUES, "--q1": _VALUES, "--q2": _VALUES,
    "--length-prefactor": _VALUES, "--width-prefactor": _VALUES,
    "--ratio": _VALUES, "--band-ratio": _VALUES,
    "--alphas": _LISTS, "--betas": _LISTS, "--window": st.sampled_from(["-1", "0", "1", "2", "1.5"]),
}
_CONST_FLAGS = {
    f"--{c}-{part}": _VALUES for c in "ab" for part in ("coeff", "power", "log-power")
}
_POWER_FLAGS = ("--p1", "--p2", "--q1", "--q2", "--length-prefactor", "--width-prefactor")
_DELTA = {"--delta-a": _VALUES}
# integer flags that set no size: small, huge (beyond a double) and fractional
_INTS = st.one_of(st.integers(-2, 8), st.sampled_from([2**31, 10**200]), st.integers()).map(str) | \
    st.just("1.5")


def _near(lo, hi):
    """Half the draws in [lo, hi], where a call tends to get past its checks; half any value."""
    return st.floats(lo, hi).map(repr) | _VALUES


def _sizes(lo, hi):
    """A size flag: at most hi, so that every example stays fast, often at least lo."""
    return st.integers(lo, hi).map(str) | st.integers(-1, hi).map(str) | st.just("1.5")


_A, _B = _near(0.0, 1.0), _near(0.0, 0.9)
_BELOW, _ABOVE = _near(-3.0, -0.5), _near(0.5, 3.0)
_POINT = {"--re": _near(-3.0, 3.0), "--im": _near(-3.0, 3.0)}
_STRUCTURED = {
    "offdiag": {"--a12": _A, "--b12": _B, "--a21": _A, "--b21": _B, "--alpha": _BELOW, "--beta": _ABOVE},
    "even": {"--a12": _A, "--b12": _B, "--a21": _A, "--b21": _B, "--beta1": _ABOVE, "--beta2": _ABOVE},
    "odd": {"--a11": _A, "--b11": _B, "--a22": _A, "--b22": _B, "--beta": _ABOVE},
}
_REGIONS = {
    "hyperbola": {"--a": _A, "--b": _B},
    "strip": {"--lo": _BELOW, "--hi": _ABOVE},
    "sector": {"--r-eps": _ABOVE, "--half-angle": _near(0.01, 1.5)},
    "coulomb": {"--c1": _near(0.0, 0.5), "--c2": _near(0.0, 0.5), "--mass": _ABOVE},
    "envelope": {"--p": st.lists(_near(2.1, 10.0), min_size=1, max_size=3), "--vnorm": _ABOVE},
}
# verify draws at most 3 instances of order at most 12 on at most 16 coupling
# samples; sample-region and dirac-envelope at most 64 points per segment;
# two-channel a dimension of at most 6
_ENVELOPE = {"--p": _near(2.1, 10.0), "--vnorm": _ABOVE, "--samples": _sizes(2, 64)}
_MANIFOLD = {"--c": _ABOVE, "--p": _near(2.1, 10.0), "--case": st.sampled_from("12") | _INTS,
             "--n": st.integers(2, 10**6).map(str) | _INTS, "--eps-geom": _near(0.01, 0.99)}
_TWO_CHANNEL = {"--d": _sizes(1, 6), "--p": _near(2.0, 8.0), "--v12": _A, "--p0": _A}
_VERIFY = {"--instances": _sizes(1, 3), "--dim-hi": _sizes(4, 12), "--csv": st.just("-")}


def _mode(flags, **fixed):
    """A complete call: these flags, with `fixed` (a dash spelled _) set as given."""
    fixed = {"--" + k.replace("_", "-"): st.just(v) for k, v in fixed.items()}
    return st.tuples(st.fixed_dictionaries({**fixed, **flags}), st.just({}))


def _any(*names):
    return {name: _VALUES for name in names}


# per subcommand: the flag sets that can make a complete call, and the
# flags that may be added to them; a value is a string, a list of strings
# (the flag repeated) or None (a switch)
_FUZZ_MODES = {
    "enclose": [_mode({"--a": _A, "--b": _B}), _mode({"--a": _A, "--b": _B, **_POINT})],
    "strip": [_mode({"--a": _A, "--b": _B, "--alpha": _BELOW, "--beta": _ABOVE})],
    "resolvent": [_mode({"--a": _A, "--b": _B, **_POINT}),
                  _mode({"--a": _A, "--b": _B, "--alpha": _BELOW, "--beta": _ABOVE, **_POINT})],
    "symmetric-gap": [_mode({"--a": _A, "--b": _B, "--beta": _ABOVE}),
                      _mode({"--a": _A, "--b": _B, "--beta": _ABOVE, **_POINT})],
    "gk-cover": [_mode({"--c": _ABOVE, "--p": _near(0.0, 0.95), "--eps": _near(0.01, 1.5)}),
                 _mode({"--c": _ABOVE, "--p": _near(0.0, 0.95), "--eps": _near(0.01, 1.5),
                        "--b": _near(0.0, 0.5)})],
    "eig-strip": [_mode({"--a": _near(0.0, 0.3), "--b": _near(0.0, 0.3), "--lam": _near(-0.5, 0.5),
                         "--alpha": _BELOW, "--beta": _ABOVE, "--mult": _INTS})],
    "gaps": [st.tuples(mode, st.fixed_dictionaries(_DELTA)) for mode in _BAND_MODES],
    "growth-check": [st.tuples(mode, st.fixed_dictionaries(_DELTA)) for mode in _BAND_MODES],
    "kappa": [
        st.tuples(_BAND_MODES[0], st.fixed_dictionaries({"--a-coeff": _VALUES})),
        st.tuples(st.fixed_dictionaries(
            {"--lengths": _LISTS, "--widths": _LISTS, "--a-seq": _LISTS, "--b-seq": _LISTS}
        ), st.just({})),
    ],
    "powerlaw": [st.tuples(st.fixed_dictionaries({"--p1": _VALUES, "--q1": _VALUES}), st.just({}))],
    "structured": [_mode(flags, shape=shape) for shape, flags in _STRUCTURED.items()],
    "dirac-envelope": [_mode(_ENVELOPE), _mode({**_ENVELOPE, "--re": _near(-3.0, 3.0)}),
                       _mode({**_ENVELOPE, "--b-min": _near(0.01, 1.0), "--b-max": _near(1.0, 10.0)},
                             csv="-")],
    "coulomb": [_mode(_REGIONS["coulomb"]), _mode({**_REGIONS["coulomb"], **_POINT})],
    "manifold": [_mode(_MANIFOLD), _mode({**_MANIFOLD, "--pipeline": st.none()})],
    "two-channel": [_mode(_TWO_CHANNEL), _mode({**_TWO_CHANNEL, "--p1": _LISTS, "--p2": _LISTS})],
    "verify": [_mode({k: _VERIFY[k] for k in ("--instances", "--dim-hi")}), _mode(_VERIFY)],
    "sample-region": [_mode({**flags, "--resolution": _sizes(2, 64)}, kind=kind)
                      for kind, flags in _REGIONS.items()],
}
_FUZZ_EXTRAS = {
    "enclose": _any("--a", "--b", "--re", "--im"),
    "strip": _any("--a", "--b", "--alpha", "--beta"),
    "resolvent": _any("--a", "--b", "--re", "--im", "--alpha", "--beta"),
    "symmetric-gap": _any("--a", "--b", "--beta", "--re", "--im"),
    "gk-cover": _any("--c", "--p", "--eps", "--b"),
    "eig-strip": {**_any("--a", "--b", "--lam", "--alpha", "--beta"), "--mult": _INTS},
    "gaps": {**_BAND_FLAGS, **_DELTA},
    "kappa": {**_BAND_FLAGS, **_CONST_FLAGS, "--lengths": _LISTS, "--widths": _LISTS,
              "--a-seq": _LISTS, "--b-seq": _LISTS},
    "growth-check": {**_BAND_FLAGS, **_CONST_FLAGS, **_DELTA, "--a-seq": _LISTS, "--b-seq": _LISTS},
    "powerlaw": {**{flag: _BAND_FLAGS[flag] for flag in _POWER_FLAGS}, **_CONST_FLAGS},
    "structured": {"--shape": st.sampled_from(sorted(_STRUCTURED)),
                   **_any(*{flag for flags in _STRUCTURED.values() for flag in flags})},
    "dirac-envelope": {**_any("--p", "--vnorm", "--b-min", "--b-max", "--re"),
                       "--samples": _sizes(2, 64), "--csv": st.just("-")},
    "coulomb": _any("--c1", "--c2", "--mass", "--re", "--im"),
    "manifold": {**_any("--c", "--p", "--eps-geom", "--length-prefactor", "--width-prefactor"),
                 "--case": _INTS, "--n": _INTS, "--pipeline": st.none()},
    "two-channel": {**_any("--p", "--v12", "--p0"), "--d": _sizes(1, 6), "--p1": _LISTS,
                    "--p2": _LISTS},
    "verify": {"--instances": _sizes(1, 3), "--dim-hi": _sizes(4, 12), "--dim-lo": _sizes(2, 12),
               "--s-points": _sizes(2, 16), "--seed": _INTS, "--widen": _VALUES,
               "--suite": st.sampled_from([*_SUITES, "other"]), "--csv": st.just("-")},
    "sample-region": {"--kind": st.sampled_from(sorted(_REGIONS)), "--resolution": _sizes(2, 64),
                      "--clip": _VALUES, "--p": _VALUES,
                      **_any(*{flag for flags in _REGIONS.values() for flag in flags} - {"--p"})},
}


def _fuzz_argv(cmd):
    extras = _FUZZ_EXTRAS[cmd]
    added = st.lists(st.sampled_from(sorted(extras)), max_size=2, unique=True).flatmap(
        lambda keys: st.fixed_dictionaries({key: extras[key] for key in keys})
    )

    def argv(parts):
        out = [cmd]
        for flag, value in {**parts[0][0], **parts[0][1], **parts[1]}.items():
            if value is None:
                out.append(flag)
            else:
                out.extend(f"{flag}={v}" for v in (value if isinstance(value, list) else [value]))
        return out

    return st.tuples(st.one_of(_FUZZ_MODES[cmd]), added).map(argv)


# stdout of a call that writes CSV to stdout instead of a JSON document
_CSV_HEADERS = {"dirac-envelope": "segment,re,im", "sample-region": "segment,re,im",
                "verify": "instance,check,margin,pass"}


def _flag_value(argv, flag, default):
    values = [a.split("=", 1)[1] for a in argv if a.startswith(flag + "=")]
    return values[-1] if values else default


def _check_csv(argv, text):
    """A CSV of the documented shape: region rows per segment, one suite row per check."""
    lines = text.splitlines()
    assert lines[0] == _CSV_HEADERS[argv[0]], lines[:1]
    rows = [line.split(",") for line in lines[1:]]
    assert rows and all(len(row) == len(lines[0].split(",")) for row in rows)
    if argv[0] == "verify":
        assert all(flag in ("0", "1") and float(margin) == float(margin) for _, _, margin, flag in rows)
        instances = int(_flag_value(argv, "--instances", "500"))
        assert len({name for name, *_ in rows}) == instances
        return
    per_segment = int(_flag_value(argv, "--samples" if argv[0] == "dirac-envelope" else "--resolution",
                                  "256"))
    # each segment is one run of rows under a name no other segment has
    runs = [[rows[0][0], 0]]
    for name, re, im in rows:
        assert math.isfinite(float(re)) and math.isfinite(float(im)), (name, re, im)
        if name != runs[-1][0]:
            runs.append([name, 0])
        runs[-1][1] += 1
    assert len({name for name, _ in runs}) == len(runs), runs
    assert all(count == per_segment for _, count in runs), runs


@pytest.mark.parametrize("cmd", sorted(_FUZZ_MODES))
@given(data=st.data())
@settings(max_examples=30, derandomize=True, database=None, deadline=None)
def test_subcommand_fuzz(cmd, data):
    """Exit 0, 2 or 3 without a traceback; stdout is strict JSON or the documented CSV.

    The one known JSON exception: powerlaw and manifold --pipeline print
    eps0 as Infinity when their kappa_bound is 0.
    """
    argv = data.draw(_fuzz_argv(cmd))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert out.getvalue() == ""
        return
    text = out.getvalue()
    if cmd in _CSV_HEADERS and not text.startswith("{"):
        _check_csv(argv, text)
        return
    allow = ("Infinity",) if cmd in ("powerlaw", "manifold") else ()
    doc = strict_json(text, allow)
    if doc.get("eps0") is INFINITY:
        assert doc["kappa_bound"] == 0.0
    assert all(value is not INFINITY for key, value in doc.items() if key != "eps0")


def _subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _flag_spec(sub):
    return [(a.option_strings, a.dest, a.type, a.default, a.nargs, a.choices, a.const, a.metavar,
             a.help, type(a)) for a in sub._actions]


def _outcome(call, argv):
    """(exit code, stdout, stderr) of call(argv), which may exit through argparse."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestParserParity:
    """A call parses with its own subcommand's parser alone; it is the root's subparser in all but name."""

    @pytest.mark.parametrize("cmd", sorted(_FUZZ_MODES))
    def test_one_subcommand_matches_the_full_parser(self, cmd):
        alone, full = cli._subcommand(cmd)[1], _subcommands(cli.build_parser())[cmd]
        assert alone.prog == full.prog == f"gapcert {cmd}"
        assert alone.format_help() == full.format_help()
        assert _flag_spec(alone) == _flag_spec(full)
        assert alone.params == full.params and alone.fallbacks == full.fallbacks
        assert alone._defaults == full._defaults == {}

    @pytest.mark.parametrize("argv", [["--help"], [], ["no-such-command"], ["-1", "strip"],
                                      ["strip", "--help"], ["strip", "--no-such-flag"]])
    def test_top_level_output_matches_the_full_parser(self, argv):
        """main prints what the root parser prints, or for a subcommand call what its subparser prints."""
        if argv and argv[0] in _FUZZ_MODES:
            full = _subcommands(cli.build_parser())[argv[0]].parse_args
            expected = _outcome(lambda a: full(a[1:]), argv)
        else:
            expected = _outcome(cli.build_parser().parse_args, argv)
        assert _outcome(cli.main, argv) == expected
        assert expected[0] in (0, 2)

    def test_a_subcommand_call_builds_one_parser(self):
        made = []
        init = argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            made.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        with mock.patch.object(argparse.ArgumentParser, "__init__", counting):
            code, _ = run_cli("strip", "--a", "1", "--b", "0", "--alpha", "0", "--beta", "3")
        assert (code, made) == (0, ["gapcert strip"])

    def test_handler_modules_hold_exactly_the_listed_subcommands(self):
        """Each row of cli._COMMANDS names the module whose COMMANDS holds it, and no module holds more."""
        held = {}
        for module in set(cli._COMMANDS.values()):
            for name in import_module(f"gapcert.{module}").COMMANDS:
                held[name] = module
        assert held == cli._COMMANDS

    @pytest.mark.parametrize("cmd", sorted(_FUZZ_MODES))
    def test_every_flag_has_help(self, cmd):
        parser = cli._subcommand(cmd)[1]
        assert all(action.help and action.help.strip() for action in parser._actions)
        assert {a.dest for a in parser._actions} == {"help", "json", *parser.params}


class TestEnvelopeCommand:
    def test_csv_row_count(self, tmp_path):
        out_csv = tmp_path / "env.csv"
        code, out = run_cli(
            "dirac-envelope", "--p", "5", "--vnorm", "1", "--samples", "200",
            "--csv", str(out_csv),
        )
        assert code == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "segment,re,im"
        assert len(lines) == 201
        seg, re, im = lines[1].split(",")
        assert seg == "p=5"
        assert float(re) > 0 and float(im) > 0
        doc = json.loads(out)
        assert doc["rows"] == 200


    def test_near_p_two_is_domain_answer(self):
        code, out = run_cli("dirac-envelope", "--p", "2.01", "--vnorm", "1",
                            "--samples", "4", "--re", "1e-6")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "not-applicable"
        assert "representable" in doc["reason"]

    @pytest.mark.parametrize("re", ["0", "1"])
    def test_overflowing_height_at_re_is_domain_answer(self, re):
        # at re = 0 the bisection is skipped; the height's own overflow is the answer
        code, out = run_cli("dirac-envelope", "--p", "2.015625", "--vnorm", "5", "--samples", "4",
                            "--re", re)
        assert code == 0
        assert json.loads(out)["status"] == "not-applicable"

    def test_overflowing_curve_is_domain_answer(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli("dirac-envelope", "--p", "2.01", "--vnorm", "1", "--samples", "3")
        assert code == 0
        doc = json.loads(out, parse_constant=lambda name: pytest.fail(f"non-JSON {name}"))
        assert doc["status"] == "not-applicable"
        assert "representable" in doc["reason"]


class TestSampleRegion:
    def test_hyperbola_flat_lines(self):
        code, out = run_cli(
            "sample-region", "--kind", "hyperbola", "--a", "1", "--b", "0",
            "--resolution", "7", "--csv", "-",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "segment,re,im"
        rows = [l.split(",") for l in lines[1:]]
        assert len(rows) == 14
        assert {r[0] for r in rows} == {"upper", "lower"}
        assert all(float(r[2]) == 1.0 for r in rows if r[0] == "upper")
        assert all(float(r[2]) == -1.0 for r in rows if r[0] == "lower")

    def test_strip_rectangle_closes(self):
        # four sides counter-clockwise, corner to corner: the last row is the first
        code, out = run_cli(
            "sample-region", "--kind", "strip", "--lo", "1", "--hi", "2",
            "--clip", "20", "--resolution", "3", "--csv", "-",
        )
        assert code == 0
        assert out.splitlines()[1:] == [
            "bottom,1.0,-20.0", "bottom,1.5,-20.0", "bottom,2.0,-20.0",
            "right,2.0,-20.0", "right,2.0,0.0", "right,2.0,20.0",
            "top,2.0,20.0", "top,1.5,20.0", "top,1.0,20.0",
            "left,1.0,20.0", "left,1.0,0.0", "left,1.0,-20.0",
        ]

    @pytest.mark.parametrize("clip", ["20", "1e20"])
    def test_strip_corners_at_two_samples(self, clip):
        # a width far below the height's rounding keeps its corners apart
        code, out = run_cli("sample-region", "--kind", "strip", "--lo", "1", "--hi", "2",
                            "--clip", clip, "--resolution", "2", "--csv", "-")
        assert code == 0
        c = repr(float(clip))
        assert out.splitlines()[1:] == [
            f"bottom,1.0,-{c}", f"bottom,2.0,-{c}", f"right,2.0,-{c}", f"right,2.0,{c}",
            f"top,2.0,{c}", f"top,1.0,{c}", f"left,1.0,{c}", f"left,1.0,-{c}",
        ]

    @pytest.mark.parametrize("ends", [("--lo=-0.0", "--hi", "1"), ("--lo=-1", "--hi=-0.0")])
    @pytest.mark.parametrize("resolution", ["2", "3"])
    def test_strip_end_at_negative_zero(self, ends, resolution):
        # an end of -0.0 is written as 0.0 on every side, so the two sides at a corner write it alike
        code, out = run_cli("sample-region", "--kind", "strip", *ends, "--resolution", resolution,
                            "--clip", "1", "--csv", "-")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert not any(value == "-0.0" for row in rows for value in row[1:])
        sides = [rows[k : k + int(resolution)] for k in range(0, len(rows), int(resolution))]
        assert [side[0][0] for side in sides] == ["bottom", "right", "top", "left"]
        for side, following in zip(sides, sides[1:] + sides[:1]):
            assert side[-1][1:] == following[0][1:]

    def test_strip_with_huge_ends_stays_finite(self):
        # the default clip is 6.7e153: squaring the rectangle's sides would overflow
        code, out = run_cli(
            "sample-region", "--kind", "strip", "--lo=-6.703903964971299e+152", "--hi", "1",
            "--resolution", "2", "--csv", "-",
        )
        assert code == 0
        lo, clip = "-6.703903964971299e+152", "6.703903964971299e+153"
        assert out.splitlines()[1:] == [
            f"bottom,{lo},-{clip}", f"bottom,1.0,-{clip}", f"right,1.0,-{clip}", f"right,1.0,{clip}",
            f"top,1.0,{clip}", f"top,{lo},{clip}", f"left,{lo},{clip}", f"left,{lo},-{clip}",
        ]

    def test_coulomb_with_huge_mass_stays_finite(self):
        # the default clip, ten times the largest input, squares past the largest double
        code, out = run_cli(
            "sample-region", "--kind", "coulomb", "--c1", "0", "--c2", "0",
            "--mass", "1.3407807929942598e+153", "--resolution", "2",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        hw, clip = "1.3407807929942598e+153", "1.3407807929942597e+154"
        assert [(name, re) for name, re, _ in rows] == [
            (f"{side}-{part}", sign + re)
            for side, sign in (("right", ""), ("left", "-"))
            for part, ends in (("chord", (hw, hw)), ("upper", (hw, clip)), ("lower", (hw, clip)))
            for re in ends
        ]
        assert all(float(im) == 0.0 for *_, im in rows)

    def test_hyperbola_with_huge_a_stays_finite(self):
        # a**2 overflows; with a small clip b re is negligible, so hypot gives
        # the height a / sqrt(1 - b^2) to the last bit
        code, out = run_cli("sample-region", "--kind", "hyperbola", "--a", "1e200", "--b", "0.5",
                            "--resolution", "3", "--clip", "1e10")
        assert code == 0
        heights = {float(line.split(",")[2]) for line in out.strip().split("\n")[1:]}
        assert heights == {1e200 / math.sqrt(0.75), -1e200 / math.sqrt(0.75)}

    def test_hyperbola_with_overflowing_span_stays_finite(self):
        # clip - (-clip) overflows; the samples are taken at half scale and doubled
        code, out = run_cli("sample-region", "--kind", "hyperbola", "--a", "1", "--b", "0.5",
                            "--resolution", "3", "--clip", "1e308")
        assert code == 0
        assert out.splitlines()[1:] == [
            "upper,-1e+308,5.773502691896258e+307",
            "upper,0.0,1.1547005383792515",
            "upper,1e+308,5.773502691896258e+307",
            "lower,-1e+308,-5.773502691896258e+307",
            "lower,0.0,-1.1547005383792515",
            "lower,1e+308,-5.773502691896258e+307",
        ]

    def test_strip_with_overflowing_side_stays_finite(self):
        # 2 * clip overflows; the vertical sides are taken at half scale and doubled
        code, out = run_cli("sample-region", "--kind", "strip", "--lo", "1", "--hi", "2",
                            "--resolution", "3", "--clip", "1e308")
        assert code == 0
        assert out.splitlines()[1:] == [
            "bottom,1.0,-1e+308", "bottom,1.5,-1e+308", "bottom,2.0,-1e+308",
            "right,2.0,-1e+308", "right,2.0,0.0", "right,2.0,1e+308",
            "top,2.0,1e+308", "top,1.5,1e+308", "top,1.0,1e+308",
            "left,1.0,1e+308", "left,1.0,0.0", "left,1.0,-1e+308",
        ]

    def test_default_clip_stops_at_the_largest_double(self):
        # ten times --r-eps 1e308 is beyond the doubles: the default clip is 1.7976931348623157e+308
        code, out = run_cli("sample-region", "--kind", "sector", "--r-eps", "1e308", "--half-angle", "0.4",
                            "--resolution", "3")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 15
        ne = [(float(re), float(im)) for name, re, im in rows if name == "sector-ne"]
        assert math.hypot(*ne[-1]) == pytest.approx(1.7976931348623157e308, rel=1e-15)
        assert all(math.isfinite(float(v)) for _, re, im in rows for v in (re, im))

    def test_coulomb_six_segments(self, tmp_path):
        out_csv = tmp_path / "cl.csv"
        code, out = run_cli(
            "sample-region", "--kind", "coulomb", "--c1", "0.2", "--c2", "0.1",
            "--mass", "1", "--resolution", "9", "--csv", str(out_csv),
        )
        doc = json.loads(out)
        assert doc["segments"] == 6
        assert doc["rows"] == 54
        lines = out_csv.read_text().strip().split("\n")
        assert len(lines) == 55

    def test_sector_five_segments(self):
        code, out = run_cli(
            "sample-region", "--kind", "sector", "--r-eps", "2", "--half-angle", "0.4",
            "--resolution", "5", "--csv", "-",
        )
        names = {l.split(",")[0] for l in out.strip().split("\n")[1:]}
        assert names == {"ball", "sector-ne", "sector-se", "sector-nw", "sector-sw"}

    def test_envelope_one_segment_per_p(self):
        code, out = run_cli(
            "sample-region", "--kind", "envelope", "--p", "5", "--p", "7",
            "--vnorm", "1", "--resolution", "11", "--csv", "-",
        )
        lines = out.strip().split("\n")[1:]
        assert len(lines) == 22
        assert {l.split(",")[0] for l in lines} == {"p=5", "p=7"}

    def test_envelope_repeated_segment_name_exits_2(self, capsys):
        # 3 and 3.0000001 print alike under the segment name's %g
        for second in ("3", "3.0000001"):
            with pytest.raises(SystemExit) as exc:
                run_cli("sample-region", "--kind", "envelope", "--p", "3", "--p", second,
                        "--vnorm", "1", "--resolution", "2")
            assert exc.value.code == 2
            assert "--p values must give distinct segment names" in capsys.readouterr().err

    def test_envelope_rows_are_re_im(self):
        code, out = run_cli(
            "sample-region", "--kind", "envelope", "--p", "5", "--vnorm", "1",
            "--resolution", "11", "--csv", "-",
        )
        assert code == 0
        rows = [l.split(",") for l in out.strip().split("\n")[1:]]
        at_zero = [float(im) for _, re, im in rows if float(re) == 0.0]
        assert at_zero == [envelope_im_at_re(DiracSpec(1.0, 5.0), 0.0)]
        assert at_zero[0] == pytest.approx(0.6584, abs=1e-4)

    def test_envelope_near_p_two_is_domain_answer(self):
        code, out = run_cli("sample-region", "--kind", "envelope", "--p", "2.01",
                            "--vnorm", "1", "--resolution", "4")
        assert code == 0
        assert json.loads(out)["status"] == "not-applicable"

    def test_invalid_sector_exits_2(self):
        code, out = run_cli("sample-region", "--kind", "sector", "--r-eps", "2",
                            "--half-angle", "-1", "--resolution", "5")
        assert code == 2
        assert out == ""

    def test_unbounded_without_clip_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("sample-region", "--kind", "hyperbola", "--a", "0", "--b", "0",
                    "--resolution", "4")
        assert exc.value.code == 2

    def test_resolution_too_small_exits_2(self):
        code, _ = run_cli("sample-region", "--kind", "hyperbola", "--a", "1", "--b", "0",
                          "--resolution", "1")
        assert code == 2


class TestVerifyCommand:
    def test_small_suite(self, tmp_path):
        out_csv = tmp_path / "suite.csv"
        code, out = run_cli(
            "verify", "--instances", "8", "--dim-hi", "12", "--seed", "3",
            "--csv", str(out_csv),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["instances"] == 8
        assert doc["failures"] == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "instance,check,margin,pass"
        assert len(lines) == 1 + doc["checks"]

    @pytest.mark.parametrize("argv, name", [
        (("--s-points", "0"), "s_points"),
        (("--s-points", "1"), "s_points"),
        (("--widen", "nan"), "widen"),
        (("--instances", "0"), "count"),
        (("--dim-lo", "10", "--dim-hi", "5"), "dim_lo must not exceed dim_hi"),
        (("--dim-lo", "1", "--dim-hi", "3"), "dim_lo"),
        (("--dim-hi", "65"), "dim_hi"),
    ])
    def test_bad_grid_or_count_exits_2(self, argv, name, capsys):
        code, out = run_cli("verify", "--instances", "3", *argv)
        assert code == 2 and out == ""
        assert name in capsys.readouterr().err

    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("verify", "--suite", "exotic", "--instances", "2")
        assert exc.value.code == 2
        assert "valid suites: standard, isolated" in capsys.readouterr().err

    def test_isolated_suite_counts_on_every_instance(self):
        code, out = run_cli("verify", "--suite", "isolated", "--instances", "3", "--dim-hi", "12",
                            "--csv", "-")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        counted = {name for name, check, _, flag in rows if check == "eig-count" and flag == "1"}
        assert counted == {f"isolated-{k:04d}" for k in range(3)}


class TestIntegerFlags:
    @pytest.mark.parametrize("argv", [
        ("verify", "--instances", "2.7"),
        ("eig-strip", "--a", "0.2", "--b", "0.1", "--lam", "1", "--alpha", "-1",
         "--beta", "3", "--mult", "1.5"),
        ("two-channel", "--d", "1.5", "--p", "2.5", "--v12", "1", "--p0", "0.5"),
        ("dirac-envelope", "--p", "5", "--vnorm", "1", "--samples", "2.9"),
    ])
    def test_fractional_value_exits_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2

    def test_fractional_json_value_exits_2(self, tmp_path):
        src = tmp_path / "params.json"
        src.write_text(json.dumps({"a": 0.2, "b": 0.1, "lam": 1, "alpha": -1, "beta": 3, "mult": 1.5}))
        with pytest.raises(SystemExit) as exc:
            run_cli("eig-strip", "--json", str(src))
        assert exc.value.code == 2

    def test_integer_json_value_accepted(self, tmp_path):
        src = tmp_path / "params.json"
        src.write_text(json.dumps({"a": 0.2, "b": 0.1, "lam": 1, "alpha": -1, "beta": 3, "mult": 2}))
        code, out = run_cli("eig-strip", "--json", str(src))
        assert code == 0
        assert json.loads(out)["count"] == 2


class TestPointFlags:
    @pytest.mark.parametrize("argv", [
        ("enclose", "--a", "1", "--b", "0.5", "--re", "3"),
        ("symmetric-gap", "--a", "0.2", "--b", "0.1", "--beta", "2", "--im", "2"),
        ("coulomb", "--c1", "0.2", "--c2", "0.1", "--mass", "1", "--re", "0.2"),
    ])
    def test_half_given_point_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert "--re and --im must be given together" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", [
        ("symmetric-gap", "--a", "0", "--b", "0", "--beta", "1"),
        ("resolvent", "--a", "1", "--b", "0"),
    ])
    def test_non_finite_point_exits_2(self, cmd, capsys):
        code, out = run_cli(*cmd, "--re", "nan", "--im", "1")
        assert (code, out) == (2, "")
        assert "--re must be finite" in capsys.readouterr().err


class TestNegativeValues:
    """A negative value parses the same after its flag as after "=" (repr writes -1e-05, -6.7e+152)."""

    @pytest.mark.parametrize("argv, flag, value", [
        (("strip", "--a", "0", "--b", "0.5", "--beta", "1"), "--alpha", "-1e-3"),
        (("enclose", "--a", "1", "--b", "0.1", "--im", "3"), "--re", "-1E2"),
        (("gaps", "--betas", "-2,2,8", "--delta-a", "0.1"), "--alphas", "-3,1,4"),
        (("gaps", "--alphas=-3,1,4", "--delta-a", "0.1"), "--betas", "-2,2,8"),
        (("strip", "--a", "0", "--b", "0.5", "--beta", "1"), "--alpha", "-.5"),
        (("sample-region", "--kind", "strip", "--hi", "1", "--resolution", "2"), "--lo",
         "-6.703903964971299e+152"),
    ])
    def test_separate_value_matches_equals_form(self, argv, flag, value):
        joined = run_cli(*argv, f"{flag}={value}")
        assert joined[0] == 0
        assert run_cli(*argv, flag, value) == joined

    def test_minus_inf_exits_2_naming_the_flag(self, capsys):
        code, out = run_cli("strip", "--a", "0", "--b", "0.5", "--alpha", "-inf", "--beta", "1")
        assert (code, out) == (2, "")
        assert "alpha" in capsys.readouterr().err


class TestExitCodes:
    def test_refined_bound_failure_exits_3(self):
        code, out = run_cli("resolvent", "--a", "8e307", "--b", "0", "--re", "0", "--im", "0",
                            "--alpha=-1.7e308", "--beta", "1.7e308")
        assert code == 3
        assert out == ""

    @pytest.mark.parametrize("argv", [
        # math.pow overflows in the subordination family
        ("gk-cover", "--c", "1e308", "--p", "0.5", "--eps", "1"),
        # the strip's ends overflow to -inf and inf
        ("structured", "--shape", "offdiag", "--a12", "0", "--b12", "0", "--a21", "0", "--b21", "0",
         "--alpha", "-1", "--beta", "1e308"),
        # a nonzero kappa_bound so small that eps0 overflows
        ("powerlaw", "--p1", "1", "--q1", "0.2", "--a-power", "1", "--a-coeff", "5e-324"),
        ("symmetric-gap", "--a", "0", "--b", "0", "--beta", "1e-235", "--re", "0", "--im", "0"),
        ("two-channel", "--d", "1", "--p", "2", "--v12", "0", "--p0", "1e308"),
    ])
    def test_overflow_exits_3(self, argv, capsys):
        code, out = run_cli(*argv)
        assert (code, out) == (3, "")
        assert capsys.readouterr().err.startswith("numerical failure")

    def test_huge_eps_is_a_bad_parameter(self, capsys):
        code, out = run_cli("gk-cover", "--c", "0", "--p", "0", "--eps", "1.3407807929942597e+154")
        assert (code, out) == (2, "")
        assert "eps must lie in (0, pi/2)" in capsys.readouterr().err

    def test_numerical_failure_exits_3(self, monkeypatch):
        def boom(args, parser):
            raise NumericalFailure("synthetic")

        helptext, _, flags = _cli_enclosures.COMMANDS["enclose"]
        monkeypatch.setitem(_cli_enclosures.COMMANDS, "enclose", (helptext, boom, flags))
        code, _ = run_cli("enclose", "--a", "1", "--b", "0")
        assert code == 3


def test_scalar_commands_never_import_numpy():
    """strip, coulomb and structured run on the package root without numpy."""
    script = "\n".join([
        "import sys",
        "from gapcert.cli import main",
        "assert main(['strip', '--a', '1', '--b', '0', '--alpha', '0', '--beta', '3']) == 0",
        "assert main(['coulomb', '--c1', '0.2', '--c2', '0.1', '--mass', '1']) == 0",
        "assert main(['structured', '--shape', 'odd', '--a11', '0.3', '--b11', '0.1',"
        " '--a22', '0.2', '--b22', '0.2', '--beta', '2']) == 0",
        "assert 'numpy' not in sys.modules, 'numpy was imported'",
    ])
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
