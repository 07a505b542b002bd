import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

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
from gapcert import DiracSpec, cli, envelope_im_at_re
from gapcert.errors import NumericalFailure


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
        code, out = run_cli(
            "sample-region", "--kind", "strip", "--lo", "1", "--hi", "2",
            "--clip", "5", "--resolution", "33", "--csv", "-",
        )
        lines = out.strip().split("\n")[1:]
        assert len(lines) == 33
        first, last = lines[0].split(","), lines[-1].split(",")
        assert (first[1], first[2]) == (last[1], last[2])

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

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("verify", "--suite", "exotic", "--instances", "2")
        assert exc.value.code == 2


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


class TestExitCodes:
    def test_refined_bound_failure_exits_3(self):
        code, out = run_cli("resolvent", "--a", "8e307", "--b", "0", "--re", "0", "--im", "0",
                            "--alpha=-1.7e308", "--beta", "1.7e308")
        assert code == 3
        assert out == ""

    def test_numerical_failure_exits_3(self, monkeypatch):
        def boom(args, parser):
            raise NumericalFailure("synthetic")

        monkeypatch.setattr(cli, "_cmd_enclose", boom)
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
