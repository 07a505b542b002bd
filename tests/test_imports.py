"""What a fresh interpreter imports, and how the package root resolves names.

The package root imports nothing and looks each public name up in the
module that exports it; the CLI imports, per subcommand, its handler
module and the library modules that subcommand calls.  Import contracts
run in subprocesses, since this process has every module loaded already.
"""

import json
import os
import subprocess
import sys

import pytest

import gapcert
from gapcert import cli, enclosures

_EXPORTERS = ("errors", "enclosures", "gap_sequences", "blocks", "applications", "matrix_lab")
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")]))
# heavy standard modules a certificate process should not load: numpy, and
# dataclasses with the inspect (ast, dis, tokenize) it pulls in
_HEAVY = ("numpy", "dataclasses", "inspect")
# prints the gapcert modules a process holds, plus each of _HEAVY it has loaded
_REPORT = (
    "\nimport json, sys\n"
    "print(json.dumps([m for m in sys.modules if m == 'gapcert' or m.startswith('gapcert.')]"
    f" + [m for m in {_HEAVY!r} if m in sys.modules]))\n"
)
# runs each command of the JSON list in argv[1] in this process, each exiting 0
_RUN_CLI = (
    "import contextlib, io, json, sys\n"
    "from gapcert.cli import main\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        assert main(argv) == 0, argv\n"
)
# one complete call per subcommand but verify, the only one that needs numpy;
# sample-region has one per kind in REGION_CALLS
SCALAR_CALLS = {
    "enclose": ["--a", "1", "--b", "0.2", "--re", "1", "--im", "3"],
    "strip": ["--a", "1", "--b", "0", "--alpha", "0", "--beta", "3"],
    "resolvent": ["--a", "0.1", "--b", "0", "--re", "1.5", "--im", "0.5", "--alpha", "0", "--beta", "3"],
    "symmetric-gap": ["--a", "0.1", "--b", "0.1", "--beta", "2", "--re", "0", "--im", "0.5"],
    "gk-cover": ["--c", "1", "--p", "0.5", "--eps", "0.5"],
    "eig-strip": ["--a", "0.2", "--b", "0.1", "--lam", "1", "--alpha", "-1", "--beta", "3", "--mult", "2"],
    "gaps": ["--model", "geometric", "--ratio", "2", "--band-ratio", "1.6", "--delta-a", "0.1"],
    "kappa": ["--lengths", "1,2,3", "--widths", "1,1", "--a-seq", "0.1,0.1,0.1", "--b-seq", "0.1,0.1,0.1"],
    "growth-check": ["--model", "power-log", "--p1", "1", "--q1", "0.5", "--delta-a", "0",
                     "--a-coeff", "1", "--a-power", "1", "--b-coeff", "1", "--b-power", "-1"],
    "powerlaw": ["--p1", "1", "--q1", "0.5", "--a-coeff", "1", "--a-power", "1", "--b-coeff", "1",
                 "--b-power", "-1"],
    "structured": ["--shape", "odd", "--a11", "0.3", "--b11", "0.1", "--a22", "0.2", "--b22", "0.2",
                   "--beta", "2"],
    "coulomb": ["--c1", "0.2", "--c2", "0.1", "--mass", "1", "--re", "0", "--im", "0"],
    "manifold": ["--c", "1", "--p", "5", "--case", "1", "--n", "10", "--eps-geom", "0.5", "--pipeline"],
    "two-channel": ["--d", "2", "--p", "3", "--v12", "0.5", "--p0", "0.5"],
    "dirac-envelope": ["--p", "5", "--vnorm", "1", "--samples", "16", "--re", "1", "--csv", "-"],
}
REGION_CALLS = {
    "hyperbola": ["--a", "1", "--b", "0.3"],
    "strip": ["--lo", "1", "--hi", "2"],
    "sector": ["--r-eps", "2", "--half-angle", "0.4"],
    "coulomb": ["--c1", "0.2", "--c2", "0.1", "--mass", "1"],
    "envelope": ["--p", "5", "--p", "7", "--vnorm", "1"],
}
# what every subcommand call loads, besides its handler module and its library modules
_CLI_MODULES = {"gapcert", "gapcert.cli", "gapcert.errors"}
_STRIP_MODULES = _CLI_MODULES | {"gapcert._cli_enclosures", "gapcert.enclosures"}
# the library modules each library module imports when it loads
_LIBRARY_IMPORTS = {"enclosures": (), "gap_sequences": (), "blocks": ("enclosures",),
                    "applications": ("enclosures",), "regions": ("enclosures",)}
# python -m gapcert.cli with argv[1:]; reports what the run registered as gapcert.cli
_RUN_MODULE = (
    "import contextlib, io, runpy, sys\n"
    "sys.argv[0] = 'gapcert'\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    try:\n"
    "        runpy.run_module('gapcert.cli', run_name='__main__', alter_sys=True)\n"
    "    except SystemExit as exc:\n"
    "        assert exc.code in (0, None), exc.code\n"
    "print(sys.modules['gapcert.cli'].__name__)\n"
)


def _loaded(code: str, *args: str) -> set[str]:
    """The gapcert modules (and those of _HEAVY) a fresh interpreter holds after running code."""
    proc = subprocess.run([sys.executable, "-c", code + _REPORT, *args], env=_ENV,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _cli_loads(*commands: str, kinds: tuple[str, ...] = ()) -> set[str]:
    argvs = [[cmd, *SCALAR_CALLS[cmd]] for cmd in commands]
    argvs += [["sample-region", "--kind", kind, "--resolution", "16", *REGION_CALLS[kind]] for kind in kinds]
    return _loaded(_RUN_CLI, json.dumps(argvs))


@pytest.fixture(scope="module")
def every_scalar_call_loads() -> set[str]:
    """What one process loads over every scalar subcommand call and region kind, run once for the tests that read it."""
    return _cli_loads(*SCALAR_CALLS, kinds=tuple(REGION_CALLS))


class TestImportContracts:
    def test_strip_loads_enclosures_and_errors_only(self):
        assert _cli_loads("strip") == _STRIP_MODULES

    # module: the library modules the call uses (strip has its own test above);
    # dirac-envelope's call writes its curve with --csv, which takes regions' CSV writer
    @pytest.mark.parametrize("cmd, module", [
        *[(cmd, "enclosures") for cmd in ("enclose", "resolvent", "symmetric-gap", "gk-cover", "eig-strip")],
        *[(cmd, "gap_sequences") for cmd in ("gaps", "kappa", "growth-check", "powerlaw")],
        ("structured", "blocks"), ("dirac-envelope", "applications,regions"), ("coulomb", "applications"),
        ("manifold", "applications,gap_sequences"), ("two-channel", "applications"),
    ])
    def test_subcommand_adds_only_its_module(self, cmd, module):
        """Its handler module and library modules, and no other handler module: so gaps,
        kappa, growth-check and powerlaw load no enclosures."""
        libraries = {m for lib in module.split(",") for m in (lib, *_LIBRARY_IMPORTS[lib])}
        handler = cli._COMMANDS[cmd]
        assert _cli_loads(cmd) == _CLI_MODULES | {f"gapcert.{handler}"} | {f"gapcert.{m}" for m in libraries}

    def test_root_help_loads_every_handler_module_but_no_numpy(self):
        loaded = _loaded("import contextlib, io\nfrom gapcert.cli import main\n"
                         "with contextlib.redirect_stdout(io.StringIO()):\n"
                         "    try:\n        main(['--help'])\n    except SystemExit:\n        pass\n")
        assert {f"gapcert.{handler}" for handler in cli._COMMANDS.values()} <= loaded
        assert "numpy" not in loaded and "gapcert.matrix_lab" not in loaded

    def test_module_run_registers_itself_as_gapcert_cli(self):
        """python -m gapcert.cli: the handler module's imports reach the running copy, not a second one."""
        proc = subprocess.run([sys.executable, "-c", _RUN_MODULE, "strip", *SCALAR_CALLS["strip"]], env=_ENV,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, "__main__\n"), proc.stderr

    def test_no_scalar_subcommand_imports_numpy(self, every_scalar_call_loads):
        assert "numpy" not in every_scalar_call_loads

    def test_no_scalar_subcommand_imports_dataclasses_or_inspect(self, every_scalar_call_loads):
        assert not every_scalar_call_loads & {"dataclasses", "inspect"}

    def test_certificate_modules_import_no_dataclasses_or_inspect(self):
        loaded = _loaded("from gapcert import applications, blocks, cli, enclosures, gap_sequences, regions")
        assert not loaded & {"dataclasses", "inspect"}

    @pytest.mark.parametrize("kind", ["hyperbola", "strip", "sector"])
    def test_region_kind_loads_no_applications(self, kind):
        assert _cli_loads(kinds=(kind,)) == _CLI_MODULES | {"gapcert._cli_regions", "gapcert.regions",
                                                            "gapcert.enclosures"}

    @pytest.mark.parametrize("kind", ["envelope", "coulomb"])
    def test_region_kind_adds_only_applications(self, kind):
        assert _cli_loads(kinds=(kind,)) == _CLI_MODULES | {"gapcert._cli_regions", "gapcert.regions",
                                                            "gapcert.enclosures", "gapcert.applications"}

    def test_regions_imports_no_numpy(self):
        assert _loaded("import gapcert.regions") == {"gapcert", "gapcert.regions", "gapcert.enclosures",
                                                     "gapcert.errors"}

    def test_submodules_through_the_root_import_no_numpy(self):
        loaded = _loaded("from gapcert import applications, blocks, cli, enclosures, gap_sequences")
        assert "numpy" not in loaded and "gapcert.matrix_lab" not in loaded

    def test_matrix_lab_loads_every_certificate_module(self):
        loaded = _loaded("import gapcert.matrix_lab")
        assert {f"gapcert.{m}" for m in ("enclosures", "blocks", "gap_sequences", "applications")} <= loaded


class TestRootResolution:
    def test_every_exported_name_is_the_module_object(self):
        for name in _EXPORTERS:
            module = getattr(gapcert, name)
            assert module.__all__
            for public in module.__all__:
                assert getattr(gapcert, public) is getattr(module, public), (name, public)

    def test_star_import_yields_every_exported_name(self):
        namespace = {}
        exec("from gapcert import *", namespace)
        for name in _EXPORTERS:
            module = getattr(gapcert, name)
            assert all(namespace[public] is getattr(module, public) for public in module.__all__)

    def test_lookup_follows_a_rebound_module_attribute(self, monkeypatch):
        original = enclosures.perturbed_strip

        def wrapper(*args, **kwargs):
            return original(*args, **kwargs)

        monkeypatch.setattr(enclosures, "perturbed_strip", wrapper)
        assert gapcert.perturbed_strip is wrapper
        monkeypatch.undo()
        assert gapcert.perturbed_strip is original

    def test_unknown_and_private_names_raise_attribute_error(self):
        for name in ("no_such_certificate", "_EXPORTERS_", "__wrapped__"):
            with pytest.raises(AttributeError, match=name):
                getattr(gapcert, name)
