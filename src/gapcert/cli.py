"""Command-line front end: bounds as JSON, region boundaries as CSV.

Every numeric in the output serializes in round-trip form, so piping a
result back into a test compares bit-for-bit with the library call.
Conditional results carry a status field (open / closed / not-applicable);
a failed applicability condition is a domain answer, not an error exit.
Parameter problems exit 2, numerical failures (float overflow or division
by zero among them) exit 3.  Here are the shared helpers and one row per
subcommand (_COMMANDS) naming the module that holds its one-line help,
handler and flags, one module per library module called
(_cli_enclosures, ...).  A call that names a
subcommand imports that module alone and parses with its flags alone;
help and errors before a subcommand name take the root parser, which
builds every subcommand's.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from contextlib import nullcontext
from importlib import import_module

from .errors import ConditionNotApplicable, NumericalFailure, require_finite

__all__ = ["main"]


def _floats(value) -> tuple[float, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(float(v) for v in value)
    parts = [p for p in str(value).replace(";", ",").split(",") if p.strip()]
    return tuple(float(p) for p in parts)


# the exact JSON types --json may give a flag, by its argparse action or type,
# and their name in an error; true is no number, and a list must hold numbers
_JSON_TYPES = {
    int: ((int,), "an integer"),
    "store_true": ((bool,), "true or false"),
    float: ((int, float), "a number"),
    "append": ((int, float, list), "a number or a list of numbers"),
}


def _admits(types: tuple[type, ...], value) -> bool:
    """Whether a JSON value has one of the exact types; the items of a list must be numbers."""
    if type(value) is list:
        return list in types and all(type(v) in (int, float) for v in value)
    return type(value) in types


def _merge_json(parser: _Subcommand, args: argparse.Namespace) -> None:
    """Fill unset flags from --json, then from the subcommand's declared defaults."""
    src = args.json
    doc = {}
    if src:
        try:
            with nullcontext(sys.stdin) if src == "-" else open(src, encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            parser.error(f"cannot read --json input: {exc}")
        except json.JSONDecodeError as exc:
            parser.error(f"--json input is not valid JSON: {exc}")
        if not isinstance(doc, dict):
            parser.error("--json input must be a JSON object")
    for key, value in doc.items():
        dest = key.replace("-", "_")
        if dest not in parser.params:
            parser.error(f"unknown parameter {key!r} in --json input")
        want = parser.params[dest]
        if want is not None and not _admits(want[0], value):
            parser.error(f"parameter {key!r} must be {want[1]}, got {value!r}")
        if getattr(args, dest) is None:
            setattr(args, dest, value)
    for dest, value in parser.fallbacks.items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)


def _need(parser: argparse.ArgumentParser, args: argparse.Namespace, *names: str) -> None:
    """Exit 2 naming every flag of `names` left unset; an empty list (an appended flag given [] by --json) is unset."""
    missing = ["--" + n.replace("_", "-") for n in names if getattr(args, n.replace("-", "_")) in (None, [])]
    if missing:
        parser.error("missing required parameters: " + ", ".join(missing))


def _exclusive(parser, args, first: tuple[str, ...], second: tuple[str, ...]) -> None:
    """Exit 2 when flags of both groups are set, since the handler would ignore the second group."""
    def given(names):
        return ["--" + n.replace("_", "-") for n in names if getattr(args, n) is not None]

    used, ignored = given(first), given(second)
    if used and ignored:
        parser.error(f"{', '.join(used)} cannot be combined with {', '.join(ignored)}")


def _point(parser, args) -> complex | None:
    """z = --re + i --im, None when neither is given; exit 2 when only one is."""
    if (args.re is None) != (args.im is None):
        parser.error("--re and --im must be given together")
    if args.re is None:
        return None
    return complex(require_finite("--re", args.re), require_finite("--im", args.im))


def _inf_as_null(doc: dict) -> dict:
    """doc with each infinite limit as None: strict JSON has no Infinity."""
    return {
        key: None if isinstance(value, float) and math.isinf(value) else value
        for key, value in doc.items()
    }


def _json_text(doc: dict) -> str:
    """doc as JSON; a NaN or infinity is a numerical failure, bar eps0 = Infinity at kappa_bound 0."""
    documented = doc.get("eps0") == math.inf and doc.get("kappa_bound") == 0.0
    try:
        json.dumps({**doc, "eps0": None} if documented else doc, allow_nan=False)
    except ValueError:
        raise NumericalFailure("a result overflowed or is undefined in floating point") from None
    return json.dumps(doc)


def _write_csv(path: str, text: str, mode: str = "w"):
    """Write text to --csv's path, or to stdout for "-" (then None); an unwritable path is a ValueError naming --csv."""
    if path == "-":
        sys.stdout.write(text)
        return None
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write --csv output: {exc}") from None
    return path


def _check_csv(path: str | None) -> None:
    """Raise _write_csv's ValueError now if --csv's path cannot be opened to write; no file is created or changed."""
    if path not in (None, "-"):
        created = not os.path.exists(path)
        _write_csv(path, "", mode="a")
        if created:
            os.remove(path)


# ---------------------------------------------------------------------------
# parser


# Values argparse would otherwise take for flags ("-1e-3", "-inf", "-3,1,4");
# no gapcert flag starts with "-" and a digit, ".", inf or nan
_NEGATIVE_VALUE = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

# argparse kwargs of the flag rows: (flag, kwargs, help[, default])
_F = {"type": float}
_I = {"type": int}
_S = {}


class _Subcommand(argparse.ArgumentParser):
    """One subcommand's parser, built from its (flag, argparse kwargs, help[, default]) rows.

    Every flag parses to None when absent, so --json can fill it; a declared
    default applies after that (see _merge_json).  A negative value may
    follow its flag as the next argument or after "=".
    """

    def __init__(self, *args, flags, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_VALUE
        # params: dest -> its _JSON_TYPES row (None: any); fallbacks: dest -> its declared default
        self.params, self.fallbacks = {}, {}
        for flag, spec, helptext, *default in flags:
            dest = self.add_argument(flag, help=helptext, **spec).dest
            self.params[dest] = _JSON_TYPES.get(spec.get("action"), _JSON_TYPES.get(spec.get("type")))
            if default:
                self.fallbacks[dest] = default[0]
        self.add_argument("--json", metavar="FILE", help="read parameters from a JSON object ('-' for stdin)")


# One row per subcommand: the module that holds its one-line help, handler
# and flag rows (as COMMANDS[name] there).  A call imports the module of
# the subcommand it runs, and no other.
_COMMANDS = {
    "enclose": "_cli_enclosures",
    "strip": "_cli_enclosures",
    "resolvent": "_cli_enclosures",
    "symmetric-gap": "_cli_enclosures",
    "gk-cover": "_cli_enclosures",
    "eig-strip": "_cli_enclosures",
    "gaps": "_cli_gap_sequences",
    "kappa": "_cli_gap_sequences",
    "growth-check": "_cli_gap_sequences",
    "powerlaw": "_cli_gap_sequences",
    "structured": "_cli_blocks",
    "dirac-envelope": "_cli_applications",
    "coulomb": "_cli_applications",
    "manifold": "_cli_applications",
    "two-channel": "_cli_applications",
    "verify": "_cli_matrix_lab",
    "sample-region": "_cli_regions",
}


def _row(name: str):
    """(one-line help, handler, flag rows) of subcommand name, from the module that holds them."""
    return import_module(f".{_COMMANDS[name]}", __package__).COMMANDS[name]


def _subcommand(name: str):
    """The handler of subcommand name and a parser of its flags alone."""
    _, run, flags = _row(name)
    return run, _Subcommand(prog=f"gapcert {name}", flags=flags)


def build_parser() -> argparse.ArgumentParser:
    """The root parser, with a subparser of its flags for every subcommand.

    It imports every handler module; main uses it only when the first
    argument names no subcommand (help, no argument, an unknown name, an
    option first).
    """
    parser = argparse.ArgumentParser(
        prog="gapcert",
        description="certified spectral enclosures for relatively bounded perturbations",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    for name in _COMMANDS:
        helptext, _, flags = _row(name)
        sub.add_parser(name, help=helptext, flags=flags)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _COMMANDS:
        run, parser = _subcommand(argv[0])
        args = parser.parse_args(argv[1:])
    else:
        # help, no argument, an unknown name or an option first: the root
        # parser prints the help or the error and exits
        args = build_parser().parse_args(argv)
        run, parser = _subcommand(args.command)
    _merge_json(parser, args)
    try:
        doc = run(args, parser)
        text = None if doc is None else _json_text(doc)
    except ConditionNotApplicable as exc:
        print(json.dumps({"status": "not-applicable", "reason": str(exc)}))
        return 0
    except (NumericalFailure, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if text is not None:
        print(text)
    return 0


if __name__ == "__main__":
    # run as `python -m gapcert.cli`: the handler modules import their
    # helpers from gapcert.cli, which is this module, not a second copy
    sys.modules[__spec__.name] = sys.modules[__name__]
    sys.exit(main())
