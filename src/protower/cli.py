"""Command line surface: parameters, dispatch and report emission.

``PARAMS`` gives every parameter its default, its type and its flag, and
each ``suites.CHECKS`` entry names the parameters its check reads. A
command takes flags for those only; ``run`` resolves them (defaults, the
spec's run directive, then flags) through ``specfile.fields``, the checker
of every spec entry, echoes them in the report header and turns an
AlgebraError raised by a check into a failed record.

Exit codes: 0 when every check in the run passed, 1 when any check
failed, 2 for configuration errors (unparsable files, unresolved names,
unknown flags or keys, invalid values).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from importlib import resources
from typing import Any, Callable, NamedTuple

from .core_algebra import AlgebraError, StructuralError, TruncationError
from .report import RunReport, emit_trace
from .specfile import SpecFile, fields, load_specfile
from .suites import CHECKS, _error_record

COMMANDS = tuple(CHECKS)


def _int(value) -> int:
    """An integer from a flag's text or a directive's value, not a float."""
    if isinstance(value, (bool, float)):
        raise TypeError(value)
    return int(value)


def _level(value) -> int:
    level = _int(value)
    if level < 1:
        raise ValueError(value)
    return level


def _list_of(item):
    """Comma-separated text or a list, converted item by item."""
    return lambda value: [
        item(v) for v in (value.split(",") if isinstance(value, str) else value)]


class Param(NamedTuple):
    default: Any
    type: Callable  # raises TypeError or ValueError on a bad value
    flag: str
    help: str | None = None


PARAMS = {
    "element": Param(None, str, "--element"),
    "tower": Param(None, str, "--tower"),
    "space": Param(None, str, "--space"),
    "blocks": Param(None, _list_of(_int), "--blocks",
                    "comma-separated 0-based block indices"),
    "kernel_levels": Param(None, _list_of(_int), "--kernel-level",
                           "a seminorm kernel level; repeat for more"),
    "horizon": Param(5, _level, "--horizon"),
    "tol": Param(1e-10, float, "--tol"),
    "cluster_tol": Param(1e-8, float, "--cluster-tol"),
    "threshold": Param(1e6, float, "--threshold"),
    "probes": Param(50, _int, "--probes"),
    "seed": Param(7, _int, "--seed"),
    "trace_length": Param(50, _int, "--trace-length"),
    "branch": Param(math.pi, float, "--branch"),
    "function": Param(None, str, "--function", "poly, squash, expi or arg"),
    "index": Param(1, _int, "--index"),
    "t": Param(1.0, float, "--t"),
    "coeffs": Param(None, _list_of(float), "--coeffs",
                    "comma-separated coefficients, constant first"),
}


def bundled_spec_path() -> str:
    return str(resources.files("protower").joinpath("data/bundled.json"))


def _resolve_config(command: str, spec: SpecFile, overrides: dict) -> dict:
    """The command's parameters from defaults, directive and overrides; an
    undeclared key or an unconvertible value raises StructuralError."""
    if command not in CHECKS:
        raise StructuralError(f"unknown command {command!r}")
    schema = {key: PARAMS[key] for key in CHECKS[command][1]}
    cfg = fields(spec.run_defaults(command), schema,
                 f"the {command} run directive")
    return fields(overrides, {k: p._replace(default=cfg[k])
                              for k, p in schema.items()}, f"{command} (flags)")


def run(command: str, spec: SpecFile, overrides: dict) -> RunReport:
    """Run one command's checks against a parsed spec file."""
    cfg = _resolve_config(command, spec, overrides)
    try:
        records = CHECKS[command][0](spec, cfg)
    except TruncationError:
        raise
    except StructuralError as exc:
        raise StructuralError(f"{command}: {exc}") from None
    except AlgebraError as exc:
        records = [_error_record(command, exc)]
    return RunReport(
        command=command, config={**cfg, "spec": spec.origin}, records=records)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protower",
        description=(
            "Towers of finite-dimensional C*-algebras: norms, spectra, "
            "functional calculus, bounded parts, duality and unitary "
            "factorizations."),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, declared) in CHECKS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--spec", help="tower description file")
        p.add_argument("--out", help="write the JSONL report here")
        for key in declared:
            p.add_argument(
                PARAMS[key].flag, dest=key, help=PARAMS[key].help,
                action="append" if key == "kernel_levels" else "store")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {key: getattr(args, key) for key in CHECKS[args.command][1]}
    try:
        spec = load_specfile(args.spec or bundled_spec_path())
        for command in spec.runs:
            _resolve_config(command, spec, {})
        report = run(args.command, spec, overrides)
    except json.JSONDecodeError as exc:
        print(f"spec parse error at line {exc.lineno}, column {exc.colno}: "
              f"{exc.msg}", file=sys.stderr)
        return 2
    except (StructuralError, TruncationError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    print(report.summary())
    if args.out:
        try:
            emit_trace(report, args.out)
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return 2
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
