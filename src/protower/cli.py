"""Command line surface: configuration, dispatch and report emission.

Each command is one entry of ``suites.CHECKS``. ``run`` resolves the
configuration (defaults, the spec's run directive, then flags), echoes it
in the report header and turns an AlgebraError raised by a check into a
failed record.

Exit codes: 0 when every check in the run passed, 1 when any check
failed, 2 for configuration errors (unparsable files, unresolved names,
invalid parameters).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from importlib import resources

from .core_algebra import AlgebraError, StructuralError, TruncationError
from .report import RunReport, emit_trace
from .specfile import SpecFile, load_specfile
from .suites import CHECKS, _error_record

DEFAULTS = {
    "horizon": 5,
    "tol": 1e-10,
    "cluster_tol": 1e-8,
    "threshold": 1e6,
    "probes": 50,
    "seed": 7,
    "branch": math.pi,
    "trace_length": 50,
}

COMMANDS = tuple(CHECKS)


def bundled_spec_path() -> str:
    return str(resources.files("protower").joinpath("data/bundled.json"))


def _resolve_config(command: str, spec: SpecFile, overrides: dict) -> dict:
    cfg = dict(DEFAULTS)
    cfg.update(spec.run_defaults(command))
    cfg.update({k: v for k, v in overrides.items() if v is not None})
    cfg["command"] = command
    return cfg


_CONFIG_KEYS = (
    "spec", "horizon", "tol", "cluster_tol", "threshold", "probes", "seed",
    "branch", "trace_length", "element", "tower", "space", "blocks",
    "kernel_levels", "function", "index", "t", "coeffs",
)


def run(command: str, spec: SpecFile, overrides: dict) -> RunReport:
    """Run one command's checks against a parsed spec file."""
    if command not in CHECKS:
        raise StructuralError(f"unknown command {command!r}")
    cfg = _resolve_config(command, spec, overrides)
    echo = {k: cfg[k] for k in _CONFIG_KEYS if cfg.get(k) is not None}
    echo["spec"] = spec.origin
    try:
        records = CHECKS[command](spec, cfg)
    except (StructuralError, TruncationError):
        raise
    except AlgebraError as exc:
        records = [_error_record(command, exc)]
    return RunReport(command=command, config=echo, records=records)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protower",
        description=(
            "Towers of finite-dimensional C*-algebras: norms, spectra, "
            "functional calculus, bounded parts, duality and unitary "
            "factorizations."),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--spec", default=None, help="tower description file")
        p.add_argument("--horizon", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="write the JSONL report here")
        p.add_argument("--threshold", type=float, default=None)
        p.add_argument("--probes", type=int, default=None)
        p.add_argument("--element", default=None)
        p.add_argument("--tower", default=None)
        p.add_argument("--space", default=None)
        p.add_argument("--blocks", default=None,
                       help="comma-separated 0-based block indices")
        p.add_argument("--kernel-level", action="append", type=int,
                       dest="kernel_levels")
        p.add_argument("--branch", type=float, default=None)
        p.add_argument("--function", default=None,
                       choices=("poly", "squash", "expi", "arg"))
        p.add_argument("--index", type=int, default=None)
        p.add_argument("--t", type=float, default=None)
        p.add_argument("--coeffs", default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {
        key: getattr(args, key, None)
        for key in _CONFIG_KEYS if key != "spec"}
    if overrides.get("blocks") is not None:
        overrides["blocks"] = [int(b) for b in str(args.blocks).split(",")]
    try:
        spec_path = args.spec or bundled_spec_path()
        spec = load_specfile(spec_path)
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
