"""Command line surface: spec-file ingestion, checks, report emission.

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

from .bounded_functor import check_exactness, kernel_quotient_check, quotient_iso_check
from .calculus import lift_function, pro_spectrum, seminorm, uniform_norm
from .core_algebra import (
    AlgebraError,
    ExpI,
    Polynomial,
    PrincipalArg,
    RationalSquash,
    StructuralError,
    TruncationError,
    distance,
)
from .gelfand import duality_roundtrip
from .randomness import stream
from .report import RunReport, emit_trace
from .specfile import SpecFile, load_specfile
from .suites import paper_example_records, selftest_records
from .tower import closed_ideal, project
from .unitary import exp_selfadjoint, identity_component_check, unitary_log

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

COMMANDS = (
    "norm", "spectrum", "bounded", "funcalc", "check-exact", "quotient-iso",
    "gelfand-roundtrip", "unitary-log", "exp-factor", "paper-examples",
    "selftest",
)


def bundled_spec_path() -> str:
    return str(resources.files("protower").joinpath("data/bundled.json"))


def _resolve_config(command: str, spec: SpecFile, overrides: dict) -> dict:
    cfg = dict(DEFAULTS)
    cfg.update(spec.run_defaults(command))
    cfg.update({k: v for k, v in overrides.items() if v is not None})
    cfg["command"] = command
    return cfg


def _need(cfg: dict, key: str):
    value = cfg.get(key)
    if value is None:
        raise StructuralError(
            f"command {cfg['command']!r} needs {key!r} (flag or run directive)")
    return value


def _constant_selector(tower, blocks, horizon):
    blocks = [int(b) for b in blocks]
    return [
        frozenset(b for b in blocks if 0 <= b < tower.level(p).num_blocks)
        for p in range(1, horizon + 1)]


def _verdict_details(v) -> dict:
    return {
        "status": v.status, "bound": v.bound, "certificate": v.certificate,
        "witness_level": v.witness_level, "witness_value": v.witness_value,
        "lower_bound": v.lower_bound, "horizon": v.horizon,
    }


def _cmd_norm(spec, cfg, report):
    e = spec.element(_need(cfg, "element"))
    v = uniform_norm(e, int(cfg["horizon"]), float(cfg["threshold"]))
    report.add("uniform-norm", "norm", True, **_verdict_details(v))


def _cmd_bounded(spec, cfg, report):
    from .bounded_functor import bounded_part

    e = spec.element(_need(cfg, "element"))
    v = uniform_norm(e, int(cfg["horizon"]), float(cfg["threshold"]))
    tagged = bounded_part(e, int(cfg["horizon"]), float(cfg["threshold"]))
    report.add(
        "bounded-part", "bounded", True,
        member=tagged is not None, **_verdict_details(v))


def _cmd_spectrum(spec, cfg, report):
    e = spec.element(_need(cfg, "element"))
    rep = pro_spectrum(e, int(cfg["horizon"]), float(cfg["cluster_tol"]))
    report.add(
        "pro-spectrum", "spectrum", True,
        points=list(rep.points), radius=rep.radius, horizon=rep.horizon)


def _make_function(cfg):
    kind = _need(cfg, "function")
    if kind == "squash":
        return RationalSquash(int(cfg.get("index", 1)))
    if kind == "expi":
        return ExpI(float(cfg.get("t", 1.0)))
    if kind == "arg":
        return PrincipalArg(float(cfg["branch"]))
    if kind == "poly":
        coeffs = cfg.get("coeffs")
        if coeffs is None:
            raise StructuralError("funcalc with 'poly' needs --coeffs")
        if isinstance(coeffs, str):
            coeffs = [float(c) for c in coeffs.split(",")]
        return Polynomial.in_z(coeffs)
    raise StructuralError(f"unknown function kind {kind!r}")


def _cmd_funcalc(spec, cfg, report):
    e = spec.element(_need(cfg, "element"))
    f = _make_function(cfg)
    horizon = int(cfg["horizon"])
    lifted = lift_function(e, f)
    norms = [seminorm(lifted, p) for p in range(1, lifted.max_level(horizon) + 1)]
    rep = pro_spectrum(lifted, horizon, float(cfg["cluster_tol"]))
    report.add(
        "functional-calculus", "funcalc", True,
        function=type(f).__name__, level_norms=norms,
        spectrum=list(rep.points), radius=rep.radius)


def _cmd_check_exact(spec, cfg, report):
    tower = spec.tower(_need(cfg, "tower"))
    horizon = min(int(cfg["horizon"]), tower.horizon)
    finite = tower.finite_prefix(horizon)
    dec = closed_ideal(finite, _constant_selector(
        finite, _need(cfg, "blocks"), horizon))
    rng = stream(int(cfg["seed"]), "check-exact")
    rep = check_exactness(
        dec.inclusion, dec.quotient_map, probes=int(cfg["probes"]),
        horizon=horizon, tol=float(cfg["tol"]), rng=rng,
        trace_length=int(cfg["trace_length"]))
    report.add(
        "exactness", "check-exact", rep.verdict_original and rep.verdict_bounded,
        composite_residual=rep.composite_residual,
        level_residuals=list(rep.level_residuals),
        verdict_original=rep.verdict_original,
        verdict_bounded=rep.verdict_bounded)
    report.add(
        "squash-trace", "check-exact", rep.traces_within_bound,
        probes=len(rep.traces),
        leading_trace_values=[list(t[:5]) for t in rep.traces[:3]])


def _cmd_quotient_iso(spec, cfg, report):
    tower = spec.tower(_need(cfg, "tower"))
    horizon = min(int(cfg["horizon"]), tower.horizon)
    rng = stream(int(cfg["seed"]), "quotient-iso")
    rep = quotient_iso_check(
        tower, _constant_selector(tower, _need(cfg, "blocks"), horizon),
        horizon=horizon, tol=float(cfg["tol"]), rng=rng,
        probes=int(cfg["probes"]))
    report.add(
        "block-ideal-quotient-iso", "quotient-iso", rep.passed,
        max_residual=rep.max_residual)
    for p in cfg.get("kernel_levels") or []:
        rep = kernel_quotient_check(
            tower, int(p), horizon=horizon, tol=float(cfg["tol"]),
            rng=stream(int(cfg["seed"]), f"kernel-{p}"),
            probes=int(cfg["probes"]))
        report.add(
            f"seminorm-kernel-quotient-p{p}", "quotient-iso", rep.passed,
            level=int(p), max_residual=rep.max_residual)


def _cmd_gelfand(spec, cfg, report):
    probes = int(cfg["probes"])
    tol = float(cfg["tol"])
    ran = False
    if cfg.get("space"):
        space = spec.space(cfg["space"])
        rep = duality_roundtrip(
            space, space.horizon, tol,
            stream(int(cfg["seed"]), "gelfand-space"), probes)
        report.add(
            "covered-space-roundtrip", "gelfand-roundtrip", rep.passed,
            max_residual=rep.max_residual, bijection_ok=rep.bijection_ok,
            family_ok=rep.family_ok)
        ran = True
    if cfg.get("tower"):
        tower = spec.tower(cfg["tower"])
        horizon = min(int(cfg["horizon"]), tower.horizon)
        rep = duality_roundtrip(
            tower, horizon, tol,
            stream(int(cfg["seed"]), "gelfand-tower"), probes)
        report.add(
            "commutative-tower-roundtrip", "gelfand-roundtrip", rep.passed,
            max_residual=rep.max_residual)
        ran = True
    if not ran:
        raise StructuralError(
            "gelfand-roundtrip needs a space or a commutative tower")


def _cmd_unitary_log(spec, cfg, report):
    e = spec.element(_need(cfg, "element"))
    horizon = int(cfg["horizon"])
    tol = float(cfg["tol"])
    log = unitary_log(e, float(cfg["branch"]), tol=tol, horizon=horizon)
    back = exp_selfadjoint(log, 1.0)
    residual = max(
        distance(project(back, p), project(e, p))
        for p in range(1, e.max_level(horizon) + 1))
    report.add(
        "unitary-log", "unitary-log", residual <= 10 * tol,
        branch=float(cfg["branch"]), residual=residual,
        log_norms=[seminorm(log, p) for p in range(1, e.max_level(horizon) + 1)])


def _cmd_exp_factor(spec, cfg, report):
    e = spec.element(_need(cfg, "element"))
    fact = identity_component_check(
        e, int(cfg["horizon"]), tol=float(cfg["tol"]))
    report.add(
        "exponential-factorization", "exp-factor", fact.valid,
        factors=len(fact.factors), residual=fact.residual,
        branch_angles=list(fact.branch_angles), coherent=fact.coherent)


def _cmd_paper_examples(spec, cfg, report):
    report.records.extend(paper_example_records(spec, int(cfg["seed"])))


def _cmd_selftest(spec, cfg, report):
    report.records.extend(selftest_records(spec, int(cfg["seed"])))


_HANDLERS = {
    "norm": _cmd_norm,
    "spectrum": _cmd_spectrum,
    "bounded": _cmd_bounded,
    "funcalc": _cmd_funcalc,
    "check-exact": _cmd_check_exact,
    "quotient-iso": _cmd_quotient_iso,
    "gelfand-roundtrip": _cmd_gelfand,
    "unitary-log": _cmd_unitary_log,
    "exp-factor": _cmd_exp_factor,
    "paper-examples": _cmd_paper_examples,
    "selftest": _cmd_selftest,
}

_CONFIG_KEYS = (
    "spec", "horizon", "tol", "cluster_tol", "threshold", "probes", "seed",
    "branch", "trace_length", "element", "tower", "space", "blocks",
    "kernel_levels", "function", "index", "t", "coeffs",
)


def run(command: str, spec: SpecFile, overrides: dict) -> RunReport:
    """Dispatch one command against a parsed spec file."""
    if command not in _HANDLERS:
        raise StructuralError(f"unknown command {command!r}")
    cfg = _resolve_config(command, spec, overrides)
    echo = {k: cfg[k] for k in _CONFIG_KEYS if cfg.get(k) is not None}
    echo["spec"] = spec.origin
    report = RunReport(command=command, config=echo)
    try:
        _HANDLERS[command](spec, cfg, report)
    except (StructuralError, TruncationError):
        raise
    except AlgebraError as exc:
        report.add(
            f"{command}-error", command, False,
            error=str(exc), error_type=type(exc).__name__)
    return report


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
