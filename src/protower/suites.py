"""The check registry: every command's checks and the bundled suites.

``CHECKS`` maps each command name, in the order the command line lists
them, to ``(check, params)``: a function ``(spec, cfg) ->
list[CheckRecord]`` and the names of the parameters it reads. ``cfg``
holds exactly those names, typed by ``cli.PARAMS`` (None where a name has
no default and was not given). ``paper-examples`` and ``selftest`` read
only the seed: they run the suites below, whose sizes are fixed and which
also back the acceptance tests. A rule that decides a report's pass is a
property of that report type, so the command line, the suites and the
tests judge each check the same way.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from .bounded_functor import check_exactness, kernel_quotient_check, quotient_iso_check
from .calculus import (
    _level_seminorms,
    is_spectrally_bounded,
    lift_function,
    pro_spectrum,
    seminorm,
    uniform_norm,
)
from .core_algebra import (
    DEFAULT_CLUSTER_TOL,
    BlockAlgebra,
    ExpI,
    Polynomial,
    PrincipalArg,
    RationalSquash,
    StructuralError,
    _adjoint_stack,
    _normal_calculus,
    _spectra,
    _spectral_radii,
    _stack_distances,
    _stack_norms,
    _stacked,
    apply_function,
    hausdorff_distance,
    one_sided_hausdorff,
    spectrum,
)
from .gelfand import _evaluate, character_space, duality_roundtrip
from .randomness import (
    random_element,
    random_normal,
    random_unitary,
    random_unitary_near_identity,
    stream,
)
from .report import CheckRecord
from .tower import closed_ideal, coherent_from_top, make_product_tower, project
from .unitary import (
    _unitary_log,
    identity_component_check,
    largest_gap_branch,
    single_level_log,
)

__all__ = [
    "CHECKS",
    "shift_example_records",
    "exactness_records",
    "quotient_records",
    "gelfand_records",
    "unitary_suite_records",
    "core_invariant_records",
    "paper_example_records",
    "selftest_records",
]


def _need(cfg: dict, key: str):
    if cfg[key] is None:
        raise StructuralError(f"needs {key!r} (flag or run directive)")
    return cfg[key]


def _constant_selector(tower, blocks, horizon):
    return [
        frozenset(b for b in blocks if 0 <= b < tower.level(p).num_blocks)
        for p in range(1, horizon + 1)]


def _make_function(cfg):
    kind = _need(cfg, "function")
    if kind == "squash":
        return RationalSquash(cfg["index"])
    if kind == "expi":
        return ExpI(cfg["t"])
    if kind == "arg":
        return PrincipalArg(cfg["branch"])
    if kind == "poly":
        return Polynomial.in_z(_need(cfg, "coeffs"))
    raise StructuralError(f"unknown function kind {kind!r}")


def _error_record(command: str, exc: Exception) -> CheckRecord:
    """The failed record of a command whose check raised ``exc``."""
    return CheckRecord(
        f"{command}-error", command, False,
        {"error": str(exc), "error_type": type(exc).__name__})


def _check_norm(spec, cfg) -> list[CheckRecord]:
    e = spec.element(_need(cfg, "element"))
    v = uniform_norm(e, cfg["horizon"], cfg["threshold"])
    return [CheckRecord("uniform-norm", "norm", True, asdict(v))]


def _check_spectrum(spec, cfg) -> list[CheckRecord]:
    e = spec.element(_need(cfg, "element"))
    rep = pro_spectrum(e, cfg["horizon"], cfg["cluster_tol"])
    return [CheckRecord(
        "pro-spectrum", "spectrum", True,
        {"points": list(rep.points), "radius": rep.radius,
         "horizon": rep.horizon})]


def _check_bounded(spec, cfg) -> list[CheckRecord]:
    e = spec.element(_need(cfg, "element"))
    v = uniform_norm(e, cfg["horizon"], cfg["threshold"])
    # bounded_part admits the element exactly when this verdict is bounded
    return [CheckRecord(
        "bounded-part", "bounded", True,
        {"member": v.is_bounded, **asdict(v)})]


def _check_funcalc(spec, cfg) -> list[CheckRecord]:
    e = spec.element(_need(cfg, "element"))
    f = _make_function(cfg)
    horizon = cfg["horizon"]
    lifted = lift_function(e, f)
    norms = _level_seminorms(lifted, lifted.max_level(horizon))
    rep = pro_spectrum(lifted, horizon, cfg["cluster_tol"])
    return [CheckRecord(
        "functional-calculus", "funcalc", True,
        {"function": type(f).__name__, "level_norms": norms,
         "spectrum": list(rep.points), "radius": rep.radius})]


def _check_exact(spec, cfg) -> list[CheckRecord]:
    tower = spec.tower(_need(cfg, "tower"))
    horizon = min(cfg["horizon"], tower.horizon)
    finite = tower.finite_prefix(horizon)
    dec = closed_ideal(finite, _constant_selector(
        finite, _need(cfg, "blocks"), horizon))
    rep = check_exactness(
        dec.inclusion, dec.quotient_map, probes=cfg["probes"],
        horizon=horizon, tol=cfg["tol"], rng=stream(cfg["seed"], "check-exact"),
        trace_length=cfg["trace_length"])
    return [
        CheckRecord(
            "exactness", "check-exact", rep.exact,
            {"composite_residual": rep.composite_residual,
             "level_residuals": list(rep.level_residuals),
             "verdict_original": rep.verdict_original,
             "verdict_bounded": rep.verdict_bounded}),
        CheckRecord(
            "squash-trace", "check-exact", rep.traces_within_bound,
            {"probes": len(rep.traces),
             "leading_trace_values": [list(t[:5]) for t in rep.traces[:3]]}),
    ]


def _check_quotient_iso(spec, cfg) -> list[CheckRecord]:
    tower = spec.tower(_need(cfg, "tower"))
    horizon = min(cfg["horizon"], tower.horizon)
    tol, seed, probes = cfg["tol"], cfg["seed"], cfg["probes"]
    rep = quotient_iso_check(
        tower, _constant_selector(tower, _need(cfg, "blocks"), horizon),
        horizon=horizon, tol=tol, rng=stream(seed, "quotient-iso"),
        probes=probes)
    records = [CheckRecord(
        "block-ideal-quotient-iso", "quotient-iso", rep.passed,
        {"max_residual": rep.max_residual})]
    for p in cfg["kernel_levels"] or []:
        rep = kernel_quotient_check(
            tower, p, horizon=horizon, tol=tol,
            rng=stream(seed, f"kernel-{p}"), probes=probes)
        records.append(CheckRecord(
            f"seminorm-kernel-quotient-p{p}", "quotient-iso", rep.passed,
            {"level": p, "max_residual": rep.max_residual}))
    return records


def _check_gelfand(spec, cfg) -> list[CheckRecord]:
    if not (cfg["space"] or cfg["tower"]):
        raise StructuralError("needs a space or a commutative tower")
    probes, tol = cfg["probes"], cfg["tol"]
    records = []
    if cfg["space"]:
        space = spec.space(cfg["space"])
        rep = duality_roundtrip(
            space, space.horizon, tol, stream(cfg["seed"], "gelfand-space"),
            probes)
        records.append(CheckRecord(
            "covered-space-roundtrip", "gelfand-roundtrip", rep.passed,
            {"max_residual": rep.max_residual, "bijection_ok": rep.bijection_ok,
             "family_ok": rep.family_ok}))
    if cfg["tower"]:
        tower = spec.tower(cfg["tower"])
        rep = duality_roundtrip(
            tower, min(cfg["horizon"], tower.horizon), tol,
            stream(cfg["seed"], "gelfand-tower"), probes)
        records.append(CheckRecord(
            "commutative-tower-roundtrip", "gelfand-roundtrip", rep.passed,
            {"max_residual": rep.max_residual}))
    return records


def _check_unitary_log(spec, cfg) -> list[CheckRecord]:
    e = spec.element(_need(cfg, "element"))
    horizon, tol, branch = cfg["horizon"], cfg["tol"], cfg["branch"]
    log, residual = _unitary_log(e, branch, tol, horizon)
    return [CheckRecord(
        "unitary-log", "unitary-log", residual <= 10 * tol,
        {"branch": branch, "residual": residual,
         "log_norms": _level_seminorms(log, e.max_level(horizon))})]


def _check_exp_factor(spec, cfg) -> list[CheckRecord]:
    e = spec.element(_need(cfg, "element"))
    fact = identity_component_check(e, cfg["horizon"], tol=cfg["tol"])
    return [CheckRecord(
        "exponential-factorization", "exp-factor", fact.valid,
        {"factors": len(fact.factors), "residual": fact.residual,
         "branch_angles": list(fact.branch_angles), "coherent": fact.coherent})]


def shift_example_records(spec, seed: int) -> list[CheckRecord]:
    """The quasinilpotent shift: zero spectrum but unbounded norms."""
    shift = spec.element("shift")
    records = []

    report = pro_spectrum(shift, horizon=200)
    spectrum_ok = (
        len(report.points) == 1
        and abs(report.points[0]) <= 1e-10
        and report.radius <= 1e-10)
    records.append(CheckRecord(
        "shift-spectrum-zero", "quasinilpotent-shift", spectrum_ok,
        {"points": list(report.points), "radius": report.radius,
         "horizon": report.horizon}))

    verdict = uniform_norm(shift, horizon=200, divergence_threshold=100.0)
    seminorm_ok = all(
        abs(seminorm(shift, n + 1) - n) <= 1e-10 for n in (1, 5, 25))
    witness_ok = (
        verdict.is_unbounded
        and abs(verdict.witness_value - (verdict.witness_level - 1)) <= 1e-10)
    records.append(CheckRecord(
        "shift-unbounded-witness", "quasinilpotent-shift",
        witness_ok and seminorm_ok,
        {"witness_level": verdict.witness_level,
         "witness_value": verdict.witness_value,
         "seminorm_identity_sampled": seminorm_ok}))

    spectral = is_spectrally_bounded(shift, horizon=200)
    records.append(CheckRecord(
        "shift-spectrally-bounded-but-not-bounded", "quasinilpotent-shift",
        spectral.is_bounded and spectral.bound == 0.0 and verdict.is_unbounded,
        {"spectral_bound": spectral.bound,
         "spectral_certificate": spectral.certificate,
         "norm_status": verdict.status}))
    return records


def exactness_records(spec, seed: int, probes: int = 20) -> list[CheckRecord]:
    """Block-ideal short exact sequence and the squash approximation trace."""
    tower = spec.tower("wide-product")
    dec = closed_ideal(tower, [frozenset({0})] * tower.horizon)
    rng = stream(seed, "exactness")
    report = check_exactness(
        dec.inclusion, dec.quotient_map, probes=probes,
        horizon=tower.horizon, tol=1e-10, rng=rng)
    records = [CheckRecord(
        "ideal-sequence-exact", "block-ideal-exactness", report.exact,
        {"composite_residual": report.composite_residual,
         "level_residuals": list(report.level_residuals),
         "kernel_dims": list(report.kernel_dims),
         "image_dims": list(report.image_dims),
         "verdict_original": report.verdict_original,
         "verdict_bounded": report.verdict_bounded})]

    head = [list(t[:5]) for t in report.traces[:3]]
    records.append(CheckRecord(
        "squash-approximation-trace", "squash-convergence",
        report.traces_within_bound,
        {"probes": len(report.traces), "trace_length":
            len(report.traces[0]) if report.traces else 0,
         "worst_margin_over_bound": report.squash_margin,
         "leading_trace_values": head}))
    return records


def quotient_records(spec, seed: int) -> list[CheckRecord]:
    """Quotient isomorphisms: by a block ideal and by seminorm kernels."""
    tower = spec.tower("wide-product")
    rng = stream(seed, "quotient-iso")
    report = quotient_iso_check(
        tower, [frozenset({0})] * tower.horizon, horizon=tower.horizon,
        tol=1e-10, rng=rng, probes=50)
    records = [CheckRecord(
        "block-ideal-quotient-iso", "quotient-isomorphism", report.passed,
        {"max_residual": report.max_residual,
         "hom_residual": report.hom_residual})]
    product = spec.tower("matrix-product")
    product.ensure(5)
    for p in (1, 2, 3):
        rep = kernel_quotient_check(
            product, p, horizon=5, tol=1e-10,
            rng=stream(seed, f"kernel-quotient-{p}"), probes=50)
        records.append(CheckRecord(
            f"seminorm-kernel-quotient-p{p}", "quotient-isomorphism",
            rep.passed,
            {"level": p, "max_residual": rep.max_residual}))
    return records


def gelfand_records(spec, seed: int, probes: int = 100) -> list[CheckRecord]:
    """Both duality round trips plus the evaluation seminorm identity."""
    space = spec.space("five-chain")
    rng = stream(seed, "gelfand-space")
    rep_space = duality_roundtrip(space, space.horizon, 1e-12, rng, probes)
    records = [CheckRecord(
        "covered-space-roundtrip", "five-point-duality", rep_space.passed,
        {"bijection_ok": rep_space.bijection_ok,
         "birth_levels_ok": rep_space.birth_levels_ok,
         "family_ok": rep_space.family_ok,
         "max_residual": rep_space.max_residual})]

    tower = spec.tower("flat-five")
    tower.ensure(5)
    rep_tower = duality_roundtrip(
        tower, 5, 1e-12, stream(seed, "gelfand-tower"), probes)
    records.append(CheckRecord(
        "commutative-tower-roundtrip", "five-point-duality", rep_tower.passed,
        {"max_residual": rep_tower.max_residual}))

    chars = character_space(tower, 5)
    rng = stream(seed, "gelfand-seminorm")
    worst = 0.0
    for _ in range(probes):
        e = coherent_from_top(tower, random_element(tower.level(5), rng), 5)
        ev = _evaluate(chars, e)
        for p, norm in enumerate(_level_seminorms(e, 5), start=1):
            worst = max(worst, abs(
                norm - max(abs(v) for v in ev.restriction(p))))
    records.append(CheckRecord(
        "evaluation-seminorm-identity", "five-point-duality", worst <= 1e-12,
        {"max_residual": worst, "probes": probes}))
    return records


def unitary_suite_records(seed: int, count: int = 100) -> list[CheckRecord]:
    """Exponential factorizations near the identity and in general.

    The levelwise exponentials of the general unitaries run on stacks of
    all ``count`` instances, level by level; the branch, the logarithm and
    every factorization stay per instance.
    """
    tower = make_product_tower(lambda k: k, 4, lazy=False)
    top = tower.level(4)
    records = []

    rng = stream(seed, "unitary-near-identity")
    near_ok = True
    worst_residual = 0.0
    for _ in range(count):
        u = coherent_from_top(
            tower, random_unitary_near_identity(top, rng, 0.99), 4,
            unitary=True)
        fact = identity_component_check(u, horizon=4, tol=1e-9)
        worst_residual = max(worst_residual, fact.residual)
        if len(fact.factors) != 1 or fact.residual > 1e-9:
            near_ok = False
    records.append(CheckRecord(
        "near-identity-single-exponential", "unitary-clopen-ball", near_ok,
        {"count": count, "worst_residual": worst_residual}))

    rng = stream(seed, "unitary-arbitrary")
    us = [coherent_from_top(tower, random_unitary(top, rng), 4, unitary=True)
          for _ in range(count)]
    residuals, deviations = [], []
    for p in range(1, 5):
        levels = [project(u, p) for u in us]
        xs = _stacked(levels)
        eigs = [np.linalg.eigvals(x) for x in xs]
        logs = []
        for k, x in enumerate(levels):
            branch, _ = largest_gap_branch(
                np.angle(np.concatenate([e[k] for e in eigs])))
            logs.append(single_level_log(x, branch, tol=1e-9, level=p))
        back = _normal_calculus(_stacked(logs), ExpI(1.0))
        residuals += _stack_distances(back, xs).tolist()
        deviations += np.abs(_stack_norms(xs) - 1.0).tolist()
    valid = [identity_component_check(u, horizon=4, tol=1e-9).valid for u in us]
    records.append(CheckRecord(
        "levelwise-exponential-factorization", "unitary-levelwise-density",
        all(valid) and not any(r > 1e-9 for r in residuals),
        {"count": count, "worst_residual": max([0.0, *residuals])}))
    records.append(CheckRecord(
        "unitary-uniform-norm-one", "unitary-norm",
        not any(d > 1e-10 for d in deviations),
        {"count": count, "worst_deviation": max([0.0, *deviations])}))
    return records


def _margin_record(name: str, margins: list[float]) -> CheckRecord:
    """A sweep's record: an instance fails when its margin is positive."""
    failures = sum(m > 0 for m in margins)
    return CheckRecord(
        name, "core-invariants", failures == 0,
        {"instances": len(margins), "failures": failures,
         "worst_margin": max([0.0, *margins])})


def _invariant_margins(seed: int, instances: int) -> dict[str, list[float]]:
    """Per-instance margins of the five kernel invariants, by record name.

    Each sweep draws its instances from its own stream, in the order a
    loop over instances draws them, and measures them as stacks by block
    position; spectral mapping tests apply_function end to end, one
    instance at a time.
    """
    alg = BlockAlgebra((1, 2, 3))

    def drawn(label, draw) -> list:
        rng = stream(seed, label)
        return [draw(rng) for _ in range(instances)]

    def element(rng):
        return random_element(alg, rng)

    xs = _stacked(drawn("inv-cstar", element))
    n = _stack_norms(xs)
    cstar = np.abs(_stack_norms([_adjoint_stack(x) @ x for x in xs]) - n * n) \
        - 1e-10 * n * n

    pairs = drawn("inv-submult", lambda rng: (element(rng), element(rng)))
    xs, ys = _stacked([x for x, _ in pairs]), _stacked([y for _, y in pairs])
    submult = _stack_norms([x @ y for x, y in zip(xs, ys)]) \
        - _stack_norms(xs) * _stack_norms(ys) - 1e-10

    xs = _stacked(drawn("inv-isometry", element))
    isometry = np.abs(
        _stack_norms([_adjoint_stack(x) for x in xs]) - _stack_norms(xs)) - 1e-12

    def spectral_mapping(rng):
        x = random_normal(alg, rng)
        f = Polynomial.in_z(rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4))
        lhs = spectrum(apply_function(x, f))
        rhs = np.asarray(f(spectrum(x)))
        return hausdorff_distance(lhs, rhs) - 1e-8

    xs = _stacked(drawn("inv-radius", lambda rng: random_normal(alg, rng)))
    radius = np.abs(_stack_norms(xs) - _spectral_radii(xs)) - 1e-10
    return {
        "cstar-identity": cstar.tolist(),
        "submultiplicativity": submult.tolist(),
        "involution-isometry": isometry.tolist(),
        "spectral-mapping": drawn("inv-specmap", spectral_mapping),
        "normal-norm-equals-radius": radius.tolist(),
    }


def core_invariant_records(seed: int, instances: int = 200) -> list[CheckRecord]:
    """Algebraic invariants of the kernel on seeded random input.

    The chain sweeps stack the instances level by level; each level's
    seminorms and spectra come from that level's own projections.
    """
    records = [_margin_record(name, margins)
               for name, margins in _invariant_margins(seed, instances).items()]

    tower = make_product_tower(lambda k: k, 5, lazy=False)
    rng = stream(seed, "inv-monotone")
    es = [coherent_from_top(tower, random_element(tower.level(5), rng), 5)
          for _ in range(instances)]
    norms, spectra = [], []
    for p in range(1, 6):
        xs = _stacked([project(e, p) for e in es])
        norms.append(_stack_norms(xs).tolist())
        spectra.append(_spectra(xs, DEFAULT_CLUSTER_TOL))
    mono_fail = sum(
        any(lo > hi + 1e-12 for lo, hi in zip(seq, seq[1:]))
        for seq in zip(*norms))
    nest_fail = sum(
        any(one_sided_hausdorff(lo, hi) > 1e-8 for lo, hi in zip(seq, seq[1:]))
        for seq in zip(*spectra))
    records.append(CheckRecord(
        "seminorm-monotonicity", "core-invariants", mono_fail == 0,
        {"instances": instances, "failures": mono_fail}))
    records.append(CheckRecord(
        "spectral-nesting", "core-invariants", nest_fail == 0,
        {"instances": instances, "failures": nest_fail}))
    return records


def paper_example_records(spec, seed: int) -> list[CheckRecord]:
    """The worked-example reproduction bundle."""
    records = []
    records += shift_example_records(spec, seed)
    records += exactness_records(spec, seed)
    records += quotient_records(spec, seed)
    records += gelfand_records(spec, seed)
    return records


def selftest_records(spec, seed: int) -> list[CheckRecord]:
    """Invariant sweeps plus the unitary suite."""
    records = core_invariant_records(seed)
    records += unitary_suite_records(seed)
    return records


CHECKS = {
    "norm": (_check_norm, ("element", "horizon", "threshold")),
    "spectrum": (_check_spectrum, ("element", "horizon", "cluster_tol")),
    "bounded": (_check_bounded, ("element", "horizon", "threshold")),
    "funcalc": (_check_funcalc, (
        "element", "horizon", "cluster_tol", "function", "index", "t",
        "branch", "coeffs")),
    "check-exact": (_check_exact, (
        "tower", "blocks", "horizon", "probes", "tol", "seed", "trace_length")),
    "quotient-iso": (_check_quotient_iso, (
        "tower", "blocks", "kernel_levels", "horizon", "probes", "tol", "seed")),
    "gelfand-roundtrip": (_check_gelfand, (
        "space", "tower", "horizon", "probes", "tol", "seed")),
    "unitary-log": (_check_unitary_log, ("element", "horizon", "tol", "branch")),
    "exp-factor": (_check_exp_factor, ("element", "horizon", "tol")),
    "paper-examples": (
        lambda spec, cfg: paper_example_records(spec, cfg["seed"]), ("seed",)),
    "selftest": (
        lambda spec, cfg: selftest_records(spec, cfg["seed"]), ("seed",)),
}
