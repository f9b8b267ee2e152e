"""Acceptance suite: worked examples and invariant sweeps at full scale.

One criterion per test, each printing a single pass/fail line; tolerances
are pinned here and match the bundled check suites, which the command line
runs through `paper-examples` and `selftest`.
"""

import time

import pytest

from protower.bounded_functor import check_exactness, kernel_quotient_check, quotient_iso_check
from protower.calculus import pro_spectrum, seminorm, uniform_norm
from protower.cli import bundled_spec_path, run
from protower.gelfand import duality_roundtrip, evaluation_iso
from protower.randomness import random_element, stream
from protower.specfile import load_specfile
from protower.suites import (
    core_invariant_records,
    unitary_suite_records,
)
from protower.tower import closed_ideal, coherent_from_top

SEED = 20250809


@pytest.fixture(scope="module")
def spec():
    return load_specfile(bundled_spec_path())


def _verdict(number: int, name: str, ok: bool) -> bool:
    print(f"criterion-{number} {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_shift_example(spec):
    start = time.perf_counter()
    shift = spec.element("shift")

    report = pro_spectrum(shift, horizon=200)
    spectrum_ok = (
        len(report.points) == 1
        and abs(report.points[0]) <= 1e-10
        and report.radius <= 1e-10)

    verdict = uniform_norm(shift, horizon=200, divergence_threshold=100.0)
    witness_ok = (
        verdict.is_unbounded
        and verdict.witness_level == 102
        and abs(verdict.witness_value - (verdict.witness_level - 1)) <= 1e-10)
    seminorms_ok = all(
        abs(seminorm(shift, n + 1) - n) <= 1e-10
        for n in (1, 2, 10, 50, 101))

    elapsed = time.perf_counter() - start
    ok = spectrum_ok and witness_ok and seminorms_ok and elapsed <= 5.0
    assert _verdict(1, f"shift-example ({elapsed:.2f}s)", ok)


def test_criterion_2_exactness_mechanics(spec):
    start = time.perf_counter()
    tower = spec.tower("wide-product")
    dec = closed_ideal(tower, [frozenset({0})] * tower.horizon)
    report = check_exactness(
        dec.inclusion, dec.quotient_map, probes=20, horizon=tower.horizon,
        tol=1e-10, rng=stream(SEED, "acceptance-exactness"), trace_length=50)

    verdicts_ok = report.verdict_original and report.verdict_bounded
    traces_ok = len(report.traces) == 20 and report.traces_within_bound
    radius_ok = all(r <= 1.0 + 1e-12 for r in report.probe_norms)

    elapsed = time.perf_counter() - start
    ok = verdicts_ok and traces_ok and radius_ok and elapsed <= 10.0
    assert _verdict(2, f"exactness-mechanics ({elapsed:.2f}s)", ok)


def test_criterion_3_quotient_isomorphisms(spec):
    tower = spec.tower("wide-product")
    rep = quotient_iso_check(
        tower, [frozenset({0})] * tower.horizon, horizon=tower.horizon,
        tol=1e-10, rng=stream(SEED, "acceptance-quotient"), probes=50)
    ok = rep.passed and rep.max_residual <= 1e-10

    product = spec.tower("matrix-product")
    product.ensure(5)
    for p in (1, 2, 3):
        kq = kernel_quotient_check(
            product, p, horizon=5, tol=1e-10,
            rng=stream(SEED, f"acceptance-kernel-{p}"), probes=50)
        ok = ok and kq.passed and kq.max_residual <= 1e-10
    assert _verdict(3, "quotient-isomorphisms", ok)


def test_criterion_4_gelfand_roundtrips(spec):
    space = spec.space("five-chain")
    rep_space = duality_roundtrip(
        space, space.horizon, 1e-12,
        stream(SEED, "acceptance-gelfand-space"), probes=100)

    tower = spec.tower("flat-five")
    tower.ensure(5)
    rep_tower = duality_roundtrip(
        tower, 5, 1e-12, stream(SEED, "acceptance-gelfand-tower"), probes=100)

    rng = stream(SEED, "acceptance-gelfand-seminorm")
    seminorm_worst = 0.0
    for _ in range(100):
        e = coherent_from_top(tower, random_element(tower.level(5), rng), 5)
        ev = evaluation_iso(tower, e, 5)
        for p in range(1, 6):
            seminorm_worst = max(seminorm_worst, abs(
                seminorm(e, p) - max(abs(v) for v in ev.restriction(p))))

    ok = (
        rep_space.passed and rep_space.max_residual <= 1e-12
        and rep_tower.passed and rep_tower.max_residual <= 1e-12
        and seminorm_worst <= 1e-12)
    assert _verdict(4, "gelfand-roundtrips", ok)


def test_criterion_5_unitary_suite():
    records = unitary_suite_records(SEED, count=100)
    by_name = {r.name: r for r in records}
    ok = (
        by_name["near-identity-single-exponential"].passed
        and by_name["levelwise-exponential-factorization"].passed
        and by_name["unitary-uniform-norm-one"].passed)
    assert _verdict(5, "unitary-suite", ok)


def test_criterion_6_core_invariants():
    records = core_invariant_records(SEED, instances=200)
    failed = [r.name for r in records if not r.passed]
    ok = not failed
    assert _verdict(6, f"core-invariants {failed or ''}", ok)


def test_criterion_7_report_determinism(spec):
    first = run("paper-examples", spec, {"seed": SEED}).to_jsonl()
    second = run("paper-examples", spec, {"seed": SEED}).to_jsonl()
    ok = first == second and len(first) > 0
    assert _verdict(7, "report-determinism", ok)
