"""Acceptance suite: worked examples and invariant sweeps at full scale.

One criterion per test, each printing a single pass/fail line. The pass of
each criterion comes from the bundled suites' records or from the report
types' own rules, the same ones the command line runs through
`paper-examples` and `selftest`; criteria 1 and 2 add the stricter
assertions pinned here (levels, probe counts and time bounds).
"""

import time

import pytest

from protower.bounded_functor import check_exactness
from protower.calculus import seminorm
from protower.cli import bundled_spec_path, run
from protower.randomness import stream
from protower.specfile import load_specfile
from protower.suites import (
    core_invariant_records,
    gelfand_records,
    quotient_records,
    shift_example_records,
    unitary_suite_records,
)
from protower.tower import closed_ideal

SEED = 20250809


@pytest.fixture(scope="module")
def spec():
    return load_specfile(bundled_spec_path())


def _verdict(number: int, name: str, ok: bool) -> bool:
    print(f"criterion-{number} {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def _failed(records) -> list[str]:
    return [r.name for r in records if not r.passed]


def test_criterion_1_shift_example(spec):
    start = time.perf_counter()
    records = shift_example_records(spec, SEED)
    witness = {r.name: r for r in records}["shift-unbounded-witness"].details

    shift = spec.element("shift")
    seminorms_ok = all(
        abs(seminorm(shift, n + 1) - n) <= 1e-10
        for n in (1, 2, 10, 50, 101))

    elapsed = time.perf_counter() - start
    ok = (
        len(records) == 3 and not _failed(records)
        and witness["witness_level"] == 102
        and seminorms_ok and elapsed <= 5.0)
    assert _verdict(1, f"shift-example ({elapsed:.2f}s)", ok)


def test_criterion_2_exactness_mechanics(spec):
    start = time.perf_counter()
    tower = spec.tower("wide-product")
    dec = closed_ideal(tower, [frozenset({0})] * tower.horizon)
    report = check_exactness(
        dec.inclusion, dec.quotient_map, probes=20, horizon=tower.horizon,
        tol=1e-10, rng=stream(SEED, "acceptance-exactness"), trace_length=50)

    traces_ok = len(report.traces) == 20 and report.traces_within_bound
    radius_ok = all(r <= 1.0 + 1e-12 for r in report.probe_norms)

    elapsed = time.perf_counter() - start
    ok = report.exact and traces_ok and radius_ok and elapsed <= 10.0
    assert _verdict(2, f"exactness-mechanics ({elapsed:.2f}s)", ok)


def test_criterion_3_quotient_isomorphisms(spec):
    records = quotient_records(spec, SEED)
    failed = _failed(records)
    ok = len(records) == 4 and not failed
    assert _verdict(3, f"quotient-isomorphisms {failed or ''}", ok)


def test_criterion_4_gelfand_roundtrips(spec):
    records = gelfand_records(spec, SEED)
    failed = _failed(records)
    ok = len(records) == 3 and not failed
    assert _verdict(4, f"gelfand-roundtrips {failed or ''}", ok)


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
    failed = _failed(records)
    ok = not failed
    assert _verdict(6, f"core-invariants {failed or ''}", ok)


def test_criterion_7_report_determinism(spec):
    first = run("paper-examples", spec, {"seed": SEED}).to_jsonl()
    second = run("paper-examples", spec, {"seed": SEED}).to_jsonl()
    ok = first == second and len(first) > 0
    assert _verdict(7, "report-determinism", ok)
