"""selftest's stacked sweeps against the per-instance loops they replace.

The oracles below are loops over instances, one element at a time, as
``core_invariant_records`` and ``unitary_suite_records`` ran before their
sweeps were stacked by block position. The stacked records must equal
theirs exactly, floats included. So must the per-instance margin of every
kernel invariant, which also pins the order in which instances are drawn.
"""

import numpy as np
import pytest

from protower import suites
from protower.calculus import seminorm
from protower.core_algebra import (
    BlockAlgebra,
    ExpI,
    Polynomial,
    apply_function,
    cstar_norm,
    distance,
    hausdorff_distance,
    one_sided_hausdorff,
    spectral_radius,
    spectrum,
)
from protower.randomness import (
    random_element,
    random_normal,
    random_unitary,
    random_unitary_near_identity,
    stream,
)
from protower.report import CheckRecord
from protower.tower import coherent_from_top, make_product_tower, project
from protower.unitary import (
    identity_component_check,
    largest_gap_branch,
    single_level_log,
)


def oracle_margins(seed, instances):
    alg = BlockAlgebra((1, 2, 3))

    def sweep(label, check):
        rng = stream(seed, label)
        return [check(rng) for _ in range(instances)]

    def cstar_identity(rng):
        x = random_element(alg, rng)
        n = cstar_norm(x)
        return abs(cstar_norm(x.adjoint() * x) - n * n) - 1e-10 * n * n

    def submultiplicative(rng):
        x, y = random_element(alg, rng), random_element(alg, rng)
        return cstar_norm(x * y) - cstar_norm(x) * cstar_norm(y) - 1e-10

    def involution_isometry(rng):
        x = random_element(alg, rng)
        return abs(cstar_norm(x.adjoint()) - cstar_norm(x)) - 1e-12

    def spectral_mapping(rng):
        x = random_normal(alg, rng)
        f = Polynomial.in_z(rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4))
        lhs = spectrum(apply_function(x, f))
        rhs = np.asarray(f(spectrum(x)))
        return hausdorff_distance(lhs, rhs) - 1e-8

    def normal_norm_radius(rng):
        x = random_normal(alg, rng)
        return abs(cstar_norm(x) - spectral_radius(x)) - 1e-10

    return {
        "cstar-identity": sweep("inv-cstar", cstar_identity),
        "submultiplicativity": sweep("inv-submult", submultiplicative),
        "involution-isometry": sweep("inv-isometry", involution_isometry),
        "spectral-mapping": sweep("inv-specmap", spectral_mapping),
        "normal-norm-equals-radius": sweep("inv-radius", normal_norm_radius),
    }


def oracle_core_records(seed, instances, margins):
    records = []
    for name, values in margins.items():
        failures = 0
        worst = 0.0
        for margin in values:
            worst = max(worst, margin)
            if margin > 0:
                failures += 1
        records.append(CheckRecord(
            name, "core-invariants", failures == 0,
            {"instances": instances, "failures": failures,
             "worst_margin": worst}))

    tower = make_product_tower(lambda k: k, 5, lazy=False)
    rng = stream(seed, "inv-monotone")
    mono_fail = 0
    nest_fail = 0
    for _ in range(instances):
        e = coherent_from_top(tower, random_element(tower.level(5), rng), 5)
        norms = [seminorm(e, p) for p in range(1, 6)]
        if any(lo > hi + 1e-12 for lo, hi in zip(norms, norms[1:])):
            mono_fail += 1
        spectra = [spectrum(project(e, p)) for p in range(1, 6)]
        if any(
            one_sided_hausdorff(lo, hi) > 1e-8
            for lo, hi in zip(spectra, spectra[1:])
        ):
            nest_fail += 1
    records.append(CheckRecord(
        "seminorm-monotonicity", "core-invariants", mono_fail == 0,
        {"instances": instances, "failures": mono_fail}))
    records.append(CheckRecord(
        "spectral-nesting", "core-invariants", nest_fail == 0,
        {"instances": instances, "failures": nest_fail}))
    return records


def oracle_unitary_records(seed, count):
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
    general_ok = True
    norm_ok = True
    worst_residual = 0.0
    worst_norm_dev = 0.0
    for _ in range(count):
        u = coherent_from_top(tower, random_unitary(top, rng), 4, unitary=True)
        for p in range(1, 5):
            x = project(u, p)
            args = np.angle(np.concatenate(
                [np.linalg.eigvals(b) for b in x.blocks]))
            branch, _ = largest_gap_branch(args)
            h = single_level_log(x, branch, tol=1e-9, level=p)
            res = distance(apply_function(h, ExpI(1.0)), x)
            worst_residual = max(worst_residual, res)
            if res > 1e-9:
                general_ok = False
            dev = abs(seminorm(u, p) - 1.0)
            worst_norm_dev = max(worst_norm_dev, dev)
            if dev > 1e-10:
                norm_ok = False
        fact = identity_component_check(u, horizon=4, tol=1e-9)
        if not fact.valid:
            general_ok = False
    records.append(CheckRecord(
        "levelwise-exponential-factorization", "unitary-levelwise-density",
        general_ok,
        {"count": count, "worst_residual": worst_residual}))
    records.append(CheckRecord(
        "unitary-uniform-norm-one", "unitary-norm", norm_ok,
        {"count": count, "worst_deviation": worst_norm_dev}))
    return records


# The sizes are cut to keep this test short. At full size, seed 1005 is the
# bundled selftest run, whose report the per-instance loops wrote and
# tests/data/reports/selftest.jsonl holds byte for byte.
@pytest.mark.parametrize("seed", [1005, 17, 4242])
def test_stacked_selftest_equals_per_instance_loops(seed):
    instances, count = 50, 25
    margins = oracle_margins(seed, instances)
    assert suites._invariant_margins(seed, instances) == margins
    assert suites.core_invariant_records(seed, instances) == oracle_core_records(
        seed, instances, margins)
    assert suites.unitary_suite_records(seed, count) == oracle_unitary_records(
        seed, count)
