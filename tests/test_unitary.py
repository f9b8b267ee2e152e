"""Unitary groups: exponentials, logarithms, factorizations, pushforwards."""

import cmath
import math

import numpy as np
import pytest

from protower.calculus import seminorm, uniform_norm
from protower.core_algebra import (
    BranchError,
    PreconditionError,
    cstar_norm,
    distance,
)
from protower.randomness import (
    random_element,
    random_selfadjoint,
    random_unitary,
    random_unitary_near_identity,
    stream,
)
from protower.tower import (
    closed_ideal,
    coherent_from_top,
    make_product_tower,
    project,
    scalar_element,
)
from protower.unitary import (
    exp_selfadjoint,
    identity_component_check,
    is_unitary,
    largest_gap_branch,
    pushforward_exp,
    single_level_log,
    unitary_log,
)


def small_tower(levels=4, lazy=False):
    return make_product_tower(lambda k: k, levels, lazy=lazy)


def coherent_selfadjoint(t, levels, rng, radius=None):
    return coherent_from_top(
        t, random_selfadjoint(t.level(levels), rng, radius=radius), levels,
        selfadjoint=True)


def coherent_unitary(t, levels, rng):
    return coherent_from_top(
        t, random_unitary(t.level(levels), rng), levels, unitary=True)


def test_is_unitary_basics():
    t = small_tower()
    assert is_unitary(scalar_element(t, 1.0), horizon=4)
    assert not is_unitary(scalar_element(t, 2.0), horizon=4)
    rng = stream(81, "is-unitary")
    a = coherent_selfadjoint(t, 4, rng)
    u = exp_selfadjoint(a, 1.0)
    assert is_unitary(u, horizon=4)


def test_is_unitary_leaves_its_argument_untouched():
    t = small_tower()
    rng = stream(82, "unitary-cert")
    u = coherent_unitary(t, 4, rng).with_certificates(
        norm_bound=None, unitary=False)
    before = u.certificates
    assert is_unitary(u, horizon=4)
    assert u.certificates is before
    certified = u.with_certificates(
        unitary=True, norm_bound=1.0, norm_reason="unitary element")
    v = uniform_norm(certified, horizon=4)
    assert v.is_bounded and v.bound == pytest.approx(1.0)
    assert v.certificate == "unitary element"


def test_exp_selfadjoint_at_zero_is_identity():
    t = small_tower()
    rng = stream(83, "exp-zero")
    a = coherent_selfadjoint(t, 4, rng)
    u = exp_selfadjoint(a, 0.0)
    for p in range(1, 5):
        assert distance(project(u, p), t.level(p).identity()) <= 1e-13


def test_exp_scalar_pi_is_minus_one():
    t = make_product_tower([1], 1, lazy=False)
    a = scalar_element(t, math.pi).with_certificates(selfadjoint=True)
    u = exp_selfadjoint(a, 1.0)
    assert distance(project(u, 1), t.level(1).scalar(-1.0)) <= 1e-14


def test_exp_rejects_non_selfadjoint():
    t = small_tower()
    rng = stream(84, "exp-reject")
    x = coherent_from_top(t, random_element(t.level(4), rng), 4)
    u = exp_selfadjoint(x, 1.0)
    with pytest.raises(PreconditionError):
        project(u, 2)


def test_exp_lipschitz_in_time():
    t = small_tower()
    rng = stream(85, "lipschitz")
    for _ in range(50):
        a = coherent_selfadjoint(t, 4, rng)
        s, tt = sorted(rng.uniform(0.0, 1.0, 2))
        us = exp_selfadjoint(a, s)
        ut = exp_selfadjoint(a, tt)
        for p in (1, 3, 4):
            bound = abs(tt - s) * seminorm(a, p) + 1e-10
            assert distance(project(us, p), project(ut, p)) <= bound


def test_unitary_log_identity_is_zero():
    t = small_tower()
    one = scalar_element(t, 1.0)
    a = unitary_log(one, horizon=4)
    for p in range(1, 5):
        assert cstar_norm(project(a, p)) <= 1e-12


def test_unitary_log_scalar_phase():
    t = make_product_tower([1], 1, lazy=False)
    u = scalar_element(t, complex(math.cos(math.pi / 3), math.sin(math.pi / 3)))
    a = unitary_log(u, horizon=1)
    assert project(a, 1).blocks[0][0, 0].real == pytest.approx(math.pi / 3)


def test_unitary_log_roundtrip_inside_unit_ball():
    t = small_tower()
    rng = stream(86, "log-roundtrip")
    top = random_unitary_near_identity(t.level(4), rng, max_distance=0.9)
    u = coherent_from_top(t, top, 4, unitary=True)
    a = unitary_log(u, math.pi, tol=1e-10, horizon=4)
    back = exp_selfadjoint(a, 1.0)
    for p in range(1, 5):
        assert distance(project(back, p), project(u, p)) <= 1e-9
    assert a.certificates.selfadjoint


def test_unitary_log_branch_error_and_rotation():
    t = make_product_tower([1], 1, lazy=False)
    minus = scalar_element(t, -1.0)
    with pytest.raises(BranchError):
        unitary_log(minus, math.pi, horizon=1)
    a = unitary_log(minus, math.pi / 2, horizon=1)
    assert project(a, 1).blocks[0][0, 0].real == pytest.approx(-math.pi)


@pytest.mark.parametrize("branch", [math.pi / 3, -math.pi / 3])
def test_unitary_log_guard_at_branches_off_pi(branch):
    # an exactly unitary eigenvalue 5e-7 inside the arc (-pi/3, pi/3) and
    # within tol of the ray at +-pi/3: the branch error names the level,
    # although the distance to the identity is below 1
    t = make_product_tower([1], 1, lazy=False)
    u = scalar_element(t, cmath.exp(1j * (branch - math.copysign(5e-7, branch))))
    assert distance(project(u, 1), t.level(1).identity()) < 1.0
    with pytest.raises(BranchError, match="at level 1 is within"):
        unitary_log(u, branch, tol=1e-6, horizon=1)
    # so does a ray closer than pi/3 to angle 0
    u = scalar_element(t, cmath.exp(0.9j))
    with pytest.raises(BranchError):
        unitary_log(u, 0.9, tol=1e-6, horizon=1)


def test_largest_gap_branch():
    # angles at 0 and pi/2: the biggest gap runs from pi/2 around to 2*pi
    mid, margin = largest_gap_branch([0.0, math.pi / 2])
    expected = math.pi / 2 + (3 * math.pi / 2) / 2  # 5*pi/4, reported wrapped
    assert math.isclose((mid - expected) % (2 * math.pi), 0.0, abs_tol=1e-9) \
        or math.isclose((mid - expected) % (2 * math.pi), 2 * math.pi,
                        abs_tol=1e-9)
    assert margin == pytest.approx(3 * math.pi / 4)


def test_identity_component_identity_has_no_factors():
    t = small_tower()
    fact = identity_component_check(scalar_element(t, 1.0), horizon=4)
    assert fact.factors == ()
    assert fact.residual <= 1e-12
    assert fact.valid


def test_identity_component_single_factor_near_identity():
    t = small_tower()
    rng = stream(87, "one-factor")
    for _ in range(25):
        top = random_unitary_near_identity(t.level(4), rng, max_distance=0.99)
        u = coherent_from_top(t, top, 4, unitary=True)
        fact = identity_component_check(u, horizon=4)
        assert len(fact.factors) == 1
        assert fact.residual <= 1e-9
        assert fact.valid


def test_single_factor_residual_is_the_product_residual():
    t = small_tower(5)
    rng = stream(91, "single-factor-residual")
    single = 0
    for k in range(20):
        if k % 2:
            top = random_unitary(t.level(5), rng)
        else:
            top = random_unitary_near_identity(t.level(5), rng, max_distance=0.99)
        u = coherent_from_top(t, top, 5, unitary=True)
        fact = identity_component_check(u, horizon=5)
        if len(fact.factors) != 1:
            continue
        single += 1
        prod = fact.product()
        assert fact.residual == max(
            distance(project(prod, p), project(u, p)) for p in range(1, 6))
    assert single >= 10


def test_single_factor_reassembles_once(monkeypatch):
    # the residual unitary_log verified is reused: one exponential per level
    import protower.unitary as unitary

    calls = []
    real = unitary.apply_function

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(unitary, "apply_function", counted)
    t = small_tower()
    top = random_unitary_near_identity(
        t.level(4), stream(92, "reassemble-once"), max_distance=0.99)
    fact = identity_component_check(
        coherent_from_top(t, top, 4, unitary=True), horizon=4)
    assert len(fact.factors) == 1
    assert len(calls) == 4


def test_identity_component_split_when_branch_crowded():
    # eigenvalues at 12th roots of unity crowd every ray at margin pi/12,
    # including -1 itself: the single pi-branch log must fail, and the
    # half-logarithm split must succeed with two factors
    t = make_product_tower([12], 1, lazy=False)
    alg = t.level(1)
    angles = np.arange(12) * (2 * math.pi / 12)
    u_top = alg.element([np.diag(np.exp(1j * angles))])
    u = coherent_from_top(t, u_top, 1, unitary=True)
    with pytest.raises(BranchError):
        unitary_log(u, math.pi, horizon=1)
    fact = identity_component_check(u, horizon=1, branch_margin=0.3)
    assert len(fact.factors) == 2
    assert fact.residual <= 1e-9
    prod = fact.product()
    assert distance(project(prod, 1), u_top) <= 1e-9


def test_identity_component_arbitrary_unitaries():
    t = small_tower(5)
    rng = stream(88, "arbitrary")
    for _ in range(25):
        u = coherent_unitary(t, 5, rng)
        fact = identity_component_check(u, horizon=5)
        assert fact.valid
        assert fact.residual <= 1e-9
        # all seminorms of a unitary are 1
        for p in range(1, 6):
            assert abs(seminorm(u, p) - 1.0) <= 1e-10


def test_levelwise_factorization_of_projections():
    # the finite form of density: each level projection of a coherent
    # unitary is itself one exponential
    t = small_tower(5)
    rng = stream(89, "levelwise")
    for _ in range(20):
        u = coherent_unitary(t, 5, rng)
        for p in range(1, 6):
            x = project(u, p)
            branch, margin = largest_gap_branch(
                np.angle(np.concatenate(
                    [np.linalg.eigvals(b) for b in x.blocks])))
            h = single_level_log(x, branch, tol=1e-9, level=p)
            from protower.core_algebra import ExpI, apply_function

            back = apply_function(h, ExpI(1.0))
            assert distance(back, x) <= 1e-9


def test_random_two_factor_products_refactor():
    t = small_tower(4)
    rng = stream(90, "two-factor")
    for _ in range(10):
        a1 = coherent_selfadjoint(t, 4, rng)
        a2 = coherent_selfadjoint(t, 4, rng)
        u_top = project(exp_selfadjoint(a1, 1.0), 4) * project(
            exp_selfadjoint(a2, 1.0), 4)
        u = coherent_from_top(t, u_top, 4, unitary=True)
        fact = identity_component_check(u, horizon=4)
        assert fact.residual <= 1e-9


def test_pushforward_exp():
    base = make_product_tower(lambda k: k, 6)
    from protower.tower import Tower, identity_homomorphism

    t = Tower(
        [base.level(p) for p in range(2, 7)],
        [base.map(p) for p in range(2, 6)],
    )
    dec = closed_ideal(t, [frozenset({0})] * 5)
    ident = identity_homomorphism(t)
    rng = stream(91, "pushforward")
    for _ in range(10):
        u = coherent_from_top(t, random_unitary(t.level(5), rng), 5,
                              unitary=True)
        fact = identity_component_check(u, horizon=5)
        image = pushforward_exp(dec.quotient_map, fact)
        assert image.residual <= fact.residual + 1e-10
        assert len(image.factors) == len(fact.factors)
        # pushing along the identity keeps every factor
        same = pushforward_exp(ident, fact)
        assert same.residual <= fact.residual + 1e-10
        for a, b in zip(fact.factors, same.factors):
            for p in range(1, 6):
                assert distance(project(a, p), project(b, p)) <= 1e-13


def test_pushforward_requires_surjective():
    t = small_tower(4)
    dec_tower = make_product_tower(lambda k: k, 5)
    from protower.tower import BlockMap, TowerHomomorphism

    def partial_maps(p):
        alg = t.level(p)
        routes = [None] * alg.num_blocks
        return BlockMap(t.level(p), alg, tuple(routes))

    phi = TowerHomomorphism(t, t, partial_maps)
    rng = stream(92, "push-reject")
    u = coherent_unitary(t, 4, rng)
    fact = identity_component_check(u, horizon=4)
    with pytest.raises(PreconditionError):
        pushforward_exp(phi, fact)


def test_homomorphism_commutes_with_polynomial_calculus():
    from protower.core_algebra import Polynomial, apply_function
    from protower.randomness import random_normal

    base = make_product_tower(lambda k: k, 6)
    from protower.tower import Tower

    t = Tower(
        [base.level(p) for p in range(2, 7)],
        [base.map(p) for p in range(2, 6)],
    )
    dec = closed_ideal(t, [frozenset({0})] * 5)
    quo = dec.quotient_map
    rng = stream(93, "hom-calculus")
    for _ in range(100):
        x = random_normal(t.level(3), rng)
        g = Polynomial.in_z(rng.uniform(-1, 1, 4))
        lhs = quo.level_map(3).apply(apply_function(x, g))
        rhs = apply_function(quo.level_map(3).apply(x), g)
        assert distance(lhs, rhs) <= 1e-10
