"""Character spaces, evaluation, covered spaces, duality round trips."""

import numpy as np
import pytest

from protower.core_algebra import PreconditionError, StructuralError
from protower.gelfand import (
    CoveredSpace,
    cf_algebra,
    character_space,
    duality_roundtrip,
    evaluation_iso,
)
from protower.calculus import seminorm
from protower.randomness import random_element, stream
from protower.tower import (
    Tower,
    coherent_from_top,
    diag_sequence_element,
    make_product_tower,
    scalar_element,
)


def test_character_space_single_level():
    from protower.core_algebra import BlockAlgebra

    # one level with two 1x1 blocks: two characters
    t1 = Tower([BlockAlgebra((1, 1))], [])
    cs = character_space(t1, 1)
    assert cs.points == ("chi0", "chi1")


def test_character_space_growing_chain():
    t = make_product_tower(lambda k: 1, 4)
    cs = character_space(t, 4)
    assert len(cs.points) == 4
    for p in range(1, 5):
        assert len(cs.chain[p - 1]) == p
    # each new level adds exactly one newborn character, ids in birth order
    assert [cs.first_appearance(c) for c in range(4)] == [1, 2, 3, 4]
    # injections are inclusions of id sets
    for lo, hi in zip(cs.chain, cs.chain[1:]):
        assert set(lo) <= set(hi)


def test_character_space_requires_commutative():
    t = make_product_tower(lambda k: k, 3)
    with pytest.raises(PreconditionError):
        character_space(t, 3)


def test_character_space_with_repeated_block():
    # a chain gluing the same 1x1 block twice identifies the characters
    a1 = make_product_tower([1], 1, lazy=False).level(1)
    a2 = make_product_tower([1, 1], 2, lazy=False).level(2)
    from protower.tower import ConnectingMap

    cmap = ConnectingMap(a2, a1, ((1, np.eye(1, dtype=complex)),))
    t = Tower([a1, a2], [cmap])
    cs = character_space(t, 2)
    # the level-1 character survives as block 1 of level 2; block 0 is new
    assert cs.chain == ((0,), (1, 0))
    assert cs.points == ("chi0", "chi1")


def test_evaluation_constant_one():
    t = make_product_tower(lambda k: 1, 3)
    ev = evaluation_iso(t, scalar_element(t, 1.0), 3)
    for p in range(1, 4):
        assert all(v == 1.0 for v in ev.restriction(p))


def test_evaluation_newborn_value():
    t = make_product_tower(lambda k: 1, 5)
    e = diag_sequence_element(t, lambda k: float(k))
    ev = evaluation_iso(t, e, 5)
    cs = ev.space
    for cid in range(len(cs.points)):
        assert ev.at(cid) == pytest.approx(cs.first_appearance(cid))


def test_evaluation_seminorm_identity():
    t = make_product_tower(lambda k: 1, 5)
    rng = stream(71, "seminorm-identity")
    for _ in range(100):
        e = coherent_from_top(t, random_element(t.level(5), rng), 5)
        ev = evaluation_iso(t, e, 5)
        for p in range(1, 6):
            lhs = seminorm(e, p)
            rhs = max(abs(v) for v in ev.restriction(p))
            assert abs(lhs - rhs) <= 1e-12


def test_evaluation_is_star_homomorphism():
    t = make_product_tower(lambda k: 1, 4)
    rng = stream(72, "ev-hom")
    for _ in range(50):
        xe = random_element(t.level(4), rng)
        xf = random_element(t.level(4), rng)
        ev_e = evaluation_iso(t, coherent_from_top(t, xe, 4), 4)
        ev_f = evaluation_iso(t, coherent_from_top(t, xf, 4), 4)
        ev_prod = evaluation_iso(t, coherent_from_top(t, xe * xf, 4), 4)
        ev_star = evaluation_iso(t, coherent_from_top(t, xe.adjoint(), 4), 4)
        for p in range(1, 5):
            for j in range(p):
                a = ev_e.restriction(p)[j]
                b = ev_f.restriction(p)[j]
                assert abs(ev_prod.restriction(p)[j] - a * b) <= 1e-12
                assert abs(ev_star.restriction(p)[j] - np.conj(a)) <= 1e-12


def test_covered_space_validation():
    CoveredSpace(("a", "b"), ((0,), (0, 1)))
    with pytest.raises(StructuralError):
        CoveredSpace(("a", "b"), ((0, 1), (0,)))  # not increasing
    with pytest.raises(StructuralError):
        CoveredSpace(("a", "b"), ((0,), (0,)))  # does not cover b
    with pytest.raises(StructuralError):
        CoveredSpace(("a", "a"), ((0, 1), (0, 1)))  # repeated label


def test_cf_algebra_shapes():
    space = CoveredSpace(
        tuple("pqrst"), tuple(tuple(range(k)) for k in range(1, 6)))
    cf = cf_algebra(space)
    assert cf.tower.horizon == 5
    for p in range(1, 6):
        assert cf.tower.level(p).block_sizes == tuple([1] * p)


def test_cf_one_point_space():
    space = CoveredSpace(("x",), ((0,),))
    cf = cf_algebra(space)
    assert cf.tower.horizon == 1
    assert cf.tower.level(1).block_sizes == (1,)
    report = duality_roundtrip(space, 1, 1e-12, stream(73, "one-point"))
    assert report.passed


def test_space_roundtrip_five_points():
    space = CoveredSpace(
        tuple("abcde"), tuple(tuple(range(k)) for k in range(1, 6)))
    report = duality_roundtrip(space, 5, 1e-12, stream(74, "five"), probes=100)
    assert report.passed
    assert report.max_residual <= 1e-12


def test_space_roundtrip_with_plateaus():
    # a chain that repeats sets and adds two points at once
    space = CoveredSpace(
        tuple("abcd"), ((0,), (0,), (0, 1, 2), (0, 1, 2, 3)))
    report = duality_roundtrip(space, 4, 1e-12, stream(75, "plateau"))
    assert report.passed


def test_tower_roundtrip_commutative():
    t = make_product_tower(lambda k: 1, 5)
    report = duality_roundtrip(
        t, 5, 1e-12, stream(76, "tower-roundtrip"), probes=100)
    assert report.passed
    assert report.max_residual <= 1e-12


def test_tower_roundtrip_flags_catch_scrambled_points(monkeypatch):
    import protower.gelfand

    build = protower.gelfand.cf_algebra

    def reversed_levels(space):
        # each level's blocks in reverse chain order: the function tower is
        # isomorphic, but block j no longer stands for point chain[p-1][j]
        return build(CoveredSpace(
            space.points, tuple(f[::-1] for f in space.chain)))

    monkeypatch.setattr(protower.gelfand, "cf_algebra", reversed_levels)
    space = CoveredSpace(
        tuple("abcde"), tuple(tuple(range(k)) for k in range(1, 6)))
    for obj in (space, make_product_tower(lambda k: 1, 5)):
        # no probes: the structural flags alone must fail the report
        report = duality_roundtrip(
            obj, 5, 1e-12, stream(77, "scrambled"), probes=0)
        assert not report.bijection_ok
        assert not report.birth_levels_ok
        assert not report.family_ok
        assert not report.passed


def test_roundtrip_unbounded_seminorm_growth():
    # function with values 1, 2, 3, ... on a growing covered space: the
    # truncated sup grows without a certificate, the bounded-function
    # algebra keeps out
    space = CoveredSpace(
        tuple("abcdef"), tuple(tuple(range(k)) for k in range(1, 7)))
    cf = cf_algebra(space)
    f = cf.element_from_values(lambda i: float(i + 1))
    from protower.calculus import uniform_norm

    v = uniform_norm(f, horizon=6)
    assert v.is_bounded  # the chain here is finite, so it exhausts
    assert v.bound == pytest.approx(6.0)
    norms = [seminorm(f, p) for p in range(1, 7)]
    assert norms == pytest.approx(list(range(1, 7)))


def test_character_spaces_are_built_once_per_trip(monkeypatch):
    import protower.gelfand
    import protower.suites
    from protower.cli import bundled_spec_path
    from protower.specfile import load_specfile

    calls = []
    build = protower.gelfand.character_space

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(protower.gelfand, "character_space", counted)
    monkeypatch.setattr(protower.suites, "character_space", counted)
    space = CoveredSpace(
        tuple("abcde"), tuple(tuple(range(k)) for k in range(1, 6)))
    spec = load_specfile(bundled_spec_path())

    def count(run, probes):
        calls.clear()
        run(probes)
        return len(calls)

    trips = {
        "space": lambda n: duality_roundtrip(space, 5, 1e-12, stream(1, "s"), n),
        "tower": lambda n: duality_roundtrip(
            make_product_tower(lambda k: 1, 5), 5, 1e-12, stream(1, "t"), n),
        "suite": lambda n: protower.suites.gelfand_records(spec, 1, probes=n),
    }
    for name, trip in trips.items():
        assert count(trip, 1) == count(trip, 7), name
    # the tower trip builds the tower's and cf_algebra's spaces, once each
    assert count(trips["tower"], 7) == 2
