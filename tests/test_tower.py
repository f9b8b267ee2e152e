"""Inverse systems: connecting maps, coherent families, ideals."""

import dataclasses
import math

import numpy as np
import pytest

from protower.calculus import (
    DEFAULT_DIVERGENCE_THRESHOLD,
    BoundednessVerdict,
    coherent_selfadjoint_parts,
    is_spectrally_bounded,
    lift_function,
    pro_spectrum,
    seminorm,
    uniform_norm,
)
from protower.core_algebra import (
    BlockAlgebra,
    ExpI,
    Polynomial,
    PreconditionError,
    RationalSquash,
    StructuralError,
    TruncationError,
    _block_norm,
    apply_function,
    cluster_points,
    cstar_norm,
    distance,
    hausdorff_distance,
    one_sided_hausdorff,
    spectrum,
)
from protower.randomness import (
    random_element,
    random_selfadjoint,
    random_unitary,
    random_unitary_near_identity,
    stream,
)
from protower.tower import (
    Certificates,
    ConnectingMap,
    CoherentElement,
    Tower,
    check_coherence,
    closed_ideal,
    coherent_from_top,
    diag_sequence_element,
    make_product_tower,
    project,
    scalar_element,
    shift_element,
)


def test_product_tower_levels():
    t = make_product_tower(lambda k: k, 3)
    assert t.level(1).block_sizes == (1,)
    assert t.level(2).block_sizes == (1, 2)
    assert t.level(3).block_sizes == (1, 2, 3)
    assert t.horizon == 3
    # lazy growth past the initial horizon
    assert t.level(5).block_sizes == (1, 2, 3, 4, 5)
    assert t.horizon == 5


def test_constant_commutative_tower():
    t = make_product_tower(lambda k: 1, 2)
    assert t.level(1).block_sizes == (1,)
    assert t.level(2).block_sizes == (1, 1)
    assert t.level(2).is_commutative


def test_degenerate_single_level_tower():
    t = make_product_tower([2], 1, lazy=False)
    assert t.horizon == 1
    assert not t.is_lazy
    with pytest.raises(TruncationError):
        t.level(2)


def test_connecting_map_requires_surjective_form():
    a2 = BlockAlgebra((1, 2))
    a1 = BlockAlgebra((1,))
    with pytest.raises(StructuralError):
        ConnectingMap(a2, a1, (None,))
    # reusing a source block is not surjective either
    b2 = BlockAlgebra((2, 2))
    with pytest.raises(StructuralError):
        ConnectingMap(b2, b2, ((0, np.eye(2)), (0, np.eye(2))))


def test_connecting_map_conjugator_checks():
    a = BlockAlgebra((2,))
    with pytest.raises(StructuralError):
        ConnectingMap(a, a, ((0, 2.0 * np.eye(2)),))
    with pytest.raises(StructuralError):
        ConnectingMap(a, BlockAlgebra((3,)), ((0, np.eye(3)),))


def test_composite_maps_consistent():
    t = make_product_tower(lambda k: k, 5)
    rng = stream(21, "composites")
    direct = t.connecting(1, 4)
    stepwise = t.map(1).compose(t.map(2)).compose(t.map(3))
    for _ in range(50):
        x = random_element(t.level(4), rng)
        assert distance(direct.apply(x), stepwise.apply(x)) <= 1e-12


def test_surjectivity_roundtrip():
    t = make_product_tower(lambda k: k, 4)
    rng = stream(22, "sections")
    for p in range(1, 4):
        cmap = t.map(p)
        for _ in range(34):
            y = random_element(t.level(p), rng)
            x = cmap.section(y)
            assert distance(cmap.apply(x), y) <= 1e-12


def test_scalar_element_projects_to_scalar():
    t = make_product_tower(lambda k: k, 3)
    e = scalar_element(t, 2.5)
    for p in (1, 2, 3):
        assert distance(project(e, p), t.level(p).scalar(2.5)) == 0.0


def test_shift_element_levels():
    t = make_product_tower(lambda k: k, 4)
    e = shift_element(t)
    x4 = project(e, 4)
    assert x4.parent.block_sizes == (1, 2, 3, 4)
    assert np.allclose(x4.blocks[2], np.diag([1.0, 2.0], 1))
    assert np.allclose(x4.blocks[3], np.diag([1.0, 2.0, 3.0], 1))
    # projection consistency: pushing level 4 down gives level 2
    assert distance(t.connecting(2, 4).apply(x4), project(e, 2)) <= 1e-14


def test_projection_consistency_random():
    t = make_product_tower(lambda k: k, 5)
    rng = stream(23, "consistency")
    for _ in range(20):
        e = coherent_from_top(t, random_element(t.level(5), rng), 5)
        for p in range(1, 5):
            for q in range(p, 6):
                pushed = t.connecting(p, q).apply(project(e, q))
                assert distance(pushed, project(e, p)) <= 1e-12


def test_check_coherence_passes_and_reports():
    t = make_product_tower(lambda k: k, 4)
    e = shift_element(t)
    report = check_coherence(e, 4)
    assert report.passed
    assert report.worst <= 1e-14

    corrupted = [project(e, p) for p in range(1, 5)]
    bump = t.level(2).zero()
    bumped = list(corrupted)
    noise = np.zeros((2, 2), dtype=complex)
    noise[0, 0] = 1e-3
    bumped[1] = bumped[1] + t.level(2).element(
        [np.array([[0.0]], dtype=complex), noise])
    bad = CoherentElement(
        t, generator=lambda p, indices: [bumped[p - 1].blocks[i] for i in indices])
    report = check_coherence(bad, 4)
    assert not report.passed
    # the perturbed block of level 2 is deleted by the map down to level 1,
    # so the defect shows up against level 3
    assert report.residuals[0] == 0.0
    assert report.residuals[1] == pytest.approx(1e-3, rel=1e-6)
    # explicit levels are checked where they enter, by the same rule
    assert CoherentElement.from_levels(t, corrupted).max_level(9) == 4
    with pytest.raises(StructuralError, match="level 3 block 1 "):
        CoherentElement.from_levels(t, bumped)


def test_generator_required_beyond_explicit_levels():
    t = make_product_tower(lambda k: k, 3)
    e = coherent_from_top(t, t.level(3).identity(), 3)
    with pytest.raises(TruncationError):
        project(e, 4)


def test_with_certificates_accepts_only_certificate_fields():
    t = make_product_tower(lambda k: 1, 3)
    e = scalar_element(t, 2.0)
    copy = e.with_certificates(norm_bound=3.0, unitary=True)
    assert (copy.certificates.norm_bound, copy.certificates.unitary) == (3.0, True)
    assert (copy.tower is t and e.certificates.norm_bound == 2.0
            and not e.certificates.unitary)
    # neither the tower nor a method can be swapped through the copy
    for key, value in (("tower", make_product_tower(lambda k: 1, 2)),
                       ("max_level", None), ("coherence_tol", 1.0)):
        with pytest.raises(StructuralError, match=repr(key)):
            e.with_certificates(**{key: value})


def test_certificate_rules():
    # lazy towers, so that exhausting the tower cannot stand in for a
    # certificate
    t = make_product_tower(lambda k: k, 4)
    top = random_unitary(t.level(4), stream(31, "unitary-certificate"))
    v = uniform_norm(coherent_from_top(t, top, 4, unitary=True), 4)
    assert (v.status, v.bound, v.certificate) == (
        "bounded", 1.0, "unitary element")
    v = is_spectrally_bounded(scalar_element(t, 3.0), 4)
    assert (v.status, v.bound, v.certificate) == (
        "bounded", 3.0, "scalar multiple of the identity")
    assert Certificates(norm_bound=2.0).norm() == (2.0, "declared norm bound")
    assert Certificates(spectral_bound=0.5).spectral() == (
        0.5, "declared spectral bound")
    assert Certificates().norm() is None and Certificates().spectral() is None
    with pytest.raises(StructuralError, match="'bogus'"):
        Certificates.of(bogus=1.0)


def test_certificates_are_one_immutable_value():
    t = make_product_tower(lambda k: k, 4)
    e = shift_element(t)
    before = e.certificates
    level = e.materialize(3)
    copy = e.with_certificates(norm_bound=5.0)
    assert e.certificates is before and before.norm_bound is None
    assert copy.certificates.norm_bound == 5.0
    assert copy.certificates.spectral_bound == before.spectral_bound
    assert copy.materialize(3) is level
    with pytest.raises(dataclasses.FrozenInstanceError):
        before.norm_bound = 1.0
    with pytest.raises(AttributeError):
        e.certificates = Certificates()


def test_norm_monotone_along_chain():
    t = make_product_tower(lambda k: k, 5)
    rng = stream(24, "monotone")
    for _ in range(20):
        e = coherent_from_top(t, random_element(t.level(5), rng), 5)
        norms = [cstar_norm(project(e, p)) for p in range(1, 6)]
        for lo, hi in zip(norms, norms[1:]):
            assert lo <= hi + 1e-12


def test_spectral_nesting_along_chain():
    t = make_product_tower(lambda k: k, 5)
    rng = stream(25, "nesting")
    for _ in range(20):
        e = coherent_from_top(t, random_element(t.level(5), rng), 5)
        spectra = [spectrum(project(e, p)) for p in range(1, 6)]
        for lo, hi in zip(spectra, spectra[1:]):
            assert one_sided_hausdorff(lo, hi) <= 1e-8


def test_closed_ideal_trivial_selectors():
    t = make_product_tower(lambda k: k, 3).finite_prefix(3)
    dec = closed_ideal(t, [frozenset()] * 3)
    assert dec.ideal is None
    assert dec.quotient is t

    full = [frozenset(range(t.level(p).num_blocks)) for p in range(1, 4)]
    dec = closed_ideal(t, full)
    assert dec.ideal is t
    assert dec.quotient is None


def shifted_chain(levels=5):
    """Product-style tower whose level k holds blocks of sizes 1..k+1.

    Same inverse limit as the plain matrix-product tower, but every level
    has at least two blocks, so a block split leaves no level empty.
    """
    base = make_product_tower(lambda k: k, levels + 1)
    return Tower(
        [base.level(p) for p in range(2, levels + 2)],
        [base.map(p) for p in range(2, levels + 1)],
    )


def test_closed_ideal_split():
    t = shifted_chain(5)
    dec = closed_ideal(t, [frozenset({0})] * 5)
    assert dec.ideal.level(1).block_sizes == (1,)
    assert dec.ideal.level(5).block_sizes == (1,)
    assert not dec.ideal.unital
    assert dec.quotient.level(1).block_sizes == (2,)
    assert dec.quotient.level(5).block_sizes == (2, 3, 4, 5, 6)

    # membership oracle at each level: ker(quotient) = image(inclusion)
    rng = stream(26, "ideal-membership")
    for p in range(1, 6):
        inc = dec.inclusion.level_map(p)
        quo = dec.quotient_map.level_map(p)
        for _ in range(10):
            v = random_element(dec.ideal.level(p), rng)
            image = inc.apply(v)
            assert cstar_norm(quo.apply(image)) <= 1e-13
            # anything killed by the quotient is supported on block 0
            w = random_element(t.level(p), rng)
            killed_blocks = [
                w.blocks[i] * 0 if i != 0 else w.blocks[i]
                for i in range(t.level(p).num_blocks)]
            killed = t.level(p).element(killed_blocks)
            assert cstar_norm(quo.apply(killed)) == 0.0


def test_closed_ideal_incoherent_selector():
    t = shifted_chain(3)
    selector = [frozenset({0}), frozenset({1}), frozenset({0})]
    with pytest.raises(StructuralError) as err:
        closed_ideal(t, selector)
    assert "level 1" in str(err.value)


def test_closed_ideal_rejects_empty_side_level():
    t = make_product_tower(lambda k: k, 3).finite_prefix(3)
    # selecting block 0 empties the quotient at level 1
    with pytest.raises(StructuralError):
        closed_ideal(t, [frozenset({0})] * 3)


def test_diag_sequence_element():
    t = make_product_tower(lambda k: 1, 4)
    e = diag_sequence_element(t, [k / (k + 1) for k in range(1, 5)])
    x = project(e, 4)
    values = [b[0, 0].real for b in x.blocks]
    assert values == pytest.approx([1 / 2, 2 / 3, 3 / 4, 4 / 5])
    assert e.certificates.selfadjoint


def test_block_map_matrix_matches_apply():
    t = make_product_tower(lambda k: k, 4)
    rng = stream(27, "matrix-form")
    cmap = t.connecting(2, 4)
    m = cmap.matrix()
    for _ in range(10):
        x = random_element(t.level(4), rng)
        vec = np.concatenate([b.reshape(-1) for b in x.blocks])
        pushed = cmap.apply(x)
        vec_pushed = np.concatenate([b.reshape(-1) for b in pushed.blocks])
        assert np.abs(m @ vec - vec_pushed).max() <= 1e-12


def test_sweeps_ask_only_for_newborn_blocks():
    t = make_product_tower(lambda k: k, 1)
    calls = []

    def shift_like(p, indices):
        calls.append((p, tuple(indices)))
        sizes = t.level(p).block_sizes
        return [np.diag(np.arange(1.0, sizes[i]), 1) for i in indices]

    e = CoherentElement(t, generator=shift_like)
    newborn = [(p, (p - 1,)) for p in range(1, 61)]
    assert pro_spectrum(e, 60).radius == 0.0
    assert calls == newborn
    calls.clear()
    verdict = uniform_norm(e, 60, math.inf)
    assert calls == newborn
    assert verdict.lower_bound == pytest.approx(59.0, rel=1e-12)

    calls.clear()
    assert seminorm(e, 60) == pytest.approx(59.0, rel=1e-12)
    assert calls == newborn

    calls.clear()
    x = project(e, 60)
    assert project(e, 60) is x
    assert calls == [(60, tuple(range(60)))]


def test_generator_block_shapes_are_checked():
    t = make_product_tower(lambda k: k, 3)
    e = CoherentElement(t, generator=lambda p, indices: [np.eye(2)] * len(indices))
    with pytest.raises(StructuralError, match="level 3 block 0"):
        project(e, 3)
    short = CoherentElement(t, generator=lambda p, indices: [])
    with pytest.raises(StructuralError, match="0 blocks of level 1"):
        uniform_norm(short, 2)
    # newborn data must list exactly the blocks each level adds
    with pytest.raises(StructuralError, match="blocks born at level 2"):
        CoherentElement.from_newborn(t, [(1, [0], [np.eye(1)]), (2, [0], [np.eye(1)])])


def twisted_chain(levels, rng):
    """Level k holds blocks of sizes 1..k+1 in a seeded order; connecting
    maps conjugate every surviving block by a Haar unitary."""
    orders = [rng.permutation(k + 1) for k in range(1, levels + 1)]
    algebras = []
    for order in orders:
        sizes = [0] * len(order)
        for c, pos in enumerate(order):
            sizes[pos] = c + 1
        algebras.append(BlockAlgebra(tuple(sizes)))
    maps = []
    for k in range(1, levels):
        lower, upper = orders[k - 1], orders[k]
        routes = [None] * len(lower)
        for c in range(len(lower)):
            u = random_unitary(BlockAlgebra((c + 1,)), rng).blocks[0]
            routes[lower[c]] = (int(upper[c]), u)
        maps.append(ConnectingMap(algebras[k], algebras[k - 1], tuple(routes)))
    return Tower(algebras, maps), orders


def pushed_down(tower, top, q):
    """Levels 1..q of the family whose level q is ``top``, each the whole
    image of the level above: the whole-level store that explicit families
    kept, kept as the oracle of the newborn store."""
    levels = [top]
    for p in range(q - 1, 0, -1):
        levels.append(tower.map(p).apply(levels[-1]))
    return levels[::-1]


def test_newborn_store_equals_whole_level_pushdown():
    from protower.unitary import unitary_log

    horizon = 7
    # three twisted towers, within rounding; a prefix tower routes without
    # conjugators, so there the two stores agree bitwise (tol 0)
    cases = [(twisted_chain(horizon, stream(seed, "newborn-store"))[0], 1e-12)
             for seed in range(3)]
    cases.append((make_product_tower(lambda k: k, horizon, lazy=False), 0.0))
    for t, tol in cases:
        rng = stream(horizon, "newborn-store-tops")
        x_top = random_element(t.level(horizon), rng)
        u_top = random_unitary_near_identity(t.level(horizon), rng)
        log = unitary_log(coherent_from_top(t, u_top, horizon, unitary=True))
        families = [(log, pushed_down(t, project(log, horizon), horizon))]
        for top in (x_top, u_top):
            oracle = pushed_down(t, top, horizon)
            families += [(coherent_from_top(t, top, horizon), oracle),
                         (CoherentElement.from_levels(t, oracle), oracle)]
        for e, oracle in families:
            for p in range(1, horizon + 1):
                # newborn blocks only, then the level rebuilt through sections
                assert abs(seminorm(e, p) - cstar_norm(oracle[p - 1])) <= tol
                assert distance(project(e, p), oracle[p - 1]) <= tol


def test_deep_level_materializes_without_recursion():
    import sys

    depth = 200
    t = make_product_tower(lambda k: 1, 1)
    e = coherent_from_top(t, t.level(depth).diagonal(range(depth)), depth)
    limit = sys.getrecursionlimit()
    frames, f = 0, sys._getframe()
    while f is not None:
        frames, f = frames + 1, f.f_back
    # far fewer frames than levels: one frame per level would overflow
    sys.setrecursionlimit(frames + 50)
    try:
        level = project(e, depth)
        assert seminorm(e, depth) == depth - 1
    finally:
        sys.setrecursionlimit(limit)
    assert [b[0, 0] for b in level.blocks] == list(range(depth))


def test_sweeps_match_full_levels_on_twisted_tower():
    horizon = 7
    rng = stream(28, "twisted-sweeps")
    t, orders = twisted_chain(horizon, rng)
    h = coherent_from_top(t, random_selfadjoint(t.level(horizon), rng), horizon)
    x = coherent_from_top(t, random_element(t.level(horizon), rng), horizon)
    dec = closed_ideal(t, [frozenset({int(order[0])}) for order in orders])
    inside = coherent_from_top(
        dec.ideal, random_element(dec.ideal.level(horizon), rng), horizon)
    elements = [
        lift_function(h, ExpI(1.0)),
        *coherent_selfadjoint_parts(x),
        dec.inclusion.apply(inside),
    ]
    for e in elements:
        # sweep first, so that no level is cached yet
        spec = pro_spectrum(e, horizon)
        verdict = uniform_norm(e, horizon)
        levels = [project(e, p) for p in range(1, horizon + 1)]
        eigs = np.concatenate([spectrum(y) for y in levels])
        union = cluster_points(eigs, 1e-8)
        assert len(spec.points) == len(union)
        assert hausdorff_distance(spec.points, union) <= 1e-10
        assert abs(spec.radius - np.abs(eigs).max()) <= 1e-10
        assert verdict.is_bounded
        assert abs(verdict.bound - max(cstar_norm(y) for y in levels)) <= 1e-10
        assert check_coherence(e, horizon).passed


def bits(blocks):
    return [np.ascontiguousarray(b).tobytes() for b in blocks]


def test_apply_function_and_lift_function_share_the_per_block_rule():
    # a level's calculus and the lift agree bitwise, also on levels that
    # mix normal blocks with non-normal ones
    rng = stream(32, "per-block-rule")
    t = make_product_tower(lambda k: k, 5, lazy=False)
    herm = random_selfadjoint(t.level(5), rng)
    shift_top = t.level(5).element(
        [*herm.blocks[:-1], project(shift_element(t), 5).blocks[-1]])
    # block 1 is normal at the scale 1e6 of the level, not at its own
    scales = make_product_tower([1, 2], 2, lazy=False)
    cases = [coherent_from_top(t, shift_top, 5), coherent_from_top(
        scales, scales.level(2).element([[[1e6]], [[0, 1 + 1e-6], [1, 0]]]), 2)]
    for seed in range(3):
        tw, _ = twisted_chain(6, stream(seed, "per-block-twisted"))
        h = random_selfadjoint(tw.level(6), rng)
        x = random_element(tw.level(6), rng)
        cases.append(coherent_from_top(tw, tw.level(6).element(
            [hb if i % 2 else xb for i, (hb, xb) in enumerate(zip(h.blocks, x.blocks))]),
            6))
    for e in cases:
        for f in (RationalSquash(2), Polynomial.in_z([0.5, -1.0, 0.25j])):
            lifted = lift_function(e, f)
            for p in range(1, e.tower.horizon + 1):
                assert bits(project(lifted, p).blocks) == bits(
                    apply_function(project(e, p), f).blocks)
    # a non-analytic f refuses the shift block, by the same rule
    refusal = "block 4: non-analytic calculus needs a normal block.*non-normal"
    with pytest.raises(PreconditionError, match="^" + refusal):
        apply_function(project(cases[0], 5), ExpI(1.0))
    with pytest.raises(PreconditionError, match="^level 5 " + refusal):
        project(lift_function(cases[0], ExpI(1.0)), 5)


def full_sweep_verdict(e, horizon, threshold):
    """uniform_norm with one SVD per newborn block, inherited along the
    routes, and the level maxima taken over every block: the sweep that
    the bracket replaces, kept as the reference."""
    t = e.tower
    top = e.max_level(horizon)
    norms, best = {}, 0.0
    for p in range(1, top + 1):
        if p > 1:
            norms = {
                route[0]: norms[j] for j, route in enumerate(t.map(p - 1).routes)}
        fresh = [i for i in range(t.level(p).num_blocks) if i not in norms]
        if fresh:
            for i, b in zip(fresh, e.level_blocks(p, fresh)):
                norms[i] = _block_norm(b)
        level_value = max(norms.values())
        best = max(best, level_value)
        if level_value > threshold:
            return BoundednessVerdict.unbounded(
                p, level_value, top, lower_bound=best)
    if not t.is_lazy and top >= t.horizon:
        return BoundednessVerdict.bounded(
            best, "finite tower exhausted", top, lower_bound=best)
    return BoundednessVerdict.unknown(best, top)


def seeded_blocks(seed, make):
    """Generator whose newborn block (p, i) is ``make(p, i, rng)`` with an
    rng keyed by (seed, p, i), so regenerating a block rebuilds it exactly."""
    def gen(p, indices):
        return [make(p, i, stream(seed, f"block-{p}-{i}")) for i in indices]
    return gen


def test_bracketed_sweep_equals_full_sweep():
    elements = []
    for seed in range(4):
        rng = stream(seed, "bracket-twisted")
        t, _ = twisted_chain(8, rng)
        elements += [
            coherent_from_top(t, random_element(t.level(8), rng), 8),
            coherent_from_top(t, random_selfadjoint(t.level(8), rng), 8),
        ]
    # dense random blocks of random scale, on a lazy and on a finite tower
    for lazy in (True, False):
        t = make_product_tower(lambda k: k, 12, lazy=lazy)
        elements.append(CoherentElement(t, generator=seeded_blocks(
            int(lazy), lambda p, i, rng: rng.uniform(0, 4) * random_element(
                BlockAlgebra((i + 1,)), rng).blocks[0])))
    # ties: block 2k+1 is a unitary conjugate of block 2k, born a level
    # later; diagonal blocks whose norms step up by one ulp every two levels
    def conjugate_pairs(p, i, rng):
        b = random_element(BlockAlgebra((3,)), stream(5, f"pair-{i // 2}")).blocks[0]
        if i % 2 == 0:
            return b
        u = random_unitary(BlockAlgebra((3,)), rng).blocks[0]
        return u @ b @ u.conj().T

    ulp = np.nextafter(3.0, 9.0) - 3.0

    def ulp_steps(p, i, rng):
        return np.diag([3.0 + (i // 2) * ulp, 0.5, 0.25]).astype(complex)

    assert _block_norm(ulp_steps(3, 2, None)) == np.nextafter(
        _block_norm(ulp_steps(1, 0, None)), 9.0)
    tied = make_product_tower(lambda k: 3, 1)
    elements += [
        CoherentElement(tied, generator=seeded_blocks(5, conjugate_pairs)),
        CoherentElement(tied, generator=seeded_blocks(6, ulp_steps)),
    ]

    for e in elements:
        sup = full_sweep_verdict(e, 12, math.inf).lower_bound
        thresholds = [math.inf, DEFAULT_DIVERGENCE_THRESHOLD, sup,
                      np.nextafter(sup, 0.0), sup / 2, 0.0]
        witnessed = 0
        for threshold in thresholds:
            want = full_sweep_verdict(e, 12, threshold)
            assert uniform_norm(e, 12, threshold) == want
            witnessed += want.is_unbounded
        assert witnessed >= 2  # nextafter(sup, 0) and 0 always trigger one


def test_bracketed_sweep_svd_counts(monkeypatch):
    import protower.calculus
    from protower.cli import bundled_spec_path, run
    from protower.specfile import load_specfile

    sizes = []

    def counted(b):
        sizes.append(b.shape[0])
        return _block_norm(b)

    monkeypatch.setattr(protower.calculus, "_block_norm", counted)
    shift = shift_element(make_product_tower(lambda k: k, 1))
    assert uniform_norm(shift, 300, math.inf).lower_bound == 299.0
    assert len(sizes) <= 2

    sizes.clear()
    report = run("bounded", load_specfile(bundled_spec_path()), {})
    details = report.records[0].details
    assert (details["witness_level"], details["witness_value"]) == (52, 51.0)
    assert len(sizes) <= 3


# blockwise arithmetic: one binary form per operation, applied alike to
# coherent elements and to their projected levels
OPERATIONS = {
    "sum": lambda a, b: a + b,
    "difference": lambda a, b: a - b,
    "product": lambda a, b: a * b,
    "scalar-left": lambda a, b: (0.5 - 2j) * a,
    "scalar-right": lambda a, b: a * (0.5 - 2j),
    "adjoint": lambda a, b: a.adjoint(),
}


def arithmetic_operands(seed):
    """(tower, top, operands) on a twisted tower and a lazy product tower;
    two explicit operands up to ``top`` and two generators."""
    rng = stream(seed, "coherent-arithmetic")
    twisted, _ = twisted_chain(6, rng)
    lazy = make_product_tower(lambda k: k, 1)
    for t, top in ((twisted, 6), (lazy, 5)):
        explicit = [coherent_from_top(t, random_element(t.level(top), rng), top)
                    for _ in range(2)]
        yield t, top, [*explicit, shift_element(t), scalar_element(t, 1.5 + 1j)]


@pytest.mark.parametrize("op", OPERATIONS.values(), ids=OPERATIONS)
def test_arithmetic_is_blockwise(op):
    for t, top, operands in arithmetic_operands(71):
        for a in operands:
            for b in operands:
                c = op(a, b)
                assert c.certificates == Certificates()
                for p in range(1, top + 1):
                    want = op(project(a, p), project(b, p)).blocks
                    order = list(range(t.level(p).num_blocks))[::-1]
                    # the sweep path first, before the level is cached
                    got = c.level_blocks(p, order)
                    assert all(np.array_equal(x, want[i])
                               for x, i in zip(got, order))
                    assert all(np.array_equal(x, y)
                               for x, y in zip(project(c, p).blocks, want))


def test_arithmetic_top_level_and_towers():
    t = make_product_tower(lambda k: k, 1)
    rng = stream(72, "arithmetic-top")
    x = coherent_from_top(t, random_element(t.level(4), rng), 4)
    s = shift_element(t)
    for c in (x + s, s - x, s * x, x * s, 2.0 * x, x * 2.0, x.adjoint()):
        assert c.max_level(10) == 4
        with pytest.raises(TruncationError):
            project(c, 5)
    assert (s + scalar_element(t, 1.0)).max_level(10) == 10
    other = shift_element(make_product_tower(lambda k: k, 1))
    for op in ("sum", "difference", "product"):
        with pytest.raises(StructuralError, match="different towers"):
            OPERATIONS[op](s, other)


def test_sweep_of_a_sum_asks_only_for_newborn_blocks():
    t = make_product_tower(lambda k: k, 1)
    calls = []

    def shift_like(p, indices):
        calls.append((p, tuple(indices)))
        sizes = t.level(p).block_sizes
        return [np.diag(np.arange(1.0, sizes[i]), 1) for i in indices]

    e = CoherentElement(t, generator=shift_like)
    total = e + scalar_element(t, 2.0)
    assert pro_spectrum(total, 40).radius == pytest.approx(2.0)
    assert calls == [(p, (p - 1,)) for p in range(1, 41)]
    calls.clear()
    assert uniform_norm(3.0 * total.adjoint(), 40, math.inf).lower_bound > 39
    assert calls == [(p, (p - 1,)) for p in range(1, 41)]


def test_is_selfadjoint_exact_match_needs_no_norm(monkeypatch):
    from protower.core_algebra import is_selfadjoint

    rng = stream(73, "selfadjoint-verdicts")
    alg = BlockAlgebra((2, 3, 4))
    h = random_selfadjoint(alg, rng)
    k = random_element(alg, rng)
    inputs = [scale * h + eps * k for scale in (1.0, 1e3)
              for eps in (0.0, 1e-15, 1e-13, 1e-11, 1e-9, 1e-4)]
    tols = (0.0, 1e-14, 1e-12, 1e-10, 1e-8)
    # the rule before the shortcut, which it must agree with for tol >= 0
    expected = [[distance(x, x.adjoint()) <= tol * max(1.0, cstar_norm(x))
                 for tol in tols] for x in inputs]
    assert [[is_selfadjoint(x, tol) for tol in tols] for x in inputs] == expected
    assert all(any(col) and not all(col) for col in zip(*expected))

    def no_svd(*args, **kwargs):
        raise AssertionError("SVD called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert h.blocks[1].shape == (3, 3)
    assert is_selfadjoint(h, 0.0) and is_selfadjoint(1e3 * h)


def test_identity_component_check_on_an_ideal_tower():
    # an ideal tower is not unital; its unitaries still factor through
    # exp_selfadjoint, and the factor and the product are those of the
    # explicit per-level construction
    from protower.core_algebra import apply_function
    from protower.unitary import identity_component_check

    t = shifted_chain(4)
    dec = closed_ideal(t, [frozenset({1})] * 4)
    assert not dec.ideal.unital
    u = coherent_from_top(
        dec.ideal, random_unitary(dec.ideal.level(4), stream(74, "ideal-unitary")),
        4, unitary=True)
    fact = identity_component_check(u, 4)
    assert len(fact.factors) == 1 and fact.branch_angles == (math.pi,)
    prod = fact.product()
    worst = 0.0
    for p in range(1, 5):
        level = apply_function(project(fact.factors[0], p), ExpI(1.0))
        assert all(np.array_equal(x, y)
                   for x, y in zip(project(prod, p).blocks, level.blocks))
        worst = max(worst, distance(level, project(u, p)))
    assert fact.residual == worst <= 1e-12
