"""Coreflector mechanics: bounded parts, induced maps, exactness."""

import dataclasses

import numpy as np
import pytest

import protower.bounded_functor as bounded_functor
from protower.bounded_functor import (
    ExactnessReport,
    _preimage,
    apply_functor,
    bounded_part,
    check_exactness,
    kernel_quotient_check,
    quotient_iso_check,
    squash_bound,
)
from protower.calculus import lift_function, seminorm, uniform_norm
from protower.cli import bundled_spec_path
from protower.core_algebra import (
    AlgebraElement,
    BlockAlgebra,
    ExpI,
    PreconditionError,
    RationalSquash,
    cstar_norm,
    distance,
)
from protower.randomness import (
    random_element,
    random_selfadjoint,
    random_unitary,
    stream,
)
from protower.specfile import load_specfile
from protower.tower import (
    BlockMap,
    CoherentElement,
    ConnectingMap,
    Tower,
    TowerHomomorphism,
    closed_ideal,
    coherent_from_top,
    make_product_tower,
    project,
    scalar_element,
    shift_element,
)


def shifted_chain(levels=5, start=2):
    """Finite product-style chain built from base levels start..start+levels-1."""
    base = make_product_tower(lambda k: k, start + levels)
    return Tower(
        [base.level(p) for p in range(start, start + levels)],
        [base.map(p) for p in range(start, start + levels - 1)],
    )


def ideal_sequence(levels=5):
    t = shifted_chain(levels)
    dec = closed_ideal(t, [frozenset({0})] * levels)
    return t, dec


def test_bounded_part_unitary_scalar_shift():
    t = make_product_tower(lambda k: k, 4)
    rng = stream(51, "bounded-part")
    h = coherent_from_top(
        t, random_selfadjoint(t.level(4), rng), 4, selfadjoint=True)
    u = lift_function(h, ExpI(1.0))
    tagged = bounded_part(u, horizon=4)
    assert tagged is not None
    assert tagged.certificates.norm_bound == pytest.approx(1.0)

    zero = bounded_part(scalar_element(t, 0.0), horizon=4)
    assert zero is not None and zero.certificates.norm_bound == 0.0

    assert bounded_part(shift_element(t), horizon=40, threshold=20.0) is None


def test_apply_functor_identity():
    from protower.tower import identity_homomorphism

    t = make_product_tower(lambda k: k, 4, lazy=False)
    rng = stream(52, "functor-id")
    e = coherent_from_top(t, random_element(t.level(4), rng), 4)
    phi = identity_homomorphism(t)
    image = apply_functor(phi, e, horizon=4)
    for p in range(1, 5):
        assert distance(project(image, p), project(e, p)) <= 1e-13


def test_apply_functor_projection_to_first_level():
    t = make_product_tower(lambda k: k, 4, lazy=False)
    single = Tower([t.level(1)], [])
    from protower.tower import identity_map

    phi = TowerHomomorphism(
        t, single, [identity_map(t.level(1))], level_index=lambda p: 1)
    e = shift_element(t)  # bounded here because the tower is finite
    image = apply_functor(phi, e, horizon=4)
    # the first block of the shift family is the 1x1 zero matrix
    assert cstar_norm(project(image, 1)) == 0.0


def test_apply_functor_rejects_unknown_verdict():
    t = make_product_tower(lambda k: k, 4)  # lazy: no exhaustion certificate
    rng = stream(53, "functor-reject")
    e = coherent_from_top(t, random_element(t.level(4), rng), 4)
    from protower.tower import identity_homomorphism

    with pytest.raises(PreconditionError):
        apply_functor(identity_homomorphism(t), e, horizon=4)


def test_functor_contractive_and_functorial():
    t = shifted_chain(4, start=3)  # levels (1,2,3) .. (1,..,6)
    dec = closed_ideal(t, [frozenset({0})] * 4)
    rng = stream(54, "functorial")
    beta = dec.quotient_map
    for _ in range(20):
        e = coherent_from_top(t, random_element(t.level(4), rng), 4)
        image = apply_functor(beta, e, horizon=4)
        assert image.certificates.norm_bound <= uniform_norm(e, 4).bound + 1e-10
        observed = max(seminorm(image, p) for p in range(1, 5))
        assert observed <= uniform_norm(e, 4).bound + 1e-10

    # composite of two block deletions equals the direct deletion
    inner = dec.quotient_map
    dec2 = closed_ideal(dec.quotient, [frozenset({0})] * 4)
    outer = dec2.quotient_map
    combined = outer.compose(inner)
    for _ in range(10):
        e = coherent_from_top(t, random_element(t.level(4), rng), 4)
        one = apply_functor(combined, e, horizon=4)
        two = apply_functor(outer, apply_functor(inner, e, horizon=4), horizon=4)
        for p in range(1, 5):
            assert distance(project(one, p), project(two, p)) <= 1e-12


def test_check_exactness_on_ideal_sequence():
    t, dec = ideal_sequence(5)
    rng = stream(55, "exactness")
    report = check_exactness(
        dec.inclusion, dec.quotient_map, probes=8, horizon=5, tol=1e-10,
        rng=rng)
    assert report.composite_residual <= 1e-12
    assert report.verdict_original
    assert report.verdict_bounded
    assert max(report.level_residuals) <= 1e-10
    assert report.traces_within_bound and report.squash_margin == 0.0
    for trace in report.traces:
        # O(1/n^2) decay: the tail is much smaller than the head
        assert trace[-1] <= trace[0] / 100 + 1e-12


def test_squash_bound_rule_and_margin():
    report = ExactnessReport(
        horizon=1, composite_residual=0.0, level_residuals=(0.0,),
        kernel_dims=(1,), image_dims=(1,), verdict_original=True,
        verdict_bounded=True,
        traces=((1.0, 0.5), (2.0, squash_bound(2))), probe_norms=(1.0, 1.0))
    assert report.traces_within_bound
    assert report.squash_margin == 0.0
    worse = dataclasses.replace(report, traces=((1.0, 0.6),))
    assert not worse.traces_within_bound
    assert worse.squash_margin == pytest.approx(0.1 - 1e-9)
    # no trace taken is no evidence of convergence
    assert not dataclasses.replace(report, traces=()).traces_within_bound
    assert report.exact
    assert not dataclasses.replace(report, verdict_original=False).exact
    assert not dataclasses.replace(report, verdict_bounded=False).exact


def test_check_exactness_identity_zero_sequence():
    from protower.tower import identity_homomorphism

    t = shifted_chain(3)
    alpha = identity_homomorphism(t)
    zero_maps = [
        BlockMap(t.level(p), t.level(p), tuple([None] * t.level(p).num_blocks))
        for p in range(1, 4)]
    beta = TowerHomomorphism(t, t, zero_maps)
    rng = stream(56, "identity-zero")
    report = check_exactness(alpha, beta, probes=5, horizon=3, tol=1e-10, rng=rng)
    assert report.verdict_original and report.verdict_bounded
    for trace in report.traces:
        assert trace[-1] <= squash_bound(50)  # recovered at rate 1/n^2


def test_check_exactness_rejects_nonzero_composite():
    from protower.tower import identity_homomorphism

    t = shifted_chain(3)
    alpha = identity_homomorphism(t)
    beta = identity_homomorphism(t)
    with pytest.raises(PreconditionError):
        check_exactness(alpha, beta, probes=1, horizon=3, tol=1e-10,
                        rng=stream(57, "bad"))


def test_exactness_failure_shows_proper_inclusion():
    # alpha hits only part of the kernel of beta: the report must show
    # a strictly smaller image at the top level and fail both verdicts.
    t = shifted_chain(4)
    dec = closed_ideal(t, [frozenset({0})] * 4)
    beta = dec.quotient_map

    single = dec.ideal  # blocks of size 1 at every level
    from protower.tower import identity_map

    def alpha_maps(p: int) -> BlockMap:
        alg = t.level(p)
        routes = [None] * alg.num_blocks
        return BlockMap(single.level(p), alg, tuple(routes))

    alpha = TowerHomomorphism(single, t, alpha_maps)
    rng = stream(58, "remark-pattern")
    report = check_exactness(alpha, beta, probes=4, horizon=4, tol=1e-10, rng=rng)
    assert not report.verdict_original
    assert not report.verdict_bounded
    assert report.image_dims[-1] < report.kernel_dims[-1]


def test_quotient_iso_check_block_ideal():
    t, _ = ideal_sequence(4)
    rng = stream(60, "quotient-iso")
    report = quotient_iso_check(
        t, [frozenset({0})] * 4, horizon=4, tol=1e-10, rng=rng, probes=40)
    assert report.passed
    assert report.max_residual <= 1e-10


def test_quotient_iso_check_trivial_ideal():
    # dividing by the zero ideal changes nothing: exact zeros
    t, _ = ideal_sequence(4)
    report = quotient_iso_check(
        t, [frozenset()] * 4, horizon=4, tol=1e-10,
        rng=stream(66, "trivial-ideal"), probes=10)
    assert report.passed
    assert report.max_residual == 0.0


def test_kernel_quotient_check_levels():
    t = make_product_tower(lambda k: k, 5, lazy=False)
    rng = stream(61, "kernel-quotient")
    for p in (1, 2, 3):
        report = kernel_quotient_check(
            t, p, horizon=5, tol=1e-10, rng=rng, probes=40)
        assert report.passed, f"p={p}: {report.max_residual}"


def test_coreflection_universal_property():
    # a homomorphism from a single-level tower factors through the
    # bounded part: phi equals inclusion-after-induced-map on probes
    t = make_product_tower(lambda k: k, 4, lazy=False)
    top = t.level(4)
    single = Tower([top], [])
    phi = TowerHomomorphism(
        single, t, lambda p: t.connecting(p, 4), level_index=lambda p: 1)
    rng = stream(62, "coreflection")
    for _ in range(100):
        b = random_element(top, rng)
        eb = coherent_from_top(single, b, 1)
        image = apply_functor(phi, eb, horizon=4)
        # factorization through the bounded part: the same levelwise data
        direct = coherent_from_top(t, b, 4)
        for p in range(1, 5):
            assert distance(project(image, p), project(direct, p)) <= 1e-12


def test_algebraic_independence_of_chain_refinement():
    # the same per-level algebras along a thinner cofinal chain give the
    # same uniform norm on shared elements
    base = make_product_tower(lambda k: k, 6, lazy=False)
    thin = Tower(
        [base.level(2), base.level(4), base.level(6)],
        [base.connecting(2, 4), base.connecting(4, 6)],
    )
    rng = stream(63, "refinement")
    for _ in range(20):
        top = random_element(base.level(6), rng)
        full = coherent_from_top(base, top, 6)
        sparse = coherent_from_top(thin, top, 3)
        v1 = uniform_norm(full, horizon=6)
        v2 = uniform_norm(sparse, horizon=3)
        assert v1.is_bounded and v2.is_bounded
        assert abs(v1.bound - v2.bound) <= 1e-10


def test_intersection_law_for_block_subtower():
    # an element of the ideal is ideal-bounded iff ambient-bounded, same M
    t, dec = ideal_sequence(4)
    rng = stream(64, "intersection")
    for _ in range(20):
        inner = coherent_from_top(
            dec.ideal, random_element(dec.ideal.level(4), rng), 4)
        outer = dec.inclusion.apply(inner)
        vi = uniform_norm(inner, horizon=4)
        vo = uniform_norm(outer, horizon=4)
        assert vi.is_bounded and vo.is_bounded
        assert abs(vi.bound - vo.bound) <= 1e-10


# ---------------------------------------------------------------------------
# dense oracle: exactness decided by rank-revealing SVDs of the level maps
# ---------------------------------------------------------------------------

RANK_TOL = 1e-10


def _vec(x):
    return np.concatenate([b.reshape(-1) for b in x.blocks])


def _unvec(alg, v):
    blocks = []
    at = 0
    for n in alg.block_sizes:
        blocks.append(v[at:at + n * n].reshape(n, n))
        at += n * n
    return AlgebraElement(alg, blocks)


def _orth_columns(m, rank_tol=RANK_TOL):
    """Orthonormal basis of the column space (rank revealed by SVD)."""
    if m.size == 0:
        return np.zeros((m.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    rank = int(np.sum(s > rank_tol * max(1.0, s[0] if s.size else 0.0)))
    return u[:, :rank]


def _null_columns(m, rank_tol=RANK_TOL):
    """Orthonormal basis of the kernel."""
    if m.shape[0] == 0:
        return np.eye(m.shape[1], dtype=complex)
    u, s, vh = np.linalg.svd(m, full_matrices=True)
    top = s[0] if s.size else 0.0
    rank = int(np.sum(s > rank_tol * max(1.0, top)))
    return vh[rank:].conj().T


def _subspace_gap(a, b):
    """Spectral-norm distance of the orthogonal projectors onto a and b."""
    pa = a @ a.conj().T
    pb = b @ b.conj().T
    if pa.size == 0 and pb.size == 0:
        return 0.0
    delta = pa - pb
    return float(np.linalg.svd(delta, compute_uv=False)[0]) if delta.size else 0.0


def dense_level(a_map, b_map):
    """(composite residual, ker/im gap, kernel dim, image dim) at one level."""
    ma, mb = a_map.matrix(), b_map.matrix()
    null_b, image_a = _null_columns(mb), _orth_columns(ma)
    return (float(np.linalg.norm(mb @ ma, 2)), _subspace_gap(null_b, image_a),
            null_b.shape[1], image_a.shape[1])


def assert_matches_dense(report, alpha, beta):
    dense = [
        dense_level(alpha.level_map(p), beta.level_map(p))
        for p in range(1, report.horizon + 1)]
    assert report.kernel_dims == tuple(d[2] for d in dense)
    assert report.image_dims == tuple(d[3] for d in dense)
    assert abs(report.composite_residual - max(d[0] for d in dense)) <= 1e-12
    for got, d in zip(report.level_residuals, dense):
        assert abs(got - d[1]) <= 1e-12


def haar(n, rng):
    return random_unitary(BlockAlgebra((n,)), rng).blocks[0]


def twisted_ideal(levels, seed):
    """A tower whose level k holds blocks of sizes 1..k+2 in a seeded order,
    with Haar conjugators on every connecting route, split by closed_ideal
    along the blocks of size 1 or even size, so that the ideal gains a
    block at every other level."""
    rng = stream(seed, "twisted-ideal")
    orders = [rng.permutation(k + 2) for k in range(1, levels + 1)]
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
            routes[lower[c]] = (int(upper[c]), haar(c + 1, rng))
        maps.append(ConnectingMap(algebras[k], algebras[k - 1], tuple(routes)))
    tower = Tower(algebras, maps)
    return closed_ideal(tower, [
        frozenset(int(o[c]) for c in range(len(o)) if c == 0 or c % 2)
        for o in orders])


def wide_product_ideal():
    tower = load_specfile(bundled_spec_path()).tower("wide-product")
    return closed_ideal(tower, [frozenset({0})] * tower.horizon)


def test_route_exactness_matches_dense_on_ideals():
    for dec, horizon in ((wide_product_ideal(), 5), (twisted_ideal(8, 71), 8)):
        report = check_exactness(
            dec.inclusion, dec.quotient_map, probes=0, horizon=horizon,
            tol=1e-10, rng=stream(72, "route-vs-dense"))
        assert report.verdict_original and report.verdict_bounded
        assert_matches_dense(report, dec.inclusion, dec.quotient_map)


def random_route(sizes_from, n, rng, p_none):
    """A route into a block of size n from a same-size source, or None."""
    candidates = [s for s, m in enumerate(sizes_from) if m == n]
    if not candidates or rng.random() < p_none:
        return None
    return (int(rng.choice(candidates)), haar(n, rng))


def test_route_exactness_matches_dense_on_random_block_maps():
    # alpha routes mid blocks from few source blocks, so clusters of
    # several copies share a source; beta routes only part of the mid
    # blocks. Single-level towers let check_exactness take these pairs,
    # and a tol above any composite residual lets it report them.
    rng = stream(73, "random-block-maps")
    partial_clusters = 0
    for _ in range(240):
        mid = BlockAlgebra(tuple(
            int(n) for n in rng.integers(1, 4, rng.integers(2, 7))))
        src = BlockAlgebra(tuple(int(n) for n in rng.choice(
            mid.block_sizes, rng.integers(1, 4))))
        quo = BlockAlgebra(tuple(int(n) for n in rng.choice(
            mid.block_sizes, rng.integers(1, 4))))
        a_map = BlockMap(src, mid, tuple(
            random_route(src.block_sizes, n, rng, 0.15) for n in mid.block_sizes))
        b_map = BlockMap(mid, quo, tuple(
            random_route(mid.block_sizes, n, rng, 0.3) for n in quo.block_sizes))
        alpha = TowerHomomorphism(Tower([src], []), Tower([mid], []), [a_map])
        beta = TowerHomomorphism(alpha.target, Tower([quo], []), [b_map])
        report = check_exactness(
            alpha, beta, probes=0, horizon=1, tol=10.0, rng=rng)
        assert_matches_dense(report, alpha, beta)
        partial_clusters += 0.0 < report.level_residuals[0] < 1.0 - 1e-12

        # the structural preimage is the pseudo-inverse of alpha's matrix
        y = random_element(mid, rng)
        dense = _unvec(src, np.linalg.pinv(a_map.matrix(), rcond=RANK_TOL) @ _vec(y))
        assert distance(_preimage(a_map, y), dense) <= 1e-12
    assert partial_clusters >= 10  # the sqrt(1 - 1/m) case is exercised


# ---------------------------------------------------------------------------
# squash trace: newborn blocks against every block of every level
# ---------------------------------------------------------------------------

def all_levels_trace(alpha, a, b, horizon, trace_length):
    """The squash trace measured on every level, as alpha(f_n(a)) - b."""
    trace = []
    for n in range(1, trace_length + 1):
        image = alpha.apply(lift_function(a, RationalSquash(n)))
        trace.append(max(
            distance(project(image, p), project(b, p))
            for p in range(1, horizon + 1)))
    return tuple(trace)


def replayed_traces(monkeypatch, alpha, beta, horizon, seed):
    """check_exactness's traces, and the all-levels traces of its probes."""
    built = []

    def recording(*args, **kwargs):
        built.append(coherent_from_top(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(bounded_functor, "coherent_from_top", recording)
    report = check_exactness(
        alpha, beta, probes=3, horizon=horizon, tol=1e-10,
        rng=stream(seed, "trace-equivalence"))
    assert len(report.traces) == 3
    # each probe builds its kernel element b, then its preimage a
    replayed = tuple(
        all_levels_trace(alpha, a, b, horizon, 50)
        for b, a in zip(built[::2], built[1::2]))
    return report.traces, replayed


def test_newborn_trace_equals_all_levels_on_identity_routes(monkeypatch):
    dec = wide_product_ideal()
    new, old = replayed_traces(
        monkeypatch, dec.inclusion, dec.quotient_map, 5, 74)
    assert new == old


def test_newborn_trace_matches_all_levels_on_twisted_tower(monkeypatch):
    dec = twisted_ideal(6, 75)
    new, old = replayed_traces(
        monkeypatch, dec.inclusion, dec.quotient_map, 6, 76)
    for got, want in zip(new, old):
        assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-12


def test_newborn_trace_matches_all_levels_on_conjugating_routes(monkeypatch):
    # alpha conjugates each ideal block by one Haar unitary at every level,
    # which is natural because the product chain's connecting maps route
    # without conjugators; the trace must carry the conjugators into place
    t = shifted_chain(levels=6)
    dec = closed_ideal(t, [frozenset(range(0, p + 1, 2)) for p in range(1, 7)])
    rng = stream(79, "conjugating-routes")
    us = [haar(n, rng) for n in dec.ideal.level(6).block_sizes]
    maps = [dec.inclusion.level_map(p) for p in range(1, 7)]
    alpha = TowerHomomorphism(dec.ideal, t, [
        BlockMap(m.source, m.target, tuple(
            None if r is None else (r[0], us[r[0]]) for r in m.routes))
        for m in maps])
    new, old = replayed_traces(monkeypatch, alpha, dec.quotient_map, 6, 80)
    for got, want in zip(new, old):
        assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-12


def test_squash_trace_never_materializes_the_preimage(monkeypatch):
    # the trace reads only the preimage blocks routed to newborn targets
    built, materialized = [], []
    real = CoherentElement.materialize

    def recording(self, p):
        materialized.append(self)
        return real(self, p)

    def building(*args, **kwargs):
        built.append(coherent_from_top(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(CoherentElement, "materialize", recording)
    monkeypatch.setattr(bounded_functor, "coherent_from_top", building)
    for dec, horizon in ((wide_product_ideal(), 5), (twisted_ideal(6, 77), 6)):
        built.clear()
        report = check_exactness(
            dec.inclusion, dec.quotient_map, probes=3, horizon=horizon,
            tol=1e-10, rng=stream(78, "no-materialize"))
        assert len(report.traces) == 3 and report.traces_within_bound
        preimages = built[1::2]  # each probe builds b, then its preimage a
        assert len(preimages) == 3
        assert not any(e is a for e in materialized for a in preimages)


# ---------------------------------------------------------------------------
# quotient checks: probe stacks against the per-probe loops
# ---------------------------------------------------------------------------

def per_probe_quotient_iso(tower, selector, horizon, rng, probes):
    """quotient_iso_check on a nontrivial split, one probe at a time."""
    finite = tower.finite_prefix(horizon)
    dec = closed_ideal(finite, selector)
    top = finite.level(horizon)
    quo = dec.quotient_map.level_map(horizon)
    sel = dec.selectors[horizon - 1]
    iso, hom = [], 0.0
    for _ in range(probes):
        a = random_element(top, rng)
        b = random_element(top, rng)
        qa, qb = quo.apply(a), quo.apply(b)
        zeroed = AlgebraElement(
            top, [x * 0 if i in sel else x for i, x in enumerate(a.blocks)])
        iso.append(abs(cstar_norm(qa) - cstar_norm(zeroed)))
        hom = max(
            hom,
            distance(quo.apply(a * b), qa * qb),
            distance(quo.apply(a.adjoint()), qa.adjoint()),
            distance(quo.apply(a + b), qa + qb))
    return tuple(iso), hom


def section_by_hand(m, y):
    """The section of y: routed blocks conjugated back, the rest 0."""
    blocks = [np.zeros((n, n), dtype=complex) for n in m.source.block_sizes]
    for j, (s, u) in enumerate(m.routes):
        blocks[s] = y.blocks[j] if u is None else u.conj().T @ y.blocks[j] @ u
    return AlgebraElement(m.source, blocks)


def per_probe_kernel_quotient(tower, p, horizon, rng, probes):
    """kernel_quotient_check, one probe at a time."""
    top = tower.level(horizon)
    down = tower.connecting(p, horizon)
    iso, hom = [], 0.0
    for _ in range(probes):
        a = random_element(top, rng)
        b = random_element(top, rng)
        image = down.apply(a)
        iso.append(abs(
            cstar_norm(image) - cstar_norm(section_by_hand(down, image))))
        hom = max(
            hom,
            distance(down.apply(a * b), image * down.apply(b)),
            distance(down.apply(a.adjoint()), image.adjoint()))
    return tuple(iso), hom


def residuals(report):
    return report.isometry_residuals, report.hom_residual


def test_quotient_iso_stacks_equal_probe_loop_on_wide_product():
    tower = load_specfile(bundled_spec_path()).tower("wide-product")
    selector = [frozenset({0})] * tower.horizon
    for seed in (0, 1, 2):
        report = quotient_iso_check(
            tower, selector, horizon=tower.horizon, tol=1e-10,
            rng=stream(seed, "quotient-iso"), probes=50)
        assert len(report.isometry_residuals) == 50
        assert residuals(report) == per_probe_quotient_iso(
            tower, selector, tower.horizon, stream(seed, "quotient-iso"), 50)


def test_kernel_quotient_stacks_equal_probe_loop_on_matrix_product():
    tower = load_specfile(bundled_spec_path()).tower("matrix-product")
    tower.ensure(5)
    for p in (1, 2, 3):
        report = kernel_quotient_check(
            tower, p, horizon=5, tol=1e-10,
            rng=stream(0, f"kernel-quotient-{p}"), probes=50)
        assert residuals(report) == per_probe_kernel_quotient(
            tower, p, 5, stream(0, f"kernel-quotient-{p}"), 50)


def test_quotient_stacks_equal_probe_loops_on_twisted_tower():
    # Haar conjugators on every route make the residuals rounding-sized
    # but nonzero, so a one-ulp drift of either path shows here
    for seed in (80, 81):
        dec = twisted_ideal(6, seed)
        for p in (1, 3, 5):
            report = kernel_quotient_check(
                dec.tower, p, horizon=6, tol=1e-10,
                rng=stream(seed, f"twisted-kernel-{p}"), probes=30)
            iso, hom = per_probe_kernel_quotient(
                dec.tower, p, 6, stream(seed, f"twisted-kernel-{p}"), 30)
            assert residuals(report) == (iso, hom)
            assert report.passed and max(iso) > 0.0 and hom > 0.0
        report = quotient_iso_check(
            dec.tower, dec.selectors, horizon=6, tol=1e-10,
            rng=stream(seed, "twisted-quotient"), probes=30)
        assert residuals(report) == per_probe_quotient_iso(
            dec.tower, dec.selectors, 6, stream(seed, "twisted-quotient"), 30)


def test_quotient_iso_runs_one_svd_per_nonzero_stack(monkeypatch):
    # the images and the zeroed representatives make one SVD per block
    # position of size >= 2; the hom differences of a conjugator-free
    # quotient map are exactly 0 and reach no LAPACK call
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    tower = load_specfile(bundled_spec_path()).tower("wide-product")
    report = quotient_iso_check(
        tower, [frozenset({0})] * tower.horizon, horizon=tower.horizon,
        tol=1e-10, rng=stream(3, "svd-count"), probes=20)
    quotient_sizes = tower.level(tower.horizon).block_sizes[1:]
    assert report.hom_residual == 0.0
    assert sorted(calls) == sorted(
        2 * [(20, n, n) for n in quotient_sizes if n > 1])
