"""The bounded-part coreflector and exactness of sequences under it.

For a finite tower the algebra of bounded elements is the top level with
its operator norm, so functor-level statements reduce to concrete linear
algebra there. The maps of a sequence route blocks and conjugate them by
unitaries, so exactness is decided from the block routes alone: the kernel
of a map is spanned by the blocks it does not route, its image by one
conjugated copy per routed source block, and the gap between the two has a
closed form. The rational-squash approximation then drives kernel elements
into the image, which is the mechanism behind exactness preservation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .calculus import uniform_norm
from .core_algebra import (
    DEFAULT_NORMALITY_TOL,
    AlgebraElement,
    PreconditionError,
    RationalSquash,
    _adjoint_stack,
    _block_norm,
    _diagonalize_normal,
    _rebuild,
    _stack_distances,
    _stack_norms,
    apply_function,
    distance,
    is_normal,
    spectral_radius,
)
from .randomness import random_element
from .tower import (
    BlockMap,
    CoherentElement,
    Tower,
    TowerHomomorphism,
    closed_ideal,
    coherent_from_top,
    project,
)

__all__ = [
    "ExactnessReport",
    "QuotientIsoReport",
    "RANK_TOL",
    "bounded_part",
    "apply_functor",
    "check_exactness",
    "squash_bound",
    "quotient_iso_check",
    "kernel_quotient_check",
]

RANK_TOL = 1e-10


def bounded_part(
    e: CoherentElement,
    horizon: int,
    threshold: float = 1e6,
) -> Optional[CoherentElement]:
    """The element seen inside the bounded subalgebra, when it is there.

    Returns the element tagged with its uniform norm for a Bounded
    verdict; None when the verdict is Unbounded or Unknown (no finite
    computation may promote those to membership).
    """
    verdict = uniform_norm(e, horizon, threshold)
    if not verdict.is_bounded:
        return None
    return e.with_certificates(
        norm_bound=verdict.bound,
        norm_reason=verdict.certificate)


def apply_functor(
    phi: TowerHomomorphism,
    e: CoherentElement,
    horizon: int,
    threshold: float = 1e6,
) -> CoherentElement:
    """Image of a certified bounded element under the induced map.

    Levelwise *-homomorphisms are contractive, so the image inherits the
    norm bound; self-adjointness always survives, unitarity only under
    levelwise unital maps.
    """
    verdict = uniform_norm(e, horizon, threshold)
    if not verdict.is_bounded:
        raise PreconditionError(
            "apply_functor needs a bounded element with a certificate; "
            f"verdict was {verdict.status}")
    unital = all(
        route is not None
        for p in range(1, phi.max_level(horizon) + 1)
        for route in phi.level_map(p).routes)
    return phi.apply(
        e,
        norm_bound=verdict.bound,
        norm_reason="contractive image of a certified bounded element",
        selfadjoint=e.certificates.selfadjoint,
        unitary=e.certificates.unitary and unital,
    )


# ---------------------------------------------------------------------------
# exactness
# ---------------------------------------------------------------------------

def squash_bound(n: int) -> float:
    """Bound on the squash trace at index n: 2/n^2, plus rounding slack."""
    return 2.0 / n**2 + 1e-9


@dataclass
class ExactnessReport:
    """Levelwise exactness of alpha followed by beta, plus squash traces.

    ``level_residuals`` measures ker(beta) against im(alpha) as subspaces
    at each level; exactness of the induced maps on bounded parts is the
    top-level comparison, since the bounded algebra of a finite tower is
    its top level. ``traces`` records, for each sampled self-adjoint
    kernel element, the uniform distance of the squashed preimage images
    back to the element as the squash index grows.
    """

    horizon: int
    composite_residual: float
    level_residuals: tuple[float, ...]
    kernel_dims: tuple[int, ...]
    image_dims: tuple[int, ...]
    verdict_original: bool
    verdict_bounded: bool
    traces: tuple[tuple[float, ...], ...]
    probe_norms: tuple[float, ...]

    def _trace_points(self):
        for trace in self.traces:
            for n, value in enumerate(trace, start=1):
                yield value, squash_bound(n)

    @property
    def exact(self) -> bool:
        """Exact levelwise and after the bounded-part functor."""
        return self.verdict_original and self.verdict_bounded

    @property
    def traces_within_bound(self) -> bool:
        """At least one trace; each value at index n is at most ``squash_bound(n)``."""
        return bool(self.traces) and all(
            value <= bound for value, bound in self._trace_points())

    @property
    def squash_margin(self) -> float:
        """Largest excess of a trace value over its bound; 0.0 if none."""
        return max([0.0] + [value - bound for value, bound in self._trace_points()])


def _routed_sources(m: BlockMap) -> set[int]:
    return {route[0] for route in m.routes if route is not None}


def _level_exactness(
    a_map: BlockMap, b_map: BlockMap,
) -> tuple[float, float, int, int]:
    """Composite residual, ker/im gap, kernel and image dims at one level.

    A block routing with unitary conjugators is an isometry on each source
    block it routes, copied to every target routed from it, so the norm of
    a composite is the square root of the most targets sharing a source.
    ker(beta) is spanned by the mid blocks beta does not route; im(alpha)
    is, per alpha-source, the diagonal of its m conjugated copies. Both
    projectors split over these clusters of mid blocks: a cluster with
    exactly one block in the kernel is off by the angle whose sine is
    sqrt(1 - 1/m), any other cluster by 1 (its kernel part and image part
    differ in dimension), and so is an unrouted mid block in the kernel.
    """
    hits = Counter(
        route[0] for route in b_map.compose(a_map).routes if route is not None)
    composite = math.sqrt(max(hits.values())) if hits else 0.0

    sizes = b_map.source.block_sizes
    kernel = set(range(len(sizes))) - _routed_sources(b_map)
    clusters: dict[int, list[int]] = {}
    gap = 0.0
    for j, route in enumerate(a_map.routes):
        if route is not None:
            clusters.setdefault(route[0], []).append(j)
        elif j in kernel:
            gap = 1.0
    for blocks in clusters.values():
        inside = sum(j in kernel for j in blocks)
        gap = max(gap, math.sqrt(1.0 - 1.0 / len(blocks)) if inside == 1 else 1.0)
    kernel_dim = sum(sizes[j] ** 2 for j in kernel)
    image_dim = sum(a_map.source.block_sizes[s] ** 2 for s in clusters)
    return composite, gap, kernel_dim, image_dim


def _preimage(m: BlockMap, y: AlgebraElement) -> AlgebraElement:
    """The least-squares preimage of y under a block routing.

    Each routed source block is the mean of the target blocks routed from
    it, conjugated back; unrouted source blocks are 0.
    """
    sums = [np.zeros((n, n), dtype=complex) for n in m.source.block_sizes]
    counts = [0] * len(sums)
    for j, route in enumerate(m.routes):
        if route is not None:
            s, u = route
            sums[s] = sums[s] + (
                y.blocks[j] if u is None else u.conj().T @ y.blocks[j] @ u)
            counts[s] += 1
    return AlgebraElement(
        m.source, [b / max(c, 1) for b, c in zip(sums, counts)])


def _squash_image(
    level_map: BlockMap,
    x: AlgebraElement,
    indices: list[int],
    trace_length: int,
    rational_route: bool,
) -> list[list[np.ndarray]]:
    """alpha(f_n(x)) on routed target blocks ``indices``, n = 1..trace_length.

    f_n is the rational squash of index n. When alpha carries no topology
    data (declared discontinuous), f_n(x) is formed as a rational
    expression in x, so that its image under alpha is determined by
    alpha(x) alone. Otherwise a normal x is diagonalized once and f_n is
    evaluated on its eigenvalues; a non-normal x goes through the
    functional calculus for each n. Only the source blocks routed to
    ``indices`` are touched.
    """
    tol = DEFAULT_NORMALITY_TOL
    squashes = [RationalSquash(n) for n in range(1, trace_length + 1)]
    sources = sorted({level_map.routes[j][0] for j in indices})
    if not rational_route and not is_normal(x, tol):
        per_n = [apply_function(x, f, tol).blocks for f in squashes]
    elif not indices:
        return [[] for _ in squashes]
    elif rational_route:
        per_n = [
            {s: f.apply_matrix(x.blocks[s]) for s in sources} for f in squashes]
    else:
        eigen = {s: _diagonalize_normal(x.blocks[s], tol, s) for s in sources}
        points = np.concatenate([d for _, d in eigen.values()])
        per_n = []
        for f in squashes:
            f.check_domain(points, tol)
            per_n.append({
                s: _rebuild(v, np.asarray(f(d), dtype=complex))
                for s, (v, d) in eigen.items()})
    return [
        level_map.apply_blocks(indices, lambda wanted: [blocks[s] for s in wanted])
        for blocks in per_n]


def check_exactness(
    alpha: TowerHomomorphism,
    beta: TowerHomomorphism,
    probes: int,
    horizon: int,
    tol: float,
    rng: np.random.Generator,
    trace_length: int = 50,
) -> ExactnessReport:
    """Verify ker(beta) = im(alpha) levelwise and replay the squash trace.

    Requires beta o alpha = 0 within tol. Kernels, images and their gaps
    come from the block routes of the level maps. For each probe a random
    self-adjoint element of the top-level kernel with spectral radius at
    most 1 is pushed down the chain, a self-adjoint preimage under alpha
    is computed, and the uniform distance of alpha(squash_n(preimage))
    back to the element is recorded for n = 1..trace_length, measured on
    the blocks born at each level.
    """
    if alpha.target is not beta.source:
        raise PreconditionError("the two maps do not form a sequence")
    maps_a = [alpha.level_map(p) for p in range(1, horizon + 1)]
    maps_b = [beta.level_map(p) for p in range(1, horizon + 1)]
    levels = [_level_exactness(ma, mb) for ma, mb in zip(maps_a, maps_b)]
    composite = max(level[0] for level in levels)
    if composite > tol:
        raise PreconditionError(
            f"beta o alpha is not zero: residual {composite:.3e}")

    level_residuals = [level[1] for level in levels]
    kernel_dims = [level[2] for level in levels]
    image_dims = [level[3] for level in levels]
    verdict_original = all(r <= tol for r in level_residuals)
    verdict_bounded = level_residuals[-1] <= tol

    mid = beta.source
    top_alg = mid.level(horizon)
    top_kernel = set(range(top_alg.num_blocks)) - _routed_sources(maps_b[-1])
    # The trace reads only the mid blocks born at each level that alpha
    # routes: b and alpha(f_n(a)) are coherent, so an older block repeats a
    # distance already measured, and where alpha sends 0, b is 0 as well
    # (by naturality b_p lies in ker(beta_p), which equals im(alpha_p)).
    routed_newborn = []
    for p, ma in enumerate(maps_a, start=1):
        inherited = _routed_sources(mid.map(p - 1)) if p > 1 else set()
        routed_newborn.append([
            j for j, route in enumerate(ma.routes)
            if route is not None and j not in inherited])
    src_level = alpha.level_index(horizon)

    traces = []
    probe_norms = []
    for _ in range(probes if verdict_original else 0):
        coeff = rng.standard_normal(kernel_dims[-1]) + 1j * rng.standard_normal(
            kernel_dims[-1])
        blocks = []
        at = 0
        for i, n in enumerate(top_alg.block_sizes):
            if i in top_kernel:
                blocks.append(coeff[at:at + n * n].reshape(n, n))
                at += n * n
            else:
                blocks.append(np.zeros((n, n), dtype=complex))
        raw = AlgebraElement(top_alg, blocks)
        herm = 0.5 * (raw + raw.adjoint())
        r = spectral_radius(herm)
        if r <= RANK_TOL:
            continue
        herm = (rng.uniform(0.5, 1.0) / r) * herm
        b = coherent_from_top(mid, herm, horizon, selfadjoint=True)

        a_raw = _preimage(maps_a[-1], herm)
        a_top = 0.5 * (a_raw + a_raw.adjoint())
        if distance(maps_a[-1].apply(a_top), herm) > 10 * tol:
            raise PreconditionError(
                "no self-adjoint preimage found although the sequence is exact")
        a = coherent_from_top(alpha.source, a_top, src_level, selfadjoint=True)

        trace = [0.0] * trace_length
        for p, fresh in enumerate(routed_newborn, start=1):
            images = _squash_image(
                maps_a[p - 1], project(a, alpha.level_index(p)), fresh,
                trace_length, not alpha.continuous)
            targets = b.level_blocks(p, fresh)
            for k, image in enumerate(images):
                trace[k] = max([trace[k]] + [
                    _block_norm(x - y) for x, y in zip(image, targets)])
        traces.append(tuple(trace))
        probe_norms.append(spectral_radius(herm))

    return ExactnessReport(
        horizon=horizon,
        composite_residual=composite,
        level_residuals=tuple(level_residuals),
        kernel_dims=tuple(kernel_dims),
        image_dims=tuple(image_dims),
        verdict_original=verdict_original,
        verdict_bounded=verdict_bounded,
        traces=tuple(traces),
        probe_norms=tuple(probe_norms),
    )


# ---------------------------------------------------------------------------
# quotient isomorphisms
# ---------------------------------------------------------------------------

@dataclass
class QuotientIsoReport:
    """Residuals of the canonical map of a quotient on probes.

    ``isometry_residuals`` compare, per probe, the norm of the image with
    the norm of a representative of its class: the element with the ideal
    blocks zeroed, or the section of the image. Both norms are maxima over
    the same blocks up to unitary conjugation, so each residual is about 0
    by construction; it measures rounding, not an independent route to
    the quotient norm. ``hom_residual`` is the worst multiplicativity /
    adjoint / linearity defect of the canonical map on probes; it is
    exactly 0 when the map's routes carry no conjugator, as the quotient
    maps of ``closed_ideal`` do.
    """

    isometry_residuals: tuple[float, ...]
    hom_residual: float
    tol: float

    @property
    def passed(self) -> bool:
        worst = max(self.isometry_residuals, default=0.0)
        return worst <= self.tol and self.hom_residual <= self.tol

    @property
    def max_residual(self) -> float:
        return max(self.hom_residual, max(self.isometry_residuals, default=0.0))


# The quotient checks stack each block position across their probes:
# blocks[i] is an (m, n, n) array whose row k is block i of probe k, so
# every image, product, adjoint, sum and norm is one call per position.
# Each stacked operation equals its per-probe form bitwise.

def _probe_stacks(top, rng, probes: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Probe pairs drawn as a per-probe loop draws them (a, then b, for
    each probe in turn), stacked by block position."""
    a = [np.empty((probes, n, n), dtype=complex) for n in top.block_sizes]
    b = [np.empty_like(stack) for stack in a]
    for k in range(probes):
        for stacks in (a, b):
            for stack, block in zip(stacks, random_element(top, rng).blocks):
                stack[k] = block
    return a, b


def _route_stacks(m: BlockMap, fetch_one) -> list[np.ndarray]:
    """The target stacks of m, fetching source stack s as ``fetch_one(s)``."""
    return m.apply_blocks(
        range(m.target.num_blocks), lambda sources: [fetch_one(s) for s in sources])


def _report(image_norms, rep_norms, hom_distances, tol: float) -> QuotientIsoReport:
    iso = np.abs(image_norms - rep_norms)
    hom = np.max(np.concatenate(hom_distances), initial=0.0)
    return QuotientIsoReport(tuple(iso.tolist()), float(hom), tol)


def quotient_iso_check(
    tower: Tower,
    block_selector,
    horizon: int,
    tol: float,
    rng: np.random.Generator,
    probes: int = 50,
) -> QuotientIsoReport:
    """Compare (A/I) with A/I computed inside the bounded top level.

    The canonical map sends a bounded element's class to its image in the
    quotient tower. Per probe a, the operator norm of the image at the
    quotient top is compared with the norm of a with its ideal blocks
    zeroed; these are the same blocks, so the residual is about 0 by
    construction. The *-homomorphism identities are checked on probe
    pairs (a, b). Trivial splits (zero ideal or zero quotient) are
    identities and report exact zeros.
    """
    tower.ensure(horizon)
    finite = tower.finite_prefix(horizon)
    dec = closed_ideal(finite, block_selector)
    if dec.ideal is None or dec.quotient is None:
        # zero ideal: the map is the identity; full ideal: both sides are
        # the zero algebra. Either way every residual vanishes identically
        return QuotientIsoReport((0.0,) * probes, 0.0, tol)
    quo = dec.quotient_map.level_map(horizon)
    sel = dec.selectors[horizon - 1]

    a, b = _probe_stacks(finite.level(horizon), rng, probes)
    qa = _route_stacks(quo, lambda i: a[i])
    qb = _route_stacks(quo, lambda i: b[i])
    zeroed = [x * 0 if i in sel else x for i, x in enumerate(a)]
    return _report(_stack_norms(qa), _stack_norms(zeroed), [
        _stack_distances(
            _route_stacks(quo, lambda i: a[i] @ b[i]),
            [x @ y for x, y in zip(qa, qb)]),
        _stack_distances(
            _route_stacks(quo, lambda i: _adjoint_stack(a[i])),
            [_adjoint_stack(x) for x in qa]),
        _stack_distances(
            _route_stacks(quo, lambda i: a[i] + b[i]),
            [x + y for x, y in zip(qa, qb)]),
    ], tol)


def kernel_quotient_check(
    tower: Tower,
    p: int,
    horizon: int,
    tol: float,
    rng: np.random.Generator,
    probes: int = 50,
) -> QuotientIsoReport:
    """Identify level p with the bounded top level modulo the seminorm kernel.

    The canonical map is the composite connecting map from the top level;
    its kernel consists of the unrouted blocks. Per probe a, the norm of
    the image is compared with the norm of its section, which conjugates
    the same blocks back, so the residual is about 0 by construction.
    Multiplicativity and the adjoint are checked on probe pairs (a, b).
    """
    tower.ensure(horizon)
    if not 1 <= p <= horizon:
        raise PreconditionError(f"need 1 <= p <= horizon, got p={p}")
    down = tower.connecting(p, horizon)

    a, b = _probe_stacks(tower.level(horizon), rng, probes)
    image = _route_stacks(down, lambda i: a[i])
    image_b = _route_stacks(down, lambda i: b[i])
    return _report(
        _stack_norms(image), _stack_norms(down.section_blocks(image)), [
            _stack_distances(
                _route_stacks(down, lambda i: a[i] @ b[i]),
                [x @ y for x, y in zip(image, image_b)]),
            _stack_distances(
                _route_stacks(down, lambda i: _adjoint_stack(a[i])),
                [_adjoint_stack(x) for x in image]),
        ], tol)
