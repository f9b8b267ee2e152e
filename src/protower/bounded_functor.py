"""The bounded-part coreflector and exactness of sequences under it.

For a finite tower the algebra of bounded elements is the top level with
its operator norm, so functor-level statements reduce to concrete linear
algebra there: kernels and images are compared as subspaces through
rank-revealing decompositions, and the rational-squash approximation
drives kernel elements into the image, which is the mechanism behind
exactness preservation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .calculus import lift_function, uniform_norm
from .core_algebra import (
    AlgebraElement,
    PreconditionError,
    RationalSquash,
    cstar_norm,
    distance,
    spectral_radius,
)
from .tower import (
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
        selfadjoint=e.selfadjoint,
        unitary=e.unitary and unital,
    )


# ---------------------------------------------------------------------------
# exactness
# ---------------------------------------------------------------------------

def _vec(x: AlgebraElement) -> np.ndarray:
    return np.concatenate([b.reshape(-1) for b in x.blocks])


def _unvec(alg, v: np.ndarray) -> AlgebraElement:
    blocks = []
    at = 0
    for n in alg.block_sizes:
        blocks.append(v[at:at + n * n].reshape(n, n))
        at += n * n
    return AlgebraElement(alg, blocks)


def _orth_columns(m: np.ndarray, rank_tol: float) -> np.ndarray:
    """Orthonormal basis of the column space (rank revealed by SVD)."""
    if m.size == 0:
        return np.zeros((m.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    rank = int(np.sum(s > rank_tol * max(1.0, s[0] if s.size else 0.0)))
    return u[:, :rank]


def _null_columns(m: np.ndarray, rank_tol: float) -> np.ndarray:
    """Orthonormal basis of the kernel."""
    if m.shape[0] == 0:
        return np.eye(m.shape[1], dtype=complex)
    u, s, vh = np.linalg.svd(m, full_matrices=True)
    top = s[0] if s.size else 0.0
    rank = int(np.sum(s > rank_tol * max(1.0, top)))
    return vh[rank:].conj().T


def _subspace_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Spectral-norm distance of the orthogonal projectors onto a and b."""
    pa = a @ a.conj().T
    pb = b @ b.conj().T
    if pa.size == 0 and pb.size == 0:
        return 0.0
    delta = pa - pb
    return float(np.linalg.svd(delta, compute_uv=False)[0]) if delta.size else 0.0


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
    bounded_residual: float
    verdict_bounded: bool
    traces: tuple[tuple[float, ...], ...]
    probe_norms: tuple[float, ...]

    @property
    def traces_converge(self) -> bool:
        return all(t[-1] <= 1e-6 for t in self.traces) if self.traces else True


def _squash_image(
    alpha: TowerHomomorphism,
    a: CoherentElement,
    n: int,
    horizon: int,
    rational_route: bool,
) -> CoherentElement:
    """alpha(f_n(a)) where f_n is the rational squash of index n.

    When alpha carries no topology data (declared discontinuous), f_n(a)
    is formed as a rational expression in a, so that its image under alpha
    is determined by alpha(a) alone; otherwise the spectral route is fine.
    """
    f = RationalSquash(n)
    if rational_route:
        def gen(p: int, indices: list[int]) -> list[np.ndarray]:
            return [f.apply_matrix(b) for b in a.level_blocks(p, indices)]

        squashed = CoherentElement(a.tower, generator=gen)
    else:
        squashed = lift_function(a, f)
    return alpha.apply(squashed)


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

    Requires beta o alpha = 0 within tol. For each probe a random
    self-adjoint element of the top-level kernel with spectral radius at
    most 1 is pushed down the chain, a self-adjoint preimage under alpha
    is computed, and the uniform distance of alpha(squash_n(preimage))
    back to the element is recorded for n = 1..trace_length.
    """
    if alpha.target is not beta.source:
        raise PreconditionError("the two maps do not form a sequence")
    mats_a = [alpha.level_map(p).matrix() for p in range(1, horizon + 1)]
    mats_b = [beta.level_map(p).matrix() for p in range(1, horizon + 1)]
    composite = max(
        float(np.linalg.norm(mb @ ma, 2)) for ma, mb in zip(mats_a, mats_b))
    if composite > tol:
        raise PreconditionError(
            f"beta o alpha is not zero: residual {composite:.3e}")

    level_residuals = []
    kernel_dims = []
    image_dims = []
    for ma, mb in zip(mats_a, mats_b):
        null_b = _null_columns(mb, RANK_TOL)
        image_a = _orth_columns(ma, RANK_TOL)
        kernel_dims.append(null_b.shape[1])
        image_dims.append(image_a.shape[1])
        level_residuals.append(_subspace_gap(null_b, image_a))
    verdict_original = all(r <= tol for r in level_residuals)
    bounded_residual = level_residuals[-1]
    verdict_bounded = bounded_residual <= tol

    mid = beta.source
    top_alg = mid.level(horizon)
    null_top = _null_columns(mats_b[-1], RANK_TOL)
    pinv_a = np.linalg.pinv(mats_a[-1], rcond=RANK_TOL)

    traces = []
    probe_norms = []
    for _ in range(probes if verdict_original else 0):
        coeff = rng.standard_normal(null_top.shape[1]) + 1j * rng.standard_normal(
            null_top.shape[1])
        raw = _unvec(top_alg, null_top @ coeff)
        herm = 0.5 * (raw + raw.adjoint())
        r = spectral_radius(herm)
        if r <= RANK_TOL:
            continue
        herm = (rng.uniform(0.5, 1.0) / r) * herm
        b = coherent_from_top(mid, herm, horizon, selfadjoint=True)

        src_level = alpha.level_index(horizon)
        a_vec = pinv_a @ _vec(herm)
        a_raw = _unvec(alpha.source.level(src_level), a_vec)
        a_top = 0.5 * (a_raw + a_raw.adjoint())
        if distance(alpha.level_map(horizon).apply(a_top), herm) > 10 * tol:
            raise PreconditionError(
                "no self-adjoint preimage found although the sequence is exact")
        a = coherent_from_top(alpha.source, a_top, src_level, selfadjoint=True)

        trace = []
        for n in range(1, trace_length + 1):
            image = _squash_image(alpha, a, n, horizon, not alpha.continuous)
            trace.append(max(
                distance(project(image, p), project(b, p))
                for p in range(1, horizon + 1)))
        traces.append(tuple(trace))
        probe_norms.append(spectral_radius(herm))

    return ExactnessReport(
        horizon=horizon,
        composite_residual=composite,
        level_residuals=tuple(level_residuals),
        kernel_dims=tuple(kernel_dims),
        image_dims=tuple(image_dims),
        verdict_original=verdict_original,
        bounded_residual=bounded_residual,
        verdict_bounded=verdict_bounded,
        traces=tuple(traces),
        probe_norms=tuple(probe_norms),
    )


# ---------------------------------------------------------------------------
# quotient isomorphisms
# ---------------------------------------------------------------------------

@dataclass
class QuotientIsoReport:
    """Residuals certifying an isometric *-isomorphism on probes.

    ``isometry_residuals`` compare the norm computed in the quotient tower
    with the distance to the ideal computed through the explicit minimizing
    representative; the two independent routes sandwich the quotient norm,
    so agreement pins it. ``hom_residual`` is the worst multiplicativity /
    adjoint / linearity defect of the canonical map on probes.
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
    quotient tower. Norm on one side: operator norm at the quotient top.
    On the other: distance to the ideal, certified by the explicit
    minimizer that zeroes the ideal blocks (an upper bound) against the
    contractivity lower bound. Trivial splits (zero ideal or zero
    quotient) are identities and report exact zeros.
    """
    tower.ensure(horizon)
    finite = tower.finite_prefix(horizon)
    dec = closed_ideal(finite, block_selector)
    if dec.ideal is None:
        # zero ideal: the quotient is the algebra itself, the map is the
        # identity, every residual vanishes identically
        return QuotientIsoReport((0.0,) * probes, 0.0, tol)
    if dec.quotient is None:
        # full ideal: both sides are the zero algebra
        return QuotientIsoReport((0.0,) * probes, 0.0, tol)
    top = finite.level(horizon)
    quo = dec.quotient_map.level_map(horizon)
    sel = dec.selectors[horizon - 1]

    def zero_ideal_blocks(x: AlgebraElement) -> AlgebraElement:
        blocks = [
            b * 0 if i in sel else b for i, b in enumerate(x.blocks)]
        return AlgebraElement(top, blocks)

    from .randomness import random_element

    iso_residuals = []
    hom_residual = 0.0
    for _ in range(probes):
        a = random_element(top, rng)
        b = random_element(top, rng)
        qa, qb = quo.apply(a), quo.apply(b)
        # isometry: quotient-tower norm vs distance to the ideal
        image_norm = cstar_norm(qa)
        min_rep_norm = cstar_norm(zero_ideal_blocks(a))
        iso_residuals.append(abs(image_norm - min_rep_norm))
        # *-homomorphism identities
        hom_residual = max(
            hom_residual,
            distance(quo.apply(a * b), qa * qb),
            distance(quo.apply(a.adjoint()), qa.adjoint()),
            distance(quo.apply(a + b), qa + qb),
        )
    return QuotientIsoReport(tuple(iso_residuals), hom_residual, tol)


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
    its kernel consists of the unrouted blocks. The distance of a bounded
    element to that kernel is certified by the section-based minimizer,
    whose norm equals the image norm exactly; agreement of the two routes
    within tol is the isometry statement.
    """
    tower.ensure(horizon)
    if not 1 <= p <= horizon:
        raise PreconditionError(f"need 1 <= p <= horizon, got p={p}")
    top = tower.level(horizon)
    down = tower.connecting(p, horizon)

    from .randomness import random_element

    iso_residuals = []
    hom_residual = 0.0
    for _ in range(probes):
        a = random_element(top, rng)
        b = random_element(top, rng)
        image = down.apply(a)
        # distance to ker: the section-based representative attains it
        min_rep = down.section(image)
        iso_residuals.append(abs(cstar_norm(image) - cstar_norm(min_rep)))
        hom_residual = max(
            hom_residual,
            distance(down.apply(a * b), image * down.apply(b)),
            distance(down.apply(a.adjoint()), image.adjoint()),
        )
    return QuotientIsoReport(tuple(iso_residuals), hom_residual, tol)
