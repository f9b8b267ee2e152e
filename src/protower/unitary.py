"""Unitary groups of towers: exponentials, logarithms, factorizations.

Every level algebra is a direct sum of matrix blocks, so every level
unitary group is connected and every coherent unitary is levelwise a
single exponential of a self-adjoint element. Globally the obstruction is
the branch choice: one fixed branch angle gives a coherent logarithm, and
when eigenvalues crowd every usable ray the unitary is split into two
exponential factors through a half-logarithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_algebra import (
    AlgebraElement,
    AlgebraError,
    BranchError,
    ExpI,
    PreconditionError,
    _block_eigenvalues,
    _diagonalize_normal,
    apply_function,
    distance,
    is_selfadjoint,
    ray_distance,
)
from .tower import (
    Certificates, CoherentElement, TowerHomomorphism, project, scalar_element)

__all__ = [
    "ExpFactorization",
    "is_unitary",
    "exp_selfadjoint",
    "unitary_log",
    "identity_component_check",
    "pushforward_exp",
    "single_level_log",
    "largest_gap_branch",
]

DEFAULT_LOG_TOL = 1e-9
DEFAULT_BRANCH_MARGIN = 1e-6


def is_unitary(e: CoherentElement, horizon: int, tol: float = 1e-10) -> bool:
    """Whether both u u* and u* u are the identity at every level.

    A pure predicate: ``e`` may be shared, so nothing is written on it.
    Unitaries have all seminorms equal to 1, hence uniform norm 1; a
    caller that wants that certificate takes ``e.with_certificates(
    unitary=True)``, whose ``certificates.norm()`` is then
    ``(1.0, "unitary element")``.
    """
    for p in range(1, e.max_level(horizon) + 1):
        x = project(e, p)
        one = x.parent.identity()
        if distance(x * x.adjoint(), one) > tol:
            return False
        if distance(x.adjoint() * x, one) > tol:
            return False
    return True


def exp_selfadjoint(
    a: CoherentElement, t: float = 1.0, tol: float = 1e-10
) -> CoherentElement:
    """The unitary family exp(i*t*a) for self-adjoint a.

    Self-adjointness is validated on every level actually produced; the
    result carries the unitarity certificate and stays coherent because
    the exponential commutes with the connecting maps.
    """

    def gen(p: int, indices: list[int]) -> list[np.ndarray]:
        # the whole level: the self-adjointness check scales with it
        x = project(a, p)
        if not is_selfadjoint(x, tol):
            raise PreconditionError(
                f"level {p} is not self-adjoint within {tol}")
        y = apply_function(x, ExpI(t), tol)
        return [y.blocks[i] for i in indices]

    return CoherentElement(a.tower, generator=gen, certificates=Certificates.bounded(
        1.0, "exponential of a self-adjoint element", unitary=True))


def _branch_shift(args: np.ndarray, branch_angle: float) -> np.ndarray:
    """Shift raw angles into (branch_angle - 2*pi, branch_angle)."""
    return args - 2 * math.pi * np.ceil(
        (args - branch_angle) / (2 * math.pi))


def single_level_log(
    x: AlgebraElement,
    branch_angle: float,
    tol: float = DEFAULT_LOG_TOL,
    level: int | None = None,
) -> AlgebraElement:
    """Self-adjoint h with exp(i*h) = x for a single unitary element.

    Eigenvalues must keep distance tol from the branch ray and modulus 1
    within 10*tol; violations raise BranchError naming the eigenvalue and
    the level (when given).
    """
    where = f" at level {level}" if level is not None else ""
    blocks = []
    for i, b in enumerate(x.blocks):
        v, d = _diagonalize_normal(b, max(tol, 1e-12), i)
        for lam in d:
            if abs(abs(lam) - 1.0) > 10 * tol:
                raise PreconditionError(
                    f"eigenvalue {lam} of block {i}{where} has modulus "
                    f"{abs(lam):.12f}; not unitary")
            if ray_distance(lam, branch_angle) <= tol:
                raise BranchError(
                    f"eigenvalue {lam} of block {i}{where} is within {tol} "
                    f"of the branch ray at angle {branch_angle:.6f}")
        args = _branch_shift(np.angle(d), branch_angle)
        h = v @ np.diag(args.astype(complex)) @ v.conj().T
        blocks.append(0.5 * (h + h.conj().T))
    return AlgebraElement(x.parent, blocks)


def unitary_log(
    u: CoherentElement,
    branch_angle: float = math.pi,
    tol: float = DEFAULT_LOG_TOL,
    horizon: int | None = None,
) -> CoherentElement:
    """Coherent self-adjoint logarithm of a unitary at a fixed branch.

    One fixed branch angle across all levels keeps the logarithm coherent.
    An eigenvalue within tol of the branch ray raises BranchError naming
    the level. The reassembly exp(i*log) is verified against u within
    10*tol on all materialized levels before returning.
    """
    return _verified_log(u, branch_angle, tol, horizon)[0]


def _unitary_log(
    u: CoherentElement, branch_angle: float, tol: float, horizon: int | None
) -> tuple[CoherentElement, float]:
    """The logarithm at the branch and its reassembly residual, unjudged."""
    top = u.max_level(horizon if horizon is not None else u.tower.horizon)
    levels = [
        single_level_log(project(u, p), branch_angle, tol, level=p)
        for p in range(1, top + 1)]
    log = CoherentElement(u.tower, levels=levels, certificates=Certificates.bounded(
        max(abs(branch_angle - 2 * math.pi), abs(branch_angle)),
        "arguments lie in the branch window", selfadjoint=True))
    return log, _reassembly_residual((log,), u, top)


def _verified_log(
    u: CoherentElement, branch_angle: float, tol: float, horizon: int | None
) -> tuple[CoherentElement, float]:
    """``_unitary_log``; a reassembly residual above 10*tol raises."""
    log, worst = _unitary_log(u, branch_angle, tol, horizon)
    if worst > 10 * tol:
        raise AlgebraError(
            f"logarithm reassembly residual {worst:.3e} exceeds {10 * tol:.3e}")
    return log, worst


def largest_gap_branch(args) -> tuple[float, float]:
    """Midpoint of the largest circular gap of angles, and half that gap.

    The returned angle is the ray farthest from the given spectrum
    arguments, which is the canonical deterministic branch choice; the
    second component is the margin it achieves.
    """
    arr = np.sort(np.mod(np.asarray(args, dtype=float), 2 * math.pi))
    if arr.size == 0:
        return math.pi, math.pi
    gaps = np.diff(arr, append=arr[0] + 2 * math.pi)
    k = int(np.argmax(gaps))
    mid = arr[k] + gaps[k] / 2
    mid = math.remainder(mid, 2 * math.pi)
    return float(mid), float(gaps[k] / 2)


@dataclass
class ExpFactorization:
    """A product of exponentials of self-adjoint elements hitting a target.

    ``factors`` multiply left to right: exp(i*a1) * exp(i*a2) * ... The
    reassembly residual over all levels up to the horizon is recorded;
    ``valid`` states it met the requested tolerance. ``coherent`` records
    whether all factors were produced with one global branch per factor,
    in which case the factors themselves satisfy the coherence relations.
    """

    target: CoherentElement
    factors: tuple[CoherentElement, ...]
    residual: float
    horizon: int
    tol: float
    branch_angles: tuple[float, ...]
    coherent: bool = True

    @property
    def valid(self) -> bool:
        return self.residual <= self.tol

    def product(self) -> CoherentElement:
        """The coherent family prod_j exp(i * factors[j])."""
        return _exp_product(self.factors, self.target.tower).with_certificates(
            unitary=True, norm_bound=1.0,
            norm_reason="product of exponentials of self-adjoint elements")


def _exp_product(factors, tower) -> CoherentElement:
    """exp(i*factors[0]) * exp(i*factors[1]) * ..., without certificates."""
    out = scalar_element(tower, 1.0)
    for a in factors:
        out = out * exp_selfadjoint(a)
    return out


def _reassembly_residual(factors, u: CoherentElement, horizon: int) -> float:
    out = _exp_product(factors, u.tower)
    worst = 0.0
    for p in range(1, horizon + 1):
        worst = max(worst, distance(project(out, p), project(u, p)))
    return worst


def _level_args(u: CoherentElement, horizon: int) -> np.ndarray:
    args = []
    for p in range(1, horizon + 1):
        x = project(u, p)
        for i, b in enumerate(x.blocks):
            args.append(np.angle(_block_eigenvalues(b, i)))
    return np.concatenate(args)


def identity_component_check(
    u: CoherentElement,
    horizon: int,
    tol: float = DEFAULT_LOG_TOL,
    branch_margin: float = DEFAULT_BRANCH_MARGIN,
) -> ExpFactorization:
    """Factor a coherent unitary into exponentials of self-adjoint elements.

    Strategy: the identity needs no factors; a single logarithm works
    whenever some global branch ray (pi first, then the largest spectral
    gap) keeps margin ``branch_margin`` from every level eigenvalue; when
    eigenvalues crowd all rays, the unitary is split as
    u = (u * exp(-i*a1)) * exp(i*a1) with a1 half of a best-effort
    logarithm, which compresses the spectrum into a half circle and makes
    the second logarithm safe.
    """
    top = u.max_level(horizon)
    ident_dist = max(
        distance(project(u, p), u.tower.level(p).identity())
        for p in range(1, top + 1))
    if ident_dist <= tol:
        return ExpFactorization(
            target=u, factors=(), residual=ident_dist, horizon=top, tol=tol,
            branch_angles=(), coherent=True)

    args = _level_args(u, top)
    candidates = [math.pi]
    gap_mid, gap_margin = largest_gap_branch(args)
    candidates.append(gap_mid)
    for theta in candidates:
        margin = min(
            ray_distance(complex(math.cos(t), math.sin(t)), theta)
            for t in args)
        if margin >= branch_margin:
            log, residual = _verified_log(u, theta, tol, top)
            if residual <= tol:
                return ExpFactorization(
                    target=u, factors=(log,), residual=residual, horizon=top,
                    tol=tol, branch_angles=(theta,), coherent=True)

    # crowded spectrum: split through a half-logarithm at the widest gap
    if gap_margin <= 10 * np.finfo(float).eps:
        raise AlgebraError(
            "no branch ray separates the spectrum; eigenvalue arguments: "
            f"{np.sort(args)}")
    half_tol = min(tol, gap_margin / 2)
    best_effort, _ = _verified_log(u, gap_mid, half_tol, top)
    half = (0.5 * best_effort).with_certificates(selfadjoint=True)
    w = (u * exp_selfadjoint(half, -1.0)).with_certificates(
        unitary=True, norm_bound=1.0, norm_reason="product of unitaries")
    w_branch, w_margin = largest_gap_branch(_level_args(w, top))
    if w_margin < branch_margin:
        raise AlgebraError(
            "splitting failed to open a branch gap; eigenvalue arguments "
            f"of the remainder: {np.sort(_level_args(w, top))}")
    log_w, _ = _verified_log(w, w_branch, tol, top)
    factors = (log_w, half)
    residual = _reassembly_residual(factors, u, top)
    if residual > tol:
        raise AlgebraError(
            f"two-factor reassembly residual {residual:.3e} exceeds {tol:.3e};"
            f" eigenvalue arguments: {np.sort(args)}")
    return ExpFactorization(
        target=u, factors=factors, residual=residual, horizon=top, tol=tol,
        branch_angles=(w_branch, gap_mid), coherent=True)


def pushforward_exp(
    phi: TowerHomomorphism,
    fact: ExpFactorization,
) -> ExpFactorization:
    """Image of a factorization under a levelwise surjective homomorphism.

    Homomorphisms commute with the continuous calculus of normal elements,
    so phi(exp(i*a)) = exp(i*phi(a)) and the image factors are the images
    of the factors; the reassembly residual cannot grow beyond rounding
    because every level map is a contraction.
    """
    if not phi.is_levelwise_surjective(fact.horizon):
        raise PreconditionError(
            "pushing a factorization forward needs levelwise surjectivity")
    image_target = phi.apply(
        fact.target, unitary=True, norm_bound=1.0,
        norm_reason="surjective image of a unitary")
    image_factors = tuple(
        phi.apply(a, selfadjoint=True) for a in fact.factors)
    residual = _reassembly_residual(image_factors, image_target, fact.horizon)
    return ExpFactorization(
        target=image_target,
        factors=image_factors,
        residual=residual,
        horizon=fact.horizon,
        tol=fact.tol,
        branch_angles=fact.branch_angles,
        coherent=fact.coherent,
    )
