"""Unitary groups of towers: exponentials, logarithms, factorizations.

Every level algebra is a direct sum of matrix blocks, so every level
unitary group is connected and every coherent unitary is levelwise a
single exponential of a self-adjoint element. Globally the obstruction is
the branch choice: one fixed branch angle gives a coherent logarithm, and
when eigenvalues crowd every usable ray the unitary is split into two
exponential factors through a half-logarithm.

Like the pro-level sweeps, these functions read only the blocks that
determine a coherent family: the blocks each level adds
(``CoherentElement.newborn_blocks``). A connecting map deletes blocks and
conjugates the survivors, so every other block is a conjugate of one
already seen, with the same eigenvalues and norm. Each newborn block is
diagonalized once, at the level where it is born, so the work grows
linearly with the horizon. A logarithm takes its other blocks from the
level below through the section of the connecting map, so it is coherent
by construction.
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
    PrincipalArg,
    _block_eigenvalues,
    _block_norm,
    _diagonalize_normal,
    _rebuild,
    ray_distance,
)
from .calculus import _lifted
from .tower import (
    Certificates, CoherentElement, Tower, TowerHomomorphism, scalar_element)

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

# (level, newborn block indices, their blocks) for levels 1..top, as
# CoherentElement.newborn_blocks yields them
Born = list[tuple[int, list[int], list[np.ndarray]]]


def _born(u: CoherentElement, horizon: int) -> Born:
    """The newborn blocks of u up to the horizon, read once."""
    return list(u.newborn_blocks(u.max_level(horizon)))


def is_unitary(e: CoherentElement, horizon: int, tol: float = 1e-10) -> bool:
    """Whether both u u* and u* u are the identity at every level.

    Reads only the newborn blocks, which determine the family. A pure
    predicate: ``e`` may be shared, so nothing is written on it.
    Unitaries have all seminorms equal to 1, hence uniform norm 1; a
    caller that wants that certificate takes ``e.with_certificates(
    unitary=True)``, whose ``certificates.norm()`` is then
    ``(1.0, "unitary element")``.
    """
    for _, _, blocks in _born(e, horizon):
        for b in blocks:
            one = np.eye(b.shape[0], dtype=complex)
            b_star = b.conj().T
            if _block_norm(b @ b_star - one) > tol:
                return False
            if _block_norm(b_star @ b - one) > tol:
                return False
    return True


def exp_selfadjoint(
    a: CoherentElement, t: float = 1.0, tol: float = 1e-10
) -> CoherentElement:
    """The unitary family exp(i*t*a) for self-adjoint a.

    The generator builds only the requested blocks. Each block b must be
    self-adjoint at its own scale, ||b - b*|| <= tol * max(1, ||b||),
    which is never looser than that rule for its whole level; otherwise
    PreconditionError names the level and the block. The result stops at
    a's top level, carries the unitarity certificate, and stays coherent
    because the exponential commutes with the connecting maps.
    """
    return a._derive(_lifted(a, ExpI(t), tol, selfadjoint=True), Certificates.bounded(
        1.0, "exponential of a self-adjoint element", unitary=True))


def _block_log(
    b: np.ndarray, branch_angle: float, tol: float, i: int, level: int | None
) -> np.ndarray:
    """Self-adjoint h with exp(i*h) = b for block i of a unitary."""
    where = f" at level {level}" if level is not None else ""
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
    h = _rebuild(v, PrincipalArg(branch_angle)(d))
    return 0.5 * (h + h.conj().T)


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
    return AlgebraElement(x.parent, [
        _block_log(b, branch_angle, tol, i, level) for i, b in enumerate(x.blocks)])


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
    10*tol on the newborn blocks of every level up to the horizon before
    returning.
    """
    top = horizon if horizon is not None else u.tower.horizon
    return _verified_log(u.tower, _born(u, top), branch_angle, tol)[0]


def _unitary_log(
    u: CoherentElement, branch_angle: float, tol: float, horizon: int | None
) -> tuple[CoherentElement, float]:
    """The logarithm at the branch and its reassembly residual, unjudged."""
    top = horizon if horizon is not None else u.tower.horizon
    return _log_of(u.tower, _born(u, top), branch_angle, tol)


def _log_of(
    tower: Tower, born: Born, branch_angle: float, tol: float
) -> tuple[CoherentElement, float]:
    """The logarithm at the branch of the unitary whose newborn blocks are
    ``born``, and its reassembly residual, unjudged.

    Each newborn block gets its own logarithm; the other blocks are
    sections of the level below (``CoherentElement.from_newborn``).
    """
    log = CoherentElement.from_newborn(tower, [
        (p, fresh, [_block_log(b, branch_angle, tol, i, level=p)
                    for i, b in zip(fresh, blocks)])
        for p, fresh, blocks in born], Certificates.bounded(
            max(abs(branch_angle - 2 * math.pi), abs(branch_angle)),
            "arguments lie in the branch window", selfadjoint=True))
    return log, _reassembly_residual((log,), born, tower)


def _verified_log(
    tower: Tower, born: Born, branch_angle: float, tol: float
) -> tuple[CoherentElement, float]:
    """``_log_of``; a reassembly residual above 10*tol raises."""
    log, worst = _log_of(tower, born, branch_angle, tol)
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


def _reassembly_residual(factors, born: Born, tower: Tower) -> float:
    """max ||prod_j exp(i * factors[j]) - u|| over u's newborn blocks."""
    out = _exp_product(factors, tower)
    worst = 0.0
    for p, fresh, blocks in born:
        for x, y in zip(out.level_blocks(p, fresh), blocks):
            worst = max(worst, _block_norm(x - y))
    return worst


def _level_args(born: Born) -> np.ndarray:
    """Arguments of the eigenvalues of the newborn blocks."""
    return np.concatenate([
        np.angle(_block_eigenvalues(b, i))
        for _, fresh, blocks in born for i, b in zip(fresh, blocks)])


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
    the second logarithm safe. u's newborn blocks are read once, and every
    step (the distance to the identity, the spectrum, the logarithms and
    the residual) works on them.
    """
    top = u.max_level(horizon)
    tower = u.tower
    born = _born(u, top)
    ident_dist = max(
        _block_norm(b - np.eye(b.shape[0], dtype=complex))
        for _, _, blocks in born for b in blocks)
    if ident_dist <= tol:
        return ExpFactorization(
            target=u, factors=(), residual=ident_dist, horizon=top, tol=tol,
            branch_angles=(), coherent=True)

    args = _level_args(born)
    candidates = [math.pi]
    gap_mid, gap_margin = largest_gap_branch(args)
    candidates.append(gap_mid)
    for theta in candidates:
        margin = min(
            ray_distance(complex(math.cos(t), math.sin(t)), theta)
            for t in args)
        if margin >= branch_margin:
            log, residual = _verified_log(tower, born, theta, tol)
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
    best_effort, _ = _verified_log(tower, born, gap_mid, half_tol)
    half = (0.5 * best_effort).with_certificates(selfadjoint=True)
    # the newborn blocks of the remainder w = u * exp(-i*half)
    undo = exp_selfadjoint(half, -1.0)
    w_born = [
        (p, fresh, [x @ y for x, y in zip(blocks, undo.level_blocks(p, fresh))])
        for p, fresh, blocks in born]
    w_args = _level_args(w_born)
    w_branch, w_margin = largest_gap_branch(w_args)
    if w_margin < branch_margin:
        raise AlgebraError(
            "splitting failed to open a branch gap; eigenvalue arguments "
            f"of the remainder: {np.sort(w_args)}")
    log_w, _ = _verified_log(tower, w_born, w_branch, tol)
    factors = (log_w, half)
    residual = _reassembly_residual(factors, born, tower)
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
    residual = _reassembly_residual(
        image_factors, _born(image_target, fact.horizon), image_target.tower)
    return ExpFactorization(
        target=image_target,
        factors=image_factors,
        residual=residual,
        horizon=fact.horizon,
        tol=fact.tol,
        branch_angles=fact.branch_angles,
        coherent=fact.coherent,
    )
