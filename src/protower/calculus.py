"""Pro-level analysis of coherent families.

Seminorms, the uniform norm, spectra as unions over levels, boundedness
classification and lifted functional calculus. Boundedness over an
infinite chain is only semi-decidable from finitely many levels, so every
verdict here is explicitly three-valued: bounded with a certificate,
unbounded with a witness level, or unknown at the truncation horizon.

Sweeps build and measure only the blocks born at each level. The uniform
norm brackets each newborn block in O(n^2), between its largest column
norm and min(||b||_F, sqrt(||b||_1 ||b||_inf)), and runs an SVD only
where the bracket cannot decide the verdict, so every number it returns
still comes from an SVD of the block that reaches it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core_algebra import (
    ExpI,
    FunctionDescriptor,
    PreconditionError,
    _block_eigenvalues,
    _block_norm,
    apply_function,
    cluster_points,
    cstar_norm,
)
from .tower import Certificates, CoherentElement, project

__all__ = [
    "BoundednessVerdict",
    "SpectrumReport",
    "DEFAULT_DIVERGENCE_THRESHOLD",
    "seminorm",
    "uniform_norm",
    "pro_spectrum",
    "is_spectrally_bounded",
    "lift_function",
    "coherent_selfadjoint_parts",
]

DEFAULT_DIVERGENCE_THRESHOLD = 1e6


@dataclass(frozen=True)
class BoundednessVerdict:
    """Three-valued classification of a supremum over tower levels."""

    status: str  # "bounded" | "unbounded" | "unknown"
    horizon: int
    bound: float | None = None
    certificate: str | None = None
    witness_level: int | None = None
    witness_value: float | None = None
    lower_bound: float | None = None

    @classmethod
    def bounded(cls, bound, certificate, horizon, lower_bound=None):
        return cls("bounded", horizon, bound=float(bound),
                   certificate=certificate, lower_bound=lower_bound)

    @classmethod
    def unbounded(cls, witness_level, witness_value, horizon, lower_bound=None):
        return cls("unbounded", horizon, witness_level=int(witness_level),
                   witness_value=float(witness_value), lower_bound=lower_bound)

    @classmethod
    def unknown(cls, lower_bound, horizon):
        return cls("unknown", horizon, lower_bound=float(lower_bound))

    @property
    def is_bounded(self) -> bool:
        return self.status == "bounded"

    @property
    def is_unbounded(self) -> bool:
        return self.status == "unbounded"

    @property
    def is_unknown(self) -> bool:
        return self.status == "unknown"


@dataclass(frozen=True)
class SpectrumReport:
    """Clustered union of level spectra up to a horizon."""

    points: tuple[complex, ...]
    horizon: int
    radius: float


def seminorm(e: CoherentElement, p: int) -> float:
    """The level-p C*-seminorm: operator norm of the level-p component."""
    return cstar_norm(project(e, p))


# Relative slack per unit of block size that covers the rounding of the
# bracket's reductions and of LAPACK's SVD, so lo <= _block_norm(b) <= hi.
_BRACKET_SLACK = 64 * np.finfo(float).eps


def _norm_bracket(b: np.ndarray, i: int) -> tuple[float, float]:
    """O(n^2) bounds lo <= _block_norm(b) <= hi.

    lo is the largest column norm, hi is min(||b||_F, sqrt(||b||_1
    ||b||_inf)); both are widened by n * _BRACKET_SLACK. Entries are
    scaled by the largest modulus first, so squares neither overflow nor
    underflow. A 1x1 block, or a zero block, is exact (lo == hi).
    """
    n = b.shape[0]
    if n == 1:
        v = abs(b[0, 0])
        return v, v
    a = np.abs(b)
    s = float(a.max())
    if s == 0.0:
        return 0.0, 0.0
    if not s < math.inf:  # inf or nan: leave it to _block_norm
        return 0.0, math.inf
    a /= s
    col_sq = np.einsum("ij,ij->j", a, a)
    slack = n * _BRACKET_SLACK
    lo = s * math.sqrt(col_sq.max()) * (1 - slack)
    hi = s * min(
        math.sqrt(col_sq.sum()),
        math.sqrt(a.sum(axis=0).max() * a.sum(axis=1).max())) * (1 + slack)
    return lo, hi


def _radius_bracket(b: np.ndarray, i: int) -> tuple[float, float]:
    r = float(np.abs(_block_eigenvalues(b, i)).max())
    return r, r


def _sup_verdict(
    e: CoherentElement,
    horizon: int,
    threshold: float,
    bracket: Callable[[np.ndarray, int], tuple[float, float]],
    exact: Callable[[np.ndarray], float] | None,
    certificate: tuple[float, str] | None,
) -> BoundednessVerdict:
    """Classify the sup over levels of a per-block statistic.

    ``bracket(b, i)`` bounds the statistic of newborn block i; equal
    bounds are its value, otherwise ``exact(b)`` computes it. The value is
    computed only where the bracket cannot decide: at a level whose
    largest upper bound is above the threshold, and for the final sup.
    Both walk the undecided blocks by descending upper bound and stop at
    the first one not above the best value so far. A block is held only
    while its upper bound exceeds every lower bound seen.
    """
    if horizon < 1:
        raise PreconditionError("horizon must be >= 1")
    if certificate is not None:
        bound, reason = certificate
        return BoundednessVerdict.bounded(bound, reason, horizon)
    top = e.max_level(horizon)
    best = 0.0  # largest value known; the sup of the blocks already settled
    floor = 0.0  # largest lower bound seen
    held: list[tuple[float, np.ndarray]] = []  # (hi, block) still undecided
    for p, fresh, blocks in e.newborn_blocks(top):
        for i, b in zip(fresh, blocks):
            lo, hi = bracket(b, i)
            if lo == hi:
                best = max(best, hi)
            else:
                held.append((hi, b))
            floor = max(floor, lo)
        held = [h for h in held if h[0] > floor]
        if max((h[0] for h in held), default=best) > threshold:
            best = _settle(held, best, exact)
            floor, held = max(floor, best), []
        if best > threshold:
            return BoundednessVerdict.unbounded(p, best, top, lower_bound=best)
    best = _settle(held, best, exact)
    exhausted = (not e.tower.is_lazy) and top >= e.tower.horizon
    if exhausted:
        return BoundednessVerdict.bounded(
            best, "finite tower exhausted", top, lower_bound=best)
    return BoundednessVerdict.unknown(best, top)


def _settle(
    held: list[tuple[float, np.ndarray]],
    best: float,
    exact: Callable[[np.ndarray], float],
) -> float:
    """max(best, exact values of the held blocks), computing the fewest."""
    for hi, b in sorted(held, key=lambda h: h[0], reverse=True):
        if hi <= best:
            break
        best = max(best, exact(b))
    return best


def uniform_norm(
    e: CoherentElement,
    horizon: int,
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD,
) -> BoundednessVerdict:
    """Classify sup over levels of the seminorms of a coherent family.

    Bounded needs a certificate (declared analytic bound, unitarity,
    scalarity) or an exhausted finite tower; a seminorm above the
    divergence threshold is an unboundedness witness; otherwise the result
    is unknown-at-truncation with the largest seminorm seen.
    """
    return _sup_verdict(
        e, horizon, divergence_threshold, _norm_bracket, _block_norm,
        e.certificates.norm())


def is_spectrally_bounded(
    e: CoherentElement,
    horizon: int,
    threshold: float = DEFAULT_DIVERGENCE_THRESHOLD,
) -> BoundednessVerdict:
    """Same classification applied to the spectral radius over levels."""
    # radius brackets are exact, so nothing is left to settle
    return _sup_verdict(
        e, horizon, threshold, _radius_bracket, None,
        e.certificates.spectral())


def pro_spectrum(
    e: CoherentElement,
    horizon: int,
    cluster_tol: float = 1e-8,
) -> SpectrumReport:
    """Union of the level spectra up to the horizon, clustered.

    Eigenvalues are collected once per block born along the chain. On a
    non-unital tower the spectrum is taken in the unitization, which
    contributes the point 0. The radius is exact when the tower is finite
    and exhausted, otherwise a lower bound for the spectral radius.
    """
    if horizon < 1:
        raise PreconditionError("horizon must be >= 1")
    if cluster_tol <= 0:
        raise PreconditionError("cluster_tol must be positive")
    top = e.max_level(horizon)
    collected = []
    for _, fresh, blocks in e.newborn_blocks(top):
        collected += [_block_eigenvalues(b, i) for i, b in zip(fresh, blocks)]
    points = np.concatenate(collected) if collected else np.zeros(0, complex)
    if not e.tower.unital:
        points = np.append(points, 0.0)
    clustered = cluster_points(points, cluster_tol)
    radius = float(np.abs(points).max()) if points.size else 0.0
    return SpectrumReport(tuple(clustered), top, radius)


def lift_function(
    e: CoherentElement,
    f: FunctionDescriptor,
    tol: float = 1e-10,
) -> CoherentElement:
    """Apply a function levelwise, with whatever certificates survive.

    On a non-unital tower (an ideal) the function must fix 0, otherwise
    the result would leave the ideal. The result stops at e's top level.
    Coherence of the result is the compatibility of the calculus with the
    connecting maps and is checked by the usual coherence report, not
    here.
    """
    if not e.tower.unital and not f.fixes_zero():
        raise PreconditionError(
            f"{f!r} does not fix 0, so it does not act on an ideal")

    def gen(p: int, indices: list[int]) -> list[np.ndarray]:
        # the whole level: normality and domain tolerances scale with it
        x = apply_function(project(e, p), f, tol)
        return [x.blocks[i] for i in indices]

    cert = e.certificates
    bound = reason = None
    if cert.selfadjoint:
        radius = cert.norm_bound if cert.norm_bound is not None else math.inf
        sup = f.selfadjoint_bound(radius)
        if sup is not None and math.isfinite(sup):
            bound = sup
            reason = (
                f"sup of {type(f).__name__} over the certified spectral "
                "enclosure")
    unitary = cert.selfadjoint and isinstance(f, ExpI)
    if unitary:
        bound, reason = 1.0, "exponential of a self-adjoint element"
    return e._derive(gen, Certificates.bounded(
        bound, reason,
        selfadjoint=cert.selfadjoint and _real_on_reals(f), unitary=unitary))


def _real_on_reals(f: FunctionDescriptor) -> bool:
    probe = np.array([-1.7, -0.3, 0.0, 0.4, 1.9])
    try:
        values = np.asarray(f(probe), dtype=complex)
    except Exception:
        return False
    return bool(np.abs(values.imag).max() <= 1e-14)


def coherent_selfadjoint_parts(
    e: CoherentElement,
) -> tuple[CoherentElement, CoherentElement]:
    """Levelwise real and imaginary parts (e + e*)/2 and (e - e*)/2i.

    The split commutes with *-homomorphisms, so coherence is preserved;
    each part inherits the norm bound of the original (the split is a
    contraction on each summand).
    """
    bound = e.certificates.norm_bound
    reason = "self-adjoint part of a certified bounded element"
    cert = vars(Certificates.bounded(
        bound, None if bound is None else reason, selfadjoint=True))
    return ((0.5 * (e + e.adjoint())).with_certificates(**cert),
            (-0.5j * (e - e.adjoint())).with_certificates(**cert))
