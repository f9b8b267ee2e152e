"""Pro-level analysis of coherent families.

Seminorms, the uniform norm, spectra as unions over levels, boundedness
classification and lifted functional calculus. Boundedness over an
infinite chain is only semi-decidable from finitely many levels, so every
verdict here is explicitly three-valued: bounded with a certificate,
unbounded with a witness level, or unknown at the truncation horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .core_algebra import (
    ExpI,
    FunctionDescriptor,
    PreconditionError,
    _block_eigenvalues,
    _block_norm,
    _block_selfadjoint_parts,
    apply_function,
    cluster_points,
    cstar_norm,
)
from .tower import CoherentElement, project

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


def _block_stat_sweep(
    e: CoherentElement,
    horizon: int,
    stat: Callable[[np.ndarray, int], object],
) -> Iterator[tuple[int, dict[int, object], list[int]]]:
    """Walk levels computing a per-block statistic once per block.

    Connecting maps conjugate surviving blocks by unitaries, and both the
    operator norm and the eigenvalue set are conjugation-invariant, so a
    block routed up the chain keeps its statistic; only newborn blocks are
    computed, and only they are built. Yields (level, stats per block,
    fresh block indices).
    """
    t = e.tower
    stats: dict[int, object] = {}
    for p in range(1, horizon + 1):
        if p > 1:
            stats = {
                route[0]: stats[j]
                for j, route in enumerate(t.map(p - 1).routes)}
        fresh = [i for i in range(t.level(p).num_blocks) if i not in stats]
        if fresh:  # levels without newborn blocks need no data at all
            for i, b in zip(fresh, e.level_blocks(p, fresh)):
                stats[i] = stat(b, i)
        yield p, stats, fresh


def _radius_stat(b: np.ndarray, i: int) -> float:
    return float(np.abs(_block_eigenvalues(b, i)).max())


def _norm_stat(b: np.ndarray, i: int) -> float:
    return _block_norm(b)


def _sup_verdict(
    e: CoherentElement,
    horizon: int,
    threshold: float,
    stat,
    certificate: tuple[float, str] | None,
) -> BoundednessVerdict:
    if horizon < 1:
        raise PreconditionError("horizon must be >= 1")
    if certificate is not None:
        bound, reason = certificate
        return BoundednessVerdict.bounded(bound, reason, horizon)
    top = e.max_level(horizon)
    best = 0.0
    for p, stats, _ in _block_stat_sweep(e, top, stat):
        level_value = max(stats.values())
        best = max(best, level_value)
        if level_value > threshold:
            return BoundednessVerdict.unbounded(
                p, level_value, horizon, lower_bound=best)
    exhausted = (not e.tower.is_lazy) and top >= e.tower.horizon
    if exhausted:
        return BoundednessVerdict.bounded(
            best, "finite tower exhausted", horizon, lower_bound=best)
    return BoundednessVerdict.unknown(best, horizon)


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
    cert = None
    if e.norm_bound is not None:
        cert = (e.norm_bound, e.norm_reason or "declared norm bound")
    elif e.unitary:
        cert = (1.0, "unitary element")
    return _sup_verdict(e, horizon, divergence_threshold, _norm_stat, cert)


def is_spectrally_bounded(
    e: CoherentElement,
    horizon: int,
    threshold: float = DEFAULT_DIVERGENCE_THRESHOLD,
) -> BoundednessVerdict:
    """Same classification applied to the spectral radius over levels."""
    cert = None
    if e.spectral_bound is not None:
        cert = (e.spectral_bound, e.spectral_reason or "declared spectral bound")
    elif e.unitary:
        cert = (1.0, "unitary element")
    return _sup_verdict(e, horizon, threshold, _radius_stat, cert)


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
    for _, stats, fresh in _block_stat_sweep(e, top, _block_eigenvalues):
        for i in fresh:
            collected.append(stats[i])
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
    the result would leave the ideal. Coherence of the result is the
    compatibility of the calculus with the connecting maps and is checked
    by the usual coherence report, not here.
    """
    if not e.tower.unital and not f.fixes_zero():
        raise PreconditionError(
            f"{f!r} does not fix 0, so it does not act on an ideal")

    def gen(p: int, indices: list[int]) -> list[np.ndarray]:
        # the whole level: normality and domain tolerances scale with it
        x = apply_function(project(e, p), f, tol)
        return [x.blocks[i] for i in indices]

    norm_bound = None
    reason = None
    if e.selfadjoint:
        radius = e.norm_bound if e.norm_bound is not None else math.inf
        sup = f.selfadjoint_bound(radius)
        if sup is not None and math.isfinite(sup):
            norm_bound = sup
            reason = (
                f"sup of {type(f).__name__} over the certified spectral "
                "enclosure")
    unitary = e.selfadjoint and isinstance(f, ExpI)
    if unitary:
        norm_bound = 1.0
        reason = "exponential of a self-adjoint element"
    result_selfadjoint = e.selfadjoint and _real_on_reals(f)
    return CoherentElement(
        e.tower,
        generator=gen,
        coherence_tol=e.coherence_tol,
        norm_bound=norm_bound,
        norm_reason=reason,
        spectral_bound=norm_bound,
        spectral_reason=reason,
        selfadjoint=result_selfadjoint,
        unitary=unitary,
    )


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
    """Levelwise real and imaginary parts as coherent families.

    The split commutes with *-homomorphisms, so coherence is preserved;
    each part inherits the norm bound of the original (the split is a
    contraction on each summand).
    """
    def part(which: int):
        def gen(p: int, indices: list[int]) -> list[np.ndarray]:
            return [
                _block_selfadjoint_parts(b)[which]
                for b in e.level_blocks(p, indices)]
        return gen

    kwargs = dict(coherence_tol=e.coherence_tol, selfadjoint=True)
    if e.norm_bound is not None:
        kwargs.update(
            norm_bound=e.norm_bound,
            norm_reason="self-adjoint part of a certified bounded element",
            spectral_bound=e.norm_bound,
            spectral_reason="self-adjoint part of a certified bounded element",
        )
    return (
        CoherentElement(e.tower, generator=part(0), **kwargs),
        CoherentElement(e.tower, generator=part(1), **kwargs),
    )
