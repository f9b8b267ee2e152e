"""Finite-scale Gelfand duality for commutative towers.

Characters of a commutative block algebra are its coordinate evaluations,
so the character space of a commutative tower is a covered space: a point
set exhausted by a chain of finite subsets, glued by the duals of the
connecting maps. Conversely a covered space produces the tower of function
algebras on the chain. The two constructions are checked to be mutually
inverse by explicit round trips; at finite scale the topological content
degrades to bijections plus family bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_algebra import (
    BlockAlgebra,
    PreconditionError,
    StructuralError,
)
from .tower import ConnectingMap, CoherentElement, Tower, project

__all__ = [
    "CharacterFunction",
    "CoveredSpace",
    "CfAlgebra",
    "DualityReport",
    "character_space",
    "evaluation_iso",
    "cf_algebra",
    "duality_roundtrip",
]


@dataclass(frozen=True)
class CoveredSpace:
    """A countable point set exhausted by a chain of finite subsets.

    Points are labels; ``chain[k-1]`` lists 0-based point indices of the
    k-th covering set, in a fixed order. The chain must be increasing and
    must cover every materialized point.
    """

    points: tuple[str, ...]
    chain: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        pts = tuple(map(str, self.points))
        if len(set(pts)) != len(pts):
            raise StructuralError("covered-space points must be distinct")
        chain = tuple(tuple(map(int, f)) for f in self.chain)
        if not chain:
            raise StructuralError("the covering chain is empty")
        sets = [set(f) for f in chain]
        everything = set(range(len(pts)))
        for k, (f, s) in enumerate(zip(chain, sets), start=1):
            if len(s) != len(f):
                raise StructuralError(f"covering set {k} repeats a point")
            if not s <= everything:
                raise StructuralError(f"covering set {k} names a missing point")
        for lo, hi in zip(sets, sets[1:]):
            if not lo <= hi:
                raise StructuralError("the covering family is not a chain")
        if sets[-1] != everything:
            raise StructuralError("the chain does not cover the point set")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "chain", chain)

    @property
    def horizon(self) -> int:
        return len(self.chain)

    def first_appearance(self, index: int) -> int:
        for k, f in enumerate(self.chain, start=1):
            if index in f:
                return k
        raise StructuralError(f"point {index} never appears")


def character_space(tower: Tower, horizon: int) -> CoveredSpace:
    """Characters of a commutative tower up to the horizon.

    Point c is the character ``chi<c>``. Ids are given in birth order and
    kept along the dual injections (they are the injections), so
    ``chain[p-1][j]`` is the character evaluating block j at level p.
    """
    tower.ensure(horizon)
    for p in range(1, horizon + 1):
        if not tower.level(p).is_commutative:
            raise PreconditionError(
                f"level {p} has a block of size > 1; characters need a "
                "commutative tower")
    chain = [tuple(range(tower.level(1).num_blocks))]
    born = len(chain[0])
    for p in range(2, horizon + 1):
        kept = {
            route[0]: chain[-1][j]
            for j, route in enumerate(tower.map(p - 1).routes)}
        for i in tower.newborn(p):
            kept[i], born = born, born + 1
        chain.append(tuple(kept[i] for i in range(tower.level(p).num_blocks)))
    return CoveredSpace(tuple(f"chi{c}" for c in range(born)), tuple(chain))


@dataclass(frozen=True)
class CharacterFunction:
    """The evaluation image of an element: a function on the characters."""

    space: CoveredSpace
    level_values: tuple[tuple[complex, ...], ...]

    def restriction(self, p: int) -> tuple[complex, ...]:
        return self.level_values[p - 1]

    def at(self, point: int) -> complex:
        for p in range(self.space.horizon, 0, -1):
            ids = self.space.chain[p - 1]
            if point in ids:
                return self.level_values[p - 1][ids.index(point)]
        raise StructuralError(f"unknown character id {point}")


def evaluation_iso(
    tower: Tower, e: CoherentElement, horizon: int
) -> CharacterFunction:
    """The map sending a character to its value on the element.

    Levelwise this is literally reading off the 1x1 blocks, which is why
    evaluation is a *-homomorphism and the level seminorm equals the max
    modulus over the level's characters.
    """
    return _evaluate(character_space(tower, horizon), e)


def _evaluate(space: CoveredSpace, e: CoherentElement) -> CharacterFunction:
    """``evaluation_iso`` on a character space built once by the caller."""
    return CharacterFunction(space, tuple(
        tuple(complex(b[0, 0]) for b in project(e, p).blocks)
        for p in range(1, space.horizon + 1)))


@dataclass(frozen=True)
class CfAlgebra:
    """The function-algebra tower of a covered space.

    Level k is the algebra of functions on the k-th covering set, one 1x1
    block per point in chain order; connecting maps restrict along the
    inclusions of the chain.
    """

    space: CoveredSpace
    tower: Tower

    def element_from_values(self, value_at) -> CoherentElement:
        """Coherent element from a function on point indices."""

        def gen(p: int, indices: list[int]) -> list[np.ndarray]:
            points = self.space.chain[p - 1]
            return [np.full((1, 1), complex(value_at(points[i]))) for i in indices]

        return CoherentElement(self.tower, generator=gen)


def cf_algebra(space: CoveredSpace) -> CfAlgebra:
    levels = [
        BlockAlgebra(tuple(1 for _ in f)) for f in space.chain]
    maps = []
    for k in range(1, space.horizon):
        lower, upper = space.chain[k - 1], space.chain[k]
        routes = tuple((upper.index(i), None) for i in lower)
        maps.append(ConnectingMap(levels[k], levels[k - 1], routes))
    return CfAlgebra(space, Tower(levels, maps))


@dataclass(frozen=True)
class DualityReport:
    """Outcome of a duality round trip."""

    kind: str
    bijection_ok: bool
    birth_levels_ok: bool
    family_ok: bool
    max_residual: float
    probes: int
    tol: float

    @property
    def passed(self) -> bool:
        return (
            self.bijection_ok and self.birth_levels_ok and self.family_ok
            and self.max_residual <= self.tol)


def _same_space(a: CoveredSpace, b: CoveredSpace) -> tuple[bool, bool, bool]:
    """Whether b is the space a with its points renamed block by block.

    Position j of covering set k names one point in each space. The
    renaming this defines must be a bijection of the point sets
    (``bijection_ok``), keep every point's first appearance
    (``birth_levels_ok``) and carry each covering set onto the other's
    (``family_ok``).
    """
    relabel: dict[int, int] = {}
    consistent = a.horizon == b.horizon
    for fa, fb in zip(a.chain, b.chain):
        consistent &= len(fa) == len(fb)
        for i, c in zip(fa, fb):
            consistent &= relabel.setdefault(i, c) == c
    bijection_ok = (
        consistent
        and len(set(relabel.values())) == len(a.points) == len(b.points))
    birth_ok = all(
        b.first_appearance(c) == a.first_appearance(i)
        for i, c in relabel.items())
    family_ok = all(
        frozenset(relabel[i] for i in fa) == frozenset(fb)
        for fa, fb in zip(a.chain, b.chain))
    return bijection_ok, birth_ok, family_ok


def _space_residual(
    space: CoveredSpace, cf: CfAlgebra, chars: CoveredSpace, rng, probes: int
) -> float:
    """Largest error of evaluating random functions on the points."""
    max_residual = 0.0
    for _ in range(probes):
        table = {
            i: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for i in range(len(space.points))}
        f = cf.element_from_values(lambda i, t=table: t[i])
        ev = _evaluate(chars, f)
        for p in range(1, space.horizon + 1):
            for j, value in enumerate(ev.restriction(p)):
                max_residual = max(
                    max_residual, abs(value - table[space.chain[p - 1][j]]))
    return max_residual


def _tower_residual(
    tower: Tower, cf: CfAlgebra, horizon: int, rng, probes: int
) -> float:
    """Largest error of rebuilding random elements from their values."""
    from .randomness import random_element
    from .tower import coherent_from_top

    max_residual = 0.0
    for _ in range(probes):
        e = coherent_from_top(
            tower, random_element(tower.level(horizon), rng), horizon)
        back = cf.element_from_values(_evaluate(cf.space, e).at)
        for p in range(1, horizon + 1):
            orig = project(e, p)
            rebuilt = project(back, p)
            diff = max(
                abs(a[0, 0] - b[0, 0])
                for a, b in zip(orig.blocks, rebuilt.blocks))
            max_residual = max(max_residual, diff)
    return max_residual


def duality_roundtrip(obj, horizon: int, tol: float, rng, probes: int = 100):
    """Round-trip a covered space or a commutative tower through duality.

    Both trips check one statement about a covered space X, the given
    space or the character space of the given tower: the character space
    of ``cf_algebra(X)`` is X relabelled block by block, so points biject
    with characters, first appearances match birth levels and the
    covering family is recovered. The probes then check that functions on
    a space survive evaluation, and that elements of a tower survive
    evaluation and rebuilding, within tol.
    """
    if isinstance(obj, CoveredSpace):
        kind, space = "space", obj
    elif isinstance(obj, Tower):
        kind, space = "tower", character_space(obj, horizon)
    else:
        raise PreconditionError(
            "duality_roundtrip needs a CoveredSpace or a commutative Tower")
    cf = cf_algebra(space)
    chars = character_space(cf.tower, space.horizon)
    flags = _same_space(space, chars)
    if kind == "space":
        residual = _space_residual(space, cf, chars, rng, probes)
    else:
        residual = _tower_residual(obj, cf, horizon, rng, probes)
    return DualityReport(kind, *flags, residual, probes, tol)
