"""Finite-scale Gelfand duality for commutative towers.

Characters of a commutative block algebra are its coordinate evaluations,
so the character space of a commutative tower is a growing chain of finite
point sets glued by the duals of the connecting maps. Conversely a covered
space (a point set exhausted by a chain of finite subsets) produces the
tower of function algebras on the chain. The two constructions are checked
to be mutually inverse by explicit round trips; at finite scale the
topological content degrades to bijections plus family bookkeeping.
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
    "CharacterSpace",
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
class CharacterSpace:
    """Per-level character sets with stable point identities.

    ``level_points[p-1][j]`` is the id of the character evaluating block j
    at level p. Ids are preserved by the dual injections (they are the
    injections), so the union is literally the set of ids and the family
    of level sets realizes those injections by inclusion of id sets.
    """

    level_points: tuple[tuple[int, ...], ...]
    birth_level: tuple[tuple[int, int], ...]  # (id, level) pairs

    @property
    def horizon(self) -> int:
        return len(self.level_points)

    @property
    def union(self) -> tuple[int, ...]:
        return tuple(sorted(dict(self.birth_level)))

    @property
    def family(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(ids) for ids in self.level_points)

    def born_at(self, point: int) -> int:
        return dict(self.birth_level)[point]


def character_space(tower: Tower, horizon: int) -> CharacterSpace:
    """Characters of a commutative tower up to the horizon."""
    tower.ensure(horizon)
    for p in range(1, horizon + 1):
        if not tower.level(p).is_commutative:
            raise PreconditionError(
                f"level {p} has a block of size > 1; characters need a "
                "commutative tower")
    level_points: list[tuple[int, ...]] = []
    births: list[tuple[int, int]] = []
    next_id = 0
    ids = list(range(tower.level(1).num_blocks))
    next_id = len(ids)
    births += [(i, 1) for i in ids]
    level_points.append(tuple(ids))
    for p in range(2, horizon + 1):
        nb = tower.level(p).num_blocks
        assigned: dict[int, int] = {}
        for j, route in enumerate(tower.map(p - 1).routes):
            assigned[route[0]] = level_points[-1][j]
        ids = []
        for i in range(nb):
            if i in assigned:
                ids.append(assigned[i])
            else:
                ids.append(next_id)
                births.append((next_id, p))
                next_id += 1
        level_points.append(tuple(ids))
    return CharacterSpace(tuple(level_points), tuple(births))


@dataclass(frozen=True)
class CharacterFunction:
    """The evaluation image of an element: a function on the characters."""

    space: CharacterSpace
    level_values: tuple[tuple[complex, ...], ...]

    def restriction(self, p: int) -> tuple[complex, ...]:
        return self.level_values[p - 1]

    def at(self, point: int) -> complex:
        for p in range(self.space.horizon, 0, -1):
            ids = self.space.level_points[p - 1]
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
    space = character_space(tower, horizon)
    values = []
    for p in range(1, horizon + 1):
        x = project(e, p)
        values.append(tuple(complex(b[0, 0]) for b in x.blocks))
    return CharacterFunction(space, tuple(values))


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
        pts = tuple(str(x) for x in self.points)
        if len(set(pts)) != len(pts):
            raise StructuralError("covered-space points must be distinct")
        chain = tuple(tuple(int(i) for i in f) for f in self.chain)
        if not chain:
            raise StructuralError("the covering chain is empty")
        for k, f in enumerate(chain, start=1):
            if len(set(f)) != len(f):
                raise StructuralError(f"covering set {k} repeats a point")
            if any(not 0 <= i < len(pts) for i in f):
                raise StructuralError(f"covering set {k} names a missing point")
        for lo, hi in zip(chain, chain[1:]):
            if not set(lo) <= set(hi):
                raise StructuralError("the covering family is not a chain")
        if set().union(*[set(f) for f in chain]) != set(range(len(pts))):
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


def _space_roundtrip(
    space: CoveredSpace, tol: float, rng, probes: int
) -> DualityReport:
    cf = cf_algebra(space)
    chars = character_space(cf.tower, space.horizon)

    # point index -> character id, read off level by level
    point_to_id: dict[int, int] = {}
    consistent = True
    for k in range(1, space.horizon + 1):
        for j, idx in enumerate(space.chain[k - 1]):
            cid = chars.level_points[k - 1][j]
            if point_to_id.setdefault(idx, cid) != cid:
                consistent = False
    ids = set(point_to_id.values())
    bijection_ok = (
        consistent
        and len(ids) == len(point_to_id) == len(space.points)
        and ids == set(chars.union))
    birth_ok = all(
        chars.born_at(cid) == space.first_appearance(idx)
        for idx, cid in point_to_id.items())
    family_ok = all(
        frozenset(point_to_id[i] for i in f) == fam
        for f, fam in zip(space.chain, chars.family))

    max_residual = 0.0
    for _ in range(probes):
        table = {
            i: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for i in range(len(space.points))}
        f = cf.element_from_values(lambda i, t=table: t[i])
        ev = evaluation_iso(cf.tower, f, space.horizon)
        for idx, cid in point_to_id.items():
            max_residual = max(max_residual, abs(ev.at(cid) - table[idx]))
    return DualityReport(
        "space", bijection_ok, birth_ok, family_ok, max_residual, probes, tol)


def _character_cover(chars: CharacterSpace) -> tuple[CoveredSpace, list[int]]:
    """The covered space of a character space, and the character id of
    each of its points: one point per character, the chain listing each
    level's characters in block order."""
    id_order = list(chars.union)
    point_of = {c: i for i, c in enumerate(id_order)}
    space = CoveredSpace(
        points=tuple(f"chi{c}" for c in id_order),
        chain=tuple(
            tuple(point_of[c] for c in ids) for ids in chars.level_points),
    )
    return space, id_order


def _tower_roundtrip(
    tower: Tower, horizon: int, tol: float, rng, probes: int
) -> DualityReport:
    from .randomness import random_element
    from .tower import coherent_from_top

    chars = character_space(tower, horizon)
    space, id_order = _character_cover(chars)
    cf = cf_algebra(space)
    cf_chars = character_space(cf.tower, horizon)

    # character of the rebuilt tower -> character of the tower, through the
    # point both stand for; block j of a level must be the same character
    # on both sides
    cf_to_id: dict[int, int] = {}
    consistent = True
    for p in range(1, horizon + 1):
        ids, cf_ids = chars.level_points[p - 1], cf_chars.level_points[p - 1]
        consistent &= len(ids) == len(cf_ids)
        for j, (cid, point) in enumerate(zip(cf_ids, space.chain[p - 1])):
            c = id_order[point]
            consistent &= cf_to_id.setdefault(cid, c) == c == ids[j]
    bijection_ok = (
        consistent
        and len(set(cf_to_id.values())) == len(cf_to_id) == len(chars.union))
    birth_ok = all(
        cf_chars.born_at(cid) == chars.born_at(c) for cid, c in cf_to_id.items())
    family_ok = all(
        frozenset(cf_to_id[cid] for cid in cf_fam) == fam
        for cf_fam, fam in zip(cf_chars.family, chars.family))

    max_residual = 0.0
    for _ in range(probes):
        e = coherent_from_top(
            tower, random_element(tower.level(horizon), rng), horizon)
        ev = evaluation_iso(tower, e, horizon)
        back = cf.element_from_values(
            lambda i, _ev=ev: _ev.at(id_order[i]))
        for p in range(1, horizon + 1):
            orig = project(e, p)
            rebuilt = project(back, p)
            diff = max(
                abs(a[0, 0] - b[0, 0])
                for a, b in zip(orig.blocks, rebuilt.blocks))
            max_residual = max(max_residual, diff)
    return DualityReport(
        "tower", bijection_ok, birth_ok, family_ok, max_residual, probes, tol)


def duality_roundtrip(obj, horizon: int, tol: float, rng, probes: int = 100):
    """Round-trip a covered space or a commutative tower through duality.

    For a covered space: points biject with the characters of its function
    tower, first appearances match birth levels, and the covering family
    is recovered. For a commutative tower: evaluating and rebuilding from
    the character space reproduces every element within tol.
    """
    if isinstance(obj, CoveredSpace):
        return _space_roundtrip(obj, tol, rng, probes)
    if isinstance(obj, Tower):
        return _tower_roundtrip(obj, horizon, tol, rng, probes)
    raise PreconditionError(
        "duality_roundtrip needs a CoveredSpace or a commutative Tower")
