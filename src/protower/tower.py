"""Chain-indexed inverse systems of block algebras and their elements.

A tower models an inverse limit of finite-dimensional C*-algebras along a
chain of levels 1, 2, 3, ...; connecting maps delete blocks and conjugate
the survivors by unitaries, which makes them surjective *-homomorphisms by
construction. Elements of the limit are coherent families, given either as
explicit per-level data or as a lazy generator rule.
"""

from __future__ import annotations

import copy
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .core_algebra import (
    AlgebraElement,
    BlockAlgebra,
    PreconditionError,
    StructuralError,
    TruncationError,
    cstar_norm,
    distance,
)

__all__ = [
    "BlockMap",
    "ConnectingMap",
    "Tower",
    "Certificates",
    "CoherentElement",
    "TowerHomomorphism",
    "make_product_tower",
    "project",
    "check_coherence",
    "CoherenceReport",
    "closed_ideal",
    "IdealDecomposition",
    "coherent_from_top",
    "scalar_element",
    "shift_element",
    "diag_sequence_element",
]

UNITARY_TOL = 1e-12
DEFAULT_COHERENCE_TOL = 1e-10


def _compose_conjugators(outer, inner):
    if outer is None:
        return inner
    if inner is None:
        return outer
    return outer @ inner


@dataclass(frozen=True)
class BlockMap:
    """A *-homomorphism between block algebras given by block routing.

    ``routes[j]`` is either None (target block j receives 0) or a pair
    (source_index, conjugator): target block j is the conjugated copy of
    that source block. A conjugator of None means the identity, which is
    by far the common case and is applied exactly. Connecting maps of
    towers additionally require every target block to be routed and no
    source block to be reused, which is exactly surjectivity in this
    shape.
    """

    source: BlockAlgebra
    target: BlockAlgebra
    routes: tuple[Optional[tuple[int, Optional[np.ndarray]]], ...]

    def __post_init__(self):
        if len(self.routes) != self.target.num_blocks:
            raise StructuralError(
                f"{len(self.routes)} routes for {self.target.num_blocks} "
                "target blocks")
        num_sources = self.source.num_blocks
        source_sizes = self.source.block_sizes
        target_sizes = self.target.block_sizes
        frozen = []
        for j, route in enumerate(self.routes):
            if route is None:
                frozen.append(None)
                continue
            s, u = route
            s = int(s)
            if not 0 <= s < num_sources:
                raise StructuralError(
                    f"route {j} points at missing source block {s}")
            n_t = target_sizes[j]
            n_s = source_sizes[s]
            if n_t != n_s:
                raise StructuralError(
                    f"route {j}: target size {n_t} != source size {n_s}")
            if u is None:
                frozen.append((s, None))
                continue
            u = np.array(u, dtype=complex, copy=True)
            if u.shape != (n_t, n_t):
                raise StructuralError(
                    f"route {j}: conjugator shape {u.shape}, expected "
                    f"({n_t}, {n_t})")
            if np.abs(u @ u.conj().T - np.eye(n_t)).max() > UNITARY_TOL:
                raise StructuralError(f"route {j}: conjugator is not unitary")
            u.setflags(write=False)
            frozen.append((s, u))
        object.__setattr__(self, "routes", tuple(frozen))

    @property
    def is_surjective_form(self) -> bool:
        used = [r[0] for r in self.routes if r is not None]
        return len(used) == self.target.num_blocks and len(set(used)) == len(used)

    def apply(self, x: AlgebraElement) -> AlgebraElement:
        if x.parent != self.source:
            raise StructuralError("element does not live in the source algebra")
        blocks = self.apply_blocks(
            range(self.target.num_blocks),
            lambda sources: [x.blocks[s] for s in sources])
        return AlgebraElement(self.target, blocks)

    def apply_blocks(
        self,
        indices,
        fetch: Callable[[list[int]], Sequence[np.ndarray]],
    ) -> list[np.ndarray]:
        """The target blocks at ``indices``, in order.

        ``fetch(sources)`` returns the source blocks they are routed from,
        in the order of ``sources``; it is called once, and only for the
        routed ones. A fetched block may be an (m, n, n) stack: the
        conjugation broadcasts over it (an unrouted target stays one block).
        """
        routes = [self.routes[j] for j in indices]
        fetched = iter(fetch([r[0] for r in routes if r is not None]))
        blocks = []
        for j, route in zip(indices, routes):
            if route is None:
                n = self.target.block_sizes[j]
                blocks.append(np.zeros((n, n), dtype=complex))
                continue
            b, u = next(fetched), route[1]
            blocks.append(b if u is None else u @ b @ u.conj().T)
        return blocks

    def section(self, y: AlgebraElement) -> AlgebraElement:
        """A right inverse: conjugate back and fill unrouted blocks with 0."""
        if y.parent != self.target:
            raise StructuralError("element does not live in the target algebra")
        return AlgebraElement(self.source, self.section_blocks(y.blocks))

    def section_blocks(self, blocks: Sequence[np.ndarray]) -> list[np.ndarray]:
        """The source blocks of the section of the target ``blocks``.

        Each block may be an (m, n, n) stack; every source block is then a
        stack of the same height.
        """
        if not self.is_surjective_form:
            raise PreconditionError("section requires a surjective-form map")
        lead = np.shape(blocks[0])[:-2]
        out = [
            np.zeros(lead + (n, n), dtype=complex)
            for n in self.source.block_sizes]
        for j, (s, u) in enumerate(self.routes):
            out[s] = blocks[j] if u is None else u.conj().T @ blocks[j] @ u
        return out

    def compose(self, inner: BlockMap) -> BlockMap:
        """self o inner (inner is applied first)."""
        if inner.target != self.source:
            raise StructuralError("maps do not compose: algebras mismatch")
        routes = []
        for route in self.routes:
            if route is None:
                routes.append(None)
                continue
            s, u = route
            inner_route = inner.routes[s]
            if inner_route is None:
                routes.append(None)
            else:
                s2, u2 = inner_route
                routes.append((s2, _compose_conjugators(u, u2)))
        return BlockMap(inner.source, self.target, tuple(routes))

    def matrix(self) -> np.ndarray:
        """The map as a dense matrix on row-major vectorized elements."""
        src_off = np.cumsum([0] + [n * n for n in self.source.block_sizes])
        tgt_off = np.cumsum([0] + [n * n for n in self.target.block_sizes])
        m = np.zeros((tgt_off[-1], src_off[-1]), dtype=complex)
        for j, route in enumerate(self.routes):
            if route is None:
                continue
            s, u = route
            n = self.target.block_sizes[j]
            # vec_row(U X U*) = (U kron conj(U)) vec_row(X)
            kern = np.eye(n * n, dtype=complex) if u is None else np.kron(
                u, u.conj())
            m[tgt_off[j]:tgt_off[j + 1], src_off[s]:src_off[s + 1]] = kern
        return m


class ConnectingMap(BlockMap):
    """A surjective connecting *-homomorphism of a tower."""

    def __post_init__(self):
        super().__post_init__()
        if not self.is_surjective_form:
            raise StructuralError(
                "connecting maps must route every target block from a "
                "distinct source block")


def identity_map(algebra: BlockAlgebra) -> ConnectingMap:
    routes = tuple((j, None) for j in range(algebra.num_blocks))
    return ConnectingMap(algebra, algebra, routes)


class Tower:
    """A chain of block algebras with surjective connecting maps.

    Levels are 1-based. ``extend_rule``, when present, produces
    (next_algebra, map_from_next_to_current) on demand, so towers may be
    conceptually infinite while only a finite horizon is materialized.
    Materialization is idempotent and guarded by a lock.
    """

    def __init__(
        self,
        levels,
        maps,
        extend_rule: Optional[Callable[[int, BlockAlgebra], tuple[BlockAlgebra, ConnectingMap]]] = None,
        unital: bool = True,
    ):
        levels = list(levels)
        maps = list(maps)
        if not levels:
            raise StructuralError("a tower needs at least one level")
        if len(maps) != len(levels) - 1:
            raise StructuralError(
                f"{len(levels)} levels need {len(levels) - 1} maps, "
                f"got {len(maps)}")
        for k, m in enumerate(maps):
            if m.source != levels[k + 1] or m.target != levels[k]:
                raise StructuralError(
                    f"map {k} does not connect level {k + 2} to level {k + 1}")
            if not m.is_surjective_form:
                raise StructuralError(f"map {k} is not surjective")
        self._levels = levels
        self._maps = maps
        self._extend_rule = extend_rule
        self.unital = unital
        self._lock = threading.Lock()

    @property
    def horizon(self) -> int:
        """Largest level materialized so far."""
        return len(self._levels)

    @property
    def is_lazy(self) -> bool:
        return self._extend_rule is not None

    def ensure(self, p: int):
        if p < 1:
            raise PreconditionError(f"levels are 1-based, got {p}")
        if p <= len(self._levels):
            return
        if self._extend_rule is None:
            raise TruncationError(
                f"level {p} beyond horizon {len(self._levels)} of a finite tower")
        with self._lock:
            while len(self._levels) < p:
                k = len(self._levels)
                alg, cmap = self._extend_rule(k + 1, self._levels[-1])
                if cmap.source != alg or cmap.target != self._levels[-1]:
                    raise StructuralError(
                        f"extension rule produced a bad map at level {k + 1}")
                self._levels.append(alg)
                self._maps.append(cmap)

    def level(self, p: int) -> BlockAlgebra:
        self.ensure(p)
        return self._levels[p - 1]

    def map(self, p: int) -> ConnectingMap:
        """The connecting map from level p+1 down to level p."""
        self.ensure(p + 1)
        return self._maps[p - 1]

    def connecting(self, p: int, q: int) -> BlockMap:
        """Composite map from level q down to level p (p <= q)."""
        if p > q:
            raise PreconditionError(f"need p <= q, got {p} > {q}")
        self.ensure(q)
        out = identity_map(self.level(p))
        for k in range(p, q):
            out = out.compose(self._maps[k - 1])
        return out

    def finite_prefix(self, horizon: int) -> Tower:
        """A finite copy of the first ``horizon`` levels."""
        self.ensure(horizon)
        return Tower(
            self._levels[:horizon], self._maps[:horizon - 1], unital=self.unital)


def make_product_tower(
    block_size_rule: Callable[[int], int] | list[int],
    horizon: int,
    lazy: bool = True,
) -> Tower:
    """Tower whose level k is the direct sum of the first k rule blocks.

    Connecting maps drop the newest block and keep the rest in place with
    identity conjugators. With ``lazy`` the tower keeps growing on demand
    past the initial horizon (only with a callable rule).
    """
    if horizon < 1:
        raise PreconditionError("horizon must be >= 1")
    if callable(block_size_rule):
        rule = block_size_rule
    else:
        table = [int(n) for n in block_size_rule]

        def rule(k: int, _table=table) -> int:
            if k > len(_table):
                raise TruncationError(
                    f"block size table has {len(_table)} entries, level {k} "
                    "requested")
            return _table[k - 1]

        if horizon > len(table):
            raise StructuralError("horizon exceeds the block size table")

    def level_algebra(k: int) -> BlockAlgebra:
        return BlockAlgebra(tuple(rule(i) for i in range(1, k + 1)))

    def drop_last(k: int, prev: BlockAlgebra) -> tuple[BlockAlgebra, ConnectingMap]:
        alg = BlockAlgebra(prev.block_sizes + (rule(k),))
        routes = tuple((j, None) for j in range(prev.num_blocks))
        return alg, ConnectingMap(alg, prev, routes)

    levels = [level_algebra(1)]
    maps = []
    for k in range(2, horizon + 1):
        alg, cmap = drop_last(k, levels[-1])
        levels.append(alg)
        maps.append(cmap)
    extend = drop_last if (lazy and callable(block_size_rule)) else None
    return Tower(levels, maps, extend_rule=extend)


@dataclass(frozen=True)
class Certificates:
    """Analytic facts about a coherent element, one immutable value.

    No finite truncation could establish them: a uniform norm bound and a
    spectral radius bound, each with its reason, self-adjointness and
    unitarity. ``norm()`` and ``spectral()`` turn them into a bound.
    """

    norm_bound: float | None = None
    norm_reason: str | None = None
    spectral_bound: float | None = None
    spectral_reason: str | None = None
    selfadjoint: bool = False
    unitary: bool = False

    @classmethod
    def of(cls, **fields) -> Certificates:
        """The value from keyword fields; an unknown key is named."""
        for key in fields:
            if key not in cls.__dataclass_fields__:
                raise StructuralError(f"unknown certificate field {key!r}")
        return cls(**fields)

    @classmethod
    def bounded(cls, bound: float | None, reason: str | None,
                **flags) -> Certificates:
        """Certificates whose norm and spectral bounds are one bound."""
        return cls.of(
            norm_bound=bound, norm_reason=reason,
            spectral_bound=bound, spectral_reason=reason, **flags)

    def norm(self) -> tuple[float, str] | None:
        """The certified uniform norm bound and its reason, if any."""
        if self.norm_bound is not None:
            return self.norm_bound, self.norm_reason or "declared norm bound"
        return (1.0, "unitary element") if self.unitary else None

    def spectral(self) -> tuple[float, str] | None:
        """The certified spectral radius bound and its reason, if any."""
        if self.spectral_bound is not None:
            return (self.spectral_bound,
                    self.spectral_reason or "declared spectral bound")
        return (1.0, "unitary element") if self.unitary else None


class CoherentElement:
    """A compatible family of per-level elements of a tower.

    Levels come either from an explicit list or from a generator rule,
    and live in one level store. An explicit list seeds the store and is
    the element's top level; a generator's top level is the tower's,
    none on a lazy tower, unless the element is derived from others (by
    arithmetic, ``lift_function`` or ``exp_selfadjoint``) and stops at
    their top. A generator is a pure function
    ``gen(p, indices)`` that returns the blocks of level p at the given
    0-based block indices, in order, and builds nothing else:
    ``materialize(p)`` asks it for every block of level p, while
    ``level_blocks`` asks only for the blocks a caller needs, such as the
    blocks born at level p, which ``newborn_blocks`` walks.
    ``certificates`` is one immutable
    ``Certificates`` value; ``with_certificates`` makes a copy with
    another. ``a + b``, ``a - b``, ``a * b``, ``c * a`` and
    ``a.adjoint()`` build elements blockwise, without certificates.
    """

    def __init__(
        self,
        tower: Tower,
        levels=None,
        generator: Optional[
            Callable[[int, list[int]], Sequence[np.ndarray]]] = None,
        certificates: Certificates = Certificates(),
    ):
        if (levels is None) == (generator is None):
            raise StructuralError(
                "exactly one of explicit levels or a generator is required")
        self.tower = tower
        self._certificates = certificates
        self._generator = generator
        self._cache: dict[int, AlgebraElement] = {}
        self._top = None if tower.is_lazy else tower.horizon
        self._lock = threading.Lock()
        if levels is not None:
            self._cache = dict(enumerate(levels, start=1))
            self._top = len(self._cache)
            if not self._cache:
                raise StructuralError(
                    "an explicit family needs at least one level")
            for p, x in self._cache.items():
                if x.parent != tower.level(p):
                    raise StructuralError(
                        f"explicit level {p} lives in the wrong algebra")

    @property
    def certificates(self) -> Certificates:
        return self._certificates

    def _stored(self, p: int) -> AlgebraElement | None:
        """Level p when it is already stored, else None."""
        if p < 1:
            raise PreconditionError(f"levels are 1-based, got {p}")
        if self._top is not None and p > self._top:
            raise TruncationError(f"level {p} beyond top level {self._top}")
        return self._cache.get(p)

    def _generate(self, p: int, indices) -> list[np.ndarray]:
        indices = list(indices)
        sizes = self.tower.level(p).block_sizes
        blocks = self._generator(p, indices)
        if len(blocks) != len(indices):
            raise StructuralError(
                f"generator returned {len(blocks)} blocks of level {p} for "
                f"{len(indices)} requested")
        out = []
        for i, b in zip(indices, blocks):
            b = np.asarray(b, dtype=complex)
            if b.shape != (sizes[i], sizes[i]):
                raise StructuralError(
                    f"generator produced level {p} block {i} with shape "
                    f"{b.shape}, expected ({sizes[i]}, {sizes[i]})")
            out.append(b)
        return out

    def materialize(self, p: int) -> AlgebraElement:
        """Level p of the family; a level past the top level errors."""
        x = self._stored(p)
        if x is None:
            alg = self.tower.level(p)
            x = AlgebraElement(alg, self._generate(p, range(alg.num_blocks)))
            with self._lock:
                x = self._cache.setdefault(p, x)
        return x

    def level_blocks(self, p: int, indices) -> Sequence[np.ndarray]:
        """The blocks of level p at the given indices, in order.

        A stored level answers directly; otherwise the generator
        builds only these blocks, and nothing is cached.
        """
        x = self._stored(p)
        if x is None:
            return self._generate(p, indices)
        return [x.blocks[i] for i in indices]

    def with_certificates(self, **updates) -> CoherentElement:
        """Copy with certificate fields replaced, sharing the level store."""
        out = copy.copy(self)
        fields = vars(self.certificates) | updates
        out._certificates = Certificates.of(**fields)
        return out

    def max_level(self, horizon: int) -> int:
        """Largest level <= horizon this element can produce."""
        return horizon if self._top is None else min(horizon, self._top)

    def newborn_blocks(
        self, horizon: int
    ) -> Iterator[tuple[int, list[int], Sequence[np.ndarray]]]:
        """Walk levels 1..horizon yielding only the blocks born at each one.

        Connecting maps delete blocks and conjugate the survivors by
        unitaries, so a coherent family is fixed by the blocks each level
        adds: a block routed up the chain is a conjugate of one already
        seen, and keeps its norm and its eigenvalues. Every block of a
        level is born at that level or carried up from the one below, so
        the blocks seen up to level p are exactly those of level p. Yields
        (level, newborn indices, their blocks).
        """
        t = self.tower
        for p in range(1, horizon + 1):
            inherited = {route[0] for route in t.map(p - 1).routes} if p > 1 else ()
            fresh = [i for i in range(t.level(p).num_blocks) if i not in inherited]
            # levels without newborn blocks need no data at all
            yield p, fresh, self.level_blocks(p, fresh) if fresh else []

    def _derive(
        self, generator, certificates: Certificates = Certificates()
    ) -> CoherentElement:
        """A generator element on this tower that stops at this top level."""
        out = CoherentElement(
            self.tower, generator=generator, certificates=certificates)
        out._top = self._top
        return out

    def _blockwise(self, op, *others: CoherentElement) -> CoherentElement:
        """The element whose level-p blocks are ``op`` of the operands'
        ``level_blocks``, up to the lowest operand top, without certificates.
        """
        operands = (self, *others)
        if any(o.tower is not self.tower for o in others):
            raise StructuralError("operands live on different towers")
        out = CoherentElement(self.tower, generator=lambda p, indices: [
            op(*bs) for bs in zip(*(o.level_blocks(p, indices) for o in operands))])
        out._top = min((o._top for o in operands if o._top is not None),
                       default=None)
        return out

    def __add__(self, other: CoherentElement) -> CoherentElement:
        return self._blockwise(lambda a, b: a + b, other)

    def __sub__(self, other: CoherentElement) -> CoherentElement:
        return self._blockwise(lambda a, b: a - b, other)

    def __mul__(self, other) -> CoherentElement:
        if isinstance(other, CoherentElement):
            return self._blockwise(lambda a, b: a @ b, other)
        return self.__rmul__(other)

    def __rmul__(self, scalar) -> CoherentElement:
        return self._blockwise(lambda a, c=complex(scalar): c * a)

    def adjoint(self) -> CoherentElement:
        return self._blockwise(lambda a: a.conj().T)


def project(e: CoherentElement, p: int) -> AlgebraElement:
    """The level-p component of a coherent family."""
    return e.materialize(p)


def coherent_from_top(
    tower: Tower, top: AlgebraElement, top_level: int | None = None, **certificates
) -> CoherentElement:
    """Coherent family obtained by pushing one element down the chain.

    The result is exactly coherent (up to rounding in the conjugations)
    because lower levels are defined as images of the top one.
    """
    q = top_level if top_level is not None else tower.horizon
    if top.parent != tower.level(q):
        raise StructuralError("top element does not live at the stated level")
    levels = [None] * q
    levels[q - 1] = top
    for p in range(q - 1, 0, -1):
        levels[p - 1] = tower.map(p).apply(levels[p])
    return CoherentElement(
        tower, levels=levels, certificates=Certificates.of(**certificates))


def scalar_element(tower: Tower, lam: complex) -> CoherentElement:
    """The constant family lam * identity with its scalar certificates."""
    lam = complex(lam)

    def gen(p: int, indices: list[int]) -> list[np.ndarray]:
        sizes = tower.level(p).block_sizes
        return [lam * np.eye(sizes[i], dtype=complex) for i in indices]

    return CoherentElement(tower, generator=gen, certificates=Certificates.bounded(
        abs(lam), "scalar multiple of the identity",
        selfadjoint=(lam.imag == 0.0),
        unitary=(abs(abs(lam) - 1.0) < 1e-15)))


def _superdiagonal(n: int) -> np.ndarray:
    b = np.zeros((n, n), dtype=complex)
    idx = np.arange(n - 1)
    b[idx, idx + 1] = idx + 1
    return b


def shift_element(tower: Tower) -> CoherentElement:
    """The weighted-shift family: block of size n gets superdiagonal 1..n-1.

    Every level is strictly upper triangular, hence nilpotent, which
    certifies spectral radius 0 at all levels; no uniform norm bound is
    declared (and none exists on the full matrix-product tower).
    """

    def gen(p: int, indices: list[int]) -> list[np.ndarray]:
        sizes = tower.level(p).block_sizes
        return [_superdiagonal(sizes[i]) for i in indices]

    return CoherentElement(tower, generator=gen, certificates=Certificates(
        spectral_bound=0.0,
        spectral_reason="strictly upper triangular at every level"))


def diag_sequence_element(
    tower: Tower,
    values,
    norm_bound: float | None = None,
    norm_reason: str | None = None,
) -> CoherentElement:
    """Element of a commutative tower with the k-th block carrying values[k].

    ``values`` is a callable on 1-based block positions or a finite table.
    A declared sup bound may be attached when the caller knows one.
    """
    if callable(values):
        value_at = values
    else:
        table = [complex(v) for v in values]

        def value_at(k: int, _table=table) -> complex:
            if k > len(_table):
                raise TruncationError(
                    f"value table has {len(_table)} entries, block {k} requested")
            return _table[k - 1]

    def gen(p: int, indices: list[int]) -> list[np.ndarray]:
        if not tower.level(p).is_commutative:
            raise PreconditionError("diag sequences need a commutative tower")
        return [np.full((1, 1), complex(value_at(i + 1))) for i in indices]

    sa = None
    if not callable(values):
        sa = all(v.imag == 0.0 for v in table)
    return CoherentElement(tower, generator=gen, certificates=Certificates.bounded(
        norm_bound, norm_reason, selfadjoint=bool(sa)))


@dataclass(frozen=True)
class CoherenceReport:
    """Per-level residuals r_p = ||map(a_{p+1}) - a_p||."""

    residuals: tuple[float, ...]
    scales: tuple[float, ...]
    tol: float

    @property
    def passed(self) -> bool:
        return all(
            r <= self.tol * max(1.0, s)
            for r, s in zip(self.residuals, self.scales))

    @property
    def worst(self) -> float:
        return max(self.residuals, default=0.0)


def check_coherence(e: CoherentElement, up_to: int) -> CoherenceReport:
    """Measure coherence of consecutive levels up to the given level."""
    if up_to < 2:
        raise PreconditionError("coherence needs at least two levels")
    residuals = []
    scales = []
    upper = e.materialize(1)
    for p in range(1, up_to):
        lower, upper = upper, e.materialize(p + 1)
        pushed = e.tower.map(p).apply(upper)
        residuals.append(distance(pushed, lower))
        scales.append(cstar_norm(upper))
    return CoherenceReport(
        tuple(residuals), tuple(scales), DEFAULT_COHERENCE_TOL)


# ---------------------------------------------------------------------------
# tower homomorphisms
# ---------------------------------------------------------------------------

class TowerHomomorphism:
    """A levelwise *-homomorphism between towers.

    ``level_maps`` assigns to each target level p a BlockMap from source
    level ``level_index(p)`` (identity reindexing by default). Naturality
    with both chains of connecting maps is what makes the levelwise data a
    morphism of the limits; ``verify_naturality`` measures it on probes.
    The continuity flag records that every levelwise map in this finite
    model is automatically continuous.
    """

    def __init__(
        self,
        source: Tower,
        target: Tower,
        level_maps: Callable[[int], BlockMap] | list[BlockMap],
        level_index: Callable[[int], int] | None = None,
        continuous: bool = True,
    ):
        self.source = source
        self.target = target
        self._maps = level_maps
        self.level_index = level_index or (lambda p: p)
        self.continuous = continuous

    def level_map(self, p: int) -> BlockMap:
        m = self._maps(p) if callable(self._maps) else self._maps[p - 1]
        src_level = self.level_index(p)
        if m.source != self.source.level(src_level):
            raise StructuralError(
                f"level {p} map has wrong source (expected level {src_level})")
        if m.target != self.target.level(p):
            raise StructuralError(f"level {p} map has wrong target")
        return m

    def max_level(self, horizon: int) -> int:
        if callable(self._maps):
            return horizon
        return min(horizon, len(self._maps))

    def is_levelwise_surjective(self, up_to: int) -> bool:
        return all(
            self.level_map(p).is_surjective_form for p in range(1, up_to + 1))

    def apply(self, e: CoherentElement, **certificates) -> CoherentElement:
        if e.tower is not self.source:
            raise StructuralError("element does not live in the source tower")

        def gen(p: int, indices: list[int]) -> list[np.ndarray]:
            q = self.level_index(p)
            return self.level_map(p).apply_blocks(
                indices, lambda sources: e.level_blocks(q, sources))

        return CoherentElement(
            self.target, generator=gen,
            certificates=Certificates.of(**certificates))

    def compose(self, inner: TowerHomomorphism) -> TowerHomomorphism:
        """self o inner."""
        if inner.target is not self.source:
            raise StructuralError("homomorphisms do not compose")

        def maps(p: int) -> BlockMap:
            outer = self.level_map(p)
            return outer.compose(inner.level_map(self.level_index(p)))

        return TowerHomomorphism(
            inner.source,
            self.target,
            maps,
            level_index=lambda p: inner.level_index(self.level_index(p)),
            continuous=self.continuous and inner.continuous,
        )

    def verify_naturality(self, up_to: int, rng, probes: int = 50, tol: float = 1e-12):
        """Max residual of the naturality squares on random probes."""
        from .randomness import random_element

        worst = 0.0
        for p in range(1, up_to):
            down_then_map = self.level_map(p)
            src_q = self.source.level(self.level_index(p + 1))
            for _ in range(max(1, probes // max(1, up_to - 1))):
                x = random_element(src_q, rng)
                via_target = self.target.map(p).apply(self.level_map(p + 1).apply(x))
                via_source = down_then_map.apply(
                    self.source.connecting(
                        self.level_index(p), self.level_index(p + 1)).apply(x))
                worst = max(worst, distance(via_target, via_source))
        return worst


def identity_homomorphism(tower: Tower) -> TowerHomomorphism:
    return TowerHomomorphism(
        tower, tower, lambda p: identity_map(tower.level(p)))


# ---------------------------------------------------------------------------
# closed ideals from block selectors
# ---------------------------------------------------------------------------

@dataclass
class IdealDecomposition:
    """A closed *-ideal cut out by block selection, with its quotient.

    ``inclusion`` embeds the ideal tower into the ambient one (selected
    blocks in place, zeros elsewhere); ``quotient_map`` projects onto the
    unselected blocks. The two compose to zero and are exact by
    construction. A zero side (empty or full selection) is represented by
    None, because the zero algebra has no block presentation.
    """

    tower: Tower
    selectors: tuple[frozenset[int], ...]
    ideal: Optional[Tower]
    quotient: Optional[Tower]
    inclusion: Optional[TowerHomomorphism]
    quotient_map: Optional[TowerHomomorphism]


def _sub_algebra(alg: BlockAlgebra, indices: list[int]) -> BlockAlgebra:
    if not indices:
        # The zero algebra has no block presentation here; a 1x1 block of
        # zeros would be wrong (it is unital). Callers reject empty sides.
        raise StructuralError("empty block selection has no algebra")
    return BlockAlgebra(tuple(alg.block_sizes[i] for i in indices))


def closed_ideal(tower: Tower, block_selector) -> IdealDecomposition:
    """Split a finite tower along a coherent per-level block selection.

    ``block_selector`` lists, for each level in order, the set of 0-based
    block indices spanning the ideal. Coherence demands that connecting
    maps route selected blocks to selected blocks and unselected ones to
    unselected ones; the first offending level is reported otherwise.
    """
    horizon = tower.horizon
    selectors = [frozenset(s) for s in block_selector]
    if len(selectors) != horizon:
        raise StructuralError(
            f"selector covers {len(selectors)} levels, tower has {horizon}")
    for p, sel in enumerate(selectors, start=1):
        nb = tower.level(p).num_blocks
        if any(not 0 <= i < nb for i in sel):
            raise StructuralError(f"selector at level {p} names a missing block")
    for p in range(1, horizon):
        cmap = tower.map(p)
        for j, route in enumerate(cmap.routes):
            s, _ = route
            if (j in selectors[p - 1]) != (s in selectors[p]):
                raise StructuralError(
                    f"selector is incoherent at level {p}: target block {j} "
                    f"and source block {s} disagree")

    if all(not sel for sel in selectors):
        return IdealDecomposition(
            tower=tower,
            selectors=tuple(selectors),
            ideal=None,
            quotient=tower,
            inclusion=None,
            quotient_map=identity_homomorphism(tower),
        )
    if all(
        len(sel) == tower.level(p).num_blocks
        for p, sel in enumerate(selectors, start=1)
    ):
        return IdealDecomposition(
            tower=tower,
            selectors=tuple(selectors),
            ideal=tower,
            quotient=None,
            inclusion=identity_homomorphism(tower),
            quotient_map=None,
        )
    for p, sel in enumerate(selectors, start=1):
        nb = tower.level(p).num_blocks
        if not sel or len(sel) == nb:
            raise StructuralError(
                f"level {p} leaves one side of the split empty; re-chain the "
                "tower so every level meets both the ideal and the quotient")

    def split_level(p: int, selected: bool) -> tuple[BlockAlgebra, list[int]]:
        sel = selectors[p - 1]
        idx = [
            i for i in range(tower.level(p).num_blocks)
            if (i in sel) == selected]
        return _sub_algebra(tower.level(p), idx), idx

    def sub_tower(selected: bool) -> tuple[Tower, list[list[int]]]:
        algs = []
        positions = []
        for p in range(1, horizon + 1):
            alg, idx = split_level(p, selected)
            algs.append(alg)
            positions.append(idx)
        maps = []
        for p in range(1, horizon):
            cmap = tower.map(p)
            routes = []
            for slot, j in enumerate(positions[p - 1]):
                s, u = cmap.routes[j]
                routes.append((positions[p].index(s), u))
            maps.append(ConnectingMap(algs[p], algs[p - 1], tuple(routes)))
        return Tower(algs, maps, unital=not selected), positions

    ideal_tower, ideal_pos = sub_tower(True)
    quot_tower, quot_pos = sub_tower(False)

    def inclusion_map(p: int) -> BlockMap:
        alg = tower.level(p)
        routes: list[Optional[tuple[int, np.ndarray]]] = [None] * alg.num_blocks
        for slot, i in enumerate(ideal_pos[p - 1]):
            routes[i] = (slot, None)
        return BlockMap(ideal_tower.level(p), alg, tuple(routes))

    def quotient_level_map(p: int) -> BlockMap:
        alg = tower.level(p)
        routes = tuple((i, None) for i in quot_pos[p - 1])
        return BlockMap(alg, quot_tower.level(p), routes)

    return IdealDecomposition(
        tower=tower,
        selectors=tuple(selectors),
        ideal=ideal_tower,
        quotient=quot_tower,
        inclusion=TowerHomomorphism(ideal_tower, tower, inclusion_map),
        quotient_map=TowerHomomorphism(tower, quot_tower, quotient_level_map),
    )
