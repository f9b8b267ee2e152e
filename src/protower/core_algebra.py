"""Finite-dimensional block C*-algebra kernel.

An algebra here is a direct sum of full complex matrix blocks; an element
is the corresponding tuple of dense complex matrices. This module provides
operator norms, spectra, adjoints and continuous functional calculus at a
single level. Everything is immutable and every operation is pure, so all
of it is safe for concurrent use without synchronization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AlgebraError",
    "PreconditionError",
    "DomainError",
    "StructuralError",
    "TruncationError",
    "EigensolverError",
    "BranchError",
    "BlockAlgebra",
    "AlgebraElement",
    "FunctionDescriptor",
    "Polynomial",
    "RationalSquash",
    "PrincipalArg",
    "ExpI",
    "Tabulated",
    "cstar_norm",
    "spectrum",
    "spectral_radius",
    "is_normal",
    "is_selfadjoint",
    "apply_function",
    "adjoin_unit_element",
    "distance",
    "cluster_points",
    "hausdorff_distance",
    "one_sided_hausdorff",
    "ray_distance",
]

DEFAULT_NORMALITY_TOL = 1e-10
DEFAULT_CLUSTER_TOL = 1e-8


class AlgebraError(Exception):
    """Base class for all errors raised by this package."""


class PreconditionError(AlgebraError):
    """An operation was called on inputs that violate its contract."""


class DomainError(AlgebraError):
    """A function was applied at a point where it is not defined."""


class StructuralError(AlgebraError):
    """Shapes, block assignments or references do not fit together."""


class TruncationError(AlgebraError):
    """A level beyond the materialized horizon was requested."""


class EigensolverError(AlgebraError):
    """The eigensolver failed to converge; the message names the block."""


class BranchError(DomainError):
    """An eigenvalue sits too close to the chosen branch ray."""


# ---------------------------------------------------------------------------
# algebras and elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockAlgebra:
    """A unital C*-algebra given as a direct sum of full matrix blocks."""

    block_sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.block_sizes)
        if not sizes:
            raise StructuralError("an algebra needs at least one block")
        if any(n < 1 for n in sizes):
            raise StructuralError(f"block sizes must be >= 1, got {sizes}")
        object.__setattr__(self, "block_sizes", sizes)

    @property
    def num_blocks(self) -> int:
        return len(self.block_sizes)

    @property
    def dim(self) -> int:
        return sum(n * n for n in self.block_sizes)

    @property
    def is_commutative(self) -> bool:
        return all(n == 1 for n in self.block_sizes)

    def element(self, blocks) -> AlgebraElement:
        """Build an element from per-block matrices, validating shapes."""
        blocks = tuple(np.asarray(b, dtype=complex) for b in blocks)
        if len(blocks) != self.num_blocks:
            raise StructuralError(
                f"expected {self.num_blocks} blocks, got {len(blocks)}")
        for i, (b, n) in enumerate(zip(blocks, self.block_sizes)):
            if b.shape != (n, n):
                raise StructuralError(
                    f"block {i} has shape {b.shape}, expected ({n}, {n})")
        return AlgebraElement(self, blocks)

    def identity(self) -> AlgebraElement:
        return AlgebraElement(
            self, tuple(np.eye(n, dtype=complex) for n in self.block_sizes))

    def zero(self) -> AlgebraElement:
        return AlgebraElement(
            self, tuple(np.zeros((n, n), dtype=complex) for n in self.block_sizes))

    def scalar(self, lam: complex) -> AlgebraElement:
        return complex(lam) * self.identity()

    def diagonal(self, values) -> AlgebraElement:
        """Element of a commutative algebra from a flat list of values."""
        if not self.is_commutative:
            raise PreconditionError("diagonal() requires an all-1x1 algebra")
        values = [complex(v) for v in values]
        if len(values) != self.num_blocks:
            raise StructuralError(
                f"expected {self.num_blocks} values, got {len(values)}")
        return AlgebraElement(
            self, tuple(np.array([[v]], dtype=complex) for v in values))


class AlgebraElement:
    """A block-diagonal complex matrix, immutable after construction."""

    __slots__ = ("parent", "blocks")

    def __init__(self, parent: BlockAlgebra, blocks):
        frozen = []
        for b in blocks:
            # already-frozen arrays are safe to share: nobody can write them
            if (isinstance(b, np.ndarray) and b.dtype == np.complex128
                    and not b.flags.writeable):
                frozen.append(b)
                continue
            b = np.array(b, dtype=complex, copy=True)
            b.setflags(write=False)
            frozen.append(b)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "blocks", tuple(frozen))

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    def _check_parent(self, other: AlgebraElement):
        if self.parent != other.parent:
            raise StructuralError(
                f"elements of different algebras: {self.parent.block_sizes} "
                f"vs {other.parent.block_sizes}")

    def __add__(self, other: AlgebraElement) -> AlgebraElement:
        self._check_parent(other)
        return AlgebraElement(
            self.parent, tuple(a + b for a, b in zip(self.blocks, other.blocks)))

    def __sub__(self, other: AlgebraElement) -> AlgebraElement:
        self._check_parent(other)
        return AlgebraElement(
            self.parent, tuple(a - b for a, b in zip(self.blocks, other.blocks)))

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check_parent(other)
            return AlgebraElement(
                self.parent, tuple(a @ b for a, b in zip(self.blocks, other.blocks)))
        return AlgebraElement(
            self.parent, tuple(complex(other) * a for a in self.blocks))

    def __rmul__(self, scalar) -> AlgebraElement:
        return AlgebraElement(
            self.parent, tuple(complex(scalar) * a for a in self.blocks))

    def __neg__(self) -> AlgebraElement:
        return (-1.0) * self

    def adjoint(self) -> AlgebraElement:
        return AlgebraElement(
            self.parent, tuple(a.conj().T for a in self.blocks))

    def __repr__(self):
        return f"AlgebraElement(blocks={self.parent.block_sizes})"


def distance(x: AlgebraElement, y: AlgebraElement) -> float:
    """Operator-norm distance between two elements of the same algebra."""
    return cstar_norm(x - y)


# ---------------------------------------------------------------------------
# norms and spectra
# ---------------------------------------------------------------------------

def _block_norms(stack: np.ndarray) -> np.ndarray:
    """Operator norms of an (m, n, n) stack of blocks, one per block.

    1x1 entries take scalar ``abs``, which is not bitwise the array
    ``np.abs``; an all-zero stack needs no LAPACK call; any other stack
    makes one batched SVD, whose rows equal the per-block calls bitwise.
    If it fails, the blocks go one at a time so the error names the block.
    """
    m, n = stack.shape[0], stack.shape[-1]
    if n == 1:
        return np.fromiter(map(abs, stack.reshape(m)), float, m)
    if not np.count_nonzero(stack):
        return np.zeros(m)
    try:
        return np.linalg.svd(stack, compute_uv=False)[:, 0]
    except np.linalg.LinAlgError as exc:
        for k in range(m):
            try:
                np.linalg.svd(stack[k], compute_uv=False)
            except np.linalg.LinAlgError as one:
                raise EigensolverError(
                    f"SVD failed on a {n}x{n} block, block {k} of a stack "
                    f"of {m}: {one}") from one
        raise EigensolverError(
            f"SVD failed on a stack of {m} {n}x{n} blocks: {exc}") from exc


def _block_norm(b: np.ndarray) -> float:
    return float(_block_norms(b[None])[0])


def _batched(kernel, stack: np.ndarray, rows, m: int, what):
    """``kernel`` on ``stack``, rows ``rows`` of an (m, n, n) stack, in one
    batched LAPACK call.

    Its rows equal the per-slice calls bitwise. If it fails, the slices go
    one at a time, so that the EigensolverError names the first failing
    slice; ``what()`` names the block.
    """
    try:
        return kernel(stack)
    except np.linalg.LinAlgError as exc:
        for k, row in enumerate(rows):
            try:
                kernel(stack[k])
            except np.linalg.LinAlgError as one:
                raise EigensolverError(f"{what()}{_slice(row, m)}: {one}") from one
        raise EigensolverError(f"{what()}: {exc}") from exc


def _slice(k: int, m: int) -> str:
    return "" if m == 1 else f", slice {k} of a stack of {m}"


def cstar_norm(x: AlgebraElement) -> float:
    """Operator norm: the largest singular value over all blocks."""
    return max(_block_norm(b) for b in x.blocks)


def _is_triangular(b: np.ndarray) -> bool:
    """Whether a block of size >= 2 is exactly upper or lower triangular.

    Reads the block once, through a float view of its real and imaginary
    parts, instead of copying a triangle of it: the first (last) nonzero
    column of every nonempty row must lie on or right (left) of the
    diagonal.
    """
    if b[1, 0] != 0 and b[0, 1] != 0:
        return False
    n = b.shape[0]
    nonzero = np.ascontiguousarray(b, dtype=complex).view(np.float64) != 0
    rows = np.arange(n)
    empty = ~nonzero.any(axis=1)
    if np.all(empty | (nonzero.argmax(axis=1) // 2 >= rows)):
        return True
    last = n - 1 - nonzero[:, ::-1].argmax(axis=1) // 2
    return bool(np.all(empty | (last <= rows)))


def _eigenvalue_stack(stack: np.ndarray, block_index: int) -> np.ndarray:
    """Eigenvalues of each slice of an (m, n, n) stack, one row per slice.

    A 1x1 slice is its entry. An exactly triangular slice carries its
    eigenvalues on the diagonal; reading them off avoids eigensolver noise
    on nilpotent input. The other slices make one batched call.
    """
    m, n = stack.shape[0], stack.shape[-1]
    if n == 1:
        return stack.reshape(m, 1).copy()
    general = [k for k in range(m) if not _is_triangular(stack[k])]
    if not general:
        return stack.diagonal(0, 1, 2).copy()

    def what():
        return f"eigenvalue iteration failed to converge on block {block_index} (size {n})"

    if len(general) == m:
        return _batched(np.linalg.eigvals, stack, general, m, what)
    out = stack.diagonal(0, 1, 2).copy()
    out[general] = _batched(np.linalg.eigvals, stack[general], general, m, what)
    return out


def _block_eigenvalues(b: np.ndarray, block_index: int) -> np.ndarray:
    """Eigenvalues of one block: the height-1 case of _eigenvalue_stack."""
    return _eigenvalue_stack(b[None], block_index)[0]


def cluster_points(points, tol: float) -> np.ndarray:
    """Collapse complex points closer than ``tol`` to their centroids.

    Merging is single-linkage: chains of nearby points fall into one
    cluster, whose centroid is the multiplicity-weighted mean. Exact
    duplicates are collapsed up front and linkage only compares points
    whose real parts are within tol, so big unions over towers stay cheap.
    Output is sorted by (real, imag) and deterministic.
    """
    pts = np.asarray(list(points), dtype=complex)
    if pts.size == 0:
        return pts
    uniq, counts = np.unique(pts, return_counts=True)
    order = np.lexsort((uniq.imag, uniq.real))
    uniq, counts = uniq[order], counts[order]
    m = len(uniq)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    start = 0
    for i in range(m):
        while uniq[i].real - uniq[start].real > tol:
            start += 1
        for j in range(start, i):
            if abs(uniq[i] - uniq[j]) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    sums: dict[int, complex] = {}
    weights: dict[int, int] = {}
    for i in range(m):
        r = find(i)
        sums[r] = sums.get(r, 0.0) + uniq[i] * counts[i]
        weights[r] = weights.get(r, 0) + counts[i]
    centroids = np.array(
        [sums[r] / weights[r] for r in sums], dtype=complex)
    order = np.lexsort((centroids.imag, centroids.real))
    return centroids[order]


def spectrum(x: AlgebraElement, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> np.ndarray:
    """Eigenvalues of all blocks, merged and clustered.

    Returns the distinct cluster centroids sorted by (real, imag); points
    closer than ``cluster_tol`` are collapsed.
    """
    if cluster_tol <= 0:
        raise PreconditionError("cluster_tol must be positive")
    pts = np.concatenate(
        [_block_eigenvalues(b, i) for i, b in enumerate(x.blocks)])
    return cluster_points(pts, cluster_tol)


def spectral_radius(x: AlgebraElement) -> float:
    """Largest eigenvalue modulus over all blocks (no clustering)."""
    return max(
        float(np.abs(_block_eigenvalues(b, i)).max())
        for i, b in enumerate(x.blocks))


def is_normal(x: AlgebraElement, tol: float = DEFAULT_NORMALITY_TOL) -> bool:
    """Whether x commutes with its adjoint, relative to norm(x) squared."""
    return _are_normal(_stacked([x]), tol)[0]


def is_selfadjoint(x: AlgebraElement, tol: float = DEFAULT_NORMALITY_TOL) -> bool:
    gap = distance(x, x.adjoint())  # an exact match needs no norm
    return gap == 0.0 or gap <= tol * max(1.0, cstar_norm(x))


def adjoin_unit_element(x: AlgebraElement, lam: complex) -> AlgebraElement:
    """The pair (x, lam) in the unitization, realized concretely.

    The extended algebra appends one 1x1 block; (x, lam) acts as
    x + lam * 1 on the original blocks and as lam on the new block, so its
    spectrum is sp(x + lam) together with lam.
    """
    lam = complex(lam)
    parent = BlockAlgebra(x.parent.block_sizes + (1,))
    blocks = [b + lam * np.eye(b.shape[0]) for b in x.blocks]
    blocks.append(np.array([[lam]], dtype=complex))
    return AlgebraElement(parent, blocks)


# ---------------------------------------------------------------------------
# stacks: many elements of one algebra at once
# ---------------------------------------------------------------------------
# A stack list holds one (m, n, n) array per block position, whose row k
# is that block of element k. Each function below is the stack form of the
# element function named in its docstring, and its rows equal the
# per-element calls bitwise. is_normal is the height-1 case of its form.

def _stacked(elements) -> list[np.ndarray]:
    """The blocks of elements of one algebra, stacked by block position.

    One element gives views of its blocks, which keep their layout.
    """
    if len(elements) == 1:
        return [b[None] for b in elements[0].blocks]
    return [np.stack(blocks) for blocks in zip(*(x.blocks for x in elements))]


def _adjoint_stack(stack: np.ndarray) -> np.ndarray:
    """Adjoints of the stacked blocks, laid out as AlgebraElement.adjoint stores them."""
    return np.array(stack.conj().swapaxes(-1, -2), copy=True)


def _stack_norms(stacks: list[np.ndarray]) -> np.ndarray:
    """cstar_norm of each element: its largest block norm."""
    return np.max([_block_norms(stack) for stack in stacks], axis=0)


def _stack_distances(xs: list[np.ndarray], ys: list[np.ndarray]) -> np.ndarray:
    """distance of each pair of elements."""
    return _stack_norms([x - y for x, y in zip(xs, ys)])


def _spectral_radii(stacks: list[np.ndarray]) -> np.ndarray:
    """spectral_radius of each element."""
    return np.max([
        np.abs(_eigenvalue_stack(stack, i)).max(axis=1)
        for i, stack in enumerate(stacks)], axis=0)


def _spectra(stacks: list[np.ndarray], cluster_tol: float) -> list[np.ndarray]:
    """spectrum of each element."""
    if cluster_tol <= 0:
        raise PreconditionError("cluster_tol must be positive")
    eigs = [_eigenvalue_stack(stack, i) for i, stack in enumerate(stacks)]
    return [
        cluster_points(np.concatenate([e[k] for e in eigs]), cluster_tol)
        for k in range(stacks[0].shape[0])]


def _are_normal(stacks: list[np.ndarray], tol: float) -> list[bool]:
    """is_normal of each element."""
    if tol <= 0:
        raise PreconditionError("tol must be positive")
    adjoints = [_adjoint_stack(stack) for stack in stacks]
    comm = _stack_norms([a @ x - x @ a for x, a in zip(stacks, adjoints)])
    return [c <= tol * max(1.0, n ** 2)
            for c, n in zip(comm.tolist(), _stack_norms(stacks).tolist())]


# ---------------------------------------------------------------------------
# set distances used by spectral tests and reports
# ---------------------------------------------------------------------------

def one_sided_hausdorff(a, b) -> float:
    """sup over a of the distance to b (0.0 when a is empty)."""
    a = np.asarray(list(a), dtype=complex)
    b = np.asarray(list(b), dtype=complex)
    if a.size == 0:
        return 0.0
    if b.size == 0:
        return math.inf
    return float(np.abs(a[:, None] - b[None, :]).min(axis=1).max())


def hausdorff_distance(a, b) -> float:
    return max(one_sided_hausdorff(a, b), one_sided_hausdorff(b, a))


def ray_distance(z: complex, angle: float) -> float:
    """Euclidean distance from z to the closed ray {r*e^(i*angle) : r >= 0}."""
    z = complex(z)
    if z == 0:
        return 0.0
    delta = (math.atan2(z.imag, z.real) - angle) % (2 * math.pi)
    if delta > math.pi:
        delta -= 2 * math.pi
    if abs(delta) >= math.pi / 2:
        return abs(z)
    return abs(z) * abs(math.sin(delta))


# ---------------------------------------------------------------------------
# function descriptors
# ---------------------------------------------------------------------------

class FunctionDescriptor:
    """A scalar function that can be applied to algebra elements.

    ``analytic`` descriptors (plain polynomials in z, the rational squash
    family) may be applied to arbitrary elements through matrix
    arithmetic; everything else requires a normal element and goes through
    unitary diagonalization.
    """

    analytic = False

    def __call__(self, z):
        raise NotImplementedError

    def check_domain(self, points: np.ndarray, tol: float):
        """Raise DomainError if the function is undefined near a point."""

    def apply_matrix(self, block: np.ndarray) -> np.ndarray:
        raise PreconditionError(f"{self!r} cannot act on non-normal input")

    def fixes_zero(self, tol: float = 1e-12) -> bool:
        """True when f(0) = 0, the condition for acting inside an ideal."""
        try:
            return abs(complex(self(0.0))) <= tol
        except (DomainError, ValueError, ZeroDivisionError):
            return False

    def selfadjoint_bound(self, radius: float) -> float | None:
        """sup |f| over [-radius, radius], or None when not available."""
        return None


@dataclass(frozen=True)
class Polynomial(FunctionDescriptor):
    """Polynomial in z and conj(z): terms are (i, j, c) for c*z^i*conj(z)^j."""

    terms: tuple[tuple[int, int, complex], ...]

    def __post_init__(self):
        norm = tuple(
            (int(i), int(j), complex(c)) for i, j, c in self.terms)
        if any(i < 0 or j < 0 for i, j, _ in norm):
            raise StructuralError("polynomial powers must be nonnegative")
        object.__setattr__(self, "terms", norm)

    @classmethod
    def in_z(cls, coeffs) -> Polynomial:
        """Plain polynomial c0 + c1*z + c2*z^2 + ... (no conjugates)."""
        return cls(tuple((k, 0, complex(c)) for k, c in enumerate(coeffs)))

    @classmethod
    def identity_map(cls) -> Polynomial:
        return cls.in_z([0.0, 1.0])

    @property
    def analytic(self) -> bool:  # type: ignore[override]
        return all(j == 0 for _, j, _ in self.terms)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for i, j, c in self.terms:
            out = out + c * z**i * np.conj(z) ** j
        return out if out.shape else complex(out)

    def apply_matrix(self, block: np.ndarray) -> np.ndarray:
        if not self.analytic:
            raise PreconditionError(
                "a polynomial involving conj(z) needs a normal element")
        n = block.shape[0]
        deg = max((i for i, _, _ in self.terms), default=0)
        coeffs = np.zeros(deg + 1, dtype=complex)
        for i, _, c in self.terms:
            coeffs[i] += c
        out = np.zeros((n, n), dtype=complex)
        for c in coeffs[::-1]:  # Horner
            out = out @ block + c * np.eye(n)
        return out

    def _fold_real_axis(self) -> np.ndarray:
        """Coefficients of x -> p(x, x) on the real axis, ascending."""
        deg = max((i + j for i, j, _ in self.terms), default=0)
        coeffs = np.zeros(deg + 1, dtype=complex)
        for i, j, c in self.terms:
            coeffs[i + j] += c
        return coeffs

    def selfadjoint_bound(self, radius: float) -> float | None:
        coeffs = self._fold_real_axis()
        if not math.isfinite(radius):
            if np.abs(coeffs[1:]).max(initial=0.0) > 0:
                return None  # nonconstant, so unbounded on the line
            return float(abs(coeffs[0])) if len(coeffs) else 0.0
        return _poly_abs_max_on_interval(coeffs, -radius, radius)


def _poly_abs_max_on_interval(coeffs: np.ndarray, lo: float, hi: float) -> float:
    """max |q(x)| on [lo, hi] for q with the given ascending coefficients."""
    q = np.polynomial.Polynomial(coeffs)
    # |q|^2 = q * conj-coefficient q is a real polynomial of a real variable;
    # its interior maxima sit at roots of the derivative.
    sq = q * np.polynomial.Polynomial(np.conj(coeffs))
    candidates = [lo, hi]
    dsq = sq.deriv()
    if dsq.degree() >= 1:
        for r in dsq.roots():
            if abs(r.imag) < 1e-9 and lo - 1e-12 <= r.real <= hi + 1e-12:
                candidates.append(float(r.real))
    return max(abs(complex(q(c))) for c in candidates)


@dataclass(frozen=True)
class RationalSquash(FunctionDescriptor):
    """x -> n^2*x/(n^2 + x^2): a bounded rational approximation of the identity.

    On the real line it is bounded by n/2 and converges to x uniformly on
    compact sets as n grows, which is what makes it useful for squeezing
    unbounded self-adjoint elements into the bounded part.
    """

    n: int

    analytic = True

    def __post_init__(self):
        if self.n < 1:
            raise StructuralError("squash index must be >= 1")

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = self.n**2 * z / (self.n**2 + z * z)
        return out if out.shape else complex(out)

    def check_domain(self, points: np.ndarray, tol: float):
        poles = np.array([1j * self.n, -1j * self.n])
        for p in np.asarray(points, dtype=complex):
            if np.abs(p - poles).min() <= tol * max(1.0, self.n):
                raise DomainError(
                    f"{p} is too close to a pole of the rational squash "
                    f"(n={self.n})")

    def apply_matrix(self, block: np.ndarray) -> np.ndarray:
        n2 = float(self.n**2)
        den = n2 * np.eye(block.shape[0]) + block @ block
        try:
            return np.linalg.solve(den, n2 * block)
        except np.linalg.LinAlgError:
            raise DomainError(
                f"element hits a pole of the rational squash (n={self.n})")

    def selfadjoint_bound(self, radius: float) -> float:
        m = min(abs(radius), float(self.n))
        return self.n**2 * m / (self.n**2 + m * m) if m > 0 else 0.0


@dataclass(frozen=True)
class PrincipalArg(FunctionDescriptor):
    """arg(z) taken in the interval (branch_angle - 2*pi, branch_angle)."""

    branch_angle: float = math.pi

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        t = np.angle(z)
        shifted = t - 2 * math.pi * np.ceil((t - self.branch_angle) / (2 * math.pi))
        out = np.asarray(shifted, dtype=complex)
        return out if out.shape else complex(out)

    def check_domain(self, points: np.ndarray, tol: float):
        for p in np.asarray(points, dtype=complex):
            d = ray_distance(p, self.branch_angle)
            if d <= tol:
                raise BranchError(
                    f"eigenvalue {p} lies within {d:.3e} of the branch ray "
                    f"at angle {self.branch_angle:.6f}")

    def selfadjoint_bound(self, radius: float) -> float:
        lo, hi = self.branch_angle - 2 * math.pi, self.branch_angle
        return max(abs(lo), abs(hi))


@dataclass(frozen=True)
class ExpI(FunctionDescriptor):
    """z -> exp(i*t*z); sends self-adjoint elements to unitaries."""

    t: float = 1.0

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.exp(1j * self.t * z)
        return out if out.shape else complex(out)

    def selfadjoint_bound(self, radius: float) -> float:
        return 1.0


@dataclass(frozen=True)
class Tabulated(FunctionDescriptor):
    """A continuous function on a real interval, linearly interpolated."""

    xs: tuple[float, ...]
    ys: tuple[complex, ...]

    def __post_init__(self):
        xs = tuple(float(v) for v in self.xs)
        ys = tuple(complex(v) for v in self.ys)
        if len(xs) != len(ys) or len(xs) < 2:
            raise StructuralError("a table needs >= 2 matching sample points")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise StructuralError("table abscissae must be strictly increasing")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        re = np.interp(z.real, self.xs, [y.real for y in self.ys])
        im = np.interp(z.real, self.xs, [y.imag for y in self.ys])
        out = np.asarray(re + 1j * im, dtype=complex)
        return out if out.shape else complex(out)

    def check_domain(self, points: np.ndarray, tol: float):
        for p in np.asarray(points, dtype=complex):
            if abs(p.imag) > tol * max(1.0, abs(p)):
                raise DomainError(
                    f"tabulated functions act on real spectra; got {p}")
            if not (self.xs[0] - tol <= p.real <= self.xs[-1] + tol):
                raise DomainError(
                    f"{p.real} is outside the tabulated interval "
                    f"[{self.xs[0]}, {self.xs[-1]}]")

    def selfadjoint_bound(self, radius: float) -> float:
        return max(abs(y) for y in self.ys)


# ---------------------------------------------------------------------------
# functional calculus
# ---------------------------------------------------------------------------

def _diagonalize_normals(stack: np.ndarray, tol: float, block_index: int):
    """Unitaries v and eigenvalues d with each slice = v diag(d) v*.

    Each slice of the (m, n, n) stack is judged at its own scale
    max(1, ||b||). Hermitian slices make one batched eigh of their
    Hermitian parts (b + b*)/2; every other slice goes through a complex
    Schur form whose off-diagonal residue must vanish within tol, which is
    exactly the normality assertion.
    """
    m, n = stack.shape[0], stack.shape[-1]
    if n == 1:
        return np.ones((m, 1, 1), dtype=complex), stack.reshape(m, 1).copy()
    scale = np.maximum(1.0, _block_norms(stack))
    hermitian = np.abs(
        stack - stack.conj().swapaxes(-1, -2)).max(axis=(1, 2)) <= tol * scale
    if hermitian.all():
        return _hermitian_eigen(stack, range(m), m, block_index)
    v = np.empty(stack.shape, dtype=complex)
    d = np.empty((m, n), dtype=complex)
    rows = np.flatnonzero(hermitian)
    if rows.size:
        v[rows], d[rows] = _hermitian_eigen(stack[rows], rows, m, block_index)
    for k in np.flatnonzero(~hermitian):
        v[k], d[k] = _schur_diagonalize(
            stack[k], tol * scale[k], f"block {block_index}{_slice(k, m)}")
    return v, d


def _hermitian_eigen(stack: np.ndarray, rows, m: int, block_index: int):
    """eigh of the Hermitian parts (b + b*)/2 of the stacked blocks, rows
    ``rows`` of a stack of m: their unitaries and eigenvalues."""
    w, v = _batched(
        np.linalg.eigh, 0.5 * (stack + stack.conj().swapaxes(-1, -2)), rows, m,
        lambda: f"Hermitian eigensolver failed on block {block_index}")
    return v, w.astype(complex)


def _schur_diagonalize(b: np.ndarray, bound: float, where: str):
    """The unitary and the eigenvalues of a normal block from its complex
    Schur form, whose off-diagonal residue must stay within ``bound``."""
    # scipy is imported here, not at module level: loading it costs more
    # than the rest of the package, and only this branch needs it.
    import scipy.linalg

    try:
        t, z = scipy.linalg.schur(b, output="complex")
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise EigensolverError(f"Schur factorization failed on {where}: {exc}")
    off = t - np.diag(np.diag(t))
    if np.abs(off).max() > bound:
        raise PreconditionError(
            f"{where} is not normal within tolerance "
            f"(triangular residue {np.abs(off).max():.3e})")
    return z, np.diag(t)


def _diagonalize_normal(block: np.ndarray, tol: float, block_index: int):
    """Unitary V and eigenvalues d with block = V diag(d) V*: the height-1
    case of _diagonalize_normals."""
    v, d = _diagonalize_normals(block[None], tol, block_index)
    return v[0], d[0]


def _rebuild(v: np.ndarray, values: np.ndarray) -> np.ndarray:
    """v diag(values) v*, for one block or an (m, n, n) stack of them."""
    n = v.shape[-1]
    diag = np.zeros(v.shape, dtype=complex)
    diag.reshape(v.shape[:-2] + (n * n,))[..., ::n + 1] = values
    return v @ diag @ v.conj().swapaxes(-1, -2)


def _normal_calculus(
    stacks: list[np.ndarray], f: FunctionDescriptor, tol: float
) -> list[np.ndarray]:
    """f of each element of a stack list, whose elements must be normal.

    Every block position is diagonalized as one stack, f's domain is
    checked on all eigenvalues, and each block is rebuilt as
    v diag(f(d)) v*. apply_function on a normal element is its height-1
    case.
    """
    eigen = [_diagonalize_normals(stack, tol, i) for i, stack in enumerate(stacks)]
    f.check_domain(np.concatenate([d.ravel() for _, d in eigen]), tol)
    return [_rebuild(v, np.asarray(f(d), dtype=complex)) for v, d in eigen]


def _apply_function_stacks(
    stacks: list[np.ndarray], f: FunctionDescriptor, tol: float = DEFAULT_NORMALITY_TOL
) -> list[np.ndarray]:
    """apply_function of each element of a stack list.

    Normal elements share one diagonalization per block position. If any
    element is not normal, each goes through apply_function alone, with
    its checks and errors.
    """
    if all(_are_normal(stacks, tol)):
        return _normal_calculus(stacks, f, tol)
    alg = BlockAlgebra(tuple(stack.shape[-1] for stack in stacks))
    return _stacked([
        apply_function(AlgebraElement(alg, [stack[k] for stack in stacks]), f, tol)
        for k in range(stacks[0].shape[0])])


def apply_function(
    x: AlgebraElement,
    f: FunctionDescriptor,
    tol: float = DEFAULT_NORMALITY_TOL,
) -> AlgebraElement:
    """Continuous functional calculus f(x) at a single level.

    Normal elements are diagonalized unitarily and f is applied to the
    eigenvalues. Non-normal elements are only accepted for analytic
    descriptors, which are evaluated by matrix arithmetic.
    """
    if is_normal(x, tol):
        return AlgebraElement(
            x.parent, [s[0] for s in _normal_calculus(_stacked([x]), f, tol)])
    if not f.analytic:
        raise PreconditionError(
            "non-analytic calculus needs a normal element; "
            f"{f!r} applied to a non-normal one")
    f.check_domain(
        np.concatenate([_block_eigenvalues(b, i) for i, b in enumerate(x.blocks)]),
        tol)
    return AlgebraElement(x.parent, [f.apply_matrix(b) for b in x.blocks])
