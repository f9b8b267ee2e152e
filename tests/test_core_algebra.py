"""Single-level kernel: norms, spectra, involution, functional calculus."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from protower.core_algebra import (
    AlgebraElement,
    BlockAlgebra,
    BranchError,
    DomainError,
    EigensolverError,
    ExpI,
    Polynomial,
    PreconditionError,
    PrincipalArg,
    RationalSquash,
    StructuralError,
    Tabulated,
    _adjoint_stack,
    _apply_function_stacks,
    _are_normal,
    _block_eigenvalues,
    _block_norm,
    _block_norms,
    _diagonalize_normal,
    _diagonalize_normals,
    _eigenvalue_stack,
    _is_triangular,
    _rebuild,
    _spectra,
    _spectral_radii,
    _stack_norms,
    _stacked,
    adjoin_unit_element,
    apply_function,
    cstar_norm,
    distance,
    hausdorff_distance,
    is_normal,
    spectral_radius,
    spectrum,
)
from protower.randomness import (
    random_element,
    random_normal,
    random_selfadjoint,
    random_unitary,
    stream,
)

M123 = BlockAlgebra((1, 2, 3))


def shift3():
    """3x3 block with superdiagonal (1, 2); largest singular value is 2."""
    alg = BlockAlgebra((3,))
    return alg.element([np.array([[0, 1, 0], [0, 0, 2], [0, 0, 0]])])


def test_block_algebra_validation():
    with pytest.raises(StructuralError):
        BlockAlgebra(())
    with pytest.raises(StructuralError):
        BlockAlgebra((2, 0))
    assert BlockAlgebra((1, 1)).is_commutative
    assert not M123.is_commutative
    assert M123.dim == 1 + 4 + 9


def test_element_shape_validation():
    with pytest.raises(StructuralError):
        M123.element([np.zeros((1, 1)), np.zeros((2, 2))])
    with pytest.raises(StructuralError):
        M123.element([np.zeros((1, 1)), np.zeros((2, 2)), np.zeros((2, 2))])


def test_elements_are_immutable():
    x = M123.identity()
    with pytest.raises(ValueError):
        x.blocks[1][0, 0] = 5.0
    with pytest.raises(AttributeError):
        x.parent = BlockAlgebra((1,))


def test_norm_identity_and_zero():
    assert cstar_norm(M123.identity()) == 1.0
    assert cstar_norm(M123.zero()) == 0.0


def test_norm_of_shift_block():
    # oracle: sqrt of the top eigenvalue of x x* = diag(1, 4, 0)
    assert cstar_norm(shift3()) == pytest.approx(2.0, abs=1e-12)


def test_adjoint_is_involution():
    rng = stream(11, "involution")
    x = random_element(M123, rng)
    assert distance(x.adjoint().adjoint(), x) == 0.0


def test_spectrum_identity_and_nilpotent():
    assert np.allclose(spectrum(M123.identity()), [1.0])
    for n in range(2, 8):
        alg = BlockAlgebra((n,))
        ln = alg.element([np.diag(np.arange(1.0, n), 1)])
        pts = spectrum(ln)
        assert len(pts) == 1 and abs(pts[0]) == 0.0


def test_triangular_shortcut_matches_dense_predicate():
    # _is_triangular must agree with the copying tril/triu test on every
    # sparsity pattern, layout and kind of zero, so the exact-diagonal
    # shortcut fires on exactly the same blocks.
    rng = np.random.default_rng(2005)
    fills = (1.0, 1j, -2.5 + 0.5j, -0.0, np.nan)
    for n in range(2, 9):
        for _ in range(60):
            b = np.zeros((n, n), dtype=complex)
            keep = rng.random((n, n)) < rng.choice([0.05, 0.3, 0.9])
            shape = rng.integers(3)
            if shape == 1:
                keep = np.triu(keep)
            elif shape == 2:
                keep = np.tril(keep)
            b[keep] = rng.choice(fills, size=int(keep.sum()))
            for block in (b, b.T, b[::-1, ::-1], b.real.copy()):
                dense = (not np.tril(block, -1).any()
                         or not np.triu(block, 1).any())
                assert _is_triangular(block) == dense, block
                if dense:
                    assert np.array_equal(
                        _block_eigenvalues(block, 0), np.diag(block),
                        equal_nan=True)


def test_spectrum_of_shift_product():
    # diag(1, 4, 9, 0) arises as x x* for the size-4 shift block
    alg = BlockAlgebra((4,))
    l4 = alg.element([np.diag([1.0, 2.0, 3.0], 1)])
    pts = spectrum(l4 * l4.adjoint())
    assert np.allclose(pts, [0.0, 1.0, 4.0, 9.0], atol=1e-10)


def test_spectrum_clustering_collapses_close_points():
    alg = BlockAlgebra((1, 1, 1))
    x = alg.diagonal([1.0, 1.0 + 1e-12, 2.0])
    pts = spectrum(x, cluster_tol=1e-8)
    assert len(pts) == 2
    with pytest.raises(PreconditionError):
        spectrum(x, cluster_tol=0.0)


def test_is_normal():
    rng = stream(12, "normality")
    h = random_selfadjoint(M123, rng)
    assert is_normal(h)
    assert not is_normal(shift3())
    u = BlockAlgebra((2,)).element([np.diag([1j, -1j])])
    assert is_normal(u)


def selfadjoint_parts(x):
    """x = h + i*k with h = (x + x*)/2 and k = (x - x*)/2i."""
    return 0.5 * (x + x.adjoint()), -0.5j * (x - x.adjoint())


def test_selfadjoint_parts_reassembly():
    x = shift3()
    h, k = selfadjoint_parts(x)
    assert distance(h, h.adjoint()) <= 1e-14
    assert distance(k, k.adjoint()) <= 1e-14
    assert distance(h + 1j * k, x) <= 1e-14 * max(1.0, cstar_norm(x))

    rng = stream(13, "parts")
    h0 = random_selfadjoint(M123, rng)
    a, b = selfadjoint_parts(h0)
    assert distance(a, h0) <= 1e-14
    assert cstar_norm(b) <= 1e-14
    a, b = selfadjoint_parts(1j * h0)
    assert cstar_norm(a) <= 1e-14
    assert distance(b, h0) <= 1e-14


def test_adjoin_unit_spectra():
    alg1 = BlockAlgebra((1,))
    zero = adjoin_unit_element(alg1.zero(), 0.0)
    assert np.allclose(spectrum(zero), [0.0])

    two = alg1.element([np.array([[2.0]])])
    ext = adjoin_unit_element(two, 1.0)
    assert np.allclose(spectrum(ext), [1.0, 3.0])

    # adjoining with lambda = 0 appends 0 to the spectrum
    rng = stream(14, "unitize")
    x = random_normal(M123, rng)
    got = spectrum(adjoin_unit_element(x, 0.0))
    want = np.append(spectrum(x), 0.0)
    assert hausdorff_distance(got, want) <= 1e-8


def test_apply_expi_zero_is_identity():
    rng = stream(15, "expi0")
    x = random_normal(M123, rng)
    assert distance(apply_function(x, ExpI(0.0)), M123.identity()) <= 1e-12


def test_apply_rational_squash_on_diagonal():
    alg = BlockAlgebra((2,))
    x = alg.element([np.diag([1.0, 2.0])])
    got = apply_function(x, RationalSquash(2))
    assert np.allclose(got.blocks[0], np.diag([0.8, 1.0]), atol=1e-14)


def test_rational_squash_matrix_route_matches_diagonalization():
    rng = stream(16, "squash-routes")
    h = random_selfadjoint(M123, rng)
    f = RationalSquash(3)
    eig = apply_function(h, f)
    direct = AlgebraElement(M123, [f.apply_matrix(b) for b in h.blocks])
    assert distance(eig, direct) <= 1e-12


def test_rational_squash_on_non_normal():
    x = shift3()
    f = RationalSquash(1)
    got = apply_function(x, f)
    b = x.blocks[0]
    expected = np.linalg.solve(np.eye(3) + b @ b, b)
    assert np.allclose(got.blocks[0], expected, atol=1e-12)


def test_principal_arg_on_unitary():
    alg = BlockAlgebra((2,))
    u = alg.element([np.diag([1j, 1.0])])
    a = apply_function(u, PrincipalArg())
    assert np.allclose(a.blocks[0], np.diag([math.pi / 2, 0.0]), atol=1e-12)


def test_principal_arg_branch_error():
    alg = BlockAlgebra((1,))
    minus = alg.element([np.array([[-1.0]])])
    with pytest.raises(BranchError):
        apply_function(minus, PrincipalArg(math.pi))
    # rotating the branch fixes it
    a = apply_function(minus, PrincipalArg(math.pi / 2))
    assert np.allclose(a.blocks[0], [[-math.pi]], atol=1e-12)


def test_non_analytic_on_non_normal_rejected():
    with pytest.raises(PreconditionError):
        apply_function(shift3(), ExpI(1.0))
    with pytest.raises(PreconditionError):
        apply_function(shift3(), Polynomial(((1, 1, 1.0),)))


def test_tabulated_function():
    alg = BlockAlgebra((1, 1))
    x = alg.diagonal([0.25, 0.75])
    f = Tabulated((0.0, 0.5, 1.0), (0.0, 1.0, 0.0))
    got = apply_function(x, f)
    assert np.allclose([got.blocks[0][0, 0], got.blocks[1][0, 0]], [0.5, 0.5])
    with pytest.raises(DomainError):
        apply_function(alg.diagonal([2.0, 0.0]), f)
    with pytest.raises(DomainError):
        apply_function(alg.diagonal([0.5j, 0.0]), f)


def test_polynomial_bound_on_interval():
    # |x^2 - 1| on [-2, 2]: maximum 3 at the endpoints, local max 1 at 0
    p = Polynomial.in_z([-1.0, 0.0, 1.0])
    assert p.selfadjoint_bound(2.0) == pytest.approx(3.0, abs=1e-10)
    assert p.selfadjoint_bound(0.5) == pytest.approx(1.0, abs=1e-10)


def test_descriptor_zero_fixing():
    assert RationalSquash(5).fixes_zero()
    assert Polynomial.in_z([0.0, 3.0]).fixes_zero()
    assert not Polynomial.in_z([1.0]).fixes_zero()
    assert not ExpI(1.0).fixes_zero()


# --- algebraic laws on random input ---------------------------------------

complex_entries = st.complex_numbers(
    max_magnitude=10.0, allow_nan=False, allow_infinity=False)


def element_from_arrays(b1, b2):
    return AlgebraElement(BlockAlgebra((2, 3)), [b1, b2])


@given(
    b1=arrays(np.complex128, (2, 2), elements=complex_entries),
    b2=arrays(np.complex128, (3, 3), elements=complex_entries),
)
@settings(max_examples=60, deadline=None)
def test_cstar_identity_hypothesis(b1, b2):
    x = element_from_arrays(b1, b2)
    n = cstar_norm(x)
    assert abs(cstar_norm(x.adjoint() * x) - n * n) <= 1e-10 * max(1.0, n * n)


@given(
    b1=arrays(np.complex128, (2, 2), elements=complex_entries),
    b2=arrays(np.complex128, (3, 3), elements=complex_entries),
)
@settings(max_examples=60, deadline=None)
def test_involution_isometry_hypothesis(b1, b2):
    x = element_from_arrays(b1, b2)
    assert abs(cstar_norm(x.adjoint()) - cstar_norm(x)) <= 1e-12 * max(
        1.0, cstar_norm(x))


@given(
    b1=arrays(np.complex128, (2, 2), elements=complex_entries),
    b2=arrays(np.complex128, (2, 2), elements=complex_entries),
)
@settings(max_examples=60, deadline=None)
def test_submultiplicative_hypothesis(b1, b2):
    alg = BlockAlgebra((2,))
    x, y = alg.element([b1]), alg.element([b2])
    assert cstar_norm(x * y) <= cstar_norm(x) * cstar_norm(y) + 1e-10


def test_spectral_mapping_random_normal():
    rng = stream(17, "spectral-mapping")
    for _ in range(50):
        x = random_normal(M123, rng)
        coeffs = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
        f = Polynomial.in_z(coeffs)
        lhs = spectrum(apply_function(x, f))
        rhs = np.asarray(f(spectrum(x)))
        assert hausdorff_distance(lhs, rhs) <= 1e-8


def test_normal_norm_equals_spectral_radius():
    rng = stream(18, "normal-radius")
    for _ in range(50):
        x = random_normal(M123, rng)
        assert abs(cstar_norm(x) - spectral_radius(x)) <= 1e-10 * max(
            1.0, cstar_norm(x))


# ---------------------------------------------------------------------------
# stacked blocks: the numerics the quotient checks' probe stacks rely on
# ---------------------------------------------------------------------------

def same_bits(x, y) -> bool:
    """Equal as float64 bit patterns (so 0.0 and -0.0 differ)."""
    return np.asarray(x, dtype=float).tobytes() == np.asarray(y, dtype=float).tobytes()


def per_block_norm(b):
    """The norm of one 2-D block as the per-block kernel computes it."""
    if b.shape[0] == 1:
        return abs(b[0, 0])
    return float(np.linalg.svd(b, compute_uv=False)[0])


def ginibre_stack(rng, m, n):
    return rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))


def test_block_norms_equal_per_block_norms_bitwise():
    rng = stream(90, "block-norm-stacks")
    for n in range(1, 13):
        stack = ginibre_stack(rng, 20, n)
        stack[3] = 0  # a zero block inside a nonzero stack
        norms = _block_norms(stack)
        assert norms.shape == (20,)
        for b, norm in zip(stack, norms):
            assert same_bits(norm, _block_norm(b))
            assert same_bits(norm, per_block_norm(b))
        for zero in (np.zeros((7, n, n), dtype=complex),
                     np.full((7, n, n), complex(-0.0, -0.0))):
            assert same_bits(_block_norms(zero), [per_block_norm(b) for b in zero])
            assert same_bits(_block_norms(zero), np.zeros(7))


def test_all_zero_stack_makes_no_svd_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called on an all-zero stack")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    for n in (2, 5):
        assert same_bits(_block_norms(np.zeros((4, n, n), dtype=complex)), np.zeros(4))
        assert same_bits(_block_norm(np.full((n, n), -0.0 + 0j)), 0.0)


def test_block_norms_1x1_take_scalar_abs():
    # array np.abs and scalar abs round differently on some entries; the
    # per-block kernel always used the scalar form
    rng = stream(91, "scalar-abs")
    entries = rng.standard_normal(20000) + 1j * rng.standard_normal(20000)
    scalar = np.array([abs(z) for z in entries])
    assert np.count_nonzero(np.abs(entries) != scalar) > 100
    assert same_bits(_block_norms(entries.reshape(-1, 1, 1)), scalar)


def test_conjugated_stack_equals_per_slice_products():
    rng = stream(92, "conjugated-stacks")
    for n in (1, 2, 3, 5, 8, 13):
        u = random_unitary(BlockAlgebra((n,)), rng).blocks[0]
        stack = ginibre_stack(rng, 30, n)
        adjoints = np.array(stack.conj().transpose(0, 2, 1), copy=True)
        for blocks in (stack, adjoints):
            assert np.array_equal(
                u @ blocks @ u.conj().T, [u @ b @ u.conj().T for b in blocks])
            assert np.array_equal(
                u.conj().T @ blocks @ u, [u.conj().T @ b @ u for b in blocks])
        assert np.array_equal(stack @ adjoints, [
            a @ b for a, b in zip(stack, adjoints)])


def test_failed_stack_svd_names_the_block(monkeypatch):
    svd = np.linalg.svd
    marker = 7.0 + 7.0j

    def flaky(a, *args, **kwargs):
        if a.ndim == 3 or a[0, 0] == marker:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", flaky)
    stack = ginibre_stack(stream(93, "flaky-svd"), 5, 3)
    stack[2, 0, 0] = marker
    with pytest.raises(EigensolverError, match="block 2 of a stack of 5"):
        _block_norms(stack)
    with pytest.raises(EigensolverError, match="3x3 block, block 0 of a stack of 1"):
        cstar_norm(AlgebraElement(BlockAlgebra((3,)), [stack[2]]))


def bits(x) -> bytes:
    """The bytes of an array, so that 0.0 and -0.0 differ."""
    x = np.asarray(x)
    return x.dtype.str.encode() + str(x.shape).encode() + np.ascontiguousarray(x).tobytes()


def mixed_stack(rng, m, n):
    """An (m, n, n) stack whose slices cycle through general, Hermitian,
    normal, unitary and upper triangular blocks."""
    alg = BlockAlgebra((n,))
    kinds = (
        lambda: ginibre_stack(rng, 1, n)[0],
        lambda: random_selfadjoint(alg, rng).blocks[0],
        lambda: random_normal(alg, rng).blocks[0],
        lambda: random_unitary(alg, rng).blocks[0],
        lambda: np.triu(ginibre_stack(rng, 1, n)[0]),
    )
    return np.stack([kinds[k % len(kinds)]() for k in range(m)])


def per_slice_diagonalization(b, tol):
    """A normal block's unitary and eigenvalues, as one block was always
    diagonalized: eigh of its Hermitian part when it is Hermitian at its
    own scale, else a complex Schur form."""
    import scipy.linalg

    if b.shape[0] == 1:
        return np.eye(1, dtype=complex), b.reshape(1).copy()
    scale = max(1.0, _block_norm(b))
    if np.abs(b - b.conj().T).max() <= tol * scale:
        w, v = np.linalg.eigh(0.5 * (b + b.conj().T))
        return v, w.astype(complex)
    t, z = scipy.linalg.schur(b, output="complex")
    return z, np.diag(t).copy()


def test_stacked_lapack_calls_and_products_equal_per_slice_calls():
    # the stack kernels rest on these: a batched eigvals, eigh, SVD or
    # product computes each slice exactly as the call on that slice alone
    rng = stream(94, "stacked-lapack")
    for n in range(1, 9):
        for m in range(1, 8):
            stack = mixed_stack(rng, m, n)
            other = ginibre_stack(rng, m, n)
            herm = 0.5 * (stack + stack.conj().swapaxes(-1, -2))
            adjoints = _adjoint_stack(stack)
            w, v = np.linalg.eigh(herm)
            values = np.exp(1j * w.astype(complex))
            rebuilt = _rebuild(v, values)
            eigs = np.linalg.eigvals(stack)
            svals = np.linalg.svd(stack, compute_uv=False)
            for k in range(m):
                b = stack[k]
                wk, vk = np.linalg.eigh(herm[k])
                assert bits(w[k]) == bits(wk) and bits(v[k]) == bits(vk)
                assert bits(eigs[k]) == bits(np.linalg.eigvals(b))
                assert bits(svals[k]) == bits(np.linalg.svd(b, compute_uv=False))
                assert bits(rebuilt[k]) == bits(
                    vk @ np.diag(values[k]) @ vk.conj().T)
                assert bits(adjoints[k]) == bits(b.conj().T)
                assert bits((stack @ other)[k]) == bits(b @ other[k])
                assert bits((adjoints @ stack)[k]) == bits(b.conj().T @ b)
                assert bits((stack @ adjoints)[k]) == bits(b @ b.conj().T)


def test_stack_kernels_equal_their_per_element_forms():
    rng = stream(95, "stack-kernels")
    tol = 1e-10
    for n in range(1, 9):
        for m in range(1, 8):
            stack = mixed_stack(rng, m, n)
            eigs = _eigenvalue_stack(stack, 4)
            for k in range(m):
                assert bits(eigs[k]) == bits(_block_eigenvalues(stack[k], 4))
                if n > 1 and k % 5 == 4:  # triangular: read off the diagonal
                    assert bits(eigs[k]) == bits(np.diag(stack[k]))
            normal = stack[[k for k in range(m) if k % 5 in (1, 2, 3)]]
            if normal.size:
                v, d = _diagonalize_normals(normal, tol, 0)
                for k, b in enumerate(normal):
                    vk, dk = per_slice_diagonalization(b, tol)
                    assert bits(v[k]) == bits(vk) and bits(d[k]) == bits(dk)
                    v1, d1 = _diagonalize_normal(b, tol, 0)
                    assert bits(v1) == bits(vk) and bits(d1) == bits(dk)
    # elements of M_1 + M_2 + M_3, as the selftest sweeps stack them
    for m in range(1, 8):
        for draw in (random_element, random_normal, random_selfadjoint):
            xs = [draw(M123, rng) for _ in range(m)]
            stacks = _stacked(xs)
            assert bits(_stack_norms(stacks)) == bits([cstar_norm(x) for x in xs])
            assert bits(_spectral_radii(stacks)) == bits(
                [spectral_radius(x) for x in xs])
            for got, x in zip(_spectra(stacks, 1e-8), xs):
                assert bits(got) == bits(spectrum(x))
            assert _are_normal(stacks, tol) == [is_normal(x, tol) for x in xs]
            for f in (ExpI(1.0), Polynomial.in_z([0.5, -1.0, 0.25j])):
                if f.analytic or all(is_normal(x) for x in xs):
                    got = _apply_function_stacks(stacks, f)
                    for k, x in enumerate(xs):
                        want = apply_function(x, f).blocks
                        assert [bits(s[k]) for s in got] == [bits(b) for b in want]
                else:  # as apply_function refuses the first non-normal element
                    with pytest.raises(PreconditionError, match="non-normal"):
                        _apply_function_stacks(stacks, f)


def test_apply_function_is_the_per_block_calculus():
    # f(v diag(d) v*) = v diag(f(d)) v*, block by block, for normal input
    rng = stream(96, "per-block-calculus")
    f = ExpI(0.7)
    for x in [random_normal(M123, rng) for _ in range(10)] + [
            random_selfadjoint(M123, rng) for _ in range(10)]:
        want = []
        for b in x.blocks:
            v, d = per_slice_diagonalization(b, 1e-10)
            want.append(v @ np.diag(np.asarray(f(d), dtype=complex)) @ v.conj().T)
        assert [bits(b) for b in apply_function(x, f).blocks] == [
            bits(b) for b in want]


def test_failed_stacked_eigensolvers_name_the_slice(monkeypatch):
    marker = 7.0 + 7.0j
    real = {name: getattr(np.linalg, name) for name in ("eigvals", "eigh")}

    def flaky(name):
        def call(a, *args, **kwargs):
            if a.ndim == 3 or a[0, 0] == marker or a[0, 0] == marker.real:
                raise np.linalg.LinAlgError(f"{name} did not converge")
            return real[name](a, *args, **kwargs)
        return call

    for name in real:
        monkeypatch.setattr(np.linalg, name, flaky(name))
    stack = ginibre_stack(stream(97, "flaky-eig"), 5, 3)
    stack[2, 0, 0] = marker
    with pytest.raises(EigensolverError, match="block 1 .*slice 2 of a stack of 5"):
        _eigenvalue_stack(stack, 1)
    with pytest.raises(EigensolverError, match=r"block 1 \(size 3\): eigvals"):
        _block_eigenvalues(stack[2], 1)
    herm = 0.5 * (stack + stack.conj().swapaxes(-1, -2))
    herm[2, 0, 0] = marker.real
    with pytest.raises(EigensolverError, match="block 6, slice 2 of a stack of 5"):
        _diagonalize_normals(herm, 1e-10, 6)
    with pytest.raises(EigensolverError, match="failed on block 6: eigh"):
        _diagonalize_normal(herm[2], 1e-10, 6)
