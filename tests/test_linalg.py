"""Tests for the dense Hermitian linear algebra layer."""

import numpy as np
import pytest

from choilike.linalg import (
    _jacobi_rotation,
    determinant,
    hermitian_eigenvalues,
    is_psd,
    outer_product,
    partial_transpose,
    product_vector,
    require_hermitian,
)


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_jacobi_rotation_tiny_pivot_does_not_overflow(sign):
    # tau = sign * 5e199, so tau * tau overflows; the root is t = -1 / (2 tau)
    c, s, phase = _jacobi_rotation(np.float64(0.0), np.float64(sign), np.complex128(1e-200))
    assert c == 1.0 and phase == 1.0
    assert s == pytest.approx(-sign * 1e-200, rel=1e-15)
    values = hermitian_eigenvalues([[0.0, 1e-200], [1e-200, sign]]).values
    assert np.array_equal(values, np.sort([0.0, sign]))


def test_identity_eigenvalues():
    res = hermitian_eigenvalues(np.eye(3))
    assert np.allclose(res.values, [1.0, 1.0, 1.0], atol=1e-12)


def test_hand_derived_characteristic_polynomials():
    # det(lambda I - M) worked out by hand: lambda (lambda - 3)^2
    m = np.array([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], dtype=float)
    assert np.allclose(hermitian_eigenvalues(m).values, [0.0, 3.0, 3.0], atol=1e-12)
    # (lambda + 1)(lambda - 2)^2
    m = np.array([[1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
    assert np.allclose(hermitian_eigenvalues(m).values, [-1.0, 2.0, 2.0], atol=1e-12)


def test_matches_lapack_on_random_hermitian():
    rng = np.random.default_rng(41)
    for dim in (1, 2, 3, 4, 7, 9):
        for _ in range(10):
            h = random_hermitian(rng, dim)
            got = hermitian_eigenvalues(h)
            want = np.linalg.eigvalsh(h)
            assert np.max(np.abs(got.values - want)) < 1e-10
            assert got.residual <= 1e-9 * (1.0 + np.max(np.abs(got.values)))


def test_eigenvalue_sum_and_product_invariants():
    rng = np.random.default_rng(5)
    for dim in (2, 3, 5, 9):
        for _ in range(25):
            h = random_hermitian(rng, dim)
            values = hermitian_eigenvalues(h).values
            trace = float(np.trace(h).real)
            assert abs(values.sum() - trace) <= 1e-9 * (1.0 + abs(trace))
            det = determinant(h)
            assert abs(np.prod(values) - det) <= 1e-8 * (1.0 + abs(det))


def test_non_hermitian_rejected():
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        require_hermitian(np.zeros((2, 3)))


def test_is_psd_cases():
    assert is_psd(np.zeros((3, 3)), tol=1e-9) == (True, 0.0)
    flag, mineig = is_psd(np.array([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], dtype=float))
    assert flag and abs(mineig) < 1e-12
    flag, mineig = is_psd(np.array([[1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float))
    assert not flag and abs(mineig + 1.0) < 1e-12
    with pytest.raises(ValueError):
        is_psd(np.eye(2), tol=-1.0)


def test_psd_of_rank_one_projectors():
    rng = np.random.default_rng(12)
    for _ in range(20):
        zeta = rng.normal(size=4) + 1j * rng.normal(size=4)
        flag, _ = is_psd(outer_product(zeta))
        assert flag


def test_determinant_basic():
    assert determinant(np.eye(4)) == 1.0
    assert determinant(np.diag([2.0, 3.0])) == 6.0
    assert determinant(np.zeros((3, 3))) == 0.0


def test_determinant_against_numpy():
    rng = np.random.default_rng(9)
    for dim in (2, 3, 5, 8):
        for _ in range(15):
            h = random_hermitian(rng, dim)
            want = float(np.linalg.det(h).real)
            assert abs(determinant(h) - want) < 1e-9 * max(1.0, abs(want))


def test_partial_transpose_diagonal_invariant():
    d = np.diag(np.arange(1.0, 10.0))
    assert np.array_equal(partial_transpose(d, 3), d)


def test_partial_transpose_moves_block_entry():
    # block (1,2) inner entry (1,2) sits at global (1,5); its transpose
    # within the block lands at inner (2,1), i.e. global (2,4)
    r = np.zeros((9, 9), dtype=complex)
    r[0, 4] = 2.0 + 1.0j
    r[4, 0] = 2.0 - 1.0j
    pt = partial_transpose(r, 3)
    assert pt[1, 3] == 2.0 + 1.0j
    assert pt[3, 1] == 2.0 - 1.0j
    assert np.count_nonzero(pt) == 2


def test_partial_transpose_involution_and_trace():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        m = rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n))
        h = (m + m.conj().T) / 2
        pt = partial_transpose(h, n)
        assert np.array_equal(partial_transpose(pt, n), h)
        assert np.trace(pt) == np.trace(h)


def test_partial_transpose_dimension_check():
    with pytest.raises(ValueError, match="square of block size"):
        partial_transpose(np.eye(8), 3)


def test_product_vector_basics():
    e1 = np.array([1.0, 0.0, 0.0])
    out = product_vector(e1, e1)
    want = np.zeros(9)
    want[0] = 1.0
    assert np.array_equal(out, want)
    assert np.array_equal(
        product_vector([1.0, 1.0], [1.0, -1.0]), np.array([1.0, -1.0, 1.0, -1.0])
    )


def test_product_vector_power_pattern():
    # the tensor square of the cyclic witness expands into sixth-root powers
    rng = np.random.default_rng(8)
    a1, a2, a3 = 0.5 + rng.random(3) * 2
    xi = np.array(
        [
            (a2 * a3 / a1) ** (1 / 12),
            (a1 * a3 / a2) ** (1 / 12),
            (a1 * a2 / a3) ** (1 / 12),
        ]
    )
    got = product_vector(xi, xi)
    want = np.array(
        [
            (a2 * a3 / a1) ** (1 / 6),
            a3 ** (1 / 6),
            a2 ** (1 / 6),
            a3 ** (1 / 6),
            (a1 * a3 / a2) ** (1 / 6),
            a1 ** (1 / 6),
            a2 ** (1 / 6),
            a1 ** (1 / 6),
            (a1 * a2 / a3) ** (1 / 6),
        ]
    )
    assert np.max(np.abs(got - want)) < 1e-12


def test_outer_product_basis_case():
    e1 = np.array([1.0, 0.0, 0.0])
    m = outer_product(e1)
    want = np.zeros((3, 3))
    want[0, 0] = 1.0
    assert np.array_equal(m, want)


def test_outer_product_counterexample_input():
    zeta = np.array([2 ** (1 / 3), 2 ** (-1 / 6), 2 ** (-1 / 6)])
    x = outer_product(zeta)
    assert abs(x[0, 0] - 2 ** (2 / 3)) < 1e-14
    assert abs(x[0, 1] - 2 ** (1 / 6)) < 1e-14
    assert abs(x[1, 1] - 2 ** (-1 / 3)) < 1e-14
    assert abs(float(np.trace(x).real) - np.dot(zeta, zeta)) < 1e-14


def test_outer_product_power_matrix():
    # rank-one matrix of the boundary witness: entries are ratio powers
    rng = np.random.default_rng(21)
    a1, a2, a3 = 0.5 + rng.random(3) * 2
    xi = np.array(
        [
            a1 ** (-1 / 6) * a3 ** (1 / 6),
            a2 ** (-1 / 6) * a1 ** (1 / 6),
            a3 ** (-1 / 6) * a2 ** (1 / 6),
        ]
    )
    m = outer_product(xi)
    want = np.array(
        [
            [(a3 / a1) ** (1 / 3), (a3 / a2) ** (1 / 6), (a2 / a1) ** (1 / 6)],
            [(a3 / a2) ** (1 / 6), (a1 / a2) ** (1 / 3), (a1 / a3) ** (1 / 6)],
            [(a2 / a1) ** (1 / 6), (a1 / a3) ** (1 / 6), (a2 / a3) ** (1 / 3)],
        ]
    )
    assert np.max(np.abs(m - want)) < 1e-12
