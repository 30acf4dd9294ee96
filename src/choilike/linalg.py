"""Dense complex linear algebra for small Hermitian problems.

Everything here is sized for matrices a few hundred rows at most (the
largest objects in this package are block matrices of side n^2 with
n <= 16).  The eigensolver is a cyclic Jacobi iteration, which is
unconditionally convergent for Hermitian input and has no hidden
backend-dependent behaviour: identical input produces identical output.

Block conventions used throughout the package: a matrix of side n^2 is
read as an n x n grid of n x n blocks, with global row index
(i - 1) * n + k addressing entry k of block row i (1-based in the
formulas, 0-based in code).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITIAN_ATOL = 1e-12
PSD_TOL = 1e-9

_JACOBI_REL_OFF = 1e-14  # stop when off-diagonal Frobenius mass falls below this fraction of the diagonal mass
_JACOBI_MAX_SWEEPS = 64


def require_hermitian(matrix, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    """Validate and return a square Hermitian matrix as a complex array.

    Raises ValueError if the input is not square or if any entry differs
    from the conjugate of its mirror by more than ``atol``.
    """
    h = np.asarray(matrix, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if h.shape[0] < 1:
        raise ValueError("matrix must have dimension >= 1")
    deviation = np.max(np.abs(h - h.conj().T)) if h.size else 0.0
    if deviation > atol:
        raise ValueError(f"matrix is not Hermitian: max |H - H*| = {deviation:.3e} > {atol:.1e}")
    return h


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalues of a Hermitian matrix, sorted ascending.

    ``residual`` is max_k ||H v_k - w_k v_k||_2 over the computed
    eigenpairs, a direct a-posteriori quality measure.
    """

    values: np.ndarray
    residual: float


def _jacobi_rotation(app: float, aqq: float, apq: complex):
    """Return (c, s, phase) diagonalizing [[app, apq], [conj(apq), aqq]].

    The unitary is J = [[c, -s*phase], [s*conj(phase), c]] with
    phase = apq / |apq|; applying J^* H J zeroes the pivot.
    """
    mag = abs(apq)
    phase = apq / mag
    tau = (aqq - app) / (2.0 * mag)
    # stable root of t^2 - 2*tau*t - 1 = 0 (the zeroing condition)
    if abs(tau) > 1e150:
        # tau * tau would overflow; here sqrt(1 + tau^2) rounds to |tau|, so
        # both branches below give this value to the last bit
        t = -0.5 / tau
    elif tau >= 0.0:
        t = -1.0 / (tau + np.sqrt(1.0 + tau * tau))
    else:
        t = 1.0 / (-tau + np.sqrt(1.0 + tau * tau))
    c = 1.0 / np.sqrt(1.0 + t * t)
    return c, t * c, phase


def hermitian_eigenvalues(matrix, atol: float = HERMITIAN_ATOL) -> EigenResult:
    """All eigenvalues of a Hermitian matrix by cyclic Jacobi rotations.

    Sweeps run in a fixed (row-cyclic) pivot order until the off-diagonal
    Frobenius mass drops below 1e-14 of the diagonal mass, so the result
    is deterministic for identical input.
    """
    h0 = require_hermitian(matrix, atol=atol)
    dim = h0.shape[0]
    h = h0.copy()
    v = np.eye(dim, dtype=complex)

    def off_mass(m):
        off = m - np.diag(np.diag(m))
        return float(np.linalg.norm(off))

    for _ in range(_JACOBI_MAX_SWEEPS):
        diag_mass = float(np.linalg.norm(np.diag(h)))
        if off_mass(h) <= max(_JACOBI_REL_OFF * diag_mass, 1e-300):
            break
        for p in range(dim - 1):
            for q in range(p + 1, dim):
                apq = h[p, q]
                if abs(apq) <= 1e-300:
                    continue
                c, s, phase = _jacobi_rotation(h[p, p].real, h[q, q].real, apq)
                jp = np.array([[c, -s * phase], [s * np.conj(phase), c]], dtype=complex)
                h[:, [p, q]] = h[:, [p, q]] @ jp
                h[[p, q], :] = jp.conj().T @ h[[p, q], :]
                v[:, [p, q]] = v[:, [p, q]] @ jp
                # kill round-off drift on the pivot pair
                h[p, q] = 0.0
                h[q, p] = 0.0

    values = np.real(np.diag(h))
    order = np.argsort(values, kind="stable")
    values = values[order]
    vectors = v[:, order]
    residual = float(np.max(np.linalg.norm(h0 @ vectors - vectors * values, axis=0)))
    return EigenResult(values=values, residual=residual)


def is_psd(matrix, tol: float = PSD_TOL) -> tuple[bool, float]:
    """Positive-semidefinite test: (min_eigenvalue >= -tol, min_eigenvalue)."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    result = hermitian_eigenvalues(matrix)
    min_eig = float(result.values[0])
    return min_eig >= -tol, min_eig


def determinant(matrix) -> float:
    """Real determinant of a Hermitian matrix via pivoted Gaussian elimination."""
    h = require_hermitian(matrix)
    dim = h.shape[0]
    work = h.copy()
    det = complex(1.0)
    for col in range(dim):
        pivot_row = col + int(np.argmax(np.abs(work[col:, col])))
        if abs(work[pivot_row, col]) == 0.0:
            return 0.0
        if pivot_row != col:
            work[[col, pivot_row]] = work[[pivot_row, col]]
            det = -det
        pivot = work[col, col]
        det *= pivot
        factors = work[col + 1:, col] / pivot
        work[col + 1:, col:] -= np.outer(factors, work[col, col:])
    # Hermitian matrices have real determinants; the imaginary residue is
    # elimination round-off and is discarded.
    return float(det.real)


def partial_transpose(matrix, n: int) -> np.ndarray:
    """Transpose each n x n block of an n^2 x n^2 matrix in place.

    This is an involution and preserves the trace exactly.
    """
    r = np.asarray(matrix, dtype=complex)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {r.shape}")
    if n < 1 or r.shape[0] != n * n:
        raise ValueError(f"matrix side {r.shape[0]} is not the square of block size {n}")
    blocks = r.reshape(n, n, n, n)  # axes: (block row, inner row, block col, inner col)
    return blocks.transpose(0, 3, 2, 1).reshape(n * n, n * n)


def product_vector(xi, eta) -> np.ndarray:
    """Tensor product of two vectors: entry (i * dim(eta) + k) is xi_i * eta_k."""
    a = np.asarray(xi, dtype=complex).ravel()
    b = np.asarray(eta, dtype=complex).ravel()
    return np.kron(a, b)


def outer_product(zeta) -> np.ndarray:
    """Rank-one positive matrix zeta zeta*; its trace is ||zeta||^2."""
    z = np.asarray(zeta, dtype=complex).ravel()
    return np.outer(z, z.conj())
