"""Dense complex linear algebra for small Hermitian problems.

Everything here is sized for small matrices: an analysis works on
n x n matrices with n <= 16.  The block matrices of side n^2 are built
only in the tests' reference module, tests/oracles.py.  Eigenvalues
and determinants come from numpy's LAPACK routines behind a Hermitian
input check.  LAPACK is deterministic for identical input on one
machine and numpy build, so reports are byte-identical there; across
builds the low-order bits may differ.

Block conventions used throughout the package: a matrix of side n^2 is
read as an n x n grid of n x n blocks, with global row index
(i - 1) * n + k addressing entry k of block row i (1-based in the
formulas, 0-based in code).
"""

from __future__ import annotations

import numpy as np

HERMITIAN_ATOL = 1e-12
UNIT_ROUNDING = 2.0 ** -52  # spacing of doubles just above 1


def require_hermitian(matrix) -> np.ndarray:
    """Validate and return a square Hermitian matrix as a complex array.

    Raises ValueError if the input is not square or if any entry differs
    from the conjugate of its mirror by more than HERMITIAN_ATOL.
    """
    h = np.asarray(matrix, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if h.shape[0] < 1:
        raise ValueError("matrix must have dimension >= 1")
    deviation = np.max(np.abs(h - h.conj().T)) if h.size else 0.0
    if deviation > HERMITIAN_ATOL:
        raise ValueError(
            f"matrix is not Hermitian: max |H - H*| = {deviation:.3e} > {HERMITIAN_ATOL:.1e}"
        )
    return h


def hermitian_eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending, by numpy.linalg.eigvalsh (LAPACK)."""
    return np.linalg.eigvalsh(require_hermitian(matrix))


def least_eigenvalue(matrix: np.ndarray) -> tuple[float, float]:
    """(lambda_min, n 2^-52 ||matrix||_2) of a real symmetric matrix, from one eigvalsh.

    eigvalsh is backward stable, so the second bounds the rounding of the first.
    """
    eigenvalues = np.linalg.eigvalsh(matrix)
    low = float(eigenvalues[0])
    return low, matrix.shape[0] * UNIT_ROUNDING * max(-low, float(eigenvalues[-1]))


def is_psd(matrix, tol: float) -> tuple[bool, float]:
    """Positive-semidefinite test: (min_eigenvalue >= -tol, min_eigenvalue)."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    min_eig = float(hermitian_eigenvalues(matrix)[0])
    return min_eig >= -tol, min_eig


def determinant(matrix) -> float:
    """Real determinant of a Hermitian matrix (LU through numpy.linalg.det)."""
    # a Hermitian matrix has a real determinant; the imaginary residue is round-off
    return float(np.linalg.det(require_hermitian(matrix)).real)


def outer_product(zeta) -> np.ndarray:
    """Rank-one positive matrix zeta zeta*; its trace is ||zeta||^2."""
    z = np.asarray(zeta, dtype=complex).ravel()
    return np.outer(z, z.conj())
