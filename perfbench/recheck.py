"""Independent re-check of the certificates in an ``analyze`` report.

Everything is rebuilt from the serialized numbers with plain numpy,
straight from the definitions, without ``choilike``:

* Phi_A(X) = Delta_A(X) - X with Delta_A(X) = diag((A + I) diag(X));
* the block matrix C = sum_ij E_ij (x) Phi_A(E_ij), block (i, j) at rows
  i*n..(i+1)*n and columns j*n..(j+1)*n;
* the blockwise partial transpose, which transposes every n x n block.

Each check returns a list of problems; an empty list means the
certificate holds.
"""

from __future__ import annotations

import numpy as np

AGREE = 1e-9  # allowed |reported - recomputed|, relative to max(1, |recomputed|)


def phi(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    n = A.shape[0]
    return np.diag((A + np.eye(n)) @ np.real(np.diag(X))) - X


def block_matrix(A: np.ndarray) -> np.ndarray:
    n = A.shape[0]
    C = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            E = np.zeros((n, n))
            E[i, j] = 1.0
            C[i * n:(i + 1) * n, j * n:(j + 1) * n] = phi(A, E)
    return C


def witness_state(alpha: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Diagonal profile alpha[i][k] at (i,k),(i,k); cross term r[i][j] at (i,i),(j,j)."""
    n = alpha.shape[0]
    rho = np.diag(alpha.reshape(-1))
    for i in range(n):
        for j in range(i + 1, n):
            rho[i * n + i, j * n + j] = rho[j * n + j, i * n + i] = r[i, j]
    return rho


def partial_transpose(rho: np.ndarray, n: int) -> np.ndarray:
    out = np.empty_like(rho)
    for i in range(n):
        for j in range(n):
            out[i * n:(i + 1) * n, j * n:(j + 1) * n] = rho[i * n:(i + 1) * n, j * n:(j + 1) * n].T
    return out


def _disagree(reported: float, recomputed: float) -> bool:
    return abs(reported - recomputed) > AGREE * max(1.0, abs(recomputed))


def check_violation(A: np.ndarray, cert: dict, tol: float) -> list:
    p = np.asarray(cert["p"], dtype=float)
    q = np.asarray(cert["q"], dtype=float)
    n = A.shape[0]
    if p.shape != (n,) or q.shape != (n,):
        return [f"violation vectors have shapes {p.shape}, {q.shape}, expected ({n},)"]
    problems = []
    gap = float((p ** 2) @ (A + np.eye(n)) @ (q ** 2) - (p @ q) ** 2)
    if not gap < -tol:
        problems.append(f"recomputed gap {gap!r} is not below -{tol}")
    if _disagree(cert["gap"], gap):
        problems.append(f"reported gap {cert['gap']!r} != recomputed {gap!r}")
    low = float(np.linalg.eigvalsh(phi(A, np.outer(q, q)))[0])
    if not low < 0.0:
        problems.append(f"Phi(q q^T) has smallest eigenvalue {low!r} >= 0")
    if _disagree(cert["residual_check"], low):
        problems.append(f"reported residual {cert['residual_check']!r} != recomputed {low!r}")
    return problems


def check_witness(A: np.ndarray, cert: dict, tol: float) -> list:
    alpha = np.asarray(cert["alpha"], dtype=float)
    r = np.asarray(cert["r"], dtype=float)
    n = A.shape[0]
    if alpha.shape != (n, n) or r.shape != (n, n):
        return [f"witness arrays have shapes {alpha.shape}, {r.shape}, expected ({n}, {n})"]
    problems = []
    rho = witness_state(alpha, r)
    for name, mat in (("rho", rho), ("rho^Gamma", partial_transpose(rho, n))):
        low = float(np.linalg.eigvalsh(mat)[0])
        if low < -tol:
            problems.append(f"{name} has eigenvalue {low!r} < -{tol}")
    value = float(np.trace(rho @ block_matrix(A)))
    if not value < -tol:
        problems.append(f"recomputed pairing {value!r} is not below -{tol}")
    if _disagree(cert["trace_value"], value):
        problems.append(f"reported pairing {cert['trace_value']!r} != recomputed {value!r}")
    normalized = value / float(np.trace(rho))
    if _disagree(cert["normalized_value"], normalized):
        problems.append(
            f"reported normalized value {cert['normalized_value']!r} != recomputed {normalized!r}"
        )
    return problems


def check_certificates(A: np.ndarray, doc: dict, tol: float) -> list:
    problems = []
    if "violation_certificate" in doc:
        problems += check_violation(A, doc["violation_certificate"], tol)
    if "ppt_witness" in doc:
        problems += check_witness(A, doc["ppt_witness"], tol)
    return problems
