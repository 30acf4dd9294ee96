"""Numerical certificate searches.

Two one-sided certificate families are produced here:

* positivity violations: nonnegative unit vectors (p, q) at which the
  quadratic functional sum_ij (a_ij + delta_ij) p_i^2 q_j^2 - (p.q)^2
  is negative, proving the map is not positive;

* indecomposability witnesses: states with positive partial transpose,
  built from a diagonal profile plus cross terms between the (i,i) and
  (j,j) positions, whose pairing against the block matrix of the map is
  negative.

Both searches are multi-start projected gradient descent.  Per-start
randomness comes from counter-based streams derived from (seed,
start index) and the final answer is the lexicographic minimum over
(value, start index), so results are bit-identical for a fixed seed
regardless of scheduling.  Absence of a certificate proves nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .criteria import InternalInconsistencyError
from .linalg import (
    determinant,
    hermitian_eigenvalues,
    is_psd,
    partial_transpose,
    product_vector,
    outer_product,
    require_hermitian,
)
from .maps import CoefficientMatrix, apply_map, choi_matrix

_STEP_FLOOR = 1e-18
_GROW = 1.25
_SHRINK = 0.5


@dataclass(frozen=True)
class SearchConfig:
    seed: int = 0
    starts: int = 64
    max_iterations: int = 2000
    step_tolerance: float = 1e-12
    violation_tolerance: float = 1e-9

    def __post_init__(self):
        if self.starts < 1 or self.max_iterations < 1:
            raise ValueError("starts and max_iterations must be positive")
        if self.step_tolerance <= 0 or self.violation_tolerance <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class ViolationCertificate:
    """Nonnegative unit vectors with a negative positivity gap.

    ``residual_check`` is the smallest eigenvalue of the map applied to
    the rank-one input built from q; it is negative whenever the gap is,
    giving an independent matrix-level confirmation.
    """

    p: np.ndarray
    q: np.ndarray
    gap: float
    residual_check: float


@dataclass(frozen=True)
class StructuredPptState:
    """Diagonal profile alpha plus cross terms r between (i,i) and (j,j).

    alpha[i][k] is the k-th diagonal entry of diagonal block i; r is
    strictly upper triangular with r[i][j]^2 bounded by both
    alpha[i][i]*alpha[j][j] (positivity) and alpha[i][j]*alpha[j][i]
    (positivity of the blockwise transpose).
    """

    alpha: np.ndarray
    r: np.ndarray


@dataclass(frozen=True)
class PptWitnessCertificate:
    state: StructuredPptState
    trace_value: float
    normalized_value: float


class CounterexampleCheck(NamedTuple):
    image: np.ndarray
    det: float
    psd: bool
    input_psd: bool


def _as_vector(v, n: int, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float).ravel()
    if arr.shape[0] != n:
        raise ValueError(f"{name} has dimension {arr.shape[0]}, expected {n}")
    return arr


def positivity_gap(A: CoefficientMatrix, p, q) -> float:
    """Evaluate sum_ij (a_ij + delta_ij) p_i^2 q_j^2 - (sum_i p_i q_i)^2.

    Homogeneous of degree 2 in p and in q separately, so the sign is
    invariant under rescaling of either vector.
    """
    pv = _as_vector(p, A.n, "p")
    qv = _as_vector(q, A.n, "q")
    w = A.a + np.eye(A.n)
    return float((pv ** 2) @ w @ (qv ** 2) - (pv @ qv) ** 2)


def gap_decomposition(A: CoefficientMatrix, p, q, refactored: bool = False):
    """Sum-of-terms form of the positivity gap; returns (terms, total).

    The plain form groups the gap into diagonal terms a_kk p_k^2 q_k^2,
    pair squares (sqrt(a_kl) p_k q_l - sqrt(a_lk) p_l q_k)^2 and cross
    terms 2 (sqrt(a_kl a_lk) - 1) p_k p_l q_k q_l.  With ``refactored``
    the diagonal terms are spread over pairs, which folds the factor
    1/(n-1) into the cross coefficients.  Either total equals
    positivity_gap(A, p, q).
    """
    pv = _as_vector(p, A.n, "p")
    qv = _as_vector(q, A.n, "q")
    a = A.a
    n = A.n
    terms: list[float] = []
    if not refactored:
        for k in range(n):
            terms.append(float(a[k, k] * pv[k] ** 2 * qv[k] ** 2))
        for k in range(n):
            for l in range(k + 1, n):
                terms.append(
                    float(
                        (np.sqrt(a[k, l]) * pv[k] * qv[l] - np.sqrt(a[l, k]) * pv[l] * qv[k]) ** 2
                    )
                )
        for k in range(n):
            for l in range(k + 1, n):
                terms.append(
                    float(
                        2.0 * (np.sqrt(a[k, l] * a[l, k]) - 1.0) * pv[k] * pv[l] * qv[k] * qv[l]
                    )
                )
    else:
        scale = 1.0 / (n - 1)
        for k in range(n):
            for l in range(k + 1, n):
                terms.append(
                    float(
                        (
                            np.sqrt(a[k, k] * scale) * pv[k] * qv[k]
                            - np.sqrt(a[l, l] * scale) * pv[l] * qv[l]
                        )
                        ** 2
                    )
                )
        for k in range(n):
            for l in range(k + 1, n):
                terms.append(
                    float(
                        (np.sqrt(a[k, l]) * pv[k] * qv[l] - np.sqrt(a[l, k]) * pv[l] * qv[k]) ** 2
                    )
                )
        for k in range(n):
            for l in range(k + 1, n):
                terms.append(
                    float(
                        2.0
                        * (np.sqrt(a[k, k] * a[l, l]) * scale + np.sqrt(a[k, l] * a[l, k]) - 1.0)
                        * pv[k]
                        * pv[l]
                        * qv[k]
                        * qv[l]
                    )
                )
    return terms, float(sum(terms))


def _pair_seeds(A: CoefficientMatrix) -> list[tuple[np.ndarray, np.ndarray]]:
    """Closed-form two-index starting points, where defined."""
    a = A.a
    n = A.n
    seeds = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if a[j, i] <= 0.0 or a[j, j] <= 0.0 or a[i, i] <= 0.0:
                continue
            p = np.zeros(n)
            q = np.zeros(n)
            p[i] = 1.0
            p[j] = (a[i, j] * a[i, i] / (a[j, i] * a[j, j])) ** 0.25
            q[j] = 1.0
            q[i] = (a[i, j] * a[j, j] / (a[j, i] * a[i, i])) ** 0.25
            seeds.append((p / np.linalg.norm(p), q / np.linalg.norm(q)))
    return seeds


def _project_unit_nonneg(mat: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Clamp negatives to zero and renormalize rows; dead rows keep the fallback."""
    clip = np.maximum(mat, 0.0)
    norms = np.linalg.norm(clip, axis=1, keepdims=True)
    dead = norms[:, 0] <= 0.0
    out = np.divide(clip, np.where(norms > 0.0, norms, 1.0))
    if np.any(dead):
        out[dead] = fallback[dead]
    return out


def find_positivity_violation(
    A: CoefficientMatrix, cfg: SearchConfig = SearchConfig()
) -> ViolationCertificate | None:
    """Multi-start projected gradient search for a negative positivity gap.

    Starts are the closed-form pair-supported points plus uniform simplex
    samples; the projection clamps negatives and renormalizes.  Returns
    the best certificate when the optimum is below -violation_tolerance,
    otherwise None (which proves nothing).
    """
    n = A.n
    w = A.a + np.eye(n)
    starts = cfg.starts

    seeds = _pair_seeds(A)[:starts]
    ps, qs = [], []
    for p, q in seeds:
        ps.append(p)
        qs.append(q)
    for s in range(len(seeds), starts):
        rng = np.random.default_rng((cfg.seed, s))
        p = -np.log(rng.random(n))
        q = -np.log(rng.random(n))
        ps.append(p / np.linalg.norm(p))
        qs.append(q / np.linalg.norm(q))
    P = np.array(ps)
    Q = np.array(qs)

    def values(Pm, Qm):
        return ((Pm ** 2) @ w * (Qm ** 2)).sum(axis=1) - ((Pm * Qm).sum(axis=1)) ** 2

    G = values(P, Q)
    step = np.full(starts, 0.25)
    active = np.ones(starts, dtype=bool)

    for _ in range(cfg.max_iterations):
        if not np.any(active):
            break
        dots = (P * Q).sum(axis=1, keepdims=True)
        grad_p = 2.0 * P * ((Q ** 2) @ w.T) - 2.0 * dots * Q
        grad_q = 2.0 * Q * ((P ** 2) @ w) - 2.0 * dots * P
        newP = _project_unit_nonneg(P - step[:, None] * grad_p, P)
        newQ = _project_unit_nonneg(Q - step[:, None] * grad_q, Q)
        newG = values(newP, newQ)
        improved = active & (newG < G)
        P = np.where(improved[:, None], newP, P)
        Q = np.where(improved[:, None], newQ, Q)
        gain = np.where(improved, G - newG, 0.0)
        G = np.where(improved, newG, G)
        step = np.where(improved, step * _GROW, np.where(active, step * _SHRINK, step))
        active = active & ~(improved & (gain < cfg.step_tolerance))
        active = active & (step > _STEP_FLOOR)

    best = int(np.argmin(G))  # first minimal index: lexicographic (value, start)
    p_best, q_best = P[best], Q[best]
    gap = positivity_gap(A, p_best, q_best)
    if gap >= -cfg.violation_tolerance:
        return None
    residual = float(hermitian_eigenvalues(apply_map(A, outer_product(q_best))).values[0])
    return ViolationCertificate(p=p_best, q=q_best, gap=gap, residual_check=residual)


def verify_counterexample(A: CoefficientMatrix, X) -> CounterexampleCheck:
    """Apply the map to X and report the determinant and both PSD flags."""
    x = require_hermitian(X)
    image = apply_map(A, x)
    det = determinant(image)
    image_psd, _ = is_psd(image)
    input_psd, _ = is_psd(x)
    return CounterexampleCheck(image=image, det=det, psd=image_psd, input_psd=input_psd)


def block_positivity_value(C, xi, eta) -> float:
    """Quadratic form of a block matrix at the product vector xi (x) eta."""
    c = require_hermitian(C)
    v = product_vector(xi, eta)
    if v.shape[0] != c.shape[0]:
        raise ValueError(
            f"product vector dimension {v.shape[0]} does not match matrix side {c.shape[0]}"
        )
    val = complex(v.conj() @ c @ v)
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise ValueError(f"quadratic form has non-real value {val!r}")
    return float(val.real)


def maximal_cross_terms(alpha: np.ndarray) -> np.ndarray:
    """Largest cross terms allowed by both partial-transpose caps."""
    n = alpha.shape[0]
    r = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            r[i, j] = min(
                np.sqrt(alpha[i, i] * alpha[j, j]), np.sqrt(alpha[i, j] * alpha[j, i])
            )
    return r


def assemble_structured_state(alpha: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Build the full state: diagonal from alpha, cross terms at ((i,i),(j,j))."""
    n = alpha.shape[0]
    rho = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for k in range(n):
            rho[i * n + k, i * n + k] = alpha[i, k]
    for i in range(n):
        for j in range(i + 1, n):
            rho[i * n + i, j * n + j] = r[i, j]
            rho[j * n + j, i * n + i] = r[i, j]
    return rho


def structured_ppt_value(A: CoefficientMatrix, alpha) -> float:
    """Pairing of the structured family against the map's block matrix.

    Equals Tr(rho C) for the assembled state with maximal cross terms:
    the diagonal profile pays sum_{i,k} a_ki alpha[i][k] (the orientation
    is fixed by direct block accounting) and each pair contributes
    -2 min(sqrt(alpha_ii alpha_jj), sqrt(alpha_ij alpha_ji)).
    """
    al = np.asarray(alpha, dtype=float)
    if al.shape != (A.n, A.n):
        raise ValueError(f"alpha must be {A.n} x {A.n}, got {al.shape}")
    if np.min(al) < 0.0:
        raise ValueError("alpha entries must be nonnegative")
    diag_cost = float(np.sum(A.a.T * al))
    r = maximal_cross_terms(al)
    return diag_cost - 2.0 * float(np.sum(r))


def psd_feasible_cross_terms(alpha: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, float]:
    """Scale cross terms down until the coupled submatrix is positive.

    The submatrix on the (i,i) positions is diag(alpha_ii) + t (r + r^T);
    its smallest eigenvalue is concave in t, so the feasible region is an
    interval [0, t_max] and a bisection finds the largest usable factor.
    Returns (t * r, t).
    """
    base = np.diag(np.diag(alpha))
    sym = r + r.T
    scale = max(1.0, float(np.max(np.abs(base))), float(np.max(np.abs(sym))))
    tol = 1e-12 * scale

    def feasible(t: float) -> bool:
        return is_psd(base + t * sym, tol=tol)[0]

    if feasible(1.0):
        return r, 1.0
    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = (lo + hi) / 2.0
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo * r, lo


def _project_simplex_rows(mat: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex."""
    s = np.sort(mat, axis=1)[:, ::-1]
    css = np.cumsum(s, axis=1) - 1.0
    idx = np.arange(1, mat.shape[1] + 1)
    cond = s - css / idx > 0.0
    rho = cond.shape[1] - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = css[np.arange(mat.shape[0]), rho] / (rho + 1.0)
    return np.maximum(mat - theta[:, None], 0.0)


def _probe_seeds(A: CoefficientMatrix, starts: int, seed: int) -> np.ndarray:
    """Pattern seeds loading the zero-cost positions, then uniform draws."""
    n = A.n
    cost = A.a.T  # cost[i, k] multiplies alpha[i, k]
    off = ~np.eye(n, dtype=bool)
    seeds = []
    for m in (2.0, 4.0, 8.0):
        al = np.eye(n)
        free = off & (cost <= 0.0)
        al[free] = m
        al[off & ~free] = 1.0 / m
        seeds.append(al / al.sum())
    seeds.append(np.full((n, n), 1.0 / (n * n)))
    seeds = seeds[:starts]
    for s in range(len(seeds), starts):
        rng = np.random.default_rng((seed, s))
        al = -np.log(rng.random((n, n)))
        seeds.append(al / al.sum())
    return np.array(seeds)


_PROBE_EPS = 1e-14  # floor on alpha in the gradient's square-root ratios


# Sums run through a sequential cumsum in pair order (diagonal gradient
# entries: increasing partner index), so every float is rounded as in a
# plain loop over the pairs; ndarray.sum is pairwise and would differ.
def _structured_values(al: np.ndarray, cost: np.ndarray, I: np.ndarray, J: np.ndarray):
    """structured_ppt_value of each profile in the stack ``al``."""
    v = (al * cost).sum(axis=(1, 2))
    m = np.minimum(np.sqrt(al[:, I, I] * al[:, J, J]), np.sqrt(al[:, I, J] * al[:, J, I]))
    return np.concatenate([v[:, None], -2.0 * m], axis=1).cumsum(axis=1)[:, -1]


def _structured_gradients(al: np.ndarray, cost: np.ndarray, I: np.ndarray, J: np.ndarray):
    """Gradient of structured_ppt_value at each profile, entries clamped to _PROBE_EPS.

    Each pair {i, j} differentiates the branch of its min that is
    smaller at the clamped profile.  The entries are also the
    coefficients of a linear minorant of the value (see
    indecomposability_probe), so min over k of g_k bounds the minimum
    over the simplex from below.
    """
    diag = np.arange(al.shape[1])
    safe = np.maximum(al, _PROBE_EPS)
    d = safe[:, diag, diag]
    use_diag = np.sqrt(d[:, I] * d[:, J]) <= np.sqrt(safe[:, I, J] * safe[:, J, I])
    diag_branch = np.zeros(al.shape, dtype=bool)  # pair {i, j} on its sqrt(al_ii al_jj) branch
    diag_branch[:, I, J] = use_diag
    diag_branch[:, J, I] = use_diag
    cross_branch = ~diag_branch
    cross_branch[:, diag, diag] = False
    # each off-diagonal entry takes the term of its own pair only
    g = cost - np.where(cross_branch, np.sqrt(safe.transpose(0, 2, 1) / safe), 0.0)
    # g[i, i] takes sqrt(alpha_jj / alpha_ii) from every pair {i, j} on the diagonal branch
    terms = np.where(diag_branch, np.sqrt(d[:, None, :] / d[:, :, None]), 0.0)
    start = np.broadcast_to(cost[diag, diag], d.shape)[:, :, None]
    g[:, diag, diag] = np.concatenate([start, -terms], axis=2).cumsum(axis=2)[:, :, -1]
    return g


def indecomposability_probe(
    A: CoefficientMatrix, cfg: SearchConfig = SearchConfig()
) -> PptWitnessCertificate | None:
    """Minimize the structured pairing over diagonal profiles on the simplex.

    On success the witness state is assembled, its positivity and the
    positivity of its blockwise transpose are verified (shrinking the
    cross terms when the maximal choice overshoots the positive cone),
    and the certificate stores the directly evaluated trace pairing.
    Returns None when no verified witness below -violation_tolerance is
    found, which proves nothing.  A witness that fails its eigenvalue
    verification raises InternalInconsistencyError.

    Early exit.  The objective F(alpha) = sum c_ik alpha_ik
    - 2 sum_{i<j} min(sqrt(alpha_ii alpha_jj), sqrt(alpha_ij alpha_ji))
    is convex (a geometric mean is concave, and so is a minimum of
    concave terms).  AM-GM gives sqrt(xy) <= (s x + y / s) / 2 for every
    s > 0, so at any profile beta the gradient g(beta) -- whichever branch
    each pair is on, with the clamped entries -- is the coefficient
    vector of a linear minorant of F, and min_k g_k(beta) <= F(alpha)
    for every alpha on the simplex.  Once that bound exceeds
    -violation_tolerance by more than the rounding of F and g, no start
    can end below the tolerance, and the probe returns None at once: the
    full run would have returned None too, so the result is unchanged.
    """
    n = A.n
    cost = A.a.T
    alphas = _probe_seeds(A, cfg.starts, cfg.seed)
    S = alphas.shape[0]
    I, J = np.triu_indices(n, 1)
    # F and g are sums of fewer than n^2 terms with partial sums below max a + n,
    # so either one rounds off by far less than this margin
    no_witness = -cfg.violation_tolerance + 1e-14 * n * n * (n + float(A.a.max()))

    F = _structured_values(alphas, cost, I, J)
    step = np.full(S, 0.1)
    active = np.ones(S, dtype=bool)
    flat = alphas.reshape(S, n * n)

    for _ in range(cfg.max_iterations):
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        cur = flat[rows]
        grad = _structured_gradients(cur.reshape(-1, n, n), cost, I, J).reshape(-1, n * n)
        if grad.min(axis=1).max() > no_witness:
            return None
        proposal = _project_simplex_rows(cur - step[rows, None] * grad)
        newF = _structured_values(proposal.reshape(-1, n, n), cost, I, J)
        improved = newF < F[rows]
        gain = F[rows] - newF
        won = rows[improved]
        flat[won] = proposal[improved]
        F[won] = newF[improved]
        step[rows] = np.where(improved, step[rows] * _GROW, step[rows] * _SHRINK)
        active[rows[improved & (gain < cfg.step_tolerance)]] = False
        active &= step > _STEP_FLOOR

    best = int(np.argmin(F))
    alpha = flat[best].reshape(n, n)
    if F[best] >= -cfg.violation_tolerance:
        return None

    r, _ = psd_feasible_cross_terms(alpha, maximal_cross_terms(alpha))

    rho = assemble_structured_state(alpha, r)
    c_matrix = choi_matrix(A)
    trace_value = float(np.trace(rho @ c_matrix).real)
    if trace_value >= -cfg.violation_tolerance:
        return None
    rho_ok, rho_min = is_psd(rho, tol=cfg.violation_tolerance)
    gamma_ok, gamma_min = is_psd(partial_transpose(rho, n), tol=cfg.violation_tolerance)
    if not (rho_ok and gamma_ok):
        raise InternalInconsistencyError(
            f"witness verification failed: min eigenvalues {rho_min!r}, {gamma_min!r}"
        )
    total = float(np.trace(rho).real)
    return PptWitnessCertificate(
        state=StructuredPptState(alpha=alpha, r=r),
        trace_value=trace_value,
        normalized_value=trace_value / total,
    )
