"""Reference objects that only the tests use.

The analysis works on n x n matrices and never builds a matrix of side
n^2 or a product vector.  The tests do, to check the n x n shortcuts
against the textbook objects: the block (Choi) matrix and its partial
transpose, the shift average, the rescaled constant maps with their
dominance certificate, the sum-of-squares split of the positivity gap,
the per-pair bounds that the pairwise rows take the least of, and the
paper's witness vectors.  It also keeps earlier forms of five hot
paths: the violation descent with masks over every start, the n = 3
slot reads and the coefficient checks as numpy calls, which the faster
forms in the package must match bit for bit, the pair seeds as a loop,
which they match up to the rounding of each seed's norm, and the witness
probe's root closed to adjacent floats, which the package's root must
match to within the rounding of lambda_min(T_lam).  Test files import
this module as ``oracles``.

Block conventions are those of ``choilike.linalg``: a matrix of side n^2
is an n x n grid of n x n blocks, with row index i * n + k addressing
entry k of block row i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from choilike import search
from choilike.criteria import (
    DEFAULT_MARGIN_BAND,
    FAILS,
    HOLDS,
    Verdict,
    affirmative,
    ckl_is_positive,
    make_verdict,
    not_applicable,
    require_tolerance,
)
from choilike.linalg import UNIT_ROUNDING, hermitian_eigenvalues, outer_product, require_hermitian
from choilike.maps import (
    COEFFICIENT_RANGE,
    NEGATIVE_CLAMP,
    CklParams,
    CoefficientMatrix,
    FormClass,
    apply_map,
    structured_matrix,
    validate_coefficients,
)
from choilike.search import _as_vector


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


def choi_matrix(A: CoefficientMatrix) -> np.ndarray:
    """Block matrix (Phi_A(E_ij))_{ij} over the matrix units E_ij.

    Block row/column are indexed by the unit indices, so block (i, i)
    carries column i of A on its diagonal and block (i, j), i != j,
    carries a single -1 at inner position (i, j).  The trace collects
    every coefficient of A exactly once.
    """
    n = A.n
    c = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for k in range(n):
            c[i * n + k, i * n + k] = A.a[k, i]
        for j in range(n):
            if i != j:
                c[i * n + i, j * n + j] = -1.0
    return c


_SHIFT = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)  # S e_i = e_{i+1} cyclically


def shift_average(A: CoefficientMatrix, X) -> np.ndarray:
    """Average Phi_A over conjugation by the cyclic shift.

    The result equals Phi of the constant cyclic matrix built from
    averaged_params(A), applied to the same X.
    """
    A._require_n3()
    x = require_hermitian(X)
    if x.shape[0] != 3:
        raise ValueError("shift averaging is defined for 3 x 3 inputs")
    s = _SHIFT
    term1 = apply_map(A, x)
    term2 = s @ apply_map(A, s.T @ x @ s) @ s.T
    term3 = s.T @ apply_map(A, s @ x @ s.T) @ s
    return (term1 + term2 + term3) / 3.0


def constant_ckl_matrix(params: CklParams) -> CoefficientMatrix:
    """The constant cyclic coefficient matrix [[a,b,c],[c,a,b],[b,c,a]]."""
    a, b, c = params.a, params.b, params.c
    return validate_coefficients([[a, b, c], [c, a, b], [b, c, a]])


@dataclass(frozen=True)
class ScalingVector:
    """Three strictly positive diagonal scaling weights."""

    p: tuple[float, float, float]

    def __post_init__(self):
        if len(self.p) != 3 or min(self.p) <= 0:
            raise ValueError("scaling vector needs three strictly positive entries")


def scaled_ckl_matrix(params: CklParams, scaling: ScalingVector) -> CoefficientMatrix:
    """Diagonal rescaling of a constant cyclic matrix.

    With weights p the entries become a_i = a, b_i = (p_{i+1}/p_i) b and
    c_i = (p_{i+2}/p_i) c (cyclic indices), which preserves the geometric
    means b* = b, c* = c and the products b_i c_{i+1} = b c.  The
    resulting map is Phi_A(X) = V^{-1/2} Phi_[a,b,c](V^{1/2} X V^{1/2}) V^{-1/2}
    for V = diag(p).
    """
    p = np.asarray(scaling.p, dtype=float)
    a, b, c = params.a, params.b, params.c
    out = np.empty((3, 3))
    for i in range(3):
        out[i, i] = a
    # b slots (i, i+1), c slots (i, i+2), cyclic
    for i in range(3):
        out[i, (i + 1) % 3] = p[(i + 1) % 3] / p[i] * b
        out[i, (i + 2) % 3] = p[(i + 2) % 3] / p[i] * c
    return validate_coefficients(out)


def scaling_sufficient(
    A: CoefficientMatrix,
    params: CklParams,
    scaling: ScalingVector,
    band: float = DEFAULT_MARGIN_BAND,
) -> Verdict:
    """Entrywise-dominance certificate against a rescaled constant map.

    Requires positive constant coefficients; holds when every entry of
    A - (rescaled constant matrix) is >= -1e-12, proving positivity.
    """
    if A.n != 3:
        return not_applicable("defined for n = 3 only")
    if not affirmative(ckl_is_positive(params, band)):
        raise ValueError("reference constant coefficients do not define a positive map")
    reference = scaled_ckl_matrix(params, scaling)
    margin = float(np.min(A.a - reference.a))
    status = HOLDS if margin >= -1e-12 else FAILS
    return Verdict(status, margin, "minimum entry of the dominance gap matrix")


def pairwise_necessary_by_pair(
    A: CoefficientMatrix, band: float = DEFAULT_MARGIN_BAND
) -> list[tuple[tuple[int, int], Verdict]]:
    """The necessary bound sqrt(a_ii a_jj) + sqrt(a_ij a_ji) >= 1 on each pair i < j.

    One 1-based ``((i, j), Verdict)`` per pair, in (i, j) order; a pair
    with a_ij a_ji = 0 notes the degeneracy in its detail.
    """
    out = []
    a = A.a
    for i in range(A.n):
        for j in range(i + 1, A.n):
            cross = a[i, j] * a[j, i]
            margin = math.sqrt(a[i, i] * a[j, j]) + math.sqrt(cross) - 1.0
            detail = f"pair ({i + 1},{j + 1})"
            if cross == 0.0:
                detail += "; degenerate cross product a_ij*a_ji = 0"
            out.append(((i + 1, j + 1), make_verdict(margin, band, detail)))
    return out


def pairwise_sufficient_by_pair(
    A: CoefficientMatrix, band: float = DEFAULT_MARGIN_BAND
) -> list[tuple[tuple[int, int], Verdict]]:
    """The sufficient bound sqrt(a_ii a_jj)/(n-1) + sqrt(a_ij a_ji) >= 1 on each pair i < j.

    One 1-based ``((i, j), Verdict)`` per pair, in (i, j) order.
    """
    out = []
    a = A.a
    for i in range(A.n):
        for j in range(i + 1, A.n):
            margin = (
                math.sqrt(a[i, i] * a[j, j]) / (A.n - 1)
                + math.sqrt(a[i, j] * a[j, i])
                - 1.0
            )
            out.append(((i + 1, j + 1), make_verdict(margin, band, f"pair ({i + 1},{j + 1})")))
    return out


def cyclic_form_witness(a1: float, a2: float, a3: float) -> np.ndarray:
    """Block-positivity test vector for cyclic matrices with constant b, c."""
    return np.array(
        [
            (a2 * a3 / a1) ** (1.0 / 12.0),
            (a1 * a3 / a2) ** (1.0 / 12.0),
            (a1 * a2 / a3) ** (1.0 / 12.0),
        ],
        dtype=complex,
    )


def zero_pattern_witnesses(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Block-positivity test pair (xi, eta) for zero-c-slot matrices.

    ``a`` and ``b`` are the diagonals (a1, a2, a3) and the positive b
    slots (b1, b2, b3).  Under the block convention above (units in
    the first tensor factor) the certifying product vector is eta (x) xi;
    its value is (sum_i a_i^(1/3) / a*) (a* + b*- 2).
    """
    a1, a2, a3 = a
    b1, b2, b3 = b
    sixth = 1.0 / 6.0
    xi = np.array(
        [
            a1 ** -sixth * b1 ** -sixth * b3 ** sixth,
            a2 ** -sixth * b2 ** -sixth * b1 ** sixth,
            a3 ** -sixth * b3 ** -sixth * b2 ** sixth,
        ],
        dtype=complex,
    )
    eta = np.array(
        [
            a1 ** -sixth * b1 ** sixth * b3 ** -sixth,
            a2 ** -sixth * b2 ** sixth * b1 ** -sixth,
            a3 ** -sixth * b3 ** sixth * b2 ** -sixth,
        ],
        dtype=complex,
    )
    return xi, eta


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
    a, n = A.a, A.n
    pairs = [(k, l) for k in range(n) for l in range(k + 1, n)]
    if refactored:
        c = 1.0 / (n - 1)
        head = [
            (np.sqrt(a[k, k] * c) * pv[k] * qv[k] - np.sqrt(a[l, l] * c) * pv[l] * qv[l]) ** 2
            for k, l in pairs
        ]
        weights = [np.sqrt(a[k, k] * a[l, l]) * c + np.sqrt(a[k, l] * a[l, k]) for k, l in pairs]
    else:
        head = [a[k, k] * pv[k] ** 2 * qv[k] ** 2 for k in range(n)]
        weights = [np.sqrt(a[k, l] * a[l, k]) for k, l in pairs]
    squares = [
        (np.sqrt(a[k, l]) * pv[k] * qv[l] - np.sqrt(a[l, k]) * pv[l] * qv[k]) ** 2 for k, l in pairs
    ]
    cross = [2.0 * (w - 1.0) * pv[k] * pv[l] * qv[k] * qv[l] for w, (k, l) in zip(weights, pairs)]
    terms = [float(t) for t in head + squares + cross]
    return terms, float(sum(terms))


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


def numpy_validate_coefficients(raw) -> CoefficientMatrix:
    """maps.validate_coefficients with every check a numpy reduction over the whole array."""
    a = np.asarray(raw)
    if a.dtype.kind not in "iuf":
        raise ValueError(f"coefficient matrix entries must be numbers, got {a.dtype} entries")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"coefficient matrix must be square, got shape {a.shape}")
    if any(isinstance(v, bool) for row in raw for v in row):
        raise ValueError("coefficient matrix entries must be numbers, got a boolean")
    a = a.astype(float)
    n = a.shape[0]
    if n < 2:
        raise ValueError("coefficient matrix needs n >= 2")
    if not np.all(np.isfinite(a)):
        raise ValueError("coefficient matrix entries must be finite")
    if np.min(a) < -NEGATIVE_CLAMP:
        i, j = np.unravel_index(int(np.argmin(a)), a.shape)
        raise ValueError(f"negative coefficient a[{i + 1}][{j + 1}] = {a[i, j]}")
    a = np.where(a <= 0.0, 0.0, a)
    low, high = COEFFICIENT_RANGE
    outside = (a != 0.0) & ((a < low) | (a > high))
    if outside.any():
        i, j = np.argwhere(outside)[0]
        raise ValueError(
            f"nonzero coefficient a[{i + 1}][{j + 1}] = {a[i, j]} outside [{low}, {high}]"
        )
    return CoefficientMatrix(n=n, a=a)


def loop_pair_seeds(A: CoefficientMatrix) -> np.ndarray:
    """search._pair_seeds as a loop over the pairs, each seed normalized by np.linalg.norm."""
    a = A.a
    n = A.n
    seeds = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if a[j, i] <= 0.0 or a[j, j] <= 0.0 or a[i, i] <= 0.0:
                continue
            q = np.zeros(n)
            q[j] = 1.0
            q[i] = (a[i, j] * a[j, j] / (a[j, i] * a[i, i])) ** 0.25
            seeds.append(q / np.linalg.norm(q))
    return np.reshape(seeds, (-1, n))


def adjacent_float_root(a: np.ndarray, floor: float) -> float:
    """search._structured_root run until its bracket [lo, hi] is two adjacent floats.

    The same Illinois regula falsi on lambda_min(T_lam) itself, with the
    midpoint first and while lambda_min(T_lo) = 0; it returns the end hi,
    where lambda_min(T_hi) < 0 and the float below is floor or has
    lambda_min >= 0.
    """
    lo, hi = floor, 0.0
    f_lo, f_hi = None, floor  # lambda_min(T_0) = floor
    kept = 0  # +1 after hi moved, -1 after lo moved
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        f = float(np.linalg.eigvalsh(structured_matrix(a - mid))[0])
        if f < 0.0:
            if kept > 0 and f_lo is not None:
                f_lo *= 0.5
            hi, f_hi, kept = mid, f, 1
        else:
            if kept < 0:
                f_hi *= 0.5
            lo, f_lo, kept = mid, f, -1
        mid = 0.5 * (lo + hi)
        if f_lo and lo < mid < hi:  # neither None nor 0.0
            guess = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
            mid = min(max(guess, math.nextafter(lo, hi)), math.nextafter(hi, lo))
    return hi


def masked_violation_search(
    A: CoefficientMatrix, tolerance: float = DEFAULT_MARGIN_BAND
) -> search.ViolationCertificate | None:
    """search.find_positivity_violation as a masked loop over full arrays of every start.

    Each step gathers the active rows, and scatters the accepted ones
    back; the package keeps only the moving rows instead.  After each
    evaluation the least start among the rows just evaluated is a
    certificate once its value and its direct gap are below -tolerance.
    Both must give the same certificate bit for bit and solve the same
    rows in the same order, so the helpers are looked up on ``search`` at
    each call.
    """
    require_tolerance(tolerance)
    if A.decomposition_verified:
        return None
    w = A.a + np.eye(A.n)
    Q = search._start_points(A)
    G, P, grad = search._eliminate_p(w, Q)
    step = np.full(len(Q), 0.25)
    active = np.ones(len(Q), dtype=bool)
    run = np.flatnonzero(active)  # the starts of the latest evaluation

    for steps in range(search._MAX_ITERATIONS + 1):
        low = run[int(np.argmin(G[run]))]  # first minimal index: the least start among ties
        gap = search.positivity_gap(A, P[low], Q[low]) if G[low] < -tolerance else 0.0
        if gap < -tolerance:
            residual = float(hermitian_eigenvalues(apply_map(A, outer_product(Q[low])))[0])
            return search.ViolationCertificate(p=P[low], q=Q[low], gap=gap, residual_check=residual)
        run = np.flatnonzero(active)
        if steps == search._MAX_ITERATIONS or not run.size:
            return None
        newQ = search._project_unit_nonneg(Q[run] - step[run, None] * grad[run], Q[run])
        newG, newP, newGrad = search._eliminate_p(w, newQ)
        improved = newG < G[run]
        step[run] = search._next_step(step[run], improved, newQ - Q[run], newGrad - grad[run])
        won = run[improved]
        gain = G[won] - newG[improved]
        Q[won], P[won], grad[won] = newQ[improved], newP[improved], newGrad[improved]
        G[won] = newG[improved]
        active[won[gain < search._STEP_TOLERANCE]] = False
        reach = np.abs(search._tangent_gradient(Q[run], grad[run])).max(axis=1)
        over = reach > 2.0 / step[run]  # such a step cannot move a unit q any further
        step[run[over]] = 2.0 / reach[over]
        active[run] &= step[run] * reach > UNIT_ROUNDING


def _numpy_slots(A: CoefficientMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a_1, a_2, a_3), (b_1, b_2, b_3) and (c_1, c_2, c_3) as numpy arrays; n = 3 only."""
    A._require_n3()
    a = A.a
    b = np.array([a[0, 1], a[1, 2], a[2, 0]])
    c = np.array([a[0, 2], a[1, 0], a[2, 1]])
    return np.diag(a).copy(), b, c


def numpy_averaged_params(A: CoefficientMatrix) -> CklParams:
    """maps.averaged_params, by numpy reductions over the slot arrays."""
    a, b, c = _numpy_slots(A)
    return CklParams(a=float(np.mean(a)), b=float(np.mean(b)), c=float(np.mean(c)))


def numpy_geometric_means(A: CoefficientMatrix) -> CklParams:
    """maps.geometric_means, by numpy reductions over the slot arrays."""
    a, b, c = _numpy_slots(A)
    return CklParams(
        a=float(np.prod(a) ** (1.0 / 3.0)),
        b=float(np.prod(b) ** (1.0 / 3.0)),
        c=float(np.prod(c) ** (1.0 / 3.0)),
    )


def numpy_cyclic_cap(A: CoefficientMatrix) -> float:
    """maps.cyclic_cap, min_i b_i c_{i+1}, by numpy over the slot arrays."""
    _, b, c = _numpy_slots(A)
    return float(np.min(b * np.roll(c, -1)))


def numpy_classify_form(A: CoefficientMatrix) -> FormClass:
    """maps.classify_form, with each pattern tested by numpy over the slot arrays."""
    if A.n != 3:
        return FormClass(tag="general")
    a, b, c = _numpy_slots(A)

    def constant(values):
        return bool(np.all(values == values[0]))

    if constant(a) and constant(b) and constant(c):
        return FormClass(
            tag="constant_ckl", parameters={"a": float(a[0]), "b": float(b[0]), "c": float(c[0])}
        )
    if constant(a) and not np.any(b):
        return FormClass(
            tag="kye_form",
            parameters={"a": float(a[0]), "c1": float(c[0]), "c2": float(c[1]), "c3": float(c[2])},
        )
    if not np.any(c) and bool(np.all(b > 0.0)):
        return FormClass(
            tag="b_only",
            parameters={
                "a1": float(a[0]), "a2": float(a[1]), "a3": float(a[2]),
                "b1": float(b[0]), "b2": float(b[1]), "b3": float(b[2]),
            },
        )
    if constant(b) and constant(c):
        return FormClass(
            tag="cyclic_bc",
            parameters={
                "a1": float(a[0]), "a2": float(a[1]), "a3": float(a[2]),
                "b": float(b[0]), "c": float(c[0]),
            },
        )
    return FormClass(tag="general")
