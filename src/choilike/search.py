"""Numerical certificate searches.

Two one-sided certificate families are produced here:

* positivity violations: nonnegative unit vectors (p, q) at which the
  quadratic functional sum_ij (a_ij + delta_ij) p_i^2 q_j^2 - (p.q)^2
  is negative, proving the map is not positive;

* indecomposability witnesses: states with positive partial transpose,
  built from a diagonal profile plus cross terms between the (i,i) and
  (j,j) positions, whose pairing against the block matrix of the map is
  negative.

The violation search is multi-start projected gradient descent over q,
with the best p for each q in closed form, an n x n least eigenvector,
and a two-point (Barzilai-Borwein) step per start.  Its starts are a
fixed function of A: every closed-form pair seed, then 16 rows from one
generator with a fixed seed, built once per side n.  It returns at the
first evaluation whose least (value, start index) row is below
-tolerance and confirmed by the gap evaluated directly, so results are
bit-identical for a given A.  The witness probe has no starts and no
randomness: it takes the closed-form optimum of its structured family,
the root of an n x n eigenvalue in one scalar, found by regula falsi up
to the rounding of that eigenvalue, and verifies the witness on the
n x n and 2 x 2 blocks into which the state and its partial transpose
split, without building a matrix of side n^2.
Absence of a certificate proves nothing.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .criteria import DEFAULT_MARGIN_BAND, InternalInconsistencyError, require_tolerance
from .linalg import (
    determinant,
    hermitian_eigenvalues,
    is_psd,
    outer_product,
    require_hermitian,
)
from .maps import CoefficientMatrix, apply_map, structured_matrix, structured_rounding

_GROW = 1.25
_SHRINK = 0.5
_MAX_ITERATIONS = 2000
_STEP_TOLERANCE = 1e-12  # a start whose accepted step gains less than this stops
_UNIT_ROUNDING = 2.0 ** -52  # spacing of doubles just above 1: the least move of a unit q
_RANDOM_STARTS = 16  # random rows of the violation search, beside every pair seed


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
class PptWitnessCertificate:
    """A PPT state: diagonal profile alpha plus cross terms r between (i,i) and (j,j).

    alpha[i][k] is the k-th diagonal entry of diagonal block i; r is
    strictly upper triangular with r[i][j]^2 bounded by both
    alpha[i][i]*alpha[j][j] (positivity) and alpha[i][j]*alpha[j][i]
    (positivity of the blockwise transpose).  trace_value is its pairing
    Tr(rho C) with the block matrix C, and normalized_value that over Tr(rho).
    """

    alpha: np.ndarray
    r: np.ndarray
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


def _pair_seeds(A: CoefficientMatrix) -> np.ndarray:
    """Closed-form two-index starting points q, where defined, one per row.

    The pair (i, j), i != j, in row-major order, gives q_j = 1 and
    q_i = (a_ij a_jj / (a_ji a_ii))^(1/4), normalized, when a_ji, a_ii and
    a_jj are positive.  The fourth roots are Python float powers, the libm
    pow of numpy's scalar power; its vectorized power may differ in the
    last bit.
    """
    a = A.a
    diag = a.diagonal()
    live = diag > 0.0
    pairs = (a.T > 0.0) & live[:, None] & live
    pairs.flat[:: A.n + 1] = False  # i != j
    i, j = pairs.nonzero()
    ratio = a[i, j] * diag[j] / (a[j, i] * diag[i])
    t = np.array([r ** 0.25 for r in ratio.tolist()])
    seeds = np.zeros((i.size, A.n))
    rows = np.arange(i.size)
    seeds[rows, j] = 1.0
    seeds[rows, i] = t
    return seeds / np.sqrt(1.0 + t * t)[:, None]


@functools.cache  # one read-only array per (n, count)
def _random_rows(n: int, count: int) -> np.ndarray:
    """count unit rows: -log of uniform draws from a new generator of fixed seed, normalized."""
    draws = -np.log(np.random.default_rng(42).random((count, n)))
    rows = draws / np.linalg.norm(draws, axis=1, keepdims=True)
    rows.setflags(write=False)
    return rows


def _start_points(A: CoefficientMatrix) -> np.ndarray:
    """The rows q of the violation search: every pair seed, then _RANDOM_STARTS random points.

    The start set is a function of A alone, returned in a new array.
    """
    return np.concatenate([_pair_seeds(A), _random_rows(A.n, _RANDOM_STARTS)])


def _project_unit_nonneg(mat: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Clamp negatives to zero and renormalize rows; dead rows keep the fallback."""
    clip = np.maximum(mat, 0.0)
    norms = np.sqrt((clip * clip).sum(axis=1, keepdims=True))  # np.linalg.norm's own formula
    live = norms > 0.0
    if live.all():
        return clip / norms
    dead = norms[:, 0] <= 0.0
    out = np.divide(clip, np.where(live, norms, 1.0))
    if np.any(dead):
        out[dead] = fallback[dead]
    return out


def _tangent_gradient(Q: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """The part of each gradient row that the projection does not undo.

    The radial part (g.q) q of a step along -g only rescales q, which the
    renormalization undoes; what remains is how far the step moves the
    unit vector q, per unit step.  The clamp undoes nothing more: where
    q_i = 0 the gradient of _eliminate_p is exactly -2 (p.q) p_i <= 0, so
    the step never pushes q_i below zero.
    """
    return grad - (grad * Q).sum(axis=1, keepdims=True) * Q


def _eliminate_p(w: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """lambda_min(M(q)), p = |v_min| and the gradient in q, for each row q of Q.

    M(q) = diag(w q^2) - q q^T with w = A + I; see find_positivity_violation.
    """
    m = -Q[:, :, None] * Q[:, None, :]
    m.reshape(len(Q), -1)[:, :: Q.shape[1] + 1] += (Q ** 2) @ w.T  # the diagonals, as a view
    values, vectors = np.linalg.eigh(m)
    P = np.abs(vectors[:, :, 0])
    grad = 2.0 * Q * ((P ** 2) @ w) - 2.0 * (P * Q).sum(axis=1, keepdims=True) * P
    return values[:, 0], P, grad


def _next_step(step: np.ndarray, improved: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The step of each start after its trial, with s = q_new - q and y = grad_new - grad.

    After an improving trial the step is the two-point step s.s / s.y of
    Barzilai and Borwein (IMA J. Numer. Anal. 8, 1988), the inverse of the
    curvature of the gap along s, but at least step * _SHRINK; where s.y
    is not positive it grows by _GROW instead.  A rejected trial shrinks
    the step by _SHRINK.  An s.y below the least normal double has
    underflowed and counts as no curvature, so the quotient stays finite:
    s.s <= 2 on nonnegative unit rows.
    """
    sy = (s * y).sum(axis=1)
    shrunk = step * _SHRINK
    out = np.where(improved, step * _GROW, shrunk)
    np.divide((s * s).sum(axis=1), sy, out=out, where=improved & (sy >= sys.float_info.min))
    return np.maximum(out, shrunk)


def _confirmed(
    A: CoefficientMatrix, g: np.ndarray, p: np.ndarray, q: np.ndarray, tolerance: float
) -> ViolationCertificate | None:
    """The certificate at the least row of g if its value and direct gap are below -tolerance."""
    low = int(np.argmin(g))  # the first minimal row: the least start among ties
    if g[low] >= -tolerance:
        return None
    gap = positivity_gap(A, p[low], q[low])
    if gap >= -tolerance:
        return None
    residual = float(hermitian_eigenvalues(apply_map(A, outer_product(q[low])))[0])
    return ViolationCertificate(p=p[low], q=q[low], gap=gap, residual_check=residual)


def find_positivity_violation(
    A: CoefficientMatrix, tolerance: float = DEFAULT_MARGIN_BAND
) -> ViolationCertificate | None:
    """Multi-start projected gradient search for a negative positivity gap.

    For fixed q the gap is p^T M(q) p with M(q) = diag((A + I) q^2) - q q^T.
    M(q) is a Z-matrix, so for an eigenvector v of lambda_min(M(q)),
    |v|^T M |v| <= v^T M v: the least gap over nonnegative unit p is
    lambda_min(M(q)), attained at p = |v|.  The descent therefore runs over
    q alone, each step solving the stacked eigenproblems of the starts
    still moving, the only rows it carries, in start order, and by the
    envelope theorem the gradient of lambda_min(M(q)) is the gradient of
    the gap in q at that p.  The starts are those of _start_points; the
    projection clamps negatives and renormalizes.
    Returns a certificate, unit p, q >= 0, when the gap evaluated there is
    below -tolerance, otherwise None (which proves nothing).  A tolerance
    that is not finite or is below criteria.MIN_TOLERANCE raises
    ValueError.

    Early exit.  The search first returns None when
    A.decomposition_verified, the exact check cached on A, holds.  A
    decomposable map is positive, so the gap is nonnegative at every (p, q)
    and the full descent would end with a gap that is nonnegative up to its
    rounding, above -tolerance, and return None too.  Only this exactly
    checked certificate ends the search: after a proof by formula alone
    the descent still runs, as the cross-check that exposes a wrong
    theorem.

    Step.  Each start's step follows _next_step: the two-point step
    s.s / s.y after a trial that lowers its value, a halved step after one
    that does not.  It is capped at step * max|g_T| = 2, with g_T from
    _tangent_gradient, which moves a unit q as far as any longer step; a
    step that is not capped can overflow.

    Stopping.  A certificate needs only the sign of its gap: the search
    returns at the first evaluation, the entry one included, whose least
    (value, start) row is below -tolerance, once the gap evaluated there
    directly confirms it, and checks each row before it leaves the arrays.
    A start stops when an accepted step gains less than _STEP_TOLERANCE,
    or once step * max|g_T| <= 2^-52: its trial point is then within
    rounding of the unit vector q, whatever the scale of the coefficients.
    The search returns None once every start has stopped or after
    _MAX_ITERATIONS.  It is thus a prefix of the descent that runs to that
    end and then checks its least (value, start) row, a row checked here
    too: both find a certificate on the same maps, and where none is
    found they solve the same rows.
    """
    require_tolerance(tolerance)
    if A.decomposition_verified:
        return None
    w = A.a + np.eye(A.n)
    q = _start_points(A)
    g, p, grad = _eliminate_p(w, q)
    step = np.full(len(q), 0.25)
    found = _confirmed(A, g, p, q, tolerance)

    for _ in range(_MAX_ITERATIONS):
        if found or not len(q):
            break  # a certificate, or every start has stopped
        newQ = _project_unit_nonneg(q - step[:, None] * grad, q)
        newG, newP, newGrad = _eliminate_p(w, newQ)
        improved = newG < g
        settled = improved & (g - newG < _STEP_TOLERANCE)
        step = _next_step(step, improved, newQ - q, newGrad - grad)
        if improved.all():  # the rows are merged only when some improved and some did not
            q, p, grad, g = newQ, newP, newGrad, newG
        elif improved.any():
            moved = improved[:, None]
            q, p = np.where(moved, newQ, q), np.where(moved, newP, p)
            grad = np.where(moved, newGrad, grad)
            g = np.where(improved, newG, g)
        found = _confirmed(A, g, p, q, tolerance)
        reach = np.abs(_tangent_gradient(q, grad)).max(axis=1)
        # step * reach > 2: such a step cannot move a unit q any further (a two-point
        # step can be near 2^1023, so the product could overflow)
        over = reach > 2.0 / step
        if over.any():
            step[over] = 2.0 / reach[over]
        going = (step * reach > _UNIT_ROUNDING) & ~settled
        if not going.all():
            q, p, grad, g, step = q[going], p[going], grad[going], g[going], step[going]
    return found


def verify_counterexample(
    A: CoefficientMatrix, X, tolerance: float = DEFAULT_MARGIN_BAND
) -> CounterexampleCheck:
    """Apply the map to X and report the determinant and both PSD flags.

    A matrix passes as PSD when its least eigenvalue is at least -tolerance.
    An image or determinant that overflows raises ValueError.
    """
    require_tolerance(tolerance)
    x = require_hermitian(X)
    with np.errstate(over="ignore", invalid="ignore"):
        image = apply_map(A, x)
        det = determinant(image) if np.isfinite(image).all() else math.inf
    if not math.isfinite(det):
        raise ValueError(
            "the image of X or its determinant overflows; scaling X down by a positive "
            "factor leaves X and its image as positive semidefinite as before"
        )
    image_psd, _ = is_psd(image, tolerance)
    input_psd, _ = is_psd(x, tolerance)
    return CounterexampleCheck(image=image, det=det, psd=image_psd, input_psd=input_psd)


def maximal_cross_terms(alpha: np.ndarray) -> np.ndarray:
    """Largest cross terms allowed by both partial-transpose caps."""
    d = np.diag(alpha)
    return np.triu(np.minimum(np.sqrt(np.outer(d, d)), np.sqrt(alpha * alpha.T)), 1)


def psd_feasible_cross_terms(alpha: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, float]:
    """Scale cross terms down until the coupled submatrix is positive.

    The submatrix on the (i,i) positions is M(t) = D + t S with
    D = diag(alpha_ii) and S = r + r^T.  Maximal cross terms vanish on
    rows with alpha_ii = 0, so on the other rows
    M(t) = D^(1/2) (I + t D^(-1/2) S D^(-1/2)) D^(1/2), which is positive
    exactly for t <= 1 / lambda_max(-D^(-1/2) S D^(-1/2)).  Returns
    (t * r, t), with t = 1 when M(1) passes the PSD test.

    No analyze path calls it: the probe's (i,i) block is x x^T and needs
    no shrink.  It stays because the benchmark tracer wraps it by name.
    """
    d = np.diag(alpha)
    sym = r + r.T
    scale = max(1.0, float(np.max(np.abs(d))), float(np.max(np.abs(sym))))
    if is_psd(np.diag(d) + sym, tol=1e-12 * scale)[0]:
        return r, 1.0
    live = d > 0.0
    root = 1.0 / np.sqrt(d[live])
    worst = float(np.linalg.eigvalsh(-root[:, None] * sym[np.ix_(live, live)] * root)[-1])
    t = 1.0 / max(1.0, worst)
    return t * r, t


@functools.cache  # one read-only pair per side n
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, 1): the row and column indices of the pairs i < j, row-major."""
    pairs = np.triu_indices(n, 1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def _witness_check(
    A: CoefficientMatrix, alpha: np.ndarray, r: np.ndarray
) -> tuple[float, float, float]:
    """Tr(rho C) and the least eigenvalues of rho and rho^Gamma, from n x n and 2 x 2 blocks.

    C carries a_ki at |ik>,|ik> and -1 at |ii>,|jj>, so Tr(rho C) =
    sum_ik a_ki alpha_ik - 2 sum_{i<j} r_ij, summed exactly by math.fsum:
    near the decomposability boundary it is a small difference of terms
    of order one.  rho is Y = diag(alpha_ii) + r + r^T on the |ii>
    positions plus the diagonal alpha_ik, i != k.  rho^Gamma is the
    diagonal alpha_ii plus the blocks [[alpha_ij, r_ij], [r_ij, alpha_ji]]
    on {|ij>, |ji>}, i < j, each of least eigenvalue the determinant
    alpha_ij alpha_ji - r_ij^2 over the larger eigenvalue
    (alpha_ij + alpha_ji)/2 + hypot((alpha_ij - alpha_ji)/2, r_ij); the
    difference (alpha_ij + alpha_ji)/2 - hypot(...) would cancel when
    alpha_ij is far above r_ij.
    """
    i, j = _upper_pairs(A.n)
    upper, lower, cross = alpha[i, j], alpha[j, i], r[i, j]
    pairing = math.fsum(np.concatenate([(A.a.T * alpha).ravel(), -2.0 * cross]))
    y = np.diag(np.diag(alpha))
    y[i, j] = y[j, i] = cross
    rho_min = min(np.linalg.eigvalsh(y)[0], upper.min(), lower.min())
    top = 0.5 * (upper + lower) + np.hypot(0.5 * (upper - lower), cross)
    det = upper * lower - cross ** 2
    blocks = np.divide(det, top, out=np.zeros_like(det), where=top > 0.0)
    return pairing, float(rho_min), float(min(np.diag(alpha).min(), blocks.min()))


def _structured_root(a: np.ndarray, floor: float) -> float:
    """The first trial hi in (floor, 0) with lambda_min(T_hi) < 0 within its rounding.

    T_lam = structured_matrix(a - lam) is the matrix T of the entries
    a_ij - lam.  Every entry of T_lam falls as lam grows, and its diagonal
    with slope -1, so lambda_min(T_lam) falls with slope at most -1: from
    floor < 0 at lam = 0 it is at least 0 at lam = floor, and its root
    lam* lies between.  A trial hi with -rounding <= lambda_min(T_hi) < 0,
    rounding = n 2^-52 ||T_hi||_2 (eigvalsh is backward stable), ends the
    search, and by the slope lam* <= hi <= lam* + rounding.  ||T_hi||_2 is
    the largest |eigenvalue| of T_hi; near the root it can be far below the
    entries of A.

    The bracket [lo, hi] keeps lambda_min(T_hi) < 0 and
    lambda_min(T_lo) >= 0, or lo = floor not yet evaluated.  The first
    trial is the midpoint, so floor itself is never evaluated: within the
    rounding allowance of the entry check it can exceed 0, where a zero
    a_ij makes a product (a_ij - lam)(a_ji - lam) negative under its
    square root.  Each later trial is the regula falsi point, kept one
    float inside the bracket, of lambda_min(T_lam) plus half its rounding
    at the two ends: it aims at the middle of the band that ends the
    search, and moves off an lo where lambda_min is exactly 0.  The value
    at an end kept twice in a row is halved (the Illinois rule).  A trial
    that moves lo but not lambda_min(T_lo), as where T_lam rounds to the
    same floats, tells nothing of the slope: the midpoint comes next.  If
    the bracket closes to adjacent floats first, hi is returned, 0.0 when
    no trial was negative.
    """
    n = a.shape[0]
    lo, hi = floor, 0.0
    f_lo = g_lo = None  # lambda_min(T_lo), and that plus half its rounding
    g_hi = floor  # lambda_min(T_0) = floor
    kept = 0  # +1 after hi moved, -1 after lo moved
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        eigenvalues = np.linalg.eigvalsh(structured_matrix(a - mid))
        f = float(eigenvalues[0])
        rounding = n * _UNIT_ROUNDING * max(-f, float(eigenvalues[-1]))  # n 2^-52 ||T_lam||_2
        if f < 0.0:
            if f >= -rounding:
                return mid
            if kept > 0 and g_lo is not None:
                g_lo *= 0.5
            hi, g_hi, kept, learned = mid, f + 0.5 * rounding, 1, True
        else:
            if kept < 0:
                g_hi *= 0.5
            learned = f != f_lo
            lo, f_lo, g_lo, kept = mid, f, f + 0.5 * rounding, -1
        mid = 0.5 * (lo + hi)
        if learned and g_lo is not None and lo < mid < hi:
            guess = lo + (hi - lo) * (g_lo / (g_lo - g_hi))
            mid = min(max(guess, math.nextafter(lo, hi)), math.nextafter(hi, lo))
    return hi


def _witness_profile(a: np.ndarray, lam: float) -> tuple[np.ndarray, int | None]:
    """Profile alpha from the Perron vector x of T_lam, and an index to drop or None.

    alpha_ii = x_i^2 and, on each pair with mu_ij(lam) > 0,
    alpha_ij = x_i x_j sqrt((a_ij - lam) / (a_ji - lam)), so that
    Tr(rho C) - lam Tr(rho) = x^T T_lam x = lambda_min(T_lam) |x|^2 and the
    maximal cross terms are x_i x_j.  A pair in the support of x with
    mu_ij(lam) = 0 gets no cross term, so the (i,i) block is not x x^T;
    the index returned is then the endpoint of such a pair with least x_i.
    """
    t = structured_matrix(a - lam)
    x = np.abs(np.linalg.eigh(t)[1][:, 0])  # t is a Z-matrix: |v| is an eigenvector too
    coupled = t < 0.0
    alpha = np.where(coupled, np.outer(x, x) * np.sqrt((a - lam) / (a.T - lam)), 0.0)
    np.fill_diagonal(alpha, x ** 2)
    uncoupled = np.outer(x > 0.0, x > 0.0) & ~coupled
    np.fill_diagonal(uncoupled, False)
    if not uncoupled.any():
        return alpha, None
    return alpha, int(np.argmin(np.where(uncoupled.any(axis=1), x, np.inf)))


def indecomposability_probe(
    A: CoefficientMatrix, tolerance: float = DEFAULT_MARGIN_BAND
) -> PptWitnessCertificate | None:
    """The structured PPT state of least normalized pairing, in closed form.

    Tr(rho C) - lam Tr(rho) is the pairing of the entries a_ij - lam, so by
    CoefficientMatrix.structured_floor no structured state has a normalized
    value below the root lam* of lambda_min(T_lam) < 0, and the profile of
    _witness_profile at the bracket end of _structured_root reaches it with
    an (i,i) block x x^T, positive with no shrink, unless an index must be
    dropped.  The root is then found again on the remaining indices K: a
    state on K (x) K is a witness for A too, since C restricted to it is
    the block matrix of A[K, K].  The probe returns None once
    lambda_min(T_0[K]) exceeds -tolerance by more than its rounding; with
    K all indices this is the entry check, on the floor cached on A, and
    the family then holds no witness.  On the constant cyclic maps
    (a, b, c), lambda_min(T_0) = a - 2 max(0, 1 - sqrt(bc)), whose sign
    changes exactly on the Cho-Kye-Lee decomposability boundary
    4bc = (2 - a)^2, a < 2.

    The cross terms are the maximal ones, and _witness_check verifies the
    state on its n x n and 2 x 2 blocks, which carry the eigenvalues of
    the n^2 x n^2 state and its blockwise transpose.  Returns None when no
    witness below -tolerance is found, which proves nothing; a least
    eigenvalue below -tolerance raises InternalInconsistencyError.  A
    tolerance that is not finite or is below criteria.MIN_TOLERANCE raises
    ValueError.
    """
    require_tolerance(tolerance)
    n = A.n
    keep = np.arange(n)
    sub = A
    while True:
        floor = sub.structured_floor
        if floor > -tolerance + structured_rounding(A):
            return None
        lam = _structured_root(sub.a, floor)
        if lam == 0.0:  # lambda_min(T_lam) >= 0 for every lam < 0 tried: no state pairs below 0
            return None
        sub_alpha, drop = _witness_profile(sub.a, lam)
        if drop is None:
            break
        keep = np.delete(keep, drop)
        sub = CoefficientMatrix(keep.size, A.a[np.ix_(keep, keep)])
    alpha = np.zeros((n, n))
    alpha[np.ix_(keep, keep)] = sub_alpha

    r = maximal_cross_terms(alpha)
    trace_value, rho_min, gamma_min = _witness_check(A, alpha, r)
    if trace_value >= -tolerance:
        return None
    if min(rho_min, gamma_min) < -tolerance:
        raise InternalInconsistencyError(
            f"witness verification failed: min eigenvalues {rho_min!r}, {gamma_min!r}"
        )
    return PptWitnessCertificate(
        alpha=alpha,
        r=r,
        trace_value=trace_value,
        normalized_value=trace_value / float(np.sum(alpha)),
    )
