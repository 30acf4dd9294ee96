"""Choi-like maps built from nonnegative coefficient matrices.

A coefficient matrix A of side n defines the map

    Phi_A(X) = Delta_A(X) - X,

where Delta_A(X) is the diagonal matrix with entries
sum_j (a_ij + delta_ij) x_jj.  Every map handled by this package is of
this shape: the off-diagonal of the image is always -x_ij, and only the
diagonal depends on A.

For n = 3 the entries carry conventional names:

    A = [[a1, b1, c1],
         [c2, a2, b2],
         [b3, c3, a3]]

so the b's sit on the cyclic superdiagonal (1,2), (2,3), (3,1) and the
c's on the cyclic subdiagonal (1,3), (2,1), (3,2).  All n = 3 criteria
read entries through ``CoefficientMatrix.slots``, never through raw
indices; it reads the nine slots once, as Python floats, since numpy
calls on arrays of three entries cost more than their arithmetic.

The n = 3 patterns are decided by exact comparison, with no tolerance:
each is the hypothesis of a theorem, and a slot of 1e-13 beside one of
1e13 changes a_ij a_ji by order one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import require_hermitian

NEGATIVE_CLAMP = 1e-12
# nonzero coefficients lie here, so products and quotients of up to six are normal floats
COEFFICIENT_RANGE = (1e-50, 1e50)


@dataclass(frozen=True)
class CoefficientMatrix:
    """Validated nonnegative n x n coefficient matrix (n >= 2)."""

    n: int
    a: np.ndarray

    @property
    def a_diag(self) -> np.ndarray:
        """Diagonal entries (a_1, ..., a_n)."""
        return np.diag(self.a).copy()

    @functools.cached_property
    def slots(self) -> tuple[tuple[float, float, float], ...]:
        """((a_1, a_2, a_3), (b_1, b_2, b_3), (c_1, c_2, c_3)) as floats, read once; n = 3 only."""
        self._require_n3()
        (a1, b1, c1), (c2, a2, b2), (b3, c3, a3) = self.a.tolist()
        return (a1, a2, a3), (b1, b2, b3), (c1, c2, c3)

    @functools.cached_property
    def structured_floor(self) -> float:
        """lambda_min(T), T = structured_matrix(a), computed once; it decides the structured family.

        T_ii = a_ii and T_ij = -mu_ij with mu_ij = max(0, 1 - sqrt(a_ij a_ji)).
        With maximal cross terms the pairing of a structured PPT state is
        Tr(rho C) = sum_{i,k} a_ki alpha_ik - 2 sum_{i<j} min(sqrt(alpha_ii
        alpha_jj), sqrt(alpha_ij alpha_ji)).  By AM-GM each pair adds at least
        -2 mu_ij x_i x_j, x_i = sqrt(alpha_ii), so Tr(rho C) >= x^T T x >=
        lambda_min(T) sum_i alpha_ii: with lambda_min(T) >= 0 no structured
        state is a witness.  The bound is attained by the profile of
        search._witness_profile at lam = 0 (a zero a_ij is approached as a
        limit), whose state is positive when every pair in the support of
        its x has mu_ij > 0.  Reading it runs no exact check.
        """
        return float(np.linalg.eigvalsh(self.structured)[0])

    @functools.cached_property
    def structured(self) -> np.ndarray:
        """T = structured_matrix(a), built once and read-only."""
        t = structured_matrix(self.a)
        t.setflags(write=False)
        return t

    @functools.cached_property
    def decomposition_verified(self) -> bool:
        """The verdict of decomposition_check, computed once."""
        if self.structured_floor < -structured_rounding(self):
            return False
        m = _box_certificate(self, self.structured)
        return m is not None and _rational_psd(m)

    def _require_n3(self) -> None:
        if self.n != 3:
            raise ValueError(f"named cyclic entries are defined for n = 3 only, got n = {self.n}")


@dataclass(frozen=True)
class CklParams:
    """Constant cyclic coefficients (a, b, c), all nonnegative."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if min(self.a, self.b, self.c) < 0:
            raise ValueError("constant cyclic coefficients must be nonnegative")


@dataclass(frozen=True)
class KyeParams:
    """Coefficients (a; c1, c2, c3) of the zero-b family, all nonnegative."""

    a: float
    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        if min(self.a, self.c1, self.c2, self.c3) < 0:
            raise ValueError("coefficients must be nonnegative")


@dataclass(frozen=True)
class FormClass:
    """Detected coefficient pattern with its extracted named parameters."""

    tag: str  # one of: general, constant_ckl, kye_form, cyclic_bc, b_only
    parameters: dict = field(default_factory=dict)


def validate_coefficients(raw) -> CoefficientMatrix:
    """Validate a square nonnegative array into a CoefficientMatrix.

    Entries in (-1e-12, 0) are treated as round-off and clamped to zero,
    and -0.0 becomes 0.0; anything more negative is rejected, and so is a
    nonzero entry outside COEFFICIENT_RANGE.  Strings, booleans and other
    non-numbers are rejected rather than converted.
    """
    a = np.asarray(raw)
    if a.dtype.kind not in "iuf":
        raise ValueError(f"coefficient matrix entries must be numbers, got {a.dtype} entries")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"coefficient matrix must be square, got shape {a.shape}")
    # a bool among numbers takes the numbers' dtype, so look at the entries themselves (bool
    # has no subclasses); an array of a numeric dtype holds none
    if not isinstance(raw, np.ndarray) and bool in {type(v) for row in raw for v in row}:
        raise ValueError("coefficient matrix entries must be numbers, got a boolean")
    a = a.astype(float)
    n = a.shape[0]
    if n < 2:
        raise ValueError("coefficient matrix needs n >= 2")
    entries = a.ravel().tolist()  # row-major, so entry k is a[k // n][k % n]
    if not all(map(math.isfinite, entries)):
        raise ValueError("coefficient matrix entries must be finite")
    least = min(entries)
    if least < -NEGATIVE_CLAMP:
        i, j = divmod(entries.index(least), n)
        raise ValueError(f"negative coefficient a[{i + 1}][{j + 1}] = {a[i, j]}")
    if least <= 0.0:
        a = np.where(a <= 0.0, 0.0, a)
    low, high = COEFFICIENT_RANGE
    if least < low or max(entries) > high:
        for k, v in enumerate(entries):
            if 0.0 < v < low or v > high:
                i, j = divmod(k, n)
                raise ValueError(
                    f"nonzero coefficient a[{i + 1}][{j + 1}] = {a[i, j]} outside [{low}, {high}]"
                )
    a.setflags(write=False)
    return CoefficientMatrix(n=n, a=a)


def apply_map(A: CoefficientMatrix, X) -> np.ndarray:
    """Evaluate Phi_A(X) = Delta_A(X) - X for Hermitian X.

    The x_ii contributions of Delta and of -X cancel exactly, so the
    image has diagonal sum_j a_ij x_jj and off-diagonal -x_ij.
    """
    x = require_hermitian(X)
    if x.shape[0] != A.n:
        raise ValueError(f"input dimension {x.shape[0]} does not match coefficient side {A.n}")
    out = -x.copy()
    np.fill_diagonal(out, A.a @ np.real(np.diag(x)))
    return out


def cp_check(A: CoefficientMatrix) -> float:
    """Complete-positivity slack 1 - sum_i 1/(1 + a_ii), with its sign exact.

    The block matrix of Phi_A is positive semidefinite exactly when the
    coupled n x n submatrix diag(1 + a_ii) - J (J all ones) is: every
    other diagonal entry is a nonnegative coefficient in a decoupled row.
    Its Schur complement against the positive diagonal is the slack, so
    the map is CP iff slack >= 0.  Each a_ii is p/q with q a power of two,
    so 1/(1 + a_ii) = q/(q + p) and the sum runs exactly as num/den in
    integers: the sign is exact on the boundary (a_ii = n - 1 gives slack
    0), and int true division rounds the slack correctly.
    """
    num, den = 0, 1
    for a in A.a_diag.tolist():
        p, q = a.as_integer_ratio()
        num, den = num * (q + p) + q * den, den * (q + p)
    return (den - num) / den


def structured_matrix(a: np.ndarray) -> np.ndarray:
    """The n x n Z-matrix T of the entries a: T_ii = a_ii, T_ij = -max(0, 1 - sqrt(a_ij a_ji))."""
    t = -np.maximum(0.0, 1.0 - np.sqrt(a * a.T))
    np.fill_diagonal(t, np.diag(a))
    return t


def structured_rounding(A: CoefficientMatrix) -> float:
    """Bound on the rounding of lambda_min(T) and of the structured PPT pairing.

    The pairing sums fewer than n^2 terms with partial sums below
    max a + n, so it rounds off by less than 1e-14 n^2 (n + max a);
    eigvalsh and the rounding of T add less than 1e-14 n (n + max a).
    """
    n = A.n
    return 1e-14 * n * (n + 1) * (n + float(A.a.max()))


_BOX_STEPS = 4


def _box_certificate(A: CoefficientMatrix, t: np.ndarray) -> np.ndarray | None:
    """T with off-diagonals moved toward -1 until (1 + M_ij)^2 <= a_ij a_ji exactly.

    In exact arithmetic 1 + T_ij = min(1, sqrt(a_ij a_ji)) sits on the
    box; the float T may overshoot it by a few ulps.  Each step moves the
    failing entries by at least one ulp of M_ij and of 1 + M_ij.  Returns
    None when the box still fails after _BOX_STEPS steps.  The entries are
    read once as floats; after the first pass only the moved pairs are
    tested again, since the test of a pair reads nothing else.
    """
    n = A.n
    a, m = A.a.tolist(), t.tolist()
    bad = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for _ in range(_BOX_STEPS + 1):
        bad = [(i, j) for i, j in bad if _outside_box(m[i][j], a[i][j], a[j][i])]
        if not bad:
            return np.array(m)
        for i, j in bad:
            v = m[i][j]
            m[i][j] = m[j][i] = min(math.nextafter(v, -1.0), v - math.ulp(1.0 + v))
    return None


def _outside_box(m: float, x: float, y: float) -> bool:
    """(1 + m)^2 > x y exactly: with m = u/d and so on, (d + u)^2 d_x d_y > u_x u_y d^2."""
    u, d = m.as_integer_ratio()
    ux, dx = x.as_integer_ratio()
    uy, dy = y.as_integer_ratio()
    return (d + u) ** 2 * dx * dy > ux * uy * d * d


def _rational_psd(m: np.ndarray) -> bool:
    """Exact M >= 0 for a symmetric float matrix, by fraction-free (Bareiss) LDL^T.

    Every float is an integer over a power of two, so one power of two
    scales M to an integer matrix W.  Step k takes W_ij to
    (d W_ij - W_ik W_jk) / prev, an exact division by the previous pivot;
    the pivots d are then leading principal minors, of the same signs as
    the LDL^T pivots.  A negative pivot refutes; a zero pivot is allowed
    only when the rest of its column is exactly zero (otherwise a 2 x 2
    minor is negative), and its step is skipped with prev kept.
    """
    ratios = [[v.as_integer_ratio() for v in row] for row in m.tolist()]
    scale = max(q for row in ratios for _, q in row)
    w = [[p * (scale // q) for p, q in row] for row in ratios]
    n, prev = len(w), 1
    for k in range(n):
        d = w[k][k]
        if d < 0:
            return False
        if d == 0:
            if any(w[i][k] for i in range(k + 1, n)):
                return False
            continue
        for i in range(k + 1, n):
            f, row = w[i][k], w[i]
            for j in range(k + 1, i + 1):
                row[j] = (d * row[j] - f * w[j][k]) // prev
        prev = d
    return True


def decomposition_check(A: CoefficientMatrix) -> tuple[bool, float]:
    """Exactly verified decomposability: (certificate checked, lambda_min(T)).

    Twirling by diagonal unitaries reduces C = P + Q^Gamma (C the block
    matrix, P, Q >= 0) to an n x n M >= 0 with M_ii = a_ii and
    (1 + M_ij)^2 <= a_ij a_ji: P is M on the |ii> positions and Q is the
    2 x 2 blocks [[a_ki, -(1 + M_ik)], [-(1 + M_ik), a_ik]] on
    {|ik>, |ki>}.  T of structured_matrix is such an M whenever it is
    positive semidefinite, so lambda_min(T) >= 0 proves Phi_A decomposable
    and hence positive.  A clearly negative lambda_min(T) returns False
    at once; otherwise T is moved into the box by _box_certificate and its
    positivity is decided exactly by _rational_psd.  False proves nothing.
    Both values are cached on A, so each is computed once per matrix.
    """
    return A.decomposition_verified, A.structured_floor


def averaged_params(A: CoefficientMatrix) -> CklParams:
    """Arithmetic means (a-bar, b-bar, c-bar) of the named n = 3 entries."""
    return CklParams(*((x + y + z) / 3.0 for x, y, z in A.slots))


def geometric_means(A: CoefficientMatrix) -> CklParams:
    """Geometric means (a*, b*, c*) of the named n = 3 entries."""
    return CklParams(*((x * y * z) ** (1.0 / 3.0) for x, y, z in A.slots))


def cyclic_cap(A: CoefficientMatrix) -> float:
    """min_i b_i c_{i+1} over the named n = 3 entries, indices cyclic."""
    _, (b1, b2, b3), (c1, c2, c3) = A.slots
    return min(b1 * c2, b2 * c3, b3 * c1)


def kye_matrix(params: KyeParams) -> CoefficientMatrix:
    """Coefficient matrix of the zero-b family (a; c1, c2, c3)."""
    a = params.a
    return validate_coefficients(
        [[a, 0.0, params.c1], [params.c2, a, 0.0], [0.0, params.c3, a]]
    )


def _constant(values: tuple[float, ...]) -> bool:
    return values[0] == values[1] == values[2]


def matches_constant_ckl(A: CoefficientMatrix) -> bool:
    """True when the a_i, the b_i and the c_i are each exactly equal."""
    return A.n == 3 and all(_constant(s) for s in A.slots)


def matches_kye_form(A: CoefficientMatrix) -> bool:
    """True when the a_i are exactly equal and every b slot is exactly zero."""
    return A.n == 3 and _constant(A.slots[0]) and not any(A.slots[1])


def matches_cyclic_bc(A: CoefficientMatrix) -> bool:
    """True when the b slots are exactly equal, and so are the c slots."""
    return A.n == 3 and _constant(A.slots[1]) and _constant(A.slots[2])


def matches_b_only(A: CoefficientMatrix) -> bool:
    """True when every c slot is exactly zero and every b slot is positive."""
    return A.n == 3 and not any(A.slots[2]) and min(A.slots[1]) > 0.0


def classify_form(A: CoefficientMatrix) -> FormClass:
    """Most specific matching pattern, in the fixed specificity order
    constant_ckl > kye_form > b_only > cyclic_bc > general.
    """
    if A.n != 3:
        return FormClass(tag="general")
    (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = A.slots
    if matches_constant_ckl(A):
        return FormClass(tag="constant_ckl", parameters={"a": a1, "b": b1, "c": c1})
    if matches_kye_form(A):
        return FormClass(tag="kye_form", parameters={"a": a1, "c1": c1, "c2": c2, "c3": c3})
    if matches_b_only(A):
        return FormClass(
            tag="b_only",
            parameters={"a1": a1, "a2": a2, "a3": a3, "b1": b1, "b2": b2, "b3": b3},
        )
    if matches_cyclic_bc(A):
        return FormClass(
            tag="cyclic_bc", parameters={"a1": a1, "a2": a2, "a3": a3, "b": b1, "c": c1}
        )
    return FormClass(tag="general")
