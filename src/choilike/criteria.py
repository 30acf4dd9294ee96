"""Analytic positivity, complete-positivity and decomposability criteria.

Every criterion returns a Verdict carrying a signed margin (distance to
the condition boundary) rather than a bare flag, because the interesting
maps in this family sit exactly on boundaries.  Margins inside a small
band around zero are reported as "marginal"; summary flags are then
derived boundary-inclusively for the conditions whose boundary belongs
to the satisfied side, and never from marginal noise on the other side.

A criterion can prove positivity, refute it, prove decomposability or
prove indecomposability.  ``full_report`` runs them all into one table
of ``(name, Verdict)`` rows and records which rows prove what;
``summarize`` turns those proofs, together with any search
certificates, into the summary flags and raises on a contradiction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import determinant, outer_product
from .maps import (
    CklParams,
    CoefficientMatrix,
    FormClass,
    KyeParams,
    apply_map,
    averaged_params,
    classify_form,
    cp_check,
    cyclic_cap,
    geometric_means,
    matches_b_only,
    matches_cyclic_bc,
    matches_kye_form,
)

HOLDS = "holds"
FAILS = "fails"
NOT_APPLICABLE = "not_applicable"
MARGINAL = "marginal"

DEFAULT_MARGIN_BAND = 1e-9
# The least accepted tolerance.  The gap of unit p, q carries rounding of
# about n^2 eps (its positive terms sum to at most (p.q)^2 <= 1 where it is
# negative), and the witness check compares least eigenvalues, which carry
# O(n eps) rounding, against -tolerance: below this floor rounding noise
# would become verdicts.
MIN_TOLERANCE = 1e-12
# How close a* + b must be to 2 for boundary_proposition to apply.  Its
# determinant identity holds only on the boundary itself, so this is a
# fixed closeness test, not the user's margin band.
BOUNDARY_ATOL = 1e-9


def require_tolerance(tolerance: float) -> None:
    """Refuse a margin band or search tolerance that is not finite or is below MIN_TOLERANCE."""
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tolerance!r}")
    if tolerance < MIN_TOLERANCE:
        raise ValueError(
            f"tolerance must be at least {MIN_TOLERANCE:g}, the rounding level of the"
            f" certificate checks, got {tolerance!r}"
        )


class InternalInconsistencyError(RuntimeError):
    """Two proven criteria contradicted each other: an implementation bug."""


@dataclass(frozen=True)
class Verdict:
    status: str
    margin: float | None = None
    detail: str = ""


def make_verdict(margin: float, band: float = DEFAULT_MARGIN_BAND, detail: str = "") -> Verdict:
    if abs(margin) < band:
        return Verdict(MARGINAL, float(margin), detail)
    return Verdict(HOLDS if margin > 0 else FAILS, float(margin), detail)


def not_applicable(detail: str = "") -> Verdict:
    return Verdict(NOT_APPLICABLE, None, detail)


def affirmative(v: Verdict) -> bool:
    """Boundary-inclusive truth: marginal counts as satisfied at margin >= 0."""
    if v.status == HOLDS:
        return True
    if v.status == MARGINAL:
        return v.margin is not None and v.margin >= 0.0
    return False


def refuted(v: Verdict) -> bool:
    """True only when the condition fails beyond the marginal band."""
    return v.status == FAILS


def ckl_is_positive(p: CklParams, band: float = DEFAULT_MARGIN_BAND) -> Verdict:
    """Positivity of the constant cyclic map with coefficients (a, b, c).

    Positive exactly when a >= 2 (the completely positive branch, where
    the coupled submatrix has smallest eigenvalue a - 2) or when
    a + b + c >= 2 together with a + sqrt(bc) >= 1.  The margin is the
    larger of the two branch slacks, each branch slack being the minimum
    over its active constraints.
    """
    a, b, c = p.a, p.b, p.c
    cp_branch = a - 2.0
    main_branch = min(a + b + c - 2.0, a + math.sqrt(b * c) - 1.0)
    margin = max(cp_branch, main_branch)
    if cp_branch >= main_branch:
        detail = "completely positive branch (a >= 2)"
    else:
        detail = "sum and product conditions (a+b+c >= 2, a+sqrt(bc) >= 1)"
    return make_verdict(margin, band, detail)


def ckl_is_indecomposable(p: CklParams, band: float = DEFAULT_MARGIN_BAND) -> Verdict:
    """Indecomposability of a positive constant cyclic map: 4bc < (2-a)^2.

    The condition is strict, so the boundary 4bc = (2-a)^2 belongs to the
    decomposable side.  Maps with a > 2 are completely positive, hence
    decomposable, and fall outside this criterion.
    """
    pos = ckl_is_positive(p, band)
    if not affirmative(pos):
        return not_applicable("map is not positive")
    if p.a > 2.0:
        return not_applicable("completely positive region (a > 2): decomposable")
    margin = (2.0 - p.a) ** 2 - 4.0 * p.b * p.c
    return make_verdict(margin, band, "strict condition 4bc < (2-a)^2")


def kye_check(k: KyeParams, band: float = DEFAULT_MARGIN_BAND) -> Verdict:
    """Positive-but-not-completely-positive test for the zero-b family.

    Holds exactly when 1 <= a < 2 and c1 c2 c3 >= (2-a)^3; a holding map
    is moreover indecomposable.  (The exact boundary a = 1 with
    c1 c2 c3 = 1 is additionally extremal, a literature fact reported in
    the detail but never tested here.)
    """
    a = k.a
    cprod = k.c1 * k.c2 * k.c3
    margin = min(a - 1.0, 2.0 - a, cprod - (2.0 - a) ** 3)
    detail = "requires 1 <= a < 2 and c1*c2*c3 >= (2-a)^3"
    if abs(a - 1.0) <= band and abs(cprod - 1.0) <= band:
        detail += "; exact boundary point: extremal per the literature (not tested)"
    return make_verdict(margin, band, detail)


def average_necessary(A: CoefficientMatrix, band: float = DEFAULT_MARGIN_BAND) -> Verdict:
    """Necessary condition: the shift-averaged constant map must be positive."""
    if A.n != 3:
        return not_applicable("defined for n = 3 only")
    p = averaged_params(A)
    inner = ckl_is_positive(p, band)
    detail = f"averaged coefficients ({p.a!r}, {p.b!r}, {p.c!r}); {inner.detail}"
    return Verdict(inner.status, inner.margin, detail)


def _least_pair(A: CoefficientMatrix, divisor: int) -> tuple[float, int, int]:
    """The least sqrt(a_ii a_jj)/divisor + sqrt(a_ij a_ji) - 1 over the pairs
    i < j (0-based), with its pair; a tie keeps the first pair in (i, j) order."""
    a = A.a.tolist()
    return min(
        (math.sqrt(a[i][i] * a[j][j]) / divisor + math.sqrt(a[i][j] * a[j][i]) - 1.0, i, j)
        for i in range(A.n)
        for j in range(i + 1, A.n)
    )


def pairwise_necessary(A: CoefficientMatrix, band: float = DEFAULT_MARGIN_BAND) -> Verdict:
    """Necessary bound sqrt(a_ii a_jj) + sqrt(a_ij a_ji) >= 1 on every pair.

    The margin is the least over the pairs, and the detail names the pair
    that attains it; a failure certifies that the map is not positive.  A
    pair with a_ij a_ji = 0 is still evaluated literally (a limiting
    argument supports necessity there); the detail notes the degeneracy
    when the named pair has it.
    """
    margin, i, j = _least_pair(A, 1)
    detail = f"least at pair ({i + 1},{j + 1})"
    if A.a[i, j] * A.a[j, i] == 0.0:
        detail += "; degenerate cross product a_ij*a_ji = 0"
    return make_verdict(margin, band, detail)


def pairwise_sufficient(A: CoefficientMatrix, band: float = DEFAULT_MARGIN_BAND) -> Verdict:
    """Sufficient bound sqrt(a_ii a_jj)/(n-1) + sqrt(a_ij a_ji) >= 1 on every pair.

    The margin is the least over the pairs, and the detail names the pair
    that attains it.  When it holds, the map is positive and decomposable.
    """
    margin, i, j = _least_pair(A, A.n - 1)
    return make_verdict(margin, band, f"least at pair ({i + 1},{j + 1})")


def c3_mean(A: CoefficientMatrix, band: float = DEFAULT_MARGIN_BAND) -> Verdict:
    """Geometric-mean bound a* + b* + c* >= 2.

    Proven necessary for positivity only when every a_i >= 1 and either
    the b and c slots are constant and positive (cyclic_necessary) or the
    c slots are zero and the b slots positive (b_only_necessary); those
    rows carry the proof.  It is not necessary in general: some maps with
    every a_i >= 1 fail it, yet have an exactly checked structured
    decomposition.  This verdict therefore never decides non-positivity.
    """
    if A.n != 3:
        return not_applicable("defined for n = 3 only")
    g = geometric_means(A)
    margin = g.a + g.b + g.c - 2.0
    return make_verdict(
        margin,
        band,
        "necessary when every a_i >= 1 with constant b, c > 0 or with zero c and "
        "positive b slots; not necessary in general",
    )


def cyclic_necessary(A: CoefficientMatrix, band: float = DEFAULT_MARGIN_BAND) -> Verdict:
    """Necessary bound a* + b + c >= 2 for cyclic matrices with constant
    b, c > 0 and every a_i >= 1.  A failure certifies non-positivity."""
    if A.n != 3 or not matches_cyclic_bc(A):
        return not_applicable("requires constant b and c slots (n = 3)")
    a, (b, _, _), (c, _, _) = A.slots
    if b <= 0.0 or c <= 0.0:
        return not_applicable("requires b > 0 and c > 0")
    if min(a) < 1.0:
        return not_applicable("requires every a_i >= 1")
    a_star = geometric_means(A).a
    return make_verdict(a_star + b + c - 2.0, band, f"a* = {a_star!r}")


def b_only_necessary(A: CoefficientMatrix, band: float = DEFAULT_MARGIN_BAND) -> Verdict:
    """Necessary bound a* + b* >= 2 for matrices with zero c slots,
    positive b slots and every a_i >= 1.  A failure certifies
    non-positivity."""
    if A.n != 3 or not matches_b_only(A):
        return not_applicable("requires zero c slots and positive b slots (n = 3)")
    if min(A.slots[0]) < 1.0:
        return not_applicable("requires every a_i >= 1")
    g = geometric_means(A)
    a_star, b_star = g.a, g.b
    return make_verdict(a_star + b_star - 2.0, band, f"a* = {a_star!r}, b* = {b_star!r}")


def scaling_sufficient_search(
    A: CoefficientMatrix, band: float = DEFAULT_MARGIN_BAND
) -> Verdict:
    """Positivity certificate by dominance over a rescaled constant map,
    at the exact optimum of its family.

    The reference is (a, b, c) with a = min_i a_i (larger diagonals only
    help) and (b, c) in [0, b*] x [0, c*].  On the axes b = 0 or c = 0 the
    cyclic caps are vacuous, so the axis slack is the constant-map margin
    min(a - 1, a + m - 2), m = max(b*, c*).  Inside, the score of (b, c)
    is min(margin(a, b, c), cap - bc), cap = min_i b_i c_{i+1}.  For fixed
    P = bc, b + c is largest at m and P / m, so the score is
    min(f(P), cap - P) with f(P) = max(a - 2, min(a + m + P/m - 2,
    a + sqrt(P) - 1)) rising and cap - P falling.  Each piece of f meets
    cap - P once, at P_const = cap - a + 2, P_lin = m (cap - a - m + 2) /
    (m + 1) and P_sqrt = s^2, s the root of s^2 + s + a - 1 - cap (0 when
    it is negative or complex); the optimum is therefore
    P = min(P_const, max(P_lin, P_sqrt)), clipped to [0, b* c*].  The
    larger of the two slacks is reported.
    """
    if A.n != 3:
        return not_applicable("defined for n = 3 only")
    a0 = min(A.slots[0])
    g = geometric_means(A)
    b_star, c_star = g.b, g.c

    cap = cyclic_cap(A)
    m, t_max = max(b_star, c_star), min(b_star, c_star)
    t = 0.0
    if t_max > 0.0:
        k = a0 - 1.0 - cap
        s = -2.0 * k / (1.0 + math.sqrt(max(0.0, 1.0 - 4.0 * k)))
        p_const = cap - a0 + 2.0
        p_lin = m * (cap - a0 - m + 2.0) / (m + 1.0)
        p_sqrt = max(0.0, s) ** 2
        t = min(max(min(p_const, max(p_lin, p_sqrt)), 0.0) / m, t_max)
    b, c = (t, c_star) if c_star > b_star else (b_star, t)
    best = min(ckl_is_positive(CklParams(a0, b, c), band).margin, cap - b * c)
    axis = min(a0 - 1.0, a0 + m - 2.0)
    if axis > best:
        b, c, best = (0.0, c_star, axis) if c_star > b_star else (b_star, 0.0, axis)
    detail = f"best reference (a, b, c) = {(a0, b, c)!r} with joint slack {best!r}"
    return make_verdict(best, band, detail)


def boundary_witness_vector(a1: float, a2: float, a3: float) -> np.ndarray:
    """Rank-one test vector for diagonals on the a* + b = 2 boundary."""
    return np.array(
        [
            a1 ** (-1.0 / 6.0) * a3 ** (1.0 / 6.0),
            a2 ** (-1.0 / 6.0) * a1 ** (1.0 / 6.0),
            a3 ** (-1.0 / 6.0) * a2 ** (1.0 / 6.0),
        ],
        dtype=complex,
    )


def boundary_proposition(A: CoefficientMatrix, band: float = DEFAULT_MARGIN_BAND) -> Verdict:
    """No-go verdict on the a* + b = 2 boundary (constant b, zero c).

    On that boundary the map is positive only when the diagonal entries
    are all equal; otherwise the rank-one witness built from the
    diagonals is a positive input whose image has negative determinant
    D = 6 (a* - a-bar) / a*.  The verdict margin is D (always <= 0 by
    the arithmetic-geometric mean inequality), and the detail records
    both the closed-form and the numerically evaluated determinant,
    which must agree.
    """
    if A.n != 3 or not matches_cyclic_bc(A):
        return not_applicable("requires constant b and c slots (n = 3)")
    adiag, (b, _, _), (c, _, _) = A.slots
    if c != 0.0:
        return not_applicable("requires zero c slots")
    if min(adiag) <= 0.0:
        return not_applicable("requires strictly positive diagonal entries")
    a_star = geometric_means(A).a
    if abs(a_star + b - 2.0) >= BOUNDARY_ATOL:
        return not_applicable(f"not on the boundary: a* + b = {a_star + b!r}")

    a_bar = averaged_params(A).a
    d_formula = 6.0 * (a_star - a_bar) / a_star
    xi = boundary_witness_vector(*adiag)
    d_numeric = determinant(apply_map(A, outer_product(xi)))
    if abs(d_formula - d_numeric) > 1e-8 * max(1.0, abs(d_formula)):
        raise InternalInconsistencyError(
            f"boundary determinant identity violated: {d_formula!r} vs {d_numeric!r}"
        )
    spread = max(adiag) - min(adiag)
    detail = (
        f"D_formula = {d_formula!r}, D_numeric = {d_numeric!r}, diagonal spread = {spread!r}; "
        "positive only for equal diagonals (and then only when a >= 1)"
    )
    return make_verdict(d_formula, band, detail)


def summarize(proofs: dict[str, list[str]]) -> tuple[str, ...]:
    """Summary flags from the names that prove each property.

    ``proofs`` maps "positive", "not_positive", "decomposable" and
    "indecomposable" to the names of the criteria or certificates that
    prove each; complete positivity is proven when the row "cp" is among
    the positivity proofs.
    A property proven together with its negation means two theorems
    disagree (a bug) and raises InternalInconsistencyError.  When
    positivity is refuted, "not_positive_proven" is the only flag;
    otherwise "inconclusive" means positivity was not proven, and it may
    stand beside "indecomposable_proven" when a witness proves that.
    """
    if proofs["positive"] and proofs["not_positive"]:
        raise InternalInconsistencyError(
            f"positivity proven by {proofs['positive']} but refuted by {proofs['not_positive']}"
        )
    if proofs["indecomposable"] and proofs["decomposable"]:
        raise InternalInconsistencyError(
            f"indecomposability proven by {proofs['indecomposable']} "
            f"but decomposability by {proofs['decomposable']}"
        )
    if proofs["not_positive"]:
        return ("not_positive_proven",)
    flags = ["cp_proven"] if "cp" in proofs["positive"] else []
    flags.append("positive_proven" if proofs["positive"] else "inconclusive")
    if proofs["indecomposable"]:
        flags.append("indecomposable_proven")
    if proofs["decomposable"]:
        flags.append("decomposable_proven")
    return tuple(flags)


@dataclass(frozen=True)
class ConditionReport:
    """The table of criterion verdicts, what they prove, and the summary flags.

    ``rows`` holds one ``(name, Verdict)`` per criterion, the same 13
    names in report order at every n.  ``proofs`` maps "positive",
    "not_positive", "decomposable" and "indecomposable" to the names of
    the rows that prove each.  ``summary`` is ``summarize(proofs)``.
    """

    form: FormClass
    rows: tuple[tuple[str, Verdict], ...]
    proofs: dict[str, list[str]]
    summary: tuple[str, ...]

    def verdict(self, name: str) -> Verdict:
        """The verdict of the row called ``name``; KeyError if there is none."""
        for row_name, v in self.rows:
            if row_name == name:
                return v
        raise KeyError(name)


def full_report(A: CoefficientMatrix, band: float = DEFAULT_MARGIN_BAND) -> ConditionReport:
    """Run every criterion in report order and reconcile the summary flags.

    Each criterion adds one row to the table and names what it proves.
    Proofs come only from non-marginal verdicts (or, for boundary-
    inclusive conditions, marginal verdicts with nonnegative margin), so
    positivity or decomposability is proven together with its negation
    only when an implementation bug makes two theorems disagree, which
    ``summarize`` raises as InternalInconsistencyError.  A band that is
    not finite or is below MIN_TOLERANCE raises ValueError.
    """
    require_tolerance(band)
    rows: list[tuple[str, Verdict]] = []
    proofs: dict[str, list[str]] = {
        "positive": [], "not_positive": [], "decomposable": [], "indecomposable": []
    }

    def add(name: str, verdict: Verdict, holds=(), fails=()) -> None:
        """Append a row that proves ``holds`` when affirmative and ``fails`` when refuted."""
        rows.append((name, verdict))
        proven = holds if affirmative(verdict) else fails if refuted(verdict) else ()
        for prop in proven:
            proofs[prop].append(name)

    form = classify_form(A)
    cp_verdict = make_verdict(
        cp_check(A), band, "Schur slack 1 - sum_i 1/(1 + a_ii) of the coupled submatrix"
    )
    add("cp", cp_verdict, holds=("positive", "decomposable"))

    ckl_pos = ckl_indec = not_applicable("constant cyclic pattern not matched")
    if form.tag == "constant_ckl":
        p = CklParams(form.parameters["a"], form.parameters["b"], form.parameters["c"])
        ckl_pos = ckl_is_positive(p, band)
        ckl_indec = ckl_is_indecomposable(p, band)
    add("ckl_positive", ckl_pos, holds=("positive",), fails=("not_positive",))
    add("ckl_indecomposable", ckl_indec)
    # the condition is strict, so its marginal band proves decomposability at margin <= 0
    if ckl_indec.status == HOLDS:
        proofs["indecomposable"].append("ckl_indecomposable")
    elif ckl_indec.margin is not None and ckl_indec.margin <= 0:
        proofs["decomposable"].append("ckl_indecomposable")

    kye_verdict = not_applicable("zero-b pattern not matched")
    kye_holds, kye_fails = (), ()
    if A.n == 3 and matches_kye_form(A):
        (a, _, _), _, c = A.slots
        k = KyeParams(a, *c)
        kye_verdict = kye_check(k, band)
        # kye_check needs a < 2 strictly; its marginal a = 2 edge is the
        # completely positive (decomposable) boundary, where it proves nothing
        if k.a < 2.0 - band:
            kye_holds, kye_fails = ("positive", "indecomposable"), ("not_positive",)
    add("kye", kye_verdict, kye_holds, kye_fails)

    add("average_necessary", average_necessary(A, band), fails=("not_positive",))
    add("pairwise_necessary", pairwise_necessary(A, band), fails=("not_positive",))
    add("pairwise_sufficient", pairwise_sufficient(A, band), holds=("positive", "decomposable"))
    add("c3_mean", c3_mean(A, band))
    add("cyclic_necessary", cyclic_necessary(A, band), fails=("not_positive",))
    add("b_only_necessary", b_only_necessary(A, band), fails=("not_positive",))
    add("scaling_sufficient", scaling_sufficient_search(A, band), holds=("positive",))
    add("boundary_proposition", boundary_proposition(A, band), fails=("not_positive",))

    # an exactly verified decomposition; its failure refutes nothing
    structured_verdict = Verdict(
        HOLDS if A.decomposition_verified else FAILS,
        A.structured_floor,
        "lambda_min(T), T_ii = a_ii, T_ij = -max(0, 1 - sqrt(a_ij a_ji)); "
        "holds when T decomposes the map, checked in exact rationals",
    )
    add("structured_decomposition", structured_verdict, holds=("positive", "decomposable"))

    return ConditionReport(form, tuple(rows), proofs, summarize(proofs))
