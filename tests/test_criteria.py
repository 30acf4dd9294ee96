"""Tests for the analytic criteria and the aggregated report."""

import ast
import math
import re

import numpy as np
import pytest

from choilike.criteria import (
    FAILS,
    HOLDS,
    MARGINAL,
    NOT_APPLICABLE,
    InternalInconsistencyError,
    affirmative,
    average_necessary,
    b_only_necessary,
    boundary_proposition,
    c3_mean,
    ckl_is_indecomposable,
    ckl_is_positive,
    cyclic_necessary,
    full_report,
    kye_check,
    pairwise_necessary,
    pairwise_sufficient,
    refuted,
    scaling_sufficient,
    scaling_sufficient_search,
    summarize,
)
from choilike.maps import (
    CklParams,
    KyeParams,
    ScalingVector,
    constant_ckl_matrix,
    kye_matrix,
    scaled_ckl_matrix,
    validate_coefficients,
)

CHOI = validate_coefficients([[1, 0, 1], [1, 1, 0], [0, 1, 1]])
COUNTEREXAMPLE = validate_coefficients([[0.5, 1, 0], [0, 1, 1], [1, 0, 2]])
ALL_ONES = validate_coefficients(np.ones((3, 3)))


class TestCklPositive:
    def test_boundary_point(self):
        v = ckl_is_positive(CklParams(1, 1, 0))
        assert v.status == MARGINAL and v.margin == 0.0 and affirmative(v)

    def test_sum_too_small(self):
        v = ckl_is_positive(CklParams(0.5, 0.5, 0.5))
        assert v.status == FAILS and abs(v.margin + 0.5) < 1e-15

    def test_cp_branch(self):
        v = ckl_is_positive(CklParams(2.5, 0, 0))
        assert v.status == HOLDS and abs(v.margin - 0.5) < 1e-15
        assert "completely positive" in v.detail

    def test_b_c_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a, b, c = rng.random(3) * 3
            v1 = ckl_is_positive(CklParams(a, b, c))
            v2 = ckl_is_positive(CklParams(a, c, b))
            assert v1.status == v2.status and abs(v1.margin - v2.margin) < 1e-14

    def test_product_gate_below_one(self):
        # a < 1 requires bc >= (1-a)^2 even when the sum clears 2
        assert refuted(ckl_is_positive(CklParams(0.5, 2.0, 0.0)))
        assert affirmative(ckl_is_positive(CklParams(0.5, 2.0, 0.5)))


class TestCklIndecomposable:
    def test_choi_point(self):
        v = ckl_is_indecomposable(CklParams(1, 0, 1))
        assert v.status == HOLDS and v.margin == 1.0

    def test_boundary_is_decomposable(self):
        v = ckl_is_indecomposable(CklParams(0, 1, 1))
        assert v.status == MARGINAL and v.margin == 0.0  # strict condition: boundary fails

    def test_gated_on_positivity(self):
        assert ckl_is_indecomposable(CklParams(0.5, 0.5, 0.5)).status == NOT_APPLICABLE

    def test_cp_region_excluded(self):
        v = ckl_is_indecomposable(CklParams(2.5, 0, 0))
        assert v.status == NOT_APPLICABLE and "decomposable" in v.detail


class TestKye:
    def test_exact_boundary(self):
        v = kye_check(KyeParams(1, 1, 1, 1))
        assert v.status == MARGINAL and v.margin == 0.0 and affirmative(v)
        assert "extremal" in v.detail and "not tested" in v.detail

    def test_interior_point(self):
        v = kye_check(KyeParams(1.5, 1, 1, 1))
        assert v.status == HOLDS and abs(v.margin - 0.5) < 1e-15

    def test_below_range(self):
        v = kye_check(KyeParams(0.5, 8, 8, 8))
        assert v.status == FAILS and abs(v.margin + 0.5) < 1e-15


class TestAverageNecessary:
    def test_counterexample_still_passes(self):
        # only a necessary condition: the non-positive counterexample clears it
        v = average_necessary(COUNTEREXAMPLE)
        assert v.status == HOLDS and abs(v.margin - 1 / 6) < 1e-12

    def test_small_constant_fails(self):
        assert refuted(average_necessary(constant_ckl_matrix(CklParams(0.5, 0.5, 0.5))))

    def test_choi_boundary(self):
        v = average_necessary(CHOI)
        assert affirmative(v) and v.margin == 0.0

    def test_non_cubic(self):
        assert average_necessary(validate_coefficients(np.eye(2))).status == NOT_APPLICABLE


class TestPairwise:
    def test_counterexample_margins(self):
        verdicts = dict(pairwise_necessary(COUNTEREXAMPLE))
        assert verdicts[(1, 2)].status == FAILS
        assert abs(verdicts[(1, 2)].margin - (math.sqrt(0.5) - 1)) < 1e-15
        assert verdicts[(1, 3)].margin == 0.0
        assert abs(verdicts[(2, 3)].margin - (math.sqrt(2) - 1)) < 1e-15

    def test_all_ones(self):
        for _, v in pairwise_necessary(ALL_ONES):
            assert v.status == HOLDS and v.margin == 1.0

    def test_choi_boundary(self):
        for _, v in pairwise_necessary(CHOI):
            assert v.margin == 0.0 and affirmative(v)

    def test_sufficient_all_ones(self):
        for _, v in pairwise_sufficient(ALL_ONES):
            assert v.status == HOLDS and abs(v.margin - 0.5) < 1e-15

    def test_sufficient_choi_fails(self):
        for _, v in pairwise_sufficient(CHOI):
            assert v.status == FAILS and abs(v.margin + 0.5) < 1e-15

    def test_sufficient_n2_unit(self):
        a = validate_coefficients(np.eye(2))
        ((_, v),) = pairwise_sufficient(a)
        assert v.margin == 0.0 and affirmative(v)

    def test_sufficient_implies_necessary(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            n = int(rng.integers(2, 5))
            a = validate_coefficients(rng.random((n, n)) * 3)
            suff = pairwise_sufficient(a)
            nec = pairwise_necessary(a)
            if all(affirmative(v) for _, v in suff):
                assert all(affirmative(v) for _, v in nec)


class TestC3Mean:
    def test_counterexample_boundary(self):
        v = c3_mean(COUNTEREXAMPLE)
        assert v.margin == 0.0 and "conjectured" in v.detail

    def test_constant_values(self):
        assert c3_mean(constant_ckl_matrix(CklParams(1, 1, 0))).margin == 0.0
        v = c3_mean(constant_ckl_matrix(CklParams(0.5, 0.5, 0.5)))
        assert v.status == FAILS and abs(v.margin + 0.5) < 1e-15


class TestCyclicNecessary:
    def test_holding_instance(self):
        a = validate_coefficients([[1, 0.1, 0.1], [0.1, 2, 0.1], [0.1, 0.1, 4]])
        v = cyclic_necessary(a)
        assert v.status == HOLDS and abs(v.margin - 0.2) < 1e-12

    def test_failing_instance_consistent_with_constant_criterion(self):
        a = constant_ckl_matrix(CklParams(1, 0.25, 0.25))
        v = cyclic_necessary(a)
        assert v.status == FAILS and abs(v.margin + 0.5) < 1e-12
        assert refuted(ckl_is_positive(CklParams(1, 0.25, 0.25)))

    def test_counterexample_not_applicable(self):
        # diagonal dips below 1 and c = 0
        assert cyclic_necessary(COUNTEREXAMPLE).status == NOT_APPLICABLE


class TestBOnlyNecessary:
    def test_boundary(self):
        a = validate_coefficients([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        v = b_only_necessary(a)
        assert v.margin == 0.0 and affirmative(v)

    def test_failing(self):
        a = validate_coefficients([[1, 0.5, 0], [0, 1, 0.5], [0.5, 0, 1]])
        v = b_only_necessary(a)
        assert v.status == FAILS and abs(v.margin + 0.5) < 1e-12

    def test_unequal_entries(self):
        a = validate_coefficients([[2, 1, 0], [0, 2, 2], [4, 0, 2]])
        v = b_only_necessary(a)
        assert v.status == HOLDS and abs(v.margin - 2.0) < 1e-12

    def test_gate(self):
        assert b_only_necessary(COUNTEREXAMPLE).status == NOT_APPLICABLE
        assert b_only_necessary(CHOI).status == NOT_APPLICABLE


class TestScalingSufficient:
    def test_self_certificate(self):
        params, weights = CklParams(1, 1, 0), ScalingVector((1, 2, 4))
        a = scaled_ckl_matrix(params, weights)
        v = scaling_sufficient(a, params, weights)
        assert v.status == HOLDS and abs(v.margin) < 1e-15

    def test_entrywise_dominance(self):
        params, weights = CklParams(1, 1, 0), ScalingVector((1, 2, 4))
        raw = scaled_ckl_matrix(params, weights).a + 0.1
        v = scaling_sufficient(validate_coefficients(raw), params, weights)
        assert v.status == HOLDS and abs(v.margin - 0.1) < 1e-12

    def test_counterexample_fails(self):
        v = scaling_sufficient(COUNTEREXAMPLE, CklParams(1, 1, 0), ScalingVector((1, 1, 1)))
        assert v.status == FAILS and abs(v.margin + 0.5) < 1e-15

    def test_rejects_non_positive_reference(self):
        with pytest.raises(ValueError, match="positive"):
            scaling_sufficient(COUNTEREXAMPLE, CklParams(0.5, 0.5, 0.5), ScalingVector((1, 1, 1)))


class TestScalingSearch:
    def test_recovers_scaled_construction(self):
        a = scaled_ckl_matrix(CklParams(1, 1, 0), ScalingVector((1, 2, 4)))
        assert affirmative(scaling_sufficient_search(a))

    def test_zero_b_shortcut(self):
        a = kye_matrix(KyeParams(1.5, 1, 1, 1))
        v = scaling_sufficient_search(a)
        assert affirmative(v)

    def test_counterexample_has_no_certificate(self):
        assert scaling_sufficient_search(COUNTEREXAMPLE).status == FAILS

    def test_grid_interior_instance(self):
        # rescaling of a strictly interior positive constant map
        a = scaled_ckl_matrix(CklParams(1.2, 0.9, 0.4), ScalingVector((1.0, 3.0, 0.5)))
        assert affirmative(scaling_sufficient_search(a))


def _scaling_inputs():
    values = np.arange(0.0, 3.0001, 0.25)
    for a in values:
        for b in values:
            for c in values:
                yield constant_ckl_matrix(CklParams(a, b, c))
    rng = np.random.default_rng(2027)
    for _ in range(300):
        # about one entry in six is zero, so some geometric means vanish
        yield validate_coefficients(2.0 * rng.random((3, 3)) * (rng.random((3, 3)) > 0.15))


def _joint_slack(a0, b, c, cap):
    """Positivity margin of the constant map (a0, b, c), less any excess of bc over cap."""
    margin = max(a0 - 2.0, min(a0 + b + c - 2.0, a0 + math.sqrt(b * c) - 1.0))
    return margin if b * c == 0.0 else min(margin, cap - b * c)


class TestScalingOptimum:
    """scaling_sufficient_search against a dense brute force of its own family."""

    def test_reported_reference_is_feasible_and_optimal(self):
        side = np.linspace(0.0, 1.0, 201)
        for A in _scaling_inputs():
            a = A.a
            a0 = float(a.diagonal().min())
            b_star = float(np.cbrt(a[0, 1] * a[1, 2] * a[2, 0]))
            c_star = float(np.cbrt(a[0, 2] * a[1, 0] * a[2, 1]))
            cap = min(a[0, 1] * a[1, 0], a[1, 2] * a[2, 1], a[2, 0] * a[0, 2])
            v = scaling_sufficient_search(A)
            ref_a, b, c = ast.literal_eval(re.search(r"= (\(.*?\))", v.detail).group(1))
            assert ref_a == a0
            assert 0.0 <= b <= b_star + 1e-12 and 0.0 <= c <= c_star + 1e-12
            assert _joint_slack(a0, b, c, cap) == pytest.approx(v.margin, abs=1e-12)
            bb, cc = np.meshgrid(b_star * side, c_star * side, indexing="ij")
            main_branch = np.minimum(a0 + bb + cc - 2.0, a0 + np.sqrt(bb * cc) - 1.0)
            margin = np.maximum(a0 - 2.0, main_branch)
            # on the axes bc = 0 the caps are vacuous, as in _joint_slack
            brute = np.where(bb * cc == 0.0, margin, np.minimum(margin, cap - bb * cc))
            assert v.margin >= float(brute.max()) - 1e-12


class TestN2:
    """At n = 2 both pairwise rows are the exact test sqrt(a11 a22) + sqrt(a12 a21) >= 1."""

    @staticmethod
    def _rows(raw):
        a = validate_coefficients(raw)
        ((_, necessary),) = pairwise_necessary(a)
        ((_, sufficient),) = pairwise_sufficient(a)
        return necessary, sufficient

    def test_examples(self):
        for raw in (np.eye(2), [[0, 1], [1, 0]]):
            for v in self._rows(raw):
                assert v.margin == 0.0 and affirmative(v)
        for v in self._rows([[0.25, 0.25], [0.25, 0.25]]):
            assert v.status == FAILS and abs(v.margin + 0.5) < 1e-15

    def test_seeded_draws_carry_equal_margins(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            raw = 2.0 * rng.random((2, 2)) * (rng.random((2, 2)) > 0.2)
            necessary, sufficient = self._rows(raw)
            assert necessary.margin == sufficient.margin
            assert necessary.status == sufficient.status
            summary = full_report(validate_coefficients(raw)).summary
            if necessary.status == HOLDS:
                assert "positive_proven" in summary
            elif necessary.status == FAILS:
                assert summary == ("not_positive_proven",)


class TestBoundaryProposition:
    def test_counterexample_family(self):
        a = validate_coefficients([[0.5, 1, 0], [0, 1, 1], [1, 0, 2]])
        v = boundary_proposition(a)
        assert v.status == FAILS
        assert abs(v.margin + 1.0) < 1e-12  # 6 (1 - 7/6) / 1
        assert "D_numeric" in v.detail

    def test_equal_diagonals(self):
        a = validate_coefficients([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        v = boundary_proposition(a)
        assert v.status == MARGINAL and v.margin == 0.0

    def test_zero_b_boundary(self):
        a = validate_coefficients([[1, 0, 0], [0, 2, 0], [0, 0, 4]])
        v = boundary_proposition(a)
        assert v.status == FAILS and abs(v.margin + 1.0) < 1e-12  # 6 (2 - 7/3) / 2

    def test_gates(self):
        assert boundary_proposition(CHOI).status == NOT_APPLICABLE  # c = 1
        off = validate_coefficients([[0.6, 1, 0], [0, 1, 1], [1, 0, 2]])
        assert boundary_proposition(off).status == NOT_APPLICABLE  # off the boundary

    @pytest.mark.parametrize("band", [1e-3, math.nan])
    def test_boundary_gate_ignores_band(self, band):
        # a* + b = 2.0005: off the boundary, where D_numeric depends on b
        # and no longer equals D_formula, whatever margin band is asked for
        near = validate_coefficients([[0.5, 1.0005, 0], [0, 1, 1.0005], [1.0005, 0, 2]])
        assert boundary_proposition(near, band).status == NOT_APPLICABLE

    def test_determinant_identity_random(self):
        rng = np.random.default_rng(55)
        checked = 0
        while checked < 200:
            adiag = 0.2 + rng.random(3) * 2.8
            a_star = float(np.prod(adiag) ** (1 / 3))
            b = 2.0 - a_star
            if b < 0:
                continue
            a = validate_coefficients(
                [[adiag[0], b, 0], [0, adiag[1], b], [b, 0, adiag[2]]]
            )
            v = boundary_proposition(a)
            assert v.status in (FAILS, MARGINAL)  # never a positive proof
            assert v.margin <= 1e-12  # arithmetic-geometric mean inequality
            checked += 1


class TestFullReport:
    def test_choi_summary(self):
        r = full_report(CHOI)
        assert set(r.summary) == {"positive_proven", "indecomposable_proven"}
        assert r.verdict("cp").status == FAILS
        assert r.form.tag == "constant_ckl"

    def test_all_ones_summary(self):
        r = full_report(ALL_ONES)
        assert set(r.summary) == {"positive_proven", "decomposable_proven"}

    def test_counterexample_summary(self):
        r = full_report(COUNTEREXAMPLE)
        assert r.summary == ("not_positive_proven",)

    def test_cp_region(self):
        r = full_report(constant_ckl_matrix(CklParams(2.5, 0.1, 0.1)))
        assert "cp_proven" in r.summary and "positive_proven" in r.summary
        assert "decomposable_proven" in r.summary
        assert "indecomposable_proven" not in r.summary

    def test_kye_indecomposable(self):
        r = full_report(kye_matrix(KyeParams(1.5, 1, 1, 1)))
        assert "positive_proven" in r.summary and "indecomposable_proven" in r.summary

    def test_kye_edge_a2_b0_is_decomposable_not_a_conflict(self):
        # a = 2, b = 0 is marginal for kye_check (a < 2 strictly) and the
        # decomposable boundary of the constant cyclic family
        for c in np.arange(13) * 0.25:
            r = full_report(constant_ckl_matrix(CklParams(2.0, 0.0, float(c))))
            assert r.verdict("kye").status == MARGINAL
            assert {"positive_proven", "decomposable_proven"} <= set(r.summary)
            assert "indecomposable_proven" not in r.summary

    def test_n2_iff_via_pairwise(self):
        r = full_report(validate_coefficients([[0.25, 0.25], [0.25, 0.25]]))
        assert r.summary == ("not_positive_proven",)
        r = full_report(validate_coefficients([[1.5, 0.5], [0.5, 1.5]]))
        assert "positive_proven" in r.summary

    def test_no_conflicts_on_random_sample(self):
        rng = np.random.default_rng(314)
        for _ in range(10_000):
            a = validate_coefficients(rng.random((3, 3)) * 3)
            r = full_report(a)  # raises InternalInconsistencyError on conflict
            assert not (
                "positive_proven" in r.summary and "not_positive_proven" in r.summary
            )
            assert not (
                "indecomposable_proven" in r.summary and "decomposable_proven" in r.summary
            )

    def test_cp_implies_positive_on_constants(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            a, b, c = 2.0 + rng.random() * 2, rng.random(), rng.random()
            r = full_report(constant_ckl_matrix(CklParams(a, b, c)))
            assert "cp_proven" in r.summary and "positive_proven" in r.summary

    def test_constant_form_margins_identical_across_pairs(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            a = constant_ckl_matrix(CklParams(*(rng.random(3) * 2)))
            margins = [v.margin for _, v in pairwise_necessary(a)]
            assert max(margins) - min(margins) < 1e-14


ROWS_BEFORE_PAIRS = ["cp", "ckl_positive", "ckl_indecomposable", "kye", "average_necessary"]
ROWS_AFTER_PAIRS = [
    "c3_mean",
    "cyclic_necessary",
    "b_only_necessary",
    "scaling_sufficient",
    "boundary_proposition",
    "structured_decomposition",
]
GENERAL_N3 = validate_coefficients([[0.46, 1.17, 1.41], [0.57, 1.72, 0.14], [1.49, 0.32, 1.13]])
GCHOI_N4 = validate_coefficients(
    [[2.375, 0, 0, 1], [1, 2.375, 0, 0], [0, 1, 2.375, 0], [0, 0, 1, 2.375]]
)


def no_proofs(**named):
    proofs = {"positive": [], "not_positive": [], "decomposable": [], "indecomposable": []}
    proofs.update(named)
    return proofs


class TestConditionTable:
    @pytest.mark.parametrize(
        "a, pairs",
        [
            (validate_coefficients([[1.5, 0.5], [0.5, 1.5]]), ["1_2"]),
            (CHOI, ["1_2", "1_3", "2_3"]),
            (GENERAL_N3, ["1_2", "1_3", "2_3"]),
            (GCHOI_N4, ["1_2", "1_3", "1_4", "2_3", "2_4", "3_4"]),
        ],
        ids=["n2", "constant-ckl", "general-n3", "n4"],
    )
    def test_row_names_and_order(self, a, pairs):
        r = full_report(a)
        assert [name for name, _ in r.rows] == (
            ROWS_BEFORE_PAIRS
            + [f"pairwise_necessary_{p}" for p in pairs]
            + [f"pairwise_sufficient_{p}" for p in pairs]
            + ROWS_AFTER_PAIRS
        )
        for (i, j), v in pairwise_necessary(a):
            assert r.verdict(f"pairwise_necessary_{i}_{j}") == v
        for (i, j), v in pairwise_sufficient(a):
            assert r.verdict(f"pairwise_sufficient_{i}_{j}") == v
        assert r.verdict("c3_mean") == c3_mean(a)
        with pytest.raises(KeyError):
            r.verdict("pairwise_sufficient")

    @pytest.mark.parametrize(
        "a, proofs, summary",
        [
            (
                CHOI,
                no_proofs(
                    positive=["ckl_positive", "kye", "scaling_sufficient"],
                    indecomposable=["ckl_indecomposable", "kye"],
                ),
                ("positive_proven", "indecomposable_proven"),
            ),
            (
                COUNTEREXAMPLE,
                no_proofs(not_positive=["pairwise_necessary_1_2", "boundary_proposition"]),
                ("not_positive_proven",),
            ),
            (
                ALL_ONES,
                no_proofs(
                    positive=[
                        "ckl_positive",
                        "pairwise_sufficient",
                        "scaling_sufficient",
                        "structured_decomposition",
                    ],
                    decomposable=[
                        "ckl_indecomposable",
                        "pairwise_sufficient",
                        "structured_decomposition",
                    ],
                ),
                ("positive_proven", "decomposable_proven"),
            ),
            (GCHOI_N4, no_proofs(), ("inconclusive",)),
        ],
        ids=["choi", "example5", "all-ones", "gchoi-n4"],
    )
    def test_proofs_and_summary_pinned(self, a, proofs, summary):
        r = full_report(a)
        assert r.proofs == proofs
        assert r.summary == summary == summarize(proofs, affirmative(r.verdict("cp")))

    @pytest.mark.parametrize(
        "proofs, cp, summary",
        [
            (no_proofs(), False, ("inconclusive",)),
            (no_proofs(indecomposable=["ppt_witness"]), False,
             ("inconclusive", "indecomposable_proven")),
            (no_proofs(positive=["cp"], decomposable=["cp"]), True,
             ("cp_proven", "positive_proven", "decomposable_proven")),
            (no_proofs(positive=["kye"], indecomposable=["kye", "ppt_witness"]), False,
             ("positive_proven", "indecomposable_proven")),
            (no_proofs(not_positive=["violation_certificate"]), False, ("not_positive_proven",)),
        ],
    )
    def test_summarize_flag_order(self, proofs, cp, summary):
        assert summarize(proofs, cp) == summary

    @pytest.mark.parametrize(
        "proofs, message",
        [
            (
                no_proofs(positive=["cp"], not_positive=["pairwise_necessary_1_2"]),
                "positivity proven by ['cp'] but refuted by ['pairwise_necessary_1_2']",
            ),
            (
                no_proofs(indecomposable=["kye"], decomposable=["ckl_indecomposable"]),
                "indecomposability proven by ['kye'] but decomposability by ['ckl_indecomposable']",
            ),
            (
                no_proofs(positive=["ckl_positive"], not_positive=["violation_certificate"]),
                "positivity proven by ['ckl_positive'] but refuted by ['violation_certificate']",
            ),
            (
                no_proofs(
                    positive=["structured_decomposition"],
                    decomposable=["structured_decomposition"],
                    indecomposable=["ppt_witness"],
                ),
                "indecomposability proven by ['ppt_witness'] "
                "but decomposability by ['structured_decomposition']",
            ),
        ],
        ids=["positivity", "decomposability", "violation-certificate", "ppt-witness"],
    )
    def test_summarize_raises_on_contradiction(self, proofs, message):
        with pytest.raises(InternalInconsistencyError) as exc:
            summarize(proofs, cp=False)
        assert str(exc.value) == message
