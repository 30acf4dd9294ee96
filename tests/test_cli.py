"""Tests for the command-line front end."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choilike import cli, criteria, maps, search
from choilike.cli import main, read_matrix_file
from choilike.criteria import DEFAULT_MARGIN_BAND, HOLDS, Verdict
from choilike.maps import CoefficientMatrix, structured_matrix, validate_coefficients
from choilike.search import positivity_gap

CHOI = {"n": 3, "A": [[1, 0, 1], [1, 1, 0], [0, 1, 1]]}
ALL_ONES = {"n": 3, "A": [[1, 1, 1], [1, 1, 1], [1, 1, 1]]}
HALF = {"n": 3, "A": [[0.5, 0.5, 0.5], [0.5, 0.5, 0.5], [0.5, 0.5, 0.5]]}


# overflowed, underflowed or contradicted in the analysis before the coefficient range
EXTREME_MAGNITUDES = {
    "1e308": [[1e308, 1e308], [1e308, 1e308]],
    "1e300-cyclic": [[1e300, 1e300, 0], [0, 1e300, 1e300], [1e300, 0, 1e300]],
    "1e200-side-16": [[1e200] * 16] * 16,
    "subnormal": [[5e-324, 5e-324], [5e-324, 5e-324]],
    "mixed": [[1e-300, 1e300, 0], [1e-300, 1, 1e300], [1, 0, 1e-300]],
}


def counterexample_payload():
    z = [2 ** (1 / 3), 2 ** (-1 / 6), 2 ** (-1 / 6)]
    x = [[[z[i] * z[j], 0.0] for j in range(3)] for i in range(3)]
    return {"n": 3, "A": [[0.5, 1, 0], [0, 1, 1], [1, 0, 2]], "X": x}


def write(tmp_path, payload, name="matrix.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out)


class TestAnalyze:
    def test_choi_map_report(self, tmp_path, capsys):
        path = write(tmp_path, CHOI)
        code, doc = run_json(capsys, "analyze", "-i", path)
        assert code == 0
        assert set(doc["summary"]) == {"positive_proven", "indecomposable_proven"}
        assert doc["form"] == "constant_ckl"
        assert "ppt_witness" in doc and "violation_certificate" not in doc
        assert doc["ppt_witness"]["normalized_value"] <= -1 / 7 + 1e-6
        names = {c["name"] for c in doc["conditions"]}
        assert {"cp", "ckl_positive", "pairwise_necessary", "scaling_sufficient"} <= names

    def test_counterexample_report(self, tmp_path, capsys):
        path = write(tmp_path, counterexample_payload())
        code, doc = run_json(capsys, "analyze", "-i", path)
        assert code == 0
        assert doc["summary"] == ["not_positive_proven"]
        assert "violation_certificate" in doc and "ppt_witness" not in doc
        assert doc["violation_certificate"]["gap"] < -1e-9
        chk = doc["counterexample_check"]
        assert chk["input_psd"] is True and chk["image_psd"] is False
        assert abs(chk["det"] + 1.0) < 1e-9

    def test_all_ones_no_certificates(self, tmp_path, capsys):
        path = write(tmp_path, ALL_ONES)
        code, doc = run_json(capsys, "analyze", "-i", path)
        assert code == 0
        assert set(doc["summary"]) == {"positive_proven", "decomposable_proven"}
        assert "violation_certificate" not in doc and "ppt_witness" not in doc

    def test_certificate_self_contained(self, tmp_path, capsys):
        path = write(tmp_path, HALF)
        code, doc = run_json(capsys, "analyze", "-i", path)
        assert code == 0
        cert = doc["violation_certificate"]
        a = validate_coefficients(doc["input"]["A"])
        replayed = positivity_gap(a, cert["p"], cert["q"])
        assert abs(replayed - cert["gap"]) < 1e-12

    def test_witness_self_contained(self, tmp_path, capsys):
        import numpy as np

        from choilike.linalg import is_psd
        from oracles import assemble_structured_state, choi_matrix, partial_transpose

        path = write(tmp_path, CHOI)
        code, doc = run_json(capsys, "analyze", "-i", path)
        assert code == 0
        w = doc["ppt_witness"]
        a = validate_coefficients(doc["input"]["A"])
        rho = assemble_structured_state(np.array(w["alpha"]), np.array(w["r"]))
        assert is_psd(rho, tol=1e-9)[0]
        assert is_psd(partial_transpose(rho, a.n), tol=1e-9)[0]
        replayed = float(np.trace(rho @ choi_matrix(a)).real)
        assert abs(replayed - w["trace_value"]) < 1e-10

    def test_witness_fields_are_the_report_keys_in_order(self):
        keys = ["alpha", "r", "trace_value", "normalized_value"]
        assert [f.name for f in dataclasses.fields(search.PptWitnessCertificate)] == keys
        cert = search.indecomposability_probe(validate_coefficients(CHOI["A"]))
        witness = cli._witness_dict(cert)
        assert list(witness) == keys
        assert witness["alpha"] == cert.alpha.tolist() and witness["r"] == cert.r.tolist()

    def test_near_boundary_at_wide_tol(self, tmp_path, capsys):
        # a* + b = 2.0005 lies inside a 1e-3 band but off the a* + b = 2
        # boundary, so the boundary proposition does not apply
        near = [[0.5, 1.0005, 0], [0, 1, 1.0005], [1.0005, 0, 2]]
        path = write(tmp_path, {"n": 3, "A": near})
        code, doc = run_json(capsys, "analyze", "-i", path, "--tol", "1e-3")
        assert code == 0
        verdicts = {c["name"]: c["status"] for c in doc["conditions"]}
        assert verdicts["boundary_proposition"] == "not_applicable"

    def test_tolerance_sets_the_x_checks(self, tmp_path, capsys):
        # eigenvalue -1e-7 of X lies between the default band and 1e-6
        x = [[1, 0, 0], [0, 1e-3, 0], [0, 0, -1e-7]]
        path = write(tmp_path, {"A": CHOI["A"], "X": x})
        code, doc = run_json(capsys, "analyze", "-i", path)
        assert code == 0 and doc["counterexample_check"]["input_psd"] is False
        code, doc = run_json(capsys, "analyze", "-i", path, "--tol", "1e-6")
        assert code == 0 and doc["counterexample_check"]["input_psd"] is True

    def test_text_format(self, tmp_path, capsys):
        path = write(tmp_path, CHOI)
        code, out = run_cli(capsys, "analyze", "-i", path)
        assert code == 0
        assert "summary: positive_proven, indecomposable_proven" in out
        assert "ckl_positive" in out


    def test_negative_zero_reports_as_zero(self, tmp_path, capsys):
        outputs = []
        for zero in (-0.0, 0):
            path = write(tmp_path, {"A": [[zero, 1, 0], [1, 1, 0], [0, 1, 1]]})
            code, out = run_cli(capsys, "analyze", "-i", path, "--format", "json")
            assert code == 0
            outputs.append(out)
        assert "-0.0" not in outputs[0]
        assert outputs[0] == outputs[1]

    def test_kye_edge_points_complete(self, tmp_path, capsys):
        # a = 2, b = 0 sits on kye_check's excluded edge and on the
        # decomposable boundary of the constant cyclic family; a = 2 is
        # also the CP boundary, where the exact Schur slack is 0
        for c in np.arange(13) * 0.25:
            a = [[2.0, 0.0, c], [c, 2.0, 0.0], [0.0, c, 2.0]]
            path = write(tmp_path, {"n": 3, "A": a})
            code, doc = run_json(capsys, "analyze", "-i", path)
            assert code == 0
            assert doc["summary"] == ["cp_proven", "positive_proven", "decomposable_proven"]


def constant_cyclic(a, b, c):
    return {"n": 3, "A": [[a, b, c], [c, a, b], [b, c, a]]}


class TestTinyBesideHugeSlots:
    """Constant cyclic maps pairing a tiny slot with a huge one, inside the coefficient range."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("b,c", [(1e-13, 1e13), (6.9e-20, 7.1e24)])
    def test_tiny_b_is_outside_the_zero_b_family(self, tmp_path, capsys, b, c):
        # b c is about 1, so the map is positive and on the decomposability
        # boundary; the zero-b theorem would call it not positive
        code, doc = run_json(capsys, "analyze", "-i", write(tmp_path, constant_cyclic(0.0, b, c)))
        assert code == 0
        assert doc["summary"] == ["positive_proven", "decomposable_proven"]
        kye = next(row for row in doc["conditions"] if row["name"] == "kye")
        assert kye["status"] == "not_applicable"

    @pytest.mark.filterwarnings("error")
    def test_witness_blocks_beside_a_huge_entry(self, tmp_path, capsys):
        # alpha_ij near 4e7 beside r_ij = 1/3: the 2 x 2 block minima cancel
        # to -3.7e-9 unless taken as determinant over the larger eigenvalue
        path = write(tmp_path, constant_cyclic(0.0, 1.0057e-41, 1.118e8))
        code, doc = run_json(capsys, "probe", "-i", path)
        assert code == 0
        assert doc["summary"] == ["indecomposable_proven"]
        alpha, r = np.array(doc["ppt_witness"]["alpha"]), np.array(doc["ppt_witness"]["r"])
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            assert r[i, j] ** 2 <= alpha[i, j] * alpha[j, i]

    # one slot off the constant cyclic pattern (a, b, c) = (0 or 1, tiny, 1e13),
    # so the constant cyclic theorems do not apply
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "raw,summary",
        [
            # pairs (1,3) and (2,3) have a_ij a_ji = 0 beside a zero diagonal: not
            # positive, although the constant cyclic formula (b c = 1) says positive
            ([[0, 1e-13, 1e13], [1e13, 0, 0], [0, 1e13, 0]], ["not_positive_proven"]),
            # T decomposes it, although the strict CKL condition 4bc < (2 - a)^2
            # on (1, 0, 1e13) says indecomposable
            (
                [[1, 0, 1e13], [1e13, 1, 1e-12], [1e-12, 1e13, 1]],
                ["positive_proven", "decomposable_proven"],
            ),
            # pairs (1,3) and (2,3) force M_13 = M_23 = -1 in every decomposition,
            # so M_12 = 1 against M_12 <= 0: positive, but not decomposable
            ([[1, 1e-13, 1e13], [1e13, 1, 0], [0, 1e13, 1]], ["positive_proven"]),
        ],
        ids=["not-positive", "decomposable", "not-decomposable"],
    )
    def test_one_slot_off_the_pattern_is_general(self, tmp_path, capsys, raw, summary):
        code, doc = run_json(capsys, "analyze", "-i", write(tmp_path, {"A": raw}))
        assert code == 0
        assert doc["form"] == "general" and doc["summary"] == summary

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["analyze", "search"])
    def test_long_run_of_accepted_steps(self, tmp_path, capsys, command):
        # one start accepts about 1600 steps in a row: a step growing by 1.25
        # on each overflowed the norm of the projection
        path = write(tmp_path, {"A": [[0, 1, 1e-13], [0, 0, 1e-13], [1, 0, 0]]})
        code, doc = run_json(capsys, command, "-i", path)
        assert code == 0 and doc["summary"] == ["not_positive_proven"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("big", [1e40, 1e50])
    @pytest.mark.parametrize("command", ["analyze", "probe"])
    def test_root_with_no_negative_value(self, tmp_path, capsys, command, big):
        # lambda_min(T_lam) is exactly 0 at every lam < 0 the probe tries: its regula
        # falsi point stayed at lo while f_hi was halved to -0.0, then divided by zero
        path = write(tmp_path, {"A": [[1, 0, 1e8], [big, 1, 1], [1, 0, 1]]})
        code = main([command, "-i", path, "--format", "json"])
        out, err = capsys.readouterr()
        assert code == 0 and "Traceback" not in err
        doc = json.loads(out)
        assert doc["summary"] == ["inconclusive"] and "ppt_witness" not in doc

    @pytest.mark.parametrize("big,solves", [(1e40, 111), (1e50, 148)])
    def test_root_with_no_negative_value_is_bounded(
        self, tmp_path, capsys, monkeypatch, big, solves
    ):
        # the eigensolves of one probe, the entry floor included: midpoints cross the run
        # of lam where every entry of T_lam rounds to the same floats
        path = write(tmp_path, {"A": [[1, 0, 1e8], [big, 1, 1], [1, 0, 1]]})
        calls, eigvalsh = [], np.linalg.eigvalsh

        def counting(m, *args, **kwargs):
            calls.append(1)
            return eigvalsh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        code, doc = run_json(capsys, "probe", "-i", path)
        assert code == 0 and "ppt_witness" not in doc and len(calls) == solves


# slot values of the constant patterns below: zero, tiny, order one and huge
NEAR_PATTERN_SLOTS = np.array([0.0, 1e-13, 1e-12, 0.25, 0.5, 1.0, 2.0, 1e12, 1e13])


def near_pattern_maps(count: int):
    """Constant cyclic matrices with one slot zeroed or moved by at most 1e-12."""
    rng = np.random.default_rng(7)
    for _ in range(count):
        a, b, c = rng.choice(NEAR_PATTERN_SLOTS, 3)
        m = np.array([[a, b, c], [c, a, b], [b, c, a]])
        i, j = rng.integers(0, 3, 2)
        if rng.random() < 0.5:
            m[i, j] = 0.0
        else:
            m[i, j] = max(0.0, m[i, j] + rng.uniform(-1e-12, 1e-12))
        yield m


class TestNearPatterns:
    @pytest.mark.filterwarnings("error")
    def test_no_theorem_row_decides_outside_its_pattern(self):
        # a theorem row run on a map that misses its pattern by rounding
        # contradicts the rows that read the map as it is
        failures = []
        for m in near_pattern_maps(1000):
            try:
                cli.run_analysis(validate_coefficients(m), DEFAULT_MARGIN_BAND)
            except criteria.InternalInconsistencyError as exc:
                failures.append((m.tolist(), str(exc)))
        assert not failures


# inconclusive by every formula, but T (lambda_min 0.391) decomposes the map exactly
STRUCTURED = {"n": 3, "A": [[0.46, 1.17, 1.41], [0.57, 1.72, 0.14], [1.49, 0.32, 1.13]]}


# the generalized Choi map n = 8: a_ii = 6.375, a_{i,i-1} = 1
GCHOI8 = {"A": [[6.375 if i == j else 1.0 if j == (i - 1) % 8 else 0.0 for j in range(8)]
                for i in range(8)]}


class TestStructuredDecomposition:
    def test_new_proof_pinned(self, tmp_path, capsys, monkeypatch):
        project = search._project_unit_nonneg
        monkeypatch.setattr(search, "_project_unit_nonneg", None)  # a descent step would raise
        path = write(tmp_path, STRUCTURED)
        code, doc = run_json(capsys, "analyze", "-i", path)
        assert code == 0
        assert doc["summary"] == ["positive_proven", "decomposable_proven"]
        row = doc["conditions"][-1]
        assert row["name"] == "structured_decomposition" and row["status"] == "holds"
        assert row["margin"] == pytest.approx(0.3910829493693102, abs=1e-12)
        assert "violation_certificate" not in doc and "ppt_witness" not in doc
        # without the exact check no criterion settles this map
        monkeypatch.setattr(CoefficientMatrix, "decomposition_verified", property(lambda _: False))
        monkeypatch.setattr(search, "_project_unit_nonneg", project)
        code, doc = run_json(capsys, "analyze", "-i", path)
        assert code == 0 and doc["summary"] == ["inconclusive"]

    @pytest.mark.parametrize(
        "payload",
        [STRUCTURED, CHOI, constant_cyclic(0.75, 1.25, 0.25), GCHOI8],
        ids=["structured", "choi", "ckl-0.75-1.25-0.25", "gchoi-8"],
    )
    def test_analysis_checks_once(self, tmp_path, capsys, monkeypatch, payload):
        # the report and both searches share one T(A), one lambda_min(T(A)) and at most
        # one exact check
        a = validate_coefficients(payload["A"]).a
        t = structured_matrix(a)
        builds, floors, checks = [], [], []
        build, eigvalsh, box = maps.structured_matrix, np.linalg.eigvalsh, maps._box_certificate

        def counting_build(m):
            builds.append(np.array_equal(m, a))
            return build(m)

        def counting_eigvalsh(m, *args, **kwargs):
            floors.append(np.array_equal(m, t))
            return eigvalsh(m, *args, **kwargs)

        def counting_box(A, m):
            checks.append(1)
            return box(A, m)

        monkeypatch.setattr(maps, "structured_matrix", counting_build)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        monkeypatch.setattr(maps, "_box_certificate", counting_box)
        code, _ = run_json(capsys, "analyze", "-i", write(tmp_path, payload))
        assert code == 0 and sum(builds) == 1 and sum(floors) == 1 and len(checks) <= 1

    def test_failed_check_refutes_nothing(self, tmp_path, capsys):
        code, doc = run_json(capsys, "analyze", "-i", write(tmp_path, CHOI))
        assert code == 0
        row = doc["conditions"][-1]
        assert row["name"] == "structured_decomposition" and row["status"] == "fails"
        assert set(doc["summary"]) == {"positive_proven", "indecomposable_proven"}

    def test_formula_proof_keeps_the_search_as_cross_check(self, tmp_path, capsys, monkeypatch):
        # (0.9, 0.5, 0.5) is not positive (a + b + c < 2) and no other formula refutes
        # it; a wrong ckl_is_positive must still end in exit 2 through the search
        monkeypatch.setattr(criteria, "ckl_is_positive", lambda p, band=0: Verdict(HOLDS, 1.0))
        a = [[0.9, 0.5, 0.5], [0.5, 0.9, 0.5], [0.5, 0.5, 0.9]]
        path = write(tmp_path, {"n": 3, "A": a})
        code, _ = run_cli(capsys, "analyze", "-i", path)
        assert code == 2


class TestRunAnalysis:
    def test_witness_beside_inconclusive(self):
        # generalized Choi map n = 4: no criterion proves anything, the probe finds a witness
        a = [[2.375 if i == j else 1.0 if j == (i - 1) % 4 else 0.0 for j in range(4)]
             for i in range(4)]
        doc = cli.run_analysis(validate_coefficients(a), DEFAULT_MARGIN_BAND)
        assert doc["summary"] == ["inconclusive", "indecomposable_proven"]
        assert "ppt_witness" in doc and "violation_certificate" not in doc

    @pytest.mark.parametrize("n", [3, 8])
    def test_builds_nothing_of_side_n_squared(self, tmp_path, capsys, monkeypatch, n):
        # n = 3 is the Choi map; n = 8 the generalized Choi map with d = 6.375
        from choilike import linalg

        monkeypatch.setattr(search, "psd_feasible_cross_terms", None)  # a call would raise
        eigenvalues = linalg.hermitian_eigenvalues

        def side_n_only(matrix, *args, **kwargs):
            assert np.shape(matrix)[0] <= n, "eigensolve of side n^2"
            return eigenvalues(matrix, *args, **kwargs)

        monkeypatch.setattr(linalg, "hermitian_eigenvalues", side_n_only)
        monkeypatch.setattr(search, "hermitian_eigenvalues", side_n_only)
        d = n - 2 + 0.375 if n > 3 else 1.0
        a = [[d if i == j else 1.0 if j == (i - 1) % n else 0.0 for j in range(n)] for i in range(n)]
        code, doc = run_json(capsys, "analyze", "-i", write(tmp_path, {"n": n, "A": a}))
        assert code == 0
        assert "indecomposable_proven" in doc["summary"] and "ppt_witness" in doc


# n = 9 with 71 pair seeds: only a random start of the violation search refutes it, the
# eleventh (start 81), which crosses below -tolerance at the second descent step
WIDE9 = {"A": [
    [5.3, 0.7, 1.2, 0.9, 0.0, 0.4, 0.1, 1.2, 1.2], [1.3, 2.5, 0.5, 0.7, 1.3, 1.2, 1.1, 1.0, 1.1],
    [0.7, 0.8, 6.1, 0.8, 0.4, 1.3, 1.4, 1.2, 0.8], [0.3, 1.0, 0.8, 2.0, 1.3, 0.2, 1.1, 0.8, 1.5],
    [0.1, 0.8, 0.3, 0.5, 1.9, 1.3, 0.2, 1.5, 0.3], [0.5, 1.0, 0.5, 0.4, 1.5, 0.7, 0.1, 0.7, 0.3],
    [0.7, 0.6, 0.1, 0.7, 0.6, 1.2, 1.4, 0.7, 1.0], [1.0, 1.3, 0.5, 0.6, 1.1, 0.7, 0.7, 4.3, 1.1],
    [0.4, 1.3, 0.8, 0.8, 1.4, 1.2, 1.0, 0.6, 3.1],
]}


class TestWideMaps:
    def test_n9_violation_from_a_random_start(self, tmp_path, capsys, monkeypatch):
        a = validate_coefficients(WIDE9["A"])
        assert len(search._pair_seeds(a)) == 71
        cert = search.find_positivity_violation(a)
        assert cert is not None and cert.gap == pytest.approx(-0.0045193, abs=1e-6)
        assert positivity_gap(a, cert.p, cert.q) == cert.gap
        code, doc = run_json(capsys, "analyze", "-i", write(tmp_path, WIDE9))
        assert code == 0 and doc["summary"] == ["not_positive_proven"]
        assert doc["violation_certificate"]["gap"] == cert.gap
        monkeypatch.setattr(search, "_RANDOM_STARTS", 0)
        assert search.find_positivity_violation(a) is None

class TestDefaults:
    """criteria.DEFAULT_MARGIN_BAND is the only copy of the default of --tol."""

    @pytest.mark.parametrize(
        "argv", [["analyze", "-i", "a.json"], ["search", "-i", "a.json"], ["probe", "-i", "a.json"],
                 ["reproduce", "choi"]],
        ids=["analyze", "search", "probe", "reproduce"],
    )
    def test_parser_defaults_are_the_config_fields(self, argv):
        args = cli._build_parser().parse_args(argv)
        assert args.tol == DEFAULT_MARGIN_BAND

    def test_library_defaults_match_analyze_without_flags(self, tmp_path, capsys):
        path = write(tmp_path, counterexample_payload())
        assert main(["analyze", "-i", path, "--format", "json"]) == 0
        from_cli = capsys.readouterr().out
        A, x = read_matrix_file(path)
        doc = cli.run_analysis(A, DEFAULT_MARGIN_BAND, x)
        doc["config"]["format"] = "json"
        cli.emit(doc, "json")
        assert capsys.readouterr().out == from_cli


class TestSearchAndProbe:
    def test_search_finds_violation(self, tmp_path, capsys):
        path = write(tmp_path, HALF)
        code, doc = run_json(capsys, "search", "-i", path)
        assert code == 0
        assert doc["summary"] == ["not_positive_proven"]
        assert doc["violation_certificate"]["gap"] < -1e-9

    def test_search_inconclusive(self, tmp_path, capsys):
        path = write(tmp_path, ALL_ONES)
        code, doc = run_json(capsys, "search", "-i", path)
        assert code == 0
        assert doc["summary"] == ["inconclusive"]
        assert "violation_certificate" not in doc

    def test_probe_choi(self, tmp_path, capsys):
        path = write(tmp_path, CHOI)
        code, doc = run_json(capsys, "probe", "-i", path)
        assert code == 0
        assert doc["summary"] == ["indecomposable_proven"]
        assert doc["ppt_witness"]["normalized_value"] <= -1 / 7 + 1e-6
        assert doc["config"] == {"tolerance": 1e-9, "format": "json"}

    def test_probe_inconclusive(self, tmp_path, capsys):
        path = write(tmp_path, ALL_ONES)
        code, doc = run_json(capsys, "probe", "-i", path)
        assert code == 0
        assert doc["summary"] == ["inconclusive"]


class TestReproduce:
    def test_counterexample_headline(self, capsys):
        code, doc = run_json(capsys, "reproduce", "example5")
        assert code == 0
        assert "-1.000000000" in doc["headline"]
        assert doc["summary"] == ["not_positive_proven"]
        assert abs(doc["counterexample_check"]["det"] + 1.0) < 1e-9

    def test_boundary_unequal(self, capsys):
        code, doc = run_json(capsys, "reproduce", "boundary", "--a", "0.5", "1", "2")
        assert code == 0
        assert doc["summary"] == ["not_positive_proven"]
        assert "D_formula = -1.0" in doc["headline"]

    def test_boundary_equal(self, capsys):
        code, doc = run_json(capsys, "reproduce", "boundary", "--a", "1", "1", "1")
        assert code == 0
        assert "positive_proven" in doc["summary"]
        assert "D_formula = 0.0" in doc["headline"]

    @pytest.mark.filterwarnings("error")  # the product of the 1e300s must not overflow
    @pytest.mark.parametrize("values", [["1e300", "1e300", "1e300"], ["1e60", "1", "1"]])
    def test_boundary_diagonal_outside_the_range_exits_one(self, capsys, values):
        assert main(["reproduce", "boundary", "--a", *values]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: nonzero coefficient a[1][1] = ") and "outside" in err

    def test_kye_boundary(self, capsys):
        code, doc = run_json(capsys, "reproduce", "kye-boundary")
        assert code == 0
        assert "indecomposable_proven" in doc["summary"]
        assert "ppt_witness" in doc

    def test_choi(self, capsys):
        code, doc = run_json(capsys, "reproduce", "choi")
        assert code == 0
        assert "witness normalized value" in doc["headline"]

    @pytest.mark.parametrize(
        "name,values",
        [("boundary", ["1", "1"]), ("boundary", ["1", "1", "1", "1"]), ("kye-boundary", ["1", "5"]),
         ("choi", ["7"]), ("example5", ["7"])],
    )
    def test_wrong_count_of_a_values_exits_one(self, capsys, name, values):
        assert main(["reproduce", name, "--a", *values]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: reproduce {name} takes ") and captured.out == ""

    def test_unknown_name_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "nonsense"])
        assert exc.value.code == 1


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["analyze", "-i", "/nonexistent/a.json"]) == 1

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["analyze", "-i", str(path)]) == 1

    def test_nan_rejected(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"n": 2, "A": [[NaN, 0], [0, 1]]}', encoding="utf-8")
        assert main(["analyze", "-i", str(path)]) == 1

    def test_negative_entry_rejected(self, tmp_path, capsys):
        path = write(tmp_path, {"n": 2, "A": [[1, -1], [0, 1]]})
        assert main(["analyze", "-i", str(path)]) == 1

    def test_dimension_mismatch_rejected(self, tmp_path, capsys):
        path = write(tmp_path, {"n": 4, "A": [[1, 0], [0, 1]]})
        assert main(["analyze", "-i", str(path)]) == 1

    def test_non_hermitian_x_rejected(self, tmp_path, capsys):
        payload = {"n": 2, "A": [[1, 0], [0, 1]], "X": [[1, 5], [0, 1]]}
        path = write(tmp_path, payload)
        assert main(["analyze", "-i", str(path)]) == 1

    def test_internal_conflict_exits_two(self, tmp_path, capsys, monkeypatch):
        import choilike.cli as cli
        from choilike.criteria import InternalInconsistencyError

        def boom(A, band):
            raise InternalInconsistencyError("forced for the wiring test")

        monkeypatch.setattr(cli, "full_report", boom)
        path = write(tmp_path, CHOI)
        assert main(["analyze", "-i", path]) == 2


    @pytest.mark.parametrize(
        "x", [[1, 2, 3], [[1, 0, 0], [0, 1], [0, 0, 1]]], ids=["flat", "ragged"]
    )
    def test_malformed_x_rejected_without_traceback(self, tmp_path, capsys, x):
        path = write(tmp_path, {"n": 3, "A": CHOI["A"], "X": x})
        assert main(["analyze", "-i", path]) == 1
        assert capsys.readouterr().err.startswith("error: X must be a square matrix")

    @pytest.mark.parametrize(
        "payload,message",
        [
            ({"A": {"a": 1}}, "error: coefficient matrix entries must be numbers"),
            ({"n": [2], "A": [[1, 0], [0, 1]]}, "error: declared n = [2] does not match"),
            ({"n": 2.5, "A": [[1, 0], [0, 1]]}, "error: declared n = 2.5 does not match"),
            ({"A": [["1", "0.5"], ["2", "1e0"]]}, "error: coefficient matrix entries must be numbers"),
            ({"A": [[True, False], [False, True]]}, "error: coefficient matrix entries must be numbers"),
            ({"A": [[1, True], [0, 1]]}, "error: coefficient matrix entries must be numbers"),
        ],
        ids=["A-object", "n-list", "n-fraction", "A-strings", "A-booleans", "A-boolean-among-numbers"],
    )
    def test_malformed_a_or_n_rejected_without_traceback(self, tmp_path, capsys, payload, message):
        path = write(tmp_path, payload)
        assert main(["analyze", "-i", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "entry",
        ['"1"', "true", '["1", "0"]', "[{}, 0]", "1" + "0" * 400, "1e999"],
        ids=["string", "boolean", "string-pair", "object-in-pair", "huge-integer", "overflowing-float"],
    )
    def test_malformed_x_entry_rejected_without_traceback(self, tmp_path, capsys, entry):
        path = tmp_path / "x.json"
        path.write_text(f'{{"A": [[1, 0], [0, 1]], "X": [[{entry}, 0], [0, 1]]}}', encoding="utf-8")
        assert main(["analyze", "-i", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: matrix entry must be a finite real or an [re, im] pair")
        assert "Traceback" not in err

    def test_deeply_nested_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        assert main(["analyze", "-i", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: input nests too deeply")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["analyze", "search", "probe"])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("name", list(EXTREME_MAGNITUDES))
    def test_extreme_magnitudes_refused(self, tmp_path, capsys, command, fmt, name):
        path = write(tmp_path, {"A": EXTREME_MAGNITUDES[name]})
        assert main([command, "-i", path, "--format", fmt]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: nonzero coefficient a[1][1] = ")
        assert err.rstrip().endswith("outside [1e-50, 1e+50]")

    def test_side_above_sixteen_rejected(self, tmp_path, capsys):
        path = write(tmp_path, {"n": 17, "A": np.ones((17, 17)).tolist()})
        assert main(["analyze", "-i", path]) == 1
        assert capsys.readouterr().err.startswith("error: matrix side 17 exceeds")

    def test_sizes_refused_before_any_entry_converts(self, tmp_path, capsys, monkeypatch):
        calls = []
        for name in ("validate_coefficients", "_entry_to_complex"):

            def counting(*args, _name=name, _original=getattr(cli, name)):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(cli, name, counting)
        big = np.ones((300, 300)).tolist()
        assert main(["analyze", "-i", write(tmp_path, {"A": big})]) == 1
        assert capsys.readouterr().err == "error: matrix side 300 exceeds the supported maximum 16\n"
        assert calls == []
        assert main(["analyze", "-i", write(tmp_path, {"A": CHOI["A"], "X": big})]) == 1
        assert capsys.readouterr().err == "error: X must have the same dimension as A\n"
        assert calls == ["validate_coefficients"]

    @pytest.mark.parametrize("command", ["analyze", "search", "probe", "reproduce"])
    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--tol", "nan"], "error: tolerance must be finite and positive"),
            (["--tol", "inf"], "error: tolerance must be finite and positive"),
            (["--tol=-inf"], "error: tolerance must be finite and positive"),
            (["--tol", "0"], "error: tolerance must be finite and positive"),
            (["--tol", "1e-16"], "error: tolerance must be at least 1e-12"),
        ],
        ids=["tol-nan", "tol-inf", "tol-minus-inf", "tol-zero", "tol-below-floor"],
    )
    def test_bad_settings_refused_before_any_work(
        self, tmp_path, capsys, monkeypatch, command, flags, message
    ):
        import choilike.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("work started despite invalid settings")

        for name in ("read_matrix_file", "full_report", "find_positivity_violation",
                     "indecomposability_probe", "validate_coefficients"):
            monkeypatch.setattr(cli, name, never)
        target = ["choi"] if command == "reproduce" else ["-i", write(tmp_path, ALL_ONES)]
        assert main([command, *target, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(message) and captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze"],
            ["analyze", "-i", "a.json", "--tol", "abc"],
            ["analyze", "-i", "a.json", "--seed", "1.5"],
            ["reproduce", "nope"],
            ["analyze", "-i", "a.json", "--format", "yaml"],
            [],
            # the search takes no seed and no start count: both flags are gone
            ["analyze", "-i", "a.json", "--seed", "42"],
            ["search", "-i", "a.json", "--starts", "64"],
            ["reproduce", "choi", "--seed", "42"],
        ],
        ids=["no-input", "tol-not-a-number", "seed-not-an-integer", "unknown-name", "bad-format",
             "no-command", "seed-removed", "starts-removed", "reproduce-seed-removed"],
    )
    def test_usage_errors_exit_one(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: choilike") and "error: " in err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["analyze", "--help"]])
    def test_help_and_version_exit_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out

    def test_failed_witness_verification_exits_two(self, tmp_path, capsys, monkeypatch):
        # cross terms past their caps make the state and its transpose non-positive
        maximal = search.maximal_cross_terms
        monkeypatch.setattr(search, "maximal_cross_terms", lambda alpha: 3.0 * maximal(alpha))
        path = write(tmp_path, CHOI)
        assert main(["analyze", "-i", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("internal inconsistency: witness verification failed")
        assert "Traceback" not in err

    def test_witness_against_decomposability_exits_two(self, tmp_path, capsys, monkeypatch):
        choi_witness = search.indecomposability_probe(validate_coefficients(CHOI["A"]))
        monkeypatch.setattr(cli, "indecomposability_probe", lambda A, tolerance: choi_witness)
        assert main(["analyze", "-i", write(tmp_path, ALL_ONES)]) == 2
        err = capsys.readouterr().err
        assert err == (
            "internal inconsistency: indecomposability proven by ['ppt_witness'] but "
            "decomposability by ['ckl_indecomposable', 'pairwise_sufficient', "
            "'structured_decomposition']\n"
        )


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from([10**400, -(10**400), 1e308, "1", "1e0", [], {}])
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=12,
)
NUMBERS = st.floats(0.0, 3.0) | st.integers(0, 3)
ENTRIES = NUMBERS | NUMBERS | st.lists(NUMBERS, min_size=2, max_size=2) | JSON_SCALARS
MATRICES = st.integers(0, 4).flatmap(
    lambda n: st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)
)
# objects one or two fields away from a valid input
NEAR_VALID = st.fixed_dictionaries(
    {"A": MATRICES | JSON_VALUES},
    optional={"n": st.integers(0, 5) | JSON_VALUES, "X": MATRICES | JSON_VALUES},
)


def _read_or_value_error(data: bytes):
    """read_matrix_file must return or raise ValueError, which main maps to exit 1."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            read_matrix_file(path)
        except ValueError:
            pass


FUZZ = settings(max_examples=300, derandomize=True, database=None, deadline=None)


class TestInputFuzz:
    @FUZZ
    @given(JSON_VALUES)
    def test_any_json_value(self, value):
        _read_or_value_error(json.dumps(value).encode())

    @FUZZ
    @given(NEAR_VALID)
    def test_near_valid_objects(self, payload):
        _read_or_value_error(json.dumps(payload).encode())

    @FUZZ
    @given(st.binary(max_size=64))
    def test_arbitrary_bytes(self, data):
        _read_or_value_error(data)


# run in a fresh interpreter: counts the top-level parsers built, at import and per call
PARSER_COUNT = """
import argparse, json, sys
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    init(self, *args, **kwargs)
    built.append(self.prog)
argparse.ArgumentParser.__init__ = counting
from choilike import cli
at_import = list(built)
codes = []
for argv in json.loads(sys.argv[1]):
    try:
        codes.append(cli.main(argv))
    except SystemExit as exc:
        codes.append(exc.code)
sys.stderr.write(json.dumps([at_import, codes, built.count("choilike")]))
"""


class TestCachedParser:
    """One parser serves every call in a process; each call behaves as in a fresh one."""

    @staticmethod
    def _argvs(tmp_path):
        choi, ones = write(tmp_path, CHOI, "choi.json"), write(tmp_path, ALL_ONES, "ones.json")
        return [
            ["analyze", "-i", choi, "--format", "json"],
            ["search", "-i", ones],
            ["probe", "-i", choi, "--format", "json", "--tol", "1e-6"],
            ["reproduce", "example5"],
        ]

    def test_any_order_matches_fresh_processes(self, tmp_path, capsys):
        argvs = self._argvs(tmp_path)
        fresh = [
            subprocess.run(
                [sys.executable, "-m", "choilike.cli", *argv], capture_output=True, check=True
            ).stdout.decode()
            for argv in argvs
        ]
        for order in ((0, 1, 2, 3), (3, 2, 1, 0), (2, 0, 3, 1)):
            for k in order:
                assert main(argvs[k]) == 0
                assert capsys.readouterr().out == fresh[k]

    def test_usage_error_between_good_calls(self, tmp_path, capsys):
        argv = self._argvs(tmp_path)[0]
        assert main(argv) == 0
        first = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "-i", argv[2], "--tol", "many"])
        assert exc.value.code == 1
        assert capsys.readouterr().err.startswith("usage: choilike analyze")
        with pytest.raises(SystemExit) as exc:
            main(["--version"])  # to the sys.stdout of this call, not of the first
        assert exc.value.code == 0 and capsys.readouterr().out == f"{cli.__version__}\n"
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_built_once_per_process_and_not_at_import(self, tmp_path):
        argvs = self._argvs(tmp_path)
        calls = argvs + [["analyze"], ["--version"]] + argvs[::-1]
        proc = subprocess.run(
            [sys.executable, "-c", PARSER_COUNT, json.dumps(calls)],
            capture_output=True, check=True, text=True,
        )
        at_import, codes, built = json.loads(proc.stderr.rsplit("\n", 1)[-1])
        assert at_import == [] and built == 1
        assert codes == [0, 0, 0, 0, 1, 0, 0, 0, 0, 0]


class TestDeterminism:
    def test_repeated_invocations_byte_identical(self, tmp_path, capsys):
        path = write(tmp_path, counterexample_payload())
        argv = ["analyze", "-i", path, "--format", "json"]
        code1, out1 = main(argv), capsys.readouterr().out
        code2, out2 = main(argv), capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2

    def test_subprocess_hash_seed_independence(self, tmp_path):
        path = write(tmp_path, CHOI)
        outputs = []
        for hash_seed in ("0", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, "-m", "choilike.cli", "analyze", "-i", path, "--format", "json"],
                capture_output=True, env=env, check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


FINITE = st.floats(allow_nan=False, allow_infinity=False)
REPORT_FLOATS = (
    FINITE
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 1e16, 1e-7])
    | FINITE.map(np.float64)
)
REPORT_SCALARS = st.none() | st.booleans() | st.integers() | REPORT_FLOATS | st.text()
REPORT_VALUES = st.recursive(
    REPORT_SCALARS | st.lists(REPORT_FLOATS, max_size=6),  # a list of floats is joined at once
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


class TestJsonWriter:
    """cli._to_json writes the bytes of json.dumps(value, indent=2, allow_nan=False)."""

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(REPORT_VALUES)
    def test_bytes_of_json_dumps(self, value):
        assert cli._to_json(value) == json.dumps(value, indent=2, allow_nan=False)

    @pytest.mark.parametrize(
        "value",
        [
            {},
            [],
            {"": [], "a": {}, "b": [{}, []], "c": [[1.0, -0.0], [5e-324, 1.7976931348623157e308]]},
            ["é中\U0001f600", 'quote " back \\ slash', "\x00\x1f\n\t\x7f", "\ud800"],
            {'k "1"\n\x01ü': [True, False, None, 0, -7, 10**30, 1.5, np.float64(-2.5)]},
            (1.0, 2.0, (3, "x")),
        ],
        ids=["empty-dict", "empty-list", "nested-empties", "strings", "keys-and-scalars", "tuples"],
    )
    def test_edge_values(self, value):
        assert cli._to_json(value) == json.dumps(value, indent=2, allow_nan=False)

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, np.float64(math.nan), np.float64(-math.inf)]
    )
    @pytest.mark.parametrize("where", ["alone", "in-float-list", "in-mixed-list", "in-dict"])
    def test_non_finite_raises_value_error(self, bad, where):
        value = {
            "alone": bad,
            "in-float-list": [1.0, bad, 2.0],
            "in-mixed-list": ["x", [1.0, bad]],
            "in-dict": {"a": {"b": bad}},
        }[where]
        with pytest.raises(ValueError) as want:
            json.dumps(value, indent=2, allow_nan=False)
        with pytest.raises(ValueError) as got:
            cli._to_json(value)
        assert str(got.value) == str(want.value)

    def test_emitted_reports_are_json_dumps(self, tmp_path, capsys):
        for payload in (CHOI, ALL_ONES, counterexample_payload(), GCHOI8):
            code, out = run_cli(capsys, "analyze", "-i", write(tmp_path, payload), "--format", "json")
            assert code == 0
            assert out == json.dumps(json.loads(out), indent=2) + "\n"


# every entry is inside the coefficient range, but the image of X or its determinant is not finite
OVERFLOWING_X = {
    "det-7": {"A": [[1e50] * 7] * 7, "X": np.eye(7).tolist()},
    "image-3": {
        "A": [[1e50, 1, 1], [1, 1e50, 1], [1, 1, 1e50]],
        "X": (1e300 * np.eye(3)).tolist(),
    },
}


class TestOverflowingImage:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("name", list(OVERFLOWING_X))
    def test_refused_as_invalid_input(self, tmp_path, capsys, fmt, name):
        path = write(tmp_path, OVERFLOWING_X[name])
        assert main(["analyze", "-i", path, "--format", fmt]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: the image of X or its determinant overflows; scaling X down")

    def test_scaled_down_x_is_analysed(self, tmp_path, capsys):
        payload = dict(OVERFLOWING_X["det-7"], X=(1e-10 * np.eye(7)).tolist())
        code, doc = run_json(capsys, "analyze", "-i", write(tmp_path, payload))
        assert code == 0
        assert doc["counterexample_check"]["input_psd"] and doc["counterexample_check"]["image_psd"]

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_no_warning_or_traceback_in_a_fresh_process(self, tmp_path, fmt):
        path = write(tmp_path, OVERFLOWING_X["det-7"])
        proc = subprocess.run(
            [sys.executable, "-m", "choilike.cli", "analyze", "-i", path, "--format", fmt],
            capture_output=True, text=True, env=dict(os.environ, PYTHONWARNINGS="error"),
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: the image of X or its determinant overflows")
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
