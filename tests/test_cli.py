"""Tests for the command-line front end."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from choilike.cli import main
from choilike.maps import validate_coefficients
from choilike.search import positivity_gap

CHOI = {"n": 3, "A": [[1, 0, 1], [1, 1, 0], [0, 1, 1]]}
ALL_ONES = {"n": 3, "A": [[1, 1, 1], [1, 1, 1], [1, 1, 1]]}
HALF = {"n": 3, "A": [[0.5, 0.5, 0.5], [0.5, 0.5, 0.5], [0.5, 0.5, 0.5]]}


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
        assert {"cp", "ckl_positive", "pairwise_necessary_1_2", "scaling_sufficient"} <= names

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

        from choilike.linalg import is_psd, partial_transpose
        from choilike.maps import choi_matrix
        from choilike.search import assemble_structured_state

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

    def test_text_format(self, tmp_path, capsys):
        path = write(tmp_path, CHOI)
        code, out = run_cli(capsys, "analyze", "-i", path)
        assert code == 0
        assert "summary: positive_proven, indecomposable_proven" in out
        assert "ckl_positive" in out


    def test_kye_edge_points_complete(self, tmp_path, capsys):
        # a = 2, b = 0 sits on kye_check's excluded edge and on the
        # decomposable boundary of the constant cyclic family
        for c in np.arange(13) * 0.25:
            a = [[2.0, 0.0, c], [c, 2.0, 0.0], [0.0, c, 2.0]]
            path = write(tmp_path, {"n": 3, "A": a})
            code, doc = run_json(capsys, "analyze", "-i", path)
            assert code == 0
            assert doc["summary"] == ["positive_proven", "decomposable_proven"]


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

    def test_kye_boundary(self, capsys):
        code, doc = run_json(capsys, "reproduce", "kye-boundary")
        assert code == 0
        assert "indecomposable_proven" in doc["summary"]
        assert "ppt_witness" in doc

    def test_choi(self, capsys):
        code, doc = run_json(capsys, "reproduce", "choi")
        assert code == 0
        assert "witness normalized value" in doc["headline"]

    def test_unknown_name_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["reproduce", "nonsense"])


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
        ],
        ids=["A-object", "n-list", "n-fraction"],
    )
    def test_malformed_a_or_n_rejected_without_traceback(self, tmp_path, capsys, payload, message):
        path = write(tmp_path, payload)
        assert main(["analyze", "-i", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert "Traceback" not in err

    def test_side_above_sixteen_rejected(self, tmp_path, capsys):
        path = write(tmp_path, {"n": 17, "A": np.ones((17, 17)).tolist()})
        assert main(["analyze", "-i", path]) == 1
        assert capsys.readouterr().err.startswith("error: matrix side 17 exceeds")

    def test_failed_witness_verification_exits_two(self, tmp_path, capsys, monkeypatch):
        import choilike.search as search

        real_is_psd = search.is_psd

        def reject_full_states(m, tol):
            # the n x n cross-term bisection passes; the n^2-side witness checks fail
            return (False, -1.0) if m.shape[0] > 3 else real_is_psd(m, tol=tol)

        monkeypatch.setattr(search, "is_psd", reject_full_states)
        path = write(tmp_path, CHOI)
        assert main(["analyze", "-i", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("internal inconsistency: witness verification failed")
        assert "Traceback" not in err


class TestDeterminism:
    def test_repeated_invocations_byte_identical(self, tmp_path, capsys):
        path = write(tmp_path, counterexample_payload())
        argv = ["analyze", "-i", path, "--seed", "42", "--format", "json"]
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
                [sys.executable, "-m", "choilike.cli", "analyze", "-i", path,
                 "--seed", "42", "--format", "json"],
                capture_output=True, env=env, check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
