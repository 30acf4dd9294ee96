"""Self-test of the benchmark: ``python3 -m pytest perfbench``."""

import json
from pathlib import Path

import numpy as np
import pytest

import bench
import recheck
from choilike import cli
from workloads import WORKLOADS, ckl_matrix

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench" / "selftest"  # the benchmark writes only inside its checkout


def declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def smoke(name, trace):
    return bench.run_workload(name, 3, 0, trace, WORK_DIR, ROOT / "src", smoke=True)


def test_declared_metrics_match_the_code():
    assert declared("end_to_end") == bench.END_TO_END
    assert declared("per_layer") == bench.per_layer_units()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_prints_every_metric_with_its_unit(name):
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        report = smoke(name, trace)
        result = report.result
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert {k: m["unit"] for k, m in result["metrics"].items()} == declared(kind)
        for key, unit in declared(kind).items():
            assert f"{key} {result['metrics'][key]['value']} {unit}" in report.notes
        assert result["failed"] == 0
        if name == "ckl-scan":  # the a = 2, b = 0 refusal is analysed apart and noted
            assert any(n.startswith("known failure") for n in report.notes)


def test_same_seed_gives_the_same_digest():
    digests = [
        [n for n in smoke("ckl-scan", trace).notes if "digest" in n]
        for trace in (False, True)
    ]
    assert digests[0][0].split()[-1] == digests[1][0].split()[-1] == digests[1][1].split()[-1]


def test_corrupted_witness_counts_as_failure(monkeypatch):
    emit = cli.emit

    def corrupt(doc, fmt):
        doc["ppt_witness"]["r"] = [[3.0 * v for v in row] for row in doc["ppt_witness"]["r"]]
        emit(doc, fmt)

    monkeypatch.setattr(cli, "emit", corrupt)
    result = smoke("gchoi-witness", False).result
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["ok_ratio"]["value"] == 0.0


def test_corrupted_violation_is_rejected():
    A = ckl_matrix(0.0, 0.0, 2.0)  # not positive: margin -1
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    path = WORK_DIR / "violation.json"
    path.write_text(json.dumps({"n": 3, "A": A}))
    doc = json.loads(bench.analyze(path).out)
    cert = doc["violation_certificate"]
    assert recheck.check_violation(np.array(A), cert, bench.TOL) == []
    # at p = q the gap is sum_ij a_ij q_i^2 q_j^2 >= 0, so this is no violation
    assert recheck.check_violation(np.array(A), dict(cert, p=cert["q"]), bench.TOL)
    assert recheck.check_violation(np.array(A), dict(cert, gap=cert["gap"] / 2), bench.TOL)
