"""Every corpus input keeps the flags and certificates pinned in flag_ledger.txt (see corpus.py)."""

import functools
import json

import numpy as np
import pytest

import corpus
from choilike.cli import _to_json
from choilike.maps import validate_coefficients
from choilike.search import positivity_gap


@functools.cache
def _reports() -> tuple[tuple[str, dict], ...]:
    """(name, report) for every corpus input, analysed once for the tests that read them all."""
    return tuple((name, corpus.analyze(entry)) for name, entry in corpus.corpus())


def test_ledger_lists_the_corpus_in_order():
    assert list(corpus.read_ledger()) == [name for name, _ in corpus.corpus()]


@pytest.mark.parametrize(
    "pinned,flags,problems",
    [
        (
            ("positive_proven", "decomposable_proven"),
            ("positive_proven",),
            ["lost decomposable_proven"],
        ),
        (("inconclusive",), ("positive_proven", "decomposable_proven"), []),
        (
            ("inconclusive", "indecomposable_proven"),
            ("positive_proven", "indecomposable_proven"),
            [],
        ),
        (
            ("inconclusive", "indecomposable_proven"),
            ("inconclusive", "indecomposable_proven", "decomposable_proven"),
            ["gained decomposable_proven against indecomposable_proven"],
        ),
        (("inconclusive",), ("not_positive_proven",), []),
        (
            ("not_positive_proven",),
            ("cp_proven", "positive_proven", "decomposable_proven", "not_positive_proven"),
            [
                "gained cp_proven against not_positive_proven",
                "gained decomposable_proven against not_positive_proven",
                "gained positive_proven against not_positive_proven",
            ],
        ),
        (
            ("not_positive_proven", "violation_certificate"),
            ("not_positive_proven",),
            ["lost violation_certificate"],
        ),
        (("inconclusive",), ("inconclusive", "indecomposable_proven", "ppt_witness"), []),
    ],
)
def test_ledger_problems(pinned, flags, problems):
    assert corpus.ledger_problems(pinned, flags) == problems


def test_no_input_loses_a_flag_or_gains_a_contradicting_one():
    ledger = corpus.read_ledger()
    problems = []
    for name, report in _reports():
        labels = corpus.labels(report)
        problems += [f"{name}: {p}" for p in corpus.ledger_problems(ledger[name], labels)]
    assert not problems, f"{len(problems)} problems, first {problems[:20]}"


def test_every_report_is_written_with_the_bytes_of_json_dumps():
    for name, report in _reports():
        doc = dict(report, config=dict(report["config"], format="json"))  # as main emits it
        assert _to_json(doc) == json.dumps(doc, indent=2, allow_nan=False), name


def test_diagonal_conjugation_contradicts_no_flag_and_maps_each_violation():
    """b_ij = a_ij v_j / v_i keeps positivity and the gap at p_i sqrt(v_i), q_j / sqrt(v_j)."""
    rng = np.random.default_rng(14)
    arrays = [(name, a) for name, a in corpus.corpus() if not isinstance(a, str)]
    mapped = 0
    for k in rng.choice(len(arrays), 300, replace=False):
        name, a = arrays[k]
        v = np.exp(rng.uniform(-1.0, 1.0, len(a)))
        b = validate_coefficients(a * v / v[:, None])
        report, image = corpus.analyze(a), corpus.analyze(b.a)
        clashes = [
            (f, g) for f in report["summary"] for g in image["summary"]
            if {f, g} in corpus.CONTRADICTIONS
        ]
        assert not clashes, (name, v.tolist(), clashes)
        cert = report.get("violation_certificate")
        if cert is not None:
            p, q = np.array(cert["p"]) * np.sqrt(v), np.array(cert["q"]) / np.sqrt(v)
            assert positivity_gap(b, p, q) == pytest.approx(cert["gap"], rel=1e-10), name
            mapped += 1
    assert mapped > 50
