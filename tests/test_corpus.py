"""Every corpus input keeps the summary flags pinned in flag_ledger.txt (see corpus.py)."""

import pytest

import corpus


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
    ],
)
def test_ledger_problems(pinned, flags, problems):
    assert corpus.ledger_problems(pinned, flags) == problems


def test_no_input_loses_a_flag_or_gains_a_contradicting_one():
    ledger = corpus.read_ledger()
    problems = []
    for name, entry in corpus.corpus():
        flags = tuple(corpus.analyze(entry)["summary"])
        problems += [f"{name}: {p}" for p in corpus.ledger_problems(ledger[name], flags)]
    assert not problems, f"{len(problems)} problems, first {problems[:20]}"
