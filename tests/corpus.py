"""The fixed corpus of ``analyze`` inputs and the ledger of their summary flags.

The corpus is rebuilt here from seeds, in a fixed order:

* four seeded recipes, each draw taking ``n = integers(2, 9)`` first:
  ``rand`` (``default_rng(2025)``, 250 draws of ``2 random((n, n))``),
  ``bias`` (``default_rng(2026)``, 200 draws of ``1.5 random((n, n))``
  with the diagonal replaced by ``uniform(0.3, n - 1, n)``), ``sparse``
  (``default_rng(77)``, 300 draws of ``1.5 random((n, n))`` times
  ``random((n, n)) > 0.3``, diagonal ``uniform(0, n - 1, n)``) and ``n3``
  (``default_rng(3)``, 600 draws of ``1.5 random((3, 3))``, diagonal
  ``uniform(0.3, 2, 3)``, with no ``n`` drawn);
* the constant cyclic maps (a, b, c) on the grid 0, 0.25, ..., 3 in each
  coordinate (13^3 points);
* the generalized Choi maps a_ii = d, a_{i,i-1} = 1 (indices cyclic) for
  n = 3..8 and d = n - 2 + 0, 0.125, ..., 0.625;
* the four ``reproduce`` names at their default parameters.

``flag_ledger.txt`` next to this file holds one line per input, its name
and the summary flags of ``analyze`` at the default tolerance.  Rewrite it
after an intended change with

    PYTHONPATH=src python tests/corpus.py
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import numpy as np

from choilike.cli import cmd_reproduce, run_analysis
from choilike.criteria import DEFAULT_MARGIN_BAND
from choilike.maps import validate_coefficients

LEDGER = Path(__file__).with_name("flag_ledger.txt")
CKL_GRID = tuple(0.25 * k for k in range(13))
GCHOI_OFFSETS = tuple(0.125 * k for k in range(6))
REPRODUCE_NAMES = ("choi", "example5", "boundary", "kye-boundary")
# flags that cannot stand in one report next to each other
CONTRADICTIONS = (
    {"positive_proven", "not_positive_proven"},
    {"cp_proven", "not_positive_proven"},
    {"decomposable_proven", "not_positive_proven"},
    {"decomposable_proven", "indecomposable_proven"},
    {"cp_proven", "indecomposable_proven"},
)


def _recipes() -> list[tuple[str, np.ndarray]]:
    out = []
    rng = np.random.default_rng(2025)
    for k in range(250):
        n = int(rng.integers(2, 9))
        out.append((f"rand{k}", 2.0 * rng.random((n, n))))
    rng = np.random.default_rng(2026)
    for k in range(200):
        n = int(rng.integers(2, 9))
        a = 1.5 * rng.random((n, n))
        np.fill_diagonal(a, rng.uniform(0.3, n - 1, n))
        out.append((f"bias{k}", a))
    rng = np.random.default_rng(77)
    for k in range(300):
        n = int(rng.integers(2, 9))
        a = 1.5 * rng.random((n, n)) * (rng.random((n, n)) > 0.3)
        np.fill_diagonal(a, rng.uniform(0.0, n - 1, n))
        out.append((f"sparse{k}", a))
    rng = np.random.default_rng(3)
    for k in range(600):
        a = 1.5 * rng.random((3, 3))
        np.fill_diagonal(a, rng.uniform(0.3, 2.0, 3))
        out.append((f"n3_{k}", a))
    return out


def _ckl_grid() -> list[tuple[str, np.ndarray]]:
    return [
        (f"ckl({a:g},{b:g},{c:g})", np.array([[a, b, c], [c, a, b], [b, c, a]]))
        for a, b, c in itertools.product(CKL_GRID, repeat=3)
    ]


def _gchoi() -> list[tuple[str, np.ndarray]]:
    out = []
    for n in range(3, 9):
        for offset in GCHOI_OFFSETS:
            d = n - 2 + offset
            a = d * np.eye(n)
            a[np.arange(n), np.arange(n) - 1] = 1.0
            out.append((f"gchoi{n}(d={d:g})", a))
    return out


def corpus() -> list[tuple[str, np.ndarray | str]]:
    """(name, coefficient array) for every input; a reproduce name stands in for its array."""
    names = [(f"reproduce-{name}", name) for name in REPRODUCE_NAMES]
    return _recipes() + _ckl_grid() + _gchoi() + names


def analyze(entry: np.ndarray | str) -> dict:
    """The json report of ``analyze`` (or ``reproduce``) on one entry, at the default tolerance."""
    if isinstance(entry, str):
        return cmd_reproduce(entry, DEFAULT_MARGIN_BAND, "json", None)
    return run_analysis(validate_coefficients(entry), DEFAULT_MARGIN_BAND, "json")


def read_ledger() -> dict[str, tuple[str, ...]]:
    ledger = {}
    for line in LEDGER.read_text(encoding="utf-8").splitlines():
        name, flags = line.split(" ", 1)
        ledger[name] = tuple(flags.split(","))
    return ledger


def ledger_problems(pinned: tuple[str, ...], flags: tuple[str, ...]) -> list[str]:
    """What ``flags`` lost from the pinned flags or gained against them.

    "inconclusive" is the absence of a positivity proof, so losing it is
    not a loss; a gained flag that contradicts none pinned is an
    intended change, to be re-pinned.
    """
    lost = [f"lost {f}" for f in pinned if f != "inconclusive" and f not in flags]
    gained = set(flags) - set(pinned)
    clashes = [
        f"gained {f} against {g}"
        for f in sorted(gained)
        for g in pinned
        if {f, g} in CONTRADICTIONS
    ]
    return lost + clashes


def write_ledger() -> None:
    lines = [f"{name} {','.join(analyze(entry)['summary'])}\n" for name, entry in corpus()]
    LEDGER.write_text("".join(lines), encoding="utf-8")


if __name__ == "__main__":
    write_ledger()
    sys.stdout.write(f"wrote {LEDGER}\n")
