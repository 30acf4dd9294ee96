"""Benchmark workloads: seeded input generators and their oracles.

A workload turns a seed into a fixed list of cases.  Each case is one
coefficient matrix ``A`` (plain nested lists, written to a JSON input
file) plus whatever its oracle needs.  The oracle judges the decoded
JSON report of ``choilike analyze`` for that case and returns a list of
problems (empty when the report agrees).  Nothing here imports
``choilike``: the expected answers come from closed forms and from how
each input was built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

CKL_GRID = tuple(0.25 * k for k in range(13))  # 0, 0.25, ..., 3
ORACLE_SKIP = 1e-3  # ckl-scan points this close to the boundary are timed but not judged


@dataclass(frozen=True)
class Case:
    label: str
    A: list
    info: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.A)


@dataclass(frozen=True)
class Workload:
    name: str
    make_cases: Callable[[int, bool], list]  # (seed, smoke) -> cases; smoke keeps a few
    oracle: Callable[[Case, dict], list]
    # (smoke) -> cases analysed once, untimed, outside attempted/failed: known refusals
    known_failures: Callable[[bool], list] | None = None


def ckl_matrix(a: float, b: float, c: float) -> list:
    """Constant cyclic matrix: a on the diagonal, b at (1,2),(2,3),(3,1), c elsewhere."""
    return [[a, b, c], [c, a, b], [b, c, a]]


def ckl_margin(a: float, b: float, c: float) -> float:
    """Signed positivity margin of the constant cyclic map; negative iff not positive."""
    return max(a - 2.0, min(a + b + c - 2.0, a + math.sqrt(b * c) - 1.0))


CKL_CORE_SEED = 1802  # draws the fixed core once: the same points in every run
CKL_COUNTS = {"boundary": 2, "positive": 28, "not_positive": 10}


def _ckl_strata() -> dict:
    """Grid points other than a = 2, b = 0, by the sign of their margin."""
    strata: dict = {key: [] for key in CKL_COUNTS}
    for p in itertools.product(CKL_GRID, repeat=3):
        if p[0] == 2.0 and p[1] == 0.0:
            continue
        m = ckl_margin(*p)
        key = "boundary" if abs(m) < ORACLE_SKIP else ("positive" if m > 0 else "not_positive")
        strata[key].append(p)
    return strata


def _ckl_case(a: float, b: float, c: float) -> Case:
    return Case(f"ckl a={a} b={b} c={c}", ckl_matrix(a, b, c), {"margin": ckl_margin(a, b, c)})


def _ckl_known_failures(smoke: bool) -> list:
    """The 13 grid points with a = 2, b = 0: ``analyze`` exits 2 on each at seed.

    ``kye_check``'s strict ``a < 2`` is met at margin 0 by the
    boundary-inclusive ``affirmative``, so indecomposability and
    decomposability are both claimed.  A timed operation must not fail, so
    these are analysed once per run, outside the timed loop.
    """
    return [_ckl_case(2.0, 0.0, c) for c in (CKL_GRID[:1] if smoke else CKL_GRID)]


def _ckl_cases(seed: int, smoke: bool) -> list:
    """A fixed core of positive and boundary points plus seeded not-positive points.

    Positive points cost 0.05-1 s each, with no pattern over the grid, so a
    seeded sample of them would make the run's cost depend on the seed.
    They form a fixed core with two boundary points; the seed draws the
    cheap not-positive points and the order.
    """
    strata = _ckl_strata()
    points = []
    counts = dict.fromkeys(CKL_COUNTS, 1) if smoke else CKL_COUNTS
    core = np.random.default_rng(CKL_CORE_SEED)
    rng = np.random.default_rng(seed)
    for key, draw in (("boundary", core), ("positive", core), ("not_positive", rng)):
        pool = strata[key]
        points += [pool[int(i)] for i in draw.choice(len(pool), counts[key], replace=False)]
    return [_ckl_case(*points[int(i)]) for i in rng.permutation(len(points))]


def _ckl_oracle(case: Case, doc: dict) -> list:
    margin = case.info["margin"]
    if abs(margin) < ORACLE_SKIP:
        return []
    claimed = "not_positive_proven" in doc["summary"]
    if claimed != (margin < 0):
        return [f"summary {doc['summary']} disagrees with CKL margin {margin:+.6g}"]
    return []


WIDE_NS = (5, 6, 7, 8)
WIDE_SEED = 1802  # draws the matrices once: the same inputs in every run


def _wide_cases(seed: int, smoke: bool) -> list:
    """Positive maps: every pair has sqrt(a_ii a_jj)/(n-1) + sqrt(a_ij a_ji) >= 1 + slack.

    That is the pairwise sufficient bound, so the map is positive (and
    decomposable); it also implies the weaker sqrt(a_ii a_jj)/2 form for
    n >= 3.  The off-diagonal pair products are split asymmetrically.
    Both searches run until every start has converged, and that takes
    from 0.2 s to 1.2 s on different draws at n = 5, so a seeded draw
    would make the run's cost depend on the seed.  The matrices are drawn
    once and the seed only sets the order.
    """
    draw = np.random.default_rng(WIDE_SEED)
    cases = []
    for k, n in enumerate(WIDE_NS[:1] if smoke else WIDE_NS):
        d = draw.uniform(0.5, 2.0, n)
        a = np.diag(d)
        for i in range(n):
            for j in range(i + 1, n):
                s = max(0.0, 1.0 - math.sqrt(d[i] * d[j]) / (n - 1)) + draw.uniform(0.05, 0.5)
                t = math.exp(draw.uniform(-0.7, 0.7))
                a[i, j] = s * t
                a[j, i] = s / t
        cases.append(Case(f"wide n={n} #{k}", a.tolist()))
    return [cases[int(i)] for i in np.random.default_rng(seed).permutation(len(cases))]


def _wide_oracle(case: Case, doc: dict) -> list:
    problems = []
    if "positive_proven" not in doc["summary"]:
        problems.append(f"summary {doc['summary']} lacks positive_proven")
    for key in ("violation_certificate", "ppt_witness"):
        if key in doc:
            problems.append(f"unexpected {key} for a positive, decomposable map")
    return problems


GCHOI_NS = (4, 5, 6, 7, 8)
GCHOI_OFFSET = 0.375  # d - (n - 2): the middle of [0, 0.75), where the probe finds witnesses


def gchoi_matrix(n: int, d: float) -> list:
    a = np.eye(n) * d
    for i in range(n):
        a[i, (i - 1) % n] = 1.0
    return a.tolist()


def _gchoi_cases(seed: int, smoke: bool) -> list:
    """Generalized Choi maps a_ii = d, a_{i,i-1} = 1 (cyclic), one fixed d per n.

    The structured probe stops finding witnesses near d = n - 1.1, so d
    stays inside [n - 2, n - 1.25).  The probe's cost jumps by 2-3x between
    neighbouring d (and under relabelling the indices), so the points are
    fixed and the seed only sets the order.
    """
    ns = GCHOI_NS[:2] if smoke else GCHOI_NS
    rng = np.random.default_rng(seed)
    cases = []
    for i in rng.permutation(len(ns)):
        n = ns[int(i)]
        d = n - 2 + GCHOI_OFFSET
        cases.append(Case(f"gchoi n={n} d={d}", gchoi_matrix(n, d)))
    return cases


def _gchoi_oracle(case: Case, doc: dict) -> list:
    problems = []
    if "indecomposable_proven" not in doc["summary"]:
        problems.append(f"summary {doc['summary']} lacks indecomposable_proven")
    if "not_positive_proven" in doc["summary"]:
        problems.append("positivity refuted on a positive generalized Choi map")
    if "ppt_witness" not in doc:
        problems.append("no PPT witness in the report")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ckl-scan", _ckl_cases, _ckl_oracle, _ckl_known_failures),
        Workload("wide-positive", _wide_cases, _wide_oracle),
        Workload("gchoi-witness", _gchoi_cases, _gchoi_oracle),
    )
}
