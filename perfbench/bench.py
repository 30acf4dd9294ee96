"""Run one workload against the ``choilike analyze`` CLI entry point, in process.

The load is one closed-loop client: each analysis starts when the
previous one returns.  Inputs are JSON files generated from the seed;
the program sees only those files and runs with the CLI defaults.  The
loop makes passes over the workload's inputs, at least ``MIN_PASSES`` of
them, until ``seconds`` have passed.

Every time is measured in wall seconds and scaled to reference seconds
by the machine speed sampled just before, during and after it
(``reference.py``).
An input's time is the median of its repeats; ``analyses_per_s`` is the
number of inputs over the sum of their times, ``analyze_p50_s`` the
median time.  The raw rate is printed as a note.

Outputs are judged after the timed loop: the first pass by the
workload's oracle and by the independent certificate re-check, every
later analysis by comparing its report bytes with the first pass.

With ``trace`` the run makes an untraced and a traced phase of whole
passes, each for about half of ``seconds`` (at least one pass), and
reports per-layer metrics per pass instead of the end-to-end ones.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import recheck
from choilike import cli
from reference import Reference
from tracer import Tracer
from workloads import WORKLOADS, Case, Workload

TOL = 1e-9  # the CLI's default --tol; the re-check uses the same band
MIN_PASSES = 3
SETUP_SAMPLES_PER_PASS = 2
P90_MIN_SAMPLES = 100  # p90 is printed only when at least 10 samples lie beyond it
WARM_UP = [[1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]  # the Choi map: every layer runs

END_TO_END = {
    "setup_s": "s",
    "analyses_per_s": "1/s",
    "analyze_p50_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}
TRACED_LAYERS = (
    "cli.main",
    "cli.parse",
    "cli.emit",
    "criteria.full_report",
    "maps.cp_check",
    "search.violation",
    "search.probe",
    "search.cross_terms",
    "linalg.eig",
    "linalg.eig_block",
)
COUNTED_LAYERS = (
    "search.violation",
    "search.probe",
    "search.cross_terms",
    "linalg.eig",
    "linalg.eig_block",
)
SEARCH_LAYERS = ("search.violation", "search.probe")


def per_layer_units() -> dict:
    units = {}
    for layer in TRACED_LAYERS:
        if layer in COUNTED_LAYERS:
            units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        if layer in SEARCH_LAYERS:
            units[f"{layer}.found_ratio"] = "ratio"
    units["trace.analyses_per_s"] = "1/s"
    units["trace.overhead_ratio"] = "ratio"
    return units


@dataclass(frozen=True)
class Outcome:
    code: int | None  # None when cli.main raised
    out: str
    err: str

    def digest(self) -> bytes:
        return hashlib.sha256(f"{self.code}\n{self.out}\n{self.err}".encode()).digest()


def analyze(path: Path) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(["analyze", "-i", str(path), "--format", "json"])
        except (Exception, SystemExit):
            code = None
            err.write(traceback.format_exc())
    return Outcome(code, out.getvalue(), err.getvalue())


def judge(workload: Workload, case: Case, outcome: Outcome) -> list:
    """Problems with one analysis; an empty list means it is correct."""
    if outcome.code is None:
        return [f"raised: {outcome.err.strip().splitlines()[-1]}"]
    if outcome.code != 0:
        return [f"exit {outcome.code}: {outcome.err.strip()}"]
    try:
        doc = json.loads(outcome.out)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    return workload.oracle(case, doc) + recheck.check_certificates(np.array(case.A), doc, TOL)


@dataclass
class Loop:
    """What one loop of passes over the inputs produced."""

    first: list = field(default_factory=list)  # Outcome of each input's first analysis
    inputs: list = field(default_factory=list)  # input index of every analysis, in order
    repeats_differ: list = field(default_factory=list)  # True where a repeat's bytes changed
    times: list = field(default_factory=list)  # reference-second time of every analysis
    elapsed: float = 0.0  # raw wall time of the whole loop

    @property
    def passes(self) -> int:
        return len(self.inputs) // len(self.first)

    def input_times(self) -> list:
        """Median reference-second time of each input over its repeats."""
        repeats: list = [[] for _ in self.first]
        for i, t in zip(self.inputs, self.times):
            repeats[i].append(t)
        return [statistics.median(ts) for ts in repeats]

    def digest(self) -> str:
        return hashlib.sha256(b"".join(o.digest() for o in self.first)).hexdigest()


def cycle(
    paths: list,
    seconds: float,
    ref: Reference,
    min_passes: int = 1,
    whole_passes: bool = False,
    run_one=None,
    after_pass=None,
    sample_during: bool = True,
) -> Loop:
    """Make passes over the inputs for ``seconds`` and at least ``min_passes`` passes.

    With ``whole_passes`` the loop stops only between passes, before a pass
    that the previous one says would end after ``seconds``.
    ``run_one(i, path)`` replaces ``analyze(path)``; ``after_pass()`` runs
    after every pass, outside the analysis times.  ``sample_during`` is
    passed to ``Reference.measure``.
    """
    run_one = run_one or (lambda _, path: analyze(path))
    loop = Loop()
    first_digests = []
    k = len(paths)
    start = pass_start = time.perf_counter()
    last_pass = 0.0
    while True:
        i = len(loop.inputs) % k
        outcome, took = ref.measure(functools.partial(run_one, i, paths[i]), sample_during)
        now = time.perf_counter()
        loop.times.append(took)
        loop.inputs.append(i)
        if len(loop.inputs) <= k:
            loop.first.append(outcome)
            first_digests.append(outcome.digest())
            loop.repeats_differ.append(False)
        else:
            loop.repeats_differ.append(outcome.digest() != first_digests[i])
        done = len(loop.inputs)
        if done % k == 0:
            if after_pass:
                after_pass()
            last_pass, pass_start = now - pass_start, time.perf_counter()
        if done < min_passes * k:
            continue
        if not whole_passes:
            if now - start >= seconds:
                break
        elif done % k == 0 and now - start + last_pass > seconds:
            break
    loop.elapsed = time.perf_counter() - start
    return loop


class SetupTimer:
    """Time for a fresh interpreter to finish ``import choilike.cli``, in reference seconds."""

    def __init__(self, src: Path, ref: Reference):
        self.ref = ref
        self.env = dict(os.environ)
        paths = [str(src), self.env.get("PYTHONPATH")]
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        self.cmd = [sys.executable, "-c", "import choilike.cli"]
        self.samples: list = []
        subprocess.run(self.cmd, env=self.env, check=True)  # leaves the bytecode cache warm

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            run = functools.partial(subprocess.run, self.cmd, env=self.env, check=True)
            self.samples.append(self.ref.measure(run, sample_during=False)[1])


def write_inputs(cases: list, directory: Path) -> list:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, case in enumerate(cases):
        path = directory / f"input-{i:03d}.json"
        path.write_text(json.dumps({"n": case.n, "A": case.A}), encoding="utf-8")
        paths.append(path)
    return paths


def check_known_failures(workload: Workload, smoke: bool, directory: Path, notes: list) -> list:
    """Analyse the workload's known refusals once, untimed, and note how each ended.

    They stay outside ``attempted`` and ``failed``: a timed operation must
    not fail.  Returns the indices of those that exit 0 with a wrong report.
    """
    if workload.known_failures is None:
        return []
    cases = workload.known_failures(smoke)
    outcomes = [analyze(path) for path in write_inputs(cases, directory)]
    refused = [(c, o) for c, o in zip(cases, outcomes) if o.code != 0]
    notes.append(
        f"known failure (analysed once, untimed, not in attempted/failed): "
        f"{len(refused)} of {len(cases)} refused"
    )
    for case, outcome in refused:
        reason = (outcome.err.strip().splitlines() or [""])[-1]
        notes.append(f"  refused: {case.label}: exit {outcome.code}: {reason}")
    return [
        i
        for i, (case, outcome) in enumerate(zip(cases, outcomes))
        if outcome.code == 0 and judge(workload, case, outcome)
    ]


@dataclass
class Report:
    result: dict  # the final JSON line
    notes: list  # human-readable lines printed before it


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    work_dir: Path,
    src: Path,
    smoke: bool = False,
) -> Report:
    """One benchmark run; ``smoke`` shrinks the workload to a few inputs."""
    workload = WORKLOADS[name]
    cases = workload.make_cases(seed, smoke)
    run_dir = work_dir / f"{name}-{seed}"
    paths = write_inputs(cases, run_dir)
    warm_up = write_inputs([Case("warm-up", WARM_UP)], work_dir / "warm-up")
    analyze(warm_up[0])  # first-call costs inside numpy are not the program's
    notes = [f"workload {name} seed {seed}: {len(cases)} inputs"]
    known_wrong = check_known_failures(workload, smoke, work_dir / f"{name}-known", notes)

    traced_loop = tracer = None
    ref = Reference()
    if not trace:
        setup = SetupTimer(src, ref)
        setup.sample(SETUP_SAMPLES_PER_PASS)
        loop = cycle(
            paths,
            seconds,
            ref,
            min_passes=MIN_PASSES,
            after_pass=lambda: setup.sample(SETUP_SAMPLES_PER_PASS),
        )
    else:
        # the reference kernel stays out of the analyses, so it adds nothing to any span
        loop = cycle(paths, seconds / 2, ref, whole_passes=True, sample_during=False)
        tracer = Tracer()

        def run_traced(i, path):
            tracer.analysis += 1
            tracer.n = cases[i].n
            with tracer.span("cli.main"):
                return analyze(path)

        tracer.install()
        try:
            traced_loop = cycle(
                paths, seconds / 2, ref, whole_passes=True, run_one=run_traced, sample_during=False
            )
        finally:
            tracer.uninstall()
        tracer.dump(run_dir / "spans.jsonl")

    problems = {i: judge(workload, case, loop.first[i]) for i, case in enumerate(cases)}
    loops = [loop] + ([traced_loop] if traced_loop else [])
    if traced_loop:
        for i, (plain, traced) in enumerate(zip(loop.first, traced_loop.first)):
            if plain.digest() != traced.digest():
                problems[i].append("traced report differs from the untraced one")
    changed = {i for lp in loops for i, differs in zip(lp.inputs, lp.repeats_differ) if differs}
    for i in changed:
        problems[i].append("a repeated analysis gave different report bytes")
    bad = {i for i, p in problems.items() if p}
    # refusals (nonzero exit, traceback) fail; a wrong emitted report also makes the run incorrect
    wrong = {i for i in bad if loop.first[i].code == 0} | changed
    attempted = sum(len(lp.inputs) for lp in loops)
    failed = sum(i in bad for lp in loops for i in lp.inputs)

    for label, lp in (("untraced", loop), ("traced", traced_loop)):
        if lp:
            notes.append(
                f"{label}: {len(lp.inputs)} analyses ({lp.passes} full passes) "
                f"in {lp.elapsed:.3f} s; report digest sha256 {lp.digest()}"
            )
    notes.append(
        f"failed_ratio {failed / attempted} ({failed} of {attempted} analyses; "
        f"{len(bad)} of {len(cases)} inputs)"
    )
    for i in sorted(bad):
        notes.append(f"  failed: {cases[i].label}: {'; '.join(problems[i])}")

    if not trace:
        per_input = loop.input_times()
        metrics = {
            "setup_s": statistics.median(setup.samples),
            "analyses_per_s": len(per_input) / sum(per_input),
            "analyze_p50_s": statistics.median(per_input),
            "ok_ratio": 1.0 - len(bad) / len(cases),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wall_rate = len(loop.inputs) / loop.elapsed
        notes.append(f"setup samples {len(setup.samples)}; wall rate of the loop {wall_rate} 1/s")
        if len(loop.times) >= P90_MIN_SAMPLES:
            p90 = statistics.quantiles(loop.times, n=10)[-1]
            notes.append(f"analyze_p90_s {p90} s (over all {len(loop.times)} analyses)")
        units = END_TO_END
    else:
        metrics = layer_metrics(tracer, traced_loop, loop)
        units = per_layer_units()
    notes.extend(f"{key} {metrics[key]} {unit}" for key, unit in units.items())
    result = {
        "correct": not wrong and not known_wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    return Report(result, notes)


def layer_metrics(tracer: Tracer, traced: Loop, untraced: Loop) -> dict:
    """Per-pass counts and self times of the traced phase, plus the tracing overhead."""
    totals = tracer.totals()
    passes = traced.passes
    metrics = {}
    for layer in TRACED_LAYERS:
        t = totals.get(layer, {"calls": 0, "self_s": 0.0, "found": 0})
        if layer in COUNTED_LAYERS:
            metrics[f"{layer}.calls"] = t["calls"] / passes
        metrics[f"{layer}.self_s"] = t["self_s"] / passes
        if layer in SEARCH_LAYERS:
            metrics[f"{layer}.found_ratio"] = t["found"] / t["calls"] if t["calls"] else 0.0
    traced_time, untraced_time = sum(traced.input_times()), sum(untraced.input_times())
    metrics["trace.analyses_per_s"] = len(traced.first) / traced_time
    metrics["trace.overhead_ratio"] = traced_time / untraced_time - 1.0
    return metrics
