"""In-memory span tracer for the traced benchmark run.

``Tracer.install`` replaces public ``choilike`` functions with timing
wrappers at every module binding they are called through, and
``uninstall`` puts the originals back.  Each call becomes a span (name,
analysis index, parent span, start, end); spans stay in memory until
``dump``.  A span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np


@dataclass
class Span:
    name: str
    analysis: int
    parent: int  # index of the enclosing span, -1 for a root
    start: float
    end: float = 0.0
    found: bool | None = None  # searches only: did the call return a certificate


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.analysis = -1  # index of the analysis being traced
        self.n = 0  # its matrix side, to tell side-n eigenproblems from side-n^2 ones
        self._open: list[int] = []
        self._originals: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.analysis, parent, time.perf_counter()))
        index = len(self.spans) - 1
        self._open.append(index)
        try:
            yield self.spans[index]
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, module, attr: str, name, found: bool = False) -> None:
        """Trace ``module.attr``; ``name`` is a span name or a function of the call's arguments."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name(*args, **kwargs) if callable(name) else name) as span:
                result = original(*args, **kwargs)
                if found:
                    span.found = result is not None
            return result

        setattr(module, attr, traced)
        self._originals.append((module, attr, original))

    def _eig_name(self, matrix, *args, **kwargs) -> str:
        side = np.shape(matrix)[0]
        return "linalg.eig_block" if side == self.n * self.n else "linalg.eig"

    def install(self) -> None:
        from choilike import cli, criteria, linalg, search

        self.wrap(cli, "read_matrix_file", "cli.parse")
        self.wrap(cli, "emit", "cli.emit")
        self.wrap(cli, "full_report", "criteria.full_report")
        self.wrap(criteria, "cp_check", "maps.cp_check")
        self.wrap(cli, "find_positivity_violation", "search.violation", found=True)
        self.wrap(cli, "indecomposability_probe", "search.probe", found=True)
        self.wrap(search, "psd_feasible_cross_terms", "search.cross_terms")
        for module in (linalg, search):
            self.wrap(module, "hermitian_eigenvalues", self._eig_name)

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def totals(self) -> dict:
        """Per span name: {"calls", "self_s", "found"} summed over every span."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        out: dict = {}
        for s, covered in zip(self.spans, child_time):
            t = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "found": 0})
            t["calls"] += 1
            t["self_s"] += (s.end - s.start) - covered
            t["found"] += bool(s.found)
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(s)}) + "\n")
