"""Command-line front end.

Input files are UTF-8 JSON objects {"n": int, "A": [[...], ...]}, with
2 <= n <= 16 and an optional Hermitian "X" whose entries are either plain
reals or [re, im] pairs.  Each entry of A is 0 or in [1e-50, 1e50]
(maps.COEFFICIENT_RANGE), after entries in (-1e-12, 0) become 0.
Reports are emitted as JSON with fixed field names or as a plain-text
table; identical invocations (same file and flags) produce
byte-identical output.  The tolerance (--tol) is the only analysis
setting.

Exit codes: 0 analysis completed (whatever the verdict), 1 unreadable or
invalid input or command line, 2 internal inconsistency (two criteria
contradicted each other, which indicates a bug).
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .criteria import (
    DEFAULT_MARGIN_BAND,
    ConditionReport,
    InternalInconsistencyError,
    affirmative,
    full_report,
    require_tolerance,
    summarize,
)
from .linalg import outer_product, require_hermitian
from .maps import (
    CoefficientMatrix,
    KyeParams,
    geometric_means,
    kye_matrix,
    validate_coefficients,
)
from .search import (
    PptWitnessCertificate,
    ViolationCertificate,
    find_positivity_violation,
    indecomposability_probe,
    verify_counterexample,
)

# the largest accepted matrix side, which bounds the size of every input
MAX_SIDE = 16
# how many values each reproduction name reads from --a; the other names read none
_A_COUNTS = {"boundary": 3, "kye-boundary": 1}


def _reject_non_finite(token: str):
    raise ValueError(f"non-finite value {token!r} in input")


def _entry_to_complex(entry) -> complex:
    parts = entry if isinstance(entry, list) and len(entry) == 2 else [entry, 0]
    # bool is an int subclass, and float() of a huge JSON integer overflows
    if all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in parts):
        try:
            value = complex(float(parts[0]), float(parts[1]))
        except OverflowError:
            pass
        else:
            if cmath.isfinite(value):
                return value
    raise ValueError(f"matrix entry must be a finite real or an [re, im] pair, got {entry!r}")


def read_matrix_file(path: str) -> tuple[CoefficientMatrix, np.ndarray | None]:
    """Parse and validate an input file; returns (A, optional Hermitian X)."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_constant=_reject_non_finite)
        except RecursionError:
            raise ValueError("input nests too deeply") from None
    if not isinstance(data, dict) or "A" not in data:
        raise ValueError("input must be a JSON object with an 'A' field")
    # sizes are checked before any entry is converted, so an oversized input is refused at once
    if isinstance(data["A"], list) and len(data["A"]) > MAX_SIDE:
        raise ValueError(f"matrix side {len(data['A'])} exceeds the supported maximum {MAX_SIDE}")
    a = validate_coefficients(data["A"])
    if "n" in data and data["n"] != a.n:
        raise ValueError(f"declared n = {data['n']!r} does not match matrix side {a.n}")
    x = None
    if "X" in data:
        rows = data["X"]
        if not isinstance(rows, list) or not all(
            isinstance(row, list) and len(row) == len(rows) for row in rows
        ):
            raise ValueError("X must be a square matrix given as a list of rows")
        if len(rows) != a.n:
            raise ValueError("X must have the same dimension as A")
        x = require_hermitian([[_entry_to_complex(e) for e in row] for row in rows])
    return a, x


def _conditions_list(report: ConditionReport) -> list[dict]:
    return [
        {"name": name, "status": v.status, "margin": v.margin, "detail": v.detail}
        for name, v in report.rows
    ]


def _violation_dict(cert: ViolationCertificate) -> dict:
    return {
        "p": cert.p.tolist(),
        "q": cert.q.tolist(),
        "gap": cert.gap,
        "residual_check": cert.residual_check,
    }


def _witness_dict(cert: PptWitnessCertificate) -> dict:
    return {
        "alpha": cert.state.alpha.tolist(),
        "r": cert.state.r.tolist(),
        "trace_value": cert.trace_value,
        "normalized_value": cert.normalized_value,
    }


def build_document(
    A: CoefficientMatrix,
    report: ConditionReport | None,
    violation: ViolationCertificate | None,
    witness: PptWitnessCertificate | None,
    tolerance: float,
    summary: tuple[str, ...],
    extra: dict | None = None,
) -> dict:
    doc: dict = {
        "input": {"n": A.n, "A": A.a.tolist()},
        "form": report.form.tag if report else None,
        "form_parameters": dict(report.form.parameters) if report else None,
        "conditions": _conditions_list(report) if report else [],
        "summary": list(summary),
    }
    if extra:
        doc.update(extra)
    if violation is not None:
        doc["violation_certificate"] = _violation_dict(violation)
    if witness is not None:
        doc["ppt_witness"] = _witness_dict(witness)
    doc["config"] = {"tolerance": tolerance}  # main adds the output format
    doc["version"] = __version__
    return doc


def render_text(doc: dict) -> str:
    lines = [f"choilike {doc['version']}"]
    lines.append(f"input: n = {doc['input']['n']}, A = {doc['input']['A']}")
    if doc.get("form") is not None:
        lines.append(f"form: {doc['form']}  parameters: {doc['form_parameters']}")
    if doc.get("headline"):
        lines.append(doc["headline"])
    if doc["conditions"]:
        lines.append(f"{'condition':34s} {'status':15s} {'margin':>22s}  detail")
        for cond in doc["conditions"]:
            margin = "-" if cond["margin"] is None else f"{cond['margin']:+.12g}"
            lines.append(
                f"{cond['name']:34s} {cond['status']:15s} {margin:>22s}  {cond['detail']}"
            )
    if "counterexample_check" in doc:
        chk = doc["counterexample_check"]
        lines.append(
            "input X: psd = %s; image determinant = %s; image psd = %s"
            % (chk["input_psd"], f"{chk['det']:.12g}", chk["image_psd"])
        )
    if "violation_certificate" in doc:
        cert = doc["violation_certificate"]
        lines.append(
            "violation certificate: gap = %.12g, residual check = %.12g"
            % (cert["gap"], cert["residual_check"])
        )
        lines.append(f"  p = {cert['p']}")
        lines.append(f"  q = {cert['q']}")
    if "ppt_witness" in doc:
        w = doc["ppt_witness"]
        lines.append(
            "ppt witness: trace value = %.12g, normalized = %.12g"
            % (w["trace_value"], w["normalized_value"])
        )
        lines.append(f"  alpha = {w['alpha']}")
        lines.append(f"  r = {w['r']}")
    lines.append(f"summary: {', '.join(doc['summary'])}")
    lines.append(f"config: {doc['config']}")
    return "\n".join(lines) + "\n"


_ESCAPE = json.encoder.encode_basestring_ascii  # the C string escaper of json.dumps


def _to_json(value, indent: str = "") -> str:
    """json.dumps(value, indent=2, allow_nan=False), without its pure-Python encoder.

    With indent set, json.dumps falls back to CPython's pure-Python
    encoder; this writes the same bytes for dicts with string keys, lists,
    tuples, strings, numbers, booleans and None.  ``indent`` is that of
    the line ``value`` starts on.
    """
    if isinstance(value, str):
        return _ESCAPE(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        try:  # a list of finite floats is joined at once, anything else item by item
            items = list(map(float.__repr__, value))
            finite = all(map(math.isfinite, value))
        except TypeError:
            finite = False
        if not finite:
            items = [_to_json(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_ESCAPE(k) + ": " + _to_json(v, inner) for k, v in value.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(_to_json(doc) + "\n")
    else:
        sys.stdout.write(render_text(doc))


def run_analysis(A: CoefficientMatrix, tolerance: float, x: np.ndarray | None = None) -> dict:
    """Full criteria report plus certificate searches.

    A certificate joins a copy of the report's proofs, and the flags come
    from the same ``summarize`` as the report's own.  The report and both
    searches share lambda_min(T) and the exact decomposition check, cached on A.
    """
    report = full_report(A, band=tolerance)
    proofs = {prop: list(names) for prop, names in report.proofs.items()}
    violation = find_positivity_violation(A, tolerance)
    witness = None
    if violation is not None:
        proofs["not_positive"].append("violation_certificate")
    elif not proofs["not_positive"]:
        witness = indecomposability_probe(A, tolerance)
        if witness is not None:
            proofs["indecomposable"].append("ppt_witness")
    summary = summarize(proofs, affirmative(report.verdict("cp")))
    extra = None
    if x is not None:
        chk = verify_counterexample(A, x, tolerance)
        extra = {
            "counterexample_check": {
                "input_psd": chk.input_psd,
                "det": chk.det,
                "image_psd": chk.psd,
            }
        }
    return build_document(A, report, violation, witness, tolerance, summary, extra)


def _witness_headline(doc: dict) -> str:
    w = doc.get("ppt_witness")
    if w is None:
        return "no witness found"
    return "indecomposability witness normalized value = %.9f" % w["normalized_value"]


def cmd_reproduce(name: str, tolerance: float, a_params: list[float] | None) -> dict:
    if name == "choi":
        A = validate_coefficients([[1, 0, 1], [1, 1, 0], [0, 1, 1]])
        doc = run_analysis(A, tolerance)
        doc["headline"] = _witness_headline(doc)
    elif name == "example5":
        # the half/one/two counterexample with its rank-one input
        A = validate_coefficients([[0.5, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 2.0]])
        zeta = np.array([2.0 ** (1.0 / 3.0), 2.0 ** (-1.0 / 6.0), 2.0 ** (-1.0 / 6.0)])
        doc = run_analysis(A, tolerance, outer_product(zeta))
        chk = doc["counterexample_check"]
        doc["headline"] = (
            "det(image of the rank-one input) = %.9f (input psd: %s, image psd: %s)"
            % (chk["det"], chk["input_psd"], chk["image_psd"])
        )
    elif name == "boundary":
        a1, a2, a3 = a_params if a_params else (0.5, 1.0, 2.0)
        if min(a1, a2, a3) <= 0:
            raise ValueError("boundary diagonals must be strictly positive")
        a_star = geometric_means(validate_coefficients(np.diag([a1, a2, a3]))).a
        b = 2.0 - a_star
        if b < 0:
            raise ValueError(f"a* = {a_star} exceeds 2; no boundary instance")
        A = validate_coefficients([[a1, b, 0.0], [0.0, a2, b], [b, 0.0, a3]])
        doc = run_analysis(A, tolerance)
        row = next(c for c in doc["conditions"] if c["name"] == "boundary_proposition")
        doc["headline"] = f"boundary determinant check: {row['detail']}"
    elif name == "kye-boundary":
        a = a_params[0] if a_params else 1.0
        if not 0 <= a <= 2:
            raise ValueError("kye boundary needs 0 <= a <= 2")
        c = 2.0 - a
        A = kye_matrix(KyeParams(a, c, c, c))
        doc = run_analysis(A, tolerance)
        doc["headline"] = _witness_headline(doc)
    else:
        raise ValueError(f"unknown reproduction name {name!r}")
    return doc


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the code for invalid input; 2 means an internal inconsistency."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache  # built on first use, never at import; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="choilike",
        description="Positivity and decomposability analysis of Choi-like maps",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_input=True):
        if with_input:
            p.add_argument("-i", "--input", required=True, help="JSON matrix file")
        p.add_argument(
            "--tol",
            type=float,
            default=DEFAULT_MARGIN_BAND,
            help="margin band / violation tolerance",
        )
        p.add_argument("--format", choices=("text", "json"), default="text")

    add_common(sub.add_parser("analyze", help="full criteria report plus certificate searches"))
    add_common(sub.add_parser("search", help="positivity-violation search only"))
    add_common(sub.add_parser("probe", help="indecomposability witness search only"))
    rep = sub.add_parser("reproduce", help="rebuild a named instance and its headline check")
    rep.add_argument("name", choices=("choi", "example5", "boundary", "kye-boundary"))
    rep.add_argument("--a", type=float, nargs="+", default=None, help="diagonal parameters")
    add_common(rep, with_input=False)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        require_tolerance(args.tol)
        if args.command == "reproduce":
            count = _A_COUNTS.get(args.name, 0)
            if args.a is not None and len(args.a) != count:
                raise ValueError(
                    f"reproduce {args.name} takes {count} value(s) via --a, got {len(args.a)}"
                )
            doc = cmd_reproduce(args.name, args.tol, args.a)
        else:
            A, x = read_matrix_file(args.input)
            if args.command == "analyze":
                doc = run_analysis(A, args.tol, x)
            elif args.command == "search":
                violation = find_positivity_violation(A, args.tol)
                summary = ("not_positive_proven",) if violation else ("inconclusive",)
                doc = build_document(A, None, violation, None, args.tol, summary)
            else:
                witness = indecomposability_probe(A, args.tol)
                summary = ("indecomposable_proven",) if witness else ("inconclusive",)
                doc = build_document(A, None, None, witness, args.tol, summary)
    except InternalInconsistencyError as exc:
        sys.stderr.write(f"internal inconsistency: {exc}\n")
        return 2
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    doc["config"]["format"] = args.format
    emit(doc, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
