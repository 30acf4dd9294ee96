"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
the measured runtimes.  Every tolerance is pinned here; the runtime
limits are part of the criteria.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np

from choilike.linalg import (
    determinant,
    is_psd,
    outer_product,
)
from choilike.maps import (
    CklParams,
    apply_map,
    averaged_params,
    cp_check,
    geometric_means,
    validate_coefficients,
)
from choilike.search import (
    find_positivity_violation,
    indecomposability_probe,
    maximal_cross_terms,
    positivity_gap,
)
from oracles import (
    ScalingVector,
    assemble_structured_state,
    block_positivity_value,
    choi_matrix,
    constant_ckl_matrix,
    cyclic_form_witness,
    gap_decomposition,
    partial_transpose,
    scaled_ckl_matrix,
    shift_average,
)

COUNTEREXAMPLE = validate_coefficients([[0.5, 1, 0], [0, 1, 1], [1, 0, 2]])
CHOI = validate_coefficients([[1, 0, 1], [1, 1, 0], [0, 1, 1]])


class _Timer:
    def __init__(self, number, description, limit_seconds):
        self.number = number
        self.description = description
        self.limit = limit_seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"ACCEPTANCE {self.number} [{status}] {self.description} "
            f"({elapsed:.2f}s, limit {self.limit:g}s)"
        )
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its runtime limit: "
                f"{elapsed:.2f}s >= {self.limit:g}s"
            )
        return False


def random_hermitian(rng, dim=3):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2


def test_acceptance_1_counterexample_reproduction():
    with _Timer(1, "counterexample reproduction (det = -1, violation found)", 1.0):
        zeta = np.array([2 ** (1 / 3), 2 ** (-1 / 6), 2 ** (-1 / 6)])
        x = outer_product(zeta)
        flag, _ = is_psd(x, tol=1e-9)
        assert flag, "rank-one input must be positive semidefinite"
        image = apply_map(COUNTEREXAMPLE, x)
        det = determinant(image)
        assert abs(det + 1.0) < 1e-9
        image_flag, _ = is_psd(image, tol=1e-9)
        assert not image_flag
        cert = find_positivity_violation(COUNTEREXAMPLE)
        assert cert is not None and cert.gap < -1e-9


def test_acceptance_2_boundary_determinant_identity():
    with _Timer(2, "boundary determinant identity on 200 random diagonals", 5.0):
        rng = np.random.default_rng(20240)
        checked = 0
        while checked < 200:
            adiag = 0.2 + rng.random(3) * 2.8
            a_star = float(np.prod(adiag) ** (1 / 3))
            b = 2.0 - a_star
            if b < 0:
                continue
            checked += 1
            a1, a2, a3 = adiag
            a = validate_coefficients([[a1, b, 0], [0, a2, b], [b, 0, a3]])
            d_formula = 6.0 * (a_star - float(np.mean(adiag))) / a_star
            xi = np.array(
                [
                    a1 ** (-1 / 6) * a3 ** (1 / 6),
                    a2 ** (-1 / 6) * a1 ** (1 / 6),
                    a3 ** (-1 / 6) * a2 ** (1 / 6),
                ]
            )
            d_numeric = determinant(apply_map(a, outer_product(xi)))
            assert abs(d_formula - d_numeric) <= 1e-8 * max(1.0, abs(d_formula))
            assert d_formula <= 0.0
            spread = float(np.max(adiag) - np.min(adiag))
            assert (abs(d_formula) < 1e-9) == (spread < 1e-9)
        # the equal-diagonal case sits exactly at zero
        for val in (0.5, 1.0, 1.7):
            d = 6.0 * (val - val) / val
            assert d == 0.0


def test_acceptance_3_choi_indecomposability_witness():
    with _Timer(3, "choi-map witness (normalized value <= -1/7)", 10.0):
        cert = indecomposability_probe(CHOI)
        assert cert is not None
        assert cert.normalized_value <= -1 / 7 + 1e-6
        rho = assemble_structured_state(cert.alpha, cert.r)
        assert is_psd(rho, tol=1e-9)[0]
        assert is_psd(partial_transpose(rho, 3), tol=1e-9)[0]
        direct = float(np.trace(rho @ choi_matrix(CHOI)).real)
        assert abs(direct - cert.trace_value) < 1e-10

        # the explicit free-position state evaluates to exactly -2.25
        alpha = np.array([[1, 0.25, 4], [4, 1, 0.25], [0.25, 4, 1]])
        r = maximal_cross_terms(alpha)
        rho = assemble_structured_state(alpha, r)
        assert np.allclose(
            np.real(np.diag(rho)), [1, 0.25, 4, 4, 1, 0.25, 0.25, 4, 1], atol=0
        )
        trace_val = float(np.trace(rho @ choi_matrix(CHOI)).real)
        assert abs(trace_val + 2.25) < 1e-10
        assert is_psd(rho, tol=1e-9)[0]
        assert is_psd(partial_transpose(rho, 3), tol=1e-9)[0]


def test_acceptance_4_n2_oracle_equivalence():
    with _Timer(4, "n = 2 search agrees with the closed form on 500 samples", 30.0):
        rng = np.random.default_rng(2024)
        tested = 0
        while tested < 500:
            raw = rng.random((2, 2)) * 2
            margin = math.sqrt(raw[0, 0] * raw[1, 1]) + math.sqrt(raw[0, 1] * raw[1, 0]) - 1
            if abs(margin) < 1e-3:
                continue
            tested += 1
            cert = find_positivity_violation(validate_coefficients(raw))
            assert (cert is None) == (margin >= 0), (raw.tolist(), margin)


def test_acceptance_5_ckl_oracle_equivalence():
    with _Timer(5, "constant-coefficient grid agrees with the closed form", 120.0):
        values = np.arange(0.0, 3.0001, 0.25)
        for a in values:
            for b in values:
                for c in values:
                    margin = max(a - 2, min(a + b + c - 2, a + math.sqrt(b * c) - 1))
                    if abs(margin) < 1e-3:
                        continue
                    cert = find_positivity_violation(constant_ckl_matrix(CklParams(a, b, c)))
                    assert (cert is None) == (margin >= 0), ((a, b, c), margin)


def test_acceptance_6_sufficiency_soundness():
    with _Timer(6, "no certificates under the sufficient bound; always under violated necessity", 120.0):
        rng = np.random.default_rng(99)
        count = 0
        while count < 200:
            raw = rng.random((3, 3)) * 3
            ok = all(
                math.sqrt(raw[i, i] * raw[j, j]) / 2 + math.sqrt(raw[i, j] * raw[j, i]) >= 1
                for i in range(3)
                for j in range(i + 1, 3)
            )
            if not ok:
                continue
            count += 1
            a = validate_coefficients(raw)
            assert find_positivity_violation(a) is None
            assert indecomposability_probe(a) is None

        count = 0
        while count < 200:
            raw = rng.random((3, 3)) * 1.2
            viol = any(
                math.sqrt(raw[i, i] * raw[j, j]) + math.sqrt(raw[i, j] * raw[j, i]) < 1 - 1e-9
                for i in range(3)
                for j in range(i + 1, 3)
            )
            if not viol:
                continue
            count += 1
            cert = find_positivity_violation(validate_coefficients(raw))
            assert cert is not None and cert.gap < -1e-9


def test_acceptance_7_identity_suite():
    with _Timer(7, "structural identities (cp, gap split, averaging, scaling, transpose)", 60.0):
        rng = np.random.default_rng(7777)

        # reduced complete-positivity test vs the full block matrix
        checked = 0
        while checked < 500:
            n = int(rng.integers(2, 5))
            a = validate_coefficients(rng.random((n, n)) * 4)
            slack = cp_check(a)
            if abs(slack) < 1e-6:
                continue
            checked += 1
            assert (slack >= 0) == is_psd(choi_matrix(a), tol=1e-9)[0]

        # gap decomposition identity
        for _ in range(1000):
            n = int(rng.integers(2, 5))
            a = validate_coefficients(rng.random((n, n)) * 3)
            p, q = rng.random(n), rng.random(n)
            gap = positivity_gap(a, p, q)
            assert abs(gap_decomposition(a, p, q)[1] - gap) < 1e-10
            assert abs(gap_decomposition(a, p, q, refactored=True)[1] - gap) < 1e-10

        # shift averaging equals the averaged constant map
        for _ in range(100):
            a = validate_coefficients(rng.random((3, 3)) * 3)
            x = random_hermitian(rng)
            lhs = shift_average(a, x)
            rhs = apply_map(constant_ckl_matrix(averaged_params(a)), x)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

        # diagonal rescaling: conjugation identity and invariants
        for _ in range(100):
            params = CklParams(*(rng.random(3) * 2))
            weights = tuple(0.2 + rng.random(3) * 5)
            a = scaled_ckl_matrix(params, ScalingVector(weights))
            g = geometric_means(a)
            assert abs(g.b - params.b) < 1e-12 * max(1.0, params.b)
            assert abs(g.c - params.c) < 1e-12 * max(1.0, params.c)
            _, b, c = a.slots
            prods = np.multiply(b, np.roll(c, -1))
            assert np.max(np.abs(prods - params.b * params.c)) < 1e-12 * max(
                1.0, params.b * params.c
            )
            x = random_hermitian(rng)
            v_half = np.diag(np.sqrt(weights))
            v_half_inv = np.diag(1.0 / np.sqrt(weights))
            lhs = apply_map(a, x)
            rhs = v_half_inv @ apply_map(constant_ckl_matrix(params), v_half @ x @ v_half) @ v_half_inv
            assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, float(np.max(np.abs(lhs))))

        # blockwise transpose is an involution and preserves the trace
        for n in (2, 3, 4):
            h = random_hermitian(rng, n * n)
            pt = partial_transpose(h, n)
            assert np.array_equal(partial_transpose(pt, n), h)
            assert np.trace(pt) == np.trace(h)


def test_acceptance_8_cyclic_witness_values():
    with _Timer(8, "cyclic witness evaluates to the product formula on 100 samples", 5.0):
        rng = np.random.default_rng(2025)
        for _ in range(100):
            a1, a2, a3 = 1.0 + rng.random(3) * 2
            b, c = 0.05 + rng.random(2)
            a = validate_coefficients([[a1, b, c], [c, a2, b], [b, c, a3]])
            xi = cyclic_form_witness(a1, a2, a3)
            value = block_positivity_value(choi_matrix(a), xi, xi)
            a_star = (a1 * a2 * a3) ** (1 / 3)
            expected = (a1 ** (1 / 3) + a2 ** (1 / 3) + a3 ** (1 / 3)) * (a_star + b + c - 2)
            assert abs(value - expected) < 1e-9


def test_acceptance_9_deterministic_reports(tmp_path):
    with _Timer(9, "byte-identical reports for identical invocations", 60.0):
        payload = {"n": 3, "A": [[0.5, 1, 0], [0, 1, 1], [1, 0, 2]]}
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        outputs = []
        for hash_seed in ("0", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [
                    sys.executable, "-m", "choilike.cli", "analyze",
                    "-i", str(path), "--format", "json",
                ],
                capture_output=True, env=env, check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        doc = json.loads(outputs[0])
        assert doc["summary"] == ["not_positive_proven"]
