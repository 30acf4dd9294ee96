"""Tests for map construction, block matrices and coefficient patterns."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choilike import maps
from choilike.criteria import full_report
from choilike.linalg import is_psd, determinant, outer_product
from choilike.maps import (
    _box_certificate,
    _rational_psd,
    CklParams,
    apply_map,
    averaged_params,
    classify_form,
    cp_check,
    geometric_means,
    kye_matrix,
    KyeParams,
    matches_b_only,
    matches_cyclic_bc,
    matches_kye_form,
    structured_matrix,
    validate_coefficients,
)
from oracles import (
    ScalingVector,
    choi_matrix,
    constant_ckl_matrix,
    numpy_validate_coefficients,
    scaled_ckl_matrix,
    shift_average,
)

CHOI = [[1, 0, 1], [1, 1, 0], [0, 1, 1]]
COUNTEREXAMPLE = [[0.5, 1, 0], [0, 1, 1], [1, 0, 2]]


def random_hermitian(rng, dim=3):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2


def hermitian_unit(i, j, n, imag=False):
    e = np.zeros((n, n), dtype=complex)
    if i == j:
        e[i, i] = 1.0
    elif imag:
        e[i, j] = -1.0j
        e[j, i] = 1.0j
    else:
        e[i, j] = 1.0
        e[j, i] = 1.0
    return e


# entries at and across every boundary of the checks, as floats, integers and booleans
ENTRY = st.sampled_from(
    [0.0, -0.0, -1e-13, -1e-12, -2e-12, -0.5, 1e-50, 9.9e-51, 1e50, 1.1e50, 5e-324,
     float("nan"), float("inf"), -float("inf"), 0, 1, -1, 10 ** 60, True, False]
) | st.floats(min_value=-2.0, max_value=2.0)


class TestValidation:
    def test_accepts_choi_coefficients(self):
        a = validate_coefficients(CHOI)
        assert a.n == 3 and np.array_equal(a.a, np.array(CHOI, dtype=float))

    def test_rejects_negative_entry(self):
        with pytest.raises(ValueError, match="negative coefficient"):
            validate_coefficients([[1, -0.5], [0, 1]])

    def test_accepts_zero_matrix(self):
        assert validate_coefficients([[0, 0], [0, 0]]).n == 2

    def test_clamps_roundoff_negatives(self):
        a = validate_coefficients([[1, -1e-13], [0, 1]])
        assert a.a[0, 1] == 0.0

    @pytest.mark.parametrize("value", [1e51, 1e308, 1e-51, 1e-300, 5e-324])
    def test_rejects_nonzero_entries_outside_the_range(self, value):
        with pytest.raises(ValueError, match=r"nonzero coefficient a\[1\]\[2\] = .* outside"):
            validate_coefficients([[1, value], [0, 1]])

    def test_accepts_the_ends_of_the_range(self):
        low, high = maps.COEFFICIENT_RANGE
        a = validate_coefficients([[high, low], [0, -1e-13]])
        assert a.a.tolist() == [[high, low], [0.0, 0.0]]

    def test_rejects_non_square_and_tiny(self):
        with pytest.raises(ValueError, match="square"):
            validate_coefficients([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ValueError, match="n >= 2"):
            validate_coefficients([[1.0]])
        with pytest.raises(ValueError, match="finite"):
            validate_coefficients([[np.nan, 0], [0, 1]])

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(st.lists(ENTRY, min_size=n, max_size=n), min_size=n, max_size=n)
        ),
        st.booleans(),
    )
    def test_same_decisions_as_the_numpy_checks(self, rows, as_array):
        raw = rows
        if as_array:
            try:
                raw = np.array(rows)
            except (OverflowError, ValueError):
                return
        outcomes = []
        for check in (validate_coefficients, numpy_validate_coefficients):
            try:
                outcomes.append(check(raw).a.tobytes())
            except ValueError as err:
                outcomes.append(str(err))
        assert outcomes[0] == outcomes[1]

    def test_named_entry_convention(self):
        a = validate_coefficients(COUNTEREXAMPLE)
        assert np.array_equal(a.a.diagonal(), [0.5, 1.0, 2.0])
        assert a.slots == ((0.5, 1.0, 2.0), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
        assert all(type(v) is float for s in a.slots for v in s)
        with pytest.raises(ValueError, match="n = 3 only"):
            validate_coefficients(np.eye(4)).slots


class TestApplyMap:
    def test_choi_on_first_unit(self):
        a = validate_coefficients(CHOI)
        out = apply_map(a, hermitian_unit(0, 0, 3))
        assert np.allclose(out, np.diag([1.0, 1.0, 0.0]), atol=1e-15)

    def test_zero_input(self):
        a = validate_coefficients(CHOI)
        assert np.array_equal(apply_map(a, np.zeros((3, 3))), np.zeros((3, 3)))

    def test_counterexample_image(self):
        a = validate_coefficients(COUNTEREXAMPLE)
        zeta = np.array([2 ** (1 / 3), 2 ** (-1 / 6), 2 ** (-1 / 6)])
        image = apply_map(a, outer_product(zeta))
        want = np.array(
            [
                [2 ** (2 / 3), -(2 ** (1 / 6)), -(2 ** (1 / 6))],
                [-(2 ** (1 / 6)), 2 ** (2 / 3), -(2 ** (-1 / 3))],
                [-(2 ** (1 / 6)), -(2 ** (-1 / 3)), 2 ** (5 / 3)],
            ]
        )
        assert np.max(np.abs(image - want)) < 1e-12
        assert abs(determinant(image) + 1.0) < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(17)
        a = validate_coefficients(rng.random((3, 3)) * 2)
        x, y = random_hermitian(rng), random_hermitian(rng)
        alpha, beta = 0.7, -1.3
        lhs = apply_map(a, alpha * x + beta * y)
        rhs = alpha * apply_map(a, x) + beta * apply_map(a, y)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_dimension_mismatch(self):
        a = validate_coefficients(CHOI)
        with pytest.raises(ValueError, match="dimension"):
            apply_map(a, np.eye(2))


class TestChoiMatrix:
    def test_trace_collects_all_coefficients(self):
        rng = np.random.default_rng(2)
        a = validate_coefficients(rng.random((4, 4)))
        assert abs(np.trace(choi_matrix(a)).real - a.a.sum()) < 1e-14

    def test_golden_structure_n3(self):
        a = validate_coefficients(COUNTEREXAMPLE)
        c = choi_matrix(a)
        # diagonal blocks carry the columns of A
        for i in range(3):
            for k in range(3):
                assert c[3 * i + k, 3 * i + k] == a.a[k, i]
        # single -1 per off-diagonal block, at inner position (i, j)
        for (r, s) in [(0, 4), (0, 8), (4, 8)]:
            assert c[r, s] == -1.0 and c[s, r] == -1.0
        assert np.count_nonzero(c) == 6 + np.count_nonzero(a.a)
        # the same matrix with blocks indexed by the output factor has the
        # row diagonals instead; both orderings list every coefficient once
        swapped_diag = [a.a[i, k] for i in range(3) for k in range(3)]
        assert sorted(np.real(np.diag(c))) == sorted(swapped_diag)

    def test_zero_matrix_n2(self):
        a = validate_coefficients(np.zeros((2, 2)))
        c = choi_matrix(a)
        want = np.zeros((4, 4), dtype=complex)
        want[0, 3] = want[3, 0] = -1.0
        assert np.array_equal(c, want)

    def test_equals_blockwise_assembly(self):
        rng = np.random.default_rng(14)
        for n in (2, 3, 4):
            a = validate_coefficients(rng.random((n, n)) * 3)
            c = choi_matrix(a)
            assembled = np.zeros_like(c)
            for i in range(n):
                for j in range(n):
                    if i == j:
                        block = apply_map(a, hermitian_unit(i, i, n))
                    else:
                        # E_ij = (H_re + i H_im) / 2 for the Hermitian pair below
                        re = apply_map(a, hermitian_unit(i, j, n))
                        im = apply_map(a, hermitian_unit(i, j, n, imag=True))
                        block = (re + 1j * im) / 2
                    assembled[i * n:(i + 1) * n, j * n:(j + 1) * n] = block
            assert np.array_equal(c, assembled)


class TestCpCheck:
    def test_examples(self):
        # the margin is the Schur slack 1 - sum_i 1/(1 + a_ii)
        assert cp_check(constant_ckl_matrix(CklParams(2, 0, 0))) == 0.0
        assert abs(cp_check(validate_coefficients(CHOI)) + 0.5) < 1e-12
        slack = cp_check(constant_ckl_matrix(CklParams(1.9, 0, 0)))
        assert slack < 0.0 and abs(slack - (1 - 3 / 2.9)) < 1e-12

    def test_boundary_slack_is_exactly_zero(self):
        # a = 2 on the constant cyclic grid, and a_ii = n - 1 for any
        # off-diagonal, sit on the boundary sum_i 1/(1 + a_ii) = 1 itself
        grid = np.arange(13) * 0.25
        mats = [constant_ckl_matrix(CklParams(2.0, b, c)) for b in grid for c in grid]
        rng = np.random.default_rng(12)
        for n in range(2, 9):
            raw = rng.random((n, n)) * 3
            np.fill_diagonal(raw, n - 1)
            mats.append(validate_coefficients(raw))
        assert len(mats) == 169 + 7
        for a in mats:
            assert cp_check(a) == 0.0
            assert "cp_proven" in full_report(a).summary

    def test_agrees_with_full_block_psd(self):
        rng = np.random.default_rng(100)
        checked = 0
        while checked < 500:
            n = int(rng.integers(2, 5))
            raw = rng.random((n, n)) * 4
            a = validate_coefficients(raw)
            slack = cp_check(a)
            if abs(slack) < 1e-6:
                continue
            full_flag, _ = is_psd(choi_matrix(a), tol=1e-9)
            assert (slack >= 0.0) == full_flag
            checked += 1


def _ckl_grid():
    values = np.arange(0.0, 3.0001, 0.25)
    return [(float(a), float(b), float(c)) for a in values for b in values for c in values]


def _certificate(a):
    return _box_certificate(a, structured_matrix(a.a))


# T is exactly singular on these: T = (3/2) I - J/2 at (1, 1/4, 1) on the boundary
# 4bc = (2 - a)^2, and T = n I - J at a_ii = n - 1 with every a_ij = 0
BOUNDARY_MAPS = [("ckl-1-0.25-1", constant_ckl_matrix(CklParams(1, 0.25, 1)).a)]
BOUNDARY_MAPS += [("ckl-2-0-0", constant_ckl_matrix(CklParams(2, 0, 0)).a)]
BOUNDARY_MAPS += [(f"diag-{n}", np.eye(n) * (n - 1)) for n in range(2, 9)]


class TestDecompositionCheck:
    """An exactly verified M >= 0 with M_ii = a_ii and (1 + M_ij)^2 <= a_ij a_ji."""

    @staticmethod
    def _assert_decomposes(a, m):
        # n^2-side oracle: P is M on the |ii> positions, Q the 2 x 2 blocks
        # [[a_ki, -(1 + M_ik)], [-(1 + M_ik), a_ik]] on {|ik>, |ki>}; C = P + Q^Gamma
        n = a.n
        exact = np.vectorize(lambda v: Fraction(float(v)), otypes=[object])
        am, mm = exact(a.a), exact(m)
        p = np.full((n * n, n * n), Fraction(0), dtype=object)
        q = np.full((n * n, n * n), Fraction(0), dtype=object)
        for i in range(n):
            for j in range(n):
                p[i * n + i, j * n + j] = mm[i, j]
                if i != j:
                    q[i * n + j, i * n + j] = am[j, i]
                    q[i * n + j, j * n + i] = -(1 + mm[i, j])
        gamma = q.reshape(n, n, n, n).transpose(0, 3, 2, 1).reshape(n * n, n * n)
        assert np.array_equal(p + gamma, exact(choi_matrix(a).real))
        scale = 1.0 + float(np.max(a.a))
        assert np.linalg.eigvalsh(p.astype(float))[0] >= -1e-12 * scale
        assert np.linalg.eigvalsh(q.astype(float))[0] >= -1e-12 * scale
        for i in range(n):
            for k in range(i + 1, n):
                assert q[i * n + k, k * n + i] ** 2 <= am[k, i] * am[i, k]

    def test_ckl_grid_matches_the_decomposability_boundary(self):
        tested = passed = 0
        for abc in _ckl_grid():
            a_val, b, c = abc
            a = constant_ckl_matrix(CklParams(*abc))
            verified, floor = a.decomposition_verified, a.structured_floor
            assert floor == pytest.approx(a_val - 2 * max(0.0, 1 - np.sqrt(b * c)), abs=1e-12)
            if verified:
                passed += 1
                self._assert_decomposes(a, _certificate(a))
            if abs(4 * b * c - (2 - a_val) ** 2) < 1e-9:
                assert verified, abc  # the boundary itself decomposes, exactly
                continue
            tested += 1
            assert verified == (a_val >= 2 or 4 * b * c >= (2 - a_val) ** 2), abc
        assert tested == 2158 and passed == 1881

    def test_random_certificates_decompose_the_choi_matrix(self):
        rng = np.random.default_rng(606)
        passed = 0
        for _ in range(300):
            n = int(rng.integers(2, 9))
            raw = rng.random((n, n)) * rng.choice([1.0, 2.0]) * (rng.random((n, n)) > 0.1)
            np.fill_diagonal(raw, rng.uniform(0.0, n - 1, n))
            a = validate_coefficients(raw)
            verified, floor = a.decomposition_verified, a.structured_floor
            assert verified == (floor >= 0), (raw.tolist(), floor)  # no near-singular draws
            if verified:
                passed += 1
                self._assert_decomposes(a, _certificate(a))
        assert passed == 77

    @pytest.mark.parametrize("raw", [m[1] for m in BOUNDARY_MAPS], ids=[m[0] for m in BOUNDARY_MAPS])
    def test_exact_boundary_points(self, raw, monkeypatch):
        a = validate_coefficients(raw)
        assert a.decomposition_verified
        m = _certificate(a)
        assert np.array_equal(m, structured_matrix(a.a))  # already inside the box
        assert _rational_psd(m)
        # mutation: a relative 2^-40 more on the off-diagonal leaves M indefinite
        off = ~np.eye(a.n, dtype=bool)
        mutated = np.where(off, m * (1 + 2.0**-40), m)
        assert not _rational_psd(mutated)
        monkeypatch.setattr(maps, "structured_matrix", lambda _: mutated)
        assert not validate_coefficients(raw).decomposition_verified  # a keeps its cached verdict

    def test_box_steps_repair_rounded_entries(self):
        # 1 - fl(1 - fl(sqrt(fl(0.01 * 0.01)))) exceeds the exact sqrt, so 1 + T_12
        # starts outside the box; one step of one ulp moves it inside
        a = validate_coefficients([[1.0, 0.01], [0.01, 1.0]])
        t = structured_matrix(a.a)
        box = Fraction(0.01) * Fraction(0.01)
        assert (1 + Fraction(float(t[0, 1]))) ** 2 > box
        m = _certificate(a)
        assert (1 + Fraction(float(m[0, 1]))) ** 2 <= box
        assert m[0, 1] == np.nextafter(t[0, 1], -1.0)
        assert a.decomposition_verified

    def test_second_pass_tests_only_the_moved_pairs(self, monkeypatch):
        # only 1 + T_12 = 1 - fl(1 - fl(sqrt(0.01 * 0.01))) starts outside the box;
        # the pairs with a_ij a_ji = 1 sit on it at T_ij = -0.0
        a = validate_coefficients([[1.0, 0.01, 1.0], [0.01, 1.0, 1.0], [1.0, 1.0, 1.0]])
        tested = []
        outside = maps._outside_box

        def counting(m, x, y):
            tested.append((x, y))
            return outside(m, x, y)

        monkeypatch.setattr(maps, "_outside_box", counting)
        m = _certificate(a)
        assert tested == [(0.01, 0.01), (1.0, 1.0), (1.0, 1.0), (0.01, 0.01)]
        assert m is not None and m[0, 1] == np.nextafter(structured_matrix(a.a)[0, 1], -1.0)
        assert np.array_equal(m, fraction_box_certificate(a, structured_matrix(a.a)))

    def test_zero_pivot_needs_a_zero_column(self):
        assert _rational_psd(np.array([[0.0, 0.0], [0.0, 1.0]]))
        assert not _rational_psd(np.array([[0.0, 1e-300], [1e-300, 1.0]]))
        assert not _rational_psd(np.array([[1.0, 1.0], [1.0, 1.0 - 2.0**-52]]))
        assert _rational_psd(np.array([[1.0, 1.0], [1.0, 1.0]]))

    @pytest.mark.parametrize("abc,floor", [((1, 1, 0), -1.0), ((1 - 1e-6, 0.5, 0.5), -1e-6)])
    def test_clearly_indefinite_t_does_no_rational_work(self, abc, floor, monkeypatch):
        # the Choi map, and lambda_min(T) = a - 2 (1 - sqrt(bc)) just below 0
        monkeypatch.setattr(maps, "_box_certificate", None)  # a call would raise
        a = constant_ckl_matrix(CklParams(*abc))
        assert not a.decomposition_verified
        assert a.structured_floor == pytest.approx(floor, abs=1e-12)


def fraction_box_certificate(A, t):
    """Reference for maps._box_certificate: the same steps, with the box tested in Fraction."""
    n = A.n
    a = [[Fraction(float(v)) for v in row] for row in A.a]
    m = t.copy()
    for _ in range(maps._BOX_STEPS + 1):
        bad = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if (1 + Fraction(float(m[i, j]))) ** 2 > a[i][j] * a[j][i]
        ]
        if not bad:
            return m
        for i, j in bad:
            step = min(np.nextafter(m[i, j], -1.0), m[i, j] - np.spacing(1.0 + m[i, j]))
            m[i, j] = m[j, i] = step
    return None


def fraction_psd(m):
    """Reference for maps._rational_psd: LDL^T in Fraction."""
    n = m.shape[0]
    w = [[Fraction(float(v)) for v in row] for row in m]
    for k in range(n):
        d = w[k][k]
        if d < 0:
            return False
        if d == 0:
            if any(w[i][k] != 0 for i in range(k + 1, n)):
                return False
            continue
        for i in range(k + 1, n):
            f = w[i][k] / d
            if f:
                for j in range(k + 1, i + 1):
                    w[i][j] -= f * w[j][k]
    return True


def fraction_cp_slack(A):
    """Reference for maps.cp_check: the slack summed in Fraction."""
    return float(1 - sum(1 / (1 + Fraction(float(a))) for a in A.a.diagonal()))


def _nudged(raw):
    """The off-diagonal scaled by 1 +- 2^-40 and the diagonal by 1 +- 2^-52."""
    off = ~np.eye(len(raw), dtype=bool)
    for sign in (1.0, -1.0):
        yield np.where(off, raw * (1 + sign * 2.0**-40), raw)
        yield np.where(off, raw, raw * (1 + sign * 2.0**-52))


class TestExactIntegerChecks:
    """The dyadic-integer checks decide exactly what the Fraction forms decide."""

    @staticmethod
    def _assert_same(a):
        assert cp_check(a).hex() == fraction_cp_slack(a).hex(), a.a.tolist()
        t = structured_matrix(a.a)
        m, want = _certificate(a), fraction_box_certificate(a, t)
        assert (m is None) == (want is None) and (m is None or np.array_equal(m, want))
        for mat in (t,) if m is None else (t, m):
            assert _rational_psd(mat) == fraction_psd(mat), mat.tolist()

    def test_ckl_grid(self):
        for abc in _ckl_grid():
            self._assert_same(constant_ckl_matrix(CklParams(*abc)))

    def test_random_coefficients(self):
        rng = np.random.default_rng(1212)
        for k in range(400):
            n = 2 + k % 8
            raw = rng.random((n, n)) * 2 * (rng.random((n, n)) > 0.2)
            if k % 4 == 3:  # entries over twenty binary orders of magnitude
                raw *= 2.0 ** rng.integers(-10, 11, (n, n))
            np.fill_diagonal(raw, rng.uniform(0.0, n - 0.5, n))
            self._assert_same(validate_coefficients(raw))

    @pytest.mark.parametrize("raw", [m[1] for m in BOUNDARY_MAPS], ids=[m[0] for m in BOUNDARY_MAPS])
    def test_boundary_maps_and_their_mutations(self, raw):
        self._assert_same(validate_coefficients(raw))
        for nudged in _nudged(raw):
            self._assert_same(validate_coefficients(nudged))
        for m in _nudged(structured_matrix(validate_coefficients(raw).a)):
            assert _rational_psd(m) == fraction_psd(m)

    def test_exactly_singular_matrices(self):
        # Gram matrices of rank < n over dyadic rows, some rows zero: each is
        # positive semidefinite, so LDL^T meets a zero pivot with a zero column
        # and skips it; one off-diagonal pair an ulp away usually refutes
        rng = np.random.default_rng(1313)
        verdicts = []
        for k in range(600):
            n = 2 + k % 8
            b = rng.integers(-3, 4, (n, int(rng.integers(1, n)))) * 2.0 ** rng.integers(-20, 21)
            b[rng.random(n) < 0.2] = 0.0
            m = b @ b.T
            if k % 2:
                i, j = rng.choice(n, 2, replace=False)
                m[i, j] = m[j, i] = np.nextafter(m[i, j], np.inf)
            verdicts.append((k % 2, _rational_psd(m)))
            assert verdicts[-1][1] == fraction_psd(m), m.tolist()
        assert verdicts.count((0, True)) == 300  # every exact Gram matrix passes
        assert verdicts.count((1, False)) > 0

    def test_cp_flag_at_slack_equal_to_minus_tol(self):
        # a = (0, 1) gives slack 1 - 1 - 1/2 = -1/2 exactly, so the cp row
        # leaves the marginal band exactly at band 1/2
        a = validate_coefficients([[0.0, 0.3], [0.7, 1.0]])
        assert cp_check(a) == fraction_cp_slack(a) == -0.5
        for band, status in ((0.5, "fails"), (np.nextafter(0.5, 0.0), "fails"),
                             (np.nextafter(0.5, 1.0), "marginal")):
            assert full_report(a, band).verdict("cp").status == status

    def test_cp_diagonals_at_n_minus_one(self):
        rng = np.random.default_rng(1414)
        for n in range(2, 17):
            for _ in range(20):
                raw = rng.random((n, n)) * 3
                np.fill_diagonal(raw, n - 1)
                k = int(rng.integers(n))
                for d in (n - 1, np.nextafter(n - 1, 0), np.nextafter(n - 1, n)):
                    raw[k, k] = d
                    a = validate_coefficients(raw)
                    assert cp_check(a).hex() == fraction_cp_slack(a).hex()


class TestAveraging:
    def test_counterexample_means(self):
        p = averaged_params(validate_coefficients(COUNTEREXAMPLE))
        assert (p.a, p.b, p.c) == (7 / 6, 1.0, 0.0)

    def test_constant_fixed_point(self):
        p = averaged_params(constant_ckl_matrix(CklParams(0.3, 1.2, 2.5)))
        assert np.allclose([p.a, p.b, p.c], [0.3, 1.2, 2.5], atol=1e-15)

    def test_identity_coefficients(self):
        p = averaged_params(validate_coefficients(np.eye(3)))
        assert (p.a, p.b, p.c) == (1.0, 0.0, 0.0)

    def test_wrong_dimension(self):
        with pytest.raises(ValueError, match="n = 3"):
            averaged_params(validate_coefficients(np.eye(4)))

    def test_shift_average_matches_averaged_map(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            a = validate_coefficients(rng.random((3, 3)) * 3)
            x = random_hermitian(rng)
            lhs = shift_average(a, x)
            rhs = apply_map(constant_ckl_matrix(averaged_params(a)), x)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_shift_average_fixes_constant_maps(self):
        rng = np.random.default_rng(29)
        a = constant_ckl_matrix(CklParams(0.5, 1.0, 1.5))
        x = random_hermitian(rng)
        assert np.max(np.abs(shift_average(a, x) - apply_map(a, x))) < 1e-12


class TestGeometricMeans:
    def test_counterexample(self):
        g = geometric_means(validate_coefficients(COUNTEREXAMPLE))
        assert abs(g.a - 1.0) < 1e-15 and g.b == 1.0 and g.c == 0.0

    def test_constant(self):
        g = geometric_means(constant_ckl_matrix(CklParams(0.7, 2.0, 0.1)))
        assert np.allclose([g.a, g.b, g.c], [0.7, 2.0, 0.1], atol=1e-14)

    def test_never_exceeds_arithmetic_mean(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            a = validate_coefficients(rng.random((3, 3)) * 5)
            g, m = geometric_means(a), averaged_params(a)
            assert g.a <= m.a + 1e-12 and g.b <= m.b + 1e-12 and g.c <= m.c + 1e-12


class TestScaledMatrix:
    def test_ratio_entries(self):
        a = scaled_ckl_matrix(CklParams(1, 1, 0), ScalingVector((1, 2, 4)))
        diag, b, c = a.slots
        assert np.allclose(b, [2.0, 2.0, 0.25], atol=1e-15)
        assert c == (0.0, 0.0, 0.0)
        assert diag == (1.0, 1.0, 1.0)

    def test_unit_scaling_is_identity(self):
        p = CklParams(0.8, 1.1, 0.4)
        a = scaled_ckl_matrix(p, ScalingVector((1, 1, 1)))
        assert np.array_equal(a.a, constant_ckl_matrix(p).a)

    def test_geometric_means_preserved(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            p = CklParams(*(rng.random(3) * 2))
            v = ScalingVector(tuple(0.2 + rng.random(3) * 5))
            g = geometric_means(scaled_ckl_matrix(p, v))
            assert abs(g.b - p.b) < 1e-12 * max(1, p.b) and abs(g.c - p.c) < 1e-12 * max(1, p.c)

    def test_cross_products_constant(self):
        rng = np.random.default_rng(39)
        for _ in range(50):
            p = CklParams(*(rng.random(3) * 2))
            v = ScalingVector(tuple(0.2 + rng.random(3) * 5))
            a = scaled_ckl_matrix(p, v)
            _, b, c = a.slots
            prods = np.multiply(b, np.roll(c, -1))  # b_i * c_{i+1}
            assert np.max(np.abs(prods - p.b * p.c)) < 1e-12 * max(1.0, p.b * p.c)

    def test_conjugation_identity(self):
        # Phi of the scaled matrix is the diagonal conjugation of the
        # constant map: V^{-1/2} Phi(V^{1/2} X V^{1/2}) V^{-1/2}
        rng = np.random.default_rng(43)
        for _ in range(20):
            p = CklParams(*(rng.random(3) * 2))
            weights = tuple(0.2 + rng.random(3) * 5)
            a = scaled_ckl_matrix(p, ScalingVector(weights))
            x = random_hermitian(rng)
            v_half = np.diag(np.sqrt(weights))
            v_half_inv = np.diag(1.0 / np.sqrt(weights))
            base = constant_ckl_matrix(p)
            lhs = apply_map(a, x)
            rhs = v_half_inv @ apply_map(base, v_half @ x @ v_half) @ v_half_inv
            assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(lhs)))


class TestClassification:
    def test_choi_is_constant(self):
        form = classify_form(validate_coefficients(CHOI))
        assert form.tag == "constant_ckl"
        assert form.parameters == {"a": 1.0, "b": 0.0, "c": 1.0}

    def test_counterexample_patterns(self):
        a = validate_coefficients(COUNTEREXAMPLE)
        # most specific tag under the fixed order; the cyclic pattern
        # still matches and keeps the cyclic criteria applicable
        assert classify_form(a).tag == "b_only"
        assert matches_cyclic_bc(a)
        assert matches_b_only(a)
        assert not matches_kye_form(a)

    def test_uniform_b_matrix_is_constant(self):
        a = validate_coefficients([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        form = classify_form(a)
        assert form.tag == "constant_ckl"
        assert form.parameters == {"a": 1.0, "b": 1.0, "c": 0.0}
        assert matches_b_only(a) and matches_cyclic_bc(a)

    def test_kye_pattern(self):
        a = kye_matrix(KyeParams(1.5, 1.0, 2.0, 3.0))
        form = classify_form(a)
        assert form.tag == "kye_form"
        assert form.parameters == {"a": 1.5, "c1": 1.0, "c2": 2.0, "c3": 3.0}

    def test_cyclic_with_distinct_diagonals(self):
        a = validate_coefficients([[1, 0.5, 0.2], [0.2, 2, 0.5], [0.5, 0.2, 4]])
        form = classify_form(a)
        assert form.tag == "cyclic_bc"
        assert form.parameters["b"] == 0.5 and form.parameters["c"] == 0.2

    def test_general_and_non_cubic(self):
        a = validate_coefficients([[1, 2, 0.5], [0, 1, 1], [1, 0.3, 1]])
        assert classify_form(a).tag == "general"
        assert classify_form(validate_coefficients(np.eye(4))).tag == "general"

    @pytest.mark.parametrize("i,j", [(i, j) for i in range(3) for j in range(3)])
    def test_one_ulp_off_a_constant_pattern(self, i, j):
        # each pattern is the hypothesis of a theorem, so no tolerance applies
        m = np.array([[1.0, 0.5, 0.25], [0.25, 1.0, 0.5], [0.5, 0.25, 1.0]])
        m[i, j] = np.nextafter(m[i, j], 2.0)
        expected = "cyclic_bc" if i == j else "general"
        assert classify_form(validate_coefficients(m)).tag == expected

    def test_smallest_c_slot_is_not_zero(self):
        a = validate_coefficients([[1, 1, 1e-50], [0, 1, 1], [1, 0, 1]])
        assert not matches_b_only(a) and not matches_cyclic_bc(a)
        assert classify_form(a).tag == "general"
