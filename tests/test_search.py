"""Tests for the certificate searches and the quadratic functionals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choilike.criteria import cyclic_form_witness, zero_pattern_witnesses
from choilike.linalg import (
    hermitian_eigenvalues,
    is_psd,
    outer_product,
    partial_transpose,
)
from choilike.maps import (
    CklParams,
    KyeParams,
    apply_map,
    choi_matrix,
    constant_ckl_matrix,
    kye_matrix,
    validate_coefficients,
)
from choilike.search import (
    _GROW,
    _SHRINK,
    _STEP_FLOOR,
    PptWitnessCertificate,
    SearchConfig,
    StructuredPptState,
    _probe_seeds,
    _project_simplex_rows,
    _structured_gradients,
    assemble_structured_state,
    block_positivity_value,
    find_positivity_violation,
    gap_decomposition,
    indecomposability_probe,
    maximal_cross_terms,
    positivity_gap,
    psd_feasible_cross_terms,
    structured_ppt_value,
    verify_counterexample,
)

CHOI = validate_coefficients([[1, 0, 1], [1, 1, 0], [0, 1, 1]])
COUNTEREXAMPLE = validate_coefficients([[0.5, 1, 0], [0, 1, 1], [1, 0, 2]])
ALL_ONES = validate_coefficients(np.ones((3, 3)))
ZETA5 = np.array([2 ** (1 / 3), 2 ** (-1 / 6), 2 ** (-1 / 6)])
CFG = SearchConfig(seed=42)


def pair_loop_probe(A, cfg):
    """Reference for indecomposability_probe: every start, one Python step per index pair."""
    n = A.n
    cost = A.a.T
    alphas = _probe_seeds(A, cfg.starts, cfg.seed)
    S = alphas.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    eps = 1e-14

    def values(al):
        v = (al * cost).sum(axis=(1, 2))
        for i, j in pairs:
            m1 = np.sqrt(al[:, i, i] * al[:, j, j])
            m2 = np.sqrt(al[:, i, j] * al[:, j, i])
            v = v - 2.0 * np.minimum(m1, m2)
        return v

    def gradients(al):
        g = np.broadcast_to(cost, al.shape).copy()
        safe = np.maximum(al, eps)
        for i, j in pairs:
            m1 = np.sqrt(safe[:, i, i] * safe[:, j, j])
            m2 = np.sqrt(safe[:, i, j] * safe[:, j, i])
            use_diag = m1 <= m2
            g[use_diag, i, i] -= np.sqrt(safe[use_diag, j, j] / safe[use_diag, i, i])
            g[use_diag, j, j] -= np.sqrt(safe[use_diag, i, i] / safe[use_diag, j, j])
            g[~use_diag, i, j] -= np.sqrt(safe[~use_diag, j, i] / safe[~use_diag, i, j])
            g[~use_diag, j, i] -= np.sqrt(safe[~use_diag, i, j] / safe[~use_diag, j, i])
        return g

    F = values(alphas)
    step = np.full(S, 0.1)
    active = np.ones(S, dtype=bool)
    flat = alphas.reshape(S, n * n)

    for _ in range(cfg.max_iterations):
        if not np.any(active):
            break
        grad = gradients(flat.reshape(S, n, n)).reshape(S, n * n)
        proposal = _project_simplex_rows(flat - step[:, None] * grad)
        newF = values(proposal.reshape(S, n, n))
        improved = active & (newF < F)
        flat = np.where(improved[:, None], proposal, flat)
        gain = np.where(improved, F - newF, 0.0)
        F = np.where(improved, newF, F)
        step = np.where(improved, step * _GROW, np.where(active, step * _SHRINK, step))
        active = active & ~(improved & (gain < cfg.step_tolerance))
        active = active & (step > _STEP_FLOOR)

    best = int(np.argmin(F))
    alpha = flat[best].reshape(n, n)
    if F[best] >= -cfg.violation_tolerance:
        return None
    r, _ = psd_feasible_cross_terms(alpha, maximal_cross_terms(alpha))
    rho = assemble_structured_state(alpha, r)
    trace_value = float(np.trace(rho @ choi_matrix(A)).real)
    if trace_value >= -cfg.violation_tolerance:
        return None
    total = float(np.trace(rho).real)
    return PptWitnessCertificate(
        state=StructuredPptState(alpha=alpha, r=r),
        trace_value=trace_value,
        normalized_value=trace_value / total,
    )


class TestPositivityGap:
    def test_zero_coefficients_single_support(self):
        a = validate_coefficients(np.zeros((2, 2)))
        e1 = np.array([1.0, 0.0])
        assert positivity_gap(a, e1, e1) == 0.0

    def test_all_ones_unit_entries(self):
        ones = np.ones(3)
        assert positivity_gap(ALL_ONES, ones, ones) == 3.0  # 12 - 9

    def test_counterexample_direction(self):
        # q carries the rank-one input of the counterexample; the best
        # test vector p is the modulus of the most negative eigenvector
        image = apply_map(COUNTEREXAMPLE, outer_product(ZETA5))
        w, vecs = np.linalg.eigh(image)
        p = np.abs(vecs[:, 0])
        value = positivity_gap(COUNTEREXAMPLE, p, ZETA5)
        assert value < -1e-3

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            positivity_gap(CHOI, np.ones(2), np.ones(3))

    @settings(max_examples=200, deadline=None)
    @given(
        lam=st.floats(min_value=1e-3, max_value=1e3),
        mu=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_homogeneity(self, lam, mu):
        rng = np.random.default_rng(1)
        a = validate_coefficients(rng.random((3, 3)) * 2)
        p, q = rng.random(3), rng.random(3)
        base = positivity_gap(a, p, q)
        scaled = positivity_gap(a, lam * p, mu * q)
        assert scaled == pytest.approx(lam ** 2 * mu ** 2 * base, rel=1e-12, abs=1e-300)


class TestGapDecomposition:
    def test_identity_on_random_inputs(self):
        rng = np.random.default_rng(10)
        for n in (2, 3, 4):
            for _ in range(334):
                a = validate_coefficients(rng.random((n, n)) * 3)
                p, q = rng.random(n), rng.random(n)
                gap = positivity_gap(a, p, q)
                _, total = gap_decomposition(a, p, q)
                _, total_refactored = gap_decomposition(a, p, q, refactored=True)
                assert abs(total - gap) < 1e-10
                assert abs(total_refactored - gap) < 1e-10

    def test_single_support(self):
        rng = np.random.default_rng(11)
        a = validate_coefficients(rng.random((3, 3)))
        p = np.array([0.0, 0.7, 0.0])
        q = np.array([0.0, 1.3, 0.0])
        terms, total = gap_decomposition(a, p, q)
        assert abs(total - a.a[1, 1] * 0.7 ** 2 * 1.3 ** 2) < 1e-14
        assert total >= 0.0

    def test_pair_support_matches_two_index_expression(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            a = validate_coefficients(rng.random((3, 3)) * 2)
            i, j = 0, 2
            p = np.zeros(3)
            q = np.zeros(3)
            p[[i, j]] = rng.random(2) + 0.1
            q[[i, j]] = rng.random(2) + 0.1
            m = a.a
            expected = (
                (np.sqrt(m[i, i]) * p[i] * q[i] - np.sqrt(m[j, j]) * p[j] * q[j]) ** 2
                + (np.sqrt(m[i, j]) * p[i] * q[j] - np.sqrt(m[j, i]) * p[j] * q[i]) ** 2
                + 2
                * (np.sqrt(m[i, i] * m[j, j]) + np.sqrt(m[i, j] * m[j, i]) - 1.0)
                * p[i] * p[j] * q[i] * q[j]
            )
            assert abs(positivity_gap(a, p, q) - expected) < 1e-12


class TestViolationSearch:
    def test_counterexample_yields_certificate(self):
        cert = find_positivity_violation(COUNTEREXAMPLE, CFG)
        assert cert is not None
        assert cert.gap < -1e-9
        assert cert.residual_check < 0.0
        # stored value reproduces from the stored vectors
        assert positivity_gap(COUNTEREXAMPLE, cert.p, cert.q) == pytest.approx(cert.gap, abs=1e-12)
        assert abs(np.linalg.norm(cert.p) - 1.0) < 1e-12
        assert abs(np.linalg.norm(cert.q) - 1.0) < 1e-12
        assert np.min(cert.p) >= 0.0 and np.min(cert.q) >= 0.0

    def test_positive_map_yields_none(self):
        assert find_positivity_violation(ALL_ONES, CFG) is None

    def test_small_constant_yields_certificate(self):
        cert = find_positivity_violation(constant_ckl_matrix(CklParams(0.5, 0.5, 0.5)), CFG)
        assert cert is not None and cert.gap < -1e-9

    def test_deterministic_for_fixed_seed(self):
        c1 = find_positivity_violation(COUNTEREXAMPLE, SearchConfig(seed=7))
        c2 = find_positivity_violation(COUNTEREXAMPLE, SearchConfig(seed=7))
        assert c1.gap == c2.gap
        assert np.array_equal(c1.p, c2.p) and np.array_equal(c1.q, c2.q)

    def test_residual_matches_matrix_route(self):
        cert = find_positivity_violation(COUNTEREXAMPLE, CFG)
        mineig = hermitian_eigenvalues(apply_map(COUNTEREXAMPLE, outer_product(cert.q))).values[0]
        assert cert.residual_check == pytest.approx(float(mineig), abs=1e-12)


class TestVerifyCounterexample:
    def test_named_instance(self):
        check = verify_counterexample(COUNTEREXAMPLE, outer_product(ZETA5))
        assert abs(check.det + 1.0) < 1e-9
        assert check.input_psd and not check.psd

    def test_identity_input(self):
        check = verify_counterexample(CHOI, np.eye(3))
        assert np.allclose(check.image, np.diag([2.0, 2.0, 2.0]), atol=1e-14)
        assert check.psd and check.input_psd

    def test_uniform_projector(self):
        check = verify_counterexample(CHOI, outer_product(np.ones(3)))
        flag, _ = is_psd(check.image)
        assert check.psd == flag


class TestBlockPositivity:
    def test_identity_matrix(self):
        xi = np.array([1.0, 0.0, 0.0])
        eta = np.array([0.0, 1.0, 0.0])
        assert block_positivity_value(np.eye(9), xi, eta) == 1.0

    def test_cyclic_witness_value(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            a1, a2, a3 = 1.0 + rng.random(3) * 2
            b, c = 0.05 + rng.random(2)
            a = validate_coefficients([[a1, b, c], [c, a2, b], [b, c, a3]])
            xi = cyclic_form_witness(a1, a2, a3)
            value = block_positivity_value(choi_matrix(a), xi, xi)
            a_star = (a1 * a2 * a3) ** (1 / 3)
            expected = (a1 ** (1 / 3) + a2 ** (1 / 3) + a3 ** (1 / 3)) * (a_star + b + c - 2)
            assert abs(value - expected) < 1e-9

    def test_zero_pattern_witness_value(self):
        # hand-derived closed form: with the witness pair in the slots
        # (eta, xi) the value is (sum_i a_i^(1/3) / a*) (a* + b* - 2),
        # so it goes negative exactly with the mean bound
        rng = np.random.default_rng(23)
        for _ in range(100):
            adiag = 1.0 + rng.random(3)
            bvals = 0.05 + rng.random(3)
            a = validate_coefficients(
                [
                    [adiag[0], bvals[0], 0],
                    [0, adiag[1], bvals[1]],
                    [bvals[2], 0, adiag[2]],
                ]
            )
            a_star = float(np.prod(adiag) ** (1 / 3))
            margin = a_star + float(np.prod(bvals) ** (1 / 3)) - 2.0
            xi, eta = zero_pattern_witnesses(adiag, bvals)
            value = block_positivity_value(choi_matrix(a), eta, xi)
            expected = float(np.sum(adiag ** (1 / 3))) / a_star * margin
            assert abs(value - expected) < 1e-9
            if margin < -1e-9:
                assert value < 0.0  # the witness pair certifies non-positivity

    def test_product_sampling_never_beats_optimizer(self):
        rng = np.random.default_rng(29)
        for _ in range(3):
            a = validate_coefficients(rng.random((3, 3)) * 1.5)
            c = choi_matrix(a)
            cert = find_positivity_violation(a, CFG)
            best_found = 0.0 if cert is None else cert.gap
            sample_min = np.inf
            for _ in range(10_000):
                xi = rng.normal(size=3) + 1j * rng.normal(size=3)
                eta = rng.normal(size=3) + 1j * rng.normal(size=3)
                xi /= np.linalg.norm(xi)
                eta /= np.linalg.norm(eta)
                sample_min = min(sample_min, block_positivity_value(c, xi, eta))
            assert sample_min >= best_found - 1e-6

    def test_dimension_check(self):
        with pytest.raises(ValueError, match="dimension"):
            block_positivity_value(np.eye(9), np.ones(2), np.ones(3))


class TestStructuredValue:
    def test_identity_profile(self):
        rng = np.random.default_rng(31)
        a = validate_coefficients(rng.random((3, 3)) * 2)
        assert structured_ppt_value(a, np.eye(3)) == pytest.approx(
            float(np.trace(a.a)), abs=1e-14
        )

    def test_choi_free_position_profile(self):
        alpha = np.array([[1, 0.25, 4], [4, 1, 0.25], [0.25, 4, 1]])
        assert structured_ppt_value(CHOI, alpha) == -2.25
        r = maximal_cross_terms(alpha)
        rho = assemble_structured_state(alpha, r)
        assert np.allclose(
            np.real(np.diag(rho)), [1, 0.25, 4, 4, 1, 0.25, 0.25, 4, 1], atol=1e-15
        )
        assert np.allclose(r[np.triu_indices(3, 1)], 1.0, atol=1e-15)
        trace_val = float(np.trace(rho @ choi_matrix(CHOI)).real)
        assert abs(trace_val + 2.25) < 1e-10
        assert is_psd(rho)[0]
        assert is_psd(partial_transpose(rho, 3))[0]

    def test_matches_assembled_trace_on_random_profiles(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            a = validate_coefficients(rng.random((n, n)) * 2)
            alpha = rng.random((n, n))
            rho = assemble_structured_state(alpha, maximal_cross_terms(alpha))
            direct = float(np.trace(rho @ choi_matrix(a)).real)
            assert abs(structured_ppt_value(a, alpha) - direct) < 1e-10

    def test_nonnegative_for_decomposable_family(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            alpha = rng.random((3, 3))
            assert structured_ppt_value(ALL_ONES, alpha) >= -1e-12

    def test_rejects_negative_profile(self):
        with pytest.raises(ValueError, match="nonnegative"):
            structured_ppt_value(CHOI, -np.eye(3))

    def test_cross_terms_shrunk_when_maximal_choice_overshoots(self):
        # pairwise caps allow r12 = r13 = 1, r23 = 0, but the coupled
        # matrix [[1,1,1],[1,1,0],[1,0,1]] has determinant -1
        alpha = np.array([[1.0, 2.0, 2.0], [0.5, 1.0, 0.0], [0.5, 9.0, 1.0]])
        r = maximal_cross_terms(alpha)
        assert np.allclose(r[np.triu_indices(3, 1)], [1.0, 1.0, 0.0], atol=1e-15)
        assert not is_psd(np.diag(np.diag(alpha)) + r + r.T, tol=1e-9)[0]
        shrunk, factor = psd_feasible_cross_terms(alpha, r)
        assert 0.0 < factor < 1.0
        assert is_psd(np.diag(np.diag(alpha)) + shrunk + shrunk.T, tol=1e-9)[0]
        rho = assemble_structured_state(alpha, shrunk)
        assert is_psd(rho, tol=1e-9)[0]
        assert is_psd(partial_transpose(rho, 3), tol=1e-9)[0]

    def test_feasible_cross_terms_untouched_when_already_psd(self):
        alpha = np.array([[1, 0.25, 4], [4, 1, 0.25], [0.25, 4, 1]], dtype=float)
        r = maximal_cross_terms(alpha)
        shrunk, factor = psd_feasible_cross_terms(alpha, r)
        assert factor == 1.0 and np.array_equal(shrunk, r)


class TestIndecomposabilityProbe:
    def test_choi_witness(self):
        cert = indecomposability_probe(CHOI, CFG)
        assert cert is not None
        assert cert.normalized_value <= -1 / 7 + 1e-6
        rho = assemble_structured_state(cert.state.alpha, cert.state.r)
        assert is_psd(rho, tol=1e-9)[0]
        assert is_psd(partial_transpose(rho, 3), tol=1e-9)[0]
        direct = float(np.trace(rho @ choi_matrix(CHOI)).real)
        assert abs(direct - cert.trace_value) < 1e-10
        assert cert.trace_value < -1e-9

    def test_cross_term_caps(self):
        cert = indecomposability_probe(CHOI, CFG)
        alpha, r = cert.state.alpha, cert.state.r
        for i in range(3):
            for j in range(i + 1, 3):
                assert r[i, j] ** 2 <= alpha[i, i] * alpha[j, j] + 1e-12
                assert r[i, j] ** 2 <= alpha[i, j] * alpha[j, i] + 1e-12

    def test_decomposable_map_yields_none(self):
        assert indecomposability_probe(ALL_ONES, CFG) is None

    def test_kye_boundary_witness(self):
        a = kye_matrix(KyeParams(1, 1, 1, 1))
        cert = indecomposability_probe(a, CFG)
        assert cert is not None and cert.trace_value < -1e-9

    def test_zero_b_family_witnesses_along_boundary(self):
        # the zero-b maps on c^3 = (2-a)^3 are positive and indecomposable;
        # the probe confirms the latter numerically across the family
        for a_val in (1.0, 1.25, 1.5):
            c = 2.0 - a_val
            cert = indecomposability_probe(kye_matrix(KyeParams(a_val, c, c, c)), CFG)
            assert cert is not None and cert.normalized_value < -1e-9

    def test_deterministic_for_fixed_seed(self):
        c1 = indecomposability_probe(CHOI, SearchConfig(seed=3))
        c2 = indecomposability_probe(CHOI, SearchConfig(seed=3))
        assert c1.trace_value == c2.trace_value
        assert np.array_equal(c1.state.alpha, c2.state.alpha)



def _generalized_choi(n):
    a = np.eye(n) * (n - 2 + 0.375)
    for i in range(n):
        a[i, (i - 1) % n] = 1.0
    return a


def _pairwise_sufficient_draw(n, rng):
    # every pair clears sqrt(a_ii a_jj)/(n-1) + sqrt(a_ij a_ji) >= 1 with slack
    d = rng.uniform(0.5, 2.0, n)
    a = np.diag(d)
    for i in range(n):
        for j in range(i + 1, n):
            s = max(0.0, 1.0 - np.sqrt(d[i] * d[j]) / (n - 1)) + rng.uniform(0.05, 0.5)
            t = np.exp(rng.uniform(-0.7, 0.7))
            a[i, j], a[j, i] = s * t, s / t
    return a


# Positive constant cyclic points on which the gradient bound ends the probe:
# the first fifteen at its first step, the last three a few steps in.
BOUND_EXITS = (
    (3.0, 0.0, 1.75), (1.75, 2.25, 0.75), (1.0, 1.75, 2.5), (1.75, 2.5, 0.75),
    (0.0, 1.5, 2.75), (1.75, 0.5, 3.0), (1.5, 2.0, 1.25), (2.25, 0.25, 2.75),
    (0.25, 1.25, 1.25), (0.5, 1.75, 1.75), (2.0, 3.0, 0.0), (1.25, 1.25, 1.75),
    (0.75, 1.25, 1.25), (3.0, 2.75, 0.75), (2.25, 0.75, 1.25),
    (1.0, 2.25, 0.5), (1.0, 2.75, 0.5), (1.25, 0.5, 2.75),
)


def _probe_corpus():
    rng = np.random.default_rng(5)
    cases = [("choi", CHOI.a)]
    cases += [(f"gchoi-{n}", _generalized_choi(n)) for n in range(4, 9)]
    cases += [(f"sufficient-{n}", _pairwise_sufficient_draw(n, rng)) for n in range(5, 9)]
    cases += [(f"random-{n}", rng.random((n, n)) * 1.5) for n in range(2, 9)]
    cases += [
        ("ckl-{}-{}-{}".format(*p), constant_ckl_matrix(CklParams(*p)).a) for p in BOUND_EXITS
    ]
    return cases


@pytest.mark.parametrize("seed", [7, 42])
@pytest.mark.parametrize("name,raw", _probe_corpus(), ids=[c[0] for c in _probe_corpus()])
def test_probe_matches_pair_loop_bit_for_bit(name, raw, seed):
    a = validate_coefficients(raw)
    cfg = SearchConfig(seed=seed)
    expected = pair_loop_probe(a, cfg)
    got = indecomposability_probe(a, cfg)
    assert (got is None) == (expected is None)
    if expected is not None:
        assert got.state.alpha.tobytes() == expected.state.alpha.tobytes()
        assert got.state.r.tobytes() == expected.state.r.tobytes()
        assert got.trace_value == expected.trace_value
        assert got.normalized_value == expected.normalized_value


KYE_BOUNDARY = (0.5, 1.0, 1.25, 1.5)  # a on the zero-b boundary c = 2 - a


def _gradient(A, beta):
    I, J = np.triu_indices(A.n, 1)
    return _structured_gradients(np.asarray(beta)[None], A.a.T, I, J)[0]


def _simplex_point(rng, n):
    x = rng.random((n, n)) * (rng.random((n, n)) > 0.3)  # about 30 % zero entries
    x[rng.integers(n), rng.integers(n)] += 0.1
    return x / x.sum()


class TestGradientBound:
    def test_gradient_is_a_linear_minorant(self):
        # F(alpha) >= g(beta) . alpha >= min_k g_k(beta): the probe's lower bound
        rng = np.random.default_rng(2013)
        for _ in range(3000):
            n = int(rng.integers(2, 9))
            raw = rng.random((n, n)) * rng.choice([0.5, 1.5, 4.0]) * (rng.random((n, n)) > 0.2)
            a = validate_coefficients(raw)
            alpha, beta = _simplex_point(rng, n), _simplex_point(rng, n)
            g = _gradient(a, beta)
            value = structured_ppt_value(a, alpha)
            assert float(np.sum(g * alpha)) <= value
            assert g.min() <= value

    def test_minorant_touches_at_its_own_point(self):
        # F is homogeneous of degree one, so g(beta) . beta = F(beta) away from the clamp
        rng = np.random.default_rng(2014)
        for _ in range(500):
            n = int(rng.integers(2, 9))
            a = validate_coefficients(rng.random((n, n)) * 2)
            beta = rng.random((n, n)) + 0.01
            beta /= beta.sum()
            value = structured_ppt_value(a, beta)
            assert float(np.sum(_gradient(a, beta) * beta)) == pytest.approx(value, abs=1e-12)

    @pytest.mark.parametrize(
        "raw",
        [CHOI.a]
        + [_generalized_choi(n) for n in range(4, 9)]
        + [kye_matrix(KyeParams(a, 2.0 - a, 2.0 - a, 2.0 - a)).a for a in KYE_BOUNDARY],
        ids=["choi"] + [f"gchoi-{n}" for n in range(4, 9)] + [f"kye-{a}" for a in KYE_BOUNDARY],
    )
    def test_never_fires_when_a_witness_exists(self, raw, monkeypatch):
        import choilike.search as search

        bounds = []

        def recording(al, cost, I, J):
            g = _structured_gradients(al, cost, I, J)
            bounds.append(float(g.reshape(g.shape[0], -1).min(axis=1).max()))
            return g

        monkeypatch.setattr(search, "_structured_gradients", recording)
        a = validate_coefficients(raw)
        assert indecomposability_probe(a, CFG) is not None
        assert bounds and max(bounds) <= -CFG.violation_tolerance


class TestOneSidedSoundness:
    def test_no_false_certificates_on_sufficient_family(self):
        rng = np.random.default_rng(99)
        cfg = SearchConfig(seed=11)
        count = 0
        while count < 200:
            raw = rng.random((3, 3)) * 3
            a = validate_coefficients(raw)
            suff = all(
                np.sqrt(raw[i, i] * raw[j, j]) / 2 + np.sqrt(raw[i, j] * raw[j, i]) >= 1
                for i in range(3)
                for j in range(i + 1, 3)
            )
            if not suff:
                continue
            count += 1
            assert find_positivity_violation(a, cfg) is None
            assert indecomposability_probe(a, cfg) is None

    def test_certificates_found_under_violated_necessary_bound(self):
        rng = np.random.default_rng(98)
        cfg = SearchConfig(seed=11)
        count = 0
        while count < 200:
            raw = rng.random((3, 3)) * 1.2
            viol = any(
                np.sqrt(raw[i, i] * raw[j, j]) + np.sqrt(raw[i, j] * raw[j, i]) < 1 - 1e-9
                for i in range(3)
                for j in range(i + 1, 3)
            )
            if not viol:
                continue
            count += 1
            cert = find_positivity_violation(validate_coefficients(raw), cfg)
            assert cert is not None and cert.gap < -1e-9


class TestN2Equivalence:
    def test_matches_closed_form_outside_margin_band(self):
        rng = np.random.default_rng(2024)
        cfg = SearchConfig(seed=7)
        tested = 0
        for _ in range(700):
            if tested >= 500:
                break
            raw = rng.random((2, 2)) * 2
            margin = np.sqrt(raw[0, 0] * raw[1, 1]) + np.sqrt(raw[0, 1] * raw[1, 0]) - 1
            if abs(margin) < 1e-3:
                continue
            tested += 1
            cert = find_positivity_violation(validate_coefficients(raw), cfg)
            assert (cert is None) == (margin >= 0)
        assert tested >= 500
