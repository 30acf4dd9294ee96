"""Tests for the certificate searches and the quadratic functionals."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choilike.criteria import DEFAULT_MARGIN_BAND as TOL
from choilike.criteria import MIN_TOLERANCE, full_report
from choilike import search
from choilike.linalg import (
    hermitian_eigenvalues,
    is_psd,
    outer_product,
)
from choilike.maps import (
    CklParams,
    CoefficientMatrix,
    KyeParams,
    apply_map,
    kye_matrix,
    structured_matrix,
    structured_rounding,
    validate_coefficients,
)
from choilike.search import (
    _MAX_ITERATIONS,
    _STEP_TOLERANCE,
    PptWitnessCertificate,
    _structured_root,
    _witness_check,
    find_positivity_violation,
    indecomposability_probe,
    maximal_cross_terms,
    positivity_gap,
    psd_feasible_cross_terms,
    verify_counterexample,
)
import corpus
from oracles import (
    assemble_structured_state,
    block_positivity_value,
    choi_matrix,
    constant_ckl_matrix,
    cyclic_form_witness,
    gap_decomposition,
    loop_pair_seeds,
    masked_violation_search,
    partial_transpose,
    zero_pattern_witnesses,
)

CHOI = validate_coefficients([[1, 0, 1], [1, 1, 0], [0, 1, 1]])
COUNTEREXAMPLE = validate_coefficients([[0.5, 1, 0], [0, 1, 1], [1, 0, 2]])
ALL_ONES = validate_coefficients(np.ones((3, 3)))
ZETA5 = np.array([2 ** (1 / 3), 2 ** (-1 / 6), 2 ** (-1 / 6)])
_STEP_FLOOR = 1e-18  # absolute step floor of the reference descents below


def pairing(A, alpha):
    """Tr(rho C) of the structured state with maximal cross terms, from its definition."""
    alpha = np.asarray(alpha, dtype=float)
    rho = assemble_structured_state(alpha, maximal_cross_terms(alpha))
    return float(np.trace(rho @ choi_matrix(A)).real)


def _project_simplex_rows(mat):
    """Euclidean projection of each row onto the probability simplex."""
    s = np.sort(mat, axis=1)[:, ::-1]
    css = np.cumsum(s, axis=1) - 1.0
    idx = np.arange(1, mat.shape[1] + 1)
    cond = s - css / idx > 0.0
    rho = cond.shape[1] - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = css[np.arange(mat.shape[0]), rho] / (rho + 1.0)
    return np.maximum(mat - theta[:, None], 0.0)


def _probe_seeds(A, seed, starts=64):
    """Pattern seeds loading the zero-cost positions, then uniform draws."""
    n = A.n
    cost = A.a.T  # cost[i, k] multiplies alpha[i, k]
    off = ~np.eye(n, dtype=bool)
    seeds = []
    for m in (2.0, 4.0, 8.0):
        al = np.eye(n)
        free = off & (cost <= 0.0)
        al[free] = m
        al[off & ~free] = 1.0 / m
        seeds.append(al / al.sum())
    seeds.append(np.full((n, n), 1.0 / (n * n)))
    seeds = seeds[:starts]
    for s in range(len(seeds), starts):
        rng = np.random.default_rng((seed, s))
        al = -np.log(rng.random((n, n)))
        seeds.append(al / al.sum())
    return np.array(seeds)


def descent_probe(A, seed):
    """Multi-start projected-gradient descent over the structured profiles on the simplex.

    An independent search of the same family as indecomposability_probe;
    the probe must find a witness wherever this does.  Each step runs on
    the active starts only.  Sums run through a sequential cumsum in pair
    order (diagonal gradient entries: increasing partner index), so every
    float is rounded as in a plain loop over the pairs."""
    n = A.n
    cost = A.a.T
    alphas = _probe_seeds(A, seed)
    S = alphas.shape[0]
    I, J = np.triu_indices(n, 1)
    diag = np.arange(n)
    eps = 1e-14

    def values(al):
        v = (al * cost).sum(axis=(1, 2))
        m = np.minimum(np.sqrt(al[:, I, I] * al[:, J, J]), np.sqrt(al[:, I, J] * al[:, J, I]))
        return np.concatenate([v[:, None], -2.0 * m], axis=1).cumsum(axis=1)[:, -1]

    def gradients(al):
        safe = np.maximum(al, eps)
        d = safe[:, diag, diag]
        use_diag = np.sqrt(d[:, I] * d[:, J]) <= np.sqrt(safe[:, I, J] * safe[:, J, I])
        diag_branch = np.zeros(al.shape, dtype=bool)  # pair {i, j} on its sqrt(al_ii al_jj) branch
        diag_branch[:, I, J] = use_diag
        diag_branch[:, J, I] = use_diag
        cross_branch = ~diag_branch
        cross_branch[:, diag, diag] = False
        # each off-diagonal entry takes the term of its own pair only
        g = cost - np.where(cross_branch, np.sqrt(safe.transpose(0, 2, 1) / safe), 0.0)
        # g[i, i] takes sqrt(alpha_jj / alpha_ii) from every pair {i, j} on the diagonal branch
        terms = np.where(diag_branch, np.sqrt(d[:, None, :] / d[:, :, None]), 0.0)
        start = np.broadcast_to(cost[diag, diag], d.shape)[:, :, None]
        g[:, diag, diag] = np.concatenate([start, -terms], axis=2).cumsum(axis=2)[:, :, -1]
        return g

    F = values(alphas)
    grad = gradients(alphas).reshape(S, n * n)
    step = np.full(S, 0.1)
    active = np.ones(S, dtype=bool)
    flat = alphas.reshape(S, n * n)

    for _ in range(_MAX_ITERATIONS):
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        cur = flat[rows]
        proposal = _project_simplex_rows(cur - step[rows, None] * grad[rows])
        newF = values(proposal.reshape(-1, n, n))
        newGrad = gradients(proposal.reshape(-1, n, n)).reshape(-1, n * n)
        improved = newF < F[rows]
        gain = F[rows] - newF
        step[rows] = search._next_step(step[rows], improved, proposal - cur, newGrad - grad[rows])
        won = rows[improved]
        flat[won] = proposal[improved]
        F[won] = newF[improved]
        grad[won] = newGrad[improved]
        active[rows[improved & (gain < _STEP_TOLERANCE)]] = False
        active &= step > _STEP_FLOOR

    best = int(np.argmin(F))
    alpha = flat[best].reshape(n, n)
    if F[best] >= -TOL:
        return None
    r, _ = psd_feasible_cross_terms(alpha, maximal_cross_terms(alpha))
    rho = assemble_structured_state(alpha, r)
    trace_value = float(np.trace(rho @ choi_matrix(A)).real)
    if trace_value >= -TOL:
        return None
    total = float(np.trace(rho).real)
    return PptWitnessCertificate(
        alpha=alpha,
        r=r,
        trace_value=trace_value,
        normalized_value=trace_value / total,
    )


def bisection_cross_terms(alpha, r):
    """Reference for psd_feasible_cross_terms: the largest t in [0, 1] with
    diag(alpha_ii) + t (r + r^T) PSD within 1e-12 * scale, by 40 halvings."""
    base = np.diag(np.diag(alpha))
    sym = r + r.T
    scale = max(1.0, float(np.max(np.abs(base))), float(np.max(np.abs(sym))))

    def feasible(t):
        return is_psd(base + t * sym, tol=1e-12 * scale)[0]

    if feasible(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = (lo + hi) / 2.0
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


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
        cert = find_positivity_violation(COUNTEREXAMPLE)
        assert cert is not None
        assert cert.gap < -1e-9
        assert cert.residual_check < 0.0
        # stored value reproduces from the stored vectors
        assert positivity_gap(COUNTEREXAMPLE, cert.p, cert.q) == pytest.approx(cert.gap, abs=1e-12)
        assert abs(np.linalg.norm(cert.p) - 1.0) < 1e-12
        assert abs(np.linalg.norm(cert.q) - 1.0) < 1e-12
        assert np.min(cert.p) >= 0.0 and np.min(cert.q) >= 0.0

    def test_positive_map_yields_none(self):
        assert find_positivity_violation(ALL_ONES) is None

    def test_small_constant_yields_certificate(self):
        cert = find_positivity_violation(constant_ckl_matrix(CklParams(0.5, 0.5, 0.5)))
        assert cert is not None and cert.gap < -1e-9

    def test_two_calls_return_identical_certificates(self):
        a = _corpus_draw(2025, 8, sparse=False)  # a random start finds its certificate
        c1 = find_positivity_violation(a)
        c2 = find_positivity_violation(a)
        assert c1.gap == c2.gap and c1.residual_check == c2.residual_check
        assert np.array_equal(c1.p, c2.p) and np.array_equal(c1.q, c2.q)

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf"), 0.0, -1e-9, 1e-16]
    )
    def test_tolerance_must_be_finite_and_positive(self, value):
        # the generalized Choi map n = 4 has a witness, so an unchecked probe would act on it
        a = validate_coefficients(_generalized_choi(4))
        message = "at least 1e-12" if value == 1e-16 else "finite and positive"
        for entry in (find_positivity_violation, indecomposability_probe, full_report):
            with pytest.raises(ValueError, match=message):
                entry(a, value)

    def test_residual_matches_matrix_route(self):
        cert = find_positivity_violation(COUNTEREXAMPLE)
        mineig = hermitian_eigenvalues(apply_map(COUNTEREXAMPLE, outer_product(cert.q)))[0]
        assert cert.residual_check == pytest.approx(float(mineig), abs=1e-12)


def _corpus_draw(seed, k, sparse):
    """Draw k of the corpus recipes: ``rand`` (seed 2025) or ``sparse`` (seed 77)."""
    rng = np.random.default_rng(seed)
    for _ in range(k + 1):
        n = int(rng.integers(2, 9))
        if sparse:
            raw = 1.5 * rng.random((n, n)) * (rng.random((n, n)) > 0.3)
            np.fill_diagonal(raw, rng.uniform(0, n - 1, n))
        else:
            raw = 2.0 * rng.random((n, n))
    return validate_coefficients(raw)


class TestRandomStarts:
    """Certificates that only the random starts reach."""

    @pytest.mark.parametrize(
        "seed,k,sparse,gap",
        [
            (2025, 8, False, -0.0127759900600),
            (2025, 205, False, -0.000572667802867),
            (77, 0, True, -0.0526879808646),
        ],
        ids=["rand8", "rand205", "sparse0"],
    )
    def test_found_only_with_the_random_starts(self, monkeypatch, seed, k, sparse, gap):
        a = _corpus_draw(seed, k, sparse)
        cert = find_positivity_violation(a)
        assert cert is not None and cert.gap == pytest.approx(gap, rel=1e-6)
        monkeypatch.setattr(search, "_RANDOM_STARTS", 0)
        assert find_positivity_violation(a) is None

    def test_random_rows_beside_more_seeds_than_starts(self):
        # every pair of an all-positive n = 16 map has a seed: 240 of them
        a = validate_coefficients(0.5 + np.random.default_rng(16).random((16, 16)))
        seeds = search._pair_seeds(a)
        assert len(seeds) == 240
        rows = search._start_points(a)
        assert len(rows) == len(seeds) + 16
        assert np.array_equal(rows[: len(seeds)], seeds)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_every_seed_then_sixteen_random_rows(self, n):
        a = validate_coefficients(0.5 + np.random.default_rng(n).random((n, n)))
        seeds = search._pair_seeds(a)
        rows = search._start_points(a)
        assert len(rows) == len(seeds) + 16
        assert np.array_equal(rows[: len(seeds)], seeds)
        assert np.array_equal(rows, search._start_points(a))

    @pytest.mark.parametrize("seeded", [True, False], ids=["with-seeds", "random-rows-only"])
    def test_same_rows_after_a_caller_writes_into_them(self, seeded):
        # the random rows are drawn once per side n; each call returns a new, writable array
        raw = 0.5 + np.random.default_rng(5).random((5, 5)) if seeded else np.eye(5)
        a = validate_coefficients(raw)
        first = search._start_points(a)
        want = first.copy()
        first[:] = 7.0
        assert np.array_equal(search._start_points(a), want)
        assert np.array_equal(want[-16:], search._start_points(validate_coefficients(np.eye(5))))


class TestPairSeeds:
    """The pair seeds in one numpy expression are the loop's, up to the rounding of each norm."""

    def test_matches_the_loop(self):
        # np.linalg.norm of one seed runs a BLAS dot, which may fuse 1 + t t into one
        # rounding; sqrt(1 + t * t) rounds t t first: at most an ulp in the norm, so two
        # in each entry after the division
        rng = np.random.default_rng(50)
        wide = [
            10.0 ** rng.uniform(-50, 50, (n, n)) * (rng.random((n, n)) > 0.2) for n in range(2, 17)
        ]
        arrays = [raw for _, raw in corpus.corpus() if not isinstance(raw, str)] + wide
        differ = 0
        for raw in arrays:
            a = validate_coefficients(raw)
            got, want = search._pair_seeds(a), loop_pair_seeds(a)
            assert got.shape == want.shape, raw.tolist()
            assert np.array_equal(got == 0.0, want == 0.0), raw.tolist()  # the same pairs, in order
            np.testing.assert_array_max_ulp(got, want, maxulp=2)
            differ += not np.array_equal(got, want)
        assert differ < len(arrays) // 2


class TestCertifiedExit:
    """find_positivity_violation returns None at entry on an exactly decomposed map."""

    def test_full_descent_agrees_on_certified_maps(self, monkeypatch):
        rng = np.random.default_rng(707)
        maps = []
        while len(maps) < 100:
            n = int(rng.integers(2, 9))
            raw = rng.random((n, n)) * 1.5
            np.fill_diagonal(raw, rng.uniform(0.3, n - 1, n))
            a = validate_coefficients(raw)
            if a.decomposition_verified:
                maps.append(a)
        # a property outranks the verdict each map has cached
        monkeypatch.setattr(CoefficientMatrix, "decomposition_verified", property(lambda _: False))
        for a in maps:
            assert find_positivity_violation(a) is None, a.a.tolist()

    def test_certified_map_runs_no_iteration(self, monkeypatch):
        monkeypatch.setattr(search, "_project_unit_nonneg", None)  # a call would raise
        assert ALL_ONES.decomposition_verified
        assert find_positivity_violation(ALL_ONES) is None

    def test_choi_map_still_searches(self, monkeypatch):
        # positive, but T = 2 I - J is indefinite, so no certificate ends the search
        calls = _count_projections(monkeypatch)
        assert not CHOI.decomposition_verified
        assert find_positivity_violation(CHOI) is None
        assert len(calls) > 0


def _count_projections(monkeypatch):
    """Record each call of the search's projection, one per descent step."""
    calls = []
    project = search._project_unit_nonneg

    def counting(mat, fallback):
        calls.append(1)
        return project(mat, fallback)

    monkeypatch.setattr(search, "_project_unit_nonneg", counting)
    return calls


def _count_rows(monkeypatch):
    """Record the number of q rows of each eigensolve of the violation search."""
    rows = []
    eliminate = search._eliminate_p

    def counting(w, Q):
        rows.append(Q.shape[0])
        return eliminate(w, Q)

    monkeypatch.setattr(search, "_eliminate_p", counting)
    return rows


def full_descent(A):
    """The violation search with no early stop: every start runs to its own stop.

    find_positivity_violation step for step, except that the descent ends
    only once every start has stopped or after _MAX_ITERATIONS.  Returns
    (crossing, found): crossing is a copy of q at the least (value, start)
    row of the first evaluation where that row's value and direct gap are
    below -TOL, or None; found tells whether the direct gap at the least
    final (value, start) is below -TOL, the verdict of a search that
    returns only at the end.
    """
    if A.decomposition_verified:
        return None, False
    w = A.a + np.eye(A.n)
    Q = search._start_points(A)
    G, P, grad = search._eliminate_p(w, Q)
    step = np.full(len(Q), 0.25)
    active = np.ones(len(Q), dtype=bool)
    run = np.flatnonzero(active)  # the starts of the latest evaluation
    crossing = None
    for steps in range(_MAX_ITERATIONS + 1):
        low = run[int(np.argmin(G[run]))]
        if crossing is None and G[low] < -TOL and positivity_gap(A, P[low], Q[low]) < -TOL:
            crossing = Q[low].copy()
        run = np.flatnonzero(active)
        if steps == _MAX_ITERATIONS or not run.size:
            break
        newQ = search._project_unit_nonneg(Q[run] - step[run, None] * grad[run], Q[run])
        newG, newP, newGrad = search._eliminate_p(w, newQ)
        improved = newG < G[run]
        step[run] = search._next_step(step[run], improved, newQ - Q[run], newGrad - grad[run])
        won = run[improved]
        gain = G[won] - newG[improved]
        Q[won], P[won], grad[won] = newQ[improved], newP[improved], newGrad[improved]
        G[won] = newG[improved]
        active[won[gain < _STEP_TOLERANCE]] = False
        reach = np.abs(search._tangent_gradient(Q[run], grad[run])).max(axis=1)
        over = reach > 2.0 / step[run]
        step[run[over]] = 2.0 / reach[over]
        active[run] &= step[run] * reach > search._UNIT_ROUNDING
    best = int(np.argmin(G))
    return crossing, positivity_gap(A, P[best], Q[best]) < -TOL


class TestEarlyStop:
    """The violation search returns at the first evaluation that crosses below -tolerance."""

    def test_creeping_start_no_longer_runs_to_max_iterations(self, monkeypatch):
        # here the least gap -0.01864 lies on the face q_3 = 0, which some
        # starts approach so slowly that they are still moving at the cap
        a = validate_coefficients(
            [[0.403, 0.081, 0.694], [0.966, 1.1, 0.686], [0.513, 1.294, 1.503]]
        )
        calls = _count_projections(monkeypatch)
        early = find_positivity_violation(a)
        assert not calls  # a start crosses at the entry evaluation
        calls.clear()
        crossing, found = full_descent(a)
        assert len(calls) == _MAX_ITERATIONS  # one projection per step
        assert found and early.q.tobytes() == crossing.tobytes() and early.gap < -TOL

    def test_agrees_with_the_full_descent(self):
        rng = np.random.default_rng(515)
        maps = [validate_coefficients(1.5 * rng.random((n, n))) for n in rng.integers(2, 7, 40)]
        early = [find_positivity_violation(a) for a in maps]
        full = [full_descent(a) for a in maps]
        assert sum(found for _, found in full) >= 20
        for a, e, (crossing, found) in zip(maps, early, full):
            assert (e is None) == (not found) == (crossing is None), a.a.tolist()
            if e is not None:
                assert e.q.tobytes() == crossing.tobytes(), a.a.tolist()

    @pytest.mark.parametrize(
        "name,winner", [("ckl(0.25,1.5,0.25)", 0), ("ckl(0.25,0.25,2)", 1)]
    )
    def test_least_start_wins_a_tie_at_the_crossing(self, name, winner):
        # with b, c > 0 the seeds of (i, j) and (j, i) point the same way, so
        # several seeds cross below -tolerance at entry with one value
        a = validate_coefficients(dict(corpus._ckl_grid())[name])
        rows = search._start_points(a)
        values = search._eliminate_p(a.a + np.eye(3), rows)[0]
        tied = np.flatnonzero(values == values.min())
        assert len(tied) > 1 and tied[0] == winner and values.min() < -TOL
        cert = find_positivity_violation(a)
        expected = masked_violation_search(a)
        assert cert.q.tobytes() == rows[winner].tobytes() == expected.q.tobytes()
        assert cert.p.tobytes() == expected.p.tobytes() and cert.gap == expected.gap


class TestCrossingWork:
    """A certificate in hand ends the search; where none crosses, the full stop rule runs."""

    @pytest.mark.parametrize("name", ["sparse99", "rand39"])
    def test_creeping_maps_end_at_their_first_crossing(self, monkeypatch, name):
        # their lowest starts creep with gains just above _STEP_TOLERANCE; a search
        # that returned only once the lowest value had stopped took 2001 and 1296
        # eigensolves, although a start was below -TOL from the first of them
        rows = _count_rows(monkeypatch)
        a = validate_coefficients(dict(corpus.corpus())[name])
        cert = find_positivity_violation(a)
        assert cert is not None and positivity_gap(a, cert.p, cert.q) == cert.gap < -TOL
        assert len(rows) <= 5

    @pytest.mark.parametrize(
        "name,calls,rows",
        [
            ("gchoi4(d=2.375)", 14, 90),
            ("gchoi5(d=3.375)", 7, 88),
            ("gchoi6(d=4.375)", 16, 91),
            ("gchoi7(d=5.375)", 5, 80),
            ("gchoi8(d=6.375)", 6, 82),
            ("bias55", 54, 517),
            ("ckl(0.75,1.25,0.25)", 23, 269),
        ],
    )
    def test_same_eigensolves_where_nothing_crosses(self, monkeypatch, name, calls, rows):
        # positive maps that T does not certify: every start runs to its own stop
        solved = _count_rows(monkeypatch)
        a = validate_coefficients(dict(corpus.corpus())[name])
        assert not a.decomposition_verified
        assert find_positivity_violation(a) is None
        assert (len(solved), sum(solved)) == (calls, rows)


def _descent_inputs():
    """Maps that reach the violation descent, by name.

    Seeded sparse maps at n = 2..16, each with a zero row, beside denser
    ones whose trial points sometimes clamp to zero, so that the
    projection's dead-row fallback runs; the constant cyclic grid points
    that T does not certify, (0.75, 1.25, 0.25) among them, where the 22
    starts leave one by one over 22 steps; the generalized Choi maps of
    the corpus, n = 3..8; and the CI map ``long-descent``.
    """
    rng = np.random.default_rng(1)
    for n in range(2, 17):
        raw = 1.5 * rng.random((n, n)) * (rng.random((n, n)) > 0.3)
        raw[rng.integers(n)] = 0.0
        yield f"zero-row{n}", raw
        raw = 2.0 * rng.random((n, n)) * (rng.random((n, n)) > 0.1)
        np.fill_diagonal(raw, rng.uniform(0.3, n - 1, n))
        yield f"dense{n}", raw
    for name, raw in corpus._ckl_grid():
        if not validate_coefficients(raw).decomposition_verified:
            yield name, raw
    yield from corpus._gchoi()
    yield "long-descent", np.array([[0, 1, 1e-13], [0, 0, 1e-13], [1, 0, 0]])


class TestCompactDescent:
    """The descent on the moving rows alone is the masked loop over every start, bit for bit.

    Both return at the same crossing, with the same certificate, after
    the same eigensolves; on the maps where no start crosses they run
    to the same stop.
    """

    def test_matches_the_masked_loop(self, monkeypatch):
        rows = _count_rows(monkeypatch)
        dead = []
        project = search._project_unit_nonneg

        def counting(mat, fallback):
            dead.append(int(np.sum(np.maximum(mat, 0.0).max(axis=1) <= 0.0)))
            return project(mat, fallback)

        monkeypatch.setattr(search, "_project_unit_nonneg", counting)
        names, found, late = set(), 0, 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, raw in _descent_inputs():
                a = validate_coefficients(raw)
                rows.clear()
                cert = find_positivity_violation(a)
                compact_rows = list(rows)
                rows.clear()
                expected = masked_violation_search(a)
                assert compact_rows == rows, name
                assert (cert is None) == (expected is None), name
                if cert is not None:
                    found += 1
                    late += len(compact_rows) > 1  # crossed after the entry evaluation
                    assert cert.p.tobytes() == expected.p.tobytes(), name
                    assert cert.q.tobytes() == expected.q.tobytes(), name
                    assert cert.gap.hex() == expected.gap.hex(), name
                    assert cert.residual_check.hex() == expected.residual_check.hex(), name
                names.add(name)
        assert {"ckl(0.75,1.25,0.25)", "long-descent", "zero-row16", "gchoi8(d=6)"} <= names
        assert sum(dead) > 0  # the fallback ran
        assert 0 < late < found < len(names)


def _gap_matrix(w, q):
    """M(q) = diag((A + I) q^2) - q q^T, whose quadratic form in p is the gap."""
    return np.diag(w @ q ** 2) - np.outer(q, q)


def _sparse_pairs(count=2000):
    """Seeded (A, unit q >= 0) pairs, both with about 30 % zero entries."""
    rng = np.random.default_rng(2718)
    for _ in range(count):
        n = int(rng.integers(2, 9))
        raw = 2.0 * rng.random((n, n)) * (rng.random((n, n)) > 0.3)
        q = rng.random(n) * (rng.random(n) > 0.3)
        q[rng.integers(n)] += 0.1
        yield validate_coefficients(raw), q / np.linalg.norm(q)


class TestExactP:
    """For fixed q the violation search takes the least gap over p in closed form."""

    def test_least_eigenvalue_is_the_least_gap(self):
        rng = np.random.default_rng(31)
        for a, q in _sparse_pairs():
            w = a.a + np.eye(a.n)
            lam, p, _ = search._eliminate_p(w, q[None])
            lam, p = lam[0], p[0]
            m = _gap_matrix(w, q)
            scale = max(1.0, float(np.abs(m).max()))
            assert np.min(p) >= 0.0 and abs(np.linalg.norm(p) - 1.0) < 1e-12
            assert abs(positivity_gap(a, p, q) - lam) <= 1e-12 * scale
            assert np.linalg.norm(m @ p - lam * p) <= 1e-12 * scale  # |v_min| is an eigenvector
            # no nonnegative p does better: random ones, sparse ones and ones near |v_min|
            samples = np.vstack(
                [
                    rng.random((4, a.n)),
                    rng.random((4, a.n)) * (rng.random((4, a.n)) > 0.5),
                    np.maximum(p + 0.01 * rng.standard_normal((4, a.n)), 0.0),
                ]
            )
            for s in samples[np.linalg.norm(samples, axis=1) > 0.0]:
                s = s / np.linalg.norm(s)
                assert positivity_gap(a, s, q) >= lam - 1e-12 * scale

    def test_envelope_gradient_matches_central_differences(self):
        h = 1e-6
        checked = 0
        for a, q in _sparse_pairs():
            w = a.a + np.eye(a.n)
            values = np.linalg.eigvalsh(_gap_matrix(w, q))
            scale = max(1.0, float(np.abs(_gap_matrix(w, q)).max()))
            if values[1] - values[0] < 1e-2 * scale:
                continue  # lambda_min is not simple enough to differentiate numerically
            _, _, grad = search._eliminate_p(w, q[None])
            step = h * np.eye(a.n)
            central = [
                (np.linalg.eigvalsh(_gap_matrix(w, q + e))[0]
                 - np.linalg.eigvalsh(_gap_matrix(w, q - e))[0]) / (2 * h)
                for e in step
            ]
            np.testing.assert_allclose(grad[0], central, rtol=0, atol=1e-7 * scale)
            checked += 1
        assert checked > 1000

    @pytest.mark.parametrize("n", range(4, 9))
    def test_generalized_choi_search_ends_quickly(self, n, monkeypatch):
        # positive and not certified by T, so no early exit or early stop
        # applies: every start must converge by its own stop rule
        a = validate_coefficients(_generalized_choi(n))
        assert not a.decomposition_verified
        calls = _count_projections(monkeypatch)
        rows = _count_rows(monkeypatch)
        assert find_positivity_violation(a) is None
        assert len(calls) < 300
        # most starts reach a face of the orthant at gap 0 within a few
        # steps, where their projected gradient vanishes; an absolute step
        # floor had them solve 2267-3401 rows here
        assert sum(rows) <= 1000


def floor_descent(A):
    """The violation search with an absolute step floor as its stop.

    find_positivity_violation step for step, except that a start stops
    only on a small gain or once its step falls to _STEP_FLOOR, however
    little that step still moves q.  Returns the direct gap at the first
    evaluation whose least (value, start) row crosses below -TOL, or None.
    """
    if A.decomposition_verified:
        return None
    w = A.a + np.eye(A.n)
    Q = search._start_points(A)
    G, P, grad = search._eliminate_p(w, Q)
    step = np.full(len(Q), 0.25)
    active = np.ones(len(Q), dtype=bool)
    run = np.flatnonzero(active)  # the starts of the latest evaluation
    for steps in range(_MAX_ITERATIONS + 1):
        low = run[int(np.argmin(G[run]))]
        gap = positivity_gap(A, P[low], Q[low]) if G[low] < -TOL else 0.0
        if gap < -TOL:
            return gap
        run = np.flatnonzero(active)
        if steps == _MAX_ITERATIONS or not run.size:
            return None
        newQ = search._project_unit_nonneg(Q[run] - step[run, None] * grad[run], Q[run])
        newG, newP, newGrad = search._eliminate_p(w, newQ)
        improved = newG < G[run]
        step[run] = search._next_step(step[run], improved, newQ - Q[run], newGrad - grad[run])
        won = run[improved]
        gain = G[won] - newG[improved]
        Q[won], P[won], grad[won] = newQ[improved], newP[improved], newGrad[improved]
        G[won] = newG[improved]
        active[won[gain < _STEP_TOLERANCE]] = False
        reach = np.abs(search._tangent_gradient(Q[run], grad[run])).max(axis=1)
        over = reach > 2.0 / step[run]
        step[run[over]] = 2.0 / reach[over]
        active &= step > _STEP_FLOOR


def _stop_rule_corpus():
    rng = np.random.default_rng(1987)
    maps = [rng.random((n, n)) * 1.5 for n in rng.integers(2, 9, 40)]
    grid = np.arange(13) * 0.25
    maps += [
        constant_ckl_matrix(CklParams(a, b, c)).a
        for a in grid for b in grid for c in grid
        if max(a - 2, min(a + b + c - 2, a + np.sqrt(b * c) - 1)) < 0
    ]
    return maps + [_generalized_choi(n) for n in range(4, 9)]


class TestStationarityStop:
    """A start stops once its step can move the unit vector q by no more than rounding."""

    def test_tangent_gradient_drops_what_the_projection_undoes(self):
        q = np.array([[0.6, 0.8, 0.0, 0.0]])
        radial = 3.0 * q
        assert np.abs(search._tangent_gradient(q, radial)).max() <= 1e-15
        tangent = np.array([[0.8, -0.6, 0.0, 0.0]])
        np.testing.assert_allclose(search._tangent_gradient(q, tangent + radial), tangent)
        # where q_i = 0 the gradient is -2 (p.q) p_i <= 0, so no step pushes q_i
        # below zero and the clamp of the projection undoes nothing more
        zeros = 0
        for a, q in _sparse_pairs():
            _, _, grad = search._eliminate_p(a.a + np.eye(a.n), q[None])
            assert np.all(grad[0][q == 0.0] <= 0.0), (a.a.tolist(), q.tolist())
            zeros += int(np.sum(q == 0.0))
        assert zeros > 1000

    def test_agrees_with_the_floor_descent(self):
        maps = _stop_rule_corpus()
        found = 0
        for raw in maps:
            a = validate_coefficients(raw)
            expected = floor_descent(a)
            cert = find_positivity_violation(a)
            assert (cert is None) == (expected is None), raw.tolist()
            if cert is not None:
                found += 1
                assert cert.gap == expected, raw.tolist()  # both cross at the same evaluation
        assert found >= 150


EXTREME_ENTRIES = st.just(0.0) | st.floats(min_value=1e-50, max_value=1e50)


class TestTwoPointStep:
    """After an improving trial a start takes the two-point step s.s / s.y."""

    @pytest.mark.parametrize("name,most", [("bias55", 200), ("ckl(0.75,1.25,0.25)", 60)])
    def test_slow_movers_end_in_few_steps(self, monkeypatch, name, most):
        # positive maps that T does not certify, so every start runs to its own
        # stop: 1955 and 208 eigensolves under a step that grew by 1.25 per move
        rows = _count_rows(monkeypatch)
        a = validate_coefficients(dict(corpus.corpus())[name])
        assert find_positivity_violation(a) is None
        assert len(rows) < most

    def test_rule(self):
        step = np.array([1.0, 1.0, 1.0, 1.0, 1.0])
        improved = np.array([True, True, True, True, False])
        s = np.array([[0.6, 0.0], [0.01, 0.0], [0.5, 0.0], [0.5, 0.0], [0.5, 0.0]])
        y = np.array([[0.3, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        # 0.36 / 0.18 = 2; 1e-4 / 1e-2 is below half the step; no curvature grows; rejected halves
        assert search._next_step(step, improved, s, y).tolist() == [2.0, 0.5, 1.25, 1.25, 0.5]

    @pytest.mark.filterwarnings("error")
    def test_underflowing_curvature_grows_the_step(self):
        # s.y underflows to 0 or to a subnormal, where s.s / s.y would be inf or
        # overflow; the least normal s.y still gives a finite quotient
        s = np.array([[1e-200, 0.0], [0.5, 0.0], [0.5, 0.0]])
        y = np.array([[1e-200, 0.0], [1e-310, 0.0], [4.5e-308, 0.0]])
        got = search._next_step(np.ones(3), np.ones(3, dtype=bool), s, y)
        assert got.tolist() == [1.25, 1.25, 0.25 / (0.5 * 4.5e-308)]

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=150, deadline=None)
    @given(st.lists(EXTREME_ENTRIES, min_size=9, max_size=9))
    def test_no_warning_over_the_coefficient_range(self, entries):
        # any inf, NaN or overflow in the step, its cap or the stop rule raises here
        a = validate_coefficients(np.reshape(entries, (3, 3)))
        cert = find_positivity_violation(a)
        if cert is not None:
            assert positivity_gap(a, cert.p, cert.q) < -TOL and math.isfinite(cert.residual_check)


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
        flag, _ = is_psd(check.image, tol=1e-9)
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
        # the search returns its first certificate, not the least gap, so only the
        # sign is compared: where it finds none, no sample goes below -TOL.  Three
        # draws, each refuted, then the positive Choi map, which T does not certify
        rng = np.random.default_rng(29)
        for k in range(4):
            a = CHOI if k == 3 else validate_coefficients(rng.random((3, 3)) * 1.5)
            c = choi_matrix(a)
            cert = find_positivity_violation(a)
            assert (cert is None) == (k == 3)
            sample_min = np.inf
            for _ in range(10_000):
                xi = rng.normal(size=3) + 1j * rng.normal(size=3)
                eta = rng.normal(size=3) + 1j * rng.normal(size=3)
                xi /= np.linalg.norm(xi)
                eta /= np.linalg.norm(eta)
                sample_min = min(sample_min, block_positivity_value(c, xi, eta))
            if cert is None:
                assert sample_min >= -TOL
            else:
                assert cert.gap < -TOL

    def test_dimension_check(self):
        with pytest.raises(ValueError, match="dimension"):
            block_positivity_value(np.eye(9), np.ones(2), np.ones(3))


class TestStructuredValue:
    def test_identity_profile(self):
        rng = np.random.default_rng(31)
        a = validate_coefficients(rng.random((3, 3)) * 2)
        assert pairing(a, np.eye(3)) == pytest.approx(float(np.trace(a.a)), abs=1e-14)

    def test_choi_free_position_profile(self):
        alpha = np.array([[1, 0.25, 4], [4, 1, 0.25], [0.25, 4, 1]])
        assert pairing(CHOI, alpha) == pytest.approx(-2.25, abs=1e-12)
        r = maximal_cross_terms(alpha)
        rho = assemble_structured_state(alpha, r)
        assert np.allclose(
            np.real(np.diag(rho)), [1, 0.25, 4, 4, 1, 0.25, 0.25, 4, 1], atol=1e-15
        )
        assert np.allclose(r[np.triu_indices(3, 1)], 1.0, atol=1e-15)
        trace_val = float(np.trace(rho @ choi_matrix(CHOI)).real)
        assert abs(trace_val + 2.25) < 1e-10
        assert is_psd(rho, tol=1e-9)[0]
        assert is_psd(partial_transpose(rho, 3), tol=1e-9)[0]

    def test_matches_assembled_trace_on_random_profiles(self):
        # the closed form quoted by CoefficientMatrix.structured_floor: the diagonal
        # profile pays sum_{i,k} a_ki alpha_ik and each pair adds
        # -2 min(sqrt(alpha_ii alpha_jj), sqrt(alpha_ij alpha_ji))
        rng = np.random.default_rng(37)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            a = validate_coefficients(rng.random((n, n)) * 2)
            alpha = rng.random((n, n))
            closed = float(np.sum(a.a.T * alpha)) - 2.0 * float(np.sum(maximal_cross_terms(alpha)))
            assert abs(closed - pairing(a, alpha)) < 1e-10

    def test_nonnegative_for_decomposable_family(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            alpha = rng.random((3, 3))
            assert pairing(ALL_ONES, alpha) >= -1e-12

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

    def test_closed_form_shrink_matches_bisection_oracle(self):
        # t_closed is the exact boundary of D + t S >= 0; the bisection
        # oracle accepts anything within its 1e-12 * scale tolerance and
        # stops at most 2^-40 short of that, so it may stop above t_closed,
        # and below it by no more than its resolution
        rng = np.random.default_rng(2718)
        shrunk = 0
        for _ in range(3000):
            n = int(rng.integers(2, 9))
            alpha = rng.random((n, n))
            alpha[rng.random((n, n)) < 0.2] = 0.0
            r = maximal_cross_terms(alpha)
            t_bisect = bisection_cross_terms(alpha, r)
            scaled, t_closed = psd_feasible_cross_terms(alpha, r)
            assert np.array_equal(scaled, t_closed * r)
            d, sym = np.diag(np.diag(alpha)), r + r.T
            scale = max(1.0, float(np.max(d)), float(np.max(sym)))
            low = np.linalg.eigvalsh(d + t_closed * sym)[0]
            assert low >= -1e-12 * scale
            assert t_closed <= t_bisect + 2.0 ** -40
            if t_closed < 1.0:
                shrunk += 1
                assert low <= 1e-12 * scale  # singular: on the boundary itself
            # a larger gap is the oracle's own tolerance: it accepted a
            # matrix that is not PSD beyond rounding
            if t_closed < t_bisect - 1e-8:
                assert np.linalg.eigvalsh(d + t_bisect * sym)[0] < -1e-13 * scale
        assert shrunk >= 1000


class TestIndecomposabilityProbe:
    def test_choi_witness(self):
        cert = indecomposability_probe(CHOI)
        assert cert is not None
        assert cert.normalized_value <= -1 / 7 + 1e-6
        rho = assemble_structured_state(cert.alpha, cert.r)
        assert is_psd(rho, tol=1e-9)[0]
        assert is_psd(partial_transpose(rho, 3), tol=1e-9)[0]
        direct = float(np.trace(rho @ choi_matrix(CHOI)).real)
        assert abs(direct - cert.trace_value) < 1e-10
        assert cert.trace_value < -1e-9

    def test_cross_term_caps(self):
        cert = indecomposability_probe(CHOI)
        alpha, r = cert.alpha, cert.r
        for i in range(3):
            for j in range(i + 1, 3):
                assert r[i, j] ** 2 <= alpha[i, i] * alpha[j, j] + 1e-12
                assert r[i, j] ** 2 <= alpha[i, j] * alpha[j, i] + 1e-12

    def test_decomposable_map_yields_none(self):
        assert indecomposability_probe(ALL_ONES) is None

    def test_kye_boundary_witness(self):
        a = kye_matrix(KyeParams(1, 1, 1, 1))
        cert = indecomposability_probe(a)
        assert cert is not None and cert.trace_value < -1e-9

    def test_zero_b_family_witnesses_along_boundary(self):
        # the zero-b maps on c^3 = (2-a)^3 are positive and indecomposable;
        # the probe confirms the latter numerically across the family
        for a_val in (1.0, 1.25, 1.5):
            c = 2.0 - a_val
            cert = indecomposability_probe(kye_matrix(KyeParams(a_val, c, c, c)))
            assert cert is not None and cert.normalized_value < -1e-9

    def test_repeated_calls_agree(self):
        c1 = indecomposability_probe(CHOI)
        c2 = indecomposability_probe(CHOI)
        assert c1.trace_value == c2.trace_value
        assert np.array_equal(c1.alpha, c2.alpha)



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


# Positive constant cyclic points without a structured witness, on which the
# probe returns None at entry.
NO_WITNESS_CKL = (
    (3.0, 0.0, 1.75), (1.75, 2.25, 0.75), (1.0, 1.75, 2.5), (1.75, 2.5, 0.75),
    (0.0, 1.5, 2.75), (1.75, 0.5, 3.0), (1.5, 2.0, 1.25), (2.25, 0.25, 2.75),
    (0.25, 1.25, 1.25), (0.5, 1.75, 1.75), (2.0, 3.0, 0.0), (1.25, 1.25, 1.75),
    (0.75, 1.25, 1.25), (3.0, 2.75, 0.75), (2.25, 0.75, 1.25),
    (1.0, 2.25, 0.5), (1.0, 2.75, 0.5), (1.25, 0.5, 2.75),
    (1.0, 0.75, 1.0), (0.5, 0.25, 2.75), (0.5, 0.5, 1.75), (0.5, 0.75, 0.75),
)
# Constant cyclic points just past the boundary 4bc = (2 - a)^2, where
# lambda_min(T) is -0.018, -0.025 and -0.043 and the probe finds a witness.
NEAR_BOUNDARY_CKL = ((0.25, 1.0, 0.75), (0.75, 0.75, 0.5), (1.25, 0.5, 0.25))


def _probe_corpus():
    rng = np.random.default_rng(5)
    cases = [("choi", CHOI.a)]
    cases += [(f"gchoi-{n}", _generalized_choi(n)) for n in range(4, 9)]
    cases += [(f"sufficient-{n}", _pairwise_sufficient_draw(n, rng)) for n in range(5, 9)]
    cases += [(f"random-{n}", rng.random((n, n)) * 1.5) for n in range(2, 9)]
    cases += [
        ("ckl-{}-{}-{}".format(*p), constant_ckl_matrix(CklParams(*p)).a)
        for p in NO_WITNESS_CKL + NEAR_BOUNDARY_CKL
    ]
    return cases


@pytest.mark.parametrize("seed", [7, 42])
@pytest.mark.parametrize("name,raw", _probe_corpus(), ids=[c[0] for c in _probe_corpus()])
def test_probe_matches_pair_loop_bit_for_bit(name, raw, seed):
    # a superset check, whatever the name says: the probe must find a witness
    # wherever the multi-start descent does, and one at least as good
    a = validate_coefficients(raw)
    expected = descent_probe(a, seed)
    got = indecomposability_probe(a)
    if expected is not None:
        assert got is not None
        assert got.normalized_value <= expected.normalized_value + 1e-12


KYE_BOUNDARY = (0.5, 1.0, 1.25, 1.5)  # a on the zero-b boundary c = 2 - a


def _simplex_point(rng, n):
    x = rng.random((n, n)) * (rng.random((n, n)) > 0.3)  # about 30 % zero entries
    x[rng.integers(n), rng.integers(n)] += 0.1
    return x / x.sum()


WITNESS_MAPS = (
    [("choi", CHOI.a)]
    + [(f"gchoi-{n}", _generalized_choi(n)) for n in range(4, 9)]
    + [(f"kye-{a}", kye_matrix(KyeParams(a, 2.0 - a, 2.0 - a, 2.0 - a)).a) for a in KYE_BOUNDARY]
    + [("ckl-{}-{}-{}".format(*p), constant_ckl_matrix(CklParams(*p)).a) for p in NEAR_BOUNDARY_CKL]
)


class TestGradientBound:
    """The probe's lower bound on the structured family, lambda_min(T[K])."""

    @pytest.mark.parametrize(
        "raw",
        [CHOI.a]
        + [_generalized_choi(n) for n in range(4, 9)]
        + [kye_matrix(KyeParams(a, 2.0 - a, 2.0 - a, 2.0 - a)).a for a in KYE_BOUNDARY],
        ids=["choi"] + [f"gchoi-{n}" for n in range(4, 9)] + [f"kye-{a}" for a in KYE_BOUNDARY],
    )
    def test_never_fires_when_a_witness_exists(self, raw, monkeypatch):
        # every bound the probe computes, on A and on each pruned A[K, K],
        # stays below -violation_tolerance, so its early exit never fires
        bounds = []
        floor_of = CoefficientMatrix.structured_floor.func

        def recording(sub):
            bounds.append(floor_of(sub))
            return bounds[-1]

        monkeypatch.setattr(CoefficientMatrix, "structured_floor", property(recording))
        a = validate_coefficients(raw)
        assert indecomposability_probe(a) is not None
        assert bounds and max(bounds) <= -TOL


class TestStructuredFloor:
    """lambda_min(T) decides whether the structured family holds a witness."""

    def test_floor_is_a_minorant(self):
        # Tr(rho C) >= lambda_min(T) sum_i alpha_ii; the slack covers rounding only
        rng = np.random.default_rng(2015)
        for _ in range(3000):
            n = int(rng.integers(2, 9))
            raw = rng.random((n, n)) * rng.choice([0.5, 1.5, 4.0]) * (rng.random((n, n)) > 0.2)
            a = validate_coefficients(raw)
            alpha = _simplex_point(rng, n)
            floor = a.structured_floor * float(np.trace(alpha))
            assert pairing(a, alpha) >= floor - 1e-12

    def test_eigenvector_profile_attains_the_floor(self):
        # the converse: with every a_ij > 0 the profile built from a nonnegative
        # lambda_min eigenvector of T has value lambda_min(T) |x|^2
        rng = np.random.default_rng(2016)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            raw = rng.random((n, n)) * rng.choice([0.5, 1.5]) + 0.01
            a = validate_coefficients(raw)
            mu = np.maximum(0.0, 1.0 - np.sqrt(raw * raw.T))
            t = -mu
            np.fill_diagonal(t, np.diag(raw))
            lam, vecs = np.linalg.eigh(t)
            x = np.abs(vecs[:, 0])
            alpha = np.diag(x**2)
            for i, j in zip(*np.nonzero(np.triu(mu, 1))):
                # alpha_ij alpha_ji = x_i^2 x_j^2 with alpha_ij : alpha_ji = a_ij : a_ji
                ratio = np.sqrt(raw[i, j] / raw[j, i])
                alpha[i, j], alpha[j, i] = x[i] * x[j] * ratio, x[i] * x[j] / ratio
            assert lam[0] == pytest.approx(a.structured_floor, abs=1e-12)
            assert pairing(a, alpha) == pytest.approx(lam[0], abs=1e-12)

    def test_ckl_grid_matches_the_decomposability_boundary(self):
        values = np.arange(0.0, 3.0001, 0.25)
        tested = 0
        for a_val in values:
            for b in values:
                for c in values:
                    if abs(4 * b * c - (2 - a_val) ** 2) < 1e-9:
                        continue
                    tested += 1
                    floor = constant_ckl_matrix(CklParams(a_val, b, c)).structured_floor
                    assert floor == pytest.approx(
                        a_val - 2 * max(0.0, 1 - np.sqrt(b * c)), abs=1e-12
                    )
                    decomposable = a_val >= 2 or 4 * b * c >= (2 - a_val) ** 2
                    assert (floor >= 0) == decomposable, (a_val, b, c, floor)
        assert tested == 2158

    @pytest.mark.parametrize("raw", [m[1] for m in WITNESS_MAPS], ids=[m[0] for m in WITNESS_MAPS])
    def test_negative_when_a_witness_exists(self, raw):
        a = validate_coefficients(raw)
        assert a.structured_floor < -TOL
        assert indecomposability_probe(a) is not None


def _verified(a, cert):
    """The witness state is PSD with a PSD partial transpose and pairs below -1e-9."""
    rho = assemble_structured_state(cert.alpha, cert.r)
    assert np.linalg.eigvalsh(rho)[0] >= -1e-12
    assert np.linalg.eigvalsh(partial_transpose(rho, a.n))[0] >= -1e-12
    direct = float(np.trace(rho @ choi_matrix(a)).real)
    assert direct == pytest.approx(cert.trace_value, abs=1e-12) and direct < -1e-9
    total = float(np.trace(rho).real)
    assert cert.normalized_value == pytest.approx(direct / total, abs=1e-15)


def _gchoi_root(n):
    """Root of d - lam = 2 (1 - sqrt(-lam (1 - lam))) + (n - 3)(1 + lam), d = n - 2 + 0.375.

    T_lam of the generalized Choi map is circulant, so its Perron vector
    is uniform and lambda_min(T_lam) is its row sum."""
    d = n - 2 + 0.375

    def row_sum(lam):
        return d - lam - 2 * (1 - np.sqrt(-lam * (1 - lam))) - (n - 3) * (1 + lam)

    lo, hi = -1.0, 0.0
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if row_sum(mid) > 0 else (lo, mid)
    return lo


# draw 125 of the recipe n = integers(2, 9), A = 1.5 random((n, n)) (random((n, n)) > 0.3),
# diagonal uniform(0, n - 1, n), from default_rng(77): at the root, index 4 has the least
# entry of the Perron vector of T_lam and no coupling to indices 0 and 2, so the probe drops it
PRUNED = validate_coefficients(
    [
        [0.9493894378757415, 1.0178690805716268, 0.0, 1.350839472011627, 1.093597973202309],
        [0.6646658961625205, 1.6774641077948549, 0.09459037429163619, 0.0, 0.693365610949823],
        [0.0, 0.2426294772752861, 3.868512141000495, 0.0, 1.4361143169790092],
        [0.0, 0.9395113696560855, 0.0, 1.4513105111433529, 0.0],
        [1.204240790262937, 0.45363348892819855, 0.6508747472424555, 1.45362147410119,
         3.863688013303761],
    ]
)


class TestClosedFormOptimum:
    """The probe returns the optimum of the structured family in closed form."""

    def test_choi_value(self):
        cert = indecomposability_probe(CHOI)
        _verified(CHOI, cert)
        assert cert.normalized_value == pytest.approx(1 - 2 / np.sqrt(3), abs=1e-12)

    @pytest.mark.parametrize(
        "n,rounded", [(4, -0.0601), (5, -0.0522), (6, -0.0463), (7, -0.0417), (8, -0.0380)]
    )
    def test_generalized_choi_value(self, n, rounded):
        a = validate_coefficients(_generalized_choi(n))
        cert = indecomposability_probe(a)
        _verified(a, cert)
        assert cert.normalized_value == pytest.approx(_gchoi_root(n), abs=1e-12)
        assert cert.normalized_value == pytest.approx(rounded, abs=5e-5)

    def test_witness_on_every_negative_ckl_point(self):
        values = np.arange(0.0, 3.0001, 0.25)
        found = 0
        for a_val in values:
            for b in values:
                for c in values:
                    a = constant_ckl_matrix(CklParams(a_val, b, c))
                    if a.structured_floor < -1e-9:
                        found += 1
                        _verified(a, indecomposability_probe(a))
        assert found == 316

    def test_root_bounds_every_profile(self):
        # Tr(rho C) - lam* Tr(rho) >= lambda_min(T_lam*) sum_i alpha_ii >= 0 for every
        # profile; the probe attains lam* when it drops no index, and after
        # dropping indices it may find a worse witness or none
        rng = np.random.default_rng(2017)
        attained = 0
        for _ in range(200):
            n = int(rng.integers(2, 7))
            a = validate_coefficients(rng.random((n, n)) * 1.5)
            floor = a.structured_floor
            if floor >= -1e-6:
                continue
            lam = _structured_root(a.a, floor)
            assert floor <= lam < 0.0
            for _ in range(20):
                alpha = _simplex_point(rng, n)
                assert pairing(a, alpha) >= lam - 1e-12
            cert = indecomposability_probe(a)
            if cert is None:
                continue
            assert cert.normalized_value >= lam - 1e-12
            if np.count_nonzero(np.diag(cert.alpha)) == n:
                attained += 1
                assert cert.normalized_value == pytest.approx(lam, abs=1e-12)
        assert attained >= 20

    def test_root_brackets_to_adjacent_floats(self, monkeypatch):
        # lambda_min(T_hi) < 0 at the returned end and >= 0 one float below it, unless
        # that float is floor; a regula falsi root takes far fewer eigensolves than the
        # 55 or so of a bisection to adjacent floats
        rng = np.random.default_rng(21)
        maps = [(n, _generalized_choi(n)) for n in range(3, 9)]
        while len(maps) < 56:
            n = int(rng.integers(2, 9))
            a = rng.random((n, n)) * 1.5 * (rng.random((n, n)) > 0.2)
            if validate_coefficients(a).structured_floor < 0.0:
                maps.append((None, a))
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(m):
            calls.append(1)
            return eigvalsh(m)

        def least(a, lam):
            return eigvalsh(structured_matrix(a - lam))[0]

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        for n, raw in maps:
            a = validate_coefficients(raw)
            floor = a.structured_floor
            calls.clear()
            hi = _structured_root(a.a, floor)
            below = math.nextafter(hi, -math.inf)
            assert least(a.a, hi) < 0.0, raw.tolist()
            assert below == floor or least(a.a, below) >= 0.0, raw.tolist()
            if n is not None and n >= 4:
                assert len(calls) < 25, (n, len(calls))

    def test_pruned_map(self):
        floor = PRUNED.structured_floor
        _, drop = search._witness_profile(PRUNED.a, _structured_root(PRUNED.a, floor))
        assert drop == 4
        cert = indecomposability_probe(PRUNED)
        _verified(PRUNED, cert)
        assert not cert.alpha[4].any() and not cert.alpha[:, 4].any()
        # descent_probe reaches only -0.0106 here
        assert cert.normalized_value == pytest.approx(-0.1137738344464334, abs=1e-12)

    @pytest.mark.parametrize(
        "raw", [CHOI.a, PRUNED.a, _generalized_choi(6)], ids=["choi", "pruned", "gchoi-6"]
    )
    def test_cross_terms_need_no_shrink(self, raw):
        cert = indecomposability_probe(validate_coefficients(raw))
        assert psd_feasible_cross_terms(cert.alpha, cert.r)[1] == 1.0

    def test_no_negative_root(self):
        # lambda_min(T) = 1e-13 passes the entry check only because the rounding
        # allowance of the 1e6 entries, 1.2e-7, exceeds the tolerance; no lam < 0
        # has lambda_min(T_lam) < 0, and the zero entries would make the profile
        # at lam = 0 infinite
        d = 2 + 1e-13
        a = validate_coefficients([[d, 0, 1e6], [1e6, d, 0], [0, 1e6, d]])
        assert 0 < a.structured_floor < MIN_TOLERANCE < structured_rounding(a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert indecomposability_probe(a, tolerance=MIN_TOLERANCE) is None


def _full_side_checks(A, alpha, r):
    """Tr(rho C) and the least eigenvalues of rho and rho^Gamma, on the n^2 x n^2 matrices."""
    rho = assemble_structured_state(alpha, r)
    return (
        float(np.trace(rho @ choi_matrix(A)).real),
        np.linalg.eigvalsh(rho)[0],
        np.linalg.eigvalsh(partial_transpose(rho, A.n))[0],
    )


class TestBlockCheck:
    """The probe's n x n and 2 x 2 block checks against the n^2-side matrices."""

    @pytest.mark.parametrize("raw", [m[1] for m in WITNESS_MAPS], ids=[m[0] for m in WITNESS_MAPS])
    def test_witness_maps(self, raw):
        a = validate_coefficients(raw)
        cert = indecomposability_probe(a)
        alpha, r = cert.alpha, cert.r
        full_side = _full_side_checks(a, alpha, r)
        assert _witness_check(a, alpha, r) == pytest.approx(full_side, abs=1e-12)
        assert cert.trace_value == pytest.approx(full_side[0], abs=1e-12)

    def test_random_states(self):
        # cross terms from zero to three times their caps, of either sign
        rng = np.random.default_rng(1009)
        negative = 0
        for _ in range(300):
            n = int(rng.integers(2, 9))
            a = validate_coefficients(2.0 * rng.random((n, n)))
            alpha = rng.random((n, n)) * (rng.random((n, n)) > 0.2)
            r = maximal_cross_terms(alpha) * rng.uniform(-3.0, 3.0, (n, n))
            full_side = _full_side_checks(a, alpha, r)
            assert _witness_check(a, alpha, r) == pytest.approx(full_side, abs=1e-12)
            negative += min(full_side[1:]) < -1e-9
        assert negative >= 100


class TestOneSidedSoundness:
    def test_no_false_certificates_on_sufficient_family(self):
        rng = np.random.default_rng(99)
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
            assert find_positivity_violation(a) is None
            assert indecomposability_probe(a) is None

    def test_certificates_found_under_violated_necessary_bound(self):
        rng = np.random.default_rng(98)
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
            cert = find_positivity_violation(validate_coefficients(raw))
            assert cert is not None and cert.gap < -1e-9


class TestN2Equivalence:
    def test_matches_closed_form_outside_margin_band(self):
        rng = np.random.default_rng(2024)
        tested = 0
        for _ in range(700):
            if tested >= 500:
                break
            raw = rng.random((2, 2)) * 2
            margin = np.sqrt(raw[0, 0] * raw[1, 1]) + np.sqrt(raw[0, 1] * raw[1, 0]) - 1
            if abs(margin) < 1e-3:
                continue
            tested += 1
            cert = find_positivity_violation(validate_coefficients(raw))
            assert (cert is None) == (margin >= 0)
        assert tested >= 500
