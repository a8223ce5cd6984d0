"""Core solver module: thresholded rank, projectors, sparse least squares."""

import itertools

import numpy as np
import pytest

import rrckit as rk
from rrckit import linalg
from rrckit.embedding import monomial_features, paired_windows
from rrckit.errors import DimensionMismatchError, RankZeroError
from testutil import (
    matrix_with_spectrum,
    residual_certificate,
    sparse_lstsq_per_pass,
    straddling_spectrum,
    tall_svd_projection,
    truncated_projector,
)


class TestRankDelta:
    def test_identity(self):
        assert rk.rank_delta(np.eye(3), 0.5) == 3

    def test_diagonal_count(self):
        assert rk.rank_delta(np.diag([3.0, 1.0, 0.2]), 0.5) == 2

    def test_transpose_invariance_random(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((8, 5))
        for delta in (1e-6, 0.1, 1.0):
            assert rk.rank_delta(A.T, delta) == rk.rank_delta(A, delta)

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(12)
        A = rng.standard_normal((10, 7))
        deltas = np.sort(rng.uniform(1e-3, 5.0, size=6))
        ranks = [rk.rank_delta(A, d) for d in deltas]
        assert all(r1 >= r2 for r1, r2 in zip(ranks, ranks[1:]))

    def test_bounded_by_exact_rank(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            m, n = rng.integers(2, 12, size=2)
            A = rng.standard_normal((m, n))
            if rng.random() < 0.5:  # force genuine rank deficiency
                k = int(rng.integers(1, min(m, n)))
                A = rng.standard_normal((m, k)) @ rng.standard_normal((k, n))
            delta = float(rng.uniform(1e-8, 1.0))
            assert rk.rank_delta(A, delta) <= np.linalg.matrix_rank(A)


class TestTruncatedProjector:
    """The dense projector the solver's residual certificate is stated with."""

    def test_full_rank_identity(self):
        Q, r, _ = truncated_projector(np.eye(2), 0.5)
        assert r == 2
        np.testing.assert_allclose(Q, np.eye(2), atol=1e-14)

    def test_diagonal_truncation(self):
        A = np.diag([3.0, 0.1])
        Q, r, _ = truncated_projector(A, 0.5)
        assert r == 1
        np.testing.assert_allclose(Q, np.diag([1.0, 0.0]), atol=1e-14)
        err = np.linalg.norm(A - Q @ A)
        assert err == pytest.approx(0.1, rel=1e-12)
        assert err <= np.sqrt(1) * 0.5

    def test_low_rank_plus_noise(self):
        rng = np.random.default_rng(21)
        B = rng.standard_normal((10, 2))
        C = rng.standard_normal((2, 4))
        A = B @ C + 1e-8 * rng.standard_normal((10, 4))
        Q, r, factors = truncated_projector(A, 1e-4)
        assert r == 2
        residual = np.linalg.norm(A - Q @ A)
        # independent oracle: the residual is the tail of the spectrum
        tail = np.sqrt(np.sum(factors.S[2:] ** 2))
        assert residual == pytest.approx(tail, rel=1e-8)
        assert residual <= np.sqrt(2) * 1e-4

    def test_projector_laws(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            m, n = rng.integers(3, 15, size=2)
            A = rng.standard_normal((m, n))
            delta = float(rng.uniform(0.05, 2.0))
            if rk.rank_delta(A, delta) == 0:
                continue
            Q, r, _ = truncated_projector(A, delta)
            assert np.linalg.norm(Q @ Q - Q) <= 1e-10
            assert np.linalg.norm(Q - Q.T) <= 1e-10
            assert np.trace(Q) == pytest.approx(r, abs=1e-8)

    def test_rank_zero_is_error(self):
        with pytest.raises(RankZeroError):
            truncated_projector(1e-3 * np.eye(2), 0.5)

    def test_svd_factor_invariants(self):
        rng = np.random.default_rng(23)
        A = rng.standard_normal((9, 6))
        _, _, f = truncated_projector(A, 1e-6)
        s1 = f.S[0]
        assert np.linalg.norm(f.U.T @ f.U - np.eye(6)) <= 1e-10 * s1
        assert np.linalg.norm(f.V @ f.V.T - np.eye(6)) <= 1e-10 * s1
        assert np.all(np.diff(f.S) <= 0) and np.all(f.S >= 0)
        np.testing.assert_allclose((f.U * f.S) @ f.V, A, atol=1e-12 * s1)


class TestSparseLstsq:
    def test_identity_exact_recovery(self):
        cfg = rk.SolverConfig(delta=1e-10, epsilon=1e-10)
        sol = rk.sparse_lstsq(np.eye(3), np.array([1.0, 0.0, 2.0]), cfg)
        np.testing.assert_allclose(sol.X.ravel(), [1.0, 0.0, 2.0], atol=1e-12)
        assert sol.nnz_per_column == [2]
        assert sol.rank == 3

    @staticmethod
    def _duplicated_pair_system():
        # 20x10, rank 6 + 1e-9 noise: columns (0,1), (2,3), (4,5), (6,7)
        # duplicated pairwise, columns 8, 9 independent.
        rng = np.random.default_rng(31)
        base = rng.standard_normal((20, 6))
        A = np.empty((20, 10))
        for pair, col in enumerate(range(0, 8, 2)):
            A[:, col] = base[:, pair]
            A[:, col + 1] = base[:, pair]
        A[:, 8] = base[:, 4]
        A[:, 9] = base[:, 5]
        A += 1e-9 * rng.standard_normal(A.shape)
        y = 2.0 * A[:, 0] - 3.0 * A[:, 4]
        return A, y

    def test_duplicated_columns_bound_and_support(self):
        A, y = self._duplicated_pair_system()
        cfg = rk.SolverConfig(delta=1e-6, epsilon=1e-8, max_iter=50)
        sol = rk.sparse_lstsq(A, y, cfg)
        assert sol.rank == 6
        x = sol.X[:, 0]
        assert sol.nnz_per_column[0] <= 6
        bound = residual_certificate(A, y, x, cfg.delta)
        assert sol.residual_norms[0] <= bound

    def test_duplicated_columns_exhaustive_oracle(self):
        # Enumerating every support of size <= 6 shows the certificate is
        # attainable and that the greedy solve is not beaten by more than
        # the certificate's slack.
        A, y = self._duplicated_pair_system()
        cfg = rk.SolverConfig(delta=1e-6, epsilon=1e-8, max_iter=50)
        sol = rk.sparse_lstsq(A, y, cfg)
        best = np.inf
        for size in range(1, 7):
            for support in itertools.combinations(range(10), size):
                coef = np.linalg.lstsq(A[:, support], y, rcond=None)[0]
                best = min(best, float(np.linalg.norm(A[:, support] @ coef - y)))
        bound = residual_certificate(A, y, sol.X[:, 0], cfg.delta)
        assert best <= bound
        assert best <= sol.residual_norms[0] + 1e-12

    def test_column_bounds_match_independent_svd(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            m = int(rng.integers(4, 20))
            n = int(rng.integers(4, 20))
            k = min(m, n)
            r = int(rng.integers(1, k))
            A = matrix_with_spectrum(rng, m, n, straddling_spectrum(rng, k, 1e-2, r))
            Y = rng.standard_normal((m, 3))
            cfg = rk.SolverConfig(delta=1e-2, epsilon=1e-6)
            sol = rk.sparse_lstsq(A, Y, cfg)
            expected = [
                residual_certificate(A, Y[:, j], sol.X[:, j], cfg.delta)
                for j in range(3)
            ]
            np.testing.assert_allclose(sol.column_bounds, expected, rtol=1e-12, atol=0)

    def test_near_collinear_single_support(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]])
        cfg = rk.SolverConfig(delta=1e-6, epsilon=1e-8)
        sol = rk.sparse_lstsq(A, np.array([1.0, 1.0]), cfg)
        assert sol.rank == 1
        assert sol.nnz_per_column == [1]

    def test_zero_rhs_gives_zero_solution(self):
        rng = np.random.default_rng(33)
        A = rng.standard_normal((6, 4))
        sol = rk.sparse_lstsq(A, np.zeros(6), rk.SolverConfig(delta=1e-8))
        assert np.all(sol.X == 0.0)
        assert sol.nnz_per_column == [0]

    def test_support_bound_random(self):
        rng = np.random.default_rng(34)
        for _ in range(15):
            m = int(rng.integers(4, 20))
            n = int(rng.integers(4, 20))
            k = min(m, n)
            r = int(rng.integers(1, k))
            A = matrix_with_spectrum(rng, m, n, straddling_spectrum(rng, k, 1e-2, r))
            Y = rng.standard_normal((m, 2))
            sol = rk.sparse_lstsq(A, Y, rk.SolverConfig(delta=1e-2, epsilon=1e-12))
            assert sol.rank == r
            assert max(sol.nnz_per_column) <= r

    def test_nonconvergence_is_flagged_not_raised(self):
        # First refinement moves the iterate away from the pinv start, so a
        # cap of one pass exits through the iteration limit, not convergence.
        rng = np.random.default_rng(35)
        A = rng.standard_normal((12, 8))
        y = rng.standard_normal(12)
        cfg = rk.SolverConfig(delta=1e-300, epsilon=1e-2, max_iter=1)
        sol = rk.sparse_lstsq(A, y, cfg)
        assert sol.iterations_per_column[0] == 1

    def test_deterministic(self):
        rng = np.random.default_rng(36)
        A = rng.standard_normal((10, 6))
        Y = rng.standard_normal((10, 3))
        cfg = rk.SolverConfig(delta=1e-4, epsilon=1e-6)
        a = rk.sparse_lstsq(A, Y, cfg)
        b = rk.sparse_lstsq(A, Y, cfg)
        assert np.array_equal(a.X, b.X)
        assert a.residual_norms == b.residual_norms

    def test_rank_zero_error(self):
        with pytest.raises(RankZeroError):
            rk.sparse_lstsq(1e-9 * np.eye(3), np.ones(3), rk.SolverConfig(delta=1.0))

    def test_row_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            rk.sparse_lstsq(np.eye(3), np.ones(4), rk.SolverConfig(delta=1e-8))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            rk.SolverConfig(delta=0.0)
        with pytest.raises(ValueError):
            rk.SolverConfig(delta=1e-8, max_iter=0)
        with pytest.raises(ValueError):
            rk.SolverConfig(delta=1e-8, epsilon=-1.0)
        rk.SolverConfig(delta=1e-8, epsilon=0.0)  # keep-all mode is legal

    @pytest.mark.parametrize("epsilon", [np.nan, np.inf])
    def test_non_finite_epsilon_rejected(self, epsilon):
        # NaN passes an `epsilon < 0` test and would keep every coefficient
        with pytest.raises(ValueError, match="epsilon"):
            rk.SolverConfig(delta=1e-8, epsilon=epsilon)


class TestThinQRProjection:
    """The solver's QR-of-[A | Y] projection against the tall SVD of A."""

    # (m, n, p): tall, tall with m < n + p, square, wide.
    SHAPES = [(40, 12, 3), (13, 12, 3), (12, 12, 2), (7, 15, 3)]

    @pytest.mark.parametrize("m, n, p", SHAPES)
    def test_matches_tall_svd_oracle(self, m, n, p):
        rng = np.random.default_rng(39 + m + n)
        delta = 1e-3
        k = min(m, n)
        for r in range(1, k):
            A = matrix_with_spectrum(rng, m, n, straddling_spectrum(rng, k, delta, r))
            Y = rng.standard_normal((m, p))
            got = linalg._truncated_projection(A, Y, delta)
            want = tall_svd_projection(A, Y, delta)
            assert got.A_hat.shape[0] == want.A_hat.shape[0] == r
            np.testing.assert_allclose(got.S, want.S, rtol=0, atol=1e-12 * want.S[0])
            sol = rk.sparse_lstsq(A, Y, rk.SolverConfig(delta=delta, epsilon=1e-6))
            s_nm = np.sqrt(r * (k - r))
            expected = np.linalg.norm(sol.X, axis=0) * s_nm * delta + want.deflated
            np.testing.assert_allclose(sol.column_bounds, expected, rtol=1e-8, atol=0)
            # The truncated-pinv start does not depend on singular-vector signs.
            starts = [
                f.V[:r].T @ (f.Y_hat / f.S[:r, None]) for f in (got, want)
            ]
            np.testing.assert_allclose(*starts, rtol=0, atol=1e-8 * np.abs(starts[1]).max())

    def test_exactly_rank_deficient(self):
        # Exact zero singular values: duplicated columns and an all-zero one.
        rng = np.random.default_rng(40)
        B = rng.standard_normal((30, 4))
        A = np.hstack([B, B[:, :2], np.zeros((30, 1))])
        Y = rng.standard_normal((30, 2))
        got = linalg._truncated_projection(A, Y, 1e-8)
        want = tall_svd_projection(A, Y, 1e-8)
        assert got.A_hat.shape[0] == want.A_hat.shape[0] == 4
        np.testing.assert_allclose(got.S, want.S, rtol=0, atol=1e-12 * want.S[0])
        np.testing.assert_allclose(got.deflated, want.deflated, rtol=1e-8)


@pytest.fixture(params=[3, 7])
def small_qr_blocks(request, monkeypatch):
    monkeypatch.setattr(linalg, "_QR_BLOCK_ROWS", request.param)
    return request.param


@pytest.mark.usefixtures("small_qr_blocks")
class TestBlockedQRProjection(TestThinQRProjection):
    """The same oracle tests with 3- and 7-row QR blocks: uneven splits, and
    blocks with fewer rows than [A | Y] has columns."""

    def test_blocks_are_factored(self, monkeypatch, small_qr_blocks):
        shapes = []
        qr = np.linalg.qr

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", recording)
        rng = np.random.default_rng(41)
        linalg._truncated_projection(
            rng.standard_normal((40, 12)), rng.standard_normal((40, 3)), 1e-3
        )
        *blocks, stack = shapes
        blocks_wanted = -(-40 // small_qr_blocks)
        assert [rows for rows, _ in blocks] == [
            len(b) for b in np.array_split(np.arange(40), blocks_wanted)
        ]
        assert stack == (sum(min(rows, 15) for rows, _ in blocks), 15)


def _solve_counting(monkeypatch, A, Y, cfg):
    """Solve with the package solver; returns (solution, restricted solves made)."""
    calls = []
    solve = linalg._minimum_norm_lstsq

    def counting(A_sub, y):
        calls.append(A_sub.shape)
        return solve(A_sub, y)

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_minimum_norm_lstsq", counting)
        return rk.sparse_lstsq(A, Y, cfg), len(calls)


def _assert_matches_per_pass_oracle(monkeypatch, A, Y, cfg):
    """Bit-equal to solving every pass, with one solve per distinct support.

    Returns (restricted solves made, passes run)."""
    sol, solves = _solve_counting(monkeypatch, A, Y, cfg)
    oracle = sparse_lstsq_per_pass(A, Y, cfg)
    assert np.array_equal(sol.X, oracle.X)
    assert sol.iterations_per_column == oracle.iterations
    assert sol.residual_norms == oracle.residuals
    assert solves == sum(len(set(column)) for column in oracle.supports)
    return solves, sum(oracle.iterations)


@pytest.fixture(scope="module")
def chaotic_orbit():
    return rk.integrate(rk.CHAOTIC, rk.SimulationGrid(t_end=120.0, samples=12000)).values


def _chaotic_system(orbit, p):
    """The paper's system: first 6000 samples, L = 3, delta = epsilon = 1e-8."""
    x = rk.TimeSeries(orbit[:5999])
    y = rk.TimeSeries(orbit[1:6000])
    Xw, H1 = paired_windows(x, y, 3)
    return monomial_features(Xw, p).T, H1.T, rk.SolverConfig(delta=1e-8, epsilon=1e-8)


class TestSolverMemo:
    """A support set a column has solved before is reused, never solved again."""

    @pytest.mark.parametrize("p", [2, 3])
    def test_chaotic_fit_matches_per_pass_oracle(self, monkeypatch, chaotic_orbit, p):
        solves, passes = _assert_matches_per_pass_oracle(
            monkeypatch, *_chaotic_system(chaotic_orbit, p)
        )
        assert solves < passes  # columns stop on a set they have solved

    @pytest.mark.parametrize("p", [2, 3])
    def test_a_repeated_set_ends_the_column(self, chaotic_orbit, p):
        # A set that comes back gives the same iterate, so the column stops
        # there instead of re-solving it in a new order and running on.
        A, Y, cfg = _chaotic_system(chaotic_orbit, p)
        sol = rk.sparse_lstsq(A, Y, cfg)
        oracle = sparse_lstsq_per_pass(A, Y, cfg)
        assert sol.iterations_per_column == oracle.iterations
        for passes in oracle.supports:
            assert not (len(passes) == cfg.max_iter and passes[-1] == passes[-2])
            repeats = [i for i in range(1, len(passes)) if passes[i] == passes[i - 1]]
            assert repeats in ([], [len(passes) - 1])

    def test_random_systems_match_per_pass_oracle(self, monkeypatch):
        rng = np.random.default_rng(38)
        for _ in range(20):
            m = int(rng.integers(4, 30))
            n = int(rng.integers(4, 30))
            k = min(m, n)
            r = int(rng.integers(1, k))
            A = matrix_with_spectrum(rng, m, n, straddling_spectrum(rng, k, 1e-2, r))
            Y = rng.standard_normal((m, 3))
            cfg = rk.SolverConfig(delta=1e-2, epsilon=1e-3, max_iter=20)
            _assert_matches_per_pass_oracle(monkeypatch, A, Y, cfg)
