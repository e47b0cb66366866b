import numpy as np
import pytest

from lagattn.numerics import DegenerateSeriesError, ParameterError, ShapeError
from lagattn.xcorr import (
    lag_mass,
    score_lags,
    select_lags,
    topk_count,
    topk_lags,
    xcorr_all_lags_fft,
    xcorr_all_lags_naive,
)


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


def loop_reference(q, k):
    """Per-lag roll + matmul, the most literal form of the definition."""
    t = q.shape[0]
    return np.stack([np.roll(k, l, axis=0).T @ q for l in range(t)], axis=0)


class TestNaive:
    def test_matches_literal_loop(self):
        q, k = rand((17, 4), 1), rand((17, 4), 2)
        assert np.allclose(xcorr_all_lags_naive(q, k), loop_reference(q, k),
                           atol=1e-12)

    def test_single_spike_self(self):
        v = np.array([[1.0], [0.0], [0.0], [0.0]])
        stack = xcorr_all_lags_naive(v, v)
        assert np.allclose(stack[:, 0, 0], [1.0, 0.0, 0.0, 0.0])

    def test_shifted_spike(self):
        q = np.array([[1.0], [0.0], [0.0], [0.0]])
        k = np.array([[0.0], [1.0], [0.0], [0.0]])
        stack = xcorr_all_lags_naive(q, k)
        assert np.allclose(stack[:, 0, 0], [0.0, 0.0, 0.0, 1.0])

    def test_unit_self_correlation_at_zero(self):
        c = rand((12, 1), 3)
        c /= np.linalg.norm(c)
        stack = xcorr_all_lags_naive(c, c)
        assert abs(stack[0, 0, 0] - 1.0) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            xcorr_all_lags_naive(rand((8, 2)), rand((8, 3)))


class TestFft:
    @pytest.mark.parametrize("t", [8, 16, 31, 96])
    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_stack_matches_naive(self, t, d):
        """The FFT stack equals the naive stack entry by entry."""
        q, k = rand((t, d), t * 100 + d), rand((t, d), t * 100 + d + 1)
        fft, naive = xcorr_all_lags_fft(q, k), xcorr_all_lags_naive(q, k)
        assert fft.shape == naive.shape == (t, d, d)
        assert np.abs(fft - naive).max() < 1e-9

    def test_head_stack_is_each_head(self):
        # the head axis rides along the same transforms: bitwise per head
        q, k = rand((5, 40, 3), 30), rand((5, 40, 3), 31)
        diag, nondiag = lag_mass(xcorr_all_lags_fft(q, k))
        assert diag.shape == nondiag.shape == (5, 40)
        for i in range(5):
            d_i, n_i = lag_mass(xcorr_all_lags_fft(q[i], k[i]))
            assert np.array_equal(diag[i], d_i) and np.array_equal(nondiag[i], n_i)
        naive = lag_mass(xcorr_all_lags_naive(q, k))
        assert np.abs(diag - naive[0]).max() < 1e-9
        assert np.abs(nondiag - naive[1]).max() < 1e-9

    def test_sinusoid_diag_max_at_zero(self):
        t = 32
        s = np.sin(2 * np.pi * np.arange(t) / t)[:, None]
        diag, _ = lag_mass(xcorr_all_lags_fft(s, s))
        naive = xcorr_all_lags_naive(s, s)
        assert np.argmax(diag) == np.argmax(np.abs(naive[:, 0, 0])) == 0

    def test_zero_query(self):
        diag, nondiag = lag_mass(xcorr_all_lags_fft(np.zeros((10, 3)), rand((10, 3), 9)))
        assert np.all(diag == 0) and np.all(nondiag == 0)

    def test_degenerate_length(self):
        with pytest.raises(DegenerateSeriesError):
            xcorr_all_lags_fft(np.ones((1, 2)), np.ones((1, 2)))


class TestScoreLags:
    def test_hand_example(self):
        stack = np.array([[[1.0, -2.0], [3.0, 4.0]]])
        sv = score_lags(*lag_mass(stack), 0.5)
        assert sv.diag_scores[0] == 5.0
        assert sv.nondiag_scores[0] == 5.0
        assert sv.combined[0] == 5.0

    def test_lambda_endpoints(self):
        mass = lag_mass(rand((6, 3, 3), 10))
        assert np.array_equal(score_lags(*mass, 1.0).combined,
                              score_lags(*mass, 1.0).diag_scores)
        assert np.array_equal(score_lags(*mass, 0.0).combined,
                              score_lags(*mass, 0.0).nondiag_scores)

    def test_lambda_out_of_range(self):
        with pytest.raises(ParameterError):
            score_lags(*lag_mass(rand((4, 2, 2))), 1.5)

    def test_convex_combination_exact(self):
        lam = 0.37
        sv = score_lags(*lag_mass(rand((5, 4, 4), 11)), lam)
        assert np.allclose(sv.combined,
                           lam * sv.diag_scores + (1 - lam) * sv.nondiag_scores,
                           atol=0)


class TestTopkLags:
    def _scores(self, combined):
        combined = np.asarray(combined, dtype=float)
        return score_lags(combined, np.zeros_like(combined), 1.0)

    def test_k_formula(self):
        assert topk_count(1, 96) == 5
        assert topk_count(2, 96) == 10
        assert topk_count(1, 2) == 1
        assert topk_count(10, 4) == 3  # clamped to T - 1

    def test_single_peak_first(self):
        combined = np.zeros(16)
        combined[7] = 3.0
        sel = topk_lags(self._scores(combined), 1, 16)
        assert sel.lags[0] == 7

    def test_tie_break_small_lag(self):
        sel = topk_lags(self._scores(np.ones(8)), 1, 8)
        assert len(sel.lags) == 3
        assert sel.lags == [1, 2, 3]

    def test_ties_match_sorted_rule(self):
        # few distinct values, so most lags tie: best score first, and among
        # equal scores the smaller lag first
        combined = np.random.default_rng(16).integers(0, 3, size=97).astype(float)
        for c in (1, 3, 20):
            rule = sorted(range(1, 97), key=lambda l: (-combined[l], l))
            sel = topk_lags(self._scores(combined), c, 97)
            assert sel.lags == rule[:topk_count(c, 97)]

    def test_stacked_ties_match_sorted_rule(self):
        # each head's row of a score stack follows the sorted rule on its own
        combined = np.random.default_rng(17).integers(0, 3, size=(4, 97)).astype(float)
        for c in (1, 3, 20):
            k = topk_count(c, 97)
            sel = topk_lags(self._scores(combined), c, 97)
            assert sel.table.shape == (4, k)
            for row, picked in zip(combined, sel.table):
                rule = sorted(range(1, 97), key=lambda l: (-row[l], l))
                assert picked.tolist() == rule[:k]
            assert sel.lags == [int(l) for l in sel.table.ravel()]   # head after head

    def test_lag_zero_excluded(self):
        combined = np.zeros(12)
        combined[0] = 100.0
        sel = topk_lags(self._scores(combined), 1, 12)
        assert 0 not in sel.lags

    def test_deterministic(self):
        combined = rand((20,), 12) ** 2
        a = topk_lags(self._scores(combined), 2, 20)
        b = topk_lags(self._scores(combined), 2, 20)
        assert a.lags == b.lags


class TestProperties:
    def test_permutation_equivariance(self):
        q, k = rand((20, 6), 13), rand((20, 6), 14)
        perm = np.random.default_rng(15).permutation(6)
        d1, n1 = lag_mass(xcorr_all_lags_fft(q, k))
        d2, n2 = lag_mass(xcorr_all_lags_fft(q[:, perm], k[:, perm]))
        assert np.allclose(d1, d2, atol=1e-12)
        assert np.allclose(n1, n2, atol=1e-12)

    def test_sign_invariance(self):
        q, k = rand((15, 4), 16), rand((15, 4), 17)
        d1, n1 = lag_mass(xcorr_all_lags_fft(q, k))
        d2, n2 = lag_mass(xcorr_all_lags_fft(-q, -k))
        assert np.allclose(d1, d2, atol=1e-12)
        assert np.allclose(n1, n2, atol=1e-12)

    def test_planted_shift_detected(self):
        t = 64
        rng = np.random.default_rng(18)
        for shift in (3, 11, 40):
            k = rng.normal(size=(t, 2))
            q = k.copy()
            q[:, 1] = np.roll(k[:, 0], shift)
            q /= np.linalg.norm(q, axis=0)
            k /= np.linalg.norm(k, axis=0)
            sv = score_lags(*lag_mass(xcorr_all_lags_naive(q, k)), 0.0)
            assert int(np.argmax(sv.combined[1:])) + 1 == shift

    def test_select_lags_per_head_lambda(self):
        q, k = rand((3, 48, 4), 21), rand((3, 48, 4), 22)
        lam = np.array([0.0, 0.5, 1.0])
        for use_fft in (True, False):
            sel, scores = select_lags(q, k, lam, 2, use_fft=use_fft)[:2]
            for i in range(3):
                sel_i, scores_i = select_lags(q[i], k[i], lam[i], 2, use_fft=use_fft)[:2]
                assert sel.table[i].tolist() == sel_i.lags
                assert np.array_equal(scores.combined[i], scores_i.combined)

    def test_select_lags_fft_naive_agree(self):
        q, k = rand((48, 4), 19), rand((48, 4), 20)
        sel_f, _ = select_lags(q, k, 0.5, 2, use_fft=True)[:2]
        sel_n, _ = select_lags(q, k, 0.5, 2, use_fft=False)[:2]
        assert sel_f.lags == sel_n.lags
