import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lagattn.numerics import (
    Param,
    ParameterError,
    ShapeError,
    l2_normalize_cols,
    l2_normalize_cols_adjoint,
    roll,
    roll_adjoint,
    sigmoid,
    softmax_cols,
    softmax_cols_adjoint,
    zero_grads,
)

from helpers import check_gradient


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


class TestSoftmaxCols:
    def test_symmetric_column(self):
        out = softmax_cols(np.array([[0.0], [0.0]]), 1.0)
        assert np.array_equal(out, [[0.5], [0.5]])

    def test_single_element(self):
        assert softmax_cols(np.array([[37.2]]), 0.3) == np.array([[1.0]])

    def test_matches_direct_formula(self):
        a = rand((4, 4), 3)
        ref = np.exp(a) / np.exp(a).sum(axis=0)
        out = softmax_cols(a, 1.0)
        assert np.allclose(out, ref, atol=1e-14)
        assert np.allclose(out.sum(axis=0), 1.0, atol=1e-12)

    def test_overflow_safety(self):
        out = softmax_cols(np.array([[1000.0], [999.0]]), 1.0)
        assert np.all(np.isfinite(out))

    def test_nonpositive_temperature(self):
        with pytest.raises(ParameterError):
            softmax_cols(rand((2, 2)), 0.0)

    def test_stack_is_each_matrix(self):
        a = rand((3, 5, 4), 4)
        out = softmax_cols(a, 0.7)
        for i in range(3):
            assert np.array_equal(out[i], softmax_cols(a[i], 0.7))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_columns_stochastic(self, seed):
        a = 5 * rand((6, 5), seed)
        out = softmax_cols(a, 0.7)
        assert np.allclose(out.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(out > 0) and np.all(out <= 1)


class TestL2NormalizeCols:
    def test_three_four_five(self):
        out = l2_normalize_cols(np.array([[3.0], [4.0]]))
        assert np.allclose(out, [[0.6], [0.8]], atol=1e-15)

    def test_zero_column_guard(self):
        out = l2_normalize_cols(np.zeros((3, 2)), 1e-8)
        assert np.array_equal(out, np.zeros((3, 2)))

    def test_unit_column_unchanged(self):
        c = np.array([[0.6], [0.8]])
        assert np.allclose(l2_normalize_cols(c), c, atol=1e-15)

    def test_stack_is_each_matrix(self):
        a, g = rand((2, 9, 3), 5), rand((2, 9, 3), 6)
        out, da = l2_normalize_cols(a), l2_normalize_cols_adjoint(g, a)
        for i in range(2):
            assert np.array_equal(out[i], l2_normalize_cols(a[i]))
            assert np.array_equal(da[i], l2_normalize_cols_adjoint(g[i], a[i]))

    def test_scale_invariance(self):
        c = rand((9, 3), 4)
        for s in (0.5, 3.0, 1e4):
            assert np.allclose(l2_normalize_cols(s * c), l2_normalize_cols(c),
                               atol=1e-12)


class TestRoll:
    def test_zero_is_identity(self):
        x = rand((1, 5, 2), 5)
        assert np.array_equal(roll(x, [[0]]), x)

    def test_wraparound(self):
        x = np.array([[[1.0], [2.0], [3.0]]])
        assert np.array_equal(roll(x, [[1]]), [[[3.0], [1.0], [2.0]]])

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            roll(rand((1, 4, 1)), [[4]])
        with pytest.raises(ParameterError):
            roll(rand((1, 4, 1)), [[-1]])

    def test_only_a_stack_and_a_lag_table(self):
        # the one form correlated attention passes: H x T x d and H x n
        with pytest.raises(ShapeError):
            roll(rand((4, 2)), [[1]])
        with pytest.raises(ShapeError):
            roll(rand((2, 4, 2)), [1, 2])
        with pytest.raises(ShapeError):
            roll(rand((2, 4, 2)), [[1], [2], [3]])

    @given(st.integers(0, 2**31 - 1), st.integers(0, 7), st.integers(0, 7))
    @settings(max_examples=30, deadline=None)
    def test_composition(self, seed, a, b):
        x = rand((1, 8, 2), seed)
        assert np.array_equal(roll(roll(x, [[a]]), [[b]]), roll(x, [[(a + b) % 8]]))

    def test_lag_array_gives_stack(self):
        # n lags give the n shifts side by side, one column block per lag
        x = rand((7, 2), 7)
        lags = [0, 3, 3, 6]
        assert np.array_equal(roll(x[None], [lags])[0],
                              np.concatenate([np.roll(x, l, axis=0) for l in lags], axis=1))
        with pytest.raises(ParameterError):
            roll(x[None], [[0, 7]])

    def test_lag_table_gathers_per_matrix(self):
        x = rand((3, 7, 2), 8)
        lags = np.array([[0, 1], [2, 6], [5, 5]])
        assert np.array_equal(roll(x, lags), np.stack(
            [np.concatenate([np.roll(xh, l, axis=0) for l in row], axis=1)
             for xh, row in zip(x, lags)]))

    def test_bijection(self):
        x = rand((1, 11, 3), 6)
        for lag in range(11):
            assert np.array_equal(roll(roll(x, [[lag]]), [[(11 - lag) % 11]]), x)


class TestAdjoints:
    """Every hand-derived adjoint against central finite differences."""

    def _fd(self, f, x, g, step=1e-6):
        grad = np.zeros_like(x)
        flat, gflat = x.reshape(-1), grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = float((f(x) * g).sum())
            flat[i] = orig - step
            fm = float((f(x) * g).sum())
            flat[i] = orig
            gflat[i] = (fp - fm) / (2 * step)
        return grad

    def test_softmax_cols_adjoint(self):
        for shape in ((5, 3), (2, 5, 3)):           # a matrix and a stack
            a, g = rand(shape, 10), rand(shape, 11)
            tau = 0.8
            out = softmax_cols(a, tau)
            da, dtau = softmax_cols_adjoint(g, out, a, tau)
            assert np.allclose(da, self._fd(lambda x: softmax_cols(x, tau), a, g),
                               atol=1e-7)
            step = 1e-6
            fd_tau = (float((softmax_cols(a, tau + step) * g).sum())
                      - float((softmax_cols(a, tau - step) * g).sum())) / (2 * step)
            assert abs(dtau - fd_tau) < 1e-7

    def test_per_matrix_temperature(self):
        # one temperature per matrix of a stack: each matrix as on its own
        a, g = rand((3, 5, 4), 20), rand((3, 5, 4), 21)
        taus = np.array([0.5, 1.0, 2.5])
        out = softmax_cols(a, taus)
        da, dtau = softmax_cols_adjoint(g, out, a, taus)
        assert dtau.shape == (3,)
        for i, tau in enumerate(taus):
            assert np.array_equal(out[i], softmax_cols(a[i], tau))
            da_i, dtau_i = softmax_cols_adjoint(g[i], out[i], a[i], tau)
            assert np.array_equal(da[i], da_i)
            assert abs(dtau[i] - dtau_i) <= 1e-15 * max(1.0, abs(dtau_i))
        with pytest.raises(ParameterError):
            softmax_cols(a, np.array([0.5, 0.0, 1.0]))

    def test_l2_normalize_adjoint(self):
        a, g = rand((6, 4), 12), rand((6, 4), 13)
        da = l2_normalize_cols_adjoint(g, a)
        assert np.allclose(da, self._fd(lambda x: l2_normalize_cols(x), a, g),
                           atol=1e-7)

    def test_roll_adjoint_is_inverse_roll(self):
        g = rand((1, 9, 2), 14)
        for lag in range(9):
            expect = self._fd(lambda x: roll(x, [[lag]]), rand((1, 9, 2), 15), g)
            assert np.allclose(roll_adjoint(g, [[lag]]), expect, atol=1e-8)
            assert np.array_equal(roll_adjoint(g, [[lag]]), roll(g, [[(9 - lag) % 9]]))

    @staticmethod
    def _block_t(w, n):
        """[W_0; ..; W_n-1] (n d x e, or a stack of them) as [W_0^T; ..;
        W_n-1^T] (n e x d)."""
        lead, (nd, e) = w.shape[:-2], w.shape[-2:]
        blocks = w.reshape(lead + (n, nd // n, e))
        return np.swapaxes(blocks, -1, -2).reshape(lead + (n * e, nd // n))

    def _check_lag_sum(self, x, lags, w, g):
        """roll_adjoint(g, lags) @ [W_l^T] is the gradient of
        <roll(x, lags) @ [W_l], g>, and the sum of single-lag roll(g, -l) W_l^T."""
        d, n = x.shape[-1], np.shape(lags)[-1]
        got = roll_adjoint(g, lags) @ self._block_t(w, n)
        assert np.allclose(got, self._fd(lambda y: roll(y, lags) @ w, x, g), atol=1e-8)
        # one matrix of the stack at a time
        total = [sum(np.roll(gm, -l, axis=0) @ wm[d * i:d * i + d].T
                     for i, l in enumerate(row))
                 for gm, row, wm in zip(g, lags, w)]
        assert np.allclose(got, total, atol=1e-13)

    def test_stacked_roll_adjoint_sums_inverse_rolls(self):
        # n lags of one matrix: one 2 x 3 block W_l per lag
        self._check_lag_sum(rand((1, 9, 2), 17), np.array([[0, 4, 4, 8]]),
                            rand((1, 8, 3), 16), rand((1, 9, 3), 18))

    def test_lag_table_roll_adjoint(self):
        # one row of lags and one [W_0; W_1] per matrix of the stack
        self._check_lag_sum(rand((2, 9, 2), 19), np.array([[0, 3], [8, 8]]),
                            rand((2, 4, 3), 20), rand((2, 9, 3), 21))


class TestSigmoid:
    def test_saturates_without_warning(self):
        x = np.array([-1e4, -745.0, -700.0, 0.0, 700.0, 1e4])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sigmoid(x)
        assert got[0] == got[1] == 0.0 and got[3] == 0.5 and got[-1] == 1.0
        # the same values, bitwise, where exp does not overflow
        assert np.array_equal(got[2:], 1.0 / (1.0 + np.exp(-x[2:])))


class TestCheckGradient:
    def test_quadratic(self):
        params = {"theta": Param("theta", rand((3, 2), 16))}

        def f(ps):
            zero_grads(ps)
            ps["theta"].grad += 2.0 * ps["theta"].value
            return float((ps["theta"].value ** 2).sum())

        report = check_gradient(f, params, step=1e-5, tolerance=1e-8)
        assert report.passed

    def test_constant(self):
        params = {"theta": Param("theta", rand((2, 2), 17))}

        def f(ps):
            zero_grads(ps)
            return 1.5

        report = check_gradient(f, params, step=1e-5, tolerance=1e-9)
        assert report.passed
        assert report.max_rel_err <= 1e-9

    def test_nonfinite_flagged(self):
        params = {"theta": Param("theta", np.array([[0.0]]))}

        def f(ps):
            zero_grads(ps)
            with np.errstate(invalid="ignore"):
                return float(np.sqrt(ps["theta"].value[0, 0]))

        report = check_gradient(f, params, step=1e-5, tolerance=1e-4)
        assert not report.entries[0].finite
        assert not report.passed
