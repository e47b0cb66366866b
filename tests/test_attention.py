import math
from dataclasses import replace

import numpy as np
import pytest

from lagattn import attention as A
from lagattn import xcorr
from lagattn.attention import (
    CAB_RAW,
    CabOptions,
    MixtureWeights,
    correlated_attention_bwd,
    correlated_attention_fwd,
    destationary_attention_bwd,
    destationary_attention_fwd,
    mixture_of_head_bwd,
    mixture_of_head_fwd,
    self_attention_bwd,
    self_attention_fwd,
)
from lagattn.numerics import (
    DegenerateSeriesError,
    Param,
    ParameterError,
    ScalarRangeError,
    ShapeError,
    check_gradient,
    l2_normalize_cols,
    l2_normalize_cols_adjoint,
    roll,
    sigmoid,
    softmax_cols,
    softmax_cols_adjoint,
    softplus,
    zero_grads,
)

NO_FILTERING = CabOptions(filtering=False)


def with_beta(beta_raw):
    return {**CAB_RAW, "beta_raw": beta_raw}


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


def lag_terms(v, cache):
    """The terms roll(V, l) S_l of the selected lags of a one-head CAB cache."""
    return [roll(v, l) @ s_l for l, s_l in zip(cache.all_lags[0, 1:], cache.s[0, 1:])]


def reference_self_attention(q, k, v):
    """Direct two-loop softmax-then-average reference."""
    t, dk = q.shape
    out = np.zeros((t, v.shape[1]))
    for i in range(t):
        scores = np.array([q[i] @ k[j] / math.sqrt(dk) for j in range(t)])
        w = np.exp(scores - scores.max())
        w /= w.sum()
        for j in range(t):
            out[i] += w[j] * v[j]
    return out


def loop_cab(q, k, v, raw, opts, g):
    """CAB forward and backward written term by term: the instantaneous term,
    then one roll / matmul / softmax round per selected lag, and the same
    rounds again in reverse. Returns (out, dq, dk, dv, draw)."""
    lam = float(sigmoid(raw["lambda_raw"]))
    beta = float(sigmoid(raw["beta_raw"])) if opts.filtering else 0.0
    tau = float(softplus(raw["tau_raw"]))
    q_hat, k_hat = l2_normalize_cols(q), l2_normalize_cols(k)
    lags, scores = [], None
    if opts.filtering:
        selection, scores = xcorr.select_lags(q_hat, k_hat, lam, opts.c,
                                              use_fft=opts.use_fft)[:2]
        lags = list(selection.lags)
    weights, omega = np.ones(len(lags)), None
    if opts.soft and lags:
        comb = np.array([scores.combined[l] for l in lags])
        omega = np.exp(comb - comb.max())
        omega /= omega.sum()
        weights = len(lags) * omega

    a0 = k_hat.T @ q_hat
    s0 = softmax_cols(a0, tau)
    inst = v @ s0
    lag_terms = []
    lagged_sum = np.zeros_like(inst)
    for w, l in zip(weights, lags):
        a_l = np.roll(k_hat, l, axis=0).T @ q_hat
        s_l = softmax_cols(a_l, tau)
        term = np.roll(v, l, axis=0) @ s_l
        lag_terms.append((l, a_l, s_l, term))
        lagged_sum += w * term
    out = (1.0 - beta) * inst + beta * lagged_sum

    dv, dq_hat, dk_hat = np.zeros_like(v), np.zeros_like(q_hat), np.zeros_like(k_hat)
    dtau = 0.0
    dbeta = float((g * (lagged_sum - inst)).sum())

    def backprop_term(l, a_l, s_l, dterm):
        nonlocal dtau
        dv[...] += np.roll(dterm @ s_l.T, -l, axis=0)
        da, dt = softmax_cols_adjoint(np.roll(v, l, axis=0).T @ dterm, s_l, a_l, tau)
        dtau += dt
        dq_hat[...] += np.roll(k_hat, l, axis=0) @ da
        dk_hat[...] += np.roll(q_hat @ da.T, -l, axis=0)

    backprop_term(0, a0, s0, (1.0 - beta) * g)
    dlam = 0.0
    if omega is not None:
        domega = np.array([len(lags) * beta * float((g * term).sum())
                           for (_, _, _, term) in lag_terms])
        dcomb = omega * (domega - float((omega * domega).sum()))
        dd = np.array([scores.diag_scores[l] - scores.nondiag_scores[l] for l in lags])
        dlam = float((dcomb * dd).sum())
    for w, (l, a_l, s_l, _) in zip(weights, lag_terms):
        backprop_term(l, a_l, s_l, beta * w * g)

    draw = {"beta_raw": dbeta * (beta * (1.0 - beta)),
            "tau_raw": dtau * float(sigmoid(raw["tau_raw"])),
            "lambda_raw": dlam * (lam * (1.0 - lam))}
    return (out, l2_normalize_cols_adjoint(dq_hat, q),
            l2_normalize_cols_adjoint(dk_hat, k), dv, draw)


def reference_dot_attention(q, k, v, xi, delta, g):
    """One head of softmax((xi Q K^T + 1 delta^T) / sqrt(d_k)) V and its
    backward, as matrix formulas. Returns (out, dq, dk, dv, dxi, ddelta)."""
    scale = math.sqrt(q.shape[1])
    qk = q @ k.T
    z = (xi * qk + delta[None, :]) / scale
    attn = np.exp(z - z.max(axis=1, keepdims=True))
    attn /= attn.sum(axis=1, keepdims=True)
    dattn = g @ v.T
    dscores = attn * (dattn - (attn * dattn).sum(axis=1, keepdims=True)) / scale
    return (attn @ v, xi * dscores @ k, xi * dscores.T @ q, attn.T @ g,
            float((dscores * qk).sum()), dscores.sum(axis=0))


def dense_attention(q, k, v, xi, delta, g):
    """Self (xi None) or de-stationary attention on an H x T x d stack and its
    backward, with the whole H x T x T softmax in memory: the kernel that the
    row-blocked log-sum-exp kernel replaced. xi holds B values and delta is
    B x T, for B samples of H / B heads each. Returns (out, dq, dk, dv, dxi,
    ddelta), dxi and ddelta summed over each sample's heads (None for self
    attention)."""
    n, scale = q.shape[0], np.sqrt(q.shape[-1])
    z = (q / scale) @ k.transpose(0, 2, 1)
    if xi is not None:
        per_head = np.repeat(xi, n // xi.size)[:, None, None]
        qk, z = z, per_head * z
        z += np.repeat(delta, n // xi.size, axis=0)[:, None, :] / scale
    z -= z.max(axis=-1, keepdims=True)
    attn = np.exp(z)
    attn /= attn.sum(axis=-1, keepdims=True)
    out = attn @ v
    dv = attn.transpose(0, 2, 1) @ g
    g = g / scale
    dscores = g @ v.transpose(0, 2, 1)
    dscores -= (g * out).sum(axis=-1, keepdims=True)
    dscores *= attn
    dq, dk = dscores @ k, dscores.transpose(0, 2, 1) @ q
    if xi is None:
        return out, dq, dk, dv, None, None
    b, t = xi.size, q.shape[1]
    dxi = scale * (dscores * qk).reshape(b, -1).sum(axis=1)
    ddelta = dscores.sum(axis=1).reshape(b, -1, t).sum(axis=1)
    return out, per_head * dq, per_head * dk, dv, dxi, ddelta


def gather_cab_fwd(q, k, v, raw, opts):
    """CAB's forward on an H x T x d stack with its score matrices gathered
    from K_hat, a = roll(K_hat, all_lags)^T Q_hat: the path that reading
    them from lag selection's stack replaced. Lags, scalars and coefficients,
    which do not depend on a, come from the forward under test. Returns
    (out, cache) for correlated_attention_bwd."""
    _, cache = correlated_attention_fwd(q, k, v, raw, opts)
    n, d = q.shape[0], q.shape[-1]
    a = (roll(cache.k_hat, cache.all_lags).transpose(0, 2, 1)
         @ cache.q_hat).reshape(n, -1, d, d)
    s = softmax_cols(a, cache.tau)
    out = roll(v, cache.all_lags) @ (cache.coefs[..., None, None] * s).reshape(n, -1, d)
    return out, cache._replace(a=a, s=s)


def loop_mixture(x, mix, g):
    """Mixture-of-head forward and backward one head at a time, on the
    one-head references; head i reads its slices of the stacked weights.
    Returns (out, dx, dw_qkv, draw, dw_o, dxi, ddelta)."""
    t, m = x.shape[0], mix.m
    h, d_k = mix.w_qkv.shape[2:]
    delta = np.zeros(t) if mix.delta is None else mix.delta
    outs, dx, dw_qkv = [], np.zeros_like(x), np.zeros_like(mix.w_qkv)
    draw = {name: np.zeros(h - m) for name in CAB_RAW} if m < h else {}
    dxi, ddelta = 0.0, np.zeros(t)
    dconcat = g @ mix.w_o.T
    for i in range(h):
        w_q, w_k, w_v = (mix.w_qkv[:, j, i] for j in range(3))
        q, k, v = x @ w_q, x @ w_k, x @ w_v
        gh = dconcat[:, i * d_k:(i + 1) * d_k]
        if i >= m:
            raw = {name: float(np.broadcast_to(mix.raw[name], h - m)[i - m])
                   for name in CAB_RAW}
            out, dq, dk, dv, draw_i = loop_cab(q, k, v, raw, mix.cab, gh)
            for name in CAB_RAW:
                draw[name][i - m] = draw_i[name]
        elif mix.temporal == "destat":
            out, dq, dk, dv, dxi_i, ddelta_i = reference_dot_attention(
                q, k, v, mix.xi, delta, gh)
            dxi, ddelta = dxi + dxi_i, ddelta + ddelta_i
        else:
            out, dq, dk, dv, _, _ = reference_dot_attention(q, k, v, 1.0, np.zeros(t), gh)
        outs.append(out)
        dx += dq @ w_q.T + dk @ w_k.T + dv @ w_v.T
        for j, d in enumerate((dq, dk, dv)):
            dw_qkv[:, j, i] = x.T @ d
    concat = np.concatenate(outs, axis=1)
    return concat @ mix.w_o, dx, dw_qkv, draw, concat.T @ g, dxi, ddelta


def stacked_projections(rng, n, d_model, d_k):
    """A d_model x 3 x n x d_k w_qkv drawn head by head: W_q, W_k and W_v of
    head 0, then of head 1, ..."""
    return rng.normal(size=(n, 3, d_model, d_k)).transpose(2, 1, 0, 3)


class TestSelfAttention:
    def test_t1_returns_v(self):
        v = rand((1, 3), 1)
        q, k = rand((1, 2), 0), rand((1, 2), 2)
        assert np.array_equal(self_attention_fwd(q[None], k[None], v[None])[0][0], v)

    def test_orthogonal_q_gives_uniform_average(self):
        k = rand((4, 3), 3)
        q = np.zeros((4, 3))
        v = rand((4, 2), 4)
        out = self_attention_fwd(q[None], k[None], v[None])[0][0]
        assert np.allclose(out, np.tile(v.mean(axis=0), (4, 1)), atol=1e-12)

    def test_matches_reference(self):
        q, k, v = rand((5, 3), 5), rand((5, 3), 6), rand((5, 3), 7)
        assert np.allclose(self_attention_fwd(q[None], k[None], v[None])[0][0],
                           reference_self_attention(q, k, v), atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            self_attention_fwd(rand((1, 5, 3)), rand((1, 4, 3)), rand((1, 5, 3)))
        with pytest.raises(ShapeError):     # a matrix is not a head stack
            self_attention_fwd(rand((5, 3)), rand((5, 3)), rand((5, 3)))


class TestDestationaryAttention:
    def test_degenerates_to_self_attention(self):
        q, k, v = rand((6, 3), 8), rand((6, 3), 9), rand((6, 3), 10)
        out = destationary_attention_fwd(q[None], k[None], v[None], np.array([1.0]),
                                         np.zeros((1, 6)))[0]
        assert np.allclose(out, self_attention_fwd(q[None], k[None], v[None])[0],
                           atol=1e-14)

    def test_constant_delta_shift_invariance(self):
        q, k, v = rand((5, 2), 11), rand((5, 2), 12), rand((5, 2), 13)
        base = destationary_attention_fwd(q[None], k[None], v[None], np.array([2.0]),
                                          np.zeros((1, 5)))[0]
        shifted = destationary_attention_fwd(q[None], k[None], v[None], np.array([2.0]),
                                             3.7 * np.ones((1, 5)))[0]
        assert np.allclose(base, shifted, atol=1e-12)

    def test_matches_direct_formula(self):
        q, k, v = rand((4, 3), 14), rand((4, 3), 15), rand((4, 3), 16)
        delta = rand((4,), 17)
        xi = 2.0
        scores = (xi * q @ k.T + delta[None, :]) / math.sqrt(3)
        attn = np.exp(scores - scores.max(axis=1, keepdims=True))
        attn /= attn.sum(axis=1, keepdims=True)
        out = destationary_attention_fwd(q[None], k[None], v[None], np.array([xi]),
                                         delta[None])[0][0]
        assert np.allclose(out, attn @ v, atol=1e-12)

    def test_nonpositive_xi(self):
        with pytest.raises(ParameterError):
            destationary_attention_fwd(rand((1, 3, 2)), rand((1, 3, 2)), rand((1, 3, 2)),
                                       np.array([0.0]), np.zeros((1, 3)))

    def test_shape_mismatch(self):
        # xi holds one value per sample and delta one row per sample, and the
        # heads come as a stack
        q = rand((2, 3, 2))
        for xi, delta in ((1.0, np.zeros((1, 3))),          # xi not per sample
                          (np.ones(1), np.zeros(3)),        # delta not per sample
                          (np.ones(1), np.zeros((1, 4))),   # delta not of length T
                          (np.ones(3), np.zeros((3, 3)))):  # 3 samples, 2 heads
            with pytest.raises(ShapeError):
                destationary_attention_fwd(q, q, q, xi, delta)
        with pytest.raises(ShapeError):     # a matrix is not a head stack
            destationary_attention_fwd(q[0], q[0], q[0], np.ones(1), np.zeros((1, 3)))


class TestCorrelatedAttention:
    def test_beta_zero_instantaneous_only(self):
        q, k, v = rand((10, 4), 18), rand((10, 4), 19), rand((10, 4), 20)
        out = correlated_attention_fwd(q[None], k[None], v[None], CAB_RAW,
                                       NO_FILTERING)[0][0]
        qh, kh = l2_normalize_cols(q), l2_normalize_cols(k)
        expect = v @ softmax_cols(kh.T @ qh, float(softplus(CAB_RAW["tau_raw"])))
        assert np.array_equal(out, expect)

    def test_dk1_beta0_returns_v(self):
        q, k, v = rand((7, 1), 21), rand((7, 1), 22), rand((7, 1), 23)
        out = correlated_attention_fwd(q[None], k[None], v[None], CAB_RAW,
                                       NO_FILTERING)[0][0]
        assert np.allclose(out, v, atol=1e-15)

    def test_fft_and_naive_paths_identical(self):
        q, k, v = rand((16, 4), 24), rand((16, 4), 25), rand((16, 4), 26)
        out_f = correlated_attention_fwd(q[None], k[None], v[None], CAB_RAW,
                                         CabOptions(use_fft=True))[0]
        out_n = correlated_attention_fwd(q[None], k[None], v[None], CAB_RAW,
                                         CabOptions(use_fft=False))[0]
        assert np.abs(out_f - out_n).max() < 1e-9

    def test_output_in_value_range_single_lag(self):
        # with one selected lag the aggregation is a convex combination over
        # rolled-V columns, so the output stays inside V's entry range
        q, k = rand((2, 3), 27), rand((2, 3), 28)
        v = np.random.default_rng(29).uniform(-2.0, 5.0, size=(2, 3))
        out = correlated_attention_fwd(q[None], k[None], v[None], with_beta(1.3))[0]
        assert out.min() >= -2.0 - 1e-12 and out.max() <= 5.0 + 1e-12

    def test_output_range_scales_with_lag_count(self):
        # the lagged part sums k column-stochastic mixes, so the bound is
        # (1 - beta) + beta * k times V's range
        q, k = rand((12, 3), 27), rand((12, 3), 28)
        v = np.random.default_rng(29).uniform(-2.0, 5.0, size=(12, 3))
        out, cache = correlated_attention_fwd(q[None], k[None], v[None], with_beta(1.3))
        kk, beta = cache.all_lags.shape[1] - 1, cache.beta[0]
        bound = (1.0 - beta) + beta * kk
        assert out.min() >= -2.0 * bound - 1e-12
        assert out.max() <= 5.0 * bound + 1e-12
        # and each individual term is itself inside the range
        terms = lag_terms(v, cache)
        assert len(terms) == kk
        for term in terms:
            assert term.min() >= -2.0 - 1e-12 and term.max() <= 5.0 + 1e-12

    def test_beta_endpoint_interpolation(self):
        q, k, v = rand((9, 3), 30), rand((9, 3), 31), rand((9, 3), 32)
        big = 50.0  # sigmoid(+-50) is 1.0 / 0.0 in float64
        inst = correlated_attention_fwd(q[None], k[None], v[None], with_beta(-big))[0][0]
        qh, kh = l2_normalize_cols(q), l2_normalize_cols(k)
        assert np.allclose(inst, v @ softmax_cols(kh.T @ qh, 1.0), atol=1e-15)
        lagged = correlated_attention_fwd(q[None], k[None], v[None], with_beta(big))[0][0]
        out_mid, cache = correlated_attention_fwd(q[None], k[None], v[None], with_beta(0.0))
        assert np.allclose(lagged, sum(lag_terms(v, cache)), atol=1e-12)

    def test_temperature_sharpens_argmax(self):
        a = rand((5, 5), 33)
        hot = softmax_cols(a, 1.0)
        cold = softmax_cols(a, 0.25)
        idx = a.argmax(axis=0)
        for j in range(5):
            assert cold[idx[j], j] > hot[idx[j], j]

    def test_selection_scale_invariance(self):
        q, k, v = rand((20, 4), 34), rand((20, 4), 35), rand((20, 4), 36)
        out1, cache1 = correlated_attention_fwd(q[None], k[None], v[None], CAB_RAW)
        out2, cache2 = correlated_attention_fwd(7.5 * q[None], 7.5 * k[None], v[None],
                                                CAB_RAW)
        assert cache1.selection.lags == cache2.selection.lags
        assert np.allclose(out1, out2, atol=1e-12)

    def test_degenerate_length(self):
        with pytest.raises(DegenerateSeriesError):
            correlated_attention_fwd(rand((1, 1, 2)), rand((1, 1, 2)), rand((1, 1, 2)),
                                     CAB_RAW)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            correlated_attention_fwd(rand((1, 8, 2)), rand((1, 8, 2)), rand((1, 8, 3)),
                                     CAB_RAW)
        with pytest.raises(ShapeError):     # a matrix is not a head stack
            correlated_attention_fwd(rand((8, 2)), rand((8, 2)), rand((8, 2)), CAB_RAW)


class TestLagStackMatchesLoop:
    """The one-gather CAB against the term-by-term loop it replaced."""

    @pytest.mark.parametrize("t", [2, 3, 17, 96, 512])
    @pytest.mark.parametrize("opts", [
        CabOptions(), CabOptions(c=2, soft=True), NO_FILTERING,
        CabOptions(use_fft=False), CabOptions(c=3),
    ], ids=["default", "soft", "no-filtering", "naive", "c3"])
    def test_forward_and_gradients(self, t, opts):
        rng = np.random.default_rng(t)
        q, k, v, g = (rng.normal(size=(t, 4)) for _ in range(4))
        raw = {"beta_raw": 0.4, "tau_raw": -0.3, "lambda_raw": 0.7}
        out, cache = correlated_attention_fwd(q[None], k[None], v[None], raw, opts)
        got = (out, *correlated_attention_bwd(cache, g[None]))
        want = loop_cab(q, k, v, raw, opts, g)
        for x, y in zip(got[:4], want[:4]):
            assert np.abs(x[0] - y).max() <= 1e-12
        for name in CAB_RAW:
            assert abs(got[4][name][0] - want[4][name]) <= 1e-12, name


# three heads with raw scalars that differ from head to head
STACK_RAW = {"beta_raw": np.array([0.4, -1.1, 2.0]),
             "tau_raw": np.array([-0.3, 0.5, 1.7]),
             "lambda_raw": np.array([0.7, -0.9, 0.1])}
STACK_OPTS = [CabOptions(), CabOptions(c=2, soft=True), NO_FILTERING,
              CabOptions(use_fft=False)]
STACK_IDS = ["default", "soft-c2", "no-filtering", "naive"]


def head_raw(raw, i):
    return {name: float(raw[name][i]) for name in CAB_RAW}


def assert_close(got, want, tol=1e-12):
    assert np.shape(got) == np.shape(want)
    assert np.abs(np.asarray(got) - np.asarray(want)).max(initial=0.0) <= tol


class TestHeadStack:
    """Each mechanism on a stack of heads against its one-head references,
    head by head: outputs, every gradient and the scalar gradients."""

    @pytest.mark.parametrize("t", [2, 96, 512])
    @pytest.mark.parametrize("opts", STACK_OPTS, ids=STACK_IDS)
    def test_cab_matches_loop(self, t, opts):
        rng = np.random.default_rng(t + 1)
        q, k, v, g = (rng.normal(size=(3, t, 4)) for _ in range(4))
        out, cache = correlated_attention_fwd(q, k, v, STACK_RAW, opts)
        dq, dk, dv, draw = correlated_attention_bwd(cache, g)
        for i in range(3):
            want = loop_cab(q[i], k[i], v[i], head_raw(STACK_RAW, i), opts, g[i])
            for got_i, want_i in zip((out[i], dq[i], dk[i], dv[i]), want[:4]):
                assert_close(got_i, want_i)
            for name in CAB_RAW:
                assert abs(draw[name][i] - want[4][name]) <= 1e-12, name

    @pytest.mark.parametrize("t", [2, 96, 512])
    @pytest.mark.parametrize("kind", ["self", "destat"])
    def test_temporal_matches_heads(self, t, kind):
        rng = np.random.default_rng(t + 2)
        q, k, v, g = (rng.normal(size=(3, t, 4)) for _ in range(4))
        xi, delta = (1.0, np.zeros(t)) if kind == "self" else (1.7, rng.normal(size=t))
        if kind == "self":
            out, cache = self_attention_fwd(q, k, v)
            dq, dk, dv = self_attention_bwd(cache, g)
        else:
            out, cache = destationary_attention_fwd(q, k, v, np.array([xi]), delta[None])
            dq, dk, dv, dxi, ddelta = destationary_attention_bwd(cache, g)
        want = [reference_dot_attention(q[i], k[i], v[i], xi, delta, g[i])
                for i in range(3)]
        for i, w in enumerate(want):
            for got_i, want_i in zip((out[i], dq[i], dk[i], dv[i]), w[:4]):
                assert_close(got_i, want_i)
        if kind == "destat":
            assert abs(dxi[0] - sum(w[4] for w in want)) <= 1e-12 * max(1.0, abs(dxi[0]))
            assert_close(ddelta[0], sum(w[5] for w in want))

    @pytest.mark.parametrize("t", [2, 96])
    @pytest.mark.parametrize("temporal", ["self", "destat"])
    @pytest.mark.parametrize("opts", STACK_OPTS, ids=STACK_IDS)
    def test_mixture_matches_loop(self, t, temporal, opts):
        rng = np.random.default_rng(t + 3)
        d_model, d_k = 6, 4
        w_qkv = stacked_projections(rng, 5, d_model, d_k)
        mix = MixtureWeights(w_qkv, rng.normal(size=(5 * d_k, d_model)), 2, temporal,
                             STACK_RAW, xi=1.3, delta=rng.normal(size=t), cab=opts)
        x, g = rng.normal(size=(t, d_model)), rng.normal(size=(t, d_model))
        # the sample as a chunk of one: one xi and one row of delta
        chunk = replace(mix, xi=np.array([mix.xi]), delta=mix.delta[None])
        out, cache = mixture_of_head_fwd(x[None], chunk)
        dx, dw_qkv, draw, dw_o, dxi, ddelta = mixture_of_head_bwd(cache, g[None])
        want = loop_mixture(x, mix, g)
        for got_i, want_i in zip((out[0], dx[0], dw_qkv, dw_o), (want[0], want[1],
                                                                want[2], want[4])):
            assert_close(got_i, want_i)
        assert draw.keys() == want[3].keys()
        for name in draw:
            assert_close(draw[name], want[3][name])
        if temporal == "destat":
            assert abs(dxi[0] - want[5]) <= 1e-12 * max(1.0, abs(want[5]))   # relative
            assert_close(ddelta[0], want[6])
        else:
            assert dxi is None and ddelta is None

    def test_collapsed_temperature_names_head(self):
        q = rand((3, 8, 2), 60)
        raw = {**STACK_RAW, "tau_raw": np.array([0.1, -1e9, -1e9])}
        with pytest.raises(ScalarRangeError) as exc:
            correlated_attention_fwd(q, q, q, raw)
        assert (exc.value.name, exc.value.head) == ("tau_raw", 1)


class TestBlockedMatchesDense:
    """The row-blocked log-sum-exp temporal kernel against the dense kernel it
    replaced: outputs and every gradient within 1e-12, at the default block
    size and at one small enough that T splits into uneven row blocks."""

    @pytest.mark.parametrize("t", [2, 3, 17, 96, 512])
    @pytest.mark.parametrize("heads, samples", [(1, 1), (3, 3), (16, 4)],
                             ids=["h1", "h3", "h16"])
    @pytest.mark.parametrize("kind", ["self", "destat"])
    @pytest.mark.parametrize("blocks", ["default", "uneven"])
    def test_matches_dense(self, monkeypatch, t, heads, samples, kind, blocks):
        rng = np.random.default_rng(t + heads)
        q, k, v, g = (rng.normal(size=(heads, t, 4)) for _ in range(4))
        if blocks == "uneven":
            rows = t // 3 + 1           # T = 3, 17, 96, 512 end on a shorter block
            monkeypatch.setattr(A, "BLOCK_DOUBLES", heads * t * rows)
            sizes = [len(range(t)[r]) for r in A._row_blocks(heads, t)]
            assert sizes[0] == rows and sum(sizes) == t
            assert t == 2 or sizes[-1] < rows
        if kind == "self":
            xi = delta = None
            out, cache = self_attention_fwd(q, k, v)
            got = (out, *self_attention_bwd(cache, g), None, None)
        else:
            xi = rng.uniform(0.5, 2.0, size=samples)
            delta = rng.normal(size=(samples, t))
            out, cache = destationary_attention_fwd(q, k, v, xi, delta)
            got = (out, *destationary_attention_bwd(cache, g))
        want = dense_attention(q, k, v, xi, delta, g)
        for name, x, y in zip(("out", "dq", "dk", "dv", "dxi", "ddelta"), got, want):
            if y is None:
                assert x is None, name
            else:
                scale = max(1.0, float(np.abs(y).max()))
                assert np.abs(x - y).max() <= 1e-12 * scale, name


class TestStackMatchesGather:
    """CAB with its scores read from the all-lags stack against the forward
    that gathered K_hat over the selected lags again: outputs and every
    gradient within 1e-12, relative to the larger of 1 and the reference."""

    @pytest.mark.parametrize("t", [2, 3, 17, 96, 512])
    @pytest.mark.parametrize("heads", [1, 3, 16])
    @pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
    @pytest.mark.parametrize("filtering", [True, False], ids=["filtering", "no-filtering"])
    @pytest.mark.parametrize("use_fft", [True, False], ids=["fft", "naive"])
    def test_matches_gather(self, t, heads, soft, filtering, use_fft):
        rng = np.random.default_rng(t + heads)
        q, k, v, g = (rng.normal(size=(heads, t, 4)) for _ in range(4))
        raw = {name: rng.normal(size=heads) for name in CAB_RAW}
        opts = CabOptions(c=2, use_fft=use_fft, filtering=filtering, soft=soft)
        results = []
        for fwd in (correlated_attention_fwd, gather_cab_fwd):
            out, cache = fwd(q, k, v, raw, opts)
            dq, dk, dv, draw = correlated_attention_bwd(cache, g)
            results.append({"out": out, "dq": dq, "dk": dk, "dv": dv, **draw})
        got, want = results
        for name, y in want.items():
            assert np.abs(got[name] - y).max() <= 1e-12 * max(1.0, float(np.abs(y).max())), name


class TestCorrelatedAttentionGradients:
    def _check(self, opts, names=("q", "k", "v", "beta_raw", "tau_raw")):
        rng = np.random.default_rng(37)
        params = {n: Param(n, rng.normal(size=(8, 4))) for n in ("q", "k", "v")}
        params["beta_raw"] = Param("beta_raw", 0.4)
        params["tau_raw"] = Param("tau_raw", 0.55)
        params["lambda_raw"] = Param("lambda_raw", 0.2)
        w = rng.normal(size=(4, 2))
        checked = {n: params[n] for n in names}

        def f(ps):
            zero_grads(ps)
            raw = {n: float(params[n].value) for n in CAB_RAW}
            out, cache = correlated_attention_fwd(
                *(params[n].value[None] for n in ("q", "k", "v")), raw, opts)
            loss = float(((out[0] @ w) ** 2).sum())
            g = 2.0 * (out[0] @ w) @ w.T
            dq, dk, dv, draw = correlated_attention_bwd(cache, g[None])
            for n, d in {"q": dq, "k": dk, "v": dv, **draw}.items():
                params[n].grad += d[0]
            return loss

        report = check_gradient(f, checked, step=1e-5, tolerance=1e-4)
        assert report.passed, [(e.name, e.max_rel_err) for e in report.failures()]

    def test_default_mode(self):
        self._check(CabOptions(c=1))

    def test_filtering_disabled(self):
        self._check(NO_FILTERING, names=("q", "k", "v", "tau_raw"))

    def test_lambda_soft_score_mode(self):
        # scores are frozen w.r.t. q/k, so only the scalars are checked here
        self._check(CabOptions(c=2, soft=True),
                    names=("beta_raw", "tau_raw", "lambda_raw"))


class TestMixtureOfHead:
    def _w_qkv(self, n, d_model, d_k, seed=40):
        return stacked_projections(np.random.default_rng(seed), n, d_model, d_k)

    def test_m_equals_h_is_multihead_attention(self):
        x = rand((10, 6), 41)
        w_qkv = self._w_qkv(3, 6, 2)
        w_o = rand((6, 6), 42)
        out = mixture_of_head_fwd(x[None], MixtureWeights(w_qkv, w_o, 3))[0][0]
        ref = np.concatenate(
            [self_attention_fwd(*((x @ w_qkv[:, j, i])[None] for j in range(3)))[0][0]
             for i in range(3)], axis=1) @ w_o
        assert np.array_equal(out, ref)

    def test_even_temporal_correlated_split(self):
        x = rand((8, 4), 43)
        w_qkv = np.concatenate([self._w_qkv(8, 4, 2, 44), self._w_qkv(8, 4, 2, 45)],
                               axis=2)
        out = mixture_of_head_fwd(x[None], MixtureWeights(w_qkv, rand((32, 4), 46), 8))[0]
        assert out.shape == (1, 8, 4)

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_output_shape_any_split(self, m):
        x = rand((6, 5), 47)
        w_qkv = np.concatenate([self._w_qkv(m, 5, 3, 48), self._w_qkv(2 - m, 5, 3, 49)],
                               axis=2)
        mix = MixtureWeights(w_qkv, rand((6, 5), 50), m)
        assert mixture_of_head_fwd(x[None], mix)[0].shape == (1, 6, 5)

    def test_bad_w_o_shape(self):
        # the weights are checked against each other: w_o against h d_k, and
        # each CAB scalar array against the h - m correlated heads
        x = rand((6, 4), 54)
        w_qkv = self._w_qkv(2, 4, 2, 55)
        raw = {**CAB_RAW, "tau_raw": np.ones(2)}
        for bad in (dict(w_o=rand((3, 4), 56)),
                    dict(w_qkv=w_qkv.reshape(4, 12)),           # not stacked
                    dict(w_qkv=w_qkv[:3]),                      # d_model 3, x has 4
                    dict(w_qkv=w_qkv[:, :2]),                   # no W_v
                    dict(m=1, raw=raw),                         # 2 values, 1 head
                    dict(m=0, raw={**raw, "beta_raw": np.ones(1)})):
            mix = MixtureWeights(**{"w_qkv": w_qkv, "w_o": rand((4, 4), 56), "m": 2,
                                    **bad})
            with pytest.raises(ShapeError):
                mixture_of_head_fwd(x[None], mix)
        mix = MixtureWeights(w_qkv, rand((4, 4), 56), 0, raw=raw)
        mixture_of_head_fwd(x[None], mix)
        with pytest.raises(ShapeError):     # a sample is not a chunk
            mixture_of_head_fwd(x, mix)
