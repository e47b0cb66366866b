"""The four attention mechanisms: self, de-stationary, correlated, mixture-of-head.

Self, de-stationary and correlated attention act on a head stack: q, k and
v are H x T x d, and every head runs in the same numpy calls (one head is a
stack of one). Correlated heads carry their own scalars (one array entry
per head) and pick their own lags. Mixture-of-head takes a B x T x d_model
chunk of samples (one sample is a chunk of one) and runs a block's heads as
two stacks: one fused projection x @ [W_q | W_k | W_v]
for all h heads of every sample, then one temporal call on the B m heads
[:m] and one correlated call on the B (h - m) heads [m:], each stack
holding its heads sample after sample. Its weights are stacked over the
heads too, and so are their gradients, summed over the samples.

Each mechanism comes as a ``*_fwd`` / ``*_bwd`` pair. Forward returns
``(output, cache)``; backward maps the output cotangent to cotangents of
every input, using only the hand-derived adjoints from ``numerics``.
Lag selection inside correlated attention is treated as a constant within
a step: gradients flow through the recomputed per-lag matrices only.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import xcorr
from .numerics import (
    DegenerateSeriesError,
    ParameterError,
    ScalarRangeError,
    ShapeError,
    as_matrix,
    l2_normalize_cols,
    l2_normalize_cols_adjoint,
    roll,
    roll_adjoint,
    sigmoid,
    softmax_cols,
    softmax_cols_adjoint,
    softplus,
)


# Default raw (unconstrained) CAB scalars of one correlated head, keyed by
# their parameter-registry names: beta = sigmoid(beta_raw), tau =
# softplus(tau_raw), lam = sigmoid(lambda_raw). They decode to beta = lam =
# 1/2 and tau = 1.
CAB_RAW = {"beta_raw": 0.0, "tau_raw": 0.541324854612918, "lambda_raw": 0.0}


@dataclass(frozen=True)
class CabOptions:
    """Run-wide CAB choices, the same for every correlated head."""

    c: int = 1                 # k = c * ceil(ln T) lags
    use_fft: bool = True       # FFT or naive lag scoring
    filtering: bool = True     # off => instantaneous only, beta = 0
    soft: bool = False         # soft-score extension: lag terms weighted by a
                               # softmax of their scores, so lambda is learnable


# ---------------------------------------------------------------------------
# head stacks


def _heads(q, k, v):
    """(q, k, v) as float64 H x T x d stacks."""
    q, k, v = (as_matrix(a) for a in (q, k, v))
    if not q.ndim == k.ndim == v.ndim == 3:
        raise ShapeError(f"expected H x T x d head stacks, got q {q.shape}, "
                         f"k {k.shape}, v {v.shape}")
    return q, k, v


def _block_t(w):
    """An H x n x d x d stack of blocks as the H x (n d) x d stack [W_0^T; ..;
    W_n-1^T], copied row-major: numpy's stacked matmul runs at a fraction of
    BLAS speed on a transposed right operand."""
    return w.transpose(0, 1, 3, 2).reshape(w.shape[0], -1, w.shape[-2])


# ---------------------------------------------------------------------------
# temporal attention: softmax((xi Q K^T + 1 Delta^T)/sqrt(d_k)) V; self
# attention skips the scale xi and the shift Delta (xi = None)


# The temporal scores run over row blocks: a block of the H x T x T scores
# holds at most BLOCK_DOUBLES doubles (256 KB), so no T x T array outlives
# a block, neither in forward nor in backward.
BLOCK_DOUBLES = 2 ** 15


# What the temporal backward needs: q, k and v, xi and delta the per-sample
# scales and shifts (de-stationary attention only; None for self attention),
# lse the log-sum-exp of each score row (H x T) and out = softmax V.
# Backward recomputes each block's softmax as exp(scores - lse).
DotCache = namedtuple("DotCache", "q k v xi delta lse out")


def _per_head(a, n: int) -> np.ndarray:
    """Per-sample values (leading axis B) repeated for the n / B heads of each
    sample, so that axis indexes the n matrices of a stack."""
    return np.repeat(a, n // len(a), axis=0)


def _row_blocks(n: int, t: int):
    """Row slices of the score matrices of an n-head stack, each block of the
    n x T x T scores at most BLOCK_DOUBLES doubles (at least one row)."""
    rows = max(1, BLOCK_DOUBLES // (n * t))
    return [slice(r, r + rows) for r in range(0, t, rows)]


def _factors(q, k, xi, delta, lse=0.0):
    """(A, B) with A @ B = (xi Q K^T + 1 Delta^T) / sqrt(d_k) - lse 1^T, the
    scores less a constant per row: A = [xi Q / sqrt(d_k), 1, -lse] and
    B = [K, Delta / sqrt(d_k), 1]^T, xi = 1 and Delta = 0 for self attention.
    The shift and the row constant ride in the product: a broadcast pass
    over a block of scores costs more than two more terms in each dot."""
    n, t, d = q.shape
    a, b = np.empty((n, t, d + 2)), np.empty((n, d + 2, t))
    scale = np.sqrt(d)
    if xi is None:
        a[..., :d], b[:, d] = q / scale, 0.0
    else:
        a[..., :d] = q * (_per_head(xi, n) / scale)[:, None, None]
        b[:, d] = _per_head(delta, n) / scale
    a[..., d], a[..., d + 1] = 1.0, -lse
    b[:, :d], b[:, d + 1] = k.transpose(0, 2, 1), 1.0
    return a, b


def _dot_attention_fwd(q, k, v, xi, delta):
    q, k, v = _heads(q, k, v)
    if q.shape != k.shape or q.shape[:2] != v.shape[:2]:
        raise ShapeError(f"inconsistent shapes: q {q.shape}, k {k.shape}, v {v.shape}")
    a, b = _factors(q, k, xi, delta)
    n, t = q.shape[:2]
    out, lse = np.empty((n, t, v.shape[-1])), np.empty((n, t))
    for rows in _row_blocks(n, t):
        # in place over the block: a fresh array of its size costs more than
        # the arithmetic on it
        z = a[:, rows] @ b
        top = z.max(axis=-1, keepdims=True)
        z -= top
        attn = np.exp(z, out=z)
        total = attn.sum(axis=-1, keepdims=True)
        out[:, rows] = (attn @ v) / total
        lse[:, rows] = (top + np.log(total))[..., 0]
    return out, DotCache(q, k, v, xi, delta, lse, out)


def _dot_attention_bwd(cache, g):
    """Returns (dq, dk, dv, dxi, ddelta): dxi and ddelta are each head's
    gradients of its sample's xi and delta (None for self attention)."""
    c = cache
    (n, t, d), d_v = c.q.shape, c.v.shape[-1]
    a, b = _factors(c.q, c.k, c.xi, c.delta, c.lse)
    # [g, -rowdot] [V, 1]^T = g V^T less the row sums of softmax * (g V^T),
    # which are the rows of g . out
    ga, vb = np.empty((n, t, d_v + 1)), np.empty((n, d_v + 1, t))
    ga[..., :d_v], ga[..., d_v] = g, -(g * c.out).sum(axis=-1)
    vb[:, :d_v], vb[:, d_v] = c.v.transpose(0, 2, 1), 1.0
    dv, dk, dzk = np.zeros(c.v.shape), np.zeros(c.k.shape), np.empty(c.q.shape)
    ddelta = None if c.xi is None else np.zeros((n, t))
    for rows in _row_blocks(n, t):
        attn = a[:, rows] @ b
        np.exp(attn, out=attn)
        dv += attn.transpose(0, 2, 1) @ ga[:, rows, :d_v]
        # dz, the gradient of the block's scores / sqrt(d_k)
        dz = ga[:, rows] @ vb
        dz *= attn
        dk += dz.transpose(0, 2, 1) @ a[:, rows, :d]
        dzk[:, rows] = dz @ c.k
        if ddelta is not None:
            ddelta += dz.sum(axis=1)
    scale, dxi = np.sqrt(d), None
    if c.xi is None:
        dq = dzk / scale
    else:
        # the scores' gradient dS = dz / sqrt(d_k) gives dxi = <dS, Q K^T> =
        # sum(Q * (dS K)) and dq = xi dS K
        dxi = (c.q * dzk).sum(axis=(1, 2)) / scale
        dq = dzk * (_per_head(c.xi, n) / scale)[:, None, None]
        ddelta /= scale
    return dq, dk, dv, dxi, ddelta


def self_attention_fwd(q, k, v):
    return _dot_attention_fwd(q, k, v, None, None)


def self_attention_bwd(cache, g):
    return _dot_attention_bwd(cache, g)[:3]


def destationary_attention_fwd(q, k, v, xi, delta):
    """The stack holds B samples' heads, sample after sample: ``xi`` holds B
    values and ``delta`` is B x T, one scale and shift per sample, shared by
    its heads."""
    xi = np.asarray(xi, dtype=np.float64)
    if not xi.min() > 0:
        raise ScalarRangeError("xi", None, f"xi must be positive, got {xi}")
    delta = np.asarray(delta, dtype=np.float64)
    n, t = np.shape(k)[0], np.shape(k)[-2]
    if xi.ndim != 1 or delta.shape != (xi.size, t) or n % xi.size:
        raise ShapeError(f"delta {delta.shape} and xi {xi.shape} do not fit "
                         f"{n} heads of length T {t}")
    return _dot_attention_fwd(q, k, v, xi, delta)


def destationary_attention_bwd(cache, g):
    """Returns (dq, dk, dv, dxi, ddelta), dxi (B) and ddelta (B x T) summed
    over the heads of each sample."""
    dq, dk, dv, dxi, ddelta = _dot_attention_bwd(cache, g)
    b, t = cache.xi.size, ddelta.shape[-1]
    dxi, ddelta = dxi.reshape(b, -1).sum(axis=1), ddelta.reshape(b, -1, t).sum(axis=1)
    return dq, dk, dv, dxi, ddelta


# ---------------------------------------------------------------------------
# correlated attention (CAB)


# What correlated_attention_bwd needs from the forward pass, per head of the
# stack. all_lags is H x (k+1), each row [0, l_1..l_k]: lag 0 is the
# instantaneous term, weighted by coefs [1 - beta, beta * w_1..w_k]. a and s
# are the H x (k+1) x d x d scores roll(K_hat, l)^T Q_hat, read from lag
# selection's all-lags stack, and their column softmaxes at tau. Neither the
# H x T x d x d stack nor any gather over all_lags, H x T x (k+1) d, is kept:
# backward gathers V, K_hat, g and Q_hat, each dead once its product is done.
CabCache = namedtuple("CabCache", "q k v q_hat k_hat raw lam beta tau all_lags coefs "
                                  "weights omega a s scores selection")


def correlated_attention_fwd(q, k, v, raw: dict, opts: CabOptions = CabOptions()):
    """``raw`` holds the scalars keyed like ``CAB_RAW``, one value per head
    (or one for all). Each head's k + 1 score matrices come from lag
    selection's stack; its k + 1 terms share one gather of V over its lags,
    and sum in one product."""
    q, k, v = _heads(q, k, v)
    if not (q.shape == k.shape == v.shape):
        raise ShapeError(f"CAB needs equal shapes, got q {q.shape}, k {k.shape}, v {v.shape}")
    n, t, d = q.shape
    if t < 2:
        raise DegenerateSeriesError(f"CAB needs T >= 2, got {t}")
    raw = {name: np.broadcast_to(np.asarray(raw[name], dtype=np.float64), n)
           for name in CAB_RAW}
    lam = sigmoid(raw["lambda_raw"])
    beta = sigmoid(raw["beta_raw"]) if opts.filtering else np.zeros(n)
    tau = softplus(raw["tau_raw"])
    if not tau.min() > 0:
        head = int(np.argmin(tau > 0))
        raise ScalarRangeError("tau_raw", head,
                               f"temperature must be positive, got {tau[head]}")

    q_hat = l2_normalize_cols(q)
    k_hat = l2_normalize_cols(k)

    selection, scores = None, None
    if opts.filtering:
        selection, scores, stack = xcorr.select_lags(q_hat, k_hat, lam, opts.c,
                                                     use_fft=opts.use_fft)
        all_lags = np.concatenate([np.zeros((n, 1), dtype=int), selection.table],
                                  axis=1)
        a = np.take_along_axis(stack, all_lags[:, :, None, None], axis=1)
    else:
        all_lags = np.zeros((n, 1), dtype=int)
        a = (k_hat.transpose(0, 2, 1) @ q_hat)[:, None]
    lags = all_lags[:, 1:]

    omega, weights = None, np.ones(lags.shape)
    if opts.soft and lags.size:
        picked = np.take_along_axis(scores.combined, lags, axis=1)
        omega = softmax_cols(picked[..., None], 1.0)[..., 0]
        weights = lags.shape[1] * omega

    coefs = np.concatenate([1.0 - beta[:, None], beta[:, None] * weights], axis=1)
    s = softmax_cols(a, tau)
    out = roll(v, all_lags) @ (coefs[..., None, None] * s).reshape(n, -1, d)
    return out, CabCache(q, k, v, q_hat, k_hat, raw, lam, beta, tau, all_lags, coefs,
                         weights, omega, a, s, scores, selection)


def correlated_attention_bwd(cache, g):
    """Returns (dq, dk, dv, draw), ``draw`` keyed like ``CAB_RAW`` with one
    value per head."""
    c = cache
    n, d = c.q.shape[0], c.q.shape[-1]
    coefs = c.coefs[..., None, None]
    # <g, term_l> for term_l = roll(V, l) S_l, read off roll(V, l)^T g
    vtg = (roll(c.v, c.all_lags).transpose(0, 2, 1) @ g).reshape(c.s.shape)
    g_terms = (vtg * c.s).sum(axis=(2, 3))
    da, dtau = softmax_cols_adjoint(coefs * vtg, c.s, c.a, c.tau)
    # each lag sum is one gather and one product, as in the forward
    dv = roll_adjoint(g, c.all_lags) @ _block_t(coefs * c.s)
    dq_hat = roll(c.k_hat, c.all_lags) @ da.reshape(n, -1, d)
    dk_hat = roll_adjoint(c.q_hat, c.all_lags) @ _block_t(da)

    # out = (1 - beta) term_0 + beta * sum_l w_l term_l
    dbeta = (g_terms[:, 1:] * c.weights).sum(axis=1) - g_terms[:, 0]
    dlam = np.zeros(n)
    if c.omega is not None:
        # soft-score mode: weights depend on lambda via the combined scores of
        # the selected lags (score stats held constant w.r.t. q, k, consistent
        # with frozen selection)
        lags = c.all_lags[:, 1:]
        domega = lags.shape[1] * c.beta[:, None] * g_terms[:, 1:]
        dcomb = c.omega * (domega - (c.omega * domega).sum(axis=1, keepdims=True))
        spread = (np.take_along_axis(c.scores.diag_scores, lags, axis=1)
                  - np.take_along_axis(c.scores.nondiag_scores, lags, axis=1))
        dlam = (dcomb * spread).sum(axis=1)

    dq = l2_normalize_cols_adjoint(dq_hat, c.q)
    dk = l2_normalize_cols_adjoint(dk_hat, c.k)

    # chain to the raws; beta pinned to 0 (no filtering) has slope 0
    draw = {"beta_raw": dbeta * (c.beta * (1.0 - c.beta)),
            "tau_raw": dtau * sigmoid(c.raw["tau_raw"]),
            "lambda_raw": dlam * (c.lam * (1.0 - c.lam))}
    return dq, dk, dv, draw


# ---------------------------------------------------------------------------
# mixture-of-head attention


@dataclass
class MixtureWeights:
    """A block's attention weights, stacked over its h heads: heads [:m] are
    temporal (one kind), heads [m:] correlated."""

    # d_model x 3 x h x d_k: [:, 0, i], [:, 1, i] and [:, 2, i] are head i's
    # W_q, W_k and W_v, so its d_model x 3 h d_k view is [W_q | W_k | W_v]
    w_qkv: np.ndarray
    w_o: np.ndarray                  # h d_k x d_model
    m: int
    temporal: str = "self"           # "self" | "destat"
    # correlated heads' scalars keyed like CAB_RAW: h - m values, or one float
    raw: dict = field(default_factory=lambda: CAB_RAW)
    # de-stationary scalars, used by "destat" heads only: B values of xi and
    # a B x T delta, one scale and shift per sample of the chunk
    xi: np.ndarray | None = None
    delta: np.ndarray | None = None
    cab: CabOptions = CabOptions()   # shared by every correlated head


# What mixture_of_head_bwd needs: the B x T x d_model input, the weights, the
# fused projection (d_model x 3 h d_k), each stack's cache and the
# concatenated head outputs ((B T) x h d_k).
MixCache = namedtuple("MixCache", "x mix w_qkv temporal_cache cab_cache concat")


def _validate_mixture(x, mix: MixtureWeights):
    """Returns (h, d_k) of a mixture whose stacked weights fit ``x``."""
    d_model, w, m = x.shape[-1], mix.w_qkv, mix.m
    if w.ndim != 4 or w.shape[:2] != (d_model, 3):
        raise ShapeError(f"w_qkv shape {w.shape} != ({d_model}, 3, h, d_k)")
    h, d_k = w.shape[2:]
    if mix.w_o.shape != (h * d_k, d_model):
        raise ShapeError(f"w_o shape {mix.w_o.shape} != ({h * d_k}, {d_model})")
    if not 0 <= m <= h:
        raise ParameterError(f"m = {m} must lie in [0, h = {h}]")
    if m and mix.temporal not in ("self", "destat"):
        raise ParameterError(f"unknown temporal kind {mix.temporal!r}")
    for name in CAB_RAW if m < h else ():
        if np.shape(mix.raw[name]) not in ((), (h - m,)):
            raise ShapeError(f"{name} shape {np.shape(mix.raw[name])}: expected "
                             f"one value per correlated head ({h - m},)")
    return h, d_k


def _fold(qkv):
    """Projections of B samples' heads, 3 x B x H x T x d, as the q, k and v
    (B H) x T x d stacks, sample after sample (views for one sample, copies
    otherwise)."""
    return qkv.reshape((3, -1) + qkv.shape[3:])


def mixture_of_head_fwd(x, mix: MixtureWeights):
    """``x`` is a B x T x d_model chunk; the output has its shape."""
    x = as_matrix(x)
    if x.ndim != 3:
        raise ShapeError(f"expected a B x T x d_model chunk, got {x.shape}")
    h, d_k = _validate_mixture(x, mix)
    (b, t, d_model), m = x.shape, mix.m
    w_qkv = mix.w_qkv.reshape(d_model, -1)
    # strided 3 x B x h x T x d_k views of the fused projection: for one
    # sample a copy into head-major order would cost more than the products
    # that read them
    qkv = (x.reshape(b * t, d_model) @ w_qkv).reshape(b, t, 3, h, d_k).transpose(
        2, 0, 3, 1, 4)
    outs, temporal_cache, cab_cache = [], None, None
    if m:
        q, k, v = _fold(qkv[:, :, :m])
        if mix.temporal == "self":
            out, temporal_cache = self_attention_fwd(q, k, v)
        else:
            out, temporal_cache = destationary_attention_fwd(q, k, v, mix.xi, mix.delta)
        outs.append(out.reshape(b, m, t, d_k))
    if m < h:
        # each sample's heads carry the heads' scalars
        raw = {name: np.full((b, h - m), mix.raw[name]).reshape(-1) for name in CAB_RAW}
        out, cab_cache = correlated_attention_fwd(*_fold(qkv[:, :, m:]), raw, mix.cab)
        outs.append(out.reshape(b, h - m, t, d_k))
    concat = np.concatenate(outs, axis=1).transpose(0, 2, 1, 3).reshape(b * t, h * d_k)
    out = (concat @ mix.w_o).reshape(b, t, d_model)
    return out, MixCache(x, mix, w_qkv, temporal_cache, cab_cache, concat)


def mixture_of_head_bwd(cache, g):
    """Returns (dx, dw_qkv, draw, dw_o, dxi, ddelta).

    ``dw_qkv`` has the shape of the mixture's w_qkv. ``draw`` maps each
    ``CAB_RAW`` name to one gradient per correlated head (empty without
    them); it and the weight gradients sum over the samples. ``dxi`` (B) and
    ``ddelta`` (B x T) have the shapes of the mixture's xi and delta (None
    without de-stationary heads).
    """
    c = cache
    (b, t, d_model), (h, d_k), m = c.x.shape, c.mix.w_qkv.shape[2:], c.mix.m
    g = g.reshape(b * t, d_model)
    dheads = (g @ c.mix.w_o.T).reshape(b, t, h, d_k).transpose(0, 2, 1, 3)
    # the gradient of the fused projection, written through head-major views
    dflat = np.empty((b * t, c.w_qkv.shape[1]))
    dqkv = dflat.reshape(b, t, 3, h, d_k).transpose(2, 0, 3, 1, 4)
    draw, dxi, ddelta = {}, None, None
    if m and c.mix.temporal == "self":
        dq, dk, dv = self_attention_bwd(c.temporal_cache,
                                        dheads[:, :m].reshape(-1, t, d_k))
    elif m:
        dq, dk, dv, dxi, ddelta = destationary_attention_bwd(
            c.temporal_cache, dheads[:, :m].reshape(-1, t, d_k))
    if m:
        dqkv[:, :, :m] = np.reshape((dq, dk, dv), (3, b, m, t, d_k))
    if m < h:
        dq, dk, dv, draw = correlated_attention_bwd(c.cab_cache,
                                                    dheads[:, m:].reshape(-1, t, d_k))
        dqkv[:, :, m:] = np.reshape((dq, dk, dv), (3, b, h - m, t, d_k))
        draw = {name: grads.reshape(b, h - m).sum(axis=0) for name, grads in draw.items()}
    dw_qkv = (c.x.reshape(b * t, d_model).T @ dflat).reshape(c.mix.w_qkv.shape)
    dx = (dflat @ c.w_qkv.T).reshape(b, t, d_model)
    return dx, dw_qkv, draw, c.concat.T @ g, dxi, ddelta
