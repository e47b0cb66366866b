"""The four attention mechanisms: self, de-stationary, correlated, mixture-of-head.

Each mechanism comes as a ``*_fwd`` / ``*_bwd`` pair. Forward returns
``(output, cache)``; backward maps the output cotangent to cotangents of
every input, using only the hand-derived adjoints from ``numerics``.
Lag selection inside correlated attention is treated as a constant within
a step: gradients flow through the recomputed per-lag matrices only.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import xcorr
from .numerics import (
    DegenerateSeriesError,
    ParameterError,
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
# row softmax (over the time axis) built on the column kernels


def _softmax_rows(a, scale):
    return softmax_cols(a.T / scale, 1.0).T


def _softmax_rows_adjoint(g, out, a, scale):
    da_t, _ = softmax_cols_adjoint(g.T, out.T, a.T / scale, 1.0)
    return da_t.T / scale


# ---------------------------------------------------------------------------
# plain scaled dot-product self-attention


def self_attention_fwd(q, k, v):
    q, k, v = as_matrix(q), as_matrix(k), as_matrix(v)
    if q.shape != k.shape or q.shape[0] != v.shape[0]:
        raise ShapeError(f"inconsistent shapes: q {q.shape}, k {k.shape}, v {v.shape}")
    scale = np.sqrt(q.shape[1])
    scores = q @ k.T
    attn = _softmax_rows(scores, scale)
    out = attn @ v
    return out, (q, k, v, scores, attn, scale)


def self_attention_bwd(cache, g):
    q, k, v, scores, attn, scale = cache
    dattn = g @ v.T
    dv = attn.T @ g
    dscores = _softmax_rows_adjoint(dattn, attn, scores, scale)
    dq = dscores @ k
    dk = dscores.T @ q
    return dq, dk, dv


def self_attention(q, k, v):
    return self_attention_fwd(q, k, v)[0]


# ---------------------------------------------------------------------------
# de-stationary attention: softmax((xi Q'K'^T + 1 Delta^T)/sqrt(d_k)) V'


def destationary_attention_fwd(q, k, v, xi, delta):
    q, k, v = as_matrix(q), as_matrix(k), as_matrix(v)
    xi = float(xi)
    if not xi > 0:
        raise ParameterError(f"xi must be positive, got {xi}")
    delta = np.asarray(delta, dtype=np.float64).reshape(-1)
    if delta.shape[0] != k.shape[0]:
        raise ShapeError(f"delta length {delta.shape[0]} != T {k.shape[0]}")
    scale = np.sqrt(q.shape[1])
    qk = q @ k.T
    scores = xi * qk + delta[None, :]
    attn = _softmax_rows(scores, scale)
    out = attn @ v
    return out, (q, k, v, xi, qk, scores, attn, scale)


def destationary_attention_bwd(cache, g):
    q, k, v, xi, qk, scores, attn, scale = cache
    dattn = g @ v.T
    dv = attn.T @ g
    dscores = _softmax_rows_adjoint(dattn, attn, scores, scale)
    dxi = float((dscores * qk).sum())
    ddelta = dscores.sum(axis=0)
    dq = xi * dscores @ k
    dk = xi * dscores.T @ q
    return dq, dk, dv, dxi, ddelta


def destationary_attention(q, k, v, xi, delta):
    return destationary_attention_fwd(q, k, v, xi, delta)[0]


# ---------------------------------------------------------------------------
# correlated attention (CAB)


# What correlated_attention_bwd needs from the forward pass. all_lags is
# [0, l_1..l_k]: lag 0 is the instantaneous term. a and s are the (k+1)-stacks
# of scores roll(K_hat, l)^T Q_hat and of their column softmaxes at tau. The
# gathered keys and values are not kept: backward gathers them again.
CabCache = namedtuple("CabCache", "q k v q_hat k_hat raw lam beta tau all_lags "
                                  "weights omega a s scores selection")


def correlated_attention_fwd(q, k, v, raw: dict, opts: CabOptions = CabOptions()):
    """``raw`` holds the head's scalars keyed like ``CAB_RAW``. The k + 1 terms
    share one gather of K_hat and V over ``all_lags``, weighted by
    ``[1 - beta, beta * w_1..w_k]``."""
    q, k, v = as_matrix(q), as_matrix(k), as_matrix(v)
    if not (q.shape == k.shape == v.shape):
        raise ShapeError(f"CAB needs equal shapes, got q {q.shape}, k {k.shape}, v {v.shape}")
    t = q.shape[0]
    if t < 2:
        raise DegenerateSeriesError(f"CAB needs T >= 2, got {t}")
    lam = float(sigmoid(raw["lambda_raw"]))
    beta = float(sigmoid(raw["beta_raw"])) if opts.filtering else 0.0
    tau = float(softplus(raw["tau_raw"]))

    q_hat = l2_normalize_cols(q)
    k_hat = l2_normalize_cols(k)

    selection, scores, lags = None, None, []
    if opts.filtering:
        selection, scores = xcorr.select_lags(q_hat, k_hat, lam, opts.c,
                                              use_fft=opts.use_fft)
        lags = selection.lags
    all_lags = np.array([0, *lags])

    omega, weights = None, np.ones(len(lags))
    if opts.soft and lags:
        omega = softmax_cols(scores.combined[all_lags[1:], None], 1.0)[:, 0]
        weights = len(lags) * omega

    coefs = np.concatenate([[1.0 - beta], beta * weights])
    a = roll(k_hat, all_lags).transpose(0, 2, 1) @ q_hat
    s = softmax_cols(a, tau)
    out = np.einsum("l,ltd->td", coefs, roll(v, all_lags) @ s)
    return out, CabCache(q, k, v, q_hat, k_hat, raw, lam, beta, tau, all_lags,
                         weights, omega, a, s, scores, selection)


def correlated_attention_bwd(cache, g):
    """Returns (dq, dk, dv, draw), ``draw`` keyed like ``CAB_RAW``."""
    c = cache
    coefs = np.concatenate([[1.0 - c.beta], c.beta * c.weights])[:, None, None]
    # <g, term_l> for term_l = roll(V, l) S_l, read off roll(V, l)^T g
    vtg = roll(c.v, c.all_lags).transpose(0, 2, 1) @ g
    g_terms = (vtg * c.s).sum(axis=(1, 2))
    da, dtau = softmax_cols_adjoint(coefs * vtg, c.s, c.a, c.tau)
    # row-major copies of the transposes: numpy's stacked matmul runs at a
    # fraction of BLAS speed on a transposed right operand
    s_t, da_t = (np.ascontiguousarray(x.transpose(0, 2, 1)) for x in (c.s, da))
    dv = roll_adjoint(coefs * (g @ s_t), c.all_lags)
    dq_hat = (roll(c.k_hat, c.all_lags) @ da).sum(axis=0)
    dk_hat = roll_adjoint(c.q_hat @ da_t, c.all_lags)

    # out = (1 - beta) term_0 + beta * sum_l w_l term_l
    dbeta = float(g_terms[1:] @ c.weights - g_terms[0])
    dlam = 0.0
    if c.omega is not None:
        # soft-score mode: weights depend on lambda via the combined scores of
        # the selected lags (score stats held constant w.r.t. q, k, consistent
        # with frozen selection)
        lags = c.all_lags[1:]
        domega = len(lags) * c.beta * g_terms[1:]
        dcomb = c.omega * (domega - float(c.omega @ domega))
        dlam = float(dcomb @ (c.scores.diag_scores[lags] - c.scores.nondiag_scores[lags]))

    dq = l2_normalize_cols_adjoint(dq_hat, c.q)
    dk = l2_normalize_cols_adjoint(dk_hat, c.k)

    # chain to the raws; beta pinned to 0 (no filtering) has slope 0
    draw = {"beta_raw": dbeta * (c.beta * (1.0 - c.beta)),
            "tau_raw": dtau * float(sigmoid(c.raw["tau_raw"])),
            "lambda_raw": dlam * (c.lam * (1.0 - c.lam))}
    return dq, dk, dv, draw


def correlated_attention(q, k, v, raw: dict, opts: CabOptions = CabOptions()):
    return correlated_attention_fwd(q, k, v, raw, opts)[0]


# ---------------------------------------------------------------------------
# mixture-of-head attention


@dataclass
class HeadSpec:
    """One head's projections plus its mechanism."""

    kind: str                    # "self" | "destat" | "correlated"
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    raw: dict | None = None      # correlated heads: scalars keyed like CAB_RAW


@dataclass
class MixtureWeights:
    heads: list
    w_o: np.ndarray
    # shared de-stationary scalars, used by "destat" heads only
    xi: float = 1.0
    delta: np.ndarray | None = None
    cab: CabOptions = CabOptions()   # shared by every correlated head


def _validate_mixture(x, mix: MixtureWeights):
    d_model = x.shape[1]
    for i, h in enumerate(mix.heads):
        if h.w_q.shape[0] != d_model or h.w_q.shape != h.w_k.shape or h.w_q.shape != h.w_v.shape:
            raise ShapeError(f"head {i}: projection shapes inconsistent with d_model {d_model}")
        if h.kind == "correlated" and h.raw is None:
            raise ParameterError(f"head {i} is correlated but has no CAB scalars")
        if h.kind not in ("self", "destat", "correlated"):
            raise ParameterError(f"head {i}: unknown kind {h.kind!r}")
    d_v = mix.heads[0].w_v.shape[1]
    if mix.w_o.shape != (len(mix.heads) * d_v, d_model):
        raise ShapeError(f"w_o shape {mix.w_o.shape} != "
                         f"({len(mix.heads) * d_v}, {d_model})")


def mixture_of_head_fwd(x, mix: MixtureWeights):
    x = as_matrix(x)
    _validate_mixture(x, mix)
    head_caches = []
    outputs = []
    for h in mix.heads:
        q, k, v = x @ h.w_q, x @ h.w_k, x @ h.w_v
        if h.kind == "self":
            out, c = self_attention_fwd(q, k, v)
        elif h.kind == "destat":
            out, c = destationary_attention_fwd(q, k, v, mix.xi, mix.delta)
        else:
            out, c = correlated_attention_fwd(q, k, v, h.raw, mix.cab)
        outputs.append(out)
        head_caches.append((q, k, v, c))
    concat = np.concatenate(outputs, axis=1)
    out = concat @ mix.w_o
    return out, (x, mix, head_caches, concat)


def mixture_of_head_bwd(cache, g):
    """Returns (dx, head_grads, dw_o, dxi, ddelta).

    ``head_grads`` is one dict per head, keyed by the registry suffix of each
    parameter: w_q, w_k, w_v and, for correlated heads, the ``CAB_RAW`` names.
    """
    x, mix, head_caches, concat = cache
    dconcat = g @ mix.w_o.T
    dw_o = concat.T @ g
    d_v = mix.heads[0].w_v.shape[1]

    dx = np.zeros_like(x)
    head_grads = []
    dxi_total, ddelta_total = 0.0, None
    for i, (h, (q, k, v, c)) in enumerate(zip(mix.heads, head_caches)):
        gh = dconcat[:, i * d_v:(i + 1) * d_v]
        grads = {}
        if h.kind == "self":
            dq, dk, dv = self_attention_bwd(c, gh)
        elif h.kind == "destat":
            dq, dk, dv, dxi, ddelta = destationary_attention_bwd(c, gh)
            dxi_total += dxi
            ddelta_total = ddelta if ddelta_total is None else ddelta_total + ddelta
        else:
            dq, dk, dv, grads = correlated_attention_bwd(c, gh)
        grads.update(w_q=x.T @ dq, w_k=x.T @ dk, w_v=x.T @ dv)
        dx += dq @ h.w_q.T + dk @ h.w_k.T + dv @ h.w_v.T
        head_grads.append(grads)
    return dx, head_grads, dw_o, dxi_total, ddelta_total


def mixture_of_head(x, mix: MixtureWeights):
    return mixture_of_head_fwd(x, mix)[0]
