"""The four attention mechanisms: self, de-stationary, correlated, mixture-of-head.

Each mechanism comes as a ``*_fwd`` / ``*_bwd`` pair. Forward returns
``(output, cache)``; backward maps the output cotangent to cotangents of
every input, using only the hand-derived adjoints from ``numerics``.
Lag selection inside correlated attention is treated as a constant within
a step: gradients flow through the recomputed per-lag matrices only.
"""

from __future__ import annotations

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


def correlated_attention_fwd(q, k, v, raw: dict, opts: CabOptions = CabOptions()):
    """``raw`` holds the head's scalars keyed like ``CAB_RAW``."""
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

    if opts.filtering:
        selection, scores = xcorr.select_lags(q_hat, k_hat, lam, opts.c,
                                              use_fft=opts.use_fft)
        lags = selection.lags
    else:
        selection, scores, lags = None, None, []

    if opts.soft and lags:
        comb = np.array([scores.combined[l] for l in lags])
        shifted = comb - comb.max()
        omega = np.exp(shifted)
        omega /= omega.sum()
        weights = len(lags) * omega
    else:
        omega = None
        weights = np.ones(len(lags))

    a0 = k_hat.T @ q_hat
    s0 = softmax_cols(a0, tau)
    inst = v @ s0

    lag_terms = []
    lagged_sum = np.zeros_like(inst)
    for w, l in zip(weights, lags):
        a_l = roll(k_hat, l).T @ q_hat
        s_l = softmax_cols(a_l, tau)
        term = roll(v, l) @ s_l
        lag_terms.append((l, a_l, s_l, term))
        lagged_sum += w * term

    out = (1.0 - beta) * inst + beta * lagged_sum
    cache = (q, k, v, q_hat, k_hat, raw, lam, beta, tau,
             a0, s0, inst, lag_terms, weights, omega, scores, lagged_sum, selection)
    return out, cache


def correlated_attention_bwd(cache, g):
    """Returns (dq, dk, dv, draw), ``draw`` keyed like ``CAB_RAW``."""
    (q, k, v, q_hat, k_hat, raw, lam, beta, tau,
     a0, s0, inst, lag_terms, weights, omega, scores, lagged_sum, _sel) = cache

    dv = np.zeros_like(v)
    dq_hat = np.zeros_like(q_hat)
    dk_hat = np.zeros_like(k_hat)
    dtau = 0.0

    dbeta = float((g * (lagged_sum - inst)).sum())

    def backprop_term(l, a_l, s_l, dterm):
        nonlocal dtau
        v_l = roll(v, l)
        dv[...] += roll_adjoint(dterm @ s_l.T, l)
        ds = v_l.T @ dterm
        da, dt = softmax_cols_adjoint(ds, s_l, a_l, tau)
        dtau += dt
        dq_hat[...] += roll(k_hat, l) @ da
        dk_hat[...] += roll_adjoint(q_hat @ da.T, l)

    backprop_term(0, a0, s0, (1.0 - beta) * g)

    dlam = 0.0
    if lag_terms:
        if omega is not None:
            # soft-score mode: weights depend on lambda via the combined
            # scores of the selected lags (score stats held constant w.r.t.
            # q, k, consistent with frozen selection)
            domega = np.array([len(lag_terms) * beta * float((g * term).sum())
                               for (_, _, _, term) in lag_terms])
            dcomb = omega * (domega - float((omega * domega).sum()))
            dd = np.array([scores.diag_scores[l] - scores.nondiag_scores[l]
                           for (l, _, _, _) in lag_terms])
            dlam = float((dcomb * dd).sum())
        for w, (l, a_l, s_l, term) in zip(weights, lag_terms):
            backprop_term(l, a_l, s_l, beta * w * g)

    dq = l2_normalize_cols_adjoint(dq_hat, q)
    dk = l2_normalize_cols_adjoint(dk_hat, k)

    # chain to the raws; beta pinned to 0 (no filtering) has slope 0
    draw = {"beta_raw": dbeta * (beta * (1.0 - beta)),
            "tau_raw": dtau * float(sigmoid(raw["tau_raw"])),
            "lambda_raw": dlam * (lam * (1.0 - lam))}
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
