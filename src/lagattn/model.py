"""Encoder-only transformer assembly around mixture-of-head attention.

Forward and backward run on a chunk of B samples at once (B x T x d
float64, time-major per sample): the rows of every sample go through each
dense layer as one (B T) x d matrix, and each block's attention folds the
samples into its head stacks. A batch runs in chunks of at most
``chunk_size`` samples and averages the per-sample losses and gradients.
All learnable tensors live in a flat registry (name -> Param) so the
optimizer, the checkpoint and a finite-difference check can treat the whole
model uniformly.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import namedtuple
from dataclasses import asdict, dataclass

import numpy as np

from .attention import (
    CAB_RAW,
    CabOptions,
    MixtureWeights,
    mixture_of_head_bwd,
    mixture_of_head_fwd,
)
from .numerics import (
    Param,
    ParameterError,
    ScalarRangeError,
    ShapeError,
    as_matrix,
    sigmoid,
    softplus,
    zero_grads,
)
from .xcorr import topk_count

LN_EPS = 1e-8
SIGMA_EPS = 1e-5


class DegenerateTaskError(ValueError):
    """Task setup makes the loss undefined (e.g. imputation with no mask)."""


class NumericalFailure(RuntimeError):
    """A non-finite loss, gradient or reported metric."""


def sigmoid_inv(p: float) -> float:
    if not 0.0 < p < 1.0:
        raise ParameterError(f"value {p} not in (0, 1)")
    return math.log(p / (1.0 - p))


def softplus_inv(t: float) -> float:
    if not t > 0.0:
        raise ParameterError(f"value {t} not positive")
    return math.log(math.expm1(t))


# ---------------------------------------------------------------------------
# stationarization


@dataclass
class StationaryStats:
    mu: np.ndarray      # per-feature mean (per sample of a chunk)
    sigma: np.ndarray   # per-feature std, floored at SIGMA_EPS


def stationarize(x, epsilon: float = SIGMA_EPS):
    """Standardize each feature of each sample over its time axis."""
    x = as_matrix(x)
    mu = x.mean(axis=-2, keepdims=True)
    xc = x - mu
    with np.errstate(over="ignore"):
        sigma = np.sqrt((xc * xc).mean(axis=-2, keepdims=True))
    big = np.isinf(sigma)
    if big.any():
        # a column above about 1e154 overflows its sum of squares: scale it by
        # its largest magnitude (every other column divides by 1, exactly)
        scale = np.where(big, np.abs(xc).max(axis=-2, keepdims=True), 1.0)
        sigma = scale * np.sqrt(np.square(xc / scale).mean(axis=-2, keepdims=True))
    sigma = np.maximum(sigma, epsilon)
    return xc / sigma, StationaryStats(mu[..., 0, :], sigma[..., 0, :])


def destationarize(xp, stats: StationaryStats):
    return as_matrix(xp) * stats.sigma[..., None, :] + stats.mu[..., None, :]


# ---------------------------------------------------------------------------
# configuration


@dataclass
class RunConfig:
    """Every knob of a run, model and training alike; defaults follow the
    reference regime (tau = 1, lambda = beta = 1/2, h = 16, m = 8, 30 epochs,
    patience 10, batch 16, or 128 for anomaly detection)."""

    task: str = "imputation"            # imputation | anomaly | classification
    d_in: int = 8
    d_model: int = 16
    d_k: int = 8
    h: int = 16
    m: int = 8                          # heads 1..m temporal, rest correlated
    n_blocks: int = 1
    n_classes: int = 2
    c: int = 1
    temporal: str = "self"              # self | destat
    positional: str = "none"            # none | sin
    lag_path: str = "fft"               # fft | naive
    ablation: str = "baseline"
    cab: bool = True                    # off => every head temporal
    lr: float = 1e-3
    batch_size: int = 16
    epochs: int = 30
    patience: int = 10
    seed: int = 0
    lambda_mode: str = "fixed"          # fixed | learnable (soft-score extension)
    beta_learnable: bool = True
    tau_learnable: bool = True
    lambda_init: float = 0.5
    beta_init: float = 0.5              # decoded only when filtering is on
    tau_init: float = 1.0
    filtering_enabled: bool = True      # off => instantaneous-only, beta = 0

    def config_hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    @property
    def n_temporal(self) -> int:
        """Heads 0..n_temporal-1 are temporal, the rest correlated."""
        return self.m if self.cab else self.h

    @property
    def d_ff(self) -> int:
        return 4 * self.d_model

    @property
    def d_out(self) -> int:
        return self.n_classes if self.task == "classification" else self.d_in


def _cab_scalars(cfg: RunConfig) -> dict:
    """Raw scalar name -> (value decoded from its init, learnable?) for every
    correlated head. A learnable scalar gets one registry entry per block,
    an array of one value per correlated head; the rest stay at the decoded
    value."""
    return {
        "beta_raw": (sigmoid_inv(cfg.beta_init) if cfg.filtering_enabled else 0.0,
                     cfg.filtering_enabled and cfg.beta_learnable),
        "tau_raw": (softplus_inv(cfg.tau_init), cfg.tau_learnable),
        "lambda_raw": (sigmoid_inv(cfg.lambda_init), cfg.lambda_mode == "learnable"),
    }


def init_params(cfg: RunConfig, seed: int = 0) -> dict:
    """The registry. A block's attention is stacked over its heads (see
    attention.MixtureWeights): ``block{b}.w_qkv`` and ``block{b}.tau_raw``
    (and ``beta_raw``, ``lambda_raw`` when learnable)."""
    rng = np.random.default_rng(seed)

    def mat(name, rows, cols):
        params[name] = Param(name, rng.normal(0.0, 1.0 / math.sqrt(rows), (rows, cols)))

    params: dict = {}
    n_corr = cfg.h - cfg.n_temporal
    mat("embed.w", cfg.d_in, cfg.d_model)
    for b in range(cfg.n_blocks):
        # the same numbers as drawing W_q, W_k, W_v of head 0, then of head
        # 1, ..., one d_model x d_k matrix at a time
        w_qkv = rng.normal(0.0, 1.0 / math.sqrt(cfg.d_model),
                           (cfg.h, 3, cfg.d_model, cfg.d_k)).transpose(2, 1, 0, 3)
        params[f"block{b}.w_qkv"] = Param(f"block{b}.w_qkv", np.ascontiguousarray(w_qkv))
        for suffix, (raw, learnable) in _cab_scalars(cfg).items():
            if learnable and n_corr:
                name = f"block{b}.{suffix}"
                params[name] = Param(name, np.full(n_corr, raw))
        mat(f"block{b}.w_o", cfg.h * cfg.d_k, cfg.d_model)
        for ln in ("ln1", "ln2"):
            params[f"block{b}.{ln}.gain"] = Param(f"block{b}.{ln}.gain", np.ones(cfg.d_model))
            params[f"block{b}.{ln}.bias"] = Param(f"block{b}.{ln}.bias", np.zeros(cfg.d_model))
        mat(f"block{b}.ff.w1", cfg.d_model, cfg.d_ff)
        params[f"block{b}.ff.b1"] = Param(f"block{b}.ff.b1", np.zeros(cfg.d_ff))
        mat(f"block{b}.ff.w2", cfg.d_ff, cfg.d_model)
        params[f"block{b}.ff.b2"] = Param(f"block{b}.ff.b2", np.zeros(cfg.d_model))
    if cfg.temporal == "destat" and cfg.n_temporal > 0:
        hidden = 2 * cfg.d_model
        mat("destat.xi.w1", 2 * cfg.d_in, hidden)
        params["destat.xi.b1"] = Param("destat.xi.b1", np.zeros(hidden))
        mat("destat.xi.w2", hidden, 1)
        params["destat.xi.b2"] = Param("destat.xi.b2", np.zeros(1))
        mat("destat.delta.w1", cfg.d_in, hidden)
        params["destat.delta.b1"] = Param("destat.delta.b1", np.zeros(hidden))
        mat("destat.delta.w2", hidden, 1)
        params["destat.delta.b2"] = Param("destat.delta.b2", np.zeros(1))
    mat("head.w", cfg.d_model, cfg.d_out)
    params["head.b"] = Param("head.b", np.zeros(cfg.d_out))
    return params


# ---------------------------------------------------------------------------
# small layers


def _layernorm_fwd(x, gain, bias):
    """Normalizes each row (last axis) of a matrix of rows."""
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + LN_EPS)
    y = xc * inv
    return y * gain + bias, (y, inv, gain)


def _layernorm_bwd(cache, g):
    y, inv, gain = cache
    dgain = (g * y).sum(axis=0)
    dbias = g.sum(axis=0)
    dy = g * gain
    dx = inv * (dy - dy.mean(axis=-1, keepdims=True)
                - y * (dy * y).mean(axis=-1, keepdims=True))
    return dx, dgain, dbias


def _mlp2_fwd(x, w1, b1, w2, b2):
    """Two-layer map with tanh hidden activation (used by the projectors)."""
    z = x @ w1 + b1
    a = np.tanh(z)
    return a @ w2 + b2, (x, a, w1, w2)


def _mlp2_bwd(cache, g):
    x, a, w1, w2 = cache
    dw2 = a.T @ g
    db2 = g.sum(axis=0)
    da = g @ w2.T
    dz = da * (1.0 - a * a)
    dw1 = x.T @ dz
    db1 = dz.sum(axis=0)
    dx = dz @ w1.T
    return dx, dw1, db1, dw2, db2


def _positional_encoding(t: int, d: int) -> np.ndarray:
    pos = np.arange(t)[:, None]
    i = np.arange(d)[None, :]
    angles = pos / np.power(10000.0, (2 * (i // 2)) / d)
    pe = np.where(i % 2 == 0, np.sin(angles), np.cos(angles))
    return pe


# ---------------------------------------------------------------------------
# forward / backward

# What model_backward needs: the B x T x d input, masked, and its
# stationarization, the (B T) x d_model encoder output, per block the mixture
# cache (attention.MixCache), the layernorm caches and the feed-forward
# activations, and the de-stationary projector caches (None without destat
# heads).
ModelCache = namedtuple("ModelCache", "x xp stats hrep blocks destat")
BlockCache = namedtuple("BlockCache", "attn ln1 r1 a1 ln2")


def model_forward(x, params: dict, cfg: RunConfig, mask=None):
    """Full forward pass: mask, stationarize, embed, encoder blocks, task head.

    ``x`` is a B x T x d chunk, or one T x d sample that runs as a chunk of
    one and gets its prediction without the sample axis. A ``mask`` of the
    shape of ``x`` (imputation: True where observed) zeroes the hidden
    entries of the input first; the cache keeps that masked input. Returns
    (prediction, cache), the prediction per sample: for reconstruction tasks
    destationarized back to the input scale, for classification the logits
    over classes.
    """
    x = as_matrix(x)
    if x.ndim > 3 or x.shape[-1] != cfg.d_in:
        raise ShapeError(f"input of shape {x.shape}: expected T x {cfg.d_in} or "
                         f"B x T x {cfg.d_in}")
    if mask is not None:
        if np.shape(mask) != x.shape:
            raise ShapeError(f"mask of shape {np.shape(mask)} for an input of "
                             f"shape {x.shape}")
        x = x * mask
    single = x.ndim == 2
    x = x[None] if single else x
    n, t, _ = x.shape
    xp, stats = stationarize(x)

    xi = delta = None
    destat_caches = None
    if cfg.temporal == "destat" and cfg.n_temporal > 0:
        stats_vec = np.concatenate([stats.mu, stats.sigma], axis=1)
        xi_pre, xi_cache = _mlp2_fwd(stats_vec, params["destat.xi.w1"].value,
                                     params["destat.xi.b1"].value,
                                     params["destat.xi.w2"].value,
                                     params["destat.xi.b2"].value)
        xi = softplus(xi_pre[:, 0])
        delta_out, delta_cache = _mlp2_fwd(x.reshape(n * t, -1),
                                           params["destat.delta.w1"].value,
                                           params["destat.delta.b1"].value,
                                           params["destat.delta.w2"].value,
                                           params["destat.delta.b2"].value)
        delta = delta_out.reshape(n, t)
        destat_caches = (xi_pre[:, 0], xi_cache, delta_cache)

    # every dense layer acts on the rows of all samples at once
    hrep = xp.reshape(n * t, -1) @ params["embed.w"].value
    if cfg.positional == "sin":
        hrep = hrep + np.tile(_positional_encoding(t, cfg.d_model), (n, 1))

    scalars = _cab_scalars(cfg)
    cab = CabOptions(c=cfg.c, use_fft=cfg.lag_path == "fft",
                     filtering=cfg.filtering_enabled, soft=cfg.lambda_mode == "learnable")

    block_caches = []
    for b in range(cfg.n_blocks):
        raw = {name: params[f"block{b}.{name}"].value if f"block{b}.{name}" in params
               else fixed for name, (fixed, _) in scalars.items()}
        mix = MixtureWeights(params[f"block{b}.w_qkv"].value,
                             params[f"block{b}.w_o"].value, cfg.n_temporal,
                             cfg.temporal, raw, xi, delta, cab)
        try:
            attn_out, attn_cache = mixture_of_head_fwd(hrep.reshape(n, t, -1), mix)
        except ScalarRangeError as exc:
            # every sample repeats the heads' scalars, so the first matrix out
            # of range belongs to the first sample
            name = ("destat.xi" if exc.head is None
                    else f"block{b}.head{cfg.n_temporal + exc.head}.{exc.name}")
            raise ParameterError(f"{name}: {exc}") from exc
        r1, ln1_cache = _layernorm_fwd(hrep + attn_out.reshape(n * t, -1),
                                       params[f"block{b}.ln1.gain"].value,
                                       params[f"block{b}.ln1.bias"].value)
        a1 = r1 @ params[f"block{b}.ff.w1"].value + params[f"block{b}.ff.b1"].value
        np.maximum(a1, 0.0, out=a1)         # relu, in place
        ff_out = a1 @ params[f"block{b}.ff.w2"].value + params[f"block{b}.ff.b2"].value
        r2, ln2_cache = _layernorm_fwd(r1 + ff_out,
                                       params[f"block{b}.ln2.gain"].value,
                                       params[f"block{b}.ln2.bias"].value)
        block_caches.append(BlockCache(attn_cache, ln1_cache, r1, a1, ln2_cache))
        hrep = r2

    if cfg.task == "classification":
        pooled = hrep.reshape(n, t, -1).mean(axis=1)
        pred = pooled @ params["head.w"].value + params["head.b"].value
    else:
        recon_p = hrep @ params["head.w"].value + params["head.b"].value
        pred = destationarize(recon_p.reshape(n, t, -1), stats)
    cache = ModelCache(x, xp, stats, hrep, block_caches, destat_caches)
    return (pred[0] if single else pred), cache


def model_backward(dpred, cache, params: dict, cfg: RunConfig):
    """Accumulate d(loss)/d(param) into Param.grad for every registry entry,
    summed over the samples of the chunk; ``dpred`` has the shape of the
    chunk's prediction (B x T x d, or B x n_classes)."""
    x, xp, stats, hrep, block_caches, destat_caches = cache
    n, t, _ = x.shape

    if cfg.task == "classification":
        dh = np.repeat(dpred @ params["head.w"].value.T, t, axis=0) / t
        params["head.w"].grad += hrep.reshape(n, t, -1).mean(axis=1).T @ dpred
        params["head.b"].grad += dpred.sum(axis=0)
    else:
        drecon_p = (dpred * stats.sigma[:, None, :]).reshape(n * t, -1)
        dh = drecon_p @ params["head.w"].value.T
        params["head.w"].grad += hrep.T @ drecon_p
        params["head.b"].grad += drecon_p.sum(axis=0)

    dxi_total, ddelta_total = np.zeros(n), np.zeros((n, t))
    for b in reversed(range(cfg.n_blocks)):
        attn_cache, ln1_cache, r1, a1, ln2_cache = block_caches[b]
        dr2_in, dg2, db2 = _layernorm_bwd(ln2_cache, dh)
        params[f"block{b}.ln2.gain"].grad += dg2
        params[f"block{b}.ln2.bias"].grad += db2
        # feed-forward branch
        dff = dr2_in
        params[f"block{b}.ff.w2"].grad += a1.T @ dff
        params[f"block{b}.ff.b2"].grad += dff.sum(axis=0)
        da1 = dff @ params[f"block{b}.ff.w2"].value.T
        dz1 = da1 * (a1 > 0.0)
        params[f"block{b}.ff.w1"].grad += r1.T @ dz1
        params[f"block{b}.ff.b1"].grad += dz1.sum(axis=0)
        dr1 = dr2_in + dz1 @ params[f"block{b}.ff.w1"].value.T
        dr1_in, dg1, db1 = _layernorm_bwd(ln1_cache, dr1)
        params[f"block{b}.ln1.gain"].grad += dg1
        params[f"block{b}.ln1.bias"].grad += db1
        dx_attn, dw_qkv, draw, dw_o, dxi, ddelta = mixture_of_head_bwd(
            attn_cache, dr1_in.reshape(n, t, -1))
        params[f"block{b}.w_qkv"].grad += dw_qkv
        params[f"block{b}.w_o"].grad += dw_o
        for name, grad in draw.items():
            if f"block{b}.{name}" in params:    # fixed CAB scalars have no entry
                params[f"block{b}.{name}"].grad += grad
        if ddelta is not None:
            dxi_total += dxi
            ddelta_total += ddelta
        dh = dr1_in + dx_attn.reshape(n * t, -1)

    params["embed.w"].grad += xp.reshape(n * t, -1).T @ dh

    if destat_caches is not None:
        xi_pre, xi_cache, delta_cache = destat_caches
        dxi_pre = dxi_total * sigmoid(xi_pre)
        _, dw1, db1, dw2, db2 = _mlp2_bwd(xi_cache, dxi_pre[:, None])
        params["destat.xi.w1"].grad += dw1
        params["destat.xi.b1"].grad += db1
        params["destat.xi.w2"].grad += dw2
        params["destat.xi.b2"].grad += db2
        _, dw1, db1, dw2, db2 = _mlp2_bwd(delta_cache, ddelta_total.reshape(-1, 1))
        params["destat.delta.w1"].grad += dw1
        params["destat.delta.b1"].grad += db1
        params["destat.delta.w2"].grad += dw2
        params["destat.delta.b2"].grad += db2


# ---------------------------------------------------------------------------
# losses


def task_loss(pred, target, task: str, mask=None):
    """Returns (loss, dpred) for one sample, or for a chunk (leading axis B):
    then ``loss`` holds one value per sample.

    imputation: MSE over the hidden entries (mask == 0) of each sample only;
    anomaly: MSE over all entries; classification: cross-entropy on logits.
    """
    if task == "classification":
        logits = np.asarray(pred, dtype=np.float64)
        labels = np.asarray(target).astype(int)
        rows, cols = np.arange(labels.size), labels.reshape(-1)
        z = logits.reshape(labels.size, -1)
        z = z - z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        loss = -np.log(np.maximum(p[rows, cols], 1e-300))
        p[rows, cols] -= 1.0
        return loss.reshape(labels.shape)[()], p.reshape(logits.shape)
    pred = as_matrix(pred)
    target = as_matrix(target)
    if pred.shape != target.shape:
        raise ShapeError(f"prediction {pred.shape} vs target {target.shape}")
    if task == "imputation":
        hidden = None if mask is None else np.asarray(mask) == 0
        if hidden is None or not hidden.any(axis=(-2, -1)).all():
            raise DegenerateTaskError("imputation needs at least one hidden entry")
        diff = np.where(hidden, pred - target, 0.0)
        count = np.asarray(hidden.sum(axis=(-2, -1)))
    else:
        diff = pred - target
        count = np.asarray(diff.shape[-2] * diff.shape[-1])
    loss = (diff * diff).sum(axis=(-2, -1)) / count
    return loss[()], 2.0 * diff / count[..., None, None]


# A batch runs in the fewest chunks of at most CHUNK_DOUBLES / s samples, of
# near-equal size. s = m T^2 + 2 (h - m) T (k + 1) d_k sizes one sample's
# largest attention temporaries, none of which the caches keep: per
# correlated head, the T d_k^2 all-lags stack and the gather of V over the
# k + 1 lags inside CAB's forward, and the gathers of V, K_hat, g and Q_hat,
# one at a time, in its backward; and the T x T scores of the m temporal
# heads, which exist one row block at a time (attention.BLOCK_DOUBLES), so
# that term overstates them. The stack holds d_k / (k + 1) times the doubles
# of the K_hat gather it replaced in the forward: as many at T = 512, d_k =
# 8, and 4/3 as many at T = 96. The bound is unchanged, and so are the
# chunks: at most 7 samples at T = 96, h = 2, m = 1 (a batch of 8 runs as two
# chunks of 4), and one from h = 16 or T = 512 on. Bigger chunks cost more
# than they save once a chunk's temporaries outgrow what the allocator keeps
# between batches: it hands them back to the system after every batch and
# page-faults them in again (a whole toy batch of 8, peaking at 5.5 MB, did).
CHUNK_DOUBLES = 2 ** 17


def chunk_size(cfg: RunConfig, t: int) -> int:
    """Samples of length ``t`` per chunk."""
    m = cfg.n_temporal
    k = topk_count(cfg.c, t) if cfg.filtering_enabled else 0
    per_sample = m * t * t + 2 * (cfg.h - m) * t * (k + 1) * cfg.d_k
    return max(1, CHUNK_DOUBLES // per_sample)


def _chunks(samples, cfg: RunConfig):
    """The samples, in order, as chunks of (x, target, mask, label) stacked
    along a leading sample axis, a chunk of one like any other (None where
    the task has no such entry)."""
    if not samples:
        return
    n = len(samples)
    count = -(-n // chunk_size(cfg, samples[0][0].shape[0]))
    # the fewest chunks the bound allows, of near-equal size
    for i in range(count):
        chunk = samples[i * n // count:(i + 1) * n // count]
        yield tuple(None if col[0] is None else np.stack(col) for col in zip(*chunk))


def _chunk_loss(chunk, params: dict, cfg: RunConfig):
    """Forward and loss of one chunk: (per-sample losses, dpred, cache)."""
    x, target, mask, label = chunk
    pred, cache = model_forward(x, params, cfg, mask)
    if cfg.task == "classification":
        losses, dpred = task_loss(pred, label, cfg.task)
    else:
        losses, dpred = task_loss(pred, target, cfg.task, mask)
    return losses, dpred, cache


def _chunk_loss_and_grad(chunk, params: dict, cfg: RunConfig) -> float:
    """Summed loss of one chunk; accumulates its gradient. The chunk's caches
    die on return, before the next chunk's forward."""
    losses, dpred, cache = _chunk_loss(chunk, params, cfg)
    model_backward(dpred, cache, params, cfg)
    return float(losses.sum())


def batch_loss_and_grad(batch, params: dict, cfg: RunConfig) -> float:
    """Zeroes grads, averages loss and gradient over the batch."""
    zero_grads(params)
    total = 0.0
    for chunk in _chunks(batch, cfg):
        total += _chunk_loss_and_grad(chunk, params, cfg)
    n = len(batch)
    for p in params.values():
        p.grad /= n
    return total / n


# ---------------------------------------------------------------------------
# optimizer and training


class Adam:
    def __init__(self, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m: dict = {}
        self.v: dict = {}

    def step(self, params: dict):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in params.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(p.value)
                self.v[name] = np.zeros_like(p.value)
            self.m[name] = b1 * self.m[name] + (1 - b1) * p.grad
            self.v[name] = b2 * self.v[name] + (1 - b2) * p.grad**2
            mhat = self.m[name] / (1 - b1**self.t)
            vhat = self.v[name] / (1 - b2**self.t)
            p.value -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


def train_step(batch, params: dict, cfg: RunConfig, optimizer) -> float:
    """One optimization step; returns the pre-update loss."""
    loss = batch_loss_and_grad(batch, params, cfg)
    if not np.isfinite(loss):
        raise NumericalFailure(f"non-finite loss {loss!r}; step aborted")
    for name, p in params.items():
        if not np.isfinite(p.grad).all():
            raise NumericalFailure(f"non-finite gradient in {name}")
    optimizer.step(params)
    return loss


def train_model(train_samples, val_samples, params: dict, cfg: RunConfig):
    """Plain training loop with the fixed-patience early-stopping rule; lr,
    batch size, epochs, patience and shuffling seed come from ``cfg``.

    Returns a list of per-epoch records (dicts with train/val loss).
    """
    if not 0 <= cfg.lr < math.inf:
        raise ParameterError("learning rate must be finite and non-negative")
    opt = Adam(cfg.lr)
    rng = np.random.default_rng(cfg.seed)
    batch_size = cfg.batch_size
    records = []
    best_val = math.inf
    since_best = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(train_samples))
        train_loss, nb = 0.0, 0
        # a scalar driven out of its range (say tau to 0 by a huge step) makes
        # the next forward raise ParameterError: abort the run as numerical,
        # as a non-finite loss or gradient does, naming where
        try:
            for start in range(0, len(order), batch_size):
                batch = [train_samples[j] for j in order[start:start + batch_size]]
                train_loss += train_step(batch, params, cfg, opt)
                nb += 1
            val_loss = evaluate_loss(val_samples, params, cfg)
        except (ParameterError, NumericalFailure) as exc:
            where = f"batch {nb}" if nb * batch_size < len(order) else "validation"
            raise NumericalFailure(f"epoch {epoch}, {where}: {exc}") from exc
        records.append({"epoch": epoch, "train_loss": train_loss / max(nb, 1),
                        "val_loss": val_loss})
        if val_loss < best_val:
            best_val = val_loss
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break
    return records


def evaluate_loss(samples, params: dict, cfg: RunConfig) -> float:
    total = sum(float(_chunk_loss(chunk, params, cfg)[0].sum())
                for chunk in _chunks(samples, cfg))
    return total / max(len(samples), 1)


# ---------------------------------------------------------------------------
# metrics


def anomaly_decision(scores, truth, threshold_quantile: float, val_scores=None):
    """Quantile-threshold anomaly labeling with precision/recall/F1.

    Threshold is the given quantile of ``val_scores`` (falling back to the
    test scores themselves). With nothing flagged and nothing true, P, R and
    F1 are all defined as 1.0. All-equal scores are reported as degenerate.
    """
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth).astype(bool)
    if not 0.0 < threshold_quantile < 1.0:
        raise ParameterError("threshold_quantile must lie in (0, 1)")
    ref = np.asarray(val_scores, dtype=np.float64) if val_scores is not None else scores
    degenerate = bool(np.all(ref == ref[0]))
    threshold = float(np.quantile(ref, threshold_quantile))
    labels = scores > threshold
    tp = int(np.sum(labels & truth))
    fp = int(np.sum(labels & ~truth))
    fn = int(np.sum(~labels & truth))
    precision = tp / (tp + fp) if (tp + fp) > 0 else 1.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 1.0
    f1 = (2 * precision * recall / (precision + recall)
          if (precision + recall) > 0 else 0.0)
    return {"labels": labels, "threshold": threshold, "precision": precision,
            "recall": recall, "f1": f1, "degenerate": degenerate}


def evaluate_metrics(samples, params: dict, cfg: RunConfig,
                     val_samples=None, threshold_quantile: float = 0.99) -> dict:
    """Per-task test metrics: MSE+MAE, P/R/F1, or accuracy.

    Scores one sample at a time, each through its own input array: a trace
    that follows samples (the benchmark's planted-lag recall) finds a sample
    by that array. Only the prediction is kept, so no sample's cache is alive
    during the next sample's forward.
    """
    if cfg.task == "classification":
        correct = 0
        for x_in, target, mask, label in samples:
            pred = model_forward(x_in, params, cfg)[0]
            correct += int(np.argmax(pred) == int(label))
        return {"accuracy": correct / max(len(samples), 1)}
    if cfg.task == "imputation":
        se, ae, n = 0.0, 0.0, 0
        for x_in, target, mask, label in samples:
            pred = model_forward(x_in, params, cfg, mask)[0]
            hidden = (np.asarray(mask) == 0)
            diff = (pred - target)[hidden]
            se += float((diff * diff).sum())
            ae += float(np.abs(diff).sum())
            n += diff.size
        return {"mse": se / max(n, 1), "mae": ae / max(n, 1)}
    # anomaly: per-time-step reconstruction error, quantile threshold
    def step_errors(sset):
        errs, flags = [], []
        for x_in, target, mask, label in sset:
            pred = model_forward(x_in, params, cfg)[0]
            errs.append(((pred - target) ** 2).mean(axis=1))
            flags.append(np.asarray(label if label is not None else
                                    np.zeros(pred.shape[0])))
        return np.concatenate(errs), np.concatenate(flags)

    test_errs, test_truth = step_errors(samples)
    val_errs = step_errors(val_samples)[0] if val_samples else None
    dec = anomaly_decision(test_errs, test_truth, threshold_quantile, val_errs)
    return {"precision": dec["precision"], "recall": dec["recall"], "f1": dec["f1"],
            "threshold": dec["threshold"], "degenerate": dec["degenerate"]}


# ---------------------------------------------------------------------------
# checkpoint I/O

CHECKPOINT_TAG = "lagattn-checkpoint v1"


class CheckpointError(ValueError):
    pass


def _checkpoint_slots(params: dict):
    """(checkpoint name, registry entry, index into its value) of every
    checkpoint entry. A block's stacked attention is stored per head:
    ``block{b}.head{i}.w_q`` (``w_k``, ``w_v``) is ``w_qkv[:, 0, i]`` (1, 2),
    and ``block{b}.head{m + j}.tau_raw`` is ``block{b}.tau_raw[j]``."""
    for name, p in params.items():
        block, _, suffix = name.rpartition(".")
        if suffix == "w_qkv":
            for i in range(p.value.shape[2]):
                for j, w in enumerate(("w_q", "w_k", "w_v")):
                    yield f"{block}.head{i}.{w}", p, (slice(None), j, i)
        elif suffix in CAB_RAW:
            m = params[f"{block}.w_qkv"].value.shape[2] - p.value.size
            for j in range(p.value.size):
                yield f"{block}.head{m + j}.{suffix}", p, j
        else:
            yield name, p, ...


def save_checkpoint(path, params: dict) -> None:
    values = {name: np.asarray(p.value[at]) for name, p, at in _checkpoint_slots(params)}
    with open(path, "w") as fh:
        fh.write(CHECKPOINT_TAG + "\n")
        for name, v in sorted(values.items()):
            dims = " ".join(str(d) for d in v.shape)
            fh.write(f"{name} {v.ndim}{' ' + dims if dims else ''}\n")
            fh.write(",".join(map(repr, v.reshape(-1).tolist())) + "\n")


def load_checkpoint(path) -> dict:
    """Returns name -> ndarray; raises CheckpointError on malformed input."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CHECKPOINT_TAG:
        raise CheckpointError(f"{path}: bad or missing format tag on line 1")
    out = {}
    i = 1
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        header = lines[i].split()
        if len(header) < 2:
            raise CheckpointError(f"{path}: malformed header at line {i + 1}")
        name = header[0]
        try:
            ndim = int(header[1])
            shape = tuple(int(s) for s in header[2:2 + ndim])
        except ValueError:
            raise CheckpointError(f"{path}: non-integer dimension in header at "
                                  f"line {i + 1}") from None
        if len(shape) != ndim or any(s < 0 for s in shape):
            raise CheckpointError(f"{path}: header/shape mismatch at line {i + 1}")
        if i + 1 >= len(lines):
            raise CheckpointError(f"{path}: missing values for {name}")
        try:
            vals = (np.loadtxt([lines[i + 1]], delimiter=",", comments=None, ndmin=1)
                    if lines[i + 1] else np.empty(0))
        except ValueError:
            raise CheckpointError(f"{path}: non-numeric value for {name} at "
                                  f"line {i + 2}") from None
        expected = int(np.prod(shape)) if shape else 1
        if vals.size != expected:
            raise CheckpointError(f"{path}: {name} expected {expected} values, "
                                  f"got {vals.size}")
        if not np.isfinite(vals).all():
            raise CheckpointError(f"{path}: non-finite value for {name} at "
                                  f"line {i + 2}")
        out[name] = vals.reshape(shape)
        i += 2
    return out


def load_into(params: dict, path) -> None:
    values = load_checkpoint(path)
    for name, p, at in _checkpoint_slots(params):
        if name not in values:
            raise CheckpointError(f"{path}: missing parameter {name}")
        if values[name].shape != np.shape(p.value[at]):
            raise CheckpointError(f"{path}: shape mismatch for {name}")
        p.value[at] = values[name]
