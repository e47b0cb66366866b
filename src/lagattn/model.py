"""Encoder-only transformer assembly around mixture-of-head attention.

Forward and backward run on a chunk of B samples at once (B x T x d
float64, time-major per sample): the rows of every sample go through each
dense layer as one (B T) x d matrix, and each block's attention folds the
samples into its head stacks. Heads 0..m-1 of a block are temporal and the
rest correlated (CAB); m = h is the base Transformer the paper starts from.
A loaded sample is a chunk of one (synthdata.to_training_sample), the only
input form; a batch joins them into chunks of at most ``chunk_size``
samples and averages the per-sample losses and gradients.
All learnable tensors live in a flat registry (name -> Param) so the
optimizer, the checkpoint and a finite-difference check can treat the whole
model uniformly. A block's ReLU feed-forward and the tanh de-stationary
projectors share one two-layer MLP kernel; it and the layernorm read the
entries under the registry prefix they are given and add their gradients.
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
    reference regime (beta = 1/2, h = 16, m = 8, 30 epochs, patience 10,
    batch 16, or 128 for anomaly detection). Every correlated head starts at
    tau = 1 and lambda = 1/2 (attention.CAB_RAW), tau learnable."""

    task: str = "imputation"            # imputation | anomaly | classification
    d_in: int = 8
    d_model: int = 16
    d_k: int = 8
    h: int = 16
    m: int = 8                          # heads 0..m-1 temporal, rest correlated;
                                        # m = h is the base model, without CAB
    n_blocks: int = 1
    n_classes: int = 2
    c: int = 1
    temporal: str = "self"              # self | destat
    lag_path: str = "fft"               # fft | naive
    ablation: str = "baseline"
    lr: float = 1e-3
    batch_size: int = 16
    epochs: int = 30
    patience: int = 10
    seed: int = 0
    lambda_mode: str = "fixed"          # fixed | learnable (soft-score extension)
    beta_learnable: bool = True
    beta_init: float = 0.5              # decoded only when filtering is on
    filtering_enabled: bool = True      # off => instantaneous-only, beta = 0

    def config_hash(self) -> str:
        blob = json.dumps({**REMOVED_FIELDS, **asdict(self)}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    @property
    def d_ff(self) -> int:
        return 4 * self.d_model

    @property
    def d_out(self) -> int:
        return self.n_classes if self.task == "classification" else self.d_in


# Fields RunConfig no longer has, each at the value every config that can
# still be expressed had: config_hash hashes them beside the fields, so such
# a config keeps its hash, and a config file may still name one at that
# value only (cli.config_from_dict).
REMOVED_FIELDS = {
    "cab": True,                # the base model is m = h: every head temporal
    "positional": "none",
    "tau_init": 1.0,            # tau starts at softplus(CAB_RAW["tau_raw"]) = 1
    "tau_learnable": True,
    "lambda_init": 0.5,         # lambda starts at sigmoid(CAB_RAW["lambda_raw"]) = 1/2
}


def _cab_scalars(cfg: RunConfig) -> dict:
    """Raw scalar name -> (initial value, learnable?) for every correlated
    head. A learnable scalar gets one registry entry per block, an array of
    one value per correlated head; the rest stay at their initial value."""
    return {
        "beta_raw": (sigmoid_inv(cfg.beta_init) if cfg.filtering_enabled else 0.0,
                     cfg.filtering_enabled and cfg.beta_learnable),
        "tau_raw": (CAB_RAW["tau_raw"], True),
        "lambda_raw": (CAB_RAW["lambda_raw"], cfg.lambda_mode == "learnable"),
    }


def init_params(cfg: RunConfig, seed: int = 0) -> dict:
    """The registry. A block's attention is stacked over its heads (see
    attention.MixtureWeights): ``block{b}.w_qkv`` and ``block{b}.tau_raw``
    (and ``beta_raw``, ``lambda_raw`` when learnable)."""
    rng = np.random.default_rng(seed)

    def add(name, value):
        params[name] = Param(name, value)

    def mat(name, rows, cols):
        add(name, rng.normal(0.0, 1.0 / math.sqrt(rows), (rows, cols)))

    def mlp(prefix, rows, hidden, cols):
        mat(f"{prefix}.w1", rows, hidden)
        add(f"{prefix}.b1", np.zeros(hidden))
        mat(f"{prefix}.w2", hidden, cols)
        add(f"{prefix}.b2", np.zeros(cols))

    params: dict = {}
    n_corr = cfg.h - cfg.m
    mat("embed.w", cfg.d_in, cfg.d_model)
    for b in range(cfg.n_blocks):
        # the same numbers as drawing W_q, W_k, W_v of head 0, then of head
        # 1, ..., one d_model x d_k matrix at a time
        w_qkv = rng.normal(0.0, 1.0 / math.sqrt(cfg.d_model),
                           (cfg.h, 3, cfg.d_model, cfg.d_k)).transpose(2, 1, 0, 3)
        add(f"block{b}.w_qkv", np.ascontiguousarray(w_qkv))
        for suffix, (raw, learnable) in _cab_scalars(cfg).items():
            if learnable and n_corr:
                add(f"block{b}.{suffix}", np.full(n_corr, raw))
        mat(f"block{b}.w_o", cfg.h * cfg.d_k, cfg.d_model)
        for ln in ("ln1", "ln2"):
            add(f"block{b}.{ln}.gain", np.ones(cfg.d_model))
            add(f"block{b}.{ln}.bias", np.zeros(cfg.d_model))
        mlp(f"block{b}.ff", cfg.d_model, cfg.d_ff, cfg.d_model)
    if cfg.temporal == "destat" and cfg.m > 0:
        mlp("destat.xi", 2 * cfg.d_in, 2 * cfg.d_model, 1)
        mlp("destat.delta", cfg.d_in, 2 * cfg.d_model, 1)
    mat("head.w", cfg.d_model, cfg.d_out)
    add("head.b", np.zeros(cfg.d_out))
    return params


# ---------------------------------------------------------------------------
# small layers


def _layernorm_fwd(x, params: dict, prefix: str):
    """Normalizes each row (last axis) of a matrix of rows, then scales and
    shifts it by ``prefix.gain`` and ``prefix.bias``: (output, cache)."""
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + LN_EPS)
    y = xc * inv
    return y * params[f"{prefix}.gain"].value + params[f"{prefix}.bias"].value, (y, inv)


def _layernorm_bwd(cache, g, params: dict, prefix: str):
    """Adds the gain and bias gradients into the registry; returns dx."""
    y, inv = cache
    gain, bias = params[f"{prefix}.gain"], params[f"{prefix}.bias"]
    gain.grad += (g * y).sum(axis=0)
    bias.grad += g.sum(axis=0)
    dy = g * gain.value
    return inv * (dy - dy.mean(axis=-1, keepdims=True)
                  - y * (dy * y).mean(axis=-1, keepdims=True))


def _mlp_fwd(x, params: dict, prefix: str, relu: bool):
    """Two-layer map of the rows of ``x`` by ``prefix.{w1,b1,w2,b2}``, with a
    ReLU (the feed-forward block) or tanh (the de-stationary projectors)
    hidden layer: (output, hidden activation)."""
    a = x @ params[f"{prefix}.w1"].value + params[f"{prefix}.b1"].value
    if relu:
        np.maximum(a, 0.0, out=a)
    else:
        np.tanh(a, out=a)
    return a @ params[f"{prefix}.w2"].value + params[f"{prefix}.b2"].value, a


def _mlp_bwd(x, a, g, params: dict, prefix: str, relu: bool):
    """Adds the four ``prefix`` gradients into the registry, given the input
    ``x``, the hidden activation ``a`` and the output gradient ``g``; returns
    dx."""
    w1, b1, w2, b2 = (params[f"{prefix}.{n}"] for n in ("w1", "b1", "w2", "b2"))
    w2.grad += a.T @ g
    b2.grad += g.sum(axis=0)
    da = g @ w2.value.T
    dz = da * (a > 0.0) if relu else da * (1.0 - a * a)
    w1.grad += x.T @ dz
    b1.grad += dz.sum(axis=0)
    return dz @ w1.value.T


# ---------------------------------------------------------------------------
# forward / backward

# What model_backward needs: the B x T x d input, masked, and its
# stationarization, the (B T) x d_model encoder output, per block the mixture
# cache (attention.MixCache), the layernorm caches, the feed-forward input r1
# and hidden activation a1, and for the de-stationary projectors (None without
# destat heads) the xi input (mu and sigma per sample), xi before its
# softplus, and the xi and delta hidden activations; the delta input is x.
ModelCache = namedtuple("ModelCache", "x xp stats hrep blocks destat")
BlockCache = namedtuple("BlockCache", "attn ln1 r1 a1 ln2")


def model_forward(x, params: dict, cfg: RunConfig, mask=None):
    """Full forward pass: mask, stationarize, embed, encoder blocks, task head.

    ``x`` is a B x T x d chunk; one sample is a chunk of one. A ``mask`` of
    the shape of ``x`` (imputation: True where observed) zeroes the hidden
    entries of the input first; the cache keeps that masked input. Returns
    (prediction, cache), the prediction per sample: for reconstruction tasks
    destationarized back to the input scale, for classification the logits
    over classes.
    """
    x = as_matrix(x)
    if x.ndim != 3 or x.shape[-1] != cfg.d_in:
        raise ShapeError(f"input of shape {x.shape}: expected B x T x {cfg.d_in}")
    if mask is not None:
        if np.shape(mask) != x.shape:
            raise ShapeError(f"mask of shape {np.shape(mask)} for an input of "
                             f"shape {x.shape}")
        x = x * mask
    n, t, _ = x.shape
    xp, stats = stationarize(x)

    xi = delta = None
    destat_cache = None
    if cfg.temporal == "destat" and cfg.m > 0:
        stats_vec = np.concatenate([stats.mu, stats.sigma], axis=1)
        xi_pre, a_xi = _mlp_fwd(stats_vec, params, "destat.xi", relu=False)
        xi = softplus(xi_pre[:, 0])
        delta_out, a_delta = _mlp_fwd(x.reshape(n * t, -1), params, "destat.delta",
                                      relu=False)
        delta = delta_out.reshape(n, t)
        destat_cache = (stats_vec, xi_pre[:, 0], a_xi, a_delta)

    # every dense layer acts on the rows of all samples at once
    hrep = xp.reshape(n * t, -1) @ params["embed.w"].value

    scalars = _cab_scalars(cfg)
    cab = CabOptions(c=cfg.c, use_fft=cfg.lag_path == "fft",
                     filtering=cfg.filtering_enabled, soft=cfg.lambda_mode == "learnable")

    block_caches = []
    for b in range(cfg.n_blocks):
        raw = {name: params[f"block{b}.{name}"].value if f"block{b}.{name}" in params
               else fixed for name, (fixed, _) in scalars.items()}
        mix = MixtureWeights(params[f"block{b}.w_qkv"].value,
                             params[f"block{b}.w_o"].value, cfg.m,
                             cfg.temporal, raw, xi, delta, cab)
        try:
            attn_out, attn_cache = mixture_of_head_fwd(hrep.reshape(n, t, -1), mix)
        except ScalarRangeError as exc:
            # every sample repeats the heads' scalars, so the first matrix out
            # of range belongs to the first sample
            name = ("destat.xi" if exc.head is None
                    else f"block{b}.head{cfg.m + exc.head}.{exc.name}")
            raise ParameterError(f"{name}: {exc}") from exc
        r1, ln1_cache = _layernorm_fwd(hrep + attn_out.reshape(n * t, -1), params,
                                       f"block{b}.ln1")
        ff_out, a1 = _mlp_fwd(r1, params, f"block{b}.ff", relu=True)
        r2, ln2_cache = _layernorm_fwd(r1 + ff_out, params, f"block{b}.ln2")
        block_caches.append(BlockCache(attn_cache, ln1_cache, r1, a1, ln2_cache))
        hrep = r2

    if cfg.task == "classification":
        pooled = hrep.reshape(n, t, -1).mean(axis=1)
        pred = pooled @ params["head.w"].value + params["head.b"].value
    else:
        recon_p = hrep @ params["head.w"].value + params["head.b"].value
        pred = destationarize(recon_p.reshape(n, t, -1), stats)
    cache = ModelCache(x, xp, stats, hrep, block_caches, destat_cache)
    return pred, cache


def model_backward(dpred, cache, params: dict, cfg: RunConfig):
    """Accumulate d(loss)/d(param) into Param.grad for every registry entry,
    summed over the samples of the chunk; ``dpred`` has the shape of the
    chunk's prediction (B x T x d, or B x n_classes)."""
    x, xp, stats, hrep, block_caches, destat_cache = cache
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
        dr2_in = _layernorm_bwd(ln2_cache, dh, params, f"block{b}.ln2")
        dr1 = dr2_in + _mlp_bwd(r1, a1, dr2_in, params, f"block{b}.ff", relu=True)
        dr1_in = _layernorm_bwd(ln1_cache, dr1, params, f"block{b}.ln1")
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

    if destat_cache is not None:
        stats_vec, xi_pre, a_xi, a_delta = destat_cache
        dxi_pre = dxi_total * sigmoid(xi_pre)
        _mlp_bwd(stats_vec, a_xi, dxi_pre[:, None], params, "destat.xi", relu=False)
        _mlp_bwd(x.reshape(n * t, -1), a_delta, ddelta_total.reshape(-1, 1), params,
                 "destat.delta", relu=False)


# ---------------------------------------------------------------------------
# losses


def task_loss(pred, target, task: str, mask=None):
    """Returns (loss, dpred) for a chunk of B samples, ``loss`` one value per
    sample: B x T x d predictions against their targets, or B x n_classes
    logits against B labels.

    imputation: MSE over the hidden entries (mask == 0) of each sample only;
    anomaly: MSE over all entries; classification: cross-entropy on logits.
    """
    if task == "classification":
        z = np.asarray(pred, dtype=np.float64)
        labels = np.asarray(target).astype(int)
        if z.ndim != 2 or labels.shape != z.shape[:1]:
            raise ShapeError(f"logits {z.shape} vs labels {labels.shape}")
        rows = np.arange(labels.size)
        z = z - z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        loss = -np.log(np.maximum(p[rows, labels], 1e-300))
        p[rows, labels] -= 1.0
        return loss, p
    pred, target = as_matrix(pred), as_matrix(target)
    if pred.ndim != 3 or pred.shape != target.shape:
        raise ShapeError(f"prediction {pred.shape} vs target {target.shape}: "
                         "expected one B x T x d chunk")
    if task == "imputation":
        hidden = None if mask is None else np.asarray(mask) == 0
        if hidden is None or not hidden.any(axis=(1, 2)).all():
            raise DegenerateTaskError("imputation needs at least one hidden entry")
        diff = np.where(hidden, pred - target, 0.0)
        count = hidden.sum(axis=(1, 2))
    else:
        diff = pred - target
        count = np.asarray(diff[0].size)
    loss = (diff * diff).sum(axis=(1, 2)) / count
    return loss, 2.0 * diff / count[..., None, None]


# A batch runs in the fewest chunks of at most CHUNK_DOUBLES / s samples, of
# near-equal size. s = m T^2 + 2 (h - m) T (k + 1) d_k sizes one sample's
# largest attention temporaries, none of which the caches keep: per correlated
# head, the T d_k^2 all-lags stack and the gather of V over the k + 1 lags
# inside CAB's forward, and the gathers of V, K_hat, g and Q_hat, one at a
# time, in its backward; and the T x T scores of the m temporal heads, which
# exist one row block at a time (attention.BLOCK_DOUBLES), so that term
# overstates them. Chunks hold at most 7 samples at T = 96, h = 2, m = 1 (a
# batch of 8 runs as two chunks of 4), and one from h = 16 or T = 512 on.
# Bigger chunks cost more than they save once a chunk's temporaries outgrow
# what the allocator keeps between batches: it hands them back to the system
# after every batch and page-faults them in again (a whole toy batch of 8,
# peaking at 5.5 MB, did).
CHUNK_DOUBLES = 2 ** 17


def chunk_size(cfg: RunConfig, t: int) -> int:
    """Samples of length ``t`` per chunk."""
    k = topk_count(cfg.c, t) if cfg.filtering_enabled else 0
    per_sample = cfg.m * t * t + 2 * (cfg.h - cfg.m) * t * (k + 1) * cfg.d_k
    return max(1, CHUNK_DOUBLES // per_sample)


def _concat(records):
    """(x, mask, label) records, each a chunk, joined into one chunk (None
    where the task has no such entry)."""
    return tuple(None if col[0] is None else np.concatenate(col) for col in zip(*records))


def _chunks(samples, cfg: RunConfig):
    """The sample records (chunks of one), in order, joined into chunks."""
    if not samples:
        return
    n = len(samples)
    count = -(-n // chunk_size(cfg, samples[0][0].shape[1]))
    # the fewest chunks the bound allows, of near-equal size
    for i in range(count):
        yield _concat(samples[i * n // count:(i + 1) * n // count])


def _chunk_loss(chunk, params: dict, cfg: RunConfig):
    """Forward and loss of one chunk: (per-sample losses, dpred, cache). A
    reconstruction task's target is the chunk's input."""
    x, mask, label = chunk
    pred, cache = model_forward(x, params, cfg, mask)
    losses, dpred = task_loss(pred, label if cfg.task == "classification" else x,
                              cfg.task, mask)
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


# anomaly detection flags a step whose score exceeds this quantile of the
# validation scores
THRESHOLD_QUANTILE = 0.99


def anomaly_decision(scores, truth, threshold_quantile: float, val_scores) -> dict:
    """Quantile-threshold anomaly labeling: precision, recall and F1.

    A score is flagged when it exceeds the given quantile of ``val_scores``.
    With nothing flagged and nothing true, P, R and F1 are all 1.0.
    """
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth).astype(bool)
    if not 0.0 < threshold_quantile < 1.0:
        raise ParameterError("threshold_quantile must lie in (0, 1)")
    labels = scores > np.quantile(np.asarray(val_scores, dtype=np.float64),
                                  threshold_quantile)
    tp = int(np.sum(labels & truth))
    fp = int(np.sum(labels & ~truth))
    fn = int(np.sum(~labels & truth))
    precision = tp / (tp + fp) if (tp + fp) > 0 else 1.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 1.0
    f1 = (2 * precision * recall / (precision + recall)
          if (precision + recall) > 0 else 0.0)
    return {"precision": precision, "recall": recall, "f1": f1}


def evaluate_metrics(samples, params: dict, cfg: RunConfig, val_samples=None) -> dict:
    """Per-task test metrics: MSE+MAE, P/R/F1, or accuracy. Anomaly
    detection takes its threshold from ``val_samples``.

    One forward per stored record, a chunk of one: a trace that follows
    samples (the benchmark's planted-lag recall) finds a sample by its
    record's input array. Only the predictions are kept, so no sample's
    cache is alive during the next sample's forward; each task reduces over
    them, joined, afterwards.
    """
    def predict(sset):
        """(predictions, x, mask, label) of the whole set."""
        preds = [model_forward(x, params, cfg, mask)[0] for x, mask, _ in sset]
        return (np.concatenate(preds), *_concat(sset))

    pred, x, mask, label = predict(samples)
    if cfg.task == "classification":
        return {"accuracy": float(np.mean(np.argmax(pred, axis=1) == label))}
    if cfg.task == "imputation":
        diff = (pred - x)[~mask]
        n = max(diff.size, 1)
        return {"mse": float((diff * diff).sum()) / n, "mae": float(np.abs(diff).sum()) / n}

    # anomaly: per-time-step reconstruction error, quantile threshold
    def step_errors(pred, x, *_):
        return ((pred - x) ** 2).mean(axis=2).reshape(-1)

    truth = np.zeros(x.shape[:2]) if label is None else label
    return anomaly_decision(step_errors(pred, x), truth.reshape(-1), THRESHOLD_QUANTILE,
                            step_errors(*predict(val_samples)))


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
    """Returns name -> ndarray; raises CheckpointError on malformed input,
    an entry named twice included."""
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
        if name in out:
            raise CheckpointError(f"{path}: duplicate entry {name} at line {i + 1}")
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
    """Loads every registry entry from the checkpoint at ``path``; raises
    CheckpointError on an entry missing, of the wrong shape, or that the
    model has no slot for."""
    values = load_checkpoint(path)
    for name, p, at in _checkpoint_slots(params):
        if name not in values:
            raise CheckpointError(f"{path}: missing parameter {name}")
        value = values.pop(name)
        if value.shape != np.shape(p.value[at]):
            raise CheckpointError(f"{path}: shape mismatch for {name}")
        p.value[at] = value
    if values:
        raise CheckpointError(f"{path}: entry {next(iter(values))} is not a "
                              "parameter of this model")
