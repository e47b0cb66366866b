import collections
import copy
import math
import tracemalloc

import numpy as np
import pytest

from lagattn import attention as A
from lagattn import cli
from lagattn import model as M
from lagattn.numerics import sigmoid, softplus, zero_grads
from lagattn.synthdata import (
    DatasetSpec,
    apply_mask,
    gen_lagged_series,
    split_dataset,
    to_training_sample,
)
from lagattn.xcorr import topk_count

from helpers import check_gradient


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


def toy_config(**kw):
    base = dict(task="imputation", d_in=3, d_model=4, d_k=4, h=2, m=1, n_blocks=1)
    base.update(kw)
    return M.RunConfig(**base)


def toy_sample(t=8, d=3, seed=3, mask_p=0.3):
    """An imputation record: (x, mask, label), each a chunk of one."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(1, t, d))
    return (x, rng.random((1, t, d)) > mask_p, None)


class TestStationarize:
    def test_constant_feature(self):
        x = np.full((5, 1), 3.0)
        xp, stats = M.stationarize(x)
        assert np.array_equal(xp, np.zeros((5, 1)))
        assert stats.sigma[0] == M.SIGMA_EPS

    def test_two_point(self):
        xp, stats = M.stationarize(np.array([[0.0], [2.0]]))
        assert np.allclose(xp, [[-1.0], [1.0]])
        assert stats.mu[0] == 1.0 and stats.sigma[0] == 1.0

    def test_roundtrip(self):
        x = rand((20, 5), 4)
        xp, stats = M.stationarize(x)
        assert np.abs(M.destationarize(xp, stats) - x).max() < 1e-10

    def test_output_standardized(self):
        x = 3.0 + 2.5 * rand((50, 4), 5)
        xp, _ = M.stationarize(x)
        assert np.abs(xp.mean(axis=0)).max() < 1e-10
        assert np.abs(xp.std(axis=0) - 1.0).max() < 1e-10

    def test_huge_scale_is_invisible(self):
        # x * 1e200 overflows a plain sum of squares; past stationarize, self
        # attention never sees the input's scale
        x = rand((16, 3), 6)
        for task, kw in (("classification", dict(n_classes=3)), ("imputation", {})):
            cfg = toy_config(task=task, temporal="self", **kw)
            params = M.init_params(cfg, seed=0)
            small = M.model_forward(x[None], params, cfg)[0]
            big = M.model_forward(x[None] * 1e200, params, cfg)[0]
            want = small if task == "classification" else small * 1e200
            assert np.abs(big - want).max() <= 1e-12 * np.abs(want).max(), task
        # a normal sample keeps its bits beside a huge one in its chunk
        xp, stats = M.stationarize(np.stack([x, x * 1e200]))
        alone, alone_stats = M.stationarize(x)
        assert np.array_equal(xp[0], alone)
        assert np.array_equal(stats.sigma[0], alone_stats.sigma)
        assert np.isfinite(stats.sigma).all()


def encoder_output(x, params, cfg):
    """The representation model_forward feeds to the task head, of one T x d
    sample run as a chunk of one."""
    return M.model_forward(x[None], params, cfg)[1].hrep


class TestEncoderForward:
    def test_zero_blocks_is_embedding(self):
        cfg = toy_config(n_blocks=0)
        params = M.init_params(cfg, seed=0)
        x = rand((8, 3), 6)
        xp, _ = M.stationarize(x)
        out = encoder_output(x, params, cfg)
        assert np.array_equal(out, xp @ params["embed.w"].value)

    def test_output_shape(self):
        cfg = toy_config(n_blocks=2, h=2, m=1)
        params = M.init_params(cfg, seed=1)
        assert encoder_output(rand((10, 3), 7), params, cfg).shape == (10, 4)

    def test_deterministic(self):
        cfg = toy_config()
        x = rand((8, 3), 8)
        a = encoder_output(x, M.init_params(cfg, seed=2), cfg)
        b = encoder_output(x, M.init_params(cfg, seed=2), cfg)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("temporal", ["self", "destat"])
    def test_mask_matches_a_masked_copy(self, temporal):
        # the model zeroes the hidden entries itself: bit for bit what a
        # masked copy made outside it gives, for one sample and for a chunk
        cfg = toy_config(temporal=temporal)
        params = M.init_params(cfg, seed=0)
        rng = np.random.default_rng(5)
        x, mask = rng.normal(size=(3, 8, 3)), rng.random((3, 8, 3)) > 0.3
        for values, hide in ((x[:1], mask[:1]), (x, mask)):
            pred, cache = M.model_forward(values, params, cfg, hide)
            want, want_cache = M.model_forward(values * hide, params, cfg)
            assert np.array_equal(pred, want)
            assert np.array_equal(cache.x, want_cache.x)

    def test_wrong_mask_shape(self):
        cfg = toy_config()
        with pytest.raises(M.ShapeError):
            M.model_forward(rand((1, 8, 3), 9), M.init_params(cfg), cfg,
                            np.ones((1, 8, 2), dtype=bool))

    def test_wrong_feature_count(self):
        cfg = toy_config()
        params = M.init_params(cfg, seed=0)
        with pytest.raises(M.ShapeError):
            M.model_forward(rand((1, 8, 5), 9), params, cfg)

    def test_bare_sample_is_refused(self):
        # one input form: a sample is a chunk of one, never a bare T x d array
        cfg = toy_config()
        params = M.init_params(cfg, seed=0)
        x = rand((8, 3), 9)
        with pytest.raises(M.ShapeError, match="expected B x T x 3"):
            M.model_forward(x, params, cfg)
        with pytest.raises(M.ShapeError):
            M.model_forward(x, params, cfg, np.ones((8, 3), dtype=bool))
        pred = M.model_forward(x[None], params, cfg)[0]
        assert pred.shape == (1, 8, 3)


class TestHeadStacks:
    @pytest.mark.parametrize("temporal", ["self", "destat"])
    def test_one_attention_call_per_stack_per_block(self, monkeypatch, temporal):
        # the reference shape (h=16, m=8), two blocks: each block runs its
        # temporal heads as one stack and its correlated heads as another
        cfg = M.RunConfig(task="imputation", d_in=8, d_model=16, d_k=8, h=16, m=8,
                          n_blocks=2, temporal=temporal)
        params = M.init_params(cfg, seed=0)
        calls = collections.Counter()
        names = ["correlated_attention", "self_attention", "destationary_attention"]
        for name in [f"{n}_{way}" for n in names for way in ("fwd", "bwd")]:
            def counted(*args, _fn=getattr(A, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(A, name, counted)
        temporal_fn = "self_attention" if temporal == "self" else "destationary_attention"
        M.model_forward(rand((1, 24, 8), 30), params, cfg)
        assert calls == {"correlated_attention_fwd": 2, f"{temporal_fn}_fwd": 2}
        calls.clear()
        M.batch_loss_and_grad([toy_sample(t=24, d=8)], params, cfg)
        assert calls == {f"{n}_{way}": 2 for n in ("correlated_attention", temporal_fn)
                         for way in ("fwd", "bwd")}


# ---------------------------------------------------------------------------
# per-sample oracle: the model one sample at a time, as it ran before chunks


def loop_attention_fwd(x, params, cfg, b, xi, delta, cab):
    """Block b's attention on one T x d_model sample, one head at a time on
    the one-head mechanisms; head i reads its slices of the stacked weights."""
    w, m = params[f"block{b}.w_qkv"].value, cfg.m
    raw = {name: params[f"block{b}.{name}"].value if f"block{b}.{name}" in params
           else np.full(cfg.h - m, fixed) for name, (fixed, _) in M._cab_scalars(cfg).items()}
    outs, caches = [], []
    for i in range(cfg.h):
        q, k, v = (x @ w[:, j, i] for j in range(3))
        if i >= m:
            out, cache = A.correlated_attention_fwd(
                q[None], k[None], v[None], {name: float(r[i - m]) for name, r in raw.items()},
                cab)
        elif cfg.temporal == "destat":
            out, cache = A.destationary_attention_fwd(q[None], k[None], v[None],
                                                      np.array([xi]), delta[None])
        else:
            out, cache = A.self_attention_fwd(q[None], k[None], v[None])
        outs.append(out[0])
        caches.append(cache)
    concat = np.concatenate(outs, axis=1)
    return concat @ params[f"block{b}.w_o"].value, (x, concat, caches)


def loop_attention_bwd(g, cache, params, grads, cfg, b):
    """Returns (dx, dxi, ddelta) of one sample's block-b attention and adds
    its weight and CAB scalar gradients into ``grads``, head by head."""
    x, concat, caches = cache
    w, m, d_k = params[f"block{b}.w_qkv"].value, cfg.m, cfg.d_k
    grads[f"block{b}.w_o"] += concat.T @ g
    dconcat = g @ params[f"block{b}.w_o"].value.T
    dx, dxi, ddelta = np.zeros_like(x), 0.0, np.zeros(x.shape[0])
    for i, c in enumerate(caches):
        gh = dconcat[None, :, i * d_k:(i + 1) * d_k]
        if i >= m:
            dq, dk, dv, draw = A.correlated_attention_bwd(c, gh)
            for name, d in draw.items():
                if f"block{b}.{name}" in grads:
                    grads[f"block{b}.{name}"][i - m] += d[0]
        elif cfg.temporal == "destat":
            dq, dk, dv, dxi_i, ddelta_i = A.destationary_attention_bwd(c, gh)
            dxi, ddelta = dxi + dxi_i[0], ddelta + ddelta_i[0]
        else:
            dq, dk, dv = A.self_attention_bwd(c, gh)
        for j, d in enumerate((dq[0], dk[0], dv[0])):
            grads[f"block{b}.w_qkv"][:, j, i] += x.T @ d
            dx += d @ w[:, j, i].T
    return dx, dxi, ddelta


def loop_forward(x, params, cfg):
    """One T x d sample through the model; returns (prediction, cache)."""
    t = x.shape[0]
    xp, stats = M.stationarize(x)
    xi, delta, destat = 1.0, np.zeros(t), None
    if cfg.temporal == "destat" and cfg.m > 0:
        stats_vec = np.concatenate([stats.mu, stats.sigma])[None, :]
        xi_pre, xi_cache = M._mlp2_fwd(stats_vec, *(params[f"destat.xi.{n}"].value
                                                     for n in ("w1", "b1", "w2", "b2")))
        xi = float(softplus(xi_pre[0, 0]))
        delta_out, delta_cache = M._mlp2_fwd(x, *(params[f"destat.delta.{n}"].value
                                                  for n in ("w1", "b1", "w2", "b2")))
        delta = delta_out[:, 0]
        destat = (xi_pre[0, 0], xi_cache, delta_cache)
    hrep = xp @ params["embed.w"].value
    cab = A.CabOptions(c=cfg.c, use_fft=cfg.lag_path == "fft",
                       filtering=cfg.filtering_enabled, soft=cfg.lambda_mode == "learnable")
    blocks = []
    for b in range(cfg.n_blocks):
        attn_out, attn_cache = loop_attention_fwd(hrep, params, cfg, b, xi, delta, cab)
        r1, ln1 = M._layernorm_fwd(hrep + attn_out, params[f"block{b}.ln1.gain"].value,
                                   params[f"block{b}.ln1.bias"].value)
        z1 = r1 @ params[f"block{b}.ff.w1"].value + params[f"block{b}.ff.b1"].value
        a1 = np.maximum(z1, 0.0)
        ff_out = a1 @ params[f"block{b}.ff.w2"].value + params[f"block{b}.ff.b2"].value
        hrep, ln2 = M._layernorm_fwd(r1 + ff_out, params[f"block{b}.ln2.gain"].value,
                                     params[f"block{b}.ln2.bias"].value)
        blocks.append((attn_cache, ln1, r1, z1, a1, ln2))
    if cfg.task == "classification":
        pred = hrep.mean(axis=0) @ params["head.w"].value + params["head.b"].value
    else:
        pred = M.destationarize(hrep @ params["head.w"].value + params["head.b"].value,
                                stats)
    return pred, (xp, stats, hrep, blocks, destat, t)


def loop_backward(dpred, cache, params, grads, cfg):
    """Adds one sample's parameter gradients into ``grads`` (name -> array)."""
    xp, stats, hrep, blocks, destat, t = cache

    def val(name):
        return params[name].value

    if cfg.task == "classification":
        dh = np.repeat(dpred[None, :] @ val("head.w").T, t, axis=0) / t
        grads["head.w"] += np.outer(hrep.mean(axis=0), dpred)
        grads["head.b"] += dpred
    else:
        drecon = dpred * stats.sigma
        dh = drecon @ val("head.w").T
        grads["head.w"] += hrep.T @ drecon
        grads["head.b"] += drecon.sum(axis=0)
    dxi, ddelta = 0.0, np.zeros(t)
    for b in reversed(range(cfg.n_blocks)):
        attn_cache, ln1, r1, z1, a1, ln2 = blocks[b]
        dr2, dg, db = M._layernorm_bwd(ln2, dh)
        grads[f"block{b}.ln2.gain"] += dg
        grads[f"block{b}.ln2.bias"] += db
        grads[f"block{b}.ff.w2"] += a1.T @ dr2
        grads[f"block{b}.ff.b2"] += dr2.sum(axis=0)
        dz1 = (dr2 @ val(f"block{b}.ff.w2").T) * (z1 > 0.0)
        grads[f"block{b}.ff.w1"] += r1.T @ dz1
        grads[f"block{b}.ff.b1"] += dz1.sum(axis=0)
        dr1, dg, db = M._layernorm_bwd(ln1, dr2 + dz1 @ val(f"block{b}.ff.w1").T)
        grads[f"block{b}.ln1.gain"] += dg
        grads[f"block{b}.ln1.bias"] += db
        dx, dxi_b, ddelta_b = loop_attention_bwd(dr1, attn_cache, params, grads, cfg, b)
        dxi += dxi_b
        ddelta += ddelta_b
        dh = dr1 + dx
    grads["embed.w"] += xp.T @ dh
    if destat is not None:
        xi_pre, xi_cache, delta_cache = destat
        _, *gs = M._mlp2_bwd(xi_cache, np.array([[dxi * float(sigmoid(xi_pre))]]))
        for name, g in zip(("w1", "b1", "w2", "b2"), gs):
            grads[f"destat.xi.{name}"] += g
        _, *gs = M._mlp2_bwd(delta_cache, ddelta[:, None])
        for name, g in zip(("w1", "b1", "w2", "b2"), gs):
            grads[f"destat.delta.{name}"] += g


def oracle_input(record):
    """The T x d sample a record's chunk of one holds, its hidden entries
    zeroed."""
    x, mask, _ = record
    return x[0] if mask is None else x[0] * mask[0]


def loop_loss_and_grad(batch, params, cfg):
    """Mean loss and mean gradient over the batch, one sample at a time; each
    sample's loss is scored as the chunk of one it is stored as."""
    grads = {name: np.zeros_like(p.value) for name, p in params.items()}
    total = 0.0
    for record in batch:
        x, mask, label = record
        pred, cache = loop_forward(oracle_input(record), params, cfg)
        loss, dpred = M.task_loss(pred[None], label if cfg.task == "classification" else x,
                                  cfg.task, mask)
        loop_backward(dpred[0], cache, params, grads, cfg)
        total += loss[0]
    return total / len(batch), {name: g / len(batch) for name, g in grads.items()}


def chunk_batch(task, n=3, t=12, d=3, seed=40):
    """n records of the task as to_training_sample makes them: (x, mask,
    label), each a chunk of one; a reconstruction target is the input."""
    rng = np.random.default_rng(seed)
    batch = []
    for i in range(n):
        x = rng.normal(size=(1, t, d)) * (1.0 + i) + i  # unlike scales and means
        if task == "imputation":
            mask = rng.random((1, t, d)) > 0.3
            mask[0, i, 0] = False                        # every sample hides one
            batch.append((x, mask, None))
        elif task == "anomaly":
            batch.append((x, None, rng.random((1, t)) > 0.8))
        else:
            batch.append((x, None, np.array([i % 3])))
    return batch


CHUNK_CASES = {
    "self": dict(),
    "destat": dict(temporal="destat"),
    "anomaly": dict(task="anomaly"),
    "classification": dict(task="classification", n_classes=3),
    "classification-destat": dict(task="classification", n_classes=3,
                                  temporal="destat"),
    "filtering-off": dict(filtering_enabled=False, beta_learnable=False),
    "soft": dict(lambda_mode="learnable"),
    "two-blocks": dict(n_blocks=2, temporal="destat", lambda_mode="learnable"),
    "cab-off": dict(m=4, temporal="destat"),           # m = h: the base model
}


def assert_close(got, want, tol=1e-12):
    assert np.shape(got) == np.shape(want)
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    assert np.abs(np.asarray(got) - want).max(initial=0.0) <= tol * scale


class TestChunks:
    """A chunk of samples against the per-sample oracle: every output, the
    loss and every parameter gradient within 1e-12."""

    @pytest.mark.parametrize("case", list(CHUNK_CASES))
    def test_chunk_matches_per_sample(self, case):
        cfg = toy_config(**{"h": 4, "m": 2, **CHUNK_CASES[case]})
        params = M.init_params(cfg, seed=11)
        batch = chunk_batch(cfg.task)
        assert M.chunk_size(cfg, 12) >= len(batch)      # one chunk
        x, mask, _ = M._concat(batch)
        preds, _ = M.model_forward(x, params, cfg, mask)
        for pred, record in zip(preds, batch):
            assert_close(pred, loop_forward(oracle_input(record), params, cfg)[0])
        loss = M.batch_loss_and_grad(batch, params, cfg)
        want_loss, want_grads = loop_loss_and_grad(batch, params, cfg)
        assert abs(loss - want_loss) <= 1e-12 * max(1.0, abs(want_loss))
        for name, p in params.items():
            assert_close(p.grad, want_grads[name])
        assert abs(M.evaluate_loss(batch, params, cfg) - want_loss) <= 1e-12

    def test_chunks_split_evenly(self, monkeypatch):
        cfg = toy_config()
        batch = chunk_batch("imputation", n=8)
        monkeypatch.setattr(M, "chunk_size", lambda cfg, t: 7)
        sizes = [len(chunk[0]) for chunk in M._chunks(batch, cfg)]
        assert sizes == [4, 4]
        monkeypatch.setattr(M, "chunk_size", lambda cfg, t: 3)
        sizes = [len(chunk[0]) for chunk in M._chunks(batch, cfg)]
        assert sizes == [2, 3, 3]
        # a chunk of one is joined like any other
        monkeypatch.setattr(M, "chunk_size", lambda cfg, t: 1)
        assert [chunk[0].shape for chunk in M._chunks(batch, cfg)] == [(1, 12, 3)] * 8
        monkeypatch.undo()
        # several chunks make the same mean loss and gradient as one
        params = M.init_params(cfg, seed=12)
        loss = M.batch_loss_and_grad(batch, params, cfg)
        grads = {name: p.grad.copy() for name, p in params.items()}
        monkeypatch.setattr(M, "chunk_size", lambda cfg, t: 3)
        assert abs(M.batch_loss_and_grad(batch, params, cfg) - loss) <= 1e-12
        for name, p in params.items():
            assert_close(p.grad, grads[name])

    @pytest.mark.parametrize("shape, size", [
        (dict(d_model=16, d_k=8, h=2, m=1), 7),          # bench toy, T = 96
        (dict(d_model=16, d_k=8, h=16, m=8), 1),         # bench ref
        (dict(d_model=16, d_k=8, h=4, m=1, temporal="destat"), 1),   # at T = 512
    ], ids=["toy", "ref", "long"])
    def test_chunk_size(self, shape, size):
        t = 512 if shape.get("temporal") == "destat" else 96
        assert M.chunk_size(toy_config(**shape), t) == size

    def test_collapsed_temperature_names_head_in_chunk(self):
        cfg = toy_config(h=4, m=2)
        params = M.init_params(cfg, seed=13)
        params["block0.tau_raw"].value[1] = -1e9        # head m + 1 = 3
        x = np.concatenate([s[0] for s in chunk_batch("imputation")])
        with pytest.raises(M.ParameterError, match=r"^block0\.head3\.tau_raw: "):
            M.model_forward(x, params, cfg)

    def test_one_mixture_call_per_chunk(self, monkeypatch):
        cfg = toy_config(n_blocks=2)
        params = M.init_params(cfg, seed=14)
        calls = collections.Counter()
        for name in ("mixture_of_head_fwd", "mixture_of_head_bwd"):
            def counted(*args, _fn=getattr(M, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(M, name, counted)
        M.batch_loss_and_grad(chunk_batch("imputation", n=5), params, cfg)
        assert calls == {"mixture_of_head_fwd": 2, "mixture_of_head_bwd": 2}


class TestParamRegistry:
    def test_cab_scalars_only_on_correlated_heads(self):
        # one value per correlated head (heads 2 and 3), none for heads 0, 1
        cfg = toy_config(h=4, m=2)
        params = M.init_params(cfg, seed=0)
        assert params["block0.beta_raw"].value.shape == (2,)
        assert params["block0.tau_raw"].value.shape == (2,)
        assert "block0.lambda_raw" not in params                # fixed
        assert not any(name.endswith("_raw") for name in M.init_params(
            toy_config(h=4, m=4), seed=0))                      # no correlated heads

    @pytest.mark.parametrize("shape, entries", [
        (dict(d_model=16, d_k=8, h=2, m=1), 15),                           # toy
        (dict(d_model=16, d_k=8, h=16, m=8), 15),                          # ref
        (dict(d_model=16, d_k=8, h=4, m=1, temporal="destat"), 23),        # long
    ], ids=["toy", "ref", "long"])
    def test_one_attention_entry_per_block(self, shape, entries):
        params = M.init_params(toy_config(**shape), seed=0)
        assert len(params) == entries
        assert params["block0.w_qkv"].value.shape == (16, 3, shape["h"], 8)

    def test_init_draws_head_by_head(self):
        # the projections are drawn per head (W_q, W_k, W_v of head 0, then
        # head 1, ...), before w_o, from the one generator
        cfg = toy_config(h=3, m=1)
        params = M.init_params(cfg, seed=5)
        rng = np.random.default_rng(5)
        rng.normal(size=(cfg.d_in, cfg.d_model))                          # embed.w
        for i in range(3):
            for j in range(3):
                want = rng.normal(0.0, 0.5, size=(cfg.d_model, cfg.d_k))
                assert np.array_equal(params["block0.w_qkv"].value[:, j, i], want)
        assert np.array_equal(params["block0.w_o"].value,
                              rng.normal(0.0, 1 / math.sqrt(12), size=(12, 4)))

    def test_m_h_swap_changes_only_scalars(self):
        def size(cfg):
            return sum(p.value.size for p in M.init_params(cfg, seed=0).values())
        full = size(toy_config(h=2, m=2))
        mixed = size(toy_config(h=2, m=1))
        assert mixed == full + 2  # beta_raw + tau_raw for the one CAB head


class TestTaskLoss:
    def test_perfect_reconstruction(self):
        x = rand((1, 6, 2), 10)
        loss, _ = M.task_loss(x, x, "anomaly")
        assert loss.shape == (1,) and loss[0] == 0.0

    def test_all_hidden_mask_is_plain_mse(self):
        pred, target = rand((1, 5, 3), 11), rand((1, 5, 3), 12)
        li, _ = M.task_loss(pred, target, "imputation", np.zeros((1, 5, 3)))
        la, _ = M.task_loss(pred, target, "anomaly")
        assert abs(li[0] - la[0]) < 1e-15

    def test_uniform_logits_cross_entropy(self):
        loss, _ = M.task_loss(np.zeros((1, 4)), np.array([2]), "classification")
        assert loss.shape == (1,) and abs(loss[0] - math.log(4)) < 1e-12

    def test_empty_mask_degenerate(self):
        with pytest.raises(M.DegenerateTaskError):
            M.task_loss(rand((1, 4, 2)), rand((1, 4, 2)), "imputation",
                        np.ones((1, 4, 2)))

    def test_bare_sample_is_refused(self):
        # one input form: a chunk, the sample axis first
        pred = rand((4, 2), 15)
        for task in ("imputation", "anomaly"):
            with pytest.raises(M.ShapeError, match="B x T x d chunk"):
                M.task_loss(pred, pred, task, np.zeros((4, 2)))
        for logits, label in ((np.zeros(4), 2), (np.zeros(4), np.array([2])),
                              (np.zeros((1, 4)), 2)):
            with pytest.raises(M.ShapeError):
                M.task_loss(logits, label, "classification")

    def test_gradient_direction(self):
        pred, target = rand((1, 4, 2), 13), rand((1, 4, 2), 14)
        loss, dpred = M.task_loss(pred, target, "anomaly")
        step = 1e-7
        loss2, _ = M.task_loss(pred - step * dpred, target, "anomaly")
        assert loss2[0] < loss[0]


class TestGradients:
    def test_full_model_fd_check(self):
        cfg = toy_config(temporal="destat")
        params = M.init_params(cfg, seed=1)
        sample = toy_sample()

        def f(ps):
            zero_grads(ps)
            return M.batch_loss_and_grad([sample], ps, cfg)

        report = check_gradient(f, params, step=1e-5, tolerance=1e-4)
        assert report.passed, [(e.name, e.max_rel_err) for e in report.failures()]

    def test_classification_gradients(self):
        cfg = toy_config(task="classification", n_classes=3)
        params = M.init_params(cfg, seed=2)
        sample = (rand((1, 8, 3), 15), None, np.array([1]))

        def f(ps):
            zero_grads(ps)
            return M.batch_loss_and_grad([sample], ps, cfg)

        report = check_gradient(f, params, step=1e-5, tolerance=1e-4)
        assert report.passed, [(e.name, e.max_rel_err) for e in report.failures()]

    def test_destat_chunk_across_row_blocks(self, monkeypatch):
        # c2's model, step and tolerance on a chunk of two samples, with row
        # blocks of 3 of the 8 score rows, so the gradient crosses blocks
        cfg = M.RunConfig(task="imputation", d_in=3, d_model=4, d_k=4,
                          h=2, m=1, n_blocks=1, temporal="destat")
        params = M.init_params(cfg, seed=1)
        batch = [toy_sample(seed=s) for s in (20, 21)]
        assert M.chunk_size(cfg, 8) >= len(batch)
        monkeypatch.setattr(A, "BLOCK_DOUBLES", 2 * 8 * 3)
        assert len(A._row_blocks(2, 8)) == 3

        def f(ps):
            zero_grads(ps)
            return M.batch_loss_and_grad(batch, ps, cfg)

        report = check_gradient(f, params, step=1e-5, tolerance=1e-4)
        assert report.passed, [(e.name, e.max_rel_err) for e in report.failures()]


def _arrays(obj):
    """Every array reachable from a cache through tuples, lists, dicts and
    dataclass fields."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _arrays(item)
    elif hasattr(obj, "__dataclass_fields__"):
        for name in obj.__dataclass_fields__:
            yield from _arrays(getattr(obj, name))


class TestMemory:
    """At the benchmark's long shape (T = 512, destat, classification) the
    forward caches hold no T x T array, no gather of the k + 1 lags and no
    all-lags stack, and one single-sample step stays under a fixed
    allocation peak. Loaded imputation data takes about 9 bytes an entry."""

    T = 512

    def _setup(self):
        cfg = M.RunConfig(task="classification", d_in=6, d_model=16, d_k=8, h=4, m=1,
                          temporal="destat")
        params = M.init_params(cfg, seed=0)
        return cfg, params, (rand((self.T, 6), 70)[None], None, np.array([1]))

    def test_cache_holds_no_square_or_gather(self):
        cfg, params, sample = self._setup()
        _, cache = M.model_forward(sample[0], params, cfg)
        gather = (self.T, (topk_count(cfg.c, self.T) + 1) * cfg.d_k)
        # one head's stack, T d_k^2 doubles, passes the size check
        stack = (self.T, cfg.d_k, cfg.d_k)
        arrays = list(_arrays(cache))
        assert len(arrays) > 20
        for a in arrays:
            assert a.size < self.T * self.T, a.shape
            assert not (a.ndim == 3 and a.shape[1:] == gather), a.shape
            assert not (a.ndim == 4 and a.shape[1:] == stack), a.shape

    def test_step_allocation_peak(self):
        cfg, params, sample = self._setup()
        M.batch_loss_and_grad([sample], params, cfg)        # warm up
        tracemalloc.start()
        try:
            M.batch_loss_and_grad([sample], params, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6, peak       # 6 MB

    def test_eval_peak_is_one_forward(self):
        # evaluate_metrics keeps only each prediction: no sample's cache is
        # alive while the next sample runs (1.59 times one forward when it was)
        cfg, params, _ = self._setup()
        samples = [(rand((self.T, 6), 80 + i)[None], None, np.array([i % 2]))
                   for i in range(4)]
        peaks = []
        for run in (lambda: M.model_forward(samples[0][0], params, cfg),
                    lambda: M.evaluate_metrics(samples, params, cfg)):
            run()                                           # warm up
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        one, whole = peaks
        assert whole < 1.1 * one, (whole, one)

    def test_imputation_data_nine_bytes_an_entry(self, tmp_path, capsys):
        # load_data holds an imputation entry's value (8 bytes) and its bool
        # mask (1): the model input is the values themselves, masked in the
        # model (24 bytes an entry with an int64 mask and a masked copy)
        prefix = str(tmp_path / "imp")
        assert cli.main(["gen-data", "--task", "imputation", "--t", "96", "--d", "8",
                         "--samples", "40", "--out", prefix]) == 0
        cli.load_data(prefix)                               # warm up
        tracemalloc.start()
        try:
            data = cli.load_data(prefix)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        entries = sum(x.size for split in (data.train, data.val, data.test)
                      for x, *_ in split)
        assert entries == 40 * 96 * 8
        assert held <= 12 * entries, held / entries

    def test_cab_backward_peak_below_two_gathers(self):
        # every lag sum of the backward is one gather and one product, so no
        # (k + 1)-lag product and no lag-major copy of it is ever alive
        h, d_k, opts = 3, 8, A.CabOptions(c=1)
        q, k, v = (rand((h, self.T, d_k), 71 + i) for i in range(3))
        out, cache = A.correlated_attention_fwd(q, k, v, A.CAB_RAW, opts)
        g = rand(out.shape, 74)
        A.correlated_attention_bwd(cache, g)                 # warm up
        tracemalloc.start()
        try:
            A.correlated_attention_bwd(cache, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        gather = h * self.T * (topk_count(opts.c, self.T) + 1) * d_k * 8
        assert gather == 786_432
        assert peak < 2 * gather, peak


class TestTraining:
    def _toy_data(self, n=10, seed=0):
        spec = DatasetSpec(t=16, d=3, n_samples=n, seed=seed,
                           planted_lags=[(0, 1, 5, 1.0)], noise=0.05)
        samples = [apply_mask(s, 0.25, seed=100 + i)
                   for i, s in enumerate(gen_lagged_series(spec))]
        return [to_training_sample(s, "imputation") for s in samples]

    def test_zero_lr_leaves_params_unchanged(self):
        cfg = toy_config(d_in=3)
        params = M.init_params(cfg, seed=3)
        before = {n: p.value.copy() for n, p in params.items()}
        M.train_step(self._toy_data(4), params, cfg, M.Adam(lr=0.0))
        for n, p in params.items():
            assert np.array_equal(p.value, before[n])

    def test_loss_decreases_on_planted_lag_toy(self):
        cfg = M.RunConfig(task="imputation", d_in=3, d_model=8, d_k=4,
                          h=2, m=1, n_blocks=1)
        params = M.init_params(cfg, seed=4)
        data = self._toy_data(8, seed=1)
        opt = M.Adam(lr=3e-3)
        first = M.train_step(data, params, cfg, opt)
        last = first
        for _ in range(200):
            last = M.train_step(data, params, cfg, opt)
        assert last < first

    def test_nonfinite_loss_aborts(self):
        cfg = toy_config()
        params = M.init_params(cfg, seed=5)
        params["embed.w"].value[...] = 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(M.NumericalFailure):
                M.train_step(self._toy_data(2), params, cfg, M.Adam(lr=0.1))

    def test_patience_stops_early(self):
        cfg = toy_config(d_in=3, lr=0.0, batch_size=4, epochs=30, patience=3, seed=0)
        params = M.init_params(cfg, seed=6)
        data = self._toy_data(6)
        records = M.train_model(data, data, params, cfg)
        assert len(records) == 4  # first epoch sets best, then 3 stale epochs

    def test_training_deterministic(self):
        cfg = toy_config(d_in=3, lr=1e-3, batch_size=4, epochs=3, seed=7)
        data = self._toy_data(6)
        recs = []
        for _ in range(2):
            params = M.init_params(cfg, seed=7)
            recs.append(M.train_model(data, data, params, cfg))
        assert recs[0] == recs[1]


class TestAnomalyDecision:
    def test_single_spike(self):
        out = M.anomaly_decision([0.0, 0.0, 0.0, 10.0], [0, 0, 0, 1], 0.9)
        assert out["precision"] == out["recall"] == out["f1"] == 1.0

    def test_nothing_flagged_nothing_true(self):
        out = M.anomaly_decision([1.0, 1.0, 1.0], [0, 0, 0], 0.5)
        assert out["precision"] == out["recall"] == out["f1"] == 1.0
        assert out["degenerate"]

    def test_matches_direct_counting(self):
        rng = np.random.default_rng(16)
        scores = rng.random(200)
        truth = rng.random(200) > 0.8
        out = M.anomaly_decision(scores, truth, 0.9)
        labels = scores > np.quantile(scores, 0.9)
        tp = np.sum(labels & truth)
        p = tp / labels.sum()
        r = tp / truth.sum()
        assert abs(out["precision"] - p) < 1e-15
        assert abs(out["recall"] - r) < 1e-15
        assert abs(out["f1"] - 2 * p * r / (p + r)) < 1e-15

    def test_validation_threshold(self):
        out = M.anomaly_decision([0.1, 5.0], [0, 1], 0.99, val_scores=np.ones(50))
        assert out["labels"].tolist() == [False, True]

    def test_bad_quantile(self):
        with pytest.raises(Exception):
            M.anomaly_decision([1.0], [0], 1.5)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        cfg = toy_config(temporal="destat")
        params = M.init_params(cfg, seed=8)
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, params)
        loaded = M.load_checkpoint(path)
        slots = {name: p.value[at] for name, p, at in M._checkpoint_slots(params)}
        assert set(loaded) == set(slots)
        for n, v in slots.items():
            assert np.array_equal(loaded[n], v)

    def test_per_head_entries_are_stacked_slots(self, tmp_path):
        # checkpoints keep one entry per head: head i's W_q, W_k and W_v are
        # column blocks i, h + i and 2 h + i of the fused d_model x 3 h d_k
        # projection, and correlated head m + j holds entry j of each scalar
        cfg = toy_config(h=4, m=2, lambda_mode="learnable", n_blocks=2)
        params = M.init_params(cfg, seed=8)
        for p in params.values():       # no two values alike
            p.value[...] = np.random.default_rng(len(p.name)).normal(size=p.value.shape)
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, params)
        loaded = M.load_checkpoint(path)
        h, d_k = cfg.h, cfg.d_k
        assert len(loaded) == len(params) + 2 * (3 * h + 3 * (h - cfg.m) - 4)
        for b in range(2):
            fused = params[f"block{b}.w_qkv"].value.reshape(cfg.d_model, -1)
            for i in range(h):
                for j, w in enumerate(("w_q", "w_k", "w_v")):
                    col = (j * h + i) * d_k
                    assert np.array_equal(loaded[f"block{b}.head{i}.{w}"],
                                          fused[:, col:col + d_k])
            for name in ("beta_raw", "tau_raw", "lambda_raw"):
                assert not any(f"block{b}.head{i}.{name}" in loaded for i in range(2))
                for j in range(2):
                    assert loaded[f"block{b}.head{2 + j}.{name}"].shape == ()
                    assert loaded[f"block{b}.head{2 + j}.{name}"] == \
                        params[f"block{b}.{name}"].value[j]
        other = M.init_params(cfg, seed=9)
        M.load_into(other, path)
        for name, p in params.items():
            assert np.array_equal(other[name].value, p.value)

    def test_missing_per_head_entry(self, tmp_path):
        params = M.init_params(toy_config(), seed=8)
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, params)
        lines = path.read_text().splitlines()
        at = lines.index(next(l for l in lines if l.startswith("block0.head1.w_v ")))
        path.write_text("\n".join(lines[:at] + lines[at + 2:]) + "\n")
        with pytest.raises(M.CheckpointError, match=r"missing parameter block0\.head1\.w_v$"):
            M.load_into(params, path)

    def test_load_into(self, tmp_path):
        cfg = toy_config()
        params = M.init_params(cfg, seed=9)
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, params)
        other = M.init_params(cfg, seed=10)
        M.load_into(other, path)
        for n in params:
            assert np.array_equal(other[n].value, params[n].value)

    def test_corrupt_tag(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(M.CheckpointError, match="format tag"):
            M.load_checkpoint(path)

    def test_truncated_values(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text(M.CHECKPOINT_TAG + "\nembed.w 2 2 2\n1.0,2.0,3.0\n")
        with pytest.raises(M.CheckpointError, match="expected 4 values"):
            M.load_checkpoint(path)

    @pytest.mark.parametrize("entry, line", [
        ("embed.w two 2 2\n1.0,2.0,3.0,4.0\n", "line 2"),
        ("embed.w 2 2 x\n1.0,2.0,3.0,4.0\n", "line 2"),
        ("embed.w 2 -2 -2\n1.0,2.0,3.0,4.0\n", "line 2"),
        ("embed.w 2 2 2\n1.0,2.0,oops,4.0\n", "line 3"),
        ("embed.w 2 2 2\n1.0,nan,3.0,4.0\n", "non-finite value for embed.w at line 3"),
        ("embed.w 2 2 2\n1.0,2.0,3.0,-inf\n", "non-finite value for embed.w at line 3"),
    ], ids=["ndim", "dim", "negative-dim", "value", "nan", "inf"])
    def test_malformed_entry_names_line(self, tmp_path, entry, line):
        path = tmp_path / "bad.ckpt"
        path.write_text(M.CHECKPOINT_TAG + "\n" + entry)
        with pytest.raises(M.CheckpointError, match=line):
            M.load_checkpoint(path)
