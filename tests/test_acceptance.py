"""Acceptance suite.

One test per acceptance criterion. Each prints a single pass/fail line to
the real terminal (capture is suspended for that one line) so the outcome
of every criterion is visible in plain pytest output.
"""

import json
import statistics
import time

import numpy as np
import pytest

from lagattn import cli
from lagattn import model as M
from lagattn.attention import (
    CAB_RAW,
    CabOptions,
    MixtureWeights,
    correlated_attention_fwd,
    mixture_of_head_fwd,
    self_attention_fwd,
)
from lagattn.numerics import (
    check_gradient,
    l2_normalize_cols,
    softmax_cols,
    softplus,
    zero_grads,
)
from lagattn.synthdata import (
    DatasetSpec,
    apply_mask,
    gen_lagged_series,
    read_dataset,
    split_dataset,
    to_training_sample,
    write_dataset,
)
from lagattn.xcorr import (
    lag_mass,
    score_lags,
    topk_lags,
    xcorr_all_lags_fft,
    xcorr_all_lags_naive,
)


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


@pytest.fixture()
def report(capsys):
    def _report(idx, name, ok, detail=""):
        line = f"[acceptance {idx}] {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return _report


def test_c1_oracle_equivalence(report):
    """The FFT route's per-lag stack matches the naive stack entry by entry
    within 1e-9."""
    worst = 0.0
    for t in (8, 16, 96, 128):
        for d in (1, 2, 4, 8):
            for seed in range(20):
                rng = np.random.default_rng([seed, t, d])
                q = l2_normalize_cols(rng.normal(size=(t, d)))
                k = l2_normalize_cols(rng.normal(size=(t, d)))
                diff = xcorr_all_lags_fft(q, k) - xcorr_all_lags_naive(q, k)
                worst = max(worst, float(np.abs(diff).max()))
    report(1, "oracle equivalence fft vs naive", worst <= 1e-9,
           f"max abs diff {worst:.3e}")


def test_c2_gradient_suite(report):
    """Analytic vs central-difference gradients for every learnable
    parameter of a one-block model on a batch of two samples (one chunk),
    1e-4 relative at step 1e-5."""
    cfg = M.RunConfig(task="imputation", d_in=3, d_model=4, d_k=4,
                      h=2, m=1, n_blocks=1, temporal="destat")
    params = M.init_params(cfg, seed=1)
    rng = np.random.default_rng(2)
    batch = []
    for _ in range(2):
        x = rng.normal(size=(8, 3))
        mask = (rng.random((8, 3)) > 0.3).astype(int)
        batch.append((x * mask, x, mask, None))
    assert M.chunk_size(cfg, 8) >= len(batch)

    def f(ps):
        zero_grads(ps)
        return M.batch_loss_and_grad(batch, ps, cfg)

    result = check_gradient(f, params, step=1e-5, tolerance=1e-4)
    bad = [e.name for e in result.failures()]
    report(2, "gradient suite", result.passed,
           f"{len(params)} params, max rel err {result.max_rel_err:.3e}"
           + (f", failed: {bad}" if bad else ""))


def _recovery_rate(noise, seeds=100):
    planted = [(0, 1, 7, 1.0), (2, 3, 13, 1.0)]
    hits = 0
    for seed in range(seeds):
        spec = DatasetSpec(t=96, d=8, n_samples=96, seed=seed,
                           planted_lags=planted, noise=noise)
        diag = nondiag = 0.0
        for s in gen_lagged_series(spec):
            f = l2_normalize_cols(s.values)
            d, nd = lag_mass(xcorr_all_lags_fft(f, f))
            diag = diag + d
            nondiag = nondiag + nd
        sel = topk_lags(score_lags(diag, nondiag, 0.0), 1, 96)
        hits += int({7, 13} <= set(sel.lags))
    return hits / seeds


def test_c3_planted_lag_recovery(report):
    """TopK (k=5 at T=96, c=1) recovers both planted lags: >= 95% of 100
    seeds noise-free, >= 80% at SNR 10."""
    clean = _recovery_rate(0.0)
    noisy = _recovery_rate(1.0 / np.sqrt(10.0))
    report(3, "planted-lag recovery", clean >= 0.95 and noisy >= 0.80,
           f"noise-free {clean:.0%}, snr-10 {noisy:.0%}")


def test_c4_endpoint_identities(report):
    ok = True
    detail = []

    # beta = 0: exactly the instantaneous-only output
    q, k, v = rand((12, 4), 20), rand((12, 4), 21), rand((12, 4), 22)
    out = correlated_attention_fwd(q[None], k[None], v[None], CAB_RAW,
                                   CabOptions(filtering=False))[0][0]
    qh, kh = l2_normalize_cols(q), l2_normalize_cols(k)
    inst = v @ softmax_cols(kh.T @ qh, float(softplus(CAB_RAW["tau_raw"])))
    if not np.array_equal(out, inst):
        ok, detail = False, detail + ["beta=0"]

    # m = h: bitwise-identical to plain multi-head attention
    x = rand((10, 6), 23)
    rng = np.random.default_rng(24)
    # drawn head by head: W_q, W_k, W_v of head 0, then of head 1, ...
    w_qkv = rng.normal(size=(3, 3, 6, 2)).transpose(2, 1, 0, 3)
    w_o = rng.normal(size=(6, 6))
    mixed = mixture_of_head_fwd(x[None], MixtureWeights(w_qkv, w_o, m=3))[0][0]
    ref = np.concatenate(
        [self_attention_fwd(*((x @ w_qkv[:, j, i])[None] for j in range(3)))[0][0]
         for i in range(3)], axis=1) @ w_o
    if not np.array_equal(mixed, ref):
        ok, detail = False, detail + ["m=h"]

    # d_k = 1, beta = 0: returns V exactly
    q1, k1, v1 = rand((9, 1), 25), rand((9, 1), 26), rand((9, 1), 27)
    out1 = correlated_attention_fwd(q1[None], k1[None], v1[None], CAB_RAW,
                                    CabOptions(filtering=False))[0][0]
    if not np.array_equal(out1, v1):
        ok, detail = False, detail + ["d_k=1"]

    report(4, "endpoint identities", ok,
           "all three exact" if ok else "failed: " + ", ".join(detail))


def _median_time(fn, reps: int, warmup: int) -> float:
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def test_c5_complexity_scaling(report):
    """Naive-path doubling ratio in [3, 6]; FFT ratio strictly smaller;
    FFT strictly faster than naive at T=1536."""
    grid = (384, 768, 1536)
    paths = (xcorr_all_lags_naive, xcorr_all_lags_fft)
    inputs = []
    for t in grid:
        rng = np.random.default_rng(t)
        inputs.append((l2_normalize_cols(rng.normal(size=(t, 8))),
                       l2_normalize_cols(rng.normal(size=(t, 8)))))
    # Interleaved rounds, each pair keeping its fastest round: a slow spell
    # of a shared host then inflates one round of every pair, not one pair.
    best = {}
    for _ in range(5):
        for t, (q, k) in zip(grid, inputs):
            for path in paths:
                took = _median_time(lambda: path(q, k), reps=5, warmup=1)
                best[t, path] = min(best.get((t, path), took), took)
    naive_t = [best[t, xcorr_all_lags_naive] for t in grid]
    fft_t = [best[t, xcorr_all_lags_fft] for t in grid]
    ok = True
    ratios = []
    for i in range(2):
        rn = naive_t[i + 1] / naive_t[i]
        rf = fft_t[i + 1] / fft_t[i]
        ratios.append((rn, rf))
        ok = ok and 3.0 <= rn <= 6.0 and rf < rn
    ok = ok and fft_t[-1] < naive_t[-1]
    report(5, "complexity scaling", ok,
           "naive/fft doubling ratios "
           + ", ".join(f"{rn:.2f}/{rf:.2f}" for rn, rf in ratios)
           + f"; at T=1536 naive {naive_t[-1]:.4f}s fft {fft_t[-1]:.4f}s")


def _imputation_run(seed, m):
    spec = DatasetSpec(t=96, d=8, n_samples=40, seed=seed, noise=0.1,
                       planted_lags=[(0, 1, 7, 1.0), (2, 3, 13, 1.0)])
    samples = [apply_mask(s, 0.25, seed=1000 * seed + i)
               for i, s in enumerate(gen_lagged_series(spec))]
    train, val, test = (
        [to_training_sample(s, "imputation") for s in part]
        for part in split_dataset(samples))
    cfg = M.RunConfig(task="imputation", d_in=8, d_model=16, d_k=8,
                      h=2, m=m, n_blocks=1, lr=5e-3, batch_size=8,
                      epochs=12, patience=12, seed=seed)
    params = M.init_params(cfg, seed=seed)
    M.train_model(train, val, params, cfg)
    return M.evaluate_metrics(test, params, cfg)["mse"], M.count_params(cfg)


def test_c6_directional_toy_task(report):
    """Median-over-5-seeds test MSE with CAB heads <= the identical
    all-temporal model at equal parameter budget and epochs."""
    cab_mse, base_mse = [], []
    for seed in range(5):
        mse_cab, n_cab = _imputation_run(seed, m=1)
        mse_base, n_base = _imputation_run(seed, m=2)
        cab_mse.append(mse_cab)
        base_mse.append(mse_base)
    med_cab = statistics.median(cab_mse)
    med_base = statistics.median(base_mse)
    budget_ok = abs(n_cab - n_base) <= 0.05 * n_base
    report(6, "directional toy-task check",
           med_cab <= med_base and budget_ok,
           f"median mse cab {med_cab:.4f} vs base {med_base:.4f}, "
           f"params {n_cab} vs {n_base}")


def block0_attention(cfg):
    """Block 0's MixtureWeights and the forward cache of its correlated head
    stack, as model_forward builds them."""
    params = M.init_params(cfg, seed=0)
    _, cache = M.model_forward(rand((8, cfg.d_in), 28), params, cfg)
    attn = cache.blocks[0].attn
    return attn.mix, attn.cab_cache


def test_c7_ablation_harness(report, tmp_path, capsys):
    # preset introspection
    ok = True
    detail = []
    pure = cli.apply_ablation(cli.RunConfig(ablation="pure"))
    mix, cab_cache = block0_attention(pure)
    betas = list(cab_cache.beta)                # beta as the CAB forward used it
    if not (pure.m == 0 and not mix.cab.filtering
            and len(betas) == pure.h and all(b == 0.0 for b in betas)):
        ok, detail = False, detail + ["pure"]
    static = cli.apply_ablation(cli.RunConfig(ablation="static"))
    if not (static.lambda_mode == "fixed" and not static.beta_learnable
            and static.lambda_init == 0.5 and static.beta_init == 0.5):
        ok, detail = False, detail + ["static"]
    lam = cli.apply_ablation(cli.RunConfig(ablation="lambda"))
    if not (lam.lambda_mode == "learnable" and not lam.beta_learnable):
        ok, detail = False, detail + ["lambda"]
    beta = cli.apply_ablation(cli.RunConfig(ablation="beta"))
    if not (beta.lambda_mode == "fixed" and beta.beta_learnable):
        ok, detail = False, detail + ["beta"]

    # the ablate command emits one record per preset
    out = tmp_path / "toy"
    cli.main(["gen-data", "--task", "imputation", "--t", "24", "--d", "3",
              "--samples", "10", "--mask-ratio", "0.25", "--lags", "0:1:5",
              "--seed", "1", "--out", str(out)])
    capsys.readouterr()
    code = cli.main(["ablate", "--data", str(out), "--d-model", "8",
                     "--d-k", "4", "--h", "2", "--m", "1", "--epochs", "1",
                     "--batch", "4", "--lr", "0.003"])
    records = [json.loads(l) for l in capsys.readouterr().out.splitlines()
               if l.startswith("{")]
    presets = {r["preset"] for r in records if r.get("event") == "ablate"}
    if code != 0 or presets != set(cli.ABLATION_PRESETS):
        ok, detail = False, detail + ["emission"]

    report(7, "ablation harness", ok,
           "all presets verified" if ok else "failed: " + ", ".join(detail))


def test_c8_determinism_and_roundtrips(report, tmp_path, capsys):
    ok = True
    detail = []

    # fixed-seed training reproduces summary metrics bitwise
    data = tmp_path / "toy"
    cli.main(["gen-data", "--task", "imputation", "--t", "24", "--d", "3",
              "--samples", "10", "--mask-ratio", "0.25", "--lags", "0:1:5",
              "--seed", "2", "--out", str(data)])
    summaries = []
    for i in range(2):
        cli.main(["train", "--data", str(data), "--d-model", "8", "--d-k", "4",
                  "--h", "2", "--m", "1", "--epochs", "2", "--batch", "4",
                  "--lr", "0.003", "--seed", "5",
                  "--metrics", str(tmp_path / f"m{i}.jsonl")])
        rec = json.loads((tmp_path / f"m{i}.jsonl").read_text().splitlines()[-1])
        rec.pop("s_per_iter")
        summaries.append(rec)
    if summaries[0] != summaries[1]:
        ok, detail = False, detail + ["determinism"]

    # dataset file roundtrip
    spec = DatasetSpec(t=16, d=3, n_samples=4, seed=6,
                       planted_lags=[(0, 1, 3, 0.9)], noise=0.2)
    samples = [apply_mask(s, 0.25, seed=i)
               for i, s in enumerate(gen_lagged_series(spec))]
    write_dataset(tmp_path / "rt.train", samples, task="imputation")
    loaded, _ = read_dataset(tmp_path / "rt.train")
    if not all(a == b for a, b in zip(samples, loaded)):
        ok, detail = False, detail + ["dataset roundtrip"]

    # checkpoint roundtrip
    cfg = M.RunConfig(task="imputation", d_in=3, d_model=4, d_k=4,
                      h=2, m=1, n_blocks=1, temporal="destat")
    params = M.init_params(cfg, seed=7)
    M.save_checkpoint(tmp_path / "rt.ckpt", params)
    loaded = M.init_params(cfg, seed=8)
    M.load_into(loaded, tmp_path / "rt.ckpt")
    if not all(np.array_equal(loaded[n].value, p.value) for n, p in params.items()):
        ok, detail = False, detail + ["checkpoint roundtrip"]

    report(8, "determinism and roundtrips", ok,
           "all bitwise" if ok else "failed: " + ", ".join(detail))
