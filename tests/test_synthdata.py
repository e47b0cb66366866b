import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lagattn import model as M
from lagattn.numerics import l2_normalize_cols
from lagattn.synthdata import (
    AR_COEF,
    SIN_AMP,
    DatasetParseError,
    DatasetSpec,
    DatasetSpecError,
    SeriesSample,
    apply_mask,
    gen_lagged_series,
    inject_anomalies,
    read_dataset,
    split_dataset,
    to_training_sample,
    write_dataset,
)
from lagattn.xcorr import xcorr_all_lags_naive

from helpers import same_sample


def _base_feature(rng, t: int) -> np.ndarray:
    e = rng.normal(size=t)
    x = np.array(list(itertools.accumulate(e.tolist(), lambda a, b: AR_COEF * a + b)))
    freq = rng.integers(1, max(t // 4, 2))
    phase = rng.uniform(0.0, 2.0 * math.pi)
    x = x + SIN_AMP * math.sqrt(t) * np.sin(2.0 * math.pi * freq *
                                            np.arange(t) / t + phase) / math.sqrt(t)
    x = x - x.mean()
    return x / max(x.std(), 1e-12)


def oracle_gen_lagged_series(spec: DatasetSpec) -> list:
    """The generator one sample and one feature at a time, the reference the
    block generator must match bit for bit."""
    spec.validate()
    samples = []
    for idx in range(spec.n_samples):
        rng = np.random.default_rng([spec.seed, idx])
        base = np.stack([_base_feature(rng, spec.t) for _ in range(spec.d)], axis=1)
        label = None
        lags = [tuple(p) for p in spec.planted_lags]
        if spec.task == "classification":
            label = int(rng.integers(spec.n_classes))
            lags = [(s, djj, 1 + (lag - 1 + label) % (spec.t - 1), w)
                    for (s, djj, lag, w) in lags]
        values = base.copy()
        for src, dst, lag, w in lags:
            coupled = (w * np.roll(base[:, src], lag)
                       + math.sqrt(max(0.0, 1.0 - w * w)) * base[:, dst])
            values[:, dst] = coupled
        if spec.noise > 0:
            values = values + spec.noise * rng.normal(size=values.shape)
        samples.append(SeriesSample(values=values, label=label,
                                    planted_lags=lags))
    return samples


# the data of the benchmark's toy and long workloads
TOY_SPEC = DatasetSpec(t=96, d=8, n_samples=200, seed=1, noise=0.1,
                       planted_lags=[(0, 1, 7, 1.0), (2, 3, 13, 1.0)])
LONG_SPEC = DatasetSpec(task="classification", t=512, d=6, n_samples=160, seed=1,
                        noise=0.1, planted_lags=[(0, 1, 29, 1.0), (2, 3, 61, 1.0)])


class TestBlocksMatchOracle:
    @pytest.mark.parametrize("spec", [
        TOY_SPEC,
        LONG_SPEC,
        # 2^14 // (513 * 7) = 4 samples a block: the last block holds 3
        DatasetSpec(task="classification", t=513, d=7, n_samples=11, n_classes=3,
                    seed=5, noise=0.3, planted_lags=[(0, 1, 500, 0.7), (6, 1, 3, 0.2)]),
        DatasetSpec(t=2, d=1, n_samples=5, seed=3, planted_lags=[(0, 0, 1, 0.5)],
                    noise=0.2),
        DatasetSpec(task="anomaly", t=64, d=4, n_samples=30, seed=7, noise=0.05,
                    planted_lags=[(1, 2, 5, 0.9)]),
    ], ids=["toy", "long", "t513-short-block", "t2-d1", "anomaly"])
    def test_bitwise_equal(self, spec):
        got, want = gen_lagged_series(spec), oracle_gen_lagged_series(spec)
        assert len(got) == len(want) == spec.n_samples
        for a, b in zip(got, want):
            assert a.values.shape == (spec.t, spec.d)
            assert a.values.tobytes() == b.values.tobytes()
            assert a.label == b.label
            assert a.planted_lags == b.planted_lags

    def test_generation_peak_beyond_values(self):
        """One long dataset allocates under 1 MB beyond the values it returns:
        the block arrays, not the whole dataset's temporaries."""
        gen_lagged_series(LONG_SPEC)                          # warm up
        tracemalloc.start()
        try:
            samples = gen_lagged_series(LONG_SPEC)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - sum(s.values.nbytes for s in samples) < 2 ** 20


class TestGeneration:
    def test_deterministic(self):
        spec = DatasetSpec(t=32, d=4, n_samples=3, seed=9,
                           planted_lags=[(0, 1, 5, 0.8)], noise=0.1)
        a = gen_lagged_series(spec)
        b = gen_lagged_series(spec)
        assert all(same_sample(x, y) for x, y in zip(a, b))

    def test_planted_lag_measurable(self):
        # unit coupling, no noise: cross-correlation of (src, dst) peaks at L
        spec = DatasetSpec(t=96, d=4, n_samples=4, seed=10,
                           planted_lags=[(0, 2, 7, 1.0)], noise=0.0)
        for s in gen_lagged_series(spec):
            f = l2_normalize_cols(s.values)
            stack = xcorr_all_lags_naive(f, f)
            corr = np.abs(stack[:, 0, 2])  # key col 0 against query col 2
            assert int(np.argmax(corr[1:])) + 1 == 7

    def test_zero_coupling_no_planted_peak(self):
        # with w = 0 the nominal lag is not preferentially the argmax
        hits = 0
        for seed in range(20):
            spec = DatasetSpec(t=96, d=4, n_samples=1, seed=seed,
                               planted_lags=[(0, 2, 7, 0.0)], noise=0.0)
            s = gen_lagged_series(spec)[0]
            f = l2_normalize_cols(s.values)
            corr = np.abs(xcorr_all_lags_naive(f, f)[:, 0, 2])
            hits += int(np.argmax(corr[1:]) + 1 == 7)
        assert hits <= 5

    def test_bad_lag_rejected(self):
        with pytest.raises(DatasetSpecError):
            gen_lagged_series(DatasetSpec(t=16, d=2, planted_lags=[(0, 1, 16, 1.0)]))

    def test_classification_labels(self):
        spec = DatasetSpec(task="classification", t=32, d=3, n_samples=20,
                           seed=11, planted_lags=[(0, 1, 4, 1.0)], n_classes=3)
        labels = {s.label for s in gen_lagged_series(spec)}
        assert labels <= {0, 1, 2} and len(labels) > 1


class TestMasking:
    def test_exact_half(self):
        spec = DatasetSpec(t=96, d=8, n_samples=1, seed=12)
        s = apply_mask(gen_lagged_series(spec)[0], 0.5, seed=0)
        assert (s.mask == 0).sum() == 384

    def test_protocol_ratio(self):
        spec = DatasetSpec(t=96, d=8, n_samples=1, seed=13)
        s = apply_mask(gen_lagged_series(spec)[0], 0.125, seed=0)
        assert (s.mask == 0).sum() == 96

    def test_seeds_differ_counts_match(self):
        spec = DatasetSpec(t=48, d=4, n_samples=1, seed=14)
        base = gen_lagged_series(spec)[0]
        a = apply_mask(base, 0.25, seed=1)
        b = apply_mask(base, 0.25, seed=2)
        assert (a.mask == 0).sum() == (b.mask == 0).sum()
        assert not np.array_equal(a.mask, b.mask)

    def test_observed_values_untouched(self):
        spec = DatasetSpec(t=24, d=3, n_samples=1, seed=15)
        base = gen_lagged_series(spec)[0]
        masked = apply_mask(base, 0.3, seed=3)
        assert np.array_equal(masked.values, base.values)

    def test_bool_mask_survives_a_file(self, tmp_path):
        # one byte per entry, in memory and after a round trip through a file
        spec = DatasetSpec(t=24, d=3, n_samples=2, seed=17)
        samples = [apply_mask(s, 0.3, seed=i)
                   for i, s in enumerate(gen_lagged_series(spec))]
        write_dataset(tmp_path / "m.train", samples)
        loaded, _ = read_dataset(tmp_path / "m.train")
        for a, b in zip(samples, loaded):
            assert a.mask.dtype == b.mask.dtype == np.bool_
            assert np.array_equal(a.mask, b.mask)

    def test_bad_ratio(self):
        spec = DatasetSpec(t=8, d=2, n_samples=1, seed=16)
        with pytest.raises(Exception):
            apply_mask(gen_lagged_series(spec)[0], 1.0, seed=0)


class TestAnomalies:
    def _sample(self, seed=17):
        return gen_lagged_series(DatasetSpec(t=64, d=4, n_samples=1, seed=seed))[0]

    def test_count_zero_unchanged(self):
        s = self._sample()
        out = inject_anomalies(s, 0, 10.0, seed=0)
        assert np.array_equal(out.values, s.values)
        assert out.anomaly_flags.sum() == 0

    def test_spikes_are_top_deviations(self):
        s = self._sample(18)
        out = inject_anomalies(s, 5, 20.0, seed=1)
        dev = np.abs(out.values - s.values).max(axis=1)
        top5 = set(np.argsort(dev)[-5:])
        assert top5 == set(np.flatnonzero(out.anomaly_flags))

    def test_deterministic(self):
        s = self._sample(19)
        assert same_sample(inject_anomalies(s, 3, 5.0, seed=7),
                           inject_anomalies(s, 3, 5.0, seed=7))

    def test_count_too_large(self):
        with pytest.raises(Exception):
            inject_anomalies(self._sample(), 64, 5.0, seed=0)


class TestSplit:
    def test_ratios(self):
        samples = gen_lagged_series(DatasetSpec(t=8, d=2, n_samples=20, seed=20))
        tr, va, te = split_dataset(samples)
        assert (len(tr), len(va), len(te)) == (12, 4, 4)


class TestFileFormat:
    def _dataset(self, task="imputation"):
        spec = DatasetSpec(task=task, t=16, d=3, n_samples=4, seed=21,
                           planted_lags=[(0, 1, 3, 0.9)], noise=0.2)
        samples = gen_lagged_series(spec)
        if task == "imputation":
            samples = [apply_mask(s, 0.25, seed=i) for i, s in enumerate(samples)]
        if task == "anomaly":
            samples = [inject_anomalies(s, 2, 8.0, seed=i)
                       for i, s in enumerate(samples)]
        return samples

    @pytest.mark.parametrize("task", ["imputation", "anomaly", "classification"])
    def test_roundtrip(self, tmp_path, task):
        samples = self._dataset(task)
        path = tmp_path / "data.train"
        write_dataset(path, samples, task=task)
        loaded, loaded_task = read_dataset(path)
        assert loaded_task == task
        assert all(same_sample(a, b) for a, b in zip(samples, loaded))
        assert len(loaded) == len(samples)

    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.train"
        write_dataset(path, [], task="imputation")
        loaded, task = read_dataset(path)
        assert loaded == [] and task == "imputation"

    def test_corrupt_tag(self, tmp_path):
        path = tmp_path / "bad.train"
        path.write_text("garbage\n")
        with pytest.raises(DatasetParseError, match="format tag"):
            read_dataset(path)

    def test_corrupt_header_names_position(self, tmp_path):
        path = tmp_path / "bad.train"
        path.write_text("lagattn-dataset v1\nT x d 3 task imputation samples 1\n")
        with pytest.raises(DatasetParseError, match=":2:"):
            read_dataset(path)

    @pytest.mark.parametrize("corrupt, match", [
        (lambda lines: lines[:3] + ["0 1 x 0.9"] + lines[4:], ":4: planted lag"),
        (lambda lines: lines[:3], ":3: unexpected end of file in planted lags"),
        (lambda lines: lines[:2] + [lines[2].replace("label -", "label x")]
         + lines[3:], ":3: .*label"),
        (lambda lines: lines[:4] + ["nan," + lines[4].split(",", 1)[1]] + lines[5:],
         ":5: non-finite value"),
        (lambda lines: lines[:5] + ["-inf," + lines[5].split(",", 1)[1]] + lines[6:],
         ":6: non-finite value"),
        (lambda lines: lines[:2] + [lines[2].replace("label -", "label -1")]
         + lines[3:], ":3: sample label -1 is negative"),
        (lambda lines: lines[:20] + ["5," + lines[20].split(",", 1)[1]] + lines[21:],
         ":21: mask entry outside"),
        (lambda lines: lines[:21] + ["-1," + lines[21].split(",", 1)[1]] + lines[22:],
         ":22: mask entry outside"),
    ], ids=["planted-non-numeric", "planted-truncated", "label", "nan", "inf",
            "negative-label", "mask-5", "mask-negative"])
    def test_corrupt_sample_names_position(self, tmp_path, corrupt, match):
        path = tmp_path / "bad.train"
        write_dataset(path, self._dataset(), task="imputation")
        lines = path.read_text().splitlines()
        assert lines[2].split()[4:6] == ["label", "-"]    # sample 0's header
        assert lines[3].split()[:3] == ["0", "1", "3"]    # and its planted lag
        path.write_text("\n".join(corrupt(lines)) + "\n")
        with pytest.raises(DatasetParseError, match=match):
            read_dataset(path)

    @pytest.mark.parametrize("flag", ["2", "-1"])
    def test_anomaly_flag_outside_binary(self, tmp_path, flag):
        path = tmp_path / "bad.test"
        write_dataset(path, self._dataset("anomaly"), task="anomaly")
        lines = path.read_text().splitlines()
        assert lines[20].count(",") == 15           # sample 0's flags
        lines[20] = flag + "," + lines[20].split(",", 1)[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetParseError, match=":21: anomaly flag outside"):
            read_dataset(path)

    @pytest.mark.parametrize("field, value, match", [
        ("mask", 2, "sample 1: mask entry outside"),
        ("mask", 0.5, "sample 1: mask entry outside"),
        ("mask", np.nan, "sample 1: mask entry outside"),
        ("anomaly_flags", -1, "sample 1: anomaly flag entry outside"),
    ], ids=["mask-2", "mask-half", "mask-nan", "flag-negative"])
    def test_write_rejects_non_binary(self, tmp_path, field, value, match):
        samples = self._dataset("imputation" if field == "mask" else "anomaly")
        entries = getattr(samples[1], field).astype(np.float64)
        entries.flat[3] = value
        samples[1] = replace(samples[1], **{field: entries})
        with pytest.raises(ValueError, match=match):
            write_dataset(tmp_path / "bad.train", samples, task="imputation")

    def test_rejected_sample_leaves_no_file(self, tmp_path):
        # every sample is checked before the file is opened: no partial file
        # is left, and a file already at the path stays as it was
        samples = [apply_mask(s, 0.25, seed=i) for i, s in enumerate(
            gen_lagged_series(DatasetSpec(t=8, d=2, n_samples=3, seed=22)))]
        mask = samples[1].mask.astype(np.int64)
        mask[0, 0] = 2
        samples[1] = replace(samples[1], mask=mask)
        path = tmp_path / "bad.train"
        with pytest.raises(ValueError, match="sample 1: mask entry outside"):
            write_dataset(path, samples, task="imputation")
        assert not path.exists()
        path.write_text("kept\n")
        with pytest.raises(ValueError, match="sample 1: mask entry outside"):
            write_dataset(path, samples, task="imputation")
        assert path.read_text() == "kept\n"

    def test_truncated_sample(self, tmp_path):
        samples = self._dataset()
        path = tmp_path / "trunc.train"
        write_dataset(path, samples, task="imputation")
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-5]) + "\n")
        with pytest.raises(DatasetParseError):
            read_dataset(path)


class TestTrainingSamples:
    def _sample(self):
        return apply_mask(gen_lagged_series(DatasetSpec(t=8, d=2, n_samples=1,
                                                        seed=22))[0], 0.5, seed=0)

    def test_imputation_input_is_the_values(self):
        # no masked copy is held: the model masks its input itself
        s = self._sample()
        x_in, target, mask, label = to_training_sample(s, "imputation")
        assert x_in is s.values and target is s.values and mask is s.mask

    def test_imputation_input_zeroed(self):
        # the input the model caches, and runs on, hides the masked entries
        x_in, target, mask, label = to_training_sample(self._sample(), "imputation")
        cfg = M.RunConfig(task="imputation", d_in=2, d_model=4, d_k=2, h=2, m=1)
        x = M.model_forward(x_in, M.init_params(cfg), cfg, mask)[1].x[0]
        assert np.array_equal(x[mask == 0], np.zeros((mask == 0).sum()))
        assert np.array_equal(x[mask == 1], target[mask == 1])
