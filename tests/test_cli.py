import json
import math
import os
import re
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from lagattn import cli
from lagattn import model as M
from lagattn import synthdata as S
from lagattn.synthdata import read_dataset


def run_cli(args, capsys=None):
    code = cli.main(args)
    return code


def gen_args(out, t=32, d=4, samples=10, task="imputation", extra=()):
    return ["gen-data", "--task", task, "--t", str(t), "--d", str(d),
            "--samples", str(samples), "--mask-ratio", "0.25",
            "--lags", "0:1:7@0.8", "--seed", "1", "--out", str(out), *extra]


class TestGenData:
    def test_writes_three_files(self, tmp_path, capsys):
        out = tmp_path / "toy"
        assert run_cli(gen_args(out)) == 0
        for suffix in ("train", "val", "test"):
            assert (tmp_path / f"toy.{suffix}").exists()

    def test_masked_count(self, tmp_path):
        out = tmp_path / "toy"
        run_cli(gen_args(out, t=96, d=8, samples=5))
        samples, task = read_dataset(f"{out}.train")
        assert task == "imputation"
        for s in samples:
            assert (s.mask == 0).sum() == 192  # 0.25 * 96 * 8

    def test_missing_required_flag_usage_exit(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen-data", "--task", "imputation", "--t", "16"])
        assert exc.value.code == cli.EXIT_USAGE

    def test_same_flags_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(gen_args(a))
        run_cli(gen_args(b))
        for suffix in ("train", "val", "test"):
            assert (tmp_path / f"a.{suffix}").read_text() \
                == (tmp_path / f"b.{suffix}").read_text()

    def test_out_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LAGATTN_OUT", str(tmp_path))
        run_cli(gen_args("envtoy"))
        assert (tmp_path / "envtoy.train").exists()


    @pytest.mark.parametrize("flags, where", [
        (["--task", "anomaly", "--t", "8", "--d", "2", "--noise", "1e300"],
         "sample 0 of the test split"),
        (["--task", "imputation", "--t", "8", "--d", "2", "--samples", "10",
          "--noise", "1e308"], "sample 1 of the train split"),
    ], ids=["anomaly-spike", "imputation-noise"])
    def test_overflowing_values_exit_usage(self, tmp_path, capsys, flags, where):
        # every sample of the three splits is checked before a file is written
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["gen-data", *flags, "--out", str(tmp_path / "big")])
        assert code == cli.EXIT_USAGE
        assert f"{where} holds a non-finite value" in capsys.readouterr().err
        assert not caught, [str(w.message) for w in caught]
        assert list(tmp_path.iterdir()) == []


@pytest.fixture()
def toy_dataset(tmp_path):
    out = tmp_path / "toy"
    run_cli(gen_args(out, t=24, d=3, samples=10))
    return out


TRAIN_FAST = ["--d-model", "8", "--d-k", "4", "--h", "2", "--m", "1",
              "--epochs", "2", "--batch", "4", "--lr", "0.003"]


class TestTrainEval:
    def test_train_emits_schema(self, toy_dataset, tmp_path, capsys):
        code = run_cli(["train", "--data", str(toy_dataset), *TRAIN_FAST,
                        "--metrics", str(tmp_path / "metrics.jsonl"),
                        "--checkpoint", str(tmp_path / "model.ckpt")])
        assert code == 0
        lines = [json.loads(l) for l in
                 (tmp_path / "metrics.jsonl").read_text().splitlines()]
        summary = lines[-1]
        assert summary["event"] == "summary"
        assert "mse" in summary and "mae" in summary
        assert "config_hash" in summary and "s_per_iter" in summary
        epochs = [l for l in lines if "epoch" in l]
        assert len(epochs) == 2

    def test_cab_on_off_both_run(self, toy_dataset, tmp_path, capsys):
        # with CAB (m < h) and without it: the base model, every head temporal
        for m in ("1", "2"):
            code = run_cli(["train", "--data", str(toy_dataset), *TRAIN_FAST,
                            "--m", m, "--metrics", str(tmp_path / f"m_{m}.jsonl")])
            assert code == 0
            summary = json.loads((tmp_path / f"m_{m}.jsonl")
                                 .read_text().splitlines()[-1])
            assert "mse" in summary and "mae" in summary

    def test_eval_roundtrip(self, toy_dataset, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        run_cli(["train", "--data", str(toy_dataset), *TRAIN_FAST,
                 "--checkpoint", str(ckpt),
                 "--metrics", str(tmp_path / "metrics.jsonl")])
        capsys.readouterr()
        assert run_cli(["eval", "--data", str(toy_dataset),
                        "--checkpoint", str(ckpt)]) == 0
        out = json.loads(capsys.readouterr().out.splitlines()[-1])
        train_summary = json.loads((tmp_path / "metrics.jsonl")
                                   .read_text().splitlines()[-1])
        assert out["mse"] == train_summary["mse"]

    def test_eval_corrupt_checkpoint_exit(self, toy_dataset, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        assert run_cli(["train", "--data", str(toy_dataset), *TRAIN_FAST,
                        "--checkpoint", str(ckpt)]) == 0
        lines = ckpt.read_text().splitlines()
        lines[2] = "oops"
        ckpt.write_text("\n".join(lines) + "\n")
        assert run_cli(["eval", "--data", str(toy_dataset),
                        "--checkpoint", str(ckpt)]) == cli.EXIT_FILE

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_eval_nonfinite_checkpoint_exit(self, toy_dataset, tmp_path, capsys, value):
        ckpt = tmp_path / "model.ckpt"
        assert run_cli(["train", "--data", str(toy_dataset), *TRAIN_FAST,
                        "--checkpoint", str(ckpt)]) == 0
        text = ckpt.read_text()
        start = re.search(r"^head\.w .*\n", text, re.M).end()   # its first value
        ckpt.write_text(text[:start] + value + text[text.index(",", start):])
        assert run_cli(["eval", "--data", str(toy_dataset),
                        "--checkpoint", str(ckpt)]) == cli.EXIT_FILE
        assert "non-finite value for head.w" in capsys.readouterr().err

    def test_eval_missing_per_head_entry_exit(self, toy_dataset, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        assert run_cli(["train", "--data", str(toy_dataset), *TRAIN_FAST,
                        "--checkpoint", str(ckpt)]) == 0
        text = ckpt.read_text()
        ckpt.write_text(re.sub(r"^block0\.head1\.w_v .*\n.*\n", "", text, flags=re.M))
        assert run_cli(["eval", "--data", str(toy_dataset),
                        "--checkpoint", str(ckpt)]) == cli.EXIT_FILE
        assert "missing parameter block0.head1.w_v" in capsys.readouterr().err

    def test_eval_duplicate_entry_exit(self, toy_dataset, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        assert run_cli(["train", "--data", str(toy_dataset), *TRAIN_FAST,
                        "--checkpoint", str(ckpt)]) == 0
        text = ckpt.read_text()
        ckpt.write_text(text + "head.b 1 3\n0.0,0.0,0.0\n")
        line = len(text.splitlines()) + 1
        assert run_cli(["eval", "--data", str(toy_dataset),
                        "--checkpoint", str(ckpt)]) == cli.EXIT_FILE
        assert f"duplicate entry head.b at line {line}" in capsys.readouterr().err

    def test_eval_unused_entry_exit(self, toy_dataset, tmp_path, capsys):
        # trained at h = 2, m = 1; at m = 2 head 1 is temporal, without the
        # beta and tau the checkpoint holds for it (named in file order)
        ckpt = tmp_path / "model.ckpt"
        assert run_cli(["train", "--data", str(toy_dataset), *TRAIN_FAST,
                        "--checkpoint", str(ckpt)]) == 0
        config = tmp_path / "model.ckpt.config"
        config.write_text(config.read_text().replace("m = 1\n", "m = 2\n"))
        assert cli.read_config(config)["m"] == "2"
        assert run_cli(["eval", "--data", str(toy_dataset),
                        "--checkpoint", str(ckpt)]) == cli.EXIT_FILE
        assert ("entry block0.head1.beta_raw is not a parameter of this model"
                in capsys.readouterr().err)

    def test_eval_reads_only_the_test_split(self, toy_dataset, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        assert run_cli(["train", "--data", str(toy_dataset), *TRAIN_FAST,
                        "--checkpoint", str(ckpt),
                        "--metrics", str(tmp_path / "metrics.jsonl")]) == 0
        mse = json.loads((tmp_path / "metrics.jsonl").read_text()
                         .splitlines()[-1])["mse"]
        for split in ("train", "val"):     # imputation scores the test split only
            os.remove(f"{toy_dataset}.{split}")
            capsys.readouterr()
            assert run_cli(["eval", "--data", str(toy_dataset),
                            "--checkpoint", str(ckpt)]) == 0
            assert json.loads(capsys.readouterr().out.splitlines()[-1])["mse"] == mse

    def test_anomaly_eval_needs_val(self, tmp_path, capsys):
        data = tmp_path / "anom"
        run_cli(gen_args(data, t=24, d=3, samples=10, task="anomaly"))
        ckpt = tmp_path / "anom.ckpt"
        assert run_cli(["train", "--data", str(data), *TRAIN_FAST,
                        "--checkpoint", str(ckpt)]) == 0
        os.remove(f"{data}.train")
        assert run_cli(["eval", "--data", str(data), "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        os.remove(f"{data}.val")
        assert run_cli(["eval", "--data", str(data), "--checkpoint", str(ckpt)]) \
            == cli.EXIT_FILE
        assert "anom.val" in capsys.readouterr().err

    def test_missing_dataset_file_exit(self, tmp_path, capsys):
        assert run_cli(["train", "--data", str(tmp_path / "nope"),
                        *TRAIN_FAST]) == cli.EXIT_FILE

    def test_three_class_train_then_eval(self, tmp_path, capsys):
        data = tmp_path / "cls"
        run_cli(gen_args(data, t=24, d=3, samples=12, task="classification",
                         extra=("--classes", "3")))
        labels = {s.label for s in read_dataset(f"{data}.train")[0]}
        assert max(labels) == 2
        ckpt = tmp_path / "cls.ckpt"
        assert run_cli(["train", "--data", str(data), *TRAIN_FAST,
                        "--checkpoint", str(ckpt)]) == 0
        assert cli.read_config(f"{ckpt}.config")["n_classes"] == "3"
        assert run_cli(["eval", "--data", str(data), "--checkpoint", str(ckpt)]) == 0

    def test_determinism_bitwise(self, toy_dataset, tmp_path, capsys):
        outs = []
        for i in range(2):
            run_cli(["train", "--data", str(toy_dataset), *TRAIN_FAST,
                     "--seed", "3",
                     "--metrics", str(tmp_path / f"det{i}.jsonl")])
            lines = (tmp_path / f"det{i}.jsonl").read_text().splitlines()
            outs.append([json.loads(l) for l in lines])
        # identical records except wall-clock timing
        for a, b in zip(outs[0], outs[1]):
            a.pop("s_per_iter", None)
            b.pop("s_per_iter", None)
            assert a == b


def _empty_val(prefix):
    S.write_dataset(f"{prefix}.val", [], task="imputation")


def _length_one(prefix):
    for name in ("train", "val", "test"):
        samples, task = read_dataset(f"{prefix}.{name}")
        S.write_dataset(f"{prefix}.{name}", [
            # no planted lag fits a series of length 1
            S.SeriesSample(values=s.values[:1], mask=s.mask[:1]) for s in samples],
            task=task)


def _wider_val(prefix):
    # a val split with one feature more than the train split
    samples, task = read_dataset(f"{prefix}.val")
    S.write_dataset(f"{prefix}.val", [
        S.SeriesSample(values=np.hstack([s.values, s.values[:, :1]]),
                       mask=np.hstack([s.mask, s.mask[:, :1]]),
                       planted_lags=s.planted_lags) for s in samples], task=task)


def _replace_sample(path, i, **fields):
    samples, task = read_dataset(path)
    samples[i] = replace(samples[i], **fields)
    S.write_dataset(path, samples, task=task)


def _no_mask(prefix):
    # an imputation sample whose header says mask 0
    _replace_sample(f"{prefix}.train", 2, mask=None)


def _full_mask(prefix):
    # an imputation sample that hides no entry, so it has nothing to score
    samples, _ = read_dataset(f"{prefix}.train")
    _replace_sample(f"{prefix}.train", 2, mask=np.ones_like(samples[2].mask))


def _full_test_masks(prefix):
    # a test split that hides no entry, so its metrics have nothing to average
    samples, _ = read_dataset(f"{prefix}.test")
    for i, s in enumerate(samples):
        _replace_sample(f"{prefix}.test", i, mask=np.ones_like(s.mask))


def _no_label(prefix):
    run_cli(gen_args(prefix, t=24, d=3, samples=10, task="classification"))
    _replace_sample(f"{prefix}.val", 1, label=None)


def _some_flags(prefix):
    # one anomaly train sample with flags among samples without
    run_cli(gen_args(prefix, t=24, d=3, samples=10, task="anomaly"))
    _replace_sample(f"{prefix}.train", 1, anomaly_flags=np.zeros(24, dtype=np.int64))


def _trailing_line(prefix):
    # a line after the test split's last sample (its file has 102 lines)
    with open(f"{prefix}.test", "a") as fh:
        fh.write("junk\n")


def _short_header(prefix):
    # a train header that declares 5 of its 6 samples
    path = f"{prefix}.train"
    text = open(path).read()
    open(path, "w").write(text.replace(" samples 6\n", " samples 5\n", 1))


def _nan_value(prefix):
    path = f"{prefix}.test"
    lines = open(path).read().splitlines()
    lines[4] = "nan," + lines[4].split(",", 1)[1]   # sample 0, first value
    open(path, "w").write("\n".join(lines) + "\n")


class TestEvalMatchesCheckpoint:
    """eval scores only data of the checkpoint's task and width, with labels
    it has an output for; anything else exits 3 naming both values."""

    def _checkpoint(self, tmp_path, task, d, extra=()):
        data, ckpt = tmp_path / task, tmp_path / f"{task}.ckpt"
        assert run_cli(gen_args(data, t=12, d=d, task=task, extra=extra)) == 0
        assert run_cli(["train", "--data", str(data), *TRAIN_FAST,
                        "--checkpoint", str(ckpt)]) == 0
        return ckpt

    @pytest.mark.parametrize("trained, data, match", [
        (("imputation", 2, ()), ("classification", 2, ("--classes", "2")),
         "trained with task = imputation, but .* has task = classification"),
        (("imputation", 2, ()), ("imputation", 3, ()),
         "trained with d_in = 2, but .* has d_in = 3"),
        (("classification", 2, ("--classes", "2")),
         ("classification", 2, ("--samples", "20", "--classes", "3")),
         "trained with n_classes = 2, but .* has the label 2"),
    ], ids=["task", "d_in", "label"])
    def test_mismatch_exits_file(self, tmp_path, capsys, trained, data, match):
        ckpt = self._checkpoint(tmp_path, *trained)
        out = tmp_path / "other"
        assert run_cli(gen_args(out, t=12, d=data[1], task=data[0], extra=data[2])) == 0
        capsys.readouterr()
        assert run_cli(["eval", "--data", str(out), "--checkpoint", str(ckpt)]) \
            == cli.EXIT_FILE
        captured = capsys.readouterr()
        assert re.search(match, captured.err) and captured.out == ""

    def test_fewer_labels_than_outputs_evaluates(self, tmp_path, capsys):
        ckpt = self._checkpoint(tmp_path, "classification", 2,
                                ("--samples", "20", "--classes", "3"))
        out = tmp_path / "two"
        assert run_cli(gen_args(out, t=12, d=2, task="classification",
                                extra=("--classes", "2"))) == 0
        assert run_cli(["eval", "--data", str(out), "--checkpoint", str(ckpt)]) == 0


class TestTooLittleData:
    """gen-data refuses data that cannot be trained on and flag values out of
    range (exit 2), and train refuses to load bad data (exit 3)."""

    @pytest.mark.parametrize("flags, code", [
        (["--t", "1"], cli.EXIT_USAGE),
        (["--samples", "0"], cli.EXIT_USAGE),
        (["--samples", "2"], cli.EXIT_USAGE),   # val split empty
        (["--samples", "3"], cli.EXIT_USAGE),   # test split empty
        (["--samples", "4"], 0),
        (["--lags", "0:1:30"], cli.EXIT_USAGE),  # lag outside [1, T-1] at T=24
        (["--mask-ratio", "0"], cli.EXIT_USAGE),
        (["--mask-ratio", "0.001"], cli.EXIT_USAGE),    # hides no entry of 24 x 3
        (["--task", "anomaly", "--anomaly-count", "40"], cli.EXIT_USAGE),
        (["--d", "0"], cli.EXIT_USAGE),
        (["--task", "classification", "--classes", "0"], cli.EXIT_USAGE),
        (["--noise", "nan"], cli.EXIT_USAGE),
        (["--noise", "-0.1"], cli.EXIT_USAGE),
        (["--task", "anomaly", "--anomaly-magnitude", "inf"], cli.EXIT_USAGE),
        (["--lags", "0:1:7@nan"], cli.EXIT_USAGE),
    ], ids=["t1", "samples0", "samples2", "samples3", "samples4", "lag-30",
            "mask-ratio-0", "mask-hides-nothing", "anomaly-count-40", "d0", "classes0",
            "noise-nan", "noise-negative", "anomaly-magnitude-inf", "weight-nan"])
    def test_gen_data(self, tmp_path, capsys, flags, code):
        out = tmp_path / "tiny"
        args = gen_args(out, t=24, d=3) + flags
        assert run_cli(args) == code
        assert (tmp_path / "tiny.train").exists() == (code == 0)

    @pytest.mark.parametrize("damage, match", [
        (_empty_val, r"toy\.val: the val split"),
        (_length_one, r"toy\.train: .*T >= 2"),
        (_nan_value, r"toy\.test:5: non-finite"),
        (_wider_val, r"toy\.val: the val split has d = 4 features, the train split 3"),
        (_no_mask, r"toy\.train: sample 2 has no mask"),
        (_full_mask, r"toy\.train: sample 2 hides no entry"),
        (_full_test_masks, r"toy\.test: no sample hides an entry"),
        (_no_label, r"toy\.val: sample 1 has no label"),
        (_some_flags, r"toy\.train: samples 0 and 1 disagree on anomaly flags"),
        (_trailing_line, r"toy\.test:103: line after the last of the 2 samples"),
        (_short_header, r"toy\.train:253: line after the last of the 5 samples"),
    ], ids=["empty-val", "t1", "nan", "d-mismatch", "no-mask", "full-mask",
            "full-test-masks", "no-label", "some-flags", "trailing-line",
            "short-header"])
    def test_train_rejects(self, toy_dataset, capsys, damage, match):
        damage(toy_dataset)
        assert run_cli(["train", "--data", str(toy_dataset), *TRAIN_FAST]) \
            == cli.EXIT_FILE
        err = capsys.readouterr().err
        assert re.search(match, err) and "Traceback" not in err


    def test_fully_observed_test_sample_scores(self, toy_dataset, tmp_path, capsys):
        # the test metrics average over the split's hidden entries, so one
        # test sample that hides none is scored with the others
        _replace_sample(f"{toy_dataset}.test", 0,
                        mask=np.ones_like(read_dataset(f"{toy_dataset}.test")[0][0].mask))
        ckpt = tmp_path / "model.ckpt"
        assert run_cli(["train", "--data", str(toy_dataset), *TRAIN_FAST,
                        "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        assert run_cli(["eval", "--data", str(toy_dataset), "--checkpoint",
                        str(ckpt)]) == 0
        assert math.isfinite(json.loads(capsys.readouterr().out)["mse"])


class TestNegativeSeed:
    """A negative seed, set by flag or by a --config file, exits 2 with a
    usage message instead of escaping main as numpy's ValueError."""

    @pytest.mark.parametrize("command, file_text", [
        ("gen-data", None), ("train", None), ("ablate", None),
        ("train", "seed = -1\n"),
    ], ids=["gen-data", "train", "ablate", "config-file"])
    def test_exits_usage(self, toy_dataset, tmp_path, capsys, command, file_text):
        if command == "gen-data":
            args = gen_args(tmp_path / "neg", t=24, d=3) + ["--seed", "-1"]
        elif file_text is None:
            args = [command, "--data", str(toy_dataset), *TRAIN_FAST, "--seed", "-1"]
        else:
            (tmp_path / "run.cfg").write_text(file_text)
            args = [command, "--data", str(toy_dataset), *TRAIN_FAST,
                    "--config", str(tmp_path / "run.cfg")]
        capsys.readouterr()
        assert run_cli(args) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert re.search(r"seed.*-1.*negative", captured.err)
        assert "Traceback" not in captured.err and captured.out == ""
        assert not (tmp_path / "neg.train").exists()


class TestHeap:
    """main keeps freed heap for reuse where the C library has mallopt."""

    def test_sets_glibc_thresholds(self, toy_dataset, monkeypatch, capsys):
        calls = []

        class Lib:
            def mallopt(self, param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: Lib())
        assert run_cli(["train", "--data", str(toy_dataset), *TRAIN_FAST]) == 0
        assert calls == [(-1, 256 << 20), (-3, 32 << 20)]   # trim, mmap thresholds

    def test_runs_without_mallopt(self, toy_dataset, monkeypatch, capsys):
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
        assert run_cli(["train", "--data", str(toy_dataset), *TRAIN_FAST]) == 0


class TestAblationPresets:
    def _cfg(self, preset):
        cfg = cli.RunConfig(ablation=preset)
        return cli.apply_ablation(cfg)

    def _correlated_heads(self, cfg):
        """Params, block 0's CAB options and its correlated heads' decoded
        (lam, beta), as model_forward uses them."""
        params = M.init_params(cfg, seed=0)
        x = np.random.default_rng(0).normal(size=(1, 8, cfg.d_in))
        attn = M.model_forward(x, params, cfg)[1].blocks[0].attn
        return params, attn.mix.cab, list(zip(attn.cab_cache.lam, attn.cab_cache.beta))

    def test_pure_preset(self):
        cfg = self._cfg("pure")
        assert cfg.m == 0
        assert not cfg.filtering_enabled
        params, opts, scalars = self._correlated_heads(cfg)
        assert not opts.filtering
        assert len(scalars) == cfg.h
        assert all(beta == 0.0 for _, beta in scalars)
        assert "block0.beta_raw" not in params

    def test_static_preset(self):
        cfg = self._cfg("static")
        assert cfg.lambda_mode == "fixed" and not cfg.beta_learnable
        assert cfg.beta_init == 0.5
        params, _, scalars = self._correlated_heads(cfg)
        assert all(lam == 0.5 and abs(beta - 0.5) < 1e-15 for lam, beta in scalars)
        assert "block0.lambda_raw" not in params

    def test_lambda_preset(self):
        cfg = self._cfg("lambda")
        assert cfg.lambda_mode == "learnable" and not cfg.beta_learnable
        params = M.init_params(cfg, seed=0)
        assert params["block0.lambda_raw"].value.shape == (cfg.h - cfg.m,)
        assert "block0.beta_raw" not in params

    def test_beta_preset_removed(self, toy_dataset, capsys):
        # at the defaults it set exactly the baseline's values
        assert "beta" not in cli.ABLATION_PRESETS
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--data", str(toy_dataset), *TRAIN_FAST,
                      "--ablation", "beta"])
        assert exc.value.code == cli.EXIT_USAGE

    def test_ablate_rejects_ablation_flag(self, toy_dataset, capsys):
        # ablate runs every preset; a preset flag would be silently ignored
        with pytest.raises(SystemExit) as exc:
            cli.main(["ablate", "--data", str(toy_dataset), *TRAIN_FAST,
                      "--ablation", "static"])
        assert exc.value.code == cli.EXIT_USAGE

    def test_unknown_preset_rejected(self):
        with pytest.raises(cli.UsageError):
            cli.apply_ablation(cli.RunConfig(ablation="bogus"))

    def test_ablate_command_emits_all_presets(self, toy_dataset, capsys):
        code = run_cli(["ablate", "--data", str(toy_dataset), *TRAIN_FAST])
        assert code == 0
        out = capsys.readouterr().out
        records = [json.loads(l) for l in out.splitlines()
                   if l.startswith("{")]
        presets = {r["preset"] for r in records if r.get("event") == "ablate"}
        assert presets == set(cli.ABLATION_PRESETS)

    def test_ablate_stdout_is_strict_jsonl(self, toy_dataset, capsys):
        # every stdout line is one JSON object, with no NaN or Infinity
        def reject(constant):
            raise ValueError(f"non-finite JSON constant {constant}")

        assert run_cli(["ablate", "--data", str(toy_dataset), *TRAIN_FAST]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(cli.ABLATION_PRESETS)
        for line in lines:
            assert isinstance(json.loads(line, parse_constant=reject), dict), line


class TestConfigFile:
    def test_roundtrip(self, tmp_path):
        cfg = cli.RunConfig(h=4, m=2, lr=0.01, task="anomaly")
        path = tmp_path / "run.cfg"
        cli.write_config(path, cfg)
        loaded = cli.config_from_dict(cli.read_config(path))
        assert loaded == cfg

    def test_hash_stable(self):
        assert cli.RunConfig().config_hash() == cli.RunConfig().config_hash()
        assert cli.RunConfig().config_hash() != cli.RunConfig(seed=1).config_hash()

    def test_bad_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("this is not a config\n")
        with pytest.raises(cli.UsageError):
            cli.read_config(path)

    def test_lag_spec_parser(self):
        assert cli.parse_lag_spec("0:1:7@0.8,2:3:13") == \
            [(0, 1, 7, 0.8), (2, 3, 13, 1.0)]
        with pytest.raises(cli.UsageError):
            cli.parse_lag_spec("junk")


class TestRunConfig:
    @pytest.mark.parametrize("flags, file_text, code", [
        (["--h", "2", "--m", "3"], None, cli.EXIT_USAGE),
        ([], "h = two\n", cli.EXIT_USAGE),
        ([], "beta_init = 0.0\n", cli.EXIT_USAGE),
        (["--ablation", "pure"], "beta_init = 0.0\n", 0),  # beta unused: no filtering
        ([], "lambda_init = 1.0\n", cli.EXIT_USAGE),
        ([], "tau_init = 0\n", cli.EXIT_USAGE),
        ([], "temporal = sideways\n", cli.EXIT_USAGE),
        (["--epochs", "0"], None, cli.EXIT_USAGE),
        (["--batch", "0"], None, cli.EXIT_USAGE),
        (["--d-k", "0"], None, cli.EXIT_USAGE),
        (["--lr", "-1"], None, cli.EXIT_USAGE),
        (["--lr", "nan"], None, cli.EXIT_USAGE),
        (["--lr", "inf"], None, cli.EXIT_USAGE),
        ([], "tau_init = inf\n", cli.EXIT_USAGE),
        ([], "d_ff = 64\n", cli.EXIT_USAGE),  # derived from d_model, not a key
        ([], "cab = Ture\n", cli.EXIT_USAGE),
        (["--model", "nonstationary", "--temporal", "self"], None, cli.EXIT_USAGE),
        (["--model", "transformer", "--temporal", "destat"], None, cli.EXIT_USAGE),
        (["--model", "nonstationary", "--temporal", "destat"], None, 0),
        (["--lr", "1e9"], None, cli.EXIT_NUMERICAL),  # tau collapses to 0
        (["--blocks", "-1"], None, cli.EXIT_USAGE),
        (["--patience", "-3"], None, cli.EXIT_USAGE),
    ], ids=["m>h", "non-numeric", "beta_init", "beta_init-pure", "lambda_init",
            "tau_init", "temporal", "epochs", "batch", "d_k", "lr", "lr-nan", "lr-inf",
            "tau_init-inf", "d_ff",
            "bool", "nonstationary-self", "transformer-destat",
            "nonstationary-destat", "lr-huge", "blocks", "patience"])
    def test_config_errors_exit_usage(self, toy_dataset, tmp_path, capsys,
                                      flags, file_text, code):
        config = []
        if file_text is not None:
            (tmp_path / "run.cfg").write_text(file_text)
            config = ["--config", str(tmp_path / "run.cfg")]
        assert run_cli(["train", "--data", str(toy_dataset), *TRAIN_FAST,
                        *config, *flags]) == code

    def test_every_model_flag_lands_in_the_config(self, toy_dataset, tmp_path, capsys):
        flags = ["--d-model", "6", "--d-k", "3", "--h", "3", "--m", "2", "--blocks", "2",
                 "--c", "2", "--model", "nonstationary", "--lag-path", "naive",
                 "--ablation", "static", "--lr", "0.002", "--batch", "5", "--epochs", "1",
                 "--patience", "4", "--seed", "7"]
        want = dict(d_model=6, d_k=3, h=3, m=2, n_blocks=2, c=2, temporal="destat",
                    lag_path="naive", ablation="static", lr=0.002, batch_size=5, epochs=1,
                    patience=4, seed=7)
        # the flags above set every config field that train parses
        parsed = vars(cli.build_parser().parse_args(["train", "--data", "x"]))
        assert set(parsed) & set(asdict(cli.RunConfig())) == set(want)
        ckpt = tmp_path / "all.ckpt"
        assert run_cli(["train", "--data", str(toy_dataset), *flags,
                        "--checkpoint", str(ckpt)]) == 0
        cfg = cli.config_from_dict(cli.read_config(f"{ckpt}.config"))
        assert {key: getattr(cfg, key) for key in want} == want

    def test_readme_table_names_every_field(self):
        # the first column of README's "Run config" table, and its key count
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Run config\n", 1)[1].split("\n### ", 1)[0]
        table = section.split("| --- |", 1)[1].split("\n\n", 1)[0]
        keys = [key for row in table.splitlines()[1:]
                for key in re.findall(r"`(\w+)`", row.split("|")[1])]
        fields = list(asdict(cli.RunConfig()))
        assert sorted(keys) == sorted(fields)
        assert f"These are the {len(fields)} keys." in section

    def test_numerical_abort_names_epoch_and_batch(self, toy_dataset, capsys):
        assert run_cli(["train", "--data", str(toy_dataset), *TRAIN_FAST,
                        "--lr", "1e9"]) == cli.EXIT_NUMERICAL
        abort = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert abort["event"] == "abort"
        assert abort["reason"].startswith("epoch 0, batch 1: ")

    def test_finite_divergence_exits_zero(self, toy_dataset, capsys):
        # exit 4 is for a non-finite loss or a scalar out of its range; a run
        # that diverges but stays finite exits 0 and its records show it
        assert run_cli(["train", "--data", str(toy_dataset), *TRAIN_FAST,
                        "--lr", "1e9", "--m", "2"]) == 0

        def reject(token):
            raise ValueError(f"non-finite JSON constant {token}")

        records = [json.loads(line, parse_constant=reject)
                   for line in capsys.readouterr().out.splitlines()]
        assert records[-1]["event"] == "summary"
        assert records[-1]["final_val_loss"] > 1e30

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_nonfinite_metric_exits_numerical(self, tmp_path, capsys):
        # a finite test split whose squares overflow in stationarize: train
        # and eval abort naming the metric instead of printing Infinity
        data = tmp_path / "sm"
        assert run_cli(["gen-data", "--task", "imputation", "--t", "24", "--d", "3",
                        "--samples", "20", "--out", str(data)]) == 0
        samples, task = read_dataset(f"{data}.test")
        S.write_dataset(f"{data}.test", [replace(s, values=s.values * 1e200)
                                         for s in samples], task=task)
        read_dataset(f"{data}.test")             # finite, so the reader accepts it
        capsys.readouterr()

        def reject(token):
            raise ValueError(f"non-finite JSON constant {token}")

        for args in (["train", "--data", str(data), "--h", "2", "--m", "1",
                      "--d-model", "8", "--d-k", "4", "--epochs", "1",
                      "--checkpoint", str(tmp_path / "ck")],
                     ["eval", "--data", str(data), "--checkpoint", str(tmp_path / "ck")]):
            assert run_cli(args) == cli.EXIT_NUMERICAL, args[0]
            out, err = capsys.readouterr()
            abort = json.loads(err.splitlines()[-1])
            assert abort["event"] == "abort" and "mse" in abort["reason"], abort
            for line in out.splitlines():
                json.loads(line, parse_constant=reject)

    @pytest.mark.parametrize("flags, name", [
        ([], r"block0\.head1\.tau_raw"),      # the correlated head's temperature
        (["--model", "nonstationary"], r"destat\.xi"),
    ], ids=["tau", "xi"])
    def test_numerical_abort_names_parameter(self, toy_dataset, capsys, flags, name):
        assert run_cli(["train", "--data", str(toy_dataset), *TRAIN_FAST,
                        "--lr", "1e9", *flags]) == cli.EXIT_NUMERICAL
        reason = json.loads(capsys.readouterr().err.splitlines()[-1])["reason"]
        assert re.match(r"epoch 0, batch 1: " + name + r": \w+ must be positive",
                        reason), reason

    def test_nonfinite_gradient_names_parameter(self, toy_dataset, capsys, monkeypatch):
        backward = M.model_backward

        def plant_nan(dpred, cache, params, cfg):
            backward(dpred, cache, params, cfg)
            params["block0.w_qkv"].grad[0, 1, 0, 2] = np.nan

        monkeypatch.setattr(M, "model_backward", plant_nan)
        assert run_cli(["train", "--data", str(toy_dataset), *TRAIN_FAST]) \
            == cli.EXIT_NUMERICAL
        abort = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert abort == {"event": "abort",
                         "reason": "epoch 0, batch 0: non-finite gradient in block0.w_qkv"}

    @pytest.mark.parametrize("flags, file_text, batch", [
        ([], None, 128),
        ([], "batch_size = 4\n", 4),
        (["--batch", "8"], "batch_size = 4\n", 8),
    ], ids=["default", "file", "flag"])
    def test_anomaly_batch_default(self, tmp_path, capsys, flags, file_text, batch):
        data = tmp_path / "an"
        run_cli(gen_args(data, t=24, d=3, samples=10, task="anomaly"))
        config = []
        if file_text is not None:
            (tmp_path / "run.cfg").write_text(file_text)
            config = ["--config", str(tmp_path / "run.cfg")]
        ckpt = tmp_path / "an.ckpt"
        assert run_cli(["train", "--data", str(data), "--d-model", "8", "--d-k", "4",
                        "--h", "2", "--m", "1", "--epochs", "1", *config, *flags,
                        "--checkpoint", str(ckpt)]) == 0
        assert cli.read_config(f"{ckpt}.config")["batch_size"] == str(batch)


# a .config file as written before the model and run configs were merged,
# with the config_hash that train and eval reported for it then
OLD_BASELINE_CONFIG = """\
ablation = baseline
batch_size = 4
beta_init = 0.5
beta_learnable = True
c = 1
cab = True
d_in = 3
d_k = 4
d_model = 8
epochs = 2
filtering_enabled = True
h = 2
lag_path = fft
lambda_init = 0.5
lambda_mode = fixed
lr = 0.003
m = 1
n_blocks = 1
n_classes = 2
patience = 10
positional = none
seed = 0
task = imputation
tau_init = 1.0
tau_learnable = True
temporal = self
"""
OLD_PURE_CONFIG = (OLD_BASELINE_CONFIG
                   .replace("ablation = baseline", "ablation = pure")
                   .replace("beta_init = 0.5", "beta_init = 0.0")
                   .replace("beta_learnable = True", "beta_learnable = False")
                   .replace("filtering_enabled = True", "filtering_enabled = False")
                   .replace("m = 1", "m = 0"))


class TestConfigCompatibility:
    @pytest.mark.parametrize("preset, text, old_hash", [
        ("baseline", OLD_BASELINE_CONFIG, "91bcdb1f0dbff104"),
        ("pure", OLD_PURE_CONFIG, "77f8aa84edc7b5e3"),
    ], ids=["baseline", "pure"])
    def test_old_config_evaluates(self, toy_dataset, tmp_path, capsys,
                                  preset, text, old_hash):
        ckpt = tmp_path / "model.ckpt"
        assert run_cli(["train", "--data", str(toy_dataset), *TRAIN_FAST,
                        "--ablation", preset, "--checkpoint", str(ckpt)]) == 0
        trained = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert trained["config_hash"] == old_hash
        (tmp_path / "model.ckpt.config").write_text(text)
        assert run_cli(["eval", "--data", str(toy_dataset),
                        "--checkpoint", str(ckpt)]) == 0
        out = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert out["config_hash"] == old_hash
        assert out["mse"] == trained["mse"]

    def test_beta_preset_checkpoint_evaluates(self, toy_dataset, tmp_path, capsys):
        # the dropped beta preset set the baseline's values: a checkpoint it
        # trained evaluates from its .config, which names it
        ckpt = tmp_path / "model.ckpt"
        assert run_cli(["train", "--data", str(toy_dataset), *TRAIN_FAST,
                        "--checkpoint", str(ckpt)]) == 0
        trained = json.loads(capsys.readouterr().out.splitlines()[-1])
        (tmp_path / "model.ckpt.config").write_text(
            OLD_BASELINE_CONFIG.replace("ablation = baseline", "ablation = beta"))
        assert run_cli(["eval", "--data", str(toy_dataset),
                        "--checkpoint", str(ckpt)]) == 0
        out = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert out["mse"] == trained["mse"]
        assert out["config_hash"] != trained["config_hash"]


class TestRemovedFields:
    """Keys RunConfig dropped (M.REMOVED_FIELDS): a config file may name one
    at its old value only, and no flag sets one."""

    def test_config_file_holds_current_keys(self, tmp_path):
        cli.write_config(tmp_path / "run.cfg", cli.RunConfig())
        keys = cli.read_config(tmp_path / "run.cfg")
        assert len(keys) == 21
        assert not set(keys) & set(M.REMOVED_FIELDS)

    def test_old_value_accepted_in_any_spelling(self):
        cfg = cli.config_from_dict({"cab": "on", "positional": "none", "tau_init": "1",
                                    "tau_learnable": "true", "lambda_init": "0.50"})
        assert cfg == cli.RunConfig()

    @pytest.mark.parametrize("line", [
        "cab = False", "positional = sin", "tau_init = 2.0", "tau_learnable = False",
        "lambda_init = 0.3", "tau_init = nan", "cab = maybe",
    ], ids=["cab", "positional", "tau_init", "tau_learnable", "lambda_init",
            "tau_init-nan", "cab-not-bool"])
    def test_eval_rejects_other_value(self, toy_dataset, tmp_path, capsys, line):
        ckpt = tmp_path / "model.ckpt"
        assert run_cli(["train", "--data", str(toy_dataset), *TRAIN_FAST,
                        "--checkpoint", str(ckpt)]) == 0
        key = line.split(" = ")[0]
        (tmp_path / "model.ckpt.config").write_text(
            (tmp_path / "model.ckpt.config").read_text() + line + "\n")
        capsys.readouterr()
        assert run_cli(["eval", "--data", str(toy_dataset),
                        "--checkpoint", str(ckpt)]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert f"config key {key!r}" in captured.err and captured.out == ""

    @pytest.mark.parametrize("flag", [["--cab", "off"], ["--cab", "on"],
                                      ["--positional", "sin"]],
                             ids=["cab-off", "cab-on", "positional-sin"])
    def test_removed_flags_exit_usage(self, toy_dataset, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--data", str(toy_dataset), *TRAIN_FAST, *flag])
        assert exc.value.code == cli.EXIT_USAGE
