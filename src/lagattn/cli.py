"""Command line front end: gen-data, train, eval, ablate.

Metrics are emitted as newline-delimited JSON records (one object per
line). Exit codes: 0 success, 2 usage, 3 file problems, 4 numerical
failure. The LAGATTN_OUT environment variable sets the default output
directory.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import model as M
from . import synthdata as S
from .model import RunConfig
from .numerics import ParameterError

EXIT_USAGE = 2
EXIT_FILE = 3
EXIT_NUMERICAL = 4

# preset -> config overrides, applied after the --config file and the flags
ABLATION_PRESETS = {
    "baseline": {},
    # all-correlated heads, no lag filtering, beta pinned to 0
    "pure": dict(m=0, filtering_enabled=False, beta_learnable=False, beta_init=0.0,
                 lambda_mode="fixed"),
    "static": dict(lambda_mode="fixed", beta_learnable=False, beta_init=0.5),
    "lambda": dict(lambda_mode="learnable", beta_learnable=False, beta_init=0.5),
}

# allowed values of the string config keys, whether set by flag or by file
CHOICES = {
    "task": ("imputation", "anomaly", "classification"),
    "temporal": ("self", "destat"),
    "lag_path": ("fft", "naive"),
    "lambda_mode": ("fixed", "learnable"),
}


# accepted spellings of the boolean config values
BOOLEANS = {"True": True, "true": True, "1": True, "on": True,
            "False": False, "false": False, "0": False, "off": False}


class UsageError(ValueError):
    pass


def apply_ablation(cfg: RunConfig) -> RunConfig:
    """Realize the ablation preset named by the config on top of it."""
    if cfg.ablation not in ABLATION_PRESETS:
        raise UsageError(f"unknown ablation preset {cfg.ablation!r}; "
                         f"choose from {tuple(ABLATION_PRESETS)}")
    for key, val in ABLATION_PRESETS[cfg.ablation].items():
        setattr(cfg, key, val)
    return cfg


def validate(cfg: RunConfig) -> RunConfig:
    """Reject a config the model cannot be built from."""
    for key, allowed in CHOICES.items():
        if getattr(cfg, key) not in allowed:
            raise UsageError(f"{key} = {getattr(cfg, key)!r}; choose from {allowed}")
    for key in ("d_model", "d_k", "h", "c", "batch_size", "epochs"):
        if getattr(cfg, key) < 1:
            raise UsageError(f"{key}={getattr(cfg, key)} must be at least 1")
    for key in ("n_blocks", "patience", "seed"):
        if getattr(cfg, key) < 0:
            raise UsageError(f"{key}={getattr(cfg, key)} must not be negative")
    if not 0 <= cfg.lr < math.inf:
        raise UsageError(f"lr={cfg.lr} must be finite and not negative")
    if not 0 <= cfg.m <= cfg.h:
        raise UsageError(f"m={cfg.m} must lie in [0, h={cfg.h}]")
    if cfg.filtering_enabled and not 0.0 < cfg.beta_init < 1.0:
        raise UsageError(f"beta_init={cfg.beta_init} must lie in (0, 1) "
                         "while filtering is enabled")
    return cfg


# ---------------------------------------------------------------------------
# config files and helpers


def out_dir() -> str:
    return os.environ.get("LAGATTN_OUT", ".")


def write_config(path, cfg: RunConfig) -> None:
    with open(path, "w") as fh:
        for key, val in sorted(asdict(cfg).items()):
            fh.write(f"{key} = {val}\n")


def read_config(path) -> dict:
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}: bad config line {line!r}")
            key, val = line.split("=", 1)
            values[key.strip()] = val.strip()
    return values


def _parse_value(key: str, raw: str, like):
    """``raw`` read as a value of the type of ``like``."""
    try:
        if isinstance(like, bool):
            return BOOLEANS[raw]
        return type(like)(raw)
    except (KeyError, ValueError):
        raise UsageError(f"config key {key!r}: bad value {raw!r}") from None


def config_from_dict(values: dict) -> RunConfig:
    """A removed key (M.REMOVED_FIELDS) is accepted at its old value only,
    and dropped."""
    cfg = RunConfig()
    defaults = asdict(cfg)
    for key, raw in values.items():
        if key in defaults:
            setattr(cfg, key, _parse_value(key, raw, defaults[key]))
        elif key in M.REMOVED_FIELDS:
            legacy = M.REMOVED_FIELDS[key]
            if _parse_value(key, raw, legacy) != legacy:
                raise UsageError(f"config key {key!r} was removed: it may only "
                                 f"hold its old value {legacy}, not {raw!r}")
        else:
            raise UsageError(f"unknown config key {key!r}")
    return cfg


def parse_lag_spec(text: str) -> list:
    """Parse 'src:dst:lag@weight[,src:dst:lag@weight...]'."""
    lags = []
    if not text:
        return lags
    for part in text.split(","):
        try:
            triple, weight = (part.split("@") + ["1.0"])[:2] if "@" in part \
                else (part, "1.0")
            src, dst, lag = triple.split(":")
            lags.append((int(src), int(dst), int(lag), float(weight)))
        except ValueError:
            raise UsageError(f"bad --lags entry {part!r}; expected src:dst:lag@weight")
    return lags


@dataclass
class Data:
    """A dataset's splits as model samples (see S.to_training_sample); a split
    that was not read is empty."""

    task: str
    d_in: int
    n_classes: int      # 1 + the largest label in any split read (classification)
    train: list
    val: list
    test: list


def load_data(prefix: str, scored_only: bool = False) -> Data:
    """Reads the train, val and test splits, in that order. With
    ``scored_only``, reads only what score_test_split uses: the test split,
    and the val split when the task is anomaly (it sets the threshold)."""
    if scored_only:
        splits = {"test": S.read_dataset(f"{prefix}.test")}
        if splits["test"][1] == "anomaly":
            splits = {"val": S.read_dataset(f"{prefix}.val"), **splits}
    else:
        splits = {name: S.read_dataset(f"{prefix}.{name}")
                  for name in ("train", "val", "test")}
    first, task = next(iter(splits)), splits["test"][1]
    entry = {"imputation": "mask", "classification": "label"}.get(task)
    for name, (samples, _) in splits.items():
        if not samples or samples[0].values.shape[0] < 2:
            raise S.DatasetParseError(f"{prefix}.{name}: the {name} split needs at "
                                      "least one sample of length T >= 2")
        d, d_first = samples[0].values.shape[1], splits[first][0][0].values.shape[1]
        if d != d_first:
            raise S.DatasetParseError(f"{prefix}.{name}: the {name} split has d = {d} "
                                      f"features, the {first} split {d_first}")
        # a split's samples are joined into chunks: each carries the entry
        # its task reads, and all carry anomaly flags or none does
        for i, s in enumerate(samples):
            if entry and getattr(s, entry) is None:
                raise S.DatasetParseError(f"{prefix}.{name}: sample {i} has no {entry}")
            # task_loss scores each train and val sample on its hidden entries
            if entry == "mask" and name != "test" and s.mask.all():
                raise S.DatasetParseError(f"{prefix}.{name}: sample {i} hides no entry")
            if (s.anomaly_flags is None) != (samples[0].anomaly_flags is None):
                raise S.DatasetParseError(f"{prefix}.{name}: samples 0 and {i} disagree "
                                          "on anomaly flags")
        # the test metrics average over the hidden entries of the whole split
        if entry == "mask" and all(s.mask.all() for s in samples):
            raise S.DatasetParseError(f"{prefix}.{name}: no sample hides an entry")
    read = {name: [S.to_training_sample(s, task) for s in samples]
            for name, (samples, _) in splits.items()}
    n_classes = (1 + max(s.label for samples, _ in splits.values() for s in samples)
                 if task == "classification" else 0)
    return Data(task, read["test"][0][0].shape[-1], n_classes, read.get("train", []),
                read.get("val", []), read["test"])


def emit(record: dict, fh=None) -> None:
    """One line of strict JSON; a non-finite value raises NumericalFailure."""
    for key, val in record.items():
        if isinstance(val, float) and not math.isfinite(val):
            raise M.NumericalFailure(f"non-finite {key} = {val}")
    line = json.dumps(record, sort_keys=True)
    print(line)
    if fh is not None:
        fh.write(line + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    spec = S.DatasetSpec(
        task=args.task, t=args.t, d=args.d, n_samples=args.samples,
        planted_lags=parse_lag_spec(args.lags),
        noise=args.noise, seed=args.seed, n_classes=args.classes,
    )
    # synthdata rejects out-of-range flag values (a lag outside [1, T-1], a
    # mask ratio outside (0, 1), ...): a usage error. So is a --noise or an
    # --anomaly-magnitude that overflows a value, found below before any file
    # is written; numpy's warnings on the way are silenced.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            samples = S.gen_lagged_series(spec)
            if args.task == "imputation":
                samples = [S.apply_mask(s, args.mask_ratio, seed=args.seed * 100003 + i)
                           for i, s in enumerate(samples)]
            train, val, test = S.split_dataset(samples)
            if not (train and val and test):
                raise UsageError(f"--samples {args.samples} leaves a split empty "
                                 f"({len(train)}/{len(val)}/{len(test)} train/val/test)")
            if args.task == "anomaly":
                test = [S.inject_anomalies(s, args.anomaly_count, args.anomaly_magnitude,
                                           seed=args.seed * 100003 + i)
                        for i, s in enumerate(test)]
    except (S.DatasetSpecError, ParameterError) as exc:
        raise UsageError(str(exc)) from None
    splits = (("train", train), ("val", val), ("test", test))
    for name, part in splits:
        for i, s in enumerate(part):
            if not np.isfinite(s.values).all():
                raise UsageError(f"sample {i} of the {name} split holds a non-finite "
                                 "value: --noise or --anomaly-magnitude is too large")
    base = os.path.join(out_dir(), args.out)
    for name, part in splits:
        S.write_dataset(f"{base}.{name}", part, task=args.task)
    emit({"event": "gen-data", "out": base, "train": len(train),
          "val": len(val), "test": len(test)})
    return 0


def build_run_config(args, data: Data) -> RunConfig:
    """Defaults, then the --config file, then the flags, then the ablation
    preset; the number of classes comes from the training data."""
    values = read_config(args.config) if args.config else {}
    cfg = config_from_dict(values)
    for key in asdict(cfg):
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    if data.task == "anomaly" and args.batch_size is None and "batch_size" not in values:
        cfg.batch_size = 128
    if data.task == "classification":
        cfg.n_classes = data.n_classes
    return apply_ablation(cfg)


def setup(cfg: RunConfig, data: Data) -> dict:
    """Fit the config to the data's task and width, validate it, and return
    freshly initialized params."""
    cfg.task, cfg.d_in = data.task, data.d_in
    return M.init_params(validate(cfg), seed=cfg.seed)


def score_test_split(cfg: RunConfig, params: dict, data: Data) -> dict:
    """Reported test metrics; anomaly thresholds come from the val split."""
    metrics = M.evaluate_metrics(data.test, params, cfg, val_samples=(
        data.val if data.task == "anomaly" else None))
    metrics.pop("degenerate", None)
    metrics.pop("threshold", None)
    return metrics


def cmd_train(args) -> int:
    data = load_data(args.data)
    cfg = build_run_config(args, data)
    params = setup(cfg, data)
    run_id = cfg.config_hash()
    metrics_fh = open(args.metrics, "w") if args.metrics else None
    try:
        t0 = time.perf_counter()
        records = M.train_model(data.train, data.val, params, cfg)
        elapsed = time.perf_counter() - t0
        if args.checkpoint:     # saved even if a record below is non-finite
            M.save_checkpoint(args.checkpoint, params)
            write_config(args.checkpoint + ".config", cfg)
        n_iters = len(records) * math.ceil(len(data.train) / cfg.batch_size) or 1
        for rec in records:
            emit({"run_id": run_id, **rec}, metrics_fh)
        summary = {"run_id": run_id, "event": "summary",
                   "config_hash": run_id, "epochs_run": len(records),
                   "final_train_loss": records[-1]["train_loss"],
                   "final_val_loss": records[-1]["val_loss"],
                   "s_per_iter": elapsed / n_iters,
                   **score_test_split(cfg, params, data)}
        emit(summary, metrics_fh)
    finally:
        if metrics_fh:
            metrics_fh.close()
    return 0


def cmd_eval(args) -> int:
    data = load_data(args.data, scored_only=True)
    cfg = config_from_dict(read_config(args.checkpoint + ".config"))
    # the model scores only data of its own task and width, and labels it has
    # an output for
    for what, ours, theirs in (("task", cfg.task, data.task),
                               ("d_in", cfg.d_in, data.d_in)):
        if ours != theirs:
            raise M.CheckpointError(f"{args.checkpoint}: trained with {what} = {ours}, "
                                    f"but {args.data} has {what} = {theirs}")
    if data.task == "classification" and data.n_classes > cfg.n_classes:
        raise M.CheckpointError(f"{args.checkpoint}: trained with n_classes = "
                                f"{cfg.n_classes}, but {args.data} has the label "
                                f"{data.n_classes - 1}")
    params = setup(cfg, data)
    M.load_into(params, args.checkpoint)
    emit({"event": "eval", "config_hash": cfg.config_hash(),
          **score_test_split(cfg, params, data)})
    return 0


def cmd_ablate(args) -> int:
    data = load_data(args.data)
    for preset in ABLATION_PRESETS:
        args.ablation = preset
        cfg = build_run_config(args, data)
        params = setup(cfg, data)
        M.train_model(data.train, data.val, params, cfg)
        emit({"event": "ablate", "preset": preset,
              "config_hash": cfg.config_hash(), **score_test_split(cfg, params, data)})
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lagattn")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic dataset")
    g.add_argument("--task", required=True, choices=CHOICES["task"])
    g.add_argument("--t", type=int, required=True)
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--samples", type=int, default=32)
    g.add_argument("--mask-ratio", type=float, default=0.25)
    g.add_argument("--lags", default="", help="src:dst:lag@weight[,...]")
    g.add_argument("--noise", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--classes", type=int, default=2)
    g.add_argument("--anomaly-count", type=int, default=5)
    g.add_argument("--anomaly-magnitude", type=float, default=10.0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_data)

    def add_train_flags(p):
        p.add_argument("--data", required=True, help="dataset path prefix")
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--model", choices=("transformer", "nonstationary"),
                       default=None)
        p.add_argument("--d-model", dest="d_model", type=int, default=None)
        p.add_argument("--d-k", dest="d_k", type=int, default=None)
        p.add_argument("--h", type=int, default=None)
        p.add_argument("--m", type=int, default=None)
        p.add_argument("--blocks", dest="n_blocks", type=int, default=None)
        p.add_argument("--c", type=int, default=None)
        p.add_argument("--temporal", choices=CHOICES["temporal"], default=None)
        p.add_argument("--lag-path", dest="lag_path", choices=CHOICES["lag_path"],
                       default=None)
        p.add_argument("--lr", type=float, default=None)
        p.add_argument("--batch", dest="batch_size", type=int, default=None)
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--patience", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)

    t = sub.add_parser("train", help="train a model")
    add_train_flags(t)
    t.add_argument("--ablation", choices=ABLATION_PRESETS, default=None)
    t.add_argument("--checkpoint", default=None)
    t.add_argument("--metrics", default=None)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--data", required=True)
    e.add_argument("--checkpoint", required=True)
    e.set_defaults(func=cmd_eval)

    a = sub.add_parser("ablate", help="run all ablation presets")
    add_train_flags(a)
    a.set_defaults(func=cmd_ablate)
    return parser


def _model_flag_to_temporal(args) -> None:
    """--model names the temporal heads; an explicit --temporal must agree."""
    model = getattr(args, "model", None)
    if model is None:
        return
    implied = "destat" if model == "nonstationary" else "self"
    if args.temporal not in (None, implied):
        raise UsageError(f"--model {model} needs --temporal {implied}, "
                         f"got --temporal {args.temporal}")
    args.temporal = implied


def main(argv=None) -> int:
    # glibc hands freed heap above a dynamic threshold back to the system, so a
    # standalone train faults each batch's temporaries in again (97,700 minor
    # faults at the benchmark's ref shape, 6,200 with this): keep up to 256 MB
    # free (M_TRIM_THRESHOLD, -1) and serve up to 32 MB (M_MMAP_THRESHOLD, -3)
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(-1, 256 << 20)
        mallopt(-3, 32 << 20)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _model_flag_to_temporal(args)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, S.DatasetParseError, M.CheckpointError) as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except M.NumericalFailure as exc:
        print(json.dumps({"event": "abort", "reason": str(exc)}), file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
