"""lagattn benchmark: each workload driven through the ``lagattn`` CLI.

Run from the repository root:

    python3 bench/run.py --workload toy --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1   # every workload, one process each

One run repeats rounds of ``lagattn gen-data`` (the dataset comes from
``--seed``), ``lagattn train`` and three ``lagattn eval`` until ``--seconds``
have passed, and reports the median of each timing. Every command is called
in process through ``lagattn.cli.main`` and read back only through its exit
code and its JSON records, the CLI's stable contract. With ``--trace 1`` the run alternates
untraced training with traced passes (see ``tracing.py``) and reports
per-layer metrics instead.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Any failed check makes the exit code 1. See README.md beside
this file for why each workload exists and which layer should move which
metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

EVAL_REPS = 3       # eval runs per round, after its gen-data and train runs
MIN_ROUNDS = 3      # rounds even when --seconds is short
NAIVE_TOL = 1e-9    # naive vs FFT lag path, on every reported loss
LR = "5e-3"
INIT_SEED = "0"     # model init; only gen-data sees the workload seed


@dataclass(frozen=True)
class Workload:
    why: str
    gen: tuple            # gen-data flags other than --seed and --out
    train: tuple          # train flags other than data, seed and run length
    epochs: int
    test_metric: str      # key of the test metric in the summary and eval records
    test_unit: str


TOY_DATA = ("--task", "imputation", "--t", "96", "--d", "8", "--samples", "200",
            "--lags", "0:1:7@1.0,2:3:13@1.0", "--noise", "0.1",
            "--mask-ratio", "0.25")

WORKLOADS = {
    "toy": Workload(
        why="c6 shape, h=2: tiny matrices, so per-call Python overhead in the "
            "model layer rules",
        gen=TOY_DATA,
        train=("--d-model", "16", "--d-k", "8", "--h", "2", "--m", "1",
               "--temporal", "self", "--batch", "8"),
        epochs=2, test_metric="mse", test_unit="mse"),
    "ref": Workload(
        why="reference regime h=16, m=8 on the toy data: correlated heads "
            "and their rolls dominate a step",
        gen=TOY_DATA,
        train=("--d-model", "16", "--d-k", "8", "--h", "16", "--m", "8",
               "--temporal", "self", "--batch", "16"),
        epochs=1, test_metric="mse", test_unit="mse"),
    "long": Workload(
        why="T=512 classification on the nonstationary model: destat T x T "
            "attention dominates; top-k scans 511 lags",
        gen=("--task", "classification", "--t", "512", "--d", "6",
             "--samples", "160", "--classes", "2",
             "--lags", "0:1:29@1.0,2:3:61@1.0", "--noise", "0.1"),
        train=("--model", "nonstationary", "--d-model", "16", "--d-k", "8",
               "--h", "4", "--m", "1", "--batch", "8"),
        epochs=1, test_metric="accuracy", test_unit="fraction"),
}

# name -> unit, in print order; the JSON of an untraced run carries the
# metrics BENCHMARK.json lists (error_rate travels as failed / attempted)
E2E_UNITS = {"setup_s": "s", "train_samples_per_s": "samples/s",
             "eval_samples_per_s": "samples/s", "peak_rss_mb": "MB",
             "final_val_loss": "loss"}


class Checks:
    """Counts operations (CLI commands and correctness checks) and failures."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


@dataclass
class Command:
    code: object          # exit code, or None when the command raised
    seconds: float
    records: list         # JSON records it printed


def run_cli(cli_main, argv) -> Command:
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli_main(argv)
    except SystemExit as exc:       # argparse reports usage errors this way
        code = exc.code
    except Exception:               # a crash is one failed operation
        traceback.print_exc()
        code = None
    seconds = time.perf_counter() - start
    records = [json.loads(line) for line in out.getvalue().splitlines()
               if line.startswith("{")]
    return Command(code, seconds, records)


def losses(cmd: Command) -> list:
    """Every loss the train command reported, in order."""
    out = []
    for rec in cmd.records:
        for key in ("train_loss", "val_loss", "final_train_loss", "final_val_loss"):
            if key in rec:
                out.append(rec[key])
    return out


def summary(cmd: Command) -> dict:
    return next((r for r in cmd.records if r.get("event") == "summary"), {})


def file_digest(prefix: Path) -> str:
    h = hashlib.sha256()
    for split in ("train", "val", "test"):
        h.update(Path(f"{prefix}.{split}").read_bytes())
    return h.hexdigest()


class Runner:
    """One workload's commands and checks inside a scratch directory."""

    def __init__(self, cli_main, name: str, seed: int, work: Path, checks: Checks):
        self.cli_main = cli_main
        self.name = name
        self.w = WORKLOADS[name]
        self.seed = seed
        self.data = work / "data"
        self.ckpt = work / "model.ckpt"
        self.checks = checks
        self.n = {}                 # split -> sample count from gen-data
        self.digest = None
        self.reference = None       # losses of the first train run

    def gen_data(self) -> Command:
        cmd = run_cli(self.cli_main, ["gen-data", *self.w.gen, "--seed", str(self.seed),
                                      "--out", str(self.data)])
        if self.checks.check(cmd.code == 0 and cmd.records, f"{self.name}: gen-data exits 0"):
            rec = cmd.records[-1]
            self.n = {k: rec[k] for k in ("train", "val", "test")}
            digest = file_digest(self.data)
            self.digest = self.digest or digest
            self.checks.check(digest == self.digest,
                              f"{self.name}: gen-data writes identical files every run")
        return cmd

    def train_argv(self, *extra) -> list:
        epochs = str(self.w.epochs)
        return ["train", "--data", str(self.data), *self.w.train,
                "--epochs", epochs, "--patience", epochs, "--lr", LR,
                "--seed", INIT_SEED, "--checkpoint", str(self.ckpt), *extra]

    def train(self, traced: bool = False) -> tuple:
        """Runs train once; returns (command, samples/s or None).

        Its losses must equal the first run's bitwise; for a traced run that
        shows the trace wrappers are transparent."""
        cmd = run_cli(self.cli_main, self.train_argv())
        got = losses(cmd)
        ok = self.checks.check(
            cmd.code == 0 and bool(summary(cmd)) and bool(got)
            and all(math.isfinite(x) for x in got),
            f"{self.name}: train exits 0 with finite losses")
        if not ok:
            return cmd, None
        if self.reference is None:
            self.reference = cmd
        self.checks.check(got == losses(self.reference),
                          f"{self.name}: {'traced' if traced else 'repeated'} train "
                          "reproduces the first run's losses bitwise")
        return cmd, summary(cmd)["epochs_run"] * self.n["train"] / cmd.seconds

    def eval(self, trained: Command) -> float | None:
        cmd = run_cli(self.cli_main, ["eval", "--data", str(self.data),
                                      "--checkpoint", str(self.ckpt)])
        key = self.w.test_metric
        ok = self.checks.check(cmd.code == 0 and cmd.records and key in cmd.records[-1],
                               f"{self.name}: eval exits 0")
        if not ok:
            return None
        self.checks.check(cmd.records[-1][key] == summary(trained).get(key),
                          f"{self.name}: eval reproduces the train summary {key} bitwise")
        return self.n["test"] / cmd.seconds

    def naive_oracle(self) -> None:
        """The same train on the naive lag path matches the FFT path."""
        if self.reference is None:
            return
        naive = run_cli(self.cli_main, self.train_argv("--lag-path", "naive"))
        a, b = losses(self.reference), losses(naive)
        self.checks.check(
            naive.code == 0 and len(a) == len(b)
            and all(abs(x - y) <= NAIVE_TOL for x, y in zip(a, b)),
            f"{self.name}: naive lag path matches FFT losses within {NAIVE_TOL:g}")


def median_or_none(values):
    return statistics.median(values) if values else None


def untraced_run(runner: Runner, seconds: float) -> dict:
    """Rounds of gen-data, train and eval until ``seconds`` have passed;
    each timing is the median over its runs."""
    start = time.perf_counter()
    setup, train_sps, eval_sps, last = [], [], [], None
    while len(setup) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        setup.append(runner.gen_data().seconds)
        cmd, sps = runner.train()
        if sps is None:
            break
        train_sps.append(sps)
        last = cmd
        for _ in range(EVAL_REPS):
            eps = runner.eval(cmd)
            if eps is not None:
                eval_sps.append(eps)
    runner.naive_oracle()
    final = summary(last) if last else {}
    return {
        "setup_s": statistics.median(setup),
        "train_samples_per_s": median_or_none(train_sps),
        "eval_samples_per_s": median_or_none(eval_sps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "final_val_loss": final.get("final_val_loss"),
        f"test_{runner.w.test_metric}": final.get(runner.w.test_metric),
        "_reps": f"{len(setup)} gen-data, {len(train_sps)} train, {len(eval_sps)} eval",
    }


def traced_run(runner: Runner, seconds: float) -> dict:
    """Untraced and traced passes (gen-data, train, eval) in turn.

    Per-layer values and both throughputs behind the overhead are medians
    over the passes.
    """
    from tracing import Tracer

    def one_pass(tracer=None):
        runner.gen_data()
        cmd, sps = runner.train(traced=tracer is not None)
        if sps is not None:
            if tracer is not None:
                tracer.recall_active = True
            runner.eval(cmd)
        return sps

    start = time.perf_counter()
    plain_sps, traced_sps, passes = [], [], []
    while len(passes) < 2 or time.perf_counter() - start < seconds:
        sps = one_pass()
        if sps is None:
            break
        plain_sps.append(sps)
        with Tracer() as tracer:
            sps = one_pass(tracer)
        if sps is None:
            break
        traced_sps.append(sps)
        passes.append(tracer.metrics())
    metrics = {}
    for key in passes[0] if passes else ():
        values = sorted(p[key] for p in passes if p[key] is not None)
        metrics[key] = statistics.median_low(values) if values else None
    metrics["trace.overhead_pct"] = (
        100.0 * (statistics.median(plain_sps) / statistics.median(traced_sps) - 1.0)
        if plain_sps and traced_sps else None)
    metrics["_reps"] = f"{len(plain_sps)} untraced and {len(passes)} traced passes"
    return metrics


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": vendor, "blas_threads": BLAS_THREADS,
            "nproc": os.cpu_count(), "commit": git_commit()}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else "unknown"
    return ref


def run_one(args) -> int:
    for var in BLAS_ENV:                       # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "lagattn").is_dir():
        print(f"error: no lagattn sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from lagattn.cli import main as cli_main

    for key, val in environment().items():
        print(f"env {key}: {val}")
    w = WORKLOADS[args.workload]
    print(f"workload {args.workload} (seed {args.seed}): {w.why}")

    checks = Checks()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(cli_main, args.workload, args.seed, work, checks)
        run = traced_run if args.trace else untraced_run
        measured = run(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    if args.trace:
        from tracing import metric_units

        reported = {**metric_units(), "trace.overhead_pct": "%"}
        shown = {**reported, "error_rate": "fraction"}
    else:
        reported = E2E_UNITS
        shown = {**reported, f"test_{w.test_metric}": w.test_unit,
                 "error_rate": "fraction"}
        missing = [k for k in shown if k in measured and measured[k] is None]
        checks.check(not missing, f"{args.workload}: every metric measured {missing}")
    failed = len(checks.failures)
    measured["error_rate"] = failed / checks.attempted
    print(f"reps: {measured.pop('_reps')}")
    for key, unit in shown.items():
        print(f"{key}: {measured.get(key)} {unit}")
    print(f"checks: {checks.attempted - failed}/{checks.attempted} passed")
    result = {"correct": failed == 0, "attempted": checks.attempted, "failed": failed,
              "metrics": {k: {"value": measured.get(k), "unit": u}
                          for k, u in reported.items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, one at a time."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        total["correct"] &= proc.returncode == 0 and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = val
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
