"""The CLI's exit-code contract over small argvs: every run exits 0, 2, 3 or
4, no exception but argparse's usage exit leaves ``cli.main``, every stdout
line is strict JSON, and train reads what gen-data writes without a file
error. Each argv is valid but for at most one bad value, so most of them
reach training, scoring and writing."""

import contextlib
import io
import json
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from lagattn import cli

CONFIGS = {
    "valid": "h = 2\nm = 1\nd_model = 4\nd_k = 2\n",
    "unknown-key": "bogus = 1\n",
    "bad-value": "lr = fast\n",
    "nan-lr": "lr = nan\n",
    "bad-choice": "temporal = sideways\n",
    "no-equals": "h 2\n",
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Tiny datasets of each task, a checkpoint trained on each, and files
    that are not what a flag expects."""
    root = tmp_path_factory.mktemp("fuzz")
    paths = {"dir": str(root), "missing": str(root / "missing"),
             "gen-out": str(root / "gen"), "metrics": str(root / "metrics.jsonl"),
             "ckpt-out": str(root / "out.ckpt")}
    for task, extra in (("imputation", []), ("classification", ["--classes", "3"]),
                        ("anomaly", ["--anomaly-count", "2"])):
        data, ckpt = root / task, root / f"{task}.ckpt"
        assert cli.main(["gen-data", "--task", task, "--t", "12", "--d", "3",
                         "--samples", "8", "--lags", "0:1:3", "--seed", "1",
                         "--out", str(data), *extra]) == 0
        assert cli.main(["train", "--data", str(data), "--d-model", "4", "--d-k", "2",
                         "--h", "2", "--m", "1", "--epochs", "1",
                         "--checkpoint", str(ckpt)]) == 0
        paths[task], paths[f"{task}.ckpt"] = str(data), str(ckpt)
    corrupt = root / "corrupt.ckpt"
    corrupt.write_text("not a checkpoint\n")
    paths["corrupt.ckpt"] = str(corrupt)
    for name, text in CONFIGS.items():
        (root / f"{name}.cfg").write_text(text)
        paths[f"{name}.cfg"] = str(root / f"{name}.cfg")
    return paths


# An argv is built from slots. Each slot is a pair of lists of word lists:
# the values it takes in a valid argv (an empty list leaves a flag out), and
# the bad ones the CLI must refuse or fail on. Flags whose valid values
# depend on each other, such as --h and --m, share a slot.


def opt(name, valid, bad=()):
    """A flag that is absent or takes one of ``valid``."""
    return [[]] + [[name, str(v)] for v in valid], [[name, str(v)] for v in bad]


def req(name, valid, bad=()):
    """A flag that is always given."""
    return [[name, str(v)] for v in valid], [[name, str(v)] for v in bad]


@st.composite
def command(draw, name, slots):
    """``name`` with every slot valid or, one time in three, one slot bad:
    most argvs get past validation, and each bad one fails on its bad value."""
    bad = None
    if draw(st.integers(0, 2)) == 0:
        bad = draw(st.sampled_from([i for i, (_, wrong) in enumerate(slots) if wrong]))
    words = [name]
    for i, (valid, wrong) in enumerate(slots):
        words += draw(st.sampled_from(wrong if i == bad else valid))
    return words


GEN_DATA = command("gen-data", [
    req("--task", ["imputation", "anomaly", "classification"], ["bogus"]),
    req("--t", [8, 12, 16], [1, "x"]),
    ([["--d", "1"], ["--d", "2"], ["--d", "2", "--lags", "0:1:3"],
      ["--d", "3", "--lags", "0:1:3@0.5,2:0:1"], ["--d", "3", "--lags", "2:0:1@2.0"]],
     [["--d", "0"]] + [["--d", "2", "--lags", v] for v in
                       ["0:5:1", "0:1:40", "0:1", "a:b:c", "0:1:3@nan", "0:1:3@inf",
                        "0:1:0"]]),
    opt("--samples", [5, 10], [3]),
    opt("--mask-ratio", [0.25, 0.5, 0.99], [0.0, 1.0, -0.5, "nan", 0.01]),
    opt("--noise", [0, 0.1], [-1, "nan", "inf", 1e300, 1e308]),
    opt("--seed", [0, 3], [-1]),
    opt("--classes", [1, 2, 3], [0]),
    opt("--anomaly-count", [0, 2], [-1, 50]),
    opt("--anomaly-magnitude", [0, 10, -3], ["nan", "inf", 1e300]),
    req("--out", ["{gen-out}"], ["{missing}/gen"]),
])

MODEL_SLOTS = [
    req("--data", ["{imputation}", "{classification}", "{anomaly}"],
        ["{missing}", "{dir}"]),
    opt("--config", ["{valid.cfg}"],
        ["{missing}", "{dir}"] + [f"{{{name}.cfg}}" for name in CONFIGS if name != "valid"]),
    opt("--cab", ["on", "off"], ["maybe"]),
    ([[], ["--model", "transformer"], ["--model", "nonstationary"], ["--temporal", "self"],
      ["--temporal", "destat"], ["--model", "nonstationary", "--temporal", "destat"]],
     [["--model", "nonstationary", "--temporal", "self"], ["--temporal", "sideways"],
      ["--model", "rnn"]]),
    opt("--d-model", [2, 4], [0]),
    opt("--d-k", [1, 2], [0]),
    ([[], ["--h", "2", "--m", "1"], ["--h", "1", "--m", "0"], ["--h", "3", "--m", "2"],
      ["--h", "2", "--m", "2"]],
     [["--h", "0"], ["--m", "-1"], ["--h", "1", "--m", "2"], ["--h", "2", "--m", "4"]]),
    opt("--blocks", [0, 1, 2]),
    opt("--c", [1, 2], [0]),
    opt("--positional", ["none", "sin"], ["cos"]),
    opt("--lag-path", ["fft", "naive"]),
    opt("--lr", [0.003, 0.1, 0], [1e300, -1, "nan", "inf"]),
    opt("--batch", [1, 4], [0]),
    opt("--patience", [0, 1, -1]),
    opt("--seed", [0, 2], [-1]),
    # one epoch, so that each example stays fast
    req("--epochs", [1], [0]),
]

TRAIN = command("train", MODEL_SLOTS + [
    opt("--ablation", ["baseline", "pure", "static", "lambda"], ["beta"]),
    opt("--checkpoint", ["{ckpt-out}"], ["{dir}", "{missing}/model.ckpt"]),
    opt("--metrics", ["{metrics}"], ["{dir}"]),
])

ABLATE = command("ablate", MODEL_SLOTS)

TASKS = ("imputation", "classification", "anomaly")
EVAL = command("eval", [(
    [["--data", f"{{{task}}}", "--checkpoint", f"{{{task}.ckpt}}"] for task in TASKS],
    # another task's checkpoint, a damaged one, and paths that are no file
    [["--data", f"{{{data}}}", "--checkpoint", f"{{{ckpt}.ckpt}}"]
     for data in TASKS for ckpt in TASKS if data != ckpt]
    + [["--data", "{imputation}", "--checkpoint", v]
       for v in ("{corrupt.ckpt}", "{missing}", "{dir}")]
    + [["--data", v, "--checkpoint", "{imputation.ckpt}"] for v in ("{missing}", "{dir}")],
)])


def _reject(constant):
    raise ValueError(f"non-finite JSON constant {constant}")


def _run(argv):
    """``cli.main(argv)`` under the contract; returns its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:           # argparse's usage errors
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    for line in out.getvalue().splitlines():
        assert isinstance(json.loads(line, parse_constant=_reject), dict), (argv, line)
    return code


@given(st.one_of(TRAIN, EVAL, ABLATE, GEN_DATA))
# what longer runs of this fuzz found: a directory where a file is read or
# written, a diverging step, and a mask that hides no entry (T x d = 2 x 1)
@example(["train", "--data", "{imputation}", "--config", "{dir}", "--epochs", "1"])
@example(["train", "--data", "{imputation}", "--checkpoint", "{dir}", "--epochs", "1"])
@example(["ablate", "--data", "{imputation}", "--lr", "1e+300", "--epochs", "1"])
@example(["gen-data", "--task", "imputation", "--t", "2", "--d", "1", "--out", "{gen-out}"])
# values that overflow: the spikes of anomaly data, and the noise itself
@example(["gen-data", "--task", "anomaly", "--t", "8", "--d", "2", "--noise", "1e300",
          "--out", "{gen-out}"])
@example(["gen-data", "--task", "imputation", "--t", "8", "--d", "2", "--samples", "10",
          "--noise", "1e308", "--out", "{gen-out}"])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
# a diverging run (--lr 1e+300) overflows before its loss, a gradient or a
# scalar turns non-finite, which exits 4
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_exit_codes_and_strict_jsonl(files, argv):
    argv = [re.sub(r"\{([\w.-]+)\}", lambda m: files[m[1]], word) for word in argv]
    if _run(argv) == 0 and argv[0] == "gen-data":
        # what gen-data writes, train reads: a file error is gen-data's fault
        assert _run(["train", "--data", files["gen-out"], "--d-model", "4", "--d-k", "2",
                     "--h", "2", "--m", "1", "--epochs", "1"]) != cli.EXIT_FILE, argv
