"""The CLI's exit-code contract over small argvs: every run exits 0, 2, 3 or
4, no exception but argparse's usage exit leaves ``cli.main``, and every
stdout line is strict JSON."""

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
             "gen-out": str(root / "gen"), "metrics": str(root / "metrics.jsonl")}
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


def flag(name, values):
    """``[name, value]`` for one of ``values`` one time in four, else nothing:
    with many flags each usually absent, most argvs get past validation."""
    return st.integers(0, 3).flatmap(lambda i: st.just([]) if i else st.sampled_from(
        values).map(lambda v: [name, str(v)]))


def argv_of(parts):
    return [word for part in parts for word in part]


GEN_DATA = st.tuples(
    st.just(["gen-data"]),
    st.sampled_from(["imputation", "anomaly", "classification", "bogus"]).map(
        lambda v: ["--task", v]),
    st.sampled_from([2, 3, 8, 16, 1, "x"]).map(lambda v: ["--t", str(v)]),
    st.sampled_from([1, 2, 3, 0]).map(lambda v: ["--d", str(v)]),
    flag("--samples", [5, 10, 3]),
    flag("--mask-ratio", [0.25, 0.01, 0.0, 1.0, -0.5, "nan", 0.99]),
    flag("--lags", ["", "0:1:3", "0:1:3@0.5", "2:0:1@1.0", "0:5:1", "0:1:40", "0:1",
                    "a:b:c", "0:1:3@nan", "0:1:3@inf", "0:1:3@2.0", "0:1:0"]),
    flag("--noise", [0, 0.1, -1, "nan", "inf", 1e300]),
    flag("--seed", [0, 3, -1]),
    flag("--classes", [0, 1, 2, 3]),
    flag("--anomaly-count", [-1, 0, 2, 50]),
    flag("--anomaly-magnitude", [0, 10, -3, "nan", "inf", 1e300]),
    st.just(["--out", "{gen-out}"]),
).map(argv_of)

MODEL_FLAGS = [
    flag("--config", ["{missing}", "{dir}"] + [f"{{{name}.cfg}}" for name in CONFIGS]),
    flag("--cab", ["on", "off"]),
    flag("--model", ["transformer", "nonstationary"]),
    flag("--d-model", [2, 4, 0]),
    flag("--d-k", [1, 2, 0]),
    flag("--h", [1, 2, 3, 0]),
    flag("--m", [0, 1, 2, 4, -1]),
    flag("--blocks", [0, 1, 2]),
    flag("--c", [1, 2, 0]),
    flag("--temporal", ["self", "destat"]),
    flag("--positional", ["none", "sin"]),
    flag("--lag-path", ["fft", "naive"]),
    flag("--lr", [0.003, 0.1, 1e300, 0, -1, "nan", "inf"]),
    flag("--batch", [1, 4, 0]),
    flag("--patience", [0, 1, -1]),
    flag("--seed", [0, 2, -1]),
    # one epoch, so that each example stays fast
    st.just(["--epochs", "1"]),
]
DATA = st.sampled_from(["{imputation}", "{classification}", "{anomaly}", "{missing}",
                        "{dir}"]).map(lambda v: ["--data", v])

TRAIN = st.tuples(
    st.just(["train"]), DATA, *MODEL_FLAGS,
    flag("--ablation", ["baseline", "pure", "static", "lambda", "beta"]),
    flag("--checkpoint", ["{dir}", "{missing}/model.ckpt"]),
    flag("--metrics", ["{metrics}", "{dir}"]),
).map(argv_of)

ABLATE = st.tuples(st.just(["ablate"]), DATA, *MODEL_FLAGS).map(argv_of)

EVAL = st.tuples(
    st.just(["eval"]), DATA,
    st.sampled_from(["{imputation.ckpt}", "{classification.ckpt}", "{anomaly.ckpt}",
                     "{corrupt.ckpt}", "{missing}", "{dir}"]).map(
        lambda v: ["--checkpoint", v]),
).map(argv_of)


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


@given(st.one_of(GEN_DATA, TRAIN, EVAL, ABLATE))
# what longer runs of this fuzz found: a directory where a file is read or
# written, a diverging step, and a mask that hides no entry (T x d = 2 x 1)
@example(["train", "--data", "{imputation}", "--config", "{dir}", "--epochs", "1"])
@example(["train", "--data", "{imputation}", "--checkpoint", "{dir}", "--epochs", "1"])
@example(["ablate", "--data", "{imputation}", "--lr", "1e+300", "--epochs", "1"])
@example(["gen-data", "--task", "imputation", "--t", "2", "--d", "1", "--out", "{gen-out}"])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
# a diverging run (--lr 1e+300) overflows before its loss, a gradient or a
# scalar turns non-finite, which exits 4
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_exit_codes_and_strict_jsonl(files, argv):
    argv = [re.sub(r"\{([\w.-]+)\}", lambda m: files[m[1]], word) for word in argv]
    if _run(argv) == 0 and argv[0] == "gen-data":
        # what gen-data writes, train reads
        _run(["train", "--data", files["gen-out"], "--d-model", "4", "--d-k", "2",
              "--h", "2", "--m", "1", "--epochs", "1"])
