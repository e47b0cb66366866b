"""The dataset and checkpoint text codecs against per-value oracles.

``read_dataset`` and ``load_checkpoint`` parse each block of numbers with one
numpy call. The oracles below are the per-value parsers they replaced (one
``float``/``int`` call per value, checks row by row), with the range checks
the readers added (negative labels, mask and anomaly-flag entries outside
{0, 1}, planted-lag records outside the series, non-finite checkpoint
values) at the same place in the walk. A fuzz mutates valid files and
requires that both sides accept the same inputs, return bitwise-equal
arrays, and name the same line when they reject.

The two sides differ only on spellings the writers never produce: Python's
``float``/``int`` accept underscores (``1_0``) and non-ASCII digits (``١``),
which numpy rejects, an integer beyond int64 in a mask or flag entry is
non-numeric to numpy but out of range to the oracle (same line, other
message), and ``read_dataset`` reads its file line by line, so only ``\n``,
``\r\n`` and ``\r`` end a line, where the oracle's ``str.splitlines`` also
splits at a form feed and other separators. ``TestKnownDifferences`` pins
each; the fuzz draws none of them.

The writers are pinned by digests recorded from the per-value writer: the
files of a small ``gen-data`` run per task and one checkpoint. They depend on
numpy's random streams and float64 math as well, so a numpy upgrade that
moves them shows here first.
"""

import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lagattn import cli
from lagattn import model as M
from lagattn.synthdata import (
    DATASET_TAG,
    DatasetParseError,
    DatasetSpec,
    SeriesSample,
    apply_mask,
    gen_lagged_series,
    inject_anomalies,
    read_dataset,
    write_dataset,
)


# ---------------------------------------------------------------------------
# oracles: one Python parse per value


def oracle_read_dataset(path) -> tuple:
    with open(path) as fh:
        lines = fh.read().splitlines()

    def fail(lineno, msg):
        raise DatasetParseError(f"{path}:{lineno + 1}: {msg}")

    if not lines or lines[0] != DATASET_TAG:
        fail(0, f"bad or missing format tag (expected {DATASET_TAG!r})")
    header = lines[1].split() if len(lines) > 1 else []
    if len(header) != 8 or header[0] != "T" or header[2] != "d" \
            or header[4] != "task" or header[6] != "samples":
        fail(1, "malformed header: expected 'T <t> d <d> task <task> samples <n>'")
    try:
        t, d, n = int(header[1]), int(header[3]), int(header[7])
    except ValueError:
        fail(1, "header fields T/d/samples must be integers")
    task = header[5]

    samples = []
    ln = 2
    for i in range(n):
        if ln >= len(lines):
            fail(len(lines) - 1, f"unexpected end of file before sample {i}")
        head = lines[ln].split()
        if len(head) != 10 or head[0] != "sample":
            fail(ln, "malformed sample header")
        has_mask, label_s, has_flags, n_planted = head[3], head[5], head[7], head[9]
        try:
            has_mask = bool(int(has_mask))
            has_flags = bool(int(has_flags))
            n_planted = int(n_planted)
            label = None if label_s == "-" else int(label_s)
        except ValueError:
            fail(ln, "sample header flags and label must be integers")
        if label is not None and label < 0:
            fail(ln, f"sample label {label} is negative")
        ln += 1
        planted = []
        for _ in range(n_planted):
            if ln >= len(lines):
                fail(len(lines) - 1, "unexpected end of file in planted lags")
            parts = lines[ln].split()
            if len(parts) != 4:
                fail(ln, "planted lag record needs 'src dst lag weight'")
            try:
                src, dst, lag, weight = (int(parts[0]), int(parts[1]), int(parts[2]),
                                         float(parts[3]))
            except ValueError:
                fail(ln, "planted lag record needs integer src dst lag and a "
                     "numeric weight")
            if not (0 <= src < d and 0 <= dst < d):
                fail(ln, f"planted features ({src}, {dst}) outside [0, {d})")
            if not 1 <= lag <= t - 1:
                fail(ln, f"planted lag {lag} outside [1, {t - 1}]")
            if not math.isfinite(weight):
                fail(ln, f"planted weight {weight} is not finite")
            planted.append((src, dst, lag, weight))
            ln += 1

        def read_block(rows, cast, what):
            nonlocal ln
            block = []
            for _ in range(rows):
                if ln >= len(lines):
                    fail(len(lines) - 1, f"unexpected end of file in {what}")
                try:
                    row = [cast(v) for v in lines[ln].split(",")]
                except ValueError:
                    fail(ln, f"non-numeric value in {what}")
                if not all(map(math.isfinite, row)):
                    fail(ln, f"non-finite value in {what}")
                if len(row) != d:
                    fail(ln, f"{what} row has {len(row)} values, expected {d}")
                if cast is int and not set(row) <= {0, 1}:
                    fail(ln, f"{what} entry outside {{0, 1}}")
                block.append(row)
                ln += 1
            return np.array(block)

        values = read_block(t, float, "values")
        mask = read_block(t, int, "mask").astype(bool) if has_mask else None
        flags = None
        if has_flags:
            try:
                flags = np.array([int(v) for v in lines[ln].split(",")])
            except (ValueError, IndexError):
                fail(ln, "malformed anomaly flags")
            if flags.size != t:
                fail(ln, f"anomaly flags have {flags.size} entries, expected {t}")
            if not set(flags.tolist()) <= {0, 1}:
                fail(ln, "anomaly flag outside {0, 1}")
            ln += 1
        samples.append(SeriesSample(values=values, mask=mask, label=label,
                                    anomaly_flags=flags, planted_lags=planted))
    if ln < len(lines):
        fail(ln, f"line after the last of the {n} samples the header declares")
    return samples, task


def oracle_load_checkpoint(path) -> dict:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != M.CHECKPOINT_TAG:
        raise M.CheckpointError(f"{path}: bad or missing format tag on line 1")
    out = {}
    i = 1
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        header = lines[i].split()
        if len(header) < 2:
            raise M.CheckpointError(f"{path}: malformed header at line {i + 1}")
        name = header[0]
        if name in out:
            raise M.CheckpointError(f"{path}: duplicate entry {name} at line {i + 1}")
        try:
            ndim = int(header[1])
            shape = tuple(int(s) for s in header[2:2 + ndim])
        except ValueError:
            raise M.CheckpointError(f"{path}: non-integer dimension in header at "
                                    f"line {i + 1}") from None
        if len(shape) != ndim or any(s < 0 for s in shape):
            raise M.CheckpointError(f"{path}: header/shape mismatch at line {i + 1}")
        if i + 1 >= len(lines):
            raise M.CheckpointError(f"{path}: missing values for {name}")
        try:
            vals = np.array([float(s) for s in lines[i + 1].split(",")]
                            if lines[i + 1] else [], dtype=np.float64)
        except ValueError:
            raise M.CheckpointError(f"{path}: non-numeric value for {name} at "
                                    f"line {i + 2}") from None
        expected = int(np.prod(shape)) if shape else 1
        if vals.size != expected:
            raise M.CheckpointError(f"{path}: {name} expected {expected} values, "
                                    f"got {vals.size}")
        if not all(map(math.isfinite, vals)):
            raise M.CheckpointError(f"{path}: non-finite value for {name} at "
                                    f"line {i + 2}")
        out[name] = vals.reshape(shape)
        i += 2
    return out


# ---------------------------------------------------------------------------
# comparison


def same_array(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def outcome(parse, path, error):
    """('ok', result) or ('error', message); any other exception propagates."""
    try:
        return "ok", parse(path)
    except error as exc:
        return "error", str(exc)


def assert_same_dataset(path):
    got, want = (outcome(parse, path, DatasetParseError)
                 for parse in (read_dataset, oracle_read_dataset))
    assert got[0] == want[0], (got, want)
    if want[0] == "error":
        assert got[1] == want[1]
        return
    (samples, task), (ref, ref_task) = got[1], want[1]
    assert task == ref_task and len(samples) == len(ref)
    for s, r in zip(samples, ref):
        # repr: a nan weight is unequal to itself
        assert s.label == r.label and repr(s.planted_lags) == repr(r.planted_lags)
        for field in ("values", "mask", "anomaly_flags"):
            assert same_array(getattr(s, field), getattr(r, field)), field


def assert_same_checkpoint(path):
    got, want = (outcome(parse, path, M.CheckpointError)
                 for parse in (M.load_checkpoint, oracle_load_checkpoint))
    assert got[0] == want[0], (got, want)
    if want[0] == "error":
        assert got[1] == want[1]
        return
    assert list(got[1]) == list(want[1])
    assert all(same_array(got[1][k], want[1][k]) for k in want[1])


# ---------------------------------------------------------------------------
# valid files and their mutations


def dataset_samples(task: str) -> list:
    spec = DatasetSpec(task=task, t=5, d=3, n_samples=2, seed=3, noise=0.1,
                       planted_lags=[(0, 1, 2, 0.9)], n_classes=3)
    samples = gen_lagged_series(spec)
    if task == "imputation":
        samples = [apply_mask(s, 0.4, seed=i) for i, s in enumerate(samples)]
    if task == "anomaly":
        samples = [inject_anomalies(s, 2, 8.0, seed=i) for i, s in enumerate(samples)]
    return samples


def checkpoint_text(tmp_dir) -> str:
    cfg = M.RunConfig(task="imputation", d_in=2, d_model=2, d_k=2, h=2, m=1,
                      temporal="destat", lambda_mode="learnable")
    path = tmp_dir / "base.ckpt"
    M.save_checkpoint(path, M.init_params(cfg, seed=1))
    return path.read_text()


# spellings the writers produce, and faults a damaged file can show; none of
# the known differences (module docstring)
TOKENS = ["", "x", "-", "nan", "NaN", "inf", "-inf", "1e999", "-1", "0", "1", "2",
          "5", "-0", "+1", "01", " 1", "1 ", "1.0", "0.5", "1e0", "1 2", '"1"',
          "\t1", "sample", "T", "3", "label", "0x1", "1.5e", "0.1,0.2"]


@st.composite
def mutated(draw, text: str) -> str:
    """``text`` after one to three edits: replace a token, drop or duplicate a
    line, or cut the file short."""
    for _ in range(draw(st.integers(1, 3))):
        lines = text.splitlines() or [""]
        kind = draw(st.sampled_from(["token", "token", "drop", "duplicate", "cut"]))
        if kind == "cut":
            text = text[:draw(st.integers(0, max(len(text) - 1, 0)))]
            continue
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        else:
            parts = re.split(r"([, ])", lines[i])
            j = 2 * draw(st.integers(0, len(parts) // 2))
            parts[j] = draw(st.sampled_from(TOKENS))
            lines[i] = "".join(parts)
        text = "\n".join(lines) + "\n"
    return text


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("codec")
    texts = {}
    for task in ("imputation", "anomaly", "classification"):
        samples = dataset_samples(task)
        write_dataset(tmp / "base.data", samples, task=task)
        texts[task] = (tmp / "base.data").read_text()
    texts["checkpoint"] = checkpoint_text(tmp)
    return tmp, texts


FUZZ = settings(max_examples=300, deadline=None)


class TestFuzz:
    @pytest.mark.parametrize("task", ["imputation", "anomaly", "classification"])
    def test_valid_files_agree(self, files, task):
        tmp, texts = files
        path = tmp / f"valid.{task}"
        path.write_text(texts[task])
        assert_same_dataset(path)
        assert outcome(read_dataset, path, DatasetParseError)[0] == "ok"

    @pytest.mark.parametrize("task", ["imputation", "anomaly", "classification"])
    @FUZZ
    @given(data=st.data())
    def test_mutated_dataset(self, files, task, data):
        tmp, texts = files
        path = tmp / f"fuzz.{task}"
        path.write_text(data.draw(mutated(texts[task])))
        assert_same_dataset(path)

    @FUZZ
    @given(data=st.data())
    def test_mutated_checkpoint(self, files, data):
        tmp, texts = files
        path = tmp / "fuzz.ckpt"
        path.write_text(data.draw(mutated(texts["checkpoint"])))
        assert_same_checkpoint(path)


class TestKnownDifferences:
    """Spellings the writers never produce, on which the block parse is
    stricter than the per-value oracle."""

    @pytest.mark.parametrize("token", ["1_0", "١"])
    def test_value_spelling(self, tmp_path, token):
        samples = dataset_samples("imputation")
        path = tmp_path / "x.data"
        write_dataset(path, samples, task="imputation")
        lines = path.read_text().splitlines()
        lines[4] = token + "," + lines[4].split(",", 1)[1]
        path.write_text("\n".join(lines) + "\n")
        assert oracle_read_dataset(path)[0][0].values[0, 0] == float(token)
        with pytest.raises(DatasetParseError, match=":5: non-numeric value in values"):
            read_dataset(path)

    def test_checkpoint_spelling(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_text(M.CHECKPOINT_TAG + "\nw 1 2\n1_0,2.0\n")
        assert oracle_load_checkpoint(path)["w"].tolist() == [10.0, 2.0]
        with pytest.raises(M.CheckpointError, match="non-numeric value for w at line 3"):
            M.load_checkpoint(path)

    def test_form_feed(self, tmp_path):
        path = tmp_path / "x.data"
        write_dataset(path, dataset_samples("imputation"), task="imputation")
        lines = path.read_text().splitlines()
        lines[4] = lines[4].replace(",", "\x0c", 1)   # sample 0, values row 0
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetParseError, match=":5: values row has 1 values"):
            oracle_read_dataset(path)
        with pytest.raises(DatasetParseError, match=":5: non-numeric value in values"):
            read_dataset(path)

    def test_mask_beyond_int64(self, tmp_path):
        samples = dataset_samples("imputation")
        path = tmp_path / "x.data"
        write_dataset(path, samples, task="imputation")
        lines = path.read_text().splitlines()
        lines[9] = "9" * 20 + "," + lines[9].split(",", 1)[1]   # sample 0, mask row 0
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetParseError, match=":10: mask entry outside"):
            oracle_read_dataset(path)
        with pytest.raises(DatasetParseError, match=":10: non-numeric value in mask"):
            read_dataset(path)


class TestPlantedRecords:
    """A planted-lag record must name features of the series, a lag in
    [1, T - 1] and a finite weight (T = 5, d = 3 here)."""

    @pytest.mark.parametrize("record, message", [
        ("3 1 2 0.9", r"planted features \(3, 1\) outside \[0, 3\)"),
        ("0 -1 2 0.9", r"planted features \(0, -1\) outside \[0, 3\)"),
        ("0 1 0 0.9", r"planted lag 0 outside \[1, 4\]"),
        ("0 1 5 0.9", r"planted lag 5 outside \[1, 4\]"),
        ("0 1 2 nan", "planted weight nan is not finite"),
        ("0 1 2 -inf", "planted weight -inf is not finite"),
    ], ids=["src", "dst", "lag-0", "lag-T", "nan", "inf"])
    def test_rejected_naming_line(self, tmp_path, record, message):
        path = tmp_path / "x.data"
        write_dataset(path, dataset_samples("imputation"), task="imputation")
        lines = path.read_text().splitlines()
        assert lines[3] == "0 1 2 0.9"          # sample 0's one record
        lines[3] = record
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetParseError, match=":4: " + message):
            read_dataset(path)
        assert_same_dataset(path)


# ---------------------------------------------------------------------------
# output bytes

GEN_DIGESTS = {
    "imputation": (["--samples", "5"],
                   "19c29757a4169cd63eef91308b7f7a3372e1452a3a8347d09f8f24fd33b2c89b"),
    "anomaly": (["--samples", "5", "--anomaly-count", "2"],
                "fa95b7f0f978283a71f0b71f61f1756337b749f2f757b7e7f7b0e9f0e4fc5fbb"),
    "classification": (["--samples", "6", "--classes", "3"],
                       "f60b2ea2e7694d7697ca90ecef7f0359965499360898e21700548c88ed1b5d74"),
}
CHECKPOINT_DIGEST = "be7d8f087d75845657ca6e44d4698a4094d3d1847bcf3b63d160c921e540f00e"


class TestOutputBytes:
    @pytest.mark.parametrize("task", list(GEN_DIGESTS))
    def test_gen_data_digest(self, tmp_path, capsys, task):
        flags, digest = GEN_DIGESTS[task]
        out = tmp_path / task
        assert cli.main(["gen-data", "--task", task, "--t", "16", "--d", "3",
                         "--lags", "0:1:3@0.9", "--noise", "0.1", "--seed", "4",
                         "--out", str(out), *flags]) == 0
        h = hashlib.sha256()
        for split in ("train", "val", "test"):
            h.update((tmp_path / f"{task}.{split}").read_bytes())
        assert h.hexdigest() == digest

    def test_checkpoint_digest(self, tmp_path):
        cfg = M.RunConfig(task="imputation", d_in=3, d_model=4, d_k=4, h=2, m=1,
                          temporal="destat", lambda_mode="learnable")
        path = tmp_path / "c.ckpt"
        M.save_checkpoint(path, M.init_params(cfg, seed=8))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == CHECKPOINT_DIGEST
