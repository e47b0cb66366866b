"""Deterministic synthetic multivariate series with planted lagged couplings.

Base features are AR(1) processes (coefficient 0.8) plus a sinusoid of
random frequency and phase, standardized per feature. A planted coupling
(i -> j, lag L, weight w) blends the circularly delayed source into the
target: w * roll(base_i, L) + sqrt(1 - w^2) * base_j, so unit weight at
zero noise makes the target an exact shifted copy. The circular delay is a
deliberate idealization matching the roll semantics of the scoring path.

Generation runs over blocks of samples (``SAMPLE_BLOCK_DOUBLES``): one
numpy call per AR(1) time step, and one per operation of the sinusoid and
the standardization, covers every series of a block. Each sample draws
from its own stream, seeded by (seed, sample index), and every operation
rounds as it does on one series alone, so the samples and the files written
from them are byte-identical to those of the per-feature reference
generator in tests/test_synthdata.py.

An imputation mask is a T x d bool array, True where the entry is
observed. A sample's model record (``to_training_sample``) views its own
arrays as a chunk of one and holds no copy: the model zeroes the hidden
entries itself (``model.model_forward``), and a reconstruction target is
its input. A loaded imputation entry is held in 9 bytes, its value and mask.

Datasets are text files. ``read_dataset`` reads a file one block at a time:
it walks the sample headers and parses each T x d value or mask block with
one numpy call, then checks the whole block at once (row width, finite
values, mask entries in {0, 1}). Only a block that fails is parsed again
line by line, to name its first bad line. A mask is parsed as integers, so
that an entry outside {0, 1} is named, and kept as bool.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .numerics import ParameterError


class DatasetSpecError(ValueError):
    pass


class DatasetParseError(ValueError):
    pass


@dataclass(eq=False)
class SeriesSample:
    values: np.ndarray                 # T x d
    mask: np.ndarray | None = None     # T x d bool; True = observed
    label: int | None = None
    anomaly_flags: np.ndarray | None = None   # length T of {0,1}
    planted_lags: list = field(default_factory=list)  # (src, dst, lag, weight)


def planted_fault(src: int, dst: int, lag: int, weight: float, t: int, d: int):
    """What is wrong with a planted-lag record of a T x d dataset, or None."""
    if not (0 <= src < d and 0 <= dst < d):
        return f"planted features ({src}, {dst}) outside [0, {d})"
    if not 1 <= lag <= t - 1:
        return f"planted lag {lag} outside [1, {t - 1}]"
    if not math.isfinite(weight):
        return f"planted weight {weight} is not finite"
    return None


@dataclass
class DatasetSpec:
    task: str = "imputation"
    t: int = 96
    d: int = 8
    n_samples: int = 32
    planted_lags: list = field(default_factory=list)  # (src, dst, lag, weight)
    noise: float = 0.0
    seed: int = 0
    n_classes: int = 2

    def validate(self):
        if self.t < 2:
            raise DatasetSpecError(f"T = {self.t}: series need T >= 2")
        if self.d < 1:
            raise DatasetSpecError(f"d = {self.d}: series need at least one feature")
        if not (math.isfinite(self.noise) and self.noise >= 0):
            raise DatasetSpecError(f"noise = {self.noise} must be finite and not negative")
        if self.seed < 0:
            raise DatasetSpecError(f"seed = {self.seed} must not be negative")
        if self.task == "classification" and self.n_classes < 1:
            raise DatasetSpecError(f"n_classes = {self.n_classes} must be at least 1")
        for src, dst, lag, w in self.planted_lags:
            fault = planted_fault(src, dst, lag, w, self.t, self.d)
            if fault:
                raise DatasetSpecError(fault)


AR_COEF = 0.8       # of each base feature's AR(1) process
SIN_AMP = 0.5       # of its sinusoid
SPLITS = (0.6, 0.2, 0.2)    # train, val and test shares of a dataset


# Generation runs over blocks of samples: each array of a block (its base
# features, its noise draws, its values and the temporaries of its
# arithmetic) holds at most SAMPLE_BLOCK_DOUBLES doubles (128 KB), or one
# sample's when a sample alone holds more.
SAMPLE_BLOCK_DOUBLES = 2 ** 14


def gen_lagged_series(spec: DatasetSpec) -> list:
    """Pure function of the spec: same spec (incl. seed) -> identical samples.

    For classification, the sample's class index shifts every planted lag by
    the class index (wrapped into [1, T-1]) so classes differ only in lag
    structure.
    """
    spec.validate()
    per_block = max(1, SAMPLE_BLOCK_DOUBLES // (spec.t * spec.d))
    samples = []
    for first in range(0, spec.n_samples, per_block):
        samples += _gen_block(spec, first, min(per_block, spec.n_samples - first))
    return samples


def _gen_block(spec: DatasetSpec, first: int, m: int) -> list:
    """Samples ``first`` to ``first + m - 1``."""
    t, d = spec.t, spec.d
    # Each sample draws from its own stream: per feature, the AR(1)
    # innovations, the sinusoid's frequency and its phase; then its label and
    # its noise. The innovations are stored time-major, so that each step of
    # the recursion below is one contiguous row over the block's series.
    series = np.empty((t, m, d))
    freq = np.empty((m, d))
    phase = np.empty((m, d))
    noise = np.empty((m, t, d)) if spec.noise > 0 else None
    labels = [None] * m
    for i in range(m):
        rng = np.random.default_rng([spec.seed, first + i])
        for f in range(d):
            series[:, i, f] = rng.normal(size=t)
            freq[i, f] = rng.integers(1, max(t // 4, 2))
            phase[i, f] = rng.uniform(0.0, 2.0 * math.pi)
        if spec.task == "classification":
            labels[i] = int(rng.integers(spec.n_classes))
        if noise is not None:
            noise[i] = rng.normal(size=(t, d))

    # AR(1) over every series of the block at once: the product is rounded
    # before the sum, as in ar * x[s - 1] + e[s] on scalars
    step = np.empty((m, d))
    for prev, cur in zip(series, series[1:]):
        np.multiply(prev, AR_COEF, out=step)
        cur += step
    # series and wave are freed as soon as they are used, which keeps the
    # peak of a block's temporaries low
    base = series.transpose(1, 2, 0).copy()
    del series
    wave = (2.0 * math.pi * freq)[..., None] * np.arange(t)
    wave /= t
    wave += phase[..., None]
    np.sin(wave, out=wave)
    wave *= SIN_AMP * math.sqrt(t)
    wave /= math.sqrt(t)
    base += wave
    del wave
    # standardized along the contiguous time axis: each series' sums run in
    # the order of a reduction over that series alone, so the bits match
    base -= base.mean(axis=-1, keepdims=True)
    base /= np.maximum(base.std(axis=-1, keepdims=True), 1e-12)

    sample_lags = [[tuple(p) if label is None else
                    (p[0], p[1], 1 + (p[2] - 1 + label) % (t - 1), p[3])
                    for p in spec.planted_lags]
                   for label in labels]
    values = np.ascontiguousarray(base.transpose(0, 2, 1))
    for j, (src, dst, _, w) in enumerate(spec.planted_lags):
        shift = np.array([planted[j][2] for planted in sample_lags])
        steps = (np.arange(t) - shift[:, None]) % t    # roll by each sample's lag
        values[:, :, dst] = (w * np.take_along_axis(base[:, src], steps, axis=-1)
                             + math.sqrt(max(0.0, 1.0 - w * w)) * base[:, dst])
    if noise is not None:
        noise *= spec.noise
        values += noise
    # each sample owns its values: as views of the block's array they raised
    # the peak RSS of 30 s runs of the long benchmark workload by about 1 MB
    return [SeriesSample(values=values[i].copy(), label=labels[i],
                         planted_lags=sample_lags[i])
            for i in range(m)]


def apply_mask(sample: SeriesSample, ratio: float, seed: int) -> SeriesSample:
    """Hide exactly round(ratio * T * d) uniformly random entries, at least
    one: imputation scores the hidden entries."""
    if not 0.0 < ratio < 1.0:
        raise ParameterError(f"mask ratio {ratio} outside (0, 1)")
    values = sample.values
    n_total = values.size
    n_masked = int(round(ratio * n_total))
    if n_masked == 0:
        raise ParameterError(f"mask ratio {ratio} hides no entry of a "
                             f"{values.shape[0]} x {values.shape[1]} sample")
    rng = np.random.default_rng(seed)
    flat = rng.choice(n_total, size=n_masked, replace=False)
    mask = np.ones(n_total, dtype=bool)
    mask[flat] = False
    return replace(sample, mask=mask.reshape(values.shape))


def inject_anomalies(sample: SeriesSample, count: int, magnitude: float,
                     seed: int) -> SeriesSample:
    """Additive spikes of magnitude * sigma at ``count`` random time steps."""
    t, d = sample.values.shape
    if not 0 <= count < t:
        raise ParameterError(f"anomaly count {count} must lie in [0, T = {t})")
    if not math.isfinite(magnitude):
        raise ParameterError(f"anomaly magnitude {magnitude} must be finite")
    flags = np.zeros(t, dtype=np.int64)
    values = sample.values.copy()
    if count > 0:
        rng = np.random.default_rng(seed)
        steps = rng.choice(t, size=count, replace=False)
        sigma = values.std(axis=0)
        for step in steps:
            j = int(rng.integers(d))
            values[step, j] += magnitude * max(sigma[j], 1e-12) * \
                (1.0 if rng.random() < 0.5 else -1.0)
        flags[steps] = 1
    return replace(sample, values=values, anomaly_flags=flags)


def split_dataset(samples: list) -> tuple:
    n = len(samples)
    n_train = int(round(SPLITS[0] * n))
    n_val = int(round(SPLITS[1] * n))
    return samples[:n_train], samples[n_train:n_train + n_val], samples[n_train + n_val:]


def to_training_sample(sample: SeriesSample, task: str):
    """The (x, mask, label) record the model reads, each entry a chunk of one
    (leading axis 1), None where the task has none: views of the values, the
    mask or the anomaly flags, or a class label. ``x`` is also the
    reconstruction target; the model masks it itself."""
    if task == "imputation":
        if sample.mask is None:
            raise DegenerateMaskError("imputation sample has no mask")
        return (sample.values[None], sample.mask[None], None)
    label = sample.anomaly_flags if task == "anomaly" else sample.label
    return (sample.values[None], None, None if label is None else np.asarray(label)[None])


class DegenerateMaskError(ValueError):
    pass


# ---------------------------------------------------------------------------
# file format: textual, diff-able, lossless (repr round-trips float64)

DATASET_TAG = "lagattn-dataset v1"


def _csv_lines(block) -> str:
    """One line of comma-separated floats per row of ``block``."""
    return "".join(",".join(map(repr, row)) + "\n"
                   for row in np.asarray(block, dtype=np.float64).tolist())


def _binary_lines(block) -> str:
    """One line of comma-separated 0/1 digits per row of ``block``, written
    as one byte table."""
    block = np.asarray(block)
    table = np.full((block.shape[0], block.shape[1], 2), ord(","), dtype=np.uint8)
    table[..., 0] = block + ord("0")
    table[:, -1, 1] = ord("\n")
    return table.tobytes().decode("ascii")


def write_dataset(path, samples: list, task: str = "imputation") -> None:
    """Writes ``samples`` to ``path``. A mask or flag entry outside {0, 1},
    which ``read_dataset`` would reject, raises ValueError before the file
    is opened."""
    for i, s in enumerate(samples):
        for what, block in (("mask", s.mask), ("anomaly flag", s.anomaly_flags)):
            if block is None:
                continue
            block = np.asarray(block)
            if ((block != 0) & (block != 1)).any():
                raise ValueError(f"sample {i}: {what} entry outside {{0, 1}}")
    with open(path, "w") as fh:
        fh.write(DATASET_TAG + "\n")
        if samples:
            t, d = samples[0].values.shape
        else:
            t, d = 0, 0
        fh.write(f"T {t} d {d} task {task} samples {len(samples)}\n")
        for i, s in enumerate(samples):
            label = "-" if s.label is None else str(int(s.label))
            fh.write(f"sample {i} mask {int(s.mask is not None)} label {label} "
                     f"flags {int(s.anomaly_flags is not None)} "
                     f"planted {len(s.planted_lags)}\n")
            for src, dst, lag, w in s.planted_lags:
                fh.write(f"{int(src)} {int(dst)} {int(lag)} {repr(float(w))}\n")
            fh.write(_csv_lines(s.values))
            if s.mask is not None:
                fh.write(_binary_lines(s.mask))
            if s.anomaly_flags is not None:
                fh.write(_binary_lines([s.anomaly_flags]))


def _parse_rows(rows: list, dtype):
    """``rows`` of comma-separated numbers as one 2-D array, parsed by one
    numpy call; None if a row does not parse or the rows differ in width."""
    if not rows or not all(rows):       # loadtxt would skip an empty row
        return None
    try:
        return np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None


def _fault(block, width: int, what: str, binary: bool):
    """The fault of a parsed block or row, named as read_dataset reports it,
    or None."""
    if not np.isfinite(block).all():
        return f"non-finite value in {what}"
    if block.shape[1] != width:
        return f"{what} row has {block.shape[1]} values, expected {width}"
    if binary and ((block != 0) & (block != 1)).any():
        return f"{what} entry outside {{0, 1}}"
    return None


def read_dataset(path) -> tuple:
    """Returns (samples, task). Raises DatasetParseError with the offending
    line number on malformed input."""

    def fail(lineno, msg):
        raise DatasetParseError(f"{path}:{lineno + 1}: {msg}")

    with open(path) as fh:
        # the file is read a block at a time: only the lines of the block
        # being parsed are held
        stream = (line.rstrip("\n") for line in fh)
        ln = 0                  # number of the next line

        def take(count):
            """The next ``count`` lines, fewer at the end of the file."""
            nonlocal ln
            got = list(itertools.islice(stream, count))
            ln += len(got)
            return got

        first = take(2)
        if not first or first[0] != DATASET_TAG:
            fail(0, f"bad or missing format tag (expected {DATASET_TAG!r})")
        header = first[1].split() if len(first) > 1 else []
        if len(header) != 8 or header[0] != "T" or header[2] != "d" \
                or header[4] != "task" or header[6] != "samples":
            fail(1, "malformed header: expected 'T <t> d <d> task <task> samples <n>'")
        try:
            t, d, n = int(header[1]), int(header[3]), int(header[7])
        except ValueError:
            fail(1, "header fields T/d/samples must be integers")
        task = header[5]

        def read_block(rows, dtype, what, binary=False):
            """The next ``rows`` lines of ``d`` values each, parsed as one
            block; only a bad block is parsed again line by line, to name its
            first bad line."""
            start, text = ln, take(rows)
            block = _parse_rows(text, dtype)
            if block is not None and len(block) == rows \
                    and _fault(block, d, what, binary) is None:
                return block
            good = []
            for i, row_text in enumerate(text):
                row = _parse_rows([row_text], dtype)
                if row is None:
                    fail(start + i, f"non-numeric value in {what}")
                fault = _fault(row, d, what, binary)
                if fault:
                    fail(start + i, fault)
                good.append(row[0])
            if len(text) < rows:
                fail(ln - 1, f"unexpected end of file in {what}")
            return np.array(good)

        samples = []
        for i in range(n):
            got = take(1)
            if not got:
                fail(ln - 1, f"unexpected end of file before sample {i}")
            head = got[0].split()
            if len(head) != 10 or head[0] != "sample":
                fail(ln - 1, "malformed sample header")
            has_mask, label_s, has_flags, n_planted = head[3], head[5], head[7], head[9]
            try:
                has_mask = bool(int(has_mask))
                has_flags = bool(int(has_flags))
                n_planted = int(n_planted)
                label = None if label_s == "-" else int(label_s)
            except ValueError:
                fail(ln - 1, "sample header flags and label must be integers")
            if label is not None and label < 0:
                fail(ln - 1, f"sample label {label} is negative")
            planted = []
            for _ in range(n_planted):
                got = take(1)
                if not got:
                    fail(ln - 1, "unexpected end of file in planted lags")
                parts = got[0].split()
                if len(parts) != 4:
                    fail(ln - 1, "planted lag record needs 'src dst lag weight'")
                try:
                    src, dst, lag, weight = (int(parts[0]), int(parts[1]),
                                             int(parts[2]), float(parts[3]))
                except ValueError:
                    fail(ln - 1, "planted lag record needs integer src dst lag and "
                         "a numeric weight")
                fault = planted_fault(src, dst, lag, weight, t, d)
                if fault:
                    fail(ln - 1, fault)
                planted.append((src, dst, lag, weight))

            values = read_block(t, np.float64, "values")
            mask = (read_block(t, np.int64, "mask", binary=True).astype(bool)
                    if has_mask else None)
            flags = None
            if has_flags:
                got = take(1)
                here = ln - len(got)        # past the last line at the end
                flags = _parse_rows(got, np.int64)
                if flags is None:
                    fail(here, "malformed anomaly flags")
                flags = flags[0]
                if flags.size != t:
                    fail(here, f"anomaly flags have {flags.size} entries, expected {t}")
                if ((flags != 0) & (flags != 1)).any():
                    fail(here, "anomaly flag outside {0, 1}")
            samples.append(SeriesSample(values=values, mask=mask, label=label,
                                        anomaly_flags=flags, planted_lags=planted))
    return samples, task
