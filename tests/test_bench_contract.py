"""The traced benchmark's hooks still find what they wrap in ``lagattn``.

``bench/tracing.py`` reports a layer whose functions were renamed away, or
a metric it can no longer compute, as ``null`` instead of failing, so these
tests pin its targets to the sources and run a tiny traced pass. The module
is loaded from its file and only read.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from lagattn import cli
from lagattn.xcorr import select_lags

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("target", [t for targets in tracing.LAYERS.values()
                                    for t in targets] + [tracing.SAMPLE_PROBE])
def test_target_resolves(target):
    assert tracing._resolve(target) is not None, target


def test_lags_readable_from_select_lags():
    rng = np.random.default_rng(0)
    q, k = rng.normal(size=(32, 3)), rng.normal(size=(32, 3))
    result = select_lags(q, k, 0.5, 1)
    assert tracing._lags_of(result) == result[0].lags
    assert len(result[0].lags) == 4     # c * ceil(ln 32)
    # a chunk of 2 samples with 3 correlated heads each, folded into one stack
    q, k = rng.normal(size=(2 * 3, 32, 3)), rng.normal(size=(2 * 3, 32, 3))
    result = select_lags(q, k, np.full(6, 0.5), 1)
    lags = tracing._lags_of(result)
    assert lags == result[0].table.ravel().tolist()
    assert len(lags) == 6 * 4 and all(isinstance(lag, int) for lag in lags)


def test_traced_pass_reports_every_metric(tmp_path, capsys):
    """gen-data, train (batches of 4, so chunks of several samples) and eval
    inside a Tracer, recall switched on for eval as the benchmark does: every
    metric is a finite number, planted-lag recall included."""
    data, ckpt = tmp_path / "toy", tmp_path / "model.ckpt"
    with tracing.Tracer() as tracer:
        assert cli.main(["gen-data", "--task", "imputation", "--t", "24", "--d", "3",
                         "--samples", "10", "--lags", "0:1:5@1.0", "--seed", "1",
                         "--out", str(data)]) == 0
        assert cli.main(["train", "--data", str(data), "--d-model", "8", "--d-k", "4",
                         "--h", "3", "--m", "1", "--epochs", "2", "--batch", "4",
                         "--checkpoint", str(ckpt)]) == 0
        tracer.recall_active = True
        assert cli.main(["eval", "--data", str(data), "--checkpoint", str(ckpt)]) == 0
    metrics = tracer.metrics()
    bad = {key: value for key, value in metrics.items()
           if not (isinstance(value, (int, float)) and math.isfinite(value))}
    assert not bad
    # two correlated heads, 4 lags each (c * ceil(ln 24)), on 2 test samples
    assert metrics["xcorr.planted_lag_recall.base"] == 2 * 4 * 2
    assert metrics["attention.cab.lag_terms"] > metrics["xcorr.planted_lag_recall.base"]
