"""Per-layer spans for the traced benchmark run.

A ``Tracer`` replaces public functions of ``lagattn`` with timing wrappers,
in the namespace each caller looks them up from (``model`` calls
``mixture_of_head_fwd`` through its own globals, ``attention`` calls
``xcorr.select_lags`` through the ``xcorr`` module, and so on), and puts the
originals back on exit. Spans nest through a stack, so a layer's self time
excludes the time of the wrapped layers it calls: ``numerics.roll`` inside
``attention.cab.fwd`` counts toward the former only.

A target that no longer exists is skipped; a layer none of whose targets
exist is reported as absent (``None``), so a refactor that renames a
function degrades the trace instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

# layer -> "module:attribute" targets, named where the caller looks them up
LAYERS = {
    "synthdata.generate": ("lagattn.synthdata:gen_lagged_series",
                           "lagattn.synthdata:apply_mask",
                           "lagattn.synthdata:inject_anomalies"),
    "synthdata.write": ("lagattn.synthdata:write_dataset",),
    "synthdata.read": ("lagattn.synthdata:read_dataset",),
    "model.forward": ("lagattn.model:model_forward",),
    "model.backward": ("lagattn.model:model_backward",),
    "model.loss": ("lagattn.model:task_loss",),
    "model.optimizer": ("lagattn.model:Adam.step",),
    "model.checkpoint.save": ("lagattn.model:save_checkpoint",),
    "model.checkpoint.load": ("lagattn.model:load_into",),
    "attention.mix.fwd": ("lagattn.model:mixture_of_head_fwd",),
    "attention.mix.bwd": ("lagattn.model:mixture_of_head_bwd",),
    "attention.cab.fwd": ("lagattn.attention:correlated_attention_fwd",),
    "attention.cab.bwd": ("lagattn.attention:correlated_attention_bwd",),
    "attention.temporal.fwd": ("lagattn.attention:self_attention_fwd",
                               "lagattn.attention:destationary_attention_fwd"),
    "attention.temporal.bwd": ("lagattn.attention:self_attention_bwd",
                               "lagattn.attention:destationary_attention_bwd"),
    "xcorr.select": ("lagattn.xcorr:select_lags",),
    "xcorr.score": ("lagattn.xcorr:xcorr_all_lags_fft",
                    "lagattn.xcorr:xcorr_all_lags_naive"),
    "xcorr.topk": ("lagattn.xcorr:topk_lags",),
    "numerics.roll": ("lagattn.attention:roll", "lagattn.attention:roll_adjoint"),
    "numerics.softmax": ("lagattn.attention:softmax_cols",
                         "lagattn.attention:softmax_cols_adjoint"),
    "numerics.l2norm": ("lagattn.attention:l2_normalize_cols",
                        "lagattn.attention:l2_normalize_cols_adjoint"),
}

# layers whose file argument is measured: metric name -> layer
BYTE_COUNTS = {
    "synthdata.write.bytes": "synthdata.write",
    "model.checkpoint.save.bytes": "model.checkpoint.save",
    "model.checkpoint.load.bytes": "model.checkpoint.load",
}

# not a layer: maps each model input back to its sample's planted lags
SAMPLE_PROBE = "lagattn.synthdata:to_training_sample"


def _resolve(target):
    """(owner, attribute, function) for 'module:a.b', or None if absent."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    fn = getattr(owner, attr, None)
    return None if fn is None else (owner, attr, fn)


def _path_arg(args):
    return next((a for a in args if isinstance(a, (str, os.PathLike))), None)


def _lags_of(selection_result):
    """Lags picked by one ``select_lags`` call, or None if its shape changed."""
    sel = selection_result[0] if isinstance(selection_result, tuple) else selection_result
    lags = getattr(sel, "lags", None)
    try:
        return [int(l) for l in lags]
    except (TypeError, ValueError):
        return None


class Tracer:
    """Accumulates self time and call counts per layer while installed.

    Use as a context manager around the commands of one traced pass.
    ``recall_active`` switches planted-lag recall counting on (the eval
    pass only).
    """

    def __init__(self):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.bytes = dict.fromkeys(BYTE_COUNTS, 0)
        self.lag_terms = 0
        self.lags_readable = True
        self.picked = 0
        self.picked_planted = 0
        self.recall_active = False
        self.present = set()
        self._stack = []            # one [child seconds] cell per open span
        self._saved = []            # (owner, attribute, original)
        self._planted_by_input = {}  # id(model input) -> (input, planted lags)
        self._planted = None        # planted lags of the sample in the forward pass

    # -- installation -------------------------------------------------------

    def __enter__(self):
        after = {layer: self._count_bytes(metric) for metric, layer in BYTE_COUNTS.items()}
        after["xcorr.select"] = self._count_lags
        before = {"model.forward": self._enter_sample}
        for layer, targets in LAYERS.items():
            for target in targets:
                found = _resolve(target)
                if found is None:
                    continue
                owner, attr, fn = found
                self.present.add(layer)
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._span(layer, fn, before.get(layer),
                                                after.get(layer)))
        found = _resolve(SAMPLE_PROBE)
        if found is not None:
            owner, attr, fn = found
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._probe(fn))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        self._planted_by_input.clear()
        return False

    def _span(self, layer, fn, before, after):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            cell = [0.0]
            stack.append(cell)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[layer] += 1
                self_s[layer] += elapsed - cell[0]
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- hooks --------------------------------------------------------------

    def _probe(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            try:
                planted = {int(p[2]) for p in args[0].planted_lags}
                model_input = result[0]
            except (AttributeError, IndexError, TypeError, ValueError):
                return result               # sample format changed: no recall
            self._planted_by_input[id(model_input)] = (model_input, planted)
            return result

        return wrapper

    def _enter_sample(self, args):
        entry = self._planted_by_input.get(id(args[0])) if args else None
        self._planted = entry[1] if entry is not None else None

    def _count_bytes(self, metric):
        def after(args, result):
            path = _path_arg(args)
            if path is not None and os.path.exists(path):
                self.bytes[metric] += os.path.getsize(path)

        return after

    def _count_lags(self, args, result):
        lags = _lags_of(result)
        if lags is None:
            self.lags_readable = False
            return
        self.lag_terms += len(lags)
        if self.recall_active and self._planted is not None:
            self.picked += len(lags)
            self.picked_planted += sum(l in self._planted for l in lags)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Flat metric name -> value; absent layers give None."""
        out = {}
        for layer in LAYERS:
            here = layer in self.present
            out[f"{layer}.calls"] = self.calls[layer] if here else None
            out[f"{layer}.self_ms"] = 1e3 * self.self_s[layer] if here else None
        for metric, layer in BYTE_COUNTS.items():
            out[metric] = self.bytes[metric] if layer in self.present else None
        lags_known = "xcorr.select" in self.present and self.lags_readable
        out["attention.cab.lag_terms"] = self.lag_terms if lags_known else None
        out["xcorr.planted_lag_recall"] = (self.picked_planted / self.picked
                                           if lags_known and self.picked else None)
        out["xcorr.planted_lag_recall.base"] = self.picked if lags_known else None
        return out


def metric_units() -> dict:
    """Unit of every metric ``Tracer.metrics`` reports."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_ms"] = "ms"
    units.update(dict.fromkeys(BYTE_COUNTS, "bytes"))
    units["attention.cab.lag_terms"] = "count"
    units["xcorr.planted_lag_recall"] = "fraction"
    units["xcorr.planted_lag_recall.base"] = "count"
    return units
