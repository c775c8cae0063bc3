"""Span recording around the package's layer functions, installed from outside.

A layer is one function of one module, named `<module>.<function>`. The
package's modules import each other's functions by name, so a layer is
wrapped wherever it is bound: every module of the package whose global
points at the function gets the same wrapper (`harness.block`,
`blocking.block` and the package root's `block` all become one wrapper).
A call is then recorded once, whichever module makes it, and restoring
puts every original binding back.

Each span is (layer index, start, end, parent span index or -1, trial id),
kept in memory and written out only when asked. A trial id is the ordinal
of the enclosing `harness.run_trial` call (-1 outside any trial). Self time
is a span's duration minus the durations of its direct children. The
program is single-threaded and has no queues, so no layer ever waits and
spans have no wait time to record.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

PACKAGE = "multirate_zeros"
MODULES = ("model", "oracle", "blocking", "numerics", "zeros", "_exact", "harness")

LAYERS = (
    "model.random_generic",
    "oracle.predict",
    "blocking.block",
    "blocking.system_pencil",
    "blocking.lift_relation_residual",
    "blocking.transfer_eval",
    "numerics.normal_rank",
    "numerics.numerical_rank",
    "zeros.zero_report",
    "zeros.finite_zero_candidates",
    "zeros.verify_zero",
    "_exact.exact_block",
    "_exact.exact_rank",
    "harness._escalate",
    "harness.run_trial",
    "harness.emit_report",
)

TRIAL_LAYER = "harness.run_trial"

# agreement keys a trial can escalate to exact arithmetic (all but
# lift_residual); fixed here so the metric names do not follow the program
ESCALATION_KEYS = ("duality", "mult_at_infinity", "mult_at_zero", "no_finite_nonzero",
                   "normal_rank", "rank_D", "tau_independent")


def _modules() -> list:
    return [importlib.import_module(PACKAGE)] + [
        importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES]


def metric_prefix(layer: str) -> str:
    """Metric names start with a letter: `_exact.exact_rank` reports as `exact.exact_rank`."""
    return layer.lstrip("_")


def layer_function(layer: str):
    module, attr = layer.split(".")
    return getattr(importlib.import_module(f"{PACKAGE}.{module}"), attr)


class Patch:
    """Rebinds functions in every package module; `restore` undoes it exactly."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def install(self, func, wrapper) -> None:
        for mod in _modules():
            for name in [n for n, v in vars(mod).items() if v is func]:
                self._saved.append((mod, name, func))
                setattr(mod, name, wrapper)

    def restore(self) -> None:
        while self._saved:
            mod, name, func = self._saved.pop()
            setattr(mod, name, func)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def _max_bits(M) -> int:
    bits = 0
    for x in np.asarray(M, dtype=object).ravel():
        x = Fraction(x)
        bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
    return bits


def _cells(M) -> int:
    return int(np.atleast_2d(M).size)


class Tracer:
    """Records spans of the chosen layers plus counters taken at their boundaries."""

    def __init__(self, layers=LAYERS):
        self.layers = tuple(layers)
        self.spans: list[tuple] = []
        self.calls = [0] * len(self.layers)
        self.total_s = [0.0] * len(self.layers)
        self.self_s = [0.0] * len(self.layers)
        self.counters: Counter = Counter()
        self.trial = -1
        self._trials = 0
        self._open: list[list] = []   # [span index, seconds covered by children]
        self._patch = Patch()

    def __enter__(self):
        for idx, layer in enumerate(self.layers):
            func = layer_function(layer)
            self._patch.install(func, self._wrap(idx, func, _OBSERVERS.get(layer)))
        return self

    def __exit__(self, *exc):
        self._patch.restore()

    def _wrap(self, idx: int, func, observe):
        is_trial = self.layers[idx] == TRIAL_LAYER
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            outer_trial = self.trial
            if is_trial:
                self.trial = self._trials
                self._trials += 1
            parent = open_[-1][0] if open_ else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            open_.append(frame)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = clock()
                open_.pop()
                spans[frame[0]] = (idx, t0, t1, parent, self.trial)
                self.calls[idx] += 1
                self.total_s[idx] += t1 - t0
                self.self_s[idx] += t1 - t0 - frame[1]
                self.trial = outer_trial
                if open_:
                    open_[-1][1] += t1 - t0
            if observe is not None:
                observe(self, args, kwargs, result)
                if open_:
                    # counter work is charged to no layer's self time
                    open_[-1][1] += clock() - t1
            return result

        return wrapper

    def durations(self, layer: str) -> list[float]:
        idx = self.layers.index(layer)
        return [s[2] - s[1] for s in self.spans if s is not None and s[0] == idx]

    def metrics(self) -> dict:
        """Per-layer calls, seconds and self seconds, then the boundary counters."""
        out = {}
        for idx, layer in enumerate(self.layers):
            name = metric_prefix(layer)
            out[f"{name}.calls"] = (self.calls[idx], "count")
            out[f"{name}.s"] = (self.total_s[idx], "s")
            out[f"{name}.self_s"] = (self.self_s[idx], "s")
        c = self.counters
        out["numerics.numerical_rank.cells"] = (c["numerical_rank.cells"], "cells")
        out["exact.exact_rank.cells"] = (c["exact_rank.cells"], "cells")
        out["exact.exact_rank.max_bits"] = (c["exact_rank.max_bits"], "bits")
        out["zeros.candidates_examined"] = (c["candidates_examined"], "count")
        out["zeros.confirmed_zeros"] = (c["confirmed_zeros"], "count")
        out["zeros.confirm_ratio"] = (_ratio(c["confirmed_zeros"], c["candidates_examined"]),
                                      "ratio")
        out["harness.escalated_trials"] = (c["escalated_trials"], "count")
        for key in ESCALATION_KEYS:
            out[f"harness.escalated_keys.{key}"] = (c[f"escalated.{key}"], "count")
        out["harness.escalated_keys_total"] = (c["escalated_keys"], "count")
        out["harness.escalation_cleared_ratio"] = (
            _ratio(c["escalation_cleared"], c["escalated_keys"]), "ratio")
        out["harness.emit_report.bytes"] = (c["emit_report.bytes"], "B")
        return out

    def write(self, path: Path) -> None:
        """Write every span as JSON: layer names, then [layer, start, end, parent, trial] rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"layers": list(self.layers), "spans": self.spans}, fh)


def _ratio(num, den) -> float:
    # a ratio whose base is 0 reads 0; the base is reported beside it
    return num / den if den else 0.0


def _observe_numerical_rank(tr, args, kwargs, result):
    tr.counters["numerical_rank.cells"] += _cells(args[0] if args else kwargs["M"])


def _observe_exact_rank(tr, args, kwargs, result):
    M = args[0] if args else kwargs["M"]
    tr.counters["exact_rank.cells"] += _cells(M)
    tr.counters["exact_rank.max_bits"] = max(tr.counters["exact_rank.max_bits"], _max_bits(M))


def _observe_zero_report(tr, args, kwargs, result):
    tr.counters["candidates_examined"] += result.candidates_examined
    tr.counters["confirmed_zeros"] += len(result.finite_nonzero_zeros)


def _observe_run_trial(tr, args, kwargs, result):
    if result.escalated:
        tr.counters["escalated_trials"] += 1
    for key in result.escalated:
        tr.counters[f"escalated.{key}"] += 1
        tr.counters["escalated_keys"] += 1
        tr.counters["escalation_cleared"] += bool(result.agreement.get(key))


def _observe_emit_report(tr, args, kwargs, result):
    path = args[2] if len(args) > 2 else kwargs["path"]
    tr.counters["emit_report.bytes"] += Path(path).stat().st_size


_OBSERVERS = {
    "numerics.numerical_rank": _observe_numerical_rank,
    "_exact.exact_rank": _observe_exact_rank,
    "zeros.zero_report": _observe_zero_report,
    "harness.run_trial": _observe_run_trial,
    "harness.emit_report": _observe_emit_report,
}
