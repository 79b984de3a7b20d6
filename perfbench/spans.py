"""In-memory spans around the layers' public functions, and their totals.

The traced run wraps each layer function named in ``LAYERS`` and rebinds
every name under which an ``entconform`` module holds it (for example
``entconform.harness.calibrate`` and ``entconform.tuning.calibrate``), so
the program itself is not edited.  Spans are kept in a list and written
out once, when the measured process ends.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

# (span name, defining module, attribute).  The span name is the
# module's short name, so it stays the same when a caller imports the
# function under another name.
LAYERS = (
    ("cli.main", "entconform.cli", "main"),
    ("harness.load_dataset", "entconform.harness", "load_dataset"),
    ("harness.write_report", "entconform.harness", "write_report"),
    ("harness.emit_plot_data", "entconform.harness", "emit_plot_data"),
    ("tuning.split", "entconform.tuning", "split"),
    ("tuning.tune_gamma", "entconform.tuning", "tune_gamma"),
    ("tuning.tune_raps", "entconform.tuning", "tune_raps"),
    ("conformal.calibrate", "entconform.conformal", "calibrate"),
    ("conformal.conformal_quantile", "entconform.conformal", "conformal_quantile"),
    ("conformal.predict_sets", "entconform.conformal", "predict_sets"),
    ("conformal.support_sets_via_entmax", "entconform.conformal", "support_sets_via_entmax"),
    ("scores.true_label_scores", "entconform.scores", "true_label_scores"),
    ("scores.all_label_scores", "entconform.scores", "all_label_scores"),
    ("scores.descending_order", "entconform.scores", "descending_order"),
    ("metrics.compute_report", "entconform.metrics", "compute_report"),
)
SPAN_NAMES = tuple(name for name, _, _ in LAYERS)
SPAN_FIELDS = ("calls", "busy_s", "self_s", "errors", "rss_gain_mb")


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    run_id: str
    start: float
    end: float = 0.0
    rss_start_kb: int = 0
    rss_end_kb: int = 0
    error: bool = False


class Tracer:
    """Collects spans and per-layer work counts for one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.run_id = "setup"
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(
            id=len(self.spans),
            name=name,
            parent=parent,
            run_id=self.run_id,
            start=time.perf_counter(),
            rss_start_kb=_peak_rss_kb(),
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, error: bool = False) -> None:
        span.end = time.perf_counter()
        span.rss_end_kb = _peak_rss_kb()
        span.error = error
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def wrap(self, name: str, fn: Callable, counter: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            if counter is not None:
                counter(self, *args, **kwargs)
            span = self.open(name)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                self.close(span, error=failed)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _count_bytes(tracer: Tracer, path, *args, **kwargs) -> None:
    tracer.count("harness.load_dataset.bytes", os.path.getsize(path))


def _count_sorted_rows(tracer: Tracer, z, axis=-1) -> None:
    shape = np.shape(z)
    tracer.count("scores.descending_order.rows", int(np.prod(shape)) // shape[axis])


def _count_predicted_rows(tracer: Tracer, Z, *args, **kwargs) -> None:
    tracer.count("conformal.predict_sets.rows", np.shape(Z)[0])


COUNTERS = {
    "harness.load_dataset": _count_bytes,
    "scores.descending_order": _count_sorted_rows,
    "conformal.predict_sets": _count_predicted_rows,
}


def install(tracer: Tracer) -> None:
    """Rebind every layer function in every loaded entconform module.

    The defining modules must be imported first.
    """
    for name, module_name, attr in LAYERS:
        fn = getattr(sys.modules[module_name], attr)
        traced = tracer.wrap(name, fn, COUNTERS.get(name))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "entconform" or mod_name.startswith("entconform.")):
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, traced)


def load(path: str) -> list[Span]:
    with open(path, "r", encoding="utf-8") as fh:
        return [Span(**json.loads(line)) for line in fh if line.strip()]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus its children's.

    Children never overlap: ``Tracer.close`` refuses out-of-order closes.
    """
    out = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def ancestor_names(by_id: dict[int, Span], span: Span):
    """Names of the span's enclosing spans, innermost first."""
    parent = span.parent
    while parent is not None:
        yield by_id[parent].name
        parent = by_id[parent].parent


def layer_totals(spans: list[Span], names=SPAN_NAMES) -> dict[str, dict[str, float]]:
    """calls, busy_s, self_s, errors and rss_gain_mb for each span name."""
    selfs = self_times(spans)
    totals = {n: dict.fromkeys(SPAN_FIELDS, 0.0) for n in names}
    for s in spans:
        t = totals.setdefault(s.name, dict.fromkeys(SPAN_FIELDS, 0.0))
        t["calls"] += 1
        t["busy_s"] += s.end - s.start
        t["self_s"] += selfs[s.id]
        t["errors"] += int(s.error)
        t["rss_gain_mb"] += (s.rss_end_kb - s.rss_start_kb) / 1024.0
    return totals
