"""Reduce raw timings and spans to the metrics the benchmark prints."""

from __future__ import annotations

from spans import SPAN_FIELDS, SPAN_NAMES, Span, ancestor_names, layer_totals, self_times

MIN_BEYOND = 10

FIELD_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "errors": "count", "rss_gain_mb": "MB"}

# Per-layer metrics beyond the five per span, with their units.
EXTRA_UNITS = {
    "harness.load_dataset.bytes": "bytes",
    "harness.load_dataset.mb_per_s": "MB/s",
    "scores.descending_order.rows": "count",
    "scores.sorts_per_row": "ratio",
    "conformal.predict_sets.rows": "count",
    "tuning.useful_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{n}.{f}": FIELD_UNITS[f] for n in SPAN_NAMES for f in SPAN_FIELDS}
    units.update(EXTRA_UNITS)
    return units


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest nearest-rank
    percentile with at least ``MIN_BEYOND`` samples above it.

    With fewer than ``MIN_BEYOND + 1`` samples no percentile qualifies and
    the maximum is returned, with the number beyond it saying so.
    """
    ordered = sorted(samples)
    n = len(ordered)
    i = n - 1 - MIN_BEYOND if n > MIN_BEYOND else n - 1
    return ordered[i], 100.0 * (i + 1) / n, n - 1 - i


def layer_metrics(spans: list[Span], counts: dict, *, split_rows: int,
                  untraced_wall_s: float) -> tuple[dict, dict]:
    """Per-layer metric values, and the base of each ratio as text.

    ``split_rows`` is splits x n, the rows one sort of every row per
    split would touch.  Spans outside the timed passes (the stream's
    set-up) count too.
    """
    totals = layer_totals(spans)
    values = {f"{n}.{f}": totals[n][f] for n in SPAN_NAMES for f in SPAN_FIELDS}
    bases = {}

    load_bytes = counts.get("harness.load_dataset.bytes", 0.0)
    load_busy = totals["harness.load_dataset"]["busy_s"]
    values["harness.load_dataset.bytes"] = load_bytes
    values["harness.load_dataset.mb_per_s"] = load_bytes / 2**20 / load_busy if load_busy else 0.0
    bases["harness.load_dataset.mb_per_s"] = f"{load_bytes:.0f} bytes / {load_busy:.4f} s"

    sorted_rows = counts.get("scores.descending_order.rows", 0.0)
    values["scores.descending_order.rows"] = sorted_rows
    values["scores.sorts_per_row"] = sorted_rows / split_rows
    bases["scores.sorts_per_row"] = f"{sorted_rows:.0f} rows sorted / {split_rows} (splits x n)"
    values["conformal.predict_sets.rows"] = counts.get("conformal.predict_sets.rows", 0.0)

    by_id = {s.id: s for s in spans}
    grid = final = 0
    for s in spans:
        if s.name == "conformal.calibrate":
            if any(a.startswith("tuning.tune_") for a in ancestor_names(by_id, s)):
                grid += 1
            else:
                final += 1
    values["tuning.useful_ratio"] = final / (final + grid) if final + grid else 0.0
    bases["tuning.useful_ratio"] = f"{final} final / {final + grid} calibrations ({grid} on tuning grids)"

    selfs = self_times(spans)
    timed = [s for s in spans if s.name == "bench.timed"]
    traced_wall = sum(s.end - s.start for s in timed)
    in_timed = sum(
        selfs[s.id] for s in spans
        if s.name == "bench.timed" or "bench.timed" in ancestor_names(by_id, s)
    )
    values["trace.wall_s"] = traced_wall
    bases["trace.wall_s"] = f"self times of all spans in the timed passes sum to {in_timed:.4f} s"
    values["trace.unattributed_s"] = sum(selfs[s.id] for s in timed)
    values["trace.overhead_ratio"] = traced_wall / untraced_wall_s
    bases["trace.overhead_ratio"] = f"traced {traced_wall:.4f} s / untraced {untraced_wall_s:.4f} s"
    return values, bases
