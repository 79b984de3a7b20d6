"""Output checks that hold on any machine.

A failed check never raises: it marks the operations it covers as failed
and says why, so a corrupted output shows up in ``failed`` rather than
stopping the benchmark.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math

PLOT_METRICS = ("avg_set_size", "coverage", "singleton_coverage", "singleton_ratio", "sscv")

# Standard deviations of slack below 1 - alpha before a mean coverage
# counts as a failure; 4 keeps false alarms below 1e-4 per check.
COVERAGE_Z = 4.0


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def coverage_floor(alpha: float, n_test: int, n_cal: int) -> float:
    """1 - alpha minus a binomial slack for test and calibration sampling."""
    slack = COVERAGE_Z * math.sqrt(alpha * (1.0 - alpha) * (1.0 / n_test + 1.0 / n_cal))
    return 1.0 - alpha - slack


def check_sweep(report_path, plot_path, *, methods, alphas, n_splits, k, n_test, n_cal):
    """Check one sweep's ``report.json`` and ``plotdata.csv``.

    Returns ``(failed_cells, problems)``; a cell is one (method, alpha,
    split).  ``n_cal`` is the smallest calibration size any method uses.
    """
    cells = len(methods) * len(alphas) * n_splits
    try:
        with open(report_path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        with open(plot_path, "r", encoding="utf-8", newline="") as fh:
            plot_rows = list(csv.reader(fh))
        per_split = report["per_split"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return cells, [f"unreadable output: {exc!r}"]
    if not plot_rows or plot_rows[0] != ["method", "alpha", "split", "metric", "value"]:
        return cells, ["plotdata.csv header is wrong"]
    plot = {}
    for row in plot_rows[1:]:
        if len(row) != 5:
            return cells, [f"plotdata.csv row has {len(row)} fields"]
        plot[tuple(row[:4])] = row[4]

    failed: set = set()
    problems = []
    expected_rows = 0
    for method in methods:
        for alpha in alphas:
            entries = _entries(per_split, method, alpha)
            if entries is None or len(entries) != n_splits:
                failed.update((method, alpha, s) for s in range(n_splits))
                problems.append(f"{method} @ {alpha}: missing splits")
                continue
            coverages = []
            for s, entry in enumerate(entries):
                try:
                    bad = _check_cell(entry, k, n_test)
                    coverages.append(float(entry["coverage"]))
                    for metric in PLOT_METRICS:
                        if metric not in entry:
                            continue
                        expected_rows += 1
                        key = (method, f"{alpha:.6f}", str(s), metric)
                        if plot.get(key) != f"{entry[metric]:.6f}":
                            bad = bad or f"plotdata disagrees on {metric}"
                except (KeyError, TypeError, ValueError) as exc:
                    bad = f"malformed entry: {exc!r}"
                if bad:
                    failed.add((method, alpha, s))
                    problems.append(f"{method} @ {alpha} split {s}: {bad}")
            if len(coverages) == n_splits:
                mean = sum(coverages) / n_splits
                floor = coverage_floor(alpha, n_test, n_cal)
                if mean < floor:
                    failed.update((method, alpha, s) for s in range(n_splits))
                    problems.append(f"{method} @ {alpha}: coverage {mean:.4f} < {floor:.4f}")
    if expected_rows != len(plot):
        problems.append(f"plotdata.csv has {len(plot)} rows, report implies {expected_rows}")
        return cells, problems
    return len(failed), problems


def _entries(per_split, method, alpha):
    by_alpha = per_split.get(method)
    if not isinstance(by_alpha, dict):
        return None
    return by_alpha.get(repr(float(alpha)))


def _check_cell(entry, k, n_test):
    """Set sizes in [0, K] as far as the report shows them; '' when fine."""
    if not 0.0 <= entry["avg_set_size"] <= k:
        return f"avg_set_size {entry['avg_set_size']} outside [0, {k}]"
    if not 0.0 <= entry["coverage"] <= 1.0:
        return f"coverage {entry['coverage']} outside [0, 1]"
    bins = entry["stratified"]
    if any(b["lo"] < 0 or b["hi"] > k for b in bins):
        return "a size bin lies outside [0, K]"
    if sum(b["n"] for b in bins) != n_test:
        return "size bins do not account for every test row"
    return ""


def check_stream_batch(score_sets, entmax_sets, labels, k):
    """'' when the two routes agree row for row and sizes lie in [0, K]."""
    if len(score_sets) != len(labels) or len(entmax_sets) != len(labels):
        return "wrong number of sets"
    for a, b in zip(score_sets, entmax_sets):
        if a.labels != b.labels:
            return "score-route and entmax-support sets differ"
        if not 0 <= a.size <= k:
            return f"set size {a.size} outside [0, {k}]"
    return ""
