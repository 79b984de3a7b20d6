"""Tests of the benchmark's own logic.

Run with ``python3 -m pytest -q perfbench/tests`` from the repository root.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import spans  # noqa: E402
import summary  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def span(i, name, parent, start, end, rss=(0, 0), error=False):
    return spans.Span(id=i, name=name, parent=parent, run_id="r", start=start, end=end,
                      rss_start_kb=rss[0], rss_end_kb=rss[1], error=error)


class TestSelfTime:
    def tree(self):
        # root [0, 10] -> a [1, 4] -> c [2, 3]
        #              -> b [5, 9] -> c [6, 7]
        return [
            span(0, "root", None, 0.0, 10.0, rss=(100, 300)),
            span(1, "a", 0, 1.0, 4.0, rss=(100, 200)),
            span(2, "c", 1, 2.0, 3.0, rss=(150, 180)),
            span(3, "b", 0, 5.0, 9.0, rss=(200, 300), error=True),
            span(4, "c", 3, 6.0, 7.0),
        ]

    def test_self_time_subtracts_children(self):
        selfs = spans.self_times(self.tree())
        assert selfs == {0: 3.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 1.0}

    def test_self_times_sum_to_root_duration(self):
        assert sum(spans.self_times(self.tree()).values()) == pytest.approx(10.0)

    def test_layer_totals(self):
        totals = spans.layer_totals(self.tree(), names=("a", "b", "c"))
        assert totals["c"]["calls"] == 2
        assert totals["c"]["busy_s"] == 2.0
        assert totals["c"]["self_s"] == 2.0
        assert totals["a"]["busy_s"] == 3.0
        assert totals["a"]["self_s"] == 2.0
        assert totals["a"]["rss_gain_mb"] == pytest.approx(100 / 1024)
        assert totals["c"]["rss_gain_mb"] == pytest.approx(30 / 1024)
        assert totals["b"]["errors"] == 1


class TestTail:
    def test_ten_samples_beyond_the_tail(self):
        samples = list(range(1, 401))
        value, pct, beyond = summary.tail(samples)
        assert (value, pct, beyond) == (390, 97.5, 10)
        assert sum(s > value for s in samples) == 10

    def test_smallest_sample_count_with_a_tail(self):
        value, pct, beyond = summary.tail([5.0] + [1.0] * 10)
        assert (value, beyond) == (1.0, 10)

    def test_too_few_samples_falls_back_to_the_maximum(self):
        value, pct, beyond = summary.tail([3.0, 1.0, 2.0])
        assert (value, pct, beyond) == (3.0, 100.0, 0)


def write_sweep(tmp_path, w, report_doc, plot_text):
    report = tmp_path / "report.json"
    plot = tmp_path / "plotdata.csv"
    report.write_text(report_doc if isinstance(report_doc, str) else json.dumps(report_doc))
    plot.write_text(plot_text)
    return checks.check_sweep(
        str(report), str(plot), methods=w.method_names, alphas=w.alphas,
        n_splits=w.n_splits, k=w.k, n_test=w.test_rows, n_cal=w.min_cal_rows,
    )


def good_outputs(w):
    per_split = {}
    lines = ["method,alpha,split,metric,value"]
    for method in sorted(w.method_names):
        per_split[method] = {}
        for alpha in w.alphas:
            entries = []
            for s in range(w.n_splits):
                entry = {
                    "coverage": 1.0 - alpha / 2, "avg_set_size": 1.5, "singleton_ratio": 0.5,
                    "stratified": [{"lo": 0, "hi": 1, "n": w.test_rows, "coverage": 0.9}],
                    "split": s,
                }
                entries.append(entry)
                for metric in ("avg_set_size", "coverage", "singleton_ratio"):
                    lines.append(f"{method},{alpha:.6f},{s},{metric},{entry[metric]:.6f}")
            per_split[method][repr(float(alpha))] = entries
    return {"per_split": per_split}, "\n".join(lines) + "\n"


class TestSweepChecks:
    w = WORKLOADS["tuned-k100"]

    def test_consistent_outputs_pass(self, tmp_path):
        report, plot = good_outputs(self.w)
        assert write_sweep(tmp_path, self.w, report, plot) == (0, [])

    def test_corrupted_report_counts_every_cell_as_failed(self, tmp_path):
        report, plot = good_outputs(self.w)
        failed, problems = write_sweep(tmp_path, self.w, json.dumps(report)[:-20], plot)
        assert failed == self.w.cells
        assert "unreadable" in problems[0]

    def test_plot_disagreeing_with_report_fails_the_cell(self, tmp_path):
        report, plot = good_outputs(self.w)
        plot = plot.replace("coverage,0.950000", "coverage,0.950001", 1)
        failed, problems = write_sweep(tmp_path, self.w, report, plot)
        assert failed == 1
        assert "plotdata disagrees" in problems[0]

    def test_low_coverage_fails_the_method_and_alpha(self, tmp_path):
        w = WORKLOADS["protocol-k10"]
        report, plot = good_outputs(w)
        for entry in report["per_split"]["raps"]["0.1"]:
            entry["coverage"] = 0.5
        plot = plot.replace("raps,0.100000,0,coverage,0.950000", "raps,0.100000,0,coverage,0.500000")
        for s in range(1, w.n_splits):
            plot = plot.replace(f"raps,0.100000,{s},coverage,0.950000",
                                f"raps,0.100000,{s},coverage,0.500000")
        failed, problems = write_sweep(tmp_path, w, report, plot)
        assert failed == w.n_splits
        assert "coverage" in problems[0]

    def test_set_size_outside_range_fails(self, tmp_path):
        report, plot = good_outputs(self.w)
        entry = report["per_split"]["inv-prob"]["0.1"][0]
        entry["avg_set_size"] = self.w.k + 1.0
        plot = plot.replace("inv-prob,0.100000,0,avg_set_size,1.500000",
                            f"inv-prob,0.100000,0,avg_set_size,{self.w.k + 1.0:.6f}")
        failed, _ = write_sweep(tmp_path, self.w, report, plot)
        assert failed == 1


def test_install_rebinds_every_caller():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np
    import entconform
    import entconform.cli  # noqa: F401

    modules = [m for n, m in sys.modules.items() if n == "entconform" or n.startswith("entconform.")]
    saved = [(m, dict(vars(m))) for m in modules]
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        assert entconform.harness.calibrate is entconform.tuning.calibrate
        assert entconform.harness.calibrate.__wrapped__ is entconform.conformal.calibrate.__wrapped__
        rng = np.random.default_rng(0)
        data = entconform.LabeledLogitDataset(rng.standard_normal((60, 4)), rng.integers(0, 4, 60))
        entconform.tuning.tune_gamma(data, 0.2, grid=(1.5,))
    finally:
        for module, namespace in saved:
            vars(module).update(namespace)
    by_id = {s.id: s for s in tracer.spans}
    calibrations = [s for s in tracer.spans if s.name == "conformal.calibrate"]
    assert len(calibrations) == 1
    assert list(spans.ancestor_names(by_id, calibrations[0])) == ["tuning.tune_gamma"]
    assert tracer.counts["scores.descending_order.rows"] > 0
    assert entconform.tuning.calibrate is entconform.conformal.calibrate


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(tmp_path, workload, trace):
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    proc = bench(tmp_path, "--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--scale", "0.04")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "1":
        metrics = result["metrics"]
        assert metrics["trace.wall_s"]["value"] > 0
        assert metrics["trace.overhead_ratio"]["value"] > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    proc = bench(tmp_path, "--workload", "protocol-k10", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
