"""The measured process: set up as a user would, run one timed pass, check it.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``, the
BLAS and OpenMP thread counts pinned to 1, and the working directory set
to the workload's input directory.  Every timed pass runs in a fresh
process of its own, so no state left by an earlier pass can speed it up.
``--t0`` is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide), so ``ready_s`` covers interpreter
start, imports and the workload's set-up.  The result goes to
``result.json`` in ``--out``; with ``--trace 1`` the spans go to
``spans.jsonl`` there when the process ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time

from checks import check_stream_batch, check_sweep, coverage_floor, sha256_file
from workloads import WORKLOADS


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Timed:
    """The timed pass; under tracing it is also the root span of the pass."""

    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.run_id = "pass"
            self.span = self.tracer.open("bench.timed")
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall_s = time.perf_counter() - self.start
        if self.tracer is not None:
            self.tracer.close(self.span)
        return False


def measure_sweep(w, args, tracer) -> dict:
    import entconform.cli

    out_dir = os.path.join(args.out, "sweep")
    with Timed(tracer) as t:
        try:
            rc = entconform.cli.main(["sweep", "--config", "config.json", "--out-dir", out_dir])
        except Exception as exc:  # the sweep failed; count its cells
            rc = repr(exc)
    report = os.path.join(out_dir, "report.json")
    plot = os.path.join(out_dir, "plotdata.csv")
    if rc == 0:
        failed, problems = check_sweep(
            report, plot, methods=w.method_names, alphas=w.alphas, n_splits=w.n_splits,
            k=w.k, n_test=w.test_rows, n_cal=w.min_cal_rows,
        )
    else:
        failed, problems = w.cells, [f"sweep exited with {rc}"]
    return {
        "wall_s": t.wall_s,
        "attempted": w.cells,
        "failed": failed,
        "problems": problems[:5],
        "digests": {os.path.basename(p): sha256_file(p) if os.path.exists(p) else ""
                    for p in (report, plot)},
    }


def measure_stream(w, tracer, pred) -> dict:
    import numpy as np
    from entconform import conformal, metrics

    # A streaming caller holds one batch at a time, not the whole input.
    logits = np.load("test_logits.npy", mmap_mode="r")
    labels = np.load("test_labels.npy", mmap_mode="r")
    beta = 1.0 / pred.beta_inv
    bins = metrics.SizeBins.default(w.k)
    r = w.batch_rows
    latencies = []
    digest = hashlib.sha256()
    failed = covered = 0
    problems = []
    with Timed(tracer) as t:
        for b in range(w.batches):
            Z, y = np.array(logits[b * r : (b + 1) * r]), np.array(labels[b * r : (b + 1) * r])
            begin = time.perf_counter()
            try:
                sets = conformal.predict_sets(Z, pred)
                support = conformal.support_sets_via_entmax(Z, beta, w.gamma)
                problem = check_stream_batch(sets, support, y, w.k)
                report = metrics.compute_report(
                    metrics.EvaluationRun(sets=tuple(sets), labels=y, alpha=w.alpha), bins
                )
            except Exception as exc:  # the batch failed; count it
                problem = repr(exc)
            latencies.append((time.perf_counter() - begin) * 1e3)
            if problem:
                failed += 1
                problems.append(f"batch {b}: {problem}")
                continue
            covered += sum(int(label) in s for s, label in zip(sets, y.tolist()))
            digest.update(bytes(s.size for s in sets))
            digest.update(json.dumps(report.to_json_dict(), sort_keys=True).encode())
    floor = coverage_floor(w.alpha, w.test_rows, pred.calib_n)
    if covered < floor * w.test_rows:
        failed = w.batches
        problems.append(f"coverage {covered / w.test_rows:.4f} < {floor:.4f}")
    return {
        "wall_s": t.wall_s,
        "attempted": w.batches,
        "failed": failed,
        "problems": problems[:5],
        "digests": {"stream": digest.hexdigest()},
        "latencies_ms": latencies,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()

    w = WORKLOADS[args.workload]
    if args.scale != 1.0:
        w = w.scaled(args.scale)

    import entconform
    import entconform.cli  # noqa: F401  (the sweep's entry point)

    expected = os.path.realpath(os.path.join(args.src, "entconform"))
    if os.path.dirname(os.path.realpath(entconform.__file__)) != expected:
        print(f"imported entconform from {entconform.__file__}, not {args.src}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    try:
        if w.kind == "sweep":
            entconform.ExperimentConfig.from_json_file("config.json")
        else:
            cal = entconform.harness.load_dataset("cal.csv")
            pred = entconform.conformal.calibrate(cal, entconform.ScoreKind.entmax(w.gamma), w.alpha)
        ready_s = time.monotonic() - args.t0

        import numpy as np

        result = measure_sweep(w, args, tracer) if w.kind == "sweep" else measure_stream(w, tracer, pred)
        result.update({
            "ready_s": ready_s,
            "peak_rss_mb": _peak_rss_mb(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        })
        if tracer is not None:
            result["counts"] = tracer.counts
        with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    finally:
        if tracer is not None:
            tracer.dump(os.path.join(args.out, "spans.jsonl"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
