"""entconform benchmark: one seeded workload, timed, checked and summarised.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads are defined in ``workloads.py``.  The program under test is
the checkout's ``src/entconform``; nothing is installed.  Each run:

1. generates the workload's inputs from the seed in a separate process
   (cached under ``.perfbench/inputs`` for the last seed of each workload);
2. with ``--trace 0``, starts the measured process again and again for
   about ``--seconds`` seconds (at least once).  Each process sets up as a
   user's would and runs one timed pass of identical work, and the run
   reports the end-to-end metrics over these passes;
3. with ``--trace 1``, runs one untraced pass and one traced pass, each
   in a fresh process, and reports the per-layer metrics from the spans.

Outputs are checked on every pass; failed operations are counted, not
raised.  The sha256 of each output is printed next to the value that the
seed commit produced for the same workload and seed (``digests.json``,
seeds 1 to 10), so a refactor can show byte-identical results; a
mismatch is reported, not failed, because floating-point rounding may
differ between machines.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 whenever that line is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

# A run must end within 180 s; leave room for the summary.
RUN_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _env(src: str) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = src
    env.pop("PYTHONSTARTUP", None)
    return env


def _run(cmd, *, cwd, env, log, deadline) -> None:
    """Run a child to completion within the deadline; raise if it fails."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting " + os.path.basename(cmd[1]))
    with open(log, "a", encoding="utf-8") as fh:
        try:
            proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=fh, stderr=subprocess.STDOUT,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{os.path.basename(cmd[1])} timed out; see {log}") from None
    if proc.returncode != 0:
        with open(log, "r", encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"{os.path.basename(cmd[1])} exited with {proc.returncode}:\n{tail}")


def ensure_inputs(root, w, seed, scale, env, deadline) -> tuple[str, dict]:
    """Generate the inputs for (workload, seed) unless already on disk.

    The cache key covers the workload's definition and the generator's
    source, so editing either regenerates the inputs.
    """
    base = os.path.join(root, ".perfbench", "inputs", w.name)
    with open(os.path.join(HERE, "gen.py"), "rb") as fh:
        recipe = hashlib.sha256(repr(w).encode() + fh.read()).hexdigest()[:12]
    path = os.path.join(base, f"seed-{seed}-{recipe}")
    manifest = os.path.join(path, "manifest.json")
    if not os.path.exists(manifest):
        if os.path.isdir(base):
            shutil.rmtree(base)
        os.makedirs(path)
        cmd = [sys.executable, os.path.join(HERE, "gen.py"), "--workload", w.name,
               "--seed", str(seed), "--out", path, "--scale", str(scale)]
        _run(cmd, cwd=root, env=env, log=os.path.join(base, "gen.log"), deadline=deadline)
    with open(manifest, "r", encoding="utf-8") as fh:
        return path, json.load(fh)


def start_worker(args, *, inputs, out, src, env, deadline, trace=0) -> dict:
    """Run one measured process, which does one timed pass; its result."""
    os.makedirs(out, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--src", src, "--out", out, "--trace", str(trace), "--scale", str(args.scale)]
    # The worker measures its set-up from this instant.
    _run(cmd + ["--t0", repr(time.monotonic())], cwd=inputs, env=env,
         log=os.path.join(out, "worker.log"), deadline=deadline)
    with open(os.path.join(out, "result.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def source_digest(src: str) -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def commit_of(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def recorded_digests(name: str, seed: int) -> dict:
    with open(os.path.join(HERE, "digests.json"), "r", encoding="utf-8") as fh:
        return json.load(fh).get(name, {}).get(str(seed), {})


def _totals(passes) -> tuple[int, int, list]:
    attempted = failed = 0
    problems = []
    for p in passes:
        attempted += p["attempted"]
        failed += p["failed"]
        problems.extend(p["problems"])
    return attempted, failed, problems


def timed_passes(args, seconds, out, **common) -> list[dict]:
    """Fresh measured processes, one pass each, for about ``seconds``.

    Another process starts only if, at the median process time so far,
    it would end within the budget.
    """
    passes, took = [], []
    started = time.monotonic()
    while not passes or time.monotonic() - started + statistics.median(took) <= seconds:
        begin = time.monotonic()
        passes.append(start_worker(args, out=os.path.join(out, f"pass{len(passes)}"), **common))
        took.append(time.monotonic() - begin)
    return passes


def end_to_end(w, passes) -> tuple[dict, dict, list]:
    """Values and printed bases of the untraced metrics, and extra lines.

    The stream's per-batch latencies are printed but not part of the
    result: the sweeps have no batches, and every workload reports the
    same metrics.
    """
    import summary

    walls = [p["wall_s"] for p in passes]
    ready = [p["ready_s"] for p in passes]
    rss = [p["peak_rss_mb"] for p in passes]
    # Every pass does the same work in a fresh process, and interference
    # from outside the process only adds time.  On small shared machines
    # it slows stretches of seconds by up to 1.8x, at times for most of a
    # run, so the median pass follows the interference while the fastest
    # follows the program.
    wall = min(walls)
    rows = w.cells * w.test_rows if w.kind == "sweep" else w.test_rows
    values = {
        "wall_s": wall,
        "sets_per_s": rows / wall,
        "setup_s": statistics.median(ready),
        "peak_rss_mb": statistics.median(rss),
    }
    bases = {
        "wall_s": f"fastest of {len(walls)} passes, median {statistics.median(walls):.4f}: "
                  + ", ".join(f"{x:.4f}" for x in walls),
        "sets_per_s": (f"{w.cells} cells x {w.test_rows} test rows" if w.kind == "sweep"
                       else f"{w.batches} batches x {w.batch_rows} rows") + " / wall_s",
        "setup_s": f"median of {len(ready)} process starts",
        "peak_rss_mb": f"median high-water RSS of {len(rss)} measured processes, "
                       f"{min(rss):.1f} to {max(rss):.1f}",
    }
    extra = []
    if w.kind == "stream":
        lat = [x for p in passes for x in p["latencies_ms"]]
        tail, pct, beyond = summary.tail(lat)
        extra = [
            f"metric batch_p50_ms = {statistics.median(lat):.6g} ms  (median of {len(lat)} batches)",
            f"metric batch_tail_ms = {tail:.6g} ms  (p{pct:g} of {len(lat)} batches, {beyond} beyond it)",
        ]
    return values, bases, extra


UNITS = {"wall_s": "s", "sets_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def run(args) -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "entconform", "__init__.py")):
        print("perfbench: no src/entconform here; run from the root of an entconform checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    w = WORKLOADS[args.workload]
    if args.scale != 1.0:
        w = w.scaled(args.scale)
    env = _env(src)
    inputs, manifest = ensure_inputs(root, w, args.seed, args.scale, env, deadline)
    out = os.path.join(root, ".perfbench", "runs", args.workload)
    if os.path.isdir(out):
        shutil.rmtree(out)
    common = dict(inputs=inputs, src=src, env=env, deadline=deadline)

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} scale={args.scale}")
    print(f"  why: {w.why}")
    for name, info in sorted(manifest["files"].items()):
        print(f"input {name} sha256={info['sha256']} bytes={info['bytes']}")

    if args.trace == 0:
        passes = timed_passes(args, args.seconds, out, **common)
        values, bases, extra = end_to_end(w, passes)
        units = UNITS
    else:
        import spans
        import summary

        base = start_worker(args, out=os.path.join(out, "untraced"), **common)
        res = start_worker(args, out=os.path.join(out, "traced"), trace=1, **common)
        passes = [base, res]
        split_rows = w.n_splits * w.n if w.kind == "sweep" else w.n_cal + w.test_rows
        values, bases = summary.layer_metrics(
            spans.load(os.path.join(out, "traced", "spans.jsonl")), res["counts"],
            split_rows=split_rows, untraced_wall_s=base["wall_s"],
        )
        units = summary.per_layer_units()
        extra = []
    attempted, failed, problems = _totals(passes)

    # Every pass does the same work, so it must give the same bytes,
    # traced or not.
    outputs = passes[0]["digests"]
    for i, p in enumerate(passes):
        if p["digests"] != outputs:
            failed += p["attempted"] - p["failed"]
            problems.append(f"pass {i} outputs differ from the first pass's")

    print(f"provenance python={passes[0]['python']} numpy={passes[0]['numpy']} "
          f"nproc={len(os.sched_getaffinity(0))} commit={commit_of(root)} "
          f"src_sha256={source_digest(src)}")
    recorded = recorded_digests(args.workload, args.seed) if args.scale == 1.0 else {}
    for name, sha in sorted(outputs.items()):
        verdict = ("not recorded for this seed" if name not in recorded
                   else "matches" if recorded[name] == sha else "DIFFERS")
        print(f"output {name} sha256={sha} (seed commit's value: {verdict})")
    for name in units:
        note = f"  ({bases[name]})" if name in bases else ""
        print(f"metric {name} = {values[name]:.6g} {units[name]}{note}")
    for line in extra:
        print(line)
    print(f"metric fail_ratio = {failed / attempted:.6g} ratio  ({failed} failed / {attempted} attempted)")
    for problem in problems[:10]:
        print(f"  failure: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink row counts, for testing the benchmark itself")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0 or not 0.0 < args.scale <= 1.0:
        parser.error("need --seed >= 0, --seconds > 0 and 0 < --scale <= 1")
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
