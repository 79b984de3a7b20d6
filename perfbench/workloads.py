"""The benchmark's workloads: sizes, methods and why each one exists.

Every input is generated by ``gen.py`` from the workload seed; the program
under test only ever sees the generated CSV files, sweep configs and
arrays.  A ``scale`` below 1 shrinks the row counts (never K) for smoke
tests of the benchmark itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# Names are spelled out (they equal the harness defaults, except
# raps-tuned) so the output checks need not import the program.
FIXED_METHODS = (
    {"score": "sparsemax", "name": "sparsemax"},
    {"score": "entmax", "gamma": 1.5, "name": "1.5-entmax"},
    {"score": "log_margin", "name": "log-margin"},
    {"score": "inv_prob", "name": "inv-prob"},
    {"score": "raps", "lambda_reg": 0.01, "k_reg": 5, "name": "raps"},
)

TUNED_METHODS = (
    {"score": "entmax", "tune": True, "name": "opt-entmax"},
    {"score": "raps", "tune": True, "name": "raps-tuned"},
    {"score": "entmax", "gamma": 1.5, "name": "1.5-entmax"},
    {"score": "inv_prob", "name": "inv-prob"},
)

# Difficulty knobs of the synthetic task (class-mean radius, alignment of
# each mean with its own axis, instance noise).
RADIUS = 5.0
ALIGN = 0.7
NOISE = 1.0


@dataclass(frozen=True)
class Sweep:
    """One ``entconform sweep`` over a generated CSV."""

    name: str
    why: str
    n: int
    k: int
    methods: tuple
    alphas: tuple
    n_splits: int
    cal_fraction: float

    kind = "sweep"

    @property
    def test_rows(self) -> int:
        # Mirrors the harness split: floor(n * cal_fraction) calibration rows.
        return self.n - int(self.n * self.cal_fraction + 1e-9)

    @property
    def min_cal_rows(self) -> int:
        """Smallest calibration set of any method: tuned ones keep 60%."""
        cal = int(self.n * self.cal_fraction + 1e-9)
        if any(m.get("tune") for m in self.methods):
            cal = int(cal * 0.6 + 1e-9)
        return cal

    @property
    def method_names(self) -> list:
        return [m["name"] for m in self.methods]

    @property
    def cells(self) -> int:
        return len(self.methods) * len(self.alphas) * self.n_splits

    def config(self, input_path: str) -> dict:
        return {
            "input_path": input_path,
            "methods": [dict(m) for m in self.methods],
            "alphas": list(self.alphas),
            "n_splits": self.n_splits,
            "cal_fraction": self.cal_fraction,
            "base_seed": 0,
            "output_path": "results",
        }

    def scaled(self, scale: float) -> "Sweep":
        return replace(self, n=max(200, int(self.n * scale)))


@dataclass(frozen=True)
class Stream:
    """Calibrate once, then a closed loop of one caller sending batches."""

    name: str
    why: str
    n_cal: int
    k: int
    batches: int
    batch_rows: int
    gamma: float
    alpha: float

    kind = "stream"

    @property
    def test_rows(self) -> int:
        """Held-out rows; every pass sends all of them, in the same batches."""
        return self.batches * self.batch_rows

    def scaled(self, scale: float) -> "Stream":
        return replace(
            self,
            n_cal=max(200, int(self.n_cal * scale)),
            batches=max(12, int(self.batches * scale)),
        )


# One pass (a sweep, or a stream loop over all its batches) takes about a
# second on a 2-core box, so that a 40-second run holds a dozen or more
# passes, each in a fresh process, and its fastest pass escapes the
# seconds-long slowdowns that shared machines impose.  That is why the sweeps use one split and fewer rows
# than the full protocol.
WORKLOADS = {
    w.name: w
    for w in (
        Sweep(
            name="protocol-k10",
            why="acceptance-config methods at n=5000, K=10: loads per-row set "
            "building and metrics; no tuning, tiny ingestion, no O(K^2) gap matrix",
            n=5000,
            k=10,
            methods=FIXED_METHODS,
            alphas=tuple(round(0.02 * i, 2) for i in range(1, 6)),
            n_splits=1,
            cal_fraction=0.4,
        ),
        Sweep(
            name="tuned-k100",
            why="grid tuning: repeated sorts and scoring across gamma and RAPS "
            "grid points; small metrics and ingestion",
            n=1000,
            k=100,
            methods=TUNED_METHODS,
            alphas=(0.05, 0.1),
            n_splits=1,
            cal_fraction=0.5,
        ),
        Stream(
            name="stream-k300",
            why="calibrate once, then small batches: per-call cost, CSV ingestion "
            "in set-up; the only workload that runs the activations route",
            n_cal=2000,
            k=300,
            batches=25,
            batch_rows=32,
            gamma=1.5,
            alpha=0.1,
        ),
    )
}
