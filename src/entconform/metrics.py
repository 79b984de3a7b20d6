"""Coverage, efficiency, and adaptiveness metrics for prediction sets.

Coverage is the fraction of instances whose true label landed in the
predicted set; efficiency is average set size and the ratio of singleton
sets; adaptiveness is judged by stratifying coverage over set-size bins
and reporting the worst per-bin deviation from the nominal level
(the size-stratified coverage violation of Angelopoulos et al., 2021).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .conformal import PredictionSet
from .errors import EmptyRun, InvalidInput, checked

__all__ = [
    "BinStat",
    "EvaluationRun",
    "MetricsReport",
    "SizeBins",
    "avg_set_size",
    "compute_report",
    "empirical_coverage",
    "singleton_stats",
    "size_stratified_coverage",
    "sscv",
]


@dataclass(frozen=True)
class SizeBins:
    """Disjoint, ordered, inclusive integer ranges over set sizes."""

    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        edges = tuple(
            (int(checked(lo, int, "bin edge")), int(checked(hi, int, "bin edge")))
            for lo, hi in self.edges
        )
        if not edges:
            raise InvalidInput("need at least one bin")
        if edges[0][0] != 0:
            raise InvalidInput("bins must start at size 0")
        for i, (lo, hi) in enumerate(edges):
            if lo > hi:
                raise InvalidInput(f"bin {i} has lo > hi")
            if i and lo != edges[i - 1][1] + 1:
                raise InvalidInput("bins must be contiguous and ordered")
        object.__setattr__(self, "edges", edges)

    @classmethod
    def default(cls, num_classes: int) -> "SizeBins":
        """The canonical 0-1 / 2-3 / 4-6 / 7-10 / 11-K binning.

        Bins beyond the class count are dropped and the last edge is
        clamped to K, so the ranges always cover {0..K} exactly.
        """
        canonical = [(0, 1), (2, 3), (4, 6), (7, 10), (11, num_classes)]
        edges = [
            (lo, min(hi, num_classes)) for lo, hi in canonical if lo <= num_classes
        ]
        return cls(tuple(edges))


@dataclass(frozen=True)
class EvaluationRun:
    """Prediction sets with true labels for one (method, alpha) evaluation.

    ``sets`` is either a bool (n, K) mask, as :func:`set_masks` returns,
    or a sequence of :class:`PredictionSet`.  Each set's ``sizes`` and
    whether it ``covered`` its label are derived once, on construction.
    """

    sets: Union[np.ndarray, Sequence[PredictionSet]]
    labels: np.ndarray
    alpha: float
    method_name: str = ""
    sizes: np.ndarray = field(init=False, repr=False, compare=False)
    covered: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if isinstance(self.sets, np.ndarray):
            sets = self.sets
            if sets.dtype != bool or sets.ndim != 2:
                raise InvalidInput("a set mask must be a 2-D bool array")
            if labels.shape != (sets.shape[0],):
                raise InvalidInput("labels must match the number of prediction sets")
            if labels.size and (labels.min() < 0 or labels.max() >= sets.shape[1]):
                raise InvalidInput(f"labels must lie in [0, {sets.shape[1]})")
            sizes = sets.sum(axis=1, dtype=np.int64)
            covered = sets[np.arange(labels.size), labels]
        else:
            sets = tuple(self.sets)
            if labels.shape != (len(sets),):
                raise InvalidInput("labels must match the number of prediction sets")
            n = len(sets)
            sizes = np.fromiter((s.size for s in sets), dtype=np.int64, count=n)
            covered = np.fromiter(
                (int(lab) in s for s, lab in zip(sets, labels)), dtype=bool, count=n
            )
        if not 0.0 < self.alpha < 1.0:
            raise InvalidInput("alpha must lie in (0, 1)")
        object.__setattr__(self, "sets", sets)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "covered", covered)

    @property
    def n(self) -> int:
        return int(self.sizes.size)


def _require_nonempty(run: EvaluationRun):
    if run.n == 0:
        raise EmptyRun("no prediction sets to evaluate")


def empirical_coverage(run: EvaluationRun) -> float:
    """Fraction of instances whose true label is in the predicted set."""
    _require_nonempty(run)
    return float(run.covered.mean())


def avg_set_size(run: EvaluationRun) -> float:
    """Mean number of labels per prediction set."""
    _require_nonempty(run)
    return float(run.sizes.mean())


def singleton_stats(run: EvaluationRun) -> tuple[float, Optional[float]]:
    """Ratio of singleton sets and the coverage restricted to them.

    The restricted coverage is None when no singletons were predicted.
    """
    _require_nonempty(run)
    single = run.sizes == 1
    ratio = float(single.mean())
    if not single.any():
        return ratio, None
    return ratio, float(run.covered[single].mean())


@dataclass(frozen=True)
class BinStat:
    """Instance count and coverage within one size bin (None when empty)."""

    lo: int
    hi: int
    n: int
    coverage: Optional[float]


def size_stratified_coverage(run: EvaluationRun, bins: SizeBins) -> list[BinStat]:
    """Per-bin instance counts and coverages, empty bins reported as None."""
    _require_nonempty(run)
    # bins start at 0 and are contiguous, so a size's bin is the first
    # whose upper edge reaches it
    assignment = np.searchsorted([hi for _, hi in bins.edges], run.sizes)
    beyond = assignment == len(bins.edges)
    if beyond.any():
        size = int(run.sizes[beyond][0])
        raise InvalidInput(f"set size {size} not covered by bins {bins.edges}")
    stats = []
    for i, (lo, hi) in enumerate(bins.edges):
        in_bin = assignment == i
        count = int(in_bin.sum())
        cov = float(run.covered[in_bin].mean()) if count else None
        stats.append(BinStat(lo=lo, hi=hi, n=count, coverage=cov))
    return stats


def sscv(run: EvaluationRun, bins: SizeBins) -> float:
    """Worst deviation of any nonempty bin's coverage from 1 - alpha."""
    stats = size_stratified_coverage(run, bins)
    deviations = [
        abs(s.coverage - (1.0 - run.alpha)) for s in stats if s.coverage is not None
    ]
    return max(deviations)


@dataclass(frozen=True)
class MetricsReport:
    """All metrics for one (method, alpha) run.

    ``singleton_coverage`` is absent (None) when no singleton sets were
    predicted.
    """

    coverage: float
    avg_set_size: float
    singleton_ratio: float
    singleton_coverage: Optional[float]
    stratified: tuple[BinStat, ...]
    sscv: Optional[float]

    def to_json_dict(self) -> dict:
        doc = {
            "coverage": self.coverage,
            "avg_set_size": self.avg_set_size,
            "singleton_ratio": self.singleton_ratio,
            "stratified": [
                {"lo": s.lo, "hi": s.hi, "n": s.n, "coverage": s.coverage}
                for s in self.stratified
            ],
        }
        if self.singleton_coverage is not None:
            doc["singleton_coverage"] = self.singleton_coverage
        if self.sscv is not None:
            doc["sscv"] = self.sscv
        return doc

    def metric_items(self) -> list[tuple[str, float]]:
        """Flat (metric, value) pairs for plot data; absent metrics omitted."""
        items = [
            ("avg_set_size", self.avg_set_size),
            ("coverage", self.coverage),
            ("singleton_ratio", self.singleton_ratio),
        ]
        if self.singleton_coverage is not None:
            items.append(("singleton_coverage", self.singleton_coverage))
        if self.sscv is not None:
            items.append(("sscv", self.sscv))
        return sorted(items)


def compute_report(run: EvaluationRun, bins: SizeBins) -> MetricsReport:
    """Evaluate every metric over one run."""
    ratio, singleton_cov = singleton_stats(run)
    return MetricsReport(
        coverage=empirical_coverage(run),
        avg_set_size=avg_set_size(run),
        singleton_ratio=ratio,
        singleton_coverage=singleton_cov,
        stratified=tuple(size_stratified_coverage(run, bins)),
        sscv=sscv(run, bins),
    )
