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

from .conformal import PredictionSet, _check_alpha
from .errors import EmptyRun, InvalidInput, checked
from .scores import _as_labels

__all__ = [
    "BinStat",
    "EvaluationRun",
    "MetricsReport",
    "SizeBins",
    "compute_report",
]


@dataclass(frozen=True)
class SizeBins:
    """Disjoint, ordered, inclusive integer ranges over set sizes."""

    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = isinstance(self.edges, (list, tuple)) and all(
            isinstance(e, (list, tuple)) and len(e) == 2 for e in self.edges
        )
        if not pairs:
            raise InvalidInput(f"bins must be [lo, hi] pairs, got {self.edges!r}")
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
    sizes: np.ndarray = field(init=False, repr=False, compare=False)
    covered: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        labels = _as_labels(self.labels)
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
            sets = tuple(checked(s, PredictionSet, "a prediction set") for s in self.sets)
            if labels.shape != (len(sets),):
                raise InvalidInput("labels must match the number of prediction sets")
            n = len(sets)
            sizes = np.fromiter((s.size for s in sets), dtype=np.int64, count=n)
            covered = np.fromiter(
                (int(lab) in s for s, lab in zip(sets, labels)), dtype=bool, count=n
            )
        _check_alpha(self.alpha)
        object.__setattr__(self, "sets", sets)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "covered", covered)

    @property
    def n(self) -> int:
        return int(self.sizes.size)


@dataclass(frozen=True)
class BinStat:
    """Instance count and coverage within one size bin (None when empty)."""

    lo: int
    hi: int
    n: int
    coverage: Optional[float]


@dataclass(frozen=True)
class MetricsReport:
    """All metrics for one (method, alpha) run.

    ``sscv`` is the worst deviation of any nonempty size bin's coverage
    from 1 - alpha.  ``singleton_coverage`` is absent (None) when no
    singleton sets were predicted.
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
        """Flat (metric, value) pairs of :meth:`to_json_dict` but the bins,
        sorted by name, for plot data; absent metrics omitted."""
        return sorted((k, v) for k, v in self.to_json_dict().items() if k != "stratified")


def compute_report(run: EvaluationRun, bins: SizeBins) -> MetricsReport:
    """Every metric of one run, from its set ``sizes`` and ``covered`` flags.

    Coverage is the fraction of covered labels; ``singleton_coverage`` is
    that fraction among the sets of size 1, None when there are none.  Each
    bin reports its instance count and coverage, None when empty.
    """
    checked(run, EvaluationRun, "run")
    checked(bins, SizeBins, "bins")
    if run.n == 0:
        raise EmptyRun("no prediction sets to evaluate")
    sizes, covered = run.sizes, run.covered
    # bins start at 0 and are contiguous, so a size's bin is the first
    # whose upper edge reaches it
    assignment = np.searchsorted([hi for _, hi in bins.edges], sizes)
    beyond = assignment == len(bins.edges)
    if beyond.any():
        raise InvalidInput(f"set size {int(sizes[beyond][0])} not covered by bins {bins.edges}")
    stratified = []
    for i, (lo, hi) in enumerate(bins.edges):
        in_bin = assignment == i
        count = int(in_bin.sum())
        stratified.append(BinStat(lo, hi, count, float(covered[in_bin].mean()) if count else None))
    single = sizes == 1
    return MetricsReport(
        coverage=float(covered.mean()),
        avg_set_size=float(sizes.mean()),
        singleton_ratio=float(single.mean()),
        singleton_coverage=float(covered[single].mean()) if single.any() else None,
        stratified=tuple(stratified),
        sscv=max(
            abs(s.coverage - (1.0 - run.alpha)) for s in stratified if s.coverage is not None
        ),
    )
