"""Seeded data splitting and hyperparameter grids.

Hyperparameters (the entmax gamma, the RAPS regularization pair) are
chosen by carving the calibration data into a calibration part and a
tuning part, calibrating on the first, and minimizing average prediction
set size on the second.  Tuning never sees the data used to measure final
coverage; that would break exchangeability, the sole assumption behind
the coverage guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .conformal import CalibratedPredictor, LabeledLogitDataset, _view_sets, calibrate
from .errors import InsufficientData, InvalidFractions, InvalidInput, checked
from .scores import RapsParams, ScoreKind, _sort_rows

__all__ = [
    "DEFAULT_GAMMA_GRID",
    "DEFAULT_K_GRID",
    "DEFAULT_LAMBDA_GRID",
    "SplitSpec",
    "TuningResult",
    "split",
    "tune_gamma",
    "tune_raps",
]

DEFAULT_GAMMA_GRID = (1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9)
DEFAULT_LAMBDA_GRID = (0.001, 0.01, 0.1, 1.0)
DEFAULT_K_GRID = (1, 5, 10, 50)
# Every grid search calibrates on the first 60% of a seeded shuffle of the
# calibration data and measures set sizes on the last 40%.
_TUNING_FRACTIONS = (0.6, 0.4)


@dataclass(frozen=True)
class SplitSpec:
    """Fractions of a deterministic seeded split.

    The shuffle is ``numpy.random.default_rng(seed).permutation`` (a
    seeded Fisher-Yates), so identical (data, seed) always give the
    identical partition.
    """

    fractions: tuple[float, ...]
    seed: int

    def __post_init__(self):
        fractions = tuple(float(checked(f, float, "fraction")) for f in self.fractions)
        if len(fractions) < 2:
            raise InvalidFractions("need at least two fractions")
        if any(not math.isfinite(f) or f <= 0.0 for f in fractions):
            raise InvalidFractions("every fraction must be positive")
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise InvalidFractions(f"fractions must sum to 1, got {sum(fractions)}")
        object.__setattr__(self, "fractions", fractions)
        if checked(self.seed, int, "seed") < 0:
            raise InvalidInput("seed must be nonnegative")


def _split_indices(n: int, spec: SplitSpec) -> list[np.ndarray]:
    """The row indices of each part of :func:`split` for n instances."""
    if n < len(spec.fractions):
        raise InsufficientData(
            f"cannot split {n} instances into {len(spec.fractions)} parts"
        )
    perm = np.random.default_rng(spec.seed).permutation(n)
    sizes = [int(math.floor(n * f + 1e-9)) for f in spec.fractions[:-1]]
    sizes.append(n - sum(sizes))
    return np.split(perm, np.cumsum(sizes)[:-1])


def split(data: LabeledLogitDataset, spec: SplitSpec) -> list[LabeledLogitDataset]:
    """Shuffle with the spec's seed, then partition contiguously.

    Part sizes are ``floor(n * fraction)`` with the remainder going to the
    last part; the parts are disjoint and their union is a permutation of
    the input.  ``data`` may also be a sorted view of the rows
    (:class:`entconform.scores._SortedRows`), whose parts index the same
    sort, never sorted again.
    """
    return [data.subset(idx) for idx in _split_indices(data.n, spec)]


Parameter = Union[float, tuple[float, int]]


@dataclass(frozen=True)
class TuningResult:
    """Chosen parameter, its objective, the full grid table, and the
    predictor calibrated at the chosen parameter.

    ``table`` maps each evaluated parameter to the average prediction set
    size it achieved on the tuning part; ``chosen`` attains the minimum,
    with ties broken toward the smallest parameter.  ``predictor`` is the
    grid's own calibration of ``chosen`` on the calibration part, so it
    never saw the tuning part.
    """

    chosen: Parameter
    objective: float
    table: dict
    predictor: CalibratedPredictor

    def to_json_dict(self) -> dict:
        return {
            "chosen": list(self.chosen) if isinstance(self.chosen, tuple) else self.chosen,
            "objective": self.objective,
            "table": [
                {"param": list(p) if isinstance(p, tuple) else p, "objective": o}
                for p, o in self.table.items()
            ],
        }


def _grid_search(view, alphas, seed: int, kinds: dict) -> list[TuningResult]:
    """Calibrate each ``{param: ScoreKind}`` entry on the first part of the
    tuning split seeded by ``seed``, measure average set size on the second,
    and choose the smallest average, ties going to the smallest parameter;
    one result per alpha.

    ``view`` is the sorted view of the rows to split, with their ranks.
    Both parts are row indices into its sort (:func:`split`), dropped on
    return.  The calibration part scores each entry once for every alpha,
    and set sizes are counted in rank order.
    """
    cal_part, tune_part = split(view, SplitSpec(_TUNING_FRACTIONS, seed))
    results = []
    for alpha in alphas:
        preds = {param: calibrate(cal_part, kind, alpha) for param, kind in kinds.items()}
        table = {p: float(_view_sets(tune_part, pred).sum(axis=1).mean())
                 for p, pred in preds.items()}
        chosen = min(table, key=lambda p: (table[p], p))
        results.append(TuningResult(chosen, table[chosen], table, preds[chosen]))
    return results


def _grid_entries(grid, kind: type, what: str) -> list:
    """The entries of a grid as ``kind``, each checked: a grid is a list, a
    tuple or a 1-D array, else :class:`InvalidInput`."""
    listed = isinstance(grid, (list, tuple)) or isinstance(grid, np.ndarray) and grid.ndim == 1
    if not listed:
        raise InvalidInput(f"{what} must be a list of numbers, got {grid!r}")
    return [kind(checked(v, kind, f"{what} entry")) for v in grid]


def _gamma_kinds(grid) -> dict:
    """``{gamma: ScoreKind}`` of a checked gamma grid."""
    grid = _grid_entries(grid, float, "gamma grid")
    if not grid:
        raise InvalidInput("gamma grid is empty")
    if any(not 1.0 < g < 2.0 for g in grid):
        raise InvalidInput("every grid gamma must lie strictly inside (1, 2)")
    return {g: ScoreKind.entmax(g) for g in grid}


def _raps_kinds(lambda_grid, k_grid) -> dict:
    """``{(lambda_reg, k_reg): ScoreKind}`` of checked RAPS grids, with the
    deterministic RAPS variant so that the search is reproducible."""
    lambdas = _grid_entries(lambda_grid, float, "lambda grid")
    ks = _grid_entries(k_grid, int, "k grid")
    if not lambdas or not ks:
        raise InvalidInput("RAPS grids must be nonempty")
    return {
        (lam, k): ScoreKind.raps(RapsParams(lambda_reg=lam, k_reg=k))
        for lam in lambdas
        for k in ks
    }


def tune_gamma(
    cal: LabeledLogitDataset,
    alpha: float,
    grid=DEFAULT_GAMMA_GRID,
    seed: int = 0,
) -> TuningResult:
    """Pick the entmax gamma minimizing average set size.

    Shuffles ``cal`` with ``seed`` and splits it 60/40; calibrates on the
    60% part for each gamma in the grid and measures average prediction
    set size on the 40% part.  Ties go to the smallest gamma (the denser,
    safer predictor).
    """
    kinds = _gamma_kinds(grid)
    return _grid_search(_sort_rows(cal.logits, cal.labels), (alpha,), seed, kinds)[0]


def tune_raps(
    cal: LabeledLogitDataset,
    alpha: float,
    lambda_grid=DEFAULT_LAMBDA_GRID,
    k_grid=DEFAULT_K_GRID,
    seed: int = 0,
) -> TuningResult:
    """Exhaustive (lambda_reg, k_reg) grid search for the RAPS score.

    Same protocol as :func:`tune_gamma`; ties break to the
    lexicographically smallest pair.  The deterministic RAPS variant is
    used throughout so the search itself is reproducible.
    """
    kinds = _raps_kinds(lambda_grid, k_grid)
    return _grid_search(_sort_rows(cal.logits, cal.labels), (alpha,), seed, kinds)[0]
