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

from .conformal import CalibratedPredictor, LabeledLogitDataset, calibrate, set_masks
from .errors import InsufficientData, InvalidFractions, InvalidInput, checked
from .scores import RapsParams, ScoreKind

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
        fractions = tuple(float(f) for f in self.fractions)
        if len(fractions) < 2:
            raise InvalidFractions("need at least two fractions")
        if any(not math.isfinite(f) or f <= 0.0 for f in fractions):
            raise InvalidFractions("every fraction must be positive")
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise InvalidFractions(f"fractions must sum to 1, got {sum(fractions)}")
        object.__setattr__(self, "fractions", fractions)
        if self.seed < 0:
            raise InvalidInput("seed must be nonnegative")


def split(data: LabeledLogitDataset, spec: SplitSpec) -> list[LabeledLogitDataset]:
    """Shuffle with the spec's seed, then partition contiguously.

    Part sizes are ``floor(n * fraction)`` with the remainder going to the
    last part; the parts are disjoint and their union is a permutation of
    the input.
    """
    n = data.n
    if n < len(spec.fractions):
        raise InsufficientData(
            f"cannot split {n} instances into {len(spec.fractions)} parts"
        )
    perm = np.random.default_rng(spec.seed).permutation(n)
    sizes = [int(math.floor(n * f + 1e-9)) for f in spec.fractions[:-1]]
    sizes.append(n - sum(sizes))
    parts = []
    start = 0
    for size in sizes:
        parts.append(data.subset(perm[start : start + size]))
        start += size
    return parts


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


def _grid_search(cal, alpha, spec, kinds: dict) -> TuningResult:
    """Calibrate each ``{param: ScoreKind}`` entry on the first split part,
    measure average set size on the second, and choose the smallest
    average, ties going to the smallest parameter."""
    if spec is None:
        spec = SplitSpec((0.6, 0.4), seed=0)
    if len(spec.fractions) != 2:
        raise InvalidFractions("tuning expects a two-way calibration/tuning split")
    cal_part, tune_part = split(cal, spec)
    if cal_part.n == 0 or tune_part.n == 0:
        raise InsufficientData("a tuning split part is empty")
    table, preds = {}, {}
    for param, kind in kinds.items():
        preds[param] = calibrate(cal_part, kind, alpha)
        table[param] = float(set_masks(tune_part.logits, preds[param]).sum(axis=1).mean())
    chosen = min(table, key=lambda p: (table[p], p))
    return TuningResult(
        chosen=chosen, objective=table[chosen], table=table, predictor=preds[chosen]
    )


def tune_gamma(
    cal: LabeledLogitDataset,
    alpha: float,
    grid=DEFAULT_GAMMA_GRID,
    spec: SplitSpec = None,
) -> TuningResult:
    """Pick the entmax gamma minimizing average set size.

    Calibrates on the first split part for each gamma in the grid and
    measures average prediction set size on the second; ties go to the
    smallest gamma (the denser, safer predictor).
    """
    grid = [float(checked(g, float, "gamma grid entry")) for g in grid]
    if not grid:
        raise InvalidInput("gamma grid is empty")
    if any(not 1.0 < g < 2.0 for g in grid):
        raise InvalidInput("every grid gamma must lie strictly inside (1, 2)")
    return _grid_search(cal, alpha, spec, {g: ScoreKind.entmax(g) for g in grid})


def tune_raps(
    cal: LabeledLogitDataset,
    alpha: float,
    lambda_grid=DEFAULT_LAMBDA_GRID,
    k_grid=DEFAULT_K_GRID,
    spec: SplitSpec = None,
) -> TuningResult:
    """Exhaustive (lambda_reg, k_reg) grid search for the RAPS score.

    Same protocol as :func:`tune_gamma`; ties break to the
    lexicographically smallest pair.  The deterministic RAPS variant is
    used throughout so the search itself is reproducible.
    """
    lambdas = [float(checked(l, float, "lambda grid entry")) for l in lambda_grid]
    ks = [int(checked(k, int, "k grid entry")) for k in k_grid]
    if not lambdas or not ks:
        raise InvalidInput("RAPS grids must be nonempty")
    kinds = {
        (lam, k): ScoreKind.raps(RapsParams(lambda_reg=lam, k_reg=k))
        for lam in lambdas
        for k in ks
    }
    return _grid_search(cal, alpha, spec, kinds)
