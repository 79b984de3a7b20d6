"""Split conformal calibration and prediction-set construction.

The split procedure (Papadopoulos et al., 2002; Vovk et al., 2005):
score every calibration pair, take the ceil((n+1)(1-alpha))-th smallest
score as the threshold q_hat, and at test time emit every label whose
score is at most q_hat.  Under exchangeability the resulting sets contain
the true label with probability at least 1 - alpha.

For the rank-gap score family this calibration has a second reading: the
set ``{y : score(z, y) <= q_hat}`` is exactly the support of gamma-entmax
applied to ``beta * z`` with ``beta = delta / q_hat``, so ``q_hat``
determines a temperature.  :func:`support_sets_via_entmax` computes the
sets from that side (through the activation, not the score inequality) so
the two routes can check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .activations import _as_logit_rows, _entmax_batch, _sparsemax_batch
from .errors import (
    DimensionMismatch,
    EmptyCalibration,
    InvalidGamma,
    InvalidInput,
    LabelOutOfRange,
    checked,
)
from .scores import (
    ScoreKind,
    _as_labels,
    _entmax_prefix,
    _rank_order_scores,
    _resolve_u,
    _row_blocks,
    _sort_rows,
    _SortedRows,
    _true_scores,
    true_label_scores,
)

__all__ = [
    "CalibratedPredictor",
    "LabeledLogitDataset",
    "PredictionSet",
    "calibrate",
    "conformal_quantile",
    "predict_sets",
    "set_masks",
    "support_sets_via_entmax",
]


@dataclass(frozen=True)
class PredictionSet:
    """A sorted set of label indices predicted for one instance."""

    labels: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.labels)

    def __contains__(self, label: int) -> bool:
        return label in self.labels

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "PredictionSet":
        return cls(tuple(int(i) for i in np.flatnonzero(mask)))


@dataclass(frozen=True)
class LabeledLogitDataset:
    """Score vectors paired with true labels, all sharing one class count."""

    logits: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        logits = np.asarray(self.logits, dtype=np.float64)
        labels = _as_labels(self.labels)
        if logits.ndim != 2 or logits.shape[1] < 2:
            raise InvalidInput("logits must be a 2-D array with at least 2 classes")
        if labels.shape != (logits.shape[0],):
            raise DimensionMismatch("labels must match the number of instances")
        if not np.all(np.isfinite(logits)):
            raise InvalidInput("logits must be finite")
        if labels.size and (labels.min() < 0 or labels.max() >= logits.shape[1]):
            raise LabelOutOfRange("labels must lie in [0, K)")
        object.__setattr__(self, "logits", logits)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return int(self.labels.size)

    @property
    def num_classes(self) -> int:
        return int(self.logits.shape[1])

    def subset(self, indices) -> "LabeledLogitDataset":
        indices = np.asarray(indices, dtype=np.int64)
        return LabeledLogitDataset(self.logits[indices], self.labels[indices])


@dataclass(frozen=True)
class CalibratedPredictor:
    """A score kind, its calibrated threshold, and the induced temperature.

    ``q_hat`` is the ceil((n+1)(1-alpha))-th smallest calibration score,
    or +inf when that index exceeds n.  ``num_classes`` is checked against
    every test batch.
    """

    score_kind: ScoreKind
    alpha: float
    q_hat: float
    calib_n: int
    num_classes: int

    def __post_init__(self):
        _check_alpha(self.alpha)
        if not checked(self.q_hat, float, "q_hat") >= 0.0:
            raise InvalidInput(f"q_hat must be nonnegative or inf, got {self.q_hat}")
        if checked(self.calib_n, int, "calib_n") < 1:
            raise InvalidInput(f"calib_n must be positive, got {self.calib_n}")
        if checked(self.num_classes, int, "num_classes") < 2:
            raise InvalidInput(f"num_classes must be at least 2, got {self.num_classes}")

    @property
    def beta_inv(self) -> float | None:
        """The temperature: ``(gamma - 1) * q_hat`` for the entmax kind and
        ``q_hat`` itself for sparsemax; None for kinds without one."""
        delta_inv = self.score_kind.delta_inv()
        return None if delta_inv is None else delta_inv * self.q_hat

    def to_json_dict(self) -> dict:
        doc = {
            "score_kind": self.score_kind.to_dict(),
            "alpha": self.alpha,
            "q_hat": "inf" if math.isinf(self.q_hat) else self.q_hat,
            "calib_n": self.calib_n,
            "num_classes": self.num_classes,
        }
        if self.beta_inv is not None:
            doc["beta_inv"] = "inf" if math.isinf(self.beta_inv) else self.beta_inv
        return doc

    @classmethod
    def from_json_dict(cls, doc) -> "CalibratedPredictor":
        """Inverse of :meth:`to_json_dict`; ``beta_inv`` is derived, not read."""
        if not isinstance(doc, dict):
            raise InvalidInput(f"a predictor must be a JSON object, got {doc!r}")
        if set(doc) - {"beta_inv"} != _PREDICTOR_KEYS:
            raise InvalidInput(
                f"predictor fields must be {sorted(_PREDICTOR_KEYS)}, got {sorted(doc)}"
            )
        kind = ScoreKind.from_dict(doc["score_kind"])
        q_hat = math.inf if doc["q_hat"] == "inf" else doc["q_hat"]
        return cls(kind, alpha=doc["alpha"], q_hat=q_hat,
                   calib_n=doc["calib_n"], num_classes=doc["num_classes"])


_PREDICTOR_KEYS = {"score_kind", "alpha", "q_hat", "calib_n", "num_classes"}


def _check_alpha(alpha) -> float:
    """``alpha`` as a float strictly inside (0, 1), else InvalidInput."""
    alpha = float(checked(alpha, float, "alpha"))
    if not 0.0 < alpha < 1.0:
        raise InvalidInput(f"alpha must lie in (0, 1), got {alpha}")
    return alpha


def _calibration_scores(scores) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise InvalidInput("scores must be a 1-D sequence")
    if scores.size == 0:
        raise EmptyCalibration("no calibration scores")
    if not np.all(np.isfinite(scores)):
        raise InvalidInput("calibration scores must be finite")
    return scores


def conformal_quantile(scores, alpha: float) -> float:
    """ceil((n+1)(1-alpha))-th smallest score, or +inf when out of range.

    Duplicates count: this is the order statistic, not an interpolated
    quantile.
    """
    ordered = np.sort(_calibration_scores(scores))
    n = ordered.size
    r = math.ceil((n + 1) * (1.0 - _check_alpha(alpha)))
    return math.inf if r > n else float(ordered[r - 1])


def _draw_u(kind: ScoreKind, n: int, stream: int):
    """Per-instance RAPS weights of a randomized RAPS kind, drawn from
    ``default_rng(params.rng_seed + stream)``; None for every other kind."""
    if kind.variant == "raps" and kind.raps_params.randomized:
        return np.random.default_rng(kind.raps_params.rng_seed + stream).uniform(size=n)
    return None


def _set_u(kind: ScoreKind, n: int, u) -> np.ndarray:
    """The checked RAPS weights of n test rows: ``u``, or when it is None
    the set stream's draw (:func:`_draw_u`), drawn for all n rows at once."""
    return _resolve_u(n, _draw_u(kind, n, 1) if u is None else u)


def _scores(cal, kind: ScoreKind) -> np.ndarray:
    """The true-label scores of ``cal`` under ``kind``.

    A sorted view (:class:`entconform.scores._SortedRows`) scores each kind
    once and keeps the vector for every later alpha; a dataset is scored in
    row blocks and keeps nothing.
    """
    if not isinstance(cal, _SortedRows):
        return true_label_scores(cal.logits, cal.labels, kind, u=_draw_u(kind, cal.n, 0))
    if kind not in cal.scores:
        u = _resolve_u(cal.n, _draw_u(kind, cal.n, 0))
        cal.scores[kind] = _true_scores(cal, kind, u)
    return cal.scores[kind]


def calibrate(cal: LabeledLogitDataset, kind: ScoreKind, alpha: float) -> CalibratedPredictor:
    """Score the calibration pairs and fix the inclusion threshold.

    For the randomized RAPS kind, per-instance uniform weights are drawn
    from ``default_rng(params.rng_seed)`` so calibration is reproducible.
    ``cal`` may also be the sorted view of the calibration pairs that a
    sweep shares among its methods, alphas and grid points.
    """
    alpha = _check_alpha(alpha)
    if cal.n == 0:
        raise EmptyCalibration("calibration dataset is empty")
    return CalibratedPredictor(
        score_kind=kind,
        alpha=alpha,
        q_hat=conformal_quantile(_scores(cal, kind), alpha),
        calib_n=cal.n,
        num_classes=cal.num_classes,
    )


def set_masks(Z, pred: CalibratedPredictor, u=None) -> np.ndarray:
    """Prediction sets for a batch of test score vectors, as a bool (n, K) mask.

    Row i marks every label whose score is at most ``pred.q_hat``
    (every label, when calibration could not certify the requested level
    and ``q_hat`` is +inf).  For the randomized RAPS kind with ``u`` not
    given, per-instance weights are drawn from
    ``default_rng(params.rng_seed + 1)``: a stream distinct from the
    calibration draws, and deterministic.  Each block of rows is sorted,
    built by :func:`_view_sets` and un-sorted as bools, so the mask equals
    ``all_label_scores(Z, kind, u) <= q_hat`` bit for bit.
    """
    Z = _as_logit_rows(Z)
    if Z.shape[1] != pred.num_classes:
        raise DimensionMismatch(
            f"predictor was calibrated with K={pred.num_classes}, got {Z.shape[1]}"
        )
    u = _set_u(pred.score_kind, Z.shape[0], u)
    mask = np.empty(Z.shape, dtype=bool)
    for rows in _row_blocks(*Z.shape):
        view = _sort_rows(Z[rows])
        np.put_along_axis(mask[rows], view.order, _view_sets(view, pred, u[rows]), axis=1)
    return mask


def _view_sets(view, pred: CalibratedPredictor, u=None) -> np.ndarray:
    """The one set builder: ``score <= pred.q_hat`` for the rows of a
    sorted view, as a bool (n, K) mask in rank order.  Column j of row i is
    the label at rank j, so a row's set size and whether it holds the label
    of rank ``view.rank[i]`` are those of the label-order mask.  ``u`` is
    checked for every predictor, one with an infinite ``q_hat`` too.  The
    general-gamma kind finds each row's set by a rank search
    (:func:`entconform.scores._entmax_prefix`), so no O(K^2) score matrix
    is built."""
    u = _set_u(pred.score_kind, view.n, u)
    if math.isinf(pred.q_hat):
        return np.ones((view.n, view.num_classes), dtype=bool)
    kind, q = pred.score_kind, pred.q_hat
    mask = np.empty((view.n, view.num_classes), dtype=bool)
    for rows in _row_blocks(view.n, view.num_classes):
        if kind.variant == "entmax":
            mask[rows] = _entmax_prefix(view.zs[rows], 1.0 / (kind.gamma - 1.0), q)
        else:
            mask[rows] = _rank_order_scores(view, rows, kind, u) <= q
    return mask


def predict_sets(Z, pred: CalibratedPredictor) -> list[PredictionSet]:
    """The rows of :func:`set_masks` as one :class:`PredictionSet` each."""
    return [PredictionSet.from_mask(row) for row in set_masks(Z, pred)]


def support_sets_via_entmax(Z, beta: float, gamma: float) -> list[PredictionSet]:
    """Supports of ``gamma-entmax(beta * Z)``, row by row.

    Computed through the activation (closed form at gamma = 2, the same
    Newton threshold as :func:`entconform.activations.entmax` otherwise,
    run until a step no longer raises it), never through the score
    inequality, so this is an independent route to the same sets as
    :func:`predict_sets` with the matching rank-gap kind and ``q_hat =
    delta / beta``.  A ``beta`` for which ``beta * Z`` overflows raises
    :class:`InvalidInput`.
    """
    Z = _as_logit_rows(Z)
    beta = checked(beta, float, "beta")
    if not np.isfinite(beta) or beta <= 0.0:
        raise InvalidInput(f"beta must be finite and positive, got {beta}")
    if not 1.0 < checked(gamma, float, "gamma") <= 2.0:
        raise InvalidGamma(f"gamma must lie in (1, 2], got {gamma}")
    with np.errstate(over="ignore"):
        Zb = beta * Z
    if not np.all(np.isfinite(Zb)):
        raise InvalidInput(f"beta * Z is not finite for beta = {beta}")
    if gamma == 2.0:
        masks = _sparsemax_batch(Zb) > 0.0
    else:
        _, masks = _entmax_batch(Zb, gamma)
    return [PredictionSet.from_mask(row) for row in masks]
