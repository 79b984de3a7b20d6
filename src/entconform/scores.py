"""Non-conformity scores for classification from raw label scores.

The rank-gap family measures how far a label sits below the ones ranked
above it: with the scores sorted descending and k(y) the rank of label y,
the score is the delta-norm of the gap vector
``(z_(1) - z_(k(y)), ..., z_(k(y)-1) - z_(k(y)))`` with
``delta = 1/(gamma-1)``.  delta = 1 (gamma = 2) is the plain gap sum tied
to sparsemax, delta = 2 (gamma = 1.5) the Euclidean norm, and the
delta -> infinity limit is the log-margin ``z_(1) - z_y``.  Calibrating a
quantile of these scores is the same thing as picking a temperature for
the matching gamma-entmax transformation.

Baselines: the inverse-probability score ``1 - softmax(z)_y`` and the
regularized adaptive prediction sets (RAPS) score of Angelopoulos et al.
(ICLR 2021), which extends APS (Romano et al., NeurIPS 2020).

All functions are pure; RAPS randomization is injected by the caller
through the ``u`` argument, never drawn from hidden global state.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .activations import _as_logit_rows, _as_logits, descending_order
from .errors import InvalidGamma, InvalidInput, LabelOutOfRange, checked

__all__ = [
    "RapsParams",
    "ScoreKind",
    "all_label_scores",
    "rank_of_label",
    "score_entmax",
    "score_inv_prob",
    "score_log_margin",
    "score_raps",
    "score_sparsemax",
    "true_label_scores",
]

# Row-block size cap for the O(K^2) gap-norm computation, in matrix cells.
_CHUNK_CELLS = 4_000_000


@dataclass(frozen=True)
class RapsParams:
    """Regularization and randomization settings for the RAPS score.

    ``lambda_reg`` penalizes labels ranked beyond ``k_reg``; with
    ``randomized`` the mass of the label's own rank is weighted by a
    uniform draw (seeded by ``rng_seed``), otherwise it counts fully
    (``u = 1``), which reduces to deterministic APS when
    ``lambda_reg = 0``.
    """

    lambda_reg: float
    k_reg: int
    randomized: bool = False
    rng_seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.lambda_reg) or self.lambda_reg < 0.0:
            raise InvalidInput("lambda_reg must be nonnegative")
        if self.k_reg < 1:
            raise InvalidInput("k_reg must be a positive integer")
        if self.rng_seed < 0:
            raise InvalidInput("rng_seed must be nonnegative")


# The fields of each variant in the flat JSON layout of a score kind, with
# their types.  A sweep's report echoes this layout.
_FIELDS = {
    "sparsemax": {},
    "entmax": {"gamma": float},
    "log_margin": {},
    "inv_prob": {},
    "raps": {"lambda_reg": float, "k_reg": int, "randomized": bool, "rng_seed": int},
}
_VARIANTS = tuple(_FIELDS)
# Fields that may be left out: RapsParams supplies their defaults.
_OPTIONAL = ("randomized", "rng_seed")


@dataclass(frozen=True)
class ScoreKind:
    """Tagged choice of non-conformity score.

    ``entmax`` carries a gamma strictly inside (1, 2); the gamma = 2 and
    gamma -> 1 family members are the distinct ``sparsemax`` and
    ``log_margin`` variants so that both endpoints use exact arithmetic.
    """

    variant: str
    gamma: float | None = None
    raps_params: RapsParams | None = None

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise InvalidInput(f"unknown score variant {self.variant!r}")
        if self.variant == "entmax":
            if self.gamma is None or not 1.0 < self.gamma < 2.0:
                raise InvalidGamma(
                    "entmax score kind needs gamma strictly inside (1, 2); "
                    "use the sparsemax / log_margin variants for the endpoints"
                )
        elif self.gamma is not None:
            raise InvalidInput(f"{self.variant} does not take a gamma")
        if self.variant == "raps":
            if self.raps_params is None:
                raise InvalidInput("raps score kind needs RapsParams")
        elif self.raps_params is not None:
            raise InvalidInput(f"{self.variant} does not take RapsParams")

    @classmethod
    def sparsemax(cls) -> "ScoreKind":
        return cls("sparsemax")

    @classmethod
    def entmax(cls, gamma: float) -> "ScoreKind":
        return cls("entmax", gamma=gamma)

    @classmethod
    def log_margin(cls) -> "ScoreKind":
        return cls("log_margin")

    @classmethod
    def inv_prob(cls) -> "ScoreKind":
        return cls("inv_prob")

    @classmethod
    def raps(cls, params: RapsParams) -> "ScoreKind":
        return cls("raps", raps_params=params)

    @staticmethod
    def field_types(variant: str) -> dict:
        """The fields besides ``score`` in the variant's layout, with types."""
        if variant not in _VARIANTS:
            raise InvalidInput(f"unknown score variant {variant!r}")
        return _FIELDS[variant]

    def to_dict(self) -> dict:
        """Flat layout: ``score`` plus the variant's own fields."""
        doc = {"score": self.variant}
        if self.gamma is not None:
            doc["gamma"] = self.gamma
        if self.raps_params is not None:
            doc.update(asdict(self.raps_params))
        return doc

    @classmethod
    def from_dict(cls, doc) -> "ScoreKind":
        """Inverse of :meth:`to_dict`, strict about fields and their types.

        Values are kept as given (a JSON integer ``lambda_reg`` stays an
        integer), so a decoded kind encodes back to the same JSON.
        """
        if not isinstance(doc, dict):
            raise InvalidInput(f"a score kind must be a JSON object, got {doc!r}")
        variant = doc.get("score")
        types = cls.field_types(variant)
        foreign = sorted(set(doc) - {"score"} - set(types))
        missing = sorted(set(types) - set(doc) - set(_OPTIONAL))
        if foreign:
            raise InvalidInput(f"{variant} score does not take {foreign}")
        if missing:
            raise InvalidInput(f"{variant} score needs {missing}")
        values = {k: checked(v, types[k], k) for k, v in doc.items() if k != "score"}
        if variant == "raps":
            return cls.raps(RapsParams(**values))
        return cls(variant, **values)

    def delta_inv(self) -> float | None:
        """1/delta = gamma - 1 for the kinds with a temperature reading."""
        if self.variant == "sparsemax":
            return 1.0
        if self.variant == "entmax":
            return self.gamma - 1.0
        return None


def _check_label(y: int, k: int) -> int:
    y = int(y)
    if not 0 <= y < k:
        raise LabelOutOfRange(f"label {y} outside [0, {k})")
    return y


def rank_of_label(z, y: int) -> int:
    """1-based rank of label ``y`` in the descending-sorted scores.

    Ties are broken by lower original index first, consistently with
    :func:`entconform.activations.descending_order`.
    """
    z = _as_logits(z)
    y = _check_label(y, z.size)
    zy = z[y]
    return int(1 + np.count_nonzero(z > zy) + np.count_nonzero(z[:y] == zy))


def _score_one(z, y: int, kind: ScoreKind, u=None) -> float:
    """One instance's score through the batch path, so both agree bit for bit."""
    z = _as_logits(z)
    return float(true_label_scores(z[None, :], [_check_label(y, z.size)], kind, u=u)[0])


def score_sparsemax(z, y: int) -> float:
    """Sum of score gaps to every label ranked above ``y`` (0 at rank 1)."""
    return _score_one(z, y, ScoreKind.sparsemax())


def score_entmax(z, y: int, gamma: float) -> float:
    """delta-norm of the gap vector, ``delta = 1/(gamma-1)``.

    Requires ``1 < gamma <= 2``; at gamma = 2 it routes through
    :func:`score_sparsemax` so the two agree bit for bit.
    """
    if not np.isfinite(gamma) or not 1.0 < gamma <= 2.0:
        raise InvalidGamma(f"gamma must lie in (1, 2], got {gamma}")
    if gamma == 2.0:
        return score_sparsemax(z, y)
    return _score_one(z, y, ScoreKind.entmax(gamma))


def score_log_margin(z, y: int) -> float:
    """``max(z) - z[y]``: the gap-vector max norm, the delta -> inf limit."""
    return _score_one(z, y, ScoreKind.log_margin())


def score_inv_prob(z, y: int) -> float:
    """One minus the softmax probability of ``y``."""
    return _score_one(z, y, ScoreKind.inv_prob())


def score_raps(z, y: int, params: RapsParams, u: float = 1.0) -> float:
    """RAPS score: softmax mass above ``y`` plus a rank penalty.

    With ``o(y)`` the rank of ``y`` and ``p_(k)`` the sorted softmax
    probabilities, returns
    ``sum_{k < o(y)} p_(k) + u * p_(o(y))
    + lambda_reg * max(0, o(y) - k_reg)``.
    ``u`` is the caller-supplied randomization weight in [0, 1]; 1 gives
    the deterministic variant.
    """
    return _score_one(z, y, ScoreKind.raps(params), u=u)


# ---------------------------------------------------------------------------
# Vectorized scoring.  One stable descending sort per instance is shared by
# every label's score: gap sums come from a running sum (delta = 1) or from a
# masked gap matrix (general delta), so a full K-label score row costs
# O(K) or O(K^2) after the O(K log K) sort.
# ---------------------------------------------------------------------------


def _sorted_rows(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared sort: returns (order, sorted rows, rank position per label)."""
    order = descending_order(Z)
    zs = np.take_along_axis(Z, order, axis=1)
    ranks = np.empty_like(order)
    np.put_along_axis(
        ranks, order, np.broadcast_to(np.arange(Z.shape[1]), Z.shape).copy(), axis=1
    )
    return order, zs, ranks


def _sparsemax_all_sorted(zs: np.ndarray) -> np.ndarray:
    """Gap sums as a running sum of nonnegative steps: rank r+1 adds
    ``(r+1) * (z_(r) - z_(r+1))`` to rank r's sum, so a sorted score row
    never decreases and large common offsets cancel before summing."""
    out = np.zeros_like(zs)
    steps = np.arange(1, zs.shape[1]) * (zs[:, :-1] - zs[:, 1:])
    out[:, 1:] = np.cumsum(steps, axis=1)
    return out


def _gap_norm(gaps: np.ndarray, delta: float) -> np.ndarray:
    """delta-norm along the last axis of gap vectors that lead with their
    largest gap; dividing by it keeps ``gaps**delta`` from overflowing."""
    top = gaps[..., 0]
    ratios = np.divide(
        gaps, top[..., None], out=np.zeros_like(gaps), where=top[..., None] > 0.0
    )
    return top * np.power(np.power(ratios, delta).sum(axis=-1), 1.0 / delta)


def _entmax_at(zs: np.ndarray, r: np.ndarray, delta: float) -> np.ndarray:
    """delta-norm of the gaps above the 0-based ranks ``r`` (shape (n, m) or
    (1, m)) in the sorted rows ``zs`` (n, K); returns shape (n, m).  Every
    gap vector has length K, zero past its rank, so both routes sum alike."""
    zr = np.take_along_axis(zs, r, axis=1)
    above = np.arange(zs.shape[1]) < r[..., None]
    return _gap_norm(np.where(above, zs[:, None, :] - zr[..., None], 0.0), delta)


def _entmax_all_sorted(zs: np.ndarray, delta: float) -> np.ndarray:
    out = np.empty_like(zs)
    k = zs.shape[1]
    block = max(1, _CHUNK_CELLS // (k * k))
    ranks = np.arange(k)[None, :]
    for start in range(0, zs.shape[0], block):
        out[start : start + block] = _entmax_at(zs[start : start + block], ranks, delta)
    return out


def _softmax_rows(Z: np.ndarray) -> np.ndarray:
    e = np.exp(Z - Z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _raps_sorted(Z: np.ndarray, order: np.ndarray, params: RapsParams, u) -> np.ndarray:
    if params.k_reg > Z.shape[1]:
        raise InvalidInput(
            f"k_reg = {params.k_reg} exceeds the number of classes {Z.shape[1]}"
        )
    ps = np.take_along_axis(_softmax_rows(Z), order, axis=1)
    csum = np.cumsum(ps, axis=1)
    penalty = params.lambda_reg * np.maximum(
        0.0, np.arange(1, Z.shape[1] + 1) - params.k_reg
    )
    return (csum - ps) + _resolve_u(Z.shape[0], u).reshape(-1, 1) * ps + penalty


def _resolve_u(n: int, u) -> np.ndarray:
    if u is None:
        u = 1.0
    arr = np.broadcast_to(np.asarray(u, dtype=np.float64), (n,)).copy()
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise InvalidInput("u must lie in [0, 1]")
    return arr


def _rank_order_scores(Z: np.ndarray, kind: ScoreKind, u) -> tuple[np.ndarray, np.ndarray]:
    """``(s, ranks)`` for every kind but inv-prob: ``s[i, r]`` is the score
    of row i's label at 0-based rank r, ``ranks[i, y]`` the rank of label y."""
    order, zs, ranks = _sorted_rows(Z)
    if kind.variant == "raps":
        s = _raps_sorted(Z, order, kind.raps_params, u)
    elif kind.variant == "sparsemax":
        s = _sparsemax_all_sorted(zs)
    elif kind.variant == "log_margin":
        s = zs[:, :1] - zs
    else:
        s = _entmax_all_sorted(zs, 1.0 / (kind.gamma - 1.0))
    return s, ranks


def all_label_scores(Z, kind: ScoreKind, u=None) -> np.ndarray:
    """Score of every (instance, label) pair; shape (n, K).

    ``u`` applies to the RAPS kind only: a scalar or per-instance array of
    randomization weights (default 1, the deterministic variant).
    """
    Z = _as_logit_rows(Z)
    if kind.variant == "inv_prob":
        return 1.0 - _softmax_rows(Z)
    s, ranks = _rank_order_scores(Z, kind, u)
    return np.take_along_axis(s, ranks, axis=1)


def true_label_scores(Z, labels, kind: ScoreKind, u=None) -> np.ndarray:
    """Score of each instance at its own label; shape (n,).

    Each instance's entry is read from the same arithmetic as
    :func:`all_label_scores`, so calibration and the prediction sets agree
    bit for bit: in rank order, before the un-sort, or for the
    general-gamma kind by norming only the instance's own gap vector with
    the same kernel, which avoids the O(K^2) all-label cost.
    """
    Z = _as_logit_rows(Z)
    labels = np.asarray(labels)
    if labels.shape != (Z.shape[0],):
        raise InvalidInput("labels must be a vector matching the instance count")
    if np.any(labels < 0) or np.any(labels >= Z.shape[1]):
        raise LabelOutOfRange("label index outside the class range")
    rows = np.arange(Z.shape[0])
    if kind.variant == "inv_prob":
        return 1.0 - _softmax_rows(Z)[rows, labels]
    if kind.variant == "entmax":
        _, zs, ranks = _sorted_rows(Z)
        ry = ranks[rows, labels][:, None]
        return _entmax_at(zs, ry, 1.0 / (kind.gamma - 1.0))[:, 0]
    s, ranks = _rank_order_scores(Z, kind, u)
    return s[rows, ranks[rows, labels]]
