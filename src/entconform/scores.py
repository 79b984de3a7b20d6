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
from functools import cached_property

import numpy as np

from .activations import _as_logit_rows, _softmax_rows, descending_order
from .errors import InvalidGamma, InvalidInput, LabelOutOfRange, checked

__all__ = [
    "RapsParams",
    "ScoreKind",
    "all_label_scores",
    "true_label_scores",
]

# Row-block size cap, in cells: rows * K for each block of sorted rows and
# rows * K * K for the gap matrices of the full entmax score rows.  It bounds
# the largest float temporary a block holds to 8 MB, whatever n is (for the
# full entmax rows while K <= 1024, since a block holds at least one row).
_CHUNK_CELLS = 1 << 20


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
        lambda_reg = checked(self.lambda_reg, float, "lambda_reg")
        if not np.isfinite(lambda_reg) or lambda_reg < 0.0:
            raise InvalidInput("lambda_reg must be nonnegative")
        if checked(self.k_reg, int, "k_reg") < 1:
            raise InvalidInput("k_reg must be a positive integer")
        checked(self.randomized, bool, "randomized")
        if checked(self.rng_seed, int, "rng_seed") < 0:
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
            if self.gamma is None or not 1.0 < checked(self.gamma, float, "gamma") < 2.0:
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


def _as_labels(labels) -> np.ndarray:
    """``labels`` as int64, or :class:`LabelOutOfRange` if one is not a
    whole number (a float such as ``1.0`` passes; ``0.5`` and NaN do not)."""
    arr = np.asarray(labels)
    if arr.dtype.kind not in "biuf" or not np.all(np.isfinite(arr) & (arr == np.trunc(arr))):
        raise LabelOutOfRange("labels must be whole numbers")
    return arr.astype(np.int64, copy=False)


# ---------------------------------------------------------------------------
# Vectorized scoring.  One stable descending sort per instance is shared by
# every label's score: gap sums come from a running sum (delta = 1) or from a
# masked gap matrix (general delta), so a full K-label score row costs
# O(K) or O(K^2) after the O(K log K) sort.  A general-delta prediction set
# needs only its size s, found by a galloping search whose probes norm only
# the gaps of the ranks they reach: O(s log s) per row after the sort (see
# :func:`_entmax_prefix`).  A RAPS row is the view's prefix mass (the
# running sum of its rank-order softmax, built once per view) plus the
# weighted mass of each rank and its penalty, so no RAPS kind sums a row of
# its own, and calibration reads each row at its label's rank only.
#
# The sort is kept in a :class:`_SortedRows` view: the sort's arrays plus the
# rows the view covers.  A sweep sorts its input once; every part of every
# split, a tuning part too, is row indices into that one sort, and every
# method, alpha and grid point is scored from it.  A view is itself a batch
# for :func:`true_label_scores` and :func:`entconform.conformal.set_masks`,
# one whose columns are ranks; an array is sorted one row block at a time
# (:func:`_view_blocks`) and each block's view scored with the same functions.
# ---------------------------------------------------------------------------


def _row_blocks(n: int, k: int):
    """Slices of at most ``_CHUNK_CELLS // k`` rows covering ``range(n)``."""
    block = max(1, _CHUNK_CELLS // k)
    for start in range(0, n, block):
        yield slice(start, start + block)


class _SortedRows:
    """Rows ``idx`` of one sort, for every score and set read from them.

    ``Z`` (the rows in label order), ``order`` (each row's stable
    descending order, in the narrowest integer type that holds K: int16
    up to 32767) and ``all_ranks`` (each row's 0-based rank of its label,
    when labels were given) are the arrays of the one :func:`_sort_rows`
    call, shared by every view of it; ``rank`` holds the ranks of this
    view's rows, and ``shape`` is ``(n, K)``, as for a batch of rows.  The
    rows in rank order (:attr:`zs`), their softmax (:attr:`probs`) and its
    prefix mass (:attr:`below`, for RAPS) are derived on first use, in row
    blocks, and kept.  ``scores`` keeps each calibrated kind's
    true-label scores (see :func:`entconform.conformal.calibrate`), one
    n-vector per kind, so that every alpha reads one score vector.
    """

    def __init__(self, Z, order, all_ranks, idx):
        self.Z, self.order, self.all_ranks, self.idx = Z, order, all_ranks, idx
        self.rank = None if all_ranks is None else all_ranks[idx]
        self.n, self.num_classes = idx.size, order.shape[1]
        self.shape = (self.n, self.num_classes)
        self.scores: dict = {}

    @cached_property
    def zs(self) -> np.ndarray:
        """The rows in rank order, gathered on first use and kept."""
        return self._in_rank_order(lambda Z: Z)

    @cached_property
    def probs(self) -> np.ndarray:
        """The softmax of each row in rank order, computed on first use and
        kept.  It is normalized in label order, as a sort-free softmax is,
        so every score read from it keeps its bits."""
        return self._in_rank_order(_softmax_rows)

    @cached_property
    def below(self) -> np.ndarray:
        """Each rank's prefix mass, ``cumsum(probs) - probs``: the softmax
        of the ranks above it, summed down the row.  Built in row blocks,
        so the cumulative sum stays block-sized, and read by every RAPS
        kind and alpha."""
        out = np.empty(self.shape)
        for rows in _row_blocks(*self.shape):
            ps = self.probs[rows]
            out[rows] = np.cumsum(ps, axis=1) - ps
        return out

    def _in_rank_order(self, rowwise) -> np.ndarray:
        """``rowwise`` of the rows in label order, put in rank order, built
        in row blocks."""
        out = np.empty((self.n, self.num_classes))
        for rows in _row_blocks(self.n, self.num_classes):
            at = self.idx[rows]
            out[rows] = np.take_along_axis(rowwise(self.Z[at]), self.order[at], axis=1)
        return out

    def subset(self, idx) -> "_SortedRows":
        """The view of rows ``idx`` of this one, indexing the same sort and
        never sorted again; a dataset's :meth:`subset` for a view."""
        return _SortedRows(self.Z, self.order, self.all_ranks, self.idx[idx])


def _sort_rows(Z: np.ndarray, labels=None) -> _SortedRows:
    """The one sort of every score: the view of all of ``Z``'s rows, sorted
    in row blocks with ``descending_order`` so that the sort's temporaries
    stay block-sized."""
    n, k = Z.shape
    order = np.empty((n, k), dtype=np.int16 if k <= np.iinfo(np.int16).max else np.int32)
    rank = None if labels is None else np.empty(n, dtype=np.intp)
    for rows in _row_blocks(n, k):
        order[rows] = descending_order(Z[rows])
        if rank is not None:
            rank[rows] = np.argmax(order[rows] == labels[rows, None], axis=1)
    return _SortedRows(Z, order, rank, np.arange(n))


def _as_batch(Z):
    """A sorted view as it is; anything else as checked logit rows."""
    return Z if isinstance(Z, _SortedRows) else _as_logit_rows(Z)


def _view_blocks(Z, labels=None):
    """``(rows, view, at)`` for each row block of a batch: the batch's
    ``rows`` are the rows ``at`` of ``view``.  A view's blocks are its own
    rows; an array is sorted one block at a time, with the block's
    ``labels`` (for their ranks) when they are given."""
    for rows in _row_blocks(*Z.shape):
        if isinstance(Z, _SortedRows):
            yield rows, Z, rows
        else:
            yield rows, _sort_rows(Z[rows], None if labels is None else labels[rows]), slice(None)


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
    (1, m)) in the sorted rows ``zs`` (n, w), w > every rank in ``r``;
    returns shape (n, m).  Every gap vector has length w, zero past its
    rank.  Calibration and the full rows pass all K columns, so both sum
    alike; the rank search passes fewer (see :func:`_entmax_prefix`)."""
    zr = np.take_along_axis(zs, r, axis=1)
    above = np.arange(zs.shape[1]) < r[..., None]
    return _gap_norm(np.where(above, zs[:, None, :] - zr[..., None], 0.0), delta)


def _entmax_all_sorted(zs: np.ndarray, delta: float) -> np.ndarray:
    out = np.empty_like(zs)
    n, k = zs.shape
    ranks = np.arange(k)[None, :]
    for rows in _row_blocks(n, k * k):
        out[rows] = _entmax_at(zs[rows], ranks, delta)
    return out


def _kernel_eps(k: int) -> float:
    """Relative error bound of :func:`_entmax_at` against the exact delta-norm.

    With u = 2**-53, round-to-nearest, and gaps g_j of the (exact) sorted
    logits, each step of the kernel contributes a relative factor:

    - gap ``z_(j) - z_(r)``: u; the ratio to the top gap: 2u more, so each
      ratio is within (1 + 3u) of exact (the top ratio is exactly 1);
    - ``ratio**delta``: the ratio's error raised to delta, times 2u for
      ``pow`` (within one ulp);
    - the sum of K nonnegative terms, in any order: (K - 1) u.  The top
      term is 1, so terms that underflow shift the sum by at most
      K * 2**-1074, far below u;
    - the root ``**(1/delta)``: it takes the delta-th root of the factors
      so far, which undoes the raised ratio error (back to 3u) and, since
      delta > 1, shrinks the others; 2u for ``pow``, and ``1/delta``'s own
      rounding adds u * ln K;
    - the product with the top gap: 2u (the gap's and the product's).

    To first order that is (K + 8 + ln K) u.  The bound doubles it, with
    ln K rounded up to 56: the slack covers second-order terms and the
    rounding of the certificate's own products.  It holds while the top
    gap is 0 or a normal number and nothing overflows, which
    :func:`_entmax_prefix` checks through ``q``.  A probe of the first w
    sorted columns only (w <= K) sums w terms, so its bound (w + 64) *
    2**-52 is at most this one, and the search certifies its truncated
    probes with the bound of the full row.
    """
    return (k + 64) * 2.0**-52


def _entmax_prefix(zs: np.ndarray, delta: float, q: float) -> np.ndarray:
    """``score <= q`` in rank order for sorted rows ``zs`` (n, K), equal bit
    for bit to ``_entmax_all_sorted(zs, delta) <= q``.

    The exact delta-norm N(r) of the gaps above rank r never decreases in
    r, so a row's set is a prefix of its ranks.  A galloping search
    (Bentley & Yao 1976) finds its size s: each row probes ranks 1, 2, 4,
    ... (at most K - 1) until a probe scores above q, then bisects inside
    that bracket.  A row is probed no more once its bracket closes, and a
    probe norms only the first w sorted columns, w the largest rank probed
    among the rows still searching plus 1.  No row probes past rank
    2 s - 1, so with s_max the largest size found in the block a row costs
    O(s_max log s_max), not O(K log K).  The search keeps the last score at
    most q, ``lo = score(s - 1)``, and the first above it, ``hi =
    score(s)`` (+inf when s = K).  With eps from :func:`_kernel_eps` the
    row is certain when ``lo (1+eps) <= q (1-eps)`` and ``hi (1-eps) > q
    (1+eps)``: then every rank below s scores at most
    ``(1+eps) N(s-1) <= q`` and every rank from s on scores more than q,
    wherever the rounding of the probes led the search.  Zero scores are
    exact (the top gap is 0 exactly when the exact one is), so q = 0 is
    certain too.  For 0 < q < K * 2**-1020, where a top gap below the
    normal range would break the bound, and for q > 2**1000, where gaps
    may overflow, no row is.  A row that is not certain, in practice one
    with a score within about K * 2**-52 of q, is scored in full.
    """
    n, k = zs.shape
    lo = np.ones(n, dtype=np.intp)  # rank 0 scores 0 <= q
    hi = np.full(n, k, dtype=np.intp)
    s_lo = np.zeros(n)
    s_hi = np.full(n, np.inf)
    while (live := np.flatnonzero(lo < hi)).size:
        l, h = lo[live], hi[live]
        # gallop while no probe has scored above q (hi is still K)
        r = np.where(h == k, np.minimum(np.maximum(2 * l - 2, 1), k - 1), (l + h) // 2)
        s = _entmax_at(zs[live, : r.max() + 1], r[:, None], delta)[:, 0]
        inside = s <= q
        up, down = live[inside], live[~inside]
        lo[up], s_lo[up] = r[inside] + 1, s[inside]
        hi[down], s_hi[down] = r[~inside], s[~inside]
    eps = _kernel_eps(k)
    in_range = q == 0.0 or k * 2.0**-1020 <= q <= 2.0**1000
    certain = (
        in_range
        & (s_lo * (1.0 + eps) <= q * (1.0 - eps))
        & (s_hi * (1.0 - eps) > q * (1.0 + eps))
    )
    prefix = np.arange(k) < lo[:, None]
    if not certain.all():
        prefix[~certain] = _entmax_all_sorted(zs[~certain], delta) <= q
    return prefix


def _raps_sorted(view: _SortedRows, rows: slice, params: RapsParams, u, at=None):
    """RAPS scores in rank order of the view's ``rows``, from its prefix
    mass and softmax: ``below + u * probs + penalty``, where the penalty of
    the 0-based rank r is ``lambda_reg * max(0, r + 1 - k_reg)``.  With
    ``at`` only the ranks ``at`` of each row are read, and every entry
    keeps the bits of the full row's."""
    if params.k_reg > view.num_classes:
        raise InvalidInput(
            f"k_reg = {params.k_reg} exceeds the number of classes {view.num_classes}"
        )
    below, ps, r = view.below[rows], view.probs[rows], np.arange(view.num_classes)
    if at is not None:
        below, ps = np.take_along_axis(below, at, axis=1), np.take_along_axis(ps, at, axis=1)
        r = at
    penalty = params.lambda_reg * np.maximum(0.0, (r + 1) - params.k_reg)
    return below + u[:, None] * ps + penalty


def _resolve_u(n: int, u) -> np.ndarray:
    """The RAPS weights of n rows from ``u``: None (every weight 1), a
    scalar or an n-vector, with every weight in [0, 1]."""
    message = f"u must be a scalar or a vector of {n} weights in [0, 1]"
    try:
        arr = np.asarray(1.0 if u is None else u, dtype=np.float64)
    except (TypeError, ValueError) as err:
        raise InvalidInput(message) from err
    if arr.ndim == 0:
        arr = np.full(n, arr)
    if arr.shape != (n,) or not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise InvalidInput(message)
    return arr


def _rank_order_scores(view: _SortedRows, rows: slice, kind: ScoreKind, u, at=None):
    """Scores in rank order of the view's ``rows``: ``s[i, j]`` is the score
    of row i's label at the 0-based rank ``at[i, j]`` (at every rank when
    ``at`` is None).  ``u`` holds the RAPS weights of those rows."""
    if kind.variant == "entmax":
        zs, delta = view.zs[rows], 1.0 / (kind.gamma - 1.0)
        return _entmax_all_sorted(zs, delta) if at is None else _entmax_at(zs, at, delta)
    if kind.variant == "raps":
        return _raps_sorted(view, rows, kind.raps_params, u, at)
    if kind.variant == "inv_prob":
        s = 1.0 - view.probs[rows]
    elif kind.variant == "sparsemax":
        s = _sparsemax_all_sorted(view.zs[rows])
    else:
        s = view.zs[rows, :1] - view.zs[rows]
    return s if at is None else np.take_along_axis(s, at, axis=1)


def all_label_scores(Z, kind: ScoreKind, u=None) -> np.ndarray:
    """Score of every (instance, label) pair; shape (n, K).

    ``u`` is used by the RAPS kind only: a scalar or per-instance array of
    randomization weights in [0, 1] (default 1, the deterministic
    variant).  Every kind rejects any other ``u``.
    """
    Z = _as_logit_rows(Z)
    checked(kind, ScoreKind, "kind")
    u = _resolve_u(Z.shape[0], u)
    out = np.empty(Z.shape)
    for rows, view, at in _view_blocks(Z):
        s = _rank_order_scores(view, at, kind, u[rows])
        np.put_along_axis(out[rows], view.order, s, axis=1)
    return out


def true_label_scores(Z, labels, kind: ScoreKind, u=None) -> np.ndarray:
    """Score of each instance at its own label; shape (n,).

    Each instance's entry is read from the same arithmetic as
    :func:`all_label_scores`, so calibration and the prediction sets agree
    bit for bit: in rank order, before the un-sort, or for the
    general-gamma kind by norming only the instance's own gap vector with
    the same kernel, which avoids the O(K^2) all-label cost.  ``u`` is
    checked as in :func:`all_label_scores`, for every kind.  ``Z`` may
    also be a sorted view (:class:`_SortedRows`), a batch whose columns
    are ranks: ``labels`` are then ranks, ``view.rank`` for each row's own
    label.
    """
    Z = _as_batch(Z)
    checked(kind, ScoreKind, "kind")
    labels = _as_labels(labels)
    n, k = Z.shape
    if labels.shape != (n,):
        raise InvalidInput("labels must be a vector matching the instance count")
    if np.any(labels < 0) or np.any(labels >= k):
        raise LabelOutOfRange("label index outside the class range")
    u = _resolve_u(n, u)
    out = np.empty(n)
    for rows, view, at in _view_blocks(Z, labels):
        ranks = labels[rows] if view is Z else view.rank
        out[rows] = _rank_order_scores(view, at, kind, u[rows], ranks[:, None])[:, 0]
    return out
