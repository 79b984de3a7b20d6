"""The gamma-entmax family of simplex transformations, one batch of rows at a time.

Maps each row z in R^K of a score array to a probability vector.  The
family interpolates between softmax (gamma=1, always dense) and sparsemax
(gamma=2, the Euclidean projection onto the simplex, often sparse);
intermediate gamma values are computed by Newton's method on the
normalization threshold.  For gamma > 1 the output can assign exact zeros,
so the set of positively weighted labels (the support) is meaningful, and
multiplying z by an inverse temperature beta controls how large that
support is.

Background: sparsemax is due to Martins & Astudillo (ICML 2016); the
entmax generalization via Tsallis entropies to Peters, Niculae & Martins
(ACL 2019); the entropy family to Tsallis (1988).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidGamma, InvalidInput, NonConvergence, checked

__all__ = ["descending_order", "entmax"]

# Ramp arguments at or below this (relative) level count as zero when
# extracting the support; absorbs round-off in the computed threshold
# without masking genuinely tiny probabilities (which scale like the
# ramp argument raised to 1/(gamma-1)).
_SUPPORT_EPS = 1e-13

# Newton steps per row for 1 < gamma < 2; rows converge in far fewer.
_MAX_ITERS = 100


def _as_logit_rows(Z) -> np.ndarray:
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2:
        raise InvalidInput(f"expected a 2-D score array, got shape {Z.shape}")
    if Z.shape[1] < 2:
        raise InvalidInput("need at least two classes")
    if not np.all(np.isfinite(Z)):
        raise InvalidInput("scores must be finite")
    return Z


def descending_order(z: np.ndarray) -> np.ndarray:
    """Indices sorting ``z`` descending along its last axis, ties by lower index first.

    Every label's rank in the package comes from this one ordering, so ties
    are broken alike wherever a rank matters.  :func:`_sparsemax_batch`
    sorts values alone, with ``np.sort``: the order of tied values does not
    change its result.
    """
    return np.argsort(-z, axis=-1, kind="stable")


def _softmax_rows(Z: np.ndarray) -> np.ndarray:
    """Row-wise exponential normalization, stabilized by max subtraction."""
    e = np.exp(Z - Z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _sparsemax_batch(Z: np.ndarray) -> np.ndarray:
    """Row-wise simplex projection via the sort-and-threshold algorithm.

    Works on the shifted scores ``x = z - max(z)``, as :func:`_softmax_rows`
    and :func:`_entmax_batch` do, so that no sum rounds away the 1 of the
    threshold test at large magnitudes.  Each row: sort descending, find
    the largest j with ``1 + j*x_(j) > sum_{k<=j} x_(k)``, set ``tau =
    (sum of the top j entries - 1) / j`` and clip ``x - tau`` at 0.
    """
    n, k = Z.shape
    X = Z - Z.max(axis=1, keepdims=True)
    Xs = -np.sort(-X, axis=1)
    cssv = np.cumsum(Xs, axis=1)
    idx = np.arange(1, k + 1, dtype=np.float64)
    keep = 1.0 + idx * Xs > cssv
    ks = np.count_nonzero(keep, axis=1)
    tau = (cssv[np.arange(n), ks - 1] - 1.0) / ks
    return np.maximum(X - tau[:, None], 0.0)


def _entmax_batch(Z: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise gamma-entmax for 1 < gamma < 2 by Newton's method on the threshold.

    Solves ``f(t) = sum_j relu(x_j - t) ** delta - 1 = 0``, ``delta =
    1/(gamma-1)``, per row for the shifted scores ``x = (gamma-1) z -
    (gamma-1) max(z)``, whose maximum is 0.  f is convex and decreasing in
    t, and ``f(-1) >= 0`` at any magnitude of z (the top term alone
    contributes 1), so Newton's iterates from ``t = -1`` rise to the root
    without passing it.  A row stops once ``f(t) <= 0`` or once a step no
    longer raises t; a row still moving after ``_MAX_ITERS`` steps raises
    :class:`NonConvergence` if ``|f(t)| > 1e-4``.  Residual mass is
    renormalized over the support.

    Returns ``(probs, support_mask)``.
    """
    delta = 1.0 / (gamma - 1.0)
    X = (gamma - 1.0) * Z
    n = X.shape[0]

    Xs = X - X.max(axis=1, keepdims=True)
    t = np.full(n, -1.0)
    live = np.arange(n)
    for _ in range(_MAX_ITERS):
        ramp = np.maximum(Xs[live] - t[live, None], 0.0)
        slope = np.power(ramp, delta - 1.0)
        f = (slope * ramp).sum(axis=1) - 1.0
        t_next = t[live] + f / (delta * slope.sum(axis=1))
        moving = (f > 0.0) & (t_next > t[live])
        live = live[moving]
        t[live] = t_next[moving]
        if live.size == 0:
            break
    else:
        f = np.power(np.maximum(Xs[live] - t[live, None], 0.0), delta).sum(axis=1) - 1.0
        if np.any(np.abs(f) > 1e-4):
            raise NonConvergence(
                f"Newton's method did not settle within {_MAX_ITERS} steps: "
                f"|sum - 1| = {np.abs(f).max():.3e}"
            )

    ramp = Xs - t[:, None]
    eps = _SUPPORT_EPS * np.maximum(1.0, np.abs(X).max(axis=1))
    support = ramp > eps[:, None]
    support[np.arange(n), X.argmax(axis=1)] = True
    probs = np.where(support, np.power(np.maximum(ramp, 0.0), delta), 0.0)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs, support


def entmax(Z, gamma: float) -> np.ndarray:
    """gamma-entmax of every row of ``Z``; shape (n, K).

    ``Z`` is an (n, K) array of finite label scores with K >= 2, and
    ``gamma`` lies in [1, 2]: softmax at gamma = 1, sparsemax at gamma = 2
    (:func:`_sparsemax_batch`), and a Newton threshold in between
    (:func:`_entmax_batch`, run until a step no longer raises it: no
    tolerance is involved).
    Rows are transformed independently: a row's probabilities do not
    depend on the other rows of the batch.  One row ``z`` is the batch
    ``z[None]``, and its support is ``np.flatnonzero(p > 0)``.
    """
    Z = _as_logit_rows(Z)
    gamma = checked(gamma, float, "gamma")
    if not np.isfinite(gamma) or not 1.0 <= gamma <= 2.0:
        raise InvalidGamma(f"gamma must lie in [1, 2], got {gamma}")
    if gamma == 1.0:
        return _softmax_rows(Z)
    if gamma == 2.0:
        return _sparsemax_batch(Z)
    return _entmax_batch(Z, gamma)[0]
