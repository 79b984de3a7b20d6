"""The gamma-entmax family of simplex transformations.

Maps a score vector z in R^K to a probability vector.  The family
interpolates between softmax (gamma=1, always dense) and sparsemax
(gamma=2, the Euclidean projection onto the simplex, often sparse);
intermediate gamma values are computed by bisection on the normalization
threshold.  For gamma > 1 the output can assign exact zeros, so the set of
positively weighted labels (the support) is meaningful, and multiplying z
by an inverse temperature beta controls how large that support is.

Background: sparsemax is due to Martins & Astudillo (ICML 2016); the
entmax generalization via Tsallis entropies to Peters, Niculae & Martins
(ACL 2019); the entropy family to Tsallis (1988).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidGamma, InvalidInput, NonConvergence

__all__ = [
    "EntmaxConfig",
    "SparseDistribution",
    "descending_order",
    "entmax",
    "entmax_objective",
    "scale",
    "softmax",
    "sparsemax",
    "tsallis_entropy",
]

# Ramp arguments at or below this (relative) level count as zero when
# extracting the support; absorbs round-off in the bisected threshold
# without masking genuinely tiny probabilities (which scale like the
# ramp argument raised to 1/(gamma-1)).
_SUPPORT_EPS = 1e-13

# Bisection stop rule for 1 < gamma < 2; it resolves the threshold far below
# any tolerance used elsewhere in the package.
_BISECT_TOL = 1e-9
_MAX_ITERS = 100


@dataclass(frozen=True)
class EntmaxConfig:
    """The entropic index ``gamma`` of :func:`entmax`, checked to lie in [1, 2]."""

    gamma: float

    def __post_init__(self):
        if not np.isfinite(self.gamma) or not 1.0 <= self.gamma <= 2.0:
            raise InvalidGamma(f"gamma must lie in [1, 2], got {self.gamma}")


@dataclass(frozen=True)
class SparseDistribution:
    """A probability vector together with its support and threshold.

    ``probs[j] > 0`` exactly when ``j`` is listed in ``support``.  ``tau``
    is the normalization threshold: for gamma > 1 the probabilities are
    ``relu((gamma-1)*z - tau) ** (1/(gamma-1))`` (up to a final
    renormalization); for gamma = 1 it is the log-partition, so that
    ``probs = exp(z - tau)``.
    """

    probs: np.ndarray
    support: np.ndarray
    tau: float
    gamma: float

    @property
    def support_size(self) -> int:
        return int(self.support.size)


def _as_logits(z) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1:
        raise InvalidInput(f"expected a 1-D score vector, got shape {z.shape}")
    if z.size < 2:
        raise InvalidInput("need at least two classes")
    if not np.all(np.isfinite(z)):
        raise InvalidInput("scores must be finite")
    return z


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

    This single ordering is shared by every sort in the package so that
    tie-breaking is consistent between activations and scores.
    """
    return np.argsort(-z, axis=-1, kind="stable")


def scale(z, beta: float) -> np.ndarray:
    """Multiply scores by an inverse temperature ``beta >= 0``.

    ``beta = 0`` is legal and yields the all-zeros vector (the uniform
    limit of any member of the family).
    """
    z = _as_logits(z)
    if not np.isfinite(beta) or beta < 0.0:
        raise InvalidInput(f"beta must be finite and nonnegative, got {beta}")
    return beta * z


def softmax(z) -> SparseDistribution:
    """Dense exponential normalization, stabilized by max subtraction."""
    z = _as_logits(z)
    zmax = z.max()
    e = np.exp(z - zmax)
    total = e.sum()
    probs = e / total
    tau = float(np.log(total) + zmax)
    return SparseDistribution(probs=probs, support=np.arange(z.size), tau=tau, gamma=1.0)


def _sparsemax_batch(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise simplex projection via the sort-and-threshold algorithm.

    Returns ``(probs, tau)``.  Each row: sort descending, find the largest
    j with ``1 + j*z_(j) > sum_{k<=j} z_(k)``, set
    ``tau = (sum of the top j entries - 1) / j`` and clip ``z - tau`` at 0.
    """
    n, k = Z.shape
    Zs = -np.sort(-Z, axis=1)
    cssv = np.cumsum(Zs, axis=1)
    idx = np.arange(1, k + 1, dtype=np.float64)
    keep = 1.0 + idx * Zs > cssv
    ks = np.count_nonzero(keep, axis=1)
    tau = (cssv[np.arange(n), ks - 1] - 1.0) / ks
    probs = np.maximum(Z - tau[:, None], 0.0)
    return probs, tau


def sparsemax(z) -> SparseDistribution:
    """Euclidean projection of ``z`` onto the probability simplex.

    Produces exact zeros outside the support; equals gamma-entmax at
    gamma = 2 in closed form.
    """
    z = _as_logits(z)
    probs, tau = _sparsemax_batch(z[None, :])
    probs = probs[0]
    return SparseDistribution(
        probs=probs,
        support=np.flatnonzero(probs > 0.0),
        tau=float(tau[0]),
        gamma=2.0,
    )


def _entmax_bisect_batch(
    Z: np.ndarray, gamma: float, bisect_tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise gamma-entmax for 1 < gamma < 2 by threshold bisection.

    Solves ``sum_j relu((gamma-1) z_j - tau) ** (1/(gamma-1)) = 1`` per
    row.  The bracket is ``[(gamma-1) max(z) - 1, (gamma-1) max(z)]``: the
    lower end makes the sum at least 1 (the top term alone contributes 1),
    the upper end gives sum 0.  Rows stop once |sum - 1| <= bisect_tol, or
    after ``_MAX_ITERS`` halvings.  Residual mass is renormalized over the
    support.

    Returns ``(probs, tau, support_mask)``.
    """
    delta = 1.0 / (gamma - 1.0)
    X = (gamma - 1.0) * Z
    n = X.shape[0]

    xmax = X.max(axis=1)
    lo = xmax - 1.0
    hi = xmax.copy()
    tau = 0.5 * (lo + hi)
    done = np.zeros(n, dtype=bool)
    exhausted_sum = np.ones(n)

    for _ in range(_MAX_ITERS):
        active = np.flatnonzero(~done)
        if active.size == 0:
            break
        mid = 0.5 * (lo[active] + hi[active])
        sums = np.power(np.maximum(X[active] - mid[:, None], 0.0), delta).sum(axis=1)
        hit = np.abs(sums - 1.0) <= bisect_tol
        tau[active] = mid
        exhausted_sum[active] = sums
        done[active[hit]] = True
        go_lo = sums >= 1.0
        lo[active] = np.where(go_lo, mid, lo[active])
        hi[active] = np.where(go_lo, hi[active], mid)

    if not done.all():
        bad = np.abs(exhausted_sum[~done] - 1.0) > 1e-4
        if bad.any():
            raise NonConvergence(
                f"bisection exhausted {_MAX_ITERS} iterations with "
                f"|sum - 1| = {np.abs(exhausted_sum[~done][bad] - 1.0).max():.3e}"
            )

    ramp = X - tau[:, None]
    eps = _SUPPORT_EPS * np.maximum(1.0, np.abs(X).max(axis=1))
    support = ramp > eps[:, None]
    support[np.arange(n), X.argmax(axis=1)] = True
    probs = np.where(support, np.power(np.maximum(ramp, 0.0), delta), 0.0)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs, tau, support


def entmax(z, cfg: EntmaxConfig) -> SparseDistribution:
    """gamma-entmax transformation of a score vector.

    Delegates to :func:`softmax` at gamma = 1 and to :func:`sparsemax` at
    gamma = 2; otherwise bisects the normalization threshold (see
    :func:`_entmax_bisect_batch`).

    Parameters
    ----------
    z : array-like, shape (K,)
        Label scores.
    cfg : EntmaxConfig
        Entropic index.
    """
    z = _as_logits(z)
    if cfg.gamma == 1.0:
        return softmax(z)
    if cfg.gamma == 2.0:
        return sparsemax(z)
    probs, tau, support = _entmax_bisect_batch(z[None, :], cfg.gamma, _BISECT_TOL)
    return SparseDistribution(
        probs=probs[0],
        support=np.flatnonzero(support[0]),
        tau=float(tau[0]),
        gamma=cfg.gamma,
    )


def tsallis_entropy(p, gamma: float) -> float:
    """Generalized entropy of order ``gamma`` (Shannon entropy at 1).

    For gamma != 1 this is ``(1 - sum p_j**gamma) / (gamma * (gamma-1))``;
    within 1e-12 of gamma = 1 the Shannon branch is used, with
    ``0 * log 0 := 0``.
    """
    p = np.asarray(p, dtype=np.float64)
    if not np.isfinite(gamma) or gamma <= 0.0:
        raise InvalidInput(f"gamma must be positive, got {gamma}")
    if np.any(p < -1e-9):
        raise InvalidInput("probabilities must be nonnegative")
    if abs(p.sum() - 1.0) > 1e-6:
        raise InvalidInput("probabilities must sum to one")
    q = np.maximum(p, 0.0)
    if abs(gamma - 1.0) < 1e-12:
        nz = q[q > 0.0]
        return float(-(nz * np.log(nz)).sum())
    return float((1.0 - np.power(q, gamma).sum()) / (gamma * (gamma - 1.0)))


def entmax_objective(p, z, gamma: float) -> float:
    """Value of ``p . z + H_gamma(p)``, the quantity gamma-entmax maximizes."""
    p = np.asarray(p, dtype=np.float64)
    z = _as_logits(z)
    if p.shape != z.shape:
        raise InvalidInput(f"shape mismatch: {p.shape} vs {z.shape}")
    return float(p @ z + tsallis_entropy(p, gamma))
