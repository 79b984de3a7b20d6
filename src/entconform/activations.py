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
    "softmax",
    "sparsemax",
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

    Solves ``sum_j relu(x_j - t) ** (1/(gamma-1)) = 1`` per row for the
    shifted scores ``x = (gamma-1) z - (gamma-1) max(z)``, whose maximum is
    0.  The bracket is ``[-1, 0]``, exact at any magnitude of z: the lower
    end makes the sum at least 1 (the top term alone contributes 1), the
    upper end gives sum 0.  A row stops once |sum - 1| <= bisect_tol, or
    once a halving leaves its bracket unchanged (the midpoint rounds to an
    end, so every later step would repeat it), or after ``_MAX_ITERS``
    halvings.  Residual mass is renormalized over the support.

    Returns ``(probs, tau, support_mask)`` with ``tau = t + (gamma-1) max(z)``,
    the threshold on ``(gamma-1) z``.
    """
    delta = 1.0 / (gamma - 1.0)
    X = (gamma - 1.0) * Z
    n = X.shape[0]

    xmax = X.max(axis=1)
    Xs = X - xmax[:, None]
    lo = np.full(n, -1.0)
    hi = np.zeros(n)
    tau = np.full(n, -0.5)
    converged = np.zeros(n, dtype=bool)
    stopped = np.zeros(n, dtype=bool)
    last_sum = np.ones(n)

    for _ in range(_MAX_ITERS):
        active = np.flatnonzero(~stopped)
        if active.size == 0:
            break
        lo_a, hi_a = lo[active], hi[active]
        mid = 0.5 * (lo_a + hi_a)
        sums = np.power(np.maximum(Xs[active] - mid[:, None], 0.0), delta).sum(axis=1)
        hit = np.abs(sums - 1.0) <= bisect_tol
        tau[active] = mid
        last_sum[active] = sums
        converged[active] = hit
        go_lo = sums >= 1.0
        lo[active] = np.where(go_lo, mid, lo_a)
        hi[active] = np.where(go_lo, hi_a, mid)
        frozen = np.where(go_lo, mid == lo_a, mid == hi_a)
        stopped[active] = hit | frozen

    if not converged.all():
        bad = np.abs(last_sum[~converged] - 1.0) > 1e-4
        if bad.any():
            raise NonConvergence(
                f"bisection stopped within {_MAX_ITERS} iterations with "
                f"|sum - 1| = {np.abs(last_sum[~converged][bad] - 1.0).max():.3e}"
            )

    ramp = Xs - tau[:, None]
    eps = _SUPPORT_EPS * np.maximum(1.0, np.abs(X).max(axis=1))
    support = ramp > eps[:, None]
    support[np.arange(n), X.argmax(axis=1)] = True
    probs = np.where(support, np.power(np.maximum(ramp, 0.0), delta), 0.0)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs, tau + xmax, support


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
