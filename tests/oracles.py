"""Independent reference computations used to check the library.

Everything here is deliberately written from first principles (exhaustive
enumeration, direct formulas) and shares no code with the package, so a
bug cannot cancel out on both sides of a comparison.  The one exception is
the softmax of :func:`raps_scores_per_row`, which is the package's own so
that the RAPS scores can be held to it bit for bit.
"""

from __future__ import annotations

import csv
import itertools
import math

import numpy as np

from entconform.activations import _softmax_rows
from entconform.errors import InconsistentWidth, InvalidInput, LabelOutOfRange, ParseError


def project_simplex_bruteforce(z: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the simplex by exhaustive support search.

    For every nonempty candidate support S, the minimizer restricted to S
    is z_j - (sum_S z - 1)/|S| on S and 0 elsewhere; keep the feasible
    candidates (nonnegative) and return the one closest to z.
    """
    z = np.asarray(z, dtype=np.float64)
    k = z.size
    best, best_dist = None, np.inf
    for m in range(1, k + 1):
        for support in itertools.combinations(range(k), m):
            idx = list(support)
            tau = (z[idx].sum() - 1.0) / m
            p = np.zeros(k)
            p[idx] = z[idx] - tau
            if np.any(p[idx] < 0.0):
                continue
            dist = np.sum((p - z) ** 2)
            if dist < best_dist:
                best, best_dist = p, dist
    return best


def order_statistic(values, r: int) -> float:
    """r-th smallest value, 1-based, duplicates counted."""
    return float(sorted(values)[r - 1])


def tsallis_entropy(p, gamma: float) -> float:
    """Generalized entropy of order ``gamma`` (Shannon entropy at 1).

    For gamma != 1 this is ``(1 - sum p_j**gamma) / (gamma * (gamma-1))``;
    within 1e-12 of gamma = 1 the Shannon branch is used, with
    ``0 * log 0 := 0``.  ``p`` must lie on the simplex, up to 1e-9 per
    entry and 1e-6 on the sum.
    """
    p = np.asarray(p, dtype=np.float64)
    if not math.isfinite(gamma) or gamma <= 0.0:
        raise InvalidInput(f"gamma must be positive, got {gamma}")
    if np.any(p < -1e-9):
        raise InvalidInput("probabilities must be nonnegative")
    if abs(p.sum() - 1.0) > 1e-6:
        raise InvalidInput("probabilities must sum to one")
    q = np.maximum(p, 0.0)
    if abs(gamma - 1.0) < 1e-12:
        return float(sum(-v * math.log(v) for v in q if v > 0.0))
    return float((1.0 - sum(v**gamma for v in q)) / (gamma * (gamma - 1.0)))


def entmax_objective(p, z, gamma: float) -> float:
    """``p . z + H_gamma(p)``, the quantity gamma-entmax maximizes."""
    p = np.asarray(p, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if p.shape != z.shape:
        raise InvalidInput(f"shape mismatch: {p.shape} vs {z.shape}")
    return float(np.dot(p, z) + tsallis_entropy(p, gamma))


def random_simplex_points(rng: np.random.Generator, k: int, n: int) -> np.ndarray:
    return rng.dirichlet(np.ones(k), size=n)


def gap_vector(z: np.ndarray, y: int) -> np.ndarray:
    """Gaps between each strictly-higher-ranked score and z[y], by brute force."""
    z = np.asarray(z, dtype=np.float64)
    zy = z[y]
    rank = 1 + sum(1 for v in z if v > zy) + sum(1 for j in range(y) if z[j] == zy)
    top = sorted(z, reverse=True)[: rank - 1]
    return np.asarray([v - zy for v in top])


def delta_norm(gaps: np.ndarray, delta: float) -> float:
    """(sum g**delta) ** (1/delta) computed directly."""
    gaps = np.asarray(gaps, dtype=np.float64)
    if gaps.size == 0:
        return 0.0
    return float(np.sum(gaps**delta) ** (1.0 / delta))


def raps_scores_per_row(Z, lambda_reg: float, k_reg: int, u=None) -> np.ndarray:
    """RAPS scores of every label, one row at a time: the row's softmax,
    a stable descending sort (ties by lower index first), the mass of the
    ranks above each label plus ``u`` times its own and the penalty
    ``lambda_reg * max(0, rank - k_reg)`` of its 1-based rank, then the
    un-sort.  ``u`` is None (weight 1) or one weight per row."""
    Z = np.asarray(Z, dtype=np.float64)
    n, k = Z.shape
    out = np.empty((n, k))
    for i, z in enumerate(Z):
        p = _softmax_rows(z[None, :])[0]
        order = np.asarray(sorted(range(k), key=lambda j: (-z[j], j)))
        ps = p[order]
        weight = 1.0 if u is None else u[i]
        penalty = lambda_reg * np.maximum(0.0, np.arange(1, k + 1) - k_reg)
        out[i, order] = (np.cumsum(ps) - ps) + weight * ps + penalty
    return out


def entmax_bisect_every_iteration(Z, gamma: float, tol: float, max_iters: int = 100):
    """gamma-entmax by threshold bisection (Peters, Niculae & Martins 2019),
    an independent reference for the package's Newton threshold: every row
    halves the bracket [-1, 0] of the shifted scores until |sum - 1| <= tol
    or ``max_iters`` is spent, even after its midpoint has rounded onto an
    end of the bracket.  With ``tol=0.0`` and enough halvings to reach the
    smallest subnormal (``max_iters=1100``), every row runs to the point
    where its bracket no longer moves.  It keeps the package's shift
    (``(gamma-1) (z - max z)``) and support rule (a positive ramp, or a tie
    at the row max), so its supports must equal the package's exactly and
    its probabilities within round-off.  Returns ``(probs, tau, support)``,
    ``tau`` in units of ``(gamma-1) z``.
    """
    delta = 1.0 / (gamma - 1.0)
    Z = np.asarray(Z, dtype=np.float64)
    n = Z.shape[0]
    zmax = Z.max(axis=1)
    Xs = (gamma - 1.0) * (Z - zmax[:, None])
    lo, hi = np.full(n, -1.0), np.zeros(n)
    tau = np.full(n, -0.5)
    done = np.zeros(n, dtype=bool)
    for _ in range(max_iters):
        active = np.flatnonzero(~done)
        if active.size == 0:
            break
        mid = 0.5 * (lo[active] + hi[active])
        sums = np.power(np.maximum(Xs[active] - mid[:, None], 0.0), delta).sum(axis=1)
        tau[active] = mid
        done[active[np.abs(sums - 1.0) <= tol]] = True
        go_lo = sums >= 1.0
        lo[active] = np.where(go_lo, mid, lo[active])
        hi[active] = np.where(go_lo, hi[active], mid)
    ramp = Xs - tau[:, None]
    support = (ramp > 0.0) | (Xs == 0.0)
    probs = np.where(support, np.power(np.maximum(ramp, 0.0), delta), 0.0)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs, tau + (gamma - 1.0) * zmax, support


def read_logits_csv_per_row(fh, labeled: bool = False):
    """The CSV parser as it was before row blocks: csv records, ``int()``
    labels and ``float()`` values, one row at a time.  It shares only the
    exception classes with the package, so the block parser can be held to
    its values, labels, error classes, lines and messages.
    """
    reader = csv.reader(fh)
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise ParseError("empty input: missing header", line=1) from None
    offset = 1 if header[:1] == ["label"] else 0
    k = len(header) - offset
    names_ok = header[offset:] == [f"z{i}" for i in range(k)]
    if k < 2 or not names_ok or (labeled and not offset):
        form = "label,z0,...,z{K-1}" if labeled else "[label,]z0,...,z{K-1}"
        raise ParseError(f"header must be {form} with K >= 2, got {header!r}", line=1)
    width = k + offset
    labels: list[int] = []
    rows: list[list[float]] = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != width:
            raise InconsistentWidth(f"expected {width} fields, got {len(row)}", line=lineno)
        if offset:
            try:
                label = int(row[0])
            except ValueError:
                raise ParseError(f"bad label {row[0]!r}", line=lineno) from None
            if not 0 <= label < k:
                raise LabelOutOfRange(f"line {lineno}: label {label} outside [0, {k})")
            labels.append(label)
        try:
            values = [float(v) for v in row[offset:]]
        except ValueError:
            raise ParseError(f"bad score value in {row[offset:]!r}", line=lineno) from None
        if not all(math.isfinite(v) for v in values):
            raise ParseError("non-finite score value", line=lineno)
        rows.append(values)
    logits = np.asarray(rows, dtype=np.float64) if rows else np.empty((0, k))
    return logits, np.asarray(labels, dtype=np.int64) if offset else None
