"""Lagged cross-covariance over all circular lags, scoring, and TopK selection.

Two routes build the T x d x d stack of per-lag matrices M_l =
roll(K, l)^T Q: a naive O(d^2 T^2) sliding-window product (the oracle) and
an FFT route in O(d^2 T log T). ``lag_mass`` reduces either stack to the
absolute diagonal (auto-correlation) and off-diagonal (cross-feature) mass
of each M_l, scores mix the two with a convex weight, and TopK picks the
best lags in [1, T-1] deterministically. ``select_lags`` returns the stack
beside the lags, so correlated attention reads its score matrices from it.
Q and K may be stacks of H heads (H x T x d): every stack and score then
gains a leading head axis, and each head picks its own lags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import DegenerateSeriesError, ParameterError, ShapeError, as_matrix


@dataclass
class LagScoreVector:
    diag_scores: np.ndarray      # length T (per head), sum_i |M_l(i,i)|
    nondiag_scores: np.ndarray   # length T (per head), sum_{i != j} |M_l(i,j)|
    combined: np.ndarray         # lam * diag + (1 - lam) * nondiag


@dataclass
class LagSelection:
    table: np.ndarray    # k distinct lags in [1, T-1] (per head), best first

    @property
    def lags(self) -> list:
        """Every lag as an int, head after head."""
        return self.table.ravel().tolist()


def _check_pair(q: np.ndarray, k: np.ndarray):
    q, k = as_matrix(q), as_matrix(k)
    if q.shape != k.shape:
        raise ShapeError(f"query/key shape mismatch: {q.shape} vs {k.shape}")
    return q, k


def xcorr_all_lags_naive(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Ground-truth stack: out[l] = roll(k, l)^T q for every l in [0, T-1].

    Direct time-domain evaluation in O(d^2 T^2): each key column is unrolled
    into its T circular shifts (windows of the doubled column) and multiplied
    against q. No spectral tricks; this is the oracle for the FFT route. A
    head stack gives one T x d x d stack per head.
    """
    q, k = _check_pair(q, k)
    if q.ndim > 2:
        return np.stack([xcorr_all_lags_naive(qi, ki) for qi, ki in zip(q, k)])
    t, d = q.shape
    kk = np.concatenate([k, k], axis=0)          # 2T x d
    out = np.empty((t, d, d))
    for i in range(d):
        # windows[s, u] = kk[s + u, i]; row s = roll(k, T - s)[:, i]
        windows = np.lib.stride_tricks.sliding_window_view(kk[:, i], t)[:t]
        prod = windows @ q                        # (T x T) @ (T x d)
        # prod[s, j] = sum_u roll(k, T - s)(u, i) q(u, j) => lag l = (T-s) % T
        out[0, i, :] = prod[0]
        out[1:, i, :] = prod[:0:-1]
    return out


def lag_mass(stack: np.ndarray) -> tuple:
    """Per-lag absolute mass of a (H x) T x d x d stack: ``(diag, nondiag)``,
    the diagonal sum and the off-diagonal sum of |M_l(i, j)|."""
    stack = np.asarray(stack, dtype=np.float64)
    diag = np.abs(np.diagonal(stack, axis1=-2, axis2=-1)).sum(axis=-1)
    return diag, np.abs(stack).sum(axis=(-2, -1)) - diag


def xcorr_all_lags_fft(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """FFT route over all lags: the (H x) T x d x d stack of
    ``xcorr_all_lags_naive``.

    M_l(i, j) is the circular cross-correlation of key column i and query
    column j at lag l, so its transform over l is conj(FFT(k_i)) FFT(q_j):
    one batched inverse transform of the (H x) F x d x d products along the
    frequency axis gives every lag's matrix. The equivalence with the naive
    route is pinned by tests.
    """
    q, k = _check_pair(q, k)
    t = q.shape[-2]
    if t < 2:
        raise DegenerateSeriesError(f"need at least 2 time steps, got {t}")
    fq = np.fft.rfft(q, axis=-2)           # (H x) F x d
    fk = np.conj(np.fft.rfft(k, axis=-2))
    return np.fft.irfft(fk[..., :, None] * fq[..., None, :], n=t, axis=-3)


def score_lags(diag, nondiag, lam) -> LagScoreVector:
    """Convex mix of diagonal and off-diagonal absolute mass per lag; ``lam``
    is one weight, or one per head."""
    lam = np.asarray(lam, dtype=np.float64)
    if not 0.0 <= lam.min() <= lam.max() <= 1.0:
        raise ParameterError(f"lambda must lie in [0, 1], got {lam}")
    diag = np.asarray(diag, dtype=np.float64)
    nondiag = np.asarray(nondiag, dtype=np.float64)
    lam = lam[..., None]
    return LagScoreVector(diag, nondiag, lam * diag + (1.0 - lam) * nondiag)


def topk_count(c: int, t: int) -> int:
    return min(max(c * math.ceil(math.log(t)), 1), t - 1)


def topk_lags(scores: LagScoreVector, c: int, t: int) -> LagSelection:
    """Pick k = c*ceil(ln T) lags (clamped to [1, T-1]) with highest combined
    score among l in [1, T-1], for each head; ties break toward the smaller
    lag."""
    if t < 2:
        raise DegenerateSeriesError(f"need T >= 2, got {t}")
    if c < 1:
        raise ParameterError(f"c must be a positive integer, got {c}")
    # a stable sort keeps tied lags in ascending order
    order = np.argsort(-scores.combined[..., 1:t], axis=-1, kind="stable")
    return LagSelection(order[..., :topk_count(c, t)] + 1)


def select_lags(q_hat: np.ndarray, k_hat: np.ndarray, lam, c: int,
                use_fft: bool = True) -> tuple:
    """One-stop lag selection for one head or a head stack (``lam`` one
    weight or one per head). Returns (LagSelection, LagScoreVector, stack),
    the stack holding every lag's matrix roll(k_hat, l)^T q_hat."""
    stack = (xcorr_all_lags_fft if use_fft else xcorr_all_lags_naive)(q_hat, k_hat)
    scores = score_lags(*lag_mass(stack), lam)
    return topk_lags(scores, c, q_hat.shape[-2]), scores, stack
