"""Lagged cross-covariance over all circular lags, scoring, and TopK selection.

Two routes measure the per-lag matrices M_l = roll(K, l)^T Q: a naive
O(d^2 T^2) loop that builds the T x d x d stack (the oracle, reduced by
``lag_mass``) and an FFT route in O(d^2 T log T) that streams the same
per-lag mass without the stack. Scores mix the absolute diagonal
(auto-correlation) and off-diagonal (cross-feature) mass of each M_l with a
convex weight, and TopK picks the best lags in [1, T-1] deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import DegenerateSeriesError, ParameterError, ShapeError, as_matrix


@dataclass
class LagScoreVector:
    diag_scores: np.ndarray      # length T, sum_i |M_l(i,i)|
    nondiag_scores: np.ndarray   # length T, sum_{i != j} |M_l(i,j)|
    combined: np.ndarray         # lam * diag + (1 - lam) * nondiag


@dataclass
class LagSelection:
    lags: list       # k distinct lags in [1, T-1], best first


def _check_pair(q: np.ndarray, k: np.ndarray):
    q, k = as_matrix(q), as_matrix(k)
    if q.shape != k.shape:
        raise ShapeError(f"query/key shape mismatch: {q.shape} vs {k.shape}")
    return q, k


def xcorr_all_lags_naive(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Ground-truth stack: out[l] = roll(k, l)^T q for every l in [0, T-1].

    Direct time-domain evaluation in O(d^2 T^2): each key column is unrolled
    into its T circular shifts (windows of the doubled column) and multiplied
    against q. No spectral tricks; this is the oracle for the FFT route.
    """
    q, k = _check_pair(q, k)
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
    """Per-lag absolute mass of a T x d x d stack: ``(diag, nondiag)``, the
    diagonal sum and the off-diagonal sum of |M_l(i, j)|."""
    stack = np.asarray(stack, dtype=np.float64)
    diag = np.abs(np.diagonal(stack, axis1=1, axis2=2)).sum(axis=1)
    return diag, np.abs(stack).sum(axis=(1, 2)) - diag


def xcorr_all_lags_fft(q: np.ndarray, k: np.ndarray) -> tuple:
    """FFT route over all lags: ``(diag, nondiag)`` as ``lag_mass`` gives it
    for the naive stack.

    Streams one key column at a time, accumulating |M_l(i, j)| into the
    diagonal / off-diagonal totals without materializing the T x d x d
    stack. Column i of M_l is the inverse transform of FFT(q_j) *
    conj(FFT(k_i)); the equivalence with the naive route is pinned by tests.
    """
    q, k = _check_pair(q, k)
    t, d = q.shape
    if t < 2:
        raise DegenerateSeriesError(f"need at least 2 time steps, got {t}")
    fq = np.fft.rfft(q, axis=0)            # F x d
    fk = np.fft.rfft(k, axis=0)
    diag = np.zeros(t)
    nondiag = np.zeros(t)
    for i in range(d):
        rows = np.fft.irfft(fq * np.conj(fk[:, i:i + 1]), n=t, axis=0)  # T x d
        absrows = np.abs(rows)
        diag += absrows[:, i]
        nondiag += absrows.sum(axis=1) - absrows[:, i]
    return diag, nondiag


def score_lags(diag, nondiag, lam: float) -> LagScoreVector:
    """Convex mix of diagonal and off-diagonal absolute mass per lag."""
    if not 0.0 <= lam <= 1.0:
        raise ParameterError(f"lambda must lie in [0, 1], got {lam}")
    diag = np.asarray(diag, dtype=np.float64)
    nondiag = np.asarray(nondiag, dtype=np.float64)
    return LagScoreVector(diag, nondiag, lam * diag + (1.0 - lam) * nondiag)


def topk_count(c: int, t: int) -> int:
    return min(max(c * math.ceil(math.log(t)), 1), t - 1)


def topk_lags(scores: LagScoreVector, c: int, t: int) -> LagSelection:
    """Pick k = c*ceil(ln T) lags (clamped to [1, T-1]) with highest combined
    score among l in [1, T-1]; ties break toward the smaller lag."""
    if t < 2:
        raise DegenerateSeriesError(f"need T >= 2, got {t}")
    if c < 1:
        raise ParameterError(f"c must be a positive integer, got {c}")
    # a stable sort keeps tied lags in ascending order
    order = np.argsort(-scores.combined[1:t], kind="stable")
    return LagSelection(lags=(order[:topk_count(c, t)] + 1).tolist())


def select_lags(q_hat: np.ndarray, k_hat: np.ndarray, lam: float, c: int,
                use_fft: bool = True) -> tuple:
    """One-stop lag selection. Returns (LagSelection, LagScoreVector)."""
    if use_fft:
        diag, nondiag = xcorr_all_lags_fft(q_hat, k_hat)
    else:
        diag, nondiag = lag_mass(xcorr_all_lags_naive(q_hat, k_hat))
    scores = score_lags(diag, nondiag, lam)
    return topk_lags(scores, c, q_hat.shape[0]), scores
