"""Correlated attention for multivariate time series.

Lagged cross-correlation scoring with TopK lag selection, four attention
mechanisms on head stacks (self, de-stationary, correlated, mixture-of-head:
``*_fwd`` / ``*_bwd`` pairs in ``lagattn.attention``), an encoder-only model
with hand-derived gradients, synthetic data with planted lags, and a CLI for
data generation, training, evaluation and ablations.
"""

from .attention import CAB_RAW, CabOptions
from .numerics import (
    Param,
    l2_normalize_cols,
    roll,
    softmax_cols,
)
from .xcorr import (
    LagScoreVector,
    LagSelection,
    lag_mass,
    score_lags,
    select_lags,
    topk_lags,
    xcorr_all_lags_fft,
    xcorr_all_lags_naive,
)

__all__ = [
    "CAB_RAW", "CabOptions", "Param", "LagScoreVector", "LagSelection",
    "softmax_cols", "l2_normalize_cols", "roll", "lag_mass",
    "score_lags", "select_lags", "topk_lags", "xcorr_all_lags_fft",
    "xcorr_all_lags_naive",
]

__version__ = "0.1.0"
