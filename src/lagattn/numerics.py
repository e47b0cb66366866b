"""Dense-matrix kernels with hand-derived adjoints.

Everything here operates on float64 numpy arrays in time-major layout (T
rows, d columns), either one matrix or a stack of them along leading axes:
the column softmax and l2-normalize reduce over axis -2, so they act on each
matrix of a stack, and ``roll`` gathers per-matrix lags from an H x T x d
stack. The softmax and the normalize map an output cotangent back through
their ``*_adjoint``; a lag sum roll(x, lags) @ [W_l] maps it back as
roll_adjoint(g, lags) @ [W_l^T]. The op set is small and fixed, so no
autodiff tape is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

EPS_L2 = 1e-8


class ShapeError(ValueError):
    """Operand shapes are incompatible."""


class ParameterError(ValueError):
    """A scalar argument is outside its valid range."""


class ScalarRangeError(ParameterError):
    """A learned scalar decodes outside its range. ``name`` is its raw name
    (``tau_raw``) or ``xi``; ``head`` is its index in the head stack, or None
    for a scalar all heads share."""

    def __init__(self, name: str, head, message: str):
        super().__init__(message)
        self.name, self.head = name, head


class DegenerateSeriesError(ValueError):
    """Series length too short for the requested operation."""


def as_matrix(a) -> np.ndarray:
    """``a`` as a float64 matrix or stack of matrices along leading axes."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 2 or 0 in a.shape:
        raise ShapeError(f"expected matrices with positive dims, got shape {a.shape}")
    return a


def _per_matrix(temperature, ndim: int) -> np.ndarray:
    """A temperature, or one per index of the leading axes, shaped to
    broadcast against an ``ndim``-dimensional stack."""
    temp = np.asarray(temperature, dtype=np.float64)
    return temp.reshape(temp.shape + (1,) * (ndim - temp.ndim))


def softmax_cols(a: np.ndarray, temperature=1.0) -> np.ndarray:
    """Column-stochastic softmax of a/temperature with max-subtraction. For a
    stack, ``temperature`` may hold one value per index of its leading axes."""
    a = as_matrix(a)
    temp = _per_matrix(temperature, a.ndim)
    if not temp.min() > 0:
        raise ParameterError(f"temperature must be positive, got {temperature}")
    z = a / temp
    z -= z.max(axis=-2, keepdims=True)
    e = np.exp(z, out=z)
    e /= e.sum(axis=-2, keepdims=True)
    return e


def softmax_cols_adjoint(g: np.ndarray, out: np.ndarray, a: np.ndarray, temperature):
    """Returns (dA, dtemperature) given cotangent g and the forward output;
    dtemperature has the shape of ``temperature``."""
    temp = _per_matrix(temperature, a.ndim)
    # dZ for Z = A/temperature, column softmax
    dz = out * (g - (out * g).sum(axis=-2, keepdims=True))
    da = dz / temp
    per_temp = (dz * a).sum(axis=tuple(range(np.ndim(temperature), a.ndim)))
    return da, -per_temp / np.square(temperature)


def _col_norms(a: np.ndarray) -> np.ndarray:
    return np.sqrt((a * a).sum(axis=-2, keepdims=True))


def l2_normalize_cols(a: np.ndarray, epsilon: float = EPS_L2) -> np.ndarray:
    """Divide each column by max(its l2 norm, epsilon)."""
    a = as_matrix(a)
    if not epsilon > 0:
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    return a / np.maximum(_col_norms(a), epsilon)


def l2_normalize_cols_adjoint(g: np.ndarray, a: np.ndarray, epsilon: float = EPS_L2):
    norms = _col_norms(a)
    clipped = np.maximum(norms, epsilon)
    da = g / clipped
    # the norm only varies with a where it is above the epsilon floor
    active = norms > epsilon
    corr = (a * g).sum(axis=-2, keepdims=True) / clipped**3
    da = da - np.where(active, a * corr, 0.0)
    return da


def _lag_rows(lags: np.ndarray, h: int, t: int) -> np.ndarray:
    """Rows of the flat (H T) x d view of an H x T x d stack: entry [h, s, l]
    is row h T + (s - lags[h, l]) mod T."""
    if lags.ndim != 2 or lags.shape[0] != h:
        raise ShapeError(f"lag table {lags.shape} does not fit a stack of {h}")
    if lags.min() < 0 or lags.max() >= t:
        raise ParameterError(f"lag {lags} out of range [0, {t - 1}]")
    return (np.arange(t)[:, None] - lags[:, None, :]) % t + t * np.arange(h)[:, None, None]


def roll(a: np.ndarray, lags) -> np.ndarray:
    """Circular vertical shifts of an H x T x d stack, one row of n lags per
    matrix: out[h](t, l d + j) = a[h]((t - lags[h, l]) mod T, j).

    The n shifts of a matrix sit side by side, T x (n d) with column block l
    shifted by lag l, so one matrix product with the result sums over the
    lags. One gather for all.
    """
    a = as_matrix(a)
    if a.ndim != 3:
        raise ShapeError(f"expected an H x T x d stack, got shape {a.shape}")
    rows = _lag_rows(np.asarray(lags), a.shape[0], a.shape[1])
    return np.take(a.reshape(-1, a.shape[-1]), rows, axis=0).reshape(
        a.shape[:-1] + (-1,))


def roll_adjoint(a: np.ndarray, lags) -> np.ndarray:
    """Each lag's transposed shift, side by side: ``roll`` at the negated lags.
    g -> roll_adjoint(g, lags) @ [W_l^T] is the adjoint of x -> roll(x, lags)
    @ [W_l], so the product after this gather sums over the lags."""
    return roll(a, (-np.asarray(lags)) % np.shape(a)[-2])


def sigmoid(x):
    # below about -709 exp overflows to inf, which gives the exact limit 0.0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def softplus(x):
    return np.logaddexp(0.0, x)


@dataclass
class Param:
    """One learnable tensor (or scalar) with its accumulated gradient."""

    name: str
    value: np.ndarray
    grad: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.value = np.asarray(self.value, dtype=np.float64)
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        assert self.grad.shape == self.value.shape


ParamSet = dict  # name -> Param


def zero_grads(params: ParamSet) -> None:
    for p in params.values():
        p.grad[...] = 0.0
