"""Dense-matrix kernels with hand-derived adjoints and a finite-difference checker.

Everything here operates on float64 numpy arrays in time-major layout (T
rows, d columns), either one matrix or a stack of them along leading axes:
the column softmax and l2-normalize reduce over axis -2, so they act on each
matrix of a stack, and ``roll`` gathers per-matrix lags. Each forward op has
a matching ``*_adjoint`` that maps an output cotangent back to input
cotangents; the op set is small and fixed, so no autodiff tape is needed.
"""

from __future__ import annotations

import math
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


def _lag_rows(lag, lead: tuple, t: int, shift) -> np.ndarray:
    """Rows of the flat (H T) x d view of a stack of H = prod(lead) matrices:
    entry [h, s, l] is row h T + shift(s, lag_l) mod T, where ``shift`` is
    np.subtract or np.add and ``lag`` an int, n lags for every matrix, or one
    row of n lags per matrix."""
    lags = np.asarray(lag)
    if lags.ndim > 1 and lags.shape[:-1] != lead:
        raise ShapeError(f"lag table {lags.shape} does not fit a stack of {lead}")
    if lags.min() < 0 or lags.max() >= t:
        raise ParameterError(f"lag {lag} out of range [0, {t - 1}]")
    h = math.prod(lead)
    rows = shift(np.arange(t)[:, None], lags.reshape(h if lags.ndim > 1 else 1, 1, -1)) % t
    if h > 1:       # matrix h starts at row h T
        rows = rows + t * np.arange(h)[:, None, None]
    return rows


def roll(a: np.ndarray, lag) -> np.ndarray:
    """Circular vertical shift: out(t, j) = a((t - lag) mod T, j).

    ``a`` is a T x d matrix or a stack of them; ``lag`` is an int, n lags for
    every matrix, or one row of n lags per matrix. The n shifts of a matrix
    sit side by side, T x (n d) with column block l shifted by lag l, so one
    matrix product with the result sums over the lags. One gather for all.
    """
    a = as_matrix(a)
    rows = _lag_rows(lag, a.shape[:-2], a.shape[-2], np.subtract)
    return np.take(a.reshape(-1, a.shape[-1]), rows, axis=0).reshape(
        a.shape[:-1] + (-1,))


def roll_adjoint(g: np.ndarray, lag) -> np.ndarray:
    """Adjoint of ``roll``: column block l of ``g`` is shifted back by lag l,
    and the blocks are summed."""
    lead, t = g.shape[:-2], g.shape[-2]
    rows = _lag_rows(lag, lead, t, np.add)
    n = rows.shape[-1]
    # block l of row r of the stack is row r n + l of the flat n-block view;
    # gathered lag-major, so the sum over lags adds whole matrices
    blocks = rows.transpose(0, 2, 1) * n + np.arange(n)[:, None]
    return np.take(g.reshape(-1, g.shape[-1] // n), blocks, axis=0).sum(
        axis=1).reshape(lead + (t, -1))


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


@dataclass
class GradCheckEntry:
    name: str
    max_rel_err: float
    passed: bool
    finite: bool = True


@dataclass
class GradCheckReport:
    entries: list
    max_rel_err: float
    passed: bool

    def failures(self):
        return [e for e in self.entries if not e.passed]


def _rel_err(a: float, f: float) -> float:
    return abs(a - f) / max(abs(a), abs(f), 1e-6)


def check_gradient(f, params: ParamSet, step: float = 1e-5,
                   tolerance: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``f(params)`` must return a scalar loss and, as a side effect, leave the
    analytic gradient of that loss in each ``Param.grad`` (zeroing first).
    """
    if not step > 0:
        raise ParameterError("step must be positive")
    f(params)
    analytic = {name: p.grad.copy() for name, p in params.items()}

    entries = []
    for name, p in params.items():
        flat = p.value.reshape(-1)
        an = analytic[name].reshape(-1)
        worst = 0.0
        finite = True
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = f(params)
            flat[i] = orig - step
            fm = f(params)
            flat[i] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                finite = False
                continue
            fd = (fp - fm) / (2.0 * step)
            worst = max(worst, _rel_err(an[i], fd))
        entries.append(GradCheckEntry(name, worst, finite and worst <= tolerance, finite))
    # restore grads to the analytic values at the unperturbed point
    f(params)
    overall = max((e.max_rel_err for e in entries), default=0.0)
    return GradCheckReport(entries, overall, all(e.passed for e in entries))
