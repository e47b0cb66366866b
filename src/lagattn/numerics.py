"""Dense-matrix kernels with hand-derived adjoints and a finite-difference checker.

Everything here operates on 2-D float64 numpy arrays in time-major layout
(T rows, d columns). ``roll`` given an array of lags returns the stack of
shifted copies, and the column softmax and its adjoint act on each matrix of
such a stack (they reduce over axis -2). Each forward op has a matching
``*_adjoint`` that maps an output cotangent back to input cotangents; the op
set is small and fixed, so no autodiff tape is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

EPS_L2 = 1e-8


class ShapeError(ValueError):
    """Operand shapes are incompatible."""


class ParameterError(ValueError):
    """A scalar argument is outside its valid range."""


class DegenerateSeriesError(ValueError):
    """Series length too short for the requested operation."""


def as_matrix(a, stack: bool = False) -> np.ndarray:
    """``a`` as a float64 2-D matrix (``stack``: or a 3-D stack of them)."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim not in ((2, 3) if stack else (2,)) or 0 in a.shape:
        raise ShapeError(f"expected a 2-D matrix with positive dims, got shape {a.shape}")
    return a


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a, b = as_matrix(a), as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    return a @ b


def matmul_adjoint(g: np.ndarray, a: np.ndarray, b: np.ndarray):
    """dA = G B^T, dB = A^T G."""
    return g @ b.T, a.T @ g


def softmax_cols(a: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Column-stochastic softmax of a/temperature with max-subtraction."""
    a = as_matrix(a, stack=True)
    if not temperature > 0:
        raise ParameterError(f"temperature must be positive, got {temperature}")
    z = a / temperature
    z = z - z.max(axis=-2, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-2, keepdims=True)

def softmax_cols_adjoint(g: np.ndarray, out: np.ndarray, a: np.ndarray, temperature: float):
    """Returns (dA, dtemperature) given cotangent g and the forward output."""
    # dZ for Z = A/temperature, column softmax
    dz = out * (g - (out * g).sum(axis=-2, keepdims=True))
    da = dz / temperature
    dtemp = -float((dz * a).sum()) / temperature**2
    return da, dtemp


def l2_normalize_cols(a: np.ndarray, epsilon: float = EPS_L2) -> np.ndarray:
    """Divide each column by max(its l2 norm, epsilon)."""
    a = as_matrix(a)
    if not epsilon > 0:
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    norms = np.maximum(np.linalg.norm(a, axis=0, keepdims=True), epsilon)
    return a / norms


def l2_normalize_cols_adjoint(g: np.ndarray, a: np.ndarray, epsilon: float = EPS_L2):
    norms = np.linalg.norm(a, axis=0, keepdims=True)
    clipped = np.maximum(norms, epsilon)
    da = g / clipped
    # the norm only varies with a where it is above the epsilon floor
    active = norms > epsilon
    corr = (a * g).sum(axis=0, keepdims=True) / clipped**3
    da = da - np.where(active, a * corr, 0.0)
    return da


def roll(a: np.ndarray, lag) -> np.ndarray:
    """Circular vertical shift: out(t, j) = a((t - lag) mod T, j). An array
    of n lags gives the n x T x d stack of shifts, one gather for all."""
    a = as_matrix(a)
    t = a.shape[0]
    lag = np.asarray(lag)
    if lag.min() < 0 or lag.max() >= t:
        raise ParameterError(f"lag {lag} out of range [0, {t - 1}]")
    return np.take(a, (np.arange(t) - lag[..., None]) % t, axis=0)


def roll_adjoint(g: np.ndarray, lag) -> np.ndarray:
    """Adjoint of ``roll``: shift back by ``lag``. For an array of lags ``g``
    is the stack; each matrix is shifted back by its own lag, then summed."""
    lags = np.atleast_1d(lag)
    t = g.shape[-2]
    # one gather from the flat stack, where row s of matrix i is row i * T + s
    rows = (np.arange(t) + lags[:, None]) % t + t * np.arange(len(lags))[:, None]
    return np.take(g.reshape(-1, g.shape[-1]), rows, axis=0).sum(axis=0)


def sigmoid(x):
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
