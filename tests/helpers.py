"""Test-only helpers: the finite-difference gradient checker and sample
equality. The package never calls either."""

from dataclasses import dataclass

import numpy as np

from lagattn.numerics import ParameterError


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


def check_gradient(f, params: dict, step: float = 1e-5,
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


def same_sample(a, b) -> bool:
    """Two ``SeriesSample``s hold equal values, mask, label, flags and
    planted lags."""
    def eq(x, y):
        if x is None or y is None:
            return x is None and y is None
        return np.array_equal(np.asarray(x), np.asarray(y))
    return (eq(a.values, b.values) and eq(a.mask, b.mask) and a.label == b.label
            and eq(a.anomaly_flags, b.anomaly_flags)
            and [tuple(p) for p in a.planted_lags] == [tuple(p) for p in b.planted_lags])
