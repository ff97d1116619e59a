"""Statistical metrics and decision rules.

Exact sup-norm KS statistics with fixed critical values (no p-values, no
retries), empirical characteristic-function and Laplace-transform distances
on small fixed grids, and a Hill tail-index estimator with a plateau
stability flag. All metrics are deterministic functions of their inputs,
and every one rejects a sample holding NaN, which would otherwise drop out
of the comparisons silently.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import DomainError

__all__ = [
    "DEFAULT_T_GRID",
    "DEFAULT_S_GRID",
    "ks_two_sample",
    "ks_two_sample_threshold",
    "ks_one_sample",
    "ks_one_sample_threshold",
    "ecf_distance",
    "lst_distance",
    "hill_tail_index",
    "hill_is_unstable",
    "MetricEntry",
    "VerificationReport",
]

DEFAULT_T_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
DEFAULT_S_GRID = (0.5, 1.0, 2.0)


def _values(batch) -> np.ndarray:
    values = np.asarray(getattr(batch, "values", batch), dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise DomainError("expected a nonempty 1-d sample")
    nans = np.count_nonzero(np.isnan(values))
    if nans:
        raise DomainError(f"sample holds {nans} NaN values of {values.size}")
    return values


def _critical(q: float) -> float:
    if not 0 < q < 1:
        raise DomainError("significance level must lie in (0, 1)")
    return math.sqrt(-math.log(q / 2.0) / 2.0)


def _right_ranks(x: np.ndarray) -> np.ndarray:
    """searchsorted(x, x, side="right") for sorted x: last tie's index + 1."""
    ends = np.append(np.flatnonzero(x[1:] != x[:-1]) + 1, x.size)
    return np.repeat(ends, np.diff(ends, prepend=0))


def _ecdf_gaps(own: np.ndarray, other: np.ndarray) -> float:
    """Largest |F_own - F_other| over the points of own; both sorted."""
    gaps = _right_ranks(own) / own.size
    gaps -= np.searchsorted(other, own, side="right") / other.size
    return float(np.abs(gaps, out=gaps).max())


def ks_two_sample(a, b) -> float:
    """Exact sup distance between the empirical CDFs of two samples.

    The sup is attained at a sample point, so it is the larger of the
    largest gaps over each sample's own points.
    """
    x = np.sort(_values(a))
    y = np.sort(_values(b))
    return max(_ecdf_gaps(x, y), _ecdf_gaps(y, x))


def ks_two_sample_threshold(n: int, m: int, q: float = 0.01) -> float:
    """Critical value c(q) * sqrt((n+m)/(n*m)); c(0.01) is about 1.628."""
    if n < 1 or m < 1:
        raise DomainError("sample sizes must be positive")
    return _critical(q) * math.sqrt((n + m) / (n * m))


def ks_one_sample(a, cdf: Callable) -> float:
    """Exact sup distance between the empirical CDF and a model CDF."""
    x = np.sort(_values(a))
    n = x.size
    try:
        f = np.asarray(cdf(x), dtype=float)
        if f.shape != x.shape:
            raise TypeError
    except (TypeError, ValueError):
        f = np.array([float(cdf(v)) for v in x])
    hi = np.arange(1, n + 1) / n - f
    lo = f - np.arange(0, n) / n
    return float(max(hi.max(), lo.max()))


def ks_one_sample_threshold(n: int, q: float = 0.01) -> float:
    """Critical value c(q)/sqrt(n); c(0.001) is about 1.949."""
    if n < 1:
        raise DomainError("sample size must be positive")
    return _critical(q) / math.sqrt(n)


def ecf_distance(a, cf: Callable[[float], float], t_grid=DEFAULT_T_GRID) -> float:
    """Worst deviation of the empirical CF from a real even target CF.

    Real and imaginary parts enter separately: mean cos(t x) is compared to
    cf(t) and mean sin(t x) to zero, so symmetry violations are not hidden
    by a modulus.
    """
    x = _values(a)
    t_grid = tuple(float(t) for t in t_grid)
    if not t_grid:
        raise DomainError("t_grid must be nonempty")
    worst = 0.0
    for t in t_grid:
        tx = t * x
        worst = max(
            worst,
            abs(float(np.cos(tx).mean()) - float(cf(t))),
            abs(float(np.sin(tx).mean())),
        )
    return worst


def lst_distance(a, lst: Callable[[float], float], s_grid=DEFAULT_S_GRID) -> float:
    """Worst deviation of the empirical Laplace transform over s_grid."""
    x = _values(a)
    if x.min() < 0:
        raise DomainError("Laplace-transform distance needs nonnegative samples")
    s_grid = tuple(float(s) for s in s_grid)
    if not s_grid:
        raise DomainError("s_grid must be nonempty")
    worst = 0.0
    for s in s_grid:
        emp = float(np.exp(-s * x).mean())
        worst = max(worst, abs(emp - float(lst(s))))
    return worst


def _descending_with_k(a, k: int | None) -> tuple[np.ndarray, int]:
    x = np.sort(_values(a))[::-1]
    if k is None:
        k = int(x.size**0.6)
    if not 1 <= k < x.size:
        raise DomainError("k must satisfy 1 <= k < n")
    return x, k


def _hill(sorted_desc: np.ndarray, k: int) -> float:
    top = sorted_desc[: k + 1]
    if top[-1] <= 0:
        raise DomainError("Hill estimator needs positive top order statistics")
    logs = np.log(top)
    return 1.0 / float(logs[:k].mean() - logs[k])


def hill_tail_index(a, k: int | None = None) -> float:
    """Hill estimate of the power-tail exponent from the top k order stats.

    k defaults to floor(n^0.6).
    """
    x, k = _descending_with_k(a, k)
    return _hill(x, k)


def hill_is_unstable(a, k: int | None = None) -> bool:
    """True when the estimate moves by more than 25% between k and 2k.

    A light-tailed sample has no Hill plateau, so the doubled-k estimate
    drifts; heavy-tailed samples at reasonable n stay within the band.
    """
    x, k = _descending_with_k(a, k)
    k2 = min(2 * k, x.size - 1)
    at_k = _hill(x, k)
    at_2k = _hill(x, k2)
    return abs(at_2k - at_k) > 0.25 * at_k


@dataclass(frozen=True)
class MetricEntry:
    name: str
    value: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.value <= self.threshold

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "threshold": self.threshold,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class VerificationReport:
    """Metric values with thresholds, sample sizes, seed, and parameter echo.

    Overall verdict is the conjunction of the per-metric pass flags.
    Serializes with a stable field order.
    """

    label: str
    params: dict
    n: dict
    seed: int
    metrics: tuple[MetricEntry, ...]

    def __post_init__(self) -> None:
        if not all(isinstance(m, MetricEntry) for m in self.metrics):
            raise DomainError("metrics must be MetricEntry instances")

    @property
    def verdict(self) -> bool:
        return all(m.passed for m in self.metrics)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "n": {k: int(v) for k, v in sorted(self.n.items())},
            "seed": int(self.seed),
            "metrics": [m.to_dict() for m in self.metrics],
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def lines(self) -> Iterable[str]:
        for m in self.metrics:
            yield (
                f"  {m.name}: {m.value:.6g} "
                f"(threshold {m.threshold:.6g}) "
                f"{'pass' if m.passed else 'FAIL'}"
            )
