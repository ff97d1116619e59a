"""Statistical metrics and decision rules.

Exact sup-norm KS statistics with fixed critical values (no p-values, no
retries), empirical characteristic-function and Laplace-transform distances
on small fixed grids, and a Hill tail-index estimator with a plateau
stability flag. All metrics are deterministic functions of their inputs,
and every one rejects a sample holding NaN, which would otherwise drop out
of the comparisons silently; the ECF, where cos and sin of an infinite
value are NaN too, also rejects infinite values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterator

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


# Points per block of the KS search, so that no temporary spans a sample.
_BLOCK = 1 << 16
_GAPS = 1 << 13  # points per block of ks_one_sample's gaps: 64 KB temporaries malloc reuses


def _runs(starts: np.ndarray, stops: np.ndarray) -> Iterator[np.ndarray]:
    """The indices of ranges starts[t]:stops[t] (at least one), _BLOCK at a time."""
    ends = np.cumsum(stops - starts)
    shift = stops - ends
    total = int(ends[-1])
    for lo in range(0, total, _BLOCK):
        hi = min(lo + _BLOCK, total)
        first, last = np.searchsorted(ends, (lo, hi - 1), side="right")
        sizes = np.diff(np.clip(ends[first : last + 1], lo, hi), prepend=lo)
        yield np.arange(lo, hi) + np.repeat(shift[first : last + 1], sizes)


def _gaps(own: np.ndarray, other: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """|F_own - F_other| at own[idx]; own's count is idx + 1 unless tied."""
    v = own[idx]
    counts = idx + 1
    tied = own[np.minimum(counts, own.size - 1)] == v
    counts[tied] = np.searchsorted(own, v[tied], side="right")
    return np.abs(counts / own.size - np.searchsorted(other, v, side="right") / other.size)


def ks_two_sample(a, b) -> float:
    """Exact sup distance between the empirical CDFs of two samples.

    The sup is attained at a sample point. Checkpoints are every k-th point
    of each sorted sample and its largest, with k about sqrt(nm/(n+m))/5, a
    fixed fraction of the null scale; their largest gap L bounds the sup
    below. Strictly between checkpoints c < c' (the first range starts at
    index 0), each count lies between its values at c and c', so
    max(i'/n - j/m, j'/m - i/n) bounds every gap there. Only the points of
    ranges whose bound reaches L - 1e-9 are searched, _BLOCK at a time.
    Rounding is monotone, so no gap's float exceeds its bound's float even
    without that margin. Each gap is i/n - j/m of the counts the formula
    over the concatenated sample takes, so the result is that formula's
    maximum, bit for bit.
    """
    x = np.sort(_values(a))
    y = np.sort(_values(b))
    n, m = x.size, y.size
    k = max(1, round(0.2 * math.sqrt(n * m / (n + m))))
    marks = np.unique(np.concatenate([x[k - 1 :: k], y[k - 1 :: k], x[-1:], y[-1:]]))
    i = np.searchsorted(x, marks, side="right")
    j = np.searchsorted(y, marks, side="right")
    best = float(np.abs(i / n - j / m).max())
    i_lo = np.concatenate([[0], i[:-1]])
    j_lo = np.concatenate([[0], j[:-1]])
    hit = np.maximum(i / n - j_lo / m, j / m - i_lo / n) >= best - 1e-9
    for own, other, lo in ((x, y, i_lo), (y, x, j_lo)):
        for idx in _runs(lo[hit], np.searchsorted(own, marks[hit], side="left")):
            best = max(best, float(_gaps(own, other, idx).max()))
    return best


def ks_two_sample_threshold(n: int, m: int, q: float = 0.01) -> float:
    """Critical value c(q) * sqrt((n+m)/(n*m)); c(0.01) is about 1.628."""
    if n < 1 or m < 1:
        raise DomainError("sample sizes must be positive")
    return _critical(q) * math.sqrt((n + m) / (n * m))


def ks_one_sample(a, cdf: Callable) -> float:
    """Exact sup distance between the empirical CDF and a model CDF, which is
    called once, on the sorted sample, and must return an array of its shape.
    The gaps i/n - F and F - (i-1)/n are formed _GAPS at a time; the max of
    the block maxima is the same float."""
    x = np.sort(_values(a))
    n = x.size
    f = np.asarray(cdf(x), dtype=float)
    if f.shape != x.shape:
        raise DomainError(f"cdf returned shape {f.shape} for a sample of shape {x.shape}")
    hi, lo = [], []
    for start in range(0, n, _GAPS):
        i, part = np.arange(start, min(start + _GAPS, n)), f[start : start + _GAPS]
        hi.append(((i + 1) / n - part).max())
        lo.append((part - i / n).max())
    return float(max(np.max(hi), np.max(lo)))


def ks_one_sample_threshold(n: int, q: float = 0.01) -> float:
    """Critical value c(q)/sqrt(n); c(0.001) is about 1.949."""
    if n < 1:
        raise DomainError("sample size must be positive")
    return _critical(q) / math.sqrt(n)


def ecf_distance(a, cf: Callable[[float], float]) -> float:
    """Worst deviation of the empirical CF from a real even target CF over
    DEFAULT_T_GRID.

    Real and imaginary parts enter separately: mean cos(t x) is compared to
    cf(t) and mean sin(t x) to zero, so symmetry violations are not hidden
    by a modulus. Each t of the grid doubles the one before, so cos and sin
    are taken at the first t only; each later step is sin 2a = 2 sin a cos a
    and cos 2a = 2 cos^2 a - 1, in place. Since fl(2t x) = 2 fl(t x), the
    angles are those of per-t calls, and the means differ from theirs by a
    few ulp. An infinite value raises DomainError rather than dropping a
    grid point.
    """
    x = _values(a)
    infs = np.count_nonzero(np.isinf(x))
    if infs:
        raise DomainError(f"sample holds {infs} infinite values of {x.size}")
    tx = DEFAULT_T_GRID[0] * x
    c = np.cos(tx)
    s = np.sin(tx, out=tx)
    worst = 0.0
    for k, t in enumerate(DEFAULT_T_GRID):
        if k:
            s *= c
            s *= 2.0
            c *= c
            c *= 2.0
            c -= 1.0
        worst = max(worst, abs(float(c.mean()) - float(cf(t))), abs(float(s.mean())))
    return worst


def lst_distance(a, lst: Callable[[float], float]) -> float:
    """Worst deviation of the empirical Laplace transform over DEFAULT_S_GRID."""
    x = _values(a)
    if x.min() < 0:
        raise DomainError("Laplace-transform distance needs nonnegative samples")
    worst = 0.0
    for s in DEFAULT_S_GRID:
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
