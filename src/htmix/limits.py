"""Monte-Carlo convergence experiments for random-sum limit laws.

Four experiments:

* ``lemma14``: scaled negative binomial counts p * NB(nu, p) approach the
  gamma(nu, 1) law as p drops toward 0.
* ``thm6``: negative-binomial random sums of exactly-stable summands,
  n^(-1/alpha) * (X_1 + ... + X_N) with N ~ NB(nu, 1/n), approach the
  generalized Linnik law with parameters (alpha, nu).
* ``thm7``: random sums of zero-mean unit-variance summands with index
  N = max(1, round(n*V)), V distributed as twice a generalized
  Mittag-Leffler variate with parameters (alpha/2, nu), normalized by
  sqrt(n), approach the same generalized Linnik law.
* ``thm8``: an asymptotically normal statistic evaluated at the random
  sample size N = max(1, round(n*V)) with V the reciprocal of twice a
  generalized Mittag-Leffler variate; sigma*sqrt(n)*(T_N - theta)
  approaches the generalized Linnik law whatever sigma and theta are, so a
  statistic is just a name in ``STATISTICS``.

thm6, thm7 and thm8 are one construction, a normalized sum of a random
number N of summands, and share one driver, ``_random_sums``. Only the law
of N, the summands and the normalization differ. For grid value n at index
i the driver draws N on substream 2i and the summands on substream 2i+1;
lemma14 draws grid value i on substream i. Summands other than Rademacher
signs are drawn in blocks of at most ``_BLOCK`` draws, block b from the
child stream ``RandomStream(seed, 2i+1).block_generator(b)``. The blocks
run on the package's worker pool (``htmix._pool``), created on first use
with one worker per CPU the process may run on. They are added up in block
order, so a report depends on the seed alone, never on the thread count.
Every experiment is a ``LimitExperiment``, which alone validates its
inputs, and runs through ``run_experiment``; ``run_lemma14`` ...
``run_thm8`` are shorthands for it.

Sums are computed honestly (summand by summand); the only shortcuts are
exact lattice facts: a sum of N Rademacher signs is 2*Binomial(N, 1/2) - N.
A random index round(n*V) past the int64 range raises AccuracyError before
any summand is drawn. Every experiment reports a one-sample KS distance per
grid value against the target's inversion CDF, and a verdict combining the
final distance with a nonincreasing-trend check (20% per-step slack). The
driver draws every row's statistic first, then builds one reference CDF per
experiment, out to the largest |statistic| over all rows (at least 2.5), and
measures every row against it.

The ``fixed-index`` control replaces the random index by N = n. The
statistic then obeys the classical CLT, so the distance to the normal law
shrinks while the distance to the heavy-tailed target stays bounded away
from zero; the report flags that non-convergence.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _pool
from .distributions import (
    LinnikParams,
    _gen_ml_values,
    _neg_binom_draw,
    _pos,
    _stable_symmetric_values,
)
from .errors import AccuracyError, DomainError
from .special import InversionCdf
from .streams import DEFAULT_SEED, RandomStream
from .verification import ks_one_sample

__all__ = [
    "THEOREMS",
    "SUMMANDS",
    "STATISTICS",
    "NONCONVERGENCE_FLOOR",
    "LimitExperiment",
    "ConvergenceRow",
    "ConvergenceReport",
    "run_lemma14",
    "run_thm6",
    "run_thm7",
    "run_thm8",
    "run_experiment",
]

THEOREMS = ("lemma14", "thm6", "thm7", "thm8")
SUMMANDS = ("rademacher", "uniform")
STATISTICS = ("sample_mean",)

NONCONVERGENCE_FLOOR = 0.05
_NORMAL_CONTROL_THRESHOLD = 0.01
_BLOCK = 1 << 18
_TOTAL_DRAW_BUDGET = 5_000_000_000
_INDEX_LIMIT = 2.0**63  # the first float past the int64 range


@dataclass(frozen=True)
class ConvergenceRow:
    """One grid value: KS distance to the target and its threshold.

    ks_normal is filled only in fixed-index control runs and holds the
    distance to the standard normal CDF.
    """

    x: float
    ks: float
    threshold: float
    ks_normal: float | None = None

    @property
    def passed(self) -> bool:
        return self.ks <= self.threshold

    def to_dict(self) -> dict:
        out = {
            "n": self.x,
            "ks": self.ks,
            "threshold": self.threshold,
            "pass": self.passed,
        }
        if self.ks_normal is not None:
            out["ks_normal"] = self.ks_normal
        return out


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Per-grid-value distances, verdict, and the retained final sample."""

    theorem: str
    params: dict
    mode: str
    seed: int
    rows: tuple[ConvergenceRow, ...]
    final_sample: np.ndarray | None = field(default=None, repr=False)

    @property
    def verdict(self) -> bool:
        if not self.rows:
            return False
        last = self.rows[-1]
        if self.mode == "negative-control":
            converged_normal = (
                last.ks_normal is not None
                and last.ks_normal <= _NORMAL_CONTROL_THRESHOLD
            )
            return converged_normal and last.ks > NONCONVERGENCE_FLOOR
        # Trend slack: 20% per step plus the Monte-Carlo resolution of the
        # KS statistic itself, so fully converged sequences sitting at the
        # noise floor are not failed for wiggling within it.
        noise = 1.0 / math.sqrt(float(self.params.get("replications", 1000)))
        trend_ok = all(
            self.rows[i + 1].ks <= 1.2 * self.rows[i].ks + noise
            for i in range(len(self.rows) - 1)
        )
        return last.passed and trend_ok

    @property
    def flags_nonconvergence(self) -> bool:
        return self.mode == "negative-control" and self.rows[-1].ks > NONCONVERGENCE_FLOOR

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "mode": self.mode,
            "seed": int(self.seed),
            "rows": [r.to_dict() for r in self.rows],
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def csv_lines(self) -> list[str]:
        control = self.mode == "negative-control"
        header = "n,ks,threshold,pass" + (",ks_normal" if control else "")
        lines = [header]
        for r in self.rows:
            base = (
                f"{r.x:.10g},{r.ks:.10g},{r.threshold:.10g},"
                f"{'true' if r.passed else 'false'}"
            )
            if control:
                base += f",{r.ks_normal:.10g}"
            lines.append(base)
        return lines


def _check_n_grid(n_grid) -> tuple[int, ...]:
    grid = tuple(int(v) for v in n_grid)
    if not grid or any(v < 1 for v in grid):
        raise DomainError("n_grid must contain positive integers")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("n_grid must be strictly increasing")
    return grid


def _check_p_grid(p_grid) -> tuple[float, ...]:
    grid = tuple(float(v) for v in p_grid)
    if not grid or any(not (0 < v < 1) for v in grid):
        raise DomainError("p_grid values must lie in (0, 1)")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise DomainError("p_grid must be strictly decreasing")
    return grid


def _summand_drawer(summand):
    """Summands as draw(rng, m); None means Rademacher signs."""
    if callable(summand):
        def draw(rng, m):
            values = np.asarray(summand(rng, m), dtype=float)
            if values.shape != (m,):
                raise DomainError(
                    f"summand callable gave shape {values.shape}, not ({m},)"
                )
            return values

        return draw
    if summand == "rademacher":
        return None
    if summand == "uniform":
        half = math.sqrt(3.0)
        return lambda rng, m: rng.uniform(-half, half, m)
    raise DomainError(
        f"unknown summand law {summand!r}; use one of {SUMMANDS} "
        "or a callable draw(rng, m)"
    )


@dataclass(frozen=True)
class LimitExperiment:
    """Declarative configuration for one limit experiment, validated here.

    grid holds sample sizes n for thm6/thm7/thm8 (strictly increasing
    integers) or probabilities p for lemma14 (strictly decreasing in
    (0, 1)). alpha is read by thm6-thm8 only, summand by thm7 only and
    statistic by thm8 only; giving one to another theorem is an error.
    summand defaults to "rademacher" for thm7, statistic to "sample_mean"
    for thm8, and threshold to the theorem's default. summand is a name in
    SUMMANDS or a callable draw(rng, m) giving m iid summands of mean zero
    and variance one (not checked; any shape but (m,) raises DomainError);
    statistic is a name in STATISTICS.
    """

    theorem: str
    nu: float
    alpha: float | None = None
    grid: tuple = ()
    replications: int = 100_000
    seed: int = DEFAULT_SEED
    summand: object = None
    statistic: object = None
    control: str | None = None
    threshold: float | None = None

    def __post_init__(self) -> None:
        theorem = self.theorem
        if theorem not in THEOREMS:
            raise DomainError(
                f"unknown theorem tag {theorem!r}; choose from {THEOREMS}"
            )
        if self.nu is None:
            raise DomainError(f"{theorem} needs nu")
        if theorem == "lemma14":
            if self.alpha is not None:
                raise DomainError("lemma14 takes no alpha")
            object.__setattr__(self, "nu", _pos(self.nu, "nu"))
            object.__setattr__(self, "grid", _check_p_grid(self.grid))
        else:
            if self.alpha is None:
                raise DomainError(f"{theorem} needs alpha")
            # The target law's record holds the theorems' domain.
            target = LinnikParams(self.alpha, self.nu)
            object.__setattr__(self, "alpha", target.alpha)
            object.__setattr__(self, "nu", target.nu)
            object.__setattr__(self, "grid", _check_n_grid(self.grid))
        reps = self.replications
        if not isinstance(reps, (int, np.integer)) or reps < 1000:
            raise DomainError("replications must be an integer >= 1000")
        object.__setattr__(self, "replications", int(reps))
        if self.control is not None and theorem not in ("thm7", "thm8"):
            raise DomainError("control runs exist only for thm7 and thm8")
        if self.control not in (None, "fixed-index"):
            raise DomainError("control must be None or 'fixed-index'")
        if theorem == "thm7":
            if self.summand is None:
                object.__setattr__(self, "summand", "rademacher")
            _summand_drawer(self.summand)
        elif self.summand is not None:
            raise DomainError("summand applies only to thm7")
        if theorem == "thm8":
            if self.statistic is None:
                object.__setattr__(self, "statistic", "sample_mean")
            if self.statistic not in STATISTICS:
                raise DomainError(
                    f"unknown statistic {self.statistic!r}; choose from {STATISTICS}"
                )
        elif self.statistic is not None:
            raise DomainError("statistic applies only to thm8")
        if self.threshold is None:
            strict = theorem == "lemma14" or (theorem != "thm8" and self.alpha == 2.0)
            object.__setattr__(self, "threshold", 0.01 if strict else 0.015)
        else:
            object.__setattr__(self, "threshold", _pos(self.threshold, "threshold"))


def _grouped_sums(
    draw: Callable[[np.random.Generator, int], np.ndarray],
    counts: np.ndarray,
    stream: RandomStream,
) -> np.ndarray:
    """Sum counts[i] >= 1 fresh draws per replication, summand by summand.

    The draws of all replications, laid end to end, are cut into blocks of
    _BLOCK (the last block may be shorter); block b is
    draw(stream.block_generator(b), size). Workers sum each block's pieces
    of the replications, and the pieces are added in block order.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total > _TOTAL_DRAW_BUDGET:
        raise AccuracyError(
            f"experiment would need {total} summand draws, over the "
            f"{_TOTAL_DRAW_BUDGET} budget"
        )
    ends = np.cumsum(counts)
    starts = ends - counts

    def block_sums(block: int) -> tuple[int, np.ndarray]:
        lo = block * _BLOCK
        hi = min(lo + _BLOCK, total)
        # Replications first..last-1 overlap the draws [lo, hi).
        first = int(np.searchsorted(ends, lo, side="right"))
        last = int(np.searchsorted(starts, hi, side="left"))
        values = draw(stream.block_generator(block), hi - lo)
        offsets = np.maximum(starts[first:last], lo) - lo
        return first, np.add.reduceat(values, offsets)

    sums = np.zeros(counts.size)
    for first, pieces in _pool.imap(block_sums, range(-(-total // _BLOCK))):
        sums[first:first + pieces.size] += pieces
    return sums


def _rademacher_sums(rng: np.random.Generator, counts: np.ndarray) -> np.ndarray:
    # Sum of N signs is exactly 2*Binomial(N, 1/2) - N; lattice-exact even
    # for astronomically large N.
    b = rng.binomial(counts, 0.5)
    return (2 * b - counts).astype(float)


def _normal_cdf(x):
    import scipy.special as sc

    return sc.ndtr(np.asarray(x, dtype=float))


def _lemma14(exp: LimitExperiment) -> ConvergenceReport:
    import scipy.special as sc

    rows = []
    for index, p in enumerate(exp.grid):
        rng = RandomStream(exp.seed, index).generator()
        counts = 1 + _neg_binom_draw(rng, exp.replications, exp.nu, p)
        scaled = p * counts.astype(float)
        ks = ks_one_sample(scaled, lambda x: sc.gammainc(exp.nu, x))
        rows.append(ConvergenceRow(p, ks, exp.threshold))
    params = {"nu": exp.nu, "replications": exp.replications}
    return ConvergenceReport(
        "lemma14", params, "convergence", int(exp.seed), tuple(rows), scaled
    )


def _random_sums(exp: LimitExperiment) -> ConvergenceReport:
    """The one driver of thm6, thm7 and thm8 and their fixed-index controls.

    For grid value n at index i, the index N is drawn on substream 2i and
    the summands on substream 2i+1, Rademacher signs from its generator and
    any other summand from its blocks (``_grouped_sums``). All rows share
    one reference InversionCdf.
    """
    theorem, alpha, nu, reps = exp.theorem, exp.alpha, exp.nu, exp.replications
    fixed = exp.control == "fixed-index"
    params = {"alpha": alpha, "nu": nu, "replications": reps}
    if theorem == "thm7":
        params["summand"] = exp.summand if isinstance(exp.summand, str) else "custom"
    if theorem == "thm8":
        params["statistic"] = exp.statistic
    stats = []
    for index, n in enumerate(exp.grid):
        idx_rng = RandomStream(exp.seed, 2 * index).generator()
        sum_stream = RandomStream(exp.seed, 2 * index + 1)
        if fixed:
            counts = np.full(reps, int(n), dtype=np.int64)
        elif theorem == "thm6":
            counts = 1 + _neg_binom_draw(idx_rng, reps, nu, 1.0 / n)
        else:
            g = _gen_ml_values(idx_rng, reps, alpha / 2.0, nu)
            with np.errstate(divide="ignore", over="ignore"):
                v = 2.0 * g if theorem == "thm7" else 1.0 / (2.0 * g)
                scaled = np.round(float(n) * v)
            largest = scaled.max()
            if not largest < _INDEX_LIMIT:
                raise AccuracyError(
                    f"{theorem} at n = {n}: random index {largest:.6g} does "
                    "not fit in a 64-bit integer"
                )
            counts = np.maximum(1, scaled).astype(np.int64)
        if theorem == "thm6":
            draw = lambda rng, m: _stable_symmetric_values(rng, m, alpha)
        else:
            # thm8's statistic is a mean of Rademacher signs.
            draw = _summand_drawer(exp.summand or "rademacher")
        if draw is None:
            sums = _rademacher_sums(sum_stream.generator(), counts)
        else:
            sums = _grouped_sums(draw, counts, sum_stream)
        if theorem == "thm6":
            stat = sums * float(n) ** (-1.0 / alpha)
        elif theorem == "thm7":
            stat = sums / math.sqrt(float(n))
        else:
            # The mean of N signs (sigma = 1, theta = 0); the sum is lattice-exact.
            stat = math.sqrt(float(n)) * (sums / counts.astype(float))
        stats.append(stat)
    # One reference for all rows: the interpolation grid on [0, 2] does not
    # depend on x_max, and past 2 it is built out to the largest |statistic|.
    x_max = max(float(np.abs(stat).max()) for stat in stats)
    reference = InversionCdf(alpha, nu, max(x_max, 2.5))
    rows = tuple(
        ConvergenceRow(
            float(n),
            ks_one_sample(stat, reference),
            exp.threshold,
            ks_one_sample(stat, _normal_cdf) if fixed else None,
        )
        for n, stat in zip(exp.grid, stats)
    )
    mode = "negative-control" if fixed else "convergence"
    return ConvergenceReport(theorem, params, mode, int(exp.seed), rows, stats[-1])


def run_experiment(exp: LimitExperiment) -> ConvergenceReport:
    """Run one configured experiment; every theorem and the CLI go through here."""
    if not isinstance(exp, LimitExperiment):
        raise DomainError("expected a LimitExperiment")
    if exp.theorem == "lemma14":
        return _lemma14(exp)
    return _random_sums(exp)


def run_lemma14(
    nu,
    p_grid,
    replications: int = 100_000,
    seed: int = DEFAULT_SEED,
    *,
    threshold: float | None = None,
) -> ConvergenceReport:
    """Scaled negative binomial counts against the gamma(nu, 1) law."""
    return run_experiment(LimitExperiment(
        "lemma14", nu, grid=p_grid, replications=replications, seed=seed,
        threshold=threshold,
    ))


def run_thm6(
    alpha,
    nu,
    n_grid,
    replications: int = 100_000,
    seed: int = DEFAULT_SEED,
    *,
    threshold: float | None = None,
) -> ConvergenceReport:
    """Negative-binomial random sums of exactly-stable summands.

    Per replication: N ~ NB(nu, 1/n) on {1, 2, ...}, then the sum of N
    independent symmetric alpha-stable draws scaled by n^(-1/alpha).
    """
    return run_experiment(LimitExperiment(
        "thm6", nu, alpha, n_grid, replications, seed, threshold=threshold,
    ))


def run_thm7(
    alpha,
    nu,
    n_grid,
    replications: int = 100_000,
    seed: int = DEFAULT_SEED,
    *,
    summand="rademacher",
    threshold: float | None = None,
    control: str | None = None,
) -> ConvergenceReport:
    """Random sums with index N = max(1, round(n*V)), V twice a generalized
    Mittag-Leffler variate, normalized by sqrt(n).

    summand is "rademacher", "uniform" or a callable draw(rng, m) giving m
    iid summands of mean zero and variance one, which is not checked (the
    report says "custom"; any shape but (m,) raises DomainError).
    control="fixed-index" replaces V by the constant 1 (so N = n); the
    classical CLT then applies and the report flags non-convergence to the
    heavy-tailed target.
    """
    return run_experiment(LimitExperiment(
        "thm7", nu, alpha, n_grid, replications, seed, summand=summand,
        threshold=threshold, control=control,
    ))


def run_thm8(
    alpha,
    nu,
    n_grid,
    replications: int = 100_000,
    seed: int = DEFAULT_SEED,
    *,
    statistic="sample_mean",
    threshold: float | None = None,
    control: str | None = None,
) -> ConvergenceReport:
    """Asymptotically normal statistic at random sample size.

    statistic names the statistic in STATISTICS; "sample_mean" is the mean
    of N Rademacher signs (sigma = 1, theta = 0). sigma*sqrt(n)*(T_N -
    theta) is compared to the generalized Linnik target, whose law does not
    depend on sigma and theta. N = max(1, round(n*V)) with V the reciprocal
    of twice a generalized Mittag-Leffler variate. control="fixed-index"
    sets N = n, recovering the plain normal limit.
    """
    return run_experiment(LimitExperiment(
        "thm8", nu, alpha, n_grid, replications, seed, statistic=statistic,
        threshold=threshold, control=control,
    ))
