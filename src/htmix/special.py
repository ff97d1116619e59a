"""Special functions and characteristic-function inversion.

Scalar evaluation of the Mittag-Leffler function and the densities tied to
heavy-tailed mixture laws, plus Fourier inversion of the long-memory
characteristic function (1 + |t|^alpha)^(-nu).

The inversion integrals run over the whole half line: a head of graded
Gauss-Legendre panels, refined by bisection, reaches past t = 1, and the
oscillatory tail beyond it is integrated one half period at a time and summed
to its limit by repeated averaging of the alternating partial sums (the Euler
transform; Longman 1956). Both error estimates, the change between two
refinement rounds and the change made by the last averaging step, are held
below Accuracy.abs_tol, or AccuracyError is raised. One pass evaluates a
whole vector of abscissae: points with the same panel layout run as one
array batch, in blocks of at most about 1024 panels, each point refining
until it alone converges. InversionCdf fills its grid that way; the scalar
cdf_by_inversion and pdf_by_inversion are batches of one, and a point's
value does not depend on the batch it is part of.

Branch selection for the Mittag-Leffler family is tolerance-aware: the power
series is used only where float64 cancellation stays inside the error budget,
an algebraic tail expansion takes over once its optimal-truncation floor is
below the budget, and a completely monotone spectral integral covers the band
between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import integrate
from scipy import interpolate
from scipy import special as sc

from .distributions import GGParams, LinnikParams, MLParams, StableRatioParams, _power
from .errors import AccuracyError, DomainError, UnsupportedRegimeError

__all__ = [
    "Accuracy",
    "DEFAULT_ACCURACY",
    "gamma_fn",
    "mittag_leffler",
    "ml_density",
    "ml_cdf",
    "stable_ratio_density",
    "gg_density",
    "gleser_mixing_density",
    "snedecor_fisher_density",
    "genlinnik_cf",
    "genml_lst",
    "cdf_by_inversion",
    "pdf_by_inversion",
    "InversionCdf",
]

_EPS = 2.2e-16
_LN_EPS = math.log(_EPS)
_MAX_TERMS = 600  # series terms in the cancellation-sensitive branches
_QUAD_LIMIT = 200  # subinterval cap handed to the adaptive quadrature


@dataclass(frozen=True)
class Accuracy:
    """Error budget for series, tail, and quadrature evaluation.

    abs_tol
        Target absolute error for scalar special-function values.
    """

    abs_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not 0 < self.abs_tol < 1:
            raise DomainError("abs_tol must lie in (0, 1)")


DEFAULT_ACCURACY = Accuracy()


def _as_float(x, name: str) -> float:
    try:
        val = float(x)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be a real number") from exc
    if math.isnan(val):
        raise DomainError(f"{name} must not be NaN")
    return val


def gamma_fn(s) -> float:
    """Gamma function on the positive half line."""
    s = _as_float(s, "s")
    if s <= 0 or not math.isfinite(s):
        raise DomainError("s must be positive and finite")
    out = float(sc.gamma(s))
    if not math.isfinite(out):
        raise AccuracyError(f"gamma({s}) overflows float64")
    return out


def _resolvent_weight(u: np.ndarray, delta: float) -> np.ndarray:
    # Normalized: integrates to 1 over (0, inf).
    c = math.sin(math.pi * delta) / (math.pi * delta)
    return c / (1.0 + 2.0 * math.cos(math.pi * delta) * u + u * u)


def _series_roundoff_ok(ln_terms: np.ndarray, acc: Accuracy) -> bool:
    # Float64 cancellation noise scales with the sum of term magnitudes;
    # demand it stays below a two-hundredth of the budget.
    ln_sum_abs = float(sc.logsumexp(ln_terms))
    return ln_sum_abs <= math.log(acc.abs_tol * 0.005) - _LN_EPS


def _ml_series_negative(delta: float, x: float, acc: Accuracy):
    """Alternating series for E_delta(-x), x > 0, or None if unsafe."""
    ln_x = math.log(x)
    n = np.arange(_MAX_TERMS, dtype=float)
    ln_terms = n * ln_x - sc.gammaln(delta * n + 1.0)
    if not _series_roundoff_ok(ln_terms, acc):
        return None
    if ln_terms[-1] > math.log(acc.abs_tol) - 5.0:
        return None
    signs = np.where(n.astype(int) % 2 == 0, 1.0, -1.0)
    return float(np.sum(signs * np.exp(ln_terms)))


def _alternating_tail(delta: float, x: float, acc: Accuracy, *, density: bool):
    """Asymptotic tail of E_delta(-x) (or of the ML density) at large x.

    Terms are sin(pi delta k) Gamma(delta k) / (pi x^k) up to signs (with
    Gamma(delta k + 1) / x^(delta k + 1) in the density case). Truncation is
    controlled by the sine-free log envelope, so near-zero sine factors
    cannot trigger a premature stop. Returns None when the envelope's
    optimal-truncation floor misses the budget.
    """
    k = np.arange(1, 201, dtype=float)
    ln_x = math.log(x)
    if density:
        ln_env = sc.gammaln(delta * k + 1.0) - (delta * k + 1.0) * ln_x
    else:
        ln_env = sc.gammaln(delta * k) - k * ln_x
    ln_env = ln_env - math.log(math.pi)
    # Absolute budget alone would leave the far tail relatively biased and
    # shift integrated mass, so demand relative accuracy as well.
    ln_budget = min(math.log(acc.abs_tol * 0.1), float(ln_env[0]) + math.log(1e-9))
    if ln_env.min() > ln_budget:
        return None
    stop = int(np.nonzero(ln_env <= ln_budget)[0][0])
    kk = k[: stop + 1]
    signs = np.where(kk.astype(int) % 2 == 1, 1.0, -1.0)
    terms = signs * np.sin(math.pi * delta * kk) * np.exp(ln_env[: stop + 1])
    return float(np.sum(terms))


def _quad_split(fn, pieces, acc: Accuracy) -> float:
    total = 0.0
    err_total = 0.0
    for a, b in zip(pieces[:-1], pieces[1:]):
        val, err = integrate.quad(
            fn, a, b, epsabs=acc.abs_tol * 0.02, epsrel=1e-13,
            limit=_QUAD_LIMIT,
        )
        total += val
        err_total += err
    if err_total > acc.abs_tol:
        raise AccuracyError(
            f"spectral integral error estimate {err_total:.2e} exceeds abs_tol"
        )
    return total


def _spectral_pieces(delta: float, scale: float) -> list[float]:
    # The resolvent weight has complex poles at distance sin(pi (1 - delta))
    # from u = 1; bracket that ridge, and the decay scale of the exponential.
    w = min(max(math.sin(math.pi * (1.0 - delta)), 1e-9), 0.5)
    pts = {0.0, 0.25, 1.0 - 3 * w, 1.0 - w, 1.0, 1.0 + w, 1.0 + 3 * w, 4.0}
    for m in (0.5, 1.0, 2.0, 8.0):
        pts.add(m * scale)
    pieces = sorted(p for p in pts if 0.0 <= p < math.inf)
    return pieces + [math.inf]


def _ml_spectral_negative(delta: float, x: float, acc: Accuracy) -> float:
    """Completely monotone integral for E_delta(-x) in the middle band."""
    inv_delta = 1.0 / delta

    def integrand(u):
        return _resolvent_weight(u, delta) * np.exp(-((x * u) ** inv_delta))

    return _quad_split(integrand, _spectral_pieces(delta, 1.0 / x), acc)


def _ml_positive(delta: float, x: float) -> float:
    """E_delta(x) for x > 0 via a log-domain positive series."""
    arg = x ** (1.0 / delta)
    if arg > 705.0:
        raise AccuracyError("mittag_leffler overflows float64 for this argument")
    n_peak = arg / delta
    n_cap = int(min(3.0 * n_peak + 64.0, 2e6))
    if 3.0 * n_peak + 64.0 > 2e6:
        raise AccuracyError("series budget exceeded for mittag_leffler")
    n = np.arange(max(n_cap, _MAX_TERMS), dtype=float)
    ln_terms = n * math.log(x) - sc.gammaln(delta * n + 1.0)
    lse = float(sc.logsumexp(ln_terms))
    if ln_terms[-1] > lse - 40.0:
        raise AccuracyError("series truncation too early for mittag_leffler")
    out = math.exp(lse)
    if not math.isfinite(out):
        raise AccuracyError("mittag_leffler overflows float64 for this argument")
    return out


def mittag_leffler(delta, z, accuracy: Accuracy | None = None) -> float:
    """One-parameter Mittag-Leffler function E_delta(z) on the real line.

    E_delta(z) = sum_{n>=0} z^n / Gamma(delta n + 1), delta in (0, 1].
    Completely monotone in -z on the negative half line; E_1(z) = exp(z).
    """
    acc = accuracy or DEFAULT_ACCURACY
    delta = MLParams(delta).delta
    z = _as_float(z, "z")
    if not math.isfinite(z):
        raise DomainError("z must be finite")
    if delta == 1.0:
        if z > 709.0:
            raise AccuracyError("exp overflow in mittag_leffler")
        return math.exp(z)
    if z == 0.0:
        return 1.0
    if z > 0.0:
        return _ml_positive(delta, z)
    x = -z
    val = _ml_series_negative(delta, x, acc)
    if val is not None:
        return min(max(val, 0.0), 1.0)
    val = _alternating_tail(delta, x, acc, density=False)
    if val is not None:
        return min(max(val, 0.0), 1.0)
    return min(max(_ml_spectral_negative(delta, x, acc), 0.0), 1.0)


def _ml_density_series(delta: float, x: float, acc: Accuracy):
    ln_x = math.log(x)
    n = np.arange(1, _MAX_TERMS + 1, dtype=float)
    ln_terms = (delta * n - 1.0) * ln_x - sc.gammaln(delta * n)
    # Near the origin the first term dominates and the value itself is
    # large; roundoff is then relative to the value, which is the best a
    # float64 result can promise there.
    dominated_head = ln_terms[0] == ln_terms.max() and (
        ln_terms[1] - ln_terms[0] < math.log(0.5)
    )
    if not _series_roundoff_ok(ln_terms, acc) and not dominated_head:
        return None
    if ln_terms[-1] > math.log(acc.abs_tol) - 5.0 and not (
        dominated_head and ln_terms[-1] < ln_terms[0] - 40.0
    ):
        return None
    signs = np.where(n.astype(int) % 2 == 1, 1.0, -1.0)
    return float(np.sum(signs * np.exp(ln_terms)))


def _ml_density_spectral(delta: float, x: float, acc: Accuracy) -> float:
    inv_delta = 1.0 / delta

    def integrand(u):
        t = u**inv_delta
        return _resolvent_weight(u, delta) * t * np.exp(-x * t)

    return _quad_split(integrand, _spectral_pieces(delta, x**-delta), acc)


def ml_density(delta, x, accuracy: Accuracy | None = None) -> float:
    """Density of the Mittag-Leffler law with tail exponent delta at x >= 0.

    Equals sum_{n>=1} (-1)^(n-1) x^(delta n - 1) / Gamma(delta n). For
    delta < 1 the density diverges like x^(delta-1) at the origin (returned
    as inf at x = 0); delta = 1 is the unit exponential.
    """
    acc = accuracy or DEFAULT_ACCURACY
    delta = MLParams(delta).delta
    x = _as_float(x, "x")
    if x < 0 or not math.isfinite(x):
        raise DomainError("x must be nonnegative and finite")
    if delta == 1.0:
        return math.exp(-x) if x < 745.0 else 0.0
    if x == 0.0:
        return math.inf
    val = _ml_density_series(delta, x, acc)
    if val is not None:
        return max(val, 0.0)
    val = _alternating_tail(delta, x, acc, density=True)
    if val is not None:
        return max(val, 0.0)
    return max(_ml_density_spectral(delta, x, acc), 0.0)


def ml_cdf(delta, x, accuracy: Accuracy | None = None) -> float:
    """Distribution function of the Mittag-Leffler law at x >= 0."""
    acc = accuracy or DEFAULT_ACCURACY
    delta = MLParams(delta).delta
    x = _as_float(x, "x")
    if x < 0 or not math.isfinite(x):
        raise DomainError("x must be nonnegative and finite")
    if x == 0.0:
        return 0.0
    if delta == 1.0:
        return -math.expm1(-x) if x < 745.0 else 1.0
    val = 1.0 - mittag_leffler(delta, -(x**delta), acc)
    return min(max(val, 0.0), 1.0)


def stable_ratio_density(delta, x) -> float:
    """Density of the ratio of two independent one-sided stable laws.

    f(x) = sin(pi delta) x^(delta-1) /
           (pi [1 + x^(2 delta) + 2 x^delta cos(pi delta)]),  x > 0.

    The law is self-reciprocal: f(x) = x^(-2) f(1/x). delta = 1 is refused
    (the ratio degenerates to the point mass at 1).
    """
    delta = StableRatioParams(delta).delta
    x = _as_float(x, "x")
    if x <= 0 or not math.isfinite(x):
        raise DomainError("x must be positive and finite")
    xd = x**delta
    denom = math.pi * (1.0 + xd * xd + 2.0 * xd * math.cos(math.pi * delta))
    return math.sin(math.pi * delta) * x ** (delta - 1.0) / denom


def gg_density(r, alpha, lam, x) -> float:
    """Generalized gamma density |alpha| lam^r x^(alpha r - 1) e^(-lam x^alpha) / Gamma(r).

    The power exponent alpha may be negative (reciprocal laws) but not zero.
    """
    law = GGParams(r, alpha, lam)
    r, alpha, lam = law.r, law.alpha, law.lam
    x = _as_float(x, "x")
    if x <= 0 or not math.isfinite(x):
        raise DomainError("x must be positive and finite")
    ln = (
        r * math.log(lam)
        + (alpha * r - 1.0) * math.log(x)
        - lam * _power(x, alpha)
        - float(sc.gammaln(r))
    )
    return abs(alpha) * math.exp(ln)


def gleser_mixing_density(r, mu, z) -> float:
    """Density of the gamma-ratio mixing law supported on (mu, inf).

    f(z) = mu^r / (Gamma(1-r) Gamma(r)) * (z - mu)^(-r) / z for z > mu,
    and 0 at or below mu. r in (0, 1), mu > 0.
    """
    r = _as_float(r, "r")
    mu = _as_float(mu, "mu")
    z = _as_float(z, "z")
    if not 0 < r < 1:
        raise DomainError("r must lie in (0, 1)")
    if mu <= 0:
        raise DomainError("mu must be positive")
    if z <= mu:
        return 0.0
    const = mu**r / (float(sc.gamma(1.0 - r)) * float(sc.gamma(r)))
    return const * (z - mu) ** (-r) / z


def snedecor_fisher_density(r, x) -> float:
    """Density of the fractional-degree Fisher-type ratio law on (0, inf).

    f(x) = (1-r)^(1-r) r^r / (Gamma(1-r) Gamma(r)) * x^(-r) / (r + (1-r) x).
    """
    r = _as_float(r, "r")
    x = _as_float(x, "x")
    if not 0 < r < 1:
        raise DomainError("r must lie in (0, 1)")
    if x <= 0 or not math.isfinite(x):
        raise DomainError("x must be positive and finite")
    const = (1.0 - r) ** (1.0 - r) * r**r / (
        float(sc.gamma(1.0 - r)) * float(sc.gamma(r))
    )
    return const * x ** (-r) / (r + (1.0 - r) * x)


def genlinnik_cf(alpha, nu, t) -> float:
    """Characteristic function (1 + |t|^alpha)^(-nu), alpha in (0, 2], nu > 0."""
    law = LinnikParams(alpha, nu)
    alpha, nu = law.alpha, law.nu
    t = _as_float(t, "t")
    if not math.isfinite(t):
        raise DomainError("t must be finite")
    return (1.0 + _power(abs(t), alpha)) ** (-nu)


def genml_lst(delta, nu, s) -> float:
    """Laplace transform (1 + s^delta)^(-nu), delta in (0, 1], nu > 0, s >= 0."""
    law = MLParams(delta, nu)
    delta, nu = law.delta, law.nu
    s = _as_float(s, "s")
    if s < 0 or not math.isfinite(s):
        raise DomainError("s must be nonnegative and finite")
    return (1.0 + s**delta) ** (-nu)


# ---------------------------------------------------------------------------
# Fourier inversion of (1 + |t|^alpha)^(-nu)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_MAX_PANELS = 2_000_000
_BLOCK = 1024  # panels per vectorized block, to bound memory
_REFINE_ROUNDS = 7
_TAIL_HALF_PERIODS = 40


class _Inversion(NamedTuple):
    """Per-abscissa results of one batched inversion pass."""

    values: np.ndarray
    panels: np.ndarray  # head panels evaluated, over all refinement rounds
    rounds: np.ndarray  # refinement rounds until two agreed to abs_tol


def _cf_phi(t: np.ndarray, alpha: float, nu: float) -> np.ndarray:
    # |t|^alpha may overflow to inf far out; the cf is then 0, as it should be.
    with np.errstate(over="ignore"):
        return (1.0 + np.abs(t) ** alpha) ** (-nu)


def _panel_values(fn, edges: np.ndarray, ax: np.ndarray) -> np.ndarray:
    """16-point Gauss-Legendre integral of fn over each panel between edges.

    Row i of edges holds the panel edges for |x| = ax[i]; fn(t, ax) takes t
    of shape (rows, panels, 16) and the matching ax of shape (rows, 1, 1).
    The panels are taken in blocks of at most _BLOCK, a long row in pieces.
    """
    rows, n = edges.shape[0], edges.shape[1] - 1
    out = np.empty((rows, n))
    step = max(1, _BLOCK // n)
    for r in range(0, rows, step):
        for c in range(0, n, _BLOCK):
            e = edges[r : r + step, c : c + _BLOCK + 1]
            mid = 0.5 * (e[:, :-1] + e[:, 1:])
            half = 0.5 * (e[:, 1:] - e[:, :-1])
            t = mid[..., None] + half[..., None] * _GL_NODES
            vals = fn(t, ax[r : r + step, None, None]) @ _GL_WEIGHTS
            out[r : r + step, c : c + _BLOCK] = half * vals
    return out


def _panel_edges(ax: np.ndarray, shift: float, k0: int) -> list:
    """Head panel edges for |x| values that share k0, one row each.

    A row holds the zeros of the oscillation up to the k0-th, plus geometric
    grading towards the cusp of the cf at t = 0, sorted and without repeats.
    A grading point may coincide with a zero, so rows come back grouped by
    length, as (row indices, edges) pairs.
    """
    zeros = (np.arange(k0 + 1) + shift) * (np.pi / ax)[:, None]
    t_head = zeros[:, -1]
    grading = np.geomspace(np.maximum(t_head * 1e-10, 1e-300), t_head, 60, axis=1)
    edges = np.sort(np.concatenate([np.zeros((ax.size, 1)), zeros, grading], axis=1))
    fresh = np.ones(edges.shape, dtype=bool)
    fresh[:, 1:] = edges[:, 1:] != edges[:, :-1]
    counts = fresh.sum(axis=1)
    out = []
    for count in set(counts.tolist()):
        rows = np.flatnonzero(counts == count)
        out.append((rows, edges[rows][fresh[rows]].reshape(rows.size, count)))
    return out


def _refined_integral(fn, edges: np.ndarray, ax: np.ndarray, tol: float):
    """Integral over each row of edges, bisected until two rounds agree to tol.

    Returns the integrals and the refinement rounds each row took. A row
    leaves the batch once it converges; the others refine on.
    """
    vals = _panel_values(fn, edges, ax)
    # Float64 roundoff in the sum scales with the sum of panel magnitudes.
    if (tol < _EPS * np.abs(vals).sum(axis=1)).any():
        raise AccuracyError("abs_tol is below the float64 roundoff of the inversion sum")
    val = vals.sum(axis=1)
    out = np.empty(ax.size)
    rounds = np.empty(ax.size, dtype=np.int64)
    active = np.arange(ax.size)
    for r in range(1, _REFINE_ROUNDS + 1):
        if 2 * (edges.shape[1] - 1) > _MAX_PANELS:
            raise AccuracyError("inversion panel budget exceeded")
        # Each midpoint lies between its edges: interleaving them sorts them.
        finer = np.empty((active.size, 2 * edges.shape[1] - 1))
        finer[:, ::2] = edges
        finer[:, 1::2] = 0.5 * (edges[:, :-1] + edges[:, 1:])
        new_val = _panel_values(fn, finer, ax[active]).sum(axis=1)
        done = np.abs(new_val - val) <= tol
        out[active[done]] = new_val[done]
        rounds[active[done]] = r
        active, edges, val = active[~done], finer[~done], new_val[~done]
        if active.size == 0:
            return out, rounds
    raise AccuracyError("inversion quadrature did not converge to abs_tol")


def _euler_tail(fn, ax: np.ndarray, start: np.ndarray, tol: float) -> np.ndarray:
    """Tail integral of each row from t = start * pi / ax on, start given per
    row (see _oscillatory_integral)."""
    half_periods = start[:, None] + np.arange(_TAIL_HALF_PERIODS + 1)
    edges = half_periods * (np.pi / ax)[:, None]
    # Partial sums down the columns: averaging whole rows is the cheaper loop.
    sums = np.cumsum(_panel_values(fn, edges, ax), axis=1).T
    sums = np.concatenate([np.zeros((1, ax.size)), sums])
    while sums.shape[0] > 2:
        sums = 0.5 * (sums[:-1] + sums[1:])
    if (0.5 * np.abs(sums[1] - sums[0]) > tol).any():
        raise AccuracyError("oscillatory tail did not settle to abs_tol")
    return 0.5 * (sums[0] + sums[1])


def _oscillatory_integral(fn, ax: np.ndarray, shift: float,
                          acc: Accuracy) -> _Inversion:
    """Integral over (0, inf) of fn(t, ax) = g(t) sin(t ax) (shift 0) or
    g(t) cos(t ax) (shift 1/2), whose zeros lie at (k + shift) pi / ax, for
    each positive |x| in the array ax.

    Head: graded panels, refined by bisection until two rounds agree to
    abs_tol, up to the k0-th zero, k0 = max(8, ceil(ax / pi)), so that the
    head reaches past t = 1. Tail: one Gauss-Legendre panel per half period
    for the next 40 half periods; their alternating partial sums are carried
    to the limit by repeated averaging (the Euler transform). AccuracyError
    is raised when the last averaging step moves the value by more than
    abs_tol.

    Points that share k0 share a panel layout: their head edges are built
    once for the whole group, which is then refined in row blocks of about
    _BLOCK head panels. The tails of all points are summed in one pass, each
    from its own k0. Every row keeps the order of float operations of a
    batch of one, so a value does not depend on the other points it is
    evaluated with. All heads are refined before any tail, so when points
    fail in both, the head's AccuracyError is the one raised.
    """
    with np.errstate(over="ignore"):
        period = np.pi / ax
    k0 = np.maximum(8.0, np.ceil(ax / np.pi))
    if not np.isfinite(period).all() or (k0 > _MAX_PANELS).any():
        raise AccuracyError("inversion panel budget exceeded")
    res = _Inversion(np.empty(ax.size), np.empty(ax.size, dtype=np.int64),
                     np.empty(ax.size, dtype=np.int64))
    for k in sorted(set(k0.tolist())):
        group = np.flatnonzero(k0 == k)
        step = max(1, _BLOCK // (int(k) + 60))  # k0 + 59 or 60 head panels a row
        for rows, edges in _panel_edges(ax[group], shift, int(k)):
            rows = group[rows]
            for b in range(0, rows.size, step):
                idx = rows[b : b + step]
                res.values[idx], res.rounds[idx] = _refined_integral(
                    fn, edges[b : b + step], ax[idx], acc.abs_tol
                )
            first = edges.shape[1] - 1  # each refinement round doubles it
            res.panels[rows] = first * (2 ** (res.rounds[rows] + 1) - 1)
    res.values[:] += _euler_tail(fn, ax, k0 + shift, acc.abs_tol)
    return res


def _cdf_values(alpha: float, nu: float, xs: np.ndarray,
                accuracy: Accuracy | None) -> _Inversion:
    """cdf_by_inversion at every finite x in xs, in one batched pass."""
    inv = _Inversion(np.full(xs.size, 0.5), np.zeros(xs.size, dtype=np.int64),
                     np.zeros(xs.size, dtype=np.int64))
    nonzero = xs != 0.0
    x = xs[nonzero]

    def fn(t, ax):
        return np.sin(t * ax) / t * _cf_phi(t, alpha, nu)

    res = _oscillatory_integral(fn, np.abs(x), 0.0, accuracy or DEFAULT_ACCURACY)
    inv.values[nonzero] = np.clip(0.5 + np.copysign(res.values / np.pi, x), 0.0, 1.0)
    inv.panels[nonzero] = res.panels
    inv.rounds[nonzero] = res.rounds
    return inv


def cdf_by_inversion(alpha, nu, x, accuracy: Accuracy | None = None) -> float:
    """Distribution function of the symmetric law with cf (1+|t|^alpha)^(-nu).

    Gil-Pelaez inversion: 1/2 + (1/pi) * integral over (0, inf) of
    sin(t x)/t * cf(t). The integral is a refined head plus an oscillatory
    tail summed by repeated averaging (see _oscillatory_integral), so no
    truncation point is involved. Both parts' error estimates stay below
    accuracy.abs_tol, or AccuracyError is raised; the test suite checks
    this over alpha in (0, 2], nu in [0.05, 10] and |x| in [1e-3, 1e4].
    """
    law = LinnikParams(alpha, nu)
    alpha, nu = law.alpha, law.nu
    x = _as_float(x, "x")
    if not math.isfinite(x):
        raise DomainError("x must be finite")
    return float(_cdf_values(alpha, nu, np.array([x]), accuracy).values[0])


def pdf_by_inversion(alpha, nu, x, accuracy: Accuracy | None = None) -> float:
    """Density of the symmetric law with cf (1+|t|^alpha)^(-nu).

    (1/pi) * integral over (0, inf) of cos(t x) * cf(t), computed as in
    cdf_by_inversion with the same accuracy.abs_tol contract. Requires
    alpha * nu > 1 so that the cf is absolutely integrable; other regimes
    raise UnsupportedRegimeError. The density is even in x.
    """
    law = LinnikParams(alpha, nu)
    alpha, nu = law.alpha, law.nu
    x = _as_float(x, "x")
    if not math.isfinite(x):
        raise DomainError("x must be finite")
    if alpha * nu <= 1.0:
        raise UnsupportedRegimeError(
            "density inversion requires alpha * nu > 1; the characteristic "
            "function is not absolutely integrable here"
        )
    ax = abs(x)
    if ax == 0.0:
        return float(
            sc.gamma(1.0 / alpha)
            * sc.gamma(nu - 1.0 / alpha)
            / (sc.gamma(nu) * alpha * math.pi)
        )

    def fn(t, ax):
        return np.cos(t * ax) * _cf_phi(t, alpha, nu)

    res = _oscillatory_integral(fn, np.array([ax]), 0.5, accuracy or DEFAULT_ACCURACY)
    return float(max(res.values[0] / math.pi, 0.0))


class InversionCdf:
    """Vectorized distribution function of the cf (1+|t|^alpha)^(-nu).

    Monotone interpolation of inversion values over a mixed linear/log
    abscissa grid on [0, x_max], extended to the whole line by symmetry.
    Arguments beyond x_max are clamped to the boundary value, so build with
    x_max at least as large as the largest |x| to be evaluated. At
    alpha * nu < 2 the grid adds n_linear log-spaced points on [1e-8, 2],
    which resolve the singular term of the density at 0. The whole grid is
    inverted in one batched pass under the given accuracy (head edges built
    once per k0 group, one tail pass over all points; see
    _oscillatory_integral), and every grid value equals cdf_by_inversion at
    that point bit for bit. The grid on [0, 2] does not depend on x_max, so
    one build out to the largest |x| of several samples serves them all.

    Deterministic build counters: points (grid abscissae), head_panels (head
    quadrature panels evaluated over all points and refinement rounds) and
    max_rounds (the most refinement rounds any point needed).
    """

    def __init__(
        self,
        alpha,
        nu,
        x_max,
        n_linear: int = 200,
        n_log: int = 600,
        accuracy: Accuracy | None = None,
    ) -> None:
        law = LinnikParams(alpha, nu)
        alpha, nu = law.alpha, law.nu
        x_max = _as_float(x_max, "x_max")
        if not 0 < x_max < math.inf:
            raise DomainError("x_max must be positive and finite")
        self.alpha = alpha
        self.nu = nu
        hi = max(x_max * 1.0001, 2.5)
        parts = [np.linspace(0.0, 2.0, n_linear), np.geomspace(2.0, hi, n_log)]
        if alpha * nu < 2.0:
            # Below alpha nu = 2 the density carries a |x|^(alpha nu - 1) term
            # at 0 (a pole below 1, a log at 1, a cusp above), too sharp for
            # the linear grid alone.
            parts.append(np.geomspace(1e-8, 2.0, n_linear))
        xs = np.unique(np.concatenate(parts))
        inv = _cdf_values(alpha, nu, xs, accuracy)
        vals = np.clip(np.maximum.accumulate(inv.values), 0.5, 1.0)
        self.points = int(xs.size)
        self.head_panels = int(inv.panels.sum())
        self.max_rounds = int(inv.rounds.max())
        self.x_max = float(xs[-1])
        self._interp = interpolate.PchipInterpolator(xs, vals)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        ax = np.minimum(np.abs(x), self.x_max)
        upper = self._interp(ax)
        out = np.where(x >= 0.0, upper, 1.0 - upper)
        return np.clip(out, 0.0, 1.0)
