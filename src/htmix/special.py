"""Special functions and characteristic-function inversion.

Scalar evaluation of the Mittag-Leffler function and the densities tied to
heavy-tailed mixture laws, plus Fourier inversion of the long-memory
characteristic function (1 + |t|^alpha)^(-nu).

The inversion rotates the Gil-Pelaez integrals onto a ray t = u e^(i beta)
where e^(ixt) is damped instead of oscillating; at alpha <= 1 it is the
imaginary axis, the exponential-mixture form of Kozubowski (2000) and of
Erdogan & Ostrovskii (1998). Fixed Gauss-Legendre panels in ln u integrate
it; a 32-point and a 24-point rule on the same panels must agree to
Accuracy.abs_tol, or AccuracyError is raised. One pass evaluates a whole
vector of abscissae, each a sum of its own panels in a fixed order, so
InversionCdf's grid values are the scalar values bit for bit. The x-free
parts of a law's sums are built on first use, in bounded caches of read-only
arrays whose entries each depend on their lattice index alone, so a value
does not depend on the calls or threads before it either.

Branch selection for the Mittag-Leffler family is tolerance-aware: the power
series is used only where float64 cancellation stays inside the error budget,
an algebraic tail expansion takes over once its optimal-truncation floor is
below the budget, and the band between them is the damped rule's, applied to
the law's Laplace transform 1 / (1 + s^delta) with E_delta(-x) =
1 - F(x^(1/delta)). The terms of the series and of the tail that do not
depend on x (log-gammas, powers, signs and sines) are tabled per delta on
first use, in a bounded cache of read-only arrays, so a call pays only for its
x.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import (
    _FAMILY_TABLE, GGParams, LinnikParams, MLParams, StableRatioParams, ZParams, _power
)
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
_LN_PI = math.log(math.pi)
_MAX_TERMS = 600  # series terms in the cancellation-sensitive branches
_CALL_BLOCK = 1 << 13  # InversionCdf evaluates its points in blocks of this many


@dataclass(frozen=True)
class Accuracy:
    """Error budget for series, tail and inversion evaluation.

    abs_tol
        Target absolute error for scalar special-function values: a series
        or tail runs only where it fits, and an inversion's 32-point and
        24-point sums must agree to it, or AccuracyError is raised.
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
    import scipy.special as sc

    out = float(sc.gamma(s))
    if not math.isfinite(out):
        raise AccuracyError(f"gamma({s}) overflows float64")
    return out


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays made read-only, so a cached table cannot be written."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


_SIGNS = _frozen(np.where(np.arange(_MAX_TERMS) % 2 == 0, 1.0, -1.0))[0]  # (-1)^n, n >= 0


@functools.lru_cache(maxsize=128)
def _ml_table(delta: float, density: bool):
    """The x-free terms of E_delta(-x), or if density of the ML density.
    Series (see _ml_series): the power of x and the log-gamma of the first
    _MAX_TERMS terms (-1)^n x^n / Gamma(delta n + 1), n >= 0, or (-1)^(n-1)
    x^(delta n - 1) / Gamma(delta n), n >= 1, signed by _SIGNS. Tail (see
    _alternating_tail), for k = 1 .. 200: the log-gamma part of the envelope,
    the power of x it divides by, and (-1)^(k-1) sin(pi delta k)."""
    import scipy.special as sc

    n = np.arange(int(density), _MAX_TERMS + int(density), dtype=float)
    k = np.arange(1, 201, dtype=float)
    if density:
        series = delta * n - 1.0, sc.gammaln(delta * n)
        tail = sc.gammaln(delta * k + 1.0), delta * k + 1.0
    else:
        series = n, sc.gammaln(delta * n + 1.0)
        tail = sc.gammaln(delta * k), k
    signed_sin = np.where(k.astype(int) % 2 == 1, 1.0, -1.0) * np.sin(math.pi * delta * k)
    return _frozen(*series), _frozen(*tail, signed_sin)


def _logsumexp(a: np.ndarray) -> float:
    """scipy.special.logsumexp(a) of a finite real vector, by the steps of
    scipy 1.17's real-input _logsumexp with the same numpy ufuncs, so the
    bits agree: the max terms are split out of the sum and counted (m), and
    the result is log1p(s / m) + log(m) + max, s the sum of the rest."""
    a_max = a.max()
    top = a == a_max
    m = np.float64(np.count_nonzero(top))
    shifted = np.exp(a - a_max)
    shifted[top] = 0.0
    return float(np.log1p(shifted.sum() / m) + np.log(m) + a_max)


def _series_roundoff_ok(ln_terms: np.ndarray, acc: Accuracy) -> bool:
    # Float64 cancellation noise scales with the sum of term magnitudes;
    # demand it stays below a two-hundredth of the budget.
    return _logsumexp(ln_terms) <= math.log(acc.abs_tol * 0.005) - _LN_EPS


def _ml_series(delta: float, x: float, density: bool, acc: Accuracy):
    """Alternating series for E_delta(-x), or the ML density at x if
    density, x > 0, or None if unsafe."""
    power, gln = _ml_table(delta, density)[0]
    ln_terms = power * math.log(x) - gln
    # Near the origin the density's first term dominates and its value is
    # large; roundoff is then relative to the value, which is the best a
    # float64 result can promise there.
    dominated_head = density and (
        ln_terms[0] == ln_terms.max() and ln_terms[1] - ln_terms[0] < math.log(0.5)
    )
    if ln_terms[-1] > math.log(acc.abs_tol) - 5.0 and not (
        dominated_head and ln_terms[-1] < ln_terms[0] - 40.0
    ):
        return None
    if not dominated_head and not _series_roundoff_ok(ln_terms, acc):
        return None
    return float(np.sum(_SIGNS * np.exp(ln_terms)))


def _alternating_tail(delta: float, x: float, acc: Accuracy, *, density: bool):
    """Asymptotic tail of E_delta(-x) (or of the ML density) at large x.

    Terms are sin(pi delta k) Gamma(delta k) / (pi x^k) up to signs (with
    Gamma(delta k + 1) / x^(delta k + 1) in the density case). Truncation is
    controlled by the sine-free log envelope, so near-zero sine factors
    cannot trigger a premature stop. Returns None when the envelope's
    optimal-truncation floor misses the budget.
    """
    gln, power, signed_sin = _ml_table(delta, density)[1]
    ln_env = gln - power * math.log(x) - _LN_PI
    # Absolute budget alone would leave the far tail relatively biased and
    # shift integrated mass, so demand relative accuracy as well.
    ln_budget = min(math.log(acc.abs_tol * 0.1), float(ln_env[0]) + math.log(1e-9))
    within = ln_env <= ln_budget
    if not within.any():
        return None
    stop = int(within.argmax())
    return float(np.sum(signed_sin[: stop + 1] * np.exp(ln_env[: stop + 1])))


def _ml_positive(delta: float, x: float) -> float:
    """E_delta(x) for x > 0 via a log-domain positive series."""
    arg = x ** (1.0 / delta)
    if arg > 705.0:
        raise AccuracyError("mittag_leffler overflows float64 for this argument")
    n_peak = arg / delta
    n_cap = int(min(3.0 * n_peak + 64.0, 2e6))
    if 3.0 * n_peak + 64.0 > 2e6:
        raise AccuracyError("series budget exceeded for mittag_leffler")
    import scipy.special as sc

    n = np.arange(max(n_cap, _MAX_TERMS), dtype=float)
    ln_terms = n * math.log(x) - sc.gammaln(delta * n + 1.0)
    lse = _logsumexp(ln_terms)
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
    return min(max(_ml_negative(delta, -z, False, acc), 0.0), 1.0)


def _ml_negative(delta: float, x: float, density: bool, acc: Accuracy) -> float:
    """E_delta(-x), or the Mittag-Leffler density at x if density, for x > 0:
    the series where it is safe, else the tail, else the damped inversion of
    the law's Laplace transform 1 / (1 + s^delta) (see _upper), at x for the
    density and at x^(1/delta) for E_delta(-x) = 1 - F(x^(1/delta)), whose
    log -ln(x) / delta it takes where that power leaves float64."""
    val = _ml_series(delta, x, density, acc)
    if val is None:
        val = _alternating_tail(delta, x, acc, density=density)
    if val is not None:
        return val
    ax = x if density else _power(x, 1.0 / delta)
    v_star = -np.log(np.array([ax])) if 0.0 < ax < math.inf else np.array([-math.log(x) / delta])
    return float(_invert((delta, 1.0, density, True), v_star, acc).values[0])


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
    return max(_ml_negative(delta, x, True, acc), 0.0)


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
    return min(max(1.0 - _ml_negative(delta, x**delta, False, acc), 0.0), 1.0)


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
    try:
        return math.sin(math.pi * delta) * x ** (delta - 1.0) / denom
    except OverflowError:
        raise AccuracyError(f"stable_ratio_density({delta}, {x}) exceeds float64") from None


def gg_density(r, alpha, lam, x) -> float:
    """Generalized gamma density |alpha| lam^r x^(alpha r - 1) e^(-lam x^alpha) / Gamma(r).

    The power exponent alpha may be negative (reciprocal laws) but not zero.
    """
    law = GGParams(r, alpha, lam)
    r, alpha, lam = law.r, law.alpha, law.lam
    x = _as_float(x, "x")
    if x <= 0 or not math.isfinite(x):
        raise DomainError("x must be positive and finite")
    import scipy.special as sc

    ln = (
        r * math.log(lam)
        + (alpha * r - 1.0) * math.log(x)
        - lam * _power(x, alpha)
        - float(sc.gammaln(r))
    )
    try:
        return abs(alpha) * math.exp(ln)
    except OverflowError:
        raise AccuracyError(f"gg_density({r}, {alpha}, {lam}, {x}) exceeds float64") from None


def gleser_mixing_density(r, mu, z) -> float:
    """Density of the gamma-ratio mixing law supported on (mu, inf).

    f(z) = mu^r / (Gamma(1-r) Gamma(r)) * (z - mu)^(-r) / z for z > mu,
    and 0 at or below mu: the z_mix law of ZParams(r, mu) short of its
    point-mass end r = 1, so r in (0, 1) and mu positive and finite.
    """
    law = ZParams(r, mu)
    r, mu = law.r, law.mu
    if r == 1.0:
        raise DomainError("r must lie in (0, 1); at r = 1 the law is the point mass at mu")
    z = _as_float(z, "z")
    if z <= mu:
        return 0.0
    import scipy.special as sc

    const = mu**r / (float(sc.gamma(1.0 - r)) * float(sc.gamma(r)))
    out = const * _power(z - mu, -r) / z
    if out == math.inf:
        raise AccuracyError(f"gleser_mixing_density({r}, {mu}, {z}) exceeds float64")
    return out


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
    import scipy.special as sc

    const = (1.0 - r) ** (1.0 - r) * r**r / (
        float(sc.gamma(1.0 - r)) * float(sc.gamma(r))
    )
    try:
        return const * x ** (-r) / (r + (1.0 - r) * x)
    except OverflowError:
        raise AccuracyError(f"snedecor_fisher_density({r}, {x}) exceeds float64") from None


def genlinnik_cf(alpha, nu, t) -> float:
    """Characteristic function (1 + |t|^alpha)^(-nu), alpha in (0, 2], nu > 0:
    the gen_linnik family's cf."""
    law = LinnikParams(alpha, nu)
    t = _as_float(t, "t")
    if not math.isfinite(t):
        raise DomainError("t must be finite")
    return _FAMILY_TABLE["gen_linnik"].cf(law)(t)


def genml_lst(delta, nu, s) -> float:
    """Laplace transform (1 + s^delta)^(-nu), delta in (0, 1], nu > 0, s >= 0:
    the gen_mittag_leffler family's lst."""
    law = MLParams(delta, nu)
    s = _as_float(s, "s")
    if s < 0 or not math.isfinite(s):
        raise DomainError("s must be nonnegative and finite")
    return _FAMILY_TABLE["gen_mittag_leffler"].lst(law)(s)


# ---------------------------------------------------------------------------
# Inversion of (1 + |t|^alpha)^(-nu) along a damped ray
#
# For x > 0, Gil-Pelaez's integrals over t > 0 move onto the ray
# t = u e^(i beta), which the cf reaches without a singularity (its nearest
# lies at angle pi/alpha) and on which e^(ixt) decays like e^(-xu sin beta).
# With k = (1 + t^alpha)^(-nu) and v = ln u, over the whole v axis,
#     1 - F(x) = -(1/pi) Im int e^(ixt) (k - 1) dv,  f(x) = (1/pi) Re int e^(ixt) k t dv.
# The positive law with Laplace transform (1 + s^alpha)^(-nu), the
# Mittag-Leffler law at nu = 1, has cf k(-t) with k = (1 + (it)^alpha)^(-nu),
# and the same two integrals hold with that k; on the imaginary axis they are
# the spectral integrals of E_alpha (Gorenflo, Loutchko & Luchko 2002).
# Below a point's damped window, e^(ixt) is its Taylor head 1 + ixt + (ixt)^2/2,
# so each power of x multiplies a cached x-free moment Re[(i e^(i beta) u)^k kappa].
# Im t >= 0 on every ray, so the remainder is at most |xt|^3/3! <= e^-38 below
# ln u = ln(1/x) - _HEAD, where the window starts. Below ln(1/x) - 38 the head
# is 1 alone, as |e^(ixt) - 1| <= xu < e^-38 there, so the moments span only
# the plan's deep fine panels between: coarse panels there, 1566 wide in ln u
# for the Mittag-Leffler law at delta = 0.003, cannot integrate u^k or the
# density's growth.

_STRIP = 1.5  # panel width over the half-width of the integrand's analytic strip
_HEAD = (38.0 - math.log(6.0)) / 3.0  # where a damped window starts, below ln(1/x)
_FAR = 40.0  # below ln u = -40/alpha, u^alpha < e^-40
_TURNS = 16.0  # alpha * nu up to which the panels need not narrow
_RISE = math.log(1e3)  # the most the kernel may rise above 1 on the imaginary axis
_MOST_PANELS = 4096  # fine panels per damped window
_ENTRIES = 1 << 15  # damped matrix entries per row block, to bound memory
_CHUNK = 8  # fine panels per cached lattice chunk, and window starts per chunk of heads
_COARSE = 16  # coarse panels in the running sums' level 0; level b adds 2^b times as many
_NO_HEADS = _frozen(np.zeros((10, _CHUNK)))[0]  # in place of a chunk that holds no start


class _Inversion(NamedTuple):
    """Per-abscissa results of one inversion pass."""

    values: np.ndarray
    nodes: np.ndarray  # nodes of the 32-point rule the value sums over
    errors: np.ndarray  # |32-point value - 24-point value|


class _Ray(NamedTuple):
    beta: float  # the ray's angle, with its sin and cos (0 on the imaginary axis)
    sin: float
    cos: float
    psi: float  # the angle of the kernel's power on the ray
    coarse: float  # panel width in v below a point's damped window
    fine: float  # panel width in the window; coarse / fine is a whole number


@functools.cache
def _nodes():
    """Nodes and weights on [0, 1]: the 32-point rule's, then the 24-point's."""
    rules = [np.polynomial.legendre.leggauss(n) for n in (32, 24)]
    return tuple(0.5 * (np.concatenate([r[i] for r in rules]) + 1.0 - i) for i in (0, 1))


def _ray(alpha: float, nu: float, lst: bool = False) -> _Ray:
    """The ray for the cf's kernel (1 + t^alpha)^(-nu), or if lst for the
    Laplace transform's, (1 + s^alpha)^(-nu) at s = it: on t = u e^(i beta)
    the power is u^alpha e^(i psi), psi = alpha (beta + turn), turn = pi/2
    for the lst. The imaginary axis, where e^(ixt) = e^(-xu), unless
    psi > pi/2 there: |1 + u^alpha e^(i psi)| then falls to sin(psi), raising
    the kernel to that power -nu in a strip narrowed to (pi - psi)/alpha.
    Past psi = 3 pi/4 or a 1000-fold rise the ray tilts to the beta where
    that strip equals e^(ixt)'s, (pi/alpha - turn)/2."""
    turn = math.pi / 2 if lst else 0.0
    axis = 2.0 * alpha if lst else alpha  # psi / (pi/2) on the imaginary axis
    beta = math.pi / 2
    if axis > 1.5 or (axis > 1.0 and -nu * math.log(math.sin(beta * axis)) > _RISE):
        beta = (math.pi / alpha - turn) / 2.0
    # The kernel's phase turns alpha nu times as fast as u^alpha grows;
    # e^(ixt) is bounded from -beta to pi - beta.
    kernel = math.pi / alpha - beta - turn
    coarse = _STRIP * kernel / max(1.0, alpha * nu / _TURNS)
    if not (math.isfinite(coarse) and math.isfinite(_FAR / alpha)):
        raise AccuracyError(f"alpha = {alpha!r} is below the inversion's range")
    fine = coarse / max(1.0, math.floor(kernel / min(beta, kernel)))
    psi = alpha * (beta + turn)
    if beta == math.pi / 2:
        return _Ray(beta, 1.0, 0.0, psi, coarse, fine)
    return _Ray(beta, math.sin(beta), math.cos(beta), psi, coarse, fine)


def _kernel(alpha, nu, ray: _Ray, v, density: bool) -> np.ndarray:
    """kappa at v = ln u: Re[e^(ixt) kappa] is the integrand of 1 - F(x), or
    of f(x) if density. Formed from ln u, so u^alpha never overflows."""
    psi = ray.psi  # t^alpha = u^alpha e^(i psi)
    w = alpha * v
    near = np.exp(-np.abs(w))  # min(u^alpha, u^-alpha)
    low, high = np.where(w > 0.0, 1.0, near), np.where(w > 0.0, near, 1.0)
    ln_mod = np.maximum(w, 0.0) + 0.5 * np.log1p(near * (2.0 * math.cos(psi) + near))
    arg = np.arctan2(low * math.sin(psi), high + low * math.cos(psi))  # of 1 + t^alpha
    if not ray.cos:  # on the imaginary axis only Re kappa = -Im(k) u^density / pi is used
        return np.exp(density * v - nu * ln_mod) * np.sin(nu * arg) / math.pi
    if density:  # e^(i beta) k u / pi
        return np.exp(v + 1j * ray.beta - nu * (ln_mod + 1j * arg)) / math.pi
    return 1j * np.expm1(-nu * (ln_mod + 1j * arg)) / math.pi  # i (k - 1) / pi


def _far_left(alpha, nu, ray: _Ray, v, density: bool):
    """Integral of Re kappa over (-inf, v], where u^alpha < e^-40 and
    e^(ixt) = 1, from its first term in u^alpha, in closed form."""
    if density:
        # cos(beta + psi), as cos((1 + alpha) beta) to the bit for the cf
        lead = math.cos((1.0 + alpha) * ray.beta + (ray.psi - alpha * ray.beta))
        return (ray.cos * np.exp(v) - nu * lead
                * np.exp((1.0 + alpha) * v) / (1.0 + alpha)) / math.pi
    return nu * math.sin(ray.psi) / (alpha * math.pi) * np.exp(alpha * v)


def _rule_sums(f: np.ndarray) -> np.ndarray:
    """Both rules' sums of weighted terms over the last axis, in place of it,
    the 32-point first."""
    return np.add.reduceat(f, (0, 32), axis=-1)


class _Plan(NamedTuple):
    """The x-free part of one law's inversion; see _upper."""

    ray: _Ray
    width: int  # fine panels per damped window
    deep: int  # fine panels of the Taylor head's moments, from ln(1/x) - 38 up to a window
    j_lo: int  # the first coarse panel
    grow: np.ndarray  # u / e^v_win at a window's nodes
    moment: np.ndarray  # (i e^(i beta) u / e^v_panel)^k / k! times the weight, at a panel's nodes
    rise: np.ndarray  # e^(k (v_panel - v_first)) over a chunk's deep panels, for k = 0, 1, 2
    fall: np.ndarray  # e^(-k (v_win - v_first)) at a chunk's window starts


@functools.lru_cache(maxsize=16)
def _plan(alpha, nu, density: bool, lst: bool) -> _Plan:
    ray, (t, w) = _ray(alpha, nu, lst), _nodes()
    width = math.ceil((_HEAD + math.log(40.0 / ray.sin)) / ray.fine) + 1
    if width > _MOST_PANELS:
        raise AccuracyError(f"alpha * nu = {alpha * nu:.3g} needs too many panels")
    deep, k = math.ceil((38.0 - _HEAD) / ray.fine), np.arange(3)[:, None, None]
    iu = complex(-ray.sin, ray.cos) * np.exp(ray.fine * t)  # i e^(i beta) u / e^v_panel
    moment = np.array([np.ones(t.size), iu, 0.5 * iu * iu])[:, None] * (w * ray.fine)
    return _Plan(ray, width, deep, math.floor(-_FAR / alpha / ray.coarse), *_frozen(
        np.exp((np.arange(width)[:, None] + t) * ray.fine), moment,
        np.exp(k * ray.fine * np.arange(deep + _CHUNK - 1)[:, None]),
        np.exp(-k * ray.fine * (deep + np.arange(_CHUNK)[:, None]))))


@functools.lru_cache(maxsize=16)
def _coarse(law: tuple, b: int) -> np.ndarray:
    """Level b: the running sums of the coarse panels j_lo .. j - 1 at j - j_lo = 0 ..
    _COARSE (2^(b+1) - 1), both rules' then the 32-point rule's of |panel|, from one
    cumsum, so level b - 1 is its first columns bit for bit. A one-point call builds
    one level; a batch or a sweep over x may build more, under twice its top level's panels."""
    (alpha, nu, density, _), plan, (t, w) = law, _plan(*law), _nodes()
    j, step, ray = plan.j_lo + np.arange(_COARSE * (2 ** (b + 1) - 1)), _ENTRIES // t.size, plan.ray
    with np.errstate(over="ignore", invalid="ignore"):  # nodes no point may need
        panels = np.concatenate([  # in row blocks, to bound memory
            _rule_sums(_kernel(alpha, nu, ray, (j[i:i + step, None] + t) * ray.coarse,
                               density).real * w) for i in range(0, j.size, step)]).T
    panels *= ray.coarse
    sums = np.concatenate([np.zeros((3, 1)), np.vstack([panels, np.abs(panels[0])])], axis=1)
    return _frozen(np.cumsum(sums, axis=1))[0]


@functools.lru_cache(maxsize=512)
def _lattice(law: tuple, c: int) -> np.ndarray:
    """The weighted kernel at the nodes of fine panels c _CHUNK .. (c + 1) _CHUNK - 1."""
    (alpha, nu, density, _), plan, (t, w) = law, _plan(*law), _nodes()
    fine_v = (np.arange(c * _CHUNK, (c + 1) * _CHUNK)[:, None] + t) * plan.ray.fine
    with np.errstate(over="ignore", invalid="ignore"):  # nodes no point may need
        return _frozen(_kernel(alpha, nu, plan.ray, fine_v, density) * (w * plan.ray.fine))[0]


@functools.lru_cache(maxsize=1024)
def _heads(law: tuple, c: int) -> np.ndarray:
    """For the windows that start at fine panels c _CHUNK .. (c + 1) _CHUNK - 1,
    at v_win: for k = 0, 1, 2, both rules' sums of Re[(i e^(i beta) u)^k kappa]
    e^(-k v_win) / k! over the plan's deep fine panels below them, and for k = 0
    also over all below those (the coarse panels' from one _coarse level, the lowest
    that reaches every window), each followed by the 32-point rule's of |.|; then
    the 32-point rule's node counts."""
    (alpha, nu, density, _), plan, (t, w) = law, _plan(*law), _nodes()
    ray, n = plan.ray, np.arange(c * _CHUNK, (c + 1) * _CHUNK) - plan.deep
    v_deep = n * ray.fine  # where the deep panels below a window begin
    j = np.maximum(np.floor(v_deep / ray.coarse), plan.j_lo)  # coarse panels j_lo .. j - 1
    span = np.maximum(v_deep - j * ray.coarse, 0.0)
    cut = span > 0.0
    pick = (j - plan.j_lo).astype(np.int64)
    level = int(pick.max() // _COARSE + 1).bit_length() - 1  # the lowest that holds every pick
    below = _coarse(law, level)[:, pick] if pick.any() else np.zeros((3, _CHUNK))
    deep, m, part = plan.deep, plan.moment, np.zeros((2, _CHUNK))
    with np.errstate(over="ignore", invalid="ignore"):  # windows no point may need
        partial, kappa = np.split(_kernel(alpha, nu, ray, np.concatenate([  # in one call
            j[cut, None] * ray.coarse + t * span[cut, None],
            (n[0] + np.arange(deep + _CHUNK - 1)[:, None] + t) * ray.fine]), density),
            [cut.sum()])
        part[:, cut] = _rule_sums(partial.real * w).T * span[cut]
        left = _far_left(alpha, nu, ray, np.minimum(v_deep, plan.j_lo * ray.coarse), density)
        # Re[moment kappa] at the deep panels by both rules, by k, panel and rule, times
        # e^(k v_panel) up to a constant, and summed from the first deep panel by a cumsum
        sums = _rule_sums(m.real * kappa.real - m.imag * kappa.imag if ray.cos
                          else m.real * kappa)
        sums = np.concatenate([sums, np.abs(sums[..., :1])], axis=2) * plan.rise
        run = np.cumsum(np.concatenate([np.zeros((3, 1, 3)), sums], axis=1), axis=1)
        rows = run[:, deep:] - run[:, :_CHUNK]
        rows[..., 2] = run[:, deep:, 2]  # |.| of all panels below a window
        rows *= plan.fall
    rows[0, :, :2] += (left + below[:2] + part).T
    rows[0, :, 2] += np.abs(left) + below[2] + np.abs(part[0])
    rows = rows.transpose(0, 2, 1).reshape(9, _CHUNK)
    return _frozen(np.vstack([rows, 32 * (pick + cut + plan.deep + plan.width)]))[0]


def _chunks(start: np.ndarray, width: int) -> tuple[list, set, np.ndarray]:
    """The chunks that windows of width fine panels from start touch, in order;
    those that hold a start; and where each start falls in their concatenation.
    A batch builds the chunks its points need, and no others."""
    low = start // _CHUNK
    spans = set(zip(low.tolist(), ((start + width - 1) // _CHUNK).tolist()))
    touched = np.array(sorted({c for lo, hi in spans for c in range(lo, hi + 1)}))
    at = np.searchsorted(touched, low) * _CHUNK + start % _CHUNK
    return touched.tolist(), {lo for lo, _ in spans}, at


def _upper(alpha, nu, ax: np.ndarray, density: bool, accuracy) -> _Inversion:
    """1 - F(x), or f(x) if density, at each x > 0 in ax, of the law with cf
    (1 + |t|^alpha)^(-nu); the Laplace law (2, 1) is in closed form.

    A point sums, by both rules: the closed far-left tail; the undamped
    panels of a coarse lattice in ln u fixed by alpha and nu; one undamped
    panel up to ln(1/x) - 38; the Taylor head, the fine lattice panels from
    there to the damped window, where e^(ixt) is 1 + ixt + (ixt)^2/2 and each
    power of x multiplies an x-free moment; then the window, the fine panels
    from ln(1/x) - _HEAD (12.07) to past ln(40/x), whose e^(ixt) times the
    weighted kernel it sums panel by panel. All but the powers of x and
    e^(ixt) is x-free and is cached per law (_plan), per chunk of fine panels
    (_lattice) and per chunk of window starts (_heads, from _coarse's running
    sums); a call builds only the chunks its windows touch. An entry depends
    on its lattice index alone (elementwise ufuncs, row sums and sequential
    cumsums), so a value depends neither on the other points of the call nor
    on the calls or threads before it.
    """
    if alpha == 2.0 and nu == 1.0:
        return _Inversion(0.5 * np.exp(-ax), np.zeros(ax.size, np.int64), np.zeros(ax.size))
    return _invert((alpha, nu, density, False), -np.log(ax), accuracy)


def _invert(law: tuple, v_star: np.ndarray, accuracy) -> _Inversion:
    """_upper's sums at x = e^-v_star for law = (alpha, nu, density, lst); see _ray."""
    plan = _plan(*law)
    ray, width = plan.ray, plan.width
    start = np.floor((v_star - _HEAD) / ray.fine)  # a window's first fine panel
    if not -2.0**52 < start.min() <= start.max() < 2.0**52:
        raise AccuracyError("x is outside the inversion's range")
    x_win = np.exp(start * ray.fine - v_star)  # x e^v_win
    start = start.astype(np.int64)
    touched, held, at = _chunks(start, width)
    head = np.concatenate([_heads(law, c) if c in held else _NO_HEADS for c in touched],
                          axis=1)[:, at]
    total = head[0:3] + x_win * (head[3:6] + x_win * head[6:9])  # the Taylor head
    total, size = total[:2], total[2]
    kappa = np.concatenate([_lattice(law, c) for c in touched])
    step = max(1, _ENTRIES // plan.grow.size)
    for rows in (slice(lo, lo + step) for lo in range(0, v_star.size, step)):
        k = kappa[at[rows, None] + np.arange(width)]
        xu = x_win[rows, None, None] * plan.grow
        if ray.cos:  # Re[e^(ixt) kappa]
            f = np.exp(-ray.sin * xu) * (np.cos(ray.cos * xu) * k.real
                                         - np.sin(ray.cos * xu) * k.imag)
        else:
            f = np.exp(-xu) * k.real
        sums = _rule_sums(f)
        total[:, rows] += sums.sum(axis=1).T
        size[rows] += np.abs(sums[..., 0]).sum(axis=1)
    errors = np.abs(total[0] - total[1])
    acc = accuracy or DEFAULT_ACCURACY
    if not (_EPS * size <= acc.abs_tol).all():  # an overflowed sum is nan or inf here
        raise AccuracyError("abs_tol is below the float64 roundoff of the inversion sum")
    if not (errors <= acc.abs_tol).all():
        raise AccuracyError(f"inversion rules differ by {errors.max():.2e}, more than abs_tol")
    return _Inversion(total[0], head[9].astype(np.int64), errors)


def _cdf_values(alpha: float, nu: float, xs: np.ndarray,
                accuracy: Accuracy | None) -> _Inversion:
    """cdf_by_inversion at every finite x in xs, in one pass."""
    inv = _Inversion(np.full(xs.size, 0.5), np.zeros(xs.size, np.int64), np.zeros(xs.size))
    nonzero = xs != 0.0
    if nonzero.any():
        x = xs[nonzero]
        res = _upper(alpha, nu, np.abs(x), False, accuracy)
        tail = np.clip(res.values, 0.0, 0.5)
        inv.values[nonzero] = np.where(x > 0.0, 1.0 - tail, tail)
        inv.nodes[nonzero], inv.errors[nonzero] = res.nodes, res.errors
    return inv


def cdf_by_inversion(alpha, nu, x, accuracy: Accuracy | None = None) -> float:
    """Distribution function of the symmetric law with cf (1+|t|^alpha)^(-nu).

    Gil-Pelaez inversion moved onto a ray where it is damped, not
    oscillating: at alpha <= 1, 1 - F(x) =
    (1/pi) int_0^inf e^(-ux) Im[(1 + u^alpha e^(-i pi alpha/2))^(-nu)] du/u
    for x > 0. Fixed Gauss-Legendre panels in ln u integrate it (see _upper),
    with no truncation point. Below ln u = ln(1/x) - 12.07, where its damped
    window starts, e^(-ux) is its Taylor head 1 - ux + (ux)^2/2 (on a tilted
    ray, that of e^(ixt)), whose x-free moments are cached; the remainder is
    at most e^-38 times the kernel. The 32-point and 24-point rules must agree to
    accuracy.abs_tol and the sum's float64 roundoff must stay below it, or
    AccuracyError is raised. The Laplace law (alpha 2, nu 1) is in closed
    form. The test suite checks this over alpha in (0, 2], nu in [0.05, 10]
    and |x| from 5e-324 to 1e300.
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
    cdf_by_inversion with the same accuracy.abs_tol contract. The density
    is even in x. At alpha * nu <= 1 it grows like |x|^(alpha nu - 1) (a
    log at alpha nu = 1) as x -> 0 and is infinite at 0, where
    UnsupportedRegimeError is raised. Off 0 the damped integral converges;
    close to 0, where the density is too large for abs_tol, or its sum
    passes the double range, AccuracyError is raised.
    """
    law = LinnikParams(alpha, nu)
    alpha, nu = law.alpha, law.nu
    x = _as_float(x, "x")
    if not math.isfinite(x):
        raise DomainError("x must be finite")
    if x == 0.0:
        if alpha * nu <= 1.0:
            raise UnsupportedRegimeError(
                "the density is infinite at 0 when alpha * nu <= 1"
            )
        import scipy.special as sc

        return float(
            sc.gamma(1.0 / alpha)
            * sc.gamma(nu - 1.0 / alpha)
            / (sc.gamma(nu) * alpha * math.pi)
        )
    with np.errstate(over="ignore", invalid="ignore"):
        res = _upper(alpha, nu, np.array([abs(x)]), True, accuracy)
    return float(max(res.values[0], 0.0))


def _end_slope(h0, h1, m0, m1):
    """The one-sided three-point slope at an end node, set to 0 where its
    sign differs from the end piece's and capped at 3 m0 where the first two
    slopes differ in sign (Moler, Numerical Computing with MATLAB, 3.6)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


class _Pchip:
    """Fritsch & Butland's monotone cubic (PCHIP) through (x, y), x strictly
    increasing with at least 3 nodes. Its slopes, its coefficients and its
    power sum take scipy 1.17's PchipInterpolator steps in their order, so its
    values are that interpolator's bit for bit, end pieces extrapolating. It
    gives y at every node: at x[-1], the far end of the last piece, the power
    sum can miss y[-1] by an ulp."""

    def __init__(self, x: np.ndarray, y: np.ndarray) -> None:
        h = np.diff(x)
        m = np.diff(y) / h
        # Inner slopes: the weighted harmonic mean of the two pieces' slopes,
        # or 0 where one is 0 or they differ in sign.
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        d = np.concatenate([[_end_slope(h[0], h[1], m[0], m[1])], inner,
                            [_end_slope(h[-1], h[-2], m[-1], m[-2])]])
        t = (d[:-1] + d[1:] - 2 * m) / h
        self.x, self._inner, self._last = x, x[1:-1], y[-1]
        # The power coefficients of each piece in s = q - x[i], highest first,
        # as four arrays: a gather from each is cheaper than one of rows.
        self._c = t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]

    def __call__(self, q) -> np.ndarray:
        # The piece i = clip(searchsorted(x, q, "right") - 1, 0, n - 2): the
        # end pieces extend past the ends, and NaN falls in the last piece.
        i = np.searchsorted(self._inner, q, "right")
        s = q - self.x.take(i)
        c0, c1, c2, c3 = self._c
        # ((c3 + c2 s) + c1 s^2) + c0 s^3, summed in place: with fewer
        # temporaries it ran about 15% faster than the plain expression.
        out = c2.take(i)
        out *= s
        out += c3.take(i)
        ss = s * s
        term = c1.take(i)
        term *= ss
        out += term
        ss *= s
        term = c0.take(i)
        term *= ss
        out += term
        return np.where(q == self.x[-1], self._last, out)


class InversionCdf:
    """Vectorized distribution function of the cf (1+|t|^alpha)^(-nu).

    Monotone (PCHIP) interpolation of inversion values over a mixed
    linear/log abscissa grid, n_linear points on [0, 2] and n_log log-spaced
    ones from 2 to just past x_max (each count an integer >= 2), extended to
    the whole line by symmetry. Arguments beyond x_max are clamped to the
    boundary value, so build with x_max at least as large as the largest |x|
    to be evaluated. At alpha * nu < 2 the grid adds n_linear log-spaced
    points on [1e-8, 2], which resolve the singular term of the density at
    0. The whole grid is inverted in one pass under the given accuracy: the
    damped integrand's kernel is evaluated once on its lattice, and each
    point sums its own panels in a fixed order (see _upper), so every grid
    value equals cdf_by_inversion at that point bit for bit. The grid on
    [0, 2] does not depend on x_max, so one build out to the largest |x| of
    several samples serves them all.

    Deterministic build counters: points (grid abscissae), nodes (the
    32-point rule's nodes, summed over the points) and rule_difference (the
    largest difference between the 32-point and 24-point rules over the
    grid, at most accuracy.abs_tol).
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
        for name, n in (("n_linear", n_linear), ("n_log", n_log)):
            if not isinstance(n, (int, np.integer)) or n < 2:
                raise DomainError(f"{name} must be an integer >= 2")
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
        self.nodes = int(inv.nodes.sum())
        self.rule_difference = float(inv.errors.max())
        self.x_max = float(xs[-1])
        self._interp = _Pchip(xs, vals)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        flat, out = x.ravel(), np.empty(x.size)
        # Blocks of _CALL_BLOCK points keep each temporary at 64 KB, which
        # malloc reuses: whole-array temporaries at 1e5 points go back to the
        # system when freed and page-fault in again on every call.
        for lo in range(0, x.size, _CALL_BLOCK):
            part = flat[lo : lo + _CALL_BLOCK]
            upper = self._interp(np.minimum(np.abs(part), self.x_max))
            np.clip(np.where(part >= 0.0, upper, 1.0 - upper), 0.0, 1.0,
                    out=out[lo : lo + _CALL_BLOCK])
        return out.reshape(x.shape) if x.ndim else out[0]
