"""Parameter records and exact samplers for heavy-tailed mixture families.

Fifteen families: eight basics (normal, laplace, exponential, weibull, gamma,
gen_gamma, exp_power, neg_binom) and seven structured laws (stable,
stable_ratio, z_mix, mittag_leffler, gen_mittag_leffler, linnik, gen_linnik).
Every structured sampler is built from an exact mixture representation, never
from approximate inversion. Samplers are pure functions of (spec, n, stream):
same inputs, bit-identical output, whatever the number of pool workers that
run their elementwise part. Each family is one entry of _FAMILY_TABLE;
sampling, the closed transforms and positivity all read that entry, and
each sampling route is one _Route row of it: a draw step, then a transform
step.

The stable transforms take their sines and cosines from np.tan (_sin and
_cos, half-angle forms within a few ulp of libm's). numpy runs float64 tan
as a vectorized SIMD loop on AVX512 (X86_V4) CPUs, but sin and cos as
scalar libm calls, several times slower; these calls were most of each
stable kernel's time. On CPUs without AVX512, tan is libm too, and the
kernels run up to about twice as slow as np.sin and np.cos would make
them. Either way the bytes, like those of np.power, np.exp and np.log,
follow numpy's SIMD dispatch.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from typing import Callable, Mapping

import numpy as np

from . import _pool
from .errors import AccuracyError, DomainError
from .streams import RandomStream

__all__ = [
    "StableParams",
    "StableRatioParams",
    "GammaParams",
    "GGParams",
    "WeibullParams",
    "ExpPowerParams",
    "MLParams",
    "LinnikParams",
    "NegBinParams",
    "ZParams",
    "DistSpec",
    "SampleBatch",
    "FAMILIES",
    "METHODS",
    "sample",
    "analytic_cf",
    "analytic_lst",
]


def _pos(value, name: str) -> float:
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be a real number") from exc
    if not (math.isfinite(value) and value > 0):
        raise DomainError(f"{name} must be positive and finite")
    return value


def _power(x: float, y: float) -> float:
    """x ** y for x >= 0, or inf where it overflows (the limit the closed
    transforms and densities need: exp(-inf) and 1 / (1 + inf) are 0)."""
    try:
        return x**y
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class StableParams:
    """Strictly stable law: exponent alpha, shape theta.

    theta = "symmetric" is the symmetric law with cf exp(-|t|^alpha);
    theta = "one_sided" (alpha <= 1 only) is the positive law with Laplace
    transform exp(-s^alpha). alpha = 1 one-sided is the constant 1.
    """

    alpha: float
    theta: str = "symmetric"

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _pos(self.alpha, "alpha"))
        if self.alpha > 2:
            raise DomainError("alpha must lie in (0, 2]")
        if self.theta not in ("symmetric", "one_sided"):
            raise DomainError("theta must be 'symmetric' or 'one_sided'")
        if self.theta == "one_sided" and self.alpha > 1:
            raise DomainError("one_sided requires alpha <= 1")


@dataclass(frozen=True)
class StableRatioParams:
    """Ratio of two independent one-sided stable laws with exponent delta."""

    delta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", _pos(self.delta, "delta"))
        if self.delta >= 1:
            raise DomainError(
                "delta must lie in (0, 1); the ratio degenerates at delta = 1"
            )


@dataclass(frozen=True)
class GammaParams:
    r: float
    lam: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", _pos(self.r, "r"))
        object.__setattr__(self, "lam", _pos(self.lam, "lam"))


@dataclass(frozen=True)
class GGParams:
    """Generalized gamma: gamma(r, lam) raised to the power 1/alpha."""

    r: float
    alpha: float
    lam: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", _pos(self.r, "r"))
        object.__setattr__(self, "lam", _pos(self.lam, "lam"))
        try:
            alpha = float(self.alpha)
        except (TypeError, ValueError) as exc:
            raise DomainError("alpha must be a real number") from exc
        if alpha == 0 or not math.isfinite(alpha):
            raise DomainError("alpha must be nonzero and finite")
        object.__setattr__(self, "alpha", alpha)


@dataclass(frozen=True)
class WeibullParams:
    gamma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", _pos(self.gamma, "gamma"))


@dataclass(frozen=True)
class ExpPowerParams:
    """One-sided exponential-power law, the nu-th power of gamma(nu, 1)."""

    nu: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "nu", _pos(self.nu, "nu"))


@dataclass(frozen=True)
class MLParams:
    """Mittag-Leffler family: tail exponent delta, shape nu (nu = 1 ordinary)."""

    delta: float
    nu: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", _pos(self.delta, "delta"))
        object.__setattr__(self, "nu", _pos(self.nu, "nu"))
        if self.delta > 1:
            raise DomainError("delta must lie in (0, 1]")


@dataclass(frozen=True)
class LinnikParams:
    """Linnik family: exponent alpha, shape nu (nu = 1 ordinary)."""

    alpha: float
    nu: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _pos(self.alpha, "alpha"))
        object.__setattr__(self, "nu", _pos(self.nu, "nu"))
        if self.alpha > 2:
            raise DomainError("alpha must lie in (0, 2]")


@dataclass(frozen=True)
class NegBinParams:
    """Negative binomial on {1, 2, ...}: shape nu, success probability p."""

    nu: float
    p: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "nu", _pos(self.nu, "nu"))
        p = _pos(self.p, "p")
        if p >= 1:
            raise DomainError("p must lie in (0, 1)")
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class ZParams:
    """Gamma-ratio mixing law mu (g1 + g2) / g1 with shared g1 ~ gamma(r, 1).

    r = 1 is the documented degenerate endpoint: the shape-0 complement
    vanishes and the law is the point mass at mu.
    """

    r: float
    mu: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", _pos(self.r, "r"))
        object.__setattr__(self, "mu", _pos(self.mu, "mu"))
        if self.r > 1:
            raise DomainError("r must lie in (0, 1]")


@dataclass(frozen=True)
class DistSpec:
    """One distribution family with validated parameters and optional method."""

    family: str
    params: object = None
    method: str | None = None

    def __post_init__(self) -> None:
        if self.family not in _FAMILY_TABLE:
            raise DomainError(f"unknown family {self.family!r}")
        entry = _FAMILY_TABLE[self.family]
        record_type = entry.record
        params = self.params
        if record_type is None:
            if params not in (None, {}, ()):
                raise DomainError(f"family {self.family!r} takes no parameters")
            params = None
        elif isinstance(params, record_type):
            pass
        elif isinstance(params, Mapping):
            names = [f.name for f in fields(record_type)]
            extra = sorted(map(str, set(params) - set(names)))
            if extra:
                raise DomainError(
                    f"family {self.family!r} does not take: " + ", ".join(extra)
                )
            missing = sorted(
                f.name
                for f in fields(record_type)
                if f.default is MISSING and f.name not in params
            )
            if missing:
                raise DomainError(
                    f"family {self.family!r} needs: " + ", ".join(missing)
                )
            params = record_type(**params)
        else:
            raise DomainError(
                f"family {self.family!r} needs {record_type.__name__} parameters"
            )
        object.__setattr__(self, "params", params)
        if self.method is not None and self.method not in METHODS.get(self.family, ()):
            raise DomainError(
                f"method {self.method!r} is not defined for family {self.family!r}"
            )
        entry.domain(params, self.method)

    def resolved_method(self) -> str | None:
        return self.method or next(iter(_FAMILY_TABLE[self.family].routes))

    @property
    def positive(self) -> bool:
        """True when the family's draws are almost surely positive."""
        return _FAMILY_TABLE[self.family].positive(self.params)

    def describe(self) -> str:
        parts = [self.family]
        if self.params is not None:
            kv = ",".join(
                f"{f.name}={getattr(self.params, f.name):g}"
                if isinstance(getattr(self.params, f.name), float)
                else f"{f.name}={getattr(self.params, f.name)}"
                for f in fields(self.params)
            )
            parts.append(f"({kv})")
        if self.method is not None:
            parts.append(f"[{self.method}]")
        return "".join(parts)


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Draws plus full provenance: spec, seed and substream; n is the
    number of values.

    spec is the DistSpec drawn from, or a descriptive string when the values
    came from a composite expression rather than a single family.
    """

    values: np.ndarray
    spec: DistSpec | str
    seed: int
    substream: int

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size < 1:
            raise DomainError("values must be a nonempty 1-d array")

    @property
    def n(self) -> int:
        return self.values.size

    def __len__(self) -> int:
        return self.n


# ---------------------------------------------------------------------------
# Routes. A route draws in two steps. Its draw step makes every
# generator call, in a fixed order, on the caller's thread; draw order is
# part of the determinism contract, and a draw that depends on transformed
# values (neg_binom's Poisson counts) stays in this step. Its transform step
# is elementwise in the raw arrays, which it may overwrite, so _run
# can run it over blocks of _BLOCK draws on the package's pool: each value
# gets the same float operations whatever the block and worker count. The
# stable transforms evaluate Chambers-Mallows-Stuck (Chambers, Mallows &
# Stuck 1976; Weron 1996) in direct form with in-place ufuncs, one power
# per draw, and sines and cosines from tan (_sin, _cos). They agree with
# the sum-of-logs form (the oracle in tests/test_distributions.py) to about
# 1e-13 relative at alpha >= 0.05; at alpha = 0.01 the power overflows on a
# few more draws than that form does (ROADMAP item 4). A raw value is an
# array or a tuple of raw values.

_BLOCK = 1 << 16


@dataclass(frozen=True)
class _Route:
    """One sampling route: draw(rng, n, p) returns the raw draws, and
    transform(raw, p) turns a block of them into values. A route without a
    transform draws its values."""

    draw: Callable
    transform: Callable | None = None


def _cut(raw, lo: int, hi: int):
    if isinstance(raw, np.ndarray):
        return raw[lo:hi]
    return tuple(_cut(part, lo, hi) for part in raw)


def _run(route: _Route, rng: np.random.Generator, n: int, p) -> np.ndarray:
    """n values of route: its draw here, then its transform one block of
    _BLOCK draws at a time.

    With fewer than two full blocks to share out, the blocks run inline;
    otherwise they go through ``_pool.imap``, which runs them inline too in
    a call from a pool task (verify's sides, limits' summation blocks).
    Each block's values go into the first raw array when it is float: once
    its block is transformed, a raw entry is not read again. So a
    transform's temporaries are at most a block long.
    """
    raw = route.draw(rng, n, p)
    if route.transform is None:
        return raw
    out = raw
    while not isinstance(out, np.ndarray):
        out = out[0]
    if out.dtype != np.float64:
        out = np.empty(n)

    def block(lo: int) -> None:
        out[lo : lo + _BLOCK] = route.transform(_cut(raw, lo, lo + _BLOCK), p)

    for _ in (map if n < 2 * _BLOCK else _pool.imap)(block, range(0, n, _BLOCK)):
        pass
    return out


# pi/2 as the double nearest it plus the double nearest the rest.
_HALF_PI_HI = 1.5707963267948966
_HALF_PI_LO = 6.123233995736766e-17


def _sin(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sin x for |x| < pi, into out (which may be x): with T = tan(x/2),
    sin x = 2T / (1 + T^2). Relative error within a few ulp, since T's
    relative error reaches sin x scaled by |cos x| <= 1."""
    t = np.multiply(x, 0.5, out=out)
    np.tan(t, out=t)
    d = np.square(t)
    d += 1.0
    t += t
    return np.divide(t, d, out=t)


def _cos(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """cos x for |x| <= pi/2, into out (which may be x), as sin(psi) with
    psi = (pi/2_hi - |x|) + pi/2_lo. For |x| >= pi/4 the subtraction is
    exact (Sterbenz), so psi keeps its relative accuracy as |x| -> pi/2,
    and cos(-pi/2) is 6.123e-17, as libm gives."""
    t = np.abs(x, out=out)
    np.subtract(_HALF_PI_HI, t, out=t)
    t += _HALF_PI_LO
    return _sin(t, t)


def _cms_draw(rng: np.random.Generator, n: int, alpha: float):
    if alpha == 2.0:
        return rng.standard_normal(n)
    phi = rng.uniform(-math.pi / 2, math.pi / 2, n)
    if alpha == 1.0:
        return phi
    return phi, rng.standard_exponential(n)


def _cms(raw, alpha: float):
    """Symmetric stable values from _cms_draw's draws, in place in them."""
    if alpha == 2.0:
        return np.multiply(raw, math.sqrt(2.0), out=raw)
    if alpha == 1.0:
        return np.tan(raw, out=raw)
    phi, w = raw
    # X = sin(a phi)/cos(phi) * (cos((1-a) phi) / (W cos(phi)))^((1-a)/a).
    t = np.multiply(phi, 1.0 - alpha)
    _cos(t, t)
    np.divide(t, w, out=t)
    cos_phi = _cos(phi, w)
    np.divide(t, cos_phi, out=t)
    np.power(t, (1.0 - alpha) / alpha, out=t)
    np.multiply(phi, alpha, out=phi)
    _sin(phi, phi)
    np.divide(phi, cos_phi, out=phi)
    return np.multiply(phi, t, out=phi)


def _kanter_draw(rng: np.random.Generator, n: int, alpha: float):
    if alpha == 1.0:
        return np.ones(n)
    return rng.random(n), rng.standard_exponential(n)


def _kanter(raw, alpha: float):
    """One-sided stable values from _kanter_draw's draws, in place in them
    (alpha = 1 is 1)."""
    if alpha == 1.0:
        return raw
    u, w = raw
    np.clip(u, 1e-300, 1.0 - 1e-16, out=u)
    # Kanter's form with U' = pi U:
    # X = sin(a U')/sin(U') * (sin((1-a) U') / (W sin(U')))^((1-a)/a).
    # On (0, pi) the two ratios are at least a and 1-a, so X is positive.
    np.multiply(u, math.pi, out=u)
    t = np.multiply(u, 1.0 - alpha)
    _sin(t, t)
    np.divide(t, w, out=t)
    sin_u = _sin(u, w)
    np.divide(t, sin_u, out=t)
    np.power(t, (1.0 - alpha) / alpha, out=t)
    np.multiply(u, alpha, out=u)
    _sin(u, u)
    np.divide(u, sin_u, out=u)
    return np.multiply(u, t, out=u)


def _ratio_draw(rng: np.random.Generator, n: int, delta: float):
    # The degenerate endpoint delta = 1 is tolerated here; the public op
    # rejects it.
    if delta == 1.0:
        return np.ones(n)
    return _kanter_draw(rng, n, delta), _kanter_draw(rng, n, delta)


def _ratio(raw, delta: float):
    if delta == 1.0:
        return raw
    num = _kanter(raw[0], delta)
    num /= _kanter(raw[1], delta)
    return num


# numpy's Generator.poisson refuses rates above this.
_POISSON_MAX = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)


def _neg_binom_draw(rng: np.random.Generator, n: int, nu: float, p: float):
    """n negative-binomial counts less one: Poisson draws at gamma(nu) rates
    times (1 - p) / p, the gammas drawn first."""
    with np.errstate(over="ignore", invalid="ignore"):
        lam = rng.standard_gamma(nu, n) * ((1.0 - p) / p)
    if not lam.max() <= _POISSON_MAX:
        raise AccuracyError(
            f"negative binomial at p = {p:g}: Poisson rate {lam.max():.6g} is past "
            f"numpy's limit {_POISSON_MAX:.6g}"
        )
    return rng.poisson(lam)


def _z_draw(rng: np.random.Generator, n: int, r: float, mu: float):
    if r == 1.0:
        return np.full(n, mu)
    return rng.standard_gamma(r, n), rng.standard_gamma(1.0 - r, n)


def _z(raw, r: float, mu: float):
    """mu (g1 + g2) / g1, evaluated in place in g2."""
    if r == 1.0:
        return raw
    g1, g2 = raw
    g2 += g1
    g2 *= mu
    g2 /= g1
    return g2


def _ml(raw, delta: float):
    """(Generalized) Mittag-Leffler values S * G^(1/delta) from a one-sided
    stable S and an exponential or gamma G."""
    return _scaled_by_power(_kanter(raw[0], delta), raw[1], 1.0 / delta)


def _linnik(raw, alpha: float):
    """(Generalized) Linnik values S * G^(1/alpha) from a symmetric stable S
    and an exponential or gamma G."""
    return _scaled_by_power(_cms(raw[0], alpha), raw[1], 1.0 / alpha)


def _scaled_by_power(s, g, power: float):
    """s * g ** power, in place in s and g (the ** operator's own rules)."""
    g **= power
    s *= g
    return s


def _normal_scaled(x, m):
    """x * sqrt(2 m), in place in x and m."""
    m *= 2.0
    np.sqrt(m, out=m)
    x *= m
    return x


# The mixing draw G of an ordinary law is _exponential, that of its
# generalized form _gamma_nu: each builder below makes both routes of a pair
# from their mixing draw, mix(rng, n, p).


def _exponential(rng: np.random.Generator, n: int, p) -> np.ndarray:
    return rng.standard_exponential(n)


def _gamma_nu(rng: np.random.Generator, n: int, p) -> np.ndarray:
    return rng.standard_gamma(p.nu, n)


def _ml_route(mix: Callable) -> _Route:
    """S * G^(1/delta), S one-sided stable: (generalized) Mittag-Leffler."""
    return _Route(
        lambda rng, n, p: (_kanter_draw(rng, n, p.delta), mix(rng, n, p)),
        lambda raw, p: _ml(raw, p.delta),
    )


def _linnik_route(mix: Callable) -> _Route:
    """S * G^(1/alpha), S symmetric stable: (generalized) Linnik."""
    return _Route(
        lambda rng, n, p: (_cms_draw(rng, n, p.alpha), mix(rng, n, p)),
        lambda raw, p: _linnik(raw, p.alpha),
    )


def _normal_ml_route(mix: Callable) -> _Route:
    """X * sqrt(2 M), M (generalized) Mittag-Leffler with delta = alpha / 2:
    (generalized) Linnik."""
    return _Route(
        lambda rng, n, p: (
            rng.standard_normal(n),
            (_kanter_draw(rng, n, p.alpha / 2.0), mix(rng, n, p)),
        ),
        lambda raw, p: _normal_scaled(raw[0], _ml(raw[1], p.alpha / 2.0)),
    )


def _genml_split(p: LinnikParams) -> tuple[float, float]:
    """stable_genml's exact split alpha = a * b, with a <= 2 symmetric-stable
    and b < 1 the inner Mittag-Leffler exponent; a = 2 at alpha = 2, where
    the route collapses to stable_gamma."""
    return 4.0 * p.alpha / (p.alpha + 2.0), (p.alpha + 2.0) / 4.0


# ---------------------------------------------------------------------------
# The family table. Adding a family means adding one entry here.


def _require_nu_one(family: str, p) -> None:
    if p.nu != 1.0:
        raise DomainError(f"{family} requires nu = 1; use gen_{family}")


def _linnik_domain(p: LinnikParams, method: str | None) -> None:
    _require_nu_one("linnik", p)
    if method == "laplace_ratio" and p.alpha >= 2:
        raise DomainError("method laplace_ratio requires alpha < 2")


def _gen_linnik_domain(p: LinnikParams, method: str | None) -> None:
    if method == "linnik_z" and p.nu > 1:
        raise DomainError("method linnik_z requires nu <= 1")


@dataclass(frozen=True)
class _Family:
    """One family: param record, sampling routes and closed-form facts.

    routes maps each route to its _Route row, default first; a
    family with one route keys it None and offers no method. constraints is
    the domain text of `htmix list`. positive, cf, lst and domain read the
    validated params: cf and lst build the closed transform or return None,
    and domain rejects params/method pairs the record alone accepts.
    """

    record: type | None
    routes: Mapping[str | None, _Route]
    constraints: str
    positive: Callable[[object], bool] = lambda p: False
    cf: Callable[[object], Callable[[float], float] | None] = lambda p: None
    lst: Callable[[object], Callable[[float], float] | None] = lambda p: None
    domain: Callable[[object, str | None], None] = lambda p, method: None


_FAMILY_TABLE: dict[str, _Family] = {
    "normal": _Family(
        None,
        {None: _Route(lambda rng, n, p: rng.standard_normal(n))},
        "no parameters",
        cf=lambda p: lambda t: math.exp(-0.5 * t * t),
    ),
    "laplace": _Family(
        None,
        {None: _Route(lambda rng, n, p: rng.laplace(0.0, 1.0, n))},
        "no parameters",
        cf=lambda p: lambda t: 1.0 / (1.0 + t * t),
    ),
    "exponential": _Family(
        None,
        {None: _Route(_exponential)},
        "no parameters",
        positive=lambda p: True,
        lst=lambda p: lambda s: 1.0 / (1.0 + s),
    ),
    "weibull": _Family(
        WeibullParams,
        {None: _Route(_exponential, lambda e, p: e ** (1.0 / p.gamma))},
        "gamma > 0",
        positive=lambda p: True,
    ),
    "gamma": _Family(
        GammaParams,
        {
            None: _Route(
                lambda rng, n, p: rng.standard_gamma(p.r, n), lambda g, p: g / p.lam
            )
        },
        "r > 0, lambda > 0",
        positive=lambda p: True,
        lst=lambda p: lambda s: (1.0 + s / p.lam) ** (-p.r),
    ),
    "gen_gamma": _Family(
        GGParams,
        {
            None: _Route(
                lambda rng, n, p: rng.standard_gamma(p.r, n),
                lambda g, p: (g / p.lam) ** (1.0 / p.alpha),
            )
        },
        "r > 0, alpha != 0, lambda > 0",
        positive=lambda p: True,
    ),
    "exp_power": _Family(
        ExpPowerParams,
        {None: _Route(_gamma_nu, lambda g, p: g ** p.nu)},
        "nu > 0",
        positive=lambda p: True,
    ),
    "neg_binom": _Family(
        NegBinParams,
        {
            None: _Route(
                lambda rng, n, p: _neg_binom_draw(rng, n, p.nu, p.p),
                lambda k, p: 1.0 + k.astype(float),
            )
        },
        "nu > 0, p in (0, 1)",
        positive=lambda p: True,
    ),
    "stable": _Family(
        StableParams,
        {
            None: _Route(
                lambda rng, n, p: (
                    _cms_draw if p.theta == "symmetric" else _kanter_draw
                )(rng, n, p.alpha),
                lambda raw, p: (_cms if p.theta == "symmetric" else _kanter)(
                    raw, p.alpha
                ),
            )
        },
        "alpha in (0, 2]; theta one-sided needs alpha <= 1",
        positive=lambda p: p.theta == "one_sided",
        cf=lambda p: (
            (lambda t: math.exp(-_power(abs(t), p.alpha)))
            if p.theta == "symmetric"
            else None
        ),
        lst=lambda p: (
            (lambda s: math.exp(-(s**p.alpha))) if p.theta == "one_sided" else None
        ),
    ),
    "stable_ratio": _Family(
        StableRatioParams,
        {
            None: _Route(
                lambda rng, n, p: _ratio_draw(rng, n, p.delta),
                lambda raw, p: _ratio(raw, p.delta),
            )
        },
        "delta in (0, 1)",
        positive=lambda p: True,
    ),
    "z_mix": _Family(
        ZParams,
        {
            None: _Route(
                lambda rng, n, p: _z_draw(rng, n, p.r, p.mu),
                lambda raw, p: _z(raw, p.r, p.mu),
            )
        },
        "r in (0, 1], mu > 0",
        positive=lambda p: True,
    ),
    "mittag_leffler": _Family(
        MLParams,
        {
            "stable_weibull": _ml_route(_exponential),
            "exp_ratio": _Route(
                lambda rng, n, p: (
                    _exponential(rng, n, p),
                    _ratio_draw(rng, n, p.delta),
                ),
                lambda raw, p: np.multiply(raw[0], _ratio(raw[1], p.delta), out=raw[0]),
            ),
        },
        "delta in (0, 1]",
        positive=lambda p: True,
        lst=lambda p: lambda s: 1.0 / (1.0 + s**p.delta),
        domain=lambda p, method: _require_nu_one("mittag_leffler", p),
    ),
    "gen_mittag_leffler": _Family(
        MLParams,
        {None: _ml_route(_gamma_nu)},
        "delta in (0, 1], nu > 0",
        positive=lambda p: True,
        lst=lambda p: lambda s: (1.0 + s**p.delta) ** (-p.nu),
    ),
    "linnik": _Family(
        LinnikParams,
        {
            "stable_weibull": _linnik_route(_exponential),
            "normal_ml": _normal_ml_route(_exponential),
            "laplace_ratio": _Route(
                lambda rng, n, p: (
                    rng.laplace(0.0, 1.0, n),
                    _ratio_draw(rng, n, p.alpha / 2.0),
                ),
                lambda raw, p: np.multiply(
                    raw[0], np.sqrt(_ratio(raw[1], p.alpha / 2.0)), out=raw[0]
                ),
            ),
        },
        "alpha in (0, 2]",
        cf=lambda p: lambda t: 1.0 / (1.0 + _power(abs(t), p.alpha)),
        domain=_linnik_domain,
    ),
    "gen_linnik": _Family(
        LinnikParams,
        {
            "stable_gamma": _linnik_route(_gamma_nu),
            "normal_genml": _normal_ml_route(_gamma_nu),
            # L * Z^(-1/alpha): an ordinary Linnik L over the gamma-ratio Z.
            "linnik_z": _Route(
                lambda rng, n, p: (
                    (_cms_draw(rng, n, p.alpha), _exponential(rng, n, p)),
                    _z_draw(rng, n, p.nu, 1.0),
                ),
                lambda raw, p: _scaled_by_power(
                    _linnik(raw[0], p.alpha), _z(raw[1], p.nu, 1.0), -1.0 / p.alpha
                ),
            ),
            # S_a * M^(1/a), M generalized Mittag-Leffler with delta = b.
            "stable_genml": _Route(
                lambda rng, n, p: (
                    _cms_draw(rng, n, _genml_split(p)[0]),
                    (_kanter_draw(rng, n, _genml_split(p)[1]), _gamma_nu(rng, n, p)),
                ),
                lambda raw, p: _scaled_by_power(
                    _cms(raw[0], _genml_split(p)[0]),
                    _ml(raw[1], _genml_split(p)[1]),
                    1.0 / _genml_split(p)[0],
                ),
            ),
        },
        "alpha in (0, 2], nu > 0",
        cf=lambda p: lambda t: (1.0 + _power(abs(t), p.alpha)) ** (-p.nu),
        domain=_gen_linnik_domain,
    ),
}

FAMILIES = tuple(_FAMILY_TABLE)

METHODS: dict[str, tuple[str, ...]] = {
    family: tuple(entry.routes)
    for family, entry in _FAMILY_TABLE.items()
    if None not in entry.routes
}


def sample(spec: DistSpec, n, stream: RandomStream) -> SampleBatch:
    """Draw n values from any family under the given stream."""
    if not isinstance(spec, DistSpec):
        raise DomainError("spec must be a DistSpec")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError("n must be a positive integer")
    if not isinstance(stream, RandomStream):
        raise DomainError("stream must be a RandomStream")
    n = int(n)
    route = _FAMILY_TABLE[spec.family].routes[spec.resolved_method()]
    values = _run(route, stream.generator(), n, spec.params)
    return SampleBatch(values, spec, int(stream.seed), int(stream.substream))


# limits' kernels, runner(rng, n, ...) -> n values by the table's routes.


def _stable_symmetric_values(rng: np.random.Generator, n: int, alpha: float):
    return _run(_FAMILY_TABLE["stable"].routes[None], rng, n, StableParams(alpha))


def _gen_ml_values(rng: np.random.Generator, n: int, delta: float, nu: float):
    return _run(
        _FAMILY_TABLE["gen_mittag_leffler"].routes[None], rng, n, MLParams(delta, nu)
    )


def analytic_cf(spec: DistSpec) -> Callable[[float], float] | None:
    """Real characteristic function of a symmetric family, or None."""
    return _FAMILY_TABLE[spec.family].cf(spec.params)


def analytic_lst(spec: DistSpec) -> Callable[[float], float] | None:
    """Laplace transform of a nonnegative family, or None."""
    return _FAMILY_TABLE[spec.family].lst(spec.params)
