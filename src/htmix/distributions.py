"""Parameter records and exact samplers for heavy-tailed mixture families.

Fifteen families: eight basics (normal, laplace, exponential, weibull, gamma,
gen_gamma, exp_power, neg_binom) and seven structured laws (stable,
stable_ratio, z_mix, mittag_leffler, gen_mittag_leffler, linnik, gen_linnik).
Every structured sampler is built from an exact mixture representation, never
from approximate inversion. Samplers are pure functions of (spec, n, stream):
same inputs, bit-identical output. Each family is one entry of _FAMILY_TABLE;
sampling, the closed transforms and positivity all read that entry.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, Mapping

import numpy as np

from .errors import DomainError
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
    """Draws plus full provenance: spec, seed, substream, size.

    spec is the DistSpec drawn from, or a descriptive string when the values
    came from a composite expression rather than a single family.
    """

    values: np.ndarray
    spec: DistSpec | str
    seed: int
    substream: int
    n: int = field(default=0)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        n = self.n or values.size
        if values.ndim != 1 or values.size != n or n < 1:
            raise DomainError("values must be a 1-d array of length n >= 1")
        object.__setattr__(self, "n", int(n))

    def __len__(self) -> int:
        return self.n

    def meta(self) -> dict:
        label = self.spec.describe() if isinstance(self.spec, DistSpec) else str(self.spec)
        return {
            "spec": label,
            "seed": int(self.seed),
            "substream": int(self.substream),
            "n": self.n,
        }


# ---------------------------------------------------------------------------
# Core draw kernels. Each consumes the generator sequentially; draw order is
# part of the determinism contract. The two stable kernels evaluate the
# Chambers-Mallows-Stuck transform (Chambers, Mallows & Stuck 1976; Weron
# 1996) in direct form with in-place ufuncs, one power per draw. They agree
# with the sum-of-logs form (the oracle in tests/test_distributions.py) to
# about 1e-13 relative at alpha >= 0.05; at alpha = 0.01 the power overflows
# on a few more draws than that form does (ROADMAP item 4).


def _stable_symmetric_values(rng: np.random.Generator, n: int, alpha: float):
    if alpha == 2.0:
        return math.sqrt(2.0) * rng.standard_normal(n)
    phi = rng.uniform(-math.pi / 2, math.pi / 2, n)
    if alpha == 1.0:
        return np.tan(phi)
    w = rng.standard_exponential(n)
    # X = sin(a phi)/cos(phi) * (cos((1-a) phi) / (W cos(phi)))^((1-a)/a).
    t = np.multiply(phi, 1.0 - alpha)
    np.cos(t, out=t)
    np.divide(t, w, out=t)
    cos_phi = np.cos(phi, out=w)
    np.divide(t, cos_phi, out=t)
    np.power(t, (1.0 - alpha) / alpha, out=t)
    np.multiply(phi, alpha, out=phi)
    np.sin(phi, out=phi)
    np.divide(phi, cos_phi, out=phi)
    np.multiply(t, phi, out=t)
    return t


def _stable_one_sided_values(rng: np.random.Generator, n: int, alpha: float):
    if alpha == 1.0:
        return np.ones(n)
    u = rng.random(n)
    np.clip(u, 1e-300, 1.0 - 1e-16, out=u)
    w = rng.standard_exponential(n)
    # Kanter's form with U' = pi U:
    # X = sin(a U')/sin(U') * (sin((1-a) U') / (W sin(U')))^((1-a)/a).
    # On (0, pi) the two ratios are at least a and 1-a, so X is positive.
    np.multiply(u, math.pi, out=u)
    t = np.multiply(u, 1.0 - alpha)
    np.sin(t, out=t)
    np.divide(t, w, out=t)
    sin_u = np.sin(u, out=w)
    np.divide(t, sin_u, out=t)
    np.power(t, (1.0 - alpha) / alpha, out=t)
    np.multiply(u, alpha, out=u)
    np.sin(u, out=u)
    np.divide(u, sin_u, out=u)
    np.multiply(t, u, out=t)
    return t


def _stable_ratio_values(rng: np.random.Generator, n: int, delta: float):
    # Internal helper tolerates the degenerate endpoint; the public op does not.
    if delta == 1.0:
        return np.ones(n)
    num = _stable_one_sided_values(rng, n, delta)
    den = _stable_one_sided_values(rng, n, delta)
    return num / den


def _z_values(rng: np.random.Generator, n: int, r: float, mu: float):
    if r == 1.0:
        return np.full(n, mu)
    g1 = rng.standard_gamma(r, n)
    g2 = rng.standard_gamma(1.0 - r, n)
    return mu * (g1 + g2) / g1


def _ml_stable_weibull(rng: np.random.Generator, n: int, delta: float):
    s = _stable_one_sided_values(rng, n, delta)
    w = rng.standard_exponential(n) ** (1.0 / delta)
    return s * w


def _ml_exp_ratio(rng: np.random.Generator, n: int, delta: float):
    w = rng.standard_exponential(n)
    return w * _stable_ratio_values(rng, n, delta)


def _gen_ml_values(rng: np.random.Generator, n: int, delta: float, nu: float):
    s = _stable_one_sided_values(rng, n, delta)
    g = rng.standard_gamma(nu, n) ** (1.0 / delta)
    return s * g


# Linnik and generalized Linnik routes read alpha (and nu) off the record.


def _linnik_stable_weibull(rng: np.random.Generator, n: int, p: LinnikParams):
    s = _stable_symmetric_values(rng, n, p.alpha)
    w = rng.standard_exponential(n) ** (1.0 / p.alpha)
    return s * w


def _linnik_normal_ml(rng: np.random.Generator, n: int, p: LinnikParams):
    x = rng.standard_normal(n)
    m = _ml_stable_weibull(rng, n, p.alpha / 2.0)
    return x * np.sqrt(2.0 * m)


def _linnik_laplace_ratio(rng: np.random.Generator, n: int, p: LinnikParams):
    lap = rng.laplace(0.0, 1.0, n)
    return lap * np.sqrt(_stable_ratio_values(rng, n, p.alpha / 2.0))


def _gen_linnik_stable_gamma(rng: np.random.Generator, n: int, p: LinnikParams):
    s = _stable_symmetric_values(rng, n, p.alpha)
    g = rng.standard_gamma(p.nu, n) ** (1.0 / p.alpha)
    return s * g


def _gen_linnik_normal_genml(rng: np.random.Generator, n: int, p: LinnikParams):
    x = rng.standard_normal(n)
    m = _gen_ml_values(rng, n, p.alpha / 2.0, p.nu)
    return x * np.sqrt(2.0 * m)


def _gen_linnik_linnik_z(rng: np.random.Generator, n: int, p: LinnikParams):
    lin = _linnik_stable_weibull(rng, n, p)
    z = _z_values(rng, n, p.nu, 1.0)
    return lin * z ** (-1.0 / p.alpha)


def _gen_linnik_stable_genml(rng: np.random.Generator, n: int, p: LinnikParams):
    # Split alpha = a * b with a <= 2 symmetric-stable and b < 1 inner
    # exponent; this split is exact and collapses to stable_gamma at
    # alpha = 2.
    b = (p.alpha + 2.0) / 4.0
    a = 4.0 * p.alpha / (p.alpha + 2.0)
    s = _stable_symmetric_values(rng, n, a)
    m = _gen_ml_values(rng, n, b, p.nu)
    return s * m ** (1.0 / a)


def _neg_binom_values(rng: np.random.Generator, n: int, p: NegBinParams):
    lam = rng.standard_gamma(p.nu, n) * ((1.0 - p.p) / p.p)
    return 1.0 + rng.poisson(lam).astype(float)


_STABLE_KERNELS = {
    "symmetric": _stable_symmetric_values,
    "one_sided": _stable_one_sided_values,
}


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

    routes maps each route to its kernel(rng, n, params), default first; a
    family with one route keys it None and offers no method. constraints is
    the domain text of `htmix list`. positive, cf, lst and domain read the
    validated params: cf and lst build the closed transform or return None,
    and domain rejects params/method pairs the record alone accepts.
    """

    record: type | None
    routes: Mapping[str | None, Callable]
    constraints: str
    positive: Callable[[object], bool] = lambda p: False
    cf: Callable[[object], Callable[[float], float] | None] = lambda p: None
    lst: Callable[[object], Callable[[float], float] | None] = lambda p: None
    domain: Callable[[object, str | None], None] = lambda p, method: None


_FAMILY_TABLE: dict[str, _Family] = {
    "normal": _Family(
        None,
        {None: lambda rng, n, p: rng.standard_normal(n)},
        "no parameters",
        cf=lambda p: lambda t: math.exp(-0.5 * t * t),
    ),
    "laplace": _Family(
        None,
        {None: lambda rng, n, p: rng.laplace(0.0, 1.0, n)},
        "no parameters",
        cf=lambda p: lambda t: 1.0 / (1.0 + t * t),
    ),
    "exponential": _Family(
        None,
        {None: lambda rng, n, p: rng.standard_exponential(n)},
        "no parameters",
        positive=lambda p: True,
        lst=lambda p: lambda s: 1.0 / (1.0 + s),
    ),
    "weibull": _Family(
        WeibullParams,
        {None: lambda rng, n, p: rng.standard_exponential(n) ** (1.0 / p.gamma)},
        "gamma > 0",
        positive=lambda p: True,
    ),
    "gamma": _Family(
        GammaParams,
        {None: lambda rng, n, p: rng.standard_gamma(p.r, n) / p.lam},
        "r > 0, lambda > 0",
        positive=lambda p: True,
        lst=lambda p: lambda s: (1.0 + s / p.lam) ** (-p.r),
    ),
    "gen_gamma": _Family(
        GGParams,
        {
            None: lambda rng, n, p: (rng.standard_gamma(p.r, n) / p.lam)
            ** (1.0 / p.alpha)
        },
        "r > 0, alpha != 0, lambda > 0",
        positive=lambda p: True,
    ),
    "exp_power": _Family(
        ExpPowerParams,
        {None: lambda rng, n, p: rng.standard_gamma(p.nu, n) ** p.nu},
        "nu > 0",
        positive=lambda p: True,
    ),
    "neg_binom": _Family(
        NegBinParams,
        {None: _neg_binom_values},
        "nu > 0, p in (0, 1)",
        positive=lambda p: True,
    ),
    "stable": _Family(
        StableParams,
        {None: lambda rng, n, p: _STABLE_KERNELS[p.theta](rng, n, p.alpha)},
        "alpha in (0, 2]; theta one-sided needs alpha <= 1",
        positive=lambda p: p.theta == "one_sided",
        cf=lambda p: (
            (lambda t: math.exp(-abs(t) ** p.alpha))
            if p.theta == "symmetric"
            else None
        ),
        lst=lambda p: (
            (lambda s: math.exp(-(s**p.alpha))) if p.theta == "one_sided" else None
        ),
    ),
    "stable_ratio": _Family(
        StableRatioParams,
        {None: lambda rng, n, p: _stable_ratio_values(rng, n, p.delta)},
        "delta in (0, 1)",
        positive=lambda p: True,
    ),
    "z_mix": _Family(
        ZParams,
        {None: lambda rng, n, p: _z_values(rng, n, p.r, p.mu)},
        "r in (0, 1], mu > 0",
        positive=lambda p: True,
    ),
    "mittag_leffler": _Family(
        MLParams,
        {
            "stable_weibull": lambda rng, n, p: _ml_stable_weibull(rng, n, p.delta),
            "exp_ratio": lambda rng, n, p: _ml_exp_ratio(rng, n, p.delta),
        },
        "delta in (0, 1]",
        positive=lambda p: True,
        lst=lambda p: lambda s: 1.0 / (1.0 + s**p.delta),
        domain=lambda p, method: _require_nu_one("mittag_leffler", p),
    ),
    "gen_mittag_leffler": _Family(
        MLParams,
        {None: lambda rng, n, p: _gen_ml_values(rng, n, p.delta, p.nu)},
        "delta in (0, 1], nu > 0",
        positive=lambda p: True,
        lst=lambda p: lambda s: (1.0 + s**p.delta) ** (-p.nu),
    ),
    "linnik": _Family(
        LinnikParams,
        {
            "stable_weibull": _linnik_stable_weibull,
            "normal_ml": _linnik_normal_ml,
            "laplace_ratio": _linnik_laplace_ratio,
        },
        "alpha in (0, 2]",
        cf=lambda p: lambda t: 1.0 / (1.0 + abs(t) ** p.alpha),
        domain=_linnik_domain,
    ),
    "gen_linnik": _Family(
        LinnikParams,
        {
            "stable_gamma": _gen_linnik_stable_gamma,
            "normal_genml": _gen_linnik_normal_genml,
            "linnik_z": _gen_linnik_linnik_z,
            "stable_genml": _gen_linnik_stable_genml,
        },
        "alpha in (0, 2], nu > 0",
        cf=lambda p: lambda t: (1.0 + abs(t) ** p.alpha) ** (-p.nu),
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
    kernel = _FAMILY_TABLE[spec.family].routes[spec.resolved_method()]
    values = kernel(stream.generator(), n, spec.params)
    return SampleBatch(values, spec, int(stream.seed), int(stream.substream), n)


def analytic_cf(spec: DistSpec) -> Callable[[float], float] | None:
    """Real characteristic function of a symmetric family, or None."""
    return _FAMILY_TABLE[spec.family].cf(spec.params)


def analytic_lst(spec: DistSpec) -> Callable[[float], float] | None:
    """Laplace transform of a nonnegative family, or None."""
    return _FAMILY_TABLE[spec.family].lst(spec.params)
