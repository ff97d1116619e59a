"""Parameter records and exact samplers for heavy-tailed mixture families.

Fifteen families: eight basics (normal, laplace, exponential, weibull, gamma,
gen_gamma, exp_power, neg_binom) and seven structured laws (stable,
stable_ratio, z_mix, mittag_leffler, gen_mittag_leffler, linnik, gen_linnik).
Every structured sampler is built from an exact mixture representation, never
from approximate inversion. Samplers are pure functions of (spec, n, stream):
same inputs, bit-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
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


_RECORD_TYPES: dict[str, type | None] = {
    "normal": None,
    "laplace": None,
    "exponential": None,
    "weibull": WeibullParams,
    "gamma": GammaParams,
    "gen_gamma": GGParams,
    "exp_power": ExpPowerParams,
    "neg_binom": NegBinParams,
    "stable": StableParams,
    "stable_ratio": StableRatioParams,
    "z_mix": ZParams,
    "mittag_leffler": MLParams,
    "gen_mittag_leffler": MLParams,
    "linnik": LinnikParams,
    "gen_linnik": LinnikParams,
}

FAMILIES = tuple(_RECORD_TYPES)

METHODS: dict[str, tuple[str, ...]] = {
    "mittag_leffler": ("stable_weibull", "exp_ratio"),
    "linnik": ("stable_weibull", "normal_ml", "laplace_ratio"),
    "gen_linnik": ("stable_gamma", "normal_genml", "linnik_z", "stable_genml"),
}

@dataclass(frozen=True)
class DistSpec:
    """One distribution family with validated parameters and optional method."""

    family: str
    params: object = None
    method: str | None = None

    def __post_init__(self) -> None:
        if self.family not in _RECORD_TYPES:
            raise DomainError(f"unknown family {self.family!r}")
        record_type = _RECORD_TYPES[self.family]
        params = self.params
        if record_type is None:
            if params not in (None, {}, ()):
                raise DomainError(f"family {self.family!r} takes no parameters")
            params = None
        elif isinstance(params, record_type):
            pass
        elif isinstance(params, Mapping):
            try:
                params = record_type(**params)
            except TypeError as exc:
                raise DomainError(
                    f"bad parameters for family {self.family!r}: {exc}"
                ) from exc
        else:
            raise DomainError(
                f"family {self.family!r} needs {record_type.__name__} parameters"
            )
        object.__setattr__(self, "params", params)
        allowed = METHODS.get(self.family, ())
        if self.method is not None and self.method not in allowed:
            raise DomainError(
                f"method {self.method!r} is not defined for family {self.family!r}"
            )
        if self.family in ("mittag_leffler", "linnik") and self.params.nu != 1.0:
            raise DomainError(
                f"{self.family} requires nu = 1; use gen_{self.family}"
            )
        if self.family == "linnik" and self.method == "laplace_ratio":
            if self.params.alpha >= 2:
                raise DomainError("method laplace_ratio requires alpha < 2")
        if self.family == "gen_linnik" and self.method == "linnik_z":
            if self.params.nu > 1:
                raise DomainError("method linnik_z requires nu <= 1")

    def resolved_method(self) -> str | None:
        if self.family in METHODS:
            return self.method or METHODS[self.family][0]
        return None

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
# part of the determinism contract.


def _stable_symmetric_values(rng: np.random.Generator, n: int, alpha: float):
    if alpha == 2.0:
        return math.sqrt(2.0) * rng.standard_normal(n)
    phi = rng.uniform(-math.pi / 2, math.pi / 2, n)
    if alpha == 1.0:
        return np.tan(phi)
    w = rng.standard_exponential(n)
    # Trig transform evaluated in logs: stays finite for alpha near the ends.
    ln_abs = (
        np.log(np.abs(np.sin(alpha * phi)))
        - np.log(np.cos(phi)) / alpha
        + ((1.0 - alpha) / alpha)
        * (np.log(np.cos((1.0 - alpha) * phi)) - np.log(w))
    )
    return np.sign(np.sin(alpha * phi)) * np.exp(ln_abs)


def _stable_one_sided_values(rng: np.random.Generator, n: int, alpha: float):
    if alpha == 1.0:
        return np.ones(n)
    u = rng.random(n)
    u = np.clip(u, 1e-300, 1.0 - 1e-16)
    w = rng.standard_exponential(n)
    ln_a = (
        np.log(np.sin((1.0 - alpha) * math.pi * u))
        + (alpha / (1.0 - alpha)) * np.log(np.sin(alpha * math.pi * u))
        - (1.0 / (1.0 - alpha)) * np.log(np.sin(math.pi * u))
    )
    return np.exp(((1.0 - alpha) / alpha) * (ln_a - np.log(w)))


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


def _ml_values(rng: np.random.Generator, n: int, delta: float, method: str):
    if method == "stable_weibull":
        s = _stable_one_sided_values(rng, n, delta)
        w = rng.standard_exponential(n) ** (1.0 / delta)
        return s * w
    if method == "exp_ratio":
        w = rng.standard_exponential(n)
        return w * _stable_ratio_values(rng, n, delta)
    raise DomainError(f"unknown mittag_leffler method {method!r}")


def _gen_ml_values(rng: np.random.Generator, n: int, delta: float, nu: float):
    s = _stable_one_sided_values(rng, n, delta)
    g = rng.standard_gamma(nu, n) ** (1.0 / delta)
    return s * g


def _linnik_values(rng: np.random.Generator, n: int, alpha: float, method: str):
    if method == "stable_weibull":
        s = _stable_symmetric_values(rng, n, alpha)
        w = rng.standard_exponential(n) ** (1.0 / alpha)
        return s * w
    if method == "normal_ml":
        x = rng.standard_normal(n)
        m = _ml_values(rng, n, alpha / 2.0, "stable_weibull")
        return x * np.sqrt(2.0 * m)
    if method == "laplace_ratio":
        if alpha >= 2.0:
            raise DomainError("method laplace_ratio requires alpha < 2")
        lap = rng.laplace(0.0, 1.0, n)
        return lap * np.sqrt(_stable_ratio_values(rng, n, alpha / 2.0))
    raise DomainError(f"unknown linnik method {method!r}")


def _gen_linnik_values(
    rng: np.random.Generator, n: int, alpha: float, nu: float, method: str
):
    if method == "stable_gamma":
        s = _stable_symmetric_values(rng, n, alpha)
        g = rng.standard_gamma(nu, n) ** (1.0 / alpha)
        return s * g
    if method == "normal_genml":
        x = rng.standard_normal(n)
        m = _gen_ml_values(rng, n, alpha / 2.0, nu)
        return x * np.sqrt(2.0 * m)
    if method == "linnik_z":
        if nu > 1.0:
            raise DomainError("method linnik_z requires nu <= 1")
        lin = _linnik_values(rng, n, alpha, "stable_weibull")
        z = _z_values(rng, n, nu, 1.0)
        return lin * z ** (-1.0 / alpha)
    if method == "stable_genml":
        # Split alpha = a * b with a <= 2 symmetric-stable and b < 1 inner
        # exponent; this split is exact and collapses to stable_gamma at
        # alpha = 2.
        b = (alpha + 2.0) / 4.0
        a = 4.0 * alpha / (alpha + 2.0)
        s = _stable_symmetric_values(rng, n, a)
        m = _gen_ml_values(rng, n, b, nu)
        return s * m ** (1.0 / a)
    raise DomainError(f"unknown gen_linnik method {method!r}")


def _basic_values(rng: np.random.Generator, n: int, spec: DistSpec):
    fam = spec.family
    p = spec.params
    if fam == "normal":
        return rng.standard_normal(n)
    if fam == "laplace":
        return rng.laplace(0.0, 1.0, n)
    if fam == "exponential":
        return rng.standard_exponential(n)
    if fam == "weibull":
        return rng.standard_exponential(n) ** (1.0 / p.gamma)
    if fam == "gamma":
        return rng.standard_gamma(p.r, n) / p.lam
    if fam == "gen_gamma":
        return (rng.standard_gamma(p.r, n) / p.lam) ** (1.0 / p.alpha)
    if fam == "exp_power":
        return rng.standard_gamma(p.nu, n) ** p.nu
    if fam == "neg_binom":
        lam = rng.standard_gamma(p.nu, n) * ((1.0 - p.p) / p.p)
        return 1.0 + rng.poisson(lam).astype(float)
    raise DomainError(f"unknown family {fam!r}")


def _check_n(n) -> int:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError("n must be a positive integer")
    return int(n)


def _check_stream(stream) -> RandomStream:
    if not isinstance(stream, RandomStream):
        raise DomainError("stream must be a RandomStream")
    return stream


def sample(spec: DistSpec, n, stream: RandomStream) -> SampleBatch:
    """Draw n values from any family under the given stream."""
    if not isinstance(spec, DistSpec):
        raise DomainError("spec must be a DistSpec")
    n = _check_n(n)
    stream = _check_stream(stream)
    rng = stream.generator()
    fam = spec.family
    p = spec.params
    if fam == "stable":
        if p.theta == "symmetric":
            values = _stable_symmetric_values(rng, n, p.alpha)
        else:
            values = _stable_one_sided_values(rng, n, p.alpha)
    elif fam == "stable_ratio":
        values = _stable_ratio_values(rng, n, p.delta)
    elif fam == "z_mix":
        values = _z_values(rng, n, p.r, p.mu)
    elif fam == "mittag_leffler":
        values = _ml_values(rng, n, p.delta, spec.resolved_method())
    elif fam == "gen_mittag_leffler":
        values = _gen_ml_values(rng, n, p.delta, p.nu)
    elif fam == "linnik":
        values = _linnik_values(rng, n, p.alpha, spec.resolved_method())
    elif fam == "gen_linnik":
        values = _gen_linnik_values(rng, n, p.alpha, p.nu, spec.resolved_method())
    else:
        values = _basic_values(rng, n, spec)
    return SampleBatch(values, spec, int(stream.seed), int(stream.substream), n)


# ---------------------------------------------------------------------------
# Closed-form transforms, where the family has one.


def analytic_cf(spec: DistSpec) -> Callable[[float], float] | None:
    """Real characteristic function of a symmetric family, or None."""
    fam = spec.family
    p = spec.params
    if fam == "normal":
        return lambda t: math.exp(-0.5 * t * t)
    if fam == "laplace":
        return lambda t: 1.0 / (1.0 + t * t)
    if fam == "stable" and p.theta == "symmetric":
        return lambda t: math.exp(-abs(t) ** p.alpha)
    if fam == "linnik":
        return lambda t: 1.0 / (1.0 + abs(t) ** p.alpha)
    if fam == "gen_linnik":
        return lambda t: (1.0 + abs(t) ** p.alpha) ** (-p.nu)
    return None


def analytic_lst(spec: DistSpec) -> Callable[[float], float] | None:
    """Laplace transform of a nonnegative family, or None."""
    fam = spec.family
    p = spec.params
    if fam == "exponential":
        return lambda s: 1.0 / (1.0 + s)
    if fam == "gamma":
        return lambda s: (1.0 + s / p.lam) ** (-p.r)
    if fam == "stable" and p.theta == "one_sided":
        return lambda s: math.exp(-(s**p.alpha))
    if fam == "mittag_leffler":
        return lambda s: 1.0 / (1.0 + s**p.delta)
    if fam == "gen_mittag_leffler":
        return lambda s: (1.0 + s**p.delta) ** (-p.nu)
    return None
