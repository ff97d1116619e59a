"""Registry of distributional equalities between mixture representations.

Each case pairs a directly-sampled law (lhs) with a product-form mixture
expression (rhs) that should follow the same law, together with the exact
parameter hypothesis under which the equality holds. Cases are checked
statistically: two-sample KS always, plus empirical CF or Laplace-transform
distance when the lhs law has a closed transform.

Anchor notation (used in the `anchor` strings):

    X          standard normal
    Lam        standard Laplace
    W(g)       Weibull with shape g; W(1) is the standard exponential
    G(r,m)     gamma with shape r and rate m
    GG(r,a,m)  generalized gamma, the 1/a power of G(r,m)
    D(v)       one-sided exponential-power law, the v-th power of G(v,1)
    S(a,0)     symmetric strictly stable, cf exp(-|t|^a)
    S(a,1)     one-sided strictly stable, Laplace transform exp(-s^a)
    R(d)       ratio of two independent copies of S(d,1)
    Z(r,m)     gamma-ratio mixing law supported on [m, inf)
    M(d)       Mittag-Leffler; M(d,v) its generalized form
    L(a)       Linnik; L(a,v) its generalized form

"=d=" is equality in distribution; distinct factors are independent.
Degenerate endpoints are exact: S(1,1) and R(1) are the constant 1, and
builders drop a ratio factor R(1) rather than sample it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np

from . import _pool
from .distributions import (
    DistSpec,
    GammaParams,
    GGParams,
    ExpPowerParams,
    LinnikParams,
    MLParams,
    SampleBatch,
    StableParams,
    StableRatioParams,
    WeibullParams,
    ZParams,
    analytic_cf,
    analytic_lst,
    sample,
)
from .errors import DomainError
from .streams import DEFAULT_SEED, RandomStream
from .verification import (
    DEFAULT_S_GRID,
    DEFAULT_T_GRID,
    MetricEntry,
    VerificationReport,
    ecf_distance,
    ks_two_sample,
    ks_two_sample_threshold,
    lst_distance,
)

__all__ = [
    "Draw",
    "Product",
    "Power",
    "Reciprocal",
    "Scale",
    "Abs",
    "DistExpr",
    "evaluate",
    "GridPoint",
    "IdentityCase",
    "registry",
    "get_case",
    "instantiate",
    "verify",
    "run_grid",
    "registry_json",
]


@dataclass(frozen=True)
class Draw:
    """A leaf: one independent draw from a single family."""

    spec: DistSpec

    def __post_init__(self) -> None:
        if not isinstance(self.spec, DistSpec):
            raise DomainError("Draw needs a DistSpec")

    @property
    def positive(self) -> bool:
        return self.spec.positive

    def describe(self) -> str:
        return self.spec.describe()


@dataclass(frozen=True)
class Product:
    factors: tuple

    def __post_init__(self) -> None:
        if len(self.factors) < 2:
            raise DomainError("Product needs at least two factors")
        for f in self.factors:
            _check_expr(f)

    @property
    def positive(self) -> bool:
        return all(f.positive for f in self.factors)

    def describe(self) -> str:
        return " * ".join(f"({f.describe()})" for f in self.factors)


@dataclass(frozen=True)
class Power:
    base: object
    exponent: float

    def __post_init__(self) -> None:
        _check_expr(self.base)
        exponent = float(self.exponent)
        if not math.isfinite(exponent) or exponent == 0:
            raise DomainError("exponent must be nonzero and finite")
        if not self.base.positive and exponent != int(exponent):
            raise DomainError("fractional powers need an a.s.-positive base")
        object.__setattr__(self, "exponent", exponent)

    @property
    def positive(self) -> bool:
        return self.base.positive

    def describe(self) -> str:
        return f"({self.base.describe()})^{self.exponent:g}"


@dataclass(frozen=True)
class Reciprocal:
    base: object

    def __post_init__(self) -> None:
        _check_expr(self.base)
        if not self.base.positive:
            raise DomainError("reciprocal needs an a.s.-positive base")

    @property
    def positive(self) -> bool:
        return True

    def describe(self) -> str:
        return f"1/({self.base.describe()})"


@dataclass(frozen=True)
class Scale:
    base: object
    factor: float

    def __post_init__(self) -> None:
        _check_expr(self.base)
        factor = float(self.factor)
        if not math.isfinite(factor) or factor == 0:
            raise DomainError("scale factor must be nonzero and finite")
        object.__setattr__(self, "factor", factor)

    @property
    def positive(self) -> bool:
        return self.factor > 0 and self.base.positive

    def describe(self) -> str:
        return f"{self.factor:g}*({self.base.describe()})"


@dataclass(frozen=True)
class Abs:
    base: object

    def __post_init__(self) -> None:
        _check_expr(self.base)

    @property
    def positive(self) -> bool:
        # Zero has probability zero for every continuous family here.
        return True

    def describe(self) -> str:
        return f"|{self.base.describe()}|"


DistExpr = (Draw, Product, Power, Reciprocal, Scale, Abs)


def _check_expr(expr) -> None:
    if not isinstance(expr, DistExpr):
        raise DomainError(f"not an expression node: {expr!r}")


def evaluate(
    expr,
    n: int,
    stream: RandomStream,
    offsets: Iterator[int] | None = None,
) -> np.ndarray:
    """Draw n values of an expression, one substream per leaf.

    Leaves take consecutive substream offsets from `offsets` (default
    0, 1, 2, ... off the given stream) in depth-first order, which is what
    makes distinct leaves independent. Passing a custom iterator exists so
    tests can deliberately violate that discipline.
    """
    _check_expr(expr)
    if offsets is None:
        offsets = itertools.count()
    return _eval(expr, int(n), stream, offsets)


def _leaf_count(expr) -> int:
    if isinstance(expr, Draw):
        return 1
    if isinstance(expr, Product):
        return sum(_leaf_count(factor) for factor in expr.factors)
    return _leaf_count(expr.base)


def _eval(expr, n, stream, offsets) -> np.ndarray:
    if isinstance(expr, Draw):
        return sample(expr.spec, n, stream.shifted(next(offsets))).values
    if isinstance(expr, Product):
        out = _eval(expr.factors[0], n, stream, offsets)
        for factor in expr.factors[1:]:
            out = out * _eval(factor, n, stream, offsets)
        return out
    if isinstance(expr, Power):
        return _eval(expr.base, n, stream, offsets) ** expr.exponent
    if isinstance(expr, Reciprocal):
        return 1.0 / _eval(expr.base, n, stream, offsets)
    if isinstance(expr, Scale):
        return expr.factor * _eval(expr.base, n, stream, offsets)
    if isinstance(expr, Abs):
        return np.abs(_eval(expr.base, n, stream, offsets))
    raise DomainError(f"not an expression node: {expr!r}")


@dataclass(frozen=True)
class GridPoint:
    params: Mapping[str, float]
    n: int = 200_000


@dataclass(frozen=True)
class IdentityCase:
    """One distributional equality with its hypothesis and canonical grid."""

    id: str
    anchor: str
    param_names: tuple[str, ...]
    domain_text: str
    domain: Callable[[Mapping[str, float]], bool]
    lhs: Callable[[Mapping[str, float]], object]
    rhs: Callable[[Mapping[str, float]], object]
    grid: tuple[GridPoint, ...]

    def in_domain(self, params: Mapping[str, float]) -> bool:
        if set(params) != set(self.param_names):
            return False
        vals = {}
        for name in self.param_names:
            try:
                v = float(params[name])
            except (TypeError, ValueError):
                return False
            if not math.isfinite(v):
                return False
            vals[name] = v
        return bool(self.domain(vals))


# Leaf shorthands for the registry builders.


def _normal():
    return Draw(DistSpec("normal"))


def _lap():
    return Draw(DistSpec("laplace"))


def _w1():
    return Draw(DistSpec("exponential"))


def _wei(g):
    return Draw(DistSpec("weibull", WeibullParams(g)))


def _gam(r, m=1.0):
    return Draw(DistSpec("gamma", GammaParams(r, m)))


def _gg(r, a, m=1.0):
    return Draw(DistSpec("gen_gamma", GGParams(r, a, m)))


def _dpow(v):
    return Draw(DistSpec("exp_power", ExpPowerParams(v)))


def _sym(a):
    return Draw(DistSpec("stable", StableParams(a, "symmetric")))


def _pos(a):
    return Draw(DistSpec("stable", StableParams(a, "one_sided")))


def _ratio(d):
    return Draw(DistSpec("stable_ratio", StableRatioParams(d)))


def _ratio_opt(d):
    # R(1) is the constant 1; drop the factor instead of sampling it.
    return None if d == 1.0 else _ratio(d)


def _z(r, m=1.0):
    return Draw(DistSpec("z_mix", ZParams(r, m)))


def _ml(d):
    return Draw(DistSpec("mittag_leffler", MLParams(d)))


def _gml(d, v):
    return Draw(DistSpec("gen_mittag_leffler", MLParams(d, v)))


def _lin(a):
    return Draw(DistSpec("linnik", LinnikParams(a)))


def _glin(a, v):
    return Draw(DistSpec("gen_linnik", LinnikParams(a, v)))


def _prod(*factors):
    kept = tuple(f for f in factors if f is not None)
    if not kept:
        raise DomainError("empty product")
    if len(kept) == 1:
        return kept[0]
    return Product(kept)


def _sqrt(expr):
    return Power(expr, 0.5)


def _times2(expr):
    return Scale(expr, 2.0)


_SQRT2 = math.sqrt(2.0)


def _build_registry() -> tuple[IdentityCase, ...]:
    cases = []

    def add(case_id, anchor, names, domain_text, domain, lhs, rhs, grid):
        points = tuple(GridPoint(params) for params in grid)
        cases.append(
            IdentityCase(
                case_id, anchor, tuple(names), domain_text, domain, lhs, rhs, points
            )
        )

    add(
        "I01",
        "S(a*b,0) =d= S(a,0) * S(b,1)^(1/a)",
        ("a", "b"),
        "a in (0,2], b in (0,1]",
        lambda p: 0 < p["a"] <= 2 and 0 < p["b"] <= 1,
        lambda p: _sym(p["a"] * p["b"]),
        lambda p: _prod(_sym(p["a"]), Power(_pos(p["b"]), 1.0 / p["a"])),
        (
            {"a": 2.0, "b": 1.0},
            {"a": 2.0, "b": 0.6},
            {"a": 1.1, "b": 0.85},
            {"a": 0.5, "b": 0.3},
        ),
    )
    add(
        "I02",
        "S(a*b,1) =d= S(a,1) * S(b,1)^(1/a)",
        ("a", "b"),
        "a in (0,1], b in (0,1]",
        lambda p: 0 < p["a"] <= 1 and 0 < p["b"] <= 1,
        lambda p: _pos(p["a"] * p["b"]),
        lambda p: _prod(_pos(p["a"]), Power(_pos(p["b"]), 1.0 / p["a"])),
        (
            {"a": 1.0, "b": 1.0},
            {"a": 0.9, "b": 0.7},
            {"a": 0.4, "b": 0.35},
        ),
    )
    add(
        "I03",
        "S(a,0) =d= X * sqrt(2*S(a/2,1))",
        ("a",),
        "a in (0,2]",
        lambda p: 0 < p["a"] <= 2,
        lambda p: _sym(p["a"]),
        lambda p: _prod(_normal(), _sqrt(_times2(_pos(p["a"] / 2)))),
        ({"a": 2.0}, {"a": 1.3}, {"a": 0.4}),
    )
    add(
        "I04",
        "W(g*b) =d= W(b)^(1/g)",
        ("g", "b"),
        "g > 0, b > 0",
        lambda p: p["g"] > 0 and p["b"] > 0,
        lambda p: _wei(p["g"] * p["b"]),
        lambda p: Power(_wei(p["b"]), 1.0 / p["g"]),
        (
            {"g": 1.0, "b": 1.0},
            {"g": 2.5, "b": 0.8},
            {"g": 0.4, "b": 0.5},
        ),
    )
    add(
        "I05",
        "W(g) =d= W(1) / S(g,1)",
        ("g",),
        "g in (0,1]",
        lambda p: 0 < p["g"] <= 1,
        lambda p: _wei(p["g"]),
        lambda p: _prod(_w1(), Reciprocal(_pos(p["g"]))),
        ({"g": 1.0}, {"g": 0.6}, {"g": 0.25}),
    )
    add(
        "I06",
        "G(r,m) =d= W(1) / Z(r,m)",
        ("r", "m"),
        "r in (0,1), m > 0",
        lambda p: 0 < p["r"] < 1 and p["m"] > 0,
        lambda p: _gam(p["r"], p["m"]),
        lambda p: _prod(_w1(), Reciprocal(_z(p["r"], p["m"]))),
        (
            {"r": 0.9, "m": 1.0},
            {"r": 0.5, "m": 2.0},
            {"r": 0.15, "m": 1.0},
        ),
    )
    add(
        "I07",
        "GG(r,a,m) =d= W(1) / (S(a,1) * Z(r,m)^(1/a))",
        ("r", "a", "m"),
        "a in (0,1], r in (0,1), m > 0",
        lambda p: 0 < p["a"] <= 1 and 0 < p["r"] < 1 and p["m"] > 0,
        lambda p: _gg(p["r"], p["a"], p["m"]),
        lambda p: _prod(
            _w1(),
            Reciprocal(_prod(_pos(p["a"]), Power(_z(p["r"], p["m"]), 1.0 / p["a"]))),
        ),
        (
            {"r": 0.5, "a": 1.0, "m": 1.0},
            {"r": 0.7, "a": 0.6, "m": 2.0},
            {"r": 0.2, "a": 0.3, "m": 1.0},
        ),
    )
    add(
        "I08",
        "M(d) =d= S(d,1) * W(d)",
        ("d",),
        "d in (0,1]",
        lambda p: 0 < p["d"] <= 1,
        lambda p: _ml(p["d"]),
        lambda p: _prod(_pos(p["d"]), _wei(p["d"])),
        ({"d": 1.0}, {"d": 0.7}, {"d": 0.25}),
    )
    add(
        "I09",
        "M(d) =d= W(1) * R(d)",
        ("d",),
        "d in (0,1]",
        lambda p: 0 < p["d"] <= 1,
        lambda p: _ml(p["d"]),
        lambda p: _prod(_w1(), _ratio_opt(p["d"])),
        ({"d": 1.0}, {"d": 0.6}, {"d": 0.2}),
    )
    add(
        "I10",
        "M(d*b) =d= M(d) * R(b)^(1/d)",
        ("d", "b"),
        "d in (0,1], b in (0,1]",
        lambda p: 0 < p["d"] <= 1 and 0 < p["b"] <= 1,
        lambda p: _ml(p["d"] * p["b"]),
        lambda p: _prod(
            _ml(p["d"]),
            None if p["b"] == 1.0 else Power(_ratio(p["b"]), 1.0 / p["d"]),
        ),
        (
            {"d": 1.0, "b": 1.0},
            {"d": 0.7, "b": 0.8},
            {"d": 0.3, "b": 0.4},
        ),
    )
    add(
        "I11",
        "L(a) =d= S(a,0) * W(1)^(1/a)",
        ("a",),
        "a in (0,2]",
        lambda p: 0 < p["a"] <= 2,
        lambda p: _lin(p["a"]),
        lambda p: _prod(_sym(p["a"]), Power(_w1(), 1.0 / p["a"])),
        ({"a": 2.0}, {"a": 1.4}, {"a": 0.5}),
    )
    add(
        "I12",
        "L(a*b) =d= L(a) * R(b)^(1/a)",
        ("a", "b"),
        "a in (0,2], b in (0,1]",
        lambda p: 0 < p["a"] <= 2 and 0 < p["b"] <= 1,
        lambda p: _lin(p["a"] * p["b"]),
        lambda p: _prod(
            _lin(p["a"]),
            None if p["b"] == 1.0 else Power(_ratio(p["b"]), 1.0 / p["a"]),
        ),
        (
            {"a": 2.0, "b": 1.0},
            {"a": 1.5, "b": 0.7},
            {"a": 0.6, "b": 0.4},
        ),
    )
    add(
        "I13",
        "L(a) =d= Lam * sqrt(R(a/2))",
        ("a",),
        "a in (0,2)",
        lambda p: 0 < p["a"] < 2,
        lambda p: _lin(p["a"]),
        lambda p: _prod(_lap(), _sqrt(_ratio(p["a"] / 2))),
        ({"a": 1.9}, {"a": 1.2}, {"a": 0.5}),
    )
    add(
        "I14",
        "L(a*b) =d= S(a,0) * M(b)^(1/a)",
        ("a", "b"),
        "a in (0,2], b in (0,1]",
        lambda p: 0 < p["a"] <= 2 and 0 < p["b"] <= 1,
        lambda p: _lin(p["a"] * p["b"]),
        lambda p: _prod(_sym(p["a"]), Power(_ml(p["b"]), 1.0 / p["a"])),
        (
            {"a": 2.0, "b": 1.0},
            {"a": 1.6, "b": 0.75},
            {"a": 0.7, "b": 0.35},
        ),
    )
    add(
        "I15",
        "L(a) =d= X * sqrt(2*M(a/2))",
        ("a",),
        "a in (0,2]",
        lambda p: 0 < p["a"] <= 2,
        lambda p: _lin(p["a"]),
        lambda p: _prod(_normal(), _sqrt(_times2(_ml(p["a"] / 2)))),
        ({"a": 2.0}, {"a": 1.2}, {"a": 0.45}),
    )
    add(
        "I16",
        "M(d) =d= sqrt(2) * |X| * R(d) * W(2)",
        ("d",),
        "d in (0,1]",
        lambda p: 0 < p["d"] <= 1,
        lambda p: _ml(p["d"]),
        lambda p: _prod(
            Scale(Abs(_normal()), _SQRT2), _ratio_opt(p["d"]), _wei(2.0)
        ),
        ({"d": 1.0}, {"d": 0.65}, {"d": 0.25}),
    )
    add(
        "I17",
        "L(a,v) =d= S(a,0) * G(v,1)^(1/a)",
        ("a", "v"),
        "a in (0,2], v > 0",
        lambda p: 0 < p["a"] <= 2 and p["v"] > 0,
        lambda p: _glin(p["a"], p["v"]),
        lambda p: _prod(_sym(p["a"]), Power(_gam(p["v"]), 1.0 / p["a"])),
        (
            {"a": 1.0, "v": 1.0},
            {"a": 2.0, "v": 2.5},
            {"a": 1.5, "v": 0.8},
            {"a": 0.5, "v": 3.0},
        ),
    )
    add(
        "I18",
        "L(a,v) =d= S(a,0) * D(v)^(1/(a*v))",
        ("a", "v"),
        "a in (0,2], v > 0",
        lambda p: 0 < p["a"] <= 2 and p["v"] > 0,
        lambda p: _glin(p["a"], p["v"]),
        lambda p: _prod(_sym(p["a"]), Power(_dpow(p["v"]), 1.0 / (p["a"] * p["v"]))),
        (
            {"a": 2.0, "v": 1.0},
            {"a": 1.3, "v": 2.0},
            {"a": 0.6, "v": 0.5},
        ),
    )
    add(
        "I19",
        "M(d,v) =d= S(d,1) * GG(v,d,1)",
        ("d", "v"),
        "d in (0,1], v > 0",
        lambda p: 0 < p["d"] <= 1 and p["v"] > 0,
        lambda p: _gml(p["d"], p["v"]),
        lambda p: _prod(_pos(p["d"]), _gg(p["v"], p["d"])),
        (
            {"d": 1.0, "v": 2.0},
            {"d": 0.75, "v": 1.5},
            {"d": 0.3, "v": 0.7},
        ),
    )
    add(
        "I20",
        "L(a,v) =d= X * sqrt(2*M(a/2,v))",
        ("a", "v"),
        "a in (0,2], v > 0",
        lambda p: 0 < p["a"] <= 2 and p["v"] > 0,
        lambda p: _glin(p["a"], p["v"]),
        lambda p: _prod(_normal(), _sqrt(_times2(_gml(p["a"] / 2, p["v"])))),
        (
            {"a": 2.0, "v": 1.0},
            {"a": 1.5, "v": 2.0},
            {"a": 0.6, "v": 0.5},
        ),
    )
    add(
        "I21",
        "L(a*b,v) =d= S(a,0) * M(b,v)^(1/a)",
        ("a", "b", "v"),
        "a in (0,2], b in (0,1), v > 0",
        lambda p: 0 < p["a"] <= 2 and 0 < p["b"] < 1 and p["v"] > 0,
        lambda p: _glin(p["a"] * p["b"], p["v"]),
        lambda p: _prod(_sym(p["a"]), Power(_gml(p["b"], p["v"]), 1.0 / p["a"])),
        (
            {"a": 2.0, "b": 0.95, "v": 1.5},
            {"a": 1.4, "b": 0.6, "v": 2.5},
            {"a": 0.8, "b": 0.3, "v": 0.6},
        ),
    )
    add(
        "I22",
        "L(a,v) =d= L(a) * Z(v,1)^(-1/a)",
        ("a", "v"),
        "a in (0,2], v in (0,1]",
        lambda p: 0 < p["a"] <= 2 and 0 < p["v"] <= 1,
        lambda p: _glin(p["a"], p["v"]),
        lambda p: _prod(_lin(p["a"]), Power(_z(p["v"]), -1.0 / p["a"])),
        (
            {"a": 1.5, "v": 1.0},
            {"a": 1.8, "v": 0.6},
            {"a": 0.5, "v": 0.3},
        ),
    )
    add(
        "I23",
        "L(a,v) =d= X * Z(v,1)^(-1/a) * sqrt(2*M(a/2))",
        ("a", "v"),
        "a in (0,2], v in (0,1]",
        lambda p: 0 < p["a"] <= 2 and 0 < p["v"] <= 1,
        lambda p: _glin(p["a"], p["v"]),
        lambda p: _prod(
            _normal(),
            Power(_z(p["v"]), -1.0 / p["a"]),
            _sqrt(_times2(_ml(p["a"] / 2))),
        ),
        (
            {"a": 2.0, "v": 1.0},
            {"a": 1.3, "v": 0.7},
            {"a": 0.6, "v": 0.35},
        ),
    )
    add(
        "I24",
        "M(d,v) =d= Z(v,1)^(-1/d) * M(d)",
        ("d", "v"),
        "d in (0,1], v in (0,1]",
        lambda p: 0 < p["d"] <= 1 and 0 < p["v"] <= 1,
        lambda p: _gml(p["d"], p["v"]),
        lambda p: _prod(Power(_z(p["v"]), -1.0 / p["d"]), _ml(p["d"])),
        (
            {"d": 1.0, "v": 1.0},
            {"d": 0.7, "v": 0.5},
            {"d": 0.25, "v": 0.8},
        ),
    )
    add(
        "I25",
        "M(d*b,v) =d= S(d,1) * M(b,v)^(1/d)",
        ("d", "b", "v"),
        "d in (0,1], b in (0,1], v > 0",
        lambda p: 0 < p["d"] <= 1 and 0 < p["b"] <= 1 and p["v"] > 0,
        lambda p: _gml(p["d"] * p["b"], p["v"]),
        lambda p: _prod(_pos(p["d"]), Power(_gml(p["b"], p["v"]), 1.0 / p["d"])),
        (
            {"d": 1.0, "b": 1.0, "v": 2.0},
            {"d": 0.8, "b": 0.7, "v": 1.5},
            {"d": 0.35, "b": 0.45, "v": 0.8},
        ),
    )
    add(
        "I26",
        "GG(r,a,m) =d= G(r,m)^(1/a)",
        ("r", "a", "m"),
        "r > 0, a != 0, m > 0",
        lambda p: p["r"] > 0 and p["a"] != 0 and p["m"] > 0,
        lambda p: _gg(p["r"], p["a"], p["m"]),
        lambda p: Power(_gam(p["r"], p["m"]), 1.0 / p["a"]),
        (
            {"r": 2.0, "a": 3.0, "m": 1.0},
            {"r": 1.5, "a": 0.4, "m": 0.5},
            {"r": 0.5, "a": -1.2, "m": 2.0},
        ),
    )

    return tuple(cases)


_REGISTRY = _build_registry()
_BY_ID = {case.id: case for case in _REGISTRY}


def registry() -> tuple[IdentityCase, ...]:
    """All registered identity cases, in id order."""
    return _REGISTRY


def get_case(case_id: str) -> IdentityCase:
    try:
        return _BY_ID[case_id]
    except KeyError:
        raise DomainError(f"unknown identity id {case_id!r}") from None


def instantiate(
    case: IdentityCase,
    params: Mapping[str, float],
    n: int,
    stream: RandomStream,
) -> tuple[SampleBatch, SampleBatch]:
    """Draw both sides of one case at given parameters.

    Leaves on the two sides take consecutive substream offsets off the same
    stream, so every leaf is independent of every other. The offsets are
    taken up front, first the lhs leaves and then the rhs leaves, each side
    depth-first as in ``evaluate``; the two sides are then drawn
    concurrently on the package's worker pool, each with its own offsets.
    The values depend on the seed alone, never on the thread count.
    """
    if not case.in_domain(params):
        raise DomainError(
            f"{case.id}: parameters {dict(params)} violate domain {case.domain_text}"
        )
    params = {k: float(params[k]) for k in case.param_names}
    n = int(n)
    if n < 1:
        raise DomainError("n must be a positive integer")
    offsets = itertools.count()
    sides = []
    for side, expr in (("lhs", case.lhs(params)), ("rhs", case.rhs(params))):
        taken = iter(list(itertools.islice(offsets, _leaf_count(expr))))
        values = _pool.submit(evaluate, expr, n, stream, taken)
        sides.append((f"{case.id}:{side} {expr.describe()}", values))
    lhs, rhs = (
        SampleBatch(values.result(), label, stream.seed, stream.substream, n)
        for label, values in sides
    )
    return lhs, rhs


def verify(
    case: IdentityCase,
    params: Mapping[str, float],
    n: int = 200_000,
    seed: int = DEFAULT_SEED,
    *,
    substream_base: int = 0,
    q: float = 0.01,
    t_grid=DEFAULT_T_GRID,
    s_grid=DEFAULT_S_GRID,
) -> VerificationReport:
    """Check one case at one parameter point; returns the metric report.

    KS runs always. When the lhs law has a closed characteristic function
    or Laplace transform, both sides are also checked against it with
    bounded-kernel envelopes (4/sqrt(n) for the CF, 1.5/sqrt(n) for the
    Laplace transform). The two sides are drawn concurrently (see
    ``instantiate``), then every metric is computed concurrently on the
    package's worker pool; the report lists them in the order ks, ecf_lhs,
    ecf_rhs, lst_lhs, lst_rhs and is the same for any thread count.
    """
    stream = RandomStream(seed, substream_base)
    lhs, rhs = instantiate(case, params, n, stream)
    # (name, pending value, threshold), in report order.
    pending = [
        (
            "ks",
            _pool.submit(ks_two_sample, lhs, rhs),
            ks_two_sample_threshold(lhs.n, rhs.n, q),
        )
    ]
    lhs_expr = case.lhs({k: float(params[k]) for k in case.param_names})
    lhs_spec = lhs_expr.spec if isinstance(lhs_expr, Draw) else None
    cf = analytic_cf(lhs_spec) if lhs_spec is not None else None
    if cf is not None:
        for name, batch in (("ecf_lhs", lhs), ("ecf_rhs", rhs)):
            pending.append(
                (
                    name,
                    _pool.submit(ecf_distance, batch, cf, t_grid),
                    4.0 / math.sqrt(batch.n),
                )
            )
    lst = analytic_lst(lhs_spec) if lhs_spec is not None else None
    if lst is not None:
        for name, batch in (("lst_lhs", lhs), ("lst_rhs", rhs)):
            pending.append(
                (
                    name,
                    _pool.submit(lst_distance, batch, lst, s_grid),
                    1.5 / math.sqrt(batch.n),
                )
            )
    metrics = [
        MetricEntry(name, value.result(), threshold)
        for name, value, threshold in pending
    ]
    return VerificationReport(
        label=case.id,
        params={k: float(params[k]) for k in case.param_names},
        n={"lhs": lhs.n, "rhs": rhs.n},
        seed=int(seed),
        metrics=tuple(metrics),
    )


def run_grid(
    case: IdentityCase,
    seed: int = DEFAULT_SEED,
    *,
    q: float = 0.01,
) -> list[VerificationReport]:
    """Verify one case over its canonical grid with disjoint substreams."""
    reports = []
    for index, point in enumerate(case.grid):
        reports.append(
            verify(
                case,
                point.params,
                point.n,
                seed,
                substream_base=1000 * index,
                q=q,
            )
        )
    return reports


def registry_json() -> list[dict]:
    """Exportable registry summary: id, anchor, parameters, domain."""
    return [
        {
            "id": case.id,
            "anchor": case.anchor,
            "params": list(case.param_names),
            "domain": case.domain_text,
        }
        for case in _REGISTRY
    ]
