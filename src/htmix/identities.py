"""Registry of distributional equalities between mixture representations.

Each case pairs a directly-sampled law (lhs) with a product-form mixture
expression (rhs) that should follow the same law. Cases are checked
statistically: two-sample KS always, plus empirical CF or Laplace-transform
distance when the lhs law has a closed transform.

A case is stated once, by its anchor: both sides are built from it, and the
case's domain is where the param records of every law on both sides accept
the parameters. The anchor notation, which is the builder's grammar:

    X          standard normal
    Lam        standard Laplace
    W(g)       Weibull with shape g; the literal W(1) is the standard exponential
    G(r,m)     gamma with shape r and rate m
    GG(r,a,m)  generalized gamma, the 1/a power of G(r,m)
    D(v)       one-sided exponential-power law, the v-th power of G(v,1)
    S(a,0)     symmetric strictly stable, cf exp(-|t|^a)
    S(a,1)     one-sided strictly stable, Laplace transform exp(-s^a)
    R(d)       ratio of two independent copies of S(d,1)
    Z(r,m)     gamma-ratio mixing law supported on [m, inf)
    M(d)       Mittag-Leffler; M(d,v) its generalized form
    L(a)       Linnik; L(a,v) its generalized form
    A * B      product of independent factors; A / B is A times 1/B
    A^(e)      power, with sqrt(A) for A^(0.5); |A| is the absolute value
    c * A      the law A scaled by a numeric constant c, such as 2 or sqrt(2)

Parameters are single lowercase letters, listed in order of first
appearance; arithmetic on them (a*b, a/2, 1/(a*v), -1/a) runs in floats
from left to right. "=d=" is equality in distribution; distinct factors are
independent. S(1,1) and R(1) are the constant 1: a factor R(d) with d
exactly 1 is dropped rather than sampled, and so is anything built only on
it.
"""

from __future__ import annotations

import ast
import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import _pool
from .distributions import (
    _FAMILY_TABLE, DistSpec, SampleBatch, analytic_cf, analytic_lst, sample
)
from .errors import DomainError
from .streams import DEFAULT_SEED, RandomStream
from .verification import (
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


def evaluate(expr, n: int, stream: RandomStream) -> np.ndarray:
    """Draw n values of an expression, one substream per leaf.

    Leaves take consecutive substream offsets 0, 1, 2, ... off the given
    stream in depth-first order, which is what makes distinct leaves
    independent.
    """
    _check_expr(expr)
    return _eval(expr, int(n), stream, itertools.count())


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


# Law symbol and argument count -> family, whose param record takes the
# arguments in order. S reads its second argument as the side: 0 symmetric,
# 1 one-sided.
_LAWS = {
    ("X", 0): "normal",
    ("Lam", 0): "laplace",
    ("W", 1): "weibull",
    ("G", 2): "gamma",
    ("GG", 3): "gen_gamma",
    ("D", 1): "exp_power",
    ("S", 2): "stable",
    ("R", 1): "stable_ratio",
    ("Z", 2): "z_mix",
    ("M", 1): "mittag_leffler",
    ("M", 2): "gen_mittag_leffler",
    ("L", 1): "linnik",
    ("L", 2): "gen_linnik",
}
_THETA = {0.0: "symmetric", 1.0: "one_sided"}
_CALLS = set(_LAWS) | {("sqrt", 1), ("abs", 1)}
_SYNTAX = (
    ast.BinOp, ast.UnaryOp, ast.Call, ast.Name, ast.Constant,
    ast.Load, ast.Mult, ast.Div, ast.Pow, ast.USub,
)


def _read_anchor(anchor: str):
    """Parameter names in order of first appearance, and one tree per side.

    With |A| as abs(A) and ^ as **, a side is a Python expression: it is
    parsed, never run, and held to the notation of the module docstring.
    """
    sides = [
        re.sub(r"\|([^|]*)\|", r"abs(\1)", side.strip()).replace("^", "**")
        for side in anchor.split("=d=")
    ]
    try:
        if len(sides) != 2:
            raise SyntaxError("needs exactly one '=d='")
        trees = tuple(ast.parse(side, mode="eval").body for side in sides)
        called = set()  # names in call position, whose arity _CALLS checks
        for node in (node for tree in trees for node in ast.walk(tree)):
            if isinstance(node, ast.Call):
                known = (getattr(node.func, "id", None), len(node.args)) in _CALLS
                called.add(node.func)
            elif isinstance(node, ast.Name) and node not in called:
                known = (node.id, 0) in _LAWS or len(node.id) == 1 and node.id.islower()
            else:
                known = isinstance(node, _SYNTAX)
            if not known:
                what = ast.unparse(node) or type(node).__name__
                raise SyntaxError(f"{what} is not in the notation")
    except SyntaxError as exc:
        raise DomainError(f"malformed anchor {anchor!r}: {exc.msg}") from None
    names = re.findall(r"\b[a-z]\b", " ".join(sides))
    return tuple(dict.fromkeys(names)), trees


def _lift(node, law, *numbers):
    # Anything built only on a dropped law is dropped too.
    return None if law is None else node(law, *numbers)


def _build(tree, p):
    """A float for arithmetic, else an expression node, or None if dropped."""
    if isinstance(tree, ast.Constant):
        return float(tree.value)
    if isinstance(tree, ast.Name):
        return p[tree.id] if tree.id in p else _law(tree.id, [], p)
    if isinstance(tree, ast.UnaryOp):
        return -_build(tree.operand, p)
    if isinstance(tree, ast.Call):
        return _law(tree.func.id, tree.args, p)
    left, right = _build(tree.left, p), _build(tree.right, p)
    divide = isinstance(tree.op, ast.Div)
    if isinstance(tree.op, ast.Pow):
        return _lift(Power, left, right)
    if isinstance(left, float) and isinstance(right, float):
        return left / right if divide else left * right
    if isinstance(left, float) and not divide:
        return _lift(Scale, right, left)
    # A run of * and / is one product; a dropped factor leaves it.
    right = _lift(Reciprocal, right) if divide else right
    factors = left.factors if isinstance(left, Product) else (left,)
    kept = [factor for factor in (*factors, right) if factor is not None]
    return Product(tuple(kept)) if len(kept) > 1 else kept[0] if kept else None


def _law(symbol: str, args: list, p):
    if symbol == "W" and [ast.unparse(arg) for arg in args] == ["1"]:
        return Draw(DistSpec("exponential"))
    values = [_build(arg, p) for arg in args]
    if symbol == "sqrt":
        x = values[0]
        return math.sqrt(x) if isinstance(x, float) else _lift(Power, x, 0.5)
    if symbol == "abs":
        return _lift(Abs, values[0])
    if symbol == "R" and values == [1.0]:
        return None  # R(1) is the constant 1.
    family = _LAWS[symbol, len(values)]
    if symbol == "S":
        values[1] = _THETA.get(values[1])
    record = _FAMILY_TABLE[family].record
    return Draw(DistSpec(family, record(*values) if record else None))


@dataclass(frozen=True)
class IdentityCase:
    """One distributional equality, stated once by its anchor, and its grid.

    Both sides are built from the anchor (notation in the module docstring).
    The domain is where every law on both sides accepts the parameters, so
    the param records alone decide it; domain_text states it for readers.
    """

    id: str
    anchor: str
    domain_text: str
    grid: tuple[GridPoint, ...]
    param_names: tuple[str, ...] = field(init=False)
    _trees: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names, trees = _read_anchor(self.anchor)
        object.__setattr__(self, "param_names", names)
        object.__setattr__(self, "_trees", trees)

    def lhs(self, params: Mapping[str, float]):
        """The left side's expression at these parameters."""
        return self._side(0, params)

    def rhs(self, params: Mapping[str, float]):
        """The right side's expression at these parameters."""
        return self._side(1, params)

    def _side(self, index: int, params: Mapping[str, float]):
        if set(params) != set(self.param_names):
            raise DomainError(f"{self.id} takes {', '.join(self.param_names)}")
        try:
            values = {name: float(params[name]) for name in self.param_names}
        except (TypeError, ValueError) as exc:
            raise DomainError(f"{self.id}: parameters must be real numbers") from exc
        try:
            expr = _build(self._trees[index], values)
        except ZeroDivisionError as exc:
            raise DomainError(f"{self.id}: division by zero in {self.anchor}") from exc
        if expr is None:
            raise DomainError(f"{self.id}: every factor of one side was dropped")
        return expr

    def in_domain(self, params: Mapping[str, float]) -> bool:
        try:
            self.lhs(params)
            self.rhs(params)
        except DomainError:
            return False
        return True


_REGISTRY = tuple(
    IdentityCase(case_id, anchor, domain_text, tuple(GridPoint(p) for p in grid))
    for case_id, anchor, domain_text, grid in (
        (
            "I01",
            "S(a*b,0) =d= S(a,0) * S(b,1)^(1/a)",
            "a in (0,2], b in (0,1]",
            (
                {"a": 2.0, "b": 1.0},
                {"a": 2.0, "b": 0.6},
                {"a": 1.1, "b": 0.85},
                {"a": 0.5, "b": 0.3},
            ),
        ),
        (
            "I02",
            "S(a*b,1) =d= S(a,1) * S(b,1)^(1/a)",
            "a in (0,1], b in (0,1]",
            (
                {"a": 1.0, "b": 1.0},
                {"a": 0.9, "b": 0.7},
                {"a": 0.4, "b": 0.35},
            ),
        ),
        (
            "I03",
            "S(a,0) =d= X * sqrt(2*S(a/2,1))",
            "a in (0,2]",
            ({"a": 2.0}, {"a": 1.3}, {"a": 0.4}),
        ),
        (
            "I04",
            "W(g*b) =d= W(b)^(1/g)",
            "g > 0, b > 0",
            (
                {"g": 1.0, "b": 1.0},
                {"g": 2.5, "b": 0.8},
                {"g": 0.4, "b": 0.5},
            ),
        ),
        (
            "I05",
            "W(g) =d= W(1) / S(g,1)",
            "g in (0,1]",
            ({"g": 1.0}, {"g": 0.6}, {"g": 0.25}),
        ),
        (
            "I06",
            "G(r,m) =d= W(1) / Z(r,m)",
            "r in (0,1], m > 0",
            (
                {"r": 0.9, "m": 1.0},
                {"r": 0.5, "m": 2.0},
                {"r": 0.15, "m": 1.0},
            ),
        ),
        (
            "I07",
            "GG(r,a,m) =d= W(1) / (S(a,1) * Z(r,m)^(1/a))",
            "a in (0,1], r in (0,1], m > 0",
            (
                {"r": 0.5, "a": 1.0, "m": 1.0},
                {"r": 0.7, "a": 0.6, "m": 2.0},
                {"r": 0.2, "a": 0.3, "m": 1.0},
            ),
        ),
        (
            "I08",
            "M(d) =d= S(d,1) * W(d)",
            "d in (0,1]",
            ({"d": 1.0}, {"d": 0.7}, {"d": 0.25}),
        ),
        (
            "I09",
            "M(d) =d= W(1) * R(d)",
            "d in (0,1]",
            ({"d": 1.0}, {"d": 0.6}, {"d": 0.2}),
        ),
        (
            "I10",
            "M(d*b) =d= M(d) * R(b)^(1/d)",
            "d in (0,1], b in (0,1]",
            (
                {"d": 1.0, "b": 1.0},
                {"d": 0.7, "b": 0.8},
                {"d": 0.3, "b": 0.4},
            ),
        ),
        (
            "I11",
            "L(a) =d= S(a,0) * W(1)^(1/a)",
            "a in (0,2]",
            ({"a": 2.0}, {"a": 1.4}, {"a": 0.5}),
        ),
        (
            "I12",
            "L(a*b) =d= L(a) * R(b)^(1/a)",
            "a in (0,2], b in (0,1]",
            (
                {"a": 2.0, "b": 1.0},
                {"a": 1.5, "b": 0.7},
                {"a": 0.6, "b": 0.4},
            ),
        ),
        (
            "I13",
            "L(a) =d= Lam * sqrt(R(a/2))",
            "a in (0,2]",
            ({"a": 1.9}, {"a": 1.2}, {"a": 0.5}),
        ),
        (
            "I14",
            "L(a*b) =d= S(a,0) * M(b)^(1/a)",
            "a in (0,2], b in (0,1]",
            (
                {"a": 2.0, "b": 1.0},
                {"a": 1.6, "b": 0.75},
                {"a": 0.7, "b": 0.35},
            ),
        ),
        (
            "I15",
            "L(a) =d= X * sqrt(2*M(a/2))",
            "a in (0,2]",
            ({"a": 2.0}, {"a": 1.2}, {"a": 0.45}),
        ),
        (
            "I16",
            "M(d) =d= sqrt(2) * |X| * R(d) * W(2)",
            "d in (0,1]",
            ({"d": 1.0}, {"d": 0.65}, {"d": 0.25}),
        ),
        (
            "I17",
            "L(a,v) =d= S(a,0) * G(v,1)^(1/a)",
            "a in (0,2], v > 0",
            (
                {"a": 1.0, "v": 1.0},
                {"a": 2.0, "v": 2.5},
                {"a": 1.5, "v": 0.8},
                {"a": 0.5, "v": 3.0},
            ),
        ),
        (
            "I18",
            "L(a,v) =d= S(a,0) * D(v)^(1/(a*v))",
            "a in (0,2], v > 0",
            (
                {"a": 2.0, "v": 1.0},
                {"a": 1.3, "v": 2.0},
                {"a": 0.6, "v": 0.5},
            ),
        ),
        (
            "I19",
            "M(d,v) =d= S(d,1) * GG(v,d,1)",
            "d in (0,1], v > 0",
            (
                {"d": 1.0, "v": 2.0},
                {"d": 0.75, "v": 1.5},
                {"d": 0.3, "v": 0.7},
            ),
        ),
        (
            "I20",
            "L(a,v) =d= X * sqrt(2*M(a/2,v))",
            "a in (0,2], v > 0",
            (
                {"a": 2.0, "v": 1.0},
                {"a": 1.5, "v": 2.0},
                {"a": 0.6, "v": 0.5},
            ),
        ),
        (
            "I21",
            "L(a*b,v) =d= S(a,0) * M(b,v)^(1/a)",
            "a in (0,2], b in (0,1], v > 0",
            (
                {"a": 2.0, "b": 0.95, "v": 1.5},
                {"a": 1.4, "b": 0.6, "v": 2.5},
                {"a": 0.8, "b": 0.3, "v": 0.6},
            ),
        ),
        (
            "I22",
            "L(a,v) =d= L(a) * Z(v,1)^(-1/a)",
            "a in (0,2], v in (0,1]",
            (
                {"a": 1.5, "v": 1.0},
                {"a": 1.8, "v": 0.6},
                {"a": 0.5, "v": 0.3},
            ),
        ),
        (
            "I23",
            "L(a,v) =d= X * Z(v,1)^(-1/a) * sqrt(2*M(a/2))",
            "a in (0,2], v in (0,1]",
            (
                {"a": 2.0, "v": 1.0},
                {"a": 1.3, "v": 0.7},
                {"a": 0.6, "v": 0.35},
            ),
        ),
        (
            "I24",
            "M(d,v) =d= Z(v,1)^(-1/d) * M(d)",
            "d in (0,1], v in (0,1]",
            (
                {"d": 1.0, "v": 1.0},
                {"d": 0.7, "v": 0.5},
                {"d": 0.25, "v": 0.8},
            ),
        ),
        (
            "I25",
            "M(d*b,v) =d= S(d,1) * M(b,v)^(1/d)",
            "d in (0,1], b in (0,1], v > 0",
            (
                {"d": 1.0, "b": 1.0, "v": 2.0},
                {"d": 0.8, "b": 0.7, "v": 1.5},
                {"d": 0.35, "b": 0.45, "v": 0.8},
            ),
        ),
        (
            "I26",
            "GG(r,a,m) =d= G(r,m)^(1/a)",
            "r > 0, a != 0, m > 0",
            (
                {"r": 2.0, "a": 3.0, "m": 1.0},
                {"r": 1.5, "a": 0.4, "m": 0.5},
                {"r": 0.5, "a": -1.2, "m": 2.0},
            ),
        ),
    )
)
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
    stream, so every leaf is independent of every other: the lhs is drawn
    by ``evaluate`` on the stream and the rhs on the stream shifted past the
    lhs leaves. The two sides are drawn through ``_pool.imap``: concurrently
    on the package's worker pool, or one after the other in a call from a
    pool task. The values depend on the seed alone, never on the thread
    count.
    """
    try:
        exprs = case.lhs(params), case.rhs(params)
    except DomainError as exc:
        raise DomainError(
            f"{case.id}: parameters {dict(params)} violate domain {case.domain_text}"
        ) from exc
    n = int(n)
    if n < 1:
        raise DomainError("n must be a positive integer")
    streams = stream, stream.shifted(_leaf_count(exprs[0]))
    drawn = _pool.imap(lambda side: evaluate(exprs[side], n, streams[side]), (0, 1))
    lhs, rhs = (
        SampleBatch(
            values, f"{case.id}:{side} {expr.describe()}", stream.seed, stream.substream
        )
        for side, expr, values in zip(("lhs", "rhs"), exprs, drawn)
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
) -> VerificationReport:
    """Check one case at one parameter point; returns the metric report.

    KS runs always. When the lhs law has a closed characteristic function
    or Laplace transform, both sides are also checked against it with
    bounded-kernel envelopes (4/sqrt(n) for the CF, 1.5/sqrt(n) for the
    Laplace transform) over DEFAULT_T_GRID and DEFAULT_S_GRID. The two
    sides are drawn through ``_pool.imap`` (see ``instantiate``), and so are
    the CF and Laplace distances, in report order; ``ks_two_sample`` then
    runs on the calling thread while they do, and their values are read
    after it. In a call
    from a pool task every step runs inline. The report lists the metrics
    in the order ks, ecf_lhs, ecf_rhs, lst_lhs, lst_rhs and is the same for
    any thread count.
    """
    stream = RandomStream(seed, substream_base)
    lhs, rhs = instantiate(case, params, n, stream)
    # (name, distance, batch, transform, envelope) of the transform
    # metrics, in report order.
    jobs = []
    lhs_expr = case.lhs(params)
    lhs_spec = lhs_expr.spec if isinstance(lhs_expr, Draw) else None
    cf = analytic_cf(lhs_spec) if lhs_spec is not None else None
    if cf is not None:
        jobs += [(f"ecf_{side}", ecf_distance, batch, cf, 4.0)
                 for side, batch in (("lhs", lhs), ("rhs", rhs))]
    lst = analytic_lst(lhs_spec) if lhs_spec is not None else None
    if lst is not None:
        jobs += [(f"lst_{side}", lst_distance, batch, lst, 1.5)
                 for side, batch in (("lhs", lhs), ("rhs", rhs))]
    values = _pool.imap(lambda job: job[1](job[2], job[3]), jobs)
    ks = ks_two_sample(lhs, rhs)
    metrics = [MetricEntry("ks", ks, ks_two_sample_threshold(lhs.n, rhs.n, q))]
    metrics += [
        MetricEntry(name, value, envelope / math.sqrt(batch.n))
        for (name, _, batch, _, envelope), value in zip(jobs, values)
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
