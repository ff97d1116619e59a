"""Batch command-line front end.

Subcommands: sample (draw a family to CSV), eval (tabulate an analytic
function over a grid), verify (identity checks), limit (convergence
experiments), list (registries). Exit codes: 0 pass, 1 statistical fail,
2 usage or domain error, 3 I/O failure, 4 unsupported regime or accuracy
limit (the message says which).

All output is deterministic for fixed flags: the seed defaults to the
HTM_SEED environment variable and then to the package default, numbers are
printed with 10 significant digits, files are UTF-8 with LF line endings,
and no timestamps are emitted. The rows of a sample are formatted in
blocks on the package's worker pool and written block by block as they
come, and the bytes do not depend on the number of workers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from . import _pool, identities, limits, special
from .distributions import _FAMILY_TABLE, FAMILIES, METHODS, DistSpec, sample
from .errors import AccuracyError, DomainError, UnsupportedRegimeError
from .streams import DEFAULT_SEED, RandomStream

# Family parameter flags of sample and eval; --lambda is read into lam.
_PARAM_FLAGS = ("alpha", "nu", "delta", "r", "mu", "lam", "gamma", "p")

# CLI flag name -> identity registry parameter letter.
_IDENTITY_FLAGS = {
    "alpha": "a",
    "delta": "d",
    "nu": "v",
    "b": "b",
    "gamma": "g",
    "r": "r",
    "mu": "m",
}

# eval function name -> (callable, parameter flags consumed before x).
_EVAL_FNS = {
    "gamma": (special.gamma_fn, ()),
    "mittag-leffler": (special.mittag_leffler, ("delta",)),
    "ml-density": (special.ml_density, ("delta",)),
    "ml-cdf": (special.ml_cdf, ("delta",)),
    "stable-ratio-density": (special.stable_ratio_density, ("delta",)),
    "gg-density": (special.gg_density, ("r", "alpha", "lam")),
    "gleser-density": (special.gleser_mixing_density, ("r", "mu")),
    "snedecor-fisher-density": (special.snedecor_fisher_density, ("r",)),
    "genlinnik-cf": (special.genlinnik_cf, ("alpha", "nu")),
    "genml-lst": (special.genml_lst, ("delta", "nu")),
    "genlinnik-cdf": (special.cdf_by_inversion, ("alpha", "nu")),
    "genlinnik-pdf": (special.pdf_by_inversion, ("alpha", "nu")),
}


def _fmt(x: float) -> str:
    return f"{float(x):.10g}"


# ---------------------------------------------------------------------------
# The sample CSV writer: "%.10g" for a whole column at once, byte for byte
# what _fmt gives. For finite 1e-13 <= |x| < 1e10 the decimal exponent E is
# exact: |x| >= 10^j holds exactly when |x| >= _TEN_UP[j + 13], so a search
# of _TEN_UP finds it. Then |x| * 10^(9 - E), one product with an exact
# power of ten, lies in [1e9, 1e10], and rint of it is the correctly rounded
# ten-digit mantissa: rounding is monotone and every integer plus a half
# below 1e10 is a double, so the product falls on the right side of every
# rounding boundary, or on the boundary itself. Values whose product lands
# exactly half way between two integers, and every other value (0, -0.0,
# subnormal, tiny or huge magnitudes, inf and nan), go through _fmt. Rows
# are laid out as byte columns, one per character slot, where an unused slot
# holds a NUL byte that is dropped at the end; slot order is output order
# for every notation.

_ROWS = 1 << 16
_POW10 = np.array([float(10**k) for k in range(23)])


def _ten_up(j: int) -> float:
    """The smallest double at or above 10^j."""
    x = float(Fraction(10) ** j)
    return x if Fraction(x) >= Fraction(10) ** j else math.nextafter(x, math.inf)


_TEN_UP = np.array([_ten_up(j) for j in range(-13, 10)])
_U8 = np.uint8
# Value slots: sign, "0.000" lead (fixed notation below 1), ten digits with
# the decimal point between two of them (11 slots), "e+XX".
_VALUE_SLOTS = 1 + 5 + 11 + 4


def _rows_block(values, first: int, index_width: int) -> bytes:
    """The CSV rows "i,value" of values, indexed from first, each ending in LF."""
    rows = values.size
    a = np.abs(values)
    out_of_range = ~((a >= _TEN_UP[0]) & (a < 1e10))
    a[out_of_range] = 1.0
    e = np.searchsorted(_TEN_UP, a, side="right") - 14  # last j: 10^j <= a
    scaled = a * _POW10[9 - e]
    mantissa = np.rint(scaled)
    slow = np.flatnonzero(out_of_range | (np.abs(scaled - mantissa) == 0.5))
    carry = mantissa == 1e10
    mantissa[carry] = 1e9
    e[carry] += 1
    cols = np.zeros((index_width + 2 + _VALUE_SLOTS, rows), _U8)
    index = np.arange(first, first + rows, dtype=np.uint64)
    for place in range(index_width):
        rest = index // 10
        col = cols[index_width - 1 - place]
        np.add((index - rest * 10).astype(_U8), _U8(48), out=col)
        if place:
            col[: max(0, 10**place - first)] = 0  # no leading zeros
        index = rest
    cols[index_width] = ord(",")
    v = index_width + 1
    np.multiply(values < 0, _U8(ord("-")), out=cols[v])
    fixed = (e >= -4) & (e <= 9)
    below_one = fixed & (e < 0)
    np.multiply(below_one, _U8(ord("0")), out=cols[v + 1])
    np.multiply(below_one, _U8(ord(".")), out=cols[v + 2])
    for z in range(3):
        np.multiply(below_one & (e <= -2 - z), _U8(ord("0")), out=cols[v + 3 + z])
    # Ten digits from two five-digit halves, and the place of the last
    # nonzero one (trailing zeros after the point are dropped).
    top = np.floor(mantissa * 1e-5)
    halves = [top.astype(np.uint32), (mantissa - top * 1e5).astype(np.uint32)]
    digits = np.empty((10, rows), _U8)
    for j in range(9, -1, -1):
        half = halves[j // 5]
        rest = half // 10
        digits[j] = half - rest * 10
        halves[j // 5] = rest
    last = np.zeros(rows, _U8)
    for j in range(1, 10):
        np.maximum(last, (digits[j] != 0) * _U8(j), out=last)
    # The point follows digit `point`: digit e in fixed notation at or above
    # 1, the first digit in scientific notation, and none (-1) below 1, where
    # the lead slots hold it. Digits up to max(last, point) are printed, and
    # the point only when a digit follows it.
    point = np.where(fixed, np.where(below_one, -1, e), 0).astype(np.int8)
    keep = np.maximum(last.astype(np.int8), point)
    digits += _U8(48)
    s = v + 6
    for j in range(10):
        digit = digits[j] * (j <= keep)
        before = j <= point
        cols[s + j] += digit * before
        cols[s + j + 1] += digit * ~before
    for j in range(9):
        cols[s + j + 1] += ((point == j) & (last > j)) * _U8(ord("."))
    s += 11
    sci = ~fixed
    exp = np.abs(e).astype(_U8)
    np.multiply(sci, _U8(ord("e")), out=cols[s])
    cols[s + 1] = np.where(e < 0, _U8(ord("-")), _U8(ord("+"))) * sci
    cols[s + 2] = (exp // 10 + _U8(48)) * sci
    cols[s + 3] = (exp % 10 + _U8(48)) * sci
    cols[-1] = ord("\n")
    text = b"".join(_fmt(x).encode().ljust(_VALUE_SLOTS, b"\0") for x in values[slow])
    cols[v : v + _VALUE_SLOTS, slow] = np.frombuffer(text, _U8).reshape(-1, _VALUE_SLOTS).T
    flat = cols.T.ravel()
    return np.compress(flat != 0, flat).tobytes()


def _sample_csv(values: np.ndarray) -> Iterator[bytes]:
    """The header "index,value", then f"{i},{_fmt(v)}" rows a block at a time."""
    width = len(str(values.size - 1))
    yield b"index,value\n"
    yield from _pool.imap(
        lambda first: _rows_block(values[first : first + _ROWS], first, width),
        range(0, values.size, _ROWS),
    )


def _flag(name: str) -> str:
    return "--lambda" if name == "lam" else f"--{name}"


def _dehyphen(text: str) -> str:
    return text.replace("-", "_")


def _default_seed() -> int:
    env = os.environ.get("HTM_SEED")
    if env is None:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError as exc:
        raise DomainError(f"HTM_SEED must be an integer, got {env!r}") from exc


def _write(path: str | None, chunks: Iterable[bytes]) -> None:
    """Write byte chunks to the file at path, or to stdout if path is None."""
    if path is not None:
        with open(path, "wb") as out:
            out.writelines(chunks)
        return
    sys.stdout.flush()
    out = getattr(sys.stdout, "buffer", None)
    if out is None:  # a text-only stream, such as an io.StringIO
        sys.stdout.writelines(chunk.decode() for chunk in chunks)
        return
    out.writelines(chunks)
    out.flush()


def _parse_grid(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise DomainError(f"grid must be lo:hi:step, got {spec!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise DomainError(f"grid values must be numbers, got {spec!r}") from exc
    if not all(map(math.isfinite, (lo, hi, step))):
        raise DomainError(f"grid values must be finite, got {spec!r}")
    if step <= 0:
        raise DomainError("grid step must be positive")
    if hi < lo:
        raise DomainError("grid needs lo <= hi")
    if (hi - lo) / step > 999_999:
        raise DomainError("grid holds more than 1000000 points")
    count = int((hi - lo) / step + 1e-9) + 1
    return [lo + step * i for i in range(count)]


def _parse_number_list(text: str, kind: type):
    try:
        return tuple(kind(v) for v in text.split(","))
    except ValueError as exc:
        raise DomainError(f"bad grid list {text!r}") from exc


def _cmd_sample(args) -> int:
    params = {
        name: getattr(args, name)
        for name in (*_PARAM_FLAGS, "theta")
        if getattr(args, name) is not None
    }
    if "theta" in params:
        params["theta"] = _dehyphen(params["theta"])
    method = _dehyphen(args.method) if args.method else None
    spec = DistSpec(_dehyphen(args.dist), params, method)
    seed = args.seed if args.seed is not None else _default_seed()
    batch = sample(spec, args.n, RandomStream(seed))
    _write(args.out, _sample_csv(batch.values))
    if args.out is not None:
        meta = {
            "command": "sample",
            "dist": spec.family,
            "params": {k: params[k] for k in sorted(params)},
            "method": spec.resolved_method(),
            "n": int(args.n),
            "seed": int(seed),
            "substream": 0,
        }
        _write(args.out + ".json", [(json.dumps(meta, indent=2) + "\n").encode()])
    return 0


def _cmd_eval(args) -> int:
    fn, needed = _EVAL_FNS[args.fn]
    for name in _PARAM_FLAGS:
        if name not in needed and getattr(args, name) is not None:
            raise DomainError(f"eval --fn {args.fn} does not take {_flag(name)}")
    fn_args = []
    for name in needed:
        value = getattr(args, name)
        if value is None:
            raise DomainError(f"eval --fn {args.fn} requires {_flag(name)}")
        fn_args.append(value)
    xs = _parse_grid(args.grid)
    lines = ["x,value"]
    for x in xs:
        lines.append(f"{_fmt(x)},{_fmt(fn(*fn_args, x))}")
    _write(args.out, [("\n".join(lines) + "\n").encode()])
    return 0


def _identity_params(case, args) -> dict:
    params = {}
    for flag, letter in _IDENTITY_FLAGS.items():
        value = getattr(args, flag)
        if value is None:
            continue
        if letter not in case.param_names:
            raise DomainError(
                f"identity {case.id} does not take --{flag}; "
                f"its parameters are {', '.join(case.param_names)}"
            )
        params[letter] = value
    missing = [p for p in case.param_names if p not in params]
    if missing:
        back = {v: k for k, v in _IDENTITY_FLAGS.items()}
        raise DomainError(
            f"identity {case.id} needs " + ", ".join(f"--{back[m]}" for m in missing)
        )
    return params


def _cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    if args.identity == "all":
        for flag in (*_IDENTITY_FLAGS, "n"):
            if getattr(args, flag) is not None:
                raise DomainError(f"verify --identity all does not take --{flag}")
        rows = []
        all_pass = True
        for case in identities.registry():
            reports = identities.run_grid(case, seed=seed, q=args.q)
            worst = max(
                (m.value / m.threshold for r in reports for m in r.metrics),
                default=0.0,
            )
            ok = all(r.verdict for r in reports)
            all_pass = all_pass and ok
            rows.append((case.id, worst, ok))
        if args.format == "json":
            payload = [
                {"identity": cid, "worst_margin": worst, "pass": ok}
                for cid, worst, ok in rows
            ]
            text = json.dumps(payload, indent=2) + "\n"
        else:
            lines = ["identity,worst_margin,pass"]
            lines.extend(
                f"{cid},{_fmt(worst)},{'true' if ok else 'false'}"
                for cid, worst, ok in rows
            )
            text = "\n".join(lines) + "\n"
        _write(args.out, [text.encode()])
        return 0 if all_pass else 1
    case = identities.get_case(args.identity)
    params = _identity_params(case, args)
    n = 200_000 if args.n is None else args.n
    report = identities.verify(case, params, n=n, seed=seed, q=args.q)
    if args.format == "csv":
        lines = ["metric,value,threshold,pass"]
        lines.extend(
            f"{m.name},{_fmt(m.value)},{_fmt(m.threshold)},"
            f"{'true' if m.passed else 'false'}"
            for m in report.metrics
        )
        text = "\n".join(lines) + "\n"
    else:
        text = report.to_json() + "\n"
    _write(args.out, [text.encode()])
    return 0 if report.verdict else 1


def _cmd_limit(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    theorem = args.theorem
    lemma = theorem == "lemma14"
    grids = {"--p-grid": args.p_grid, "--n-grid": args.n_grid}
    wanted, unused = ("--p-grid", "--n-grid") if lemma else ("--n-grid", "--p-grid")
    if grids[unused] is not None:
        raise DomainError(f"{theorem} does not take {unused}")
    if grids[wanted] is None:
        raise DomainError(f"{theorem} needs {wanted}")
    grid = _parse_number_list(grids[wanted], float if lemma else int)
    statistic = None if args.statistic is None else _dehyphen(args.statistic)
    report = limits.run_experiment(limits.LimitExperiment(
        theorem, args.nu, args.alpha, grid, args.reps, seed,
        summand=args.summand, statistic=statistic, control=args.control,
        threshold=args.threshold,
    ))
    if args.format == "json":
        text = report.to_json() + "\n"
    else:
        text = "\n".join(report.csv_lines()) + "\n"
    _write(args.out, [text.encode()])
    return 0 if report.verdict else 1


def _cmd_list(args) -> int:
    sections = []
    show_all = not (args.identities or args.dists or args.theorems)
    if args.dists or show_all:
        lines = ["distributions:"]
        for family, entry in _FAMILY_TABLE.items():
            line = f"  {family.replace('_', '-')}: {entry.constraints}"
            if family in METHODS:
                methods = ", ".join(m.replace("_", "-") for m in METHODS[family])
                line += f" [methods: {methods}]"
            lines.append(line)
        sections.append("\n".join(lines))
    if args.identities or show_all:
        lines = ["identities:"]
        lines.extend(f"  {c.id}  {c.anchor}" for c in identities.registry())
        sections.append("\n".join(lines))
    if args.theorems or show_all:
        lines = ["theorems:"]
        lines.extend(f"  {t}" for t in limits.THEOREMS)
        sections.append("\n".join(lines))
    _write(args.out, [("\n\n".join(sections) + "\n").encode()])
    return 0


def _add_param_flags(parser: argparse.ArgumentParser, *, theta: bool) -> None:
    for name in _PARAM_FLAGS:
        parser.add_argument(_flag(name), dest=name, type=float)
    if theta:
        parser.add_argument("--theta", choices=["symmetric", "one-sided"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="htmix",
        description="Heavy-tailed mixture laws: sampling, analytics, checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="draw one family to CSV")
    p_sample.add_argument(
        "--dist", required=True,
        choices=[f.replace("_", "-") for f in FAMILIES],
    )
    _add_param_flags(p_sample, theta=True)
    p_sample.add_argument("--method")
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--seed", type=int)
    p_sample.add_argument("--out")
    p_sample.set_defaults(run=_cmd_sample)

    p_eval = sub.add_parser("eval", help="tabulate an analytic function")
    p_eval.add_argument("--fn", required=True, choices=sorted(_EVAL_FNS))
    _add_param_flags(p_eval, theta=False)
    p_eval.add_argument("--grid", required=True, help="lo:hi:step")
    p_eval.add_argument("--out")
    p_eval.set_defaults(run=_cmd_eval)

    p_verify = sub.add_parser("verify", help="check a distributional identity")
    p_verify.add_argument("--identity", required=True)
    for flag in _IDENTITY_FLAGS:
        p_verify.add_argument(f"--{flag}", type=float)
    p_verify.add_argument("--n", type=int, help="draws per side (default 200000)")
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--q", type=float, default=0.01)
    p_verify.add_argument("--format", choices=["csv", "json"], default="json")
    p_verify.add_argument("--out")
    p_verify.set_defaults(run=_cmd_verify)

    p_limit = sub.add_parser("limit", help="run a convergence experiment")
    p_limit.add_argument("--theorem", required=True, choices=list(limits.THEOREMS))
    p_limit.add_argument("--alpha", type=float)
    p_limit.add_argument("--nu", type=float)
    p_limit.add_argument("--n-grid", dest="n_grid", help="comma-separated ints")
    p_limit.add_argument("--p-grid", dest="p_grid", help="comma-separated probs")
    p_limit.add_argument("--reps", type=int, default=100_000)
    p_limit.add_argument("--seed", type=int)
    p_limit.add_argument("--summand", choices=list(limits.SUMMANDS))
    p_limit.add_argument(
        "--statistic", choices=[s.replace("_", "-") for s in limits.STATISTICS]
    )
    p_limit.add_argument("--control", choices=["fixed-index"])
    p_limit.add_argument("--threshold", type=float)
    p_limit.add_argument("--format", choices=["csv", "json"], default="csv")
    p_limit.add_argument("--out")
    p_limit.set_defaults(run=_cmd_limit)

    p_list = sub.add_parser("list", help="print registries")
    p_list.add_argument("--identities", action="store_true")
    p_list.add_argument("--dists", action="store_true")
    p_list.add_argument("--theorems", action="store_true")
    p_list.add_argument("--out")
    p_list.set_defaults(run=_cmd_list)

    return parser


def _merge_dash_values(argv: list[str]) -> list[str]:
    # argparse reads "--grid -5:5:0.1" as a missing value followed by an
    # unknown option; merge into "--grid=-5:5:0.1" form.
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if tok == "--grid" and nxt is not None and nxt.startswith("-"):
            out.append(f"{tok}={nxt}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_dash_values(list(argv)))
    try:
        return args.run(args)
    except UnsupportedRegimeError as exc:
        print(f"htmix: unsupported regime: {exc}", file=sys.stderr)
        return 4
    except AccuracyError as exc:
        print(f"htmix: accuracy limit: {exc}", file=sys.stderr)
        return 4
    except DomainError as exc:
        print(f"htmix: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"htmix: I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
