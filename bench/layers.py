"""Per-layer timings of the random-sum and identity paths, as one JSON object.

    PYTHONPATH=src python bench/layers.py

Measures, best of REPEATS runs each unless noted:

* ns per draw of the stable kernels, symmetric at alpha = 1.5 and one-sided
  at alpha = 0.6, at 2^18 and 10^6 draws, and of their transforms alone
  (``_cms`` and ``_kanter``, block by block on TRANSFORM_BLOCKS blocks of
  ``_BLOCK`` draws, less the copy that restores the draws each run); then
  both again in a subprocess on numpy's X86_V3 (AVX2) dispatch, where
  ``np.tan``, on which the transforms' sine and cosine are built, is libm;
* ns per draw of ``sample`` for each of the 22 family/route specs of the
  ``sample_bulk`` benchmark (``perfbench/workloads.py``) at 10^6 draws, once
  on a 1-worker pool and once on the default pool;
* ns per value of the sample CSV text (rows "i,value" at "%.10g") for the
  ``sample_bulk`` CLI sample (gen-linnik, alpha 1.5, nu 2, 10^6 draws, seed
  1729): the package's writer (``cli._sample_csv``) on both pools, and the
  per-value ``_fmt`` join it replaces;
* ``_grouped_sums`` throughput in draws/s on thm6-like counts (1 + Poisson
  of gamma(2) * 99 over 10^5 replications, about 2e7 symmetric-stable draws
  at alpha = 1.5), once on a 1-worker pool and once on the default pool;
* ms per call of ``ecf_distance`` on a 2e5-draw symmetric-stable sample at
  alpha = 1.5, and on 2e5 standard normal and 2e5 standard Cauchy draws (on
  its fixed grid each t is twice the one before, so cos and sin are stepped
  by angle doubling);
* ms per call of ``ks_two_sample`` on the 2e5-draw pairs of ``ks_pairs``: two
  independent symmetric-stable samples at alpha = 1.5 (null), the second
  shifted by 0.05 (shifted), two negative-binomial samples (tied), two
  uniform samples on disjoint ranges (disjoint), a sample and its copy
  (identical) and a sample and each value's next float up (one_ulp), with
  the share of their points the checkpoint bound leaves to be searched
  (counted through ``verification._gaps``);
* ``verify`` ms per point over the 80 canonical identity points (the
  ``identity_registry`` benchmark's calls), best of VERIFY_REPEATS passes,
  once on a 1-worker pool and once on the default pool;
* ms per ``InversionCdf`` build at the (alpha, nu, x_max) of INVERSION_BUILDS
  (the reference CDFs of ``limit_lab``: thm7/thm8 at (2, 1), a (1.5, 2)
  experiment out to x_max = 100 and thm7 (1.5, 2) out to its largest
  |statistic|, and a (1.5, 2) build out to 2e4), with each build's
  ``points``, its ``nodes`` (the 32-point rule's nodes summed over the
  grid) and its ``rule_difference`` (the largest difference between the
  32-point and 24-point rules);
* ms per call of ``cdf_by_inversion`` and ``pdf_by_inversion`` at
  (1.5, 2), averaged over the |x| in INVERSION_X, and of
  ``cdf_by_inversion`` at (1.5, 2) alone at each |x| in FAR_X (the name
  of the error instead, where a checkout raises one);
* us per call of ``mittag_leffler`` (at -x), ``ml_density`` and ``ml_cdf``
  over ML_DELTAS and the 40 log-spaced x of ML_X on [1e-2, 1e3] (the
  golden and ``special_eval`` grid), split by the branch each point takes
  (series, tail or spectral; ``ml_cdf`` takes that of E_delta(-x^delta)),
  each point's best of REPEATS calls averaged over the branch's points;
  and us per call of ``special._logsumexp`` and
  ``scipy.special.logsumexp`` on a LSE_TERMS-term series vector;
* us per call, cold and warm, of ``pdf_by_inversion(1.5, 2, x)`` over
  PDF_X, ``cdf_by_inversion(0.6, 0.5, x)`` over CDF_X (the laws of the
  ``special_eval`` benchmark), and ``mittag_leffler`` and ``ml_density``
  at each delta of ML_DELTAS over the x of ML_X that take the spectral
  branch; ms per ``InversionCdf(1.5, 2, 200)`` build, cold and warm; and
  seconds per ``htmix eval`` over the EVAL_GRID grid of each of
  EVAL_FUNCTIONS, cold, with the SHA-256 of its output. Cold calls run on
  cleared inversion caches, as the first call for a law in a process does.

Run it against another checkout's ``src`` to compare.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import scipy.special as sc

from htmix import _pool, cli, identities, limits, special, verification
from htmix.errors import AccuracyError
from htmix.distributions import (
    _BLOCK,
    _FAMILY_TABLE,
    DistSpec,
    NegBinParams,
    StableParams,
    _cms,
    _cms_draw,
    _kanter,
    _kanter_draw,
    _run,
    _stable_symmetric_values,
    sample,
)
from htmix.streams import RandomStream

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import SAMPLE_SPECS  # noqa: E402

REPEATS = 5
VERIFY_REPEATS = 3
SAMPLE_N = 1_000_000
METRIC_N = 200_000
INVERSION_BUILDS = ((2.0, 1.0, 13.27), (1.5, 2.0, 100.0), (1.5, 2.0, 2642.4),
                    (1.5, 2.0, 2e4))
INVERSION_X = (0.05, 1.0, 3.0, 30.0, 200.0)
FAR_X = (1e6, 1e100)
ML_DELTAS = (0.3, 0.6, 0.9)
ML_X = np.logspace(-2.0, 3.0, 40)
PDF_X = np.linspace(0.5, 20.0, 8)
CDF_X = np.geomspace(0.05, 30.0, 8)
EVAL_FUNCTIONS = (("genlinnik-cdf", "--alpha", "0.6", "--nu", "0.5"),
                  ("genlinnik-pdf", "--alpha", "1.5", "--nu", "2"),
                  ("ml-density", "--delta", "0.9"))
EVAL_GRID = "0.01:20:0.01"  # 2,000 points
INVERSION_CACHES = (special._plan, special._lattice, special._heads, special._coarse)
LSE_TERMS = 600
LSE_CALLS = 200
KERNELS = {
    "stable.symmetric": (_stable_symmetric_values, 1.5),
    "stable.one_sided": (lambda rng, n, alpha: _run(
        _FAMILY_TABLE["stable"].routes[None], rng, n, StableParams(alpha, "one_sided")), 0.6),
}
TRANSFORMS = {"cms": (_cms_draw, _cms, 1.5), "kanter": (_kanter_draw, _kanter, 0.6)}
TRANSFORM_BLOCKS = 16
# numpy's dispatch below AVX512: float64 tan (and power, exp, log) change loops.
X86_V3 = {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}


def best_seconds(fn, repeats: int = REPEATS) -> float:
    fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def kernel_ns_per_draw() -> dict:
    out = {}
    for name, (kernel, alpha) in KERNELS.items():
        for n in (2**18, 10**6):
            rng = np.random.default_rng(1)
            seconds = best_seconds(lambda: kernel(rng, n, alpha))
            out[f"{name}.n{n}"] = round(1e9 * seconds / n, 2)
    return out


def transform_ns_per_draw() -> dict:
    n = TRANSFORM_BLOCKS * _BLOCK
    out = {}
    for name, (draw, transform, alpha) in TRANSFORMS.items():
        raw = draw(np.random.default_rng(1), n, alpha)
        work = tuple(np.empty(n) for _ in raw)

        def restore():
            for w, r in zip(work, raw):
                w[...] = r

        def run():
            restore()
            for lo in range(0, n, _BLOCK):
                transform(tuple(w[lo : lo + _BLOCK] for w in work), alpha)

        seconds = best_seconds(run) - best_seconds(restore)
        out[name] = round(1e9 * seconds / n, 2)
    return out


def kernels() -> dict:
    return {"ns_per_draw": kernel_ns_per_draw(),
            "transform_ns_per_draw": transform_ns_per_draw()}


def x86_v3_kernels() -> dict:
    """kernels() in a subprocess on numpy's X86_V3 dispatch."""
    run = subprocess.run([sys.executable, __file__, "--kernels"], check=True,
                         env=dict(os.environ, **X86_V3), capture_output=True, text=True)
    return json.loads(run.stdout)


def sample_ns_per_draw() -> dict:
    specs = [(key, DistSpec(family, params, method))
             for key, family, params, method, _ in SAMPLE_SPECS]

    def ns_per_draw():
        out = {}
        for index, (key, spec) in enumerate(specs):
            stream = RandomStream(1729, index)
            seconds = best_seconds(lambda: sample(spec, SAMPLE_N, stream), 3)
            out[key] = round(1e9 * seconds / SAMPLE_N, 2)
        return out

    with one_worker():
        out = {"workers_1": ns_per_draw()}
    out[f"workers_{default_workers()}_default"] = ns_per_draw()
    return out


def csv_ns_per_value() -> dict:
    values = sample(DistSpec("gen_linnik", {"alpha": 1.5, "nu": 2.0}), SAMPLE_N,
                    RandomStream(1729)).values

    def fmt_join():
        return "index,value\n" + "".join(
            f"{i},{cli._fmt(v)}\n" for i, v in enumerate(values))

    def ns_per_value(fn, repeats=REPEATS):
        return round(1e9 * best_seconds(fn, repeats) / SAMPLE_N, 1)

    def text():
        return b"".join(cli._sample_csv(values))

    out = {"fmt_join": ns_per_value(fmt_join, 2)}
    with one_worker():
        out["sample_csv.workers_1"] = ns_per_value(text)
    out[f"sample_csv.workers_{default_workers()}_default"] = ns_per_value(text)
    return out


def grouped_sums_draws_per_s() -> dict:
    rng = np.random.default_rng(2)
    counts = 1 + rng.poisson(rng.standard_gamma(2.0, 100_000) * 99.0)
    total = int(counts.sum())
    stream = RandomStream(1729, 1)

    def draw(rng, m):
        return _stable_symmetric_values(rng, m, 1.5)

    out = {"draws": total}
    with one_worker():
        seconds = best_seconds(lambda: limits._grouped_sums(draw, counts, stream))
        out["workers_1"] = round(total / seconds)
    seconds = best_seconds(lambda: limits._grouped_sums(draw, counts, stream))
    out[f"workers_{default_workers()}_default"] = round(total / seconds)
    return out


@contextlib.contextmanager
def one_worker():
    saved = _pool._POOL
    try:
        with ThreadPoolExecutor(1) as pool:
            _pool._POOL = pool
            yield
    finally:
        _pool._POOL = saved


def default_workers() -> int:
    return _pool.executor()._max_workers


def metric_ms_per_call() -> dict:
    a = _stable_symmetric_values(np.random.default_rng(3), METRIC_N, 1.5)

    def cf(t):
        return float(np.exp(-t**1.5))

    out = {
        f"ecf_distance.n{METRIC_N}": round(
            1e3 * best_seconds(lambda: verification.ecf_distance(a, cf)), 3),
    }
    rng = np.random.default_rng(5)
    samples = {"normal": rng.standard_normal(METRIC_N),
               "cauchy": rng.standard_cauchy(METRIC_N)}
    for law, x in samples.items():
        seconds = best_seconds(lambda: verification.ecf_distance(x, cf))
        out[f"ecf_distance.{law}.n{METRIC_N}"] = round(1e3 * seconds, 3)
    return out


def ks_pairs() -> dict:
    a = _stable_symmetric_values(np.random.default_rng(3), METRIC_N, 1.5)
    b = _stable_symmetric_values(np.random.default_rng(4), METRIC_N, 1.5)
    nb = DistSpec("neg_binom", NegBinParams(2.0, 0.2))
    uniform = np.random.default_rng(6).uniform
    return {
        "null": (a, b),
        "shifted": (a, b + 0.05),
        "tied": tuple(sample(nb, METRIC_N, RandomStream(1729, s)).values for s in (1, 2)),
        "disjoint": (uniform(0.0, 1.0, METRIC_N), uniform(2.0, 3.0, METRIC_N)),
        "identical": (a, a.copy()),
        "one_ulp": (a, np.nextafter(a, np.inf)),
    }


def searched_share(a, b) -> float:
    """Share of the points of a and b that ks_two_sample passes to _gaps."""
    gaps = verification._gaps
    searched = []

    def counting(own, other, idx):
        searched.append(idx.size)
        return gaps(own, other, idx)

    verification._gaps = counting
    try:
        verification.ks_two_sample(a, b)
    finally:
        verification._gaps = gaps
    return round(sum(searched) / (a.size + b.size), 5)


def ks_ms_per_call() -> dict:
    out = {}
    for name, (a, b) in ks_pairs().items():
        seconds = best_seconds(lambda: verification.ks_two_sample(a, b))
        out[name] = {"ms": round(1e3 * seconds, 3), "searched_share": searched_share(a, b)}
    return out


def verify_ms_per_point() -> dict:
    points = [
        (case, index, point)
        for case in identities.registry()
        for index, point in enumerate(case.grid)
    ]

    def one_pass():
        for case, index, point in points:
            identities.verify(case, point.params, point.n, 1729,
                              substream_base=1000 * index, q=0.01)

    def ms_per_point() -> float:
        return round(1e3 * best_seconds(one_pass, VERIFY_REPEATS) / len(points), 2)

    out = {"points": len(points)}
    with one_worker():
        out["workers_1"] = ms_per_point()
    out[f"workers_{default_workers()}_default"] = ms_per_point()
    return out


def inversion_ms() -> dict:
    out = {}
    for alpha, nu, x_max in INVERSION_BUILDS:
        build = special.InversionCdf(alpha, nu, x_max)
        out[f"InversionCdf({alpha}, {nu}, {x_max})"] = {
            "ms": round(1e3 * best_seconds(
                lambda: special.InversionCdf(alpha, nu, x_max)), 1),
            "points": build.points,
            "nodes": build.nodes,
            "rule_difference": build.rule_difference,
        }
    for fn in (special.cdf_by_inversion, special.pdf_by_inversion):
        seconds = best_seconds(lambda: [fn(1.5, 2.0, x) for x in INVERSION_X])
        out[f"{fn.__name__}.ms_per_call"] = round(1e3 * seconds / len(INVERSION_X), 3)
    for x in FAR_X:
        try:
            ms = round(1e3 * best_seconds(lambda: special.cdf_by_inversion(1.5, 2.0, x)), 3)
        except AccuracyError as exc:
            ms = f"AccuracyError: {exc}"
        out[f"cdf_by_inversion.ms_per_call.x{x:g}"] = ms
    return out


def ml_branch(name: str, delta: float, x: float) -> str:
    """The branch special.<name>(delta, x) takes (at -x for mittag_leffler)."""
    acc = special.DEFAULT_ACCURACY
    density = name == "ml_density"
    arg = x**delta if name == "ml_cdf" else x
    if special._ml_series(delta, arg, density, acc) is not None:
        return "series"
    if special._alternating_tail(delta, arg, acc, density=density) is not None:
        return "tail"
    return "spectral"


def ml_us_per_call() -> dict:
    out = {}
    for name in ("mittag_leffler", "ml_density", "ml_cdf"):
        fn, sign = getattr(special, name), -1.0 if name == "mittag_leffler" else 1.0
        seconds = {}
        for delta in ML_DELTAS:
            for x in ML_X:
                best = best_seconds(lambda: fn(delta, sign * x))
                seconds.setdefault(ml_branch(name, delta, x), []).append(best)
        out[name] = {branch: {"points": len(s), "us": round(1e6 * sum(s) / len(s), 1)}
                     for branch, s in sorted(seconds.items())}
    terms = np.arange(LSE_TERMS) * np.log(3.0) - sc.gammaln(0.6 * np.arange(LSE_TERMS) + 1.0)
    lse = {"scipy": sc.logsumexp, "replica": special._logsumexp}
    out[f"logsumexp.n{LSE_TERMS}"] = {
        key: round(1e6 * best_seconds(lambda: [fn(terms) for _ in range(LSE_CALLS)])
                   / LSE_CALLS, 1)
        for key, fn in lse.items()}
    return out


def cold(fn):
    """fn, run on cleared inversion caches."""
    def run():
        for cache in INVERSION_CACHES:
            cache.cache_clear()
        return fn()

    return run


def inversion_plan_us() -> dict:
    points = {"pdf_by_inversion(1.5, 2)": (special.pdf_by_inversion, 1.5, 2.0, PDF_X),
              "cdf_by_inversion(0.6, 0.5)": (special.cdf_by_inversion, 0.6, 0.5, CDF_X)}
    for name, sign in (("mittag_leffler", -1.0), ("ml_density", 1.0)):
        for delta in ML_DELTAS:
            xs = [sign * x for x in ML_X if ml_branch(name, delta, x) == "spectral"]
            points[f"{name}({delta}).spectral"] = (getattr(special, name), delta, xs)
    out = {}
    for key, (fn, *args, xs) in points.items():
        out[key] = {"points": len(xs)}
        for state, wrap in (("cold_us", cold), ("warm_us", lambda f: f)):
            best = [best_seconds(wrap(lambda x=x: fn(*args, x))) for x in xs]
            out[key][state] = round(1e6 * sum(best) / len(best), 1)
    def build():
        return special.InversionCdf(1.5, 2.0, 200.0)

    out["InversionCdf(1.5, 2, 200)"] = {
        "cold_ms": round(1e3 * best_seconds(cold(build)), 2),
        "warm_ms": round(1e3 * best_seconds(build), 2)}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "eval.csv"
        for fn, *params in EVAL_FUNCTIONS:
            argv = ["eval", "--fn", fn, *params, "--grid", EVAL_GRID, "--out", str(path)]
            out[f"htmix eval --fn {fn} {' '.join(params)}"] = {
                "s": round(best_seconds(cold(lambda: cli.main(argv)), repeats=3), 3),
                "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
    return out


if __name__ == "__main__":
    if sys.argv[1:] == ["--kernels"]:
        print(json.dumps(kernels()))
        sys.exit()
    print(json.dumps({
        **kernels(),
        "x86_v3": x86_v3_kernels(),
        "sample_ns_per_draw": sample_ns_per_draw(),
        "csv_ns_per_value": csv_ns_per_value(),
        "grouped_sums_draws_per_s": grouped_sums_draws_per_s(),
        "metric_ms_per_call": metric_ms_per_call(),
        f"ks_two_sample_ms_per_call.n{METRIC_N}": ks_ms_per_call(),
        "verify_ms_per_point": verify_ms_per_point(),
        "inversion_ms": inversion_ms(),
        "ml_us_per_call": ml_us_per_call(),
        "inversion_plan_us": inversion_plan_us(),
    }))
