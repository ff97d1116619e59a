"""Per-layer timings of the random-sum and identity paths, as one JSON object.

    PYTHONPATH=src python bench/layers.py

Measures, best of REPEATS runs each unless noted:

* ns per draw of the stable kernels, symmetric at alpha = 1.5 and one-sided
  at alpha = 0.6, at 2^18 and 10^6 draws;
* ns per draw of ``sample`` for each of the 22 family/route specs of the
  ``sample_bulk`` benchmark (``perfbench/workloads.py``) at 10^6 draws, once
  on a 1-worker pool and once on the default pool;
* ns per value of the sample CSV text (rows "i,value" at "%.10g") for the
  ``sample_bulk`` CLI sample (gen-linnik, alpha 1.5, nu 2, 10^6 draws, seed
  1729): the package's writer (``cli._sample_csv``, where the checkout has
  it) on both pools, and the per-value ``_fmt`` join it replaces;
* ``_grouped_sums`` throughput in draws/s on thm6-like counts (1 + Poisson
  of gamma(2) * 99 over 10^5 replications, about 2e7 symmetric-stable draws
  at alpha = 1.5), once on a 1-worker pool and once on the default pool;
* ms per call of ``ks_two_sample`` and ``ecf_distance`` on two independent
  2e5-draw symmetric-stable samples at alpha = 1.5;
* ``verify`` ms per point over the 80 canonical identity points (the
  ``identity_registry`` benchmark's calls), best of VERIFY_REPEATS passes,
  once on a 1-worker pool and once on the default pool;
* ms per ``InversionCdf`` build at the (alpha, nu, x_max) of INVERSION_BUILDS
  (the reference CDFs of ``limit_lab``: thm7/thm8 at (2, 1), a (1.5, 2)
  experiment out to x_max = 100 and thm7 (1.5, 2) out to its largest
  |statistic|), with each build's ``points``, ``head_panels`` and
  ``max_rounds``;
* ms per call of ``cdf_by_inversion`` and ``pdf_by_inversion`` at
  (1.5, 2), averaged over the |x| in INVERSION_X.

Run it against another checkout's ``src`` to compare. A ``_grouped_sums``
without a stream argument (the single-stream version) is timed once, as
``serial``; a checkout whose pool still lives in ``limits`` is handled too.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from htmix import cli, identities, limits, special, verification
from htmix.distributions import (
    DistSpec,
    _stable_one_sided_values,
    _stable_symmetric_values,
    sample,
)
from htmix.streams import RandomStream

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import SAMPLE_SPECS  # noqa: E402

try:
    POOL_HOME = importlib.import_module("htmix._pool")
except ImportError:
    POOL_HOME = limits
REPEATS = 5
VERIFY_REPEATS = 3
SAMPLE_N = 1_000_000
METRIC_N = 200_000
INVERSION_BUILDS = ((2.0, 1.0, 13.27), (1.5, 2.0, 100.0), (1.5, 2.0, 2642.4))
INVERSION_X = (0.05, 1.0, 3.0, 30.0, 200.0)
KERNELS = {
    "stable.symmetric": (_stable_symmetric_values, 1.5),
    "stable.one_sided": (_stable_one_sided_values, 0.6),
}


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

    out = {"fmt_join": ns_per_value(fmt_join, 2)}
    writer = getattr(cli, "_sample_csv", None)
    if writer is not None:
        def text():
            # The writer yields row blocks as bytes where the checkout
            # streams them, and returns the whole text where it does not.
            blocks = writer(values)
            return blocks if isinstance(blocks, str) else b"".join(blocks)

        with one_worker():
            out["sample_csv.workers_1"] = ns_per_value(text)
        out[f"sample_csv.workers_{default_workers()}_default"] = ns_per_value(text)
    return out


def grouped_sums_draws_per_s() -> dict:
    rng = np.random.default_rng(2)
    counts = 1 + rng.poisson(rng.standard_gamma(2.0, 100_000) * 99.0)
    total = int(counts.sum())
    stream = RandomStream(1729, 1)
    if "stream" not in inspect.signature(limits._grouped_sums).parameters:
        gen = stream.generator()
        seconds = best_seconds(lambda: limits._grouped_sums(
            lambda m: _stable_symmetric_values(gen, m, 1.5), counts))
        return {"draws": total, "serial": round(total / seconds)}

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
    saved = POOL_HOME._POOL
    try:
        with ThreadPoolExecutor(1) as pool:
            POOL_HOME._POOL = pool
            yield
    finally:
        POOL_HOME._POOL = saved


def default_workers() -> int:
    pool = POOL_HOME.executor() if POOL_HOME is not limits else limits._pool()
    return pool._max_workers


def metric_ms_per_call() -> dict:
    a = _stable_symmetric_values(np.random.default_rng(3), METRIC_N, 1.5)
    b = _stable_symmetric_values(np.random.default_rng(4), METRIC_N, 1.5)

    def cf(t):
        return float(np.exp(-t**1.5))

    return {
        f"ks_two_sample.n{METRIC_N}": round(
            1e3 * best_seconds(lambda: verification.ks_two_sample(a, b)), 3),
        f"ecf_distance.n{METRIC_N}": round(
            1e3 * best_seconds(lambda: verification.ecf_distance(a, cf)), 3),
    }


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
            "head_panels": build.head_panels,
            "max_rounds": build.max_rounds,
        }
    for fn in (special.cdf_by_inversion, special.pdf_by_inversion):
        seconds = best_seconds(lambda: [fn(1.5, 2.0, x) for x in INVERSION_X])
        out[f"{fn.__name__}.ms_per_call"] = round(1e3 * seconds / len(INVERSION_X), 3)
    return out


if __name__ == "__main__":
    print(json.dumps({
        "ns_per_draw": kernel_ns_per_draw(),
        "sample_ns_per_draw": sample_ns_per_draw(),
        "csv_ns_per_value": csv_ns_per_value(),
        "grouped_sums_draws_per_s": grouped_sums_draws_per_s(),
        "metric_ms_per_call": metric_ms_per_call(),
        "verify_ms_per_point": verify_ms_per_point(),
        "inversion_ms": inversion_ms(),
    }))
