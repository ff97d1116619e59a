"""Per-layer timings of the random-sum path, printed as one JSON object.

    PYTHONPATH=src python bench/layers.py

Measures, best of REPEATS runs each:

* ns per draw of the stable kernels, symmetric at alpha = 1.5 and one-sided
  at alpha = 0.6, at 2^18 and 10^6 draws;
* ``_grouped_sums`` throughput in draws/s on thm6-like counts (1 + Poisson
  of gamma(2) * 99 over 10^5 replications, about 2e7 symmetric-stable draws
  at alpha = 1.5), once on a 1-worker pool and once on the default pool.

Run it against another checkout's ``src`` to compare. A ``_grouped_sums``
without a stream argument (the single-stream version) is timed once, as
``serial``.
"""

from __future__ import annotations

import inspect
import json
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from htmix import limits
from htmix.distributions import _stable_one_sided_values, _stable_symmetric_values
from htmix.streams import RandomStream

REPEATS = 5
KERNELS = {
    "stable.symmetric": (_stable_symmetric_values, 1.5),
    "stable.one_sided": (_stable_one_sided_values, 0.6),
}


def best_seconds(fn) -> float:
    fn()
    best = float("inf")
    for _ in range(REPEATS):
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
    saved = limits._POOL
    try:
        with ThreadPoolExecutor(1) as pool:
            limits._POOL = pool
            seconds = best_seconds(lambda: limits._grouped_sums(draw, counts, stream))
            out["workers_1"] = round(total / seconds)
    finally:
        limits._POOL = saved
    workers = limits._pool()._max_workers
    seconds = best_seconds(lambda: limits._grouped_sums(draw, counts, stream))
    out[f"workers_{workers}_default"] = round(total / seconds)
    return out


if __name__ == "__main__":
    print(json.dumps({
        "ns_per_draw": kernel_ns_per_draw(),
        "grouped_sums_draws_per_s": grouped_sums_draws_per_s(),
    }))
