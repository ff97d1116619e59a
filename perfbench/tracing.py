"""Span tracing from outside the program.

The tracer replaces attributes on htmix modules and classes with wrappers
that record one span per call: name, module, start, end, parent span and a
few call attributes (draw counts, the Mittag-Leffler delta). Each wrapper is
installed under the name its caller looks the function up by, so a call from
``htmix.limits`` into ``InversionCdf`` is caught at ``htmix.limits.InversionCdf``.
Nothing under ``src/`` changes. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import time
from importlib import import_module

from workloads import LIMIT_EXPERIMENTS, ML_DELTAS, SAMPLE_SPECS
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    module: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "module": self.module,
            "start_s": self.start,
            "end_s": self.end,
            "attrs": self.attrs,
        }


class Tracer:
    """Records spans while ``enabled``; wrappers pass straight through otherwise."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, module: str, attrs=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``attrs(args, kwargs)`` returns the span's attributes.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            stack = tracer._stack
            span = Span(
                len(tracer.spans),
                stack[-1].id if stack else None,
                name,
                module,
                time.perf_counter(),
                attrs=attrs(args, kwargs) if attrs else {},
            )
            tracer.spans.append(span)
            stack.append(span)
            try:
                return original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1].child_s += span.duration

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def spec_key(spec) -> str:
    """Family and route of a DistSpec, e.g. ``gen_linnik.stable_gamma``."""
    if spec.family == "stable":
        return f"stable.{spec.params.theta}"
    method = spec.resolved_method()
    return f"{spec.family}.{method}" if method else spec.family


def install(tracer: Tracer, htmix) -> None:
    """Wrap the public functions of every htmix module at their call sites."""
    cli = import_module("htmix.cli")
    distributions = htmix.distributions
    identities = htmix.identities
    limits = htmix.limits
    special = htmix.special

    def sample_attrs(args, kwargs):
        spec, n = args[0], args[1]
        return {"key": spec_key(spec), "draws": int(n)}

    def kernel_attrs(args, kwargs):
        return {"draws": int(args[1])}

    def delta_attrs(args, kwargs):
        return {"delta": float(args[0])}

    inversion_cdf = special.InversionCdf
    tracer.wrap(htmix.streams.RandomStream, "generator", "RandomStream.generator", "streams")
    for owner in (distributions, identities, cli):
        tracer.wrap(owner, "sample", "sample", "distributions", sample_attrs)
    for kernel in ("_stable_symmetric_values", "_gen_ml_values"):
        tracer.wrap(limits, kernel, kernel, "distributions", kernel_attrs)
    for fn in ("mittag_leffler", "ml_density", "ml_cdf"):
        tracer.wrap(special, fn, fn, "special", delta_attrs)
    for fn in ("cdf_by_inversion", "pdf_by_inversion"):
        tracer.wrap(special, fn, fn, "special")
    for owner in (special, limits):
        tracer.wrap(owner, "InversionCdf", "InversionCdf", "special")
    tracer.wrap(inversion_cdf, "__call__", "InversionCdf.__call__", "special")
    for fn in ("ks_two_sample", "ecf_distance", "lst_distance"):
        tracer.wrap(identities, fn, fn, "verification")
    tracer.wrap(limits, "ks_one_sample", "ks_one_sample", "verification")
    tracer.wrap(identities, "verify", "verify", "identities")
    for fn in ("run_lemma14", "run_thm6", "run_thm7", "run_thm8"):
        tracer.wrap(limits, fn, fn, "limits")
    tracer.wrap(cli, "main", "main", "cli")


KERNELS = ("_stable_symmetric_values", "_gen_ml_values")
ML_FUNCTIONS = ("mittag_leffler", "ml_density", "ml_cdf")
METRIC_FUNCTIONS = ("ks_two_sample", "ks_one_sample", "ecf_distance", "lst_distance")
SELF_TIME_MODULES = ("streams", "distributions", "special", "identities", "verification", "limits")


def span_counts(spans: list[Span]) -> dict:
    """Counts one traced pass must repeat exactly."""
    def count(name):
        return sum(1 for s in spans if s.name == name)

    return {
        "spans": len(spans),
        "sample_draws": sum(s.attrs["draws"] for s in spans if s.name == "sample"),
        "kernel_draws": sum(s.attrs["draws"] for s in spans if s.name in KERNELS),
        "generators": count("RandomStream.generator"),
        "verify_calls": count("verify"),
        "inversion_cdf_builds": count("InversionCdf"),
        "cdf_by_inversion_calls": count("cdf_by_inversion"),
    }


def _per_call(spans: list[Span], scale: float) -> float:
    return scale * sum(s.duration for s in spans) / len(spans) if spans else 0.0


def layer_metrics(passes: list[list[Span]], op_times: list[dict], walls: list[float],
                  counts: dict) -> dict:
    """Per-module metrics, as (value, unit), averaged over the traced passes.

    Metrics of a module the workload does not touch are 0.
    """
    k = len(passes)
    spans = [s for p in passes for s in p]

    def named(*names):
        return [s for s in spans if s.name in names]

    def total(items):
        return sum(s.duration for s in items) / k

    out = {}
    samples = named("sample")
    for key, *_ in SAMPLE_SPECS:
        mine = [s for s in samples if s.attrs["key"] == key]
        draws = sum(s.attrs["draws"] for s in mine)
        out[f"distributions.ns_per_draw.{key}"] = (
            1e9 * sum(s.duration for s in mine) / draws if draws else 0.0, "ns")
    kernels = named(*KERNELS)
    out["distributions.sample_s"] = (total(samples), "s")
    out["distributions.kernel_s"] = (total(kernels), "s")
    out["distributions.kernel_draws"] = (counts.get("kernel_draws", 0), "count")
    out["streams.generators"] = (counts.get("generators", 0), "count")
    out["streams.generator_s"] = (total(named("RandomStream.generator")), "s")
    out["special.inversion_cdf.builds"] = (counts.get("inversion_cdf_builds", 0), "count")
    out["special.inversion_cdf.build_s"] = (total(named("InversionCdf")), "s")
    builds = {s.id for s in named("InversionCdf")}
    points = named("cdf_by_inversion")
    out["special.inversion_cdf.ms_per_point"] = (
        _per_call([s for s in points if s.parent in builds], 1e3), "ms")
    out["special.cdf_by_inversion.ms_per_point"] = (
        _per_call([s for s in points if s.parent is None], 1e3), "ms")
    out["special.pdf_by_inversion.ms_per_point"] = (_per_call(named("pdf_by_inversion"), 1e3), "ms")
    for fn in ML_FUNCTIONS:
        for delta in ML_DELTAS:
            direct = [s for s in named(fn) if s.parent is None and s.attrs["delta"] == delta]
            out[f"special.{fn}.us_per_call.d{delta}"] = (_per_call(direct, 1e6), "us")
    for fn in METRIC_FUNCTIONS:
        out[f"verification.{fn}.ms_per_call"] = (_per_call(named(fn), 1e3), "ms")
    out["identities.verify_calls"] = (counts.get("verify_calls", 0), "count")
    for module in SELF_TIME_MODULES:
        out[f"{module}.self_s"] = (sum(s.self_s for s in spans if s.module == module) / k, "s")
    out["cli.sample.self_s"] = (sum(s.self_s for s in spans if s.module == "cli") / k, "s")
    out["cli.bytes_written"] = (counts.get("cli_bytes_written", 0), "bytes")
    for name, *_ in LIMIT_EXPERIMENTS:
        seconds = [t[f"limit:{name}"] for t in op_times if f"limit:{name}" in t]
        out[f"limits.{name}.s"] = (sum(seconds) / k, "s")
    # Pass time that no top-level span covers: the benchmark's own loop.
    covered = [sum(s.duration for s in p if s.parent is None) for p in passes]
    out["trace.uncovered_s"] = (sum(w - c for w, c in zip(walls, covered)) / k, "s")
    return out
