"""htmix benchmark: one workload, one run, one JSON result on the last line.

    python3 perfbench/run.py --workload sample_bulk --seed 1729 --seconds 20 --trace 0

Run from the repository root. The program is imported from ``src/``; the
run fails (nonzero exit code, no result) when it is not there.

A run repeats passes over the workload's ops until ``--seconds`` are used,
with at least two passes so that every op's output hash can be compared
between passes. With ``--trace 0`` nothing is wrapped and the run reports
the end-to-end metrics; set-up time is measured in fresh processes. With
``--trace 1`` an untraced warm-up pass is followed by alternating traced
and untraced passes, spans are written to ``perfbench/results/`` at the
end, and the run reports the
per-module metrics listed in BENCHMARK.json, including the tracing
overhead (traced minus untraced pass time).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

MIN_PASSES = 2
SETUP_PROBES = 5
# Never start a pass that would end after this many seconds of measuring.
HARD_STOP_S = 140.0

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
MODULES = ("streams", "distributions", "special", "identities", "verification", "limits", "cli")


def cap_threads() -> None:
    """One compute thread per native library: the workloads run single-threaded."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_htmix():
    if not (SRC / "htmix" / "__init__.py").is_file():
        sys.exit(f"perfbench: no htmix sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import htmix

    if Path(htmix.__file__).resolve().parent != SRC / "htmix":
        sys.exit(f"perfbench: imported htmix from {htmix.__file__}, not from {SRC}")
    return htmix


def environment(htmix) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    sha = "unknown"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        if res.returncode == 0:
            sha = res.stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "htmix": htmix.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "git_sha": sha,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Fresh-process time to import htmix and build the inputs."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--probe-setup"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            sys.exit(f"perfbench: set-up probe failed (exit code {code})")
        times.append(elapsed)
    return times


def run_pass(ops) -> tuple[float, dict, dict, dict]:
    outputs, times, errors = {}, {}, {}
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            outputs[op.name] = op.call()
        except Exception as exc:  # a raising op is a counted failure, not a crash
            outputs[op.name] = None
            errors[op.name] = f"{type(exc).__name__}: {exc}"
        times[op.name] = time.perf_counter() - t0
    return time.perf_counter() - start, outputs, times, errors


def tail_percentile(ops_per_pass: int) -> int:
    """Highest percentile with at least ten ops beyond it in the smallest run.

    Below twenty ops no percentile above the median qualifies, so the tail
    is then reported at the median.
    """
    n = MIN_PASSES * ops_per_pass
    return max(50, math.floor(100 * (n - 10) / n))


def src_lines(module: str) -> int:
    with open(SRC / "htmix" / f"{module}.py", "rb") as fh:
        return sum(1 for _ in fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cap_threads()
    htmix = import_htmix()
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=RESULTS, prefix="work-"))
    try:
        build = workloads.WORKLOADS[args.workload]
        if args.probe_setup:
            build(htmix, args.seed, workdir)
            print("ready", flush=True)
            return 0
        setup = [] if args.trace else setup_seconds(args.workload, args.seed)
        report = measure(htmix, tracing, workloads, build(htmix, args.seed, workdir), args)
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()

    report["env"] = environment(htmix)
    metrics = report["metrics"]
    if setup:
        metrics["setup_s"] = (statistics.median(setup), "s")
    if args.trace:
        for module in MODULES:
            metrics[f"{module}.src_lines"] = (src_lines(module), "lines")

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        sys.exit(f"perfbench: metrics not produced: {missing}")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{report['passes']} passes")
    for key, value in report["env"].items():
        print(f"# env {key}: {value}")
    for key, value in report["counts"].items():
        print(f"# count {key}: {value}")
    for name, entry in report["metrics"].items():
        print(f"# metric {name} = {entry['value']:.6g} {entry['unit']}")
    if "op_count" in report:
        print(f"# op_tail_ms is percentile {report['op_tail_percentile']} "
              f"of {report['op_count']} ops")
    for problem in report["problems"]:
        print(f"# FAIL {problem}")
    result = {
        "correct": not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: report["metrics"][m["name"]] for m in wanted},
    }
    print(json.dumps(result))
    return 0


def measure(htmix, tracing, workloads, workload, args) -> dict:
    ops = workload.ops
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, htmix)
    expected = json.loads((HERE / "workloads.json").read_text())["workloads"][args.workload]
    expected = expected.get("expected_counts_default_seed", {}) if args.seed == workloads.DEFAULT_SEED else {}

    min_passes = MIN_PASSES + 1 if tracer else MIN_PASSES
    walls = {False: [], True: []}
    op_times = []       # (traced, {op name: seconds}) per pass
    traced_spans = []   # span lists, one per traced pass
    hashes, problems, first_counts = {}, [], {}
    failed = attempted = 0
    start = time.perf_counter()
    try:
        while True:
            index = len(op_times)
            # Traced runs: pass 0 warms up, then traced and untraced alternate.
            traced = bool(tracer) and index % 2 == 1
            if tracer:
                first_span = len(tracer.spans)
                tracer.enabled = traced
            wall, outputs, times, errors = run_pass(ops)
            if tracer:
                tracer.enabled = False
            if not (tracer and index == 0):
                walls[traced].append(wall)
            op_times.append((traced, times))
            if traced:
                traced_spans.append(tracer.spans[first_span:])

            for op in ops:
                attempted += 1
                problem = errors.get(op.name)
                if problem is None:
                    problem = op.check(outputs[op.name])
                    digest = workloads.sha256(op.digest(outputs[op.name]))
                    if hashes.setdefault(op.name, digest) != digest and problem is None:
                        problem = "output differs from the first pass"
                if problem is not None:
                    failed += 1
                    problems.append(f"pass {index} {op.name}: {problem}")
            if index == 0:
                for problem in workload.final_check(outputs):
                    failed += 1
                    problems.append(problem)
            counts = {"ops": len(ops), **workload.counts(outputs)}
            if traced:
                counts.update(tracing.span_counts(traced_spans[-1]))
            for key, value in counts.items():
                ref = first_counts.setdefault(key, value)
                if ref != value:
                    failed += 1
                    problems.append(f"pass {index} count {key}: {value} != {ref} in an earlier pass")
            del outputs

            elapsed = time.perf_counter() - start
            mean_pass = elapsed / len(op_times)
            if len(op_times) >= min_passes and (
                elapsed + mean_pass > args.seconds or elapsed + mean_pass > HARD_STOP_S
            ):
                break
    finally:
        if tracer:
            tracer.restore()

    for key, value in expected.items():
        if key in first_counts and first_counts[key] != value:
            failed += 1
            problems.append(f"count {key}: {first_counts[key]} != {value} recorded for the default seed")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(op_times),
        "pass_wall_s": walls[False] + walls[True],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "counts": first_counts,
    }
    if tracer:
        stem = f"{args.workload}-seed{args.seed}-spans.json"
        (RESULTS / stem).write_text(json.dumps(
            [[s.to_dict() for s in spans] for spans in traced_spans]) + "\n")
        metrics = tracing.layer_metrics(
            traced_spans, [t for tr, t in op_times if tr], walls[True], first_counts)
        metrics["trace.overhead_s"] = (
            statistics.median(walls[True]) - statistics.median(walls[False]), "s")
        report["metrics"] = metrics
        return report

    pooled = [t for _, times in op_times for t in times.values()]
    tail_q = tail_percentile(len(ops))
    metrics = {
        "wall_s": (statistics.median(walls[False]), "s"),
        "op_p50_ms": (1e3 * statistics.median(pooled), "ms"),
        "op_tail_ms": (
            1e3 * statistics.quantiles(pooled, n=100, method="inclusive")[tail_q - 1], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_frac": (failed / attempted, "fraction"),
    }
    report["op_tail_percentile"] = tail_q
    report["op_count"] = len(pooled)
    report["op_median_ms"] = {
        op.name: 1e3 * statistics.median(times[op.name] for _, times in op_times) for op in ops}
    sample_ops = [op.name for op in ops if op.name.startswith("sample:")]
    if sample_ops:
        draws = sum(op.draws for op in ops if op.name in sample_ops)
        metrics["draws_per_s"] = (statistics.median(
            draws / sum(times[name] for name in sample_ops) for _, times in op_times), "1/s")
    if any(op.name == "cli:sample" for op in ops):
        metrics["cli_sample_s"] = (statistics.median(t["cli:sample"] for _, t in op_times), "s")
    report["metrics"] = metrics
    return report


if __name__ == "__main__":
    sys.exit(main())
