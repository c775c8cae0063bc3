"""Timed and traced runs of one workload, and the metrics they report.

A timed run (`--trace 0`) first measures set-up in fresh processes, then
repeats the workload's pass until `--seconds` have gone by (at least
MIN_PASSES times) and reports the end-to-end metrics. The only
instrumentation in it is one span per `harness.run_trial` call, which gives
the trial latencies. A traced run (`--trace 1`) repeats the pass untraced
for half the time, then as many times again with every layer wrapped, and
reports per-layer calls, seconds, self seconds and counters, plus the
tracing overhead: traced minus untraced trials per second.

Every pass must fail no trial, run the workload's full trial count and
reproduce the first pass's payload digest, or the run is marked incorrect.
The last line printed is the JSON result; the lines before it are comments
for a reader (machine fingerprint, digests, trial tail, failed ratio).
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import env
import spans
import workloads

MIN_PASSES = 2
SETUP_REPEATS = 9
OUT_DIR = env.ROOT / ".bench_build" / "perfbench"
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)

# a fresh interpreter importing the package and the exact-arithmetic domain
# that the first escalated trial loads
_SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import multirate_zeros
t1 = time.perf_counter()
from sympy import QQ
from sympy.polys.matrices import DomainMatrix
t2 = time.perf_counter()
if not multirate_zeros.__file__.startswith(sys.argv[1]):
    sys.exit("imported " + multirate_zeros.__file__)
print(t1 - t0, t2 - t1)
"""


def comment(label: str, value) -> None:
    print(f"# {label}: {json.dumps(value) if not isinstance(value, str) else value}", flush=True)


def setup_seconds(repeats: int) -> tuple[float, float, float]:
    """Median total, package and sympy import seconds over fresh processes."""
    totals, pkg, exact = [], [], []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(env.SRC)],
                             capture_output=True, text=True, timeout=120, check=True,
                             cwd=env.ROOT)
        a, b = map(float, out.stdout.split())
        totals.append(a + b)
        pkg.append(a)
        exact.append(b)
    return statistics.median(totals), statistics.median(pkg), statistics.median(exact)


def tail(samples_ms: list[float]) -> tuple[float, float, int] | None:
    """Highest listed percentile with at least ten samples beyond it: (p, value, beyond)."""
    xs = sorted(samples_ms)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)   # nearest-rank percentile
        if n - rank >= 10:
            return p, xs[rank - 1], n - rank
    return None


def run_passes(workload, out_dir: Path, seconds: float,
               min_passes: int) -> list[tuple[workloads.PassResult, float]]:
    """Repeat the pass for `seconds`, and at least min_passes times."""
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        result = workload.run_pass(out_dir)
        passes.append((result, time.perf_counter() - t0))
    return passes


def check(workload, passes) -> list[str]:
    """Problems with the passes' outputs; empty when they are correct."""
    problems = []
    first = passes[0][0].digest
    for i, (res, _) in enumerate(passes):
        if res.failed:
            problems.append(f"pass {i}: {res.failed} of {res.attempted} trials failed")
        if res.attempted != workload.trials_per_pass:
            problems.append(f"pass {i}: ran {res.attempted} trials, "
                            f"expected {workload.trials_per_pass}")
        if res.digest != first:
            problems.append(f"pass {i}: payload digest {res.digest} differs from {first}")
    return problems


def trials_per_s(passes) -> float:
    return statistics.median(res.attempted / wall for res, wall in passes)


def timed_run(workload, seconds: float, out_dir: Path):
    setup_s, setup_pkg, setup_exact = setup_seconds(SETUP_REPEATS)
    comment("setup_s parts (median of %d processes)" % SETUP_REPEATS,
            {"import_multirate_zeros_s": setup_pkg, "import_sympy_domain_s": setup_exact})
    workloads.run_case(workload.warm_case)   # lazy imports and caches fill here
    with spans.Tracer(layers=(spans.TRIAL_LAYER,)) as clock:
        passes = run_passes(workload, out_dir, seconds, MIN_PASSES)
    trial_ms = [d * 1e3 for d in clock.durations(spans.TRIAL_LAYER)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    t = tail(trial_ms)
    comment("trial_tail_ms", "not reported: fewer than 11 trials" if t is None else
            f"p{t[0]:g} = {t[1]} ms ({len(trial_ms)} trials, {t[2]} beyond)")
    comment("trial_p50_ms samples", len(trial_ms))
    metrics = {
        "setup_s": (setup_s, "s"),
        "trials_per_s": (trials_per_s(passes), "1/s"),
        "trial_p50_ms": (statistics.median(trial_ms), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return passes, metrics


def traced_run(workload, seconds: float, out_dir: Path):
    workloads.run_case(workload.warm_case)   # lazy imports and caches fill here
    with spans.Tracer(layers=(spans.TRIAL_LAYER,)):
        plain = run_passes(workload, out_dir, seconds / 2, 1)
    with spans.Tracer() as tracer:
        traced = run_passes(workload, out_dir, 0, len(plain))
    path = out_dir / f"spans-{workload.name}.json"
    tracer.write(path)
    comment("spans", f"{len(tracer.spans)} written to {path}")
    comment("waiting", "none: the program is single-threaded with no queues")
    untraced_tps, traced_tps = trials_per_s(plain), trials_per_s(traced)
    comment("trials_per_s", {"untraced": untraced_tps, "traced": traced_tps})
    metrics = tracer.metrics()
    metrics["tracing.overhead_trials_per_s"] = (traced_tps - untraced_tps, "1/s")
    return plain + traced, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark one workload of multirate_zeros.")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    comment("machine", env.fingerprint())
    workload = workloads.WORKLOADS[args.workload](args.seed)
    out_dir = OUT_DIR / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    run = traced_run if args.trace else timed_run
    passes, metrics = run(workload, args.seconds, out_dir)

    comment("passes", [{"trials": r.attempted, "failed": r.failed, "escalated": r.escalated,
                        "wall_s": w, "sha256": r.digest} for r, w in passes])
    attempted = sum(res.attempted for res, _ in passes)
    failed = sum(res.failed for res, _ in passes)
    comment("failed_ratio", f"{failed / attempted} ({failed} of {attempted} trials)")
    problems = check(workload, passes)
    for p in problems:
        print(f"# INCORRECT: {p}", flush=True)
    comment("payload sha256", passes[0][0].digest)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }), flush=True)
    return 0 if not problems else 1
