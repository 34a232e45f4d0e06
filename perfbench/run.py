"""askbd benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload offline-run --seed 1 --seconds 30 --trace 0

Run from the repository root. The workloads are defined in workloads.py
and described, with the metric catalogue, in perfbench/README.md.

--trace 0 sets the workload up repeatedly (setup_s is the median, rescaled
by machine speed like the other CPU-bound stages), then
repeats its timed iteration until --seconds have passed. It reports the
median of each metric over the iterations. --trace 1 sets up once and
alternates untraced and traced
iterations for --seconds, tracing at most MAX_TRACED of them. It reports
the per-layer metrics per traced iteration and the tracing overhead, and
writes every span to .bench_out/. Correctness gates run on every
iteration; `correct` is false if any of them failed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# set-up repeats at least SETUPS times and for at least SETUP_SECONDS, so a
# set-up of a few tens of ms still gets a median over many samples
SETUPS = 7
SETUP_SECONDS = 3.0
# a traced iteration of altgen-deep records ~200k spans; past this many
# traced iterations the run continues untraced
MAX_TRACED = 2
UNITS = {
    "setup_s": "s",
    "detections_per_s": "1/s",
    "requests_per_detection": "ratio",
    "analyze_s": "s",
    "records_per_s": "1/s",
    "alternatives_per_record": "ratio",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
}


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description="askbd benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _summarize(iterations, problems) -> tuple[int, int, bool]:
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    for problem in problems:
        print(f"gate failed: {problem}", file=sys.stderr)
    return attempted, failed, not problems


def _iterate(state, tracer=None):
    # every iteration starts from a collected heap, as a fresh process would
    gc.collect()
    return state.iteration(tracer)


def _measure(workload, workdir: Path, seed: int, seconds: float) -> dict:
    from workloads import PROBE_RESIDENT_BYTES, ReferenceTimer

    setup_times, setup_wall = [], 0.0
    state = None
    try:
        while len(setup_times) < SETUPS or setup_wall < SETUP_SECONDS:
            if state is not None:
                state.close()
            with ReferenceTimer() as timer:
                state = workload.setup(workdir / f"setup{len(setup_times)}", seed)
            setup_times.append(timer.reference_s)
            setup_wall += timer.seconds
        state.start()
        problems = []
        if workload.warm_up:
            problems += state.iteration().problems
        iterations = []
        started = time.perf_counter()
        while not iterations or time.perf_counter() - started < seconds:
            iterations.append(_iterate(state))
            problems += iterations[-1].problems
    finally:
        if state is not None:
            state.close()
    attempted, failed, correct = _summarize(iterations, problems)
    metrics = {}
    for name in iterations[0].metrics:
        metrics[name] = statistics.median(it.metrics[name] for it in iterations)
    metrics["setup_s"] = statistics.median(setup_times)
    metrics["ok_share"] = 1.0 - failed / attempted
    # ru_maxrss is in KiB; the probe's resident rows are harness, not program
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - PROBE_RESIDENT_BYTES / 1024
    metrics["peak_rss_mb"] = peak_kib / 1024.0
    missing = set(UNITS) - set(metrics)
    if missing:
        raise RuntimeError(f"workload did not report {sorted(missing)}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": UNITS[name]} for name in UNITS},
    }


def _trace(workload, workdir: Path, seed: int, seconds: float, name: str) -> dict:
    import tracing

    tracer = tracing.Tracer()
    state = workload.setup(workdir / "setup0", seed)
    try:
        state.start()
        problems = []
        if workload.warm_up:
            problems += state.iteration().problems
        untraced, traced = [], []
        started = time.perf_counter()
        while not traced or time.perf_counter() - started < seconds:
            untraced.append(_iterate(state))
            problems += untraced[-1].problems
            if len(traced) < MAX_TRACED:
                traced.append(_iterate(state, tracer))
                problems += traced[-1].problems
    finally:
        state.close()
    attempted, failed, correct = _summarize(untraced + traced, problems)
    counters = {
        key: statistics.fmean(it.counters.get(key, 0.0) for it in traced)
        for key in {k for it in traced for k in it.counters}
    }
    untraced_s = statistics.median(it.wall_s for it in untraced)
    traced_s = statistics.median(it.wall_s for it in traced)
    metrics = tracing.layer_metrics(tracing.SpanStats(tracer.spans), len(traced), counters)
    metrics.update({
        "bench.untraced_iteration_s": untraced_s,
        "bench.traced_iteration_s": traced_s,
        "bench.tracing_overhead_s": traced_s - untraced_s,
        "bench.spans_per_iteration": len(tracer.spans) / len(traced),
    })
    outdir = ROOT / ".bench_out"
    outdir.mkdir(exist_ok=True)
    tracer.write(outdir / f"trace-{name}-seed{seed}.jsonl.gz")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": tracing.LAYER_UNITS[metric]}
            for metric, value in metrics.items()
        },
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "askbd" / "__init__.py").is_file():
        print(f"askbd sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    # the live workload talks to a loopback endpoint; never through a proxy
    for var in ("no_proxy", "NO_PROXY"):
        os.environ[var] = ",".join(filter(None, [os.environ.get(var), "127.0.0.1", "localhost"]))

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            result = _trace(workload, workdir, args.seed, args.seconds, args.workload)
        else:
            result = _measure(workload, workdir, args.seed, args.seconds)
    finally:
        with contextlib.suppress(FileNotFoundError):
            shutil.rmtree(workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
