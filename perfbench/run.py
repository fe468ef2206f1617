"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload walk-clean --seed 1 --seconds 20 --trace 0

``--trace 0`` is the timed run: set-up is built three times (median
reported), then whole rounds of queries run until ``--seconds`` have
passed, and every end-to-end metric is printed.  ``--trace 1`` is the
traced run: the fixed set of queries runs dark, then again with the
layer wrappers installed (and, on walk-hostile, once more on the clean
stack), the passes are compared, and every per-layer metric is printed.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "queries_per_s": "1/s",
    "calls_per_s": "1/s",
    "cost_per_query": "calls",
    "rel_rmse": "ratio",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
}
TAIL_BEYOND = 10


def calibrate() -> float:
    """Seconds for a fixed pure-Python plus numpy loop (host speed probe)."""
    import numpy as np

    values = np.random.default_rng(0).random(300_000)
    np.sort(values)  # warm-up: first-call and page-fault costs stay out
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    for _ in range(10):
        np.sort(values)
    return time.perf_counter() - start


def tail_latency(latencies):
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        return ordered[-1], 100.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(result, setup_times):
    """The nine end-to-end metrics of one timed pass, plus notes to print."""
    answers = result.answers
    fixed = [a for a in answers if a.fixed]
    fixed_ok = [a for a in fixed if a.status == "ok"]
    latencies = [a.latency_s if a.status == "ok" else math.inf for a in fixed]
    tail, percentile = tail_latency(latencies)
    ok = [a for a in answers if a.status == "ok"]
    errors = [((a.value - a.truth) / a.truth) ** 2 for a in fixed_ok if a.truth]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "queries_per_s": len(ok) / result.timed_s,
        "calls_per_s": sum(a.charged for a in answers) / result.timed_s,
        "cost_per_query": sum(a.cost_total for a in fixed_ok if not a.cached) / max(len(fixed_ok), 1),
        "rel_rmse": math.sqrt(statistics.fmean(errors)) if errors else math.inf,
        "ok_share": len(ok) / result.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "latency_tail_s": f"p{percentile:.0f} of {len(latencies)} fixed-set queries",
        "setup_s": "median of " + ", ".join(f"{t:.4f}" for t in setup_times),
        "queries_per_s": f"{len(ok)} ok queries in {result.timed_s:.2f} s, "
                         f"{result.rounds} rounds",
        "ok_share": f"fail_share {1 - metrics['ok_share']:.4f} "
                    f"({result.attempted - len(ok)} of {result.attempted})",
        "rel_rmse": f"over {len(errors)} fixed-set answers",
    }
    if any(a.cached for a in answers):
        notes["cost_per_query"] = (f"repeat share {sum(a.cached for a in ok) / len(ok):.3f} "
                                   f"of completed queries")
    return metrics, notes


def timed_run(workloads, plane, seconds):
    setup_times = [plane.build() for _ in range(workloads.SETUP_REPEATS)]
    result = plane.run(plane.workload.min_rounds, seconds)
    problems = workloads.check_answers(result.answers)
    metrics, notes = end_to_end(result, setup_times)
    ok = sum(a.status == "ok" for a in result.answers)
    return metrics, notes, problems, result.attempted, result.attempted - ok


def traced_run(workloads, layers, plane, out_dir):
    """Dark pass, traced pass (and clean-stack pass on walk-hostile)."""
    plane.build()
    rounds = plane.workload.trace_rounds
    dark = plane.run(rounds, with_truth=False)
    recorder = layers.Recorder()
    recorder.install()
    try:
        plane.build()
        build_s = sum(span[2] - span[1] for span in recorder.spans
                      if span[0] == "platform.build")
        recorder.clear()
        traced = plane.run(rounds, recorder=recorder, with_truth=False)
        recorder.set_query(None)
    finally:
        recorder.remove()
    problems = workloads.check_answers(dark.answers) + workloads.check_answers(traced.answers)
    problems += workloads.compare_passes("traced vs dark", dark, traced)
    if plane.workload.hostile:
        plane.build()
        clean = plane.run(rounds, hostile=False, with_truth=False)
        problems += workloads.compare_passes("hostile vs clean stack", clean, dark,
                                             with_retries=False)

    metrics = recorder.layer_metrics(traced.timed_s)
    metrics["platform.build_s"] = build_s
    stats = traced.stats
    metrics["reuse.interval_hit_ratio"] = layers.ratio(
        stats.get("reuse_interval_hits", 0),
        stats.get("reuse_interval_hits", 0) + stats.get("reuse_interval_misses", 0))
    metrics["reuse.column_hit_ratio"] = layers.ratio(
        stats.get("reuse_column_hits", 0),
        stats.get("reuse_column_hits", 0) + stats.get("reuse_column_misses", 0))
    metrics["service.result_hit_ratio"] = layers.ratio(
        stats.get("result_hits", 0),
        stats.get("result_hits", 0) + stats.get("result_misses", 0))
    metrics["obs.trace_records"] = float(sum(
        a.payload.count(b"\n") + 1 for a in traced.answers if a.payload and not a.cached))
    metrics["bench.trace_overhead_ratio"] = traced.timed_s / dark.timed_s

    spans_path = out_dir / f"spans-{plane.workload.name}-{plane.seed}.jsonl"
    index = {id(span): i for i, span in enumerate(recorder.spans)}
    with open(spans_path, "w", encoding="utf-8") as handle:
        for span in recorder.spans:
            handle.write(json.dumps({
                "name": span[0], "start": span[1], "end": span[2],
                "parent": index.get(id(span[3])), "query": span[4],
            }) + "\n")
    notes = {
        "bench.trace_overhead_ratio": f"traced {traced.timed_s:.3f} s / dark {dark.timed_s:.3f} s",
        "bench.unattributed_share": f"{len(recorder.spans)} spans written to "
                                    f"{spans_path.relative_to(ROOT)}",
    }
    ok = sum(a.status == "ok" for a in traced.answers)
    return metrics, notes, problems, traced.attempted, traced.attempted - ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import layers, workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    calib_start = calibrate()
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    plane = workloads.Plane(workload, args.seed, workdir)
    try:
        if args.trace:
            metrics, notes, problems, attempted, failed = traced_run(
                workloads, layers, plane, out_dir)
            units = dict(layers.PER_LAYER_METRICS)
        else:
            metrics, notes, problems, attempted, failed = timed_run(
                workloads, plane, args.seconds)
            units = END_TO_END_UNITS
    finally:
        plane.close()
        shutil.rmtree(workdir, ignore_errors=True)
    calib_end = calibrate()

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    for name, unit in units.items():
        note = notes.get(name)
        print(f"  {name:<28} {metrics[name]:>14.6f} {unit:<6}" + (f" {note}" if note else ""))
    print(f"  host.calib_s start {calib_start:.4f} end {calib_end:.4f} (not gated)")
    for problem in problems:
        print(f"  FAIL {problem}")
    print(f"  correctness gate: {'passed' if not problems else 'FAILED'}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
