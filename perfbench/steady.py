"""Steadiness self-check: do repeated runs of the same code agree?

    python3 perfbench/steady.py --repeats 5 [--workloads walk-clean,service-evolve]

Runs ``perfbench/run.py --trace 0`` once per workload and repeat, each
in its own process, with seed ``--first-seed + repeat``.  The workload
order alternates between repeats (forward, then reversed) so slow drift
of the host does not land on one workload only.  For every end-to-end
metric it prints the median, the quartiles and the spread, (Q3 - Q1) /
median, beside the bound from BENCHMARK.json; a spread above a third of
the bound is marked ``noisy``, above the bound ``OVER``.  The host speed
probe (``host.calib_s``) is printed the same way, without a bound.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
CALIB = re.compile(r"host\.calib_s start ([0-9.]+) end ([0-9.]+)")


def spread(values):
    """(median, Q1, Q3, (Q3 - Q1) / median) from ``statistics.quantiles(n=4)``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def run_once(workload, seed, seconds):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(command)} failed ({done.returncode}):\n"
                         f"{done.stdout}\n{done.stderr}")
    result = json.loads(lines[-1])
    calib = [float(x) for x in CALIB.search(done.stdout).groups()]
    return result, calib


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="Repeat runs and print metric spreads.")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--out", help="also write the raw values to this JSON file")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {w: {} for w in workloads}
    calibs = {w: [] for w in workloads}
    for repeat in range(args.repeats):
        order = workloads if repeat % 2 == 0 else workloads[::-1]
        for workload in order:
            seed = args.first_seed + repeat
            result, calib = run_once(workload, seed, args.seconds)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}")
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            calibs[workload].extend(calib)
            print(f"done {workload} seed {seed}", file=sys.stderr, flush=True)

    if args.out:
        pathlib.Path(args.out).write_text(json.dumps({"metrics": values, "calib": calibs}))
    worst = 0.0
    print(f"{'workload':<16} {'metric':<16} {'median':>13} {'q1':>13} {'q3':>13} "
          f"{'spread':>8} {'bound':>6}")
    for workload in workloads:
        for name, series in values[workload].items():
            median, q1, q3, share = spread(series)
            bound = bounds[name]
            verdict = "OVER" if share > bound else "noisy" if share > bound / 3 else "ok"
            if name != "setup_s":
                worst = max(worst, share / bound)
            print(f"{workload:<16} {name:<16} {median:>13.5f} {q1:>13.5f} {q3:>13.5f} "
                  f"{share:>8.4f} {bound:>6.3f} {verdict}")
        median, q1, q3, share = spread(calibs[workload])
        print(f"{workload:<16} {'host.calib_s':<16} {median:>13.5f} {q1:>13.5f} {q3:>13.5f} "
              f"{share:>8.4f} {'-':>6}")
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
