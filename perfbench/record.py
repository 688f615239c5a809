"""Run the benchmark twice over seeds 1-10 and compare the two sets.

    python3 perfbench/record.py [--trace] [--label NAME]

Runs ``BENCHMARK.json``'s command on every workload and seeds 1-10, one run
at a time, from the directory that holds ``BENCHMARK.json``.  Each seed runs
twice in a row, once for set A and once for set B, so that a drift of the
host's speed over minutes reaches both sets alike.  For each end-to-end
metric it prints, per set, the median and the quartile spread (q3 - q1 over
the median, from ``statistics.quantiles(values, n=4)``), and the share by
which set B's median is worse than set A's, next to the metric's bound.
``--trace`` adds two traced runs per workload (seed 1) and checks that
their counts repeat exactly.  With ``--label`` the runs are written to
``perfbench/BENCH_<label>.json`` together with the git revision (when run
in a git checkout), the machine's core count and the Python version.

The exit code is 1 when a run is not correct or fails operations, a spread
other than ``setup_s``'s exceeds a third of its bound, the medians of the
two sets differ by more than the bound, or a traced count does not repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
SETS = ("A", "B")


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(int(trace)),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(workload=workload, seed=seed, trace=int(trace), run_s=round(elapsed, 2))
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def worse_by(metric, first, second):
    """Share by which median ``second`` is worse than median ``first``."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--label")
    args = parser.parse_args(argv)

    runs = []
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        results = {name: [] for name in SETS}
        for seed in SEEDS:
            for name in SETS:
                result = run_once(bench, workload, seed, False)
                result["set"] = name
                results[name].append(result)
                runs.append(result)
                print(json.dumps(result), flush=True)
        every = results["A"] + results["B"]
        shares = {name: {r["failed"] / r["attempted"] for r in results[name]} for name in SETS}
        print(f"== {workload}: failed share {shares}, "
              f"correct {all(r['correct'] for r in every)}, "
              f"run_s max {max(r['run_s'] for r in every)}")
        ok &= all(r["correct"] for r in every) and shares["A"] == shares["B"] == {0.0}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            (med_a, width_a), (med_b, width_b) = (
                spread([r["metrics"][name]["value"] for r in results[s]]) for s in SETS
            )
            worse = worse_by(metric, med_a, med_b)
            within = name == "setup_s" or max(width_a, width_b) <= bound / 3
            agree = worse <= bound
            ok &= within and agree
            print(f"   {name:12s} A {med_a:10.5g} ({width_a:.3f})  "
                  f"B {med_b:10.5g} ({width_b:.3f})  B worse by {worse:+.3f}  "
                  f"bound {bound}  {'ok' if within else 'WIDE'}"
                  f"{'' if agree else ' DISAGREE'}")
        if args.trace:
            traced = [run_once(bench, workload, SEEDS[0], True) for _ in SETS]
            for result in traced:
                print(json.dumps(result), flush=True)
            runs += traced
            counts = [
                {k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"}
                for r in traced
            ]
            repeat = counts[0] == counts[1]
            ok &= repeat
            print(f"   traced counts {'repeat' if repeat else 'DIFFER'}: {counts[0]}")
    if args.label:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        record = {
            "label": args.label,
            "git_revision": git.stdout.strip() if git.returncode == 0 else None,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "benchmark": bench,
            "runs": runs,
        }
        path = ROOT / "perfbench" / f"BENCH_{args.label}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
