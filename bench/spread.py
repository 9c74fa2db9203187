"""Run-to-run spread of the end-to-end metrics, as the bounds are judged.

    python3 bench/spread.py --workload gflow_flow --seeds 1-10 --sets 2

Runs ``bench/run.py`` once per seed and set, one process at a time, and
prints per metric each set's median and its spread (the distance between
the first and third quartiles over the median), how far the last set's
median moved from the first's, the bound in BENCHMARK.json, and every
run's value.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds):
    """One run's result, with its elapsed time from start to exit."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({proc.returncode}): {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed"] = time.perf_counter() - t0
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    sets = []
    for k in range(args.sets):
        results = [one_run(args.workload, s, spec["run_seconds"]) for s in args.seeds]
        shares = {r["failed"] / r["attempted"] for r in results}
        elapsed = [r["elapsed"] for r in results]
        print(f"set {k + 1}: correct {all(r['correct'] for r in results)}, "
              f"failed share {sorted(shares)}, attempted {[r['attempted'] for r in results]}, "
              f"elapsed per run {min(elapsed):.1f}-{max(elapsed):.1f} s")
        sets.append(results)
    for name in sets[0][0]["metrics"]:
        cols = []
        medians = []
        for results in sets:
            vals = [r["metrics"][name]["value"] for r in results]
            medians.append(statistics.median(vals))
            cols.append(f"median {medians[-1]:.6g} spread {spread(vals):.3f}" if len(vals) > 1
                        else f"value {vals[0]:.6g}")
        drift = f" drift {medians[-1] / medians[0] - 1:+.3f}" if len(medians) > 1 else ""
        print(f"{name:44s} bound {bounds.get(name)}  " + " | ".join(cols) + drift)
        for results in sets:
            print("    " + " ".join(f"{r['metrics'][name]['value']:.4g}" for r in results))


if __name__ == "__main__":
    main()
