"""Steadiness evidence for the bounds in BENCHMARK.json.

    python3 perfbench/steadiness.py [--first-seed 1] [--out FILE]
        [--baseline FILE]

Runs the benchmark command once per workload of BENCHMARK.json and seed, for
its ``run_seconds`` (RUNS seeds from first-seed on, workloads interleaved),
then reports for every end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
next to its bound, plus the attempted and failed inputs of every run.  A spread above
a third of its bound is marked ``unsteady``, one above the bound ``over
bound``.  The ungated metrics of each run's result file (raw milliseconds,
ops per second, kernel time, raw set-up times, failed fraction) get the same
statistics.
With ``--baseline`` (an earlier output file) it also checks that no median
is worse than the baseline's by more than the bound, and that every seed the
two share attempted and failed the same number of inputs: the inputs and the
program are the same, so the failures must be too.  Run from the root of
a source checkout; results go to FILE (default .perfbench_runs/steadiness.json).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUNS = 10


def run_once(command: list[str], workload: str, seed: int,
             seconds: int) -> dict:
    """The run's last line, plus its ungated metrics from the result file."""
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n"
                 f"{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    with open(os.path.join(".perfbench_runs",
                           f"{workload}-seed{seed}-trace0.json")) as handle:
        full = json.load(handle)
    result["operations"] = full["operations"]
    result["ungated"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit, _n) in full["metrics"].items()
                         if name not in result["metrics"]}
    return result


def worse_by(metric: dict, new: float, old: float) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def row(values: list[float], unit: str, bound: float | None,
        verdict: str | None = None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else None
    if verdict is None:
        verdict = ("over bound" if spread > bound else
                   "unsteady" if spread > bound / 3 else "steady")
    return {"unit": unit, "bound": bound, "values": values,
            "median": median, "q1": q1, "q3": q3, "spread": spread,
            "verdict": verdict}


def summarize(spec: dict, runs: dict[str, list[dict]]) -> dict:
    summary = {}
    for workload, results in runs.items():
        rows = {}
        for m in spec["end_to_end"]:
            rows[m["name"]] = row(
                [r["metrics"][m["name"]]["value"] for r in results],
                m["unit"], m["bound"])
        for name, first in results[0]["ungated"].items():
            if all(name in r["ungated"] for r in results):
                rows[name] = row([r["ungated"][name]["value"]
                                  for r in results],
                                 first["unit"], None, "not gated")
        summary[workload] = {
            "seeds": [r["seed"] for r in results],
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "operations": [r["operations"] for r in results],
            "correct": all(r["correct"] for r in results),
            "metrics": rows}
    return summary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=".perfbench_runs/steadiness.json")
    parser.add_argument("--baseline", default=None)
    args = parser.parse_args()

    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in range(args.first_seed, args.first_seed + RUNS):
        for workload in workloads:
            result = run_once(spec["command"], workload, seed, seconds)
            result["seed"] = seed
            runs[workload].append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                + f", failed {result['failed']}/{result['attempted']}",
                flush=True)

    summary = summarize(spec, runs)
    baseline = None
    if args.baseline:
        with open(args.baseline) as handle:
            baseline = json.load(handle)["summary"]
    for workload, s in summary.items():
        print(f"\n{workload}: failed/attempted inputs per run "
              + ", ".join(f"{f}/{a}" for f, a in zip(s["failed"],
                                                     s["attempted"]))
              + f"; operations per run {min(s['operations'])}"
              f"-{max(s['operations'])}")
        if baseline and workload in baseline:
            old_runs = baseline[workload]
            before = {seed: (a, f) for seed, a, f in zip(
                old_runs["seeds"], old_runs["attempted"], old_runs["failed"])}
            differ = [seed for seed, a, f in zip(s["seeds"], s["attempted"],
                                                 s["failed"])
                      if seed in before and before[seed] != (a, f)]
            s["failures_differ_from_baseline"] = differ
            print(f"  failures vs baseline: "
                  + (f"DIFFER on seeds {differ}" if differ else "same"))
        for name, r in s["metrics"].items():
            spread = "n/a" if r["spread"] is None else f"{r['spread']:.3f}"
            line = (f"  {name:16s} median {r['median']:.6g} {r['unit']}"
                    f"  q1 {r['q1']:.6g}  q3 {r['q3']:.6g}"
                    f"  spread {spread} / bound {r['bound']}"
                    f"  {r['verdict']}")
            if baseline and workload in baseline and r["bound"]:
                old = baseline[workload]["metrics"][name]["median"]
                metric = next(m for m in spec["end_to_end"]
                              if m["name"] == name)
                worse = worse_by(metric, r["median"], old)
                r["worse_than_baseline"] = worse
                line += (f"  vs baseline {worse:+.3f}"
                         + (" REGRESSED" if worse > r["bound"] else ""))
            print(line)
    with open(args.out, "w") as handle:
        json.dump({"seconds": seconds, "summary": summary}, handle, indent=1)
    print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()
