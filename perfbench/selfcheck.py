"""Fast self-check of the benchmark itself (a few minutes; not part of the
test suite).

    python3 perfbench/selfcheck.py

From the root of a source checkout it checks that BENCHMARK.json keeps its
format, runs one pass over the inputs of every workload untraced and traced,
checks that each run's last line has exactly the metric names and units of
BENCHMARK.json, and checks that the command refuses to run, without printing
a result, in a directory holding only BENCHMARK.json and the benchmark.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")

problems: list[str] = []


def check(ok: bool, message: str) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {message}")
    if not ok:
        problems.append(message)


def check_spec(spec: dict) -> None:
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "top-level keys")
    check(1 <= len(spec["paths"]) <= 16 and all(
        PATH.match(p) and not p.startswith("/") and ".." not in p
        for p in spec["paths"]), "paths")
    check(len(spec["command"]) <= 32 and all(
        len(c) <= 200 and not c.startswith("/") and ".." not in c
        for c in spec["command"]), "command")
    seconds = spec["run_seconds"]
    check(isinstance(seconds, int) and 1 <= seconds <= 60, "run_seconds")
    workloads = spec["workloads"]
    check(2 <= len(workloads) <= 8 and all(
        set(w) == {"name", "why"} and len(w["why"]) <= 200
        and "\n" not in w["why"] for w in workloads), "workloads")
    e2e, layers = spec["end_to_end"], spec["per_layer"]
    check(1 <= len(e2e) <= 16 and all(
        set(m) == {"name", "unit", "better", "bound"}
        and 0 < m["bound"] <= 0.25 for m in e2e), "end_to_end entries")
    check(any(m["name"] == "setup_s" and m["unit"] == "s"
              and m["better"] == "lower"
              and m["bound"] == max(x["bound"] for x in e2e)
              for m in e2e), "setup_s present with the largest bound")
    check(1 <= len(layers) <= 128 and all(
        set(m) == {"name", "unit", "better"} for m in layers),
          "per_layer entries")
    names = [x["name"] for x in workloads + e2e + layers]
    check(len(names) == len(set(names)) and all(NAME.match(n)
                                                  for n in names),
          "names well formed and unique")
    check(all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
              for m in e2e + layers), "units and directions")
    check(len(json.dumps(spec)) <= 64 * 1024, "size")


def check_run(spec: dict, workload: str, trace: int) -> None:
    done = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180)
    label = f"{workload} trace {trace}"
    if done.returncode != 0:
        check(False, f"{label}: exit {done.returncode}\n{done.stderr}")
        return
    last = json.loads(done.stdout.strip().splitlines()[-1])
    wanted = spec["per_layer" if trace else "end_to_end"]
    check(set(last) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys")
    check(isinstance(last["attempted"], int) and last["attempted"] >= 2
          and isinstance(last["failed"], int), f"{label}: op counts")
    check(last["correct"] is True, f"{label}: outputs correct")
    check({k: v["unit"] for k, v in last["metrics"].items()}
          == {m["name"]: m["unit"] for m in wanted},
          f"{label}: metric names and units match BENCHMARK.json")
    check(all(isinstance(v["value"], (int, float))
              for v in last["metrics"].values()), f"{label}: numeric values")


def check_refuses_bare(spec: dict) -> None:
    os.makedirs(".perfbench_runs", exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=".perfbench_runs")
    try:
        shutil.copy("BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(path, os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [*spec["command"], "--workload", spec["workloads"][0]["name"],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        check(done.returncode != 0 and '"metrics"' not in done.stdout,
              "refuses to run without the program's sources")
    finally:
        shutil.rmtree(bare)


def main() -> None:
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    check_spec(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
    check_refuses_bare(spec)
    print(f"{len(problems)} problem(s)")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
