"""In-process layer timings of ssb_lab, one tree against another.

    python3 tools/layers.py --against PATH [--json]

Run from the root of a source checkout.  PATH is the root of another
checkout, such as a copy of the parent commit.  Each round runs one fresh
subprocess per tree, both from this file, so both trees are measured by the
same code; which tree goes first alternates from round to round.  Each
subprocess pins itself to one CPU, imports ``ssb_lab`` from its tree's
``src/``, builds the seeded inputs, and times every layer over them: one
untimed warm-up pass, then the fastest of REPEATS timed passes, as other
load on the machine only adds time.  The report gives, per layer, the
median and quartiles of the rounds' microseconds per call on each side and
the change/parent ratio of the medians, next to work counters taken in an
untimed pass: evaluations of ``Polynomial.__call__`` per call, and the
images matched and match tensors built per call.

The inputs are those of the ``verdict_sweep`` workload of perfbench at
seed SEED, taken from ``perfbench/workloads.py`` of the tree that runs this
file: its even polynomials, and its dihedral groups with the points they act
on.  Each side runs ROUNDS rounds.  Without ``--against`` the current tree
is measured alone.  Nothing here is a gate.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYERS = ("real_roots", "critical_points", "dihedral_group", "stabilizer",
          "orbit", "classify_ssb")
ROUNDS = 10     # fresh subprocesses per side
SEED = 1        # of the verdict_sweep inputs
REPEATS = 5     # timed passes over the inputs per layer


def _inputs(n: int | None) -> tuple[list, list]:
    """The first n (all, for None) polynomial coefficient lists and
    (k, points) group inputs of verdict_sweep at SEED."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import VerdictSweep
    inputs = VerdictSweep().make_inputs(SEED)
    polys = [inp[1] for inp in inputs if inp[0] == "poly"]
    groups = [(inp[1], inp[2]) for inp in inputs if inp[0] == "group"]
    return polys[:n], groups[:n]


def _calls(n: int | None) -> dict:
    """Per layer, the list of zero-argument calls that make up one pass."""
    from ssb_lab import scalar as sc
    from ssb_lab import symmetry as sym
    polys, group_inputs = _inputs(n)
    ps = [sc.Polynomial(tuple(c)) for c in polys]
    brackets = [(-b, b) for b in (p.cauchy_root_bound() + 1.0 for p in ps)]
    groups = [sym.dihedral_group(k) for k, _ in group_inputs]
    configs = [sym.PointConfig(np.array(pts)) for _, pts in group_inputs]
    orbits = [sym.orbit(g, c) for g, c in zip(groups, configs)]

    def bind(f, *args):
        return lambda: f(*args)

    return {
        "real_roots": [bind(sc.real_roots, p, b)
                       for p, b in zip(ps, brackets)],
        "critical_points": [bind(sc.critical_points, p) for p in ps],
        "dihedral_group": [bind(sym.dihedral_group, k)
                           for k, _ in group_inputs],
        "stabilizer": [bind(sym.stabilizer, g, c)
                       for g, c in zip(groups, configs)],
        "orbit": [bind(sym.orbit, g, c) for g, c in zip(groups, configs)],
        "classify_ssb": [bind(sym.classify_ssb, g, images)
                         for g, images in zip(groups, orbits)],
    }


def _counters(calls: list) -> dict:
    """Work per call of one pass: Polynomial evaluations, and the images
    matched and match tensors built by ``symmetry._match_points``."""
    from ssb_lab import scalar as sc
    from ssb_lab import symmetry as sym
    counts = {"evaluations": 0, "matched_images": 0, "match_tensors": 0}
    horner, match = sc.Polynomial.__call__, sym._match_points

    def evaluate(self, x):
        counts["evaluations"] += 1
        return horner(self, x)

    def matched(src, *args, **kwargs):
        counts["matched_images"] += math.prod(src.shape[:-2])
        counts["match_tensors"] += 1
        return match(src, *args, **kwargs)

    sc.Polynomial.__call__, sym._match_points = evaluate, matched
    try:
        for call in calls:
            call()
    finally:
        sc.Polynomial.__call__, sym._match_points = horner, match
    return {name: value / len(calls) for name, value in counts.items()
            if value}


def measure(n: int | None = None, repeats: int = REPEATS) -> dict:
    """Microseconds per call of each layer over the first n inputs of each
    kind (the fastest of ``repeats`` timed passes) and its work counters,
    for the ssb_lab that is imported."""
    out = {}
    for layer, calls in _calls(n).items():
        for call in calls:  # warm-up
            call()
        passes = []
        for _ in range(repeats):
            start = time.perf_counter()
            for call in calls:
                call()
            passes.append(time.perf_counter() - start)
        out[layer] = {"us_per_call": min(passes) / len(calls) * 1e6,
                      **_counters(calls)}
    return out


def _child(tree: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    done = subprocess.run([sys.executable, os.path.abspath(__file__),
                           "--child"],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def _quartiles(xs: list[float]) -> dict:
    q1, median, q3 = np.percentile(xs, [25, 50, 75])
    return {"q1": float(q1), "median": float(median), "q3": float(q3)}


def compare(runs: dict[str, list[dict]]) -> dict:
    """Per layer and side, the quartiles of the rounds' us per call and the
    first round's counters; with two sides, the change/parent ratio."""
    report = {}
    for layer in LAYERS:
        row = {}
        for side, results in runs.items():
            times = [r[layer]["us_per_call"] for r in results]
            counters = {k: v for k, v in results[0][layer].items()
                        if k != "us_per_call"}
            row[side] = {**_quartiles(times), "rounds": times, **counters}
        if "parent" in row:
            row["ratio"] = row["change"]["median"] / row["parent"]["median"]
        report[layer] = row
    return report


def format_report(report: dict) -> str:
    lines = [f"{'layer':16} {'side':7} {'q1':>9} {'median':>9} {'q3':>9}  "
             "counters per call"]
    for layer, row in report.items():
        for side in ("parent", "change"):
            if side not in row:
                continue
            r = row[side]
            counters = ", ".join(f"{k} {r[k]:g}" for k in
                                 ("evaluations", "matched_images",
                                  "match_tensors") if k in r)
            lines.append(f"{layer:16} {side:7} {r['q1']:9.1f} "
                         f"{r['median']:9.1f} {r['q3']:9.1f}  {counters}")
        if "ratio" in row:
            lines.append(f"{layer:16} ratio   {row['ratio']:9.3f}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", help="root of the parent checkout")
    parser.add_argument("--json", action="store_true",
                        help="print the report as one JSON object")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        print(json.dumps(measure()))
        return 0
    sides = {"change": ROOT}
    if args.against:
        sides["parent"] = os.path.abspath(args.against)
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    for i in range(ROUNDS):
        order = list(sides) if i % 2 == 0 else list(reversed(sides))
        for side in order:
            runs[side].append(_child(sides[side]))
    report = compare(runs)
    print(json.dumps(report) if args.json else format_report(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
