"""Layer timings of ssb_lab, in process and cold, one tree against another.

    python3 tools/layers.py --against PATH [--json]

Run from the root of a source checkout.  PATH is the root of another
checkout, such as a copy of the parent commit.  Each round runs one fresh
subprocess per tree, both from this file, so both trees are measured by the
same code; which tree goes first alternates from round to round.  Each
subprocess pins itself to the highest CPU it may use, imports ``ssb_lab``
from its tree's ``src/``, builds the seeded inputs, and times every layer
over them: one untimed warm-up pass, then the fastest of REPEATS timed
passes, as other load on the machine only adds time.  The report gives, per layer, the
median and quartiles of the rounds' microseconds per call on each side and
the change/parent ratio of the medians, next to work counters taken in an
untimed pass: evaluations of ``Polynomial.__call__`` per call, the points
``symmetry._check_points`` validates per call, and the images matched and
match tensors built per call.

The inputs are those of the ``verdict_sweep`` workload of perfbench at
seed SEED, taken from ``perfbench/workloads.py`` of the tree that runs this
file: its even polynomials, and its dihedral groups with the points they act
on.  ``point_config`` builds a ``PointConfig`` of each group input's points
and of each root of the polynomials, one point on the line; ``sign_flip``
is the polynomial operation's symmetry half, which builds those one-point
configs from one polynomial's roots and classifies them under the sign
flip.

The cold layers are fresh interpreters, timed from start to exit (a call
is one run), one run of each per round, pinned to that CPU and in the same
alternating order: ``import_cli`` runs ``python -c "import ssb_lab.cli"``,
and each default subcommand ``python -m ssb_lab SUB --out TMP``.  They
inherit the environment, so whether sources are compiled on every start
depends on PYTHONDONTWRITEBYTECODE there.  Their counter, taken in an
untimed run with an ``exec`` audit hook, is the number of ``ssb_lab``
files the interpreter runs.  Each side runs ROUNDS rounds.  Next to the
timings, the report gives each tree's ``src/`` and ``tests/`` line counts.
Without ``--against`` the current tree is measured alone.  Nothing here is
a gate.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYERS = ("real_roots", "critical_points", "dihedral_group", "point_config",
          "stabilizer", "orbit", "classify_ssb", "sign_flip")
ROUNDS = 10     # fresh subprocesses per side
SEED = 1        # of the verdict_sweep inputs
REPEATS = 5     # timed passes over the inputs per layer
_PARTS = ("src", "tests")  # the folders whose line counts are reported
# the cold layers, each a python command line; --out TMP is added to the
# subcommands
COLD = {"import_cli": ["-c", "import ssb_lab.cli"],
        **{sub: ["-m", "ssb_lab", sub] for sub in
           ("steiner", "scalar", "ode", "maxwell", "potential", "classify",
            "all")}}
# ``python -c _AUDITED LOG ARGS...`` runs ``python ARGS...`` for ARGS
# ``-c CODE`` or ``-m MODULE ...`` and writes the names of the ssb_lab files
# it runs, in the order they run, to LOG
_AUDITED = """\
import atexit, os, runpy, sys
log, flag, target = sys.argv[1:4]
sys.argv[1:4] = []
ran = []
def record(event, args):
    path = getattr(args[0], "co_filename", "") if event == "exec" else ""
    if os.path.basename(os.path.dirname(path)) == "ssb_lab":
        ran.append(os.path.basename(path)[:-3])
sys.addaudithook(record)
atexit.register(lambda: open(log, "w").write(" ".join(ran)))
if flag == "-c":
    exec(target, {"__name__": "__main__"})
else:
    runpy.run_module(target, run_name="__main__", alter_sys=True)
"""


def _inputs(n: int | None) -> tuple[list, list, float]:
    """The first n (all, for None) polynomial coefficient lists and
    (k, points) group inputs of verdict_sweep at SEED, and the tolerance
    it classifies roots under the sign flip with."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import SIGN_FLIP_TOL, VerdictSweep
    inputs = VerdictSweep().make_inputs(SEED)
    polys = [inp[1] for inp in inputs if inp[0] == "poly"]
    groups = [(inp[1], inp[2]) for inp in inputs if inp[0] == "group"]
    return polys[:n], groups[:n], SIGN_FLIP_TOL


def _calls(n: int | None) -> dict:
    """Per layer, the list of zero-argument calls that make up one pass."""
    from ssb_lab import scalar as sc
    from ssb_lab import symmetry as sym
    polys, group_inputs, sign_flip_tol = _inputs(n)
    ps = [sc.Polynomial(tuple(c)) for c in polys]
    brackets = [(-b, b) for b in (p.cauchy_root_bound() + 1.0 for p in ps)]
    roots = [[r.location for r in sc.real_roots(p, b)]
             for p, b in zip(ps, brackets)]
    groups = [sym.dihedral_group(k) for k, _ in group_inputs]
    configs = [sym.PointConfig(np.array(pts)) for _, pts in group_inputs]
    orbits = [sym.orbit(g, c) for g, c in zip(groups, configs)]
    # each group input's points, then each root as a point on the line
    point_sets = ([pts for _, pts in group_inputs]
                  + [[[x]] for xs in roots for x in xs])

    def bind(f, *args):
        return lambda: f(*args)

    def sign_flip(xs):
        return sym.classify_ssb(
            sym.sign_flip_group(),
            [sym.PointConfig(np.array([[x]])) for x in xs], tol=sign_flip_tol)

    return {
        "real_roots": [bind(sc.real_roots, p, b)
                       for p, b in zip(ps, brackets)],
        "critical_points": [bind(sc.critical_points, p) for p in ps],
        "dihedral_group": [bind(sym.dihedral_group, k)
                           for k, _ in group_inputs],
        "point_config": [bind(sym.PointConfig, np.array(pts))
                         for pts in point_sets],
        "stabilizer": [bind(sym.stabilizer, g, c)
                       for g, c in zip(groups, configs)],
        "orbit": [bind(sym.orbit, g, c) for g, c in zip(groups, configs)],
        "classify_ssb": [bind(sym.classify_ssb, g, images)
                         for g, images in zip(groups, orbits)],
        "sign_flip": [bind(sign_flip, xs) for xs in roots],
    }


def _counters(calls: list) -> dict:
    """Work per call of one pass: Polynomial evaluations, the points
    validated by ``symmetry._check_points`` (a tree without it counts none),
    and the images matched and match tensors built by
    ``symmetry._match_points``."""
    from ssb_lab import scalar as sc
    from ssb_lab import symmetry as sym
    counts = {"evaluations": 0, "validated_points": 0, "matched_images": 0,
              "match_tensors": 0}
    horner, match = sc.Polynomial.__call__, sym._match_points
    check = getattr(sym, "_check_points", None)

    def evaluate(self, x):
        counts["evaluations"] += 1
        return horner(self, x)

    def validated(stack):
        counts["validated_points"] += math.prod(stack.shape[:-1])
        return check(stack)

    def matched(src, *args, **kwargs):
        counts["matched_images"] += math.prod(src.shape[:-2])
        counts["match_tensors"] += 1
        return match(src, *args, **kwargs)

    sc.Polynomial.__call__, sym._match_points = evaluate, matched
    if check is not None:
        sym._check_points = validated
    try:
        for call in calls:
            call()
    finally:
        sc.Polynomial.__call__, sym._match_points = horner, match
        if check is not None:
            sym._check_points = check
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


def _one_cpu() -> None:
    """Pin the calling process to the highest CPU it may use.  perfbench
    pins itself to the lowest; on a shared 2-CPU host, A/A runs (a tree
    against a copy of itself) pinned to the highest read steadier."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _env(tree: str) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))


def _child(tree: str) -> dict:
    done = subprocess.run([sys.executable, os.path.abspath(__file__),
                           "--child"], env=_env(tree), capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout)


def files_run(tree: str, args: list[str]) -> tuple[list[str], int]:
    """The ssb_lab files (module names, in the order they run) that
    ``python ARGS`` runs with ``tree``'s sources, and its exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        log = os.path.join(tmp, "ran")
        done = subprocess.run([sys.executable, "-c", _AUDITED, log, *args],
                              env=_env(tree), capture_output=True)
        with open(log) as handle:
            return handle.read().split(), done.returncode


def cold(tree: str, names=tuple(COLD)) -> dict:
    """Microseconds of one run of each cold layer in ``names`` with
    ``tree``'s sources, and the number of ssb_lab files it runs."""
    out = {}
    for layer in names:
        with tempfile.TemporaryDirectory() as tmp:
            args = COLD[layer] + (["--out", tmp] if COLD[layer][0] == "-m"
                                  else [])
            start = time.perf_counter()
            subprocess.run([sys.executable, *args], env=_env(tree),
                           capture_output=True, preexec_fn=_one_cpu)
            elapsed = time.perf_counter() - start
            files, _ = files_run(tree, args)
        out[layer] = {"us_per_call": elapsed * 1e6, "files_run": len(files)}
    return out


def line_count(tree: str, part: str) -> int:
    """The number of lines of the Python files under ``tree``'s ``part``,
    such as src/ or tests/."""
    total = 0
    for folder, _, names in os.walk(os.path.join(tree, part)):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(folder, name)) as handle:
                    total += sum(1 for _ in handle)
    return total


def _quartiles(xs: list[float]) -> dict:
    q1, median, q3 = np.percentile(xs, [25, 50, 75])
    return {"q1": float(q1), "median": float(median), "q3": float(q3)}


def compare(runs: dict[str, list[dict]], sides: dict[str, str]) -> dict:
    """Per layer and side, the quartiles of the rounds' us per call and the
    first round's counters, and under "src_lines" and "tests_lines" each
    side's src/ and tests/ line counts (sides maps each side to its tree);
    with two sides, the change/parent ratio."""
    report = {}
    for layer in next(iter(runs.values()))[0]:
        row = {}
        for side, results in runs.items():
            times = [r[layer]["us_per_call"] for r in results]
            counters = {k: v for k, v in results[0][layer].items()
                        if k != "us_per_call"}
            row[side] = {**_quartiles(times), "rounds": times, **counters}
        if "parent" in row:
            row["ratio"] = row["change"]["median"] / row["parent"]["median"]
        report[layer] = row
    for part in _PARTS:
        report[f"{part}_lines"] = {side: line_count(tree, part)
                                   for side, tree in sides.items()}
    return report


def format_report(report: dict) -> str:
    lines = [f"{'layer':16} {'side':7} {'q1':>9} {'median':>9} {'q3':>9}  "
             "counters per call"]
    for layer, row in report.items():
        if layer.endswith("_lines"):
            lines.append(f"{layer.removesuffix('_lines')}/ lines: " + ", ".join(
                f"{side} {row[side]}" for side in ("parent", "change")
                if side in row))
            continue
        for side in ("parent", "change"):
            if side not in row:
                continue
            r = row[side]
            counters = ", ".join(f"{k} {r[k]:g}" for k in
                                 ("evaluations", "validated_points",
                                  "matched_images", "match_tensors",
                                  "files_run") if k in r)
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
        _one_cpu()
        print(json.dumps(measure()))
        return 0
    sides = {"change": ROOT}
    if args.against:
        sides["parent"] = os.path.abspath(args.against)
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    for i in range(ROUNDS):
        order = list(sides) if i % 2 == 0 else list(reversed(sides))
        for side in order:
            runs[side].append({**_child(sides[side]), **cold(sides[side])})
    report = compare(runs, sides)
    print(json.dumps(report) if args.json else format_report(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
