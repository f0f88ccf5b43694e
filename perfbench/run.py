"""ssb-lab benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads, metric names, units and bounds are those of
``BENCHMARK.json``.  With ``--trace 0`` the run is timed with no
instrumentation and reports the end-to-end metrics.  With ``--trace 1`` it
alternates an untraced and a traced operation on the same input and reports
the per-layer metrics of the traced ones, plus the tracing overhead.

Each run first measures set-up: SETUP_PROBES fresh interpreters each import
``ssb_lab.cli`` and generate the workload's inputs from the seed, each right
after a reference interpreter that imports only numpy. ``setup_s`` is the
median ratio of the two, in seconds of a machine whose reference start takes
REF_START_S. Then it runs operations back to back (closed loop, one client,
at most one child process at a time, all on one CPU) over the seed's fixed
list of inputs, cycling through it, until ``--seconds`` have passed and
every input has run at least once. In an untraced run each operation is
followed by calibration kernels (calibrate.py) that turn its latency into
kernel units. Only afterwards does it check every operation's output.
``attempted`` is the number of inputs and ``failed`` the number of inputs
with a failing operation, so both depend on the seed only, not on how many
operations the machine managed in the time. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. The full result, with the environment, the failing checks and
every computed metric, is written to ``.perfbench_runs/`` and the spans of a
traced run next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from calibrate import Calibrator
from workloads import WORKLOADS, CHILD, Outcome, child_env

SETUP_PROBES = 9
# a bare ``python3 -c "import numpy"`` start, in seconds, on the host the
# bounds were set on (see README.md); setup_s is scaled to it
REF_START_S = 0.12
RUNS_DIR = ".perfbench_runs"
SAMPLE_FLOOR_P90 = 100  # p90 needs at least 10 samples beyond it


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec(root: str) -> dict:
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def import_program(root: str) -> None:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ssb_lab", "cli.py")):
        fail(f"no ssb_lab sources under {src}; run from a source checkout")
    sys.path.insert(0, src)
    import ssb_lab.cli
    if not os.path.abspath(ssb_lab.cli.__file__).startswith(src + os.sep):
        fail(f"imported ssb_lab from {ssb_lab.cli.__file__}, not {src}")


def ready_after(args: list[str], env: dict[str, str]) -> float:
    """Wall seconds from spawning ``child.py ARGS`` until it reports ready."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run([sys.executable, CHILD, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        fail(f"set-up probe {args[0]} failed:\n{done.stderr}")
    return float(done.stdout.split()[-1]) - start


def measure_setup(root: str, workload: str,
                  seed: int) -> tuple[list[float], list[float]]:
    """Wall seconds from spawning a fresh interpreter until it is ready for
    its first operation, and the same for the reference start right before
    it, once per probe.  A slow spell of the machine stretches both."""
    env = child_env(root)
    times, refs = [], []
    for _ in range(SETUP_PROBES):
        refs.append(ready_after(["ref"], env))
        times.append(ready_after(["setup", workload, str(seed)], env))
    return times, refs


def environment(root: str) -> dict:
    """Recorded with every result, never gated."""
    import numpy

    def read(path: str) -> str | None:
        try:
            with open(path) as handle:
                return handle.read().strip()
        except OSError:
            return None

    cpu = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    llc = None
    cache = "/sys/devices/system/cpu/cpu0/cache"
    levels = []
    for entry in sorted(os.listdir(cache)) if os.path.isdir(cache) else []:
        level = read(os.path.join(cache, entry, "level"))
        if level is not None:
            levels.append((int(level), read(os.path.join(cache, entry,
                                                          "size"))))
    if levels:
        llc = max(levels)[1]
    commit = None
    if shutil.which("git") and os.path.isdir(os.path.join(root, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    src_lines = 0
    for dirpath, _dirs, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as handle:
                    src_lines += handle.read().count(b"\n")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "llc_size": llc,
        "git_commit": commit,
        "src_py_lines": src_lines,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    # one CPU for this process, its children and the calibration kernel, so
    # that a kernel time and the operation it normalizes share a CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    spec = load_spec(root)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {names}")
    import_program(root)
    workload = WORKLOADS[args.workload]

    runs_dir = os.path.join(root, RUNS_DIR)
    os.makedirs(runs_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs_dir)
    try:
        result = measure(root, workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    gated = {}
    for m in wanted:
        if m["name"] not in result["metrics"]:
            fail(f"metric {m['name']} was not measured")
        gated[m["name"]] = {"value": result["metrics"][m["name"]][0],
                            "unit": m["unit"]}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans")
    if spans is not None:
        with open(os.path.join(runs_dir, f"{stem}.spans.json"), "w") as h:
            json.dump(spans, h)
    with open(os.path.join(runs_dir, f"{stem}.json"), "w") as handle:
        json.dump(result, handle, indent=1)

    for line in result["failing"]:
        print(line)
    for name, (value, unit, n) in result["metrics"].items():
        unit = gated[name]["unit"] if name in gated else unit
        note = "" if name in gated else ", not in BENCHMARK.json"
        print(f"{args.workload} {name} = {value!r} {unit} (n={n}{note})")
    print(f"environment {json.dumps(result['environment'])}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": gated}))


def measure(root: str, workload, args, work: str) -> dict:
    setup, refs = measure_setup(root, args.workload, args.seed)
    inputs = workload.make_inputs(args.seed)
    workload.bind(root)

    tracer = calibrator = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.prepare()
    else:
        calibrator = Calibrator(workload.kernel)

    ops = []  # (input index, op dir, traced, seconds, rss MB, raw or error)
    # a traced run repeats each input untraced, then traced
    one_pass = len(inputs) * (2 if tracer else 1)
    clock = time.perf_counter
    start = clock()
    while len(ops) < one_pass or clock() - start < args.seconds:
        index = (len(ops) // 2 if tracer else len(ops)) % len(inputs)
        traced = tracer is not None and len(ops) % 2 == 1
        op_dir = os.path.join(work, f"op{len(ops)}")
        os.makedirs(op_dir)
        arg = workload.stage(inputs[index], op_dir)
        if traced and not workload.cold:
            tracer.op = len(ops)
            tracer.install()
        t0 = clock()
        try:
            raw, rss = workload.run(arg, op_dir, traced)
        except Exception as exc:  # a raising operation is a failed one
            raw, rss = exc, None
        t1 = clock()
        if traced and not workload.cold:
            tracer.uninstall()
        ops.append((index, op_dir, traced, t1 - t0, rss, raw))
        if calibrator:
            calibrator.after_op(t1 - t0)
    elapsed = clock() - start

    failing = []
    failed_inputs = set()
    unchecked = 0
    for op, (index, op_dir, traced, _secs, _rss, raw) in enumerate(ops):
        if isinstance(raw, Exception):
            outcome = Outcome(failures=[f"raised {raw!r}"])
        else:
            try:
                outcome = workload.verify(inputs[index], op_dir, raw)
            except Exception as exc:  # the check itself broke
                unchecked += 1
                outcome = Outcome(wrong=[f"could not be checked: {exc!r}"])
        if traced and workload.cold:
            spans_path = os.path.join(op_dir, "spans.json")
            if os.path.exists(spans_path):
                with open(spans_path) as handle:
                    doc = json.load(handle)
                tracer.absorb(doc["spans"], doc["counts"], op)
        if outcome.failed:
            failed_inputs.add(index)
            failing += [f"FAIL op={op} input={index} {m}"
                        for m in outcome.failures]
            failing += [f"WRONG op={op} input={index} {m}"
                        for m in outcome.wrong]
        shutil.rmtree(op_dir)

    n = len(ops)
    latencies = [o[3] for o in ops]
    metrics: dict[str, tuple[float, str, int]] = {}
    if calibrator:
        rss = ([o[4] for o in ops if o[4] is not None] if workload.cold else
               [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0])
        kernel = calibrator.samples()
        normalized = calibrator.normalized(latencies)
        # each input once: its latency is the median of its operations, so
        # inputs the loop reached once more than others weigh no more
        per_input = [statistics.median(normalized[i::len(inputs)])
                     for i in range(len(inputs))]
        metrics.update(
            latency_p50_norm=(statistics.median(per_input), "kernel",
                              len(inputs)),
            peak_rss_mb=(statistics.median(rss), "MB", len(rss)),
            setup_s=(REF_START_S * statistics.median(
                t / r for t, r in zip(setup, refs)), "s", len(setup)),
            setup_wall_s=(statistics.median(setup), "s", len(setup)),
            ref_start_s=(statistics.median(refs), "s", len(refs)),
            latency_p50_ms=(statistics.median(latencies) * 1e3, "ms", n),
            # calibration time is not operation time
            ops_per_s=(n / (elapsed - sum(kernel)), "1/s", n),
            kernel_ms=(statistics.median(kernel) * 1e3, "ms", len(kernel)))
        if n >= SAMPLE_FLOOR_P90:
            metrics["latency_p90_ms"] = (statistics.quantiles(
                latencies, n=10)[8] * 1e3, "ms", n)
    else:
        from tracing import layer_metrics
        traced = [o[3] for o in ops if o[2]]
        plain = [o[3] for o in ops if not o[2]]
        for name, value in layer_metrics(tracer, len(traced)).items():
            metrics[name] = (value, "", len(traced))
        metrics["trace.overhead_ms"] = (
            (statistics.median(traced) - statistics.median(plain)) * 1e3,
            "ms", len(traced))
    metrics["failed_frac"] = (len(failed_inputs) / len(inputs), "fraction",
                              len(inputs))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": unchecked == 0,
        "attempted": len(inputs),
        "failed": len(failed_inputs),
        "operations": n,
        "elapsed_s": elapsed,
        "setup_samples_s": setup,
        "ref_start_samples_s": refs,
        "latencies_s": latencies,
        "latencies_kernel": normalized if calibrator else None,
        "metrics": metrics,
        "failing": failing,
        "environment": environment(root),
        "spans": tracer.spans if tracer else None,
        "counts": dict(tracer.counts) if tracer else None,
    }


if __name__ == "__main__":
    main()
