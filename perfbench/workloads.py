"""The benchmark's workloads: seeded inputs, one operation, its checks.

Every workload runs as a closed loop with one client.  ``make_inputs``
generates the run's fixed list of inputs from the seed, in memory; its
length depends on the workload only, never on the machine's speed, so the
same seed attempts the same inputs on any machine.  ``stage`` turns one input
into the operation's argument, writing any file the program reads into the
operation's directory, before the clock starts.  ``run`` is the timed
operation; ``verify`` runs after the timed phase and returns an ``Outcome``.
An operation fails when it raised, exited non-zero or reported a failed
check (``failures``), or when its output is missing or rejected by the
benchmark's own oracle (``wrong``, a wrong answer the program did not
report).  ``kernel`` names the calibration kernel (see calibrate.py) whose
sensitivity to machine slowdowns is closest to the workload's.
"""

from __future__ import annotations

import contextlib
import glob
import io
import json
import math
import os
import signal
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
OP_TIMEOUT_S = 90
# inputs per run: one pass over them takes about half of a 25 s run
LAB_ALL_OPS = 8
MAXWELL_OPS = 3
STEINER_SETS = 150
VERDICT_INPUTS = 400
ROOT_TOL = 1e-8
# z2_verdict classifies roots at this tolerance; a located double root at 0
# is only resolved to about sqrt(machine epsilon) times the scale
SIGN_FLIP_TOL = 1e-9
STEINER_RATIO = math.sqrt(3.0) / 2.0


@dataclass
class Outcome:
    failures: list[str] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.failures or self.wrong)


def child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("SSB_LAB_OUT", None)
    return env


def spawn(cmd: list[str], env: dict[str, str],
          stderr_path: str) -> tuple[int, float]:
    """Run a child to completion; return its exit code and peak RSS (MB)
    from ``os.wait4``.  A child still running after OP_TIMEOUT_S is killed."""
    with open(stderr_path, "wb") as err:
        child = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                 env=env)
    previous = signal.signal(signal.SIGALRM,
                             lambda *_: os.kill(child.pid, signal.SIGKILL))
    signal.alarm(OP_TIMEOUT_S)
    try:
        _pid, status, usage = os.wait4(child.pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, usage.ru_maxrss / 1024.0


def check_manifest(out_dir: str, subcommand: str, n_checks: int,
                   rc: int, stderr: str = "") -> Outcome:
    """Exit code and manifest of one CLI run.  Failed checks and a crash
    are failures; a missing manifest after exit 0, or one that disagrees
    with the exit code, is a wrong output."""
    outcome = Outcome()
    path = os.path.join(out_dir, f"manifest_{subcommand}.json")
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        message = f"exit {rc}, manifest unreadable: {exc} {stderr}"
        (outcome.failures if rc else outcome.wrong).append(message.strip())
        return outcome
    reports = doc.get("reports", [])
    for r in reports:
        if not r.get("pass"):
            outcome.failures.append(
                f"check={r.get('name')} measured={r.get('measured')!r} "
                f"expected={r.get('expected')!r} "
                f"tolerance={r.get('tolerance')!r}")
    if doc.get("subcommand") != subcommand:
        outcome.wrong.append(f"manifest subcommand {doc.get('subcommand')!r}")
    if len(reports) != n_checks:
        outcome.wrong.append(f"{len(reports)} checks, expected {n_checks}")
    if rc != (1 if outcome.failures else 0):
        outcome.wrong.append(f"exit {rc} with {len(outcome.failures)} "
                             "failed checks")
    missing = [a for a in doc.get("artifacts", [])
               if not os.path.exists(os.path.join(out_dir, a))]
    if missing:
        outcome.wrong.append(f"artifacts not written: {missing}")
    return outcome


class ColdCli:
    """Each operation is a fresh ``python -m ssb_lab <argv> --out <tmp>``
    process, so import cost is paid every time and nothing stays cached."""

    cold = True

    def __init__(self, name: str, argv: list[str], n_checks: int,
                 n_ops: int, kernel: str) -> None:
        self.name = name
        self.argv = argv
        self.n_checks = n_checks
        self.n_ops = n_ops
        self.kernel = kernel
        self.env: dict[str, str] = {}

    def make_inputs(self, seed: int) -> list:
        # the operation takes no generated input: flags only
        return [None] * self.n_ops

    def stage(self, inp, op_dir: str):
        return inp

    def bind(self, root: str) -> None:
        self.env = child_env(root)

    def run(self, inp, op_dir: str, traced: bool) -> tuple[int, float]:
        argv = [*self.argv, "--out", os.path.join(op_dir, "out")]
        if traced:
            cmd = [sys.executable, CHILD, "trace",
                   os.path.join(op_dir, "spans.json"), *argv]
        else:
            cmd = [sys.executable, "-m", "ssb_lab", *argv]
        return spawn(cmd, self.env, os.path.join(op_dir, "stderr.txt"))

    def verify(self, inp, op_dir: str, raw) -> Outcome:
        with open(os.path.join(op_dir, "stderr.txt"), "rb") as handle:
            lines = handle.read().decode(errors="replace").strip()
        return check_manifest(os.path.join(op_dir, "out"), self.argv[0],
                              self.n_checks, raw,
                              lines.splitlines()[-1] if lines else "")


def mst_length(points: np.ndarray) -> float:
    """Prim's algorithm on the complete graph of the terminals."""
    n = len(points)
    best = np.linalg.norm(points - points[0], axis=1)
    done = np.zeros(n, dtype=bool)
    done[0] = True
    total = 0.0
    for _ in range(n - 1):
        j = int(np.argmin(np.where(done, np.inf, best)))
        total += float(best[j])
        done[j] = True
        best = np.minimum(best, np.linalg.norm(points - points[j], axis=1))
    return total


def seg_length(path: str) -> float:
    total = 0.0
    with open(path) as handle:
        for line in handle:
            x1, y1, x2, y2 = map(float, line.split())
            total += math.hypot(x2 - x1, y2 - y1)
    return total


class SteinerRandom:
    """One warm process; each operation is ``cli.main(["steiner",
    "--terminals", FILE, "--out", tmp])`` on a seeded 3- or 4-terminal set."""

    name = "steiner_random"
    cold = False
    kernel = "small_arrays"

    def make_inputs(self, seed: int) -> list[list]:
        rng = np.random.default_rng(seed)
        sets = []
        for i, pts in enumerate(np.round(
                rng.uniform(-1.0, 1.0, size=(STEINER_SETS, 4, 2)), 6)):
            # every fourth set has 3 terminals: a 1:1 mix would put the
            # median between the fast 3-terminal and slow 4-terminal solves
            pts = pts[:3] if i % 4 == 3 else pts
            while len({tuple(p) for p in pts}) < len(pts):
                pts = np.round(rng.uniform(-1.0, 1.0, size=pts.shape), 6)
            sets.append(pts.tolist())
        return sets

    def stage(self, terminals: list, op_dir: str) -> str:
        path = os.path.join(op_dir, "terminals.json")
        with open(path, "w") as handle:
            handle.write(json.dumps(terminals))
        return path

    def bind(self, root: str) -> None:
        import ssb_lab.cli
        self.cli = ssb_lab.cli

    def run(self, path: str, op_dir: str, traced: bool) -> tuple[int, None]:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(["steiner", "--terminals", path,
                                  "--out", op_dir]), None

    def verify(self, terminals: list, op_dir: str, raw) -> Outcome:
        outcome = check_manifest(op_dir, "steiner", 2, raw)
        mst = mst_length(np.array(terminals, dtype=float))
        winners = sorted(glob.glob(os.path.join(op_dir,
                                                "steiner_solution_*.seg")))
        if not winners:
            outcome.wrong.append("no steiner_solution_*.seg written")
        for seg in winners:
            length = seg_length(seg)
            # SMT <= MST, and SMT >= (sqrt 3 / 2) MST for n <= 4
            if not STEINER_RATIO * mst - 1e-9 <= length <= mst + 1e-9:
                outcome.wrong.append(
                    f"check=steiner_ratio measured={length!r} "
                    f"mst={mst!r} tolerance=1e-09")
        return outcome


def even_coefficients(radii: list[float], zero: bool) -> list[float]:
    """Ascending coefficients of x^(2 zero) * prod (x^2 - r^2), built in
    y = x^2 so every odd coefficient is exactly 0."""
    in_y = np.polynomial.polynomial.polyfromroots([r * r for r in radii])
    coeffs = [0.0] * (2 * len(in_y) - 1)
    coeffs[::2] = [float(c) for c in in_y]
    return [0.0, 0.0, *coeffs] if zero else coeffs


class VerdictSweep:
    """One warm process using the library API.  Operations alternate a
    group operation (dihedral group, orbit, classify_ssb) and a polynomial
    operation (real_roots, classify_ssb under the sign flip)."""

    name = "verdict_sweep"
    cold = False
    kernel = "small_arrays"

    def make_inputs(self, seed: int) -> list[tuple]:
        rng = np.random.default_rng(seed)
        inputs: list[tuple] = []
        for i in range(VERDICT_INPUTS):
            if i % 2 == 0:
                k = int(rng.integers(2, 13))
                pts = []
                for _ in range(int(rng.integers(1, 4))):
                    if rng.random() < 0.5:
                        pts.append(np.round(rng.uniform(-1.0, 1.0, 2),
                                            6).tolist())
                    else:  # on a mirror axis: stabilizer of order 2
                        theta = math.pi * int(rng.integers(0, k)) / k
                        r = float(rng.uniform(0.2, 1.0))
                        pts.append([r * math.cos(theta), r * math.sin(theta)])
                if rng.random() < 0.125:  # the centre alone: unbroken
                    pts = [[0.0, 0.0]]
                inputs.append(("group", k, pts))
            else:
                radii: list[float] = []
                n_radii = int(rng.integers(1, 4))
                while len(radii) < n_radii:
                    r = float(rng.uniform(0.1, 2.0))
                    # real_roots merges roots closer than 1e-4
                    if all(abs(r - s) >= 1e-3 for s in radii):
                        radii.append(r)
                zero = bool(rng.random() < 0.5)
                roots = sorted([-r for r in radii] + [*radii]
                               + ([0.0] if zero else []))
                inputs.append(("poly", even_coefficients(radii, zero),
                               roots, zero))
        return inputs

    def stage(self, inp: tuple, op_dir: str) -> tuple:
        return inp

    def bind(self, root: str) -> None:
        import ssb_lab.scalar
        import ssb_lab.symmetry
        self.sym = ssb_lab.symmetry
        self.sc = ssb_lab.scalar

    def run(self, inp: tuple, op_dir: str, traced: bool) -> tuple[tuple, None]:
        sym, sc = self.sym, self.sc
        if inp[0] == "group":
            g = sym.dihedral_group(inp[1])
            images = sym.orbit(g, sym.PointConfig(np.array(inp[2])))
            verdict = sym.classify_ssb(g, images)
            return (g.order, len(images),
                    [w.order for w in verdict.witnesses],
                    verdict.kind.value), None
        p = sc.Polynomial(tuple(inp[1]))
        bound = p.cauchy_root_bound() + 1.0
        roots = [r.location for r in sc.real_roots(p, (-bound, bound))]
        verdict = sym.classify_ssb(
            sym.sign_flip_group(),
            [sym.PointConfig(np.array([[x]])) for x in roots],
            tol=SIGN_FLIP_TOL)
        return (roots, verdict.kind.value), None

    def verify(self, inp: tuple, op_dir: str, raw) -> Outcome:
        outcome = Outcome()
        if inp[0] == "group":
            order, size, witnesses, kind = raw
            for w in witnesses:
                if w * size != order:
                    outcome.wrong.append(
                        f"check=orbit_stabilizer measured={w}*{size} "
                        f"expected={order} tolerance=0")
            expected = "Unbroken" if size == 1 else "NarrowSSB"
        else:
            roots, kind = raw
            known = inp[2]
            err = (max(abs(a - b) for a, b in zip(roots, known))
                   if len(roots) == len(known) else math.inf)
            if not err <= ROOT_TOL:
                outcome.wrong.append(
                    f"check=known_roots measured={roots!r} "
                    f"expected={known!r} tolerance={ROOT_TOL}")
            expected = "GeneralSSB" if inp[3] else "NarrowSSB"
        if kind != expected:
            outcome.wrong.append(f"check=verdict measured={kind} "
                                 f"expected={expected} tolerance=None")
        return outcome


WORKLOADS = {
    "lab_all": ColdCli("lab_all", ["all"], 42, LAB_ALL_OPS, "small_arrays"),
    "maxwell_fine": ColdCli("maxwell_fine", ["maxwell", "--grid", "128"], 5,
                            MAXWELL_OPS, "large_arrays"),
    "steiner_random": SteinerRandom(),
    "verdict_sweep": VerdictSweep(),
}
