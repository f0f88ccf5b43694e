"""Acceptance suite: every check of ``ssb-lab all`` passes with the expected
value and tolerance pinned below, one PASS/FAIL line per check (run with -s
to watch).

``cli.py`` states how each claim is measured; this file pins what it must
be compared against, independently.  Loosening a pin is a contract change.
"""

from __future__ import annotations

import json
import math
import os
import time

import pytest

from ssb_lab import steiner as st
from ssb_lab.cli import main, run_subcommand

FOUR_PI = 4.0 * math.pi
TWO_PI_SQ = 2.0 * math.pi ** 2

# check name -> (expected, tolerance); None marks an equality check
PINS = {
    "steiner.fermat_condition": (True, None),
    "steiner.solution_count": (2, None),
    "steiner.best_length": (1.0 + math.sqrt(3.0), 1e-9),
    "steiner.x_guess_length": (math.sqrt(8.0), 1e-12),
    "steiner.stabilizer_orders": ([4, 4], None),
    "steiner.quarter_turn_swaps_solutions": (True, None),
    "scalar.square_roots": (0.0, 1e-10),
    "scalar.quartic_roots": (0.0, 1e-10),
    "scalar.quartic_root_multiplicity": ([1, 2, 1], None),
    "scalar.quartic_minima": (0.0, 1e-10),
    "scalar.quartic_minimum_value": (0.0, 1e-12),
    "scalar.verdict.square_roots": ("NarrowSSB", None),
    "scalar.verdict.quartic_roots": ("GeneralSSB", None),
    "scalar.symmetric_witness": (0.0, 1e-9),
    "scalar.verdict.quartic_minima": ("NarrowSSB", None),
    "ode.composition_law": (0.0, 1e-12),
    "ode.doubling_shift": (2.0, 1e-12),
    "ode.unique_fixed_point": ([0.0], None),
    "ode.vacuum_flag": (True, None),
    "maxwell.divergence_convergence": (4.0, 0.6),
    "maxwell.evolution_convergence": (4.0, 0.6),
    "maxwell.residuals_decrease": (True, None),
    "maxwell.rescaling_linearity": (0.0, 1e-12),
    "maxwell.vacuum_residual": (0.0, 0.0),
    "potential.sphere_area_3d": (FOUR_PI, 1e-13 * FOUR_PI),
    "potential.sphere_area_4d": (TWO_PI_SQ, 1e-13 * TWO_PI_SQ),
    "potential.scaling_identity": (0.0, 1e-12),
    "potential.log_anomaly": (0.0, 1e-13),
    "potential.gauge_shift": (-math.log(2.0) / (2.0 * math.pi), 1e-13),
    "potential.reference_moves": (0.5, 5e-14),
    "potential.field_scaling": (0.0, 1e-13),
    "potential.flux_2d": (0.0, 1e-9),
    "potential.flux_3d": (0.0, 1e-6),
    "potential.flux_identity": (0.0, 1e-13),
    "potential.laplacian_convergence": (0.0, 0.5),
    "potential.laplacian_residual_small": (0.0, 1e-4),
    "classify.steiner_square": ("NarrowSSB", None),
    "classify.steiner_square_witnesses": ([4, 4], None),
    "classify.square_itself": ("Unbroken", None),
    "classify.square_roots": ("NarrowSSB", None),
    "classify.quartic_roots": ("GeneralSSB", None),
    "classify.quartic_minima": ("NarrowSSB", None),
}


def _criterion(label: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"{label}: {detail}" if detail else label


def _meets_pin(report) -> bool:
    return (report.passed
            and (report.expected, report.tolerance) == PINS[report.name])


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    manifest = run_subcommand("all", {}, str(tmp_path_factory.mktemp("all")))
    return manifest.reports


def test_all_runs_exactly_the_pinned_checks(reports):
    assert [r.name for r in reports] == list(PINS)


@pytest.mark.parametrize("name", PINS)
def test_claim(reports, name):
    report = next((r for r in reports if r.name == name), None)
    _criterion(name, report is not None and _meets_pin(report), repr(report))


def test_maxwell_residuals(tmp_path):
    reports = run_subcommand("maxwell", {"grid": 64}, str(tmp_path)).reports
    failed = [r for r in reports if not _meets_pin(r)]
    _criterion("maxwell on grids 16, 32, 64: residuals drop by 4 from 32 to "
               "64, scale linearly under complex factors, vanish on the "
               "vacuum", not failed, repr(failed))


def test_two_dimensional_anomaly(tmp_path):
    reports = run_subcommand("potential", {"q": 3.0}, str(tmp_path)).reports
    anomaly = next(r for r in reports if r.name == "potential.log_anomaly")
    # the tolerance grows with |q|, but the error stays within the q = 1 pin
    expected, tolerance = PINS[anomaly.name]
    ok = (anomaly.passed and anomaly.expected == expected
          and anomaly.tolerance == tolerance * 3.0
          and anomaly.measured <= tolerance)
    _criterion("2d log potential with q = 3: rescaling shifts by "
               "-(q/2 pi) ln lambda", ok, repr(anomaly))


def test_square_steiner_networks():
    t0 = time.monotonic()
    winners = st.select_minima(st.optimize_all(st.square_terminals()))
    lengths = [n.total_length for n in winners]
    elapsed = time.monotonic() - t0
    ok = (len(lengths) == 2 and elapsed < 1.0
          and all(abs(x - (1.0 + math.sqrt(3.0))) <= 1e-9 for x in lengths))
    _criterion("square Steiner pair: both of length 1+sqrt(3), under 1s",
               ok, f"lengths {lengths}, took {elapsed:.2f}s")


def test_command_line_contract(tmp_path):
    problems = []
    t0 = time.monotonic()
    code = main(["all", "--out", str(tmp_path / "a")])
    elapsed = time.monotonic() - t0
    if code != 0:
        problems.append(f"all exited {code}")
    if elapsed >= 30.0:
        problems.append(f"all took {elapsed:.1f}s")
    if main(["all", "--out", str(tmp_path / "b")]) != 0:
        problems.append("second run failed")
    else:
        with open(tmp_path / "a" / "manifest_all.json") as fa, \
                open(tmp_path / "b" / "manifest_all.json") as fb:
            man_a, man_b = json.load(fa), json.load(fb)
        man_a.pop("generated_at")
        man_b.pop("generated_at")
        if man_a != man_b:
            problems.append("manifests differ between reruns")
        listed = set(man_a["artifacts"])
        for name in sorted(listed):
            if (tmp_path / "a" / name).read_bytes() \
                    != (tmp_path / "b" / name).read_bytes():
                problems.append(f"{name} differs between reruns")
        for run in ("a", "b"):
            if set(os.listdir(tmp_path / run)) != listed | {
                    "manifest_all.json"}:
                problems.append(f"run {run} wrote files its manifest does "
                                "not list, or missed some")
    if main(["maxwell", "--grid", "8", "--out", str(tmp_path / "c")]) != 1:
        problems.append("failing checks did not exit 1")
    if not (tmp_path / "c" / "manifest_maxwell.json").exists():
        problems.append("failing run wrote no manifest")
    try:
        main(["not-a-subcommand"])
        problems.append("usage error did not raise")
    except SystemExit as exc:
        if exc.code != 2:
            problems.append(f"usage error exited {exc.code}")
    _criterion("ssb-lab all finishes under 30s, reruns byte-identically "
               "(manifest apart from generated_at, data files and directory "
               "listing), and exit codes follow pass=0 fail=1 usage=2",
               not problems, "; ".join(problems))
