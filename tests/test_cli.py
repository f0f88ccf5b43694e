"""The ssb-lab command: exit codes, manifests, determinism, config layering."""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp

import ssb_lab
from ssb_lab import cli, scalar, steiner, symmetry
from ssb_lab import maxwell as mx
from ssb_lab.cli import main, resolve_config, run_subcommand
from ssb_lab.report import (CheckReport, RunManifest, make_check,
                            manifest_json, write_csv, write_segments)


def _read_manifest(path):
    with open(path) as handle:
        return json.load(handle)


def _report_by_name(manifest, name):
    for report in manifest["reports"]:
        if report["name"] == name:
            return report
    raise KeyError(name)


# ---------------------------------------------------------------------------
# report primitives
# ---------------------------------------------------------------------------

def test_make_check_with_tolerance():
    check = make_check("x", "a", 1.0000001, 1.0, tolerance=1e-3)
    assert check.passed
    assert not make_check("x", "a", 1.1, 1.0, tolerance=1e-3).passed


def test_make_check_equality_fallback():
    assert make_check("x", "a", [1, 2], [1, 2]).passed
    assert not make_check("x", "a", "yes", "no").passed
    assert make_check("x", "a", True, True).tolerance is None


def test_manifest_json_is_sorted_and_stable():
    manifest = RunManifest(subcommand="demo", config={"b": 1, "a": 2},
                           seed=0, version="0.0.0",
                           reports=(make_check("x", "a", 1, 1),))
    text = manifest_json(manifest, generated_at="2000-01-01T00:00:00+00:00")
    assert text == manifest_json(manifest,
                                 generated_at="2000-01-01T00:00:00+00:00")
    parsed = json.loads(text)
    assert parsed["config"] == {"a": 2, "b": 1}
    assert parsed["generated_at"].startswith("2000")


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_non_finite_measurements_are_null_and_fail():
    check = make_check("x", "a", math.inf, 0.0, tolerance=1e-9)
    assert check.measured is None and not check.passed
    assert check.tolerance == 1e-9
    assert not make_check("x", "a", math.nan, 0.0, tolerance=1e-9).passed
    manifest = RunManifest(subcommand="demo", config={}, seed=0,
                           version="0.0.0", reports=(check,))
    parsed = json.loads(manifest_json(manifest),
                        parse_constant=_reject_constant)
    assert parsed["reports"][0]["measured"] is None


def test_forced_failing_check_writes_strict_json(tmp_path, monkeypatch):
    # one minimum instead of two: scalar.quartic_minima cannot be measured
    one = scalar.CriticalPoint(location=0.7, kind=scalar.CriticalKind.MINIMUM,
                               value=-0.2)
    monkeypatch.setattr(scalar, "critical_points", lambda p, tol=None: [one])
    assert main(["scalar", "--out", str(tmp_path)]) == 1
    text = (tmp_path / "manifest_scalar.json").read_text()
    parsed = json.loads(text, parse_constant=_reject_constant)
    minima = _report_by_name(parsed, "scalar.quartic_minima")
    assert minima["measured"] is None
    assert minima["pass"] is False


def test_segment_and_csv_writers(tmp_path):
    seg = tmp_path / "net.seg"
    write_segments(str(seg), [(0.0, 0.0, 1.0, 0.5)])
    assert seg.read_text() == "0 0 1 0.5\n"
    csv = tmp_path / "table.csv"
    write_csv(str(csv), ["x", "y"], [(1.0, 0.25)])
    assert csv.read_text() == "x,y\n1,0.25\n"


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------

def test_defaults_pass_through():
    assert resolve_config("maxwell", {})["grid"] == 32


def test_overrides_win():
    assert resolve_config("maxwell", {"grid": 16})["grid"] == 16


def test_unknown_keys_are_ignored():
    cfg = resolve_config("maxwell", {"nonsense": 1})
    assert "nonsense" not in cfg


def test_none_means_not_given():
    assert resolve_config("maxwell", {"grid": None})["grid"] == 32


# ---------------------------------------------------------------------------
# subcommands through main()
# ---------------------------------------------------------------------------

def test_scalar_run_passes(tmp_path, capsys):
    code = main(["scalar", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] scalar.quartic_minima" in out
    manifest = _read_manifest(tmp_path / "manifest_scalar.json")
    assert all(r["pass"] for r in manifest["reports"])


def test_steiner_manifest_contents(tmp_path):
    assert main(["steiner", "--out", str(tmp_path)]) == 0
    manifest = _read_manifest(tmp_path / "manifest_steiner.json")
    best = _report_by_name(manifest, "steiner.best_length")
    assert best["measured"] == pytest.approx(1.0 + math.sqrt(3.0), abs=1e-9)
    listed = set(manifest["artifacts"])
    assert listed == {"steiner_solution_1.seg", "steiner_solution_2.seg",
                      "steiner_guess_x.seg"}
    for name in listed:
        assert (tmp_path / name).exists()


def test_coarse_maxwell_grid_fails_honestly(tmp_path, capsys):
    # two coarse grids cannot show the asymptotic factor of four
    code = main(["maxwell", "--grid", "8", "--out", str(tmp_path)])
    assert code == 1
    assert "[FAIL] maxwell.divergence_convergence" in capsys.readouterr().out
    manifest = _read_manifest(tmp_path / "manifest_maxwell.json")
    assert not all(r["pass"] for r in manifest["reports"])


def test_json_flag_prints_the_manifest(tmp_path, capsys):
    code = main(["ode", "--json", "--out", str(tmp_path)])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["subcommand"] == "ode"


def test_custom_terminals_file(tmp_path):
    triangle = [[0.0, 0.0], [1.0, 0.0], [0.5, 0.9]]
    src = tmp_path / "terminals.json"
    src.write_text(json.dumps(triangle))
    code = main(["steiner", "--terminals", str(src), "--out", str(tmp_path)])
    assert code == 0
    manifest = _read_manifest(tmp_path / "manifest_steiner.json")
    assert _report_by_name(manifest, "steiner.fermat_condition")["pass"]


def test_potential_cli_example(tmp_path):
    code = main(["potential", "-q", str(2.0 * math.pi), "--lambda",
                 str(math.e), "--out", str(tmp_path)])
    assert code == 0
    manifest = _read_manifest(tmp_path / "manifest_potential.json")
    shift = _report_by_name(manifest, "potential.gauge_shift")
    assert shift["measured"] == pytest.approx(-1.0, abs=1e-12)


def test_potential_with_zero_charge(tmp_path):
    # relative errors fall back to absolute ones when the reference is 0
    assert main(["potential", "-q", "0", "--out", str(tmp_path)]) == 0
    manifest = _read_manifest(tmp_path / "manifest_potential.json")
    names = [r["name"] for r in manifest["reports"]]
    assert names == [
        "potential.sphere_area_3d", "potential.sphere_area_4d",
        "potential.scaling_identity", "potential.log_anomaly",
        "potential.gauge_shift", "potential.reference_moves",
        "potential.field_scaling", "potential.flux_2d", "potential.flux_3d",
        "potential.flux_identity", "potential.laplacian_convergence",
        "potential.laplacian_residual_small"]
    assert all(r["pass"] for r in manifest["reports"])


def test_potential_dimension_flag(tmp_path):
    assert main(["potential", "-n", "5", "--out", str(tmp_path)]) == 0
    manifest = _read_manifest(tmp_path / "manifest_potential.json")
    assert manifest["config"]["n"] == 5
    assert (tmp_path / "phi_vs_r_n5.csv").exists()


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "settings.json"
    cfg.write_text(json.dumps({"grid": 8}))
    # config alone: coarse grids, known failure
    assert main(["maxwell", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 1
    # explicit flag beats the config file
    assert main(["maxwell", "--config", str(cfg), "--grid", "32",
                 "--out", str(tmp_path)]) == 0


def test_seed_lands_in_the_manifest(tmp_path):
    assert main(["steiner", "--seed", "7", "--out", str(tmp_path)]) == 0
    assert _read_manifest(tmp_path / "manifest_steiner.json")["seed"] == 7


def test_output_dir_from_environment(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("SSB_LAB_OUT", str(target))
    assert main(["ode"]) == 0
    assert (target / "manifest_ode.json").exists()


def test_usage_errors_exit_two(capsys):
    for argv in (["bogus"], [], ["steiner", "--square", "x"],
                 ["ode", "--bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith("ssb-lab")


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_unusable_output_directory_exits_two(tmp_path, capsys, out):
    (tmp_path / "file").write_text("")
    _exits_two_with_one_line(["scalar", "--out", str(tmp_path / out)], capsys)


def test_bad_config_file_exits_two(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("[1, 2, 3]")
    assert main(["ode", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def _exits_two_with_one_line(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning is a second stderr line
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("text", [
    "[[0, 0], [1, 0]]",
    "[[0, 0], [1, 0], [0, 1], [1, 1], [2, 2]]",
    "[[0, 0], [1, 0], [0, 0]]",
    "[[0, 0], [1, 0], [NaN, 1]]",
    "[[0, 0], [1, 0], [Infinity, 1]]",
    '{"terminals": [[0, 0], [1, 0], [0, 1]]}',
    "[0, 1, 2]",
    "[[0, 0, 0], [1, 0, 0], [0, 1, 0]]",
    "[[1e300, 0], [0, 1e300], [-1e300, 0]]",
    "[[1" + "0" * 400 + ", 0], [0, 1], [1, 1]]",
], ids=["two", "five", "duplicate", "nan", "infinite", "object", "flat",
        "three_d", "huge", "huge_int"])
def test_bad_terminals_file_exits_two(tmp_path, capsys, text):
    src = tmp_path / "terminals.json"
    src.write_text(text)
    err = _exits_two_with_one_line(["steiner", "--terminals", str(src),
                                    "--out", str(tmp_path)], capsys)
    assert err.startswith("ssb-lab steiner: error: "), err
    assert not (tmp_path / "manifest_steiner.json").exists()


def test_missing_terminals_file_exits_two(tmp_path, capsys):
    _exits_two_with_one_line(["steiner", "--terminals",
                              str(tmp_path / "absent.json"),
                              "--out", str(tmp_path)], capsys)


# 1e-11: the corners coincide within the matching tolerance; 1e154 and
# 1e300: squared distances overflow
@pytest.mark.parametrize("side", ["nan", "0", "-1.5", "inf", "1e-11",
                                  "1e154", "1e300"])
def test_bad_square_side_exits_two(tmp_path, capsys, side):
    _exits_two_with_one_line(["steiner", "--square", side,
                              "--out", str(tmp_path)], capsys)


@pytest.mark.parametrize("argv", [["-q", "nan"], ["--mu", "inf"],
                                  ["--lambda", "inf"]])
def test_non_finite_potential_settings_exit_two(tmp_path, capsys, argv):
    # the manifest records the config, so NaN would make it invalid JSON
    _exits_two_with_one_line(["potential", *argv, "--out", str(tmp_path)],
                             capsys)


@pytest.mark.parametrize("grid", ["4", "0", "-3"])
def test_maxwell_grid_below_two_levels_exits_two(tmp_path, capsys, grid):
    _exits_two_with_one_line(["maxwell", "--grid", grid,
                              "--out", str(tmp_path)], capsys)


@pytest.mark.parametrize("argv", [
    ["potential", "-n", "1"],
    ["potential", "-n", "0"],
    ["potential", "--lambda", "0"],
    ["ode", "--seed", "-1"],
    ["potential", "-n", "180"],
    ["potential", "-n", "344"],
    ["potential", "--lambda", "1e65"],
    ["potential", "--lambda", "1e-70"],
    ["potential", "--mu", "5e-324"],
    ["potential", "--mu", "1e300", "--lambda", "1e-60"],
    # a unit charge's plotted field overflows at r = 0.05 from n = 173, and
    # its divisor there is subnormal from n = 172
    ["potential", "-n", "179"],
    ["potential", "-n", "172"],
    # charges whose plotted field, or whose check values, overflow
    ["potential", "-n", "172", "-q", "100"],
    ["potential", "-n", "171", "-q", "127"],
    ["potential", "-n", "2", "--mu", "1e-60", "-q", "1e250"],
    ["potential", "--lambda", "1e-60", "-q", "1e9"],
    ["potential", "-q", "1e308"],
    ["potential", "-q", "1e308", "--lambda", "0.5"],
], ids=["dim_1", "dim_0", "lambda_0", "negative_seed", "dim_180", "dim_344",
        "lambda_1e65", "lambda_1e-70", "mu_5e-324", "mu_1e300", "dim_179",
        "dim_172", "dim_172_q_100", "dim_171_q_127", "mu_1e-60_q_1e250",
        "lambda_1e-60_q_1e9", "q_1e308", "q_1e308_lambda_0.5"])
def test_out_of_range_settings_exit_two(tmp_path, capsys, argv):
    _exits_two_with_one_line([*argv, "--out", str(tmp_path)], capsys)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("k", [[0, 0, 0], [1, 2], "ab", [1e300, 0, 0]],
                         ids=["zero", "two_components", "string", "huge"])
def test_bad_maxwell_wave_vector_exits_two(tmp_path, capsys, k):
    cfg = tmp_path / "settings.json"
    cfg.write_text(json.dumps({"k": k}))
    out = tmp_path / "out"
    _exits_two_with_one_line(["maxwell", "--config", str(cfg),
                              "--out", str(out)], capsys)
    assert not out.exists()


def test_integer_charge_beyond_the_float_range_exits_two(tmp_path, capsys):
    # float(q) of such a JSON integer raised OverflowError inside the run
    cfg = tmp_path / "settings.json"
    cfg.write_text(json.dumps({"q": 10 ** 400}))
    out = tmp_path / "out"
    _exits_two_with_one_line(["potential", "--config", str(cfg),
                              "--out", str(out)], capsys)
    assert not out.exists()


def _csv_numbers(out_dir):
    """Every number in the data rows of the CSV files in ``out_dir``."""
    numbers = []
    for path in out_dir.glob("*.csv"):
        for row in path.read_text().splitlines()[1:]:
            numbers += [float(cell) for cell in row.split(",")]
    return numbers


@pytest.mark.parametrize("argv", [
    ["potential", "-n", "171"],
    ["potential", "--lambda", "1e60", "-n", "6"],
    ["potential", "--lambda", "1e-60", "--mu", "1e60", "-n", "2"],
    ["potential", "--mu", "1e-60"],
    ["potential", "-n", "171", "-q", "126"],
    ["potential", "-n", "2", "--mu", "1e-60", "-q", "5e248"],
    ["potential", "--lambda", "1e-60", "-q", "8.7e7"],
    ["potential", "-q", "6.9e304"],
    ["steiner", "--square", "2e150"],
], ids=["dim_171", "lambda_1e60", "lambda_1e-60", "mu_1e-60",
        "dim_171_q_126", "mu_1e-60_q_5e248", "lambda_1e-60_q_8.7e7",
        "q_6.9e304", "square_2e150"])
def test_settings_at_the_bounds_run(tmp_path, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--out", str(tmp_path)]) in (0, 1)
    assert (tmp_path / f"manifest_{argv[0]}.json").exists()
    assert all(map(math.isfinite, _csv_numbers(tmp_path)))


_SCALES = hyp.floats(-60.0, 60.0).map(lambda e: 10.0 ** e)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(hyp.integers(2, cli.MAX_POTENTIAL_DIM), _SCALES, _SCALES,
       hyp.floats(-1.0, 1.0))
def test_accepted_potential_settings_compute_finite_values(n, mu, lam,
                                                           fraction):
    # every charge up to the bound, which is linear in the largest value
    q = fraction * sys.float_info.max / 2 / cli._unit_charge_peak(n, mu, lam)
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        manifest = run_subcommand("potential", {"n": n, "q": q, "mu": mu,
                                                "lam": lam}, tmp)
        numbers = _csv_numbers(pathlib.Path(tmp))
    assert numbers and all(map(math.isfinite, numbers))
    assert all(report.measured is not None for report in manifest.reports)


def test_axis_aligned_maxwell_wave_fails_without_a_crash(tmp_path):
    # the discrete divergence of k = (0, 0, 1) is exactly 0 on every grid,
    # so it has no convergence ratio
    cfg = tmp_path / "settings.json"
    cfg.write_text(json.dumps({"k": [0, 0, 1]}))
    assert main(["maxwell", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 1
    manifest = _read_manifest(tmp_path / "manifest_maxwell.json")
    ratio = _report_by_name(manifest, "maxwell.divergence_convergence")
    assert ratio["measured"] is None and not ratio["pass"]
    assert _report_by_name(manifest, "maxwell.rescaling_linearity")["pass"]


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_rescaling_check_fails_on_a_non_finite_field(bad):
    spec = mx.make_helicity_wave((1, 2, 2))
    f_t, f_plus, f_minus, dt = mx.wave_snapshots(spec, 8)
    values = mx.sample_plane_wave(spec, 8, f_t.time).values.copy()
    values[1, 2, 3, 0] = bad
    f_t = mx.ComplexFieldGrid(values, f_t.spacing, f_t.time)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        base = mx.maxwell_residual(f_t, f_plus, f_minus, dt)
        check = cli._rescaling_check(f_t, f_plus, f_minus, dt, base)
    assert check.name == "maxwell.rescaling_linearity"
    assert check.measured is None and not check.passed


def test_maxwell_grid_over_the_maximum_exits_two(tmp_path, capsys,
                                                monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("a rejected grid must not be sampled")

    for name in ("PlaneWaveField", "sample_plane_wave"):
        monkeypatch.setattr(mx, name, no_sampling)
    for grid in (cli.MAX_MAXWELL_GRID + 1, 100000):
        _exits_two_with_one_line(["maxwell", "--grid", str(grid),
                                  "--out", str(tmp_path)], capsys)
    assert not (tmp_path / "manifest_maxwell.json").exists()
    for grid in (128, cli.MAX_MAXWELL_GRID):
        cli._validate_config("maxwell", {"grid": grid, "k": [1, 2, 2]})
    assert cli.MAX_MAXWELL_GRID == 307


def test_ode_trials_over_the_maximum_exit_two(tmp_path, capsys,
                                              monkeypatch):
    def no_trials(*args, **kwargs):
        raise AssertionError("rejected trials must not be drawn")

    monkeypatch.setattr(cli, "_run_ode", no_trials)
    cfg = tmp_path / "settings.json"
    for trials in (cli.MAX_ODE_TRIALS + 1, 10_000_000_000_000):
        cfg.write_text(json.dumps({"trials": trials}))
        _exits_two_with_one_line(["ode", "--config", str(cfg),
                                  "--out", str(tmp_path)], capsys)
    assert not (tmp_path / "manifest_ode.json").exists()
    cli._validate_config("ode", {"trials": cli.MAX_ODE_TRIALS, "seed": 0})
    assert cli.MAX_ODE_TRIALS == 1_000_000


def test_maxwell_peak_memory_is_the_budgeted_bytes_per_point(tmp_path):
    # numpy reports its buffers to tracemalloc, so the traced peak of a run
    # is what mx.residual_peak_bytes claims, within the small arrays and
    # interpreter objects a run also holds
    n = 64
    cfg = resolve_config("maxwell", {"grid": n})
    # a small run first, so numpy's first-call allocations are not traced
    cli._run_maxwell(resolve_config("maxwell", {"grid": 8}),
                     cli._Run(str(tmp_path)))
    tracemalloc.start()
    try:
        cli._run_maxwell(cfg, cli._Run(str(tmp_path)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.95 <= peak / mx.residual_peak_bytes(n) <= 1.03


def test_maxwell_samples_each_level_once(tmp_path, monkeypatch):
    # three plane-wave fields per level, one zero-amplitude wave for the
    # vacuum on the coarsest level, and no stored grid
    calls = []
    field = mx.PlaneWaveField

    def counted(spec, n_grid, time=0.0):
        calls.append(n_grid)
        return field(spec, n_grid, time)

    def stored(*args, **kwargs):
        raise AssertionError("a maxwell run stores no grid")

    monkeypatch.setattr(mx, "PlaneWaveField", counted)
    for name in ("sample_plane_wave", "ComplexFieldGrid"):
        monkeypatch.setattr(mx, name, stored)
    assert main(["maxwell", "--grid", "32", "--out", str(tmp_path)]) == 0
    assert sorted(calls) == [8] * 4 + [16] * 3 + [32] * 3


@pytest.mark.parametrize("n", [16, 64])
def test_maxwell_walks_each_grid_the_fewest_times(tmp_path, monkeypatch, n):
    # one residual per level, the vacuum check on the coarsest level, and
    # z = 2 - 3i on the finest; z = i is not recomputed
    calls = []
    residual = mx.maxwell_residual

    def counted(f_t, *args, **kwargs):
        calls.append(f_t.n_grid)
        return residual(f_t, *args, **kwargs)

    monkeypatch.setattr(mx, "maxwell_residual", counted)
    run_subcommand("maxwell", {"grid": n}, str(tmp_path))
    assert {g: calls.count(g) for g in calls} == {n // 4: 2, n // 2: 1, n: 2}


def test_all_computes_each_shared_fixture_once(tmp_path, monkeypatch):
    calls = []
    for module, name in ((steiner, "optimize_all"),
                         (symmetry, "dihedral_group"),
                         (scalar, "z2_verdict")):
        def counted(*args, _name=name, _function=getattr(module, name)):
            calls.append(_name)
            return _function(*args)

        monkeypatch.setattr(module, name, counted)
    assert run_subcommand("all", {}, str(tmp_path)).all_passed()
    assert sorted(calls) == ["dihedral_group", "optimize_all",
                             "z2_verdict", "z2_verdict", "z2_verdict"]


def test_all_solves_each_bundled_sign_flip_problem_once(tmp_path,
                                                        monkeypatch):
    # the scalar runner's checks and the three verdicts share one solve
    calls = []
    for name in ("real_roots", "critical_points"):
        def counted(p, *args, _name=name, _function=getattr(scalar, name)):
            calls.append((_name, p))
            return _function(p, *args)

        monkeypatch.setattr(scalar, name, counted)
    for sub in ("scalar", "all"):
        calls.clear()
        assert run_subcommand(sub, {}, str(tmp_path)).all_passed()
        assert sorted(calls, key=repr) == sorted(
            [("real_roots", scalar.SQUARE_POLY),
             ("real_roots", scalar.DOUBLE_WELL),
             ("critical_points", scalar.DOUBLE_WELL)], key=repr)


@pytest.mark.parametrize("argv", [
    ["-q", "1e6"], ["-q", "1e200"], ["-n", "2", "-q", "1e6"],
], ids=["q_1e6", "q_1e200", "n_2_q_1e6"])
def test_large_charges_pass_every_potential_check(tmp_path, argv):
    # the absolute errors grow with |q| from rounding alone, and so do the
    # tolerances of the checks that take them
    assert main(["potential", *argv, "--out", str(tmp_path)]) == 0
    reports = _read_manifest(tmp_path / "manifest_potential.json")["reports"]
    assert len(reports) == 12 and all(r["pass"] for r in reports)


def test_all_treats_a_null_seed_as_not_given(tmp_path):
    cfg = tmp_path / "settings.json"
    cfg.write_text(json.dumps({"seed": None}))
    assert main(["all", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert _read_manifest(tmp_path / "manifest_all.json")["seed"] == 0


def test_config_file_values_are_validated_too(tmp_path, capsys):
    cfg = tmp_path / "settings.json"
    cfg.write_text(json.dumps({"grid": 4}))
    _exits_two_with_one_line(["all", "--config", str(cfg),
                              "--out", str(tmp_path)], capsys)
    cfg.write_text(json.dumps({"grid": "abc"}))
    _exits_two_with_one_line(["maxwell", "--config", str(cfg),
                              "--out", str(tmp_path)], capsys)
    # a side no float holds, so its corners cannot be computed
    cfg.write_text(json.dumps({"side": 10 ** 400}))
    err = _exits_two_with_one_line(["steiner", "--config", str(cfg),
                                    "--out", str(tmp_path)], capsys)
    assert "side must be a positive finite float" in err


def test_unknown_config_keys_exit_two(tmp_path, capsys):
    # a misspelt key used to be dropped, and the run went on with defaults
    cfg = tmp_path / "settings.json"
    cfg.write_text(json.dumps({"gird": 64, "seeed": 3, "grid": 8}))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["maxwell", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "ssb-lab maxwell: error: config file has unknown keys 'gird', 'seeed'"]
    assert not out.exists()
    # the keys of other subcommands stay valid, because all shares one config
    cfg.write_text(json.dumps({"grid": 8, "trials": 10, "q": 2.0}))
    assert main(["ode", "--config", str(cfg), "--out", str(out)]) == 0


def test_smallest_two_level_grid_runs(tmp_path):
    # N = 5 compares the 4- and 5-point grids: too coarse to pass, but
    # every check is defined
    assert main(["maxwell", "--grid", "5", "--out", str(tmp_path)]) in (0, 1)
    assert (tmp_path / "manifest_maxwell.json").exists()


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_reruns_are_identical_modulo_timestamp(tmp_path):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    for target in (dir_a, dir_b):
        assert main(["all", "--out", str(target)]) == 0
    man_a = _read_manifest(dir_a / "manifest_all.json")
    man_b = _read_manifest(dir_b / "manifest_all.json")
    man_a.pop("generated_at")
    man_b.pop("generated_at")
    assert man_a == man_b
    for name in man_a["artifacts"]:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
    assert set(os.listdir(dir_a)) == (set(man_a["artifacts"])
                                      | {"manifest_all.json"})


def test_benchmark_trace_hooks_find_their_functions(tmp_path):
    # perfbench's tracer wraps ssb_lab functions by name and its hooks read
    # their arguments and results by name; renaming or deleting one of them
    # breaks every traced benchmark run, so every hook runs here
    path = (pathlib.Path(__file__).resolve().parents[1] / "perfbench"
            / "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.prepare()
    tracer.install()
    try:
        run_subcommand("all", {}, str(tmp_path))
        wave = mx.sample_plane_wave(mx.make_helicity_wave((1, 2, 2)), 4)
        mx.scale_field(wave, 1j)
        mx.discrete_div(wave)
        mx.discrete_curl(wave)
    finally:
        tracer.uninstall()
    for counter in ("flux_nodes", "residual_points", "sampled_points",
                    "snapshot_bytes", "networks", "fermat_checks",
                    "bytes_written"):
        assert tracer.counts[counter] > 0, counter


def test_repeated_calls_in_one_process_match_fresh_processes(tmp_path):
    # the parser is built once per process; reusing it must not carry
    # state from one call into the next
    runs = [["steiner"], ["maxwell", "--grid", "5"],
            ["steiner", "--square", "2"]]
    src = os.path.dirname(os.path.dirname(ssb_lab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for i, argv in enumerate(runs):
        warm, cold = tmp_path / f"warm{i}", tmp_path / f"cold{i}"
        code = main([*argv, "--out", str(warm)])
        fresh = subprocess.run([sys.executable, "-m", "ssb_lab", *argv,
                                "--out", str(cold)],
                               capture_output=True, env=env)
        assert code == fresh.returncode
        name = f"manifest_{argv[0]}.json"
        man_warm = _read_manifest(warm / name)
        man_cold = _read_manifest(cold / name)
        man_warm.pop("generated_at")
        man_cold.pop("generated_at")
        assert man_warm == man_cold


def test_run_subcommand_api_matches_cli(tmp_path):
    manifest = run_subcommand("scalar", {}, str(tmp_path))
    assert manifest.all_passed()
    assert manifest.subcommand == "scalar"


# ---------------------------------------------------------------------------
# console pipeline
# ---------------------------------------------------------------------------

def test_module_entry_point_subprocess(tmp_path):
    # the child imports the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(ssb_lab.__file__))
    env = dict(os.environ, SSB_LAB_OUT=str(tmp_path),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    good = subprocess.run([sys.executable, "-m", "ssb_lab", "scalar"],
                          capture_output=True, text=True, env=env)
    assert good.returncode == 0
    bad = subprocess.run([sys.executable, "-m", "ssb_lab", "maxwell",
                          "--grid", "8"],
                         capture_output=True, text=True, env=env)
    assert bad.returncode == 1
    usage = subprocess.run([sys.executable, "-m", "ssb_lab", "nonsense"],
                           capture_output=True, text=True, env=env)
    assert usage.returncode == 2


# ---------------------------------------------------------------------------
# every input has a defined outcome
# ---------------------------------------------------------------------------

_FLOATS = hyp.floats()  # the full exponent range, nan and +-inf included
_VALUES = hyp.one_of(hyp.none(), hyp.booleans(), _FLOATS,
                     hyp.text(max_size=4),
                     hyp.lists(hyp.one_of(hyp.integers(-3, 3), _FLOATS),
                               max_size=4))
# grids and trials are bounded so that one example stays cheap
_INTS = {"grid": hyp.integers(max_value=16),
         "trials": hyp.integers(max_value=200)}
_SHAPED = {"terminals": hyp.lists(hyp.lists(_FLOATS, min_size=2, max_size=2),
                                  min_size=3, max_size=4),
           "k": hyp.lists(hyp.one_of(hyp.integers(), _FLOATS),
                          min_size=3, max_size=3)}
_FLAGS = {"steiner": {"--square": _FLOATS},
          "maxwell": {"--grid": _INTS["grid"]},
          "potential": {"--dim": hyp.integers(), "--charge": _FLOATS,
                        "--mu": _FLOATS, "--lambda": _FLOATS}}
# raw command line words: no digits, so a word given to a numeric flag is
# never a number (at most inf or nan) and cannot start an expensive run
_WORDS = hyp.text(hyp.characters(blacklist_categories=("Cs", "Nd"),
                                 blacklist_characters="-\x00"), max_size=4)
# flags of some subcommand, and flags of none; --out is left out so that a
# run never writes outside its temporary directory
_RAW_TOKENS = hyp.one_of(_WORDS, hyp.sampled_from([
    "--seed", "--config", "--json", "--square", "--terminals", "--grid",
    "-n", "--dim", "-q", "--charge", "--mu", "--lambda", "--bogus", "-z",
    "--"]))


@hyp.composite
def _invocations(draw):
    sub = draw(hyp.sampled_from(sorted(cli.DEFAULTS)))
    argv = [sub]
    for flag, values in {"--seed": hyp.integers(),
                         **_FLAGS.get(sub, {})}.items():
        if draw(hyp.booleans()):
            argv.append(f"{flag}={draw(values)!r}")
    config = {}
    for key in cli.DEFAULTS[sub]:
        if draw(hyp.booleans()):
            config[key] = draw(hyp.one_of(_VALUES,
                                          _INTS.get(key, hyp.integers()),
                                          _SHAPED.get(key, _VALUES)))
    # half of the command lines are spoiled in one way: a word that names
    # no subcommand, raw words among the flags, or an --out that names a
    # regular file or a path under one
    out = "out"
    spoil = draw(hyp.sampled_from(["", "", "", "subcommand", "words", "out"]))
    if spoil == "subcommand":
        argv[0] = draw(_WORDS)
    elif spoil == "words":
        for _ in range(draw(hyp.integers(1, 3))):
            argv.insert(draw(hyp.integers(1, len(argv))), draw(_RAW_TOKENS))
    elif spoil == "out":
        out = draw(hyp.sampled_from(["file", "file/sub"]))
    return argv, config, out


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_invocations())
def test_every_invocation_has_a_defined_outcome(invocation):
    argv, config, out = invocation
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "settings.json")
        with open(path, "w") as handle:
            json.dump(config, handle)
        with open(os.path.join(tmp, "file"), "w"):
            pass
        out = os.path.join(tmp, out)
        # a stray numpy warning would reach the user's terminal
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            try:
                code = main([*argv, "--config", path, "--out", out])
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        wrote = os.path.isdir(out) and any(
            name.startswith("manifest_") for name in os.listdir(out))
    assert code in (0, 1, 2)
    assert wrote == (code <= 1)
    if code == 2:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
