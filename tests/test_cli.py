"""The ssb-lab command: exit codes, manifests, determinism, config layering."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

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


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_bad_config_file_exits_two(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("[1, 2, 3]")
    assert main(["ode", "--config", str(cfg), "--out", str(tmp_path)]) == 2


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


def test_run_subcommand_api_matches_cli(tmp_path):
    manifest = run_subcommand("scalar", {}, str(tmp_path))
    assert manifest.all_passed()
    assert manifest.subcommand == "scalar"


# ---------------------------------------------------------------------------
# console pipeline
# ---------------------------------------------------------------------------

def test_module_entry_point_subprocess(tmp_path):
    env = dict(os.environ, SSB_LAB_OUT=str(tmp_path))
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
