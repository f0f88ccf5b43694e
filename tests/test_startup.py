"""What a cold start runs: importing the package and the command line
module runs no model, and each subcommand runs only the models it uses."""

from __future__ import annotations

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

import ssb_lab
from ssb_lab.cli import main

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "layers", _ROOT / "tools" / "layers.py")
layers = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layers)
# the source tree whose src/ holds the ssb_lab under test
_TREE = str(pathlib.Path(ssb_lab.__file__).resolve().parents[2])
_CLI = {"__init__", "cli", "report"}


def _files_run(*args: str) -> tuple[set[str], int]:
    files, code = layers.files_run(_TREE, list(args))
    assert len(files) == len(set(files)), files  # no file runs twice
    return set(files), code


def test_importing_the_cli_runs_no_model():
    assert _files_run("-c", "import ssb_lab.cli") == (_CLI, 0)


@pytest.mark.parametrize("sub,models", [
    ("ode", {"ode"}),
    ("maxwell", {"maxwell"}),
    ("potential", {"electrostatics"}),
    ("scalar", {"scalar", "symmetry"}),
    ("steiner", {"steiner", "symmetry"}),
    ("classify", {"steiner", "symmetry", "scalar"}),
    ("all", {"electrostatics", "maxwell", "ode", "scalar", "steiner",
             "symmetry"}),
])
def test_each_subcommand_runs_exactly_its_models(tmp_path, sub, models):
    files, code = _files_run("-m", "ssb_lab", sub, "--out", str(tmp_path))
    assert code == 0
    assert files == _CLI | {"__main__"} | models


@pytest.mark.parametrize("argv", [
    ["ode", "--bogus"], ["maxwell", "--grid", "x"], ["nonsense"],
    ["ode", "--out", "{file}"],
], ids=["unknown_flag", "bad_grid", "unknown_subcommand", "out_is_a_file"])
def test_a_usage_error_runs_no_model(tmp_path, argv):
    (tmp_path / "file").write_text("")
    argv = [a.format(file=tmp_path / "file") for a in argv]
    assert _files_run("-m", "ssb_lab", *argv) == (_CLI | {"__main__"}, 2)


def test_every_export_resolves_on_first_use():
    code = ("import ssb_lab, sys\n"
            "assert 'ssb_lab.symmetry' not in sys.modules\n"
            "from ssb_lab import *\n"
            "from ssb_lab import symmetry\n"
            "names = [n for n in ssb_lab.__all__ if n != '__version__']\n"
            "assert all(getattr(ssb_lab, n) is getattr(symmetry, n)\n"
            "           and globals()[n] is getattr(symmetry, n)\n"
            "           for n in names)\n"
            "assert set(ssb_lab.__all__) <= set(dir(ssb_lab))\n")
    assert _files_run("-c", code) == ({"__init__", "symmetry"}, 0)


def test_an_unknown_package_attribute_still_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        ssb_lab.no_such_name  # noqa: B018


@pytest.mark.parametrize("argv,counter", [
    (["maxwell", "--grid", "5"], "residual_points"),
    (["steiner"], "networks"),
])
def test_benchmark_tracer_runs_in_a_fresh_process(tmp_path, argv, counter):
    # perfbench's tracer looks every traced model up in sys.modules right
    # after importing ssb_lab.cli; in this process the tests have imported
    # them all already, so only a fresh one shows that they are there
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(_TREE, "src"))
    done = subprocess.run(
        [sys.executable, str(_ROOT / "perfbench" / "child.py"), "trace",
         str(spans), *argv, "--out", str(tmp_path / "fresh")],
        env=env, capture_output=True, text=True)
    assert done.returncode == main([*argv, "--out", str(tmp_path / "warm")])
    recorded = json.loads(spans.read_text())
    assert recorded["spans"] and recorded["counts"][counter] > 0
