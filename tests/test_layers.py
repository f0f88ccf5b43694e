"""tools/layers.py, the layer timing harness: one tiny run."""

from __future__ import annotations

import importlib.util
import os
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "layers.py"
_SPEC = importlib.util.spec_from_file_location("layers", _PATH)
layers = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layers)


def test_every_layer_is_timed_and_counted_once():
    result = layers.measure(n=2, repeats=1)
    assert set(result) == set(layers.LAYERS)
    assert all(r["us_per_call"] > 0.0 for r in result.values())
    for layer in ("real_roots", "critical_points"):
        assert result[layer]["evaluations"] > 0
    for layer in ("stabilizer", "orbit", "classify_ssb", "sign_flip"):
        assert result[layer]["matched_images"] >= result[layer][
            "match_tensors"] > 0
    # a config of each group input's points and one of each root
    _, group_inputs, _ = layers._inputs(2)
    configs = len(layers._calls(2)["point_config"])
    roots = configs - len(group_inputs)
    points = sum(len(pts) for _, pts in group_inputs) + roots
    assert result["point_config"]["validated_points"] == points / configs
    assert result["sign_flip"]["validated_points"] == roots / 2
    # an orbit checks the points of its 2k images under D_k once
    assert result["orbit"]["validated_points"] == sum(
        2 * k * len(pts) for k, pts in group_inputs) / len(group_inputs)
    cold = layers.cold(layers.ROOT, ("import_cli",))
    assert cold["import_cli"]["us_per_call"] > 0
    assert cold["import_cli"]["files_run"] == 3  # __init__, cli, report
    result.update(cold)
    report = layers.compare({"change": [result], "parent": [result]},
                            {"change": layers.ROOT, "parent": layers.ROOT})
    text = layers.format_report(report)
    assert all(layer in text for layer in [*layers.LAYERS, "import_cli"])
    for part in ("src", "tests"):  # one counter for both
        lines = report.pop(f"{part}_lines")
        assert lines == dict.fromkeys(("change", "parent"), sum(
            len(path.read_text().splitlines())
            for path in (pathlib.Path(layers.ROOT) / part).rglob("*.py")))
        assert lines["change"] > 0
        assert f"{part}/ lines: parent {lines['parent']}, change " in text
    assert all(row["ratio"] == 1.0 for row in report.values())


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no CPU affinity on this platform")
def test_children_pin_to_the_highest_allowed_cpu():
    allowed = os.sched_getaffinity(0)
    try:
        layers._one_cpu()
        assert os.sched_getaffinity(0) == {max(allowed)}
    finally:
        os.sched_setaffinity(0, allowed)
