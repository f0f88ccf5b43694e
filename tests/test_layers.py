"""tools/layers.py, the in-process layer timing harness: one tiny run."""

from __future__ import annotations

import importlib.util
import pathlib

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
    for layer in ("stabilizer", "orbit", "classify_ssb"):
        assert result[layer]["matched_images"] >= result[layer][
            "match_tensors"] > 0
    report = layers.compare({"change": [result], "parent": [result]})
    assert all(row["ratio"] == 1.0 for row in report.values())
    text = layers.format_report(report)
    assert all(layer in text for layer in layers.LAYERS)
