"""Check reports, run manifests, and deterministic file output.

A check compares a measured value against an expected one: numeric pairs
pass when |measured - expected| <= tolerance, everything else by equality.
A measurement that could not be made, or came out NaN or infinite, is
recorded as null and fails, so manifests are strict JSON.
A manifest bundles one run's resolved configuration and its checks into a
JSON document that is byte-identical across reruns with the same settings
(the producer's timestamp lives in a single separate ``generated_at`` field
that comparisons drop).  All files are written atomically (temp + rename)
with 17-significant-digit decimals so rereads round-trip exactly.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from numbers import Real
from typing import Any

SCHEMA_VERSION = 1
FLOAT_FORMAT = "%.17g"


@dataclass(frozen=True)
class CheckReport:
    """One verified claim: what was measured, what was expected, how close."""

    name: str
    anchor: str
    measured: Any
    expected: Any
    tolerance: float | None
    passed: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "anchor": self.anchor,
            "measured": self.measured,
            "expected": self.expected,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def make_check(name: str, anchor: str, measured: Any, expected: Any,
               tolerance: float | None = None) -> CheckReport:
    """Build a check, deciding pass/fail by the scalar or equality rule.

    ``measured=None`` marks a measurement that could not be made; it fails
    and keeps its tolerance.  Non-finite numbers are stored as None.
    """
    numeric = (isinstance(measured, Real) and not isinstance(measured, bool)
               and isinstance(expected, Real) and not isinstance(expected, bool))
    if numeric and not math.isfinite(measured):
        measured = None
    if measured is None:
        passed = False
    elif numeric and tolerance is not None:
        passed = abs(float(measured) - float(expected)) <= tolerance
        measured = float(measured)
        expected = float(expected)
    else:
        passed = measured == expected
        tolerance = None
    return CheckReport(name=name, anchor=anchor, measured=measured,
                       expected=expected, tolerance=tolerance, passed=passed)


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce and audit one run."""

    subcommand: str
    config: dict[str, Any]
    seed: int
    version: str
    reports: tuple[CheckReport, ...]
    artifacts: tuple[str, ...] = ()

    def all_passed(self) -> bool:
        return all(r.passed for r in self.reports)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "subcommand": self.subcommand,
            "config": self.config,
            "seed": self.seed,
            "version": self.version,
            "artifacts": list(self.artifacts),
            "reports": [r.to_dict() for r in self.reports],
        }


def manifest_json(manifest: RunManifest,
                  generated_at: str | None = None) -> str:
    """Serialize deterministically; the timestamp stays in its own field so
    dropping that one key makes two equal runs byte-identical."""
    doc = manifest.to_dict()
    if generated_at is not None:
        doc["generated_at"] = generated_at
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_text_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_float(x: float) -> str:
    return FLOAT_FORMAT % float(x)


def write_segments(path: str,
                   segments: list[tuple[float, float, float, float]]) -> None:
    """One 'x1 y1 x2 y2' line per edge."""
    lines = [" ".join(format_float(v) for v in seg) for seg in segments]
    write_text_atomic(path, "\n".join(lines) + "\n")


def write_csv(path: str, header: list[str], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            format_float(v) if isinstance(v, float) else str(v)
            for v in row))
    write_text_atomic(path, "\n".join(lines) + "\n")
