"""Per-layer tracing, installed from outside the program.

The wrappers replace module attributes of ``ssb_lab`` (every binding of the
function object, so ``from .symmetry import classify_ssb`` copies and calls
through module globals are caught as well).  ``src/`` is never edited.

A spanned function records ``[name, start, end, parent, op]`` per call; spans
stay in memory and are written out when the run ends.  A counted function
(one called more than 10k times per operation) only increments its call
count, so its time lands in the self time of its caller.  Hooks read the
arguments and results of a few calls to record work counters such as
quadrature nodes, grid points and bytes written.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict


def _flux_nodes(es, a, result):
    sol, m = a["sol"], a["quad_points"]
    if sol.n == 2:
        return {"flux_nodes": m or es.DEFAULT_QUAD_POINTS_2D}
    m = m or es.DEFAULT_QUAD_POINTS_3D
    return {"flux_nodes": 2 * m * m}


def _sampled(mx, a, result):
    return {"sampled_points": a["n_grid"] ** 3,
            "snapshot_bytes": result.values.nbytes}


def _residual_points(mx, a, result):
    return {"residual_points": a["f_t"].n_grid ** 3}


def _scaled(mx, a, result):
    return {"snapshot_bytes": result.values.nbytes}


def _topology_result(st, a, result):
    return {"networks": 1, "merged": int(result.topology.merged)}


def _fermat_result(st, a, result):
    return {"fermat_checks": 1, "fermat_ok": int(result.ok)}


def _bytes_written(report, a, result):
    return {"bytes_written": len(a["text"].encode())}


# (module, function, spanned, hook(module, bound arguments, result))
TARGETS = (
    ("cli", "main", True, None),
    ("electrostatics", "flux_integral", True, _flux_nodes),
    ("electrostatics", "field_vector", False, None),
    ("electrostatics", "unit_sphere_area", False, None),
    ("electrostatics", "laplacian_residual", True, None),
    ("electrostatics", "potential", False, None),
    ("maxwell", "sample_plane_wave", True, _sampled),
    ("maxwell", "maxwell_residual", True, _residual_points),
    ("maxwell", "discrete_curl", True, None),
    ("maxwell", "discrete_div", True, None),
    ("maxwell", "scale_field", True, _scaled),
    ("steiner", "optimize_all", True, None),
    ("steiner", "optimize_topology", True, _topology_result),
    ("steiner", "select_minima", True, None),
    ("steiner", "check_fermat_condition", True, _fermat_result),
    ("symmetry", "dihedral_group", True, None),
    ("symmetry", "verify_group_axioms", True, None),
    ("symmetry", "stabilizer", True, None),
    ("symmetry", "orbit", True, None),
    ("symmetry", "classify_ssb", True, None),
    ("symmetry", "config_equal", False, None),
    ("symmetry", "is_invariant", False, None),
    ("scalar", "real_roots", True, None),
    ("scalar", "critical_points", True, None),
    ("scalar", "z2_verdict", True, None),
    ("ode", "translate_solution", False, None),
    ("report", "write_csv", True, None),
    ("report", "write_segments", True, None),
    ("report", "write_text_atomic", True, _bytes_written),
    ("report", "manifest_json", True, None),
)


class Tracer:
    """Spans and counters of one run; ``op`` tags every span recorded."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.op = 0
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] = []

    def _spanned(self, name, fn, module, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0,
                          stack[-1] if stack else -1, self.op])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in hook(module, bound.arguments,
                                       result).items():
                    counts[key] += value
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def prepare(self) -> None:
        """Build the wrappers and find every binding they replace."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "ssb_lab"
                                         or n.startswith("ssb_lab."))]
        for mod_name, fn_name, spanned, hook in TARGETS:
            module = sys.modules[f"ssb_lab.{mod_name}"]
            original = getattr(module, fn_name)
            name = f"{mod_name}.{fn_name}"
            wrapper = (self._spanned(name, original, module, hook) if spanned
                       else self._counted(name, original))
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._bindings.append((holder, attr, original,
                                               wrapper))

    def install(self) -> None:
        for holder, attr, _original, wrapper in self._bindings:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original, _wrapper in self._bindings:
            setattr(holder, attr, original)

    def absorb(self, spans: list[list], counts: dict[str, float],
               op: int) -> None:
        """Merge spans and counters recorded by a child process."""
        offset = len(self.spans)
        for name, start, end, parent, _op in spans:
            self.spans.append([name, start, end,
                               parent + offset if parent >= 0 else -1, op])
        for key, value in counts.items():
            self.counts[key] += value


def span_totals(spans: list[list]) -> tuple[dict, dict, dict]:
    """Per span name: call count, inclusive seconds and self seconds.

    Self time is a span's duration minus the part its child spans cover.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: defaultdict[str, int] = defaultdict(int)
    inclusive: defaultdict[str, float] = defaultdict(float)
    self_time: defaultdict[str, float] = defaultdict(float)
    for i, (name, start, end, _parent, _op) in enumerate(spans):
        calls[name] += 1
        inclusive[name] += end - start
        self_time[name] += end - start - child_time[i]
    return calls, inclusive, self_time


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-layer numbers per traced operation, named
    ``<module>.<function>.<stat>``.  Layers that did not run read 0."""
    calls, inclusive, busy = span_totals(tracer.spans)
    counts = tracer.counts

    def per_op(value: float) -> float:
        return value / n_ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for mod_name, fn_name, spanned, _hook in TARGETS:
        name = f"{mod_name}.{fn_name}"
        if spanned:
            out[f"{name}.busy_s"] = per_op(busy[name])
            out[f"{name}.calls"] = per_op(calls[name])
        else:
            out[f"{name}.calls"] = per_op(counts[name])
    out["electrostatics.flux_integral.nodes"] = per_op(counts["flux_nodes"])
    out["maxwell.sample_plane_wave.points_per_s"] = ratio(
        counts["sampled_points"], inclusive["maxwell.sample_plane_wave"])
    # the residual's rate covers the stencils it calls (inclusive time)
    out["maxwell.maxwell_residual.points_per_s"] = ratio(
        counts["residual_points"], inclusive["maxwell.maxwell_residual"])
    out["maxwell.grid_points"] = per_op(counts["sampled_points"])
    # computed from array sizes (N^3 * 3 * 16 per snapshot), not measured
    out["maxwell.bytes_computed"] = per_op(counts["snapshot_bytes"])
    out["steiner.merged_frac"] = ratio(counts["merged"], counts["networks"])
    out["steiner.fermat_ok_frac"] = ratio(counts["fermat_ok"],
                                          counts["fermat_checks"])
    out["report.write.busy_s"] = per_op(
        busy["report.write_csv"] + busy["report.write_segments"]
        + busy["report.write_text_atomic"])
    out["report.bytes_written"] = per_op(counts["bytes_written"])
    out["cli.self_s"] = out["cli.main.busy_s"]
    return out
