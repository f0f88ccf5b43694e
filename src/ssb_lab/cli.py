"""Command line entry point: run the laboratory's demonstrations end to end.

Subcommands
-----------
steiner    shortest networks on a square (or on terminals from a JSON file)
scalar     sign-flip polynomial problems: roots, minima, breaking verdicts
ode        translation action on the exponential solution family
maxwell    plane-wave residuals, O(h^2) convergence, complex rescaling
potential  point charge in n dimensions: scaling, gauge shift, flux, stencil
classify   symmetry-breaking verdicts for the bundled example problems
all        every subcommand in sequence, one combined manifest

Each run writes ``manifest_<subcommand>.json`` plus a deterministic set of
plot-data files into the output directory (``--out``, else the SSB_LAB_OUT
environment variable, else ./ssb_lab_out).  Settings resolve in the order
command line flags > --config JSON file > built-in defaults.  The process
exits 0 if every check passed, 1 if any failed (the manifest is still
written), and 2 on usage errors (one line on stderr): bad flags, config
keys that no subcommand knows, an output directory that cannot be created,
or settings no run can give a defined result for, such as a non-positive
square side, terminals that are not 3 or 4 distinct points within 1e150 of
the origin, a Maxwell grid too coarse for two levels or finer than 307
points per axis, a wave vector beyond 2**53, or a potential outside 2 to 171
dimensions, with mu or lambda outside [1e-60, 1e60], or with a charge whose
values overflow.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from datetime import datetime, timezone
from typing import Any, NoReturn

import numpy as np

from . import __version__
from . import electrostatics as es
from . import maxwell as mx
from . import ode
from . import scalar as sc
from . import steiner as st
from . import symmetry as sym
from .report import (CheckReport, RunManifest, make_check, manifest_json,
                     write_csv, write_segments, write_text_atomic)

DEFAULT_OUT = "ssb_lab_out"
ENV_OUT = "SSB_LAB_OUT"

DEFAULTS: dict[str, dict[str, Any]] = {
    "steiner": {"side": 1.0, "terminals": None, "seed": 0},
    "scalar": {},
    "ode": {"trials": 1000, "seed": 0},
    "maxwell": {"grid": mx.DEFAULT_GRID, "k": [1, 2, 2]},
    "potential": {"n": 3, "q": 1.0, "mu": 1.0, "lam": 2.0},
    "classify": {"seed": 0},
}

_CONFIG_KEYS = frozenset().union(*DEFAULTS.values())

# maxwell compares residuals on grids N/4, N/2 and N (each at least 4 points
# per axis); N >= 5 gives the two distinct levels a convergence ratio needs
MIN_MAXWELL_GRID = 5
# a run samples its waves as the residuals read them, so its memory grows
# only as N^2 (mx.residual_peak_bytes, 56 MiB at N = 307) and no longer
# limits the grid; its time grows as N^3, from about 0.7 s at N = 128 to
# about 7 s here
MAX_MAXWELL_GRID = 307
# ode holds each trial's three draws as Python floats and its error, about
# 260 bytes, and one trial takes about 3.4 us: 1000 trials run in about
# 3.4 ms, 10^6 in about 3 s with 260 MB, where 10^7 would take 2.6 GB
MAX_ODE_TRIALS = 1_000_000
# the plotted field q / (O_{n-1} r^{n-1}) divides by a normal float at
# r = 0.05 up to n = 171; from 172 the divisor is subnormal and loses bits,
# and from 173 a unit charge's field there overflows
MAX_POTENTIAL_DIM = 171
# the checks raise lambda * r (r <= 7) to powers up to 5, which must stay
# within 1e+-308; mu shares the bound, so r / mu and mu / lambda do too
SCALE_RANGE = (1e-60, 1e60)
# the bundled sign-flip problems and the verdict each must get
SIGN_FLIP_VERDICTS = ((sc.SignFlipProblem.SQUARE_ROOTS, sym.SSBKind.NARROW),
                      (sc.SignFlipProblem.QUARTIC_ROOTS, sym.SSBKind.GENERAL),
                      (sc.SignFlipProblem.QUARTIC_MINIMA, sym.SSBKind.NARROW))


class UsageError(Exception):
    """Input that no run can give a defined result for; ``main`` exits 2."""


# ---------------------------------------------------------------------------
# runners: each records its checks and plot-data files into one _Run
# ---------------------------------------------------------------------------

class _Run:
    """The checks and artifact file names of one run, in record order."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.checks: list[CheckReport] = []
        self.artifacts: list[str] = []

    def check(self, *args) -> None:
        self.checks.append(make_check(*args))

    def emit(self, name: str, writer, *args) -> None:
        """Write the file ``name`` into the output directory and list it."""
        writer(os.path.join(self.out_dir, name), *args)
        self.artifacts.append(name)


# shared fixtures: pure results of fixed inputs, computed at most once per
# run and shared by the runners of `all`; run_subcommand clears them, and
# sc.z2_solve, the cached solve of the bundled sign-flip problems

@functools.cache
def _d4() -> sym.FiniteGroup:
    return sym.dihedral_group(4)


@functools.cache
def _square_networks(side: float) -> tuple[tuple, tuple]:
    """Every topology's network on the square, and the shortest ones."""
    nets = st.optimize_all(st.square_terminals(side))
    return tuple(nets), tuple(st.select_minima(nets))


@functools.cache
def _z2_verdict(problem: sc.SignFlipProblem) -> sym.SSBVerdict:
    return sc.z2_verdict(problem)


def _run_steiner(cfg: dict[str, Any], run: _Run) -> None:
    custom = cfg["terminals"] is not None
    if custom:
        nets = st.optimize_all(cfg["terminals"])
        winners = st.select_minima(nets)
    else:
        nets, winners = _square_networks(float(cfg["side"]))
    best = min(net.total_length for net in nets)

    for i, net in enumerate(winners, start=1):
        run.emit(f"steiner_solution_{i}.seg", write_segments, net.segments())
    fermat_ok = all(st.check_fermat_condition(w).ok for w in winners)
    run.check("steiner.fermat_condition", "steiner.junction_angles",
              fermat_ok, True)

    if custom:
        run.check("steiner.solution_count_positive", "steiner.minimizers",
                  len(winners) >= 1, True)
        return

    side = float(cfg["side"])
    run.check("steiner.solution_count", "steiner.minimizers", len(winners), 2)
    run.check("steiner.best_length", "steiner.square.length",
              best, side * (1.0 + math.sqrt(3.0)), 1e-9)
    cross = [net for net in nets
             if net.topology.merged and net.topology.n_steiner == 1]
    if cross:
        run.emit("steiner_guess_x.seg", write_segments, cross[0].segments())
        run.check("steiner.x_guess_length", "steiner.square.diagonal_cross",
                  cross[0].total_length, side * math.sqrt(8.0), 1e-12)
    else:
        run.check("steiner.x_guess_found", "steiner.square.diagonal_cross",
                  False, True)
    orders = sorted(st.residual_symmetry(w, _d4()).order for w in winners)
    run.check("steiner.stabilizer_orders",
              "steiner.square.residual_symmetry", orders, [4, 4])
    if len(winners) == 2:
        quarter = sym.rotation2d(math.pi / 2.0, label="r90")
        mapped = sym.transform_config(quarter, winners[0].config())
        swapped = sym.config_equal(mapped, winners[1].config(),
                                   tol=st.NETWORK_MATCH_TOL)
        run.check("steiner.quarter_turn_swaps_solutions",
                  "steiner.square.rotation_between_optima", swapped, True)


def _run_scalar(cfg: dict[str, Any], run: _Run) -> None:
    inv_sqrt2 = 1.0 / math.sqrt(2.0)

    # z2_solutions and z2_verdict read the same cached solve, so the
    # verdicts below classify these same solutions
    xs = sc.z2_solutions(sc.SignFlipProblem.SQUARE_ROOTS)
    err = max(abs(a - b) for a, b in zip(sorted(xs), (-1.0, 1.0)))
    run.check("scalar.square_roots", "scalar.square.roots",
              err if len(xs) == 2 else None, 0.0, 1e-10)

    roots = sc.z2_solve(sc.SignFlipProblem.QUARTIC_ROOTS)
    locs = [r.location for r in roots]
    err = max(abs(a - b) for a, b in zip(locs, (-1.0, 0.0, 1.0)))
    run.check("scalar.quartic_roots", "scalar.quartic.roots",
              err if len(locs) == 3 else None, 0.0, 1e-10)
    mult = [r.multiplicity for r in roots]
    run.check("scalar.quartic_root_multiplicity",
              "scalar.quartic.double_root", mult, [1, 2, 1])

    minima = sc.z2_solve(sc.SignFlipProblem.QUARTIC_MINIMA)
    err = max(abs(a - b) for a, b in zip(sorted(cp.location for cp in minima),
                                         (-inv_sqrt2, inv_sqrt2)))
    run.check("scalar.quartic_minima", "scalar.quartic.minima",
              err if len(minima) == 2 else None, 0.0, 1e-10)
    err = max(abs(cp.value + 0.25) for cp in minima) if minima else None
    run.check("scalar.quartic_minimum_value", "scalar.quartic.well_depth",
              err, 0.0, 1e-12)

    for problem, expected in SIGN_FLIP_VERDICTS:
        verdict = _z2_verdict(problem)
        run.check(f"scalar.verdict.{problem.value}",
                  f"scalar.{problem.value}.verdict",
                  verdict.kind.value, expected.value)
        if problem is sc.SignFlipProblem.QUARTIC_ROOTS:
            # the verdict indexes the quartic's roots, which are locs
            idx = verdict.invariant_solution
            witness = locs[idx] if idx is not None else None
            run.check("scalar.symmetric_witness",
                      "scalar.quartic.invariant_root", witness, 0.0, 1e-9)

    grid = np.linspace(-1.5, 1.5, 301)
    rows = [(float(x), float(sc.DOUBLE_WELL(x)), float(sc.SQUARE_POLY(x)))
            for x in grid]
    run.emit("polynomial_samples.csv", write_csv,
             ["x", "double_well", "square_poly"], rows)


def _run_ode(cfg: dict[str, Any], run: _Run) -> None:
    rng = np.random.default_rng(int(cfg["seed"]))
    trials = int(cfg["trials"])
    errors = []
    for c, a, b in rng.uniform(-5.0, 5.0, size=(trials, 3)).tolist():
        two_step = ode.translate_solution(ode.translate_solution(c, a), b)
        one_step = ode.translate_solution(c, a + b)
        scale = max(abs(one_step), 1e-300)
        errors.append(abs(two_step - one_step) / scale)
    run.check("ode.composition_law", "ode.translation_group",
              _worst(errors), 0.0, 1e-12)

    run.check("ode.doubling_shift", "ode.log2_translation",
              ode.translate_solution(1.0, math.log(2.0)), 2.0, 1e-12)

    fixed = [c for c in np.linspace(-5.0, 5.0, 41).tolist()
             if all(abs(ode.translate_solution(c, a) - c) <= 1e-14
                    for a in (1.0, -1.0, 0.1, -0.1))]
    run.check("ode.unique_fixed_point", "ode.vacuum", fixed, [0.0])
    run.check("ode.vacuum_flag", "ode.vacuum",
              ode.is_vacuum(0.0) and not ode.is_vacuum(0.5), True)

    xs = np.linspace(-2.0, 2.0, 81)
    rows = [(float(x), float(-math.exp(x)), 0.0, float(math.exp(x)))
            for x in xs]
    run.emit("ode_family.csv", write_csv,
             ["x", "c_minus_1", "c_0", "c_1"], rows)


def _run_maxwell(cfg: dict[str, Any], run: _Run) -> None:
    n_grid = int(cfg["grid"])
    ns = sorted({max(mx.MIN_GRID, n_grid // 4),
                 max(mx.MIN_GRID, n_grid // 2), n_grid})
    spec = mx.make_helicity_wave(cfg["k"])
    # each level's snapshots are plane-wave fields, sampled slab by slab as
    # the residuals read them; the finest level's snapshots and residual
    # serve the rescaling check
    rows = [mx.study_level(spec, n)[0] for n in ns[:-1]]
    row, (f_t, f_plus, f_minus, dt) = mx.study_level(spec, ns[-1])
    rows.append(row)
    base = row[2:]

    # a norm that is exactly 0 (the divergence of an axis-aligned wave) has
    # no convergence ratio: the check then records null and fails
    div_ratio, evo_ratio = (rows[-2][i] / rows[-1][i] if rows[-1][i] else None
                            for i in (2, 3))
    run.check("maxwell.divergence_convergence", "maxwell.second_order",
              div_ratio, 4.0, 0.6)
    run.check("maxwell.evolution_convergence", "maxwell.second_order",
              evo_ratio, 4.0, 0.6)
    monotone = all(rows[i][2] > rows[i + 1][2] and rows[i][3] > rows[i + 1][3]
                   for i in range(len(rows) - 1))
    run.check("maxwell.residuals_decrease", "maxwell.refinement",
              monotone, True)

    run.checks.append(_rescaling_check(f_t, f_plus, f_minus, dt, base))

    # the vacuum F = 0, sampled as the zero-amplitude wave
    zero = mx.PlaneWaveField(mx.make_helicity_wave(cfg["k"], amplitude=0.0),
                             ns[0])
    vacuum = mx.maxwell_residual(zero, zero, zero, dt)
    run.check("maxwell.vacuum_residual", "maxwell.vacuum",
              max(vacuum), 0.0, 0.0)

    table = [(n, float(h), float(d), float(e)) for n, h, d, e in rows]
    run.emit("maxwell_convergence.csv", write_csv,
             ["n_grid", "h", "div_norm", "evolution_norm"], table)


def _rescaling_check(f_t: mx.Field, f_plus: mx.Field, f_minus: mx.Field,
                     dt: float, base: tuple[float, float]) -> CheckReport:
    """Whether the residual norms of z * F are |z| times ``base``, the
    norms of F, for z = 2 - 3i.

    z = i, the E -> B duality rotation, is not recomputed: multiplying by i
    swaps the parts of each entry and flips one sign, without rounding, and
    every later step of the residual is exactly symmetric under that, so
    its norms equal ``base`` bit for bit and its errors are 0.
    ``tests/test_maxwell.py::test_residual_times_i_is_bit_identical`` pins
    that identity."""
    z = 2.0 - 3.0j
    scaled = mx.maxwell_residual(f_t, f_plus, f_minus, dt, z=z)
    errors = [_rel_err(s, abs(z) * b) for b, s in zip(base, scaled)]
    return make_check("maxwell.rescaling_linearity",
                      "maxwell.complex_symmetry", _worst(errors), 0.0, 1e-12)


def _rel_err(value: float, reference: float) -> float:
    """Relative error, or the absolute one when the reference is 0."""
    err = abs(value - reference)
    return err / abs(reference) if reference != 0.0 else err


def _worst(errors: list[float]) -> float | None:
    """The largest error (0 for none), or None, which fails the check, if
    any error is NaN or infinite: max() would pass over a NaN."""
    if not all(math.isfinite(err) for err in errors):
        return None
    return max(errors, default=0.0)


def _run_potential(cfg: dict[str, Any], run: _Run) -> None:
    n = int(cfg["n"])
    q = float(cfg["q"])
    mu = float(cfg["mu"])
    lam = float(cfg["lam"])

    four_pi = 4.0 * math.pi
    for nn, area in ((3, four_pi), (4, 2.0 * math.pi ** 2)):
        run.check(f"potential.sphere_area_{nn}d", f"geometry.O{nn - 1}",
                  es.unit_sphere_area(nn), area, 1e-13 * area)

    errors = []
    for nn in (3, 4, 5, 6):
        sol = es.PotentialSolution(n=nn, q=q)
        for lam_ in (0.5, 2.0, 10.0):
            for r in (0.1, 1.0, 7.0):
                lhs = lam_ ** (nn - 2) * es.potential(sol, lam_ * r)
                rhs = es.potential(sol, r)
                errors.append(_rel_err(lhs, rhs))
    run.check("potential.scaling_identity", "potential.power_law_scaling",
              _worst(errors), 0.0, 1e-12)

    # the 2d shifts and the enclosed charge are linear in q, and so is their
    # rounding: their absolute tolerances grow with |q| (at |q| <= 1, 1e-13)
    q_tol = 1e-13 * max(1.0, abs(q))
    sol2 = es.PotentialSolution(n=2, q=q, mu=mu)
    errors = []
    for lam_ in (0.5, 2.0, math.e, 10.0):
        expected_shift = -(q / (2.0 * math.pi)) * math.log(lam_)
        for r in (0.3, 1.0, 4.7):
            shift = es.potential(sol2, lam_ * r) - es.potential(sol2, r)
            errors.append(abs(shift - expected_shift))
    run.check("potential.log_anomaly", "potential.2d_gauge_shift",
              _worst(errors), 0.0, q_tol)

    scaled_sol, gauge_shift = es.apply_scaling(sol2, es.ScalingTransform(lam))
    measured_shift = es.potential(sol2, lam * 1.3) - es.potential(sol2, 1.3)
    run.check("potential.gauge_shift", "potential.2d_reference_rescale",
              measured_shift, gauge_shift, q_tol)
    run.check("potential.reference_moves", "potential.2d_reference_rescale",
              scaled_sol.mu, mu / lam, 1e-13 * mu / lam)

    errors = []
    for nn in (2, 3, 4, 6):
        sol = es.PotentialSolution(n=nn, q=q)
        for r in (0.5, 1.0, 3.0):
            lhs = es.field_magnitude(sol, lam * r)
            rhs = lam ** (-(nn - 1)) * es.field_magnitude(sol, r)
            errors.append(_rel_err(lhs, rhs))
    run.check("potential.field_scaling", "potential.field_power_law",
              _worst(errors), 0.0, 1e-13)

    errors2, errors3 = [], []
    for qq in (1.0, 3.0, -2.0):
        for r in (0.5, 1.0, 5.0):
            flux2 = es.flux_integral(es.PotentialSolution(n=2, q=qq), r)
            flux3 = es.flux_integral(es.PotentialSolution(n=3, q=qq), r)
            errors2.append(abs(flux2 - qq))
            errors3.append(abs(flux3 - qq))
    run.check("potential.flux_2d", "potential.gauss_2d",
              _worst(errors2), 0.0, 1e-9)
    run.check("potential.flux_3d", "potential.gauss_3d",
              _worst(errors3), 0.0, 1e-6)

    errors = []
    for nn in range(2, 9):
        sol = es.PotentialSolution(n=nn, q=q)
        for r in (0.5, 1.0, 5.0):
            errors.append(abs(es.enclosed_charge(sol, r) - q))
    run.check("potential.flux_identity", "potential.gauss_analytic",
              _worst(errors), 0.0, q_tol)

    # the stencil checks use a unit charge: at q = 0 the ratio would be 0/0
    errors = []
    directions = {2: np.array([3.0, 4.0]) / 5.0,
                  3: np.array([2.0, 3.0, 6.0]) / 7.0,
                  4: np.array([1.0, 2.0, 2.0, 4.0]) / 5.0}
    for nn in (2, 3, 4):
        sol = es.PotentialSolution(n=nn, q=1.0)
        x = directions[nn]
        res_h = abs(es.laplacian_residual(sol, x, 1e-2))
        res_h2 = abs(es.laplacian_residual(sol, x, 5e-3))
        errors.append(abs(res_h / res_h2 - 4.0))
    run.check("potential.laplacian_convergence",
              "potential.off_origin_harmonic", _worst(errors), 0.0, 0.5)
    res = abs(es.laplacian_residual(es.PotentialSolution(n=3, q=four_pi),
                                    np.array([1.0, 0.0, 0.0]), 1e-3))
    run.check("potential.laplacian_residual_small",
              "potential.off_origin_harmonic", res, 0.0, 1e-4)

    sol = es.PotentialSolution(n=n, q=q, mu=mu if n == 2 else None)
    rows = [(r, es.potential(sol, r), es.field_magnitude(sol, r))
            for r in _plot_radii(n, mu)]
    run.emit(f"phi_vs_r_n{n}.csv", write_csv, ["r", "phi", "field"], rows)


def _plot_radii(n: int, mu: float) -> list[float]:
    """The radii of the potential's plot data, with mu for n = 2, where
    the potential crosses 0."""
    return sorted(set(float(r) for r in np.geomspace(0.05, 20.0, 61))
                  | ({mu} if n == 2 else set()))


def _run_classify(cfg: dict[str, Any], run: _Run) -> None:
    winners = _square_networks(1.0)[1]
    verdict = sym.classify_ssb(_d4(), [w.config() for w in winners],
                               tol=st.NETWORK_MATCH_TOL)
    run.check("classify.steiner_square", "classify.square_networks",
              verdict.kind.value, sym.SSBKind.NARROW.value)
    run.check("classify.steiner_square_witnesses", "classify.square_networks",
              sorted(w.order for w in verdict.witnesses), [4, 4])

    square_cfg = sym.PointConfig(st.square_terminals(1.0),
                                 ((0, 1), (1, 2), (2, 3), (0, 3)))
    unbroken = sym.classify_ssb(_d4(), [square_cfg])
    run.check("classify.square_itself", "classify.control",
              unbroken.kind.value, sym.SSBKind.UNBROKEN.value)

    for problem, expected in SIGN_FLIP_VERDICTS:
        run.check(f"classify.{problem.value}", f"classify.{problem.value}",
                  _z2_verdict(problem).kind.value, expected.value)


_RUNNERS = {
    "steiner": _run_steiner,
    "scalar": _run_scalar,
    "ode": _run_ode,
    "maxwell": _run_maxwell,
    "potential": _run_potential,
    "classify": _run_classify,
}


def run_subcommand(name: str, config: dict[str, Any] | None = None,
                   out_dir: str = DEFAULT_OUT) -> RunManifest:
    """Run one subcommand (or 'all'), emit its plot data, return the manifest."""
    for fixture in (_d4, _square_networks, _z2_verdict, sc.z2_solve):
        fixture.cache_clear()
    if name != "all" and name not in _RUNNERS:
        raise ValueError(f"unknown subcommand {name!r}")
    cfgs = {sub: resolve_config(sub, config or {})
            for sub in (_RUNNERS if name == "all" else [name])}
    for sub, cfg in cfgs.items():
        _validate_config(sub, cfg)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:  # a regular file in the way, or no permission
        raise UsageError(f"cannot use {out_dir!r} as the output directory: "
                         f"{exc.strerror}") from None
    run = _Run(out_dir)
    for sub, cfg in cfgs.items():
        _RUNNERS[sub](cfg, run)
    # every subcommand with a seed resolves the same (validated) one
    seed = next((cfg["seed"] for cfg in cfgs.values() if "seed" in cfg), 0)
    return RunManifest(subcommand=name,
                       config=cfgs if name == "all" else cfgs[name],
                       seed=seed, version=__version__,
                       reports=tuple(run.checks),
                       artifacts=tuple(sorted(run.artifacts)))


def resolve_config(name: str, overrides: dict[str, Any]) -> dict[str, Any]:
    """Defaults overlaid with any recognized override keys."""
    cfg = dict(DEFAULTS[name])
    for key, value in overrides.items():
        if key in cfg and value is not None:
            cfg[key] = value
    return cfg


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _validate_config(name: str, cfg: dict[str, Any]) -> None:
    """Raise UsageError for a resolved config no run can handle."""
    for key, value in cfg.items():
        # the manifest records the config, and strict JSON has no NaN
        if isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"{key} must be finite, got {value!r}")
    if "seed" in cfg and not (_is_int(cfg["seed"]) and cfg["seed"] >= 0):
        raise UsageError(f"seed must be an integer >= 0, got {cfg['seed']!r}")
    if name == "steiner":
        side = cfg["side"]
        if not (_is_number(side) and side > 0):
            raise UsageError(f"square side must be a positive number, "
                             f"got {side!r}")
        _check_terminals(cfg)
    elif name == "ode":
        trials = cfg["trials"]
        if not (_is_int(trials) and 1 <= trials <= MAX_ODE_TRIALS):
            raise UsageError(f"trials must be an integer from 1 to "
                             f"{MAX_ODE_TRIALS}, got {trials!r}")
    elif name == "maxwell":
        grid = cfg["grid"]
        if not (_is_int(grid)
                and MIN_MAXWELL_GRID <= grid <= MAX_MAXWELL_GRID):
            raise UsageError(f"grid must be an integer from "
                             f"{MIN_MAXWELL_GRID} to {MAX_MAXWELL_GRID}, "
                             f"got {grid!r}")
        try:
            mx.make_helicity_wave(cfg["k"])
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    elif name == "potential":
        if not (_is_int(cfg["n"]) and 2 <= cfg["n"] <= MAX_POTENTIAL_DIM):
            raise UsageError(f"dimension must be an integer from 2 to "
                             f"{MAX_POTENTIAL_DIM}, got {cfg['n']!r}")
        if not _is_number(cfg["q"]):
            raise UsageError(f"charge must be a number, got {cfg['q']!r}")
        lo, hi = SCALE_RANGE
        for key, what in (("mu", "reference radius"),
                          ("lam", "scale factor")):
            if not (_is_number(cfg[key]) and lo <= cfg[key] <= hi):
                raise UsageError(f"{what} must be a number from {lo:g} to "
                                 f"{hi:g}, got {cfg[key]!r}")
        largest_q = sys.float_info.max / 2 / _unit_charge_peak(
            cfg["n"], cfg["mu"], cfg["lam"])
        if not abs(cfg["q"]) <= largest_q:
            raise UsageError(f"charge must be at most {largest_q:.6g} in "
                             f"magnitude with this n, mu and lambda, or the "
                             f"run overflows; got {cfg['q']!r}")


def _unit_charge_peak(n: int, mu: float, lam: float) -> float:
    """The largest magnitude a potential run with n, mu, lambda and q = 1
    computes; every value of a run is linear in q, so with charge q the
    largest is |q| times this.

    It is the largest of three values.  The plotted field at the smallest
    plotted radius r0, 1 / (O_{n-1} r0^{n-1}), where r0 is 0.05, or mu for
    n = 2 when mu is smaller; the plotted potential is r / (n - 2) times
    the field for n > 2.  The field_scaling check's field of n = 6 at
    lambda r = 0.5 min(lambda, 1), the largest of its dimensions 2, 3, 4, 6
    (1 / (O_{n-1} s^{n-1}) grows with n for s <= 0.5) and radii 0.5, 1, 3;
    both sides of its identity are that field.  The scaling_identity
    check's potential of n = 6 at its smallest radius, 0.5 x 0.1 = 0.05:
    1290.  Every other value is at most 110: the 2d potentials, of
    |log(r / mu)| <= 277 over 2 pi, their differences and shifts, and the
    flux_identity field, at most 3.94 (n = 8, r = 0.5).  The charge is
    bounded by half the largest float over this: the run's values and this
    estimate differ by a few roundings, far less than that factor of 2.
    """
    return max(es.field_magnitude(es.PotentialSolution(n=n, q=1.0),
                                  _plot_radii(n, mu)[0]),
               es.field_magnitude(es.PotentialSolution(n=6, q=1.0),
                                  0.5 * min(lam, 1.0)),
               es.potential(es.PotentialSolution(n=6, q=1.0), 0.05))


def _check_terminals(cfg: dict[str, Any]) -> None:
    """UsageError unless the run's terminals, the square's corners when no
    terminals are given, meet ``steiner.terminal_array``'s rules."""
    try:
        st.terminal_array(st.square_terminals(cfg["side"])
                          if cfg["terminals"] is None else cfg["terminals"])
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _load_json(path: str, what: str) -> Any:
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read {what} {path!r}: "
                         f"{exc.strerror}") from None
    except ValueError as exc:  # malformed JSON or text encoding
        raise UsageError(f"{what} {path!r} is not JSON: {exc}") from None


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a usage error in one stderr line,
    without the usage synopsis argparse prints before it."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {' '.join(message.splitlines())}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="seed for every randomized piece (default 0)")
    common.add_argument("--out", default=None,
                        help=f"output directory (default ${ENV_OUT} "
                             f"or ./{DEFAULT_OUT})")
    common.add_argument("--config", default=None,
                        help="JSON file with settings (flags win over it)")
    common.add_argument("--json", action="store_true",
                        help="print the manifest JSON to stdout")

    parser = _Parser(
        prog="ssb-lab",
        description="numerical laboratory for spontaneous symmetry breaking")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("steiner", parents=[common],
                       help="shortest networks and their residual symmetry")
    p.add_argument("--square", dest="side", type=float, default=None,
                   metavar="SIDE",
                   help="side of the centered square (default 1)")
    p.add_argument("--terminals", default=None, metavar="FILE",
                   help="JSON file [[x, y], ...] of 3 or 4 terminals")

    sub.add_parser("scalar", parents=[common],
                   help="polynomial roots, minima and verdicts")
    sub.add_parser("ode", parents=[common],
                   help="translation action on exponential solutions")

    p = sub.add_parser("maxwell", parents=[common],
                       help="plane-wave residuals and complex rescaling")
    p.add_argument("--grid", type=int, default=None, metavar="N",
                   help=f"points per axis, {MIN_MAXWELL_GRID} to "
                        f"{MAX_MAXWELL_GRID} (default {mx.DEFAULT_GRID})")

    p = sub.add_parser("potential", parents=[common],
                       help="point charge in n dimensions")
    p.add_argument("-n", "--dim", dest="n", type=int, default=None,
                   metavar="DIM",
                   help="spatial dimension (default 3)")
    p.add_argument("-q", "--charge", dest="q", type=float, default=None,
                   metavar="CHARGE",
                   help="charge (default 1)")
    p.add_argument("--mu", type=float, default=None,
                   help="n=2 reference radius (default 1)")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="scale factor for the rescaling checks (default 2)")

    sub.add_parser("classify", parents=[common],
                   help="verdicts for the bundled problems")
    sub.add_parser("all", parents=[common],
                   help="run everything into one manifest")
    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict[str, Any]:
    """The settings given as flags (each flag's dest is its config key)."""
    overrides = {key: value for key, value in vars(args).items()
                 if value is not None and key in _CONFIG_KEYS}
    if "terminals" in overrides:
        overrides["terminals"] = _load_json(overrides["terminals"],
                                            "terminals file")
    return overrides


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    out_dir = args.out or os.environ.get(ENV_OUT) or DEFAULT_OUT
    try:
        config: dict[str, Any] = {}
        if args.config is not None:
            config = _load_json(args.config, "config file")
            if not isinstance(config, dict):
                raise UsageError("config file must hold a JSON object")
            unknown = sorted(config.keys() - _CONFIG_KEYS)
            if unknown:
                raise UsageError(f"config file has unknown keys "
                                 f"{', '.join(map(repr, unknown))}")
        config.update(_overrides_from_args(args))
        manifest = run_subcommand(args.subcommand, config, out_dir)
    except UsageError as exc:
        print(f"ssb-lab {args.subcommand}: error: {exc}", file=sys.stderr)
        return 2
    stamp = datetime.now(timezone.utc).isoformat()
    text = manifest_json(manifest, generated_at=stamp)
    manifest_path = os.path.join(out_dir,
                                 f"manifest_{args.subcommand}.json")
    write_text_atomic(manifest_path, text)

    if args.json:
        print(text, end="")
    else:
        for report in manifest.reports:
            status = "PASS" if report.passed else "FAIL"
            detail = f"measured={report.measured!r} expected={report.expected!r}"
            if report.tolerance is not None:
                detail += f" tol={report.tolerance:g}"
            print(f"[{status}] {report.name}: {detail}")
        failed = sum(1 for r in manifest.reports if not r.passed)
        print(f"{len(manifest.reports)} checks, {failed} failed; "
              f"manifest: {manifest_path}")
    return 0 if manifest.all_passed() else 1


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
