"""Vacuum field residuals on the periodic cube.

Central differences turn exp(i k.x) into an eigenfunction: the discrete
d/dx_j pulls down i sin(k_j h)/h instead of i k_j.  Both residual norms of a
sampled plane wave therefore have closed forms, which these tests compute
independently and compare against the grid computation to rounding.
"""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssb_lab import cli
from ssb_lab.maxwell import (BOX_LENGTH, ComplexFieldGrid, PlaneWaveField,
                             PlaneWaveSpec, _ddx, _slabs, discrete_curl,
                             discrete_div,
                             make_helicity_wave, maxwell_residual,
                             sample_plane_wave, scale_field, study_level,
                             wave_snapshots, wave_vector)

WAVE_VECTORS = [(1, 0, 0), (0, 2, 0), (1, 2, 2), (3, -1, 2), (-2, 0, 5)]


def _vacuum(n_grid):
    """The zero field, as the zero-amplitude wave."""
    return PlaneWaveField(make_helicity_wave((1, 2, 2), amplitude=0.0),
                          n_grid)


def _closed_form_norms(spec, n_grid, dt_ratio=0.1):
    """Exact residual norms for the sampled wave on an n_grid^3 grid."""
    h = BOX_LENGTH / n_grid
    dt = dt_ratio * h
    k = np.asarray(spec.k, dtype=float)
    eps = np.asarray(spec.polarization) * spec.amplitude
    s = np.sin(k * h) / h  # discrete wave numbers
    div = abs(np.sum(s * eps))
    evolution = (-1j * math.sin(spec.omega * dt) / dt) * eps \
        - np.cross(s, eps)
    return div, float(np.linalg.norm(evolution)), dt


def _roll_ddx(values, axis, h):
    """The stencil as two rolled copies, the reference for ``_ddx``."""
    return (np.roll(values, -1, axis=axis)
            - np.roll(values, 1, axis=axis)) / (2.0 * h)


def _rolled_div_curl(v, h):
    """The divergence and curl of the stored (N, N, N, 3) values ``v``."""
    div = (_roll_ddx(v[..., 0], 0, h) + _roll_ddx(v[..., 1], 1, h)
           + _roll_ddx(v[..., 2], 2, h))
    curl = np.empty_like(v)
    curl[..., 0] = _roll_ddx(v[..., 2], 1, h) - _roll_ddx(v[..., 1], 2, h)
    curl[..., 1] = _roll_ddx(v[..., 0], 2, h) - _roll_ddx(v[..., 2], 0, h)
    curl[..., 2] = _roll_ddx(v[..., 1], 0, h) - _roll_ddx(v[..., 0], 1, h)
    return div, curl


def _unfused_residual(f_t, f_plus, f_minus, dt, z=None):
    """The residual norms from the whole div, curl and evolution fields of
    the stored snapshots, their values multiplied by ``z`` first when it is
    given: the one whole-grid reference for ``maxwell_residual``."""
    def values(f):
        return f.values if z is None else z * f.values

    div, curl = _rolled_div_curl(values(f_t), f_t.spacing)
    evolution = (values(f_plus) - values(f_minus)) / (2.0 * dt) + 1j * curl
    return (float(np.max(np.abs(div))),
            float(np.max(np.sqrt(np.sum(np.abs(evolution) ** 2, axis=-1)))))


def _random_field(rng, n, component_major):
    shape = (3, n, n, n) if component_major else (n, n, n, 3)
    v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return np.moveaxis(v, 0, -1) if component_major else v


# grids of one slab and of several: one plane past a multiple of the slab
# height, a multiple, and neither
_GRID_SIZES = st.one_of(st.sampled_from([4, 7, 9, 12, 17, 33]),
                        st.integers(4, 40))
_SEEDS = st.integers(0, 2 ** 32 - 1)


# ---------------------------------------------------------------------------
# wave construction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", WAVE_VECTORS)
def test_helicity_wave_is_transverse_and_circular(k):
    spec = make_helicity_wave(k)
    kv = np.asarray(k, dtype=float)
    eps = np.asarray(spec.polarization)
    assert abs(np.vdot(kv, eps)) < 1e-12
    assert np.vdot(eps, eps).real == pytest.approx(1.0, abs=1e-12)
    # curl eigenvector: k x eps = -i |k| eps
    defect = np.cross(kv, eps) + 1j * spec.omega * eps
    assert np.max(np.abs(defect)) < 1e-12


def test_omega_is_the_wave_number():
    assert make_helicity_wave((1, 2, 2)).omega == pytest.approx(3.0)


def test_zero_wave_vector_rejected():
    with pytest.raises(ValueError):
        make_helicity_wave((0, 0, 0))


def test_non_integer_wave_vector_rejected():
    with pytest.raises(ValueError):
        make_helicity_wave((1.5, 0.0, 0.0))


@pytest.mark.parametrize("k", [(0, 0, 0), (1, 2), "ab", (1.5, 0, 0),
                               (math.nan, 0, 0), (math.inf, 0, 0),
                               ((1, 2), (3,)), ("1", "2", "2"), None,
                               (0, 2.0 ** 53 + 2.0, 0), (1e300, 0, 0)])
def test_wave_vector_rule(k):
    # one rule, applied by the helper, the wave builder and the spec
    with pytest.raises(ValueError):
        wave_vector(k)
    with pytest.raises(ValueError):
        make_helicity_wave(k)
    with pytest.raises(ValueError):
        PlaneWaveSpec(k=k, polarization=np.array([1.0, 1j, 0.0]))


def test_wave_vector_accepts_integer_valued_numbers():
    np.testing.assert_array_equal(wave_vector([1, -2.0, 0]), [1.0, -2.0, 0.0])
    edge = 2.0 ** 53  # the largest magnitude allowed
    np.testing.assert_array_equal(wave_vector([edge, -edge, 1]),
                                  [edge, -edge, 1.0])


@pytest.mark.parametrize("amplitude", [math.nan, math.inf,
                                       complex(math.inf, 0.0),
                                       complex(0.0, math.nan)])
def test_non_finite_amplitude_rejected(amplitude):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="amplitude"):
            make_helicity_wave((1, 2, 2), amplitude=amplitude)


def test_longitudinal_polarization_rejected():
    with pytest.raises(ValueError):
        PlaneWaveSpec(k=np.array([0, 0, 1]),
                      polarization=np.array([0.0, 0.0, 1.0 + 0.0j]))


def test_wrong_helicity_rejected():
    # conjugate polarization belongs to k x eps = +i |k| eps
    good = make_helicity_wave((0, 0, 1))
    with pytest.raises(ValueError):
        PlaneWaveSpec(k=np.array([0, 0, 1]),
                      polarization=np.conj(good.polarization))


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_field_grid_validation():
    with pytest.raises(ValueError):
        ComplexFieldGrid(np.zeros((4, 4, 5, 3), dtype=complex), 0.1, 0.0)
    with pytest.raises(ValueError):
        ComplexFieldGrid(np.zeros((3, 3, 3, 3), dtype=complex), 0.1, 0.0)
    with pytest.raises(ValueError):
        ComplexFieldGrid(np.zeros((4, 4, 4, 3), dtype=complex), 0.0, 0.0)


@pytest.mark.parametrize("spacing", [math.inf, -math.inf, math.nan, -0.5])
def test_field_grid_rejects_a_spacing_that_is_not_positive_and_finite(
        spacing):
    # an infinite spacing made every stencil read 0, an exact solution
    with pytest.raises(ValueError, match="spacing"):
        ComplexFieldGrid(np.ones((4, 4, 4, 3), dtype=complex), spacing, 0.0)


def test_field_grid_values_are_read_only():
    f = ComplexFieldGrid(np.zeros((4, 4, 4, 3), dtype=complex), 0.5, 0.0)
    with pytest.raises(ValueError):
        f.values[0, 0, 0, 0] = 1.0


def test_caller_array_is_copied_and_stays_writable():
    values = np.zeros((4, 4, 4, 3), dtype=complex)
    f = ComplexFieldGrid(values, 0.5, 0.0)
    assert values.flags.writeable
    values[0, 0, 0, 0] = 1.0
    assert f.values[0, 0, 0, 0] == 0.0
    assert not f.values.flags.writeable


def test_computed_grids_are_read_only():
    f = sample_plane_wave(make_helicity_wave((1, 2, 2)), n_grid=4)
    for grid in (f, scale_field(f, 2.0 - 3.0j)):
        with pytest.raises(ValueError):
            grid.values[0, 0, 0, 0] = 1.0


@pytest.mark.parametrize("k", WAVE_VECTORS)
@pytest.mark.parametrize("n_grid", [4, 7, 16])
@pytest.mark.parametrize("time", [0.0, 0.37, -2.5])
def test_separable_sampling_matches_the_direct_exponential(k, n_grid, time):
    spec = make_helicity_wave(k, amplitude=0.6 - 0.8j)
    x = BOX_LENGTH / n_grid * np.arange(n_grid)
    gx, gy, gz = np.meshgrid(x, x, x, indexing="ij")
    phase = spec.k[0] * gx + spec.k[1] * gy + spec.k[2] * gz \
        - spec.omega * time
    direct = (spec.amplitude * np.exp(1j * phase))[..., None] \
        * spec.polarization
    got = sample_plane_wave(spec, n_grid, time).values
    assert np.max(np.abs(got - direct)) <= 1e-14


def test_sampled_wave_shape_and_periodic_phase():
    spec = make_helicity_wave((1, 0, 0))
    f = sample_plane_wave(spec, n_grid=8)
    assert f.values.shape == (8, 8, 8, 3)
    # one full period across the box: first and mid plane differ by e^{i pi}
    np.testing.assert_allclose(f.values[4], -f.values[0], atol=1e-12)


def test_snapshots_are_centered_in_time():
    spec = make_helicity_wave((1, 2, 2))
    f_t, f_plus, f_minus, dt = wave_snapshots(spec, 8, time=0.5)
    assert f_t.time == 0.5
    assert f_plus.time == pytest.approx(0.5 + dt)
    assert f_minus.time == pytest.approx(0.5 - dt)
    assert dt == pytest.approx(0.1 * BOX_LENGTH / 8)


@pytest.mark.parametrize("time", [math.inf, -math.inf, math.nan])
def test_a_non_finite_time_is_rejected(time):
    # an infinite time used to sample an all-NaN grid, with a warning
    spec = make_helicity_wave((1, 2, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for make in (lambda: PlaneWaveField(spec, 8, time),
                     lambda: sample_plane_wave(spec, 8, time=time),
                     lambda: ComplexFieldGrid(
                         np.zeros((4, 4, 4, 3), dtype=complex), 0.1, time)):
            with pytest.raises(ValueError, match="time"):
                make()


def test_plane_wave_field_validation_and_read_only_factors():
    spec = make_helicity_wave((1, 2, 2))
    with pytest.raises(ValueError, match="at least 4"):
        PlaneWaveField(spec, 3)
    with pytest.raises(TypeError):
        PlaneWaveField(spec, 8.0)
    f = PlaneWaveField(spec, 8, 0.5)
    assert (f.n_grid, f.spacing, f.time) == (8, BOX_LENGTH / 8, 0.5)
    assert f.px.shape == (3, 8) and f.eyz.shape == (8, 8)
    for factor in (f.px, f.eyz):
        with pytest.raises(ValueError):
            factor[0, 0] = 1.0


_WAVE_VECTOR = st.tuples(*[st.integers(-6, 6)] * 3).filter(any)


@settings(derandomize=True, deadline=None)
@given(_WAVE_VECTOR, st.integers(4, 20), st.floats(-10.0, 10.0),
       st.data())
def test_sampled_planes_equal_the_stored_grid_bit_for_bit(k, n, time, data):
    # any list of x-planes, taken modulo N, so -1 and N are the two ends
    planes = np.array([-1, *data.draw(st.lists(st.integers(-1, n),
                                               max_size=n)), n])
    spec = make_helicity_wave(k, amplitude=0.6 - 0.8j)
    stored = sample_plane_wave(spec, n, time)
    for f in (PlaneWaveField(spec, n, time), stored):
        for c in range(3):
            out = np.empty((len(planes), n, n), dtype=complex)
            assert f.read_planes(c, planes, out).tobytes() \
                == stored.values[planes % n, ..., c].tobytes()


@pytest.mark.parametrize("n_grid", [4, 5, 8, 9, 13, 16, 17, 20])
@pytest.mark.parametrize("z", [None, 1j, 2.0 - 3.0j])
def test_residual_of_sampled_fields_equals_residual_of_stored_grids(n_grid,
                                                                    z):
    # one slab, a slab and one plane, and several slabs: the residual of
    # the sampled snapshots, of the stored ones and the whole-grid reference
    for k, (amplitude, time) in itertools.product(
            WAVE_VECTORS, [(1.0, 0.0), (0.6 - 0.8j, 0.37)]):
        spec = make_helicity_wave(k, amplitude=amplitude)
        *fields, dt = wave_snapshots(spec, n_grid, time=time)
        stored = [sample_plane_wave(spec, n_grid, f.time) for f in fields]
        assert maxwell_residual(*fields, dt, z=z) \
            == maxwell_residual(*stored, dt, z=z) \
            == _unfused_residual(*stored, dt, z)
    assert discrete_div(fields[0]).tobytes() \
        == discrete_div(stored[0]).tobytes()
    assert discrete_curl(fields[0]).tobytes() \
        == discrete_curl(stored[0]).tobytes()


# ---------------------------------------------------------------------------
# residuals against the closed forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [(1, 2, 2), (3, -1, 2), (3, 0, 1), (1, 1, 1),
                               (2, -1, 5)])
@pytest.mark.parametrize("n_grid", [8, 16, 32, 64])
def test_residual_norms_match_closed_form(k, n_grid):
    eps_mach = np.finfo(float).eps
    # the residual shrinks like h^2 while stencil rounding grows like 1/h
    rel = eps_mach * n_grid ** 3
    # the discrete wave numbers s are parallel to k, and so exactly
    # transverse to eps, when the nonzero |k_j| agree: div F is then 0
    div_is_zero = len({abs(kj) for kj in k if kj}) == 1
    spec = make_helicity_wave(k, amplitude=0.3 - 1.2j)
    f_t, f_plus, f_minus, dt = wave_snapshots(spec, n_grid)
    div_ref, evo_ref, dt_ref = _closed_form_norms(spec, n_grid)
    assert dt == pytest.approx(dt_ref, rel=1e-15)
    for z in (None, 1j, 2.0 - 3.0j):
        scale = 1.0 if z is None else abs(z)
        div_norm, evo_norm = maxwell_residual(f_t, f_plus, f_minus, dt, z=z)
        if div_is_zero:
            # each sampled phase k.x rounds by up to eps 2pi |k|_1, and each
            # of the three difference quotients divides by 2h = 4pi/N
            assert div_norm <= 3 * eps_mach * sum(map(abs, k)) * n_grid \
                * scale * abs(spec.amplitude)
        else:
            assert div_norm == pytest.approx(scale * div_ref, rel=rel)
        assert evo_norm == pytest.approx(scale * evo_ref, rel=rel)


@settings(derandomize=True, deadline=None)
@given(_GRID_SIZES, st.sampled_from([0, 1, 2]), st.booleans(), _SEEDS)
def test_slice_stencil_equals_rolled_copies_bit_for_bit(n, axis,
                                                         component_major,
                                                         seed):
    # on every slab, with the halo planes
    rng = np.random.default_rng(seed)
    f = ComplexFieldGrid(_random_field(rng, n, component_major),
                         float(rng.uniform(0.01, 2.0)), 0.0)
    for x0, x1, v in _slabs(f):
        for c in range(3):
            got = _ddx(v[c], axis, f.spacing,
                       np.empty((x1 - x0, n, n), dtype=complex))
            want = _roll_ddx(f.values[..., c], axis, f.spacing)[x0:x1]
            assert got.tobytes() == want.tobytes()


# with slabs of 4 planes the last slab holds 4 (N = 4), 1 (5, 13), 2 (6, 18)
# or 3 (7, 19) planes
@pytest.mark.parametrize("n", [4, 5, 6, 7, 13, 18, 19])
@pytest.mark.parametrize("axis", [1, 2])
def test_flat_stencil_writes_the_rolled_difference_into_out(n, axis):
    # the y and z differences run over the flattened slab, so every entry,
    # the wrapped ends too, and inf or NaN operands, must come out as the
    # rolled copies' difference times 1/2h, bit for bit, in the caller's out
    rng = np.random.default_rng(n)
    values = _random_field(rng, n, False)
    flat = values.reshape(-1)
    spots = rng.choice(flat.size, size=flat.size // 20, replace=False)
    flat[spots] = rng.choice([np.inf, -np.inf, np.nan, complex(np.inf, np.nan),
                              complex(1.0, -np.inf)], size=spots.size)
    for edge in (0, -1):  # a non-finite entry in each wrapped end
        values[n // 2, 1, edge, 2] = values[n // 2, edge, 1, 1] = np.nan
    h = 0.3
    f = ComplexFieldGrid(values, h, 0.0)
    with np.errstate(all="ignore"):
        for x0, x1, v in _slabs(f):
            for c in range(3):
                out = np.empty((x1 - x0, n, n), dtype=complex)
                assert _ddx(v[c], axis, h, out) is out
                rolled = f.values[x0:x1, ..., c]
                want = np.roll(rolled, -1, axis) - np.roll(rolled, 1, axis)
                parts = want.view(float)
                parts *= 1.0 / (2.0 * h)
                assert out.tobytes() == want.tobytes()
    assert x1 - x0 == (n - 1) % 4 + 1  # the last slab's height


def test_flat_stencil_rejects_an_out_that_is_not_contiguous():
    # flattening such an out would copy it and drop the writes silently
    slab = np.ones((3, 6, 6), dtype=complex)
    out = np.empty((1, 6, 12), dtype=complex)[..., ::2]
    with pytest.raises(ValueError, match="contiguous"):
        _ddx(slab, 2, 0.1, out)


# z is None, i, 2 - 3i, or any complex number of magnitude 1e-100 to 1e100
@settings(derandomize=True, deadline=None, max_examples=300)
@given(_GRID_SIZES, st.booleans(), _SEEDS,
       st.one_of(st.sampled_from([None, 1j, 2.0 - 3.0j]),
                 st.complex_numbers(min_magnitude=1e-100,
                                    max_magnitude=1e100)))
def test_slab_residual_equals_whole_grid_residual_bit_for_bit(
        n, component_major, seed, z):
    # the slab-by-slab residual of F with z, that of the scaled copies z F
    # and the whole-grid reference; and the stencils against rolled copies
    rng = np.random.default_rng(seed)
    h, dt = rng.uniform(0.01, 2.0, size=2)
    fields = [ComplexFieldGrid(_random_field(rng, n, component_major), h, 0.0)
              for _ in range(3)]
    norms = maxwell_residual(*fields, dt, z=z)
    assert norms == _unfused_residual(*fields, dt, z)
    if z is not None:
        assert maxwell_residual(*[scale_field(f, z) for f in fields], dt) \
            == norms
    div, curl = _rolled_div_curl(fields[0].values, h)
    assert discrete_div(fields[0]).tobytes() == div.tobytes()
    assert discrete_curl(fields[0]).tobytes() == curl.tobytes()


@pytest.mark.parametrize("n", [4, 8, 9, 17])
@pytest.mark.parametrize("plane", ["first", "last"])
@pytest.mark.parametrize("component", [0, 1, 2])
def test_stencils_wrap_around_the_first_and_last_plane(n, plane, component):
    # a field on one x-plane p: d/dx puts -v/2h on plane p + 1 and +v/2h
    # on plane p - 1 (periodically), d/dy and d/dz stay on plane p
    p = 0 if plane == "first" else n - 1
    h = 0.5
    rng = np.random.default_rng(n)
    values = np.zeros((n, n, n, 3), dtype=complex)
    v = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    values[p, :, :, component] = v
    f = ComplexFieldGrid(values, h, 0.0)
    after, before = (p + 1) % n, (p - 1) % n

    def planes(field):
        return {x for x in range(n) if np.any(field[x])}

    div, curl = discrete_div(f), discrete_curl(f)
    if component == 0:
        assert planes(div) == {before, after}
        assert div[after].tobytes() == (-v / (2 * h)).tobytes()
        assert div[before].tobytes() == (v / (2 * h)).tobytes()
    else:
        assert planes(div) == {p}
    for c in range(3):
        # curl_c = d_i v_j - d_j v_i with (c, i, j) cyclic
        i, j = (c + 1) % 3, (c + 2) % 3
        if component == c:
            want = set()
        elif (i == 0 and j == component) or (j == 0 and i == component):
            want = {before, after}
        else:
            want = {p}
        assert planes(curl[..., c]) == want


def test_axis_aligned_wave_has_zero_discrete_divergence():
    # eps has no z component and k has no x, y components: the sum collapses
    spec = make_helicity_wave((0, 0, 1))
    f = sample_plane_wave(spec, n_grid=8)
    assert np.max(np.abs(discrete_div(f))) < 1e-13


def test_divergence_operator_is_linear():
    a = sample_plane_wave(make_helicity_wave((1, 2, 2)), n_grid=8)
    b = sample_plane_wave(make_helicity_wave((3, -1, 2)), n_grid=8)
    both = ComplexFieldGrid(a.values + b.values, a.spacing, a.time)
    np.testing.assert_allclose(discrete_div(both),
                               discrete_div(a) + discrete_div(b),
                               atol=1e-13)


def test_curl_of_constant_field_vanishes():
    values = np.ones((8, 8, 8, 3), dtype=complex)
    f = ComplexFieldGrid(values, 0.5, 0.0)
    assert np.max(np.abs(discrete_curl(f))) == 0.0


def test_convergence_is_second_order():
    spec = make_helicity_wave((1, 2, 2))
    rows = [study_level(spec, n)[0] for n in (16, 32)]
    div_ratio = rows[0][2] / rows[1][2]
    evo_ratio = rows[0][3] / rows[1][3]
    assert 3.4 < div_ratio < 4.6
    assert 3.4 < evo_ratio < 4.6


def test_residual_validation():
    spec = make_helicity_wave((1, 2, 2))
    f_t, f_plus, f_minus, dt = wave_snapshots(spec, 8)
    with pytest.raises(ValueError):
        maxwell_residual(f_t, f_plus, f_minus, 0.0)
    other = _vacuum(16)
    with pytest.raises(ValueError):
        maxwell_residual(f_t, f_plus, other, dt)


@pytest.mark.parametrize("dt", [math.inf, -math.inf, math.nan, -0.1])
def test_residual_rejects_a_dt_that_is_not_positive_and_finite(dt):
    f_t, f_plus, f_minus, _ = wave_snapshots(make_helicity_wave((1, 2, 2)), 8)
    with pytest.raises(ValueError, match="dt"):
        maxwell_residual(f_t, f_plus, f_minus, dt)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, 1j * math.inf,
                                 math.nan])
@pytest.mark.parametrize("snapshot", [0, 1, 2])
@pytest.mark.parametrize("z", [None, 1j, 2.0 - 3.0j])
def test_a_non_finite_entry_gives_non_finite_norms(bad, snapshot, z):
    # one inf or NaN in F(t) reaches both norms, one in F(t +- dt) the
    # evolution norm; whether a norm reads inf or NaN is not promised
    rng = np.random.default_rng(snapshot)
    values = [_random_field(rng, 9, False) for _ in range(3)]
    values[snapshot][3, 4, 5, 1] = bad
    fields = [ComplexFieldGrid(v, 0.3, 0.0) for v in values]
    with np.errstate(all="ignore"):
        div_norm, evo_norm = maxwell_residual(*fields, 0.05, z=z)
    assert math.isfinite(div_norm) == (snapshot != 0)
    assert not math.isfinite(evo_norm)


def _with_signed_zeros(rng, v):
    """``v`` with about a third of its real and of its imaginary parts set
    to +0 or -0 at random."""
    for part in (v.real, v.imag):
        zero = rng.random(part.shape) < 1 / 3
        part[zero] = np.where(rng.random(part.shape) < 0.5, -0.0, 0.0)[zero]
    return v


@settings(derandomize=True, deadline=None)
@given(_GRID_SIZES, st.booleans(), _SEEDS)
def test_stencils_of_fields_with_signed_zeros_equal_the_rolled_copies(
        n, component_major, seed):
    # the stencils may keep a -0 part that numpy's complex division turns
    # into +0 (see _ddx), so the arrays are compared by value, not by bits
    rng = np.random.default_rng(seed)
    h, dt = rng.uniform(0.01, 2.0, size=2)
    fields = [ComplexFieldGrid(
        _with_signed_zeros(rng, _random_field(rng, n, component_major)),
        h, 0.0) for _ in range(3)]
    div, curl = _rolled_div_curl(fields[0].values, h)
    assert np.array_equal(discrete_div(fields[0]), div)
    assert np.array_equal(discrete_curl(fields[0]), curl)
    assert maxwell_residual(*fields, dt) == _unfused_residual(*fields, dt)


# ---------------------------------------------------------------------------
# complex rescaling
# ---------------------------------------------------------------------------

def test_rescaling_scales_residuals_linearly():
    spec = make_helicity_wave((1, 2, 2))
    f_t, f_plus, f_minus, dt = wave_snapshots(spec, 16)
    base = maxwell_residual(f_t, f_plus, f_minus, dt)
    for z in (1j, 2.0 - 3.0j, 0.5 + 0.1j):
        scaled = maxwell_residual(scale_field(f_t, z), scale_field(f_plus, z),
                                  scale_field(f_minus, z), dt)
        for got, ref in zip(scaled, base):
            assert got == pytest.approx(abs(z) * ref, rel=1e-12)


@pytest.mark.parametrize("n_grid", [4, 7, 16, 32])
@pytest.mark.parametrize("z", [1j, 2.0 - 3.0j, -1e-7, 1e150j, 1.0 + 1e-300j])
def test_rescaled_residual_equals_residual_of_scaled_copies(n_grid, z):
    # complex multiplication is elementwise: scaling one component at a
    # time inside the residual gives the bits of the scaled snapshots
    for k in WAVE_VECTORS:
        spec = make_helicity_wave(k, amplitude=0.6 - 0.8j)
        *fields, dt = wave_snapshots(spec, n_grid)
        scaled = [scale_field(f, z) for f in fields]
        assert maxwell_residual(*fields, dt, z=z) \
            == maxwell_residual(*scaled, dt)


# the identity that lets cli._rescaling_check skip z = i (see its docstring)
@settings(derandomize=True, deadline=None)
@given(st.tuples(*[st.integers(-6, 6)] * 3).filter(any), st.integers(4, 24),
       st.complex_numbers(min_magnitude=1e-300, max_magnitude=1e300,
                          allow_nan=False, allow_infinity=False),
       st.floats(-1e3, 1e3))
def test_residual_times_i_is_bit_identical(k, n, amplitude, time):
    spec = make_helicity_wave(k, amplitude=amplitude)
    *fields, dt = wave_snapshots(spec, n, time)
    assert maxwell_residual(*fields, dt, z=1j) == maxwell_residual(*fields, dt)


@settings(derandomize=True, deadline=None)
@given(_GRID_SIZES, st.booleans(), _SEEDS)
def test_residual_times_i_of_random_fields_is_bit_identical(
        n, component_major, seed):
    # entry magnitudes from 1e-300 to 1e300 put slabs past 2**500, where
    # the squares are summed at a power-of-two scale
    rng = np.random.default_rng(seed)
    h, dt = rng.uniform(0.01, 2.0, size=2)
    values = []
    for _ in range(3):
        v = _random_field(rng, n, component_major)
        v *= 10.0 ** rng.uniform(-300.0, 300.0, size=v.shape)
        values.append(_with_signed_zeros(rng, v))
    fields = [ComplexFieldGrid(v, h, 0.0) for v in values]
    assert maxwell_residual(*fields, dt, z=1j) == maxwell_residual(*fields, dt)


def _rescaling_check_with_z_i(f_t, f_plus, f_minus, dt, base):
    """The rescaling check as it was when it also recomputed z = i."""
    errors = []
    for z in (1j, 2.0 - 3.0j):
        scaled = maxwell_residual(f_t, f_plus, f_minus, dt, z=z)
        errors += [cli._rel_err(s, abs(z) * b) for b, s in zip(base, scaled)]
    return cli.make_check("maxwell.rescaling_linearity",
                          "maxwell.complex_symmetry", cli._worst(errors),
                          0.0, 1e-12)


@pytest.mark.parametrize("n_grid", [4, 8, 16, 32])
@pytest.mark.parametrize("k", WAVE_VECTORS + [(0, 0, 1)])
def test_rescaling_check_equals_the_one_that_recomputes_z_i(n_grid, k):
    *fields, dt = wave_snapshots(make_helicity_wave(k), n_grid)
    base = maxwell_residual(*fields, dt)
    assert cli._rescaling_check(*fields, dt, base) \
        == _rescaling_check_with_z_i(*fields, dt, base)


def test_residual_of_a_huge_field_does_not_overflow():
    # |z F| of about 1e200 squares past the float range; the norms do not
    f_t, f_plus, f_minus, dt = wave_snapshots(make_helicity_wave((1, 2, 2)),
                                              8)
    base = maxwell_residual(f_t, f_plus, f_minus, dt, z=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = maxwell_residual(f_t, f_plus, f_minus, dt, z=1e200j)
    for got, ref in zip(huge, base):
        assert math.isfinite(got)
        assert got == pytest.approx(1e200 * ref, rel=1e-15)


def test_scaling_by_zero_rejected():
    with pytest.raises(ValueError):
        scale_field(_vacuum(4), 0.0)
    zero = _vacuum(4)
    with pytest.raises(ValueError, match="z = 0"):
        maxwell_residual(zero, zero, zero, 0.1, z=0)


def test_multiplication_by_i_swaps_electric_and_magnetic():
    spec = make_helicity_wave((1, 2, 2))
    f = sample_plane_wave(spec, n_grid=8)
    rotated = scale_field(f, 1j).values
    # (E, B) = (Re F, Im F)
    np.testing.assert_array_equal(rotated.real, -f.values.imag)
    np.testing.assert_array_equal(rotated.imag, f.values.real)


def test_vacuum_configuration_has_exactly_zero_residual():
    for n_grid in (4, 8, 16, 32, 77):
        zero = _vacuum(n_grid)
        assert maxwell_residual(zero, zero, zero, 0.1) == (0.0, 0.0)
