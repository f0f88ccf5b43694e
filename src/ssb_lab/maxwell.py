"""Vacuum electrodynamics packaged as one complex vector field F = E + iB.

In this form the vacuum equations read div F = 0 and dF/dt = -i curl F, and
multiplying a solution by any nonzero complex number z = a + ib gives another
solution (the real/imaginary parts mix as E' = aE - bB, B' = aB + bE).  The
zero field is the unique fixed point of that rescaling.

Everything lives on a periodic cube [0, 2pi)^3 sampled on N points per axis
and is discretized with collocated central differences, so every stencil is
exactly linear in the field values and residuals of an exact solution vanish
at second order in the spacing.  The bundled exact solution is a circularly
polarized plane wave: for a right-handed frame (e1, e2, k/|k|) the
polarization eps = (e1 + i e2)/sqrt 2 satisfies k x eps = -i |k| eps, which
is precisely the helicity needed for amp * eps * exp(i(k.x - |k|t)) to solve
dF/dt = -i curl F.

The stencils read a field one slab of x-planes at a time, through its
``read_planes`` method, so a field need not be stored: ``ComplexFieldGrid``
copies its planes from a stored (N, N, N, 3) array, and ``PlaneWaveField``
samples them from the wave's separable factors, O(N^2) numbers, as they are
read.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

_TRANSVERSALITY_TOL = 1e-12
MIN_GRID = 4
BOX_LENGTH = 2.0 * np.pi
DEFAULT_DT_RATIO = 0.1  # dt = ratio * h keeps time error subdominant


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComplexFieldGrid:
    """A 3-component complex field on an N^3 periodic grid at one instant.

    The values are read-only.  An array passed in is copied, so later writes
    to it do not show in the grid.
    """

    values: np.ndarray
    spacing: float
    time: float

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=complex)
        if v.ndim != 4 or v.shape[3] != 3:
            raise ValueError(f"values must be (N, N, N, 3), got {v.shape}")
        n = v.shape[0]
        if v.shape[0] != v.shape[1] or v.shape[1] != v.shape[2]:
            raise ValueError(f"grid must be cubic, got {v.shape[:3]}")
        if n < MIN_GRID:
            raise ValueError(f"need at least {MIN_GRID} points per axis, "
                             f"got {n}")
        if not (math.isfinite(self.spacing) and self.spacing > 0):
            raise ValueError(f"spacing must be a positive finite number, "
                             f"got {self.spacing}")
        _check_time(self.time)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n_grid(self) -> int:
        return self.values.shape[0]

    def read_planes(self, c: int, planes: np.ndarray,
                    out: np.ndarray) -> np.ndarray:
        """Component c on the x-planes ``planes``, taken modulo N, copied
        into ``out``, a (len(planes), N, N) complex array."""
        return np.take(self.values[..., c], planes, axis=0, out=out,
                       mode="wrap")


def _check_time(time: float) -> None:
    if not math.isfinite(time):
        raise ValueError(f"time must be finite, got {time}")


def _empty_field(n_grid: int) -> np.ndarray:
    """An uninitialized (N, N, N, 3) complex array stored component by
    component, so each values[..., c] that the stencils read is contiguous."""
    return np.moveaxis(np.empty((3, n_grid, n_grid, n_grid), dtype=complex),
                       0, -1)


def wave_vector(k) -> np.ndarray:
    """``k`` as a float 3-vector.

    Raises ValueError unless ``k`` holds three integer components
    (commensurate with the 2pi-periodic box), not all zero, of magnitude at
    most 2**53: beyond that a float cannot tell an integer from its neighbour.
    """
    try:
        raw = np.asarray(k)
    except ValueError:  # ragged nesting
        raw = None
    if raw is None or raw.shape != (3,) or raw.dtype.kind not in "iuf":
        raise ValueError(f"k must be a 3-vector of numbers, got {k!r}")
    k = raw.astype(float)
    # both comparisons are false for NaN
    if not np.all((np.abs(k) <= 2.0 ** 53) & (k == np.round(k))):
        raise ValueError(f"wave vector {k} is not commensurate with the "
                         f"periodic box (integers up to 2**53 required)")
    if not np.any(k):
        raise ValueError("k = 0 is not a wave")
    return k


@dataclass(frozen=True)
class PlaneWaveSpec:
    """Wave vector, polarization and amplitude of a helicity eigenwave.

    The wave vector must pass ``wave_vector``.  The polarization must be
    finite, transverse and satisfy k x eps = -i |k| eps, the eigenvalue
    compatible with the evolution law for a wave with phase k.x - |k| t.
    The amplitude must be finite, so every ``PlaneWaveField`` of the wave
    is finite too.
    """

    k: np.ndarray
    polarization: np.ndarray
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        k = wave_vector(self.k)
        eps = np.array(self.polarization, dtype=complex)
        if eps.shape != (3,):
            raise ValueError("polarization must be a 3-vector")
        if not np.isfinite(eps).all():
            raise ValueError(f"polarization must be finite, got {eps}")
        amplitude = complex(self.amplitude)
        # the zero amplitude is valid: it samples the vacuum
        if not (math.isfinite(amplitude.real)
                and math.isfinite(amplitude.imag)):
            raise ValueError(f"amplitude must be finite, got {amplitude}")
        omega = float(np.linalg.norm(k))
        # both guards are written so that a NaN defect fails them
        if not abs(np.vdot(k.astype(complex), eps)) <= _TRANSVERSALITY_TOL:
            raise ValueError("polarization is not transverse to k")
        helicity_defect = np.max(np.abs(np.cross(k, eps) + 1j * omega * eps))
        if not helicity_defect <= _TRANSVERSALITY_TOL:
            raise ValueError(f"polarization is not the k x eps = -i|k| eps "
                             f"helicity eigenstate (defect {helicity_defect:.3e})")
        k.flags.writeable = False
        eps.flags.writeable = False
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "polarization", eps)
        object.__setattr__(self, "amplitude", amplitude)

    @property
    def omega(self) -> float:
        return float(np.linalg.norm(self.k))


def make_helicity_wave(k, amplitude: complex = 1.0 + 0.0j) -> PlaneWaveSpec:
    """Construct the circularly polarized plane wave for wave vector ``k``.

    Builds a right-handed orthonormal frame (e1, e2, k/|k|) and returns the
    polarization (e1 + i e2)/sqrt 2.
    """
    k = wave_vector(k)
    khat = k / np.linalg.norm(k)
    # start from the axis least aligned with k for a stable frame
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(khat)))] = 1.0
    e1 = axis - np.dot(axis, khat) * khat
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(khat, e1)
    eps = (e1 + 1j * e2) / np.sqrt(2.0)
    return PlaneWaveSpec(k=k, polarization=eps, amplitude=amplitude)


@dataclass(frozen=True, eq=False)
class PlaneWaveField:
    """The wave ``spec`` on the n_grid^3 periodic grid at ``time``, sampled
    when it is read.

    amp * eps * exp(i(k.x - |k| t)) factorizes: component c at the point
    (x, y, z) is px[c, x] * eyz[y, z], with px[c] = eps_c * amp *
    exp(-i|k|t) * exp(i k_x x) and eyz = exp(i k_y y) * exp(i k_z z).  The
    field holds those factors, 3N + N^2 complex numbers, read-only, and no
    (N, N, N) array.
    """

    spec: PlaneWaveSpec
    n_grid: int
    time: float = 0.0
    spacing: float = field(init=False)
    px: np.ndarray = field(init=False, repr=False)
    eyz: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        spec, n, time = self.spec, operator.index(self.n_grid), self.time
        if n < MIN_GRID:
            raise ValueError(f"need at least {MIN_GRID} points per axis, "
                             f"got {n}")
        _check_time(time)
        h = BOX_LENGTH / n
        coords = h * np.arange(n)
        ex, ey, ez = (np.exp(1j * kj * coords) for kj in spec.k)
        ex *= spec.amplitude * np.exp(-1j * spec.omega * time)
        px = np.array([p * ex for p in spec.polarization])
        eyz = np.multiply.outer(ey, ez)
        px.flags.writeable = eyz.flags.writeable = False
        for name, value in (("n_grid", n), ("spacing", h), ("px", px),
                            ("eyz", eyz)):
            object.__setattr__(self, name, value)

    def read_planes(self, c: int, planes: np.ndarray,
                    out: np.ndarray) -> np.ndarray:
        """Component c on the x-planes ``planes``, taken modulo N, sampled
        into ``out``, a (len(planes), N, N) complex array."""
        return np.multiply.outer(np.take(self.px[c], planes, mode="wrap"),
                                 self.eyz, out=out)


# a field the stencils can read: stored, or sampled as it is read
Field = ComplexFieldGrid | PlaneWaveField


def _stored(f: Field) -> np.ndarray:
    """Every plane of the field ``f``, read into a new array from
    ``_empty_field``."""
    values = _empty_field(f.n_grid)
    every = np.arange(f.n_grid)
    for c in range(3):
        f.read_planes(c, every, values[..., c])
    return values


def sample_plane_wave(spec: PlaneWaveSpec, n_grid: int,
                      time: float = 0.0) -> ComplexFieldGrid:
    """Evaluate amp * eps * exp(i(k.x - |k| t)) on the periodic grid and
    store it: every plane of the ``PlaneWaveField``."""
    wave = PlaneWaveField(spec, n_grid, time)
    return ComplexFieldGrid(_stored(wave), wave.spacing, wave.time)


def wave_snapshots(spec: PlaneWaveSpec, n_grid: int,
                   time: float = 0.0
                   ) -> tuple[PlaneWaveField, PlaneWaveField,
                              PlaneWaveField, float]:
    """Three consecutive snapshots (t, t+dt, t-dt) plus dt, with dt =
    DEFAULT_DT_RATIO * spacing so the time error stays subdominant to the
    space error.  The snapshots are ``PlaneWaveField``s: none is stored."""
    dt = DEFAULT_DT_RATIO * BOX_LENGTH / n_grid
    f_t = PlaneWaveField(spec, n_grid, time)
    f_plus = PlaneWaveField(spec, n_grid, time + dt)
    f_minus = PlaneWaveField(spec, n_grid, time - dt)
    return f_t, f_plus, f_minus, dt


# ---------------------------------------------------------------------------
# stencils
# ---------------------------------------------------------------------------

# x-planes per slab: the stencils walk the grid one slab at a time, so their
# operands stay in cache instead of streaming whole (N, N, N) arrays.  At
# N = 128 a complex work buffer of 4 planes is 1 MiB, half of a 2 MiB L2
# cache, which one of 8 planes fills; the two N = 128 residuals of
# ``maxwell --grid 128`` take about 345 ms with 4 planes and 375 ms with 8
# (medians of 5 runs, twice, on one core of a 2-CPU Xeon)
_SLAB = 4
# a slab whose largest evolution component exceeds this in magnitude has
# its squares summed at an exact power-of-two scale, so they cannot overflow
_RESCALE_ABOVE = 2.0 ** 500


def _work(n_grid: int, count: int, dtype: type = complex) -> np.ndarray:
    """``count`` uninitialized work buffers of one slab, (count, S, N, N)."""
    return np.empty((count, min(_SLAB, n_grid), n_grid, n_grid), dtype=dtype)


def residual_peak_bytes(n_grid: int) -> int:
    """Bytes of the arrays held at the peak of ``maxwell_residual`` on three
    ``PlaneWaveField`` snapshots of an n_grid^3 grid.

    Per point of one x-plane: the residual's slab of three complex
    components with two halo planes, its three complex work buffers and
    three real ones, and each snapshot's complex factor eyz.  The O(N)
    arrays are left out."""
    m = min(_SLAB, n_grid)
    per_plane_point = 3 * (m + 2) * 16 + m * (3 * 16 + 3 * 8) + 3 * 16
    return per_plane_point * n_grid ** 2


def _read(f: Field, c: int, planes: np.ndarray, out: np.ndarray,
          z: complex | None) -> np.ndarray:
    """Component c of the field ``f``, or of z * f when ``z`` is given, on
    the x-planes ``planes`` (modulo N), written into ``out``."""
    f.read_planes(c, planes, out)
    if z is not None:
        np.multiply(z, out, out=out)
    return out


def _slabs(f: Field, z: complex | None = None
           ) -> Iterator[tuple[int, int, np.ndarray]]:
    """Walk the field ``f`` in slabs of at most ``_SLAB`` x-planes.

    Yields (x0, x1, v), where v[c] holds component c of f, or of z * f when
    ``z`` is given, on the periodic x-planes x0 - 1, x0, ..., x1: the slab's
    planes x0 to x1 - 1 plus one halo plane on each side, read with
    ``f.read_planes``.  v is one buffer, overwritten by the next slab.
    """
    n = f.n_grid
    buf = np.empty((3, min(_SLAB, n) + 2, n, n), dtype=complex)
    for x0 in range(0, n, _SLAB):
        x1 = min(x0 + _SLAB, n)
        v = buf[:, :x1 - x0 + 2]
        # plane x0 - 1 = -1 is the last one, and x1 = N the first
        planes = np.arange(x0 - 1, x1 + 1)
        for c in range(3):
            _read(f, c, planes, v[c], z)
        yield x0, x1, v


def _divide_parts(out: np.ndarray, d: float) -> np.ndarray:
    """``out`` / d in place, for a contiguous complex ``out`` and a real d:
    the float view, both parts of every entry, times 1/d."""
    parts = out.view(float)
    return np.multiply(parts, 1.0 / d, out=parts)


def _ddx(slab: np.ndarray, axis: int, h: float,
         out: np.ndarray) -> np.ndarray:
    """Periodic central difference (v[i+1] - v[i-1]) / 2h along ``axis`` of
    one component of a slab from ``_slabs``, written into the contiguous
    ``out`` for the slab's planes: along x the halo planes are the outer
    neighbours, along y and z the ends wrap.

    The quotient is the float view of ``out`` times 1/2h (``_divide_parts``).
    numpy divides a complex a + ib by a real d as by d + 0j, with Smith's
    algorithm (Comm. ACM 5, 435, 1962):
    (a + b*0) * (1/d) + i (b - a*0) * (1/d).  For finite a and b that is
    a * (1/d) + i b * (1/d), the same bits, at a fraction of the cost.  The
    two differ only where numpy's zero products matter: numpy can turn a -0
    part into +0, and it makes a part NaN where the other part is inf or
    NaN, which the product leaves as it is."""
    if axis == 0:
        np.subtract(slab[2:], slab[:-2], out=out)
    else:
        # one contiguous difference over the flattened planes, whose
        # neighbours along the axis lie ``step`` entries apart; it is wrong
        # only where it crosses the end of a row (z) or a plane (y), at the
        # wrapped ends, which are set after it.  Flattening anything but a
        # C-contiguous array would copy it, and the writes would be lost.
        v = slab[1:-1]
        if not (v.flags.c_contiguous and out.flags.c_contiguous):
            raise ValueError("the stencils need C-contiguous slabs and out")
        step = v.strides[axis] // v.itemsize
        flat_v, flat_out = v.reshape(-1), out.reshape(-1)
        np.subtract(flat_v[2 * step:], flat_v[:-2 * step],
                    out=flat_out[step:-step])
        v, o = v.swapaxes(0, axis), out.swapaxes(0, axis)
        np.subtract(v[1], v[-1], out=o[0])
        np.subtract(v[0], v[-2], out=o[-1])
    _divide_parts(out, 2.0 * h)
    return out


def _curl_component(v: np.ndarray, c: int, h: float, out: np.ndarray,
                    scratch: np.ndarray) -> np.ndarray:
    """Component c of the curl of a slab v from ``_slabs``,
    d_i v_j - d_j v_i with (c, i, j) cyclic, written into ``out``;
    ``scratch`` is a work buffer of the same shape."""
    i, j = (c + 1) % 3, (c + 2) % 3
    _ddx(v[j], i, h, out)
    _ddx(v[i], j, h, scratch)
    return np.subtract(out, scratch, out=out)


def _divergence(v: np.ndarray, h: float, out: np.ndarray,
                scratch: np.ndarray) -> np.ndarray:
    """d_0 v_0 + d_1 v_1 + d_2 v_2 of a slab v, written into ``out``; the
    arguments are as in ``_curl_component``."""
    _ddx(v[0], 0, h, out)
    for axis in (1, 2):
        out += _ddx(v[axis], axis, h, scratch)
    return out


def discrete_div(f: Field) -> np.ndarray:
    """Central-difference divergence of the field ``f``, an (N, N, N)
    complex array."""
    out = np.empty((f.n_grid,) * 3, dtype=complex)
    scratch = _work(f.n_grid, 1)[0]
    for x0, x1, v in _slabs(f):
        _divergence(v, f.spacing, out[x0:x1], scratch[:x1 - x0])
    return out


def discrete_curl(f: Field) -> np.ndarray:
    """Central-difference curl of the field ``f``, an (N, N, N, 3) complex
    array."""
    out = _empty_field(f.n_grid)
    scratch = _work(f.n_grid, 1)[0]
    for x0, x1, v in _slabs(f):
        for c in range(3):
            _curl_component(v, c, f.spacing, out[x0:x1, ..., c],
                            scratch[:x1 - x0])
    return out


def maxwell_residual(f_t: Field, f_plus: Field, f_minus: Field, dt: float,
                     *, z: complex | None = None) -> tuple[float, float]:
    """(divergence norm, evolution norm) of the discretized vacuum equations
    for F, or for z * F when the nonzero complex ``z`` is given.

    The divergence norm is max |div F| over the grid; the evolution norm is
    max over the grid of the vector magnitude of
    (F(t+dt) - F(t-dt)) / (2 dt) + i curl F(t), which vanishes for an exact
    solution up to O(h^2) + O(dt^2).  Both are computed slab by slab
    (``_slabs``) in buffers of a few x-planes, never whole (N, N, N) arrays;
    F(t+dt) and F(t-dt) are read one slab's planes at a time as well.  On
    ``PlaneWaveField`` snapshots nothing of O(N^3) is stored at all, and
    the run peaks at ``residual_peak_bytes``.  With ``z``, each slab is
    multiplied by z as it is read, so z * F is never stored whole.  Every
    point sees the operations, in the same order, of the whole-field form
    on the stored snapshots (``sample_plane_wave``) and of
    ``scale_field``'s products, with each division by 2h or 2dt
    taken as the product with its reciprocal that numpy's complex division
    computes (``_ddx``), so for finite fields the norms equal theirs bit for
    bit; only a slab whose evolution components exceed 2**500 in magnitude
    sums their squares at a power-of-two scale, which keeps the norm finite.
    """
    if z is not None:
        z = _symmetry_factor(z)
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be a positive finite number, got {dt}")
    for other in (f_plus, f_minus):
        if other.n_grid != f_t.n_grid:
            raise ValueError("snapshot grids differ in shape")
        if other.spacing != f_t.spacing:
            raise ValueError("snapshot grids differ in spacing")
    h, n = f_t.spacing, f_t.n_grid
    work, mags = _work(n, 3), _work(n, 3, float)
    div_norms, evolution_norms = [], []
    for x0, x1, v in _slabs(f_t, z):
        a, b, s = work[:, :x1 - x0]
        mag = mags[:, :x1 - x0]
        div_norms.append(np.max(np.abs(_divergence(v, h, a, b), out=mag[0])))
        # the operations and operand order of (F+ - F-) / 2dt + 1j * curl F
        planes = np.arange(x0, x1)
        for c in range(3):
            _curl_component(v, c, h, a, b)
            np.multiply(1j, a, out=a)
            plus = _read(f_plus, c, planes, s, z)
            minus = _read(f_minus, c, planes, b, z)
            np.subtract(plus, minus, out=b)
            _divide_parts(b, 2.0 * dt)  # numpy's b / 2dt bits, see _ddx
            np.add(b, a, out=b)
            np.abs(b, out=mag[c])
        evolution_norms.append(_largest_magnitude(mag))
    # np.max keeps a NaN; and sqrt is monotone, so the largest of the slabs'
    # roots is the root of the grid's largest sum
    return float(np.max(div_norms)), float(np.max(evolution_norms))


def _largest_magnitude(mag: np.ndarray) -> float:
    """max over the points of sqrt(mag[0]**2 + mag[1]**2 + mag[2]**2),
    summed in that order; ``mag`` is overwritten.

    When the largest entry exceeds ``_RESCALE_ABOVE``, ``mag`` is first
    scaled by an exact power of two, 2**-e with the entry's exponent e, and
    the root by 2**e, so the squares cannot overflow."""
    big = np.max(mag)
    e = int(np.frexp(big)[1]) if big > _RESCALE_ABOVE else 0
    if e:
        np.ldexp(mag, -e, out=mag)
    total = np.square(mag[0], out=mag[0])
    total += np.square(mag[1], out=mag[1])
    total += np.square(mag[2], out=mag[2])
    return math.ldexp(float(np.sqrt(np.max(total))), e)


# ---------------------------------------------------------------------------
# the scaling symmetry
# ---------------------------------------------------------------------------

def scale_field(f: Field, z: complex) -> ComplexFieldGrid:
    """Multiply the field by a nonzero complex number, into a stored grid.

    z = i swaps the roles of the real and imaginary parts up to sign,
    (E, B) -> (-B, E); a general z = a + ib mixes them linearly.  z = 0 is
    rejected because it is not a symmetry (it forgets the solution).
    """
    z = _symmetry_factor(z)
    values = _stored(f)
    return ComplexFieldGrid(np.multiply(z, values, out=values), f.spacing,
                            f.time)


def _symmetry_factor(z: complex) -> complex:
    """``z`` as a complex number; ValueError for 0, which is no symmetry."""
    z = complex(z)
    if z == 0:
        raise ValueError("z = 0 does not act on solutions invertibly")
    return z


def study_level(spec: PlaneWaveSpec, n_grid: int
                ) -> tuple[tuple[int, float, float, float],
                           tuple[PlaneWaveField, PlaneWaveField,
                                 PlaneWaveField, float]]:
    """One grid of the convergence study: the row (n_grid, spacing,
    div_norm, evolution_norm) and the snapshots (f_t, f_plus, f_minus, dt)
    whose residual it holds."""
    snapshots = wave_snapshots(spec, n_grid)
    div_norm, evo_norm = maxwell_residual(*snapshots)
    return (int(n_grid), BOX_LENGTH / n_grid, div_norm, evo_norm), snapshots

