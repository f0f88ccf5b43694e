"""A point charge in n >= 2 spatial dimensions: potential, field, scaling.

With the charge at the origin, the radial field in n dimensions is
E(r) = q / (O_{n-1} r^{n-1}) where O_{n-1} = 2 pi^{n/2} / Gamma(n/2) is the
area of the unit (n-1)-sphere, and for n > 2 the potential is
Phi(r) = q / ((n-2) O_{n-1} r^{n-2}), which obeys the exact scaling identity
lambda^{n-2} Phi(lambda r) = Phi(r).

n = 2 is special: the potential is logarithmic and needs a reference radius
mu where it vanishes, Phi_mu(r) = -(q / 2 pi) log(r / mu).  Rescaling then no
longer maps the potential to itself; it shifts it by the constant
-(q / 2 pi) log lambda (equivalently, it moves the reference to mu / lambda).
The field magnitude q / (2 pi r) still scales like every other dimension.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

_LAPLACIAN_MIN_R_OVER_H = 10.0
DEFAULT_QUAD_POINTS_2D = 1000
DEFAULT_QUAD_POINTS_3D = 64  # Gauss-Legendre nodes in cos(theta); phi gets 2x


def _dimension(n: float) -> int:
    """``n`` as an int, or ValueError unless it is an integer >= 2; NaN
    fails n >= 2, and inf is tested before int() could overflow."""
    if not (n >= 2 and n != math.inf and int(n) == n):
        raise ValueError(f"dimension must be an integer >= 2, got {n}")
    return int(n)


def unit_sphere_area(n: int) -> float:
    """Area of the unit (n-1)-sphere in n dimensions: 2 pi^{n/2} / Gamma(n/2)."""
    n = _dimension(n)
    try:
        return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    except OverflowError:  # from n = 344 on, Gamma(n / 2) is past 1.8e308
        raise ValueError(f"dimension {n} is too large: Gamma({n}/2) "
                         f"overflows") from None


def _scaled_power(c: float, x: float, k: int, name: str) -> float:
    """c * x**k for c, x > 0, or ValueError naming x when that is not a
    normal float: each formula below divides or multiplies by one."""
    try:
        value = c * float(x) ** k
    except OverflowError:
        value = math.inf
    if not sys.float_info.min <= value < math.inf:
        raise ValueError(f"{name} = {x!r} is out of range: {c!r} * "
                         f"{name}**{k} = {value!r} is not a normal float")
    return value


# ---------------------------------------------------------------------------
# solution and scaling types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PotentialSolution:
    """The radial potential of a point charge.

    ``mu`` is the reference radius of the logarithmic two-dimensional
    potential: required exactly when n = 2 (defaulting to 1.0 if omitted)
    and meaningless otherwise (rejected for n > 2).
    """

    n: int
    q: float
    mu: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _dimension(self.n))
        q = float(self.q)
        if not math.isfinite(q):
            raise ValueError(f"charge q must be finite, got {q}")
        object.__setattr__(self, "q", q)
        if self.n == 2:
            mu = 1.0 if self.mu is None else float(self.mu)
            if not (math.isfinite(mu) and mu > 0):
                raise ValueError(f"reference radius mu must be a positive "
                                 f"finite number, got {mu}")
            object.__setattr__(self, "mu", mu)
        elif self.mu is not None:
            raise ValueError("a reference radius only exists for n = 2")


@dataclass(frozen=True)
class ScalingTransform:
    """x -> lambda x with lambda > 0."""

    lam: float

    def __post_init__(self) -> None:
        try:
            lam = float(self.lam)
        except OverflowError:  # an int past the float range
            raise ValueError("scale factor lam is past the float "
                             "range") from None
        if not (math.isfinite(lam) and lam > 0):
            raise ValueError(f"scale factor lam must be a positive finite "
                             f"number, got {lam}")
        object.__setattr__(self, "lam", lam)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def potential(sol: PotentialSolution, r: float) -> float:
    """Phi(r); logarithmic for n = 2, power law for n > 2."""
    if not r > 0:
        raise ValueError(f"r must be positive, got {r}")
    if sol.n == 2:
        return -(sol.q / (2.0 * math.pi)) * math.log(r / sol.mu)
    area = unit_sphere_area(sol.n)
    return sol.q / _scaled_power((sol.n - 2) * area, r, sol.n - 2, "r")


def field_magnitude(sol: PotentialSolution, r: float) -> float:
    """Radial field q / (O_{n-1} r^{n-1}), one formula for every n >= 2.

    Signed like q: a negative charge points the field inward.
    """
    if not r > 0:
        raise ValueError(f"r must be positive, got {r}")
    return sol.q / _scaled_power(unit_sphere_area(sol.n), r, sol.n - 1, "r")


def field_vector(sol: PotentialSolution, x: np.ndarray) -> np.ndarray:
    """E(x) = q x / (O_{n-1} r^n), the radial field as a vector.

    ``x`` is one point or an ``(..., n)`` array of points; the field comes
    back in the same shape.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != sol.n:
        raise ValueError(f"points must be {sol.n}-vectors, got {x.shape}")
    with np.errstate(over="ignore"):
        r = np.linalg.norm(x, axis=-1, keepdims=True)
        scale = unit_sphere_area(sol.n) * r ** sol.n
    # the field divides by O_{n-1} r^n, which must be a normal float
    bad = ~((scale >= sys.float_info.min) & (scale < math.inf))[..., 0]
    if bad.any():
        point = x[bad][0]
        if not point.any():
            raise ValueError("the field is singular at the origin")
        raise ValueError(f"r = |x| is out of range at x = {point.tolist()!r}: "
                         f"O_(n-1) r**{sol.n} = {float(scale[bad][0, 0])!r} "
                         f"is not a normal float")
    return sol.q * x / scale


def apply_scaling(sol: PotentialSolution,
                  transform: ScalingTransform) -> tuple[PotentialSolution, float]:
    """The solution seen through x -> lambda x, plus the induced gauge shift.

    For n > 2 the potential maps exactly onto itself (shift 0).  For n = 2
    the reference radius moves to mu / lambda, which shifts the potential by
    the constant -(q / 2 pi) log lambda.  ValueError when mu / lambda
    falls outside the positive finite floats.
    """
    if sol.n > 2:
        return sol, 0.0
    lam = transform.lam
    mu = sol.mu / lam
    if not 0.0 < mu < math.inf:
        raise ValueError(f"the scaled reference radius mu / lam = "
                         f"{sol.mu!r} / {lam!r} falls outside the float "
                         f"range")
    shift = -(sol.q / (2.0 * math.pi)) * math.log(lam)
    return PotentialSolution(n=2, q=sol.q, mu=mu), shift


# ---------------------------------------------------------------------------
# numerical checks: Laplacian stencil and Gauss flux
# ---------------------------------------------------------------------------

def _potential_at(sol: PotentialSolution, x: np.ndarray) -> float:
    return potential(sol, float(np.linalg.norm(x)))


def laplacian_residual(sol: PotentialSolution, point: np.ndarray,
                       h: float) -> float:
    """(2n+1)-point central-difference Laplacian of Phi at an off-origin
    point, which converges to 0 at O(h^2) away from the charge."""
    x = np.asarray(point, dtype=float)
    if x.shape != (sol.n,):
        raise ValueError(f"point must be an {sol.n}-vector, got {x.shape}")
    if not h > 0:
        raise ValueError(f"step h must be positive, got {h}")
    _scaled_power(1.0, h, 2, "h")  # the stencil divides by h * h
    r = float(np.linalg.norm(x))
    if r <= _LAPLACIAN_MIN_R_OVER_H * h:
        raise ValueError(f"need r > {_LAPLACIAN_MIN_R_OVER_H} h to stay away "
                         f"from the singularity (r={r}, h={h})")
    center = _potential_at(sol, x)
    acc = 0.0
    for j in range(sol.n):
        step = np.zeros(sol.n)
        step[j] = h
        acc += (_potential_at(sol, x + step) - 2.0 * center
                + _potential_at(sol, x - step)) / (h * h)
    return acc


@functools.cache
def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per count
    and read-only, so no caller can change the cached copy."""
    nodes, weights = np.polynomial.legendre.leggauss(m)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _quad_points(quad_points: int | None, default: int, least: int) -> int:
    """``quad_points`` (``default`` for None) as an int of at least
    ``least``, or ValueError naming it: a float or a string is not
    truncated or parsed into a node count."""
    if quad_points is None:
        return default
    try:
        m = operator.index(quad_points)
    except TypeError:
        raise ValueError(f"quad_points must be an integer, got "
                         f"{quad_points!r}") from None
    if m < least:
        raise ValueError(f"need at least {least} quadrature points, got {m}")
    return m


def flux_integral(sol: PotentialSolution, radius: float,
                  quad_points: int | None = None) -> float:
    """Numerical flux of E through the origin-centered sphere of ``radius``.

    n = 2 uses the trapezoid rule on the circle (spectrally accurate for the
    smooth periodic integrand); n = 3 uses Gauss-Legendre in cos(theta) times
    a uniform phi grid.  Either way the result equals the enclosed charge q.
    Other dimensions are not quadratured here; use the exact identity
    O_{n-1} r^{n-1} |E(r)| = q (enclosed_charge) instead.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if sol.n == 2:
        m = _quad_points(quad_points, DEFAULT_QUAD_POINTS_2D, 4)
        theta = 2.0 * math.pi * np.arange(m) / m
        normals = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        integrand = np.sum(field_vector(sol, radius * normals) * normals,
                           axis=-1)
        return float(np.sum(integrand) * (2.0 * math.pi * radius / m))
    if sol.n == 3:
        m = _quad_points(quad_points, DEFAULT_QUAD_POINTS_3D, 2)
        u, w = _gauss_legendre(m)  # u = cos(theta)
        n_phi = 2 * m
        phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
        s = np.sqrt(np.maximum(0.0, 1.0 - u * u))[:, None]
        normals = np.stack([s * np.cos(phi), s * np.sin(phi),
                            np.broadcast_to(u[:, None], (m, n_phi))], axis=-1)
        # (m, n_phi, 3): one row of nodes per Gauss-Legendre u
        integrand = np.sum(field_vector(sol, radius * normals) * normals,
                           axis=-1)
        total = float(np.sum(w[:, None] * integrand))
        return total * radius ** 2 * (2.0 * math.pi / n_phi)
    raise ValueError(
        f"no quadrature for n = {sol.n}; use enclosed_charge(), the exact "
        f"identity O_(n-1) r^(n-1) |E(r)| = q, instead")


def enclosed_charge(sol: PotentialSolution, radius: float) -> float:
    """O_{n-1} r^{n-1} E(r), the analytic flux identity for every n >= 2."""
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    scale = _scaled_power(unit_sphere_area(sol.n), radius, sol.n - 1,
                          "radius")
    return scale * (sol.q / scale)
