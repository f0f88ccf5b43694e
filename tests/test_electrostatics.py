"""Point-charge potentials in n dimensions.

Reference values:
  unit sphere areas  O_1 = 2 pi, O_2 = 4 pi, O_3 = 2 pi^2, O_4 = 8 pi^2 / 3
  Gauss law          flux through any centered sphere equals q
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssb_lab.electrostatics import (DEFAULT_QUAD_POINTS_3D, PotentialSolution,
                                    ScalingTransform, _gauss_legendre,
                                    apply_scaling,
                                    enclosed_charge, field_magnitude,
                                    field_vector, flux_integral,
                                    laplacian_residual, potential,
                                    unit_sphere_area)


# ---------------------------------------------------------------------------
# sphere areas
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,area", [
    (2, 2.0 * math.pi),
    (3, 4.0 * math.pi),
    (4, 2.0 * math.pi ** 2),
    (5, 8.0 * math.pi ** 2 / 3.0),
    (6, math.pi ** 3),
])
def test_sphere_areas(n, area):
    assert unit_sphere_area(n) == pytest.approx(area, rel=1e-13)


def test_sphere_area_recurrence():
    # O_{n+1} = 2 pi O_{n-1} / n in terms of the ambient dimension n
    for n in range(2, 11):
        assert unit_sphere_area(n + 2) == pytest.approx(
            unit_sphere_area(n) * 2.0 * math.pi / n, rel=1e-12)


def test_sphere_area_needs_n_at_least_two():
    # inf and 10**400 raised OverflowError in int(n) and n / 2.0, and from
    # n = 344 on Gamma(n / 2) overflows
    for n in (1, math.inf, math.nan, 10 ** 400, 344):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                unit_sphere_area(n)


# ---------------------------------------------------------------------------
# solutions and their validation
# ---------------------------------------------------------------------------

def test_three_dimensional_coulomb_constant():
    sol = PotentialSolution(n=3, q=1.0)
    r = 2.0
    assert potential(sol, r) == pytest.approx(1.0 / (4.0 * math.pi * r),
                                              rel=1e-14)


def test_two_dimensional_potential_vanishes_at_mu():
    sol = PotentialSolution(n=2, q=3.0, mu=1.7)
    assert potential(sol, 1.7) == 0.0
    assert potential(sol, 3.4) == pytest.approx(
        -(3.0 / (2.0 * math.pi)) * math.log(2.0), rel=1e-14)


def test_mu_defaults_to_one_in_two_dimensions():
    assert PotentialSolution(n=2, q=1.0).mu == 1.0


def test_mu_rejected_above_two_dimensions():
    with pytest.raises(ValueError):
        PotentialSolution(n=3, q=1.0, mu=1.0)


@pytest.mark.parametrize("mu", [math.inf, math.nan, 0.0])
def test_reference_radius_must_be_positive_and_finite(mu):
    # an infinite mu used to fail later, with "math domain error"
    with pytest.raises(ValueError, match="mu"):
        PotentialSolution(n=2, q=1.0, mu=mu)


@pytest.mark.parametrize("lam", [math.inf, math.nan, -2.0, 10 ** 400],
                         ids=["inf", "nan", "-2.0", "int_1e400"])
def test_scale_factor_must_be_positive_and_finite(lam):
    # an infinite lam used to fail later, in the constructor of mu / lam,
    # and float(10**400) raised OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="lam"):
            ScalingTransform(lam)


def test_dimension_must_be_at_least_two():
    with pytest.raises(ValueError):
        PotentialSolution(n=1, q=1.0)


def test_radius_must_be_positive():
    sol = PotentialSolution(n=3, q=1.0)
    with pytest.raises(ValueError):
        potential(sol, 0.0)
    with pytest.raises(ValueError):
        field_magnitude(sol, -1.0)


def _strictly(f, *args):
    """f(*args) with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return f(*args)


def test_field_where_r_to_the_n_minus_1_underflows_names_r():
    # r**2 = 1e-600 rounds to 0.0, and the division by it raised
    # ZeroDivisionError
    with pytest.raises(ValueError, match=r"^r = 1e-300 is out of range"):
        _strictly(field_magnitude, PotentialSolution(n=3, q=1.0), 1e-300)
    with pytest.raises(ValueError, match=r"^r = 1e-200 is out of range"):
        _strictly(potential, PotentialSolution(n=4, q=1.0), 1e-200)


def test_enclosed_charge_where_radius_to_the_n_minus_1_overflows():
    # radius**39 = 1e390 raised OverflowError
    with pytest.raises(ValueError, match=r"^radius = 10000000000\.0 is out "
                                         r"of range"):
        _strictly(enclosed_charge, PotentialSolution(n=40, q=1.0), 1e10)


def test_flux_where_the_field_leaves_the_floats_names_r():
    # the squares of the nodes' coordinates overflow, and numpy warned of it
    with pytest.raises(ValueError, match=r"^r = \|x\| is out of range at "
                                         r"x = \[.*e\+19\d, .*\]: "
                                         r"O_\(n-1\) r\*\*3 = inf"):
        _strictly(flux_integral, PotentialSolution(n=3, q=1.0), 1e200)
    # within the floats the flux is the charge, up to the edges
    for n, radius in ((3, 1.5e102), (3, 1e-102), (2, 3e153), (2, 1e-150)):
        flux = _strictly(flux_integral, PotentialSolution(n=n, q=1.0),
                         radius)
        assert flux == pytest.approx(1.0, rel=1e-14)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_field_is_minus_the_radial_derivative(n):
    sol = PotentialSolution(n=n, q=2.5)
    h = 1e-6
    for r in (0.5, 1.0, 3.0):
        slope = (potential(sol, r + h) - potential(sol, r - h)) / (2.0 * h)
        assert field_magnitude(sol, r) == pytest.approx(-slope, rel=1e-8)


def test_field_vector_is_radial():
    sol = PotentialSolution(n=3, q=1.0)
    x = np.array([1.0, 2.0, 2.0])
    vec = field_vector(sol, x)
    r = np.linalg.norm(x)
    np.testing.assert_allclose(vec, field_magnitude(sol, r) * x / r,
                               rtol=1e-13)


def test_field_vector_points_inward_for_negative_charge():
    sol = PotentialSolution(n=3, q=-1.0)
    vec = field_vector(sol, np.array([1.0, 0.0, 0.0]))
    assert vec[0] < 0.0


@pytest.mark.parametrize("n", [2, 3, 5])
def test_batched_field_vector_matches_row_by_row(n):
    sol = PotentialSolution(n=n, q=-1.5)
    points = np.random.default_rng(n).normal(size=(7, n))
    batched = field_vector(sol, points)
    assert batched.shape == points.shape
    np.testing.assert_array_equal(
        batched, np.array([field_vector(sol, p) for p in points]))
    np.testing.assert_array_equal(field_vector(sol, points.reshape(7, 1, n)),
                                  batched.reshape(7, 1, n))


def test_field_vector_rejects_a_wrong_last_axis():
    sol = PotentialSolution(n=3, q=1.0)
    with pytest.raises(ValueError, match="3-vectors"):
        field_vector(sol, np.ones((4, 2)))
    with pytest.raises(ValueError, match="3-vectors"):
        field_vector(sol, 1.0)


def test_field_vector_rejects_the_origin_anywhere_in_a_batch():
    sol = PotentialSolution(n=2, q=1.0)
    with pytest.raises(ValueError, match="singular"):
        field_vector(sol, np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]]))


@pytest.mark.parametrize("point, scale", [
    ([1e200, 0.0, 0.0], "inf"),    # |x|^2 overflowed, and numpy warned
    ([1e-120, 0.0, 0.0], "0.0"),   # |x|^3 underflowed: divide by zero
    ([0.0, 1e-170, 0.0], "0.0"),   # |x|^2 underflows: it read as the origin
])
def test_field_vector_where_r_to_the_n_leaves_the_floats_names_r(point,
                                                                 scale):
    sol = PotentialSolution(n=3, q=1.0)
    batch = np.array([[1.0, 2.0, 3.0], point, [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match=rf"^r = \|x\| is out of range at "
                                         rf"x = \[.*\]: O_\(n-1\) r\*\*3 = "
                                         rf"{scale} is not a normal float"):
        _strictly(field_vector, sol, batch)


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------

@settings(derandomize=True, deadline=None)
@given(st.integers(3, 8), st.floats(0.1, 10.0), st.floats(0.05, 20.0))
def test_power_law_scaling_identity(n, lam, r):
    sol = PotentialSolution(n=n, q=1.0)
    assert lam ** (n - 2) * potential(sol, lam * r) == pytest.approx(
        potential(sol, r), rel=1e-12)


def test_scaling_above_two_dimensions_changes_nothing():
    sol = PotentialSolution(n=5, q=2.0)
    scaled, shift = apply_scaling(sol, ScalingTransform(3.0))
    assert shift == 0.0
    assert (scaled.n, scaled.q, scaled.mu) == (5, 2.0, None)


def test_scaling_in_two_dimensions_shifts_by_a_constant():
    q, mu, lam = 2.0, 1.0, 4.0
    sol = PotentialSolution(n=2, q=q, mu=mu)
    scaled, shift = apply_scaling(sol, ScalingTransform(lam))
    assert scaled.mu == pytest.approx(mu / lam, rel=1e-15)
    assert shift == pytest.approx(-(q / (2.0 * math.pi)) * math.log(lam),
                                  rel=1e-14)
    # the rescaled solution differs from the original by exactly that shift
    for r in (0.2, 1.0, 6.0):
        assert potential(scaled, r) == pytest.approx(
            potential(sol, r) + shift, rel=1e-13)


@pytest.mark.parametrize("mu, lam", [(1e-300, 1e300), (1e300, 1e-300)])
def test_a_scaled_reference_radius_outside_the_floats_is_rejected(mu, lam):
    # mu / lam underflows to 0 or overflows to inf; the error names the
    # quotient, not the mu argument the caller passed and that is valid
    sol = PotentialSolution(n=2, q=1.0, mu=mu)
    with pytest.raises(ValueError, match=r"mu / lam = .* outside the float"):
        apply_scaling(sol, ScalingTransform(lam))


@pytest.mark.parametrize("lam", [0.5, 2.0, math.e, 10.0])
@pytest.mark.parametrize("q", [1.0, 3.0])
def test_two_dimensional_field_scales_as_one_over_lambda(q, lam):
    sol = PotentialSolution(n=2, q=q)
    assert field_magnitude(sol, lam) == pytest.approx(
        field_magnitude(sol, 1.0) / lam, rel=1e-13)


def test_unit_charge_and_log_scale_give_unit_shift():
    sol = PotentialSolution(n=2, q=2.0 * math.pi)
    _, shift = apply_scaling(sol, ScalingTransform(math.e))
    assert shift == pytest.approx(-1.0, rel=1e-14)


def test_scale_factor_must_be_positive():
    with pytest.raises(ValueError):
        ScalingTransform(0.0)


# ---------------------------------------------------------------------------
# flux and Gauss law
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [1.0, 3.0, -2.0])
@pytest.mark.parametrize("radius", [0.5, 1.0, 5.0])
def test_numerical_flux_recovers_the_charge_2d(q, radius):
    sol = PotentialSolution(n=2, q=q)
    assert flux_integral(sol, radius) == pytest.approx(q, abs=1e-9)


@pytest.mark.parametrize("q", [1.0, 3.0, -2.0])
@pytest.mark.parametrize("radius", [0.5, 1.0, 5.0])
def test_numerical_flux_recovers_the_charge_3d(q, radius):
    sol = PotentialSolution(n=3, q=q)
    assert flux_integral(sol, radius) == pytest.approx(q, abs=1e-6)


def test_flux_quad_points_override():
    sol = PotentialSolution(n=3, q=1.0)
    assert flux_integral(sol, 1.0, quad_points=16) == pytest.approx(1.0,
                                                                    abs=1e-4)


def test_gauss_legendre_nodes_are_cached_read_only():
    nodes, weights = _gauss_legendre(DEFAULT_QUAD_POINTS_3D)
    assert _gauss_legendre(DEFAULT_QUAD_POINTS_3D)[0] is nodes
    fresh = np.polynomial.legendre.leggauss(DEFAULT_QUAD_POINTS_3D)
    for cached, want in zip((nodes, weights), fresh):
        np.testing.assert_array_equal(cached, want)
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 0.0


_CHARGES = st.floats(-5.0, 5.0).filter(lambda q: q != 0.0)


@settings(derandomize=True, deadline=None)
@given(_CHARGES, st.floats(0.1, 10.0))
def test_flux_2d_recovers_any_charge(q, radius):
    sol = PotentialSolution(n=2, q=q)
    assert flux_integral(sol, radius) == pytest.approx(q, abs=1e-9)


@settings(derandomize=True, deadline=None)
@given(_CHARGES, st.floats(0.1, 10.0))
def test_flux_3d_recovers_any_charge(q, radius):
    sol = PotentialSolution(n=3, q=q)
    assert flux_integral(sol, radius) == pytest.approx(q, abs=1e-6)


def test_flux_in_other_dimensions_points_to_the_identity():
    sol = PotentialSolution(n=4, q=1.0)
    with pytest.raises(ValueError, match="enclosed_charge"):
        flux_integral(sol, 1.0)


@settings(derandomize=True, deadline=None)
@given(st.integers(2, 8), st.floats(-5.0, 5.0), st.floats(0.1, 10.0))
def test_enclosed_charge_identity(n, q, radius):
    sol = PotentialSolution(n=n, q=q)
    assert enclosed_charge(sol, radius) == pytest.approx(
        q, rel=1e-13, abs=1e-13)


# ---------------------------------------------------------------------------
# discrete Laplacian
# ---------------------------------------------------------------------------

_DIRECTIONS = {
    2: np.array([3.0, 4.0]) / 5.0,
    3: np.array([2.0, 3.0, 6.0]) / 7.0,
    4: np.array([1.0, 2.0, 2.0, 4.0]) / 5.0,
}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_laplacian_residual_shrinks_like_h_squared(n):
    sol = PotentialSolution(n=n, q=1.0)
    x = _DIRECTIONS[n]
    res = [abs(laplacian_residual(sol, x, h)) for h in (1e-2, 5e-3, 2.5e-3)]
    assert 3.5 < res[0] / res[1] < 4.5
    assert 3.5 < res[1] / res[2] < 4.5


def test_laplacian_residual_is_small_off_the_origin():
    sol = PotentialSolution(n=3, q=4.0 * math.pi)
    res = laplacian_residual(sol, np.array([1.0, 0.0, 0.0]), 1e-3)
    assert abs(res) < 1e-4


def test_laplacian_guards_against_stencil_reaching_the_charge():
    sol = PotentialSolution(n=3, q=1.0)
    with pytest.raises(ValueError):
        laplacian_residual(sol, np.array([0.05, 0.0, 0.0]), 1e-2)


def test_laplacian_checks_point_dimension():
    sol = PotentialSolution(n=3, q=1.0)
    with pytest.raises(ValueError):
        laplacian_residual(sol, np.array([1.0, 0.0]), 1e-3)
