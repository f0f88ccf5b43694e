"""Polynomial root finding, critical points, and sign-flip verdicts.

The canonical polynomials have closed-form roots (x^2 - 1: +-1; x^4 - x^2:
+-1 and a double root at 0), which the search must find with their
multiplicities on a tight bracket and on a wide one.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ssb_lab.scalar import (DOUBLE_WELL, SQUARE_POLY, CriticalKind,
                            Polynomial, PolyRoot, SignFlipProblem,
                            _derivative_chain, _integer_coefficients,
                            _midpoint, _root, _sign, _square_free,
                            critical_points, real_roots, z2_solve,
                            z2_solutions, z2_verdict)
from ssb_lab.symmetry import SSBKind

INV_SQRT2 = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Polynomial basics
# ---------------------------------------------------------------------------

def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        Polynomial((0.0, 0.0))


@pytest.mark.parametrize("build", [
    lambda: Polynomial((-1.0, 0.0, math.inf)),
    lambda: Polynomial((math.nan, 1.0)),
    lambda: real_roots(SQUARE_POLY, (0.5, math.inf)),
    lambda: real_roots(SQUARE_POLY, (-math.inf, math.inf)),
    lambda: real_roots(SQUARE_POLY, (math.nan, 3.0)),
], ids=["inf_coefficient", "nan_coefficient", "inf_end", "inf_bracket",
        "nan_end"])
def test_non_finite_input_rejected(build):
    with pytest.raises(ValueError):
        build()


def test_trailing_zero_coefficients_trimmed():
    p = Polynomial((1.0, 2.0, 0.0, 0.0))
    assert p.degree == 1


def test_horner_matches_numpy_on_random_polynomials():
    rng = np.random.default_rng(7)
    for _ in range(25):
        coeffs = rng.normal(size=rng.integers(1, 9))
        if abs(coeffs[-1]) < 1e-6:
            coeffs[-1] = 1.0
        p = Polynomial(tuple(coeffs))
        xs = rng.uniform(-3.0, 3.0, size=11)
        np.testing.assert_allclose(p(xs), np.polyval(coeffs[::-1], xs),
                                   rtol=1e-12, atol=1e-12)


def test_float_horner_matches_the_array_path_bit_for_bit():
    p = Polynomial((0.3, -1.7, 0.0, 2.9, -0.45))
    for x in np.random.default_rng(5).uniform(-4.0, 4.0, size=50).tolist():
        value = p(x)
        assert type(value) is float
        assert value == p(np.array(x))


def test_derivative_coefficients():
    dp = DOUBLE_WELL.derivative()  # 4x^3 - 2x
    assert dp.coefficients == (0.0, -2.0, 0.0, 4.0)


def test_derivative_of_constant_rejected():
    with pytest.raises(ValueError):
        Polynomial((3.0,)).derivative()


def test_cauchy_bound_encloses_roots():
    rng = np.random.default_rng(11)
    for _ in range(20):
        roots = rng.uniform(-8.0, 8.0, size=rng.integers(1, 6))
        coeffs = np.poly(roots)[::-1]  # ascending
        bound = Polynomial(tuple(coeffs)).cauchy_root_bound()
        assert bound >= np.max(np.abs(roots)) - 1e-9


def test_cauchy_bound_is_rounded_outward():
    # the real root lies just beyond -1/c; 1 + 1/c rounded to nearest falls
    # short of it, and a + 1.0 margin is lost at this magnitude
    p = Polynomial((1.0, 0.0, 1.0, 2.7175706677991435e-102))
    bound = p.cauchy_root_bound()
    assert p(-bound) < 0.0 < p(bound)
    assert len(real_roots(p, (-bound, bound))) == 1


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

def test_square_poly_roots():
    for bracket in ((-3.0, 3.0), (-10.0, 10.0)):
        roots = real_roots(SQUARE_POLY, bracket)
        assert [r.multiplicity for r in roots] == [1, 1]
        np.testing.assert_allclose([r.location for r in roots], [-1.0, 1.0],
                                   atol=1e-12)
    # a root on a bracket end shows no sign change inside the bracket
    assert real_roots(SQUARE_POLY, (1.0, 3.0)) == [PolyRoot(1.0, 1)]
    assert real_roots(SQUARE_POLY, (-3.0, -1.0)) == [PolyRoot(-1.0, 1)]


def test_double_well_roots_and_multiplicities():
    for bracket in ((-3.0, 3.0), (-10.0, 10.0)):
        roots = real_roots(DOUBLE_WELL, bracket)
        assert [r.multiplicity for r in roots] == [1, 2, 1]
        np.testing.assert_allclose([r.location for r in roots],
                                   [-1.0, 0.0, 1.0], atol=1e-10)
    assert real_roots(DOUBLE_WELL, (0.0, 0.5)) == [PolyRoot(0.0, 2)]


def test_double_well_even_root_is_algebraically_exact():
    # x^4 - x^2 = x^2 (x^2 - 1) vanishes to second order at 0
    assert DOUBLE_WELL(0.0) == 0.0
    assert DOUBLE_WELL.derivative()(0.0) == 0.0


def test_triple_root_detected():
    p = Polynomial((-8.0, 12.0, -6.0, 1.0))  # (x - 2)^3
    roots = real_roots(p, (-5.0, 5.0))
    assert len(roots) == 1
    assert roots[0].multiplicity == 3
    assert roots[0].location == pytest.approx(2.0, abs=1e-5)


def test_exact_double_roots_detected():
    p = Polynomial((16.0, 0.0, -8.0, 0.0, 1.0))  # (x^2 - 4)^2
    roots = real_roots(p, (-6.0, 6.0))
    assert [r.multiplicity for r in roots] == [2, 2]
    np.testing.assert_allclose([r.location for r in roots], [-2.0, 2.0],
                               atol=1e-6)


def test_random_simple_roots_recovered():
    rng = np.random.default_rng(23)
    for _ in range(50):
        k = int(rng.integers(2, 6))
        grid = np.arange(-6.0, 6.5, 0.5)
        roots = np.sort(rng.choice(grid, size=k, replace=False))
        roots = roots + rng.uniform(-0.1, 0.1, size=k)
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        coeffs = (np.poly(roots) * scale)[::-1]
        found = real_roots(Polynomial(tuple(coeffs)),
                           (roots.min() - 1.0, roots.max() + 1.0))
        assert [r.multiplicity for r in found] == [1] * k
        np.testing.assert_allclose([r.location for r in found], roots,
                                   atol=1e-8)


def _even_poly(radii, zero=False):
    """x^(2 zero) * prod (x^2 - r^2), built in y = x^2 so that every odd
    coefficient is exactly 0."""
    in_y = np.polynomial.polynomial.polyfromroots([r * r for r in radii])
    coeffs = [0.0] * (2 * len(in_y) - 1)
    coeffs[::2] = in_y.tolist()
    return Polynomial(tuple([0.0, 0.0, *coeffs] if zero else coeffs))


def test_close_root_pair_split_by_a_critical_point():
    # 1.8264 and 1.8345 are 0.008 apart on a +-29.6 bracket; the critical
    # point between them puts each in an interval of its own
    radii = [1.8264, 1.8345, 1.5652]
    p = _even_poly(radii)
    bound = p.cauchy_root_bound() + 1.0
    roots = real_roots(p, (-bound, bound))
    expected = sorted([-r for r in radii] + radii)
    assert [r.multiplicity for r in roots] == [1] * 6
    np.testing.assert_allclose([r.location for r in roots], expected,
                               atol=1e-8)


@st.composite
def _spaced_radii(draw):
    radii = draw(st.lists(st.floats(0.1, 2.0), min_size=1, max_size=3))
    gap = draw(st.none() | st.floats(1e-3, 0.02))
    if gap is not None:  # a close partner the search must tell apart
        r = radii[0]
        radii.append(r + gap if r + gap <= 2.0 else r - gap)
    assume(all(abs(a - b) >= 1e-3
               for i, a in enumerate(radii) for b in radii[:i]))
    return radii


@settings(derandomize=True, deadline=None)
@given(_spaced_radii(), st.booleans())
# p has an extremum of only -5.8e-11 between the roots 0.1171875 and 0.125;
# p is square-free, so that extremum is no root
@example([0.1015625, 0.125, 0.1171875], True)
def test_even_polynomial_roots_recovered(radii, zero):
    p = _even_poly(radii, zero)
    bound = p.cauchy_root_bound() + 1.0
    expected = sorted([-r for r in radii] + radii + ([0.0] if zero else []))
    found = [r.location for r in real_roots(p, (-bound, bound))]
    assert len(found) == len(expected)
    # p(-x) == p(x) bit for bit, so the roots are exact sign-flip pairs
    assert found == [-x for x in reversed(found)]
    np.testing.assert_allclose(found, expected, atol=1e-8)


def test_newton_iterates_that_cycle_stop_at_the_repeat(monkeypatch):
    # next to sqrt(2) the Newton iterates of x^2 - 2 cycle between two
    # neighbouring floats; they are the bracket, so the search stops at the
    # first repeat
    p = Polynomial((-2.0, 0.0, 1.0))
    points = []
    horner = Polynomial.__call__

    def counted(self, x):
        if self == p:
            points.append(x)
        return horner(self, x)

    monkeypatch.setattr(Polynomial, "__call__", counted)
    [root] = real_roots(p, (1.0, 2.0))
    assert abs(root.location - math.sqrt(2.0)) <= 4.5e-16
    # p at the bracket ends 1 and 2, then once per step: the midpoint 1.5,
    # four Newton iterates and the neighbour whose Newton step returns to
    # an iterate already evaluated
    steps = points[2:]
    assert len(steps) == len(set(steps)) == 6
    assert abs(steps[-1] - steps[-2]) == math.ulp(math.sqrt(2.0))


_SEARCHED = {
    "square": SQUARE_POLY,
    "double_well": DOUBLE_WELL,
    "cube": Polynomial((-8.0, 12.0, -6.0, 1.0)),
    "even_octic": _even_poly([0.3, 1.1, 1.7], zero=True),
    "dense_octic": Polynomial((1.0, -2.0, 0.5, 3.0, -1.0, 0.25, 2.0, -0.5,
                               1.0)),
}


@pytest.mark.parametrize("p,in_roots,in_critical", [
    (_SEARCHED["square"], [1, 2], [1, 2]),
    (_SEARCHED["double_well"], [1, 1, 2], [1, 2, 3, 4]),
    (_SEARCHED["cube"], [1], [1, 1, 2, 3]),
    (_SEARCHED["even_octic"], [1, 1, 2, 3, 4, 5, 6], list(range(1, 9))),
    (_SEARCHED["dense_octic"], list(range(1, 9)), list(range(1, 9))),
], ids=list(_SEARCHED))
def test_one_search_builds_each_derivative_once(p, in_roots, in_critical,
                                                monkeypatch):
    # real_roots builds each derivative of each square-free factor once:
    # x^2 - 1 and x for x^4 - x^2, only x - 2 for (x - 2)^3.  critical_points
    # builds each derivative of p once and reuses them for a square-free p';
    # for (x - 2)^3 it adds the derivative of the factor x - 2 of p'.  A
    # square-free p (square, dense_octic) is its own only factor: degrees
    # 1..deg, once each
    calls = []
    derivative = Polynomial.derivative

    def counted(self):
        calls.append(self.degree)
        return derivative(self)

    monkeypatch.setattr(Polynomial, "derivative", counted)
    bound = p.cauchy_root_bound() + 1.0
    real_roots(p, (-bound, bound))
    assert sorted(calls) == in_roots
    calls.clear()
    critical_points(p)
    assert sorted(calls) == in_critical


# evaluations of Polynomial.__call__ per real_roots:
#                bisection + Newton polish   bracketed Newton
# square                   123                      27
# double_well              129                      30
# cube                      57                       5
# even_octic              1085                     286
# dense_octic              625                     192
@pytest.mark.parametrize("name,bisected", [
    ("square", 123), ("double_well", 129), ("cube", 57),
    ("even_octic", 1085), ("dense_octic", 625),
])
def test_root_search_makes_at_most_half_the_bisection_evaluations(
        name, bisected, monkeypatch):
    p = _SEARCHED[name]
    bound = p.cauchy_root_bound() + 1.0
    calls = []
    horner = Polynomial.__call__

    def counted(self, x):
        calls.append(x)
        return horner(self, x)

    monkeypatch.setattr(Polynomial, "__call__", counted)
    real_roots(p, (-bound, bound))
    assert len(calls) <= bisected // 2


def _times(a, b):
    """Product of two ascending coefficient lists, exactly."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def _dyadic_roots(draw):
    """Distinct roots k/8, |k| <= 16, with multiplicities 1 to 4 summing to
    at most 10, and whether a factor x^2 + 1/4 (no real root) joins them."""
    ks = draw(st.lists(st.integers(-16, 16), min_size=1, max_size=4,
                       unique=True))
    ms = []
    for left in reversed(range(len(ks))):  # each root left needs 1 more
        ms.append(draw(st.integers(1, min(4, 10 - sum(ms) - left))))
    return sorted(zip(ks, ms)), sum(ms) <= 8 and draw(st.booleans())


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_dyadic_roots())
@example(([(0, 4)], False))                              # x^4
@example(([(-8, 2), (8, 2)], False))                     # (x^2 - 1)^2
@example(([(9, 4), (10, 4)], True))                      # two close quadruples
def test_exact_multiple_roots_recovered(case):
    roots, quadratic = case
    exact = [Fraction(1)]
    for k, m in roots:
        for _ in range(m):
            exact = _times(exact, [Fraction(-k, 8), Fraction(1)])
    if quadratic:
        exact = _times(exact, [Fraction(1, 4), Fraction(0), Fraction(1)])
    coeffs = [float(c) for c in exact]
    assert [Fraction(c) for c in coeffs] == exact  # floats hold them exactly
    p = Polynomial(tuple(coeffs))
    bound = p.cauchy_root_bound() + 1.0
    found = real_roots(p, (-bound, bound))
    assert [r.multiplicity for r in found] == [m for _, m in roots]
    np.testing.assert_allclose([r.location for r in found],
                               [k / 8.0 for k, _ in roots], rtol=0.0,
                               atol=1e-12)


def _sturm_count(coeffs):
    """The number of distinct real roots of the polynomial, exactly: sign
    variations of its Sturm sequence at -inf minus those at +inf."""
    seq = [[Fraction(c) for c in coeffs]]
    seq.append([i * c for i, c in enumerate(seq[0])][1:])
    while len(seq[-1]) > 1:
        r = list(seq[-2])
        while len(r) >= len(seq[-1]):
            q, shift = r[-1] / seq[-1][-1], len(r) - len(seq[-1])
            for j, y in enumerate(seq[-1]):
                r[shift + j] -= q * y
            while r and r[-1] == 0:
                r.pop()
        if not r:
            break
        seq.append([-c for c in r])

    def variations(signs):
        return sum((a < 0) != (b < 0) for a, b in zip(signs, signs[1:]))

    return (variations([s[-1] * (-1) ** (len(s) - 1) for s in seq])
            - variations([s[-1] for s in seq]))


def test_distinct_root_count_equals_the_exact_sturm_count():
    # generic polynomials: their critical points are far enough from their
    # roots for float evaluation to tell the signs there apart
    rng = np.random.default_rng(17)
    for _ in range(300):
        coeffs = rng.uniform(-10.0, 10.0, size=rng.integers(3, 10)).tolist()
        p = Polynomial(tuple(coeffs))
        bound = p.cauchy_root_bound() + 1.0
        assert len(real_roots(p, (-bound, bound))) == _sturm_count(coeffs)


@st.composite
def _wide_coefficients(draw):
    """3 to 10 coefficients m * 10^e of either sign, with 1 <= m < 10 and
    decimal exponents e from -30 to 30."""
    return [draw(st.sampled_from([-1.0, 1.0]))
            * draw(st.floats(1.0, 10.0, exclude_max=True))
            * 10.0 ** draw(st.integers(-30, 30))
            for _ in range(draw(st.integers(3, 10)))]


# coefficients of such different sizes give brackets of 10^40 and more: a
# root or split point near 0 is 10^40 times smaller than the bracket, past
# the reach of 200 arithmetic halvings, and a misplaced split point lost
# the roots on its sides
@settings(derandomize=True, deadline=None, max_examples=300)
@given(_wide_coefficients(), st.none())
@example([0.0, 4.0042955499057695e-222, 1.0], (-3.0, 3.0))
@example([-1.2826325445037597e-10, 11321.774900703911,
          -2.9547254679235374e+27, 1.5091536397151335e+26,
          -2.714929463715223e-26, -1.5805905301260298e+21,
          -1.1733276575518402e-20], None)
# p' overflows past about 1e40, and near its root at 3.8e47 it is finite
# nowhere; the search once put that root at 3.29e49, losing two roots
@example([-2.435670427049139e-21, 1.0658587084233997e+17,
          5.159633001236197e+23, -7.371918592711731e-06,
          1.0593636499629579e+17, -1.7998304242281277e+20,
          1873.4029214139182, -2.384358637363404e+25,
          1.5404640301285174e+23, -3.6398160133580513e-25], None)
def test_wide_coefficients_keep_the_exact_sturm_count(coeffs, bracket):
    p = Polynomial(tuple(coeffs))
    if bracket is None:
        bound = p.cauchy_root_bound() + 1.0
        bracket = (-bound, bound)
    assert len(real_roots(p, bracket)) == _sturm_count(coeffs)


@pytest.mark.parametrize("eps", [1e-50, 1e-100, 1e-150])
def test_newton_steps_that_only_halve_x_give_way_to_bisection(eps):
    # far above the roots -eps and 0 of x^2 + eps x each Newton step halves
    # x, exactly half the step before it; taken, they ended 200 steps later
    # far from the root near 0
    p = Polynomial((0.0, eps, 1.0))
    assert [r.location for r in real_roots(p, (-3.0, 3.0))] == [-eps, 0.0]


def test_root_far_smaller_than_its_bracket_is_reached():
    # the roots -eps and 0 of x^2 + eps x in (-3, 3): 200 arithmetic
    # halvings of 3 end near 1e-60; bisecting on bit patterns reaches 0.
    # Below about 1e-162 p underflows to 0.0, and a search that stopped
    # there ended at -3.3e-167 for eps = 4.0e-222 and at -5.3e-166 for
    # eps = 1e-170; read exactly, the signs bisect down to -eps
    for eps in (1e-170, 4.0042955499057695e-222):
        p = Polynomial((0.0, eps, 1.0))
        low, zero = [r.location for r in real_roots(p, (-3.0, 3.0))]
        assert zero == 0.0 and math.copysign(1.0, zero) == 1.0
        assert abs(low + eps) <= 4 * math.ulp(eps)
        assert p(low) == 0.0


@pytest.mark.parametrize("eps", [5e-324, 1e-323, 1.5e-323, 4e-323])
def test_roots_on_adjacent_floats_are_both_found(eps):
    # the turning point -eps/2 of x^2 + eps x is no float for eps = 5e-324:
    # the split point lands on a root, and the piece beyond it holds the
    # other root on the next float
    for sign in (1.0, -1.0):
        p = Polynomial((0.0, sign * eps, 1.0))
        roots = [r.location for r in real_roots(p, (-3.0, 3.0))]
        assert roots == sorted([-sign * eps, 0.0])


@pytest.mark.parametrize("lo,hi,mid", [
    (-3.0, 3.0, 0.0),
    (-1e-300, 2.0, 0.0),
    (1.0, 1.5, 1.25),                    # one binade: the arithmetic midpoint
    (1.0, 2.0, 1.5),
    (0.0, 4.0, 1.5 * 2.0 ** -511),       # bit patterns 0 and 0x4010...
    (-0.0, 4.0, 1.5 * 2.0 ** -511),      # -0.0 is read as 0.0
    (-4.0, -0.0, -1.5 * 2.0 ** -511),
    (5e-324, 1e-323, 1e-323),            # adjacent floats: an end
])
def test_midpoint_of_the_bracket(lo, hi, mid):
    assert _midpoint(lo, hi) == mid
    assert _midpoint(-hi, -lo) == -mid


@pytest.mark.parametrize("lo,hi", [(1e-300, 1.0), (5e-324, 1e300),
                                   (0.5, 3.0), (0.0, 1e-310)])
def test_midpoint_halves_the_floats_of_the_bracket(lo, hi):
    def index(x):  # the position of x >= 0 among the floats
        return struct.unpack("<q", struct.pack("<d", x))[0]
    mid = _midpoint(lo, hi)
    assert abs((index(mid) - index(lo)) - (index(hi) - index(mid))) <= 1


def test_critical_points_name_an_overflowing_root_bound():
    # p' = 1 + 1e-323 x has a root bound of 1e323, beyond the floats
    with pytest.raises(ValueError, match=r"the root bound of p' overflows: "
                                         r"the coefficients of p' are "
                                         r"\[1\.0, 1e-323\]"):
        critical_points(Polynomial((1.0, 1.0, 5e-324)))


def test_close_pair_next_to_a_critical_point_keeps_both_roots():
    # p at the critical point between -4.85151 and -4.85148 is smaller than
    # Horner's rounding error there; read from the float value, its sign
    # matched both neighbours and the pair came back as one root
    coeffs = np.polynomial.polynomial.polyfromroots(
        [-4.86194, -4.85151, -4.85148, -4.84048, 4.28445]).tolist()
    p = Polynomial(tuple(coeffs))
    bound = p.cauchy_root_bound() + 1.0
    roots = real_roots(p, (-bound, bound))
    assert len(roots) == _sturm_count(coeffs) == 5
    assert [r.multiplicity for r in roots] == [1] * 5


def _bisect(p, lo, hi):
    """Reference root search: bisection of a sign-change bracket down to
    adjacent floats."""
    flo = p(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fmid = p(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0.0) == (fmid < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _newton_polish(p, dp, x):
    """Reference polish: the Newton iterate from x with the smallest |p|,
    within 30 steps and up to the first repeated iterate."""
    fx = p(x)
    best_x, best_val = x, abs(fx)
    seen = {x}
    for _ in range(30):
        d = dp(x)
        if d == 0.0:
            break
        x = x - fx / d
        if x in seen:
            break
        seen.add(x)
        fx = p(x)
        if abs(fx) < best_val:
            best_x, best_val = x, abs(fx)
        if fx == 0.0:
            break
    return best_x


def _reference_zeros(chain, k, lo, hi):
    """Sign changes and exact zeros of chain[k] in [lo, hi], each root
    bisected and then polished, with float signs at the split points."""
    p, dp = chain[k], chain[k + 1]
    crit = _reference_zeros(chain, k + 1, lo, hi) if dp.degree >= 1 else []
    ends = [lo, *(x for x in crit if lo < x < hi), hi]
    vals = [p(x) for x in ends]
    zeros = {x for x, v in zip(ends, vals) if v == 0.0}
    for a, b, fa, fb in zip(ends, ends[1:], vals, vals[1:]):
        if fa != 0.0 and fb != 0.0 and (fa < 0.0) != (fb < 0.0):
            zeros.add(_newton_polish(p, dp, _bisect(p, a, b)))
    return sorted(zeros)


def _assert_matches_the_reference(coeffs, lo, hi):
    # each search returns a root within Wilkinson's first-order bound
    # gamma_2n sum |a_i| |x|^i / |p'(x)| of the exact one, so the two lie
    # within twice that of each other; the 4 ulp allow for the bound's own
    # rounding
    p = Polynomial(tuple(coeffs))
    found = [r.location for r in real_roots(p, (lo, hi))]
    chain = [p]
    while chain[-1].degree >= 1:
        chain.append(chain[-1].derivative())
    reference = _reference_zeros(chain, 0, lo, hi)
    assert len(found) == len(reference)
    n = p.degree
    gamma = 2 * n * 2.0 ** -53 / (1.0 - 2 * n * 2.0 ** -53)
    magnitude = Polynomial(tuple(abs(c) for c in coeffs))
    for x, ref in zip(found, reference):
        tol = (2.0 * gamma * magnitude(abs(ref)) / abs(chain[1](ref))
               + 4.0 * math.ulp(ref))
        assert abs(x - ref) <= tol


def _full_zeros(chain, k, lo, hi):
    """scalar._zeros without its rule for even and odd polynomials: all of
    [lo, hi] is searched, however symmetric chain[k] and the bracket are,
    as the reference that the rule must equal bit for bit."""
    p, dp = chain[k], chain[k + 1]
    crit = _full_zeros(chain, k + 1, lo, hi) if dp.degree >= 1 else []
    inner = [x for x in crit if lo < x < hi]
    ends = [lo, *inner, hi]
    f, _ = _integer_coefficients(p)
    vals = [p(lo), *(_sign(f, x) for x in inner), p(hi)]
    zeros = {x for x, v in zip(ends, vals) if v == 0.0}
    for a, b, fa, fb in zip(ends, ends[1:], vals, vals[1:]):
        if fa != 0.0 and fb != 0.0 and (fa < 0.0) != (fb < 0.0):
            zeros.add(_root(p, dp, f, a, b, fa))
    return sorted(zeros)


def _full_roots(p, lo, hi):
    """real_roots(p, (lo, hi)) by _full_zeros, as (hex, multiplicity)."""
    roots = [(x, m) for m, f in _square_free(p)
             for x in _full_zeros(_derivative_chain([f]), 0, lo, hi)]
    return [(x.hex(), m) for x, m in sorted(roots)]


@st.composite
def _even_or_odd(draw):
    """Coefficients m * 10^e, 1 <= m < 10 and e from -30 to 30, of the even
    or of the odd powers up to degree 10, the others exactly 0."""
    parity = draw(st.integers(0, 1))
    degree = parity + 2 * draw(st.integers(1 - parity, (10 - parity) // 2))
    coeffs = [0.0] * (degree + 1)
    for i in range(parity, degree + 1, 2):
        coeffs[i] = (draw(st.sampled_from([-1.0, 1.0]))
                     * draw(st.floats(1.0, 10.0, exclude_max=True))
                     * 10.0 ** draw(st.integers(-30, 30)))
    if degree > parity and draw(st.booleans()):
        coeffs[parity] = 0.0  # a multiple root at 0
    return coeffs


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_even_or_odd())
@example([0.0, 0.0, -1.0, 0.0, 1.0])                # x^4 - x^2
@example([0.0, -1.0, 0.0, 1.0])                     # x^3 - x
@example([0.0, 0.0, 0.0, 1.0])                      # x^3
def test_even_and_odd_searches_of_half_the_bracket_are_bit_identical(coeffs):
    # p(-x) = +-p(x) bit for bit, so the roots on [lo, 0] mirror those on
    # [0, hi]: searching [0, hi] alone gives the full search's roots, to
    # the last bit and the sign of 0
    p = Polynomial(tuple(coeffs))
    bound = p.cauchy_root_bound() + 1.0
    found = [(r.location.hex(), r.multiplicity)
             for r in real_roots(p, (-bound, bound))]
    assert found == _full_roots(p, -bound, bound)
    assert all(x != "-0x0.0p+0" for x, _ in found)
    if p.degree >= 2:
        dp = p.derivative()
        bound = dp.cauchy_root_bound() + 1.0
        assume(bound < math.inf)
        located = [cp.location.hex() for cp in critical_points(p)]
        assert located == [x for x, _ in _full_roots(dp, -bound, bound)]


@pytest.mark.parametrize("name", ["even_octic", "double_well"])
def test_even_polynomials_make_at_most_60_percent_of_the_full_evaluations(
        name, monkeypatch):
    p = _SEARCHED[name]
    bound = p.cauchy_root_bound() + 1.0
    calls = []
    horner = Polynomial.__call__

    def counted(self, x):
        calls.append(x)
        return horner(self, x)

    monkeypatch.setattr(Polynomial, "__call__", counted)
    found = [(r.location.hex(), r.multiplicity)
             for r in real_roots(p, (-bound, bound))]
    half = len(calls)
    calls.clear()
    assert found == _full_roots(p, -bound, bound)
    assert half <= 0.6 * len(calls)


def test_roots_match_the_bisection_reference():
    # the polynomials of the Sturm-count test
    rng = np.random.default_rng(17)
    for _ in range(300):
        coeffs = rng.uniform(-10.0, 10.0, size=rng.integers(3, 10)).tolist()
        bound = Polynomial(tuple(coeffs)).cauchy_root_bound() + 1.0
        _assert_matches_the_reference(coeffs, -bound, bound)


@pytest.mark.parametrize("coeffs,bracket", [
    # roots near -719.8 and 1 in the Cauchy bracket +-(1e20 + 2)
    ([-1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1e-20], None),
    # roots +-3.16e-13 in (-2, 2)
    ([-1e-100, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0], (-2.0, 2.0)),
], ids=["far_bracket", "tiny_roots"])
def test_slow_newton_steps_give_way_to_bisection(coeffs, bracket):
    # far from every root p is about a_8 x^8, and each Newton step only
    # scales the distance to the root by 7/8: without the bisection taken
    # when a step is not at most half the step before last, 200 steps end
    # far from the root
    if bracket is None:
        bound = Polynomial(tuple(coeffs)).cauchy_root_bound() + 1.0
        bracket = (-bound, bound)
    _assert_matches_the_reference(coeffs, *bracket)


def test_rounded_quadruple_root_is_not_guessed_back():
    # rounding broke the quadruple root of (x - 1.3)^4: the coefficients
    # given have two simple real roots, 1.2998018 and 1.3001982, and a
    # complex pair; a multiplicity guessed from small derivatives gave
    # (2, 4, 2), more roots than the degree
    p = Polynomial(tuple(np.polynomial.polynomial.polyfromroots([1.3] * 4)))
    roots = real_roots(p, (-5.0, 5.0))
    assert [r.multiplicity for r in roots] == [1, 1]
    assert sum(r.multiplicity for r in roots) <= p.degree
    # rounding noise in p's values is as large as p this close to 1.3
    np.testing.assert_allclose([r.location for r in roots],
                               [1.2998018, 1.3001982], atol=1e-4)


def test_poly_with_no_real_roots():
    p = Polynomial((1.0, 0.0, 1.0))  # x^2 + 1
    assert real_roots(p, (-5.0, 5.0)) == []


def test_constant_poly_has_no_root_search():
    with pytest.raises(ValueError):
        real_roots(Polynomial((2.0,)), (-1.0, 1.0))


def test_empty_bracket_rejected():
    with pytest.raises(ValueError):
        real_roots(SQUARE_POLY, (1.0, -1.0))


# ---------------------------------------------------------------------------
# critical points and minima
# ---------------------------------------------------------------------------

def test_double_well_critical_points():
    cps = critical_points(DOUBLE_WELL)
    kinds = [c.kind for c in cps]
    assert kinds == [CriticalKind.MINIMUM, CriticalKind.MAXIMUM,
                     CriticalKind.MINIMUM]
    np.testing.assert_allclose([c.location for c in cps],
                               [-INV_SQRT2, 0.0, INV_SQRT2], atol=1e-10)
    np.testing.assert_allclose([c.value for c in cps],
                               [-0.25, 0.0, -0.25], atol=1e-14)


def test_quartic_saddle_classified():
    p = Polynomial((0.0, 0.0, 0.0, 1.0))  # x^3: flat saddle at 0
    cps = critical_points(p)
    assert len(cps) == 1
    assert cps[0].kind is CriticalKind.SADDLE


@pytest.mark.parametrize("coeffs,kinds", [
    ((0.0, 0.0, 0.0, 0.0, 1.0), ["min"]),                 # x^4
    ((0.0, 0.0, 0.0, 0.0, -1.0), ["max"]),                # -x^4
    ((0.0, 0.0, 0.0, 0.0, 0.0, 1.0), ["saddle"]),         # x^5
    ((1.0, 0.0, -2.0, 0.0, 1.0), ["min", "max", "min"]),  # (x^2 - 1)^2
])
def test_flat_critical_points_classified(coeffs, kinds):
    cps = critical_points(Polynomial(coeffs))
    assert [cp.kind.value for cp in cps] == kinds


def test_critical_points_needs_degree_two():
    with pytest.raises(ValueError):
        critical_points(Polynomial((1.0, 2.0)))


# ---------------------------------------------------------------------------
# sign-flip problems
# ---------------------------------------------------------------------------

def test_square_root_solutions():
    np.testing.assert_allclose(z2_solutions(SignFlipProblem.SQUARE_ROOTS),
                               [-1.0, 1.0], atol=1e-12)


def test_bundled_problems_are_solved_once_and_shared():
    for problem in SignFlipProblem:
        solved = z2_solve(problem)
        assert isinstance(solved, tuple)
        assert z2_solve(problem) is solved
        assert z2_solutions(problem) == [s.location for s in solved]
    minima = z2_solve(SignFlipProblem.QUARTIC_MINIMA)
    assert [cp.location for cp in minima] == [
        cp.location for cp in critical_points(DOUBLE_WELL)
        if cp.kind is CriticalKind.MINIMUM]
    assert [cp.kind for cp in minima] == [CriticalKind.MINIMUM] * 2
    bound = DOUBLE_WELL.cauchy_root_bound() + 1.0
    assert (list(z2_solve(SignFlipProblem.QUARTIC_ROOTS))
            == real_roots(DOUBLE_WELL, (-bound, bound)))


def test_quartic_minima_solutions():
    np.testing.assert_allclose(z2_solutions(SignFlipProblem.QUARTIC_MINIMA),
                               [-INV_SQRT2, INV_SQRT2], atol=1e-10)


@pytest.mark.parametrize("problem,kind,invariant", [
    (SignFlipProblem.SQUARE_ROOTS, SSBKind.NARROW, None),
    (SignFlipProblem.QUARTIC_ROOTS, SSBKind.GENERAL, 1),
    (SignFlipProblem.QUARTIC_MINIMA, SSBKind.NARROW, None),
])
def test_verdicts(problem, kind, invariant):
    verdict = z2_verdict(problem)
    assert verdict.kind is kind
    assert verdict.invariant_solution == invariant


def test_quartic_root_witness_orders():
    # the sign flip fixes only the root at the origin
    verdict = z2_verdict(SignFlipProblem.QUARTIC_ROOTS)
    assert [w.order for w in verdict.witnesses] == [1, 2, 1]
