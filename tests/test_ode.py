"""The exponential family f(x) = c e^x and its translation action."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssb_lab.ode import is_vacuum, translate_solution

finite_c = st.floats(-5.0, 5.0)
finite_a = st.floats(-5.0, 5.0)


def test_translation_shifts_the_argument():
    # shifting x by a rescales the coefficient by e^a
    c, a = 1.7, 0.9
    shifted = translate_solution(c, a)
    for x in (-1.0, 0.0, 2.0):
        assert shifted * math.exp(x) == pytest.approx(c * math.exp(x + a),
                                                      rel=1e-14)


def test_doubling_shift():
    assert translate_solution(1.0, math.log(2.0)) == pytest.approx(2.0,
                                                                   rel=1e-15)


def test_translation_rejects_non_finite_shift():
    for a in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            translate_solution(1.0, a)


def test_translation_rejects_non_finite_coefficient():
    # checked before the overflow test, whose message would blame e^a
    for c in (math.inf, -math.inf, math.nan):
        for a in (0.0, 1.0):
            with pytest.raises(ValueError, match="coefficient must be finite"):
                translate_solution(c, a)


@settings(derandomize=True, deadline=None)
@given(finite_c, finite_a, finite_a)
def test_translations_compose_additively(c, a, b):
    two_step = translate_solution(translate_solution(c, a), b)
    one_step = translate_solution(c, a + b)
    assert two_step == pytest.approx(one_step, rel=1e-12, abs=1e-300)


@settings(derandomize=True, deadline=None)
@given(finite_c, finite_a)
def test_translation_inverse(c, a):
    back = translate_solution(translate_solution(c, a), -a)
    assert back == pytest.approx(c, rel=1e-12, abs=1e-300)


def test_zero_shift_is_the_identity():
    for c in (-3.0, 0.0, 1.234):
        assert translate_solution(c, 0.0) == c


def test_solution_rejects_overflowing_arguments():
    with pytest.raises(ValueError):
        translate_solution(1.0, 1000.0)


def test_overflow_guard_raises_instead_of_inf():
    with pytest.raises(ValueError):
        translate_solution(1e300, 200.0)


def test_zero_solution_is_fixed_by_every_translation():
    for a in (-700.0, -1.0, 0.0, 1.0, 700.0):
        assert translate_solution(0.0, a) == 0.0


def test_nonzero_solutions_move():
    for c in (-2.0, 0.01, 5.0):
        assert translate_solution(c, 1.0) != c


def test_vacuum_flag():
    assert is_vacuum(0.0)
    assert not is_vacuum(1e-12)
    assert not is_vacuum(-3.0)
