"""Every public constructor rejects a NaN or infinite number, and the
symmetry types a finite number too large for them, with a ValueError,
before any arithmetic on it could warn."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssb_lab.electrostatics import PotentialSolution, ScalingTransform
from ssb_lab.maxwell import PlaneWaveSpec, make_helicity_wave
from ssb_lab.scalar import Polynomial
from ssb_lab.symmetry import OrthoTransform, PointConfig

_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def _with(values, i, bad, imag=False):
    """A copy of the flat list ``values`` with entry i, or its imaginary
    part, replaced by ``bad``."""
    values = list(values)
    values[i] = complex(values[i].real, bad) if imag else bad
    return values


def _constructions(bad, i, imag):
    """Each public constructor with ``bad`` in one of its numbers; i picks
    the entry of an array argument."""
    wave = make_helicity_wave((1, 2, 2))
    rotation = [math.cos(0.3), -math.sin(0.3), math.sin(0.3), math.cos(0.3)]
    return [
        lambda: OrthoTransform(np.reshape(_with(rotation, i, bad), (2, 2))),
        lambda: PointConfig(np.reshape(_with([0.0, 1.0, 0.5, -1.0], i, bad),
                                       (2, 2))),
        lambda: Polynomial(tuple(_with([1.0, 0.0, -2.0, 3.0], i, bad))),
        lambda: PotentialSolution(n=3, q=bad),
        lambda: PotentialSolution(n=2, q=1.0, mu=bad),
        lambda: PotentialSolution(n=bad, q=1.0),
        lambda: ScalingTransform(bad),
        lambda: PlaneWaveSpec(_with([1.0, 2.0, 2.0], i % 3, bad),
                              wave.polarization),
        lambda: PlaneWaveSpec(wave.k, _with(wave.polarization, i % 3, bad,
                                            imag)),
        lambda: PlaneWaveSpec(wave.k, wave.polarization,
                              complex(1.0, bad) if imag else bad),
        # no entry of an orthogonal matrix is above 1 in magnitude, and
        # squared distances overflow from coordinates of about 1e154
        lambda: OrthoTransform(np.reshape(_with(rotation, i, 1e200), (2, 2))),
        lambda: PointConfig([[1e200, 0.0], [-1e200, 0.0]]),
    ]


@settings(derandomize=True, deadline=None)
@given(_NON_FINITE, st.integers(0, 3), st.booleans())
def test_constructors_reject_non_finite_numbers(bad, i, imag):
    for construct in _constructions(bad, i, imag):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                construct()
