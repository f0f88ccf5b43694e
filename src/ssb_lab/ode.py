"""The exponential family f(x) = c * e^x solving f' = f, and how
x-translations act on it: shifting x by a rescales c by e^a, so the zero
solution is the unique translation-invariant member of the family."""

from __future__ import annotations

import math

# exp overflows just above 709 in double precision
_X_LIMIT = 700.0


def translate_solution(c: float, a: float) -> float:
    """Coefficient of the translated solution: c * e^a."""
    if not math.isfinite(c):
        raise ValueError(f"coefficient must be finite, got {c}")
    if not math.isfinite(a):
        raise ValueError(f"shift must be finite, got {a}")
    if c == 0.0:
        return 0.0
    if a + math.log(abs(c)) > _X_LIMIT:
        raise ValueError(f"c * e^a overflows for c={c}, a={a}")
    return c * math.exp(a)


def is_vacuum(c: float) -> bool:
    """True iff the solution is the fixed point of every translation."""
    return c == 0.0
