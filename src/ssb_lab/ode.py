"""The exponential family f(x) = c * e^x solving f' = f, and how
x-translations act on it: shifting x by a rescales c by e^a, so the zero
solution is the unique translation-invariant member of the family."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

# exp overflows just above 709 in double precision
_X_LIMIT = 700.0


@dataclass(frozen=True)
class ExpSolution:
    """f(x) = c * e^x."""

    c: float

    def __call__(self, x: float) -> float:
        if abs(x) > _X_LIMIT:
            raise ValueError(f"|x| must be <= {_X_LIMIT}, got {x}")
        return self.c * math.exp(x)


@dataclass(frozen=True)
class Translation:
    """The map x -> x + a acting on solutions by c -> c * e^a."""

    a: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.a):
            raise ValueError(f"shift must be finite, got {self.a}")

    def apply(self, c: float) -> float:
        return translate_solution(c, self.a)


def sampled_ode_residual(g: Callable[[float], float], x: float,
                         h: float = 1e-3) -> float:
    """g'(x) - g(x) with the derivative taken by central difference."""
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    if abs(x) + h > _X_LIMIT:
        raise ValueError(f"|x| + h must be <= {_X_LIMIT}")
    return (g(x + h) - g(x - h)) / (2.0 * h) - g(x)


def translate_solution(c: float, a: float) -> float:
    """Coefficient of the translated solution: c * e^a."""
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
