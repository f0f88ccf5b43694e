"""Polynomial problems with a sign-flip symmetry.

A real polynomial equation p(x) = 0 (or the minimization of p) whose
coefficients contain only even powers is symmetric under x -> -x.  Its
solution set may or may not retain that symmetry: x^2 - 1 = 0 has only the
asymmetric pair {-1, +1}, while x^4 - x^2 = 0 also has the symmetric double
root 0.  Filtering the quartic's critical points for stability (keeping
minima only) removes the symmetric candidate again.  This module finds roots,
with multiplicities exact for the coefficients as given, and critical
points, and hands the resulting solution sets to the symmetry classifier.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .symmetry import PointConfig, SSBVerdict, classify_ssb, sign_flip_group

_CLASSIFY_TOL = 1e-9


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial with finite coefficients in ascending order of power."""

    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = [float(c) for c in self.coefficients]
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError(f"coefficients must be finite, got {coeffs}")
        while coeffs and coeffs[-1] == 0.0:
            coeffs.pop()
        if not coeffs:
            raise ValueError("the zero polynomial has no normalized form")
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x):
        """Horner evaluation; works on floats and numpy arrays alike."""
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def derivative(self) -> Polynomial:
        if self.degree == 0:
            raise ValueError("derivative of a constant is the zero polynomial")
        return Polynomial(tuple(i * c for i, c in
                                enumerate(self.coefficients) if i >= 1))

    def cauchy_root_bound(self) -> float:
        """All real roots lie in [-R, R] with R = 1 + max|c_i| / |c_lead|,
        rounded outward: one step up for each of its two roundings."""
        lead = abs(self.coefficients[-1])
        rest = max((abs(c) for c in self.coefficients[:-1]), default=0.0)
        return math.nextafter(math.nextafter(1.0 + rest / lead, math.inf),
                              math.inf)


@dataclass(frozen=True)
class PolyRoot:
    location: float
    multiplicity: int


class CriticalKind(Enum):
    MINIMUM = "min"
    MAXIMUM = "max"
    SADDLE = "saddle"


@dataclass(frozen=True)
class CriticalPoint:
    location: float
    kind: CriticalKind
    value: float


def _derivative_chain(chain: list[Polynomial]) -> list[Polynomial]:
    """Extend chain with derivatives of its last entry down to a constant."""
    while chain[-1].degree >= 1:
        chain.append(chain[-1].derivative())
    return chain


# Exact polynomial arithmetic on Python ints: coefficient lists in ascending
# order of power, without trailing zeros; [] is the zero polynomial.

def _int_derivative(a: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:]


def _primitive(a: list[int]) -> list[int]:
    g = math.gcd(*a)
    return [c // g for c in a]


def _divide(a: list[int], b: list[int]) -> list[int]:
    """The quotient a / b, where the primitive b divides a: by Gauss's lemma
    it has integer coefficients, so every step divides exactly."""
    a, n = list(a), len(b) - 1
    q = [0] * (len(a) - n)
    for i in reversed(range(len(q))):
        q[i] = a[i + n] // b[-1]
        for j, c in enumerate(b):
            a[i + j] -= q[i] * c
    return q


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """A primitive gcd of a != 0 and b, by the primitive remainder sequence:
    each pseudo-remainder is made primitive before it divides, which keeps
    the coefficients from growing exponentially with the degree."""
    a = _primitive(a)
    while b:
        b = _primitive(b)
        r = a
        while len(r) >= len(b):
            c, shift = r[-1], len(r) - len(b)
            r = [b[-1] * x for x in r]
            for j, y in enumerate(b):
                r[shift + j] -= c * y
            while r and r[-1] == 0:
                r.pop()
        a, b = b, r
    return a


def _integer_coefficients(p: Polynomial) -> tuple[list[int], int]:
    """p's coefficients exactly, as integers over one common denominator,
    a power of two."""
    ratios = [c.as_integer_ratio() for c in p.coefficients]
    den = max(d for _, d in ratios)  # each d is a power of two
    return [n * (den // d) for n, d in ratios], den


def _square_free(p: Polynomial) -> list[tuple[int, Polynomial]]:
    """Yun's square-free decomposition p = c * prod f_i^i as the pairs
    (i, f_i) with deg f_i >= 1, exact on p's coefficients scaled to integers.
    Each f_i is rounded to floats once, scaled to p's leading coefficient,
    so a square-free p comes back as itself, bit for bit."""
    f, den = _integer_coefficients(p)
    df = _int_derivative(f)
    g = _gcd(f, df)
    b, c = _divide(f, g), _divide(df, g)
    factors = []
    i = 1
    while len(b) > 1:
        # d = c - b', where c has no more terms than b'
        d = [x - y for x, y in zip(c + [0] * len(b), _int_derivative(b))]
        while d and d[-1] == 0:
            d.pop()
        a = _gcd(b, d)
        b, c = _divide(b, a), _divide(d, a)
        if len(a) > 1:  # one correctly rounded int / int per coefficient
            factors.append((i, Polynomial(tuple(x * f[-1] / (a[-1] * den)
                                                for x in a))))
        i += 1
    return factors


def _midpoint(lo: float, hi: float) -> float:
    """The point that halves the bracket (lo, hi): 0 when it straddles 0,
    the arithmetic midpoint within one binade, and otherwise the midpoint
    of the ends' bit patterns, which halves the floats between them however
    many binades they span.  It mirrors exactly under x -> -x."""
    if lo < 0.0 < hi:
        return 0.0
    if hi <= 0.0:
        return -_midpoint(-hi, -lo)
    # lo >= 0 here; adding 0.0 reads -0.0, whose sign bit is set, as 0.0
    a, b = struct.unpack("<2q", struct.pack("<2d", lo + 0.0, hi))
    if a >> 52 == b >> 52:
        return 0.5 * (lo + hi)
    return struct.unpack("<d", struct.pack("<q", (a + b) // 2))[0]


def _root(p: Polynomial, dp: Polynomial, f: list[int], lo: float,
          hi: float, flo: float) -> float:
    """The root of p in (lo, hi), where p is monotone and p(lo) = flo and
    p(hi) differ in sign, and f holds p's coefficients as integers (see
    _integer_coefficients): Newton's method kept inside the bracket
    (rtsafe, Press et al., Numerical Recipes, 9.4).

    It starts at the arithmetic midpoint.  Each step evaluates p and p' at
    one point strictly inside the bracket and shrinks the bracket to the
    side where p changes sign.  The next point is the Newton iterate when it
    lands inside the bracket and moves less than half as far as the step
    before it, and the bracket's _midpoint otherwise, so a Newton step that
    converges slowly, as far from a root of a high degree or as one that
    only halves x on the way to a root near 0, gives way to bisection.

    Where p rounds to 0, as it does near a root below about 1e-160, where
    it underflows, the sign of p is read exactly from f and the bracket
    shrinks by it.  The loop stops there at an exact zero, or when the
    exact sign changes within one ulp, and bisects otherwise, as a Newton
    step of 0 is no fixed point there.  It also stops at a point the
    Newton step leaves unchanged, when the midpoint is an end of the
    bracket, or after 200 steps.  It returns the evaluated point with the
    smallest |p|: the last one where p rounds to 0 if there is one, or the
    exact zero one ulp beside it.  Every rule mirrors exactly under
    x -> -x.

    Bisection alone ends within 65 steps: the start, one step to 0 if the
    bracket still straddles it, then each halves the count of floats
    between the ends, which is below 2^63 for ends of one sign.  No bound
    is proven for the Newton steps in between, so the loop keeps its cap.
    """
    x = 0.5 * (lo + hi)
    best_x, best_val = x, math.inf
    dx = dx_old = hi - lo
    for _ in range(200):
        if x == lo or x == hi:  # only a midpoint can be an end
            break
        fx = p(x)
        rounded = fx == 0.0
        if rounded:  # an exact zero, or p rounds to 0 near a root
            best_x, best_val, fx = x, 0.0, _sign(f, x)
            if fx == 0.0:
                break
        elif abs(fx) < best_val:
            best_x, best_val = x, abs(fx)
        if (fx < 0.0) == (flo < 0.0):
            lo, flo, far = x, fx, hi
        else:
            hi, far = x, lo
        if rounded:
            # done if p changes sign within one ulp of x; otherwise bisect,
            # as a Newton step of 0 is no fixed point here
            beside = math.nextafter(x, far)
            sign = _sign(f, beside)
            if sign != fx:
                best_x = x if sign else beside
                break
            step = math.nan
        else:
            d = dp(x)
            step = fx / d if d != 0.0 else math.nan  # NaN: bisect
        if x - step == x:  # a Newton fixed point: converged
            break
        dx_old, dx = dx, step
        if lo < x - step < hi and abs(step) < 0.5 * abs(dx_old):
            x -= step
        else:
            dx, x = 0.5 * (hi - lo), _midpoint(lo, hi)
    return best_x


def _check_bracket(lo: float, hi: float) -> None:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"bracket ({lo}, {hi}) is not finite")
    if not lo < hi:
        raise ValueError(f"empty bracket ({lo}, {hi})")


def _sign(f: list[int], x: float) -> float:
    """The sign of the polynomial with integer coefficients f at x, exact
    (Horner in x's numerator), as -1.0, 0.0 or 1.0."""
    num, den = x.as_integer_ratio()
    acc, scale = f[-1], 1  # sum f_i num^i den^(n - i)
    for c in reversed(f[:-1]):
        scale *= den
        acc = acc * num + c * scale
    return float((acc > 0) - (acc < 0))


def _zeros(chain: list[Polynomial], k: int, lo: float,
           hi: float) -> list[float]:
    """The points of [lo, hi] where chain[k] changes sign, plus its exact
    zeros there, sorted.  The same search on its derivative chain[k + 1]
    splits [lo, hi] into pieces on which chain[k] is monotone, with the
    sign of chain[k] read exactly at each split point; a piece whose ends
    differ in sign holds one root, which _root finds.

    When chain[k] is even or odd (all its odd, or all its even, coefficients
    are exactly 0) and the bracket is symmetric, its zeros are closed under
    x -> -x, and Horner's rule and every step of the search mirror exactly:
    [0, hi] is searched alone, and the nonzero roots found there are
    mirrored, bit for bit what a search of [lo, 0] would find."""
    p, dp = chain[k], chain[k + 1]
    c = p.coefficients
    if lo == -hi and not (any(c[1::2]) and any(c[::2])):
        half = _zeros(chain, k, 0.0, hi)
        return sorted([-x for x in half if x != 0.0] + half)
    crit = _zeros(chain, k + 1, lo, hi) if dp.degree >= 1 else []
    inner = [x for x in crit if lo < x < hi]
    ends = [lo, *inner, hi]
    f, _ = _integer_coefficients(p)
    vals = [p(lo), *(_sign(f, x) for x in inner), p(hi)]
    zeros = {x for x, v in zip(ends, vals) if v == 0.0}
    for a, b, fa, fb in zip(ends, ends[1:], vals, vals[1:]):
        if fa != 0.0 and fb != 0.0 and (fa < 0.0) != (fb < 0.0):
            zeros.add(_root(p, dp, f, a, b, fa))
    return sorted(zeros)


def _roots(chain: list[Polynomial], lo: float, hi: float) -> list[PolyRoot]:
    """real_roots of chain[0]; chain holds chain[0] and any derivatives of
    it already built, which a square-free chain[0] reuses."""
    p = chain[0]
    roots = [PolyRoot(x, m) for m, f in _square_free(p)
             for x in _zeros(_derivative_chain(chain if f == p else [f]), 0,
                             lo, hi)]
    return sorted(roots, key=lambda r: r.location)


def real_roots(p: Polynomial, bracket: tuple[float, float]) -> list[PolyRoot]:
    """All real roots of p inside the bracket, sorted, with multiplicities.

    Yun's square-free decomposition p = c * prod f_i^i, exact on p's
    coefficients, gives the multiplicities: the roots of f_i have
    multiplicity i in p as given.  A multiple root of a polynomial whose
    coefficients were rounded can come back as simple roots or as none;
    coefficients that floats hold exactly keep their structure.  Each f_i
    is square-free, so its real roots are its sign changes and exact zeros
    (see _zeros), each found by one loop of Newton steps kept inside its
    sign-change bracket (see _root).  The search builds each derivative of
    each f_i once.

    When every odd coefficient is exactly 0 and the bracket is symmetric,
    p(-x) equals p(x) bit for bit, and each f_i and each of its derivatives
    is even or odd: the search covers [0, hi] alone and mirrors what it
    finds (see _zeros), so the roots come out as exact +- pairs, with 0 as
    +0.0.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    _check_bracket(lo, hi)
    if p.degree < 1:
        raise ValueError("constant polynomials have no roots to find")
    return _roots([p], lo, hi)


def critical_points(p: Polynomial) -> list[CriticalPoint]:
    """Stationary points of p: the real roots of p', each with its exact
    multiplicity m.  For m even p' keeps its sign there (a saddle); for m
    odd the sign of p^(m+1) tells a minimum from a maximum."""
    if p.degree < 2:
        raise ValueError("need degree >= 2 for meaningful critical points")
    chain = _derivative_chain([p])
    bound = chain[1].cauchy_root_bound() + 1.0
    if bound == math.inf:
        raise ValueError(f"the root bound of p' overflows: the coefficients "
                         f"of p' are {list(chain[1].coefficients)}")
    out: list[CriticalPoint] = []
    for root in _roots(chain[1:], -bound, bound):
        x, m = root.location, root.multiplicity
        kind = (CriticalKind.SADDLE if m % 2 == 0 else CriticalKind.MINIMUM
                if chain[m + 1](x) > 0.0 else CriticalKind.MAXIMUM)
        out.append(CriticalPoint(location=x, kind=kind, value=p(x)))
    return out


# ---------------------------------------------------------------------------
# the bundled sign-flip problems
# ---------------------------------------------------------------------------

SQUARE_POLY = Polynomial((-1.0, 0.0, 1.0))              # x^2 - 1
DOUBLE_WELL = Polynomial((0.0, 0.0, -1.0, 0.0, 1.0))    # x^4 - x^2


class SignFlipProblem(Enum):
    """The bundled x -> -x symmetric problems.

    SQUARE_ROOTS     roots of x^2 - 1 = 0
    QUARTIC_ROOTS    roots of x^4 - x^2 = 0 (includes the symmetric root 0)
    QUARTIC_MINIMA   stable minima of x^4 - x^2 (the unstable symmetric
                     stationary point at 0 is filtered out)
    """

    SQUARE_ROOTS = "square_roots"
    QUARTIC_ROOTS = "quartic_roots"
    QUARTIC_MINIMA = "quartic_minima"


def _line_configs(xs: list[float]) -> list[PointConfig]:
    return [PointConfig(np.array([[x]])) for x in xs]


@functools.cache
def z2_solve(problem: SignFlipProblem
             ) -> tuple[PolyRoot, ...] | tuple[CriticalPoint, ...]:
    """The problem's solutions as the solver returns them: the roots, with
    their multiplicities, for SQUARE_ROOTS and QUARTIC_ROOTS, and the minima,
    with their values, for QUARTIC_MINIMA.

    The problems are fixed, so the result is cached per problem, and every
    caller shares the same tuple of frozen records.
    """
    if problem is SignFlipProblem.QUARTIC_MINIMA:
        return tuple(cp for cp in critical_points(DOUBLE_WELL)
                     if cp.kind is CriticalKind.MINIMUM)
    if problem is SignFlipProblem.SQUARE_ROOTS:
        p = SQUARE_POLY
    elif problem is SignFlipProblem.QUARTIC_ROOTS:
        p = DOUBLE_WELL
    else:
        raise ValueError(f"unknown problem {problem!r}")
    bound = p.cauchy_root_bound() + 1.0
    return tuple(real_roots(p, (-bound, bound)))


def z2_solutions(problem: SignFlipProblem) -> list[float]:
    """The solution set of the given problem as plain real numbers."""
    return [s.location for s in z2_solve(problem)]


def z2_verdict(problem: SignFlipProblem) -> SSBVerdict:
    """Classify the problem's solution set under the sign-flip group."""
    xs = z2_solutions(problem)
    return classify_ssb(sign_flip_group(), _line_configs(xs),
                        tol=_CLASSIFY_TOL)
