"""Polynomial problems with a sign-flip symmetry.

A real polynomial equation p(x) = 0 (or the minimization of p) whose
coefficients contain only even powers is symmetric under x -> -x.  Its
solution set may or may not retain that symmetry: x^2 - 1 = 0 has only the
asymmetric pair {-1, +1}, while x^4 - x^2 = 0 also has the symmetric root 0.
Filtering the quartic's critical points for stability (keeping minima only)
removes the symmetric candidate again.  This module finds roots and critical
points, each root between two consecutive critical points, and hands the
resulting solution sets to the symmetry classifier.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .symmetry import PointConfig, SSBVerdict, classify_ssb, sign_flip_group

DEFAULT_TOL = 1e-10
_DEDUPE_TOL = 1e-4  # resolution limit; nearer candidates merge into one root
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

    def coefficient_scale(self) -> float:
        return max(abs(c) for c in self.coefficients)

    def cauchy_root_bound(self) -> float:
        """All real roots lie in [-R, R] with R = 1 + max|c_i| / |c_lead|."""
        lead = abs(self.coefficients[-1])
        rest = max((abs(c) for c in self.coefficients[:-1]), default=0.0)
        return 1.0 + rest / lead


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


def _derivative_chain(p: Polynomial) -> list[Polynomial]:
    chain = [p]
    while chain[-1].degree >= 1:
        chain.append(chain[-1].derivative())
    return chain


def _limits(chain: list[Polynomial]) -> list[float]:
    """DEFAULT_TOL relative to each derivative's own coefficient scale (at
    least 1): a value at or below its limit counts as zero."""
    return [DEFAULT_TOL * max(q.coefficient_scale(), 1.0) for q in chain]


def _multiplicity(chain: list[Polynomial], limits: list[float],
                  x: float) -> int:
    """Number of leading derivatives vanishing at x, at least 1 for a root."""
    m = 0
    for q, limit in zip(chain, limits):
        if abs(q(x)) <= limit:
            m += 1
        else:
            break
    return max(m, 1)


def _bisect(p: Polynomial, lo: float, hi: float) -> float:
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


def _newton_polish(p: Polynomial, dp: Polynomial, x: float) -> float:
    """The Newton iterate from x with the smallest |p|, x included.

    Each step evaluates p and p' once.  It stops after 30 steps, where
    p' = 0, where p = 0, or at the first iterate it has seen before: the
    step map is deterministic, so from a repeat on it only revisits
    iterates whose |p| it has already compared.
    """
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
        val = abs(fx)
        if val < best_val:
            best_x, best_val = x, val
        if val == 0.0:
            break
    return best_x


def _check_bracket(lo: float, hi: float) -> None:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"bracket ({lo}, {hi}) is not finite")
    if not lo < hi:
        raise ValueError(f"empty bracket ({lo}, {hi})")


def _roots(chain: list[Polynomial], limits: list[float], k: int,
           lo: float, hi: float) -> list[PolyRoot]:
    """real_roots of chain[k] on [lo, hi]; chain[k + 1] is its derivative."""
    p, dp = chain[k], chain[k + 1]
    crit = ([r.location for r in _roots(chain, limits, k + 1, lo, hi)]
            if dp.degree >= 1 else [])
    # even-multiplicity roots hide at critical points
    evens = [x for x in crit if abs(p(x)) <= limits[k]]
    candidates = [*evens, *(x for x in (lo, hi) if p(x) == 0.0)]
    ends = [lo, *(x for x in crit if lo < x < hi), hi]
    vals = [p(x) for x in ends]
    changes = [fa != 0.0 and fb != 0.0 and (fa < 0.0) != (fb < 0.0)
               for fa, fb in zip(vals[:-1], vals[1:])]
    for a, b, change in zip(ends[:-1], ends[1:], changes):
        if change:
            candidates.append(_newton_polish(p, dp, _bisect(p, a, b)))
    # a critical point between two sign changes is an extremum between two
    # simple roots; near an actual double root rounding can flip p's sign
    # there too, but then the roots bisected beside it join its cluster;
    # only even-root candidates are looked up here
    extrema = {x for x, left, right in zip(ends[1:-1], changes[:-1],
                                           changes[1:])
               if left and right} if evens else set()

    roots: list[PolyRoot] = []
    cluster: list[float] = []

    def flush_cluster() -> None:
        if not cluster:
            return
        # rounding can zero p at near-root points too; the candidate where
        # the most derivatives vanish is the actual root, residual breaks ties
        best_mult, best = max(
            ((_multiplicity(chain[k:], limits[k:], c), c) for c in cluster),
            key=lambda mc: (mc[0], -abs(p(mc[1]))))
        # where p'' vanishes too, rounding can flip p's sign up to about
        # 1e-4 from a root of multiplicity 4, beyond the merge distance, so
        # flanking sign changes there do not rule out an even root
        if extrema and best_mult <= 2 and all(x in extrema
                                              for x in cluster):
            return
        if lo - _DEDUPE_TOL <= best <= hi + _DEDUPE_TOL:
            roots.append(PolyRoot(location=best, multiplicity=best_mult))

    for x in sorted(candidates):
        if cluster and x - cluster[-1] > _DEDUPE_TOL:
            flush_cluster()
            cluster = []
        cluster.append(x)
    flush_cluster()
    return roots


def real_roots(p: Polynomial, bracket: tuple[float, float]) -> list[PolyRoot]:
    """All real roots of p inside the bracket, sorted, with multiplicities.

    The critical points of p (the roots of p', found by the same search)
    and the bracket's ends split the bracket into intervals on which p is
    monotone, so each holds at most one root.  An interval whose ends differ
    in sign gets its root bisected and Newton-polished until an iterate
    repeats, at most 30 steps.  Roots of even multiplicity never change
    sign: a critical point where |p| falls below DEFAULT_TOL * coefficient
    scale is one, unless p changes sign on both sides of it, p'' does not
    vanish there, and no other candidate lies within 1e-4: then it is an
    extremum between two simple roots.  An end where p is exactly 0 is a
    root.  The search builds each derivative of p once and walks down that
    chain.

    Near a multiple root the polynomial is flat and rounding noise limits
    how precisely any candidate can be located, so candidates closer than
    1e-4 are treated as one root (the one with the smallest residual wins).
    Distinct roots closer than that are still reported as one.

    When every odd coefficient is exactly 0 and the bracket is symmetric,
    p(-x) equals p(x) bit for bit.  The critical points, the bisection
    midpoints and the Newton steps then mirror exactly, and the roots come
    out as exact +- pairs.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    _check_bracket(lo, hi)
    if p.degree < 1:
        raise ValueError("constant polynomials have no roots to find")
    chain = _derivative_chain(p)
    return _roots(chain, _limits(chain), 0, lo, hi)


def critical_points(p: Polynomial) -> list[CriticalPoint]:
    """Stationary points of p, classified by the first non-vanishing
    derivative (sign of p'' when it is clearly nonzero)."""
    if p.degree < 2:
        raise ValueError("need degree >= 2 for meaningful critical points")
    chain = _derivative_chain(p)
    limits = _limits(chain)
    bound = chain[1].cauchy_root_bound() + 1.0
    _check_bracket(-bound, bound)
    out: list[CriticalPoint] = []
    for root in _roots(chain, limits, 1, -bound, bound):
        x = root.location
        kind: CriticalKind | None = None
        for m in range(2, len(chain)):
            val = chain[m](x)
            if abs(val) > limits[m]:
                if m % 2 == 1:
                    kind = CriticalKind.SADDLE
                else:
                    kind = CriticalKind.MINIMUM if val > 0 else CriticalKind.MAXIMUM
                break
        if kind is None:
            # all higher derivatives vanish: p is locally constant (cannot
            # happen for degree >= 2 after normalization)
            kind = CriticalKind.SADDLE
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
