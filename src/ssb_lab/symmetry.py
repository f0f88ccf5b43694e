"""Finite symmetry groups of orthogonal matrices and what they do to solutions.

Group elements are explicit n x n orthogonal matrices acting linearly about
the origin.  Configurations meant to be analysed for symmetry should therefore
be positioned with their symmetry center at the origin, as the square of
``steiner.square_terminals`` is.  Equality of group elements is max-norm
matrix distance below a tolerance; invariance of a point configuration is a
greedy nearest-neighbour matching that is then verified to be a bijection
and, if edges are present, to permute the edge set.

A stabilizer applies the whole group at once: the element matrices are
stacked as one (|G|, n, n) array, the images of an (m, n) configuration are
one batched product, and one matcher compares all of them with the
configuration in a single (|G|, m, m) distance tensor, so memory is
O(|G| m^2 n).  Orbits compare images pairwise through the same matcher.

The classification at the bottom turns a problem group and a list of solution
configurations into a verdict: unbroken symmetry (every solution keeps the
full group), general breaking (solutions lose symmetry but a fully symmetric
solution exists), or narrow breaking (no solution retains the full group).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Tolerances: orthogonality is validated tightly at construction time, while
# element identification and point matching run at a looser scale so that
# composed floating-point matrices still match their exact counterparts.
ORTHO_TOL = 1e-12
MATCH_TOL = 1e-10
# squared distances overflow (past 1.8e308) from coordinates of about 1e154
MAX_COORDINATE = 1e150
_ASSOCIATIVITY_MAX_ORDER = 16


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrthoTransform:
    """An orthogonal matrix with an optional human-readable label."""

    matrix: np.ndarray
    label: str | None = None

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        n = m.shape[0]
        if n == 0:
            raise ValueError("matrix must be at least 1x1")
        if not all(map(math.isfinite, m.flat)):
            raise ValueError(f"matrix entries must be finite, "
                             f"got {m.tolist()}")
        # a column of squared norm within ORTHO_TOL of 1 has no entry above
        # 1 + ORTHO_TOL; larger ones are rejected before the product, which
        # could overflow on them
        if any(abs(x) > 1.0 + ORTHO_TOL for x in m.flat):
            raise ValueError(f"matrix is not orthogonal (an entry is above 1 "
                             f"in magnitude): {m.tolist()}")
        defect = np.max(np.abs(m.T @ m - np.eye(n)))
        if not defect <= ORTHO_TOL:
            raise ValueError(f"matrix is not orthogonal (defect {defect:.3e})")
        det = float(np.linalg.det(m))
        if abs(abs(det) - 1.0) > ORTHO_TOL:
            raise ValueError(f"determinant must be +-1, got {det!r}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Apply the transform to an (m, n) array of row points."""
        pts = np.asarray(points, dtype=float)
        return pts @ self.matrix.T

    def __repr__(self) -> str:  # labels keep group dumps readable
        name = self.label if self.label is not None else "?"
        return f"OrthoTransform({name}, dim={self.dim})"


def identity_transform(n_dim: int) -> OrthoTransform:
    return OrthoTransform(np.eye(n_dim), label="e")


def rotation2d(theta: float, label: str | None = None) -> OrthoTransform:
    """Counterclockwise rotation of the plane by ``theta`` radians."""
    c, s = np.cos(theta), np.sin(theta)
    return OrthoTransform(np.array([[c, -s], [s, c]]), label=label)


def reflection2d(axis_theta: float, label: str | None = None) -> OrthoTransform:
    """Reflection of the plane across the line at angle ``axis_theta``."""
    c, s = np.cos(2.0 * axis_theta), np.sin(2.0 * axis_theta)
    return OrthoTransform(np.array([[c, s], [s, -c]]), label=label)


def same_transform(a: OrthoTransform, b: OrthoTransform,
                   tol: float = MATCH_TOL) -> bool:
    if a.dim != b.dim:
        return False
    return float(np.max(np.abs(a.matrix - b.matrix))) <= tol


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteGroup:
    """A finite set of orthogonal transforms, expected to form a group.

    Construction only normalizes the element tuple; whether the set actually
    satisfies the group axioms is checked separately by
    :func:`verify_group_axioms`, so that deliberately broken element sets can
    be built and diagnosed in tests.
    """

    elements: tuple[OrthoTransform, ...]

    def __post_init__(self) -> None:
        elems = tuple(self.elements)
        if not elems:
            raise ValueError("a group needs at least one element")
        dims = {t.dim for t in elems}
        if len(dims) != 1:
            raise ValueError(f"mixed element dimensions: {sorted(dims)}")
        object.__setattr__(self, "elements", elems)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def dim(self) -> int:
        return self.elements[0].dim

    def find(self, t: OrthoTransform, tol: float = MATCH_TOL) -> int | None:
        """Index of the element matching ``t`` within ``tol``, else None."""
        for i, e in enumerate(self.elements):
            if same_transform(e, t, tol):
                return i
        return None


@dataclass(frozen=True)
class GroupCheck:
    """Result of a group-axiom verification: overall flag plus violations."""

    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def verify_group_axioms(g: FiniteGroup, tol: float = MATCH_TOL) -> GroupCheck:
    """Check identity, closure, inverses and (for small groups) associativity.

    Closure and inverse checks match products against the element list at
    max-norm tolerance ``tol``.  Associativity of matrix products holds up to
    rounding, so it is only re-checked exhaustively (all triples) for groups
    of order <= 16 where that is cheap.
    """
    violations: list[str] = []
    eye = identity_transform(g.dim)
    if g.find(eye, tol) is None:
        violations.append("identity: no element matches the identity matrix")

    mats = [t.matrix for t in g.elements]
    for i, j in itertools.product(range(g.order), repeat=2):
        prod = mats[i] @ mats[j]
        if not any(np.max(np.abs(prod - m)) <= tol for m in mats):
            violations.append(f"closure: product of elements {i} and {j} "
                              "is not in the group")

    for i, m in enumerate(mats):
        if not any(np.max(np.abs(m @ m2 - np.eye(g.dim))) <= tol for m2 in mats):
            violations.append(f"inverses: element {i} has no inverse "
                              "in the group")

    if g.order <= _ASSOCIATIVITY_MAX_ORDER:
        for a, b, c in itertools.product(mats, repeat=3):
            if not np.max(np.abs((a @ b) @ c - a @ (b @ c))) <= tol:
                violations.append("associativity: a triple product differs "
                                  "between bracketings")
                break

    return GroupCheck(ok=not violations, violations=tuple(violations))


def dihedral_group(k: int) -> FiniteGroup:
    """Rotations by multiples of 2*pi/k plus k reflections (order 2k)."""
    rotations = cyclic_group(k).elements
    return FiniteGroup(rotations + tuple(
        reflection2d(np.pi * j / k, label=f"m{180.0 * j / k:g}")
        for j in range(k)))


def cyclic_group(k: int) -> FiniteGroup:
    """Rotations by multiples of 2*pi/k (order k)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    elements = [rotation2d(2.0 * np.pi * j / k, label=f"r{360.0 * j / k:g}")
                for j in range(k)]
    return FiniteGroup(tuple(elements))


@functools.cache
def sign_flip_group() -> FiniteGroup:
    """The two-element group {+1, -1} acting on the real line, built once;
    the group is frozen and its matrices are read-only, so every caller can
    share it."""
    return FiniteGroup((
        OrthoTransform(np.array([[1.0]]), label="e"),
        OrthoTransform(np.array([[-1.0]]), label="flip"),
    ))


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointConfig:
    """A finite set of labelled points, optionally wired by undirected edges.

    Edges are index pairs into ``points`` and are stored normalized (each pair
    sorted, the whole tuple sorted) so two configs with the same wiring compare
    deterministically.  An empty edge tuple means "no edge structure".
    """

    points: np.ndarray
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError(f"points must be an (m, n) array, got shape "
                             f"{pts.shape}")
        if not all(map(math.isfinite, pts.flat)):
            bad = np.flatnonzero(~np.isfinite(pts).all(axis=1)).tolist()
            raise ValueError(f"points {bad} have non-finite coordinates: "
                             f"{pts[bad].tolist()}")
        if any(abs(x) > MAX_COORDINATE for x in pts.flat):
            raise ValueError(f"coordinates must be at most "
                             f"{MAX_COORDINATE:g} in magnitude")
        m = pts.shape[0]
        if m >= 2:
            # duplicate points make matching ill-defined
            diff = pts[:, None, :] - pts[None, :, :]
            dist = np.sqrt(np.sum(diff * diff, axis=-1))
            dist[np.diag_indices(m)] = np.inf
            if float(dist.min()) <= MATCH_TOL:
                raise ValueError("configuration contains duplicate points")
        norm_edges = []
        for i, j in self.edges:
            i, j = int(i), int(j)
            if i == j:
                raise ValueError(f"self-edge at index {i}")
            if not (0 <= i < m and 0 <= j < m):
                raise ValueError(f"edge ({i}, {j}) out of range for {m} points")
            norm_edges.append((min(i, j), max(i, j)))
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "edges", tuple(sorted(set(norm_edges))))

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _check_dims(dim: int, c: PointConfig) -> None:
    if dim != c.dim:
        raise ValueError(f"dimension mismatch: transform is {dim}-d, "
                         f"config is {c.dim}-d")


def transform_config(t: OrthoTransform, c: PointConfig) -> PointConfig:
    _check_dims(t.dim, c)
    return PointConfig(t.apply(c.points), c.edges)


def _match_points(src: np.ndarray, dst: np.ndarray, src_edges: tuple,
                  dst_edges: tuple, tol: float) -> list[int]:
    """Indices k where the greedy nearest-neighbour map src[k, i] ->
    dst[perm[i]] is a bijection within ``tol`` that maps ``src_edges`` onto
    ``dst_edges``.

    ``src`` is a (K, m, n) stack of point sets and ``dst`` one (m, n) set.
    One (K, m, m) distance tensor serves all K of them; only those whose
    points all lie within ``tol`` get the bijection and edge checks.  Greedy
    matching is valid because configs forbid near-duplicate points, so
    within scope any matching below tol is unique.
    """
    diff = src[:, :, None, :] - dst
    dist = np.sqrt((diff * diff).sum(axis=-1))
    m = dist.shape[-1]
    if m == 0:
        return list(range(len(dist)))
    perms = dist.argmin(axis=-1)
    # the row minimum is the matched distance, NaN included; written so
    # that a NaN distance or tolerance fails the match
    close = dist.min(axis=-1).max(axis=-1) <= tol
    wanted = set(dst_edges)
    matched = []
    for k in np.flatnonzero(close).tolist():
        p = perms[k].tolist()
        if len(set(p)) == m and wanted == {
                (min(p[i], p[j]), max(p[i], p[j])) for i, j in src_edges}:
            matched.append(k)
    return matched


def config_equal(a: PointConfig, b: PointConfig, tol: float = MATCH_TOL) -> bool:
    """Same point set (within tol) and, under the matching, same edge set."""
    if a.n_points != b.n_points or a.dim != b.dim:
        return False
    return bool(_match_points(a.points[None], b.points, a.edges, b.edges,
                              tol))


def is_invariant(t: OrthoTransform, c: PointConfig,
                 tol: float = MATCH_TOL) -> bool:
    """Whether ``t`` maps the configuration onto itself.

    The transformed point set must match the original as a set, and the
    induced index permutation must map the edge set onto itself.  An empty
    configuration is invariant under everything.
    """
    _check_dims(t.dim, c)
    return bool(_match_points(t.apply(c.points)[None], c.points, c.edges,
                              c.edges, tol))


def stabilizer(g: FiniteGroup, c: PointConfig,
               tol: float = MATCH_TOL) -> FiniteGroup:
    """The subgroup of elements leaving the configuration invariant.

    The images under all elements are matched to the config at once, in one
    (|G|, m, m) distance tensor, so memory is O(|G| m^2 n).
    """
    _check_dims(g.dim, c)
    mats = np.stack([t.matrix for t in g.elements])
    # image k is bit-identical to g.elements[k].apply(c.points)
    images = c.points @ mats.transpose(0, 2, 1)
    kept = _match_points(images, c.points, c.edges, c.edges, tol)
    return FiniteGroup(tuple(g.elements[k] for k in kept))


def orbit(g: FiniteGroup, c: PointConfig,
          tol: float = MATCH_TOL) -> list[PointConfig]:
    """Deduplicated images of the configuration under every group element,
    each compared with the images kept so far by ``config_equal``."""
    images: list[PointConfig] = []
    for t in g.elements:
        image = transform_config(t, c)
        if not any(config_equal(image, seen, tol) for seen in images):
            images.append(image)
    return images


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

class SSBKind(Enum):
    UNBROKEN = "Unbroken"
    GENERAL = "GeneralSSB"
    NARROW = "NarrowSSB"


@dataclass(frozen=True)
class SSBVerdict:
    """Outcome of comparing solution symmetries against the problem group.

    ``witnesses`` holds one stabilizer per solution, in input order.
    ``invariant_solution`` is the index of a fully symmetric solution when one
    exists (None for narrow breaking).
    """

    kind: SSBKind
    witnesses: tuple[FiniteGroup, ...]
    invariant_solution: int | None

    def __post_init__(self) -> None:
        object.__setattr__(self, "witnesses", tuple(self.witnesses))


def classify_ssb(problem_group: FiniteGroup,
                 solutions: list[PointConfig] | tuple[PointConfig, ...],
                 tol: float = MATCH_TOL) -> SSBVerdict:
    """Classify how much of the problem symmetry the solutions retain.

    Unbroken: every solution keeps the full group.  Narrow breaking: no
    solution does.  General breaking: mixed, and the index of the first fully
    symmetric solution is reported.
    """
    sols = list(solutions)
    if not sols:
        raise ValueError("need at least one solution to classify")
    stabs = tuple(stabilizer(problem_group, c, tol) for c in sols)
    full = [st.order == problem_group.order for st in stabs]
    if all(full):
        kind = SSBKind.UNBROKEN
    elif not any(full):
        kind = SSBKind.NARROW
    else:
        kind = SSBKind.GENERAL
    invariant = full.index(True) if any(full) else None
    return SSBVerdict(kind=kind, witnesses=stabs, invariant_solution=invariant)
