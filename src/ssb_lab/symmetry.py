"""Finite symmetry groups of orthogonal matrices and what they do to solutions.

A group is one read-only (|G|, n, n) stack of orthogonal matrices, validated
once when the group is built, that act linearly about the origin.
Configurations meant to be analysed for symmetry should therefore be
positioned with their symmetry center at the origin, as the square of
``steiner.square_terminals`` is.  Equality of group elements is max-norm
matrix distance below a tolerance; invariance of a point configuration is a
greedy nearest-neighbour matching that is then verified to be a bijection
and, if edges are present, to permute the edge set.  A stabilizer matches
all |G| images of an (m, n) configuration, one batched product, in a single
(|G|, m, m) distance tensor (memory O(|G| m^2 n)); the classification matches
those of every solution with the same point count and edges together, in
(S, |G|, m, m) tensors of bounded size; an orbit compares its images
pairwise.

The classification at the bottom turns a problem group and a list of solution
configurations into a verdict: unbroken symmetry (every solution keeps the
full group), general breaking (solutions lose symmetry but a fully symmetric
solution exists), or narrow breaking (no solution retains the full group).
"""

from __future__ import annotations

import functools
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
# classify_ssb matches configs of one size and wiring together, in distance
# tensors whose (S, |G|, m, m, n) differences take at most this many bytes
_MATCH_BYTES = 2**20


# ---------------------------------------------------------------------------
# transforms and groups
# ---------------------------------------------------------------------------

def _check_orthogonal(m: np.ndarray) -> np.ndarray:
    """Return the (K, n, n) stack m if its matrices are finite and orthogonal
    with determinant +-1, else raise ValueError about one that is not."""
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise ValueError(f"matrix must be square, got shape {m.shape[1:]}")
    if m.shape[1] == 0:
        raise ValueError("matrix must be at least 1x1")
    finite = np.isfinite(m).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(f"matrix entries must be finite, "
                         f"got {m[finite.argmin()].tolist()}")
    # a column of squared norm within ORTHO_TOL of 1 has no entry above
    # 1 + ORTHO_TOL; larger ones are rejected before they overflow the product
    big = np.abs(m).max(axis=(1, 2))
    if big.max() > 1.0 + ORTHO_TOL:
        raise ValueError(f"matrix is not orthogonal (an entry is above 1 "
                         f"in magnitude): {m[big.argmax()].tolist()}")
    defect = np.abs(m.transpose(0, 2, 1) @ m - np.eye(m.shape[1])).max()
    if not defect <= ORTHO_TOL:
        raise ValueError(f"matrix is not orthogonal (defect {defect:.3e})")
    det = np.linalg.det(m)
    det = float(det[np.abs(np.abs(det) - 1.0).argmax()])
    if abs(abs(det) - 1.0) > ORTHO_TOL:
        raise ValueError(f"determinant must be +-1, got {det!r}")
    return m


@dataclass(frozen=True)
class OrthoTransform:
    """An orthogonal matrix with an optional human-readable label."""

    matrix: np.ndarray
    label: str | None = None

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=float)
        _check_orthogonal(m[None])
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Apply the transform to an (m, n) array of row points."""
        return np.asarray(points, dtype=float) @ self.matrix.T


def rotation2d(theta: float, label: str | None = None) -> OrthoTransform:
    """Counterclockwise rotation of the plane by ``theta`` radians."""
    c, s = np.cos(theta), np.sin(theta)
    return OrthoTransform(np.array([[c, -s], [s, c]]), label=label)


def reflection2d(axis_theta: float, label: str | None = None) -> OrthoTransform:
    """Reflection of the plane across the line at angle ``axis_theta``."""
    c, s = np.cos(2.0 * axis_theta), np.sin(2.0 * axis_theta)
    return OrthoTransform(np.array([[c, s], [s, -c]]), label=label)


@dataclass(frozen=True, init=False, eq=False)
class FiniteGroup:
    """A finite set of orthogonal transforms, expected to form a group: the
    read-only (|G|, n, n) stack ``matrices`` and one label per element.  The
    axioms are checked separately by :func:`verify_group_axioms`, so that
    deliberately broken element sets can be built and diagnosed."""

    matrices: np.ndarray
    labels: tuple[str | None, ...]

    def __init__(self, elements: tuple[OrthoTransform, ...]) -> None:
        elems = tuple(elements)
        dims = {t.dim for t in elems}
        if len(dims) > 1:
            raise ValueError(f"mixed element dimensions: {sorted(dims)}")
        # each transform has validated its own matrix
        _group(np.array([t.matrix for t in elems]),
               tuple(t.label for t in elems), self)

    @property
    def order(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    @property
    def elements(self) -> tuple[OrthoTransform, ...]:
        """The elements as transforms, built from the stack on each access."""
        return tuple(map(OrthoTransform, self.matrices, self.labels))

    def find(self, t: OrthoTransform, tol: float = MATCH_TOL) -> int | None:
        """Index of the first element within ``tol`` of ``t``, else None."""
        if t.dim != self.dim:
            return None
        close = np.abs(self.matrices - t.matrix).max(axis=(1, 2)) <= tol
        return int(close.argmax()) if close.any() else None


def _group(matrices: np.ndarray, labels: tuple,
           g: FiniteGroup | None = None) -> FiniteGroup:
    """The group (g, if given) of a stack of matrices validated already."""
    if not labels:
        raise ValueError("a group needs at least one element")
    matrices.flags.writeable = False
    g = object.__new__(FiniteGroup) if g is None else g
    object.__setattr__(g, "matrices", matrices)
    object.__setattr__(g, "labels", labels)
    return g


@dataclass(frozen=True)
class GroupCheck:
    """Result of a group-axiom verification: overall flag plus violations."""

    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def verify_group_axioms(g: FiniteGroup, tol: float = MATCH_TOL) -> GroupCheck:
    """Check identity, closure, inverses and (for small groups) associativity.

    Closure and inverse checks match products against the element stack at
    max-norm tolerance ``tol``, one left factor at a time (memory O(|G|^2
    n^2)).  Associativity of matrix products holds up to rounding, so it is
    only re-checked (all triples) for groups of order <= 16, where it is cheap.
    """
    mats, eye = g.matrices, np.eye(g.dim)
    prods = mats[:, None] @ mats  # prods[i, j] = mats[i] @ mats[j]
    violations: list[str] = []
    if not (np.abs(mats - eye).max(axis=(1, 2)) <= tol).any():
        violations.append("identity: no element matches the identity matrix")
    for i, row in enumerate(prods):
        closed = (np.abs(row[:, None] - mats).max(axis=(2, 3)) <= tol).any(1)
        violations += [f"closure: product of elements {i} and {j} "
                       "is not in the group" for j in np.flatnonzero(~closed)]
    inverse = (np.abs(prods - eye).max(axis=(2, 3)) <= tol).any(axis=1)
    violations += [f"inverses: element {i} has no inverse in the group"
                   for i in np.flatnonzero(~inverse)]
    if g.order <= _ASSOCIATIVITY_MAX_ORDER and not all(
            (np.abs(row[:, None] @ mats - a @ prods).max(axis=(2, 3))
             <= tol).all() for a, row in zip(mats, prods)):
        violations.append("associativity: a triple product differs "
                          "between bracketings")
    return GroupCheck(ok=not violations, violations=tuple(violations))


def dihedral_group(k: int) -> FiniteGroup:
    """Rotations by multiples of 2*pi/k plus k reflections (order 2k): the
    matrices of rotation2d(2*pi*j/k) and reflection2d(pi*j/k), bit for bit,
    as twice pi*j/k rounds to 2*pi*j/k exactly."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    labels = tuple([f"r{360.0 * j / k:g}" for j in range(k)]
                   + [f"m{180.0 * j / k:g}" for j in range(k)])
    theta = 2.0 * np.pi * np.arange(k) / k
    c, s = np.cos(theta), np.sin(theta)
    # the entries of each matrix row by row, rotations first: (2, 4, k)
    mats = np.array([[c, -s, s, c], [c, s, s, -c]]).transpose(0, 2, 1)
    return _group(_check_orthogonal(mats.reshape(-1, 2, 2)), labels)


def cyclic_group(k: int) -> FiniteGroup:
    """Rotations by multiples of 2*pi/k (order k), those of D_k."""
    d = dihedral_group(k)
    return _group(d.matrices[:k], d.labels[:k])


@functools.cache
def sign_flip_group() -> FiniteGroup:
    """The two-element group {+1, -1} acting on the real line, built once:
    it is frozen and its matrices are read-only, so every caller shares it."""
    return _group(_check_orthogonal(np.array([[[1.0]], [[-1.0]]])),
                  ("e", "flip"))


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
    """Flat indices b into the leading axes of ``src`` where the greedy
    nearest-neighbour map src[b, i] -> dst[perm[i]] is a bijection within
    ``tol`` that maps ``src_edges`` onto ``dst_edges``.

    ``src`` is a (K, m, n) stack of point sets and ``dst`` one (m, n) set,
    or ``src`` is (S, K, m, n) and ``dst`` an (S, 1, 1, m, n) stack, one
    set per row of src; ``dst`` may carry leading axes of length 1.  One
    (..., m, m) distance tensor serves them all;
    only those whose points all lie within ``tol`` get the bijection and
    edge checks.  Greedy matching is valid because configs forbid
    near-duplicate points, so within scope any matching below tol is unique.
    """
    diff = src[..., None, :] - dst
    dist = np.sqrt((diff * diff).sum(axis=-1))
    m = dist.shape[-1]
    if m == 0:
        return list(range(math.prod(dist.shape[:-2])))
    perms = dist.argmin(axis=-1).reshape(-1, m)
    # the row minimum is the matched distance, NaN included; written so
    # that a NaN distance or tolerance fails the match
    close = dist.min(axis=-1).max(axis=-1) <= tol
    wanted = set(dst_edges)
    matched = []
    for b in np.flatnonzero(close).tolist():
        p = perms[b].tolist()
        if len(set(p)) == m and wanted == {
                (min(p[i], p[j]), max(p[i], p[j])) for i, j in src_edges}:
            matched.append(b)
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


def _check_tol(tol: float) -> None:
    # a NaN or negative tol would match no element, not even the identity
    if not tol >= 0.0:
        raise ValueError(f"tol must be a non-negative number, got {tol!r}")


def _matched_images(g: FiniteGroup, points: np.ndarray, edges: tuple,
                    tol: float) -> list[int]:
    """Flat indices s * |G| + k where the image under element k of an
    (m, n) set, or of set s of an (S, 1, m, n) stack of sets that share
    ``edges``, matches the set.  One (|G|, m, m), or (S, |G|, m, m),
    distance tensor serves them all, so memory is O(S |G| m^2 n)."""
    # image [s, k] is bit-identical to g.elements[k].apply(points[s, 0])
    return _match_points(points @ g.matrices.transpose(0, 2, 1),
                         points[..., None, :, :], edges, edges, tol)


def stabilizer(g: FiniteGroup, c: PointConfig,
               tol: float = MATCH_TOL) -> FiniteGroup:
    """The subgroup of elements leaving the configuration invariant.

    The images under all elements are matched to the config at once (see
    _matched_images).  The subgroup is the matching rows of the group's
    stack, which are not checked again.
    """
    _check_tol(tol)
    _check_dims(g.dim, c)
    kept = _matched_images(g, c.points, c.edges, tol)
    return _group(g.matrices[kept], tuple(g.labels[k] for k in kept))


def _stabilizers(g: FiniteGroup, configs: list[PointConfig],
                 tol: float) -> list[FiniteGroup]:
    """stabilizer(g, c, tol) for each config c, in order.  Configs with the
    same point count and edges are matched together, in (S, |G|, m, m)
    distance tensors whose differences take at most _MATCH_BYTES, or one
    config's if that is more."""
    _check_tol(tol)
    batches: dict[tuple, list[int]] = {}
    for i, c in enumerate(configs):
        _check_dims(g.dim, c)
        batches.setdefault((c.n_points, c.edges), []).append(i)
    kept: list[list[int]] = [[] for _ in configs]
    for (m, edges), members in batches.items():
        size = max(1, _MATCH_BYTES // max(1, 8 * g.order * m * m * g.dim))
        for start in range(0, len(members), size):
            chunk = members[start:start + size]
            points = np.array([configs[i].points for i in chunk])[:, None]
            for b in _matched_images(g, points, edges, tol):
                s, k = divmod(b, g.order)
                kept[chunk[s]].append(k)
    return [_group(g.matrices[rows], tuple(g.labels[k] for k in rows))
            for rows in kept]


def orbit(g: FiniteGroup, c: PointConfig,
          tol: float = MATCH_TOL) -> list[PointConfig]:
    """Deduplicated images of the configuration under every group element,
    each compared with the images kept so far by ``config_equal``."""
    _check_dims(g.dim, c)
    images: list[PointConfig] = []
    for points in c.points @ g.matrices.transpose(0, 2, 1):
        image = PointConfig(points, c.edges)
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
    symmetric solution is reported.  The witnesses are those of
    :func:`stabilizer`, bit for bit, and the same errors are raised in the
    same order; the images of all solutions with the same point count and
    edges are matched at once (see _stabilizers).
    """
    sols = list(solutions)
    if not sols:
        raise ValueError("need at least one solution to classify")
    stabs = tuple(_stabilizers(problem_group, sols, tol))
    full = [st.order == problem_group.order for st in stabs]
    if all(full):
        kind = SSBKind.UNBROKEN
    elif not any(full):
        kind = SSBKind.NARROW
    else:
        kind = SSBKind.GENERAL
    invariant = full.index(True) if any(full) else None
    return SSBVerdict(kind=kind, witnesses=stabs, invariant_solution=invariant)
