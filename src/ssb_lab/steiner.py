"""Shortest connecting networks (Steiner minimal trees) for 3 or 4 terminals.

For a fixed tree topology the total edge length is a convex function of the
free junction coordinates, so every candidate topology is minimized on its
own and the global optima are collected afterwards.  Candidates are the full
Steiner topologies only: every junction of degree 3, one junction for three
terminals and, for four, the three ways of pairing the terminals.  A
spanning tree on the terminals alone needs no separate candidate, because it
is a full topology with its junctions put on terminals: a star puts them on
its hub, a path puts each on an inner vertex (Gilbert & Pollak 1968, SIAM J.
Appl. Math. 16:1).  At this size each topology's minimum over all such
placements has a closed form:

- three terminals: the Fermat-Torricelli point, where the three edges meet
  at 120 degrees, or the vertex whose angle is at least 120 degrees;
- four terminals paired {a1, a2 | b1, b2}: the full tree of Melzak's
  construction (Melzak 1961, Canad. Math. Bull. 4:143).  Each pair is
  replaced by the apex of an equilateral triangle on it, the two apexes are
  joined, and each junction is where that line meets the circle through its
  pair and apex.  A stationary point of a convex function is its global
  minimum, so a full tree that meets the 120-degree condition is optimal.
  Otherwise a junction sits on a vertex, and the minimum is the shortest of:
  both junctions at the 4-point geometric median (the crossing of the
  diagonals of a convex quadrilateral, else the terminal inside the triangle
  of the other three), or one junction on a terminal of its own pair and
  the other at the Fermat point of the remaining three vertices.

A junction that lands on a vertex is contracted onto it and the topology is
marked ``merged``.  That is how the square's X-shaped crossing (total length
sqrt 8, one degree-4 junction at the centre) arises from the diagonal
pairing, losing to the two optimal networks of length 1 + sqrt 3 whose
middle edge is vertical or horizontal.  A quarter turn (90 degrees) about
the square's center exchanges those two.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from .symmetry import PointConfig, config_equal

_ZERO_EDGE_TOL = 1e-14
# two networks, or a network and its image, match when their points do to
# within this (select_minima's deduplication; the square's networks are
# classified under D4, and turned a quarter, at it)
NETWORK_MATCH_TOL = 1e-8
# a junction closer than this to another vertex counts as sitting on it; it
# is larger than symmetry.MATCH_TOL, below which points count as duplicates
_MERGE_TOL = 1e-9
FERMAT_TOL = 1e-9
DEGENERACY_TOL = 1e-9
_HALF_SQRT3 = math.sqrt(3.0) / 2.0

Point = tuple[float, float]
# where a candidate puts a junction: a point, or the id of a vertex it sits on
Placement = Point | int


# ---------------------------------------------------------------------------
# topologies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SteinerTopology:
    """A tree on terminals 0..n_terminals-1 plus junction vertices above.

    Enumerated topologies are strict: every junction has degree exactly 3.
    Topologies of contracted networks carry ``merged=True`` and may hold
    one degree-4 junction (two coincident degree-3 junctions).
    """

    n_terminals: int
    n_steiner: int
    edges: tuple[tuple[int, int], ...]
    merged: bool = False

    def __post_init__(self) -> None:
        m, s = self.n_terminals, self.n_steiner
        if m < 2:
            raise ValueError(f"need at least 2 terminals, got {m}")
        if s < 0:
            raise ValueError(f"negative junction count {s}")
        n_vertices = m + s
        norm = []
        for i, j in self.edges:
            i, j = int(i), int(j)
            if i == j:
                raise ValueError(f"self-edge at vertex {i}")
            if not (0 <= i < n_vertices and 0 <= j < n_vertices):
                raise ValueError(f"edge ({i}, {j}) out of range")
            norm.append((min(i, j), max(i, j)))
        norm_t = tuple(sorted(set(norm)))
        if len(norm_t) != len(norm):
            raise ValueError("duplicate edges")
        object.__setattr__(self, "edges", norm_t)
        if len(norm_t) != n_vertices - 1 or not self._connected(n_vertices):
            raise ValueError("edge set is not a spanning tree")
        deg = self.degrees()
        for v in range(m):
            if deg[v] < 1:
                raise ValueError(f"terminal {v} is isolated")
        allowed = {3, 4} if self.merged else {3}
        for v in range(m, n_vertices):
            if deg[v] not in allowed:
                raise ValueError(f"junction {v} has degree {deg[v]}, "
                                 f"allowed {sorted(allowed)}")

    def _connected(self, n_vertices: int) -> bool:
        parent = list(range(n_vertices))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in self.edges:
            parent[find(i)] = find(j)
        return len({find(v) for v in range(n_vertices)}) == 1

    def degrees(self) -> list[int]:
        deg = [0] * (self.n_terminals + self.n_steiner)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg

    def neighbours(self, v: int) -> list[int]:
        out = []
        for i, j in self.edges:
            if i == v:
                out.append(j)
            elif j == v:
                out.append(i)
        return sorted(out)


def enumerate_topologies(n_terminals: int) -> list[SteinerTopology]:
    """The full Steiner topologies: one star for n=3, three pairings for n=4.

    Every spanning tree on the terminals is one of them with its junctions on
    terminals, so the closed-form minima already cover it.
    """
    if n_terminals not in (3, 4):
        raise ValueError(f"supported terminal counts are 3 and 4, "
                         f"got {n_terminals}")
    if n_terminals == 3:
        return [SteinerTopology(3, 1, ((0, 3), (1, 3), (2, 3)))]
    pairings = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))
    return [SteinerTopology(4, 2, ((a1, 4), (a2, 4), (b1, 5), (b2, 5), (4, 5)))
            for (a1, a2), (b1, b2) in pairings]


# ---------------------------------------------------------------------------
# embedded networks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SteinerNetwork:
    """A topology embedded in the plane at ``points``, its m + s vertices
    with the m terminals first.  The total edge length and the Fermat
    residual (the largest |sum of unit edge vectors| at a degree-3 junction)
    are computed from the points once, on construction."""

    points: np.ndarray
    topology: SteinerTopology
    total_length: float = field(init=False)
    fermat_residual: float = field(init=False)

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=float)
        n_vertices = self.topology.n_terminals + self.topology.n_steiner
        if pts.shape != (n_vertices, 2):
            raise ValueError(f"points shape {pts.shape} does not match the "
                             f"topology's {n_vertices} vertices")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        coords = pts.tolist()
        object.__setattr__(self, "total_length",
                           _total_length(self.topology.edges, coords))
        object.__setattr__(self, "fermat_residual",
                           _fermat_residual(self.topology, coords))

    def config(self) -> PointConfig:
        return PointConfig(self.points, self.topology.edges)

    def segments(self) -> list[tuple[float, float, float, float]]:
        pts = self.points
        return [(float(pts[i, 0]), float(pts[i, 1]),
                 float(pts[j, 0]), float(pts[j, 1]))
                for i, j in self.topology.edges]


@dataclass(frozen=True)
class FermatCheck:
    """120-degree condition report: applicable only at degree-3 junctions."""

    is_full: bool
    ok: bool
    max_residual: float


# ---------------------------------------------------------------------------
# closed-form minima (plain floats: the problems are tiny)
# ---------------------------------------------------------------------------

def _total_length(edges: tuple[tuple[int, int], ...],
                  points: list[Point]) -> float:
    return sum(math.hypot(points[i][0] - points[j][0],
                          points[i][1] - points[j][1]) for i, j in edges)


def _fermat_residual(topology: SteinerTopology, points: list[Point]) -> float:
    """Largest |sum of unit edge vectors| over the degree-3 junctions."""
    m = topology.n_terminals
    deg = topology.degrees()
    worst = 0.0
    for v in range(m, m + topology.n_steiner):
        if deg[v] != 3:
            continue
        x, y = points[v]
        sx = sy = 0.0
        for u in topology.neighbours(v):
            qx, qy = points[u]
            d = math.hypot(qx - x, qy - y)
            if d > _ZERO_EDGE_TOL:
                sx += (qx - x) / d
                sy += (qy - y) / d
        worst = max(worst, math.hypot(sx, sy))
    return worst


def _apex(p: Point, q: Point, side: float) -> Point:
    """Apex of the equilateral triangle on pq, left of p->q for side=+1."""
    return ((p[0] + q[0]) / 2.0 - side * _HALF_SQRT3 * (q[1] - p[1]),
            (p[1] + q[1]) / 2.0 + side * _HALF_SQRT3 * (q[0] - p[0]))


def _melzak_junction(p: Point, q: Point, apex: Point, toward: Point) -> Point:
    """Where the ray from ``apex`` to ``toward`` meets the circle through p,
    q and apex again: the junction that joins p and q at 120 degrees."""
    cx = (p[0] + q[0] + apex[0]) / 3.0
    cy = (p[1] + q[1] + apex[1]) / 3.0
    d = math.hypot(toward[0] - apex[0], toward[1] - apex[1])
    ux = (toward[0] - apex[0]) / d
    uy = (toward[1] - apex[1]) / d
    t = -2.0 * (ux * (apex[0] - cx) + uy * (apex[1] - cy))
    return (apex[0] + t * ux, apex[1] + t * uy)


def _cross(o: Point, p: Point, q: Point) -> float:
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


def _angle_below_120(o: Point, a: Point, b: Point) -> bool:
    ax, ay, bx, by = a[0] - o[0], a[1] - o[1], b[0] - o[0], b[1] - o[1]
    return ax * bx + ay * by > -0.5 * math.hypot(ax, ay) * math.hypot(bx, by)


def _fermat_candidates(pts: list[Point], i: int, j: int,
                       k: int) -> Iterator[Placement]:
    """The Fermat-Torricelli point of terminals i, j, k when every angle is
    below 120 degrees, then the three vertices."""
    p, q, r = pts[i], pts[j], pts[k]
    if all(_angle_below_120(*corner)
           for corner in ((p, q, r), (q, r, p), (r, p, q))):
        side = -1.0 if _cross(p, q, r) > 0.0 else 1.0  # apex away from r
        yield _melzak_junction(p, q, _apex(p, q, side), r)
    yield i
    yield j
    yield k


def _diagonal_crossing(pts: list[Point]) -> Point | None:
    """Crossing of the two diagonals when the four terminals are in convex
    position: there the distance sum to all four is smallest."""
    for (a, b), (c, d) in (((0, 1), (2, 3)), ((0, 2), (1, 3)),
                           ((0, 3), (1, 2))):
        p, q, r, s = pts[a], pts[b], pts[c], pts[d]
        d_r, d_s = _cross(p, q, r), _cross(p, q, s)
        d_p, d_q = _cross(r, s, p), _cross(r, s, q)
        if d_r * d_s < 0.0 and d_p * d_q < 0.0:
            t = d_p / (d_p - d_q)
            return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
    return None


def _pairing_candidates(pts: list[Point], a1: int, a2: int, b1: int,
                        b2: int) -> Iterator[tuple[Placement, Placement]]:
    """A complete candidate set for junctions s1 (joining a1, a2) and s2
    (joining b1, b2): the minimum over the topology's closure is among them."""
    A1, A2, B1, B2 = pts[a1], pts[a2], pts[b1], pts[b2]
    for side_a in (1.0, -1.0):
        apex_a = _apex(A1, A2, side_a)
        for side_b in (1.0, -1.0):
            apex_b = _apex(B1, B2, side_b)
            if apex_a != apex_b:
                yield (_melzak_junction(A1, A2, apex_a, apex_b),
                       _melzak_junction(B1, B2, apex_b, apex_a))
    median = _diagonal_crossing(pts)
    if median is not None:
        yield median, 4  # s2 sits on s1: one degree-4 junction
    # these include both junctions on one terminal, the median of the four
    # when one terminal lies in the triangle of the other three
    for a in (a1, a2):
        for s2 in _fermat_candidates(pts, a, b1, b2):
            yield a, s2
    for b in (b1, b2):
        for s1 in _fermat_candidates(pts, a1, a2, b):
            yield s1, b


def _embed(topology: SteinerTopology, pts: list[Point],
           placement: tuple[Placement, ...]) -> SteinerNetwork:
    """The network with junction k at ``placement[k]``; a junction placed on
    a vertex id is contracted onto that vertex (result marked merged)."""
    m = topology.n_terminals
    new_id = list(range(m))
    points = list(pts)
    for k, where in enumerate(placement):
        if isinstance(where, int):
            new_id.append(new_id[where])
        else:
            new_id.append(len(points))
            points.append(where)
    if len(points) - m == topology.n_steiner:
        return SteinerNetwork(points, topology)
    edges = {(min(i, j), max(i, j)) for i, j in
             ((new_id[u], new_id[v]) for u, v in topology.edges) if i != j}
    return SteinerNetwork(points, SteinerTopology(
        m, len(points) - m, tuple(sorted(edges)), merged=True))


def _admissible(net: SteinerNetwork) -> bool:
    """No junction within _MERGE_TOL of another vertex, and the 120-degree
    condition met (to FERMAT_TOL) at every degree-3 junction."""
    if net.fermat_residual > FERMAT_TOL:
        return False
    pts = net.points
    m = net.topology.n_terminals
    for k in range(m, len(pts)):
        dist = np.hypot(*(pts - pts[k]).T)
        dist[k] = math.inf
        if float(dist.min()) <= _MERGE_TOL:
            return False
    return True


def optimize_topology(topology: SteinerTopology,
                      terminals: np.ndarray) -> SteinerNetwork:
    """The shortest embedding of one enumerated topology, in closed form.

    Junctions that the optimum puts on a vertex are contracted onto it.
    """
    pts = [(float(x), float(y)) for x, y in np.asarray(terminals, dtype=float)]
    m = topology.n_terminals
    if m != len(pts):
        raise ValueError("terminal count does not match topology")
    if topology.merged or topology.n_steiner != m - 2:
        raise ValueError("closed forms cover the enumerated topologies only")
    if m == 3:
        candidates = [(where,) for where in _fermat_candidates(pts, 0, 1, 2)]
    else:
        a1, a2 = (v for v in topology.neighbours(4) if v < m)
        b1, b2 = (v for v in topology.neighbours(5) if v < m)
        candidates = list(_pairing_candidates(pts, a1, a2, b1, b2))
    lengths = []
    for placement in candidates:
        points = list(pts)
        for where in placement:
            points.append(points[where] if isinstance(where, int) else where)
        lengths.append(_total_length(topology.edges, points))
    # every candidate is a feasible embedding, so the shortest is optimal;
    # rounding can spoil a near-degenerate one, hence the ordered fallback
    # (a candidate with every junction on a terminal always qualifies)
    order = sorted(range(len(candidates)), key=lengths.__getitem__)
    return next(net for net in (_embed(topology, pts, candidates[idx])
                                for idx in order) if _admissible(net))


def terminal_array(value: Any) -> np.ndarray:
    """``value`` as an (m, 2) float array, or ValueError unless it is a list
    of [x, y] pairs, 3 or 4 of them, finite, at most MAX_COORDINATE in
    magnitude and distinct (the last three are ``PointConfig``'s rules)."""
    try:
        term = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):  # ragged, text, huge int
        term = None
    if term is None or term.ndim != 2 or term.shape[1] != 2:
        raise ValueError("terminals must be a list of [x, y] pairs")
    if len(term) not in (3, 4):
        raise ValueError(f"need 3 or 4 terminals, got {len(term)}")
    try:
        PointConfig(term)
    except ValueError as exc:
        raise ValueError(f"terminals: {exc}") from None
    return term


def optimize_all(terminals: Any) -> list[SteinerNetwork]:
    """Optimize every candidate topology, in enumeration order."""
    term = terminal_array(terminals)
    return [optimize_topology(topology, term)
            for topology in enumerate_topologies(len(term))]


def select_minima(nets: list[SteinerNetwork]) -> list[SteinerNetwork]:
    """Keep the networks within ``DEGENERACY_TOL`` of the shortest length,
    geometrically deduplicated, preserving input order."""
    if not nets:
        raise ValueError("no networks to select from")
    best = min(net.total_length for net in nets)
    winners: list[SteinerNetwork] = []
    for net in nets:
        if net.total_length > best + DEGENERACY_TOL:
            continue
        cfg = net.config()
        if any(config_equal(cfg, w.config(), NETWORK_MATCH_TOL)
               for w in winners):
            continue
        winners.append(net)
    return winners


# ---------------------------------------------------------------------------
# checks and symmetry hooks
# ---------------------------------------------------------------------------

def check_fermat_condition(net: SteinerNetwork) -> FermatCheck:
    """Verify the 120-degree condition, to ``FERMAT_TOL``, at every degree-3
    junction.

    Junctions of other degrees (merge products) make the network non-full;
    the condition is then not applicable to them.  A zero-length edge means
    a coincident vertex was not contracted and is rejected outright.
    """
    pts = net.points
    for i, j in net.topology.edges:
        if float(np.linalg.norm(pts[i] - pts[j])) < _ZERO_EDGE_TOL:
            raise ValueError(f"zero-length edge ({i}, {j}): merge unresolved")
    deg = net.topology.degrees()[net.topology.n_terminals:]
    is_full = bool(deg) and all(d == 3 for d in deg)
    return FermatCheck(is_full=is_full,
                       ok=net.fermat_residual <= FERMAT_TOL,
                       max_residual=net.fermat_residual)


def square_terminals(side: float = 1.0) -> np.ndarray:
    """Corners of a side-``side`` square centered at the origin, so the
    dihedral symmetry machinery (which acts about the origin) applies."""
    # NaN fails both comparisons, and an int beyond the floats fails the second
    if not 0 < side <= sys.float_info.max:
        raise ValueError(f"side must be a positive finite float, got {side}")
    h = side / 2.0
    return np.array([[-h, -h], [h, -h], [h, h], [-h, h]])
