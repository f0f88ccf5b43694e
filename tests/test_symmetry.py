"""Finite orthogonal groups, configuration stabilizers, and verdicts."""

from __future__ import annotations

import copy
import itertools
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ssb_lab import symmetry
from ssb_lab.symmetry import (MATCH_TOL, FiniteGroup, OrthoTransform,
                              PointConfig, SSBKind, classify_ssb,
                              config_equal, cyclic_group, dihedral_group,
                              is_invariant, orbit, rotation2d,
                              sign_flip_group, stabilizer, transform_config,
                              verify_group_axioms)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def reflection2d(axis_theta, label=None):
    """Reflection of the plane across the line at angle ``axis_theta``, one
    matrix at a time: the oracle for the mirrors of ``dihedral_group``."""
    c, s = np.cos(2.0 * axis_theta), np.sin(2.0 * axis_theta)
    return OrthoTransform(np.array([[c, s], [s, -c]]), label=label)


def test_rotation_matrix_entries():
    r = rotation2d(math.pi / 2.0)
    np.testing.assert_allclose(r.matrix, [[0.0, -1.0], [1.0, 0.0]],
                               atol=1e-15)
    assert r.dim == 2


def test_rotation_moves_points_counterclockwise():
    r = rotation2d(math.pi / 2.0)
    np.testing.assert_allclose(r.apply(np.array([[1.0, 0.0]])),
                               [[0.0, 1.0]], atol=1e-15)


def test_reflection_across_x_axis():
    m = reflection2d(0.0)
    np.testing.assert_allclose(m.matrix, [[1.0, 0.0], [0.0, -1.0]],
                               atol=1e-15)
    assert m.apply(np.array([[2.0, 3.0]]))[0, 1] == -3.0


def test_non_orthogonal_matrix_rejected():
    with pytest.raises(ValueError):
        OrthoTransform(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_non_square_matrix_rejected():
    with pytest.raises(ValueError):
        OrthoTransform(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))


# one validation of a (K, n, n) stack serves transforms and groups; on a
# single matrix it says what the per-matrix checks said
@pytest.mark.parametrize("matrix,message", [
    (np.ones(3), "matrix must be square, got shape (3,)"),
    (np.array(5.0), "matrix must be square, got shape ()"),
    (np.zeros((2, 2, 2)), "matrix must be square, got shape (2, 2, 2)"),
    (np.zeros((0, 0)), "matrix must be at least 1x1"),
    ([[math.nan, 0.0], [0.0, 1.0]],
     "matrix entries must be finite, got [[nan, 0.0], [0.0, 1.0]]"),
    ([[1.0, 0.0], [0.0, -math.inf]],
     "matrix entries must be finite, got [[1.0, 0.0], [0.0, -inf]]"),
    ([[1e200, 0.0], [0.0, 1.0]], "matrix is not orthogonal (an entry is "
                                 "above 1 in magnitude): [[1e+200, 0.0], "
                                 "[0.0, 1.0]]"),
    ([[1.0, 1.0], [0.0, 1.0]], "matrix is not orthogonal (defect 1.000e+00)"),
    ([[1.0, 1e-9], [0.0, 1.0]], "matrix is not orthogonal (defect 1.000e-09)"),
    (np.eye(3) * (1.0 + 4e-13),
     "determinant must be +-1, got 1.0000000000011997"),
])
def test_transform_validation_messages(matrix, message):
    with pytest.raises(ValueError) as info:
        OrthoTransform(matrix)
    assert str(info.value) == message


def test_transform_matrix_is_read_only():
    r = rotation2d(0.3)
    with pytest.raises(ValueError):
        r.matrix[0, 0] = 5.0


@settings(derandomize=True, deadline=None)
@given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
def test_rotations_compose_by_adding_angles(a, b):
    lhs = OrthoTransform(rotation2d(a).matrix @ rotation2d(b).matrix)
    assert np.max(np.abs(lhs.matrix - rotation2d(a + b).matrix)) <= 1e-9


def test_two_reflections_make_a_rotation():
    # mirrors at angles s and t compose to a rotation by 2(s - t)
    s, t = 0.7, 0.2
    got = OrthoTransform(reflection2d(s).matrix @ reflection2d(t).matrix)
    assert np.max(np.abs(got.matrix - rotation2d(2.0 * (s - t)).matrix)) \
        <= 1e-12


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

# the constructors do not check the axioms themselves; associativity is
# checked on every triple up to order 16, so for every Dk up to D8
@pytest.mark.parametrize("group,order", [
    (dihedral_group(3), 6),
    (dihedral_group(4), 8),
    (cyclic_group(5), 5),
    (sign_flip_group(), 2),
    *((dihedral_group(k), 2 * k) for k in range(1, 17)),
    *((cyclic_group(k), k) for k in range(1, 17)),
])
def test_standard_groups_satisfy_axioms(group, order):
    assert group.order == order
    check = verify_group_axioms(group)
    assert check.ok, check.violations


def _stacked(transforms):
    """The matrices and labels of transforms, as a group holds them."""
    return (np.array([t.matrix for t in transforms]).tobytes(),
            tuple(t.label for t in transforms))


def _same_elements(group, transforms):
    """Whether the group holds exactly these matrices, bit for bit, with
    these labels, in this order."""
    return (group.matrices.tobytes(), group.labels) == _stacked(transforms)


# dihedral_group and cyclic_group stack in one expression what rotation2d
# and reflection2d build one matrix at a time
@pytest.mark.parametrize("k", [*range(1, 41), 64, 100])
def test_group_stacks_match_the_per_element_transforms(k):
    rotations = [rotation2d(2.0 * np.pi * j / k, label=f"r{360.0 * j / k:g}")
                 for j in range(k)]
    mirrors = [reflection2d(np.pi * j / k, label=f"m{180.0 * j / k:g}")
               for j in range(k)]
    d, c = dihedral_group(k), cyclic_group(k)
    assert (d.order, d.dim, c.order, c.dim) == (2 * k, 2, k, 2)
    assert _same_elements(d, rotations + mirrors)
    assert _same_elements(c, rotations)
    assert d.matrices.shape == (2 * k, 2, 2)
    assert not d.matrices.flags.writeable and not c.matrices.flags.writeable


@pytest.mark.parametrize("k,error,message", [
    (0, ValueError, "k must be >= 1, got 0"),
    (-3, ValueError, "k must be >= 1, got -3"),
    (2.5, ValueError, "k must be an integer, got 2.5"),
    ("a", ValueError, "k must be an integer, got 'a'"),
    (None, ValueError, "k must be an integer, got None"),
])
@pytest.mark.parametrize("make_group", [dihedral_group, cyclic_group])
def test_dihedral_and_cyclic_reject_bad_k(make_group, k, error, message):
    with pytest.raises(error) as info:
        make_group(k)
    assert str(info.value) == message


def test_true_builds_the_groups_of_order_one_and_two():
    assert dihedral_group(True).labels == ("r0", "m0")
    assert cyclic_group(True).labels == ("r0",)
    assert dihedral_group(True).matrices.tolist() == \
        [[[1.0, -0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, -1.0]]]


def test_group_of_transforms_stacks_their_matrices():
    ts = (rotation2d(0.5, label="a"), reflection2d(0.2), rotation2d(0.0))
    g = FiniteGroup(ts)
    assert _same_elements(g, ts) and g.labels == ("a", None, None)
    assert not g.matrices.flags.writeable
    assert _same_elements(g, g.elements)
    # find compares with the whole stack: the first match, or None
    assert g.find(rotation2d(0.5 + 1e-11)) == 0
    assert FiniteGroup(ts + ts).find(rotation2d(0.0)) == 2
    assert g.find(OrthoTransform([[1.0]])) is None
    with pytest.raises(ValueError, match="at least one element"):
        FiniteGroup(())
    with pytest.raises(ValueError, match=r"mixed element dimensions: \[1, 2\]"):
        FiniteGroup((rotation2d(0.1), OrthoTransform([[1.0]])))


def test_groups_copy_and_pickle():
    g = dihedral_group(3)
    for h in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert h.labels == g.labels
        assert h.matrices.tobytes() == g.matrices.tobytes()


def test_building_and_acting_constructs_no_transform(monkeypatch):
    # a group is its stack: building one, its orbits, stabilizers and
    # verdicts never build an OrthoTransform (each would check its matrix)
    built = []
    check = OrthoTransform.__post_init__
    monkeypatch.setattr(OrthoTransform, "__post_init__",
                        lambda t: built.append(check(t)))
    g = dihedral_group(12)
    c = PointConfig([[0.3, 0.1], [0.5, 0.0]])
    classify_ssb(g, orbit(g, c))
    classify_ssb(sign_flip_group(), [PointConfig([[1.0]])])
    verify_group_axioms(cyclic_group(5))
    assert built == []
    rotation2d(0.1)
    assert len(built) == 1


def _reference_violations(g, tol=MATCH_TOL):
    """verify_group_axioms as it was written before the group was a stack:
    one pair or triple of elements at a time."""
    violations = []
    mats = [t.matrix for t in g.elements]
    eye = np.eye(g.dim)
    if not any(np.max(np.abs(m - eye)) <= tol for m in mats):
        violations.append("identity: no element matches the identity matrix")
    for i, j in itertools.product(range(g.order), repeat=2):
        prod = mats[i] @ mats[j]
        if not any(np.max(np.abs(prod - m)) <= tol for m in mats):
            violations.append(f"closure: product of elements {i} and {j} "
                              "is not in the group")
    for i, m in enumerate(mats):
        if not any(np.max(np.abs(m @ m2 - eye)) <= tol for m2 in mats):
            violations.append(f"inverses: element {i} has no inverse "
                              "in the group")
    if g.order <= 16:
        for a, b, c in itertools.product(mats, repeat=3):
            if not np.max(np.abs((a @ b) @ c - a @ (b @ c))) <= tol:
                violations.append("associativity: a triple product differs "
                                  "between bracketings")
                break
    return violations


@pytest.mark.parametrize("group,tol", [
    (FiniteGroup(dihedral_group(4).elements[:-1]), MATCH_TOL),
    (FiniteGroup((sign_flip_group().elements[1],)), MATCH_TOL),
    (FiniteGroup(dihedral_group(6).elements[3:9]), MATCH_TOL),
    (FiniteGroup((rotation2d(0.1), rotation2d(0.2))), MATCH_TOL),
    (FiniteGroup(dihedral_group(30).elements[1:]), MATCH_TOL),
    (dihedral_group(4), 1e-16),  # some products round within it, some not
    (dihedral_group(5), 0.0),
    (dihedral_group(9), MATCH_TOL),
])
def test_axiom_violations_match_the_pairwise_loop(group, tol):
    check = verify_group_axioms(group, tol)
    assert list(check.violations) == _reference_violations(group, tol)
    assert check.ok == (not check.violations)


def test_dropping_an_element_breaks_closure():
    d4 = dihedral_group(4)
    broken = FiniteGroup(d4.elements[:-1])
    check = verify_group_axioms(broken)
    assert not check.ok
    assert any("closure" in v or "inverse" in v for v in check.violations)


def test_group_without_identity_fails():
    flip = sign_flip_group()
    only_flip = FiniteGroup((flip.elements[1],))
    assert not verify_group_axioms(only_flip).ok


def test_dihedral_contains_expected_elements():
    d4 = dihedral_group(4)
    assert d4.find(rotation2d(math.pi / 2.0)) is not None
    assert d4.find(reflection2d(math.pi / 4.0)) is not None
    assert d4.find(rotation2d(math.pi / 3.0)) is None


def test_cyclic_group_has_no_reflections():
    c4 = cyclic_group(4)
    assert all(np.linalg.det(t.matrix) > 0 for t in c4.elements)


def test_sign_flip_group_is_one_dimensional():
    z2 = sign_flip_group()
    assert z2.dim == 1
    assert verify_group_axioms(z2).ok


def test_sign_flip_group_is_built_once_and_read_only():
    z2 = sign_flip_group()
    assert sign_flip_group() is z2
    assert not z2.matrices.flags.writeable
    with pytest.raises(ValueError):
        z2.matrices[0, 0, 0] = 2.0
    for t in z2.elements:
        assert not t.matrix.flags.writeable
        with pytest.raises(ValueError):
            t.matrix[0, 0] = 2.0
    assert [t.matrix.tolist() for t in z2.elements] == [[[1.0]], [[-1.0]]]


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------

def _square_config(edges=((0, 1), (1, 2), (2, 3), (0, 3))):
    pts = np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
    return PointConfig(pts, edges)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_rejected(bad):
    # without the check even the identity fails to match a NaN point, and
    # the stabilizer fails with "a group needs at least one element"
    with pytest.raises(ValueError, match=r"points \[0\] have non-finite "
                                         r"coordinates: \[\[(nan|-?inf), 0.0\]\]"):
        stabilizer(dihedral_group(4), PointConfig([[bad, 0.0], [0.3, 0.1]]))
    with pytest.raises(ValueError, match=r"points \[1, 2\]"):
        PointConfig([[0.0, 1.0], [0.5, bad], [bad, bad]])


def test_duplicate_points_rejected():
    with pytest.raises(ValueError):
        PointConfig(np.array([[0.0, 0.0], [0.0, 0.0]]))


def test_edges_are_normalized_and_deduplicated():
    c = PointConfig(np.array([[0.0, 0.0], [1.0, 0.0]]), ((1, 0), (0, 1)))
    assert c.edges == ((0, 1),)


def test_self_edge_rejected():
    with pytest.raises(ValueError):
        PointConfig(np.array([[0.0, 0.0], [1.0, 0.0]]), ((0, 0),))


def test_edge_index_out_of_range():
    with pytest.raises(ValueError):
        PointConfig(np.array([[0.0, 0.0], [1.0, 0.0]]), ((0, 2),))


def test_config_equal_ignores_point_order():
    c = _square_config()
    perm = [2, 0, 3, 1]
    pts = np.asarray(c.points)[perm]
    remap = {old: new for new, old in enumerate(perm)}
    edges = tuple(tuple(sorted((remap[a], remap[b]))) for a, b in c.edges)
    assert config_equal(c, PointConfig(pts, edges))


def test_config_equal_sees_edge_differences():
    a = _square_config()
    b = _square_config(edges=((0, 1), (1, 2), (2, 3), (0, 2)))
    assert not config_equal(a, b)


def test_transform_config_keeps_edge_structure():
    c = _square_config()
    moved = transform_config(rotation2d(0.4), c)
    assert moved.edges == c.edges
    for i, j in moved.edges:
        assert np.linalg.norm(moved.points[i] - moved.points[j]) == \
            pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# stabilizers and orbits
# ---------------------------------------------------------------------------

def test_square_is_invariant_under_full_dihedral_group():
    d4 = dihedral_group(4)
    stab = stabilizer(d4, _square_config())
    assert stab.order == 8


def test_stabilizer_of_axis_point():
    d4 = dihedral_group(4)
    c = PointConfig(np.array([[1.0, 0.0]]))
    stab = stabilizer(d4, c)
    assert stab.order == 2  # identity and the x-axis mirror


def _reference_match(src, dst, src_edges, dst_edges, tol):
    """One pair of point sets at a time, as the group action was computed
    before it was batched: whether the greedy map src[i] -> dst[perm[i]] is
    a bijection within ``tol`` that maps ``src_edges`` onto ``dst_edges``."""
    if len(src) == 0:
        return True
    diff = src[:, None, :] - dst[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    perm = np.argmin(dist, axis=1).tolist()
    return (float(np.max(dist[np.arange(len(src)), perm])) <= tol
            and len(set(perm)) == len(src)
            and {(min(perm[i], perm[j]), max(perm[i], perm[j]))
                 for i, j in src_edges} == set(dst_edges))


def _reference_equal(a, b):
    return _reference_match(a.points, b.points, a.edges, b.edges, MATCH_TOL)


def _reference_stabilizer(g, c):
    return [t for t in g.elements
            if _reference_equal(PointConfig(t.apply(c.points), c.edges), c)]


def _reference_orbit(g, c):
    images = []
    for t in g.elements:
        image = PointConfig(t.apply(c.points), c.edges)
        if not any(_reference_equal(image, seen) for seen in images):
            images.append(image)
    return images


@st.composite
def _match_cases(draw):
    """(L, K, m, n) image stacks, (L, 1, m, n) targets, normalized edges and
    a tolerance: images are targets permuted and moved by nothing, by half
    the tolerance or by more, some with two points nearest one target; the
    target edges are the source edges mapped by one permutation, or those
    with one edge more, less or swapped."""
    lead, k = draw(st.integers(1, 2)), draw(st.integers(0, 4))
    m, n = draw(st.integers(0, 4)), draw(st.integers(1, 3))
    tol = draw(st.sampled_from([0.0, 1e-3]))
    coords = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    dst = np.array([draw(st.lists(coords, min_size=m, max_size=m,
                                  unique_by=tuple)) for _ in range(lead)],
                   dtype=float).reshape(lead, 1, m, n) / 4.0
    base = draw(st.permutations(range(m)))
    src = np.empty((lead, k, m, n))
    for a, b in itertools.product(range(lead), range(k)):
        perm = base if draw(st.booleans()) else draw(st.permutations(range(m)))
        src[a, b] = dst[a, 0, perm]
        for i in range(m):
            src[a, b, i, 0] += draw(st.sampled_from([0.0, 0.0, 0.5, 3.0])) \
                * tol
        if m >= 2 and draw(st.integers(0, 3)) == 0:  # not a bijection
            src[a, b, 0] = src[a, b, 1] + 1e-9
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    src_edges = sorted(draw(st.lists(st.sampled_from(pairs), unique=True))) \
        if pairs else []
    dst_edges = {(min(base[i], base[j]), max(base[i], base[j]))
                 for i, j in src_edges}
    change = draw(st.sampled_from(["same", "same", "more", "less", "swap"]))
    spare = sorted(set(pairs) - dst_edges)
    if change in ("more", "swap") and spare:
        dst_edges.add(draw(st.sampled_from(spare)))
    if change in ("less", "swap") and src_edges:
        dst_edges.discard(draw(st.sampled_from(sorted(dst_edges))))
    return src, dst, tuple(src_edges), tuple(sorted(dst_edges)), tol


# the array matcher finds the rows that the reference, one pair of an
# image and its target at a time, finds
@settings(derandomize=True, deadline=None, max_examples=300)
@given(_match_cases())
def test_array_matcher_finds_what_the_pair_loop_found(case):
    src, dst, src_edges, dst_edges, tol = case
    images = src.reshape(math.prod(src.shape[:-2]), *src.shape[-2:])
    targets = np.broadcast_to(dst, src.shape).reshape(images.shape)
    assert symmetry._match_points(*case) == [
        b for b, pair in enumerate(zip(images, targets))
        if _reference_match(*pair, src_edges, dst_edges, tol)]


@st.composite
def _groups_and_configs(draw):
    """Dihedral and cyclic groups up to order 32, and 0-6 points that are
    generic, on a mirror axis, at the centre, or on a regular k-gon, with
    or without edges."""
    if draw(st.booleans()):
        k = draw(st.integers(1, 16))
        g = dihedral_group(k)
    else:
        k = draw(st.integers(1, 32))
        g = cyclic_group(k)
    candidates = []
    for kind in draw(st.lists(st.sampled_from(
            ["generic", "axis", "centre", "polygon"]), max_size=4)):
        r = draw(st.integers(1, 1000)) / 1000.0
        if kind == "generic":
            candidates.append([r, draw(st.integers(-1000, 1000)) / 1000.0])
        elif kind == "axis":
            theta = math.pi * draw(st.integers(0, 2 * k - 1)) / k
            candidates.append([r * math.cos(theta), r * math.sin(theta)])
        elif kind == "centre":
            candidates.append([0.0, 0.0])
        else:
            candidates += [[r * math.cos(2.0 * math.pi * j / k),
                            r * math.sin(2.0 * math.pi * j / k)]
                           for j in range(k)]
    points = []
    for p in candidates[:6]:
        if all(math.dist(p, q) > 1e-6 for q in points):
            points.append(p)
    m = len(points)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs \
        else []
    return g, PointConfig(np.array(points).reshape(m, 2), edges)


# the orbit-stabilizer theorem, |orbit| * |stab| = |G|, and the batched
# stabilizer against the per-element loop it replaced
@settings(derandomize=True, deadline=None)
@given(_groups_and_configs())
@example((dihedral_group(4), PointConfig(np.zeros((0, 2)))))
@example((dihedral_group(4), PointConfig([[0.0, 0.0]])))
@example((cyclic_group(32), PointConfig([[0.0, 0.0]])))
@example((dihedral_group(4), _square_config()))
def test_orbit_stabilizer_product_is_group_order(group_and_config):
    g, c = group_and_config
    images, stab = orbit(g, c), stabilizer(g, c)
    assert len(images) * stab.order == g.order

    ref_images = _reference_orbit(g, c)
    assert len(images) == len(ref_images)
    for got, want in zip(images, ref_images):
        assert np.array_equal(got.points, want.points)
        assert got.edges == want.edges
    ref_stab = _reference_stabilizer(g, c)
    assert len(stab.elements) == len(ref_stab)
    assert _same_elements(stab, ref_stab)

    verdict = classify_ssb(g, images)
    ref_witnesses = [_reference_stabilizer(g, image) for image in ref_images]
    assert [_stacked(w.elements) for w in verdict.witnesses] == \
        [_stacked(w) for w in ref_witnesses]
    full = [len(w) == g.order for w in ref_witnesses]
    assert verdict.kind is (SSBKind.UNBROKEN if all(full) else
                            SSBKind.NARROW if not any(full) else
                            SSBKind.GENERAL)
    assert verdict.invariant_solution == (full.index(True) if any(full)
                                          else None)


def _mixed_solutions(g):
    """Configs of 0, 1, 2 and 4 points, with and without edges, that share
    point counts and edges in some pairs and not in others."""
    return [
        PointConfig(np.zeros((0, 2))),
        PointConfig([[0.0, 0.0]]),
        PointConfig([[0.3, 0.7]]),
        _square_config(),
        _square_config(edges=((0, 1),)),
        PointConfig([[1.0, 0.0], [-1.0, 0.0]]),
        PointConfig([[0.0, 1.0], [0.0, -1.0]], ((0, 1),)),
        *orbit(g, PointConfig([[0.3, 0.7], [0.5, 0.0]], ((0, 1),))),
        *orbit(g, PointConfig([[1.0, 0.0]])),
    ]


@pytest.mark.parametrize("group", [dihedral_group(4), cyclic_group(4),
                                   dihedral_group(6), dihedral_group(50)],
                         ids=["D4", "C4", "D6", "D50"])
def test_classification_matches_one_stabilizer_per_solution(group):
    # D50 has 100 elements: 10-point configs fill several batches of
    # matches each
    sols = _mixed_solutions(group)
    if group.order == 100:
        sols += orbit(group, PointConfig(
            np.random.default_rng(3).uniform(-1.0, 1.0, (10, 2))))
    fixed = [st.order == group.order
             for st in (stabilizer(group, c) for c in sols)]
    for subset in (sols, [c for c, f in zip(sols, fixed) if not f],
                   [c for c, f in zip(sols, fixed) if f]):
        verdict = classify_ssb(group, subset)
        stabs = [stabilizer(group, c) for c in subset]
        assert [w.labels for w in verdict.witnesses] == \
            [st.labels for st in stabs]
        assert [w.matrices.tobytes() for w in verdict.witnesses] == \
            [st.matrices.tobytes() for st in stabs]
        full = [st.order == group.order for st in stabs]
        assert verdict.kind is (SSBKind.UNBROKEN if all(full) else
                                SSBKind.NARROW if not any(full) else
                                SSBKind.GENERAL)
        assert verdict.invariant_solution == (full.index(True) if any(full)
                                              else None)


def test_classification_rejects_what_one_stabilizer_per_solution_did():
    # the same messages in the same order: no solutions, then the
    # tolerance, then the first config of the wrong dimension
    g, square = dihedral_group(4), _square_config()
    line, space = PointConfig([[1.0], [2.0]]), PointConfig([[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="^need at least one solution"):
        classify_ssb(g, [], math.nan)
    with pytest.raises(ValueError, match="^tol must be a non-negative "
                                         "number, got nan$"):
        classify_ssb(g, [square, line], math.nan)
    with pytest.raises(ValueError, match="^dimension mismatch: transform is "
                                         "2-d, config is 1-d$"):
        classify_ssb(g, [square, line, space])
    with pytest.raises(ValueError, match="config is 3-d$"):
        classify_ssb(g, [space, square, line])


def test_group_action_memory_stays_bounded():
    # |G| = 200 and m = 10: a stabilizer's (200, 10, 10, 2) difference
    # tensor takes 320 kB; one over all pairs of images at once, (200, 200,
    # 10, 10, 2), would take 64 MB, so the orbit matches them 3 rows (960
    # kB) at a time
    g = dihedral_group(100)
    c = PointConfig(np.random.default_rng(7).uniform(-1.0, 1.0, (10, 2)))
    tracemalloc.start()
    try:
        images = orbit(g, c)
        stab = stabilizer(g, c)
        verdict = classify_ssb(g, images)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(images) == 200 and stab.order == 1
    assert verdict.kind is SSBKind.NARROW
    assert peak < 8 * 2**20


def _orbit_matches(monkeypatch, g, c):
    """The orbit of c under g, and the number of _match_points calls it
    makes."""
    calls = []
    match = symmetry._match_points
    monkeypatch.setattr(symmetry, "_match_points",
                        lambda *args: calls.append(1) or match(*args))
    return orbit(g, c), len(calls)


def test_orbit_matches_its_images_in_one_tensor_per_row_chunk(monkeypatch):
    # the groups and point counts of the verdict_sweep workload take one
    rng = np.random.default_rng(11)
    for k, m in itertools.product(range(2, 13), range(1, 4)):
        c = PointConfig(rng.uniform(-1.0, 1.0, (m, 2)))
        assert _orbit_matches(monkeypatch, dihedral_group(k), c)[1] == 1
    # the memory test's |G| = 200, m = 10 takes one per chunk of rows
    c = PointConfig(np.random.default_rng(7).uniform(-1.0, 1.0, (10, 2)))
    rows = symmetry._MATCH_BYTES // (8 * 200 * 10 * 10 * 2)
    images, calls = _orbit_matches(monkeypatch, dihedral_group(100), c)
    assert len(images) == 200 and calls == math.ceil(200 / rows)


def test_orbit_checks_every_image():
    # every image is a PointConfig with its checks: the 45-degree image of
    # (1e150, 1e150) is (0, 1.4e150), past the coordinate bound
    c = PointConfig([[1e150, 1e150], [0.5, 0.0]])
    with pytest.raises(ValueError, match=r"^coordinates must be at most "
                                         r"1e\+150 in magnitude$"):
        orbit(dihedral_group(8), c)


# pairs of points just above MATCH_TOL apart whose images under D12 are
# computed within it: first under r30 (the group's second element), and
# first under r120 (its fifth); and a point whose r60 image (the third)
# leaves the coordinate bound
_NEAR_PAIR = [[0.443, 0.051], [0.4429999999630463, 0.051000000092921605]]
_LATE_PAIR = [[0.274, -0.46], [0.27400000009670444, -0.45999999997453905]]
_HUGE = [9.866772518252039e+149, 3.5912115049195216e+149]


@st.composite
def _orbit_check_cases(draw):
    """Dihedral and cyclic groups up to order 24, and valid configs of up
    to 4 points that are generic, near the coordinate bound, or pairs just
    above MATCH_TOL apart, with or without edges."""
    k = draw(st.integers(1, 12))
    g = dihedral_group(k) if draw(st.booleans()) else cyclic_group(k)
    points = []
    for kind in draw(st.lists(st.sampled_from(["generic", "huge", "pair"]),
                              max_size=3)):
        theta = 2.0 * math.pi * draw(st.integers(0, 47)) / 48
        if kind == "generic":
            r = draw(st.integers(1, 1000)) / 1000.0
            new = [[r * math.cos(theta), r * math.sin(theta)]]
        elif kind == "huge":
            r = 1e150 * draw(st.sampled_from([1.0, 1.05, 1.2, math.sqrt(2)]))
            new = [[r * math.cos(theta), r * math.sin(theta)]]
        else:
            x = draw(st.integers(-1000, 1000)) / 1000.0
            d = MATCH_TOL * (1.0 + draw(st.integers(1, 1000)) * 1e-9)
            new = [[x, 0.0], [x + d * math.cos(theta), d * math.sin(theta)]]
        try:  # keep only what makes a valid config
            PointConfig(points + new)
            points += new
        except ValueError:
            pass
    m = len(points[:4])
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs \
        else []
    return g, PointConfig(np.array(points[:4]).reshape(m, 2), edges)


# orbit checks its image stack once, with the outcome of building a
# PointConfig of each image in turn, as it did before
@settings(derandomize=True, deadline=None)
@given(_orbit_check_cases())
@example((dihedral_group(8), PointConfig([[1e150, 1e150], [0.5, 0.0]])))
@example((dihedral_group(12), PointConfig(_NEAR_PAIR)))
@example((dihedral_group(12), PointConfig([*_NEAR_PAIR, _HUGE])))
@example((dihedral_group(12), PointConfig([*_LATE_PAIR, _HUGE])))
def test_orbit_checks_each_image_as_its_own_config(group_and_config):
    g, c = group_and_config
    stack = c.points @ g.matrices.transpose(0, 2, 1)
    message = None
    for image in stack:
        try:
            PointConfig(image, c.edges)
        except ValueError as exc:
            message = str(exc)
            break
    if message is not None:
        with pytest.raises(ValueError) as info:
            orbit(g, c)
        assert str(info.value) == message
        return
    images = orbit(g, c)
    ref_images = _reference_orbit(g, c)
    assert [(im.points.tobytes(), im.edges) for im in images] == \
        [(im.points.tobytes(), im.edges) for im in ref_images]
    assert all(not im.points.flags.writeable for im in images)


def test_orbit_reports_the_first_image_that_fails():
    # the examples above: a near pair fails under r30, unless an image
    # before the one where it fails leaves the bound
    d12 = dihedral_group(12)
    duplicate = "^configuration contains duplicate points$"
    with pytest.raises(ValueError, match=duplicate):
        orbit(d12, PointConfig(_NEAR_PAIR))
    with pytest.raises(ValueError, match=duplicate):
        orbit(d12, PointConfig([*_NEAR_PAIR, _HUGE]))
    with pytest.raises(ValueError, match=duplicate):
        orbit(d12, PointConfig(_LATE_PAIR))
    with pytest.raises(ValueError, match="^coordinates must be at most "
                                         r"1e\+150 in magnitude$"):
        orbit(d12, PointConfig([*_LATE_PAIR, _HUGE]))


# a stack of one point set gets PointConfig's messages, and a stack of
# several the message of its first bad set
@pytest.mark.parametrize("points, message", [
    ([[math.nan, 0.0], [0.3, 0.1]],
     r"^points \[0\] have non-finite coordinates: \[\[nan, 0\.0\]\]$"),
    ([[0.0, 1.0], [0.5, math.inf], [-math.inf, 2.0]],
     r"^points \[1, 2\] have non-finite coordinates: "
     r"\[\[0\.5, inf\], \[-inf, 2\.0\]\]$"),
    ([[0.0, 1e150], [-1e150, 0.0]], None),
    ([[0.0, 1.0000000000000002e150]],
     r"^coordinates must be at most 1e\+150 in magnitude$"),
    ([[0.5, 0.5], [0.0, 0.0], [0.5, 0.5 + 0.9e-10]],
     r"^configuration contains duplicate points$"),
    ([[0.0, 0.0], [MATCH_TOL, 0.0]],  # exactly MATCH_TOL apart
     r"^configuration contains duplicate points$"),
    ([[0.5, 0.5], [0.0, 0.0], [0.5, 0.5 + 1.0000001e-10]], None),
], ids=["nan", "inf", "at-bound", "past-bound", "duplicate", "at-tol",
        "distinct"])
def test_point_checks_give_the_config_messages(points, message):
    pts = np.array(points)
    if message is None:
        assert PointConfig(pts).points.tobytes() == pts.tobytes()
        assert symmetry._check_points(pts[None]) is not None
        return
    with pytest.raises(ValueError, match=message):
        PointConfig(pts)
    with pytest.raises(ValueError, match=message):
        symmetry._check_points(pts[None])
    # behind a valid set, and ahead of a set that fails another check
    other = np.full_like(pts, math.nan) if "duplicate" in message else \
        np.zeros_like(pts)
    with pytest.raises(ValueError, match=message):
        symmetry._check_points(np.array([np.arange(
            pts.size, dtype=float).reshape(pts.shape), pts, other]))


def test_generic_point_has_full_orbit():
    d4 = dihedral_group(4)
    c = PointConfig(np.array([[0.3, 0.7]]))
    assert len(orbit(d4, c)) == 8


# every public function of symmetry that takes a tolerance, called with it
_TOL_CALLS = {
    "config_equal": lambda tol: config_equal(_square_config(),
                                             _square_config(), tol),
    "is_invariant": lambda tol: is_invariant(rotation2d(0.0),
                                             _square_config(), tol),
    "orbit": lambda tol: orbit(dihedral_group(4), _square_config(), tol),
    "stabilizer": lambda tol: stabilizer(dihedral_group(4),
                                         _square_config(), tol),
    "classify_ssb": lambda tol: classify_ssb(dihedral_group(4),
                                             [_square_config()], tol),
    "find": lambda tol: dihedral_group(4).find(rotation2d(0.0), tol),
    "verify_group_axioms": lambda tol: verify_group_axioms(
        dihedral_group(4), tol),
}


@pytest.mark.parametrize("tol", [math.nan, -1.0, -1e-300])
def test_stabilizer_and_classification_name_a_bad_tolerance(tol):
    # a tolerance that matches nothing, not even the identity, would make
    # stabilizer return no group; every function that takes one names it
    c = _square_config()
    message = r"^tol must be a non-negative number, got (nan|-1\.0|-1e-300)$"
    for call in _TOL_CALLS.values():
        with pytest.raises(ValueError, match=message):
            call(tol)
    for zero in (0.0, -0.0):  # accepted: an exact match is a match
        for call in _TOL_CALLS.values():
            call(zero)
        assert "r0" in stabilizer(dihedral_group(4), c, zero).labels


def test_stabilizer_takes_rows_of_its_group():
    g = dihedral_group(4)
    stab = stabilizer(g, PointConfig([[1.0, 0.0]]))
    assert stab.labels == ("r0", "m0")
    assert stab.matrices.tobytes() == g.matrices[[0, 4]].tobytes()
    assert not stab.matrices.flags.writeable


def test_solutions_with_one_stabilizer_share_its_group():
    # the sign flip fixes 0 and moves every other root: -1 and 1 share {e},
    # a read-only group
    left, zero, right = (PointConfig([[x]]) for x in (-1.0, 0.0, 1.0))
    verdict = classify_ssb(sign_flip_group(), [left, zero, right])
    assert [w.labels for w in verdict.witnesses] == [("e",), ("e", "flip"),
                                                     ("e",)]
    assert verdict.witnesses[0] is verdict.witnesses[2]
    assert not verdict.witnesses[0].matrices.flags.writeable


def test_is_invariant_dim_mismatch_raises():
    with pytest.raises(ValueError):
        is_invariant(OrthoTransform(np.eye(3)), _square_config())


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def test_fully_symmetric_solution_set_is_unbroken():
    d4 = dihedral_group(4)
    verdict = classify_ssb(d4, [_square_config()])
    assert verdict.kind is SSBKind.UNBROKEN
    assert verdict.invariant_solution == 0


def test_mixed_solutions_are_general_breaking():
    d4 = dihedral_group(4)
    origin = PointConfig(np.array([[0.0, 0.0]]))
    off_axis = PointConfig(np.array([[0.3, 0.7]]))
    verdict = classify_ssb(d4, [off_axis, origin])
    assert verdict.kind is SSBKind.GENERAL
    assert verdict.invariant_solution == 1
    assert [w.order for w in verdict.witnesses] == [1, 8]


def test_no_invariant_solution_is_narrow_breaking():
    z2 = sign_flip_group()
    left = PointConfig(np.array([[-1.0]]))
    right = PointConfig(np.array([[1.0]]))
    verdict = classify_ssb(z2, [left, right])
    assert verdict.kind is SSBKind.NARROW
    assert verdict.invariant_solution is None


def test_classify_requires_solutions():
    with pytest.raises(ValueError):
        classify_ssb(dihedral_group(4), [])
