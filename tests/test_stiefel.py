"""Stiefel complexes, skeleton posets, ordered variant, Morse replay."""

import itertools
import random

import numpy as np
import pytest

from stiefel_lab.rings import RingError, finite_field, integers, rationals
from stiefel_lab.quadmod import (
    diagonal_module,
    euclidean,
    frame,
    orthogonal_sum,
    polar,
    vec,
)
from stiefel_lab import complexes, gfnum, stiefel
from stiefel_lab.complexes import Poset, poset_from_frames, reduced_homology
from stiefel_lab.stiefel import (
    BudgetError,
    UnitSphere,
    _count_cliques,
    build_ordered_stiefel,
    build_skeleton_poset,
    build_stiefel,
    connectivity_report,
    equivariance_spotcheck,
    integer_aut_check,
    intersection_connectivity,
    local_standardness_check,
    morse_replay,
    skeleton_vs_poset_profiles,
    unit_vectors,
    wn_identification_check,
)

F3 = finite_field(3)
F5 = finite_field(5)


def test_unit_vector_counts():
    assert len(unit_vectors(euclidean(F5, 2))) == 4  # only (+-1, 0), (0, +-1)
    assert {x * x % 5 for x in range(5)} == {0, 1, 4}  # oracle: 1 - x^2 is a
    # square only at x = 0, +-1 -> 4 solutions of x^2 + y^2 = 1
    assert len(unit_vectors(euclidean(F3, 3))) == 6
    for n in (1, 2, 3, 4):
        assert len(unit_vectors(euclidean(integers(), n))) == 2 * n


def test_unit_vectors_over_z_are_the_sorted_signed_basis():
    Z = integers()
    for n in range(1, 6):
        signed = [vec(Z, [s if j == i else 0 for j in range(n)])
                  for i in range(n) for s in (-1, 1)]
        assert unit_vectors(euclidean(Z, n)) == sorted(
            signed, key=lambda v: tuple(c.value for c in v))
    with pytest.raises(RingError, match="integer enumeration needs the identity Gram matrix"):
        unit_vectors(diagonal_module(Z, [1, 2]))
    with pytest.raises(RingError, match="unit vectors are not enumerable over Q"):
        unit_vectors(euclidean(rationals(), 2))


def test_build_stiefel_small():
    k = build_stiefel(euclidean(F5, 2), 1)
    assert k.n_simplices(0) == 4 and k.n_simplices(1) == 4
    prof = reduced_homology(k, 1)
    assert prof.betti == (0, 1)  # the 4-cycle is a circle

    k1 = build_stiefel(euclidean(F3, 1), 0)
    assert k1.n_simplices(0) == 2


def test_cross_polytope_identity():
    """X over Z is the boundary of the cross-polytope: C(n, k+1) 2^(k+1)
    k-simplices, and the full complex is a sphere."""
    from math import comb

    for n in (2, 3, 4):
        k = build_stiefel(euclidean(integers(), n), n - 1)
        for d in range(n):
            assert k.n_simplices(d) == comb(n, d + 1) * 2 ** (d + 1)
        prof = reduced_homology(k, n - 1)
        assert prof.betti[: n - 1] == (0,) * (n - 1)
        assert prof.betti[n - 1] == 1


def test_budget_guard(monkeypatch):
    monkeypatch.setattr(stiefel, "SIMPLEX_BUDGET", 50)
    with pytest.raises(BudgetError):
        build_stiefel(euclidean(F5, 4), 2)


def test_skeleton_poset_matches_complex():
    for q, k in ((euclidean(F3, 3), 2), (euclidean(F5, 2), 2), (euclidean(F3, 4), 2)):
        direct, subdivided = skeleton_vs_poset_profiles(q, k)
        assert direct.betti == subdivided.betti
        assert direct.torsion == subdivided.torsion


def test_frames_satisfy_invariants():
    q = euclidean(F3, 4)
    k = build_stiefel(q, 1)
    units = unit_vectors(q)
    for a, b in k.simplices[1][:50]:
        frame(q, [[c.value for c in units[a]], [c.value for c in units[b]]])


def test_connectivity_report_examples():
    rep = connectivity_report(F3, 5, 0)
    assert rep.betti == (0,) and rep.predicted_connectivity == 0
    assert rep.bound_satisfied

    rep = connectivity_report(F5, 5, 0)
    assert rep.betti == (0,) and rep.bound_satisfied

    # Below the bound nothing is asserted; the profile is recorded.  The
    # complex happens to be connected already at n = 4 over F_3.
    rep = connectivity_report(F3, 4, 0)
    assert rep.predicted_connectivity == -1
    assert rep.bound_satisfied  # vacuous
    # Regression value: the complex is genuinely disconnected below the
    # bound (the all-nonzero unit vectors split by sign parity), a sharpness
    # witness for n >= 5.
    assert rep.betti == (2,)


def test_connectivity_report_degree_one():
    rep = connectivity_report(F3, 5, 1)
    assert rep.betti[0] == 0
    assert rep.bound_satisfied
    assert rep.counts["simplices_dim_1"] > 0


def test_ordered_stiefel_and_identities():
    sss = build_ordered_stiefel(euclidean(F3, 3), 2)
    sss.verify_identities()
    assert len(sss.levels[0]) == 6
    # level 1: ordered pairs of orthogonal unit vectors
    q = euclidean(F3, 3)
    units = unit_vectors(q)
    expected = sum(
        1 for a in range(6) for b in range(6)
        if a != b and polar(q, units[a], units[b]).is_zero()
    )
    assert len(sss.levels[1]) == expected


def face_tables_by_dict(q, max_p):
    """Reference: the ordered levels as sorted tuples, and each face table
    looked up in a dict from the frames of the level below to their index."""
    by_size = stiefel._cliques(UnitSphere(q).adjacency(), max_p + 1)
    levels = [sorted(t for c in by_size.get(size, []) for t in itertools.permutations(c))
              for size in range(1, max_p + 2)]
    index = [{t: i for i, t in enumerate(level)} for level in levels]
    face_maps = [[]] + [[[index[p - 1][t[:i] + t[i + 1:]] for t in levels[p]]
                         for i in range(p + 1)] for p in range(1, max_p + 1)]
    return levels, face_maps


@pytest.mark.parametrize("ring,n,max_p", [(F3, 3, 2), (F3, 4, 3), (F5, 3, 2)],
                         ids=["F3-n3", "F3-n4", "F5-n3"])
def test_ordered_face_maps_match_dict_tables(ring, n, max_p):
    sss = build_ordered_stiefel(euclidean(ring, n), max_p)
    levels, face_maps = face_tables_by_dict(euclidean(ring, n), max_p)
    assert [level.tolist() for level in sss.levels] == [list(map(list, lv)) for lv in levels]
    assert [level.shape[1] for level in sss.levels] == list(range(1, max_p + 2))
    assert [[f.tolist() for f in fm] for fm in sss.face_maps] == face_maps
    sss.verify_identities()


def planting(monkeypatch, extra):
    """Make the Hom-set enumeration of 2-frame maps also return `extra`."""
    enumerate_maps = stiefel._form_preserving_maps

    def planted(target, k):
        maps = enumerate_maps(target, k)
        return np.concatenate([maps, [extra]]) if k == 2 else maps

    monkeypatch.setattr(stiefel, "_form_preserving_maps", planted)


def test_wn_check_reports_a_planted_map_that_is_no_frame(monkeypatch):
    """Columns (e_1, e_1): both on the sphere, but no frame, so it has no
    face to compare; the mismatch is a failure, not a lookup error."""
    planting(monkeypatch, [[1, 1], [0, 0], [0, 0]])
    res = wn_identification_check(F3, [], 3, 1)
    assert not res.passed
    assert res.failures == ["level 1: image does not match the ordered frames"]
    assert res.details["levels"][1] == {"maps": 25, "frames": 24}


def test_wn_check_reports_a_basis_image_off_the_sphere(monkeypatch):
    planting(monkeypatch, [[1, 0], [0, 0], [0, 0]])
    res = wn_identification_check(F3, [], 3, 1)
    assert res.failures == ["level 1: map [[1, 0], [0, 0], [0, 0]] is off the sphere"]


def test_wn_check_reports_a_corrupted_face_map(monkeypatch):
    """Swapping two entries of d_0 at level 2 breaks d_0 d_1 = d_0 d_0 and
    the face compatibility; both are failures of the check."""
    build = stiefel.build_ordered_stiefel

    def corrupted(q, max_p):
        sss = build(q, max_p)
        d0 = sss.face_maps[2][0]
        assert d0[0] != d0[1]
        d0[0], d0[1] = d0[1], d0[0]
        return sss

    monkeypatch.setattr(stiefel, "build_ordered_stiefel", corrupted)
    res = wn_identification_check(F3, [], 3, 2)
    assert not res.passed
    assert "face map d_0 disagrees at level 2 on frame [0, 2, 4]" in res.failures
    assert res.failures[-1].startswith("face identity fails at level 2, simplex ")


def wn_sweep(max_n=3, max_p=1):
    """Criterion sweep: identification and face compatibility over F_3."""
    results = {}
    for n in range(1, max_n + 1):
        for p_level in range(0, max_p + 1):
            if p_level + 1 > n:
                continue
            res = wn_identification_check(F3, [], n, p_level)
            results[(n, p_level)] = res.passed
    return results


def test_wn_identification():
    results = wn_sweep()
    assert all(results.values())
    # Level-0 count over n = 3 is the number of unit vectors.
    res = wn_identification_check(F3, [], 3, 0)
    assert res.details["levels"][0] == {"maps": 6, "frames": 6}
    # A nonzero stabilized summand works too.
    res = wn_identification_check(F3, [2], 2, 1)
    assert res.passed
    res5 = wn_identification_check(F5, [], 3, 1)
    assert res5.passed


def form_preserving_maps_one_by_one(target, k):
    """Reference: each candidate matrix, in itertools.product order, tried
    on every input vector on its own."""
    p, m = target.ring.p, target.rank
    G = np.array(target.gram_values)
    inputs = list(itertools.product(range(p), repeat=k))
    out = []
    for flat in itertools.product(range(p), repeat=m * k):
        M = np.array(flat).reshape(m, k)
        if all((M @ x) @ G @ (M @ x) % p == sum(c * c for c in x) % p for x in inputs):
            out.append(M)
    return out


@pytest.mark.parametrize("ring", [F3, F5], ids=["F3", "F5"])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("v_diag,n", [([], 2), ([2], 2)])
def test_form_preserving_maps_match_a_one_by_one_scan(ring, k, v_diag, n):
    target = (orthogonal_sum(diagonal_module(ring, v_diag), euclidean(ring, n))
              if v_diag else euclidean(ring, n))
    got = stiefel._form_preserving_maps(target, k)
    want = form_preserving_maps_one_by_one(target, k)
    assert got.tolist() == [M.tolist() for M in want]
    assert want  # the inclusion of the first k coordinates, at least
    assert got.shape == (len(want), target.rank, k)


def random_graph(m, density, seed):
    """Symmetric bool adjacency of a seeded random graph, diagonal clear."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((m, m)) < density, 1)
    return upper | upper.T


@pytest.mark.parametrize("m", [0, 1, 63, 64, 65, 130])
def test_cliques_match_combinations(m):
    """Levels are built from packed masks; the vertex counts cross the byte
    and 64-bit word boundaries of a packed row."""
    max_size = 4 if m <= 65 else 3
    for seed in range(2):
        adj = random_graph(m, 0.3, seed)
        got = stiefel._cliques(adj, max_size)
        assert got[1] == [(i,) for i in range(m)]
        for size in range(2, max_size + 1):
            subsets = np.fromiter(
                itertools.chain.from_iterable(itertools.combinations(range(m), size)),
                dtype=np.int64).reshape(-1, size)
            keep = np.logical_and.reduce([adj[subsets[:, i], subsets[:, j]] for i, j
                                          in itertools.combinations(range(size), 2)])
            want = list(map(tuple, subsets[keep].tolist()))
            assert got.get(size, []) == want
            assert (size in got) == bool(want)


def test_cliques_refuse_a_level_before_building_it(monkeypatch):
    """X(F_3^4) has 24 / 72 / 96 / 48 frames of sizes 1..4.  A budget one
    short of the first three levels refuses size 3 from the popcount of the
    edge masks: only the vertex masks were ever unpacked."""
    adj = UnitSphere(euclidean(F3, 4)).adjacency()
    monkeypatch.setattr(stiefel, "SIMPLEX_BUDGET", 240)
    assert {k: len(v) for k, v in stiefel._cliques(adj, 4).items()} == \
        {1: 24, 2: 72, 3: 96, 4: 48}
    monkeypatch.setattr(stiefel, "SIMPLEX_BUDGET", 24 + 72)
    assert len(stiefel._cliques(adj, 2)[2]) == 72
    unpacked = []
    unpack = np.unpackbits
    monkeypatch.setattr(np, "unpackbits",
                        lambda a, *args, **kw: unpacked.append(len(a)) or unpack(a, *args, **kw))
    monkeypatch.setattr(stiefel, "SIMPLEX_BUDGET", 24 + 72 + 96 - 1)
    with pytest.raises(BudgetError, match=r"^clique enumeration exceeded budget 191 at size 3 "
                                          r"\(running total 192\)$"):
        stiefel._cliques(adj, 4)
    assert unpacked == [24]


def test_orthogonality_graph_tables_refuse_past_their_size(monkeypatch):
    """The packed graph is priced at 8 bytes a word before it is built, and
    the bool adjacency matrix of every vertex is refused above 8000 of them:
    X(F_3^4) packs 24 rows of one word, X(F_3^10) has 19,764 vertices."""
    monkeypatch.setattr(stiefel, "PACKED_GRAPH_BYTES", 24 * 8 - 1)
    with pytest.raises(BudgetError, match=r"^packed orthogonality graph for 24 vertices "
                                          r"\(192 bytes\) refused above 191$"):
        UnitSphere(euclidean(F3, 4)).packed_rows()
    monkeypatch.setattr(stiefel, "PACKED_GRAPH_BYTES", 24 * 8)
    assert UnitSphere(euclidean(F3, 4)).packed_rows().shape == (24, 1)
    with pytest.raises(BudgetError, match="^adjacency matrix for 19764 vertices refused$"):
        UnitSphere(euclidean(F3, 10)).adjacency()


def test_triangle_count_is_refused_above_the_simplex_budget(monkeypatch):
    """The triangle pass reads the packed row of each edge's endpoints:
    edges x words is refused above SIMPLEX_BUDGET before any of it runs."""
    sphere = UnitSphere(euclidean(F3, 5))
    adj = sphere.adjacency()
    edges = _count_cliques(sphere, 2)[2]
    assert (sphere.m, edges) == (90, int(adj.sum()) // 2)
    work = edges * 2  # 90 vertices fill two 64-bit words a row
    monkeypatch.setattr(stiefel, "SIMPLEX_BUDGET", work)
    triangles = _count_cliques(sphere, 3)[3]
    assert triangles == sum(1 for i, j, k in itertools.combinations(range(sphere.m), 3)
                            if adj[i, j] and adj[i, k] and adj[j, k])
    monkeypatch.setattr(stiefel, "SIMPLEX_BUDGET", work - 1)
    with pytest.raises(BudgetError, match=f"{edges} edges of 2 packed words"):
        _count_cliques(sphere, 3)
    assert _count_cliques(sphere, 2)[2] == edges  # edges alone are not refused


def test_local_standardness():
    assert local_standardness_check(F3, [], 3).passed
    assert local_standardness_check(F3, [2], 2).passed


def test_local_standardness_ls2_fails_on_a_missing_map(monkeypatch):
    """LS2 checks the stabilized maps against the larger Hom-set itself: with
    (1, 0, 0) planted out of Hom(E^1, E^3), the check fails and names it."""
    enumerate_maps = stiefel._form_preserving_maps

    def losing(target, k):
        maps = enumerate_maps(target, k)
        if target.rank == 3:
            maps = maps[(maps.reshape(len(maps), -1) != [1, 0, 0]).any(axis=1)]
        return maps

    monkeypatch.setattr(stiefel, "_form_preserving_maps", losing)
    res = local_standardness_check(F3, [], 3)
    assert not res.passed
    assert res.failures == ["LS2: stabilized map [1, 0, 0] is not in Hom(E^1, V + E^3)"]


def test_morse_replay_exhaustive_small():
    q5 = euclidean(F3, 5)
    cert = morse_replay(F3, 5, 2, frame(q5, []), frame(q5, []))
    assert cert.passed and cert.mode == "exhaustive"
    names = {n for n, _, _ in cert.assertions}
    assert {"morse-lemma", "direct-homology", "x0-deformation",
            "x0-suspension-structure", "x0-suspension-profile",
            "link-join-split"} <= names


def test_morse_replay_exhaustive_n6():
    """A second exhaustive scale (11.5k-element poset): every clause of the
    filtration argument, including the direct homology cross-check and the
    remainder definition of X0."""
    q6 = euclidean(F3, 6)
    cert = morse_replay(F3, 6, 2, frame(q6, []), frame(q6, []))
    assert cert.passed and cert.mode == "exhaustive"
    sizes = cert.config["layer_sizes"]
    assert sizes == {"X0": 6192, "L1": 1080, "L2": 4320}
    assert sum(sizes.values()) == 252 + 11340  # singletons + orthogonal pairs


def test_morse_replay_exhaustive_n7():
    """The largest exhaustive scale in tier-1 (89,154 elements): every
    clause of the filtration argument, with the direct homology
    cross-check."""
    q7 = euclidean(F3, 7)
    cert = morse_replay(F3, 7, 2, frame(q7, []), frame(q7, []))
    assert cert.passed and cert.mode == "exhaustive"
    assert cert.config["layer_sizes"] == {"X0": 41526, "L1": 11340, "L2": 36288}
    assert ("direct-homology", True, "betti (0, 87751)") in cert.assertions
    assert ("link-join-split", True, "36288 links decomposed; ") in cert.assertions


def frame_poset_and_filtration(n, l):
    """The frame poset of X_l(F_3^n), built as the exhaustive replay builds
    it, and the Morse filtration about the first unit vector."""
    sphere = UnitSphere(euclidean(F3, n))
    neg = int(np.flatnonzero(((-sphere.vectors[0]) % sphere.p == sphere.vectors).all(axis=1))[0])
    orth = sphere.orthogonal_mask(0)
    orth[neg] = False
    filt = stiefel.MorseFiltration(l, 0, neg, orth)
    by_size = stiefel._cliques(sphere.adjacency(), l)
    frames = [frozenset(t) for size in sorted(by_size) for t in by_size[size]]
    return sphere, filt, poset_from_frames(frames)


@pytest.mark.parametrize("l, sizes, links", [
    (2, {1: 90, 2: 1080}, 72 + 576),
    (3, {1: 90, 2: 1080, 3: 2160}, 96 + 576 + 768),
])
def test_sampled_link_matches_poset_link(l, sizes, links):
    """The sampled replay builds each link from the sphere; on the whole F_3,
    n = 5 frame poset it must equal the comparable frames in earlier layers."""
    sphere, filt, poset = frame_poset_and_filtration(5, l)
    assert {k: sum(len(f) == k for f in poset.elements) for k in sizes} == sizes
    checked = 0
    for i, x in enumerate(poset.elements):
        layer = filt.layer(x)
        if not layer:
            continue
        built = stiefel._link_in_prev(sphere, filt, tuple(sorted(x)), layer, l)
        expected = {poset.elements[j] for j in poset.below[i] | poset.above[i]
                    if filt.in_prev(poset.elements[j], layer)}
        assert len(built) == len(set(built))
        assert set(built) == expected
        checked += 1
    assert checked == links


def test_join_items_read_extensions_from_the_poset():
    """At l = 2 no link of the replay has an extension; on the l = 3 frame
    poset of F_3, n = 5 each of the 576 L2 links has subframes below
    extensions, and every L2 and L3 link satisfies the join check."""
    _sphere, filt, poset = frame_poset_and_filtration(5, 3)
    layer_of = [filt.layer(f) for f in poset.elements]
    assert all(any(filt.in_prev(poset.elements[j], 2) for j in poset.above[i])
               for i, k in enumerate(layer_of) if k == 2)
    cert = stiefel.MorseCertificate(passed=True, mode="exhaustive")
    stiefel._join_items(cert, poset, filt, layer_of, 3)
    assert cert.assertions == [("link-join-split", True, f"{576 + 768} links decomposed; ")]


class SingletonsLast(stiefel.MorseFiltration):
    """A wrong filtration: singletons lie in no earlier layer, so every link
    of a layer frame loses its one-element subframes."""

    def layer(self, frame):
        return self.l + 1 if len(frame) == 1 else super().layer(frame)


@pytest.mark.parametrize("l", [2, 3])
def test_join_split_requires_every_subframe(l):
    """The split must put all 2^|x| - 2 proper subframes of x below the
    extensions; a filtration that drops the singletons fails it."""
    _sphere, filt, poset = frame_poset_and_filtration(5, l)
    wrong = SingletonsLast(filt.l, filt.pivot_index, filt.pivot_negative_index,
                           filt.orthogonal_to_pivot)
    layer_of = [wrong.layer(f) for f in poset.elements]
    cert = stiefel.MorseCertificate(passed=True, mode="exhaustive")
    stiefel._join_items(cert, poset, wrong, layer_of, l)
    [(name, ok, detail)] = cert.assertions
    assert name == "link-join-split" and not ok
    assert detail.startswith(f"{sum(2 <= k <= l for k in layer_of)} links decomposed; ")
    assert "subframes of" in detail


# Calls of `Poset.profiles` in one exhaustive replay: the lemma (X0, every
# link and X), the deformation check (its domain and image), the suspension
# (the base and the image), the links' subframe sets, and the join checks.
REPLAY_KERNEL_CALLS = 5


def replayed_index_sets(monkeypatch) -> list:
    """Run the exhaustive F_3, n = 5, l = 2 replay and return the index sets
    of each call of the profile kernel, as (poset, frozensets)."""
    calls = []
    profiles = Poset.profiles

    def recorded(self, sets, members, count):
        order = np.argsort(sets, kind="stable")
        ends = np.searchsorted(np.asarray(sets)[order], np.arange(count + 1))
        members_by_set = np.asarray(members)[order]
        calls.append((self, [frozenset(members_by_set[ends[k]:ends[k + 1]].tolist())
                             for k in range(count)]))
        return profiles(self, sets, members, count)

    monkeypatch.setattr(Poset, "profiles", recorded)
    q5 = euclidean(F3, 5)
    cert = morse_replay(F3, 5, 2, frame(q5, []), frame(q5, []))
    assert cert.passed and cert.mode == "exhaustive"
    monkeypatch.setattr(Poset, "profiles", profiles)
    return calls


def test_exhaustive_replay_builds_each_order_complex_once(monkeypatch):
    """The F_3, n = 5, l = 2 replay asks for the homology of 654 distinct
    subposets of its frame poset, 648 of them a two-frame antichain, in
    REPLAY_KERNEL_CALLS calls of the batched kernel (one `Poset.homology`
    call per index set made 2,958 calls).  They come in 7 shapes.  Frames of
    at most two vectors hold no chain of three, so every profile is read off
    its graph counts: no order complex is built or homologized."""
    built = []
    chains = Poset._chains

    def counted_chains(self, indices):
        built.append(indices)
        return chains(self, indices)

    monkeypatch.setattr(Poset, "_chains", counted_chains)
    monkeypatch.setattr(complexes, "reduced_homology",
                        lambda K, d: built.append(K) or reduced_homology(K, d))
    calls = replayed_index_sets(monkeypatch)
    assert len(calls) == REPLAY_KERNEL_CALLS
    [P] = {P for P, _sets in calls}
    asked = {S for _P, sets in calls for S in sets}
    assert len(asked) == 654
    assert sum(1 for S in asked if len(S) == 2 and P.homology(S).betti == (1,)) == 648
    assert len({P._shape(S)[0] for S in asked}) == 7
    assert not built


def test_exhaustive_replay_profiles_match_order_complexes(monkeypatch):
    """Each of the 654 profiles of the F_3, n = 5, l = 2 replay matches the
    homology of its order complex field by field."""
    asked = {(P, S) for P, sets in replayed_index_sets(monkeypatch) for S in sets}
    assert len(asked) == 654
    for P, S in asked:
        K = P._chains(S)
        oracle = reduced_homology(K, max(K.dimension, 0))
        prof = P.homology(S)
        for name in ("betti", "torsion", "max_degree", "empty", "complete"):
            assert getattr(prof, name) == getattr(oracle, name), name


@pytest.mark.parametrize("l", [2, 3])
def test_array_layers_match_layer(l):
    """The replay's one-pass classification agrees with `layer` frame by
    frame on the F_3, n = 5 frame posets."""
    _sphere, filt, poset = frame_poset_and_filtration(5, l)
    sizes, inside = stiefel._member_counts(poset.elements, filt.orthogonal_to_pivot)
    assert filt.layers(sizes, inside).tolist() == [filt.layer(f) for f in poset.elements]


class PairingSingletonsInL2(stiefel.MorseFiltration):
    """A wrong filtration: a singleton pairing with the pivot lies in L_2,
    the layer of the frames of two such vectors, its superframes."""

    def layer(self, frame):
        if len(frame) == 1 and self.pairing[next(iter(frame))]:
            return 2
        return super().layer(frame)


def test_sampled_incomparability_fails_on_a_subframe_in_its_layer():
    """The sampled clause (ii) draws the same frames under either
    filtration, and fails only when a proper subframe shares its frame's
    layer."""
    sphere, filt, _poset = frame_poset_and_filtration(5, 2)
    wrong = PairingSingletonsInL2(filt.l, filt.pivot_index, filt.pivot_negative_index,
                                  filt.orthogonal_to_pivot)
    results = []
    for f in (filt, wrong):
        cert = stiefel.MorseCertificate(passed=True, mode="sampled")
        stiefel._sampled_partition_items(cert, sphere, f, random.Random(0), 2, 20)
        [(name, ok, detail)] = [a for a in cert.assertions if a[0] == "layer-incomparability"]
        results.append((ok, detail))
    assert results[0] == (True, "20 sampled pairs, no proper subframe in its frame's layer")
    assert results[1] == (False, "20 sampled pairs, 40 frames with a proper subframe in "
                                 "their layer")


def test_morse_replay_rejects_l1():
    q5 = euclidean(F3, 5)
    with pytest.raises(ValueError):
        morse_replay(F3, 5, 1, frame(q5, []), frame(q5, []))


def test_morse_replay_with_frames():
    # r = 1 tightens the condition to n >= 2(r+1) + (s+1) + m = 7.
    q7 = euclidean(F3, 7)
    cert = morse_replay(F3, 7, 2, frame(q7, [[1, 0, 0, 0, 0, 0, 0]]),
                        frame(q7, []), sample_budget=30, seed=1)
    assert cert.passed and cert.mode == "sampled"


def test_morse_replay_condition_gate():
    # (n, l, r, s) = (6, 2, 1, 0) over F_5: the tightest condition needs
    # n >= 2(r+1) + (s+1) + m = 7, so n = 6 must be rejected and n = 7 runs.
    q6 = euclidean(F5, 6)
    with pytest.raises(ValueError):
        morse_replay(F5, 6, 2, frame(q6, [[1, 0, 0, 0, 0, 0]]), frame(q6, []))
    q7 = euclidean(F5, 7)
    cert = morse_replay(F5, 7, 2, frame(q7, [[1, 0, 0, 0, 0, 0, 0]]),
                        frame(q7, []), sample_budget=25, seed=0)
    assert cert.passed and cert.mode == "sampled"


def test_morse_replay_sampled_l3():
    q = euclidean(F3, 8)
    cert = morse_replay(F3, 8, 3, frame(q, []), frame(q, []),
                        sample_budget=12, seed=0)
    assert cert.passed and cert.mode == "sampled"
    assert cert.config["frame_counts"][3] == 63685440


def bfs_components(count, pairs):
    """Components of the graph on range(count) with the given edges, by
    breadth-first search: an oracle that shares no code with
    `gfnum.component_labels`."""
    neighbours = [[] for _ in range(count)]
    for a, b in pairs:
        neighbours[a].append(b)
        neighbours[b].append(a)
    seen = [False] * count
    components = 0
    for start in range(count):
        if not seen[start]:
            components += 1
            seen[start] = True
            queue = [start]
            for v in queue:
                for w in neighbours[v]:
                    if not seen[w]:
                        seen[w] = True
                        queue.append(w)
    return components


def suspension_base_by_bfs(sphere, filt):
    """Reference for the l = 3 suspension-base items: X_2 of the pivot
    hyperplane is a graph, so its reduced Betti numbers are b0 = C - 1 and
    b1 = E - V + C, with C counted by breadth-first search (the Euler count
    of the barycentric graph: V + E vertices, 2E edges)."""
    w_indices = np.flatnonzero(filt.orthogonal_to_pivot)
    ii, jj = np.nonzero(np.triu(sphere.adjacency(w_indices)))
    verts, edges = len(w_indices), len(ii)
    comps = bfs_components(verts, zip(ii.tolist(), jj.tolist()))
    b0, b1 = comps - 1, 2 * edges - (verts + edges) + comps
    ok = b0 == 0
    return [("x0-suspension-base", ok,
             f"X_2 of the hyperplane: {verts} vertices, {edges} pairs, "
             f"reduced betti ({b0}, {b1}); wedge of S^1: {ok}"),
            ("x0-clause-derived", ok,
             "clause (i) derived: sampled deformation hypotheses + exact "
             "suspension base (direct homology of X0 skipped for budget)")]


def suspension_base_by_poset(sphere, filt):
    """Reference for the l = 2 suspension-base items: the frame poset of the
    hyperplane's singletons."""
    singletons = [frozenset({i}) for i in range(int(filt.orthogonal_to_pivot.sum()))]
    prof = poset_from_frames(singletons).homology()
    ok = prof.is_wedge_of_spheres(0)
    return [("x0-suspension-base", ok, f"betti {prof.betti}"),
            ("x0-clause-derived", ok, "clause (i) derived from the suspension base")]


@pytest.mark.parametrize("ring, n, l, reference", [
    (F3, 8, 3, suspension_base_by_bfs),
    (F3, 7, 2, suspension_base_by_poset),
    (F5, 6, 2, suspension_base_by_poset),
], ids=["F3-n8-l3", "F3-n7-l2", "F5-n6-l2"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampled_suspension_base_matches_reference(ring, n, l, reference, seed, monkeypatch):
    seen = []
    replayed = stiefel._sampled_x0_items

    def spy(cert, sphere, filt, *args):
        seen.append((sphere, filt))
        replayed(cert, sphere, filt, *args)

    monkeypatch.setattr(stiefel, "_sampled_x0_items", spy)
    q = euclidean(ring, n)
    cert = morse_replay(ring, n, l, frame(q, []), frame(q, []), sample_budget=4, seed=seed)
    names = ("x0-suspension-base", "x0-clause-derived")
    assert cert.mode == "sampled" and len(seen) == 1
    assert [a for a in cert.assertions if a[0] in names] == reference(*seen[0])


def test_suspension_base_without_hyperplane_units_fails():
    """A pivot whose hyperplane holds no unit vector leaves an empty base,
    which is no wedge of circles."""
    sphere = UnitSphere(euclidean(F3, 1))
    filt = stiefel.MorseFiltration(3, 0, 1, np.zeros(sphere.m, dtype=bool))
    cert = stiefel.MorseCertificate(passed=True, mode="sampled")
    stiefel._sampled_x0_items(cert, sphere, filt, random.Random(0), 3, 4)
    assert ("x0-suspension-base", False, "X_2 of the hyperplane: 0 vertices, 0 pairs, "
            "reduced betti (0, 0); wedge of S^1: False") in cert.assertions
    assert not cert.passed


# F_3 n = 5 has 90 vertices, so each packed row spans two words; the last
# form is not Euclidean.
KERNEL_FORMS = {
    "F3-n5": euclidean(F3, 5),
    "F5-n3": euclidean(F5, 3),
    "F5-diag123": diagonal_module(F5, [1, 2, 3]),
}


def _polar_graph(sphere):
    """The orthogonality graph from the exact Scalar polar form."""
    q = sphere.form
    verts = [vec(q.ring, [int(c) for c in v]) for v in sphere.vectors]
    return np.array([[i != j and polar(q, verts[i], verts[j]).is_zero()
                      for j in range(sphere.m)] for i in range(sphere.m)])


@pytest.mark.parametrize("name", sorted(KERNEL_FORMS))
def test_packed_rows_match_scalar_polar(name, monkeypatch):
    monkeypatch.setattr(stiefel, "GRAPH_CHUNK", 7)  # several chunks per graph
    sphere = UnitSphere(KERNEL_FORMS[name])
    expected = _polar_graph(sphere)
    for i in range(sphere.m):  # each row packed on its own
        assert (sphere.orthogonal_mask(i) == expected[i]).all()
    rows = sphere.packed_rows()
    assert rows.shape == (sphere.m, -(-sphere.m // 64))
    bits = np.unpackbits(rows.view(np.uint8), axis=1, bitorder="little").astype(bool)
    assert (bits[:, :sphere.m] == expected).all()
    assert not bits[:, sphere.m:].any()  # padding stays zero
    assert (sphere.adjacency() == expected).all()
    for i in range(sphere.m):  # rows read from the built graph
        assert (sphere.orthogonal_mask(i) == expected[i]).all()
    picks = np.array([3, 0, sphere.m - 1])
    assert (sphere.adjacency(picks) == expected[np.ix_(picks, picks)]).all()


@pytest.mark.parametrize("name", sorted(KERNEL_FORMS))
def test_orthogonal_mask_all_is_the_and_of_rows(name):
    sphere = UnitSphere(KERNEL_FORMS[name])
    rng = random.Random(0)
    assert sphere.orthogonal_mask_all([]).all()
    for size in (1, 2, 3):
        for _ in range(20):
            picks = rng.sample(range(sphere.m), size)
            want = np.ones(sphere.m, dtype=bool)
            for i in picks:
                want &= sphere.orthogonal_mask(i)
            assert (sphere.orthogonal_mask_all(picks) == want).all()


@pytest.mark.parametrize("name", sorted(KERNEL_FORMS))
def test_count_cliques_matches_brute_force(name):
    sphere = UnitSphere(KERNEL_FORMS[name])
    adj = _polar_graph(sphere)
    edges = [e for e in itertools.combinations(range(sphere.m), 2) if adj[e]]
    triangles = sum(1 for i, j, k in itertools.combinations(range(sphere.m), 3)
                    if adj[i, j] and adj[i, k] and adj[j, k])
    assert _count_cliques(sphere, 3) == {1: sphere.m, 2: len(edges), 3: triangles}
    assert triangles > 0


@pytest.mark.parametrize("p, dtype", [(131, np.uint16), (191, np.uint32)])
def test_packed_rows_match_scalar_polar_wide_sums(p, dtype):
    # n (p - 1)^2 is 33,800 and 72,200, so the kernel sums in a dtype wider
    # than uint8.  At n = 2 there are no triangles, so these forms stay out
    # of KERNEL_FORMS.
    sphere = UnitSphere(euclidean(finite_field(p), 2))
    assert sphere._right.dtype == dtype
    expected = _polar_graph(sphere)
    for i in range(sphere.m):  # each row from the kernel on its own
        assert (sphere.orthogonal_mask(i) == expected[i]).all()
    bits = np.unpackbits(sphere.packed_rows().view(np.uint8), axis=1, bitorder="little")
    assert (bits[:, :sphere.m].astype(bool) == expected).all()
    assert not bits[:, sphere.m:].any()


# Forms for the components BFS, with their component counts.  At n = 1 the
# unit vectors +-1 are not orthogonal, so the graph is two isolated vertices.
# F_3 with n = 4, F_7 and F_11 with n = 2 and the last form, which is not
# Euclidean, need several BFS rounds.
COMPONENT_FORMS = {
    "5-1": (euclidean(F5, 1), 2),
    "3-1": (euclidean(F3, 1), 2),
    "3-3": (euclidean(F3, 3), 1),
    "5-2": (euclidean(F5, 2), 1),
    "3-4": (euclidean(F3, 4), 3),
    "7-3": (euclidean(finite_field(7), 3), 1),
    "3-5": (euclidean(F3, 5), 1),
    "7-2": (euclidean(finite_field(7), 2), 2),
    "11-2": (euclidean(finite_field(11), 2), 3),
    "F3-diag1122": (diagonal_module(F3, [1, 1, 2, 2]), 3),
}


@pytest.mark.parametrize("name", list(COMPONENT_FORMS))
def test_sphere_components_match_union_find(name, monkeypatch):
    """The sphere's packed BFS against `bfs_components` on the built
    adjacency matrix."""
    q, count = COMPONENT_FORMS[name]
    sphere = UnitSphere(q)
    ii, jj = np.nonzero(np.triu(sphere.adjacency()))
    expected = bfs_components(sphere.m, zip(ii.tolist(), jj.tolist()))
    assert expected == count
    assert sphere.components() == expected  # the BFS ignores the built graph
    monkeypatch.setattr(stiefel, "GRAPH_CHUNK", 1)
    assert UnitSphere(q).components() == expected  # one frontier row per kernel call


@pytest.mark.parametrize("name", ["3-4", "3-5", "11-2", "F3-diag1122"])
def test_components_pair_only_unvisited_vertices(name, monkeypatch):
    q, count = COMPONENT_FORMS[name]
    sphere = UnitSphere(q)
    kernel = sphere._orthogonal
    visited: set[int] = set()
    pairs = 0

    def pairing(rows, cols):
        nonlocal pairs
        rows, cols = np.asarray(rows), np.asarray(cols)
        visited.update(rows.tolist())  # a frontier row was reached before
        assert not visited & set(cols.tolist())
        block = kernel(rows, cols)
        visited.update(cols[block.any(axis=0)].tolist())
        pairs += block.size
        return block

    monkeypatch.setattr(sphere, "_orthogonal", pairing)
    monkeypatch.setattr(stiefel, "GRAPH_CHUNK", 2)
    assert sphere.components() == count
    assert visited == set(range(sphere.m))
    assert pairs <= sphere.m * (sphere.m - 1) // 2  # no pair twice, no diagonal
    assert sphere._rows is None  # no row was packed


def test_rank_zero_sphere_is_empty(monkeypatch):
    def never(self, rows, cols):
        raise AssertionError("the pairing kernel ran on an empty sphere")

    monkeypatch.setattr(UnitSphere, "_orthogonal", never)
    sphere = UnitSphere(euclidean(F3, 0))
    assert sphere.gram.shape == (0, 0)
    assert sphere.m == 0 and sphere.components() == 0
    q = euclidean(F3, 3)
    # The complement of e1, e2 meets the complement of e3 in 0.
    res = intersection_connectivity(F3, 3, frame(q, [[1, 0, 0], [0, 1, 0]]),
                                    frame(q, [[0, 0, 1]]))
    assert res == {"n": 3, "rank": 0, "unit_vectors": 0, "components": 0,
                   "connected": False}


def test_intersection_connectivity():
    q8 = euclidean(F3, 8)
    res = intersection_connectivity(F3, 8, frame(q8, []), frame(q8, []))
    assert res["connected"] and res["unit_vectors"] == 2160


def test_integer_aut_counts():
    for n, expected in ((1, 2), (2, 8), (3, 48)):
        res = integer_aut_check(n)
        assert res.passed and res.details["automorphisms"] == expected


@pytest.mark.parametrize("n", [2, 3])
def test_graph_automorphisms_match_every_permutation(n):
    """The backtracking search lists exactly the adjacency-preserving
    permutations, in the order a scan of all m! permutations meets them."""
    _, graph = stiefel._integer_graph(euclidean(integers(), n))
    adj = graph.tolist()
    m = len(adj)
    brute = [perm for perm in itertools.permutations(range(m))
             if all(adj[perm[i]][perm[j]] == adj[i][j] for i in range(m) for j in range(m))]
    assert stiefel._graph_automorphisms(adj) == brute


# Over Z^2 the vertices are -e_0, -e_1, e_1, e_0 (indices 0 to 3).
@pytest.mark.parametrize("planted, failure", [
    ((0, 1, 3, 2), "lift disagrees with the automorphism on a vertex"),  # e_0 <-> e_1 only
    ((2, 1, 0, 3), "an automorphism does not lift to an integer isometry"),  # e_1 -> -e_0
], ids=["swap-e0-e1", "basis-not-orthonormal"])
def test_integer_aut_check_refuses_a_planted_automorphism(monkeypatch, planted, failure):
    """The last automorphism found is replaced, so the count still holds;
    with one automorphism per block the failure is caught in its own block
    and each failure kind is reported once."""
    graph = stiefel._integer_graph(euclidean(integers(), 2))[1].tolist()
    found = stiefel._graph_automorphisms(graph)[:-1] + [planted]
    monkeypatch.setattr(stiefel, "_graph_automorphisms", lambda adj: found)
    monkeypatch.setattr(gfnum, "_BLOCK_ENTRIES", 1)
    res = integer_aut_check(2)
    assert not res.passed
    assert res.failures == [failure]


def test_integer_aut_check_refuses_a_planted_edge(monkeypatch):
    """An edge joining -e_0 to its antipode e_0 leaves -e_0 no non-neighbor."""
    build = stiefel._integer_graph

    def planted(q):
        table, graph = build(q)
        graph = graph.copy()
        graph[0, 3] = graph[3, 0] = True
        return table, graph

    monkeypatch.setattr(stiefel, "_integer_graph", planted)
    res = integer_aut_check(2)
    assert not res.passed
    assert res.failures[0] == "antipode characterization fails at vertex 0"


def test_integer_aut_check_passes_one_automorphism_per_block(monkeypatch):
    monkeypatch.setattr(gfnum, "_BLOCK_ENTRIES", 1)
    res = integer_aut_check(3)
    assert res.passed and res.details["automorphisms"] == 48


@pytest.mark.parametrize("n", [0, -1])
def test_integer_aut_check_refuses_rank_below_one(n):
    with pytest.raises(ValueError, match=f"got n = {n}$"):
        integer_aut_check(n)


def test_integer_aut_count_n5():
    res = integer_aut_check(5)
    assert res.passed
    assert res.details["automorphisms"] == res.details["expected"] == 2 ** 5 * 120


def test_equivariance():
    assert equivariance_spotcheck(F3, 3)
    assert equivariance_spotcheck(F5, 3)
    assert equivariance_spotcheck(F3, 4)
