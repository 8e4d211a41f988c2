"""Homology backend: SNF, reduced homology, order complexes, lemma checks."""

import itertools
import random

import numpy as np
import pytest

from stiefel_lab import complexes, gfnum
from stiefel_lab.complexes import (
    CheckResult,
    HomologyProfile,
    Poset,
    SimplicialComplex,
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
from stiefel_lab.complexes import _dense_snf, _invariant_factors, _peel, _unit_rounds
from stiefel_lab.quadmod import euclidean
from stiefel_lab.rings import BudgetError, finite_field
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
    """Row 1 holds no unit until the first round's pivot, at (0, 0) (row
    0's units tie on their column counts, so the least column), turns its
    (2, 3) into (0, 1); the next round pivots on that 1."""
    pivots = []
    taken, rows, cols, vals = _unit_rounds(*entry_arrays([[1, 1], [2, 3]]), pivots)
    assert (taken, pivots, rows.size) == (2, [0, 1], 0)


def test_unit_reduce_without_units_leaves_everything():
    entries = entry_arrays([[2, 4], [6, 8]])
    pivots = []
    taken, *left = _unit_rounds(*entries, pivots)
    assert (taken, pivots) == (0, [])
    assert all(np.array_equal(a, b) for a, b in zip(left, entries))


def dense_leftover(rows, cols, vals):
    """The leftover entries as a dense matrix over their own rows and columns."""
    ids = [sorted(set(rows.tolist())), sorted(set(cols.tolist()))]
    dense = [[0] * len(ids[1]) for _ in ids[0]]
    for i, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        dense[ids[0].index(i)][ids[1].index(j)] = v
    return dense


def test_unit_reduce_plus_dense_leftover_matches_minor_oracle():
    rng = random.Random(3)
    for _ in range(40):
        m = [[rng.choice([0, 0, 0, 1, -1, 2, 3]) for _ in range(5)] for _ in range(5)]
        units, *leftover = _unit_rounds(*entry_arrays(m), [])
        rest = _dense_snf(dense_leftover(*leftover))
        assert [1] * units + rest == invariant_factors_by_minors(m)


def test_unit_reduce_pivot_count_on_f3_n5_boundary():
    K = build_stiefel(euclidean(finite_field(3), 5), 2)
    taken, rows, *_ = _unit_rounds(*K.boundary_arrays(2, ()), [])
    assert (taken, rows.size) == (837, 0)


def test_unit_reduce_refuses_past_its_entry_budget(monkeypatch):
    """The F_3, n = 5, d = 2 boundary has 6,480 entries: 1,080 edge rows of
    6 and 2,160 triangle columns of 3.  Its first round takes 432 pivots (the
    size of that round's independent set); each pivot column holds 2
    entries outside the pivot rows, and each of those gathers the 5 other
    entries of its pivot row, so the round's priced fill is 432 x 2 x 5 =
    4,320, and 6,480 + 4,320 = 10,800 entries are the most any round
    prices.  One entry less of budget is refused before the first round,
    with the counts."""
    entries = build_stiefel(euclidean(finite_field(3), 5), 2).boundary_arrays(2, ())
    monkeypatch.setattr(complexes, "SNF_ENTRY_BUDGET", 10800)
    assert _unit_rounds(*entries, [])[0] == 837
    monkeypatch.setattr(complexes, "SNF_ENTRY_BUDGET", 10799)
    with pytest.raises(BudgetError, match="^sparse elimination refused after 0 unit pivots: "
                                          "6480 live entries and a priced fill of 4320 "
                                          "exceed 10799$"):
        _unit_rounds(*entries, [])


def test_unit_reduce_refuses_a_load_past_its_entry_budget(monkeypatch):
    """A matrix with more entries than the budget is refused before any
    pivot is taken."""
    entries = build_stiefel(euclidean(finite_field(3), 5), 2).boundary_arrays(2, ())
    assert entries[0].size == 6480
    pivots = []
    monkeypatch.setattr(complexes, "SNF_ENTRY_BUDGET", 6479)
    with pytest.raises(BudgetError, match="^sparse elimination refused before any pivot: "
                                          "6480 live entries exceed 6479$"):
        _unit_rounds(*entries, pivots)
    assert pivots == []


def test_unit_rounds_match_the_oracles_near_int64():
    """Seeded sparse matrices with entries in {0, +-1, +-2, 3}, every other
    one with an entry near 2^62: the whole path agrees with gcds of minors
    and with dense elimination.  A round whose bound M + L M^2 reaches 2^62
    runs on Python ints, so its leftover comes back as an exact object
    array: pivoting on the 1 of [[1, b], [b, 3]], b = 2^62 - 1, leaves
    3 - b^2."""
    rng = random.Random(34)
    near = [2 ** 62 - 1, -(2 ** 62) + 5, 2 ** 62 + 3]
    on_objects = 0
    for trial in range(60):
        size = rng.randint(2, 5)
        m = [[rng.choice([0, 0, 0, 1, -1, 2, -2, 3]) for _ in range(size)] for _ in range(size)]
        if trial % 2:
            m[rng.randrange(size)][rng.randrange(size)] = rng.choice(near)
        oracle = invariant_factors_by_minors(m)
        assert _invariant_factors(*entry_arrays(m), []) == oracle
        assert _dense_snf([row[:] for row in m]) == oracle
        on_objects += _unit_rounds(*entry_arrays(m), [])[3].dtype == object
    assert on_objects > 0
    b = 2 ** 62 - 1
    taken, rows, cols, vals = _unit_rounds(*entry_arrays([[1, b], [b, 3]]), [])
    assert (taken, rows.tolist(), cols.tolist()) == (1, [1], [1])
    assert vals.dtype == object and vals.tolist() == [3 - b * b]


def test_a_round_refuses_pivots_that_meet(monkeypatch):
    """A round's independence is checked by an explicit exception (not a
    bare assert, which python -O would strip): the two units of column 0,
    both taken, do not make A[I, J] diagonal."""
    monkeypatch.setattr(complexes, "_independent_pivots",
                        lambda rows, cols, i, j, rank: np.arange(i.size))
    with pytest.raises(AssertionError, match=r"^the 2 pivots of a round do not make "
                                             r"A\[I, J\] diagonal$"):
        _unit_rounds(*entry_arrays([[1, 1], [1, 1]]), [])


def test_snf_sparse_path_matches_dense():
    rng = random.Random(2)
    for _ in range(10):
        m = [[rng.choice([0, 0, 0, 1, -1, 2]) for _ in range(30)] for _ in range(25)]
        assert smith_normal_form(m) == _dense_snf([row[:] for row in m])


def test_snf_sparse_on_boundary_matrices():
    """On genuine boundary matrices the unit-pivot path agrees with dense
    elimination of the whole matrix, factor by factor; and reduced_homology,
    which clears each boundary by the pivots of the one below, agrees with
    these uncleared factors degree by degree.  The complexes carry torsion
    (RP^2), top homology (the octahedron and its face poset), and seeded
    random flag and order complexes."""
    builds = [octahedron, triangle_boundary, rp2,
              lambda: build_stiefel(euclidean(finite_field(3), 4), 3),
              lambda: face_poset(octahedron()).order_complex(),
              lambda: poset_from_less(*random_grid_order(0)).order_complex(),
              lambda: poset_from_less(*divisibility()).order_complex()]
    builds += [lambda seed=seed: random_flag_complex(seed) for seed in range(6)]
    for build in builds:
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


def entry_arrays(m):
    """The nonzero entries of a dense matrix as int64 rows, cols and vals."""
    entries = [(i, j, x) for i, r in enumerate(m) for j, x in enumerate(r) if x]
    return tuple(np.array(entries, dtype=np.int64).reshape(-1, 3).T)


def alone_units(rows, cols, vals) -> list:
    """The +-1 entries alone in their row or in their column."""
    row_count, col_count = {}, {}
    for i, j in zip(rows, cols):
        row_count[i] = row_count.get(i, 0) + 1
        col_count[j] = col_count.get(j, 0) + 1
    return [(i, j, v) for i, j, v in zip(rows, cols, vals)
            if abs(v) == 1 and (row_count[i] == 1 or col_count[j] == 1)]


def test_peel_core_dense_matches_minor_oracle():
    """The one path (peel, Markowitz core, dense finish) against gcds of
    minors and dense elimination on seeded matrices with empty rows and
    columns and +-2 entries, some alone in their row or column; each
    matrix's core holds no +-1 entry alone in its row or column."""
    rng = random.Random(31)
    for _ in range(60):
        m_rows, m_cols = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.choice([0, 0, 0, 1, -1, 2, -2, 3]) for _ in range(m_cols)]
             for _ in range(m_rows)]
        m[rng.randrange(m_rows)] = [0] * m_cols
        for row in m:
            row[rng.randrange(m_cols)] = 0
        oracle = invariant_factors_by_minors(m)
        assert _invariant_factors(*entry_arrays(m), []) == oracle
        assert _dense_snf([row[:] for row in m]) == oracle
        _, *core = _peel(*entry_arrays(m), [])
        assert alone_units(*(a.tolist() for a in core)) == []


def test_peel_leaves_entries_other_than_units_alone():
    """+-2 and 3 alone in their row and column are no pivots; a +-1 alone in
    its row or column is, and its row and column go."""
    m = [[2, 0, 0, 5],
         [0, -2, 1, 7],
         [0, 0, 0, 0],
         [3, 0, 0, 4]]
    pivots = []
    peeled, rows, cols, vals = _peel(*entry_arrays(m), pivots)
    assert (peeled, pivots) == (1, [2])
    assert sorted(zip(rows.tolist(), cols.tolist(), vals.tolist())) == [
        (0, 0, 2), (0, 3, 5), (3, 0, 3), (3, 3, 4)]
    assert smith_normal_form(m) == invariant_factors_by_minors(m) == [1, 1, 7]


def test_peel_takes_one_pivot_per_row_and_column_each_round():
    """Every entry of the all-ones 1 x 3 row is alone in its column, but one
    row takes one pivot; the identity takes all of its pivots in one round."""
    pivots = []
    assert _peel(*entry_arrays([[1, 1, 1]]), pivots)[0] == 1 and pivots == [0]
    pivots = []
    peeled, rows, *_ = _peel(*entry_arrays([[-1, 0, 0], [0, 1, 0], [0, 0, 1]]), pivots)
    assert (peeled, sorted(pivots), rows.size) == (3, [0, 1, 2], 0)


def test_snf_stays_exact_beyond_int64():
    """Entries past int64 are read as Python ints and never wrap."""
    big = 2 ** 70 + 1
    m = [[big, 0, 1], [0, 3, 1], [2 ** 65, 0, 0]]
    assert smith_normal_form(m) == invariant_factors_by_minors(m)
    assert smith_normal_form([[big, 0], [0, 1]]) == [1, big]
    assert smith_normal_form([[1, 2 ** 80], [2 ** 80, 1]]) == [1, 2 ** 160 - 1]


def test_core_keeps_the_markowitz_refusals(monkeypatch):
    """A core the peel cannot touch (every unit shares its row and column)
    is refused before any pivot past the budget, or when the first round's
    priced fill passes it: four rows 1 at column 0 and 2 at three columns of
    their own hold 16 entries.  The four units share column 0, so the round
    takes one; the 3 other entries of its column each gather the 3 other
    entries of its row, a priced fill of 9, and 16 + 9 = 25."""
    m = [[1] + [2 if j // 3 == k else 0 for j in range(12)] for k in range(4)]
    assert smith_normal_form(m) == [1, 2, 2, 2]
    monkeypatch.setattr(complexes, "SNF_ENTRY_BUDGET", 25)
    assert smith_normal_form(m) == [1, 2, 2, 2]
    monkeypatch.setattr(complexes, "SNF_ENTRY_BUDGET", 24)
    with pytest.raises(BudgetError, match="^sparse elimination refused after 0 unit pivots: "
                                          "16 live entries and a priced fill of 9 exceed 24$"):
        smith_normal_form(m)
    monkeypatch.setattr(complexes, "SNF_ENTRY_BUDGET", 15)
    with pytest.raises(BudgetError, match="^sparse elimination refused before any pivot: "
                                          "16 live entries exceed 15$"):
        smith_normal_form(m)


def test_cores_reaching_markowitz_hold_no_peelable_unit(monkeypatch):
    """In reduced_homology the core handed to the unit rounds never holds a
    +-1 entry alone in its row or column; X(F_3^5)'s d_3 and d_1 are peeled
    whole."""
    cores = []
    reduce = complexes._unit_rounds

    def spy(rows, cols, vals, pivots):
        cores.append((rows.tolist(), cols.tolist(), vals.tolist()))
        return reduce(rows, cols, vals, pivots)

    monkeypatch.setattr(complexes, "_unit_rounds", spy)
    builds = [rp2, octahedron, lambda: build_stiefel(euclidean(finite_field(3), 5), 3)]
    builds += [lambda seed=seed: random_flag_complex(seed) for seed in range(6)]
    for build in builds:
        K = build()
        cores.clear()
        reduced_homology(K, K.dimension)
        assert len(cores) == K.dimension
        for core in cores:
            assert alone_units(*core) == []
        if K.n_simplices(3) == 2160:
            assert [len(rows) for rows, _, _ in cores][::2] == [0, 0]


def reference_boundary_items(K, d, cleared=()):
    """Per-simplex reference: the ((row, col), sign) entries of C_d ->
    C_(d-1), column by column, without the rows in `cleared`."""
    lower_index = {s: i for i, s in enumerate(K.simplices.get(d - 1, []))}
    for col, s in enumerate(K.simplices.get(d, [])):
        sign = 1
        for i in range(len(s)):
            row = lower_index[s[:i] + s[i + 1:]]
            if row not in cleared:
                yield (row, col), sign
            sign = -sign


def sparse_labelled_chains():
    """The order complex of the divisibility order on 1..30 without the
    multiples of 7: its vertex labels are poset indices up to 29 for 26
    vertices, so faces coded by label in base 26 would collide (1 | 30 and
    2 | 4 would both read 29)."""
    elements, less = divisibility()
    P = poset_from_less(elements, less)
    return P._chains(frozenset(i for i, x in enumerate(elements) if x % 7))


@pytest.mark.parametrize("build, contiguous", [
    (lambda: build_stiefel(euclidean(finite_field(3), 4), 3), True),
    (sparse_labelled_chains, False),
    (lambda: SimplicialComplex({d: simps[::-1] for d, simps in
                                sparse_labelled_chains().simplices.items()}), False),
], ids=["X(F_3^4)", "order-complex", "order-complex-reversed-levels"])
def test_boundary_arrays_match_a_per_simplex_reference(build, contiguous):
    """Entries, in order, equal those of a per-simplex generator, with and
    without cleared rows: on a Stiefel complex, and on an order complex whose
    vertex labels are poset indices past the vertex count, with its levels
    as built and reversed."""
    K = build()
    labels = sorted(v for v, in K.simplices[0])
    assert K.dimension >= 2
    assert (labels == list(range(len(labels)))) == contiguous
    for d in range(1, K.dimension + 1):
        cleared = list(range(0, K.n_simplices(d - 1), 4))
        for drop in ((), cleared):
            rows, cols, signs = K.boundary_arrays(d, drop)
            assert rows.dtype == cols.dtype == signs.dtype == np.int64
            got = list(zip(zip(rows.tolist(), cols.tolist()), signs.tolist()))
            assert got == list(reference_boundary_items(K, d, set(drop)))
        assert K.boundary_entries(d) == dict(reference_boundary_items(K, d))


def test_boundary_arrays_refuse_a_missing_face():
    K = SimplicialComplex({0: [(0,), (1,), (2,)], 1: [(0, 1), (1, 2)], 2: [(0, 1, 2)]})
    assert K.boundary_arrays(1, ())[0].tolist() == [1, 0, 2, 1]
    with pytest.raises(ValueError, match=r"^2-simplex \(0, 1, 2\) has a face that is no "
                                         r"1-simplex$"):
        K.boundary_arrays(2, ())
    K = SimplicialComplex({0: [(0,), (5,)], 1: [(0, 5), (0, 7)]})
    with pytest.raises(ValueError, match=r"^1-simplex \(0, 7\) has a vertex that is no "
                                         r"0-simplex$"):
        K.boundary_arrays(1, ())


def test_boundary_is_priced_before_its_arrays(monkeypatch):
    """(d + 1) n_d entries past the budget are refused with the counts
    before any array of the boundary is built, whether the boundary is asked
    for alone or by reduced_homology, which prices every boundary it will
    reduce before it builds the first: d_1 (2 x 72 = 144 entries, within the
    budget) is not built either."""
    K = build_stiefel(euclidean(finite_field(3), 4), 3)
    built = []
    ranks = SimplicialComplex._vertex_ranks
    monkeypatch.setattr(SimplicialComplex, "_vertex_ranks",
                        lambda self, d: built.append(d) or ranks(self, d))
    monkeypatch.setattr(complexes, "SNF_ENTRY_BUDGET", 3 * 96 - 1)
    refused = (r"^the boundary d_2 has 3 x 96 = 288 entries, more than 287; "
               r"refused before it is built$")
    with pytest.raises(BudgetError, match=refused):
        K.boundary_arrays(2, ())
    with pytest.raises(BudgetError, match=refused):
        reduced_homology(K, 2)
    assert built == []
    monkeypatch.setattr(complexes, "SNF_ENTRY_BUDGET", 3 * 96)
    assert reduced_homology(K, 2).betti == (2, 0, 0)


def test_every_boundary_is_priced_before_the_first_elimination(monkeypatch):
    """X(F_3^5) to dimension 3 has 1,080 edges, 2,160 triangles and 2,160
    tetrahedra, so its top boundary d_3 has 4 x 2,160 = 8,640 entries, more
    than d_1's 2,160 and d_2's 6,480.  With one entry less of budget,
    homology up to degree 2, which reduces d_1, d_2 and d_3, is refused
    before the peel sees any boundary."""
    K = build_stiefel(euclidean(finite_field(3), 5), 3)
    peeled = []
    peel = complexes._peel
    monkeypatch.setattr(complexes, "_peel", lambda *args: peeled.append(args) or peel(*args))
    monkeypatch.setattr(complexes, "SNF_ENTRY_BUDGET", 8639)
    with pytest.raises(BudgetError, match=r"^the boundary d_3 has 4 x 2160 = 8640 entries, "
                                          r"more than 8639; refused before it is built$"):
        reduced_homology(K, 2)
    assert peeled == []
    monkeypatch.setattr(complexes, "SNF_ENTRY_BUDGET", 8640)
    assert reduced_homology(K, 2).betti == (0, 154, 0)
    assert len(peeled) == 3


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


def random_flag_complex(seed):
    """Clique complex, up to tetrahedra, of a seeded random graph on ten
    vertices."""
    rng = random.Random(seed)
    edges = {e for e in itertools.combinations(range(10), 2) if rng.random() < 0.55}
    cliques = [c for size in (1, 2, 3, 4) for c in itertools.combinations(range(10), size)
               if all(e in edges for e in itertools.combinations(c, 2))]
    return complex_from_simplices(cliques)


def test_clearing_drops_the_rows_at_the_pivots_below(monkeypatch):
    """On X(F_3^4) (24 / 72 / 96 / 48 simplices) each boundary reaches the
    elimination without the rows at the pivot columns of the one below:
    d_1 loses row 0, the pivot column of the augmentation d_0; d_2 loses
    rank d_1 = 21 of its 72 rows, d_3 loses rank d_2 = 51 of 96."""
    K = build_stiefel(euclidean(finite_field(3), 4), 3)
    rows = []
    reduce = complexes._invariant_factors

    def spy(entry_rows, cols, vals, pivots):
        rows.append(len(set(entry_rows.tolist())))
        return reduce(entry_rows, cols, vals, pivots)

    monkeypatch.setattr(complexes, "_invariant_factors", spy)
    assert reduced_homology(K, 2).betti == (2, 0, 0)
    assert rows == [24 - 1, 72 - 21, 96 - 51]


def test_each_boundary_reaches_the_elimination_once(monkeypatch):
    """A graph's d_1 is never eliminated: its rank is the union-find count.
    X(F_3^4), of dimension 3, has d_1, d_2 and d_3 eliminated once each, and
    no empty boundary above, however high max_degree reaches."""
    calls = []
    reduce = complexes._invariant_factors

    def spy(rows, cols, vals, pivots):
        calls.append(pivots)
        return reduce(rows, cols, vals, pivots)

    monkeypatch.setattr(complexes, "_invariant_factors", spy)
    assert reduced_homology(triangle_boundary(), 3).betti == (0, 1, 0, 0)
    assert calls == []
    K = build_stiefel(euclidean(finite_field(3), 4), 3)
    assert reduced_homology(K, 5).betti == (2, 0, 0, 3, 0, 0)
    assert len(calls) == 3


def test_h0_cross_check_raises_on_mismatch(monkeypatch):
    # The SNF rank of the boundary C_1 -> C_0 must confirm the component
    # count of `gfnum.component_labels`; a wrong count (here every vertex its
    # own component) is refused by an explicit exception (not a bare assert,
    # which python -O would strip).
    monkeypatch.setattr(gfnum, "component_labels", lambda count, a, b: np.arange(count))
    with pytest.raises(AssertionError, match="component count mismatch"):
        reduced_homology(octahedron(), 2)


@pytest.mark.parametrize("simplices, message", [
    ({0: [(0,), (1,)], 1: [(1, 0)]}, "bad 1-simplex"),  # unsorted
    ({0: [(0,)], 1: [(0, 0)]}, "bad 1-simplex"),  # repeated vertex
    ({0: [(0,)], 1: [(0,)]}, "bad 1-simplex"),  # wrong length
    ({0: [(0,), (1,), (0,)]}, "duplicate 0-simplices"),
])
def test_simplicial_complex_refuses_malformed_simplices(simplices, message):
    with pytest.raises(ValueError, match=message):
        SimplicialComplex(simplices)


def crowns_and_chain() -> Poset:
    """Two 4-crowns (0, 1 < 2, 3 and 4, 5 < 6, 7) beside a 4-chain
    8 < 9 < 10 < 11."""
    above = [{2, 3}, {2, 3}, set(), set(), {6, 7}, {6, 7}, set(), set(),
             {9, 10, 11}, {10, 11}, {11}, set()]
    return poset_from_less(list(range(12)), lambda i, j: j in above[i])


def test_homology_is_computed_once_per_shape(monkeypatch):
    """One kernel call answers every index set.  Equal graph profiles within
    it are one object, and so are the profiles of three-chain sets of one
    shape; same-size subposets of other shapes get their own.  Only the
    4-chain and the two 3-chains hold a chain of three, so they alone have
    an order complex built and homologized, once per shape; the other sets
    are graphs read off their counts."""
    built, homologized = [], []
    chains = Poset._chains

    def counted_chains(self, indices):
        built.append(indices)
        return chains(self, indices)

    def counted(K, max_degree):
        homologized.append(K)
        return reduced_homology(K, max_degree)

    monkeypatch.setattr(Poset, "_chains", counted_chains)
    monkeypatch.setattr(complexes, "reduced_homology", counted)
    P = crowns_and_chain()
    sets = [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [8, 11], [0, 2], [2, 3], [4, 5],
            [8, 9, 10], [9, 10, 11]]
    (crown, crown2, chain, two_chain, two_chain2, two_antichain, two_antichain2,
     three_chain, three_chain2) = P.profiles(*complexes._index_pairs(sets), len(sets))
    assert crown2 is crown and crown.betti == (0, 1)  # the crown's order complex is a 4-cycle
    assert chain != crown and chain.is_trivial()
    assert two_chain2 is two_chain and two_antichain2 is two_antichain
    assert two_chain != two_antichain and two_antichain.betti == (1,)
    assert three_chain2 is three_chain
    assert len({id(prof) for prof in (crown, chain, two_chain, two_antichain, three_chain)}) == 5
    assert [set(S) for S in built] == [{8, 9, 10, 11}, {8, 9, 10}]
    assert len(homologized) == 2
    # A batch of one per homology call: equal, and kept per index set.
    assert P.homology([4, 5, 6, 7]) == crown and P.homology([7, 6, 5, 4]) is P.homology([4, 5, 6, 7])
    assert len(built) == 2


def assert_fields_match(prof, oracle):
    """Field by field: profile equality trims trailing zero degrees, but the
    betti tuples themselves reach certificate details."""
    for name in ("betti", "torsion", "max_degree", "empty", "complete"):
        assert getattr(prof, name) == getattr(oracle, name), name


def assert_matches_order_complex(P, indices):
    """The profile of an index set against reduced homology of its order
    complex in every degree up to its dimension."""
    K = P._chains(frozenset(indices))
    assert_fields_match(P.homology(indices), reduced_homology(K, max(K.dimension, 0)))


def test_graph_profiles_match_order_complex_homology():
    """The empty set, an antichain, two disjoint edges, a singleton and a
    crown (a 4-cycle) take the graph route, and the 4-chain the chain route;
    each profile matches its order complex's homology field by field."""
    P = crowns_and_chain()
    for S in ([], [0, 1, 2, 3], [2, 3], [0, 3, 5, 6], [8], [8, 9, 10, 11]):
        assert_matches_order_complex(P, S)
    assert P.homology([]).empty and P.homology([0, 1, 2, 3]).betti == (0, 1)


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
    sub = face_poset(K).homology()
    assert direct == sub


def test_poset_from_frames_refuses_codes_past_int64():
    """Frames are coded as rows of digits below the largest member plus two;
    a family whose codes would not fit in int64 is refused before any pair
    is looked up."""
    with pytest.raises(BudgetError, match="more than an int64 code holds"):
        poset_from_frames([frozenset({0}), frozenset({1, 2, 2 ** 40})])
    P = poset_from_frames([frozenset({0}), frozenset({1, 2, 2 ** 20}), frozenset({1, 2 ** 20})])
    assert P.link(0) == [] and P.link(2) == [1]


def test_closure_deformation_examples():
    chain = poset_from_less([0, 1, 2], lambda x, y: x < y)
    assert closure_deformation_check(chain, [0, 1, 2]).passed  # identity

    # Open star of vertex 0 in the face poset of a 2-simplex: {0} is the
    # minimum, so the constant map at it is monotone and deflationary, and
    # the star collapses to a point.
    simplex = complex_from_simplices([(0, 1, 2)])
    P_all = face_poset(simplex)
    star_idx = [i for i, e in enumerate(P_all.elements) if 0 in e]
    bottom = next(i for i, e in enumerate(P_all.elements) if e == frozenset({0}))
    res = closure_deformation_check(P_all, {i: bottom for i in star_idx})
    assert res.passed
    assert res.details["image"].is_trivial()

    # Non-monotone map: move a face below an incomparable vertex.
    idx = {e: i for i, e in enumerate(P_all.elements)}
    g = list(range(len(P_all)))
    g[idx[frozenset({0, 1})]] = idx[frozenset({2})]
    res = closure_deformation_check(P_all, g)
    assert not res.passed and res.failures


def test_closure_deformation_rejects_a_map_leaving_its_domain():
    # On the open star of vertex 0 in the face poset of a 2-simplex, sending
    # {0, 1} to {1} is deflationary but leaves the star.
    P_all = face_poset(complex_from_simplices([(0, 1, 2)]))
    idx = {e: i for i, e in enumerate(P_all.elements)}
    star = {i: i for e, i in idx.items() if 0 in e}
    assert closure_deformation_check(P_all, star).passed
    star[idx[frozenset({0, 1})]] = idx[frozenset({1})]
    res = closure_deformation_check(P_all, star)
    assert not res.passed and "leaves the domain" in res.failures[0]


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
    # The cone 0 < 1, 2, 3 with X0 = {0}, L1 = {1, 2}, L2 = {3}: both layers
    # are antichains and every link is the point 0, so all clauses hold.
    P = poset_from_less([0, 1, 2, 3], lambda x, y: x == 0 and y in (1, 2, 3))
    res = morse_lemma_check(P, [0], [[1, 2], [3]], 1)
    assert res.passed
    # L1 containing a comparable pair must be reported as clause (ii).
    P2 = poset_from_less([0, 1, 2], lambda x, y: (x, y) in {(0, 1), (0, 2), (1, 2)})
    res2 = morse_lemma_check(P2, [0], [[1, 2]], 1)
    assert not res2.passed
    assert any("clause (ii)" in f for f in res2.failures)


def octahedron_faces():
    K = octahedron()
    faces = [frozenset(s) for d in sorted(K.simplices) for s in K.simplices[d]]
    return faces, lambda a, b: a < b


def divisibility():
    return list(range(1, 31)), lambda a, b: a != b and b % a == 0


def random_grid_order(seed):
    """Random points of {0..4}^3 under the componentwise order."""
    rng = random.Random(seed)
    points = sorted({tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(25)})
    return points, lambda a, b: a != b and all(x <= y for x, y in zip(a, b))


ORDERS = pytest.mark.parametrize(
    "order",
    [octahedron_faces(), divisibility(), *(random_grid_order(seed) for seed in range(3))],
    ids=["octahedron", "divisibility", "grid-0", "grid-1", "grid-2"],
)


@ORDERS
def test_poset_relations_match_brute_force(order):
    elements, less = order
    P = poset_from_less(elements, less)
    n = len(P)
    lt = [[less(a, b) for b in elements] for a in elements]
    for i in range(n):
        assert P.above[i] == {j for j in range(n) if lt[i][j]}
        assert P.below[i] == {j for j in range(n) if lt[j][i]}
        assert P.link(i) == [j for j in range(n) if lt[i][j] or lt[j][i]]
        assert [P.comparable(i, j) for j in range(n)] == \
            [lt[i][j] or lt[j][i] for j in range(n)]


@ORDERS
def test_index_set_homology_matches_built_subposet(order):
    """The homology of an index set equals that of the poset built on those
    elements alone, and asking again returns the kept profile."""
    elements, less = order
    P = poset_from_less(elements, less)
    n = len(P)
    rng = random.Random(n)
    chosen = [[], [rng.randrange(n)], list(range(n))]
    chosen += [rng.sample(range(n), rng.randint(2, n - 1)) for _ in range(12)]
    for S in chosen:
        alone = poset_from_less([elements[i] for i in sorted(S)], less)
        prof = P.homology(S)
        assert prof == alone.homology()
        assert P.homology(reversed(S)) is prof
        top = max(prof.max_degree + 1, 2)
        assert prof == reduced_homology(alone.order_complex(), top)
    assert P.homology() == P.homology(range(n))


@ORDERS
def test_drawn_index_set_profiles_match_order_complex(order):
    """Every index set that test_index_set_homology_matches_built_subposet
    draws, of either route, matches its order complex's homology field by
    field."""
    P = poset_from_less(*order)
    n = len(P)
    rng = random.Random(n)
    chosen = [[], [rng.randrange(n)], list(range(n))]
    chosen += [rng.sample(range(n), rng.randint(2, n - 1)) for _ in range(12)]
    three_chains = set()
    for S in chosen:
        assert_matches_order_complex(P, S)
        three_chains.add(P._shape(frozenset(S))[1])
    assert three_chains == {False, True}  # both routes are taken


def mixed_index_sets(P, seed) -> list:
    """Index sets of every kind for one kernel batch: the empty set, a
    singleton, the whole poset, random draws, and some elements' links and
    closed down-sets."""
    n = len(P)
    rng = random.Random(seed)
    sets = [[], [rng.randrange(n)], list(range(n))]
    sets += [rng.sample(range(n), rng.randint(2, min(n - 1, 400))) for _ in range(12)]
    for i in rng.sample(range(n), min(n, 20)):
        sets += [P.link(i), sorted(P.below[i] | {i})]
    return sets


def assert_batch_matches_order_complexes(P, sets):
    """One `profiles` call against reduced homology of each set's order
    complex, field by field.  The batch holds empty, singleton and height-one
    sets, and three-chain sets whenever the poset has a chain of three."""
    kinds = set()
    for S, prof in zip(sets, P.profiles(*complexes._index_pairs(sets), len(sets))):
        K = P._chains(S)
        assert_fields_match(prof, reduced_homology(K, max(K.dimension, 0)))
        kinds.add("empty" if not S else "point" if len(S) == 1 else
                  "three-chain" if P._shape(S)[1] else "height one")
    has_three_chain = P._shape(range(len(P)))[1]
    assert kinds == {"empty", "point", "height one"} | ({"three-chain"} if has_three_chain else set())


@ORDERS
def test_profiles_batch_matches_order_complexes(order):
    P = poset_from_less(*order)
    assert_batch_matches_order_complexes(P, mixed_index_sets(P, len(P)))


@pytest.mark.parametrize("l, size", [(2, 1170), (3, 3330)])
def test_frame_poset_profiles_match_order_complexes(l, size):
    """The same on the frame posets of X_l(F_3^5), whose frames hold at most
    l vectors: height one at l = 2, three-chains at l = 3."""
    P = face_poset(build_stiefel(euclidean(finite_field(3), 5), l - 1))
    assert len(P) == size
    assert_batch_matches_order_complexes(P, mixed_index_sets(P, l))


def test_morse_lemma_on_octahedron_poset():
    # Octahedron face poset = wedge of one S^2; decomposition: everything in
    # X0 with the direct cross-check engaged.
    P = face_poset(octahedron())
    res = morse_lemma_check(P, list(range(len(P))), [], 2)
    assert res.passed
    assert res.details["direct_cross_check"] is not None


def test_profiles_compare_by_content():
    """A complete profile equals the same space's profile to any higher
    degree; a partial profile equals only an identical one."""
    K = triangle_boundary()
    own = reduced_homology(K, K.dimension)
    deeper = reduced_homology(K, 3)
    assert own.max_degree != deeper.max_degree
    assert own == deeper and hash(own) == hash(deeper)
    partial = HomologyProfile(own.betti, own.torsion, own.max_degree, complete=False)
    assert partial != own and partial != deeper
    assert partial == HomologyProfile(own.betti, own.torsion, own.max_degree, complete=False)
    assert own != reduced_homology(octahedron(), 3)
    assert HomologyProfile((0,), ((),), 0, empty=True) != HomologyProfile((0,), ((),), 0)


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
