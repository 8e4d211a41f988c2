"""Residue kernels: the one vector table, the one block bound, the one row
code, and the memory that the blocked F_p scans may hold."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest

from stiefel_lab import gfnum
from stiefel_lab.rings import BudgetError, finite_field
from stiefel_lab.quadmod import euclidean
from stiefel_lab.invariants import compute_invariants
from stiefel_lab.isometry import abelianization_exponent, enumerate_group
from stiefel_lab.stiefel import wn_identification_check


@pytest.mark.parametrize("p,n", [(3, 1), (3, 4), (5, 3), (7, 2), (13, 2)])
def test_all_vectors_is_itertools_product_order(p, n):
    X = gfnum.all_vectors(p, n)
    assert X.dtype == np.int64
    assert X.tolist() == [list(t) for t in itertools.product(range(p), repeat=n)]


@pytest.mark.parametrize("m", [3, 5, 7, 25, 27, 125])
def test_mod_is_numpy_remainder(m):
    """a - a // m * m is a % m under numpy's floor semantics: on int64 with
    negative entries, and on the narrow unsigned dtypes of the pairing
    kernel, modulo primes and prime powers."""
    rng = np.random.default_rng(m)
    for a in (rng.integers(-10**12, 10**12, size=1000), np.arange(-300, 300),
              rng.integers(0, 256, size=1000).astype(np.uint8),
              rng.integers(0, 65536, size=1000).astype(np.uint16)):
        got = gfnum.mod(a, m)
        assert got.dtype == a.dtype
        assert np.array_equal(got, a % m)


def test_all_vectors_refuses_past_the_table_budget(monkeypatch):
    # 3^4 vectors of length 4 hold 324 entries: refused at a budget of 323,
    # before numpy is asked for the table.
    monkeypatch.setattr(gfnum, "VECTOR_TABLE_ENTRIES", 324)
    assert gfnum.all_vectors(3, 4).shape == (81, 4)
    monkeypatch.setattr(gfnum, "VECTOR_TABLE_ENTRIES", 323)

    def no_table(*args, **kwargs):
        raise AssertionError("the table was allocated")

    monkeypatch.setattr(gfnum.np, "indices", no_table)
    with pytest.raises(BudgetError, match="3\\^4 vectors of length 4 holds 324 entries, "
                                          "more than 323"):
        gfnum.all_vectors(3, 4)


def test_all_vectors_of_rank_zero_is_the_empty_vector():
    X = gfnum.all_vectors(5, 0)
    assert X.shape == (1, 0)
    assert X.dtype == np.int64


@pytest.mark.parametrize("count,width", [(0, 4), (1, 1), (10, 3), (100_000, 7),
                                         (5, 1 << 16), (3, 0)])
def test_blocks_cover_the_range_within_the_bound(count, width):
    parts = list(gfnum.blocks(count, width))
    covered = [i for s in parts for i in range(count)[s]]
    assert covered == list(range(count))
    for s in parts:
        rows = len(range(count)[s])
        assert rows == 1 or rows * width <= gfnum._BLOCK_ENTRIES


@pytest.mark.parametrize("base,width", [
    (3, 1), (7, 4), (5, 9), (3, 16), (13, 16),  # n x n matrices mod p, width n^2
    (3, 5), (5, 4),  # unit-sphere rows mod p
    (90, 3), (19764, 4),  # frames of sphere indices, base the sphere size
])
def test_codes_sort_like_flattened_tuples(base, width):
    rng = np.random.default_rng(17)
    rows = rng.integers(0, base, size=(300, width), dtype=np.int64)
    rows[:3] = base - 1  # the largest code base^width - 1, held three times
    w = gfnum.code_weights(base, width)
    codes = gfnum.codes(rows, w)
    flat = [tuple(r) for r in rows.tolist()]
    assert [flat[i] for i in np.argsort(codes, kind="stable")] == sorted(flat)
    assert len(set(codes.tolist())) == len(set(flat))
    assert codes.max() == base ** width - 1
    assert (gfnum.decode(codes, w, base) == rows).all()


def test_code_weights_refuse_codes_past_int64():
    assert gfnum.code_weights(7, 22)[0] == 7 ** 21  # 7^22 < 2^63
    assert gfnum.code_weights(2, 62)[0] == 2 ** 61
    for base, width in ((7, 25), (7, 23), (2, 63)):
        with pytest.raises(BudgetError, match=rf"{base}\^{width}"):
            gfnum.code_weights(base, width)


def test_member_on_absent_and_largest_codes():
    top = 3 ** 39 - 1  # the largest code of 39 digits mod 3
    known = np.array([5, 9, 12, top - 1], dtype=np.int64)
    codes = np.array([0, 5, 6, 12, 13, top - 1, top], dtype=np.int64)
    assert gfnum.member(known, codes).tolist() == [False, True, False, True, False, True, False]
    assert gfnum.member(np.append(known, top), codes)[-1]
    assert not gfnum.member(known[:0], codes).any()


def first_solution_oracle(rows, p, a):
    """Brute force, one form at a time: the first nonzero x of [0, p)^r in
    lexicographic order with q(x) = a mod p, or None."""
    r = len(rows)
    for x in itertools.product(range(p), repeat=r):
        if any(x) and (sum(x[i] * rows[i][j] * x[j] for i in range(r) for j in range(r))
                       - a) % p == 0:
            return list(x)
    return None


def oracle_forms(p, r, rng):
    """Gram rows of rank r: random symmetric ones with entries of either
    sign, the zero form (solved by every x for a = 0, by none for a unit),
    the identity, and n<1> + <-c> for c a non-square (anisotropic at r = 2)."""
    forms = []
    for _ in range(10 if p ** r < 5000 else 3):
        rows = [[rng.randrange(-3 * p, 3 * p) for _ in range(r)] for _ in range(r)]
        forms.append([[rows[min(i, j)][max(i, j)] for j in range(r)] for i in range(r)])
    squares = {x * x % p for x in range(p)}
    c = next(c for c in range(1, p) if c not in squares)
    forms.append([[0] * r for _ in range(r)])
    forms.append([[int(i == j) for j in range(r)] for i in range(r)])
    forms.append([[(1 if i < r - 1 else -c) * (i == j) for j in range(r)] for i in range(r)])
    return forms


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_first_solutions_match_the_per_form_scan(p, monkeypatch):
    """The batched kernel against the brute-force scan, for ranks 1-4 and
    a in {0, 1, -1}, in one batch and one form at a time, with slabs of
    the default block, slabs of one row (smaller than any batch of more
    than one; on tables of at most 13^3 rows, as a slab a row is slow), and
    two slabs: the nonzero x with x_1 = 0, then the rest of the table,
    where some first solutions lie."""
    rng = random.Random(p)
    default = gfnum.block_rows

    def solve(grams, a, slabs):
        """The kernel's solutions with these slab sizes (the last repeated),
        or with the default block when slabs is None."""
        sizes = iter(slabs or ())
        monkeypatch.setattr(gfnum, "block_rows",
                            default if slabs is None else lambda width: next(sizes, slabs[-1]))
        return [x if any(x) else None for x in gfnum.first_solutions(grams, p, a).tolist()]

    seen = {"none": 0, "last slab": 0}
    for r in range(1, 5):
        plans = [None, [max(1, p ** (r - 1) - 1), p ** r]] + ([[1]] if p ** r <= 13 ** 3 else [])
        for a in (0, 1, -1):
            forms = oracle_forms(p, r, rng)
            want = [first_solution_oracle(rows, p, a) for rows in forms]
            grams = np.array(forms, dtype=np.int64)
            for slabs in plans:
                assert solve(grams, a, slabs) == want, (r, a, slabs)
                assert [solve(grams[i:i + 1], a, slabs)[0] for i in range(len(forms))] == want
            seen["none"] += want.count(None)
            seen["last slab"] += sum(x is not None and x[0] > 0 for x in want) if r > 1 else 0
    assert seen["none"] and seen["last slab"]


def peak_mib(call) -> float:
    """Peak traced allocation of one call, in MiB."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# Bounds set well above the blocked kernels' peaks (0.80, 1.86 and 1.61 MiB
# when written) and far below what an unblocked batch of the same scan holds.
def test_diagonal_scan_memory():
    assert peak_mib(lambda: compute_invariants(finite_field(13))) < 2


def test_group_closure_memory():
    assert peak_mib(lambda: enumerate_group(euclidean(finite_field(3), 4))) < 4


# Set above the code-packed kernels' 0.77 MiB peak when written and below
# the 2.69 MiB that a closure keyed by one tuple per product holds.
def test_abelianization_memory():
    q = euclidean(finite_field(3), 4)
    assert peak_mib(lambda: abelianization_exponent(enumerate_group(q))) < 2


def test_form_preserving_map_scan_memory():
    assert peak_mib(lambda: wn_identification_check(finite_field(5), [], 3, 1)) < 2


def least_of_components(count, pairs) -> list[int]:
    """The least vertex of each vertex's component, by breadth-first search."""
    neighbours = [[] for _ in range(count)]
    for a, b in pairs:
        neighbours[a].append(b)
        neighbours[b].append(a)
    least = [-1] * count
    for start in range(count):
        if least[start] < 0:
            least[start] = start
            queue = [start]
            for v in queue:
                for w in neighbours[v]:
                    if least[w] < 0:
                        least[w] = start
                        queue.append(w)
    return least


@pytest.mark.parametrize("seed", range(8))
def test_component_labels_match_bfs(seed):
    rng = random.Random(seed)
    count = rng.randint(0, 80)
    pairs = [(rng.randrange(count), rng.randrange(count))
             for _ in range(rng.randint(0, 2 * count))] if count else []
    a, b = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    assert gfnum.component_labels(count, a, b).tolist() == least_of_components(count, pairs)


def test_component_labels_join_a_shuffled_path():
    """A path whose vertices are numbered at random needs many hooks and
    jumps; every vertex ends labelled 0."""
    perm = np.random.default_rng(0).permutation(2000)
    assert (gfnum.component_labels(2000, perm[:-1], perm[1:]) == 0).all()


def test_distinct_matches_np_unique():
    rng = np.random.default_rng(0)
    for codes in (np.zeros(0, dtype=np.int64), rng.integers(-50, 50, 500),
                  rng.integers(0, 2**62, 300)):
        values, at = gfnum.distinct(codes)
        want, inverse = np.unique(codes, return_inverse=True)
        assert np.array_equal(values, want) and np.array_equal(at, inverse.reshape(-1))
