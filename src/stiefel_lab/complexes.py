"""Simplicial complexes, posets, and integer homology via Smith normal form.

Homology is always computed over Z, in the reduced convention (the zeroth
Betti number counts components minus one).  "k-connected" throughout this
package means that reduced homology vanishes in degrees <= k; the fundamental
group is never computed, and every certificate that depends on sphericity in
degrees >= 2 says so.

Every matrix takes one path, as numpy arrays of its entries: first the peel,
vectorised rounds of +-1 pivots that are alone in their row or column and so
create no fill (the coreductions of Mrozek and Batko); then sparse unit-pivot
elimination in Markowitz order on the core the peel leaves; then dense
elimination of the leftover without a +-1 entry.  The test suite
cross-checks the path against dense elimination of the whole and against
gcds of minors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, islice
from math import gcd
from operator import itemgetter, lt
from typing import Callable, Collection, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from stiefel_lab import gfnum
from stiefel_lab.rings import BudgetError

# Routes nothing here.  The benchmark's traced runs name their SNF spans
# "dense" or "sparse" by this column count, and need both names to occur.
DENSE_COLUMN_CUTOFF = 2000
# Entries a boundary may have, priced as (d + 1) n_d before its arrays are
# built, and live entries the Markowitz elimination may hold.  The arrays and
# the peel took 38 bytes of peak RSS per entry on the d = 2 boundary of
# X(F_3^7) (7,960,680 entries, peeled whole), so a boundary at the budget
# costs about 0.3 GB; the Markowitz row dicts and column sets took 190 and
# 302 bytes per live entry on the cleared d = 2 boundaries of X(F_3^6) and
# X(F_7^4), so a core at the budget stands for at most about 2.4 GB.
SNF_ENTRY_BUDGET = 8_000_000
# Sparse integer matrix entries: a dict {(row, col): value}, or its items
# read once.
Entries = Union[dict[tuple[int, int], int], Iterable[tuple[tuple[int, int], int]]]


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def _dense_snf(a: list[list[int]]) -> list[int]:
    """Diagonalize the integer matrix `a` in place; returns the nonzero
    invariant factors."""
    m = len(a)
    n = len(a[0]) if m else 0

    def row_op(i, j, q):  # row_i -= q * row_j
        ai, aj = a[i], a[j]
        for k in range(n):
            ai[k] -= q * aj[k]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in a:
            row[i] -= q * row[j]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    s = 0
    while True:
        pos = None
        best = None
        for i in range(s, m):
            for j in range(s, n):
                x = a[i][j]
                if x and (best is None or abs(x) < best):
                    best, pos = abs(x), (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if pos is None:
            break
        a[s], a[pos[0]] = a[pos[0]], a[s]
        swap_cols(s, pos[1])
        while True:
            for i in range(s + 1, m):
                if a[i][s]:
                    row_op(i, s, a[i][s] // a[s][s])
            if any(a[i][s] for i in range(s + 1, m)):
                i = min((i for i in range(s + 1, m) if a[i][s]), key=lambda i: abs(a[i][s]))
                a[s], a[i] = a[i], a[s]
                continue
            for j in range(s + 1, n):
                if a[s][j]:
                    col_op(j, s, a[s][j] // a[s][s])
            if any(a[s][j] for j in range(s + 1, n)):
                j = min((j for j in range(s + 1, n) if a[s][j]), key=lambda j: abs(a[s][j]))
                swap_cols(s, j)
                continue
            bad = None
            for i in range(s + 1, m):
                for j in range(s + 1, n):
                    if a[i][j] % a[s][s]:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_op(s, bad, -1)  # pull the offending row up and keep reducing
        if a[s][s] < 0:
            a[s] = [-x for x in a[s]]
        s += 1
    return [a[i][i] for i in range(min(m, n)) if a[i][i]]


def _sparse_unit_reduce(entries: Entries, pivot_columns: Optional[list[int]] = None):
    """Eliminate with +-1 pivots in Markowitz order (Dumas, Saunders and
    Villard 2001): pop the shortest live row off a heap and pivot on its unit
    entry with the fewest column entries.  Only rows a pivot changes are
    pushed again, and only while they hold a unit; stale heap entries are
    skipped.  Returns the count of unit pivots and the leftover entries (to
    finish densely), and appends each pivot's column to `pivot_columns` when
    given.  The entries are read once into rows and columns, so a caller
    that streams them (as `_invariant_factors` streams the peel's core)
    holds no copy while the elimination runs.

    The live entries are counted: loading reads at most SNF_ENTRY_BUDGET + 1
    nonzero entries and refuses, before any pivot, when it holds more than
    the budget; then each fill adds one, each cancellation and each entry of
    a removed pivot row takes one away.  After every pivot the count is held
    against SNF_ENTRY_BUDGET, and crossing it raises BudgetError with the
    pivots done and the entries live."""
    import heapq  # its C part is an extension library; load it only to reduce

    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    nonzero = filter(itemgetter(1), entries.items() if isinstance(entries, dict) else entries)
    for (i, j), val in islice(nonzero, SNF_ENTRY_BUDGET + 1):
        row = rows.get(i)
        if row is None:
            row = rows[i] = {}
        row[j] = val
        cols.setdefault(j, set()).add(i)
    live = sum(map(len, rows.values()))
    if live > SNF_ENTRY_BUDGET:
        raise BudgetError(f"sparse elimination refused while loading, before any pivot: "
                          f"{live} live entries exceed {SNF_ENTRY_BUDGET}")

    def has_unit(row):
        return any(v == 1 or v == -1 for v in row.values())

    heap = [(len(row), i) for i, row in rows.items() if has_unit(row)]
    heapq.heapify(heap)
    unit_pivots = 0
    while heap:
        size, pi = heapq.heappop(heap)
        prow = rows.get(pi)
        if prow is None or len(prow) != size or not has_unit(prow):
            continue
        _, pj = min((len(cols[j]), j) for j, v in prow.items() if v == 1 or v == -1)
        del rows[pi]
        live -= size
        pval = prow.pop(pj)
        for j in prow:
            cols[j].discard(pi)
        for i in cols.pop(pj):
            if i == pi:
                continue
            row = rows[i]
            before = len(row)  # fills and cancellations, counted per row
            factor = row.pop(pj) * pval  # pval in {1,-1}: division is multiplication
            for j, val in prow.items():
                val *= factor
                old = row.get(j)
                if old is None:
                    row[j] = -val
                    cols[j].add(i)
                elif old != val:
                    row[j] = old - val
                else:
                    del row[j]
                    cols[j].discard(i)
            live += len(row) - before
            if not row:
                del rows[i]
            elif has_unit(row):
                heapq.heappush(heap, (len(row), i))
        unit_pivots += 1
        if pivot_columns is not None:
            pivot_columns.append(pj)
        if live > SNF_ENTRY_BUDGET:
            raise BudgetError(f"sparse elimination refused after {unit_pivots} unit pivots: "
                              f"{live} live entries exceed {SNF_ENTRY_BUDGET}")
    leftover = {(i, j): v for i, row in rows.items() for j, v in row.items()}
    return unit_pivots, leftover


def _densify(entries: dict[tuple[int, int], int], row_ids, col_ids) -> list[list[int]]:
    """Dense matrix of the entries, rows and columns in the given id order."""
    ri = {r: k for k, r in enumerate(row_ids)}
    ci = {c: k for k, c in enumerate(col_ids)}
    dense = [[0] * len(ci) for _ in range(len(ri))]
    for (i, j), val in entries.items():
        dense[ri[i]][ci[j]] = val
    return dense


def _peel(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
          pivot_columns: list[int]) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Take every +-1 entry that is alone in its column or alone in its row
    as a pivot, in vectorised rounds, until none is left; returns the count
    of pivots and the core's rows, cols and vals, and appends each pivot's
    column to `pivot_columns`.

    Such a pivot needs no fill: alone in its column, its row clears the rest
    of its row by column operations that touch no other row; alone in its
    row, row operations clear its column and touch no other column.  Either
    way the Schur complement is the matrix with that row and column deleted,
    and the pivot contributes one invariant factor 1.  Each round counts the
    rows and columns, picks every such entry, keeps the first per row and
    then the first per column, and deletes their rows and columns at once:
    deletion only removes entries, so a pivot kept in a round stays alone
    after the others are deleted.  Values are never changed, so an object
    array of Python ints stays exact."""
    units = (vals == 1) | (vals == -1)
    peeled = 0
    while rows.size:
        alone = (np.bincount(rows)[rows] == 1) | (np.bincount(cols)[cols] == 1)
        picked = np.flatnonzero(alone & units)
        if not picked.size:
            break
        picked = np.sort(picked[np.unique(rows[picked], return_index=True)[1]])
        picked = picked[np.unique(cols[picked], return_index=True)[1]]
        dead_rows = np.zeros(rows.max() + 1, dtype=bool)
        dead_cols = np.zeros(cols.max() + 1, dtype=bool)
        dead_rows[rows[picked]] = dead_cols[cols[picked]] = True
        pivot_columns += cols[picked].tolist()
        peeled += picked.size
        keep = ~(dead_rows[rows] | dead_cols[cols])
        rows, cols, vals, units = rows[keep], cols[keep], vals[keep], units[keep]
    return peeled, rows, cols, vals


def _invariant_factors(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                       pivot_columns: list[int]) -> list[int]:
    """Nonzero invariant factors of the matrix with the given entries
    (distinct positions, nonzero values): the peel, then unit-pivot
    elimination of its core in Markowitz order, then dense elimination of
    what is left.  Every pivot's column is appended to `pivot_columns`."""
    peeled, rows, cols, vals = _peel(rows, cols, vals, pivot_columns)
    units, leftover = _sparse_unit_reduce(
        zip(zip(rows.tolist(), cols.tolist()), vals.tolist()), pivot_columns)
    rest = _dense_snf(_densify(
        leftover, sorted({i for i, _ in leftover}), sorted({j for _, j in leftover})))
    return [1] * (peeled + units) + rest


def smith_normal_form(matrix) -> list[int]:
    """Invariant factors d_1 | d_2 | ... of an integer matrix, whose entries
    are read as Python ints and kept exact (an object array) at any size."""
    entries = [(i, j, int(x)) for i, r in enumerate(matrix) for j, x in enumerate(r) if x]
    rows, cols, vals = zip(*entries) if entries else ((), (), ())
    return _invariant_factors(np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
                              np.array(vals, dtype=object), [])


# ---------------------------------------------------------------------------
# Simplicial complexes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimplicialComplex:
    """Simplices stored per dimension as sorted tuples of vertex indices."""

    simplices: dict[int, list[tuple[int, ...]]]

    def __post_init__(self) -> None:
        for d, simps in self.simplices.items():
            for s in simps:
                if len(s) != d + 1 or not all(map(lt, s, s[1:])):
                    raise ValueError(f"bad {d}-simplex {s}")
            if len(set(simps)) != len(simps):
                raise ValueError(f"duplicate {d}-simplices")

    @property
    def dimension(self) -> int:
        dims = [d for d, s in self.simplices.items() if s]
        return max(dims) if dims else -1

    def n_simplices(self, d: int) -> int:
        return len(self.simplices.get(d, []))

    def boundary_entries(self, d: int) -> dict[tuple[int, int], int]:
        """Sparse entries {(row, col): sign} of the boundary map C_d -> C_(d-1)."""
        rows, cols, signs = self.boundary_arrays(d, ())
        return dict(zip(zip(rows.tolist(), cols.tolist()), signs.tolist()))

    def _vertex_ranks(self, d: int) -> np.ndarray:
        """The d-simplices as rows of vertex ranks: each vertex label's
        position among the sorted labels of the 0-simplices."""
        labels = np.sort(np.array(self.simplices.get(0, []), dtype=np.int64).reshape(-1))
        table = np.array(self.simplices.get(d, []), dtype=np.int64).reshape(-1, d + 1)
        known = gfnum.member(labels, table).all(axis=1)
        if not known.all():
            raise ValueError(f"{d}-simplex {self.simplices[d][known.argmin()]} "
                             f"has a vertex that is no 0-simplex")
        return np.searchsorted(labels, table)

    def boundary_arrays(self, d: int, cleared: Collection[int]):
        """The entries of the boundary map C_d -> C_(d-1), d >= 1, without
        the rows in `cleared`: int64 rows, cols and signs, column by column.

        Faces are found by code: column i of the table of vertex ranks is
        dropped, the rest coded in base the vertex count, and each code
        searched among the sorted codes of the (d-1)-simplices; a missing
        face raises ValueError naming the simplex.  Refused with BudgetError
        before any array is built when the boundary's (d + 1) n_d entries
        exceed SNF_ENTRY_BUDGET."""
        count = self.n_simplices(d)
        if (d + 1) * count > SNF_ENTRY_BUDGET:
            raise BudgetError(f"the boundary d_{d} has {d + 1} x {count} = {(d + 1) * count} "
                              f"entries, more than {SNF_ENTRY_BUDGET}; refused before it is built")
        upper = self._vertex_ranks(d)
        w = gfnum.code_weights(self.n_simplices(0), d)
        lower = gfnum.codes(self._vertex_ranks(d - 1), w)
        order = np.argsort(lower)
        known = lower[order]
        rows = np.empty_like(upper)
        for i in range(d + 1):
            faces = gfnum.codes(np.delete(upper, i, axis=1), w)
            found = gfnum.member(known, faces)
            if not found.all():
                raise ValueError(f"{d}-simplex {self.simplices[d][found.argmin()]} "
                                 f"has a face that is no {d - 1}-simplex")
            rows[:, i] = order[np.searchsorted(known, faces)]
        drop = np.zeros(len(lower), dtype=bool)
        drop[list(cleared)] = True
        keep = ~drop[rows.ravel()]
        cols = np.repeat(np.arange(count, dtype=np.int64), d + 1)
        signs = np.tile(np.resize(np.array([1, -1], dtype=np.int64), d + 1), count)
        return rows.ravel()[keep], cols[keep], signs[keep]


def complex_from_simplices(simps: Iterable[Sequence[int]]) -> SimplicialComplex:
    """Close the given simplices downward and sort canonically."""
    by_dim: dict[int, set[tuple[int, ...]]] = {}
    stack = [tuple(sorted(set(s))) for s in simps]
    seen = set(stack)
    while stack:
        s = stack.pop()
        by_dim.setdefault(len(s) - 1, set()).add(s)
        if len(s) > 1:
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                if face not in seen:
                    seen.add(face)
                    stack.append(face)
    out = {d: sorted(v) for d, v in by_dim.items()}
    return SimplicialComplex(out)


def _component_count(vertices: Iterable, edges: Iterable[tuple]) -> int:
    """Connected components of the graph (vertices, edges), by union-find:
    each merge of two components takes one away from the vertex count."""
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = len(parent)
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            components -= 1
    return components


@dataclass(frozen=True, eq=False)
class HomologyProfile:
    """Reduced Betti numbers and torsion coefficients per degree.

    `complete` records whether the profile covers every degree in which the
    complex could possibly have homology; wedge detection refuses to certify
    anything from a partial profile.  Two complete profiles are equal when
    they agree in every degree, a degree beyond `max_degree` counting as
    zero; a partial profile equals only an identical one.
    """

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]
    max_degree: int
    empty: bool = False
    complete: bool = True

    def _content(self) -> tuple:
        if not self.complete:
            return self.betti, self.torsion, self.max_degree, self.empty, False
        degrees = list(zip(self.betti, self.torsion))
        while degrees and degrees[-1] == (0, ()):
            degrees.pop()
        return tuple(degrees), self.empty, True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HomologyProfile):
            return NotImplemented
        return self._content() == other._content()

    def __hash__(self) -> int:
        return hash(self._content())

    def is_wedge_of_spheres(self, d: int) -> bool:
        """Free homology concentrated in degree d.  The empty wedge (a point)
        counts, so a fully contractible profile passes for every d."""
        if self.empty or not self.complete:
            return False
        if any(t for t in self.torsion):
            return False
        return all(b == 0 for i, b in enumerate(self.betti) if i != d)

    def wedge_size(self, d: int) -> int:
        return self.betti[d] if d <= self.max_degree else 0

    def is_trivial(self) -> bool:
        return not self.empty and all(b == 0 for b in self.betti) and all(
            not t for t in self.torsion
        )


def reduced_homology(
    K: SimplicialComplex,
    max_degree: int,
) -> HomologyProfile:
    """Reduced integer homology in degrees <= max_degree via boundary SNF;
    the zeroth Betti number is cross-checked against a union-find count.

    Boundaries are reduced bottom-up in one loop, each cleared by the one
    below (Chen and Kerber's twist): the rows of d_(k+1) at the pivot columns
    J of d_k are dropped before it is reduced.  The pivots, in the order they
    were taken (the peel's, then the Markowitz core's), make d_k[I, J]
    upper triangular with +-1 on the diagonal after row operations, as each
    clears its column from every row still live; so d_k[I, J] is unimodular.
    As d_k d_(k+1) = 0, rows J of d_(k+1) are then integer combinations of
    its other rows, and dropping them keeps the row lattice, hence the rank
    and the invariant factors.  The loop starts from d_0, the augmentation
    C_0 -> Z (rank 1, which makes the homology reduced): its one row is all
    ones, so its unit pivot at vertex 0 makes d_0[I, J] = (1), and d_1 is
    reduced without row 0.  The peel then takes a spanning tree of the
    1-skeleton, the star of vertex 0 first and then breadth first.  The
    union-find cross-check reads the rank of this cleared d_1, which the
    same argument keeps equal to the rank of the whole.

    A boundary above the complex's dimension is zero and never built.  A
    graph (dimension 1) is not eliminated at all: every invariant factor of
    d_1 is 1, so its rank is the vertex count minus the union-find
    component count."""
    dimension = K.dimension
    complete = max_degree >= dimension
    if K.n_simplices(0) == 0:
        return HomologyProfile(
            betti=(0,) * (max_degree + 1),
            torsion=((),) * (max_degree + 1),
            max_degree=max_degree,
            empty=True,
            complete=complete,
        )
    components = _component_count((s[0] for s in K.simplices.get(0, [])),
                                  K.simplices.get(1, []))
    # Rank and torsion of d_0, ..., d_(max_degree + 1); the augmentation d_0
    # has rank 1 and its pivot column 0.
    ranks = [1] + [0] * (max_degree + 1)
    torsion: list[tuple[int, ...]] = [()] * (max_degree + 2)
    cleared = [0]
    for d in range(1, min(max_degree + 1, dimension) + 1):
        if dimension == 1:  # a graph: d_1 has only unit invariant factors
            ranks[1] = K.n_simplices(0) - components
            break
        pivots: list[int] = []
        factors = _invariant_factors(*K.boundary_arrays(d, cleared), pivots)
        ranks[d], torsion[d], cleared = len(factors), tuple(f for f in factors if f != 1), pivots
        # SNF cross-check of the union-find count.
        if d == 1 and K.n_simplices(0) - ranks[1] != components:
            raise AssertionError(
                f"component count mismatch: union-find gives {components}, "
                f"the boundary rank gives {K.n_simplices(0) - ranks[1]}"
            )
    betti = tuple(K.n_simplices(i) - ranks[i] - ranks[i + 1] for i in range(max_degree + 1))
    return HomologyProfile(betti, tuple(torsion[1:]), max_degree, complete=complete)


# ---------------------------------------------------------------------------
# Posets and order complexes
# ---------------------------------------------------------------------------


@dataclass
class Poset:
    """Finite poset: elements plus the full strict-order relation, kept both
    ways.

    `above[i]` is the set of indices strictly greater than element i, and
    `below[i]`, derived from `above` once, the set strictly smaller.  The
    relation must already be transitive; `validate` checks irreflexivity,
    antisymmetry, and transitivity on demand.

    Homology is answered for any index set and kept twice: per index set,
    and per shape.  A subposet's shape is its size and its relation with
    each index renumbered by its rank in the set; two index sets of one shape
    span isomorphic subposets (renumbering by rank is the isomorphism), whose
    order complexes are isomorphic and have one profile.  So a profile is
    computed once per shape, however many index sets share it.  A shape
    without a chain of three elements has height at most one: its order
    complex is its comparability graph, whose profile is read off the rank
    pairs by union-find.  Only a shape holding a three-chain has its order
    complex built and homologized.
    """

    elements: list
    above: list[frozenset[int]]
    below: list[frozenset[int]] = field(init=False, repr=False)
    _profiles: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _shapes: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        self.above = [frozenset(a) for a in self.above]
        below: list[list[int]] = [[] for _ in self.above]
        for i, up in enumerate(self.above):
            for j in up:
                below[j].append(i)
        self.below = [frozenset(b) for b in below]

    def __len__(self) -> int:
        return len(self.elements)

    def less(self, i: int, j: int) -> bool:
        return j in self.above[i]

    def comparable(self, i: int, j: int) -> bool:
        return j in self.above[i] or j in self.below[i]

    def validate(self) -> None:
        for i, up in enumerate(self.above):
            if i in up:
                raise ValueError(f"order is not irreflexive at {i}")
            for j in up:
                if i in self.above[j]:
                    raise ValueError(f"2-cycle between {i} and {j}")
                if not self.above[j] <= up:
                    raise ValueError(f"order not transitive at {i} < {j}")

    def order_complex(self) -> SimplicialComplex:
        """Chains of the poset as simplices (vertex = element index)."""
        return self._chains(frozenset(range(len(self))))

    def _chains(self, indices: frozenset[int]) -> SimplicialComplex:
        """Chains inside the index set, walked through `above[i] & indices`;
        vertices keep their indices, so no restricted copy is made."""
        by_dim: dict[int, list[tuple[int, ...]]] = {0: [(i,) for i in sorted(indices)]}
        frontier = by_dim[0]
        while frontier:
            frontier = [chain + (j,) for chain in frontier
                        for j in self.above[chain[-1]] & indices]
            if frontier:
                by_dim[len(by_dim)] = sorted(tuple(sorted(c)) for c in frontier)
        return SimplicialComplex(by_dim)

    def link(self, i: int) -> list[int]:
        """Indices comparable with element i (the open star boundary)."""
        return sorted(self.above[i] | self.below[i])

    def _shape(self, indices: frozenset[int]) -> tuple[tuple, bool]:
        """The subposet's size and its relation as sorted pairs of ranks in
        the index set (equal shapes mean isomorphic subposets), and whether
        the set holds a chain of three: some element both above and below
        others in it."""
        rank = {i: r for r, i in enumerate(sorted(indices))}
        above = self.above
        pairs, lower, upper = [], set(), set()
        for i in rank:
            ups = above[i] & indices
            if ups:
                lower.add(i)
                upper |= ups
                pairs += [(rank[i], rank[j]) for j in ups]
        pairs.sort()
        return (len(rank), tuple(pairs)), not lower.isdisjoint(upper)

    def homology(self, indices: Optional[Iterable[int]] = None) -> HomologyProfile:
        """Reduced homology of the subposet on `indices` (all of it by
        default), in every degree up to its top chain dimension.  Each shape's
        profile is computed once and kept, and so is each index set's.

        Without a three-chain the order complex is the comparability graph
        on the rank pairs: reduced H_0 has rank components - 1, H_1 is free
        of rank edges - vertices + components, and the top degree is 1 when
        there are edges.  Otherwise the chains are built and homologized."""
        chosen = frozenset(range(len(self)) if indices is None else indices)
        profile = self._profiles.get(chosen)
        if profile is None:
            shape, three_chain = self._shape(chosen)
            profile = self._shapes.get(shape)
            if profile is None:
                size, pairs = shape
                if three_chain:
                    K = self._chains(chosen)
                    profile = reduced_homology(K, max(K.dimension, 0))
                elif not size:
                    profile = HomologyProfile((0,), ((),), 0, empty=True)
                else:
                    components = _component_count(range(size), pairs)
                    top = 1 if pairs else 0
                    betti = (components - 1, len(pairs) - size + components)
                    profile = HomologyProfile(betti[:top + 1], ((),) * (top + 1), top)
                self._shapes[shape] = profile
            self._profiles[chosen] = profile
        return profile


def poset_from_less(elements: Sequence, less: Callable) -> Poset:
    n = len(elements)
    above = []
    for i in range(n):
        above.append([j for j in range(n) if i != j and less(elements[i], elements[j])])
    p = Poset(list(elements), above)
    p.validate()
    return p


def poset_from_frames(frames: Sequence[frozenset]) -> Poset:
    """Containment order on a family of finite sets (containment is already
    transitive and irreflexive on distinct sets, so no validation pass)."""
    keys = [tuple(sorted(f)) for f in frames]
    index = {key: i for i, key in enumerate(keys)}
    if len(index) != len(frames):
        raise ValueError("duplicate frames")
    above: list[list[int]] = [[] for _ in frames]
    for j, key in enumerate(keys):
        for k in range(1, len(key)):
            for sub in combinations(key, k):  # sorted, as the keys are
                i = index.get(sub)
                if i is not None:
                    above[i].append(j)
    return Poset(list(frames), above)


# ---------------------------------------------------------------------------
# Certificates for the three poset lemmas
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    failures: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.passed


def closure_deformation_check(P: Poset, f: Mapping[int, int] | Sequence[int]) -> CheckResult:
    """Verify that f, a map from a set of P's indices into that set (a
    sequence maps its positions), is monotone and deflationary, and that the
    subposets on its domain and on its image have equal homology profiles
    (the testable consequence of the deformation lemma)."""
    f = dict(f) if isinstance(f, Mapping) else dict(enumerate(f))
    domain = frozenset(f)
    failures = []
    for i, fi in f.items():
        if fi not in domain:
            failures.append(f"f({i}) = {fi} leaves the domain")
        elif fi != i and not P.less(fi, i):
            failures.append(f"f({i}) = {fi} is not <= {i}")
    if failures:
        return CheckResult("closure-deformation", False, failures[:10])
    for i in domain:
        for j in P.above[i] & domain:
            if f[i] != f[j] and not P.less(f[i], f[j]):
                failures.append(f"monotonicity fails on {i} < {j}")
    if failures:
        return CheckResult("closure-deformation", False, failures[:10])
    prof_full = P.homology(domain)
    prof_image = P.homology(f.values())
    ok = prof_full == prof_image
    return CheckResult(
        "closure-deformation",
        ok,
        [] if ok else [f"profiles differ: {prof_full} vs {prof_image}"],
        {"full": prof_full, "image": prof_image},
    )


def join_betti_prediction(by: HomologyProfile, bz: HomologyProfile, max_degree: int):
    """Reduced Betti numbers of |Y| * |Z|: b_k = sum_{i+j=k-1} b_i(Y) b_j(Z),
    where degree -1 contributes 1 exactly for the empty complex."""

    def coeff(prof: HomologyProfile, i: int) -> int:
        if i == -1:
            return 1 if prof.empty else 0
        if prof.empty or i > prof.max_degree:
            return 0
        return prof.betti[i]

    out = []
    for k in range(max_degree + 1):
        total = 0
        for i in range(-1, k + 1):
            j = k - 1 - i
            total += coeff(by, i) * coeff(bz, j)
        out.append(total)
    return tuple(out)


def poset_join_check(P: Poset, y_indices: Iterable[int],
                     z_indices: Iterable[int]) -> CheckResult:
    """Hypothesis: Y and Z are disjoint index sets of P with every y < z.
    Conclusion checked: the homology of the subposet on Y ∪ Z matches the
    join prediction from |Y| and |Z| (rational Betti comparison; integral
    equality asserted when both factors are torsion-free)."""
    failures = []
    yset, zset = frozenset(y_indices), frozenset(z_indices)
    if yset & zset:
        failures.append("Y and Z are not disjoint")
    else:
        for y in yset:
            if not zset <= P.above[y]:
                z = min(zset - P.above[y])
                failures.append(f"hypothesis fails: {y} not < {z}")
                break
    if failures:
        return CheckResult("poset-join", False, failures)
    prof_p = P.homology(yset | zset)
    py = P.homology(yset)
    pz = P.homology(zset)
    predicted = join_betti_prediction(py, pz, prof_p.max_degree)
    ok = prof_p.betti == predicted
    torsion_free = all(not t for t in py.torsion) and all(not t for t in pz.torsion)
    if torsion_free and ok:
        ok = all(not t for t in prof_p.torsion)
    return CheckResult(
        "poset-join",
        ok,
        [] if ok else [f"betti {prof_p.betti} != predicted {predicted}"],
        {"profile": prof_p, "predicted": predicted, "torsion_free_factors": torsion_free},
    )


def morse_lemma_check(
    X: Poset,
    x0_indices: Sequence[int],
    layers: Sequence[Sequence[int]],
    d: int,
) -> CheckResult:
    """Verify the discrete-Morse hypotheses on a partition X0, L1, ..., Ln:

    (i)  |X0| is a wedge of d-spheres,
    (ii) each layer is an antichain,
    (iii) for x in L_i the link of x inside X0 ∪ L1 ∪ ... ∪ L_(i-1) is a
         wedge of (d-1)-spheres, for every x.

    When the hypotheses hold, the certificate asserts the wedge profile for
    |X| and cross-checks it by direct homology."""
    failures = []
    details: dict = {"clauses": {}}
    cover = set(x0_indices)
    for layer in layers:
        cover |= set(layer)
    if cover != set(range(len(X))):
        return CheckResult("morse-lemma", False, ["parts do not cover the poset"])
    prof0 = X.homology(x0_indices)
    if not prof0.is_wedge_of_spheres(d):
        failures.append(f"clause (i): |X0| profile {prof0} is not a wedge of S^{d}")
    details["clauses"]["x0_profile"] = prof0

    prev = set(x0_indices)
    for li, layer in enumerate(layers, start=1):
        members = set(layer)
        layer = sorted(members)
        # an antichain: no member lies below another member
        for x in layer:
            higher = X.above[x] & members
            if higher:
                failures.append(
                    f"clause (ii): comparable pair in L{li}: "
                    f"{X.elements[x]} < {X.elements[min(higher)]}"
                )
                break
        for x in layer:
            link = (X.above[x] | X.below[x]) & prev
            prof = X.homology(link) if link else None
            if prof is None or not prof.is_wedge_of_spheres(d - 1):
                failures.append(
                    f"clause (iii): link of {X.elements[x]} in layer L{li} "
                    f"is not a wedge of S^{d-1} (profile {prof})"
                )
                if len(failures) > 10:
                    break
        prev |= members
    passed = not failures
    if passed:
        full = X.homology()
        details["direct_cross_check"] = full
        passed = full.is_wedge_of_spheres(d)
        if not passed:
            failures.append(f"direct homology {full} contradicts the certificate")
    return CheckResult("morse-lemma", passed, failures, details)


# ---------------------------------------------------------------------------
# Test oracle: invariant factors via gcds of minors (small matrices only)
# ---------------------------------------------------------------------------


def invariant_factors_by_minors(matrix) -> list[int]:
    """d_1 ... d_r with d_1 ... d_k = gcd of all k x k minors; exponential in
    the matrix size, used only to cross-check the elimination code."""
    rows = [list(map(int, r)) for r in matrix]
    m = len(rows)
    n = len(rows[0]) if m else 0

    def _det_small(mat):
        if not mat:
            return 1
        det = 0
        for j in range(len(mat)):
            sign = -1 if j % 2 else 1
            det += sign * mat[0][j] * _det_small([r[:j] + r[j + 1:] for r in mat[1:]])
        return det

    gcds = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for ri in combinations(range(m), k):
            for ci in combinations(range(n), k):
                g = gcd(g, _det_small([[rows[i][j] for j in ci] for i in ri]))
        if g == 0:
            break
        gcds.append(g)
    factors = []
    prev = 1
    for g in gcds:
        factors.append(g // prev)
        prev = g
    return factors
