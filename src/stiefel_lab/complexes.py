"""Simplicial complexes, posets, and integer homology via Smith normal form.

Homology is always computed over Z, in the reduced convention (the zeroth
Betti number counts components minus one).  "k-connected" throughout this
package means that reduced homology vanishes in degrees <= k; the fundamental
group is never computed, and every certificate that depends on sphericity in
degrees >= 2 says so.

Every matrix takes one path, as numpy arrays of its entries: first the peel,
vectorised rounds of +-1 pivots that are alone in their row or column and so
create no fill (the coreductions of Mrozek and Batko); then rounds of
independent +-1 pivots on the core the peel leaves, each chosen in Markowitz
order and eliminated by one vectorised Schur complement update; then dense
elimination of the leftover without a +-1 entry.  The test suite
cross-checks the path against dense elimination of the whole and against
gcds of minors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations
from math import gcd
from typing import Callable, Collection, Iterable, Mapping, Optional, Sequence

import numpy as np

from stiefel_lab import gfnum
from stiefel_lab.rings import BudgetError

# Routes nothing here.  The benchmark's traced runs name their SNF spans
# "dense" or "sparse" by this column count, and need both names to occur.
DENSE_COLUMN_CUTOFF = 2000
# Entries a boundary may have, priced as (d + 1) n_d before its arrays are
# built, and live entries plus priced fill a round of unit pivots may hold.
# The arrays and the peel took 38 bytes of peak RSS per entry on the d = 2
# boundary of X(F_3^7) (7,960,680 entries, peeled whole), so a boundary at
# the budget costs about 0.3 GB; the unit rounds took 84 and 92 bytes per
# entry of their largest round's live entries plus priced fill (204,480 and
# 203,160) on the cores of the cleared d = 2 boundaries of X(F_3^6) and
# X(F_7^4), so a round at the budget stands for about 0.75 GB.
SNF_ENTRY_BUDGET = 8_000_000


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


def _independent_pivots(rows: np.ndarray, cols: np.ndarray, i: np.ndarray, j: np.ndarray,
                        rank: np.ndarray) -> np.ndarray:
    """Positions of a maximal set of the candidates (i[k], j[k]) in which no
    chosen row holds an entry in another chosen column, so A[I, J] is
    diagonal: Luby's local minima (1986) under the distinct ranks `rank`.
    Each pass takes every live candidate ranked below all the live ones it
    meets (by an entry of its row in their column or of their row in its
    column) and drops those it meets, until none is live; it reads only the
    entries whose row and column hold a live candidate."""
    none = rank.size
    n_rows, n_cols = int(rows.max()) + 1, int(cols.max()) + 1
    live, near, taken = np.arange(none), np.arange(rows.size), []
    while live.size:
        row_min, col_min = np.full(n_rows, none), np.full(n_cols, none)
        np.minimum.at(row_min, i[live], rank[live])
        np.minimum.at(col_min, j[live], rank[live])
        near = near[(row_min[rows[near]] < none) & (col_min[cols[near]] < none)]
        r, c = rows[near], cols[near]
        via_row, via_col = np.full(n_rows, none), np.full(n_cols, none)
        np.minimum.at(via_row, r, col_min[c])
        np.minimum.at(via_col, c, row_min[r])
        own = rank[live]
        won = live[(own == via_row[i[live]]) & (own == via_col[j[live]])]
        taken.append(won)
        won_rows, won_cols = np.zeros(n_rows, dtype=bool), np.zeros(n_cols, dtype=bool)
        won_rows[i[won]] = won_cols[j[won]] = True
        out_rows, out_cols = np.zeros(n_rows, dtype=bool), np.zeros(n_cols, dtype=bool)
        out_rows[r[won_cols[c]]] = out_cols[c[won_rows[r]]] = True
        live = live[~(out_rows[i[live]] | out_cols[j[live]])]
    return np.concatenate(taken)


def _unit_rounds(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                 pivot_columns: list[int]) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Eliminate +-1 pivots in rounds until no +-1 entry is left; returns
    the count of pivots and the leftover's rows, cols and vals, and appends
    each round's pivot columns to `pivot_columns`.

    A round offers each row's +-1 entry with the fewest column entries (ties
    to the least column), ranked by the Markowitz score (r_i - 1)(c_j - 1)
    of Dumas, Saunders and Villard (2001) (ties to the least row), and takes
    `_independent_pivots` of them: A[I, J] = diag(d), d_k = +-1, or
    AssertionError.  One Schur complement update clears every pivot column:
    each entry a at (r, j_k) outside the pivot rows adds -a d_k times pivot
    row i_k, by one ragged gather of the pivot rows, one sort of the codes
    r C + c, one `np.add.reduceat` and one filter of the zero sums.

    Exact: values stay int64 while M + L M^2 < 2^62 (M the largest |value|,
    L the longest row: an entry gains one product per entry of its row in a
    pivot column), else the round runs on Python ints in an object array.
    Priced: more than SNF_ENTRY_BUDGET entries are refused before any pivot,
    and a round whose fill (its gathered pivot-row entries) would take the
    live entries past the budget, before its arrays are built."""
    live = rows.size
    if live > SNF_ENTRY_BUDGET:
        raise BudgetError(f"sparse elimination refused before any pivot: "
                          f"{live} live entries exceed {SNF_ENTRY_BUDGET}")
    taken = 0
    while True:
        units = np.flatnonzero((vals == 1) | (vals == -1))
        if not units.size:
            return taken, rows, cols, vals
        row_len, col_len = np.bincount(rows), np.bincount(cols)
        units = units[np.lexsort((cols[units], col_len[cols[units]], rows[units]))]
        units = units[np.diff(rows[units], prepend=-1) != 0]
        i, j = rows[units], cols[units]
        rank = np.empty_like(units)
        rank[np.lexsort((i, (row_len[i] - 1) * (col_len[j] - 1)))] = np.arange(units.size)
        won = _independent_pivots(rows, cols, i, j, rank)
        units, i, j = units[won], i[won], j[won]
        at_row, at_col = np.full(row_len.size, -1), np.full(col_len.size, -1)
        at_row[i] = at_col[j] = np.arange(won.size)
        pr, pc = at_row[rows], at_col[cols]  # pivots that meet leave an entry with pr != pc
        if ((pr != pc) & (pr >= 0) & (pc >= 0)).any():
            raise AssertionError(f"the {won.size} pivots of a round do not make A[I, J] diagonal")
        src = np.flatnonzero((pr >= 0) & (pc < 0))
        src = src[np.argsort(pr[src])]
        ptr = np.searchsorted(pr[src], np.arange(won.size + 1))
        hit = np.flatnonzero((pr < 0) & (pc >= 0))
        k = pc[hit]
        fill = int((ptr[k + 1] - ptr[k]).sum())
        if live + fill > SNF_ENTRY_BUDGET:
            raise BudgetError(f"sparse elimination refused after {taken} unit pivots: {live} live "
                              f"entries and a priced fill of {fill} exceed {SNF_ENTRY_BUDGET}")
        big = int(np.abs(vals).max())
        vals = vals.astype(np.int64 if big + int(row_len.max()) * big * big < 2 ** 62 else object)
        owner, at = _neighbours(ptr, src, k)
        rest = (pr < 0) & (pc < 0)
        key = np.concatenate([rows[rest] * col_len.size + cols[rest],
                              rows[hit[owner]] * col_len.size + cols[at]])
        order = np.argsort(key)
        key = key[order]
        first = np.flatnonzero(np.diff(key, prepend=-1))
        added = -(vals[hit] * vals[units[k]])[owner] * vals[at]
        sums = np.add.reduceat(np.concatenate([vals[rest], added])[order], first)
        nonzero = sums != 0
        rows, cols = np.divmod(key[first[nonzero]], col_len.size)
        vals = sums[nonzero]
        pivot_columns += j.tolist()
        taken += won.size
        live = rows.size


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
    (distinct positions, nonzero values): the peel, then rounds of unit
    pivots on its core, then dense elimination of what is left.  Every
    pivot's column is appended to `pivot_columns`."""
    peeled, rows, cols, vals = _peel(rows, cols, vals, pivot_columns)
    units, rows, cols, vals = _unit_rounds(rows, cols, vals, pivot_columns)
    (_, r), (_, c) = gfnum.distinct(rows), gfnum.distinct(cols)
    dense = np.zeros((r.max(initial=-1) + 1, c.max(initial=-1) + 1), dtype=vals.dtype)
    dense[r, c] = vals
    return [1] * (peeled + units) + _dense_snf(dense.tolist())


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


def _ascending(table: np.ndarray) -> np.ndarray:
    """Whether each row of the table comes strictly after the row before it
    in lexicographic order, one flag per row after the first; read column
    by column from the last, so no copy of the table is made."""
    after = np.zeros(max(len(table) - 1, 0), dtype=bool)
    for col in table.T[::-1]:
        after = (col[1:] > col[:-1]) | ((col[1:] == col[:-1]) & after)
    return after


@dataclass(frozen=True)
class SimplicialComplex:
    """Simplices stored per dimension as sorted tuples of vertex indices,
    each level also read once into an int64 table, checked there (the first
    simplex of the wrong length or order is named; sorted rows that do not
    strictly ascend are duplicates) and kept for `_vertex_ranks`."""

    simplices: dict[int, list[tuple[int, ...]]]
    _levels: dict[int, np.ndarray] = field(init=False, repr=False, compare=False,
                                           default_factory=dict)

    def __post_init__(self) -> None:
        for d, simps in self.simplices.items():
            wrong = np.flatnonzero(np.fromiter(map(len, simps), np.int64, len(simps)) != d + 1)
            head = simps[:wrong[0]] if wrong.size else simps
            table = np.fromiter(chain.from_iterable(head), np.int64,
                                (d + 1) * len(head)).reshape(-1, d + 1)
            bad = np.flatnonzero((table[:, 1:] <= table[:, :-1]).any(axis=1))
            if bad.size or wrong.size:
                raise ValueError(f"bad {d}-simplex {simps[bad[0] if bad.size else wrong[0]]}")
            if not (_ascending(table).all() or _ascending(table[np.lexsort(table.T[::-1])]).all()):
                raise ValueError(f"duplicate {d}-simplices")
            self._levels[d] = table

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
        position among the sorted labels of the 0-simplices, found by one
        binary search and checked to be that label."""
        labels = np.sort(self._levels.get(0, np.zeros(0, dtype=np.int64)).reshape(-1))
        table = self._levels.get(d, np.zeros((0, d + 1), dtype=np.int64))
        ranks = np.searchsorted(labels, table)
        known = ((ranks < labels.size) & (np.append(labels, 0)[ranks] == table)).all(axis=1)
        if not known.all():
            raise ValueError(f"{d}-simplex {self.simplices[d][known.argmin()]} "
                             f"has a vertex that is no 0-simplex")
        return ranks

    def price_boundary(self, d: int) -> int:
        """The count of d-simplices, refused with BudgetError when the
        (d + 1) n_d entries of the boundary d_d exceed SNF_ENTRY_BUDGET."""
        count = self.n_simplices(d)
        if (d + 1) * count > SNF_ENTRY_BUDGET:
            raise BudgetError(f"the boundary d_{d} has {d + 1} x {count} = {(d + 1) * count} "
                              f"entries, more than {SNF_ENTRY_BUDGET}; refused before it is built")
        return count

    def boundary_arrays(self, d: int, cleared: Collection[int]):
        """The entries of the boundary map C_d -> C_(d-1), d >= 1, without
        the rows in `cleared`: int64 rows, cols and signs, column by column.

        Faces are found by code: column i of the table of vertex ranks is
        dropped, the rest coded in base the vertex count, and each code
        searched among the sorted codes of the (d-1)-simplices; a missing
        face raises ValueError naming the simplex.  Refused with BudgetError
        before any array is built when the boundary's (d + 1) n_d entries
        exceed SNF_ENTRY_BUDGET."""
        count = self.price_boundary(d)
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
    the zeroth Betti number is cross-checked against the component count of
    `gfnum.component_labels` on the 1-skeleton.

    Boundaries are reduced bottom-up in one loop, each cleared by the one
    below (Chen and Kerber's twist): the rows of d_(k+1) at the pivot columns
    J of d_k are dropped before it is reduced.  Each pivot, once taken,
    leaves its column free of every other live row: the peel finds it alone
    in its column, or alone in its row and adds multiples of that row to the
    others; a unit round adds multiples of its pivot rows to clear all its
    pivot columns at once, and inside a round no pivot's row meets another
    pivot's column, so the round's block of d_k[I, J] is diagonal with +-1
    entries.  With the pivots in the order they were appended, round after
    round, these unimodular row operations make d_k[I, J] upper triangular
    with +-1 on the diagonal; so d_k[I, J] is unimodular.  As d_k d_(k+1) =
    0, rows J of d_(k+1) are then integer combinations of its other rows,
    and dropping them keeps the row lattice, hence the rank and the
    invariant factors.  The loop starts from d_0, the augmentation
    C_0 -> Z (rank 1, which makes the homology reduced): its one row is all
    ones, so its unit pivot at vertex 0 makes d_0[I, J] = (1), and d_1 is
    reduced without row 0.  The peel then takes a spanning tree of the
    1-skeleton, the star of vertex 0 first and then breadth first.  The
    component cross-check reads the rank of this cleared d_1, which the
    same argument keeps equal to the rank of the whole.

    A boundary above the complex's dimension is zero and never built.  A
    graph (dimension 1) is not eliminated at all: every invariant factor of
    d_1 is 1, so its rank is the vertex count minus the component count.
    Every boundary to be reduced is priced before the first is built, so a
    refusal wastes no elimination."""
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
    # Rank and torsion of d_0, ..., d_(max_degree + 1); the augmentation d_0
    # has rank 1 and its pivot column 0.
    ranks = [1] + [0] * (max_degree + 1)
    torsion: list[tuple[int, ...]] = [()] * (max_degree + 2)
    cleared = [0]
    top = min(max_degree + 1, dimension)
    reduced = range(2 if dimension == 1 else 1, top + 1)  # a graph's d_1 is not eliminated
    for d in reduced:
        K.price_boundary(d)
    for d in reduced:
        pivots: list[int] = []
        factors = _invariant_factors(*K.boundary_arrays(d, cleared), pivots)
        ranks[d], torsion[d], cleared = len(factors), tuple(f for f in factors if f != 1), pivots
    if top >= 1:
        edges = K._vertex_ranks(1)
        labels = gfnum.component_labels(K.n_simplices(0), edges[:, 0], edges[:, 1])
        components = int(np.count_nonzero(labels == np.arange(len(labels))))
        if dimension == 1:  # a graph: d_1 has only unit invariant factors
            ranks[1] = K.n_simplices(0) - components
        elif K.n_simplices(0) - ranks[1] != components:  # SNF cross-check of the count
            raise AssertionError(
                f"component count mismatch: the labelling gives {components}, "
                f"the boundary rank gives {K.n_simplices(0) - ranks[1]}"
            )
    betti = tuple(K.n_simplices(i) - ranks[i] - ranks[i + 1] for i in range(max_degree + 1))
    return HomologyProfile(betti, tuple(torsion[1:]), max_degree, complete=complete)


# ---------------------------------------------------------------------------
# Posets and order complexes
# ---------------------------------------------------------------------------


def _neighbours(ptr: np.ndarray, data: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries of the CSR rows `rows` of (ptr, data), all at once: for
    each entry, the position in `rows` of its row, and the entry."""
    starts = ptr[rows]
    counts = ptr[rows + 1] - starts
    owner = np.repeat(np.arange(len(rows)), counts)
    shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return owner, data[np.arange(len(owner)) + shift]


class _Rows:
    """Row i of a CSR relation, read as a frozenset of element indices."""

    def __init__(self, ptr: np.ndarray, data: np.ndarray) -> None:
        self.ptr, self.data = ptr, data

    def __getitem__(self, i: int) -> frozenset[int]:
        return frozenset(self.data[self.ptr[i]:self.ptr[i + 1]].tolist())


def _index_pairs(index_sets: Sequence[Collection[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Index sets as the (set, member) pairs that `Poset.profiles` takes."""
    sizes = [len(s) for s in index_sets]
    members = np.fromiter(chain.from_iterable(index_sets), np.int64, sum(sizes))
    return np.repeat(np.arange(len(sizes)), sizes), members


@dataclass(eq=False)
class Poset:
    """Finite poset: elements plus the strict order as int64 arrays of the
    pairs lo[k] < hi[k], sorted by (lo, hi), with their codes lo * len + hi.

    Sorted so, `hi` is the CSR view of the order upwards: the elements above
    i are one slice of it.  The pairs sorted by (hi, lo) give the CSR view
    downwards.  `above[i]` and `below[i]` read those slices as frozensets.
    The relation must already be transitive; `validate` checks
    irreflexivity, antisymmetry and transitivity on demand.

    `profiles` is the one homology kernel: the reduced homology of many
    index sets at once, given as (set, member) pairs.  An index set without
    a chain of three elements has height at most one, so its order complex
    is its comparability graph, and its profile is read off its vertex,
    edge and component counts.  Only an index set holding a three-chain has
    its order complex built and homologized, once per shape: its size and
    its pairs renumbered by rank in the set.  Index sets of one shape span
    isomorphic subposets, whose order complexes share one profile.
    `homology` asks for one index set, and keeps its profile.
    """

    elements: list
    lo: np.ndarray
    hi: np.ndarray
    above: _Rows = field(init=False, repr=False)
    below: _Rows = field(init=False, repr=False)
    _profiles: dict = field(init=False, repr=False, default_factory=dict)
    _shapes: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.elements)
        self._codes = gfnum.distinct(np.asarray(self.lo, np.int64) * n + np.asarray(self.hi, np.int64))[0]
        self.lo, self.hi = np.divmod(self._codes, max(n, 1))
        ends = np.arange(n + 1)
        self._up_ptr = np.searchsorted(self.lo, ends)
        down = np.argsort(self.hi, kind="stable")  # by (hi, lo), as the pairs sort by lo
        self._down, self._down_ptr = self.lo[down], np.searchsorted(self.hi[down], ends)
        self.above = _Rows(self._up_ptr, self.hi)
        self.below = _Rows(self._down_ptr, self._down)

    def __len__(self) -> int:
        return len(self.elements)

    def less(self, i, j):
        """Whether i < j; elementwise for int arrays."""
        return gfnum.member(self._codes, np.asarray(i) * len(self) + np.asarray(j))

    def comparable(self, i, j):
        return self.less(i, j) | self.less(j, i)

    def up(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """The elements above each of `rows`, as (position in rows, element)."""
        return _neighbours(self._up_ptr, self.hi, np.asarray(rows, dtype=np.int64))

    def down(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """The elements below each of `rows`, as (position in rows, element)."""
        return _neighbours(self._down_ptr, self._down, np.asarray(rows, dtype=np.int64))

    def validate(self) -> None:
        loops = self.lo == self.hi
        if loops.any():
            raise ValueError(f"order is not irreflexive at {self.lo[loops.argmax()]}")
        back = self.less(self.hi, self.lo)
        if back.any():
            raise ValueError(f"2-cycle between {self.lo[back.argmax()]} and {self.hi[back.argmax()]}")
        pair, top = self.up(self.hi)
        missing = ~self.less(self.lo[pair], top)
        if missing.any():
            k = pair[missing.argmax()]
            raise ValueError(f"order not transitive at {self.lo[k]} < {self.hi[k]}")

    def _inside(self, chosen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The pairs with both ends in the sorted index array `chosen`."""
        inside = gfnum.member(chosen, self.lo) & gfnum.member(chosen, self.hi)
        return self.lo[inside], self.hi[inside]

    def order_complex(self) -> SimplicialComplex:
        """Chains of the poset as simplices (vertex = element index)."""
        return self._chains(range(len(self)))

    def _chains(self, indices: Collection[int]) -> SimplicialComplex:
        """Chains inside the index set, each level the one below extended by
        every greater element of the set; vertices keep their indices, so no
        restricted copy is made."""
        chosen = np.array(sorted(indices), dtype=np.int64)
        lo, hi = self._inside(chosen)
        ptr = np.searchsorted(lo, np.arange(len(self) + 1))
        level = chosen[:, None]
        by_dim = {0: [(i,) for i in chosen.tolist()]}
        while True:
            owner, top = _neighbours(ptr, hi, level[:, -1])
            if not len(top):
                return SimplicialComplex(by_dim)
            level = np.column_stack([level[owner], top])
            by_dim[len(by_dim)] = sorted(map(tuple, np.sort(level, axis=1).tolist()))

    def link(self, i: int) -> list[int]:
        """Indices comparable with element i (the open star boundary)."""
        return sorted(self._down[self._down_ptr[i]:self._down_ptr[i + 1]].tolist()
                      + self.hi[self._up_ptr[i]:self._up_ptr[i + 1]].tolist())

    def _shape(self, indices: Collection[int]) -> tuple[tuple, bool]:
        """The subposet's size and its pairs renumbered by rank in the index
        set (equal shapes mean isomorphic subposets), and whether the set
        holds a chain of three: some element both above and below others in
        it."""
        chosen = np.array(sorted(indices), dtype=np.int64)
        lo, hi = (np.searchsorted(chosen, ends) for ends in self._inside(chosen))
        pairs = tuple(zip(lo.tolist(), hi.tolist()))
        return (len(chosen), pairs), bool(np.intersect1d(lo, hi).size)

    def profiles(self, sets: np.ndarray, members: np.ndarray, count: int) -> list[HomologyProfile]:
        """Reduced homology of `count` index sets at once, each up to its top
        chain dimension: set s holds the members paired with s (repeats count
        once); a set with no pair is empty.

        Each (set, member) pair is one vertex, keyed set * len + member.
        Edges come from looking up the keys of each member's smaller
        elements in one binary search.  The order is transitive, so a set
        holds a three-chain exactly when some member tops one edge and
        bottoms another.  `gfnum.component_labels` counts the components of
        every set at once.  Without a three-chain the order complex is the
        comparability graph: reduced H_0 has rank components - 1, H_1 is
        free of rank edges - vertices + components, and the top degree is 1
        when there are edges; equal graph profiles of one call are one
        object.  A three-chain set is homologized once per shape."""
        n = len(self)
        keys = gfnum.distinct(np.asarray(sets, np.int64) * n + np.asarray(members, np.int64))[0]
        owner, member = np.divmod(keys, max(n, 1))
        at, lower = self.down(member)
        want = owner[at] * n + lower
        pos = np.searchsorted(keys, want)
        found = keys.take(pos, mode="clip") == want
        top, bottom = at[found], pos[found]
        vertices = np.bincount(owner, minlength=count)
        edges = np.bincount(owner[top], minlength=count)
        labels = gfnum.component_labels(len(keys), top, bottom)
        components = np.bincount(owner[labels == np.arange(len(keys))], minlength=count)
        tops = np.zeros(len(keys), dtype=bool)
        tops[top] = True
        chained = np.zeros(count, dtype=bool)
        chained[owner[bottom[tops[bottom]]]] = True
        # one code per graph profile, from H_1's rank, the component count
        # (0 only for the empty set) and whether there are edges
        code = ((edges - vertices + components) * (n + 1) + components) * 2 + (edges > 0)
        kinds, kind_of = gfnum.distinct(code)
        made = []
        for kind in kinds.tolist():
            (h1, c), top_degree = divmod(kind // 2, n + 1), kind % 2
            made.append(HomologyProfile((c - 1, h1)[:top_degree + 1], ((),) * (top_degree + 1),
                                        top_degree) if c else
                        HomologyProfile((0,), ((),), 0, empty=True))
        out = [made[k] for k in kind_of.tolist()]
        for s in np.flatnonzero(chained).tolist():
            bounds = np.searchsorted(owner, [s, s + 1])
            chosen = member[bounds[0]:bounds[1]].tolist()
            shape, _ = self._shape(chosen)
            out[s] = self._shapes.get(shape)
            if out[s] is None:
                K = self._chains(chosen)
                out[s] = self._shapes[shape] = reduced_homology(K, max(K.dimension, 0))
        return out

    def homology(self, indices: Optional[Iterable[int]] = None) -> HomologyProfile:
        """Reduced homology of the subposet on `indices` (all of it by
        default): `profiles` of one index set, whose profile is kept."""
        chosen = frozenset(range(len(self)) if indices is None else indices)
        profile = self._profiles.get(chosen)
        if profile is None:
            members = np.fromiter(chosen, np.int64, len(chosen))
            profile = self._profiles[chosen] = self.profiles(np.zeros_like(members), members, 1)[0]
        return profile


def poset_from_less(elements: Sequence, less: Callable) -> Poset:
    n = len(elements)
    pairs = [(i, j) for i in range(n) for j in range(n)
             if i != j and less(elements[i], elements[j])]
    lo, hi = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    p = Poset(list(elements), lo, hi)
    p.validate()
    return p


def poset_from_frames(frames: Sequence[Collection[int]]) -> Poset:
    """Containment order on a family of distinct finite sets of ints
    (containment is already transitive and irreflexive on distinct sets, so
    no validation pass).

    A frame of k members is coded by the row of its sorted members, each
    shifted to a digit of at least 1, placed at the end of a row as wide as
    the largest frame and read in base one more than the largest digit, so
    distinct frames have distinct codes; `gfnum.code_weights` refuses a
    family whose codes would not fit in int64.  The pairs come from looking
    up the codes of every frame's 2^k - 2 proper subframes (its row with
    some digits dropped) among the sorted frame codes."""
    sizes = np.fromiter(map(len, frames), np.int64, len(frames))
    flat = np.fromiter(chain.from_iterable(frames), np.int64, int(sizes.sum()))
    starts = np.cumsum(sizes) - sizes
    low = int(flat.min(initial=0))
    width = int(sizes.max(initial=0))
    w = gfnum.code_weights(int(flat.max(initial=low)) - low + 2, width)
    codes = np.empty(len(frames), dtype=np.int64)
    rows_of = {}
    for k in np.flatnonzero(np.bincount(sizes)).tolist():
        at = np.flatnonzero(sizes == k)
        rows = np.sort(flat[starts[at, None] + np.arange(k)], axis=1) - low + 1
        codes[at], rows_of[k] = gfnum.codes(rows, w[width - k:]), (at, rows)
    order = np.argsort(codes)
    known = codes[order]
    if (known[1:] == known[:-1]).any():
        raise ValueError("duplicate frames")
    lo, hi = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for k, (at, rows) in rows_of.items():
        for size in range(1, k):
            for kept in combinations(range(k), size):
                sub = gfnum.codes(rows[:, list(kept)], w[width - size:])
                found = gfnum.member(known, sub)
                lo.append(order[np.searchsorted(known, sub[found])])
                hi.append(at[found])
    return Poset(list(frames), np.concatenate(lo), np.concatenate(hi))


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
    (the testable consequence of the deformation lemma).  Both hypotheses
    are tested on arrays, and their first ten failures reported in the order
    of f's items and of the sorted pairs of the domain."""
    f = dict(f) if isinstance(f, Mapping) else dict(enumerate(f))
    dom = np.fromiter(f, np.int64, len(f))
    img = np.fromiter(f.values(), np.int64, len(f))
    domain = np.sort(dom)
    leaves = ~gfnum.member(domain, img)
    bad = np.flatnonzero(leaves | ((img != dom) & ~P.less(img, dom)))[:10]
    failures = [f"f({i}) = {fi} leaves the domain" if out else f"f({i}) = {fi} is not <= {i}"
                for i, fi, out in zip(dom[bad].tolist(), img[bad].tolist(), leaves[bad].tolist())]
    if failures:
        return CheckResult("closure-deformation", False, failures)
    image_of = np.zeros(len(P), dtype=np.int64)
    image_of[dom] = img
    lo, hi = P._inside(domain)
    bad = np.flatnonzero((image_of[lo] != image_of[hi]) & ~P.less(image_of[lo], image_of[hi]))
    failures = [f"monotonicity fails on {i} < {j}"
                for i, j in zip(lo[bad[:10]].tolist(), hi[bad[:10]].tolist())]
    if failures:
        return CheckResult("closure-deformation", False, failures)
    prof_full, prof_image = P.profiles(np.repeat([0, 1], len(f)), np.concatenate([dom, img]), 2)
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
    y_pairs = _index_pairs([frozenset(y_indices)])
    z_pairs = _index_pairs([frozenset(z_indices)])
    return poset_join_checks(P, y_pairs, z_pairs, 1)[0]


def poset_join_checks(P: Poset, y_pairs: tuple[np.ndarray, np.ndarray],
                      z_pairs: tuple[np.ndarray, np.ndarray], count: int) -> list[CheckResult]:
    """`poset_join_check` for `count` splits at once, Y and Z given as
    (split, member) pairs.  The hypothesis counts, for each z, the members
    of its split's Y below it (expanding the few elements below each z, not
    the many above each y); a failure names the least y not below some z,
    and the least z not above it.  One `profiles` call answers Y ∪ Z, Y and
    Z of every split, and splits whose three profiles are the same objects
    share one CheckResult."""
    n = len(P)
    ykeys = gfnum.distinct(y_pairs[0] * n + y_pairs[1])[0]
    zkeys = gfnum.distinct(z_pairs[0] * n + z_pairs[1])[0]
    (ysplit, y), (zsplit, z) = np.divmod(ykeys, max(n, 1)), np.divmod(zkeys, max(n, 1))
    shared = np.zeros(count, dtype=bool)
    shared[ysplit[gfnum.member(zkeys, ykeys)]] = True
    owner, down = P.down(z)
    hits = np.bincount(owner[gfnum.member(ykeys, zsplit[owner] * n + down)], minlength=len(z))
    short = np.zeros(count, dtype=bool)
    short[zsplit[hits < np.bincount(ysplit, minlength=count)[zsplit]]] = True
    profs = P.profiles(np.concatenate([3 * ysplit, 3 * zsplit, 3 * ysplit + 1, 3 * zsplit + 2]),
                       np.concatenate([y, z, y, z]), 3 * count)
    keys = list(zip(map(id, profs[0::3]), map(id, profs[1::3]), map(id, profs[2::3])))
    judged = {key: _join_result(*profs[3 * s:3 * s + 3])
              for key, s in dict(zip(keys, range(count))).items()}
    out = [judged[key] for key in keys]
    for s in np.flatnonzero(shared).tolist():
        out[s] = CheckResult("poset-join", False, ["Y and Z are not disjoint"])
    for s in np.flatnonzero(short & ~shared).tolist():
        zset = set(z[zsplit == s].tolist())
        y0 = min(v for v in y[ysplit == s].tolist() if not zset <= P.above[v])
        out[s] = CheckResult("poset-join", False,
                             [f"hypothesis fails: {y0} not < {min(zset - P.above[y0])}"])
    return out


def _join_result(prof_p: HomologyProfile, py: HomologyProfile, pz: HomologyProfile) -> CheckResult:
    """The join check's conclusion from the profiles of Y ∪ Z, Y and Z."""
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
    |X| and cross-checks it by direct homology.  Each element counts in the
    first part that holds it, so the link of x in L_i is its neighbours whose
    part comes before L_i; X0, every link and X go to one `profiles` call."""
    n = len(X)
    parts = [np.asarray(part, dtype=np.int64).reshape(-1) for part in (x0_indices, *layers)]
    if not np.array_equal(gfnum.distinct(np.concatenate(parts))[0], np.arange(n)):
        return CheckResult("morse-lemma", False, ["parts do not cover the poset"])
    part_of = np.empty(n, dtype=np.int64)
    for i in range(len(parts) - 1, -1, -1):
        part_of[parts[i]] = i
    members = [gfnum.distinct(layer)[0] for layer in parts[1:]]
    xs = np.concatenate([np.zeros(0, dtype=np.int64), *members])
    level = np.repeat(np.arange(1, len(parts)), [len(m) for m in members])
    below, above = X.down(xs), X.up(xs)
    owner, y = np.concatenate([below[0], above[0]]), np.concatenate([below[1], above[1]])
    prev = part_of[y] < level[owner]
    profs = X.profiles(np.concatenate([np.zeros(len(parts[0]), np.int64), owner[prev] + 1,
                                       np.full(n, len(xs) + 1)]),
                       np.concatenate([parts[0], y[prev], np.arange(n)]), len(xs) + 2)
    failures = []
    details: dict = {"clauses": {}}
    prof0 = profs[0]
    if not prof0.is_wedge_of_spheres(d):
        failures.append(f"clause (i): |X0| profile {prof0} is not a wedge of S^{d}")
    details["clauses"]["x0_profile"] = prof0

    links = profs[1:-1]
    wedge = {key: prof.is_wedge_of_spheres(d - 1)
             for key, prof in dict(zip(map(id, links), links)).items()}
    bad = np.flatnonzero(~np.fromiter(map(wedge.__getitem__, map(id, links)), bool, len(links)))
    start = 0
    for li, layer in enumerate(members, start=1):
        inside = np.zeros(n, dtype=bool)
        inside[layer] = True
        # an antichain: no member lies below another member
        comparable = np.flatnonzero(inside[X.lo] & inside[X.hi])
        if comparable.size:
            c = comparable[0]
            failures.append(f"clause (ii): comparable pair in L{li}: "
                            f"{X.elements[X.lo[c]]} < {X.elements[X.hi[c]]}")
        for k in bad[(bad >= start) & (bad < start + len(layer))].tolist():
            prof = links[k]
            failures.append(
                f"clause (iii): link of {X.elements[layer[k - start]]} in layer L{li} "
                f"is not a wedge of S^{d-1} (profile {None if prof.empty else prof})"
            )
            if len(failures) > 10:
                break
        start += len(layer)
    passed = not failures
    if passed:
        full = profs[-1]
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
