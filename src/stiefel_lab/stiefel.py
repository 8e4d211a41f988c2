"""Stiefel complexes: frames of unit vectors, their skeleton posets, the
ordered (semi-simplicial) variant with its destabilization identification,
the Morse-filtration replay behind the connectivity certificates, and the
signed-permutation automorphism check over the integers.

The complex of a form q has the unit vectors as vertices and the pairwise-
orthogonal subsets as simplices, so it is the clique complex of the
orthogonality graph; all bulk work happens on numpy residue arrays and every
reported witness is re-verified through the exact Scalar layer.

Connectivity is always certified at the homology level (reduced homology
vanishing); the fundamental group is never computed.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Collection, Optional, Sequence

import numpy as np

from stiefel_lab import gfnum, isometry
from stiefel_lab.rings import (
    FINITE_FIELD,
    INTEGERS,
    BudgetError,
    RingDescriptor,
    RingError,
    integers,
)
from stiefel_lab.quadmod import (
    Frame,
    QuadraticModule,
    Vector,
    diagonal_module,
    euclidean,
    frame,
    intersect_complements,
    orthogonal_sum,
    polar,
    vec,
)
from stiefel_lab.isometry import frame_transport
from stiefel_lab.complexes import (
    CheckResult,
    Poset,
    SimplicialComplex,
    closure_deformation_check,
    morse_lemma_check,
    poset_from_frames,
    poset_join_check,
    reduced_homology,
)

SIMPLEX_BUDGET = 50_000_000
EXPLICIT_POSET_CAP = 200_000
PACKED_GRAPH_BYTES = 64 << 20  # F_3, n = 10: 19,764 vertices, 48.9 MB packed
GRAPH_CHUNK = 128
CLIQUE_CHUNK = 1 << 22  # mask bits unpacked at once by _cliques


# ---------------------------------------------------------------------------
# Unit vectors and the orthogonality graph
# ---------------------------------------------------------------------------


def unit_vectors(q: QuadraticModule) -> list[Vector]:
    """All vectors of value 1, canonically ordered: the unit sphere of a
    finite-field form, enumerated exhaustively, or the signed standard basis
    over Z."""
    rows = UnitSphere(q).vectors if q.ring.kind == FINITE_FIELD else _signed_basis(q)
    return [vec(q.ring, row) for row in rows.tolist()]


def _signed_basis(q: QuadraticModule) -> np.ndarray:
    """The unit vectors of a form over Z with the identity Gram matrix, as
    the rows -e_0, ..., -e_(n-1), e_(n-1), ..., e_0 (lexicographic order): a
    sum of integer squares is 1 exactly when one coordinate is +-1 and the
    rest vanish."""
    if q.ring.kind != INTEGERS:
        raise RingError(f"unit vectors are not enumerable over {q.ring.label()}")
    eye = np.eye(q.rank, dtype=np.int64)
    if not np.array_equal(np.array(q.gram_values, dtype=np.int64).reshape(eye.shape), eye):
        raise RingError("integer enumeration needs the identity Gram matrix")
    return np.concatenate([-eye, eye[::-1]])


class UnitSphere:
    """Vectors of value 1 of a finite-field form and their orthogonality
    graph, the workhorse for frame enumeration.

    `_orthogonal` is the one pairing kernel: with left = v_i 2G mod p, it
    sums left[:, k] V^T[k] over k in the narrowest unsigned dtype that holds
    n (p - 1)^2, so the sum is exact, and tests total // p * p == total.
    The graph is built from it once, on first use, as bit-packed rows: bit j
    of row i (word j // 64, bit j % 64) is set when vectors i and j are
    orthogonal.  The diagonal is clear, since B(v, v) = 2 q(v) = 2 is non-zero
    over an odd prime field, and bits past m stay zero.  Before the graph is
    built a single mask is one kernel row, and `components` never packs rows,
    so drawing a frame or counting components never holds the whole graph."""

    def __init__(self, form: QuadraticModule):
        if form.ring.kind != FINITE_FIELD:
            raise RingError("UnitSphere is a finite-field construction")
        self.form = form
        self.p = form.ring.p
        n = form.rank
        self.gram = np.array(form.gram_values, dtype=np.int64).reshape(n, n)
        self.vectors = gfnum.unit_sphere(self.gram, self.p)
        self.m = len(self.vectors)
        self._words = -(-self.m // 64)
        self._rows: Optional[np.ndarray] = None
        # V^T with contiguous rows: the kernel reads it one coordinate at a time.
        self._right = self.vectors.T.astype(np.min_scalar_type(n * (self.p - 1) ** 2),
                                            order="C")

    def _orthogonal(self, rows, cols) -> np.ndarray:
        """The bool block B(v_i, v_j) == 0 for i in `rows` (at most
        GRAPH_CHUNK of them) and j in `cols`."""
        right = self._right[:, cols]
        left = gfnum.mod(self.vectors[rows] @ (2 * self.gram), self.p).astype(right.dtype)
        total = np.zeros((len(left), right.shape[1]), dtype=right.dtype)
        for k in range(len(right)):
            total += left[:, k, None] * right[k]
        return total // self.p * self.p == total

    def packed_rows(self) -> np.ndarray:
        """The orthogonality graph as an (m, ceil(m / 64)) little-endian
        uint64 array, built on first use."""
        if self._rows is None:
            nbytes = self.m * self._words * 8
            if nbytes > PACKED_GRAPH_BYTES:
                raise BudgetError(f"packed orthogonality graph for {self.m} vertices "
                                  f"({nbytes} bytes) refused above {PACKED_GRAPH_BYTES}")
            rows = np.zeros((self.m, self._words), dtype="<u8")
            for lo in range(0, self.m, GRAPH_CHUNK):
                block = self._orthogonal(slice(lo, lo + GRAPH_CHUNK), slice(None))
                packed = np.packbits(block, axis=1, bitorder="little")
                rows[lo:lo + GRAPH_CHUNK].view(np.uint8)[:, :packed.shape[1]] = packed
            self._rows = rows
        return self._rows

    def _unpack(self, rows: np.ndarray) -> np.ndarray:
        return np.unpackbits(rows.view(np.uint8), axis=-1, count=self.m,
                             bitorder="little").view(bool)

    def adjacency(self, indices: Optional[np.ndarray] = None) -> np.ndarray:
        """The orthogonality graph as a bool matrix over the index array
        `indices` (default: every vertex, refused above 8000 vertices)."""
        if indices is None:
            if self.m > 8000:
                raise BudgetError(f"adjacency matrix for {self.m} vertices refused")
            return self._unpack(self.packed_rows())
        return self._unpack(self.packed_rows()[indices])[:, indices]

    def orthogonal_mask(self, index: int) -> np.ndarray:
        if self._rows is None:
            return self._orthogonal([index], slice(None))[0]
        return self._unpack(self._rows[index])

    def orthogonal_mask_all(self, indices: Sequence[int]) -> np.ndarray:
        """Vertices orthogonal to every one of `indices` (all, when empty)."""
        rows = self.packed_rows()[list(indices)]
        return self._unpack(np.bitwise_and.reduce(rows, axis=0, initial=~np.uint64(0)))

    def components(self) -> int:
        """Connected components of the orthogonality graph: a BFS that pairs
        each frontier, GRAPH_CHUNK rows at a time, with the vertices still
        unvisited only, so it packs no rows and never pairs a vertex it has
        already reached."""
        unvisited = np.ones(self.m, dtype=bool)
        components = 0
        while unvisited.any():
            frontier = np.array([np.argmax(unvisited)])
            unvisited[frontier] = False
            components += 1
            while frontier.size:
                was_unvisited = unvisited.copy()
                for lo in range(0, frontier.size, GRAPH_CHUNK):
                    rest = np.flatnonzero(unvisited)
                    hit = self._orthogonal(frontier[lo:lo + GRAPH_CHUNK], rest).any(axis=0)
                    unvisited[rest[hit]] = False
                frontier = np.flatnonzero(was_unvisited & ~unvisited)
        return components

    def random_clique(self, rng: random.Random, size: int,
                      allowed: Optional[np.ndarray] = None,
                      attempts: int = 400) -> Optional[list[int]]:
        """Indices of `size` pairwise-orthogonal vectors inside `allowed`
        (default: all), in pick order: each pick is uniform among the allowed
        vectors orthogonal to the earlier picks, and a dead end restarts, up
        to `attempts` tries.  None when no try succeeds."""
        start = np.ones(self.m, dtype=bool) if allowed is None else allowed
        for _ in range(attempts):
            mask = start.copy()
            chosen: list[int] = []
            while len(chosen) < size:
                pool = np.flatnonzero(mask)
                if pool.size == 0:
                    break
                pick = int(pool[rng.randrange(pool.size)])
                chosen.append(pick)
                mask &= self.orthogonal_mask(pick)
            else:
                return chosen
            if not chosen:
                return None  # nothing allowed: every further try fails alike
        return None


def _cliques(adj: np.ndarray, max_size: int) -> dict[int, list[tuple[int, ...]]]:
    """All cliques of size 1..max_size, each as a sorted index tuple, in
    lexicographic order.

    Each level is held as its cliques plus, for each clique, the packed mask
    of its common neighbours above its last vertex (built only when the
    level is extended).  The next level is the nonzero bits of those masks,
    unpacked CLIQUE_CHUNK bits at a time: clique-major, then vertex-ascending,
    which keeps the order lexicographic.  Its size is the masks' popcount:
    the running total is held against SIMPLEX_BUDGET before the level is
    built."""
    m = adj.shape[0]
    out: dict[int, list[tuple[int, ...]]] = {1: [(i,) for i in range(m)]}
    if max_size < 2:
        return out
    total = m
    upper = np.packbits(adj, axis=1, bitorder="little")
    for i in range(m):  # keep only the neighbours above i: clear bits 0..i of row i
        upper[i, :i // 8] = 0
        upper[i, i // 8] &= 0xFF << (i % 8 + 1) & 0xFF
    masks = upper
    rows_per_chunk = max(1, CLIQUE_CHUNK // max(m, 1))
    for size in range(2, max_size + 1):
        count = int(np.bitwise_count(masks).sum())
        total += count
        if total > SIMPLEX_BUDGET:
            raise BudgetError(
                f"clique enumeration exceeded budget {SIMPLEX_BUDGET} at size {size} "
                f"(running total {total})"
            )
        if not count:
            break
        extend = size < max_size
        prev, level, next_masks = out[size - 1], [], []
        for lo in range(0, len(prev), rows_per_chunk):
            bits = np.unpackbits(masks[lo:lo + rows_per_chunk], axis=1, count=m,
                                 bitorder="little")
            rows, cols = np.nonzero(bits)
            rows += lo
            level += [prev[r] + (c,) for r, c in zip(rows.tolist(), cols.tolist())]
            if extend:
                next_masks.append(masks[rows] & upper[cols])
        out[size] = level
        if extend:
            masks = np.concatenate(next_masks)
    return out


def _integer_graph(q: QuadraticModule) -> tuple[np.ndarray, np.ndarray]:
    """The unit vectors of a form over Z (the signed basis table) and their
    orthogonality graph: B(v, w) = 2 v.w, so v and w are orthogonal exactly
    when v.w = 0."""
    table = _signed_basis(q)
    return table, table @ table.T == 0


def _ordered_cliques(by_size: dict[int, list[tuple[int, ...]]],
                     size: int) -> np.ndarray:
    """Every ordering of every clique of the given size, as rows of vertex
    indices sorted by their codes (base the vertex count): lexicographic."""
    cliques = np.array(by_size.get(size, []), dtype=np.int64).reshape(-1, size)
    rows = cliques[:, list(itertools.permutations(range(size)))].reshape(-1, size)
    return rows[np.argsort(gfnum.codes(rows, gfnum.code_weights(len(by_size[1]), size)))]


def _frame_rows(sphere: UnitSphere, k: int) -> np.ndarray:
    """The ordered k-frames as rows of sphere indices, in lexicographic order."""
    if not k:
        return np.zeros((1, 0), dtype=np.int64)
    return _ordered_cliques(_cliques(sphere.adjacency(), k), k)


def build_stiefel(q: QuadraticModule, max_dim: int) -> SimplicialComplex:
    """The max_dim-skeleton of the frame complex of q (clique complex of the
    orthogonality graph on the unit vectors).

    The skeleton is returned as a complete complex in its own right: it is
    the space |sk X(q)| whose homology agrees with the full complex in every
    degree strictly below max_dim."""
    adj = _integer_graph(q)[1] if q.ring.kind == INTEGERS else UnitSphere(q).adjacency()
    by_size = _cliques(adj, max_dim + 1)  # each level in lexicographic order
    return SimplicialComplex({size - 1: v for size, v in by_size.items()})


def build_skeleton_poset(q: QuadraticModule, k: int) -> Poset:
    """Poset of frames of length <= k, ordered by containment."""
    komplex = build_stiefel(q, k - 1)
    frames = [frozenset(s) for d in sorted(komplex.simplices) for s in komplex.simplices[d]]
    return poset_from_frames(frames)


def skeleton_vs_poset_profiles(q: QuadraticModule, k: int):
    """Homology of |X_k(q)| and of the (k-1)-skeleton of X(q); the two are
    the same space up to barycentric subdivision, so the profiles agree."""
    komplex = build_stiefel(q, k - 1)
    direct = reduced_homology(komplex, k - 1)
    subdivided = build_skeleton_poset(q, k).homology()
    return direct, subdivided


# ---------------------------------------------------------------------------
# Connectivity reports
# ---------------------------------------------------------------------------


@dataclass
class ConnectivityReport:
    n: int
    field: str
    max_degree: int
    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]
    predicted_connectivity: int
    bound_satisfied: bool
    counts: dict


def connectivity_report(ring: RingDescriptor, n: int, max_degree: int) -> ConnectivityReport:
    """Reduced homology of the Euclidean Stiefel complex in degrees up to
    max_degree, compared against the m-invariant connectivity bound
    (n - m - 3)/3: homology must vanish in degrees up to the bound."""
    from stiefel_lab.invariants import known_arithmetic
    from stiefel_lab.stability import connectivity_degree

    if ring.kind != FINITE_FIELD:
        raise RingError("connectivity reports are finite-field computations")
    q = euclidean(ring, n)
    predicted = connectivity_degree("i", n, known_arithmetic(ring))["literal"]
    sphere = UnitSphere(q)
    counts = {"vertices": sphere.m}
    if max_degree == 0:
        comps = sphere.components()
        counts["components"] = comps
        betti = (comps - 1,)
        torsion = ((),)
    else:
        komplex = build_stiefel(q, max_degree + 1)
        for d in sorted(komplex.simplices):
            counts[f"simplices_dim_{d}"] = komplex.n_simplices(d)
        prof = reduced_homology(komplex, max_degree)
        betti, torsion = prof.betti, prof.torsion
    check_to = min(max_degree, predicted if predicted is not None else -1)
    ok = all(betti[i] == 0 and not torsion[i] for i in range(check_to + 1))
    return ConnectivityReport(
        n=n, field=ring.label(), max_degree=max_degree, betti=betti,
        torsion=torsion, predicted_connectivity=predicted,
        bound_satisfied=ok, counts=counts,
    )


def intersection_connectivity(ring: RingDescriptor, n: int,
                              u_frame: Frame, v_frame: Frame) -> dict:
    """Connectivity (component count) of |X_2| of the double complement:
    the barycentric graph of singletons under pairs has the same components
    as the orthogonality graph itself, isolated vertices included."""
    q = euclidean(ring, n)
    inter = intersect_complements(q, u_frame.as_submodule(), v_frame.as_submodule())
    sub = inter.restricted_module()
    sphere = UnitSphere(sub)
    comps = sphere.components()
    return {
        "n": n,
        "rank": inter.rank,
        "unit_vectors": sphere.m,
        "components": comps,
        "connected": comps == 1,
    }


# ---------------------------------------------------------------------------
# Ordered Stiefel semi-simplicial sets and the destabilization identification
# ---------------------------------------------------------------------------


@dataclass
class SemiSimplicialSet:
    """Levels of ordered frames with face maps d_i (delete slot i), stored as
    index tables into the previous level.  levels[p] is an (N_p, p + 1)
    array of sphere indices, its rows in lexicographic order."""

    levels: list[np.ndarray]
    face_maps: list[list[np.ndarray]]  # face_maps[p][i][j]: d_i of simplex j at level p

    def verify_identities(self) -> None:
        """d_i d_j = d_(j-1) d_i for i < j, checked on every simplex."""
        for p in range(2, len(self.levels)):
            for j in range(1, p + 1):
                for i in range(j):
                    left = self.face_maps[p - 1][i][self.face_maps[p][j]]
                    right = self.face_maps[p - 1][j - 1][self.face_maps[p][i]]
                    if (left != right).any():
                        raise AssertionError(f"face identity fails at level {p}, simplex "
                                             f"{np.flatnonzero(left != right)[0]}")


def build_ordered_stiefel(q: QuadraticModule, max_p: int) -> SemiSimplicialSet:
    """Ordered frames (tuples, all orderings) up to level max_p.  Each face
    table is one binary search of the level's rows with slot i deleted among
    the codes of the level below (base the sphere size)."""
    sphere = UnitSphere(q)
    by_size = _cliques(sphere.adjacency(), max_p + 1)
    levels = [_ordered_cliques(by_size, size) for size in range(1, max_p + 2)]
    face_maps: list[list[np.ndarray]] = [[]]
    for p in range(1, max_p + 1):
        w = gfnum.code_weights(sphere.m, p)
        known = gfnum.codes(levels[p - 1], w)
        faces = [gfnum.codes(np.delete(levels[p], i, axis=1), w) for i in range(p + 1)]
        if not all(gfnum.member(known, face).all() for face in faces):
            raise AssertionError(f"a face of a level-{p} frame is not a frame")
        face_maps.append([np.searchsorted(known, face) for face in faces])
    return SemiSimplicialSet(levels, face_maps)


def _form_preserving_maps(target: QuadraticModule, k: int) -> np.ndarray:
    """Every linear map from Euclidean k-space into the target that preserves
    the form, found by checking all matrices on all inputs (the independent
    Hom-set description).  An (N, rank, k) array, in lexicographic order of
    the flattened matrices, so their codes are sorted."""
    ring = target.ring
    p, m = ring.p, target.rank
    G = np.array(target.gram_values, dtype=np.int64)
    inputs = gfnum.all_vectors(p, k)
    want = gfnum.mod((inputs * inputs).sum(axis=1), p)
    candidates = gfnum.all_vectors(p, m * k).reshape(-1, m, k)
    keep = []
    for block in gfnum.blocks(len(candidates), len(inputs) * m):
        images = gfnum.mod(np.einsum("bmk,ik->bim", candidates[block], inputs), p)
        got = gfnum.gram_values(G, images.reshape(-1, m), p).reshape(len(images), -1)
        keep.append((got == want).all(axis=1))
    return candidates[np.concatenate(keep)]


def wn_identification_check(ring: RingDescriptor, v_diag: Sequence[int], n: int,
                            max_p: int) -> CheckResult:
    """The destabilization spaces of (V, E^1) match the ordered Stiefel
    levels of V + E^n: the map sending a form-preserving f to the ordered
    tuple of its basis images is a bijection compatible with the face maps.
    Exhaustive at these sizes (maps are enumerated independently as
    matrices, frames by clique extension).  Basis images are found by one
    binary search among the sphere's codes, which are sorted since its rows
    are; every mismatch is a failure, never an exception."""
    amb = orthogonal_sum(diagonal_module(ring, list(v_diag)), euclidean(ring, n))
    sss = build_ordered_stiefel(amb, max_p)
    w_vec = gfnum.code_weights(ring.p, amb.rank)
    units = gfnum.codes(UnitSphere(amb).vectors, w_vec)
    # Top level first: its Hom-set table is the largest, so a refusal precedes every scan.
    hom_sets = [_form_preserving_maps(amb, k) for k in range(max_p + 1, 0, -1)][::-1]
    failures, details = [], {"levels": {}}
    for p_level in range(max_p + 1):
        k = p_level + 1
        homs, frames = hom_sets[p_level], sss.levels[p_level]
        details["levels"][p_level] = {"maps": len(homs), "frames": len(frames)}
        cols = gfnum.codes(homs.transpose(0, 2, 1), w_vec).reshape(len(homs), k)
        on_sphere = gfnum.member(units, cols).all(axis=1)
        if not on_sphere.all():
            failures.append(f"level {p_level}: map {homs[~on_sphere][0].tolist()} is off the sphere")
        images = np.searchsorted(units, cols[on_sphere])  # rows: the tuples of basis images
        w = gfnum.code_weights(len(units), k)
        got, want = gfnum.codes(images, w), gfnum.codes(frames, w)
        if len(np.unique(got)) != len(got):
            failures.append(f"level {p_level}: the identification is not injective")
        if not np.array_equal(np.unique(got), want):
            failures.append(f"level {p_level}: image does not match the ordered frames")
        # Face compatibility: deleting column i corresponds to the face map d_i.
        is_frame = gfnum.member(want, got)
        images, at = images[is_frame], np.searchsorted(want, got[is_frame])
        for i, face in enumerate(sss.face_maps[p_level]):
            bad = (sss.levels[p_level - 1][face[at]] != np.delete(images, i, axis=1)).any(axis=1)
            if bad.any():
                failures.append(f"face map d_{i} disagrees at level {p_level} on frame "
                                f"{images[bad][0].tolist()}")
    try:
        sss.verify_identities()
    except AssertionError as exc:
        failures.append(str(exc))
    return CheckResult("wn-identification", not failures, failures, details)


def local_standardness_check(ring: RingDescriptor, v_diag: Sequence[int], n: int) -> CheckResult:
    """LS1: the two stabilization embeddings of E^1 into V + E^2 (onto the
    last two basis vectors, so distinct by construction) lie in the Hom-set;
    LS2: appending a zero coordinate sends Hom(E^1, V + E^(n-1))
    injectively into Hom(E^1, V + E^n).  Both checked on the exhaustive
    Hom-set enumeration, by codes: a map's code has its coordinates as
    base-p digits, so appending a zero coordinate multiplies it by p.  A
    rank-0 V + E^(n-1) is refused: its Hom-set is empty, so LS2 would pass
    vacuously."""
    if len(v_diag) + n - 1 < 1:
        raise ValueError(f"LS2 needs V + E^(n-1) of rank at least 1, got rank "
                         f"{len(v_diag) + n - 1} from --n {n} and {len(v_diag)} "
                         f"--v-diag entries")
    v_mod = diagonal_module(ring, list(v_diag))
    amb2, ambn1, ambn = (orthogonal_sum(v_mod, euclidean(ring, k)) for k in (2, n - 1, n))
    p, m_v, failures = ring.p, len(v_diag), []
    first, second = np.eye(m_v + 2, dtype=np.int64)[m_v:]  # the maps 1 -> e_(m_v+1), e_(m_v+2)
    w = gfnum.code_weights(p, m_v + 2)
    if not gfnum.member(gfnum.codes(_form_preserving_maps(amb2, 1), w),
                        gfnum.codes(np.stack([first, second]), w)).all():
        failures.append("LS1: the two stabilization embeddings are not in the Hom-set")
    maps_small = _form_preserving_maps(ambn1, 1)
    stabilized = gfnum.codes(maps_small, gfnum.code_weights(p, ambn1.rank)) * p
    if len(np.unique(stabilized)) != len(stabilized):
        failures.append("LS2: stabilization is not injective")
    missing = ~gfnum.member(gfnum.codes(_form_preserving_maps(ambn, 1),
                                        gfnum.code_weights(p, ambn.rank)), stabilized)
    if missing.any():
        key = maps_small[missing][0].ravel().tolist() + [0]
        failures.append(f"LS2: stabilized map {key} is not in Hom(E^1, V + E^{n})")
    return CheckResult("local-standardness", not failures, failures,
                       {"hom_small": len(maps_small)})


# ---------------------------------------------------------------------------
# The Morse filtration replay
# ---------------------------------------------------------------------------


@dataclass
class MorseFiltration:
    """Layered cover of the frame poset of a double complement, relative to
    a pivot unit vector u: the top layer L_1 holds the full-length frames
    inside the hyperplane of u, layer L_i (i >= 2) the length-i frames all of
    whose members pair non-trivially with u, and X_0 the remainder (which
    includes the two pivot singletons and every mixed frame)."""

    l: int
    pivot_index: int
    pivot_negative_index: int
    orthogonal_to_pivot: np.ndarray  # bool mask over the sphere
    # the indices the mask marks: the unit vectors in the pivot hyperplane
    hyperplane: frozenset[int] = field(init=False, repr=False, compare=False)
    # the vectors pairing non-trivially with the pivot, save the pivot and -pivot
    pairing: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.hyperplane = frozenset(np.flatnonzero(self.orthogonal_to_pivot).tolist())
        self.pairing = ~self.orthogonal_to_pivot
        self.pairing[[self.pivot_index, self.pivot_negative_index]] = False

    def layer(self, frame: Collection[int]) -> int:
        """The i of the layer L_i holding the frame, 0 for X_0."""
        size = len(frame)
        inside = len(self.hyperplane.intersection(frame))
        if size == self.l and inside == size:
            return 1
        if size >= 2 and not inside:
            return size
        return 0

    def in_prev(self, frame: Collection[int], i: int) -> bool:
        """Membership in X_0 ∪ L_1 ∪ ... ∪ L_(i-1)."""
        return self.layer(frame) < i

    def deform(self, frame: frozenset[int]) -> frozenset[int]:
        """The X_0 deformation onto the suspension: the frame's members in
        the pivot hyperplane, plus the pivot and its negative if present."""
        return (frame & self.hyperplane) | (frame & {self.pivot_index,
                                                     self.pivot_negative_index})


@dataclass
class MorseCertificate:
    passed: bool
    mode: str
    assertions: list[tuple[str, bool, str]] = field(default_factory=list)
    config: dict = field(default_factory=dict)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.assertions.append((name, ok, detail))
        if not ok:
            self.passed = False

    def failures(self) -> list[str]:
        return [f"{n}: {d}" for n, ok, d in self.assertions if not ok]


def _count_cliques(sphere: UnitSphere, upto: int) -> dict[int, int]:
    """Numbers of frames of sizes 1..upto (upto <= 3): each triangle {i, j, k}
    is one common neighbour of six ordered edges (i, j)."""
    rows = sphere.packed_rows()
    counts = {1: sphere.m, 2: int(np.bitwise_count(rows).sum()) // 2}
    if upto >= 3:
        if counts[2] * sphere._words > SIMPLEX_BUDGET:
            raise BudgetError(f"triangle count over {counts[2]} edges of {sphere._words} "
                              f"packed words each refused above {SIMPLEX_BUDGET}")
        walks = 0
        for i in range(sphere.m):
            neighbours = rows[sphere.orthogonal_mask(i)]
            walks += int(np.bitwise_count(neighbours & rows[i]).sum())
        counts[3] = walks // 6
    return counts


def _random_frame(rng: random.Random, sphere: UnitSphere, size: int,
                  allowed: Optional[np.ndarray] = None) -> Optional[tuple[int, ...]]:
    picks = sphere.random_clique(rng, size, allowed)
    return None if picks is None else tuple(sorted(picks))


def _link_in_prev(sphere: UnitSphere, filt: MorseFiltration, x: tuple[int, ...],
                  layer: int, l: int) -> list[frozenset]:
    """Elements of the link of x lying in earlier layers, built locally: the
    proper subframes of x, then x plus each clique of its common
    orthogonal complement that still fits in a frame of length l."""
    out = [frozenset(sub) for size in range(1, len(x))
           for sub in itertools.combinations(x, size) if filt.in_prev(sub, layer)]
    room = l - len(x)
    if room > 0:
        candidates = np.flatnonzero(sphere.orthogonal_mask_all(x))
        # one added vector needs no adjacency among the candidates
        local = (_cliques(sphere.adjacency(candidates), room)
                 if room > 1 else {1: [(i,) for i in range(candidates.size)]})
        for size in sorted(local):
            for clique in local[size]:
                y = frozenset(x) | {int(candidates[i]) for i in clique}
                if filt.in_prev(y, layer):
                    out.append(y)
    return out


def morse_replay(
    ring: RingDescriptor,
    n: int,
    l: int,
    u_frame: Frame,
    v_frame: Frame,
    sample_budget: Optional[int] = None,
    seed: int = 0,
) -> MorseCertificate:
    """Replay the Morse-filtration argument for |X_l| of a double frame
    complement over a prime field.

    Small instances are handled exhaustively (full poset, full hypothesis
    check, direct homology cross-check); larger ones verify every hypothesis
    on seed-fixed samples with the sample sizes reported, derive the X_0
    clause through the deformation-onto-suspension route, and record that the
    direct cross-check was skipped for budget."""
    from stiefel_lab.invariants import known_arithmetic
    from stiefel_lab.stability import intersection_connect_conditions

    if ring.kind != FINITE_FIELD:
        raise RingError("the replay runs over prime fields")
    if l < 2:
        raise ValueError(
            "the filtration argument needs l >= 2; the l = 1 statement is "
            "the unit-vector search (unit_vector_in_complement)"
        )
    r, s = len(u_frame), len(v_frame)
    arith = known_arithmetic(ring)
    conds = intersection_connect_conditions(n, l, r, s, arith)
    if not conds["any"]:
        raise ValueError(
            f"no sufficient condition holds at (n={n}, l={l}, r={r}, s={s}); "
            f"conditions: {conds['conditions']}"
        )
    q = euclidean(ring, n)
    inter = intersect_complements(q, u_frame.as_submodule(), v_frame.as_submodule())
    sub = inter.restricted_module()
    sphere = UnitSphere(sub)
    cert = MorseCertificate(passed=True, mode="", config={
        "field": ring.label(), "n": n, "l": l, "r": r, "s": s, "seed": seed,
        "conditions": {k: bool(v) for k, v in conds["conditions"].items()},
        "unit_vectors": sphere.m,
    })
    cert.add("condition", True, str([k for k, v in conds["conditions"].items() if v]))
    if sphere.m == 0:
        cert.add("pivot", False, "no unit vector in the intersection")
        return cert
    pivot = 0  # first unit vector in canonical (lexicographic) order
    w = gfnum.code_weights(sphere.p, sub.rank)  # -u is a unit: look up its code
    neg = int(np.searchsorted(gfnum.codes(sphere.vectors, w),
                              gfnum.codes(-sphere.vectors[pivot] % sphere.p, w)[0]))
    orth = sphere.orthogonal_mask(pivot)
    orth[neg] = False  # B(-u, u) = -2 is nonzero anyway; keep the mask exact
    filt = MorseFiltration(l, pivot, neg, orth)
    cert.add("pivot", True, f"index {pivot}, coords {sphere.vectors[pivot].tolist()}")

    counts = _count_cliques(sphere, l) if l <= 3 else None
    total = sum(counts[k] for k in range(1, l + 1)) if counts else None
    if counts:
        cert.config["frame_counts"] = {k: counts[k] for k in range(1, l + 1)}
    explicit = total is not None and total <= EXPLICIT_POSET_CAP and sample_budget is None
    cert.mode = "exhaustive" if explicit else "sampled"

    d = l - 1
    rng = random.Random(seed)
    if explicit:
        by_size = _cliques(sphere.adjacency(), l)
        frames = [frozenset(t) for size in sorted(by_size) for t in by_size[size]]
        poset = poset_from_frames(frames)
        layer_of = [filt.layer(f) for f in frames]
        x0, layers = [], [[] for _ in range(l)]
        for i, k in enumerate(layer_of):
            (layers[k - 1] if k else x0).append(i)
        cert.config["layer_sizes"] = {"X0": len(x0),
                                      **{f"L{j+1}": len(layer) for j, layer in enumerate(layers)}}
        lemma = morse_lemma_check(poset, x0, layers, d)
        cert.add("morse-lemma", lemma.passed, "; ".join(lemma.failures[:3]))
        if "direct_cross_check" in lemma.details:
            direct = lemma.details["direct_cross_check"]
            cert.add("direct-homology", direct.is_wedge_of_spheres(d),
                     f"betti {direct.betti}")
        _deformation_items(cert, poset, filt, layer_of, l)
        _join_items(cert, poset, filt, layer_of, l)
    else:
        sample = 200 if sample_budget is None else sample_budget
        cert.config["sample_budget"] = sample
        _sampled_partition_items(cert, sphere, filt, rng, l, sample)
        for layer_i in range(1, l + 1):
            checked = 0
            failures = 0
            for _ in range(sample):
                x = _sample_layer_frame(rng, sphere, filt, layer_i, l)
                if x is None:
                    continue
                link = _link_in_prev(sphere, filt, x, layer_i, l)
                if not link:
                    failures += 1
                    continue
                prof = poset_from_frames(link).homology()
                if not prof.is_wedge_of_spheres(d - 1):
                    failures += 1
                checked += 1
            cert.add(
                f"links-L{layer_i}", failures == 0 and checked >= min(sample, 1),
                f"{checked} links sampled, {failures} failures",
            )
        _sampled_x0_items(cert, sphere, filt, rng, l, sample)
        cert.add("direct-homology", True,
                 "skipped: full homology at this size is beyond the desk budget")
    return cert


def _deformation_items(cert, poset, filt, layer_of, l):
    """The X_0 deformation onto the suspension: drop the members pairing
    non-trivially with the pivot (keeping the pivot itself), then compare
    against the suspension of the one-lower skeleton poset of the hyperplane.
    `layer_of[i]` is the filtration layer of element i, 0 for X_0."""
    keep = {filt.pivot_index, filt.pivot_negative_index}
    elements = poset.elements
    f_map = {}
    for i, fset in enumerate(elements):
        if layer_of[i]:
            continue
        core = filt.deform(fset)
        if core == fset:
            f_map[i] = i
        elif core:
            f_map[i] = next(j for j in poset.below[i] if elements[j] == core)
    res = closure_deformation_check(poset, f_map)
    cert.add("x0-deformation", res.passed, "; ".join(res.failures[:3]))
    # The image is the suspension-shaped family; its profile must equal the
    # suspended profile of X_(l-1) of the pivot hyperplane.
    w_idx = [i for i, f in enumerate(elements) if len(f) <= l - 1 and f <= filt.hyperplane]
    w_prof = poset.homology(w_idx)
    image = set(f_map.values())
    expected = {frozenset({v}) for v in keep}
    for i in w_idx:
        expected |= {elements[i], elements[i] | {filt.pivot_index},
                     elements[i] | {filt.pivot_negative_index}}
    structural = {elements[j] for j in image} == expected
    cert.add("x0-suspension-structure", structural,
             f"image {len(image)} elements vs expected {len(expected)}")
    prof_prime = poset.homology(image)
    ok = (
        prof_prime.is_wedge_of_spheres(l - 1)
        and w_prof.is_wedge_of_spheres(l - 2)
        and prof_prime.wedge_size(l - 1) == w_prof.wedge_size(l - 2)
    )
    cert.add(
        "x0-suspension-profile", ok,
        f"suspension betti {prof_prime.betti}, base betti {w_prof.betti}",
    )


def _join_items(cert, poset, filt, layer_of, l):
    """Claim-2 join decomposition of the links of the all-pairing layers:
    every proper subframe (a sphere of dimension |x| - 2) below every
    pure-hyperplane extension.  `layer_of[i]` is the filtration layer of
    element i, 0 for X_0.  The exhaustive replay has l <= 3, so every
    extension in an earlier layer is pure: x in L_2 plus a vector off the
    hyperplane has no member in it and lies in L_3."""
    checked = 0
    failures = []
    elements = poset.elements
    for layer_i in range(2, l + 1):
        for xi in (i for i, k in enumerate(layer_of) if k == layer_i):
            x = elements[xi]
            subs = {j for j in poset.below[xi] if layer_of[j] < layer_i}
            exts = {j for j in poset.above[xi] if layer_of[j] < layer_i}
            boundary = poset.homology(subs)
            if len(subs) != 2 ** len(x) - 2 or not (
                    boundary.is_wedge_of_spheres(len(x) - 2)
                    and boundary.wedge_size(len(x) - 2) == 1):
                failures.append(f"subframes of {sorted(x)}: {len(subs)} elements, "
                                f"betti {boundary.betti}")
            res = poset_join_check(poset, subs, exts)
            if not res.passed:
                failures.append(f"join check failed at {sorted(x)}: {res.failures[:1]}")
            checked += 1
    cert.add("link-join-split", not failures,
             f"{checked} links decomposed; " + "; ".join(failures[:3]))


def _sample_layer_frame(rng, sphere, filt, layer_i, l):
    if layer_i == 1:
        return _random_frame(rng, sphere, l, filt.orthogonal_to_pivot)
    return _random_frame(rng, sphere, layer_i, filt.pairing)


def _sampled_partition_items(cert, sphere, filt, rng, l, sample):
    """Classification sanity on random frames: the three membership
    predicates are mutually exclusive and some part always takes the frame."""
    bad = 0
    tried = 0
    for _ in range(sample):
        size = rng.randint(1, l)
        x = _random_frame(rng, sphere, size)
        if x is None:
            continue
        tried += 1
        orth = [bool(filt.orthogonal_to_pivot[i]) for i in x]
        is_l1 = len(x) == l and all(orth)
        is_li = len(x) >= 2 and not any(orth)
        want = 1 if is_l1 else (len(x) if is_li else 0)
        if filt.layer(x) != want:
            bad += 1
    cert.add("layer-partition", bad == 0, f"{tried} frames classified, {bad} bad")
    # incomparability within a layer is structural: same-size distinct sets
    pairs_checked = 0
    comparable = 0
    for _ in range(min(sample, 50)):
        size = rng.randint(2, l)
        a = _sample_layer_frame(rng, sphere, filt, size, l)
        b = _sample_layer_frame(rng, sphere, filt, size, l)
        if a and b and a != b:
            if set(a) <= set(b) or set(b) <= set(a):
                comparable += 1
            pairs_checked += 1
    detail = f"structural (equal frame sizes); {pairs_checked} sampled pairs"
    if comparable:
        detail += f", {comparable} comparable"
    cert.add("layer-incomparability", comparable == 0, detail)


def _sampled_x0_items(cert, sphere, filt, rng, l, sample):
    mono_bad = 0
    defl_bad = 0
    idem_bad = 0
    tried = 0
    for _ in range(sample):
        t = rng.randint(1, l - 1)
        w_part = _random_frame(rng, sphere, t, filt.orthogonal_to_pivot)
        if w_part is None:
            continue
        mask = sphere.orthogonal_mask_all(w_part) & filt.pairing
        extra = rng.randint(0, l - t)
        rest = _random_frame(rng, sphere, extra, mask) if extra else tuple()
        if rest is None:
            continue
        fset = frozenset(w_part) | frozenset(rest)
        if filt.layer(fset):
            continue
        tried += 1
        img = filt.deform(fset)
        if not img <= fset:
            defl_bad += 1
        if filt.deform(img) != img:
            idem_bad += 1
        sub_size = rng.randint(1, len(fset))
        sub = frozenset(rng.sample(sorted(fset), sub_size))
        if filt.deform(sub) and not (filt.deform(sub) <= img):
            mono_bad += 1
    cert.add("x0-deformation-sampled",
             mono_bad == 0 and defl_bad == 0 and idem_bad == 0 and tried > 0,
             f"{tried} mixed frames: deflation {defl_bad}, monotone {mono_bad}, "
             f"idempotent {idem_bad} failures")
    # Exact base of the suspension: X_(l-1) of the pivot hyperplane.  Its
    # frame poset is the face poset of the hyperplane's clique complex cut at
    # dimension l - 2, so that skeleton has the same homology.
    w_adj = sphere.adjacency(np.flatnonzero(filt.orthogonal_to_pivot))
    levels = _cliques(w_adj, l - 1)
    prof = reduced_homology(SimplicialComplex({k - 1: level for k, level in levels.items()}),
                            l - 2)
    ok = prof.is_wedge_of_spheres(l - 2)
    if l == 3:
        cert.add("x0-suspension-base", ok,
                 f"X_2 of the hyperplane: {len(levels[1])} vertices, "
                 f"{len(levels.get(2, []))} pairs, reduced betti "
                 f"({prof.betti[0]}, {prof.betti[1]}); wedge of S^1: {ok}")
        cert.add("x0-clause-derived", ok,
                 "clause (i) derived: sampled deformation hypotheses + exact "
                 "suspension base (direct homology of X0 skipped for budget)")
    else:
        cert.add("x0-suspension-base", ok, f"betti {prof.betti}")
        cert.add("x0-clause-derived", ok, "clause (i) derived from the suspension base")


# ---------------------------------------------------------------------------
# Signed-permutation automorphisms over Z
# ---------------------------------------------------------------------------


def _graph_automorphisms(adj: list[list[bool]], perm: tuple = ()) -> list[tuple[int, ...]]:
    """Every adjacency-preserving vertex permutation extending `perm`, in
    lexicographic order: images are tried in ascending order, and a partial
    map grows only while it preserves adjacency with the vertices it maps."""
    k = len(perm)
    if k == len(adj):
        return [perm]
    return [auto for c in range(len(adj))
            if c not in perm and all(adj[perm[i]][c] == adj[i][k] for i in range(k))
            for auto in _graph_automorphisms(adj, perm + (c,))]


def integer_aut_check(n: int) -> CheckResult:
    """Over Z the Stiefel complex has vertex set the signed standard basis
    and is the boundary of the cross-polytope; its simplicial automorphisms
    are exactly the signed permutations, 2^n n! of them, and each lifts to an
    integer orthogonal matrix.  The antipode of a vertex is its unique
    non-neighbor, which pins the automorphism down from the basis images.

    Everything is read off the int table V of vertices: the lift L of an
    automorphism has as columns the images of e_0, ..., e_(n-1); it must
    satisfy L^T L = I and send every vertex where the automorphism does
    (L V^T = V[perm]^T), checked on blocks of automorphisms at a time.
    The search lists every automorphism, so it is refused before it starts
    when 2^n n! exceeds isometry.ENUMERATION_CAP."""
    if n < 1:
        raise ValueError(f"the cross-polytope needs n >= 1, got n = {n}")
    expected = 2 ** n * math.factorial(n)
    if expected > isometry.ENUMERATION_CAP:
        raise BudgetError(f"the automorphism search lists 2^n n! = {expected} signed "
                          f"permutations, more than the enumeration cap "
                          f"{isometry.ENUMERATION_CAP}")
    V, graph = _integer_graph(euclidean(integers(), n))
    m = len(V)
    failures = []
    # Antipode characterization: the unique non-neighbor of v is -v.
    non_neighbors = ~graph & ~np.eye(m, dtype=bool)
    antipodes = (V[:, None, :] == -V[None, :, :]).all(axis=2)
    bad = (non_neighbors != antipodes).any(axis=1)
    if bad.any():
        failures.append(f"antipode characterization fails at vertex {int(bad.argmax())}")
    autos = _graph_automorphisms(graph.tolist())
    if len(autos) != expected:
        failures.append(f"automorphism count {len(autos)} != 2^n n! = {expected}")
    basis = [int(np.flatnonzero((V == e).all(axis=1))[0]) for e in np.eye(n, dtype=np.int64)]
    unlifted = disagrees = False
    for block in gfnum.blocks(len(autos), 2 * m * n):
        perms = np.array(autos[block], dtype=np.int64).reshape(-1, m)
        images = V[perms[:, basis]]  # images[a] is L_a^T: row i is L_a e_i
        orthogonal = (images @ images.transpose(0, 2, 1) == np.eye(n)).all(axis=(1, 2))
        unlifted = unlifted or not orthogonal.all()
        # row v of V L_a^T is L_a v; compared only where L_a is a lift
        wrong = (V @ images != V[perms]).any(axis=(1, 2))
        disagrees = disagrees or (wrong & orthogonal).any()
    if unlifted:
        failures.append("an automorphism does not lift to an integer isometry")
    if disagrees:
        failures.append("lift disagrees with the automorphism on a vertex")
    return CheckResult(
        "integer-automorphisms", not failures, failures,
        {"n": n, "vertices": m, "automorphisms": len(autos), "expected": expected},
    )


def equivariance_spotcheck(ring: RingDescriptor, n: int) -> bool:
    """Transporting frames by isometries permutes unit vectors and preserves
    orthogonality, hence induces simplicial automorphisms; checked on ten
    seeded transports."""
    rng = random.Random(0)
    q = euclidean(ring, n)
    units = unit_vectors(q)
    keys = {u: i for i, u in enumerate(units)}
    for _ in range(10):
        a = units[rng.randrange(len(units))]
        b = units[rng.randrange(len(units))]
        phi = frame_transport(q, frame(q, [[c.value for c in a]]),
                              frame(q, [[c.value for c in b]]))
        image = [phi.apply(u) for u in units]
        if sorted(keys[u] for u in image) != list(range(len(units))):
            return False
        for _ in range(20):
            i, j = rng.randrange(len(units)), rng.randrange(len(units))
            lhs = polar(q, units[i], units[j]).is_zero()
            rhs = polar(q, image[i], image[j]).is_zero()
            if lhs != rhs:
                return False
    return True
