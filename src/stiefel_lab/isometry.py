"""Isometries of quadratic modules: reflections, reflection factorization,
frame transitivity, stabilizer restriction, and small-group enumeration.

Matrices act on column vectors; an isometry of (V, q) is M with
M^T G M = G exactly, which every constructor verifies before returning.
The check runs on integer lifts: with d and e clearing the denominators of
M and G, it is (dM)^T (eG) (dM) = d^2 (eG) in Z, taken modulo p^N over a
residue ring, so it builds no Scalar or Fraction.  Matrices are kept as raw
ring values (what Scalar.value holds): ring-checked Scalars, ring sums and
products, and quotients by units.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from operator import mul
from typing import Optional, Sequence

import numpy as np

from stiefel_lab import gfnum
from stiefel_lab.rings import BudgetError, RingError, Scalar, _wrap
from stiefel_lab.quadmod import (
    Frame,
    Matrix,
    QuadraticModule,
    Vector,
    _gauss_jordan,
    _ints,
    _product,
    _scalars,
    _unlift,
    _values,
    det,
    diagonalize,
    frame,
    identity_matrix,
    integer_lift,
    orthogonal_sum,
    vec,
)


@dataclass(frozen=True, init=False, slots=True)
class Isometry:
    """Form-preserving automorphism of `module`.  `values` holds its matrix
    (columns are the images of the standard basis vectors) as raw ring
    values in normal form, which equality and hashing compare."""

    module: QuadraticModule
    values: tuple[tuple, ...]

    def __init__(self, module: QuadraticModule, matrix: Matrix) -> None:
        _isometry(module, _values(module.ring, matrix, module.rank), self)

    @property
    def matrix(self) -> Matrix:
        """The matrix as Scalars, built on each access."""
        return _scalars(self.module.ring, self.values)

    def apply(self, x: Sequence) -> Vector:
        ring = self.module.ring
        xs = _values(ring, [vec(ring, x)], self.module.rank)
        return tuple(_wrap(ring, r[0]) for r in _product(ring, self.values, xs))

    def compose(self, other: "Isometry") -> "Isometry":
        if self.module != other.module:
            raise ValueError("isometries of different modules")
        return _isometry(self.module, _product(self.module.ring, self.values,
                                               list(zip(*other.values))))

    def inverse(self) -> "Isometry":
        # M^T G M = G gives M^(-1) = G^(-1) M^T G = G^(-1) (G M)^T.
        q = self.module
        gm = _product(q.ring, q.gram_values, list(zip(*self.values)))
        return _isometry(q, _product(q.ring, _gram_inverse(q), gm))

    def is_identity(self) -> bool:
        return self.values == _eye(self.module.ring, self.module.rank)


def _isometry(q: QuadraticModule, values: Sequence[Sequence],
              iso: Optional[Isometry] = None) -> Isometry:
    """Isometry of q from raw values of its ring (filling in `iso` if
    given), once M^T G M = G holds on integer lifts."""
    values = tuple(map(tuple, values))
    ring, n, mod = q.ring, q.rank, q.ring.modulus
    g, _ = integer_lift(q.gram_values, ring)
    m, d = integer_lift(values, ring)
    mt = list(zip(*m))
    gm = list(zip(*_ints(g, mt)))  # the columns of G M
    # M^T G M is symmetric, so its upper triangle decides the check.
    diffs = (sum(map(mul, mt[i], gm[j])) - d * d * g[i][j] for i in range(n) for j in range(i, n))
    if len(m) != n or any(x % mod if mod else x for x in diffs):
        raise ValueError("matrix does not preserve the form")
    return _bind(q, values, iso)


def _bind(q: QuadraticModule, values: tuple[tuple, ...],
          iso: Optional[Isometry] = None) -> Isometry:
    """The Isometry of q with these raw values (filling in `iso` if given);
    the caller has checked M^T G M = G."""
    iso = object.__new__(Isometry) if iso is None else iso
    object.__setattr__(iso, "module", q)
    object.__setattr__(iso, "values", values)
    return iso


def _eye(ring, n: int) -> tuple[tuple, ...]:
    """Raw values of the n x n identity matrix."""
    one, zero = ring.one.value, ring.zero.value
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


@lru_cache(maxsize=32)
def _gram_inverse(q: QuadraticModule) -> tuple[tuple, ...]:
    """Raw values of G^(-1), computed once per module."""
    return tuple(map(tuple, _values(q.ring, _invert(q.gram, q.ring), q.rank)))


def _invert(rows: Matrix, ring) -> Matrix:
    """Inverse over a local ring: Gauss-Jordan on [M | I].  A unit
    determinant guarantees a unit pivot at every step."""
    n = len(rows)
    if not det(rows, ring).is_unit():
        raise ValueError("matrix not invertible over the ring")
    aug = tuple(r + e for r, e in zip(rows, identity_matrix(ring, n)))
    reduced, pivots = _gauss_jordan(aug, ring, n)
    # Row i holds the pivot of column pivots[i]; put it back at that row.
    return tuple(tuple(row[n:]) for _, row in sorted(zip(pivots, reduced)))


def identity_isometry(q: QuadraticModule) -> Isometry:
    return _isometry(q, _eye(q.ring, q.rank))


def _reflect(q: QuadraticModule, w: Sequence, xs: Sequence[Sequence]) -> list[list]:
    """Raw images of the raw vectors xs under the reflection in the raw
    vector w, x - (B(x, w) / q(w)) w; requires q(w) to be a unit.  With
    W = d w, X = d' x and H = e G integral, q(w) = N / (e d^2) for
    N = W^T H W, and the image is (N X - 2 (X^T H W) W) / (d' N)."""
    (lw,), _ = integer_lift([w], q.ring)
    h, _ = integer_lift(q.gram_values, q.ring)
    hw = [sum(map(mul, row, lw)) for row in h]
    norm = sum(map(mul, lw, hw))
    if not Scalar(q.ring, norm).is_unit():  # d and e are units
        raise ValueError("reflection needs a vector of unit length value")
    lx, dx = integer_lift(xs, q.ring)
    twice = [2 * sum(map(mul, x, hw)) for x in lx]
    return _unlift(q.ring, [[norm * xi - t * wi for xi, wi in zip(x, lw)]
                            for x, t in zip(lx, twice)], dx * norm)


def reflection(q: QuadraticModule, v: Sequence) -> Isometry:
    """Hyperplane reflection x -> x - (B(x, v) / q(v)) v; requires q(v) to be
    a unit.  Involutive, sends v to -v, fixes the orthogonal hyperplane."""
    (w,) = _values(q.ring, [vec(q.ring, v)], q.rank)
    return _isometry(q, list(zip(*_reflect(q, w, _eye(q.ring, q.rank)))))


def _witt_reflections(q: QuadraticModule, images: Sequence[Sequence],
                      targets: Sequence[Sequence]) -> tuple[list[list], list[list]]:
    """Witt's extension by reflections on raw vectors: the reflection
    vectors (unreduced sums and differences), in the order they are applied,
    that carry images[i] onto targets[i] for each target, and every image
    after them (images past len(targets) ride along).

    Step i reflects in b - c (b the target, c the current image) when
    q(b - c) is a unit, else in b + c and then b: over a local ring with 2
    invertible one of the two lengths is a unit, since they sum to 4 q(b).
    Both vectors are orthogonal to the earlier targets, which stay fixed."""
    ring = q.ring
    if not (ring.is_local and ring.two_is_unit):
        raise RingError("reflection steps need a local ring with 2 a unit")
    images, targets = [list(x) for x in images], [list(b) for b in targets]
    refs: list[list] = []
    for i, b in enumerate(targets):
        c = images[i]
        if c == b:
            continue
        w = [bi - ci for bi, ci in zip(b, c)]
        try:
            images, step = _reflect(q, w, images), [w]
        except ValueError:  # q(b - c) is not a unit, so q(b + c) is
            step = [[bi + ci for bi, ci in zip(b, c)], b]
            images = _reflect(q, b, _reflect(q, step[0], images))
        refs += step
    if images[:len(targets)] != targets:
        raise AssertionError("reflections did not carry the images onto the targets")
    return refs, images


def cartan_dieudonne(q: QuadraticModule, phi: Isometry) -> list[Vector]:
    """Reflection vectors whose product (in list order) is exactly phi; at
    most two per basis vector, so at most 2n in total.

    The Witt step carries phi(b) back to b for each vector b of an orthogonal
    basis.  The reflections r_1, ..., r_m it applies give r_m ... r_1 phi = 1,
    so phi = r_1 ... r_m since each r_i is an involution, which is checked
    on raw rows: `_reflect` by r_m, ..., r_1 carries e_j to phi's column j."""
    if phi.module != q:
        raise ValueError("isometry belongs to a different module")
    ring, n = q.ring, q.rank
    if all(q.gram[i][j].is_zero() for i in range(n) for j in range(n) if i != j) \
            and all(q.gram[i][i].is_unit() for i in range(n)):
        basis = _eye(ring, n)
    else:
        basis = list(zip(*_values(ring, diagonalize(q)[0], n)))
    images = _product(ring, basis, phi.values)
    refs, _ = _witt_reflections(q, images, basis)
    if len(refs) > 2 * n:
        raise AssertionError("factorization exceeded 2n reflections")
    cols = _eye(ring, n)
    for v in reversed(refs):
        cols = _reflect(q, v, cols)
    if tuple(zip(*cols)) != phi.values:
        raise AssertionError("reflection product does not reproduce the isometry")
    return [vec(ring, v) for v in refs]


def orthonormal_extension(q: QuadraticModule, f: Frame) -> Isometry:
    """Isometry sending the first len(f) standard basis vectors to the frame,
    a Witt product of at most 2 len(f) reflections; needs the Gram matrix of
    q to be the identity (Euclidean space)."""
    eye = _eye(q.ring, q.rank)
    if q.gram_values != eye:
        raise RingError("extension implemented for Euclidean Gram matrices")
    _, cols = _witt_reflections(q, eye, _values(q.ring, f.vectors, q.rank))
    return _isometry(q, list(zip(*cols)))


def frame_transport(q: QuadraticModule, f1: Frame, f2: Frame) -> Isometry:
    """Isometry phi with phi(f1[i]) = f2[i] for any form over a local ring
    with 2 a unit (two frames share their Gram matrix, so Witt's theorem
    applies): one Witt pass carries f1 onto f2, and the images of the
    identity rows riding along are phi's columns; verified exactly."""
    if len(f1) != len(f2):
        raise ValueError("frames must have equal length")
    if f1.ambient != q or f2.ambient != q:
        raise ValueError("frames must live in the given module")
    ring, n = q.ring, q.rank
    rows = _values(ring, f1.vectors, n) + list(_eye(ring, n))
    _, images = _witt_reflections(q, rows, _values(ring, f2.vectors, n))
    phi = _isometry(q, list(zip(*images[len(f1):])))
    for v1, v2 in zip(f1.vectors, f2.vectors):
        if phi.apply(v1) != v2:
            raise AssertionError("transport failed to match the frames")
    return phi


def stabilizer_restrict(phi: Isometry, a_rank: int) -> Isometry:
    """Restrict an isometry of A + B that fixes the B-block pointwise to its
    A-block; the matrix is necessarily block-diagonal and the restriction
    round-trips with the block embedding."""
    q, m = phi.module, phi.values
    n = q.rank
    if any(m[i][j] != int(i == j) for j in range(a_rank, n) for i in range(n)):
        raise ValueError("isometry moves the second block")
    if any(m[i][j] for j in range(a_rank) for i in range(a_rank, n)):
        raise AssertionError("isometry fixing the B-block is not block-diagonal")
    a_mod = QuadraticModule(q.ring, tuple(row[:a_rank] for row in q.gram[:a_rank]))
    return _isometry(a_mod, [row[:a_rank] for row in m[:a_rank]])


def block_sum(phi: Isometry, b_mod: QuadraticModule) -> Isometry:
    """phi + identity on the orthogonal sum (the stabilizer embedding)."""
    total = orthogonal_sum(phi.module, b_mod)
    n1, n2 = phi.module.rank, b_mod.rank
    zero = total.ring.zero.value
    rows = [row + (zero,) * n2 for row in phi.values]
    rows += [(zero,) * n1 + row for row in _eye(total.ring, n2)]
    return _isometry(total, rows)


ENUMERATION_CAP = 1_000_000


def _grow(known: np.ndarray, frontier: np.ndarray, S: np.ndarray, m: int,
          w: np.ndarray, cap: Optional[int] = None) -> np.ndarray:
    """Close the sorted codes `known` under left multiplication by S mod m,
    breadth-first from the frontier codes (which `known` holds).  Returns
    the grown sorted codes; refuses to grow past `cap` elements.  Each
    level's new codes are merged into `known` once, at its end.  Until then
    the blocks' new codes are deduplicated whenever they pass twice the last
    deduplicated count, so a level holds a few times its own size."""
    n = S.shape[1]
    while len(frontier):
        mats = gfnum.decode(frontier, w, m).reshape(-1, n, n)
        level, held, bound = [], 0, gfnum._BLOCK_ENTRIES
        for block in gfnum.blocks(len(mats), S.size):
            codes = np.unique(gfnum.codes(gfnum.mod(S[None] @ mats[block, None], m), w))
            level.append(codes[~gfnum.member(known, codes)])
            held += len(level[-1])
            if held > 2 * bound:
                level = [np.unique(np.concatenate(level))]
                held = len(level[0])
                bound = max(held, bound)
        frontier = np.unique(np.concatenate(level))
        if cap is not None and len(known) + len(frontier) > cap:
            raise BudgetError(f"group exceeds the enumeration cap {cap}")
        known = np.insert(known, np.searchsorted(known, frontier), frontier)
    return known


def _closure(gens: Sequence[np.ndarray], n: int, m: int,
             cap: Optional[int] = None) -> np.ndarray:
    """The sorted codes of the group generated by invertible n x n matrices
    mod m: breadth-first from the identity, multiplying on the left by each
    generator; refuses to grow past `cap` elements, and refuses before any
    product when codes overflow int64."""
    w = gfnum.code_weights(m, n * n)
    one = gfnum.codes(np.eye(n, dtype=np.int64), w)
    return _grow(one, one, np.array(gens, dtype=np.int64).reshape(-1, n, n), m, w, cap)


def _reflections(q: QuadraticModule) -> np.ndarray:
    """The distinct hyperplane reflections of q over Z/M (M = p over F_p,
    p^N over truncated Z_p; other rings are refused), as an (r, n, n) array
    of residue matrices: one per line through a vector of unit length value,
    represented by its vector whose first unit coordinate is 1.  tau_v = tau_w
    forces w = c v for a unit c (apply both to v), so no two coincide.  Each
    is `_reflect` of the identity rows, transposed, and is checked with the
    whole closure by `enumerate_group`'s batched M^T G M = G."""
    m, p, n = q.ring.modulus, q.ring.p, q.rank
    if m is None:
        raise RingError(f"group enumeration needs a residue ring, not {q.ring.label()}")
    vectors = gfnum.all_vectors(m, n)
    leading = vectors[np.arange(len(vectors)), (gfnum.mod(vectors, p) != 0).argmax(axis=1)]
    vectors = vectors[leading == 1]
    # The table budget keeps n^2 (M - 1)^3, the largest form value summed,
    # below 2^63 for n >= 2; for n = 1 the one line left is (1).
    G = np.array(q.gram_values, dtype=np.int64)
    units = vectors[gfnum.mod(gfnum.gram_values(G, vectors, m), p) != 0]
    eye = _eye(q.ring, n)
    return np.array([_reflect(q, v, eye) for v in units.tolist()],
                    dtype=np.int64).reshape(-1, n, n).transpose(0, 2, 1)


def enumerate_group(q: QuadraticModule) -> list[Isometry]:
    """Every element of O(q) over Z/M, the closure of the hyperplane
    reflections under composition (refused past ENUMERATION_CAP elements);
    canonically sorted (codes sort like the flattened matrices).  One batched
    product checks M^T G M = G for every element before any is bound."""
    n, m = q.rank, q.ring.modulus
    codes = _closure(_reflections(q), n, m, ENUMERATION_CAP)
    M = gfnum.decode(codes, gfnum.code_weights(m, n * n), m).reshape(-1, n, n)
    G = np.array(q.gram_values, dtype=np.int64)
    if gfnum.mod(M.transpose(0, 2, 1) @ gfnum.mod(G @ M, m) - G, m).any():
        raise ValueError("matrix does not preserve the form")
    return [_bind(q, tuple(map(tuple, g))) for g in M.tolist()]


def _derived_codes(elements: list[Isometry]) -> tuple[np.ndarray, np.ndarray]:
    """Sorted codes of the elements and of the commutator subgroup of O(q),
    for `elements` the whole group (it must hold every reflection of q).

    Reflections generate O(q) and are involutions, so [G, G] is the normal
    closure of the commutators s t s t of reflections s, t.  One closure
    grows by each of those not yet in it; a subgroup <X> is normal once
    s x s lies in it for every reflection s and every x in X, so the
    conjugates of each added generator are tried in turn until none adds."""
    q = elements[0].module
    S = _reflections(q)
    m, n = q.ring.modulus, q.rank
    w = gfnum.code_weights(m, n * n)
    group = np.sort(gfnum.codes(np.fromiter((c for e in elements for row in e.values for c in row),
                                            dtype=np.int64, count=len(elements) * n * n), w))
    if not gfnum.member(group, gfnum.codes(S, w)).all():
        raise ValueError("elements lack a reflection of the form")
    st = gfnum.mod(S[:, None] @ S[None, :], m)
    known, X = gfnum.codes(np.eye(n, dtype=np.int64), w), S[:0]
    pending = gfnum.mod(st @ st, m).reshape(-1, n, n)
    while len(pending):
        start, codes = len(X), gfnum.codes(pending, w)
        outside = ~gfnum.member(known, codes)
        while outside.any():
            X = np.concatenate([X, pending[outside.argmax()][None]])
            known = _grow(known, known, X, m, w)
            outside &= ~gfnum.member(known, codes)
        pending = gfnum.mod(gfnum.mod(S[:, None] @ X[start:], m) @ S[:, None], m).reshape(-1, n, n)
    return group, known


def abelianization_exponent(elements: list[Isometry]) -> int:
    """Exponent of G modulo its commutator subgroup.  The groups here are
    generated by reflections (order 2), so the exponent must divide 2; the
    computation verifies that every square lands in the derived subgroup."""
    group, derived = _derived_codes(elements)
    q = elements[0].module
    m, n = q.ring.modulus, q.rank
    w = gfnum.code_weights(m, n * n)
    M = gfnum.decode(group, w, m).reshape(-1, n, n)
    if not gfnum.member(derived, gfnum.codes(gfnum.mod(M @ M, m), w)).all():
        raise AssertionError("abelianization exponent does not divide 2")
    return 1 if gfnum.member(derived, group).all() else 2


def ordered_frames(q: QuadraticModule, k: int) -> list[tuple[Vector, ...]]:
    """All ordered k-tuples of pairwise-orthogonal unit vectors."""
    from stiefel_lab.stiefel import UnitSphere, _frame_rows

    sphere = UnitSphere(q)
    units = [vec(q.ring, v) for v in sphere.vectors.tolist()]
    return [tuple(units[i] for i in t) for t in _frame_rows(sphere, k).tolist()]


def _orthonormal_extensions(q: QuadraticModule, frames: np.ndarray) -> np.ndarray:
    """The matrices of `orthonormal_extension` for an (N, k, n) array of F_p
    frames, by `_witt_reflections`' steps on all at once (a vector of value 0
    reflects nothing, which masks a step per frame), checked in one batch."""
    p, (count, k, n) = q.ring.p, frames.shape
    if q.gram_values != _eye(q.ring, n):
        raise RingError("extension implemented for Euclidean Gram matrices")
    inverse = np.array([0] + [pow(a, -1, p) for a in range(1, p)], dtype=np.int64)

    def reflect(X, w):  # x - (2 x.w / q(w)) w for each image row x
        t = 2 * (X @ w[:, :, None]) * inverse[gfnum.mod((w * w).sum(axis=1), p), None, None]
        return gfnum.mod(X - gfnum.mod(t, p) * w[:, None, :], p)

    X = np.broadcast_to(np.eye(n, dtype=np.int64), (count, n, n))  # rows: images of e_j
    for i in range(k):
        b, c = frames[:, i], X[:, i]
        w = gfnum.mod(b - c, p)
        detour = (w.any(axis=1) & (gfnum.mod((w * w).sum(axis=1), p) == 0))[:, None]
        X = reflect(reflect(reflect(X, w), (b + c) * detour), b * detour)
    eye = np.eye(n, dtype=np.int64)
    if not ((X[:, :k] == frames).all() and (gfnum.mod(X @ X.transpose(0, 2, 1), p) == eye).all()):
        raise AssertionError("an extension does not send e_1..e_k isometrically onto its frame")
    return X.transpose(0, 2, 1)


# Most frame pairs one transport sweep checks (F_5, n = 4, k = 2 has 12,960,000).
TRANSPORT_PAIR_BUDGET = 50_000_000


def frame_transport_exhaustive(q: QuadraticModule, k: int, seed: int = 0) -> dict:
    """Transport between *every* ordered pair of k-frames over F_p, refused
    past TRANSPORT_PAIR_BUDGET pairs (priced by the clique count before any
    frame is listed, for k <= 3): `_orthonormal_extensions` builds every
    extension, each transport B A^(-1) is re-checked on residues to match
    the frames and preserve the form, and 50 seeded pairs also go through
    the single-pair frame_transport API."""
    import random

    from stiefel_lab.stiefel import UnitSphere, _count_cliques, _frame_rows

    sphere = UnitSphere(q)  # refuses a ring other than F_p
    p, n = q.ring.p, q.rank
    rows = None if 0 < k <= 3 else _frame_rows(sphere, k)
    count = len(rows) if rows is not None else factorial(k) * _count_cliques(sphere, k)[k]
    if count ** 2 > TRANSPORT_PAIR_BUDGET:
        raise BudgetError(f"transport sweep over {count} frames needs "
                          f"{count ** 2} transports, more than {TRANSPORT_PAIR_BUDGET}")
    frames = sphere.vectors[_frame_rows(sphere, k) if rows is None else rows]
    mats = _orthonormal_extensions(q, frames)
    f_cols = mats[:, :, :k]  # the frame vectors are the leading columns
    inv = np.transpose(mats, (0, 2, 1))  # Euclidean Gram: inverse = transpose
    total = 0
    for block in gfnum.blocks(len(mats), len(mats) * n * n):
        phi = gfnum.mod(mats[None, :, :, :] @ inv[block, None, :, :], p)
        moved = gfnum.mod(phi @ f_cols[block, None, :, :], p)
        if not (moved == f_cols[None, :, :, :]).all():
            raise AssertionError("a transport failed to match the target frame")
        if not (gfnum.mod(phi.transpose(0, 1, 3, 2) @ phi, p) == np.eye(n, dtype=np.int64)).all():
            raise AssertionError("a transport is not an isometry")
        total += phi.shape[0] * phi.shape[1]
    rng = random.Random(seed)
    spot_checks = min(50, len(frames) ** 2)
    for _ in range(spot_checks):
        f1 = frame(q, frames[rng.randrange(len(frames))].tolist())
        f2 = frame(q, frames[rng.randrange(len(frames))].tolist())
        frame_transport(q, f1, f2)  # raises unless phi(f1) = f2
    return {"frames": len(frames), "pairs": total, "spot_checks": spot_checks}
