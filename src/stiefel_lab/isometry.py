"""Isometries of quadratic modules: reflections, reflection factorization,
frame transitivity, stabilizer restriction, and small-group enumeration.

Matrices act on column vectors; an isometry of (V, q) is M with
M^T G M = G exactly, which every constructor verifies before returning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from stiefel_lab import gfnum
from stiefel_lab.rings import (
    FINITE_FIELD,
    PADIC,
    BudgetError,
    RingError,
    Scalar,
    is_square,
    padic_sqrt,
)
from stiefel_lab.quadmod import (
    Frame,
    Matrix,
    QuadraticModule,
    Submodule,
    Vector,
    _gauss_jordan,
    det,
    diagonalize,
    evaluate,
    identity_matrix,
    mat_mul,
    mat_transpose,
    mat_vec,
    orthogonal_complement,
    polar,
    vec,
)


@dataclass(frozen=True)
class Isometry:
    """Form-preserving automorphism, stored as its matrix (columns are the
    images of the standard basis vectors)."""

    module: QuadraticModule
    matrix: Matrix

    def __post_init__(self) -> None:
        g = self.module.gram
        check = mat_mul(mat_mul(mat_transpose(self.matrix), g), self.matrix)
        if check != g:
            raise ValueError("matrix does not preserve the form")

    def apply(self, x: Sequence) -> Vector:
        return mat_vec(self.matrix, vec(self.module.ring, x))

    def compose(self, other: "Isometry") -> "Isometry":
        if self.module != other.module:
            raise ValueError("isometries of different modules")
        return Isometry(self.module, mat_mul(self.matrix, other.matrix))

    def inverse(self) -> "Isometry":
        # M^T G M = G gives M^(-1) = G^(-1) M^T G without elimination.
        g = self.module.gram
        ginv = _invert(g, self.module.ring)
        return Isometry(self.module, mat_mul(mat_mul(ginv, mat_transpose(self.matrix)), g))

    def is_identity(self) -> bool:
        return self.matrix == identity_matrix(self.module.ring, self.module.rank)

    def int_matrix(self) -> tuple[tuple[int, ...], ...]:
        if self.module.ring.kind != FINITE_FIELD:
            raise RingError("int_matrix is a finite-field accessor")
        return tuple(tuple(e.value for e in row) for row in self.matrix)


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
    return Isometry(q, identity_matrix(q.ring, q.rank))


def reflection(q: QuadraticModule, v: Sequence) -> Isometry:
    """Hyperplane reflection x -> x - (B(x, v) / q(v)) v; requires q(v) to be
    a unit.  Involutive, sends v to -v, fixes the orthogonal hyperplane."""
    v = vec(q.ring, v)
    qv = evaluate(q, v)
    if not qv.is_unit():
        raise ValueError("reflection needs a vector of unit length value")
    n = q.rank
    cols = []
    for j in range(n):
        e = tuple(q.ring.one if t == j else q.ring.zero for t in range(n))
        coef = polar(q, e, v) / qv
        cols.append(tuple(ei - coef * vi for ei, vi in zip(e, v)))
    return Isometry(q, mat_transpose(tuple(cols)))


def cartan_dieudonne(q: QuadraticModule, phi: Isometry) -> list[Vector]:
    """Reflection vectors whose product (in list order) is exactly phi; at
    most two per basis vector, so at most 2n in total.

    For each vector b of an orthogonal basis, phi is corrected to fix b by
    one reflection when q(b - phi(b)) is a unit, else by the two-reflection
    detour through b + phi(b) and b (one of the two lengths is always a unit
    over a local ring with 2 invertible, since they sum to 4 q(b))."""
    ring = q.ring
    if not (ring.is_local and ring.two_is_unit):
        raise RingError("factorization needs a local ring with 2 a unit")
    if phi.module != q:
        raise ValueError("isometry belongs to a different module")
    if all(q.gram[i][j].is_zero() for i in range(q.rank) for j in range(q.rank) if i != j) \
            and all(q.gram[i][i].is_unit() for i in range(q.rank)):
        basis = [tuple(ring.one if t == i else ring.zero for t in range(q.rank))
                 for i in range(q.rank)]
    else:
        p_matrix, _ = diagonalize(q)
        basis = list(mat_transpose(p_matrix))
    refs: list[Vector] = []
    current = phi
    for b in basis:
        c = current.apply(b)
        if c == vec(ring, b):
            continue
        w1 = tuple(bi - ci for bi, ci in zip(b, c))
        if evaluate(q, w1).is_unit():
            tau = reflection(q, w1)
            current = tau.compose(current)
            refs.append(w1)
        else:
            w2 = tuple(bi + ci for bi, ci in zip(b, c))
            tau2 = reflection(q, w2)
            taub = reflection(q, b)
            current = taub.compose(tau2.compose(current))
            refs.append(w2)
            refs.append(vec(ring, b))
    if not current.is_identity():
        raise AssertionError("reduction did not reach the identity")
    if len(refs) > 2 * q.rank:
        raise AssertionError("factorization exceeded 2n reflections")
    check = identity_isometry(q)
    for v in refs:
        check = check.compose(reflection(q, v))
    if check.matrix != phi.matrix:
        raise AssertionError("reflection product does not reproduce the isometry")
    return refs


def _orthonormal_columns(q: QuadraticModule, sub: Submodule,
                         height_bound: int = 40) -> list[Vector]:
    """Columns spanning `sub` on which the form is the identity: diagonalize,
    scale square entries to 1, and rotate pairs of non-square entries (their
    product is a square) onto <1, 1>.  Raises when the ring lacks the needed
    square roots within the search regime."""
    from stiefel_lab.repsolve import represents

    ring = q.ring
    form = sub.restricted_module()
    if form.rank == 0:
        return []
    p_matrix, entries = diagonalize(form)
    cols = list(mat_transpose(p_matrix))

    def sqrt_scalar(a: Scalar) -> Optional[Scalar]:
        if ring.kind == FINITE_FIELD:
            return is_square(a)
        if ring.kind == PADIC:
            return padic_sqrt(a)
        f = Fraction(a.value)
        if f.numerator < 0:
            return None
        num_r = math.isqrt(f.numerator)
        den_r = math.isqrt(f.denominator)
        if num_r * num_r == f.numerator and den_r * den_r == f.denominator:
            return Scalar(ring, Fraction(num_r, den_r))
        return None

    ortho: list[Vector] = []
    pending: list[tuple[Vector, Scalar]] = []
    for col, a in zip(cols, entries):
        root = sqrt_scalar(a)
        if root is not None:
            ortho.append(tuple(c / root for c in col))
        else:
            pending.append((col, a))
    while len(pending) >= 2:
        (c1, d1), (c2, d2) = pending.pop(), pending.pop()
        pair = QuadraticModule(ring, ((d1, ring.zero), (ring.zero, d2)))
        u = represents(pair, ring.one, height_bound)
        if u is None:
            raise RingError("orthonormal extension: could not represent 1 on a pair")
        x, y = u
        first = tuple(x * a + y * b for a, b in zip(c1, c2))
        w = (-d2 * y, d1 * x)
        t = sqrt_scalar(d1 * d2)
        if t is None:
            raise RingError("orthonormal extension: product of entries has no square root")
        second = tuple((w[0] * a + w[1] * b) / t for a, b in zip(c1, c2))
        ortho.append(first)
        ortho.append(second)
    if pending:
        raise RingError("orthonormal extension: odd leftover non-square entry")
    out = [sub.to_ambient(c) for c in ortho]
    for i, v in enumerate(out):
        if evaluate(q, v) != ring.one:
            raise AssertionError(f"extension column {i} does not have value 1")
        for j in range(i):
            if not polar(q, v, out[j]).is_zero():
                raise AssertionError(f"extension columns {i}, {j} are not orthogonal")
    return out


def orthonormal_extension(q: QuadraticModule, f: Frame) -> Isometry:
    """Isometry sending the first len(f) standard basis vectors to the frame;
    needs the Gram matrix of q to be the identity (Euclidean space)."""
    ring = q.ring
    if q.gram != identity_matrix(ring, q.rank):
        raise RingError("extension implemented for Euclidean Gram matrices")
    rest = _orthonormal_columns(q, orthogonal_complement(q, f.as_submodule()))
    cols = list(f.vectors) + rest
    if len(cols) != q.rank:
        raise AssertionError("extension has wrong rank")
    return Isometry(q, mat_transpose(tuple(cols)))


def frame_transport(q: QuadraticModule, f1: Frame, f2: Frame) -> Isometry:
    """Isometry phi with phi(f1[i]) = f2[i], built from orthonormal
    extensions of both frames; verified exactly before returning."""
    if len(f1) != len(f2):
        raise ValueError("frames must have equal length")
    if f1.ambient != q or f2.ambient != q:
        raise ValueError("frames must live in the given module")
    m1 = orthonormal_extension(q, f1)
    m2 = orthonormal_extension(q, f2)
    phi = m2.compose(m1.inverse())
    for v1, v2 in zip(f1.vectors, f2.vectors):
        if phi.apply(v1) != v2:
            raise AssertionError("transport failed to match the frames")
    return phi


def stabilizer_restrict(phi: Isometry, a_rank: int) -> Isometry:
    """Restrict an isometry of A + B that fixes the B-block pointwise to its
    A-block; the matrix is necessarily block-diagonal and the restriction
    round-trips with the block embedding."""
    q = phi.module
    ring = q.ring
    n = q.rank
    for j in range(a_rank, n):
        col = tuple(phi.matrix[i][j] for i in range(n))
        want = tuple(ring.one if i == j else ring.zero for i in range(n))
        if col != want:
            raise ValueError("isometry moves the second block")
    for j in range(a_rank):
        for i in range(a_rank, n):
            if not phi.matrix[i][j].is_zero():
                raise AssertionError("isometry fixing the B-block is not block-diagonal")
    a_gram = tuple(tuple(q.gram[i][j] for j in range(a_rank)) for i in range(a_rank))
    a_mod = QuadraticModule(ring, a_gram)
    a_mat = tuple(tuple(phi.matrix[i][j] for j in range(a_rank)) for i in range(a_rank))
    return Isometry(a_mod, a_mat)


def block_sum(phi: Isometry, b_mod: QuadraticModule) -> Isometry:
    """phi + identity on the orthogonal sum (the stabilizer embedding)."""
    from stiefel_lab.quadmod import orthogonal_sum

    total = orthogonal_sum(phi.module, b_mod)
    ring = total.ring
    n1, n2 = phi.module.rank, b_mod.rank
    rows = []
    for i in range(n1):
        rows.append(tuple(phi.matrix[i]) + (ring.zero,) * n2)
    for i in range(n2):
        rows.append((ring.zero,) * n1 + tuple(
            ring.one if j == i else ring.zero for j in range(n2)))
    return Isometry(total, tuple(rows))


ENUMERATION_CAP = 1_000_000


def _closure_mod_p(gens: Sequence[np.ndarray], n: int, p: int,
                   cap: Optional[int] = None) -> dict[tuple, np.ndarray]:
    """The group generated by invertible n x n matrices mod p: breadth-first
    from the identity, multiplying on the left by each generator.  Keyed by
    the flattened matrix; refuses to grow past `cap` elements."""
    identity = np.eye(n, dtype=np.int64)
    seen = {tuple(identity.ravel().tolist()): identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = (g @ m) % p
                key = tuple(prod.ravel().tolist())
                if key not in seen:
                    if cap is not None and len(seen) >= cap:
                        raise BudgetError(f"group exceeds the enumeration cap {cap}")
                    seen[key] = prod
                    nxt.append(prod)
        frontier = nxt
    return seen


def enumerate_group(q: QuadraticModule, cap: int = ENUMERATION_CAP) -> list[Isometry]:
    """Every element of O(q) over a prime field, as the closure of the
    hyperplane reflections under composition; canonically sorted."""
    ring = q.ring
    if ring.kind != FINITE_FIELD:
        raise RingError("group enumeration is a finite-field operation")
    p, n = ring.p, q.rank
    G = np.array(q.int_gram(), dtype=np.int64)
    vectors = gfnum.all_vectors(p, n)[1:]
    values = gfnum.gram_values(G, vectors, p)
    gens: dict[tuple, np.ndarray] = {}
    for v, val in zip(vectors, values):
        if val % p == 0:
            continue
        tau = _int_reflection(G, v, int(val), p)
        gens.setdefault(tuple(tau.ravel().tolist()), tau)
    seen = _closure_mod_p(list(gens.values()), n, p, cap)
    out = []
    for key in sorted(seen):
        m = seen[key]
        rows = tuple(tuple(Scalar(ring, int(x)) for x in row) for row in m)
        out.append(Isometry(q, rows))
    return out


def _int_reflection(G: np.ndarray, v: np.ndarray, qv: int, p: int) -> np.ndarray:
    n = len(v)
    inv_qv = pow(qv, -1, p)
    cols = []
    for j in range(n):
        e = np.zeros(n, dtype=np.int64)
        e[j] = 1
        coef = 2 * int(e @ G @ v) % p * inv_qv % p
        cols.append((e - coef * v) % p)
    return np.stack(cols, axis=1) % p


def derived_subgroup(elements: list[Isometry]) -> set:
    """The subgroup generated by all commutators, as a set of int matrices."""
    if not elements:
        return set()
    ring = elements[0].module.ring
    p = ring.p
    mats = np.stack([np.array(e.int_matrix(), dtype=np.int64) for e in elements])
    g_gram = np.array(elements[0].module.int_gram(), dtype=np.int64)
    ginv = gfnum.inverse_mod_p(g_gram, p)
    inverses = np.stack([(ginv @ m.T @ g_gram) % p for m in mats])
    commutators: dict[tuple, np.ndarray] = {}
    for i in range(len(mats)):
        lhs = (inverses[i] @ inverses) % p
        rhs = (mats[i] @ mats) % p
        for j in range(len(mats)):
            c = (lhs[j] @ rhs[j]) % p
            commutators[tuple(c.ravel().tolist())] = c
    return set(_closure_mod_p(list(commutators.values()), mats.shape[1], p))


def abelianization_exponent(elements: list[Isometry]) -> int:
    """Exponent of G modulo its commutator subgroup.  The groups here are
    generated by reflections (order 2), so the exponent must divide 2; the
    computation verifies that every square lands in the derived subgroup."""
    derived = derived_subgroup(elements)
    p = elements[0].module.ring.p
    all_in = True
    nontrivial = False
    for e in elements:
        m = np.array(e.int_matrix(), dtype=np.int64)
        sq = (m @ m) % p
        if tuple(sq.ravel().tolist()) not in derived:
            all_in = False
            break
        if tuple(m.ravel().tolist()) not in derived:
            nontrivial = True
    if not all_in:
        raise AssertionError("abelianization exponent does not divide 2")
    return 2 if nontrivial else 1


def ordered_frames(q: QuadraticModule, k: int) -> list[tuple[Vector, ...]]:
    """All ordered k-tuples of pairwise-orthogonal unit vectors."""
    from stiefel_lab.stiefel import SIMPLEX_BUDGET, UnitSphere, _cliques, _ordered_cliques

    sphere = UnitSphere(q)
    out = _ordered_cliques(_cliques(sphere.adjacency(), k, SIMPLEX_BUDGET), k) if k else [()]
    ring = q.ring
    return [tuple(vec(ring, tuple(int(c) for c in sphere.vectors[i])) for i in t)
            for t in out]


def frame_transport_exhaustive(q: QuadraticModule, k: int,
                               spot_check: int = 50, seed: int = 0,
                               chunk: int = 200) -> dict:
    """Transport between *every* ordered pair of k-frames: one verified
    orthonormal extension per frame, then a vectorized pass that builds each
    transport B A^(-1) and re-checks both the frame matching and form
    preservation on residues.  A seeded subsample additionally goes through
    the single-pair frame_transport API."""
    import random

    from stiefel_lab.quadmod import Frame as _Frame

    ring = q.ring
    if ring.kind != FINITE_FIELD:
        raise RingError("the exhaustive sweep enumerates over a prime field")
    p = ring.p
    frames = ordered_frames(q, k)
    exts = []
    for fr in frames:
        iso = orthonormal_extension(q, _Frame(q, fr))
        exts.append(np.array([[e.value for e in row] for row in iso.matrix],
                             dtype=np.int64))
    mats = np.stack(exts) if exts else np.zeros((0, q.rank, q.rank), dtype=np.int64)
    n = q.rank
    f_cols = mats[:, :, :k]  # the frame vectors are the leading columns
    inv = np.transpose(mats, (0, 2, 1))  # Euclidean Gram: inverse = transpose
    total = 0
    for lo in range(0, len(mats), chunk):
        a_inv = inv[lo:lo + chunk]
        a_cols = f_cols[lo:lo + chunk]
        phi = (mats[None, :, :, :] @ a_inv[:, None, :, :]) % p
        moved = (phi @ a_cols[:, None, :, :]) % p
        if not (moved == f_cols[None, :, :, :]).all():
            raise AssertionError("a transport failed to match the target frame")
        gram_check = (np.transpose(phi, (0, 1, 3, 2)) @ phi) % p
        eye = np.eye(n, dtype=np.int64)
        if not (gram_check == eye).all():
            raise AssertionError("a transport is not an isometry")
        total += phi.shape[0] * phi.shape[1]
    rng = random.Random(seed)
    for _ in range(min(spot_check, len(frames) ** 2)):
        f1 = frames[rng.randrange(len(frames))]
        f2 = frames[rng.randrange(len(frames))]
        phi = frame_transport(q, _Frame(q, f1), _Frame(q, f2))
        for v1, v2 in zip(f1, f2):
            if phi.apply(v1) != v2:
                raise AssertionError("spot-checked transport failed to match the frames")
    return {"frames": len(frames), "pairs": total, "spot_checks": min(spot_check, len(frames) ** 2)}
