"""Quadratic modules as symmetric Gram matrices, with exact operations.

Convention: a rank-n module stores a symmetric Gram matrix G and

    q(x)      = x^T G x,
    B_q(x, y) = 2 x^T G y,

so one matrix carries both the form and its polar form (2 is a unit in every
ring where forms are manipulated).  A diagonal form <a_1, ..., a_n> has
G = diag(a_1, ..., a_n); Euclidean n-space has the identity Gram matrix.

Vectors are tuples of Scalars; matrices are tuples of row tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from stiefel_lab.rings import (
    FINITE_FIELD,
    LOCALIZED,
    PADIC,
    RATIONALS,
    INFINITY,
    RingDescriptor,
    RingError,
    Scalar,
    _wrap,
    residue,
    valuation,
)

Vector = tuple[Scalar, ...]
Matrix = tuple[Vector, ...]


class PrecisionError(RingError):
    """A truncated p-adic elimination would need a non-unit pivot."""


def vec(ring: RingDescriptor, entries: Sequence) -> Vector:
    return tuple(e if type(e) is Scalar and e.ring is ring else Scalar(ring, e) for e in entries)


def mat(ring: RingDescriptor, rows: Sequence[Sequence]) -> Matrix:
    return tuple(vec(ring, row) for row in rows)


def std_basis_vector(ring: RingDescriptor, n: int, i: int) -> Vector:
    return vec(ring, [1 if j == i else 0 for j in range(n)])


def _values(ring: RingDescriptor, rows: Sequence[Sequence[Scalar]], width: int) -> list[list]:
    """Raw values of a matrix's entries, checked to lie in `ring` and to form
    rows of length `width`."""
    for row in rows:
        if len(row) != width:
            raise ValueError(f"row of length {len(row)} where {width} is needed")
        for e in row:
            if e.ring is not ring and e.ring != ring:
                raise RingError(f"ring mismatch: {ring.label()} vs {e.ring.label()}")
    return [[e.value for e in row] for row in rows]


def integer_lift(rows: Sequence[Sequence], ring: RingDescriptor) -> tuple[list[list[int]], int]:
    """Integer rows D*rows and the scale D > 0 clearing the denominators of
    raw values; residue rings and Z store ints, so rows come back as is."""
    if ring.kind not in (RATIONALS, LOCALIZED):
        return rows, 1
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row] for row in rows], scale


def _unlift(ring: RingDescriptor, sums: list[list[int]], scale: int) -> list[list]:
    """Raw values of integer rows over a unit scale: one Fraction or one
    reduction mod p^N per entry (over Z the unit scale is +1 or -1)."""
    if ring.kind in (RATIONALS, LOCALIZED):
        return [[Fraction(s, scale) for s in row] for row in sums]
    m = ring.modulus
    if scale != 1:
        k = pow(scale, -1, m) if m else scale
        sums = [[s * k for s in row] for row in sums]
    return sums if m is None else [[s % m for s in row] for row in sums]


def _ints(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    return [[sum(map(mul, r, c)) for c in b] for r in a]


def _product(ring: RingDescriptor, a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    """Raw values of A B^T for raw rows a and b, summed on integer lifts: the
    one product kernel, behind mat_mul, mat_vec and isometries."""
    (la, da), (lb, db) = integer_lift(a, ring), integer_lift(b, ring)
    return _unlift(ring, _ints(la, lb), da * db)


def _scalars(ring: RingDescriptor, rows: Sequence[Sequence]) -> Matrix:
    """Scalars of raw values that are already in normal form."""
    return tuple(tuple([_wrap(ring, x) for x in row]) for row in rows)


def mat_vec(rows: Matrix, x: Vector) -> Vector:
    return tuple(r[0] for r in mat_mul(rows, tuple((c,) for c in x)))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not (a and b and b[0]):
        return tuple(() for _ in a)
    ring = b[0][0].ring
    bt = list(zip(*_values(ring, b, len(b[0]))))
    return _scalars(ring, _product(ring, _values(ring, a, len(b)), bt))


def mat_transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def identity_matrix(ring: RingDescriptor, n: int) -> Matrix:
    return tuple(std_basis_vector(ring, n, i) for i in range(n))


def _bareiss_det(rows: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix."""
    n = len(rows)
    if n == 0:
        return 1
    a = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def det(rows: Matrix, ring: RingDescriptor) -> Scalar:
    """Exact determinant: Bareiss on the integer lift, divided by scale^n."""
    lifted, scale = integer_lift(_values(ring, rows, len(rows)), ring)
    d = _bareiss_det(lifted)
    return Scalar(ring, d if scale == 1 else Fraction(d, scale ** len(rows)))


def _pivot_valuation(x: Scalar):
    """0 at a unit, +infinity at zero, else the valuation over Z_(p) and Z_p
    (Z carries no prime: its non-units count as 0)."""
    if x.is_unit():
        return 0
    if x.is_zero():
        return INFINITY
    return 0 if x.ring.p is None else valuation(x)


def _gauss_jordan(rows: Matrix, ring: RingDescriptor,
                  ncols: int) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form on the first `ncols` columns, with
    valuation-aware pivoting; further columns ride along.

    Returns the reduced rows and the pivot columns: row i has a 1 at column
    pivots[i] and zeros at the other pivot columns, and rows past the last
    pivot vanish on the first `ncols` columns.  Over Z_(p) pivots are chosen
    with minimal valuation, so the first `ncols` columns stay in the ring.
    Over truncated p-adics only unit pivots keep full precision; anything
    else raises PrecisionError rather than silently degrading.
    """
    a = [list(r) for r in rows]
    nrows = len(a)
    pivots: list[int] = []
    for r in range(min(nrows, ncols)):
        best = None
        for i in range(r, nrows):
            for c in range(ncols):
                if c in pivots:
                    continue
                v = _pivot_valuation(a[i][c])
                if v == INFINITY:
                    continue
                if best is None or v < best[0]:
                    best = (v, i, c)
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        v, i, c = best
        if ring.kind == PADIC and v > 0:
            raise PrecisionError(
                "elimination over truncated p-adics hit a non-unit pivot; "
                "raise the working precision"
            )
        a[r], a[i] = a[i], a[r]
        inv_piv = a[r][c]
        a[r] = [e / inv_piv for e in a[r]]
        for i2 in range(nrows):
            if i2 != r and not a[i2][c].is_zero():
                f = a[i2][c]
                a[i2] = [e - f * pe for e, pe in zip(a[i2], a[r])]
        pivots.append(c)
    return a, pivots


def kernel(rows: Matrix, ring: RingDescriptor, ncols: Optional[int] = None) -> list[Vector]:
    """Basis of {x : rows . x = 0}, read off the free columns of the reduced
    rows.  Over Z_(p) the minimal-valuation pivots make the basis reduce to a
    linearly independent family mod p (a direct summand)."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    a, pivots = _gauss_jordan(rows, ring, ncols)
    out = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        x = [ring.zero] * ncols
        x[fc] = ring.one
        for i, pc in enumerate(pivots):
            x[pc] = -a[i][fc]
        out.append(tuple(x))
    return out


def row_rank(rows: Matrix, ring: RingDescriptor) -> int:
    return len(_gauss_jordan(rows, ring, len(rows[0]) if rows else 0)[1])


@dataclass(frozen=True)
class QuadraticModule:
    """Free quadratic module presented by a symmetric Gram matrix."""

    ring: RingDescriptor
    gram: Matrix

    def __post_init__(self) -> None:
        n = len(self.gram)
        for row in self.gram:
            if len(row) != n:
                raise ValueError("Gram matrix must be square")
        for i in range(n):
            for j in range(i):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("Gram matrix must be exactly symmetric")

    @property
    def rank(self) -> int:
        return len(self.gram)

    @cached_property
    def gram_values(self) -> tuple[tuple, ...]:
        """Raw values of the Gram matrix, checked once to lie in the ring."""
        return tuple(map(tuple, _values(self.ring, self.gram, self.rank)))

    def det(self) -> Scalar:
        return det(self.gram, self.ring)

    def is_nonsingular(self) -> bool:
        return self.det().is_unit()


def quadratic_module(ring: RingDescriptor, rows: Sequence[Sequence]) -> QuadraticModule:
    return QuadraticModule(ring, mat(ring, rows))


def diagonal_module(ring: RingDescriptor, entries: Sequence) -> QuadraticModule:
    n = len(entries)
    rows = [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return quadratic_module(ring, rows)


def euclidean(ring: RingDescriptor, n: int) -> QuadraticModule:
    return diagonal_module(ring, [1] * n)


def _as_vector(q: QuadraticModule, x: Sequence) -> Vector:
    if len(x) != q.rank:
        raise ValueError(f"vector length {len(x)} does not match rank {q.rank}")
    return vec(q.ring, x)


def _form_sum(q: QuadraticModule, x: Vector, y: Vector) -> Scalar:
    """x^T G y on integer lifts, skipping zero coordinates of x."""
    ring = q.ring
    (xs, ys), d = integer_lift(_values(ring, [x, y], q.rank), ring)
    g, e = integer_lift(q.gram_values, ring)
    total = sum(xi * sum(map(mul, row, ys)) for xi, row in zip(xs, g) if xi)
    return _wrap(ring, _unlift(ring, [[total]], d * d * e)[0][0])


def evaluate(q: QuadraticModule, x: Sequence) -> Scalar:
    x = _as_vector(q, x)
    return _form_sum(q, x, x)


def polar(q: QuadraticModule, x: Sequence, y: Sequence) -> Scalar:
    """B(x, y) = q(x + y) - q(x) - q(y) = 2 x^T G y; the factor of 2 lives
    here, not in the Gram matrix."""
    total = _form_sum(q, _as_vector(q, x), _as_vector(q, y))
    return total + total


def orthogonal_sum(q1: QuadraticModule, q2: QuadraticModule) -> QuadraticModule:
    if q1.ring != q2.ring:
        raise RingError("orthogonal sum needs a common ring")
    n1, n2 = q1.rank, q2.rank
    zero = q1.ring.zero
    rows = []
    for i in range(n1):
        rows.append(tuple(q1.gram[i]) + (zero,) * n2)
    for i in range(n2):
        rows.append((zero,) * n1 + tuple(q2.gram[i]))
    return QuadraticModule(q1.ring, tuple(rows))


def hyperbolic_space(ring: RingDescriptor, n: int) -> QuadraticModule:
    """n<1,-1>, the split form of rank 2n."""
    return diagonal_module(ring, [1 if i % 2 == 0 else -1 for i in range(2 * n)])


@dataclass(frozen=True)
class Submodule:
    """Direct summand of a quadratic module, stored by an explicit basis."""

    ambient: QuadraticModule
    basis: Matrix  # rows are basis vectors in ambient coordinates

    def __post_init__(self) -> None:
        ring = self.ambient.ring
        k = len(self.basis)
        for b in self.basis:
            if len(b) != self.ambient.rank:
                raise ValueError("basis vector has wrong length")
        if k == 0:
            return
        # Independence over the residue field makes a direct summand; Q and
        # Z check over Q.
        field = ring.residue_ring() if ring.p else RingDescriptor(RATIONALS)
        rows = tuple(tuple(Scalar(field, e.value) for e in row) for row in self.basis)
        if row_rank(rows, field) != k:
            raise ValueError(f"basis is not independent over {field.label()} "
                             "(not a direct summand)")

    @property
    def rank(self) -> int:
        return len(self.basis)

    def restricted_module(self) -> QuadraticModule:
        """Gram matrix of the ambient form restricted to this basis."""
        g = mat_mul(mat_mul(self.basis, self.ambient.gram), mat_transpose(self.basis))
        return QuadraticModule(self.ambient.ring, g)

    def to_ambient(self, coords: Sequence) -> Vector:
        ring, n = self.ambient.ring, self.ambient.rank
        return mat_mul((vec(ring, coords),), self.basis)[0] if self.basis else (ring.zero,) * n


@dataclass(frozen=True)
class Frame:
    """Ordered tuple of pairwise-orthogonal unit vectors."""

    ambient: QuadraticModule
    vectors: Matrix

    def __post_init__(self) -> None:
        one = self.ambient.ring.one
        for i, v in enumerate(self.vectors):
            if evaluate(self.ambient, v) != one:
                raise ValueError(f"frame vector {i} does not have value 1")
            for j in range(i):
                if not polar(self.ambient, self.vectors[i], self.vectors[j]).is_zero():
                    raise ValueError(f"frame vectors {i}, {j} are not orthogonal")

    def __len__(self) -> int:
        return len(self.vectors)

    def as_submodule(self) -> Submodule:
        return Submodule(self.ambient, self.vectors)


def frame(q: QuadraticModule, raw_vectors: Sequence[Sequence]) -> Frame:
    return Frame(q, tuple(vec(q.ring, v) for v in raw_vectors))


def _unit_value_probe(q: QuadraticModule) -> Optional[Vector]:
    """A vector of unit q-value: probe e_i, then e_i + e_j.

    Over a local ring with 2 a unit, a non-singular form has a unit G_ii or
    a unit G_ij; when no G_ii is a unit, q(e_i + e_j) = G_ii + 2 G_ij + G_jj
    is then a unit, so the two probes always succeed for `diagonalize`.
    """
    ring, n = q.ring, q.rank
    for i in range(n):
        if q.gram[i][i].is_unit():
            return std_basis_vector(ring, n, i)
    for i in range(n):
        for j in range(i + 1, n):
            v = tuple(
                ring.one if k in (i, j) else ring.zero for k in range(n)
            )
            if evaluate(q, v).is_unit():
                return v
    return None


def diagonalize(q: QuadraticModule) -> tuple[Matrix, tuple[Scalar, ...]]:
    """Orthogonal basis with unit diagonal values: returns (P, entries) with
    P^T G P = diag(entries) exactly, columns of P forming the basis."""
    ring = q.ring
    if not ring.is_local or not ring.two_is_unit:
        raise RingError("diagonalization needs a local ring with 2 a unit")
    if not q.is_nonsingular():
        raise ValueError("cannot diagonalize a singular module")
    n = q.rank
    if n == 0:
        return tuple(), tuple()
    v = _unit_value_probe(q)
    if v is None:
        raise ValueError("no unit-length vector found; form should be singular")
    a = evaluate(q, v)
    comp = orthogonal_complement(q, Submodule(q, (v,)))
    sub = comp.restricted_module()
    p_sub, entries_sub = diagonalize(sub)
    columns = [v]
    for col in mat_transpose(p_sub):
        columns.append(comp.to_ambient(col))
    p_matrix = mat_transpose(tuple(columns))
    entries = (a,) + entries_sub
    check = mat_mul(mat_mul(mat_transpose(p_matrix), q.gram), p_matrix)
    for i in range(n):
        for j in range(n):
            want = entries[i] if i == j else ring.zero
            if check[i][j] != want:
                raise AssertionError("diagonalization verification failed")
        if not entries[i].is_unit():
            raise AssertionError("diagonal entry is not a unit")
    return p_matrix, entries


def _perp(q: QuadraticModule, basis: Matrix) -> Submodule:
    """Vectors orthogonal to every row of `basis`: the kernel of basis . G
    (the identity when there are no rows)."""
    return Submodule(q, tuple(kernel(mat_mul(basis, q.gram), q.ring, ncols=q.rank)))


def orthogonal_complement(q: QuadraticModule, u: Submodule) -> Submodule:
    """U-perp = kernel of x -> B(x, -)|_U, as a direct summand."""
    if not q.is_nonsingular():
        raise ValueError("ambient module must be non-singular")
    out = _perp(q, u.basis)
    for b in out.basis:
        for uv in u.basis:
            if not polar(q, b, uv).is_zero():
                raise AssertionError("complement basis fails orthogonality")
    return out


def intersect_complements(q: QuadraticModule, u: Submodule, v: Submodule) -> Submodule:
    """U-perp intersected with V-perp, via one stacked kernel computation."""
    return _perp(q, u.basis + v.basis)


def split_radical(q: QuadraticModule) -> tuple[Submodule, Submodule]:
    """Split V = R + W with W free non-singular and q(R) inside the maximal
    ideal: the radical of the reduction is computed over the residue field and
    a complement of it is lifted."""
    ring = q.ring
    if not ring.is_local or not ring.two_is_unit:
        raise RingError("radical splitting needs a local ring with 2 a unit")
    n = q.rank
    kappa, reduced = (ring.residue_ring(), reduce_mod_p(q)) if ring.p else (ring, q)
    rad_basis = kernel(reduced.gram, kappa, ncols=n)
    # Complete the radical to a basis of the reduction: the standard vectors
    # at the non-pivot columns of the radical basis do the job.
    _, pivots = _gauss_jordan(rad_basis, kappa, n)
    w = Submodule(q, tuple(std_basis_vector(ring, n, c) for c in range(n) if c not in pivots))
    if not w.restricted_module().is_nonsingular():
        raise AssertionError("lifted complement of the radical is singular")
    return _perp(q, w.basis), w


def complement_core(
    q: QuadraticModule, u_frame: Frame, v_frame: Frame
) -> Submodule:
    """Non-singular W inside U-perp intersect V-perp with
    rank(W) >= n - r - 2s; the W-part of the radical splitting."""
    n, r, s = q.rank, len(u_frame), len(v_frame)
    inter = intersect_complements(q, u_frame.as_submodule(), v_frame.as_submodule())
    sub_form = inter.restricted_module()
    _, w_inside = split_radical(sub_form)
    ambient_basis = tuple(inter.to_ambient(row) for row in w_inside.basis)
    w = Submodule(q, ambient_basis)
    if w.rank < n - r - 2 * s:
        raise AssertionError(
            f"core has rank {w.rank} < n - r - 2s = {n - r - 2 * s}"
        )
    if not w.restricted_module().is_nonsingular():
        raise AssertionError("core is singular")
    return w


def hyperbolic_module(ring: RingDescriptor, n: int) -> tuple[QuadraticModule, Matrix]:
    """Rank-2n module (M + M*, q(m, f) = f(m)) together with an explicit
    isometry witness onto n<1,-1>: returns (module, P) with P^T G P the
    diagonal Gram of n<1,-1>."""
    if not ring.two_is_unit:
        raise RingError("the standard witness needs 2 invertible")
    half = ring.one / ring.scalar(2)
    zero = ring.zero
    rows = []
    for i in range(2 * n):
        row = [zero] * (2 * n)
        if i < n:
            row[n + i] = half
        else:
            row[i - n] = half
        rows.append(tuple(row))
    q = QuadraticModule(ring, tuple(rows))
    cols = []
    for i in range(n):
        plus = [zero] * (2 * n)
        plus[i] = ring.one
        plus[n + i] = ring.one
        minus = [zero] * (2 * n)
        minus[i] = ring.one
        minus[n + i] = -ring.one
        cols.append(tuple(plus))
        cols.append(tuple(minus))
    p_matrix = mat_transpose(tuple(cols))
    target = hyperbolic_space(ring, n)
    if n:
        check = mat_mul(mat_mul(mat_transpose(p_matrix), q.gram), p_matrix)
        if check != target.gram:
            raise AssertionError("hyperbolic witness failed verification")
    return q, p_matrix


def reduce_mod_p(q: QuadraticModule) -> QuadraticModule:
    """Entrywise residue of the Gram matrix over the residue field (the
    identity over F_p); Q and Z have none and are refused."""
    rows = tuple(tuple(residue(e) for e in row) for row in q.gram)
    return QuadraticModule(q.ring.residue_ring(), rows)


def is_isometric_ff(q1: QuadraticModule, q2: QuadraticModule) -> bool:
    """Isometry test over a prime field: equal rank and square discriminant
    ratio classify non-singular forms completely.  The ratio's square class
    is read by Euler's criterion: a unit r is a square mod p exactly when
    r^((p-1)/2) = 1."""
    if q1.ring.kind != FINITE_FIELD or q1.ring != q2.ring:
        raise RingError("finite-field isometry test needs one common prime field")
    d1, d2 = q1.det(), q2.det()
    if not (d1.is_unit() and d2.is_unit()):
        raise ValueError("both forms must be non-singular")
    if q1.rank != q2.rank:
        return False
    p = q1.ring.p
    return pow((d1 / d2).value, (p - 1) // 2, p) == 1
