"""Quadratic modules: evaluation, sums, diagonalization, complements, radicals."""

import itertools
from fractions import Fraction

import pytest

from stiefel_lab.rings import (
    RingError,
    finite_field,
    integers,
    localized_at,
    padic,
    rationals,
)
from stiefel_lab.quadmod import (
    Frame,
    PrecisionError,
    QuadraticModule,
    Submodule,
    complement_core,
    det,
    diagonal_module,
    diagonalize,
    euclidean,
    evaluate,
    frame,
    hyperbolic_module,
    hyperbolic_space,
    is_isometric_ff,
    intersect_complements,
    mat,
    mat_mul,
    mat_transpose,
    mat_vec,
    orthogonal_complement,
    orthogonal_sum,
    polar,
    quadratic_module,
    reduce_mod_p,
    split_radical,
    vec,
)

F3 = finite_field(3)
F5 = finite_field(5)
Q = rationals()
Z5 = localized_at(5)


def test_evaluate_and_polar_examples():
    e2 = euclidean(Q, 2)
    assert evaluate(e2, [3, 4]) == Q.scalar(25)
    off = quadratic_module(Q, [[0, 1], [1, 0]])
    # Direct expansion: q(x, y) = 2xy.
    assert evaluate(off, [1, 1]) == Q.scalar(2)
    assert polar(e2, [1, 0], [0, 1]).is_zero()


def test_polar_identity_random_spotcheck():
    import random

    rng = random.Random(5)
    q = quadratic_module(Q, [[1, 2, 0], [2, -1, 1], [0, 1, 3]])
    for _ in range(50):
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)]
        y = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)]
        xy = [a + b for a, b in zip(x, y)]
        lhs = evaluate(q, xy) - evaluate(q, x) - evaluate(q, y)
        assert lhs == polar(q, x, y)


def test_evaluate_dimension_mismatch():
    with pytest.raises(ValueError):
        evaluate(euclidean(Q, 2), [1, 2, 3])


def test_orthogonal_sum():
    s = orthogonal_sum(diagonal_module(Q, [1]), diagonal_module(Q, [-1]))
    assert s.gram == diagonal_module(Q, [1, -1]).gram
    assert orthogonal_sum(euclidean(Q, 2), euclidean(Q, 3)).gram == euclidean(Q, 5).gram
    n = 3
    pieces = diagonal_module(Q, [1, -1])
    total = pieces
    for _ in range(n - 1):
        total = orthogonal_sum(total, pieces)
    assert total.gram == hyperbolic_space(Q, n).gram
    with pytest.raises(RingError):
        orthogonal_sum(euclidean(Q, 1), euclidean(F5, 1))


def check_diagonalization(q):
    p_matrix, entries = diagonalize(q)
    check = mat_mul(mat_mul(mat_transpose(p_matrix), q.gram), p_matrix)
    for i in range(q.rank):
        for j in range(q.rank):
            want = entries[i] if i == j else q.ring.zero
            assert check[i][j] == want
        assert entries[i].is_unit()
    return entries


def test_diagonalize_examples():
    off = quadratic_module(Q, [[0, 1], [1, 0]])
    p_matrix, entries = diagonalize(off)
    cols = mat_transpose(p_matrix)
    assert evaluate(off, cols[0]) == entries[0]
    assert evaluate(off, cols[1]) == entries[1]
    assert polar(off, cols[0], cols[1]).is_zero()
    assert sorted(e.value for e in entries) == [-2, 2]

    entries = check_diagonalization(euclidean(Q, 4))
    assert all(e == Q.one for e in entries)

    q = diagonal_module(Z5, [Fraction(1, 7)])
    p_matrix, entries = diagonalize(q)
    assert entries[0] == Z5.scalar(Fraction(1, 7))


def test_diagonalize_assorted_rings():
    check_diagonalization(quadratic_module(F5, [[0, 1], [1, 0]]))
    check_diagonalization(quadratic_module(F3, [[1, 1, 0], [1, 2, 2], [0, 2, 2]]))
    check_diagonalization(quadratic_module(Z5, [[2, 1], [1, 4]]))
    check_diagonalization(quadratic_module(padic(5, 3), [[0, 1], [1, 5]]))


def test_diagonalize_rejects_singular():
    with pytest.raises(ValueError):
        diagonalize(diagonal_module(F5, [1, 0]))
    with pytest.raises(RingError):
        diagonalize(euclidean(finite_field(3), 1).__class__(
            ring=__import__("stiefel_lab.rings", fromlist=["integers"]).integers(),
            gram=euclidean(__import__("stiefel_lab.rings", fromlist=["integers"]).integers(), 1).gram,
        ))


def test_orthogonal_complement_examples():
    e3 = euclidean(Q, 3)
    u = Submodule(e3, (vec(Q, [1, 0, 0]),))
    comp = orthogonal_complement(e3, u)
    assert comp.rank == 2
    for b in comp.basis:
        assert b[0].is_zero()

    e2 = euclidean(F5, 2)
    comp = orthogonal_complement(e2, Submodule(e2, (vec(F5, [1, 1]),)))
    # Hand kernel of the polar form: x + y = 0.
    assert comp.rank == 1
    x, y = comp.basis[0]
    assert (x + y).is_zero() and not x.is_zero()

    e2z = euclidean(Z5, 2)
    comp = orthogonal_complement(e2z, Submodule(e2z, (vec(Z5, [1, 2]),)))
    assert comp.rank == 1
    # Direct summand: reduction mod 5 stays nonzero.
    Submodule(e2z, comp.basis)  # re-validates


def test_orthogonal_complement_properties():
    e4 = euclidean(F3, 4)
    u = Submodule(e4, (vec(F3, [1, 1, 0, 0]), vec(F3, [0, 0, 1, 1])))
    comp = orthogonal_complement(e4, u)
    assert u.rank + comp.rank == 4
    for b in comp.basis:
        for uv in u.basis:
            assert polar(e4, b, uv).is_zero()


def test_split_radical_examples():
    q = diagonal_module(Z5, [5, 1])
    r, w = split_radical(q)
    assert r.rank == 1 and w.rank == 1
    assert evaluate(q, w.basis[0]).is_unit()
    assert not evaluate(q, r.basis[0]).is_unit()

    q2 = diagonal_module(Z5, [2, 3])
    r2, w2 = split_radical(q2)
    assert r2.rank == 0 and w2.rank == 2

    q3 = quadratic_module(Z5, [[5, 0], [0, Fraction(1, 7)]])
    r3, w3 = split_radical(q3)
    assert r3.rank == 1 and w3.rank == 1
    # Reduction-rank oracle: rank of the reduced Gram matrix is 1.
    red = reduce_mod_p(q3)
    from stiefel_lab.quadmod import row_rank

    assert row_rank(red.gram, red.ring) == 1


def test_split_radical_q_values_in_maximal_ideal():
    q = quadratic_module(Z5, [[5, 10], [10, 25]])
    r, w = split_radical(q)
    assert w.rank == 0 and r.rank == 2
    for b in r.basis:
        v = evaluate(q, b)
        assert v.is_zero() or not v.is_unit()


def test_complement_core_examples():
    e4 = euclidean(Z5, 4)
    w = complement_core(e4, frame(e4, []), frame(e4, []))
    assert w.rank == 4

    u = frame(e4, [[1, 0, 0, 0]])
    w = complement_core(e4, u, frame(e4, []))
    assert w.rank == 3
    assert w.restricted_module().is_nonsingular()

    e6 = euclidean(Z5, 6)
    # Frames from a Pythagorean triple whose hypotenuse is prime to 5.
    u6 = frame(e6, [[1, 0, 0, 0, 0, 0]])
    v6 = frame(e6, [[0, Fraction(5, 13), Fraction(12, 13), 0, 0, 0]])
    w6 = complement_core(e6, u6, v6)
    assert w6.rank >= 6 - 1 - 2


def test_hyperbolic_module():
    q, p_matrix = hyperbolic_module(Q, 1)
    d = q.det()
    # Discriminant matches diag(1, -1) up to a square: -(1/4) vs -1.
    ratio = d / diagonal_module(Q, [1, -1]).det()
    assert ratio == Q.scalar(Fraction(1, 4))

    q0, _ = hyperbolic_module(Q, 0)
    assert q0.rank == 0

    q2, p2 = hyperbolic_module(F5, 2)
    target = hyperbolic_space(F5, 2)
    assert is_isometric_ff(q2, target)
    check = mat_mul(mat_mul(mat_transpose(p2), q2.gram), p2)
    assert check == target.gram


def test_reduce_mod_p_examples():
    assert reduce_mod_p(euclidean(Z5, 3)).gram == euclidean(F5, 3).gram
    assert reduce_mod_p(diagonal_module(Z5, [Fraction(1, 7)])).gram == diagonal_module(F5, [3]).gram
    red = reduce_mod_p(diagonal_module(Z5, [5]))
    assert red.gram == diagonal_module(F5, [0]).gram
    assert not red.is_nonsingular()
    # F_p is its own residue field; Q and Z have none.
    assert reduce_mod_p(euclidean(F5, 2)).gram == euclidean(F5, 2).gram
    for ring in (Q, integers()):
        with pytest.raises(RingError, match="no residue field"):
            reduce_mod_p(euclidean(ring, 2))


def test_direct_summand_check_names_its_field():
    """Independence is checked over the residue field for rings with a prime
    and over Q for Q and Z: (1, 5) is a summand over Q but not over Z_(5)."""
    for ring, field in ((Z5, "F5"), (padic(5, 2), "F5"), (F5, "F5")):
        with pytest.raises(ValueError, match=f"not independent over {field} "):
            Submodule(euclidean(ring, 2), (vec(ring, [1, 0]), vec(ring, [1, 5])))
    for ring in (Q, integers()):
        assert Submodule(euclidean(ring, 2), (vec(ring, [1, 0]), vec(ring, [1, 5]))).rank == 2
        with pytest.raises(ValueError, match="not independent over Q "):
            Submodule(euclidean(ring, 2), (vec(ring, [1, 2]), vec(ring, [2, 4])))


def test_nonsingular_iff_reduction_nonsingular():
    cases = [
        diagonal_module(Z5, [1, 2]),
        diagonal_module(Z5, [5, 1]),
        quadratic_module(Z5, [[2, 5], [5, 3]]),
        quadratic_module(padic(5, 2), [[0, 1], [1, 0]]),
        quadratic_module(padic(5, 2), [[5, 0], [0, 1]]),
    ]
    for q in cases:
        assert q.is_nonsingular() == reduce_mod_p(q).is_nonsingular()


def test_reduce_commutes_with_orthogonal_sum():
    q1 = diagonal_module(Z5, [2, Fraction(1, 7)])
    q2 = quadratic_module(Z5, [[3, 1], [1, 4]])
    lhs = reduce_mod_p(orthogonal_sum(q1, q2))
    rhs = orthogonal_sum(reduce_mod_p(q1), reduce_mod_p(q2))
    assert lhs.gram == rhs.gram


def test_is_isometric_ff_examples():
    assert is_isometric_ff(diagonal_module(F5, [1, 1]), diagonal_module(F5, [2, 2]))
    assert not is_isometric_ff(diagonal_module(F5, [1]), diagonal_module(F5, [2]))
    q = quadratic_module(F5, [[1, 2], [2, 0]])
    assert is_isometric_ff(q, q)


def all_base_changes(p, n):
    """Exhaustive invertible n x n matrices over F_p (small n only)."""
    import numpy as np

    from stiefel_lab.gfnum import all_vectors

    ring = finite_field(p)
    out = []
    for rows in itertools.product(all_vectors(p, n).tolist(), repeat=n):
        if det(mat(ring, rows), ring).is_unit():
            out.append(np.array(rows))
    return out


@pytest.mark.parametrize("p", [3, 5])
def test_is_isometric_ff_cross_validated_rank2(p):
    import numpy as np

    ring = finite_field(p)
    changes = all_base_changes(p, 2)
    units = [a for a in range(1, p)]
    for a, b, c, d in itertools.product(units, repeat=4):
        q1 = diagonal_module(ring, [a, b])
        q2 = diagonal_module(ring, [c, d])
        g1 = np.array(q1.gram_values)
        g2 = np.array(q2.gram_values)
        exhaustive = any((m.T @ g2 @ m % p == g1).all() for m in changes)
        assert exhaustive == is_isometric_ff(q1, q2)


@pytest.mark.parametrize("p", [3, 5])
def test_cancellation_exhaustive_small(p):
    ring = finite_field(p)
    # Square-class representatives suffice: scaling a diagonal entry by a
    # square is an isometry of the summand.
    nonsq = next(a for a in range(2, p) if a not in {x * x % p for x in range(p)})
    reps = [1, nonsq]
    forms = []
    for rank in (1, 2):
        forms += [list(t) for t in itertools.product(reps, repeat=rank)]
    ws = [list(t) for t in itertools.product(reps, repeat=2)]
    for f1 in forms:
        for f2 in forms:
            if len(f1) != len(f2):
                continue
            q1, q2 = diagonal_module(ring, f1), diagonal_module(ring, f2)
            for wdiag in ws:
                w = diagonal_module(ring, wdiag)
                s1 = orthogonal_sum(q1, w)
                s2 = orthogonal_sum(q2, w)
                assert is_isometric_ff(s1, s2) == is_isometric_ff(q1, q2)


def test_intersect_complements():
    e5 = euclidean(F3, 5)
    u = Submodule(e5, (vec(F3, [1, 0, 0, 0, 0]),))
    v = Submodule(e5, (vec(F3, [0, 1, 0, 0, 0]),))
    inter = intersect_complements(e5, u, v)
    assert inter.rank == 3
    for b in inter.basis:
        assert polar(e5, b, u.basis[0]).is_zero()
        assert polar(e5, b, v.basis[0]).is_zero()


def test_frame_validation():
    e3 = euclidean(F5, 3)
    frame(e3, [[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError):
        frame(e3, [[1, 1, 0]])  # q = 2
    with pytest.raises(ValueError):
        frame(e3, [[1, 0, 0], [1, 0, 0]])  # not orthogonal


def test_padic_precision_guard():
    ring = padic(5, 2)
    from stiefel_lab.quadmod import kernel

    rows = mat(ring, [[5, 5]])
    with pytest.raises(PrecisionError):
        kernel(rows, ring)


def leibniz_det(rows, ring):
    """Independent oracle: the signed sum over all permutations."""
    n = len(rows)
    total = ring.zero
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = ring.one
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term if inversions % 2 == 0 else total - term
    return total


RING_DRAWS = pytest.mark.parametrize("ring,draw", [
    (F5, lambda rng: rng.randrange(5)),
    (Q, lambda rng: Fraction(rng.randint(-9, 9), rng.randint(1, 6))),
    (Z5, lambda rng: Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6, 7]))),
    (padic(5, 3), lambda rng: rng.randrange(125)),
    (integers(), lambda rng: rng.randint(-9, 9)),
], ids=["F5", "Q", "Z_(5)", "Z5^3", "Z"])


@RING_DRAWS
def test_det_matches_leibniz(ring, draw):
    import random

    rng = random.Random(11)
    assert det((), ring) == ring.one
    for n in range(1, 5):
        for _ in range(6):
            rows = mat(ring, [[draw(rng) for _ in range(n)] for _ in range(n)])
            assert det(rows, ring) == leibniz_det(rows, ring)
        singular = mat(ring, [[draw(rng) for _ in range(n)] for _ in range(n - 1)])
        singular += (singular[0],) if n > 1 else (vec(ring, [0]),)
        assert det(singular, ring).is_zero()


def test_split_radical_padic_rank4_radical_rank2():
    ring = padic(5, 3)
    p_matrix = mat(ring, [[1, 2, 0, 1], [0, 1, 3, 0], [2, 0, 1, 4], [0, 1, 0, 1]])
    d = diagonal_module(ring, [1, 2, 5, 10]).gram
    q = QuadraticModule(ring, mat_mul(mat_mul(mat_transpose(p_matrix), d), p_matrix))
    r, w = split_radical(q)
    assert r.rank == 2 and w.rank == 2
    assert w.restricted_module().is_nonsingular()
    for b in r.basis:
        assert not evaluate(q, b).is_unit()
        for c in w.basis:
            assert polar(q, b, c).is_zero()


def scalar_sum(terms, ring):
    """Oracle: fold Scalar products one addition at a time."""
    total = ring.zero
    for t in terms:
        total = total + t
    return total


@RING_DRAWS
def test_products_and_forms_match_the_scalar_fold(ring, draw):
    """mat_mul, mat_vec, evaluate and polar sum raw values and build one
    Scalar per entry; each equals the entry-by-entry Scalar fold."""
    import random

    rng = random.Random(17)
    for n, m, k in [(1, 1, 1), (2, 3, 1), (3, 3, 3), (4, 2, 5)]:
        a = mat(ring, [[draw(rng) for _ in range(m)] for _ in range(n)])
        b = mat(ring, [[draw(rng) for _ in range(k)] for _ in range(m)])
        x = vec(ring, [draw(rng) for _ in range(m)])
        assert mat_mul(a, b) == tuple(
            tuple(scalar_sum((a[i][t] * b[t][j] for t in range(m)), ring) for j in range(k))
            for i in range(n))
        assert mat_vec(a, x) == tuple(
            scalar_sum((a[i][t] * x[t] for t in range(m)), ring) for i in range(n))
        upper = [[draw(rng) for _ in range(m)] for _ in range(m)]
        q = quadratic_module(ring, [[upper[min(i, j)][max(i, j)] for j in range(m)]
                                    for i in range(m)])
        y = vec(ring, [draw(rng) if rng.random() < 0.7 else 0 for _ in range(m)])
        cross = scalar_sum((x[i] * q.gram[i][j] * y[j] for i in range(m) for j in range(m)),
                           ring)
        assert polar(q, x, y) == cross + cross
        assert evaluate(q, y) == scalar_sum(
            (y[i] * q.gram[i][j] * y[j] for i in range(m) for j in range(m)), ring)
        for entry in mat_mul(a, b)[0] + mat_vec(a, x) + (evaluate(q, x),):
            assert entry.ring is ring and entry == ring.scalar(entry.value)


def test_products_check_every_entry_ring():
    a = mat(F5, [[1, 2], [3, 4]])
    same = mat(finite_field(5), [[1, 0], [0, 1]])  # equal ring, distinct descriptor
    assert mat_mul(a, same) == a and mat_mul(same, a) == a
    mixed = (a[0], (a[1][0], F3.scalar(1)))
    with pytest.raises(RingError):
        mat_mul(a, mixed)
    with pytest.raises(RingError):
        mat_mul(mixed, a)
    with pytest.raises(RingError):
        mat_vec(a, mixed[1])
    with pytest.raises(RingError):
        evaluate(euclidean(F5, 2), mixed[1])
    with pytest.raises(ValueError):
        mat_mul(a, mat(F5, [[1, 2]]))
