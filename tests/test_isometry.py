"""Reflections, Cartan-Dieudonne factorization, frame transport, groups."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from stiefel_lab import gfnum
from stiefel_lab.rings import (
    BudgetError,
    RingError,
    Scalar,
    finite_field,
    integers,
    localized_at,
    padic,
    rationals,
)
from stiefel_lab.quadmod import (
    diagonal_module,
    euclidean,
    evaluate,
    frame,
    identity_matrix,
    mat,
    mat_mul,
    mat_transpose,
    polar,
    quadratic_module,
    vec,
)
from stiefel_lab.isometry import (
    Isometry,
    _closure,
    _derived_codes,
    _isometry,
    _invert,
    _orthonormal_extensions,
    _reflections,
    _witt_reflections,
    abelianization_exponent,
    block_sum,
    cartan_dieudonne,
    enumerate_group,
    frame_transport,
    frame_transport_exhaustive,
    identity_isometry,
    ordered_frames,
    orthonormal_extension,
    reflection,
    stabilizer_restrict,
)

F3 = finite_field(3)
F5 = finite_field(5)
Q = rationals()
Z5 = localized_at(5)


def test_reflection_examples():
    e2 = euclidean(Q, 2)
    tau = reflection(e2, [1, 0])
    assert tau.apply([1, 0]) == vec(Q, [-1, 0])
    assert tau.apply([0, 1]) == vec(Q, [0, 1])
    assert tau.apply([3, 4]) == vec(Q, [-3, 4])

    # Note (1, 2) over F_5 has q = 5 = 0, so it admits no reflection; (1, 1)
    # has the unit value 2.
    e2f = euclidean(F5, 2)
    with pytest.raises(ValueError):
        reflection(e2f, [1, 2])
    tau = reflection(e2f, [1, 1])
    assert tau.compose(tau).is_identity()
    assert tau.apply([1, 1]) == vec(F5, [-1, -1])

    # v = (1, 1): the defining formula evaluated directly as an oracle.
    tau = reflection(e2, [1, 1])
    x = vec(Q, [1, 0])
    coef = polar(e2, x, vec(Q, [1, 1])) / evaluate(e2, [1, 1])
    expected = tuple(xi - coef * vi for xi, vi in zip(x, vec(Q, [1, 1])))
    assert tau.apply(x) == expected == vec(Q, [0, -1])


def test_reflection_fixes_orthogonal_hyperplane():
    e3 = euclidean(F3, 3)
    tau = reflection(e3, [1, 1, 0])
    for w in ([1, 2, 0], [0, 0, 1]):
        assert polar(e3, w, [1, 1, 0]).is_zero()
        assert tau.apply(w) == vec(F3, w)


def test_reflection_needs_unit_value():
    with pytest.raises(ValueError):
        reflection(euclidean(F3, 3), [1, 1, 1])  # q = 3 = 0


def compose_all(q, vectors):
    out = identity_isometry(q)
    for v in vectors:
        out = out.compose(reflection(q, v))
    return out


def test_cartan_dieudonne_examples():
    e3 = euclidean(F3, 3)
    assert cartan_dieudonne(e3, identity_isometry(e3)) == []

    tau = reflection(e3, [1, 1, 0])
    refs = cartan_dieudonne(e3, tau)
    assert len(refs) == 1
    assert compose_all(e3, refs).matrix == tau.matrix

    e2 = euclidean(F3, 2)
    for phi in enumerate_group(e2):
        refs = cartan_dieudonne(e2, phi)
        assert len(refs) <= 4
        assert compose_all(e2, refs).matrix == phi.matrix


def cartan_dieudonne_group_sweep(n_max=3):
    """Factor every element of O_n(F_3) for n <= n_max; returns counts."""
    counts = {}
    for n in range(1, n_max + 1):
        q = euclidean(F3, n)
        group = enumerate_group(q)
        for phi in group:
            refs = cartan_dieudonne(q, phi)
            assert len(refs) <= 2 * n
            assert compose_all(q, refs).matrix == phi.matrix
        counts[n] = len(group)
    return counts


def test_cartan_dieudonne_all_of_o3_f3():
    counts = cartan_dieudonne_group_sweep(3)
    assert counts == {1: 2, 2: 8, 3: 48}
    assert counts[2] + counts[3] == 56


def random_z5_isometry(rng, n=3):
    """Random product of reflections over Z_(5), entries small fractions."""
    q = euclidean(Z5, n)
    out = identity_isometry(q)
    for _ in range(rng.randint(1, 4)):
        while True:
            v = [Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(n)]
            if any(v):
                val = sum(Fraction(c) * Fraction(c) for c in v)
                if val.numerator % 5 != 0 and val.denominator % 5 != 0:
                    break
        out = out.compose(reflection(q, v))
    return q, out


def test_cartan_dieudonne_over_z5():
    rng = random.Random(0)
    for _ in range(20):
        q, phi = random_z5_isometry(rng)
        refs = cartan_dieudonne(q, phi)
        assert len(refs) <= 2 * q.rank
        assert compose_all(q, refs).matrix == phi.matrix


def test_frame_transport_examples():
    e3 = euclidean(F5, 3)
    f1 = frame(e3, [[1, 0, 0]])
    f2 = frame(e3, [[0, 1, 0]])
    phi = frame_transport(e3, f1, f2)
    assert phi.apply([1, 0, 0]) == vec(F5, [0, 1, 0])

    assert frame_transport(e3, f1, f1).apply([0, 1, 1]) is not None

    # All pairs of 1-frames in Euclidean 2-space over F_3 (4 unit vectors).
    e2 = euclidean(F3, 2)
    units = [[1, 0], [2, 0], [0, 1], [0, 2]]
    for a in units:
        for b in units:
            phi = frame_transport(e2, frame(e2, [a]), frame(e2, [b]))
            assert phi.apply(a) == vec(F3, b)


# A non-diagonal Gram matrix of determinant 3, a unit at 5.
SKEW = [[1, 1, 0], [1, 3, 1], [0, 1, 2]]


def assert_transports(q, f1, f2):
    phi = frame_transport(q, f1, f2)
    assert [phi.apply(v) for v in f1.vectors] == list(f2.vectors)
    assert Isometry(q, phi.matrix) == phi


def test_frame_transport_on_a_non_diagonal_gram_over_f5():
    q = quadratic_module(F5, SKEW)
    units = [v for v in itertools.product(range(5), repeat=3)
             if evaluate(q, v) == F5.one]
    pairs = [(a, b) for a in units for b in units if polar(q, a, b).is_zero()]
    assert len(pairs) > 1
    rng = random.Random(0)
    for _ in range(10):
        (a, b), (c, d) = rng.choice(pairs), rng.choice(pairs)
        assert_transports(q, frame(q, [a]), frame(q, [c]))
        assert_transports(q, frame(q, [a, b]), frame(q, [c, d]))


def test_frame_transport_on_a_non_diagonal_gram_over_z5():
    # (x_1 + x_2)^2 + 2 x_2^2 = 1 at (-1, 2/3, 0): two unit vectors with a
    # denominator 3, which is a unit of Z_(5).
    q = quadratic_module(Z5, SKEW)
    v = [-1, Fraction(2, 3), 0]
    assert_transports(q, frame(q, [[1, 0, 0]]), frame(q, [v]))
    assert_transports(q, frame(q, [v]), frame(q, [[-1, 0, 0]]))


def test_frame_transport_over_euclidean_truncated_z5():
    ring = padic(5, 3)
    e3 = euclidean(ring, 3)
    rows = [[Fraction(2, 3), Fraction(2, 3), Fraction(1, 3)],
            [Fraction(2, 3), Fraction(-1, 3), Fraction(-2, 3)]]
    assert_transports(e3, frame(e3, [[1, 0, 0], [0, 0, 1]]), frame(e3, rows))
    assert_transports(e3, frame(e3, rows[::-1]), frame(e3, [[0, 1, 0], [1, 0, 0]]))


def test_frame_transport_needs_a_local_ring():
    e2 = euclidean(integers(), 2)
    with pytest.raises(RingError):
        frame_transport(e2, frame(e2, [[1, 0]]), frame(e2, [[0, 1]]))


def test_cartan_dieudonne_checks_its_product(monkeypatch):
    from stiefel_lab import isometry

    witt = isometry._witt_reflections

    def drop_last(*args):
        refs, images = witt(*args)
        return refs[:-1], images

    e3 = euclidean(F3, 3)
    monkeypatch.setattr(isometry, "_witt_reflections", drop_last)
    with pytest.raises(AssertionError, match="does not reproduce"):
        cartan_dieudonne(e3, reflection(e3, [1, 1, 0]))


def test_orthonormal_extension_is_isometry():
    e4 = euclidean(F5, 4)
    # Two orthogonal non-standard unit vectors, found programmatically.
    from stiefel_lab.stiefel import unit_vectors

    units = unit_vectors(e4)
    v1 = next(u for u in units if sum(1 for c in u if not c.is_zero()) > 1)
    v2 = next(
        u for u in units
        if polar(e4, u, v1).is_zero() and u != v1 and u != tuple(-c for c in v1)
    )
    f = frame(e4, [[c.value for c in v1], [c.value for c in v2]])
    ext = orthonormal_extension(e4, f)
    cols = mat_transpose(ext.matrix)
    assert cols[0] == v1 and cols[1] == v2


@pytest.mark.parametrize("ring", [Z5, padic(5, 3)], ids=["Z_(5)", "Z_5^3"])
def test_orthonormal_extension_off_prime_fields(ring):
    """Witt extension of a frame with denominators 3 over rings that are not
    fields; the first columns are the frame itself."""
    e3 = euclidean(ring, 3)
    rows = [[Fraction(2, 3), Fraction(2, 3), Fraction(1, 3)],
            [Fraction(2, 3), Fraction(-1, 3), Fraction(-2, 3)]]
    ext = orthonormal_extension(e3, frame(e3, rows))
    cols = mat_transpose(ext.matrix)
    assert cols[:2] == tuple(vec(ring, r) for r in rows)


def test_orthonormal_extension_two_reflection_detour():
    # f = (1, 1, 2) over F_5: q(e_1 - f) = 0 + 1 + 4 = 0, so the Witt step
    # reflects in e_1 + f and then in f.
    e3 = euclidean(F5, 3)
    f = frame(e3, [[1, 1, 2]])
    assert evaluate(e3, [0, -1, -2]).is_zero()
    refs, _ = _witt_reflections(e3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 1, 2]])
    assert refs == [[2, 1, 2], [1, 1, 2]]
    ext = orthonormal_extension(e3, f)
    assert mat_transpose(ext.matrix)[0] == vec(F5, [1, 1, 2])


def test_orthonormal_extension_needs_a_local_ring():
    e2 = euclidean(integers(), 2)
    with pytest.raises(RingError):
        orthonormal_extension(e2, frame(e2, [[0, 1]]))


def test_stabilizer_restrict_examples():
    e2 = euclidean(F3, 2)
    psi = reflection(e2, [1, 1])
    embedded = block_sum(psi, euclidean(F3, 1))
    back = stabilizer_restrict(embedded, 2)
    assert back.matrix == psi.matrix

    e3 = euclidean(F3, 3)
    ident = identity_isometry(e3)
    assert stabilizer_restrict(ident, 2).is_identity()

    with pytest.raises(ValueError):
        stabilizer_restrict(reflection(e3, [0, 0, 1]), 2)  # moves e3


def test_stabilizer_exhaustive_o3_f3():
    e3 = euclidean(F3, 3)
    e2 = euclidean(F3, 2)
    fixing = []
    for phi in enumerate_group(e3):
        if phi.apply([0, 0, 1]) == vec(F3, [0, 0, 1]):
            fixing.append(phi)
    assert len(fixing) == 8  # the O_2(F_3) block
    for phi in fixing:
        psi = stabilizer_restrict(phi, 2)
        again = block_sum(psi, euclidean(F3, 1))
        assert again.matrix == phi.matrix


def test_enumerate_group_examples():
    assert len(enumerate_group(euclidean(F3, 2))) == 8
    assert len(enumerate_group(euclidean(F5, 1))) == 2
    group3 = enumerate_group(euclidean(F3, 3))
    assert len(group3) == 48
    assert abelianization_exponent(group3) == 2


def test_group_of_a_non_euclidean_form():
    # <1, 2> over F_5 is anisotropic, so O(q) is dihedral of order 2 (p + 1);
    # its Gram matrix is not its own inverse.
    group = enumerate_group(diagonal_module(F5, [1, 2]))
    assert len(group) == 12
    assert len(derived_rows(group)) == 3
    assert abelianization_exponent(group) == 2


def test_enumerate_group_cap_is_a_budget_error(monkeypatch):
    monkeypatch.setattr("stiefel_lab.isometry.ENUMERATION_CAP", 4)
    with pytest.raises(BudgetError, match="^group exceeds the enumeration cap 4$"):
        enumerate_group(euclidean(F3, 2))


def closure_one_by_one(gens, n, p):
    """Reference: the breadth-first closure, one product at a time."""
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
                    seen[key] = prod
                    nxt.append(prod)
        frontier = nxt
    return seen


def closure_rows(codes, n, m):
    """The flattened matrices of sorted closure codes mod m, as tuples."""
    return list(map(tuple, gfnum.decode(codes, gfnum.code_weights(m, n * n), m).tolist()))


def derived_rows(group):
    """The commutator subgroup that `_derived_codes` grows, as a set of
    flattened int matrices."""
    q = group[0].module
    return set(closure_rows(_derived_codes(group)[1], q.rank, q.ring.modulus))


@pytest.mark.parametrize("q", [
    euclidean(F3, 3), euclidean(F3, 4), euclidean(F5, 3), diagonal_module(F5, [1, 2]),
], ids=["O3(F3)", "O4(F3)", "O3(F5)", "O<1,2>(F5)"])
def test_closure_matches_one_product_at_a_time(q):
    gens = _reflections(q)
    got = _closure(gens, q.rank, q.ring.p)
    assert (np.diff(got) > 0).all()
    assert closure_rows(got, q.rank, q.ring.p) == sorted(
        closure_one_by_one(gens, q.rank, q.ring.p))


def test_closure_order_holds_with_small_blocks(monkeypatch):
    # one frontier element per block, and each level's held codes
    # deduplicated every few blocks: still the same group, in sorted order
    monkeypatch.setattr("stiefel_lab.gfnum._BLOCK_ENTRIES", 8)
    gens = _reflections(euclidean(F3, 4))
    assert closure_rows(_closure(gens, 4, 3), 4, 3) == sorted(
        closure_one_by_one(gens, 4, 3))


def test_closure_cap_refuses_at_the_same_count():
    gens = _reflections(euclidean(F3, 3))
    with pytest.raises(BudgetError, match="enumeration cap 10"):
        _closure(gens, 3, 3, cap=10)
    with pytest.raises(BudgetError, match="enumeration cap 47"):
        _closure(gens, 3, 3, cap=47)
    assert len(_closure(gens, 3, 3, cap=48)) == 48


def test_closure_refuses_codes_past_int64_before_any_product(monkeypatch):
    def no_blocks(*args):
        raise AssertionError("a product was taken")

    monkeypatch.setattr("stiefel_lab.gfnum.blocks", no_blocks)
    with pytest.raises(BudgetError, match="7\\^25"):  # 7^25 > 2^63
        _closure([np.eye(5, dtype=np.int64)], 5, 7)


def test_enumerate_group_checks_every_element(monkeypatch):
    # diag(2, 1) scales q(e_1) by 4, so its closure is no group of isometries
    q = euclidean(F5, 2)
    gens = np.concatenate([_reflections(q), [[[2, 0], [0, 1]]]])
    monkeypatch.setattr("stiefel_lab.isometry._reflections", lambda q: gens)
    with pytest.raises(ValueError, match="does not preserve the form"):
        enumerate_group(q)


def preserves_by_scalar_products(q, M):
    """Reference: M^T G M = G in the ring's own Scalar arithmetic."""
    return mat_mul(mat_mul(mat_transpose(M), q.gram), M) == q.gram


def accepted(q, M):
    try:
        Isometry(q, M)
    except ValueError:
        return False
    return True


MODULES_BY_RING = pytest.mark.parametrize("q", [
    diagonal_module(F5, [1, 2, 3]),
    diagonal_module(padic(3, 2), [1, 2, 1]),
    diagonal_module(localized_at(3), [Fraction(1, 2), 1, 5]),
    diagonal_module(Q, [Fraction(1, 2), 3, 1]),
    euclidean(integers(), 3),
], ids=["F5", "Z3^2", "Z_(3)", "Q", "Z"])


@MODULES_BY_RING
def test_isometry_check_matches_scalar_products(q):
    """Reflection products, the same matrices with one entry moved by p
    (3 over Q and Z), so that they agree with an isometry mod p, and random
    matrices are accepted exactly when the Scalar products say so."""
    ring, n = q.ring, q.rank
    p = ring.p or 3
    rng = random.Random(13)
    checked = {True: 0, False: 0}
    for _ in range(40):
        phi = identity_isometry(q)
        for _ in range(rng.randint(1, 3)):
            v = [rng.randint(-2, 2) for _ in range(n)]
            if evaluate(q, v).is_unit():
                phi = phi.compose(reflection(q, v))
        i, j = rng.randrange(n), rng.randrange(n)
        moved = tuple(tuple(e + p if (r, c) == (i, j) else e for c, e in enumerate(row))
                      for r, row in enumerate(phi.matrix))
        noise = mat(ring, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        for M in (phi.matrix, moved, noise):
            want = preserves_by_scalar_products(q, M)
            assert accepted(q, M) == want
            checked[want] += 1
    assert checked[True] >= 40 and checked[False] >= 40


def test_isometry_check_rejects_what_holds_only_mod_p():
    # 1/2 squared is 1/4 = 1 mod 3, but not 1: rejected over Z_(3) and Q,
    # where the lifted check (2 * 1/2)^2 = 1 against 2^2 * 1 is not reduced.
    for ring in (localized_at(3), Q):
        q = euclidean(ring, 1)
        assert not accepted(q, mat(ring, [[Fraction(1, 2)]]))
        assert accepted(q, mat(ring, [[-1]]))
    # A rotation by the (3, 4, 5) triangle needs its denominators.
    for ring in (localized_at(3), Q):
        q = euclidean(ring, 2)
        rot = [[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]]
        assert accepted(q, mat(ring, rot))
        rot[0][1] = Fraction(4, 5)
        assert not accepted(q, mat(ring, rot))
    # Over Z/9: 4^2 = 16 = 1 mod 3 but 7 mod 9; 8^2 = 64 = 1 mod 9.
    z9 = padic(3, 2)
    assert not accepted(euclidean(z9, 1), mat(z9, [[4]]))
    assert accepted(euclidean(z9, 1), mat(z9, [[8]]))
    assert not accepted(euclidean(z9, 2), mat(z9, [[1, 3], [0, 1]]))
    assert accepted(euclidean(F3, 2), mat(F3, [[1, 3], [0, 1]]))
    # Over Z: [[1, 3], [0, 1]] preserves x^2 + y^2 mod 3 only.
    zz = integers()
    assert not accepted(euclidean(zz, 2), mat(zz, [[1, 3], [0, 1]]))
    assert accepted(euclidean(zz, 2), mat(zz, [[0, -1], [1, 0]]))


def scalar_mat_mul(a, b):
    """Reference: the matrix product folded in Scalar arithmetic."""
    ring = a[0][0].ring
    out = []
    for row in a:
        entries = []
        for j in range(len(b[0])):
            total = ring.zero
            for t, x in enumerate(row):
                total = total + x * b[t][j]
            entries.append(total)
        out.append(tuple(entries))
    return tuple(out)


def seeded_products(q, rng, count):
    """Products of one to three reflections in vectors with small entries."""
    out = []
    while len(out) < count:
        phi = identity_isometry(q)
        for _ in range(rng.randint(1, 3)):
            v = [rng.randint(-2, 2) for _ in range(q.rank)]
            if evaluate(q, v).is_unit():
                phi = phi.compose(reflection(q, v))
        out.append(phi)
    return out


@MODULES_BY_RING
def test_raw_isometries_agree_with_the_scalar_path(q):
    """compose, inverse, apply, the Scalar view, == and hash of isometries
    held as raw values agree with Scalar arithmetic on their matrices, and
    every raw value is in normal form."""
    ring, n = q.ring, q.rank
    rng = random.Random(41)
    elements = seeded_products(q, rng, 12)
    eye = identity_matrix(ring, n)
    for a, b in zip(elements, elements[1:]):
        ab, inv = a.compose(b), a.inverse()
        assert ab.matrix == scalar_mat_mul(a.matrix, b.matrix)
        assert scalar_mat_mul(a.matrix, inv.matrix) == eye == scalar_mat_mul(inv.matrix, a.matrix)
        x = vec(ring, [rng.randint(-3, 3) for _ in range(n)])
        assert a.apply(x) == tuple(r[0] for r in scalar_mat_mul(a.matrix, tuple((c,) for c in x)))
        for iso in (ab, inv):
            assert all(e.ring is ring and e == ring.scalar(e.value) for row in iso.matrix for e in row)
            assert iso.values == tuple(tuple(e.value for e in row) for row in iso.matrix)
            same = Isometry(q, iso.matrix)
            assert same == iso and hash(same) == hash(iso)
        assert (ab == b) == (a.is_identity()) and (ab == b) == (a.matrix == eye)


@MODULES_BY_RING
def test_raw_constructor_verifies_the_form(q):
    """The raw-value constructor accepts exactly what the Scalar products
    accept: a reflection product, and not the same values with one entry
    moved by 1."""
    rng = random.Random(43)
    for phi in seeded_products(q, rng, 6):
        moved = [list(row) for row in phi.values]
        moved[0][0] += 1
        assert _isometry(q, phi.values) == phi
        assert not preserves_by_scalar_products(q, mat(q.ring, moved))
        with pytest.raises(ValueError):
            _isometry(q, moved)


def test_enumerated_elements_carry_their_scalar_rows():
    group = enumerate_group(euclidean(F3, 4))
    keys = [g.values for g in group]
    assert len(group) == 1152 and keys == sorted(set(keys))
    for g in group:
        assert g.matrix == tuple(tuple(Scalar(F3, x) for x in row) for row in g.values)


def test_isometry_validates_ring_and_shape():
    q = euclidean(F3, 2)
    with pytest.raises(RingError):
        Isometry(q, mat(F5, [[1, 0], [0, 1]]))
    with pytest.raises(ValueError):
        Isometry(q, mat(F3, [[1, 0]]))
    with pytest.raises(ValueError):
        Isometry(q, mat(F3, [[1, 0, 0], [0, 1, 0]]))
    with pytest.raises(ValueError):
        Isometry(q, mat(F3, [[1, 0], [0, 1], [0, 0]]))


@pytest.mark.parametrize("p,n,k", [(3, 4, 2), (5, 3, 1)])
def test_ordered_frames_are_sorted_clique_permutations(p, n, k):
    """Reference: k-cliques of the orthogonality graph by brute force over
    index subsets, then every ordering, sorted lexicographically by index."""
    from stiefel_lab.stiefel import unit_vectors

    q = euclidean(finite_field(p), n)
    units = unit_vectors(q)
    cliques = [
        c for c in itertools.combinations(range(len(units)), k)
        if all(polar(q, units[a], units[b]).is_zero() for a, b in itertools.combinations(c, 2))
    ]
    ordered = sorted(t for c in cliques for t in itertools.permutations(c))
    assert ordered_frames(q, k) == [tuple(units[i] for i in t) for t in ordered]


def test_abelianization_exponent_divides_two():
    for n, p in ((2, 3), (2, 5), (3, 3)):
        group = enumerate_group(euclidean(finite_field(p), n))
        assert abelianization_exponent(group) in (1, 2)


def test_group_closure_is_a_group():
    group = enumerate_group(euclidean(F3, 2))
    keys = {g.values for g in group}
    for a in group:
        assert a.inverse().values in keys
        for b in group:
            assert a.compose(b).values in keys


def brute_orthogonal(p, n):
    """Independent oracle: every matrix with M^T M = I, by brute force."""
    out = set()
    eye = np.eye(n, dtype=np.int64)
    for flat in itertools.product(range(p), repeat=n * n):
        M = np.array(flat, dtype=np.int64).reshape(n, n)
        if ((M.T @ M) % p == eye).all():
            out.add(tuple(map(tuple, M)))
    return out


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (3, 3)])
def test_reflections_generate_everything(p, n):
    """The reflection closure equals the full isometry group, so hyperplane
    reflections generate; cross-checked against brute-force enumeration."""
    ring = finite_field(p)
    closure = {g.values for g in enumerate_group(euclidean(ring, n))}
    assert closure == brute_orthogonal(p, n)


def all_pairs_derived(group):
    """Reference: the closure of every commutator a^-1 b^-1 a b, one row of
    pairs at a time over the whole group."""
    q, m = group[0].module, group[0].module.ring.modulus
    mats = np.stack([np.array(g.values, dtype=np.int64) for g in group])
    invs = np.stack([np.array(g.inverse().values, dtype=np.int64) for g in group])
    commutators = {}
    for i in range(len(group)):
        for c in (invs[i] @ invs @ mats[i] @ mats) % m:
            commutators[tuple(c.ravel().tolist())] = c
    return set(closure_rows(_closure(list(commutators.values()), q.rank, m), q.rank, m))


@pytest.mark.parametrize("q", [
    euclidean(F3, 2), euclidean(F3, 3), euclidean(F5, 2), euclidean(F5, 3),
    diagonal_module(F5, [1, 2]), euclidean(padic(3, 2), 2), euclidean(padic(5, 2), 2),
    euclidean(padic(3, 3), 2),
], ids=["O2(F3)", "O3(F3)", "O2(F5)", "O3(F5)", "O<1,2>(F5)", "O2(Z/9)", "O2(Z/25)", "O2(Z/27)"])
def test_derived_subgroup_matches_all_pairs_closure(q):
    group = enumerate_group(q)
    assert derived_rows(group) == all_pairs_derived(group)


def test_derived_subgroup_adds_conjugates(monkeypatch):
    # The set of all reflections is closed under conjugation, so the
    # commutators of all of them already generate a normal subgroup.  Three
    # reflections also generate O_3(F_5), but their commutators generate
    # only 12 of the 60 elements of [G, G]; conjugation must add the rest.
    q = euclidean(F5, 3)
    group = enumerate_group(q)
    few = np.array([reflection(q, v).values for v in ([1, 0, 0], [0, 1, 0], [1, 1, 1])])
    assert len(_closure(few, 3, 5)) == 240
    assert len(_closure([(s @ t @ s @ t) % 5 for s in few for t in few], 3, 5)) == 12
    monkeypatch.setattr("stiefel_lab.isometry._reflections", lambda q: few)
    assert derived_rows(group) == all_pairs_derived(group)


def test_derived_subgroup_needs_every_reflection():
    group = enumerate_group(euclidean(F3, 3))
    fixing = [g for g in group if g.apply([0, 0, 1]) == vec(F3, [0, 0, 1])]
    with pytest.raises(ValueError, match="lack a reflection"):
        derived_rows(fixing)


def test_o4_f3_order_and_abelianization():
    group = enumerate_group(euclidean(F3, 4))
    assert len(group) == 1152
    assert len(derived_rows(group)) == 288
    assert abelianization_exponent(group) == 2


def test_o4_f5_derived_subgroup():
    group = enumerate_group(euclidean(F5, 4))
    assert len(group) == 28800
    assert len(derived_rows(group)) == 7200


def test_o3_f7_derived_subgroup():
    group = enumerate_group(euclidean(finite_field(7), 3))
    assert len(group) == 672
    assert len(derived_rows(group)) == 168


def test_o3_f5_order():
    # |O_3| over a field with q elements is 2 q (q^2 - 1); here 2*5*24.
    assert len(enumerate_group(euclidean(F5, 3))) == 240


def orthonormal_bases(m, n):
    """Independent count of O_n(Z/m): the ordered n-tuples of pairwise
    orthogonal vectors with x . x = 1, by depth-first search over those
    unit vectors (each such tuple is the column list of one isometry)."""
    units = [v for v in itertools.product(range(m), repeat=n)
             if sum(x * x for x in v) % m == 1]

    def extend(chosen):
        if len(chosen) == n:
            return 1
        return sum(extend(chosen + [u]) for u in units
                   if all(sum(a * b for a, b in zip(u, c)) % m == 0 for c in chosen))

    return extend([])


@pytest.mark.parametrize("p,precision,n,reflections,order,derived", [
    (3, 2, 2, 12, 24, 6), (5, 2, 2, 20, 40, 10), (3, 3, 2, 36, 72, 18),
    (3, 2, 3, 81, 1296, 324),
], ids=["O2(Z/9)", "O2(Z/25)", "O2(Z/27)", "O3(Z/9)"])
def test_group_kernel_over_truncated_zp(p, precision, n, reflections, order, derived):
    """The F_p kernel runs unchanged over Z/p^N: reflections generate all of
    O_n(Z/p^N), [G, G] has index 4, and G/[G, G] has exponent 2."""
    q = euclidean(padic(p, precision), n)
    assert len(_reflections(q)) == reflections
    group = enumerate_group(q)
    assert len(group) == order == orthonormal_bases(p ** precision, n)
    assert len(derived_rows(group)) == derived
    assert abelianization_exponent(group) == 2


@pytest.mark.parametrize("q", [euclidean(F3, 3), diagonal_module(F5, [1, 2])],
                         ids=["E3(F3)", "<1,2>(F5)"])
def test_field_reflections_are_one_per_anisotropic_line(q):
    """Over F_p the first unit coordinate is the first non-zero one: the
    generators are the reflections in the anisotropic vectors whose leading
    non-zero coordinate is 1, in lexicographic order."""
    lines = [v for v in itertools.product(range(q.ring.p), repeat=q.rank)
             if any(v) and next(x for x in v if x) == 1]
    want = [reflection(q, v).values for v in lines if not evaluate(q, v).is_zero()]
    assert [tuple(map(tuple, s)) for s in _reflections(q).tolist()] == want


@pytest.mark.parametrize("ring", [Q, Z5, integers()], ids=["Q", "Z_(5)", "Z"])
def test_group_kernel_refuses_rings_without_a_modulus(ring, monkeypatch):
    def no_table(*args):
        raise AssertionError("a vector table was built")

    monkeypatch.setattr("stiefel_lab.gfnum.all_vectors", no_table)
    with pytest.raises(RingError, match="needs a residue ring"):
        enumerate_group(euclidean(ring, 2))


def test_rank_one_group_values_stay_exact():
    """O_1 of <-1> over Z/3^14: a form value over the whole vector table
    would reach (M - 1)^3 > 2^63, but the one line kept is (1), so the group
    is exactly {1, -1}.  At 3^16 the table itself is refused."""
    m = 3 ** 14
    assert (m - 1) ** 3 > 2 ** 63
    group = enumerate_group(diagonal_module(padic(3, 14), [-1]))
    assert [g.values for g in group] == [((1,),), ((m - 1,),)]
    assert abelianization_exponent(group) == 2
    with pytest.raises(BudgetError, match="43046721\\^1 vectors of length 1 holds "
                                          "43046721 entries"):
        enumerate_group(diagonal_module(padic(3, 16), [-1]))


def test_transport_sweep_refuses_past_the_pair_budget(monkeypatch):
    q = euclidean(F3, 3)
    frames = len(ordered_frames(q, 1))
    monkeypatch.setattr("stiefel_lab.isometry.TRANSPORT_PAIR_BUDGET", frames ** 2)
    assert frame_transport_exhaustive(q, 1)["pairs"] == frames ** 2

    def no_extension(*args):
        raise AssertionError("an extension was built")

    monkeypatch.setattr("stiefel_lab.isometry.TRANSPORT_PAIR_BUDGET", frames ** 2 - 1)
    monkeypatch.setattr("stiefel_lab.isometry._orthonormal_extensions", no_extension)
    with pytest.raises(BudgetError, match=f"over {frames} frames needs {frames ** 2} transports"):
        frame_transport_exhaustive(q, 1)


@pytest.mark.parametrize("p,n,k", [(3, 4, 2), (5, 4, 1), (5, 3, 1)])
def test_batched_extensions_are_the_single_frame_extensions(p, n, k):
    from stiefel_lab.stiefel import UnitSphere, _frame_rows

    q = euclidean(finite_field(p), n)
    sphere = UnitSphere(q)
    frames = sphere.vectors[_frame_rows(sphere, k)]
    mats = _orthonormal_extensions(q, frames)
    assert mats.shape == (len(ordered_frames(q, k)), n, n)
    assert [tuple(map(tuple, m)) for m in mats.tolist()] == \
        [orthonormal_extension(q, frame(q, f)).values for f in frames.tolist()]


def test_batched_extensions_refuse_a_corrupted_frame():
    """A second vector equal to the first, a vector of value 2, and a
    coordinate past p each break one frame row of F_3^4; the batched pass
    refuses every one, and a non-Euclidean Gram matrix as the single-frame
    extension does."""
    from stiefel_lab.stiefel import UnitSphere, _frame_rows

    q = euclidean(F3, 4)
    sphere = UnitSphere(q)
    frames = sphere.vectors[_frame_rows(sphere, 2)]
    for i, row in ((5, frames[5, 0]), (17, np.array([1, 1, 0, 0])), (40, frames[40, 1] + 3)):
        bad = frames.copy()
        bad[i, 1] = row
        with pytest.raises(AssertionError):
            _orthonormal_extensions(q, bad)
    with pytest.raises(RingError, match="Euclidean"):
        _orthonormal_extensions(diagonal_module(F3, [1, 1, 1, 2]), frames)


@pytest.mark.parametrize("ring", [F5, Q, Z5], ids=["F5", "Q", "Z_(5)"])
def test_inverse_round_trip(ring):
    """M . M^(-1) = I for random invertible matrices and for isometries of a
    non-diagonal form (whose inverse goes through G^(-1))."""
    rng = random.Random(3)
    q = quadratic_module(ring, [[1, 1, 0], [1, 3, 1], [0, 1, 2]])
    eye = identity_matrix(ring, 3)
    checked = 0
    while checked < 8:
        m = mat(ring, [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
        try:
            inv = _invert(m, ring)
        except ValueError:
            continue
        assert mat_mul(m, inv) == eye and mat_mul(inv, m) == eye
        phi = identity_isometry(q)
        for _ in range(3):
            v = [rng.randint(-3, 3) for _ in range(3)]
            if evaluate(q, v).is_unit():
                phi = phi.compose(reflection(q, v))
        assert phi.compose(phi.inverse()).is_identity()
        assert phi.inverse().compose(phi).is_identity()
        checked += 1


def test_invert_needs_a_unit_determinant():
    # diag(5, 1) is invertible over Q but not over Z_(5).
    assert _invert(mat(Q, [[5, 0], [0, 1]]), Q) == mat(Q, [[Fraction(1, 5), 0], [0, 1]])
    with pytest.raises(ValueError):
        _invert(mat(Z5, [[5, 0], [0, 1]]), Z5)
