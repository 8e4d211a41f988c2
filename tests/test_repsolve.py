"""Isotropy, representation, and rescaling solvers."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from stiefel_lab.rings import (
    BudgetError,
    RingError,
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
    quadratic_module,
    reduce_mod_p,
    vec,
)
from stiefel_lab.repsolve import (
    REGIME_EXHAUSTIVE,
    REGIME_HENSEL,
    REGIME_NOT_FOUND,
    ZERO_SEARCH_BUDGET,
    _bounded_zeros,
    _close_zero,
    _residue_solutions,
    _shell,
    find_isotropic,
    hensel_isotropy_replay,
    represents,
    scale_to_primitive,
    unit_vector_in_complement,
)

F3 = finite_field(3)
F5 = finite_field(5)
Q = rationals()
Z5 = localized_at(5)


def ff_isotropic_oracle(diag, p):
    """Independent exhaustive oracle over all nonzero vectors."""
    n = len(diag)
    for v in itertools.product(range(p), repeat=n):
        if any(v) and sum(d * x * x for d, x in zip(diag, v)) % p == 0:
            return v
    return None


def test_find_isotropic_examples():
    w = find_isotropic(diagonal_module(F3, [1, 1, 1]))
    assert ff_isotropic_oracle([1, 1, 1], 3) is not None
    assert w.found and w.regime == REGIME_EXHAUSTIVE
    assert tuple(c.value for c in w.vector) == (1, 1, 1)

    for ring in (F5, Q, Z5, padic(5, 3)):
        w = find_isotropic(diagonal_module(ring, [1, -1]))
        assert w.found
        assert evaluate(diagonal_module(ring, [1, -1]), w.vector).is_zero()

    ring = padic(5, 2)
    w = find_isotropic(diagonal_module(ring, [1, -6]))
    assert w.found and w.regime == REGIME_HENSEL and w.precision == 2
    # The witness reduces to a solution of x^2 = 6 y^2 mod 25.
    x, y = (c.value for c in w.vector)
    assert (x * x - 6 * y * y) % 25 == 0


def test_find_isotropic_matches_oracle_exhaustively():
    for p in (3, 5):
        ring = finite_field(p)
        for rank in (1, 2, 3):
            for diag in itertools.product(range(1, p), repeat=rank):
                got = find_isotropic(diagonal_module(ring, list(diag)))
                assert got.found == (ff_isotropic_oracle(diag, p) is not None)


def test_find_isotropic_anisotropic_reduction_is_exact():
    ring = padic(5, 3)
    w = find_isotropic(diagonal_module(ring, [1, 2]))  # -2 is a non-square mod 5
    assert not w.found and w.regime == REGIME_EXHAUSTIVE


def test_find_isotropic_negative_definite_is_exhaustive():
    # Leading minors -2, 3 alternate in sign: negative definite over Q.
    for ring in (Q, Z5):
        w = find_isotropic(quadratic_module(ring, [[-2, -1], [-1, -2]]))
        assert not w.found and w.regime == REGIME_EXHAUSTIVE


def test_find_isotropic_bounded_regime():
    # Definite forms are settled exactly (only the zero vector vanishes).
    w = find_isotropic(euclidean(Q, 3), height_bound=5)
    assert not w.found and w.regime == REGIME_EXHAUSTIVE
    # <1, 1, -7> is indefinite yet anisotropic over Q (7 is not a sum of two
    # rational squares), so the bounded sweep exhausts honestly.
    w = find_isotropic(diagonal_module(Q, [1, 1, -7]), height_bound=5)
    assert not w.found and w.regime == REGIME_NOT_FOUND and w.height_bound == 5


def test_represents_examples():
    v = represents(diagonal_module(F3, [1, 1]), F3.scalar(2))
    assert v is not None and evaluate(diagonal_module(F3, [1, 1]), v) == F3.scalar(2)

    v = represents(euclidean(Q, 4), Q.scalar(7))
    assert v is not None and evaluate(euclidean(Q, 4), v) == Q.scalar(7)

    # 2x^2 takes only the values {0, 2, 3} mod 5.
    assert {2 * x * x % 5 for x in range(5)} == {0, 2, 3}
    assert represents(diagonal_module(F5, [2]), F5.one) is None


def test_represents_requires_unit_target():
    with pytest.raises(ValueError):
        represents(euclidean(Z5, 2), Z5.scalar(5))


def test_represents_refuses_singular_forms_and_z():
    for ring in (F5, padic(5, 3), Q):
        with pytest.raises(ValueError, match="non-singular"):
            represents(quadratic_module(ring, [[1, 0], [0, 0]]), 1)
    with pytest.raises(RingError):
        represents(euclidean(integers(), 2), 1)


def representation_equivalence_sweep(p):
    """Exhaustive: represents(q, a) <-> q + <-a> isotropic, all diagonal
    non-singular forms of rank <= 3 and all units a.  Returns case count."""
    from stiefel_lab.quadmod import orthogonal_sum

    ring = finite_field(p)
    cases = 0
    for rank in (1, 2, 3):
        for diag in itertools.product(range(1, p), repeat=rank):
            q = diagonal_module(ring, list(diag))
            for a in range(1, p):
                v = represents(q, ring.scalar(a))
                aug = orthogonal_sum(q, diagonal_module(ring, [-a]))
                iso = find_isotropic(aug)
                assert (v is not None) == iso.found, (p, diag, a)
                if v is not None:
                    assert evaluate(q, v) == ring.scalar(a)
                cases += 1
    return cases


@pytest.mark.parametrize("p", [3, 5])
def test_representation_theorem_equivalence(p):
    assert representation_equivalence_sweep(p) > 0


def residue_zeros(rows, p, a=0):
    """Oracle: every nonzero x with q(x) = a mod p for the form with these
    Gram rows (for a = 0, every primitive zero)."""
    n = len(rows)
    return [v for v in itertools.product(range(p), repeat=n) if any(v)
            and (sum(v[i] * rows[i][j] * v[j] for i in range(n) for j in range(n)) - a) % p == 0]


def hensel_close_forms(p):
    """Gram rows of every diagonal form of rank 1, 2 or 3 with entries in
    1 .. p - 1, and of one non-diagonal form (det -7, a unit at 3 and 5)."""
    diagonals = [[[d if i == j else 0 for j in range(len(diag))] for i, d in enumerate(diag)]
                 for rank in (1, 2, 3) for diag in itertools.product(range(1, p), repeat=rank)]
    return diagonals + [[[1, 2, 0], [2, 2, 1], [0, 1, 3]]]


@pytest.mark.parametrize("p", [3, 5])
def test_hensel_close_lifts_every_residue_zero(p):
    """The kernel's close step takes every primitive residue zero of these
    non-singular forms to an exact zero over Z_p^N (N = 1 .. 4) that reduces
    back to it."""
    closed = 0
    for rows in hensel_close_forms(p):
        zeros = residue_zeros(rows, p)
        for N in (1, 2, 3, 4):
            ring = padic(p, N)
            q = quadratic_module(ring, rows)
            assert q.is_nonsingular()
            for x0 in zeros:
                x = _close_zero(rows, list(x0), ring)
                assert evaluate(q, vec(ring, x)).is_zero()
                assert tuple(c % p for c in x) == x0
                closed += 1
    assert closed > 0


@pytest.mark.parametrize("p", [3, 5])
def test_residue_kernel_matches_brute_force(p):
    """Over Z/p^N (N = 1, 2, 3; F_p as Z/p^1 too), for the forms above and
    every target a in 0 .. p - 1 and p + 1 (a unit lifting 1): no solution
    of q(x) = a exactly when none exists mod p, else a primitive solution
    mod p^N over the lexicographically first one mod p.  For a unit a,
    `represents` returns that vector, and q of it is exactly a."""
    found = 0
    for rows in hensel_close_forms(p):
        n = len(rows)
        for a in [*range(p), p + 1]:
            sols = residue_zeros(rows, p, a)
            x0 = _residue_solutions([rows], p, a)[0]
            for ring in (finite_field(p), padic(p, 1), padic(p, 2), padic(p, 3)):
                m = ring.modulus
                q = quadratic_module(ring, rows)
                assert q.is_nonsingular()
                v = represents(q, a) if a % p else None
                if not sols:
                    assert x0 is None and v is None, (rows, a, ring)
                    continue
                x = _close_zero(rows, x0, ring, a)
                assert tuple(c % p for c in x) == sols[0]
                value = sum(x[i] * rows[i][j] * x[j] for i in range(n) for j in range(n))
                assert (value - a) % m == 0
                assert any(c % p for c in x)
                if a % p:
                    assert tuple(c.value for c in v) == tuple(x)
                    assert evaluate(q, v) == ring.scalar(a)
                found += 1
    assert found > 0


def bounded_zeros_oracle(q, bound):
    vectors = [v for v in itertools.product(range(-bound, bound + 1), repeat=q.rank) if any(v)]
    vectors.sort(key=lambda v: (max(map(abs, v)), v))
    return [v for v in vectors if evaluate(q, vec(q.ring, v)).is_zero()]


@pytest.mark.parametrize("ring", [Q, Z5], ids=["Q", "Z5"])
def test_bounded_zeros_match_brute_force(ring):
    forms = [
        diagonal_module(ring, [1, -1]),
        diagonal_module(ring, [1, 1, -2]),
        diagonal_module(ring, [2, -3, 1]),
        quadratic_module(ring, [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), -2]]),
        quadratic_module(ring, [[0, 1, 0], [1, 0, 0], [0, 0, Fraction(-1, 4)]]),
    ]
    for q in forms:
        assert list(_bounded_zeros(q, 3)) == bounded_zeros_oracle(q, 3)


@pytest.mark.parametrize("r", range(5))
def test_shell_is_the_filtered_cube(r):
    """Shell h of rank r: exactly the (2h + 1)^r - (2h - 1)^r tuples of the
    cube [-h, h]^r holding +-h, in the cube's itertools.product order."""
    for h in range(1, 6):
        cube = itertools.product(range(-h, h + 1), repeat=r)
        shell = list(_shell(h, r))
        assert shell == [c for c in cube if h in c or -h in c]
        assert len(shell) == (2 * h + 1) ** r - (2 * h - 1) ** r


@pytest.mark.parametrize("ring", [Q, Z5], ids=["Q", "Z5"])
def test_represents_skips_zeros_with_a_non_unit_last_coordinate(ring):
    """The first zero of <1, -1, -3> has last coordinate 0, so it gives no
    representation of 3 by <1, -1>; the first zero (w | x) with a unit x
    gives v = w/x."""
    q = diagonal_module(ring, [1, -1])
    zeros = bounded_zeros_oracle(diagonal_module(ring, [1, -1, -3]), 3)
    assert zeros[0][-1] == 0
    w = next(z for z in zeros if z[-1] and (ring == Q or z[-1] % 5))
    v = represents(q, 3)
    assert v == vec(ring, [Fraction(c, w[-1]) for c in w[:-1]])
    assert evaluate(q, v) == ring.scalar(3)


def test_bounded_zero_search_refuses_past_its_budget():
    """Over Q, <1, 1, 1, -7> has no zero at bound 20 and 3<1> does not
    represent 7; both searches used to run for over 13 s before reporting it.
    Each now refuses with its counts (a few tenths of a second), while
    4<1> still represents 7 after 399 candidates."""
    for run in (lambda: find_isotropic(diagonal_module(Q, [1, 1, 1, -7])),
                lambda: represents(euclidean(Q, 3), 7)):
        start = time.perf_counter()
        with pytest.raises(BudgetError, match=f"^zero search of a rank-4 form at bound 20 "
                                              f"passed {ZERO_SEARCH_BUDGET} candidates"):
            run()
        assert time.perf_counter() - start < 2.0
    v = represents(euclidean(Q, 4), 7)
    assert v is not None and evaluate(euclidean(Q, 4), v) == Q.scalar(7)


def test_scale_to_primitive_examples():
    out = scale_to_primitive(vec(Z5, [Fraction(5, 3), Fraction(10, 3)]), 5)
    assert tuple(c.value for c in out) == (1, 2)
    out = scale_to_primitive(vec(Z5, [1, 0]), 5)
    assert tuple(c.value for c in out) == (1, 0)
    out = scale_to_primitive(vec(Q, [Fraction(1, 5), Fraction(1, 25)]), 5)
    assert tuple(c.value for c in out) == (5, 1)
    with pytest.raises(ValueError):
        scale_to_primitive(vec(Q, [0, 0]), 5)


def test_dvr_isotropy_and_rescaling():
    """Bounded search over Q succeeds exactly when it does over Z_(5), and
    witnesses rescale to primitive vectors (diagonal unit forms, rank <= 3)."""
    entries = [1, -1, 2, -2]
    for rank in (1, 2, 3):
        for diag in itertools.product(entries, repeat=rank):
            over_q = find_isotropic(diagonal_module(Q, list(diag)), height_bound=8)
            over_z = find_isotropic(diagonal_module(Z5, list(diag)), height_bound=8)
            assert over_q.found == over_z.found, diag
            if over_z.found:
                coords = [c for c in over_z.vector]
                assert any(c.is_unit() for c in coords)
                assert evaluate(diagonal_module(Z5, list(diag)), over_z.vector).is_zero()


def hensel_isotropy_sweep(p=5, precision=4, count=50, max_precision=None, seed=0):
    """Seed-fixed non-singular binary/ternary forms over truncated Z_p whose
    reductions are isotropic must all produce exact isotropy witnesses."""
    rng = random.Random(seed)
    done = 0
    precisions = range(1, precision + 1) if max_precision else [precision]
    while done < count:
        rank = rng.choice([2, 3])
        rows = [[rng.randrange(p ** precision) for _ in range(rank)] for _ in range(rank)]
        for i in range(rank):
            for j in range(i):
                rows[i][j] = rows[j][i]
        ring = padic(p, precision)
        q = quadratic_module(ring, rows)
        if not q.is_nonsingular():
            continue
        if not find_isotropic(reduce_mod_p(q)).found:
            continue
        for n in precisions:
            ring_n = padic(p, n)
            qn = quadratic_module(ring_n, rows)
            w = find_isotropic(qn)
            assert w.found and w.regime == REGIME_HENSEL
            assert evaluate(qn, w.vector).is_zero()
        done += 1
    return done


def test_hensel_isotropy_lemma_sweep():
    assert hensel_isotropy_sweep(count=50, max_precision=True) == 50


# forms_generated of the two benchmark replays at seeds 0-7, as recorded
# when each form was searched mod p once as a filter and again to be lifted.
HENSEL_FORMS_P13_N6 = [703, 689, 688, 714, 703, 678, 728, 714]
HENSEL_FORMS_P5_N4_ALL = [74, 80, 72, 74, 81, 90, 70, 80]


@pytest.mark.parametrize("seed", range(8))
def test_hensel_replay_counters_are_unchanged(seed):
    stats = hensel_isotropy_replay(13, 6, 500, seed)
    assert (stats["count"], stats["forms_generated"]) == (500, HENSEL_FORMS_P13_N6[seed])
    stats = hensel_isotropy_replay(5, 4, 50, seed, all_precisions=True)
    assert (stats["count"], stats["forms_generated"]) == (50, HENSEL_FORMS_P5_N4_ALL[seed])


def test_unit_vector_in_complement_examples():
    e3 = euclidean(F5, 3)
    v, report = unit_vector_in_complement(e3, frame(e3, [[1, 0, 0]]), frame(e3, []))
    assert v is not None
    assert v[0].is_zero()
    assert report.any_holds()

    e6 = euclidean(F3, 6)
    u2 = frame(e6, [[1, 1, 1, 1, 0, 0]])  # q = 4 = 1 mod 3
    v2 = frame(e6, [[1, 2, 0, 0, 1, 1]])  # q = 7 = 1 mod 3
    found, report = unit_vector_in_complement(e6, u2, v2)
    assert report.n == 6 and report.r == 1 and report.s == 1
    # m = 2: condition "residue-m" needs n >= 2 + 1 + 2 = 5 <= 6: holds.
    holds = {name: h for name, _, h in report.conditions}
    assert holds["residue-m"]
    assert found is not None

    ring = padic(5, 3)
    e7 = euclidean(ring, 7)
    found, report = unit_vector_in_complement(
        e7, frame(e7, [[1, 0, 0, 0, 0, 0, 0]]), frame(e7, [[0, 1, 0, 0, 0, 0, 0]])
    )
    assert found is not None
    assert evaluate(e7, found) == ring.one


def test_unit_vector_condition_forces_discovery():
    """Property: whenever an applicable condition holds over a finite field,
    a vector is in fact found."""
    rng = random.Random(7)
    for p in (3, 5):
        ring = finite_field(p)
        for n in (3, 4, 5, 6):
            en = euclidean(ring, n)
            from stiefel_lab.stiefel import unit_vectors

            units = unit_vectors(en)
            for _ in range(6):
                u0 = units[rng.randrange(len(units))]
                u_fr = frame(en, [[c.value for c in u0]])
                found, report = unit_vector_in_complement(en, u_fr, frame(en, []))
                if report.any_holds():
                    assert found is not None


@pytest.mark.parametrize("p", [3, 5])
def test_unit_vector_in_complement_is_exhaustive_over_fp(p):
    """Seeded frame pairs in Euclidean n-space over F_p (n = 2 .. 5): the
    core search finds nothing exactly when no vector of value 1 is
    orthogonal to both frames, by brute force over F_p^n."""
    from stiefel_lab.stiefel import UnitSphere

    rng = random.Random(p)
    ring = finite_field(p)
    found = missing = 0
    for n in (2, 3, 4, 5):
        en = euclidean(ring, n)
        sphere = UnitSphere(en)
        for _ in range(8):
            frames = []
            for size in (rng.randrange(1, n), rng.randrange(n)):
                idxs = sphere.random_clique(rng, size, attempts=1000)
                frames.append([[int(c) for c in sphere.vectors[i]] for i in idxs])
            want = any(sum(c * c for c in x) % p == 1
                       and all(sum(c * f for c, f in zip(x, fv)) % p == 0
                               for fr in frames for fv in fr)
                       for x in itertools.product(range(p), repeat=n))
            got, _ = unit_vector_in_complement(en, frame(en, frames[0]), frame(en, frames[1]))
            assert (got is not None) == want, (n, frames)
            found += want
            missing += not want
    assert found and missing
