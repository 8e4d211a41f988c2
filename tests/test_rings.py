"""Scalar arithmetic: field axioms, valuations, residues, squares, Hensel."""

import math
import random
from fractions import Fraction

import pytest

from stiefel_lab import repsolve
from stiefel_lab.rings import (
    RingError,
    Scalar,
    finite_field,
    hensel_root,
    integers,
    localized_at,
    padic,
    rationals,
    residue,
    valuation,
)
from stiefel_lab.quadmod import euclidean
from stiefel_lab.repsolve import represents

F3 = finite_field(3)
F5 = finite_field(5)
F7 = finite_field(7)
Q = rationals()
Z5 = localized_at(5)


def factor_count(n: int, p: int) -> int:
    """Oracle: count factors of p by repeated division."""
    assert n != 0
    c = 0
    while n % p == 0:
        n //= p
        c += 1
    return c


def test_field_axioms_exhaustive():
    for ring in (F3, F5, F7):
        p = ring.p
        elems = [ring.scalar(i) for i in range(p)]
        for a in elems:
            assert a + ring.zero == a
            assert a * ring.one == a
            assert a + (-a) == ring.zero
            if not a.is_zero():
                assert a * (ring.one / a) == ring.one
            for b in elems:
                assert a + b == b + a
                assert a * b == b * a
                for c in elems:
                    assert (a + b) + c == a + (b + c)
                    assert (a * b) * c == a * (b * c)
                    assert a * (b + c) == a * b + a * c


def test_valuation_examples():
    assert valuation(Z5.scalar(Fraction(5, 3))) == 1
    assert valuation(Z5.scalar(0)) == math.inf
    # 9/25: oracle counts factors of 5 in numerator and denominator.
    expected = factor_count(9, 5) - factor_count(25, 5)
    assert expected == -2
    assert valuation(Q.scalar(Fraction(9, 25)), 5) == expected
    # Over truncated Z_p: the valuation of the residue, 250 = 2 * 5^3 mod 5^4.
    assert valuation(padic(5, 4).scalar(250)) == factor_count(250, 5) == 3
    assert valuation(padic(5, 4).scalar(5 ** 4)) == math.inf
    assert valuation(padic(5, 4).scalar(7), 5) == 0


def test_valuation_ring_mismatch():
    with pytest.raises(RingError):
        valuation(Z5.scalar(1), 7)
    with pytest.raises(RingError):
        valuation(Q.scalar(1))  # prime not attached
    with pytest.raises(RingError):
        valuation(F5.scalar(1), 5)
    with pytest.raises(RingError):
        valuation(padic(5, 2).scalar(1), 7)


def test_valuation_is_multiplicative_and_ultrametric():
    rng = random.Random(11)
    for _ in range(300):
        x = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        y = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        vx = valuation(Q.scalar(x), 5)
        vy = valuation(Q.scalar(y), 5)
        if x != 0 and y != 0:
            assert valuation(Q.scalar(x * y), 5) == vx + vy
        if x + y != 0:
            assert valuation(Q.scalar(x + y), 5) >= min(vx, vy)


def test_residue_examples():
    # 1/7 over Z_(5): oracle is the modular inverse, 7 * 3 = 21 = 1 mod 5.
    assert 7 * 3 % 5 == 1
    assert residue(Z5.scalar(Fraction(1, 7))) == F5.scalar(3)
    assert residue(Z5.scalar(Fraction(5, 3))) == F5.scalar(0)
    assert residue(padic(5, 2).scalar(16)) == F5.scalar(1)


def test_residue_field_is_built_once_per_descriptor():
    """The kept residue field is not a field of the descriptor: equality,
    hashing and repr still see kind, p and precision only."""
    for ring in (Z5, padic(5, 3)):
        assert ring.residue_ring() is ring.residue_ring() == F5
        assert residue(ring.scalar(6)).ring is ring.residue_ring()
    assert padic(5, 3) == padic(5, 3) and hash(padic(5, 3)) == hash(padic(5, 3))
    assert padic(5, 3) != padic(5, 2) and padic(5, 2).residue_ring() == Z5.residue_ring()
    assert repr(Z5) == "RingDescriptor(kind='localized-at-p', p=5, precision=None)"
    # F_p is its own residue field; Q and Z have none here.
    assert F5.residue_ring() is F5 and residue(F5.scalar(3)) == F5.scalar(3)
    for ring in (Q, integers()):
        with pytest.raises(RingError, match="no residue field"):
            ring.residue_ring()


def test_residue_negative_valuation_rejected():
    with pytest.raises(RingError):
        Z5.scalar(Fraction(1, 5))
    with pytest.raises(RingError):
        residue(Q.scalar(Fraction(1, 5)))


def test_residue_is_multiplicative():
    rng = random.Random(7)
    for _ in range(200):
        x = Fraction(rng.randint(-30, 30), rng.choice([1, 2, 3, 7, 9, 11]))
        y = Fraction(rng.randint(-30, 30), rng.choice([1, 3, 7, 13]))
        assert residue(Z5.scalar(x * y)) == residue(Z5.scalar(x)) * residue(Z5.scalar(y))
        assert residue(Z5.scalar(x + y)) == residue(Z5.scalar(x)) + residue(Z5.scalar(y))


def test_is_square_examples():
    r = represents(euclidean(F5, 1), F5.scalar(4))
    assert r is not None and r[0] * r[0] == F5.scalar(4)
    # Oracle: the squares mod 5 are exactly {0, 1, 4}.
    assert sorted({x * x % 5 for x in range(5)}) == [0, 1, 4]
    assert represents(euclidean(F5, 1), F5.scalar(2)) is None
    with pytest.raises(ValueError, match="units"):
        represents(euclidean(F3, 1), F3.scalar(0))


def test_is_square_agrees_with_exhaustion():
    for ring in (F3, F5, F7):
        p = ring.p
        squares = {x * x % p for x in range(p)}
        for a in range(1, p):
            witness = represents(euclidean(ring, 1), ring.scalar(a))
            assert (witness is not None) == (a in squares)
            if witness is not None:
                assert witness[0] * witness[0] == ring.scalar(a)


def test_sum_of_squares_examples():
    got = represents(euclidean(F3, 2), F3.scalar(2))
    assert got is not None and sum((x * x for x in got), F3.zero) == F3.scalar(2)
    # -1 over F5: 2^2 = 4 = -1 (exhaustive).
    got = represents(euclidean(F5, 1), F5.scalar(-1))
    assert got is not None and got[0] * got[0] == F5.scalar(-1)
    # -1 over F3 needs two squares: 1 + 1 = 2.
    assert represents(euclidean(F3, 1), F3.scalar(-1)) is None
    assert represents(euclidean(F3, 2), F3.scalar(-1)) is not None


def test_sum_of_squares_found_values_check_out():
    got = represents(euclidean(Q, 1), Q.scalar(Fraction(1, 4)))
    assert got is not None and got[0] * got[0] == Q.scalar(Fraction(1, 4))
    got = represents(euclidean(Z5, 2), Z5.scalar(2))
    assert got is not None
    assert sum((x * x for x in got), Z5.zero) == Z5.scalar(2)


def test_minus_one_is_no_sum_of_k_squares_before_any_candidate(monkeypatch):
    """k<1> + <1> is definite over Q, so -1 is no sum of k squares over Q or
    Z_(p): `represents` proves it before the bounded zero search starts."""
    def no_search(q, bound):
        raise AssertionError("bounded zero search entered for a definite form")

    monkeypatch.setattr(repsolve, "_bounded_zeros", no_search)
    for ring in (Q, Z5):
        for k in range(1, 5):
            assert represents(euclidean(ring, k), ring.scalar(-1)) is None


def test_represents_padic_lifts():
    """Over truncated Z_p a sum of k squares is a representation by the
    Euclidean form, lifted from the residue field by one Hensel step."""
    ring = padic(5, 3)
    for a, k in ((-1, 1), (7, 2)):
        got = represents(euclidean(ring, k), ring.scalar(a))
        assert got is not None
        assert sum((x * x for x in got), ring.zero) == ring.scalar(a)


def hensel_oracle(a, b, c, r0, p, N):
    """Oracle: exhaust all residues mod p^N for roots congruent to r0."""
    m = p ** N
    return [r for r in range(m) if (a * r * r + b * r + c) % m == 0 and (r - r0) % p == 0]


def test_hensel_root_examples():
    ring = padic(5, 2)
    r = hensel_root(ring, (1, 0, -6), 1)
    assert hensel_oracle(1, 0, -6, 1, 5, 2) == [16]
    assert r == ring.scalar(16)

    ring4 = padic(5, 4)
    assert hensel_root(ring4, (1, 0, -1), 1) == ring4.scalar(1)

    r = hensel_root(ring, (1, 0, 1), 2)
    assert hensel_oracle(1, 0, 1, 2, 5, 2) == [7]
    assert r == ring.scalar(7)


def test_hensel_root_matches_exhaustive_enumeration():
    rng = random.Random(3)
    for p in (3, 5, 7):
        for N in (1, 2, 3):
            ring = padic(p, N)
            for _ in range(40):
                a, b, c = rng.randrange(p**N), rng.randrange(p**N), rng.randrange(p**N)
                simple = [
                    r for r in range(p)
                    if (a * r * r + b * r + c) % p == 0 and (2 * a * r + b) % p != 0
                ]
                for r0 in simple:
                    root = hensel_root(ring, (a, b, c), r0)
                    assert root.value in hensel_oracle(a, b, c, r0, p, N)


def test_hensel_root_rejects_non_simple_roots():
    ring = padic(5, 3)
    with pytest.raises(RingError):
        hensel_root(ring, (1, 0, 0), 0)  # double root of X^2


def test_division_rules():
    assert F5.scalar(1) / F5.scalar(7) == F5.scalar(3)
    with pytest.raises(RingError):
        Z5.scalar(1) / Z5.scalar(5)
    with pytest.raises(RingError):
        padic(5, 2).scalar(1) / padic(5, 2).scalar(5)
    with pytest.raises(RingError):
        integers().scalar(3) / integers().scalar(2)
    assert integers().scalar(6) / integers().scalar(2) == integers().scalar(3)


def test_unit_detection():
    assert Z5.scalar(Fraction(1, 7)).is_unit()
    assert not Z5.scalar(5).is_unit()
    assert padic(5, 3).scalar(7).is_unit()
    assert not padic(5, 3).scalar(10).is_unit()
    assert integers().scalar(-1).is_unit()
    assert not integers().scalar(2).is_unit()


def test_ring_descriptor_flags():
    # Henselian: Z_p, and the fields under the trivial valuation.
    assert padic(5, 2).henselian and not localized_at(5).henselian
    assert finite_field(5).henselian and rationals().henselian and not integers().henselian
    assert rationals().formally_real and localized_at(5).formally_real
    assert not finite_field(5).formally_real
    assert not integers().two_is_unit and localized_at(3).two_is_unit
    assert (F5.modulus, padic(5, 3).modulus, Z5.modulus, Q.modulus) == (5, 125, None, None)
    with pytest.raises(RingError):
        finite_field(2)
    with pytest.raises(RingError):
        localized_at(9)
    with pytest.raises(RingError):
        padic(5, 0)


@pytest.mark.parametrize("ring,draw", [
    (F5, lambda rng: rng.randrange(5)),
    (Q, lambda rng: Fraction(rng.randint(-9, 9), rng.randint(1, 6))),
    (Z5, lambda rng: Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6, 7]))),
    (padic(5, 3), lambda rng: rng.randrange(125)),
    (integers(), lambda rng: rng.randint(-9, 9)),
], ids=["F5", "Q", "Z_(5)", "Z5^3", "Z"])
def test_ring_operations_match_the_constructor(ring, draw):
    """+, -, * and unary - skip the constructor for two scalars of one ring;
    each result equals Scalar(ring, raw) in value and in value type."""
    rng = random.Random(23)
    twin = type(ring)(ring.kind, ring.p, ring.precision)
    assert twin == ring and twin is not ring
    for _ in range(40):
        a, b = Scalar(ring, draw(rng)), Scalar(twin, draw(rng))
        for got, raw in [(a + b, a.value + b.value), (a - b, a.value - b.value),
                         (a * b, a.value * b.value), (-a, -a.value),
                         (b + 3, b.value + 3), (2 - a, 2 - a.value)]:
            want = Scalar(ring, raw)
            assert got == want and type(got.value) is type(want.value)
    with pytest.raises(RingError):
        Scalar(ring, 1) + F3.scalar(1)
    with pytest.raises(RingError):
        Scalar(ring, 1) * F3.scalar(1)
    with pytest.raises(RingError):
        Scalar(ring, 1) - F3.scalar(1)
