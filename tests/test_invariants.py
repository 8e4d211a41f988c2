"""Arithmetic invariants: exhaustive tables, inequality ledger, witnesses."""

import itertools
import math
import random

import numpy as np
import pytest

from stiefel_lab import gfnum, invariants
from stiefel_lab.rings import (
    BudgetError,
    RingError,
    finite_field,
    integers,
    localized_at,
    padic,
    rationals,
)
from stiefel_lab.quadmod import det, mat
from stiefel_lab.invariants import (
    check_inequalities,
    compute_invariants,
    known_arithmetic,
    localized_invariants,
    m_zp_witness,
    no_rational_three_square,
    padic_invariants,
    shapiro_bound_check,
)


def invariant_table(primes=(3, 5, 7, 11, 13)):
    out = {}
    for p in primes:
        rep = compute_invariants(finite_field(p))
        out[p] = {
            "P": rep.pythagoras.value(),
            "s": rep.stufe.value(),
            "u": rep.u_invariant.value(),
            "m": rep.m_invariant.value(),
        }
    return out


def test_invariant_table():
    table = invariant_table()
    for p, row in table.items():
        assert row["P"] == 2 and row["u"] == 2 and row["m"] == 2
        assert row["s"] == (1 if p % 4 == 1 else 2)
    # Oracles for the Stufe values: 2^2 = -1 mod 5; -1 is not a square mod 3
    # but 1 + 1 = -1 mod 3; 7 = 3 mod 4 forces s = 2.
    assert 2 * 2 % 5 == 5 - 1
    assert all(x * x % 3 != 2 for x in range(3)) and (1 + 1) % 3 == 2
    assert table[7]["s"] == 2


# compute_invariants over every odd prime up to 37, as the sums-of-squares
# chain grown until stable gave them: P, s, u, m.  The primes past 37 carry
# the classical values P = u = m = 2, and s = 1 exactly when p = 1 mod 4;
# F_223 is the largest prime whose rank-3 vector table fits.
PINNED_FIELD_INVARIANTS = {
    3: (2, 2, 2, 2), 5: (2, 1, 2, 2), 7: (2, 2, 2, 2), 11: (2, 2, 2, 2),
    13: (2, 1, 2, 2), 17: (2, 1, 2, 2), 19: (2, 2, 2, 2), 23: (2, 2, 2, 2),
    29: (2, 1, 2, 2), 31: (2, 2, 2, 2), 37: (2, 1, 2, 2),
    **{p: (2, 1 if p % 4 == 1 else 2, 2, 2) for p in (41, 43, 61, 101, 223)},
}


@pytest.mark.parametrize("p", sorted(PINNED_FIELD_INVARIANTS))
def test_compute_invariants_pinned(p):
    rep = compute_invariants(finite_field(p))
    got = (rep.pythagoras, rep.stufe, rep.u_invariant, rep.m_invariant)
    assert tuple(v.value() for v in got) == PINNED_FIELD_INVARIANTS[p]
    assert all(str(v) == f"{v.value()} (exhaustive)" for v in got)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_compute_invariants_matches_a_per_diagonal_scan(p):
    """Reference that shares nothing with the kernel: every one of the
    (p - 1)^r unit diagonals of ranks 1-3 evaluated on every non-zero
    vector in itertools.product order.  u and m come from those values, P
    and s from the sets S_1 and S_1 + S_1 of sums of one and two squares."""
    u, m = 0, None
    for rank in (1, 2, 3):
        X = np.array(list(itertools.product(range(p), repeat=rank))[1:])
        D = np.array(list(itertools.product(range(1, p), repeat=rank)))
        values = (X * X) @ D.T % p  # one column per diagonal, one row per vector
        if u == rank - 1 and (values != 0).all(axis=0).any():
            u = rank
        if m is None and (values == 1).any(axis=0).all():
            m = rank
    s1 = {x * x % p for x in range(p)}
    s2 = {(a + b) % p for a in s1 for b in s1}
    assert s2 == set(range(p))
    pyth = 1 if s1 == s2 else 2
    stufe = 1 if p - 1 in s1 else 2
    rep = compute_invariants(finite_field(p))
    got = (rep.pythagoras, rep.stufe, rep.u_invariant, rep.m_invariant)
    assert tuple(v.value() for v in got) == (pyth, stufe, u, m)


@pytest.mark.parametrize("p", [7, 13])
def test_invariants_hand_the_kernel_one_form_per_square_class(p, monkeypatch):
    """compute_invariants and padic_invariants read every unit diagonal of
    rank r off its 2^r square classes: no kernel call sees more forms."""
    calls = []
    kernel = gfnum.first_solutions

    def spy(grams, q, a=0):
        calls.append(grams.shape)
        return kernel(grams, q, a)

    monkeypatch.setattr(gfnum, "first_solutions", spy)
    compute_invariants(finite_field(p))
    field_calls = len(calls)
    padic_invariants(padic(p, 3))
    assert 0 < field_calls < len(calls)
    assert all(count <= 2 ** rank for count, rank, _ in calls)


def test_check_inequalities_field_alone():
    rep = compute_invariants(finite_field(5))
    ledger = dict(check_inequalities(rep))
    assert ledger["P <= m"] == "pass"
    assert ledger["P <= s + 1"] == "pass"
    assert ledger["s <= u"] == "pass"
    assert ledger["m <= u"] == "pass"


def test_check_inequalities_padic_triple():
    ring = padic(5, 3)
    rep_a = padic_invariants(ring)
    rep_k = compute_invariants(finite_field(5))
    ledger = dict(check_inequalities(rep_a, rep_k))
    for name in ("henselian: m_A = m_kappa", "henselian: s_A = s_kappa",
                 "henselian: u_A = u_kappa"):
        assert ledger[name] == "pass"
    assert "fail" not in ledger.values()


def test_check_inequalities_localized():
    ring = localized_at(5)
    rep_a = localized_invariants(ring, height=20)
    rep_kappa = compute_invariants(finite_field(5))
    from stiefel_lab.invariants import InvariantReport, InvariantValue, exact

    ledger = dict(check_inequalities(rep_a, rep_kappa))
    # m_kappa = 2 < 4 = m_A: the inequality m_kappa <= m_A passes strictly.
    assert ledger["m_kappa <= m_A"] == "pass"
    assert rep_kappa.m_invariant.value() == 2 and rep_a.m_invariant.value() == 4
    # Bounded values never produce a false "fail".
    assert "fail" not in ledger.values()


def test_m_zp_witness_examples():
    wit = m_zp_witness(5, 50)
    assert wit.establishes_lower_bound
    assert sum(f * f for f in wit.four_square) == __import__("fractions").Fraction(1, 7)
    assert not wit.integer_three_square_found

    wit3 = m_zp_witness(3, 10)  # 3 does not divide 7: runs fine
    assert wit3.establishes_lower_bound
    with pytest.raises(RingError):
        m_zp_witness(7, 10)


def test_localized_invariants_search_three_squares_once(monkeypatch):
    """The P bound reuses the rank-3 witness's search for a three-square 7 at
    the height; the witness's integer check is the same search at height 2."""
    calls = []

    def counted(target, height):
        calls.append((target, height))
        return no_rational_three_square(target, height)

    monkeypatch.setattr(invariants, "no_rational_three_square", counted)
    rep = localized_invariants(localized_at(3), height=10)
    assert calls == [(7, 10), (7, 2)]
    assert str(rep.pythagoras) == "[4, inf] (7 needs four squares; searched height 10)"


def test_no_rational_three_square_oracle():
    # 6 = 1 + 1 + 4 is a sum of three squares, 7 is not (7 = 7 mod 8).
    assert not no_rational_three_square(6, 5)
    assert no_rational_three_square(7, 30)


def three_square_loop(target, height):
    """The triple loop the table lookup replaced: True when no
    a^2 + b^2 + c^2 = target * d^2 with 1 <= d <= height and
    0 <= a <= b <= height, c = the remaining root, c <= height."""
    for d in range(1, height + 1):
        rhs = target * d * d
        for a in range(min(height, math.isqrt(rhs)) + 1):
            rem_a = rhs - a * a
            for b in range(a, min(height, math.isqrt(rem_a)) + 1):
                c2 = rem_a - b * b
                c = math.isqrt(c2)
                if c * c == c2 and c <= height:
                    return False
    return True


@pytest.mark.parametrize("target, found", [(3, True), (6, True), (14, True), (12, True),
                                           (7, False), (15, False), (28, False), (60, False)])
def test_three_square_lookup_matches_the_loop(target, found):
    """The lookup answers as the loop at every height up to 12; 3, 6, 14 and
    12 are sums of three squares (at d = 1), while 7, 15, 28 = 4 * 7 and
    60 = 4 * 15 are of the form 4^k(8m + 7) and stay unrepresented."""
    for height in range(1, 13):
        assert no_rational_three_square(target, height) == three_square_loop(target, height)
    assert no_rational_three_square(target, 12) is not found


def test_three_square_search_is_priced_before_its_loop(monkeypatch):
    """h(h + 1)(h + 2)/2 candidates at height h: 97,527 at h = 57 fit
    ZERO_SEARCH_BUDGET, 102,660 at h = 58 are refused before any is read."""
    assert no_rational_three_square(7, 57)
    roots = []
    isqrt = math.isqrt
    monkeypatch.setattr(math, "isqrt", lambda n: roots.append(n) or isqrt(n))
    with pytest.raises(BudgetError, match="^three-square search at height 58 prices 102660 "
                                          "candidates, more than 100000$"):
        no_rational_three_square(7, 58)
    assert roots == []


def test_shapiro_bound_check():
    res5 = shapiro_bound_check(finite_field(5), 4)
    assert res5["hypothesis"] and res5["bound_holds"]
    assert res5["pythagoras"] <= 4 - 2

    # Over F_7 the two-vector hypothesis genuinely fails at n = 4: the pair
    # e_4, (1,2,3,1) has a singular complement whose value set misses 1.
    # The implication is then vacuous there; at k = 5 the hypothesis holds
    # (n = 5, 6 exhaustively) and gives P <= 3, consistent with P = 2.
    res7 = shapiro_bound_check(finite_field(7), 4, n_extra=1)
    assert res7["hypothesis_by_n"][4] is False
    assert res7["hypothesis_by_n"][5] is True
    assert res7["bound_holds"]  # vacuously

    res7b = shapiro_bound_check(finite_field(7), 5, n_extra=1)
    assert res7b["hypothesis"] and res7b["bound_holds"]
    assert res7b["pythagoras"] <= 5 - 2

    with pytest.raises(ValueError):
        shapiro_bound_check(finite_field(3), 4)


def rref_bases(p: int, n: int, d: int):
    """All d-dimensional subspaces of F_p^n, one RREF basis each."""
    for pivots in itertools.combinations(range(n), d):
        free_positions = []
        for i, piv in enumerate(pivots):
            for j in range(piv + 1, n):
                if j not in pivots:
                    free_positions.append((i, j))
        for values in itertools.product(range(p), repeat=len(free_positions)):
            basis = np.zeros((d, n), dtype=np.int64)
            for i, piv in enumerate(pivots):
                basis[i, piv] = 1
            for (i, j), v in zip(free_positions, values):
                basis[i, j] = v
            yield basis


def gaussian_binomial(n, k, p):
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (k - i) - 1
    return num // den


def test_rref_enumeration_counts():
    assert sum(1 for _ in rref_bases(3, 4, 2)) == gaussian_binomial(4, 2, 3)
    assert sum(1 for _ in rref_bases(5, 3, 1)) == gaussian_binomial(3, 1, 5)


def subspace_has_unit_vector(basis: np.ndarray, p: int) -> bool:
    d = basis.shape[0]
    gram = basis @ basis.T % p
    coords = gfnum.all_vectors(p, d)
    vals = gfnum.gram_values(gram, coords, p)
    return bool((vals == 1).any())


def subspace_nonsingular(basis: np.ndarray, p: int) -> bool:
    ring = finite_field(p)
    return det(mat(ring, (basis @ basis.T % p).tolist()), ring).is_unit()


@pytest.mark.parametrize("p,n,k", [
    (3, 3, 1), (3, 4, 1), (3, 5, 1), (3, 6, 1), (3, 5, 2), (3, 6, 2),
    (5, 3, 1), (5, 4, 1), (5, 5, 1), (5, 6, 1), (5, 5, 2),
])
def test_unit_vector_in_nonsingular_subspaces(p, n, k):
    """Non-singular codimension-k subspaces of Euclidean n-space contain a
    unit vector whenever n > P k (P = 2 here); exhaustive over subspaces."""
    assert n > 2 * k
    for basis in rref_bases(p, n, n - k):
        if subspace_nonsingular(basis, p):
            assert subspace_has_unit_vector(basis, p), basis


def test_unit_vector_in_nonsingular_subspaces_f5_n6_sampled():
    """Codimension 2 over F_5 at n = 6 has half a million subspaces; a
    seed-fixed sample stands in for the sweep (recorded as such)."""
    p, n, k = 5, 6, 2
    rng = random.Random(0)
    checked = 0
    for basis in rref_bases(p, n, n - k):
        if rng.random() > 0.01:
            continue
        if subspace_nonsingular(basis, p):
            assert subspace_has_unit_vector(basis, p)
            checked += 1
        if checked >= 4000:
            break
    assert checked >= 1000


def test_descent_replay_f5():
    """A sum of n > m squares is a sum of n - 1 squares: replayed over F_5 by
    producing the witness vector, a unit vector orthogonal to it, and then
    verifying the reduction exhaustively."""
    p = 5
    for n in range(3, 7):
        coords = gfnum.all_vectors(p, n)
        gram = np.eye(n, dtype=np.int64)
        vals = gfnum.gram_values(gram, coords, p)
        for a in range(1, p):
            idx = np.flatnonzero(vals == a)
            assert idx.size, (n, a)
            w = coords[idx[0]]
            perp = coords[(coords @ w) % p == 0]
            perp_vals = gfnum.gram_values(gram, perp, p)
            assert (perp_vals == 1).any(), "no unit vector orthogonal to w"
            smaller = gfnum.all_vectors(p, n - 1)
            smaller_vals = (smaller * smaller).sum(axis=1) % p
            assert (smaller_vals == a).any(), f"{a} not a sum of {n-1} squares"


def test_known_arithmetic_table():
    f5 = known_arithmetic(finite_field(5))
    assert f5["m_A"] == 2 and f5["P_kappa"] == 2 and f5["henselian"]
    z5 = known_arithmetic(padic(5, 2))
    assert z5["m_A"] == 2 and z5["henselian"]
    loc = known_arithmetic(localized_at(5))
    assert loc["m_A"] == 4 and not loc["henselian"] and loc["K_formally_real"]


def test_known_arithmetic_pins_every_entry():
    """All seven entries: kappa = F_p for every ring with a prime and Q for
    Q; K the field itself, Q for Z_(p), and uncertified (None) for Z_p."""
    keys = ("m_A", "P_kappa", "m_K", "P_K", "henselian", "kappa_formally_real",
            "K_formally_real")
    table = {
        finite_field(3): (2, 2, 2, 2, True, False, False),
        finite_field(5): (2, 2, 2, 2, True, False, False),
        padic(5, 2): (2, 2, None, None, True, False, False),
        localized_at(5): (4, 2, 4, 4, False, False, True),
        rationals(): (4, 4, 4, 4, True, True, True),
    }
    for ring, row in table.items():
        assert known_arithmetic(ring) == dict(zip(keys, row)), ring.label()
    with pytest.raises(RingError):
        known_arithmetic(integers())


def test_padic_invariants_certified():
    rep = padic_invariants(padic(5, 3))
    assert rep.stufe.value() == 1 and rep.u_invariant.value() == 2
    assert rep.m_invariant.value() == 2
    rep3 = padic_invariants(padic(3, 2))
    assert rep3.stufe.value() == 2


def test_padic_invariants_check_the_residue_field(monkeypatch):
    import dataclasses

    residue = compute_invariants

    def one_more_u(ring):
        rep = residue(ring)
        return dataclasses.replace(rep, u_invariant=invariants.exact(rep.u_invariant.value() + 1))

    monkeypatch.setattr(invariants, "compute_invariants", one_more_u)
    with pytest.raises(AssertionError, match="u-invariant disagrees with the residue field"):
        padic_invariants(padic(5, 3))


def test_padic_invariants_close_every_witness(monkeypatch):
    def refuse(*args):
        raise AssertionError("planted: witness not closed")

    monkeypatch.setattr(invariants, "_close_zero", refuse)
    with pytest.raises(AssertionError, match="planted"):
        padic_invariants(padic(5, 3))
