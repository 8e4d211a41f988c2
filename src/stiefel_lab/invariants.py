"""Arithmetic invariants: Pythagoras number P, Stufe s, u-invariant, and the
unit-vector threshold m, computed by brute force where the ring is finite and
reported as certified bounds elsewhere.

Infinite-ring values are *never* reported as infinity from a search: each is
either exact-with-certificate (a witness object the caller can replay) or a
bounded-search bound tagged with its height.  Comparisons between reports are
therefore interval comparisons and may legitimately come out undetermined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from stiefel_lab import gfnum
from stiefel_lab.rings import (
    FINITE_FIELD,
    LOCALIZED,
    PADIC,
    BudgetError,
    RingDescriptor,
    RingError,
    Scalar,
    localized_at,
    rationals,
)
from stiefel_lab.quadmod import euclidean
from stiefel_lab.repsolve import (
    ZERO_SEARCH_BUDGET,
    _close_zero,
    find_isotropic,
    represents,
)

INF = math.inf
# Largest rank the exhaustive u and m scans try over a prime field, and
# the Hensel-certified scans over truncated Z_p.
FIELD_SEARCH_RANK = 4
PADIC_SEARCH_RANK = 3


@dataclass(frozen=True)
class InvariantValue:
    """Interval [lo, hi] with a provenance tag; exact when lo == hi."""

    lo: float
    hi: float
    source: str

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    def value(self) -> int:
        if not self.exact:
            raise ValueError(f"value not pinned: [{self.lo}, {self.hi}]")
        return int(self.lo)

    def __str__(self) -> str:
        if self.exact:
            return f"{int(self.lo)} ({self.source})"
        hi = "inf" if self.hi == INF else int(self.hi)
        return f"[{self.lo}, {hi}] ({self.source})"


def exact(v: int, source: str = "exhaustive") -> InvariantValue:
    return InvariantValue(v, v, source)


@dataclass(frozen=True)
class InvariantReport:
    ring: RingDescriptor
    pythagoras: InvariantValue
    stufe: InvariantValue
    u_invariant: InvariantValue
    m_invariant: InvariantValue
    search_bound: Optional[int] = None

    def as_dict(self) -> dict:
        return {
            "ring": self.ring.label(),
            "P": str(self.pythagoras),
            "s": str(self.stufe),
            "u": str(self.u_invariant),
            "m": str(self.m_invariant),
            "search_bound": self.search_bound,
        }


# ---------------------------------------------------------------------------
# Finite fields: everything exhaustive
# ---------------------------------------------------------------------------


def _square_class_diagonals(p: int, rank: int) -> np.ndarray:
    """The 2^rank diagonal Gram matrices <c_1, ..., c_rank>, each c_i 1 or
    the least non-square nu mod p, as a (2^rank, rank, rank) stack in the
    lexicographic order of (c_i): r<1> first, r<nu> last.

    They stand for every unit diagonal of the rank, over F_p and over Z/p^N
    alike.  x -> (t_i x_i) is an isometry from <a_i t_i^2> to <a_i> for units
    t_i, and it keeps x primitive; so whether a unit diagonal is isotropic,
    or represents a value, depends only on the square classes of its
    entries.  Over Z/p^N with p odd every unit is 1 or nu times a unit
    square (Hensel's lemma lifts the square roots mod p)."""
    nu = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
    classes = 1 + (nu - 1) * gfnum.all_vectors(2, rank)
    return classes[:, :, None] * np.eye(rank, dtype=np.int64)


def compute_invariants(ring: RingDescriptor) -> InvariantReport:
    """All four invariants of an odd prime field, by exhaustive search.

    Every unit diagonal of a rank is one of the 2^rank square-class
    diagonals up to isometry (`_square_class_diagonals`), and
    `gfnum.first_solutions` scans each of those over every non-zero vector
    until its first solution of q(x) = a.  u is the largest rank of an
    anisotropic unit diagonal (a = 0) and m the least rank at which every
    unit diagonal represents 1 (a = 1): a diagonal of higher rank contains
    one of lower rank, so both scans stop at the first rank that settles
    them.  The same a = 1 scans give P and s: the sums of r squares are all
    of F_p exactly when r<1> represents nu, that is when r<nu> (the last
    class row) represents 1, and that least r is P; k<1> represents -1
    exactly when k<-1> represents 1, and -1 lies in the class of 1 or of nu,
    so s is the least k at which the first row k<1> or the last row k<nu>,
    after the class of -1, represents 1.
    """
    if ring.kind != FINITE_FIELD:
        raise RingError("compute_invariants is exhaustive over prime fields only")
    p = ring.p
    u, ones = None, []  # ones[r - 1]: which class diagonals of rank r represent 1
    for rank in range(1, FIELD_SEARCH_RANK + 1):
        grams = _square_class_diagonals(p, rank)
        if not ones or not ones[-1].all():
            ones.append(gfnum.first_solutions(grams, p, 1).any(axis=1))
        if u is None and gfnum.first_solutions(grams, p, 0).any(axis=1).all():
            u = rank - 1
        if u is not None and ones[-1].all():
            break
    else:
        raise AssertionError(f"no rank <= {FIELD_SEARCH_RANK} settles u and m over F_{p}")
    minus_one = 0 if pow(p - 1, (p - 1) // 2, p) == 1 else -1
    pyth = next(r for r, solved in enumerate(ones, 1) if solved[-1])
    stufe = next(r for r, solved in enumerate(ones, 1) if solved[minus_one])
    return InvariantReport(
        ring,
        pythagoras=exact(pyth),
        stufe=exact(stufe),
        u_invariant=exact(u),
        m_invariant=exact(len(ones)),
    )


# ---------------------------------------------------------------------------
# Local rings: Hensel-certified values and bounded-search bounds
# ---------------------------------------------------------------------------


def padic_invariants(ring: RingDescriptor,
                     kappa_report: Optional[InvariantReport] = None) -> InvariantReport:
    """s, u, m over truncated Z_p by Hensel-certified witnesses; these agree
    with the residue field's `kappa_report` (computed here when not given;
    the lifts are the certificates, the failures are exact because an
    anisotropic reduction stays anisotropic).  Every unit diagonal of a rank
    is one of its 2^rank square-class diagonals up to an isometry that keeps
    vectors primitive (`_square_class_diagonals`), so u and m are read off
    those alone: the first solution of q(x) = a mod p of each, from one call
    of `gfnum.first_solutions`, closed mod p^N by `_close_zero`, which
    re-checks it."""
    if ring.kind != PADIC:
        raise RingError("expects a truncated p-adic ring")
    if kappa_report is None:
        kappa_report = compute_invariants(ring.residue_ring())
    elif kappa_report.ring != ring.residue_ring():
        raise ValueError("residue report does not match the ring")
    tag = f"hensel-certified at precision {ring.precision}"

    def solve_all(grams: np.ndarray, a: int) -> bool:
        """Whether every form takes the value a; each solution found is
        closed by `_close_zero`, which raises unless q(x) = a mod p^N."""
        zeros = gfnum.first_solutions(grams, ring.p, a)
        for rows, x0 in zip(grams.tolist(), zeros.tolist()):
            if any(x0):
                _close_zero(rows, x0, ring, a)
        return bool(zeros.any(axis=1).all())

    def classes(rank: int) -> np.ndarray:
        return _square_class_diagonals(ring.p, rank)

    ranks = range(1, PADIC_SEARCH_RANK + 1)
    s_val = next((k for k in range(1, 5) if solve_all(classes(k)[:1], -1)), None)
    if s_val != kappa_report.stufe.value():
        raise AssertionError("Hensel-certified Stufe disagrees with the residue field")
    # u: the ranks below the first whose unit diagonals are all isotropic.
    u_val = next((r - 1 for r in ranks if solve_all(classes(r), 0)), PADIC_SEARCH_RANK)
    if u_val != kappa_report.u_invariant.value():
        raise AssertionError("Hensel-certified u-invariant disagrees with the residue field")
    m_val = next((r for r in ranks if solve_all(classes(r), 1)), None)
    if m_val != kappa_report.m_invariant.value():
        raise AssertionError("Hensel-certified m-invariant disagrees with the residue field")
    # P: squeezed between P(kappa) and s + 1 (2 is a unit).
    p_lo = kappa_report.pythagoras.value()
    p_hi = s_val + 1
    pyth = (
        exact(p_lo, tag)
        if p_lo == p_hi
        else InvariantValue(p_lo, p_hi, "interval: P(residue) <= P <= s + 1")
    )
    return InvariantReport(
        ring,
        pythagoras=pyth,
        stufe=exact(s_val, tag),
        u_invariant=exact(u_val, tag),
        m_invariant=exact(m_val, tag),
    )


def localized_invariants(ring: RingDescriptor, height: int = 50) -> InvariantReport:
    """Z_(p): bounded-search bounds; the m value combines the explicit
    rank-3 witness (lower bound at the height) with the quotient-field
    constant m_Q = 4 for the upper bound."""
    if ring.kind != LOCALIZED:
        raise RingError("expects Z_(p)")
    # Stufe: k<1> + <1> is definite, so `represents` proves -1 is no sum of
    # k squares before it evaluates a candidate; report the searched floor
    # rather than asserting infinity.
    s_checked = 4
    for k in range(1, s_checked + 1):
        if represents(euclidean(ring, k), ring.scalar(-1)) is not None:
            raise AssertionError(f"-1 is a sum of {k} squares in {ring.label()}")
    stufe = InvariantValue(s_checked + 1, INF, f"no witness for k <= {s_checked} at height {height}")
    # u: n<1> is definite, hence anisotropic at every tested rank.
    u_checked = 6
    for rank in range(1, u_checked + 1):
        if find_isotropic(euclidean(ring, rank), height_bound=height).found:
            raise AssertionError(f"{rank}<1> is isotropic over {ring.label()}")
    u = InvariantValue(u_checked, INF, f"n<1> anisotropic for n <= {u_checked} at height {height}")
    wit = m_zp_witness(ring.p, height)
    if not wit.establishes_lower_bound:
        raise AssertionError("rank-3 witness does not establish m >= 4")
    m = InvariantValue(4, 4, f"rank-3 witness at height {height}; <= m_Q = 4")
    # P: 7 is a sum of four squares but of no three at the searched height;
    # the witness above ran that three-square search.
    pyth = InvariantValue(4, INF, f"7 needs four squares; searched height {height}")
    return InvariantReport(ring, pyth, stufe, u, m, search_bound=height)


# ---------------------------------------------------------------------------
# The certified table used by the sufficient-condition evaluators
# ---------------------------------------------------------------------------

_ARITH_CACHE: dict = {}


def known_arithmetic(ring: RingDescriptor) -> dict:
    """m and P for the ring, its residue field kappa, and its quotient field
    K, with flags, as used by the unit-vector and connectivity condition
    checkers.

    kappa is F_p for every ring with a prime (F_p is its own) and Q for Q,
    under the trivial valuation; K is the field itself for a field and Q
    for Z_(p).  Prime-field values are computed exhaustively (and cached);
    the constants m_Q = P_Q = 4 rest on the four-square decomposition plus
    the integral three-square obstruction, both replayed in this package's
    tests.  A henselian ring shares m with kappa; Z_(p) takes m_Q, backed
    by the rank-3 witness m >= 4.  None marks a value the package does not
    certify (K = Q_p for Z_p; treated as "condition not applicable"), never
    a claim of infinity.
    """
    if ring in _ARITH_CACHE:
        return _ARITH_CACHE[ring]
    if not ring.is_local:
        raise RingError(f"no arithmetic table for {ring.label()}")
    m_q = p_q = 4
    if ring.p:
        rep = compute_invariants(ring.residue_ring())
        m_kappa, p_kappa = rep.m_invariant.value(), rep.pythagoras.value()
    else:
        m_kappa, p_kappa = m_q, p_q
    m_k, p_k = ((m_kappa, p_kappa) if ring.is_field
                else (m_q, p_q) if ring.formally_real else (None, None))
    out = {
        "m_A": m_kappa if ring.henselian else m_k,
        "P_kappa": p_kappa,
        "m_K": m_k,
        "P_K": p_k,
        "henselian": ring.henselian,
        "kappa_formally_real": ring.p is None,
        "K_formally_real": ring.formally_real,
    }
    _ARITH_CACHE[ring] = out
    return out


# ---------------------------------------------------------------------------
# Inequality ledger
# ---------------------------------------------------------------------------


def _leq(x: InvariantValue, y: InvariantValue) -> str:
    if x.hi <= y.lo:
        return "pass"
    if x.lo > y.hi:
        return "fail"
    return "undetermined"


def _eq(x: InvariantValue, y: InvariantValue) -> str:
    if x.exact and y.exact and x.lo == y.lo:
        return "pass"
    if x.hi < y.lo or y.hi < x.lo:
        return "fail"
    return "undetermined"


def check_inequalities(
    report_a: InvariantReport,
    report_kappa: Optional[InvariantReport] = None,
) -> list[tuple[str, str]]:
    """Evaluate the invariant inequalities on a ring and, optionally, its
    residue field; each entry is (name, pass | fail | undetermined).
    Failures list the violated inequality by name."""
    out = []
    a = report_a

    def rec(name, status):
        out.append((name, status))

    if a.ring.is_field:
        rec("P <= m", _leq(a.pythagoras, a.m_invariant))
    if a.ring.two_is_unit:
        plus1 = InvariantValue(a.stufe.lo + 1, a.stufe.hi + 1 if a.stufe.hi != INF else INF,
                               a.stufe.source)
        rec("P <= s + 1", _leq(a.pythagoras, plus1))
        rec("s <= u", _leq(a.stufe, a.u_invariant))
        rec("m <= u", _leq(a.m_invariant, a.u_invariant))
    if report_kappa is not None:
        if report_kappa.ring != a.ring.residue_ring():
            raise ValueError("residue report does not match the ring")
        k = report_kappa
        rec("m_kappa <= m_A", _leq(k.m_invariant, a.m_invariant))
        rec("P(kappa) <= P(A)", _leq(k.pythagoras, a.pythagoras))
        rec("s(kappa) <= s(A)", _leq(k.stufe, a.stufe))
        rec("u(kappa) <= u(A)", _leq(k.u_invariant, a.u_invariant))
        if a.ring.henselian:
            rec("henselian: m_A = m_kappa", _eq(a.m_invariant, k.m_invariant))
            rec("henselian: s_A = s_kappa", _eq(a.stufe, k.stufe))
            rec("henselian: u_A = u_kappa", _eq(a.u_invariant, k.u_invariant))
    return out


# ---------------------------------------------------------------------------
# The rank-3 witness for m over Z_(p)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MZpWitness:
    p: int
    height: int
    four_square: tuple[Fraction, ...]
    rational_three_square_found: bool
    integer_three_square_found: bool

    @property
    def establishes_lower_bound(self) -> bool:
        return not self.rational_three_square_found and not self.integer_three_square_found


def no_rational_three_square(target: int, height: int) -> bool:
    """True when a^2 + b^2 + c^2 = target * d^2 has no integer solution with
    1 <= d <= height and |a|, |b|, |c| <= height.  Vector height here is the
    max of the cleared-denominator entries (common denominator d included).
    The h(h + 1)(h + 2)/2 candidates (d, a <= b) at height h are priced
    first: past ZERO_SEARCH_BUDGET of them the search is refused.  The
    search itself is one lookup: whether some target * d^2 - c^2 (c >= 0)
    lies in the sorted table of the a^2 + b^2 (a, b >= 0), all <= 2h^2.
    A negative target has no solution, nor has one past 3h^2, where every
    difference passes 2h^2; so every int64 entry stays below 3h^4."""
    count = height * (height + 1) * (height + 2) // 2
    if count > ZERO_SEARCH_BUDGET:
        raise BudgetError(f"three-square search at height {height} prices {count} "
                          f"candidates, more than {ZERO_SEARCH_BUDGET}")
    if not 0 <= target <= 3 * height * height:
        return True
    squares = np.arange(height + 1, dtype=np.int64) ** 2
    sums = np.unique(squares[:, None] + squares)
    return not gfnum.member(sums, target * squares[1:, None] - squares).any()


def m_zp_witness(p: int, height: int) -> MZpWitness:
    """The rank-3 module 3<1/7> inside Euclidean 12-space over Z_(p): 1/7 is
    an explicit sum of four squares, yet no unit vector turns up at the given
    height, and 7 is not a sum of three integer squares at all.  Together:
    m(Z_(p)) >= 4 at this search height."""
    if height < 1:
        raise ValueError("height must be >= 1")
    if 7 % p == 0:
        raise RingError(f"construction needs p not dividing 7, got p = {p}")
    ring = localized_at(p)
    # 7 = 2^2 + 1^2 + 1^2 + 1^2, the first zero of 4<1> + <-7> at max-norm 2.
    quads = represents(euclidean(rationals(), 4), 7)
    if quads is None:
        raise AssertionError("no four-square decomposition of 7")
    four = tuple(c.value / 7 for c in quads)  # rescaled by 1/7
    total = sum(f * f for f in four)
    if total != Fraction(1, 7):
        raise AssertionError("rescaled squares do not sum to 1/7")
    for f in four:
        Scalar(ring, f)  # all lie in Z_(p) since p does not divide 7
    rational_found = not no_rational_three_square(7, height)
    # The d = 1 slice at height 2 holds every integer solution, as x^2 <= 7.
    integer_found = not no_rational_three_square(7, 2)
    return MZpWitness(p, height, four, rational_found, integer_found)


# ---------------------------------------------------------------------------
# The two-unit-vector hypothesis and its Pythagoras bound
# ---------------------------------------------------------------------------


def _signed_perm_orbit_reps(units: np.ndarray, p: int) -> np.ndarray:
    """Indices of one representative per orbit of the signed-permutation
    action; the orbit invariant is the sorted multiset of min(c, p - c).
    Signed permutations are isometries, so the two-vector hypothesis only
    needs one representative as the first vector of the pair."""
    keys = np.sort(np.minimum(units, p - units), axis=1)
    _, first = np.unique(keys, axis=0, return_index=True)
    return np.sort(first)


def shapiro_bound_check(ring: RingDescriptor, k: int, n_extra: int = 2) -> dict:
    """Exhaustively test, for n in [k, k + n_extra], that the orthogonal
    complement of every pair of unit vectors in Euclidean n-space contains a
    unit vector, then check P <= k - 2 against the exhaustive invariants.
    The prime field F_3 is rejected: the implication fails there."""
    from stiefel_lab.stiefel import UnitSphere

    if ring.kind != FINITE_FIELD:
        raise RingError("hypothesis test implemented over prime fields")
    if ring.p == 3:
        raise ValueError("F_3 is excluded: the bound is false over it")
    results = {}
    for n in range(k, k + n_extra + 1):
        # the polar pairing 2 x.y and the dot product have the same zeros
        sphere = UnitSphere(euclidean(ring, n))
        rows = sphere.packed_rows()
        ok = True
        for e in _signed_perm_orbit_reps(sphere.vectors, ring.p):
            # every candidate f needs a unit vector orthogonal to both e and
            # f: the rows of perp(e) together cover every vertex
            cover = np.bitwise_or.reduce(rows[sphere.orthogonal_mask(e)], axis=0)
            if int(np.bitwise_count(cover).sum()) != sphere.m:
                ok = False
                break
        results[n] = ok
    hypothesis = all(results.values())
    pyth = compute_invariants(ring).pythagoras.value()
    return {
        "field": ring.label(),
        "k": k,
        "hypothesis_by_n": results,
        "hypothesis": hypothesis,
        "pythagoras": pyth,
        "bound_holds": (not hypothesis) or pyth <= k - 2,
    }
