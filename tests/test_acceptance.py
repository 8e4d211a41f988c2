"""Acceptance criteria: one test per criterion, exact tolerances, stated time
budgets, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import random
import time
from fractions import Fraction

from stiefel_lab.rings import finite_field, localized_at
from stiefel_lab.quadmod import euclidean, evaluate, frame
from stiefel_lab.invariants import compute_invariants, m_zp_witness
from stiefel_lab.isometry import (
    block_sum,
    cartan_dieudonne,
    enumerate_group,
    frame_transport_exhaustive,
    identity_isometry,
    reflection,
    stabilizer_restrict,
)
from stiefel_lab.quadmod import vec
from stiefel_lab.repsolve import find_isotropic, hensel_isotropy_replay
from stiefel_lab.stiefel import (
    connectivity_report,
    integer_aut_check,
    intersection_connectivity,
    morse_replay,
    wn_identification_check,
)
from stiefel_lab.stability import golden_grid

F3 = finite_field(3)
F5 = finite_field(5)


def _report(number, name, started, budget):
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {number:>2} {name}: PASS ({elapsed:.1f}s, budget {budget}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_01_invariant_table():
    started = time.monotonic()
    for p in (3, 5, 7, 11, 13):
        rep = compute_invariants(finite_field(p))
        assert rep.pythagoras.value() == 2
        assert rep.u_invariant.value() == 2
        assert rep.m_invariant.value() == 2
        assert rep.stufe.value() == (1 if p % 4 == 1 else 2)
    _report(1, "invariant-table", started, 5)


def test_criterion_02_connectivity_at_the_bound():
    started = time.monotonic()
    for ring in (F3, F5):
        for n in (5, 6, 7):
            t = time.monotonic()
            rep = connectivity_report(ring, n, 0)
            assert rep.betti == (0,), (ring.label(), n, rep.betti)
            assert rep.predicted_connectivity >= 0
            assert rep.bound_satisfied
            assert time.monotonic() - t < 60
    _report(2, "connectivity-at-bound", started, 360)


def _seeded_one_frames(q, count, seed):
    from stiefel_lab.stiefel import UnitSphere

    rng = random.Random(seed)
    sphere = UnitSphere(q)
    out = []
    for _ in range(count):
        i = rng.randrange(sphere.m)
        out.append(frame(q, [[int(c) for c in sphere.vectors[i]]]))
    return out


def test_criterion_03_graph_level_sphericity():
    started = time.monotonic()
    q8 = euclidean(F3, 8)
    empty = frame(q8, [])
    u1, v1 = _seeded_one_frames(q8, 2, seed=0)
    cases = [(empty, empty), (u1, empty), (u1, v1)]
    for u_fr, v_fr in cases:
        res = intersection_connectivity(F3, 8, u_fr, v_fr)
        assert res["connected"], res
    _report(3, "graph-level-sphericity", started, 120)


def test_criterion_04_morse_replay_l3():
    started = time.monotonic()
    q8 = euclidean(F3, 8)
    cert = morse_replay(F3, 8, 3, frame(q8, []), frame(q8, []),
                        sample_budget=200, seed=0)
    assert cert.mode == "sampled"
    assert cert.passed, cert.failures()
    for layer in (1, 2, 3):
        detail = next(d for n, ok, d in cert.assertions if n == f"links-L{layer}")
        checked = int(detail.split()[0])
        assert checked >= 200, f"layer {layer} sampled only {checked} links"
        assert "0 failures" in detail
    _report(4, "morse-replay-l3", started, 600)


def test_criterion_05_representation_equivalence():
    started = time.monotonic()
    import sys
    sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
    from test_repsolve import representation_equivalence_sweep

    total = representation_equivalence_sweep(3) + representation_equivalence_sweep(5)
    assert total == (2 + 4 + 8) * 2 + (4 + 16 + 64) * 4
    _report(5, "representation-equivalence", started, 30)


def test_criterion_06_cartan_dieudonne():
    started = time.monotonic()
    orders = {}
    for n in (1, 2, 3):
        q = euclidean(F3, n)
        group = enumerate_group(q)
        orders[n] = len(group)
        for phi in group:
            refs = cartan_dieudonne(q, phi)
            assert len(refs) <= 2 * n
            prod = identity_isometry(q)
            for v in refs:
                prod = prod.compose(reflection(q, v))
            assert prod.matrix == phi.matrix
    assert orders[2] + orders[3] == 56  # the stated element count across n
    Z5 = localized_at(5)
    rng = random.Random(0)
    q3 = euclidean(Z5, 3)
    done = 0
    while done < 100:
        phi = identity_isometry(q3)
        for _ in range(rng.randint(1, 4)):
            while True:
                v = [Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
                     for _ in range(3)]
                if any(v):
                    val = sum(Fraction(c) * Fraction(c) for c in v)
                    if val.numerator % 5 and val.denominator % 5:
                        break
            phi = phi.compose(reflection(q3, v))
        refs = cartan_dieudonne(q3, phi)
        assert len(refs) <= 6
        prod = identity_isometry(q3)
        for v in refs:
            prod = prod.compose(reflection(q3, v))
        assert prod.matrix == phi.matrix
        done += 1
    _report(6, "cartan-dieudonne", started, 60)


def test_criterion_07_homogeneity():
    started = time.monotonic()
    for p in (3, 5):
        ring = finite_field(p)
        for n in (1, 2, 3, 4):
            for k in (1, 2):
                if k > n:
                    continue
                stats = frame_transport_exhaustive(euclidean(ring, n), k, seed=0)
                assert stats["pairs"] == stats["frames"] ** 2
    # Stabilizer round-trip, exhaustively over the elements fixing the last
    # basis vector of Euclidean 3-space over F_3.
    q3 = euclidean(F3, 3)
    fixing = [g for g in enumerate_group(q3) if g.apply([0, 0, 1]) == vec(F3, [0, 0, 1])]
    assert len(fixing) == 8
    for g in fixing:
        small = stabilizer_restrict(g, 2)
        assert block_sum(small, euclidean(F3, 1)).matrix == g.matrix
    _report(7, "homogeneity", started, 120)


def test_criterion_08_wn_identification():
    started = time.monotonic()
    for n in (1, 2, 3):
        for p_level in (0, 1):
            if p_level + 1 > n:
                continue
            res = wn_identification_check(F3, [], n, p_level)
            assert res.passed, res.failures
    _report(8, "wn-identification", started, 60)


def test_criterion_09_integer_automorphisms():
    started = time.monotonic()
    factorial = {1: 1, 2: 2, 3: 6, 4: 24}
    for n in (1, 2, 3, 4):
        res = integer_aut_check(n)
        assert res.passed, res.failures
        assert res.details["automorphisms"] == 2 ** n * factorial[n]
    _report(9, "integer-automorphisms", started, 30)


def test_criterion_10_m_invariant_witness():
    started = time.monotonic()
    wit = m_zp_witness(5, 50)
    # 1/7 is an exact sum of four squares in Z_(5).
    assert sum(f * f for f in wit.four_square) == Fraction(1, 7)
    Z5 = localized_at(5)
    for f in wit.four_square:
        Z5.scalar(f)  # stays in the ring
    # No unit vector in 3<1/7> at rational height <= 50, i.e. no rational
    # point of x^2 + y^2 + z^2 = 7 at that height; and no integer point.
    assert not wit.rational_three_square_found
    assert not wit.integer_three_square_found
    assert wit.establishes_lower_bound
    _report(10, "m-invariant-witness", started, 60)


def test_criterion_11_range_golden_table():
    started = time.monotonic()
    rows = golden_grid()
    assert len(rows) == 200

    def pick(kind, case, n):
        return next(r for r in rows if r["kind"] == kind and r["case"] == case
                    and r["n"] == n)

    # Hand-checked fractions.
    assert pick("corollary-3", "-", 20)["surjective"] == 6
    assert pick("constant", "i", 20)["surjective"] == 5
    assert pick("constant", "i", 20)["isomorphism"] == 4
    assert pick("constant", "vii", 20)["surjective"] == 2
    assert pick("abelian", "iii", 20)["surjective"] == 5
    assert pick("corollary-1(d=1)", "a", 30)["surjective"] == 6
    assert pick("corollary-2", "b", 10 if any(r["n"] == 10 for r in rows) else 12)[
        "surjective"] == (12 - 4 - 6) // 2
    import hashlib
    import json
    from pathlib import Path

    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    frozen = (Path(__file__).parent / "data" / "golden_ranges.sha256").read_text().strip()
    assert digest == frozen
    _report(11, "range-golden-table", started, 1)


def test_criterion_12_hensel_replay():
    started = time.monotonic()
    stats = hensel_isotropy_replay(p=5, precision=4, count=50, seed=0)
    assert stats["count"] == 50
    # And the stronger sweep: witnesses at every precision up to 4.
    stats = hensel_isotropy_replay(p=5, precision=4, count=50, seed=0,
                                   all_precisions=True)
    assert stats["count"] == 50
    _report(12, "hensel-replay", started, 30)
