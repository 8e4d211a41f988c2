"""Isotropy and representation solvers.

The organizing fact: a non-singular form q represents a unit a exactly when
q(x) = a has a solution, and each ring kind reaches one by one route.  Over
the residue rings Z/m, m = ring.modulus (p over F_p, which is Z/p^1, and p^N
over truncated Z_p), one batched kernel, `gfnum.first_solutions`, finds
the first x with q(x) = a mod p exhaustively for every form of a stack of
one rank at once, and, when m > p, each is closed with one Hensel step;
isotropy is its case a = 0.  Over Q and Z_(p) one bounded-height search
finds zeros (w | x) of q + <-a>, and the first with a unit x gives
q(w/x) = a.

Bounded search cannot prove negatives over infinite rings, so "not found
within bound" is a first-class outcome carrying its bound and is never
conflated with proven absence; a search that would outgrow its candidate
budget is refused with its counts instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from stiefel_lab import gfnum
from stiefel_lab.rings import (
    LOCALIZED,
    PADIC,
    RATIONALS,
    BudgetError,
    RingDescriptor,
    RingError,
    Scalar,
    hensel_root,
    localized_at,
    padic,
    valuation,
)
from stiefel_lab.quadmod import (
    Frame,
    QuadraticModule,
    Vector,
    _bareiss_det,
    complement_core,
    det,
    diagonal_module,
    evaluate,
    integer_lift,
    orthogonal_sum,
    polar,
    vec,
)

DEFAULT_HEIGHT_BOUND = 20
# Most candidates one bounded zero search may evaluate, about half a second
# of work; the searches in the test suite evaluate at most 1,330.
ZERO_SEARCH_BUDGET = 10 ** 5

REGIME_EXHAUSTIVE = "exhaustive"
REGIME_HENSEL = "hensel-lifted"
REGIME_RESCALED = "rescaled-from-quotient-field"
REGIME_NOT_FOUND = "not-found-within-bound"


@dataclass(frozen=True)
class IsotropyWitness:
    """Outcome of an isotropy search, qualified by how it was obtained.

    vector is None exactly when nothing was found; in the exhaustive and
    hensel regimes that is a proof of anisotropy, in the bounded regime it
    only reports search exhaustion at `height_bound`.  Over truncated
    p-adics q(vector) = 0 means = 0 mod p^precision.
    """

    vector: Optional[Vector]
    regime: str
    precision: Optional[int] = None
    height_bound: Optional[int] = None

    @property
    def found(self) -> bool:
        return self.vector is not None

    def __bool__(self) -> bool:
        return self.found


def _residue_solutions(forms: Sequence[Sequence[Sequence[int]]], p: int,
                       a: int = 0) -> list[Optional[list[int]]]:
    """For each form, given by its int Gram rows, the lexicographically first
    nonzero x with q(x) = a mod p, or None when q takes no such value (for
    a = 0: the reduction mod p is anisotropic).  The forms of each rank are
    solved together, in one call of the batched kernel
    `gfnum.first_solutions`."""
    out: list[Optional[list[int]]] = [None] * len(forms)
    by_rank: dict[int, list[int]] = {}
    for i, rows in enumerate(forms):
        by_rank.setdefault(len(rows), []).append(i)
    for members in by_rank.values():
        grams = np.array([[[g % p for g in row] for row in forms[i]] for i in members],
                         dtype=np.int64)
        for i, x in zip(members, gfnum.first_solutions(grams, p, a).tolist()):
            if any(x):
                out[i] = x
    return out


def _close_zero(rows: Sequence[Sequence[int]], x0: Sequence[int],
                ring: RingDescriptor, a: int = 0) -> list[int]:
    """Solution of q(x) = a mod m = ring.modulus for the non-singular form
    with int Gram rows, from a primitive x0 with q(x0) = a mod p: x0 itself
    when m = p, else closed by one Hensel step (Hensel's lemma for a simple
    root).

    G is invertible mod p and x0 is nonzero mod p, so some (G x0)_j is a
    unit.  At the first such j, q(x0 + t e_j) - a = G_jj t^2 + 2 (G x0)_j t
    + q(x0) - a has the simple root t = 0 mod p, and its lift closes q to a
    mod m.  The result is re-checked on ints: q(x) = a mod m and x primitive
    mod p."""
    p, m = ring.p, ring.modulus
    x = list(x0)
    if m > p:
        gx = [sum(g * c for g, c in zip(row, x)) for row in rows]
        j = next((i for i, c in enumerate(gx) if c % p), None)
        if j is None:
            raise AssertionError("primitive vector with no unit pairing in a non-singular form")
        value = sum(c * g for c, g in zip(x, gx)) - a
        x[j] = (x[j] + hensel_root(ring, (rows[j][j], 2 * gx[j], value), 0).value) % m
    if not any(c % p for c in x):
        raise AssertionError("witness not primitive")
    if (sum(c * sum(g * d for g, d in zip(row, x)) for c, row in zip(x, rows)) - a) % m:
        raise AssertionError(f"witness does not take the value {a} mod {m}")
    return x


def _shell(h: int, r: int):
    """The (2h + 1)^r - (2h - 1)^r integer r-tuples of max-norm h in
    lexicographic order, chained from products (a head +-h takes any tail)."""
    full, inner = range(-h, h + 1), range(1 - h, h)

    def blocks(prefix, r):  # the rank-r shell after the factors of prefix
        yield itertools.product(*prefix, (-h,), *[full] * (r - 1))
        if r == 2:
            yield itertools.product(*prefix, inner, (-h, h))
        for c in inner if r > 2 else ():
            yield from blocks(prefix + ((c,),), r - 1)
        yield itertools.product(*prefix, (h,), *[full] * (r - 1))

    return itertools.chain.from_iterable(blocks((), r) if r else ())


def _bounded_zeros(q: QuadraticModule, bound: int):
    """Nonzero integer vectors of max-norm <= bound on which the integer lift
    of q vanishes, by max-norm and then lexicographically.  Counts the
    candidates it evaluates and refuses past ZERO_SEARCH_BUDGET of them."""
    lifted, _ = integer_lift(q.gram_values, q.ring)
    scanned = 0
    for h in range(1, bound + 1):
        for cand in _shell(h, q.rank):
            scanned += 1
            if scanned > ZERO_SEARCH_BUDGET:
                raise BudgetError(f"zero search of a rank-{q.rank} form at bound {bound} "
                                  f"passed {ZERO_SEARCH_BUDGET} candidates at max-norm {h}")
            total = 0
            for ci, row in zip(cand, lifted):
                if ci:
                    total += ci * sum(r * c for r, c in zip(row, cand) if c)
            if total == 0:
                yield cand


def _rational_definite(q: QuadraticModule) -> bool:
    """Exact Sylvester test: all leading principal minors strictly positive
    (or strictly alternating) makes the form definite over Q, hence
    anisotropic -- a proof, not a search outcome."""
    minors = [det(tuple(row[:k] for row in q.gram[:k]), q.ring).value
              for k in range(1, q.rank + 1)]
    if all(m > 0 for m in minors):
        return True
    return all((m > 0) == (i % 2 == 1) and m != 0 for i, m in enumerate(minors))


def find_isotropic(
    q: QuadraticModule, height_bound: int = DEFAULT_HEIGHT_BOUND
) -> IsotropyWitness:
    """Primitive vector with q = 0, per-ring strategy as documented above."""
    ring = q.ring
    if not q.is_nonsingular():
        raise ValueError("isotropy search expects a non-singular module")
    if q.rank == 0:
        return IsotropyWitness(None, REGIME_EXHAUSTIVE)
    if ring.modulus is not None:
        x0 = _residue_solutions([q.gram_values], ring.p)[0]
        if x0 is None:
            return IsotropyWitness(None, REGIME_EXHAUSTIVE, precision=ring.precision)
        regime = REGIME_HENSEL if ring.kind == PADIC else REGIME_EXHAUSTIVE
        return IsotropyWitness(vec(ring, _close_zero(q.gram_values, x0, ring)), regime,
                               precision=ring.precision)
    if ring.kind in (LOCALIZED, RATIONALS):
        if _rational_definite(q):
            # Definite over Q: only the zero vector vanishes, exactly.
            return IsotropyWitness(None, REGIME_EXHAUSTIVE)
        for cand in _bounded_zeros(q, height_bound):
            v = vec(ring, cand)
            if ring.kind == LOCALIZED:
                v = scale_to_primitive(v, ring.p)
            if not evaluate(q, v).is_zero():
                raise AssertionError("rescaled witness is not isotropic")
            return IsotropyWitness(v, REGIME_RESCALED, height_bound=height_bound)
        return IsotropyWitness(None, REGIME_NOT_FOUND, height_bound=height_bound)
    raise RingError(f"isotropy search not supported over {ring.label()}")


def scale_to_primitive(x: Sequence[Scalar], p: int) -> Vector:
    """Divide by a coordinate of minimal p-valuation: all valuations become
    nonnegative and some coordinate becomes 1 (so the vector is primitive)."""
    xs = tuple(x)
    if all(c.is_zero() for c in xs):
        raise ValueError("cannot rescale the zero vector")
    vals = [valuation(c, p) if c.ring.kind in (LOCALIZED, RATIONALS) else None for c in xs]
    if any(v is None for v in vals):
        raise RingError("rescaling needs scalars over Q or Z_(p)")
    best = min(range(len(xs)), key=lambda i: (vals[i], i))
    pivot = xs[best]
    target = localized_at(p)
    out = tuple(Scalar(target, Fraction(c.value) / Fraction(pivot.value)) for c in xs)
    return out


def represents(q: QuadraticModule, a: Scalar) -> Optional[Vector]:
    """Vector v with q(v) = a for a unit a and a non-singular q.

    Over Z/m, the first solution of q(x) = a mod p, closed mod m; None is a
    proof.  Over Q and Z_(p), v = w/x for the first zero (w | x) of q + <-a>
    in the bounded search whose last coordinate x is a unit; None only
    reports the bound, except for a definite q + <-a>, which has no zero."""
    ring = q.ring
    a = Scalar(ring, a)
    if not a.is_unit():
        raise ValueError("representation targets must be units")
    if q.rank == 0:
        return None
    if not q.is_nonsingular():
        raise ValueError("representation search expects a non-singular module")
    if ring.modulus is not None:
        x0 = _residue_solutions([q.gram_values], ring.p, a.value)[0]
        return None if x0 is None else vec(ring, _close_zero(q.gram_values, x0, ring, a.value))
    if ring.kind not in (LOCALIZED, RATIONALS):
        raise RingError(f"representation search not supported over {ring.label()}")
    aug = orthogonal_sum(q, diagonal_module(ring, [-a.value]))
    if _rational_definite(aug):
        return None
    for cand in _bounded_zeros(aug, DEFAULT_HEIGHT_BOUND):
        x = cand[-1]
        if x and (ring.kind == RATIONALS or x % ring.p):
            v = vec(ring, [Fraction(c, x) for c in cand[:-1]])
            got = evaluate(q, v)
            if got != a:
                raise AssertionError(f"representation check failed: {got} != {a}")
            return v
    return None


def hensel_isotropy_replay(p: int = 5, precision: int = 4, count: int = 50,
                           seed: int = 0, all_precisions: bool = False) -> dict:
    """Seed-fixed non-singular binary and ternary forms over truncated Z_p
    whose reductions are isotropic; every one must produce an exact isotropy
    witness by Hensel lifting (at every precision up to the target when
    all_precisions is set).  Returns counts for reporting."""
    import random as _random

    rng = _random.Random(seed)
    done = 0
    generated = 0
    targets = [padic(p, n) for n in (range(1, precision + 1) if all_precisions else [precision])]
    while done < count:
        if generated == 100 * count:
            raise BudgetError(f"form generation stalled after {generated} forms")
        # Each form lifts at most once, so count - done more forms are all
        # needed; at most one block of rank-3 Gram matrices is drawn ahead.
        size = min(count - done, 100 * count - generated, gfnum.block_rows(9))
        forms = []
        for _ in range(size):  # the rank, then the rows; the upper triangle is kept
            rank = rng.choice([2, 3])
            rows = [[rng.randrange(p ** precision) for _ in range(rank)] for _ in range(rank)]
            forms.append([[rows[min(i, j)][max(i, j)] for j in range(rank)] for i in range(rank)])
        # The residue form is the same at every precision, so one mod-p
        # solution is the filter (none found: the reduction is anisotropic)
        # and the zero that each precision closes (re-checked there to
        # vanish mod p^n).
        for rows, x0 in zip(forms, _residue_solutions(forms, p)):
            generated += 1
            if x0 is None or _bareiss_det(rows) % p == 0:  # or singular over Z/p^N
                continue
            for ring in targets:
                _close_zero(rows, x0, ring)
            done += 1
    return {"p": p, "precision": precision, "count": done, "seed": seed,
            "forms_generated": generated}


@dataclass(frozen=True)
class ConditionReport:
    """Which sufficient conditions for a unit vector in U-perp ∩ V-perp hold
    at (n, r, s), and whether one was found."""

    n: int
    r: int
    s: int
    conditions: tuple[tuple[str, bool, bool], ...]  # (label, applicable, holds)
    found: bool

    def any_holds(self) -> bool:
        return any(h for _, app, h in self.conditions if app)


def unit_vector_conditions(ring, n: int, r: int, s: int) -> list[tuple[str, bool, bool]]:
    """Evaluate the residue-side and quotient-side sufficient conditions using
    the package's certified invariant table for the ring."""
    from stiefel_lab.invariants import known_arithmetic

    inv = known_arithmetic(ring)
    out = []
    ma, pk = inv["m_A"], inv["P_kappa"]
    hen, kfr = inv["henselian"], inv["kappa_formally_real"]
    out.append(("residue-m", ma is not None, ma is not None and n >= ma + r + 2 * s))
    out.append(("residue-m-formally-real", kfr and ma is not None,
                kfr and ma is not None and n >= ma + r + s))
    out.append(("residue-P-henselian", hen and pk is not None,
                hen and pk is not None and n > 2 * pk * r + s))
    out.append(("residue-P-henselian-formally-real", hen and kfr and pk is not None,
                hen and kfr and pk is not None and n > pk * r + s))
    mk, pK = inv["m_K"], inv["P_K"]
    Kfr = inv["K_formally_real"]
    app2 = r >= s  # the quotient-field statement assumes r >= s
    out.append(("quotient-m", app2 and mk is not None,
                app2 and mk is not None and n >= mk + 2 * r + s))
    out.append(("quotient-m-formally-real", app2 and Kfr and mk is not None,
                app2 and Kfr and mk is not None and n >= mk + r + s))
    out.append(("quotient-P", app2 and pK is not None,
                app2 and pK is not None and n > 2 * pK * r + s))
    out.append(("quotient-P-formally-real", app2 and Kfr and pK is not None,
                app2 and Kfr and pK is not None and n > pK * r + s))
    return out


def unit_vector_in_complement(
    q: QuadraticModule,
    u_frame: Frame,
    v_frame: Frame,
) -> tuple[Optional[Vector], ConditionReport]:
    """Unit vector orthogonal to both frames, searched in the non-singular
    core W of U-perp ∩ V-perp; returns the vector and the report of which
    sufficient conditions held.

    Over F_p the core search is exhaustive and answers for the whole
    intersection: there U-perp ∩ V-perp = Rad + W orthogonally with q = 0
    on the radical, so q(r + w) = q(w)."""
    ring = q.ring
    n, r, s = q.rank, len(u_frame), len(v_frame)
    conditions = tuple((lbl, app, holds) for lbl, app, holds in
                       unit_vector_conditions(ring, n, r, s))
    found_vec: Optional[Vector] = None
    core = complement_core(q, u_frame, v_frame)
    if core.rank:
        got = represents(core.restricted_module(), ring.one)
        if got is not None:
            found_vec = core.to_ambient(got)
    if found_vec is not None:
        if evaluate(q, found_vec) != ring.one:
            raise AssertionError("complement vector does not have value 1")
        for fr in (u_frame, v_frame):
            for fv in fr.vectors:
                if not polar(q, found_vec, fv).is_zero():
                    raise AssertionError("complement vector is not orthogonal to the frames")
    report = ConditionReport(n, r, s, conditions, found_vec is not None)
    return found_vec, report
