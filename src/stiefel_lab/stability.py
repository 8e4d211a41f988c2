"""Stability-range and connectivity-range formulas, evaluated exactly.

Every bound is stated in the source material as "the map is a surjection /
isomorphism for i <= (fraction)"; the functions here keep the fraction exact
(Fraction comparisons, never pre-floored) and derive the integer cutoff from
it, so there is no off-by-one drift.

Two of the connectivity-range items and one hypothesis flag look inconsistent
in the source (an A-side invariant appearing in a quotient-field clause, and
a formally-real hypothesis attached to the ring rather than its residue
field).  Both readings are implemented side by side, labelled "literal" and
"corrected", and nothing silently picks one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

CONSTANT_CASES = ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii")
ABELIAN_CASES = ("i", "ii", "iii", "iv", "v", "vi")


@dataclass(frozen=True)
class RangeInputs:
    """Parameters feeding a range formula: the rank n, one invariant value
    (which of m_A / m_K / P(residue) / P(K) depends on the case), flags, and
    the coefficient degree for polynomial coefficients."""

    n: int
    invariant: int
    henselian: bool = False
    formally_real: bool = False
    degree: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n < 1 or self.invariant < 1:
            raise ValueError("rank and invariant must be positive")
        if self.degree is not None and self.degree < -1:
            raise ValueError("coefficient degree must be >= -1")


@dataclass(frozen=True)
class RangeResult:
    surjective_up_to: int
    isomorphism_up_to: int
    case: str
    kind: str

    def __post_init__(self) -> None:
        if self.isomorphism_up_to > self.surjective_up_to:
            raise ValueError("isomorphism range cannot exceed surjectivity range")

    @property
    def empty(self) -> bool:
        return self.surjective_up_to < 0


# Surjectivity fraction (numerator, denominator) of cases (i)-(iv); cases
# (v)-(viii) repeat them with the quotient-field invariant.  Isomorphism
# holds for the numerator less 1.
_CONSTANT_RANGE = (
    lambda n, v: (n - v - 1, 3),
    lambda n, v: (n - v, 2),
    lambda n, v: (n - 3 - 2 * v, 2 * v + 1),
    lambda n, v: (n - 2 - v, v + 1),
)

# Which hypotheses each constant-coefficient case carries. "fr" names the
# literal flag: case (ii) literally says the *ring* is formally real (the
# corrected reading asks it of the residue field); both are exposed.
_CONSTANT_HYP = {
    "i": {"invariant": "m_A"},
    "ii": {"invariant": "m_A", "fr": "A (literal) / residue field (corrected)"},
    "iii": {"invariant": "P_kappa", "henselian": True},
    "iv": {"invariant": "P_kappa", "henselian": True, "fr": "residue field"},
    "v": {"invariant": "m_K"},
    "vi": {"invariant": "m_K", "fr": "K"},
    "vii": {"invariant": "P_K"},
    "viii": {"invariant": "P_K", "fr": "K"},
}

# As above for the abelian cases (i)-(iii), repeated by (iv)-(vi);
# isomorphism holds for the numerator less 2.
_ABELIAN_RANGE = (
    lambda n, v: (n - v - 2, 3),
    lambda n, v: (n - 4 * v - 2, 2 * v + 1),
    lambda n, v: (n - v - max(3, v + 1), max(3, v + 1)),
)

_ABELIAN_HYP = {
    "i": {"invariant": "m_A"},
    "ii": {"invariant": "P_kappa", "henselian": True},
    "iii": {"invariant": "P_kappa", "henselian": True, "fr": "residue field"},
    "iv": {"invariant": "m_K"},
    "v": {"invariant": "P_K"},
    "vi": {"invariant": "P_K", "fr": "K"},
}


def _range_fraction(case: str, inputs: RangeInputs, cases: tuple, hyps: dict,
                    formulas: tuple) -> tuple[int, int]:
    """Check the case and its hypotheses; the case's surjectivity fraction
    as (numerator, denominator)."""
    if case not in cases:
        raise ValueError(f"unknown case {case!r}")
    hyp = hyps[case]
    if hyp.get("henselian") and not inputs.henselian:
        raise ValueError(f"case ({case}) requires a henselian ring")
    if "fr" in hyp and not inputs.formally_real:
        raise ValueError(f"case ({case}) requires the formally-real flag")
    formula = formulas[cases.index(case) % len(formulas)]
    return formula(inputs.n, inputs.invariant)


def range_constant(case: str, inputs: RangeInputs) -> RangeResult:
    """Constant-coefficient stability range for one of the eight cases."""
    num, den = _range_fraction(case, inputs, CONSTANT_CASES, _CONSTANT_HYP, _CONSTANT_RANGE)
    return RangeResult(
        math.floor(Fraction(num, den)),
        math.floor(Fraction(num - 1, den)),
        case,
        "constant",
    )


def range_abelian(case: str, inputs: RangeInputs) -> RangeResult:
    """Ranges for coefficients on which the commutator subgroup acts
    trivially; six cases, with the max{3, P + 1} denominators."""
    num, den = _range_fraction(case, inputs, ABELIAN_CASES, _ABELIAN_HYP, _ABELIAN_RANGE)
    return RangeResult(
        math.floor(Fraction(num, den)),
        math.floor(Fraction(num - 2, den)),
        case,
        "abelian",
    )


def range_polynomial(case: str, inputs: RangeInputs) -> RangeResult:
    """Ranges for a coefficient system of finite degree r: the constant-
    coefficient surjectivity fraction shifted down by r (surjection) and
    r + 1 (isomorphism)."""
    if case in CONSTANT_CASES and inputs.degree is None:
        raise ValueError("polynomial ranges need a coefficient degree")
    base = Fraction(*_range_fraction(case, inputs, CONSTANT_CASES, _CONSTANT_HYP,
                                     _CONSTANT_RANGE))
    r = inputs.degree
    return RangeResult(
        math.floor(base - r),
        math.floor(base - r - 1),
        case,
        "polynomial",
    )


def intro_corollary_ranges(which: int, case: str, n: int, invariant: int,
                           d: Optional[int] = None) -> int:
    """Vanishing/stability degree bounds of the three introductory
    corollaries: the largest i satisfying the stated inequality.  Corollaries
    1 and 2 take one of the cases a, b, c, d."""
    if which in (1, 2) and case not in ("a", "b", "c", "d"):
        raise ValueError(f"corollary {which} has cases a, b, c and d, got {case!r}")
    if which == 1:
        if d is None:
            raise ValueError("corollary 1 needs the exterior-power degree d")
        v = invariant
        fr = {
            "a": Fraction(n - v - 3 * d - 4, 3),
            "b": Fraction(n - v - 2 * d - 2, 2),
            "c": Fraction(n - 3 - 2 * v - (d + 1) * (2 * v + 1), 2 * v + 1),
            "d": Fraction(n - 2 - v - (d + 1) * (v + 1), v + 1),
        }[case]
        return math.floor(fr)
    if which == 2:
        v = invariant
        fr = {
            "a": Fraction(n - v - 10, 3),
            "b": Fraction(n - v - 6, 2),
            "c": Fraction(n - 3 - 2 * v, 2 * v + 1) - 3,
            "d": Fraction(n - 2 - v, v + 1) - 3,
        }[case]
        return math.floor(fr)
    if which == 3:
        return math.floor(Fraction(n - 8, 2))
    raise ValueError(f"unknown corollary {which}")


# ---------------------------------------------------------------------------
# Connectivity ranges for the Stiefel complex
# ---------------------------------------------------------------------------

_CNT_LITERAL = {
    "i": ("(n - m_A - 3)/3", lambda n, a: Fraction(n - a["m_A"] - 3, 3)),
    "ii": ("(n - 5 - 2 P_kappa)/(2 P_kappa + 1)",
           lambda n, a: Fraction(n - 5 - 2 * a["P_kappa"], 2 * a["P_kappa"] + 1)),
    "iii": ("(n - m_A - 2)/2", lambda n, a: Fraction(n - a["m_A"] - 2, 2)),
    "iv": ("(n - 4 - P_kappa)/(P_kappa + 1)",
           lambda n, a: Fraction(n - 4 - a["P_kappa"], a["P_kappa"] + 1)),
    "v": ("(n - m_K - 3)/3", lambda n, a: Fraction(n - a["m_K"] - 3, 3)),
    "vi": ("(n - 5 - 2 P_K)/(2 P_K + 1)",
           lambda n, a: Fraction(n - 5 - 2 * a["P_K"], 2 * a["P_K"] + 1)),
    # The literal text of (vii) and (viii) reuses the A-side invariants.
    "vii": ("(n - m_A - 2)/2 [literal]", lambda n, a: Fraction(n - a["m_A"] - 2, 2)),
    "viii": ("(n - 4 - P_kappa)/(P_kappa + 1) [literal]",
             lambda n, a: Fraction(n - 4 - a["P_kappa"], a["P_kappa"] + 1)),
}

_CNT_CORRECTED = {
    "vii": ("(n - m_K - 2)/2 [corrected]", lambda n, a: Fraction(n - a["m_K"] - 2, 2)),
    "viii": ("(n - 4 - P_K)/(P_K + 1) [corrected]",
             lambda n, a: Fraction(n - 4 - a["P_K"], a["P_K"] + 1)),
}


def connectivity_degree(case: str, n: int, arith: dict) -> dict:
    """Connectivity degree of the rank-n Stiefel complex per the stated case;
    returns the literal evaluation and, where the text looks inconsistent,
    the corrected variant alongside (never silently picking one)."""
    if case not in _CNT_LITERAL:
        raise ValueError(f"unknown connectivity case {case!r}")
    label, fn = _CNT_LITERAL[case]
    try:
        literal = math.floor(fn(n, arith))
    except TypeError:
        literal = None  # an invariant needed by the formula is uncertified
    out = {"case": case, "formula": label, "literal": literal}
    if case in _CNT_CORRECTED:
        clabel, cfn = _CNT_CORRECTED[case]
        try:
            out["corrected"] = math.floor(cfn(n, arith))
        except TypeError:
            out["corrected"] = None
        out["corrected_formula"] = clabel
    return out


# ---------------------------------------------------------------------------
# Sufficient conditions for sphericity of the skeleton posets
# ---------------------------------------------------------------------------


def intersection_connect_conditions(n: int, l: int, r: int, s: int, arith: dict) -> dict:
    """The eight numbered sufficient conditions for |X_l| of a double frame
    complement to be a wedge of (l-1)-spheres; needs r >= s >= 0."""
    if not (r >= s >= 0):
        raise ValueError("conditions are stated for r >= s >= 0")
    if l < 1:
        raise ValueError("l must be >= 1")
    a, b = r + l - 1, s + l - 1
    ma, pk = arith.get("m_A"), arith.get("P_kappa")
    mk, pK = arith.get("m_K"), arith.get("P_K")
    hen = arith.get("henselian", False)
    kfr = arith.get("kappa_formally_real", False)
    Kfr = arith.get("K_formally_real", False)
    conds = {
        "i": hen and ma is not None and n >= 2 * a + b + ma,
        "ii": hen and pk is not None and n >= 2 * pk * a + b + 1,
        "iii": hen and kfr and ma is not None and n >= a + b + ma,
        "iv": hen and kfr and pk is not None and n >= pk * a + b + 1,
        "v": mk is not None and n >= 2 * a + b + mk,
        "vi": pK is not None and n >= 2 * pK * a + b + 1,
        "vii": Kfr and mk is not None and n >= a + b + mk,
        "viii": Kfr and pK is not None and n >= pK * a + b + 1,
    }
    return {"conditions": conds, "any": any(conds.values())}


# ---------------------------------------------------------------------------
# Coefficient-system degree bookkeeping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeClaim:
    """User-supplied claim that a coefficient system has the given degree at
    the given level, with sub-claims for its stabilization kernel and
    cokernel.  Degree < 0 means the system vanishes from the level on."""

    degree: int
    level: int
    kernel: Optional["DegreeClaim"] = None
    cokernel: Optional["DegreeClaim"] = None

    def validate(self) -> None:
        """Enforce the recursion: a degree-r (r >= 0) claim needs a kernel of
        degree -1 at the same level and a cokernel of degree r - 1 one level
        lower."""
        if self.degree < 0:
            if self.kernel is not None or self.cokernel is not None:
                raise ValueError("a vanishing system carries no sub-claims")
            return
        if self.kernel is None or self.cokernel is None:
            raise ValueError("degree >= 0 needs kernel and cokernel claims")
        if self.kernel.degree >= 0:
            raise ValueError("kernel claim must have negative degree")
        if self.kernel.level != self.level:
            raise ValueError("kernel claim must sit at the same level")
        if self.cokernel.degree != self.degree - 1:
            raise ValueError("cokernel claim must drop the degree by one")
        if self.cokernel.level != self.level - 1:
            raise ValueError("cokernel claim must drop the level by one")
        self.kernel.validate()
        self.cokernel.validate()


def sum_degree(r: int, s: int) -> int:
    """Degree of a direct sum of coefficient systems of degrees r and s."""
    return max(r, s)


# ---------------------------------------------------------------------------
# The golden parameter grid (exactly 200 rows)
# ---------------------------------------------------------------------------


def golden_grid() -> list[dict]:
    """Deterministic 200-point parameter grid covering every theorem case
    and corollary; used for the frozen range table."""
    rows = []
    ns = (8, 12, 20, 30, 50)
    # Each case's invariant is read from its hypotheses: 4 for an m, 2 for a P.
    theorems = (("constant", range_constant, CONSTANT_CASES, _CONSTANT_HYP, None),
                ("abelian", range_abelian, ABELIAN_CASES, _ABELIAN_HYP, None),
                ("polynomial(r=1)", range_polynomial, CONSTANT_CASES, _CONSTANT_HYP, 1))
    for kind, formula, cases, hyps, degree in theorems:
        for case in cases:
            name = hyps[case]["invariant"]
            val = 4 if name.startswith("m") else 2
            for n in ns:
                res = formula(case, RangeInputs(n, val, henselian=True, formally_real=True,
                                                degree=degree))
                rows.append({"kind": kind, "case": case, "n": n, "invariant": f"{name}={val}",
                             "surjective": res.surjective_up_to,
                             "isomorphism": res.isomorphism_up_to})
    for kind, which, d in (("corollary-1(d=1)", 1, 1), ("corollary-2", 2, None)):
        for case in "abcd":
            val = 4 if case in "ab" else 2
            for n in ns:
                bound = intro_corollary_ranges(which, case, n, val, d=d)
                rows.append({"kind": kind, "case": case, "n": n,
                             "invariant": f"{'m_K' if case in 'ab' else 'P_K'}={val}",
                             "surjective": bound, "isomorphism": bound})
    for n in ns:
        bound = intro_corollary_ranges(3, "", n, 0)
        rows.append({"kind": "corollary-3", "case": "-", "n": n,
                     "invariant": "-", "surjective": bound, "isomorphism": bound})
    arith = {"m_A": 4, "P_kappa": 2, "m_K": 4, "P_K": 2}
    for case in CONSTANT_CASES:
        for n in ns:
            got = connectivity_degree(case, n, arith)
            rows.append({"kind": "connectivity", "case": case, "n": n,
                         "invariant": "m=4, P=2",
                         "surjective": got["literal"],
                         "isomorphism": got.get("corrected", got["literal"])})
    for n in ns:
        bound = intro_corollary_ranges(1, "a", n, 4, d=2)
        rows.append({"kind": "corollary-1(d=2)", "case": "a", "n": n,
                     "invariant": "m_K=4", "surjective": bound,
                     "isomorphism": bound})
    if len(rows) != 200:
        raise AssertionError(f"golden grid has {len(rows)} rows, expected 200")
    return rows
