"""Command-line driver: every experiment behind one subcommand, with
machine-readable output.

Output is a single JSON object (schema "stiefel-lab/1") or a TSV table; runs
are deterministic for a fixed configuration and seed, byte for byte.  Exit
codes: 0 when every assertion passed, 1 on an assertion failure (the witness
is in the output), 2 on usage or budget errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import asdict
from typing import Optional

from stiefel_lab.rings import BudgetError, RingError, finite_field, localized_at, padic
from stiefel_lab.quadmod import euclidean, frame, vec

VERSION = "stiefel-lab/1"


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        rows = payload.get("table")
        if rows is None:
            rows = [{"key": k, "value": json.dumps(v, sort_keys=True)}
                    for k, v in sorted(payload.items()) if k != "assertions"]
            for a in payload.get("assertions", []):
                rows.append({"key": f"assert:{a['name']}",
                             "value": "pass" if a["pass"] else "FAIL"})
        if rows:
            cols = list(rows[0].keys())
            sys.stdout.write("\t".join(cols) + "\n")
            for r in rows:
                sys.stdout.write("\t".join(str(r[c]) for c in cols) + "\n")


def _assertion(name: str, ok: bool, witness=None) -> dict:
    out = {"name": name, "pass": bool(ok)}
    if witness is not None and not ok:
        out["witness"] = witness
    return out


def _finish(command: str, config: dict, results, assertions: list[dict],
            seed: int, fmt: str) -> int:
    payload = {
        "command": command,
        "config": config,
        "results": results,
        "assertions": assertions,
        "seed": seed,
        "version": VERSION,
    }
    _emit(payload, fmt)
    return 0 if all(a["pass"] for a in assertions) else 1


def _seeded_frames(ring, n: int, r: int, s: int, seed: int):
    """Deterministic pseudo-random frames in Euclidean n-space."""
    from stiefel_lab.stiefel import UnitSphere

    rng = random.Random(seed)
    q = euclidean(ring, n)
    sphere = UnitSphere(q)
    out = []
    for size in (r, s):
        idxs = sphere.random_clique(rng, size, attempts=1000)
        if idxs is None:
            raise ValueError(f"no frame of {size} vectors in Euclidean {n}-space over "
                             f"{ring.label()} found in 1000 random tries")
        out.append(frame(q, [[int(c) for c in sphere.vectors[i]] for i in idxs]))
    return q, out[0], out[1]


def cmd_invariants(args) -> int:
    from stiefel_lab.invariants import (
        check_inequalities,
        compute_invariants,
        localized_invariants,
        padic_invariants,
    )

    assertions = []
    if args.ring == "field":
        ring = finite_field(args.field if args.field else args.p)
        rep = compute_invariants(ring)
        results = {
            "P": rep.pythagoras.value(),
            "s": rep.stufe.value(),
            "u": rep.u_invariant.value(),
            "m": rep.m_invariant.value(),
        }
        for name, status in check_inequalities(rep):
            assertions.append(_assertion(name, status == "pass", status))
    else:
        if args.ring == "zp":  # the residue field's report is computed once
            ring = padic(args.p, args.precision)
            kappa = compute_invariants(ring.residue_ring())
            rep = padic_invariants(ring, kappa)
        else:
            ring = localized_at(args.p)
            rep = localized_invariants(ring, args.height)
            kappa = compute_invariants(ring.residue_ring())
        results = rep.as_dict()
        for name, status in check_inequalities(rep, kappa):
            assertions.append(_assertion(name, status != "fail", status))
    config = {"ring": args.ring, "p": args.field or args.p,
              "precision": args.precision, "height": args.height}
    return _finish("invariants", config, results, assertions, args.seed, args.format)


def _at_least(flag: str, value: int, low: int) -> int:
    """The value of an integer flag, refused below its least meaningful
    value (a rank-0 form has no unit vector, a negative degree reads no
    homology, an empty sweep checks nothing)."""
    if value < low:
        raise ValueError(f"{flag} must be at least {low}, got {value}")
    return value


def cmd_stiefel(args) -> int:
    from stiefel_lab.stiefel import build_stiefel, skeleton_vs_poset_profiles

    ring = finite_field(args.field)
    q = euclidean(ring, _at_least("--n", args.n, 1))
    komplex = build_stiefel(q, _at_least("--max-dim", args.max_dim, 0))
    counts = {str(d): komplex.n_simplices(d) for d in sorted(komplex.simplices)}
    results = {"simplices": counts}
    assertions = []
    if args.check_poset:
        direct, subdivided = skeleton_vs_poset_profiles(q, args.max_dim + 1)
        ok = direct == subdivided
        results["profile"] = {"betti": list(direct.betti),
                              "torsion": [list(t) for t in direct.torsion]}
        assertions.append(_assertion(
            "poset-matches-skeleton", ok,
            {"direct": list(direct.betti), "subdivided": list(subdivided.betti)}))
    config = {"field": args.field, "n": args.n, "max_dim": args.max_dim}
    return _finish("stiefel", config, results, assertions, args.seed, args.format)


def cmd_connectivity(args) -> int:
    from stiefel_lab.stiefel import connectivity_report

    ring = finite_field(args.field)
    rep = connectivity_report(ring, _at_least("--n", args.n, 1),
                              _at_least("--max-degree", args.max_degree, 0))
    assertions = [_assertion("connectivity-bound", rep.bound_satisfied,
                             {"betti": list(rep.betti)})]
    config = {"field": args.field, "n": args.n, "max_degree": args.max_degree}
    return _finish("connectivity", config, asdict(rep), assertions,
                   args.seed, args.format)


def cmd_morse_replay(args) -> int:
    from stiefel_lab.stiefel import morse_replay

    ring = finite_field(args.field)
    if args.samples is not None:
        _at_least("--samples", args.samples, 1)
    q, u_fr, v_fr = _seeded_frames(ring, _at_least("--n", args.n, 1), _at_least("--r", args.r, 0),
                                   _at_least("--s", args.s, 0), args.seed)
    cert = morse_replay(ring, args.n, args.l, u_fr, v_fr,
                        sample_budget=args.samples, seed=args.seed)
    assertions = [_assertion(name, ok, detail) for name, ok, detail in cert.assertions]
    config = dict(cert.config)
    config["mode"] = cert.mode
    return _finish("morse-replay", config, {"mode": cert.mode}, assertions,
                   args.seed, args.format)


def cmd_reflect(args) -> int:
    from stiefel_lab.isometry import reflection

    ring = finite_field(args.field)
    q = euclidean(ring, _at_least("--n", args.n, 1))
    v = [int(c) for c in args.vector.split(",")]
    tau = reflection(q, v)
    mat = [[e.value for e in row] for row in tau.matrix]
    involution = tau.compose(tau).is_identity()
    sends = tau.apply(v) == vec(ring, [-c for c in v])
    assertions = [
        _assertion("involution", involution),
        _assertion("negates-vector", sends),
    ]
    config = {"field": args.field, "n": args.n, "vector": args.vector}
    return _finish("reflect", config, {"matrix": mat}, assertions,
                   args.seed, args.format)


def cmd_orbit_check(args) -> int:
    from stiefel_lab.isometry import (
        block_sum,
        enumerate_group,
        frame_transport_exhaustive,
        stabilizer_restrict,
    )

    ring = finite_field(args.field)
    q = euclidean(ring, _at_least("--n", args.n, 1))
    if not 0 <= args.k <= args.n:
        raise ValueError(f"--k must be between 0 and --n = {args.n}, got {args.k}")
    config = {"field": args.field, "n": args.n, "k": args.k}
    try:
        stats = frame_transport_exhaustive(q, args.k, seed=args.seed)
    except AssertionError as exc:
        failed = _assertion("transitive-on-frames", False, str(exc))
        return _finish("orbit-check", config, {}, [failed], args.seed, args.format)
    swept = stats["frames"] >= 1 and stats["pairs"] == stats["frames"] ** 2
    assertions = [_assertion("transitive-on-frames", swept,
                             {"frames": stats["frames"], "pairs": stats["pairs"]})]
    results = dict(stats)
    if args.stabilizer:
        group = enumerate_group(q)
        # g e_n is the last column of g's matrix
        last = [0] * (args.n - 1) + [1]
        fixing = [g for g in group if [row[-1] for row in g.values] == last]
        ok = all(block_sum(stabilizer_restrict(g, args.n - 1), euclidean(ring, 1)) == g
                 for g in fixing)
        results["group_order"] = len(group)
        results["stabilizer_order"] = len(fixing)
        assertions.append(_assertion("stabilizer-round-trip", ok))
    return _finish("orbit-check", config, results, assertions, args.seed, args.format)


def cmd_wn_check(args) -> int:
    from stiefel_lab.stiefel import local_standardness_check, wn_identification_check

    ring = finite_field(args.field)
    v_diag = [int(c) for c in args.v_diag.split(",")] if args.v_diag else []
    res = wn_identification_check(ring, v_diag, _at_least("--n", args.n, 1),
                                  _at_least("--max-p", args.max_p, 0))
    ls = local_standardness_check(ring, v_diag, args.n)
    assertions = [
        _assertion("wn-identification", res.passed, res.failures[:3]),
        _assertion("local-standardness", ls.passed, ls.failures[:3]),
    ]
    config = {"field": args.field, "n": args.n, "max_p": args.max_p,
              "v_diag": v_diag}
    return _finish("wn-check", config, res.details, assertions, args.seed, args.format)


def cmd_int_aut(args) -> int:
    from stiefel_lab.stiefel import integer_aut_check

    res = integer_aut_check(_at_least("--n", args.n, 1))
    assertions = [_assertion("signed-permutation-isomorphism", res.passed,
                             res.failures[:3])]
    return _finish("int-aut", {"n": args.n}, res.details, assertions,
                   args.seed, args.format)


def cmd_ranges(args) -> int:
    from stiefel_lab.stability import (
        RangeInputs,
        connectivity_degree,
        golden_grid,
        intro_corollary_ranges,
        range_abelian,
        range_constant,
        range_polynomial,
    )

    if args.table:
        rows = golden_grid()
        payload = {
            "command": "ranges",
            "config": {"table": True},
            "results": {"rows": len(rows)},
            "table": rows,
            "assertions": [_assertion("grid-size-200", len(rows) == 200)],
            "seed": args.seed,
            "version": VERSION,
        }
        _emit(payload, args.format if args.format == "tsv" else "json")
        return 0
    assertions = []
    _at_least("--n", args.n, 1)
    _at_least("--value", args.value, 1)
    if args.d is not None:
        _at_least("--d", args.d, 0)
    if args.corollary:
        bound = intro_corollary_ranges(args.corollary, args.case, args.n, args.value, d=args.d)
        results = {"bound": bound}
        config = {"corollary": args.corollary, "case": args.case, "n": args.n,
                  "value": args.value, "d": args.d}
    elif args.cnt:
        arith = {"m_A": args.value, "P_kappa": args.value,
                 "m_K": args.value, "P_K": args.value}
        results = connectivity_degree(args.case, args.n, arith)
        config = {"cnt": True, "case": args.case, "n": args.n, "value": args.value}
    else:
        inputs = RangeInputs(args.n, args.value, henselian=args.henselian,
                             formally_real=args.formally_real, degree=args.r)
        fn = {"A": range_constant, "B": range_abelian, "C": range_polynomial}[args.theorem]
        res = fn(args.case, inputs)
        results = {"surjective_up_to": res.surjective_up_to,
                   "isomorphism_up_to": res.isomorphism_up_to,
                   "case": res.case, "kind": res.kind}
        config = {"theorem": args.theorem, "case": args.case, "n": args.n,
                  "m": args.value, "r": args.r}
        assertions.append(_assertion(
            "iso-within-surjective",
            res.isomorphism_up_to <= res.surjective_up_to))
    return _finish("ranges", config, results, assertions, args.seed, args.format)


def cmd_hensel(args) -> int:
    from stiefel_lab.repsolve import hensel_isotropy_replay

    count = _at_least("--count", args.count, 1)
    stats = hensel_isotropy_replay(args.p, args.precision, count, args.seed,
                                   all_precisions=args.all_precisions)
    assertions = [_assertion("all-forms-lift", stats["count"] == args.count)]
    config = {"p": args.p, "precision": args.precision, "count": args.count}
    return _finish("hensel", config, stats, assertions, args.seed, args.format)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stiefel-lab",
        description="Exact quadratic-form experiments: invariants, Stiefel "
                    "complexes, connectivity certificates, range formulas.",
    )
    parser.add_argument("--format", choices=("json", "tsv"), default="json")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for every pseudo-random choice (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="P, s, u, m of a coefficient ring")
    p.add_argument("--field", type=int, help="odd prime: compute over F_p")
    p.add_argument("--ring", choices=("field", "zp", "zploc"), default="field")
    p.add_argument("--p", type=int, default=5)
    p.add_argument("--precision", type=int, default=3)
    p.add_argument("--height", type=int, default=50)
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("stiefel", help="build a frame complex and count simplices")
    p.add_argument("--field", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-dim", type=int, default=1)
    p.add_argument("--check-poset", action="store_true")
    p.set_defaults(fn=cmd_stiefel)

    p = sub.add_parser("connectivity", help="homology of the frame complex vs the predicted bound")
    p.add_argument("--field", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-degree", type=int, default=0)
    p.set_defaults(fn=cmd_connectivity)

    p = sub.add_parser("morse-replay", help="replay the Morse filtration certificate")
    p.add_argument("--field", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--samples", type=int, default=None)
    p.set_defaults(fn=cmd_morse_replay)

    p = sub.add_parser("reflect", help="hyperplane reflection matrix and identities")
    p.add_argument("--field", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--vector", type=str, required=True)
    p.set_defaults(fn=cmd_reflect)

    p = sub.add_parser("orbit-check", help="frame transitivity and stabilizer round-trip")
    p.add_argument("--field", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--stabilizer", action="store_true")
    p.set_defaults(fn=cmd_orbit_check)

    p = sub.add_parser("wn-check", help="destabilization-space identification")
    p.add_argument("--field", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-p", type=int, default=1)
    p.add_argument("--v-diag", type=str, default="")
    p.set_defaults(fn=cmd_wn_check)

    p = sub.add_parser("int-aut", help="signed-permutation automorphism count over Z")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_int_aut)

    p = sub.add_parser("ranges", help="stability and connectivity range formulas")
    p.add_argument("--theorem", choices=("A", "B", "C"), default="A")
    p.add_argument("--case", type=str, default="i")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--value", "--m", dest="value", type=int, default=4)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--henselian", action="store_true")
    p.add_argument("--formally-real", action="store_true")
    p.add_argument("--corollary", type=int, choices=(1, 2, 3), default=None)
    p.add_argument("--cnt", action="store_true",
                   help="connectivity-range cases (literal and corrected)")
    p.add_argument("--table", action="store_true", help="emit the 200-row golden grid")
    p.set_defaults(fn=cmd_ranges)

    p = sub.add_parser("hensel", help="isotropy lifting sweep over truncated Z_p")
    p.add_argument("--p", type=int, default=5)
    p.add_argument("--precision", type=int, default=4)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--all-precisions", action="store_true")
    p.set_defaults(fn=cmd_hensel)

    return parser


_PARSER: Optional[argparse.ArgumentParser] = None


def main(argv=None) -> int:
    # One parser per process: parse_args fills a fresh namespace per call.
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except (BudgetError, RingError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
