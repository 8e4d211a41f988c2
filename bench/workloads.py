"""The benchmark's workloads: their items, each item's oracle, and the traced
form of each item.

An item runs untraced exactly as a user would: CLI items through
`stiefel_lab.cli.main(argv)` with stdout captured, library items as the
calls an acceptance criterion makes.  Its traced form calls the public
functions the CLI handler would call, in the same order, one span per call.
Both forms return a dict of facts that must equal the item's expected facts;
CLI items must also exit 0 and, where a digest was recorded for the seed,
print exactly the recorded stdout.  See RATIONALE.md for why each item is
here.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import random
import re
import sys
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

from spans import Tracer

MODULES = ("rings", "gfnum", "quadmod", "repsolve", "invariants", "isometry",
           "complexes", "stiefel", "stability", "cli")

# The golden grid digest, as frozen in tests/data/golden_ranges.sha256.
GOLDEN_SHA256 = "38ef98bfc6ece2c1fa668313a55c2beca5b491f04fb586899c8dd141ce284e35"

DIGESTS_FILE = Path(__file__).with_name("digests.json")


def load_package() -> SimpleNamespace:
    """Import every stiefel_lab module afresh (dropping earlier copies), so
    that each set-up repetition pays the package import again."""
    for name in [m for m in sys.modules if m == "stiefel_lab" or m.startswith("stiefel_lab.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"stiefel_lab.{m}") for m in MODULES})


def normalize(value):
    """JSON round trip: tuples become lists and dict keys strings, as in the
    CLI output."""
    return json.loads(json.dumps(value, sort_keys=True))


@dataclass
class Item:
    id: str
    run: Callable[[], dict]
    traced: Callable[[Tracer], dict]
    expected: dict
    argv: Optional[list] = None  # CLI items only
    probe: Optional[Callable[[Tracer], None]] = None  # extra layer spans, traced run only
    digest: Optional[str] = None  # recorded stdout SHA-256 for this seed


def check(item: Item, facts: dict) -> list[str]:
    """Differences between an item's facts and its oracle; empty when the
    item is correct."""
    problems = []
    for key, want in item.expected.items():
        got = facts.get(key, "<missing>")
        if got != want:
            problems.append(f"{item.id}: {key} = {got!r}, expected {want!r}")
    if item.argv is not None and "exit" in facts:
        if facts["exit"] != 0:
            problems.append(f"{item.id}: exit code {facts['exit']}")
        if item.digest is not None and facts["stdout_sha256"] != item.digest:
            problems.append(f"{item.id}: stdout digest differs from the recorded one")
    return problems


def run_cli(pkg, argv: list) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = pkg.cli.main(argv)
    return code, buf.getvalue()


def _cli_item(pkg, item_id: str, argv: list, facts_of: Callable[[dict], dict],
              traced: Callable[[Tracer], dict], expected: dict,
              probe=None, tsv: bool = False) -> Item:
    def run() -> dict:
        code, out = run_cli(pkg, argv)
        facts = {"exit": code, "stdout_sha256": hashlib.sha256(out.encode()).hexdigest()}
        if code == 0:
            if tsv:
                facts["rows"] = len(out.splitlines()) - 1
            else:
                facts.update(facts_of(json.loads(out)))
        return facts

    def traced_with_parse(tracer: Tracer) -> dict:
        with tracer.span("cli.parse"):
            pkg.cli.build_parser().parse_args(argv)
        return traced(tracer)

    return Item(item_id, run, traced_with_parse, expected, argv=argv, probe=probe)


def _passed(payload: dict) -> bool:
    return all(a["pass"] for a in payload["assertions"])


# ---------------------------------------------------------------------------
# homology: connectivity reports
# ---------------------------------------------------------------------------


def traced_homology(pkg, tracer: Tracer, K, max_degree: int):
    """Reduced homology from the public parts: one boundary matrix per
    degree, then smith_normal_form on it, under a span named by the path
    that the public column cutoff selects.

    On the sparse path smith_normal_form takes a dense matrix, copies it and
    scans it for entries, which reduced_homology never does.  That copy and
    scan is timed again in the sibling span `complexes.snf_sparse_scan`, so
    that the per-layer metric can leave it out."""
    cx = pkg.complexes
    ranks = {0: 0}
    torsion = {0: []}
    with tracer.span("complexes.homology"):
        for d in range(1, max_degree + 2):
            ncols = K.n_simplices(d)
            if ncols == 0:
                ranks[d], torsion[d] = 0, []
                continue
            with tracer.span("complexes.boundary"):
                entries = K.boundary_entries(d)
            tracer.count("complexes.boundary.nnz", len(entries))
            dense = [[0] * ncols for _ in range(K.n_simplices(d - 1))]
            for (i, j), v in entries.items():
                dense[i][j] = v
            path = "dense" if ncols <= cx.DENSE_COLUMN_CUTOFF else "sparse"
            if path == "sparse":
                with tracer.span("complexes.snf_sparse_scan"):
                    rows = [list(map(int, r)) for r in dense]
                    {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v}
            with tracer.span(f"complexes.snf_{path}"):
                factors = cx.smith_normal_form(dense)
            tracer.count(f"complexes.snf.{path}_columns", ncols)
            ranks[d] = len(factors)
            torsion[d] = [f for f in factors if f not in (0, 1)]
    betti = [K.n_simplices(0) - ranks[1] - 1]
    betti += [K.n_simplices(i) - ranks[i] - ranks[i + 1] for i in range(1, max_degree + 1)]
    tors = [[]] + [torsion[i + 1] for i in range(1, max_degree + 1)]
    return betti, tors


def connectivity_item(pkg, p: int, n: int, deg: int, betti: list) -> Item:
    argv = ["connectivity", "--field", str(p), "--n", str(n), "--max-degree", str(deg)]
    expected = {"betti": betti, "torsion": [[] for _ in betti], "bound_satisfied": True}

    def facts_of(payload):
        res = payload["results"]
        return {"betti": res["betti"], "torsion": res["torsion"],
                "bound_satisfied": res["bound_satisfied"] and _passed(payload)}

    def traced(tracer: Tracer) -> dict:
        ring = pkg.rings.finite_field(p)
        q = pkg.quadmod.euclidean(ring, n)
        with tracer.span("invariants.field"):
            m_val = pkg.invariants.compute_invariants(ring).m_invariant.value()
        with tracer.span("invariants.field"):
            p_kappa = pkg.invariants.compute_invariants(ring).pythagoras.value()
        arith = {"m_A": m_val, "P_kappa": p_kappa, "m_K": m_val, "P_K": None}
        with tracer.span("stability.connectivity_degree"):
            predicted = pkg.stability.connectivity_degree("i", n, arith)["literal"]
        with tracer.span("gfnum.unit_sphere"):
            sphere = pkg.stiefel.UnitSphere(q)
        tracer.count("gfnum.vectors_scanned", p ** n)
        if deg == 0:
            with tracer.span("stiefel.components"):
                comps = sphere.components()
            got_betti, got_tors = [comps - 1], [[]]
        else:
            with tracer.span("stiefel.build"):
                K = pkg.stiefel.build_stiefel(q, deg + 1)
            tracer.count("stiefel.simplices", sum(K.n_simplices(d) for d in K.simplices))
            got_betti, got_tors = traced_homology(pkg, tracer, K, deg)
        check_to = min(deg, predicted if predicted is not None else -1)
        ok = all(got_betti[i] == 0 and not got_tors[i] for i in range(check_to + 1))
        return {"betti": got_betti, "torsion": got_tors, "bound_satisfied": ok}

    return _cli_item(pkg, f"connectivity-F{p}-n{n}-d{deg}", argv, facts_of, traced, expected)


# ---------------------------------------------------------------------------
# morse: Morse-filtration replays
# ---------------------------------------------------------------------------

_LINKS = re.compile(r"^(\d+) links (sampled|decomposed)")


def _link_counts(assertions, layer_sizes: Optional[dict], l: int, samples) -> tuple[int, int]:
    """Links checked, and links requested, as the certificate reports them."""
    checked = 0
    for name, _ok, detail in assertions:
        if name.startswith("links-L") or name == "link-join-split":
            hit = _LINKS.match(detail)
            if hit:
                checked += int(hit.group(1))
    if layer_sizes is not None:
        requested = sum(layer_sizes[f"L{j}"] for j in range(2, l + 1))
    else:
        requested = samples * l
    return checked, requested


def _frame_poset_probe(pkg, p: int, n: int, l: int):
    """Adjacency, then the frame poset of |X_l| with its links and order
    complex: the structures the exhaustive replay builds internally."""
    def probe(tracer: Tracer) -> None:
        q = pkg.quadmod.euclidean(pkg.rings.finite_field(p), n)
        _sphere_with_adjacency(pkg, tracer, q)
        K = pkg.stiefel.build_stiefel(q, l - 1)
        frames = [frozenset(s) for d in sorted(K.simplices) for s in K.simplices[d]]
        with tracer.span("complexes.poset_build"):
            poset = pkg.complexes.poset_from_frames(frames)
        with tracer.span("complexes.poset_link"):
            for i in range(len(poset)):
                poset.link(i)
        with tracer.span("complexes.order_complex"):
            oc = poset.order_complex()
        tracer.count("complexes.order_complex.simplices",
                     sum(oc.n_simplices(d) for d in oc.simplices))
    return probe


def _sphere_with_adjacency(pkg, tracer: Tracer, q):
    """The unit sphere and orthogonality graph that the replay builds first."""
    with tracer.span("gfnum.unit_sphere"):
        sphere = pkg.stiefel.UnitSphere(q)
    tracer.count("gfnum.vectors_scanned", q.ring.p ** q.rank)
    with tracer.span("stiefel.adjacency"):
        sphere.adjacency()
    return sphere


def _adjacency_probe(pkg, p: int, n: int):
    def probe(tracer: Tracer) -> None:
        _sphere_with_adjacency(pkg, tracer, pkg.quadmod.euclidean(pkg.rings.finite_field(p), n))
    return probe


def morse_item(pkg, seed: int, p: int, n: int, l: int, r: int = 0,
               samples: Optional[int] = None, expected_extra: Optional[dict] = None,
               replay: int = 0) -> Item:
    """One Morse replay.  `replay` numbers the repeats of one replay at
    derived seeds, and keeps their item ids apart."""
    argv = ["--seed", str(seed), "morse-replay", "--field", str(p), "--n", str(n),
            "--l", str(l)]
    if r:
        argv += ["--r", str(r)]
    if samples is not None:
        argv += ["--samples", str(samples)]
    mode = "sampled" if samples is not None else "exhaustive"
    expected = {"mode": mode, "passed": True, **(expected_extra or {})}

    def facts_of(payload):
        cfg = payload["config"]
        return {"mode": payload["results"]["mode"], "passed": _passed(payload),
                "unit_vectors": cfg["unit_vectors"],
                "layer_sizes": cfg.get("layer_sizes"),
                "frame_counts": cfg.get("frame_counts")}

    def traced(tracer: Tracer) -> dict:
        ring = pkg.rings.finite_field(p)
        with tracer.span("cli.seeded_frames"):
            _q, u_fr, v_fr = pkg.cli._seeded_frames(ring, n, r, 0, seed)
        with tracer.span(f"stiefel.morse_{mode}"):
            cert = pkg.stiefel.morse_replay(ring, n, l, u_fr, v_fr,
                                            sample_budget=samples, seed=seed)
        layer_sizes = cert.config.get("layer_sizes")
        if layer_sizes is not None:
            tracer.count("stiefel.morse.poset_elements", sum(layer_sizes.values()))
        checked, requested = _link_counts(cert.assertions, layer_sizes, l, samples)
        tracer.count("stiefel.morse.links_checked", checked)
        tracer.count("stiefel.morse.links_requested", requested)
        return normalize({"mode": cert.mode, "passed": cert.passed,
                          "unit_vectors": cert.config["unit_vectors"],
                          "layer_sizes": layer_sizes,
                          "frame_counts": cert.config.get("frame_counts")})

    if r == 0 and replay == 0:
        probe = _frame_poset_probe(pkg, p, n, l) if mode == "exhaustive" else _adjacency_probe(pkg, p, n)
    else:
        probe = None
    item_id = f"morse-F{p}-n{n}-l{l}-r{r}-{mode}" + (f"-{replay}" if replay else "")
    return _cli_item(pkg, item_id, argv, facts_of, traced, expected, probe=probe)


# ---------------------------------------------------------------------------
# frames: isometries and frame transport over prime fields
# ---------------------------------------------------------------------------


def _extension_probe(pkg, p: int, n: int, k: int):
    """Per ordered frame: its orthogonal complement, the diagonalization of
    the complement, and the orthonormal extension the transport sweep uses."""
    def probe(tracer: Tracer) -> None:
        q = pkg.quadmod.euclidean(pkg.rings.finite_field(p), n)
        for fr in pkg.isometry.ordered_frames(q, k):
            f = pkg.quadmod.Frame(q, fr)
            with tracer.span("quadmod.complement"):
                comp = pkg.quadmod.orthogonal_complement(q, f.as_submodule())
            with tracer.span("quadmod.diagonalize"):
                pkg.quadmod.diagonalize(comp.restricted_module())
            with tracer.span("isometry.extension"):
                pkg.isometry.orthonormal_extension(q, f)
    return probe


def orbit_item(pkg, seed: int, p: int, n: int, k: int, stabilizer: bool,
               expected: dict) -> Item:
    argv = ["--seed", str(seed), "orbit-check", "--field", str(p), "--n", str(n),
            "--k", str(k)]
    if stabilizer:
        argv.append("--stabilizer")

    def facts_of(payload):
        res = payload["results"]
        return {"frames": res["frames"], "pairs": res["pairs"], "passed": _passed(payload),
                "group_order": res.get("group_order"),
                "stabilizer_order": res.get("stabilizer_order")}

    def traced(tracer: Tracer) -> dict:
        iso = pkg.isometry
        ring = pkg.rings.finite_field(p)
        q = pkg.quadmod.euclidean(ring, n)
        with tracer.span("isometry.transport"):
            stats = iso.frame_transport_exhaustive(q, k, seed=seed)
        tracer.count("isometry.transport.pairs", stats["pairs"])
        facts = {"frames": stats["frames"], "pairs": stats["pairs"], "passed": True,
                 "group_order": None, "stabilizer_order": None}
        if stabilizer:
            with tracer.span("isometry.enumerate"):
                group = iso.enumerate_group(q)
            last = [0] * (n - 1) + [1]
            with tracer.span("isometry.stabilizer"):
                fixing = [g for g in group if g.apply(last) == pkg.quadmod.vec(ring, last)]
                small_q = pkg.quadmod.euclidean(ring, 1)
                ok = all(iso.block_sum(iso.stabilizer_restrict(g, n - 1), small_q).matrix
                         == g.matrix for g in fixing)
            facts.update(passed=ok, group_order=len(group), stabilizer_order=len(fixing))
        return facts

    item_id = f"orbit-F{p}-n{n}-k{k}" + ("-stab" if stabilizer else "")
    probe = _extension_probe(pkg, p, n, k) if not stabilizer else None
    return _cli_item(pkg, item_id, argv, facts_of, traced, expected, probe=probe)


def abelianization_item(pkg, p: int, n: int, order: int, exponent: int) -> Item:
    def compute(tracer: Optional[Tracer]) -> dict:
        q = pkg.quadmod.euclidean(pkg.rings.finite_field(p), n)
        with _span(tracer, "isometry.enumerate"):
            group = pkg.isometry.enumerate_group(q)
        with _span(tracer, "isometry.abelianization"):
            exp = pkg.isometry.abelianization_exponent(group)
        return {"order": len(group), "exponent": exp}

    return Item(f"abelianization-O{n}(F{p})", lambda: compute(None), compute,
                {"order": order, "exponent": exponent})


def cd_fp_item(pkg, p: int, ns: tuple, orders: dict) -> Item:
    """Criterion 6 over a prime field: every element of O_n(F_p) factors into
    at most 2n reflections whose product is exactly the element."""
    def compute(tracer: Optional[Tracer]) -> dict:
        iso = pkg.isometry
        ring = pkg.rings.finite_field(p)
        got_orders, ok = {}, True
        for n in ns:
            q = pkg.quadmod.euclidean(ring, n)
            with _span(tracer, "isometry.enumerate"):
                group = iso.enumerate_group(q)
            got_orders[str(n)] = len(group)
            for phi in group:
                with _span(tracer, "isometry.cd_fp"):
                    refs = iso.cartan_dieudonne(q, phi)
                ok &= len(refs) <= 2 * n and _product(iso, q, refs).matrix == phi.matrix
        return {"orders": got_orders, "reproduced": ok}

    return Item(f"cartan-dieudonne-F{p}", lambda: compute(None), compute,
                {"orders": orders, "reproduced": True})


def _product(iso, q, refs):
    prod = iso.identity_isometry(q)
    for v in refs:
        prod = prod.compose(iso.reflection(q, v))
    return prod


def wn_item(pkg, p: int, n: int, levels: dict) -> Item:
    argv = ["wn-check", "--field", str(p), "--n", str(n)]

    def facts_of(payload):
        return {"passed": _passed(payload), "levels": payload["results"]["levels"]}

    def traced(tracer: Tracer) -> dict:
        ring = pkg.rings.finite_field(p)
        with tracer.span("stiefel.wn_check"):
            res = pkg.stiefel.wn_identification_check(ring, [], n, 1)
        with tracer.span("stiefel.wn_check"):
            ls = pkg.stiefel.local_standardness_check(ring, [], n)
        return normalize({"passed": res.passed and ls.passed, "levels": res.details["levels"]})

    return _cli_item(pkg, f"wn-check-F{p}-n{n}", argv, facts_of, traced,
                     {"passed": True, "levels": levels})


def reflect_item(pkg, p: int, n: int, vector: str, matrix: list) -> Item:
    argv = ["reflect", "--field", str(p), "--n", str(n), "--vector", vector]

    def facts_of(payload):
        return {"passed": _passed(payload), "matrix": payload["results"]["matrix"]}

    def traced(tracer: Tracer) -> dict:
        ring = pkg.rings.finite_field(p)
        q = pkg.quadmod.euclidean(ring, n)
        v = [int(c) for c in vector.split(",")]
        with tracer.span("isometry.reflection"):
            tau = pkg.isometry.reflection(q, v)
        ok = (tau.compose(tau).is_identity()
              and tau.apply(v) == pkg.quadmod.vec(ring, [-c for c in v]))
        return {"passed": ok, "matrix": [[e.value for e in row] for row in tau.matrix]}

    return _cli_item(pkg, f"reflect-F{p}-n{n}", argv, facts_of, traced,
                     {"passed": True, "matrix": matrix})


# ---------------------------------------------------------------------------
# arith: invariants, Hensel lifting, Z_(p) isometries, range formulas
# ---------------------------------------------------------------------------


def invariants_item(pkg, ring_kind: str, p: int, results: dict, precision: int = 3,
                    height: int = 50) -> Item:
    if ring_kind == "field":
        argv = ["invariants", "--field", str(p)]
    elif ring_kind == "zp":
        argv = ["invariants", "--ring", "zp", "--p", str(p), "--precision", str(precision)]
    else:
        argv = ["invariants", "--ring", "zploc", "--p", str(p)]
        if height != 50:
            argv += ["--height", str(height)]

    def facts_of(payload):
        return {"passed": _passed(payload), "results": payload["results"]}

    def traced(tracer: Tracer) -> dict:
        inv, rings = pkg.invariants, pkg.rings
        if ring_kind == "field":
            with tracer.span("invariants.field"):
                rep = inv.compute_invariants(rings.finite_field(p))
            res = {"P": rep.pythagoras.value(), "s": rep.stufe.value(),
                   "u": rep.u_invariant.value(), "m": rep.m_invariant.value()}
            statuses = [s == "pass" for _, s in inv.check_inequalities(rep)]
        else:
            if ring_kind == "zp":
                ring = rings.padic(p, precision)
                with tracer.span("invariants.padic"):
                    rep = inv.padic_invariants(ring)
            else:
                ring = rings.localized_at(p)
                with tracer.span("invariants.localized"):
                    rep = inv.localized_invariants(ring, height)
            with tracer.span("invariants.field"):
                kappa = inv.compute_invariants(ring.residue_ring())
            res = rep.as_dict()
            statuses = [s != "fail" for _, s in inv.check_inequalities(rep, kappa)]
        return normalize({"passed": all(statuses), "results": res})

    suffix = f"-h{height}" if ring_kind == "zploc" and height != 50 else ""
    return _cli_item(pkg, f"invariants-{ring_kind}-p{p}{suffix}", argv, facts_of, traced,
                     {"passed": True, "results": results})


def hensel_item(pkg, seed: int, p: int, precision: int, count: int,
                all_precisions: bool = False) -> Item:
    argv = ["--seed", str(seed), "hensel", "--p", str(p), "--precision", str(precision),
            "--count", str(count)]
    if all_precisions:
        argv.append("--all-precisions")

    def facts_of(payload):
        return {"passed": _passed(payload), "count": payload["results"]["count"]}

    def traced(tracer: Tracer) -> dict:
        with tracer.span("repsolve.hensel"):
            stats = pkg.repsolve.hensel_isotropy_replay(p, precision, count, seed,
                                                        all_precisions=all_precisions)
        tracer.count("repsolve.hensel.lifted", stats["count"])
        tracer.count("repsolve.hensel.forms_generated", stats["forms_generated"])
        return {"passed": stats["count"] == count, "count": stats["count"]}

    item_id = f"hensel-p{p}-N{precision}-c{count}" + ("-all" if all_precisions else "")
    return _cli_item(pkg, item_id, argv, facts_of, traced, {"passed": True, "count": count})


def zloc_products(seed: int, count: int) -> list:
    """Reflection vectors of `count` seeded isometries of Euclidean Z_(5)^3,
    drawn as in acceptance criterion 6: each vector has a 5-adic unit as its
    length."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        vectors = []
        for _ in range(rng.randint(1, 4)):
            while True:
                v = [Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(3)]
                val = sum(c * c for c in v)
                if any(v) and val.numerator % 5 and val.denominator % 5:
                    break
            vectors.append(v)
        out.append(vectors)
    return out


def cd_zloc_item(pkg, products: list) -> Item:
    def compute(tracer: Optional[Tracer]) -> dict:
        iso = pkg.isometry
        q = pkg.quadmod.euclidean(pkg.rings.localized_at(5), 3)
        ok = True
        for vectors in products:
            phi = _product(iso, q, vectors)
            with _span(tracer, "isometry.cd_zloc"):
                refs = iso.cartan_dieudonne(q, phi)
            ok &= len(refs) <= 6 and _product(iso, q, refs).matrix == phi.matrix
        return {"products": len(products), "reproduced": ok}

    return Item(f"cartan-dieudonne-Z(5)-x{len(products)}", lambda: compute(None), compute,
                {"products": len(products), "reproduced": True})


def int_aut_item(pkg, n: int, details: dict) -> Item:
    argv = ["int-aut", "--n", str(n)]

    def facts_of(payload):
        return {"passed": _passed(payload), "details": payload["results"]}

    def traced(tracer: Tracer) -> dict:
        with tracer.span("stiefel.int_aut"):
            res = pkg.stiefel.integer_aut_check(n)
        return normalize({"passed": res.passed, "details": res.details})

    return _cli_item(pkg, f"int-aut-n{n}", argv, facts_of, traced,
                     {"passed": True, "details": details})


def shapiro_item(pkg, p: int, k: int, hypothesis: bool = True) -> Item:
    def compute(tracer: Optional[Tracer]) -> dict:
        with _span(tracer, "invariants.shapiro"):
            res = pkg.invariants.shapiro_bound_check(pkg.rings.finite_field(p), k)
        return {"hypothesis": res["hypothesis"], "bound_holds": res["bound_holds"]}

    return Item(f"shapiro-F{p}-k{k}", lambda: compute(None), compute,
                {"hypothesis": hypothesis, "bound_holds": True})


def ranges_table_item(pkg) -> Item:
    argv = ["--format", "tsv", "ranges", "--table"]

    def traced(tracer: Tracer) -> dict:
        with tracer.span("stability.golden_grid"):
            rows = pkg.stability.golden_grid()
        return {"rows": len(rows)}

    return _cli_item(pkg, "ranges-table-tsv", argv, None, traced, {"rows": 200}, tsv=True)


def golden_grid_item(pkg) -> Item:
    def compute(tracer: Optional[Tracer]) -> dict:
        with _span(tracer, "stability.golden_grid"):
            rows = pkg.stability.golden_grid()
        digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
        return {"rows": len(rows), "sha256": digest}

    return Item("golden-grid-sha", lambda: compute(None), compute,
                {"rows": 200, "sha256": GOLDEN_SHA256})


def _span(tracer: Optional[Tracer], name: str):
    """A span when tracing; library items run untraced with tracer=None."""
    return tracer.span(name) if tracer is not None else nullcontext()


# ---------------------------------------------------------------------------
# Recorded oracle values at the benchmark's own sizes
# ---------------------------------------------------------------------------

def _zploc_results(p: int, height: int) -> dict:
    return {"P": f"[4, inf] (7 needs four squares; searched height {height})",
            "m": f"4 (rank-3 witness at height {height}; <= m_Q = 4)",
            "ring": f"Z_({p})",
            "s": f"[5, inf] (no witness for k <= 4 at height {height})",
            "search_bound": height,
            "u": f"[6, inf] (n<1> anisotropic for n <= 6 at height {height})"}



ZP5 = {"P": "2 (hensel-certified at precision 3)", "m": "2 (hensel-certified at precision 3)",
       "ring": "Z5^3", "s": "1 (hensel-certified at precision 3)", "search_bound": None,
       "u": "2 (hensel-certified at precision 3)"}
ZP3 = {"P": "[2, 3] (interval: P(residue) <= P <= s + 1)",
       "m": "2 (hensel-certified at precision 2)", "ring": "Z3^2",
       "s": "2 (hensel-certified at precision 2)", "search_bound": None,
       "u": "2 (hensel-certified at precision 2)"}
ZP7 = {"P": "[2, 3] (interval: P(residue) <= P <= s + 1)",
       "m": "2 (hensel-certified at precision 4)", "ring": "Z7^4",
       "s": "2 (hensel-certified at precision 4)", "search_bound": None,
       "u": "2 (hensel-certified at precision 4)"}


def _field_results(p: int) -> dict:
    return {"P": 2, "s": 1 if p % 4 == 1 else 2, "u": 2, "m": 2}


# Each workload runs two item groups; `detail.item_median_s` in a result
# tells the groups apart (see RATIONALE.md).
WORKLOADS = {"complexes": ("homology", "morse"), "scalars": ("frames", "arith")}

# Repeats of the exhaustive Morse replay in one pass, which give the poset
# work (Poset.less, comparable, link) its share of the `complexes` pass.
EXHAUSTIVE_REPLAYS = 6


def build_workload(name: str, seed: int, pkg) -> list[Item]:
    """The items of one workload, with inputs drawn from the seed."""
    return [item for group in WORKLOADS[name] for item in build_group(group, seed, pkg)]


def build_group(name: str, seed: int, pkg) -> list[Item]:
    if name == "homology":
        return [
            connectivity_item(pkg, 3, 5, 2, [0, 154, 0]),
            connectivity_item(pkg, 5, 4, 1, [0, 406]),
            connectivity_item(pkg, 7, 3, 1, [0, 29]),
            connectivity_item(pkg, 3, 8, 0, [0]),
            connectivity_item(pkg, 5, 6, 0, [0]),
            connectivity_item(pkg, 7, 5, 0, [0]),
        ]
    if name == "morse":
        # The exhaustive replay at derived seeds: at r = 0 the seed changes
        # only the reported config, so each repeat does the same poset work.
        exhaustive = [morse_item(pkg, seed * EXHAUSTIVE_REPLAYS + j, 3, 5, 2, replay=j, expected_extra={
            "unit_vectors": 90, "layer_sizes": {"X0": 522, "L1": 72, "L2": 576},
            "frame_counts": {"1": 90, "2": 1080}}) for j in range(EXHAUSTIVE_REPLAYS)]
        return exhaustive + [
            morse_item(pkg, seed, 3, 7, 2, samples=200, expected_extra={
                "unit_vectors": 702, "frame_counts": {"1": 702, "2": 88452}}),
            morse_item(pkg, seed, 3, 7, 2, r=1, samples=30, expected_extra={
                "unit_vectors": 252, "frame_counts": {"1": 252, "2": 11340}}),
            morse_item(pkg, seed, 3, 8, 2, r=1, samples=30, expected_extra={
                "unit_vectors": 702, "frame_counts": {"1": 702, "2": 88452}}),
        ]
    if name == "frames":
        return [
            orbit_item(pkg, seed, 5, 4, 1, False, {"frames": 120, "pairs": 14400, "passed": True}),
            orbit_item(pkg, seed, 3, 4, 2, False, {"frames": 144, "pairs": 20736, "passed": True}),
            orbit_item(pkg, seed, 3, 4, 1, True, {"frames": 24, "pairs": 576, "passed": True,
                                                  "group_order": 1152, "stabilizer_order": 48}),
            abelianization_item(pkg, 5, 3, 240, 2),
            abelianization_item(pkg, 3, 3, 48, 2),
            cd_fp_item(pkg, 3, (1, 2, 3), {"1": 2, "2": 8, "3": 48}),
            wn_item(pkg, 5, 3, {"0": {"frames": 30, "maps": 30}, "1": {"frames": 120, "maps": 120}}),
            reflect_item(pkg, 5, 3, "1,1,0", [[0, 4, 0], [4, 0, 0], [0, 0, 1]]),
        ]
    if name == "arith":
        items = [invariants_item(pkg, "zploc", p, _zploc_results(p, 50)) for p in (5, 13)]
        items += [
            invariants_item(pkg, "zp", 5, ZP5, precision=3),
            invariants_item(pkg, "zp", 7, ZP7, precision=4),
            hensel_item(pkg, seed, 13, 6, 500),
            hensel_item(pkg, seed, 5, 4, 50, all_precisions=True),
            cd_zloc_item(pkg, zloc_products(seed, 50)),
            int_aut_item(pkg, 4, {"automorphisms": 384, "expected": 384, "n": 4, "vertices": 8}),
            shapiro_item(pkg, 5, 4),
            ranges_table_item(pkg),
            golden_grid_item(pkg),
        ]
        items += [invariants_item(pkg, "field", p, _field_results(p)) for p in (3, 5, 7, 11, 13)]
        return items
    raise KeyError(name)


def probe_items(seed: int, pkg) -> list[Item]:
    """Small instances of every item kind.  A traced run takes a layer metric
    from these only when none of its own workload's items reach that layer."""
    return [
        connectivity_item(pkg, 3, 5, 1, [0, 154]),
        connectivity_item(pkg, 3, 6, 0, [0]),
        morse_item(pkg, seed, 3, 5, 2),
        morse_item(pkg, seed, 3, 6, 2, samples=20),
        orbit_item(pkg, seed, 3, 3, 1, False, {"passed": True}),
        orbit_item(pkg, seed, 3, 3, 1, True, {"passed": True}),
        abelianization_item(pkg, 3, 3, 48, 2),
        cd_fp_item(pkg, 3, (1, 2), {"1": 2, "2": 8}),
        wn_item(pkg, 3, 2, {"0": {"frames": 4, "maps": 4}, "1": {"frames": 8, "maps": 8}}),
        invariants_item(pkg, "zploc", 3, _zploc_results(3, 10), height=10),
        invariants_item(pkg, "zp", 3, ZP3, precision=2),
        hensel_item(pkg, seed, 5, 3, 20),
        cd_zloc_item(pkg, zloc_products(seed, 5)),
        int_aut_item(pkg, 2, {"automorphisms": 8, "expected": 8, "n": 2, "vertices": 4}),
        shapiro_item(pkg, 5, 3, hypothesis=False),
        golden_grid_item(pkg),
    ]


def attach_digests(items: list[Item]) -> None:
    """Attach the stdout digest recorded for each CLI item at its seed, when
    one was recorded (see record_digests.py)."""
    table = json.loads(DIGESTS_FILE.read_text()) if DIGESTS_FILE.exists() else {}
    for item in items:
        if item.argv is None:
            continue
        if "--seed" in item.argv:
            pattern, argv_seed = seed_pattern(item.argv)
            entry = table.get(pattern, {}).get(argv_seed)
        else:
            entry = table.get(" ".join(item.argv))
        if isinstance(entry, str):
            item.digest = entry


def seed_pattern(argv: list) -> tuple[str, str]:
    """The argv with its seed replaced by `{seed}`, and the seed."""
    i = argv.index("--seed")
    return " ".join(argv[:i] + ["--seed", "{seed}"] + argv[i + 2:]), argv[i + 1]
