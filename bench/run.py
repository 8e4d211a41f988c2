"""Benchmark for stiefel-lab.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src`
directory.  One process, one thread, closed loop: the workload's items run
back to back, one pass after another, until the time is spent (at least
three passes).  Every item's output is checked against its oracle.
End-to-end times are scaled to one nominal machine speed by a reference task
timed after every item (see reference_work).

With `--trace 0` the last line of stdout holds the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics from a traced run, in which spans
recorded around the calls into each module give busy (self) time per layer.
The line before it is a detail record: environment, per-item median times,
the failures, and the base of every ratio.  RATIONALE.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# Nominal duration of one reference_work() call; end-to-end times are
# reported in seconds at the machine speed where the call takes this long.
REFERENCE_NOMINAL_S = 0.025

# Per-layer metrics: name -> (unit, source).  A source is a span name (busy
# seconds per pass), ("minus", span, span) (the busy seconds of the first
# less those of the second), ("count", counter), ("ratio", numerator,
# denominator), or a run-level quantity.
LAYER_METRICS = {
    "rings.scalar_fp_ns": ("ns", ("ring", "fp")),
    "rings.scalar_zploc_ns": ("ns", ("ring", "zploc")),
    "rings.scalar_padic_ns": ("ns", ("ring", "padic")),
    "rings.scalar_z_ns": ("ns", ("ring", "z")),
    "gfnum.unit_sphere_s": ("s", "gfnum.unit_sphere"),
    "gfnum.vectors_scanned": ("count", ("count", "gfnum.vectors_scanned")),
    "stiefel.adjacency_s": ("s", "stiefel.adjacency"),
    "stiefel.components_s": ("s", "stiefel.components"),
    "stiefel.build_s": ("s", "stiefel.build"),
    "stiefel.simplices": ("count", ("count", "stiefel.simplices")),
    "stiefel.morse_exhaustive_s": ("s", "stiefel.morse_exhaustive"),
    "stiefel.morse_sampled_s": ("s", "stiefel.morse_sampled"),
    "stiefel.morse.poset_elements": ("count", ("count", "stiefel.morse.poset_elements")),
    "stiefel.morse.links_checked": ("count", ("count", "stiefel.morse.links_checked")),
    "stiefel.morse.link_yield": ("ratio", ("ratio", "stiefel.morse.links_checked",
                                           "stiefel.morse.links_requested")),
    "stiefel.wn_check_s": ("s", "stiefel.wn_check"),
    "stiefel.int_aut_s": ("s", "stiefel.int_aut"),
    "complexes.boundary_s": ("s", "complexes.boundary"),
    "complexes.boundary.nnz": ("count", ("count", "complexes.boundary.nnz")),
    "complexes.homology_s": ("s", "complexes.homology"),
    "complexes.snf_dense_s": ("s", "complexes.snf_dense"),
    "complexes.snf_sparse_s": ("s", ("minus", "complexes.snf_sparse", "complexes.snf_sparse_scan")),
    "complexes.snf.dense_columns": ("count", ("count", "complexes.snf.dense_columns")),
    "complexes.snf.sparse_columns": ("count", ("count", "complexes.snf.sparse_columns")),
    "complexes.poset_build_s": ("s", "complexes.poset_build"),
    "complexes.poset_link_s": ("s", "complexes.poset_link"),
    "complexes.order_complex_s": ("s", "complexes.order_complex"),
    "complexes.order_complex.simplices": ("count", ("count", "complexes.order_complex.simplices")),
    "isometry.transport_s": ("s", "isometry.transport"),
    "isometry.transport.pairs": ("count", ("count", "isometry.transport.pairs")),
    "isometry.extension_s": ("s", "isometry.extension"),
    "isometry.enumerate_s": ("s", "isometry.enumerate"),
    "isometry.abelianization_s": ("s", "isometry.abelianization"),
    "isometry.cd_fp_s": ("s", "isometry.cd_fp"),
    "isometry.cd_zloc_s": ("s", "isometry.cd_zloc"),
    "quadmod.complement_s": ("s", "quadmod.complement"),
    "quadmod.diagonalize_s": ("s", "quadmod.diagonalize"),
    "repsolve.hensel_s": ("s", "repsolve.hensel"),
    "repsolve.hensel.lift_ratio": ("ratio", ("ratio", "repsolve.hensel.lifted",
                                             "repsolve.hensel.forms_generated")),
    "invariants.localized_s": ("s", "invariants.localized"),
    "invariants.padic_s": ("s", "invariants.padic"),
    "invariants.field_s": ("s", "invariants.field"),
    "invariants.shapiro_s": ("s", "invariants.shapiro"),
    "stability.golden_grid_s": ("s", "stability.golden_grid"),
    "cli.parse_s": ("s", "cli.parse"),
    "trace.overhead_s": ("s", "overhead"),
    "src.lines": ("count", "src.lines"),
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "pass_ratio": "ratio"}


class Tally:
    """Items attempted and failed; an item fails when it raises, exits
    non-zero, or gives facts that differ from its oracle."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def run_item(item, tally: Tally, tracer=None) -> float:
    """Run one item (traced when a tracer is given), check it, and return
    the seconds it took; the check is not timed."""
    from workloads import check

    t0 = time.perf_counter()
    try:
        if tracer is None:
            facts = item.run()
        else:
            tracer.item = item.id
            with tracer.span("item"):
                facts = item.traced(tracer)
        problems = None
    except (Exception, SystemExit) as exc:  # a raising item is a failed item
        problems = [f"{item.id}: raised {type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - t0
    tally.add(problems if problems is not None else check(item, facts))
    return elapsed


def reference_work() -> float:
    """Seconds taken by a fixed task that does not touch stiefel_lab, with
    the package's own mix of operations: integer row operations, frozenset
    and dict traffic, Fraction arithmetic and small numpy products.

    The development machine is shared, and its speed drifts by up to 1.7x
    for minutes at a time. Timing this task between items measures that
    drift, so that end-to-end times can be scaled to one nominal speed."""
    import numpy as np

    t0 = time.perf_counter()
    rng = random.Random(7)
    rows = [[rng.randint(-3, 3) for _ in range(60)] for _ in range(60)]
    for j in range(1, 60):
        for i in range(j, 60):
            q = rows[i][j - 1]
            if q:
                ri, rj = rows[i], rows[j - 1]
                for k in range(60):
                    ri[k] = (ri[k] - q * rj[k]) % 7
    up: dict = {}
    for i in range(2000):
        up.setdefault(frozenset((i % 97, i % 89)), set()).add(i % 61)
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i, i + 1) * Fraction(i + 2, 3)
    m = np.arange(400, dtype=np.int64).reshape(20, 20)
    for _ in range(50):
        m = (m @ m + 1) % 7
    return time.perf_counter() - t0


def run_pass(items, tally: Tally, per_item: dict, tracer=None,
             reference: Optional[list] = None) -> float:
    """One pass over the items; returns the seconds the items took.  With a
    `reference` list, reference_work() runs after every item and its times
    are appended there."""
    total = 0.0
    for item in items:
        elapsed = run_item(item, tally, tracer)
        per_item.setdefault(item.id, []).append(elapsed)
        total += elapsed
        if reference is not None:
            reference.append(reference_work())
    return total


def set_up(workload: str, seed: int):
    """Import the package and build the workload's inputs from the seed,
    SETUP_REPEATS times, each followed by reference_work().  Returns the
    median scaled time, the raw times, and the last set-up."""
    import workloads

    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pkg = workloads.load_package()
        items = workloads.build_workload(workload, seed, pkg)
        times.append(time.perf_counter() - t0)
        scaled.append(times[-1] * REFERENCE_NOMINAL_S / reference_work())
    workloads.attach_digests(items)
    return statistics.median(scaled), times, pkg, items


def ring_microbench(pkg, seed: int, pairs: int = 500, repeats: int = 5) -> dict:
    """Nanoseconds per Scalar operation for each ring kind: a fixed mix of
    add, mul, exact div and eq on values drawn from the seed.  Each pair
    (a, b) runs a + b, a * b, (a * b) / b and ((a * b) / b) == a."""
    rings = pkg.rings
    rng = random.Random(seed)

    def unit_fraction():
        while True:
            num, den = rng.randint(-60, 60), rng.randint(1, 60)
            if num % 5 and den % 5:
                return Fraction(num, den)

    draws = {
        "fp": (rings.finite_field(5), lambda: rng.randrange(5), lambda: rng.randrange(1, 5)),
        "zploc": (rings.localized_at(5), lambda: Fraction(rng.randint(-60, 60), rng.choice((1, 2, 3, 4, 6, 7))),
                  unit_fraction),
        "padic": (rings.padic(5, 4), lambda: rng.randrange(625),
                  lambda: rng.choice([x for x in range(1, 625) if x % 5])),
        "z": (rings.integers(), lambda: rng.randint(-10 ** 6, 10 ** 6),
              lambda: rng.choice((-1, 1)) * rng.randint(1, 10 ** 6)),
    }
    out = {}
    for kind, (ring, draw_a, draw_b) in draws.items():
        values = [(rings.Scalar(ring, draw_a()), rings.Scalar(ring, draw_b()))
                  for _ in range(pairs)]
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            ok = True
            for a, b in values:
                a + b
                d = (a * b) / b
                ok &= d == a
            times.append(time.perf_counter() - t0)
            if not ok:
                raise AssertionError(f"Scalar arithmetic is inexact over {kind}")
        out[kind] = statistics.median(times) / (4 * pairs) * 1e9
    return out


def _quartiles(values: list) -> dict:
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def _layer_value(source, tracers) -> tuple:
    """Value of one layer metric from the first tracer group that reaches
    it: the traced passes (median over passes), then the workload's own
    probes, then the probe items.  Returns (value, group index, base)."""
    for group, group_tracers in enumerate(tracers):
        if isinstance(source, str):
            if any(any(s.name == source for s in t.spans) for t in group_tracers):
                return statistics.median(t.self_time_by_name().get(source, 0.0)
                                         for t in group_tracers), group, None
        elif source[0] == "minus":
            if any(any(s.name == source[1] for s in t.spans) for t in group_tracers):
                busy = [t.self_time_by_name() for t in group_tracers]
                return statistics.median(b.get(source[1], 0.0) - b.get(source[2], 0.0)
                                         for b in busy), group, None
        elif source[0] == "count":
            if any(source[1] in t.counts for t in group_tracers):
                return group_tracers[0].counts.get(source[1], 0), group, None
        elif source[0] == "ratio":
            t = group_tracers[0]
            if source[2] in t.counts:
                num, den = t.counts.get(source[1], 0), t.counts[source[2]]
                return (num / den if den else 0.0), group, [num, den]
    return None, None, None


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "stiefel_lab").glob("*.py")))


def untraced_run(items, seconds: float, tally: Tally, per_item: dict):
    """Passes until the next one would end after `seconds`.  Returns the raw
    pass times, the same times scaled to the nominal reference speed, and
    the speed factor (reference time over nominal) of each pass."""
    start = time.perf_counter()
    passes, scaled, speeds = [], [], []
    while True:
        reference: list = []
        passes.append(run_pass(items, tally, per_item, reference=reference))
        speeds.append(sum(reference) / (len(reference) * REFERENCE_NOMINAL_S))
        scaled.append(passes[-1] / speeds[-1])
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes, scaled, speeds


def traced_run(pkg, items, seed: int, seconds: float, tally: Tally, per_item: dict):
    """Alternate untraced and traced passes, then run the layer probes once.
    Returns the per-layer metrics and what the detail record needs."""
    from spans import Tracer
    from workloads import probe_items

    start = time.perf_counter()
    plain, traced, tracers = [], [], []
    while True:
        plain.append(run_pass(items, tally, {}))
        tracer = Tracer()
        traced.append(run_pass(items, tally, per_item, tracer))
        tracers.append(tracer)
        elapsed = time.perf_counter() - start
        if (len(traced) >= MIN_TRACED_PASSES
                and elapsed + statistics.median(plain) + statistics.median(traced) > seconds):
            break
    own_probes = Tracer()
    for item in items:
        if item.probe is not None:
            own_probes.item = item.id
            item.probe(own_probes)
    fallback = Tracer()
    for item in probe_items(seed, pkg):
        run_item(item, tally, fallback)
        if item.probe is not None:
            item.probe(fallback)
    rings = ring_microbench(pkg, seed)
    groups = [tracers, [own_probes], [fallback]]
    metrics, sources, bases = {}, {}, {}
    for name, (unit, source) in LAYER_METRICS.items():
        if source == "overhead":
            value = statistics.median(traced) - statistics.median(plain)
        elif source == "src.lines":
            value = _src_lines()
        elif source[0] == "ring":
            value = rings[source[1]]
        else:
            value, group, base = _layer_value(source, groups)
            if value is None:
                raise RuntimeError(f"no span or counter feeds {name}")
            sources[name] = ("passes", "workload-probes", "probe-items")[group]
            if base is not None:
                bases[name] = base
        metrics[name] = {"value": value, "unit": unit}
    last = tracers[-1].spans
    extra = {"untraced_passes": _quartiles(plain), "traced_passes": _quartiles(traced),
             "layer_source": sources, "ratio_bases": bases,
             # [name, start, end, parent index, item id], seconds from the pass start
             "last_traced_pass_spans": [[sp.name, sp.start - last[0].start, sp.end - last[0].start,
                                         sp.parent, sp.item] for sp in last]}
    return metrics, extra


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "src.lines": _src_lines(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stiefel_lab" / "__init__.py").is_file():
        sys.stderr.write(f"error: {SRC / 'stiefel_lab'} not found; run the benchmark "
                         "from the root of a stiefel-lab checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  -- imported once, outside the timed set-up

    setup_s, setup_times, pkg, items = set_up(args.workload, args.seed)
    loaded = Path(pkg.cli.__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        sys.stderr.write(f"error: stiefel_lab was imported from {loaded}, not from {SRC}\n")
        return 2
    tally = Tally()
    per_item: dict = {}
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "setup_raw_s": _quartiles(setup_times)}
    if args.trace:
        metrics, extra = traced_run(pkg, items, args.seed, args.seconds, tally, per_item)
        detail.update(extra)
    else:
        passes, scaled, speeds = untraced_run(items, args.seconds, tally, per_item)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {"setup_s": setup_s, "wall_s": statistics.median(scaled),
                  "peak_rss_mb": peak, "pass_ratio": 1.0 - tally.fail_ratio}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        detail["raw_passes"] = _quartiles(passes)
        detail["scaled_passes"] = _quartiles(scaled)
        detail["speed_factor"] = _quartiles(speeds)
    detail["item_median_s"] = {k: statistics.median(v) for k, v in per_item.items()}
    detail["fail_ratio"] = {"value": tally.fail_ratio, "failed": tally.failed,
                            "attempted": tally.attempted}
    detail["problems"] = tally.problems[:20]
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
