"""Tests of the benchmark's own arithmetic: span self times, failure
counting, and agreement between BENCHMARK.json and the metrics printed.

    python3 -m pytest bench -q
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402


def _clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_nested_children():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    t = Tracer(clock=_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    with t.span("root"):
        with t.span("a"):
            with t.span("b"):
                pass
        with t.span("c"):
            pass
    assert [s.name for s in t.spans] == ["root", "a", "b", "c"]
    assert [s.parent for s in t.spans] == [None, 0, 1, 0]
    assert self_times(t.spans) == [3, 2, 1, 4]
    assert t.self_time_by_name() == {"root": 3, "a": 2, "b": 1, "c": 4}


def test_self_time_merges_overlapping_children_and_clips_them():
    root = Span("root", 0.0, 10.0, None, "x")
    kids = [Span("k", 1.0, 4.0, 0, "x"), Span("k", 3.0, 6.0, 0, "x"),
            Span("k", 8.0, 12.0, 0, "x")]
    # covered: [1, 6] and [8, 10] -> 7 of the root's 10 seconds
    assert self_times([root] + kids)[0] == 3.0


def test_self_times_of_a_pass_add_up_to_its_root():
    t = Tracer(clock=_clock([0.0, 0.5, 1.25, 2.0, 2.5, 3.0, 3.5, 4.0]))
    with t.span("item"):
        with t.span("x"):
            pass
        with t.span("y"):
            with t.span("z"):
                pass
    assert sum(self_times(t.spans)) == t.spans[0].end - t.spans[0].start


def test_a_minus_source_subtracts_busy_seconds_pass_by_pass():
    # two passes: snf [0, 5] beside scan [5, 7], then snf [0, 9] beside scan [9, 10]
    passes = []
    for ticks in ([0, 5, 5, 7], [0, 9, 9, 10]):
        t = Tracer(clock=_clock(ticks))
        with t.span("snf"):
            pass
        with t.span("scan"):
            pass
        passes.append(t)
    value, group, base = run._layer_value(("minus", "snf", "scan"), [passes])
    assert (value, group, base) == (5.5, 0, None)  # median of 5 - 2 and 9 - 1


def test_seeded_digests_are_keyed_by_the_seed_in_the_argv():
    argv = ["--seed", "13", "morse-replay", "--field", "3"]
    assert workloads.seed_pattern(argv) == ("--seed {seed} morse-replay --field 3", "13")


def test_counters_accumulate():
    t = Tracer()
    t.count("n", 3)
    t.count("n", 4)
    assert t.counts == {"n": 7}


def _pkg():
    return workloads.load_package()


def test_a_wrong_expected_value_counts_as_a_failure():
    pkg = _pkg()
    good = workloads.golden_grid_item(pkg)
    bad = workloads.golden_grid_item(pkg)
    bad.expected = dict(bad.expected, sha256="0" * 64)
    tally = run.Tally()
    run.run_item(good, tally)
    run.run_item(bad, tally)
    run.run_item(bad, tally, Tracer())
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.fail_ratio == 2 / 3
    assert all("sha256" in p for p in tally.problems)


def test_cli_items_fail_on_exit_code_digest_and_values():
    pkg = _pkg()
    tally = run.Tally()
    ok = workloads.reflect_item(pkg, 5, 3, "1,1,0", [[0, 4, 0], [4, 0, 0], [0, 0, 1]])
    run.run_item(ok, tally)
    assert (tally.attempted, tally.failed) == (1, 0)
    wrong_value = workloads.reflect_item(pkg, 5, 3, "1,1,0", [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    run.run_item(wrong_value, tally)
    wrong_digest = workloads.reflect_item(pkg, 5, 3, "1,1,0", [[0, 4, 0], [4, 0, 0], [0, 0, 1]])
    wrong_digest.digest = "f" * 64
    run.run_item(wrong_digest, tally)
    # (1, 2, 0) has length 5 = 0 over F_5: the CLI refuses it with exit 2
    refused = workloads.reflect_item(pkg, 5, 3, "1,2,0", [])
    run.run_item(refused, tally)
    assert (tally.attempted, tally.failed) == (4, 3)
    assert any("exit code 2" in p for p in tally.problems)
    assert any("digest" in p for p in tally.problems)


def test_a_raising_item_counts_as_a_failure():
    def boom():
        raise ValueError("boom")

    item = workloads.Item("raises", boom, lambda tracer: boom(), {})
    tally = run.Tally()
    run.run_item(item, tally)
    run.run_item(item, tally, Tracer())
    assert (tally.attempted, tally.failed) == (2, 2)


def test_the_untraced_run_records_no_spans(monkeypatch):
    made = []
    original = spans.Tracer.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(spans.Tracer, "__init__", counting_init)
    items = [workloads.golden_grid_item(_pkg())]
    tally = run.Tally()
    passes, scaled, speeds = run.untraced_run(items, 0.0, tally, {})
    assert len(passes) == len(scaled) == len(speeds) == run.MIN_PASSES
    assert tally.failed == 0
    assert made == []


def test_benchmark_json_names_every_printed_metric():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["per_layer"]] == list(run.LAYER_METRICS)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {
        name: unit for name, (unit, _source) in run.LAYER_METRICS.items()}
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
