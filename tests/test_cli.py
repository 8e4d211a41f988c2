"""CLI: schema, determinism, exit codes, formats."""

import argparse
import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from stiefel_lab import cli, complexes
from stiefel_lab.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_invariants_command_schema(capsys):
    code, out = run_cli(["invariants", "--field", "5"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["version"] == "stiefel-lab/1"
    assert set(payload) == {"command", "config", "results", "assertions", "seed", "version"}
    assert payload["results"] == {"P": 2, "s": 1, "u": 2, "m": 2}
    assert all(a["pass"] for a in payload["assertions"])


def test_connectivity_command(capsys):
    code, out = run_cli(["connectivity", "--field", "3", "--n", "5",
                         "--max-degree", "0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["betti"] == [0]
    assert payload["assertions"][0]["name"] == "connectivity-bound"
    assert payload["assertions"][0]["pass"]


@pytest.mark.parametrize("field, n, betti, torsion", [
    # 252 / 11,340 / 90,720 simplices: H_1 is Z/3.
    (3, 6, [0, 0], [[], [3]]),
    # The d = 2 boundary leaves a 96 x 3,415 block without unit entries.
    (7, 4, [0, 18], [[], [2] * 16]),
    # 1,722 / 34,440 / 22,960 simplices; at --max-degree 2, b~_2 = 2,870 and
    # b~_0 - b~_1 + b~_2 = -9,759, the reduced Euler characteristic.
    (41, 3, [0, 12629], [[], []]),
])
def test_connectivity_degree_one_homology(capsys, field, n, betti, torsion):
    code, out = run_cli(["connectivity", "--field", str(field), "--n", str(n),
                         "--max-degree", "1"], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["betti"] == betti
    assert results["torsion"] == torsion
    assert results["bound_satisfied"]


def test_connectivity_f3_n10_components(capsys):
    # 19,764 unit vectors, as many as the packed graph admits: H~_0 comes
    # from the components BFS, which packs no rows.
    code, out = run_cli(["connectivity", "--field", "3", "--n", "10",
                         "--max-degree", "0"], capsys)
    assert code == 0
    assert json.loads(out)["results"]["counts"] == {"vertices": 19764, "components": 1}
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "07254f90248a88460038c1fa69d5d990314be14f0551794da139cbc99d2f8333"


@pytest.mark.parametrize("command", ["connectivity", "stiefel"])
def test_rank_zero_exit_2(command, capsys):
    code = main([command, "--field", "3", "--n", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --n ")
    assert "Traceback" not in err


def test_ranges_command(capsys):
    code, out = run_cli(["ranges", "--theorem", "A", "--case", "i",
                         "--n", "20", "--m", "4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["surjective_up_to"] == 5
    assert payload["results"]["isomorphism_up_to"] == 4


def test_ranges_table_tsv(capsys):
    code, out = run_cli(["--format", "tsv", "ranges", "--table"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 201  # header + 200 rows
    assert lines[0].split("\t")[0] == "kind"


def test_byte_identical_output(capsys):
    args = ["morse-replay", "--field", "3", "--n", "5", "--l", "2"]
    code1, out1 = run_cli(args, capsys)
    code2, out2 = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_reflect_command(capsys):
    code, out = run_cli(["reflect", "--field", "5", "--n", "2",
                         "--vector", "1,1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert all(a["pass"] for a in payload["assertions"])


def test_wn_and_int_aut(capsys):
    code, out = run_cli(["wn-check", "--field", "3", "--n", "2", "--max-p", "1"], capsys)
    assert code == 0
    code, out = run_cli(["int-aut", "--n", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["automorphisms"] == 8


@pytest.mark.parametrize("column", [[1, 0, 0], [0, 0, 0]], ids=["repeated", "zero"])
def test_wn_check_exits_1_on_a_planted_map(monkeypatch, capsys, column):
    """A form-preserving map whose second basis image is e_1 again, or 0,
    matches no ordered frame: exit 1 with the witness, not a traceback or
    a usage error."""
    from stiefel_lab import stiefel

    enumerate_maps = stiefel._form_preserving_maps

    def planted(target, k):
        maps = enumerate_maps(target, k)
        return np.concatenate([maps, [np.array([[1, 0, 0], column]).T]]) if k == 2 else maps

    monkeypatch.setattr(stiefel, "_form_preserving_maps", planted)
    code, out = run_cli(["wn-check", "--field", "3", "--n", "3", "--max-p", "1"], capsys)
    assert code == 1
    wn, ls = json.loads(out)["assertions"]
    assert not wn["pass"] and wn["witness"]
    assert ls["pass"]


def test_hensel_command(capsys):
    code, out = run_cli(["hensel", "--p", "5", "--precision", "3",
                         "--count", "5"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["count"] == 5


def test_usage_error_exit_2(capsys):
    # A condition violation surfaces as a usage-style error, exit code 2.
    code = main(["morse-replay", "--field", "5", "--n", "6", "--l", "2", "--r", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "no sufficient condition" in err


@pytest.mark.parametrize("argv,message,simplex_budget", [
    ("stiefel --field 5 --n 4 --max-dim 2",
     "clique enumeration exceeded budget 10 at size 2", 10),
    # One vector table each, of 16.4, 21.8 and 52.0 GiB, and the Hom-set
    # table of wn-check's form-preserving maps (21.8 GiB).
    ("connectivity --field 3 --n 17 --max-degree 0",
     "the table of all 3^17 vectors of length 17 holds 2195382771 entries", None),
    ("stiefel --field 5 --n 12 --max-dim 1",
     "the table of all 5^12 vectors of length 12 holds 2929687500 entries", None),
    ("--seed 0 morse-replay --field 3 --n 18 --l 2 --samples 5",
     "the table of all 3^18 vectors of length 18 holds 6973568802 entries", None),
    ("wn-check --field 5 --n 3 --max-p 3",
     "the table of all 5^12 vectors of length 12 holds 2929687500 entries", None),
    # 78,000 frames, whose pair sweep took a 2.91 GiB block.
    ("orbit-check --field 5 --n 5 --k 2",
     "transport sweep over 78000 frames needs 6084000000 transports, more than", None),
    # 15,921,360 ordered 3-frames, priced from the triangle count before any
    # is listed; listing them first took 33.7 s and 3.6 GB before the refusal.
    ("orbit-check --field 3 --n 7 --k 3",
     "transport sweep over 15921360 frames needs 253489704249600 transports, more than", None),
    # 2^8 8! signed permutations; n = 9 was still listing them after 30 s.
    ("int-aut --n 8", "the automorphism search lists 2^n n! = 10321920 signed permutations, "
     "more than the enumeration cap 1000000", None),
    # About h^3 / 2 three-square candidates, priced before the loop; the
    # unpriced search was still running after 30 s.
    ("invariants --ring zploc --p 3 --height 100000",
     "three-square search at height 100000 prices 500015000100000 candidates, "
     "more than 100000", None),
    # The rank-3 u scan over F_227, after ranks 1 and 2 have answered.
    ("invariants --field 227",
     "the table of all 227^3 vectors of length 3 holds 35091249 entries", None),
], ids=["stiefel-budget-10", "connectivity-F3-n17", "stiefel-F5-n12", "morse-F3-n18",
        "wn-F5-n3", "orbit-F5-n5-k2", "orbit-F3-n7-k3", "int-aut-n8", "zploc-p3-h100000",
        "invariants-F227"])
def test_budget_error_exit_2(argv, message, simplex_budget, monkeypatch, capsys):
    from stiefel_lab import stiefel

    if simplex_budget is not None:
        monkeypatch.setattr(stiefel, "SIMPLEX_BUDGET", simplex_budget)
    start = time.perf_counter()
    assert main(argv.split()) == 2
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err


def test_triangle_count_budget_exit_2(monkeypatch, capsys):
    # X(F_3^8) has 758,160 edges of 34 packed words: 25,777,440 word reads.
    from stiefel_lab import stiefel

    monkeypatch.setattr(stiefel, "SIMPLEX_BUDGET", 25_777_439)
    code = main(["morse-replay", "--field", "3", "--n", "8", "--l", "3", "--samples", "5"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: triangle count over 758160 edges of 34 packed words")
    assert "Traceback" not in err


def test_snf_entry_budget_exit_2(monkeypatch, capsys):
    # X(F_3^5) has 1,080 edges and 2,160 triangles: d_1 has 2 x 1,080 =
    # 2,160 entries and is reduced, d_2 has 3 x 2,160 = 6,480 and is priced
    # past the budget before its arrays are built.
    monkeypatch.setattr(complexes, "SNF_ENTRY_BUDGET", 5947)
    code = main(["connectivity", "--field", "3", "--n", "5", "--max-degree", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == ("error: the boundary d_2 has 3 x 2160 = 6480 entries, more than 5947; "
                   "refused before it is built\n")
    assert "Traceback" not in err


def test_connectivity_f3_n7_degree_one_fits_a_capped_address_space():
    """X(F_3^7) at degree <= 1 (702 / 88,452 / 2,653,560 simplices) runs in
    a child whose address space alone is capped at 1.5 GB, and exits 0 with
    vanishing homology."""
    import resource

    cap = 3 * 2 ** 29

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = subprocess.run(
        [sys.executable, "-m", "stiefel_lab.cli", "connectivity", "--field", "3", "--n", "7",
         "--max-degree", "1"],
        capture_output=True, text=True, preexec_fn=limit,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    results = json.loads(proc.stdout)["results"]
    assert results["betti"] == [0, 0] and results["torsion"] == [[], []]


def test_zp_invariants_scan_the_residue_field_once(monkeypatch, capsys):
    """`invariants --ring zp` computes the residue field's report once and
    hands it to `padic_invariants`; stdout is the same as when that function
    computes its own."""
    from stiefel_lab import invariants
    from stiefel_lab.rings import finite_field, padic

    argv = ["invariants", "--ring", "zp", "--p", "13", "--precision", "4"]
    alone = run_cli(argv, capsys)
    scanned = []
    compute = invariants.compute_invariants
    monkeypatch.setattr(invariants, "compute_invariants",
                        lambda ring: scanned.append(ring.label()) or compute(ring))
    assert run_cli(argv, capsys) == alone
    assert scanned == ["F13"]
    ring = padic(13, 4)
    assert invariants.padic_invariants(ring) == \
        invariants.padic_invariants(ring, compute(finite_field(13)))
    with pytest.raises(ValueError, match="residue report does not match the ring"):
        invariants.padic_invariants(ring, compute(finite_field(5)))


def test_parser_is_built_once_and_keeps_no_values(monkeypatch, capsys):
    """Calls in one process share one parser, and each prints what it prints
    alone: a seeded call leaves no seed behind for the next."""
    calls = [["--seed", "5", "morse-replay", "--field", "3", "--n", "5", "--l", "2"],
             ["ranges", "--theorem", "B", "--n", "12"]]
    alone = []
    for argv in calls:
        monkeypatch.setattr(cli, "_PARSER", None)
        alone.append(run_cli(argv, capsys))
    assert json.loads(alone[0][1])["seed"] == 5 and json.loads(alone[1][1])["seed"] == 0
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    monkeypatch.setattr(cli, "_PARSER", None)
    assert [run_cli(argv, capsys) for argv in calls] == alone
    assert len(built) == 1


def test_hensel_stall_exit_2(monkeypatch, capsys):
    import random

    from stiefel_lab import gfnum

    # Every form's reduction reads as anisotropic, so no form ever lifts.
    monkeypatch.setattr(gfnum, "first_solutions",
                        lambda grams, p, a: np.zeros(grams.shape[:2], dtype=np.int64))
    drawn = []  # one rank is drawn per form

    class CountedRandom(random.Random):
        def choice(self, seq):
            drawn.append(seq)
            return super().choice(seq)

    monkeypatch.setattr(random, "Random", CountedRandom)
    code = main(["hensel", "--count", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: form generation stalled after 200 forms")
    assert "Traceback" not in err
    assert 200 <= len(drawn) <= 201


def test_invariants_f61_answers(capsys):
    # Each rank reads F_61's vector table for its 2^r square-class diagonals
    # only, not for all 60^r unit diagonals.
    start = time.perf_counter()
    code, out = run_cli(["invariants", "--field", "61"], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(out)["results"] == {"P": 2, "s": 1, "u": 2, "m": 2}


@pytest.mark.parametrize("p, message", [
    (30011, "the table of all 30011^2 vectors of length 2 holds 1801320242 entries"),
    (1000003, "the table of all 1000003^2 vectors of length 2 holds 2000012000018 entries"),
], ids=["30011", "1000003"])
def test_invariants_large_field_refused_by_the_vector_table(p, message, capsys):
    # Rank 1 answers; the rank-2 table is priced and refused before it is built.
    start = time.perf_counter()
    code = main(["invariants", "--field", str(p)])
    assert time.perf_counter() - start < 2.0
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err


def test_unsampleable_frame_exit_2(capsys):
    # F_3^1 has two unit vectors and they are not orthogonal: no 2-frame.
    code = main(["morse-replay", "--field", "3", "--n", "1", "--l", "2", "--r", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_bad_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["definitely-not-a-command"])
    assert exc.value.code == 2


def test_assertion_failure_exit_1(capsys):
    """_finish maps any failed assertion to exit code 1 with a witness."""
    from stiefel_lab.cli import _assertion, _finish

    code = _finish("demo", {}, {}, [_assertion("sanity", False, {"got": 1})],
                   0, "json")
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["assertions"][0]["witness"] == {"got": 1}


def test_stiefel_command_with_poset_check(capsys):
    code, out = run_cli(["stiefel", "--field", "5", "--n", "2",
                         "--max-dim", "1", "--check-poset"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["simplices"] == {"0": 4, "1": 4}
    assert payload["assertions"][0]["name"] == "poset-matches-skeleton"
    assert payload["assertions"][0]["pass"]


def test_orbit_check_command(capsys):
    code, out = run_cli(["orbit-check", "--field", "3", "--n", "3", "--k", "1",
                         "--stabilizer"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["group_order"] == 48
    assert payload["results"]["stabilizer_order"] == 8
    assert all(a["pass"] for a in payload["assertions"])


@pytest.mark.parametrize("argv, message", [
    (["orbit-check", "--field", "3", "--n", "0"], "--n must be at least 1, got 0"),
    (["orbit-check", "--field", "3", "--n", "2", "--k", "3"],
     "--k must be between 0 and --n = 2, got 3"),
    (["wn-check", "--field", "3", "--n", "0"], "--n must be at least 1, got 0"),
    (["wn-check", "--field", "3", "--n", "1", "--max-p", "0"],
     "LS2 needs V + E^(n-1) of rank at least 1, got rank 0 from --n 1 and 0 --v-diag entries"),
    (["int-aut", "--n", "0"], "--n must be at least 1, got 0"),
    (["int-aut", "--n", "-1"], "--n must be at least 1, got -1"),
    # Each of these used to run: a negative degree read no homology (a passing
    # bound, a false poset mismatch, no wn level), --samples 0 ran the default
    # 200 samples, and an empty hensel sweep passed or failed vacuously.
    ("connectivity --field 3 --n 5 --max-degree -1".split(),
     "--max-degree must be at least 0, got -1"),
    ("stiefel --field 3 --n 3 --max-dim -1 --check-poset".split(),
     "--max-dim must be at least 0, got -1"),
    ("wn-check --field 3 --n 2 --max-p -1".split(), "--max-p must be at least 0, got -1"),
    ("--seed 0 morse-replay --field 3 --n 7 --l 2 --samples 0".split(),
     "--samples must be at least 1, got 0"),
    ("--seed 0 morse-replay --field 3 --n 7 --l 2 --samples -5".split(),
     "--samples must be at least 1, got -5"),
    ("hensel --p 5 --precision 3 --count 0".split(), "--count must be at least 1, got 0"),
    ("hensel --p 5 --precision 3 --count -2".split(), "--count must be at least 1, got -2"),
    # Corollaries 1 and 2 have cases a-d; the default --case i used to die
    # with a KeyError traceback.
    ("ranges --corollary 2".split(), "corollary 2 has cases a, b, c and d, got 'i'"),
    ("ranges --corollary 1 --d 2".split(), "corollary 1 has cases a, b, c and d, got 'i'"),
], ids=["orbit-n0", "orbit-k-above-n", "wn-n0", "wn-n1-rank0", "int-aut-n0", "int-aut-n-1",
        "connectivity-degree-1", "stiefel-dim-1", "wn-p-1", "morse-samples0", "morse-samples-5",
        "hensel-count0", "hensel-count-2", "corollary-2-case-i", "corollary-1-case-i"])
def test_frame_commands_refuse_vacuous_sizes(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


PRIME = "an odd prime; anything else is refused by the ring with RingError"

# Every integer option of every subcommand, keyed (subcommand, flag), None for
# the top-level parser: (least valid value, the rest of a valid call[, the
# error one below it prints when that is not `_at_least`'s]), or the reason
# the option has no least value.
INTEGER_FLAGS = {
    (None, "--seed"): "any integer seeds the pseudo-random choices",
    ("invariants", "--field"): PRIME,
    ("invariants", "--p"): PRIME,
    ("invariants", "--precision"): (1, ["invariants", "--ring", "zp"],
                                    "p-adic precision must be >= 1"),
    ("invariants", "--height"): (1, ["invariants", "--ring", "zploc"], "height must be >= 1"),
    ("stiefel", "--field"): PRIME,
    ("stiefel", "--n"): (1, ["stiefel", "--field", "3"]),
    ("stiefel", "--max-dim"): (0, ["stiefel", "--field", "3", "--n", "3"]),
    ("connectivity", "--field"): PRIME,
    ("connectivity", "--n"): (1, ["connectivity", "--field", "3"]),
    ("connectivity", "--max-degree"): (0, ["connectivity", "--field", "3", "--n", "3"]),
    ("morse-replay", "--field"): PRIME,
    ("morse-replay", "--n"): (1, ["morse-replay", "--field", "3", "--l", "2"]),
    ("morse-replay", "--l"): (2, ["morse-replay", "--field", "3", "--n", "5"],
                              "the filtration argument needs l >= 2"),
    ("morse-replay", "--r"): (0, ["morse-replay", "--field", "3", "--n", "5", "--l", "2"]),
    ("morse-replay", "--s"): (0, ["morse-replay", "--field", "3", "--n", "5", "--l", "2"]),
    ("morse-replay", "--samples"): (1, ["morse-replay", "--field", "3", "--n", "5", "--l", "2"]),
    ("reflect", "--field"): PRIME,
    ("reflect", "--n"): (1, ["reflect", "--field", "3", "--vector", "1"]),
    ("orbit-check", "--field"): PRIME,
    ("orbit-check", "--n"): (1, ["orbit-check", "--field", "3"]),
    ("orbit-check", "--k"): (0, ["orbit-check", "--field", "3", "--n", "2"],
                             "--k must be between 0 and --n = 2, got -1"),
    ("wn-check", "--field"): PRIME,
    ("wn-check", "--n"): (1, ["wn-check", "--field", "3"]),
    ("wn-check", "--max-p"): (0, ["wn-check", "--field", "3", "--n", "2"]),
    ("int-aut", "--n"): (1, ["int-aut"]),
    ("ranges", "--n"): (1, ["ranges"]),
    ("ranges", "--value"): (1, ["ranges"]),
    ("ranges", "--r"): "-1 is a valid coefficient degree, and the range formulas refuse "
                       "anything below it",
    ("ranges", "--d"): (0, ["ranges", "--corollary", "1", "--case", "a"]),
    ("ranges", "--corollary"): (1, ["ranges", "--case", "a", "--d", "1"], "invalid choice: 0"),
    ("hensel", "--p"): PRIME,
    ("hensel", "--precision"): (1, ["hensel"], "p-adic precision must be >= 1"),
    ("hensel", "--count"): (1, ["hensel"]),
}


def _integer_options():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, p in [(None, parser), *sub.choices.items()]:
        for action in p._actions:
            if action.type is int:
                yield command, action.option_strings[0]


def test_every_integer_flag_has_a_row():
    """A new integer option needs its least value, or the reason it has
    none, in INTEGER_FLAGS."""
    assert sorted(_integer_options(), key=str) == sorted(INTEGER_FLAGS, key=str)


LEAST_VALUES = [k for k, v in INTEGER_FLAGS.items() if isinstance(v, tuple)]


@pytest.mark.parametrize("command, flag", LEAST_VALUES, ids=[c + f for c, f in LEAST_VALUES])
def test_integer_flags_refuse_one_below_their_least_value(command, flag, capsys):
    low, argv, *message = INTEGER_FLAGS[(command, flag)]
    message = message[0] if message else f"{flag} must be at least {low}, got {low - 1}"
    cli.build_parser().parse_args(argv + [flag, str(low)])  # the rest of the call is valid
    try:
        code = main(argv + [flag, str(low - 1)])
    except SystemExit as exc:  # argparse refuses a value outside `choices`
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert message in captured.err


def test_wn_check_n1_with_a_v_diag_entry_is_not_vacuous(capsys):
    """With V = <1>, LS2 compares the 2 maps E^1 -> V + E^0 with their images."""
    from stiefel_lab.rings import finite_field
    from stiefel_lab.stiefel import local_standardness_check

    assert local_standardness_check(finite_field(3), [1], 1).details == {"hom_small": 2}
    code, out = run_cli(["wn-check", "--field", "3", "--n", "1", "--v-diag", "1",
                         "--max-p", "0"], capsys)
    assert code == 0 and all(a["pass"] for a in json.loads(out)["assertions"])


def test_orbit_check_reports_a_failed_or_empty_sweep(monkeypatch, capsys):
    from stiefel_lab import isometry

    def broken(q, k, **kwargs):
        raise AssertionError("a transport is not an isometry")

    monkeypatch.setattr(isometry, "frame_transport_exhaustive", broken)
    code, out = run_cli(["orbit-check", "--field", "3", "--n", "2"], capsys)
    assert code == 1
    assert json.loads(out)["assertions"] == [
        {"name": "transitive-on-frames", "pass": False,
         "witness": "a transport is not an isometry"}]
    monkeypatch.setattr(isometry, "frame_transport_exhaustive",
                        lambda q, k, **kwargs: {"frames": 0, "pairs": 0, "spot_checks": 0})
    code, out = run_cli(["orbit-check", "--field", "3", "--n", "2"], capsys)
    assert code == 1
    assert json.loads(out)["assertions"][0]["witness"] == {"frames": 0, "pairs": 0}


def test_cnt_ranges_command(capsys):
    code, out = run_cli(["ranges", "--cnt", "--case", "vii", "--n", "20",
                         "--value", "4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["literal"] == 7
    assert "corrected" in payload["results"]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "stiefel_lab.cli", "ranges", "--corollary", "3",
         "--case", "", "--n", "20"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["results"]["bound"] == 6


def test_stdout_matches_bench_digests(capsys):
    """Every unseeded invocation the benchmark digests, and seed 0 of each
    seeded one, exits 0 with the recorded stdout SHA-256 (read-only)."""
    table = json.loads((Path(__file__).parent.parent / "bench" / "digests.json").read_text())
    runs = [(argv, digest) for argv, digest in table.items() if isinstance(digest, str)]
    runs += [(pattern.replace("{seed}", "0"), by_seed["0"])
             for pattern, by_seed in table.items() if isinstance(by_seed, dict)]
    assert len(runs) == len(table)
    mismatched = []
    for argv, digest in runs:
        code, out = run_cli(argv.split(), capsys)
        if code != 0 or hashlib.sha256(out.encode()).hexdigest() != digest:
            mismatched.append((argv, code))
    assert mismatched == []
