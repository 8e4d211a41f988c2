"""CLI: schema, determinism, exit codes, formats."""

import json
import subprocess
import sys

import pytest

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
])
def test_connectivity_degree_one_homology(capsys, field, n, betti, torsion):
    code, out = run_cli(["connectivity", "--field", str(field), "--n", str(n),
                         "--max-degree", "1"], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["betti"] == betti
    assert results["torsion"] == torsion
    assert results["bound_satisfied"]


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


def test_budget_error_exit_2(capsys):
    code = main(["stiefel", "--field", "5", "--n", "4", "--max-dim", "2",
                 "--budget", "10"])
    assert code == 2


def test_hensel_stall_exit_2(monkeypatch, capsys):
    from stiefel_lab import repsolve

    monkeypatch.setattr(repsolve, "find_isotropic",
                        lambda q, *a: repsolve.IsotropyWitness(None, repsolve.REGIME_EXHAUSTIVE))
    code = main(["hensel", "--count", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
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
