"""CLI behavior through real subprocess runs."""

import json
import math
import os
import subprocess
import sys

import pytest

from jbtrotter.algebras import AlgebraDescriptor, random_element
from jbtrotter.instances import ProblemInstance, save_instance

CSV_HEADER = (
    "scheme,n,error,bound_thm31,bound_thm33i,bound_thm33ii,"
    "bound_special_i,bound_special_ii"
)


def run_cli(*argv, env_extra=None, cwd=None):
    env = dict(os.environ)
    env.pop("JBTROTTER_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "jbtrotter", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=300,
    )


@pytest.fixture(scope="module")
def pauli_instance(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "pauli.json"
    doc = {
        "algebra": {"kind": "sym", "dim": 2},
        "label": "pauli-pair",
        "elements": [[0.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, -1.0]],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def spin_triple_instance(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "spin3.json"
    desc = AlgebraDescriptor("spin", 4)
    elems = tuple(random_element(desc, 500 + j, 0.8) for j in range(3))
    save_instance(ProblemInstance(desc, elems, "spin-triple"), path)
    return str(path)


# ---------------------------------------------------------------------------
# determinism


def test_demo_is_byte_identical_across_runs():
    first = run_cli("demo")
    second = run_cli("demo")
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    assert first.stderr == "" and second.stderr == ""
    assert "result pass" in first.stdout


def test_sweep_is_byte_identical_across_runs(pauli_instance):
    args = ("sweep", "--input", pauli_instance, "--scheme", "g,f", "--n", "1:64:x2")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout


# ---------------------------------------------------------------------------
# sweep output formats


def test_sweep_csv_shape(pauli_instance):
    res = run_cli("sweep", "--input", pauli_instance, "--scheme", "g", "--n", "1,2,4")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3 + 1  # header, three rows, order trailer
    assert lines[-1].startswith("# empirical_order g ")
    first = lines[1].split(",")
    assert first[0] == "g" and first[1] == "1"
    assert first[3] != ""  # g bound present
    assert first[4] == ""  # f bounds blank for scheme g


def test_sweep_json_round_trips(pauli_instance):
    res = run_cli(
        "sweep", "--input", pauli_instance, "--scheme", "f", "--n", "2,4,8,16",
        "--out", "json",
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert len(doc["records"]) == 4
    rec = doc["records"][0]
    assert rec["scheme"] == "f" and rec["n"] == 2
    assert rec["bound_thm31"] is None
    assert rec["bound_special_i"] is not None  # sym is a special family
    assert doc["empirical_order"]["f"]


def test_sweep_plotdata_blocks(pauli_instance):
    res = run_cli(
        "sweep", "--input", pauli_instance, "--scheme", "g,f", "--n", "1:16:x2",
        "--out", "plotdata",
    )
    assert res.returncode == 0, res.stderr
    assert "# scheme g" in res.stdout and "# scheme f" in res.stdout
    # absent bounds print as nan so every row has the same width
    g_block = res.stdout.split("# scheme f")[0]
    data_rows = [l for l in g_block.strip().split("\n") if not l.startswith("#")]
    assert all(len(r.split()) == 7 for r in data_rows)
    assert "nan" in data_rows[0]


def test_sweep_plotdata_multi_scheme_files(tmp_path, pauli_instance):
    out = tmp_path / "curves.txt"
    res = run_cli(
        "sweep", "--input", pauli_instance, "--scheme", "g,f", "--n", "1:16:x2",
        "--out", "plotdata", "--output", str(out),
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == ""
    assert (tmp_path / "curves.g.txt").exists()
    assert (tmp_path / "curves.f.txt").exists()


def test_sweep_output_file_matches_stdout(tmp_path, pauli_instance):
    args = ("sweep", "--input", pauli_instance, "--scheme", "g", "--n", "1,2")
    direct = run_cli(*args)
    out = tmp_path / "table.csv"
    res = run_cli(*args, "--output", str(out))
    assert res.returncode == 0
    assert out.read_text(encoding="utf-8") == direct.stdout


def test_sweep_geometric_range_expansion(pauli_instance):
    res = run_cli("sweep", "--input", pauli_instance, "--scheme", "g", "--n", "3:50:x3")
    rows = [l for l in res.stdout.strip().split("\n")[1:] if not l.startswith("#")]
    assert [r.split(",")[1] for r in rows] == ["3", "9", "27"]


def test_sweep_scheme_h_needs_odd_count(pauli_instance):
    res = run_cli("sweep", "--input", pauli_instance, "--scheme", "h", "--n", "1,2")
    assert res.returncode == 3
    assert res.stdout == ""
    err_lines = res.stderr.strip().split("\n")
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error[input]: ")


def test_sweep_h_runs_on_odd_instance(spin_triple_instance):
    res = run_cli(
        "sweep", "--input", spin_triple_instance, "--scheme", "h", "--n", "1:8:x2"
    )
    assert res.returncode == 0, res.stderr
    rows = [l for l in res.stdout.strip().split("\n")[1:] if not l.startswith("#")]
    # no closed-form h bound: all bound cells blank
    assert all(r.split(",")[3:] == [""] * 5 for r in rows)


# ---------------------------------------------------------------------------
# failure modes and exit codes


def test_malformed_input_exits_3_with_one_line(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    res = run_cli("sweep", "--input", str(bad))
    assert res.returncode == 3
    err_lines = res.stderr.strip().split("\n")
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error[input]: parse:")


def test_missing_input_exits_3(tmp_path):
    res = run_cli("sweep", "--input", str(tmp_path / "nope.json"))
    assert res.returncode == 3
    assert res.stderr.startswith("error[input]:")


def test_wrong_payload_exits_3_with_category(tmp_path):
    bad = tmp_path / "mismatch.json"
    bad.write_text(
        json.dumps({"algebra": {"kind": "sym", "dim": 3},
                    "elements": [[0.0, 0.0, 0.0, 0.0]]}),
        encoding="utf-8",
    )
    res = run_cli("sweep", "--input", str(bad))
    assert res.returncode == 3
    assert res.stderr.startswith("error[input]: mismatch:")


def test_unknown_subcommand_exits_2():
    res = run_cli("frobnicate")
    assert res.returncode == 2
    assert len(res.stderr.strip().split("\n")) == 1
    assert res.stderr.startswith("error[usage]:")


def test_no_subcommand_exits_2():
    res = run_cli()
    assert res.returncode == 2
    assert res.stderr.startswith("error[usage]:")


def test_bad_n_range_exits_2(pauli_instance):
    for bad in ("0", "4,2", "1:8:y2", "x"):
        res = run_cli("sweep", "--input", pauli_instance, "--n", bad)
        assert res.returncode == 2, bad
        assert res.stderr.startswith("error[usage]:")


def test_bad_numeric_arguments_exit_2(pauli_instance):
    for argv in (
        ("plan", "--eps", "nan", "--norms", "1"),
        ("verify-axioms", "--algebra", "sym:2", "--trials", "0"),
        ("verify-axioms", "--algebra", "sym:2", "--trials", "5", "--tol", "nan"),
        ("jets", "--input", pauli_instance, "--tol", "nan"),
        ("bounds", "--norms", "nan"),
        ("bounds", "--norms", "1,inf"),
        ("plan", "--eps", "1e-3", "--norms", "nan"),
        ("plan", "--eps", "1e-3", "--norms", "inf"),
    ):
        res = run_cli(*argv)
        assert res.returncode == 2, argv
        assert res.stdout == "", argv
        err_lines = res.stderr.strip().split("\n")
        assert len(err_lines) == 1 and err_lines[0].startswith("error[usage]:"), argv


def test_overflowing_bounds_read_inf():
    for argv in (
        ("bounds", "--norms", "800", "--n", "1,2"),
        ("bounds", "--norms", "300", "--scheme", "f", "--n", "1,2"),
        ("bounds", "--norms", "1e103", "--n", "1,2"),
    ):
        res = run_cli(*argv)
        assert res.returncode == 0, (argv, res.stderr)
        assert res.stderr == ""
        assert "inf" in res.stdout.split("\n")[1].split(","), argv
    res = run_cli("bounds", "--norms", "800", "--n", "1,2", "--out", "json")
    assert res.returncode == 0, res.stderr

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    records = json.loads(res.stdout, parse_constant=reject)["records"]
    assert [r["bound_thm31"] for r in records] == ["inf", "inf"]
    assert records[0]["bound_thm33i"] is None
    res = run_cli("plan", "--norms", "800", "--eps", "1e-3")
    assert res.returncode == 5
    assert len(res.stderr.strip().split("\n")) == 1
    assert res.stderr.startswith("error[capacity]:")


def test_overflowing_instance_is_one_input_error(tmp_path):
    path = tmp_path / "overflow.json"
    path.write_text(
        json.dumps({"algebra": {"kind": "sym", "dim": 2},
                    "elements": [[800, 0, 0, 1], [0, 1, 1, 0]]}),
        encoding="utf-8",
    )
    for argv in (
        ("sweep", "--input", str(path)),
        ("plan", "--eps", "1e-3", "--mode", "measured", "--input", str(path)),
    ):
        res = run_cli(*argv)
        assert res.returncode == 3, argv
        assert res.stdout == "", argv
        err_lines = res.stderr.strip().split("\n")
        assert len(err_lines) == 1 and err_lines[0].startswith("error[input]:"), argv
        assert "RuntimeWarning" not in res.stderr, argv


def test_bounds_rejects_scheme_h():
    res = run_cli("bounds", "--norms", "1,1", "--scheme", "h")
    assert res.returncode == 2
    assert res.stderr.startswith("error[usage]:")


def test_plan_scheme_h_bound_mode_exits_2():
    res = run_cli("plan", "--scheme", "h", "--eps", "1e-3", "--norms", "1,1,1")
    assert res.returncode == 2
    assert "measured" in res.stderr


def test_plan_capacity_exit_code():
    res = run_cli("plan", "--scheme", "g", "--eps", "1e-30", "--norms", "2,2")
    assert res.returncode == 5
    assert res.stderr.startswith("error[capacity]:")


# ---------------------------------------------------------------------------
# verify-axioms


def test_verify_axioms_passes():
    res = run_cli("verify-axioms", "--algebra", "spin:6", "--trials", "100")
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("algebra spin:6 trials 100 seed 0\n")
    assert res.stdout.rstrip().endswith("result pass")


def test_verify_axioms_fail_exit_code():
    # absurdly tight tolerance turns roundoff into failures
    res = run_cli(
        "verify-axioms", "--algebra", "sym:4", "--trials", "50", "--tol", "1e-30"
    )
    assert res.returncode == 4
    assert "result FAIL" in res.stdout


def test_verify_axioms_seed_resolution():
    by_flag = run_cli("verify-axioms", "--algebra", "sym:3", "--trials", "20",
                      "--seed", "7")
    assert "seed 7" in by_flag.stdout
    by_env = run_cli("verify-axioms", "--algebra", "sym:3", "--trials", "20",
                     env_extra={"JBTROTTER_SEED": "7"})
    assert "seed 7" in by_env.stdout
    assert by_flag.stdout == by_env.stdout
    flag_wins = run_cli("verify-axioms", "--algebra", "sym:3", "--trials", "20",
                        "--seed", "3", env_extra={"JBTROTTER_SEED": "7"})
    assert "seed 3" in flag_wins.stdout


def test_verify_axioms_bad_env_seed():
    res = run_cli("verify-axioms", "--algebra", "sym:3",
                  env_extra={"JBTROTTER_SEED": "pi"})
    assert res.returncode == 2
    assert res.stderr.startswith("error[usage]:")


# ---------------------------------------------------------------------------
# plan and bounds happy paths


def test_plan_bound_spot_value():
    res = run_cli("plan", "--scheme", "g", "--eps", "1e-4", "--norms", "1")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "scheme g mode bound eps 0.0001"
    assert lines[1] == "n_min 96"
    assert lines[2].startswith("bound(96) ")
    assert lines[3].startswith("bound(95) ")
    # bound(1) = e / 3 is below 1, so one step suffices and there is no n - 1.
    res = run_cli("plan", "--scheme", "g", "--eps", "1", "--norms", "1")
    assert res.returncode == 0, res.stderr
    assert res.stdout.split("\n")[1:] == ["n_min 1", f"bound(1) {math.exp(1.0) / 3.0!r}", "bound(0) n/a", ""]


def test_plan_measured_mode(pauli_instance):
    res = run_cli(
        "plan", "--scheme", "g", "--eps", "1e-3", "--mode", "measured",
        "--input", pauli_instance,
    )
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "scheme g mode measured eps 0.001"
    n_min = int(lines[1].split()[1])
    assert n_min >= 1
    err_at = float(lines[2].split()[1])
    assert err_at <= 1e-3
    res = run_cli(
        "plan", "--scheme", "g", "--eps", "10", "--mode", "measured",
        "--input", pauli_instance,
    )
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().split("\n")
    assert lines[1] == "n_min 1"
    assert float(lines[2].split()[1]) <= 10
    assert lines[3] == "error(0) n/a"


def test_plan_from_instance_marks_special(pauli_instance):
    res = run_cli("plan", "--scheme", "f", "--eps", "1e-4", "--input", pauli_instance)
    assert res.returncode == 0, res.stderr
    # sym input activates the sharpened bounds, matching --norms + --algebra
    by_flags = run_cli("plan", "--scheme", "f", "--eps", "1e-4",
                       "--norms", "1,1", "--algebra", "sym:2")
    assert res.stdout.split("\n")[1] == by_flags.stdout.split("\n")[1]


def test_bounds_table_special_columns():
    plain = run_cli("bounds", "--norms", "0.5,0.5", "--scheme", "f", "--n", "4")
    special = run_cli("bounds", "--norms", "0.5,0.5", "--scheme", "f", "--n", "4",
                      "--algebra", "herm:4")
    assert plain.returncode == 0 and special.returncode == 0
    row_plain = plain.stdout.strip().split("\n")[1].split(",")
    row_special = special.stdout.strip().split("\n")[1].split(",")
    assert row_plain[-1] == "" and row_plain[-2] == ""
    assert row_special[-1] != "" and row_special[-2] != ""


def test_bounds_header_has_no_error_column():
    res = run_cli("bounds", "--norms", "1", "--scheme", "g", "--n", "2")
    header = res.stdout.split("\n")[0]
    assert header == CSV_HEADER.replace("error,", "").replace(",error", "")
    assert "error" not in header


# ---------------------------------------------------------------------------
# jets subcommand


def test_jets_report(pauli_instance):
    res = run_cli("jets", "--input", pauli_instance, "--degree", "3")
    assert res.returncode == 0, res.stderr
    assert "instance pauli-pair elements 2 degree 3" in res.stdout
    assert "product-step" in res.stdout
    assert "inverse-sandwich-defect" in res.stdout
    assert "degree-3 magnitude inverse-sandwich-defect" in res.stdout
    assert res.stdout.rstrip().endswith("result pass")


def test_jets_needs_two_elements(tmp_path):
    doc = {"algebra": {"kind": "sym", "dim": 2}, "elements": [[0.0, 1.0, 1.0, 0.0]]}
    path = tmp_path / "single.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    res = run_cli("jets", "--input", str(path))
    assert res.returncode == 3


def test_version_flag():
    res = run_cli("--version")
    assert res.returncode == 0
    assert res.stdout.strip()
