"""CLI behavior through ``cli.main``, run in process by ``cli_harness.run_cli``.

Only the tests about a fresh process start one, with
``cli_harness.run_in_fresh_process``.
"""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jbtrotter import __version__, cli, trotter
from jbtrotter.algebras import AlgebraDescriptor, jb_norm, random_element, unit
from jbtrotter.instances import ProblemInstance, load_instance, save_instance
from jbtrotter.jets import Jet
from cli_harness import (
    CONTRACT_FILES,
    KIND_OF_CODE,
    NEAR_UNIT_ALBERT,
    OVERFLOW_SUM_HERM,
    OVERFLOW_SYM,
    WIDE_SPIN,
    contract_bytes,
    keeps_the_contract,
    run_cli,
    run_in_fresh_process,
    spectrum_past_the_float_range,
)
from conftest import calls

CSV_HEADER = (
    "scheme,n,error,bound_thm31,bound_thm33i,bound_thm33ii,"
    "bound_special_i,bound_special_ii"
)

# The files of contract_dir, by name: CONTRACT_FILES, the harness documents
# other tests share, and the documents only FAILURES rows read.
CLI_FILES = {
    **CONTRACT_FILES,
    "wide-spin.json": WIDE_SPIN,
    "overflow-sym.json": OVERFLOW_SYM,
    "near-unit-albert.json": NEAR_UNIT_ALBERT,
    "overflow-sum-herm.json": OVERFLOW_SUM_HERM,
    # sym:3 takes 9 payload entries, not 4.
    "mismatch.json": {"algebra": {"kind": "sym", "dim": 3}, "elements": [[0.0, 0.0, 0.0, 0.0]]},
    "sym-100000.json": {"algebra": {"kind": "sym", "dim": 100000}, "elements": [[1.0]]},
    # The jet scale of a 1e110 norm leaves the float range, though no exp is
    # taken (its bounds read inf instead).
    "huge-spin.json": {"algebra": {"kind": "spin", "dim": 1},
                       "elements": [{"s": 1e110, "v": [1]}, {"s": 0, "v": [1]}]},
    # Norms and jet scales of 1e90 entries are finite; the degree-4 jet
    # coefficients are not.  A numpy warning would raise out of run_cli, not
    # exit 3, so only the report's own check of the reference jet stops them.
    "jet-overflow-sym.json": {"algebra": {"kind": "sym", "dim": 2},
                              "elements": [[1e90, 1e90, 1e90, 1e90], [1e90, 0, 0, -1e90]]},
    "jet-overflow-spin.json": {"algebra": {"kind": "spin", "dim": 2}, "elements": [
        {"s": 1e90, "v": [1e90, 0]}, {"s": 0, "v": [0, 1e90]}]},
}


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    for name, doc in CLI_FILES.items():
        (root / name).write_bytes(contract_bytes(doc))
    return root


def _in_dir(root, argv, options=("--input", "--output")):
    """argv with the values of ``options``, file names, made paths in root."""
    return [str(root / value) if option in options else value
            for option, value in zip([None, *argv[:-1]], argv)]


@pytest.fixture(scope="module")
def pauli_instance(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "pauli.json"
    path.write_bytes(contract_bytes({**CONTRACT_FILES["pair.json"], "label": "pauli-pair"}))
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


def test_demo_step_one_is_the_verify_axioms_report():
    code, demo, err = run_cli("demo")
    assert (code, err) == (0, "")
    lines = demo.split("\n")
    start = next(i for i, text in enumerate(lines) if text.startswith("[1] ")) + 1
    step = "\n".join(lines[start:lines.index("", start)]) + "\n"
    code, report, err = run_cli("verify-axioms", "--algebra", "sym:2", "--trials", "200",
                                "--seed", "0")
    assert (code, err) == (0, "")
    assert step == report


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
    # three step counts are too few to fit an order, whatever their errors
    assert lines[-1] == "# empirical_order g n/a"
    first = lines[1].split(",")
    assert first[0] == "g" and first[1] == "1"
    assert first[3] != ""  # g bound present
    assert first[4] == ""  # f bounds blank for scheme g
    res = run_cli("sweep", "--input", pauli_instance, "--n", "16")
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip().split("\n")[-1] == "# empirical_order g n/a"


def test_commuting_pair_has_no_order_to_fit(tmp_path):
    # sx and 2 sx commute, so every error is roundoff at the floor.
    path = tmp_path / "commuting.json"
    doc = {"algebra": {"kind": "sym", "dim": 2},
           "elements": [[0.0, 1.0, 1.0, 0.0], [0.0, 2.0, 2.0, 0.0]]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    res = run_cli("sweep", "--input", str(path), "--n", "1:16:x2")
    assert res.returncode == 0
    assert res.stdout.split("\n")[-2] == "# empirical_order g commuting-or-floor"


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


def test_table_cells_follow_the_value_type():
    # The formatters decide by type, not by column name: an int column
    # other than n prints as an int, a str column other than scheme as
    # itself, a float by its shortest repr, None as the missing marker.
    columns = ("scheme", "n", "count", "route", "error", "bound")
    rows = [
        {"scheme": "g", "n": 2, "count": 3, "route": "closed-form", "error": 0.5,
         "bound": None},
        {"scheme": "g", "n": 4, "count": 12, "route": "series", "error": math.inf,
         "bound": 0.25},
    ]
    orders = {"g": "2.0"}
    assert cli._records_csv(rows, columns, orders) == (
        "scheme,n,count,route,error,bound\n"
        "g,2,3,closed-form,0.5,\n"
        "g,4,12,series,inf,0.25\n"
        "# empirical_order g 2.0\n"
    )
    doc = json.loads(cli._records_json(rows, columns, orders))
    assert doc["records"] == [
        {"scheme": "g", "n": 2, "count": 3, "route": "closed-form", "error": 0.5,
         "bound": None},
        {"scheme": "g", "n": 4, "count": 12, "route": "series", "error": "inf",
         "bound": 0.25},
    ]
    assert cli._plotdata_blocks(rows, columns, orders) == (
        "# scheme g\n"
        "# empirical_order 2.0\n"
        "# n count route error bound\n"
        "2 3 closed-form 0.5 nan\n"
        "4 12 series inf 0.25\n"
    )


def test_multi_scheme_plotdata_output_is_one_file(tmp_path, monkeypatch, pauli_instance):
    argv = ("sweep", "--input", pauli_instance, "--scheme", "g,f", "--n", "1:16:x2",
            "--out", "plotdata")
    direct = run_cli(*argv)
    monkeypatch.chdir(tmp_path)
    res = run_cli(*argv, "--output", "curves.txt")
    assert direct.returncode == res.returncode == 0, res.stderr
    assert res.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["curves.txt"]
    assert (tmp_path / "curves.txt").read_text(encoding="utf-8") == direct.stdout
    assert direct.stdout.count("# scheme ") == 2


@pytest.mark.parametrize(
    "args",
    [
        ("verify-axioms", "--algebra", "sym:2", "--trials", "3"),
        ("sweep", "--input", "PAULI", "--scheme", "g", "--n", "1,2"),
        ("bounds", "--norms", "1,1", "--n", "1,2"),
        ("plan", "--eps", "1e-3", "--input", "PAULI"),
        ("jets", "--input", "PAULI", "--degree", "3"),
        ("demo",),
        pytest.param(("sweep", "--input", "PAULI", "--scheme", "g,f", "--n", "1,2",
                      "--out", "plotdata"), id="sweep-plotdata"),
        pytest.param(("bounds", "--norms", "1,1", "--n", "1,2", "--out", "json"),
                     id="bounds-json"),
    ],
    ids=lambda args: args[0],
)
def test_output_file_matches_stdout(tmp_path, pauli_instance, args):
    args = [pauli_instance if a == "PAULI" else a for a in args]
    direct = run_cli(*args)
    out = tmp_path / "output.txt"
    res = run_cli(*args, "--output", str(out))
    assert direct.returncode == res.returncode == 0, res.stderr
    assert direct.stdout and res.stdout == ""
    assert out.read_text(encoding="utf-8") == direct.stdout


@pytest.mark.parametrize(
    "argv, output, code",
    [
        # Exits 2, 3 and 5 raised after parsing, each once a command has begun.
        (("bounds", "--scheme", "h", "--norms", "1"), "out.txt", 2),
        (("plan", "--mode", "measured", "--norms", "1", "--eps", "1e-3"), "out.txt", 2),
        (("sweep", "--input", "missing.json"), "out.txt", 3),
        (("sweep", "--input", "overflow-sum-herm.json", "--scheme", "g,f", "--n", "1,2",
          "--out", "plotdata"), "sweep.dat", 3),
        (("jets", "--input", "pair.json"), "sweep.f.dat", 3),
        (("plan", "--scheme", "g", "--eps", "1e-30", "--norms", "2,2"), "out.txt", 5),
        (("verify-axioms", "--algebra", "sym:4", "--trials", "50", "--tol", "1e-30"),
         "out.txt", 4),
        # A directory named as one scheme's block file (sweep.f.dat) is no
        # obstacle: multi-scheme plotdata writes the named file alone.
        (("sweep", "--input", "pair.json", "--scheme", "g,f", "--n", "1,2,4",
          "--out", "plotdata"), "sweep.dat", 0),
    ],
    ids=["usage-bounds", "usage-plan", "input-missing", "input-sum", "input-output-is-a-dir",
         "capacity-plan", "verify-fail", "plotdata-beside-a-dir"],
)
def test_only_a_report_is_written_to_output(argv, output, code, tmp_path, monkeypatch,
                                            contract_dir):
    # A failing command writes no file; exit 0 and 4 write one, the named
    # one, holding what stdout shows without --output.
    argv = _in_dir(contract_dir, argv, ("--input",))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sweep.f.dat").mkdir()
    before = {p.name for p in tmp_path.iterdir()}
    direct = run_cli(*argv)
    res = run_cli(*argv, "--output", output)
    assert res.returncode == code
    written = sorted({p.name for p in tmp_path.iterdir()} - before)
    assert res.stdout == ""
    if code in KIND_OF_CODE:
        assert written == []
        assert keeps_the_contract(code, res.stderr), res.stderr
    else:
        assert (direct.returncode, res.stderr, written) == (code, "", [output])
        assert (tmp_path / output).read_text(encoding="utf-8") == direct.stdout
    assert (tmp_path / "sweep.f.dat").is_dir()


def test_sweep_geometric_range_expansion(pauli_instance):
    # A range whose stop equals its start is the one step count.
    for text, ns in (("3:50:x3", ["3", "9", "27"]), ("1:1:x2", ["1"])):
        res = run_cli("sweep", "--input", pauli_instance, "--scheme", "g", "--n", text)
        assert res.returncode == 0, res.stderr
        rows = [l for l in res.stdout.strip().split("\n")[1:] if not l.startswith("#")]
        assert [r.split(",")[1] for r in rows] == ns, text


def test_sweep_h_runs_on_odd_instance(spin_triple_instance):
    res = run_cli(
        "sweep", "--input", spin_triple_instance, "--scheme", "h", "--n", "1:8:x2"
    )
    assert res.returncode == 0, res.stderr
    rows = [l for l in res.stdout.strip().split("\n")[1:] if not l.startswith("#")]
    # no closed-form h bound: all bound cells blank
    assert all(r.split(",")[3:] == [""] * 5 for r in rows)


# ---------------------------------------------------------------------------
# one measurement per sweep command


def _family_instance(directory, descriptor, m):
    path = directory / f"{descriptor.kind}-m{m}.json"
    elems = tuple(random_element(descriptor, 700 + 13 * j, 0.7) for j in range(m))
    save_instance(ProblemInstance(descriptor, elems, f"{descriptor}-m{m}"), path)
    return str(path)


def test_multi_scheme_sweep_measures_once(descriptor, tmp_path):
    # One exp of the sum, m + 1 = 4 eigh calls on sym/herm and one
    # exponential per (element, divisor) serve all three schemes: exp of the
    # sum, exp(A_j / n) for 3 elements and 9 step counts, and f's last half
    # steps exp(A_2 / 512) and exp(A_3 / 512) make 30.  A sweep per scheme
    # would make 3 exp of the sum, 12 eigh and 1 + 3 * 27 = 82 exponentials.
    path = _family_instance(tmp_path, descriptor, 3)
    with calls(trotter.exp_sum, np.linalg.eigh, trotter.exp_spectral) as n:
        code, _, err = run_cli("sweep", "--input", path, "--scheme", "g,f,h", "--n", "1:256:x2")
    assert code == 0, err
    assert (n[trotter.exp_sum], n[trotter.exp_spectral]) == (1, 30)
    assert n[np.linalg.eigh] == (4 if descriptor.is_special else 0)
    # One scheme never asks for one divisor twice: 1 + m * len(ns).
    for scheme in "gfh":
        with calls(trotter.exp_spectral) as n:
            code, _, err = run_cli("sweep", "--input", path, "--scheme", scheme,
                                   "--n", "1:256:x2")
        assert code == 0, err
        assert n[trotter.exp_spectral] == 1 + 3 * 9, scheme


def test_multi_scheme_sweep_rows_are_each_schemes_sweep(descriptor, tmp_path):
    # Doubling counts carry f's half-step factor over to the next n; in the
    # second list 3 -> 6 -> 12 carry it and 1 -> 3 and 12 -> 13 drop it.
    path = _family_instance(tmp_path, descriptor, 3)
    elems = load_instance(path).elements
    for ns in ([1, 2, 4, 8, 16], [1, 3, 6, 12, 13]):
        code, out, err = run_cli("sweep", "--input", path, "--scheme", "g,f,h",
                                 "--n", ",".join(map(str, ns)), "--out", "json")
        assert code == 0, err
        rows = json.loads(out)["records"]
        want = [r for s in "gfh" for r in trotter.sweep(s, elems, ns)]
        assert len(rows) == len(want)
        for row, rec in zip(rows, want):
            for column in cli.SWEEP_COLUMNS:
                assert repr(row[column]) == repr(getattr(rec, column)), (rec.scheme, rec.n, column)


# The second pair's exp of the sum overflows; the count rule is still the
# error reported.
@pytest.mark.parametrize("name", ["pair.json", "overflow-sum.json"])
def test_h_count_is_checked_before_any_exponential(name, contract_dir):
    path = contract_dir / name
    with calls(trotter.exp_sum, trotter.exp_spectral) as n:
        code, out, err = run_cli("sweep", "--input", str(path), "--scheme", "g,f,h",
                                 "--n", "1,2,4")
    assert (code, out) == (3, "")
    assert err == "error[input]: scheme h needs an odd element count >= 3, got 2\n"
    assert n[trotter.exp_sum] == n[trotter.exp_spectral] == 0


def test_bounds_and_sweep_print_the_same_bound_bits(descriptor, tmp_path):
    # Both take the norms with jb_norm: bounds on the loaded elements, sweep
    # on its private copies of them.
    path = _family_instance(tmp_path, descriptor, 2)
    tables = []
    for command in ("bounds", "sweep"):
        code, out, err = run_cli(command, "--input", path, "--scheme", "g,f",
                                 "--n", "1:1024:x4")
        assert code == 0, err
        lines = [line for line in out.split("\n") if line and not line.startswith("#")]
        header = lines[0].split(",")
        tables.append([{c: v for c, v in zip(header, line.split(",")) if c.startswith("bound")}
                       for line in lines[1:]])
    bounds, swept = tables
    assert len(bounds) == 2 * 6
    assert bounds == swept
    assert all(any(row.values()) for row in bounds)


# ---------------------------------------------------------------------------
# failure modes and exit codes


# Every failing command line the CLI tests pin, with its exit code and the
# start of its one stderr line.  Files are named by basename in contract_dir.
# A message of cli.py or the library is pinned in full, one that names a
# file up to the file, and one of argparse's own (an invalid choice, a
# missing argument) only up to its kind: its wording differs across Python
# versions.
WITH_INPUT = "cannot be combined with --input: the instance fixes the norms and the algebra\n"
NO_BOUND = "error[usage]: scheme 'h' has no closed-form bound; use sweep or plan --mode measured\n"
NOT_FINITE = "error[usage]: argument --norms: needs one or more finite nonnegative numbers\n"
NEED_NORMS = "error[usage]: need --norms or --input to fix element norms\n"
PAST_THE_FLOAT_RANGE = ("error[input]: the jet of exp of the sum of the elements or its "
                        "tolerance scale leaves the float range\n")
FAILURES = [
    (("frobnicate",), 2, "error[usage]: "),
    ((), 2, "error[usage]: "),
    (("sweep", "--input", "pair.json", "--n", "0"), 2,
     "error[usage]: argument --n: step count must be >= 1, got 0\n"),
    (("sweep", "--input", "pair.json", "--n", "4,2"), 2,
     "error[usage]: argument --n: step counts must be strictly increasing\n"),
    (("sweep", "--input", "pair.json", "--n", "2,2"), 2,
     "error[usage]: argument --n: step counts must be strictly increasing\n"),
    (("sweep", "--input", "pair.json", "--n", "1:8:y2"), 2,
     "error[usage]: argument --n: range '1:8:y2' must look like start:stop:xFACTOR\n"),
    (("sweep", "--input", "pair.json", "--n", "x"), 2,
     "error[usage]: argument --n: step count 'x' is not an integer\n"),
    (("sweep", "--n", "8:4:x2", "--input", "pair.json"), 2,
     "error[usage]: argument --n: range stop must be >= start\n"),
    (("sweep", "--n", ",", "--input", "pair.json"), 2,
     "error[usage]: argument --n: empty item in the step count list ','\n"),
    (("bounds", "--norms", "1", "--n", "2,"), 2,
     "error[usage]: argument --n: empty item in the step count list '2,'\n"),
    (("plan", "--eps", "nan", "--norms", "1"), 2,
     "error[usage]: argument --eps: must be finite and positive, got nan\n"),
    (("plan", "--eps", "inf", "--norms", "1"), 2,
     "error[usage]: argument --eps: must be finite and positive, got inf\n"),
    (("plan", "--eps", "abc", "--norms", "1"), 2,
     "error[usage]: argument --eps: 'abc' is not a number\n"),
    (("verify-axioms", "--algebra", "sym:2", "--tol", "abc"), 2,
     "error[usage]: argument --tol: 'abc' is not a number\n"),
    (("verify-axioms", "--algebra", "sym:2", "--trials", "5", "--tol", "nan"), 2,
     "error[usage]: argument --tol: must be finite and positive, got nan\n"),
    (("verify-axioms", "--algebra", "sym:2", "--trials", "5", "--tol", "inf"), 2,
     "error[usage]: argument --tol: must be finite and positive, got inf\n"),
    (("jets", "--input", "pair.json", "--tol", "nan"), 2,
     "error[usage]: argument --tol: must be finite and positive, got nan\n"),
    (("verify-axioms", "--algebra", "sym:2", "--trials", "0"), 2,
     "error[usage]: argument --trials: trial count must be >= 1, got 0\n"),
    (("verify-axioms", "--algebra", "sym:2", "--trials", "5", "--seed", "-1"), 2,
     "error[usage]: argument --seed: seed must be >= 0, got -1\n"),
    (("verify-axioms", "--algebra", "x:2"), 2,
     "error[usage]: argument --algebra: unknown algebra kind 'x'\n"),
    (("bounds", "--norms", "nan"), 2, NOT_FINITE),
    (("bounds", "--norms", "1,inf"), 2, NOT_FINITE),
    (("plan", "--eps", "1e-3", "--norms", "nan"), 2, NOT_FINITE),
    (("plan", "--eps", "1e-3", "--norms", "inf"), 2, NOT_FINITE),
    (("bounds", "--norms", "1,,2"), 2,
     "error[usage]: argument --norms: empty item in the norm list '1,,2'\n"),
    (("bounds", "--norms", "1, ,2"), 2,
     "error[usage]: argument --norms: empty item in the norm list '1, ,2'\n"),
    (("bounds", "--norms", "1,a"), 2,
     "error[usage]: argument --norms: not comma-separated numbers: '1,a'\n"),
    (("sweep", "--scheme", "x", "--input", "pair.json"), 2,
     "error[usage]: argument --scheme: unknown scheme 'x' (expected g, f or h)\n"),
    (("plan", "--scheme", "q", "--eps", "1e-3", "--norms", "1"), 2,
     "error[usage]: argument --scheme: unknown scheme 'q' (expected g, f or h)\n"),
    (("sweep", "--input", "pair.json", "--scheme", ","), 2,
     "error[usage]: argument --scheme: empty item in the scheme list ','\n"),
    (("bounds", "--norms", "1", "--scheme", "g,,f"), 2,
     "error[usage]: argument --scheme: empty item in the scheme list 'g,,f'\n"),
    (("sweep", "--scheme", "g,g", "--n", "1,2", "--input", "pair.json"), 2,
     "error[usage]: argument --scheme: a scheme is repeated in 'g,g'\n"),
    (("sweep", "--scheme", "g,f,g", "--n", "1,2", "--input", "pair.json"), 2,
     "error[usage]: argument --scheme: a scheme is repeated in 'g,f,g'\n"),
    (("bounds", "--norms", "1,1", "--scheme", "f,f"), 2,
     "error[usage]: argument --scheme: a scheme is repeated in 'f,f'\n"),
    (("plan", "--scheme", "g,f", "--eps", "1e-3", "--norms", "1"), 2,
     "error[usage]: argument --scheme: plan takes one scheme, got 'g,f'\n"),
    (("plan", "--scheme", "g,", "--eps", "1e-3", "--norms", "1"), 2,
     "error[usage]: argument --scheme: empty item in the scheme list 'g,'\n"),
    # --input fixes the norms and the algebra; a second source is refused,
    # not silently dropped.
    (("bounds", "--input", "pair.json", "--norms", "5"), 2, f"error[usage]: --norms {WITH_INPUT}"),
    (("bounds", "--input", "pair.json", "--algebra", "sym:2"), 2,
     f"error[usage]: --algebra {WITH_INPUT}"),
    (("plan", "--eps", "1e-3", "--input", "pair.json", "--norms", "1,1"), 2,
     f"error[usage]: --norms {WITH_INPUT}"),
    (("plan", "--eps", "1e-3", "--mode", "measured", "--input", "pair.json", "--algebra", "sym:2"),
     2, f"error[usage]: --algebra {WITH_INPUT}"),
    (("bounds",), 2, NEED_NORMS),
    (("plan", "--eps", "1e-3"), 2, NEED_NORMS),
    (("plan", "--mode", "measured", "--norms", "1", "--eps", "1e-3"), 2,
     "error[usage]: measured mode needs --input\n"),
    # As in bounds, plan refuses the scheme before an --input file is read.
    (("bounds", "--norms", "1,1", "--scheme", "h"), 2, NO_BOUND),
    (("plan", "--scheme", "h", "--eps", "1e-3", "--norms", "1,1,1"), 2, NO_BOUND),
    (("plan", "--scheme", "h", "--eps", "1e-3", "--input", "missing.json"), 2, NO_BOUND),
    (("sweep", "--input", "malformed.json"), 3, "error[input]: parse: invalid JSON in "),
    (("sweep", "--input", "missing.json"), 3, "error[input]: parse: cannot read "),
    (("sweep", "--input", "mismatch.json"), 3,
     "error[input]: mismatch: elements[0] must be a list of 9 entries\n"),
    *[((*command, "--input", name), 3, start)
      for name, start in (("deep.json", "error[input]: parse: cannot parse "),
                          ("utf16.json", "error[input]: parse: "))
      for command in (("sweep",), ("jets",), ("bounds",), ("plan", "--eps", "1e-3"))],
    (("sweep", "--input", "pair.json", "--scheme", "h", "--n", "1,2"), 3,
     "error[input]: scheme h needs an odd element count >= 3, got 2\n"),
    (("jets", "--input", "single.json"), 3, "error[input]: need 2 or more elements, got 1\n"),
    (("jets", "--input", "huge-sym.json"), 3, PAST_THE_FLOAT_RANGE),
    (("jets", "--input", "huge-spin.json"), 3, PAST_THE_FLOAT_RANGE),
    (("jets", "--input", "huge-albert.json"), 3, PAST_THE_FLOAT_RANGE),
    (("jets", "--input", "jet-overflow-sym.json", "--degree", "4"), 3, PAST_THE_FLOAT_RANGE),
    (("jets", "--input", "jet-overflow-spin.json", "--degree", "4"), 3, PAST_THE_FLOAT_RANGE),
    (("plan", "--scheme", "g", "--eps", "1e-30", "--norms", "2,2"), 5,
     "error[capacity]: target eps=1e-30 needs more than 1073741824 steps\n"),
    # Past a cap on the payload, the trial count, the jet degree or the step counts.
    (("verify-axioms", "--algebra", "sym:100000"), 5,
     "error[capacity]: sym:100000 needs 10000000000 payload entries, more than 1048576\n"),
    (("verify-axioms", "--algebra", "herm:1025", "--trials", "1"), 5,
     "error[capacity]: herm:1025 needs 1050625 payload entries, more than 1048576\n"),
    (("bounds", "--norms", "1,1", "--algebra", "spin:2000000"), 5,
     "error[capacity]: spin:2000000 needs 2000001 payload entries, more than 1048576\n"),
    (("sweep", "--input", "sym-100000.json"), 5,
     "error[capacity]: sym:100000 needs 10000000000 payload entries, more than 1048576\n"),
    (("verify-axioms", "--algebra", "sym:2", "--trials", "1000001"), 5,
     "error[capacity]: trial count 1000001 is above the supported maximum 1000000\n"),
    (("verify-axioms", "--algebra", "sym:2", "--trials", "1000000000000"), 5,
     "error[capacity]: trial count 1000000000000 is above the supported maximum 1000000\n"),
    (("jets", "--input", "pair.json", "--degree", "33"), 5,
     "error[capacity]: degree 33 is above the supported maximum 32\n"),
    (("sweep", "--input", "pair.json", "--n", "1073741825"), 5,
     "error[capacity]: step count 1073741825 is above the supported maximum 1073741824\n"),
    (("sweep", "--input", "pair.json", "--n", "1:99999999999999999999999:x2"), 5,
     "error[capacity]: step count 75557863725914323419136 is above the supported maximum "
     "1073741824\n"),
]


@pytest.mark.parametrize("argv, code, start", FAILURES,
                         ids=[" ".join(argv) or "no-arguments" for argv, _, _ in FAILURES])
def test_failures_report_their_kind(contract_dir, monkeypatch, argv, code, start):
    # No failing command line reaches the axiom suite: each is refused
    # before any work, instead of allocating.
    def unreachable(*args, **kwargs):
        raise AssertionError("a failing command line reached the axiom suite")

    monkeypatch.setattr(cli, "run_axiom_suite", unreachable)
    got, out, err = run_cli(*_in_dir(contract_dir, argv))
    assert (got, out) == (code, "") and keeps_the_contract(code, err) \
        and err.startswith(start), err


@pytest.mark.parametrize("spaced, plain", [
    (("bounds", "--norms", " 1, 2", "--scheme", "g, f", "--n", "1, 2"),
     ("bounds", "--norms", "1,2", "--scheme", "g,f", "--n", "1,2")),
    (("plan", "--scheme", " f ", "--eps", "1e-3", "--norms", "1, 1"),
     ("plan", "--scheme", "f", "--eps", "1e-3", "--norms", "1,1")),
], ids=["bounds", "plan"])
def test_comma_list_items_drop_their_spaces(spaced, plain):
    # Every comma list strips its items alike: a spaced scheme is accepted
    # as a spaced number is.
    got = run_cli(*spaced)
    assert got == run_cli(*plain) and got.returncode == 0, got


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
    assert res.returncode == 5 and keeps_the_contract(5, res.stderr), res.stderr


def test_overflowing_instance_is_one_input_error(tmp_path):
    docs = (
        # exp of the sum overflows
        CONTRACT_FILES["overflow-sum.json"],
        # the sums are finite, exp of the single elements overflows
        {"algebra": {"kind": "sym", "dim": 2}, "elements": [[800, 0, 0, 1], [-800, 1, 1, 0]]},
        CONTRACT_FILES["overflow-single.json"],
        # exp of the sum and the g product are finite, the error is not
        {"algebra": {"kind": "spin", "dim": 2},
         "elements": [{"s": 0, "v": [355.29, 0]}, {"s": 0, "v": [0, 355.29]}]},
    )
    sweep = ("sweep", "--n", "1:16:x2", "--input")
    plan = ("plan", "--eps", "1e-3", "--mode", "measured", "--input")
    for k, doc in enumerate(docs):
        path = tmp_path / f"overflow{k}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        # Only exp of the sum past the float range leaves nothing to measure.
        # Elsewhere an evaluation past it reads inf, and doc 3's exp of the
        # sum, about 1e218, puts its roundoff floor far above eps.
        want_code = {sweep: 3 if k == 0 else 0, plan: {0: 3, 3: 5}.get(k, 0)}
        for argv, code in want_code.items():
            res = run_cli(*argv, str(path))
            assert res.returncode == code, argv
            if code == 0:
                assert res.stderr == "", argv
                assert "nan" not in res.stdout, argv
                if argv == sweep:
                    assert res.stdout.split("\n")[1].split(",")[:3] == ["g", "1", "inf"], k
                continue
            assert res.stdout == "" and keeps_the_contract(code, res.stderr), argv


def _plan_values(out: str):
    """n_min, error(n_min) and error(n_min - 1) of a measured plan report."""
    lines = out.split("\n")
    n_min = int(lines[1].split()[1])
    return n_min, float(lines[2].split()[1]), float(lines[3].split()[1])


@pytest.mark.parametrize("name, eps, want", [
    ("overflow-single.json", "1e-1", 2),
    ("overflow-sym.json", "1e-3", 18761),
])
def test_measured_plan_steps_past_overflowing_factors(name, eps, want, contract_dir):
    # exp of the sum is finite, exp of the single elements at n = 1 is not:
    # error(1) reads inf and the search doubles on past it.
    path = contract_dir / name
    code, out, err = run_cli("plan", "--input", str(path), "--mode", "measured", "--eps", eps)
    assert (code, err) == (0, "")
    n_min, value, prev = _plan_values(out)
    assert n_min == want
    assert value <= float(eps)
    assert math.isinf(prev) or float(eps) < prev


def test_overflowing_factors_read_inf_on_every_family(descriptor, tmp_path):
    # A finite sum whose single elements, scaled by 800, overflow exp at
    # n = 1: a sweep reads inf exactly where the scheme's product leaves
    # the float range, a sweep of g and f gives the rows of one sweep each,
    # and the measured plan is minimal.  No nan, no stderr, no warning.
    elems = [unit(descriptor) * 800.0,
             unit(descriptor) * -800.0 + random_element(descriptor, 5, 1.0)]
    path = tmp_path / "factors.json"
    save_instance(ProblemInstance(descriptor, tuple(elems)), path)
    ns = "1:256:x2"
    runs = {s: run_cli("sweep", "--input", str(path), "--scheme", s, "--n", ns, "--out", "json")
            for s in ("g,f", "g", "f")}
    plan = run_cli("plan", "--input", str(path), "--mode", "measured", "--eps", "1e-3")
    for code, out, err in (*runs.values(), plan):
        assert (code, err) == (0, "")
        assert "nan" not in out
    records = json.loads(runs["g,f"][1])["records"]
    assert records == (json.loads(runs["g"][1])["records"]
                       + json.loads(runs["f"][1])["records"])
    approx = {"g": trotter.approx_g, "f": trotter.approx_f}
    with np.errstate(over="ignore", invalid="ignore"):
        for rec in records:
            product = approx[rec["scheme"]](elems, rec["n"])
            assert (rec["error"] == "inf") == (not np.isfinite(product.data).all()), rec
    assert any(rec["error"] == "inf" for rec in records)
    _, value, prev = _plan_values(plan[1])
    assert value <= 1e-3 and (math.isinf(prev) or 1e-3 < prev)


def test_spectrum_past_the_float_range_is_read_alike_on_every_family(descriptor, tmp_path):
    # Finite entries, but the first element's spectrum leaves the float
    # range: its norm, and so every bound, is inf, while sweep and jets
    # need exponentials that overflow.  No warning may reach stderr.
    path = tmp_path / "float-range.json"
    elems = (spectrum_past_the_float_range(descriptor), random_element(descriptor, 1, 0.5))
    save_instance(ProblemInstance(descriptor, elems), path)
    code, out, err = run_cli("bounds", "--input", str(path), "--n", "1,2")
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.split("\n")[1:-1]]
    assert len(rows) == 2 and all("inf" in row for row in rows)
    for argv, code in ((("plan", "--eps", "1e-3"), 5), (("sweep",), 3), (("jets",), 3)):
        got, out, err = run_cli(*argv, "--input", str(path))
        assert (got, out) == (code, "") and keeps_the_contract(code, err), argv


def test_wide_spin_spectrum_sweeps(contract_dir):
    # exp(A_1) is about 1.9e260, but its e^s cosh r form overflowed.
    path = contract_dir / "wide-spin.json"
    code, out, err = run_cli("sweep", "--input", str(path), "--scheme", "g,f",
                             "--n", "1:16:x2", "--out", "json")
    assert (code, err) == (0, "")
    errors = [r["error"] for r in json.loads(out)["records"]]
    assert len(errors) == 10 and all(isinstance(e, float) and math.isfinite(e) for e in errors)


def test_bounds_and_plan_read_a_1e200_norm_alike(contract_dir, tmp_path):
    # Norm-only commands see a norm of 1e200 in every family, also where
    # spin's v.v overflows and |v| does not: inf bounds, and a step count
    # beyond the planner's capacity.
    spin_v = tmp_path / "spin-v.json"
    spin_v.write_text(json.dumps({"algebra": {"kind": "spin", "dim": 2}, "elements": [
        {"s": 0, "v": [1e200, 0]}, {"s": 0, "v": [0, 1]}]}), encoding="utf-8")
    paths = {"sym": contract_dir / "huge-sym.json", "albert": contract_dir / "huge-albert.json",
             "spin-v": spin_v}
    results = {}
    for kind, path in paths.items():
        for command in (("bounds",), ("plan", "--eps", "1e-3")):
            results[kind, command[0]] = run_cli(*command, "--input", str(path))
    for kind in ("albert", "spin-v"):
        assert results[kind, "bounds"] == results["sym", "bounds"], kind
        assert results[kind, "plan"] == results["sym", "plan"], kind
    code, out, err = results["albert", "bounds"]
    assert code == 0 and err == "" and out.count(",inf,") == 9
    code, out, err = results["albert", "plan"]
    assert code == 5 and out == "" and keeps_the_contract(code, err), err


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


def test_verify_axioms_prints_the_largest_tolerance_finite():
    res = run_cli("verify-axioms", "--algebra", "sym:2", "--trials", "3", "--tol", "1e308")
    assert res.returncode == 0, res.stderr
    tols = {line.split()[0]: float(line.split()[-1])
            for line in res.stdout.split("\n")[1:-2]}
    assert len(tols) == 5
    # Commutativity gets 1e-4 of the tolerance, every other check all of it.
    assert tols.pop("commutativity") == 1e308 / 1e4 == pytest.approx(1e304, rel=1e-15)
    assert set(tols.values()) == {1e308}


def test_verify_axioms_seed_resolution(monkeypatch):
    # The seed is --seed, else 0; no environment variable sets it.
    axioms = ("verify-axioms", "--algebra", "sym:3", "--trials", "20")
    plain = run_cli(*axioms)
    monkeypatch.setenv("JBTROTTER_SEED", "7")
    by_env = run_cli(*axioms)
    assert plain.returncode == 0 and plain.stderr == ""
    assert plain.stdout.startswith("algebra sym:3 trials 20 seed 0\n")
    assert (by_env.returncode, by_env.stdout, by_env.stderr) == (0, plain.stdout, "")
    by_flag = run_cli(*axioms, "--seed", "7")
    assert by_flag.stdout.startswith("algebra sym:3 trials 20 seed 7\n")
    assert by_flag.stdout != plain.stdout


def test_verify_axioms_bad_env_seed(monkeypatch):
    # A value of JBTROTTER_SEED that is no integer is no error either: nothing reads it.
    axioms = ("verify-axioms", "--algebra", "sym:3", "--trials", "20")
    plain = run_cli(*axioms)
    monkeypatch.setenv("JBTROTTER_SEED", "pi")
    res = run_cli(*axioms)
    assert plain.returncode == 0 and plain.stderr == ""
    assert plain.stdout.startswith("algebra sym:3 trials 20 seed 0\n")
    assert (res.returncode, res.stdout, res.stderr) == (0, plain.stdout, "")


def test_in_process_calls_share_one_parser(pauli_instance):
    # Each call prints what a fresh process prints, from one parser built
    # after the cache is cleared.  The reference side needs a new process
    # per command line: only there is each call the first, on a new parser.
    cli._parser.cache_clear()
    axioms = ("verify-axioms", "--algebra", "sym:3", "--trials", "20")
    steps = [(axioms[0], "--algebra", "sym:0"), axioms, axioms + ("--seed", "5"), axioms,
             ("sweep", "--input", pauli_instance, "--n", "1,2,4"), ("--version",)]
    with calls(cli.build_parser) as n:
        for argv in steps:
            in_process = run_cli(*argv)
            fresh = run_in_fresh_process(*argv)
            assert in_process == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert n[cli.build_parser] == 1


def test_help_states_the_exit_codes_but_not_the_python_api():
    code, out, err = run_cli("--help")
    assert (code, err) == (0, "")
    text = " ".join(out.split())
    assert "error[<kind>]: <reason>" in text and "``" not in text
    for code in ("2 usage", "3 input", "4 verification failure", "5 capacity"):
        assert code in text, code
    assert "main(argv)" not in text and "many times in one process" not in text
    assert "many times in one process" in cli.__doc__


def test_help_and_version_return_0_after_printing():
    # argparse ends the process after printing them; main returns 0
    # instead, as it returns a code for every other command line.
    assert run_cli("--version") == (0, f"{__version__}\n", "")
    for argv, usage in ((("--help",), "usage: jbtrotter "),
                        (("sweep", "--help"), "usage: jbtrotter sweep ")):
        code, out, err = run_cli(*argv)
        assert (code, err) == (0, ""), argv
        assert out.startswith(usage), argv


def test_a_warning_raises_out_of_the_runner(monkeypatch):
    # run_cli keeps the strictness of PYTHONWARNINGS=error in a fresh
    # process: a warning raises instead of reaching stderr beside the
    # one-line error report.
    def warn(*args, **kwargs):
        warnings.warn("overflow encountered in exp", RuntimeWarning)

    monkeypatch.setattr(cli, "bounds_for", warn)
    with pytest.raises(RuntimeWarning, match="overflow encountered in exp"):
        run_cli("bounds", "--norms", "1,1")


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


def test_measured_plan_reports_from_one_measurement(pauli_instance, spin_triple_instance):
    # The report's errors at n_min and n_min - 1 come from the search's own
    # measurement: one exp of the sum per command, and the same bits as a
    # measurement of each step count on its own.
    for path, scheme, eps in ((pauli_instance, "g", "1e-3"), (pauli_instance, "f", "1e-6"),
                              (pauli_instance, "g", "10"), (spin_triple_instance, "h", "1e-4")):
        with calls(trotter.exp_sum) as n:
            code, out, _ = run_cli("plan", "--scheme", scheme, "--eps", eps,
                                   "--mode", "measured", "--input", path)
        assert code == 0
        assert n[trotter.exp_sum] == 1, (scheme, eps)
        lines = out.split("\n")
        elems = load_instance(path).elements
        n_min = trotter.plan_min_n(scheme, float(eps), elements=elems, mode="measured")
        prev = (repr(trotter.measured_error(scheme, elems, n_min - 1)) if n_min > 1
                else "n/a")
        assert lines[1:] == [f"n_min {n_min}",
                             f"error({n_min}) {trotter.measured_error(scheme, elems, n_min)!r}",
                             f"error({n_min - 1}) {prev}", ""], (scheme, eps)


def test_bound_plan_reports_from_the_search(pauli_instance):
    # The report's bounds at n_min and n_min - 1 are the ones the search
    # evaluated: a command reaches the bound table once to check that the
    # scheme has a bound (``cli._bound_inputs``) and then as often as the
    # planner alone, and prints the bits of a fresh tightest_bound.
    pauli_norms = [jb_norm(e) for e in load_instance(pauli_instance).elements]
    for argv, norms, special, want in (
            (["--scheme", "g", "--eps", "1e-4", "--norms", "1"], [1.0], False, 96),
            (["--scheme", "g", "--eps", "1", "--norms", "1"], [1.0], False, 1),
            (["--scheme", "f", "--eps", "1e-5", "--norms", "1,1", "--algebra", "sym:2"],
             [1.0, 1.0], True, None),
            (["--scheme", "f", "--eps", "1e-5", "--input", pauli_instance],
             pauli_norms, True, None)):
        scheme, eps = argv[1], float(argv[3])
        with calls(trotter.bounds_for) as by_cli:
            code, out, _ = run_cli("plan", *argv)
        assert code == 0
        lines = out.split("\n")
        with calls(trotter.bounds_for) as by_planner:
            n_min = trotter.plan_min_n(scheme, eps, norms=norms, special=special)
        assert by_cli[trotter.bounds_for] == 1 + by_planner[trotter.bounds_for], argv
        assert want in (None, n_min), argv
        prev = (repr(trotter.tightest_bound(scheme, norms, n_min - 1, special)) if n_min > 1
                else "n/a")
        assert lines[1:] == [f"n_min {n_min}",
                             f"bound({n_min}) {trotter.tightest_bound(scheme, norms, n_min, special)!r}",
                             f"bound({n_min - 1}) {prev}", ""], argv


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


def test_jets_checks_every_claim_through_degree_two(pauli_instance, monkeypatch):
    code, out, err = run_cli("jets", "--input", pauli_instance)
    assert (code, err) == (0, "")
    rows = [line for line in out.split("\n") if " residual " in line]
    assert len(rows) == 3 and all(" deg<=2 " in row and row.endswith(" pass") for row in rows)
    assert "degree-2" not in out
    # A defect jet off at degree 2 alone fails its check.
    defect = cli.inverse_sandwich_defect_jet

    def off_at_degree_two(elements, degree):
        coefficients = list(defect(elements, degree).coefficients)
        coefficients[2] = coefficients[2] + 1e-3 * elements[0]
        return Jet(tuple(coefficients))

    monkeypatch.setattr(cli, "inverse_sandwich_defect_jet", off_at_degree_two)
    code, out, err = run_cli("jets", "--input", pauli_instance)
    assert (code, err) == (4, "")
    row = next(line for line in out.split("\n") if line.startswith("inverse-sandwich-defect"))
    assert row.endswith(" FAIL")
    assert out.endswith("result FAIL\n")


def test_jets_tolerance_scales_as_the_cube_of_one_plus_s(tmp_path):
    # Every check's limit is tol (1 + S)^3, S the sum of the element norms:
    # a --tol that puts it 5 % above the largest residual passes, 5 % below
    # fails.  With 1 + S = 3.1 here, (1 + S)^4 would pass both and
    # (1 + S)^2 fail both.
    path = _family_instance(tmp_path, AlgebraDescriptor("sym", 3), 3)
    s = sum(jb_norm(e) for e in load_instance(path).elements)
    code, out, err = run_cli("jets", "--input", path)
    assert (code, err) == (0, "") and abs(s - 2.1) < 1e-12
    worst = max(float(line.split(" residual ")[1].split()[0])
                for line in out.split("\n") if " residual " in line)
    assert worst > 0.0
    for factor, want in ((1.05, 0), (0.95, 4)):
        tol = factor * worst / (1.0 + s) ** 3
        code, out, err = run_cli("jets", "--input", path, "--tol", repr(tol))
        assert (code, err) == (want, ""), factor
        assert out.endswith("result pass\n" if want == 0 else "result FAIL\n")


def test_an_arithmetic_fault_names_its_type(monkeypatch):
    # Only a value past the float range is an input of NonFiniteError's
    # kind; any other arithmetic fault reads as what it is.
    def divide_by_zero(*args):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(cli, "bounds_for", divide_by_zero)
    code, out, err = run_cli("bounds", "--norms", "1,1")
    assert (code, out) == (3, "")
    assert err == "error[input]: ZeroDivisionError: float division by zero\n"


def test_tiny_albert_instance_runs(tmp_path):
    # Eigenvalue spreads of 1e-140 once underflowed inside the cubic solver.
    zero8 = [0.0] * 8
    doc = {"algebra": {"kind": "albert", "dim": 3}, "elements": [
        {"diag": [1e-140, 0.0, -1e-140], "x": zero8, "y": zero8, "z": zero8},
        {"diag": [0.0, 1e-140, 0.0], "x": [1e-140] + zero8[1:], "y": zero8, "z": zero8},
    ]}
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (
        ("sweep", "--input", str(path), "--n", "1,2"),
        ("bounds", "--input", str(path), "--n", "1,2"),
        ("jets", "--input", str(path)),
    ):
        res = run_cli(*argv)
        assert res.returncode == 0, (argv, res.stderr)
        assert res.stderr == "", argv


def test_near_unit_albert_instance_runs(contract_dir):
    path = contract_dir / "near-unit-albert.json"
    for argv in (
        ("bounds", "--scheme", "g,f", "--n", "1,2"),
        ("sweep", "--scheme", "g,f", "--n", "1:16:x2"),
        ("jets",),
        ("plan", "--eps", "1e-3"),
        ("plan", "--mode", "measured", "--eps", "1e-3"),
    ):
        code, out, err = run_cli(*argv, "--input", str(path))
        assert (code, err) == (0, ""), argv
        assert out, argv


def test_version_flag():
    # python -m jbtrotter: only a new process runs __main__ and turns
    # main's code into the process exit status.
    res = run_in_fresh_process("--version")
    assert res.returncode == 0
    assert res.stdout.strip()


# ---------------------------------------------------------------------------
# the error contract over generated command lines

# Each subcommand's options, and a pool of values per option: valid ones
# first (the number after the pool), then zero, negative, nan, inf,
# non-numeric and above-cap tokens, all cheap to run.  --input and --output
# values name files in contract_dir.
CONTRACT_OPTIONS = {
    "verify-axioms": ("--algebra", "--trials", "--seed", "--tol", "--output"),
    "sweep": ("--input", "--scheme", "--n", "--out", "--output"),
    "bounds": ("--norms", "--input", "--algebra", "--scheme", "--n", "--out", "--output"),
    "plan": ("--scheme", "--eps", "--mode", "--norms", "--input", "--algebra", "--output"),
    "jets": ("--input", "--degree", "--tol", "--output"),
    "demo": ("--output",),
    "frobnicate": ("--input",),
}
CONTRACT_VALUES = {
    "--algebra": (("sym:2", "spin:1", "sym:0", "herm:-1", "x:2", "sym:x", "sym:100000"), 2),
    "--trials": (("1", "2", "0", "-1", "nan", "inf", "x", "1000001"), 2),
    "--seed": (("0", "7", "-1", "nan", "x"), 2),
    "--tol": (("1e-10", "1e-30", "0", "-1", "nan", "inf", "x"), 2),
    "--eps": (("1e-3", "10", "1e-300", "0", "-1", "nan", "inf", "x"), 3),
    "--norms": (("1,1", "0", "1e200", "-1", "nan", "inf", "x", ""), 3),
    "--scheme": (("g", "f", "h", "g,f,h", "", "x", "g,g"), 4),
    "--n": (("1,2", "1:8:x2", "0", "-1", "x", "4,2", "1:99999999999999999999999:x2",
             "1073741825"), 2),
    "--degree": (("2", "3", "1", "0", "-1", "x", "33"), 2),
    "--mode": (("bound", "measured", "x"), 2),
    "--out": (("csv", "json", "plotdata", "x"), 3),
    "--input": (tuple(CONTRACT_FILES) + ("missing.json",), 3),
    "--output": (("out.txt", "no-such-dir/out.txt", "."), 1),
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(CONTRACT_OPTIONS)))
    argv = [command]
    for option in CONTRACT_OPTIONS[command]:
        pool, valid = CONTRACT_VALUES[option]
        if draw(st.booleans()):
            # Half the values come from the valid ones, so that most
            # commands get past the parser.
            values = pool[:valid] if draw(st.booleans()) else pool
            argv += [option, draw(st.sampled_from(values))]
    return argv


@settings(max_examples=150)
@given(argv=command_lines())
@example(argv=["sweep", "--input", "pair.json", "--n", "1:99999999999999999999999:x2"])
def test_every_command_line_keeps_the_error_contract(contract_dir, argv):
    argv = _in_dir(contract_dir, argv)
    code, _, err = run_cli(*argv)
    assert keeps_the_contract(code, err), (argv, code, err)

