"""Tests of the benchmark itself: input stability, tracer completeness,
tracing leaving results bit-identical, and the output contract.

Run from the root of the repository::

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from jbtrotter import algebras, axioms, cli, jets, trotter  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

RUN = [sys.executable, str(BENCH / "run.py")]


def _power_products(n: int) -> int:
    # jordan_power by binary splitting: one squaring per bit after the
    # first, one multiplication per set bit after the first.
    return n.bit_length() - 1 + bin(n).count("1") - 1


def _probe_digest(workload: str, seed: int, hash_seed: str, workdir: Path) -> str:
    workdir.mkdir()
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "0.01",
               "--probe", str(workdir)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["digest"]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_inputs_depend_on_seed_not_on_hash_seed(workload, tmp_path):
    a = _probe_digest(workload, 7, "0", tmp_path / "a")
    b = _probe_digest(workload, 7, "1", tmp_path / "b")
    c = _probe_digest(workload, 8, "0", tmp_path / "c")
    assert a == b
    assert a != c


def _pair(desc_text: str, seeds=(11, 12)):
    desc = algebras.parse_descriptor(desc_text)
    return [algebras.random_element(desc, s, v) for s, v in zip(seeds, (0.8, 0.6))]


def test_traced_counts_match_hand_counts_on_sym2_sweeps():
    elems = _pair("sym:2")
    m, ns = len(elems), [1, 2, 4, 8]
    with tracing.Tracer() as t:
        trotter.sweep("g", elems, ns)
    assert t.calls["trotter.sweep"] == 1
    assert t.calls["trotter.exp_sum"] == 1
    assert t.calls["trotter.approx_g"] == len(ns)
    assert t.calls["algebras.jordan_power"] == len(ns)
    assert t.calls["algebras.exp_spectral"] == 1 + m * len(ns)
    assert t.calls["algebras.jb_norm"] == m + len(ns)
    assert t.calls["algebras.jordan_mul"] == sum((m - 1) + _power_products(n) for n in ns)
    assert t.calls["trotter.bounds"] == len(ns)

    with tracing.Tracer() as t:
        trotter.sweep("f", elems, ns)
    assert t.calls["trotter.approx_f"] == len(ns)
    assert t.calls["algebras.quad_map"] == (m - 1) * len(ns)
    assert t.calls["algebras.triple_product"] == (m - 1) * len(ns)
    assert t.calls["algebras.jordan_mul"] == sum(6 * (m - 1) + _power_products(n) for n in ns)
    # thm33i, thm33ii and both special bounds on a special family
    assert t.calls["trotter.bounds"] == 4 * len(ns)


def test_traced_counts_catch_default_argument_and_imported_names():
    desc = algebras.parse_descriptor("sym:2")
    trials = 3
    with tracing.Tracer() as t:
        axioms.run_axiom_suite(desc, trials=trials, seed=0)
    # Per pair: 5 + 2 + 1 + 1 + 2 products and 3 + 3 + 3 + 2 + 4 norms over
    # the five checks, plus one norm per generated element.
    assert t.calls["axioms.run_axiom_suite"] == 1
    assert t.calls["algebras.random_element"] == 2 * trials
    assert t.calls["algebras.jordan_mul"] == 11 * trials
    assert t.calls["algebras.jb_norm"] == 2 * trials + 15 * trials

    argv = ["verify-axioms", "--algebra", "sym:2", "--trials", str(trials), "--seed", "0"]
    with tracing.Tracer() as t:
        assert cli.main(argv) == 0
    assert t.calls["cli.main"] == 1
    assert t.calls["axioms.run_axiom_suite"] == 1
    assert t.calls["algebras.jordan_mul"] == 11 * trials

    a, b = _pair("sym:2")
    with tracing.Tracer() as t:
        jets.product_step_jet([a, b], 3)
    # two exponential jets of 3 products each, one Cauchy product of degree 3
    assert t.calls["jets.jet_exp"] == 2
    assert t.calls["jets.jet_jordan_mul"] == 1
    assert t.calls["algebras.jordan_mul"] == 2 * 3 + (1 + 2 + 3 + 4)


def test_traced_counts_match_hand_counts_on_albert():
    elems = _pair("albert")
    m, ns = len(elems), [1, 2]
    with tracing.Tracer() as t:
        trotter.sweep("g", elems, ns)
    # Each albert spectrum costs one Jordan square and two octonion products
    # (the cubic norm); the Newton-form exponential adds one product.
    exps = 1 + m * len(ns)
    norms = m + len(ns)
    assert t.nested["fallbacks"] == 0
    assert t.calls["algebras.exp_spectral"] == exps
    assert t.calls["algebras.jb_norm"] == norms
    assert t.calls["algebras.jordan_mul"] == (
        2 * exps + norms + sum((m - 1) + _power_products(n) for n in ns))
    assert t.calls["octonion.mul"] == 2 * (exps + norms)

    rng = np.random.default_rng(5)
    near = wl._near_degenerate(rng, 1e-8, 0.5)
    squarings = max(0, int(np.ceil(np.log2(algebras.jb_norm(near)))) + 2)
    with tracing.Tracer() as t:
        algebras.exp_spectral(near)
    assert t.calls["algebras.exp_series"] == 1
    assert t.nested["fallbacks"] == 1
    assert t.calls["algebras.jb_norm"] == 1
    # spectrum, the series' norm, 20 series terms, then the squarings
    assert t.calls["algebras.jordan_mul"] == 1 + 1 + 20 + squarings


def test_self_time_excludes_children():
    elems = _pair("sym:3")
    with tracing.Tracer() as t:
        trotter.sweep("f", elems, [1, 2, 4])
    for group in tracing.GROUPS:
        assert t.self_s[group] <= t.total_s[group] + 1e-12
    assert t.total_s["trotter.sweep"] == pytest.approx(
        sum(t.self_s[g] for g in tracing.GROUPS), rel=1e-9)
    assert len(t.names) == sum(t.calls.values())
    assert t.elements_created > 0


def test_tracer_restores_every_reference():
    original = algebras.jordan_mul
    with tracing.Tracer():
        assert trotter.jordan_mul is not original
        assert axioms.run_axiom_suite.__wrapped__.__defaults__[-1] is not original
    assert trotter.jordan_mul is original
    assert jets.jordan_mul is original
    assert axioms.run_axiom_suite.__defaults__[-1] is original
    assert trotter._APPROX["g"] is trotter.approx_g
    assert not hasattr(trotter.approx_g, "__wrapped__")
    assert algebras.Element.__post_init__.__qualname__ == "Element.__post_init__"


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tracing_leaves_results_bit_identical(workload, tmp_path):
    work = wl.prepare(workload, 3, 0.01, str(tmp_path))
    run = wl.execute(work.ops, work.slice_size)
    with tracing.Tracer() as t:
        traced = wl.prepare(workload, 3, 0.01, str(tmp_path))
        traced_run = wl.execute(traced.ops, traced.slice_size)
    assert t.calls["algebras.jordan_mul"] > 0
    assert traced.digest == work.digest
    assert wl.same_outputs(run.outputs, traced_run.outputs)
    assert wl.check_outputs(work, run.outputs)[1] == []
    assert wl.cross_check_exponentials(work)[1] == []


def test_output_follows_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        done = subprocess.run(
            RUN + ["--workload", "grid-matrix", "--seed", "2", "--seconds", "0.05",
                   "--trace", trace],
            capture_output=True, text=True, timeout=170, cwd=ROOT,
        )
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in spec[key]} == {
            k: v["unit"] for k, v in result["metrics"].items()}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", "cli",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
