"""What each operation costs, in exact call counts derived by hand.

Each count is taken with the suite's one counter, ``conftest.calls``, and
each assertion carries its derivation.  A change that makes an operation
cheaper re-pins its count here, in the same change: the new value is
exact and per family, a comment derives it, and CHANGES.md records it.
``bench/test_bench.py`` pins the same values through the bench tracer.
"""

import sys

import numpy as np
import pytest

from jbtrotter import algebras, axioms, cli, jets, octonion, trotter
from assoc_oracle import albert_with_roots, random_unitary
from conftest import calls

# The five closed-form bound functions, one cost between them.
BOUNDS = (trotter.bound_thm31, trotter.bound_thm33i, trotter.bound_thm33ii,
          trotter.bound_special, trotter.tightest_bound)


def _power_products(n: int) -> int:
    # jordan_power by binary splitting: one squaring per bit after the
    # first, one multiplication per set bit after the first.
    return n.bit_length() - 1 + bin(n).count("1") - 1


def _pair(desc_text: str, seeds=(11, 12)):
    desc = algebras.parse_descriptor(desc_text)
    return [algebras.random_element(desc, s, v) for s, v in zip(seeds, (0.8, 0.6))]


def test_the_counter_refuses_a_generator_and_puts_the_profile_back():
    # A profiler reports a call on every resume of a generator.
    def resumed():
        yield 1

    with pytest.raises(TypeError, match="generator function"):
        with calls(resumed):
            pass
    before = sys.getprofile()
    with pytest.raises(ZeroDivisionError):
        with calls(algebras.jb_norm):
            1 / 0
    assert sys.getprofile() is before


def test_sym2_g_and_f_sweep_counts():
    elems = _pair("sym:2")
    m, ns = len(elems), [1, 2, 4, 8]
    counted = (trotter.sweep, trotter.exp_sum, trotter.approx_g, trotter.approx_f,
               algebras.jordan_power, algebras.exp_spectral, algebras.jb_norm,
               algebras.jordan_mul, algebras.quad_map, algebras.triple_product, *BOUNDS)
    with calls(*counted) as n:
        trotter.sweep("g", elems, ns)
    assert n[trotter.sweep] == 1
    assert n[trotter.exp_sum] == 1
    assert n[trotter.approx_g] == len(ns)
    assert n[algebras.jordan_power] == len(ns)
    # exp of the sum, then exp(A_j / n) per element and step count
    assert n[algebras.exp_spectral] == 1 + m * len(ns)
    # one norm per element for the bounds, one of each error
    assert n[algebras.jb_norm] == m + len(ns)
    # m - 1 products per step, then the n-th power of the step
    assert n[algebras.jordan_mul] == sum((m - 1) + _power_products(k) for k in ns) == 10
    assert sum(n[b] for b in BOUNDS) == len(ns)

    with calls(*counted) as n:
        trotter.sweep("f", elems, ns)
    assert n[trotter.approx_f] == len(ns)
    # one U map per wrapped element, each one triple product of 6 products
    assert n[algebras.quad_map] == (m - 1) * len(ns) == 4
    assert n[algebras.triple_product] == (m - 1) * len(ns) == 4
    assert n[algebras.jordan_mul] == sum(6 * (m - 1) + _power_products(k) for k in ns) == 30
    # thm33i, thm33ii and both special bounds on a special family
    assert sum(n[b] for b in BOUNDS) == 4 * len(ns)


def test_axiom_suite_and_verify_axioms_counts():
    desc = algebras.parse_descriptor("sym:2")
    trials = 3
    counted = (axioms.run_axiom_suite, algebras.random_element, algebras.jordan_mul,
               algebras.jb_norm, cli.main)
    with calls(*counted) as n:
        axioms.run_axiom_suite(desc, trials=trials, seed=0)
    # Per pair: 5 + 2 + 1 + 1 + 2 products and 3 + 3 + 3 + 2 + 4 norms over
    # the five checks, plus one norm per generated element.
    assert n[axioms.run_axiom_suite] == 1
    assert n[algebras.random_element] == 2 * trials
    assert n[algebras.jordan_mul] == 11 * trials
    assert n[algebras.jb_norm] == 2 * trials + 15 * trials

    argv = ["verify-axioms", "--algebra", "sym:2", "--trials", str(trials), "--seed", "0"]
    with calls(*counted) as n:
        assert cli.main(argv) == 0
    assert n[cli.main] == 1
    assert n[axioms.run_axiom_suite] == 1
    assert n[algebras.jordan_mul] == 11 * trials == 33


def test_albert_axiom_suite_counts():
    desc = algebras.parse_descriptor("albert")
    trials = 9  # two chunks: 8 pairs, then 1
    chunks = 2
    with calls(algebras.jordan_mul, algebras.jb_norm, octonion.mul) as n:
        axioms.run_axiom_suite(desc, trials=trials, seed=0)
    # Per pair the checks' 11 products and the 17 norms, as on sym:2.  Each
    # albert spectrum call costs one Jordan square and two octonion
    # products (the cubic norm): one call per draw in random_element, one
    # per chunk for the stacked spectra of the elements its checks norm.
    assert n[algebras.jb_norm] == 2 * trials + 15 * trials
    assert n[algebras.jordan_mul] == 11 * trials + 2 * trials + chunks == 119
    assert n[octonion.mul] == 2 * (2 * trials + chunks) == 40


def test_product_step_jet_counts():
    a, b = _pair("sym:2")
    with calls(jets.jet_exp, jets.jet_jordan_mul, algebras.jordan_mul) as n:
        jets.product_step_jet([a, b], 3)
    # two exponential jets of 3 products each, one Cauchy product of degree 3
    assert n[jets.jet_exp] == 2
    assert n[jets.jet_jordan_mul] == 1
    assert n[algebras.jordan_mul] == 2 * 3 + (1 + 2 + 3 + 4)


def test_albert_sweep_counts():
    elems = _pair("albert")
    m, ns = len(elems), [1, 2]
    counted = (algebras.exp_spectral, algebras.exp_series, algebras.jb_norm,
               algebras.jordan_mul, octonion.mul)
    with calls(*counted) as n:
        trotter.sweep("g", elems, ns)
    # Each albert spectrum costs one Jordan square and two octonion products
    # (the cubic norm); the Newton-form exponential adds one product.  No
    # exponential falls back to the series.
    exps = 1 + m * len(ns)
    norms = m + len(ns)
    assert n[algebras.exp_series] == 0
    assert n[algebras.exp_spectral] == exps
    assert n[algebras.jb_norm] == norms
    assert n[algebras.jordan_mul] == (
        2 * exps + norms + sum((m - 1) + _power_products(k) for k in ns)) == 17
    assert n[octonion.mul] == 2 * (exps + norms) == 18


@pytest.mark.parametrize("desc_text", ["albert", "sym:2", "herm:2", "spin:3"])
def test_one_octonion_matmul_per_albert_product(desc_text):
    # Every albert Jordan product, the squares of the spectra and of the
    # power included, is one octonion.matmul_adjoint: 17 in this g sweep
    # (test_albert_sweep_counts).  No other family calls the kernel.
    elems = _pair(desc_text)
    with calls(algebras.jordan_mul, octonion.matmul_adjoint) as n:
        trotter.sweep("g", elems, [1, 2])
    if desc_text == "albert":
        assert n[octonion.matmul_adjoint] == n[algebras.jordan_mul] == 17
    else:
        assert n[octonion.matmul_adjoint] == 0 < n[algebras.jordan_mul]


def test_near_degenerate_fallback_counts():
    near = albert_with_roots(random_unitary(np.random.default_rng(5)), [0.0, 1e-8, 0.5])
    squarings = max(0, int(np.ceil(np.log2(algebras.jb_norm(near)))) + 2)
    with calls(algebras.exp_series, algebras.jb_norm, algebras.jordan_mul) as n:
        algebras.exp_spectral(near)
    # The root gap 1e-8 is below the fallback threshold: one series.
    assert n[algebras.exp_series] == 1
    assert n[algebras.jb_norm] == 1
    # spectrum, the series' norm, 20 series terms, then the squarings
    assert n[algebras.jordan_mul] == 1 + 1 + 20 + squarings == 23


def test_bound_planner_evaluates_fourteen_step_counts():
    # g at S = 1 needs bound(n) = e / (3 n^2) <= 1e-4, so n_min = 96.
    # Doubling evaluates 1, 2, 4, ..., 128 (8 counts) and stops at the
    # first bound below eps, 128; bisection of (64, 128) then evaluates 96
    # (below), 80, 88, 92, 94 and 95 (above): 6 more, 14 in all.
    with calls(trotter.tightest_bound) as n:
        n_min, values = trotter._plan("g", 1e-4, [1.0], None, "bound", False)
    assert n_min == 96
    assert list(values) == [1, 2, 4, 8, 16, 32, 64, 128, 96, 80, 88, 92, 94, 95]
    assert n[trotter.tightest_bound] == 14
