"""Axiom suite behavior, including proof that the checks can fail."""

import functools
import io
import math
import tracemalloc
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jbtrotter import algebras, axioms, cli
from jbtrotter.algebras import (
    AlgebraDescriptor,
    Element,
    jb_norm,
    jordan_mul,
    parse_descriptor,
    random_element,
    spin_element,
    sym_element,
)
from jbtrotter.axioms import COMMUTATIVITY_TOL, DEFAULT_TOL, run_axiom_suite
from conftest import calls, rounded_digest

EXPECTED_CHECKS = (
    "jordan-identity",
    "commutativity",
    "norm-submultiplicative",
    "norm-square",
    "norm-square-monotone",
)


def test_suite_passes_every_family(descriptor):
    results = run_axiom_suite(descriptor, trials=200, seed=3)
    assert tuple(r.name for r in results) == EXPECTED_CHECKS
    for r in results:
        assert r.passed, (descriptor, r)
        assert r.worst <= r.tolerance


def test_suite_is_deterministic(descriptor):
    a = run_axiom_suite(descriptor, trials=50, seed=9)
    b = run_axiom_suite(descriptor, trials=50, seed=9)
    # A Generator seed is taken as it is, an int one as default_rng(seed).
    c = run_axiom_suite(descriptor, trials=50, seed=np.random.default_rng(9))
    assert a == b == c


def test_suite_takes_one_spectrum_per_element():
    # A pair's five checks take 17 norms of 10 elements (a and b, the two
    # residuals, a.b, two squares of a, their sum with b.b, and each draw in
    # random_element); each element keeps its spectrum.  random_element
    # takes its draw's spectrum alone, one call per draw; the suite then
    # takes the other 8 elements of every pair of a chunk of 8 pairs in one
    # stacked call.  3 and 2 trials make one chunk each.
    with calls(np.linalg.eigvalsh) as n:
        run_axiom_suite(AlgebraDescriptor("sym", 2), trials=3, seed=0)
    assert n[np.linalg.eigvalsh] == 2 * 3 + 1

    eigvals = type(algebras._FAMILIES["albert"]).eigvals
    with calls(eigvals) as n:
        run_axiom_suite(AlgebraDescriptor("albert", 3), trials=2, seed=0)
    assert n[eigvals] == 2 * 2 + 1


def _one_pair_at_a_time(descriptor, trials: int, seed: int) -> list:
    """The suite's five worst values from a plain loop: each pair drawn as
    the suite draws it, its checks written out, every norm taken on its
    own element as the residual needs it."""
    rng = np.random.default_rng(seed)
    norms = rng.uniform(0.25, 2.0, size=(trials, 2))
    worst = [-math.inf] * 5
    for i in range(trials):
        a = random_element(descriptor, rng, float(norms[i, 0]))
        b = random_element(descriptor, rng, float(norms[i, 1]))
        na, nb = jb_norm(a), jb_norm(b)
        asq, ab, ba = jordan_mul(a, a), jordan_mul(a, b), jordan_mul(b, a)
        values = (
            jb_norm(jordan_mul(jordan_mul(asq, b), a) - jordan_mul(asq, ba))
            / ((1.0 + na) ** 3 * (1.0 + nb)),
            jb_norm(ab - ba) / ((1.0 + na) * (1.0 + nb)),
            (jb_norm(ab) - na * nb) / (1.0 + na * nb),
            abs(jb_norm(asq) - na * na) / (1.0 + na) ** 2,
            (jb_norm(asq) - jb_norm(asq + jordan_mul(b, b))) / (1.0 + na**2 + nb**2),
        )
        worst = [max(w, v) for w, v in zip(worst, values)]
    return worst


@pytest.mark.parametrize("text", ("sym:2", "herm:3", "spin:3", "albert"))
def test_suite_worst_values_equal_a_one_pair_at_a_time_loop(text):
    # The suite's stacked spectra must give every residual the bits it has
    # one pair at a time: one pair, one full chunk of 8, a chunk and one
    # more pair, and a chunk left short.
    descriptor = parse_descriptor(text)
    for trials in (1, 8, 9, 19):
        got = [r.worst for r in run_axiom_suite(descriptor, trials=trials, seed=trials)]
        assert got == _one_pair_at_a_time(descriptor, trials, trials), trials


def test_suite_draws_the_pinned_pairs(monkeypatch):
    # The payload and target norm of every element of a 3-trial suite at
    # seed 0: default_rng(0) draws the norms, two per pair, then a and b of
    # each pair from the same stream.  herm:2 pins the imaginary draw too.
    digests = {"sym:2": "1bd98aa60bf00582", "herm:2": "a54bc4a2e6872ff8"}
    drawn = []
    draw = axioms.random_element

    def spy(descriptor, seed, target_norm):
        element = draw(descriptor, seed, target_norm)
        drawn.append((*element.data.view(np.float64).ravel().tolist(), target_norm))
        return element

    monkeypatch.setattr(axioms, "random_element", spy)
    for text, digest in digests.items():
        drawn.clear()
        run_axiom_suite(parse_descriptor(text), trials=3, seed=0)
        assert len(drawn) == 6
        assert rounded_digest(x for element in drawn for x in element) == digest, text


def test_suite_memory_does_not_grow_with_trials():
    # Pairs are drawn and checked 8 at a time, one chunk: four times the
    # trials must not mean four times the live elements (sym:16 holds 2 KB
    # per element).
    descriptor = AlgebraDescriptor("sym", 16)
    run_axiom_suite(descriptor, trials=1, seed=1)  # one-time numpy setup
    peaks = []
    for trials in (10, 40):
        tracemalloc.start()
        try:
            run_axiom_suite(descriptor, trials=trials, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_tolerances_scale():
    results = run_axiom_suite(
        AlgebraDescriptor("sym", 4), trials=20, seed=1, tol=2.5e-10
    )
    for r in results:
        base = COMMUTATIVITY_TOL if r.name == "commutativity" else DEFAULT_TOL
        assert r.tolerance == pytest.approx(2.5 * base)


def _matrix_product(a: Element, b: Element) -> Element:
    # plain matrix product: associative, so only commutativity can trip
    return Element(a.descriptor, a.data @ b.data)


def test_fault_injection_commutativity():
    results = run_axiom_suite(
        AlgebraDescriptor("sym", 4), trials=25, seed=5, product=_matrix_product
    )
    by_name = {r.name: r for r in results}
    assert not by_name["commutativity"].passed
    assert by_name["jordan-identity"].passed  # associativity implies it


def _warped_product(a: Element, b: Element) -> Element:
    # commutative but quadratically distorted, breaking the Jordan identity
    ab = jordan_mul(a, b)
    return ab + 0.05 * jordan_mul(ab, ab)


def test_fault_injection_jordan_identity():
    results = run_axiom_suite(
        AlgebraDescriptor("sym", 4), trials=25, seed=5, product=_warped_product
    )
    by_name = {r.name: r for r in results}
    assert by_name["commutativity"].passed
    assert not by_name["jordan-identity"].passed


def _skewed_product(a: Element, b: Element) -> Element:
    # commutative but slightly rescaled, so the norm axioms must trip
    return 1.01 * jordan_mul(a, b)


def test_fault_injection_norm_axioms():
    results = run_axiom_suite(
        AlgebraDescriptor("sym", 4), trials=25, seed=5, product=_skewed_product
    )
    by_name = {r.name: r for r in results}
    assert by_name["commutativity"].passed
    assert not by_name["norm-square"].passed


def _product_turning_nan(after: int):
    """The Jordan product, with an all-NaN payload from call after + 1 on."""
    calls = 0

    def product(a: Element, b: Element) -> Element:
        nonlocal calls
        calls += 1
        ab = jordan_mul(a, b)
        return Element(ab.descriptor, np.full_like(ab.data, np.nan)) if calls > after else ab

    return product


def test_nan_residual_fails_every_check(monkeypatch):
    # The first three trials (eleven products each) are clean; from then on
    # every residual is NaN, which the builtin max would pass over.
    results = run_axiom_suite(
        AlgebraDescriptor("spin", 3), trials=20, seed=0, product=_product_turning_nan(40)
    )
    assert tuple(r.name for r in results) == EXPECTED_CHECKS
    for r in results:
        assert not r.passed and np.isnan(r.worst), r
    # The command line reports such a check as failed, with worst nan.
    monkeypatch.setattr(
        cli, "run_axiom_suite",
        functools.partial(run_axiom_suite, product=_product_turning_nan(40)),
    )
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["verify-axioms", "--algebra", "spin:3", "--trials", "20"])
    assert code == cli.EXIT_VERIFY
    lines = out.getvalue().splitlines()
    assert lines[-1] == "result FAIL"
    assert all(" FAIL  worst nan  tol " in line for line in lines[1:-1]), lines


# property-based spot checks on two cheap families

sym_entries = st.lists(
    st.floats(-2.0, 2.0, allow_nan=False), min_size=9, max_size=9
)


@given(sym_entries, sym_entries)
@settings(max_examples=60)
def test_jordan_identity_sym_property(xs, ys):
    a = sym_element((lambda m: 0.5 * (m + m.T))(np.array(xs).reshape(3, 3)))
    b = sym_element((lambda m: 0.5 * (m + m.T))(np.array(ys).reshape(3, 3)))
    asq = jordan_mul(a, a)
    lhs = jordan_mul(jordan_mul(asq, b), a)
    rhs = jordan_mul(asq, jordan_mul(b, a))
    scale = (1.0 + jb_norm(a)) ** 3 * (1.0 + jb_norm(b))
    assert jb_norm(lhs - rhs) <= 1e-16 + 1e-16 * scale + DEFAULT_TOL * scale


spin_vec = st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=4, max_size=4)


@given(st.floats(-2.0, 2.0, allow_nan=False), spin_vec,
       st.floats(-2.0, 2.0, allow_nan=False), spin_vec)
@settings(max_examples=60)
def test_jordan_identity_spin_property(s, v, t, w):
    a = spin_element(s, v)
    b = spin_element(t, w)
    asq = jordan_mul(a, a)
    lhs = jordan_mul(jordan_mul(asq, b), a)
    rhs = jordan_mul(asq, jordan_mul(b, a))
    scale = (1.0 + jb_norm(a)) ** 3 * (1.0 + jb_norm(b))
    assert jb_norm(lhs - rhs) <= DEFAULT_TOL * scale
