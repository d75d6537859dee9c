"""Jet engine and the Taylor-polynomial facts behind the error bounds.

The two frozen Pauli constants below have closed forms reachable by hand:
expanding the two-element product step against exp gives a degree-3 gap
of norm sqrt(2)/3, and the pulled-back defect curve has leading degree-3
coefficient of norm sqrt(5)/6.
"""

import math
from functools import partial

import numpy as np
import pytest

from jbtrotter import jets
from jbtrotter.algebras import (
    AlgebraDescriptor,
    exp_series,
    jb_norm,
    jordan_mul,
    jordan_power,
    parse_descriptor,
    random_element,
    sym_element,
    unit,
    zero,
)
from jbtrotter.jets import (
    Jet,
    evaluate_jet,
    inverse_sandwich_defect_jet,
    jet_exp,
    jet_jordan_mul,
    jet_quad_map,
    jet_triple,
    jet_unit,
    jet_zero,
    product_step_jet,
    residual,
    step_jet,
    symmetrized_step_jet,
)
from jbtrotter.trotter import approx_f, approx_g, approx_h
from conftest import calls, pauli_pair, seeded_elements

PAULI_D3_GAP = math.sqrt(2.0) / 3.0
PAULI_DEFECT_D3 = math.sqrt(5.0) / 6.0


def scaled_tol(elements, tol=1e-12):
    s = sum(jb_norm(e) for e in elements)
    return tol * (1.0 + s) ** 3


# ---------------------------------------------------------------------------
# engine basics


def test_jet_exp_coefficients(descriptor):
    a = random_element(descriptor, 5, 1.2)
    jet = jet_exp(a, 4)
    assert jet.degree == 4
    for k, coef in enumerate(jet.coefficients):
        want = jordan_power(a, k) / float(math.factorial(k))
        assert jb_norm(coef - want) < 1e-13


@pytest.mark.parametrize("text", ["sym:3", "herm:2", "spin:4", "albert:3"])
@pytest.mark.parametrize("norm", [0.2, 0.05])
def test_exp_series_sums_the_jet_exp_coefficients(text, norm):
    # At norm 1/4 and below exp_series squares nothing, so it is the left
    # fold of the degree-20 Taylor terms, the coefficients of jet_exp.
    a = random_element(parse_descriptor(text), 11, norm)
    assert jb_norm(a) <= 0.25
    terms = jet_exp(a, 20).coefficients
    want = terms[0]
    for term in terms[1:]:
        want = want + term
    assert exp_series(a) == want


def test_jet_unit_and_zero(descriptor):
    one = jet_unit(descriptor, 2)
    nil = jet_zero(descriptor, 2)
    assert one.coefficients[0] == unit(descriptor)
    assert all(c == zero(descriptor) for c in one.coefficients[1:])
    assert all(c == zero(descriptor) for c in nil.coefficients)


def test_jet_mul_is_truncated_cauchy(descriptor):
    a, b = seeded_elements(descriptor, 2, 31)
    p, q = jet_exp(a, 3), jet_exp(b, 3)
    prod = jet_jordan_mul(p, q)
    for k in range(4):
        want = None
        for i in range(k + 1):
            term = jordan_mul(p.coefficients[i], q.coefficients[k - i])
            want = term if want is None else want + term
        assert jb_norm(prod.coefficients[k] - want) < 1e-14


def test_jet_mul_matches_curve_product(descriptor):
    # evaluating the jet product tracks the product of evaluations to O(t^4)
    a, b = seeded_elements(descriptor, 2, 37)
    p, q = jet_exp(a, 3), jet_exp(b, 3)
    prod = jet_jordan_mul(p, q)
    for t in (0.05, 0.025):
        direct = jordan_mul(evaluate_jet(p, t), evaluate_jet(q, t))
        gap = jb_norm(direct - evaluate_jet(prod, t))
        assert gap < 5.0 * t**4


def _unit_norm_jet(descriptor, seed, degree=3):
    # arbitrary coefficients, no exponential structure
    return Jet(tuple(random_element(descriptor, seed + k, 1.0) for k in range(degree + 1)))


@pytest.mark.parametrize("exponential", [True, False], ids=["exp", "arbitrary"])
def test_jet_quad_map_matches_the_triple_product_definition(descriptor, exponential):
    # U_w(x) = {w x w} = (w∘x)∘w + (x∘w)∘w − (w∘w)∘x, for any jets w and x
    for seed in range(0, 200, 10):
        if exponential:
            a, b = seeded_elements(descriptor, 2, 43 + seed)
            w, x = jet_exp(a, 3), jet_exp(b, 3)
        else:
            w, x = _unit_norm_jet(descriptor, 7000 + seed), _unit_norm_jet(descriptor, 9000 + seed)
        want = (
            jet_jordan_mul(jet_jordan_mul(w, x), w)
            + jet_jordan_mul(jet_jordan_mul(x, w), w)
            - jet_jordan_mul(jet_jordan_mul(w, w), x)
        )
        assert residual(jet_quad_map(w, x), want, 3) <= 1e-13, seed
        assert residual(jet_triple(w, x, w), jet_quad_map(w, x), 3) <= 1e-13, seed


@pytest.mark.parametrize("m", [2, 3, 5])
def test_each_wrapper_makes_four_cauchy_products(monkeypatch, m):
    # One quadratic-map wrapper per wrapped element: m - 1 in the
    # symmetrized step, m in the defect curve; exp jets make no jet product.
    # An h step of odd m wraps (m - 1) / 2 times in a triple of six.
    seen = []
    exp = jets.jet_exp
    monkeypatch.setattr(jets, "jet_exp", lambda a, degree: seen.append(a) or exp(a, degree))
    elems = seeded_elements(AlgebraDescriptor("sym", 3), m, 71)
    with calls(jet_jordan_mul) as n:
        jets.symmetrized_step_jet(elems, 3)
    assert n[jet_jordan_mul] == 4 * (m - 1)
    # The full-step factor takes the caller's element, the half steps a copy.
    assert [a is e for a, e in zip(seen, elems)] == [True] + [False] * (m - 1)
    with calls(jet_jordan_mul) as n:
        jets.inverse_sandwich_defect_jet(elems, 3)
    assert n[jet_jordan_mul] == 4 * m
    if m % 2:
        with calls(jet_jordan_mul) as n:
            jets.step_jet("h", elems, 3)
        assert n[jet_jordan_mul] == 3 * (m - 1)


def test_evaluate_jet_horner():
    a, b = pauli_pair()
    jet = Jet((a, b, a))
    t = 0.3
    want = a + t * b + t * t * a
    assert jb_norm(evaluate_jet(jet, t) - want) < 1e-15


# ---------------------------------------------------------------------------
# step-curve claims


def test_one_element_g_and_f_steps_are_its_exponential(descriptor):
    # On one element g's step is its one factor and f's step the core with
    # no wrapper: jet_exp of the element, bit for bit.
    (a,) = seeded_elements(descriptor, 1, 43)
    for degree in (3, 5):
        want = jet_exp(a, degree)
        for got in (step_jet("g", [a], degree), step_jet("f", [a], degree),
                    product_step_jet([a], degree), symmetrized_step_jet([a], degree)):
            assert got.degree == degree
            for k, (x, y) in enumerate(zip(got.coefficients, want.coefficients)):
                assert np.array_equal(x.data, y.data), (degree, k)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_product_step_matches_exp_through_degree_two(descriptor, m):
    elems = seeded_elements(descriptor, m, 47 + m)
    total = elems[0]
    for e in elems[1:]:
        total = total + e
    ref = jet_exp(total, 3)
    assert residual(product_step_jet(elems, 3), ref, 2) <= scaled_tol(elems)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_symmetrized_step_matches_exp_through_degree_two(descriptor, m):
    elems = seeded_elements(descriptor, m, 53 + m)
    total = elems[0]
    for e in elems[1:]:
        total = total + e
    ref = jet_exp(total, 3)
    assert residual(symmetrized_step_jet(elems, 3), ref, 2) <= scaled_tol(elems)


@pytest.mark.parametrize("m", [3, 5])
def test_h_step_matches_exp_through_degree_two_but_not_three(descriptor, m):
    elems = seeded_elements(descriptor, m, 61 + m)
    total = elems[0]
    for e in elems[1:]:
        total = total + e
    ref = jet_exp(total, 3)
    jet = step_jet("h", elems, 3)
    assert residual(jet, ref, 2) <= scaled_tol(elems)
    assert jb_norm(jet.coefficients[3] - ref.coefficients[3]) > 1e-6


@pytest.mark.parametrize("m", [2, 3, 4])
def test_defect_jet_vanishes_through_degree_two(descriptor, m):
    # wrappers cancel the exponent exactly through second order, so even
    # the degree-2 coefficient is zero, not merely the degree-1 one
    elems = seeded_elements(descriptor, m, 59 + m)
    u = inverse_sandwich_defect_jet(elems, 3)
    nil = jet_zero(descriptor, 3)
    assert residual(u, nil, 1) <= scaled_tol(elems)
    assert residual(u, nil, 2) <= scaled_tol(elems)
    # degree 3 is the generic leading term
    assert jb_norm(u.coefficients[3]) > 1e-6


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_defect_jet_is_the_wrapping_loop_bit_for_bit(descriptor, m):
    # The defect is scheme f's step on (sum A_j, -A_m, ..., -A_1); its
    # half-step factor (-A_j) / 2 has the bits of -0.5 A_j, so the result
    # equals the explicit loop: exp(t sum A_j) wrapped in the U maps of
    # exp(-t A_j / 2), the last element innermost.
    elems = seeded_elements(descriptor, m, 83 + m)
    total = elems[0]
    for e in elems[1:]:
        total = total + e
    for degree in (2, 3, 5):
        want = jet_exp(total, degree)
        for a in reversed(elems):
            want = jet_quad_map(jet_exp(-0.5 * a, degree), want)
        want = want - jet_unit(descriptor, degree)
        got = inverse_sandwich_defect_jet(elems, degree)
        assert got.degree == degree
        for k, (x, y) in enumerate(zip(got.coefficients, want.coefficients)):
            assert np.array_equal(x.data, y.data), (degree, k)


def test_pauli_degree_three_gap_closed_form():
    a, b = pauli_pair()
    ref = jet_exp(a + b, 3)
    d_jet = product_step_jet([a, b], 3)
    gap = jb_norm(d_jet.coefficients[3] - ref.coefficients[3])
    assert gap == pytest.approx(PAULI_D3_GAP, rel=1e-12)
    assert gap > 1e-6


def test_pauli_defect_leading_coefficient_closed_form():
    a, b = pauli_pair()
    u = inverse_sandwich_defect_jet([a, b], 3)
    assert jb_norm(u.coefficients[2]) <= 1e-14
    assert jb_norm(u.coefficients[3]) == pytest.approx(PAULI_DEFECT_D3, rel=1e-12)


def test_commuting_elements_make_step_jets_exact():
    a = sym_element(np.diag([0.4, -0.2, 0.1]))
    b = sym_element(np.diag([-0.3, 0.5, 0.2]))
    ref = jet_exp(a + b, 4)
    assert residual(product_step_jet([a, b], 4), ref, 4) < 1e-15
    assert residual(symmetrized_step_jet([a, b], 4), ref, 4) < 1e-15
    u = inverse_sandwich_defect_jet([a, b], 4)
    assert residual(u, jet_zero(a.descriptor, 4), 4) < 1e-15


def test_nan_gap_makes_a_nan_residual():
    # The degree-2 coefficients hold (1e200)^2, which overflows; their gap
    # is NaN.  The builtin max would pass over it and report 0.0.
    a = sym_element([[1e200, 0.0], [0.0, 1.0]])
    b = sym_element([[0.0, 1.0], [1.0, 0.0]])
    with np.errstate(all="ignore"):
        p, ref = product_step_jet([a, b], 3), jet_exp(a + b, 3)
        assert math.isnan(jb_norm(p.coefficients[2] - ref.coefficients[2]))
        assert math.isnan(residual(p, ref, 2))
    assert residual(p, ref, 1) == 0.0


def test_defect_wrapping_order_is_innermost_last():
    # with distinct elements the innermost wrapper must carry the last one;
    # reversing the list changes the degree-3 coefficient
    a, b = pauli_pair()
    c = sym_element([[0.3, 0.4], [0.4, -0.1]])
    u_fwd = inverse_sandwich_defect_jet([a, b, c], 3)
    u_rev = inverse_sandwich_defect_jet([c, b, a], 3)
    assert jb_norm(u_fwd.coefficients[3] - u_rev.coefficients[3]) > 1e-6


# ---------------------------------------------------------------------------
# jets against the actual one-step maps


def _one_step_gap(builder, step_fn, elems, t):
    jet = builder(elems, 3)
    scaled = [t * e for e in elems]
    return jb_norm(step_fn(scaled, 1) - evaluate_jet(jet, t))


@pytest.mark.parametrize(
    "builder,step_fn",
    [
        (product_step_jet, approx_g),
        (symmetrized_step_jet, approx_f),
        pytest.param(partial(step_jet, "h"), approx_h, id="step_jet_h-approx_h"),
    ],
)
def test_jet_truncation_order_against_real_step(descriptor, builder, step_fn):
    # degree-3 jet of the step map: remainder should scale like t^4
    elems = seeded_elements(descriptor, 3, 67)
    g1 = _one_step_gap(builder, step_fn, elems, 0.08)
    g2 = _one_step_gap(builder, step_fn, elems, 0.04)
    assert g1 > 1e-9  # above roundoff so the ratio is meaningful
    assert 10.0 <= g1 / g2 <= 24.0  # 2^4 up to higher-order terms
