"""Exponential routes: spectral form vs series form vs scipy."""

import math
import sys
import warnings
from functools import reduce

import numpy as np
import pytest
from scipy.linalg import expm

from jbtrotter import algebras, trotter
from jbtrotter.algebras import (
    DEGENERATE_ROOT_GAP,
    AlgebraDescriptor,
    Element,
    albert_element,
    exp_series,
    exp_spectral,
    jb_norm,
    jordan_mul,
    random_element,
    spectrum,
    spin_element,
    sym_element,
    unit,
    zero,
)
from assoc_oracle import (albert_exp_oracle, albert_with_roots, embed_herm3, extract_herm3,
                          to_matrix)
from cli_harness import spectrum_past_the_float_range
from conftest import calls, rel_gap


def test_exp_zero_is_unit(descriptor):
    assert exp_spectral(zero(descriptor)) == unit(descriptor) or rel_gap(
        exp_spectral(zero(descriptor)), unit(descriptor)
    ) < 1e-15
    assert rel_gap(exp_series(zero(descriptor)), unit(descriptor)) < 1e-15


def test_exp_spectral_matches_scipy(matrix_descriptor):
    for i in range(40):
        a = random_element(matrix_descriptor, 300 + i, 1.7)
        want = expm(to_matrix(a))
        got = to_matrix(exp_spectral(a))
        assert np.allclose(got, want, atol=1e-11 * np.abs(want).max())


def test_exp_series_matches_exp_spectral(descriptor):
    for i in range(60):
        a = random_element(descriptor, 400 + i, 1.3)
        assert rel_gap(exp_series(a), exp_spectral(a)) < 1e-12


def test_exp_spin_closed_form():
    # exp(s, v) = e^s (cosh r, sinh(r)/r v) with r = |v|
    e = spin_element(0.3, [0.6, 0.0, -0.8])
    got = exp_spectral(e)
    r = 1.0
    want = np.exp(0.3) * np.array([np.cosh(r), 0.6 * np.sinh(r), 0.0, -0.8 * np.sinh(r)])
    assert np.allclose(got.data, want, atol=1e-14)
    assert rel_gap(exp_series(e), got) < 1e-13


def test_exp_albert_matches_embedded_herm3():
    rng = np.random.default_rng(99)
    for _ in range(25):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = 0.4 * (m + m.conj().T)
        got = extract_herm3(exp_spectral(embed_herm3(m)))
        assert np.allclose(got, expm(m), atol=1e-11)


def test_exp_inverse_via_power_associativity(descriptor):
    # exp(A) and exp(-A) live in the associative subalgebra generated by A
    a = random_element(descriptor, 71, 1.1)
    prod = jordan_mul(exp_spectral(a), exp_spectral(-a))
    assert rel_gap(prod, unit(descriptor)) < 1e-12


def test_exp_spectrum_is_exp_of_spectrum(descriptor):
    a = random_element(descriptor, 73, 1.4)
    got = spectrum(exp_spectral(a))
    want = np.exp(spectrum(a))
    assert np.allclose(got, want, rtol=1e-10)


# A fixed unitary mix: roots (0, gap, 1) under it make a dense element.
_MIX, _ = np.linalg.qr(np.array(
    [[1.0, 0.4 + 0.2j, -0.3], [0.1j, 1.0, 0.5], [0.2, -0.1 + 0.3j, 1.0]]))


def _series_calls(a: Element) -> tuple[Element, int]:
    """exp_spectral(a), and how many times it called exp_series."""
    with calls(exp_series) as n:
        got = exp_spectral(a)
    return got, n[exp_series]


@pytest.mark.parametrize("gap", [1e-3, 1e-5, 2e-6, 1.01e-6, 0.99e-6, 5e-7, 1e-8])
def test_exp_albert_near_degenerate_straddles_fallback(gap):
    # gaps on both sides of DEGENERATE_ROOT_GAP must agree with the series,
    # and the fallback decision is relative to the norm: the same at every
    # scale for gaps clearly on one side of the threshold
    for scale in (1.0, 1e-3, 1e-7):
        a = albert_with_roots(_MIX, [0.0, gap, 1.0]) * scale
        got, series = _series_calls(a)
        if not 0.5 < gap / DEGENERATE_ROOT_GAP < 2.0:
            assert series == (gap < DEGENERATE_ROOT_GAP), scale
        assert rel_gap(got, exp_series(a)) < 1e-11, scale


@pytest.mark.parametrize("norm", [1e-12, 1e-9, 1e-7])
def test_small_albert_elements_keep_the_closed_form(norm):
    # Roots well apart relative to the norm take the Newton form however
    # small the element is.
    desc = AlgebraDescriptor("albert", 3)
    for seed in range(20):
        a = random_element(desc, seed, norm)
        got, series = _series_calls(a)
        assert series == 0, seed
        assert rel_gap(got, exp_series(a)) < 1e-15


def test_albert_zero_and_unit_multiples_take_the_series():
    # Their root gaps are exactly 0, at or below any relative threshold.
    one = unit(AlgebraDescriptor("albert", 3))
    for a in (zero(one.descriptor), one, one * -3.0, one * 1e-9):
        got, series = _series_calls(a)
        assert series == 1
        assert rel_gap(got, exp_series(a)) < 1e-15


@pytest.mark.parametrize("diag", [(-400.0, 350.0, 351.0), (-750.0, -45.0, -44.0)])
def test_wide_albert_spectrum_keeps_every_eigenvalue(diag):
    # A spread past the float range of exp(l1 - l0), with the exponential
    # itself finite, and a lowest root whose exponential underflows: the
    # divided differences must neither overflow nor drop the upper roots.
    z = np.zeros(8)
    got = exp_spectral(albert_element(np.array(diag), z, z, z))
    want = albert_element(np.exp(np.array(diag)), z, z, z)
    np.testing.assert_allclose(got.data, want.data, rtol=1e-10, atol=0)


def _series_summed_as_elements(a):
    """exp_series with its Taylor terms summed as elements, one sum at a
    time from the left."""
    nrm = jb_norm(a)
    s = 0 if nrm == 0.0 else max(0, math.ceil(math.log2(nrm)) + 2)
    acc = reduce(Element.__add__, algebras._exp_terms(a * math.ldexp(1.0, -s), 20))
    for _ in range(s):
        acc = jordan_mul(acc, acc)
    return acc


def _albert_exp_on_elements(a, d):
    """The albert exponential on the element a / d: the Newton form on
    ``_eigvals(a / d)``, or the series below the root gap."""
    a = a / d
    l0, l1, l2 = algebras._eigvals(a).tolist()
    if min(l1 - l0, l2 - l1) <= DEGENERATE_ROOT_GAP * max(-l0, l2):
        return _series_summed_as_elements(a)
    d01 = algebras._exp_divided(l0, l1)
    d012 = (algebras._exp_divided(l1, l2) - d01) / (l2 - l0)
    one = unit(a.descriptor)
    x0, x1 = a - one * l0, a - one * l1
    return one * algebras._exp(l0) + x0 * d01 + jordan_mul(x0, x1) * d012


@pytest.mark.parametrize("d", [1, 3, 4, 256])
def test_albert_exp_on_payloads_keeps_the_bits_of_the_element_form(d):
    # exp works on the payload of a / d and solves its spectrum there; the
    # series sums its terms as payloads.  Neither changes a bit, nor the
    # spectrum of a, which the stacked eigvals gives each row of a stack.
    desc = AlgebraDescriptor("albert", 3)
    one = unit(desc)
    elements = [random_element(desc, 600 + k, norm) for k, norm in enumerate((0.3, 1.0, 7.0, 40.0))]
    elements += [albert_with_roots(_MIX, [0.0, 1e-8, 0.5]), one * 0.7, zero(desc)]
    stacked = algebras._FAMILIES["albert"].eigvals
    for k, a in enumerate(elements):
        want = _albert_exp_on_elements(a, d)
        assert exp_spectral(a, d).data.tobytes() == want.data.tobytes(), k
        row = stacked(np.stack([a.data, one.data]))[0]
        assert spectrum(a).tobytes() == row.tobytes(), k


def test_exp_series_keeps_the_bits_of_summing_elements(descriptor):
    for seed, norm in ((1, 0.2), (2, 3.0), (3, 60.0)):
        a = random_element(descriptor, 700 + seed, norm)
        assert exp_series(a).data.tobytes() == _series_summed_as_elements(a).data.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 7, 256, 1000])
def test_exp_spectral_divisor_matches_dividing_first(descriptor, d):
    # sym/herm reuse the decomposition of a, which differs from that of
    # a / d in roundoff; spin and albert divide first, bit for bit.
    for seed in range(5):
        a = random_element(descriptor, 500 + seed, 1.5)
        got, want = exp_spectral(a, d), exp_spectral(a / d)
        if descriptor.is_special:
            assert rel_gap(got, want) <= 1e-14
        else:
            assert np.array_equal(got.data, want.data)
        assert np.array_equal(exp_spectral(a).data, exp_spectral(a, 1).data)


@pytest.mark.parametrize("c", [-1e300, -1e308])
def test_exp_of_a_huge_negative_unit_multiple_is_zero(descriptor, c):
    # exp_series halves the argument about 2^1026 times at -1e308; the
    # scale factor must stay a float and the exponential is exactly 0.
    a = unit(descriptor) * c
    for got in (exp_series(a), exp_spectral(a)):
        assert np.array_equal(got.data, zero(descriptor).data)


def test_fallback_threshold_is_in_tested_range():
    assert 5e-7 < DEGENERATE_ROOT_GAP < 1e-3


def _exp_reference(a):
    """exp(a) from a route that shares no code with ``exp_spectral``:
    50-digit mpmath for spin; for the others scipy's ``expm`` of a shifted
    by its top eigenvalue l (expm(L_a) 1 on albert), times e^l, which keeps
    the reference accurate on a spectrum hundreds wide."""
    if a.descriptor.kind == "spin":
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            s, v = mpmath.mpf(float(a.data[0])), [mpmath.mpf(x) for x in a.data[1:].tolist()]
            r = mpmath.sqrt(mpmath.fsum(x * x for x in v))
            ratio = mpmath.sinh(r) / r if r else mpmath.mpf(1)
            exact = [mpmath.exp(s) * mpmath.cosh(r)] + [mpmath.exp(s) * ratio * x for x in v]
            return algebras.Element(a.descriptor, np.array([float(x) for x in exact]))
    top = float(spectrum(a)[-1])
    shifted = a - unit(a.descriptor) * top
    if a.descriptor.kind == "albert":
        want = albert_exp_oracle(shifted).data
    else:
        want = expm(shifted.data)
        want = 0.5 * (want + want.conj().T)
    return algebras.Element(a.descriptor, want * np.exp(top))


# (centre c, norm w) of a seeded element of norm w plus c times the unit,
# whose spectrum lies in [c - w, c + w]: spectra spread over [-1500, 700],
# norms down to 1e-300, and two spectra past the float range of exp.  A
# spectrum past the float range itself follows them.
EDGE_SPECTRA = [(0.0, 700.0), (-400.0, 1100.0), (-1000.0, 500.0), (-1450.0, 50.0),
                (650.0, 50.0), (-5.0, 1e-12), (0.0, 1e-150), (0.0, 1e-300), (3.0, 1e-300),
                (720.0, 5.0), (800.0, 50.0)]


def _edge_elements(descriptor):
    for centre, width in EDGE_SPECTRA:
        for seed in range(3):
            yield random_element(descriptor, 900 + seed, width) + unit(descriptor) * centre
    yield spectrum_past_the_float_range(descriptor)
    if descriptor.kind == "spin":
        # r = 0 takes the divided difference at one root, r = 1e-300 a tiny gap.
        k = descriptor.dim
        for s in (-760.0, 0.0, 3.0, 700.0):
            yield spin_element(s, np.zeros(k))
            yield spin_element(s, [1e-300] + [0.0] * (k - 1))


def test_exp_spectral_edge_of_the_float_range(descriptor):
    # One overflow rule for every family: never OverflowError; a payload
    # holding an inf or a NaN where e^top leaves the float range, and
    # 1e-11 relative agreement with an independent reference inside it.
    checked = 0
    for a in _edge_elements(descriptor):
        with np.errstate(over="ignore", invalid="ignore"):
            top = float(spectrum(a)[-1])
            if top > math.log(sys.float_info.max):
                assert not np.isfinite(exp_spectral(a).data).all(), top
                continue
        got, want = exp_spectral(a), _exp_reference(a)
        assert np.isfinite(got.data).all(), top
        assert rel_gap(got, want) < 1e-11, (top, float(spectrum(a)[0]))
        checked += 1
    assert checked >= 27


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
def test_exp_of_a_matrix_payload_past_the_float_range_is_nan(matrix_descriptor, value, where):
    # No LAPACK routine sees such a payload: its decomposition is NaN.
    data = unit(matrix_descriptor).data.copy()
    data[where] = data[where[::-1]] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with trotter._quiet():
            got = exp_spectral(Element(matrix_descriptor, data))
    assert np.isnan(got.data).any()


def test_exp_large_norm_still_accurate():
    # scaling and squaring keeps the series route stable well past norm 1
    m = np.random.default_rng(98).standard_normal((5, 5))
    a = sym_element(2.0 * (m + m.T))
    assert rel_gap(exp_series(a), exp_spectral(a)) < 5e-12


def test_exact_one_dimensional_check():
    a = sym_element([[0.7]])
    assert float(exp_spectral(a).data[0, 0]) == pytest.approx(np.exp(0.7), rel=1e-15)
