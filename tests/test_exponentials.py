"""Exponential routes: spectral form vs series form vs scipy."""

import numpy as np
import pytest
from scipy.linalg import expm

from jbtrotter import algebras
from jbtrotter.algebras import (
    DEGENERATE_ROOT_GAP,
    AlgebraDescriptor,
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
from assoc_oracle import embed_herm3, extract_herm3, to_matrix
from conftest import rel_gap

RNG = np.random.default_rng(99)


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
    for _ in range(25):
        m = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
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


def _albert_with_root_gap(gap: float):
    # diagonal roots (0, gap, 1) rotated by a fixed unitary mix so the
    # element is dense, spectrum preserved
    m = np.diag([0.0, gap, 1.0]).astype(complex)
    q, _ = np.linalg.qr(
        np.array(
            [[1.0, 0.4 + 0.2j, -0.3], [0.1j, 1.0, 0.5], [0.2, -0.1 + 0.3j, 1.0]]
        )
    )
    return embed_herm3(q @ m @ q.conj().T)


def _count_series(monkeypatch) -> list:
    # Family code reaches exp_series through the module name at call time.
    calls = []
    series = algebras.exp_series
    monkeypatch.setattr(algebras, "exp_series", lambda a: calls.append(a) or series(a))
    return calls


@pytest.mark.parametrize("gap", [1e-3, 1e-5, 2e-6, 1.01e-6, 0.99e-6, 5e-7, 1e-8])
def test_exp_albert_near_degenerate_straddles_fallback(gap, monkeypatch):
    # gaps on both sides of DEGENERATE_ROOT_GAP must agree with the series,
    # and the fallback decision is relative to the norm: the same at every
    # scale for gaps clearly on one side of the threshold
    calls = _count_series(monkeypatch)
    for scale in (1.0, 1e-3, 1e-7):
        a = _albert_with_root_gap(gap) * scale
        calls.clear()
        got = exp_spectral(a)
        if not 0.5 < gap / DEGENERATE_ROOT_GAP < 2.0:
            assert len(calls) == (gap < DEGENERATE_ROOT_GAP), scale
        assert rel_gap(got, exp_series(a)) < 1e-11, scale


@pytest.mark.parametrize("norm", [1e-12, 1e-9, 1e-7])
def test_small_albert_elements_keep_the_closed_form(norm, monkeypatch):
    # Roots well apart relative to the norm take the Newton form however
    # small the element is.
    calls = _count_series(monkeypatch)
    desc = AlgebraDescriptor("albert", 3)
    for seed in range(20):
        a = random_element(desc, seed, norm)
        got = exp_spectral(a)
        assert rel_gap(got, exp_series(a)) < 1e-15
    assert calls == []


def test_albert_zero_and_unit_multiples_take_the_series(monkeypatch):
    # Their root gaps are exactly 0, at or below any relative threshold.
    calls = _count_series(monkeypatch)
    one = unit(AlgebraDescriptor("albert", 3))
    for a in (zero(one.descriptor), one, one * -3.0, one * 1e-9):
        assert rel_gap(exp_spectral(a), exp_series(a)) < 1e-15
    assert len(calls) == 4


@pytest.mark.parametrize("diag", [(-400.0, 350.0, 351.0), (-750.0, -45.0, -44.0)])
def test_wide_albert_spectrum_keeps_every_eigenvalue(diag):
    # A spread past the float range of exp(l1 - l0), with the exponential
    # itself finite, and a lowest root whose exponential underflows: the
    # divided differences must neither overflow nor drop the upper roots.
    z = np.zeros(8)
    got = exp_spectral(albert_element(np.array(diag), z, z, z))
    want = albert_element(np.exp(np.array(diag)), z, z, z)
    np.testing.assert_allclose(got.data, want.data, rtol=1e-10, atol=0)


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


@pytest.mark.parametrize("bad", [0, -1, 1.5, True])
def test_exp_spectral_rejects_bad_divisors(descriptor, bad):
    with pytest.raises(ValueError, match="divisor d must be a positive integer"):
        exp_spectral(random_element(descriptor, 1), bad)


@pytest.mark.parametrize("c", [-1e300, -1e308])
def test_exp_of_a_huge_negative_unit_multiple_is_zero(descriptor, c):
    # exp_series halves the argument about 2^1026 times at -1e308; the
    # scale factor must stay a float and the exponential is exactly 0.
    a = unit(descriptor) * c
    for got in (exp_series(a), exp_spectral(a)):
        assert np.array_equal(got.data, zero(descriptor).data)


def test_fallback_threshold_is_in_tested_range():
    assert 5e-7 < DEGENERATE_ROOT_GAP < 1e-3


def test_exp_large_norm_still_accurate():
    # scaling and squaring keeps the series route stable well past norm 1
    m = RNG.standard_normal((5, 5))
    a = sym_element(2.0 * (m + m.T))
    assert rel_gap(exp_series(a), exp_spectral(a)) < 5e-12


def test_exact_one_dimensional_check():
    a = sym_element([[0.7]])
    assert float(exp_spectral(a).data[0, 0]) == pytest.approx(np.exp(0.7), rel=1e-15)
