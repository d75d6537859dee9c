"""Core algebra layer: constructors, products, spectra, norms.

Matrix families are checked against plain numpy symmetrized products, the
exceptional family against the complex 3x3 Hermitian subalgebra sitting
inside it (octonion coordinates 0 and 1 only).
"""

import numpy as np
import pytest

from jbtrotter.algebras import (
    AlgebraDescriptor,
    DescriptorMismatchError,
    Element,
    albert_element,
    albert_parts,
    exp_series,
    exp_spectral,
    herm_element,
    jb_norm,
    jordan_mul,
    jordan_power,
    parse_descriptor,
    quad_map,
    random_element,
    spectrum,
    spin_element,
    sym_element,
    triple_product,
    unit,
    zero,
)
from assoc_oracle import (
    embed_herm3,
    embed_sym3,
    extract_herm3,
    jprod,
    jtriple,
    to_matrix,
)
from conftest import STANDARD_DESCRIPTORS, rel_gap, seeded_elements

RNG = np.random.default_rng(7)


def rand_sym(d=4):
    m = RNG.standard_normal((d, d))
    return sym_element(m + m.T)


def rand_herm(d=4):
    m = RNG.standard_normal((d, d)) + 1j * RNG.standard_normal((d, d))
    return herm_element(m + m.conj().T)


# ---------------------------------------------------------------------------
# descriptors


def test_parse_descriptor_round_trip():
    for text in ("sym:6", "herm:4", "spin:8", "albert:3"):
        assert str(parse_descriptor(text)) == text


def test_parse_descriptor_albert_shorthand():
    assert parse_descriptor("albert") == AlgebraDescriptor("albert", 3)


@pytest.mark.parametrize("bad", ["sym", "sym:x", "frob:3", "albert:4", "sym:0"])
def test_parse_descriptor_rejects(bad):
    with pytest.raises(ValueError):
        parse_descriptor(bad)


def test_is_special_flag():
    flags = {d.kind: d.is_special for d in STANDARD_DESCRIPTORS}
    assert flags == {"sym": True, "herm": True, "spin": False, "albert": False}


# ---------------------------------------------------------------------------
# element construction and linear structure


def test_sym_constructor_validates():
    with pytest.raises(ValueError):
        sym_element([[0.0, 1.0], [0.5, 0.0]])  # not symmetric
    with pytest.raises(ValueError):
        sym_element(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        sym_element([[np.nan, 0.0], [0.0, 0.0]])


def test_herm_constructor_validates():
    with pytest.raises(ValueError):
        herm_element([[0.0, 1j], [1j, 0.0]])  # skew, not Hermitian
    ok = herm_element([[1.0, 2 - 1j], [2 + 1j, -3.0]])
    assert ok.descriptor == AlgebraDescriptor("herm", 2)


def test_spin_constructor():
    e = spin_element(2.0, [1.0, 0.0, -1.0])
    assert e.descriptor == AlgebraDescriptor("spin", 3)
    assert np.array_equal(e.data, [2.0, 1.0, 0.0, -1.0])
    with pytest.raises(ValueError):
        spin_element(1.0, [])


def test_albert_constructor_and_parts():
    diag = [1.0, 2.0, 3.0]
    x, y, z = RNG.standard_normal((3, 8))
    e = albert_element(diag, x, y, z)
    d2, x2, y2, z2 = albert_parts(e)
    assert np.array_equal(d2, diag)
    for got, want in ((x2, x), (y2, y), (z2, z)):
        assert np.array_equal(got, want)
    # conjugate mirror is stored explicitly
    assert np.array_equal(e.data[2, 1, 1:], -x[1:])
    assert e.data[2, 1, 0] == x[0]
    with pytest.raises(ValueError):
        albert_element([1.0, 2.0], x, y, z)


def test_element_data_is_immutable():
    e = rand_sym()
    with pytest.raises((ValueError, RuntimeError)):
        e.data[0, 0] = 99.0


def test_linear_ops_and_scalars():
    a, b = rand_sym(), rand_sym()
    assert (a + b) - b == a or jb_norm((a + b) - b - a) < 1e-12
    assert 2.0 * a == a * 2.0
    assert jb_norm((a / 2.0) * 2.0 - a) == 0.0
    assert -(-a) == a
    with pytest.raises(TypeError):
        a * (1.0 + 2.0j)


@pytest.mark.parametrize(
    "desc, dtype",
    [(AlgebraDescriptor("sym", 3), np.float64), (AlgebraDescriptor("herm", 3), np.complex128)],
    ids=["sym", "herm"],
)
def test_matrix_payload_dtype_is_kept(desc, dtype):
    # sym and herm share their code paths and differ only in dtype.
    constructor = sym_element if desc.kind == "sym" else herm_element
    a = random_element(desc, 3, 0.7)
    b = random_element(desc, 4, 0.5)
    results = {
        "constructor": constructor(np.eye(3)),
        "unit": unit(desc),
        "zero": zero(desc),
        "random_element": a,
        "add": a + b,
        "scale": 2.0 * a,
        "jordan_mul": jordan_mul(a, b),
        "exp_spectral": exp_spectral(a),
        "exp_series": exp_series(a),
    }
    assert {name: e.data.dtype for name, e in results.items()} == dict.fromkeys(results, dtype)


def test_descriptor_mismatch_raises():
    a = rand_sym(3)
    b = rand_sym(4)
    with pytest.raises(DescriptorMismatchError):
        _ = a + b
    with pytest.raises(DescriptorMismatchError):
        jordan_mul(a, spin_element(1.0, [0.0, 0.0, 1.0]))


# ---------------------------------------------------------------------------
# products against the associative oracle


def test_jordan_mul_matches_matrix_oracle():
    for make in (rand_sym, rand_herm):
        for _ in range(30):
            a, b = make(), make()
            got = to_matrix(jordan_mul(a, b))
            want = jprod(to_matrix(a), to_matrix(b))
            assert np.allclose(got, want, atol=1e-12)


def test_spin_product_closed_form():
    a = spin_element(2.0, [1.0, 0.0, 3.0])
    b = spin_element(-1.0, [0.5, 2.0, 0.0])
    c = jordan_mul(a, b)
    # (st + <v,w>, sw + tv) by hand
    assert np.allclose(c.data, [-1.5, 0.0, 4.0, -3.0])


def test_albert_product_matches_embedded_herm3():
    for _ in range(30):
        m1 = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
        m2 = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
        m1 = m1 + m1.conj().T
        m2 = m2 + m2.conj().T
        prod = jordan_mul(embed_herm3(m1), embed_herm3(m2))
        assert np.allclose(extract_herm3(prod), jprod(m1, m2), atol=1e-12)


def test_albert_product_matches_embedded_sym3():
    m1 = np.array([[1.0, 2.0, 0.0], [2.0, -1.0, 3.0], [0.0, 3.0, 0.5]])
    m2 = np.array([[0.0, 1.0, -1.0], [1.0, 2.0, 0.0], [-1.0, 0.0, 1.0]])
    prod = jordan_mul(embed_sym3(m1), embed_sym3(m2))
    assert np.allclose(extract_herm3(prod).real, jprod(m1, m2), atol=1e-12)
    assert np.allclose(extract_herm3(prod).imag, 0.0, atol=1e-12)


def test_commutativity_all_families(descriptor):
    a, b = seeded_elements(descriptor, 2, 11)
    assert jb_norm(jordan_mul(a, b) - jordan_mul(b, a)) == 0.0


def test_unit_is_identity(descriptor):
    a = random_element(descriptor, 5)
    one = unit(descriptor)
    assert rel_gap(jordan_mul(a, one), a) < 1e-15
    assert jb_norm(one) == 1.0
    assert jb_norm(a + zero(descriptor) - a) == 0.0


def test_triple_product_matches_matrix_oracle():
    for make in (rand_sym, rand_herm):
        for _ in range(20):
            a, b, c = make(), make(), make()
            got = to_matrix(triple_product(a, b, c))
            want = jtriple(to_matrix(a), to_matrix(b), to_matrix(c))
            assert np.allclose(got, want, atol=1e-11)


def test_triple_product_outer_symmetry(descriptor):
    a, b, c = seeded_elements(descriptor, 3, 23)
    assert rel_gap(triple_product(a, b, c), triple_product(c, b, a)) < 1e-14


def test_quad_map_is_triple_with_repeated_outer(descriptor):
    a, b = seeded_elements(descriptor, 2, 29)
    assert jb_norm(quad_map(a, b) - triple_product(a, b, a)) < 1e-14


def test_quad_map_positivity(descriptor):
    # U_A maps squares to elements with nonnegative spectrum
    for i in range(50):
        a = random_element(descriptor, 1000 + i)
        b = random_element(descriptor, 2000 + i)
        image = quad_map(a, jordan_mul(b, b))
        lo = float(spectrum(image).eigenvalues.min())
        assert lo >= -1e-10 * max(1.0, jb_norm(image))


def test_jordan_power_matches_matrix_power():
    for make in (rand_sym, rand_herm):
        a = make()
        m = to_matrix(a)
        for n in (0, 1, 2, 3, 7, 16, 64):
            got = to_matrix(jordan_power(a, n))
            want = np.linalg.matrix_power(m, n)
            assert np.allclose(got, want, atol=1e-9 * max(1.0, np.abs(want).max()))


def test_power_associativity(descriptor):
    # A^i o A^j = A^(i+j) must hold even where the algebra is not special
    a = random_element(descriptor, 37, 0.9)
    for i, j in ((1, 2), (2, 2), (2, 3), (4, 3)):
        lhs = jordan_mul(jordan_power(a, i), jordan_power(a, j))
        rhs = jordan_power(a, i + j)
        assert rel_gap(lhs, rhs) < 1e-12


def test_jordan_product_not_associative(descriptor):
    a, b, c = seeded_elements(descriptor, 3, 41)
    lhs = jordan_mul(jordan_mul(a, b), c)
    rhs = jordan_mul(a, jordan_mul(b, c))
    assert jb_norm(lhs - rhs) > 1e-3


# ---------------------------------------------------------------------------
# spectra and norms


def test_spectrum_matrix_families():
    for make in (rand_sym, rand_herm):
        a = make()
        want = np.linalg.eigvalsh(to_matrix(a))
        got = spectrum(a).eigenvalues
        assert np.allclose(got, want, atol=1e-10)
        assert np.all(np.diff(got) >= 0.0)


def test_spectrum_spin_closed_form():
    e = spin_element(0.5, [3.0, 0.0, 4.0])
    got = spectrum(e).eigenvalues
    assert np.allclose(got, [0.5 - 5.0, 0.5 + 5.0])
    assert jb_norm(e) == pytest.approx(5.5)


def test_spectrum_albert_diagonal():
    e = albert_element([3.0, 1.0, 2.0], np.zeros(8), np.zeros(8), np.zeros(8))
    assert np.allclose(spectrum(e).eigenvalues, [1.0, 2.0, 3.0], atol=1e-12)


def test_spectrum_albert_matches_embedded_herm3():
    for _ in range(40):
        m = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
        m = m + m.conj().T
        got = spectrum(embed_herm3(m)).eigenvalues
        want = np.linalg.eigvalsh(m)
        assert np.allclose(got, want, atol=1e-9 * max(1.0, np.abs(want).max()))


def test_jb_norm_is_max_abs_eigenvalue(descriptor):
    a = random_element(descriptor, 53, 2.0)
    eigs = spectrum(a).eigenvalues
    assert jb_norm(a) == pytest.approx(float(np.abs(eigs).max()), rel=1e-12)


def test_jb_norm_homogeneous_and_subadditive(descriptor):
    a, b = seeded_elements(descriptor, 2, 59)
    assert jb_norm(-3.0 * a) == pytest.approx(3.0 * jb_norm(a), rel=1e-12)
    assert jb_norm(a + b) <= jb_norm(a) + jb_norm(b) + 1e-12


# ---------------------------------------------------------------------------
# seeded generation


def test_random_element_deterministic(descriptor):
    a = random_element(descriptor, 12345, 1.5)
    b = random_element(descriptor, 12345, 1.5)
    assert a == b


def test_random_element_seed_sensitivity(descriptor):
    a = random_element(descriptor, 1)
    b = random_element(descriptor, 2)
    assert jb_norm(a - b) > 1e-6


def test_random_element_hits_target_norm(descriptor):
    for target in (0.25, 1.0, 3.0):
        a = random_element(descriptor, 17, target)
        assert jb_norm(a) == pytest.approx(target, rel=1e-12)
