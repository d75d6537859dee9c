"""Core algebra layer: constructors, products, spectra, norms.

Matrix families are checked against plain numpy symmetrized products, the
exceptional family against the complex 3x3 Hermitian subalgebra sitting
inside it (octonion coordinates 0 and 1 only).
"""

import copy
import math
import pickle
import re
import sys
import warnings
import weakref

import numpy as np
import pytest

from jbtrotter import algebras, octonion
from jbtrotter.axioms import run_axiom_suite
from jbtrotter.algebras import (
    MAX_PAYLOAD_ENTRIES,
    AlgebraDescriptor,
    CapacityError,
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
    albert_with_roots,
    embed_herm3,
    embed_sym3,
    extract_herm3,
    jprod,
    jtriple,
    random_unitary,
    to_matrix,
)
from jbtrotter.jets import jet_exp, jet_unit, jet_zero, product_step_jet, residual
from jbtrotter.trotter import approx_f, approx_g, approx_h, sweep
from conftest import (
    STANDARD_DESCRIPTORS,
    calls,
    pauli_pair,
    rel_gap,
    rounded_digest,
    seeded_elements,
)
from cli_harness import spectrum_past_the_float_range


def rand_sym(rng, d=4):
    m = rng.standard_normal((d, d))
    return sym_element(m + m.T)


def rand_herm(rng, d=4):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
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


def test_descriptor_payload_cap():
    # Checked on the descriptor alone, so nothing of that size is allocated.
    assert AlgebraDescriptor("sym", 1024).dim == 1024
    assert AlgebraDescriptor("spin", MAX_PAYLOAD_ENTRIES - 1).dim == MAX_PAYLOAD_ENTRIES - 1
    for kind, dim in (("sym", 1025), ("herm", 100000), ("spin", MAX_PAYLOAD_ENTRIES)):
        with pytest.raises(CapacityError, match=f"{kind}:{dim}"):
            AlgebraDescriptor(kind, dim)
    with pytest.raises(CapacityError):
        parse_descriptor("sym:100000")


def test_is_special_flag():
    flags = {d.kind: d.is_special for d in STANDARD_DESCRIPTORS}
    assert flags == {"sym": True, "herm": True, "spin": False, "albert": False}


# ---------------------------------------------------------------------------
# element construction and linear structure


def test_sym_constructor_validates():
    with pytest.raises(ValueError):
        sym_element([[0.0, 1.0], [0.5, 0.0]])  # not symmetric
    with pytest.raises(ValueError):
        sym_element([[0.0, 1e308], [-1e308, 0.0]])  # m - m^T leaves the float range
    with pytest.raises(ValueError):
        sym_element(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        sym_element([[np.nan, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="dim must be a positive integer, got 0"):
        sym_element(np.zeros((0, 0)))


def test_herm_constructor_validates():
    with pytest.raises(ValueError):
        herm_element([[0.0, 1j], [1j, 0.0]])  # skew, not Hermitian
    ok = herm_element([[1.0, 2 - 1j], [2 + 1j, -3.0]])
    assert ok.descriptor == AlgebraDescriptor("herm", 2)
    with pytest.raises(ValueError, match="dim must be a positive integer, got 0"):
        herm_element(np.zeros((0, 0)))


_ZERO8 = np.zeros(8)


@pytest.mark.parametrize("make", [
    lambda: sym_element(np.array([[1 + 5j, 0], [0, 1]])),
    lambda: sym_element([[1 + 5j, 0], [0, 1]]),
    lambda: spin_element(np.complex128(1 + 2j), np.array([3.0])),
    lambda: spin_element(1.0, np.array([3j])),
    lambda: albert_element(np.array([1.0, 2.0, 3j]), _ZERO8, _ZERO8, _ZERO8),
    lambda: albert_element([1.0, 2.0, 3.0], _ZERO8 + 1j, _ZERO8, _ZERO8),
], ids=["sym-array", "sym-list", "spin-s", "spin-v", "albert-diag", "albert-x"])
def test_real_families_refuse_complex_input(make):
    # numpy's float conversion would keep the real part with a ComplexWarning.
    with pytest.raises(TypeError, match="scalars must be real"):
        make()


def test_matrix_constructors_keep_entries_near_the_float_maximum():
    # Symmetrizing must not pass through m + m^T, which overflows here.
    a = sym_element([[1.0, 1e308], [1e308, 1.0]])
    assert a.data[0, 1] == a.data[1, 0] == 1e308
    b = herm_element([[1.0, 1e308 + 1e308j], [1e308 - 1e308j, 1.0]])
    assert b.data[0, 1] == 1e308 + 1e308j and b.data[1, 0] == 1e308 - 1e308j


def test_herm_constructor_refuses_a_defect_whose_modulus_passes_the_float_maximum():
    # |1.5e308 + 1.5e308j| is past the float maximum; the defect is measured
    # on halves, so the refusal keeps its category and raises no warning.
    with pytest.raises(ValueError, match="not Hermitian"):
        herm_element([[0.0, 1.5e308 + 1.5e308j], [0.0, 0.0]])


def _near_maximum_diagonal(kind, top):
    if kind == "albert":
        zero8 = np.zeros(8)
        return albert_element([top, 1.0, 1.0], zero8, zero8, zero8)
    make = sym_element if kind == "sym" else herm_element
    return make(np.diag([top, 1.0]))


@pytest.mark.parametrize("kind", ["sym", "herm", "albert"])
def test_products_whose_value_fits_do_not_overflow(kind):
    # 1.2e154^2 = 1.44e308 and 1.2e154 * 1.1e154 = 1.32e308 both lie in
    # (max / 2, max]: the Hermitian part must not pass through twice them.
    x = _near_maximum_diagonal(kind, 1.2e154)
    y = _near_maximum_diagonal(kind, 1.1e154)
    for got, top in ((jordan_mul(x, x), 1.2e154 * 1.2e154),
                     (jordan_mul(x, y), 1.2e154 * 1.1e154),
                     (jordan_mul(y, x), 1.2e154 * 1.1e154)):
        assert np.array_equal(got.data, _near_maximum_diagonal(kind, top).data)
        assert jb_norm(got) == pytest.approx(top, rel=1e-15)


def test_power_whose_value_fits_does_not_overflow():
    got = jordan_power(sym_element(np.diag([5e102, 1.0])), 3)
    assert got.data[0, 0] == pytest.approx(1.25e308, rel=1e-15)
    assert math.isfinite(jb_norm(got))


def test_spin_constructor():
    e = spin_element(2.0, [1.0, 0.0, -1.0])
    assert e.descriptor == AlgebraDescriptor("spin", 3)
    assert np.array_equal(e.data, [2.0, 1.0, 0.0, -1.0])
    with pytest.raises(ValueError):
        spin_element(1.0, [])


def test_albert_constructor_and_parts():
    diag = [1.0, 2.0, 3.0]
    x, y, z = np.random.default_rng(7).standard_normal((3, 8))
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
    e = rand_sym(np.random.default_rng(8))
    with pytest.raises((ValueError, RuntimeError)):
        e.data[0, 0] = 99.0


def test_linear_ops_and_scalars():
    rng = np.random.default_rng(9)
    a, b = rand_sym(rng), rand_sym(rng)
    assert (a + b) - b == a or jb_norm((a + b) - b - a) < 1e-12
    assert 2.0 * a == a * 2.0
    assert jb_norm((a / 2.0) * 2.0 - a) == 0.0
    assert -(-a) == a
    with pytest.raises(TypeError):
        a * (1.0 + 2.0j)


PAYLOADS = {"sym": ((6, 6), np.float64), "herm": ((4, 4), np.complex128),
            "spin": ((9,), np.float64), "albert": ((3, 3, 8), np.float64)}


def test_payload_shape_and_dtype_are_kept(descriptor):
    # Every operation of a family returns that family's payload layout; sym
    # and herm share their code and differ only in dtype.
    d = descriptor.dim
    constructed = {
        "sym": lambda: sym_element(np.eye(d)),
        "herm": lambda: herm_element(np.eye(d)),
        "spin": lambda: spin_element(1.0, np.zeros(d)),
        "albert": lambda: albert_element(np.ones(3), *np.zeros((3, 8))),
    }[descriptor.kind]()
    a = random_element(descriptor, 3, 0.7)
    b = random_element(descriptor, 4, 0.5)
    results = {
        "constructor": constructed,
        "unit": unit(descriptor),
        "zero": zero(descriptor),
        "random_element": a,
        "add": a + b,
        "scale": 2.0 * a,
        "jordan_mul": jordan_mul(a, b),
        "jordan_square": jordan_mul(a, a),
        "quad_map": quad_map(a, b),
        "exp_spectral": exp_spectral(a),
        "exp_series": exp_series(a),
    }
    want = PAYLOADS[descriptor.kind]
    assert {name: (e.data.shape, e.data.dtype) for name, e in results.items()} == dict.fromkeys(
        results, want)
    assert constructed == unit(descriptor)


def test_descriptor_mismatch_raises():
    rng = np.random.default_rng(10)
    a = rand_sym(rng, 3)
    b = rand_sym(rng, 4)
    with pytest.raises(DescriptorMismatchError):
        _ = a + b
    with pytest.raises(DescriptorMismatchError):
        jordan_mul(a, spin_element(1.0, [0.0, 0.0, 1.0]))


@pytest.mark.parametrize("odd", range(3))
def test_triple_product_refuses_a_foreign_element_in_any_position(odd):
    # The first pair that differs names the mismatch, in its own order.
    rng = np.random.default_rng(11)
    args = [rand_sym(rng, 2), rand_sym(rng, 2), rand_sym(rng, 2)]
    args[odd] = rand_sym(rng, 3)
    pair = "sym:2 and sym:3" if odd else "sym:3 and sym:2"
    with pytest.raises(DescriptorMismatchError, match=f"^cannot combine elements of {pair}$"):
        triple_product(*args)


# ---------------------------------------------------------------------------
# products against the associative oracle


def test_jordan_mul_matches_matrix_oracle():
    rng = np.random.default_rng(12)
    for make in (rand_sym, rand_herm):
        for _ in range(30):
            a, b = make(rng), make(rng)
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
    rng = np.random.default_rng(13)
    for _ in range(30):
        m1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
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


@pytest.mark.parametrize("d", range(1, 10))
def test_matrix_product_matches_the_symmetrized_product_at_every_small_size(d):
    # The product is the Hermitian part of one matmul.  On sym the transpose
    # of xy is yx bit for bit at every size; on herm zgemm rounds (xy)^H and
    # yx differently at some sizes, so there the product is only close.
    rng = np.random.default_rng(100 + d)
    for _ in range(20):
        m = rng.standard_normal((2, d, d))
        x, y = sym_element(m[0] + m[0].T), sym_element(m[1] + m[1].T)
        got = jordan_mul(x, y).data
        assert np.array_equal(got, (x.data @ y.data + y.data @ x.data) / 2)
        assert np.array_equal(got, jordan_mul(y, x).data)
        m = m + 1j * rng.standard_normal((2, d, d))
        x, y = herm_element(m[0] + m[0].conj().T), herm_element(m[1] + m[1].conj().T)
        got = jordan_mul(x, y).data
        want = (x.data @ y.data + y.data @ x.data) / 2
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
        assert np.array_equal(got, got.conj().T)


@pytest.mark.parametrize("k", [1, 2, 8, 33])
def test_spin_product_is_the_closed_form_bit_for_bit(k):
    rng = np.random.default_rng(k)
    for _ in range(50):
        x, y = (spin_element(p[0], p[1:]) for p in rng.standard_normal((2, k + 1)))
        (s, v), (t, w) = (x.data[0], x.data[1:]), (y.data[0], y.data[1:])
        want = np.concatenate([[s * t + v @ w], s * w + t * v])
        assert np.array_equal(jordan_mul(x, y).data, want)
        assert np.array_equal(jordan_mul(y, x).data, want)


def test_albert_product_matches_entrywise_octonion_reference():
    # octonion.mul is itself checked against the hand-derived table.
    for seed in range(8):
        ea, eb = seeded_elements(AlgebraDescriptor("albert", 3), 2, seed)
        a, b = ea.data, eb.data
        want = np.zeros((3, 3, 8))
        for p in range(3):
            for q in range(3):
                for c in range(3):
                    want[p, q] += octonion.mul(a[p, c], b[c, q]) + octonion.mul(b[p, c], a[c, q])
        want *= 0.5
        got = jordan_mul(ea, eb).data
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_albert_kernel_stacks_bit_for_bit():
    # A stacked octonion matmul gives each pair's bits exactly.
    desc = AlgebraDescriptor("albert", 3)
    xs = np.stack([random_element(desc, 40 + k).data for k in range(5)])
    ys = np.stack([random_element(desc, 80 + k).data for k in range(5)])
    stacked = octonion.matmul(xs, ys)
    nested = octonion.matmul(np.stack([xs, ys]), np.stack([ys, xs]))
    for k in range(5):
        assert np.array_equal(stacked[k], octonion.matmul(xs[k], ys[k]))
        assert np.array_equal(nested[0, k], stacked[k])
        assert np.array_equal(nested[1, k], octonion.matmul(ys[k], xs[k]))


def test_albert_square_takes_the_same_bits_as_a_product_of_copies():
    a = random_element(AlgebraDescriptor("albert", 3), 17)
    copy = Element(a.descriptor, a.data.copy())
    assert np.array_equal(jordan_mul(a, a).data, jordan_mul(a, copy).data)


def test_unit_is_identity(descriptor):
    a = random_element(descriptor, 5)
    one = unit(descriptor)
    assert rel_gap(jordan_mul(a, one), a) < 1e-15
    assert jb_norm(one) == 1.0
    assert jb_norm(a + zero(descriptor) - a) == 0.0


def test_triple_product_matches_matrix_oracle():
    rng = np.random.default_rng(14)
    for make in (rand_sym, rand_herm):
        for _ in range(20):
            a, b, c = make(rng), make(rng), make(rng)
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
        lo = float(spectrum(image).min())
        assert lo >= -1e-10 * max(1.0, jb_norm(image))


# The families and mixed norms of the U-operator and trace-identity facts.
U_MAP_FAMILIES = ("sym:2", "sym:3", "sym:6", "herm:2", "herm:3", "herm:4",
                  "spin:3", "spin:8", "albert")
MIXED_NORMS = (0.1, 0.7, 1.0, 3.0, 25.0)


@pytest.mark.parametrize("text", U_MAP_FAMILIES)
def test_four_product_u_map_matches_quad_map(text):
    # U_a(b) = 2 (a.b).a - (a.a).b, four products.  Where a.b and b.a take
    # the same bits, its terms are quad_map's own and so are its bits;
    # otherwise (herm, whose (xy)^H and yx can differ in the last bit) it
    # agrees to roundoff of the scale |a|^2 |b|.
    desc = parse_descriptor(text)
    for i in range(50):
        a = random_element(desc, 3000 + i, MIXED_NORMS[i % 5])
        b = random_element(desc, 4000 + i, MIXED_NORMS[(3 * i + 1) % 5])
        w = jordan_mul(jordan_mul(a, b), a)
        u4 = (w + w) - jordan_mul(jordan_mul(a, a), b)
        want = quad_map(a, b)
        if jordan_mul(a, b).data.tobytes() == jordan_mul(b, a).data.tobytes():
            assert u4.data.tobytes() == want.data.tobytes(), (text, i)
        else:
            scale = jb_norm(a) ** 2 * jb_norm(b)
            assert jb_norm(u4 - want) <= 1e-15 * scale, (text, i)


def test_albert_trace_of_a_square_is_the_payload_sum_of_squares():
    # tr(b.b) is the sum of squares of all 72 payload entries of b: each
    # off-diagonal octonion is stored twice, once as its conjugate.
    desc = parse_descriptor("albert")
    for seed in range(300):
        b = random_element(desc, seed, 0.1 + (seed % 81) / 10)
        trace = albert_parts(jordan_mul(b, b))[0].sum()
        squares = np.sum(b.data * b.data)
        assert trace == pytest.approx(squares, rel=1e-14, abs=0.0), seed


def test_jordan_power_matches_matrix_power():
    rng = np.random.default_rng(15)
    for make in (rand_sym, rand_herm):
        a = make(rng)
        m = to_matrix(a)
        for n in (0, 1, 2, 3, 7, 16, 64):
            got = to_matrix(jordan_power(a, n))
            want = np.linalg.matrix_power(m, n)
            assert np.allclose(got, want, atol=1e-9 * max(1.0, np.abs(want).max()))


def test_jordan_power_refuses_a_bool_exponent():
    a = rand_sym(np.random.default_rng(16))
    for n in (True, False, -1, 2.0):
        with pytest.raises(ValueError, match="exponent must be a nonnegative integer"):
            jordan_power(a, n)
    assert jordan_power(a, 0) == unit(a.descriptor)
    assert jordan_power(a, 1) == a


_A, _B = pauli_pair()
_JET = jet_unit(_A.descriptor, 3)


# (argument, call, low) for every integer-count argument of the library:
# call(value) passes value as that argument, low is its least legal value.
@pytest.mark.parametrize("what, call, low", [
    pytest.param("step count n", lambda v: approx_g([_A, _B], v), 1, id="approx_g"),
    pytest.param("step count n", lambda v: approx_f([_A, _B], v), 1, id="approx_f"),
    pytest.param("step count n", lambda v: approx_h([_A, _B, _A], v), 1, id="approx_h"),
    pytest.param("step count n", lambda v: sweep("g", [_A, _B], [v]), 1, id="sweep"),
    pytest.param("divisor d", lambda v: exp_spectral(_A, v), 1, id="exp_spectral"),
    pytest.param("exponent", lambda v: jordan_power(_A, v), 0, id="jordan_power"),
    pytest.param("dim", lambda v: AlgebraDescriptor("sym", v), 1, id="AlgebraDescriptor"),
    pytest.param("trials", lambda v: run_axiom_suite(_A.descriptor, trials=v), 1,
                 id="run_axiom_suite"),
    pytest.param("degree", lambda v: jet_exp(_A, v), 0, id="jet_exp"),
    pytest.param("degree", lambda v: jet_unit(_A.descriptor, v), 0, id="jet_unit"),
    pytest.param("degree", lambda v: jet_zero(_A.descriptor, v), 0, id="jet_zero"),
    pytest.param("degree", lambda v: product_step_jet([_A, _B], v), 0, id="product_step_jet"),
    pytest.param("through_degree", lambda v: residual(_JET, _JET, v), 0, id="residual"),
])
def test_every_count_argument_follows_the_one_count_rule(what, call, low):
    # One rule for every count: a Python int at or above the argument's
    # least value.  Bools, floats, strings, numpy integers and one below the
    # least value raise a ValueError that names the argument.
    kind = "positive" if low else "nonnegative"
    for bad in (True, 2.5, "3", np.int64(2), low - 1):
        message = f"{what} must be a {kind} integer, got {bad!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            call(bad)
    call(low)


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
    rng = np.random.default_rng(18)
    for make in (rand_sym, rand_herm):
        a = make(rng)
        want = np.linalg.eigvalsh(to_matrix(a))
        got = spectrum(a)
        assert np.allclose(got, want, atol=1e-10)
        assert np.all(np.diff(got) >= 0.0)


def test_spectrum_spin_closed_form():
    e = spin_element(0.5, [3.0, 0.0, 4.0])
    got = spectrum(e)
    assert np.allclose(got, [0.5 - 5.0, 0.5 + 5.0])
    assert jb_norm(e) == pytest.approx(5.5)


def test_spectrum_albert_diagonal():
    z = np.zeros(8)
    e = albert_element([3.0, 1.0, 2.0], z, z, z)
    assert np.allclose(spectrum(e), [1.0, 2.0, 3.0], atol=1e-12)
    # Scalar multiples of the unit are triple roots, which once lost about
    # two thirds of their digits (1.1 read 1.1000076).
    for c in (1.1, 5.7, 0.1, 0.3, 2.0, -3.3, 1e-3, 1e5):
        e = albert_element([c, c, c], z, z, z)
        assert jb_norm(e) == abs(c), c
        assert np.array_equal(spectrum(e), [c, c, c]), c


def test_spectrum_albert_matches_embedded_herm3():
    rng = np.random.default_rng(20)
    for _ in range(40):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = m + m.conj().T
        got = spectrum(embed_herm3(m))
        want = np.linalg.eigvalsh(m)
        assert np.allclose(got, want, atol=1e-9 * max(1.0, np.abs(want).max()))
    # Near-scalar elements c I + delta S sit next to a triple root.
    rng = np.random.default_rng(17)
    for _ in range(300):
        s = rng.standard_normal((3, 3))
        m = rng.uniform(-10.0, 10.0) * np.eye(3) + 10.0 ** rng.uniform(-12, -2) * (s + s.T)
        got = spectrum(embed_herm3(m))
        want = np.linalg.eigvalsh(m)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_jb_norm_is_max_abs_eigenvalue(descriptor):
    a = random_element(descriptor, 53, 2.0)
    eigs = spectrum(a)
    # One eigenvalue routine serves both, so they agree exactly.
    assert jb_norm(a) == float(np.abs(eigs).max())


@pytest.mark.parametrize("eps", [1e-140, 1e-155, 1e-300, 1e-320], ids=str)
def test_tiny_albert_spectrum(eps):
    # Spreads this small once underflowed in the characteristic cubic.
    z = np.zeros(8)
    a = albert_element([eps, 0.0, -eps], z, z, z)
    assert jb_norm(a) == pytest.approx(eps, rel=1e-14)
    eigs = spectrum(a)
    assert np.abs(eigs - [-eps, 0.0, eps]).max() <= 1e-14 * eps


def test_tiny_albert_spectrum_is_the_scaled_spectrum():
    # Every albert spectrum is solved for a copy scaled to unit size, and a
    # power-of-two scaling is exact, so an element with its largest entry
    # in [0.5, 1) and its copies scaled by 2^k have spectra that differ by
    # exactly that factor.
    a = random_element(AlgebraDescriptor("albert", 3), 61)
    a = Element(a.descriptor, np.ldexp(a.data, -np.frexp(np.abs(a.data).max())[1]))
    for shift in (-700, -301, -300, 299, 300, 301, 700):
        scaled = Element(a.descriptor, np.ldexp(a.data, shift))
        assert np.array_equal(spectrum(scaled),
                              np.ldexp(spectrum(a), shift)), shift
        assert jb_norm(scaled) == np.ldexp(jb_norm(a), shift), shift
    # Entries this large once overflowed the cubic's coefficients.
    z = np.zeros(8)
    assert jb_norm(albert_element([1e200, 0.0, 0.0], z, z, z)) == 1e200


def _unit_multiple_plus_tiny(descriptor, c, eps):
    """c 1 plus eps times the first off-diagonal basis element."""
    k = descriptor.dim
    if descriptor.kind == "spin":
        return spin_element(c, [eps] + [0.0] * (k - 1))
    if descriptor.kind == "albert":
        z = [0.0] * 8
        return albert_element([c] * 3, [eps] + z[1:], z, z)
    m = c * np.eye(k)
    m[0, 1] = m[1, 0] = eps
    return (sym_element if descriptor.kind == "sym" else herm_element)(m)


@pytest.mark.parametrize("c", [1.0, -2.0], ids=str)
def test_unit_multiple_plus_a_tiny_part(descriptor, c):
    # On albert, eps from 1e-108 to 1e-149 once put the characteristic
    # cubic's p where the trig root formula's p m rounds to 0, and the
    # spectrum, the norm and the exponential divided by zero.  A fresh
    # element for each: none reads a kept spectrum.
    want = math.exp(c) * unit(descriptor)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(20, 320):
            eps = 10.0 ** -k
            assert np.abs(spectrum(_unit_multiple_plus_tiny(descriptor, c, eps)) - c).max() \
                <= 2 * math.ulp(c), k
            assert jb_norm(_unit_multiple_plus_tiny(descriptor, c, eps)) == abs(c), k
            got = exp_spectral(_unit_multiple_plus_tiny(descriptor, c, eps))
            assert jb_norm(got - want) <= 1e-14 * math.exp(c), k


# Spin parts v of exactly representable length |v|, by test id.  v.v
# overflows above about 1.3e154 and underflows below about 1e-162.
EXACT_SPIN_PARTS = {
    "1e+200": ([1e200, 0.0], 1e200),
    "1e-200": ([1e-200, 0.0], 1e-200),
    "1e-320": ([1e-320, 0.0], 1e-320),
    "3-4-times-2^600": ([3 * 2.0**600, 4 * 2.0**600], 5 * 2.0**600),
    "3-4-times-2^-1000": ([3 * 2.0**-1000, 4 * 2.0**-1000], 5 * 2.0**-1000),
    # Subnormal: 6072, 8096 and 10120 times the smallest positive float.
    "3e-320-4e-320": ([3e-320, 4e-320], 5e-320),
}


@pytest.mark.parametrize("v, length", EXACT_SPIN_PARTS.values(), ids=EXACT_SPIN_PARTS)
def test_spin_spectrum_of_huge_and_tiny_spin_parts(v, length):
    a = spin_element(0.0, v)
    assert jb_norm(a) == length
    assert np.array_equal(spectrum(a), [-length, length])
    if length < 1.0:
        # exp[-|v|, |v|] rounds to 1, so exp(a) = (1, v) keeps v whole.
        assert np.array_equal(exp_spectral(a).data, [1.0, *v])
    # A zero spin part, whose frexp exponent is 0.
    assert jb_norm(spin_element(-2.0, [0.0, 0.0])) == 2.0


def test_spin_norm_is_within_one_ulp_of_the_length():
    # |v| against 50-digit mpmath on 2,100 seeded spin parts of 1 to 257
    # entries, magnitudes 1e-5 to 1e5.  sqrt(v.v) in floats misses by up to
    # 1.4 ulp on such draws.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2024)
    worst = 0.0
    with mpmath.workdps(50):
        for k in (1, 2, 3, 8, 33, 257):
            for _ in range(350):
                v = rng.standard_normal(k) * 10.0 ** rng.uniform(-5.0, 5.0)
                exact = mpmath.sqrt(mpmath.fsum(mpmath.mpf(x) ** 2 for x in v.tolist()))
                got = jb_norm(spin_element(0.0, v))
                ulps = abs(mpmath.mpf(got) - exact) / math.ulp(float(exact))
                worst = max(worst, float(ulps))
    assert worst <= 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=str)
def test_non_finite_element_has_no_finite_norm(descriptor, bad):
    # A NaN or an infinity anywhere in the payload (mirrored on sym and
    # herm) leaves the norm NaN or inf.
    data = unit(descriptor).data
    with np.errstate(all="ignore"):
        for pos in range(data.size):
            x = data.copy()
            x.flat[pos] = bad
            if descriptor.kind in ("sym", "herm"):
                x = x + x.T.conj() - np.diag(np.diag(x))
            a = Element(descriptor, x)
            # The second norm reads the kept spectrum.
            for _ in range(2):
                assert not math.isfinite(jb_norm(a)), pos


def test_spectrum_past_the_float_range_reads_inf_without_a_warning(descriptor):
    # Finite entries, all 0 or 1e308: the top eigenvalue leaves the float
    # range and reads inf on every family, with no numpy warning on the way.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert spectrum(spectrum_past_the_float_range(descriptor))[-1] == math.inf
        # A fresh element: the norm takes the spectrum itself, not a kept one.
        assert jb_norm(spectrum_past_the_float_range(descriptor)) == math.inf


def test_finite_is_isfinite_all_without_a_warning(descriptor):
    # The library's one finiteness test, on the family's payload shape and
    # dtype and on 0-d float and complex arrays, one edge value at a time.
    floats = (0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324)
    complexes = floats + (complex(math.inf, 0.0), complex(0.0, -math.inf),
                          complex(math.nan, 1.0), complex(1e308, 1e308))
    payload = random_element(descriptor, 3).data
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for base in (payload, np.zeros(()), np.zeros((), complex)):
            assert algebras._finite(base)
            for value in complexes if np.iscomplexobj(base) else floats:
                x = base.copy()
                x.flat[-1] = value
                assert algebras._finite(x) == np.isfinite(x).all(), (x.shape, x.dtype, value)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=str)
def test_non_finite_entry_survives_every_step_to_the_error(descriptor, bad):
    # The measuring path checks the error alone, not the scheme product:
    # a NaN or an infinity anywhere in a payload (mirrored on sym and herm)
    # stays in every Jordan product with a finite element, triple product,
    # power, sum and real multiple, and so in the norm of the result.
    b, c = seeded_elements(descriptor, 2, 61)
    data = unit(descriptor).data
    with np.errstate(all="ignore"):
        for pos in range(data.size):
            x = data.copy()
            x.flat[pos] = bad
            if descriptor.kind in ("sym", "herm"):
                x = x + x.T.conj() - np.diag(np.diag(x))
            a = Element(descriptor, x)
            for y in (jordan_mul(a, b), jordan_mul(b, a), quad_map(a, b), quad_map(b, a),
                      triple_product(a, b, c), triple_product(b, a, c),
                      triple_product(b, c, a), jordan_power(a, 3), a + b, b - a,
                      0.0 * a, -2.5 * a):
                assert not np.isfinite(y.data).all(), pos
                assert not math.isfinite(jb_norm(y)), pos


def test_kept_spectrum_and_norm_equal_those_of_a_fresh_copy(descriptor):
    # An element keeps its spectrum once a norm or a spectrum is taken; what
    # it gives later is what a new element on the same payload computes.
    for a in (*seeded_elements(descriptor, 3, 67, 1.3), unit(descriptor) * 2.5,
              zero(descriptor)):
        first_norm, first = jb_norm(a), spectrum(a)
        assert hasattr(a, "_spectrum")
        for _ in range(2):
            fresh = Element(a.descriptor, a.data)
            assert jb_norm(a) == first_norm == jb_norm(fresh)
            np.testing.assert_array_equal(spectrum(a), first)
            np.testing.assert_array_equal(spectrum(a), spectrum(Element(a.descriptor, a.data)))


@pytest.mark.parametrize("text", ("sym:2", "sym:6", "herm:3", "herm:4", "spin:3", "spin:8",
                                  "albert"))
def test_stacked_spectra_equal_spectra_taken_one_at_a_time(text):
    # One stacked eigvals call keeps a spectrum on every element given to
    # _keep_spectra; each has the bits that spectrum takes on a fresh copy,
    # alone.  Norms from 1e-3 to 1e3; a payload holding a NaN, and one
    # holding an inf, each its row of NaN on sym and herm with no warning
    # (which pytest would raise); albert takes no inf, whose Jordan square
    # warns, and adds spectra 1e-12 to 1e-4 from a double root.
    desc = parse_descriptor(text)
    elems = [random_element(desc, 800 + j, 10.0 ** (j - 3)) for j in range(7)]
    for bad in (math.nan,) if desc.kind == "albert" else (math.nan, math.inf):
        x = elems[2].data.copy()
        x.flat[0] = bad
        elems.append(Element(desc, x))
    if desc.kind == "albert":
        # roots (0, gap, 1), then their negatives: the close pair on top
        rng = np.random.default_rng(19)
        elems += [albert_with_roots(random_unitary(rng), roots)
                  for gap in (1e-12, 1e-9, 1e-6, 1e-4)
                  for roots in ([0.0, gap, 1.0], [0.0, -gap, -1.0])]
    eigvals = type(desc._family).eigvals
    with calls(eigvals) as n:
        algebras._keep_spectra(elems)
    assert n[eigvals] == 1

    def bits(x):
        # All but the sign of a NaN: numpy's vector loops carry a NaN
        # through an operation from one operand or the other, so that sign
        # can differ between two runs on one payload.
        return np.where(np.isnan(x), math.nan, x).tobytes()

    for e in elems:
        alone = spectrum(Element(desc, e.data.copy()))
        assert bits(spectrum(e)) == bits(alone), e.data
        if desc.kind in ("sym", "herm") and not np.isfinite(e.data).all():
            assert np.isnan(alone).all()


def test_writing_into_a_spectrum_leaves_the_kept_one(descriptor):
    a = seeded_elements(descriptor, 1, 71)[0]
    vals = spectrum(a)
    norm, want = jb_norm(a), vals.copy()
    vals[:] = 1e300
    np.testing.assert_array_equal(spectrum(a), want)
    assert jb_norm(a) == norm


def test_albert_exponential_leaves_the_caller_no_spectrum():
    # exp works on a / d at every d, d = 1 included, and the series route
    # (here for the multiple of the unit) takes its norm on that new element.
    desc = AlgebraDescriptor("albert", 3)
    for a in (random_element(desc, 73, 1.2), unit(desc) * 0.7):
        for d in (1, 2, 3):
            exp_spectral(a, d)
            assert not hasattr(a, "_spectrum"), (a, d)


def test_a_view_payload_is_copied_so_no_other_array_writes_it():
    x = np.eye(2)
    e = Element(AlgebraDescriptor("sym", 2), x[:])
    assert jb_norm(e) == 1.0
    x[0, 0] = 5.0
    np.testing.assert_array_equal(e.data, np.eye(2))
    assert jb_norm(e) == jb_norm(Element(e.descriptor, e.data)) == 1.0
    assert not e.data.flags.writeable


def test_public_constructors_copy_their_input():
    octs = np.arange(24.0).reshape(3, 8) / 50.0
    for build, inputs in (
        (sym_element, (np.array([[1.0, 0.5], [0.5, -2.0]]),)),
        (herm_element, (np.array([[1.0, 0.5j], [-0.5j, -2.0]]),)),
        (spin_element, (0.3, np.array([0.4, -1.2]))),
        (albert_element, (np.array([1.0, -0.5, 0.2]), *octs.copy())),
    ):
        e = build(*inputs)
        data, norm = e.data.copy(), jb_norm(e)
        for x in inputs:
            if isinstance(x, np.ndarray):
                x[...] = 5.0
        np.testing.assert_array_equal(e.data, data)
        assert jb_norm(e) == norm == jb_norm(Element(e.descriptor, data)), build.__name__


def test_element_equality_and_repr():
    e = sym_element(np.eye(2))
    assert (e == 3) is False and e != 3
    assert e == sym_element(np.eye(2)) and e != zero(e.descriptor)
    assert repr(e) == "Element(sym:2, shape=(2, 2))"
    assert repr(unit(AlgebraDescriptor("albert", 3))) == "Element(albert:3, shape=(3, 3, 8))"


def test_an_element_holds_no_instance_dict(descriptor):
    # Descriptor, payload and kept values each have a slot; nothing else
    # can be set, and pickle and copy rebuild an element from its fields.
    a, b = seeded_elements(descriptor, 2, 83)
    made = [a, unit(descriptor), zero(descriptor), jordan_mul(a, b), exp_spectral(a),
            exp_spectral(b, 3), random_element(descriptor, 5)]
    if descriptor.kind == "sym":
        made.append(sym_element(np.eye(descriptor.dim)))
    elif descriptor.kind == "herm":
        made.append(herm_element(np.eye(descriptor.dim)))
    elif descriptor.kind == "spin":
        made.append(spin_element(0.5, np.ones(descriptor.dim)))
    else:
        made.append(albert_element(np.ones(3), *np.zeros((3, 8))))
    for x in made:
        jb_norm(x)
        exp_spectral(x, 2)
        assert not hasattr(x, "__dict__"), x
        assert hasattr(x, "_spectrum")
        with pytest.raises(AttributeError):
            object.__setattr__(x, "x", 1)
        assert weakref.ref(x)() is x
        for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert y == x and not y.data.flags.writeable
            assert not hasattr(y, "_spectrum") and not hasattr(y, "_eigh")


def test_an_element_on_a_library_payload_shares_it(descriptor):
    # Private copies such as trotter._measure's make no payload copy.
    a, b = seeded_elements(descriptor, 2, 79)
    for x in (a, a + b, -a, 2.0 * a, a / 3.0, jordan_mul(a, b), quad_map(a, b),
              exp_spectral(a, 2), exp_series(a), unit(descriptor), zero(descriptor)):
        assert Element(x.descriptor, x.data).data is x.data


def test_nan_hidden_from_eigvalsh_gives_a_nan_norm():
    # eigvalsh returns [0, -0, 1], [nan, nan, 2] and [0, -0] for these.
    nan = math.nan
    for kind, m in (("sym", np.diag([nan, 1.0, 1.0])),
                    ("sym", np.array([[1.0, nan, 0.0], [nan, 1.0, 0.0], [0.0, 0.0, 2.0]])),
                    ("herm", np.diag([nan, 2.0]).astype(complex))):
        assert math.isnan(jb_norm(Element(AlgebraDescriptor(kind, len(m)), m))), m


def test_real_cubic_roots():
    # (x - 1)(x - 2)(x - 3); double roots whose rounded coefficients put
    # the cosine's argument at 1 + 4e-16 and -1 - 7e-16, so that acos would
    # raise without the clamp to [-1, 1]; a triple root, whose depressed
    # cubic has p = 0; a negative trace.
    for roots in ([1.0, 2.0, 3.0], [0.1, 0.1, 0.5], [-0.3, 0.4, 0.4], [2.0, 2.0, 2.0],
                  [-5.0, -3.0, -0.5]):
        r0, r1, r2 = roots
        got = algebras._real_cubic_roots(
            r0 + r1 + r2, r0 * r1 + r1 * r2 + r0 * r2, r0 * r1 * r2)
        assert type(got) is list and got == sorted(got), roots
        assert all(type(x) is float for x in got), roots
        assert max(abs(x - r) for x, r in zip(got, roots)) <= 1e-14 * max(
            1.0, *map(abs, roots)), roots


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


# Each family's draw from default_rng(0), before the rescale: the payload
# (a complex one as its real and imaginary parts) rounded to 12 digits.
SAMPLE_DIGESTS = {"sym:6": "7851d42c7e3acf13", "herm:4": "65fb7583c58104b2",
                  "spin:8": "2c5fbed47434215a", "albert:3": "979705cae6087004"}


def test_family_samplers_draw_the_pinned_payloads(descriptor):
    draw = descriptor._family.sample(np.random.default_rng(0), descriptor)
    payload = draw.data.view(np.float64).ravel().tolist()
    assert rounded_digest(payload) == SAMPLE_DIGESTS[str(descriptor)]


def test_random_element_continues_a_generator_it_is_given(descriptor):
    # An int seed draws as a fresh default_rng(seed) does, bit for bit; a
    # generator given twice gives its stream's first draw, then its second.
    rng = np.random.default_rng(12345)
    first, second = random_element(descriptor, rng, 1.5), random_element(descriptor, rng, 1.5)
    assert random_element(descriptor, 12345, 1.5).data.tobytes() == first.data.tobytes()
    stream = np.random.default_rng(12345)
    descriptor._family.sample(stream, descriptor)
    assert random_element(descriptor, stream, 1.5).data.tobytes() == second.data.tobytes()
    assert jb_norm(first - second) > 1e-6


def test_random_element_seed_sensitivity(descriptor):
    a = random_element(descriptor, 1)
    b = random_element(descriptor, 2)
    assert jb_norm(a - b) > 1e-6


def test_random_element_hits_target_norm(descriptor):
    for target in (0.25, 1.0, 3.0):
        a = random_element(descriptor, 17, target)
        assert jb_norm(a) == pytest.approx(target, rel=1e-12)


@pytest.mark.parametrize("text", U_MAP_FAMILIES)
def test_random_element_norm_is_the_target_to_within_rounding(text):
    # The one-step rescale rounds, so the drawn norm can land a few ulps
    # above the target (herm:2, seed 11, 0.25 gives 0.25000000000000006).
    desc = parse_descriptor(text)
    for target in (1e-3, 0.2, 0.25, 0.7, 1.0, 3.0, 1e5):
        for seed in range(300):
            ratio = jb_norm(random_element(desc, seed, target)) / target
            assert abs(ratio - 1.0) <= 16 * sys.float_info.epsilon, (target, seed)


@pytest.mark.parametrize("text", ["spin:1", "sym:1", "sym:3", "herm:2"])
def test_random_element_stays_finite_at_a_huge_target_norm(text):
    # target_norm / norm of the draw overflows for these seeds, whose draws
    # have norm below 1; an ordinary target keeps the one-step rescale.
    desc = parse_descriptor(text)
    for seed in range(50):
        a = random_element(desc, seed, 1.7e308)
        assert np.isfinite(a.data).all(), seed
        assert jb_norm(a) == pytest.approx(1.7e308, rel=1e-14), seed
        draw = desc._family.sample(np.random.default_rng(seed), desc)
        assert random_element(desc, seed, 0.8) == draw * (0.8 / jb_norm(draw)), seed
    # At the float maximum a draw either stays finite or is refused.
    for seed in range(50):
        try:
            a = random_element(desc, seed, sys.float_info.max)
        except ValueError as exc:
            assert "past the float range" in str(exc)
        else:
            assert np.isfinite(a.data).all(), seed


def test_albert_draw_is_the_constructor_route_on_the_given_descriptor():
    # The sampler writes the payload itself: the same bits as albert_element
    # on the same draws (diagonal, then x, y, z), on the descriptor it is given.
    desc = AlgebraDescriptor("albert", 3)
    family = desc._family
    for seed in range(200):
        got = family.sample(np.random.default_rng(seed), desc)
        rng = np.random.default_rng(seed)
        diag = rng.standard_normal(3)
        want = albert_element(diag, *rng.standard_normal((3, 8)))
        assert got.descriptor is desc
        assert got.data.tobytes() == want.data.tobytes(), seed
        assert not got.data.flags.writeable


def test_random_element_refuses_a_non_finite_target_norm(descriptor):
    for target in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="target_norm must be finite and positive"):
            random_element(descriptor, 1, target)


def test_random_element_refuses_a_zero_draw(monkeypatch):
    # The zero payload has norm 0: the draw is refused before the rescale
    # would divide by that norm.
    desc = AlgebraDescriptor("sym", 2)
    monkeypatch.setattr(desc._family, "sample", lambda rng, descriptor: zero(descriptor))
    with pytest.raises(RuntimeError, match="degenerate zero draw"):
        random_element(desc, 1)
