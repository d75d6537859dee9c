"""Octonion layer: the kernels behind mul and matmul vs an independent
hand-written table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jbtrotter import octonion
from assoc_oracle import oct_mul_table

RNG = np.random.default_rng(20260817)


def rand_oct():
    return RNG.standard_normal(8)


coeff = st.floats(-4.0, 4.0, allow_nan=False)
oct_vec = st.lists(coeff, min_size=8, max_size=8).map(np.array)


def test_structure_tensor_matches_hand_table_on_basis():
    # every basis product entry is exactly 0 or +-1 in both routes
    for i in range(8):
        for j in range(8):
            lhs = octonion.mul(octonion.BASIS[i], octonion.BASIS[j])
            rhs = oct_mul_table(octonion.BASIS[i], octonion.BASIS[j])
            assert np.array_equal(lhs, rhs), (i, j)


def test_mul_matches_table_on_random_vectors():
    for _ in range(200):
        x, y = rand_oct(), rand_oct()
        assert np.allclose(octonion.mul(x, y), oct_mul_table(x, y), atol=1e-12)


def test_mul_broadcasts_over_leading_axes():
    xs = RNG.standard_normal((5, 8))
    ys = RNG.standard_normal((5, 8))
    batched = octonion.mul(xs, ys)
    for k in range(5):
        assert np.allclose(batched[k], octonion.mul(xs[k], ys[k]))


@pytest.mark.parametrize("xshape, yshape", [((5, 8), (8,)), ((8,), (5, 8)), ((2, 1, 8), (3, 8))])
def test_mul_broadcasts_mixed_leading_shapes_bit_for_bit(xshape, yshape):
    xs, ys = RNG.standard_normal(xshape), RNG.standard_normal(yshape)
    batched = octonion.mul(xs, ys)
    bx, by = np.broadcast_arrays(xs, ys)
    assert batched.shape == bx.shape
    for idx in np.ndindex(bx.shape[:-1]):
        assert batched[idx].tobytes() == octonion.mul(bx[idx], by[idx]).tobytes(), idx


def test_matmul_matches_table_entry_by_entry():
    # Full (3, 3, 8) payloads: every coordinate filled, no Hermitian
    # structure, so each entry product goes through the whole table.
    for _ in range(20):
        a, b = RNG.standard_normal((2, 3, 3, 8))
        got = octonion.matmul(a, b)
        for p in range(3):
            for q in range(3):
                want = sum(oct_mul_table(a[p, c], b[c, q]) for c in range(3))
                assert np.abs(got[p, q] - want).max() <= 1e-14 * np.abs(want).max(), (p, q)


def test_conj_negates_the_imaginary_part_into_a_new_array():
    x = RNG.standard_normal((4, 8))
    x[0, :3] = [0.0, -0.0, 0.0]
    before = x.copy()
    want = x.copy()
    want[..., 1:] = -want[..., 1:]
    got = octonion.conj(x)
    assert not np.shares_memory(got, x)
    assert got.tobytes() == want.tobytes()
    assert x.tobytes() == before.tobytes()


def test_unit_element():
    x = rand_oct()
    assert np.allclose(octonion.mul(octonion.ONE, x), x)
    assert np.allclose(octonion.mul(x, octonion.ONE), x)


def test_imaginary_units_square_to_minus_one():
    for i in range(1, 8):
        sq = octonion.mul(octonion.BASIS[i], octonion.BASIS[i])
        assert np.array_equal(sq, -octonion.ONE)


@given(oct_vec, oct_vec)
@settings(max_examples=150, deadline=None)
def test_composition_identity(x, y):
    # norm(xy) = norm(x) norm(y), the defining property of a composition algebra
    lhs = octonion.norm_form(octonion.mul(x, y))
    rhs = octonion.norm_form(x) * octonion.norm_form(y)
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + rhs)


@given(oct_vec, oct_vec)
@settings(max_examples=150, deadline=None)
def test_alternativity(x, y):
    xx = octonion.mul(x, x)
    scale = 1.0 + float(np.abs(x).max()) ** 2 * float(np.abs(y).max())
    left = octonion.mul(x, octonion.mul(x, y)) - octonion.mul(xx, y)
    right = octonion.mul(octonion.mul(y, x), x) - octonion.mul(y, xx)
    assert float(np.abs(left).max()) <= 1e-10 * scale
    assert float(np.abs(right).max()) <= 1e-10 * scale


def test_moufang_identity():
    # z(x(zy)) = ((zx)z)y, one of the Moufang laws
    for _ in range(50):
        x, y, z = rand_oct(), rand_oct(), rand_oct()
        lhs = octonion.mul(z, octonion.mul(x, octonion.mul(z, y)))
        rhs = octonion.mul(octonion.mul(octonion.mul(z, x), z), y)
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_not_associative():
    e1, e2, e4 = octonion.BASIS[1], octonion.BASIS[2], octonion.BASIS[4]
    lhs = octonion.mul(octonion.mul(e1, e2), e4)
    rhs = octonion.mul(e1, octonion.mul(e2, e4))
    assert float(np.abs(lhs - rhs).max()) > 1.0  # differ by a full basis flip


def test_conj_is_an_antiautomorphism():
    for _ in range(50):
        x, y = rand_oct(), rand_oct()
        lhs = octonion.conj(octonion.mul(x, y))
        rhs = octonion.mul(octonion.conj(y), octonion.conj(x))
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_norm_form_via_conjugate():
    x = rand_oct()
    xxbar = octonion.mul(x, octonion.conj(x))
    assert np.allclose(xxbar, octonion.norm_form(x) * octonion.ONE, atol=1e-12)


def test_real_part_symmetric_in_product():
    x, y = rand_oct(), rand_oct()
    a = octonion.real_part(octonion.mul(x, y))
    b = octonion.real_part(octonion.mul(y, x))
    assert abs(float(a) - float(b)) < 1e-12


def test_structure_tensor_is_locked():
    with pytest.raises((ValueError, RuntimeError)):
        octonion.STRUCTURE[0, 0, 0] = 5.0
