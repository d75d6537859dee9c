"""Octonion arithmetic on length-8 real coefficient vectors.

Coefficient layout: index 0 is the real part, indices 1..7 are the
imaginary units.  Multiplication follows the Cayley-Dickson doubling

    (a, b)(c, d) = (a c - conj(d) b,  d a + b conj(c))

applied twice above the complex numbers.  No multiplication table is
typed in by hand; a dense structure tensor is derived once at import by
running the doubling recursion on the basis vectors.  ``mul`` and
``matmul`` apply left-multiplication matrices read from that tensor, so
they accept stacked operands (any leading shape in front of the trailing
octonion axis of length 8) and stay inside numpy; nothing else reads it.

Conjugation multiplies by a sign vector that negates every coefficient
except the real part, the norm form is the plain Euclidean square.
Octonions are alternative but not associative; the composition identity
norm(xy) = norm(x) norm(y) holds.
"""

from __future__ import annotations

import numpy as np

DIM = 8

BASIS = np.eye(DIM)
BASIS.setflags(write=False)
ONE = BASIS[0]  # a view of read-only BASIS, so read-only too

# Conjugation as a factor on the last axis (multiplying by -1 is exact); its
# first h entries conjugate the length-h halves of the doubling recursion.
_CONJ_SIGN = np.array([1.0] + [-1.0] * (DIM - 1))
_CONJ_SIGN.setflags(write=False)


def _cd_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Reference product by direct Cayley-Dickson recursion on the last
    axis, broadcast over the leading axes of x and y."""
    n = x.shape[-1]
    if n == 1:
        return x * y
    h = n // 2
    a, b = x[..., :h], x[..., h:]
    c, d = y[..., :h], y[..., h:]
    sign = _CONJ_SIGN[:h]
    return np.concatenate([_cd_mul(a, c) - _cd_mul(sign * d, b),
                           _cd_mul(d, a) + _cd_mul(b, sign * c)], axis=-1)


# STRUCTURE[i, j, k]: coefficient of e_k in the product e_i e_j, from one
# recursion over every pair of basis vectors.
STRUCTURE = _cd_mul(BASIS[:, None], BASIS[None])
STRUCTURE.setflags(write=False)

# STRUCTURE as a read-only (8, 64) view: an octonion x times it gives, at
# column 8 j + k, the coefficient of e_k in x e_j, i.e. the matrix of the
# left multiplication y -> x y.  Each column holds one entry +-1, so the
# matrix is exact.
_LEFT_MUL = STRUCTURE.reshape(DIM, DIM * DIM)


def mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Octonion product, broadcast over leading axes: y times the
    left-multiplication matrix of x."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    left = (x @ _LEFT_MUL).reshape(x.shape[:-1] + (DIM, DIM))
    return (y[..., None, :] @ left)[..., 0, :]


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a @ b)[p, q] = sum_c a[p, c] b[c, q] for 3x3 octonion matrices,
    payloads (..., 3, 3, 8) with the same leading axes: every a[p, c]
    becomes its left-multiplication matrix, and one batched matmul applies
    them to the columns of b, summing over (c, j)."""
    lead = a.shape[:-3]
    left = (a.reshape(-1, 8) @ _LEFT_MUL).reshape(lead + (3, 24, 8))
    return b.swapaxes(-3, -2).reshape(lead + (1, 3, 24)) @ left


def conj(x: np.ndarray) -> np.ndarray:
    """Conjugate, a new array: the imaginary coefficients negated."""
    return np.multiply(x, _CONJ_SIGN)


def real_part(x: np.ndarray) -> np.ndarray:
    return np.asarray(x)[..., 0]


def norm_form(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    return (x * x).sum(axis=-1)
