"""Octonion arithmetic on length-8 real coefficient vectors.

Coefficient layout: index 0 is the real part, indices 1..7 are the
imaginary units.  Multiplication follows the Cayley-Dickson doubling

    (a, b)(c, d) = (a c - conj(d) b,  d a + b conj(c))

applied twice above the complex numbers.  No multiplication table is
typed in by hand; a dense structure tensor is derived once at import by
running the doubling recursion on the basis vectors.  ``mul`` contracts
against that tensor, so it accepts stacked operands (any leading shape
with a trailing axis of length 8) and stays inside numpy.

Conjugation negates every coefficient except the real part, the norm
form is the plain Euclidean square.  Octonions are alternative but not
associative; the composition identity norm(xy) = norm(x) norm(y) holds.
"""

from __future__ import annotations

import numpy as np

DIM = 8


def _cd_conj(x: np.ndarray) -> np.ndarray:
    out = -x
    out[..., 0] = x[..., 0]
    return out


def _cd_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Reference product by direct Cayley-Dickson recursion (1-D inputs)."""
    n = x.shape[-1]
    if n == 1:
        return x * y
    h = n // 2
    a, b = x[:h], x[h:]
    c, d = y[:h], y[h:]
    return np.concatenate([
        _cd_mul(a, c) - _cd_mul(_cd_conj(d), b),
        _cd_mul(d, a) + _cd_mul(b, _cd_conj(c)),
    ])


def _build_structure_tensor() -> np.ndarray:
    basis = np.eye(DIM)
    t = np.zeros((DIM, DIM, DIM))
    for i in range(DIM):
        for j in range(DIM):
            t[i, j] = _cd_mul(basis[i], basis[j])
    return t


# STRUCTURE[i, j, k]: coefficient of e_k in the product e_i e_j.
STRUCTURE = _build_structure_tensor()
STRUCTURE.setflags(write=False)

ONE = np.zeros(DIM)
ONE[0] = 1.0
ONE.setflags(write=False)

BASIS = np.eye(DIM)
BASIS.setflags(write=False)


def mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Octonion product, broadcast over leading axes."""
    return np.einsum("...i,...j,ijk->...k", x, y, STRUCTURE)


def conj(x: np.ndarray) -> np.ndarray:
    out = np.array(x, dtype=float)
    out[..., 1:] = -out[..., 1:]
    return out


def real_part(x: np.ndarray) -> np.ndarray:
    return np.asarray(x)[..., 0]


def norm_form(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    return (x * x).sum(axis=-1)

