"""Independent reference implementations used only by the tests.

Everything here is built on plain numpy arrays and scipy.linalg.expm, with
none of the package's Element machinery.  For matrix families the Jordan
product is realized as the symmetrized associative product, so the package
and this module reach the same quantities along genuinely different routes.
"""

from __future__ import annotations

from functools import cache, reduce

import numpy as np
from scipy.linalg import expm

from jbtrotter.algebras import Element, albert_element, albert_parts


def jprod(x, y):
    return 0.5 * (x @ y + y @ x)


def jtriple(x, y, z):
    # {XYZ} = (XYZ + ZYX)/2 in any associative embedding
    return 0.5 * (x @ y @ z + z @ y @ x)


def to_matrix(e: Element) -> np.ndarray:
    if e.descriptor.kind not in ("sym", "herm"):
        raise ValueError("matrix oracle covers sym and herm only")
    return np.array(e.data)


# Jordan-Wigner: 2k anticommuting Hermitian involutions on k qubits.
_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_PAULI_Y = np.array([[0.0, -1j], [1j, 0.0]])
_PAULI_Z = np.diag([1.0, -1.0])


def _clifford_generators(count: int) -> list[np.ndarray]:
    """``count`` pairwise anticommuting Hermitian matrices squaring to 1."""
    qubits = (count + 1) // 2
    gens = []
    for q in range(qubits):
        for pauli in (_PAULI_X, _PAULI_Y):
            factors = [_PAULI_Z] * q + [pauli] + [np.eye(2)] * (qubits - q - 1)
            gens.append(reduce(np.kron, factors).astype(complex))
    return gens[:count]


def spin_to_matrix(e: Element) -> np.ndarray:
    """(s, v) as s 1 + sum_i v_i gamma_i, an associative embedding of the
    spin factor: the symmetrized product of two images is the image of
    their Jordan product."""
    if e.descriptor.kind != "spin":
        raise ValueError("Clifford embedding covers spin factors only")
    s, v = e.data[0], e.data[1:]
    gens = _clifford_generators(v.size)
    return s * np.eye(gens[0].shape[0]) + sum(c * g for c, g in zip(v, gens))


def spectral_norm(m) -> float:
    return float(np.linalg.norm(np.asarray(m), 2))


def oracle_g(mats, n: int) -> np.ndarray:
    step = reduce(jprod, [expm(a / n) for a in mats])
    return np.linalg.matrix_power(step, n)


def oracle_f(mats, n: int) -> np.ndarray:
    core = expm(mats[0] / n)
    for a in mats[1:]:
        w = expm(a / (2.0 * n))
        # {W core W} collapses to W core W associatively
        core = w @ core @ w
    return np.linalg.matrix_power(core, n)


def oracle_h(mats, n: int) -> np.ndarray:
    if len(mats) < 3 or len(mats) % 2 == 0:
        raise ValueError("odd count >= 3 required")
    f = [expm(a / n) for a in mats]
    core = jtriple(f[1], f[0], f[2])
    k = 3
    while k + 1 < len(f):
        core = jtriple(f[k], core, f[k + 1])
        k += 2
    return np.linalg.matrix_power(core, n)


def oracle_exp_sum(mats) -> np.ndarray:
    return expm(sum(mats))


# Octonion multiplication over the basis, written down by hand from the
# doubling convention (a,b)(c,d) = (ac - conj(d) b, d a + b conj(c)) with
# units e4 = (0,1), e4+i = (0, quaternion unit i).  Each oriented triple
# (a,b,c) states e_a e_b = e_c, cyclically.
FANO_TRIPLES = (
    (1, 2, 3),
    (1, 4, 5),
    (2, 4, 6),
    (3, 4, 7),
    (2, 5, 7),
    (3, 6, 5),
    (1, 7, 6),
)

_SIGN = {}
for _a, _b, _c in FANO_TRIPLES:
    for i, j, k in ((_a, _b, _c), (_b, _c, _a), (_c, _a, _b)):
        _SIGN[i, j] = (1.0, k)
        _SIGN[j, i] = (-1.0, k)


def oct_mul_table(x, y):
    """Tabulated octonion product of two length-8 coefficient vectors."""
    out = [0.0] * 8
    for i in range(8):
        xi = float(x[i])
        if xi == 0.0:
            continue
        for j in range(8):
            yj = float(y[j])
            if yj == 0.0:
                continue
            if i == 0:
                out[j] += xi * yj
            elif j == 0:
                out[i] += xi * yj
            elif i == j:
                out[0] -= xi * yj
            else:
                s, k = _SIGN[i, j]
                out[k] += s * xi * yj
    return np.array(out)


def embed_sym3(m) -> Element:
    """Real symmetric 3x3 matrix as an octonion-Hermitian element."""
    m = np.asarray(m, dtype=float)
    x = np.zeros(8)
    y = np.zeros(8)
    z = np.zeros(8)
    x[0] = m[1, 2]
    y[0] = m[2, 0]
    z[0] = m[0, 1]
    return albert_element(np.diagonal(m).copy(), x, y, z)


def embed_herm3(m) -> Element:
    """Complex Hermitian 3x3 matrix embedded via the first two coordinates."""
    m = np.asarray(m, dtype=complex)
    x = np.zeros(8)
    y = np.zeros(8)
    z = np.zeros(8)
    x[0], x[1] = m[1, 2].real, m[1, 2].imag
    y[0], y[1] = m[2, 0].real, m[2, 0].imag
    z[0], z[1] = m[0, 1].real, m[0, 1].imag
    return albert_element(np.diagonal(m).real.copy(), x, y, z)


def random_unitary(rng) -> np.ndarray:
    """A 3x3 unitary: the Q factor of a complex Gaussian draw from rng."""
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    return q


def albert_with_roots(q, roots) -> Element:
    """The albert element q diag(roots) q^H, through embed_herm3: a dense
    element whose spectrum is the given roots, for a 3x3 unitary q."""
    return embed_herm3(q @ np.diag(roots).astype(complex) @ q.conj().T)


def extract_herm3(e: Element) -> np.ndarray:
    """Inverse of embed_herm3; asserts coordinates beyond the first two vanish."""
    diag, x, y, z = albert_parts(e)
    for part in (x, y, z):
        assert np.max(np.abs(part[2:])) < 1e-12
    m = np.zeros((3, 3), dtype=complex)
    m[0, 0], m[1, 1], m[2, 2] = diag
    m[1, 2] = complex(x[0], x[1])
    m[2, 1] = m[1, 2].conjugate()
    m[2, 0] = complex(y[0], y[1])
    m[0, 2] = m[2, 0].conjugate()
    m[0, 1] = complex(z[0], z[1])
    m[1, 0] = m[0, 1].conjugate()
    return m


# The albert algebra as R^27: the real diagonal, then the octonions x, y, z
# at (1, 2), (2, 0) and (0, 1).
def _albert_coords(payload) -> np.ndarray:
    m = np.asarray(payload)
    return np.concatenate([[m[0, 0, 0], m[1, 1, 0], m[2, 2, 0]], m[1, 2], m[2, 0], m[0, 1]])


def _albert_payload(coords) -> np.ndarray:
    c = np.asarray(coords, dtype=float)
    return albert_element(c[:3], c[3:11], c[11:19], c[19:]).data


def _albert_jprod_table(x, y) -> np.ndarray:
    """Symmetrized 3x3 octonion matmul through the tabulated product."""
    out = np.zeros((3, 3, 8))
    for p in range(3):
        for q in range(3):
            for c in range(3):
                out[p, q] += oct_mul_table(x[p, c], y[c, q]) + oct_mul_table(y[p, c], x[c, q])
    return 0.5 * out


@cache
def _albert_structure() -> np.ndarray:
    """T[i, :, j]: the coordinates of e_i o e_j over the 27 coordinate units."""
    basis = [_albert_payload(u) for u in np.eye(27)]
    table = np.array([[_albert_coords(_albert_jprod_table(bi, bj)) for bj in basis]
                      for bi in basis])
    return table.transpose(0, 2, 1)


def albert_exp_oracle(a: Element) -> Element:
    """exp(a) = expm(L_a) 1, with L_a the 27x27 matrix of x -> a o x:
    a^k = L_a^k 1 by power associativity."""
    left_mul = np.tensordot(_albert_coords(a.data), _albert_structure(), axes=1)
    one = np.zeros(27)
    one[:3] = 1.0
    return Element(a.descriptor, _albert_payload(expm(left_mul) @ one))
