"""Concrete JB-algebra families and their operations.

Four families sit behind one immutable ``Element`` type:

=========  =========================================  =========================
kind       payload (``Element.data``)                 Jordan product
=========  =========================================  =========================
``sym``    real symmetric ``(d, d)`` float64          ``(AB + BA) / 2``
``herm``   complex Hermitian ``(d, d)`` complex128    ``(AB + BA) / 2``
``spin``   ``(k + 1,)`` float64, entry 0 scalar part  ``(st + <v,w>, sw + tv)``
``albert`` octonion Hermitian ``(3, 3, 8)`` float64   entrywise symmetrized
=========  =========================================  =========================

``herm`` is treated as a real algebra (scalars are real throughout).  The
algebra norm is spectral everywhere: largest absolute eigenvalue from
LAPACK for the matrix families, the closed form ``|s| + |v|`` for spin
factors, and the largest absolute root of the characteristic cubic for
the 27-dimensional exceptional family.

Two exponentials are provided on purpose.  ``exp_spectral`` goes through
eigenvalues (or a closed form), ``exp_series`` runs a scaled-and-squared
truncated power series using only the Jordan product.  They share no
code path, so each serves as a cross-check oracle for the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import octonion

KINDS = ("sym", "herm", "spin", "albert")

# Constructors reject payloads whose symmetry defect exceeds this (relative
# to the largest entry); what is stored is exactly symmetrized.
CONSTRUCTION_TOL = 1e-12

# Below this gap between characteristic roots the spectral exponential of
# an albert element falls back to the series route.
DEGENERATE_ROOT_GAP = 1e-6

# Descriptors whose payload would hold more entries than this are refused
# before anything is allocated (sym:1024 and herm:1024 are the largest
# square ones).
MAX_PAYLOAD_ENTRIES = 2**20


class DescriptorMismatchError(ValueError):
    """Raised when elements of different algebras are combined."""


class CapacityError(RuntimeError):
    """A request needs more than a supported maximum (payload size, steps)."""


@dataclass(frozen=True)
class AlgebraDescriptor:
    """Which concrete family an element lives in.

    ``dim`` means matrix size for sym/herm, spin-part length k for spin
    factors, and is fixed at 3 for the exceptional family.
    """

    kind: str
    dim: int

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown algebra kind {self.kind!r}")
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim!r}")
        if self.kind == "albert" and self.dim != 3:
            raise ValueError("albert algebra is fixed at dim 3")
        entries = math.prod(_payload_shape(self))
        if entries > MAX_PAYLOAD_ENTRIES:
            raise CapacityError(
                f"{self} needs {entries} payload entries, more than {MAX_PAYLOAD_ENTRIES}"
            )

    @property
    def is_special(self) -> bool:
        # Families with an associative matrix representation used by the
        # sharpened bounds and the oracle tests.
        return self.kind in ("sym", "herm")

    def __str__(self) -> str:
        return f"{self.kind}:{self.dim}"


def parse_descriptor(text: str) -> AlgebraDescriptor:
    """Parse ``kind:dim`` (dim optional for albert)."""
    head, sep, tail = text.partition(":")
    if head == "albert" and not sep:
        return AlgebraDescriptor("albert", 3)
    if not sep:
        raise ValueError(f"expected kind:dim, got {text!r}")
    try:
        dim = int(tail)
    except ValueError:
        raise ValueError(f"dim part of {text!r} is not an integer") from None
    return AlgebraDescriptor(head, dim)


@dataclass(frozen=True, eq=False)
class Element:
    """Immutable element of one of the concrete families."""

    descriptor: AlgebraDescriptor
    data: np.ndarray

    def __post_init__(self) -> None:
        self.data.setflags(write=False)

    # Linear-space operations live on the type; the Jordan product is a
    # module function since it is not an associative multiplication.
    def __add__(self, other: "Element") -> "Element":
        _check_same(self, other)
        return Element(self.descriptor, self.data + other.data)

    def __sub__(self, other: "Element") -> "Element":
        _check_same(self, other)
        return Element(self.descriptor, self.data - other.data)

    def __neg__(self) -> "Element":
        return Element(self.descriptor, -self.data)

    def __mul__(self, c) -> "Element":
        return Element(self.descriptor, self.data * _real_scalar(c))

    __rmul__ = __mul__

    def __truediv__(self, c) -> "Element":
        return Element(self.descriptor, self.data / _real_scalar(c))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.descriptor == other.descriptor and np.array_equal(self.data, other.data)

    def __repr__(self) -> str:
        return f"Element({self.descriptor}, shape={self.data.shape})"


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in ascending order."""

    eigenvalues: np.ndarray


def _real_scalar(c) -> float:
    if isinstance(c, complex) or (isinstance(c, np.generic) and np.iscomplexobj(c)):
        raise TypeError("scalars must be real, these are real algebras")
    return float(c)


def _check_same(a: Element, b: Element) -> None:
    if a.descriptor != b.descriptor:
        raise DescriptorMismatchError(
            f"cannot combine elements of {a.descriptor} and {b.descriptor}"
        )


def _check_elements(elements, minimum: int = 1) -> list[Element]:
    """The elements as a list: at least ``minimum`` of them, one algebra."""
    elems = list(elements)
    if len(elems) < minimum:
        raise ValueError(f"need {minimum} or more elements, got {len(elems)}")
    for e in elems[1:]:
        _check_same(elems[0], e)
    return elems


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite entries")


# ---------------------------------------------------------------------------
# constructors


def _matrix_element(kind: str, dtype, symmetry: str, matrix, tol: float) -> Element:
    m = np.array(matrix, dtype=dtype)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    _require_finite(m, f"{kind} payload")
    scale = max(1.0, float(np.abs(m).max()))
    if np.abs(m - m.conj().T).max() > tol * scale:
        raise ValueError(f"matrix is not {symmetry} within tolerance")
    return Element(AlgebraDescriptor(kind, m.shape[0]), 0.5 * (m + m.conj().T))


def sym_element(matrix, tol: float = CONSTRUCTION_TOL) -> Element:
    return _matrix_element("sym", float, "symmetric", matrix, tol)


def herm_element(matrix, tol: float = CONSTRUCTION_TOL) -> Element:
    return _matrix_element("herm", complex, "Hermitian", matrix, tol)


def spin_element(s: float, v) -> Element:
    vec = np.array(v, dtype=float).reshape(-1)
    if vec.size < 1:
        raise ValueError("spin part must have length >= 1")
    data = np.concatenate([[float(s)], vec])
    _require_finite(data, "spin payload")
    return Element(AlgebraDescriptor("spin", vec.size), data)


def albert_element(diag, x, y, z) -> Element:
    """Octonion Hermitian 3x3 from real diagonal and entries x, y, z.

    Layout: x sits at (1, 2), y at (2, 0), z at (0, 1); the transposed
    positions hold the conjugates and the diagonal is real.
    """
    d = np.array(diag, dtype=float).reshape(-1)
    parts = [np.array(p, dtype=float).reshape(-1) for p in (x, y, z)]
    if d.size != 3 or any(p.size != 8 for p in parts):
        raise ValueError("albert element needs 3 diagonal reals and three length-8 entries")
    ox, oy, oz = parts
    m = np.zeros((3, 3, 8))
    m[0, 0, 0], m[1, 1, 0], m[2, 2, 0] = d
    m[1, 2], m[2, 1] = ox, octonion.conj(ox)
    m[2, 0], m[0, 2] = oy, octonion.conj(oy)
    m[0, 1], m[1, 0] = oz, octonion.conj(oz)
    _require_finite(m, "albert payload")
    return Element(AlgebraDescriptor("albert", 3), m)


def albert_parts(a: Element) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of ``albert_element``: (diag, x, y, z)."""
    m = a.data
    return m[[0, 1, 2], [0, 1, 2], 0].copy(), m[1, 2].copy(), m[2, 0].copy(), m[0, 1].copy()


def zero(descriptor: AlgebraDescriptor) -> Element:
    return Element(descriptor, np.zeros(_payload_shape(descriptor), dtype=_payload_dtype(descriptor)))


def unit(descriptor: AlgebraDescriptor) -> Element:
    kind, d = descriptor.kind, descriptor.dim
    if kind in ("sym", "herm"):
        return Element(descriptor, np.eye(d, dtype=_payload_dtype(descriptor)))
    if kind == "spin":
        data = np.zeros(d + 1)
        data[0] = 1.0
        return Element(descriptor, data)
    m = np.zeros((3, 3, 8))
    m[0, 0, 0] = m[1, 1, 0] = m[2, 2, 0] = 1.0
    return Element(descriptor, m)


def _payload_shape(descriptor: AlgebraDescriptor):
    kind, d = descriptor.kind, descriptor.dim
    if kind in ("sym", "herm"):
        return (d, d)
    if kind == "spin":
        return (d + 1,)
    return (3, 3, 8)


def _payload_dtype(descriptor: AlgebraDescriptor):
    return complex if descriptor.kind == "herm" else float


# ---------------------------------------------------------------------------
# products


# STRUCTURE as a read-only (8, 64) view: an octonion x times it gives, at
# column 8 j + k, the coefficient of e_k in x e_j, i.e. the matrix of the
# left multiplication y -> x y.
_LEFT_MUL = octonion.STRUCTURE.reshape(8, 64)


def _oct_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a @ b)[p, q] = sum_c a[p, c] b[c, q] with octonion entry products,
    for 3x3 payloads stacked over any leading axes.

    One matmul turns every entry a[p, c] into its left-multiplication
    matrix (exactly: each column picks one signed coefficient), and one
    batched matmul applies them to the columns of b, summing over (c, j).
    """
    lead = a.shape[:-3]
    left = (a.reshape(-1, 8) @ _LEFT_MUL).reshape(lead + (3, 24, 8))
    return b.swapaxes(-3, -2).reshape(lead + (1, 3, 24)) @ left


def _albert_hermitize(m: np.ndarray) -> np.ndarray:
    # Conjugate transpose: swap matrix indices, conjugate each entry.
    ct = m.transpose(1, 0, 2).copy()
    ct[..., 1:] = -ct[..., 1:]
    return 0.5 * (m + ct)


def jordan_mul(a: Element, b: Element) -> Element:
    """Jordan product.  Commutative, not associative."""
    _check_same(a, b)
    kind = a.descriptor.kind
    if kind in ("sym", "herm"):
        p = a.data @ b.data + b.data @ a.data
        return Element(a.descriptor, 0.25 * (p + p.conj().T))
    if kind == "spin":
        s, v = a.data[0], a.data[1:]
        t, w = b.data[0], b.data[1:]
        return Element(a.descriptor, np.concatenate([[s * t + v @ w], s * w + t * v]))
    if b is a:
        # 0.5 (X + X) = X exactly, so one octonion matmul gives the same bits.
        half = _oct_matmul(a.data, a.data)
    else:
        # The sum ab + ba, not ab Hermitized alone, keeps the product exactly
        # commutative: swapping a and b gives the same bits.
        half = 0.5 * (_oct_matmul(a.data, b.data) + _oct_matmul(b.data, a.data))
    return Element(a.descriptor, _albert_hermitize(half))


def triple_product(a: Element, b: Element, c: Element) -> Element:
    """{a b c} = (a.b).c + (b.c).a - (a.c).b."""
    _check_same(a, b)
    _check_same(b, c)
    return (
        jordan_mul(jordan_mul(a, b), c)
        + jordan_mul(jordan_mul(b, c), a)
        - jordan_mul(jordan_mul(a, c), b)
    )


def quad_map(a: Element, b: Element) -> Element:
    """Quadratic representation U_a(b) = {a b a}.  Maps positives to positives."""
    return triple_product(a, b, a)


def jordan_power(a: Element, n: int) -> Element:
    """n-th Jordan power by binary splitting; n = 0 gives the unit.

    Powers of a single element associate, so the splitting order does not
    matter beyond roundoff.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"exponent must be a nonnegative integer, got {n!r}")
    if n == 0:
        return unit(a.descriptor)
    result = None
    base = a
    while True:
        if n & 1:
            result = base if result is None else jordan_mul(result, base)
        n >>= 1
        if n == 0:
            return result
        base = jordan_mul(base, base)


# ---------------------------------------------------------------------------
# spectra and norms


def _real_cubic_roots(t: float, s: float, n: float) -> np.ndarray:
    """Ascending roots of x^3 - t x^2 + s x - n, all known to be real."""
    p = s - t * t / 3.0
    q = t * s / 3.0 - 2.0 * t**3 / 27.0 - n
    third = t / 3.0
    # For genuinely real-rooted cubics p <= 0; tiny positive p is roundoff
    # from a near-triple root.
    if p >= 0.0 or p > -1e-300:
        y = float(np.cbrt(-q))
        return np.sort(np.array([third + y] * 3))
    m = 2.0 * math.sqrt(-p / 3.0)
    c = 3.0 * q / (p * m)
    c = min(1.0, max(-1.0, c))
    phi = math.acos(c) / 3.0
    ys = m * np.cos(phi - 2.0 * math.pi * np.arange(3) / 3.0)
    return np.sort(ys + third)


def _albert_trace(m: np.ndarray) -> float:
    return float(m[0, 0, 0] + m[1, 1, 0] + m[2, 2, 0])


def _albert_det(a: Element) -> float:
    # Cubic norm form of the exceptional Jordan algebra.
    d, x, y, z = albert_parts(a)
    aa, bb, cc = d
    cross = octonion.real_part(octonion.mul(octonion.mul(x, y), z))
    return float(
        aa * bb * cc
        - aa * octonion.norm_form(x)
        - bb * octonion.norm_form(y)
        - cc * octonion.norm_form(z)
        + 2.0 * cross
    )


def _albert_eigvals(a: Element) -> np.ndarray:
    t = _albert_trace(a.data)
    sq = jordan_mul(a, a)
    s = 0.5 * (t * t - _albert_trace(sq.data))
    return _real_cubic_roots(t, s, _albert_det(a))


def spectrum(a: Element) -> Spectrum:
    """Eigenvalues, ascending.  Two values for spin, three for albert."""
    kind = a.descriptor.kind
    if kind in ("sym", "herm"):
        vals = np.linalg.eigvalsh(a.data)
    elif kind == "spin":
        s, r = a.data[0], float(np.linalg.norm(a.data[1:]))
        vals = np.array([s - r, s + r])
    else:
        vals = _albert_eigvals(a)
    return Spectrum(np.sort(vals))


def jb_norm(a: Element) -> float:
    """Algebra norm: largest absolute eigenvalue."""
    kind = a.descriptor.kind
    if kind == "spin":
        return abs(float(a.data[0])) + float(np.linalg.norm(a.data[1:]))
    if kind in ("sym", "herm"):
        vals = np.linalg.eigvalsh(a.data)
    else:
        vals = _albert_eigvals(a)
    return float(np.abs(vals).max()) if vals.size else 0.0


# ---------------------------------------------------------------------------
# exponentials


def exp_spectral(a: Element) -> Element:
    """Exponential through eigenvalues (closed form where available)."""
    kind = a.descriptor.kind
    if kind in ("sym", "herm"):
        w, v = np.linalg.eigh(a.data)
        e = (v * np.exp(w)) @ v.conj().T
        return Element(a.descriptor, 0.5 * (e + e.conj().T))
    if kind == "spin":
        s, v = float(a.data[0]), a.data[1:]
        r = float(np.linalg.norm(v))
        es = math.exp(s)
        if r == 0.0:
            return Element(a.descriptor, np.concatenate([[es], np.zeros_like(v)]))
        return Element(
            a.descriptor,
            np.concatenate([[es * math.cosh(r)], (es * math.sinh(r) / r) * v]),
        )
    return _albert_exp(a)


def _albert_exp(a: Element) -> Element:
    roots = _albert_eigvals(a)
    if float(np.diff(roots).min()) < DEGENERATE_ROOT_GAP:
        return exp_series(a)
    l0, l1, l2 = (float(r) for r in roots)
    f0, f1, f2 = math.exp(l0), math.exp(l1), math.exp(l2)
    d01 = (f1 - f0) / (l1 - l0)
    d12 = (f2 - f1) / (l2 - l1)
    d012 = (d12 - d01) / (l2 - l0)
    one = unit(a.descriptor)
    # Newton form of the quadratic interpolating exp at the three roots;
    # evaluating in this basis stays stable when a pair of roots sits just
    # above the fallback gap.
    x0 = a - l0 * one
    x1 = a - l1 * one
    return f0 * one + d01 * x0 + d012 * jordan_mul(x0, x1)


def exp_series(a: Element) -> Element:
    """Scaled-and-squared truncated exponential series.

    Halves the argument s times so its norm is at most about 1/4, sums 20
    series terms with Jordan powers, then Jordan-squares s times.  Uses
    nothing but the Jordan product, which makes it an independent check
    on the spectral route.
    """
    nrm = jb_norm(a)
    s = 0 if nrm == 0.0 else max(0, math.ceil(math.log2(nrm)) + 2)
    b = a / float(2**s)
    acc = unit(a.descriptor)
    term = unit(a.descriptor)
    for k in range(1, 21):
        term = jordan_mul(term, b) / float(k)
        acc = acc + term
    for _ in range(s):
        acc = jordan_mul(acc, acc)
    return acc


# ---------------------------------------------------------------------------
# sampling


def random_element(descriptor: AlgebraDescriptor, seed: int, target_norm: float = 1.0) -> Element:
    """Seeded Gaussian element rescaled to the requested algebra norm."""
    if not target_norm > 0.0:
        raise ValueError("target_norm must be positive")
    rng = np.random.default_rng(seed)
    kind, d = descriptor.kind, descriptor.dim
    if kind in ("sym", "herm"):
        # Seeded elements depend on the draw order: real part, then imaginary.
        m = rng.standard_normal((d, d))
        if kind == "herm":
            m = m + 1j * rng.standard_normal((d, d))
        elem = Element(descriptor, 0.5 * (m + m.conj().T))
    elif kind == "spin":
        elem = Element(descriptor, rng.standard_normal(d + 1))
    else:
        diag = rng.standard_normal(3)
        x, y, z = rng.standard_normal((3, 8))
        elem = albert_element(diag, x, y, z)
    nrm = jb_norm(elem)
    if nrm == 0.0:
        raise RuntimeError("degenerate zero draw")
    return elem * (target_norm / nrm)
