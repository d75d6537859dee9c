"""Concrete JB-algebra families and their operations.

Four families sit behind one immutable ``Element`` type:

=========  =========================================  =========================
kind       payload (``Element.data``)                 Jordan product
=========  =========================================  =========================
``sym``    real symmetric ``(d, d)`` float64          Hermitian part of ``AB``
                                                      (= ``(AB + BA) / 2``)
``herm``   complex Hermitian ``(d, d)`` complex128    Hermitian part of ``AB``
                                                      (= ``(AB + BA) / 2``)
``spin``   ``(k + 1,)`` float64, entry 0 scalar part  ``(st + <v,w>, sw + tv)``
``albert`` octonion Hermitian ``(3, 3, 8)`` float64   entrywise symmetrized
=========  =========================================  =========================

``herm`` is treated as a real algebra (scalars are real throughout).
What a family is (payload shape and dtype, unit, Jordan product, ascending
eigenvalues, exponential, sampler) lives in one private object per
family, which ``_FAMILIES`` maps its kind to; the public functions make
one lookup and never branch on the kind.  Adding a family means one class
and one table entry here, plus its payload layout in the instance file
reader and writer (``instances``).  The algebra norm is the largest
absolute eigenvalue of that same spectrum, for every family.  A family's
``eigvals`` takes a stack of payloads, ``(k, *shape)`` to ``(k, r)``, and
gives each row the bits that a stack of that payload alone gets:
``spectrum``, ``jb_norm`` and the albert exponential call it with a stack
of one, and ``_keep_spectra`` (the axiom suite's) with many.

Two exponentials are provided on purpose.  ``exp_spectral`` goes through
eigenvalues (or a closed form), ``exp_series`` runs a scaled-and-squared
truncated power series using only the Jordan product, so each serves as
a cross-check oracle for the other.  They share one code path: an albert
spectrum whose closest pair of roots lies within ``DEGENERATE_ROOT_GAP``
times the norm (the zero element and unit multiples included) falls back
from ``exp_spectral`` to ``exp_series``, so there the two agree by
construction and check nothing.

Two Jordan formulas are stated once, for elements and for the jets of
``jets`` alike: the triple product {x y z} in ``_triple``, which takes the
Jordan product to apply, and the Taylor terms a^k / k! of exp(a) in
``_exp_terms``, which ``exp_series`` sums and whose first terms are
``jets.jet_exp``'s coefficients.  ``_exp_terms`` and the callers of
``_triple`` look the product up by its module name when called, so a
wrapper installed on ``jordan_mul`` or ``jets.jet_jordan_mul`` sees every
product.

``exp_spectral(a, d)`` is exp(a / d) for a positive integer step divisor
d, the form the product schemes need at every step count.  On sym and
herm one ``np.linalg.eigh`` of ``a`` serves every d; ``trotter._measure``
says how many a measurement makes and how long they live.  Spin and
albert compute exp of ``a / d`` directly, as ``exp_spectral(a / d)`` does,
in the Newton form on the spectrum, and share one statement of its first
divided difference, ``_exp_divided``.  Every family follows one overflow
rule, stated in ``exp_spectral``: an inf or a NaN in the payload, never
``OverflowError``.

An element holds its descriptor, its payload and the values it keeps,
nothing else: it keeps its spectrum once ``spectrum`` or ``jb_norm`` has
taken it, and a sym or herm element the ``eigh`` of ``exp_spectral``;
README, "Library use", states the rule.  The factors exp(a / d) that the
schemes of one measurement share are kept by ``trotter._measure``, not on
the elements.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import octonion

# Constructors reject payloads whose symmetry defect exceeds this (relative
# to the largest entry); what is stored is exactly symmetrized.
CONSTRUCTION_TOL = 1e-12

# At or below this gap between characteristic roots, relative to the
# element's norm, the spectral exponential of an albert element falls back
# to the series route.
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
        family = self._family
        _check_count(self.dim, "dim")
        entries = math.prod(family.shape(self.dim))
        if entries > MAX_PAYLOAD_ENTRIES:
            raise CapacityError(
                f"{self} needs {entries} payload entries, more than {MAX_PAYLOAD_ENTRIES}"
            )

    @property
    def _family(self):
        try:
            return _FAMILIES[self.kind]
        except (KeyError, TypeError):
            raise ValueError(f"unknown algebra kind {self.kind!r}") from None

    @property
    def is_special(self) -> bool:
        # Families with an associative matrix representation used by the
        # sharpened bounds and the oracle tests.
        return self._family.special

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
    """Immutable element of one of the concrete families.

    The payload is read-only.  A payload whose memory belongs to another
    object, such as a view of another array, is copied first.  An array
    that owns its memory is handed over as it is, so
    ``Element(a.descriptor, a.data)`` shares it; turning its writes back on
    and writing it voids what the element keeps (``_kept``).  The public
    constructors copy their input.

    An element holds its descriptor, its payload and the values it keeps,
    each in a slot, and nothing else: it has no instance dict, so even
    ``object.__setattr__(a, "x", 1)`` raises ``AttributeError``.  The kept
    values are the spectrum and the sym/herm ``eigh``, both through
    ``_kept``; ``__weakref__`` lets callers watch an element die.
    """

    __slots__ = ("descriptor", "data", "_spectrum", "_eigh", "__weakref__")

    descriptor: AlgebraDescriptor
    data: np.ndarray

    def __post_init__(self) -> None:
        if self.data.base is not None:
            object.__setattr__(self, "data", self.data.copy())
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

    def __reduce__(self):
        # Frozen slots cannot be restored by setattr, so pickle and copy
        # rebuild an element from its two fields; kept values are recomputed.
        return Element, (self.descriptor, self.data)


def _kept(a: Element, key: str, compute):
    """compute(a), computed on first use and kept in a's slot named key
    (the frozen dataclass bars attribute assignment, not
    ``object.__setattr__``), so it lives and dies with the element; callers
    must not write into it.  A plain slot read: ``functools.cached_property``
    needs an instance dict and takes a lock on every first use, and most
    elements are asked only once."""
    value = getattr(a, key, None)
    if value is None:
        value = compute(a)
        object.__setattr__(a, key, value)
    return value


def _check_real(x) -> None:
    """The one real-input rule, for scalars and for the entries given to
    the sym, spin and albert constructors: a complex number is refused, not
    cut to its real part as numpy's float conversion would."""
    if np.iscomplexobj(x):
        raise TypeError("scalars must be real, these are real algebras")


def _real_scalar(c) -> float:
    if not isinstance(c, (float, int)):  # the common real types skip numpy's check
        _check_real(c)
    return float(c)


def _check_same(a: Element, b: Element) -> None:
    # Elements of one computation share one descriptor object, so the
    # identity test settles most calls before the dataclass comparison.
    if a.descriptor is not b.descriptor and a.descriptor != b.descriptor:
        raise DescriptorMismatchError(
            f"cannot combine elements of {a.descriptor} and {b.descriptor}"
        )


def _check_elements(elements) -> list[Element]:
    """The elements as a list: one or more of them (``_check_count`` on
    their count), all of one algebra."""
    elems = list(elements)
    _check_count(len(elems), "element count")
    for e in elems[1:]:
        _check_same(elems[0], e)
    return elems


def _check_count(value, what: str, low: int = 1) -> None:
    """The library's one integer-argument check: value is an int >= low,
    for low 0 or 1.  bool is an int subclass, but True is no count."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        kind = "positive" if low else "nonnegative"
        raise ValueError(f"{what} must be a {kind} integer, got {value!r}")


def _check_step(value, what: str, span: int = 1) -> None:
    """The one check of a step count or a divisor: a positive integer
    (``_check_count``) such that a float holds span times it, the largest
    divisor that a factor takes from it; above that a ``CapacityError``,
    raised before any exponential.  A divisor d of ``exp_spectral`` has
    span 1 and a step count n span 2, for scheme f's half step 2n.  Seeds
    go through ``_check_count`` too and have no such cap."""
    _check_count(value, what)
    if span * value > sys.float_info.max:
        raise CapacityError(f"{what} is above the supported maximum "
                            f"{sys.float_info.max / span!r}")


def _finite(x: np.ndarray) -> bool:
    """The library's one finiteness test: ``np.isfinite(x).all()`` for a
    float or complex array of any shape, 0-d included, so for the payload
    of every family (sym, herm, spin, albert) and every jet coefficient.
    The array's dot product with zeros, one pass that cannot overflow and
    raises no numpy warning, is 0 when every entry is finite and NaN
    otherwise.  On sym and herm payloads it guards LAPACK, which can return
    finite eigenvalues for a payload holding a NaN, and whose zheevd raises
    ``LinAlgError`` on one holding an inf."""
    return np.vdot(x, np.zeros(x.shape, x.dtype)) == 0


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not _finite(arr):
        raise ValueError(f"{what} contains non-finite entries")


# ---------------------------------------------------------------------------
# constructors


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    # (m + m^H) / 2 as a sum of halves, which is finite wherever m is;
    # halving is exact in the normal range, so wherever m + m^H does not
    # overflow the bits are those of 0.5 * (m + m^H).
    h = 0.5 * m
    return h + h.conj().T


def _matrix_element(kind: str, dtype, symmetry: str, matrix, tol: float) -> Element:
    m = np.array(matrix, dtype=dtype)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    desc = AlgebraDescriptor(kind, m.shape[0])  # refuses a 0 x 0 matrix before max() below
    _require_finite(m, f"{kind} payload")
    # The symmetry defect and the scale are measured on the halves, which
    # neither a difference nor a complex modulus can take past the float
    # maximum; the stored payload is their sum, as in _hermitian_part.
    h = 0.5 * m
    mirror = h.conj().T
    if np.abs(h - mirror).max() > tol * max(0.5, float(np.abs(h).max())):
        raise ValueError(f"matrix is not {symmetry} within tolerance")
    return Element(desc, h + mirror)


def sym_element(matrix, tol: float = CONSTRUCTION_TOL) -> Element:
    _check_real(matrix)
    return _matrix_element("sym", float, "symmetric", matrix, tol)


def herm_element(matrix, tol: float = CONSTRUCTION_TOL) -> Element:
    return _matrix_element("herm", complex, "Hermitian", matrix, tol)


def spin_element(s: float, v) -> Element:
    _check_real(v)
    vec = np.array(v, dtype=float).reshape(-1)
    data = np.concatenate([[_real_scalar(s)], vec])
    _require_finite(data, "spin payload")
    return Element(AlgebraDescriptor("spin", vec.size), data)


# The albert payload layout, stated once.  In a flattened (3, 3, 8)
# payload every 32nd entry is a real diagonal entry (the other diagonal
# coefficients are 0).  Rows 5, 6 and 1 of its (9, 8) view are the
# off-diagonal octonions x, y and z at (1, 2), (2, 0) and (0, 1); rows 7, 2
# and 3, their mirror positions, hold their conjugates.
_DIAG = slice(None, None, 32)
_XYZ_ROWS = np.array([5, 6, 1])
_CONJ_ROWS = np.array([7, 2, 3])

_ALBERT_ONE = np.zeros((3, 3, 8))
_ALBERT_ONE.reshape(72)[_DIAG] = 1.0
_ALBERT_ONE.setflags(write=False)


def albert_element(diag, x, y, z) -> Element:
    """Octonion Hermitian 3x3 from real diagonal and entries x, y, z
    (x at (1, 2), y at (2, 0), z at (0, 1), conjugates mirrored)."""
    for p in (diag, x, y, z):
        _check_real(p)
    d = np.array(diag, dtype=float).reshape(-1)
    parts = [np.array(p, dtype=float).reshape(-1) for p in (x, y, z)]
    if d.size != 3 or any(p.size != 8 for p in parts):
        raise ValueError("albert element needs 3 diagonal reals and three length-8 entries")
    m = _albert_payload(d, parts)
    _require_finite(m, "albert payload")
    return Element(AlgebraDescriptor("albert", 3), m)


def _albert_payload(diag, xyz) -> np.ndarray:
    """The (3, 3, 8) payload of 3 diagonal reals and the octonions x, y, z."""
    m = np.zeros((3, 3, 8))
    m.reshape(72)[_DIAG] = diag
    rows = m.reshape(9, 8)
    rows[_XYZ_ROWS] = xyz
    rows[_CONJ_ROWS] = octonion.conj(rows[_XYZ_ROWS])
    return m


def albert_parts(a: Element) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of ``albert_element``: (diag, x, y, z), new arrays."""
    return (a.data.ravel()[_DIAG].copy(), *a.data.reshape(9, 8)[_XYZ_ROWS])


# ---------------------------------------------------------------------------
# families
#
# A family object works on payloads (``product``, ``unit``), on a stack of
# payloads (``eigvals``) or on elements (``exp``, ``sample``).  Family code
# reaches ``jordan_mul``, ``exp_series`` and the octonion layer only
# through module names looked up at call time, so a wrapper installed on a
# name (a profiler, a call counter) sees every call whichever family makes
# it.  ``octonion.mul`` is the one traced octonion name;
# ``octonion.matmul``, ``conj``, ``norm_form`` and ``real_part`` never call
# it.


def _eigh(a: Element):
    """(w, V) with data = V diag(w) V^H, sym and herm only, both NaN for a
    payload holding an inf or a NaN."""
    x = a.data
    if not _finite(x):
        return np.full(a.descriptor.dim, math.nan), np.full(x.shape, math.nan, x.dtype)
    return np.linalg.eigh(x)


class _MatrixFamily:
    """sym and herm, ``(d, d)`` of one dtype; ``.conj()`` is a no-op on floats."""

    special = True

    def __init__(self, dtype):
        self.dtype = dtype

    def shape(self, dim: int) -> tuple:
        return (dim, dim)

    def unit(self, dim: int) -> np.ndarray:
        return np.eye(dim, dtype=self.dtype)

    def product(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # For Hermitian x and y, (xy)^H = yx, so the Hermitian part of xy is
        # (xy + yx) / 2 from one matmul.  On sym the transpose of dgemm's xy
        # is yx bit for bit, so x.y and y.x agree exactly.  On herm at
        # d = 3, 5, 6, 7, 9, 10 and 11 (of d <= 12) zgemm (OpenBLAS 0.3.31)
        # rounds (xy)^H and yx differently: x.y and y.x can then differ in
        # the last bit, up to 2.7e-16 relative in the algebra norm.
        return _hermitian_part(x @ y)

    def eigvals(self, stack: np.ndarray) -> np.ndarray:
        # One eigvalsh over the stack; a payload holding an inf or a NaN
        # gets a NaN row.  One test of the whole stack settles the common
        # case, in which every payload is finite.
        if _finite(stack):
            return np.linalg.eigvalsh(stack)
        finite = np.array([_finite(x) for x in stack])
        vals = np.full(stack.shape[:-1], math.nan)
        vals[finite] = np.linalg.eigvalsh(stack[finite])
        return vals

    def exp(self, a: Element, d: int) -> Element:
        # exp(a / d) = V diag(e^(w / d)) V^H from the decomposition of a
        # itself, which differs from that of a / d in roundoff.  For a
        # power-of-two d both a / d and w / d are exact, and at ordinary
        # scales eigh(a / d) then returns w / d and V bit for bit.
        w, v = _kept(a, "_eigh", _eigh)
        e = (v * np.exp(w / d)) @ v.conj().T
        return Element(a.descriptor, _hermitian_part(e))

    def sample(self, rng, descriptor: AlgebraDescriptor) -> Element:
        d = descriptor.dim
        # Seeded elements depend on the draw order: real part, then imaginary.
        m = rng.standard_normal((d, d))
        if self.dtype is complex:
            m = m + 1j * rng.standard_normal((d, d))
        return Element(descriptor, _hermitian_part(m))


def _exp(x: float) -> float:
    """e^x by ``math.exp``, inf past the float range instead of ``OverflowError``."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _ldexp(x: float, i: int) -> float:
    """x 2^i by ``math.ldexp``, exact in the float range and +-inf past it
    instead of ``OverflowError``."""
    try:
        return math.ldexp(x, i)
    except OverflowError:
        return math.copysign(math.inf, x)


def _exp_divided(lo: float, hi: float) -> float:
    """The first divided difference exp[lo, hi] = (e^hi - e^lo) / (hi - lo)
    for lo <= hi, e^hi at hi = lo: the one statement that spin and albert
    share.  It is taken from the upper endpoint, -e^hi expm1(lo - hi) /
    (hi - lo), so a gap small against lo and hi loses no digits to the
    subtraction e^hi - e^lo, and the expm1 argument is never positive: it
    neither overflows on a wide spectrum whose exponential is finite nor is
    lost with an underflowing e^lo (Higham, *Functions of Matrices*, 10.1)."""
    if hi == lo:
        return _exp(hi)
    return -_exp(hi) * math.expm1(lo - hi) / (hi - lo)


class _SpinFamily:
    """Spin factors: (s, v) stored as ``[s, *v]``.

    The length |v| comes from ``math.hypot``, which neither overflows nor
    underflows on its way and is correctly rounded in all but rare cases.
    """

    special = False
    dtype = float

    def shape(self, dim: int) -> tuple:
        return (dim + 1,)

    def unit(self, dim: int) -> np.ndarray:
        data = np.zeros(dim + 1)
        data[0] = 1.0
        return data

    def product(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # One output array: t x, its tail plus s w in place, and entry 0
        # overwritten by the scalar part.  Adding s y whole would form 2 s t
        # in entry 0, which can overflow where s t does not.  Both sums are
        # symmetric in x and y, so the product is exactly commutative.
        s, t = x[0], y[0]
        out = t * x
        tail = out[1:]
        tail += s * y[1:]
        out[0] = s * t + x[1:] @ y[1:]
        return out

    def eigvals(self, stack: np.ndarray) -> np.ndarray:
        # Python floats, row by row: a root past the float range reads
        # +-inf, no warning.
        roots = []
        for s, *v in stack.tolist():
            r = math.hypot(*v)
            roots.append((s - r, s + r))
        return np.array(roots)

    def exp(self, a: Element, d: int) -> Element:
        # Newton form of the line interpolating exp at the roots l0, l1 =
        # s -+ r: exp(x) = e^l0 1 + exp[l0, l1] (x - l0 1), where x - l0 1 =
        # (r, v).  It leaves the float range only where e^l1 does, however
        # wide the spectrum: no factor such as e^s can overflow or underflow
        # on its own.
        x = a.data / d
        s, v = float(x[0]), x[1:]
        r = math.hypot(*v.tolist())
        d01 = _exp_divided(s - r, s + r)
        return Element(a.descriptor, np.concatenate(([_exp(s - r) + d01 * r], v * d01)))

    def sample(self, rng, descriptor: AlgebraDescriptor) -> Element:
        return Element(descriptor, rng.standard_normal(descriptor.dim + 1))


def _real_cubic_roots(t: float, s: float, n: float) -> list:
    """Ascending roots of x^3 - t x^2 + s x - n, all known to be real, as
    Python floats."""
    p = s - t * t / 3.0
    q = t * s / 3.0 - 2.0 * t**3 / 27.0 - n
    third = t / 3.0
    # For genuinely real-rooted cubics p <= 0; tiny positive p is roundoff
    # from a near-triple root.  The trig branch divides by p m =
    # -(2/sqrt 3) (-p)^(3/2), normal only for -p above about 7e-206, so any
    # -p <= 1e-200 takes the triple root.  At the unit scale of the albert
    # caller that puts every root within about 1e-100 of t/3 + mu, and mu
    # lies that close to the largest payload entry, at least 1/2 in size,
    # so the triple root rounds to the same spectrum.
    if p > -1e-200:
        return [third + float(np.cbrt(-q))] * 3
    m = 2.0 * math.sqrt(-p / 3.0)
    c = min(1.0, max(-1.0, 3.0 * q / (p * m)))
    phi = math.acos(c) / 3.0
    return sorted(m * math.cos(phi - 2.0 * math.pi * k / 3.0) + third for k in range(3))


def _albert_roots(diag, squares, norms, cross: float, mu: float, shift: int) -> list:
    """The ascending spectrum of one albert payload, from its copy m scaled
    by 2^-shift: m's diagonal, the diagonal of b.b for b = m - mu 1 with mu
    the mean of that diagonal, the norms of m's entries x, y, z and the
    real part of (xy)z.  All are Python floats, solved with ``math``, since
    math.acos and np.arccos differ in the last bit.

    The roots are those of the characteristic cubic x^3 - t x^2 + s x - det
    of b, where det is the cubic norm form of the exceptional Jordan
    algebra; mu is added back to them.  Near a triple root the cubic's
    coefficients are roundoff, and the cube root of roundoff in t^3 would
    move the roots by about 1e-5 relative; after the shift by mu it is
    roundoff in b.  ldexp scales exactly both ways, so the spectrum is
    exactly power-of-two homogeneous wherever m and the roots scaled back
    stay normal; a root scaled back past the float range reads +-inf, with
    no warning."""
    d0, d1, d2 = diag
    d0, d1, d2 = d0 - mu, d1 - mu, d2 - mu
    s0, s1, s2 = squares
    nx, ny, nz = norms
    t = d0 + d1 + d2
    det = d0 * d1 * d2 - d0 * nx - d1 * ny - d2 * nz + 2.0 * cross
    roots = _real_cubic_roots(t, 0.5 * (t * t - (s0 + s1 + s2)), det)
    return [_ldexp(x + mu, shift) for x in roots]


class _AlbertFamily:
    """The exceptional family: 3x3 octonion Hermitian matrices, dim fixed at 3."""

    special = False
    dtype = float

    def shape(self, dim: int) -> tuple:
        if dim != 3:
            raise ValueError("albert algebra is fixed at dim 3")
        return (3, 3, 8)

    def unit(self, dim: int) -> np.ndarray:
        return _ALBERT_ONE

    def product(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # Payloads, or stacks of them with the same leading axes (the stacked
        # spectrum squares one).  The Hermitian part of (xy + yx) / 2 by the
        # rule of _hermitian_part: each term is scaled before the first sum,
        # so both sums are finite wherever the matmuls are.  The sum xy + yx,
        # not xy Hermitized alone, keeps the product exactly commutative
        # (swapping x and y gives the same bits); a square takes one
        # octonion matmul.
        mm = octonion.matmul
        h = 0.5 * mm(x, x) if y is x else 0.25 * mm(x, y) + 0.25 * mm(y, x)
        # h^H: swap matrix indices, conjugate each entry.
        return h + octonion.conj(h.swapaxes(-3, -2))

    def eigvals(self, stack: np.ndarray) -> np.ndarray:
        # Each payload is solved at unit scale: times 2^-shift, so that its
        # largest entry lies in [1/2, 1) and the Jordan square and the
        # cubic's coefficients (products of three entries) stay in the float
        # range.  The array work (the shift, b's Jordan square, the norms
        # and the cross term of _albert_roots) runs on the whole stack, then
        # _albert_roots solves each payload.  A stack of one, which every
        # spectrum outside the axiom suite is, takes the same operations on
        # its bare payload with Python scalars, where numpy's per-call cost
        # is lower (29 against 35 us per spectrum on a 2-core Xeon VM).
        # End to end, merging it into the stacked body cost the grid-albert
        # benchmark 7.9 % of its ops_per_s, the fork winning 6 of 6
        # alternating 12 s pairs (seeds 901-906, bench/run.py, same VM), so
        # it stays.
        if len(stack) == 1:
            m = stack[0]
            shift = math.frexp(float(np.abs(m).max()))[1]
            m = np.ldexp(m, -shift)
            diag = m.ravel()[_DIAG].tolist()
            mu = (diag[0] + diag[1] + diag[2]) / 3.0
            b = Element(_ALBERT, m - _ALBERT_ONE * mu)
            squares = jordan_mul(b, b).data.ravel()[_DIAG].tolist()
            off = m.reshape(9, 8)[_XYZ_ROWS]
            x, y, z = off
            cross = float(octonion.real_part(octonion.mul(octonion.mul(x, y), z)))
            norms = octonion.norm_form(off).tolist()
            return np.array([_albert_roots(diag, squares, norms, cross, mu, shift)])
        k = len(stack)
        shift = np.frexp(np.abs(stack.reshape(k, 72)).max(axis=1))[1]
        m = np.ldexp(stack, -shift[:, None, None, None])
        diag = m.reshape(k, 72)[:, _DIAG].tolist()
        means = [(d0 + d1 + d2) / 3.0 for d0, d1, d2 in diag]
        b = Element(_ALBERT, m - _ALBERT_ONE * np.array(means)[:, None, None, None])
        squares = jordan_mul(b, b).data.reshape(k, 72)[:, _DIAG].tolist()
        off = m.reshape(k, 9, 8)[:, _XYZ_ROWS]
        x, y, z = off.swapaxes(0, 1)
        cross = octonion.real_part(octonion.mul(octonion.mul(x, y), z)).tolist()
        norms = octonion.norm_form(off).tolist()
        return np.array([_albert_roots(*row) for row in zip(
            diag, squares, norms, cross, means, shift.tolist())])

    def exp(self, a: Element, d: int) -> Element:
        # Always on the new element a / d (exact at d = 1), whose spectrum
        # is not kept: the caller's element neither reads nor gets a memo.
        a = a / d
        l0, l1, l2 = _eigvals(a).tolist()
        # The gap test is relative to the norm max(-l0, l2), so it makes the
        # same decision at every scale; "<=" sends the zero element and
        # multiples of the unit, whose gaps are exactly 0, to the series.
        if min(l1 - l0, l2 - l1) <= DEGENERATE_ROOT_GAP * max(-l0, l2):
            return exp_series(a)
        # Newton form of the quadratic interpolating exp at the three roots;
        # evaluating in this basis stays stable when a pair of roots sits just
        # above the fallback gap.  Built on payloads: the one Jordan product
        # is the only step that needs elements.
        d01 = _exp_divided(l0, l1)
        d012 = (_exp_divided(l1, l2) - d01) / (l2 - l0)
        x0 = a.data - _ALBERT_ONE * l0
        x1 = a.data - _ALBERT_ONE * l1
        x01 = jordan_mul(Element(a.descriptor, x0), Element(a.descriptor, x1)).data
        return Element(a.descriptor, _ALBERT_ONE * _exp(l0) + x0 * d01 + x01 * d012)

    def sample(self, rng, descriptor: AlgebraDescriptor) -> Element:
        # Diagonal first, then x, y, z: the draw order fixes seeded elements.
        diag = rng.standard_normal(3)
        return Element(descriptor, _albert_payload(diag, rng.standard_normal((3, 8))))


_FAMILIES = {"sym": _MatrixFamily(float), "herm": _MatrixFamily(complex),
             "spin": _SpinFamily(), "albert": _AlbertFamily()}
_ALBERT = AlgebraDescriptor("albert", 3)


def zero(descriptor: AlgebraDescriptor) -> Element:
    family = descriptor._family
    return Element(descriptor, np.zeros(family.shape(descriptor.dim), dtype=family.dtype))


def unit(descriptor: AlgebraDescriptor) -> Element:
    return Element(descriptor, descriptor._family.unit(descriptor.dim))


# ---------------------------------------------------------------------------
# products


def jordan_mul(a: Element, b: Element) -> Element:
    """Jordan product.  Commutative, not associative."""
    _check_same(a, b)
    return Element(a.descriptor, a.descriptor._family.product(a.data, b.data))


def _triple(mul, x, y, z):
    """{x y z} = (x.y).z + (y.z).x - (x.z).y under the Jordan product mul:
    the one statement of the triple product, for elements
    (``triple_product``) and for jets (``jets.jet_triple``)."""
    return mul(mul(x, y), z) + mul(mul(y, z), x) - mul(mul(x, z), y)


def triple_product(a: Element, b: Element, c: Element) -> Element:
    """{a b c} = (a.b).c + (b.c).a - (a.c).b.  Its first two products check
    that a, b and c lie in one algebra."""
    return _triple(jordan_mul, a, b, c)


def quad_map(a: Element, b: Element) -> Element:
    """Quadratic representation U_a(b) = {a b a}.  Maps positives to positives."""
    return triple_product(a, b, a)


def jordan_power(a: Element, n: int) -> Element:
    """n-th Jordan power by binary splitting; n = 0 gives the unit.

    Powers of a single element associate, so the splitting order does not
    matter beyond roundoff.
    """
    _check_count(n, "exponent", 0)
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


def _eigvals(a: Element) -> np.ndarray:
    """a's ascending eigenvalues: its family's ``eigvals`` on a stack of one."""
    return a.descriptor._family.eigvals(a.data[None])[0]


def _keep_spectra(elements) -> None:
    """Give every element that keeps no spectrum yet the one ``spectrum``
    would take, from one ``eigvals`` call over the stack of their payloads,
    whose rows have the bits of stacks of one.  The elements share one
    algebra."""
    todo = [e for e in elements if getattr(e, "_spectrum", None) is None]
    if todo:
        rows = todo[0].descriptor._family.eigvals(np.stack([e.data for e in todo]))
        for e, row in zip(todo, rows):
            object.__setattr__(e, "_spectrum", row)


def spectrum(a: Element) -> np.ndarray:
    """Eigenvalues, ascending.  Two values for spin, three for albert.

    On every family, an eigenvalue past the float range of a finite
    payload reads +-inf, with no warning.  The element keeps its spectrum
    (README, "Library use"); the array returned is a copy.
    """
    return _kept(a, "_spectrum", _eigvals).copy()


def _nan_max(a: float, b: float) -> float:
    """The larger of a and b, NaN counting as larger than any number (the
    builtin ``max`` keeps its first argument when the second is NaN)."""
    return b if b != b else max(a, b)


def jb_norm(a: Element) -> float:
    """Algebra norm: largest absolute eigenvalue.

    An element with a NaN or an infinite payload entry never gets a finite
    norm: it gets NaN or inf.  Nor does one whose spectrum leaves the
    float range: it gets inf, with no warning.  The element keeps its
    spectrum (README, "Library use").
    """
    vals = _kept(a, "_spectrum", _eigvals)
    # Ascending, so the largest absolute value sits at one end; abs turns
    # the -0.0 of a zero spectrum into 0.0.
    return abs(_nan_max(vals.item(-1), -vals.item(0)))


# ---------------------------------------------------------------------------
# exponentials


def exp_spectral(a: Element, d: int = 1) -> Element:
    """exp(a / d) through eigenvalues (closed form where available), for a
    positive integer step divisor d.

    On sym and herm one eigendecomposition of ``a`` serves every d (see
    ``trotter._measure`` for how long it lives).

    One overflow rule holds for every family: for a finite payload this
    never raises ``OverflowError``.  Where e^l of the top eigenvalue l of
    a / d leaves the float range, the payload returned holds an inf or a
    NaN; where e^l and the spectrum of a / d lie inside it, the result is
    accurate.  A divisor above the largest float raises ``CapacityError``
    (``_check_step``).
    """
    _check_step(d, "divisor d")
    return a.descriptor._family.exp(a, d)


def _quiet():
    """The warning scope of one public computation, and the library's one
    numpy error policy: numpy's overflow and invalid-value warnings stay
    off inside it, since what leaves it (a sampled element, exp of the
    sum, a measured error, and in the CLI's jets report the tolerance
    scale and the jet of exp of the sum) is checked for a value past the
    float range instead."""
    return np.errstate(over="ignore", invalid="ignore")


def _exp_terms(a: Element, degree: int):
    """The Taylor terms a^k / k! of exp(a), k = 0 .. degree, each the one
    before times a over k: the one recursion behind ``exp_series`` and
    ``jets.jet_exp``."""
    term = unit(a.descriptor)
    yield term
    for k in range(1, degree + 1):
        term = jordan_mul(term, a) / float(k)
        yield term


def exp_series(a: Element) -> Element:
    """Scaled-and-squared truncated exponential series.

    Halves the argument s times so its norm is at most about 1/4, sums
    its Taylor terms through degree 20 (``_exp_terms``) from the left,
    then Jordan-squares s times.  Uses nothing but the Jordan product,
    which makes it an independent check on the spectral route.  A norm
    past the float range (inf, or NaN from a NaN entry) fills the payload
    returned, since no halving brings it back.
    """
    nrm = jb_norm(a)
    if not math.isfinite(nrm):  # no halving brings it into the float range
        return Element(a.descriptor, np.full_like(a.data, nrm))
    s = 0 if nrm == 0.0 else max(0, math.ceil(math.log2(nrm)) + 2)
    acc = reduce(Element.__add__, _exp_terms(a * math.ldexp(1.0, -s), 20))
    for _ in range(s):
        acc = jordan_mul(acc, acc)
    return acc


# ---------------------------------------------------------------------------
# sampling


def _generator(seed) -> np.random.Generator:
    """The one seed rule: a Generator is used as it is, and any other seed
    must be an int >= 0 (``_check_count``), which makes a fresh
    ``np.random.default_rng(seed)``.  So no seed draws from OS entropy
    (None), and True, 1.5 and "3" are refused, not read as seeds."""
    if not isinstance(seed, np.random.Generator):
        _check_count(seed, "seed", 0)
    return np.random.default_rng(seed)


def random_element(descriptor: AlgebraDescriptor, seed: int | np.random.Generator,
                   target_norm: float = 1.0) -> Element:
    """Seeded Gaussian element rescaled to the requested algebra norm.

    ``seed`` is an int >= 0, which draws from a fresh
    ``np.random.default_rng(seed)``, or a Generator, whose stream the draw
    continues and advances (``_generator``).

    The rescale rounds, so the norm equals ``target_norm`` only to within a
    few ulps, and may exceed it."""
    if not (math.isfinite(target_norm) and target_norm > 0.0):
        raise ValueError(f"target_norm must be finite and positive, got {target_norm!r}")
    elem = descriptor._family.sample(_generator(seed), descriptor)
    nrm = jb_norm(elem)
    if nrm == 0.0:
        raise RuntimeError("degenerate zero draw")
    scale = target_norm / nrm
    # The one-step factor overflows for a huge target and a draw of norm
    # below 1; the draw then goes to unit norm first.
    with _quiet():
        elem = elem * scale if math.isfinite(scale) else (elem / nrm) * target_norm
    if not _finite(elem.data):
        raise ValueError(f"target_norm {target_norm!r} puts the draw past the float range")
    return elem
