"""Truncated power-series (jet) arithmetic with algebra-element coefficients.

A ``Jet`` holds coefficients c_0 .. c_K of a curve t -> sum c_k t^k with
every c_k an ``Element`` of one algebra.  Products are Cauchy products
truncated at the common degree, with the Jordan product applied on
coefficients, so jets of curves multiply exactly like the curves do
through the retained degree.

This is enough to check, mechanically and per algebra, the Taylor-polynomial
facts behind the second-order error bounds:

* the one-step curves of schemes g (product), f (symmetrized) and h
  (triple-product chain) all agree with exp(t * sum A_j) through degree 2.
  ``step_jet`` evaluates each scheme's one step statement, ``trotter._step``,
  on jets, under its one input rule, so the jets and the approximants
  cannot drift apart: a step jet takes every element list that its
  scheme's approximant takes, one element included;
* pulling the exact exponential back through the inverted symmetrized
  wrappers cancels everything through degree 2, leaving a defect curve
  that starts at degree 3.  The pull-back is scheme f's step on
  (sum A_j, -A_m, ..., -A_1), a list that sums to zero, so this claim is
  f's agreement with exp(t * 0) = 1 and ``step_jet`` states it too.

Degree-3 coefficients generically differ, which is what keeps the
schemes from being third-order accurate.

The jet formulas are the elements' own: ``jet_triple`` evaluates the
triple-product statement of ``triple_product`` (``algebras._triple``) with
``jet_jordan_mul``, and ``jet_exp``'s coefficients are the Taylor terms
that ``exp_series`` sums (``algebras._exp_terms``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .algebras import (
    AlgebraDescriptor,
    Element,
    _check_count,
    _check_elements,
    _check_same,
    _exp_terms,
    _nan_max,
    _triple,
    jb_norm,
    jordan_mul,
    unit,
    zero,
)
from .trotter import _step

DEFAULT_DEGREE = 3


@dataclass(frozen=True)
class Jet:
    """Coefficients c_0 .. c_K of a truncated element-valued series."""

    coefficients: tuple[Element, ...]

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise ValueError("a jet needs at least the degree-0 coefficient")
        for c in self.coefficients[1:]:
            _check_same(self.coefficients[0], c)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __add__(self, other: "Jet") -> "Jet":
        _check_degrees(self, other)
        return Jet(tuple(a + b for a, b in zip(self.coefficients, other.coefficients)))

    def __sub__(self, other: "Jet") -> "Jet":
        _check_degrees(self, other)
        return Jet(tuple(a - b for a, b in zip(self.coefficients, other.coefficients)))


def _check_degrees(p: Jet, q: Jet) -> None:
    if p.degree != q.degree:
        raise ValueError(f"jet degrees differ: {p.degree} vs {q.degree}")


def jet_unit(descriptor: AlgebraDescriptor, degree: int = DEFAULT_DEGREE) -> Jet:
    """The constant jet 1: the zero jet with the unit at degree 0."""
    return Jet((unit(descriptor),) + jet_zero(descriptor, degree).coefficients[1:])


def jet_zero(descriptor: AlgebraDescriptor, degree: int = DEFAULT_DEGREE) -> Jet:
    _check_count(degree, "degree", 0)
    nil = zero(descriptor)
    return Jet((nil,) * (degree + 1))


def jet_exp(a: Element, degree: int = DEFAULT_DEGREE) -> Jet:
    """Jet of t -> exp(t a): coefficients a^k / k!, the terms that
    ``exp_series`` sums (``algebras._exp_terms``)."""
    _check_count(degree, "degree", 0)
    return Jet(tuple(_exp_terms(a, degree)))


def jet_jordan_mul(p: Jet, q: Jet) -> Jet:
    """Cauchy product with the Jordan product on coefficients."""
    _check_degrees(p, q)
    out = []
    for k in range(p.degree + 1):
        acc = None
        for i in range(k + 1):
            term = jordan_mul(p.coefficients[i], q.coefficients[k - i])
            acc = term if acc is None else acc + term
        out.append(acc)
    return Jet(tuple(out))


def jet_quad_map(w: Jet, x: Jet) -> Jet:
    """Jet of the quadratic map U_w(x) = 2 (w∘x)∘w − (w∘w)∘x.

    This is the triple product {w x w} = (w∘x)∘w + (x∘w)∘w − (w∘w)∘x with
    its two equal terms merged, which the commutativity of the Jordan
    product allows for every jet: four Cauchy products instead of six.
    """
    wxw = jet_jordan_mul(jet_jordan_mul(w, x), w)
    return wxw + wxw - jet_jordan_mul(jet_jordan_mul(w, w), x)


def jet_triple(x: Jet, y: Jet, z: Jet) -> Jet:
    """Jet of the triple product {x y z} = (x∘y)∘z + (y∘z)∘x − (x∘z)∘y:
    the statement of ``triple_product`` on jets, six Cauchy products."""
    return _triple(jet_jordan_mul, x, y, z)


def step_jet(scheme: str, elements, degree: int = DEFAULT_DEGREE) -> Jet:
    """Jet of the single step of scheme g, f or h in t: the step statement
    of ``trotter._step`` with factor(A_j, d) the jet of exp(t A_j / d) at
    d = 1, on the element lists that ``approx_*`` take, under the same
    checks (g and f: one or more elements; h: an odd count >= 3).  On one
    element the g and f steps are ``jet_exp`` of it.  A full-step factor
    takes A_j itself, since A_j / 1 would be a copy of it."""
    return _step(scheme, elements, 1, lambda a, d: jet_exp(a if d == 1 else a / d, degree),
                 jet_jordan_mul, jet_quad_map, jet_triple)


def product_step_jet(elements, degree: int = DEFAULT_DEGREE) -> Jet:
    """Jet of the single scheme-g step exp(tA_1) exp(tA_2) ... left-nested."""
    return step_jet("g", elements, degree)


def symmetrized_step_jet(elements, degree: int = DEFAULT_DEGREE) -> Jet:
    """Jet of the single scheme-f step with half-step quadratic-map wrappers."""
    return step_jet("f", elements, degree)


def inverse_sandwich_defect_jet(elements, degree: int = DEFAULT_DEGREE) -> Jet:
    """Exact exponential pulled back through the inverted f-step wrappers,
    minus the constant unit jet.

    The pull-back is scheme f's step on (sum A_j, -A_m, ..., -A_1): the
    jet of exp(t sum A_j) as the core, wrapped in the quadratic maps of
    exp(-t A_j/2), innermost the last element, outermost the first.  That
    list sums to zero and f's step agrees with exp(t * 0) = 1 through
    degree 2, so coefficients 0 through 2 of the result all vanish; the
    generic leading term sits at degree 3.
    """
    elems = _check_elements(elements)
    total = reduce(lambda a, b: a + b, elems)
    pulled_back = step_jet("f", [total] + [-a for a in reversed(elems)], degree)
    return pulled_back - jet_unit(elems[0].descriptor, degree)


def evaluate_jet(p: Jet, t: float) -> Element:
    """Horner evaluation of the jet at parameter value t."""
    acc = p.coefficients[-1]
    for coef in reversed(p.coefficients[:-1]):
        acc = coef + float(t) * acc
    return acc


def residual(p: Jet, reference: Jet, through_degree: int) -> float:
    """Largest coefficient-norm gap between two jets through a degree; NaN
    if any gap is NaN."""
    _check_degrees(p, reference)
    _check_count(through_degree, "through_degree", 0)
    if through_degree > p.degree:
        raise ValueError(f"degree {through_degree} outside jet degree {p.degree}")
    return reduce(_nan_max, (
        jb_norm(p.coefficients[k] - reference.coefficients[k])
        for k in range(through_degree + 1)
    ))
