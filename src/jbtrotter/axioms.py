"""Randomized verification of the Jordan identity and the norm axioms.

Each check draws seeded element pairs, evaluates one defining identity or
inequality, and reports the worst scaled residual.  Residuals divide out
a natural magnitude factor so one tolerance works across norm scales;
inequalities report a signed margin (negative means satisfied with room).

The seed fixes every pair: one generator, ``np.random.default_rng(seed)``,
draws the two target norms of every trial first, then a and b of each
trial in turn, each from the same stream.  So the pairs do not depend on
how the trials are chunked, and trial i is reproduced by rerunning with
the same seed.

``run_axiom_suite`` accepts the product as a parameter so a corrupted
multiplication can be injected to prove the checks have teeth.  It takes
the pairs 8 at a time, a chunk: each pair is drawn and makes its products
in turn, then one stacked spectrum call (``algebras._keep_spectra``) serves
every element whose norm the chunk's checks read, with the bits that one
spectrum per element gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebras import (AlgebraDescriptor, Element, _check_count, _generator, _keep_spectra,
                       _nan_max, jb_norm, jordan_mul, random_element)

DEFAULT_TOL = 1e-10
# Commutativity holds up to roundoff, so its limit is the tolerance / 1e4.
_COMMUTATIVITY_DIVISOR = 1e4
COMMUTATIVITY_TOL = DEFAULT_TOL / _COMMUTATIVITY_DIVISOR
# Pairs per stacked spectrum call in run_axiom_suite.
_CHUNK = 8


@dataclass(frozen=True)
class AxiomResult:
    name: str
    passed: bool
    worst: float
    tolerance: float


def _suite_checks(product):
    # Each check makes its products for a pair (a, b) and returns the
    # elements whose norms it reads besides a and b, with its residual as a
    # function to call once those elements keep their spectra.
    def jordan_identity(a: Element, b: Element):
        asq = product(a, a)
        r = product(product(asq, b), a) - product(asq, product(b, a))
        return (r,), lambda: jb_norm(r) / ((1.0 + jb_norm(a)) ** 3 * (1.0 + jb_norm(b)))

    def commutativity(a: Element, b: Element):
        r = product(a, b) - product(b, a)
        return (r,), lambda: jb_norm(r) / ((1.0 + jb_norm(a)) * (1.0 + jb_norm(b)))

    def norm_submultiplicative(a: Element, b: Element):
        ab = product(a, b)

        def residual() -> float:
            na, nb = jb_norm(a), jb_norm(b)
            return (jb_norm(ab) - na * nb) / (1.0 + na * nb)

        return (ab,), residual

    def norm_square(a: Element, b: Element):
        asq = product(a, a)

        def residual() -> float:
            na = jb_norm(a)
            return abs(jb_norm(asq) - na * na) / (1.0 + na) ** 2

        return (asq,), residual

    def norm_square_monotone(a: Element, b: Element):
        asq, bsq = product(a, a), product(b, b)
        total = asq + bsq

        def residual() -> float:
            scale = 1.0 + jb_norm(a) ** 2 + jb_norm(b) ** 2
            return (jb_norm(asq) - jb_norm(total)) / scale

        return (asq, total), residual

    # (name, check, divisor): a check's limit is the tolerance / divisor.
    return [
        ("jordan-identity", jordan_identity, 1.0),
        ("commutativity", commutativity, _COMMUTATIVITY_DIVISOR),
        ("norm-submultiplicative", norm_submultiplicative, 1.0),
        ("norm-square", norm_square, 1.0),
        ("norm-square-monotone", norm_square_monotone, 1.0),
    ]


def run_axiom_suite(
    descriptor: AlgebraDescriptor,
    trials: int = 1000,
    seed: int | np.random.Generator = 0,
    tol: float = DEFAULT_TOL,
    product=jordan_mul,
) -> list[AxiomResult]:
    """Evaluate every axiom check over seeded pairs; deterministic in seed.

    ``np.random.default_rng(seed)`` draws the (trials, 2) target norms,
    then continues as the generator of both ``random_element`` draws of
    each trial, a then b.  Trial i's pair is reproduced by rerunning with
    the same seed.  The seed follows ``random_element``'s rule
    (``algebras._generator``): an int >= 0, or a Generator, whose stream
    the suite continues.

    ``tol`` must be finite and positive.  It is the limit of every check
    but commutativity, whose limit is ``tol / 1e4``.
    """
    _check_count(trials, "trials")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    rng = _generator(seed)
    norms = rng.uniform(0.25, 2.0, size=(trials, 2))
    checks = _suite_checks(product)
    # _CHUNK pairs at a time, so memory does not grow with the trial count.
    worst = None
    for start in range(0, trials, _CHUNK):
        normed, pairs = [], []
        for i in range(start, min(start + _CHUNK, trials)):
            a = random_element(descriptor, rng, float(norms[i, 0]))
            b = random_element(descriptor, rng, float(norms[i, 1]))
            made = [check(a, b) for _, check, _ in checks]
            normed += [a, b, *(e for elements, _ in made for e in elements)]
            pairs.append([residual for _, residual in made])
        _keep_spectra(normed)
        for residuals in pairs:
            values = [residual() for residual in residuals]
            # NaN is the worst value, so a check that ever gives NaN fails.
            worst = values if worst is None else [_nan_max(w, v) for w, v in zip(worst, values)]
    results = []
    for (name, _, divisor), w in zip(checks, worst):
        limit = tol / divisor
        results.append(AxiomResult(name, w <= limit, float(w), limit))
    return results
