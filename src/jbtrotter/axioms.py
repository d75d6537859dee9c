"""Randomized verification of the Jordan identity and the norm axioms.

Each check draws seeded element pairs, evaluates one defining identity or
inequality, and reports the worst scaled residual.  Residuals divide out
a natural magnitude factor so one tolerance works across norm scales;
inequalities report a signed margin (negative means satisfied with room).

``run_axiom_suite`` accepts the product as a parameter so a corrupted
multiplication can be injected to prove the checks have teeth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebras import AlgebraDescriptor, Element, _nan_max, jb_norm, jordan_mul, random_element

DEFAULT_TOL = 1e-10
# Commutativity holds up to roundoff, so its limit is the tolerance / 1e4.
_COMMUTATIVITY_DIVISOR = 1e4
COMMUTATIVITY_TOL = DEFAULT_TOL / _COMMUTATIVITY_DIVISOR


@dataclass(frozen=True)
class AxiomResult:
    name: str
    passed: bool
    worst: float
    tolerance: float


def _suite_checks(product):
    def jordan_identity(a: Element, b: Element) -> float:
        asq = product(a, a)
        lhs = product(product(asq, b), a)
        rhs = product(asq, product(b, a))
        scale = (1.0 + jb_norm(a)) ** 3 * (1.0 + jb_norm(b))
        return jb_norm(lhs - rhs) / scale

    def commutativity(a: Element, b: Element) -> float:
        scale = (1.0 + jb_norm(a)) * (1.0 + jb_norm(b))
        return jb_norm(product(a, b) - product(b, a)) / scale

    def norm_submultiplicative(a: Element, b: Element) -> float:
        na, nb = jb_norm(a), jb_norm(b)
        return (jb_norm(product(a, b)) - na * nb) / (1.0 + na * nb)

    def norm_square(a: Element, b: Element) -> float:
        na = jb_norm(a)
        return abs(jb_norm(product(a, a)) - na * na) / (1.0 + na) ** 2

    def norm_square_monotone(a: Element, b: Element) -> float:
        asq, bsq = product(a, a), product(b, b)
        scale = 1.0 + jb_norm(a) ** 2 + jb_norm(b) ** 2
        return (jb_norm(asq) - jb_norm(asq + bsq)) / scale

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
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    product=jordan_mul,
) -> list[AxiomResult]:
    """Evaluate every axiom check over seeded pairs; deterministic in seed.

    ``tol`` is the limit of every check but commutativity, whose limit is
    ``tol / 1e4``.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = np.random.default_rng(seed)
    norms = rng.uniform(0.25, 2.0, size=(trials, 2))
    seeds = rng.integers(0, 2**62, size=(trials, 2))
    checks = _suite_checks(product)
    # One pair at a time, so memory does not grow with the trial count.
    worst = None
    for i in range(trials):
        a = random_element(descriptor, int(seeds[i, 0]), float(norms[i, 0]))
        b = random_element(descriptor, int(seeds[i, 1]), float(norms[i, 1]))
        values = [check(a, b) for _, check, _ in checks]
        # NaN is the worst value, so a check that ever gives NaN fails.
        worst = values if worst is None else [_nan_max(w, v) for w, v in zip(worst, values)]
    results = []
    for (name, _, divisor), w in zip(checks, worst):
        limit = tol / divisor
        results.append(AxiomResult(name, w <= limit, float(w), limit))
    return results
