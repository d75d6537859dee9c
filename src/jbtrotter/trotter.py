"""Product-formula approximants for exp(sum A_j) and their error bounds.

Three schemes, named by their tag in the CLI:

``g``  left-nested Jordan products of exp(A_j / n), whole thing to the
       n-th Jordan power.  Any element count m >= 1.
``f``  symmetrized variant: innermost factor exp(A_1 / n), every further
       element wraps the current core W in the triple product
       {exp(A_j / 2n)  W  exp(A_j / 2n)}.  Any m >= 1.
``h``  triple-product chain for an odd count 2m + 1 >= 3: the innermost
       core is {exp(A_2/n) exp(A_1/n) exp(A_3/n)} and layer k wraps with
       exp(A_2k / n) on the left and exp(A_2k+1 / n) on the right.  All
       factors use the full step 1 / n.

Closed-form error bounds (S = sum of the algebra norms, m = element
count) follow the wire names used in sweep output:

``bound_thm31``      S^3 e^S / (3 n^2)            scheme g
``bound_thm33i``     (3^(m-1) + 1) S^3 e^S / (6 n^2)   scheme f
``bound_thm33ii``    2 * 3^m S^2 e^((n+2)S/n) / n      scheme f
``bound_special``    sharpened f bounds valid on sym/herm only:
                     variant i drops the 3^(m-1) factor, variant ii the 3^m.

``bounds_for`` is the one place that decides which of these applies to a
scheme.  No closed-form bound is known here for scheme h; planners must
use the measured mode for it.  A bound whose value leaves the float range
reads ``inf``, which is still a valid bound since each grows with S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce, wraps

import numpy as np

from .algebras import (
    Element,
    _check_elements,
    exp_spectral,
    jb_norm,
    jordan_mul,
    jordan_power,
    quad_map,
    triple_product,
)

SCHEMES = ("g", "f", "h")

# Planner refuses step counts beyond this.
MAX_PLAN_N = 2**30


class SchemeError(ValueError):
    """Scheme incompatible with the given elements or mode."""


class CapacityError(RuntimeError):
    """Planner target needs more steps than the supported maximum."""


class NonFiniteError(ValueError):
    """exp of the sum of the elements leaves the float range."""


class DegenerateDecayError(ValueError):
    """Errors sit at the floating-point floor, no decay rate to fit.

    Typically means the elements operator-commute, so every scheme is
    exact and the measured errors are pure roundoff.
    """


@dataclass(frozen=True)
class SweepRecord:
    """One (scheme, n) measurement with every applicable closed-form bound."""

    scheme: str
    n: int
    error: float
    bound_thm31: float | None = None
    bound_thm33i: float | None = None
    bound_thm33ii: float | None = None
    bound_special_i: float | None = None
    bound_special_ii: float | None = None


def _check_n(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"step count n must be a positive integer, got {n!r}")


def approx_g(elements, n: int) -> Element:
    """Left-nested product scheme at step count n."""
    elems = _check_elements(elements)
    _check_n(n)
    factors = [exp_spectral(a / n) for a in elems]
    step = reduce(jordan_mul, factors)
    return jordan_power(step, n)


def approx_f(elements, n: int) -> Element:
    """Symmetrized scheme: half-step triple-product wrappers, then power n."""
    elems = _check_elements(elements)
    _check_n(n)
    core = exp_spectral(elems[0] / n)
    for a in elems[1:]:
        core = quad_map(exp_spectral(a / (2 * n)), core)
    return jordan_power(core, n)


def approx_h(elements, n: int) -> Element:
    """Odd-count triple-product chain at full step 1/n."""
    elems = _check_elements(elements)
    _check_n(n)
    if len(elems) < 3 or len(elems) % 2 == 0:
        raise SchemeError(f"scheme h needs an odd element count >= 3, got {len(elems)}")
    factors = [exp_spectral(a / n) for a in elems]
    core = triple_product(factors[1], factors[0], factors[2])
    for k in range(3, len(factors), 2):
        core = triple_product(factors[k], core, factors[k + 1])
    return jordan_power(core, n)


_APPROX = {"g": approx_g, "f": approx_f, "h": approx_h}


def exp_sum(elements) -> Element:
    """Reference value exp(A_1 + ... + A_m); ``NonFiniteError`` if it overflows."""
    elems = _check_elements(elements)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value = exp_spectral(reduce(lambda a, b: a + b, elems))
    except OverflowError:  # math.exp in the spin and albert closed forms
        value = None
    if value is None or not np.isfinite(value.data).all():
        raise NonFiniteError("exp of the sum of the elements overflows the float range")
    return value


def measured_error(scheme: str, elements, n: int) -> float:
    """Algebra-norm distance between the scheme at n and exp of the sum."""
    if scheme not in SCHEMES:
        raise SchemeError(f"unknown scheme {scheme!r}")
    return jb_norm(exp_sum(elements) - _APPROX[scheme](elements, n))


# ---------------------------------------------------------------------------
# closed-form bounds


def _norm_sum(norms) -> float:
    vals = [float(v) for v in norms]
    if not all(v >= 0 for v in vals):
        raise ValueError("norms must be nonnegative")
    return sum(vals)


def _saturating(bound):
    """Read a bound that overflows the float range as inf."""

    @wraps(bound)
    def saturated(*args, **kwargs):
        try:
            return bound(*args, **kwargs)
        except OverflowError:
            return math.inf

    return saturated


@_saturating
def bound_thm31(norms, n: int) -> float:
    """Cubic second-order bound for scheme g."""
    _check_n(n)
    s = _norm_sum(norms)
    return s**3 * math.exp(s) / (3.0 * n * n)


@_saturating
def bound_thm33i(norms, n: int) -> float:
    """Cubic second-order bound for scheme f; grows like 3^(m-1) in the count."""
    _check_n(n)
    vals = [float(v) for v in norms]
    s = _norm_sum(vals)
    m = len(vals)
    return (3.0 ** (m - 1) + 1.0) * s**3 * math.exp(s) / (6.0 * n * n)


@_saturating
def bound_thm33ii(norms, n: int) -> float:
    """Quadratic first-order bound for scheme f with an n-dependent exponent."""
    _check_n(n)
    vals = [float(v) for v in norms]
    s = _norm_sum(vals)
    m = len(vals)
    return (2.0 * 3.0**m / n) * s * s * math.exp((n + 2.0) * s / n)


@_saturating
def bound_special(norms, n: int, variant: str) -> float:
    """Sharpened f bounds, valid only on the associatively representable
    families (sym and herm).  Variant "i" is cubic in S and second order
    in n, variant "ii" quadratic in S and first order."""
    _check_n(n)
    s = _norm_sum(norms)
    if variant == "i":
        return s**3 * math.exp(s) / (3.0 * n * n)
    if variant == "ii":
        return (2.0 / n) * s * s * math.exp((n + 2.0) * s / n)
    raise ValueError(f"variant must be 'i' or 'ii', got {variant!r}")


def bounds_for(scheme: str, norms, n: int, special: bool) -> dict:
    """Every closed-form bound that applies to the scheme at step count n,
    keyed by its ``SweepRecord`` field; the sharpened ones need ``special``.
    """
    if scheme == "g":
        return {"bound_thm31": bound_thm31(norms, n)}
    if scheme == "f":
        bounds = {
            "bound_thm33i": bound_thm33i(norms, n),
            "bound_thm33ii": bound_thm33ii(norms, n),
        }
        if special:
            bounds["bound_special_i"] = bound_special(norms, n, "i")
            bounds["bound_special_ii"] = bound_special(norms, n, "ii")
        return bounds
    if scheme == "h":
        return {}
    raise SchemeError(f"unknown scheme {scheme!r}")


def tightest_bound(scheme: str, norms, n: int, special: bool = False) -> float:
    """Smallest applicable closed-form bound at step count n."""
    bounds = bounds_for(scheme, norms, n, special)
    if not bounds:
        raise SchemeError(f"no closed-form bound for scheme {scheme!r}, use measured mode")
    return min(bounds.values())


# ---------------------------------------------------------------------------
# planner


def plan_min_n(
    scheme: str,
    eps: float,
    *,
    norms=None,
    elements=None,
    mode: str = "bound",
    special: bool = False,
) -> int:
    """Smallest step count with guaranteed (bound mode) or measured error
    at most eps.

    Bound mode needs per-element norms (taken from ``elements`` when not
    given) and satisfies bound(n) <= eps < bound(n - 1).  Measured mode
    needs the elements themselves and uses doubling plus bisection on the
    measured error, which is assumed monotone along the search.
    """
    if scheme not in SCHEMES:
        raise SchemeError(f"unknown scheme {scheme!r}")
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    if mode == "bound":
        if norms is None:
            if elements is None:
                raise ValueError("bound mode needs norms or elements")
            elems = _check_elements(elements)
            norms = [jb_norm(a) for a in elems]
            special = elems[0].descriptor.is_special
        norms = list(norms)
        return _min_n(lambda n: tightest_bound(scheme, norms, n, special) <= eps, eps)
    if mode == "measured":
        if elements is None:
            raise ValueError("measured mode needs elements")
        elems = _check_elements(elements)
        target = exp_sum(elems)
        approx = _APPROX[scheme]
        return _min_n(lambda n: jb_norm(target - approx(elems, n)) <= eps, eps)
    raise ValueError(f"mode must be 'bound' or 'measured', got {mode!r}")


def _min_n(ok, eps: float) -> int:
    """Smallest n with ok(n), for a predicate that stays true as n grows:
    doubling finds a bracket, bisection the threshold inside it."""
    if ok(1):
        return 1
    lo, hi = 1, 2
    while not ok(hi):
        lo, hi = hi, 2 * hi
        if hi > MAX_PLAN_N:
            raise CapacityError(f"target eps={eps!r} needs more than {MAX_PLAN_N} steps")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# sweeps


def sweep(scheme: str, elements, n_values) -> list[SweepRecord]:
    """Measured error plus applicable bounds for each n, in given order."""
    if scheme not in SCHEMES:
        raise SchemeError(f"unknown scheme {scheme!r}")
    elems = _check_elements(elements)
    ns = [int(n) for n in n_values]
    for n in ns:
        _check_n(n)
    target = exp_sum(elems)
    norms = [jb_norm(a) for a in elems]
    special = elems[0].descriptor.is_special
    approx = _APPROX[scheme]
    records = []
    for n in ns:
        error = float(jb_norm(target - approx(elems, n)))
        records.append(SweepRecord(scheme, n, error, **bounds_for(scheme, norms, n, special)))
    return records


def empirical_order(records) -> float:
    """Least-squares decay exponent of error against n.

    Expects one scheme and at least four doubling n values whose errors
    sit above the floating-point floor (1e-13); raises
    ``DegenerateDecayError`` otherwise, which usually flags a commuting
    instance rather than a bug.
    """
    recs = sorted(records, key=lambda r: r.n)
    if not recs:
        raise ValueError("no records")
    schemes = {r.scheme for r in recs}
    if len(schemes) != 1:
        raise ValueError(f"records mix schemes {sorted(schemes)}")
    usable = [r for r in recs if r.error > 1e-13]
    if len(usable) < 4:
        raise DegenerateDecayError(
            f"only {len(usable)} records above the error floor, need 4"
        )
    for a, b in zip(usable, usable[1:]):
        if b.n != 2 * a.n:
            raise ValueError("records must cover doubling n values")
    xs = np.log([r.n for r in usable])
    ys = np.log([r.error for r in usable])
    slope = np.polyfit(xs, ys, 1)[0]
    return float(-slope)
