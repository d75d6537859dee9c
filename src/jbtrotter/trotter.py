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

Each scheme's single step is stated once, in ``_step``, against a factor
source and three operations (product, U map, triple).  ``approx_*`` run
it on elements at d = n and take the n-th Jordan power of the step;
``jets.step_jet`` runs the same statement on jets, which is how the tests
check that every step agrees with exp(t * sum A_j) through degree 2.  On
elements each factor exp(A_j / n) or exp(A_j / 2n) is
``exp_spectral(A_j, n)`` or ``exp_spectral(A_j, 2 * n)``, unless the
caller passes ``approx_*`` its own factor source.  Every measurement
goes through one path, ``_measure``: ``_sweep_schemes`` measures a list of
schemes over a list of step counts, ``sweep`` is its one-scheme case and
``measured_error`` its one-scheme, one-n case, and the measured plan
searches the error of one.  Each call computes exp of the sum once, and
on sym and herm makes m + 1 ``eigh`` calls, however many schemes and
step counts it covers; ``_measure``'s docstring says how long they live.
A measurement of two or more schemes also shares factors through a
cache that ``_measure`` owns and passes to ``approx_*``: step counts
form the outer loop, the schemes at one n share its factors, and f's
half-step factor exp(A_j / 2n) is the full-step factor of the step
count 2n, so a doubling sweep carries it over.  At most 2m factors are
alive at once, however many step counts the sweep covers.

``_plan`` states both plan modes, bound and measured, as one step-count
search that hands back every value it evaluated; it serves
``plan_min_n``, the CLI's ``plan`` and its demo.

Closed-form error bounds (S = sum of the algebra norms, m = element
count), one function per formula:

``bound_thm31``      S^3 e^S / (3 n^2)                 scheme g
``bound_thm33i``     (3^(m-1) + 1) S^3 e^S / (6 n^2)   scheme f
``bound_thm33ii``    2 * 3^m S^2 e^((n+2)S/n) / n      scheme f
``bound_special``    2 S^2 e^((n+2)S/n) / n            scheme f, sym/herm only

Sweep output names a column after each function; on sym and herm a
scheme f record adds the sharpened pair as ``bound_special_i`` (the thm31
formula) and ``bound_special_ii`` (``bound_special``).
``bounds_for`` is the one place that decides which of these applies to a
scheme.  No closed-form bound is known here for scheme h; planners must
use the measured mode for it.  A bound whose value leaves the float range
reads ``inf``, which is still a valid bound since each grows with S; so
does a measured error past it (``_measure``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .algebras import (
    CapacityError,
    Element,
    _check_elements,
    _check_step,
    _finite,
    _positive,
    _quiet,
    _real,
    exp_spectral,
    jb_norm,
    jordan_mul,
    jordan_power,
    quad_map,
    triple_product,
)

# Planner refuses step counts beyond this.
MAX_PLAN_N = 2**30


class SchemeError(ValueError):
    """Scheme incompatible with the given elements or mode."""


class NonFiniteError(ValueError):
    """exp of the sum of the elements leaves the float range, so no error
    can be measured.  A measured error past it reads ``inf`` instead."""


class DegenerateDecayError(ValueError):
    """Errors sit at the floating-point floor, no decay rate to fit.

    Typically means the elements operator-commute, so every scheme is
    exact and the measured errors are pure roundoff.
    """


@dataclass(frozen=True, slots=True)
class SweepRecord:
    """One (scheme, n) measurement with every applicable closed-form bound.

    Slotted: a record holds its fields and nothing else."""

    scheme: str
    n: int
    error: float
    bound_thm31: float | None = None
    bound_thm33i: float | None = None
    bound_thm33ii: float | None = None
    bound_special_i: float | None = None
    bound_special_ii: float | None = None


def _step(scheme: str, elements, d: int, factor, mul, quad, triple):
    """The single step of a scheme, stated once for elements and jets alike.

    factor(A_j, d) is exp(A_j / d): d is the full step and 2d the half
    step; None means ``exp_spectral``, looked up at each call.  mul, quad
    and triple are the Jordan product, the U map and the triple product.
    ``approx_*`` pass their factor source and the element operations at
    d = n; ``jets.step_jet`` passes jet exponentials and the jet operations
    at d = 1.  One input rule serves both: the scheme is known, then one
    or more elements of one algebra, d a step count and, for h, an odd
    element count >= 3.  A step count above half the largest float raises
    ``CapacityError`` (``_check_step``) before any factor is computed."""
    _check_scheme(scheme)
    elems = _check_elements(elements)
    _check_step(d, "step count n", 2)
    factor = factor or exp_spectral
    if scheme == "g":
        return reduce(mul, [factor(a, d) for a in elems])
    if scheme == "f":
        core = factor(elems[0], d)
        for a in elems[1:]:
            core = quad(factor(a, 2 * d), core)
        return core
    _check_h_count(len(elems))
    factors = [factor(a, d) for a in elems]
    core = factors[0]
    for k in range(1, len(factors), 2):
        core = triple(factors[k], core, factors[k + 1])
    return core


def _check_h_count(count: int) -> None:
    """Scheme h's one rule on its elements, which ``_step`` and ``_measure`` apply."""
    if count < 3 or count % 2 == 0:
        raise SchemeError(f"scheme h needs an odd element count >= 3, got {count}")


def approx_g(elements, n: int, factor=None) -> Element:
    """Left-nested product scheme at step count n.

    factor(A_j, d) gives each factor exp(A_j / d), here at d = n; the
    default None takes it from ``exp_spectral``.  A multi-scheme
    ``_measure`` passes its factor cache.  The same holds for ``approx_f``
    (d = n and the half step 2n) and ``approx_h``."""
    return jordan_power(_step("g", elements, n, factor, jordan_mul, quad_map, triple_product), n)


def approx_f(elements, n: int, factor=None) -> Element:
    """Symmetrized scheme: half-step triple-product wrappers, then power n;
    factor as in ``approx_g``."""
    return jordan_power(_step("f", elements, n, factor, jordan_mul, quad_map, triple_product), n)


def approx_h(elements, n: int, factor=None) -> Element:
    """Odd-count triple-product chain at full step 1/n; factor as in
    ``approx_g``."""
    return jordan_power(_step("h", elements, n, factor, jordan_mul, quad_map, triple_product), n)


_APPROX = {"g": approx_g, "f": approx_f, "h": approx_h}
SCHEMES = tuple(_APPROX)


def _check_scheme(scheme: str) -> None:
    """The one unknown-scheme rule."""
    if scheme not in SCHEMES:
        raise SchemeError(f"unknown scheme {scheme!r}")


def exp_sum(elements) -> Element:
    """Reference value exp(A_1 + ... + A_m); ``NonFiniteError`` if it overflows."""
    with _quiet():
        value = exp_spectral(reduce(lambda a, b: a + b, _check_elements(elements)))
        if not _finite(value.data):
            raise NonFiniteError("exp of the sum of the elements overflows the float range")
    return value


def _measure(schemes, elements, ns=()):
    """The one measuring path: private copies of the elements, and
    error_at(scheme, n) = ||exp(A_1 + ... + A_m) - scheme at n|| for the
    caller to run inside its ``_quiet()`` scope.  Every scheme in
    ``schemes``, the elements (for scheme h their odd count, as
    ``_step`` checks it) and each n in ``ns`` are checked before exp
    of the sum, which is computed once for all the schemes.

    The factors live here, not on the elements: one cache, keyed by copy
    and divisor, which error_at hands to ``approx_*`` as their factor
    source when ``schemes`` holds two or more.  The schemes measured at
    one n then share each exp(A_j / n) and exp(A_j / 2n).  error_at(scheme,
    n) first drops every other divisor, so the cache holds at most 2m
    factors, and a caller that keeps n fixed across its schemes computes
    each factor once, the exp(A_j / 2n) of a doubling predecessor
    included.  One scheme never asks for one divisor twice, so a
    one-scheme measurement passes None and ``approx_*`` call
    ``exp_spectral`` directly: a table's upkeep alone cost the grid-matrix
    benchmark, all one-scheme sweeps, 3.7 % of its ops_per_s in ten 12 s
    pairs at seeds 801-810 (``bench/run.py``, 2-core Xeon, Python 3.11),
    and 2.7 % again, the fork winning 9 of 10 pairs at seeds 911-920, when
    it was re-measured end to end, so it stays.

    On sym and herm a measurement of m elements over any number of schemes
    and step counts makes m + 1 ``eigh`` calls (1 when m = 1, the sum
    being the element): ``exp_spectral`` keeps each on the copy it
    decomposed, and the copies, which share the caller's payloads, take
    them along when they die, with any spectrum a norm kept on them; the
    caller's elements keep neither.  The copies are there for memory:
    measuring on the caller's elements, which then keep every
    decomposition, raised the grid-matrix benchmark's peak RSS from 57.2
    to 61.3-61.6 MB (+7 %) in two 12 s runs each at seed 11
    (``bench/run.py``, 2-core Xeon, Python 3.11).

    An error past the float range reads ``inf``, as a bound does, and a
    NaN error reads ``inf`` too.  The error is the only value checked: a
    product past the float range always gives an error that is not
    finite, since
    - a factor exp(A_j / n) past it holds a NaN or an infinity
      (``exp_spectral``'s one overflow rule);
    - only Jordan products, sums and real multiples lead from the factors
      to the error, and each keeps a NaN or an infinity: in every family
      some entry of x o y is a sum with the term x_i c for each entry x_i
      of x, the Hermitian part included, and neither inf c nor nan c is
      finite for any c, nor is a sum with such a term;
    - ``jb_norm`` of a payload holding a NaN or an infinity is NaN or inf.
    Only exp of the sum raises ``NonFiniteError``: without it no step
    count can be measured.
    """
    for scheme in schemes:
        _check_scheme(scheme)
    elems = [Element(a.descriptor, a.data) for a in _check_elements(elements)]
    if "h" in schemes:
        _check_h_count(len(elems))
    for n in ns:
        _check_step(n, "step count n", 2)
    target = exp_sum(elems)
    cache = {}  # (id of a copy, divisor) -> factor; elems keeps each id's copy alive

    def cached(a: Element, d: int) -> Element:
        if (id(a), d) not in cache:
            cache[id(a), d] = exp_spectral(a, d)
        return cache[id(a), d]

    factor = cached if len(schemes) > 1 else None

    def error_at(scheme: str, n: int) -> float:
        for key in [key for key in cache if key[1] != n and key[1] != 2 * n]:
            del cache[key]
        error = float(jb_norm(target - _APPROX[scheme](elems, n, factor)))
        return error if math.isfinite(error) else math.inf

    return elems, error_at


def measured_error(scheme: str, elements, n: int) -> float:
    """Algebra-norm distance between the scheme at n and exp of the sum,
    ``inf`` past the float range: the error_at of one ``_measure``, with
    no norms of the elements and no bounds.

    Past the step count where the roundoff of the factors exp(A_j / n),
    amplified by the n-th power, exceeds the scheme's truncation error,
    the error measured is roundoff, not the scheme's.  For f on three
    elements of unit norm the smallest error over n = 2^0 .. 2^22 was
    6.8e-11 (spin:8) to 3.8e-10 (herm:4).  At n = 2^61 .. 2^65, g, f and
    h on three seeded unit-norm elements read inf on sym:6 and herm:4,
    and one constant error at every n on spin:8 and albert."""
    with _quiet():
        return _measure([scheme], elements, [n])[1](scheme, n)


# ---------------------------------------------------------------------------
# closed-form bounds


def _bound(norms, n: int, formula) -> float:
    """formula(S, m) of the norms' sum S and count m, inf past the float
    range.  Each norm is a real number (``_real``); a Python float, which
    every sweep and CLI norm is, skips the check."""
    _check_step(n, "step count n", 2)
    try:
        vals = [v if type(v) is float else _real(v, "norm") for v in norms]
        if not all(v >= 0 for v in vals):
            raise ValueError("norms must be nonnegative")
        return formula(sum(vals), len(vals))
    except OverflowError:
        return math.inf


def _cubic(norms, n: int, count, divisor: float) -> float:
    """count(m) S^3 e^S / (divisor n^2), second order in n."""
    return _bound(norms, n, lambda s, m: count(m) * s**3 * math.exp(s) / (divisor * n * n))


def _quadratic(norms, n: int, count) -> float:
    """count(m) S^2 e^((n+2)S/n) / n, first order in n."""
    return _bound(norms, n, lambda s, m: (count(m) / n) * s * s * math.exp((n + 2.0) * s / n))


def bound_thm31(norms, n: int) -> float:
    """Cubic second-order bound for scheme g."""
    return _cubic(norms, n, lambda m: 1.0, 3.0)


def bound_thm33i(norms, n: int) -> float:
    """Cubic second-order bound for scheme f; grows like 3^(m-1) in the count."""
    return _cubic(norms, n, lambda m: 3.0 ** (m - 1) + 1.0, 6.0)


def bound_thm33ii(norms, n: int) -> float:
    """Quadratic first-order bound for scheme f with an n-dependent exponent."""
    return _quadratic(norms, n, lambda m: 2.0 * 3.0**m)


def bound_special(norms, n: int) -> float:
    """Sharpened quadratic bound for scheme f, valid only on the
    associatively representable families (sym and herm): thm33ii without
    the 3^m."""
    return _quadratic(norms, n, lambda m: 2.0)


def bounds_for(scheme: str, norms, n: int, special: bool) -> dict:
    """Every closed-form bound that applies to the scheme at step count n,
    keyed by its ``SweepRecord`` field; the sharpened ones need ``special``,
    and ``bound_special_i`` is the thm31 formula.  The norms are read once,
    so a one-shot iterable serves every bound.
    """
    norms = list(norms)
    _check_scheme(scheme)
    if scheme == "g":
        return {"bound_thm31": bound_thm31(norms, n)}
    if scheme == "h":
        return {}
    bounds = {
        "bound_thm33i": bound_thm33i(norms, n),
        "bound_thm33ii": bound_thm33ii(norms, n),
    }
    if special:
        bounds["bound_special_i"] = bound_thm31(norms, n)
        bounds["bound_special_ii"] = bound_special(norms, n)
    return bounds


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
    at most eps, a finite positive number (``algebras._positive``): the
    n_min of ``_plan``.

    Bound mode needs ``norms``, the per-element norms, and ``special``
    for the sharpened sym/herm bounds; it satisfies bound(n) <= eps <
    bound(n - 1).  Measured mode needs the elements themselves and uses
    doubling plus bisection on the measured error, which is assumed
    monotone along the search; decompositions as in ``_measure``.  Each
    mode refuses what only the other reads (``ValueError``), rather than
    drop it: bound mode the elements, measured mode the norms and
    ``special``.
    """
    return _plan(scheme, eps, norms, elements, mode, special)[0]


def _plan(scheme: str, eps: float, norms, elements, mode: str, special: bool):
    """The one planner: every argument check, then one ``_min_n`` search
    per mode, returning (n_min, values) with each value the search
    evaluated, keyed by step count.  Bound mode searches
    ``tightest_bound`` of the norms, looked up by its module name at each
    call, so a wrapper set on the module sees it; measured mode searches
    the error_at of one ``_measure`` of the elements (exp of the sum
    computed once).  A report reads n_min and n_min - 1 from the values,
    so it evaluates nothing again."""
    _check_scheme(scheme)
    _positive(eps, "eps")
    if mode == "bound":
        if norms is None:
            raise ValueError("bound mode needs norms")
        if elements is not None:
            raise ValueError("bound mode reads norms, not elements")
        norms = list(norms)
        return _min_n(lambda n: tightest_bound(scheme, norms, n, special), eps)
    if mode == "measured":
        if elements is None:
            raise ValueError("measured mode needs elements")
        if norms is not None or special:
            raise ValueError("measured mode reads elements, not norms or special")
        with _quiet():
            _, error_at = _measure([scheme], elements)
            return _min_n(lambda n: error_at(scheme, n), eps)
    raise ValueError(f"mode must be 'bound' or 'measured', got {mode!r}")


def _min_n(value, eps: float) -> tuple[int, dict]:
    """Smallest n with value(n) <= eps, for a value that stays at most eps
    once it gets there as n grows: doubling finds a bracket, bisection the
    threshold inside it.  Returns it with every value evaluated, keyed by
    step count; n_min and, for n_min > 1, n_min - 1 are among them."""
    values = {}

    def ok(n: int) -> bool:
        values[n] = value(n)
        return values[n] <= eps

    if ok(1):
        return 1, values
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
    return hi, values


# ---------------------------------------------------------------------------
# sweeps


def _sweep_schemes(schemes, elements, n_values) -> list[list[SweepRecord]]:
    """The records of each scheme in turn, each over every n in given
    order, from one ``_measure``: one exp of the sum, one set of norms and,
    at each n, one set of factors serve every scheme.

    Step counts form the outer loop and schemes the inner one, so the
    factors of one n are computed once and dropped when n changes (at most
    2m alive; ``_measure``).  numpy's overflow warnings are silenced once
    for the whole sweep, not per product; an error past the float range
    is a record reading ``inf``.
    """
    schemes, ns = list(schemes), list(n_values)
    with _quiet():
        elems, error_at = _measure(schemes, elements, ns)
        special = elems[0].descriptor.is_special
        norms = [jb_norm(a) for a in elems]
        rows = [[] for _ in schemes]
        for n in ns:
            for scheme, row in zip(schemes, rows):
                row.append(SweepRecord(scheme, n, error_at(scheme, n),
                                       **bounds_for(scheme, norms, n, special)))
        return rows


def sweep(scheme: str, elements, n_values) -> list[SweepRecord]:
    """Measured error plus applicable bounds for each n, in given order;
    the one-scheme case of ``_sweep_schemes``.  Past the step count where
    the factors' roundoff exceeds the truncation error, a record's error
    is roundoff (``measured_error``), and ``empirical_order`` of such
    records fits no order of the scheme."""
    return _sweep_schemes([scheme], elements, n_values)[0]


def empirical_order(records) -> float:
    """Least-squares decay exponent of error against n.

    Expects one scheme and at least four doubling n values whose errors
    are finite and sit above the floating-point floor (1e-13); records
    whose error is infinite are left out of the fit.  Fewer than four
    finite records raise ``ValueError``; records that the floor leaves
    short of four raise ``DegenerateDecayError``, which usually flags a
    commuting instance rather than a bug.
    """
    recs = sorted(records, key=lambda r: r.n)
    schemes = {r.scheme for r in recs}
    if len(schemes) > 1:
        raise ValueError(f"records mix schemes {sorted(schemes)}")
    finite = [r for r in recs if r.error < math.inf]
    if len(finite) < 4:
        raise ValueError(f"need at least 4 records with a finite error, got {len(finite)}")
    usable = [r for r in finite if r.error > 1e-13]
    if len(usable) < 4:
        raise DegenerateDecayError(
            f"only {len(usable)} records above the error floor, need 4"
        )
    for a, b in zip(usable, usable[1:]):
        if b.n != 2 * a.n:
            raise ValueError("records must cover doubling n values")
    # Floats, since numpy takes the log of no int past int64.
    xs = np.log([float(r.n) for r in usable])
    ys = np.log([r.error for r in usable])
    slope = np.polyfit(xs, ys, 1)[0]
    return float(-slope)
