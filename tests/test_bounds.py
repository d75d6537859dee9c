"""Closed-form bounds and the step planner.

Spot values are frozen from a 50-digit mpmath evaluation of the same
formulas; the engine must reproduce them to 1e-12 relative in float64.
"""

import dataclasses
import math

import pytest
from mpmath import mp

from jbtrotter.algebras import AlgebraDescriptor, jb_norm, random_element
from jbtrotter.trotter import (
    MAX_PLAN_N,
    CapacityError,
    SchemeError,
    SweepRecord,
    bound_special,
    bound_thm31,
    bound_thm33i,
    bound_thm33ii,
    _plan,
    bounds_for,
    measured_error,
    plan_min_n,
    sweep,
    tightest_bound,
)
from conftest import pauli_pair

mp.dps = 50


def mp_thm31(norms, n):
    s = mp.fsum(norms)
    return s**3 * mp.e**s / (3 * n * n)


def mp_thm33i(norms, n):
    s = mp.fsum(norms)
    m = len(norms)
    return (mp.mpf(3) ** (m - 1) + 1) * s**3 * mp.e**s / (6 * n * n)


def mp_thm33ii(norms, n):
    s = mp.fsum(norms)
    m = len(norms)
    return (2 * mp.mpf(3) ** m / n) * s * s * mp.e ** ((n + 2) * s / mp.mpf(n))


def mp_special(norms, n):
    s = mp.fsum(norms)
    return (2 * s * s / n) * mp.e ** ((n + 2) * s / mp.mpf(n))


NORM_GRIDS = [
    [1.0],
    [0.5, 0.5],
    [1.0, 1.0],
    [0.3, 0.4, 0.3],
    [0.25, 0.75, 1.0, 0.5],
    [0.2, 0.2, 0.2, 0.2, 0.2],
]


@pytest.mark.parametrize("norms", NORM_GRIDS)
@pytest.mark.parametrize("n", [1, 2, 10, 100, 4096])
def test_bounds_match_high_precision_reference(norms, n):
    checks = [
        (bound_thm31(norms, n), mp_thm31(norms, n)),
        (bound_thm33i(norms, n), mp_thm33i(norms, n)),
        (bound_thm33ii(norms, n), mp_thm33ii(norms, n)),
        (bound_special(norms, n), mp_special(norms, n)),
    ]
    for got, want in checks:
        assert abs(got - float(want)) <= 1e-13 * float(want)


def test_frozen_spot_values():
    # e/300, e/60, 0.18 e^1.02, each checked to 1e-12 relative
    assert bound_thm31([1.0], 10) == pytest.approx(math.e / 300.0, rel=1e-12)
    assert bound_thm31([1.0], 10) == pytest.approx(9.060939428196817e-3, rel=1e-12)
    assert bound_thm33i([0.4, 0.3, 0.3], 10) == pytest.approx(math.e / 60.0, rel=1e-12)
    assert bound_thm33i([0.4, 0.3, 0.3], 10) == pytest.approx(4.530469714098409e-2, rel=1e-12)
    assert bound_thm33ii([0.5, 0.5], 100) == pytest.approx(
        0.18 * math.exp(1.02), rel=1e-12
    )
    assert bound_thm33ii([0.5, 0.5], 100) == pytest.approx(4.9917505751357363e-1, rel=1e-12)


def test_bounds_depend_on_sum_and_count_only():
    assert bound_thm31([0.2, 0.8], 7) == bound_thm31([0.5, 0.5], 7)
    assert bound_thm33i([0.2, 0.8], 7) == bound_thm33i([0.7, 0.3], 7)
    # count enters the f bounds
    assert bound_thm33i([1.0, 1.0], 7) < bound_thm33i([0.5, 0.5, 0.5, 0.5], 7)


def test_bounds_decrease_in_n():
    norms = [0.6, 0.7]
    for fn in (
        bound_thm31,
        bound_thm33i,
        bound_thm33ii,
        bound_special,
    ):
        vals = [fn(norms, n) for n in (1, 2, 4, 8, 64, 1024)]
        assert vals == sorted(vals, reverse=True)


def test_bound_validation():
    with pytest.raises(ValueError):
        bound_thm31([-1.0], 2)
    with pytest.raises(ValueError):
        bound_thm31([1.0], 0)


def test_special_variants_drop_the_count_factor():
    norms = [0.5, 0.5, 0.5]
    assert bound_thm31(norms, 9) < bound_thm33i(norms, 9)
    assert bound_special(norms, 9) == pytest.approx(
        bound_thm33ii(norms, 9) / 3.0**3, rel=1e-14
    )
    # the sharpened pair of a special f record is thm31 and bound_special
    for grid in NORM_GRIDS:
        for n in (1, 9, 4096):
            table = bounds_for("f", grid, n, True)
            assert table["bound_special_i"] == bound_thm31(grid, n)
            assert table["bound_special_ii"] == bound_special(grid, n)


def test_tightest_bound_selection():
    norms = [0.5, 0.5]
    assert tightest_bound("g", norms, 5) == bound_thm31(norms, 5)
    plain = tightest_bound("f", norms, 5)
    assert plain == min(bound_thm33i(norms, 5), bound_thm33ii(norms, 5))
    with_special = tightest_bound("f", norms, 5, special=True)
    assert with_special == min(plain, bound_thm31(norms, 5), bound_special(norms, 5))
    with pytest.raises(SchemeError):
        tightest_bound("h", norms, 5)

    # bounds_for is the table behind both sweep records and tightest_bound
    sx, sz = pauli_pair()
    spin = AlgebraDescriptor("spin", 3)
    bound_fields = [f.name for f in dataclasses.fields(SweepRecord)][3:]
    for special, elems in (
        (True, [sx, sz, sx + sz]),
        (False, [random_element(spin, seed, 0.6) for seed in (1, 2, 3)]),
    ):
        triple_norms = [jb_norm(a) for a in elems]
        for scheme in ("g", "f", "h"):
            table = bounds_for(scheme, triple_norms, 4, special)
            rec = sweep(scheme, elems, [4])[0]
            present = {f: getattr(rec, f) for f in bound_fields if getattr(rec, f) is not None}
            assert table == present, (scheme, special)
            if scheme == "h":
                assert table == {}
                with pytest.raises(SchemeError, match="measured"):
                    tightest_bound(scheme, triple_norms, 4, special)
            else:
                assert tightest_bound(scheme, triple_norms, 4, special) == min(table.values())


def test_bounds_read_a_one_shot_iterable_of_norms_once():
    # Every bound of a scheme sees all the norms, not what an earlier bound
    # left of an iterator.
    norms = [1.0, 2.0]
    for scheme in ("g", "f"):
        for special in (False, True):
            assert bounds_for(scheme, iter(norms), 4, special) == bounds_for(
                scheme, norms, 4, special)
    assert tightest_bound("f", iter(norms), 4) == tightest_bound("f", norms, 4)
    assert tightest_bound("f", (v for v in norms), 4) == pytest.approx(22.596, rel=1e-4)


def test_bounds_saturate_to_inf():
    # e^800, e^900 and (1e103)^3 leave the float range; every bound grows
    # with S, so inf is still a bound.
    assert bound_thm31([800.0], 1) == math.inf
    assert bound_thm31([1e103], 1) == math.inf
    assert bound_thm33ii([300.0], 1) == math.inf
    assert bound_special([300.0], 1) == math.inf
    assert math.isfinite(bound_thm33i([300.0], 1))
    assert tightest_bound("f", [300.0], 1) == bound_thm33i([300.0], 1)
    # 3^699 leaves the float range though S = 0.7 is small; only the
    # bounds with a count factor saturate.
    many = [1e-3] * 700
    assert bound_thm33i(many, 1) == bound_thm33ii(many, 1) == math.inf
    for value in (bound_thm31(many, 1), bound_special(many, 1)):
        assert math.isfinite(value)
    with pytest.raises(CapacityError):
        plan_min_n("g", 1e-3, norms=[800.0])


# ---------------------------------------------------------------------------
# planner


def test_plan_bound_mode_spot_value():
    # closed-form inversion of the g bound at S=1, eps=1e-4 lands on 96
    assert plan_min_n("g", 1e-4, norms=[1.0]) == 96
    assert bound_thm31([1.0], 96) <= 1e-4 < bound_thm31([1.0], 95)


@pytest.mark.parametrize("scheme", ["g", "f"])
@pytest.mark.parametrize("norms", NORM_GRIDS)
@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-7])
def test_plan_bound_mode_minimality(scheme, norms, eps):
    n_min = plan_min_n(scheme, eps, norms=norms)
    assert tightest_bound(scheme, norms, n_min) <= eps
    if n_min > 1:
        assert tightest_bound(scheme, norms, n_min - 1) > eps


def test_plan_bound_mode_special_flag_tightens():
    norms = [0.5, 0.5, 0.5]
    generic = plan_min_n("f", 1e-5, norms=norms)
    special = plan_min_n("f", 1e-5, norms=norms, special=True)
    assert special <= generic
    assert bound_thm31(norms, special) <= 1e-5


def test_plan_trivial_when_bound_already_small():
    assert plan_min_n("g", 10.0, norms=[0.1]) == 1


def test_plan_capacity_error():
    with pytest.raises(CapacityError):
        plan_min_n("g", 1e-30, norms=[2.0, 2.0])
    # sanity: the refused target really is out of range
    assert bound_thm31([2.0, 2.0], MAX_PLAN_N) > 1e-30


def test_plan_rejects_bad_arguments():
    with pytest.raises(SchemeError):
        plan_min_n("h", 1e-3, norms=[1.0])  # no closed-form bound for h
    # One unknown-scheme rule behind the bound table, its minimum and the
    # bound-mode planner (the measured paths: test_trotter).
    for call in (lambda: bounds_for("q", [1.0], 5, False),
                 lambda: tightest_bound("q", [1.0], 5),
                 lambda: plan_min_n("q", 1e-3, norms=[1.0])):
        with pytest.raises(SchemeError, match="unknown scheme 'q'"):
            call()
    with pytest.raises(ValueError):
        plan_min_n("g", 0.0, norms=[1.0])
    with pytest.raises(ValueError):
        plan_min_n("g", 1e-3)  # bound mode without norms
    with pytest.raises(ValueError):
        plan_min_n("g", 1e-3, norms=[1.0], mode="exact")


def test_plan_measured_mode_minimality():
    a, b = pauli_pair()
    eps = 3e-4
    n_min = plan_min_n("g", eps, elements=[a, b], mode="measured")
    from jbtrotter.trotter import measured_error

    assert measured_error("g", [a, b], n_min) <= eps
    assert measured_error("g", [a, b], n_min - 1) > eps


def test_plan_measured_mode_supports_h():
    a, b = pauli_pair()
    n_min = plan_min_n("h", 1e-3, elements=[a, b, a], mode="measured")
    from jbtrotter.trotter import measured_error

    assert measured_error("h", [a, b, a], n_min) <= 1e-3


def _plan_cases():
    """(scheme, norms, elements, mode, special, fresh value at n) for both
    plan modes: bound g and f, with and without the sharpened bounds, and
    measured g, f and h on three families."""
    norms = [0.5, 0.7, 0.4]
    for scheme in ("g", "f"):
        for special in (False, True):
            yield (scheme, norms, None, "bound", special,
                   lambda n, scheme=scheme, special=special:
                   tightest_bound(scheme, norms, n, special))
    for kind, dim in (("sym", 3), ("spin", 4), ("albert", 3)):
        desc = AlgebraDescriptor(kind, dim)
        elems = [random_element(desc, 60 + j, v) for j, v in enumerate(norms)]
        for scheme in ("g", "f", "h"):
            yield (scheme, None, elems, "measured", False,
                   lambda n, scheme=scheme, elems=elems: measured_error(scheme, elems, n))


def test_plan_returns_what_its_search_evaluated():
    # n_min with every value its search evaluated, bit for bit what a fresh
    # bound or measurement at that n gives; n_min - 1 is among them, and
    # plan_min_n is its n_min.
    reached_one = set()
    for scheme, norms, elems, mode, special, fresh in _plan_cases():
        for eps in (10.0 ** k for k in range(1, -7, -1)):
            n_min, values = _plan(scheme, eps, norms, elems, mode, special)
            assert values[n_min] <= eps, (scheme, mode, eps)
            if n_min > 1:
                assert values[n_min - 1] > eps, (scheme, mode, eps)
            else:
                reached_one.add((scheme, mode))
            for n, value in values.items():
                assert repr(value) == repr(fresh(n)), (scheme, mode, eps, n)
            assert plan_min_n(scheme, eps, norms=norms, elements=elems, mode=mode,
                              special=special) == n_min
        with pytest.raises(CapacityError):
            _plan(scheme, 1e-300, norms, elems, mode, special)
    assert len(reached_one) == 5


def test_plan_measured_needs_elements():
    with pytest.raises(ValueError):
        plan_min_n("g", 1e-3, norms=[1.0], mode="measured")
