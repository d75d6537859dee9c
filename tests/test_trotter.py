"""Approximant construction against plain-matrix references."""

import dataclasses
import math
import sys
import weakref

import numpy as np
import pytest

from jbtrotter.algebras import (
    AlgebraDescriptor,
    CapacityError,
    exp_spectral,
    herm_element,
    jb_norm,
    random_element,
    spin_element,
    sym_element,
    unit,
)
from jbtrotter import trotter
from jbtrotter.trotter import (
    DegenerateDecayError,
    NonFiniteError,
    SchemeError,
    SweepRecord,
    approx_f,
    approx_g,
    approx_h,
    bound_thm31,
    empirical_order,
    exp_sum,
    measured_error,
    plan_min_n,
    sweep,
)
from assoc_oracle import (
    oracle_exp_sum,
    oracle_f,
    oracle_g,
    oracle_h,
    to_matrix,
)
from conftest import (
    STANDARD_DESCRIPTORS,
    calls,
    pauli_pair,
    rel_gap,
    rel_gap_mat,
    seeded_elements,
)
from cli_harness import spectrum_past_the_float_range


def test_single_element_g_is_exact(descriptor):
    a = random_element(descriptor, 61, 0.8)
    for n in (1, 3, 8):
        assert rel_gap(approx_g([a], n), exp_sum([a])) < 1e-12


def test_commuting_instance_is_exact():
    # diagonal symmetric matrices commute, so every scheme hits the target
    a = sym_element(np.diag([0.3, -0.2, 0.5]))
    b = sym_element(np.diag([-0.1, 0.4, 0.2]))
    c = sym_element(np.diag([0.2, 0.1, -0.3]))
    target = exp_sum([a, b, c])
    assert rel_gap(approx_g([a, b, c], 2), target) < 1e-14
    assert rel_gap(approx_f([a, b, c], 2), target) < 1e-14
    assert rel_gap(approx_h([a, b, c], 2), target) < 1e-14


@pytest.mark.parametrize("m", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 7, 16])
def test_g_matches_matrix_oracle(matrix_descriptor, m, n):
    elems = seeded_elements(matrix_descriptor, m, 100 * m + n)
    mats = [to_matrix(e) for e in elems]
    assert rel_gap_mat(to_matrix(approx_g(elems, n)), oracle_g(mats, n)) < 1e-12


@pytest.mark.parametrize("m", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 7, 16])
def test_f_matches_matrix_oracle(matrix_descriptor, m, n):
    elems = seeded_elements(matrix_descriptor, m, 200 * m + n)
    mats = [to_matrix(e) for e in elems]
    assert rel_gap_mat(to_matrix(approx_f(elems, n)), oracle_f(mats, n)) < 1e-12


@pytest.mark.parametrize("m", [3, 5])
@pytest.mark.parametrize("n", [1, 2, 7, 16])
def test_h_matches_matrix_oracle(matrix_descriptor, m, n):
    elems = seeded_elements(matrix_descriptor, m, 300 * m + n)
    mats = [to_matrix(e) for e in elems]
    assert rel_gap_mat(to_matrix(approx_h(elems, n)), oracle_h(mats, n)) < 1e-12


def test_exp_sum_matches_matrix_oracle(matrix_descriptor):
    elems = seeded_elements(matrix_descriptor, 3, 71)
    mats = [to_matrix(e) for e in elems]
    assert rel_gap_mat(to_matrix(exp_sum(elems)), oracle_exp_sum(mats)) < 1e-12


def test_h_rejects_even_or_short_inputs():
    a, b = pauli_pair()
    with pytest.raises(SchemeError):
        approx_h([a, b], 4)
    with pytest.raises(SchemeError):
        approx_h([a], 4)
    with pytest.raises(SchemeError):
        approx_h([a, b, a, b], 4)


def test_step_count_validation():
    a, b = pauli_pair()
    for bad in (0, -1, 2.5, True):
        with pytest.raises(ValueError, match="step count n"):
            approx_g([a, b], bad)
        with pytest.raises(ValueError, match="step count n"):
            bound_thm31([1.0, 2.0], bad)


def test_mixed_descriptors_rejected():
    a, _ = pauli_pair()
    b = sym_element(np.eye(3))
    with pytest.raises(ValueError):
        approx_g([a, b], 2)


def test_measured_error_definition():
    a, b = pauli_pair()
    direct = jb_norm(exp_sum([a, b]) - approx_g([a, b], 4))
    assert measured_error("g", [a, b], 4) == pytest.approx(direct, rel=1e-15)


def test_measured_error_decreases():
    a, b = pauli_pair()
    errs = [measured_error("g", [a, b], n) for n in (1, 4, 16, 64)]
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < 1e-3


def test_overflowing_exp_sum_raises(descriptor):
    # Every eigenvalue of the sum is near 800, past the float range of exp.
    elems = [unit(descriptor) * 800.0, random_element(descriptor, 5, 1.0)]
    with pytest.raises(NonFiniteError):
        exp_sum(elems)
    with pytest.raises(NonFiniteError):
        measured_error("g", elems, 2)
    with pytest.raises(NonFiniteError):
        sweep("f", elems, [1, 2])
    # The sum is finite, but exp of the single elements overflows at n = 1:
    # the error there reads inf, as a bound past the float range does.
    elems = [unit(descriptor) * 800.0, unit(descriptor) * -800.0 + elems[1]]
    assert np.isfinite(exp_sum(elems).data).all()
    assert measured_error("g", elems, 1) == math.inf
    first, last = sweep("f", elems, [1, 256])
    assert math.isinf(first.error) and math.isfinite(last.error)
    assert_plan_is_minimal("g", elems, 1e-3)
    # Finite entries, but the spectrum itself is past the float range.
    elems = [spectrum_past_the_float_range(descriptor)]
    with pytest.raises(NonFiniteError, match="exp of the sum"):
        exp_sum(elems)
    with pytest.raises(NonFiniteError, match="exp of the sum"):
        measured_error("g", elems, 1)


@pytest.mark.parametrize("kind", ["sym", "herm"])
@pytest.mark.parametrize("dim", range(2, 7))
@pytest.mark.parametrize("entry", [1e308, -1e308])
def test_sum_with_an_off_diagonal_inf_raises(kind, dim, entry):
    # The element taken twice puts an inf at (0, 1) and (1, 0) of the sum,
    # on which zheevd raised LinAlgError for herm at dim >= 3.
    x = np.zeros((dim, dim))
    x[0, 1] = x[1, 0] = entry
    a = sym_element(x) if kind == "sym" else herm_element(x.astype(complex))
    with pytest.raises(NonFiniteError, match="exp of the sum"):
        exp_sum([a, a])


def assert_plan_is_minimal(scheme, elems, eps):
    """The measured planner's rule: error(n_min) <= eps < error(n_min - 1),
    where error(n_min - 1) may be inf but never NaN."""
    n_min = plan_min_n(scheme, eps, elements=elems, mode="measured")
    assert measured_error(scheme, elems, n_min) <= eps
    if n_min > 1:
        prev = measured_error(scheme, elems, n_min - 1)
        assert math.isinf(prev) or eps < prev, prev
    return n_min


@pytest.mark.parametrize("elems, eps, n_min", [
    # spin:1 with s = +-800: only the factors at n = 1 overflow.
    ([spin_element(800.0, [1.0]), spin_element(-800.0, [0.0])], 1e-1, 2),
    # sym:2 whose sum is finite: the products overflow well past n = 1.
    ([sym_element([[800.0, 0.5], [0.5, -800.0]]), sym_element([[-800.0, 0.0], [0.0, 800.0]])],
     1e-3, 18761),
], ids=["spin-pair", "sym-pair"])
def test_measured_plan_steps_past_overflowing_factors(elems, eps, n_min):
    # A step count whose evaluation leaves the float range is one more
    # step count whose error is above eps: the search doubles past it.
    assert math.isinf(measured_error("g", elems, 1))
    assert assert_plan_is_minimal("g", elems, eps) == n_min


def test_exp_sum_of_a_wide_spin_spectrum():
    # Roots -60 and -1460: exp is (e^-60 + e^-1460) / 2 in its first two
    # entries, which a form through e^s = e^-760 underflows to 0.
    got = exp_sum([spin_element(-760.0, [700.0, 0.0])]).data
    np.testing.assert_allclose(got[:2], math.exp(-60.0) / 2, rtol=1e-11, atol=0)
    assert got[2] == 0.0


def test_error_past_the_float_range_reads_inf():
    # exp of the sum and the g product at n = 1 are finite, but the norm
    # s + |v| of the product, about 2.4e308, and so the error, is not.
    elems = [spin_element(0.0, [355.29, 0.0]), spin_element(0.0, [0.0, 355.29])]
    assert np.isfinite(exp_sum(elems).data).all()
    assert np.isfinite(approx_g(elems, 1).data).all()
    [record] = sweep("g", elems, [1])
    assert math.isinf(record.error)


@pytest.mark.parametrize("outer", ["default", "raise"])
def test_numpy_warning_state_is_restored(outer):
    # Each call silences numpy's overflow warnings in one scope of its own
    # and leaves the caller's setting as it found it, on return and on
    # NonFiniteError alike.
    calls = (
        lambda elems: sweep("g", elems, [1, 2]),
        lambda elems: measured_error("f", elems, 1),
        lambda elems: plan_min_n("g", 1e-3, elements=elems, mode="measured"),
    )
    # exp of the sum overflows
    overflowing_sum = [sym_element([[800.0, 0.0], [0.0, 1.0]]),
                       sym_element([[0.0, 1.0], [1.0, 0.0]])]
    # the sums are finite, exp of the single elements overflows
    overflowing_factors = (
        [sym_element([[800.0, 0.0], [0.0, 1.0]]), sym_element([[-800.0, 1.0], [1.0, 0.0]])],
        [spin_element(800.0, [1.0]), spin_element(-800.0, [0.0])],
    )
    state = {"over": "raise", "invalid": "raise"} if outer == "raise" else {}
    with np.errstate(**state):
        before = np.geterr()
        for call in calls:
            for elems in (pauli_pair(),) + overflowing_factors:
                call(elems)
                assert np.geterr() == before
            with pytest.raises(NonFiniteError):
                call(overflowing_sum)
            assert np.geterr() == before


def test_arguments_are_checked_before_exp_of_the_sum():
    # exp of the sum 801 * 1 overflows, yet every measuring call reports a
    # bad scheme or step count first.
    elems = [unit(AlgebraDescriptor("sym", 2)) * 800.0, unit(AlgebraDescriptor("sym", 2))]
    with pytest.raises(NonFiniteError, match="exp of the sum"):
        exp_sum(elems)
    for call in (lambda s, n: measured_error(s, elems, n), lambda s, n: sweep(s, elems, [1, n])):
        with pytest.raises(SchemeError, match="unknown scheme 'q'"):
            call("q", 1)
        for bad in (0, True):
            with pytest.raises(ValueError, match="step count n must be a positive integer"):
                call("g", bad)
        with pytest.raises(SchemeError, match="scheme h needs an odd element count >= 3, got 2"):
            call("h", 1)
    with pytest.raises(SchemeError, match="unknown scheme 'q'"):
        plan_min_n("q", 1e-3, elements=elems, mode="measured")
    with pytest.raises(SchemeError, match="scheme h needs an odd element count >= 3, got 2"):
        plan_min_n("h", 1e-3, elements=elems, mode="measured")


def test_step_counts_past_the_float_range_are_capacity_errors(descriptor):
    # A step count is refused where a float cannot hold its half step 2n,
    # and a divisor where a float cannot hold it: by the check on it, so
    # before any exponential and never as OverflowError.  The largest
    # accepted values run.
    elems = list(seeded_elements(descriptor, 3, 67))
    family_exp = descriptor._family.exp
    top = int(sys.float_info.max / 2)
    cases = [("divisor d", lambda d: exp_spectral(elems[0], d), 2 * top)]
    cases += [("step count n", call, top) for call in (
        lambda n: approx_g(elems, n), lambda n: approx_f(elems, n),
        lambda n: approx_h(elems, n), lambda n: measured_error("f", elems, n),
        lambda n: sweep("g", elems, [1, n]), lambda n: bound_thm31([1.0], n))]
    for what, call, largest in cases:
        for past in (largest + 1, 2 * largest, 2**1024):
            with calls(family_exp) as n, pytest.raises(CapacityError, match=what):
                call(past)
            assert n[family_exp] == 0
        # The power of a factor next to the unit may overflow at this n.
        with np.errstate(over="ignore", invalid="ignore"):
            call(largest)


def test_measured_error_unknown_scheme():
    a, b = pauli_pair()
    with pytest.raises(SchemeError):
        measured_error("q", [a, b], 2)


# ---------------------------------------------------------------------------
# sweep records

RECORD_FIELDS = ("scheme", "n", "error", "bound_thm31", "bound_thm33i", "bound_thm33ii",
                 "bound_special_i", "bound_special_ii")


def test_sweep_g_attaches_only_its_bound():
    a, b = pauli_pair()
    recs = sweep("g", [a, b], [1, 2, 4])
    assert [r.n for r in recs] == [1, 2, 4]
    for r in recs:
        # Slotted: the fields, in the order the sweep columns use, and no
        # room for anything else.
        assert not hasattr(r, "__dict__")
        with pytest.raises(AttributeError):
            object.__setattr__(r, "extra", 1)
        assert tuple(dataclasses.asdict(r)) == RECORD_FIELDS
        assert tuple(f.name for f in dataclasses.fields(r)) == RECORD_FIELDS
        assert dataclasses.astuple(r) == tuple(getattr(r, k) for k in RECORD_FIELDS)
        assert r.scheme == "g"
        assert r.bound_thm31 is not None
        assert r.bound_thm33i is None and r.bound_thm33ii is None
        assert r.bound_special_i is None and r.bound_special_ii is None
        assert r.error == pytest.approx(measured_error("g", [a, b], r.n))
        assert r.error <= r.bound_thm31 + 1e-9


def test_sweep_f_special_family_has_all_bounds():
    a, b = pauli_pair()
    recs = sweep("f", [a, b], [2])
    (r,) = recs
    for value in (r.bound_thm33i, r.bound_thm33ii, r.bound_special_i, r.bound_special_ii):
        assert value is not None
        assert r.error <= value + 1e-9
    assert r.bound_thm31 is None


@pytest.mark.parametrize("descriptor", [d for d in STANDARD_DESCRIPTORS if not d.is_special],
                         ids=str)
def test_sweep_f_nonspecial_family_skips_special_bounds(descriptor):
    elems = seeded_elements(descriptor, 2, 83)
    (r,) = sweep("f", elems, [2])
    assert r.bound_thm33i is not None and r.bound_thm33ii is not None
    assert r.bound_special_i is None and r.bound_special_ii is None


def test_sweep_h_has_no_bounds(descriptor):
    elems = seeded_elements(descriptor, 3, 89)
    (r,) = sweep("h", elems, [2])
    assert r.scheme == "h"
    for value in (r.bound_thm31, r.bound_thm33i, r.bound_thm33ii,
                  r.bound_special_i, r.bound_special_ii):
        assert value is None


def test_measured_error_takes_one_norm_and_no_bounds():
    # The error's norm is the one norm taken; the norms of the elements
    # and the bounds are a sweep's, not a measured error's.
    a, b = pauli_pair()
    want = sweep("f", [a, b], [4])[0].error
    bounds = (trotter.bound_thm31, trotter.bound_thm33i, trotter.bound_thm33ii,
              trotter.bound_special)
    with calls(trotter.jb_norm, *bounds) as n:
        assert measured_error("f", [a, b], 4) == want
    assert n[trotter.jb_norm] == 1
    assert sum(n[bound] for bound in bounds) == 0


def test_sweep_rejects_bad_scheme_and_n():
    a, b = pauli_pair()
    with pytest.raises(SchemeError):
        sweep("x", [a, b], [1])
    # Each step count is checked as given, as approx_* and bound_* check it.
    for bad in (0, 2.5, True, "3", np.int64(4)):
        with pytest.raises(ValueError, match="step count n must be a positive integer"):
            sweep("g", [a, b], [bad])


@pytest.mark.parametrize("scheme, m", [("g", 1), ("g", 3), ("f", 1), ("f", 3), ("h", 3)])
def test_sweep_and_measured_plan_decompose_each_element_once(matrix_descriptor, scheme, m):
    # One eigh per element for every step count, plus one for exp of the
    # sum unless the sum is the single element; the caller's elements keep
    # no decomposition, so a second sweep costs as much as the first.
    elems = seeded_elements(matrix_descriptor, m, 41, 1.5 / m)
    want = m + 1 if m > 1 else 1
    ns = [1, 2, 3, 4, 8, 16, 32, 64, 256]
    # A multi-scheme sweep, which shares factors, is one more input; so are
    # the measured plan and a measured error at two step counts.
    multi = ["g", "f", "h"] if m == 3 else ["g", "f"]
    for run in (lambda: sweep(scheme, elems, ns),
                lambda: sweep(scheme, elems, ns),
                lambda: trotter._sweep_schemes(multi, elems, ns),
                lambda: trotter._sweep_schemes(multi, elems, ns),
                lambda: plan_min_n(scheme, 1e-6, elements=elems, mode="measured"),
                lambda: measured_error(scheme, elems, 1),
                lambda: measured_error(scheme, elems, 16)):
        with calls(np.linalg.eigh) as n:
            run()
        assert n[np.linalg.eigh] == want
        assert not any(hasattr(a, "_eigh") for a in elems)


# ---------------------------------------------------------------------------
# multi-scheme sweeps: step counts outer, schemes inner, factors shared


def test_multi_scheme_sweep_past_the_float_range_is_each_schemes_sweep(monkeypatch):
    # f's product leaves the float range from n = 1 and g's only from n = 4:
    # every (scheme, n) is still measured, the overflowing ones reading
    # inf, in either scheme order.
    def failing_from(approx, first_bad_n):
        def product(elems, n, factor=None):
            value = approx(elems, n, factor)
            return value * math.inf if n >= first_bad_n else value
        return product

    monkeypatch.setitem(trotter._APPROX, "g", failing_from(approx_g, 4))
    monkeypatch.setitem(trotter._APPROX, "f", failing_from(approx_f, 1))
    elems, ns = pauli_pair(), [1, 2, 4, 8]
    alone = {s: sweep(s, elems, ns) for s in "gf"}
    for order in ("gf", "fg"):
        rows = dict(zip(order, trotter._sweep_schemes(list(order), elems, ns)))
        assert [r.n for r in rows["g"]] == [r.n for r in rows["f"]] == ns
        assert [math.isinf(r.error) for r in rows["g"]] == [False, False, True, True]
        assert all(math.isinf(r.error) for r in rows["f"])
        assert rows == alone


@pytest.mark.parametrize("scheme, m", [("g", 1), ("g", 3), ("f", 1), ("f", 3), ("h", 3)])
def test_approximants_ask_their_factor_source_for_each_factor(scheme, m):
    # factor(A_j, d) = exp(A_j / d): g and h ask once per element at d = n,
    # f asks for A_1 at n and for every other element at the half step 2n.
    # A source giving exp_spectral's factors gives the default's product.
    elems = seeded_elements(AlgebraDescriptor("herm", 3), m, 29, 0.6)
    approx = trotter._APPROX[scheme]
    for n in (1, 5):
        asked = []

        def factor(a, d):
            asked.append((a, d))
            return trotter.exp_spectral(a, d)

        got = approx(elems, n, factor)
        want = [n if scheme != "f" or j == 0 else 2 * n for j in range(m)]
        assert [d for _, d in asked] == want
        assert all(a is b for (a, _), b in zip(asked, elems))
        np.testing.assert_array_equal(got.data, approx(elems, n).data)


def test_multi_scheme_sweep_keeps_at_most_2m_factors_alive(monkeypatch):
    # A memo over the whole measurement would keep 2 factors per element
    # and step count alive, 186 here; the tables drop every divisor but n
    # and 2n when n changes.
    alive, peak = [], []
    exp_spectral = trotter.exp_spectral

    def spy(a, d=1):
        value = exp_spectral(a, d)
        alive.append(weakref.ref(value))
        peak.append(sum(ref() is not None for ref in alive[1:]))  # alive[0]: exp of the sum
        return value

    monkeypatch.setattr(trotter, "exp_spectral", spy)
    elems = seeded_elements(AlgebraDescriptor("sym", 3), 3, 17, 0.5)
    trotter._sweep_schemes(["g", "f", "h"], elems, [2**k for k in range(31)])
    assert len(alive) == 1 + 3 * 31 + 2
    assert max(peak) <= 2 * 3


def test_multi_scheme_sweep_over_unsorted_counts_is_each_schemes_sweep(descriptor):
    # No factor of another step count is served: every record is bit for
    # bit the one of the scheme's own sweep.
    elems = seeded_elements(descriptor, 3, 23, 0.7)
    ns = [4, 1, 8, 3, 6]
    got = trotter._sweep_schemes(["g", "f", "h"], elems, ns)
    assert repr(got) == repr([sweep(s, elems, ns) for s in "gfh"])
    assert not any(hasattr(r, "__dict__") for rows in got for r in rows)


# ---------------------------------------------------------------------------
# decay-rate fitting


def _fake_records(expo, ns=(32, 64, 128, 256, 512), c=0.7, scheme="g"):
    return [SweepRecord(scheme=scheme, n=n, error=c * n ** (-expo)) for n in ns]


def test_empirical_order_recovers_synthetic_exponent():
    # Step counts past int64 fit too.
    for ns in ((32, 64, 128, 256, 512), tuple(2**k for k in range(62, 67))):
        for expo in (1.0, 2.0, 2.5):
            recs = _fake_records(expo, ns, c=0.7 * (ns[0] / 32) ** expo)
            assert empirical_order(recs) == pytest.approx(expo, abs=1e-9)


def test_empirical_order_of_a_sweep_moved_past_int64(descriptor):
    # The fit reads n and the error alone, and moving every log n by one
    # constant leaves its slope: a sweep's records with each n times 2^64
    # fit the sweep's own order.
    recs = sweep("g", seeded_elements(descriptor, 2, 29, 0.5), [32, 64, 128, 256])
    moved = [dataclasses.replace(r, n=r.n * 2**64) for r in recs]
    assert empirical_order(moved) == pytest.approx(empirical_order(recs), rel=1e-9)


def test_empirical_order_real_g_sweep_is_second_order():
    a, b = pauli_pair()
    recs = sweep("g", [a, b], [32, 64, 128, 256, 512])
    assert 1.7 <= empirical_order(recs) <= 2.3


def test_empirical_order_rejects_mixed_schemes():
    recs = _fake_records(2.0)[:2] + _fake_records(2.0, scheme="f")[2:]
    with pytest.raises(ValueError):
        empirical_order(recs)


def test_empirical_order_rejects_non_doubling():
    recs = [SweepRecord(scheme="g", n=n, error=1.0 / n**2) for n in (32, 48, 64, 96, 128)]
    with pytest.raises(ValueError):
        empirical_order(recs)


def test_empirical_order_flags_floor_level_errors():
    recs = [SweepRecord(scheme="g", n=n, error=1e-16) for n in (32, 64, 128, 256)]
    with pytest.raises(DegenerateDecayError):
        empirical_order(recs)


def test_empirical_order_leaves_infinite_errors_out():
    # Evaluations past the float range read inf; the fit runs on the rest,
    # since an inf in it makes the order nan.  The fit runs under numpy's
    # raise policy here, so a caller's policy is shown to be honored.
    inf_recs = [SweepRecord(scheme="g", n=n, error=math.inf) for n in (1, 2)]
    with np.errstate(over="raise", invalid="raise"):
        recs = inf_recs + _fake_records(2.0, ns=(4, 8, 16, 32, 64))
        assert empirical_order(recs) == pytest.approx(2.0, abs=1e-9)
        # Too few finite records is not a commuting instance.
        recs = inf_recs + _fake_records(2.0, ns=(4, 8, 16))
        with pytest.raises(ValueError) as info:
            empirical_order(recs)
        assert not isinstance(info.value, DegenerateDecayError)


def test_empirical_order_needs_four_records():
    # errors far above the floor: too few records is not a commuting instance
    recs = _fake_records(2.0, ns=(32, 64, 128))
    with pytest.raises(ValueError) as info:
        empirical_order(recs)
    assert not isinstance(info.value, DegenerateDecayError)
