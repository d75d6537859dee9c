"""Every refusal of the library, one row each: the twin of the CLI's
``FAILURES`` table in ``test_cli.py``.

A row of ``REFUSALS`` is (call, exception type, message).  The call is one
line of Python, evaluated with the names of the four library modules and
of this one, and is the row's test id; it must raise exactly that type,
no subclass of it, with exactly that message.  ``rows`` and ``refused``
write the rows that share a message or a rule.
``test_every_raised_message_has_a_row`` reads the library's source and
keeps both tables complete: each message that ``cli.py`` raises has a
``FAILURES`` row, and each one that ``algebras``, ``trotter``, ``jets`` or
``axioms`` raises a ``REFUSALS`` row.
"""

import ast
import sys
from math import inf, nan
from pathlib import Path

import numpy as np
import pytest

from jbtrotter import algebras, axioms, jets, trotter
from jbtrotter.algebras import CapacityError, DescriptorMismatchError, sym_element, unit
from jbtrotter.trotter import DegenerateDecayError, NonFiniteError, SchemeError
from cli_harness import spectrum_past_the_float_range
from conftest import STANDARD_DESCRIPTORS, pauli_pair
from test_cli import FAILURES

# A call may name what the four library modules define, and this module's
# names: the Pauli pair A, B (sym:2) and C, an element of sym:3; one
# descriptor per family; the helpers below, which build the rest when a
# row runs.
NAMES = {**vars(algebras), **vars(trotter), **vars(jets), **vars(axioms)}
A, B = pauli_pair()
AB = [A, B]
C = sym_element(np.eye(3))
Z8 = np.zeros(8)
MAX = sys.float_info.max
SYM, HERM, SPIN, ALBERT = STANDARD_DESCRIPTORS
FAMILIES = ("SYM", "HERM", "SPIN", "ALBERT")
HOT = [unit(A.descriptor) * 800.0, unit(A.descriptor)]  # exp of the sum overflows
NORMS = [0.5, 0.7, 0.4]


def overflowing(descriptor):
    """Two elements whose sum has every eigenvalue near 800."""
    return [unit(descriptor) * 800.0, algebras.random_element(descriptor, 5, 1.0)]


def past(descriptor):
    """One element whose spectrum is past the float range."""
    return [spectrum_past_the_float_range(descriptor)]


def off_diagonal_twice(kind, dim, entry):
    """An element with entry at (0, 1) and (1, 0), twice: the sum holds an
    inf there, on which zheevd raised LinAlgError for herm at dim >= 3."""
    x = np.zeros((dim, dim))
    x[0, 1] = x[1, 0] = entry
    return [sym_element(x) if kind == "sym" else algebras.herm_element(x)] * 2


def drawn(text):
    """Three seeded elements of the algebra named by text, norms NORMS."""
    desc = algebras.parse_descriptor(text)
    return [algebras.random_element(desc, 60 + j, v) for j, v in enumerate(NORMS)]


def records(ns, scheme="g", c=1.0):
    """Sweep records of the errors c / n^2 at the step counts ns."""
    return [trotter.SweepRecord(scheme, n, c / n**2) for n in ns]


def rows(error, message, *calls):
    """A row per call, each refused with this type and message."""
    return [(call, error, message) for call in calls]


def refused(call, what, rule, bads):
    """A ValueError row per bad value: call.format(repr(bad)), refused as
    "<what> must be <rule>, got <bad!r>"."""
    return [(call.format(repr(bad)), ValueError, f"{what} must be {rule}, got {bad!r}")
            for bad in bads]


def per_family(call, what, rule, bads):
    """``refused`` rows of call.format(family, "{}") on every family."""
    return [row for f in FAMILIES for row in refused(call.format(f, "{}"), what, rule, bads)]


POSITIVE, NONNEGATIVE = "a positive integer", "a nonnegative integer"
REAL, FINITE = "a real number", "finite and positive"
CAP = "{} needs {} payload entries, more than 1048576"
MISMATCH = "cannot combine elements of {} and {}"
ODD_COUNT = "scheme h needs an odd element count >= 3, got {}"
NOT_SYM, NOT_HERM = (f"matrix is not {s} within tolerance" for s in ("symmetric", "Hermitian"))
EPS_CAP = "target eps={} needs more than 1073741824 steps"

REFUSALS = [
    # descriptors
    ("parse_descriptor('sym')", ValueError, "expected kind:dim, got 'sym'"),
    ("parse_descriptor('sym:x')", ValueError, "dim part of 'sym:x' is not an integer"),
    ("parse_descriptor('frob:3')", ValueError, "unknown algebra kind 'frob'"),
    ("parse_descriptor('albert:4')", ValueError, "albert algebra is fixed at dim 3"),
    *rows(ValueError, "dim must be a positive integer, got 0", "parse_descriptor('sym:0')",
          "sym_element(np.zeros((0, 0)))", "herm_element(np.zeros((0, 0)))",
          "spin_element(1.0, [])"),
    ("parse_descriptor('sym:100000')", CapacityError, CAP.format("sym:100000", 10**10)),
    ("AlgebraDescriptor('sym', 1025)", CapacityError, CAP.format("sym:1025", 1025**2)),
    ("AlgebraDescriptor('herm', 100000)", CapacityError, CAP.format("herm:100000", 10**10)),
    ("AlgebraDescriptor('spin', 2**20)", CapacityError, CAP.format("spin:1048576", 2**20 + 1)),
    # constructors; m - m^T of the second leaves the float range, and
    # |1.5e308 + 1.5e308j| is past it: the defect is measured on halves, so
    # the refusal keeps its category and raises no warning
    *rows(ValueError, NOT_SYM, "sym_element([[0.0, 1.0], [0.5, 0.0]])",
          "sym_element([[0.0, 1e308], [-1e308, 0.0]])"),
    *rows(ValueError, NOT_HERM, "herm_element([[0.0, 1j], [1j, 0.0]])",
          "herm_element([[0.0, 1.5e308 + 1.5e308j], [0.0, 0.0]])"),
    ("sym_element(np.zeros((2, 3)))", ValueError, "expected a square matrix, got shape (2, 3)"),
    ("sym_element([[nan, 0.0], [0.0, 0.0]])", ValueError,
     "sym payload contains non-finite entries"),
    ("albert_element([1.0, 2.0], Z8, Z8, Z8)", ValueError,
     "albert element needs 3 diagonal reals and three length-8 entries"),
    # numpy's float conversion would keep the real part with a ComplexWarning.
    *rows(TypeError, "scalars must be real, these are real algebras",
          "sym_element(np.array([[1 + 5j, 0], [0, 1]]))", "sym_element([[1 + 5j, 0], [0, 1]])",
          "spin_element(np.complex128(1 + 2j), np.array([3.0]))",
          "spin_element(1.0, np.array([3j]))",
          "albert_element(np.array([1.0, 2.0, 3j]), Z8, Z8, Z8)",
          "albert_element([1.0, 2.0, 3.0], Z8 + 1j, Z8, Z8)", "A * (1.0 + 2.0j)"),
    # one algebra per operation; the first pair that differs is named
    ("C + sym_element(np.eye(4))", DescriptorMismatchError, MISMATCH.format("sym:3", "sym:4")),
    ("jordan_mul(C, spin_element(1.0, [0.0, 0.0, 1.0]))", DescriptorMismatchError,
     MISMATCH.format("sym:3", "spin:3")),
    ("triple_product(C, A, B)", DescriptorMismatchError, MISMATCH.format("sym:3", "sym:2")),
    *rows(DescriptorMismatchError, MISMATCH.format("sym:2", "sym:3"), "triple_product(A, C, B)",
          "triple_product(A, B, C)", "approx_g([A, C], 2)", "Jet((A, C))",
          "product_step_jet([A, C])"),
    *refused("jordan_power(A, {})", "exponent", NONNEGATIVE, (True, False, -1, 2.0)),
    # sampling
    *per_family("random_element({}, 1, {})", "target_norm", FINITE, (inf, -inf, nan)),
    ("random_element(parse_descriptor('sym:1'), 24, MAX)", ValueError,
     "target_norm 1.7976931348623157e+308 puts the draw past the float range"),
    # step divisors and step counts
    *per_family("exp_spectral(random_element({}, 1), {})", "divisor d", POSITIVE,
                (0, -1, 1.5, True)),
    ("exp_spectral(A, 2**1024)", CapacityError,
     "divisor d is above the supported maximum 1.7976931348623157e+308"),
    ("approx_g(AB, 2**1024)", CapacityError,
     "step count n is above the supported maximum 8.988465674311579e+307"),
    *refused("approx_g(AB, {})", "step count n", POSITIVE, (0, -1, 2.5, True)),
    *refused("bound_thm31([1.0, 2.0], {})", "step count n", POSITIVE, (0, -1, 2.5, True)),
    # Each step count of a sweep is checked as given, as approx_* check it.
    *refused("sweep('g', AB, [{}])", "step count n", POSITIVE, (0, 2.5, True, "3", np.int64(4))),
    *rows(SchemeError, "unknown scheme 'x'", "sweep('x', AB, [1])",
          *(f"step_jet('x', {elems})" for elems in ("[A, B, A]", "[]", "[A, C]"))),
    *[(f"approx_h({elems}, 4)", SchemeError, ODD_COUNT.format(k))
      for elems, k in (("AB", 2), ("[A]", 1), ("[A, B, A, B]", 4))],
    # exp of the sum past the float range leaves nothing to measure
    *rows(NonFiniteError, "exp of the sum of the elements overflows the float range",
          *(call.format(f) for f in FAMILIES for call in (
              "exp_sum(overflowing({}))", "measured_error('g', overflowing({}), 2)",
              "sweep('f', overflowing({}), [1, 2])", "exp_sum(past({}))",
              "measured_error('g', past({}), 1)")),
          *(f"exp_sum(off_diagonal_twice({kind!r}, {dim}, {entry!r}))" for kind in ("sym", "herm")
            for dim in range(2, 7) for entry in (1e308, -1e308)),
          "exp_sum(HOT)"),
    # exp of HOT's sum overflows, yet every measuring call reports a bad
    # scheme or step count first
    *rows(SchemeError, "unknown scheme 'q'", "measured_error('q', AB, 2)",
          "measured_error('q', HOT, 1)", "sweep('q', HOT, [1, 1])",
          "plan_min_n('q', 1e-3, elements=HOT, mode='measured')",
          "bounds_for('q', [1.0], 5, False)", "tightest_bound('q', [1.0], 5)",
          "plan_min_n('q', 1e-3, norms=[1.0])"),
    *refused("measured_error('g', HOT, {})", "step count n", POSITIVE, (0, True)),
    *refused("sweep('g', HOT, [1, {}])", "step count n", POSITIVE, (0, True)),
    *rows(SchemeError, ODD_COUNT.format(2), "measured_error('h', HOT, 1)",
          "sweep('h', HOT, [1, 1])", "plan_min_n('h', 1e-3, elements=HOT, mode='measured')"),
    # bounds and the planner
    ("bound_thm31([-1.0], 2)", ValueError, "norms must be nonnegative"),
    *rows(SchemeError, "no closed-form bound for scheme 'h', use measured mode",
          "tightest_bound('h', [0.5, 0.5], 5)", "tightest_bound('h', [1.0, 1.0, 1.0], 4, True)",
          "plan_min_n('h', 1e-3, norms=[1.0])"),
    *refused("plan_min_n('g', {}, norms=[1.0])", "eps", FINITE, (0.0, inf, nan)),
    ("plan_min_n('g', 1e-3)", ValueError, "bound mode needs norms"),
    ("plan_min_n('g', 1e-3, norms=[1.0], mode='exact')", ValueError,
     "mode must be 'bound' or 'measured', got 'exact'"),
    ("plan_min_n('g', 1e-3, norms=[1.0], mode='measured')", ValueError,
     "measured mode needs elements"),
    # A plan refuses what its mode does not read, rather than drop it.
    *rows(ValueError, "measured mode reads elements, not norms or special",
          "plan_min_n('g', 1e-3, norms=[1.0], elements=AB, mode='measured')",
          "plan_min_n('g', 1e-3, elements=AB, mode='measured', special=True)"),
    ("plan_min_n('g', 1e-3, norms=[1.0], elements=AB)", ValueError,
     "bound mode reads norms, not elements"),
    ("plan_min_n('g', 1e-3, norms=[800.0])", CapacityError, EPS_CAP.format(0.001)),
    ("plan_min_n('g', 1e-30, norms=[2.0, 2.0])", CapacityError, EPS_CAP.format(1e-30)),
    *rows(CapacityError, EPS_CAP.format(1e-300),
          *(f"_plan({s!r}, 1e-300, NORMS, None, 'bound', {special})"
            for s in "gf" for special in (False, True)),
          *(f"_plan({s!r}, 1e-300, None, drawn({text!r}), 'measured', False)"
            for text in ("sym:3", "spin:4", "albert") for s in "gfh")),
    # decay-rate fits; too few finite records is not a commuting instance
    ("empirical_order(records((32, 64)) + records((128, 256), 'f'))", ValueError,
     "records mix schemes ['f', 'g']"),
    ("empirical_order(records((32, 48, 64, 96, 128)))", ValueError,
     "records must cover doubling n values"),
    ("empirical_order(records((32, 64, 128, 256), c=1e-12))", DegenerateDecayError,
     "only 0 records above the error floor, need 4"),
    *rows(ValueError, "need at least 4 records with a finite error, got 3",
          "empirical_order(records((32, 64, 128)))",
          "empirical_order(records((1, 2), c=inf) + records((4, 8, 16)))"),
    # jets: step_jet applies approx_*'s input rule in its order, a known
    # scheme (above) before any element check, one or more elements, h's
    # odd count
    ("Jet(())", ValueError, "a jet needs at least the degree-0 coefficient"),
    ("jet_jordan_mul(jet_exp(A, 2), jet_exp(B, 3))", ValueError, "jet degrees differ: 2 vs 3"),
    *rows(ValueError, "element count must be a positive integer, got 0",
          *(f"step_jet({s!r}, [])" for s in "gfh")),
    *[(f"step_jet('h', {elems})", SchemeError, ODD_COUNT.format(k))
      for elems, k in (("[A]", 1), ("AB", 2), ("[A, B, A, B]", 4))],
    ("residual(jet_exp(A, 2), jet_exp(B, 2), 5)", ValueError, "degree 5 outside jet degree 2"),
    # Every real number the library reads is checked: a str, bytes or bool
    # is not read as one, and a tolerance or target norm is finite and
    # positive (a NaN tol would pass any symmetry defect).
    *refused("sym_element([[1, 5], [0, 1]], tol={})", "tol", FINITE, (nan, 0.0)),
    *refused("herm_element([[1, 5], [0, 1]], tol={})", "tol", FINITE, (nan,)),
    *refused("sym_element(np.eye(2), tol={})", "tol", REAL, (True, "1e-12")),
    *refused("herm_element(np.eye(2), tol={})", "tol", REAL, (True, "1e-12")),
    *rows(ValueError, "norm must be a real number, got '3'", "tightest_bound('g', '35', 1)",
          "bounds_for('f', '35', 1, False)", "bound_thm31('35', 1)", "bound_thm33i('35', 1)",
          "bound_thm33ii('35', 1)", "bound_special('35', 1)"),
    *refused("bound_thm31([{}], 1)", "norm", REAL, (True,)),
    *refused("A * {}", "scalar", REAL, ("2", True)),
    *refused("A / {}", "scalar", REAL, ("2", b"2")),
    *refused("{} * A", "scalar", REAL, ("2",)),
    *refused("spin_element({}, [0.0])", "s", REAL, ("1",)),
    *refused("random_element(SYM, 1, {})", "target_norm", REAL, (True, "1")),
    *refused("run_axiom_suite(A.descriptor, trials=1, tol={})", "tol", REAL, (True, "1e-10")),
    *refused("plan_min_n('g', {}, norms=[1.0])", "eps", REAL, (True, "1e-3", None)),
    # None, a list, a dict or a 1-d array is not a real number either; a
    # numpy scalar or a 0-d array is
    *refused("tightest_bound('g', [{}], 1)", "norm", REAL, (None, [1.0])),
    *refused("A * {}", "scalar", REAL, (None, [2.0], {})),
    ("A * np.array([2.0])", ValueError, "scalar must be a real number, got array([2.])"),
    ("A * np.array(True)", ValueError, "scalar must be a real number, got array(True)"),
    *refused("random_element(SYM, 1, {})", "target_norm", REAL, (None,)),
    *refused("evaluate_jet(jet_exp(A, 2), {})", "t", REAL, ("0.5",)),
    # the axiom suite; as the command line's --tol, a NaN limit would fail
    # every check and an infinite one pass every check
    ("run_axiom_suite(AlgebraDescriptor('sym', 3), trials=0)", ValueError,
     "trials must be a positive integer, got 0"),
    *refused("run_axiom_suite(A.descriptor, trials=1, tol={})", "tol", FINITE,
             (0.0, -1e-10, nan, inf, -inf)),
]


@pytest.mark.parametrize("call, error, message", REFUSALS,
                         ids=[call for call, _, _ in REFUSALS])
def test_refusal(call, error, message):
    with pytest.raises(Exception) as info:
        eval(call, {**NAMES, **globals()})
    assert (type(info.value), str(info.value)) == (error, message)


@pytest.mark.parametrize("number", [np.float64(2.0), np.float32(2.0), np.int64(2), np.uint8(2),
                                    np.array(2.0), np.array(2)],
                         ids=repr)
def test_numpy_real_scalars_and_0d_arrays_are_read_as_numbers(number):
    # The other side of the real-number rows above: what the rule reads.
    assert np.array_equal((A * number).data, (A * 2.0).data)
    assert trotter.tightest_bound("g", [number], 1) == trotter.tightest_bound("g", [2.0], 1)
    assert (trotter.plan_min_n("g", number, norms=[1.0])
            == trotter.plan_min_n("g", 2.0, norms=[1.0]))


# Raised messages that no row pins, each with the reason.
UNPINNED = {
    "degenerate zero draw": "only a patched sampler draws the zero element "
                            "(test_random_element_refuses_a_zero_draw)",
}


def _raised_messages(path: Path):
    """(line, text) for each raise of a call whose first argument is a str
    literal or an f-string: the longest literal part of that message."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
            message = node.exc.args[0]
            parts = message.values if isinstance(message, ast.JoinedStr) else [message]
            texts = [p.value for p in parts
                     if isinstance(p, ast.Constant) and isinstance(p.value, str)]
            if texts:
                yield node.lineno, max(texts, key=len)


def test_every_raised_message_has_a_row():
    # cli.py's messages (argparse.ArgumentTypeError's among them) are pinned
    # by FAILURES, the rest of the library's by REFUSALS.
    src = Path(algebras.__file__).parent
    refusals = [message for _, _, message in REFUSALS]
    missing, exempt = [], set()
    for name in ("cli.py", "algebras.py", "trotter.py", "jets.py", "axioms.py"):
        table = [start for _, _, start in FAILURES] if name == "cli.py" else refusals
        for line, text in _raised_messages(src / name):
            if text in UNPINNED:
                exempt.add(text)
            elif not any(text in row for row in table):
                missing.append(f"{name}:{line} {text!r}")
    assert not missing, "messages no row pins:\n" + "\n".join(missing)
    assert exempt == set(UNPINNED), "exempt messages no longer raised"
