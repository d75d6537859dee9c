"""Command-line front end.

Subcommands: verify-axioms, sweep, bounds, plan, jets, demo.  Output is
deterministic byte for byte given the same inputs and seed: floats are
serialized with the shortest round-tripping representation and row order
is fixed by the request.  JSON output is strict: a non-finite value is
written as the string "inf", "-inf" or "nan", and null means a bound does
not apply.

Arguments are checked as they are parsed: --eps and --tol must be finite
and positive, --seed (default 0) an integer >= 0, the step counts in --n
strictly increasing and the schemes in --scheme distinct (plan takes
one); no comma list holds an empty item.  An instance given with --input
fixes the norms and the algebra, so bounds and plan refuse --norms or
--algebra next to it.
--trials above 10^6, --degree above 32, a step count in --n above 2^30 and
an algebra payload above 2^20 entries are capacity errors.  --out
picks csv, json or plotdata (one block per scheme).  Every subcommand
takes --output, one file that receives exactly what stdout would show.

Every failure path prints a single line to stderr of the form
``error[<kind>]: <reason>`` and exits with the code for that kind: 2
usage, 3 input (an unreadable, malformed or rejected instance, an
exponential of the element sum past the float range, or for ``jets`` a
jet of it or a tolerance scale past it; any other arithmetic fault names
its type), 4 verification failure, 5 capacity (a request past one of the
limits above, or a plan that needs more than 2^30 steps).  Only exit 0
and 4 write --output.  A measured error past the float range is not a
failure: it reads inf, as a bound does.

main(argv) may be called many times in one process: it builds its parser
on the first call, reads no environment variable, and returns an exit
code for every argv, --help and --version included.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .algebras import CapacityError, _finite, jb_norm, parse_descriptor, sym_element
from .axioms import DEFAULT_TOL, run_axiom_suite
from .instances import InstanceFormatError, load_instance
from .jets import (
    DEFAULT_DEGREE,
    inverse_sandwich_defect_jet,
    jet_exp,
    jet_zero,
    residual,
    step_jet,
)
from .trotter import (
    MAX_PLAN_N,
    SCHEMES,
    DegenerateDecayError,
    NonFiniteError,
    SweepRecord,
    _plan,
    _quiet,
    _sweep_schemes,
    bounds_for,
    empirical_order,
    measured_error,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_VERIFY = 4
EXIT_CAPACITY = 5

# Largest accepted counts; a larger one is a capacity error.  Step counts
# in --n share the planner's limit, MAX_PLAN_N.
MAX_TRIALS = 10**6
MAX_DEGREE = 32
JETS_TOL = 1e-12

SWEEP_COLUMNS = tuple(f.name for f in dataclasses.fields(SweepRecord))
BOUND_COLUMNS = SWEEP_COLUMNS[:2] + SWEEP_COLUMNS[3:]


class UsageError(Exception):
    """The command line is wrong; exit 2."""


class _Printed(Exception):
    """--help or --version has printed its text; exit 0."""


class _Parser(argparse.ArgumentParser):
    # argparse prints two lines by default; errors here must be one line.
    def error(self, message):
        raise UsageError(message)

    # --help and --version call this after printing; main returns instead
    # of ending the process.
    def exit(self, status=0, message=None):
        raise _Printed


def _fmt(x) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# argument converters (argparse ``type=``)
#
# A malformed value raises ``ArgumentTypeError``, which the parser reports
# as a usage error naming the option; a value past a limit raises
# ``CapacityError``, which passes through the parser.


def _count(what: str, low: int, high: int | None = None):
    """Converter to an integer >= low; above high is a capacity error."""

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{what} {text!r} is not an integer") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{what} must be >= {low}, got {value}")
        if high is not None and value > high:
            raise CapacityError(f"{what} {value} is above the supported maximum {high}")
        return value

    return convert


def _positive(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return value


def _items(text: str, what: str) -> list[str]:
    """The items of a comma-separated list, none of them empty."""
    if "" in (items := text.split(",")):
        raise argparse.ArgumentTypeError(f"empty item in the {what} list {text!r}")
    return items


def _parse_n_range(text: str) -> list[int]:
    """Accept "16", "1,2,4", or geometric "start:stop:xFACTOR"."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3 or not parts[2].startswith("x"):
            raise argparse.ArgumentTypeError(f"range {text!r} must look like start:stop:xFACTOR")
        start = _count("range start", 1)(parts[0])
        stop = _count("range stop", 1)(parts[1])
        factor = _count("range factor", 2)(parts[2][1:])
        if stop < start:
            raise argparse.ArgumentTypeError("range stop must be >= start")
        values = []
        n = start
        while n <= stop:
            values.append(n)
            n *= factor
    else:
        values = [_count("step count", 1)(tok) for tok in _items(text, "step count")]
        if any(b <= a for a, b in zip(values, values[1:])):
            raise argparse.ArgumentTypeError("step counts must be strictly increasing")
    if values[-1] > MAX_PLAN_N:
        raise CapacityError(f"step count {values[-1]} is above the supported maximum {MAX_PLAN_N}")
    return values


def _parse_schemes(text: str) -> list[str]:
    schemes = _items(text, "scheme")
    for s in schemes:
        if s not in SCHEMES:
            expected = f"{', '.join(SCHEMES[:-1])} or {SCHEMES[-1]}"
            raise argparse.ArgumentTypeError(f"unknown scheme {s!r} (expected {expected})")
    if len(set(schemes)) < len(schemes):
        raise argparse.ArgumentTypeError(f"a scheme is repeated in {text!r}")
    return schemes


def _parse_scheme(text: str) -> str:
    _parse_schemes(text)
    if text not in SCHEMES:
        raise argparse.ArgumentTypeError(f"plan takes one scheme, got {text!r}")
    return text


def _parse_norms(text: str) -> list[float]:
    try:
        norms = [float(tok) for tok in _items(text, "norm")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated numbers: {text!r}") from None
    if not all(math.isfinite(v) and v >= 0 for v in norms):
        raise argparse.ArgumentTypeError("needs one or more finite nonnegative numbers")
    return norms


def _descriptor_arg(text: str):
    try:
        return parse_descriptor(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# ---------------------------------------------------------------------------
# serialization of row tables
#
# A row is a dict from column name to value; a bound that does not apply is
# absent or None.  ``orders`` maps each scheme to its empirical order text.


def _cell(value, missing: str) -> str:
    if value is None:
        return missing
    return _fmt(value) if isinstance(value, float) else str(value)


def _json_value(value):
    # Strict JSON has no token for inf or nan, so those become strings.
    if isinstance(value, float) and not math.isfinite(value):
        return _fmt(value)
    return value


def _records_csv(rows, columns, orders) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(_cell(row.get(c), "") for c in columns) for row in rows)
    lines.extend(f"# empirical_order {s} {v}" for s, v in orders.items())
    return "\n".join(lines) + "\n"


def _records_json(rows, columns, orders) -> str:
    doc = {"records": [{c: _json_value(row.get(c)) for c in columns} for row in rows]}
    if orders:
        doc["empirical_order"] = orders
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _plotdata_blocks(rows, columns, orders) -> str:
    # One whitespace table per scheme, in order of first appearance, a blank
    # line between two; absent bounds become nan so the column layout never
    # shifts.
    value_columns = [c for c in columns if c != "scheme"]
    blocks = {}
    for row in rows:
        s = row["scheme"]
        if s not in blocks:
            blocks[s] = [f"# scheme {s}"]
            if s in orders:
                blocks[s].append(f"# empirical_order {orders[s]}")
            blocks[s].append("# " + " ".join(value_columns))
        blocks[s].append(" ".join(_cell(row.get(c), "nan") for c in value_columns))
    return "\n".join("\n".join(lines) + "\n" for lines in blocks.values())


# The --out formats, each the text of a table.
_TABLES = {"csv": _records_csv, "json": _records_json, "plotdata": _plotdata_blocks}


def _sweeps(schemes, elements, ns):
    """Sweep rows of every scheme, in order, and each scheme's empirical
    order, from one measurement of the elements."""
    rows, orders = [], {}
    for scheme, records in zip(schemes, _sweep_schemes(schemes, elements, ns)):
        rows.extend({c: getattr(r, c) for c in SWEEP_COLUMNS} for r in records)
        try:
            orders[scheme] = _fmt(empirical_order(records))
        except DegenerateDecayError:
            orders[scheme] = "commuting-or-floor"
        except ValueError:
            orders[scheme] = "n/a"
    return rows, orders


def _plan_report(n_min: int, label: str, values, out) -> None:
    """n_min and the value at n_min and n_min - 1, read from the values
    ``_plan`` evaluated."""
    out.write(f"n_min {n_min}\n")
    out.write(f"{label}({n_min}) {_fmt(values[n_min])}\n")
    prev = _fmt(values[n_min - 1]) if n_min > 1 else "n/a"
    out.write(f"{label}({n_min - 1}) {prev}\n")


# ---------------------------------------------------------------------------
# subcommands


def _verdict(ok: bool, out) -> int:
    """Write the closing verdict line of a check and return its exit code."""
    out.write("result pass\n" if ok else "result FAIL\n")
    return EXIT_OK if ok else EXIT_VERIFY


def _axiom_report(algebra, trials, seed, tol, out) -> int:
    results = run_axiom_suite(algebra, trials=trials, seed=seed, tol=tol)
    out.write(f"algebra {algebra} trials {trials} seed {seed}\n")
    for res in results:
        status = "pass" if res.passed else "FAIL"
        out.write(
            f"{res.name:<24} {status}  worst {_fmt(res.worst)}  tol {_fmt(res.tolerance)}\n"
        )
    return _verdict(all(r.passed for r in results), out)


def cmd_verify_axioms(args, out) -> int:
    return _axiom_report(args.algebra, args.trials, args.seed, args.tol, out)


def cmd_sweep(args, out) -> int:
    instance = load_instance(args.input)
    rows, orders = _sweeps(args.scheme, instance.elements, args.n)
    out.write(_TABLES[args.out](rows, SWEEP_COLUMNS, orders))
    return EXIT_OK


def _given_instance(args):
    """The --input instance of bounds or plan, or None; an instance fixes
    the norms and the algebra, so --norms and --algebra cannot join it."""
    if args.input is None:
        return None
    for option, value in (("--norms", args.norms), ("--algebra", args.algebra)):
        if value is not None:
            raise UsageError(
                f"{option} cannot be combined with --input: the instance fixes the "
                "norms and the algebra"
            )
    return load_instance(args.input)


def _bound_inputs(args, schemes):
    """The norms and the specialness that the closed-form bounds of
    ``schemes`` read, from --input or from --norms and --algebra."""
    # Asking for the bound of a scheme that has none is a usage error,
    # before any instance is read; any other SchemeError is the input's fault.
    for s in schemes:
        if not bounds_for(s, [], 1, False):
            raise UsageError(
                f"scheme {s!r} has no closed-form bound; use sweep or plan --mode measured"
            )
    instance = _given_instance(args)
    if instance is not None:
        return [jb_norm(e) for e in instance.elements], instance.algebra.is_special
    if args.norms is None:
        raise UsageError("need --norms or --input to fix element norms")
    return args.norms, args.algebra is not None and args.algebra.is_special


def cmd_bounds(args, out) -> int:
    norms, special = _bound_inputs(args, args.scheme)
    rows = [
        {"scheme": scheme, "n": n, **bounds_for(scheme, norms, n, special)}
        for scheme in args.scheme
        for n in args.n
    ]
    out.write(_TABLES[args.out](rows, BOUND_COLUMNS, {}))
    return EXIT_OK


def cmd_plan(args, out) -> int:
    norms, elements, special = None, None, False
    if args.mode == "bound":
        norms, special = _bound_inputs(args, [args.scheme])
    else:
        instance = _given_instance(args)
        if instance is None:
            raise UsageError("measured mode needs --input")
        elements = instance.elements
    n_min, values = _plan(args.scheme, args.eps, norms, elements, args.mode, special)
    out.write(f"scheme {args.scheme} mode {args.mode} eps {_fmt(args.eps)}\n")
    _plan_report(n_min, "bound" if args.mode == "bound" else "error", values, out)
    return EXIT_OK


def _jets_report(elements, label, degree, tol, out) -> int:
    """The jet checks of one instance, inside ``_quiet()`` as a measurement
    is; ``NonFiniteError`` if the tolerance scale or the jet of exp of the
    sum leaves the float range, since then nothing can be checked."""
    with _quiet():
        # np.float64 reads inf past the float range where a Python float
        # raises OverflowError; below it the bits are the same.
        limit = tol * np.float64(1.0 + sum(jb_norm(e) for e in elements)) ** 3
        reference = jet_exp(functools.reduce(lambda a, b: a + b, elements), degree)
        if not (np.isfinite(limit) and all(_finite(c.data) for c in reference.coefficients)):
            raise NonFiniteError("the jet of exp of the sum of the elements or its tolerance "
                                 "scale leaves the float range")
        nil = jet_zero(elements[0].descriptor, degree)
        checks = [(name, step_jet(scheme, elements, degree), reference)
                  for name, scheme in (("product-step", "g"), ("symmetrized-step", "f"))]
        checks.append(("inverse-sandwich-defect", inverse_sandwich_defect_jet(elements, degree),
                       nil))
        out.write(f"instance {label} elements {len(elements)} degree {degree}\n")
        ok = True
        for name, jet, ref in checks:
            r = residual(jet, ref, 2)
            passed = r <= limit
            ok = ok and passed
            status = "pass" if passed else "FAIL"
            out.write(f"{name:<26} deg<=2 residual {_fmt(r)} tol {_fmt(limit)} {status}\n")
        if degree >= 3:
            # Degree 3 is where each check's generic leading term sits: the
            # gap of each step from exp, and the defect's own magnitude.
            for name, jet, ref in checks:
                gap = jb_norm(jet.coefficients[3] - ref.coefficients[3])
                what = "magnitude" if ref is nil else "gap"
                out.write(f"degree-3 {what} {name} {_fmt(gap)}\n")
    return _verdict(ok, out)


def cmd_jets(args, out) -> int:
    instance = load_instance(args.input)
    label = instance.label or args.input
    return _jets_report(list(instance.elements), label, args.degree, args.tol, out)


def cmd_demo(args, out) -> int:
    sx = sym_element([[0.0, 1.0], [1.0, 0.0]])
    sz = sym_element([[1.0, 0.0], [0.0, -1.0]])
    out.write(f"jbtrotter demo (version {__version__})\n")

    out.write("\n[1] axiom suite on sym:2, 200 trials, seed 0\n")
    _axiom_report(sx.descriptor, 200, 0, DEFAULT_TOL, out)

    out.write("\n[2] sweep of the pauli pair, schemes g and f, n = 1..256\n")
    ns = [2**k for k in range(9)]
    rows, orders = _sweeps(("g", "f"), [sx, sz], ns)
    out.write(_records_csv(rows, SWEEP_COLUMNS, orders))

    out.write("\n[3] sweep of the odd triple (sx, sz, sx + sz), scheme h\n")
    rows, orders = _sweeps(("h",), [sx, sz, sx + sz], ns)
    out.write(_records_csv(rows, SWEEP_COLUMNS, orders))

    out.write("\n[4] jet check of the pauli pair through degree 3\n")
    _jets_report([sx, sz], "pauli-pair", 3, JETS_TOL, out)

    out.write("\n[5] step planning for scheme g at eps 1e-4 (norms 1, 1)\n")
    n_min, values = _plan("g", 1e-4, [1.0, 1.0], None, "bound", False)
    _plan_report(n_min, "bound", values, out)
    err = measured_error("g", [sx, sz], n_min)
    out.write(f"measured error at n_min {_fmt(err)}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> _Parser:
    # --help shows the module docstring up to its paragraph on Python use,
    # without the reST literal markup.
    cli_text = (__doc__ or "").partition("\n\nmain(argv)")[0].replace("``", "")
    parser = _Parser(prog="jbtrotter", description=cli_text)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    # Options shared by several subcommands, each declared once as a parent.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", default=None, help="write to this path instead of stdout")
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--scheme", type=_parse_schemes, default="g", help="comma list from g,f,h")
    table.add_argument(
        "--n", type=_parse_n_range, default="1:256:x2", help='"16", "1,2,4" or "start:stop:xF"'
    )
    table.add_argument("--out", choices=_TABLES, default="csv")
    norms = argparse.ArgumentParser(add_help=False)
    norms.add_argument("--norms", type=_parse_norms, help="comma list of element norms")
    norms.add_argument("--input", help="instance JSON path (fixes the norms and the algebra)")
    norms.add_argument("--algebra", type=_descriptor_arg, help="kind:dim, marks special families")

    p = sub.add_parser("verify-axioms", parents=[output], help="check the axioms on random pairs")
    p.add_argument(
        "--algebra", required=True, type=_descriptor_arg, help="kind:dim, e.g. sym:6 or albert:3"
    )
    p.add_argument("--trials", type=_count("trial count", 1, MAX_TRIALS), default=1000)
    p.add_argument("--seed", type=_count("seed", 0), default=0, help="sampler seed (default 0)")
    p.add_argument(
        "--tol", type=_positive, default=DEFAULT_TOL, help="identity tolerance (default 1e-10)"
    )
    p.set_defaults(func=cmd_verify_axioms)

    p = sub.add_parser("sweep", parents=[output, table], help="measured error and bounds over n")
    p.add_argument("--input", required=True, help="instance JSON path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bounds", parents=[output, table, norms], help="closed-form bound table")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("plan", parents=[output, norms], help="smallest n meeting an error target")
    p.add_argument("--scheme", type=_parse_scheme, default="g",
                   metavar="{" + ",".join(SCHEMES) + "}")
    p.add_argument("--eps", type=_positive, required=True)
    p.add_argument("--mode", choices=("bound", "measured"), default="bound")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("jets", parents=[output], help="Taylor-coefficient checks for one instance")
    p.add_argument("--input", required=True, help="instance JSON path")
    p.add_argument("--degree", type=_count("degree", 2, MAX_DEGREE), default=DEFAULT_DEGREE)
    p.add_argument(
        "--tol", type=_positive, default=JETS_TOL, help="scaled tolerance (default 1e-12)"
    )
    p.set_defaults(func=cmd_jets)

    p = sub.add_parser("demo", parents=[output], help="run the built-in walkthrough")
    p.set_defaults(func=cmd_demo)

    return parser


@functools.cache
def _parser() -> _Parser:
    return build_parser()


def main(argv=None) -> int:
    """Run one command and write its text once, to stdout or to the one
    --output file, only if the command returns; the except clauses are the
    one table from failures to error kinds and exit codes."""
    try:
        args = _parser().parse_args(argv)
        out = io.StringIO()
        code = args.func(args, out)
        if args.output is None:
            sys.stdout.write(out.getvalue())
        else:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(out.getvalue())
        return code
    except _Printed:
        return EXIT_OK
    except UsageError as exc:
        kind, reason, code = "usage", str(exc), EXIT_USAGE
    except CapacityError as exc:
        kind, reason, code = "capacity", str(exc), EXIT_CAPACITY
    except InstanceFormatError as exc:
        kind, reason, code = "input", f"{exc.category}: {exc}", EXIT_INPUT
    except ValueError as exc:
        # The parser has checked every argument, so whatever the library
        # rejects is the input's fault.
        kind, reason, code = "input", str(exc), EXIT_INPUT
    except ArithmeticError as exc:
        # Past the float range the library reads inf or raises
        # NonFiniteError, so any other arithmetic fault names its type.
        kind, reason, code = "input", f"{type(exc).__name__}: {exc}", EXIT_INPUT
    except OSError as exc:
        kind, reason, code = "input", f"io: {exc}", EXIT_INPUT
    print(f"error[{kind}]: {reason}", file=sys.stderr)
    return code


def entry() -> None:
    sys.exit(main())
