"""Command-line front end.

Subcommands: verify-axioms, sweep, bounds, plan, jets, demo.  Output is
deterministic byte for byte given the same inputs and seed: floats are
serialized with the shortest round-tripping representation and row order
is fixed by the request.  JSON output is strict: a non-finite value is
written as the string "inf", "-inf" or "nan", and null means a bound does
not apply.  Every failure path prints a single line to stderr of the form
``error[<kind>]: <reason>`` and exits with the code for that kind: 2
usage, 3 input (including an instance whose exponential of the sum
overflows), 4 verification failure, 5 capacity.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import math
import os
import sys

from . import __version__
from .algebras import jb_norm, parse_descriptor, sym_element
from .axioms import DEFAULT_TOL, run_axiom_suite
from .instances import InstanceFormatError, ProblemInstance, load_instance
from .jets import (
    DEFAULT_DEGREE,
    inverse_sandwich_defect_jet,
    jet_exp,
    jet_zero,
    product_step_jet,
    residual,
    symmetrized_step_jet,
)
from .trotter import (
    SCHEMES,
    CapacityError,
    DegenerateDecayError,
    NonFiniteError,
    SchemeError,
    SweepRecord,
    bounds_for,
    empirical_order,
    measured_error,
    plan_min_n,
    sweep,
    tightest_bound,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_VERIFY = 4
EXIT_CAPACITY = 5

SWEEP_COLUMNS = tuple(f.name for f in dataclasses.fields(SweepRecord))
BOUND_COLUMNS = SWEEP_COLUMNS[:2] + SWEEP_COLUMNS[3:]


class CliError(Exception):
    def __init__(self, kind: str, message: str, code: int):
        super().__init__(message)
        self.kind = kind
        self.code = code


def _usage_error(message: str) -> CliError:
    return CliError("usage", message, EXIT_USAGE)


def _input_error(message: str) -> CliError:
    return CliError("input", message, EXIT_INPUT)


class _Parser(argparse.ArgumentParser):
    # argparse prints two lines by default; errors here must be one line.
    def error(self, message):
        raise _usage_error(message)


def _fmt(x) -> str:
    return repr(float(x))


def _parse_n_range(text: str) -> list[int]:
    """Accept "16", "1,2,4", or geometric "start:stop:xFACTOR"."""
    def to_int(tok, what):
        try:
            value = int(tok)
        except ValueError:
            raise _usage_error(f"{what} {tok!r} is not an integer") from None
        if value < 1:
            raise _usage_error(f"{what} must be >= 1, got {value}")
        return value

    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3 or not parts[2].startswith("x"):
            raise _usage_error(f"range {text!r} must look like start:stop:xFACTOR")
        start = to_int(parts[0], "range start")
        stop = to_int(parts[1], "range stop")
        factor = to_int(parts[2][1:], "range factor")
        if factor < 2:
            raise _usage_error("range factor must be >= 2")
        if stop < start:
            raise _usage_error("range stop must be >= start")
        out = []
        n = start
        while n <= stop:
            out.append(n)
            n *= factor
        return out
    values = [to_int(tok, "step count") for tok in text.split(",") if tok]
    if not values:
        raise _usage_error(f"no step counts in {text!r}")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise _usage_error("step counts must be strictly increasing")
    return values


def _parse_schemes(text: str) -> list[str]:
    schemes = [tok for tok in text.split(",") if tok]
    for s in schemes:
        if s not in SCHEMES:
            raise _usage_error(f"unknown scheme {s!r} (expected g, f or h)")
    if not schemes:
        raise _usage_error("no schemes given")
    return schemes


def _parse_norms(text: str) -> list[float]:
    try:
        norms = [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise _usage_error(f"--norms must be comma-separated numbers, got {text!r}") from None
    if not norms or not all(math.isfinite(v) and v >= 0 for v in norms):
        raise _usage_error("--norms needs one or more finite nonnegative numbers")
    return norms


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("JBTROTTER_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise _usage_error(f"JBTROTTER_SEED={env!r} is not an integer") from None


def _descriptor_arg(text: str):
    try:
        return parse_descriptor(text)
    except ValueError as exc:
        raise _usage_error(str(exc)) from None


def _emit(text: str, output) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# serialization of row tables
#
# A row is a dict from column name to value; a bound that does not apply is
# absent or None.  ``orders`` maps each scheme to its empirical order text.


def _cell(column, value, missing: str) -> str:
    if value is None:
        return missing
    if column in ("scheme", "n"):
        return str(value)
    return _fmt(value)


def _json_value(column, value):
    # Strict JSON has no token for inf or nan, so those become strings.
    if value is None or column in ("scheme", "n") or math.isfinite(value):
        return value
    return _fmt(value)


def _records_csv(rows, columns, orders) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(_cell(c, row.get(c), "") for c in columns) for row in rows)
    lines.extend(f"# empirical_order {s} {v}" for s, v in orders.items())
    return "\n".join(lines) + "\n"


def _records_json(rows, columns, orders) -> str:
    doc = {"records": [{c: _json_value(c, row.get(c)) for c in columns} for row in rows]}
    if orders:
        doc["empirical_order"] = orders
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _plotdata_blocks(rows, columns, orders) -> dict:
    # One whitespace table per scheme, in order of first appearance; absent
    # bounds become nan so the column layout never shifts.
    value_columns = [c for c in columns if c != "scheme"]
    blocks = {}
    for row in rows:
        s = row["scheme"]
        if s not in blocks:
            blocks[s] = [f"# scheme {s}"]
            if s in orders:
                blocks[s].append(f"# empirical_order {orders[s]}")
            blocks[s].append("# " + " ".join(value_columns))
        blocks[s].append(" ".join(_cell(c, row.get(c), "nan") for c in value_columns))
    return {s: "\n".join(lines) + "\n" for s, lines in blocks.items()}


def _emit_table(rows, columns, args, orders) -> None:
    if args.out == "csv":
        _emit(_records_csv(rows, columns, orders), args.output)
    elif args.out == "json":
        _emit(_records_json(rows, columns, orders), args.output)
    else:
        blocks = _plotdata_blocks(rows, columns, orders)
        if args.output is None or len(blocks) == 1:
            _emit("\n".join(blocks.values()), args.output)
        else:
            root, ext = os.path.splitext(args.output)
            for s, text in blocks.items():
                _emit(text, f"{root}.{s}{ext}")


def _sweeps(schemes, elements, ns):
    """Sweep rows of every scheme, in order, and each scheme's empirical order."""
    rows, orders = [], {}
    for scheme in schemes:
        records = sweep(scheme, elements, ns)
        rows.extend(dataclasses.asdict(r) for r in records)
        try:
            orders[scheme] = _fmt(empirical_order(records))
        except DegenerateDecayError:
            orders[scheme] = "commuting-or-floor"
        except ValueError:
            orders[scheme] = "n/a"
    return rows, orders


def _plan_report(n_min: int, label: str, value_at, out) -> None:
    out.write(f"n_min {n_min}\n")
    out.write(f"{label}({n_min}) {_fmt(value_at(n_min))}\n")
    prev = _fmt(value_at(n_min - 1)) if n_min > 1 else "n/a"
    out.write(f"{label}({n_min - 1}) {prev}\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify_axioms(args) -> int:
    if args.algebra is None:
        raise _usage_error("verify-axioms needs --algebra kind:dim")
    desc = _descriptor_arg(args.algebra)
    seed = _resolve_seed(args)
    if args.trials < 1:
        raise _usage_error("--trials must be at least 1")
    tol_scale = (args.tol / DEFAULT_TOL) if args.tol is not None else 1.0
    if not tol_scale > 0:
        raise _usage_error("--tol must be positive")
    results = run_axiom_suite(desc, trials=args.trials, seed=seed, tol_scale=tol_scale)
    out = io.StringIO()
    out.write(f"algebra {desc} trials {args.trials} seed {seed}\n")
    for res in results:
        status = "pass" if res.passed else "FAIL"
        out.write(
            f"{res.name:<24} {status}  worst {_fmt(res.worst)}  tol {_fmt(res.tolerance)}\n"
        )
    ok = all(r.passed for r in results)
    out.write("result pass\n" if ok else "result FAIL\n")
    _emit(out.getvalue(), args.output)
    return EXIT_OK if ok else EXIT_VERIFY


def _sweep_instance(args) -> ProblemInstance:
    if args.input is None:
        raise _usage_error("this command needs --input PATH")
    return load_instance(args.input)


def cmd_sweep(args) -> int:
    instance = _sweep_instance(args)
    schemes = _parse_schemes(args.scheme)
    ns = _parse_n_range(args.n)
    try:
        rows, orders = _sweeps(schemes, instance.elements, ns)
    except SchemeError as exc:
        raise _input_error(str(exc)) from None
    _emit_table(rows, SWEEP_COLUMNS, args, orders)
    return EXIT_OK


def _norms_and_specialness(args):
    if args.input is not None:
        instance = load_instance(args.input)
        norms = [jb_norm(e) for e in instance.elements]
        return norms, instance.algebra.is_special, instance
    if args.norms is None:
        raise _usage_error("need --norms or --input to fix element norms")
    norms = _parse_norms(args.norms)
    special = False
    if args.algebra is not None:
        special = _descriptor_arg(args.algebra).is_special
    return norms, special, None


def cmd_bounds(args) -> int:
    schemes = _parse_schemes(args.scheme)
    for s in schemes:
        if s == "h":
            raise _usage_error("scheme h has no closed-form bound")
    norms, special, _ = _norms_and_specialness(args)
    ns = _parse_n_range(args.n)
    rows = [
        {"scheme": scheme, "n": n, **bounds_for(scheme, norms, n, special)}
        for scheme in schemes
        for n in ns
    ]
    _emit_table(rows, BOUND_COLUMNS, args, {})
    return EXIT_OK


def cmd_plan(args) -> int:
    schemes = _parse_schemes(args.scheme)
    if len(schemes) != 1:
        raise _usage_error("plan takes exactly one scheme")
    scheme = schemes[0]
    if args.eps is None:
        raise _usage_error("plan needs --eps")
    if not args.eps > 0:
        raise _usage_error("--eps must be positive")
    mode = args.mode
    norms, special, instance = _norms_and_specialness(args)
    if mode == "bound":
        n_min = plan_min_n(scheme, args.eps, norms=norms, special=special)
        label, value_at = "bound", lambda n: tightest_bound(scheme, norms, n, special)
    else:
        if instance is None:
            raise _usage_error("measured mode needs --input")
        try:
            n_min = plan_min_n(
                scheme, args.eps, elements=instance.elements, mode="measured"
            )
        except SchemeError as exc:
            raise _input_error(str(exc)) from None
        label, value_at = "error", lambda n: measured_error(scheme, instance.elements, n)
    out = io.StringIO()
    out.write(f"scheme {scheme} mode {mode} eps {_fmt(args.eps)}\n")
    _plan_report(n_min, label, value_at, out)
    _emit(out.getvalue(), args.output)
    return EXIT_OK


def _jets_report(elements, label, degree, tol, out) -> bool:
    total = elements[0]
    for e in elements[1:]:
        total = total + e
    s = sum(jb_norm(e) for e in elements)
    scale = (1.0 + s) ** 3
    limit = tol * scale
    reference = jet_exp(total, degree)
    nil = jet_zero(elements[0].descriptor, degree)
    d_jet = product_step_jet(elements, degree)
    h_jet = symmetrized_step_jet(elements, degree)
    u_jet = inverse_sandwich_defect_jet(elements, degree)
    checks = [
        ("product-step", d_jet, reference, min(2, degree)),
        ("symmetrized-step", h_jet, reference, min(2, degree)),
        ("inverse-sandwich-defect", u_jet, nil, min(1, degree)),
    ]
    out.write(f"instance {label} elements {len(elements)} degree {degree}\n")
    ok = True
    for name, jet, ref, through in checks:
        r = residual(jet, ref, through)
        passed = r <= limit
        ok = ok and passed
        status = "pass" if passed else "FAIL"
        out.write(
            f"{name:<26} deg<={through} residual {_fmt(r)} tol {_fmt(limit)} {status}\n"
        )
    if degree >= 3:
        for name, jet in (("product-step", d_jet), ("symmetrized-step", h_jet)):
            gap = jb_norm(jet.coefficients[3] - reference.coefficients[3])
            out.write(f"degree-3 gap {name} {_fmt(gap)}\n")
    # The defect jet also vanishes at degree 2 (the half-step wrappers cancel
    # the sum through second order); degree 3 is its leading term.
    if degree >= 2:
        mag = jb_norm(u_jet.coefficients[2])
        out.write(f"degree-2 magnitude inverse-sandwich-defect {_fmt(mag)}\n")
    if degree >= 3:
        mag = jb_norm(u_jet.coefficients[3])
        out.write(f"degree-3 magnitude inverse-sandwich-defect {_fmt(mag)}\n")
    out.write("result pass\n" if ok else "result FAIL\n")
    return ok


def cmd_jets(args) -> int:
    instance = _sweep_instance(args)
    if len(instance.elements) < 2:
        raise _input_error("jet checks need an instance with at least 2 elements")
    degree = args.degree
    if degree < 2:
        raise _usage_error("--degree must be at least 2")
    tol = args.tol if args.tol is not None else 1e-12
    if not tol > 0:
        raise _usage_error("--tol must be positive")
    out = io.StringIO()
    label = instance.label or str(args.input)
    ok = _jets_report(list(instance.elements), label, degree, tol, out)
    _emit(out.getvalue(), args.output)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_demo(args) -> int:
    out = io.StringIO()
    sx = sym_element([[0.0, 1.0], [1.0, 0.0]])
    sz = sym_element([[1.0, 0.0], [0.0, -1.0]])
    out.write(f"jbtrotter demo (version {__version__})\n")

    out.write("\n[1] axiom suite on sym:2, 200 trials, seed 0\n")
    for res in run_axiom_suite(sx.descriptor, trials=200, seed=0):
        status = "pass" if res.passed else "FAIL"
        out.write(f"{res.name:<24} {status}  worst {_fmt(res.worst)}\n")

    out.write("\n[2] sweep of the pauli pair, schemes g and f, n = 1..256\n")
    ns = [2**k for k in range(9)]
    rows, orders = _sweeps(("g", "f"), [sx, sz], ns)
    out.write(_records_csv(rows, SWEEP_COLUMNS, orders))

    out.write("\n[3] sweep of the odd triple (sx, sz, sx + sz), scheme h\n")
    rows, orders = _sweeps(("h",), [sx, sz, sx + sz], ns)
    out.write(_records_csv(rows, SWEEP_COLUMNS, orders))

    out.write("\n[4] jet check of the pauli pair through degree 3\n")
    _jets_report([sx, sz], "pauli-pair", 3, 1e-12, out)

    out.write("\n[5] step planning for scheme g at eps 1e-4 (norms 1, 1)\n")
    norms = [1.0, 1.0]
    n_min = plan_min_n("g", 1e-4, norms=norms)
    _plan_report(n_min, "bound", lambda n: tightest_bound("g", norms, n), out)
    err = measured_error("g", [sx, sz], n_min)
    out.write(f"measured error at n_min {_fmt(err)}\n")
    _emit(out.getvalue(), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> _Parser:
    parser = _Parser(prog="jbtrotter", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    def common(p):
        p.add_argument("--output", default=None, help="write to this path instead of stdout")

    p = sub.add_parser("verify-axioms", help="check the algebra axioms on random pairs")
    p.add_argument("--algebra", help="kind:dim, e.g. sym:6 or albert:3")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=None, help="identity tolerance (default 1e-10)")
    common(p)
    p.set_defaults(func=cmd_verify_axioms)

    p = sub.add_parser("sweep", help="measured error and bounds over a range of n")
    p.add_argument("--input", help="instance JSON path")
    p.add_argument("--scheme", default="g", help="comma list from g,f,h")
    p.add_argument("--n", default="1:256:x2", help='"16", "1,2,4" or "start:stop:xF"')
    p.add_argument("--out", choices=("csv", "json", "plotdata"), default="csv")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bounds", help="closed-form bound table, no measurement")
    p.add_argument("--norms", help="comma list of element norms")
    p.add_argument("--input", help="instance JSON path (norms taken from it)")
    p.add_argument("--algebra", help="kind:dim, marks special families for sharpened bounds")
    p.add_argument("--scheme", default="g", help="comma list from g,f")
    p.add_argument("--n", default="1:256:x2")
    p.add_argument("--out", choices=("csv", "json", "plotdata"), default="csv")
    common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("plan", help="smallest n meeting an error target")
    p.add_argument("--scheme", default="g")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--mode", choices=("bound", "measured"), default="bound")
    p.add_argument("--norms", help="comma list of element norms (bound mode)")
    p.add_argument("--input", help="instance JSON path")
    p.add_argument("--algebra", help="kind:dim, marks special families")
    common(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("jets", help="Taylor-coefficient checks for one instance")
    p.add_argument("--input", help="instance JSON path")
    p.add_argument("--degree", type=int, default=DEFAULT_DEGREE)
    p.add_argument("--tol", type=float, default=None, help="scaled tolerance (default 1e-12)")
    common(p)
    p.set_defaults(func=cmd_jets)

    p = sub.add_parser("demo", help="run the built-in walkthrough")
    common(p)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            raise _usage_error("a subcommand is required (try --help)")
        return args.func(args)
    except CliError as exc:
        print(f"error[{exc.kind}]: {exc}", file=sys.stderr)
        return exc.code
    except InstanceFormatError as exc:
        print(f"error[input]: {exc.category}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapacityError as exc:
        print(f"error[capacity]: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except SchemeError as exc:
        print(f"error[usage]: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonFiniteError as exc:
        print(f"error[input]: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error[input]: io: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())
