"""The one home of what the CLI tests, the edge atlas, criterion 10 and the
corpus script share: the one in-process runner ``run_cli``, the one
fresh-process runner ``run_in_fresh_process``, the error contract they
check, the instance documents they share and the one builder of an
element whose spectrum is past the float range.

It imports only the standard library, numpy and ``jbtrotter``, so the
corpus script that imports it can check that no test or oracle module was
loaded.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import numpy as np

from jbtrotter import cli
from jbtrotter.algebras import Element, albert_element, herm_element, spin_element, sym_element

KIND_OF_CODE = {2: "usage", 3: "input", 5: "capacity"}


class Run(NamedTuple):
    """What one command did; the names are ``subprocess.CompletedProcess``'s."""

    returncode: int
    stdout: str
    stderr: str


def run_cli(*argv: str) -> Run:
    """``cli.main(argv)`` with stdout and stderr captured and every warning
    an error, as ``PYTHONWARNINGS=error`` makes it in a fresh process: a
    warning raises out of here instead of reaching stderr beside the
    one-line error report."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    return Run(code, out.getvalue(), err.getvalue())


def run_in_fresh_process(*argv: str) -> subprocess.CompletedProcess:
    """``python -m jbtrotter`` in a new process, with every warning an error
    as in ``run_cli``, and the directory holding the package under test
    first on PYTHONPATH, so it runs the same code without an install."""
    env = dict(os.environ, PYTHONWARNINGS="error")
    package_root = str(Path(cli.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "jbtrotter", *argv], capture_output=True,
                          text=True, env=env, timeout=300)


def keeps_the_contract(code: int, err: str) -> bool:
    """Exit 0 or 4 with nothing on stderr, or exit 2, 3 or 5 with one
    ``error[<kind>]`` line of that code's kind."""
    if code in KIND_OF_CODE:
        return err.startswith(f"error[{KIND_OF_CODE[code]}]: ") and err.count("\n") == 1 \
            and err.endswith("\n")
    return code in (0, 4) and err == ""


ZERO8 = [0.0] * 8
# A spin instance whose spectrum spans [-1400, 600.3]: every exponential
# it needs is finite.
WIDE_SPIN = {"algebra": {"kind": "spin", "dim": 2},
             "elements": [{"s": -400, "v": [1000, 0]}, {"s": 0.1, "v": [0, 0.2]}]}
# A sym:2 pair whose sum is finite but whose scheme g and f evaluations
# leave the float range up to n = 32.
OVERFLOW_SYM = {"algebra": {"kind": "sym", "dim": 2},
                "elements": [[800, 0.5, 0.5, -800], [-800, 0, 0, 800]]}
# A herm:3 pair whose sum holds an inf at (0, 1) and (1, 0), on which
# zheevd raised LinAlgError: exp of the sum is past the float range.
OVERFLOW_SUM_HERM = {"algebra": {"kind": "herm", "dim": 3}, "elements": [
    [[0, 0], [1e308, 0], [0, 0], [1e308, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0]]] * 2}
# An albert pair whose first element is 1 plus an off-diagonal part of
# 1e-120: its characteristic cubic once divided by zero, and every command
# exited 3.  It commutes with the second up to about 1e-120, so sweep errors
# sit at the roundoff floor.
NEAR_UNIT_ALBERT = {"algebra": {"kind": "albert", "dim": 3}, "elements": [
    {"diag": [1.0, 1.0, 1.0], "x": [1e-120] + ZERO8[1:], "y": ZERO8, "z": ZERO8},
    {"diag": [0.3, -0.2, 0.1], "x": [0.1, 0.2, 0.0, -0.1, 0.0, 0.05, 0.0, 0.0],
     "y": [0.0, -0.15, 0.1, 0.0, 0.2, 0.0, 0.0, 0.1],
     "z": [0.25, 0.0, 0.0, 0.1, 0.0, 0.0, -0.05, 0.0]},
]}
# The instance files of the CLI error-contract test, by file name.
CONTRACT_FILES = {
    "pair.json": {"algebra": {"kind": "sym", "dim": 2},
                  "elements": [[0.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, -1.0]]},
    "triple.json": {"algebra": {"kind": "spin", "dim": 2}, "elements": [
        {"s": 0.3, "v": [0.5, 0.0]}, {"s": -0.2, "v": [0.0, 0.4]}, {"s": 0.1, "v": [0.3, 0.3]}]},
    "albert.json": {"algebra": {"kind": "albert", "dim": 3}, "elements": [
        {"diag": [0.5, 0.0, -0.5], "x": [0.2] + ZERO8[1:], "y": ZERO8, "z": ZERO8},
        {"diag": [0.0, 0.3, 0.0], "x": ZERO8, "y": ZERO8[1:] + [0.4], "z": ZERO8}]},
    "single.json": {"algebra": {"kind": "sym", "dim": 2}, "elements": [[0.0, 1.0, 1.0, 0.0]]},
    "overflow-sum.json": {"algebra": {"kind": "sym", "dim": 2},
                          "elements": [[800, 0, 0, 1], [0, 1, 1, 0]]},
    "overflow-single.json": {"algebra": {"kind": "spin", "dim": 1},
                             "elements": [{"s": 800, "v": [1]}, {"s": -800, "v": [0]}]},
    "huge-sym.json": {"algebra": {"kind": "sym", "dim": 2},
                      "elements": [[1e200, 0, 0, 1], [0, 1, 1, 0]]},
    "huge-albert.json": {"algebra": {"kind": "albert", "dim": 3}, "elements": [
        {"diag": [1e200, 0, 0], "x": ZERO8, "y": ZERO8, "z": ZERO8},
        {"diag": [0, 1, 0], "x": [1.0] + ZERO8[1:], "y": ZERO8, "z": ZERO8}]},
    "asymmetric.json": {"algebra": {"kind": "sym", "dim": 2}, "elements": [[0, 1, 2, 0]]},
    "malformed.json": "{oops",
    # Deeper than the JSON reader can recurse, and a sym:2 instance in UTF-16.
    "deep.json": b"[" * 100_000,
    "utf16.json": json.dumps({"algebra": {"kind": "sym", "dim": 2},
                              "elements": [[0.0, 1.0, 1.0, 0.0]]}).encode("utf-16"),
}


def spectrum_past_the_float_range(descriptor) -> Element:
    """An element of the descriptor with finite entries, all 0 or 1e308,
    whose top eigenvalue (2e308 or more) is past the float range."""
    k = descriptor.dim
    if descriptor.kind == "spin":
        return spin_element(1e308, [1e308] + [0.0] * (k - 1))
    if descriptor.kind == "albert":
        return albert_element([1e308] * 3, [1e308] + [0.0] * 7, [0.0] * 8, [0.0] * 8)
    return (sym_element if descriptor.kind == "sym" else herm_element)(np.full((k, k), 1e308))


def contract_bytes(doc) -> bytes:
    """A CONTRACT_FILES value as file contents: bytes as they are, a str as
    UTF-8 text, anything else as JSON."""
    if isinstance(doc, bytes):
        return doc
    return (doc if isinstance(doc, str) else json.dumps(doc)).encode("utf-8")
