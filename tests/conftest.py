"""Shared fixtures and helpers for the test suite.  What the CLI tests,
criterion 10 and the corpus script share (both CLI runners, the instance
documents, the element past the float range) lives in ``cli_harness``.

``calls`` is the suite's one call counter: a test that counts what a
computation costs counts with it, never by replacing a function."""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import sys
from collections import Counter

import numpy as np
import pytest

from jbtrotter.algebras import (
    AlgebraDescriptor,
    Element,
    jb_norm,
    random_element,
    sym_element,
)

# One representative descriptor per family, sized to match the axiom and
# bound grids used throughout the suite.
STANDARD_DESCRIPTORS = (
    AlgebraDescriptor("sym", 6),
    AlgebraDescriptor("herm", 4),
    AlgebraDescriptor("spin", 8),
    AlgebraDescriptor("albert", 3),
)

SPECIAL_MATRIX_DESCRIPTORS = tuple(
    d for d in STANDARD_DESCRIPTORS if d.kind in ("sym", "herm")
)


def seeded_elements(descriptor, m, base_seed, target_norm=1.0):
    """Deterministic element tuple; seeds are spread so instances differ."""
    return tuple(
        random_element(descriptor, base_seed * 1009 + 97 * j, target_norm)
        for j in range(m)
    )


def rounded_digest(numbers) -> str:
    """Short sha256 of numbers written out, an int exactly and a float to 12
    significant digits, so a last-bit difference does not move it."""
    text = " ".join(str(x) if isinstance(x, int) else f"{x:.12g}" for x in numbers)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def pauli_pair():
    sx = sym_element([[0.0, 1.0], [1.0, 0.0]])
    sz = sym_element([[1.0, 0.0], [0.0, -1.0]])
    return sx, sz


def rel_gap(a: Element, b: Element) -> float:
    denom = max(jb_norm(a), jb_norm(b), 1e-300)
    return jb_norm(a - b) / denom


def rel_gap_mat(x, y) -> float:
    x = np.asarray(x)
    y = np.asarray(y)
    denom = max(float(np.linalg.norm(x, 2)), float(np.linalg.norm(y, 2)), 1e-300)
    return float(np.linalg.norm(x - y, 2)) / denom


@pytest.fixture(params=STANDARD_DESCRIPTORS, ids=str)
def descriptor(request):
    return request.param


@pytest.fixture(params=SPECIAL_MATRIX_DESCRIPTORS, ids=str)
def matrix_descriptor(request):
    return request.param


@contextlib.contextmanager
def calls(*functions):
    """Count the calls of each function while the block runs.

    Yields a ``Counter`` keyed by the functions as given.  A profile
    function set with ``sys.setprofile`` sees every call of a function's
    code object, whatever name or default argument it was reached
    through; a numpy function is counted by the code of its
    ``_implementation``, which its dispatcher calls.  A generator function
    is refused, since the profiler reports a call on every resume.  The
    previous profile function is put back on exit, errors included.
    """
    codes = {}
    for fn in functions:
        target = getattr(fn, "_implementation", fn)
        if inspect.isgeneratorfunction(target):
            raise TypeError(f"cannot count calls of the generator function {fn.__qualname__}")
        codes[target.__code__] = fn
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield counts
    finally:
        sys.setprofile(previous)


@pytest.fixture(autouse=True)
def _no_profile_function_left():
    # A counter left installed would slow every later test, criteria 01
    # and 02 past their time budgets.
    before = sys.getprofile()
    yield
    after = sys.getprofile()
    if after is not before:
        sys.setprofile(before)
        pytest.fail(f"the test left the profile function {after!r} set")
