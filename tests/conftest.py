"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

import jbtrotter
from jbtrotter.algebras import (
    AlgebraDescriptor,
    Element,
    albert_element,
    herm_element,
    jb_norm,
    random_element,
    spin_element,
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


# The directory holding the jbtrotter package the tests import; CLI
# subprocesses get it on PYTHONPATH, so they run the same code without an
# install and without PYTHONPATH set by the caller.
PACKAGE_ROOT = str(Path(jbtrotter.__file__).resolve().parent.parent)


def cli_env() -> dict:
    """Environment for a ``python -m jbtrotter`` subprocess: the tested
    package first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (PACKAGE_ROOT, env.get("PYTHONPATH"))))
    return env


def seeded_elements(descriptor, m, base_seed, target_norm=1.0):
    """Deterministic element tuple; seeds are spread so instances differ."""
    return tuple(
        random_element(descriptor, base_seed * 1009 + 97 * j, target_norm)
        for j in range(m)
    )


def pauli_pair():
    sx = sym_element([[0.0, 1.0], [1.0, 0.0]])
    sz = sym_element([[1.0, 0.0], [0.0, -1.0]])
    return sx, sz


def spectrum_past_the_float_range(descriptor) -> Element:
    """An element of the descriptor with finite entries, all 0 or 1e308,
    whose top eigenvalue (2e308 or more) is past the float range."""
    k = descriptor.dim
    if descriptor.kind == "spin":
        return spin_element(1e308, [1e308] + [0.0] * (k - 1))
    if descriptor.kind == "albert":
        return albert_element([1e308] * 3, [1e308] + [0.0] * 7, [0.0] * 8, [0.0] * 8)
    return (sym_element if descriptor.kind == "sym" else herm_element)(np.full((k, k), 1e308))


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
