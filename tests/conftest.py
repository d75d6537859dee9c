"""Shared fixtures and helpers for the test suite.  What the CLI tests,
criterion 10 and the corpus script share (both CLI runners, the instance
documents, the element past the float range) lives in ``cli_harness``."""

from __future__ import annotations

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
