"""Edge atlas: every subcommand that reads an instance, on payloads at the
edges of the float range, in every family.

Each payload leads an instance whose other two elements are ordinary, and
fills the first two places of another, so that the sum leaves the float
range.  Run by ``cli_harness.run_cli``, with every warning an error, each
command either succeeds with nothing on stderr, stops with one of the two
reasons of ``NonFiniteError`` (exp of the sum, or for ``jets`` its jet or
the tolerance scale, past the float range), or reports a step count past
the planner's limit.  A numpy warning, or an ``OverflowError``,
``ZeroDivisionError`` or ``LinAlgError`` out of the library, fails it.
"""

import numpy as np
import pytest

from jbtrotter.algebras import (
    AlgebraDescriptor,
    albert_element,
    herm_element,
    random_element,
    spin_element,
    sym_element,
    unit,
    zero,
)
from jbtrotter.instances import ProblemInstance, save_instance
from cli_harness import keeps_the_contract, run_cli

FAMILIES = tuple(AlgebraDescriptor(kind, dim)
                 for kind, dim in (("sym", 3), ("herm", 3), ("spin", 4), ("albert", 3)))
COMMANDS = (
    ("bounds",),
    ("sweep", "--scheme", "g,f,h"),
    ("jets",),
    ("jets", "--degree", "5"),
    ("plan", "--eps", "1e-3"),
    ("plan", "--mode", "measured", "--eps", "1e-3"),
)
NON_FINITE = {
    "error[input]: exp of the sum of the elements overflows the float range\n",
    "error[input]: the jet of exp of the sum of the elements or its tolerance scale leaves "
    "the float range\n",
}


def _element(descriptor, diag, off=0.0):
    """The element with diagonal ``diag`` (spin: s = diag[0]) and ``off``
    at its first off-diagonal place: (0, 1) and (1, 0), or spin's v[0]."""
    if descriptor.kind == "spin":
        return spin_element(diag[0], [off] + [0.0] * (descriptor.dim - 1))
    if descriptor.kind == "albert":
        zero8 = [0.0] * 8
        return albert_element(diag, zero8, zero8, [off] + zero8[1:])
    m = np.diag(np.array(diag, dtype=float))
    m[0, 1] = m[1, 0] = off
    return sym_element(m) if descriptor.kind == "sym" else herm_element(m.astype(complex))


def payloads(descriptor):
    """The atlas of one family, by name."""
    x = random_element(descriptor, 7, 1.0)
    atlas = {"zero": zero(descriptor)}
    for c in (1.0, -2.0):
        atlas[f"{c}*1"] = unit(descriptor) * c
        for k in (20, 100, 108, 130, 149, 200, 250, 300, 319):
            atlas[f"{c}*1+1e-{k}*x"] = unit(descriptor) * c + x * 10.0**-k
    # [[1/2, 1/2], [1/2, 1/2]] has the exact roots 0 and 1; spin's double
    # root is its unit multiple.
    if descriptor.kind == "spin":
        atlas["double-root"] = _element(descriptor, [0.5])
        atlas["double-root-gap"] = _element(descriptor, [0.5], 0.5e-12)
        atlas["s=r"] = _element(descriptor, [1.0], 1.0)
        atlas["s=-r"] = _element(descriptor, [-1.0], 1.0)
        atlas["s=r=1e300"] = _element(descriptor, [1e300], 1e300)
    else:
        atlas["double-root"] = _element(descriptor, [0.5, 0.5, 1.0], 0.5)
        atlas["double-root-gap"] = _element(descriptor, [0.5, 0.5, 1.0 + 1e-12], 0.5)
    for big in (1e308, -1e308):
        atlas[f"diagonal-{big}"] = _element(descriptor, [big, 0.0, 0.0])
        atlas[f"off-diagonal-{big}"] = _element(descriptor, [0.0, 0.0, 0.0], big)
    atlas["subnormal"] = x * 1e-310
    for scale in (1e90, 1e103, 1e200):
        atlas[f"entries-{scale}"] = x * scale
    return atlas


@pytest.mark.parametrize("place", ["leads", "fills-two"])
@pytest.mark.parametrize("descriptor", FAMILIES, ids=str)
def test_edge_atlas_keeps_the_error_contract(descriptor, place, tmp_path):
    ordinary = [random_element(descriptor, seed, 0.5) for seed in (11, 12)]
    broken = []
    for name, payload in payloads(descriptor).items():
        elements = ([payload] + ordinary if place == "leads"
                    else [payload, payload, ordinary[0]])
        path = tmp_path / "atlas.json"
        save_instance(ProblemInstance(descriptor, tuple(elements)), path)
        for command in COMMANDS:
            code, _, err = run_cli(*command, "--input", str(path))
            # Of the contract's exits, only 0, 5 and NonFiniteError's 3.
            kept = keeps_the_contract(code, err) and (
                err in NON_FINITE if code == 3 else code in (0, 5))
            if not kept:
                broken.append((name, " ".join(command), code, err))
    assert broken == []
