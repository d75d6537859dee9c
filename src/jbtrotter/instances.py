"""Problem-instance files: a labeled element list over one algebra.

JSON schema::

    {
      "algebra": {"kind": "sym" | "herm" | "spin" | "albert", "dim": int},
      "label": "free text",
      "elements": [ ... ]
    }

Element payloads by kind:

* sym: flat row-major list of dim*dim reals
* herm: flat row-major list of dim*dim [re, im] pairs
* spin: {"s": real, "v": [dim reals]}
* albert: {"diag": [3 reals], "x": [8 reals], "y": [8 reals], "z": [8 reals]}

Every numeric field must read as finite floats of its shape, and a single
number must be a JSON number.  Matrix payloads may carry up to 1e-9 of
symmetry defect (they are exactly symmetrized on load); anything worse is
rejected.  Save refuses what load refuses: ``save_instance`` checks the
document it built by the same rules and writes no file that
``load_instance`` would reject.  Serialization writes the shortest
round-tripping float form, so save -> load -> save is byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .algebras import (
    AlgebraDescriptor,
    Element,
    _finite,
    albert_element,
    albert_parts,
    herm_element,
    spin_element,
    sym_element,
)

LOAD_SYMMETRY_TOL = 1e-9


class InstanceFormatError(ValueError):
    """Input file rejected; ``category`` states which contract failed."""

    def __init__(self, category: str, message: str):
        # categories: parse, schema, symmetry, mismatch
        super().__init__(message)
        self.category = category


@dataclass(frozen=True)
class ProblemInstance:
    algebra: AlgebraDescriptor
    elements: tuple[Element, ...]
    label: str = ""


def _fail(category: str, message: str):
    raise InstanceFormatError(category, message)


def _reals(obj, shape: tuple, what: str, count_category: str = "schema") -> np.ndarray:
    """``obj`` as finite floats of ``shape``; a wrong list length is ``count_category``."""
    if shape and (not isinstance(obj, list) or len(obj) != shape[0]):
        _fail(count_category, f"{what} must be a list of {shape[0]} entries")
    try:
        arr = np.array(obj, dtype=float)
    except (TypeError, ValueError, OverflowError):
        _fail("schema", f"{what} must hold numbers in the float range")
    if arr.shape != shape:
        _fail("schema", f"{what} must have shape {shape}")
    # numpy reads the string "1" and JSON true as numbers; with the shape
    # known, every leaf is one cell of an object array.
    if any(isinstance(x, (bool, str)) for x in np.array(obj, dtype=object).flat):
        _fail("schema", f"{what} must hold numbers, not strings or booleans")
    if not _finite(arr):
        _fail("schema", f"{what} contains non-finite values")
    return arr


def _matrix_element(constructor, m: np.ndarray, failure: str) -> Element:
    # The payload is square and finite here, so the constructor can only
    # object to its symmetry.
    try:
        return constructor(m, tol=LOAD_SYMMETRY_TOL)
    except ValueError:
        _fail("symmetry", f"{failure} within {LOAD_SYMMETRY_TOL}")


# Object payloads: each key with its shape, where None stands for (dim,),
# in the order the constructor takes them and the writer writes them.
_OBJECT_FIELDS = {
    "spin": (spin_element, {"s": (), "v": None}),
    "albert": (albert_element, {"diag": (3,), "x": (8,), "y": (8,), "z": (8,)}),
}


def _element_from_payload(desc: AlgebraDescriptor, payload, where: str) -> Element:
    d = desc.dim
    # Counts derived from the declared dim report as "mismatch"; shapes the
    # format itself fixes report as "schema".
    if desc.kind == "sym":
        m = _reals(payload, (d * d,), where, "mismatch").reshape(d, d)
        return _matrix_element(sym_element, m, f"{where} is not symmetric")
    if desc.kind == "herm":
        pairs = _reals(payload, (d * d, 2), f"{where} [re, im] pairs", "mismatch")
        m = (pairs[:, 0] + 1j * pairs[:, 1]).reshape(d, d)
        return _matrix_element(herm_element, m, f"{where} is not Hermitian")
    constructor, fields = _OBJECT_FIELDS[desc.kind]
    if not isinstance(payload, dict) or set(payload) != set(fields):
        _fail("schema", f"{where} must be an object with keys {', '.join(fields)}")
    return constructor(*(
        _reals(payload[key], (d,), f"{where} {key}", "mismatch") if shape is None
        else _reals(payload[key], shape, f"{where} {key}")
        for key, shape in fields.items()
    ))


def instance_from_dict(doc) -> ProblemInstance:
    if not isinstance(doc, dict):
        _fail("schema", "top level must be an object")
    for key in ("algebra", "elements"):
        if key not in doc:
            _fail("schema", f"missing required key {key!r}")
    alg = doc["algebra"]
    if not isinstance(alg, dict) or set(alg) != {"kind", "dim"}:
        _fail("schema", "algebra must be an object with keys kind and dim")
    try:
        desc = AlgebraDescriptor(alg["kind"], alg["dim"])
    except ValueError as exc:
        _fail("schema", str(exc))
    label = doc.get("label", "")
    if not isinstance(label, str):
        _fail("schema", "label must be a string")
    payloads = doc["elements"]
    if not isinstance(payloads, list) or not payloads:
        _fail("schema", "elements must be a nonempty list")
    elements = tuple(
        _element_from_payload(desc, payload, f"elements[{idx}]")
        for idx, payload in enumerate(payloads)
    )
    return ProblemInstance(desc, elements, label)


def load_instance(path) -> ProblemInstance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        _fail("parse", f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        _fail("parse", f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}")
    except json.JSONDecodeError as exc:
        _fail("parse", f"invalid JSON in {path}: {exc.msg} at line {exc.lineno}")
    except RecursionError:
        _fail("parse", f"cannot parse {path}: arrays or objects nested too deeply")
    return instance_from_dict(doc)


def _payload_to_jsonable(elem: Element):
    kind = elem.descriptor.kind
    if kind == "sym":
        return elem.data.reshape(-1).tolist()
    if kind == "herm":
        return [[c.real, c.imag] for c in elem.data.reshape(-1).tolist()]
    if kind == "spin":
        s, *v = elem.data.tolist()
        return {"s": s, "v": v}
    return dict(zip(_OBJECT_FIELDS[kind][1], (part.tolist() for part in albert_parts(elem))))


def instance_to_dict(instance: ProblemInstance) -> dict:
    return {
        "algebra": {"kind": instance.algebra.kind, "dim": instance.algebra.dim},
        "label": instance.label,
        "elements": [_payload_to_jsonable(e) for e in instance.elements],
    }


def save_instance(instance: ProblemInstance, path) -> None:
    """Write the instance as JSON; what ``load_instance`` would refuse
    raises its ``InstanceFormatError`` here, and no file is written."""
    doc = instance_to_dict(instance)
    instance_from_dict(doc)
    text = json.dumps(doc, indent=2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
