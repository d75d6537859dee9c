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

Matrix payloads may carry up to 1e-9 of symmetry defect (they are exactly
symmetrized on load); anything worse is rejected.  Serialization uses the
shortest round-tripping float form, so save -> load -> save is
byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .algebras import (
    AlgebraDescriptor,
    Element,
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


def _as_real_list(obj, count: int, what: str, count_category: str = "schema") -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != count:
        _fail(count_category, f"{what} must be a list of {count} numbers")
    try:
        arr = np.array(obj, dtype=float)
    except (TypeError, ValueError):
        _fail("schema", f"{what} contains non-numeric entries")
    if arr.shape != (count,):
        _fail("schema", f"{what} must be flat with {count} entries")
    if not np.all(np.isfinite(arr)):
        _fail("schema", f"{what} contains non-finite values")
    return arr


def _matrix_element(constructor, m: np.ndarray, failure: str) -> Element:
    # The payload is square and finite here, so the constructor can only
    # object to its symmetry.
    try:
        return constructor(m, tol=LOAD_SYMMETRY_TOL)
    except ValueError:
        _fail("symmetry", f"{failure} within {LOAD_SYMMETRY_TOL}")


def _element_from_payload(desc: AlgebraDescriptor, payload, where: str) -> Element:
    d = desc.dim
    # Counts derived from the declared dim report as "mismatch"; shapes the
    # format itself fixes report as "schema".
    if desc.kind == "sym":
        flat = _as_real_list(payload, d * d, where, count_category="mismatch")
        return _matrix_element(sym_element, flat.reshape(d, d), f"{where} is not symmetric")
    if desc.kind == "herm":
        if not isinstance(payload, list) or len(payload) != d * d:
            _fail("mismatch", f"{where} must list {d * d} [re, im] pairs for dim {d}")
        try:
            arr = np.array(payload, dtype=float)
        except (TypeError, ValueError):
            _fail("schema", f"{where} contains non-numeric entries")
        if arr.shape != (d * d, 2):
            _fail("schema", f"{where} entries must be [re, im] pairs")
        if not np.all(np.isfinite(arr)):
            _fail("schema", f"{where} contains non-finite values")
        m = (arr[:, 0] + 1j * arr[:, 1]).reshape(d, d)
        return _matrix_element(herm_element, m, f"{where} is not Hermitian")
    if desc.kind == "spin":
        if not isinstance(payload, dict) or set(payload) != {"s", "v"}:
            _fail("schema", f"{where} must be an object with keys s and v")
        if not isinstance(payload["s"], (int, float)) or isinstance(payload["s"], bool):
            _fail("schema", f"{where} scalar part must be a number")
        if not np.isfinite(payload["s"]):
            _fail("schema", f"{where} scalar part must be finite")
        v = _as_real_list(payload["v"], d, f"{where} spin part", count_category="mismatch")
        return spin_element(float(payload["s"]), v)
    if not isinstance(payload, dict) or set(payload) != {"diag", "x", "y", "z"}:
        _fail("schema", f"{where} must be an object with keys diag, x, y, z")
    diag = _as_real_list(payload["diag"], 3, f"{where} diag")
    x = _as_real_list(payload["x"], 8, f"{where} x")
    y = _as_real_list(payload["y"], 8, f"{where} y")
    z = _as_real_list(payload["z"], 8, f"{where} z")
    return albert_element(diag, x, y, z)


def instance_from_dict(doc) -> ProblemInstance:
    if not isinstance(doc, dict):
        _fail("schema", "top level must be an object")
    for key in ("algebra", "elements"):
        if key not in doc:
            _fail("schema", f"missing required key {key!r}")
    alg = doc["algebra"]
    if not isinstance(alg, dict) or set(alg) != {"kind", "dim"}:
        _fail("schema", "algebra must be an object with keys kind and dim")
    # JSON true would pass as the int 1; the descriptor checks the rest.
    if isinstance(alg["dim"], bool):
        _fail("schema", "algebra dim must be a positive integer")
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
    except json.JSONDecodeError as exc:
        _fail("parse", f"invalid JSON in {path}: {exc.msg} at line {exc.lineno}")
    return instance_from_dict(doc)


def _payload_to_jsonable(elem: Element):
    kind = elem.descriptor.kind
    if kind == "sym":
        return [float(v) for v in elem.data.reshape(-1)]
    if kind == "herm":
        return [[float(v.real), float(v.imag)] for v in elem.data.reshape(-1)]
    if kind == "spin":
        return {"s": float(elem.data[0]), "v": [float(v) for v in elem.data[1:]]}
    diag, x, y, z = albert_parts(elem)
    return {
        "diag": [float(v) for v in diag],
        "x": [float(v) for v in x],
        "y": [float(v) for v in y],
        "z": [float(v) for v in z],
    }


def instance_to_dict(instance: ProblemInstance) -> dict:
    return {
        "algebra": {"kind": instance.algebra.kind, "dim": instance.algebra.dim},
        "label": instance.label,
        "elements": [_payload_to_jsonable(e) for e in instance.elements],
    }


def save_instance(instance: ProblemInstance, path) -> None:
    text = json.dumps(instance_to_dict(instance), indent=2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
