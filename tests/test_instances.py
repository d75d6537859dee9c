"""Instance file round-trips and rejection categories."""

import json

import numpy as np
import pytest

from jbtrotter.algebras import (
    AlgebraDescriptor,
    Element,
    albert_element,
    herm_element,
    random_element,
    spin_element,
    sym_element,
)
from jbtrotter.instances import (
    InstanceFormatError,
    ProblemInstance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
)
from conftest import STANDARD_DESCRIPTORS


def make_instance(descriptor, m=2, base_seed=11):
    elems = tuple(random_element(descriptor, base_seed + j, 0.9) for j in range(m))
    return ProblemInstance(descriptor, elems, label=f"test-{descriptor}")


@pytest.mark.parametrize("descriptor", STANDARD_DESCRIPTORS, ids=str)
def test_round_trip_preserves_everything(tmp_path, descriptor):
    inst = make_instance(descriptor, m=3)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    back = load_instance(path)
    assert back.algebra == inst.algebra
    assert back.label == inst.label
    assert len(back.elements) == 3
    for got, want in zip(back.elements, inst.elements):
        assert got == want  # bit-exact through repr round-trip


@pytest.mark.parametrize("descriptor", STANDARD_DESCRIPTORS, ids=str)
def test_save_is_byte_stable(tmp_path, descriptor):
    inst = make_instance(descriptor)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_instance(inst, p1)
    save_instance(load_instance(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


# One fixed element per family, written out by hand; the expected text is
# what the writer has always produced for it.
def _fixed_element(kind):
    if kind == "sym":
        return sym_element([[1.5, -0.1], [-0.1, 1e-300]])
    if kind == "herm":
        return herm_element([[2.0, 0.25 - 1j / 3], [0.25 + 1j / 3, -0.0]])
    if kind == "spin":
        return spin_element(0.1, [-2.5, 1 / 3])
    return albert_element([1.0, -0.5, 0.1], [0.0, 0.3, 0, 0, 0, 0, 0, -1e-7],
                          [2.0] + [0.0] * 7, [0.0] * 6 + [1 / 3, 0.0])


FIXED_TEXT = {
    "sym": """\
{
  "algebra": {
    "kind": "sym",
    "dim": 2
  },
  "label": "sym",
  "elements": [
    [
      1.5,
      -0.1,
      -0.1,
      1e-300
    ]
  ]
}
""",
    "herm": """\
{
  "algebra": {
    "kind": "herm",
    "dim": 2
  },
  "label": "herm",
  "elements": [
    [
      [
        2.0,
        0.0
      ],
      [
        0.25,
        -0.3333333333333333
      ],
      [
        0.25,
        0.3333333333333333
      ],
      [
        -0.0,
        0.0
      ]
    ]
  ]
}
""",
    "spin": """\
{
  "algebra": {
    "kind": "spin",
    "dim": 2
  },
  "label": "spin",
  "elements": [
    {
      "s": 0.1,
      "v": [
        -2.5,
        0.3333333333333333
      ]
    }
  ]
}
""",
    "albert": """\
{
  "algebra": {
    "kind": "albert",
    "dim": 3
  },
  "label": "albert",
  "elements": [
    {
      "diag": [
        1.0,
        -0.5,
        0.1
      ],
      "x": [
        0.0,
        0.3,
        0.0,
        0.0,
        0.0,
        0.0,
        0.0,
        -1e-07
      ],
      "y": [
        2.0,
        0.0,
        0.0,
        0.0,
        0.0,
        0.0,
        0.0,
        0.0
      ],
      "z": [
        0.0,
        0.0,
        0.0,
        0.0,
        0.0,
        0.0,
        0.3333333333333333,
        0.0
      ]
    }
  ]
}
""",
}


@pytest.mark.parametrize("kind", sorted(FIXED_TEXT))
def test_save_writes_the_fixed_text(tmp_path, kind):
    elem = _fixed_element(kind)
    path = tmp_path / "fixed.json"
    save_instance(ProblemInstance(elem.descriptor, (elem,), kind), path)
    assert path.read_text(encoding="utf-8") == FIXED_TEXT[kind]


def test_dict_round_trip():
    inst = make_instance(AlgebraDescriptor("herm", 3))
    doc = instance_to_dict(inst)
    json.dumps(doc)  # must already be plain JSON types
    back = instance_from_dict(doc)
    assert back.elements == inst.elements


def _doc(kind, dim, payload):
    return {"algebra": {"kind": kind, "dim": dim}, "elements": [payload]}


def _category(fn):
    with pytest.raises(InstanceFormatError) as err:
        fn()
    return err.value.category


def test_parse_category_for_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert _category(lambda: load_instance(path)) == "parse"


def test_parse_category_for_missing_file(tmp_path):
    assert _category(lambda: load_instance(tmp_path / "absent.json")) == "parse"


def test_schema_category_for_missing_keys():
    assert _category(lambda: instance_from_dict({"algebra": {"kind": "sym", "dim": 2}})) == "schema"
    assert _category(lambda: instance_from_dict([1, 2])) == "schema"
    assert _category(lambda: instance_from_dict({"algebra": 5, "elements": [[0.0]]})) == "schema"
    for payload in ([0.0, 0.0, 0.0], {"s": 0.0}, {"s": 0.0, "v": [0.0, 0.0], "w": 1}):
        assert _category(lambda: instance_from_dict(_doc("spin", 2, payload))) == "schema"


def test_schema_category_for_bad_algebra():
    doc = {"algebra": {"kind": "frob", "dim": 2}, "elements": [[0.0, 0.0, 0.0, 0.0]]}
    assert _category(lambda: instance_from_dict(doc)) == "schema"
    doc = {"algebra": {"kind": "albert", "dim": 4}, "elements": [[0.0]]}
    assert _category(lambda: instance_from_dict(doc)) == "schema"
    doc = {"algebra": {"kind": "sym", "dim": True}, "elements": [[0.0]]}
    assert _category(lambda: instance_from_dict(doc)) == "schema"


def test_schema_category_for_nonnumeric_and_nonfinite():
    docs = [
        _doc("sym", 2, [0.0, "x", 0.0, 0.0]),
        _doc("sym", 2, [[0.0], [0.0], [0.0], [0.0]]),
        _doc("spin", 2, {"s": float("inf"), "v": [0.0, 0.0]}),
        _doc("spin", 2, {"s": "1", "v": [0.0, 0.0]}),
        _doc("spin", 2, {"s": True, "v": [0.0, 0.0]}),
        _doc("herm", 1, [["a", 0.0]]),
        _doc("herm", 1, [[0.0, float("inf")]]),
        # Strings and booleans that numpy would read as numbers.
        _doc("sym", 2, ["1", "0", "0", "1"]),
        _doc("sym", 2, [True, 0, 0, 1]),
        _doc("herm", 1, [["1", 0]]),
        _doc("spin", 1, {"s": 0.0, "v": ["1"]}),
        _doc("spin", 1, {"s": 0.0, "v": [True]}),
        _doc("albert", 3, {"diag": [1, "0", 0], "x": [0] * 8, "y": [0] * 8, "z": [0] * 8}),
        # Integers beyond the float range, which JSON allows.
        _doc("sym", 1, [10**400]),
        _doc("spin", 1, {"s": 10**400, "v": [0.0]}),
    ]
    # JSON's NaN and Infinity tokens, as json.load reads them.
    for token in ("NaN", "Infinity", "-Infinity"):
        docs.append(_doc("sym", 2, json.loads(f"[0.0, {token}, 0.0, 0.0]")))
        docs.append(_doc("spin", 2, {"s": 0.0, "v": json.loads(f"[{token}, 0.0]")}))
    for doc in docs:
        assert _category(lambda: instance_from_dict(doc)) == "schema", doc


def test_schema_category_for_empty_elements():
    doc = {"algebra": {"kind": "sym", "dim": 2}, "elements": []}
    assert _category(lambda: instance_from_dict(doc)) == "schema"


def test_symmetry_category():
    doc = {"algebra": {"kind": "sym", "dim": 2},
           "elements": [[0.0, 1.0, 0.5, 0.0]]}
    assert _category(lambda: instance_from_dict(doc)) == "symmetry"
    doc = {"algebra": {"kind": "herm", "dim": 2},
           "elements": [[[0.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 0.0]]]}
    assert _category(lambda: instance_from_dict(doc)) == "symmetry"
    # mirror entries of opposite sign near the float maximum
    doc = {"algebra": {"kind": "sym", "dim": 2},
           "elements": [[0.0, 1e308, -1e308, 0.0]]}
    assert _category(lambda: instance_from_dict(doc)) == "symmetry"
    doc = {"algebra": {"kind": "herm", "dim": 2},
           "elements": [[[0.0, 0.0], [1e308, 0.0], [-1e308, 0.0], [0.0, 0.0]]]}
    assert _category(lambda: instance_from_dict(doc)) == "symmetry"


def test_symmetry_tolerance_boundary():
    # defects much smaller than 1e-9 are symmetrized away on load
    doc = {"algebra": {"kind": "sym", "dim": 2},
           "elements": [[0.0, 1.0, 1.0 + 1e-12, 0.0]]}
    inst = instance_from_dict(doc)
    m = inst.elements[0].data
    assert m[0, 1] == m[1, 0]


def test_mismatch_category_for_wrong_counts():
    doc = {"algebra": {"kind": "sym", "dim": 3},
           "elements": [[0.0, 0.0, 0.0, 0.0]]}  # 4 entries for dim 3
    assert _category(lambda: instance_from_dict(doc)) == "mismatch"
    doc = {"algebra": {"kind": "herm", "dim": 2},
           "elements": [[[0.0, 0.0]]]}  # 1 pair instead of 4
    assert _category(lambda: instance_from_dict(doc)) == "mismatch"
    doc = {"algebra": {"kind": "spin", "dim": 3},
           "elements": [{"s": 0.0, "v": [1.0, 2.0]}]}
    assert _category(lambda: instance_from_dict(doc)) == "mismatch"


def test_albert_payload_keys_checked():
    base = {"diag": [0.0] * 3, "x": [0.0] * 8, "y": [0.0] * 8, "z": [0.0] * 8}
    doc = {"algebra": {"kind": "albert", "dim": 3}, "elements": [base]}
    instance_from_dict(doc)  # valid
    bad = dict(base)
    del bad["z"]
    doc = {"algebra": {"kind": "albert", "dim": 3}, "elements": [bad]}
    assert _category(lambda: instance_from_dict(doc)) == "schema"
    bad = dict(base, x=[0.0] * 7)
    doc = {"algebra": {"kind": "albert", "dim": 3}, "elements": [bad]}
    assert _category(lambda: instance_from_dict(doc)) == "schema"


def test_error_message_names_offending_element():
    doc = {"algebra": {"kind": "sym", "dim": 2},
           "elements": [[0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.5, 0.0]]}
    with pytest.raises(InstanceFormatError, match=r"elements\[1\]"):
        instance_from_dict(doc)


def test_label_defaults_and_type():
    doc = {"algebra": {"kind": "sym", "dim": 1}, "elements": [[2.0]]}
    assert instance_from_dict(doc).label == ""
    doc["label"] = 7
    assert _category(lambda: instance_from_dict(doc)) == "schema"


def test_herm_payload_shape_is_schema_not_symmetry():
    doc = {"algebra": {"kind": "herm", "dim": 2},
           "elements": [[0.1, 0.2, 0.2, 0.3]]}  # bare floats, no [re, im]
    assert _category(lambda: instance_from_dict(doc)) == "schema"


def test_loaded_values_match_exactly(tmp_path):
    # exact decimal in, exact float out
    doc = {"algebra": {"kind": "spin", "dim": 2}, "label": "x",
           "elements": [{"s": 0.125, "v": [1.5, -2.25]}]}
    path = tmp_path / "v.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    inst = load_instance(path)
    assert np.array_equal(inst.elements[0].data, [0.125, 1.5, -2.25])
    # An integer literal beyond 2^64 inside a list is still a JSON number.
    inst = instance_from_dict(_doc("sym", 1, [2**70]))
    assert inst.elements[0].data[0, 0] == 2.0**70


def test_save_refuses_what_load_refuses(tmp_path):
    # Each instance would write a file that load_instance rejects; save
    # raises the reader's error instead and writes nothing.
    sym2 = AlgebraDescriptor("sym", 2)
    a = random_element(sym2, 1)
    cases = {
        "other algebra": (ProblemInstance(sym2, (a, random_element(AlgebraDescriptor("spin", 2), 2))),
                          "mismatch"),
        "no elements": (ProblemInstance(sym2, ()), "schema"),
        "mixed dims": (ProblemInstance(sym2, (a, random_element(AlgebraDescriptor("sym", 3), 3))),
                       "mismatch"),
        "label": (ProblemInstance(sym2, (a,), 7), "schema"),
        "inf": (ProblemInstance(sym2, (a, Element(sym2, np.array([[np.inf, 0.0], [0.0, 1.0]])))),
                "schema"),
    }
    for what, (instance, category) in cases.items():
        path = tmp_path / f"{what}.json"
        with pytest.raises(InstanceFormatError) as exc:
            save_instance(instance, path)
        assert exc.value.category == category, what
        with pytest.raises(InstanceFormatError) as reader:
            instance_from_dict(instance_to_dict(instance))
        assert str(exc.value) == str(reader.value), what
        assert not path.exists(), what
