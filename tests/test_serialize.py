import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from smforge.encode import PRESENTATION_SCHEMA, presentation_to_machine
from smforge.fixtures import (
    commutator_presentation,
    paired_multiplier,
    toy_deleter,
    trivial_acceptor,
    two_sided_multiplier,
    z2_presentation,
)
from smforge.machine import accept_configuration, input_configuration, run
from smforge.serialize import (
    MACHINE_SCHEMA,
    SerializeError,
    load_machine,
    machine_dumps,
    machine_from_dict,
    machine_to_dict,
    save_machine,
    schema_violation,
)
from smforge.words import Word
from test_search_properties import machines

PROPERTY = settings(max_examples=400, deadline=None, derandomize=True)


class TestRoundTrip:
    def test_bytes_stable(self, tmp_path):
        m = toy_deleter()
        text = machine_dumps(m)
        m2 = machine_from_dict(json.loads(text))
        assert machine_dumps(m2) == text

    def test_file_roundtrip_behaves(self, tmp_path):
        m = two_sided_multiplier()
        p = tmp_path / "m.json"
        save_machine(m, p)
        m2 = load_machine(p)
        c = input_configuration(m2, Word.from_tokens("a"))
        comp = run(m2, c, ["lmul(b)", "rmul(a)"])
        assert comp.end.tapes[0] == Word.from_tokens("b a a")

    def test_lock_flag_emitted(self):
        doc = machine_to_dict(toy_deleter())
        acc = [r for r in doc["rules"] if r["name"] == "acc"][0]
        assert acc["parts"][0]["lock"] is True
        assert acc["domains"] == [[]]
        dl = [r for r in doc["rules"] if r["name"] == "del"][0]
        assert "lock" not in dl["parts"][0]
        assert dl["domains"] == ["full"]

    def test_empty_words_omitted(self):
        doc = machine_to_dict(toy_deleter())
        dl = [r for r in doc["rules"] if r["name"] == "del"][0]
        assert "left" not in dl["parts"][0]
        assert dl["parts"][1]["left"] == "y^-1"


class TestValidation:
    def good(self):
        return machine_to_dict(toy_deleter())

    def test_schema_violation_is_located(self):
        doc = self.good()
        doc["rules"][0]["parts"][0]["from"] = 7
        with pytest.raises(SerializeError, match="rules/0/parts/0/from"):
            machine_from_dict(doc)

    def test_version_checked(self):
        doc = self.good()
        doc["schema_version"] = 99
        with pytest.raises(SerializeError):
            machine_from_dict(doc)

    def test_unknown_key_rejected(self):
        doc = self.good()
        doc["extra"] = 1
        with pytest.raises(SerializeError):
            machine_from_dict(doc)

    def test_lock_conflicts_with_domain(self):
        doc = self.good()
        acc = [r for r in doc["rules"] if r["name"] == "acc"][0]
        acc["domains"] = ["full"]
        with pytest.raises(SerializeError, match="lock"):
            machine_from_dict(doc)

    def test_domains_default_to_full_plus_locks(self):
        doc = self.good()
        for r in doc["rules"]:
            del r["domains"]
        m = machine_from_dict(doc)
        assert m.rule("acc").locked(0)
        assert not m.rule("del").locked(0)

    def test_semantic_errors_become_serialize_errors(self):
        doc = self.good()
        doc["rules"][0]["parts"][0]["from"] = "nonexistent"
        with pytest.raises(SerializeError, match="nonexistent"):
            machine_from_dict(doc)

    def test_bad_json_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(SerializeError, match="not valid JSON"):
            load_machine(p)

    def test_wrong_part_count_in_rule(self):
        doc = self.good()
        doc["rules"][0]["parts"].append({"from": "q1s", "to": "q1s"})
        with pytest.raises(SerializeError, match="parts"):
            machine_from_dict(doc)

    @pytest.mark.parametrize("key, value", [("input_sectors", [0.0]),
                                            ("schema_version", 1.0)])
    def test_integers_are_not_floats(self, key, value):
        # 1.0 == 1, but a float would be echoed into the canonical bytes.
        doc = self.good()
        doc[key] = value
        with pytest.raises(SerializeError, match=key):
            machine_from_dict(doc)


@PROPERTY
@given(machines())
def test_dumps_load_dumps_is_byte_identical(case):
    m, _ = case
    text = machine_dumps(m)
    assert machine_dumps(machine_from_dict(json.loads(text))) == text


# -- the schema checker against jsonschema ----------------------------------

_DOCUMENTS = (
    [(MACHINE_SCHEMA, machine_to_dict(m))
     for m in (toy_deleter(), trivial_acceptor(), two_sided_multiplier(),
               paired_multiplier(), presentation_to_machine(z2_presentation()))]
    + [(PRESENTATION_SCHEMA, p.to_dict())
       for p in (z2_presentation(), commutator_presentation())])

# What a mutation writes: each JSON type, plus the floats and booleans
# that an integer position refuses.
_VALUES = (0, 1, 2, 0.0, 1.0, 2.5, True, False, None, "", "full", "q0s",
           [], [0], [1.0], ["y"], {}, {"name": "x"})
_KEYS = ("extra", "name", "start", "lock", "left", "domains",
         "input_sectors", "cyclic", "schema_version")


def _value(data):
    return copy.deepcopy(data.draw(st.sampled_from(_VALUES)))


def _containers(node):
    """Every dict and list in a document, the document included."""
    yield node
    for child in (node.values() if isinstance(node, dict) else node):
        if isinstance(child, (dict, list)):
            yield from _containers(child)


def _mutate(doc, data):
    """Drop, add or retype a key or item, change the version, or empty a
    list, somewhere in doc."""
    kind = data.draw(st.sampled_from(("drop", "add", "retype", "version",
                                      "empty")))
    if kind == "version":
        doc["schema_version"] = data.draw(
            st.sampled_from((0, 1, 2, 1.0, "1", True, None)))
        return
    if kind == "empty":
        data.draw(st.sampled_from(
            [n for n in _containers(doc) if isinstance(n, list)])).clear()
        return
    node = data.draw(st.sampled_from(list(_containers(doc))))
    if kind == "add":
        value = _value(data)
        if isinstance(node, dict):
            node[data.draw(st.sampled_from(_KEYS))] = value
        else:
            node.append(value)
        return
    if node:
        key = data.draw(st.sampled_from(
            list(node) if isinstance(node, dict) else range(len(node))))
        if kind == "drop":
            del node[key]
        else:
            node[key] = _value(data)


def _has_float(node):
    if isinstance(node, float):
        return True
    if isinstance(node, (dict, list)):
        return any(map(_has_float,
                       node.values() if isinstance(node, dict) else node))
    return False


def _reference_accepts(schema, doc):
    """jsonschema's verdict, the reference the checker replaced."""
    jsonschema = pytest.importorskip("jsonschema")
    return jsonschema.validators.validator_for(schema)(schema).is_valid(doc)


@PROPERTY
@given(st.data())
def test_checker_agrees_with_jsonschema(data):
    schema, doc = data.draw(st.sampled_from(_DOCUMENTS))
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 2))):
        _mutate(doc, data)
    bad = schema_violation(doc, schema)
    # Floats are the one documented difference: JSON Schema counts 1.0 as
    # an integer, and no position in these schemas takes any other float.
    assert (bad is None) == (_reference_accepts(schema, doc)
                             and not _has_float(doc))
    if bad is not None:
        where = bad.split(": ", 1)[0]
        node = doc
        for key in ([] if where == "top level" else where.split("/")):
            node = node[int(key) if isinstance(node, list) else key]
