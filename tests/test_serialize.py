import copy
import enum
import hashlib
import json
from collections import namedtuple

import pytest
from hypothesis import example, given, settings, strategies as st

from smforge.cli import main
from smforge.encode import PRESENTATION_SCHEMA, presentation_to_machine
from smforge.enhance import build_enhanced_standard
from smforge.fixtures import (
    commutator_presentation,
    paired_multiplier,
    toy_deleter,
    trivial_acceptor,
    two_sided_multiplier,
    z2_presentation,
)
from smforge.group import machine_to_group
from smforge.machine import accept_configuration, input_configuration, run
from smforge.primitive import build_lr, build_rl
from smforge.serialize import (
    MACHINE_SCHEMA,
    SerializeError,
    dumps_canonical,
    load_machine,
    machine_dumps,
    machine_from_dict,
    machine_to_dict,
    save_machine,
    schema_violation,
)
from smforge.words import Word, atom
from test_cli import _set
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

    @pytest.mark.parametrize("corrupt, message", [
        (_set("parts", 0, "letters", ["q0s", "q0f", "q0s"]),
         "part 'T0' repeats a letter"),
        (_set("sector_alphabets", [["y"], ["z"]]),
         "expected 1 sector alphabets for 2 parts (non-cyclic), got 2"),
        (_set("input_sectors", [1]), "input sector 1 out of range"),
        (_set("rules", 0, "parts", 1, "left", "y^-2"), "bad token 'y^-2'"),
        (_set("sector_alphabets", 0, ["y z"]),
         "atom name 'y z' may not contain whitespace or '^'"),
        (_set("rules", 1, "name", "del"), "two rules named 'del'"),
    ], ids=["repeated_letter", "sector_count", "input_out_of_range",
            "bad_token", "spaced_letter", "duplicate_rule"])
    def test_construction_errors_become_serialize_errors(self, corrupt,
                                                         message):
        doc = self.good()
        corrupt(doc)
        with pytest.raises(SerializeError) as info:
            machine_from_dict(doc)
        assert type(info.value) is SerializeError
        assert str(info.value) == message

    def test_bad_json_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope", encoding="utf-8")
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

def test_schemas_are_pinned():
    # Frozen before the schemas were built from shared helpers: the same
    # dicts, so the same canonical text.
    text = dumps_canonical(MACHINE_SCHEMA) + dumps_canonical(PRESENTATION_SCHEMA)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "f2072e4461224dc96ba64584352934bbda163aeea815113429bc1d93569a289f")


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


# -- the canonical emitter against json.dumps -------------------------------

def _reference(value) -> str:
    """The text dumps_canonical must write: what json.dumps writes."""
    return json.dumps(value, indent=2, sort_keys=True,
                      ensure_ascii=False) + "\n"


# Quotes, backslashes, control characters, U+2028 and non-ASCII letters.
_TEXT = st.text(st.one_of(st.characters(),
                          st.sampled_from('"\\\x00\x1f\n\t\u2028ä→')),
                max_size=6)
_INTS = st.integers() | st.integers(-2 ** 80, 2 ** 80)
_SCALARS = st.none() | st.booleans() | _INTS | _TEXT
# Edge paths are pair arrays; a bool in a pair must still read true/false.
_PAIRS = st.lists(st.tuples(_INTS | st.booleans(), _INTS | st.booleans())
                  | st.tuples(_SCALARS, _SCALARS), min_size=1, max_size=4)
_JSON = st.recursive(
    _SCALARS | _PAIRS,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(_TEXT, kids, max_size=4)),
    max_leaves=12)


# Subclasses of str and list take the writer's isinstance branches.
class _Str(str):
    pass


class _List(list):
    pass


# A tuple subclass, written as an array, as json writes it.
_Point = namedtuple("_Point", "x y")


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_JSON)
@example([(1, True), (2, 3)])
@example([(0, 1), [2, 3], (4, 5, 6)])
@example([(0, 1, 2), (3,)])
@example({"é": ((-1, 2 ** 70),), "": [], "a\u2028": {}, "b": ()})
@example(_List([_Str('a"ä'), 1]))
@example(_Point(1, [_Point("a", None)]))
@example([_Point(1, 2), (3, 4)])
@example([(1, 2), _Point(3, 4)])
def test_emitter_agrees_with_json(value):
    assert dumps_canonical(value) == _reference(value)


# Arrays of records that share one key tuple, as a trapezium's edges,
# cells and rows do; keys carry the format character % as well.
_KEY = st.text(st.one_of(st.characters(),
                         st.sampled_from('%"\\\x00\x1f\n\u2028ä→')),
               max_size=4)
_INT_PAIRS = (st.lists(st.tuples(_INTS, _INTS), max_size=4)
              | st.lists(st.tuples(_INTS, _INTS), max_size=4).map(tuple)
              | st.lists(st.lists(_INTS, min_size=2, max_size=2), max_size=4))
# Pair lists that a whole-column pass must refuse, mixed with clean ones:
# one pair holds a bool or has three items.
_ODD_PAIRS = st.builds(
    lambda pairs, odd, i: pairs[:i] + [odd] + pairs[i:],
    st.lists(st.tuples(_INTS, _INTS), max_size=3),
    st.tuples(_INTS, st.booleans()) | st.tuples(_INTS, _INTS, _INTS),
    st.integers(0, 3))
_COLUMNS = (_TEXT, _INTS, st.booleans(), st.none(), _SCALARS, _INT_PAIRS,
            _INT_PAIRS | _ODD_PAIRS, _JSON)


class _Dict(dict):
    pass


@st.composite
def _record_arrays(draw):
    """1-6 dicts with one key tuple, each key's values drawn from one
    column kind; maybe with one record's keys changed, reordered, or
    made a dict subclass."""
    keys = draw(st.lists(_KEY, min_size=1, max_size=4, unique=True))
    columns = [draw(st.sampled_from(_COLUMNS)) for _ in keys]
    records = [{k: draw(c) for k, c in zip(keys, columns)}
               for _ in range(draw(st.integers(1, 6)))]
    i = draw(st.integers(0, len(records) - 1))
    change = draw(st.sampled_from(("none", "drop", "add", "reorder",
                                   "subclass")))
    if change == "drop":
        del records[i][keys[0]]
    elif change == "add":
        records[i]["%s" + keys[0]] = draw(_SCALARS)
    elif change == "reorder":
        records[i] = dict(reversed(records[i].items()))
    elif change == "subclass":
        records[i] = _Dict(records[i])
    return draw(st.sampled_from((records, tuple(records),
                                 {"records": records})))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_record_arrays())
@example([{"%s": 1, "%%": "%d"}, {"%s": -2 ** 70, "%%": "ä"}])
@example([{"a": True, "b": (1, 2)}, {"a": 0, "b": [(3, 4)]}])
@example([{"a": [(1, 2)]}, {"a": ((3, True),)}])
@example([{"a": [(1, 2)]}, {"a": [(3, 4), (5, 6, 7)]}, {"a": []}])
def test_record_arrays_agree_with_json(value):
    assert dumps_canonical(value) == _reference(value)


@pytest.mark.parametrize("value", [
    [{"a": 1.5, "b": "x"}, {"a": 2, "b": atom("x")}],
    [{"a": 1, "b": 1.5}, {"a": atom("x"), "b": 2}],
    [{"a": [1, 1.5]}, {"a": [atom("x")]}],
    [{"a": [(1, 2)], "b": 1.5}, {"a": [(atom("x"), 1)], "b": 2}],
    [{"a": [(1, 2)], "b": 2}, {"a": [(1, 1.5)], "b": atom("x")}],
    # An int too long to write raises ValueError, after the float.
    [{"a": [(1, 2)], "b": 1.5}, {"a": [(10 ** 5000, 1)], "b": 2}],
], ids=["same_column", "later_column", "nested", "pairs_after_float",
        "float_in_pairs", "long_int_in_pairs"])
def test_the_first_refused_value_is_named(value):
    # The float comes before the atom in document order, so it is met
    # first, even where the atom sits in an earlier column of pairs.
    with pytest.raises(TypeError, match="float is not JSON serializable"):
        dumps_canonical(value)


class _Level(enum.IntEnum):
    LOW = 1


def test_atoms_are_not_written_as_ints():
    # An atom equals its id, which depends on the order of interning.  No
    # other int subclass is written either: json writes an IntEnum
    # member's value, and the canonical writer refuses it.
    for value in (atom("x"), [(atom("x"), 1)], {"a": (1, atom("y"))}):
        with pytest.raises(TypeError, match="Atom is not JSON serializable"):
            dumps_canonical(value)
    for value in (_Level.LOW, [(_Level.LOW, 1)], {"a": [_Level.LOW]}):
        with pytest.raises(TypeError, match="^Object of type _Level is not "
                                            "JSON serializable$"):
            dumps_canonical(value)


@pytest.mark.parametrize("build", [
    lambda: build_lr(["ä", "x"]),
    lambda: build_rl(["ä", "x"]),
    lambda: build_enhanced_standard(toy_deleter()),
], ids=["lr", "rl", "enhanced"])
def test_machine_documents_agree_with_json(build):
    m = build()
    assert machine_dumps(m) == _reference(machine_to_dict(m))
    for strict in (False, True):
        p = machine_to_group(m, strict=strict)
        assert p.dumps() == _reference(p.to_dict())


def test_presentations_agree_with_json():
    for p in (z2_presentation(), commutator_presentation()):
        assert p.dumps() == _reference(p.to_dict())


@pytest.mark.parametrize("argv", [
    ["tm", "{m}", "--input", "y y", "--bound", "4"],
    ["tm", "{m}", "--input", "y", "--bound", "0"],
    ["tm", "{m}", "--max-n", "2", "--bound", "4"],
    ["run", "{m}", "--input", "y", "--history", "del acc", "--format", "json"],
    ["run", "{m}", "--input", "y", "--history", "acc", "--format", "json"],
    ["conjugator", "{m}", "--input", "y y", "--history", "del del acc",
     "--format", "json"],
    ["trapezium", "{m}", "--input", "y y",
     "--history", "del del^-1 del del acc"],
], ids=["tm", "tm_bounded", "tm_table", "run", "run_failing", "conjugator",
        "trapezium"])
def test_cli_documents_agree_with_json(capsys, tmp_path, argv):
    path = tmp_path / "del.json"
    save_machine(toy_deleter(), path)
    main([a.format(m=path) for a in argv])
    out = capsys.readouterr().out
    assert out.startswith("{")
    assert out == _reference(json.loads(out))
