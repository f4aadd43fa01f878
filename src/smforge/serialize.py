"""JSON documents: reading, validation against their schemas, writing.

Every document is written by ``dumps_canonical``, which emits the text
itself: the bytes of ``json.dumps(indent=2, sort_keys=True,
ensure_ascii=False)`` plus a final newline, with tuples written as arrays.
An array of dicts that share one tuple of string keys, such as a
trapezium's cells, is written a column at a time, and one format string
over all of its values joins the records.  A column whose values are all
arrays of ``(int, int)`` pairs, such as the cells' edge paths, gets one
type check over the whole column and one format string over all of its
ints, joined from one template per array length; a lone array of
pairs is a column of one.  A column that fails the check, and any other
value, a dict subclass or a bool among them, is written item by item, in
document order, so the first refused value is the one named.  Each value
is dispatched once, in this order: a string, an exact int, None, true or
false, a dict, a list or tuple (a namedtuple too); anything else, an
Atom or an IntEnum member among them, is refused.
The machine format is canonical, so equal machines produce byte-identical
files.  Empty write words are omitted, a domain equal to the whole sector
alphabet is written as "full", and a part carries ``"lock": true`` exactly
when the sector to its right has empty domain.

Both schemas, machine and presentation, are built here by ``_object`` and
``_array``.  ``schema_violation`` never reads ``additionalProperties``: it
treats every object as closed, and ``_object`` writes that rule out.
"""
from __future__ import annotations

import json
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path

from smforge.machine import (
    Hardware,
    Machine,
    MachineError,
    RulePart,
    StatePart,
    make_rule,
)
from smforge.words import SmforgeError, Word, WordError

SCHEMA_VERSION = 1


class SerializeError(SmforgeError):
    pass


def _object(required, **properties) -> dict:
    """An object schema, closed as schema_violation reads every object."""
    return {"type": "object", "required": list(required),
            "additionalProperties": False, "properties": properties}


def _array(items, **constraints) -> dict:
    return {"type": "array", "items": items, **constraints}


_STRING = {"type": "string"}
_STRINGS = _array(_STRING)
_VERSION = {"const": SCHEMA_VERSION}

MACHINE_SCHEMA = _object(
    ["schema_version", "name", "parts", "sector_alphabets", "rules"],
    schema_version=_VERSION, name=_STRING,
    parts=_array(_object(["name", "letters"], name=_STRING,
                         letters=_array(_STRING, minItems=1),
                         start=_STRING, end=_STRING), minItems=1),
    sector_alphabets=_array(_STRINGS),
    input_sectors=_array({"type": "integer"}),
    cyclic={"type": "boolean"},
    rules=_array(_object(
        ["name", "parts"], name=_STRING,
        parts=_array(_object(["from", "to"], **{"from": _STRING}, to=_STRING,
                             left=_STRING, right=_STRING,
                             lock={"type": "boolean"})),
        domains=_array({"anyOf": [{"const": "full"}, _STRINGS]}))))

PRESENTATION_SCHEMA = _object(
    ["schema_version", "generators", "relators"],
    schema_version=_VERSION, name=_STRING, generators=_STRINGS,
    relators=_STRINGS)


_TYPES = {"object": dict, "array": list, "string": str, "integer": int,
          "boolean": bool}


def schema_violation(value, schema, path="") -> str | None:
    """The first place where ``value`` breaks ``schema``, as "<path>: <why>",
    or None.  Reads the subset of JSON Schema the document schemas use:
    ``type`` (by exact Python type: unlike in JSON Schema, 1.0 is no int),
    ``required``, ``properties`` (every object is closed), ``items``,
    ``minItems``, ``const`` and ``anyOf``."""
    where = path or "top level"
    if "anyOf" in schema:
        if all(schema_violation(value, s, path) for s in schema["anyOf"]):
            return f"{where}: {value!r} is not valid under any of the schemas"
        return None
    if "const" in schema:
        const = schema["const"]
        if type(value) is type(const) and value == const:
            return None
        return f"{where}: {const!r} was expected"
    if type(value) is not _TYPES[schema["type"]]:
        return f"{where}: {value!r} is not of type {schema['type']!r}"
    children = ()
    if isinstance(value, dict):
        missing = [k for k in schema.get("required", ()) if k not in value]
        if missing:
            return f"{where}: {missing[0]!r} is a required property"
        extra = [k for k in value if k not in schema["properties"]]
        if extra:
            return f"{where}: unexpected property {extra[0]!r}"
        children = [(k, v, schema["properties"][k]) for k, v in value.items()]
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            return f"{where}: {value!r} is too short"
        children = [(i, v, schema["items"]) for i, v in enumerate(value)]
    for key, child, sub in children:
        found = schema_violation(child, sub, f"{path}/{key}" if path else str(key))
        if found:
            return found
    return None


def read_json(path):
    """The JSON document in the UTF-8 file at ``path``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as e:
        raise SerializeError(f"not valid JSON: {e}") from None


_ENCODE_STRING = json.encoder.encode_basestring


def dumps_canonical(obj) -> str:
    """``obj`` as canonical JSON text: keys sorted, two-space indent,
    non-ASCII kept, and a final newline.  Takes dicts with string keys,
    lists, tuples, strings, ints, bools and None."""
    return _text(obj, "\n") + "\n"


def _text(o, nl: str) -> str:
    """The text of ``o`` whose first line starts after ``nl``, the line
    break and indent of the enclosing level.  A container's body is joined
    into its brackets, not added, so that it is copied only once."""
    if isinstance(o, str):
        return _ENCODE_STRING(o)
    if type(o) is int:  # not an Atom, whose id depends on interning order
        return int.__repr__(o)
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    inner = nl + "  "
    sep = "," + inner
    if isinstance(o, dict):
        body = sep.join([_ENCODE_STRING(k) + ": " + _text(o[k], inner)
                         for k in sorted(o)])
        return "".join(("{", inner, body, nl, "}")) if o else "{}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        if type(o[0]) is tuple:  # maybe pairs: written as a column of one
            pairs = _pair_arrays((o,), nl)
            if pairs is not None:
                return pairs[0]
        body = _records(o, inner, sep) or sep.join([_text(x, inner) for x in o])
        return "".join(("[", inner, body, nl, "]"))
    raise TypeError(
        f"Object of type {type(o).__name__} is not JSON serializable")


def _pair_arrays(col, nl: str) -> list[str] | None:
    """The texts of a column of arrays of 2-tuples of ints, such as the
    edge paths of a trapezium's cells, each array written after ``nl``;
    or None.  One type check covers the whole column, and one format
    string, joined from a template per array length, writes all of its
    ints."""
    if not set(map(type, col)) <= {list, tuple}:
        return None
    pairs = tuple(chain.from_iterable(col))
    if pairs and (set(map(type, pairs)) != {tuple}
                  or set(map(len, pairs)) != {2}):
        return None
    flat = tuple(chain.from_iterable(pairs))
    if flat and set(map(type, flat)) != {int}:  # bools and atoms are no ints
        return None
    inner = nl + "  "
    pair = "[" + inner + "  %d," + inner + "  %d" + inner + "]"
    lens = list(map(len, col))
    templates = {n: "[" + inner + ("," + inner).join([pair] * n) + nl + "]"
                 if n else "[]" for n in set(lens)}
    try:  # an int too long to write is refused value by value, in order
        text = "\0".join(map(templates.__getitem__, lens)) % flat
    except ValueError:
        return None
    return text.split("\0")  # no template or int holds a NUL


def _records(o, inner: str, sep: str) -> str | None:
    """The items of an array of dicts that share one tuple of string keys,
    such as a trapezium's edges, or None.  A column of values that holds
    only strings, only ints or only arrays of int pairs is written in one
    pass, any other value by value; one format string then joins every
    record.  The other columns are read record by record, so a refused
    value raises in document order."""
    if type(o[0]) is not dict or set(map(type, o)) != {dict}:
        return None
    shapes = set(map(tuple, o))
    if len(shapes) != 1:
        return None
    keys = shapes.pop()
    if set(map(type, keys)) != {str}:  # or the dicts are empty
        return None
    keys = sorted(keys)
    at = inner + "  "
    columns = []
    for k in keys:
        col = list(map(itemgetter(k), o))
        kinds = set(map(type, col))
        columns.append(map(_ENCODE_STRING, col) if kinds == {str}
                       else map(int.__repr__, col) if kinds == {int}
                       else _pair_arrays(col, at)
                       or map(_text, col, repeat(at)))
    record = ("{" + at + ("," + at).join(
        _ENCODE_STRING(k).replace("%", "%%") + ": %s" for k in keys)
        + inner + "}")
    return (sep.join([record] * len(o))
            % tuple(chain.from_iterable(zip(*columns))))


def machine_to_dict(m: Machine) -> dict:
    parts = [{"name": p.name,
              "letters": [a.name for a in p.letters],
              "start": p.start.name,
              "end": p.end.name}
             for p in m.parts]
    rules = []
    for r in m.rules:
        rps = []
        for i, rp in enumerate(r.parts):
            d = {"from": rp.frm.name, "to": rp.to.name}
            if rp.left:
                d["left"] = rp.left.tokens()
            if rp.right:
                d["right"] = rp.right.tokens()
            s = m.hw.right_sector(i)
            if s is not None and r.locked(s):
                d["lock"] = True
            rps.append(d)
        doms = []
        for s, dom in enumerate(r.domains):
            if dom == m.sector_alphabets[s]:
                doms.append("full")
            else:
                doms.append(sorted(a.name for a in dom))
        rules.append({"name": r.name, "parts": rps, "domains": doms})
    return {
        "schema_version": SCHEMA_VERSION,
        "name": m.name,
        "parts": parts,
        "sector_alphabets": [sorted(a.name for a in ab)
                             for ab in m.sector_alphabets],
        "input_sectors": list(m.input_sectors),
        "cyclic": m.cyclic,
        "rules": rules,
    }


def machine_from_dict(doc: dict) -> Machine:
    bad = schema_violation(doc, MACHINE_SCHEMA)
    if bad:
        raise SerializeError(f"invalid machine document at {bad}")
    try:  # a document that fits the schema can still build no machine
        parts = [StatePart(p["name"], p["letters"], p.get("start"),
                           p.get("end")) for p in doc["parts"]]
        hw = Hardware(parts, doc["sector_alphabets"],
                      doc.get("input_sectors", ()), doc.get("cyclic", False))
        rules = []
        for rd in doc["rules"]:
            rps = []
            locked = set()
            for i, pd in enumerate(rd["parts"]):
                rps.append(RulePart(pd["from"], pd["to"],
                                    Word.from_tokens(pd.get("left", "")),
                                    Word.from_tokens(pd.get("right", ""))))
                if pd.get("lock"):
                    s = hw.right_sector(i)
                    if s is None:
                        raise SerializeError(f"rule {rd['name']!r}: part {i} "
                                             f"has no sector to lock")
                    locked.add(s)
            domains = rd.get("domains")
            if domains is None:
                domains = [[] if s in locked else "full"
                           for s in range(hw.n_sectors)]
            rule = make_rule(hw, rd["name"], rps, domains)
            for s in locked:
                if not rule.locked(s):
                    raise SerializeError(
                        f"rule {rd['name']!r}: part marked lock but sector "
                        f"{s} has a nonempty domain")
            rules.append(rule)
        return Machine(doc["name"], hw, rules)
    except (MachineError, WordError) as e:
        raise SerializeError(str(e)) from None


def machine_dumps(m: Machine) -> str:
    return dumps_canonical(machine_to_dict(m))


def save_machine(m: Machine, path) -> None:
    Path(path).write_text(machine_dumps(m), encoding="utf-8")


def load_machine(path) -> Machine:
    return machine_from_dict(read_json(path))
