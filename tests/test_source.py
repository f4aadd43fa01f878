"""Checks on the package source itself."""
import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "smforge"


def test_no_assert_statements():
    # Invariants are explicit raises: asserts vanish under python -O.  Any
    # module anywhere under the package counts, subpackages too.
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_documents_go_through_dumps_canonical():
    # json.dump and json.dumps would bypass the canonical emitter.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("dump", "dumps")
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "json"):
                found.append(f"{path.name}:{node.lineno}")
            if (isinstance(node, ast.ImportFrom) and node.module == "json"
                    and any(a.name in ("dump", "dumps") for a in node.names)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_only_machine_reads_the_compiled_table():
    # Rules are applied in one module: the others call successors or the
    # public Machine methods, never the compiled table behind them.
    private = {"_table", "_moves", "_entry", "_step", "_SignedRule"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "machine.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = []
            if isinstance(node, ast.Attribute):
                names.append(node.attr)
            elif isinstance(node, ast.Name):
                names.append(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names += [a.name.rpartition(".")[2] for a in node.names]
            found += [f"{path.name}:{node.lineno}: {name}"
                      for name in names if name in private]
    assert not found, found


def test_only_the_visited_map_touches_parents():
    # Every breadth-first search keeps each side in one search._Visited,
    # a discovery log: no code outside the class, in search or in the
    # area oracle's encode, reads or assigns its places by key, its
    # parent places or its edge labels.  The names are the log's own,
    # so an unrelated .index or .a elsewhere does not trip the check.
    from smforge.search import _Visited
    log = {"place_of", "parent_at", "a_at", "b_at"}
    assert log <= set(_Visited.__slots__)
    tree = ast.parse((SRC / "search.py").read_text(encoding="utf-8"))
    outside = [("search.py", node) for node in tree.body
               if not (isinstance(node, ast.ClassDef)
                       and node.name == "_Visited")]
    outside.append(("encode.py", ast.parse(
        (SRC / "encode.py").read_text(encoding="utf-8"))))
    found = [f"search.py:{node.lineno}: def {node.name}"
             for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef)
             and node.name in ("_layer", "_path")]
    found += [f"{name}:{node.lineno}: .{node.attr}"
              for name, top in outside for node in ast.walk(top)
              if isinstance(node, ast.Attribute) and node.attr in log]
    assert not found, found


def test_line_counter_counts_code_lines():
    # tools/src_lines.py reports the size of src/: a code line holds a
    # token other than a comment, a docstring or a line break.
    spec = importlib.util.spec_from_file_location(
        "src_lines", ROOT / "tools" / "src_lines.py")
    src_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_lines)
    text = ('"""Module."""\n\n# note\ndef f(x):\n    """Doc,\n    more."""\n'
            '    return (x +\n            1)  # tail\n')
    assert src_lines.counts({"m.py": text}) == {"m.py": (8, 3)}


def test_only_machine_names_instance_dicts():
    # A cache kept on an object other modules own would have to be named
    # in that object's pickle state; group keeps its own per-machine
    # record instead.  Only machine.py reads an instance __dict__.
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "machine.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else None)
            if name == "__dict__":
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_validation_runs_no_kernel():
    # validate_trapezium applies no rule and replays nothing: the band
    # checks alone prove that its stored words follow its history, so a
    # checker of a trapezium does not run the kernel that made it.
    tree = ast.parse((SRC / "group.py").read_text(encoding="utf-8"))
    func = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "validate_trapezium")
    kernel = {"try_apply", "apply_ex", "_step", "successors", "run",
              "_replay"}
    found = [f"group.py:{node.lineno}: {name}" for node in ast.walk(func)
             for name in [node.id if isinstance(node, ast.Name)
                          else node.attr if isinstance(node, ast.Attribute)
                          else None]
             if name in kernel]
    assert not found, found


def test_group_replays_in_one_place():
    # Every replay in group, for the round trip, flattening and
    # conjugators alike, is the one counted replay in group._replay:
    # group applies no rule anywhere else, and names machine.run only
    # there.  Validation replays nothing (test_validation_runs_no_kernel).
    tree = ast.parse((SRC / "group.py").read_text(encoding="utf-8"))
    replay = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "_replay")
    inside = set(map(id, ast.walk(replay)))
    kernel = {"try_apply", "apply_ex", "_step", "successors"}
    found = []
    for node in ast.walk(tree):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias)
                else None)
        if name in kernel or (name == "run" and id(node) not in inside
                              and not isinstance(node, ast.alias)):
            found.append(f"group.py:{node.lineno}: {name}")
    assert not found, found


def test_splice_runs_one_junction_scan():
    # Both junctions of words.splice go through one scan loop: splice and
    # the words.py functions it calls, transitively, hold one while loop.
    tree = ast.parse((SRC / "words.py").read_text(encoding="utf-8"))
    funcs = {node.name: node for node in tree.body
             if isinstance(node, ast.FunctionDef)}
    todo, seen = ["splice"], set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        todo += [node.func.id for node in ast.walk(funcs[name])
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name) and node.func.id in funcs]
    loops = [f"words.py:{node.lineno}" for name in sorted(seen)
             for node in ast.walk(funcs[name]) if isinstance(node, ast.While)]
    assert len(loops) == 1, loops


def test_group_holds_no_reduction_pass():
    # Trapezium rows pair their cancelling letters with the one
    # free-reduction scan in words, which free_reduce shares: group makes
    # no .pop() call, so it holds no stack pass of its own.
    tree = ast.parse((SRC / "group.py").read_text(encoding="utf-8"))
    found = [f"group.py:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "pop"]
    assert not found, found


def test_group_builds_edge_records_once():
    # An edge of a trapezium carries the one Edge record of its
    # generator: group builds Edge records only in _group_record, once
    # per machine, so neither construction nor validation makes one.
    tree = ast.parse((SRC / "group.py").read_text(encoding="utf-8"))
    record = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "_group_record")
    inside = set(map(id, ast.walk(record)))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "Edge"]
    assert calls
    found = [f"group.py:{node.lineno}" for node in calls
             if id(node) not in inside]
    assert not found, found
