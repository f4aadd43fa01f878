import argparse
import contextlib
import copy
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from smforge import cli, group, search
from smforge.cli import main
from smforge.encode import GroupPresentation
from smforge.fixtures import toy_deleter, trivial_acceptor, z2_presentation
from smforge.primitive import build_lr
from smforge.serialize import load_machine, machine_dumps, save_machine
from smforge.words import atoms

from test_group import cyclic_emitter

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def deleter_file(tmp_path):
    path = tmp_path / "del.json"
    save_machine(toy_deleter(), path)
    return str(path)


def invoke(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestConstruction:
    def test_primitive_lr(self, capsys, tmp_path):
        out_file = tmp_path / "lr.json"
        code, _ = invoke(capsys, "primitive", "--kind", "lr",
                         "--letters", "y", "-o", str(out_file))
        assert code == 0
        m = load_machine(out_file)
        assert m.name == "LR"
        assert m.n_parts == 3

    def test_primitive_rl_named(self, capsys):
        code, out = invoke(capsys, "primitive", "--kind", "rl",
                           "--letters", "a,b", "--name", "R2")
        assert code == 0
        assert json.loads(out)["name"] == "R2"

    def test_primitive_no_letters(self, capsys):
        code, _ = invoke(capsys, "primitive", "--letters", "")
        assert code == 2

    def test_primitive_repeated_letter(self, capsys):
        code = main(["primitive", "--letters", "y,y"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_primitive_empty_word_letter(self, capsys):
        code = main(["primitive", "--letters", "ε"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert (captured.err.startswith("error: ")
                and captured.err.count("\n") == 1)

    def test_machine_naming_empty_word_token(self, capsys, tmp_path):
        # A document written before ε was refused: its tape letter y is ε.
        path = tmp_path / "eps.json"
        text = machine_dumps(toy_deleter())
        assert text.count('"y') == 2
        path.write_text(text.replace('"y', '"ε'), encoding="utf-8")
        code = main(["present", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert (captured.err.startswith("error: ")
                and captured.err.count("\n") == 1)

    def test_primitive_deterministic(self, capsys):
        _, a = invoke(capsys, "primitive", "--letters", "y,z")
        _, b = invoke(capsys, "primitive", "--letters", "y,z")
        assert a == b

    def test_encode(self, capsys, tmp_path):
        pres = tmp_path / "z2.json"
        z2_presentation().save(pres)
        code, out = invoke(capsys, "encode", str(pres))
        assert code == 0
        doc = json.loads(out)
        assert doc["name"] == "encode.z2"
        assert len(doc["rules"]) == 11

    def test_encode_generator_clash(self, capsys, tmp_path):
        pres = tmp_path / "clash.json"
        GroupPresentation(atoms(["x", "x~"]), []).save(pres)
        code = main(["encode", str(pres)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == ("error: the bar 'x~' of generator 'x' is "
                                "another letter\n")

    def test_pipeline_stages(self, capsys, tmp_path):
        lr = tmp_path / "lr.json"
        invoke(capsys, "primitive", "--letters", "y", "-o", str(lr))
        for cmd, suffix in [("historical", ".h"), ("pad", ".hp"),
                            ("enhance", ".E")]:
            code, out = invoke(capsys, cmd, str(lr))
            assert code == 0, cmd
            assert json.loads(out)["name"] == "LR" + suffix
        enhanced = tmp_path / "e.json"
        invoke(capsys, "enhance", str(lr), "-o", str(enhanced))
        code, out = invoke(capsys, "cyclic", str(enhanced))
        assert code == 0
        doc = json.loads(out)
        assert doc["name"] == "LR.E.cyclic"
        assert doc["cyclic"] is True

    def test_missing_file(self, capsys):
        code, _ = invoke(capsys, "historical", "no_such_file.json")
        assert code == 2

    def test_directory_as_input(self, capsys, tmp_path):
        code = main(["tm", str(tmp_path), "--bound", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["present", "encode"])
    def test_non_utf8_input(self, capsys, tmp_path, command):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"name": "\xff\xfe"}')
        code = main([command, str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1


class TestRun:
    def test_json(self, capsys, deleter_file):
        code, out = invoke(capsys, "run", deleter_file, "--input", "y y",
                           "--history", "del del acc")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["configs"][0] == "q0s y y q1s"
        assert doc["configs"][-1] == "q0f q1f"

    def test_text(self, capsys, deleter_file):
        code, out = invoke(capsys, "run", deleter_file, "--input", "y",
                           "--history", "del", "--format", "text")
        assert code == 0
        assert out.splitlines() == ["q0s y q1s", "q0s q1s"]

    def test_text_failure(self, capsys, deleter_file):
        code, out = invoke(capsys, "run", deleter_file, "--input", "y",
                           "--history", "acc", "--format", "text")
        assert code == 1
        assert out.splitlines() == [
            "q0s y q1s",
            "# failed at step 0: letter 'y' in gap 0 outside the domain "
            "of rule 'acc'"]

    def test_failing_history(self, capsys, deleter_file):
        code, out = invoke(capsys, "run", deleter_file,
                           "--history", "acc del")
        assert code == 1
        doc = json.loads(out)
        assert doc["ok"] is False
        assert doc["failed_at"] == 1

    def test_start_overrides_input(self, capsys, deleter_file):
        code, out = invoke(capsys, "run", deleter_file,
                           "--start", "q0f q1f", "--history", "acc^-1")
        assert code == 0
        assert json.loads(out)["configs"][-1] == "q0s q1s"

    def test_bad_tokens(self, capsys, deleter_file):
        code, _ = invoke(capsys, "run", deleter_file, "--input", "zebra",
                         "--history", "del")
        assert code == 2

    def test_unknown_rule(self, capsys, deleter_file):
        code, _ = invoke(capsys, "run", deleter_file, "--history", "nope")
        assert code == 2


class TestTm:
    def test_accepts(self, capsys, deleter_file):
        code, out = invoke(capsys, "tm", deleter_file, "--input", "y y",
                           "--bound", "6")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "found"
        assert doc["length"] == 3
        assert doc["history"] == "del del acc"

    def test_unreachable(self, capsys, tmp_path):
        path = tmp_path / "triv.json"
        save_machine(trivial_acceptor(), path)
        code, out = invoke(capsys, "tm", str(path), "--input", "y",
                           "--bound", "4")
        assert code == 1
        assert json.loads(out)["status"] == "unreachable"

    def test_bound_limited(self, capsys, deleter_file):
        code, out = invoke(capsys, "tm", deleter_file, "--input", "y y",
                           "--bound", "1")
        assert code == 3
        assert json.loads(out)["status"] == "bound-limited"

    def test_table(self, capsys, deleter_file):
        code, out = invoke(capsys, "tm", deleter_file, "--max-n", "2",
                           "--bound", "8")
        assert code == 0
        doc = json.loads(out)
        assert doc["values"] == {"0": 1, "1": 2, "2": 3}
        assert all(doc["complete"].values())

    def test_node_budget(self, capsys, deleter_file):
        argv = ["tm", deleter_file, "--input", "y y", "--bound", "6"]
        code, out = invoke(capsys, *argv)
        assert code == 0
        # A budget of the configurations the search visits anyway changes
        # nothing; a smaller one leaves it bound-limited.
        explored = json.loads(out)["explored"]
        assert invoke(capsys, *argv, "--max-nodes", str(explored)) == (code, out)
        code, out = invoke(capsys, *argv, "--max-nodes", "2")
        assert code == 3
        doc = json.loads(out)
        assert doc["status"] == "bound-limited" and doc["explored"] == 2
        code, out = invoke(capsys, "tm", deleter_file, "--max-n", "2",
                           "--bound", "8", "--max-nodes", "2")
        assert code == 3
        assert not all(json.loads(out)["complete"].values())
        code, out = invoke(capsys, *argv, "--max-nodes", "1")
        assert code == 3
        doc = json.loads(out)
        assert doc["status"] == "bound-limited" and doc["explored"] == 1

    def test_default_node_budget(self, capsys, monkeypatch, tmp_path):
        # LR({a, b}) never accepts a#1, and the component of its input
        # configuration grows without end, so only the default budget of
        # 200,000 configurations stops the search.
        path = str(tmp_path / "lr_ab.json")
        save_machine(build_lr(["a", "b"]), path)
        code, out = invoke(capsys, "tm", path, "--input", "a#1", "--bound", "12")
        assert code == 3
        doc = json.loads(out)
        assert (doc["status"], doc["explored"]) == ("bound-limited", 200_000)
        # The table passes the same budget to the search of every input.
        budgets = []
        table = search.time_function
        monkeypatch.setattr(search, "time_function",
                            lambda *a: budgets.append(a[4]) or table(*a))
        code, out = invoke(capsys, "tm", path, "--max-n", "0", "--bound", "12")
        assert code == 0 and budgets == [200_000]

    @pytest.mark.parametrize("budget", ["0", "-1", "many"])
    def test_bad_node_budget(self, capsys, deleter_file, budget):
        try:
            code = main(["tm", deleter_file, "--input", "y", "--bound", "6",
                         "--max-nodes", budget])
        except SystemExit as e:  # argparse rejects what is not an integer
            code = e.code
        assert code == 2

    @pytest.mark.parametrize("args", [
        ["--input", "y", "--bound", "-1"],
        ["--max-n", "-1", "--bound", "3"],
        ["--max-n", "2", "--bound", "-1"],
    ], ids=["bound", "max_n", "table_bound"])
    def test_negative_bound_or_size(self, capsys, deleter_file, args):
        code = main(["tm", deleter_file, *args])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_zero_bound_is_valid(self, capsys, deleter_file):
        code, out = invoke(capsys, "tm", deleter_file, "--input", "y",
                           "--bound", "0")
        assert code == 3
        assert json.loads(out)["status"] == "bound-limited"

    @pytest.mark.parametrize("command, text", [
        pytest.param(command, text, id=command + suffix)
        for suffix, text in [
            ("", "[" * 100_000 + "]" * 100_000),
            ("-long_int", '{"schema_version": ' + "1" * 5_000 + "}")]
        for command in ("present", "encode")])
    def test_deeply_nested_input(self, capsys, tmp_path, command, text):
        path = tmp_path / "deep.json"
        path.write_text(text, encoding="utf-8")
        code = main([command, str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: not valid JSON: ")
        assert err.count("\n") == 1

    def test_needs_exactly_one_mode(self, capsys, deleter_file):
        code, _ = invoke(capsys, "tm", deleter_file, "--bound", "4")
        assert code == 2
        code, _ = invoke(capsys, "tm", deleter_file, "--bound", "4",
                         "--input", "y", "--max-n", "2")
        assert code == 2


class TestGroupCommands:
    def test_present(self, capsys, deleter_file):
        code, out = invoke(capsys, "present", deleter_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["name"] == "M(toy_deleter)"
        assert "del.0" in doc["generators"]
        assert len(doc["relators"]) == 5

    def test_present_strict(self, capsys, deleter_file):
        _, full = invoke(capsys, "present", deleter_file)
        code, strict = invoke(capsys, "present", deleter_file, "--strict")
        assert code == 0
        assert (len(json.loads(strict)["relators"])
                == len(json.loads(full)["relators"]) - 2)

    def test_trapezium_json(self, capsys, deleter_file):
        code, out = invoke(capsys, "trapezium", deleter_file, "--input",
                           "y", "--history", "del acc")
        assert code == 0
        doc = json.loads(out)
        assert doc["machine"] == "toy_deleter"
        assert len(doc["cells"]) == 4
        assert len(doc["words"]) == 3

    def test_trapezium_dot(self, capsys, deleter_file):
        code, out = invoke(capsys, "trapezium", deleter_file, "--input", "y",
                           "--history", "del acc", "--format", "dot")
        assert code == 0
        assert out.startswith('graph "toy_deleter"')

    def test_trapezium_deterministic(self, capsys, deleter_file):
        args = ("trapezium", deleter_file, "--input", "y y",
                "--history", "del del acc")
        _, a = invoke(capsys, *args)
        _, b = invoke(capsys, *args)
        assert a == b

    def test_trapezium_bad_history(self, capsys, deleter_file):
        code, _ = invoke(capsys, "trapezium", deleter_file,
                         "--history", "acc del")
        assert code == 2

    def test_conjugator_text(self, capsys, deleter_file):
        code, out = invoke(capsys, "conjugator", deleter_file, "--input",
                           "y y", "--history", "del del acc")
        assert code == 0
        assert out == "del.0 del.0 acc.0\n"

    def test_conjugator_json(self, capsys, deleter_file):
        code, out = invoke(capsys, "conjugator", deleter_file, "--input",
                           "y", "--history", "del acc", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["gamma"] == "del.0 acc.0"
        assert doc["length"] == 2
        assert doc["end"] == "q0f q1f"

    def test_conjugator_refused_when_a_side_carries_tape(self, capsys,
                                                         tmp_path):
        path = tmp_path / "emitter.json"
        save_machine(cyclic_emitter(), path)
        code = main(["conjugator", str(path), "--start", "u a0 v",
                     "--history", "emit"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == ("no conjugator: a step emits tape letters at "
                                "the boundary; the sides are not pure "
                                "conjugators\n")

    def test_start_off_the_standard_base_is_bad_input(self, capsys,
                                                      deleter_file):
        # Exit 1 would certify that no conjugator exists; the start is
        # simply not one that a trapezium can be built from.
        for command in ("trapezium", "conjugator"):
            code = main([command, deleter_file, "--start", "q1s^-1 y q1s",
                         "--history", "del"])
            captured = capsys.readouterr()
            assert code == 2, command
            assert captured.out == ""
            assert captured.err == ("error: trapezia need the standard base "
                                    "q_0 ... q_{n-1}\n")

    def test_trapezium_failing_validation_exits_4(self, capsys, monkeypatch,
                                                  deleter_file):
        def refuse(trap):
            raise group.GroupError("cell 0 does not spell a relator")

        monkeypatch.setattr(cli, "validate_trapezium", refuse)
        code = main(["trapezium", deleter_file, "--input", "y",
                     "--history", "del acc"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err == ("invariant violation: cell 0 does not spell "
                                "a relator\n")


def _set(*path_and_value):
    """A corruption of a machine document: set one entry by its path."""
    *path, key, value = path_and_value

    def corrupt(doc):
        for k in path:
            doc = doc[k]
        doc[key] = value
    return corrupt


@pytest.mark.parametrize("corrupt, message", [
    (_set("parts", 0, "letters", ["q0s", "q0f", "q0s"]), "repeats a letter"),
    (_set("parts", 0, "start", "q1s"), "is not a letter of part"),
    (_set("input_sectors", [0, 0]), "repeated input sector"),
    (_set("input_sectors", [1]), "input sector 1 out of range"),
    (lambda doc: doc.update(cyclic=True, sector_alphabets=[["y"], ["y"]]),
     "appears in two sectors"),
    (_set("rules", 0, "domains", ["full", "full"]), "expected 1 domains"),
    (_set("rules", 0, "parts", 1, "lock", True), "no sector to lock"),
], ids=["repeated_letter", "foreign_start", "repeated_input",
        "input_out_of_range", "letter_in_two_sectors", "domain_count",
        "lock_past_last_part"])
def test_bad_machine_document_exits_2(capsys, tmp_path, corrupt, message):
    doc = json.loads(machine_dumps(toy_deleter()))
    corrupt(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["present", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and message in captured.err


def _contract_holds(argv):
    """main returns 0-3 without raising, and a 2 prints one stderr line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    if code == 2:
        assert err.getvalue().startswith("error: "), (argv, err.getvalue())
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())


def _strings(doc):
    if isinstance(doc, str):
        return [doc]
    items = doc.values() if isinstance(doc, dict) else doc
    return [s for v in items if isinstance(v, (str, dict, list))
            for s in _strings(v)]


_BASES = [json.loads(machine_dumps(m)) for m in (toy_deleter(), build_lr(["a"]))]
_JUNK = [None, True, 0, -1, 2, 1.5, "", "ε", "y^-2", "x y", [], {}, ["y"]]
_TOKENS = sorted({s for doc in _BASES for s in _strings(doc)}) + ["y^-2", "ε"]
# Each runs on a mutated document, given as the argument after the name.
_DOC_COMMANDS = [
    ["present"], ["present", "--strict"], ["cyclic"], ["historical"], ["pad"],
    ["tm", "--max-n", "1", "--bound", "4", "--max-nodes", "2000"],
    ["tm", "--input", "y", "--bound", "4", "--method", "meet"],
    ["run", "--input", "y", "--history", "del acc"],
    ["trapezium", "--input", "y", "--history", "del acc"],
    ["conjugator", "--input", "y", "--history", "del acc"],
]
# MACHINE stands for a saved toy_deleter.
_HEADS = [[]] + [[name, "MACHINE"] for name, _, _ in cli._COMMANDS]
_ARGV_TOKENS = [name for name, _, _ in cli._COMMANDS] + [
    "--input", "--start", "--history", "--bound", "--max-n", "--max-nodes",
    "--method", "--format", "--kind", "--letters", "--name", "--strict",
    "bogus", "0", "3", "-1", "many", "y", "del acc", "q0s y q1s", "bfs",
    "meet", "json", "text", "dot", "lr", "MACHINE", "missing.json"]


def _mutate(data, doc):
    """Change one entry of doc: drop it, retype it, swap a token or
    truncate a list."""
    node = doc
    while True:
        key = data.draw(st.sampled_from(
            list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if (isinstance(child, (dict, list)) and child
                and data.draw(st.booleans())):
            node = child
            continue
        op = data.draw(st.sampled_from(["drop", "retype", "token", "cut"]))
        if op == "drop":
            del node[key]
        elif op == "retype":
            node[key] = copy.deepcopy(data.draw(st.sampled_from(_JUNK)))
        elif op == "token":
            node[key] = data.draw(st.sampled_from(_TOKENS))
        elif isinstance(child, list):
            node[key] = child[:data.draw(st.integers(0, len(child)))]
        return


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    save_machine(toy_deleter(), path / "del.json")
    return path


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_input_contract_under_fuzzing(fuzz_dir, data):
    """Mutated documents and argument lists drawn from the parser's own
    tokens: never a traceback, never a code past 3, one line for a 2."""
    out = ["-o", str(fuzz_dir / "out")]
    doc = copy.deepcopy(data.draw(st.sampled_from(_BASES)))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, doc)
    path = fuzz_dir / "mutated.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    name, *options = data.draw(st.sampled_from(_DOC_COMMANDS))
    _contract_holds([name, str(path), *options, *out])
    argv = data.draw(st.sampled_from(_HEADS)) + data.draw(
        st.lists(st.sampled_from(_ARGV_TOKENS), max_size=6))
    machine = str(fuzz_dir / "del.json")
    _contract_holds([machine if a == "MACHINE" else a for a in argv] + out)


def _fresh_python(*argv, cwd=None, text=True, **env_overrides):
    """Run a fresh interpreter with this checkout's src first on its path."""
    env = dict(os.environ, **env_overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=text, timeout=60,
                          encoding="utf-8" if text else None)


C_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


class TestEntryPoint:
    def test_cold_import_skips_heavy_dependencies(self, tmp_path):
        proc = _fresh_python(
            "-c", "import sys, smforge.cli; "
                  "print(sorted({'sympy', 'jsonschema', 'fractions', "
                  "'dataclasses', 'inspect'} & set(sys.modules)))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
        # Reading and validating documents imports nothing heavy either.
        save_machine(toy_deleter(), tmp_path / "m.json")
        z2_presentation().save(tmp_path / "p.json")
        proc = _fresh_python(
            "-c", "import sys; from smforge.cli import main; "
                  "codes = [main(['present', 'm.json']), "
                  "main(['encode', 'p.json'])]; "
                  "print(codes, sorted({'sympy', 'jsonschema'} & "
                  "set(sys.modules)), file=sys.stderr)", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "[0, 0] []\n"

    def test_machine_file_is_utf8_under_c_locale(self, capsys, tmp_path):
        assert main(["primitive", "--letters", "ä",
                     "-o", str(tmp_path / "m.json")]) == 0
        proc = _fresh_python("-m", "smforge.cli", "present", "m.json",
                             "-o", "g.json", cwd=tmp_path, **C_LOCALE)
        assert proc.returncode == 0, proc.stderr
        assert "ä" in (tmp_path / "g.json").read_text(encoding="utf-8")
        # stdout and word arguments are UTF-8 too: the same bytes as here.
        assert main(["present", str(tmp_path / "m.json")]) == 0
        presented = capsys.readouterr().out.encode("utf-8")
        proc = _fresh_python("-m", "smforge.cli", "present", "m.json",
                             cwd=tmp_path, text=False, **C_LOCALE)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == presented
        proc = _fresh_python("-m", "smforge.cli", "primitive", "--letters",
                             "ä", "-o", "c.json", cwd=tmp_path, **C_LOCALE)
        assert proc.returncode == 0, proc.stderr
        assert ((tmp_path / "c.json").read_bytes()
                == (tmp_path / "m.json").read_bytes())

    def test_parser_is_pinned(self):
        # Every subcommand and argument as argparse holds it, in order.
        # The --help layout varies across Python versions; this does not.
        def record(a):
            return [a.option_strings, a.dest, a.default, a.required,
                    a.choices, a.nargs, a.metavar, a.help,
                    getattr(a.type, "__name__", None), type(a).__name__]

        ap = cli.build_parser()
        sub = next(a for a in ap._actions
                   if isinstance(a, argparse._SubParsersAction))
        doc = [[c.dest, c.help, [record(a) for a in sub.choices[c.dest]._actions]]
               for c in sub._choices_actions]
        text = json.dumps(doc)
        assert [d[0] for d in doc] == [
            "primitive", "encode", "historical", "pad", "enhance", "cyclic",
            "run", "tm", "present", "trapezium", "conjugator"]
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "7a1e72a4d2786c112f847fd42bca2acb86531ca4ca76025cbe78d284c28cf40d"
        ), text
        for name, parser in sub.choices.items():
            assert parser.get_default("func") is getattr(cli, f"cmd_{name}")

    def test_internal_error_exits_4(self, capsys, monkeypatch, deleter_file):
        def boom(args):
            raise RuntimeError("broken\ninvariant")
        monkeypatch.setattr(cli, "cmd_present", boom)
        code = main(["present", deleter_file])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err == "internal error: RuntimeError: broken invariant\n"

    def test_failed_self_check_exits_4(self, capsys, monkeypatch, deleter_file):
        # Without the pairing of cancelling letters, the y^-1 that 'del'
        # writes stays on the row top, which then misspells the result.
        # The row builder's scan is patched where group imports it.
        monkeypatch.setattr(group, "_cancellations", lambda letters: (
            [None] * len(letters), list(range(len(letters)))))
        code = main(["trapezium", deleter_file, "--input", "y",
                     "--history", "del acc"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err == ("internal error: InvariantError: row top does "
                                "not spell the resulting word\n")

    @pytest.mark.parametrize("argv", [
        ["tm"], [], ["bogus"],
        ["tm", "m.json", "--bound", "3", "--max-nodes", "many"],
    ], ids=["missing_arguments", "no_command", "unknown_command", "bad_int"])
    def test_usage_error_is_one_line(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_module_invocation(self):
        proc = _fresh_python("-m", "smforge.cli", "--help")
        assert proc.returncode == 0
        assert "trapezium" in proc.stdout
