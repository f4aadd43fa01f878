"""Smoke tests of the measuring scripts under tools/."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_reach_probe_reports_one_line():
    # A small budget: the search stops BOUNDED at exactly that many
    # configurations, in a child the probe starts from a clean process.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "reach_probe.py"),
         "--max-nodes", "300"],
        capture_output=True, text=True, encoding="utf-8", timeout=120,
        check=True)
    (line,) = proc.stdout.splitlines()
    row = json.loads(line)
    assert row["max_nodes"] == 300 and row["explored"] == 300
    assert row["status"] == "bound-limited"
    assert row["configs_per_s"] > 0 and row["bytes_per_config"] >= 0


def test_trapezium_probe_reports_one_line():
    # Five steps, del del^-1 del del acc: a small trapezium built and
    # validated in a child the probe starts from a clean process.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "trapezium_probe.py"),
         "--steps", "5"],
        capture_output=True, text=True, encoding="utf-8", timeout=120,
        check=True)
    (line,) = proc.stdout.splitlines()
    row = json.loads(line)
    assert row["steps"] == 5 and row["cells"] == 13 and row["edges"] == 36
    assert row["build_ms"] >= 0 and row["validate_ms"] >= 0
    assert row["bytes_per_edge"] > 0


def test_mutant_runner_fails_on_survivors_and_stale_snippets(tmp_path):
    # A mutant that changes only a comment survives its node id, and so
    # does one that stops the package importing, though its node id then
    # does not pass either: only a failure kills.  A snippet that is not
    # in the file is stale, and a replacement that breaks the syntax is
    # bad.  Each makes the runner exit 1, and the checkout is left as it
    # was.
    node = "tests/test_group.py::TestValidation::test_corruption_refused[dropped_word]"
    group = ROOT / "src" / "smforge" / "group.py"
    before = group.read_text(encoding="utf-8")
    listed = tmp_path / "mutants.json"
    listed.write_text(json.dumps([
        {"name": "comment", "file": "src/smforge/group.py",
         "snippet": "# -- validation ---", "replacement": "# -- checks ---",
         "kills": [node]},
        {"name": "unimportable", "file": "src/smforge/group.py",
         "snippet": "# -- validation ---",
         "replacement": "raise ImportError  # -- validation ---",
         "kills": [node]},
        {"name": "gone", "file": "src/smforge/group.py",
         "snippet": "no such text", "replacement": "", "kills": [node]},
        {"name": "broken", "file": "src/smforge/group.py",
         "snippet": "def validate_trapezium(", "replacement": "def (",
         "kills": [node]},
    ]), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "mutants.py"), "--list",
         str(listed)], capture_output=True, text=True, encoding="utf-8",
        timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    comment, unimportable, gone, broken, total = proc.stdout.splitlines()
    assert comment == f"comment: SURVIVED, not failing: {node} PASSED"
    assert unimportable == f"unimportable: SURVIVED, not failing: {node} did not run"
    assert gone == "gone: STALE, its snippet occurs 0 times in src/smforge/group.py"
    assert broken.startswith("broken: BAD, the mutated file does not compile")
    assert total == "4 mutants, 4 failing"
    assert group.read_text(encoding="utf-8") == before
