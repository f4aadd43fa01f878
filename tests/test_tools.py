"""Smoke tests of the measuring scripts under tools/."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _probe_lines():
    # The search line is the reach probe, the meet line the LR({a, b})
    # meet table and the group line the trapezium probe, as
    # tools/probe.py prints them.  Small sizes: the search stops BOUNDED
    # at exactly its budget, every search of the table at 300 nodes at
    # most, and five steps, del del^-1 del del acc, make a small
    # trapezium, each measured in a child the probe starts from a clean
    # process.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "probe.py"),
         "--max-nodes", "300", "--steps", "5"],
        capture_output=True, text=True, encoding="utf-8", timeout=120,
        check=True)
    search, meet, group = map(json.loads, proc.stdout.splitlines())
    assert search["layer"] == "search" and group["layer"] == "group"
    assert meet["layer"] == "meet"
    return search, meet, group


def test_reach_probe_reports_one_line():
    search, _, _ = _probe_lines()
    assert search["max_nodes"] == 300 and search["explored"] == 300
    assert search["status"] == "bound-limited"
    assert search["configs_per_s"] > 0 and search["bytes_per_config"] >= 0
    assert search["seconds"] >= 0


def test_meet_table_probe_reports_one_line():
    # The table's 17 searches explore 4807 configurations in all under a
    # budget of 300 each, and some of them hit it.
    _, meet, _ = _probe_lines()
    assert meet["max_nodes"] == 300 and meet["explored"] == 4807
    assert meet["complete"] is False
    assert meet["seconds"] >= 0 and meet["peak_rss_mb"] > 0


def test_trapezium_probe_reports_one_line():
    _, _, group = _probe_lines()
    assert group["steps"] == 5 and group["cells"] == 13 and group["edges"] == 36
    assert group["build_ms"] >= 0 and group["validate_ms"] >= 0
    assert group["bytes_per_edge"] > 0


def test_probe_refuses_an_even_step_count():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "probe.py"), "--steps", "4"],
        capture_output=True, text=True, encoding="utf-8", timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "--steps must be odd and at least 3" in proc.stderr


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
