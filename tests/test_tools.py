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
