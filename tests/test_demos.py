"""Every demo script and the README's examples run to completion against
the package in src."""
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from smforge.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, encoding="utf-8",
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    """The quick tour prints its answer, and every line of the command
    block exits 0, run in a scratch directory that takes lr.json."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (tour,) = re.findall(r"```python\n(.*?)```", text, re.S)
    # python -c puts its working directory, here src, first on sys.path
    proc = subprocess.run([sys.executable, "-c", tour], cwd=ROOT / "src",
                          capture_output=True, text=True, encoding="utf-8",
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "2 del acc\n"
    (commands,) = [b for b in re.findall(r"```sh\n(.*?)```", text, re.S)
                   if b.startswith("smforge ")]
    monkeypatch.chdir(tmp_path)
    for line in commands.splitlines():
        command, *argv = shlex.split(line)
        assert command == "smforge"
        assert main(argv) == 0, (line, capsys.readouterr())
