"""Mutants of the package source that the tier-1 tests must kill.

    python3 tools/mutants.py [--list FILE]

Each entry of the list (tools/mutants.json by default) names a file under
src/, a snippet that occurs there exactly once, its replacement, and the
tier-1 node ids that must fail once the snippet is replaced.  The runner
copies src/, tests/, tools/, demos/, pyproject.toml and README.md to a
temporary directory and never writes the checkout.  There it first runs
every listed node id unmutated, each of which must pass; then, for each
mutant in turn, it writes the mutated file, runs the mutant's node ids in
a fresh pytest process and restores the file.

It prints one line per mutant: "killed" when every one of its node ids
fails, "SURVIVED" with each node id that passes, errors or does not run,
"STALE" when the snippet does not occur exactly once (a refactor
re-targets such an entry; it does not delete it), or "BAD" when the
mutated file does not compile, so that a broken import never reads as a
kill.  It exits 1 when a mutant is not killed, or a listed node id fails
or is missing unmutated, and 0 otherwise.  A mutant can make a loop run
away, so each pytest process gets TIMEOUT seconds and, where the
resource module exists, MEMORY bytes of address space; a run that times
out fails the mutant as "TIMEOUT", and a MemoryError fails its test.
Run from anywhere.
"""
import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

try:
    import resource
except ImportError:  # not on Windows
    resource = None

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "tools", "demos", "pyproject.toml", "README.md")
FIELDS = {"name", "file", "snippet", "replacement", "kills"}
# pytest -rA lists every outcome as "PASSED <node id>", "FAILED <node id>
# - <reason>" or "ERROR <node id> - <reason>".
_OUTCOME = re.compile(r"^(PASSED|FAILED|ERROR) (\S+)", re.M)
TIMEOUT, MEMORY = 120, 2 << 30


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def load(path: Path) -> list:
    entries = json.loads(path.read_text(encoding="utf-8"))
    names = [e.get("name") for e in entries]
    for e in entries:
        if set(e) != FIELDS or not e["file"].startswith("src/") or not e["kills"]:
            sys.exit(f"{path}: bad entry {e.get('name')!r}: want the fields "
                     f"{sorted(FIELDS)}, a file under src/ and a node id")
    if len(set(names)) != len(names):
        sys.exit(f"{path}: repeated mutant name")
    return entries


def outcomes(copy: Path, nodes) -> dict:
    """Node id -> PASSED, FAILED or ERROR, for one pytest run in copy, or
    None when the run times out.  A node id that did not run is missing."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(copy / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rA", "-p",
             "no:cacheprovider", *nodes], cwd=copy, env=env,
            capture_output=True, text=True, encoding="utf-8",
            timeout=TIMEOUT, preexec_fn=resource and _cap_memory)
    except subprocess.TimeoutExpired:
        return None
    return {node: outcome for outcome, node in _OUTCOME.findall(proc.stdout)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--list", type=Path, default=ROOT / "tools" / "mutants.json")
    entries = load(ap.parse_args(argv).list)

    bad = 0
    with tempfile.TemporaryDirectory(prefix="smforge-mutants-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".pytest_cache"))
            else:
                shutil.copy2(src, copy / name)
        nodes = sorted({n for e in entries for n in e["kills"]})
        before = outcomes(copy, nodes) or {}
        for node in nodes:
            if before.get(node) != "PASSED":
                print(f"unmutated: {node} {before.get(node, 'did not run')}")
                bad += 1
        if bad:
            return 1
        for e in entries:
            path = copy / e["file"]
            text = path.read_text(encoding="utf-8") if path.is_file() else ""
            if text.count(e["snippet"]) != 1:
                print(f"{e['name']}: STALE, its snippet occurs "
                      f"{text.count(e['snippet'])} times in {e['file']}")
                bad += 1
                continue
            mutated = text.replace(e["snippet"], e["replacement"])
            try:
                compile(mutated, e["file"], "exec")
            except SyntaxError as err:
                print(f"{e['name']}: BAD, the mutated file does not compile: "
                      f"{err.msg} at line {err.lineno}")
                bad += 1
                continue
            path.write_text(mutated, encoding="utf-8")
            try:
                after = outcomes(copy, e["kills"])
            finally:
                path.write_text(text, encoding="utf-8")
            if after is None:
                print(f"{e['name']}: TIMEOUT after {TIMEOUT} s")
                bad += 1
                continue
            alive = [f"{n} {after.get(n, 'did not run')}" for n in e["kills"]
                     if after.get(n) != "FAILED"]
            if alive:
                print(f"{e['name']}: SURVIVED, not failing: {', '.join(alive)}")
                bad += 1
            else:
                print(f"{e['name']}: killed")
    print(f"{len(entries)} mutants, {bad} failing")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
