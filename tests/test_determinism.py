"""The pinned digests do not depend on the process that computes them.

Fresh interpreters run the behaviour digest and test_bytes_are_pinned:
under PYTHONHASHSEED 0 and random, after interning every atom those pins
use in a seeded shuffled order, and under python -O.  Each run prints
both digests and the names of the atoms it interned.  Without -O the
pinned tests' own asserts hold the digests; under -O the asserts vanish,
so every run must print what the first one printed.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# argv[1:] are atom names to intern first, in a seeded shuffled order.
PROBE = r"""
import hashlib, random, sys, tempfile
from pathlib import Path
from types import SimpleNamespace
from smforge import words

names = sys.argv[1:]
random.Random(22).shuffle(names)
for name in names:
    words.atom(name)

import test_behaviour, test_group

made = []


def sha256():
    made.append(hashlib.sha256())
    return made[-1]


test_behaviour.hashlib = test_group.hashlib = SimpleNamespace(sha256=sha256)
with tempfile.TemporaryDirectory() as tmp:
    test_behaviour.test_behaviour_digest_is_pinned(Path(tmp))
test_group.TestTrapeziumExport().test_bytes_are_pinned()
for h in made:
    print(h.hexdigest())
print(*sorted(words._REGISTRY))
"""


def _probe(tmp_path, *options, seed="0", names=()):
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                           str(ROOT / "tests")]))
    proc = subprocess.Popen([sys.executable, *options, "-c", PROBE, *names],
                            cwd=tmp_path, env=env, text=True,
                            encoding="utf-8",
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    return proc, f"{options} PYTHONHASHSEED={seed}, {len(names)} atoms first"


def _output(probe):
    proc, label = probe
    out, err = proc.communicate(timeout=60)
    if proc.returncode != 0:
        raise AssertionError(f"{label}: exit {proc.returncode}\n{err}")
    return out


def test_digests_are_the_same_in_every_process(tmp_path):
    plain = _output(_probe(tmp_path))
    *digests, names = plain.splitlines()
    assert len(digests) == 2
    assert len(names.split()) >= 200
    others = [_probe(tmp_path, seed="random"),
              _probe(tmp_path, names=names.split()),
              _probe(tmp_path, "-O")]
    for probe in others:
        assert _output(probe) == plain, probe[1]
