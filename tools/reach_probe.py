"""Peak memory and speed of one large breadth-first search.

    python3 tools/reach_probe.py [--max-nodes N]

It starts a fresh child interpreter that builds the commutator encoder,
presentation_to_machine(commutator_presentation()), and then times
accepts(m, x, 6, "bfs", max_nodes=N) (N = 100000 by default), the search
layer's query of ROADMAP aim 1.  Its one JSON line gives explored,
bytes_per_config (the growth of the child's peak resident set,
ru_maxrss, over the search, divided by explored) and configs_per_s.  The
child imports the package from src/ of this checkout.  Run from
anywhere; it reports only, and sets no bound.  To repeat it, run it
again: each run is a fresh child.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import gc, json, resource, sys, time
from smforge.encode import presentation_to_machine
from smforge.fixtures import commutator_presentation
from smforge.search import accepts
from smforge.words import Word

m = presentation_to_machine(commutator_presentation())
x = Word.from_tokens("x")
gc.collect()
scale = 1 if sys.platform == "darwin" else 1024  # ru_maxrss in bytes or KiB
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale
t0 = time.perf_counter()
res = accepts(m, x, 6, "bfs", max_nodes=int(sys.argv[1]))
seconds = time.perf_counter() - t0
grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale - before
print(json.dumps({"status": res.status, "explored": res.explored,
                  "bytes_per_config": round(grown / res.explored, 1),
                  "configs_per_s": round(res.explored / seconds),
                  "seconds": round(seconds, 3)}))
"""


def probe(max_nodes: int) -> dict:
    """One run of the query in a fresh child, as the child's JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", CHILD, str(max_nodes)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-nodes", type=int, default=100000)
    args = ap.parse_args(argv)
    print(json.dumps({"max_nodes": args.max_nodes, **probe(args.max_nodes)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
