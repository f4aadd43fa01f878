"""Build and validation time and memory of one long trapezium.

    python3 tools/trapezium_probe.py [--steps N]

It starts a fresh child interpreter that runs toy_deleter from "y y"
along del del^-1 repeated, then del del acc: N steps in all (N = 14003
by default, which makes 105021 edges; N must be odd and at least 3).  The
child times computation_to_trapezium and then validate_trapezium on that
computation, the group layer's numbers of ROADMAP aim 1, and builds the
trapezium once more under tracemalloc for the memory it holds.  Its one
JSON line gives edges, cells, build_ms, validate_ms and bytes_per_edge
(the bytes tracemalloc counts as held by the second build, divided by
edges).  The child imports the package from src/ of this checkout.  Run
from anywhere; it reports only, and sets no bound.  To repeat it, run it
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
import gc, json, sys, time, tracemalloc
from smforge.fixtures import toy_deleter
from smforge.group import computation_to_trapezium, validate_trapezium
from smforge.machine import input_configuration, run
from smforge.words import Word

m = toy_deleter()
history = ["del", "del^-1"] * ((int(sys.argv[1]) - 3) // 2) + ["del", "del", "acc"]
comp = run(m, input_configuration(m, Word.from_tokens("y y")), history)
gc.collect()
t0 = time.perf_counter()
trap = computation_to_trapezium(m, comp)
t1 = time.perf_counter()
validate_trapezium(trap)
t2 = time.perf_counter()
edges, cells = len(trap.edges), trap.n_cells()
del trap
gc.collect()
tracemalloc.start()
trap = computation_to_trapezium(m, comp)
held = tracemalloc.get_traced_memory()[0]
tracemalloc.stop()
print(json.dumps({"edges": edges, "cells": cells,
                  "build_ms": round(1000 * (t1 - t0), 1),
                  "validate_ms": round(1000 * (t2 - t1), 1),
                  "bytes_per_edge": round(held / edges, 1)}))
"""


def probe(steps: int) -> dict:
    """One run of the build and the validation in a fresh child, as the
    child's JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", CHILD, str(steps)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=14003)
    args = ap.parse_args(argv)
    if args.steps < 3 or args.steps % 2 == 0:
        ap.error("--steps must be odd and at least 3")
    print(json.dumps({"steps": args.steps, **probe(args.steps)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
