"""Time and memory of the search layer's and the group layer's queries.

    python3 tools/probe.py [--max-nodes N] [--steps N]

It runs three queries of ROADMAP aim 1, each in its own fresh child
interpreter, and prints one JSON line for each, the layer first.

  search  builds the commutator encoder,
          presentation_to_machine(commutator_presentation()), and times
          accepts(m, x, 6, "bfs", max_nodes=N) (N = 100000 by default).
          The line gives max_nodes, status, explored, bytes_per_config
          (the growth of the child's peak resident set, ru_maxrss, over
          the search, divided by explored), configs_per_s and seconds.
  meet    times the meet-in-the-middle table of ROADMAP item 6,
          time_function(build_lr(["a", "b"]), 2, 12, "meet", max_nodes=N),
          whose 17 searches read one accept-side log.  The line gives
          max_nodes, explored (the sum over the table's searches),
          complete (whether every value is exact), seconds and
          peak_rss_mb (the child's peak resident set).
  group   runs toy_deleter from "y y" along del del^-1 repeated, then del
          del acc: N steps in all (N = 14003 by default, which makes
          105021 edges; N must be odd and at least 3).  It times
          computation_to_trapezium and then validate_trapezium on that
          computation, and builds the trapezium once more under
          tracemalloc for the memory it holds.  The line gives steps,
          edges, cells, build_ms, validate_ms and bytes_per_edge (the
          bytes tracemalloc counts as held by the second build, divided
          by edges).

Each child imports the package from src/ of this checkout.  Run from
anywhere; it reports only, sets no bound, and starts fresh children on
each run.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SEARCH = """
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

MEET = """
import json, resource, sys, time
import smforge.search as search
from smforge.primitive import build_lr

explored, meet_reach = 0, search.meet_reach


def counted(*args):
    global explored
    res = meet_reach(*args)
    explored += res.explored
    return res


search.meet_reach = counted  # time_function looks it up on each search
m = build_lr(["a", "b"])
t0 = time.perf_counter()
table = search.time_function(m, 2, 12, "meet", max_nodes=int(sys.argv[1]))
seconds = time.perf_counter() - t0
scale = 1 if sys.platform == "darwin" else 1024  # ru_maxrss in bytes or KiB
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale
print(json.dumps({"explored": explored,
                  "complete": all(table.complete.values()),
                  "seconds": round(seconds, 3),
                  "peak_rss_mb": round(peak / 2 ** 20, 1)}))
"""

GROUP = """
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


def probe(child: str, size: int) -> dict:
    """One run of a child program with its size argument, in a fresh
    interpreter, as the child's JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", child, str(size)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-nodes", type=int, default=100000)
    ap.add_argument("--steps", type=int, default=14003)
    args = ap.parse_args(argv)
    if args.steps < 3 or args.steps % 2 == 0:
        ap.error("--steps must be odd and at least 3")
    print(json.dumps({"layer": "search", "max_nodes": args.max_nodes,
                      **probe(SEARCH, args.max_nodes)}))
    print(json.dumps({"layer": "meet", "max_nodes": args.max_nodes,
                      **probe(MEET, args.max_nodes)}))
    print(json.dumps({"layer": "group", "steps": args.steps,
                      **probe(GROUP, args.steps)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
