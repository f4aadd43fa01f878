#!/usr/bin/env python3
"""The smforge benchmark: exact, reference-checked answers, timed end to end.

    python3 bench/run.py --workload sweep --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15

One client in one process runs a workload's fixed query set back to back
(closed loop), pass after pass, until the next pass would take the
measured time past --seconds and the plan's minimum of queries is done.
Other tenants of the host interfere with it, so every time is reported
without that interference: its measured duration divided by the
slowdown that probes run between queries show (see hostspeed.py).
wall_s is the median pass, query_p50_ms and query_p90_ms are taken over
every query of the run, and setup_s is the median of five set-ups.
The last line of output is one JSON object: correct, attempted, failed
and metrics.  With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 the run sets up under the tracer, makes
one untraced and one traced pass, checks that both give the same
answers, and reports the per-layer metrics.  The line before the last
is the provenance block.
"""
import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from math import ceil
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep", "decide", "diagram", "cli")
NPROC = len(os.sched_getaffinity(0))   # before the run pins itself
SETUPS = 5           # set-ups per run; setup_s uses their median
TIME_CAP = 150.0     # no pass starts that would end later than this
_IMPORT = ("import time; t = time.perf_counter(); import smforge, workloads; "
           "print(time.perf_counter() - t)")


def percentile(values, p):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, ceil(p / 100 * len(s)) - 1)]


def provenance(seed):
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    sha = dirty = None
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CONFIG_NOSYSTEM="1",
                   GIT_CONFIG_GLOBAL=os.devnull)
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  env=env, capture_output=True, text=True,
                                  timeout=30)
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
            if head.returncode == 0 and status.returncode == 0:
                sha, dirty = head.stdout.strip(), bool(status.stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(),
            "nproc": NPROC,
            "git_sha": sha, "git_dirty": dirty,
            "sympy": version("sympy"), "jsonschema": version("jsonschema"),
            "seed": seed}


class Tally:
    """Attempted and failed queries, with a few failure messages."""

    def __init__(self, plan):
        self.plan = plan
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, errors):
        self.attempted += len(self.plan.queries)
        self.failed += len(errors)
        for i, msg in sorted(errors.items())[:3 - len(self.messages)]:
            self.messages.append(f"query {i} ({self.plan.queries[i].kind}): {msg}")


def measure(plan, seconds, speed):
    """Passes until --seconds of query time and the plan's minimum of
    queries are reached: the (start, end) of every query of every pass,
    and the tally."""
    tally = Tally(plan)
    passes, first = [], None
    while True:
        spans, errors, digests = plan.run_pass(probe=speed.probe)
        speed.probe(force=True)
        passes.append(spans)
        if first is None:
            first = digests
        for i, (d0, d) in enumerate(zip(first, digests)):
            if d != d0:
                errors.setdefault(i, "answer differs from the first pass")
        tally.add(errors)
        walls = [sum(t1 - t0 for t0, t1 in p) for p in passes]
        spent, next_pass = sum(walls), statistics.median(walls)
        if spent + next_pass > TIME_CAP or (
                len(passes) * len(plan.queries) >= plan.min_queries
                and spent + next_pass > seconds):
            return passes, tally


def figures(passes, latency):
    """wall_s, query_p50_ms and query_p90_ms of the passes, each query
    timed by latency(start, end)."""
    lat = [[latency(t0, t1) for t0, t1 in p] for p in passes]
    every = [x for p in lat for x in p]
    return {"wall_s": statistics.median(sum(p) for p in lat),
            "query_p50_ms": statistics.median(every) * 1000,
            "query_p90_ms": percentile(every, 90) * 1000}


def import_time(speed):
    """Seconds a fresh interpreter takes to import smforge and the
    workloads, as that interpreter measures them, without the host's
    interference over the child's life."""
    speed.probe(force=True)
    t0 = time.perf_counter()
    took = float(subprocess.run(
        [sys.executable, "-c", _IMPORT], check=True, capture_output=True,
        text=True, timeout=120, env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            (str(SRC), str(BENCH))))).stdout)
    t1 = time.perf_counter()
    speed.probe(force=True)
    return took / speed.slowdown(t0, t1)


def timed_run(args, workloads):
    build = workloads.WORKLOADS[args.workload]
    speed = hostspeed.HostSpeed()
    setups = []
    for _ in range(SETUPS):
        import_s = import_time(speed)
        t0 = time.perf_counter()
        plan = build(args.seed, args.workdir)
        t1 = time.perf_counter()
        speed.probe(force=True)
        setups.append(import_s + speed.normalize(t0, t1))
    setup_s = statistics.median(setups)
    passes, tally = measure(plan, args.seconds, speed)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    # Every time is without the host's interference (see hostspeed.py).
    values = {**figures(passes, speed.normalize),
              "setup_s": setup_s,
              "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024}
    measured = figures(passes, lambda t0, t1: t1 - t0)
    slow = [t / hostspeed.REFERENCE_S for t in speed.took]
    notes = [f"{len(passes)} passes of {len(plan.queries)} queries",
             "as measured: " + ", ".join(f"{k} {v:.4g}"
                                         for k, v in measured.items()),
             f"host slowdown: median {statistics.median(slow):.3g}, range "
             f"{min(slow):.3g}-{max(slow):.3g} over {len(slow)} probes"]
    return values, tally, notes


def traced_run(args, workloads):
    from tracing import Tracer, layer_metrics

    build = workloads.WORKLOADS[args.workload]
    setup = Tracer()
    setup.install()
    try:
        plan = build(args.seed, args.workdir)
    finally:
        setup.uninstall()
    tally = Tally(plan)
    spans, errors, untraced = plan.run_pass()
    wall_u = sum(t1 - t0 for t0, t1 in spans)
    tally.add(errors)
    tracer = Tracer()
    tracer.install()
    try:
        spans, errors, traced = plan.run_pass(tracer)
    finally:
        tracer.uninstall()
    wall_t = sum(t1 - t0 for t0, t1 in spans)
    for i, (d0, d) in enumerate(zip(untraced, traced)):
        if d != d0:
            errors.setdefault(i, "traced answer differs from the untraced one")
    tally.add(errors)
    probes = plan.probes()
    values = layer_metrics(tracer, setup, wall_t - wall_u,
                           probes.get("import_s", 0.0),
                           probes.get("import_sympy_s", 0.0))
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    spans = out / f"trace-{args.workload}-seed{args.seed}.json"
    spans.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "provenance": provenance(args.seed), "metrics": values,
        "untraced_wall_s": wall_u, "traced_wall_s": wall_t,
        "setup": setup.snapshot(), "pass": tracer.snapshot()}, indent=1))
    notes = [f"untraced pass {wall_u:.3f} s, traced pass {wall_t:.3f} s; "
             f"spans in {spans.relative_to(ROOT)}"]
    return values, tally, notes


def run_one(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Byte-compile once, untimed, as an installed package would be: the
    # environment may forbid Python to write its own bytecode caches, and
    # then every import (and every cli child) would compile the sources.
    compileall.compile_dir(SRC / "smforge", quiet=1)
    sys.path.insert(0, str(SRC))
    # One CPU for the run and its children, so that the probes measure
    # the CPU every query runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import smforge
    import workloads
    if Path(smforge.__file__).resolve().parent != SRC / "smforge":
        raise SystemExit(f"smforge imported from {smforge.__file__}, "
                         f"not from {SRC}")

    args.workdir = BENCH / f".work-{args.workload}-{os.getpid()}"
    try:
        run = traced_run if args.trace else timed_run
        values, tally, notes = run(args, workloads)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    missing = [m["name"] for m in spec[kind] if m["name"] not in values]
    if missing:
        raise SystemExit(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[kind]}
    error_rate = tally.failed / tally.attempted
    for name, m in metrics.items():
        print(f"{args.workload:8s} {name:42s} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:8s} {'error_rate':42s} {error_rate:.6g} ratio "
          f"({tally.failed} of {tally.attempted} queries)")
    for note in notes:
        print(f"{args.workload:8s} {note}")
    for msg in tally.messages:
        print(f"{args.workload:8s} FAILED {msg}", file=sys.stderr)
    prov = provenance(args.seed)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    if args.record:
        with open(args.record, "a", encoding="utf-8") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "seconds": args.seconds, "trace": args.trace,
                                "provenance": prov, **result}) + "\n")
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, so that set-up time and peak
    memory are its own."""
    results = {}
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.record:
            cmd += ["--record", args.record]
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        if p.returncode != 0:
            return p.returncode
        lines = p.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[w] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()}}))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="measured time per run (whole passes)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", metavar="FILE",
                    help="also append the result, with provenance, to FILE")
    args = ap.parse_args(argv)
    if not (SRC / "smforge" / "__init__.py").is_file():
        print(f"error: no smforge sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
