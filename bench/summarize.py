#!/usr/bin/env python3
"""Medians and quartiles of recorded benchmark runs.

    python3 bench/summarize.py RUNS.jsonl [OTHER.jsonl] [--out SUMMARY.json]

RUNS.jsonl holds results appended by ``run.py --record``.  For each
workload and metric the summary gives the median, the quartiles (as
``statistics.quantiles(values, n=4)`` computes them), the spread
(q3 - q1) / median and the number of runs.  Given a second file, it
also gives the change of each median against the first file's median,
and flags an end-to-end metric that got worse by more than its bound in
BENCHMARK.json, or whose spread exceeds its bound.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(path):
    runs = [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]
    out = {}
    for r in runs:
        key = f"{r['workload']}{'.trace' if r['trace'] else ''}"
        w = out.setdefault(key, {"runs": 0, "failed": 0, "seeds": [],
                                 "provenance": r["provenance"], "metrics": {}})
        w["runs"] += 1
        w["failed"] += r["failed"]
        w["seeds"].append(r["seed"])
        for name, m in r["metrics"].items():
            w["metrics"].setdefault(name, {"unit": m["unit"], "values": []})[
                "values"].append(m["value"])
    for w in out.values():
        for m in w["metrics"].values():
            v = m.pop("values")
            q1, med, q3 = (statistics.quantiles(v, n=4) if len(v) > 1
                           else (v[0],) * 3)
            m.update(median=med, q1=q1, q3=q3, n=len(v),
                     spread=(q3 - q1) / med if med else 0.0)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("runs")
    ap.add_argument("other", nargs="?")
    ap.add_argument("--out", help="write the first file's summary here")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base = summarize(args.runs)
    other = summarize(args.other) if args.other else {}
    worse = 0
    for key, w in base.items():
        print(f"{key}: {w['runs']} runs, {w['failed']} failed queries")
        for name, m in w["metrics"].items():
            line = (f"  {name:42s} median {m['median']:.6g} {m['unit']}  "
                    f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  "
                    f"spread {m['spread']:.3f}")
            b = bounds.get(name) if not key.endswith(".trace") else None
            if b and name != "setup_s" and m["spread"] > b["bound"]:
                line += f"  SPREAD ABOVE BOUND {b['bound']}"
                worse += 1
            o = other.get(key, {}).get("metrics", {}).get(name)
            if o and m["median"]:
                change = o["median"] / m["median"] - 1
                if b and b["better"] == "higher":
                    change = -change
                line += f"  second median {o['median']:.6g} ({change:+.3f})"
                if b and change > b["bound"]:
                    line += f"  WORSE THAN BOUND {b['bound']}"
                    worse += 1
            print(line)
    if args.out:
        Path(args.out).write_text(json.dumps(base, indent=1) + "\n")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
