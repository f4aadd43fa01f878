"""Tests of the benchmark itself: its references, its checker, its tracer
and its output.  Run with ``python -m pytest bench/tests -q``."""
import importlib
import json
import re
from pathlib import Path

import pytest

import hostspeed
import reference as ref
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_reference_matches_frozen_counts():
    text = (ROOT / "tests" / "test_acceptance.py").read_text()
    frozen = [int(n) for n in re.findall(r"assert seen == (\d+)", text)]
    assert frozen == [ref.FROZEN["sweep.standard"], ref.FROZEN["sweep.paired"],
                      ref.FROZEN["sweep.mirror"]]
    assert "assert (seen, checked) == {}".format(ref.FROZEN["sweep.lr_y"]) in text
    assert ("assert len(mp.generators) == {}".format(
        ref.FROZEN["cli.present.lr_y.generators"]) in text)


def test_every_workload_has_sources():
    assert set(ref.SOURCES) == set(workloads.WORKLOADS) == set(run.WORKLOADS)
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)


def test_per_layer_names_match_the_tracer_and_readme():
    names = [m["name"] for m in SPEC["per_layer"]]
    empty = tracing.Tracer()
    assert sorted(names) == sorted(tracing.layer_metrics(empty, empty, 0.0))
    readme = (ROOT / "bench" / "README.md").read_text()
    assert [n for n in names if f"`{n}`" not in readme] == []


def test_tracer_rebinds_and_restores():
    mods = {n: importlib.import_module("smforge." + n) for n in tracing.MODULES}
    original = mods["words"].free_reduce
    holders = [n for n, m in mods.items() if getattr(m, "free_reduce", None)
               is original]
    assert {"machine", "encode", "group"} <= set(holders)
    apply_ex = mods["machine"].Machine.apply_ex
    t = tracing.Tracer()
    t.install()
    try:
        for n in holders:
            assert mods[n].free_reduce is not original
        assert mods["machine"].Machine.apply_ex is not apply_ex
        m = workloads.fixtures.toy_deleter()
        workloads.search.accepts(m, workloads._power(workloads.atom("y"), 2), 4)
    finally:
        t.uninstall()
    for n in holders:
        assert mods[n].free_reduce is original
    assert mods["machine"].Machine.apply_ex is apply_ex
    metrics = tracing.layer_metrics(t, t, 0.0)
    assert metrics["search.bfs_reach.explored"] > 0
    before = (dict(t.counts), {k: list(v) for k, v in t.stats.items()})
    t.install()
    try:
        with t.paused():
            workloads.search.accepts(m, workloads._power(workloads.atom("y"), 2), 4)
    finally:
        t.uninstall()
    assert (t.counts, t.stats) == before
    assert metrics["machine.apply_ex.calls"] == (
        metrics["machine.apply_ex.ok"] + metrics["machine.apply_ex.fail_state"]
        + metrics["machine.apply_ex.fail_domain"])
    assert metrics["words.free_reduce.calls"] > 0


def test_slowdown_is_the_mean_probe_near_an_interval():
    h = hostspeed.HostSpeed()
    r = hostspeed.REFERENCE_S
    h.at = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 5.0, 5.1, 5.2]
    h.took = [x * r for x in (1, 1, 2, 2, 3, 3, 10, 10, 10)]
    assert h.slowdown(0.1, 0.15) == pytest.approx(2.0)
    assert h.normalize(0.1, 0.15) == pytest.approx(0.025)
    # Too few probes within WINDOW_S: the nearest round on each side.
    assert h.slowdown(2.5, 2.6) == pytest.approx((2 + 3 + 3 + 30) / 6)


def _first_of_each_kind(build):
    def reduced(seed, workdir):
        plan = build(seed, workdir)
        seen, keep = set(), []
        for q in plan.queries:
            if q.kind not in seen:
                seen.add(q.kind)
                keep.append(q)
        plan.queries = keep
        return plan
    return reduced


def _run(monkeypatch, capsys, workload, trace, reduce=True):
    build = workloads.WORKLOADS[workload]
    if reduce:
        build = _first_of_each_kind(build)

    def small(seed, workdir):
        plan = build(seed, workdir)
        plan.min_queries = 1
        return plan
    monkeypatch.setitem(workloads.WORKLOADS, workload, small)
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["decide", "diagram", "cli"])
def test_smoke_reduced(monkeypatch, capsys, workload):
    lines, result = _run(monkeypatch, capsys, workload, 0)
    assert result["correct"] and result["failed"] == 0
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert list(result["metrics"]) == names
    text = "\n".join(lines)
    for m in SPEC["end_to_end"]:
        assert re.search(rf"{m['name']}\s+\S+ {re.escape(m['unit'])}$", text,
                         re.M)
    assert re.search(r"error_rate\s+0 ratio", text)
    assert "provenance" in json.loads(lines[-2])


def test_smoke_sweep_full_pass(monkeypatch, capsys):
    _, result = _run(monkeypatch, capsys, "sweep", 0, reduce=False)
    assert result["correct"] and result["attempted"] == 442


@pytest.mark.parametrize("workload", ["decide", "diagram", "cli"])
def test_traced_run_reports_every_layer(monkeypatch, capsys, workload):
    lines, result = _run(monkeypatch, capsys, workload, 1)
    assert result["correct"], "traced answers differ or are wrong"
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "cli":
        assert values["cli.import_s"] > 0 and values["serialize.load_machine.calls"] > 0
        assert values["cli.main.tm.self_s"] > 0
    elif workload == "decide":
        assert values["search.bfs_reach.explored"] > 0
        assert values["encode.presentation_to_machine.self_s"] > 0
    else:
        assert values["group.cells"] > 0 and values["serialize.trapezium_dumps.bytes"] > 0


def test_wrong_frozen_count_is_caught(monkeypatch):
    plan = workloads.sweep(0, None)
    paired = {i for i, q in enumerate(plan.queries) if q.kind == "paired"}
    digests = [q.digest(q.run()) if i in paired else None
               for i, q in enumerate(plan.queries)]
    flagged = {i for idx, _ in plan.totals(plan.queries, digests) for i in idx}
    assert not flagged
    monkeypatch.setitem(ref.FROZEN, "sweep.paired", ref.FROZEN["sweep.paired"] + 1)
    flagged = {i for idx, _ in plan.totals(plan.queries, digests) for i in idx}
    assert flagged == paired


def test_wrong_theory_is_caught(monkeypatch, capsys):
    monkeypatch.setattr(ref, "z2_trivial", lambda w: not ref.exponent_sums(
        w, ("x",))[0] % 2 == 0)
    _, result = _run(monkeypatch, capsys, "decide", 0)
    assert not result["correct"] and result["failed"] > 0


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "sweep"]) != 0
