"""Per-layer tracing of smforge, installed from outside the package.

``Tracer.install`` wraps the public functions of each module (and the
class attributes ``Machine.apply_ex``, ``AdmissibleWord.__init__`` and
``Word.__init__``) and rebinds every ``smforge`` module global that
still names an original, because modules import functions by name (for
example ``free_reduce`` into ``machine``, ``encode`` and ``group``).
``uninstall`` puts every original back.

A span records calls, total time and self time (its duration minus the
time its child spans cover).  Spans are aggregated in memory per name
and per (parent, name) edge; ``snapshot`` hands them over to be written
out when the run ends.
"""
from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager
from time import perf_counter

MODULES = ("words", "machine", "search", "encode", "group", "serialize",
           "primitive", "enhance", "cli")

# Spans whose result carries a work count: span name -> (counter, getter).
_WORK = {
    "search.bfs_reach": ("search.bfs_reach.explored", lambda r: r.explored),
    "search.meet_reach": ("search.meet_reach.explored", lambda r: r.explored),
    "encode.area_oracle": ("encode.area_oracle.insertions", lambda r: r.explored),
    "group.computation_to_trapezium": ("group.cells", lambda t: t.n_cells()),
    "serialize.trapezium_dumps": ("serialize.trapezium_dumps.bytes",
                                  lambda s: len(s.encode())),
}

# Module-level functions traced as spans: (module, attribute, span name).
_FUNCTIONS = (
    ("words", "free_reduce", "words.free_reduce"),
    ("search", "bfs_reach", "search.bfs_reach"),
    ("search", "meet_reach", "search.meet_reach"),
    ("search", "time_function", "search.time_function"),
    ("encode", "area_oracle", "encode.area_oracle"),
    ("encode", "abelianized_trivial", "encode.abelianized_trivial"),
    ("encode", "emulation_history", "encode.emulation_history"),
    ("encode", "presentation_to_machine", "encode.presentation_to_machine"),
    ("group", "computation_to_trapezium", "group.computation_to_trapezium"),
    ("group", "validate_trapezium", "group.validate_trapezium"),
    ("group", "trapezium_to_computation", "group.trapezium_to_computation"),
    ("group", "conjugator_from_accepting", "group.conjugator_from_accepting"),
    ("group", "machine_to_group", "group.machine_to_group"),
    ("group", "trapezium_dumps", "serialize.trapezium_dumps"),
    ("serialize", "load_machine", "serialize.load_machine"),
    ("primitive", "build_lr", "primitive.build_lr"),
    ("enhance", "build_enhanced_standard", "enhance.build_enhanced_standard"),
)

SETUP_SPANS = ("primitive.build_lr", "enhance.build_enhanced_standard",
               "encode.presentation_to_machine")

CLI_SUBCOMMANDS = ("tm", "trapezium", "present", "encode")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.edges: dict[tuple, list] = {}  # (parent, name) -> [calls, total_s]
        self.queries: list[tuple] = []      # (query id, kind, start, end)
        self.visited_peak = 0
        self.on = True                      # False while paused
        self._stack: list[list] = []        # [name, child time] frames
        self._undo: list[tuple] = []

    @contextmanager
    def paused(self):
        """Calls made meanwhile, such as the checker's, are not traced."""
        self.on = False
        try:
            yield
        finally:
            self.on = True

    # -- spans ---------------------------------------------------------------

    def _close(self, frame, dt):
        stack = self._stack
        stack.pop()
        s = self.stats.get(frame[0])
        if s is None:
            s = self.stats[frame[0]] = [0, 0.0, 0.0]
        s[0] += 1
        s[1] += dt
        s[2] += dt - frame[1]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += dt
        key = (parent[0] if parent is not None else None, frame[0])
        e = self.edges.get(key)
        if e is None:
            self.edges[key] = [1, dt]
        else:
            e[0] += 1
            e[1] += dt

    def call(self, name, fn, *args, **kwargs):
        """Run fn as one span named name."""
        if not self.on:
            return fn(*args, **kwargs)
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(frame, perf_counter() - t0)

    def query(self, qid, kind, fn):
        """Run one benchmark query as a top-level span."""
        start = perf_counter()
        try:
            return self.call("query." + kind, fn)
        finally:
            self.queries.append((qid, kind, start, perf_counter()))

    def _count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def _span(self, name, fn):
        work = _WORK.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            result = tracer.call(name, fn, *args, **kwargs)
            if work is not None:
                n = work[1](result)
                tracer._count(work[0], n)
                if name in ("search.bfs_reach", "search.meet_reach"):
                    tracer.visited_peak = max(tracer.visited_peak, n)
            return result
        return wrapper

    def _counted(self, name, fn):
        tracer, counts = self, self.counts

        def wrapper(*args, **kwargs):
            if tracer.on:
                counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _apply_ex(self, fn):
        tracer = self

        def apply_ex(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            out = tracer.call("machine.apply_ex", fn, *args, **kwargs)
            if out.ok:
                tracer._count("machine.apply_ex.ok")
            elif out.reason.startswith("state letter"):
                tracer._count("machine.apply_ex.fail_state")
            elif "outside the domain" in out.reason:
                tracer._count("machine.apply_ex.fail_domain")
            else:
                tracer._count("machine.apply_ex.fail_other")
            return out
        return apply_ex

    def _generator(self, name, fn):
        """A generator function traced per step: the span covers each
        next() on the generator, not the consumer's loop body."""
        tracer = self
        counter = name + ".yielded"

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            if not tracer.on:
                yield from it
                return
            while True:
                frame = [name, 0.0]
                tracer._stack.append(frame)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(frame, perf_counter() - t0)
                tracer._count(counter)
                yield item
        return wrapper

    # -- installation --------------------------------------------------------

    def _rebind(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname != "smforge" and not modname.startswith("smforge."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch(self, cls, attr, wrapper):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = {n: importlib.import_module("smforge." + n) for n in MODULES}
        for modname, attr, name in _FUNCTIONS:
            fn = getattr(mods[modname], attr)
            self._rebind(fn, self._span(name, fn))
        search = mods["search"]
        self._rebind(search.reduced_computations,
                     self._generator("search.reduced_computations",
                                     search.reduced_computations))
        machine = mods["machine"]
        self._rebind(machine.invert_rule,
                     self._counted("machine.invert_rule",
                                   machine.invert_rule))
        self._patch(machine.Machine, "apply_ex",
                    self._apply_ex(machine.Machine.apply_ex))
        aw_init = machine.AdmissibleWord.__init__
        self._patch(machine.AdmissibleWord, "__init__",
                    lambda *a, **k: self.call("machine.AdmissibleWord",
                                              aw_init, *a, **k))
        word = mods["words"].Word
        self._patch(word, "__init__",
                    self._counted("words.Word", word.__init__))

    def uninstall(self):
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    # -- results -------------------------------------------------------------

    def merge(self, doc):
        """Add the aggregates of another tracer's ``snapshot``."""
        for name, (calls, total, own) in doc["stats"].items():
            s = self.stats.setdefault(name, [0, 0.0, 0.0])
            s[0] += calls
            s[1] += total
            s[2] += own
        for name, n in doc["counts"].items():
            self._count(name, n)
        for parent, name, calls, total in doc["edges"]:
            e = self.edges.setdefault((parent, name), [0, 0.0])
            e[0] += calls
            e[1] += total
        self.visited_peak = max(self.visited_peak, doc["visited_peak"])

    def snapshot(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
            "edges": [[p, n, c, t] for (p, n), (c, t) in
                      sorted(self.edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))],
            "visited_peak": self.visited_peak,
            "queries": [list(q) for q in self.queries],
        }


def _rate(n, seconds):
    return n / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer, setup: Tracer, overhead_s: float,
                  import_s: float = 0.0, import_sympy_s: float = 0.0) -> dict:
    """Every per-layer metric, by name, as plain numbers.  A layer the
    workload does not exercise reads 0."""
    st, cnt = tracer.stats, tracer.counts

    def calls(name):
        return st.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return st.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return st.get(name, (0, 0.0, 0.0))[2]

    def c(name):
        return cnt.get(name, 0)

    ok = c("machine.apply_ex.ok")
    out = {
        "words.free_reduce.calls": calls("words.free_reduce"),
        "words.free_reduce.self_s": own("words.free_reduce"),
        "words.Word.calls": c("words.Word"),
        "machine.apply_ex.calls": calls("machine.apply_ex"),
        "machine.apply_ex.ok": ok,
        "machine.apply_ex.fail_state": c("machine.apply_ex.fail_state"),
        "machine.apply_ex.fail_domain": c("machine.apply_ex.fail_domain"),
        "machine.apply_ex.self_s": own("machine.apply_ex"),
        "machine.apply_ex.success_ratio": _rate(ok, calls("machine.apply_ex")),
        "machine.AdmissibleWord.calls": calls("machine.AdmissibleWord"),
        "machine.AdmissibleWord.self_s": own("machine.AdmissibleWord"),
        "machine.invert_rule.calls": c("machine.invert_rule"),
        "search.reduced_computations.yielded":
            c("search.reduced_computations.yielded"),
        "search.reduced_computations.self_s":
            own("search.reduced_computations"),
        "search.reduced_computations.per_s":
            _rate(c("search.reduced_computations.yielded"),
                  total("search.reduced_computations")),
    }
    for s in ("bfs_reach", "meet_reach"):
        explored = c(f"search.{s}.explored")
        out[f"search.{s}.explored"] = explored
        out[f"search.{s}.self_s"] = own(f"search.{s}")
        out[f"search.{s}.configs_per_s"] = _rate(explored, total(f"search.{s}"))
    out["search.visited_peak"] = tracer.visited_peak
    out["search.time_function.self_s"] = own("search.time_function")
    ins = c("encode.area_oracle.insertions")
    out.update({
        "encode.area_oracle.insertions": ins,
        "encode.area_oracle.self_s": own("encode.area_oracle"),
        "encode.area_oracle.insertions_per_s":
            _rate(ins, total("encode.area_oracle")),
        "encode.abelianized_trivial.calls": calls("encode.abelianized_trivial"),
        "encode.abelianized_trivial.self_s": own("encode.abelianized_trivial"),
        "encode.emulation_history.self_s": own("encode.emulation_history"),
    })
    for g in ("computation_to_trapezium", "validate_trapezium",
              "trapezium_to_computation", "conjugator_from_accepting"):
        out[f"group.{g}.self_s"] = own(f"group.{g}")
    out.update({
        "group.machine_to_group.calls": calls("group.machine_to_group"),
        "group.machine_to_group.self_s": own("group.machine_to_group"),
        "group.cells": c("group.cells"),
        "group.cells_per_s": _rate(c("group.cells"),
                                   total("group.computation_to_trapezium")),
        "serialize.trapezium_dumps.self_s": own("serialize.trapezium_dumps"),
        "serialize.trapezium_dumps.bytes": c("serialize.trapezium_dumps.bytes"),
        "serialize.load_machine.calls": calls("serialize.load_machine"),
        "serialize.load_machine.self_s": own("serialize.load_machine"),
    })
    for name in SETUP_SPANS:
        out[name + ".self_s"] = setup.stats.get(name, (0, 0.0, 0.0))[2]
    out["cli.import_s"] = import_s
    out["cli.import_sympy_s"] = import_sympy_s
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.main.{sub}.self_s"] = own(f"cli.main.{sub}")
    out["trace.overhead_s"] = overhead_s
    return out
