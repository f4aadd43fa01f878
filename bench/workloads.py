"""The four benchmark workloads.

Each workload builds a ``Plan``: a fixed list of queries made from the
seed, plus a checker.  A query's ``run`` is what gets timed and holds
only library calls (or one child process, for ``cli``); its ``check``
compares the answer with the reference in ``reference.py`` and runs
outside the timed region.  ``digest`` reduces an answer to plain data,
so that passes, and traced and untraced runs, can be compared.

Traced functions are always reached through their module (``search.
bfs_reach``, never a name imported from it), so that the tracer's
wrappers see every call.

Input sizes are fixed per pass, so every seed costs about the same; the
seed picks letters, signs and walks.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import reference as ref
from smforge import (encode, enhance, fixtures, group, machine, primitive,
                     search, serialize)
from smforge.words import EMPTY, Word, atom, atoms, free_reduce, reduced_words

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


@dataclass
class Query:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    digest: Callable[[object], object] = lambda a: a
    traced: Optional[Callable] = None   # tracer -> answer, when run differs


@dataclass
class Plan:
    queries: list[Query]
    # Aggregate references over one pass:
    # (queries, digests) -> [(indices, message)].
    totals: Callable[[list, list], list] = lambda queries, digests: []
    # Per-layer numbers measured outside the query loop, after a traced pass.
    probes: Callable[[], dict] = lambda: {}
    # Fewest queries a timed run makes, and the fewest samples a p90 is
    # taken over: 100 leaves ten samples beyond p90.
    min_queries: int = 100

    def __post_init__(self):
        # Spread each kind of query evenly over the pass, so that a
        # percentile samples the host over the whole pass, not over the
        # moment one block of equal queries ran.
        total = Counter(q.kind for q in self.queries)
        seen = Counter()
        keyed = []
        for pos, q in enumerate(self.queries):
            keyed.append(((seen[q.kind] + 0.5) / total[q.kind], pos, q))
            seen[q.kind] += 1
        self.queries = [q for _, _, q in sorted(keyed, key=lambda k: k[:2])]

    def run_pass(self, tracer=None, probe=None) -> tuple[list, dict, list]:
        """Run every query once, traced when a tracer is given, calling
        probe (untimed) before each query.  Each answer is checked as
        soon as it arrives, outside the timed region, so that only one
        answer is alive at a time.  Returns the (start, end) of every
        query, the errors by query index, and the digests (None for a
        query that raised)."""
        spans, errors, digests = [], {}, []
        for i, q in enumerate(self.queries):
            if probe is not None:
                probe()
            t0 = perf_counter()
            try:
                if tracer is None:
                    a = q.run()
                elif q.traced is not None:
                    a = q.traced(tracer)
                else:
                    a = tracer.query(i, q.kind, q.run)
            except Exception as e:  # a query that raises is a failed query
                spans.append((t0, perf_counter()))
                errors[i] = f"raised {e!r}"
                digests.append(None)
                continue
            spans.append((t0, perf_counter()))
            try:
                with tracer.paused() if tracer else nullcontext():
                    msg = q.check(a)
                    digests.append(q.digest(a))
            except Exception as e:  # a checker crash is a wrong answer
                msg = f"check raised {e!r}"
                digests.append(None)
            if msg:
                errors[i] = msg
        for idx, msg in self.totals(self.queries, digests):
            for i in idx:
                errors.setdefault(i, msg)
        return spans, errors, digests


def _power(a, k: int) -> Word:
    return Word([(a, 1 if k >= 0 else -1)] * abs(k))


def _random_reduced(rng, alphabet, n: int) -> Word:
    letters = []
    while len(letters) < n:
        a, s = rng.choice(alphabet), rng.choice((1, -1))
        if letters and letters[-1] == (a, -s):
            continue
        letters.append((a, s))
    return Word(letters)


def _replays(m, start, history, end) -> Optional[str]:
    comp = machine.run(m, start, history, strict=False)
    if not comp.ok:
        return f"history fails at step {comp.failed_at}: {comp.reason}"
    if comp.end != end:
        return "history does not reach the expected configuration"
    return None


# -- sweep -------------------------------------------------------------------

def _a_len(c) -> int:
    return sum(len(t) for t in c.tapes)


def _count(m, start, depth, prune=None, skip_empty=False) -> int:
    n = 0
    for steps, _ in search.reduced_computations(m, start, depth, prune=prune):
        if steps or not skip_empty:
            n += 1
    return n


def _lr_sweep(m, start, depth, prune):
    """test_02: every computation, and (t, |W_t|_a) where |W_t|_a <= 3."""
    seen, ends = 0, []
    for steps, end in search.reduced_computations(m, start, depth, prune=prune):
        seen += 1
        n = _a_len(end)
        if n <= 3:
            ends.append((len(steps), n))
    return seen, ends


def sweep(seed: int, workdir: Path) -> Plan:
    """Exhaustive: the seed is ignored."""
    queries = []

    # test_02: LR({y}), standard base, histories <= 9, a-lengths <= 3.
    lr = primitive.build_lr(["y"])
    y1, y2 = atom("y#1"), atom("y#2")
    d_lr = 9

    def prune_lr(c, depth):
        return _a_len(c) - 2 * (d_lr - depth) > 3

    for states in itertools.product(*[p.letters for p in lr.parts]):
        for t1 in reduced_words([y1], 3):
            for t2 in reduced_words([y2], 3):
                if len(t1) + len(t2) <= 3:
                    start = machine.AdmissibleWord(
                        lr.hw, [(s, 1) for s in states], [t1, t2])
                    n0 = _a_len(start)

                    def check(ans, n0=n0):
                        bad = [t for t, n in ans[1] if t > 2 * max(n0, n) + 1]
                        return f"time bound broken: {bad[:3]}" if bad else None
                    queries.append(Query("lr_y", lambda s=start: _lr_sweep(
                        lr, s, d_lr, prune_lr), check,
                        lambda a: (a[0], tuple(a[1]))))

    # test_03: one-letter multiplier, standard base, pruned, depth 8.
    m = fixtures.one_sector_left_multiplier(("a", "b"))
    ab = atoms(["a", "b"])
    q0, q1 = atom("Q0"), atom("Q1")
    d_std = 8

    def prune_std(c, depth):
        return len(c.tapes[0]) - (d_std - depth) > 4

    def positive(n):
        return None if n > 0 else "no computation"

    for u0 in reduced_words(ab, 4):
        start = machine.AdmissibleWord(m.hw, [(q0, 1), (q1, 1)], [u0])
        queries.append(Query("standard", lambda s=start: _count(
            m, s, d_std, prune_std), positive))
    pm = fixtures.paired_multiplier(("a", "b"))
    for u0 in reduced_words(pm.sector_alphabets[0], 2):
        start = machine.AdmissibleWord(pm.hw, [(q0, 1), (q1, 1)], [u0])
        queries.append(Query("paired", lambda s=start: _count(pm, s, 4),
                            positive))
    for u0 in reduced_words(ab, 2):
        if not u0.letters:
            continue
        start = machine.AdmissibleWord(m.hw, [(q0, 1), (q0, -1)], [u0])
        queries.append(Query("mirror", lambda s=start: _count(
            m, s, 8, skip_empty=True), positive))

    def totals(queries, digests):
        groups = {}
        for i, q in enumerate(queries):
            groups.setdefault(q.kind, []).append(i)
        out = []
        for name, idx in groups.items():
            got = [digests[i] for i in idx]
            if None in got:
                continue
            want = ref.FROZEN["sweep." + name]
            if name == "lr_y":
                total = (sum(a[0] for a in got), sum(len(a[1]) for a in got))
            else:
                total = sum(got)
            if total != want:
                out.append((idx, f"{name}: {total} computations, "
                                 f"reference {want}"))
        return out

    return Plan(queries, totals)



# -- decide ------------------------------------------------------------------

def _search_query(kind, m, w, trivial, fn) -> Query:
    start = machine.input_configuration(m, w)
    acc = machine.accept_configuration(m)

    def check(res):
        if res.status == search.FOUND:
            if not trivial:
                return f"non-trivial input {w.tokens()!r} accepted"
            if len(res.history) != res.length:
                return "history length differs from the reported length"
            return _replays(m, start, res.history, acc)
        if res.status == search.UNREACHABLE and trivial:
            return f"trivial input {w.tokens()!r} certified unreachable"
        return None

    return Query(kind, fn, check,
                 lambda r: (r.status, r.length, r.history, r.explored))


def _zero_sum_word(rng, letters, n, trivial) -> Word:
    while True:
        w = _random_reduced(rng, letters, n)
        if ref.zxz_trivial(w) == trivial:
            return w


def _area_word(rng, relator, letters, k) -> Word:
    """A non-empty product of k conjugates of relator^±1 by words of
    length <= 1, so its area is at most k."""
    while True:
        w = EMPTY
        for _ in range(k):
            g = _random_reduced(rng, letters, rng.randint(0, 1))
            r = relator if rng.random() < 0.5 else relator.inverse()
            w = w * g * r * g.inverse()
        w = free_reduce(w)
        if w:
            return w


def _rotations(w: Word) -> set:
    return {w.letters[i:] + w.letters[:i] for i in range(len(w))}


def _emulate(m, w):
    h = encode.emulation_history(m, w, max_area=3)
    return h, machine.run(m, machine.input_configuration(m, w), h)


def decide(seed: int, workdir: Path) -> Plan:
    rng = random.Random(seed)
    x, y = atom("x"), atom("y")
    z2p = fixtures.z2_presentation()
    zxzp = fixtures.commutator_presentation()
    z2 = encode.presentation_to_machine(z2p)
    zxz = encode.presentation_to_machine(zxzp)
    queries = []

    # <x | x^2>: searches from the input configuration; bounded searches
    # of the non-trivial inputs dominate the pass.
    for k in ([rng.choice((0, 2, -2)) for _ in range(3)]
              + [rng.choice((1, -1, 3, -3, 5, -5)) for _ in range(6)]):
        w = _power(x, k)
        queries.append(_search_query(
            "z2.bfs", z2, w, ref.z2_trivial(w),
            lambda w=w: search.accepts(z2, w, bound=4)))
    for k in ([rng.choice((0, 2, -2, 4, -4)) for _ in range(3)]
              + [rng.choice((1, -1, 3, -3, 5, -5, 7, -7)) for _ in range(6)]):
        w = _power(x, k)
        queries.append(_search_query(
            "z2.meet", z2, w, ref.z2_trivial(w),
            lambda w=w: search.accepts(z2, w, bound=8, method="meet")))

    # <x, y | [x, y]>: bfs_reach and meet_reach between the input and
    # accept configurations.  Trivial inputs need 11 steps, so every
    # search here runs to its bound.
    acc = machine.accept_configuration(zxz)
    for kind, fn, bound in (("zxz.bfs", "bfs_reach", 3),
                            ("zxz.meet", "meet_reach", 6)):
        for trivial in (True,) * 3 + (False,) * 5:
            w = _zero_sum_word(rng, (x, y), rng.choice((4, 6)) if trivial
                               else rng.randint(3, 6), trivial)
            start = machine.input_configuration(zxz, w)
            queries.append(_search_query(
                kind, zxz, w, trivial,
                lambda s=start, fn=fn, b=bound: getattr(search, fn)(
                    zxz, s, acc, b)))

    # Emulation histories of trivial inputs, replayed with run.
    for m, w in ((z2, _power(x, rng.choice((2, -2, 4, -4)))),
                 (zxz, _zero_sum_word(rng, (x, y), 4, True))):
        end = machine.accept_configuration(m)

        def check(ans, end=end):
            h, comp = ans
            if not comp.ok or comp.end != end:
                return "emulation history does not reach acceptance"
            return None
        queries.append(Query("emulation", lambda m=m, w=w: _emulate(m, w),
                             check, lambda a: a[0]))

    # Abelianized obstruction: exact for these two groups.
    for p, w in ((z2p, _power(x, rng.randint(-5, 5))),
                 (zxzp, _zero_sum_word(rng, (x, y), 4, rng.random() < 0.5))):
        want = ref.z2_trivial(w) if p is z2p else ref.zxz_trivial(w)
        queries.append(Query(
            "abelianized", lambda p=p, w=w: encode.abelianized_trivial(p, w),
            lambda got, want=want: None if got == want else
            f"abelianized verdict {got}, reference {want}"))

    # Area oracle on commutator-group words of area <= 2, checked by
    # replaying the insertions.  Area-3 words are left out: one such
    # query takes from 0.2 s to several seconds depending on the word, so
    # it would dominate the pass and make its time depend on the seed.
    relator = zxzp.relators[0]
    moves = _rotations(relator) | _rotations(relator.inverse())
    for k in (1, 2, 2):
        w = _area_word(rng, relator, (x, y), k)

        def check(res, w=w, k=k):
            if res.status != search.FOUND:
                return f"area of {w.tokens()!r} not found ({res.status})"
            if res.area > k or len(res.steps) != res.area:
                return f"area {res.area} for a product of {k} conjugates"
            u = w
            for s, pos in res.steps:
                if s.letters not in moves:
                    return f"{s.tokens()!r} is not a relator rotation"
                u = free_reduce(Word(u.letters[:pos]) * s
                                * Word(u.letters[pos:]))
            return None if not u else "insertions do not reach the empty word"
        queries.append(Query(
            "area", lambda w=w, k=k: encode.area_oracle(zxzp, w, max_area=k),
            check, lambda r: (r.status, r.area, r.steps, r.explored)))

    # Time functions with known closed forms.
    for m, law in ((fixtures.toy_deleter(), ref.tm_deleter),
                   (fixtures.one_sector_left_multiplier(), ref.tm_multiplier)):
        def check(tf, law=law):
            want = {n: law(n) for n in range(4)}
            if tf.values != want or not all(tf.complete.values()) or tf.rejected:
                return f"TM = {tf.values}, reference {want}"
            return None
        queries.append(Query(
            "time_function", lambda m=m: search.time_function(m, 3, 8), check,
            lambda tf: (tf.values, tf.complete, tuple(tf.rejected))))
    return Plan(queries)


# -- diagram -----------------------------------------------------------------

def _pure_sides(m, history: Word) -> bool:
    """conjugator_from_accepting applies when no step emits tape letters
    past the outer parts."""
    last = m.n_parts - 1
    for a, s in history.letters:
        r = m.rule(a.name)
        outer = ((r.parts[0].left, r.parts[last].right) if s > 0
                 else (r.parts[0].right, r.parts[last].left))
        if any(outer):
            return False
    return True


def _pipeline(m, start, history, conjugate):
    comp = machine.run(m, start, history)
    trap = group.computation_to_trapezium(m, comp)
    valid = group.validate_trapezium(trap)
    back = group.trapezium_to_computation(trap)
    text = group.trapezium_dumps(trap)
    gamma = group.conjugator_from_accepting(m, comp) if conjugate else None
    return comp, trap, valid, back, text, gamma


def _diagram_query(kind, m, start, history, length, end=None) -> Query:
    """The pipeline on one computation; length and end are its
    reference length and end configuration."""
    conjugate = _pure_sides(m, history)

    def check(ans):
        comp, trap, valid, back, text, gamma = ans
        if not comp.ok or len(comp) != length:
            return f"{len(comp)} steps, reference {length}"
        if end is not None and comp.end != end:
            return "computation ends in the wrong configuration"
        if valid is not True:
            return "trapezium not validated"
        if (back.history_word() != comp.history_word()
                or back.configs != comp.configs):
            return "trapezium does not replay the computation"
        doc = json.loads(text)
        if (doc["history"] != history.tokens() or len(doc["rows"]) != len(comp)
                or doc["words"] != [c.tokens() for c in comp.configs]):
            return "trapezium document disagrees with the computation"
        for j, row in enumerate(trap.rows):
            cells = sum(1 for c in trap.cells if c.row == j)
            for side in (row.bottom, row.top):
                kinds = [trap.edges[e].kind for e, _ in side]
                l_a, l_b = kinds.count("a"), kinds.count("q")
                if not l_a - l_b <= cells <= l_a + 3 * l_b:
                    return f"row {j}: {cells} cells outside the bracket"
        if conjugate:
            if len(gamma) != len(comp):
                return f"conjugator of length {len(gamma)} for {len(comp)} steps"
            expected = free_reduce(comp.start.to_word().inverse() * gamma
                                   * comp.end.to_word() * gamma.inverse())
            if trap.boundary_word() != expected:
                return "boundary identity fails"
        return None

    return Query(kind, lambda: _pipeline(m, start, history, conjugate), check,
                 lambda a: (hashlib.sha256(a[4].encode()).digest(), a[5]))


def _random_walk(rng, m, u_len, steps):
    """A seeded computation of up to ``steps`` freely reduced steps from a
    random input, as in test_07."""
    alphabet = sorted(m.sector_alphabets[m.input_sectors[0]],
                      key=lambda a: a.name)
    u = _random_reduced(rng, alphabet, u_len)
    start = machine.input_configuration(m, (u,))
    c, hist = start, []
    for _ in range(steps):
        options = [(r, s) for r, s in m.signed_rules()
                   if not (hist and hist[-1] == (atom(r.name), -s))
                   and m.try_apply(c, r, s) is not None]
        if not options:
            break
        r, s = options[rng.randrange(len(options))]
        c = m.try_apply(c, r, s)
        hist.append((atom(r.name), s))
    return start, Word(hist)


def diagram(seed: int, workdir: Path) -> Plan:
    rng = random.Random(seed)
    queries = []

    # Seeded random computations on the test_07 fixtures.
    fixture_machines = [fixtures.toy_deleter(),
                        fixtures.one_sector_left_multiplier(),
                        fixtures.two_sided_multiplier(),
                        primitive.build_lr(["y"])]
    for i in range(40):
        m = fixture_machines[i % len(fixture_machines)]
        start, history = _random_walk(rng, m, rng.randint(0, 3), 2 + i % 7)
        queries.append(_diagram_query("random", m, start, history,
                                      len(history)))

    # Standard LR({a, b}) computations, length 2||u|| + 1.  One length
    # and one |k| below give blocks of equal-cost queries, so the p50
    # and p90 ranks fall inside a block whatever the seed.
    lr = primitive.build_lr(["a", "b"])
    for _ in range(40):
        u = _random_reduced(rng, atoms(["a", "b"]), 6)
        queries.append(_diagram_query(
            "lr", lr, primitive.home_configuration(lr, u, 1),
            primitive.standard_lr_computation(lr, u), ref.lr_length(len(u)),
            primitive.home_configuration(lr, u, 2)))

    # Accepting computations of the enhanced deleter for y^k, length
    # 7||H|| + 6 where H = del^k acc is the deleter's own history.
    deleter = fixtures.toy_deleter()
    e = enhance.build_enhanced_standard(deleter)
    acc = machine.accept_configuration(e)
    for _ in range(20):
        k = 3 * rng.choice((1, -1))
        h = Word([(atom("del"), 1 if k >= 0 else -1)] * abs(k)
                 + [(atom("acc"), 1)])
        queries.append(_diagram_query(
            "enhanced", e, machine.input_configuration(e, _power(atom("y"), k)),
            enhance.accepting_computation_from_history(e, h),
            ref.enhanced_length(ref.deleter_length(k)), acc))
    return Plan(queries)


# -- cli ---------------------------------------------------------------------

_IMPORT_SYMPY = ("import time; t = time.perf_counter(); import sympy; "
                 "print(time.perf_counter() - t)")


def _cli_env() -> dict:
    """The console script is not assumed installed: run the module with
    this checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def _child(argv, cwd, env) -> tuple[int, bytes]:
    p = subprocess.run(argv, cwd=cwd, env=env, capture_output=True,
                       timeout=120)
    return p.returncode, p.stdout


def _cli_check(code_want, check_doc):
    def check(ans):
        code, out = ans
        if code != code_want:
            return f"exit code {code}, reference {code_want}"
        return check_doc(json.loads(out))
    return check


def _tm_doc(status, m=None, inputs=None, length=None):
    def check(doc):
        if doc["status"] != status:
            return f"status {doc['status']}, reference {status}"
        if length is None:
            return None
        if doc["length"] != length:
            return f"length {doc['length']}, reference {length}"
        return _replays(m, machine.input_configuration(m, inputs),
                        Word.from_tokens(doc["history"]),
                        machine.accept_configuration(m))
    return check


def cli(seed: int, workdir: Path) -> Plan:
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    y = atom("y")
    deleter = fixtures.toy_deleter()
    mult = fixtures.one_sector_left_multiplier()
    lr_ab = primitive.build_lr(["a", "b"])
    for name, m in (("deleter", deleter), ("trivial", fixtures.trivial_acceptor()),
                    ("multiplier", mult), ("lr_y", primitive.build_lr(["y"])),
                    ("lr_ab", lr_ab)):
        serialize.save_machine(m, workdir / f"{name}.json")
    fixtures.z2_presentation().save(workdir / "z2.json")
    fixtures.commutator_presentation().save(workdir / "zxz.json")

    k1, k2 = (rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(2))
    k3 = rng.choice((1, -1)) * rng.randint(1, 3)
    u1, u2 = (_random_reduced(rng, atoms(["a", "b"]), 4) for _ in range(2))
    u = _random_reduced(rng, atoms(["a", "b"]), 4)
    history = primitive.standard_lr_computation(lr_ab, u)
    home1 = primitive.home_configuration(lr_ab, u, 1)
    home2 = primitive.home_configuration(lr_ab, u, 2)

    def tm_table(doc):
        want = {str(n): ref.tm_deleter(n) for n in range(4)}
        if (doc["values"] != want or not all(doc["complete"].values())
                or doc["rejected"]):
            return f"TM = {doc['values']}, reference {want}"
        return None

    def trapezium(doc):
        if (len(doc["rows"]) != ref.lr_length(len(u))
                or doc["history"] != history.tokens()
                or doc["words"][0] != home1.tokens()
                or doc["words"][-1] != home2.tokens()):
            return "trapezium is not the standard LR computation"
        return None

    def count(key, want):
        return lambda doc: (None if len(doc[key]) == want else
                            f"{len(doc[key])} {key}, reference {want}")

    y_k = {k: _power(y, k) for k in (k1, k2, k3)}
    specs = [
        (["tm", "deleter.json", "--input", y_k[k1].tokens(), "--bound", "6"],
         0, _tm_doc("found", deleter, y_k[k1], ref.deleter_length(k1))),
        (["tm", "deleter.json", "--input", y_k[k2].tokens(), "--bound", "6",
          "--method", "meet"],
         0, _tm_doc("found", deleter, y_k[k2], ref.deleter_length(k2))),
        (["tm", "trivial.json", "--input", y_k[k3].tokens(), "--bound", "3"],
         1, _tm_doc("unreachable")),
        # The bound is one step short of the shortest acceptance and the
        # component is infinite, so both searches are bound-limited.
        (["tm", "multiplier.json", "--input", u1.tokens(), "--bound",
          str(ref.multiplier_length(len(u1)) - 1)],
         3, _tm_doc("bound-limited")),
        (["tm", "multiplier.json", "--input", u2.tokens(), "--bound",
          str(ref.multiplier_length(len(u2)) - 1), "--method", "meet"],
         3, _tm_doc("bound-limited")),
        (["tm", "deleter.json", "--max-n", "3", "--bound", "8"], 0, tm_table),
        (["trapezium", "lr_ab.json", "--input",
          lr_ab.meta["copy1"](u).tokens(), "--history", history.tokens()],
         0, trapezium),
        (["present", "lr_y.json"],
         0, count("generators", ref.FROZEN["cli.present.lr_y.generators"])),
        # Stored relators: x x and x^-1 x^-1 for z2; [x, y] and its
        # inverse (not a rotation of it) for zxz.
        (["encode", "z2.json"], 0,
         count("rules", ref.encoder_rule_count(1, (2, 2)))),
        (["encode", "zxz.json"], 0,
         count("rules", ref.encoder_rule_count(2, (4, 4)))),
    ]
    env = _cli_env()
    import_times = []

    def traced(tracer, i, argv):
        spans = workdir / f"spans-{i}.json"
        ans = _child([sys.executable, str(BENCH / "cli_child.py"), str(spans),
                      *argv], workdir, env)
        doc = json.loads(spans.read_text())
        tracer.merge(doc)
        import_times.append(doc["import_s"])
        return ans

    queries = [
        Query(argv[0], lambda argv=argv: _child(
                  [sys.executable, "-m", "smforge.cli", *argv], workdir, env),
              _cli_check(code, check),
              traced=lambda tracer, i=i, argv=argv: traced(tracer, i, argv))
        for i, (argv, code, check) in enumerate(specs)]

    def probes():
        sympy = [float(_child([sys.executable, "-c", _IMPORT_SYMPY],
                              workdir, env)[1]) for _ in range(3)]
        return {"import_s": statistics.median(import_times or [0.0]),
                "import_sympy_s": statistics.median(sympy)}

    # A cold invocation takes 0.5-0.9 s on a 2-vCPU VM, so 100 of them
    # would take a run 50-90 s; with 40, four samples lie beyond p90.
    return Plan(queries, probes=probes, min_queries=40)


WORKLOADS = {"sweep": sweep, "decide": decide, "diagram": diagram, "cli": cli}
