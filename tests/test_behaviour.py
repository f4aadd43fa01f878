"""One sha256 over the answers that a change of representation must keep.

"Same behaviour" means: the witness histories (rules are tried in
(name, sign) order), the explored counts, the order in which
reduced_computations yields, time functions, the reasons apply_ex gives,
and the output and exit codes of the command line; a second digest pins
reachable_configs.  They are taken on
the fixture machines, both presentation encoders, LR({a, b}) and the
cyclic enhanced deleter, at small bounds, and hashed by names and tokens
only: never by atom ids, so the digest does not depend on the order in
which atoms were interned.
"""
import hashlib

from smforge import cli
from smforge.encode import presentation_to_machine
from smforge.enhance import build_enhanced_standard, make_cyclic
from smforge.fixtures import (
    commutator_presentation,
    one_sector_left_multiplier,
    paired_multiplier,
    toy_deleter,
    trivial_acceptor,
    two_sided_multiplier,
    z2_presentation,
)
from smforge.machine import (
    Hardware,
    Machine,
    StatePart,
    input_configuration,
    make_rule,
)
from smforge.primitive import build_lr, standard_lr_computation
from smforge.search import (
    accepts,
    enumerate_inputs,
    reachable_configs,
    reduced_computations,
    time_function,
)
from smforge.serialize import save_machine
from smforge.words import Word


def W(text):
    return Word.from_tokens(text)


def _machines():
    """(machine, input length, step bound, node budget, depth of the
    reduced computations): the bound is small enough that a search
    without a budget stays cheap, and the budget cuts some searches."""
    return [
        (toy_deleter(), 3, 8, 6, 4),
        (trivial_acceptor(), 2, 3, 2, 2),
        (one_sector_left_multiplier(idle=True), 2, 4, 20, 3),
        (paired_multiplier(), 2, 3, 40, 3),
        (two_sided_multiplier(), 2, 4, 30, 3),
        (presentation_to_machine(z2_presentation()), 2, 5, 60, 3),
        (presentation_to_machine(commutator_presentation()), 1, 3, 80, 2),
        (build_lr(["a", "b"]), 1, 6, 200, 3),
        (make_cyclic(build_enhanced_standard(toy_deleter())), 1, 6, 300, 3),
    ]


def _searches(m, n, bound, budget):
    for inputs in enumerate_inputs(m, n):
        for method in ("bfs", "meet"):
            for max_nodes in (None, budget):
                res = accepts(m, inputs, bound, method, max_nodes)
                yield ([w.tokens() for w in inputs], method, max_nodes,
                       res.status, res.length,
                       None if res.history is None else res.history.tokens(),
                       res.explored)


def _computations(m, depth):
    """The reduced computations from the first two inputs, in yield order,
    and every apply_ex outcome on the configurations they reach."""
    ends = []
    for inputs in list(enumerate_inputs(m, 1))[:2]:
        for steps, end in reduced_computations(
                m, input_configuration(m, inputs), depth):
            yield [(r.name, s) for r, s in steps], end.tokens()
            ends.append(end)
    for c in ends[:12]:
        for rule, sign in m.signed_rules():
            out = m.apply_ex(c, rule, sign)
            yield (c.tokens(), rule.name, sign, out.ok,
                   out.result.tokens() if out.ok else out.reason)


def _time_functions():
    for m, n_max, bound, max_nodes in (
            (toy_deleter(), 3, 8, None),
            (trivial_acceptor(), 2, 3, None),
            (one_sector_left_multiplier(), 2, 3, None),
            (presentation_to_machine(z2_presentation()), 1, 3, 40)):
        for method in ("bfs", "meet"):
            tf = time_function(m, n_max, bound, method, max_nodes)
            yield (m.name, method, sorted(tf.values.items()),
                   sorted(tf.complete.items()),
                   [[w.tokens() for w in inputs] for inputs in tf.rejected])


def _cli_runs(tmp_path):
    """The ten invocations of the benchmark's cli workload, on inputs
    built here, each writing with -o into tmp_path."""
    lr_ab = build_lr(["a", "b"])
    for name, m in (("deleter", toy_deleter()), ("trivial", trivial_acceptor()),
                    ("multiplier", one_sector_left_multiplier()),
                    ("lr_y", build_lr(["y"])), ("lr_ab", lr_ab)):
        save_machine(m, tmp_path / f"{name}.json")
    z2_presentation().save(tmp_path / "z2.json")
    commutator_presentation().save(tmp_path / "zxz.json")
    u = W("a b^-1 a")
    history = standard_lr_computation(lr_ab, u)
    specs = [
        ["tm", "deleter.json", "--input", "y y y", "--bound", "6"],
        ["tm", "deleter.json", "--input", "y^-1 y^-1", "--bound", "6",
         "--method", "meet"],
        ["tm", "trivial.json", "--input", "y y", "--bound", "3"],
        ["tm", "multiplier.json", "--input", "a b", "--bound", "1"],
        ["tm", "multiplier.json", "--input", "b^-1 a^-1 b", "--bound", "2",
         "--method", "meet"],
        ["tm", "deleter.json", "--max-n", "3", "--bound", "8"],
        ["trapezium", "lr_ab.json", "--input", lr_ab.meta["copy1"](u).tokens(),
         "--history", history.tokens()],
        ["present", "lr_y.json"],
        ["encode", "z2.json"],
        ["encode", "zxz.json"],
    ]
    for i, argv in enumerate(specs):
        out = tmp_path / f"out-{i}.txt"
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        code = cli.main(argv + ["-o", str(out)])
        if not out.exists():
            raise AssertionError(f"{argv} exited {code} without writing -o")
        yield i, code, out.read_text(encoding="utf-8").replace(
            str(tmp_path), "<tmp>")


def test_behaviour_digest_is_pinned(tmp_path):
    h = hashlib.sha256()
    statuses = set()
    for m, n, bound, budget, depth in _machines():
        h.update(m.name.encode())
        for answer in _searches(m, n, bound, budget):
            statuses.add(answer[3])
            h.update(repr(answer).encode())
        for answer in _computations(m, depth):
            h.update(repr(answer).encode())
    for answer in _time_functions():
        h.update(repr(answer).encode())
    codes = []
    for answer in _cli_runs(tmp_path):
        codes.append(answer[1])
        h.update(repr(answer).encode())
    assert statuses == {"found", "unreachable", "bound-limited"}
    assert codes == [0, 0, 1, 3, 3, 0, 0, 0, 0, 0]
    assert h.hexdigest() == ("629aa0839bd35e0f7f0ab4efc3d6ee7b"
                             "379d22f9f50c4db395c1b075df70a315")


def _chain() -> Machine:
    """A finite component: step(i) moves part P from p<i-1> to p<i>, tape
    kept; step(3) needs the tape empty.  From p0 the radius is 3 on the
    empty tape and 2 on any other."""
    hw = Hardware([StatePart("P", ["p0", "p1", "p2", "p3"]),
                   StatePart("Q", ["q"])], [["y"]], input_sectors=[0])
    return Machine("chain", hw, [
        make_rule(hw, f"step({i})", [(f"p{i - 1}", f"p{i}"), ("q", "q")],
                  domains=None if i < 3 else [[]])
        for i in (1, 2, 3)])


def _reached(m, inputs, bound):
    dist, complete = reachable_configs(
        m, input_configuration(m, inputs), bound)
    return ([w.tokens() for w in inputs], bound, complete,
            [(c.tokens(), d) for c, d in dist.items()])


def test_reachable_configs_is_pinned():
    """Every configuration reachable_configs returns, in dict order, with
    its distance and the complete flag, hashed by tokens only; the finite
    components are cut at their radius and exhausted one step later."""
    h = hashlib.sha256()
    for m, n, bound, _, _ in _machines():
        h.update(m.name.encode())
        for inputs in enumerate_inputs(m, min(n, 1)):
            h.update(repr(_reached(m, inputs, min(bound, 3))).encode())
    chain = _chain()
    cuts = []
    for tape, radius in (("ε", 3), ("y", 2)):
        for bound in (radius, radius + 1):
            answer = _reached(chain, [W(tape)], bound)
            cuts.append((answer[2], len(answer[3])))
            h.update(repr(answer).encode())
    assert cuts == [(False, 4), (True, 4), (False, 3), (True, 3)]
    assert h.hexdigest() == ("96cd05f881af083c1c9bf6c8a09b8172"
                             "6cccd934bc502d17b511a25f383cec87")
