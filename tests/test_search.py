import itertools
import time

import pytest

from smforge.encode import presentation_to_machine
from smforge.fixtures import (
    commutator_presentation,
    one_sector_left_multiplier,
    toy_deleter,
    trivial_acceptor,
)
from smforge.machine import (
    AdmissibleWord,
    Hardware,
    Machine,
    MachineError,
    StatePart,
    _SignedRule,
    accept_configuration,
    input_configuration,
    make_rule,
    parse_admissible,
    run,
)
from smforge.search import (
    BOUNDED,
    FOUND,
    UNREACHABLE,
    accepts,
    bfs_reach,
    enumerate_inputs,
    meet_reach,
    reachable_configs,
    reduced_computations,
    successors,
    time_function,
    tm_of_config,
)
from smforge.words import EMPTY, Word, reduced_words


def W(text):
    return Word.from_tokens(text)


class TestSuccessors:
    def test_name_sign_order(self):
        m = toy_deleter()
        c = input_configuration(m, W("y"))
        got = [(r.name, s) for r, s, _ in successors(m, c)]
        want = [(r.name, s) for r, s in m.signed_rules()
                if m.try_apply(c, r, s) is not None]
        assert got == want == [("del", 1), ("del", -1)]

    def test_skip_is_never_tried(self, monkeypatch):
        m = one_sector_left_multiplier()
        c = input_configuration(m, W("a"))
        tried = []
        kernel = _SignedRule.apply

        # Every attempt runs the one kernel body.
        def spy(entry, row, aw):
            tried.append((entry.rule.name, entry.sign))
            return kernel(entry, row, aw)
        monkeypatch.setattr(_SignedRule, "apply", spy)
        got = [(r.name, s) for r, s, _ in successors(m, c, (m.rule("mul(a)"), -1))]
        assert ("mul(a)", -1) not in tried
        assert got == tried == [("mul(a)", 1), ("mul(b)", 1), ("mul(b)", -1)]


class TestBfs:
    def test_trivial(self):
        m = trivial_acceptor()
        res = accepts(m, EMPTY, 0)
        assert res.found and res.length == 0 and res.history == EMPTY

    def test_deleter_shortest(self):
        m = toy_deleter()
        for n in range(4):
            res = accepts(m, W(" ".join(["y"] * n) if n else "ε"), 10)
            assert res.found
            assert res.length == n + 1

    def test_witness_replays(self):
        m = toy_deleter()
        res = accepts(m, W("y y"), 10)
        comp = run(m, input_configuration(m, W("y y")), res.history)
        assert comp.end == accept_configuration(m)

    def test_negative_input_uses_inverse_rules(self):
        m = toy_deleter()
        res = accepts(m, W("y^-1"), 10)
        assert res.found and res.length == 2
        assert res.history == W("del^-1 acc")

    def test_unreachable_is_certified(self):
        m = trivial_acceptor()
        res = accepts(m, W("y"), 50)
        assert res.status == UNREACHABLE
        assert res.explored == 1

    def test_bound_limited(self):
        m = toy_deleter()
        res = accepts(m, W("y y y"), 2)
        assert res.status == BOUNDED

    def test_deterministic_witness(self):
        m = toy_deleter()
        a = accepts(m, W("y"), 10).history
        b = accepts(m, W("y"), 10).history
        assert a == b == W("del acc")


class TestReachableConfigs:
    def test_left_multiplier_ball(self):
        # From the empty tape, configurations after <= n steps are exactly
        # the reduced words of length <= n: 1 + 4 + 12 = 17 for n = 2.
        m = one_sector_left_multiplier()
        dist, complete = reachable_configs(m, input_configuration(m, EMPTY), 2)
        assert not complete
        assert len(dist) == 17
        assert all(d == c.tape_length() for c, d in dist.items())

    def test_exhausts_finite_component(self):
        m = trivial_acceptor()
        dist, complete = reachable_configs(m, input_configuration(m, EMPTY), 5)
        assert complete and len(dist) == 1

    def test_start_on_foreign_hardware_is_stored_on_the_machines(self):
        m, other = toy_deleter(), toy_deleter()
        dist, _ = reachable_configs(m, accept_configuration(other), 2)
        assert dist[accept_configuration(m)] == 0
        assert all(c.hw is m.hw for c in dist)


class TestNodeBudget:
    @pytest.mark.parametrize("search", [bfs_reach, meet_reach])
    def test_budget_stops_or_agrees(self, search):
        m = toy_deleter()
        start, acc = input_configuration(m, W("y y y")), accept_configuration(m)
        free = search(m, start, acc, 10)
        assert free.found
        for budget in range(2, free.explored + 1):
            res = search(m, start, acc, 10, max_nodes=budget)
            assert res.explored <= budget
            assert res.status == BOUNDED or res.history == free.history
        assert search(m, start, acc, 10, max_nodes=2).status == BOUNDED
        same = search(m, start, acc, 10, max_nodes=free.explored)
        assert (same.status, same.history, same.explored) == (
            free.status, free.history, free.explored)

    def test_budget_of_one(self):
        # bfs checks its budget before each expansion, so it visits start
        # only; meet holds both ends from the outset.
        m = toy_deleter()
        start, acc = input_configuration(m, W("y")), accept_configuration(m)
        for search, explored in ((bfs_reach, 1), (meet_reach, 2)):
            res = search(m, start, acc, 10, max_nodes=1)
            assert (res.status, res.explored) == (BOUNDED, explored)
        res = accepts(m, W("y"), 10, max_nodes=1)
        assert (res.status, res.explored) == (BOUNDED, 1)

    def test_budget_never_certifies(self):
        # p0 - p1 - p2 is the whole component; p3 lies outside it.
        hw = Hardware([StatePart("P", ["p0", "p1", "p2", "p3"]),
                       StatePart("R", ["r"])], [[]])
        m = Machine("chain", hw, [
            make_rule(hw, f"s{i}", [(f"p{i}", f"p{i + 1}"), ("r", "r")])
            for i in range(2)])
        start, target = (parse_admissible(hw, f"{p} r") for p in ("p0", "p3"))
        for search in (bfs_reach, meet_reach):
            assert search(m, start, target, 5).status == UNREACHABLE
            assert search(m, start, target, 5, max_nodes=2).status == BOUNDED

    def test_runaway_query_stops_at_budget(self):
        # bound 6 on the commutator encoder grows past 1 GB without a budget
        m = presentation_to_machine(commutator_presentation())
        t0 = time.monotonic()
        for method in ("bfs", "meet"):
            res = accepts(m, W("x"), 6, method, max_nodes=20000)
            assert res.status == BOUNDED
            assert res.explored <= 20000
        assert time.monotonic() - t0 < 10


class TestMeet:
    def test_explored_is_frozen(self):
        # smforge tm prints explored, so these counts from the
        # deterministic searches must not drift: each search stops the
        # moment its answer is certain.
        m = one_sector_left_multiplier()
        for method, explored in (("bfs", 34), ("meet", 22)):
            res = accepts(m, W("a b a"), 9, method)
            assert (res.length, res.explored) == (3, explored)
        for method in ("bfs", "meet"):
            res = accepts(toy_deleter(), W("y y y"), 3, method)
            assert (res.status, res.explored) == (BOUNDED, 7)

    def test_agrees_with_bfs_on_lengths(self):
        m = toy_deleter()
        for text in ["ε", "y", "y y", "y^-1"]:
            c = input_configuration(m, W(text))
            a = tm_of_config(m, c, 12, method="bfs")
            b = tm_of_config(m, c, 12, method="meet")
            assert a.found and b.found
            assert a.length == b.length

    def test_witness_replays(self):
        m = one_sector_left_multiplier()
        start = input_configuration(m, W("a b a"))
        target = input_configuration(m, W("b"))
        res = meet_reach(m, start, target, 10)
        assert res.found and res.length == 4
        comp = run(m, start, res.history)
        assert comp.end == target

    def test_zero_length(self):
        m = toy_deleter()
        c = input_configuration(m, EMPTY)
        assert meet_reach(m, c, c, 5).length == 0

    @pytest.mark.parametrize("build", [toy_deleter, one_sector_left_multiplier])
    def test_zero_length_across_hardware(self, build):
        # start and target are the same configuration, built on two
        # copies of the machine: keys decide, as in shortest.
        m, other = build(), build()
        for c in (input_configuration(m), accept_configuration(m)):
            twin = AdmissibleWord(other.hw, c.states, c.tapes)
            for search in (meet_reach, bfs_reach):
                res = search(m, c, twin, 5)
                assert res.found and res.length == 0
                assert res.history == EMPTY

    def test_unreachable(self):
        m = trivial_acceptor()
        res = meet_reach(m, input_configuration(m, W("y")),
                         accept_configuration(m), 50)
        assert res.status == UNREACHABLE

    def test_minimality_against_exhaustive(self):
        # meet_reach must return exact minimal lengths, cross-checked
        # against plain BFS over a bigger ball.
        m = one_sector_left_multiplier()
        start = input_configuration(m, W("a b"))
        for text in ["ε", "a", "b a^-1", "a b", "b b a"]:
            target = input_configuration(m, W(text))
            a = bfs_reach(m, start, target, 8)
            b = meet_reach(m, start, target, 8)
            assert a.found and b.found and a.length == b.length


def _sectors_machine(alphabets, input_sectors):
    """A machine without rules whose sectors have these alphabets."""
    parts = [StatePart(f"S{i}", [f"s{i}"]) for i in range(len(alphabets) + 1)]
    return Machine("sectors", Hardware(parts, alphabets, input_sectors), [])


def _product_inputs(m, n, exact):
    # The reference: the product of every input sector's words up to n,
    # filtered by their total length.
    for inputs in itertools.product(*[reduced_words(m.sector_alphabets[s], n)
                                      for s in m.input_sectors]):
        total = sum(map(len, inputs))
        if total == n or total < n and not exact:
            yield inputs


class TestInputsAndTimeFunction:
    def test_enumerate_inputs_keeps_the_product_order(self):
        # Zero to three input sectors, in and out of sector order.
        alphabets = [["p", "q"], ["r"], ["t"]]
        for inputs in [(), (0,), (2, 0), (1, 0, 2)]:
            m = _sectors_machine(alphabets, inputs)
            for n in range(-1, 5):
                for exact in (False, True):
                    assert (list(enumerate_inputs(m, n, exact))
                            == list(_product_inputs(m, n, exact)))

    def test_enumerate_inputs_visits_about_what_it_yields(self, monkeypatch):
        # Each sector's words stop at what the earlier sectors left of n,
        # so the work is counted per yielded tuple, not per candidate of
        # the product of every sector's words.
        m = _sectors_machine([["p", "q"], ["r", "s"]], (0, 1))
        calls = []
        length = Word.__len__
        monkeypatch.setattr(Word, "__len__",
                            lambda w: calls.append(1) or length(w))
        got = list(enumerate_inputs(m, 4, exact=True))
        assert len(got) == 648
        assert len(calls) <= 4 * len(got)

    def test_enumerate_inputs_counts(self):
        m = toy_deleter()
        assert len(list(enumerate_inputs(m, 2))) == 1 + 2 + 2
        assert len(list(enumerate_inputs(m, 2, exact=True))) == 2

    def test_enumerate_inputs_no_input_sectors(self):
        m = toy_deleter()
        hw = m.hw
        from smforge.machine import Hardware, Machine
        m2 = Machine("no_inputs", Hardware(hw.parts, hw.sector_alphabets, ()), m.rules)
        assert list(enumerate_inputs(m2, 3)) == [()]
        assert list(enumerate_inputs(m2, -1)) == []

    def test_no_input_is_shorter_than_nothing(self):
        m = toy_deleter()
        assert list(enumerate_inputs(m, -1)) == []
        assert list(enumerate_inputs(m, -1, exact=True)) == []
        assert list(enumerate_inputs(m, 0)) == [(EMPTY,)]

    def test_deleter_time_function(self):
        m = toy_deleter()
        tf = time_function(m, 3, 10)
        assert tf.values == {0: 1, 1: 2, 2: 3, 3: 4}
        assert all(tf.complete.values())
        assert tf.rejected == []

    def test_rejected_inputs_recorded(self):
        tf = time_function(trivial_acceptor(), 1, 4)
        assert tf.values == {0: 0, 1: 0}
        assert tf.complete == {0: True, 1: True}
        assert tf.rejected == [(W("y"),), (W("y^-1"),)]

    def test_bound_limited_flagged(self):
        m = toy_deleter()
        tf = time_function(m, 3, 2)
        assert not tf.complete[3]

    def test_unknown_method_is_rejected(self):
        m = toy_deleter()
        for method in ("dfs", "Meet"):
            with pytest.raises(MachineError,
                               match=f"unknown search method '{method}'"):
                accepts(m, W("y y"), 3, method=method)
        # n_max = -1 asks for no input at all: the method is still checked.
        for n_max in (1, -1):
            with pytest.raises(MachineError,
                               match="unknown search method 'typo'"):
                time_function(m, n_max, 3, method="typo")


class TestReducedComputations:
    def test_no_immediate_backtrack(self):
        m = toy_deleter()
        for steps, _ in reduced_computations(m, input_configuration(m, W("y")), 3):
            for (r1, s1), (r2, s2) in zip(steps, steps[1:]):
                assert not (r1 is r2 and s1 == -s2)

    def test_counts_small_tree(self):
        # From the empty tape of the deleter, reduced histories of length
        # <= 2: ε; acc; del; del^-1; del del; del^-1 del^-1.  (del leaves
        # tape y^-1, so acc cannot follow, and after acc only acc^-1 would
        # apply, which is a backtrack.)
        m = toy_deleter()
        comps = list(reduced_computations(m, input_configuration(m, EMPTY), 2))
        assert len(comps) == 6

    def test_prune(self):
        m = toy_deleter()
        seen = list(reduced_computations(
            m, input_configuration(m, EMPTY), 4,
            prune=lambda c, d: c.tape_length() >= 1))
        # pruned branches are yielded but not extended
        for steps, c in seen:
            if len(steps) >= 2:
                assert c.tape_length() <= 2

    def test_negative_bound_yields_the_start_alone(self):
        # As bfs_reach and reachable_configs do, a negative bound stops at
        # once; islice keeps a walk without end from hanging the test.
        m = toy_deleter()
        start = input_configuration(m, W("y"))
        tried = []
        for bound in (-1, -2):
            comps = reduced_computations(
                m, start, bound, prune=lambda c, d: tried.append(d))
            assert list(itertools.islice(comps, 3)) == [((), start)]
        assert tried == []
        assert reachable_configs(m, start, -1) == ({start: 0}, False)

    def test_deep_enumeration(self):
        # One rule: from the empty tape the reduced histories are mul^k
        # and mul^-k for k <= 1500, far deeper than the recursion limit.
        m = one_sector_left_multiplier(("a",))
        comps = list(reduced_computations(m, input_configuration(m, EMPTY), 1500))
        assert len(comps) == 3001
        assert max(len(steps) for steps, _ in comps) == 1500
        assert comps[1500][1].tape_length() == 1500
