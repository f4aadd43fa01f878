"""Property tests for the shared rule-expansion loop on random machines.

Machines are small (2-3 parts, at most two letters per sector, at most
three rules with writes of length at most one inside the domains), so
every search below finishes in milliseconds.  Examples are derandomized
to keep the suite deterministic.  The rule-application kernel is also
checked against a reference that applies each rule afresh, on these
machines, on the fixtures and on arbitrary tapes of every base of the
fixtures, whose writes meet them at every kind of junction; and the keys
of admissible words of the fixtures against the keys of their flat words.
On the fixtures, the skip argument of successors, words on foreign
hardware and the enumeration of reduced computations, pruned or not, are
checked against plain references too.  The breadth-first searches
(bfs_reach, meet_reach, reachable_configs and area_oracle) are checked
against the parent-map searches they replaced, kept here as references,
under node budgets that stop a side inside a layer as well as at its end.
Meet searches that read a machine's shared accept-side log, in shuffled
order so that each finds the log grown less or further than it reads,
are checked against that reference too.
"""
import collections
import copy
import functools
import gc
import itertools
import random
import weakref

import pytest
from hypothesis import assume, find, given, settings, strategies as st

from smforge.encode import (IMPOSSIBLE, AreaResult, abelianized_trivial,
                            area_oracle, presentation_to_machine,
                            stored_relators)
from smforge.enhance import build_enhanced_standard, make_cyclic
from smforge.fixtures import (
    commutator_presentation,
    paired_multiplier,
    toy_deleter,
    two_sided_multiplier,
    z2_presentation,
)
from smforge.machine import (
    AdmissibleWord,
    Hardware,
    Machine,
    MachineError,
    RulePart,
    StatePart,
    accept_configuration,
    input_configuration,
    invert_rule,
    make_rule,
    parse_admissible,
    run,
)
from smforge.primitive import build_lr
from smforge.search import (
    BOUNDED,
    FOUND,
    UNREACHABLE,
    ReachResult,
    _ACCEPT_SIDES,
    _key,
    accepts,
    bfs_reach,
    enumerate_inputs,
    meet_reach,
    reachable_configs,
    reduced_computations,
    successors,
    time_function,
)
from smforge.words import (EMPTY, Word, atom, free_reduce, reduced_words,
                           splice, symmetrized_closure)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def _write(draw, domain):
    """A word of length at most one over the domain."""
    if not domain or draw(st.booleans()):
        return EMPTY
    return Word.of((draw(st.sampled_from(domain)), draw(st.sampled_from((1, -1)))))


@st.composite
def machines(draw):
    """A random valid machine and an input configuration of it."""
    n = draw(st.integers(2, 3))
    parts = [StatePart(f"P{i}", [f"pq{i}_{j}" for j in range(draw(st.integers(1, 2)))])
             for i in range(n)]
    alphabets = [[atom(f"pt{s}_{j}") for j in range(draw(st.integers(0, 2)))]
                 for s in range(n - 1)]
    # Rule k leads from state tuple k to state tuple k + 1, and the
    # tuples run from the start letters to the end letters, so some rule
    # applies to the input configuration and acceptance is possible.
    n_rules = draw(st.integers(1, 3))
    states = [[p.start for p in parts]]
    states += [[draw(st.sampled_from(p.letters)) for p in parts]
               for _ in range(n_rules - 1)]
    states.append([p.end for p in parts])
    try:
        hw = Hardware(parts, alphabets, input_sectors=[0])
        rules = []
        for k in range(n_rules):
            domains = [[a for a in ab if draw(st.booleans())] for ab in alphabets]
            rps = []
            for i in range(n):
                left = _write(draw, domains[i - 1]) if i > 0 else EMPTY
                right = _write(draw, domains[i]) if i < n - 1 else EMPTY
                rps.append(RulePart(states[k][i], states[k + 1][i], left, right))
            rules.append(make_rule(hw, f"r{k}", rps, domains))
        m = Machine("random", hw, rules)
    except MachineError:
        assume(False)
    inputs = draw(st.sampled_from(list(reduced_words(alphabets[0], 2))))
    return m, input_configuration(m, inputs)


def _agree(m, start, target, bound):
    a = bfs_reach(m, start, target, bound)
    b = meet_reach(m, start, target, bound)
    # Both are exact up to the bound, so they find the same minimal
    # length or neither finds one.  Without a witness the statuses may
    # differ: meet_reach can exhaust the target's side first and certify
    # UNREACHABLE where bfs_reach is still bound-limited.
    assert a.found == b.found
    assert a.length == b.length
    for res in (a, b):
        if res.status == FOUND:
            assert len(res.history) == res.length
            assert run(m, start, res.history).end == target
    return a.length


@PROPERTY
@given(machines(), st.data())
def test_bfs_and_meet_agree(case, data):
    m, start = case
    _agree(m, start, accept_configuration(m), 5)
    # A target inside the ball of radius 4 is found at its distance.
    dist, _ = reachable_configs(m, start, 4)
    target = data.draw(st.sampled_from(list(dist)))
    assert _agree(m, start, target, 5) == dist[target]


@PROPERTY
@given(machines())
def test_reduced_computations_replay(case):
    m, start = case
    for steps, end in itertools.islice(reduced_computations(m, start, 4), 300):
        history = Word([(atom(r.name), s) for r, s in steps])
        assert history.is_reduced()
        assert run(m, start, history).end == end


@PROPERTY
@given(machines())
def test_rule_then_inverse_is_identity(case):
    m, start = case
    dist, _ = reachable_configs(m, start, 2)
    for c in dist:
        for rule, sign, res in successors(m, c):
            assert m.try_apply(res, rule, -sign) == c


@PROPERTY
@given(machines())
def test_every_step_is_undone_among_the_childs_successors(case):
    # A breadth-first search skips the step back along the edge that
    # reached a node: the child of that step is the node's parent.
    m, start = case
    for c in _ball(m, start):
        for rule, sign, child in successors(m, c):
            assert (rule, -sign, c) in successors(m, child)


def _reference_apply(m, aw, rule, sign):
    """Rule application done afresh on every call, as before the compiled
    table: invert the rule, check it, emit, and validate the result.
    Returns (result, reason)."""
    r = rule if sign > 0 else invert_rule(rule)
    part_of = m.hw.part_of
    for a, _ in aw.states:
        if r.parts[part_of[a]].frm is not a:
            return (None, f"state letter {a.name!r} does not match "
                    f"rule {rule.name!r}")
    for j, w in enumerate(aw.tapes):
        for a, _ in w.letters:
            if a not in r.domains[aw.gap_sectors[j]]:
                return (None, f"letter {a.name!r} in gap {j} outside "
                        f"the domain of rule {rule.name!r}")

    trip = _emissions(r, m, aw)
    tapes = [trip[j][2] * w * trip[j + 1][0] for j, w in enumerate(aw.tapes)]
    result = AdmissibleWord(m.hw, [t[1] for t in trip], tapes)
    return result, None


def _emissions(r, m, aw):
    """What each state letter q^e of aw becomes under the rule r, as
    (pre, letter, post), unreduced."""
    out = []
    for a, e in aw.states:
        rp = r.parts[m.hw.part_of[a]]
        if e > 0:
            out.append((rp.left, (rp.to, 1), rp.right))
        else:
            out.append((rp.right.inverse(), (rp.to, -1), rp.left.inverse()))
    return out


def _ball(m, start):
    """The configurations within two steps of start, each with its inverse
    and its folds q_0 .. q_k w_k q_k^-1 .. q_0^-1, so that state letters
    of both signs and every kind of gap occur; and every state letter
    alone, with both signs, where both of its writes fall off the ends."""
    dist, _ = reachable_configs(m, start, 2)
    out = [AdmissibleWord(m.hw, [(a, e)], []) for a in m.hw.part_of
           for e in (1, -1)]
    for c in dist:
        out += [c, parse_admissible(m.hw, c.to_word().inverse())]
        prefix = Word([c.states[0]])
        for k, tape in enumerate(c.tapes):
            out.append(parse_admissible(m.hw, prefix * tape * prefix.inverse()))
            prefix = prefix * tape * Word([c.states[k + 1]])
    return out


def check_kernel(m, configs):
    """successors, try_apply and apply_ex agree with _reference_apply."""
    for c in configs:
        want = []
        for rule, sign in m.signed_rules():
            res, reason = _reference_apply(m, c, rule, sign)
            out = m.apply_ex(c, rule, sign)
            assert (out.ok, out.reason) == (res is not None, reason)
            assert m.try_apply(c, rule, sign) == out.result == res
            if res is not None:
                want.append((rule, sign, res))
        got = list(successors(m, c))
        assert [(r, s) for r, s, _ in got] == [(r, s) for r, s, _ in want]
        for (_, _, a), (_, _, b) in zip(got, want):
            assert a.states == b.states and a.tapes == b.tapes
            assert a.gap_sectors == b.gap_sectors
            again = AdmissibleWord(m.hw, a.states, a.tapes)
            assert (again.tapes, again.gap_sectors) == (a.tapes, a.gap_sectors)


@PROPERTY
@given(machines())
def test_kernel_agrees_with_reference(case):
    m, start = case
    check_kernel(m, _ball(m, start))


def _unreduced_writer():
    """One sector over {a, b}; w writes a . b . b^-1 on its left end and
    b^-1 . b . a^-1 on its right, neither freely reduced."""
    hw = Hardware([StatePart("U0", ["u0"]), StatePart("U1", ["u1"])],
                  [[atom("a"), atom("b")]], input_sectors=[0])
    rule = make_rule(hw, "w", [
        RulePart("u0", "u0", right=Word.from_tokens("a b b^-1")),
        RulePart("u1", "u1", left=Word.from_tokens("b^-1 b a^-1"))])
    return Machine("unreduced_writer", hw, [rule])


def _long_writer():
    """One sector over {a, b}; w writes a . b on its left end and
    b^-1 . a on its right: reduced writes of two letters on both sides,
    whose product a . a still cancels at their junction."""
    hw = Hardware([StatePart("V0", ["v0"]), StatePart("V1", ["v1"])],
                  [[atom("a"), atom("b")]], input_sectors=[0])
    rule = make_rule(hw, "w", [
        RulePart("v0", "v0", right=Word.from_tokens("a b")),
        RulePart("v1", "v1", left=Word.from_tokens("b^-1 a"))])
    return Machine("long_writer", hw, [rule])


@pytest.mark.parametrize("build, inputs", [
    (toy_deleter, "y y y^-1 y^-1"),
    (paired_multiplier, "a_l b_r a_r^-1 b_l a_l"),
    (two_sided_multiplier, "a b a b^-1 a"),
    (_unreduced_writer, "a b a^-1 b a"),
    (lambda: make_cyclic(build_enhanced_standard(toy_deleter())), "y y y"),
    (lambda: presentation_to_machine(z2_presentation()), "x x x"),
], ids=["deleter", "paired", "two_sided", "unreduced", "cyclic_enhanced",
        "z2_encoder"])
def test_kernel_on_fixtures(build, inputs):
    m = build()
    words = [Word.from_tokens(inputs)] + [EMPTY] * (len(m.input_sectors) - 1)
    check_kernel(m, _ball(m, input_configuration(m, words)))


@PROPERTY
@given(machines(), st.integers(2, 12))
def test_node_budget_never_changes_an_answer(case, budget):
    m, start = case
    acc = accept_configuration(m)
    for search in (bfs_reach, meet_reach):
        free = search(m, start, acc, 5)
        cut = search(m, start, acc, 5, max_nodes=budget)
        assert cut.explored <= budget
        if cut.status != BOUNDED:
            assert (cut.status, cut.history) == (free.status, free.history)


@functools.cache
def _fixture_machines():
    return [toy_deleter(), paired_multiplier(), two_sided_multiplier(),
            _unreduced_writer(),
            make_cyclic(build_enhanced_standard(toy_deleter())),
            presentation_to_machine(z2_presentation()), _long_writer()]


def _gap_pieces(m, left, right):
    """The inverted pieces of what the signed rules write into the gap
    between two signed state letters, sorted by tokens: tapes that cancel
    into a write, partly or wholly."""
    pieces = set()
    for rule in m.rules:
        for sign in (1, -1):
            trip = _emissions(rule if sign > 0 else invert_rule(rule), m,
                              AdmissibleWord(m.hw, [left, right], [EMPTY]))
            for write in (trip[0][2], trip[1][0]):
                t = free_reduce(write).inverse().letters
                pieces.update(t[i:j] for i in range(len(t))
                              for j in range(i + 1, len(t) + 1))
    return sorted((Word(p) for p in pieces), key=Word.tokens)


@st.composite
def fixture_words(draw):
    """A fixture machine and an admissible word of it on any base the
    shapes allow, state letters of both signs, tapes of up to 3 letters:
    drawn letter by letter, or an inverted piece of a write into the gap."""
    m = draw(st.sampled_from(_fixture_machines()))
    signed = [(a, e) for a in m.hw.part_of for e in (1, -1)]
    states, tapes = [draw(st.sampled_from(signed))], []
    for _ in range(draw(st.integers(0, 4))):
        steps = []
        for q in signed:
            try:
                pair = AdmissibleWord(m.hw, [states[-1], q], [EMPTY])
            except MachineError:
                continue
            alphabet = m.hw.sector_alphabets[pair.gap_sectors[0]]
            steps.append((q, sorted(alphabet, key=lambda a: a.name)))
        if not steps:
            break
        q, alphabet = draw(st.sampled_from(steps))
        pieces = _gap_pieces(m, states[-1], q)
        if pieces and draw(st.booleans()):
            tapes.append(draw(st.sampled_from(pieces)))
        else:
            letters = st.tuples(st.sampled_from(alphabet),
                                st.sampled_from((1, -1)))
            tapes.append(Word(draw(st.lists(letters, max_size=3))
                              if alphabet else ()))
        states.append(q)
    return m, AdmissibleWord(m.hw, states, tapes)


@PROPERTY
@given(fixture_words())
def test_key_is_the_key_of_the_flat_word(case):
    m, aw = case
    for c in [aw] + [res for _, _, res in successors(m, aw)]:
        assert c.key() == c.to_word().key()
        assert c.key() == parse_admissible(m.hw, c.to_word()).key()


@PROPERTY
@given(fixture_words())
def test_kernel_on_any_word(case):
    m, aw = case
    check_kernel(m, [aw])


def _junctions(m, aw):
    """The kinds of junction met where the signed rules that apply to aw
    write, with the writes reduced afresh from the rule: "empty" (an empty
    tape is written), "left" and "right" (the tape cancels at that
    junction), "whole" (a tape cancels completely), and "into" (both
    writes have two letters or more, and a shorter tape cancels wholly
    into one of them)."""
    kinds = set()
    for rule, sign in m.signed_rules():
        if m.try_apply(aw, rule, sign) is None:
            continue
        trip = _emissions(rule if sign > 0 else invert_rule(rule), m, aw)
        for j, tape in enumerate(aw.tapes):
            pre = free_reduce(trip[j][2]).letters
            post = free_reduce(trip[j + 1][0]).letters
            t = tape.letters
            if not (pre or post):
                continue
            if not t:
                kinds.add("empty")
                continue
            _, i, k = splice(pre, t, post)
            into = len(t) == i < len(pre) or i == 0 and len(t) == k < len(post)
            kinds |= {name for name, hit in (
                ("left", i > 0), ("right", k > 0), ("whole", i + k >= len(t)),
                ("into", into and min(len(pre), len(post)) >= 2)) if hit}
    return kinds


# Words on which the writes meet every kind of junction _junctions tells.
JUNCTION_WORDS = [
    ("long_writer", "v0 v1"),                   # empty, pre.post cancels
    ("long_writer", "v0 v0^-1"),                # empty, pre.post is empty
    ("long_writer", "v0 b^-1 v1"),              # into pre
    ("long_writer", "v0 b v1"),                 # into post
    ("long_writer", "v0 a^-1 b v1"),            # wholly, at the right
    ("long_writer", "v1^-1 a a v0^-1"),         # no junction cancels
    ("toy_deleter", "q0s y y q1s"),             # at the right
    ("unreduced_writer", "u0 a^-1 u1"),         # wholly, at either end
]


@pytest.mark.parametrize("kind", ["empty", "left", "right", "whole", "into"])
def test_fixture_words_meet_every_junction(kind):
    # The drawn words alone reach every kind of junction, "into" too.
    find(fixture_words(), lambda case: kind in _junctions(*case),
         settings=settings(max_examples=500, derandomize=True, database=None))


def test_kernel_meets_every_junction():
    machines = {m.name: m for m in _fixture_machines()}
    kinds = set()
    for name, text in JUNCTION_WORDS:
        m = machines[name]
        aw = parse_admissible(m.hw, text)
        check_kernel(m, [aw])
        kinds |= _junctions(m, aw)
    assert kinds == {"empty", "left", "right", "whole", "into"}


# The fixtures and input words of test_kernel_on_fixtures, in the order
# of _fixture_machines().
FIXTURE_INPUTS = {"deleter": "y y y^-1 y^-1",
                  "paired": "a_l b_r a_r^-1 b_l a_l",
                  "two_sided": "a b a b^-1 a",
                  "unreduced": "a b a^-1 b a",
                  "cyclic_enhanced": "y y y",
                  "z2_encoder": "x x x"}


def _fixture_start(name):
    m = _fixture_machines()[list(FIXTURE_INPUTS).index(name)]
    words = ([Word.from_tokens(FIXTURE_INPUTS[name])]
             + [EMPTY] * (len(m.input_sectors) - 1))
    return m, input_configuration(m, words)


@pytest.mark.parametrize("name", list(FIXTURE_INPUTS))
def test_skip_drops_exactly_that_signed_rule(name):
    m, start = _fixture_start(name)
    for c in _ball(m, start):
        every = successors(m, c)
        for skip in m.signed_rules():
            assert successors(m, c, skip) == [t for t in every
                                              if t[:2] != skip]


def test_foreign_hardware_expands_alike():
    m, other = toy_deleter(), toy_deleter()
    for c in _ball(other, input_configuration(other, Word.from_tokens("y y"))):
        own = parse_admissible(m.hw, c.to_word())
        for skip in (None,) + m.signed_rules():
            # Equal results lie on m's own hardware.
            assert successors(m, c, skip) == successors(m, own, skip)


def _reference_computations(m, start, max_steps, prune=None):
    """Every computation from start with a freely reduced history, as
    (steps, end) pairs in depth-first order: a recursion that tries each
    signed rule through apply_ex, in (name, sign) order.  A node within
    the bound is passed to prune(config, depth) as soon as it is listed,
    and not extended if that returns true."""
    out = []

    def visit(steps, c):
        out.append((steps, c))
        if len(steps) >= max_steps or prune is not None and prune(c, len(steps)):
            return
        for rule, sign in m.signed_rules():
            if not steps or steps[-1] != (rule, -sign):
                res = m.apply_ex(c, rule, sign)
                if res.ok:
                    visit(steps + ((rule, sign),), res.result)

    visit((), start)
    return out


@pytest.mark.parametrize("name", ["deleter", "two_sided", "cyclic_enhanced"])
def test_enumeration_agrees_with_reference(name):
    m, start = _fixture_start(name)
    for depth in range(5):
        got = list(reduced_computations(m, start, depth))
        assert got == _reference_computations(m, start, depth)


@pytest.mark.parametrize("name", ["deleter", "two_sided", "cyclic_enhanced"])
def test_pruned_enumeration_agrees_with_reference(name):
    m, start = _fixture_start(name)
    limit = start.tape_length() + 1

    def recorder(seen):
        """A prune that cuts long tapes and logs its calls; given the list
        of pairs yielded so far, it checks that its node came last."""
        calls = []

        def prune(c, depth):
            if seen is not None:
                assert seen[-1][1] is c and len(seen[-1][0]) == depth
            calls.append((c, depth))
            return c.tape_length() > limit
        return calls, prune

    want_calls, prune = recorder(None)
    want = _reference_computations(m, start, 5, prune)
    got = []
    got_calls, prune = recorder(got)
    for pair in reduced_computations(m, start, 5, prune=prune):
        got.append(pair)
    assert got == want and got_calls == want_calls
    # The prune cuts some branches and lets others grow.
    assert len(_reference_computations(m, start, 5)) > len(want)
    assert max(len(steps) for steps, _ in want) >= 2


def _flat_stack_computations(m, start, max_steps, prune=None):
    """reduced_computations as it ran on one flat stack of pending
    (steps, end) pairs, each node's children pushed in reverse so that
    the first pops first."""
    stack = [((), start)]
    while stack:
        steps, end = stack.pop()
        yield steps, end
        depth = len(steps)
        if depth < max_steps and not (prune is not None and prune(end, depth)):
            back = (steps[-1][0], -steps[-1][1]) if steps else None
            stack += [(steps + ((rule, sign),), res) for rule, sign, res
                      in reversed(successors(m, end, back))]


@PROPERTY
@given(machines(), st.integers(-1, 4), st.one_of(st.none(), st.integers(0, 3)),
       st.integers(0, 2))
def test_frame_walk_agrees_with_flat_stack(case, max_steps, cut_depth, cut_tape):
    # The same pairs in the same order and the same prune calls, with no
    # prune, with one that cuts at depth 0 and with ones that cut deeper
    # or on long tapes; the bound -1 and 0 yield the start alone.
    m, start = case

    def recorder():
        calls = []

        def prune(c, depth):
            calls.append((c, depth))
            return depth >= cut_depth or c.tape_length() > cut_tape
        return calls, (None if cut_depth is None else prune)

    runs = []
    for walk in (reduced_computations, _flat_stack_computations):
        calls, prune = recorder()
        pairs = list(itertools.islice(walk(m, start, max_steps, prune), 2000))
        runs.append((pairs, calls))
    assert runs[0] == runs[1]
    if max_steps <= 0 or cut_depth == 0:
        assert runs[0][0] == [((), start)]


# -- the breadth-first searches against a parent-map reference -------------


class _ReferenceVisited:
    """One side of a breadth-first search kept as a parent map, key ->
    (parent key, a, b) or None for the root, with a frontier of (key,
    node) pairs and the layers run, each node keyed by its flat key()."""

    def __init__(self, key, root):
        self.parents = {key: None}
        self.frontier = [(key, root)]
        self.depth = 0

    def __contains__(self, key):
        return key in self.parents

    def __len__(self):
        return len(self.parents)

    def path(self, key):
        parents, steps = self.parents, []
        while parents[key] is not None:
            key, a, b = parents[key]
            steps.append((a, b))
        return steps[::-1]

    def layers(self, expand, max_steps, stop=None):
        parents = self.parents
        while self.frontier and self.depth < max_steps and (
                stop is None or len(parents) < stop):
            nxt = []
            frontier, self.frontier = self.frontier, nxt
            self.depth += 1
            for ckey, c in frontier:
                for a, b, res in expand(c, parents[ckey]):
                    k = res.key()
                    if k not in parents:
                        parents[k] = (ckey, a, b)
                        nxt.append((k, res))
                        yield k, res
                        if stop is not None and len(parents) >= stop:
                            return


def _reference_expand(m):
    def expand(c, entry):
        return successors(m, c, entry and (entry[1], -entry[2]))
    return expand


def _reference_shortest(expand, start, tkey, max_steps, max_nodes=None):
    skey = start.key()
    if skey == tkey:
        return FOUND, [], 0, 1
    seen = _ReferenceVisited(skey, start)
    for k, _ in seen.layers(expand, max_steps, max_nodes):
        if k == tkey:
            return FOUND, seen.path(k), seen.depth, len(seen)
    return (BOUNDED if seen.frontier else UNREACHABLE), None, None, len(seen)


def _reference_history(path):
    return Word([(atom(rule.name), sign) for rule, sign in path])


def _reference_bfs(m, start, target, max_steps, max_nodes=None):
    status, path, depth, explored = _reference_shortest(
        _reference_expand(m), start, target.key(), max_steps, max_nodes)
    history = None if path is None else _reference_history(path)
    return ReachResult(status, history, depth, explored)


def _reference_reachable(m, start, max_steps):
    start = AdmissibleWord(m.hw, start.states, start.tapes)
    seen = _ReferenceVisited(start.key(), start)
    dist = {start: 0}
    for _, res in seen.layers(_reference_expand(m), max_steps):
        dist[res] = seen.depth
    return dist, not seen.frontier


def _reference_meet(m, start, target, max_steps, max_nodes=None, read=None):
    """meet_reach on fresh parent-map sides; read, if given, gets the
    size of the target's side the search grew."""
    skey, tkey = start.key(), target.key()
    if skey == tkey:
        return ReachResult(FOUND, EMPTY, 0, 1)
    expand = _reference_expand(m)
    sides = fwd, back = (_ReferenceVisited(skey, start),
                         _ReferenceVisited(tkey, target))
    meet = None
    while (meet is None and fwd.frontier and back.frontier
           and fwd.depth + back.depth < max_steps
           and (max_nodes is None or len(fwd) + len(back) < max_nodes)):
        here, there = sorted(sides, key=lambda side: len(side.frontier))
        stop = None if max_nodes is None else max_nodes - len(there)
        for k, _ in here.layers(expand, here.depth + 1, stop):
            if meet is None and k in there:
                meet = k
    explored = len(fwd) + len(back)
    if read is not None:
        read.append(len(back))
    if meet is None:
        status = BOUNDED if fwd.frontier and back.frontier else UNREACHABLE
        return ReachResult(status, explored=explored)
    history = (_reference_history(fwd.path(meet))
               * _reference_history(back.path(meet)).inverse())
    return ReachResult(FOUND, history, fwd.depth + back.depth, explored)


def _reference_area(p, w, max_area, moves="symmetrized"):
    """area_oracle on _reference_shortest, keyed by the flat key()."""
    w = free_reduce(w)
    if not abelianized_trivial(p, w):
        return AreaResult(IMPOSSIBLE)
    ins = (stored_relators(p) if moves == "stored"
           else sorted(symmetrized_closure(p.relators), key=Word.sort_key))
    max_len = len(w) + 2 * max((len(r) for r in p.relators), default=1)
    explored = 0

    def insertions(u, _entry):
        nonlocal explored
        for s in ins:
            for pos in range(len(u), -1, -1):
                v = Word._of(splice(u.letters[:pos], s.letters,
                                    u.letters[pos:])[0])
                explored += 1
                if len(v) <= max_len:
                    yield (s, pos), v, v

    status, path, depth, _ = _reference_shortest(insertions, w, EMPTY.key(),
                                                 max_area)
    if status != FOUND:
        return AreaResult(BOUNDED, explored=explored)
    return AreaResult(FOUND, depth, tuple([a for a, _ in path]),
                      (w,) + tuple(v for _, v in path), explored)


def _budgets(m, start, bound):
    """No budget, 1 and 2, and the budgets that stop a breadth-first side
    one node into a layer, at a layer's last node and one node before it."""
    dist, _ = _reference_reachable(m, start, bound)
    ends = list(itertools.accumulate(
        collections.Counter(dist.values())[d] for d in range(bound + 1)))
    return sorted({1, 2} | {e + k for e in ends for k in (-1, 0, 1)
                            if e + k >= 1}) + [None]


def check_searches(m, start, targets, bound):
    """bfs_reach, meet_reach and reachable_configs give the reference's
    answers, explored counts, distances and discovery order."""
    for depth in range(bound + 1):
        dist, whole = reachable_configs(m, start, depth)
        want, want_whole = _reference_reachable(m, start, depth)
        assert list(dist.items()) == list(want.items())
        assert whole == want_whole
    for budget in _budgets(m, start, bound):
        for target in targets:
            for search, reference in ((bfs_reach, _reference_bfs),
                                      (meet_reach, _reference_meet)):
                got = search(m, start, target, bound, max_nodes=budget)
                assert got == reference(m, start, target, bound, budget)


@PROPERTY
@given(machines(), st.data())
def test_searches_agree_with_parent_map_reference(case, data):
    m, start = case
    dist, _ = _reference_reachable(m, start, 3)
    far = data.draw(st.sampled_from(list(dist)))
    check_searches(m, start, [accept_configuration(m), start, far], 4)


@pytest.mark.parametrize("name", list(FIXTURE_INPUTS))
def test_fixture_searches_agree_with_parent_map_reference(name):
    m, start = _fixture_start(name)
    dist, _ = _reference_reachable(m, start, 3)
    # The accept configuration, the last one reached and a shallow one.
    targets = [accept_configuration(m), list(dist)[-1], list(dist)[1]]
    check_searches(m, start, targets, 4)


def test_area_oracle_agrees_with_parent_map_reference():
    p = commutator_presentation()
    words = [Word.from_tokens(t) for t in (
        "ε", "x", "x y x^-1 y^-1", "y^-1 x y x^-1", "x y y x^-1 y^-1 y^-1",
        "x x y x^-1 x^-1 y^-1", "x y x^-1 y^-1 y x y^-1 x^-1",
        "x y x^-1 y^-1 x y x^-1 y^-1")]
    statuses = set()
    for w in words:
        for moves in ("symmetrized", "stored"):
            for max_area in (1, 2, 3):
                got = area_oracle(p, w, max_area, moves=moves)
                assert got == _reference_area(p, w, max_area, moves)
                statuses.add(got.status)
    assert statuses == {FOUND, BOUNDED, IMPOSSIBLE}


# -- the shared accept side against a fresh one ------------------------------


@functools.cache
def _accept_side_machines():
    """The fixture machines, the commutator encoder, LR({a, b}) and the
    enhanced deleter; the z2 encoder is a fixture machine."""
    return _fixture_machines() + [
        presentation_to_machine(commutator_presentation()),
        build_lr(["a", "b"]), build_enhanced_standard(toy_deleter())]


def _meet_queries(m, rng):
    """Meet queries of m in a shuffled order, as (start, target, bound,
    budget): from its inputs of length at most 2, the configurations
    within 2 steps of its accept configuration and that configuration
    itself, to the accept configuration, under a budget of 2, 7, 40 or
    300 nodes or none, and from every fourth of them to the last of
    those configurations within 2 steps, whose side is private."""
    acc = accept_configuration(m)
    near = list(_reference_reachable(m, acc, 2)[0])
    starts = [input_configuration(m, inputs)
              for inputs in enumerate_inputs(m, 2)] + near
    queries = [(s, acc, bound, budget) for s in starts
               for bound, budget in ((3, None), (5, None), (12, 2), (12, 7),
                                     (12, 40), (12, 300))]
    queries += [(s, near[-1], 6, 40) for s in starts[::4]]
    rng.shuffle(queries)
    return queries


def check_accept_side(m, queries):
    """Each query gives the answer of a fresh side, the parent-map
    reference's, and m's accept-side log then holds as many places as
    the most any meet to the accept configuration has read of its side.
    Returns how many queries read less of that side than the log held
    before them and how many read more."""
    def held():
        log = _ACCEPT_SIDES.get(m)
        return 1 if log is None else len(log)

    fewer = more = 0
    acc_key = _key(accept_configuration(m))
    for start, target, bound, budget in queries:
        before, read = held(), []
        want = _reference_meet(m, start, target, bound, budget, read)
        assert meet_reach(m, start, target, bound, budget) == want
        if read and _key(target) == acc_key:
            fewer += read[0] < before
            more += read[0] > before > 1
            before = max(before, read[0])
        assert held() == before
    return fewer, more


def test_accept_side_answers_as_a_fresh_side():
    # Each machine's queries run on a deep copy of it, a machine with a
    # log of its own: once all on one copy, and once in runs of ten, each
    # on a new copy, so that more queries find a log grown past its root
    # but not as far as they read.
    fewer = more = 0
    for index, m in enumerate(_accept_side_machines()):
        queries = _meet_queries(m, random.Random(index))
        for run in [queries] + [queries[k:k + 10]
                                for k in range(0, len(queries), 10)]:
            counts = check_accept_side(copy.deepcopy(m), run)
            fewer, more = fewer + counts[0], more + counts[1]
    assert fewer > 100 and more > 100, (fewer, more)


@PROPERTY
@given(machines(), st.randoms(use_true_random=False))
def test_accept_side_answers_as_a_fresh_side_on_random_machines(case, rng):
    m, _ = case
    check_accept_side(m, _meet_queries(m, rng))


def _reference_table(m, n_max, bound, max_nodes):
    """time_function(m, n_max, bound, "meet", max_nodes) on the reference."""
    values, complete, rejected, best, every = {}, {}, [], 0, True
    acc = accept_configuration(m)
    for n in range(n_max + 1):
        for inputs in enumerate_inputs(m, n, exact=True):
            res = _reference_meet(m, input_configuration(m, inputs), acc,
                                  bound, max_nodes)
            if res.found:
                best = max(best, res.length)
            elif res.status == UNREACHABLE:
                rejected.append(inputs)
            else:
                every = False
        values[n], complete[n] = best, every
    return values, complete, rejected


def test_meet_tables_share_the_accept_side():
    # Every machine but the cyclic one, which has no accept configuration:
    # nine tables, each of whose searches stop at 25 nodes.
    tables = 0
    for m in _accept_side_machines():
        if not m.cyclic:
            got = time_function(m, 3, 12, "meet", max_nodes=25)
            assert tuple(got) == _reference_table(m, 3, 12, 25), m.name
            tables += 1
    assert tables == 9


def test_accept_side_does_not_keep_its_machine_alive():
    # The log is kept by machine, weakly: a search cut inside a layer
    # leaves the log's walk suspended, and it holds nothing that keeps
    # the machine.
    m = build_lr(["a", "b"])
    alive = weakref.ref(m)
    res = accepts(m, Word.from_tokens("a#1 b#1"), 12, "meet", max_nodes=40)
    assert res.status == BOUNDED and m in _ACCEPT_SIDES
    del m, res
    gc.collect()
    assert alive() is None
