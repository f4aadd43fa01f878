"""Property tests for the shared rule-expansion loop on random machines.

Machines are small (2-3 parts, at most two letters per sector, at most
three rules with writes of length at most one inside the domains), so
every search below finishes in milliseconds.  Examples are derandomized
to keep the suite deterministic.
"""
import itertools

from hypothesis import assume, given, settings, strategies as st

from smforge.machine import (
    Hardware,
    Machine,
    MachineError,
    RulePart,
    StatePart,
    accept_configuration,
    input_configuration,
    make_rule,
    run,
)
from smforge.search import (
    FOUND,
    bfs_reach,
    meet_reach,
    reachable_configs,
    reduced_computations,
    successors,
)
from smforge.words import EMPTY, Word, atom, reduced_words

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
