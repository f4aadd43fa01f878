"""Property tests for trapezia on random machines and on fixtures.

Each computation is freely reduced, has at most 8 steps and starts from a
standard-base configuration.  Its trapezium must validate, replay the
computation and dump to the same bytes on a second build, and the
conjugator read off the history must be the label of both sides.  The
dump must be the text json.dumps writes for the same document.
Examples are derandomized to keep the suite deterministic.
"""
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from smforge.enhance import build_enhanced_standard, make_cyclic
from smforge.fixtures import toy_deleter
from smforge.group import (GroupError, computation_to_trapezium,
                           conjugator_from_accepting, trapezium_dumps,
                           trapezium_to_computation, trapezium_to_dict,
                           validate_trapezium)
from smforge.machine import input_configuration, parse_admissible, run
from smforge.search import successors
from smforge.words import Word

from test_group import cyclic_emitter
from test_search_properties import _unreduced_writer, machines

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def check_trapezium(m, comp):
    trap = computation_to_trapezium(m, comp)
    assert validate_trapezium(trap)
    # Consecutive rows share their interface path, and no path names an
    # edge the trapezium dropped.
    paths = [c.boundary for c in trap.cells]
    for r in trap.rows:
        paths += [r.bottom, r.top, r.left, r.right]
    assert {e for path in paths for e, _ in path} <= trap.edges.keys()
    for lower, upper in zip(trap.rows, trap.rows[1:]):
        assert upper.bottom == lower.top
    back = trapezium_to_computation(trap)
    assert back.history_word() == comp.history_word()
    assert back.configs == comp.configs
    text = trapezium_dumps(trap)
    assert trapezium_dumps(computation_to_trapezium(m, comp)) == text
    assert text == json.dumps(trapezium_to_dict(trap), indent=2,
                              sort_keys=True, ensure_ascii=False) + "\n"
    try:
        g = conjugator_from_accepting(m, comp)
    except GroupError as err:
        assert str(err).startswith("a step emits tape letters at the boundary")
        assert any(trap.edges[e].kind != "theta"
                   for e, _ in trap.left + trap.right)
    else:
        assert len(g) == len(comp)
        assert g == trap.path_word(trap.left) == trap.path_word(trap.right)


def _walk(m, start, choose, n):
    """A computation of at most n freely reduced steps; choose picks the
    next (rule, sign, result) among the applicable ones."""
    c, steps = start, []
    for _ in range(n):
        options = [(r, s, res) for r, s, res in successors(m, c)
                   if not (steps and steps[-1] == (r, -s))]
        if not options:
            break
        r, s, c = choose(options)
        steps.append((r, s))
    return run(m, start, steps)


@PROPERTY
@given(machines(), st.data())
def test_random_computations(case, data):
    m, start = case
    n = data.draw(st.integers(0, 8))
    check_trapezium(m, _walk(m, start,
                             lambda options: data.draw(st.sampled_from(options)),
                             n))


# The writer and the emitter have one rule each, so a few walks already
# reach both w^8 and w^-8.
@pytest.mark.parametrize("build, start, walks", [
    (_unreduced_writer,
     lambda m: input_configuration(m, Word.from_tokens("a b a^-1")), 4),
    (lambda: make_cyclic(build_enhanced_standard(toy_deleter())),
     lambda m: input_configuration(m, Word.from_tokens("y y")), 20),
    (cyclic_emitter, lambda m: parse_admissible(m.hw, "u a0 v"), 4),
], ids=["unreduced", "cyclic_enhanced", "cyclic_emitter"])
def test_fixture_computations(build, start, walks):
    m = build()
    rng = random.Random(7)
    for _ in range(walks):
        check_trapezium(m, _walk(m, start(m), rng.choice, 8))
