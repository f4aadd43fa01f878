"""Property tests for trapezia on random machines and on fixtures.

Each computation is freely reduced, has at most 8 steps and starts from a
standard-base configuration.  Its trapezium must validate, replay the
computation and dump to the same bytes on a second build, and the
conjugator read off the history must be the label of both sides.  The
dump must be the text json.dumps writes for the same document.
The label group records for each word of a machine's closure must be the
one its letters name.  The row builder's free-reduction scan must pair
the letters of its inputs as a plain stack pass does.  Every single
corruption of a trapezium of at least two rows must be refused with a
GroupError, and so must every single corruption of a computation that
no longer follows its history; one that still does must flatten.  A row
built for any rule on any nearby configuration, whether the machine
allows the step or not, must validate exactly when the step is one the
kernel takes.  Examples are derandomized to keep the suite deterministic.
"""
import json
import random
from itertools import chain
from operator import itemgetter

import pytest
from hypothesis import assume, given, settings, strategies as st

from smforge import group
from smforge.encode import presentation_to_machine
from smforge.enhance import build_enhanced_standard, make_cyclic
from smforge.fixtures import (commutator_presentation,
                              one_sector_left_multiplier, paired_multiplier,
                              toy_deleter, trivial_acceptor,
                              two_sided_multiplier, z2_presentation)
from smforge.group import (Cell, Edge, GroupError, Row, Trapezium,
                           computation_to_trapezium,
                           conjugator_from_accepting, machine_to_group,
                           theta_atom, trapezium_dumps,
                           trapezium_to_computation, trapezium_to_dict,
                           validate_trapezium)
from smforge.machine import (AdmissibleWord, Computation,
                             input_configuration, parse_admissible, run)
from smforge.primitive import build_lr, build_rl, home_configuration
from smforge.search import reachable_configs, successors
from smforge.words import (Word, _cancellations, free_reduce,
                           symmetrized_closure)

from test_group import cyclic_emitter
from test_search_properties import _long_writer, _unreduced_writer, machines

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
    # Every edge shares the one record of its generator.
    edge_of = group._group_record(m)[0]
    assert all(edge is edge_of[edge.atom] for edge in trap.edges.values())
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
FIXTURES = [
    pytest.param(
        _unreduced_writer,
        lambda m: input_configuration(m, Word.from_tokens("a b a^-1")), 4,
        id="unreduced"),
    pytest.param(
        lambda: make_cyclic(build_enhanced_standard(toy_deleter())),
        lambda m: input_configuration(m, Word.from_tokens("y y")), 20,
        id="cyclic_enhanced"),
    pytest.param(cyclic_emitter, lambda m: parse_admissible(m.hw, "u a0 v"),
                 4, id="cyclic_emitter"),
]


@pytest.mark.parametrize("build, start, walks", FIXTURES)
def test_fixture_computations(build, start, walks):
    m = build()
    rng = random.Random(7)
    for _ in range(walks):
        check_trapezium(m, _walk(m, start(m), rng.choice, 8))


def _put(items, i, item):
    return tuple(items[:i]) + (item,) + tuple(items[i + 1:])


def _flipped(path):
    return tuple([(e, -o) for e, o in path])


def _row(r, **fields):
    return Row(*[fields.get(f, getattr(r, f)) for f in Row.__slots__])


def _cell(c, **fields):
    return Cell(*[fields.get(f, getattr(c, f)) for f in Cell.__slots__])


def corruptions(trap, choose):
    """(name, trapezium) for each single corruption of a valid trapezium
    of at least two rows: a row's rule, sign, side, bottom or top; a
    cell's row, label or boundary; an edge's atom or kind; an inner stored
    word replaced by another that differs from it, with the two row paths
    that spell it pointed at that word's path.  choose picks the row,
    cell, edge, word and replacement among the candidates."""
    m, rows, cells, edges = trap.machine, trap.rows, trap.cells, trap.edges
    words = trap.words

    def rebuilt(rows=rows, cells=cells, edges=edges, words=words):
        return Trapezium(m, rows, cells, edges, words)

    j = choose(range(len(rows)))
    r = rows[j]
    rules = [x.name for x in m.rules if x.name != r.rule] or ["nope"]
    for name, fields in {
            "row_rule": {"rule": choose(rules)}, "row_sign": {"sign": -r.sign},
            "row_left": {"left": _flipped(r.left)},
            "row_right": {"right": _flipped(r.right)},
            "row_bottom": {"bottom": _flipped(r.bottom)},
            "row_top": {"top": _flipped(r.top)}}.items():
        yield name, rebuilt(rows=_put(rows, j, _row(r, **fields)))
    i = choose(range(len(cells)))
    c = cells[i]
    for name, fields in {
            "cell_row": {"row": (c.row + 1) % len(rows)},
            "cell_kind": {"kind": "ta" if c.kind == "tq" else "tq"},
            "cell_index": {"index": c.index + 1},
            "cell_boundary": {"boundary": _flipped(c.boundary[:1])
                              + c.boundary[1:]}}.items():
        yield name, rebuilt(cells=_put(cells, i, _cell(c, **fields)))
    e = choose(sorted(edges))
    edge = edges[e]
    atoms = [g for g in machine_to_group(m).generators if g != edge.atom]
    kinds = [k for k in ("q", "a", "theta") if k != edge.kind]
    yield "edge_atom", rebuilt(edges={**edges, e: Edge(choose(atoms),
                                                       edge.kind)})
    yield "edge_kind", rebuilt(edges={**edges, e: Edge(edge.atom,
                                                       choose(kinds))})
    j = choose(range(1, len(rows)))
    others = [k for k, aw in enumerate(words) if aw != words[j]]
    if others:
        k = choose(others)
        path = rows[k].bottom if k < len(rows) else rows[-1].top
        forged = _put(_put(rows, j - 1, _row(rows[j - 1], top=path)), j,
                      _row(rows[j], bottom=path))
        yield "stored_word", rebuilt(rows=forged,
                                     words=_put(words, j, words[k]))


def check_corruptions(trap, choose):
    assert validate_trapezium(trap)
    for name, bad in corruptions(trap, choose):
        try:
            validate_trapezium(bad)
        except GroupError:
            continue
        pytest.fail(f"{name}: the corrupted trapezium validates")


@PROPERTY
@given(machines(), st.data())
def test_corruptions_of_random_computations(case, data):
    m, start = case
    comp = _walk(m, start,
                 lambda options: data.draw(st.sampled_from(options)),
                 data.draw(st.integers(2, 8)))
    assume(len(comp) >= 2)
    check_corruptions(computation_to_trapezium(m, comp),
                      lambda seq: data.draw(st.sampled_from(seq)))


@pytest.mark.parametrize("build, start, walks", FIXTURES)
def test_corruptions_of_fixture_computations(build, start, walks):
    m = build()
    rng = random.Random(7)
    for _ in range(walks):
        comp = _walk(m, start(m), rng.choice, 8)
        if len(comp) >= 2:
            check_corruptions(computation_to_trapezium(m, comp), rng.choice)


def computation_corruptions(comp, choose):
    """(name, computation) for each single corruption of a computation of
    at least two steps: a configuration dropped, duplicated or swapped
    with the next one, or a step's sign flipped.  choose picks the
    configuration and the step."""
    configs, steps = comp.configs, comp.steps

    def rebuilt(configs=configs, steps=steps):
        return Computation(comp.machine, configs[0], steps, configs)

    i = choose(range(len(configs)))
    yield "drop", rebuilt(configs=configs[:i] + configs[i + 1:])
    yield "duplicate", rebuilt(configs=configs[:i + 1] + configs[i:])
    k = choose(range(len(configs) - 1))
    yield "swap", rebuilt(configs=_put(_put(configs, k, configs[k + 1]),
                                       k + 1, configs[k]))
    t = choose(range(len(steps)))
    rule, sign = steps[t]
    yield "step_sign", rebuilt(steps=_put(steps, t, (rule, -sign)))


def follows(comp):
    """The reference: one configuration more than steps, and each step
    takes its configuration to the next, as successors lists it."""
    m, configs = comp.machine, comp.configs
    return len(configs) == len(comp.steps) + 1 and all(
        (rule, sign, after) in successors(m, before)
        for (rule, sign), before, after in zip(comp.steps, configs,
                                                configs[1:]))


def check_computation_corruptions(comp, choose):
    m = comp.machine
    assert validate_trapezium(computation_to_trapezium(m, comp))
    for name, bad in computation_corruptions(comp, choose):
        if follows(bad):
            assert validate_trapezium(computation_to_trapezium(m, bad)), name
            continue
        for flatten in (computation_to_trapezium, conjugator_from_accepting):
            try:
                flatten(m, bad)
            except GroupError as err:
                assert str(err) == "one more stored word than rows expected" \
                    or str(err).endswith(" does not replay"), (name, err)
            else:
                pytest.fail(f"{name}: {flatten.__name__} takes the "
                            "corrupted computation")


@PROPERTY
@given(machines(), st.data())
def test_corruptions_of_random_computation_histories(case, data):
    m, start = case
    comp = _walk(m, start,
                 lambda options: data.draw(st.sampled_from(options)),
                 data.draw(st.integers(2, 8)))
    assume(len(comp) >= 2)
    check_computation_corruptions(comp,
                                  lambda seq: data.draw(st.sampled_from(seq)))


def test_corruption_that_still_replays_flattens():
    # idle writes nothing and keeps the state letters, so idle^-1 takes
    # each configuration where idle does: the flipped step still replays,
    # and the check must flatten and validate it.
    m = one_sector_left_multiplier(idle=True)
    comp = run(m, input_configuration(m, Word.from_tokens("a")),
               ["mul(b)", "idle", "mul(a)"])
    choose = itemgetter(1)
    bad = dict(computation_corruptions(comp, choose))["step_sign"]
    assert bad.steps[1] == (m.rule("idle"), -1) and follows(bad)
    check_computation_corruptions(comp, choose)


def scanned_labels(m):
    """The reference: each closure word of the default M(m) labelled by
    scanning its letters.  The rule is that of its theta letters, then
    "tq" and the part of its state letters, or "ta" and the sector of its
    tape letter."""
    part_of, sector_of = m.hw.part_of, m.hw.sector_of
    rule_of = {theta_atom(r.name, i): r.name
               for r in m.rules for i in range(m.n_parts)}
    closure = {}
    for w in symmetrized_closure(machine_to_group(m).relators):
        rule = next(rule_of[a] for a, _ in w if a in rule_of)
        parts = [part_of[a] for a, _ in w if a in part_of]
        closure[w.letters] = (
            ("tq", rule, parts[0]) if parts else
            ("ta", rule, next(sector_of[a] for a, _ in w if a in sector_of)))
    return closure


def check_labels(m):
    assert group._group_record(m)[1] == scanned_labels(m)


@pytest.mark.parametrize("build", [
    toy_deleter, trivial_acceptor, one_sector_left_multiplier,
    lambda: one_sector_left_multiplier(idle=True), paired_multiplier,
    two_sided_multiplier,
    lambda: build_lr(["a", "b"]), lambda: build_rl(["a", "b"]),
    lambda: build_enhanced_standard(toy_deleter()),
    lambda: make_cyclic(build_enhanced_standard(toy_deleter())),
    lambda: presentation_to_machine(z2_presentation()),
    lambda: presentation_to_machine(commutator_presentation()),
    _unreduced_writer, cyclic_emitter,
], ids=["toy_deleter", "trivial_acceptor", "left_multiplier",
        "idle_left_multiplier", "paired_multiplier", "two_sided_multiplier",
        "lr", "rl", "enhanced_deleter", "cyclic_enhanced_deleter",
        "z2_encoder", "commutator_encoder", "unreduced", "cyclic_emitter"])
def test_closure_labels_are_pinned(build):
    """Every recorded label is the one the closure word's letters name."""
    check_labels(build())


@PROPERTY
@given(machines())
def test_closure_labels_of_random_machines(case):
    check_labels(case[0])


def _fold(*words):
    """The flat letters of the product of words and, for each, the position
    it cancels with or None: the stack pass that paired a row's letters
    before the row builder shared free_reduce's scan, kept as the
    reference."""
    letters = list(chain.from_iterable([w.letters for w in words]))
    partner = [None] * len(letters)
    stack = []
    for t, (a, e) in enumerate(letters):
        if stack and letters[stack[-1]] == (a, -e):
            s = stack.pop()
            partner[s], partner[t] = t, s
        else:
            stack.append(t)
    return letters, partner


def check_row_scans(m, start):
    """For each rule applied to a configuration within three steps of
    start, each sector's right write . tape . left write, the letters the
    row builder scans, pairs as _fold pairs them, and the survivors are
    the unpaired positions in order."""
    n = m.n_parts
    for c in reachable_configs(m, start, 3)[0]:
        for rule, sign, res in successors(m, c):
            lo, rp = (c if sign > 0 else res), rule.parts
            for s in range(n - 1):
                pieces = (rp[s].right, lo.tapes[s], rp[s + 1].left)
                letters = (pieces[0] * pieces[1] * pieces[2]).letters
                partner, survivors = _cancellations(letters)
                assert (list(letters), partner) == _fold(*pieces)
                assert survivors == [t for t, p in enumerate(partner)
                                     if p is None]


@pytest.mark.parametrize("build, inputs", [
    (_unreduced_writer, "a b a^-1 b a"), (_long_writer, "a^-1 b a b"),
    (toy_deleter, "y y y"), (paired_multiplier, "a_l b_r a_r^-1 b_l"),
    (two_sided_multiplier, "a b a b^-1"),
    (lambda: make_cyclic(build_enhanced_standard(toy_deleter())), "y y"),
], ids=["unreduced", "long_writer", "deleter", "paired", "two_sided",
        "cyclic_enhanced"])
def test_row_scan_pairs_as_a_stack_pass(build, inputs):
    m = build()
    check_row_scans(m, input_configuration(m, Word.from_tokens(inputs)))


@PROPERTY
@given(machines())
def test_row_scan_pairs_as_a_stack_pass_on_random_machines(case):
    check_row_scans(*case)


def forged_result(m, lo, rule):
    """What the top of the row built for a positive step of rule on lo
    spells, whether the step applies or not: the rule's end state letters
    and, in each sector, the reduced right write . tape . left write.  No
    state letter, domain or lock is checked."""
    rp = rule.parts
    return AdmissibleWord(m.hw, [(p.to, 1) for p in rp], [
        free_reduce(rp[s].right * lo.tapes[s] * rp[s + 1].left)
        for s in range(m.n_parts - 1)])


def forged_trapezium(m, configs, steps):
    """The trapezium construction builds for configs along steps, with
    nothing checked first: each row is the row builder's, as a forger
    would mount it, whether the kernel takes its step or not."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(group, "_check_computation", lambda m, comp: None)
        return computation_to_trapezium(
            m, Computation(m, configs[0], steps, configs))


def check_forgeries(m, start, radius):
    """For each configuration c within radius of start and each rule, the
    row built from c (forged_result) is mounted both ways up: as the step
    c -> hi of sign 1 and as hi -> c of sign -1.  Each is validated alone,
    mounted last above a genuine step into its bottom, and followed by a
    genuine step out of its top.  Validation must refuse it exactly when
    the kernel does not take the step, and an accepted trapezium's row
    top must spell the kernel's result.  Returns the numbers of
    trapezia refused and accepted."""
    tally = [0, 0]
    for c in reachable_configs(m, start, radius)[0]:
        for rule in m.rules:
            hi = forged_result(m, c, rule)
            for lo, sign, hi in ((c, 1, hi), (hi, -1, c)):
                ok = (rule, sign, hi) in successors(m, lo)
                shapes = [((lo, hi), [(rule, sign)], 0)]
                for r, s, x in successors(m, lo)[:1]:
                    shapes.append(((x, lo, hi), [(r, -s), (rule, sign)], 1))
                for r, s, y in successors(m, hi)[:1]:
                    shapes.append(((lo, hi, y), [(rule, sign), (r, s)], 0))
                for configs, steps, k in shapes:
                    trap = forged_trapezium(m, configs, steps)
                    try:
                        validate_trapezium(trap)
                    except GroupError:
                        assert not ok, (rule.name, sign, lo, configs)
                        tally[0] += 1
                        continue
                    assert ok, (rule.name, sign, lo, hi, configs)
                    result = m.apply_ex(lo, rule, sign).result
                    assert trap.path_word(trap.rows[k].top) == result.to_word()
                    assert trapezium_to_computation(trap).configs == configs
                    tally[1] += 1
    return tally


def _input(tokens):
    return lambda m: input_configuration(m, Word.from_tokens(tokens))


def _home(tokens):
    return lambda m: home_configuration(m, Word.from_tokens(tokens))


@pytest.mark.parametrize("build, start, radius, refused, accepted", [
    (toy_deleter, _input("y y"), 3, 36, 48),
    (lambda: one_sector_left_multiplier(idle=True), _input("a"), 3, 0, 954),
    (two_sided_multiplier, _input("a b"), 2, 0, 1032),
    (paired_multiplier, _input("a_l b_r"), 2, 0, 204),
    (lambda: build_lr(["a", "b"]), _home("a b"), 3, 966, 654),
    (lambda: build_rl(["a", "b"]), _home("a b"), 3, 966, 654),
    (lambda: presentation_to_machine(z2_presentation()), _input("x x"), 2,
     3016, 1146),
    (lambda: build_enhanced_standard(toy_deleter()), _input("y y"), 2, 2230,
     438),
], ids=["toy_deleter", "idle_left_multiplier", "two_sided_multiplier",
        "paired_multiplier", "lr", "rl", "z2_encoder", "enhanced_deleter"])
def test_forged_rows_validate_exactly_when_the_kernel_steps(
        build, start, radius, refused, accepted):
    """The kernel refuses for a state letter the rule does not take and
    for a tape letter outside its domain, or in a sector it locks, as
    toy_deleter's acc and LR's zeta do.  The multipliers' rules apply
    everywhere, so nothing of theirs is refused."""
    m = build()
    assert check_forgeries(m, start(m), radius) == [refused, accepted]


@PROPERTY
@given(machines())
def test_forged_rows_on_random_machines(case):
    check_forgeries(*case, 2)
