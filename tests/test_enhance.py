import pytest

from smforge.enhance import (
    accepting_computation_from_history,
    add_historical_sectors,
    build_enhanced_standard,
    compose,
    hl,
    hr,
    make_cyclic,
    pad_locked,
    step_history,
    working_length,
)
from smforge.fixtures import one_sector_left_multiplier, toy_deleter, trivial_acceptor
from smforge.machine import (
    MachineError,
    accept_configuration,
    input_configuration,
    run,
)
from smforge.primitive import (build_lr, build_rl, standard_lr_computation,
                                standard_rl_computation)
from smforge.search import reduced_computations
from smforge.serialize import machine_dumps
from smforge.words import EMPTY, Word, atom, free_reduce


def W(text):
    return Word.from_tokens(text)


def copy_word(history, which, block):
    """L- or R-copy of a history word in the historical alphabet."""
    f = hl if which == "L" else hr
    return Word([(f(a.name, block), e) for a, e in history.letters])


def assert_stages_are_copiers(m, history, composed):
    """The @2 and @4 slices of a composed history, untagged, are the
    standard LR and RL histories of the source history over m's rules."""
    names = [r.name for r in m.rules]

    def stage(tag):
        return Word([(atom(a.name.rsplit("@", 1)[0]), e)
                     for a, e in composed.letters
                     if a.name.endswith(f"@{tag}")]).tokens()

    assert stage(2) == standard_lr_computation(build_lr(names),
                                               history).tokens()
    assert stage(4) == standard_rl_computation(build_rl(names),
                                               history).tokens()


class TestHistorical:
    def test_structure(self):
        sh = add_historical_sectors(toy_deleter())
        assert sh.n_parts == 4 and sh.n_sectors == 3
        assert sh.meta["central_sectors"] == (0, 2)
        assert sh.meta["working_sectors"] == (1,)
        assert sh.input_sectors == (1,)
        assert sorted(a.name for a in sh.sector_alphabets[0]) == [
            "acc#L0", "acc#R0", "del#L0", "del#R0"]

    def test_rule_shape(self):
        sh = add_historical_sectors(toy_deleter())
        r = sh.rule("del")
        # Q_0l appends nothing to its left (part 0 of the source wrote
        # nothing), and hl(del,0)^-1 into the central sector.
        assert r.parts[0].right == Word.of((hl("del", 0), -1))
        assert r.parts[1].left == Word.of(hr("del", 0))
        # the working write of part 1 of the source stays on Q_1l's left
        assert r.parts[2].left == W("y^-1")

    def test_central_sector_tracks_history(self):
        m = toy_deleter()
        sh = add_historical_sectors(m)
        c = input_configuration(sh, W("y"))
        comp = run(sh, c, ["del", "acc"])
        h = comp.history_word()
        for block, gap in [(0, 0), (1, 2)]:
            want = free_reduce(copy_word(h, "L", block).inverse()
                               * copy_word(h, "R", block))
            assert comp.end.tapes[gap] == want
        # working sector emptied, states at end letters
        assert comp.end.tapes[1] == EMPTY
        assert [a.name for a, _ in comp.end.states] == [
            "q0f#l", "q0f#r", "q1f#l", "q1f#r"]

    def test_central_invariant_on_all_short_computations(self):
        # Whatever the (freely reduced) history does, each central sector
        # holds copy_L(H)^-1 . copy_R(H).
        sh = add_historical_sectors(toy_deleter())
        start = input_configuration(sh, EMPTY)
        n = 0
        for steps, end in reduced_computations(sh, start, 5):
            h = Word([(atom(r.name), s) for r, s in steps])
            want = free_reduce(copy_word(h, "L", 0).inverse()
                               * copy_word(h, "R", 0))
            assert end.tapes[0] == want
            n += 1
        assert n > 10

    def test_accepts_nothing(self):
        # The accept configuration needs empty centrals, which forces a
        # freely trivial history, which cannot move the state letters.
        sh = add_historical_sectors(toy_deleter())
        acc = accept_configuration(sh)
        for steps, end in reduced_computations(sh, input_configuration(sh, EMPTY), 4):
            assert end != acc

    def test_rejects_cyclic_source(self):
        with pytest.raises(MachineError):
            add_historical_sectors(make_cyclic(toy_deleter()))


class TestPadded:
    def test_structure(self):
        shp = pad_locked(add_historical_sectors(toy_deleter()))
        assert shp.n_parts == 8 and shp.n_sectors == 7
        assert shp.meta["central_sectors"] == (1, 5)
        assert shp.meta["pad_sectors"] == (0, 2, 4, 6)
        assert shp.meta["working_sectors"] == (3,)
        assert shp.input_sectors == (3,)

    def test_pads_locked_by_every_rule(self):
        shp = pad_locked(add_historical_sectors(toy_deleter()))
        for r in shp.rules:
            for s in shp.meta["pad_sectors"]:
                assert r.locked(s)

    def test_same_behaviour_as_split_machine(self):
        m = toy_deleter()
        shp = pad_locked(add_historical_sectors(m))
        c = input_configuration(shp, W("y y"))
        comp = run(shp, c, ["del", "del", "acc"])
        h = comp.history_word()
        assert comp.end.tapes[1] == free_reduce(
            copy_word(h, "L", 0).inverse() * copy_word(h, "R", 0))
        for s in shp.meta["pad_sectors"]:
            assert comp.end.tapes[s] == EMPTY
        assert comp.end.tapes[3] == EMPTY

    def test_working_write_moved_to_pad_parts(self):
        shp = pad_locked(add_historical_sectors(toy_deleter()))
        r = shp.rule("del")
        # block 1: P_1 carries the y^-1 write now
        assert r.parts[4].left == W("y^-1")
        assert r.parts[5].left == EMPTY

    def test_requires_split_machine(self):
        with pytest.raises(MachineError):
            pad_locked(toy_deleter())


class TestComposed:
    def test_structure_and_counts(self):
        em = build_enhanced_standard(toy_deleter())
        assert em.n_parts == 8 and em.n_sectors == 7
        # 2 + (2+2+1) + 2 + (2+2+1) + 2 + 4 transitions = 20
        assert len(em.rules) == 20
        p = em.parts[0]
        assert p.start.name == "u0@1" and p.end.name == "z0@5"

    def test_deterministic(self):
        a = machine_dumps(build_enhanced_standard(toy_deleter()))
        b = machine_dumps(build_enhanced_standard(toy_deleter()))
        assert a == b

    def test_trivial_acceptor_six_steps(self):
        em = build_enhanced_standard(trivial_acceptor())
        h = accepting_computation_from_history(em, EMPTY)
        assert h.tokens() == "sigma(12) zeta@2 sigma(23) sigma(34) xi@4 sigma(45)"
        comp = run(em, input_configuration(em, EMPTY), h)
        assert comp.end == accept_configuration(em)

    def test_accepting_run_deleter(self):
        m = toy_deleter()
        em = build_enhanced_standard(m)
        for text, hist in [("ε", "acc"), ("y", "del acc"),
                           ("y y", "del del acc"), ("y^-1", "del^-1 acc")]:
            h = accepting_computation_from_history(em, W(hist))
            assert len(h) == 7 * len(W(hist)) + 6
            assert_stages_are_copiers(m, W(hist), h)
            comp = run(em, input_configuration(em, W(text)), h)
            assert comp.end == accept_configuration(em)

    def test_wrong_history_fails(self):
        em = build_enhanced_standard(toy_deleter())
        h = accepting_computation_from_history(em, W("acc"))
        comp = run(em, input_configuration(em, W("y")), h, strict=False)
        assert not comp.ok

    def test_phase_summary(self):
        em = build_enhanced_standard(toy_deleter())
        h = accepting_computation_from_history(em, W("del acc"))
        comp = run(em, input_configuration(em, W("y")), h)
        assert step_history(comp) == ["1", "2", "3", "4", "5"]
        h0 = accepting_computation_from_history(em, EMPTY)
        assert step_history(h0) == ["12", "2", "23", "34", "4", "45"]

    def test_working_length_along_run(self):
        m = toy_deleter()
        em = build_enhanced_standard(m)
        h = accepting_computation_from_history(em, W("del acc"))
        comp = run(em, input_configuration(em, W("y")), h)
        lengths = [working_length(em, c) for c in comp.configs]
        # the input letter survives phases 1-2 plus two transitions
        # (9 steps) and dies at del@3, which is step 10.
        assert lengths[0] == 1 and lengths[-1] == 0
        assert max(lengths) == 1
        assert lengths[9] == 1 and lengths[10] == 0

    def test_plain_machine_and_untagged_names(self):
        m = toy_deleter()
        aw = input_configuration(m, W("y y"))
        assert working_length(m, aw) == aw.tape_length() == 2
        assert step_history(W("del acc del")) == ["del", "acc", "del"]

    def test_unknown_history_letter(self):
        em = build_enhanced_standard(toy_deleter())
        with pytest.raises(MachineError, match="not a rule"):
            accepting_computation_from_history(em, W("zeta"))

    def test_multiplier_machine_too(self):
        # a second source machine, to keep the construction honest
        m = one_sector_left_multiplier()
        em = build_enhanced_standard(m)
        # mul prepends, so b a is erased from the front: b^-1, then a^-1.
        h = accepting_computation_from_history(em, W("mul(b)^-1 mul(a)^-1"))
        assert_stages_are_copiers(m, W("mul(b)^-1 mul(a)^-1"), h)
        comp = run(em, input_configuration(em, W("b a")), h)
        assert comp.end == accept_configuration(em)


class TestCyclic:
    def test_structure(self):
        em = build_enhanced_standard(toy_deleter())
        c = make_cyclic(em)
        assert c.cyclic and c.n_sectors == em.n_sectors + 1
        assert not c.sector_alphabets[-1]
        assert make_cyclic(c) is c

    def test_runs_like_the_flat_machine(self):
        em = make_cyclic(build_enhanced_standard(toy_deleter()))
        h = accepting_computation_from_history(em, W("del acc"))
        comp = run(em, input_configuration(em, W("y")), h)
        assert comp.end == accept_configuration(em)

    def test_serializes(self):
        assert "cyclic" in machine_dumps(make_cyclic(toy_deleter()))
