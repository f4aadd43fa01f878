import hashlib

import pytest

from smforge.enhance import (add_historical_sectors, compose, make_cyclic,
                             pad_locked)
from smforge.fixtures import (one_sector_left_multiplier, paired_multiplier,
                              toy_deleter, two_sided_multiplier)
from smforge.machine import Machine, MachineError, run
from smforge.primitive import (
    build_lr,
    build_rl,
    home_configuration,
    standard_lr_computation,
    standard_rl_computation,
)
from smforge.search import meet_reach
from smforge.serialize import machine_dumps
from smforge.words import (AlphabetMorphism, Atom, Word, atoms,
                           reduced_words)

Y = atoms(["a", "b"])


def W(text):
    return Word.from_tokens(text)


class TestStructure:
    def test_counts(self):
        m = build_lr(Y)
        assert m.n_parts == 3 and m.n_sectors == 2
        assert len(m.rules) == 2 * len(Y) + 1
        assert sorted(a.name for a in m.sector_alphabets[0]) == ["a#1", "b#1"]
        assert sorted(a.name for a in m.sector_alphabets[1]) == ["a#2", "b#2"]

    def test_connecting_rule_locks(self):
        assert build_lr(Y).rule("zeta").locked(0)
        assert build_rl(Y).rule("xi").locked(1)

    def test_input_sectors(self):
        assert build_lr(Y).input_sectors == (0,)
        assert build_rl(Y).input_sectors == (1,)

    def test_deterministic_build(self):
        assert machine_dumps(build_lr(Y)) == machine_dumps(build_lr(Y))

    def test_empty_alphabet_rejected(self):
        with pytest.raises(ValueError):
            build_lr([])


class TestStandardComputations:
    def test_lr_single_letter_trace(self):
        m = build_lr(Y)
        c = home_configuration(m, W("a"))
        h = standard_lr_computation(m, W("a"))
        comp = run(m, c, h)
        assert [x.tokens() for x in comp.configs] == [
            "p1 a#1 q1 r1", "p1 q1 a#2 r1", "p2 q2 a#2 r2", "p2 a#1 q2 r2"]

    def test_rl_single_letter_trace(self):
        m = build_rl(Y)
        c = home_configuration(m, W("a"))
        h = standard_rl_computation(m, W("a"))
        comp = run(m, c, h)
        assert [x.tokens() for x in comp.configs] == [
            "p1 q1 a#2 r1", "p1 a#1 q1 r1", "p2 a#1 q2 r2", "p2 q2 a#2 r2"]

    def test_all_small_words_lr(self):
        m = build_lr(Y)
        for u in reduced_words(Y, 3):
            h = standard_lr_computation(m, u)
            assert len(h) == 2 * len(u) + 1
            comp = run(m, home_configuration(m, u, 1), h)
            assert comp.end == home_configuration(m, u, 2)

    def test_all_small_words_rl(self):
        m = build_rl(Y)
        for u in reduced_words(Y, 3):
            h = standard_rl_computation(m, u)
            assert len(h) == 2 * len(u) + 1
            comp = run(m, home_configuration(m, u, 1), h)
            assert comp.end == home_configuration(m, u, 2)

    @pytest.mark.parametrize("build, level, message", [
        (lambda: build_lr(Y), 0, "^level 0 is not 1 or 2$"),
        (lambda: build_rl(Y), 3, "^level 3 is not 1 or 2$"),
        (lambda: build_lr(Y), True, "^level True is not 1 or 2$"),
        (lambda: build_lr(Y), 1.0, "^level 1.0 is not 1 or 2$"),
        (toy_deleter, 1, "^machine 'toy_deleter' is neither LR nor RL$"),
    ], ids=["level_0", "level_3", "bool_level", "float_level", "no_kind"])
    def test_home_configuration_refuses_bad_input(self, build, level,
                                                  message):
        with pytest.raises(MachineError, match=message):
            home_configuration(build(), W("a"), level)

    def test_connecting_rule_waits_for_empty_sector(self):
        m = build_lr(Y)
        c = home_configuration(m, W("a"))
        with pytest.raises(MachineError):
            run(m, c, ["zeta"])


class TestMinimality:
    def test_standard_length_is_minimal(self):
        # No shortcut between the two home configurations: minimal history
        # length is exactly 2|u| + 1 for every |u| <= 2.
        for build, std in [(build_lr, standard_lr_computation),
                           (build_rl, standard_rl_computation)]:
            m = build(Y)
            for u in reduced_words(Y, 2):
                res = meet_reach(m, home_configuration(m, u, 1),
                                 home_configuration(m, u, 2), 2 * len(u) + 1)
                assert res.found
                assert res.length == 2 * len(u) + 1

    def test_no_shorter_path_exists(self):
        # The bound in the previous test is tight: searching strictly below
        # it finds nothing.
        m = build_lr(Y)
        u = W("a b")
        res = meet_reach(m, home_configuration(m, u, 1),
                         home_configuration(m, u, 2), 2 * len(u))
        assert not res.found


def _meta_text(v):
    """A name-based rendering of a meta value: atoms by name, morphisms as
    sorted name pairs, containers element by element."""
    if isinstance(v, Atom):
        return v.name
    if isinstance(v, AlphabetMorphism):
        return sorted((a.name, b.name) for a, b in v.mapping.items())
    if isinstance(v, (tuple, list)):
        return [_meta_text(x) for x in v]
    if isinstance(v, frozenset):
        return sorted(_meta_text(x) for x in v)
    return v


def _machine_text(m):
    meta = {k: _meta_text(v) for k, v in sorted(m.meta.items())
            if not isinstance(v, Machine)}
    return "\n".join([machine_dumps(m), repr([r.name for r in m.rules]),
                      repr(meta)])


class TestPinnedMachines:
    """Every byte of the copiers and of the pipeline machines built from
    them and from the fixtures, hashed.  A flipped write sign, a moved
    home sector or a renamed state letter changes the digest."""

    def test_copiers_are_pinned(self):
        h = hashlib.sha256()
        for letters in (["y"], ["a", "b"], ["b", "a", "c"], ["ä", "x"]):
            for build, std in [(build_lr, standard_lr_computation),
                               (build_rl, standard_rl_computation)]:
                for kw in ({}, {"name": "copier é"}):
                    m = build(letters, **kw)
                    h.update(_machine_text(m).encode())
                    u = Word.from_tokens(" ".join(
                        letters + [letters[-1]]
                        + [f"{letters[0]}^-1"] * (len(letters) > 1)))
                    for level in (1, 2):
                        h.update(home_configuration(m, u, level)
                                 .tokens().encode())
                    h.update(std(m, u).tokens().encode())
        assert h.hexdigest() == ("96bb728ded14f2ac660742659a142edc"
                                 "2bb318776ced166b20030e99ba95a835")

    def test_pipeline_machines_are_pinned(self):
        h = hashlib.sha256()
        for s in (toy_deleter(), build_lr(["y"]), two_sided_multiplier(),
                  paired_multiplier(), one_sector_left_multiplier()):
            sh = add_historical_sectors(s)
            shp = pad_locked(sh)
            e = compose(shp)
            for m in (sh, shp, e, make_cyclic(s), make_cyclic(e)):
                h.update(_machine_text(m).encode())
        assert h.hexdigest() == ("c56e08b4e1372c16aca4c3e84d0c0b57"
                                 "29cd9a42e7b690c3bdd2889ef769e680")
