import copy
import itertools
import operator
import pickle
import re

import pytest

from smforge.fixtures import (
    one_sector_left_multiplier,
    toy_deleter,
    trivial_acceptor,
    two_sided_multiplier,
)
from smforge.machine import (
    AdmissibleWord,
    Hardware,
    Machine,
    MachineError,
    RulePart,
    SRule,
    StatePart,
    _gap_sector,
    accept_configuration,
    cyclic_permute,
    input_configuration,
    invert_rule,
    make_rule,
    normalize_rules,
    parse_admissible,
    restrict,
    run,
    successors,
)
from smforge.search import reduced_computations
from smforge.words import _REGISTRY, EMPTY, Word, atom, atoms


def W(text):
    return Word.from_tokens(text)


def small_words(alphabet, n):
    """All reduced words of length <= n over the alphabet."""
    from smforge.words import reduced_words
    return list(reduced_words(alphabet, n))


class TestHardware:
    def test_sector_count(self):
        with pytest.raises(MachineError):
            Hardware([StatePart("A", ["h1"]), StatePart("B", ["h2"])], [["y"], ["z"]])

    def test_letter_in_two_parts(self):
        with pytest.raises(MachineError):
            Hardware([StatePart("A", ["h3"]), StatePart("B", ["h3"])], [["y"]])

    def test_state_tape_clash(self):
        with pytest.raises(MachineError):
            Hardware([StatePart("A", ["h4"]), StatePart("B", ["h5"])], [["h4"]])

    def test_no_letters_and_no_parts(self):
        with pytest.raises(MachineError, match="^part 'p' has no letters$"):
            StatePart("p", [])
        with pytest.raises(MachineError,
                           match="^a machine needs at least one part$"):
            Hardware([], [])

    def test_sector_neighbours(self):
        m = toy_deleter()
        assert m.hw.left_sector(0) is None
        assert m.hw.right_sector(0) == 0
        assert m.hw.left_sector(1) == 0
        assert m.hw.right_sector(1) is None

    def test_cyclic_neighbours(self):
        hw = Hardware([StatePart("CA", ["ca"]), StatePart("CB", ["cb"])],
                      [["cy"], ["cz"]], cyclic=True)
        assert hw.left_sector(0) == 1
        assert hw.right_sector(1) == 1
        assert hw.n_sectors == 2


class TestRuleValidation:
    def test_write_without_sector(self):
        m = toy_deleter()
        with pytest.raises(MachineError):
            make_rule(m.hw, "bad",
                      [RulePart("q0s", "q0s", left=W("y")), ("q1s", "q1s")])

    def test_write_outside_domain(self):
        m = toy_deleter()
        with pytest.raises(MachineError):
            make_rule(m.hw, "bad",
                      [("q0s", "q0s"),
                       RulePart("q1s", "q1s", left=W("y"))],
                      domains=[[]])

    def test_foreign_state_letter(self):
        m = toy_deleter()
        with pytest.raises(MachineError):
            make_rule(m.hw, "bad", [("q1s", "q1s"), ("q0s", "q0s")])

    def test_duplicate_rule_name(self):
        m = toy_deleter()
        with pytest.raises(MachineError):
            Machine("m", m.hw, [m.rule("del"), m.rule("del")])

    def test_wrong_number_of_domains(self):
        m = toy_deleter()
        with pytest.raises(MachineError,
                           match="^rule 'bad': expected 1 domains$"):
            Machine("m", m.hw, [SRule("bad", m.rule("del").parts, [])])

    def test_domain_outside_sector_alphabet(self):
        m = toy_deleter()
        with pytest.raises(MachineError, match=r"^rule 'bad': domain of "
                           r"sector 0 contains \['z'\] outside the sector "
                           r"alphabet$"):
            make_rule(m.hw, "bad", [("q0s", "q0s"), ("q1s", "q1s")],
                      domains=[["y", "z"]])


class TestParseAdmissible:
    def test_configuration_roundtrip(self):
        m = toy_deleter()
        c = parse_admissible(m.hw, "q0s y y q1s")
        assert c.tokens() == "q0s y y q1s"
        assert c.base == ((0, 1), (1, 1))
        assert c.gap_sectors == (0,)
        assert c.tape_length() == 2

    def test_tapes_are_reduced(self):
        m = toy_deleter()
        c = AdmissibleWord(m.hw, [(atom("q0s"), 1), (atom("q1s"), 1)],
                           [W("y y^-1 y")])
        assert c.tokens() == "q0s y q1s"

    def test_all_four_shapes(self):
        m = toy_deleter()
        # (+,+), (+,-), (-,+), (-,-)
        parse_admissible(m.hw, "q0s y q1s")
        parse_admissible(m.hw, "q1s^-1 y q1s")
        parse_admissible(m.hw, "q0s y q0s^-1")
        parse_admissible(m.hw, "q1s^-1 y q0s^-1")

    def test_mixed_signs_need_same_letter(self):
        m = toy_deleter()
        with pytest.raises(MachineError, match="same state letter"):
            parse_admissible(m.hw, "q0s y q1s^-1")

    def test_positioned_errors(self):
        m = toy_deleter()
        with pytest.raises(MachineError, match="position 0"):
            parse_admissible(m.hw, "y q1s")
        with pytest.raises(MachineError, match="unknown"):
            parse_admissible(m.hw, "q0s nosuch q1s")
        with pytest.raises(MachineError, match="end with a state letter"):
            parse_admissible(m.hw, "q0s y")
        with pytest.raises(MachineError, match="do not bound"):
            parse_admissible(m.hw, "q1s y q0s")

    @pytest.mark.parametrize("states, tapes, message", [
        ([], [], "admissible word needs at least one state letter"),
        (["q0s", "q1s"], [], "2 state letters need 1 tapes, got 0"),
        (["q0s", "y", "q1s"], ["", ""], "'y' is not a state letter"),
    ], ids=["no_state_letters", "tape_count", "tape_letter_as_state"])
    def test_admissible_word_refusals(self, states, tapes, message):
        m = toy_deleter()
        with pytest.raises(MachineError) as info:
            AdmissibleWord(m.hw, [(atom(a), 1) for a in states],
                           [W(t) for t in tapes])
        assert str(info.value) == message

    def test_empty_word_has_no_state_letters(self):
        m = toy_deleter()
        with pytest.raises(MachineError, match="^no state letters$"):
            parse_admissible(m.hw, EMPTY)

    def test_letter_in_wrong_gap(self):
        m = two_sided_multiplier()
        with pytest.raises(MachineError, match="does not belong"):
            AdmissibleWord(m.hw, [(atom("Q0"), 1), (atom("Q1"), 1)], [W("y")])


def _reference_gap_sector(hw, left, right, j):
    """The gap sector as one branch per pair of signs, the way it was
    written before it became one rule."""
    (a, e), (b, f) = left, right
    k, l = hw.part_of[a], hw.part_of[b]
    n = hw.n_parts
    if e > 0 and f > 0:
        s = hw.right_sector(k)
        if s is None or l != (k + 1) % n:
            raise MachineError(
                f"positions {j},{j + 1}: {a.name} {b.name} do not bound a sector")
        return s
    if e < 0 and f < 0:
        s = hw.left_sector(k)
        if s is None or l != (k - 1) % n:
            raise MachineError(
                f"positions {j},{j + 1}: {a.name}^-1 {b.name}^-1 do not bound a sector")
        return s
    if a is not b:
        raise MachineError(
            f"positions {j},{j + 1}: mixed signs need the same state letter, "
            f"got {a.name} and {b.name}")
    s = hw.right_sector(k) if e > 0 else hw.left_sector(k)
    if s is None:
        raise MachineError(f"positions {j},{j + 1}: no sector on that side of {a.name}")
    return s


def test_gap_sector_agrees_with_the_sign_branches():
    # Every ordered pair of signed state letters, on non-cyclic and cyclic
    # hardware of one to three parts with two letters each, so that mixed
    # signs meet both the same letter and another one.
    kinds = set()
    for n, cyclic in itertools.product((1, 2, 3), (False, True)):
        parts = [StatePart(f"GS{i}", [f"gs{n}{cyclic:d}_{i}{c}" for c in "ab"])
                 for i in range(n)]
        hw = Hardware(parts, [[f"gst{n}{cyclic:d}_{s}"]
                              for s in range(n if cyclic else n - 1)],
                      cyclic=cyclic)
        signed = [(a, e) for p in parts for a in p.letters for e in (1, -1)]
        for left, right in itertools.product(signed, repeat=2):
            answers = []
            for gap_sector in (_reference_gap_sector, _gap_sector):
                try:
                    answers.append(gap_sector(hw, left, right, 4))
                except MachineError as err:
                    answers.append(str(err))
            assert answers[0] == answers[1], (n, cyclic, left, right)
            kinds.add(answers[0] if isinstance(answers[0], int)
                      else re.sub(r"gs\w+", "q", answers[0]))
    # Every sector, and each of the four messages with both signs.
    assert kinds == {0, 1, 2,
                     "positions 4,5: q q do not bound a sector",
                     "positions 4,5: q^-1 q^-1 do not bound a sector",
                     "positions 4,5: mixed signs need the same state letter, "
                     "got q and q",
                     "positions 4,5: no sector on that side of q"}


class TestApply:
    def test_deleter_trace(self):
        m = toy_deleter()
        c = input_configuration(m, W("y y"))
        c = m.apply(c, m.rule("del"))
        assert c.tokens() == "q0s y q1s"
        c = m.apply(c, m.rule("del"))
        assert c.tokens() == "q0s q1s"
        c = m.apply(c, m.rule("acc"))
        assert c == accept_configuration(m)

    def test_locked_sector_blocks(self):
        m = toy_deleter()
        c = input_configuration(m, W("y"))
        out = m.apply_ex(c, m.rule("acc"))
        assert not out.ok
        assert "domain" in out.reason

    def test_apply_raises_the_reason(self):
        m = toy_deleter()
        with pytest.raises(MachineError, match="^cannot apply 'del': state "
                           "letter 'q0f' does not match rule 'del'$"):
            m.apply(accept_configuration(m), m.rule("del"))

    def test_state_mismatch_blocks(self):
        m = toy_deleter()
        c = accept_configuration(m)
        out = m.apply_ex(c, m.rule("del"))
        assert not out.ok
        assert out.reason.startswith(f"state letter {c.states[0][0].name!r}")

    def test_left_and_right_multiplication(self):
        m = two_sided_multiplier()
        c = input_configuration(m, W("b"))
        c = m.apply(c, m.rule("lmul(a)"))
        assert c.tapes[0] == W("a b")
        c = m.apply(c, m.rule("rmul(a)"))
        assert c.tapes[0] == W("a b a")

    def test_free_reduction_on_write(self):
        m = two_sided_multiplier()
        c = input_configuration(m, W("a^-1 b"))
        c = m.apply(c, m.rule("lmul(a)"))
        assert c.tapes[0] == W("b")

    def test_rule_then_inverse_is_identity(self):
        # (W.t).t^-1 == W for every fixture rule on every small admissible
        # word where t applies.
        for m in [toy_deleter(), two_sided_multiplier()]:
            starts = set()
            for w in small_words(sorted(m.sector_alphabets[0], key=lambda a: a.name), 2):
                for text in ["q0s {} q1s", "q1s^-1 {} q1s", "q0s {} q0s^-1"]:
                    if m.name != "toy_deleter":
                        text = text.replace("q0s", "Q0").replace("q1s", "Q1")
                    try:
                        starts.add(parse_admissible(
                            m.hw, text.format(w.tokens() if w else "")))
                    except MachineError:
                        pass
            assert len(starts) > 10
            checked = 0
            for c in starts:
                for r in m.rules:
                    for sign in (1, -1):
                        out = m.apply_ex(c, r, sign)
                        if out.ok:
                            back = m.try_apply(out.result, r, -sign)
                            assert back == c
                            checked += 1
            assert checked > 20

    def test_trim_on_single_letter_base(self):
        m = toy_deleter()
        c = AdmissibleWord(m.hw, [(atom("q1s"), 1)], [])
        out = m.apply_ex(c, m.rule("del"))
        assert out.ok
        assert out.result.states == ((atom("q1s"), 1),)

    def test_conjugation_shape(self):
        # q w q^-1 with the same letter: the right word of that part acts
        # by conjugation.
        m = two_sided_multiplier()
        c = parse_admissible(m.hw, "Q0 b Q0^-1")
        out = m.apply_ex(c, m.rule("lmul(a)"))
        assert out.ok
        assert out.result.tokens() == "Q0 a b a^-1 Q0^-1"

    def test_inverted_base_application(self):
        m = toy_deleter()
        c = parse_admissible(m.hw, "q1s^-1 y q1s")
        out = m.apply_ex(c, m.rule("del"))
        assert out.ok
        # q1s^-1 emits (left word)^-1 = y to its right.
        assert out.result.tokens() == "q1s^-1 y y y^-1 q1s".replace("y y y^-1", "y")


class TestRun:
    def test_run_history_word(self):
        m = toy_deleter()
        c = input_configuration(m, W("y"))
        comp = run(m, c, W("del acc"))
        assert len(comp) == 2
        assert comp.end == accept_configuration(m)
        assert comp.history_word() == W("del acc")

    def test_run_signed_tokens(self):
        m = toy_deleter()
        c = input_configuration(m, EMPTY)
        comp = run(m, c, ["del^-1", "del"])
        assert comp.end == c

    def test_strict_raises(self):
        m = toy_deleter()
        c = input_configuration(m, W("y"))
        with pytest.raises(MachineError, match="step 0"):
            run(m, c, W("acc"))

    def test_lax_records_failure(self):
        m = toy_deleter()
        c = input_configuration(m, W("y"))
        comp = run(m, c, W("del acc acc"), strict=False)
        assert not comp.ok
        assert comp.failed_at == 2
        assert len(comp.configs) == 3

    def test_inverse_of_computation(self):
        m = two_sided_multiplier()
        c = input_configuration(m, W("a"))
        comp = run(m, c, W("lmul(a) rmul(b) lmul(b)^-1"))
        back = run(m, comp.end, comp.history_word().inverse())
        assert back.end == c


class TestConfigurations:
    def test_accept_configuration(self):
        m = trivial_acceptor()
        assert accept_configuration(m).tokens() == "p0 p1"
        assert input_configuration(m, EMPTY) == accept_configuration(m)

    def test_input_count_is_checked(self):
        m = toy_deleter()
        with pytest.raises(MachineError, match="^expected 1 input words$"):
            input_configuration(m, (EMPTY, EMPTY))
        none = Machine("none", Hardware([StatePart("N0", ["n0"])], []), [])
        with pytest.raises(MachineError, match="^machine has 0 input sectors; "
                           "pass one word per sector$"):
            input_configuration(none, EMPTY)

    def test_cyclic_wrap_sector_must_be_empty(self):
        hw = Hardware([StatePart("CW0", ["cwA"]), StatePart("CW1", ["cwB"])],
                      [["cwy"], ["cwz"]], cyclic=True)
        m = Machine("wrap", hw, [])
        for build in (input_configuration, accept_configuration):
            with pytest.raises(MachineError, match="^a configuration of a "
                               "cyclic machine needs an empty wrap-sector "
                               "alphabet$"):
                build(m)


class TestCyclicPermute:
    def make(self):
        hw = Hardware([StatePart("CP0", ["cpA"]), StatePart("CP1", ["cpB"])],
                      [["cpy"], ["cpz"]], cyclic=True)
        return hw

    def test_rotation(self):
        hw = self.make()
        w = parse_admissible(hw, "cpA cpy cpB cpz cpA")
        r = cyclic_permute(w, 1)
        assert r.tokens() == "cpB cpz cpA cpy cpB"
        assert cyclic_permute(r, 1) == w
        assert cyclic_permute(w, 2) == w

    def test_preserves_tape_count(self):
        hw = self.make()
        w = parse_admissible(hw, "cpA cpy cpy cpB cpA")
        assert cyclic_permute(w, 1).tape_length() == w.tape_length()

    def test_rejects_non_circular(self):
        m = toy_deleter()
        w = parse_admissible(m.hw, "q0s y q1s")
        with pytest.raises(MachineError, match="base not circular"):
            cyclic_permute(w, 1)
        with pytest.raises(MachineError, match="base not circular"):
            cyclic_permute(parse_admissible(m.hw, "q0s"), 1)


class TestRestrict:
    def make_three_part(self):
        a, b = atoms(["a", "b"])
        hw = Hardware([StatePart("R0", ["r0"]), StatePart("R1", ["r1"]),
                       StatePart("R2", ["r2"])],
                      [[a], [b]], input_sectors=[0, 1])
        rule = make_rule(hw, "both",
                         [RulePart("r0", "r0", right=W("a")),
                          RulePart("r1", "r1", left=W("a"), right=W("b")),
                          RulePart("r2", "r2", left=W("b"))])
        return Machine("three", hw, [rule])

    def test_restriction_matches_subword_application(self):
        m = self.make_three_part()
        sub = restrict(m, 1, 2)
        full = input_configuration(m, [W("a"), EMPTY])
        piece = parse_admissible(sub.hw, "r1 r2")
        got = sub.apply(piece, sub.rule("both"))
        whole = m.apply(full, m.rule("both"))
        # the r1..r2 stretch of the full result
        assert got.tapes[0] == whole.tapes[1]
        assert got.states == whole.states[1:]

    def test_restriction_drops_boundary_writes(self):
        m = self.make_three_part()
        sub = restrict(m, 1, 2)
        rp = sub.rule("both").parts[0]
        assert rp.left == EMPTY and rp.right == W("b")

    def test_bad_range(self):
        with pytest.raises(MachineError):
            restrict(self.make_three_part(), 2, 1)


class TestNormalize:
    def make_wide(self):
        a, b = atoms(["a", "b"])
        hw = Hardware([StatePart("N0", ["n0", "n0e"], "n0", "n0e"),
                       StatePart("N1", ["n1", "n1e"], "n1", "n1e")],
                      [[a, b]], input_sectors=[0])
        rule = make_rule(hw, "wide",
                         [RulePart("n0", "n0e", right=W("a b a")),
                          RulePart("n1", "n1e", left=W("b b"))])
        return Machine("wide", hw, [rule])

    def test_chain_length_formula(self):
        m = self.make_wide()
        n = normalize_rules(m)
        # costs 3 and 2 -> 1 + 2 + 1 = 4 rules
        assert len(n.rules) == 4
        assert n.meta["normal_chains"]["wide"] == [f"wide%{j}" for j in range(1, 5)]

    def test_each_rule_writes_at_most_one_per_side(self):
        n = normalize_rules(self.make_wide())
        for r in n.rules:
            for p in r.parts:
                assert len(p.left) <= 1 and len(p.right) <= 1

    def test_chain_equals_original(self):
        m = self.make_wide()
        n = normalize_rules(m)
        for text in ["ε", "a", "b a^-1"]:
            c0 = input_configuration(m, W(text))
            want = m.apply(c0, m.rule("wide"))
            c = input_configuration(n, W(text))
            comp = run(n, c, n.meta["normal_chains"]["wide"])
            assert comp.end.tapes == want.tapes
            assert [a.name for a, _ in comp.end.states] == ["n0e", "n1e"]

    def test_short_rules_kept_verbatim(self):
        m = toy_deleter()
        n = normalize_rules(m)
        assert {r.name for r in n.rules} == {"del", "acc"}

    def test_start_end_preserved(self):
        n = normalize_rules(self.make_wide())
        assert input_configuration(n, EMPTY).tokens() == "n0 n1"
        assert accept_configuration(n).tokens() == "n0e n1e"


class TestSignedRules:
    def test_deterministic_order(self):
        m = toy_deleter()
        assert [(r.name, s) for r, s in m.signed_rules()] == [
            ("acc", 1), ("acc", -1), ("del", 1), ("del", -1)]


class TestSigns:
    @pytest.mark.parametrize("sign", [0, 2, -2])
    def test_sign_outside_plus_minus_one_is_refused(self, sign):
        m = toy_deleter()
        c = input_configuration(m, W("y"))
        rule = m.rule("del")
        for call in (lambda: m.apply_ex(c, rule, sign),
                     lambda: m.try_apply(c, rule, sign),
                     lambda: run(m, c, [("del", sign)]),
                     lambda: run(m, c, [("del", sign)], strict=False)):
            with pytest.raises(MachineError, match="bad sign"):
                call()

    # An atom equals its id, so the atom whose id is 1 equals 1; it is
    # refused as a sign like any other value but 1 and -1.

    def test_an_atom_is_no_rule_sign(self):
        one = next(a for a in _REGISTRY.values() if a.id == 1)
        m = toy_deleter()
        c = input_configuration(m, W("y"))
        with pytest.raises(MachineError, match="bad sign"):
            m.apply_ex(c, m.rule("del"), one)

    def test_an_atom_is_no_state_letter_sign(self):
        one = next(a for a in _REGISTRY.values() if a.id == 1)
        m = toy_deleter()
        with pytest.raises(MachineError, match="bad sign"):
            AdmissibleWord(m.hw, [(atom("q0s"), one), (atom("q1s"), 1)],
                           [EMPTY])

    # True equals 1 too, but a configuration or a step spelled with it
    # would write true where an equal one writes 1.

    def test_a_bool_is_no_rule_sign(self):
        m = toy_deleter()
        c = input_configuration(m, W("y"))
        rule = m.rule("del")
        for call in (lambda: m.apply_ex(c, rule, True),
                     lambda: m.try_apply(c, rule, True),
                     lambda: run(m, c, [(rule, True)])):
            with pytest.raises(MachineError, match="bad sign True"):
                call()

    def test_a_bool_is_no_state_letter_sign(self):
        m = toy_deleter()
        with pytest.raises(MachineError, match="^bad sign True$"):
            AdmissibleWord(m.hw, [(atom("q0s"), True), (atom("q1s"), 1)],
                           [EMPTY])

    def test_an_id_is_no_state_letter(self):
        # Nor is an id an atom, though it equals one.
        m = toy_deleter()
        with pytest.raises(MachineError, match="bad state letter"):
            AdmissibleWord(m.hw, [(atom("q0s").id, 1), (atom("q1s"), 1)],
                           [EMPTY])


class TestForeignRules:
    def test_rule_of_another_machine_is_refused(self):
        # An equal machine built twice has rules of its own: another's rule
        # is not compiled on the side, whichever entry point it comes in by.
        m, other = toy_deleter(), toy_deleter()
        c = input_configuration(m, W("y"))
        rule = other.rule("del")
        assert m.try_apply(c, m.rule("del")) is not None
        for call in (lambda: m.apply_ex(c, rule),
                     lambda: m.try_apply(c, rule, -1),
                     lambda: m.apply(c, rule),
                     lambda: run(m, c, [(rule, 1)]),
                     lambda: run(m, c, [(rule, 1)], strict=False)):
            with pytest.raises(MachineError,
                               match="rule 'del' is not a rule of machine"):
                call()


class TestCompiledRows:
    """Each signed rule compiles one row per tuple of state letters, on the
    first word with those letters; later words reuse it."""

    @pytest.mark.parametrize("start, rule", [
        ("q0f q1f", "del"),          # state letters do not match
        ("q0s y q1s", "acc"),        # locked sector
    ], ids=["state", "domain"])
    def test_reason_is_the_same_on_a_hit(self, start, rule):
        m = toy_deleter()
        c = parse_admissible(m.hw, start)
        rows = m._entry(m.rule(rule), 1).rows
        assert c.states not in rows
        first = m.apply_ex(c, m.rule(rule))
        assert c.states in rows
        again = m.apply_ex(parse_admissible(m.hw, start), m.rule(rule))
        assert not first.ok and not again.ok
        assert again.reason == first.reason

    def test_rows_are_shared_by_words_with_the_same_letters(self):
        m = two_sided_multiplier()
        results = [m.apply(input_configuration(m, W(text)), m.rule("lmul(a)"))
                   for text in ("a", "b a", "a^-1")]
        assert [r.tokens() for r in results] == ["Q0 a a Q1", "Q0 a b a Q1",
                                                 "Q0 Q1"]
        assert results[0].states is results[1].states is results[2].states

    def test_word_on_foreign_hardware_applies(self):
        m, other = toy_deleter(), toy_deleter()
        assert m.hw is not other.hw
        c = input_configuration(other, W("y y"))
        for rule, sign in m.signed_rules():
            out = m.apply_ex(c, rule, sign)
            want = m.apply_ex(parse_admissible(m.hw, c.to_word()), rule, sign)
            assert (out.ok, out.reason) == (want.ok, want.reason)
            if out.ok:
                assert out.result.hw is m.hw
                assert out.result == want.result


class TestImmutable:
    """Admissible words, built, parsed or written by a rule, refuse every
    write; so does a tape the kernel wrote."""

    def test_admissible_words_refuse_writes(self):
        m = toy_deleter()
        built = input_configuration(m, W("y y"))
        parsed = parse_admissible(m.hw, "q0s y^-1 q1s")
        result = m.apply(built, m.rule("del"))
        assert result.tokens() == "q0s y q1s"
        for aw in (built, parsed, result):
            before = (aw.tokens(), aw.key())
            # Each write and each delete must raise by itself: a name
            # read first would pass by failing the read.
            for name in ("hw", "states", "tapes", "gap_sectors", "base",
                         "_key", "extra"):
                with pytest.raises(AttributeError):
                    setattr(aw, name, None)
                with pytest.raises(AttributeError):
                    delattr(aw, name)
            assert (aw.tokens(), aw.key()) == before
        tape = result.tapes[0]
        assert tape is not built.tapes[0]
        with pytest.raises(AttributeError):
            tape.letters = ()
        assert tape == W("y")

    def test_configurations_copy_and_pickle(self):
        # A copy is rebuilt through the constructor, on the same hardware,
        # and a deep copy is the configuration itself, as for a tuple; a
        # pickle carries a copy of the hardware, so it has the same tokens,
        # and the machine revalidates it on its own.
        m = toy_deleter()
        c = input_configuration(m, W("y y"))
        shallow = copy.copy(c)
        assert shallow == c and shallow.hw is c.hw
        assert copy.deepcopy(c) is c
        assert copy.deepcopy(c.tapes[0]) is c.tapes[0]
        assert copy.deepcopy([c])[0] is c

        def answers(config):
            return ([(r.name, s, res.tokens())
                     for r, s, res in successors(m, config)],
                    [(out.ok, out.result and out.result.tokens(), out.reason)
                     for out in (m.apply_ex(config, r, s)
                                 for r, s in m.signed_rules())])

        for dup in (shallow, copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
            assert dup.tokens() == c.tokens() and dup.key() == c.key()
            assert answers(dup) == answers(c)


class TestConfigurationRecord:
    """Equality, hashing, order and copies of configurations, against the
    definition by keys: two configurations are equal when they share the
    hardware object and spell the same letters, and hash as their key."""

    @staticmethod
    def _configs(m):
        start = input_configuration(m, W("y y^-1 y"))
        return [c for _, c in reduced_computations(m, start, 3)]

    def test_equality_and_hash_agree_with_keys(self):
        m, twin = toy_deleter(), toy_deleter()
        assert m.hw is not twin.hw
        configs = self._configs(m) + self._configs(twin)
        configs += [AdmissibleWord(c.hw, c.states, c.tapes) for c in configs]
        configs.append(accept_configuration(trivial_acceptor()))
        assert len({(c.hw, c.key()) for c in configs}) > 10
        for a, b in itertools.product(configs, repeat=2):
            same = a.hw is b.hw and a.key() == b.key()
            assert (a == b) is same
            assert (a != b) is (not same)
            if same:
                assert hash(a) == hash(b)
        for c in configs:
            assert hash(c) == hash(c.key())
        # A twin's copy of a configuration differs only in its hardware.
        here, there = self._configs(m)[4], self._configs(twin)[4]
        assert here.key() == there.key() and here != there

    def test_a_configuration_is_not_its_fields(self):
        m = toy_deleter()
        c = input_configuration(m, W("y y"))
        for other in ((c.hw, c.states, c.tapes), (c.states, c.tapes),
                      c.key(), c.to_word()):
            assert not c == other and not other == c
            assert c != other and other != c
            assert other not in {c} and c not in {other}

    def test_configurations_are_not_ordered(self):
        m = toy_deleter()
        c = input_configuration(m, W("y y"))
        d = m.apply(c, m.rule("del"))
        fields = (c.hw, c.states, c.tapes)
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            for x, y in ((c, c), (c, d), (d, c), (c, fields), (fields, c)):
                with pytest.raises(TypeError):
                    op(x, y)

    def test_copies_and_pickles_run_the_validator(self, monkeypatch):
        m = toy_deleter()
        c = input_configuration(m, W("y y"))
        calls = []
        init = AdmissibleWord.__init__

        def counted(self, *args):
            calls.append(args)
            init(self, *args)

        monkeypatch.setattr(AdmissibleWord, "__init__", counted)
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        dups = [copy.copy(c)] + [pickle.loads(pickle.dumps(c, protocol))
                                 for protocol in protocols]
        assert len(calls) == len(dups)
        assert all(dup.key() == c.key() for dup in dups)
        assert dups[0] == c and all(dup != c for dup in dups[1:])
        # The validator refuses a broken record: its tape cannot sit in
        # the gap, whatever path rebuilds it.
        reduce_fn, (hw, states, tapes) = c.__reduce__()
        with pytest.raises(MachineError, match="^letter 'x'"):
            reduce_fn(hw, states, [W("x")])
