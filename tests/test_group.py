import copy
import hashlib
import pickle
from fractions import Fraction

import pytest

from smforge import group
from smforge.words import InvariantError, Word, atom, free_reduce
from smforge.machine import (AdmissibleWord, Computation, Hardware, Machine,
                             RulePart, StatePart, accept_configuration,
                             input_configuration, make_rule, parse_admissible,
                             run)
from smforge.encode import (GroupPresentation, abelianized_trivial,
                            area_oracle, emulation_history,
                            presentation_to_machine)
from smforge.enhance import (accepting_computation_from_history,
                             build_enhanced_standard)
from smforge.fixtures import (one_sector_left_multiplier, toy_deleter,
                              z2_presentation)
from smforge.group import (Cell, Edge, GroupError, Row, Trapezium,
                           computation_to_trapezium,
                           conjugator_from_accepting, dehn_cell_bound_check,
                           heisenberg_product, letter_types, machine_to_group,
                           modified_length, modified_length_from_types,
                           run_dichotomy, theta_atom, trapezium_dumps,
                           trapezium_to_computation, trapezium_to_dict,
                           trapezium_to_dot, validate_trapezium)
from smforge.primitive import (build_lr, home_configuration,
                               standard_lr_computation)
from smforge.search import accepts
from smforge.serialize import machine_dumps


def W(text: str) -> Word:
    return Word.from_tokens(text)


def one_part_machine() -> Machine:
    hw = Hardware([StatePart("T", ["s", "f"])], [])
    return Machine("one_part", hw, [make_rule(hw, "go", [("s", "f")])])


def cyclic_emitter() -> Machine:
    """Two parts around a wrap sector; ``emit`` pushes z out past part 0
    whenever the word is read linearly."""
    hw = Hardware([StatePart("C0", ["u"]), StatePart("C1", ["v"])],
                  [["a0"], ["z"]], cyclic=True)
    r = make_rule(hw, "emit",
                  [RulePart("u", "u", left=Word.of("z")), ("v", "v")],
                  domains=["full", "full"])
    return Machine("cyclic_emitter", hw, [r])


def theta_q(m: Machine, p: GroupPresentation) -> list[Word]:
    """The (theta,q) relators of M(m): the relators with a state letter."""
    return [w for w in p.relators if any(a in m.hw.part_of for a, _ in w)]


class TestMPresentation:
    def test_lr_counts(self):
        lr = build_lr(["y"])
        p = machine_to_group(lr)
        assert len(p.generators) == 17
        assert len(theta_q(lr, p)) == 9
        assert len(p.relators) == 14  # and 5 (theta,a) relators

    def test_lr_strict_drops_part_zero(self):
        lr = build_lr(["y"])
        rels = theta_q(lr, machine_to_group(lr, strict=True))
        assert len(rels) == 6
        # a (theta,q) relator starts with the state letter of its part
        assert all(lr.hw.part_of[w.letters[0][0]] != 0 for w in rels)

    def test_deleter_counts(self):
        m = toy_deleter()
        p = machine_to_group(m)
        # one tape letter, four state letters, two rules times two gaps
        assert len(p.generators) == 1 + 4 + 4
        assert len(theta_q(m, p)) == 4
        assert len(p.relators) == 4 + 1

    def test_theta_q_relator_shape(self):
        # rules by name (acc, del), parts in order
        p = machine_to_group(toy_deleter())
        assert p.relators[3] == W("q1s del.0 q1s^-1 y del.1^-1")
        assert p.relators[2] == W("q0s del.1 q0s^-1 del.0^-1")

    def test_theta_a_commutator(self):
        p = machine_to_group(toy_deleter())
        assert p.relators[4] == W("del.1 y del.1^-1 y^-1")

    def test_last_gap_wraps_to_zero(self):
        p = machine_to_group(toy_deleter())
        # part 1 is the last part, so its right-hand theta has index 0
        w = p.relators[1]
        assert w.letters[1] == (theta_atom("acc", 0), 1)

    def test_presentation_named_after_machine(self):
        p = machine_to_group(toy_deleter())
        assert isinstance(p, GroupPresentation)
        assert p.name == "M(toy_deleter)"
        assert len(p.relators) == 5
        assert machine_to_group(
            toy_deleter(), strict=True).name == "M(toy_deleter).strict"

    def test_tape_letters_come_by_name(self):
        # Fresh tape letters interned in reverse name order, so that an
        # order by atom id would put them backwards: the generators and
        # the domain letters of each (theta,a) relator come by name.
        letters = [atom(f"by_name_{c}") for c in "dcba"]
        assert [a.id for a in letters] == sorted(a.id for a in letters)
        hw = Hardware([StatePart("N0", ["n0"]), StatePart("N1", ["n1"])],
                      [letters])
        m = Machine("by_name", hw, [
            make_rule(hw, name, [("n0", "n0"), ("n1", "n1")],
                      domains=[letters[:3] if name == "s" else letters[1:]])
            for name in ("s", "r")])
        p = machine_to_group(m)
        assert [a.name for a in p.generators] == [
            "by_name_a", "by_name_b", "by_name_c", "by_name_d", "n0", "n1",
            "r.0", "r.1", "s.0", "s.1"]
        assert [w.tokens() for w in p.relators[4:]] == [
            f"{th} by_name_{c} {th}^-1 by_name_{c}^-1"
            for th, cs in (("r.1", "abc"), ("s.1", "bcd")) for c in cs]

    def test_theta_collision_refused(self):
        hw = Hardware([StatePart("P", ["r.0", "r.1"])], [])
        m = Machine("clash", hw, [make_rule(hw, "r", [("r.0", "r.1")])])
        with pytest.raises(GroupError):
            machine_to_group(m)


class TestModifiedLength:
    def test_singletons(self):
        assert modified_length_from_types("q", 2) == 1
        assert modified_length_from_types("t", 2) == 1
        assert modified_length_from_types("a", 2) == Fraction(1, 6)

    def test_delta_depends_on_parts(self):
        assert modified_length_from_types("a", 1) == Fraction(1, 4)
        assert modified_length_from_types("a", 4) == Fraction(1, 10)

    def test_pairing(self):
        assert modified_length_from_types("ta", 2) == 1
        assert modified_length_from_types("at", 2) == 1
        assert modified_length_from_types("tat", 2) == 2
        assert modified_length_from_types("aat", 2) == Fraction(7, 6)

    def test_matches_brute_force(self):
        def brute(types, n):
            delta = Fraction(1, 2 * n + 2)
            single = {"q": Fraction(1), "t": Fraction(1), "a": delta}
            if not types:
                return Fraction(0)
            best = single[types[0]] + brute(types[1:], n)
            if len(types) >= 2 and set(types[:2]) == {"a", "t"}:
                best = min(best, 1 + brute(types[2:], n))
            return best

        seqs = [""]
        for _ in range(4):
            seqs = [s + c for s in seqs for c in "qat"]
            for s in seqs:
                assert modified_length_from_types(s, 3) == brute(s, 3), s

    def test_reversal_invariant(self):
        for s in ["qat", "taat", "attat", "qqata"]:
            assert (modified_length_from_types(s, 2)
                    == modified_length_from_types(s[::-1], 2))

    def test_letter_types(self):
        m = toy_deleter()
        w = W("q0s y q1s del.0 acc.1^-1")
        assert letter_types(m, w) == "qaqtt"
        assert modified_length(m, w) == 2 + Fraction(1, 6) + 2

    def test_unknown_letter_refused(self):
        with pytest.raises(GroupError):
            letter_types(toy_deleter(), W("zebra"))

    def test_letter_types_need_no_group(self, monkeypatch):
        # The tape letter go.1 is also the theta letter of rule go at gap
        # 1, so the machine has no M(S); its letters are still classed,
        # a tape letter before a theta letter of the same name.
        monkeypatch.setattr(group, "machine_to_group", None)
        hw = Hardware([StatePart("T0", ["s0"]), StatePart("T1", ["s1"])],
                      [["go.1"]], input_sectors=[0])
        m = Machine("collide", hw,
                    [make_rule(hw, "go", [("s0", "s0"), ("s1", "s1")])])
        assert letter_types(m, W("s0 go.1 go.0^-1 s1")) == "qatq"


# The dump of the zero-step trapezium of toy_deleter on "y": the word
# read twice, its three edges, and no rows or cells.
EMPTY_HISTORY_DOCUMENT = """\
{
  "boundary": {
    "bottom": [
      [
        0,
        1
      ],
      [
        2,
        1
      ],
      [
        1,
        1
      ]
    ],
    "left": [],
    "right": [],
    "top": [
      [
        0,
        1
      ],
      [
        2,
        1
      ],
      [
        1,
        1
      ]
    ]
  },
  "cells": [],
  "edges": [
    {
      "atom": "q0s",
      "id": 0,
      "kind": "q"
    },
    {
      "atom": "q1s",
      "id": 1,
      "kind": "q"
    },
    {
      "atom": "y",
      "id": 2,
      "kind": "a"
    }
  ],
  "history": "ε",
  "machine": "toy_deleter",
  "rows": [],
  "schema_version": 1,
  "words": [
    "q0s y q1s"
  ]
}
"""


class TestTrapezium:
    def accepting(self):
        m = toy_deleter()
        start = input_configuration(m, W("y y"))
        return m, run(m, start, ["del", "del", "acc"])

    def test_cell_count(self):
        m, comp = self.accepting()
        trap = computation_to_trapezium(m, comp)
        # first row folds one y and squares the other; second folds the
        # last y; the acc row has only the two state cells
        assert trap.n_cells() == 3 + 2 + 2
        assert [c.kind for c in trap.cells].count("ta") == 1

    def test_validates(self):
        m, comp = self.accepting()
        assert validate_trapezium(computation_to_trapezium(m, comp))

    def test_boundary_word(self):
        m, comp = self.accepting()
        trap = computation_to_trapezium(m, comp)
        assert trap.boundary_word() == W(
            "q1s^-1 y^-1 y^-1 q0s^-1 del.0 del.0 acc.0 q0f q1f "
            "acc.0^-1 del.0^-1 del.0^-1")

    def test_labels_spell_configurations(self):
        m, comp = self.accepting()
        trap = computation_to_trapezium(m, comp)
        assert trap.path_word(trap.bottom) == comp.configs[0].to_word()
        assert trap.path_word(trap.top) == comp.end.to_word()
        for j, row in enumerate(trap.rows):
            assert trap.path_word(row.bottom) == comp.configs[j].to_word()

    def test_boundary_abelianized_trivial(self):
        m, comp = self.accepting()
        trap = computation_to_trapezium(m, comp)
        p = machine_to_group(m)
        assert abelianized_trivial(p, trap.boundary_word())

    def test_round_trip(self):
        m, comp = self.accepting()
        back = trapezium_to_computation(computation_to_trapezium(m, comp))
        assert back.history_word() == comp.history_word()
        assert back.end == comp.end

    def test_tampered_stored_word_does_not_replay(self):
        m, comp = self.accepting()
        t = computation_to_trapezium(m, comp)
        words = (t.words[0], t.words[2]) + t.words[2:]
        bad = Trapezium(m, t.rows, t.cells, t.edges, words)
        with pytest.raises(GroupError, match="^stored word 1 does not replay$"):
            trapezium_to_computation(bad)

    @pytest.mark.parametrize("field, value, message", [
        ("rule", "nope", "^row 1 names no rule of the machine$"),
        ("sign", 0, "^row 1 has sign 0, not 1 or -1$"),
    ], ids=["unknown_rule", "zero_sign"])
    def test_bad_row_does_not_replay(self, field, value, message):
        # Unvalidated: the replay names the row, as validation would.
        m, comp = self.accepting()
        t = computation_to_trapezium(m, comp)
        setattr(t.rows[1], field, value)
        with pytest.raises(GroupError, match=message):
            trapezium_to_computation(t)

    @pytest.mark.parametrize("words", [lambda w: w[:-1], lambda w: w + w[-1:]],
                             ids=["too_few", "too_many"])
    def test_stored_word_count(self, words):
        m, comp = self.accepting()
        t = computation_to_trapezium(m, comp)
        bad = Trapezium(m, t.rows, t.cells, t.edges, words(t.words))
        with pytest.raises(GroupError,
                           match="^one more stored word than rows expected$"):
            trapezium_to_computation(bad)

    def test_inapplicable_row_does_not_replay(self):
        # acc locks the sector, which still holds a y after one del.
        m, comp = self.accepting()
        t = computation_to_trapezium(m, comp)
        t.rows[1].rule = "acc"
        with pytest.raises(GroupError,
                           match="^stored word 2 does not replay$"):
            trapezium_to_computation(t)

    def test_negative_steps(self):
        m = toy_deleter()
        start = input_configuration(m, W("y y"))
        comp = run(m, start, [("del", 1), ("del", -1), ("del", 1),
                              ("del", 1), ("acc", 1)])
        trap = computation_to_trapezium(m, comp)
        assert validate_trapezium(trap)
        assert trapezium_to_computation(trap).history_word() == comp.history_word()
        # the back-and-forth rows cancel in the side label
        assert trap.path_word(trap.left) == W(
            "del.0 del.0^-1 del.0 del.0 acc.0")

    def test_empty_history(self):
        m = toy_deleter()
        comp = run(m, input_configuration(m, W("y")), [])
        trap = computation_to_trapezium(m, comp)
        assert trap.n_cells() == 0
        assert validate_trapezium(trap)
        assert trap.boundary_word() == Word()
        assert trapezium_dumps(trap) == EMPTY_HISTORY_DOCUMENT

    def test_lr_standard_computation(self):
        lr = build_lr(["y"])
        u = W("y")
        comp = run(lr, home_configuration(lr, u), standard_lr_computation(lr, u))
        trap = computation_to_trapezium(lr, comp)
        assert trap.n_cells() == 10
        assert validate_trapezium(trap)
        assert abelianized_trivial(machine_to_group(lr),
                                   trap.boundary_word())

    def test_emitting_row_hangs_edges(self):
        m = cyclic_emitter()
        start = AdmissibleWord(m.hw, [(atom("u"), 1), (atom("v"), 1)],
                               [Word.of("a0")])
        comp = run(m, start, ["emit", "emit"])
        trap = computation_to_trapezium(m, comp)
        assert validate_trapezium(trap)
        assert trap.path_word(trap.left) == W("emit.0 z emit.0 z")
        assert trap.path_word(trap.right) == W("emit.0 emit.0")

    def test_one_part_machine(self):
        m = one_part_machine()
        comp = run(m, input_configuration(m, ()), ["go"])
        trap = computation_to_trapezium(m, comp)
        assert trap.n_cells() == 1
        assert validate_trapezium(trap)
        assert trap.boundary_word() == W("s^-1 go.0 f go.0^-1")

    def test_non_standard_base_refused(self):
        m = toy_deleter()
        aw = AdmissibleWord(m.hw, [(atom("q0s"), 1), (atom("q0s"), -1)],
                            [W("y")])
        comp = run(m, aw, [])
        with pytest.raises(GroupError):
            computation_to_trapezium(m, comp)

    def test_failed_computation_refused(self):
        m = toy_deleter()
        comp = run(m, input_configuration(m), ["acc", "del"], strict=False)
        assert not comp.ok
        with pytest.raises(GroupError):
            computation_to_trapezium(m, comp)

    def test_interface_mismatch_refused(self, monkeypatch):
        """Consecutive rows are glued only where the lower row's top and
        the upper row's freshly spelled bottom agree edge for edge; one
        letter read the other way is an invariant violation."""
        spell = group._spell_admissible

        def flipped(edges, aw):
            path, b_state, b_tape = spell(edges, aw)
            (e, o), *rest = path
            return ((e, -o), *rest), b_state, b_tape

        monkeypatch.setattr(group, "_spell_admissible", flipped)
        m, comp = self.accepting()
        with pytest.raises(InvariantError,
                           match="^interface paths do not match$"):
            computation_to_trapezium(m, comp)

    @pytest.mark.parametrize("flatten, configs, message", [
        (flatten, configs, message)
        for configs, message in [
            # del takes q0s y y q1s to q0s y q1s, not back to q0s y y q1s
            (lambda c: c[:1] + c[:1] + c[2:], "^stored word 1 does not replay$"),
            (lambda c: c[:-1], "^one more stored word than rows expected$"),
            (lambda c: c + c[-1:], "^one more stored word than rows expected$"),
        ]
        for flatten in (computation_to_trapezium, conjugator_from_accepting)
    ], ids=["trapezium", "conjugator", "trapezium_too_few", "conjugator_too_few",
            "trapezium_too_many", "conjugator_too_many"])
    def test_step_that_does_not_replay_refused(self, flatten, configs, message):
        # Flattening keeps the configurations as the trapezium's stored
        # words, so it refuses them in validation's words.
        m, comp = self.accepting()
        bad = Computation(m, comp.start, comp.steps, configs(comp.configs))
        with pytest.raises(GroupError, match=message):
            flatten(m, bad)


class TestTrapeziumExport:
    def trap(self):
        m = toy_deleter()
        comp = run(m, input_configuration(m, W("y")), ["del", "acc"])
        return computation_to_trapezium(m, comp)

    def test_dict_shape(self):
        d = trapezium_to_dict(self.trap())
        assert d["schema_version"] == 1
        assert d["machine"] == "toy_deleter"
        assert d["history"] == "del acc"
        assert len(d["words"]) == 3
        assert {e["kind"] for e in d["edges"]} <= {"q", "a", "theta"}
        assert all(len(c["boundary"]) >= 4 for c in d["cells"])

    def test_dumps_deterministic(self):
        m = toy_deleter()
        comp = run(m, input_configuration(m, W("y")), ["del", "acc"])
        a = trapezium_dumps(computation_to_trapezium(m, comp))
        b = trapezium_dumps(computation_to_trapezium(m, comp))
        assert a == b
        assert a.endswith("\n")

    def test_dot_output(self):
        trap = self.trap()
        dot = trapezium_to_dot(trap)
        assert dot.startswith('graph "toy_deleter"')
        assert dot.count(" -- ") > 0
        for i in range(trap.n_cells()):
            assert f"c{i} [label=" in dot

    def test_dot_escapes_quotes_and_backslashes(self):
        y = atom('y"\\')
        hw = Hardware([StatePart("T0", ["q0s", "q0f"]),
                       StatePart("T1", ["q1s", "q1f"])],
                      [[y]], input_sectors=[0])
        m = Machine('toy "q"', hw, [
            make_rule(hw, 'd"el', [("q0s", "q0s"),
                                   RulePart("q1s", "q1s",
                                            left=Word.of((y, -1)))]),
            make_rule(hw, "acc", [("q0s", "q0f"), ("q1s", "q1f")],
                      domains=[[]])])
        comp = run(m, input_configuration(m, Word.of(y)), ['d"el', "acc"])
        dot = trapezium_to_dot(computation_to_trapezium(m, comp))
        lines = dot.splitlines()
        assert lines[0] == 'graph "toy \\"q\\"" {'
        assert '  c0 [label="tq d\\"el+ @0"];' in lines
        assert '  c0 -- c1 [label="d\\"el.1"];' in lines
        assert '  c1 -- outer [label="y\\"\\\\"];' in lines
        for line in lines[1:-1]:  # every quoted string is closed
            unescaped = line.replace("\\\\", "").replace('\\"', "")
            assert unescaped.count('"') == 2, line

    def test_bytes_are_pinned(self):
        """JSON, DOT and conjugator (or its refusal) of computations with
        negative steps, a tape-carrying side, and three and eight parts,
        hashed.  Renumbered edges, reordered cells or another side word
        change the digest."""
        d, em, lr = toy_deleter(), cyclic_emitter(), build_lr(["y"])
        e = build_enhanced_standard(toy_deleter())
        z2 = presentation_to_machine(z2_presentation())
        cases = [
            (d, input_configuration(d, W("y y")), W("del del del^-1 del acc")),
            (em, parse_admissible(em.hw, "u a0 v"),
             W("emit emit emit^-1 emit")),
            (lr, home_configuration(lr, W("y y")),
             standard_lr_computation(lr, W("y y"))),
            (e, input_configuration(e, W("y y")),
             accepting_computation_from_history(e, W("del del acc"))),
            (z2, input_configuration(z2, W("x x")),
             emulation_history(z2, W("x x"))),
        ]
        h = hashlib.sha256()
        for m, start, history in cases:
            comp = run(m, start, history)
            trap = computation_to_trapezium(m, comp)
            h.update(trapezium_dumps(trap).encode())
            h.update(trapezium_to_dot(trap).encode())
            try:
                h.update(conjugator_from_accepting(m, comp).tokens().encode())
            except GroupError as err:
                h.update(str(err).encode())
        assert h.hexdigest() == (
            "bda35ee89b5dfd56e8f9833b01d73961e4840430a6a36e744fb7047256960cfa")

    def test_nested_cancellation_bytes_are_pinned(self):
        """JSON and DOT of rows whose writes cancel in every way a fold
        pairs letters, hashed: nested right·right, right·left across an
        empty tape, left·left, right·tape and tape·left, each positive and
        negative.  A cancelling pair shares the edge of its first letter,
        so handing it another fresh edge renumbers the rest."""
        hw = Hardware([StatePart("P0", ["p"]), StatePart("P1", ["q"])],
                      [["x", "y"]])

        def rule(name, right="", left=""):
            return make_rule(hw, name, [RulePart("p", "p", right=W(right)),
                                        RulePart("q", "q", left=W(left))])

        m = Machine("folds", hw, [
            rule("rr", right="x y y^-1 x^-1"),
            rule("rl", right="x y", left="y^-1 x^-1"),
            rule("ll", left="x y y^-1 x^-1"),
            rule("rw", right="x^-1"),
            rule("wl", left="x^-1")])
        h = hashlib.sha256()
        for tape, history in [("", "rr rl ll rr^-1 rl^-1 ll^-1"),
                              ("x y x", "rw wl rw^-1 wl^-1 rr rl^-1")]:
            comp = run(m, parse_admissible(hw, f"p {tape} q"), W(history))
            trap = computation_to_trapezium(m, comp)
            assert validate_trapezium(trap)
            h.update(trapezium_dumps(trap).encode())
            h.update(trapezium_to_dot(trap).encode())
        assert h.hexdigest() == (
            "0368f731a9b3ad235790655fca77cee7837fd99bfd0eb56d63fda8b312cb14bd")


def _first_square_flipped(t):
    """The cells with one edge of the first (theta,a) square reversed."""
    cells = list(t.cells)
    i = next(i for i, c in enumerate(cells) if c.kind == "ta")
    c = cells[i]
    (e, o), *rest = c.boundary
    cells[i] = Cell(c.kind, [(e, -o)] + rest, c.rule, c.index, c.row)
    return cells


def _unknown_edge_in_cell(t):
    c = t.cells[0]
    return [Cell(c.kind, [(1000000, 1)] + list(c.boundary[1:]), c.rule,
                 c.index, c.row)] + list(t.cells[1:])


def _unknown_edge_on_side(t):
    r = t.rows[-1]
    return list(t.rows[:-1]) + [Row(r.rule, r.sign, r.bottom, r.top,
                                    r.left + ((1000000, 1),), r.right)]


def _unknown_edge_on_row(t, side):
    """Row 1's top or bottom, which the outer contour does not read, with
    its first edge replaced by one the trapezium does not have."""
    rows = list(t.rows)
    r = rows[1]
    paths = {"bottom": r.bottom, "top": r.top}
    paths[side] = ((1000000, 1),) + paths[side][1:]
    rows[1] = Row(r.rule, r.sign, paths["bottom"], paths["top"], r.left,
                  r.right)
    return rows


def _row_with(t, j, **fields):
    rows = list(t.rows)
    r = rows[j]
    rows[j] = Row(fields.get("rule", r.rule), fields.get("sign", r.sign),
                  fields.get("bottom", r.bottom), fields.get("top", r.top),
                  r.left, r.right)
    return rows


def _interface_on_row_2_top(t):
    """Rows 0 and 1 with the path between them pointed at row 2's top,
    which spells the same word, q0s y q1s: every label still reads, and
    the outer contour is untouched, so every edge is still used once
    each way."""
    rows = _row_with(t, 0, top=t.rows[2].top)
    rows[1] = _row_with(t, 1, bottom=t.rows[2].top)[1]
    return rows


def _cell_with(t, i, **fields):
    cells = list(t.cells)
    c = cells[i]
    cells[i] = Cell(fields.get("kind", c.kind),
                    fields.get("boundary", c.boundary),
                    fields.get("rule", c.rule), fields.get("index", c.index),
                    fields.get("row", c.row))
    return cells


def _cell_on_missing_row(t):
    c = t.cells[-1]
    return t.cells[:-1] + (Cell(c.kind, c.boundary, c.rule, c.index,
                                len(t.rows)),)


def _edge_with(t, e, kind):
    return {**t.edges, e: Edge(t.edges[e].atom, kind)}


def _detached_sphere(t, row=0):
    """Two (theta,a) cells naming ``row`` on four fresh edges, each
    spelling the first square's relator, glued to each other along all
    four: every edge is used once each way, but no row's band walks the
    pair."""
    c = next(c for c in t.cells if c.kind == "ta")
    n = max(t.edges) + 1
    fresh = {n + i: Edge(t.edges[e].atom, t.edges[e].kind)
             for i, (e, _) in enumerate(c.boundary)}
    a = tuple((n + i, o) for i, (_, o) in enumerate(c.boundary))
    b = tuple((e, -o) for e, o in reversed(a))
    return {"cells": t.cells + (Cell(c.kind, a, c.rule, c.index, row),
                                Cell(c.kind, b, c.rule, c.index, row)),
            "edges": {**t.edges, **fresh}}


def _theta_spur_in_cell(t):
    """Cell 0 with a spur, one fresh theta edge out and back, after its
    first edge: it still spells its relator once reduced, and the spur
    is used once each way, but the cell has four theta uses."""
    c = t.cells[0]
    spur = max(t.edges) + 1
    return {"cells": (Cell(c.kind, c.boundary[:1] + ((spur, 1), (spur, -1))
                           + c.boundary[1:], c.rule, c.index, c.row),)
            + t.cells[1:],
            "edges": {**t.edges, spur: Edge(atom("del.1"), "theta")}}


def _right_sides_swapped(t):
    """Rows 0 and 1, both del rows, with their right sides swapped: every
    label and every edge use stays the same."""
    rows = list(t.rows)
    r0, r1 = rows[:2]
    rows[:2] = [Row(r.rule, r.sign, r.bottom, r.top, r.left, other.right)
                for r, other in ((r0, r1), (r1, r0))]
    return rows


def _forged_word(t, word, path):
    """Stored word 1 replaced by ``word``, with row 0's top and row 1's
    bottom pointed at ``path``, which spells it: every row still reads its
    stored words and every edge use stays, so only the tie of each row's
    bottom and top to its own band sees it."""
    rows = list(t.rows)
    r0, r1 = rows[:2]
    rows[:2] = [Row(r0.rule, r0.sign, r0.bottom, path, r0.left, r0.right),
                Row(r1.rule, r1.sign, path, r1.top, r1.left, r1.right)]
    return {"rows": rows, "words": (t.words[0], word) + t.words[2:]}


def _state_word(t, text):
    """The state word ``text`` with a path through the first edge of each
    of its state letters."""
    path = tuple((min(e for e, edge in t.edges.items()
                      if edge.atom.name == name), 1)
                 for name in text.split())
    return _forged_word(t, parse_admissible(t.machine.hw, text), path)


def _swapped_last_words(t):
    return t.words[:-2] + (t.words[-1], t.words[-2])


def _one_letter_last_word(t):
    return t.words[:-1] + (AdmissibleWord(t.machine.hw, [(atom("q1f"), 1)],
                                          []),)


class TestValidation:
    """Every corruption of a valid trapezium is refused with a GroupError
    that names it.  The computation has a negative row (del^-1).  The
    valid trapezium is validated first, so M(S) of its machine is already
    built when the corruption is checked."""

    def trap(self):
        m = toy_deleter()
        comp = run(m, input_configuration(m, W("y y")),
                   ["del", "del", "del^-1", "del", "acc"])
        return computation_to_trapezium(m, comp)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda t: {"words": t.words[:-1]}, "one more stored word"),
        (lambda t: {"cells": _first_square_flipped(t)},
         "does not spell a relator"),
        (lambda t: {"cells": t.cells[:1] + t.cells[2:]}, r"used \[-1\]"),
        (lambda t: {"rows": _unknown_edge_on_side(t)}, "unknown edge"),
        (lambda t: {"cells": _unknown_edge_in_cell(t)}, "unknown edge"),
        (lambda t: {"rows": _unknown_edge_on_row(t, "top")},
         "unknown edge"),
        (lambda t: {"rows": _unknown_edge_on_row(t, "bottom")},
         "unknown edge"),
        (lambda t: {"rows": _row_with(t, 1, rule="nope")},
         "^row 1 names no rule of the machine$"),
        (lambda t: {"rows": _row_with(t, 0, sign=0)},
         "^row 0 has sign 0, not 1 or -1$"),
        (lambda t: {"rows": _row_with(t, 0, sign=True)},
         "^row 0 has sign True, not 1 or -1$"),
        (lambda t: {"cells": _cell_on_missing_row(t)},
         r"^cell Cell\(tq, acc, 1, row=5\) is not on the theta-band of its "
         "row$"),
        # Cell 0 is the (theta,q) cell of part 0 in row 0, a del row.
        (lambda t: {"cells": _cell_with(t, 0, rule="acc", index=7)},
         r"^cell Cell\(tq, acc, 7, row=0\) spells a relator of "
         r"\('tq', 'del', 0\)$"),
        (lambda t: {"cells": _cell_with(t, 0, kind="ta")},
         r"^cell Cell\(ta, del, 0, row=0\) spells a relator of "
         r"\('tq', 'del', 0\)$"),
        (lambda t: {"cells": _cell_with(t, 0, index=1)},
         r"^cell Cell\(tq, del, 1, row=0\) spells a relator of "
         r"\('tq', 'del', 0\)$"),
        (lambda t: {"cells": _cell_with(t, 0, row=4)},
         r"^cell Cell\(tq, del, 0, row=4\) is not on the theta-band of its "
         "row$"),
        # Cell 3 is the first cell of row 1, and True == 1.
        (lambda t: {"cells": _cell_with(t, 3, row=True)},
         r"^cell Cell\(tq, del, 0, row=True\) has row True, not an int$"),
        # Row 2 is a del row too, so only the band walk of row 0 sees it.
        (lambda t: {"cells": _cell_with(t, 0, row=2)},
         r"^cell Cell\(tq, del, 0, row=2\) is not on the theta-band of its "
         "row$"),
        (_detached_sphere,
         r"^cell Cell\(ta, del, 0, row=0\) is not on the theta-band of its "
         "row$"),
        (lambda t: _detached_sphere(t, row=None),
         "is not on the theta-band of its row"),
        (_theta_spur_in_cell, "^a cell has more than two theta edges$"),
        (lambda t: {"rows": _right_sides_swapped(t)},
         "^row 0 is not one theta-band: its walk stops at edge 10$"),
        (lambda t: {"rows": _interface_on_row_2_top(t)},
         "^row 0 top leaves its band at edge 19$"),
        # Cell 0 starts with edge 0, the state letter q0s of the bottom;
        # True == 1, so every edge is still used once each way.
        (lambda t: {"cells": _cell_with(t, 0, boundary=(
            (0, True),) + t.cells[0].boundary[1:])},
         "^edge 0 has orientation True, not 1 or -1$"),
        # Cell 2 is the (theta,q) cell of part 1 in row 0, and it starts
        # with edge 1, the state letter q1s of the bottom.  True == 1, so
        # each passes every check that compares by value, and would dump
        # as true: only the int pass refuses it.
        (lambda t: {"cells": _cell_with(t, 2, index=True)},
         r"^cell Cell\(tq, del, True, row=0\) has index True, not an int$"),
        (lambda t: {"edges": {(True if e == 1 else e): edge
                              for e, edge in t.edges.items()}},
         "^edge id True is not an int$"),
        (lambda t: {"cells": _cell_with(t, 2, boundary=(
            (True, 1),) + t.cells[2].boundary[1:])},
         "^edge id True is not an int$"),
        # Edge 2 is the first tape letter y of the bottom.
        (lambda t: {"edges": _edge_with(t, 2, "theta")},
         r"^edge 2 is recorded as Edge\(y, theta\), not Edge\(y, a\)$"),
        (lambda t: {"edges": {**t.edges, 2: Edge(atom("zebra"), "a")}},
         r"^edge 2 has atom 'zebra', not a generator of M\(toy_deleter\)$"),
        (lambda t: {"edges": {**t.edges, 2: Edge(atom("zebra"), "theta")}},
         r"^edge 2 has atom 'zebra', not a generator of M\(toy_deleter\)$"),
        (lambda t: {"words": _swapped_last_words(t)}, "top label is wrong"),
        # Row 1 is del, which applies to stored word 0 as well; row 0's
        # bottom edges are on row 0's band, not on row 1's.
        (lambda t: _forged_word(t, t.words[0], t.rows[0].bottom),
         "^row 1 bottom leaves its band at edge 0$"),
        # Row 1 is del, which needs q0s; edge 37 is the first q0f edge, on
        # row 4's band.
        (lambda t: _state_word(t, "q0f q1s"),
         "^row 0 top leaves its band at edge 37$"),
        (lambda t: {"words": _one_letter_last_word(t)}, "standard base"),
        # Uses in face order: the cells, then the outer contour.
        (lambda t: {"cells": t.cells + (t.cells[0],)},
         r"^edge 0 used \[1, 1, -1\], expected once each way$"),
        # Edge 42 is one past the last: a record that no path names.
        (lambda t: {"edges": {**t.edges, max(t.edges) + 1: t.edges[2]}},
         r"^edge 42 used \(\), expected once each way$"),
    ], ids=["dropped_word", "flipped_square_edge", "dropped_cell",
            "unknown_side_edge", "unknown_cell_edge", "unknown_inner_top_edge",
            "unknown_inner_bottom_edge", "unknown_rule", "zero_sign",
            "bool_sign", "missing_cell_row", "cell_rule_and_index",
            "cell_kind", "cell_index", "cell_in_other_rule_row",
            "bool_cell_row", "cell_in_other_row", "detached_sphere",
            "detached_sphere_no_row",
            "theta_spur_in_cell", "right_sides_swapped",
            "interface_on_another_row", "bool_orientation",
            "bool_cell_index", "bool_edge_key", "bool_path_edge",
            "edge_kind", "edge_atom", "edge_theta_atom",
            "swapped_words", "forged_word", "forged_state_word",
            "one_letter_base", "duplicated_cell", "unused_edge"])
    def test_corruption_refused(self, corrupt, message):
        t = self.trap()
        assert validate_trapezium(t)
        parts = {"rows": t.rows, "cells": t.cells, "words": t.words,
                 "edges": t.edges}
        parts.update(corrupt(t))
        bad = Trapezium(t.machine, parts["rows"], parts["cells"],
                        parts["edges"], parts["words"])
        with pytest.raises(GroupError, match=message):
            validate_trapezium(bad)

    @pytest.mark.parametrize("corrupt", [
        lambda t: _forged_word(t, t.words[0], t.rows[0].bottom),
        lambda t: _state_word(t, "q0f q1s"),
    ], ids=["forged_word", "forged_state_word"])
    def test_forged_word_does_not_replay(self, corrupt):
        """The round trip replays the stored words, so it names the forged
        one, where validation names the row that leaves its band."""
        t = self.trap()
        parts = {"rows": t.rows, "cells": t.cells, "words": t.words,
                 "edges": t.edges}
        parts.update(corrupt(t))
        bad = Trapezium(t.machine, parts["rows"], parts["cells"],
                        parts["edges"], parts["words"])
        with pytest.raises(GroupError, match="^stored word 1 does not replay$"):
            trapezium_to_computation(bad)

    def test_cell_spelling_a_relator_once_reduced(self):
        """A spur, one fresh edge out and back, in a cell's boundary: the
        cell still spells its relator once reduced, and the spur edge is
        used once each way, so the trapezium stays valid."""
        t = self.trap()
        spur = max(t.edges) + 1
        c = t.cells[0]
        cells = (Cell(c.kind, c.boundary[:1] + ((spur, 1), (spur, -1))
                      + c.boundary[1:], c.rule, c.index, c.row),) + t.cells[1:]
        edges = {**t.edges, spur: Edge(atom("y"), "a")}
        assert validate_trapezium(Trapezium(t.machine, t.rows, cells, edges,
                                            t.words))

    @pytest.mark.parametrize("corrupt, message", [
        (lambda r: setattr(r[0], "left", r[4].left),
         "row 0 left side label is wrong"),
        (lambda r: setattr(r[4], "right", r[0].right),
         "row 4 right side label is wrong"),
        (lambda r: setattr(r[0], "rule", "acc"),
         "row 0 left side label is wrong"),
        (lambda r: setattr(r[1], "bottom", r[0].bottom),
         "row 1 bottom label is wrong"),
    ], ids=["left_side", "right_side", "rule", "bottom"])
    def test_row_corruption_refused(self, corrupt, message):
        """A row edited in place while the outer contour stays as built:
        every edge is still used once each way, so only the row checks
        can see it."""
        t = self.trap()
        assert validate_trapezium(t)
        corrupt(t.rows)
        with pytest.raises(GroupError, match=message):
            validate_trapezium(t)

    @pytest.mark.parametrize("side", ["top", "bottom"])
    def test_outer_path_reversed(self, side):
        """The trapezium's own top or bottom reversed in place after it
        was built: every edge use stays and every row still reads its
        stored words, so only the outer label checks can see it."""
        t = self.trap()
        assert validate_trapezium(t)
        setattr(t, side, getattr(t, side)[::-1])
        with pytest.raises(GroupError, match=f"^{side} label is wrong$"):
            validate_trapezium(t)

    def test_zero_row_word_swapped(self):
        m = toy_deleter()
        t = computation_to_trapezium(
            m, run(m, input_configuration(m, W("y")), []))
        bad = Trapezium(m, (), (), t.edges, (input_configuration(m, W("y y")),),
                        degenerate=t.bottom)
        with pytest.raises(GroupError, match="^bottom label is wrong$"):
            validate_trapezium(bad)


class TestGroupBuiltOnce:
    """validate_trapezium builds M(S) once per machine.  Neither a verdict
    nor a failure to build M(S) is kept."""

    @pytest.fixture
    def builds(self, monkeypatch):
        names = []
        build = group.machine_to_group

        def counting(m, strict=False):
            names.append(m.name)
            return build(m, strict)

        monkeypatch.setattr(group, "machine_to_group", counting)
        return names

    def test_two_trapezia_of_one_machine(self, builds):
        m = toy_deleter()
        for history in (["del", "acc"], ["del", "del^-1", "del", "acc"]):
            comp = run(m, input_configuration(m, W("y")), history)
            assert validate_trapezium(computation_to_trapezium(m, comp))
        assert builds == ["toy_deleter"]
        other = toy_deleter()
        comp = run(other, input_configuration(other, W("y")), ["del", "acc"])
        assert validate_trapezium(computation_to_trapezium(other, comp))
        assert builds == ["toy_deleter"] * 2

    def test_theta_collision_raises_every_call(self, builds):
        # The tape letter go.1 is also the theta letter of rule go at gap 1.
        hw = Hardware([StatePart("T0", ["s0"]), StatePart("T1", ["s1"])],
                      [["go.1"]], input_sectors=[0])
        m = Machine("collide", hw,
                    [make_rule(hw, "go", [("s0", "s0"), ("s1", "s1")])])
        comp = run(m, input_configuration(m, W("go.1")), ["go"])
        trap = computation_to_trapezium(m, comp)
        for _ in range(2):
            with pytest.raises(GroupError, match="collides"):
                validate_trapezium(trap)
        assert builds == ["collide"] * 2

    def test_strict_presentation_unchanged(self):
        m = toy_deleter()
        strict = machine_to_group(m, strict=True).dumps()
        comp = run(m, input_configuration(m, W("y")), ["del", "acc"])
        assert validate_trapezium(computation_to_trapezium(m, comp))
        assert (machine_to_group(m, strict=True).dumps()
                == strict)
        assert len(machine_to_group(m).relators) == 5


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_machines_pickle_without_their_caches(protocol):
    """A machine pickles to the same bytes before and after a search has
    compiled its rule table and a validation has built its group's
    closure, at every protocol.  The encoder machine's meta holds a
    presentation and a doubled alphabet, which pickle too."""
    z2 = presentation_to_machine(z2_presentation())
    for m, text, history in (
            (toy_deleter(), "y y", ["del", "del", "acc"]),
            (z2, "x x", emulation_history(z2, W("x x")))):
        before = pickle.dumps(m, protocol)
        assert accepts(m, [W(text)], 4).found
        comp = run(m, input_configuration(m, W(text)), history)
        assert validate_trapezium(computation_to_trapezium(m, comp))
        assert pickle.dumps(m, protocol) == before
        dup = pickle.loads(before)
        assert machine_dumps(dup) == machine_dumps(m)
        assert accepts(dup, [W(text)], 4).history == comp.history_word()


def test_deep_copies_flatten_validate_and_replay():
    """A deep copy of a computation or a trapezium shares the hardware of
    its configurations, as a deep copy of a configuration is the
    configuration itself, so every replay reaches the stored words."""
    m = toy_deleter()
    comp = run(m, input_configuration(m, W("y y")),
               ["del", "del", "del^-1", "del", "acc"])
    dup = copy.deepcopy(comp)
    assert dup.machine is not m and dup.machine.hw is m.hw
    trap = computation_to_trapezium(dup.machine, dup)
    assert trapezium_dumps(trap) == trapezium_dumps(
        computation_to_trapezium(m, comp))
    assert conjugator_from_accepting(dup.machine, dup) == \
        conjugator_from_accepting(m, comp)
    twin = copy.deepcopy(trap)
    assert validate_trapezium(twin)
    assert trapezium_to_computation(twin).configs == comp.configs


@pytest.mark.parametrize("flatten", [computation_to_trapezium,
                                     conjugator_from_accepting])
def test_rules_of_another_machine_refused(flatten):
    """A computation run on a twin machine, or a deep copy of one, applies
    rule objects the machine it is flattened with does not own: a
    one-line GroupError names the first such step before any replay."""
    m, twin = toy_deleter(), toy_deleter()
    start = input_configuration(twin, W("y y"))
    comp = run(twin, start, ["del", "del", "acc"])
    message = "^step 0 applies rule 'del' of another machine$"
    with pytest.raises(GroupError, match=message):
        flatten(m, comp)
    with pytest.raises(GroupError, match=message):
        flatten(twin, copy.deepcopy(comp))
    assert flatten(twin, comp) is not None


def _deleter_run(history, strict=True):
    m = toy_deleter()
    return run(m, input_configuration(m, W("y y")), history, strict=strict)


def _deleter_trapezium():
    comp = _deleter_run(["del", "del", "acc"])
    return computation_to_trapezium(comp.machine, comp)


# name -> (value, its repr), on toy_deleter and the z2 presentation.
REPRS = {
    "word": (lambda: W("y y^-1"), "Word(y y^-1)"),
    "state_part": (lambda: toy_deleter().hw.parts[0],
                   "StatePart(T0, ['q0s', 'q0f'])"),
    "rule_part": (lambda: toy_deleter().rule("del").parts[1],
                  "[q1s -> y^-1 . q1s . ε]"),
    "rule": (lambda: toy_deleter().rule("del"), "SRule(del)"),
    "computation": (lambda: _deleter_run(["del", "del", "acc"]),
                    "Computation(3 steps, ok)"),
    "failed_computation": (lambda: _deleter_run(["acc"], strict=False),
                           "Computation(0 steps, failed at 0)"),
    "trapezium": (_deleter_trapezium,
                  "Trapezium(toy_deleter, 3 rows, 7 cells)"),
    "presentation": (z2_presentation,
                     "<presentation z2: 1 generators, 1 relators>"),
}


@pytest.mark.parametrize("name", REPRS)
def test_reprs_are_pinned(name):
    build, text = REPRS[name]
    assert repr(build()) == text


class TestDichotomy:
    def test_short_runs(self):
        m = toy_deleter()
        comp = run(m, input_configuration(m, W("y y y")),
                   ["del"] * 3 + ["acc"])
        recs = run_dichotomy(m, comp)
        assert [r["status"] for r in recs] == ["short", "short"]
        assert recs[0]["length"] == 3

    def test_long_idle_run_is_periodic(self):
        m = one_sector_left_multiplier(["a", "b"], idle=True)
        comp = run(m, input_configuration(m, W("a a")), ["idle"] * 12)
        recs = run_dichotomy(m, comp)
        assert [r["status"] for r in recs] == ["periodic"]

    def test_growing_run_is_short(self):
        m = one_sector_left_multiplier(["a"])
        comp = run(m, input_configuration(m), ["mul(a)"] * 6)
        assert run_dichotomy(m, comp)[0]["status"] == "short"


class TestConjugator:
    def test_deleter(self):
        m = toy_deleter()
        start = input_configuration(m, W("y y"))
        comp = run(m, start, ["del", "del", "acc"])
        g = conjugator_from_accepting(m, comp)
        assert g == W("del.0 del.0 acc.0")
        assert len(g) == len(comp)

    def test_conjugation_abelianized(self):
        m = toy_deleter()
        start = input_configuration(m, W("y y"))
        comp = run(m, start, ["del", "del", "acc"])
        g = conjugator_from_accepting(m, comp)
        p = machine_to_group(m)
        claim = free_reduce(start.to_word().inverse() * g
                            * comp.end.to_word() * g.inverse())
        assert abelianized_trivial(p, claim)

    def test_exact_in_one_part_group(self):
        m = one_part_machine()
        comp = run(m, input_configuration(m, ()), ["go"])
        g = conjugator_from_accepting(m, comp)
        assert g == W("go.0")
        p = machine_to_group(m)
        claim = free_reduce(comp.configs[0].to_word().inverse() * g
                            * comp.end.to_word() * g.inverse())
        res = area_oracle(p, claim, max_area=1)
        assert res.found and res.area == 1

    def test_interior_writes_still_conjugate(self):
        m = one_sector_left_multiplier(["a", "b"])
        comp = run(m, input_configuration(m), ["mul(a)", "mul(b)"])
        assert conjugator_from_accepting(m, comp) == W("mul(a).0 mul(b).0")

    def test_emission_refused(self):
        m = cyclic_emitter()
        start = AdmissibleWord(m.hw, [(atom("u"), 1), (atom("v"), 1)],
                               [Word.of("a0")])
        comp = run(m, start, ["emit"])
        with pytest.raises(GroupError):
            conjugator_from_accepting(m, comp)


class TestHeisenberg:
    def test_product_shape(self):
        hp = heisenberg_product(z2_presentation())
        assert [g.name for g in hp.generators] == ["x", "a", "b", "c"]
        # one old relator, three Heisenberg ones, three cross-commutators
        assert len(hp.relators) == 1 + 3 + 3
        assert hp.name == "z2xH"

    def test_name_collision_uniquified(self):
        p = GroupPresentation([atom("a")], [W("a a")], name="za")
        hp = heisenberg_product(p)
        assert [g.name for g in hp.generators] == ["a", "a_", "b", "c"]

    def test_central_commutator_fills(self):
        hp = heisenberg_product(z2_presentation())
        res = area_oracle(hp, W("a b a^-1 b^-1 c^-1"), max_area=1)
        assert res.found and res.area == 1

    def test_cross_commutator_fills(self):
        hp = heisenberg_product(z2_presentation())
        res = area_oracle(hp, W("x c x^-1 c^-1"), max_area=1)
        assert res.found

    def test_dehn_cell_bound(self):
        assert dehn_cell_bound_check(1, 5)
        assert dehn_cell_bound_check(28, 8)  # 8^3/8 + 8^2/2 = 96
        assert dehn_cell_bound_check(96, 8)
        assert not dehn_cell_bound_check(97, 8)
        assert not dehn_cell_bound_check(100, 5)
