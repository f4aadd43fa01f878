"""Small machines and presentations used across the test suite and the
demos."""
from __future__ import annotations

from smforge.encode import GroupPresentation
from smforge.machine import Hardware, Machine, RulePart, StatePart, make_rule
from smforge.words import EMPTY, Word, atom, atoms, copy_alphabet


def toy_deleter() -> Machine:
    """Two parts over one {y}-sector.  'del' erases a trailing y (its
    inverse erases a trailing y^-1), 'acc' locks the sector.  Accepts
    every reduced word y^k, with a shortest accepting computation of
    length |k| + 1."""
    y = atom("y")
    hw = Hardware(
        [StatePart("T0", ["q0s", "q0f"], "q0s", "q0f"),
         StatePart("T1", ["q1s", "q1f"], "q1s", "q1f")],
        [[y]], input_sectors=[0])
    rules = [
        make_rule(hw, "del",
                  [("q0s", "q0s"),
                   RulePart("q1s", "q1s", left=Word.of((y, -1)))]),
        make_rule(hw, "acc", [("q0s", "q0f"), ("q1s", "q1f")], domains=[[]]),
    ]
    return Machine("toy_deleter", hw, rules)


def trivial_acceptor() -> Machine:
    """One {y}-sector, singleton parts, no rules: accepts only the empty
    word, in zero steps."""
    y = atom("y")
    hw = Hardware([StatePart("A0", ["p0"]), StatePart("A1", ["p1"])],
                  [[y]], input_sectors=[0])
    return Machine("trivial_acceptor", hw, [])


def _one_sector(name: str, alphabet, writes) -> Machine:
    """Parts M0 = {Q0} and M1 = {Q1} around one input sector over
    alphabet; writes lists (rule name, word right of Q0, word left of Q1)."""
    hw = Hardware([StatePart("M0", ["Q0"]), StatePart("M1", ["Q1"])],
                  [alphabet], input_sectors=[0])
    return Machine(name, hw, [
        make_rule(hw, rn, [RulePart("Q0", "Q0", right=right),
                           RulePart("Q1", "Q1", left=left)])
        for rn, right, left in writes])


def one_sector_left_multiplier(letters=("a", "b"), idle=False) -> Machine:
    """One sector; rule mul(x) turns the tape w into x.w.  With ``idle``,
    an extra rule that does nothing at all."""
    ab = atoms(letters)
    writes = [(f"mul({x.name})", Word.of(x), EMPTY) for x in ab]
    return _one_sector("left_multiplier", ab,
                       writes + ([("idle", EMPTY, EMPTY)] if idle else []))


def paired_multiplier(letters=("a", "b")) -> Machine:
    """One sector over two disjoint copies of the alphabet; rule mul(x)
    turns the tape w into x_l.w.x_r, both sides in one step."""
    base = atoms(letters)
    cl = copy_alphabet(base, "{}_l")
    cr = copy_alphabet(base, "{}_r")
    return _one_sector("paired_multiplier",
                       [cl[a] for a in base] + [cr[a] for a in base],
                       [(f"mul({a.name})", Word.of(cl[a]), Word.of(cr[a]))
                        for a in base])


def z2_presentation() -> GroupPresentation:
    """⟨x | x²⟩: a word is trivial exactly when its exponent sum is
    even."""
    return GroupPresentation(atoms(["x"]), [Word.from_tokens("x x")],
                             name="z2")


def commutator_presentation() -> GroupPresentation:
    """⟨x, y | xyx⁻¹y⁻¹⟩: the free abelian group of rank two."""
    return GroupPresentation(atoms(["x", "y"]),
                             [Word.from_tokens("x y x^-1 y^-1")],
                             name="zxz")


def two_sided_multiplier(letters=("a", "b")) -> Machine:
    """One sector; lmul(x): w -> x.w and rmul(x): w -> w.x."""
    ab = atoms(letters)
    return _one_sector("two_sided_multiplier", ab, [
        rule for x in ab for rule in ((f"lmul({x.name})", Word.of(x), EMPTY),
                                      (f"rmul({x.name})", EMPTY, Word.of(x)))])
