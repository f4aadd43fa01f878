"""The two primitive copying machines over an alphabet Y.

Both have three parts P, Q, R with letters p1/p2, q1/q2, r1/r2 and two
sectors holding disjoint copies of Y (written y#1 and y#2).  LR keeps a
word in its PQ-sector: tau1 rules shovel it letter by letter into the
QR-sector, the connecting rule zeta fires only once the PQ-sector is
empty, and tau2 rules shovel it back.  RL is the mirror image, living in
the QR-sector, with connecting rule xi locking that sector; one builder
makes both, from the home sector.

The point of the detour through the opposite sector is control: the
connecting rule checks emptiness, so a computation between the two home
configurations is forced to visit the checkpoint with everything copied
across, which pins its length to 2|u| + 1.
"""
from __future__ import annotations

from smforge.machine import (AdmissibleWord, Hardware, Machine, MachineError,
                             RulePart, StatePart, make_rule)
from smforge.words import EMPTY, Word, atom, copy_alphabet


def _base(letters):
    base = tuple(map(atom, letters))
    if not base:
        raise MachineError("the alphabet must be nonempty")
    if len(set(base)) != len(base):
        raise MachineError("repeated letter in the alphabet")
    return base


def _copier(letters, name: str, home: int) -> Machine:
    """LR (home sector 0, connecting rule zeta) or its mirror RL (home
    sector 1, connecting rule xi, write signs flipped)."""
    base = _base(letters)
    c1 = copy_alphabet(base, "{}#1")
    c2 = copy_alphabet(base, "{}#2")
    hw = Hardware(
        [StatePart("P", ["p1", "p2"]), StatePart("Q", ["q1", "q2"]),
         StatePart("R", ["r1", "r2"])],
        [[c1[y] for y in base], [c2[y] for y in base]],
        input_sectors=[home])

    def shovel(i, sign):
        # tau_i(y) writes y#1^sign left and y#2^-sign right of Q
        return [make_rule(
            hw, f"tau{i}({y.name})",
            [(f"p{i}", f"p{i}"),
             RulePart(f"q{i}", f"q{i}", left=Word.of((c1[y], sign)),
                      right=Word.of((c2[y], -sign))),
             (f"r{i}", f"r{i}")]) for y in base]

    domains = ["full", "full"]
    domains[home] = []
    sign = 1 if home else -1
    rules = (shovel(1, sign)
             + [make_rule(hw, ("zeta", "xi")[home],
                          [("p1", "p2"), ("q1", "q2"), ("r1", "r2")],
                          domains=domains)]
             + shovel(2, -sign))
    meta = {"kind": ("LR", "RL")[home], "base": base, "copy1": c1, "copy2": c2}
    return Machine(name, hw, rules, meta)


def build_lr(letters, name: str = "LR") -> Machine:
    return _copier(letters, name, 0)


def build_rl(letters, name: str = "RL") -> Machine:
    return _copier(letters, name, 1)


def home_configuration(m: Machine, u: Word, level: int = 1):
    """The configuration holding (a copy of) u in the home sector of an LR
    or RL machine, with level-1 or level-2 state letters."""
    kind = m.meta.get("kind")
    if kind not in ("LR", "RL"):
        raise MachineError(f"machine {m.name!r} is neither LR nor RL")
    if type(level) is not int or level not in (1, 2):
        raise MachineError(f"level {level!r} is not 1 or 2")
    states = [(p.letters[level - 1], 1) for p in m.parts]
    if kind == "LR":
        tapes = [m.meta["copy1"](u), EMPTY]
    else:
        tapes = [EMPTY, m.meta["copy2"](u)]
    return AdmissibleWord(m.hw, states, tapes)


def _copy_history(letters, connect: str) -> Word:
    steps = [(atom(f"tau1({a.name})"), e) for a, e in letters]
    steps.append((atom(connect), 1))
    steps += [(atom(f"tau2({a.name})"), e) for a, e in reversed(letters)]
    return Word(steps)


def standard_lr_computation(m: Machine, u: Word) -> Word:
    """History of length 2|u| + 1 from the level-1 to the level-2 home
    configuration of LR holding u: tau1 for the letters of u from the
    right, zeta, tau2 for the letters from the left."""
    return _copy_history(u.letters[::-1], "zeta")


def standard_rl_computation(m: Machine, u: Word) -> Word:
    """Mirror history for RL: tau1 along u, xi, tau2 along u reversed."""
    return _copy_history(u.letters, "xi")
