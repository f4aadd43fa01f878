"""Historical sectors, padding, and the five-stage composed machine.

Both splits share one block layout.  Every part q_i of a machine S becomes
a block of k tagged parts with k - 1 inner sectors between them, S's
working sectors survive between consecutive blocks, and S's input sector t
becomes sector k*t + k - 1.

add_historical_sectors (k = 2: Q_il, Q_ir) puts one historical sector in
each block whose alphabet holds two disjoint copies (L and R) of the rule
names.  Each rule of S multiplies it by hl(rule)^-1 on the left end and
hr(rule) on the right end, so a computation with history H turns the
L-copy of H into the R-copy there, and an empty historical sector stays
equal to copy_L(H)^-1 . copy_R(H) — which is why the split machine on its
own accepts nothing unless H freely cancels.

pad_locked (k = 4: P_i, Q_il, Q_ir, R_i) adds a pad sector on either side
of the historical one, which every rule of S locks; the working writes
move outward to P_i (left words) and R_i (right words).

compose chains five stages over that hardware, keyed by tags @1..@5 on
state letters and rule names:

  1. guess rules write an L-copy history into every historical sector;
  2. the parallel LR copier on (Q_il, Q_ir, R_i) copies it out to the
     right pad sectors and back, checking emptiness in between;
  3. the padded machine runs verbatim, consuming the input;
  4. the parallel RL copier on (P_i, Q_il, Q_ir) does the mirror copy of
     the R-copies through the left pad sectors;
  5. erasing rules delete the R-copies.

With transitions sigma(12)..sigma(45), an accepting computation of S with
history H yields an accepting computation of the composed machine of
length exactly 7|H| + 6, whose stages 2 and 4 are the standard
LR and RL copy histories of H (primitive._copy_history).
"""
from __future__ import annotations

from smforge.machine import (
    AdmissibleWord,
    Hardware,
    Machine,
    MachineError,
    RulePart,
    SRule,
    StatePart,
)
from smforge.primitive import _copy_history
from smforge.words import EMPTY, Word, atom


def hist_atom(kind: str, rule_name: str, block: int):
    """Tape letter of a historical sector: kind is L or R for the central
    sector of the block, Lp/Rp for its left pad, Lr/Rr for its right pad."""
    return atom(f"{rule_name}#{kind}{block}")


def hl(rule_name, block):
    return hist_atom("L", rule_name, block)


def hr(rule_name, block):
    return hist_atom("R", rule_name, block)


def _tagged(p: StatePart, tag: str) -> StatePart:
    """A copy of part p named p.tag, every letter q renamed q#tag."""
    return StatePart(f"{p.name}.{tag}", [f"{q.name}#{tag}" for q in p.letters],
                     f"{p.start.name}#{tag}", f"{p.end.name}#{tag}")


def _tagged_rule(rp: RulePart, tag: str, left=EMPTY, right=EMPTY) -> RulePart:
    """The action of rp on the copy _tagged(p, tag), writing left, right."""
    return RulePart(f"{rp.frm.name}#{tag}", f"{rp.to.name}#{tag}", left, right)


def _require(m: Machine, kind: str, what: str):
    if m.meta.get("kind") != kind:
        raise MachineError(f"{what} expects a machine built by this module "
                           f"(kind={kind!r}), got {m.name!r}")


def _blocked(s: Machine, tags: str, inner, name: str, meta: dict) -> Machine:
    """S split into blocks: part p_i of S becomes the parts p_i.tag, one per
    tag, and inner names the inner sectors of each block by the suffix of
    their hist_atom kinds.  '' is the historical sector (L and R copies),
    which every rule leaves open; 'p' and 'r' are the left and right pads
    (Lp/Rp, Lr/Rr), which every rule locks.

    A rule writes S's left word on the first part of a block and its right
    word on the last; part l writes hl^-1 on its right and part r writes hr
    on its left, both into the historical sector.
    """
    n, k = s.n_parts, len(tags)
    rule_names = [r.name for r in s.rules]
    parts = [_tagged(p, tag) for p in s.parts for tag in tags]
    alphabets = []
    for i in range(n):
        alphabets += [[hist_atom("L" + x, rn, i) for rn in rule_names]
                      + [hist_atom("R" + x, rn, i) for rn in rule_names]
                      for x in inner]
        if i < n - 1:
            alphabets.append(s.sector_alphabets[i])
    hw = Hardware(parts, alphabets, [k * t + k - 1 for t in s.input_sectors])
    rules = []
    for r in s.rules:
        rps = []
        doms = []
        for i in range(n):
            rp = r.parts[i]
            for j, tag in enumerate(tags):
                left = (rp.left if j == 0
                        else Word.of(hr(r.name, i)) if tag == "r" else EMPTY)
                right = (rp.right if j == k - 1
                         else Word.of((hl(r.name, i), -1)) if tag == "l"
                         else EMPTY)
                rps.append(_tagged_rule(rp, tag, left, right))
            doms += [hw.sector_alphabets[k * i + j] if not x else frozenset()
                     for j, x in enumerate(inner)]
            if i < n - 1:
                doms.append(r.domains[i])
        rules.append(SRule(r.name, rps, doms))
    blocks = range(0, k * n, k)
    meta.update(blocks=n, base_rules=tuple(rule_names),
                central_sectors=tuple(b + inner.index("") for b in blocks))
    pads = tuple(b + j for b in blocks for j, x in enumerate(inner) if x)
    if pads:
        meta["pad_sectors"] = pads
    meta["working_sectors"] = tuple(b + k - 1 for b in blocks[:-1])
    return Machine(name, hw, rules, meta)


def add_historical_sectors(s: Machine) -> Machine:
    """The split machine S_h: parts doubled, one historical sector per
    original part, working sectors kept."""
    if s.cyclic:
        raise MachineError("split a non-cyclic machine first")
    return _blocked(s, "lr", ("",), f"{s.name}.h",
                    {"kind": "historical", "source": s})


def pad_locked(sh: Machine) -> Machine:
    """The padded machine S_h': blocks P_i, Q_il, Q_ir, R_i with two
    perpetually locked pad sectors per block; working writes move to the
    pad parts."""
    _require(sh, "historical", "pad_locked")
    s: Machine = sh.meta["source"]
    return _blocked(s, "plrs", ("p", "", "r"), f"{s.name}.hp",
                    {"kind": "padded", "source": s, "historical": sh})


def compose(shp: Machine) -> Machine:
    """The five-stage machine over the padded hardware."""
    _require(shp, "padded", "compose")
    rule_names = shp.meta["base_rules"]
    centrals = shp.meta["central_sectors"]

    def column(fmt):
        return [atom(fmt.format(j)) for j in range(shp.n_parts)]

    u, v1, v2 = column("u{}@1"), column("v{}.1@2"), column("v{}.2@2")
    w1, w2, z = column("w{}.1@4"), column("w{}.2@4"), column("z{}@5")
    tag3 = {q: atom(f"{q.name}@3") for p in shp.parts for q in p.letters}
    parts = [StatePart(p.name, [u[j], v1[j], v2[j], *map(tag3.get, p.letters),
                                w1[j], w2[j], z[j]], u[j], z[j])
             for j, p in enumerate(shp.parts)]
    hw = Hardware(parts, shp.sector_alphabets, shp.input_sectors)
    rules = []

    def doms(kinds, inputs):
        """Sector c + offset of each block, c its central sector, gets the
        kinds[offset] copies; an input sector all of it if inputs."""
        assign = {c + off: frozenset(hist_atom(kind, rn, i) for rn in rule_names)
                  for i, c in enumerate(centrals) for off, kind in kinds.items()}
        return [assign.get(sec, alphabet if inputs and sec in hw.input_sectors
                           else frozenset())
                for sec, alphabet in enumerate(hw.sector_alphabets)]

    def switch(name, frm, to, dom):
        rules.append(SRule(name, [RulePart(*q) for q in zip(frm, to)], dom))

    def stage(part, dom, *shapes):
        """One rule per base rule rn and shape (name, states, left, right):
        every part loops on its state, and part c + part of each block, c
        its central sector, writes the (kind, sign) copy of rn or nothing."""
        for rn in rule_names:
            for name, states, *ends in shapes:
                writes = {c + part: [EMPTY if e is None else Word.of(
                    (hist_atom(e[0], rn, i), e[1])) for e in ends]
                    for i, c in enumerate(centrals)}
                rules.append(SRule(name.format(rn), [RulePart(
                    q, q, *writes.get(j, ())) for j, q in enumerate(states)], dom))

    # stage 1: append an L-copy letter to every historical sector.
    dom1 = doms({0: "L"}, True)
    stage(1, dom1, ("{}@1", u, ("L", 1), None))

    # stage 2: parallel LR on (Q_il, Q_ir, R_i) through the right pads;
    # zeta switches the states once the central sector is empty.
    stage(1, doms({0: "L", 1: "Lr"}, True),
          ("tau1({})@2", v1, ("L", -1), ("Lr", 1)),
          ("tau2({})@2", v2, ("L", 1), ("Lr", -1)))
    switch("zeta@2", v1, v2, doms({1: "Lr"}, True))

    # stage 3: the padded machine verbatim.
    for r in shp.rules:
        rps = [RulePart(tag3[p.frm], tag3[p.to], p.left, p.right)
               for p in r.parts]
        rules.append(SRule(f"{r.name}@3", rps, r.domains))

    # stage 4: parallel RL on (P_i, Q_il, Q_ir) through the left pads,
    # with everything else, input included, locked.
    stage(0, doms({0: "R", -1: "Rp"}, False),
          ("tau1({})@4", w1, ("Rp", 1), ("R", -1)),
          ("tau2({})@4", w2, ("Rp", -1), ("R", 1)))
    switch("xi@4", w1, w2, doms({-1: "Rp"}, False))

    # stage 5: erase a leading R-copy letter from every historical sector.
    dom5 = doms({0: "R"}, False)
    stage(0, dom5, ("{}@5", z, None, ("R", -1)))

    # transitions: stage 1's domains around stage 2, stage 5's around 4.
    switch("sigma(12)", u, v1, dom1)
    switch("sigma(23)", v2, [tag3[p.start] for p in shp.parts], dom1)
    switch("sigma(34)", [tag3[p.end] for p in shp.parts], w1, dom5)
    switch("sigma(45)", w2, z, dom5)
    return Machine(f"{shp.meta['source'].name}.E", hw, rules,
                   {**shp.meta, "kind": "composed", "padded": shp})


def build_enhanced_standard(s: Machine) -> Machine:
    return compose(pad_locked(add_historical_sectors(s)))


def make_cyclic(m: Machine) -> Machine:
    """Close the circle with an empty-alphabet wrap sector; every rule
    gets an (empty) wrap domain."""
    if m.cyclic:
        return m
    hw = Hardware(m.parts, m.sector_alphabets + (frozenset(),),
                  m.input_sectors, cyclic=True)
    rules = [SRule(r.name, r.parts, r.domains + (frozenset(),))
             for r in m.rules]
    meta = dict(m.meta)
    meta["cyclic_of"] = m.name
    return Machine(f"{m.name}.cyclic", hw, rules, meta)


def working_length(m: Machine, aw: AdmissibleWord) -> int:
    """Total tape length in the working sectors (all sectors, for a
    machine without the meta annotation)."""
    working = m.meta.get("working_sectors")
    if working is None:
        return aw.tape_length()
    working = set(working)
    return sum(len(w) for w, s in zip(aw.tapes, aw.gap_sectors) if s in working)


def _phase_tag(name: str):
    if name.startswith("sigma(") and name.endswith(")"):
        return name[6:-1]
    if "@" in name:
        return name.rsplit("@", 1)[1]
    return name


def step_history(history) -> list[str]:
    """Summary of a composed-machine history as a phase sequence.

    Each rule maps to its stage tag (1..5) or transition tag (12..45);
    consecutive equal tags collapse, and a transition tag disappears when
    it sits exactly between its two stages.
    """
    if hasattr(history, "history_word"):
        history = history.history_word()
    tags = []
    for a, _ in history.letters:
        t = _phase_tag(a.name)
        if not tags or tags[-1] != t:
            tags.append(t)
    out = []
    for i, t in enumerate(tags):
        if (len(t) == 2 and i > 0 and i + 1 < len(tags)
                and tags[i - 1] == t[0] and tags[i + 1] == t[1]):
            continue
        out.append(t)
    return out


def accepting_computation_from_history(em: Machine, history: Word) -> Word:
    """The length-(7k+6) accepting history of the composed machine built
    from an accepting history of the source machine."""
    _require(em, "composed", "accepting_computation_from_history")
    base = set(em.meta["base_rules"])
    for a, _ in history.letters:
        if a.name not in base:
            raise MachineError(f"{a.name!r} is not a rule of the source machine")
    h = history.letters
    steps = []
    for k, w in enumerate([history, _copy_history(h[::-1], "zeta"), history,
                           _copy_history(h, "xi"), history], 1):
        if k > 1:
            steps.append((atom(f"sigma({k - 1}{k})"), 1))
        steps += [(atom(f"{a.name}@{k}"), e) for a, e in w.letters]
    return Word(steps)
