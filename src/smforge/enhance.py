"""Historical sectors, padding, and the five-stage composed machine.

add_historical_sectors splits every part q_i of a machine S into a pair
Q_il, Q_ir with a new historical sector between them whose alphabet holds two
disjoint copies (L and R) of the rule names.  Each rule of S additionally
multiplies that sector by hl(rule)^-1 on the left end and hr(rule) on the
right end, so a computation with history H turns the L-copy of H into the
R-copy of H there, and an empty historical sector stays equal to
copy_L(H)^-1 . copy_R(H) — which is why the split machine on its own
accepts nothing unless H freely cancels.

pad_locked further wraps every pair in pad parts P_i, R_i with two pad
sectors that every rule of the split machine locks; the working writes
move outward to P_i (left words) and R_i (right words).  Blocks of four
parts P_i, Q_il, Q_ir, R_i follow each other, with the working sectors of
S surviving between consecutive blocks.

compose chains five stages over that hardware, keyed by tags @1..@5 on
state letters and rule names:

  1. guess rules write an L-copy history into every historical sector;
  2. a parallel LR machine on (Q_il, Q_ir, R_i) copies it out to the
     right pad sectors and back, checking emptiness in between;
  3. the padded machine runs verbatim, consuming the input;
  4. a parallel RL machine on (P_i, Q_il, Q_ir) does the mirror copy of
     the R-copies through the left pad sectors;
  5. erasing rules delete the R-copies.

With transitions sigma(12)..sigma(45), an accepting computation of S with
history H of length k yields an accepting computation of the composed
machine of length exactly 7k + 6.
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


def add_historical_sectors(s: Machine) -> Machine:
    """The split machine S_h: parts doubled, one historical sector per
    original part, working sectors kept."""
    if s.cyclic:
        raise MachineError("split a non-cyclic machine first")
    n = s.n_parts
    rule_names = [r.name for r in s.rules]
    parts = [_tagged(p, side) for p in s.parts for side in ("l", "r")]
    alphabets = []
    for i in range(n):
        alphabets.append([hl(rn, i) for rn in rule_names]
                         + [hr(rn, i) for rn in rule_names])
        if i < n - 1:
            alphabets.append(s.sector_alphabets[i])
    hw = Hardware(parts, alphabets, [2 * t + 1 for t in s.input_sectors])
    rules = []
    for r in s.rules:
        rps = []
        doms = []
        for i in range(n):
            rp = r.parts[i]
            rps.append(_tagged_rule(rp, "l", rp.left,
                                    Word.of((hl(r.name, i), -1))))
            rps.append(_tagged_rule(rp, "r", Word.of(hr(r.name, i)), rp.right))
            doms.append(hw.sector_alphabets[2 * i])
            if i < n - 1:
                doms.append(r.domains[i])
        rules.append(SRule(r.name, rps, doms))
    meta = {"kind": "historical", "source": s, "blocks": n,
            "base_rules": tuple(rule_names),
            "central_sectors": tuple(2 * i for i in range(n)),
            "working_sectors": tuple(2 * i + 1 for i in range(n - 1))}
    return Machine(f"{s.name}.h", hw, rules, meta)


def pad_locked(sh: Machine) -> Machine:
    """The padded machine S_h': blocks P_i, Q_il, Q_ir, R_i with two
    perpetually locked pad sectors per block; working writes move to the
    pad parts."""
    _require(sh, "historical", "pad_locked")
    s: Machine = sh.meta["source"]
    n = sh.meta["blocks"]
    rule_names = sh.meta["base_rules"]
    parts = []
    for i, p in enumerate(s.parts):
        parts += [_tagged(p, "p"), sh.parts[2 * i], sh.parts[2 * i + 1],
                  _tagged(p, "s")]
    alphabets = []
    for i in range(n):
        alphabets.append([hist_atom("Lp", rn, i) for rn in rule_names]
                         + [hist_atom("Rp", rn, i) for rn in rule_names])
        alphabets.append(sh.sector_alphabets[2 * i])
        alphabets.append([hist_atom("Lr", rn, i) for rn in rule_names]
                         + [hist_atom("Rr", rn, i) for rn in rule_names])
        if i < n - 1:
            alphabets.append(s.sector_alphabets[i])
    hw = Hardware(parts, alphabets, [4 * t + 3 for t in s.input_sectors])
    rules = []
    for r in s.rules:
        rps = []
        doms = []
        for i in range(n):
            rp = r.parts[i]
            rps += [_tagged_rule(rp, "p", left=rp.left),
                    _tagged_rule(rp, "l", right=Word.of((hl(r.name, i), -1))),
                    _tagged_rule(rp, "r", left=Word.of(hr(r.name, i))),
                    _tagged_rule(rp, "s", right=rp.right)]
            doms.append(frozenset())
            doms.append(hw.sector_alphabets[4 * i + 1])
            doms.append(frozenset())
            if i < n - 1:
                doms.append(r.domains[i])
        rules.append(SRule(r.name, rps, doms))
    meta = {"kind": "padded", "source": s, "historical": sh, "blocks": n,
            "base_rules": tuple(rule_names),
            "central_sectors": tuple(4 * i + 1 for i in range(n)),
            "pad_sectors": tuple(x for i in range(n) for x in (4 * i, 4 * i + 2)),
            "working_sectors": tuple(4 * i + 3 for i in range(n - 1))}
    return Machine(f"{s.name}.hp", hw, rules, meta)


def compose(shp: Machine) -> Machine:
    """The five-stage machine over the padded hardware."""
    _require(shp, "padded", "compose")
    s: Machine = shp.meta["source"]
    n = shp.meta["blocks"]
    rule_names = shp.meta["base_rules"]
    N = shp.n_parts
    n_sectors = shp.n_sectors
    inputs = set(shp.input_sectors)
    centrals = shp.meta["central_sectors"]

    u = [atom(f"u{j}@1") for j in range(N)]
    v1 = [atom(f"v{j}.1@2") for j in range(N)]
    v2 = [atom(f"v{j}.2@2") for j in range(N)]
    tag3 = {q: atom(f"{q.name}@3") for p in shp.parts for q in p.letters}
    w1 = [atom(f"w{j}.1@4") for j in range(N)]
    w2 = [atom(f"w{j}.2@4") for j in range(N)]
    z = [atom(f"z{j}@5") for j in range(N)]

    parts = []
    for j, p in enumerate(shp.parts):
        letters = ([u[j], v1[j], v2[j]] + [tag3[q] for q in p.letters]
                   + [w1[j], w2[j], z[j]])
        parts.append(StatePart(p.name, letters, u[j], z[j]))
    hw = Hardware(parts, shp.sector_alphabets, shp.input_sectors)

    left_al = [frozenset(hl(rn, i) for rn in rule_names) for i in range(n)]
    right_al = [frozenset(hr(rn, i) for rn in rule_names) for i in range(n)]
    lr_al = [frozenset(hist_atom("Lr", rn, i) for rn in rule_names)
             for i in range(n)]
    rp_al = [frozenset(hist_atom("Rp", rn, i) for rn in rule_names)
             for i in range(n)]

    def doms(assign):
        out = []
        for sec in range(n_sectors):
            d = assign.get(sec, frozenset())
            out.append(hw.sector_alphabets[sec] if d == "full" else d)
        return out

    def with_inputs(assign):
        for sec in inputs:
            assign.setdefault(sec, "full")
        return assign

    def plain(letters, writes=None):
        writes = writes or {}
        return [RulePart(letters[j], letters[j],
                         *(writes.get(j, (EMPTY, EMPTY)))) for j in range(N)]

    def switch(frm, to):
        return [RulePart(frm[j], to[j]) for j in range(N)]

    rules = []

    # stage 1: append an L-copy letter to every historical sector.
    dom1 = doms(with_inputs({centrals[i]: left_al[i] for i in range(n)}))
    for rn in rule_names:
        writes = {4 * i + 2: (Word.of(hl(rn, i)), EMPTY) for i in range(n)}
        rules.append(SRule(f"{rn}@1", plain(u, writes), dom1))

    # stage 2: parallel LR on (Q_il, Q_ir, R_i); home is the central
    # sector, far side is the right pad.
    dom2 = doms(with_inputs(
        {**{centrals[i]: left_al[i] for i in range(n)},
         **{4 * i + 2: lr_al[i] for i in range(n)}}))
    dom2_zeta = doms(with_inputs({4 * i + 2: lr_al[i] for i in range(n)}))
    for rn in rule_names:
        t1 = {4 * i + 2: (Word.of((hl(rn, i), -1)),
                          Word.of(hist_atom("Lr", rn, i))) for i in range(n)}
        t2 = {4 * i + 2: (Word.of(hl(rn, i)),
                          Word.of((hist_atom("Lr", rn, i), -1))) for i in range(n)}
        rules.append(SRule(f"tau1({rn})@2", plain(v1, t1), dom2))
        rules.append(SRule(f"tau2({rn})@2", plain(v2, t2), dom2))
    rules.append(SRule("zeta@2", switch(v1, v2), dom2_zeta))

    # stage 3: the padded machine verbatim.
    for r in shp.rules:
        rps = [RulePart(tag3[p.frm], tag3[p.to], p.left, p.right)
               for p in r.parts]
        rules.append(SRule(f"{r.name}@3", rps, r.domains))

    # stage 4: parallel RL on (P_i, Q_il, Q_ir); home is the central
    # sector, far side is the left pad.  Everything else, input included,
    # is locked.
    dom4 = doms({**{centrals[i]: right_al[i] for i in range(n)},
                 **{4 * i: rp_al[i] for i in range(n)}})
    dom4_xi = doms({4 * i: rp_al[i] for i in range(n)})
    for rn in rule_names:
        t1 = {4 * i + 1: (Word.of(hist_atom("Rp", rn, i)),
                          Word.of((hr(rn, i), -1))) for i in range(n)}
        t2 = {4 * i + 1: (Word.of((hist_atom("Rp", rn, i), -1)),
                          Word.of(hr(rn, i))) for i in range(n)}
        rules.append(SRule(f"tau1({rn})@4", plain(w1, t1), dom4))
        rules.append(SRule(f"tau2({rn})@4", plain(w2, t2), dom4))
    rules.append(SRule("xi@4", switch(w1, w2), dom4_xi))

    # stage 5: erase a leading R-copy letter from every historical sector.
    dom5 = doms({centrals[i]: right_al[i] for i in range(n)})
    for rn in rule_names:
        writes = {4 * i + 1: (EMPTY, Word.of((hr(rn, i), -1))) for i in range(n)}
        rules.append(SRule(f"{rn}@5", plain(z, writes), dom5))

    # transitions
    start3 = [tag3[p.start] for p in shp.parts]
    end3 = [tag3[p.end] for p in shp.parts]
    dom_a = doms(with_inputs({centrals[i]: left_al[i] for i in range(n)}))
    dom_b = doms({centrals[i]: right_al[i] for i in range(n)})
    rules.append(SRule("sigma(12)", switch(u, v1), dom_a))
    rules.append(SRule("sigma(23)", switch(v2, start3), dom_a))
    rules.append(SRule("sigma(34)", switch(end3, w1), dom_b))
    rules.append(SRule("sigma(45)", switch(w2, z), dom_b))

    meta = {"kind": "composed", "source": s, "padded": shp, "blocks": n,
            "base_rules": tuple(rule_names),
            "central_sectors": centrals,
            "pad_sectors": shp.meta["pad_sectors"],
            "working_sectors": shp.meta["working_sectors"]}
    return Machine(f"{s.name}.E", hw, rules, meta)


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
    steps += [(atom(f"{a.name}@1"), e) for a, e in h]
    steps.append((atom("sigma(12)"), 1))
    steps += [(atom(f"tau1({a.name})@2"), e) for a, e in reversed(h)]
    steps.append((atom("zeta@2"), 1))
    steps += [(atom(f"tau2({a.name})@2"), e) for a, e in h]
    steps.append((atom("sigma(23)"), 1))
    steps += [(atom(f"{a.name}@3"), e) for a, e in h]
    steps.append((atom("sigma(34)"), 1))
    steps += [(atom(f"tau1({a.name})@4"), e) for a, e in h]
    steps.append((atom("xi@4"), 1))
    steps += [(atom(f"tau2({a.name})@4"), e) for a, e in reversed(h)]
    steps.append((atom("sigma(45)"), 1))
    steps += [(atom(f"{a.name}@5"), e) for a, e in h]
    return Word(steps)
