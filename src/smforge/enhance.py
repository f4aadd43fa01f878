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
    s: Machine = shp.meta["source"]
    n = shp.meta["blocks"]
    rule_names = shp.meta["base_rules"]
    N = shp.n_parts
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

    def copies(kind, i):
        return frozenset(hist_atom(kind, rn, i) for rn in rule_names)

    def doms(assign, inputs):
        """Sector sec gets assign[sec], an input sector its whole alphabet
        if inputs, every other sector is locked."""
        return [assign.get(sec, alphabet if inputs and sec in hw.input_sectors
                           else frozenset())
                for sec, alphabet in enumerate(hw.sector_alphabets)]

    def plain(letters, writes=None):
        writes = writes or {}
        return [RulePart(letters[j], letters[j],
                         *(writes.get(j, (EMPTY, EMPTY)))) for j in range(N)]

    def switch(frm, to):
        return [RulePart(frm[j], to[j]) for j in range(N)]

    def copier(tag, states, part, pad, central, connect, inputs):
        """Stage tag: the parallel copier on part Q_ir (LR, through the
        right pad) or Q_il (RL, through the left pad) of every block.  tau1
        writes the central letter inverted and its pad copy upright on the
        other side of the part, tau2 undoes that, and connect switches the
        states once the central sector is empty."""
        right = part == "r"
        far = {c + (1 if right else -1): copies(pad, i)
               for i, c in enumerate(centrals)}
        dom = doms({**{c: copies(central, i) for i, c in enumerate(centrals)},
                    **far}, inputs)
        for rn in rule_names:
            for t, sign in ((1, 1), (2, -1)):
                writes = {}
                for i, c in enumerate(centrals):
                    ws = (Word.of((hist_atom(central, rn, i), -sign)),
                          Word.of((hist_atom(pad, rn, i), sign)))
                    writes[c + right] = ws if right else ws[::-1]
                rules.append(SRule(f"tau{t}({rn})@{tag}",
                                   plain(states[t - 1], writes), dom))
        rules.append(SRule(f"{connect}@{tag}", switch(*states),
                           doms(far, inputs)))

    rules = []

    # stage 1: append an L-copy letter to every historical sector.
    dom1 = doms({centrals[i]: copies("L", i) for i in range(n)}, True)
    for rn in rule_names:
        writes = {4 * i + 2: (Word.of(hl(rn, i)), EMPTY) for i in range(n)}
        rules.append(SRule(f"{rn}@1", plain(u, writes), dom1))

    # stage 2: parallel LR on (Q_il, Q_ir, R_i) through the right pads.
    copier(2, (v1, v2), "r", "Lr", "L", "zeta", True)

    # stage 3: the padded machine verbatim.
    for r in shp.rules:
        rps = [RulePart(tag3[p.frm], tag3[p.to], p.left, p.right)
               for p in r.parts]
        rules.append(SRule(f"{r.name}@3", rps, r.domains))

    # stage 4: parallel RL on (P_i, Q_il, Q_ir) through the left pads,
    # with everything else, input included, locked.
    copier(4, (w1, w2), "l", "Rp", "R", "xi", False)

    # stage 5: erase a leading R-copy letter from every historical sector.
    dom5 = doms({centrals[i]: copies("R", i) for i in range(n)}, False)
    for rn in rule_names:
        writes = {4 * i + 1: (EMPTY, Word.of((hr(rn, i), -1))) for i in range(n)}
        rules.append(SRule(f"{rn}@5", plain(z, writes), dom5))

    # transitions: into and out of stage 2 with stage 1's domains, into
    # and out of stage 4 with stage 5's.
    start3 = [tag3[p.start] for p in shp.parts]
    end3 = [tag3[p.end] for p in shp.parts]
    rules.append(SRule("sigma(12)", switch(u, v1), dom1))
    rules.append(SRule("sigma(23)", switch(v2, start3), dom1))
    rules.append(SRule("sigma(34)", switch(end3, w1), dom5))
    rules.append(SRule("sigma(45)", switch(w2, z), dom5))

    return Machine(f"{s.name}.E", hw, rules,
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
