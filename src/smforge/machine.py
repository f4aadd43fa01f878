"""S-machines: rewriting systems whose configurations are group words.

Hardware interleaves state parts with tape sectors: sector ``i`` lies
between part ``i`` and part ``i + 1``.  A cyclic machine closes the
circle with the wrap sector ``n_parts - 1`` between the last part and
part 0; a non-cyclic machine simply has no sector there.

A rule acts on every part at once by the substitution

    q  ->  left . q' . right

so the sector between parts ``i`` and ``i + 1`` is rewritten to
``right_i . w . left_{i+1}`` followed by free reduction.  Tapes are stored
reduced, and so are the compiled writes, so only the two junctions of the
product can cancel (``words.splice``).  Application is
guarded by per-sector domains: the rule applies only when each tape word
is written in the domain alphabet.  A sector with empty domain is locked
by the rule (the tape must be empty, and nothing may be written there —
write words are themselves required to lie in the domains, which is
exactly what makes a rule and its formal inverse undo each other on
every admissible word).

All application runs one kernel body, ``_SignedRule.apply``, on signed rules
compiled once per machine.  Each signed rule compiles one row per tuple of
state letters it meets, on first use: the new state letters, the writes of
the gaps it writes and the gaps whose domain it must check, or why those
letters do not match.  The machine lists the moves of each tuple: the rows
that match.  A gap with nothing written keeps its tape as it is.  A written
gap carries its pre and post words, the letters that would cancel them at
either junction and the reduced pre.post for an empty tape, so a tape is
written in one tuple concatenation, and splice runs only when a junction
cancels.  A rule keeps the base, so the
gap sectors too: its results skip validation, words from users do not.  A
configuration is the tuple record (hw, states, tapes), which the kernel
builds in one allocation.  Its key() is its letters: the state letters
and each tape's letter tuple, concatenated on each call.  Searches key
it instead on (states, the tapes' letter tuples), built in one C call
from tuples it already holds.  Atoms are ints, so keys, state tuples and
domains hash and compare in C.
Machine._step applies one signed rule of the machine's own; successors, the
expansion every search runs, applies all of them.  No other module reads the
compiled table.
"""
from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from typing import Optional, Sequence, Union

from smforge.words import (EMPTY, Atom, SmforgeError, Word, atom, free_reduce,
                           splice)


class MachineError(SmforgeError):
    pass


class StatePart:
    """One state component: its letters and the designated start/end letters."""

    def __init__(self, name: str, letters, start=None, end=None):
        letters = tuple(map(atom, letters))
        if not letters:
            raise MachineError(f"part {name!r} has no letters")
        if len(set(letters)) != len(letters):
            raise MachineError(f"part {name!r} repeats a letter")
        self.name = name
        self.letters = letters
        self.start = atom(start) if start is not None else letters[0]
        self.end = atom(end) if end is not None else letters[-1]
        for a in (self.start, self.end):
            if a not in letters:
                raise MachineError(f"{a.name!r} is not a letter of part {name!r}")

    def __repr__(self):
        return f"StatePart({self.name}, {[a.name for a in self.letters]})"


class Hardware:
    """Parts and sectors of an S-machine, with letter lookups."""

    def __init__(self, parts: Sequence[StatePart], sector_alphabets,
                 input_sectors=(), cyclic: bool = False):
        self.parts = tuple(parts)
        self.cyclic = bool(cyclic)
        n = len(self.parts)
        if n == 0:
            raise MachineError("a machine needs at least one part")
        want = n if self.cyclic else n - 1
        alphabets = tuple(frozenset(map(atom, ab)) for ab in sector_alphabets)
        if len(alphabets) != want:
            raise MachineError(
                f"expected {want} sector alphabets for {n} parts "
                f"({'cyclic' if self.cyclic else 'non-cyclic'}), got {len(alphabets)}")
        self.sector_alphabets = alphabets
        self.input_sectors = tuple(input_sectors)
        if len(set(self.input_sectors)) != len(self.input_sectors):
            raise MachineError("repeated input sector")
        for s in self.input_sectors:
            if not 0 <= s < want:
                raise MachineError(f"input sector {s} out of range")

        self.part_of: dict[Atom, int] = {}
        for i, p in enumerate(self.parts):
            for a in p.letters:
                if a in self.part_of:
                    raise MachineError(f"state letter {a.name!r} appears in two parts")
                self.part_of[a] = i
        self.sector_of: dict[Atom, int] = {}
        for s, ab in enumerate(alphabets):
            for a in ab:
                if a in self.sector_of:
                    raise MachineError(f"tape letter {a.name!r} appears in two sectors")
                if a in self.part_of:
                    raise MachineError(f"{a.name!r} is both a state and a tape letter")
                self.sector_of[a] = s
        self.n_parts, self.n_sectors = n, want

    def __deepcopy__(self, memo):  # shared, as the words built on it share it
        return self

    def left_sector(self, i: int) -> Optional[int]:
        """Index of the sector to the left of part i, if any."""
        if i > 0:
            return i - 1
        return self.n_parts - 1 if self.cyclic else None

    def right_sector(self, i: int) -> Optional[int]:
        if i < self.n_parts - 1 or self.cyclic:
            return i
        return None


class RulePart:
    """The action of a rule on one part: frm -> left . to . right."""

    def __init__(self, frm, to, left: Word = EMPTY, right: Word = EMPTY):
        self.frm = atom(frm)
        self.to = atom(to)
        self.left = left
        self.right = right

    def __repr__(self):
        return (f"[{self.frm.name} -> {self.left.tokens()} . "
                f"{self.to.name} . {self.right.tokens()}]")


class SRule:
    """A rule: one RulePart per part plus one domain alphabet per sector."""

    def __init__(self, name: str, parts: Sequence[RulePart], domains):
        self.name = name
        self.parts = tuple(parts)
        self.domains = tuple(frozenset(d) for d in domains)

    def locked(self, sector: int) -> bool:
        return not self.domains[sector]

    def __repr__(self):
        return f"SRule({self.name})"


FULL = "full"


def make_rule(hw: Hardware, name: str, parts, domains=None) -> SRule:
    """Build and validate a rule against the hardware.

    ``parts`` entries may be RulePart instances or (frm, to) /
    (frm, to, left, right) tuples.  ``domains`` entries may be the string
    "full" (the whole sector alphabet), an iterable of letters, or the
    whole argument may be None for all-full.
    """
    rps = []
    for p in parts:
        if isinstance(p, RulePart):
            rps.append(p)
        else:
            rps.append(RulePart(*p))
    if domains is None:
        doms = [hw.sector_alphabets[s] for s in range(hw.n_sectors)]
    else:
        doms = []
        if len(domains) != hw.n_sectors:
            raise MachineError(f"rule {name!r}: expected {hw.n_sectors} domains")
        for s, d in enumerate(domains):
            if d == FULL:
                doms.append(hw.sector_alphabets[s])
            else:
                doms.append(frozenset(map(atom, d)))
    rule = SRule(name, rps, doms)
    validate_rule(hw, rule)
    return rule


def validate_rule(hw: Hardware, rule: SRule) -> None:
    if len(rule.parts) != hw.n_parts:
        raise MachineError(f"rule {rule.name!r}: expected {hw.n_parts} parts")
    if len(rule.domains) != hw.n_sectors:
        raise MachineError(f"rule {rule.name!r}: expected {hw.n_sectors} domains")
    for s, d in enumerate(rule.domains):
        extra = d - hw.sector_alphabets[s]
        if extra:
            raise MachineError(
                f"rule {rule.name!r}: domain of sector {s} contains "
                f"{sorted(a.name for a in extra)} outside the sector alphabet")
    for i, rp in enumerate(rule.parts):
        part = hw.parts[i]
        for a in (rp.frm, rp.to):
            if a not in part.letters:
                raise MachineError(
                    f"rule {rule.name!r}: {a.name!r} is not a letter of part {i}")
        for side, w in (("left", rp.left), ("right", rp.right)):
            s = hw.left_sector(i) if side == "left" else hw.right_sector(i)
            if s is None:
                if w:
                    raise MachineError(
                        f"rule {rule.name!r}: part {i} writes on its {side}, "
                        f"but there is no sector there")
                continue
            for a, _ in w.letters:
                if a not in rule.domains[s]:
                    raise MachineError(
                        f"rule {rule.name!r}: part {i} writes {a.name!r} "
                        f"outside the domain of sector {s}")


def invert_rule(rule: SRule) -> SRule:
    """The formal inverse: to -> left^-1 . frm . right^-1, same domains."""
    parts = [RulePart(p.to, p.frm, p.left.inverse(), p.right.inverse())
             for p in rule.parts]
    return SRule(rule.name, parts, rule.domains)


# The C getters of a configuration's three fields.
_Fields = namedtuple("_Fields", "hw states tapes")


class AdmissibleWord(tuple):
    """An alternating word  q_0 w_0 q_1 w_1 ... q_m  of state letters
    (possibly inverted) and tape words, with consistent shapes.

    Consecutive state letters with signs (e, e') must sit in parts (k, k')
    bounding a common sector:

        (+, +): k' = k + 1, gap sector k;
        (-, -): k' = k - 1, gap sector k - 1;
        (+, -) and (-, +): the same letter of part k on both ends,
                gap sector k resp. k - 1;

    indices mod n_parts when the hardware is cyclic.  Tapes are stored
    freely reduced.  The word is the tuple (hw, states, tapes): __new__
    packs it, __init__ validates it, and the kernel builds one past that.
    Equal words share the hardware and the letters; none equals a plain
    tuple, and none is ordered."""

    __slots__ = ()
    hw, states, tapes = _Fields.hw, _Fields.states, _Fields.tapes

    def __new__(cls, hw: Hardware, states, tapes):
        return _new(cls, (hw, tuple(states),
                          tuple([free_reduce(w) for w in tapes])))

    def __init__(self, hw: Hardware, states, tapes):
        states, tapes = self.states, self.tapes
        if not states:
            raise MachineError("admissible word needs at least one state letter")
        if len(tapes) != len(states) - 1:
            raise MachineError(
                f"{len(states)} state letters need {len(states) - 1} tapes, "
                f"got {len(tapes)}")
        for a, e in states:
            if not isinstance(a, Atom):  # an id equals its atom, but is none
                raise MachineError(f"bad state letter {a!r}")
            if a not in hw.part_of:
                raise MachineError(f"{a.name!r} is not a state letter")
            if type(e) is not int or e not in (1, -1):  # no atom, no bool
                raise MachineError(f"bad sign {e!r}")
        for j, (w, s) in enumerate(zip(tapes, self.gap_sectors)):
            for a, _ in w.letters:
                if hw.sector_of.get(a) != s:
                    raise MachineError(
                        f"letter {a.name!r} in gap {j} does not belong to "
                        f"sector {s}")

    def __reduce__(self):  # copies and pickles rebuild through __init__
        return AdmissibleWord, tuple(self)

    def __deepcopy__(self, memo):
        """The word itself, as for a tuple, so the hardware is shared; a
        pickle still carries its own copy of the hardware."""
        return self

    @property
    def gap_sectors(self) -> tuple:
        """The sector of each tape, read off the state letters around it."""
        hw, states = self.hw, self.states
        return tuple([_gap_sector(hw, states[j], states[j + 1], j)
                      for j in range(len(states) - 1)])

    @property
    def base(self):
        """Part indices with signs, one per state letter."""
        return tuple((self.hw.part_of[a], e) for a, e in self.states)

    def to_word(self) -> Word:
        return Word._of(self.key())

    def tokens(self) -> str:
        return self.to_word().tokens()

    def tape_length(self) -> int:
        return sum(len(w) for w in self.tapes)

    def key(self) -> tuple:
        """The letters q_0 w_0 q_1 ... q_m as one tuple, which is
        to_word().key(), built from whole letter tuples."""
        states = self.states
        k = states[:1]
        for w, q in zip(self.tapes, states[1:]):
            k += w.letters + (q,)
        return k

    def __eq__(self, other):
        return (isinstance(other, AdmissibleWord) and self.hw is other.hw
                and self.states == other.states and self.tapes == other.tapes)

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self.key())

    def _unordered(self, other):
        raise TypeError("admissible words are not ordered")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __repr__(self):
        return f"AdmissibleWord({self.tokens()})"


_new, _of = tuple.__new__, Word._of


def _gap_sector(hw: Hardware, left, right, j: int) -> int:
    """The sector on the sign side of the left letter's part.  Equal signs
    need the right letter's part next that way round; mixed signs need the
    same letter."""
    (a, e), (b, f) = left, right
    k = hw.part_of[a]
    s = hw.right_sector(k) if e > 0 else hw.left_sector(k)
    if e == f:
        if s is None or hw.part_of[b] != (k + e) % hw.n_parts:
            inv = "" if e > 0 else "^-1"
            raise MachineError(f"positions {j},{j + 1}: {a.name}{inv} "
                               f"{b.name}{inv} do not bound a sector")
    elif a is not b:
        raise MachineError(
            f"positions {j},{j + 1}: mixed signs need the same state letter, "
            f"got {a.name} and {b.name}")
    elif s is None:
        raise MachineError(f"positions {j},{j + 1}: no sector on that side of {a.name}")
    return s


def parse_admissible(hw: Hardware, w: Union[Word, str]) -> AdmissibleWord:
    """Split a flat word into the alternating form, with positioned errors."""
    if isinstance(w, str):
        w = Word.from_tokens(w)
    states, tapes, cur = [], [], []
    for pos, (a, e) in enumerate(w.letters):
        if a in hw.part_of:
            if states:
                tapes.append(Word(cur))
                cur = []
            states.append((a, e))
        elif a in hw.sector_of:
            if not states:
                raise MachineError(
                    f"position {pos}: tape letter {a.name!r} before any state letter")
            cur.append((a, e))
        else:
            raise MachineError(f"position {pos}: unknown letter {a.name!r}")
    if not states:
        raise MachineError("no state letters")
    if cur:
        raise MachineError("admissible word must end with a state letter")
    return AdmissibleWord(hw, states, tapes)


# The answer of applying one rule: the resulting word, or why it fails.
ApplyOutcome = namedtuple("ApplyOutcome", "ok result reason",
                          defaults=(None, None))


class _SignedRule:
    """rule^sign compiled: emit[q, e] = (pre, letter, post), in letter tuples,
    is what q^e becomes if its part must carry q; None marks a full domain.
    The emissions are stored reduced, so that writing them onto a reduced
    tape cancels at the junctions only.  rows maps a tuple of state letters
    to its row, compiled by row() on first use, writes included."""

    __slots__ = ("rule", "sign", "emit", "domains", "rows")

    def __init__(self, hw: Hardware, rule: SRule, sign: int):
        r = rule if sign > 0 else invert_rule(rule)
        self.rule, self.sign, self.emit, self.rows = rule, sign, {}, {}
        for p in r.parts:
            for e, pre, post in ((1, p.left, p.right),
                                 (-1, p.right.inverse(), p.left.inverse())):
                self.emit[p.frm, e] = (free_reduce(pre).letters, (p.to, e),
                                       free_reduce(post).letters)
        self.domains = tuple(None if d == hw.sector_alphabets[s] else d
                             for s, d in enumerate(r.domains))

    def row(self, aw: AdmissibleWord):
        """What the rule does to any word with aw's state letters: why they
        do not match, or (new state letters, writes, and (gap, domain) for
        each gap whose domain is not the whole sector alphabet).  writes
        lists only the gaps written, as (gap, pre, post, the letter that
        cancels pre's last, the one that cancels post's first, and the
        reduced pre.post for an empty tape); () is no letter."""
        trip = []
        for q in aw.states:
            out = self.emit.get(q)
            if out is None:
                return (f"state letter {q[0].name!r} does not match "
                        f"rule {self.rule.name!r}")
            trip.append(out)
        writes = []
        for j, (left, right) in enumerate(zip(trip, trip[1:])):
            pre, post = left[2], right[0]
            if pre or post:
                writes.append((j, pre, post,
                               pre and (pre[-1][0], -pre[-1][1]),
                               post and (post[0][0], -post[0][1]),
                               _of(splice(pre, (), post)[0])))
        checks = tuple([(j, self.domains[s])
                        for j, s in enumerate(aw.gap_sectors)
                        if self.domains[s] is not None])
        return tuple([t[1] for t in trip]), tuple(writes), checks

    def apply(self, row, aw: AdmissibleWord):
        """The kernel body: row's result on aw, or why a domain refuses aw.
        A written tape is pre + tape + post, spliced only when a junction
        cancels.  The result keeps aw's base, so its gap sectors too, and
        is built as one tuple, past the validation in __init__."""
        states, writes, checks = row
        tapes = aw.tapes
        for j, dom in checks:
            for a, _ in tapes[j].letters:
                if a not in dom:
                    return (f"letter {a.name!r} in gap {j} outside "
                            f"the domain of rule {self.rule.name!r}")
        if writes:
            tapes = list(tapes)
            for j, pre, post, undo_pre, undo_post, empty in writes:
                t = tapes[j].letters
                if not t:
                    tapes[j] = empty
                elif t[0] == undo_pre or t[-1] == undo_post:
                    tapes[j] = _of(splice(pre, t, post)[0])
                else:
                    tapes[j] = _of(pre + t + post)
            tapes = tuple(tapes)
        return _new(AdmissibleWord, (aw.hw, states, tapes))


class Machine:
    """Hardware plus a set of named rules (and a free-form meta dict)."""

    def __init__(self, name: str, hw: Hardware, rules: Sequence[SRule], meta=None):
        self.name = name
        self.hw = hw
        self.rules = tuple(rules)
        self.rule_by_name: dict[str, SRule] = {}
        for r in self.rules:
            validate_rule(hw, r)
            if r.name in self.rule_by_name:
                raise MachineError(f"two rules named {r.name!r}")
            self.rule_by_name[r.name] = r
        self._signed_rules = tuple(
            (r, sign) for r in sorted(self.rules, key=lambda r: r.name)
            for sign in (1, -1))
        self.meta = dict(meta or {})
        # The hardware's geometry, at hand.
        self.parts, self.sector_alphabets = hw.parts, hw.sector_alphabets
        self.n_parts, self.n_sectors = hw.n_parts, hw.n_sectors
        self.cyclic, self.input_sectors = hw.cyclic, hw.input_sectors

    def __getstate__(self):
        """The attributes without the rule table, a cache built on first
        use: a pickle is the same before and after queries, and works at
        every protocol.  M(S), which validation builds, is kept by group,
        not on the machine."""
        state = dict(self.__dict__)
        state.pop("_table", None)
        return state

    def rule(self, name: str) -> SRule:
        try:
            return self.rule_by_name[name]
        except KeyError:
            raise MachineError(f"no rule named {name!r}") from None

    def signed_rules(self):
        """All (rule, sign) pairs in deterministic order."""
        return self._signed_rules

    # -- application -------------------------------------------------------

    @cached_property
    def _table(self):
        """(rule, sign) -> _SignedRule, and a tuple of state letters -> its
        moves, filled by _moves on first use."""
        return {rs: _SignedRule(self.hw, *rs) for rs in self._signed_rules}, {}

    def _entry(self, rule: SRule, sign: int) -> _SignedRule:
        if type(sign) is not int or sign not in (1, -1):  # no atom, no bool
            raise MachineError(f"rule {rule.name!r}: bad sign {sign!r}")
        entry = self._table[0].get((rule, sign))
        if entry is None:
            raise MachineError(
                f"rule {rule.name!r} is not a rule of machine {self.name!r}")
        return entry

    def _moves(self, aw: AdmissibleWord) -> list:
        """The (entry, row) pairs whose rows match aw's state letters, in
        (name, sign) order, compiled once per tuple; aw is on self.hw."""
        entries, moves = self._table
        out = moves.get(aw.states)
        if out is None:
            out = moves[aw.states] = [(e, row) for e in entries.values()
                                      if type(row := e.row(aw)) is not str]
        return out

    def _step(self, entry: _SignedRule, aw: AdmissibleWord):
        """One signed rule on aw: (result, None), or (None, why it fails)."""
        if aw.hw is not self.hw:
            aw = AdmissibleWord(self.hw, aw.states, aw.tapes)
        row = entry.rows.get(aw.states)
        if row is None:
            row = entry.rows[aw.states] = entry.row(aw)
        res = row if type(row) is str else entry.apply(row, aw)
        return (None, res) if type(res) is str else (res, None)

    def apply_ex(self, aw: AdmissibleWord, rule: SRule, sign: int = 1) -> ApplyOutcome:
        result, reason = self._step(self._entry(rule, sign), aw)
        return ApplyOutcome(result is not None, result, reason)

    def try_apply(self, aw, rule, sign=1) -> Optional[AdmissibleWord]:
        return self._step(self._entry(rule, sign), aw)[0]

    def apply(self, aw, rule, sign=1) -> AdmissibleWord:
        out = self.apply_ex(aw, rule, sign)
        if not out.ok:
            raise MachineError(f"cannot apply {rule.name!r}: {out.reason}")
        return out.result


def successors(m: Machine, config: AdmissibleWord, skip=None
               ) -> list[tuple[SRule, int, AdmissibleWord]]:
    """The list of (rule, sign, result) for every signed rule that applies
    to config, in (name, sign) order: one kernel run per move of config's
    state letters.  The signed rule skip is passed over without being
    tried."""
    if config.hw is not m.hw:
        config = AdmissibleWord(m.hw, config.states, config.tapes)
    skip = skip and m._table[0].get(skip)
    out = []
    for entry, row in m._moves(config):
        if entry is not skip:
            res = entry.apply(row, config)
            if type(res) is not str:
                out.append((entry.rule, entry.sign, res))
    return out


def _as_steps(m: Machine, history) -> list[tuple[SRule, int]]:
    if isinstance(history, Word):
        return [(m.rule(a.name), s) for a, s in history.letters]
    steps = []
    for item in history:
        if isinstance(item, str):
            if item.endswith("^-1"):
                steps.append((m.rule(item[:-3]), -1))
            else:
                steps.append((m.rule(item), 1))
        else:
            r, s = item
            steps.append((r if isinstance(r, SRule) else m.rule(r), s))
    return steps


class Computation:
    """A start word and the sequence of configurations along a history."""

    def __init__(self, machine, start, steps, configs, ok=True,
                 failed_at=None, reason=None):
        self.machine = machine
        self.start = start
        self.steps = tuple(steps)
        self.configs = tuple(configs)
        self.ok = ok
        self.failed_at = failed_at
        self.reason = reason

    @property
    def end(self) -> AdmissibleWord:
        return self.configs[-1]

    def __len__(self):
        return len(self.steps)

    def history_word(self) -> Word:
        return Word(tuple((atom(r.name), s) for r, s in self.steps))

    def __repr__(self):
        status = "ok" if self.ok else f"failed at {self.failed_at}"
        return f"Computation({len(self)} steps, {status})"


def run(m: Machine, start: AdmissibleWord, history, strict: bool = True) -> Computation:
    """Apply a history (a word in the rules) from a start word.

    In strict mode an inapplicable step raises; otherwise the computation
    stops there and records the failure.
    """
    steps = _as_steps(m, history)
    configs = [start]
    for i, (rule, sign) in enumerate(steps):
        out = m.apply_ex(configs[-1], rule, sign)
        if not out.ok:
            if strict:
                raise MachineError(
                    f"step {i} ({rule.name}^{sign}): {out.reason}")
            return Computation(m, start, steps[:i], configs, ok=False,
                               failed_at=i, reason=out.reason)
        configs.append(out.result)
    return Computation(m, start, steps, configs)


# -- configurations --------------------------------------------------------


def _check_wrap(m: Machine) -> None:
    if m.cyclic and m.hw.sector_alphabets[m.n_parts - 1]:
        raise MachineError("a configuration of a cyclic machine needs an "
                           "empty wrap-sector alphabet")


def input_configuration(m: Machine, inputs=EMPTY) -> AdmissibleWord:
    """Start letters, given words in the input sectors, empty elsewhere.

    ``inputs`` may be a single Word (one input sector) or a sequence
    aligned with ``input_sectors``.
    """
    _check_wrap(m)
    if isinstance(inputs, Word):
        if len(m.input_sectors) != 1:
            raise MachineError(
                f"machine has {len(m.input_sectors)} input sectors; "
                f"pass one word per sector")
        given = {m.input_sectors[0]: inputs}
    else:
        inputs = tuple(inputs)
        if len(inputs) != len(m.input_sectors):
            raise MachineError(f"expected {len(m.input_sectors)} input words")
        given = dict(zip(m.input_sectors, inputs))
    states = [(p.start, 1) for p in m.parts]
    tapes = [given.get(s, EMPTY) for s in range(m.n_parts - 1)]
    return AdmissibleWord(m.hw, states, tapes)


def accept_configuration(m: Machine) -> AdmissibleWord:
    """End letters, all tapes empty."""
    _check_wrap(m)
    return AdmissibleWord(m.hw, [(p.end, 1) for p in m.parts],
                          [EMPTY] * (m.n_parts - 1))


def cyclic_permute(aw: AdmissibleWord, offset: int) -> AdmissibleWord:
    """Rotate a circular admissible word (equal first and last letter)
    to start ``offset`` state letters later.  Tape letter counts are
    preserved; only the duplicated end letter moves.
    """
    if len(aw.states) < 2 or aw.states[0] != aw.states[-1]:
        raise MachineError("base not circular")
    m = len(aw.states) - 1
    j = offset % m
    states = aw.states[j:] + aw.states[1:j + 1]
    tapes = aw.tapes[j:] + aw.tapes[:j]
    return AdmissibleWord(aw.hw, states, tapes)


# -- derived machines ------------------------------------------------------


def restrict(m: Machine, lo: int, hi: int) -> Machine:
    """The machine on parts lo..hi (inclusive): writes that would leave the
    window are dropped, exactly as rule application trims them off the
    ends of an admissible word with that base."""
    if not (0 <= lo < hi < m.n_parts):
        raise MachineError(f"bad part range {lo}..{hi}")
    parts = m.parts[lo:hi + 1]
    alphabets = m.sector_alphabets[lo:hi]
    inputs = tuple(s - lo for s in m.input_sectors if lo <= s < hi)
    hw = Hardware(parts, alphabets, inputs, cyclic=False)
    rules = []
    for r in m.rules:
        rps = []
        for i in range(lo, hi + 1):
            p = r.parts[i]
            rps.append(RulePart(p.frm, p.to,
                                p.left if i > lo else EMPTY,
                                p.right if i < hi else EMPTY))
        rules.append(SRule(r.name, rps, r.domains[lo:hi]))
    return Machine(f"{m.name}[{lo}:{hi}]", hw, rules)


def normalize_rules(m: Machine) -> Machine:
    """Split every rule into a chain of rules writing at most one letter
    per side per part.

    A rule whose parts write words of lengths giving costs
    c_i = max(1, |left_i|, |right_i|) becomes a chain of
    1 + sum_i max(0, c_i - 1) rules: part i is active on a window of c_i
    consecutive chain positions, consecutive windows overlapping in one
    position, and emits one left letter (in order) and one right letter
    (in reverse order, since right words prepend) per active position.
    Fresh intermediate state letters are named ``{rule}%{position}%{part}``.
    """
    new_rules = []
    extra: dict[int, list[Atom]] = {i: [] for i in range(m.n_parts)}
    chains: dict[str, list[str]] = {}
    for r in m.rules:
        costs = [max(1, len(p.left), len(p.right)) for p in r.parts]
        total = 1 + sum(c - 1 for c in costs)
        if total == 1:
            new_rules.append(r)
            chains[r.name] = [r.name]
            continue
        starts = []
        pos = 1
        for c in costs:
            starts.append(pos)
            pos += c - 1

        def st(i, j):
            # state of part i after j chain steps
            if j < starts[i]:
                return r.parts[i].frm
            if j >= starts[i] + costs[i] - 1:
                return r.parts[i].to
            a = atom(f"{r.name}%{j}%{i}")
            if a not in extra[i] and a not in m.hw.parts[i].letters:
                extra[i].append(a)
            return a

        names = []
        for j in range(1, total + 1):
            rps = []
            for i in range(m.n_parts):
                left = right = EMPTY
                if starts[i] <= j <= starts[i] + costs[i] - 1:
                    p = j - starts[i] + 1
                    rp = r.parts[i]
                    if p <= len(rp.left):
                        left = Word([rp.left.letters[p - 1]])
                    if p <= len(rp.right):
                        right = Word([rp.right.letters[len(rp.right) - p]])
                rps.append(RulePart(st(i, j - 1), st(i, j), left, right))
            names.append(f"{r.name}%{j}")
            new_rules.append(SRule(names[-1], rps, r.domains))
        chains[r.name] = names
    parts = [StatePart(p.name, p.letters + tuple(extra[i]), p.start, p.end)
             for i, p in enumerate(m.parts)]
    hw = Hardware(parts, m.sector_alphabets, m.input_sectors, m.cyclic)
    meta = dict(m.meta)
    meta["normal_chains"] = chains
    return Machine(f"{m.name}.normal", hw, new_rules, meta)
