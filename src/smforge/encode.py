"""Machines with positive rules built from finite group presentations.

A presentation ⟨X | R⟩ is compiled into a three-part machine over the
doubled alphabet Y = X ∪ X~ (x~ is a fresh positive letter standing for
x^-1).  The first sector carries the working word, the second a primed
service copy.  Every rule writes positive letters only:

  sigma(y)   append y to the working tape and y' to the service tape;
  tau1(y)    append the trivial pair y·bar(y), entering the y-state;
  tau2(y)    leave the y-state again;
  rho(i,j)   append the j-th letter of the i-th positivized relator,
             stepping through a chain of relator states, so a relator is
             always written out in full;
  omega      lock both sectors and move to the final states.

An input configuration holding w is taken to the accept configuration
exactly when w represents the identity of the presented group.  The
h-invariant below (working tape times a state-dependent suffix times the
mirrored service tape) moves inside a single conjugacy class of that
group along any computation, which is what makes the converse direction
certifiable rule by rule.

The canonical computations (positivizing a word, realizing a relator
insertion, emulating a whole derivation) write every block as a product
of three moves and their inverses: sigma(y), the tau pair tau1(y)
tau2(y), and the rho chain rho(i,1) ... rho(i,n).
"""
from __future__ import annotations

import re
from collections import namedtuple
from typing import Iterable, Optional, Sequence

from smforge.machine import (AdmissibleWord, Hardware, Machine, RulePart,
                             StatePart, make_rule)
from smforge.search import BOUNDED, FOUND, shortest
from smforge.serialize import (PRESENTATION_SCHEMA, SCHEMA_VERSION,
                               dumps_canonical, read_json, schema_violation)
from smforge.words import (EMPTY, Atom, InvariantError, SmforgeError, Word,
                           WordError, atom, cyclic_min, free_reduce,
                           is_cyclically_reduced, splice, symmetrized_closure)

IMPOSSIBLE = "impossible"


class EncodeError(SmforgeError):
    pass


# -- presentations ---------------------------------------------------------

class GroupPresentation:
    """Generator atoms plus cyclically reduced relator words over them."""

    def __init__(self, generators, relators, name: str = "G"):
        gens = tuple(map(atom, generators))
        if len(set(gens)) != len(gens):
            raise EncodeError("repeated generator")
        gset = set(gens)
        rels = []
        for r in relators:
            w = r if isinstance(r, Word) else Word.from_tokens(r)
            if not w:
                raise EncodeError("empty relator")
            if not is_cyclically_reduced(w):
                raise EncodeError(
                    f"relator {w.tokens()!r} is not cyclically reduced")
            stray = {a for a, _ in w} - gset
            if stray:
                raise EncodeError(
                    f"relator {w.tokens()!r} uses non-generators "
                    f"{sorted(a.name for a in stray)}")
            rels.append(w)
        self.name = name
        self.generators = gens
        self.relators = tuple(rels)

    def word_vector(self, w: Word) -> tuple[int, ...]:
        """Exponent sums of w, one entry per generator."""
        index = {a: i for i, a in enumerate(self.generators)}
        out = [0] * len(self.generators)
        for a, s in w:
            if a not in index:
                raise EncodeError(f"{a.name!r} is not a generator")
            out[index[a]] += s
        return tuple(out)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "generators": [a.name for a in self.generators],
            "relators": [r.tokens() for r in self.relators],
        }

    @staticmethod
    def from_dict(doc: dict) -> "GroupPresentation":
        bad = schema_violation(doc, PRESENTATION_SCHEMA)
        if bad:
            raise EncodeError(f"bad presentation document at {bad}")
        try:
            return GroupPresentation(doc["generators"], doc["relators"],
                                     name=doc.get("name", "G"))
        except WordError as e:
            raise EncodeError(str(e)) from None

    def dumps(self) -> str:
        return dumps_canonical(self.to_dict())

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.dumps())

    @staticmethod
    def load(path) -> "GroupPresentation":
        return GroupPresentation.from_dict(read_json(path))

    def __repr__(self):
        return (f"<presentation {self.name}: {len(self.generators)} "
                f"generators, {len(self.relators)} relators>")


class DoubledAlphabet:
    """X together with the formal-inverse letters x~ and the primed
    service copies y'.  bar swaps x and x~; positivize rewrites a word
    over X as a positive word over Y."""

    def __init__(self, base: Iterable[Atom]):
        self.base = tuple(base)
        bars = tuple(atom(f"{x.name}~") for x in self.base)
        self.letters = self.base + bars
        self._bar = {}
        for x, xb in zip(self.base, bars):
            self._bar[x] = xb
            self._bar[xb] = x
        self._prime = {y: atom(f"{y.name}'") for y in self.letters}
        self._unprime = {v: k for k, v in self._prime.items()}

    def bar(self, y: Atom) -> Atom:
        try:
            return self._bar[y]
        except KeyError:
            raise EncodeError(f"{y.name!r} is not a doubled letter") from None

    def prime(self, y: Atom) -> Atom:
        return self._prime[y]

    def positivize(self, w: Word) -> Word:
        """Letter for letter: x stays, x^-1 becomes x~."""
        out = []
        for a, s in w:
            if a not in self._bar:
                raise EncodeError(f"{a.name!r} is not a doubled letter")
            out.append((a, 1) if s > 0 else (self._bar[a], 1))
        return Word(out)

    def unbar(self, w: Word) -> Word:
        """Back from Y to X: x~ becomes x^-1 (not reduced)."""
        base = set(self.base)
        out = []
        for a, s in w:
            if a in base:
                out.append((a, s))
            elif a in self._bar:
                out.append((self._bar[a], -s))
            else:
                raise EncodeError(f"{a.name!r} is not a doubled letter")
        return Word(out)

    def unprime(self, w: Word) -> Word:
        try:
            return Word((self._unprime[a], s) for a, s in w)
        except KeyError:
            raise EncodeError("service-tape word expected") from None

    def mirror(self, w: Word) -> Word:
        """Service tape read back over X."""
        return self.unbar(self.unprime(w))


def stored_relators(p: GroupPresentation) -> tuple[Word, ...]:
    """The relators and their inverses, deduplicated up to rotation."""
    seen = set()
    out = []
    for r in p.relators:
        for s in (r, r.inverse()):
            k = cyclic_min(s).key()
            if k not in seen:
                seen.add(k)
                out.append(s)
    return tuple(out)


def build_tilde_presentation(p: GroupPresentation) -> GroupPresentation:
    """The same group presented over Y: positivized relators plus the
    cancellation relators x·x~."""
    d = DoubledAlphabet(p.generators)
    rels = [d.positivize(r) for r in stored_relators(p)]
    rels += [Word.of(x, d.bar(x)) for x in p.generators]
    return GroupPresentation(d.letters, rels, name=f"{p.name}~")


# -- the encoder machine ---------------------------------------------------

_RESERVED = re.compile(r"s|f|[0-9]+(\.[0-9]+)?")


def presentation_to_machine(p: GroupPresentation) -> Machine:
    for x in p.generators:
        if _RESERVED.fullmatch(x.name):
            raise EncodeError(f"generator name {x.name!r} collides with the "
                              "state naming scheme")
    d = DoubledAlphabet(p.generators)
    seen = set(d.base)
    for x, xb in zip(d.base, d.letters[len(d.base):]):
        for kind, y in (("bar", xb), ("prime", d.prime(x)),
                        ("primed bar", d.prime(xb))):
            if y in seen:
                raise EncodeError(f"the {kind} {y.name!r} of generator "
                                  f"{x.name!r} is another letter")
            seen.add(y)
    stored = stored_relators(p)
    positive = tuple(d.positivize(r) for r in stored)

    # State columns: s, f, each doubled letter, and the inner positions
    # ri.j of each relator's chain, which opens and closes at s.
    chains = [["s"] + [f"{ri}.{j}" for j in range(1, len(pr))] + ["s"]
              for ri, pr in enumerate(positive)]
    columns = (["s", "f"] + [y.name for y in d.letters]
               + [c for chain in chains for c in chain[1:-1]])
    hw = Hardware([StatePart(f"Q{i}", [f"q{i}.{c}" for c in columns],
                             f"q{i}.s", f"q{i}.f") for i in range(3)],
                  [list(d.letters), [d.prime(y) for y in d.letters]],
                  input_sectors=[0])

    def rule(name, frm, to, work=EMPTY, service=EMPTY, domains=None):
        """Every part moves from column frm to column to; parts 1 and 2
        write work and service on their left."""
        return make_rule(hw, name, [
            RulePart(f"q{i}.{frm}", f"q{i}.{to}", left=w)
            for i, w in enumerate((EMPTY, work, service))], domains)

    rules = []
    for y in d.letters:
        rules += [rule(f"sigma({y.name})", "s", "s", Word.of(y),
                       Word.of(d.prime(y))),
                  rule(f"tau1({y.name})", "s", y.name, Word.of(y, d.bar(y))),
                  rule(f"tau2({y.name})", y.name, "s")]
    for ri, (pr, chain) in enumerate(zip(positive, chains)):
        rules += [rule(f"rho({ri},{j})", chain[j - 1], chain[j],
                       Word(pr.letters[j - 1:j]))
                  for j in range(1, len(pr) + 1)]
    rules.append(rule("omega", "s", "f", domains=[[], []]))

    # Each state letter's column; each column's unwritten relator suffix.
    suffix = dict.fromkeys(columns, EMPTY)
    for pr, chain in zip(positive, chains):
        suffix.update((c, Word(pr.letters[j:]))
                      for j, c in enumerate(chain[1:-1], 1))
    meta = {"kind": "encoder", "presentation": p, "doubled": d,
            "stored": stored, "positive": positive,
            "index": {r.key(): ri for ri, r in enumerate(stored)},
            "column": {a: c for part in hw.parts
                       for a, c in zip(part.letters, columns)},
            "suffix": suffix}
    return Machine(f"encode.{p.name}", hw, rules, meta)


def _encoder_meta(m: Machine) -> dict:
    if m.meta.get("kind") != "encoder":
        raise EncodeError(f"{m.name!r} is not an encoder machine")
    return m.meta


def _column(meta: dict, aw: AdmissibleWord) -> str:
    """The shared state column of a configuration ('s', 'f', a letter
    name, or 'ri.j'); the three parts must agree."""
    if aw.base != ((0, 1), (1, 1), (2, 1)):
        raise EncodeError("standard three-part configuration expected")
    cols = []
    for a, _ in aw.states:
        if a not in meta["column"]:
            raise EncodeError(f"unexpected state letter {a.name!r}")
        cols.append(meta["column"][a])
    if len(set(cols)) != 1:
        raise EncodeError(f"state columns out of step: {cols}")
    return cols[0]


def h_ext(m: Machine, aw: AdmissibleWord) -> Word:
    """The h-invariant of a configuration, as a reduced word over X:
    working tape, then the unfinished part of a relator being written,
    then the mirrored service tape reversed.  Its image in the presented
    group is the same at every step of a computation."""
    meta = _encoder_meta(m)
    d = meta["doubled"]
    suffix = meta["suffix"][_column(meta, aw)]
    t, v = aw.tapes
    return free_reduce(d.unbar(t * suffix)
                       * d.mirror(v).inverse())


def rule_h_defect(m: Machine, rule) -> Word:
    """How a single rule application moves h_ext, independently of the
    configuration: empty for all rules except the chain-opening rho
    rules, whose defect is the relator itself."""
    meta = _encoder_meta(m)
    d = meta["doubled"]
    for i in (0, 1):
        if rule.parts[i].right:
            raise EncodeError(f"{rule.name}: unexpected right write")
    column, suffix = meta["column"], meta["suffix"]
    w = (rule.parts[1].left * suffix[column[rule.parts[0].to]]
         * d.unprime(rule.parts[2].left).inverse()
         * suffix[column[rule.parts[0].frm]].inverse())
    return free_reduce(d.unbar(w))


def certify_h_invariance(m: Machine) -> dict:
    """One area certificate per rule: each defect must die in the group.
    Returns {rule name: AreaResult}; raises if any rule resists area
    2.  Together with an abelianized obstruction for a given input
    this rules out acceptance at every bound, not just the searched
    ones."""
    meta = _encoder_meta(m)
    p = meta["presentation"]
    out = {}
    for r in m.rules:
        res = area_oracle(p, rule_h_defect(m, r), max_area=2)
        if res.status != FOUND:
            raise EncodeError(
                f"defect of {r.name} not certified ({res.status})")
        out[r.name] = res
    return out


# -- word problem oracles --------------------------------------------------

def abelianized_trivial(p: GroupPresentation, w: Word) -> bool:
    """Necessary condition for w = 1: its exponent vector lies in the
    lattice spanned by the relator vectors.  Integer row echelon form:
    at each coordinate Euclid leaves one pivot among the relator
    vectors, and w's vector, reduced by the pivot, must vanish there."""
    if not p.generators:
        return not free_reduce(w)
    v = p.word_vector(w)
    rows = [p.word_vector(r) for r in p.relators]
    for i in range(len(v)):
        pivot, rest = (0,) * len(v), []
        for r in rows:
            while r[i]:
                q = pivot[i] // r[i]
                pivot, r = r, tuple(a - q * b for a, b in zip(pivot, r))
            rest.append(r)
        rows = rest
        if pivot[i]:
            q = v[i] // pivot[i]
            v = tuple(a - q * b for a, b in zip(v, pivot))
        if v[i]:
            return False
    return True


class AreaResult(namedtuple("AreaResult", "status area steps words explored",
                            defaults=(None, (), (), 0))):
    """Outcome of the insertion search: ``found`` carries the cell count
    (least if at most 5, else an upper bound: see area_oracle) and the
    insertion path; ``impossible`` is an abelianized refutation;
    ``bound-limited`` is a shrug.  explored counts insertion attempts,
    rejected ones included, while ReachResult.explored counts visited
    configurations."""

    __slots__ = ()

    @property
    def found(self) -> bool:
        return self.status == FOUND


def area_oracle(p: GroupPresentation, w: Word, max_area: int,
                moves: str = "symmetrized") -> AreaResult:
    """Number of relator insertions taking w to the empty word: the least
    if at most 5, an upper bound above.  Breadth-first from w on
    search.shortest: insert one relator (the symmetrized closure, or just
    the stored ones) at any position and reduce, splicing at the two
    junctions.  The search runs on bare letter tuples, each its own
    search key, and builds Words only for the answer.  Words longer than
    w plus two relators are skipped; as one insertion changes the length
    by at most a relator's, a derivation of k insertions passes that cap
    only when k >= 6.  Running out of words certifies nothing: only
    ``found`` and ``impossible`` are conclusive, and all three are
    sound."""
    if moves not in ("symmetrized", "stored"):
        raise EncodeError(f"unknown move set {moves!r}")
    w = free_reduce(w)
    if not abelianized_trivial(p, w):
        return AreaResult(IMPOSSIBLE)
    ins = (stored_relators(p) if moves == "stored"
           else sorted(symmetrized_closure(p.relators), key=Word.sort_key))
    max_len = len(w) + 2 * max((len(r) for r in p.relators), default=1)
    explored = 0

    def insertions(u, _a, _b):
        nonlocal explored
        for s in ins:
            # right-to-left: end-of-word insertions realize cheapest
            for pos in range(len(u), -1, -1):
                v = splice(u[:pos], s.letters, u[pos:])[0]
                explored += 1
                if len(v) <= max_len:
                    yield (s, pos), v, v

    status, path, depth, _ = shortest(insertions, tuple, w.letters, (),
                                      max_area)
    if status != FOUND:
        return AreaResult(BOUNDED, explored=explored)
    return AreaResult(FOUND, depth, tuple([a for a, _ in path]),
                      (w,) + tuple(Word._of(v) for _, v in path), explored)


# -- canonical computations ------------------------------------------------

def _sigma(y: Atom, e: int) -> list:
    """sigma(y), which appends y to the working tape and y' to the service
    tape, as (atom, sign) letters; its inverse for e = -1."""
    return [(atom(f"sigma({y.name})"), e)]


def _tau(y: Atom, e: int) -> list:
    """tau1(y) tau2(y), which appends the trivial pair y·bar(y); its
    inverse, read backwards, for e = -1."""
    move = [(atom(f"tau1({y.name})"), e), (atom(f"tau2({y.name})"), e)]
    return move if e > 0 else move[::-1]


def _rho(meta: dict, ri: int, e: int) -> list:
    """rho(ri,1) ... rho(ri,n), which appends the ri-th positivized
    relator; its inverse, read backwards, for e = -1."""
    move = [(atom(f"rho({ri},{j})"), e)
            for j in range(1, len(meta["positive"][ri]) + 1)]
    return move if e > 0 else move[::-1]


def positivizing_computation(m: Machine, w: Word) -> Word:
    """History taking (w, ε) to (positivize(w), ε): peel the signed
    spelling off while writing the positive one.  Empty for positive w."""
    meta = _encoder_meta(m)
    d = meta["doubled"]
    base = set(d.base)
    pre, post = [], []
    for a, s in free_reduce(w):
        if a not in base:
            raise EncodeError(f"{a.name!r} is not an input letter")
        z = a if s > 0 else d.bar(a)
        post += _sigma(z, 1)
        pre.append((_tau(a, 1) if s < 0 else []) + _sigma(z, -1))
    return free_reduce(Word([x for b in reversed(pre) for x in b] + post))


def _realize_insertion(meta: dict, u: Word, s: Word, pos: int):
    """History fragment realizing one insertion step u -> reduce(u[:pos]
    · s · u[pos:]) on the positive working tape, and that reduced word.
    Exactly one rho block per call."""
    d = meta["doubled"]
    index = meta["index"]
    a, c = u.letters[:pos], u.letters[pos:]
    product, k, _ = splice(a, s.letters, c)
    tape = [x for x, _ in d.positivize(u)]
    out, stack = [], []

    def mo_last():
        # the trailing letter x goes onto the service stack as bar(x)
        rec = d.bar(tape.pop())
        out.extend(_tau(rec, -1) + _sigma(rec, 1))
        stack.append(rec)

    for _ in range(len(c)):
        mo_last()
    if k == len(s) and s.inverse().key() in index:
        # the whole relator cancels into a literal suffix: delete it
        out.extend(_rho(meta, index[s.inverse().key()], -1))
        del tape[len(tape) - len(s):]
    else:
        if s.key() not in index:
            raise EncodeError(f"{s.tokens()!r} is not a stored relator")
        ri = index[s.key()]
        out.extend(_rho(meta, ri, 1))
        tape.extend(x for x, _ in meta["positive"][ri])
        if k > 0:
            # expose the innermost cancelling pair, drop it, and let the
            # pop loop below cascade through the rest
            for _ in range(len(s) - 1):
                mo_last()
            y = tape[-2]
            if tape[-1] != d.bar(y):
                raise InvariantError("no cancelling pair exposed at the tape end")
            out.extend(_tau(y, -1))
            del tape[-2:]
    while stack:
        # a popped letter cancels the tape end or is restored as its bar
        rec = stack.pop()
        out.extend(_sigma(rec, -1))
        if tape and tape[-1] == rec:
            tape.pop()
        else:
            out.extend(_tau(rec, 1))
            tape.append(d.bar(rec))
    expect = Word._of(product)
    if tape != [x for x, _ in d.positivize(expect)]:
        raise InvariantError("insertion did not leave the reduced tape "
                             f"{expect.tokens()!r}")
    return out, expect


def emulation_history(m: Machine, w: Word,
                      steps: Optional[Sequence] = None,
                      max_area: int = 8) -> Word:
    """An accepting history for an input representing the identity:
    positivize, realize each insertion of the derivation, close with
    omega.  Raises when no derivation is found within the bounds."""
    meta = _encoder_meta(m)
    p = meta["presentation"]
    w = free_reduce(w)
    if steps is None:
        res = area_oracle(p, w, max_area=max_area, moves="stored")
        if res.status != FOUND:
            raise EncodeError(f"no derivation of {w.tokens()!r} within "
                              f"bounds ({res.status})")
        steps = res.steps
    hist = list(positivizing_computation(m, w))
    u = w
    for s, pos in steps:
        block, u = _realize_insertion(meta, u, s, pos)
        hist.extend(block)
    if u:
        raise EncodeError("derivation does not end at the empty word")
    hist.append((atom("omega"), 1))
    return free_reduce(Word(hist))


def history_block_count(m: Machine, h: Word) -> dict:
    """Completed blocks in a (freely reduced) history.  The state chains
    force tau and rho blocks to run to completion, so counting the
    opening rule of each suffices; the rho count is the number of
    relator applications."""
    meta = _encoder_meta(m)
    positive = meta["positive"]
    rho_open = {f"rho({ri},1)" for ri in range(len(positive))}
    rho_close = {f"rho({ri},{len(pr)})" for ri, pr in enumerate(positive)}
    counts = {"sigma": 0, "tau": 0, "rho": 0, "omega": 0}
    for a, s in free_reduce(h):
        n = a.name
        if n.startswith("sigma("):
            counts["sigma"] += 1
        elif n == "omega":
            counts["omega"] += 1
        elif n.startswith("tau1(") and s > 0:
            counts["tau"] += 1
        elif n.startswith("tau2(") and s < 0:
            counts["tau"] += 1
        elif s > 0 and n in rho_open:
            counts["rho"] += 1
        elif s < 0 and n in rho_close:
            counts["rho"] += 1
    return counts
