"""From machines to groups: presentations, lengths, trapezia, conjugators.

A machine S determines a finitely presented group M(S) generated by its
tape letters, its state letters, and one letter per rule and gap index.
A rewriting step of S becomes a chain of relations in M(S), and a whole
computation flattens into a *trapezium*: a diagram over the presentation
whose bottom and top spell the first and last configurations and whose
sides record the history.
"""

from __future__ import annotations

import weakref
from itertools import chain, islice, repeat
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING

from .words import (Atom, InvariantError, SmforgeError, Word, _cancellations,
                    atom, free_reduce, rotations)
from .machine import AdmissibleWord, Computation, Machine, run
from .encode import GroupPresentation
from .serialize import SCHEMA_VERSION, dumps_canonical

if TYPE_CHECKING:  # imported where used: fractions slows every CLI start
    from fractions import Fraction


class GroupError(SmforgeError):
    pass


class BoundaryWriteError(GroupError):
    """A negative answer, unlike other GroupErrors: a step writes tape
    letters past the outer parts, so the sides are not pure conjugators."""


# -- the group of a machine -------------------------------------------------

def theta_atom(rule_name: str, i: int) -> Atom:
    return atom(f"{rule_name}.{i}")


def machine_to_group(m: Machine, strict: bool = False) -> GroupPresentation:
    """The presentation M(S) read off a machine, named ``M(<name>)``, with
    ``.strict`` appended in strict mode.

    For a machine with n parts the gap left of part i carries the letter
    theta_i of each rule; the gap right of the last part wraps around to
    index 0.  Each rule contributes

        q_i theta_{i+1} = theta_i l_i q_i' r_i      (one per part)
        theta_{s+1} a = a theta_{s+1}               (a in the sector-s domain)

    where q_i -> l_i q_i' r_i is the rule's action on part i.  Strict
    mode drops the part-0 relations.  The relators come rules by name:
    first the (theta,q) relators of each rule, part by part, then the
    (theta,a) relators of each rule, sector by sector and letter by letter.
    """
    gens: list[Atom] = []
    for ab in m.sector_alphabets:
        gens.extend(sorted(ab, key=lambda a: a.name))
    for p in m.parts:
        gens.extend(p.letters)
    seen = set(gens)
    for r in sorted(m.rules, key=lambda r: r.name):
        for i in range(m.n_parts):
            th = theta_atom(r.name, i)
            if th in seen:
                raise GroupError(
                    f"theta letter {th.name!r} collides with another generator")
            seen.add(th)
            gens.append(th)

    name = f"M({m.name})" + (".strict" if strict else "")
    return GroupPresentation(gens, [w for _, w in _relators(m, strict)],
                             name=name)


def _relators(m: Machine, strict: bool = False):
    """(label, relator) pairs of M(m) in machine_to_group's order, each
    label ("tq", rule, part) or ("ta", rule, sector)."""
    K = m.n_parts
    rules = sorted(m.rules, key=lambda r: r.name)
    for r in rules:
        for i in range(1 if strict else 0, K):
            rp = r.parts[i]
            yield ("tq", r.name, i), free_reduce(
                Word.of(rp.frm, theta_atom(r.name, (i + 1) % K))
                * rp.right.inverse()
                * Word.of((rp.to, -1))
                * rp.left.inverse()
                * Word.of((theta_atom(r.name, i), -1)))
    for r in rules:
        for s in range(m.n_sectors):
            th = theta_atom(r.name, (s + 1) % K)
            for a in sorted(r.domains[s], key=lambda a: a.name):
                yield ("ta", r.name, s), Word.of(th, a, (th, -1), (a, -1))


_GROUPS = weakref.WeakKeyDictionary()


def _group_record(m: Machine, closure: bool = True) -> list:
    """[edge_of, closure] of the default M(m), kept while m lives.
    edge_of maps each generator to its one Edge, of kind "q", "a" or
    "theta", a state or tape letter before a theta letter of the same
    name.  closure, None until asked for, maps each word of the
    symmetrized closure to the label of its relator; machine_to_group(m)
    checks M(m) first, and a failure is raised again on every call."""
    record = _GROUPS.get(m)
    if record is None:
        kind_of = {theta_atom(r.name, i): "theta"
                   for r in m.rules for i in range(m.n_parts)}
        kind_of.update(dict.fromkeys(m.hw.sector_of, "a"))
        kind_of.update(dict.fromkeys(m.hw.part_of, "q"))
        record = _GROUPS[m] = [{a: Edge(a, k) for a, k in kind_of.items()}, None]
    if closure and record[1] is None:
        machine_to_group(m)
        record[1] = {v.letters: label for label, w in _relators(m)
                     for u in (w, w.inverse()) for v in rotations(u)}
    return record


# -- modified length --------------------------------------------------------

Q_TYPE, A_TYPE, THETA_TYPE = "q", "a", "t"


def letter_types(m: Machine, w: Word) -> str:
    """Classify each letter of a word over M(S) as q, a, or t(heta): the
    first letter of its edge kind."""
    edge_of = _group_record(m, closure=False)[0]
    for a, _ in w:
        if a not in edge_of:
            raise GroupError(f"{a.name!r} is not a generator of M({m.name})")
    return "".join([edge_of[a].kind[0] for a, _ in w])


def modified_length_from_types(types: str, n_parts: int) -> Fraction:
    """Cheapest cost of a type sequence: q and theta letters cost 1, tape
    letters cost delta = 1/(2n+2), and an adjacent theta/tape pair may be
    bought together for 1."""
    from fractions import Fraction
    delta = Fraction(1, 2 * n_parts + 2)
    single = {Q_TYPE: Fraction(1), THETA_TYPE: Fraction(1), A_TYPE: delta}
    dp = [Fraction(0)]
    for i, t in enumerate(types):
        best = dp[i] + single[t]
        if i and {types[i - 1], t} == {A_TYPE, THETA_TYPE}:
            best = min(best, dp[i - 1] + 1)
        dp.append(best)
    return dp[-1]


def modified_length(m: Machine, w: Word) -> Fraction:
    return modified_length_from_types(letter_types(m, w), m.n_parts)


# -- trapezia ---------------------------------------------------------------

class Edge:
    """The label record of one generator of M(S), shared by every edge
    that carries it."""

    __slots__ = ("atom", "kind")  # kind: "q" | "a" | "theta"

    def __init__(self, atom, kind):
        self.atom = atom
        self.kind = kind

    def __repr__(self):
        return f"Edge({self.atom.name}, {self.kind})"


class Cell:
    """One cell: a (theta,q) rectangle or a (theta,a) square.  The
    boundary is read counterclockwise from the bottom-left corner, so it
    spells a relator of the default presentation."""

    __slots__ = ("kind", "boundary", "rule", "index", "row")  # kind "tq"|"ta"

    def __init__(self, kind, boundary, rule, index, row=None):
        self.kind = kind
        self.boundary = tuple(boundary)
        self.rule = rule
        self.index = index  # part index for tq, sector index for ta
        self.row = row

    def __repr__(self):
        return f"Cell({self.kind}, {self.rule}, {self.index}, row={self.row})"


class Row:
    """One band of cells.  Paths are tuples of (edge id, orientation);
    bottom and top are read left to right, the sides bottom to top."""

    __slots__ = ("rule", "sign", "bottom", "top", "left", "right")

    def __init__(self, rule, sign, bottom, top, left, right):
        self.rule = rule
        self.sign = sign
        self.bottom = tuple(bottom)
        self.top = tuple(top)
        self.left = tuple(left)
        self.right = tuple(right)


class Trapezium:
    __slots__ = ("machine", "rows", "cells", "edges", "words",
                 "bottom", "top", "left", "right")

    def __init__(self, machine, rows, cells, edges, words, degenerate=()):
        self.machine = machine
        self.rows = tuple(rows)
        self.cells = tuple(cells)
        self.edges = dict(edges)
        self.words = tuple(words)
        if rows:
            self.bottom = rows[0].bottom
            self.top = rows[-1].top
            self.left = tuple(x for r in rows for x in r.left)
            self.right = tuple(x for r in rows for x in r.right)
        else:
            # A zero-row trapezium is just its word, read twice.
            self.bottom = self.top = tuple(degenerate)
            self.left = self.right = ()

    def n_cells(self) -> int:
        return len(self.cells)

    def history(self) -> Word:
        return Word(tuple((atom(r.rule), r.sign) for r in self.rows))

    def path_word(self, path) -> Word:
        return Word._of(tuple([(self.edges[e].atom, o) for e, o in path]))

    def boundary_word(self) -> Word:
        """Label of the outer contour: bottom^-1 . left . top . right^-1."""
        return free_reduce(self.path_word(_outer_loop(self)))

    def __repr__(self):
        return (f"Trapezium({self.machine.name}, {len(self.rows)} rows, "
                f"{len(self.cells)} cells)")


def _new_edge(edges: list, a: Atom) -> int:
    """Append a fresh edge's atom; its id is its position in the list."""
    edges.append(a)
    return len(edges) - 1


def _spell_admissible(edges, aw):
    """Fresh edges spelling an admissible word; returns (path, state edge
    ids, per-sector tape paths)."""
    b_state = [_new_edge(edges, a) for a, _ in aw.states]
    b_tape = [[(_new_edge(edges, a), e) for a, e in w] for w in aw.tapes]
    path = [(b_state[0], aw.states[0][1])]
    for j, tape in enumerate(b_tape):
        path.extend(tape)
        path.append((b_state[j + 1], aw.states[j + 1][1]))
    return tuple(path), b_state, b_tape


def _check_standard_base(aw: AdmissibleWord):
    want = tuple((i, 1) for i in range(aw.hw.n_parts))
    if aw.base != want:
        raise GroupError("trapezia need the standard base q_0 ... q_{n-1}")


def _check_computation(m: Machine, comp: Computation):
    """Refuse a failed computation, a step whose rule is not m's own object
    (a twin machine's or a deep copy's), configurations that do not follow
    its history, in trapezium_to_computation's words (_replay), and a start
    off the standard base.  The kernel keeps a configuration's base, so
    every configuration the replay reached is on the start's."""
    if not comp.ok:
        raise GroupError("computation failed; nothing to flatten")
    for t, (rule, _) in enumerate(comp.steps):
        if m.rule_by_name.get(rule.name) is not rule:
            raise GroupError(f"step {t} applies rule {rule.name!r} of "
                             "another machine")
    _replay(m, comp.configs, comp.steps)
    _check_standard_base(comp.configs[0])


def _positive_row(edges: list, m: Machine, lo: AdmissibleWord, rule,
                  hi: AdmissibleWord):
    """Build one band for a positive application of ``rule`` taking ``lo``
    to ``hi``, both on the standard base; the outer parts' writes fall off
    the ends of the word.  Returns (row, cells).  In each sector, the one
    free-reduction scan (words._cancellations) of right write · tape · left
    write pairs the letters that cancel: a tape letter keeps its bottom
    edge, each other letter in turn shares its partner's edge if that has
    one yet or takes a fresh one, and the survivors, in order, spell the
    sector's top, each surviving tape letter through a square."""
    n = m.n_parts
    rp = rule.parts
    # theta[i] is theta_{(i+1) mod n}, so theta[-1] is theta_0.
    theta = [theta_atom(rule.name, (i + 1) % n) for i in range(n)]

    bottom, b_state, b_tape = _spell_admissible(edges, lo)
    t_state = [_new_edge(edges, rp[i].to) for i in range(n)]

    # Per part: the l- and r-spans of its cell top; per sector: squares for
    # the surviving tape letters and the resulting top-path entries.
    pre = [None] * n
    post = [None] * n
    pre[0] = [(_new_edge(edges, a), e) for a, e in rp[0].left.letters]
    post[n - 1] = [(_new_edge(edges, a), e) for a, e in rp[-1].right.letters]
    squares = [[] for _ in range(n - 1)]
    sector_top = [[] for _ in range(n - 1)]
    for s in range(n - 1):
        right, left = rp[s].right.letters, rp[s + 1].left.letters
        letters = right + lo.tapes[s].letters + left
        partner, survivors = _cancellations(letters)
        rn = len(right)
        wn = len(letters) - len(left)
        spans = [None] * rn + b_tape[s] + [None] * len(left)
        for t, (a, e) in enumerate(letters):
            if spans[t] is not None:
                continue
            p = partner[t]
            if p is not None and spans[p] is not None:
                spans[t] = (spans[p][0], -spans[p][1])
            else:
                spans[t] = (_new_edge(edges, a), e)
        post[s] = spans[:rn]
        pre[s + 1] = spans[wn:]
        for t in survivors:  # the tape letters are at rn..wn-1
            if rn <= t < wn:
                be, e = spans[t]
                te = _new_edge(edges, letters[t][0])
                squares[s].append((be, e, te))
                sector_top[s].append((te, e))
            else:
                sector_top[s].append(spans[t])

    # Columns left to right; every vertical over sector s carries index
    # (s+1) mod n, and the outermost two carry index 0.
    cells = []
    left_v = _new_edge(edges, theta[-1])
    v_first = left_v
    top = []
    for i in range(n):
        rv = _new_edge(edges, theta[i])
        span = list(pre[i]) + [(t_state[i], 1)] + list(post[i])
        boundary = ([(b_state[i], 1), (rv, 1)]
                    + [(e, -o) for e, o in reversed(span)]
                    + [(left_v, -1)])
        cells.append(Cell("tq", boundary, rule.name, i))
        left_v = rv
        top.append((t_state[i], 1))
        if i < n - 1:
            for be, e, te in squares[i]:
                rv = _new_edge(edges, theta[i])
                cells.append(Cell("ta", [(be, e), (rv, 1), (te, -e),
                                         (left_v, -1)], rule.name, i))
                left_v = rv
            top.extend(sector_top[i])

    row = Row(rule.name, 1, bottom, top,
              [(v_first, 1)] + pre[0],
              [(left_v, 1)] + [(e, -o) for e, o in reversed(post[n - 1])])
    if tuple([(edges[e], o) for e, o in row.top]) != hi.key():
        raise InvariantError("row top does not spell the resulting word")
    return row, cells


def _flip_path(path):
    return tuple((e, -o) for e, o in reversed(path))


def computation_to_trapezium(m: Machine, comp: Computation) -> Trapezium:
    """Flatten a computation into a trapezium over M(S).

    The configurations must replay along the history, counted as
    validation counts the stored words, and the start must have the
    standard base; negative steps are built as their positive counterparts and
    mounted upside down.  Consecutive rows share their interface path:
    a row's bottom is the previous row's top, and only cells are renumbered."""
    _check_computation(m, comp)
    edges, rows, cells, alias = [], [], [], {}
    path = () if comp.steps else _spell_admissible(edges, comp.configs[0])[0]
    for t, (rule, sign) in enumerate(comp.steps):
        lo, hi = comp.configs[t], comp.configs[t + 1]
        if sign > 0:
            row, rcells = _positive_row(edges, m, lo, rule, hi)
        else:
            row, rcells = _positive_row(edges, m, hi, rule, lo)
            row = Row(row.rule, -1, row.top, row.bottom,
                      _flip_path(row.left), _flip_path(row.right))
            # Mirrored cells are read the other way around.
            for c in rcells:
                c.boundary = _flip_path(c.boundary)
        for c in rcells:
            c.row = t
        if rows:
            # Glue: the fresh bottom spells the previous top edge for edge;
            # only it and this row's cells name the edges dropped here.
            up, down = rows[-1].top, row.bottom
            if [(edges[e], o) for e, o in up] != [(edges[e], o) for e, o in down]:
                raise InvariantError("interface paths do not match")
            alias.update(zip(map(itemgetter(0), down), map(itemgetter(0), up)))
            row.bottom = up
        rows.append(row)
        cells.extend(rcells)
    for c in cells:
        c.boundary = tuple([(alias.get(e, e), o) for e, o in c.boundary])
    edge_of = _group_record(m, closure=False)[0]
    edges = {e: edge_of[a] for e, a in enumerate(edges) if e not in alias}
    return Trapezium(m, rows, cells, edges, comp.configs, degenerate=path)


def _steps(trap: Trapezium) -> list:
    """The rows' (rule, sign) pairs, one per row.  Each row must name a
    rule of the machine with the int sign 1 or -1."""
    steps = []
    for j, row in enumerate(trap.rows):
        rule = trap.machine.rule_by_name.get(row.rule)
        if rule is None:
            raise GroupError(f"row {j} names no rule of the machine")
        if type(row.sign) is not int or row.sign not in (1, -1):
            raise GroupError(f"row {j} has sign {row.sign!r}, not 1 or -1")
        steps.append((rule, row.sign))
    return steps


def _replay(m: Machine, words, steps) -> Computation:
    """The one check that configurations follow a history: words must hold
    one more word than steps, and running steps from words[0] must reach
    each of them in turn.  The first word the history does not reach is
    named."""
    if len(words) != len(steps) + 1:
        raise GroupError("one more stored word than rows expected")
    comp = run(m, words[0], steps, strict=False)
    for j, aw in enumerate(words):
        if j == len(comp.configs) or comp.configs[j] != aw:
            raise GroupError(f"stored word {j} does not replay")
    return comp


def trapezium_to_computation(trap: Trapezium) -> Computation:
    """Re-run the stored interface words along the stored history.  Each
    row must name a rule of the machine with the int sign 1 or -1, and
    each stored word must be the configuration the history reaches there."""
    return _replay(trap.machine, trap.words, _steps(trap))


# -- validation -------------------------------------------------------------

def _outer_loop(trap: Trapezium):
    return (_flip_path(trap.bottom) + trap.left + trap.top
            + _flip_path(trap.right))


def validate_trapezium(trap: Trapezium) -> bool:
    """Check a trapezium cell by cell and edge by edge, running no rule.

    Each fact is checked once, in this order, and the first fault is
    named: every stored word is on the standard base, which the rest
    needs; every path names edges of the trapezium; every edge key, both
    members of every path entry, every cell index and every cell row
    other than None is an int, in one pass; every edge record carries
    the kind of its atom, a generator of M(machine), by value, so that a
    copy of a trapezium validates too; every cell spells a relator of
    the default presentation and carries that relator's kind, rule and
    index as its label; every edge is used exactly twice, with the
    opposite orientations 1 and -1 (the outer contour counts as a face);
    every row names a rule with the int sign 1 or -1, its sides read the
    theta letter followed by the word the outer part writes off the end,
    and its bottom and top spell its stored words, of which there must be
    one more than rows.  Then each row's cells must form one theta-band
    from its left side to its right, and each cell must lie on the band of
    the row it names, which refuses a missing row and a row of another
    rule too; and a cell of each row must use every edge of that row's
    bottom and top.  Last, the bottom and top must spell the stored end
    configurations.  These checks alone make the history and the stored
    words a computation (the trapezium lemma), so the kernel that made
    them is not run; trapezium_to_computation replays them."""
    m = trap.machine
    for aw in trap.words:
        _check_standard_base(aw)

    uses = tuple(chain.from_iterable([c.boundary for c in trap.cells]))
    inner = len(uses)
    uses += _outer_loop(trap)
    paths = [p for r in trap.rows for p in (r.bottom, r.top, r.left, r.right)]
    if not set(map(itemgetter(0), chain(uses, *paths))) <= trap.edges.keys():
        raise GroupError("a path mentions an unknown edge")
    # True equals 1, so it passes every check below, which compare by
    # value, but it dumps as true.  A cell row of None is refused by the
    # band walk: no row walks it.
    ints = chain(trap.edges, chain.from_iterable(chain(uses, *paths)),
                 map(attrgetter("index"), trap.cells),
                 [c.row for c in trap.cells if c.row is not None])
    if not set(map(type, ints)) <= {int}:
        # Name the first offender: the edge keys, each read as a path
        # entry, then the paths, then the cells.
        for e, o in chain(zip(trap.edges, repeat(1)), uses, *paths):
            if type(e) is not int:
                raise GroupError(f"edge id {e!r} is not an int")
            if type(o) is not int:
                raise GroupError(f"edge {e} has orientation {o!r}, not 1 or -1")
        c = next(c for c in trap.cells if type(c.index) is not int
                 or type(c.row) not in (int, type(None)))
        f = "index" if type(c.index) is not int else "row"
        raise GroupError(f"cell {c!r} has {f} {getattr(c, f)!r}, not an int")

    # Every closure word is reduced, so a cell that spells one as it
    # stands needs no reduction.  Built before the edge records are read,
    # so that a theta letter colliding with a generator is named first.
    edge_of, closure = _group_record(m)
    # Each edge record must carry its atom's kind, compared by value, so
    # that a copy of a trapezium validates too.
    atoms, thetas = {}, set()
    for e, edge in trap.edges.items():
        a = atoms[e] = edge.atom
        record = edge_of.get(a)
        if record is None:
            raise GroupError(f"edge {e} has atom {a.name!r}, not a "
                             f"generator of M({m.name})")
        if edge.kind != record.kind:
            raise GroupError(f"edge {e} is recorded as {edge!r}, not {record!r}")
        if record.kind == "theta":
            thetas.add(e)

    def letters(path) -> tuple:
        return tuple([(atoms[e], o) for e, o in path])

    for c in trap.cells:
        w = letters(c.boundary)
        label = (closure.get(w)
                 or closure.get(free_reduce(Word._of(w)).letters))
        if label is None:
            raise GroupError(f"cell {c!r} does not spell a relator")
        if label != (c.kind, c.rule, c.index):
            raise GroupError(f"cell {c!r} spells a relator of {label!r}")

    # Once each way for every edge: no use repeats, each is +1 or -1, and
    # there are two per edge.  Otherwise name the first edge that fails.
    if (len(set(uses)) != len(uses) or len(uses) != 2 * len(trap.edges)
            or not set(map(itemgetter(1), uses)) <= {1, -1}):
        use = {}
        for e, o in uses:
            use.setdefault(e, []).append(o)
        for e in trap.edges:
            if sorted(use.get(e, ())) != [-1, 1]:
                raise GroupError(f"edge {e} used {use.get(e, ())!r}, "
                                 "expected once each way")

    spelled, steps = [aw.key() for aw in trap.words], _steps(trap)
    for j, (row, (rule, _), below, above) in enumerate(
            zip(trap.rows, steps, spelled, spelled[1:])):
        th = Word.of((theta_atom(rule.name, 0), 1))
        left = th * rule.parts[0].left
        right = th * rule.parts[-1].right.inverse()
        if row.sign < 0:
            left, right = left.inverse(), right.inverse()
        if letters(row.left) != left.letters:
            raise GroupError(f"row {j} left side label is wrong")
        if letters(row.right) != right.letters:
            raise GroupError(f"row {j} right side label is wrong")
        if letters(row.bottom) != below:
            raise GroupError(f"row {j} bottom label is wrong")
        if letters(row.top) != above:
            raise GroupError(f"row {j} top label is wrong")
    if len(trap.words) != len(steps) + 1:
        raise GroupError("one more stored word than rows expected")

    # Each row is one theta-band.  Every cell spells a relator with two
    # theta letters, so two theta uses per cell in all means exactly two
    # each: cell i's are theta[2i] and theta[2i+1].  A row's walk enters
    # a cell by one use t, leaves by the other, t ^ 1, and enters the
    # next cell where that edge is used again, until it leaves by the
    # theta edge of the row's right side.  Each edge is used twice, so
    # no cell is met twice, and each cell must be met by its own row.
    theta = list(filter(thetas.__contains__,
                        map(itemgetter(0), islice(uses, inner))))
    if len(theta) != 2 * len(trap.cells):
        raise GroupError("a cell has more than two theta edges")
    first = dict(zip(reversed(theta), range(len(theta) - 1, -1, -1)))
    last = dict(zip(theta, range(len(theta))))
    # A cell no row walks matches no row field, not even None.  band lists
    # the cells in walk order, row j's from ends[j] to ends[j + 1].
    walked = [object()] * len(trap.cells)
    band, ends = [], [0]
    for j, row in enumerate(trap.rows):
        end = -1 if row.sign < 0 else 0
        e, stop = row.left[end][0], row.right[end][0]
        t = first.get(e, -1)
        while t >= 0:
            walked[t >> 1] = j
            band.append(t >> 1)
            t ^= 1
            e = theta[t]
            if e == stop:
                break
            # the edge's other use by a cell, if it has one
            t = first[e] + last[e] - t if first[e] != last[e] else -1
        else:
            raise GroupError(f"row {j} is not one theta-band: its walk "
                             f"stops at edge {e}")
        ends.append(len(band))
    if walked != list(map(attrgetter("row"), trap.cells)):
        c = next(c for c, j in zip(trap.cells, walked) if c.row != j)
        raise GroupError(f"cell {c!r} is not on the theta-band of its row")
    # Each row's bottom and top run along its own band: a cell of the row
    # uses every edge on them.
    boundaries = list(map(attrgetter("boundary"), trap.cells))
    for j, row in enumerate(trap.rows):
        used = set(map(itemgetter(0), chain.from_iterable(
            map(boundaries.__getitem__, band[ends[j]:ends[j + 1]]))))
        for side, path in (("bottom", row.bottom), ("top", row.top)):
            if not used.issuperset(map(itemgetter(0), path)):
                e = next(e for e, _ in path if e not in used)
                raise GroupError(f"row {j} {side} leaves its band at edge {e}")

    if letters(trap.bottom) != spelled[0]:
        raise GroupError("bottom label is wrong")
    if letters(trap.top) != spelled[-1]:
        raise GroupError("top label is wrong")
    return True


def run_dichotomy(m: Machine, comp: Computation) -> list[dict]:
    """Split the history into maximal one-rule runs and check that each
    is short (at most |in| + |out| + 2L tape letters long) or advances
    the tape length by a constant in its interior.  Raises if a run is
    neither.  L is the most letters one rule writes, at least 1."""
    L = max((sum(len(p.left) + len(p.right) for p in r.parts)
             for r in m.rules), default=1) or 1
    records = []
    i = 0
    while i < len(comp.steps):
        j = i
        while j < len(comp.steps) and comp.steps[j] == comp.steps[i]:
            j += 1
        rule, sign = comp.steps[i]
        length = j - i
        bound = (comp.configs[i].tape_length()
                 + comp.configs[j].tape_length() + 2 * L)
        rec = {"rule": rule.name, "sign": sign, "length": length,
               "bound": bound}
        if length <= bound:
            rec["status"] = "short"
        else:
            deltas = [comp.configs[t + 1].tape_length()
                      - comp.configs[t].tape_length() for t in range(i, j)]
            mid = deltas[L:length - L] or deltas
            if len(set(mid)) > 1:
                raise GroupError(
                    f"run of {rule.name!r} (length {length}) is neither "
                    "short nor periodic")
            rec["status"] = "periodic"
        records.append(rec)
        i = j
    return records


# -- export -----------------------------------------------------------------

def trapezium_to_dict(trap: Trapezium) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "machine": trap.machine.name,
        "history": trap.history().tokens(),
        "words": [aw.tokens() for aw in trap.words],
        "edges": [{"id": e, "atom": edge.atom.name, "kind": edge.kind}
                  for e, edge in sorted(trap.edges.items())],
        "cells": [{"kind": c.kind, "rule": c.rule, "index": c.index,
                   "row": c.row, "boundary": c.boundary}
                  for c in trap.cells],
        "rows": [{"rule": r.rule, "sign": r.sign, "bottom": r.bottom,
                  "top": r.top, "left": r.left, "right": r.right}
                 for r in trap.rows],
        "boundary": {side: getattr(trap, side)
                     for side in ("bottom", "top", "left", "right")},
    }


def trapezium_dumps(trap: Trapezium) -> str:
    return dumps_canonical(trapezium_to_dict(trap))


def _dot_string(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def trapezium_to_dot(trap: Trapezium) -> str:
    """The cell-adjacency graph: one node per cell plus the outer face,
    one edge per shared diagram edge."""
    users = {}
    for i, c in enumerate(trap.cells):
        for e, _ in c.boundary:
            users.setdefault(e, []).append(f"c{i}")
    for e, _ in _outer_loop(trap):
        users.setdefault(e, []).append("outer")
    lines = [f"graph {_dot_string(trap.machine.name)} {{"]
    for i, c in enumerate(trap.cells):
        sign = "+" if trap.rows[c.row].sign > 0 else "-"
        label = _dot_string(f"{c.kind} {c.rule}{sign} @{c.index}")
        lines.append(f"  c{i} [label={label}];")
    lines.append('  outer [label="outer"];')
    for e in sorted(users):
        pair = users[e]
        if len(pair) == 2:
            lines.append(f'  {pair[0]} -- {pair[1]} '
                         f"[label={_dot_string(trap.edges[e].atom.name)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- conjugators and products ----------------------------------------------

def conjugator_from_accepting(m: Machine, comp: Computation) -> Word:
    """A word g with  g . word(end) . g^-1 = word(start)  in M(S).

    g is the theta_0-projection of the history: one letter
    theta_atom(rule, 0)^sign per step, unreduced, so its length equals
    the number of steps.  It is the label of both sides of the
    computation's trapezium, and so a conjugator, when no step writes
    tape letters past the outer parts: every rule of the history must
    have an empty parts[0].left and parts[-1].right, or this raises
    BoundaryWriteError.  Needs the part-0 relations, so the default
    (non-strict) presentation."""
    _check_computation(m, comp)
    if any(r.parts[0].left or r.parts[-1].right for r, _ in comp.steps):
        raise BoundaryWriteError("a step emits tape letters at the "
                                 "boundary; the sides are not pure "
                                 "conjugators")
    return Word._of(tuple([(theta_atom(r.name, 0), s) for r, s in comp.steps]))


def heisenberg_product(p: GroupPresentation,
                       names=("a", "b", "c")) -> GroupPresentation:
    """Direct product of the presented group with the integral Heisenberg
    group <a, b, c | [a,b]=c, [a,c]=[b,c]=1>."""
    taken = {g.name for g in p.generators}
    fresh = []
    for nm in names:
        while nm in taken:
            nm += "_"
        taken.add(nm)
        fresh.append(atom(nm))
    a, b, c = fresh
    relators = list(p.relators)
    relators.append(Word.of(a, b, (a, -1), (b, -1), (c, -1)))
    relators.append(Word.of(a, c, (a, -1), (c, -1)))
    relators.append(Word.of(b, c, (b, -1), (c, -1)))
    for g in p.generators:
        for h in fresh:
            relators.append(Word.of(g, h, (g, -1), (h, -1)))
    name = f"{p.name}xH" if p.name else "H"
    return GroupPresentation(tuple(p.generators) + tuple(fresh), relators,
                             name=name)


def dehn_cell_bound_check(cells: int, boundary_length: int) -> bool:
    """cells <= L^3/8 + L^2/2 for a contour of length L."""
    L = boundary_length
    return 8 * cells <= L ** 3 + 4 * L ** 2
