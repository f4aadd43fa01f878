"""Reachability in the configuration graph of an S-machine.

Edges are applications of rules and their formal inverses, so the graph
is undirected in effect; a backward search from the target just applies
the opposite signs.  The children of a configuration come from
machine.successors, imported here, in one pass over its compiled moves.
A breadth-first search does not try the step back along the edge that
reached a configuration: its child is the parent, which is already
recorded, so answers and explored counts are those of the full expansion.
Every breadth-first search, here and in encode.area_oracle, keeps each
side in one _Visited: a discovery log that maps each node's search key
to its place in discovery order and keeps, by place, its parent's place
and the label of the edge that reached it, and that holds the nodes of
its newest layer only (and of the layer before while the newest is
unfinished).  Each driver hands the log its key function: a
configuration's key is its state tuple and the letter tuples of its
tapes, shared with the configuration and packed in C; an area word's is
its letters.  The one-sided searches run on one driver, shortest.
_Visited and successors hold the determinism contract: rules are tried
in (name, sign) order and nodes logged in discovery order, so the
witness history found for a given query never changes between runs.

The meet searches to a machine's accept configuration share that
configuration's side: one log per machine, rooted there, kept in
_ACCEPT_SIDES while the machine lives and grown only as far as a query
reads it.  A log records where each layer starts, so a search reads it
as its first n places, as a fresh side would have grown them, and its
answer, witness and explored count are those of a fresh side; each
search still grows its own start side.  accepts, tm_of_config,
time_function(method="meet") and a meet_reach to that configuration read
it; any other target gets a side of its own.  The log holds at most the
largest accept side any meet search on the machine has read, so no more
than that search's max_nodes when it has one; a later search holds it
and its own start side at once, which may pass its own max_nodes.  It is
not thread-safe: meet searches on one machine from two threads at once
may corrupt it.
"""
from __future__ import annotations

import weakref
from collections import namedtuple
from itertools import islice
from operator import attrgetter
from typing import Callable, Iterator, Optional

from smforge.machine import (AdmissibleWord, Machine, MachineError,
                             accept_configuration, input_configuration,
                             successors)
from smforge.words import EMPTY, Word, atom, reduced_words

FOUND = "found"
UNREACHABLE = "unreachable"
BOUNDED = "bound-limited"


class ReachResult(namedtuple("ReachResult", "status history length explored",
                             defaults=(None, None, 0))):
    """Outcome of a reachability query.

    status is one of FOUND / UNREACHABLE / BOUNDED.  UNREACHABLE is a
    certificate: the whole component of the start was enumerated within
    the step bound and the target is not in it.  BOUNDED means the bound
    was hit first and nothing is certified either way.
    """

    __slots__ = ()

    @property
    def found(self) -> bool:
        return self.status == FOUND


def _history(path) -> Word:
    return Word([(atom(rule.name), sign) for rule, sign in path])


_letters = attrgetter("letters")


def _key(c: AdmissibleWord) -> tuple:
    """A configuration's search key: its state tuple and each tape's
    letter tuple, shared with the configuration and packed in C."""
    return (c.states, *map(_letters, c.tapes))


def _expand(m: Machine):
    """successors without the step back along the edge that reached c."""
    return lambda c, rule, sign: successors(m, c, rule and (rule, -sign))


class _Visited:
    """One side of a breadth-first search, as a discovery log, read and
    written only here.  key(node) is a node's search key, and place_of
    maps the key of each node reached to its place, the order it was
    first reached in (the root is place 0); parent_at, a_at and b_at
    hold, by place, the parent's place and the label (a, b) of the edge
    that reached the node, and starts the place where each layer begins,
    so depth, the number of layers begun, is len(starts) - 1.  frontier
    holds the nodes of the newest layer, which are the last len(frontier)
    places, so their keys are neither stored nor rebuilt.  While that
    layer is unfinished, parents holds the nodes of the layer before it;
    a walk stops only right after logging a node, so it resumes by
    expanding that node's parent again, whose children already logged
    are skipped.  A reader can take the log as its first n places, whole
    layers up to its own depth, the last one perhaps cut (within, width,
    layer)."""

    __slots__ = ("key", "place_of", "parent_at", "a_at", "b_at", "starts",
                 "frontier", "parents")

    def __init__(self, key, root):
        self.key, self.place_of = key, {key(root): 0}
        self.parent_at, self.a_at, self.b_at = [None], [None], [None]
        self.starts, self.frontier, self.parents = [0], [root], None

    @property
    def depth(self) -> int:
        return len(self.starts) - 1

    def __len__(self) -> int:
        return len(self.place_of)

    def within(self, key, n: int) -> bool:
        """Whether key is among the first n places."""
        return self.place_of.get(key, n) < n

    def width(self, d: int, n: int) -> int:
        """How many of the first n places lie in layer d, the last of them."""
        return n - self.starts[d]

    def path(self, key) -> list:
        """The (a, b) labels of the recorded edges from the root to key."""
        place, steps = self.place_of[key], []
        while place:
            steps.append((self.a_at[place], self.b_at[place]))
            place = self.parent_at[place]
        return steps[::-1]

    def layers(self, expand, max_steps: int, stop=None) -> Iterator[tuple]:
        """(key, child) for each node first reached, layer by layer in
        discovery order, until the frontier runs dry, max_steps layers
        have begun and are finished, or stop nodes are visited (checked
        before expanding); an unfinished layer is finished first.
        expand(node, a, b), given the label of the edge that reached the
        node (None, None at the root), yields (a, b, child): (rule, sign,
        configuration) or ((relator, position), word, word)."""
        key, index, a, b = self.key, self.place_of, self.a_at, self.b_at
        parent_at, starts, n = self.parent_at, self.starts, len(index)
        while stop is None or n < stop:
            if self.parents is None:
                if not self.frontier or len(starts) > max_steps:
                    return
                self.parents, self.frontier = self.frontier, []
                starts.append(n)
            first, fresh = starts[-2], self.frontier
            place = parent_at[-1] if n > starts[-1] else first
            for place, c in enumerate(islice(self.parents, place - first, None),
                                       place):
                for x, y, res in expand(c, a[place], b[place]):
                    if index.setdefault(k := key(res), n) == n:
                        n += 1
                        parent_at.append(place)
                        a.append(x)
                        b.append(y)
                        fresh.append(res)
                        yield k, res
                        if stop is not None and n >= stop:
                            return
            self.parents = None

    def layer(self, expand, d: int, stop=None) -> Iterator:
        """The keys of layer d in discovery order, up to place stop, for a
        reader that has read layer d - 1 whole: first those logged, then
        those the log grows."""
        if d <= self.depth:
            end = self.starts[d + 1] if d < self.depth else len(self.place_of)
            yield from islice(self.place_of, self.starts[d],
                              end if stop is None else min(end, stop))
            if d < self.depth or self.parents is None:
                return
        for k, _ in self.layers(expand, d, stop):
            yield k


def shortest(expand, key, start, tkey, max_steps: int,
             max_nodes: Optional[int] = None) -> tuple:
    """Breadth-first search from start for the node whose key(node) is
    tkey, as (status, path, depth, visited) with the path labels of a
    shortest route; UNREACHABLE if the frontier ran dry, BOUNDED if
    layers ran out."""
    seen = _Visited(key, start)
    reached = (k for k, _ in seen.layers(expand, max_steps, max_nodes))
    if seen.within(tkey, 1) or tkey in reached:
        return FOUND, seen.path(tkey), seen.depth, len(seen)
    return (BOUNDED if seen.frontier else UNREACHABLE), None, None, len(seen)


def bfs_reach(m: Machine, start: AdmissibleWord, target: AdmissibleWord,
              max_steps: int, max_nodes: Optional[int] = None) -> ReachResult:
    """Breadth-first search from start; shortest history to target.  It
    gives up, BOUNDED, after visiting max_nodes configurations."""
    status, path, depth, explored = shortest(
        _expand(m), _key, start, _key(target), max_steps, max_nodes)
    history = None if path is None else _history(path)
    return ReachResult(status, history, depth, explored)


def reachable_configs(m: Machine, start: AdmissibleWord,
                      max_steps: int) -> tuple[dict[AdmissibleWord, int], bool]:
    """All configurations within max_steps of start, with their distances.
    The flag reports whether the whole component was exhausted.  Every
    configuration in the dict lies on m's hardware, start too."""
    start = AdmissibleWord(m.hw, start.states, start.tapes)
    seen = _Visited(_key, start)
    dist = {start: 0}
    for _, res in seen.layers(_expand(m), max_steps):
        dist[res] = seen.depth
    return dist, not seen.frontier


# The accept side of every meet search on a machine, by machine: one log
# rooted at its accept configuration, grown only as far as a query reads it.
_ACCEPT_SIDES = weakref.WeakKeyDictionary()


def _target_side(m: Machine, target: AdmissibleWord, tkey) -> _Visited:
    """m's accept-side log when tkey is the key of m's accept
    configuration (its end states and empty tapes), else a new log
    rooted at target."""
    log = _ACCEPT_SIDES.get(m)
    if log is None:
        if tkey != (tuple([(p.end, 1) for p in m.parts]),
                    *[()] * (m.n_parts - 1)):
            return _Visited(_key, target)
        log = _ACCEPT_SIDES[m] = _Visited(_key, target)
    return log if log.within(tkey, 1) else _Visited(_key, target)


def meet_reach(m: Machine, start: AdmissibleWord, target: AdmissibleWord,
               max_steps: int, max_nodes: Optional[int] = None) -> ReachResult:
    """Bidirectional layered search.  Finds the exact minimal history
    length whenever it is at most max_steps; the witness history is some
    minimal one (deterministic, but not necessarily the one bfs_reach
    would return).  It gives up, BOUNDED, after visiting max_nodes
    configurations on both sides together; it always holds both ends, so
    it visits at least 2.  The target's side is read from m's accept-side
    log when target is the accept configuration, and that log keeps what
    this search grows of it, but the answer is that of a new side."""
    tkey = _key(target)
    if _key(start) == tkey:
        return ReachResult(FOUND, EMPTY, 0, 1)
    # fwd searches from start, back from target.  Each side is read as
    # its first seen[i] places, whole layers up to depth[i] but the last
    # one a budget cuts; the side whose last layer is narrower runs next,
    # and a tie runs fwd.
    sides = fwd, back = _Visited(_key, start), _target_side(m, target, tkey)
    depth, seen = [0, 0], [1, 1]

    def width(i):
        return sides[i].width(depth[i], seen[i])

    expand = _expand(m)
    meet = None
    try:
        while (meet is None and width(0) and width(1)
               and depth[0] + depth[1] < max_steps
               and (max_nodes is None or seen[0] + seen[1] < max_nodes)):
            i = int(width(1) < width(0))
            j = 1 - i
            stop = None if max_nodes is None else max_nodes - seen[j]
            depth[i] += 1
            for k in sides[i].layer(expand, depth[i], stop):
                seen[i] += 1
                # A meet in this layer has length depth[0] + depth[1]: k
                # cannot be shallower on the other side, or its parent
                # here would have met that side a layer earlier.
                if meet is None and sides[j].within(k, seen[j]):
                    meet = k
    except BaseException:
        _ACCEPT_SIDES.pop(m, None)  # a walk cut short may leave it half-logged
        raise
    explored = seen[0] + seen[1]
    if meet is None:
        status = BOUNDED if width(0) and width(1) else UNREACHABLE
        return ReachResult(status, explored=explored)
    # back's path leads target -> meet; inverted, it continues to target.
    history = _history(fwd.path(meet)) * _history(back.path(meet)).inverse()
    return ReachResult(FOUND, history, depth[0] + depth[1], explored)


# -- acceptance and time functions -----------------------------------------


def _search(method: str):
    """The search a method names: "bfs" or "meet"."""
    if method not in ("bfs", "meet"):
        raise MachineError(f"unknown search method {method!r}")
    return meet_reach if method == "meet" else bfs_reach


def tm_of_config(m: Machine, config: AdmissibleWord, bound: int,
                 method: str = "bfs", max_nodes: Optional[int] = None
                 ) -> ReachResult:
    """Length of a shortest computation from config to the accept
    configuration."""
    return _search(method)(m, config, accept_configuration(m), bound,
                           max_nodes)


def accepts(m: Machine, inputs, bound: int, method: str = "bfs",
            max_nodes: Optional[int] = None) -> ReachResult:
    return tm_of_config(m, input_configuration(m, inputs), bound, method,
                        max_nodes)


def enumerate_inputs(m: Machine, n: int, exact: bool = False) -> Iterator[tuple]:
    """Tuples of reduced input words, one per input sector, of total
    length <= n (== n if exact), in the order of the product of every
    sector's reduced_words up to n: each sector's words stop at the room
    the earlier ones left, which are a prefix of its words up to n as
    reduced_words is breadth-first.  The walk yields about what it visits."""
    def walk(inputs, room, sectors):
        if not sectors:
            if room == 0 or room > 0 and not exact:
                yield inputs
            return
        for w in reduced_words(m.sector_alphabets[sectors[0]], room):
            yield from walk(inputs + (w,), room - len(w), sectors[1:])
    yield from walk((), n, m.input_sectors)


# TM(n) over all accepted inputs of length <= n: values maps n to the
# longest minimal acceptance, complete maps n to False when some input
# search hit the bound without an answer (the value is then only a lower
# estimate), and rejected lists the input tuples not accepted.
TimeFunction = namedtuple("TimeFunction", "values complete rejected")


def time_function(m: Machine, n_max: int, bound: int, method: str = "bfs",
                  max_nodes: Optional[int] = None) -> TimeFunction:
    search = _search(method)
    values, complete, rejected = {}, {}, []
    best = 0
    all_complete = True
    for n in range(n_max + 1):
        for inputs in enumerate_inputs(m, n, exact=True):
            res = search(m, input_configuration(m, inputs),
                         accept_configuration(m), bound, max_nodes)
            if res.found:
                best = max(best, res.length)
            elif res.status == UNREACHABLE:
                rejected.append(inputs)
            else:
                all_complete = False
        values[n] = best
        complete[n] = all_complete
    return TimeFunction(values, complete, rejected)


def reduced_computations(m: Machine, start: AdmissibleWord, max_steps: int,
                         prune: Optional[Callable] = None
                         ) -> Iterator[tuple[tuple, AdmissibleWord]]:
    """Depth-first enumeration of every computation from start whose
    history is freely reduced and at most max_steps long, as (steps, end)
    pairs in pre-order; a negative max_steps yields ((), start) alone.
    steps is a tuple of (rule, sign).  prune(config, depth) may cut a
    branch after it is yielded.  The walk keeps a stack of frames, one
    per expanded node on the current path: its steps and an iterator over
    its successors.  A node is pruned or expanded right after it is
    yielded, and an expanded node's frame goes on top."""
    yield (), start
    if max_steps <= 0 or prune is not None and prune(start, 0):
        return
    stack = [((), iter(successors(m, start)))]
    while stack:
        steps, children = stack[-1]
        depth = len(steps) + 1
        for rule, sign, res in children:
            path = steps + ((rule, sign),)
            yield path, res
            if depth < max_steps and not (prune is not None
                                          and prune(res, depth)):
                stack.append((path, iter(successors(m, res, (rule, -sign)))))
                break
        else:
            stack.pop()
