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
one layer only.  Each driver hands the log its key function: a
configuration's key is its state tuple and the letter tuples of its
tapes, shared with the configuration and packed in C; an area word's is
its letters.  The one-sided searches run on one driver, shortest.
_Visited and successors hold the determinism contract: rules are tried
in (name, sign) order and nodes logged in discovery order, so the
witness history found for a given query never changes between runs.
"""
from __future__ import annotations

from collections import namedtuple
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
    that reached the node.  frontier holds the nodes of the last layer
    run, which are the last len(frontier) places, so their keys are
    neither stored nor rebuilt; depth counts the layers run."""

    __slots__ = ("key", "place_of", "parent_at", "a_at", "b_at",
                 "frontier", "depth")

    def __init__(self, key, root):
        self.key, self.place_of = key, {key(root): 0}
        self.parent_at, self.a_at, self.b_at = [None], [None], [None]
        self.frontier, self.depth = [root], 0

    def __contains__(self, key) -> bool:
        return key in self.place_of

    def __len__(self) -> int:
        return len(self.place_of)

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
        have run, or stop nodes are visited (checked before expanding).
        expand(node, a, b), given the label of the edge that reached the
        node (None, None at the root), yields (a, b, child): (rule, sign,
        configuration) or ((relator, position), word, word)."""
        key, index, a, b = self.key, self.place_of, self.a_at, self.b_at
        while self.frontier and self.depth < max_steps and (
                stop is None or len(index) < stop):
            frontier, self.frontier = self.frontier, []
            self.depth += 1
            for place, c in enumerate(frontier, len(index) - len(frontier)):
                for x, y, res in expand(c, a[place], b[place]):
                    if (k := key(res)) not in index:
                        index[k] = len(index)
                        self.parent_at.append(place)
                        a.append(x)
                        b.append(y)
                        self.frontier.append(res)
                        yield k, res
                        if stop is not None and len(index) >= stop:
                            return


def shortest(expand, key, start, tkey, max_steps: int,
             max_nodes: Optional[int] = None) -> tuple:
    """Breadth-first search from start for the node whose key(node) is
    tkey, as (status, path, depth, visited) with the path labels of a
    shortest route; UNREACHABLE if the frontier ran dry, BOUNDED if
    layers ran out."""
    seen = _Visited(key, start)
    reached = (k for k, _ in seen.layers(expand, max_steps, max_nodes))
    if tkey in seen or tkey in reached:
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


def meet_reach(m: Machine, start: AdmissibleWord, target: AdmissibleWord,
               max_steps: int, max_nodes: Optional[int] = None) -> ReachResult:
    """Bidirectional layered search.  Finds the exact minimal history
    length whenever it is at most max_steps; the witness history is some
    minimal one (deterministic, but not necessarily the one bfs_reach
    would return).  It gives up, BOUNDED, after visiting max_nodes
    configurations on both sides together; it always holds both ends, so
    it visits at least 2."""
    # fwd searches from start, back from target; a tie runs fwd (stable sort).
    sides = fwd, back = _Visited(_key, start), _Visited(_key, target)
    if _key(target) in fwd:
        return ReachResult(FOUND, EMPTY, 0, 1)
    expand = _expand(m)
    meet = None
    while (meet is None and fwd.frontier and back.frontier
           and fwd.depth + back.depth < max_steps
           and (max_nodes is None or len(fwd) + len(back) < max_nodes)):
        here, there = sorted(sides, key=lambda side: len(side.frontier))
        stop = None if max_nodes is None else max_nodes - len(there)
        for k, _ in here.layers(expand, here.depth + 1, stop):
            # A meet in this layer has length fwd.depth + back.depth: k
            # cannot be shallower on the other side, or its parent here
            # would have met that side a layer earlier.
            if meet is None and k in there:
                meet = k
    explored = len(fwd) + len(back)
    if meet is None:
        status = BOUNDED if fwd.frontier and back.frontier else UNREACHABLE
        return ReachResult(status, explored=explored)
    # back's path leads target -> meet; inverted, it continues to target.
    history = _history(fwd.path(meet)) * _history(back.path(meet)).inverse()
    return ReachResult(FOUND, history, fwd.depth + back.depth, explored)


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
