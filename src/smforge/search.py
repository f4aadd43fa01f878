"""Reachability in the configuration graph of an S-machine.

Edges are applications of rules and their formal inverses, so the graph
is undirected in effect; a backward search from the target just applies
the opposite signs.  The children of a configuration come from
machine.successors, imported here, in one pass over its compiled moves.
A breadth-first search does not try the step back along the edge that
reached a configuration: its child is the parent, which is already
recorded, so answers and explored counts are those of the full expansion.
Every breadth-first search, here and in encode.area_oracle, keeps each
side in one _Visited, which owns the parent map, frontier and depth;
the one-sided ones run on one driver, shortest.  _Visited and
successors hold the determinism contract: rules are tried in (name,
sign) order and frontiers kept in insertion order, so the witness
history found for a given query never changes between runs.
"""
from __future__ import annotations

from collections import namedtuple
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


def _expand(m: Machine):
    """successors without the step back along the node's parent entry."""
    def expand(c, entry):
        return successors(m, c, entry and (entry[1], -entry[2]))
    return expand


class _Visited:
    """One side of a breadth-first search: the parent map, key -> (parent
    key, a, b) or None for the root, read and written only here; the
    frontier, (key, node) pairs in discovery order, so each node's key is
    computed once; and depth, the layers run."""

    __slots__ = ("parents", "frontier", "depth")

    def __init__(self, key, root):
        self.parents = {key: None}
        self.frontier = [(key, root)]
        self.depth = 0

    def __contains__(self, key) -> bool:
        return key in self.parents

    def __len__(self) -> int:
        return len(self.parents)

    def path(self, key) -> list:
        """The (a, b) labels of the recorded edges from the root to key."""
        parents, steps = self.parents, []
        while parents[key] is not None:
            key, a, b = parents[key]
            steps.append((a, b))
        return steps[::-1]

    def layers(self, expand, max_steps: int, stop=None) -> Iterator[tuple]:
        """(key, child) for each node first reached, layer by layer in
        discovery order, until the frontier runs dry, max_steps layers
        have run, or stop nodes are visited (checked before expanding).
        expand(node, its parent entry) yields (a, b, child): (rule, sign,
        configuration) or ((relator, position), word, word)."""
        parents = self.parents
        while self.frontier and self.depth < max_steps and (
                stop is None or len(parents) < stop):
            nxt = []
            frontier, self.frontier = self.frontier, nxt
            self.depth += 1
            for ckey, c in frontier:
                for a, b, res in expand(c, parents[ckey]):
                    k = res.key()
                    if k not in parents:
                        parents[k] = (ckey, a, b)
                        nxt.append((k, res))
                        yield k, res
                        if stop is not None and len(parents) >= stop:
                            return


def shortest(expand, start, tkey, max_steps: int,
             max_nodes: Optional[int] = None) -> tuple:
    """Breadth-first search from start for the node keyed tkey, as
    (status, path, depth, visited) with the path labels of a shortest
    route; UNREACHABLE if the frontier ran dry, BOUNDED if layers ran out."""
    skey = start.key()
    if skey == tkey:
        return FOUND, [], 0, 1
    seen = _Visited(skey, start)
    for k, _ in seen.layers(expand, max_steps, max_nodes):
        if k == tkey:
            return FOUND, seen.path(k), seen.depth, len(seen)
    return (BOUNDED if seen.frontier else UNREACHABLE), None, None, len(seen)


def bfs_reach(m: Machine, start: AdmissibleWord, target: AdmissibleWord,
              max_steps: int, max_nodes: Optional[int] = None) -> ReachResult:
    """Breadth-first search from start; shortest history to target.  It
    gives up, BOUNDED, after visiting max_nodes configurations."""
    status, path, depth, explored = shortest(
        _expand(m), start, target.key(), max_steps, max_nodes)
    history = None if path is None else _history(path)
    return ReachResult(status, history, depth, explored)


def reachable_configs(m: Machine, start: AdmissibleWord,
                      max_steps: int) -> tuple[dict[AdmissibleWord, int], bool]:
    """All configurations within max_steps of start, with their distances.
    The flag reports whether the whole component was exhausted.  Every
    configuration in the dict lies on m's hardware, start too."""
    start = AdmissibleWord(m.hw, start.states, start.tapes)
    seen = _Visited(start.key(), start)
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
    skey, tkey = start.key(), target.key()
    if skey == tkey:
        return ReachResult(FOUND, EMPTY, 0, 1)
    # fwd searches from start, back from target; a tie runs fwd (stable sort).
    expand = _expand(m)
    sides = fwd, back = _Visited(skey, start), _Visited(tkey, target)
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


def tm_of_config(m: Machine, config: AdmissibleWord, bound: int,
                 method: str = "bfs", max_nodes: Optional[int] = None
                 ) -> ReachResult:
    """Length of a shortest computation from config to the accept
    configuration."""
    if method not in ("bfs", "meet"):
        raise MachineError(f"unknown search method {method!r}")
    search = meet_reach if method == "meet" else bfs_reach
    return search(m, config, accept_configuration(m), bound, max_nodes)


def accepts(m: Machine, inputs, bound: int, method: str = "bfs",
            max_nodes: Optional[int] = None) -> ReachResult:
    return tm_of_config(m, input_configuration(m, inputs), bound, method,
                        max_nodes)


def enumerate_inputs(m: Machine, n: int, exact: bool = False) -> Iterator[tuple]:
    """Tuples of reduced input words, one per input sector, of total
    length <= n (== n if exact), in deterministic order."""
    alphabets = [m.sector_alphabets[s] for s in m.input_sectors]

    def rec(i, budget):
        if i == len(alphabets):
            if budget == 0 or budget > 0 and not exact:
                yield ()
            return
        for w in reduced_words(alphabets[i], budget):
            for rest in rec(i + 1, budget - len(w)):
                yield (w,) + rest

    yield from rec(0, n)


# TM(n) over all accepted inputs of length <= n: values maps n to the
# longest minimal acceptance, complete maps n to False when some input
# search hit the bound without an answer (the value is then only a lower
# estimate), and rejected lists the input tuples not accepted.
TimeFunction = namedtuple("TimeFunction", "values complete rejected")


def time_function(m: Machine, n_max: int, bound: int, method: str = "bfs",
                  max_nodes: Optional[int] = None) -> TimeFunction:
    values, complete, rejected = {}, {}, []
    best = 0
    all_complete = True
    for n in range(n_max + 1):
        for inputs in enumerate_inputs(m, n, exact=True):
            res = accepts(m, inputs, bound, method, max_nodes)
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
