"""Reachability in the configuration graph of an S-machine.

Edges are applications of rules and their formal inverses, so the graph
is undirected in effect; a backward search from the target just applies
the opposite signs.  The children of a configuration come from
machine.successors, imported here, in one pass over its compiled moves.
A breadth-first search does not try the step back along the edge that
reached a configuration: its child is the parent, which is already
recorded, so answers and explored counts are those of the full expansion.
Every breadth-first search, over configurations here and over words in
encode.area_oracle, runs on one layer step, _layer, and one parent walk,
_path; the one-sided ones on one driver, shortest.  Those and successors
hold the determinism contract: rules are tried in (name, sign) order and
frontiers kept in insertion order, so the witness history found for a
given query never changes between runs.
"""
from __future__ import annotations

from typing import Callable, Iterator, Optional

from smforge.machine import (AdmissibleWord, Machine, MachineError,
                             accept_configuration, input_configuration,
                             successors)
from smforge.words import EMPTY, Word, atom, reduced_words

FOUND = "found"
UNREACHABLE = "unreachable"
BOUNDED = "bound-limited"


class ReachResult:
    """Outcome of a reachability query.

    status is one of FOUND / UNREACHABLE / BOUNDED.  UNREACHABLE is a
    certificate: the whole component of the start was enumerated within
    the step bound and the target is not in it.  BOUNDED means the bound
    was hit first and nothing is certified either way.
    """

    def __init__(self, status, history=None, length=None, explored=0):
        self.status = status
        self.history = history
        self.length = length
        self.explored = explored

    @property
    def found(self) -> bool:
        return self.status == FOUND

    def __repr__(self):
        if self.found:
            return f"ReachResult(found, length={self.length})"
        return f"ReachResult({self.status}, explored={self.explored})"


def _path(parents, key) -> list:
    """The (a, b) labels of the recorded edges from the root to key."""
    steps = []
    while parents[key] is not None:
        key, a, b = parents[key]
        steps.append((a, b))
    return steps[::-1]


def _history(path) -> Word:
    return Word([(atom(rule.name), sign) for rule, sign in path])


def _expand(m: Machine):
    """successors as _layer expands a configuration: the step back along
    its parents entry (rule, sign), to the parent itself, is skipped."""
    def expand(c, entry):
        return successors(m, c, entry and (entry[1], -entry[2]))
    return expand


def _layer(expand, frontier, parents, stop=None) -> Iterator[tuple]:
    """One breadth-first layer: (key, child) for every node first reached
    from frontier, in discovery order; cut short once parents holds stop
    entries.  expand(node, entry), given the node's own parents entry,
    yields (a, b, child), recorded as parents[child key] = (node key, a,
    b): (rule, sign) for a configuration, ((relator, position), word) for
    an area word."""
    for c in frontier:
        ckey = c.key()
        for a, b, res in expand(c, parents[ckey]):
            k = res.key()
            if k not in parents:
                parents[k] = (ckey, a, b)
                yield k, res
                if stop is not None and len(parents) >= stop:
                    return


def shortest(expand, start, tkey, max_steps: int,
             max_nodes: Optional[int] = None) -> tuple:
    """Breadth-first search from start for the node keyed tkey, as
    (status, path, depth, visited) with the _path labels of a shortest
    route.  UNREACHABLE: the frontier ran dry within max_steps; BOUNDED:
    max_steps went by, or max_nodes nodes were visited before an expansion."""
    if start.key() == tkey:
        return FOUND, [], 0, 1
    parents = {start.key(): None}
    frontier = [start]
    for depth in range(1, max_steps + 1):
        if max_nodes is not None and len(parents) >= max_nodes:
            break
        nxt = []
        for k, res in _layer(expand, frontier, parents, max_nodes):
            if k == tkey:
                return FOUND, _path(parents, k), depth, len(parents)
            nxt.append(res)
        if not nxt:
            return UNREACHABLE, None, None, len(parents)
        frontier = nxt
    return BOUNDED, None, None, len(parents)


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
    expand = _expand(m)
    parents = {start.key(): None}
    dist = {start: 0}
    frontier = [start]
    for depth in range(1, max_steps + 1):
        frontier = [res for _, res in _layer(expand, frontier, parents)]
        if not frontier:
            return dist, True
        dist.update(dict.fromkeys(frontier, depth))
    return dist, False


def meet_reach(m: Machine, start: AdmissibleWord, target: AdmissibleWord,
               max_steps: int, max_nodes: Optional[int] = None) -> ReachResult:
    """Bidirectional layered search.  Finds the exact minimal history
    length whenever it is at most max_steps; the witness history is some
    minimal one (deterministic, but not necessarily the one bfs_reach
    would return).  It gives up, BOUNDED, after visiting max_nodes
    configurations on both sides together; it always holds both ends, so
    it visits at least 2."""
    if start.key() == target.key():
        return ReachResult(FOUND, EMPTY, 0, 1)
    # Index 0 searches forward from start, index 1 backward from target.
    expand = _expand(m)
    parents = ({start.key(): None}, {target.key(): None})
    frontiers = [[start], [target]]
    depths = [0, 0]
    meet = None
    while meet is None and all(frontiers) and sum(depths) < max_steps:
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        other = parents[1 - side]
        stop = None if max_nodes is None else max_nodes - len(other)
        if stop is not None and len(parents[side]) >= stop:
            break
        nxt = []
        for k, res in _layer(expand, frontiers[side], parents[side], stop):
            nxt.append(res)
            # A meet in this layer has length sum(depths) + 1: k cannot be
            # shallower on the other side, or its parent here would have
            # met that side a layer earlier.
            if meet is None and k in other:
                meet = k
        frontiers[side] = nxt
        depths[side] += 1
    explored = len(parents[0]) + len(parents[1])
    if meet is not None:
        # the backward half leads target -> meet; invert it to continue
        # meet -> target.
        history = (_history(_path(parents[0], meet))
                   * _history(_path(parents[1], meet)).inverse())
        return ReachResult(FOUND, history, sum(depths), explored)
    if not all(frontiers):
        return ReachResult(UNREACHABLE, explored=explored)
    return ReachResult(BOUNDED, explored=explored)


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
    alphabets = [sorted(m.sector_alphabets[s], key=lambda a: a.name)
                 for s in m.input_sectors]

    def rec(i, budget):
        if i == len(alphabets):
            if budget == 0 or budget > 0 and not exact:
                yield ()
            return
        for w in reduced_words(alphabets[i], budget):
            for rest in rec(i + 1, budget - len(w)):
                yield (w,) + rest

    yield from rec(0, n)


class TimeFunction:
    """TM(n) over all accepted inputs of length <= n.

    complete is False when some input search hit the bound without an
    answer, in which case value is only a lower estimate.
    """

    def __init__(self, values, complete, rejected):
        self.values = values          # n -> max minimal acceptance length
        self.complete = complete      # n -> bool
        self.rejected = rejected      # list of input tuples not accepted


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
    branch after it is yielded.  One flat stack holds the pending pairs,
    each node's children pushed in reverse so that the first pops first;
    a node is pruned or expanded right after it is yielded."""
    stack = [((), start)]
    while stack:
        steps, end = stack.pop()
        yield steps, end
        depth = len(steps)
        if depth < max_steps and not (prune is not None and prune(end, depth)):
            back = (steps[-1][0], -steps[-1][1]) if steps else None
            stack += [(steps + ((rule, sign),), res) for rule, sign, res
                      in reversed(successors(m, end, back))]
