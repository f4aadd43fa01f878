"""The host's speed, probed between queries, to time work on a shared host.

The benchmark runs on a few vCPUs of a shared machine that other
tenants interfere with, in bursts and in phases of seconds to tens of
minutes: the same smforge query takes up to twice as long in a bad
phase, in CPU time as in wall time, so no statistic of one run's raw
times is steady across runs.  A probe is the time of a fixed loop of
plain interpreter work (a free reduction on tuples, dicts and sets; no
smforge code), about 2 ms long.  Its fastest times are the same in every
phase (within 4% over 20 minutes on the reference host), while its mean
moves with the interference.

A timed interval is reported as its measured duration divided by the
host's slowdown over it: the mean time of the probes near it over
``REFERENCE_S``, the probe's interference-free time on the reference
host (2 vCPUs, Python 3.11).  The result estimates the interval's time
on that host without interference.  On the reference host, over 15
minutes of changing interference, 20 s means of the query times of
every workload moved as the probe's mean did (log-log slope 0.93-1.02);
dividing by the probe cut their spread from 0.32-0.35 to 0.04-0.07 (the
standard deviation of their logarithms).  The probe uses nothing the
benchmarked program can change, so a faster or slower program moves the
result in full.
"""
from __future__ import annotations

import bisect
import statistics
from time import perf_counter

REFERENCE_S = 0.0017   # the probe without interference, reference host
GAP_S = 0.02           # fewest seconds between two rounds of probes
ROUND = 3              # fewest probes per round
MAX_ROUND = 20         # most probes per round
WINDOW_S = 0.5         # probes this near an interval describe it

# A fixed word over five letters, and the inverse of each signed letter.
_WORD = [((i * 7) % 5, 1 if (i * 13) % 3 else -1) for i in range(4000)]
_INVERSE = {(a, e): (a, -e) for a in range(5) for e in (1, -1)}


def _probe_loop() -> int:
    """Free reduction of the fixed word on a stack, keeping every last
    window of three letters: the tuple, dict and set work of smforge."""
    stack, seen = [], set()
    for x in _WORD:
        if stack and stack[-1] == _INVERSE[x]:
            stack.pop()
        else:
            stack.append(x)
        seen.add(tuple(stack[-3:]))
    return len(seen)


class HostSpeed:
    """Probe times over a run, and the slowdown they give an interval."""

    def __init__(self):
        self.at: list[float] = []      # probe midpoints, increasing
        self.took: list[float] = []    # probe durations
        for _ in range(5):             # let the interpreter specialise it
            _probe_loop()
        self.probe(force=True)

    def probe(self, force: bool = False) -> None:
        """A round of probes, unless one ended less than GAP_S ago.  The
        longer since the last round, the more probes (one per 0.05 s,
        from ROUND to MAX_ROUND), so that a long query is described as
        well as a run of short ones."""
        since = perf_counter() - self.at[-1] if self.at else 1.0
        if not force and since < GAP_S:
            return
        for _ in range(min(MAX_ROUND, max(ROUND, round(since / 0.05)))):
            t0 = perf_counter()
            _probe_loop()
            t1 = perf_counter()
            self.at.append((t0 + t1) / 2)
            self.took.append(t1 - t0)

    def slowdown(self, start: float, end: float) -> float:
        """The host's mean slowdown over [start, end]: the mean of the
        probes within WINDOW_S of it, or of the nearest round on each
        side when fewer are that near, over REFERENCE_S."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if hi - lo < 2 * ROUND:
            lo = max(0, min(lo, bisect.bisect_left(self.at, start) - ROUND))
            hi = min(len(self.at), max(hi, bisect.bisect_right(self.at, end)
                                       + ROUND))
        return statistics.fmean(self.took[lo:hi]) / REFERENCE_S

    def normalize(self, start: float, end: float) -> float:
        """The interval's duration without the host's interference."""
        return (end - start) / self.slowdown(start, end)
