"""How fast the host runs right now, from a fixed piece of Python work.

On a shared virtual machine the same request can take 0.84 CPU-s in one
minute and 1.30 in the next: the host changes clock frequency, and its
other tenants compete for cache and memory bandwidth, in phases of
seconds to tens of seconds.  That drift is far larger than the changes
the benchmark must catch, and longer than a run.

:class:`HostSpeed` times a fixed calibration workload next to the
requests; a request's times are then scaled by ``REFERENCE_S`` over the
calibration time measured around it.  That removes most of the drift on
workloads whose speed follows the calibration's, and less on the others
(``README.md``, Host speed).
The calibration is independent of the planner, so a planner that gets
faster still reads faster.  It has two halves because the drift has two
sources: a dict loop that runs from the core's caches tracks the clock,
and a dependent walk over a 2^19-entry table (4 MB, larger than a
core's own caches) tracks cache and memory contention.
"""

from __future__ import annotations

import array
import time

import numpy as np

# calibration time at the reference speed (the median on a 2-vCPU
# Sapphire Rapids KVM guest); scaled times read as seconds on that host
REFERENCE_S = 0.05


class HostSpeed:
    """Calibration workload; :meth:`measure` returns its CPU time."""

    def __init__(self, entries: int = 1 << 19):
        # one random cycle through every slot: each step's load depends
        # on the previous one, so the walk waits on the memory system.
        # An array of machine ints, not a list, filled in place: the
        # table adds 4 MB to the measured process's peak_rss_mb.
        order = np.arange(entries, dtype=np.int32)
        np.random.default_rng(1).shuffle(order)
        self._next = array.array("q", [0]) * entries
        nxt = np.frombuffer(self._next, dtype=np.int64)
        nxt[order[:-1]] = order[1:]
        nxt[order[-1]] = order[0]
        del nxt  # release the buffer view of the table

    def measure(self) -> float:
        start = time.process_time()
        table: dict = {}
        total = 0
        for i in range(50_000):
            table[i & 1023] = i
            total += table.get((i * 7) & 1023, 0)
        nxt, i = self._next, 0
        for _ in range(400_000):
            i = nxt[i]
        return time.process_time() - start
