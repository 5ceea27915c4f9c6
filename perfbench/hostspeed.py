"""Host-speed reference: a fixed pure-Python event loop timed in-process.

On a shared host the speed of one CPU drifts by +-20% over seconds to
minutes (other tenants share the cores, caches and memory bandwidth), and
a whole run of the benchmark can land in a slow or a fast spell.  The
benchmark therefore times a fixed reference workload right next to each
host-time measurement and reports host times at the *nominal* reference
speed: a duration ``d`` measured while the reference took ``r`` seconds is
reported as ``d * NOMINAL_S / r``.

The reference mimics the simulator's inner loop (generators resumed from
a heap, tuple allocation, dict stores) and uses no code from ``src/``, so
a change to the program moves the normalised numbers exactly as it moves
the raw ones, while a change in host speed moves both the measurement and
the reference.
"""

from __future__ import annotations

import heapq
import statistics
import time

#: Seconds one :func:`reference` call takes on the host the bounds were
#: set on (2-CPU x86_64 container, Python 3.11).  Only a scale: any value
#: gives the same relative changes.
NOMINAL_S = 0.0039

_EVENTS = 4_000
_PROCS = 64


def _proc(k: int):
    delay = k * 0.37 + 1.0
    while True:
        yield delay


def reference() -> float:
    """Seconds taken by one fixed run of the reference event loop."""
    t0 = time.perf_counter()
    procs = [_proc(k) for k in range(_PROCS)]
    heap = [(next(p), k, k) for k, p in enumerate(procs)]
    heapq.heapify(heap)
    table = {}
    seq = _PROCS
    for _ in range(_EVENTS):
        now, _seq, k = heapq.heappop(heap)
        delay = procs[k].send(now)
        table[(k, seq & 255)] = now
        heapq.heappush(heap, (now + delay, seq, k))
        seq += 1
    return time.perf_counter() - t0


def slowdown(repeats: int = 1) -> float:
    """Current host slowdown against nominal (>1 means slower than nominal)."""
    return statistics.median(reference() for _ in range(repeats)) / NOMINAL_S
