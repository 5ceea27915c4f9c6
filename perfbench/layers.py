"""Per-layer measurement: exact work counters, host-time attribution, spans.

Everything here reads public counters of the program or wraps it from the
outside; nothing in ``src/`` is instrumented for the benchmark.

* :func:`snapshot` reads every per-layer work counter at one instant.  The
  benchmark takes one at the completion that opens the measurement window
  and one at the last completion; their difference is the window's work.
* :func:`host_time_by_layer` groups a cProfile run's self time by the
  ``repro`` package that defines each function.  Builtins and standard
  library functions (heapq, generator ``send``, ``random``) are charged to
  the package that called them, following pstats' caller records.
* :class:`SpanTracer` keeps one virtual-time span per op in memory: op
  name, client start and end, and the server phase split (queue, cpu,
  lock, net) of every server-side handler the op caused, all under one op
  id.  It propagates the op id through RPC argument identity, so it sees
  handlers the op reached directly or through nested server-to-server
  calls; background work (proactive pushes, pulls a read did not start)
  is charged to no op.
"""

from __future__ import annotations

import json
import os
import pstats
import re
from collections import defaultdict
from typing import Any, Dict, Generator, List, Optional

import repro
from repro.sim import PhaseStats

PHASES = ("queue", "cpu", "lock", "net")

# ---------------------------------------------------------------------------
# exact work counters
# ---------------------------------------------------------------------------

_COUNT_RE = re.compile(r"count\((\d+)")


def kernel_events(sim) -> int:
    """Events the kernel has scheduled so far, read without advancing."""
    return int(_COUNT_RE.match(repr(sim._counter)).group(1))


def snapshot(cluster, clients: List[int]) -> Dict[str, int]:
    """Every per-layer work counter the benchmark reports, at this instant."""
    servers = cluster.servers
    fss = [cluster.client(i) for i in clients]
    st = cluster.switch_stats()
    snap = {
        "events": kernel_events(cluster.sim),
        "packets": cluster.net.packets_sent,
        "retransmits": sum(s.node.retransmits for s in servers)
        + sum(fs.node.retransmits for fs in fss),
        "stale_inserts": st.inserts,
        "stale_queries": st.queries,
        "stale_overflows": st.insert_overflows,
        "cache_hits": st.cache_hits,
        "cache_misses": st.cache_misses,
        "cache_evictions": st.cache_evictions,
        "kv_puts": sum(s.kv.puts for s in servers),
        "kv_scans": sum(s.kv.scans for s in servers),
        "wal_appends": sum(s.wal.appends for s in servers),
    }
    for name in ("changelog_appends", "aggregations", "sync_fallbacks",
                 "unlock_watchdog_fires", "pull_watchdog_fires"):
        snap[name] = sum(s.counters.get(name) for s in servers)
    for name in ("cache_hits", "cache_misses", "switch_cache_hits",
                 "wrong_epoch_retries"):
        snap["client_" + name] = sum(fs.counters.get(name) for fs in fss)
    return snap


def window_counts(opened: Dict[str, int], closed: Dict[str, int]) -> Dict[str, int]:
    return {k: closed[k] - opened[k] for k in closed}


def layer_counts(work: Dict[str, int], phases: PhaseStats, ops: int) -> Dict[str, float]:
    """The per-layer work metrics of one measured window of *ops* ops."""
    probes = work["cache_hits"] + work["cache_misses"]
    client_probes = work["client_cache_hits"] + work["client_cache_misses"]
    aggs = work["aggregations"]
    out = {
        "sim.events_per_op": work["events"] / ops,
        "net.packets_per_op": work["packets"] / ops,
        "net.retransmits_per_op": work["retransmits"] / ops,
        "switchfab.stale_inserts_per_op": work["stale_inserts"] / ops,
        "switchfab.stale_queries_per_op": work["stale_queries"] / ops,
        "switchfab.stale_overflows": work["stale_overflows"],
        "switchfab.cache_hit_rate": work["cache_hits"] / probes if probes else 0.0,
        "switchfab.cache_probes": probes,
        "switchfab.cache_evictions_per_op": work["cache_evictions"] / ops,
        "kvstore.puts_per_op": work["kv_puts"] / ops,
        "kvstore.scans_per_op": work["kv_scans"] / ops,
        "kvstore.wal_appends_per_op": work["wal_appends"] / ops,
        "core.server.changelog_appends_per_op": work["changelog_appends"] / ops,
        "core.server.aggregations_per_op": aggs / ops,
        "core.server.appends_per_aggregation":
            work["changelog_appends"] / aggs if aggs else 0.0,
        "core.server.sync_fallbacks_per_op": work["sync_fallbacks"] / ops,
        "core.server.watchdog_fires":
            work["unlock_watchdog_fires"] + work["pull_watchdog_fires"],
        "core.client.cache_hit_rate":
            work["client_cache_hits"] / client_probes if client_probes else 0.0,
        "core.client.switch_served_frac": work["client_switch_cache_hits"] / ops,
        "core.client.wrong_epoch_retries": work["client_wrong_epoch_retries"],
    }
    for phase in PHASES:
        out[f"core.server.{phase}_us_per_op"] = phases.total(phase) / ops
    return out


# ---------------------------------------------------------------------------
# host time by layer (cProfile)
# ---------------------------------------------------------------------------

#: Reported host-time layers, in print order.  ``core.shared`` holds the
#: ``repro.core`` modules used by both sides (schema, change-log table,
#: membership, rename coordinator); ``bench`` is the harness (repro.bench
#: and this benchmark's op recorder); ``trace`` is the measurement
#: apparatus (span tracer, host-speed reference); ``other`` is what no
#: layer claims.
HOST_LAYERS = ("sim", "net", "switchfab", "kvstore", "core.server",
               "core.client", "core.shared", "workloads", "bench", "trace",
               "other")

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep
#: The measurement apparatus: this file's span tracer and the host-speed
#: reference that runs between chunks.
_APPARATUS = {os.path.abspath(__file__),
              os.path.join(os.path.dirname(os.path.abspath(__file__)), "hostspeed.py")}
_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def layer_of(filename: str) -> Optional[str]:
    """The layer a function's source file belongs to; None for foreign code."""
    if filename.startswith(_BENCH_DIR):
        return "trace" if os.path.abspath(filename) in _APPARATUS else "bench"
    if not filename.startswith(_REPRO_DIR):
        return None
    parts = filename[len(_REPRO_DIR):].split(os.sep)
    top = parts[0]
    if top in ("sim", "net", "switchfab", "kvstore", "workloads", "bench"):
        return top
    if top == "core":
        if parts[1] == "server":
            return "core.server"
        if parts[1] == "client.py":
            return "core.client"
        return "core.shared"
    return "other"


def host_time_by_layer(stats: pstats.Stats) -> Dict[str, float]:
    """Self seconds per layer; foreign functions charged to their callers."""
    table = stats.stats
    out: Dict[str, float] = defaultdict(float)

    def charge(func, seconds: float, depth: int) -> None:
        layer = layer_of(func[0])
        if layer is not None:
            out[layer] += seconds
            return
        entry = table.get(func)
        callers = entry[4] if entry else {}
        if not callers or depth > 32:
            out["other"] += seconds
            return
        # Split by the cumulative time spent in *func* on each caller's
        # behalf, or by call count when the profile timer saw none.
        weights = {c: v[3] for c, v in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {c: v[1] for c, v in callers.items()}
            total = sum(weights.values()) or 1
        for caller, weight in weights.items():
            charge(caller, seconds * weight / total, depth + 1)

    for func, (_cc, _nc, tt, _ct, callers) in table.items():
        if layer_of(func[0]) is not None:
            out[layer_of(func[0])] += tt
            continue
        # A foreign function's self time, split by the caller it ran for.
        if not callers:
            out["other"] += tt
            continue
        for caller, (_c, _n, caller_tt, _cum) in callers.items():
            charge(caller, caller_tt, 0)
    return {layer: out.get(layer, 0.0) for layer in HOST_LAYERS}


# ---------------------------------------------------------------------------
# per-op virtual-time spans
# ---------------------------------------------------------------------------


class _TracedPhases(PhaseStats):
    """A server's PhaseStats that also charges each phase to the current op."""

    def __init__(self, tracer: "SpanTracer"):
        super().__init__()
        self._tracer = tracer

    def add(self, phase: str, us: float) -> None:
        super().add(phase, us)
        self._tracer.charge(phase, us)

    def add_queue_cpu(self, queue_us: float, cpu_us: float) -> None:
        super().add_queue_cpu(queue_us, cpu_us)
        self._tracer.charge("queue", queue_us)
        self._tracer.charge("cpu", cpu_us)


class SpanTracer:
    """In-memory per-op spans in virtual time, written out at the end.

    ``run_as`` drives a generator so that :attr:`current` names its op on
    every resume; the simulator is single-threaded, so whatever code runs
    between two yields of that generator works for that op.  Handlers and
    RPC calls are wrapped on the cluster's objects, and a server's
    ``phases`` is swapped for a :class:`_TracedPhases`; the events every
    generator yields are passed through unchanged, so a traced run must
    give the same simulated results as an untraced one (the benchmark
    checks this).
    """

    def __init__(self):
        self.current: Optional[int] = None
        self.spans: List[List[Any]] = []
        self._args_op: Dict[int, int] = {}

    # -- client side ------------------------------------------------------
    def begin(self, op: str, start_us: float) -> int:
        self.spans.append([op, start_us, None, 0.0, 0.0, 0.0, 0.0])
        return len(self.spans) - 1

    def end(self, op_id: int, end_us: float) -> None:
        self.spans[op_id][2] = end_us

    def charge(self, phase: str, us: float) -> None:
        op_id = self.current
        if op_id is not None:
            self.spans[op_id][3 + PHASES.index(phase)] += us

    def run_as(self, gen: Generator, op_id: Optional[int]) -> Generator:
        value: Any = None
        exc: Optional[BaseException] = None
        while True:
            prev = self.current
            self.current = op_id
            try:
                target = gen.send(value) if exc is None else gen.throw(exc)
            except StopIteration as stop:
                return stop.value
            finally:
                self.current = prev
            try:
                value = yield target
                exc = None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as err:  # noqa: BLE001 - forwarded into gen
                value, exc = None, err

    # -- wiring -------------------------------------------------------------
    def attach(self, cluster, clients: List[int]) -> None:
        for server in cluster.servers:
            server.phases = _TracedPhases(self)
            node = server.node
            for method, handler in list(node._handlers.items()):
                node.register(method, self._handler(handler))
            self._wrap_calls(node)
        for idx in clients:
            self._wrap_calls(cluster.client(idx).node)

    def _handler(self, handler):
        def traced(request, packet):
            return self.run_as(handler(request, packet),
                               self._args_op.get(id(request.args)))
        return traced

    def _wrap_calls(self, node) -> None:
        for name in ("call", "multicast_call"):
            original = getattr(node, name)

            def wrapped(dst, method, args, *rest, _orig=original, **kw):
                op_id = self.current
                if op_id is None:
                    return (yield from _orig(dst, method, args, *rest, **kw))
                key = id(args)
                self._args_op[key] = op_id
                try:
                    return (yield from _orig(dst, method, args, *rest, **kw))
                finally:
                    self._args_op.pop(key, None)

            setattr(node, name, wrapped)

    def write(self, path: str, meta: Dict[str, Any]) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as out:
            out.write(json.dumps({"meta": meta, "fields": [
                "op_id", "op", "start_us", "end_us",
                *(f"server_{p}_us" for p in PHASES)]}) + "\n")
            for op_id, span in enumerate(self.spans):
                out.write(json.dumps([op_id, *span]) + "\n")

