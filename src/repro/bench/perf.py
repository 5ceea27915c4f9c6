"""Wall-clock performance suites and the ``BENCH_*.json`` trajectory.

Everything else in the repo measures *virtual* time; this module measures
*wall-clock* time — how fast the simulation kernel itself executes on the
host.  :data:`SUITES` is the registry ``repro perf`` runs; each suite
records one trajectory file ``BENCH_<suite>.json`` under one rate key:

* **kernel** (``events_per_sec``) — microbenchmarks of the
  discrete-event kernel in :mod:`repro.sim.kernel` (timeout ping-pong,
  timer storms, process churn, uncontended resource handoffs, alias-table
  sampling).  Rates are *logical events per wall second*, where the
  logical event count of a workload is fixed by construction (yields
  executed by the workload's processes) and therefore comparable across
  kernel implementations even when an optimisation removes internal heap
  traffic.
* **rpc** (``ops_per_sec``) — microbenchmarks of the message datapath in
  :mod:`repro.net` (RPC ping-pong, multicast fan-out, notify storms,
  stale-set packets through the programmable switch); an operation is
  one completed RPC / notify / packet.
* **store** (``ops_per_sec``) — microbenchmarks of the server-side
  storage engine in :mod:`repro.kvstore` (put-heavy large-directory
  fill, put/delete churn, scan-after-writes merge amortisation, a
  create/statdir mix, and WAL bookkeeping churn); an operation is one
  put / delete / count / scan row / WAL record.
* **e2e** (``wall_ops_per_sec``) — whole-cluster points: a Fig 11-style
  `run_stream` point (SwitchFS create, one shared directory), the
  in-switch dentry-cache sweep, elastic scale-up/down, and the
  million-user fan-in curve.

Every point reports the min-wall entry of a fixed best-of count (see
:class:`Workload`).  Each trajectory file holds
``{"schema": 1, "suite": ..., "history": [entry, ...]}``; an entry
records a label (usually the PR), interpreter version, and the
per-workload measurements.  Re-recording an existing label replaces that
entry in place (re-runs do not grow the history).  :data:`PERF_BOUNDS`
is the CI gate over those files.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..sim import Lock, Simulator, Store
from .harness import RunResult, run_stream
from .sweep import make_cluster, scaled_config

__all__ = [
    "Workload",
    "Suite",
    "SUITES",
    "best_of",
    "record_entry",
    "load_trajectory",
    "trajectory_entry",
    "compare_rates",
    "profile_suite",
    "write_profile",
    "SUITE_RATE_KEYS",
    "Bound",
    "PERF_BOUNDS",
    "check_bound",
    "gate_regressions",
    "CACHE_GATE_WORKLOAD",
    "gate_cache_hit_rate",
    "gate_fanin_wall_growth",
]

SCHEMA_VERSION = 1

#: One result point: the per-workload dict recorded in a trajectory entry.
Entry = Dict[str, Any]
#: Result name -> a zero-argument run returning that point's entry.
Points = Dict[str, Callable[[], Entry]]


def best_of(n: int, run: Callable[[], Entry]) -> Entry:
    """Call *run* *n* times and keep the entry with the least wall time."""
    return min((run() for _ in range(n)), key=lambda e: e["wall_seconds"])


@dataclass(frozen=True)
class Workload:
    """One registry row of a suite.

    ``points(**kwargs)`` names the results the row produces and how to
    run each; the suite keeps the min-wall entry of ``best_of`` runs per
    point.  ``full`` and ``tiny`` are the kwargs at each scale.
    """

    points: Callable[..., Points]
    full: Dict[str, Any]
    tiny: Dict[str, Any]
    best_of: int


@dataclass(frozen=True)
class Suite:
    """One wall-clock suite: its trajectory file, rate key and workloads."""

    name: str
    rate_key: str
    title: str
    workloads: Tuple[Workload, ...]

    @property
    def filename(self) -> str:
        return f"BENCH_{self.name}.json"

    def run(self, scale: str = "full") -> Dict[str, Entry]:
        """Every point of every workload at *scale* ("full" or "tiny")."""
        results: Dict[str, Entry] = {}
        for w in self.workloads:
            kwargs = w.tiny if scale == "tiny" else w.full
            for name, run in w.points(**kwargs).items():
                results[name] = best_of(w.best_of, run)
        return results


def _single(name: str, run: Callable[..., Entry]) -> Callable[..., Points]:
    """``points`` for a workload that produces one result named *name*."""
    return lambda **kwargs: {name: partial(run, **kwargs)}


# ---------------------------------------------------------------------------
# kernel microbenchmarks
#
# Each workload returns (logical_events, wall_seconds), optionally followed
# by a dict of context columns from the same run.  The logical event count
# is the number of yields executed by the workload's processes — a property
# of the workload, not of the kernel's internal scheduling, so the rate
# stays comparable when the kernel learns to skip heap entries.
# ---------------------------------------------------------------------------


def _timed(fn: Callable[[], int]) -> Tuple[int, float]:
    t0 = time.perf_counter()
    events = fn()
    return events, time.perf_counter() - t0


def timeout_pingpong(rounds: int) -> Tuple[int, float]:
    """Two processes alternating over fresh events plus a timeout each.

    This is the canonical hot loop: every round costs two event waits and
    two timeouts (4 logical events), exercising event allocation, callback
    dispatch, and the heap.
    """

    def run() -> int:
        sim = Simulator()
        ping: List[Any] = [sim.event()]
        pong: List[Any] = [sim.event()]

        def left(sim):
            for _ in range(rounds):
                yield sim.timeout(1.0)
                pong[0].succeed()
                yield ping[0]
                ping[0] = sim.event()

        def right(sim):
            for _ in range(rounds):
                yield pong[0]
                pong[0] = sim.event()
                yield sim.timeout(1.0)
                ping[0].succeed()

        sim.spawn(left(sim))
        sim.spawn(right(sim))
        sim.run()
        return rounds * 4

    return _timed(run)


def timeout_storm(procs: int, rounds: int) -> Tuple[int, float]:
    """*procs* concurrent loopers, each yielding a fresh timeout per round."""

    def run() -> int:
        sim = Simulator()

        def looper(sim):
            for _ in range(rounds):
                yield sim.timeout(1.0)

        for _ in range(procs):
            sim.spawn(looper(sim))
        sim.run()
        return procs * rounds

    return _timed(run)


def spawn_churn(count: int) -> Tuple[int, float]:
    """Spawn *count* short-lived child processes from a parent loop.

    Exercises process boot (the seed kernel allocated a boot event per
    spawn) and process-completion events: 2 logical events per child.
    """

    def run() -> int:
        sim = Simulator()

        def child(sim):
            yield sim.timeout(0.5)
            return 1

        def parent(sim):
            for _ in range(count):
                yield sim.spawn(child(sim))

        sim.spawn(parent(sim))
        sim.run()
        return count * 2

    return _timed(run)


def weighted_sampling(
    universe: int, samples: int
) -> Tuple[int, float, Dict[str, float]]:
    """O(1) alias-table sampling over a Zipf weight vector.

    The measured rate is the precomputed :class:`~repro.sim.AliasTable`
    path the workload generators and the client-population engine use
    per op; the entry also records the legacy ``weighted_choice`` linear
    scan over the same vector (``linear_events_per_sec``) so the win is
    visible in one row.  Table construction is outside the timed region —
    it is paid once per stream, not per op.
    """
    from ..sim import AliasTable, make_rng, weighted_choice, zipf_weights

    weights = zipf_weights(universe, 0.99)
    items = list(range(universe))
    table = AliasTable(weights)

    rng = make_rng(7, "alias-bench")
    sample = table.sample
    t0 = time.perf_counter()
    for _ in range(samples):
        sample(rng)
    alias_wall = time.perf_counter() - t0

    rng = make_rng(7, "alias-bench")
    # The linear scan is O(universe) per draw; cap its sample count so
    # the comparison column costs bounded time at any universe size.
    linear_samples = min(samples, max(1, samples // max(1, universe // 64)))
    t0 = time.perf_counter()
    for _ in range(linear_samples):
        weighted_choice(items, weights, rng)
    linear_wall = time.perf_counter() - t0
    return samples, alias_wall, {
        "linear_events_per_sec": _rate(linear_samples, linear_wall)
    }


def uncontended_handoff(rounds: int) -> Tuple[int, float]:
    """Lock acquire/release and store put/get with no contention.

    The resource is always free and the store always has an item, so every
    wait is immediately grantable: 3 logical events per round (lock, store
    get, pacing timeout).
    """

    def run() -> int:
        sim = Simulator()
        lock = Lock(sim)
        store = Store(sim)

        def looper(sim):
            for i in range(rounds):
                yield lock.acquire()
                lock.release()
                store.put(i)
                yield store.get()
                yield sim.timeout(1.0)

        sim.spawn(looper(sim))
        sim.run()
        return rounds * 3

    return _timed(run)


#: Best-of count for every kernel, rpc and store workload.
MICRO_BEST_OF = 3


def _rate(count: int, wall: float) -> float:
    return round(count / wall, 1) if wall > 0 else float("inf")


def _micro_run(fn: Callable[..., Tuple[Any, ...]], rate_key: str, **kwargs: int) -> Entry:
    """One run of microbenchmark *fn*, returning ``(count, wall[, columns])``."""
    count, wall, *columns = fn(**kwargs)
    entry = {
        rate_key[: -len("_per_sec")]: count,
        "wall_seconds": round(wall, 6),
        rate_key: _rate(count, wall),
    }
    entry.update(*columns)
    return entry


def _micro_suite(
    name: str, rate_key: str, title: str,
    rows: Tuple[Tuple[Callable[..., Tuple[Any, ...]], Dict[str, int], Dict[str, int]], ...],
) -> Suite:
    """A suite of microbenchmarks, one ``(fn, full kwargs, tiny kwargs)``
    row each; a row's result is named after its function."""
    return Suite(name, rate_key, title, tuple(
        Workload(
            _single(fn.__name__, partial(_micro_run, fn, rate_key)),
            full, tiny, MICRO_BEST_OF,
        )
        for fn, full, tiny in rows
    ))


KERNEL = _micro_suite("kernel", "events_per_sec", "kernel events/sec", (
    (timeout_pingpong, {"rounds": 60_000}, {"rounds": 2_000}),
    (timeout_storm, {"procs": 200, "rounds": 600}, {"procs": 20, "rounds": 50}),
    (spawn_churn, {"count": 60_000}, {"count": 2_000}),
    (uncontended_handoff, {"rounds": 60_000}, {"rounds": 2_000}),
    (weighted_sampling,
     {"universe": 4_096, "samples": 400_000}, {"universe": 512, "samples": 20_000}),
))


# ---------------------------------------------------------------------------
# RPC / datapath microbenchmarks
#
# Each workload drives the real repro.net stack — RpcNode dispatch, packet
# construction, the Network fabric, and (for the stale-set workload) the
# ProgrammableSwitch pipeline — with trivial handlers, so the measured rate
# is the cost of the message path itself, not of any metadata logic.  The
# unit is one completed RPC / notify / switch-processed packet.
# ---------------------------------------------------------------------------


def _rpc_pair():
    from ..net import Network, PassthroughSwitch, RpcNode, single_rack_path

    sim = Simulator()
    net = Network(sim, single_rack_path([PassthroughSwitch()]))
    client = RpcNode(sim, net, "client")
    server = RpcNode(sim, net, "server")
    return sim, net, client, server


def rpc_pingpong(rounds: int) -> Tuple[int, float]:
    """Sequential request/response round trips with a blocking handler.

    The handler yields one service timeout, so every RPC exercises the
    full path: request packet, dispatch, handler suspension/resume,
    response packet, completion matching.
    """

    def run() -> int:
        sim, net, client, server = _rpc_pair()

        def echo(request, packet):
            yield sim.timeout(1.0)
            return request.args

        server.register("echo", echo)

        def driver():
            for i in range(rounds):
                yield from client.call("server", "echo", i)

        sim.spawn(driver(), name="driver")
        sim.run()
        return rounds

    return _timed(run)


def rpc_inline_echo(rounds: int) -> Tuple[int, float]:
    """Round trips against a handler that completes without blocking.

    The handler returns before its first yield, so an inline-dispatching
    RPC layer can finish the whole serve without spawning a process; a
    spawning layer pays full process boot per request.
    """

    def run() -> int:
        sim, net, client, server = _rpc_pair()

        def instant(request, packet):
            return request.args
            yield  # pragma: no cover - marks the handler as a generator

        server.register("echo", instant)

        def driver():
            for i in range(rounds):
                yield from client.call("server", "echo", i)

        sim.spawn(driver(), name="driver")
        sim.run()
        return rounds

    return _timed(run)


def rpc_multicast(fanout: int, rounds: int) -> Tuple[int, float]:
    """Scatter-gather fan-out: one multicast_call to *fanout* servers."""

    def run() -> int:
        from ..net import Network, PassthroughSwitch, RpcNode, single_rack_path

        sim = Simulator()
        net = Network(sim, single_rack_path([PassthroughSwitch()]))
        client = RpcNode(sim, net, "client")
        servers = [RpcNode(sim, net, f"s{i}") for i in range(fanout)]

        def ack(request, packet):
            yield sim.timeout(1.0)
            return "ok"

        for s in servers:
            s.register("ack", ack)
        dsts = [s.addr for s in servers]

        def driver():
            for _ in range(rounds):
                yield from client.multicast_call(dsts, "ack", None)

        sim.spawn(driver(), name="driver")
        sim.run()
        return rounds * fanout

    return _timed(run)


def rpc_notify_storm(rounds: int) -> Tuple[int, float]:
    """Fire-and-forget notifications with a one-yield handler."""

    def run() -> int:
        sim, net, client, server = _rpc_pair()
        seen = [0]

        def note(request, packet):
            yield sim.timeout(0.5)
            seen[0] += 1

        server.register("note", note)

        def driver():
            for i in range(rounds):
                client.notify("server", "note", i)
                yield sim.timeout(1.0)

        sim.spawn(driver(), name="driver")
        sim.run()
        assert seen[0] == rounds
        return rounds

    return _timed(run)


def staleset_packets(rounds: int) -> Tuple[int, float]:
    """Stale-set INSERT packets through the ProgrammableSwitch pipeline.

    Exercises the header codec, pipe routing, register actions, and the
    switch's completion/unlock multicast (two deliveries per insert).
    Fingerprints cycle over a fixed population well under capacity, so
    re-inserts are idempotent successes and the path never falls back.
    """

    def run() -> int:
        from ..net import (
            Network,
            Packet,
            STALESET_PORT,
            StaleSetHeader,
            StaleSetOp,
            single_rack_path,
        )
        from ..switchfab import ProgrammableSwitch, StaleSetConfig

        sim = Simulator()
        switch = ProgrammableSwitch(
            stale_config=StaleSetConfig(num_stages=4, index_bits=10)
        )
        switch.install_fingerprint_owner(lambda fp: "server")
        net = Network(sim, single_rack_path([switch]))
        server_in = net.attach("server")
        client_in = net.attach("client")

        def drain(box):
            while True:
                yield box.get()

        sim.spawn(drain(server_in), name="drain-server")
        sim.spawn(drain(client_in), name="drain-client")

        def sender():
            for i in range(rounds):
                idx = i % 1024
                header = StaleSetHeader(
                    op=StaleSetOp.INSERT, fingerprint=(idx << 32) | (idx + 1)
                )
                net.send(
                    Packet(
                        src="server", dst="client", payload=None,
                        port=STALESET_PORT, header=header, size_bytes=64,
                    )
                )
                yield sim.timeout(1.0)

        sim.spawn(sender(), name="sender")
        sim.run()
        return rounds

    return _timed(run)


RPC = _micro_suite("rpc", "ops_per_sec", "rpc/datapath ops/sec", (
    (rpc_pingpong, {"rounds": 20_000}, {"rounds": 1_000}),
    (rpc_inline_echo, {"rounds": 20_000}, {"rounds": 1_000}),
    (rpc_multicast, {"fanout": 8, "rounds": 2_500}, {"fanout": 4, "rounds": 150}),
    (rpc_notify_storm, {"rounds": 30_000}, {"rounds": 1_500}),
    (staleset_packets, {"rounds": 20_000}, {"rounds": 1_000}),
))


# ---------------------------------------------------------------------------
# storage-engine microbenchmarks
#
# Each workload drives the real repro.kvstore engine (KVStore + WAL) with the
# access patterns the metadata servers generate: entry-list puts under one
# hot directory, statdir-style prefix counts, readdir-style prefix scans, and
# WAL append/mark-applied bookkeeping.  The unit is one storage operation
# (put / delete / count / scanned row / WAL record), fixed by construction so
# rates compare across engine versions.  Key construction happens outside the
# timed region — the measured cost is the engine, not str formatting.
# ---------------------------------------------------------------------------


def _shuffled_entry_keys(n: int, dir_id: int = 1):
    """Deterministic non-monotonic insertion order (hash-partitioned names
    arrive in arbitrary lexicographic positions, the worst case for a
    sorted-insert index)."""
    step = 514229  # coprime to any n used here (fibonacci prime)
    return [("E", dir_id, f"f{(i * step) % n:08d}") for i in range(n)]


def store_put_heavy(entries: int) -> Tuple[int, float]:
    """Fill one large directory with *entries* puts in shuffled name order,
    then count and scan it once — the create-storm path under a hotspot."""
    from ..kvstore import KVStore

    keys = _shuffled_entry_keys(entries)
    kv = KVStore()
    t0 = time.perf_counter()
    put = kv.put
    for key in keys:
        put(key, None)
    count = kv.count_prefix(("E", 1))
    scanned = sum(1 for _ in kv.scan_prefix(("E", 1)))
    wall = time.perf_counter() - t0
    assert count == entries and scanned == entries
    return entries + 2, wall


def store_put_delete_churn(rounds: int) -> Tuple[int, float]:
    """Alternating put/delete across two directories: steady-state point-op
    cost including count-bookkeeping, with no net growth."""
    from ..kvstore import KVStore

    keys = [("E", 1 + (i & 1), f"f{i % 64:04d}") for i in range(rounds)]
    kv = KVStore()
    t0 = time.perf_counter()
    for key in keys:
        kv.put(key, None)
        kv.delete(key)
    wall = time.perf_counter() - t0
    return rounds * 2, wall


def store_scan_after_writes(rounds: int, writes: int) -> Tuple[int, float]:
    """*rounds* of (*writes* puts, then one full prefix scan) into a growing
    directory: readdir interleaved with creates, the merge-amortisation
    pattern."""
    from ..kvstore import KVStore

    kv = KVStore()
    total_scanned = 0
    t0 = time.perf_counter()
    for r in range(rounds):
        base = r * writes
        for i in range(writes):
            kv.put(("E", 1, f"f{base + i:08d}"), None)
        total_scanned += sum(1 for _ in kv.scan_prefix(("E", 1)))
    wall = time.perf_counter() - t0
    return rounds * writes + total_scanned, wall


def store_create_statdir_mix(ops: int) -> Tuple[int, float]:
    """Large-directory create/statdir mix: 3 entry puts per statdir-style
    count, plus an occasional readdir-style scan — the Fig-11 server-side
    storage profile."""
    from ..kvstore import KVStore

    keys = _shuffled_entry_keys(ops)
    kv = KVStore()
    t0 = time.perf_counter()
    for i, key in enumerate(keys):
        kv.put(key, None)
        if i % 4 == 3:
            kv.count_prefix(("E", 1))
        if i % 1024 == 1023:
            sum(1 for _ in kv.scan_prefix(("E", 1)))
    wall = time.perf_counter() - t0
    return ops, wall


def store_wal_bookkeeping(rounds: int, batch: int) -> Tuple[int, float]:
    """WAL churn: append a batch of change-log records, mark them applied,
    checkpoint — the aggregation-side bookkeeping cycle, through the
    batched WAL API."""
    from ..kvstore import WriteAheadLog

    wal = WriteAheadLog()
    payloads = [("dir", i) for i in range(batch)]
    t0 = time.perf_counter()
    for _ in range(rounds):
        wal.mark_applied_many(wal.append_many("changelog", payloads))
        wal.checkpoint()
    wall = time.perf_counter() - t0
    return rounds * batch, wall


STORE = _micro_suite("store", "ops_per_sec", "storage engine ops/sec", (
    (store_put_heavy, {"entries": 30_000}, {"entries": 2_000}),
    (store_put_delete_churn, {"rounds": 30_000}, {"rounds": 2_000}),
    (store_scan_after_writes, {"rounds": 150, "writes": 200}, {"rounds": 20, "writes": 40}),
    (store_create_statdir_mix, {"ops": 8_000}, {"ops": 600}),
    (store_wal_bookkeeping, {"rounds": 300, "batch": 200}, {"rounds": 30, "batch": 50}),
))


# ---------------------------------------------------------------------------
# end-to-end wall clock
#
# Each point builds a fresh SwitchFS cluster and returns one entry that
# carries the e2e rate key ``wall_ops_per_sec`` next to virtual-time columns.
# ---------------------------------------------------------------------------


def _run_entry(result: RunResult) -> Entry:
    """The columns every ``run_stream`` / ``run_fanin`` point reports."""
    wall = result.wall_seconds
    return {
        "ops": result.ops_completed,
        "wall_seconds": round(wall, 6),
        "wall_ops_per_sec": round(result.ops_completed / wall, 1) if wall else 0.0,
        "sim_throughput_kops": round(result.throughput_kops, 2),
        "mean_latency_us": round(result.mean_latency_us, 3),
    }


def fig11_hotspot_create(total_ops: int, inflight: int, num_servers: int) -> Entry:
    """Wall-clock ops/sec for the Fig 11 hotspot-create benchmark point."""
    from ..workloads import FixedOpStream, bootstrap, single_large_directory

    cluster = make_cluster("SwitchFS", scaled_config(num_servers=num_servers))
    pop = bootstrap(
        cluster, single_large_directory(total_ops + 200), warm_clients=[0]
    )
    stream = FixedOpStream("create", pop, seed=17, dir_choice="single")
    return _run_entry(run_stream(
        cluster, stream, total_ops=total_ops, inflight=inflight, op_label="create"
    ))


def _fanin_arm_name(users: int) -> str:
    if users >= 1_000_000 and users % 1_000_000 == 0:
        return f"fanin_{users // 1_000_000}m_users"
    if users >= 1_000 and users % 1_000 == 0:
        return f"fanin_{users // 1_000}k_users"
    return f"fanin_{users}_users"


def fanin_arm(
    users: int,
    total_ops: int,
    num_servers: int,
    files: int,
    offered_load_ops: float,
    aggregates: int,
    with_scaleup: bool = False,
) -> Entry:
    """One arm of the open-loop fan-in curve: wall cost at *users*.

    A stat hotspot over a warm directory, Zipf-weighted users multiplexed
    over a few aggregate processes.  With *with_scaleup* a server joins
    mid-run — exercising the per-user cache-epoch catch-up path at full
    fan-in.  ``setup_wall_seconds`` carries the O(users) table build so
    the gated run cost stays load-bound.
    """
    from ..workloads import (
        FixedOpStream,
        bootstrap,
        run_fanin,
        single_large_directory,
    )

    t0 = time.perf_counter()
    cluster = make_cluster("SwitchFS", scaled_config(num_servers=num_servers))
    pop = bootstrap(
        cluster,
        single_large_directory(files),
        warm_clients=list(range(aggregates)),
    )

    def make_stream(a: int):
        return FixedOpStream("stat", pop, seed=17 + a, dir_choice="single")

    extra = None
    events: Dict[str, Any] = {}
    if with_scaleup:
        sim = cluster.sim
        # Expected run length is total_ops / offered_load; join at
        # the half-way mark so the epoch bump lands mid-window.
        half_us = 0.5 * total_ops / offered_load_ops * 1e6

        def controller():
            yield sim.timeout(half_us)
            events["scale_up"] = yield from cluster.scale_up_gen()

        extra = [controller()]
    result = run_fanin(
        cluster,
        make_stream,
        users=users,
        offered_load_ops=offered_load_ops,
        total_ops=total_ops,
        aggregates=aggregates,
        seed=42,
        extra_procs=extra,
    )
    t1 = time.perf_counter()
    entry = _run_entry(result)
    entry.update({
        "users": users,
        "aggregates": aggregates,
        "offered_load_ops": offered_load_ops,
        "achieved_load_ops": round(result.throughput_ops, 1),
        "setup_wall_seconds": round(max(0.0, (t1 - t0) - result.wall_seconds), 6),
        "p99_latency_us": round(result.p99_latency_us(), 3),
        "peak_inflight": result.inflight,
        "active_users": sum(
            p["active_users"] for p in result.populations.values()
        ),
        "epoch_catchups": sum(
            p["epoch_catchups"] for p in result.populations.values()
        ),
    })
    up = events.get("scale_up")
    if up is not None:
        entry["final_epoch"] = up["epoch"]
        entry["migrated_keys"] = up["migrated_keys"]
    return entry


def _fanin_points(users: List[int], **params: Any) -> Points:
    """One arm per population size plus ``fanin_scaleup`` at the largest."""
    points = {_fanin_arm_name(u): partial(fanin_arm, u, **params) for u in users}
    points["fanin_scaleup"] = partial(
        fanin_arm, max(users), with_scaleup=True, **params
    )
    return points


#: arm -> FSConfig overrides.  "small" deliberately under-provisions the
#: cache (32 lines/pipe < the file population) so replacement churn shows
#: up in the sweep; "large" covers the population with room to spare.
SWITCH_CACHE_ARMS: Dict[str, Dict[str, Any]] = {
    "off": {},
    "small": {
        "switch_cache": True,
        "switch_cache_stages": 2,
        "switch_cache_index_bits": 4,
    },
    "large": {
        "switch_cache": True,
        "switch_cache_stages": 4,
        "switch_cache_index_bits": 10,
    },
}

#: A stat hotspot (every op is a cache-eligible file lookup) and the DCS
#: production mix (Table 1: ~65% open/stat reads plus the full mutation
#: surface, so the coherence/eviction path is on the measured path).
SWITCH_CACHE_WORKLOADS = ("hotspot_stat", "dcs_mix")


def switch_cache_point(
    workload: str,
    arm: str,
    total_ops: int,
    inflight: int,
    num_servers: int,
    files: int,
) -> Entry:
    """One (workload × arm) point of the stale-set-only vs cache+stale-set
    sweep.

    Every point gets a fresh cluster; "off" is the stale-set-only
    baseline (``switch_cache=False``, the default), so the entries double
    as the Fig 11-style evidence that serving hot lookups from the
    pipeline beats forwarding them on read/stat-heavy mixes.  Entries add
    the windowed switch counters and the hit rate.
    """
    from ..workloads import (
        DATA_CENTER_SERVICES_MIX,
        FixedOpStream,
        MixStream,
        bootstrap,
        single_large_directory,
    )

    cluster = make_cluster(
        "SwitchFS",
        scaled_config(num_servers=num_servers, **SWITCH_CACHE_ARMS[arm]),
    )
    pop = bootstrap(cluster, single_large_directory(files), warm_clients=[0])
    if workload == "hotspot_stat":
        stream = FixedOpStream("stat", pop, seed=17, dir_choice="single")
    else:
        stream = MixStream(DATA_CENTER_SERVICES_MIX, pop, seed=17, data_enabled=False)
    result = run_stream(
        cluster, stream, total_ops=total_ops, inflight=inflight, op_label=workload
    )
    entry = _run_entry(result)
    entry["cache_hit_rate"] = round(result.switch_cache_hit_rate, 4)
    for key, value in result.switch_cache.items():
        entry[f"cache_{key}"] = value
    return entry


def _switch_cache_points(**params: Any) -> Points:
    return {
        f"switch_cache_{workload}_{arm}": partial(
            switch_cache_point, workload, arm, **params
        )
        for workload in SWITCH_CACHE_WORKLOADS
        for arm in SWITCH_CACHE_ARMS
    }


_ELASTICITY_TIMELINE_BUCKETS = 20


def elasticity_scale_up_down(total_ops: int, inflight: int, num_servers: int) -> Entry:
    """Throughput during elastic scale-up/down plus the migration stall.

    A fixed-in-flight create stream runs against a shared directory; at
    one third of completions a server joins (live shard migration in),
    at two thirds the joiner leaves again.  Clients ride through both
    epoch bumps on stale views, so the WrongEpoch redirect path is on
    the measured path.  The entry reports wall-clock rate like the
    other e2e points plus a virtual-time throughput timeline and the
    per-transition drain/stall breakdown for the elasticity figure.
    """
    from ..sim import AllOf
    from ..workloads import FixedOpStream, bootstrap, single_large_directory

    cluster = make_cluster("SwitchFS", scaled_config(num_servers=num_servers))
    sim = cluster.sim
    pop = bootstrap(cluster, single_large_directory(total_ops + 200), warm_clients=[0])
    stream = FixedOpStream("create", pop, seed=17, dir_choice="single")
    state = {"issued": 0, "completed": 0}
    completions: List[float] = []
    events: Dict[str, Any] = {}

    def worker():
        fs = cluster.client(0)
        while state["issued"] < total_ops:
            state["issued"] += 1
            thunk = stream.take()
            yield from thunk(fs)
            state["completed"] += 1
            completions.append(sim.now)

    def controller():
        while state["completed"] < total_ops // 3:
            yield sim.timeout(50.0)
        events["scale_up_at_us"] = sim.now
        events["scale_up"] = yield from cluster.scale_up_gen()
        while state["completed"] < (2 * total_ops) // 3:
            yield sim.timeout(50.0)
        events["scale_down_at_us"] = sim.now
        events["scale_down"] = yield from cluster.scale_down_gen(
            cluster.servers[-1].addr
        )

    def join(procs):
        yield AllOf(sim, procs)

    start = sim.now
    wall0 = time.time()
    procs = [
        sim.spawn(worker(), name=f"elastic-worker-{w}")
        for w in range(inflight)
    ]
    procs.append(sim.spawn(controller(), name="elastic-controller"))
    sim.run_process(sim.spawn(join(procs), name="elastic-join"))
    wall = time.time() - wall0

    end = completions[-1] if completions else sim.now
    elapsed = max(end - start, 1e-9)
    width = elapsed / _ELASTICITY_TIMELINE_BUCKETS
    buckets = [0] * _ELASTICITY_TIMELINE_BUCKETS
    for t in completions:
        idx = min(int((t - start) / width), _ELASTICITY_TIMELINE_BUCKETS - 1)
        buckets[idx] += 1
    up, down = events["scale_up"], events["scale_down"]
    client = cluster.client(0)
    return {
        "ops": total_ops,
        "wall_seconds": round(wall, 6),
        "wall_ops_per_sec": round(total_ops / wall, 1) if wall else 0.0,
        "sim_elapsed_us": round(elapsed, 3),
        "sim_throughput_kops": round(total_ops / elapsed * 1000.0, 2),
        "final_epoch": down["epoch"],
        # drain_us together with drain_groups: 0.0 us over 0 groups means
        # the moving shards had nothing pending (a measured no-op, the
        # common case for a single-hot-directory workload whose group does
        # not move), not an unmeasured drain.
        "scale_up_at_us": round(events["scale_up_at_us"] - start, 3),
        "scale_up_drain_us": round(up["drain_us"], 3),
        "scale_up_drain_groups": up["drain_groups"],
        "scale_up_stall_us": round(up["stall_us"], 3),
        "scale_down_at_us": round(events["scale_down_at_us"] - start, 3),
        "scale_down_drain_us": round(down["drain_us"], 3),
        "scale_down_drain_groups": down["drain_groups"],
        "scale_down_stall_us": round(down["stall_us"], 3),
        "migrated_keys": up["migrated_keys"] + down["migrated_keys"],
        "wrong_epoch_retries": client.counters.get("wrong_epoch_retries"),
        "timeline_bucket_us": round(width, 3),
        "timeline_kops": [
            round(n / width * 1000.0, 2) for n in buckets
        ],
    }


E2E = Suite("e2e", "wall_ops_per_sec", "end-to-end wall clock", (
    # Fig 11(a)-style point: create into one shared directory.
    Workload(
        _single("fig11_hotspot_create", fig11_hotspot_create),
        full={"total_ops": 4000, "inflight": 64, "num_servers": 8},
        tiny={"total_ops": 300, "inflight": 16, "num_servers": 2},
        best_of=2,
    ),
    # Design-space sweep for the in-switch dentry cache.
    Workload(
        _switch_cache_points,
        full={"total_ops": 4000, "inflight": 64, "num_servers": 8, "files": 512},
        tiny={"total_ops": 300, "inflight": 16, "num_servers": 2, "files": 48},
        best_of=1,
    ),
    # Hotspot creates riding through a mid-run join and leave.
    Workload(
        _single("elasticity_scale_up_down", elasticity_scale_up_down),
        full={"total_ops": 4000, "inflight": 64, "num_servers": 4},
        tiny={"total_ops": 300, "inflight": 16, "num_servers": 2},
        best_of=1,
    ),
    # Fan-in scaling curve for the open-loop client-population engine
    # (DESIGN.md §16): the logical user count sweeps an order of
    # magnitude or three while the *offered load* stays fixed, so flat
    # wall cost across the arms is the claim under test — the engine's
    # run cost is O(offered load), not O(users).  The 10K-vs-100K wall
    # ratio feeds an absolute CI gate, so per-arm noise matters more
    # here than in the other e2e points: best of 2.
    Workload(
        _fanin_points,
        full={
            "total_ops": 4000,
            "num_servers": 8,
            "files": 512,
            "users": [10_000, 100_000, 1_000_000],
            "offered_load_ops": 200_000.0,
            "aggregates": 4,
        },
        tiny={
            "total_ops": 240,
            "num_servers": 2,
            "files": 48,
            "users": [10_000, 100_000],
            "offered_load_ops": 100_000.0,
            "aggregates": 2,
        },
        best_of=2,
    ),
))

#: The registry ``repro perf`` runs, in run order.
SUITES: Dict[str, Suite] = {s.name: s for s in (KERNEL, RPC, STORE, E2E)}

#: suite -> the rate key its entries report
SUITE_RATE_KEYS = {name: suite.rate_key for name, suite in SUITES.items()}


# ---------------------------------------------------------------------------
# trajectory files
# ---------------------------------------------------------------------------


def load_trajectory(path: str, suite: str) -> Dict[str, Any]:
    if os.path.exists(path):
        with open(path) as f:
            data = json.load(f)
        if data.get("schema") != SCHEMA_VERSION:
            raise ValueError(f"{path}: unsupported schema {data.get('schema')!r}")
        return data
    return {"schema": SCHEMA_VERSION, "suite": suite, "history": []}


def record_entry(
    path: str,
    suite: str,
    results: Dict[str, Dict[str, float]],
    label: str,
    scale: str = "full",
) -> Dict[str, Any]:
    """Append (or replace, by label) one trajectory entry and write *path*."""
    data = load_trajectory(path, suite)
    entry: Dict[str, Any] = {
        "label": label,
        "scale": scale,
        "python": platform.python_version(),
        "machine": platform.machine(),
        # Wall-clock rates only compare within one machine class; the
        # core count lets `repro compare` warn on cross-machine deltas.
        "host_cpus": os.cpu_count() or 1,
        "results": results,
    }
    history = [e for e in data["history"] if e.get("label") != label]
    history.append(entry)
    data["history"] = history
    with open(path, "w") as f:
        json.dump(data, f, indent=2, sort_keys=False)
        f.write("\n")
    return entry


def trajectory_entry(path: str, suite: str, label: str) -> Optional[Dict[str, Any]]:
    """*label*'s entry in the trajectory file *path*, or None when the
    file or the label is absent."""
    if not os.path.exists(path):
        return None
    by_label = {e["label"]: e for e in load_trajectory(path, suite)["history"]}
    return by_label.get(label)


def compare_rates(
    old: Dict[str, Any], new: Dict[str, Any], rate_key: str
) -> Dict[str, float]:
    """Speedup of entry *new* over entry *old* per workload (new rate / old rate)."""
    out: Dict[str, float] = {}
    for name, res in new["results"].items():
        if name in old["results"] and old["results"][name].get(rate_key):
            out[name] = round(res[rate_key] / old["results"][name][rate_key], 3)
    return out


# ---------------------------------------------------------------------------
# regression gate (CI perf-smoke)
# ---------------------------------------------------------------------------


def gate_regressions(
    path: str,
    suite: str,
    baseline: str,
    label: str,
    max_regression: float = 0.25,
) -> Optional[List[str]]:
    """Compare *label*'s rates against *baseline* in one trajectory file.

    Returns a list of human-readable failure strings — one per workload
    whose rate dropped by more than ``max_regression`` (fraction) below
    the baseline — or ``None`` when the gate cannot run (missing file,
    missing baseline/label entry, or mismatched scales; callers treat
    None as "skip with a warning", never as a pass).

    Wall-clock rates are machine-dependent, so a committed baseline only
    gates runs on comparable hardware; the generous default tolerance
    (25%) absorbs run-to-run noise, not hardware deltas.
    """
    old = trajectory_entry(path, suite, baseline)
    new = trajectory_entry(path, suite, label)
    if old is None or new is None or old.get("scale") != new.get("scale"):
        return None
    rate_key = SUITE_RATE_KEYS[suite]
    failures: List[str] = []
    for name, res in new["results"].items():
        base = old["results"].get(name)
        if not base or not base.get(rate_key) or rate_key not in res:
            continue
        ratio = res[rate_key] / base[rate_key]
        if ratio < 1.0 - max_regression:
            failures.append(
                f"{suite}/{name}: {res[rate_key]:,.0f} {rate_key} is "
                f"{ratio:.2f}x of baseline {base[rate_key]:,.0f} "
                f"(allowed >= {1.0 - max_regression:.2f}x)"
            )
    return failures


#: the sweep point the cache-effectiveness gate inspects: the stat
#: hotspot with the fully provisioned cache, where a healthy cache must
#: convert most probes into switch-served replies.
CACHE_GATE_WORKLOAD = "switch_cache_hotspot_stat_large"


def gate_cache_hit_rate(
    path: str,
    label: str,
    min_hit_rate: float = 0.5,
    workload: str = CACHE_GATE_WORKLOAD,
) -> Optional[List[str]]:
    """Check that *label*'s cache sweep achieved a minimum hit rate.

    Unlike :func:`gate_regressions` this is an absolute functional gate,
    not a relative wall-clock one: the hit rate on the hotspot workload
    is a property of the protocol (deterministic virtual-time run), so a
    drop means the cache datapath broke, not that the machine got slower.
    Returns failure strings, ``[]`` on pass, or ``None`` when the entry
    or workload is absent (callers warn and skip).
    """
    entry = trajectory_entry(path, "e2e", label)
    point = entry["results"].get(workload) if entry is not None else None
    if point is None or "cache_hit_rate" not in point:
        return None
    rate = point["cache_hit_rate"]
    if rate < min_hit_rate:
        return [
            f"e2e/{workload}: cache_hit_rate {rate:.3f} below the "
            f"required minimum {min_hit_rate:.2f}"
        ]
    return []


def gate_fanin_wall_growth(
    path: str,
    label: str,
    max_growth: float = 1.5,
    small: str = "fanin_10k_users",
    large: str = "fanin_100k_users",
) -> Optional[List[str]]:
    """Check that fan-in wall cost stays flat as the user count grows.

    Like :func:`gate_cache_hit_rate` this is an absolute gate within one
    entry, not a cross-entry wall-clock comparison: the *small* and
    *large* fan-in arms ran the same offered load on the same machine in
    the same process, so their wall ratio is a property of the engine —
    growth beyond ``max_growth`` means per-op cost picked up an O(users)
    term.  Returns failure strings, ``[]`` on pass, or ``None`` when the
    entry or either arm is absent (callers warn and skip).
    """
    entry = trajectory_entry(path, "e2e", label)
    if entry is None:
        return None
    s, l = entry["results"].get(small), entry["results"].get(large)
    if not s or not l or not s.get("wall_seconds") or not l.get("wall_seconds"):
        return None
    ratio = l["wall_seconds"] / s["wall_seconds"]
    if ratio > max_growth:
        return [
            f"e2e/{large}: wall {l['wall_seconds']:.4f}s is {ratio:.2f}x of "
            f"{small} ({s['wall_seconds']:.4f}s) at the same offered load "
            f"(allowed <= {max_growth:.2f}x — run cost must be O(load), "
            f"not O(users))"
        ]
    return []


@dataclass(frozen=True)
class Bound:
    """One row of the CI perf gate that ``check_regression.py`` iterates.

    ``check`` names the rule applied to ``BENCH_<suite>.json``:
    ``wall_drop`` is :func:`gate_regressions` (fails a workload whose
    rate fell more than ``limit``, a fraction, below the baseline entry),
    ``hit_rate_floor`` is :func:`gate_cache_hit_rate` (an absolute floor),
    and ``wall_growth`` is :func:`gate_fanin_wall_growth` (a ratio cap
    within one entry).
    """

    name: str
    check: str
    suite: str
    limit: float


PERF_BOUNDS: Tuple[Bound, ...] = tuple(
    Bound(name, "wall_drop", name, 0.25) for name in SUITES
) + (
    Bound("cache-hit-rate", "hit_rate_floor", "e2e", 0.5),
    Bound("fanin-wall-growth", "wall_growth", "e2e", 1.5),
)


def check_bound(
    bound: Bound, bench_dir: str, baseline: str, label: str
) -> Optional[List[str]]:
    """Apply *bound* to the trajectory files under *bench_dir*.

    Returns failure strings, ``[]`` on pass, or ``None`` when the gate
    has nothing to compare (callers warn and skip).
    """
    path = os.path.join(bench_dir, SUITES[bound.suite].filename)
    if bound.check == "wall_drop":
        return gate_regressions(path, bound.suite, baseline, label, bound.limit)
    if bound.check == "hit_rate_floor":
        return gate_cache_hit_rate(path, label, bound.limit)
    return gate_fanin_wall_growth(path, label, bound.limit)


# ---------------------------------------------------------------------------
# profiling (``repro perf --profile``)
# ---------------------------------------------------------------------------


def _profile_func_id(path: str, line: int, name: str) -> str:
    """Compact ``module.py:line(name)`` id for a pstats function key."""
    if path == "~":  # built-in: pstats spells these ("~", 0, "<...>")
        return name
    return f"{os.path.basename(path)}:{line}({name})"


def profile_suite(
    fn: Callable[..., Any], *args: Any, top: int = 15, **kwargs: Any
) -> Tuple[Any, Dict[str, Any]]:
    """Run ``fn(*args, **kwargs)`` under :mod:`cProfile`.

    Returns ``(result, report)`` where *report* holds the ``top`` hottest
    rows by cumulative and by total (self) time.  Profiling slows the run
    ~2x, so the measured rates from a profiled run are *not* recorded in
    the trajectory files — the profile is a where-does-time-go artifact,
    not a benchmark number.
    """
    import cProfile
    import pstats

    prof = cProfile.Profile()
    prof.enable()
    try:
        result = fn(*args, **kwargs)
    finally:
        prof.disable()

    stats = pstats.Stats(prof)
    rows: List[Dict[str, Any]] = []
    for (path, line, name), (cc, nc, tt, ct, _callers) in stats.stats.items():
        rows.append({
            "function": _profile_func_id(path, line, name),
            "ncalls": nc,
            "tottime_s": round(tt, 6),
            "cumtime_s": round(ct, 6),
        })
    report = {
        "total_calls": int(stats.total_calls),
        "total_time_s": round(stats.total_tt, 6),
        "top_cumulative": sorted(
            rows, key=lambda r: r["cumtime_s"], reverse=True
        )[:top],
        "top_tottime": sorted(
            rows, key=lambda r: r["tottime_s"], reverse=True
        )[:top],
    }
    return result, report


def write_profile(
    path: str, suite: str, report: Dict[str, Any], label: str, scale: str
) -> None:
    """Write one suite's profile report as ``PROFILE_<suite>.json``.

    Unlike the BENCH trajectories these are snapshots, not histories:
    each write replaces the file (profiles are bulky and only the most
    recent one is ever acted on).
    """
    data = {
        "schema": SCHEMA_VERSION,
        "suite": suite,
        "label": label,
        "scale": scale,
        "python": platform.python_version(),
        "machine": platform.machine(),
        **report,
    }
    with open(path, "w") as f:
        json.dump(data, f, indent=2, sort_keys=False)
        f.write("\n")
