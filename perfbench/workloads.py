"""The benchmark's three workloads and the recorder that wraps their op streams.

Every workload runs one SwitchFS cluster of 8 servers x 4 cores from one
process, with no threads, no sweep pool and no parallel mode.  The input
seed drives the op streams and arrivals, and names the shared directory of
``create_hotdir``, whose stream draws nothing at random; the cluster only
ever sees the generated streams and populations.

* ``create_hotdir``  - closed loop, 64 in flight, every op creates a fresh
  file in one pre-populated shared directory.  The paper's headline
  skewed-write case: double-inode create, change-log append and stale-set
  insert through the switch on every op, while aggregation and the dentry
  cache stay idle.
* ``create_statdir`` - closed loop, 64 in flight, 64 dirs x 200 files with
  80/20 directory skew, 90% create / 5% statdir / 5% readdir.  Same write
  path, but every directory read of a scattered directory forces an
  aggregation (pull, batch, consolidate, apply).
* ``dcs_fanin``      - open loop: 1,000,000 Zipf(0.99) users over 2
  aggregates at 400K simulated ops/s offered, the Table-5 data-center
  services mix (metadata only) over 256 dirs x 64 files with 80/20 skew,
  in-switch dentry cache on (4 stages x 2^10 lines).  The read-dominated
  real-world case; the 1M-user table makes set-up time and memory matter.
  Not listed in BENCHMARK.json: its correctness gate fails on most inputs
  because of a program defect in change-log batch apply (README.md,
  *Known defect found by the gate*).  Run it by hand to reproduce it.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import hostspeed
from repro.bench import make_cluster, run_stream, scaled_config
from repro.workloads import (
    DATA_CENTER_SERVICES_MIX,
    FixedOpStream,
    MixStream,
    OpMix,
    Population,
    bootstrap,
    run_fanin,
)

#: Errnos each op may return through the streams' ``safe_op`` wrappers
#: (src/repro/workloads/generator.py).  Any other status, or an exception,
#: counts as a failed op.
EXPECTED_ERRNOS: Dict[str, tuple] = {
    "create": ("EEXIST",),
    "delete": ("ENOENT",),
    "stat": ("ENOENT",),
    "open": ("ENOENT",),
    "close": ("ENOENT",),
    "chmod": ("ENOENT",),
    "rename": ("ENOENT", "EEXIST"),
}

#: 90% create / 5% statdir / 5% readdir (benchmark-local, not a paper mix).
CREATE_STATDIR_MIX = OpMix(
    name="create-statdir",
    weights=(("create", 0.90), ("statdir", 0.05), ("readdir", 0.05)),
)

SERVERS = 8
CORES = 4
INFLIGHT = 64
#: Host throughput is sampled per chunk of this many completions, each
#: chunk followed by one host-speed reference (see hostspeed.py).
CHUNK_OPS = 1_000


class _NamespaceFS:
    """A LibFS stand-in that records the namespace effect of each acked op.

    ``net[path]`` counts successful creates (and rename targets) minus
    successful deletes (and rename sources).  Successful mutations of one
    path alternate create/delete in any linearizable history, so the final
    existence of a path is ``initial + net[path]`` whatever order the acks
    arrived in; the correctness gate compares that against readdir.
    """

    def __init__(self, fs, net: Dict[str, int]):
        self._fs = fs
        self._net = net
        self.sim = fs.sim
        self.stat = fs.stat
        self.open = fs.open
        self.close = fs.close
        self.statdir = fs.statdir
        self.readdir = fs.readdir

    def __getattr__(self, name: str) -> Any:
        return getattr(self._fs, name)

    def create(self, path: str, *args, **kwargs):
        result = yield from self._fs.create(path, *args, **kwargs)
        self._net[path] += 1
        return result

    def delete(self, path: str):
        result = yield from self._fs.delete(path)
        self._net[path] -= 1
        return result

    def rename(self, src: str, dst: str):
        result = yield from self._fs.rename(src, dst)
        self._net[src] -= 1
        self._net[dst] += 1
        return result


class OpRecorder:
    """Wraps a workload's op streams: failures, namespace effects, window.

    ``take`` hands out a wrapper thunk around each stream thunk.  The
    wrapper runs the op against a :class:`_NamespaceFS`, counts an op as
    failed when it raises or returns a status other than ``ok`` or an
    errno its stream expects, and calls ``on_window`` at the completion
    that opens the measurement window (the ``warmup``-th) and at the last
    one, at the same virtual instant the harness opens/closes its window.
    """

    def __init__(self, total_ops: int, warmup_ops: int,
                 on_window: Callable[[str], None], tracer=None):
        self.total_ops = total_ops
        self.warmup_ops = warmup_ops
        self.on_window = on_window
        self.tracer = tracer
        self.issued = 0
        self.completed = 0
        self.failed = 0
        self.late = 0
        self.first_issue: Optional[float] = None
        # (host seconds, host slowdown) per chunk of CHUNK_OPS completions;
        # the reference that measures the slowdown runs between chunks.
        self.chunks: List[Tuple[float, float]] = []
        self._chunk_start = 0.0
        self.net: Dict[str, int] = defaultdict(int)
        self._proxies: Dict[int, _NamespaceFS] = {}

    def wrap(self, stream, open_loop_sim=None) -> "_RecordedStream":
        """Wrap *stream*; pass the simulator for an open-loop stream, whose
        thunks are taken at their due virtual time and must start then."""
        return _RecordedStream(self, stream, open_loop_sim)

    def _proxy(self, fs) -> _NamespaceFS:
        proxy = self._proxies.get(id(fs))
        if proxy is None:
            proxy = self._proxies[id(fs)] = _NamespaceFS(fs, self.net)
        return proxy

    def _done(self, op: str, result: Any) -> None:
        if isinstance(result, dict):
            status = result.get("status", "ok")
            if status != "ok" and status not in EXPECTED_ERRNOS.get(op, ()):
                self.failed += 1
        self.completed += 1
        if self.completed % CHUNK_OPS == 0:
            seconds = time.perf_counter() - self._chunk_start
            self.chunks.append((seconds, hostspeed.slowdown()))
            self._chunk_start = time.perf_counter()
        if self.completed == self.warmup_ops:
            self.on_window("open")
        if self.completed == self.total_ops:
            self.on_window("close")


class _RecordedStream:
    """The object ``run_stream``/``run_fanin`` pull thunks from."""

    def __init__(self, rec: OpRecorder, inner, open_loop_sim=None):
        self.rec = rec
        self.inner = inner
        self.sim = open_loop_sim

    def take(self, uid: int = 0):
        rec = self.rec
        if rec.first_issue is None:
            rec.first_issue = rec._chunk_start = time.perf_counter()
        rec.issued += 1
        thunk = self.inner.take(uid)
        op = thunk.op_name
        tracer = rec.tracer
        due = self.sim.now if self.sim is not None else None

        def run(fs):
            proxy = rec._proxy(fs)
            start = fs.sim.now
            if due is not None and due != start:
                rec.late += 1
            try:
                if tracer is None:
                    result = yield from thunk(proxy)
                else:
                    op_id = tracer.begin(op, start)
                    result = yield from tracer.run_as(thunk(proxy), op_id)
                    tracer.end(op_id, fs.sim.now)
            except Exception:  # noqa: BLE001 - a raising op is a failed op
                rec.failed += 1
                result = None
            rec._done(op, result)
            return result

        run.op_name = op
        run.uid = uid
        return run


@dataclass
class Round:
    """One set-up + run of a workload; the caller verifies and measures it."""

    cluster: Any
    pop: Population
    recorder: OpRecorder
    result: Any
    t_start: float
    t_cluster: float
    t_bootstrap: float
    setup_slowdown: float


@dataclass(frozen=True)
class Workload:
    name: str
    total_ops: int
    warmup_ops: int
    dirs: int
    files_per_dir: int
    run: Callable[..., Any]
    config: Dict[str, Any]
    clients: int = 1
    offered_load_ops: Optional[float] = None

    def population(self, seed: int) -> Population:
        # A single-directory workload draws nothing at random, so its seed
        # names the directory (hence its id and the servers its files hash
        # to).  Multi-directory workloads keep one layout, so the placement
        # of the hot directories is the same for every seed, and the seed
        # drives their op streams and arrivals.
        prefix = f"s{seed}-" if self.dirs == 1 else ""
        return Population(
            dirs=[f"{prefix}d{i}" for i in range(self.dirs)],
            files_per_dir=self.files_per_dir,
            file_prefix=f"{prefix}f",
        )

    def play(self, seed: int, on_window: Callable[[Any, str], None],
             tracer=None, profiler=None) -> Round:
        """Set up a fresh cluster and run the workload on it once.

        *tracer* (a SpanTracer) is attached after set-up; *profiler* (a
        cProfile.Profile) is enabled around the run call only.
        """
        setup_slowdown = hostspeed.slowdown(repeats=5)
        t_start = time.perf_counter()
        cluster = make_cluster(
            "SwitchFS",
            scaled_config(num_servers=SERVERS, cores_per_server=CORES,
                          num_clients=self.clients, seed=seed, **self.config),
        )
        t_cluster = time.perf_counter()
        clients = list(range(self.clients))
        pop = bootstrap(cluster, self.population(seed), warm_clients=clients)
        t_bootstrap = time.perf_counter()
        recorder = OpRecorder(self.total_ops, self.warmup_ops,
                              lambda edge: on_window(cluster, edge), tracer)
        if tracer is not None:
            tracer.attach(cluster, clients)
        if profiler is not None:
            profiler.enable()
        try:
            result = self.run(self, cluster, pop, seed, recorder)
        finally:
            if profiler is not None:
                profiler.disable()
        return Round(cluster, pop, recorder, result, t_start, t_cluster,
                     t_bootstrap, setup_slowdown)


def _run_create_hotdir(w: Workload, cluster, pop, seed: int, rec: OpRecorder):
    stream = rec.wrap(FixedOpStream("create", pop, seed=seed, dir_choice="single"))
    return run_stream(cluster, stream, total_ops=w.total_ops,
                      inflight=INFLIGHT, warmup_ops=w.warmup_ops)


def _run_create_statdir(w: Workload, cluster, pop, seed: int, rec: OpRecorder):
    stream = rec.wrap(MixStream(CREATE_STATDIR_MIX, pop, seed=seed))
    return run_stream(cluster, stream, total_ops=w.total_ops,
                      inflight=INFLIGHT, warmup_ops=w.warmup_ops)


def _run_dcs_fanin(w: Workload, cluster, pop, seed: int, rec: OpRecorder):
    def make_stream(agg: int):
        return rec.wrap(MixStream(DATA_CENTER_SERVICES_MIX, pop,
                                  seed=seed * 1000 + agg, data_enabled=False),
                        open_loop_sim=cluster.sim)

    return run_fanin(cluster, make_stream, users=1_000_000,
                     offered_load_ops=w.offered_load_ops, total_ops=w.total_ops,
                     aggregates=w.clients, theta=0.99, seed=seed,
                     warmup_ops=w.warmup_ops)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="create_hotdir",
            total_ops=22_000, warmup_ops=2_000, dirs=1, files_per_dir=8_192,
            run=_run_create_hotdir, config={},
        ),
        Workload(
            name="create_statdir",
            # Twice the samples of the others: its p99.9 (aggregation
            # stalls) varies most between inputs.
            total_ops=42_000, warmup_ops=2_000, dirs=64, files_per_dir=200,
            run=_run_create_statdir, config={},
        ),
        # Runnable by hand, not listed in BENCHMARK.json until the
        # batch-apply defect it exposes is fixed (see the module docstring).
        Workload(
            name="dcs_fanin",
            total_ops=22_000, warmup_ops=2_000, dirs=256, files_per_dir=64,
            run=_run_dcs_fanin,
            config={"switch_cache": True, "switch_cache_stages": 4,
                    "switch_cache_index_bits": 10},
            clients=2, offered_load_ops=400_000.0,
        ),
    )
}
