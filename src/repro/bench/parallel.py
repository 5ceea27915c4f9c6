"""Parallel-partition execution of multi-directory benchmark points.

The figure sweeps already fan *independent benchmark points* across a
process pool (:mod:`repro.bench.sweep`); this module fans **one** big
benchmark point across workers.  A multi-directory metadata workload
decomposes by directory: ops on different directory subtrees never
touch the same inode, entry list or change-log, so the global op
sequence splits into per-partition subsequences
(:func:`partition_of_dir`) that run concurrently, each in a worker
process holding a private replica of the cluster built from the same
config and seed.  Partitions never exchange a message, so each one is an
independent replica driven by the ordinary closed-loop
:func:`~repro.bench.harness.run_stream`; there is nothing to
synchronize between them.

Equivalence contract (DESIGN.md §14, tested by
``tests/bench/test_parallel.py``):

* **bit-identical** across worker counts — the partition results are a
  pure function of ``(spec, partition index)``, so pool and serial
  (``REPRO_SWEEP_SERIAL=1``) execution merge to the same bytes;
* **state-equivalent** to the classic monolithic run — same final
  namespace and same per-op completion counts, because every generated
  op executes exactly once with the same arguments;
* **stats-equivalent** latency/throughput — virtual-time contention
  differs (partitions do not share server cores with each other's ops),
  so latency distributions are compared statistically, never byte-wise.

Wall-clock speedup comes from real cores: on a single-core host the
pool degrades to serial and partitioned mode only adds the per-worker
cluster build.
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from ..workloads.generator import OpStream
from .harness import RunResult, run_stream
from .sweep import SweepPool, make_cluster, scaled_config

__all__ = [
    "partition_of_dir",
    "PartitionSpec",
    "PartitionResult",
    "run_partition",
    "run_parallel",
    "run_serial_reference",
    "bench_parallel",
    "PARALLEL_SCALES",
]


def partition_of_dir(path: str, nparts: int) -> int:
    """Stable partition index for directory *path* (0 <= idx < nparts).

    CRC32-based so the map is identical across processes and interpreter
    launches regardless of ``PYTHONHASHSEED``.
    """
    if nparts <= 1:
        return 0
    return zlib.crc32(path.encode()) % nparts


@dataclass(frozen=True)
class PartitionSpec:
    """One partition's share of a partitioned benchmark point.

    Everything a worker process needs to rebuild its private cluster and
    regenerate the *global* op sequence: thunks close over lambdas and
    cannot be pickled, so each worker re-derives the full sequence from
    the shared seed and executes only the ops whose directory maps to
    its ``index``.
    """

    system: str = "SwitchFS"
    num_servers: int = 8
    cores_per_server: int = 4
    seed: int = 17
    op: str = "create"
    total_ops: int = 10_000
    inflight: int = 64
    dirs: int = 64
    files_per_dir: int = 32
    nparts: int = 1
    index: int = 0


@dataclass
class PartitionResult:
    """Picklable summary of one partition's run (or the serial reference)."""

    index: int
    ops_completed: int
    sim_elapsed_us: float
    wall_seconds: float
    #: op name -> completed count
    op_counts: Dict[str, int] = field(default_factory=dict)
    #: directory path -> sorted entry names after the run has settled
    namespace: Dict[str, List[str]] = field(default_factory=dict)
    #: completion latencies in virtual us, in completion order
    latency_samples: List[float] = field(default_factory=list)


def _build(spec: PartitionSpec):
    from ..workloads import FixedOpStream, bootstrap, multiple_directories

    cluster = make_cluster(
        spec.system,
        scaled_config(
            num_servers=spec.num_servers,
            cores_per_server=spec.cores_per_server,
            seed=spec.seed,
        ),
    )
    pop = bootstrap(
        cluster,
        multiple_directories(spec.dirs, spec.files_per_dir),
        warm_clients=[0],
    )
    stream = FixedOpStream(spec.op, pop, seed=spec.seed, dir_choice="uniform")
    return cluster, pop, stream


def _snapshot_namespace(cluster, dir_paths: List[str]) -> Dict[str, List[str]]:
    """Final entry list per directory, after aggregation has settled."""
    cluster.settle()
    fs = cluster.client(0)
    out: Dict[str, List[str]] = {}
    for d in dir_paths:
        result = cluster.run_op(fs.readdir(d))
        out[d] = sorted(result["entries"])
    return out


class _ReplayStream(OpStream):
    """Hands out a precomputed list of thunks in order."""

    def __init__(self, thunks: List[Any]):
        super().__init__("replay")
        self._next = iter(thunks).__next__

    def next_thunk(self):
        return self._next()


def _result(index: int, run: RunResult,
            namespace: Dict[str, List[str]]) -> PartitionResult:
    return PartitionResult(
        index=index,
        ops_completed=run.ops_completed,
        sim_elapsed_us=run.sim_elapsed_us,
        wall_seconds=run.wall_seconds,
        op_counts={
            op: len(run.latency.samples(op))
            for op in run.latency.ops()
            if op != "all"
        },
        namespace=namespace,
        latency_samples=run.latency.samples("all"),
    )


def run_partition(spec: PartitionSpec, instrument=None) -> PartitionResult:
    """Execute one partition's subsequence (module-level: picklable).

    Regenerates the global ``spec.total_ops`` op sequence, keeps the ops
    owned by ``spec.index``, and drives them closed-loop through
    :func:`~repro.bench.harness.run_stream` with this partition's share
    of the in-flight level.  A partition is the serial driver run on a
    subset of the ops.

    *instrument*, when given, is called with the freshly-built cluster
    before any op runs — the hook the analysis tests use to attach a
    :class:`~repro.analysis.SimTracer` to a partitioned run.  (Only for
    in-process calls: hooks do not pickle across pool workers.)
    """
    cluster, pop, stream = _build(spec)
    if instrument is not None:
        instrument(cluster)
    thunks = [
        t for t in (stream.take() for _ in range(spec.total_ops))
        if partition_of_dir(t.dir_path, spec.nparts) == spec.index
    ]
    mine = [d for d in pop.dir_paths
            if partition_of_dir(d, spec.nparts) == spec.index]
    if not thunks:  # more partitions than the op stream touched dirs
        return PartitionResult(index=spec.index, ops_completed=0,
                               sim_elapsed_us=0.0, wall_seconds=0.0,
                               namespace=_snapshot_namespace(cluster, mine))
    run = run_stream(
        cluster,
        _ReplayStream(thunks),
        total_ops=len(thunks),
        inflight=max(1, spec.inflight // spec.nparts),
        op_label=spec.op,
    )
    return _result(spec.index, run, _snapshot_namespace(cluster, mine))


def run_serial_reference(spec: PartitionSpec) -> PartitionResult:
    """The classic monolithic run of the same point (equivalence oracle)."""
    cluster, pop, stream = _build(spec)
    run = run_stream(
        cluster,
        stream,
        total_ops=spec.total_ops,
        inflight=spec.inflight,
        op_label=spec.op,
    )
    return _result(-1, run, _snapshot_namespace(cluster, list(pop.dir_paths)))


def merge_partitions(parts: List[PartitionResult]) -> PartitionResult:
    """Fold per-partition results into one aggregate summary.

    Namespaces are disjoint by construction (each worker snapshots only
    its own directories); op counts and latency samples are summed and
    concatenated in partition order, which keeps the merge a pure
    function of the inputs — the basis of the bit-identical-across-
    worker-counts guarantee.
    """
    merged = PartitionResult(
        index=-1,
        ops_completed=sum(p.ops_completed for p in parts),
        sim_elapsed_us=max((p.sim_elapsed_us for p in parts), default=0.0),
        wall_seconds=sum(p.wall_seconds for p in parts),
    )
    for p in sorted(parts, key=lambda p: p.index):
        for op, n in p.op_counts.items():
            merged.op_counts[op] = merged.op_counts.get(op, 0) + n
        merged.namespace.update(p.namespace)
        merged.latency_samples.extend(p.latency_samples)
    return merged


def run_parallel(
    spec: PartitionSpec, workers: int, pool: Optional[SweepPool] = None
) -> PartitionResult:
    """Partition *spec* across *workers* and merge the results.

    Returns the merged :class:`PartitionResult`; ``wall_seconds`` on the
    merged result is the *makespan* (outer timer around the pool), not
    the sum of worker time.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    specs = [replace(spec, nparts=workers, index=k) for k in range(workers)]
    if pool is None:
        pool = SweepPool(max_workers=workers)
    wall0 = time.time()
    parts = pool.map(run_partition, specs)
    makespan = time.time() - wall0
    merged = merge_partitions(parts)
    merged.wall_seconds = makespan
    return merged


# ---------------------------------------------------------------------------
# the ``repro perf --parallel N`` benchmark point
# ---------------------------------------------------------------------------

PARALLEL_SCALES = {
    # The acceptance-scale demo: >= 100K ops against 8 servers.
    "full": {"total_ops": 100_000, "dirs": 64, "num_servers": 8,
             "inflight": 64},
    "tiny": {"total_ops": 1_200, "dirs": 8, "num_servers": 2,
             "inflight": 16},
}


def bench_parallel(
    scale: str = "full", workers: int = 4
) -> Dict[str, Dict[str, Any]]:
    """Serial-vs-partitioned comparison at one scale.

    Runs the monolithic reference and the partitioned run on the same
    point, checks the state-equivalence oracle inline, and reports both
    wall rates plus the speedup.  ``equivalent`` in the result is the
    oracle verdict — a recorded ``false`` is a red flag, not a skipped
    check.
    """
    params = PARALLEL_SCALES[scale]
    spec = PartitionSpec(**params)
    serial = run_serial_reference(spec)
    parallel = run_parallel(spec, workers=workers)
    equivalent = (
        serial.namespace == parallel.namespace
        and serial.op_counts == parallel.op_counts
        and serial.ops_completed == parallel.ops_completed
    )
    entry = {
        "ops": spec.total_ops,
        "workers": workers,
        "serial_wall_seconds": round(serial.wall_seconds, 6),
        "serial_wall_ops_per_sec": round(
            serial.ops_completed / serial.wall_seconds, 1
        ) if serial.wall_seconds else 0.0,
        "parallel_wall_seconds": round(parallel.wall_seconds, 6),
        "parallel_wall_ops_per_sec": round(
            parallel.ops_completed / parallel.wall_seconds, 1
        ) if parallel.wall_seconds else 0.0,
        "speedup": round(serial.wall_seconds / parallel.wall_seconds, 3)
        if parallel.wall_seconds else 0.0,
        "equivalent": equivalent,
        "host_cpus": os.cpu_count() or 1,
    }
    return {"parallel_partition_create": entry}
