"""Tests for the parallel-partition DES mode (repro.bench.parallel).

The mode's contract has three tiers (DESIGN.md §14): bit-identical
across worker counts, state-equivalent to the monolithic serial run,
stats-equivalent latency.  These tests pin all three plus the
directory -> partition map, pin that a partition is the serial driver
run on a subset of the ops, and run the analysis layer (SimTracer; the
pool sanitizer is session-wide via conftest) over a partitioned run.
"""

import os
from dataclasses import replace

import pytest

from repro.bench.parallel import (
    PartitionSpec,
    bench_parallel,
    merge_partitions,
    partition_of_dir,
    run_parallel,
    run_partition,
    run_serial_reference,
)
from repro.bench.sweep import SweepPool

TINY = PartitionSpec(total_ops=600, dirs=8, num_servers=2,
                     cores_per_server=2, inflight=8)


def merged_fingerprint(result):
    """Byte-comparable projection of a merged PartitionResult."""
    return (
        result.ops_completed,
        result.sim_elapsed_us,
        result.op_counts,
        result.namespace,
        result.latency_samples,
    )


class TestPartitionMap:
    def test_stable_and_in_range(self):
        for path in ("/d0", "/d1", "/deep/nested"):
            for n in (1, 2, 4, 7):
                p = partition_of_dir(path, n)
                assert p == partition_of_dir(path, n)
                assert 0 <= p < n

    def test_nparts_one_degenerates(self):
        assert partition_of_dir("/anything", 1) == 0

    def test_covers_all_partitions(self):
        dirs = [f"/d{i}" for i in range(64)]
        assert {partition_of_dir(d, 4) for d in dirs} == {0, 1, 2, 3}


class TestEquivalenceOracle:
    """The acceptance oracle: partitioned == serial in state, not in stats."""

    def test_state_equivalent_to_serial(self):
        serial = run_serial_reference(TINY)
        parallel = run_parallel(TINY, workers=2,
                                pool=SweepPool(serial=True))
        assert parallel.namespace == serial.namespace
        assert parallel.op_counts == serial.op_counts
        assert parallel.ops_completed == serial.ops_completed
        # Stats tiers: latency is only statistically comparable.
        assert parallel.latency_samples != []

    def test_bit_identical_across_worker_maps(self):
        """Pool vs in-process execution merges to identical bytes."""
        serial_pool = run_parallel(TINY, workers=2,
                                   pool=SweepPool(serial=True))
        process_pool = run_parallel(TINY, workers=2,
                                    pool=SweepPool(max_workers=2, serial=False))
        assert (merged_fingerprint(process_pool)
                == merged_fingerprint(serial_pool))

    def test_partition_results_deterministic(self):
        spec = PartitionSpec(total_ops=300, dirs=8, num_servers=2,
                             cores_per_server=2, inflight=4,
                             nparts=2, index=1)
        a, b = run_partition(spec), run_partition(spec)
        assert a.ops_completed == b.ops_completed
        assert a.sim_elapsed_us == b.sim_elapsed_us
        assert a.latency_samples == b.latency_samples
        assert a.namespace == b.namespace

    @pytest.mark.parametrize("spec", [
        TINY,
        PartitionSpec(total_ops=5_000, dirs=64, num_servers=8, inflight=64),
    ], ids=["tiny", "5k-64dirs"])
    def test_single_partition_is_the_serial_run(self, spec):
        """One partition owns every op, so it *is* the serial run."""
        part = run_partition(replace(spec, nparts=1, index=0))
        serial = run_serial_reference(spec)
        assert part.latency_samples == serial.latency_samples
        assert part.sim_elapsed_us == serial.sim_elapsed_us
        assert part.namespace == serial.namespace
        assert part.op_counts == serial.op_counts
        assert part.ops_completed == serial.ops_completed

    def test_more_partitions_than_dirs(self):
        """Partitions that own no directory run nothing and merge cleanly."""
        spec = replace(TINY, total_ops=60, dirs=2)
        serial = run_serial_reference(spec)
        parallel = run_parallel(spec, workers=4, pool=SweepPool(serial=True))
        assert parallel.namespace == serial.namespace
        assert parallel.op_counts == serial.op_counts
        assert parallel.ops_completed == 60

    def test_every_op_executes_exactly_once(self):
        parts = [
            run_partition(PartitionSpec(
                total_ops=300, dirs=8, num_servers=2, cores_per_server=2,
                inflight=4, nparts=3, index=k))
            for k in range(3)
        ]
        merged = merge_partitions(parts)
        assert merged.ops_completed == 300
        assert merged.op_counts == {"create": 300}

    def test_bench_parallel_reports_equivalent(self):
        results = bench_parallel(scale="tiny", workers=2)
        entry = results["parallel_partition_create"]
        assert entry["equivalent"] is True
        assert entry["workers"] == 2

    @pytest.mark.skipif((os.cpu_count() or 1) < 4,
                        reason="wall-clock speedup needs real cores")
    def test_parallel_beats_serial_wall_clock(self):
        """On a multi-core host the partitioned run must win outright."""
        spec = PartitionSpec(total_ops=20_000, dirs=32, num_servers=8,
                             inflight=64)
        serial = run_serial_reference(spec)
        parallel = run_parallel(spec, workers=4)
        assert parallel.wall_seconds < serial.wall_seconds


class TestAnalysisOnParallelRun:
    def test_tracer_and_sanitizer_clean_on_partitioned_run(self):
        """SimTracer (and the session-wide pool sanitizer) pass in
        parallel mode: no lock-order cycles, no races."""
        from repro.analysis import SimTracer, instrument_server
        from repro.analysis.detect import lock_order_cycles, race_findings

        holder = {}

        def instrument(cluster):
            tracer = SimTracer(capture_stacks=False)
            tracer.attach(cluster.sim)
            for server in cluster.servers:
                instrument_server(tracer, server)
            holder["tracer"] = tracer

        spec = PartitionSpec(total_ops=300, dirs=8, num_servers=2,
                             cores_per_server=2, inflight=4,
                             nparts=2, index=0)
        result = run_partition(spec, instrument=instrument)
        tracer = holder["tracer"]
        tracer.detach()
        assert result.ops_completed > 0
        assert lock_order_cycles(tracer) == []
        assert race_findings(tracer) == []
