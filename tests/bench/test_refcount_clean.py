"""The simulated op path is refcount-clean (DESIGN.md §9).

``run_stream`` and ``run_fanin`` switch the cyclic collector off for the
whole run, so anything the op path leaves in a reference cycle stays in
memory until the run ends.  These tests run a tiny workload with the
collector off and require that a collection right afterwards, while the
cluster is still alive, finds nothing: every finished process, packet
and reply was already freed by refcounting.
"""

import gc

from repro.bench import make_cluster, run_stream, scaled_config
from repro.workloads import DATA_CENTER_SERVICES_MIX, MixStream, bootstrap, run_fanin
from repro.workloads.mixes import OpMix
from repro.workloads.population import Population

#: Every namespace op the streams can issue, reads and writes.
ALL_METADATA_MIX = OpMix(
    name="all-metadata",
    weights=(
        ("create", 0.25), ("delete", 0.15), ("mkdir", 0.05), ("rmdir", 0.05),
        ("rename", 0.15), ("stat", 0.15), ("statdir", 0.1), ("readdir", 0.1),
    ),
)


def _cluster():
    cluster = make_cluster("SwitchFS", scaled_config(
        num_servers=4, cores_per_server=2, num_clients=2, seed=3,
        switch_cache=True))
    pop = bootstrap(cluster, Population(dirs=[f"d{i}" for i in range(8)],
                                        files_per_dir=16),
                    warm_clients=[0, 1])
    return cluster, pop


def _garbage_after(run) -> int:
    """Objects a full collection finds unreachable right after *run()*.

    The collector stays off from before the run until that collection,
    so no automatic pass can tidy up first.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        result = run()
        unreachable = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    assert result.latency.samples("all")  # the run really ran
    return unreachable


def test_run_stream_leaves_no_cycles():
    cluster, pop = _cluster()
    stream = MixStream(ALL_METADATA_MIX, pop, seed=5)
    unreachable = _garbage_after(lambda: run_stream(
        cluster, stream, total_ops=600, inflight=16, warmup_ops=50,
        num_clients=2))
    assert unreachable == 0
    assert cluster.servers  # kept alive across the collection


def test_run_fanin_leaves_no_cycles():
    cluster, pop = _cluster()
    unreachable = _garbage_after(lambda: run_fanin(
        cluster,
        lambda agg: MixStream(DATA_CENTER_SERVICES_MIX, pop, seed=agg,
                              data_enabled=False),
        users=1000, offered_load_ops=100_000.0, total_ops=600,
        aggregates=2, warmup_ops=50))
    assert unreachable == 0
    assert cluster.servers
