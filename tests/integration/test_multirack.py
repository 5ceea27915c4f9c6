"""Multi-rack leaf-spine deployments (§5.4).

The stale set moves from the ToR to the spine; with several spines,
directories are range-partitioned over them by fingerprint.  Semantics
must be identical to single-rack; the observable differences are longer
paths (4 links) and stale-set state spread over the spines."""

import os
import subprocess
import sys

import pytest

from repro.core import FSConfig, FSError, SwitchFSCluster, fingerprint_of, ROOT_ID


def make(**overrides):
    defaults = dict(
        num_servers=4, cores_per_server=2, seed=14,
        topology="leaf-spine", num_racks=2,
    )
    defaults.update(overrides)
    return SwitchFSCluster(FSConfig(**defaults))


class TestLeafSpineSemantics:
    def test_full_op_surface(self):
        cluster = make()
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        for i in range(8):
            cluster.run_op(fs.create(f"/d/f{i}"))
        cluster.run_op(fs.delete("/d/f0"))
        listing = cluster.run_op(fs.readdir("/d"))
        assert sorted(listing["entries"]) == sorted(f"f{i}" for i in range(1, 8))
        assert cluster.run_op(fs.statdir("/d"))["entry_count"] == 7
        cluster.run_op(fs.rename("/d/f1", "/d/g1"))
        assert cluster.run_op(fs.stat("/d/g1"))["name"] == "g1"

    def test_latency_pays_the_spine_detour(self):
        def create_latency(topology):
            cluster = make(topology=topology) if topology == "leaf-spine" else \
                SwitchFSCluster(FSConfig(num_servers=4, cores_per_server=2, seed=14))
            fs = cluster.client(0)
            cluster.run_op(fs.mkdir("/d"))
            t0 = cluster.sim.now
            cluster.run_op(fs.create("/d/f"))
            return cluster.sim.now - t0

        single = create_latency("single-rack")
        multi = create_latency("leaf-spine")
        assert multi > single  # two extra links each way

    def test_stale_set_at_spine(self):
        cluster = make(proactive_enabled=False)
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        cluster.run_op(fs.create("/d/f"))
        fp = fingerprint_of(ROOT_ID, "d")
        assert cluster.switch.stale_set_for(fp).query(fp)

    def test_switch_failure_recovery_multirack(self):
        cluster = make(proactive_enabled=False)
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        for i in range(5):
            cluster.run_op(fs.create(f"/d/f{i}"))
        cluster.fail_switch()
        assert cluster.total_pending_entries() == 0
        assert cluster.run_op(fs.statdir("/d"))["entry_count"] == 5


class TestMultipleSpines:
    def test_fingerprints_partition_across_spines(self):
        cluster = make(num_spine_switches=2, proactive_enabled=False)
        fs = cluster.client(0)
        # Create enough directories that both spines own some fingerprints.
        for i in range(12):
            cluster.run_op(fs.mkdir(f"/dir{i}"))
            cluster.run_op(fs.create(f"/dir{i}/f"))
        occupancies = [s.occupancy for s in cluster.spines]
        assert all(o > 0 for o in occupancies), occupancies

    def test_semantics_with_two_spines(self):
        cluster = make(num_spine_switches=2)
        fs = cluster.client(0)
        for i in range(6):
            cluster.run_op(fs.mkdir(f"/dir{i}"))
            for j in range(3):
                cluster.run_op(fs.create(f"/dir{i}/f{j}"))
        for i in range(6):
            listing = cluster.run_op(fs.readdir(f"/dir{i}"))
            assert sorted(listing["entries"]) == ["f0", "f1", "f2"]

    def test_failure_resets_every_spine(self):
        cluster = make(num_spine_switches=2, proactive_enabled=False)
        fs = cluster.client(0)
        for i in range(8):
            cluster.run_op(fs.mkdir(f"/dir{i}"))
            cluster.run_op(fs.create(f"/dir{i}/f"))
        cluster.fail_switch()
        assert all(s.occupancy == 0 for s in cluster.spines)
        for i in range(8):
            assert cluster.run_op(fs.statdir(f"/dir{i}"))["entry_count"] == 1


class TestRoutingDigests:
    def test_flow_hash_uses_both_spines(self):
        """Plain crc32 % 2 is affine in the host names and sent 40 of
        these 42 flow-hashed packets through one spine."""
        cluster = make(num_spine_switches=2)
        fs = cluster.client(0)
        for i in range(6):
            cluster.run_op(fs.mkdir(f"/dir{i}"))
            for j in range(4):
                cluster.run_op(fs.create(f"/dir{i}/f{j}"))
        counts = [s.forwarded for s in cluster.spines]
        assert min(counts) >= sum(counts) // 4, counts

    def test_routing_does_not_depend_on_hash_seed(self):
        """Spine flow hashing and the default host -> pipe map use a
        stable digest: two interpreters with different str hash salts
        route every packet the same way."""
        script = (
            "from repro.core import FSConfig, SwitchFSCluster\n"
            "from repro.switchfab import ProgrammableSwitch\n"
            "cluster = SwitchFSCluster(FSConfig(num_servers=4, cores_per_server=2,\n"
            "    seed=14, topology='leaf-spine', num_racks=2, num_spine_switches=2))\n"
            "fs = cluster.client(0)\n"
            "for i in range(6):\n"
            "    cluster.run_op(fs.mkdir(f'/dir{i}'))\n"
            "    for j in range(4):\n"
            "        cluster.run_op(fs.create(f'/dir{i}/f{j}'))\n"
            "print([s.forwarded for s in cluster.spines])\n"
            "sw = ProgrammableSwitch(num_pipes=4)\n"
            "hosts = [f'server-{i}' for i in range(8)] + [f'client-{i}' for i in range(4)]\n"
            "print({h: sw._pipe_of_host(h) for h in hosts})\n"
        )
        src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))
        outputs = []
        for hash_seed in ("11", "22"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            outputs.append(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True).stdout)
        assert outputs[0].count("\n") == 2
        assert outputs[0] == outputs[1]


class TestConfigValidation:
    def test_bad_topology_rejected(self):
        with pytest.raises(ValueError):
            FSConfig(topology="mesh")

    def test_bad_rack_count_rejected(self):
        with pytest.raises(ValueError):
            FSConfig(topology="leaf-spine", num_racks=0)
