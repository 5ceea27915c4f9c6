"""White-box tests of MetadataServer internals."""

from repro.core import (
    ChangeLogEntry,
    ChangeOp,
    FSConfig,
    SwitchFSCluster,
    dir_entry_key,
    fingerprint_of,
    ROOT_ID,
)


def make(**overrides):
    defaults = dict(num_servers=3, cores_per_server=2, seed=6)
    defaults.update(overrides)
    return SwitchFSCluster(FSConfig(**defaults))


class TestMergePulled:
    def test_merges_remote_and_local(self):
        cluster = make()
        server = cluster.servers[0]
        e1 = ChangeLogEntry(1.0, ChangeOp.CREATE, "a")
        e2 = ChangeLogEntry(2.0, ChangeOp.CREATE, "b")
        e3 = ChangeLogEntry(3.0, ChangeOp.DELETE, "a")
        remote = [{"logs": [(10, [e1])], "lsns": [0]},
                  {"logs": [(10, [e2]), (11, [e3])], "lsns": [1, 2]}]
        local = [(10, [e3], [5])]
        merged = server._merge_pulled(remote, local)
        by_dir = {d: entries for d, entries, _ in merged}
        assert len(by_dir[10]) == 3
        assert by_dir[11] == [e3]
        lsns = {d: lsns for d, _, lsns in merged}
        assert lsns[10] == [5]  # local lsns preserved
        assert lsns[11] is None

    def test_empty_inputs(self):
        cluster = make()
        assert cluster.servers[0]._merge_pulled([], []) == []


class TestApplyEntriesToList:
    def test_batch_applies_in_timestamp_order_not_merge_order(self):
        """A recast batch arrives remote-logs-first; a rename's delete
        (late timestamp) may precede the create it undoes (early one)."""
        cluster = make()
        server = cluster.servers[0]
        create = ChangeLogEntry(1.0, ChangeOp.CREATE, "moved")
        delete = ChangeLogEntry(2.0, ChangeOp.DELETE, "moved")
        kept = ChangeLogEntry(1.5, ChangeOp.CREATE, "kept")
        merged = server._merge_pulled(
            [{"logs": [(99, [delete])], "lsns": [0]}], [(99, [create, kept], [1, 2])])
        (_dir_id, entries, _lsns), = merged
        assert entries[0] is delete  # merge order puts the remote log first
        assert server._apply_entries_to_list(99, entries) == 1
        assert dir_entry_key(99, "moved") not in server.kv
        assert dir_entry_key(99, "kept") in server.kv

    def test_equal_timestamps_keep_merge_order(self):
        cluster = make()
        server = cluster.servers[0]
        entries = [ChangeLogEntry(3.0, ChangeOp.CREATE, "x"),
                   ChangeLogEntry(3.0, ChangeOp.DELETE, "x")]
        assert server._apply_entries_to_list(5, entries) == 0
        assert dir_entry_key(5, "x") not in server.kv


class TestApplyEntryToList:
    def test_create_then_delete_roundtrip(self):
        cluster = make()
        server = cluster.servers[0]
        e_add = ChangeLogEntry(1.0, ChangeOp.CREATE, "x")
        e_del = ChangeLogEntry(2.0, ChangeOp.DELETE, "x")
        assert server._apply_entry_to_list(99, e_add) == 1
        assert dir_entry_key(99, "x") in server.kv
        assert server._apply_entry_to_list(99, e_del) == -1
        assert dir_entry_key(99, "x") not in server.kv

    def test_reapplication_is_idempotent_for_counts(self):
        """Presence-aware deltas: double-applying an entry adds zero."""
        cluster = make()
        server = cluster.servers[0]
        e = ChangeLogEntry(1.0, ChangeOp.CREATE, "y")
        assert server._apply_entry_to_list(7, e) == 1
        assert server._apply_entry_to_list(7, e) == 0
        e_del = ChangeLogEntry(2.0, ChangeOp.DELETE, "y")
        assert server._apply_entry_to_list(7, e_del) == -1
        assert server._apply_entry_to_list(7, e_del) == 0


class TestUnlockTokens:
    def test_duplicate_release_is_noop(self):
        cluster = make(proactive_enabled=False)
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        cluster.run_op(fs.create("/d/f"))
        # All tokens already released by the switch multicast; releasing a
        # bogus token again must not blow up.
        for server in cluster.servers:
            server.release_unlock_token(424242, applied_sync=False)
            assert not server._pending_unlocks

    def test_watchdog_releases_leaked_locks(self):
        cluster = make(proactive_enabled=False, unlock_watchdog_us=100.0)
        server = cluster.servers[0]
        # Forge a pending unlock with held locks.
        from repro.sim import RWLock

        lock = RWLock(cluster.sim)
        cluster.sim.run_process(cluster.sim.spawn(_acquire(lock), name="acq"))
        log = server.changelogs.log_for(5, fingerprint_of(ROOT_ID, "z"))
        server._pending_unlocks[777] = {
            "locks": [(lock, "w")], "log": log,
            "entry": ChangeLogEntry(1.0, ChangeOp.CREATE, "z"), "lsn": 0,
        }
        server._arm_unlock_watchdog(777)
        cluster.run(until=cluster.sim.now + 500.0)
        assert not lock.write_locked
        assert server.counters.get("unlock_watchdog_fires") == 1


def _acquire(lock):
    yield lock.acquire_write()


class TestGroupBlocks:
    def test_reads_wait_for_inflight_aggregation(self):
        cluster = make(proactive_enabled=False)
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        cluster.run_op(fs.create("/d/f"))
        fp = fingerprint_of(ROOT_ID, "d")
        owner = cluster.server_by_addr(cluster.cmap.dir_owner_by_fp(fp))
        # Block the group manually, issue a statdir, confirm it stalls.
        block = cluster.sim.event()
        owner._group_blocks[fp] = block
        done = []

        def reader():
            value = yield from fs.statdir("/d")
            done.append(value)

        cluster.sim.spawn(reader(), name="reader")
        cluster.run(until=cluster.sim.now + 300.0)
        assert not done  # still blocked
        del owner._group_blocks[fp]
        block.succeed()
        cluster.run(until=cluster.sim.now + 2_000.0)
        assert done and done[0]["entry_count"] == 1


class TestPullLocks:
    def test_pull_waiter_event_reused(self):
        cluster = make()
        server = cluster.servers[0]
        ev1 = server._pull_waiter(42)
        ev2 = server._pull_waiter(42)
        assert ev1 is ev2
        server._pull_locks[42] = []
        server._release_pull_locks(42)
        assert ev1.triggered

    def test_release_without_locks_is_safe(self):
        cluster = make()
        cluster.servers[0]._release_pull_locks(999)  # no-op


class TestFlushAllChangelogs:
    def test_flush_applies_remote_and_local(self):
        cluster = make(proactive_enabled=False)
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        for i in range(6):
            cluster.run_op(fs.create(f"/d/f{i}"))
        assert cluster.total_pending_entries() > 0

        def drive():
            for server in cluster.servers:
                yield cluster.sim.spawn(server.flush_all_changelogs(), name="f")

        cluster.sim.run_process(cluster.sim.spawn(drive(), name="drv"))
        assert cluster.total_pending_entries() == 0
        # Inode is current without any aggregation.
        fp = fingerprint_of(ROOT_ID, "d")
        owner = cluster.server_by_addr(cluster.cmap.dir_owner_by_fp(fp))
        from repro.core import dir_meta_key

        inode = owner.kv.get(dir_meta_key(ROOT_ID, "d"))
        assert inode.entry_count == 6


class TestRecoveryBlocksOps:
    def test_ops_wait_until_end_recovery(self):
        cluster = make()
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        for server in cluster.servers:
            server.begin_recovery()
        done = []

        def op():
            value = yield from fs.create("/d/f")
            done.append(value)

        cluster.sim.spawn(op(), name="op")
        cluster.run(until=cluster.sim.now + 500.0)
        assert not done
        for server in cluster.servers:
            server.end_recovery()
        cluster.run(until=cluster.sim.now + 2_000.0)
        assert done


class TestDoubleInodeLockDiscipline:
    """Characterization: the double-inode flow's lock acquisition order.

    Create/delete/mkdir/rmdir take the parent's change-log READ lock
    first, then the target inode's WRITE lock (ops.py).  Aggregation
    takes change-log WRITE locks, so this ordering is what lets updates
    of one directory proceed concurrently while an aggregation drains
    the log exclusively.  A reordering would be a protocol change.
    """

    def test_create_acquires_changelog_read_before_inode_write(self):
        cluster = make(num_servers=1, proactive_enabled=False)
        server = cluster.servers[0]
        fs = cluster.client(0)
        d_id = cluster.run_op(fs.mkdir("/d"))["id"]

        order = []
        orig_acquire = server._acquire

        def recording(lock, mode):
            order.append((lock, mode))
            return orig_acquire(lock, mode)

        server._acquire = recording
        try:
            cluster.run_op(fs.create("/d/f"))
        finally:
            server._acquire = orig_acquire

        from repro.core import file_meta_key

        cl_lock = server._changelog_lock(d_id)
        inode_lock = server._inode_lock(file_meta_key(d_id, "f"))
        assert (cl_lock, "r") in order
        assert (inode_lock, "w") in order
        assert order.index((cl_lock, "r")) < order.index((inode_lock, "w"))

    def test_mkdir_uses_same_discipline(self):
        cluster = make(num_servers=1, proactive_enabled=False)
        server = cluster.servers[0]
        fs = cluster.client(0)
        d_id = cluster.run_op(fs.mkdir("/d"))["id"]

        order = []
        orig_acquire = server._acquire

        def recording(lock, mode):
            order.append((lock, mode))
            return orig_acquire(lock, mode)

        server._acquire = recording
        try:
            cluster.run_op(fs.mkdir("/d/sub"))
        finally:
            server._acquire = orig_acquire

        from repro.core import dir_meta_key

        cl_lock = server._changelog_lock(d_id)
        inode_lock = server._inode_lock(dir_meta_key(d_id, "sub"))
        assert order.index((cl_lock, "r")) < order.index((inode_lock, "w"))


class TestUnlockTokenLifecycle:
    """Characterization: deferred-unlock tokens drain and locks release."""

    def test_tokens_drain_after_completed_ops(self):
        cluster = make(proactive_enabled=False)
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        for i in range(4):
            cluster.run_op(fs.create(f"/d/f{i}"))
        # The switch's multicast copy released every token; nothing
        # pending, no lock still held anywhere.
        for server in cluster.servers:
            assert not server._pending_unlocks
            for lock in server._inode_locks.values():
                assert not lock.write_locked
            for lock in server._changelog_locks.values():
                assert not lock.write_locked and lock.readers == 0

    def test_release_returns_true_then_false(self):
        from repro.sim import RWLock

        cluster = make(proactive_enabled=False)
        server = cluster.servers[0]
        lock = RWLock(cluster.sim)
        cluster.sim.run_process(cluster.sim.spawn(_acquire(lock), name="acq"))
        log = server.changelogs.log_for(3, fingerprint_of(ROOT_ID, "q"))
        server._pending_unlocks[123] = {
            "locks": [(lock, "w")], "log": log,
            "entry": ChangeLogEntry(1.0, ChangeOp.CREATE, "q"), "lsn": 0,
        }
        assert server.release_unlock_token(123, applied_sync=False) is True
        assert not lock.write_locked  # the deferred unlock released it
        # A duplicate (the other multicast copy) is refused, so exactly
        # one copy is consumed per token.
        assert server.release_unlock_token(123, applied_sync=False) is False
