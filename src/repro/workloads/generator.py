"""Operation-stream generators.

An :class:`OpStream` hands out operation *thunks*: callables that take a
:class:`~repro.core.LibFS` and return the generator performing one
operation.  Streams encode the experiment's access pattern:

* which directory each op targets (uniform, Zipf-skewed, or a single
  shared directory);
* which file (fresh names for create, existing names for stat/delete);
* which operation (a fixed op, or sampled from an
  :class:`~repro.workloads.mixes.OpMix`).

Streams are deterministic given their seed, so runs replay identically.
"""

from __future__ import annotations

import random
import zlib
from typing import Callable, Dict, Generator, List, Optional, Tuple

from ..core.client import LibFS
from ..core.errors import FSError
from ..sim import AliasTable, ZipfGenerator, make_rng
from .mixes import OpMix
from .population import Population

__all__ = ["OpThunk", "OpStream", "FixedOpStream", "MixStream", "safe_op"]

OpThunk = Callable[[LibFS], Generator]


def safe_op(fs: LibFS, gen: Generator, swallow: Tuple[str, ...]) -> Generator:
    """Run *gen*, swallowing expected FS errors (e.g. racing deletes)."""
    try:
        return (yield from gen)
    except FSError as exc:
        if exc.code in swallow:
            return {"status": exc.code}
        raise


class OpStream:
    """Base stream: subclasses implement :meth:`next_thunk`."""

    def __init__(self, name: str):
        self.name = name
        self.issued = 0

    def next_thunk(self) -> OpThunk:
        raise NotImplementedError

    def take(self, uid: int = 0) -> OpThunk:
        """Hand out the next op thunk, stamped with the issuing user id.

        *uid* is the logical user on whose behalf the op runs (always 0
        for the legacy closed-loop harness); the client-population engine
        threads real user ids through so per-user accounting can follow
        the thunk to completion.
        """
        self.issued += 1
        thunk = self.next_thunk()
        if not hasattr(thunk, "op_name"):
            thunk.op_name = getattr(self, "op", self.name)
        thunk.uid = uid
        return thunk


class FixedOpStream(OpStream):
    """All operations are the same type, spread over a population.

    ``op`` ∈ {create, delete, mkdir, rmdir, stat, open, close, statdir,
    readdir}.  Directory choice: "uniform" | "zipf" | "single".  create
    uses fresh names; delete/stat/open target pre-populated files.
    """

    def __init__(
        self,
        op: str,
        population: Population,
        seed: int = 1,
        dir_choice: str = "uniform",
        zipf_theta: float = 0.99,
    ):
        super().__init__(f"fixed-{op}")
        self.op = op
        self.pop = population
        self._rng = make_rng(seed, f"stream-{op}")
        self._dirs = population.dir_paths
        if dir_choice == "zipf":
            self._zipf: Optional[ZipfGenerator] = ZipfGenerator(
                len(self._dirs), zipf_theta, make_rng(seed, "zipf")
            )
        else:
            self._zipf = None
        self._dir_choice = dir_choice
        self._create_seq: Dict[str, int] = {}
        self._mkdir_seq = 0
        self._delete_seq: Dict[str, int] = {}

    def _pick_dir(self) -> str:
        if self._dir_choice == "single" or len(self._dirs) == 1:
            return self._dirs[0]
        if self._zipf is not None:
            return self._dirs[self._zipf.sample()]
        return self._dirs[self._rng.randrange(len(self._dirs))]

    def next_thunk(self) -> OpThunk:
        op = self.op
        d = self._pick_dir()
        thunk = self._thunk_for(op, d)
        # Every thunk carries its directory: partitioned mode
        # (repro.bench.parallel) routes ops by it.
        thunk.dir_path = d
        return thunk

    def _thunk_for(self, op: str, d: str) -> OpThunk:
        if op == "create":
            seq = self._create_seq.get(d, 0)
            self._create_seq[d] = seq + 1
            path = f"{d}/new{seq}"
            return lambda fs: fs.create(path)
        if op == "delete":
            seq = self._delete_seq.get(d, 0)
            if seq < self.pop.files_per_dir:
                self._delete_seq[d] = seq + 1
                path = f"{d}/{self.pop.file_name(seq)}"
            else:  # ran out of pre-populated files: delete what we created
                created = self._create_seq.get(d, 0)
                path = f"{d}/new{self._rng.randrange(max(1, created))}"
            return lambda fs: safe_op(fs, fs.delete(path), ("ENOENT",))
        if op in ("stat", "open", "close"):
            idx = self._rng.randrange(max(1, self.pop.files_per_dir))
            path = f"{d}/{self.pop.file_name(idx)}"
            return lambda fs: getattr(fs, op)(path)
        if op == "mkdir":
            self._mkdir_seq += 1
            path = f"{d}/sub{self._mkdir_seq}"
            return lambda fs: fs.mkdir(path)
        if op == "rmdir":
            # rmdir what a paired mkdir created: streams for rmdir first
            # create the directory so the op under test is the removal.
            self._mkdir_seq += 1
            path = f"{d}/sub{self._mkdir_seq}"

            def thunk(fs: LibFS) -> Generator:
                yield from fs.mkdir(path)
                return (yield from fs.rmdir(path))

            return thunk
        if op == "statdir":
            return lambda fs: fs.statdir(d)
        if op == "readdir":
            return lambda fs: fs.readdir(d)
        raise ValueError(f"unknown op {op!r}")


class MixStream(OpStream):
    """Operations sampled from an :class:`OpMix` over a population.

    ``skew`` applies the 80/20 rule of §6.6: 80% of operations land in the
    hottest 20% of directories.  Data ops (read/write) are modelled as a
    client-side data-node access of ``data_latency_us`` — the metadata
    cluster is not involved, matching the paper's datanode split.
    """

    def __init__(
        self,
        mix: OpMix,
        population: Population,
        seed: int = 1,
        skew_8020: bool = True,
        data_latency_us: float = 120.0,
        data_enabled: bool = True,
    ):
        super().__init__(f"mix-{mix.name}")
        self.mix = mix
        self.pop = population
        self._rng = make_rng(seed, f"mix-{mix.name}")
        # Precomputed O(1) alias table over the mix probabilities: one
        # uniform draw per op, independent of how many op kinds the mix
        # has (the old weighted_choice linear scan was O(kinds) per op).
        self._op_alias = AliasTable(mix.probs)
        self._dirs = population.dir_paths
        self._skew = skew_8020 and len(self._dirs) >= 5
        self._hot_count = max(1, len(self._dirs) // 5)
        self.data_latency_us = data_latency_us
        self.data_enabled = data_enabled
        self._create_seq: Dict[str, int] = {}
        self._created: Dict[str, List[str]] = {}
        self._mkdir_seq = 0

    def _pick_dir(self) -> str:
        if self._skew and self._rng.random() < 0.8:
            return self._dirs[self._rng.randrange(self._hot_count)]
        return self._dirs[self._rng.randrange(len(self._dirs))]

    def _existing_file(self, d: str) -> str:
        created = self._created.get(d)
        if created and self._rng.random() < 0.3:
            return created[self._rng.randrange(len(created))]
        idx = self._rng.randrange(max(1, self.pop.files_per_dir))
        return f"{d}/{self.pop.file_name(idx)}"

    def next_thunk(self) -> OpThunk:
        op = self.mix.ops[self._op_alias.sample(self._rng)]
        thunk = self._thunk_for(op)
        thunk.op_name = op
        return thunk

    def _thunk_for(self, op: str) -> OpThunk:
        d = self._pick_dir()
        if op == "create":
            seq = self._create_seq.get(d, 0)
            self._create_seq[d] = seq + 1
            path = f"{d}/mx{seq}"
            self._created.setdefault(d, []).append(path)
            return lambda fs: safe_op(fs, fs.create(path), ("EEXIST",))
        if op == "delete":
            created = self._created.get(d)
            if created:
                path = created.pop(self._rng.randrange(len(created)))
            else:
                path = self._existing_file(d)
            return lambda fs: safe_op(fs, fs.delete(path), ("ENOENT",))
        if op in ("stat", "open", "close", "chmod"):
            path = self._existing_file(d)
            method = "stat" if op == "chmod" else op  # chmod modelled as stat-cost
            return lambda fs: safe_op(fs, getattr(fs, method)(path), ("ENOENT",))
        if op in ("read", "write"):
            latency = self.data_latency_us if self.data_enabled else 0.0

            def data_thunk(fs: LibFS) -> Generator:
                yield fs.sim.timeout(latency)
                return {"status": "ok", "data_op": op}

            return data_thunk
        if op == "mkdir":
            self._mkdir_seq += 1
            path = f"{d}/mdir{self._mkdir_seq}"
            return lambda fs: safe_op(fs, fs.mkdir(path), ("EEXIST",))
        if op == "rmdir":
            self._mkdir_seq += 1
            path = f"{d}/mdir-r{self._mkdir_seq}"

            def thunk(fs: LibFS) -> Generator:
                yield from safe_op(fs, fs.mkdir(path), ("EEXIST",))
                return (yield from safe_op(fs, fs.rmdir(path), ("ENOENT", "ENOTEMPTY")))

            return thunk
        if op == "statdir":
            return lambda fs: fs.statdir(d)
        if op == "readdir":
            return lambda fs: fs.readdir(d)
        if op == "rename":
            seq = self._create_seq.get(d, 0)
            self._create_seq[d] = seq + 1
            src = f"{d}/mx-rnsrc{seq}"
            dst_dir = self._pick_dir()
            # crc32, not hash(): str hashes are salted per interpreter, and
            # the stream must not depend on PYTHONHASHSEED.
            dst = f"{dst_dir}/mx-rndst{seq}-{zlib.crc32(d.encode()) % 997}"

            def thunk(fs: LibFS) -> Generator:
                yield from safe_op(fs, fs.create(src), ("EEXIST",))
                return (
                    yield from safe_op(fs, fs.rename(src, dst), ("ENOENT", "EEXIST"))
                )

            return thunk
        raise ValueError(f"unknown op {op!r} in mix {self.mix.name}")
