"""The programmable switch data plane (§5.2, Figure 7).

:class:`ProgrammableSwitch` is a :class:`~repro.net.topology.SwitchDevice`
combining the paper's components:

* **Parser** — extracts the stale-set header from packets on the reserved
  stale-set UDP port (exercising the byte codec end-to-end);
* **Router** — regular packets forward by destination; stale-set packets
  route to the pipe owning their fingerprint prefix;
* **Stale set** — one per egress pipe (pipes do not share state);
* **Address rewriter** — on insert overflow, rewrites the destination to
  the directory's owner server so updates fall back to synchronous mode;
* **Packet mirroring** — a packet whose destination lives in a different
  pipe than its fingerprint is mirrored across pipes (counted; it models
  the recirculation cost of prior work [22, 72]).

Behaviour per stale-set op:

* ``QUERY``  — RET := membership; forward to the original destination.
* ``INSERT`` — on success RET := 1 and the packet is **multicast** to both
  the destination (client: operation complete) and the source (server:
  unlock notification) — workflow step 6/7 of Figure 4.  On overflow
  RET := 0 and the packet is **redirected** to the fingerprint's owner
  server for synchronous fallback.
* ``REMOVE`` — executed through the per-source SEQ duplicate filter;
  forwarded to the original destination either way.

With a :class:`~repro.switchfab.dentry_cache.DentryCache` provisioned
(``cache_config``), three more ops are handled (DESIGN.md §15):

* ``LOOKUP`` — on a cache hit the switch **fabricates the RPC reply**
  (RET := 1, destination rewritten back to the requesting client) and
  consumes the request: the server is never touched.  On a miss the
  request forwards unchanged, so the server sees the ``LOOKUP`` header
  and attaches a ``FILL`` to its reply.
* ``FILL`` — a successful server reply installs a cache line on its way
  back to the client; the reply forwards unchanged.
* ``EVICT`` — invalidates any matching line and is **consumed** (the
  switch is the packet's real destination).  Stale-set ``INSERT`` s also
  evict the matching line, coupling the cache to the coherence machinery.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..net.packet import Packet, StaleSetHeader, StaleSetOp, STALESET_PORT, FINGERPRINT_BITS
from ..net.rpc import RpcResponse
from ..sim import stable_hash
from .dentry_cache import DentryCache, DentryCacheConfig
from .stale_set import StaleSet, StaleSetConfig

__all__ = ["ProgrammableSwitch"]


class ProgrammableSwitch:
    """Tofino-style switch model with per-pipe stale sets."""

    def __init__(
        self,
        stale_config: Optional[StaleSetConfig] = None,
        num_pipes: int = 1,
        latency_us: float = 0.05,
        fingerprint_owner: Optional[Callable[[int], str]] = None,
        pipe_of_host: Optional[Callable[[str], int]] = None,
        cache_config: Optional[DentryCacheConfig] = None,
    ):
        if num_pipes < 1 or (num_pipes & (num_pipes - 1)) != 0:
            raise ValueError(f"num_pipes must be a power of two, got {num_pipes}")
        self.latency_us = latency_us
        self.num_pipes = num_pipes
        self._pipe_bits = num_pipes.bit_length() - 1
        self._pipes: List[StaleSet] = [
            StaleSet(stale_config) for _ in range(num_pipes)
        ]
        self._caches: List[Optional[DentryCache]] = [
            DentryCache(cache_config) if cache_config is not None else None
            for _ in range(num_pipes)
        ]
        self._fingerprint_owner = fingerprint_owner
        self._pipe_of_host = pipe_of_host or (
            lambda host: stable_hash(host) % num_pipes
        )
        # Host → pipe results are stable for a run; memoise so the hot
        # per-packet mirror check is one dict probe instead of a callback.
        self._pipe_of_host_cache: dict = {}
        self.mirrored = 0
        self.forwarded = 0
        self.multicasts = 0
        self.redirects = 0
        self.cache_replies = 0
        self.cache_flushes = 0

    # -- control plane hooks -------------------------------------------------
    def install_fingerprint_owner(self, fn: Callable[[int], str]) -> None:
        """Install the fingerprint → owner-server route (used for fallback)."""
        self._fingerprint_owner = fn

    def reset(self) -> None:
        """Switch failure: all data-plane state is lost (§4.4.2).

        The dentry cache cold-starts with the stale set — a rebooted
        switch serves no hits until ``FILL`` replies repopulate it.
        """
        for pipe in self._pipes:
            pipe.reset()
        for cache in self._caches:
            if cache is not None:
                cache.reset()

    def flush_cache(self) -> None:
        """Drop every dentry-cache line (epoch cutover, DESIGN.md §15).

        Unlike :meth:`reset` this preserves the stale set: migration
        reconciles the stale set explicitly, but cached replies may name
        owners from the outgoing epoch and are simply invalidated.
        """
        for cache in self._caches:
            if cache is not None:
                cache.reset()
        self.cache_flushes += 1

    @property
    def occupancy(self) -> int:
        return sum(p.occupancy for p in self._pipes)

    @property
    def cache_enabled(self) -> bool:
        return self._caches[0] is not None

    @property
    def cache_occupancy(self) -> int:
        return sum(c.occupancy for c in self._caches if c is not None)

    @property
    def cache_capacity(self) -> int:
        return sum(c.capacity for c in self._caches if c is not None)

    def pipe(self, idx: int) -> StaleSet:
        return self._pipes[idx]

    def stale_set_for(self, fingerprint: int) -> StaleSet:
        return self._pipes[self._pipe_index(fingerprint)]

    def dentry_cache_for(self, fingerprint: int) -> Optional[DentryCache]:
        return self._caches[self._pipe_index(fingerprint)]

    def caches(self) -> List[DentryCache]:
        """The provisioned per-pipe dentry caches (empty when disabled)."""
        return [c for c in self._caches if c is not None]

    def _pipe_index(self, fingerprint: int) -> int:
        if self.num_pipes == 1:
            return 0
        return (fingerprint >> (FINGERPRINT_BITS - self._pipe_bits)) & (self.num_pipes - 1)

    # -- data plane -----------------------------------------------------------
    def process(self, packet: Packet) -> List[Packet]:
        if packet.port != STALESET_PORT:
            self.forwarded += 1
            return [packet]
        assert packet.header is not None
        # Parser: run the real byte codec so header layout stays honest.
        header = StaleSetHeader.unpack(packet.header.pack())
        pipe_idx = self._pipe_index(header.fingerprint)
        stale_set = self._pipes[pipe_idx]
        cache = self._pipe_of_host_cache
        dst_pipe = cache.get(packet.dst)
        if dst_pipe is None:
            dst_pipe = cache[packet.dst] = self._pipe_of_host(packet.dst)
        if dst_pipe != pipe_idx:
            # Destination port belongs to another pipe: mirror to reach it.
            self.mirrored += 1

        if header.op == StaleSetOp.QUERY:
            present = stale_set.query(header.fingerprint)
            self.forwarded += 1
            return [packet.clone(header=header.with_ret(1 if present else 0))]

        if header.op == StaleSetOp.LOOKUP:
            dentry_cache = self._caches[pipe_idx]
            if dentry_cache is not None:
                value = dentry_cache.lookup(header.fingerprint)
                if value is not None:
                    # Hit: fabricate the RPC reply at the switch and turn
                    # the packet around — the server is never touched.
                    # RET := 1 marks the reply as switch-served so the
                    # client can bucket its latency separately.
                    self.cache_replies += 1
                    response = RpcResponse(rpc_id=packet.payload.rpc_id, value=value)
                    return [
                        packet.clone(
                            dst=packet.src, payload=response, header=header.with_ret(1)
                        )
                    ]
            # Miss (or cache not provisioned): the request proceeds to the
            # server, which sees the LOOKUP header and attaches a FILL.
            self.forwarded += 1
            return [packet]

        if header.op == StaleSetOp.FILL:
            dentry_cache = self._caches[pipe_idx]
            payload = packet.payload
            if (
                dentry_cache is not None
                and isinstance(payload, RpcResponse)
                and payload.error is None
            ):
                # Opportunistic fill on the return path; error replies are
                # never cached (a later retry may succeed).
                dentry_cache.fill(header.fingerprint, payload.value)
            self.forwarded += 1
            return [packet]

        if header.op == StaleSetOp.EVICT:
            dentry_cache = self._caches[pipe_idx]
            if dentry_cache is not None:
                dentry_cache.invalidate(header.fingerprint)
            # The switch is the EVICT's real destination: consume it.
            return []

        if header.op == StaleSetOp.INSERT:
            dentry_cache = self._caches[pipe_idx]
            if dentry_cache is not None:
                # Stale-set-coupled eviction (DESIGN.md §15): a directory
                # going scattered drops its cached lookup line even before
                # any explicit EVICT arrives.
                dentry_cache.invalidate(header.fingerprint)
            ok = stale_set.insert(header.fingerprint)
            if ok:
                out = packet.clone(header=header.with_ret(1))
                self.multicasts += 1
                # Multicast: to the client (completion) and back to the
                # sending server (unlock notification).
                return [out, out.clone(dst=packet.src)]
            if self._fingerprint_owner is None:
                raise RuntimeError(
                    "stale-set overflow but no fingerprint->owner route installed"
                )
            self.redirects += 1
            fallback_dst = self._fingerprint_owner(header.fingerprint)
            return [packet.clone(dst=fallback_dst, header=header.with_ret(0))]

        if header.op == StaleSetOp.REMOVE:
            stale_set.remove(header.fingerprint, source=packet.src, seq=header.seq)
            self.forwarded += 1
            return [packet]

        # NONE: the header was attached for transport symmetry; forward.
        self.forwarded += 1
        return [packet]
