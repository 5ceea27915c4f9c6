"""Simulated network fabric and topologies (§5.4).

:class:`Network` connects named hosts through a chain of switch devices.
Every transmitted packet:

1. rolls the :class:`~repro.net.faults.FaultModel` dice (loss / dup /
   reorder);
2. traverses the path's links, paying ``link_latency_us`` per link;
3. is handed to each switch device on the path in order — a device may
   forward, rewrite, multicast, or consume the packet;
4. lands in the destination host's inbox :class:`~repro.sim.Store`.

Two topologies cover the paper's deployments:

* :func:`single_rack_path` — host → ToR switch → host (the programmable
  switch is the ToR, monitoring all rack traffic);
* :func:`leaf_spine_path` — host → leaf → spine → leaf → host, with the
  programmable stale set at the spine (Figure 10).

Fast paths (DESIGN.md §10)
--------------------------
Delivery used to be a spawned generator paying one timeout per link and
per device.  It is now plan-driven: the path's per-link latencies and
device forwarding delays are coalesced into a :class:`_Plan` of absolute
offsets — one heap entry per *non-transparent* device plus one for final
delivery, and zero process allocations.  A passthrough path (no
programmable device) is a single heap entry end to end.  Plans are cached
per routing key when the path function exposes ``plan_key`` (the three
topology factories all do); the timing arithmetic is identical to the old
per-hop walk, so delivery timestamps — and therefore packet arrival order
at the switch and the FIFO tie-break contract of DESIGN.md §9 — are
unchanged.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Iterable, List, Optional, Protocol, Sequence, Tuple

from ..sim import Event, Simulator, Store, stable_hash
from .faults import FaultModel
from .packet import Packet, STALESET_PORT

__all__ = [
    "SwitchDevice",
    "PassthroughSwitch",
    "Network",
    "PathFn",
    "single_rack_path",
    "leaf_spine_path",
    "multi_spine_path",
]


class SwitchDevice(Protocol):  # reprolint: allow[RL006] structural type, never instantiated
    """Anything that can sit on a packet path.

    ``process`` returns the packets leaving the device: usually the input
    unchanged, possibly rewritten (address rewriter), replicated
    (multicast), or an empty list (consumed).  ``latency_us`` is the
    device's forwarding delay.

    Devices whose ``process`` is the identity may set ``is_transparent``
    to True; the network then pays their latency without invoking them.
    Unknown devices default to stateful (always invoked).
    """

    latency_us: float

    def process(self, packet: Packet) -> List[Packet]:
        ...


class PassthroughSwitch:  # reprolint: allow[RL006] one per network, built at boot
    """A plain, non-programmable switch: forwards everything untouched."""

    is_transparent = True

    def __init__(self, latency_us: float = 0.0):
        self.latency_us = latency_us

    def process(self, packet: Packet) -> List[Packet]:
        return [packet]


#: A path function maps a packet to the ordered device chain it traverses.
PathFn = Callable[[Packet], List[SwitchDevice]]


def single_rack_path(devices: Sequence[SwitchDevice]) -> PathFn:
    """All pairs of hosts communicate through the same ToR device chain."""
    chain = list(devices)

    def path(packet: Packet) -> List[SwitchDevice]:
        return chain

    path.plan_key = lambda packet: 0  # one chain for everyone
    return path


def leaf_spine_path(
    rack_of: Dict[str, int],
    leaves: Dict[int, SwitchDevice],
    spine: SwitchDevice,
) -> PathFn:
    """Leaf-spine routing with the programmable stale set at the spine.

    ToR switches no longer see all traffic in a multi-rack deployment
    (Figure 10), so the stale set moves to the spine.  SwitchFS routes
    every packet that carries (or may trigger) a stale-set operation
    through the spine; we model that by climbing to the spine for all
    traffic — intra-rack round trips just pay the two extra links the
    detour costs, which is exactly the trade the paper describes.
    """

    def path(packet: Packet) -> List[SwitchDevice]:
        return [leaves[rack_of[packet.src]], spine, leaves[rack_of[packet.dst]]]

    path.plan_key = lambda packet: (rack_of[packet.src], rack_of[packet.dst])
    return path


def multi_spine_path(
    rack_of: Dict[str, int],
    leaves: Dict[int, SwitchDevice],
    spines: Sequence[SwitchDevice],
) -> PathFn:
    """Multiple programmable spine switches (§5.4 scaling).

    Directories are range-partitioned over the spines by fingerprint:
    a packet carrying a stale-set operation is routed through the spine
    designated for its fingerprint, so each spine holds a disjoint slice
    of the stale set.  Packets without stale-set headers balance over the
    spines by a stable flow hash (:func:`~repro.sim.stable_hash`).
    """
    spines = list(spines)
    if not spines:
        raise ValueError("need at least one spine switch")
    k = len(spines)

    def spine_index(packet: Packet) -> int:
        if packet.port == STALESET_PORT and packet.header is not None:
            return packet.header.fingerprint % k
        return stable_hash(f"{packet.src}>{packet.dst}") % k

    def path(packet: Packet) -> List[SwitchDevice]:
        idx = spine_index(packet)
        return [leaves[rack_of[packet.src]], spines[idx], leaves[rack_of[packet.dst]]]

    # The routing key must include the chosen spine: two stale-set packets
    # between the same pair of hosts can take different spines depending
    # on their fingerprint.
    path.plan_key = lambda packet: (
        rack_of[packet.src], rack_of[packet.dst], spine_index(packet)
    )
    return path


class _Plan:
    """A compiled path: absolute time offsets instead of per-hop timeouts.

    ``hops`` holds ``(offset_us, device)`` for every *non-transparent*
    device on the path, where ``offset_us`` is the device's processing
    time relative to transmission; ``total_us`` is the end-to-end delivery
    offset.  Both fold in every link latency and every device latency
    (including transparent ones), reproducing exactly the timing of the
    old walk: device *i* processes at ``(i+1)·link + Σ_{j≤i} lat_j`` and
    delivery lands at ``(n+1)·link + Σ lat_j``.
    """

    __slots__ = ("hops", "total_us")

    def __init__(self, devices: Sequence[SwitchDevice], link_latency_us: float):
        t = link_latency_us
        hops: List[Tuple[float, SwitchDevice]] = []
        for device in devices:
            t += device.latency_us
            if not getattr(device, "is_transparent", False):
                hops.append((t, device))
            t += link_latency_us
        self.hops = hops
        self.total_us = t


class _Hop(Event):
    """Self-scheduling delivery event: one heap entry per remaining stage.

    Like a booting :class:`~repro.sim.kernel.Process`, a ``_Hop`` is its
    own heap entry; ``_run_callbacks`` runs the stage directly (no
    generator, no process).  The same instance is re-pushed for each
    subsequent stage, so a delivery allocates exactly one event no matter
    how many programmable devices it crosses.  ``idx == len(plan.hops)``
    is the terminal stage: hand the in-flight packets to their inboxes.
    """

    __slots__ = ("net", "plan", "idx", "packets", "base")

    def __init__(self, net: "Network", plan: _Plan, packets: List[Packet], base: float):
        Event.__init__(self, net.sim)
        self.net = net
        self.plan = plan
        self.idx = 0
        self.packets = packets
        self.base = base
        hops = plan.hops
        when = base + (hops[0][0] if hops else plan.total_us)
        sim = net.sim
        # Inlined Simulator.schedule_at: this push runs once per network
        # hop, the hottest schedule site in the datapath — the method-call
        # indirection measurably costs on BENCH_rpc.
        heapq.heappush(sim._heap, (when, next(sim._counter), self))  # reprolint: allow[private-access] documented scheduler fast path

    def _run_callbacks(self) -> None:
        self._processed = True
        plan = self.plan
        idx = self.idx
        hops = plan.hops
        if idx == len(hops):
            self.net._arrive(self.packets)
            return
        device = hops[idx][1]
        out: List[Packet] = []
        try:
            for p in self.packets:
                out.extend(device.process(p))
        except Exception:  # noqa: BLE001 - parity with the old spawned
            # deliver process, whose failure was recorded on an unobserved
            # process event; a faulty device consumes the packet either way.
            return
        if not out:
            return  # consumed (e.g. dropped by policy)
        idx += 1
        self.idx = idx
        self.packets = out
        when = self.base + (hops[idx][0] if idx < len(hops) else plan.total_us)
        sim = self.sim
        # Inlined Simulator.schedule_at (see __init__).
        heapq.heappush(sim._heap, (when, next(sim._counter), self))  # reprolint: allow[private-access] documented scheduler fast path


class Network:  # reprolint: allow[RL006] one per cluster, built at boot
    """The fabric: registers hosts, owns the path function, moves packets."""

    def __init__(
        self,
        sim: Simulator,
        path_fn: "PathFn",
        link_latency_us: float = 0.75,
        faults: Optional[FaultModel] = None,
    ):
        if link_latency_us < 0:
            raise ValueError(f"link latency must be >= 0, got {link_latency_us}")
        self.sim = sim
        self._path_fn = path_fn
        self._plan_key_fn = getattr(path_fn, "plan_key", None)
        self._plans: Dict[object, _Plan] = {}
        self.link_latency_us = link_latency_us
        self.faults = faults or FaultModel.reliable()
        self._inboxes: Dict[str, Store] = {}
        self.packets_sent = 0
        self.packets_delivered = 0
        self.packets_dropped = 0

    # -- host management ---------------------------------------------------
    def attach(self, addr: str) -> Store:
        """Register a host and return its inbox store."""
        if addr in self._inboxes:
            raise ValueError(f"host address already attached: {addr}")
        inbox = Store(self.sim)
        self._inboxes[addr] = inbox
        return inbox

    def inbox(self, addr: str) -> Store:
        return self._inboxes[addr]

    @property
    def hosts(self) -> Iterable[str]:
        return self._inboxes.keys()

    # -- transmission --------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Transmit *packet* asynchronously (fire and forget, UDP-style)."""
        self.packets_sent += 1
        faults = self.faults
        if faults.active:
            decision = faults.decide()
            if decision.dropped:
                self.packets_dropped += 1
                return
        else:
            decision = None  # fault-free: exactly one on-time copy
        try:
            plan = self._plan_for(packet)
        except Exception:  # noqa: BLE001 - an unroutable packet used to
            # fail an unobserved deliver process; keep the silent-UDP-drop
            # semantics instead of raising into the sender.
            self.packets_dropped += 1
            return
        now = self.sim.now
        if decision is None:
            _Hop(self, plan, [packet], now)
            return
        for extra in decision.extra_delays:
            copy = packet if decision.copies == 1 else packet.clone()
            _Hop(self, plan, [copy], now + extra)

    def _plan_for(self, packet: Packet) -> _Plan:
        key_fn = self._plan_key_fn
        if key_fn is None:
            # Custom path function (tests): no cache contract, recompile.
            return _Plan(self._path_fn(packet), self.link_latency_us)
        key = key_fn(packet)
        plan = self._plans.get(key)
        if plan is None:
            plan = _Plan(self._path_fn(packet), self.link_latency_us)
            self._plans[key] = plan
        return plan

    def _arrive(self, packets: List[Packet]) -> None:
        inboxes = self._inboxes
        for p in packets:
            box = inboxes.get(p.dst)
            if box is None:
                # Destination unknown (e.g. crashed and detached): UDP
                # silently drops.
                self.packets_dropped += 1
                continue
            self.packets_delivered += 1
            box.put(p)
