"""Discrete-event simulation substrate.

Everything in the reproduction executes on this kernel: a deterministic
event loop with generator-based processes (:mod:`repro.sim.kernel`),
contention primitives for cores and locks (:mod:`repro.sim.resources`),
measurement helpers (:mod:`repro.sim.stats`), and seeded randomness
(:mod:`repro.sim.rand`).
"""

from .kernel import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .rand import (
    AliasTable,
    ZipfGenerator,
    make_rng,
    stable_hash,
    weighted_choice,
    zipf_weights,
)
from .resources import Lock, Resource, RWLock, Store
from .stats import Counter, LatencyRecorder, PhaseStats, ThroughputMeter, percentile

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
    "Resource",
    "Lock",
    "RWLock",
    "Store",
    "LatencyRecorder",
    "PhaseStats",
    "ThroughputMeter",
    "Counter",
    "percentile",
    "make_rng",
    "stable_hash",
    "ZipfGenerator",
    "weighted_choice",
    "AliasTable",
    "zipf_weights",
]
