"""Conflict-free replicated data types (paper §IV-B, ref [25]).

State-based CRDTs: each replica mutates locally and merges peer states
through a join-semilattice ``merge``, guaranteeing convergence without
coordination — the paper's recommended tool for geographic scalability
and for availability under partition (§V-C, CAP).  The property-based
test suite verifies the lattice laws (commutativity, associativity,
idempotence) for every type here.

:mod:`repro.crdt.replication` gossips replica states over the simulated
network; :mod:`repro.crdt.store` adds the CP (coordination-based)
baseline used by experiment E9.
"""

from repro.crdt.base import StateCrdt
from repro.crdt.counters import GCounter
from repro.crdt.registers import LWWRegister
from repro.crdt.sets import ORSet
from repro.crdt.maps import LWWMap
from repro.crdt.replication import AntiEntropyConfig, CrdtReplica, NetworkReplicator
from repro.crdt.store import CoordinatedStore, StoreClient

__all__ = [
    "AntiEntropyConfig",
    "CoordinatedStore",
    "CrdtReplica",
    "GCounter",
    "LWWMap",
    "LWWRegister",
    "NetworkReplicator",
    "ORSet",
    "StateCrdt",
    "StoreClient",
]
