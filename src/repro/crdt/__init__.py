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
