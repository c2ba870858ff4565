"""Workload generation: synthetic routing tables, UPDATE packet streams,
and cross-traffic load descriptions.

The paper injects "a large routing table" from real speakers; we
generate a synthetic one with a CIDR-realistic prefix-length mix
(:mod:`repro.workload.tablegen`) and build byte-exact UPDATE packet
streams for each benchmark phase (:mod:`repro.workload.updates`).
Everything is seeded and deterministic — the repeatability the paper's
benchmark design calls for.
"""

from repro.workload.astopo import (
    AsTopology,
    Relationship,
    generate_policy_table,
    valley_free_paths,
)
from repro.workload.crosstraffic import CrossTrafficLoad, sweep_levels
from repro.workload.tablegen import RouteEntry, SyntheticTable, generate_table
from repro.workload.updates import UpdateStreamBuilder

__all__ = [
    "AsTopology",
    "CrossTrafficLoad",
    "Relationship",
    "RouteEntry",
    "SyntheticTable",
    "UpdateStreamBuilder",
    "generate_policy_table",
    "generate_table",
    "sweep_levels",
    "valley_free_paths",
]
