"""Intra-AS routing protocols: OSPF and RIP.

The paper's related work (§II) positions BGP against the two common
intra-AS protocols: OSPF computes shortest-path trees from link-state
information, RIP exchanges distance vectors, and "both use a single
metric ... In BGP, additional policy rules can be used ... This feature
increases the complexity significantly over OSPF and RIP."

This package implements both protocols over a shared topology model so
that complexity claim can be measured rather than asserted — see
``benchmarks/paper/test_protocol_comparison.py``.
"""

from repro.igp.ospf import (
    LinkStateDatabase,
    OspfNetwork,
    OspfRouter,
    RouterLsa,
    shortest_paths,
)
from repro.igp.rip import INFINITY_METRIC, RipNetwork, RipRouter, converge
from repro.igp.topology import Topology

__all__ = [
    "INFINITY_METRIC",
    "LinkStateDatabase",
    "OspfNetwork",
    "OspfRouter",
    "RipNetwork",
    "RipRouter",
    "RouterLsa",
    "Topology",
    "converge",
    "shortest_paths",
]
