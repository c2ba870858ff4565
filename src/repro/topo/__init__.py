"""repro.topo: internet-scale multi-router AS-graph simulation.

ROADMAP open item 1: lift the paper's single-router measurement to
topology scale. An :class:`~repro.workload.astopo.AsTopology` becomes a
live network (:class:`TopologyHarness`) — one uncosted speaker per AS,
delayed links, compiled Gao–Rexford policies, per-peer MRAI — and three
benchmark families (convergence, withdraw-storm path exploration,
churn) run on it through the grid, cached and golden-gated like any
scenario cell.

Layout:

* :mod:`repro.topo.wiring` — reusable speaker/session wiring (the
  refactor out of the two-speaker harness assumptions);
* :mod:`repro.topo.policy` — Gao–Rexford valley-free policies compiled
  to per-peer :mod:`repro.bgp.policy` filter chains;
* :mod:`repro.topo.network` — the harness, nodes, links, and the
  topology-wide sanitizer;
* :mod:`repro.topo.families` — :class:`TopoCell` and the benchmark
  family runners.
"""

from repro.topo.families import (
    TOPO_FAMILIES,
    NodeReport,
    TopoCell,
    TopoResult,
    build_harness,
    default_topo_grid,
    pick_origins,
    run_topo_cell,
)
from repro.topo.network import (
    Link,
    SpeakerNode,
    TopologyHarness,
    TopologySanitizer,
    as_address,
    origin_prefix,
    peer_name,
)
from repro.topo.policy import (
    LOCAL_PREF_CUSTOMER,
    LOCAL_PREF_PEER,
    LOCAL_PREF_PROVIDER,
    TAG_CUSTOMER,
    TAG_PEER,
    TAG_PROVIDER,
    export_policy,
    import_policy,
)
from repro.topo.wiring import (
    WiringError,
    establish_session,
    handshake_pair,
    wire_oneway,
)

__all__ = [
    "TOPO_FAMILIES",
    "NodeReport",
    "TopoCell",
    "TopoResult",
    "build_harness",
    "default_topo_grid",
    "pick_origins",
    "run_topo_cell",
    "Link",
    "SpeakerNode",
    "TopologyHarness",
    "TopologySanitizer",
    "as_address",
    "origin_prefix",
    "peer_name",
    "LOCAL_PREF_CUSTOMER",
    "LOCAL_PREF_PEER",
    "LOCAL_PREF_PROVIDER",
    "TAG_CUSTOMER",
    "TAG_PEER",
    "TAG_PROVIDER",
    "export_policy",
    "import_policy",
    "WiringError",
    "establish_session",
    "handshake_pair",
    "wire_oneway",
]
