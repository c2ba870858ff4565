"""The BGP benchmark: the paper's primary contribution.

Eight scenarios (:mod:`repro.benchmark.scenarios`, paper Table I) are
driven through the two-speaker / three-phase methodology of Figure 1 by
:func:`repro.benchmark.harness.run_scenario`, which reports transactions
per second for the measured phase plus the CPU-load and forwarding-rate
time series behind the paper's figures.
"""

from repro.benchmark.harness import (
    MultiPeerResult,
    PhaseTrace,
    ScenarioResult,
    StallDiagnostics,
    StallError,
    Watchdog,
    run_multipeer_startup,
    run_scenario,
    stream_interleaved,
    stream_packets,
)
from repro.benchmark.chain import ChainResult, run_chain_propagation
from repro.benchmark.scenarios import SCENARIOS, Scenario
from repro.benchmark.report import format_table
from repro.benchmark.stability import KeepaliveProbe, StabilityReport, offer_at_rate

__all__ = [
    "ChainResult",
    "KeepaliveProbe",
    "MultiPeerResult",
    "PhaseTrace",
    "SCENARIOS",
    "Scenario",
    "ScenarioResult",
    "StabilityReport",
    "StallDiagnostics",
    "StallError",
    "Watchdog",
    "format_table",
    "offer_at_rate",
    "run_chain_propagation",
    "run_multipeer_startup",
    "run_scenario",
    "stream_interleaved",
    "stream_packets",
]
