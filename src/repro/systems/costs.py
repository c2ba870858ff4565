"""Calibrated per-operation CPU cost tables.

All times are CPU-seconds *at Pentium III speed* (the reference
platform, ``speed = 1.0``); a platform with ``speed = s`` executes the
same operation in ``cost / s`` seconds. The values below were fitted
once against the paper's Table III Pentium III column and are checked
in — they are data, not run-time tuning knobs.

Derivation sketch (Pentium III, per-prefix totals on one core are the
serial sum of the stages):

* Scenario 5 (small, no FIB change): 1111.1 tps → 0.90 ms/prefix =
  pkt_rx + msg_parse + decide + policy.
* Scenario 6 (large): 3636.4 tps → 0.275 ms/prefix = decide + policy
  (+ per-message costs / 500); fixes decide + policy ≈ 0.27 ms and the
  per-packet overhead ≈ 0.63 ms.
* Scenario 2 (large, FIB adds): 312.5 tps → 3.20 ms/prefix adds the
  RIB-change + FEA + kernel FIB-install chain ≈ 2.93 ms.
* Scenario 1 (small): 185.2 tps → 5.40 ms/prefix additionally pays the
  per-message IPC costs ≈ 1.57 ms, fixing ipc_rib + ipc_fea.
* Scenarios 3/4 (withdrawals) and 7/8 (replacements) fix the remove and
  replace chains the same way; replacement additionally pays the export
  path (re-advertising the new best route to the other speaker).

The split *across processes* follows Figure 3: xorp_bgp carries parse +
decision, xorp_rib and xorp_fea carry the change propagation, the
kernel carries the FIB syscall, and xorp_policy and xorp_rtrmgr are
comparatively light.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import sub

from repro.bgp.speaker import WorkLog

_MS = 1e-3


@dataclass(frozen=True, slots=True)
class CostModel:
    """Per-operation CPU costs (seconds at reference speed)."""

    # Kernel networking, per packet.
    pkt_rx: float = 0.20 * _MS
    pkt_tx: float = 0.15 * _MS
    # xorp_bgp, per UPDATE message / per decision unit.
    msg_parse: float = 0.43 * _MS
    msg_encode: float = 0.30 * _MS
    # A "decision unit" is one candidate evaluation: scenarios with two
    # candidate routes per prefix (5-8) charge this twice per prefix.
    decide_unit: float = 0.10 * _MS
    # xorp_policy, per policy-rule evaluation.
    policy_eval: float = 0.07 * _MS
    # Per UPDATE message that produced RIB changes: inter-process
    # communication into xorp_rib and xorp_fea.
    ipc_rib_msg: float = 0.80 * _MS
    ipc_fea_msg: float = 0.77 * _MS
    # xorp_rib, per Loc-RIB mutation.
    rib_add: float = 1.00 * _MS
    rib_replace: float = 1.20 * _MS
    rib_remove: float = 0.85 * _MS
    # xorp_fea (user-space half of the FIB push), per route.
    fea_add: float = 0.90 * _MS
    fea_replace: float = 2.00 * _MS
    fea_remove: float = 0.80 * _MS
    # Kernel FIB syscall (system time), per route.
    kfib_add: float = 1.04 * _MS
    kfib_replace: float = 2.80 * _MS
    kfib_remove: float = 1.05 * _MS
    # Export path (xorp_bgp), per re-advertised prefix.
    export_prefix: float = 1.80 * _MS

    def scaled(self, factor: float) -> "CostModel":
        """A uniformly scaled copy (used for ablations, not platforms —
        platforms scale through machine speed instead)."""
        return CostModel(
            **{f.name: getattr(self, f.name) * factor for f in fields(self)}
        )


#: The fitted table all three XORP platforms share; platform speed does
#: the per-architecture scaling, matching the paper's observation that
#: the ordering "tracks the approximate performance differences between
#: the Xeon, Pentium III, and XScale".
XORP_BASE_COSTS = CostModel()


@dataclass(frozen=True, slots=True)
class StageCharges:
    """CPU seconds charged to each pipeline stage for one unit of
    received work (derived from a :class:`WorkLog` delta)."""

    irq: float = 0.0
    bgp: float = 0.0
    policy: float = 0.0
    rib: float = 0.0
    fea: float = 0.0
    kernel_fib: float = 0.0

    def total(self) -> float:
        return self.irq + self.bgp + self.policy + self.rib + self.fea + self.kernel_fib


def charges_for(costs: CostModel, delta: WorkLog) -> StageCharges:
    """Convert the speaker's work ledger for one packet into per-stage
    CPU charges."""
    changed_messages = delta.updates_processed if delta.fib_changes or delta.loc_rib_removes else 0
    rib_changes = delta.loc_rib_adds + delta.loc_rib_replaces + delta.loc_rib_removes
    return StageCharges(
        irq=costs.pkt_rx * delta.packets_received,
        bgp=costs.msg_parse * delta.messages_decoded + costs.decide_unit * delta.decisions,
        policy=costs.policy_eval * delta.policy_evaluations,
        rib=(
            costs.ipc_rib_msg * changed_messages
            + costs.rib_add * delta.loc_rib_adds
            + costs.rib_replace * delta.loc_rib_replaces
            + costs.rib_remove * delta.loc_rib_removes
        ),
        fea=(
            costs.ipc_fea_msg * changed_messages
            + costs.fea_add * delta.fib_adds
            + costs.fea_replace * delta.fib_replaces
            + costs.fea_remove * delta.fib_deletes
        ),
        kernel_fib=(
            costs.kfib_add * delta.fib_adds
            + costs.kfib_replace * delta.fib_replaces
            + costs.kfib_remove * delta.fib_deletes
        ),
    )


def export_charges(costs: CostModel, prefixes_sent: int, updates_sent: int) -> tuple[float, float]:
    """(bgp_seconds, kernel_tx_seconds) for flushing staged exports."""
    bgp = costs.export_prefix * prefixes_sent + costs.msg_encode * updates_sent
    kernel = costs.pkt_tx * updates_sent
    return bgp, kernel


def work_delta(after: WorkLog, before: WorkLog) -> WorkLog:
    """Field-wise ``after - before``."""
    return WorkLog(*map(sub, after.counts(), before.counts()))
