"""Unit tests for the cost models and work-to-charge mapping."""

import pytest

from repro.bgp.speaker import WorkLog
from repro.systems.costs import (
    XORP_BASE_COSTS,
    CostModel,
    StageCharges,
    charges_for,
    export_charges,
)


class TestCostModel:
    def test_scaled(self):
        doubled = XORP_BASE_COSTS.scaled(2.0)
        assert doubled.pkt_rx == pytest.approx(2 * XORP_BASE_COSTS.pkt_rx)
        assert doubled.kfib_replace == pytest.approx(2 * XORP_BASE_COSTS.kfib_replace)

    def test_all_costs_positive(self):
        for name in CostModel.__dataclass_fields__:
            assert getattr(XORP_BASE_COSTS, name) > 0, name


class TestChargesFor:
    def test_no_change_announcement(self):
        delta = WorkLog(
            packets_received=1,
            messages_decoded=1,
            prefixes_announced=1,
            decisions=2,
            policy_evaluations=1,
        )
        charges = charges_for(XORP_BASE_COSTS, delta.counts())
        assert charges.irq == pytest.approx(XORP_BASE_COSTS.pkt_rx)
        assert charges.bgp == pytest.approx(
            XORP_BASE_COSTS.msg_parse + 2 * XORP_BASE_COSTS.decide_unit
        )
        assert charges.policy == pytest.approx(XORP_BASE_COSTS.policy_eval)
        assert charges.rib == 0.0
        assert charges.fea == 0.0
        assert charges.kernel_fib == 0.0

    def test_fib_add_chain(self):
        delta = WorkLog(
            packets_received=1,
            messages_decoded=1,
            updates_processed=1,
            prefixes_announced=1,
            decisions=1,
            policy_evaluations=1,
            fib_adds=1,
        )
        charges = charges_for(XORP_BASE_COSTS, delta.counts())
        assert charges.rib == pytest.approx(
            XORP_BASE_COSTS.ipc_rib_msg + XORP_BASE_COSTS.rib_add
        )
        assert charges.fea == pytest.approx(
            XORP_BASE_COSTS.ipc_fea_msg + XORP_BASE_COSTS.fea_add
        )
        assert charges.kernel_fib == pytest.approx(XORP_BASE_COSTS.kfib_add)

    def test_ipc_charged_per_message_not_per_prefix(self):
        small = WorkLog(updates_processed=1, prefixes_announced=1, fib_adds=1)
        large = WorkLog(updates_processed=1, prefixes_announced=500, fib_adds=500)
        c_small = charges_for(XORP_BASE_COSTS, small.counts())
        c_large = charges_for(XORP_BASE_COSTS, large.counts())
        ipc = XORP_BASE_COSTS.ipc_rib_msg
        assert c_small.rib == pytest.approx(ipc + XORP_BASE_COSTS.rib_add)
        assert c_large.rib == pytest.approx(ipc + 500 * XORP_BASE_COSTS.rib_add)

    def test_no_ipc_without_changes(self):
        delta = WorkLog(updates_processed=1, prefixes_announced=500, decisions=1000)
        charges = charges_for(XORP_BASE_COSTS, delta.counts())
        assert charges.rib == 0.0
        assert charges.fea == 0.0

    def test_withdraw_chain(self):
        delta = WorkLog(
            updates_processed=1,
            prefixes_withdrawn=1,
            decisions=1,
            fib_deletes=1,
        )
        charges = charges_for(XORP_BASE_COSTS, delta.counts())
        assert charges.kernel_fib == pytest.approx(XORP_BASE_COSTS.kfib_remove)
        assert charges.fea > 0

    def test_total(self):
        charges = StageCharges(irq=1, bgp=2, policy=3, rib=4, fea=5, kernel_fib=6)
        assert charges.total() == 21


class TestExportCharges:
    def test_zero_exports(self):
        assert export_charges(XORP_BASE_COSTS, 0, 0) == (0.0, 0.0)

    def test_per_prefix_and_per_update(self):
        bgp, kernel = export_charges(XORP_BASE_COSTS, 500, 1)
        assert bgp == pytest.approx(
            500 * XORP_BASE_COSTS.export_prefix + XORP_BASE_COSTS.msg_encode
        )
        assert kernel == pytest.approx(XORP_BASE_COSTS.pkt_tx)
