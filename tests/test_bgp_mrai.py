"""Unit tests for the MinRouteAdvertisementInterval gate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.mrai import DEFAULT_EBGP_INTERVAL, MraiLimiter
from repro.net.addr import IPv4Address, Prefix

P1 = Prefix.parse("192.0.2.0/24")
P2 = Prefix.parse("198.51.100.0/24")
A1 = PathAttributes(as_path=AsPath.from_asns([1]), next_hop=IPv4Address.parse("10.0.0.1"))
A2 = PathAttributes(as_path=AsPath.from_asns([1, 2]), next_hop=IPv4Address.parse("10.0.0.1"))


class TestGate:
    def test_first_advertisement_passes(self):
        gate = MraiLimiter(interval=30.0)
        assert gate.offer(P1, A1, now=0.0) == (P1, A1)
        assert gate.passed == 1

    def test_rapid_second_change_withheld(self):
        gate = MraiLimiter(interval=30.0)
        gate.offer(P1, A1, now=0.0)
        assert gate.offer(P1, A2, now=5.0) is None
        assert gate.withheld == 1
        assert len(gate) == 1

    def test_change_after_interval_passes(self):
        gate = MraiLimiter(interval=30.0)
        gate.offer(P1, A1, now=0.0)
        assert gate.offer(P1, A2, now=31.0) == (P1, A2)

    def test_different_prefixes_independent(self):
        gate = MraiLimiter(interval=30.0)
        gate.offer(P1, A1, now=0.0)
        assert gate.offer(P2, A1, now=1.0) == (P2, A1)

    def test_zero_interval_disables(self):
        gate = MraiLimiter(interval=0.0)
        for t in (0.0, 0.1, 0.2):
            assert gate.offer(P1, A1, now=t) is not None

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            MraiLimiter(interval=-1.0)

    def test_default_interval(self):
        assert MraiLimiter().interval == DEFAULT_EBGP_INTERVAL


class TestCoalescing:
    def test_withheld_changes_coalesce_to_newest(self):
        gate = MraiLimiter(interval=30.0)
        gate.offer(P1, A1, now=0.0)
        gate.offer(P1, A2, now=5.0)   # withheld
        gate.offer(P1, None, now=10.0)  # withdraw, coalesces
        assert gate.coalesced == 1
        released = gate.release_due(now=31.0)
        assert released == [(P1, None)]

    def test_flap_batching_sends_one_update_per_interval(self):
        """Ten flaps inside one interval produce exactly one release —
        the mechanism that aggregates updates into large packets."""
        gate = MraiLimiter(interval=30.0)
        gate.offer(P1, A1, now=0.0)
        for i in range(10):
            gate.offer(P1, A1 if i % 2 else A2, now=1.0 + i)
        assert gate.release_due(now=30.0) == [(P1, A1)]
        assert len(gate) == 0


class TestRelease:
    def test_release_due_respects_interval(self):
        gate = MraiLimiter(interval=30.0)
        gate.offer(P1, A1, now=0.0)
        gate.offer(P1, A2, now=5.0)
        assert gate.release_due(now=20.0) == []
        assert gate.release_due(now=30.0) == [(P1, A2)]

    def test_release_resets_clock(self):
        gate = MraiLimiter(interval=30.0)
        gate.offer(P1, A1, now=0.0)
        gate.offer(P1, A2, now=5.0)
        gate.release_due(now=30.0)
        # A change right after the release is withheld again.
        assert gate.offer(P1, A1, now=31.0) is None

    def test_release_order_deterministic(self):
        gate = MraiLimiter(interval=10.0)
        for prefix in (P2, P1):
            gate.offer(prefix, A1, now=0.0)
            gate.offer(prefix, A2, now=1.0)
        released = gate.release_due(now=20.0)
        assert [p for p, _a in released] == sorted([P1, P2])

    def test_next_release_time(self):
        gate = MraiLimiter(interval=30.0)
        assert gate.next_release_time() is None
        gate.offer(P1, A1, now=0.0)
        gate.offer(P1, A2, now=5.0)
        assert gate.next_release_time() == pytest.approx(30.0)

    def test_reset_forgets_pending_and_history_keeps_counters(self):
        gate = MraiLimiter(interval=30.0)
        gate.offer(P1, A1, now=0.0)
        gate.offer(P1, A2, now=5.0)
        gate.reset()
        assert len(gate) == 0
        assert gate.next_release_time() is None
        assert gate.release_due(now=100.0) == []
        # A new session's first advertisement is not gated by the old one.
        assert gate.offer(P1, A1, now=6.0) == (P1, A1)
        assert (gate.passed, gate.withheld) == (2, 1)


POOL = [Prefix.parse(f"10.{i}.0.0/16") for i in range(4)]

# One step: advance the clock, then offer a change for a pooled prefix,
# release at the current time, or release at the maintained deadline.
steps = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=7.0, allow_nan=False),
        st.one_of(
            st.tuples(st.just("offer"), st.integers(0, len(POOL) - 1), st.booleans()),
            st.tuples(st.just("release"), st.just(0), st.just(False)),
            st.tuples(st.just("release_at_due"), st.just(0), st.just(False)),
        ),
    ),
    max_size=40,
)


def brute_force_deadline(gate):
    if not gate._pending:
        return None
    return min(gate._due_at(prefix) for prefix in gate._pending)


class TestMaintainedDeadline:
    @settings(max_examples=200)
    @given(steps, st.sampled_from([0.1, 1.0, 5.0, 30.0]))
    def test_deadline_equals_brute_force_min_and_always_releases(self, steps, interval):
        gate = MraiLimiter(interval=interval)
        now = 0.0
        for advance, (op, index, announce) in steps:
            now += advance
            if op == "offer":
                gate.offer(POOL[index], A1 if announce else None, now)
            elif op == "release":
                gate.release_due(now)
            else:
                due = gate.next_release_time()
                if due is not None:
                    # What a node does: fire at the deadline (never in
                    # the past) and release — at least one change goes.
                    now = max(now, due)
                    assert len(gate.release_due(now)) >= 1
            # Exact equality: the armed time and the release test are
            # the same float, not merely close.
            assert gate.next_release_time() == brute_force_deadline(gate)
            assert (gate.next_release_time() is None) == (len(gate) == 0)
