"""Unit tests for the discrete-event core."""

import pytest

from repro.sim.engine import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(3.0, lambda: log.append("c"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(2.0, lambda: log.append("b"))
        sim.run()
        assert log == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        log = []
        for name in "abc":
            sim.schedule(1.0, lambda n=name: log.append(n))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_into_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_times_rejected(self, bad):
        # NaN compares False against everything, so it used to pass the
        # negative-delay and into-the-past guards and land in the heap.
        sim = Simulator()
        with pytest.raises(ValueError, match=str(bad)):
            sim.schedule(bad, lambda: None)
        with pytest.raises(ValueError, match=str(bad)):
            sim.schedule_at(bad, lambda: None)
        assert sim.pending() == 0

    def test_callback_schedules_more_events(self):
        sim = Simulator()
        log = []

        def chain(n):
            log.append(n)
            if n < 3:
                sim.schedule(1.0, lambda: chain(n + 1))

        sim.schedule(0.0, lambda: chain(0))
        sim.run()
        assert log == [0, 1, 2, 3]
        assert sim.now == 3.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        log = []
        handle = sim.schedule(1.0, lambda: log.append("x"))
        handle.cancel()
        sim.run()
        assert log == []
        assert handle.cancelled

    def test_peek_skips_cancelled(self):
        sim = Simulator()
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        first.cancel()
        assert sim.peek_time() == 2.0


class TestRunControl:
    def test_run_until_stops_clock(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(5.0, lambda: log.append(5))
        sim.run(until=3.0)
        assert log == [1]
        assert sim.now == 3.0
        sim.run()
        assert log == [1, 5]

    def test_fire_due_single_step(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(2.0, lambda: log.append(2))
        assert sim.fire_due() == 1
        assert log == [1]

    def test_fire_due_until(self):
        sim = Simulator()
        log = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda t=t: log.append(t))
        assert sim.fire_due(until=2.5) == 2
        assert sim.now == 2.5

    def test_advance_to(self):
        sim = Simulator()
        sim.advance_to(7.0)
        assert sim.now == 7.0
        with pytest.raises(ValueError):
            sim.advance_to(6.0)

    def test_pending_count(self):
        sim = Simulator()
        a = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending() == 2
        a.cancel()
        assert sim.pending() == 1

    def test_events_fired_counter(self):
        sim = Simulator()
        for t in range(5):
            sim.schedule(float(t), lambda: None)
        sim.run()
        assert sim.events_fired == 5


class TestReschedule:
    def test_reschedule_pending_event_moves_it(self):
        sim = Simulator()
        log = []
        handle = sim.schedule(1.0, lambda: log.append(sim.now))
        handle.reschedule(5.0)
        sim.run()
        assert log == [5.0]

    def test_reschedule_after_firing_rearms(self):
        sim = Simulator()
        log = []
        handle = sim.schedule(1.0, lambda: log.append(sim.now))
        sim.run()
        assert not handle.active
        handle.reschedule(2.0)
        assert handle.active
        sim.run()
        assert log == [1.0, 3.0]

    def test_reschedule_reuses_heap_entry_after_pop(self):
        # The satellite goal: a periodic timer re-arming from its own
        # callback must not allocate a new heap entry per period.
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        entry = handle._event
        sim.run()
        handle.reschedule(1.0)
        assert handle._event is entry

    def test_periodic_timer_from_own_callback(self):
        sim = Simulator()
        log = []
        handle = None

        def tick():
            log.append(sim.now)
            if len(log) < 4:
                handle.reschedule(1.0)

        handle = sim.schedule(1.0, tick)
        entry = handle._event
        sim.run()
        assert log == [1.0, 2.0, 3.0, 4.0]
        assert handle._event is entry

    def test_reschedule_cancelled_event_revives_it(self):
        sim = Simulator()
        log = []
        handle = sim.schedule(1.0, lambda: log.append(sim.now))
        handle.cancel()
        handle.reschedule(2.0)
        sim.run()
        assert log == [2.0]

    def test_reschedule_negative_delay_rejected(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        with pytest.raises(ValueError):
            handle.reschedule(-0.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("fired", [False, True])
    def test_reschedule_non_finite_delay_rejected(self, bad, fired):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        if fired:
            sim.run()
        with pytest.raises(ValueError, match=str(bad)):
            handle.reschedule(bad)
        assert handle.active is not fired

    def test_active_property_lifecycle(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        assert handle.active
        handle.cancel()
        assert not handle.active
        handle.reschedule(1.0)
        assert handle.active
        sim.run()
        assert not handle.active


class TestDaemonEvents:
    def test_daemon_alone_does_not_keep_sim_alive(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append("d"), daemon=True)
        assert sim.peek_time() is None
        sim.run()
        assert log == []
        assert sim.now == 0.0

    def test_daemon_fires_while_real_work_pending(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append("daemon"), daemon=True)
        sim.schedule(2.0, lambda: log.append("real"))
        sim.run()
        assert log == ["daemon", "real"]

    def test_run_stops_once_only_daemons_remain(self):
        sim = Simulator()
        log = []
        handle = None

        def watchdog():
            log.append(sim.now)
            handle.reschedule(1.0)

        handle = sim.schedule(1.0, watchdog, daemon=True)
        sim.schedule(2.5, lambda: log.append("work"))
        sim.run()
        # The self-rescheduling daemon ticked alongside the real event,
        # then stopped holding the simulation open.
        assert log == [1.0, 2.0, "work"]
        assert sim.now == 2.5

    def test_reschedule_preserves_daemon_flag(self):
        sim = Simulator()
        log = []
        handle = sim.schedule(1.0, lambda: log.append("d"), daemon=True)
        handle.reschedule(3.0)
        sim.run()
        assert log == []
        sim.schedule(5.0, lambda: log.append("real"))
        sim.run()
        assert log == ["d", "real"]

    def test_cancelled_daemon_stays_quiet(self):
        sim = Simulator()
        log = []
        handle = sim.schedule(1.0, lambda: log.append("d"), daemon=True)
        handle.cancel()
        sim.schedule(2.0, lambda: log.append("real"))
        sim.run()
        assert log == ["real"]

    def test_cancelling_real_event_leaves_daemons_dormant(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append("d"), daemon=True)
        real = sim.schedule(2.0, lambda: log.append("real"))
        real.cancel()
        assert sim.peek_time() is None
        sim.run()
        assert log == []
