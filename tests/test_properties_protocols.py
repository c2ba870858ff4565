"""Property-based tests for the BGP session state machine: the FSM
never crashes or reaches an inconsistent state under arbitrary event
sequences."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.fsm import Event, SessionFsm, State
from repro.bgp.messages import (
    KeepaliveMessage,
    NotificationMessage,
    OpenMessage,
    UpdateMessage,
)
from repro.net.addr import IPv4Address


class NullActions:
    """Accepts all FSM side effects; records session transitions."""

    def __init__(self):
        self.ups = 0
        self.downs = 0
        self.sent = 0

    def send(self, message):
        self.sent += 1

    def start_connect(self):
        pass

    def drop_connection(self):
        pass

    def deliver_update(self, update):
        pass

    def session_up(self):
        self.ups += 1

    def session_down(self, reason):
        self.downs += 1


_STIMULI = st.sampled_from([
    ("event", Event.MANUAL_START),
    ("event", Event.MANUAL_STOP),
    ("event", Event.TCP_CONNECTED),
    ("event", Event.TCP_FAILED),
    ("event", Event.CONNECT_RETRY_EXPIRES),
    ("event", Event.HOLD_TIMER_EXPIRES),
    ("event", Event.KEEPALIVE_TIMER_EXPIRES),
    ("message", OpenMessage(65001, 90, IPv4Address.parse("2.2.2.2"))),
    ("message", KeepaliveMessage()),
    ("message", UpdateMessage()),
    ("message", NotificationMessage(6, 2)),
    ("tick", 10.0),
    ("tick", 100.0),
])


class TestFsmRobustness:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_STIMULI, max_size=40))
    def test_arbitrary_stimuli_never_crash(self, stimuli):
        actions = NullActions()
        fsm = SessionFsm(65000, IPv4Address.parse("1.1.1.1"), actions)
        now = 0.0
        for kind, payload in stimuli:
            if kind == "event":
                fsm.handle(payload, now=now)
            elif kind == "message":
                fsm.handle_message(payload, now=now)
            else:
                now += payload
                fsm.tick(now)
            # Invariants after every stimulus:
            assert fsm.state in State
            assert actions.downs <= actions.ups  # every down had an up

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_STIMULI, max_size=30))
    def test_established_only_after_full_handshake(self, stimuli):
        """ESTABLISHED is reachable only through OPEN + KEEPALIVE."""
        actions = NullActions()
        fsm = SessionFsm(65000, IPv4Address.parse("1.1.1.1"), actions)
        saw_open = False
        for kind, payload in stimuli:
            if kind == "message" and isinstance(payload, OpenMessage):
                saw_open = True
            if kind == "event":
                fsm.handle(payload)
            elif kind == "message":
                fsm.handle_message(payload)
            if fsm.state is State.ESTABLISHED:
                assert saw_open

