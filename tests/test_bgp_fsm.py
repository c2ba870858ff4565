"""Unit tests for the BGP session finite-state machine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.errors import (
    BgpError,
    CeaseSubcode,
    ErrorCode,
    NotificationData,
    UpdateSubcode,
    update_error,
)
from repro.bgp.fsm import _DISPATCH, Event, SessionFsm, State
from repro.bgp.messages import (
    KeepaliveMessage,
    NotificationMessage,
    OpenMessage,
    UpdateMessage,
)
from repro.bgp.speaker import BgpSpeaker, PeerConfig, SpeakerConfig
from repro.net.addr import IPv4Address, Prefix
from repro.sim.engine import Simulator

LOCAL_ID = IPv4Address.parse("1.1.1.1")
PEER_ID = IPv4Address.parse("2.2.2.2")


class RecordingActions:
    """Captures FSM side effects for assertions."""

    def __init__(self):
        self.sent = []
        self.connects = 0
        self.drops = 0
        self.updates = []
        self.ups = 0
        self.downs = []

    def send(self, message):
        self.sent.append(message)

    def start_connect(self):
        self.connects += 1

    def drop_connection(self):
        self.drops += 1

    def deliver_update(self, update):
        self.updates.append(update)

    def session_up(self):
        self.ups += 1

    def session_down(self, reason):
        self.downs.append(reason)


def make_fsm(hold_time=90.0):
    actions = RecordingActions()
    fsm = SessionFsm(65000, LOCAL_ID, actions, hold_time=hold_time)
    return fsm, actions


def establish(fsm, actions, now=0.0):
    fsm.handle(Event.MANUAL_START, now=now)
    fsm.handle(Event.TCP_CONNECTED, now=now)
    fsm.handle_message(OpenMessage(65001, 90, PEER_ID), now=now)
    fsm.handle_message(KeepaliveMessage(), now=now)


class TestHappyPath:
    def test_full_handshake(self):
        fsm, actions = make_fsm()
        assert fsm.state is State.IDLE

        fsm.handle(Event.MANUAL_START)
        assert fsm.state is State.CONNECT
        assert actions.connects == 1

        fsm.handle(Event.TCP_CONNECTED)
        assert fsm.state is State.OPEN_SENT
        assert isinstance(actions.sent[0], OpenMessage)
        assert actions.sent[0].asn == 65000

        fsm.handle_message(OpenMessage(65001, 90, PEER_ID))
        assert fsm.state is State.OPEN_CONFIRM
        assert isinstance(actions.sent[1], KeepaliveMessage)

        fsm.handle_message(KeepaliveMessage())
        assert fsm.state is State.ESTABLISHED
        assert actions.ups == 1

    def test_update_delivery_in_established(self):
        fsm, actions = make_fsm()
        establish(fsm, actions)
        update = UpdateMessage()
        fsm.handle_message(update)
        assert actions.updates == [update]

    def test_hold_time_negotiated_to_minimum(self):
        fsm, actions = make_fsm(hold_time=90.0)
        fsm.handle(Event.MANUAL_START)
        fsm.handle(Event.TCP_CONNECTED)
        fsm.handle_message(OpenMessage(65001, 30, PEER_ID))
        assert fsm.timers.hold_time == 30.0
        assert fsm.timers.keepalive_time == 10.0

    def test_zero_hold_time_disables_timers(self):
        fsm, actions = make_fsm(hold_time=0.0)
        establish(fsm, actions)
        assert fsm.timers.hold_deadline is None
        assert fsm.timers.keepalive_deadline is None


class TestTimers:
    def test_hold_timer_expiry_tears_down(self):
        fsm, actions = make_fsm(hold_time=90.0)
        establish(fsm, actions, now=0.0)
        fsm.tick(100.0)
        assert fsm.state is State.IDLE
        assert actions.downs and "hold timer" in actions.downs[0]
        notification = actions.sent[-1]
        assert isinstance(notification, NotificationMessage)
        assert notification.code == ErrorCode.HOLD_TIMER_EXPIRED

    def test_keepalive_timer_sends_keepalive(self):
        fsm, actions = make_fsm(hold_time=90.0)
        establish(fsm, actions, now=0.0)
        sent_before = len(actions.sent)
        fsm.tick(31.0)  # keepalive_time = 30
        keepalives = [
            m for m in actions.sent[sent_before:] if isinstance(m, KeepaliveMessage)
        ]
        assert len(keepalives) == 1
        assert fsm.state is State.ESTABLISHED

    def test_update_rearms_hold_timer(self):
        fsm, actions = make_fsm(hold_time=90.0)
        establish(fsm, actions, now=0.0)
        fsm.handle_message(UpdateMessage(), now=50.0)
        fsm.tick(95.0)  # would have expired without the update
        assert fsm.state is State.ESTABLISHED

    def test_connect_retry(self):
        fsm, actions = make_fsm()
        fsm.handle(Event.MANUAL_START, now=0.0)
        fsm.handle(Event.TCP_FAILED, now=1.0)
        assert fsm.state is State.ACTIVE
        fsm.tick(200.0)
        assert fsm.state is State.CONNECT
        assert actions.connects == 2


class TestTeardown:
    def test_notification_received(self):
        fsm, actions = make_fsm()
        establish(fsm, actions)
        fsm.handle_message(NotificationMessage(ErrorCode.CEASE, 2))
        assert fsm.state is State.IDLE
        assert actions.downs

    def test_manual_stop_sends_cease(self):
        fsm, actions = make_fsm()
        establish(fsm, actions)
        fsm.handle(Event.MANUAL_STOP)
        assert fsm.state is State.IDLE
        cease = actions.sent[-1]
        assert isinstance(cease, NotificationMessage)
        assert cease.code == ErrorCode.CEASE
        assert cease.subcode == CeaseSubcode.ADMINISTRATIVE_SHUTDOWN

    def test_tcp_failure_in_established(self):
        fsm, actions = make_fsm()
        establish(fsm, actions)
        fsm.handle(Event.TCP_FAILED)
        assert fsm.state is State.IDLE
        assert actions.downs == ["transport failed"]

    def test_notify_and_close_on_protocol_error(self):
        fsm, actions = make_fsm()
        establish(fsm, actions)
        error = update_error(UpdateSubcode.MALFORMED_ATTRIBUTE_LIST, message="bad")
        fsm.notify_and_close(error)
        assert fsm.state is State.IDLE
        notification = actions.sent[-1]
        assert notification.code == ErrorCode.UPDATE_MESSAGE_ERROR

    def test_connect_retry_counter_increments(self):
        fsm, actions = make_fsm()
        establish(fsm, actions)
        assert fsm.connect_retry_counter == 0
        fsm.handle(Event.TCP_FAILED)
        assert fsm.connect_retry_counter == 1


class TestFsmErrors:
    def test_unexpected_update_in_open_sent(self):
        fsm, actions = make_fsm()
        fsm.handle(Event.MANUAL_START)
        fsm.handle(Event.TCP_CONNECTED)
        fsm.handle_message(UpdateMessage())
        assert fsm.state is State.IDLE
        notification = actions.sent[-1]
        assert notification.code == ErrorCode.FSM_ERROR

    def test_stale_timer_noise_ignored(self):
        fsm, actions = make_fsm()
        establish(fsm, actions)
        fsm.handle(Event.CONNECT_RETRY_EXPIRES)
        assert fsm.state is State.ESTABLISHED

    def test_manual_start_in_established_ignored(self):
        fsm, actions = make_fsm()
        establish(fsm, actions)
        fsm.handle(Event.MANUAL_START)
        assert fsm.state is State.ESTABLISHED

    def test_open_in_idle_is_noop(self):
        fsm, actions = make_fsm()
        fsm.handle_message(OpenMessage(65001, 90, PEER_ID))
        assert fsm.state is State.IDLE
        assert not actions.sent


# -- the ESTABLISHED UPDATE bypass against the dispatch table ----------------


class TableFsm(SessionFsm):
    """``SessionFsm`` with every message sent through :meth:`handle` as
    an ``Event``, UPDATEs in ESTABLISHED included, and the timer events
    reconciled after every one: the dispatch before the bypass."""

    _pending = None

    def handle_message(self, message, now=None):
        if now is not None:
            self._now = now
        if isinstance(message, OpenMessage):
            self.peer_open = message
            self.handle(Event.OPEN_RECEIVED)
        elif isinstance(message, KeepaliveMessage):
            self.handle(Event.KEEPALIVE_RECEIVED)
        elif isinstance(message, UpdateMessage):
            self._pending = message
            self.handle(Event.UPDATE_RECEIVED)
        else:
            self.last_error = NotificationData(message.code, message.subcode, message.data)
            self.handle(Event.NOTIFICATION_RECEIVED)

    def handle(self, event, now=None):
        if now is not None:
            self._now = now
        handler = _TABLE.get((self.state, event))
        if handler is None:
            self._fsm_error(event)
        else:
            handler(self)
        self._sync_timers()

    def _established_update(self):
        self._arm_hold()
        update, self._pending = self._pending, None
        self.actions.deliver_update(update)


_TABLE = {
    **_DISPATCH,
    (State.ESTABLISHED, Event.UPDATE_RECEIVED): TableFsm._established_update,
}

_UPDATES = (
    UpdateMessage(),
    UpdateMessage(withdrawn=(Prefix.parse("192.0.2.0/24"),)),
)
#: One step of a run; UPDATEs and clock advances weighted up, since the
#: bypass only differs from the table between them.
_STEPS = st.sampled_from(
    [("message", update) for update in _UPDATES] * 3
    + [("advance", dt) for dt in (0.5, 1.0, 29.0, 61.0, 200.0)]
    + [("message", KeepaliveMessage()), ("message", NotificationMessage(6, 2))]
    + [("open", hold_time) for hold_time in (0, 3, 90)]
    + [
        ("event", event)
        for event in (Event.MANUAL_START, Event.TCP_CONNECTED, Event.TCP_FAILED, Event.MANUAL_STOP)
    ]
)


def observe(fsm, actions):
    """Everything the two dispatches must agree on after a step."""
    timers = fsm.timers
    return (
        fsm.state,
        fsm._sim.now,
        (timers.hold_time, timers.keepalive_time),
        (timers.hold_deadline, timers.keepalive_deadline, timers.connect_retry_deadline),
        sorted(
            (name, handle.time)
            for name, handle in fsm._timer_handles.items()
            if handle.active
        ),
        fsm.last_error,
        fsm.connect_retry_counter,
        actions.updates,
        actions.sent,
        (actions.connects, actions.drops, actions.ups, actions.downs),
    )


class TestUpdateBypass:
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([90.0, 0.0]),
        st.sampled_from([90, 0, 3, None]),
        st.lists(_STEPS, max_size=40),
    )
    def test_bypass_equals_the_dispatch_table(self, hold_time, handshake, steps):
        if handshake is not None:
            # Most random sequences never reach ESTABLISHED on their own.
            steps = [
                ("event", Event.MANUAL_START),
                ("event", Event.TCP_CONNECTED),
                ("open", handshake),
                ("message", KeepaliveMessage()),
                *steps,
            ]
        sides = []
        for cls in (SessionFsm, TableFsm):
            sim = Simulator()
            actions = RecordingActions()
            fsm = cls(65000, LOCAL_ID, actions, hold_time=hold_time)
            fsm.attach_simulator(sim)
            sides.append((sim, fsm, actions))
        for kind, value in steps:
            for sim, fsm, _actions in sides:
                if kind == "open":
                    fsm.handle_message(OpenMessage(65001, value, PEER_ID), now=sim.now)
                elif kind == "message":
                    fsm.handle_message(value, now=sim.now)
                elif kind == "event":
                    fsm.handle(value, now=sim.now)
                else:
                    sim.run(until=sim.now + value)
            (_, bypass, bypass_actions), (_, table, table_actions) = sides
            assert observe(bypass, bypass_actions) == observe(table, table_actions)


# -- the receive path: one whole message per packet, or through the framer ---

ATTRS = PathAttributes(as_path=AsPath.from_asns([65001]), next_hop=PEER_ID)
ANNOUNCE = UpdateMessage(attributes=ATTRS, nlri=(Prefix.parse("192.0.2.0/24"),)).encode()
WITHDRAW = UpdateMessage(withdrawn=(Prefix.parse("192.0.2.0/24"),)).encode()


def receive(packets):
    """Feed *packets* to an established session: the UPDATEs it delivered,
    what it sent back, and the state it ended in."""
    speaker = BgpSpeaker(SpeakerConfig(65000, LOCAL_ID, LOCAL_ID, hold_time=0.0))
    speaker.add_peer(PeerConfig("p", 65001, PEER_ID))
    sent = []
    speaker.set_send_callback("p", sent.append)
    speaker.start_peer("p")
    speaker.transport_connected("p")
    speaker.receive_bytes("p", OpenMessage(65001, 0, PEER_ID).encode())
    speaker.receive_bytes("p", KeepaliveMessage().encode())
    del sent[:]
    delivered = []
    speaker._process_update = lambda peer, update: delivered.append(update)
    for packet in packets:
        speaker.receive_bytes("p", bytes(packet))
    fsm = speaker.peers["p"].fsm
    return delivered, sent, fsm.state, fsm.last_error, speaker.work.messages_decoded


class TestFramedReceive:
    def test_two_messages_in_one_packet(self):
        assert receive([ANNOUNCE + WITHDRAW]) == receive([ANNOUNCE, WITHDRAW])
        assert len(receive([ANNOUNCE + WITHDRAW])[0]) == 2

    @pytest.mark.parametrize("cut", [1, 16, 18, 19, len(ANNOUNCE) - 1])
    def test_one_message_split_across_two_packets(self, cut):
        assert receive([ANNOUNCE[:cut], ANNOUNCE[cut:]]) == receive([ANNOUNCE])

    def test_a_whole_message_after_a_partial_buffer_continues_the_stream(self):
        assert receive([ANNOUNCE[:17], WITHDRAW]) == receive([ANNOUNCE[:17] + WITHDRAW])

    @pytest.mark.parametrize("length", [5, 4097])
    def test_bad_length_after_a_partial_buffer(self, length):
        bad = bytearray(ANNOUNCE)
        bad[16:18] = length.to_bytes(2, "big")
        outcome = receive([bad[:10], bad[10:]])
        assert outcome == receive([bad])
        delivered, sent, state, error, _decoded = outcome
        assert (delivered, state) == ([], State.IDLE)
        assert error.code == ErrorCode.MESSAGE_HEADER_ERROR
        assert sent == [NotificationMessage(error.code, error.subcode, error.data).encode()]
