"""FSM error paths: hold-timer expiry everywhere it can fire,
corrupted bytes surfacing as NOTIFICATIONs through the framer, and
connect-retry counter growth across repeated failures."""

import pytest

from repro.bgp.errors import ErrorCode, HeaderSubcode
from repro.bgp.fsm import Event, SessionFsm, State
from repro.bgp.messages import (
    KeepaliveMessage,
    NotificationMessage,
    OpenMessage,
    UpdateMessage,
)
from repro.bgp.policy import ACCEPT_ALL
from repro.bgp.speaker import BgpSpeaker, PeerConfig, SpeakerConfig
from repro.net.addr import IPv4Address
from repro.sim.engine import Simulator

LOCAL_ID = IPv4Address.parse("1.1.1.1")
PEER_ID = IPv4Address.parse("2.2.2.2")


class RecordingActions:
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


def drive_to(fsm, state, now=0.0):
    """Walk the happy path up to *state*."""
    fsm.handle(Event.MANUAL_START, now=now)
    if state is State.CONNECT:
        return
    fsm.handle(Event.TCP_CONNECTED, now=now)
    if state is State.OPEN_SENT:
        return
    fsm.handle_message(OpenMessage(65001, 90, PEER_ID), now=now)
    if state is State.OPEN_CONFIRM:
        return
    fsm.handle_message(KeepaliveMessage(), now=now)
    assert fsm.state is State.ESTABLISHED


class TestHoldTimerExpiry:
    """The hold timer can fire in OpenSent, OpenConfirm, and
    Established; each must NOTIFY (code 4) and fall to Idle."""

    @pytest.mark.parametrize(
        "state", [State.OPEN_SENT, State.OPEN_CONFIRM, State.ESTABLISHED]
    )
    def test_expiry_notifies_and_idles(self, state):
        fsm, actions = make_fsm()
        drive_to(fsm, state)
        assert fsm.state is state
        assert fsm.timers.hold_deadline is not None

        fsm.tick(fsm.timers.hold_deadline + 0.1)
        assert fsm.state is State.IDLE
        notification = actions.sent[-1]
        assert isinstance(notification, NotificationMessage)
        assert notification.code == ErrorCode.HOLD_TIMER_EXPIRED
        assert fsm.timers.hold_deadline is None
        assert fsm.timers.keepalive_deadline is None

    def test_established_expiry_reports_session_down(self):
        fsm, actions = make_fsm()
        drive_to(fsm, State.ESTABLISHED)
        fsm.tick(fsm.timers.hold_deadline + 0.1)
        assert actions.downs == ["hold timer expired"]

    def test_received_traffic_rearms_hold(self):
        fsm, actions = make_fsm()
        drive_to(fsm, State.ESTABLISHED)
        fsm.handle_message(KeepaliveMessage(), now=50.0)
        fsm.tick(95.0)  # original deadline (90) has passed, re-armed one not
        assert fsm.state is State.ESTABLISHED
        fsm.tick(140.1)
        assert fsm.state is State.IDLE


class TestSimAttachedTimers:
    """With a simulator attached, deadlines fire as virtual-clock
    events — no tick() polling — and re-arming reuses one heap entry."""

    def test_keepalives_fire_and_reuse_one_heap_entry(self):
        sim = Simulator()
        fsm, actions = make_fsm()
        fsm.attach_simulator(sim)
        drive_to(fsm, State.ESTABLISHED)

        handle = fsm._timer_handles["keepalive"]
        entry = handle._event
        keepalives_before = sum(
            isinstance(m, KeepaliveMessage) for m in actions.sent
        )
        sim.fire_due(until=61.0)  # two keepalive periods (30s each)
        keepalives_after = sum(
            isinstance(m, KeepaliveMessage) for m in actions.sent
        )
        assert keepalives_after == keepalives_before + 2
        assert fsm._timer_handles["keepalive"] is handle
        assert handle._event is entry

    def test_hold_expires_on_virtual_clock(self):
        sim = Simulator()
        fsm, actions = make_fsm()
        fsm.attach_simulator(sim)
        drive_to(fsm, State.ESTABLISHED)

        sim.fire_due(until=200.0)
        assert fsm.state is State.IDLE
        assert actions.downs == ["hold timer expired"]
        assert isinstance(actions.sent[-1], NotificationMessage)
        assert actions.sent[-1].code == ErrorCode.HOLD_TIMER_EXPIRED

    def test_inbound_keepalive_defers_sim_hold_expiry(self):
        sim = Simulator()
        fsm, actions = make_fsm()
        fsm.attach_simulator(sim)
        drive_to(fsm, State.ESTABLISHED)

        def feed():
            if sim.now <= 60.0 and fsm.state is State.ESTABLISHED:
                fsm.handle_message(KeepaliveMessage(), now=sim.now)
                sim.schedule(30.0, feed)

        sim.schedule(30.0, feed)
        sim.fire_due(until=120.0)
        assert fsm.state is State.ESTABLISHED  # hold pushed to 60+90
        sim.fire_due(until=200.0)
        assert fsm.state is State.IDLE

    def test_teardown_cancels_sim_timers(self):
        sim = Simulator()
        fsm, actions = make_fsm()
        fsm.attach_simulator(sim)
        drive_to(fsm, State.ESTABLISHED)
        fsm.handle(Event.MANUAL_STOP, now=0.0)
        assert all(not h.active for h in fsm._timer_handles.values())
        assert sim.peek_time() is None


class TestFramerCorruption:
    """Corrupted wire bytes must surface as the taxonomy's NOTIFICATION
    and tear the session down — the path fault links exercise."""

    def setup_speaker(self):
        speaker = BgpSpeaker(
            SpeakerConfig(
                asn=65000,
                bgp_identifier=LOCAL_ID,
                local_address=LOCAL_ID,
                hold_time=0.0,
            )
        )
        sent = []
        speaker.add_peer(
            PeerConfig("peer", 65001, PEER_ID, ACCEPT_ALL, ACCEPT_ALL)
        )
        speaker.set_send_callback("peer", sent.append)
        speaker.start_peer("peer")
        speaker.transport_connected("peer")
        return speaker, sent

    def establish(self, speaker):
        speaker.receive_bytes("peer", OpenMessage(65001, 0, PEER_ID).encode())
        speaker.receive_bytes("peer", KeepaliveMessage().encode())
        assert speaker.peers["peer"].established

    def test_corrupted_open_marker_notifies(self):
        speaker, sent = self.setup_speaker()
        wire = bytearray(OpenMessage(65001, 0, PEER_ID).encode())
        wire[3] ^= 0xFF  # damage the all-ones marker
        speaker.receive_bytes("peer", bytes(wire))

        assert not speaker.peers["peer"].established
        notification = NotificationMessage.decode_body(sent[-1][19:])
        assert notification.code == ErrorCode.MESSAGE_HEADER_ERROR
        assert notification.subcode == HeaderSubcode.CONNECTION_NOT_SYNCHRONIZED

    def test_corrupted_update_tears_down_established_session(self):
        speaker, sent = self.setup_speaker()
        self.establish(speaker)
        update = bytearray(
            UpdateMessage(withdrawn=()).encode()
        )
        update[0] ^= 0x01  # marker no longer all ones
        speaker.receive_bytes("peer", bytes(update))

        assert not speaker.peers["peer"].established
        notification = NotificationMessage.decode_body(sent[-1][19:])
        assert notification.code == ErrorCode.MESSAGE_HEADER_ERROR
        events = speaker.session_events()
        assert events[-1][1].startswith("down:")

    def test_garbage_length_field_notifies(self):
        speaker, sent = self.setup_speaker()
        self.establish(speaker)
        update = bytearray(UpdateMessage(withdrawn=()).encode())
        update[17] = 0x01  # header length below the 19-byte minimum
        speaker.receive_bytes("peer", bytes(update))
        assert not speaker.peers["peer"].established
        notification = NotificationMessage.decode_body(sent[-1][19:])
        assert notification.code == ErrorCode.MESSAGE_HEADER_ERROR


class TestConnectRetryGrowth:
    def test_counter_grows_across_session_losses(self):
        fsm, actions = make_fsm()
        for expected in (1, 2, 3):
            drive_to(fsm, State.ESTABLISHED)
            fsm.handle(Event.TCP_FAILED)
            assert fsm.state is State.IDLE
            assert fsm.connect_retry_counter == expected

    def test_without_backoff_retry_time_is_flat(self):
        fsm, actions = make_fsm()
        fsm.handle(Event.MANUAL_START, now=0.0)
        assert fsm.timers.connect_retry_deadline == 120.0
