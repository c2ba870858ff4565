"""The BGP session finite-state machine (RFC 4271 §8).

Six states (Idle, Connect, Active, OpenSent, OpenConfirm, Established)
driven by administrative, transport, timer, and message events. The FSM
is deliberately free of I/O: a :class:`SessionActions` sink receives the
side effects (send message, start/stop connect, drop connection), which
keeps it unit-testable and lets the simulator drive it with virtual
time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum, auto
from typing import Callable, Protocol

from repro.bgp.errors import (
    BgpError,
    CeaseSubcode,
    ErrorCode,
    NotificationData,
    OpenSubcode,
)
from repro.bgp.messages import (
    BgpMessage,
    KeepaliveMessage,
    NotificationMessage,
    OpenMessage,
    UpdateMessage,
)
from repro.net.addr import IPv4Address


class State(Enum):
    IDLE = auto()
    CONNECT = auto()
    ACTIVE = auto()
    OPEN_SENT = auto()
    OPEN_CONFIRM = auto()
    ESTABLISHED = auto()


class Event(Enum):
    """The FSM input events we model (numbering follows RFC 4271 §8.1)."""

    MANUAL_START = auto()            # event 1
    MANUAL_STOP = auto()             # event 2
    CONNECT_RETRY_EXPIRES = auto()   # event 9
    HOLD_TIMER_EXPIRES = auto()      # event 10
    KEEPALIVE_TIMER_EXPIRES = auto() # event 11
    TCP_CONNECTED = auto()           # events 16/17
    TCP_FAILED = auto()              # event 18
    OPEN_RECEIVED = auto()           # event 19
    KEEPALIVE_RECEIVED = auto()      # event 26
    UPDATE_RECEIVED = auto()         # event 27
    NOTIFICATION_RECEIVED = auto()   # events 24/25


class TimerHandle(Protocol):
    """One scheduled timer: the part of :class:`repro.sim.engine.EventHandle`
    the FSM uses."""

    @property
    def time(self) -> float: ...
    @property
    def active(self) -> bool: ...
    def cancel(self) -> None: ...
    def reschedule(self, delay: float) -> object: ...


class TimerClock(Protocol):
    """The virtual clock the FSM's timers run on: the part of
    :class:`repro.sim.engine.Simulator` it uses, named by shape so
    ``bgp`` imports nothing from ``sim``."""

    now: float

    def schedule(self, delay: float, callback: Callable[[], None]) -> TimerHandle: ...


class SessionActions(Protocol):
    """Side-effect sink through which the FSM touches the outside world."""

    def send(self, message: BgpMessage) -> None: ...
    def start_connect(self) -> None: ...
    def drop_connection(self) -> None: ...
    def deliver_update(self, update: UpdateMessage) -> None: ...
    def session_up(self) -> None: ...
    def session_down(self, reason: str) -> None: ...


@dataclass(slots=True)
class Timers:
    """Timer state, in seconds of whatever clock drives the FSM."""

    connect_retry_time: float = 120.0
    hold_time: float = 90.0
    keepalive_time: float = 30.0
    hold_deadline: float | None = None
    keepalive_deadline: float | None = None
    connect_retry_deadline: float | None = None


@dataclass(frozen=True, slots=True)
class ReconnectBackoff:
    """Exponential backoff with deterministic jitter for reconnects.

    The delay for *attempt* (0-based) is ``base * multiplier**attempt``
    capped at *cap*, scaled by a jitter factor drawn uniformly from
    ``[1 - jitter, 1 + jitter]``. The jitter is a pure function of
    ``(seed, attempt)``, so repeated runs of a seeded scenario produce
    byte-identical retry schedules — the determinism the benchmark's
    repeatability claim requires — while distinct seeds still desynchronise
    reconnect storms the way RFC 4271 §8.2.1.1's DampPeerOscillations
    intends. One user: the FSM's connect-retry timer.
    """

    base: float = 1.0
    multiplier: float = 2.0
    cap: float = 120.0
    jitter: float = 0.1
    seed: int = 0

    def delay(self, attempt: int) -> float:
        if attempt < 0:
            raise ValueError(f"negative attempt: {attempt}")
        raw = min(self.cap, self.base * self.multiplier ** min(attempt, 63))
        if not self.jitter:
            return raw
        factor = random.Random((self.seed << 20) ^ attempt).uniform(
            1.0 - self.jitter, 1.0 + self.jitter
        )
        return raw * factor


#: Maps a timer name to the FSM event its expiry produces.
_TIMER_EVENTS = {
    "hold": Event.HOLD_TIMER_EXPIRES,
    "keepalive": Event.KEEPALIVE_TIMER_EXPIRES,
    "connect_retry": Event.CONNECT_RETRY_EXPIRES,
}

_TIMER_EPS = 1e-9


class SessionFsm:
    """One peer session's state machine.

    Feed it events with :meth:`handle`, messages with
    :meth:`handle_message`, and the current time with :meth:`tick` to
    fire timers. All outputs go through the :class:`SessionActions`.
    """

    def __init__(
        self,
        local_asn: int,
        local_identifier: IPv4Address,
        actions: SessionActions,
        hold_time: float = 90.0,
        connect_retry_time: float = 120.0,
        expected_peer_asn: int | None = None,
        backoff: ReconnectBackoff | None = None,
    ):
        self.local_asn = local_asn
        self.local_identifier = local_identifier
        self.expected_peer_asn = expected_peer_asn
        self.actions = actions
        self.state = State.IDLE
        self.timers = Timers(
            connect_retry_time=connect_retry_time,
            hold_time=hold_time,
            keepalive_time=max(hold_time / 3.0, 1.0) if hold_time else 30.0,
        )
        self.backoff = backoff
        self.peer_open: OpenMessage | None = None
        self.connect_retry_counter = 0
        self.last_error: NotificationData | None = None
        self._now = 0.0
        self._sim: TimerClock | None = None
        self._timer_handles: dict[str, TimerHandle] = {}

    # -- event entry points -------------------------------------------------

    def handle(self, event: Event, now: float | None = None) -> None:
        """Dispatch a non-message event."""
        if now is not None:
            self._now = now
        handler = _DISPATCH.get((self.state, event))
        if handler is None:
            self._fsm_error(event)
        else:
            handler(self)
        self._sync_timers()

    def handle_message(self, message: BgpMessage, now: float | None = None) -> None:
        """Dispatch a decoded message as the corresponding FSM event.

        An UPDATE in ESTABLISHED — every delivered route — takes one
        direct hop: re-arm the hold timer, deliver. Every other (state,
        message) pair goes through the dispatch table."""
        if now is not None:
            self._now = now
        if self.state is State.ESTABLISHED and isinstance(message, UpdateMessage):
            self._arm_hold()
            self.actions.deliver_update(message)
            # With no hold time, _arm_hold moved no deadline: the timer
            # events already match, and the reconcile would find nothing.
            if self.timers.hold_time:
                self._sync_timers()
            return
        if isinstance(message, OpenMessage):
            self.peer_open = message
            self.handle(Event.OPEN_RECEIVED)
        elif isinstance(message, KeepaliveMessage):
            self.handle(Event.KEEPALIVE_RECEIVED)
        elif isinstance(message, UpdateMessage):
            self.handle(Event.UPDATE_RECEIVED)
        elif isinstance(message, NotificationMessage):
            self.last_error = NotificationData(message.code, message.subcode, message.data)
            self.handle(Event.NOTIFICATION_RECEIVED)
        else:  # pragma: no cover - the union above is exhaustive
            raise TypeError(f"unknown message {message!r}")

    def tick(self, now: float) -> None:
        """Advance the clock, firing any expired timers."""
        self._now = now
        timers = self.timers
        if timers.connect_retry_deadline is not None and now >= timers.connect_retry_deadline:
            timers.connect_retry_deadline = None
            self.handle(Event.CONNECT_RETRY_EXPIRES)
        if timers.hold_deadline is not None and now >= timers.hold_deadline:
            timers.hold_deadline = None
            self.handle(Event.HOLD_TIMER_EXPIRES)
        if timers.keepalive_deadline is not None and now >= timers.keepalive_deadline:
            timers.keepalive_deadline = None
            self.handle(Event.KEEPALIVE_TIMER_EXPIRES)

    # -- simulator-driven timers ---------------------------------------------

    def attach_simulator(self, sim: TimerClock) -> None:
        """Drive this session's timers from a virtual clock.

        Once attached, every armed deadline is mirrored as a simulator
        event, so the FSM fires hold/keepalive/connect-retry expiries on
        its own during a :class:`~repro.sim.cpu.World` run — no caller
        has to poll :meth:`tick`. Re-arming reuses one
        :class:`~repro.sim.engine.EventHandle` per timer via
        ``reschedule``, so steady-state keepalive traffic allocates no
        new heap entries.
        """
        self._sim = sim
        self._now = max(self._now, sim.now)
        self._sync_timers()

    def _sync_timers(self) -> None:
        """Reconcile the three deadline fields with their sim events."""
        sim = self._sim
        if sim is None:
            return
        timers = self.timers
        if (
            timers.hold_deadline is None
            and timers.keepalive_deadline is None
            and timers.connect_retry_deadline is None
        ):
            # Nothing armed: a timers-off session (the benchmark and
            # topology default) ends here.
            for handle in self._timer_handles.values():
                if handle.active:
                    handle.cancel()
            return
        for name in _TIMER_EVENTS:
            deadline: float | None = getattr(self.timers, f"{name}_deadline")
            handle = self._timer_handles.get(name)
            if deadline is None:
                if handle is not None and handle.active:
                    handle.cancel()
                continue
            if handle is not None and handle.active and abs(handle.time - deadline) < _TIMER_EPS:
                continue
            delay = max(0.0, deadline - sim.now)
            if handle is None:
                self._timer_handles[name] = sim.schedule(
                    delay, lambda name=name: self._timer_due(name)
                )
            else:
                handle.reschedule(delay)

    def _timer_due(self, name: str) -> None:
        sim = self._sim
        assert sim is not None
        deadline: float | None = getattr(self.timers, f"{name}_deadline")
        if deadline is None or sim.now + _TIMER_EPS < deadline:
            return  # stale wakeup: the deadline moved or was disarmed
        setattr(self.timers, f"{name}_deadline", None)
        self.handle(_TIMER_EVENTS[name], now=sim.now)

    # -- helpers -------------------------------------------------------------

    def _arm_hold(self) -> None:
        if self.timers.hold_time:
            self.timers.hold_deadline = self._now + self.timers.hold_time

    def _arm_keepalive(self) -> None:
        if self.timers.keepalive_time:
            self.timers.keepalive_deadline = self._now + self.timers.keepalive_time

    def _arm_connect_retry(self) -> None:
        if self.backoff is not None:
            delay = self.backoff.delay(self.connect_retry_counter)
        else:
            delay = self.timers.connect_retry_time
        self.timers.connect_retry_deadline = self._now + delay

    def _disarm_all(self) -> None:
        self.timers.hold_deadline = None
        self.timers.keepalive_deadline = None
        self.timers.connect_retry_deadline = None

    def _to_idle(self, reason: str) -> None:
        was_established = self.state is State.ESTABLISHED
        self.state = State.IDLE
        self._disarm_all()
        self.actions.drop_connection()
        if was_established:
            self.actions.session_down(reason)
        self.connect_retry_counter += 1

    def _send_open(self) -> None:
        self.actions.send(
            OpenMessage(
                asn=self.local_asn,
                hold_time=int(self.timers.hold_time),
                bgp_identifier=self.local_identifier,
            )
        )

    def _send_notification(self, data: NotificationData) -> None:
        self.actions.send(NotificationMessage(data.code, data.subcode, data.data))

    def _fsm_error(self, event: Event) -> None:
        """Unexpected event: NOTIFICATION (FSM error) and fall to Idle,
        per the catch-all clauses of RFC 4271 §8.2.2."""
        if event in (
            Event.CONNECT_RETRY_EXPIRES,
            Event.KEEPALIVE_TIMER_EXPIRES,
            Event.TCP_FAILED,
            Event.MANUAL_START,
        ):
            return  # stale timer/transport noise is ignorable
        if self.state is not State.IDLE:
            self._send_notification(NotificationData(ErrorCode.FSM_ERROR))
            self._to_idle(f"FSM error: {event.name} in {self.state.name}")

    def notify_and_close(self, error: BgpError) -> None:
        """Tear the session down after a local protocol error."""
        self._send_notification(error.notification)
        self.last_error = error.notification
        self._to_idle(str(error))
        self._sync_timers()

    def manual_stop_cease(self) -> None:
        self._send_notification(
            NotificationData(ErrorCode.CEASE, CeaseSubcode.ADMINISTRATIVE_SHUTDOWN)
        )
        self._to_idle("manual stop")

    # -- per-(state, event) handlers ------------------------------------------

    def _idle_start(self) -> None:
        self.state = State.CONNECT
        self._arm_connect_retry()
        self.actions.start_connect()

    def _connect_tcp_connected(self) -> None:
        self.timers.connect_retry_deadline = None
        self._send_open()
        self._arm_hold()
        self.state = State.OPEN_SENT

    def _connect_tcp_failed(self) -> None:
        self.state = State.ACTIVE
        self._arm_connect_retry()

    def _connect_retry_expired(self) -> None:
        self._arm_connect_retry()
        self.actions.start_connect()
        self.state = State.CONNECT

    def _active_tcp_connected(self) -> None:
        self._connect_tcp_connected()

    def _active_retry_expired(self) -> None:
        self._connect_retry_expired()

    def _open_sent_open_received(self) -> None:
        open_msg = self.peer_open
        assert open_msg is not None
        if (
            self.expected_peer_asn is not None
            and open_msg.asn != self.expected_peer_asn
        ):
            self._send_notification(
                NotificationData(
                    ErrorCode.OPEN_MESSAGE_ERROR, OpenSubcode.BAD_PEER_AS
                )
            )
            self._to_idle(
                f"peer AS {open_msg.asn} does not match configured "
                f"{self.expected_peer_asn}"
            )
            return
        # Negotiated hold time is the minimum of the two offers (§4.2).
        negotiated = min(self.timers.hold_time, float(open_msg.hold_time))
        self.timers.hold_time = negotiated
        self.timers.keepalive_time = negotiated / 3.0 if negotiated else 0.0
        self.actions.send(KeepaliveMessage())
        self._arm_hold()
        self._arm_keepalive()
        self.state = State.OPEN_CONFIRM

    def _open_sent_tcp_failed(self) -> None:
        self.state = State.ACTIVE
        self._arm_connect_retry()

    def _open_confirm_keepalive(self) -> None:
        self._arm_hold()
        self.state = State.ESTABLISHED
        self.actions.session_up()

    def _established_keepalive(self) -> None:
        self._arm_hold()

    def _keepalive_timer_fired(self) -> None:
        self.actions.send(KeepaliveMessage())
        self._arm_keepalive()

    def _hold_timer_fired(self) -> None:
        self._send_notification(NotificationData(ErrorCode.HOLD_TIMER_EXPIRED))
        self._to_idle("hold timer expired")

    def _notification_received(self) -> None:
        reason = self.last_error.describe() if self.last_error else "NOTIFICATION"
        self._to_idle(reason)

    def _manual_stop(self) -> None:
        self.manual_stop_cease()

    def _tcp_failed_down(self) -> None:
        self._to_idle("transport failed")


_DISPATCH = {
    (State.IDLE, Event.MANUAL_START): SessionFsm._idle_start,
    (State.CONNECT, Event.TCP_CONNECTED): SessionFsm._connect_tcp_connected,
    (State.CONNECT, Event.TCP_FAILED): SessionFsm._connect_tcp_failed,
    (State.CONNECT, Event.CONNECT_RETRY_EXPIRES): SessionFsm._connect_retry_expired,
    (State.CONNECT, Event.MANUAL_STOP): SessionFsm._manual_stop,
    (State.ACTIVE, Event.TCP_CONNECTED): SessionFsm._active_tcp_connected,
    (State.ACTIVE, Event.CONNECT_RETRY_EXPIRES): SessionFsm._active_retry_expired,
    (State.ACTIVE, Event.MANUAL_STOP): SessionFsm._manual_stop,
    (State.OPEN_SENT, Event.OPEN_RECEIVED): SessionFsm._open_sent_open_received,
    (State.OPEN_SENT, Event.TCP_FAILED): SessionFsm._open_sent_tcp_failed,
    (State.OPEN_SENT, Event.HOLD_TIMER_EXPIRES): SessionFsm._hold_timer_fired,
    (State.OPEN_SENT, Event.NOTIFICATION_RECEIVED): SessionFsm._notification_received,
    (State.OPEN_SENT, Event.MANUAL_STOP): SessionFsm._manual_stop,
    (State.OPEN_CONFIRM, Event.KEEPALIVE_RECEIVED): SessionFsm._open_confirm_keepalive,
    (State.OPEN_CONFIRM, Event.KEEPALIVE_TIMER_EXPIRES): SessionFsm._keepalive_timer_fired,
    (State.OPEN_CONFIRM, Event.HOLD_TIMER_EXPIRES): SessionFsm._hold_timer_fired,
    (State.OPEN_CONFIRM, Event.NOTIFICATION_RECEIVED): SessionFsm._notification_received,
    (State.OPEN_CONFIRM, Event.TCP_FAILED): SessionFsm._tcp_failed_down,
    (State.OPEN_CONFIRM, Event.MANUAL_STOP): SessionFsm._manual_stop,
    (State.ESTABLISHED, Event.KEEPALIVE_RECEIVED): SessionFsm._established_keepalive,
    (State.ESTABLISHED, Event.KEEPALIVE_TIMER_EXPIRES): SessionFsm._keepalive_timer_fired,
    (State.ESTABLISHED, Event.HOLD_TIMER_EXPIRES): SessionFsm._hold_timer_fired,
    (State.ESTABLISHED, Event.NOTIFICATION_RECEIVED): SessionFsm._notification_received,
    (State.ESTABLISHED, Event.TCP_FAILED): SessionFsm._tcp_failed_down,
    (State.ESTABLISHED, Event.MANUAL_STOP): SessionFsm._manual_stop,
}
