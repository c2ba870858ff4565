"""The MinRouteAdvertisementInterval (RFC 4271 §9.2.1.1).

The MRAI rate-limits how often a speaker advertises routes for the same
prefix to the same peer. Operationally this is the mechanism that
batches updates into larger packets — the paper's operational
implication ("aggregate update messages into large packets") is what
MRAI achieves in deployed routers.

:class:`MraiLimiter` sits in front of an Adj-RIB-Out flush: updates for
prefixes inside their interval are held back and released when the
interval expires, with later changes to the same prefix coalescing into
the newest state (flap suppression by batching).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bgp.attributes import PathAttributes
from repro.net.addr import Prefix

#: RFC 4271's suggested default for eBGP sessions, seconds.
DEFAULT_EBGP_INTERVAL = 30.0
#: Conventional iBGP default.
DEFAULT_IBGP_INTERVAL = 5.0


@dataclass(slots=True)
class PendingChange:
    """The newest withheld state for one prefix: announce or withdraw."""

    attributes: PathAttributes | None  # None = withdraw
    queued_at: float


class MraiLimiter:
    """Per-peer MRAI gate.

    :meth:`offer` either passes a change through (returning it) or
    withholds it; :meth:`release_due` returns all withheld changes whose
    interval has expired. An interval of zero disables the gate.

    The limiter owns its release deadline: a withheld change's due time
    is born in :meth:`offer` and dies in :meth:`release_due`, so the
    earliest one is maintained in those two places and
    :meth:`next_release_time` is a plain read.
    """

    def __init__(self, interval: float = DEFAULT_EBGP_INTERVAL):
        if interval < 0:
            raise ValueError(f"negative MRAI interval: {interval}")
        self.interval = interval
        self._last_sent: dict[Prefix, float] = {}
        self._pending: dict[Prefix, PendingChange] = {}
        #: ``min(_due_at(p) for p in _pending)``, None while empty.
        self._next_due: float | None = None
        self.passed = 0
        self.withheld = 0
        self.coalesced = 0

    def __len__(self) -> int:
        return len(self._pending)

    def offer(
        self, prefix: Prefix, attributes: PathAttributes | None, now: float
    ) -> "tuple[Prefix, PathAttributes | None] | None":
        """Submit a change; returns it if it may be sent now, else None.

        ``attributes=None`` is a withdrawal. Withheld changes for the
        same prefix are coalesced: only the newest state will ever be
        released.
        """
        if self.interval == 0.0:
            self.passed += 1
            self._last_sent[prefix] = now
            return (prefix, attributes)
        last = self._last_sent.get(prefix)
        if prefix in self._pending:
            # Already gated: coalesce into the newest state.
            self._pending[prefix] = PendingChange(attributes, now)
            self.coalesced += 1
            return None
        if last is not None and now - last < self.interval:
            self._pending[prefix] = PendingChange(attributes, now)
            self.withheld += 1
            due = last + self.interval  # _due_at(prefix), bit for bit
            if self._next_due is None or due < self._next_due:
                self._next_due = due
            return None
        self._last_sent[prefix] = now
        self.passed += 1
        return (prefix, attributes)

    def _due_at(self, prefix: Prefix) -> float:
        """When the withheld change for *prefix* becomes sendable.

        The one expression behind both sides of the gate —
        :meth:`release_due` tests it and :meth:`offer` records it as the
        deadline :meth:`next_release_time` reports — so they agree
        bit-for-bit: an event scheduled at ``next_release_time()`` is
        guaranteed to release (the two used to compare ``now - last >=
        interval`` vs ``last + interval``, which disagree in floating
        point and could re-arm a release event at its own fire time
        forever).
        """
        return self._last_sent.get(prefix, -self.interval) + self.interval

    def release_due(self, now: float) -> list[tuple[Prefix, PathAttributes | None]]:
        """Release every withheld change whose interval has expired, in
        prefix order (deterministic)."""
        released = []
        next_due = None
        for prefix in sorted(self._pending):
            due = self._due_at(prefix)
            if now >= due:
                change = self._pending.pop(prefix)
                self._last_sent[prefix] = now
                self.passed += 1
                released.append((prefix, change.attributes))
            elif next_due is None or due < next_due:
                next_due = due
        self._next_due = next_due
        return released

    def next_release_time(self) -> float | None:
        """Earliest time at which a withheld change becomes sendable."""
        return self._next_due

    def reset(self) -> None:
        """Session loss: nothing is owed to the peer any more and nothing
        it was sent counts against the next session's first
        advertisement. The lifetime counters stay."""
        self._last_sent.clear()
        self._pending.clear()
        self._next_due = None
