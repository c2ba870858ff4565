"""Route-flap damping (RFC 2439).

The paper's motivation cites BGP instability (Labovitz et al.) and worm
events that multiply update rates; route-flap damping is the canonical
mitigation routers of the era deployed. Each (peer, prefix) pair keeps
a penalty figure of merit that grows on every flap and decays
exponentially with time; a route whose penalty crosses the suppress
threshold is not used (nor re-advertised) until it decays below the
reuse threshold.

The implementation is time-driven but clock-agnostic: callers pass
``now`` (virtual seconds from the simulator, or wall time), so the
benchmark can exercise damping in simulated time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.net.addr import Prefix


@dataclass(frozen=True, slots=True)
class DampingConfig:
    """RFC 2439 parameters, defaulting to the classic Cisco values."""

    withdrawal_penalty: float = 1000.0
    readvertisement_penalty: float = 0.0
    attribute_change_penalty: float = 500.0
    suppress_threshold: float = 2000.0
    reuse_threshold: float = 750.0
    half_life: float = 900.0          # seconds
    max_suppress_time: float = 3600.0  # seconds

    def __post_init__(self) -> None:
        if self.half_life <= 0:
            raise ValueError("half_life must be positive")
        if self.reuse_threshold >= self.suppress_threshold:
            raise ValueError("reuse threshold must be below suppress threshold")
        if self.max_suppress_time <= 0:
            raise ValueError("max_suppress_time must be positive")

    @property
    def decay_rate(self) -> float:
        """Exponential decay constant: penalty(t) = p * exp(-rate * t)."""
        return math.log(2.0) / self.half_life

    @property
    def penalty_ceiling(self) -> float:
        """Penalties are clamped so a route cannot stay suppressed longer
        than ``max_suppress_time`` after it stops flapping (RFC 2439
        §4.2: the maximum penalty)."""
        return self.reuse_threshold * math.exp(
            self.decay_rate * self.max_suppress_time
        )


@dataclass(slots=True)
class FlapHistory:
    """Per-(peer, prefix) damping state."""

    penalty: float = 0.0
    last_update: float = 0.0
    suppressed: bool = False
    flaps: int = 0

    def decayed_penalty(self, decay_rate: float, now: float) -> float:
        dt = max(0.0, now - self.last_update)
        return self.penalty * math.exp(-decay_rate * dt)


class RouteDamper:
    """Flap-damping bookkeeping for one peer's routes.

    Call :meth:`record_withdrawal`, :meth:`record_readvertisement`, or
    :meth:`record_attribute_change` when the corresponding event is
    observed, then consult :meth:`is_suppressed`. Histories whose
    penalty has decayed to a negligible level are garbage-collected.
    """

    #: Histories below this penalty (and not suppressed) are dropped.
    GC_FLOOR = 1.0

    def __init__(self, config: DampingConfig | None = None):
        self.config = config if config is not None else DampingConfig()
        # Derived constants of the (frozen) config, read on every flap.
        self._decay_rate = self.config.decay_rate
        self._penalty_ceiling = self.config.penalty_ceiling
        self._histories: dict[Prefix, FlapHistory] = {}
        self.suppressions = 0
        self.reuses = 0

    def __len__(self) -> int:
        return len(self._histories)

    def _bump(self, prefix: Prefix, penalty: float, now: float) -> FlapHistory:
        history = self._histories.get(prefix)
        if history is None:
            history = FlapHistory(last_update=now)
            self._histories[prefix] = history
        decayed = history.decayed_penalty(self._decay_rate, now)
        history.penalty = min(decayed + penalty, self._penalty_ceiling)
        history.last_update = now
        history.flaps += 1
        if not history.suppressed and history.penalty >= self.config.suppress_threshold:
            history.suppressed = True
            self.suppressions += 1
        return history

    def record_withdrawal(self, prefix: Prefix, now: float) -> bool:
        """Record a withdrawal flap; returns True if now suppressed."""
        return self._bump(prefix, self.config.withdrawal_penalty, now).suppressed

    def record_readvertisement(self, prefix: Prefix, now: float) -> bool:
        """Record a re-advertisement after withdrawal."""
        return self._bump(prefix, self.config.readvertisement_penalty, now).suppressed

    def record_attribute_change(self, prefix: Prefix, now: float) -> bool:
        """Record an attribute-changing re-announcement."""
        return self._bump(prefix, self.config.attribute_change_penalty, now).suppressed

    def is_suppressed(self, prefix: Prefix, now: float) -> bool:
        """Whether *prefix* is currently suppressed, applying decay and
        the reuse threshold."""
        history = self._histories.get(prefix)
        if history is None:
            return False
        penalty = history.decayed_penalty(self._decay_rate, now)
        if history.suppressed and penalty < self.config.reuse_threshold:
            history.suppressed = False
            history.penalty = penalty
            history.last_update = now
            self.reuses += 1
        if not history.suppressed and penalty < self.GC_FLOOR:
            del self._histories[prefix]
            return False
        return history.suppressed

    def penalty_of(self, prefix: Prefix, now: float) -> float:
        history = self._histories.get(prefix)
        return 0.0 if history is None else history.decayed_penalty(self._decay_rate, now)

    def reuse_time(self, prefix: Prefix, now: float) -> float | None:
        """Seconds from *now* until the prefix becomes reusable, or None
        if it is not suppressed."""
        if not self.is_suppressed(prefix, now):
            return None
        penalty = self.penalty_of(prefix, now)
        return math.log(penalty / self.config.reuse_threshold) / self._decay_rate
