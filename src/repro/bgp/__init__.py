"""A from-scratch BGP-4 implementation (RFC 4271).

This package provides the protocol substrate the benchmark exercises:

* :mod:`repro.bgp.messages` — byte-exact wire codec for OPEN, UPDATE,
  KEEPALIVE, and NOTIFICATION messages;
* :mod:`repro.bgp.attributes` — path-attribute codec (ORIGIN, AS_PATH,
  NEXT_HOP, MED, LOCAL_PREF, ATOMIC_AGGREGATE, AGGREGATOR, COMMUNITIES);
* :mod:`repro.bgp.errors` — the NOTIFICATION error taxonomy;
* :mod:`repro.bgp.fsm` — the session finite-state machine;
* :mod:`repro.bgp.rib` — Adj-RIB-In, Loc-RIB, and Adj-RIB-Out;
* :mod:`repro.bgp.decision` — the best-path decision process;
* :mod:`repro.bgp.policy` — import/export policy engine;
* :mod:`repro.bgp.speaker` — a complete BGP speaker tying it together.
"""

from typing import Callable

from repro.bgp.attributes import (
    Aggregator,
    AsPath,
    AsPathSegment,
    Origin,
    PathAttributes,
    SegmentType,
)
from repro.bgp.errors import BgpError, NotificationData
from repro.bgp.messages import (
    BgpMessage,
    KeepaliveMessage,
    NotificationMessage,
    OpenMessage,
    Route,
    UpdateMessage,
    decode_message,
    iter_messages,
)
from repro.bgp.speaker import BgpSpeaker, PeerConfig, SpeakerConfig

#: Clear hooks of the caches kept by packages above this one, which
#: this package may not import (DESIGN.md §6).
_cache_clear_hooks: "list[Callable[[], None]]" = []


def register_cache_clear(clear: "Callable[[], None]") -> None:
    """Have :func:`reset_caches` call *clear* too. A module-level cache
    outside this package registers its clear hook at import."""
    _cache_clear_hooks.append(clear)


def reset_caches() -> None:
    """Reset every codec-level cache in the package, and every cache
    registered with :func:`register_cache_clear`, to a cold state.

    Cache discipline: the attribute flyweight, decode memo, and prefix
    flyweight are value-keyed pure memoization (warm vs cold never
    changes results, only speed — the fork-safety contract documented
    in :mod:`repro.bgp.attributes`), but tests that assert on hit/miss
    telemetry or measure cold-path cost must start from a known state.
    Call this in test setup instead of reaching for the per-module
    ``clear_*`` helpers.
    """
    from repro.bgp.attributes import clear_codec_caches
    from repro.bgp.messages import clear_prefix_cache

    clear_codec_caches()
    clear_prefix_cache()
    for clear in _cache_clear_hooks:
        clear()


__all__ = [
    "Aggregator",
    "AsPath",
    "AsPathSegment",
    "BgpError",
    "BgpMessage",
    "BgpSpeaker",
    "KeepaliveMessage",
    "NotificationData",
    "NotificationMessage",
    "OpenMessage",
    "Origin",
    "PathAttributes",
    "PeerConfig",
    "Route",
    "SegmentType",
    "SpeakerConfig",
    "UpdateMessage",
    "decode_message",
    "iter_messages",
    "register_cache_clear",
    "reset_caches",
]
