"""Brute-force longest-prefix match: the oracle the FIB's lookup is
checked against (``tests/test_properties.py``). It scans every route,
so it is obviously right and far too slow for anything but tests.
"""

from __future__ import annotations

__all__ = ["brute_force_lookup"]


def brute_force_lookup(routes: dict, address: int):
    """The ``(prefix, value)`` of the longest prefix in *routes* that
    contains *address*, or None."""
    best = None
    for prefix, value in routes.items():
        if prefix.contains(address):
            if best is None or prefix.length > best[0].length:
                best = (prefix, value)
    return best
