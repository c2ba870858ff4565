"""Shared bucketing arithmetic for every time-series collector.

Monitors (:mod:`repro.sim.monitor`), histograms
(:mod:`repro.telemetry.metrics`), and the CPU-attribution profiler
(:mod:`repro.telemetry.profile`) all need the same primitive: split a
half-open virtual-time interval across fixed-width buckets, or measure
its overlap with an arbitrary window. Keeping the arithmetic in one
place keeps every consumer's edge behaviour identical — an interval
ending exactly on a bucket boundary contributes nothing to the next
bucket, and a zero-width interval contributes nothing at all.
"""

from __future__ import annotations

from typing import Sequence


def spread(start: float, end: float, width: float) -> Sequence[tuple[int, float]]:
    """Split ``[start, end)`` at bucket boundaries of *width*; return
    ``(bucket_index, overlap_seconds)`` pairs in bucket order.

    The interval is half-open: an interval ending exactly on a bucket
    edge never reaches the bucket starting at that edge, and a zero- (or
    negative-) width interval gives nothing. Every overlap is strictly
    positive and the overlaps sum to ``end - start``.

    The fluid CPU loop calls this for every served task on every step,
    and a step of a per-packet run lies inside one bucket: that case is
    the loop's first iteration (``min(boundary, end) - start``), answered
    without the loop.
    """
    if end <= start:
        return ()
    index = int(start // width)
    if end <= (index + 1) * width:
        return ((index, end - start),)
    pieces = []
    cursor = start
    while cursor < end:
        boundary = (index + 1) * width
        upper = min(boundary, end)
        pieces.append((index, upper - cursor))
        cursor = upper
        index += 1
    return pieces


def overlap(start: float, end: float, lo: float, hi: float) -> float:
    """Length of ``[start, end) ∩ [lo, hi)``; zero when disjoint."""
    return max(0.0, min(end, hi) - max(start, lo))
