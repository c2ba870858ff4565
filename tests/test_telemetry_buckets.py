"""The shared bucket-splitting primitive: boundary conditions.

``spread`` is the one function both monitors use to distribute an
interval over fixed-width buckets; these tests pin the half-open
semantics at the edges (an interval ending exactly on a bucket
boundary, a zero-width interval) that off-by-one rewrites break first.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.buckets import spread


def reference_spread(start, end, width):
    """``spread`` as the generator it was before it answered the
    one-bucket case without the loop — the arithmetic to stay equal to."""
    if end <= start:
        return
    index = int(start // width)
    cursor = start
    while cursor < end:
        boundary = (index + 1) * width
        upper = min(boundary, end)
        yield index, upper - cursor
        cursor = upper
        index += 1


class TestSpread:
    def test_interval_within_one_bucket(self):
        assert list(spread(0.2, 0.7, 1.0)) == [(0, pytest.approx(0.5))]

    def test_interval_spanning_buckets(self):
        chunks = list(spread(0.5, 2.5, 1.0))
        assert [bucket for bucket, _ in chunks] == [0, 1, 2]
        assert [part for _, part in chunks] == [
            pytest.approx(0.5),
            pytest.approx(1.0),
            pytest.approx(0.5),
        ]

    def test_interval_ending_exactly_on_bucket_edge(self):
        # Half-open buckets: [1.0, 2.0) belongs entirely to bucket 1 and
        # nothing spills into bucket 2.
        assert list(spread(1.0, 2.0, 1.0)) == [(1, pytest.approx(1.0))]

    def test_interval_starting_and_ending_on_edges_spans_exact_buckets(self):
        chunks = list(spread(2.0, 5.0, 1.0))
        assert [bucket for bucket, _ in chunks] == [2, 3, 4]
        assert all(part == pytest.approx(1.0) for _, part in chunks)

    def test_zero_width_interval_yields_nothing(self):
        assert list(spread(1.0, 1.0, 1.0)) == []
        assert list(spread(0.3, 0.3, 0.5)) == []

    def test_negative_interval_yields_nothing(self):
        assert list(spread(2.0, 1.0, 1.0)) == []

    def test_fractional_width(self):
        chunks = list(spread(0.0, 1.0, 0.5))
        assert [bucket for bucket, _ in chunks] == [0, 1]
        assert all(part == pytest.approx(0.5) for _, part in chunks)

    def test_parts_sum_to_interval_length(self):
        start, end, width = 0.37, 9.81, 0.7
        total = math.fsum(part for _, part in spread(start, end, width))
        assert total == pytest.approx(end - start)


    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        start=st.floats(min_value=-50.0, max_value=50.0),
        length=st.one_of(
            st.floats(min_value=0.0, max_value=5.0),
            st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]),
        ),
        width=st.sampled_from([0.1, 0.25, 0.5, 1.0, 1, 3.0]),
        snap=st.booleans(),
    )
    def test_equal_to_the_reference_loop_bit_for_bit(self, start, length, width, snap):
        if snap:  # start and end on bucket edges: where off-by-ones live
            start = math.floor(start / width) * width
        assert list(spread(start, start + length, width)) == list(
            reference_spread(start, start + length, width)
        )
