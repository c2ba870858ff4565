"""Unit tests for the three RIB structures."""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.rib import AdjRibIn, AdjRibOut, LocRib, RibRoute, RouteChange
from repro.net.addr import IPv4Address, Prefix

P1 = Prefix.parse("192.0.2.0/24")
P2 = Prefix.parse("198.51.100.0/24")
NH = IPv4Address.parse("10.0.0.1")
A1 = PathAttributes(as_path=AsPath.from_asns([65001]), next_hop=NH)
A2 = PathAttributes(as_path=AsPath.from_asns([65001, 65002]), next_hop=NH)


class TestAdjRibIn:
    def test_add_new(self):
        rib = AdjRibIn("peer1")
        assert rib.update(P1, A1) is RouteChange.ADDED
        assert rib.get(P1) == A1
        assert len(rib) == 1
        assert P1 in rib

    def test_implicit_withdraw_replaces(self):
        rib = AdjRibIn("peer1")
        rib.update(P1, A1)
        assert rib.update(P1, A2) is RouteChange.REPLACED
        assert rib.get(P1) == A2
        assert len(rib) == 1

    def test_identical_announcement_unchanged(self):
        rib = AdjRibIn("peer1")
        rib.update(P1, A1)
        assert rib.update(P1, A1) is RouteChange.UNCHANGED

    def test_withdraw(self):
        rib = AdjRibIn("peer1")
        rib.update(P1, A1)
        assert rib.withdraw(P1) is RouteChange.REMOVED
        assert rib.get(P1) is None
        assert len(rib) == 0

    def test_withdraw_absent(self):
        rib = AdjRibIn("peer1")
        assert rib.withdraw(P1) is RouteChange.ABSENT

    def test_clear(self):
        rib = AdjRibIn("peer1")
        rib.update(P1, A1)
        rib.update(P2, A2)
        assert rib.clear() == 2
        assert len(rib) == 0

    def test_iteration(self):
        rib = AdjRibIn("peer1")
        rib.update(P1, A1)
        rib.update(P2, A2)
        assert set(rib.prefixes()) == {P1, P2}
        assert dict(rib.items()) == {P1: A1, P2: A2}


class TestLocRib:
    def test_set_best_add(self):
        rib = LocRib()
        route = RibRoute(P1, A1, "peer1")
        assert rib.set_best(route) is RouteChange.ADDED
        assert rib.get(P1) == route
        assert P1 in rib

    def test_set_best_replace(self):
        rib = LocRib()
        rib.set_best(RibRoute(P1, A1, "peer1"))
        assert rib.set_best(RibRoute(P1, A2, "peer2")) is RouteChange.REPLACED
        assert rib.get(P1).peer_id == "peer2"

    def test_set_best_unchanged(self):
        rib = LocRib()
        rib.set_best(RibRoute(P1, A1, "peer1"))
        assert rib.set_best(RibRoute(P1, A1, "peer1")) is RouteChange.UNCHANGED

    def test_source_change_with_same_attributes_is_replace(self):
        rib = LocRib()
        rib.set_best(RibRoute(P1, A1, "peer1"))
        assert rib.set_best(RibRoute(P1, A1, "peer2")) is RouteChange.REPLACED

    def test_remove(self):
        rib = LocRib()
        rib.set_best(RibRoute(P1, A1, "peer1"))
        assert rib.remove(P1) is RouteChange.REMOVED
        assert rib.remove(P1) is RouteChange.ABSENT
        assert len(rib) == 0

    def test_routes_iteration(self):
        rib = LocRib()
        rib.set_best(RibRoute(P1, A1, "peer1"))
        rib.set_best(RibRoute(P2, A2, "peer1"))
        assert {r.prefix for r in rib.routes()} == {P1, P2}


class TestAdjRibOut:
    def test_stage_and_take(self):
        rib = AdjRibOut("peer1")
        assert rib.stage(P1, A1) is RouteChange.ADDED
        assert rib.has_pending()
        announce, withdraw = rib.take_pending()
        assert announce == {P1: A1}
        assert withdraw == set()
        assert not rib.has_pending()

    def test_stage_identical_is_unchanged(self):
        rib = AdjRibOut("peer1")
        rib.stage(P1, A1)
        rib.take_pending()
        assert rib.stage(P1, A1) is RouteChange.UNCHANGED
        assert not rib.has_pending()

    def test_stage_new_attributes_is_replace(self):
        rib = AdjRibOut("peer1")
        rib.stage(P1, A1)
        rib.take_pending()
        assert rib.stage(P1, A2) is RouteChange.REPLACED
        announce, _ = rib.take_pending()
        assert announce == {P1: A2}

    def test_withdraw_advertised(self):
        rib = AdjRibOut("peer1")
        rib.stage(P1, A1)
        rib.take_pending()
        assert rib.stage_withdraw(P1) is RouteChange.REMOVED
        announce, withdraw = rib.take_pending()
        assert announce == {}
        assert withdraw == {P1}
        assert rib.advertised(P1) is None

    def test_withdraw_never_advertised(self):
        rib = AdjRibOut("peer1")
        assert rib.stage_withdraw(P1) is RouteChange.ABSENT
        assert not rib.has_pending()

    def test_announce_then_withdraw_before_flush_cancels(self):
        rib = AdjRibOut("peer1")
        rib.stage(P1, A1)
        rib.stage_withdraw(P1)
        announce, withdraw = rib.take_pending()
        assert announce == {}
        # The prefix was advertised (staged) then withdrawn: the
        # withdrawal must be emitted because stage() recorded it as
        # advertised state.
        assert withdraw == {P1}

    def test_withdraw_then_reannounce_before_flush(self):
        rib = AdjRibOut("peer1")
        rib.stage(P1, A1)
        rib.take_pending()
        rib.stage_withdraw(P1)
        rib.stage(P1, A2)
        announce, withdraw = rib.take_pending()
        assert announce == {P1: A2}
        assert withdraw == set()

    def test_len_tracks_advertised(self):
        rib = AdjRibOut("peer1")
        rib.stage(P1, A1)
        rib.stage(P2, A2)
        assert len(rib) == 2
        rib.stage_withdraw(P1)
        assert len(rib) == 1


class TestSnapshotIterators:
    """Iterators must be snapshots: mutating the RIB mid-iteration is
    exactly what the speaker does when it withdraws routes while
    walking an Adj-RIB-In during session teardown, and historically
    raised ``RuntimeError: dictionary changed size during iteration``."""

    def test_adj_rib_in_mutate_while_iterating(self):
        rib = AdjRibIn("peer1")
        rib.update(P1, A1)
        rib.update(P2, A2)
        seen = []
        for prefix in rib.prefixes():
            rib.withdraw(prefix)  # must not blow up the iteration
            rib.update(Prefix(prefix.network + 256, prefix.length), A1)
            seen.append(prefix)
        assert seen == [P1, P2]

        for prefix, _attrs in rib.items():
            rib.withdraw(prefix)
        assert len(rib) == 0

    def test_loc_rib_mutate_while_iterating(self):
        rib = LocRib()
        rib.set_best(RibRoute(P1, A1, "peer1"))
        rib.set_best(RibRoute(P2, A2, "peer1"))
        seen = []
        for route in rib.routes():
            rib.remove(route.prefix)
            seen.append(route.prefix)
        assert seen == [P1, P2]
        assert len(rib) == 0
        for prefix in LocRib().prefixes():
            raise AssertionError(f"empty RIB yielded {prefix}")

    def test_iteration_order_is_network_then_length(self):
        rib = AdjRibIn("peer1")
        prefixes = [
            Prefix.parse("10.0.0.0/8"),
            Prefix.parse("10.0.0.0/16"),
            Prefix.parse("10.0.0.0/24"),
            Prefix.parse("9.0.0.0/8"),
            Prefix.parse("192.0.2.0/24"),
        ]
        for prefix in reversed(prefixes):
            rib.update(prefix, A1)
        assert list(rib.prefixes()) == sorted(
            prefixes, key=lambda p: (p.network, p.length)
        )


#: A third set equal to A1 but not the same object: the column methods'
#: equality fallback, beside the identity hit of interned sets.
A1_COPY = replace(A1)
POOL = (P1, P2, Prefix.parse("203.0.113.0/24"), Prefix.parse("10.0.0.0/8"))
prefix_lists = st.lists(st.sampled_from(POOL), max_size=6)
attribute_sets = st.sampled_from((A1, A2, A1_COPY))


def entries(mapping: dict) -> list:
    """A dict's items in insertion order, with value identity."""
    return [(key, id(value)) for key, value in mapping.items()]


class TestColumnMethods:
    """Each ``*_many`` method equals the per-prefix loop it stands for:
    return value, dict insertion order (and which object was stored),
    repeated prefixes, and the pending-withdraw set."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), prefix_lists, attribute_sets), max_size=10))
    def test_adj_rib_in_columns_equal_the_loops(self, steps):
        column, loop = AdjRibIn("column"), AdjRibIn("loop")
        for announce, prefixes, attributes in steps:
            if announce:
                got = column.update_many(tuple(prefixes), attributes)
                want = [
                    prefix for prefix in prefixes
                    if loop.update(prefix, attributes) is not RouteChange.UNCHANGED
                ]
            else:
                got = column.withdraw_many(tuple(prefixes))
                want = [
                    prefix for prefix in prefixes
                    if loop.withdraw(prefix) is RouteChange.REMOVED
                ]
            assert got == want
            assert entries(column._routes) == entries(loop._routes)
            assert list(column.get_many(POOL)) == [loop.get(prefix) for prefix in POOL]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.one_of(
            st.tuples(st.just("stage"), st.dictionaries(st.sampled_from(POOL), attribute_sets)),
            st.tuples(st.just("withdraw"), prefix_lists),
            st.tuples(st.just("take"), st.none()),
        ),
        max_size=12,
    ))
    def test_adj_rib_out_columns_equal_the_loops(self, steps):
        column, loop = AdjRibOut("column"), AdjRibOut("loop")
        for kind, argument in steps:
            if kind == "stage":
                got = column.stage_many(argument)
                want = [
                    prefix for prefix, attributes in argument.items()
                    if loop.stage(prefix, attributes) is not RouteChange.UNCHANGED
                ]
            elif kind == "withdraw":
                got = column.stage_withdraw_many(argument)
                want = [
                    prefix for prefix in argument
                    if loop.stage_withdraw(prefix) is RouteChange.REMOVED
                ]
            else:
                got, want = column.take_pending(), loop.take_pending()
            assert got == want
            assert entries(column._advertised) == entries(loop._advertised)
            announce, withdraw = column.pending()
            loop_announce, loop_withdraw = loop.pending()
            assert entries(announce) == entries(loop_announce)
            assert withdraw == loop_withdraw
