"""Unit tests for the compiled Gao-Rexford topology policies."""

from repro.bgp.attributes import AsPath, PathAttributes
from repro.net.addr import IPv4Address, Prefix
from repro.topo.policy import (
    LOCAL_PREF_CUSTOMER,
    LOCAL_PREF_PEER,
    LOCAL_PREF_PROVIDER,
    TAG_CUSTOMER,
    TAG_PEER,
    TAG_PROVIDER,
    export_policy,
    import_policy,
)
from repro.workload.astopo import Relationship

PREFIX = Prefix.parse("96.0.42.0/24")


def attrs(communities=()):
    return PathAttributes(
        as_path=AsPath.from_asns([65001]),
        next_hop=IPv4Address.parse("10.0.0.1"),
        communities=communities,
    )


class TestImportPolicy:
    def test_customer_routes_tagged_and_preferred(self):
        accepted = import_policy(Relationship.CUSTOMER).apply(attrs())
        assert accepted is not None
        assert accepted.local_pref == LOCAL_PREF_CUSTOMER
        assert accepted.communities == (TAG_CUSTOMER,)

    def test_preference_ladder(self):
        prefs = {
            relationship: import_policy(relationship).apply(attrs()).local_pref
            for relationship in Relationship
        }
        assert prefs[Relationship.CUSTOMER] == LOCAL_PREF_CUSTOMER
        assert prefs[Relationship.PEER] == LOCAL_PREF_PEER
        assert prefs[Relationship.PROVIDER] == LOCAL_PREF_PROVIDER
        assert LOCAL_PREF_CUSTOMER > LOCAL_PREF_PEER > LOCAL_PREF_PROVIDER

    def test_upstream_tag_stripped_before_reclassifying(self):
        # A route arriving already tagged (the neighbour's own marker)
        # must be re-classified, never accumulate tags.
        arriving = attrs(communities=(TAG_CUSTOMER, 0xDEADBEEF))
        accepted = import_policy(Relationship.PROVIDER).apply(arriving)
        assert accepted.communities == (TAG_PROVIDER,)

    def test_fresh_policy_instance_per_call(self):
        # The evaluation counter feeds the CPU cost model and is
        # per-instance; sharing one Policy across peers would corrupt it.
        assert import_policy(Relationship.PEER) is not import_policy(Relationship.PEER)


class TestExportPolicy:
    def test_customer_gets_everything(self):
        policy = export_policy(Relationship.CUSTOMER)
        for tag in (TAG_CUSTOMER, TAG_PEER, TAG_PROVIDER):
            assert policy.apply(attrs(communities=(tag,))) is not None
        assert policy.apply(attrs()) is not None  # locally originated

    def test_peer_and_provider_get_customer_routes_only(self):
        for relationship in (Relationship.PEER, Relationship.PROVIDER):
            policy = export_policy(relationship)
            assert policy.apply(attrs(communities=(TAG_CUSTOMER,))) is not None
            assert policy.apply(attrs()) is not None  # locally originated
            assert policy.apply(attrs(communities=(TAG_PEER,))) is None
            assert policy.apply(attrs(communities=(TAG_PROVIDER,))) is None
