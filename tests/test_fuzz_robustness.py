"""Fuzz-style robustness: arbitrary and mutated wire bytes must never
crash the speaker — every input is either processed or rejected through
the NOTIFICATION/teardown path.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.fsm import State
from repro.bgp.messages import KeepaliveMessage, OpenMessage, UpdateMessage
from repro.bgp.speaker import BgpSpeaker, PeerConfig, SpeakerConfig
from repro.net.addr import IPv4Address, Prefix

S1 = "s1"
S1_AS = 65001
S1_ADDR = IPv4Address.parse("10.0.1.1")


def connected_speaker():
    speaker = BgpSpeaker(
        SpeakerConfig(
            asn=65000,
            bgp_identifier=IPv4Address.parse("9.9.9.9"),
            local_address=IPv4Address.parse("10.0.0.254"),
            hold_time=0.0,
        )
    )
    speaker.add_peer(PeerConfig(S1, S1_AS, S1_ADDR))
    speaker.set_send_callback(S1, lambda data: None)
    speaker.start_peer(S1)
    speaker.transport_connected(S1)
    speaker.receive_bytes(S1, OpenMessage(S1_AS, 0, IPv4Address.parse("1.1.1.1")).encode())
    speaker.receive_bytes(S1, KeepaliveMessage().encode())
    return speaker


def valid_update() -> bytes:
    attrs = PathAttributes(
        as_path=AsPath.from_asns([S1_AS, 300]), next_hop=S1_ADDR
    )
    return UpdateMessage(
        attributes=attrs,
        nlri=(Prefix.parse("192.0.2.0/24"), Prefix.parse("198.51.100.0/24")),
    ).encode()


class TestRandomBytes:
    @settings(max_examples=150, deadline=None)
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes_never_crash(self, data):
        speaker = connected_speaker()
        speaker.receive_bytes(S1, data)
        # Either still up (bytes were a valid prefix of a message or a
        # whole valid message) or torn down cleanly.
        assert speaker.peers[S1].fsm.state in State

    @settings(max_examples=150, deadline=None)
    @given(st.binary(min_size=19, max_size=100).map(lambda b: b"\xff" * 16 + b[16:]))
    def test_marker_prefixed_garbage_never_crashes(self, data):
        speaker = connected_speaker()
        speaker.receive_bytes(S1, data)
        assert speaker.peers[S1].fsm.state in State


class TestMutatedValidMessages:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_single_byte_mutations_never_crash(self, data):
        wire = bytearray(valid_update())
        index = data.draw(st.integers(min_value=0, max_value=len(wire) - 1))
        value = data.draw(st.integers(min_value=0, max_value=255))
        wire[index] = value
        speaker = connected_speaker()
        speaker.receive_bytes(S1, bytes(wire))
        state = speaker.peers[S1].fsm.state
        assert state in (State.ESTABLISHED, State.IDLE)
        if state is State.ESTABLISHED:
            # If the session survived, the speaker's RIBs are coherent:
            # Loc-RIB only holds prefixes present in the Adj-RIB-In.
            adj = set(speaker.peers[S1].adj_rib_in.prefixes())
            for route in speaker.loc_rib.routes():
                assert route.prefix in adj

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=100))
    def test_truncations_never_crash(self, cut):
        wire = valid_update()
        speaker = connected_speaker()
        speaker.receive_bytes(S1, wire[: max(0, len(wire) - cut)])
        # A truncated message just waits in the framer (or killed the
        # session if the header itself was malformed).
        assert speaker.peers[S1].fsm.state in State

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_mutations_decode_identically_to_legacy(self, data):
        """The zero-copy decoder and the frozen legacy decoder must
        agree on corrupt input too: same messages or the same
        NOTIFICATION (code, subcode, data) — the speaker's teardown
        behaviour is a function of that taxonomy."""
        from oracles import legacy_codec
        from repro.bgp.errors import BgpError
        from repro.bgp.messages import decode_message

        wire = bytearray(valid_update())
        index = data.draw(st.integers(min_value=0, max_value=len(wire) - 1))
        wire[index] = data.draw(st.integers(min_value=0, max_value=255))
        wire = bytes(wire)

        def outcome(decoder):
            try:
                return ("ok", decoder(wire))
            except BgpError as error:
                n = error.notification
                return ("error", n.code, n.subcode, bytes(n.data))

        assert outcome(decode_message) == outcome(legacy_codec.legacy_decode_message)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=60))
    def test_arbitrary_resegmentation_is_lossless(self, cut1, cut2):
        """Any split of the byte stream into segments must decode to
        the same result as one contiguous delivery."""
        wire = valid_update() + KeepaliveMessage().encode() + valid_update()
        a = connected_speaker()
        a.receive_bytes(S1, wire)
        b = connected_speaker()
        first = min(cut1, len(wire))
        second = min(first + cut2, len(wire))
        b.receive_bytes(S1, wire[:first])
        b.receive_bytes(S1, wire[first:second])
        b.receive_bytes(S1, wire[second:])
        assert set(a.loc_rib.prefixes()) == set(b.loc_rib.prefixes())
        assert a.work.prefixes_announced == b.work.prefixes_announced
