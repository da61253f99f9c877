"""Codec round-trips plus controller<->agent integration."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.linuxnet import VethPair
from repro.net import MacAddress, make_udp_frame
from repro.openflow import ControlChannel, LsiController, SwitchAgent
from repro.openflow.messages import (
    CodecError,
    FlowModCommand,
    OfpType,
    decode_message,
    encode_flow_mod,
    encode_hello,
    encode_packet_in,
    encode_packet_out,
)
from repro.switch import (
    Datapath,
    FlowMatch,
    Output,
    PopVlan,
    PushVlan,
    SelectOutput,
    SetField,
)

MAC_A = MacAddress("02:00:00:00:00:01")
MAC_B = MacAddress("02:00:00:00:00:02")


class TestCodec:
    def test_hello_roundtrip(self):
        message = decode_message(encode_hello(7))
        assert message.msg_type is OfpType.HELLO
        assert message.xid == 7

    def test_flow_mod_roundtrip_full_match(self):
        match = FlowMatch(in_port=3, eth_src=MAC_A, eth_dst=MAC_B,
                          eth_type=0x0800, vlan_vid=42,
                          ip_src="10.0.0.0/24", ip_dst="192.168.1.5/32",
                          ip_proto=17, tp_src=1000, tp_dst=2000)
        actions = (PushVlan(7), SetField("eth_dst", MAC_A), PopVlan(),
                   Output(9))
        data = encode_flow_mod(1, FlowModCommand.ADD, match, actions,
                               priority=5, cookie=0xDEAD)
        message = decode_message(data)
        assert message.command is FlowModCommand.ADD
        assert message.match == match
        assert tuple(message.actions) == actions
        assert message.priority == 5
        assert message.cookie == 0xDEAD

    def test_flow_mod_wildcard_match(self):
        data = encode_flow_mod(2, FlowModCommand.DELETE, FlowMatch(), ())
        message = decode_message(data)
        assert message.match == FlowMatch()
        assert message.actions == []

    def test_select_output_roundtrip(self):
        from repro.switch import SelectOutput
        actions = (PopVlan(), SelectOutput((4, 9, 17)))
        data = encode_flow_mod(3, FlowModCommand.ADD,
                               FlowMatch(in_port=1), actions)
        message = decode_message(data)
        assert tuple(message.actions) == actions

    def test_select_output_group_roundtrip(self):
        # The state-group id travels the wire with the port list —
        # including non-ASCII group names — and its absence decodes to
        # a stateless (group=None) spread.
        from repro.switch import SelectOutput
        for group in ("eg/dpi:in", "gräph/nf:0"):
            actions = (SelectOutput((4, 9, 17), group=group),)
            data = encode_flow_mod(3, FlowModCommand.ADD,
                                   FlowMatch(in_port=1), actions)
            message = decode_message(data)
            assert tuple(message.actions) == actions
            assert message.actions[0].group == group
        stateless = (SelectOutput((4, 9)),)
        message = decode_message(encode_flow_mod(
            4, FlowModCommand.ADD, FlowMatch(in_port=1), stateless))
        assert message.actions[0].group is None

    def test_select_output_malformed_group_raises_codec_error(self):
        # A trailing-garbage or bad-flag group tail is a wire error.
        import struct
        from repro.openflow import messages
        two_ports = struct.pack("!HH", 4, 9)
        for tail in (b"\x02abc", b"\x00junk"):
            payload = struct.pack("!H", 2) + two_ports + tail
            record = struct.pack("!BB", 7, len(payload)) + payload
            data = struct.pack("!H", len(record)) + record
            with pytest.raises(CodecError):
                messages._decode_actions(data, 0)

    def test_malformed_select_output_raises_codec_error(self):
        # An empty (count=0) or truncated select record must surface
        # as a CodecError (the malformed-wire contract), never a
        # ValueError escaping from the action constructor.
        import struct
        from repro.openflow import messages
        empty_select = struct.pack("!H", 4) \
            + struct.pack("!BB", 7, 2) + b"\x00\x00"
        with pytest.raises(CodecError):
            messages._decode_actions(empty_select, 0)
        truncated = struct.pack("!H", 3) \
            + struct.pack("!BB", 7, 1) + b"\x00"
        with pytest.raises(CodecError):
            messages._decode_actions(truncated, 0)

    def test_negative_vlan_sentinels_roundtrip(self):
        from repro.switch.flowtable import ANY_VLAN, NO_VLAN
        for sentinel in (ANY_VLAN, NO_VLAN):
            data = encode_flow_mod(1, FlowModCommand.ADD,
                                   FlowMatch(vlan_vid=sentinel), ())
            assert decode_message(data).match.vlan_vid == sentinel

    def test_packet_in_roundtrip(self):
        frame = make_udp_frame(MAC_A, MAC_B, "1.1.1.1", "2.2.2.2", 1, 2,
                               b"payload").to_bytes()
        message = decode_message(encode_packet_in(9, 4, 0, frame))
        assert message.in_port == 4
        assert message.frame == frame

    def test_packet_out_roundtrip(self):
        frame = make_udp_frame(MAC_A, MAC_B, "1.1.1.1", "2.2.2.2", 1, 2,
                               b"x").to_bytes()
        data = encode_packet_out(3, 0, (Output(5),), frame)
        message = decode_message(data)
        assert message.actions == [Output(5)]
        assert message.frame == frame

    def test_truncated_rejected(self):
        with pytest.raises(CodecError):
            decode_message(b"\x01\x00")

    def test_length_mismatch_rejected(self):
        data = bytearray(encode_hello(1))
        data.extend(b"junk")
        with pytest.raises(CodecError):
            decode_message(bytes(data))

    def test_bad_version_rejected(self):
        data = bytearray(encode_hello(1))
        data[0] = 9
        with pytest.raises(CodecError):
            decode_message(bytes(data))

    @given(st.integers(min_value=0, max_value=0xFFFF),
           st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_flow_mod_priority_cookie_property(self, priority, cookie):
        data = encode_flow_mod(1, FlowModCommand.ADD, FlowMatch(in_port=1),
                               (Output(2),), priority=priority,
                               cookie=cookie)
        message = decode_message(data)
        assert message.priority == priority
        assert message.cookie == cookie


def wired_pair():
    dp = Datapath(0x42, name="lsi-test")
    channel = ControlChannel()
    agent = SwitchAgent(dp, channel)
    controller = LsiController(channel, name="test-ctrl")
    return dp, channel, agent, controller


class TestControllerAgent:
    def test_handshake_discovers_dpid_and_ports(self):
        dp, _channel, _agent, controller = wired_pair()
        dp.add_port("port-a")
        dp.add_port("port-b")
        controller.handshake()
        assert controller.dpid == 0x42
        assert controller.ports == {1: "port-a", 2: "port-b"}

    def test_flow_add_lands_in_table(self):
        dp, _channel, agent, controller = wired_pair()
        controller.handshake()
        controller.flow_add(FlowMatch(in_port=1), (Output(2),), priority=9)
        assert len(dp.table) == 1
        (entry,) = list(dp.table)
        assert entry.priority == 9
        assert agent.flow_mods_applied == 1

    def test_flow_delete_by_cookie_tears_down_graph_rules(self):
        dp, _channel, _agent, controller = wired_pair()
        controller.handshake()
        controller.flow_add(FlowMatch(in_port=1), (Output(2),), cookie=0xA1)
        controller.flow_add(FlowMatch(in_port=2), (Output(1),), cookie=0xA1)
        controller.flow_add(FlowMatch(in_port=3), (Output(1),), cookie=0xB2)
        controller.flow_delete_by_cookie(0xA1)
        assert len(dp.table) == 1

    def test_table_miss_reaches_controller_as_packet_in(self):
        dp, _channel, _agent, controller = wired_pair()
        punted = []
        controller.packet_in_callback = lambda port, raw: punted.append(port)
        controller.handshake()
        pair = VethPair("sw0", "nf0")
        pair.b.set_up()
        dp.add_port("sw0", device=pair.a)
        pair.b.transmit(make_udp_frame(MAC_A, MAC_B, "1.1.1.1", "2.2.2.2",
                                       1, 2, b"miss"))
        assert controller.packet_ins == 1
        assert punted == [1]

    def test_packet_out_injects_frame(self):
        dp, _channel, _agent, controller = wired_pair()
        controller.handshake()
        pair = VethPair("sw0", "nf0")
        received = []
        pair.b.set_up()
        pair.b.attach_handler(lambda dev, fr: received.append(fr))
        dp.add_port("sw0", device=pair.a)
        frame = make_udp_frame(MAC_A, MAC_B, "1.1.1.1", "2.2.2.2", 1, 2,
                               b"out")
        controller.packet_out(0, (Output(1),), frame.to_bytes())
        assert len(received) == 1

    def test_flow_stats_roundtrip(self):
        dp, _channel, _agent, controller = wired_pair()
        controller.handshake()
        controller.flow_add(FlowMatch(in_port=1), (Output(2),), priority=11)
        rows = controller.flow_stats()
        assert len(rows) == 1
        priority, packets, nbytes, match = rows[0]
        assert priority == 11
        assert packets == 0
        assert match == FlowMatch(in_port=1)

    def test_port_stats_roundtrip(self):
        dp, _channel, _agent, controller = wired_pair()
        dp.add_port("a")
        controller.handshake()
        rows = controller.port_stats()
        assert rows == [(1, 0, 0, 0, 0)]

    def test_channel_counts_messages(self):
        _dp, channel, _agent, controller = wired_pair()
        controller.handshake()
        assert channel.messages_exchanged >= 4  # hello x2, features req/rep


def _mutations(message, count, seed):
    """``count`` copies of ``message`` with 1-3 body bytes overwritten
    (the header stays intact so every copy reaches the body decoder)."""
    rng = random.Random(seed)
    for _ in range(count):
        data = bytearray(message)
        for _ in range(rng.randint(1, 3)):
            data[rng.randrange(8, len(data))] = rng.randrange(256)
        yield bytes(data)


def _mutation_seeds():
    frame = make_udp_frame(MAC_A, MAC_B, "1.1.1.1", "2.2.2.2", 1, 2, b"x",
                           vlan=5).to_bytes()
    flow_mod = encode_flow_mod(
        1, FlowModCommand.ADD,
        FlowMatch(in_port=3, eth_src=MAC_A, vlan_vid=42,
                  ip_dst="10.0.0.0/8", tp_dst=80),
        (PopVlan(), PushVlan(7, 3), SetField("eth_dst", "02:00:00:00:00:09"),
         SelectOutput((4, 9), group="g"), Output(2)),
        priority=5, cookie=9)
    packet_out = encode_packet_out(
        3, 1, (PushVlan(9), Output(2), SelectOutput((2, 3))), frame)
    return {"flow-mod": flow_mod, "packet-out": packet_out}


class TestMalformedWire:
    """The decode boundary is total: garbled bytes are a CodecError,
    and the agent answers them with an error reply, never a raise."""

    @pytest.mark.parametrize("kind", ["flow-mod", "packet-out"])
    def test_mutated_messages_raise_only_codec_error(self, kind):
        seed = _mutation_seeds()[kind]
        for index, data in enumerate(_mutations(seed, 3000, seed=17)):
            try:
                decode_message(data)
            except CodecError:
                pass
            except Exception as exc:  # pragma: no cover - the bug
                pytest.fail(f"mutation {index} of the {kind} escaped as "
                            f"{type(exc).__name__}: {exc}")

    @pytest.mark.parametrize("kind", ["flow-mod", "packet-out"])
    def test_agent_answers_mutated_messages_with_error_replies(self, kind):
        dp = Datapath(0x42, name="lsi-fuzz")
        for name in ("a", "b", "c"):
            dp.add_port(name)
        channel = ControlChannel()
        agent = SwitchAgent(dp, channel)
        replies = []
        channel.controller_end.on_receive(replies.append)
        seed = _mutation_seeds()[kind]
        for data in _mutations(seed, 1000, seed=23):
            agent._on_bytes(data)
        assert agent.errors_sent > 0
        errors = [decode_message(reply) for reply in replies]
        assert sum(m.msg_type is OfpType.ERROR for m in errors) \
            == agent.errors_sent

    def test_packet_out_with_a_short_frame_gets_an_error_reply(self):
        dp = Datapath(0x42, name="lsi-short")
        dp.add_port("a")
        channel = ControlChannel()
        agent = SwitchAgent(dp, channel)
        replies = []
        channel.controller_end.on_receive(replies.append)
        data = encode_packet_out(5, 0, (Output(1),), b"\x01\x02\x03")
        with pytest.raises(CodecError, match="frame too short"):
            decode_message(data)
        agent._on_bytes(data)
        assert agent.errors_sent == 1
        (reply,) = replies
        assert decode_message(reply).msg_type is OfpType.ERROR
        assert dp.ports[1].tx_packets == 0
