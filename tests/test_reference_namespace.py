"""Differential: NF-side ingress against the test-side reference namespace.

Production runs each NF-side ingress layer through one body that takes
a frame sequence: ``NetDevice._ingress`` (sink choice and VLAN demux),
``Bridge._bridge_input`` and ``NetworkNamespace._stack_input``.
:mod:`reference_namespace` keeps the per-frame semantics they must
reproduce.  These tests compare the two

* on the VLAN demux and the bridge in isolation (frame order and every
  device's rx and drop counters), and
* through the four graphs the end-to-end benchmark deploys — quickstart
  NAT, native IPsec CPE, firewall -> DPI and the 16-tenant shared NAT —
  under Hypothesis-drawn frame mixes: both directions, new and
  established flows, policy drops, NAT port clashes, ESP replays and
  malformed frames, batched and frame by frame.  Egress must be
  byte-identical on every wire, and conntrack, SA, rule, namespace,
  device and bridge state identical after every burst.

It also holds the regression test for the masquerade port clash.
"""

import itertools
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import ComputeNode, Nffg
from repro.ipsec.esp import esp_encapsulate
from repro.ipsec.sa import SecurityAssociation
from repro.linuxnet import devices
from repro.linuxnet.bridge import Bridge
from repro.linuxnet.devices import NetDevice, VethPair, VlanDevice
from repro.linuxnet.host import LinuxHost
from repro.net import MacAddress, make_tcp_frame, make_udp_frame, parse_frame
from repro.net.ethernet import ETHERTYPE_IPV4, EthernetFrame
from repro.net.ipv4 import IPPROTO_UDP, IPv4Packet
from repro.net.transport import UdpDatagram
from repro.nnf.plugins.strongswan import tunnel_sa_parameters
from tests import reference_namespace

MAC_A = MacAddress("02:aa:00:00:00:01")
MAC_B = MacAddress("02:aa:00:00:00:02")
DEVICE_COUNTERS = ("rx_packets", "rx_bytes", "rx_dropped", "tx_packets",
                   "tx_bytes", "tx_dropped")
NAMESPACE_COUNTERS = ("rx_delivered", "rx_forwarded", "rx_dropped_filter",
                      "rx_no_route", "rx_bad_packets", "tx_sent", "esp_in",
                      "esp_out", "esp_errors")


def udp(src, dst, sport, dport, payload=b"x", vlan=None, ttl=64):
    return make_udp_frame(MAC_A, MAC_B, src, dst, sport, dport, payload,
                          vlan=vlan, ttl=ttl)


def device_state(device):
    return tuple(getattr(device, name) for name in DEVICE_COUNTERS)


# -- VLAN demux ------------------------------------------------------------------

def demux_rig(reference, down=(), handler=False):
    """A trunk veth into an NF namespace whose ``mux0`` end carries
    subdevices for VIDs 101 and 102.  Returns the wire end, every
    device, and the log of what the stack (or a parent handler) got:
    ``(device name, payload bytes)`` in arrival order."""
    host = LinuxHost(hostname="demux")
    namespace = host.add_namespace("nf")
    trunk = VethPair("mux0", "trunk")
    namespace.add_device(trunk.a)
    trunk.a.set_up()
    trunk.b.set_up()
    subs = []
    for vid in (101, 102):
        sub = VlanDevice(trunk.a, vid)
        namespace.add_device(sub)
        if vid not in down:
            sub.set_up()
        subs.append(sub)
    seen = []
    namespace._receive_skb = lambda skb: seen.append(
        (skb.in_iface, skb.ipv4.payload))
    if handler:
        trunk.a.attach_handler(
            lambda dev, frame: seen.append(("handler", frame.to_bytes())))
    if reference:
        reference_namespace.install(host)
    return trunk.b, [trunk.a, trunk.b] + subs, seen


def mixed_vids():
    """Runs of each VID, untagged frames, an unknown VID and a
    malformed tagged frame, interleaved."""
    vids = [101, 101, 102, None, 101, 999, 999, 102, 102, None, 101, 102]
    frames = [udp("10.0.0.1", "10.0.0.2", 1000 + i, 53, b"f%d" % i, vlan=vid)
              for i, vid in enumerate(vids)]
    frames.append(EthernetFrame(dst=MAC_B, src=MAC_A,
                                ethertype=ETHERTYPE_IPV4, payload=b"\x45",
                                vlan=101))
    return frames


@pytest.mark.parametrize("rig", [
    {},
    {"down": (102,)},
    {"handler": True},
], ids=["mixed", "subdevice-down", "parent-handler"])
@pytest.mark.parametrize("batched", [True, False], ids=["batch", "per-frame"])
def test_demux_matches_reference(rig, batched):
    wire, production_devices, production_seen = demux_rig(False, **rig)
    ref_wire, reference_devices, reference_seen = demux_rig(True, **rig)
    frames = mixed_vids()
    if batched:
        wire.transmit_batch(frames)
    else:
        for frame in frames:
            wire.transmit(frame)
    ref_wire.transmit_batch(frames)
    assert production_seen == reference_seen
    assert ([device_state(d) for d in production_devices]
            == [device_state(d) for d in reference_devices])
    parent = production_devices[0]
    assert parent.rx_packets + parent.rx_dropped == len(frames)


def test_demux_keeps_batches_per_run():
    """Each run reaches its subdevice's sink as one batch, tag stripped."""
    wire, (parent, _wire, sub101, sub102), _seen = demux_rig(False)
    calls = []
    sub101.attach_handler(lambda dev, frame: None,
                          lambda dev, frames: calls.append(
                              (dev.name, [f.vlan for f in frames])))
    wire.transmit_batch(mixed_vids())
    assert calls == [("mux0.101", [None, None]), ("mux0.101", [None]),
                     ("mux0.101", [None]), ("mux0.101", [None])]
    assert sub102.rx_packets == 4
    assert parent.rx_packets == len(mixed_vids())


def test_demux_without_namespace_counts_drops():
    parent = NetDevice("mux0")
    parent.set_up()
    sub = VlanDevice(parent, 101)
    sub.set_up()
    frames = [udp("10.0.0.1", "10.0.0.2", 1, 2, vlan=vid)
              for vid in (101, None, 7, 101)]
    parent.receive_batch(frames)
    ref_parent = NetDevice("ref0")
    ref_parent.set_up()
    ref_sub = VlanDevice(ref_parent, 101)
    ref_sub.set_up()
    reference_namespace.receive_batch(ref_parent, frames)
    assert device_state(parent) == device_state(ref_parent)
    assert device_state(sub) == device_state(ref_sub)
    assert parent.rx_dropped == 2 and sub.rx_dropped == 2


# -- bridge ------------------------------------------------------------------------

def bridge_rig(reference, vlan_filtering):
    host = LinuxHost(hostname="br")
    namespace = host.add_namespace("nf")
    bridge = Bridge("br0", vlan_filtering=vlan_filtering)
    wires, seen = [], []
    for i in range(3):
        pair = VethPair(f"p{i}", f"w{i}")
        namespace.add_device(pair.a)
        pair.a.set_up()
        pair.b.set_up()
        pair.b.attach_handler(
            lambda dev, frame: seen.append((dev.name, frame.to_bytes())))
        bridge.add_port(pair.a)
        wires.append(pair.b)
    if reference:
        reference_namespace.install(host)
    return bridge, wires, seen


@pytest.mark.parametrize("vlan_filtering", [False, True])
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3),
                          st.integers(0, 3), st.sampled_from([None, 5, 6])),
                min_size=1, max_size=16),
       st.booleans())
@settings(max_examples=40, deadline=None)
def test_bridge_matches_reference(vlan_filtering, traffic, batched):
    """Learning, floods, hairpin drops and per-port egress order."""
    macs = [MacAddress(f"02:bb:00:00:00:0{i}") for i in range(3)] \
        + [MacAddress("ff:ff:ff:ff:ff:ff")]
    production, wires, seen = bridge_rig(False, vlan_filtering)
    reference, ref_wires, ref_seen = bridge_rig(True, vlan_filtering)
    frames = [(port, make_udp_frame(macs[src % 3], macs[dst], "10.0.0.1",
                                    "10.0.0.2", src, dst, b"b%d" % i,
                                    vlan=vlan))
              for i, (port, src, dst, vlan) in enumerate(traffic)]
    # Consecutive frames into the same port form one batch.
    for port, group in itertools.groupby(frames, key=lambda pf: pf[0]):
        batch = [frame for _port, frame in group]
        if batched:
            wires[port].transmit_batch(batch)
        else:
            for frame in batch:
                wires[port].transmit(frame)
        ref_wires[port].transmit_batch(batch)
    per_port = lambda log: {name: [raw for n, raw in log if n == name]
                            for name in ("w0", "w1", "w2")}
    assert per_port(seen) == per_port(ref_seen)
    assert ((production.forwarded, production.flooded, production.dropped)
            == (reference.forwarded, reference.flooded, reference.dropped))
    assert ({key: (e.port.name, e.packets) for key, e in production._fdb.items()}
            == {key: (e.port.name, e.packets)
                for key, e in reference._fdb.items()})
    assert ([device_state(w.peer) for w in wires]
            == [device_state(w.peer) for w in ref_wires])


def test_bridge_lone_frame_leaves_per_frame():
    """A port's single queued frame leaves through ``transmit``, so a
    per-frame ingress stays per frame on the far side."""
    bridge, wires, _seen = bridge_rig(False, False)
    calls = []
    wires[1].detach_handler()
    wires[1].attach_handler(lambda dev, frame: calls.append("frame"),
                            lambda dev, frames: calls.append(len(frames)))
    learn = make_udp_frame(MacAddress("02:bb:00:00:00:01"), MAC_B, "10.0.0.1",
                           "10.0.0.2", 1, 2, b"l")
    wires[1].transmit(learn)
    to_1 = make_udp_frame(MAC_A, MacAddress("02:bb:00:00:00:01"), "10.0.0.1",
                          "10.0.0.2", 1, 2, b"u")
    wires[0].transmit(to_1)
    wires[0].transmit_batch([to_1, to_1, to_1])
    assert calls == ["frame", 3]


# -- the four deployed graphs --------------------------------------------------------

NAT_WAN_IP = "203.0.113.2"
IPSEC_LOCAL, IPSEC_PEER, IPSEC_PSK = "203.0.113.2", "198.51.100.9", "ref-psk"
SERVERS = ("8.8.8.8", "20.1.2.3", "203.0.113.9")
SPORTS = (1000, 1001, 40000, 700)
DPORTS = (53, 123, 443)
TENANTS = 16
KINDS = ("udp", "udp", "udp", "tcp", "non-ip", "truncated", "ttl1")


def nat_graph():
    graph = Nffg(graph_id="quickstart", name="home NAT service")
    graph.add_nf("nat1", "nat", config={
        "lan.address": "192.168.1.1/24",
        "wan.address": f"{NAT_WAN_IP}/24",
        "gateway": "203.0.113.1",
    })
    graph.add_endpoint("lan", "lan0")
    graph.add_endpoint("wan", "wan0")
    graph.add_flow_rule("r1", "endpoint:lan", "vnf:nat1:lan")
    graph.add_flow_rule("r2", "vnf:nat1:lan", "endpoint:lan")
    graph.add_flow_rule("r3", "vnf:nat1:wan", "endpoint:wan")
    graph.add_flow_rule("r4", "endpoint:wan", "vnf:nat1:wan",
                        ip_dst="203.0.113.0/24")
    return graph


def ipsec_graph():
    graph = Nffg(graph_id="ipsec-cpe", name="IPsec endpoint on CPE")
    graph.add_nf("vpn", "ipsec-endpoint", technology="native", config={
        "lan.address": "192.168.1.1/24",
        "wan.address": f"{IPSEC_LOCAL}/24",
        "gateway": "203.0.113.1",
        "ipsec.local": IPSEC_LOCAL,
        "ipsec.peer": IPSEC_PEER,
        "ipsec.local_subnet": "192.168.1.0/24",
        "ipsec.remote_subnet": "10.8.0.0/24",
        "ipsec.psk": IPSEC_PSK,
    })
    graph.add_endpoint("lan", "lan0")
    graph.add_endpoint("wan", "wan0")
    graph.add_flow_rule("r1", "endpoint:lan", "vnf:vpn:lan")
    graph.add_flow_rule("r2", "vnf:vpn:lan", "endpoint:lan")
    graph.add_flow_rule("r3", "vnf:vpn:wan", "endpoint:wan")
    graph.add_flow_rule("r4", "endpoint:wan", "vnf:vpn:wan",
                        ip_dst=f"{IPSEC_LOCAL}/32")
    return graph


def fw_dpi_graph():
    graph = Nffg(graph_id="residential", name="firewall + DPI chain")
    graph.add_nf("fw", "firewall", config={
        "lan.address": "192.168.1.1/24",
        "wan.address": "10.10.0.1/24",
        "gateway": "10.10.0.2",
        "firewall.allow": "udp:53",
    })
    graph.add_nf("dpi1", "dpi")
    graph.add_endpoint("lan", "lan0")
    graph.add_endpoint("wan", "wan0")
    graph.add_flow_rule("r1", "endpoint:lan", "vnf:fw:lan")
    graph.add_flow_rule("r2", "vnf:fw:lan", "endpoint:lan")
    graph.add_flow_rule("r3", "vnf:fw:wan", "vnf:dpi1:in")
    graph.add_flow_rule("r4", "vnf:dpi1:in", "vnf:fw:wan")
    graph.add_flow_rule("r5", "vnf:dpi1:out", "endpoint:wan")
    graph.add_flow_rule("r6", "endpoint:wan", "vnf:dpi1:out")
    return graph


def tenant_graph(index):
    graph = Nffg(graph_id=f"tenant{index}", name=f"tenant {index} NAT")
    graph.add_nf("nat", "nat", config={
        "lan.address": f"10.{index}.0.1/24",
        "wan.address": f"100.64.{index}.2/24",
        "gateway": f"100.64.{index}.1",
    })
    graph.add_endpoint("lan", f"lan{index}")
    graph.add_endpoint("wan", "wan0")
    graph.add_flow_rule("r1", "endpoint:lan", "vnf:nat:lan")
    graph.add_flow_rule("r2", "vnf:nat:lan", "endpoint:lan")
    graph.add_flow_rule("r3", "vnf:nat:wan", "endpoint:wan")
    graph.add_flow_rule("r4", "endpoint:wan", "vnf:nat:wan",
                        ip_dst=f"100.64.{index}.0/24")
    return graph


class Scenario:
    """One deployed graph plus the frames a spec stands for.

    A spec is ``(kind, a, b, c, d)`` with small ints: ``a`` picks the
    client (or tenant), ``b`` the server, ``c`` a port, ``d`` another.
    """

    interfaces = ("lan0", "wan0")
    public_ip = NAT_WAN_IP

    def __init__(self):
        self.serial = itertools.count()

    def graphs(self):
        raise NotImplementedError

    def client(self, a):
        return "lan0", f"192.168.1.{5 + a}"

    def inbound_dst(self, a):
        return "wan0", self.public_ip

    def build(self, direction, spec):
        kind, a, b, c, d = spec
        payload = b"p%d" % next(self.serial)
        if direction == "out":
            wire, src = self.client(a)
            dst, sport, dport = SERVERS[b], SPORTS[c], DPORTS[d % 3]
        else:
            wire, dst = self.inbound_dst(a)
            src, sport, dport = SERVERS[b], DPORTS[c % 3], SPORTS[d]
        if kind == "tcp":
            frame = make_tcp_frame(MAC_A, MAC_B, src, dst, sport, dport,
                                   payload)
        elif kind == "non-ip":
            frame = EthernetFrame(dst=MAC_B, src=MAC_A, ethertype=0x86DD,
                                  payload=payload * 8)
        elif kind == "truncated":
            frame = EthernetFrame(dst=MAC_B, src=MAC_A,
                                  ethertype=ETHERTYPE_IPV4,
                                  payload=b"\x45\x00" + payload)
        else:
            frame = udp(src, dst, sport, dport, payload,
                        ttl=1 if kind == "ttl1" else 64)
        return wire, frame.to_bytes()


class NatScenario(Scenario):
    def graphs(self):
        return [nat_graph()]


class IpsecScenario(Scenario):
    public_ip = IPSEC_LOCAL

    def __init__(self):
        super().__init__()
        params = tunnel_sa_parameters(IPSEC_LOCAL, IPSEC_PEER,
                                      IPSEC_PSK)["in"]
        self.peer_tx = SecurityAssociation(
            spi=params["spi"], src=params["src"], dst=params["dst"],
            enc_key=bytes.fromhex(params["enc"]),
            auth_key=bytes.fromhex(params["auth"]))
        self.sent_esp = []

    def graphs(self):
        return [ipsec_graph()]

    def build(self, direction, spec):
        kind, a, b, c, d = spec
        if direction == "out" and kind == "udp" and b != 0:
            # Into the tunnel: the remote subnet is 10.8.0.0/24.
            wire, src = self.client(a)
            return wire, udp(src, f"10.8.0.{5 + b}", SPORTS[c],
                             DPORTS[d % 3], b"t%d" % next(self.serial)
                             ).to_bytes()
        if direction == "in" and kind in ("udp", "tcp") and b != 0:
            if kind == "tcp" and self.sent_esp:  # replay an earlier ESP
                return "wan0", self.sent_esp[d % len(self.sent_esp)]
            _wire, client = self.client(a)
            inner = IPv4Packet(
                src=f"10.8.0.{5 + b}", dst=client, proto=IPPROTO_UDP,
                payload=UdpDatagram(
                    src_port=DPORTS[c % 3], dst_port=SPORTS[d],
                    payload=b"e%d" % next(self.serial)).to_bytes(
                        f"10.8.0.{5 + b}", client))
            outer = esp_encapsulate(self.peer_tx, inner)
            raw = EthernetFrame(dst=MAC_B, src=MAC_A,
                                ethertype=ETHERTYPE_IPV4,
                                payload=outer.to_bytes()).to_bytes()
            self.sent_esp.append(raw)
            return "wan0", raw
        return super().build(direction, spec)


class FwDpiScenario(Scenario):
    def graphs(self):
        return [fw_dpi_graph()]

    def inbound_dst(self, a):
        return "wan0", f"192.168.1.{5 + a}"


class TenantScenario(Scenario):
    interfaces = ("wan0",) + tuple(f"lan{i}" for i in range(1, TENANTS + 1))
    TENANT_OF = (1, 2, TENANTS)

    def graphs(self):
        return [tenant_graph(i) for i in range(1, TENANTS + 1)]

    def client(self, a):
        tenant = self.TENANT_OF[a]
        return f"lan{tenant}", f"10.{tenant}.0.5"

    def inbound_dst(self, a):
        return "wan0", f"100.64.{self.TENANT_OF[a]}.2"


def deployed(scenario, reference):
    """Deploy ``scenario`` on a fresh node; device MACs are numbered
    from 1 on every node, so two nodes' egress bytes are comparable."""
    with mock.patch.object(devices, "_mac_counter", itertools.count(1)):
        node = ComputeNode("cpe")
        for name in scenario.interfaces:
            node.add_physical_interface(name)
        for graph in scenario.graphs():
            node.deploy(graph)
    if reference:
        reference_namespace.install(node.host)
    egress = {name: [] for name in scenario.interfaces}
    for name, log in egress.items():
        node.wire(name).attach_handler(
            lambda dev, frame, log=log: log.append(frame.to_bytes()),
            lambda dev, frames, log=log: log.extend(
                frame.to_bytes() for frame in frames))
    return node, egress


def nf_state(node):
    """Every NF-side observable the differential compares."""
    state = {}
    for name, ns in node.host.namespaces.items():
        tables = {}
        for table_name, table in ns.iptables.tables.items():
            for chain_name, chain in table.chains.items():
                tables[table_name, chain_name] = [
                    (rule.packets, rule.bytes) for rule in chain.rules]
        state[name] = {
            "counters": [getattr(ns, c) for c in NAMESPACE_COUNTERS],
            "devices": {dev_name: device_state(dev)
                        for dev_name, dev in ns.devices.items()},
            "conntrack": [(e.orig, e.reply, e.snat, e.dnat, e.mark, e.state,
                           e.packets) for e in ns.conntrack.entries()],
            "conntrack_index": {key: (entry.orig, direction) for key,
                                (entry, direction)
                                in ns.conntrack._by_tuple.items()},
            "insert_failures": ns.conntrack.insert_failures,
            "rules": tables,
            "sas": [(s.sa.spi, s.sa.seq_out, s.sa.replay_top,
                     s.sa.replay_bitmap, s.sa.packets_in, s.sa.packets_out,
                     s.sa.bytes_in, s.sa.bytes_out)
                    for s in ns.xfrm.states()],
        }
    state["bridges"] = {
        name: (b.forwarded, b.flooded, b.dropped,
               {key: (e.port.name, e.packets) for key, e in b._fdb.items()})
        for name, b in node.host.bridges.items()}
    return state


def send(node, wire, raws, batched):
    frames = [EthernetFrame.from_bytes(raw) for raw in raws]
    if batched:
        node.wire(wire).transmit_batch(frames)
    else:
        for frame in frames:
            node.wire(wire).transmit(frame)


specs = st.tuples(st.sampled_from(KINDS), st.integers(0, 2),
                  st.integers(0, 2), st.integers(0, 3), st.integers(0, 3))
bursts = st.lists(st.tuples(st.sampled_from(["out", "in"]), st.booleans(),
                            st.lists(specs, min_size=1, max_size=10)),
                  min_size=1, max_size=8)


@pytest.mark.parametrize("scenario_type", [
    NatScenario, IpsecScenario, FwDpiScenario, TenantScenario,
], ids=["quickstart-nat", "ipsec-cpe", "fw-dpi", "tenants-16"])
@given(bursts=bursts)
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_deployed_graph_matches_reference(scenario_type, bursts):
    scenario = scenario_type()
    production, production_out = deployed(scenario, reference=False)
    reference, reference_out = deployed(scenario, reference=True)
    for direction, batched, burst in bursts:
        built = [scenario.build(direction, spec) for spec in burst]
        # Consecutive frames for the same wire travel together.
        for wire, group in itertools.groupby(built, key=lambda wf: wf[0]):
            raws = [raw for _wire, raw in group]
            send(production, wire, raws, batched)
            send(reference, wire, raws, batched)
        assert production_out == reference_out
        assert nf_state(production) == nf_state(reference)


# -- MASQUERADE port clash ------------------------------------------------------------

def test_masquerade_port_clash_replies_reach_each_client():
    """Two LAN clients use the same source port towards the same server:
    the second connection gets a fresh NAT port, so each reply reaches
    its own client."""
    node, egress = deployed(NatScenario(), reference=False)
    for client in ("192.168.1.5", "192.168.1.6"):
        node.wire("lan0").transmit(udp(client, "8.8.8.8", 1000, 53, b"q"))
    out = [parse_frame(raw) for raw in egress["wan0"]]
    assert [(p.ipv4.src, p.udp.src_port) for p in out] \
        == [(NAT_WAN_IP, 1000), (NAT_WAN_IP, 1001)]
    for parsed in out:
        node.wire("wan0").transmit(udp("8.8.8.8", NAT_WAN_IP, 53,
                                       parsed.udp.src_port, b"r"))
    back = [parse_frame(raw) for raw in egress["lan0"]]
    assert [(p.ipv4.dst, p.udp.dst_port) for p in back] \
        == [("192.168.1.5", 1000), ("192.168.1.6", 1000)]
    table = node.host.namespaces["nnf-shared-iptables-nat"].conntrack
    assert [e.snat for e in table.entries()] \
        == [(NAT_WAN_IP, 0), (NAT_WAN_IP, 1001)]
    assert table.insert_failures == 0


def test_explicit_snat_port_clash_drops_and_frees_the_entry():
    """``SNAT --to-source ip:port`` cannot move: a clash with a live
    connection is an insert failure, the packet is dropped and its
    unconfirmed entry freed; the first connection is untouched."""
    from repro.linuxnet.iptables import Match, Rule

    host = LinuxHost(hostname="snat")
    namespace = host.add_namespace("nf")
    namespace.ip_forward = True
    lan, wan = VethPair("lan", "lan-wire"), VethPair("wan", "wan-wire")
    for pair, address in ((lan, "192.168.1.1"), (wan, "203.0.113.2")):
        namespace.add_device(pair.a)
        pair.a.add_address(address, 24)
        pair.a.set_up()
        pair.b.set_up()
    namespace.routes.add_cidr("0.0.0.0/0", "wan", gateway="203.0.113.1")
    namespace.iptables.append("nat", "POSTROUTING", Rule(
        match=Match(out_iface="wan"), target="SNAT",
        target_args={"to_ip": "203.0.113.2", "to_port": 40000}))
    out = []
    wan.b.attach_handler(lambda dev, frame: out.append(parse_frame(frame)))
    for client in ("192.168.1.5", "192.168.1.6"):
        lan.b.transmit(udp(client, "8.8.8.8", 1000, 53))
    assert [(p.ipv4.src, p.udp.src_port) for p in out] \
        == [("203.0.113.2", 40000)]
    assert namespace.conntrack.insert_failures == 1
    assert namespace.rx_dropped_filter == 1
    assert [e.orig.src_ip for e in namespace.conntrack.entries()] \
        == ["192.168.1.5"]
