"""The four deployed-graph workloads of the end-to-end benchmark.

Each workload sets a node up through the public API only
(``ComputeNode.deploy`` or ``RestApp.handle``), drives traffic into a
node interface through the wire device's ``transmit``/``transmit_batch``
and checks what comes out of the far wire.  Generation is closed-loop in
one thread: the next burst (or REST call) leaves only when the previous
call into the system has returned.  Every input comes from the seed.

The :class:`Meter` passed to ``step`` times each call into the system;
everything else a step does (building frames, building ESP for inbound
traffic, checking outputs) is generator time and is excluded from every
rate.
"""

from __future__ import annotations

import gc
import ipaddress
import json
import random
from array import array
from time import perf_counter

from repro import ComputeNode, Nffg
from repro.ipsec.esp import esp_decapsulate, esp_encapsulate
from repro.ipsec.sa import SecurityAssociation
from repro.net import MacAddress, make_udp_frame, parse_frame
from repro.net.ethernet import ETHERTYPE_IPV4, EthernetFrame
from repro.net.ipv4 import IPPROTO_ESP, IPPROTO_UDP, IPv4Packet
from repro.net.transport import UdpDatagram
from repro.nffg.json_codec import nffg_to_dict
from repro.nnf.plugins.strongswan import tunnel_sa_parameters
from repro.rest.app import RestApp

from layers import ROOT_INJECT, ROOT_OP, ROOT_SETUP

CLIENT_MAC = MacAddress("02:aa:00:00:00:01")
REMOTE_MAC = MacAddress("02:aa:00:00:00:02")
BURST = 32          # frames per injection call (the DPDK rx-burst default)
MAX_FAILURE_NOTES = 5


def _ip(text: str) -> bytes:
    return ipaddress.IPv4Address(text).packed


def _port(number: int) -> bytes:
    return number.to_bytes(2, "big")


class Meter:
    """Times the generator's calls into the system and tallies checks.

    With a :class:`layers.SpanStore` every timed call is also a root
    span, so layer spans recorded inside it are attributed to it.
    """

    def __init__(self, store=None) -> None:
        self.store = store
        # Compact arrays, so that the bookkeeping of a faster program
        # (more calls per run) barely moves ``peak_rss_mb``.
        self.inject_s = array("d")          # one entry per injection call
        self.inject_delivered = array("i")
        self.latency_s = array("d")         # one entry per exchange
        self.op_s = array("d")              # one entry per REST call
        self.sent = 0                       # frames injected
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.wall = 0.0

    def _timed(self, kind: str, func, *args):
        if self.store is not None:
            return self.store.root(kind, func, *args)
        started = perf_counter()
        result = func(*args)
        return result, perf_counter() - started

    def inject(self, func, frames) -> float:
        """One injection call carrying ``frames`` (a frame or a list);
        returns its seconds."""
        _, seconds = self._timed(ROOT_INJECT, func, frames)
        self.inject_s.append(seconds)
        self.sent += len(frames) if isinstance(frames, list) else 1
        return seconds

    def sojourn(self, seconds: float) -> None:
        """One latency sample: the system time of one exchange."""
        self.latency_s.append(seconds)

    def delivered(self, count: int) -> None:
        """Frames the last injection delivered at the far wire."""
        self.inject_delivered.append(count)

    def op(self, func, *args):
        """One REST call; returns its response."""
        response, seconds = self._timed(ROOT_OP, func, *args)
        self.op_s.append(seconds)
        return response

    def check(self, attempts: int, bad: int, what: str) -> None:
        self.attempted += attempts
        if bad:
            self.failed += bad
            if len(self.failures) < MAX_FAILURE_NOTES:
                self.failures.append(what)


class _Sink:
    """Collects what a node's wire receives (the far end of a NIC)."""

    def __init__(self, device) -> None:
        self.frames: list[EthernetFrame] = []
        device.attach_handler(lambda dev, frame: self.frames.append(frame),
                              lambda dev, frames: self.frames.extend(frames))

    def take(self) -> list[EthernetFrame]:
        frames, self.frames = self.frames, []
        return frames


def _fresh(template: EthernetFrame) -> EthernetFrame:
    """A new frame object with the template's (immutable) contents, so
    the system never sees the same object twice."""
    return EthernetFrame(dst=template.dst, src=template.src,
                         ethertype=template.ethertype,
                         payload=template.payload)


def _udp_fields_ok(frame: EthernetFrame, src: bytes, dst: bytes,
                   sport: bytes, dport: bytes, payload: bytes) -> bool:
    """Addresses, ports and payload of an IPv4/UDP frame (IHL 5)."""
    p = frame.payload
    return (frame.ethertype == ETHERTYPE_IPV4 and p[0] == 0x45
            and p[9] == IPPROTO_UDP and p[12:16] == src
            and p[16:20] == dst and p[20:22] == sport
            and p[22:24] == dport and p[28:] == payload)


def _decodes(frame: EthernetFrame) -> bool:
    """Full decode with the IPv4 header checksum verified."""
    try:
        parsed = parse_frame(frame)
        return parsed.ipv4 is not None and parsed.udp is not None
    except ValueError:
        return False


class Workload:
    """Base: a seeded input set, a node built by :meth:`setup`, and a
    :meth:`step` that makes one closed-loop round of calls."""

    name = ""
    #: root kind whose count is the denominator of per-op layer metrics
    op_root = ROOT_SETUP

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.node = None
        self._retired_dispatch = (0, 0)

    def setup(self) -> None:
        raise NotImplementedError

    def redeploy(self) -> None:
        """Replace the node by a freshly set-up one (harness time).  The
        old node is freed first, so dead nodes do not pile up until the
        collector runs."""
        self._retired_dispatch = self.dispatch_counts()
        self.node = None
        gc.collect()
        self.setup()

    def dispatch_counts(self) -> tuple[int, int]:
        """Fused-dispatch (hits, misses) over every LSI of every node
        this workload redeployed, plus the current one."""
        hits, misses = self._retired_dispatch
        for stats in self.node.steering.fusion_stats().values():
            hits += stats["dispatch-hits"]
            misses += stats["dispatch-misses"]
        return hits, misses

    def warm(self) -> None:
        """Untimed traffic after set-up (establish flows, learn tuples)."""

    def step(self, meter: Meter) -> None:
        raise NotImplementedError

    def finish(self, meter: Meter) -> None:
        """End-of-run checks."""

    def _udp_flows(self, count: int, client_net: str, dst_of, dport_of,
                   payload_bytes: int) -> None:
        """Seeded distinct flows with payloads, their outbound frame
        templates, their packed header fields, and bursts of them."""
        rng = self.rng
        self.flows = _distinct_flows(rng, count, client_net, dst_of,
                                     dport_of)
        self.payloads = [rng.randbytes(payload_bytes) for _ in self.flows]
        self.out_templates = [
            make_udp_frame(CLIENT_MAC, REMOTE_MAC, src, dst, sport, dport,
                           payload)
            for (src, sport, dst, dport), payload
            in zip(self.flows, self.payloads)]
        self.packed = [(_ip(src), _port(sport), _ip(dst), _port(dport))
                       for src, sport, dst, dport in self.flows]
        self.chunks = [list(range(i, i + BURST))
                       for i in range(0, count, BURST)]
        self.order: list[int] = []

    def _next_chunk(self) -> list[int]:
        """The next burst's flow indices, in a seeded shuffled order."""
        if not self.order:
            self.order = list(range(len(self.chunks)))
            self.rng.shuffle(self.order)
        return self.chunks[self.order.pop()]

    def conntrack_state(self) -> dict:
        """Entries, insert failures and capacity over the NF namespaces."""
        tables = [ns.conntrack for name, ns
                  in self.node.host.namespaces.items() if name != "root"]
        return {"entries": sum(len(t) for t in tables),
                "insert_failures": sum(t.insert_failures for t in tables),
                "max_entries": max((t.max_entries for t in tables),
                                   default=0)}

    def conntrack_report(self) -> dict:
        return self.conntrack_state()

    def _node(self, *interfaces: str) -> ComputeNode:
        node = ComputeNode("cpe")
        for name in interfaces:
            node.add_physical_interface(name)
        return node


# -- nat_bulk ------------------------------------------------------------------

NAT_WAN_IP = "203.0.113.2"


def nat_graph() -> Nffg:
    """The quickstart graph: LAN -> native iptables MASQUERADE -> WAN."""
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


def _public_ip(rng: random.Random) -> str:
    # 20.0.0.0-99.255.255.255 holds no loopback, private or multicast
    # range, so every destination is forwarded.
    return (f"{rng.randrange(20, 100)}.{rng.randrange(256)}."
            f"{rng.randrange(256)}.{rng.randrange(1, 255)}")


def _distinct_flows(rng: random.Random, count: int, client_net: str,
                    dst_of, dport_of) -> list[tuple[str, int, str, int]]:
    """``count`` distinct (client ip, client port, dst ip, dst port)."""
    seen = set()
    flows = []
    while len(flows) < count:
        flow = (f"{client_net}.{rng.randrange(2, 255)}",
                rng.randrange(1024, 65536), dst_of(rng), dport_of(rng))
        if flow not in seen:
            seen.add(flow)
            flows.append(flow)
    return flows


class NatBulk(Workload):
    """1024 established flows through the NAT, 64-byte UDP payloads,
    outbound bursts then reply bursts to the learned masquerade tuples."""

    name = "nat_bulk"
    FLOWS = 1024
    PAYLOAD = 64

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._udp_flows(self.FLOWS, "192.168.1", _public_ip,
                        lambda r: r.choice((53, 123, 443, 4500, 5060, 8080)),
                        self.PAYLOAD)
        self.masq_port: list[bytes] = []
        self.reply_templates: list[EthernetFrame] = []

    def setup(self) -> None:
        node = self._node("lan0", "wan0")
        node.deploy(nat_graph())
        self.node = node
        self.lan, self.wan = _Sink(node.wire("lan0")), _Sink(node.wire("wan0"))
        node.wire("lan0").transmit(_fresh(self.out_templates[0]))
        out = self.wan.take()
        if len(out) != 1 or not _decodes(out[0]) \
                or parse_frame(out[0]).ipv4.src != NAT_WAN_IP:
            raise RuntimeError("nat_bulk: first frame was not masqueraded")

    def warm(self) -> None:
        """Send every flow once each way: learn the masquerade tuples
        from the WAN wire and establish every conntrack entry."""
        lan_wire, wan_wire = self.node.wire("lan0"), self.node.wire("wan0")
        self.masq_port = [b""] * self.FLOWS
        self.reply_templates = [None] * self.FLOWS
        for chunk in self.chunks:
            lan_wire.transmit_batch([_fresh(self.out_templates[i])
                                     for i in chunk])
            out = self.wan.take()
            if len(out) != len(chunk):
                raise RuntimeError("nat_bulk: warm-up lost frames")
            for i, frame in zip(chunk, out):
                parsed = parse_frame(frame)
                src, sport, dst, dport = self.flows[i]
                if (parsed.ipv4.src != NAT_WAN_IP or parsed.ipv4.dst != dst
                        or parsed.udp.dst_port != dport
                        or parsed.udp.payload != self.payloads[i]):
                    raise RuntimeError("nat_bulk: warm-up frame mangled")
                self.masq_port[i] = _port(parsed.udp.src_port)
                self.reply_templates[i] = make_udp_frame(
                    REMOTE_MAC, frame.src, dst, NAT_WAN_IP, dport,
                    parsed.udp.src_port, self.payloads[i])
            wan_wire.transmit_batch([_fresh(self.reply_templates[i])
                                     for i in chunk])
            if len(self.lan.take()) != len(chunk):
                raise RuntimeError("nat_bulk: warm-up replies lost")

    def step(self, meter: Meter) -> None:
        chunk = self._next_chunk()
        nat_ip = _ip(NAT_WAN_IP)

        outbound = meter.inject(self.node.wire("lan0").transmit_batch,
                                [_fresh(self.out_templates[i])
                                 for i in chunk])
        out = self.wan.take()
        meter.delivered(len(out))
        bad = max(0, len(chunk) - len(out))
        for i, frame in zip(chunk, out):
            src, sport, dst, dport = self.packed[i]
            if not _udp_fields_ok(frame, nat_ip, dst, self.masq_port[i],
                                  dport, self.payloads[i]):
                bad += 1
        if out and not _decodes(out[0]):
            bad += 1
        meter.check(len(chunk), bad, "outbound frame not masqueraded "
                                     "to 203.0.113.2 or payload changed")

        meter.sojourn(outbound + meter.inject(
            self.node.wire("wan0").transmit_batch,
            [_fresh(self.reply_templates[i]) for i in chunk]))
        back = self.lan.take()
        meter.delivered(len(back))
        bad = max(0, len(chunk) - len(back))
        for i, frame in zip(chunk, back):
            src, sport, dst, dport = self.packed[i]
            if not _udp_fields_ok(frame, dst, src, dport, sport,
                                  self.payloads[i]):
                bad += 1
        if back and not _decodes(back[0]):
            bad += 1
        meter.check(len(chunk), bad, "reply not de-NATed to the client")


# -- ipsec_tunnel --------------------------------------------------------------

IPSEC_LOCAL = "203.0.113.2"
IPSEC_PEER = "198.51.100.9"
IPSEC_PSK = "table1-psk"


def ipsec_graph() -> Nffg:
    """The Table-1 IPsec CPE, native flavour (ESP tunnel mode)."""
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


def _sa(params: dict) -> SecurityAssociation:
    return SecurityAssociation(spi=params["spi"], src=params["src"],
                               dst=params["dst"],
                               enc_key=bytes.fromhex(params["enc"]),
                               auth_key=bytes.fromhex(params["auth"]))


class IpsecTunnel(Workload):
    """64 flows of 1400-byte payloads through the native ESP tunnel:
    LAN->WAN frames are encrypted by the node, WAN->LAN frames are ESP
    the generator builds from the peer's SA."""

    name = "ipsec_tunnel"
    FLOWS = 64
    PAYLOAD = 1400

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._udp_flows(self.FLOWS, "192.168.1",
                        lambda r: f"10.8.0.{r.randrange(1, 255)}",
                        lambda r: r.randrange(5001, 5100), self.PAYLOAD)
        # Inner packets the peer sends back (remote host -> LAN client).
        self.inbound_inner = [
            IPv4Packet(src=dst, dst=src, proto=IPPROTO_UDP,
                       payload=UdpDatagram(src_port=dport, dst_port=sport,
                                           payload=payload)
                       .to_bytes(dst, src))
            for (src, sport, dst, dport), payload
            in zip(self.flows, self.payloads)]

    def setup(self) -> None:
        node = self._node("lan0", "wan0")
        node.deploy(ipsec_graph())
        self.node = node
        self.lan, self.wan = _Sink(node.wire("lan0")), _Sink(node.wire("wan0"))
        params = tunnel_sa_parameters(IPSEC_LOCAL, IPSEC_PEER, IPSEC_PSK)
        # The peer's view: it decrypts our "out" SA, encrypts with "in".
        self.peer_rx = _sa(params["out"])
        self.peer_tx = _sa(params["in"])
        node.wire("lan0").transmit(_fresh(self.out_templates[0]))
        out = self.wan.take()
        if len(out) != 1 or self._outbound_bad(0, out[0]):
            raise RuntimeError("ipsec_tunnel: first frame not ESP-protected")
        self.wan_mac = out[0].src

    def _outbound_bad(self, index: int, frame: EthernetFrame) -> bool:
        p = frame.payload
        if (frame.ethertype != ETHERTYPE_IPV4 or p[9] != IPPROTO_ESP
                or p[12:16] != _ip(IPSEC_LOCAL) or p[16:20] != _ip(IPSEC_PEER)
                or self.payloads[index] in p):
            return True
        try:
            inner = esp_decapsulate(self.peer_rx, IPv4Packet.from_bytes(p))
        except Exception:
            return True
        src, sport, dst, dport = self.flows[index]
        if inner.src != src or inner.dst != dst or inner.proto != IPPROTO_UDP:
            return True
        datagram = UdpDatagram.from_bytes(inner.payload)
        return (datagram.src_port != sport or datagram.dst_port != dport
                or datagram.payload != self.payloads[index])

    def _esp_frame(self, index: int) -> EthernetFrame:
        outer = esp_encapsulate(self.peer_tx, self.inbound_inner[index])
        return EthernetFrame(dst=self.wan_mac, src=REMOTE_MAC,
                             ethertype=ETHERTYPE_IPV4,
                             payload=outer.to_bytes())

    def step(self, meter: Meter) -> None:
        chunk = self._next_chunk()

        outbound = meter.inject(self.node.wire("lan0").transmit_batch,
                                [_fresh(self.out_templates[i])
                                 for i in chunk])
        out = self.wan.take()
        meter.delivered(len(out))
        bad = max(0, len(chunk) - len(out))
        bad += sum(self._outbound_bad(i, frame)
                   for i, frame in zip(chunk, out))
        meter.check(len(chunk), bad, "outbound frame not ESP to the peer, "
                                     "or it did not decrypt to the original")

        inbound = [self._esp_frame(i) for i in chunk]
        meter.sojourn(outbound + meter.inject(
            self.node.wire("wan0").transmit_batch, inbound))
        back = self.lan.take()
        meter.delivered(len(back))
        bad = max(0, len(chunk) - len(back))
        for i, frame in zip(chunk, back):
            src, sport, dst, dport = self.packed[i]
            if not _udp_fields_ok(frame, dst, src, dport, sport,
                                  self.payloads[i]):
                bad += 1
        meter.check(len(chunk), bad, "inbound ESP not delivered to the LAN "
                                     "with its inner addresses")


# -- fw_dpi_newflows -------------------------------------------------------------

def fw_dpi_graph() -> Nffg:
    """Firewall (native iptables, DNS only) -> DPI (Docker) -> WAN."""
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


class FwDpiNewFlows(Workload):
    """One frame per injection, each a new seeded 5-tuple: 70% allowed
    ``udp:53``, 30% blocked ``udp:123``.

    The program never expires conntrack entries and caps each table at
    65536, and blocked NEW flows keep their entries.  So that a round's
    work does not depend on how fast the program is, the graph is
    deployed afresh every :attr:`ROUND_FLOWS` new flows (harness time,
    not measured); the entries each round leaves and every insert
    failure are reported.
    """

    name = "fw_dpi_newflows"
    ROUND_FLOWS = 4096
    PAYLOAD = 64
    ALLOWED_SHARE = 0.7

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.payload = self.rng.randbytes(self.PAYLOAD)
        self.seen: set = set()
        self.round_sent = 0
        self.round_entries: list[int] = []
        self.insert_failures = 0
        self.failures_checked = 0

    def _new_flow(self) -> tuple[str, int, str, int]:
        rng = self.rng
        allowed = rng.random() < self.ALLOWED_SHARE
        while True:
            flow = (f"192.168.1.{rng.randrange(2, 255)}",
                    rng.randrange(1024, 65536), _public_ip(rng),
                    53 if allowed else 123)
            if flow not in self.seen:
                self.seen.add(flow)
                return flow

    def setup(self) -> None:
        node = self._node("lan0", "wan0")
        node.deploy(fw_dpi_graph())
        self.node = node
        self.wan = _Sink(node.wire("wan0"))
        self.seen.clear()
        self.round_sent = 0
        node.wire("lan0").transmit(make_udp_frame(
            CLIENT_MAC, REMOTE_MAC, "192.168.1.254", "20.0.0.1", 1024, 53,
            self.payload))
        out = self.wan.take()
        if len(out) != 1 or not _decodes(out[0]):
            raise RuntimeError("fw_dpi_newflows: allowed frame not delivered")

    def _close_round(self) -> None:
        state = self.conntrack_state()
        self.round_entries.append(state["entries"])
        self.insert_failures += state["insert_failures"]

    def step(self, meter: Meter) -> None:
        if self.round_sent >= self.ROUND_FLOWS:
            self._close_round()
            self.redeploy()
        src, sport, dst, dport = self._new_flow()
        frame = make_udp_frame(CLIENT_MAC, REMOTE_MAC, src, dst, sport,
                               dport, self.payload)
        seconds = meter.inject(self.node.wire("lan0").transmit, frame)
        self.round_sent += 1
        out = self.wan.take()
        meter.delivered(len(out))
        if out:
            # A frame dropped by policy has no sojourn time.
            meter.sojourn(seconds)
        if dport == 53:
            ok = len(out) == 1 and _udp_fields_ok(
                out[0], _ip(src), _ip(dst), _port(sport), _port(dport),
                self.payload)
            meter.check(1, not ok, "allowed udp:53 frame not delivered "
                                   "unchanged")
        else:
            meter.check(1, len(out) != 0, "blocked udp:123 frame reached "
                                          "the WAN")

    def finish(self, meter: Meter) -> None:
        self._close_round()
        # Any conntrack insert failure is an error of the run.
        meter.check(0, self.insert_failures - self.failures_checked,
                    "conntrack insert failures")
        self.failures_checked = self.insert_failures

    def conntrack_report(self) -> dict:
        state = self.conntrack_state()
        return {"entries": max(self.round_entries, default=state["entries"]),
                "insert_failures": self.insert_failures,
                "max_entries": state["max_entries"]}


# -- tenant_churn --------------------------------------------------------------

TENANTS = 16
RESIDENT = 1


def tenant_graph(index: int, extra_rule: bool = False) -> Nffg:
    """Tenant ``index``'s NAT graph (shares one native iptables)."""
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
    if extra_rule:
        # The update toggles a second WAN prefix steered to the NAT.
        graph.add_flow_rule("r5", "endpoint:wan", "vnf:nat:wan",
                            ip_dst=f"100.64.{100 + index}.0/24")
    return graph


def _body(graph: Nffg) -> bytes:
    return json.dumps(nffg_to_dict(graph)).encode()


class TenantChurn(Workload):
    """16 tenant NAT graphs on one shared native iptables, driven by
    REST in process: seeded PUT-create / PUT-update / DELETE calls on
    tenants 2-16, each followed by one 32-frame burst of resident
    tenant 1.

    The program's memory grows with every REST call (journal events
    above all), so the node is set up afresh every :attr:`ROUND_OPS`
    calls (harness time, not measured): otherwise a faster program
    would make more calls per run and show a larger ``peak_rss_mb``.
    """

    name = "tenant_churn"
    op_root = ROOT_OP
    ROUND_OPS = 512
    RESIDENT_FLOWS = 256
    PAYLOAD = 64

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._udp_flows(self.RESIDENT_FLOWS, f"10.{RESIDENT}.0", _public_ip,
                        lambda r: r.choice((53, 443, 8080)), self.PAYLOAD)
        self.next_chunk = 0
        self.masq_ip = _ip(f"100.64.{RESIDENT}.2")
        self.deployed: dict[int, bool] = {}   # tenant -> has extra rule

    def setup(self) -> None:
        interfaces = ["wan0"] + [f"lan{i}" for i in range(1, TENANTS + 1)]
        node = self._node(*interfaces)
        self.node = node
        self.app = RestApp(node)
        self.round_ops = 0
        self.deployed = {}
        for index in range(1, TENANTS + 1):
            response = self.app.handle("PUT", f"/nffg/tenant{index}",
                                       _body(tenant_graph(index)))
            if response.status != 201:
                raise RuntimeError(f"tenant_churn: PUT tenant{index} "
                                   f"returned {response.status}")
            self.deployed[index] = False
        self.wan = _Sink(node.wire("wan0"))
        node.wire(f"lan{RESIDENT}").transmit(_fresh(self.out_templates[0]))
        out = self.wan.take()
        if len(out) != 1 or not _udp_fields_ok(
                out[0], self.masq_ip, self.packed[0][2],
                out[0].payload[20:22], self.packed[0][3], self.payloads[0]):
            raise RuntimeError("tenant_churn: resident frame not masqueraded")

    def _next_op(self) -> tuple[str, str, bytes, int]:
        rng = self.rng
        index = rng.randrange(2, TENANTS + 1)
        path = f"/nffg/tenant{index}"
        if index not in self.deployed:
            self.deployed[index] = False
            return "PUT", path, _body(tenant_graph(index)), 201
        if rng.random() < 0.5:
            extra = not self.deployed[index]
            self.deployed[index] = extra
            return "PUT", path, _body(tenant_graph(index, extra)), 200
        del self.deployed[index]
        return "DELETE", path, b"", 204

    def step(self, meter: Meter) -> None:
        if self.round_ops >= self.ROUND_OPS:
            self._check_listing(meter)
            self.redeploy()
        self.round_ops += 1
        method, path, body, expected = self._next_op()
        response = meter.op(self.app.handle, method, path, body)
        meter.check(1, response.status != expected,
                    f"{method} {path} returned {response.status}, "
                    f"expected {expected}")

        chunk = self.chunks[self.next_chunk]
        self.next_chunk = (self.next_chunk + 1) % len(self.chunks)
        meter.sojourn(meter.inject(
            self.node.wire(f"lan{RESIDENT}").transmit_batch,
            [_fresh(self.out_templates[i]) for i in chunk]))
        out = self.wan.take()
        meter.delivered(len(out))
        bad = max(0, len(chunk) - len(out))
        for i, frame in zip(chunk, out):
            src, sport, dst, dport = self.packed[i]
            if not _udp_fields_ok(frame, self.masq_ip, dst,
                                  frame.payload[20:22], dport,
                                  self.payloads[i]):
                bad += 1
        meter.check(len(chunk), bad, "resident frame not masqueraded to "
                                     "100.64.1.2")

    def finish(self, meter: Meter) -> None:
        self._check_listing(meter)

    def _check_listing(self, meter: Meter) -> None:
        response = self.app.handle("GET", "/nffg")
        listed = set(response.body.get("nffgs", [])) if response.ok else None
        expected = {f"tenant{i}" for i in self.deployed}
        meter.check(1, listed != expected,
                    f"GET /nffg listed {sorted(listed or ())}, "
                    f"expected {sorted(expected)}")


WORKLOADS = {cls.name: cls for cls in (NatBulk, IpsecTunnel, FwDpiNewFlows,
                                       TenantChurn)}
