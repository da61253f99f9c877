"""Test-side reference namespace: the NF-side ingress every production path must match.

Production gives each NF-side ingress layer one body that takes a frame
sequence (``NetDevice._ingress``, ``Bridge._bridge_input``,
``NetworkNamespace._stack_input``).  This module keeps the most literal
semantics those bodies must reproduce: one frame at a time, each taken
to completion before the next —

* :func:`receive` — the device sink choice (handler, then bridge, then
  the 802.1Q subdevice the tag names, tag stripped, then the namespace
  stack; a frame no sink takes is an rx drop, not a receive);
* :func:`bridge_input` — learn the source, then forward known unicast
  through ``transmit`` or flood every other port;
* :func:`stack_input` — decode the IPv4 header, then run the packet
  through the namespace's hooks.

Each calls the next reference layer directly, never a production
ingress body, and batches are plain per-frame loops
(:func:`receive_batch`).  The hook traversal behind the stack
(``NetworkNamespace._receive_skb``: conntrack, iptables, NAT, routing,
XFRM) and device egress are shared with production.

:func:`install` rebinds ``receive``/``receive_batch`` on every device of
a host's NF namespaces, so a node deployed through the public API runs
its NF side on the reference while its switches stay production; a
differential test compares it with an identical production node.
"""

from functools import partial

from repro.linuxnet.bridge import FdbEntry
from repro.linuxnet.namespace import SkBuff
from repro.net.ethernet import ETHERTYPE_IPV4
from repro.net.ipv4 import IPv4Packet

__all__ = ["bridge_input", "install", "receive", "receive_batch",
           "stack_input"]


def receive(device, frame):
    """One frame arrives at ``device``."""
    if not device.up:
        device.rx_dropped += 1
        return
    device.rx_packets += 1
    device.rx_bytes += len(frame)
    if (frame.vlan is not None and frame.vlan in device.vlan_subdevices
            and device._handler is None and device.bridge is None):
        receive(device.vlan_subdevices[frame.vlan], frame.without_vlan())
    elif device._handler is not None:
        device._handler(device, frame)
    elif device.bridge is not None:
        bridge_input(device.bridge, device, frame)
    elif device.namespace is not None:
        stack_input(device.namespace, device, frame)
    else:
        device.rx_packets -= 1
        device.rx_bytes -= len(frame)
        device.rx_dropped += 1


def receive_batch(device, frames):
    for frame in frames:
        receive(device, frame)


def bridge_input(bridge, ingress, frame):
    vlan = frame.vlan if bridge.vlan_filtering else None
    key = (int(frame.src), vlan)
    entry = bridge._fdb.get(key)
    if entry is None or entry.port is not ingress:
        bridge._fdb[key] = FdbEntry(frame.src, vlan, ingress)
    bridge._fdb[key].packets += 1
    target = None
    if not (frame.dst.is_broadcast or frame.dst.is_multicast):
        target = bridge._fdb.get((int(frame.dst), vlan))
    if target is None:
        bridge.flooded += 1
        for device in bridge.ports.values():
            if device is not ingress:
                device.transmit(frame)
    elif target.port is ingress:
        bridge.dropped += 1  # hairpin off, as in Linux
    else:
        bridge.forwarded += 1
        target.port.transmit(frame)


def stack_input(namespace, device, frame):
    if frame.ethertype != ETHERTYPE_IPV4:
        namespace.rx_bad_packets += 1
        return
    try:
        packet = IPv4Packet.from_bytes(frame.payload)
    except ValueError:
        namespace.rx_bad_packets += 1
        return
    namespace._receive_skb(SkBuff(ipv4=packet, in_iface=device.name,
                                  in_device=device, src_mac=frame.src,
                                  vlan=frame.vlan))


def install(host):
    """Run every device in ``host``'s NF namespaces (all but ``root``)
    on the reference ingress.  Idempotent; call it again after a
    deployment adds devices."""
    for name, namespace in host.namespaces.items():
        if name == "root":
            continue
        for device in namespace.devices.values():
            device.receive = partial(receive, device)
            device.receive_batch = partial(receive_batch, device)
