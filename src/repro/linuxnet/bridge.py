"""Learning Ethernet bridge (``linuxbridge``).

One of the paper's canonical NNF examples.  Enslaved devices hand their
frames to the bridge, which learns source MACs and forwards/floods.  An
optional per-VLAN filtering mode keeps service graphs isolated when the
bridge is shared — the marking requirement (ii) of the paper's
sharability definition ("multiple internal paths ... in isolation").

Ingress has one body, :meth:`Bridge._bridge_input`, for a lone frame
and a batch alike; the per-frame learn-and-forward semantics it must
reproduce live test-side, in ``tests/reference_namespace.py``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.linuxnet.devices import NetDevice
from repro.net.addresses import MacAddress
from repro.net.ethernet import EthernetFrame

__all__ = ["Bridge", "FdbEntry"]


class FdbEntry:
    """Forwarding-database entry: MAC (+VLAN) -> port."""

    __slots__ = ("mac", "vlan", "port", "packets")

    def __init__(self, mac: MacAddress, vlan: Optional[int],
                 port: NetDevice) -> None:
        self.mac = mac
        self.vlan = vlan
        self.port = port
        self.packets = 0


class Bridge:
    """MAC-learning bridge over enslaved :class:`NetDevice` ports."""

    def __init__(self, name: str, vlan_filtering: bool = False) -> None:
        self.name = name
        self.vlan_filtering = vlan_filtering
        self.ports: dict[str, NetDevice] = {}
        self._fdb: dict[tuple[int, Optional[int]], FdbEntry] = {}
        self.flooded = 0
        self.forwarded = 0
        self.dropped = 0

    # -- port management -----------------------------------------------------
    def add_port(self, device: NetDevice) -> None:
        if device.name in self.ports:
            raise ValueError(f"{device.name} already enslaved to {self.name}")
        if device.bridge is not None:
            raise ValueError(f"{device.name} already enslaved to "
                             f"{device.bridge.name}")
        self.ports[device.name] = device
        device.bridge = self

    def remove_port(self, name: str) -> NetDevice:
        try:
            device = self.ports.pop(name)
        except KeyError:
            raise KeyError(f"no port {name!r} on bridge {self.name}") from None
        device.bridge = None
        self._fdb = {key: entry for key, entry in self._fdb.items()
                     if entry.port is not device}
        return device

    # -- dataplane -------------------------------------------------------------
    def _bridge_input(self, ingress: NetDevice,
                      frames: Sequence[EthernetFrame]) -> None:
        """Learn and forward every frame ``ingress`` received, in order.

        Known-unicast egress is coalesced per target port and leaves
        through ``transmit_batch`` (per-port order preserved, the switch
        datapath's batch-coalescing contract); a port's lone frame
        leaves through ``transmit``, so per-frame ingress stays per
        frame on the far side.  A flood first flushes the queues, so it
        never overtakes queued unicast.
        """
        filtering = self.vlan_filtering
        fdb = self._fdb
        # target device id -> [device, frames]
        queues: dict[int, list] = {}

        def flush() -> None:
            for device, queued in queues.values():
                if len(queued) == 1:
                    device.transmit(queued[0])
                else:
                    device.transmit_batch(queued)
            queues.clear()

        for frame in frames:
            vlan = frame.vlan if filtering else None
            key = (int(frame.src), vlan)
            entry = fdb.get(key)
            if entry is None or entry.port is not ingress:
                fdb[key] = entry = FdbEntry(frame.src, vlan, ingress)
            entry.packets += 1

            target = None
            if not (frame.dst.is_broadcast or frame.dst.is_multicast):
                target = fdb.get((int(frame.dst), vlan))
            if target is None:
                flush()
                self.flooded += 1
                for device in self.ports.values():
                    if device is not ingress:
                        device.transmit(frame)
                continue
            if target.port is ingress:
                self.dropped += 1  # hairpin off by default, as in Linux
                continue
            self.forwarded += 1
            acc = queues.get(id(target.port))
            if acc is None:
                queues[id(target.port)] = [target.port, [frame]]
            else:
                acc[1].append(frame)
        flush()

    # -- inspection ---------------------------------------------------------------
    def fdb_entries(self) -> list[FdbEntry]:
        return list(self._fdb.values())

    def __repr__(self) -> str:
        return (f"<Bridge {self.name} ports={sorted(self.ports)} "
                f"fdb={len(self._fdb)}>")
