"""Connection tracking (a minimal nf_conntrack).

NAT in Linux consults the ``nat`` table only for the first packet of a
connection; every later packet — in both directions — is translated
from the conntrack entry.  The sharable-NNF design in the paper leans
on the same machinery via CONNMARK, so marks are first-class here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

__all__ = ["ConnState", "ConnTrack", "ConnTrackEntry", "FlowTuple"]


@dataclass(frozen=True)
class FlowTuple:
    """Directional 5-tuple."""

    src_ip: str
    dst_ip: str
    proto: int
    src_port: int
    dst_port: int

    def reversed(self) -> "FlowTuple":
        return FlowTuple(src_ip=self.dst_ip, dst_ip=self.src_ip,
                         proto=self.proto, src_port=self.dst_port,
                         dst_port=self.src_port)


class ConnState(Enum):
    NEW = "NEW"
    ESTABLISHED = "ESTABLISHED"
    RELATED = "RELATED"


@dataclass
class ConnTrackEntry:
    """One tracked connection.

    ``orig`` is the tuple of the first packet; ``reply`` is the tuple
    reply packets carry *after* any NAT (i.e. the inverted post-NAT
    tuple).  ``mark`` is the connection mark CONNMARK reads/writes.
    """

    orig: FlowTuple
    reply: FlowTuple
    state: ConnState = ConnState.NEW
    mark: int = 0
    packets: int = 0
    snat: Optional[tuple[str, int]] = None  # (new_src_ip, new_src_port)
    dnat: Optional[tuple[str, int]] = None  # (new_dst_ip, new_dst_port)

    def tuple_for(self, direction: str) -> FlowTuple:
        return self.orig if direction == "orig" else self.reply


class ConnTrack:
    """Connection table keyed by directional tuples."""

    def __init__(self, max_entries: int = 65536) -> None:
        self.max_entries = max_entries
        self._by_tuple: dict[FlowTuple, tuple[ConnTrackEntry, str]] = {}
        self.insert_failures = 0

    def __len__(self) -> int:
        # Each entry is registered under both directions.
        return len(self._by_tuple) // 2 + len(self._by_tuple) % 2

    def lookup(self, flow: FlowTuple) -> Optional[tuple[ConnTrackEntry, str]]:
        """Return ``(entry, direction)``; direction is 'orig' or 'reply'."""
        return self._by_tuple.get(flow)

    def create(self, flow: FlowTuple) -> ConnTrackEntry:
        """Track a NEW connection seen in direction ``orig``."""
        if len(self._by_tuple) // 2 >= self.max_entries:
            self.insert_failures += 1
            raise OverflowError("conntrack table full")
        entry = ConnTrackEntry(orig=flow, reply=flow.reversed())
        self._by_tuple[flow] = (entry, "orig")
        self._by_tuple[entry.reply] = (entry, "reply")
        return entry

    def apply_nat(self, entry: ConnTrackEntry) -> bool:
        """Re-index the reply direction after NAT was decided.

        With SNAT the reply arrives addressed to the NAT address; with
        DNAT the reply originates from the real (translated) server.
        A reply tuple another connection already owns is never taken
        over (Linux ``nf_nat_used_tuple``): a keep-port (port 0) SNAT
        moves to the next free port after the original one, wrapping
        within its range (1-511, 600-1023 or 1024-65535, as in
        ``get_unique_tuple``), recorded in ``entry.snat``.  Any other
        clash is an insert failure, returned as ``False`` so the caller
        drops the packet.
        """
        src_ip, src_port = entry.orig.src_ip, entry.orig.src_port
        dst_ip, dst_port = entry.orig.dst_ip, entry.orig.dst_port
        if entry.snat is not None:
            src_ip = entry.snat[0]
            src_port = entry.snat[1] or src_port  # port 0 = keep original
        if entry.dnat is not None:
            dst_ip = entry.dnat[0]
            dst_port = entry.dnat[1] or dst_port
        reply = FlowTuple(src_ip=dst_ip, dst_ip=src_ip,
                          proto=entry.orig.proto,
                          src_port=dst_port, dst_port=src_port)
        if self._taken(reply, entry):
            if entry.snat is None or entry.snat[1]:
                self.insert_failures += 1
                return False
            low, high = ((1, 511) if src_port < 512 else
                         (600, 1023) if src_port < 1024 else (1024, 65535))
            span = high - low + 1
            for step in range(1, span + 1):
                port = low + (src_port - low + step) % span
                reply = FlowTuple(src_ip=dst_ip, dst_ip=src_ip,
                                  proto=entry.orig.proto,
                                  src_port=dst_port, dst_port=port)
                if not self._taken(reply, entry):
                    entry.snat = (src_ip, port)
                    break
            else:
                self.insert_failures += 1
                return False
        del self._by_tuple[entry.reply]
        entry.reply = reply
        self._by_tuple[reply] = (entry, "reply")
        return True

    def _taken(self, flow: FlowTuple, entry: ConnTrackEntry) -> bool:
        owner = self._by_tuple.get(flow)
        return owner is not None and owner[0] is not entry

    def confirm(self, entry: ConnTrackEntry) -> None:
        """First reply (or second orig) packet establishes the flow."""
        entry.state = ConnState.ESTABLISHED

    def remove(self, entry: ConnTrackEntry) -> None:
        self._by_tuple.pop(entry.orig, None)
        self._by_tuple.pop(entry.reply, None)

    def flush(self) -> None:
        self._by_tuple.clear()

    def entries(self) -> list[ConnTrackEntry]:
        seen: list[ConnTrackEntry] = []
        for entry, direction in self._by_tuple.values():
            if direction == "orig":
                seen.append(entry)
        return seen
