"""Test-side reference switch: the semantics every production path must match.

:class:`ReferenceDatapath` is a :class:`~repro.switch.Datapath` whose
every frame takes the most literal route there is: one frame at a
time, a priority-ordered linear scan of the flow table with
string-based CIDR matching (:meth:`FlowTable.lookup_linear`), and the
interpreted action loop (:meth:`Datapath.execute_interpreted`).  No
index, no compiled closures, no batching, no fusion or dispatch, no
parse carried across hops.  It credits the same datapath, port, table
and flow-entry counters as production, so a differential test can
compare a production chain and a reference chain observable for
observable.

Its batch entry points loop :meth:`process` frame by frame, so a
chain of reference datapaths joined by virtual links runs per frame
end to end (egress goes through ``SwitchPort.deliver_out`` and
``VirtualLink.carry``).
"""

from repro.net import parse_frame
from repro.net.builder import ParsedFrame
from repro.switch import Datapath

__all__ = ["ReferenceDatapath"]


class ReferenceDatapath(Datapath):
    """Per-frame, interpreted, linear-scan reference switch."""

    def process(self, in_port, frame):
        if type(frame) is ParsedFrame:
            frame = frame.eth
        port = self.ports.get(in_port)
        if port is None:
            raise KeyError(f"frame from unknown port {in_port} on {self.name}")
        parsed = parse_frame(frame)
        self.rx_packets += 1
        port.rx_packets += 1
        port.rx_bytes += parsed.wire_len
        for tap in self.taps:
            tap(in_port, frame)
        table = self.table
        table.lookups += 1
        entry = table.lookup_linear(in_port, parsed)
        if entry is None:
            self.table_misses += 1
            if self.packet_in_handler is not None:
                self.packet_in_handler(self, in_port, frame)
            else:
                self.dropped += 1
            return
        table.credit(entry, 1, parsed.wire_len)
        # Hash-select resolves from the carried parse, as in production.
        self.carried[0] = parsed
        self.carried[1] = parsed.wire_len
        self.execute_interpreted(entry.actions, in_port, frame)

    def process_batch(self, batch):
        for in_port, frame in batch:
            self.process(in_port, frame)

    def process_batch_from(self, in_port, frames):
        for frame in frames:
            self.process(in_port, frame)
