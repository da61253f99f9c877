"""The switch pipeline: ports, table lookup, action execution, packet-in.

A :class:`Datapath` is a single-table OpenFlow-style switch.  Ports
either wrap a :class:`~repro.linuxnet.devices.NetDevice` (NF ports and
node physical ports) or connect to another datapath through a
:class:`~repro.switch.lsi.VirtualLink` (inter-LSI wiring).

Three ingress paths exist:

* :meth:`Datapath.process` — one frame, counters updated inline;
* :meth:`Datapath.process_batch` — many ``(in_port, frame)`` pairs,
  amortizing per-packet overheads: flow counters *and* port rx/tx
  counters are accumulated locally and flushed once per batch, and
  frames leaving through a virtual link are carried to the far LSI as
  one batch so a whole chain of LSIs runs batch-at-a-time;
* :meth:`Datapath.process_batch_from` — a whole batch from *one*
  ingress port (what virtual links and batch-aware NetDevices deliver);
  same semantics with the port lookup and rx accounting hoisted out of
  the per-frame loop.

The batch paths are *zero-reparse*: each frame is parsed at most once
per chain.  Batch items may be raw :class:`EthernetFrame` objects
(parsed on entry) or already-carried
:class:`~repro.net.builder.ParsedFrame` views; egress queues hold
``ParsedFrame`` objects and virtual links forward them as-is, so the
next hop's lookup reuses the existing parse (including the lazy
IPv4/L4 decode and cached ``ip_ints``).  When a compiled action list
rewrites a frame (``compiled.mutates``), the emitted frame's parse is
*derived* from the carried one (:meth:`ParsedFrame.derive`): still-valid
layers carry over, anything the rewrite could have touched is dropped.

Action execution is *compiled*: every matching frame runs its entry's
cached closure (one call — see
:func:`repro.switch.actions.compile_actions`).
:meth:`Datapath.execute_interpreted` is the reference interpreter: it
runs one-shot action lists (OpenFlow packet-out), the perf sweep times
it as its action baseline, and the test-side reference switch builds
on it.

One level further up sits *chain fusion*
(:mod:`repro.switch.fusion`): when an ingress entry's whole chain —
pure-output/rewrite hops over virtual links to a terminal egress — is
statically determined, the batch paths collect its frames into one
group and settle the entire traversal at flush through a
:class:`~repro.switch.fusion.FusedChain`: a single ingress lookup (or
none, through a per-port dispatch slot), no intermediate
``carry_batch``/``process_batch_from`` round-trips, all per-hop
counters accumulated arithmetically.  Fused programs are re-validated
immediately before running, so any mid-batch change along the chain
falls the group back to the per-hop batch path.  A datapath with a tap
attached never fuses, so a tap on every hop pins the per-hop path.

Batch contracts (both batch paths): the ingress port is resolved once
per same-port run (not per frame), taps run in a pre-pass over the
run's frames before any lookup, and rx counters flush once per run —
a packet-in handler therefore sees pre-run rx totals, pre-batch
flow/tx totals.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.linuxnet.devices import NetDevice
from repro.net.builder import ParsedFrame, parse_frame
from repro.net.ethernet import EthernetFrame
from repro.switch.actions import (
    ActionError,
    Controller,
    EmitFn,
    FLOOD_PORT,
    Output,
    PopVlan,
    PushVlan,
    SelectOutput,
    SetField,
    resolve_select,
)
from repro.switch.flowtable import FlowEntry, FlowTable
from repro.switch.fusion import FusedChain, FusionEngine
from repro.switch.state import FlowStateRegistry

__all__ = ["Datapath", "SwitchPort"]

PacketInHandler = Callable[["Datapath", int, EthernetFrame], None]
TapHandler = Callable[[int, EthernetFrame], None]


class SwitchPort:
    """One switch port, optionally bound to a NetDevice."""

    def __init__(self, port_no: int, name: str,
                 device: Optional[NetDevice] = None) -> None:
        self.port_no = port_no
        self.name = name
        self.device = device
        self.datapath: Optional["Datapath"] = None
        self.peer_link = None  # set by VirtualLink
        self.rx_packets = 0
        self.tx_packets = 0
        self.rx_bytes = 0
        self.tx_bytes = 0

    def deliver_out(self, frame: EthernetFrame) -> None:
        """Frame leaving the switch through this port."""
        self.tx_packets += 1
        self.tx_bytes += len(frame)
        if self.device is not None:
            # Out the device towards its peer (veth half inside an NF
            # namespace, or the node's physical NIC).
            self.device.transmit(frame)
        elif self.peer_link is not None:
            self.peer_link.carry(self, frame)

    def deliver_out_batch(self, frames: list[ParsedFrame],
                          nbytes: int) -> None:
        """Batch egress of carried parses: a device receives the raw
        frames in one ``transmit_batch``, a virtual-link peer receives
        the parsed views in one carry (no re-parse at the far LSI).
        ``nbytes`` is the batch's total wire length, accumulated as the
        frames were queued."""
        self.tx_packets += len(frames)
        self.tx_bytes += nbytes
        if self.device is not None:
            self.device.transmit_batch([parsed.eth for parsed in frames])
        elif self.peer_link is not None:
            self.peer_link.carry_batch(self, frames)

    def __repr__(self) -> str:
        return f"<SwitchPort {self.port_no}:{self.name}>"


class _BatchState:
    """Shared mutable state of one batch invocation: the flow-counter
    accumulator and egress queues every ingress run feeds, the emit
    closures bound to them, and — when fusion is engaged — the fused
    groups awaiting settlement in :meth:`Datapath._finish_batch`.

    ``fusion`` is the ingress datapath's engine when fusion and the
    per-port dispatch layer are live for this batch (no taps), else
    ``None``.  ``fused`` maps ingress ``entry_id`` to
    ``[program, frames, nbytes, in_port, disp_n, disp_bytes]``
    groups — ``disp_n``/``disp_bytes`` count the group's frames that
    arrived through a dispatch slot and therefore still owe their
    ingress lookup/flow counters at flush (lookup-path frames settled
    theirs through ``pending``).  One group per entry regardless of
    arrival path, so per-entry egress order survives a mid-batch mix
    of dispatch hits and lookup hits.
    """

    __slots__ = ("pending", "queues", "emit", "emit_carry", "enqueue",
                 "fusion", "fused", "trace")


class Datapath:
    """Single-table software switch."""

    def __init__(self, dpid: int, name: str = "") -> None:
        self.dpid = dpid
        self.name = name or f"dp{dpid}"
        self.table = FlowTable()
        self.ports: dict[int, SwitchPort] = {}
        self._ports_by_name: dict[str, SwitchPort] = {}
        self._next_port = 1
        self.packet_in_handler: Optional[PacketInHandler] = None
        self.taps: list[TapHandler] = []
        self.rx_packets = 0
        self.table_misses = 0
        self.dropped = 0
        self.action_errors = 0
        #: ``[ParsedFrame, wire_len]`` of the frame whose actions are
        #: currently executing.  Every ingress path rebinds slot 0
        #: before actions run; compiled programs that need header
        #: fields beyond L2 (hash select-output) read the parse from
        #: here instead of re-parsing the frame.  Single-threaded by
        #: design, like the rest of the pipeline; a packet-in handler
        #: that re-injects mid-program would clobber it, so hash-select
        #: programs read the cell before any punt.
        self.carried: list = [None, 0]
        #: Chain-fusion engine for chains whose *ingress* is this LSI
        #: (see :mod:`repro.switch.fusion`).  Engaged for every batch
        #: that runs on a tap-free datapath.
        self.fusion = FusionEngine(self)
        #: Per-flow state tables consulted by stateful select-output
        #: actions (``SelectOutput.group``); see
        #: :mod:`repro.switch.state`.  Tables outlive the flow entries
        #: that consult them — replica-affinity state survives the
        #: rule churn of a scale event by design.
        self.flow_state = FlowStateRegistry(name=self.name)
        #: Optional :class:`repro.telemetry.tracing.Tracer`.  When
        #: attached, ``_begin_batch`` runs its 1-in-N sampler inline —
        #: an unsampled batch pays one counter compare and nothing
        #: else; a sampled batch records an ingress→dispatch→hops→
        #: egress span tree and the per-batch latency histogram.
        self.tracer = None

    # -- port management --------------------------------------------------------
    def add_port(self, name: str, device: Optional[NetDevice] = None,
                 port_no: Optional[int] = None) -> SwitchPort:
        if port_no is None:
            port_no = self._next_port
        if port_no in self.ports:
            raise ValueError(f"port {port_no} already on {self.name}")
        self._next_port = max(self._next_port, port_no) + 1
        port = SwitchPort(port_no, name, device)
        port.datapath = self
        self.ports[port_no] = port
        # First port wins on duplicate names, like the old linear scan.
        self._ports_by_name.setdefault(name, port)
        if device is not None:
            device.attach_handler(
                lambda dev, frame, p=port_no: self.process(p, frame),
                batch_handler=lambda dev, frames, p=port_no:
                    self.process_batch_from(p, frames))
            if not device.up:
                device.set_up()
        return port

    def remove_port(self, port_no: int) -> SwitchPort:
        try:
            port = self.ports.pop(port_no)
        except KeyError:
            raise KeyError(f"no port {port_no} on {self.name}") from None
        if self._ports_by_name.get(port.name) is port:
            del self._ports_by_name[port.name]
            # Another port may share the name; restore the earliest-added
            # one (dict insertion order — the old linear scan's winner).
            for other in self.ports.values():
                if other.name == port.name:
                    self._ports_by_name[port.name] = other
                    break
        if port.device is not None:
            port.device.detach_handler()
        port.datapath = None
        return port

    def port_by_name(self, name: str) -> SwitchPort:
        try:
            return self._ports_by_name[name]
        except KeyError:
            raise KeyError(
                f"no port named {name!r} on {self.name}") from None

    # -- pipeline -----------------------------------------------------------------
    def process(self, in_port: int, frame: EthernetFrame) -> None:
        """Run one frame through the pipeline."""
        if in_port not in self.ports:
            raise KeyError(f"frame from unknown port {in_port} on {self.name}")
        self.rx_packets += 1
        port = self.ports[in_port]
        parsed = parse_frame(frame)
        port.rx_packets += 1
        port.rx_bytes += parsed.wire_len
        for tap in self.taps:
            tap(in_port, frame)
        entry = self.table.lookup(in_port, parsed)
        if entry is None:
            self.table_misses += 1
            if self.packet_in_handler is not None:
                self.packet_in_handler(self, in_port, frame)
            else:
                self.dropped += 1
            return
        carried = self.carried
        carried[0] = parsed
        carried[1] = parsed.wire_len
        entry.compiled(self, in_port, frame, self._emit)

    def _batch_emit(self, queues: dict[int, list], carried: list):
        """Build the shared egress closures of one batch run.

        ``carried[0]`` is rebound to the current frame's
        :class:`ParsedFrame` (and ``carried[1]`` to its wire length)
        before each program runs.  Each queue is a two-slot
        ``[frames, nbytes]`` accumulator: the emit closures add every
        frame's wire length as it is queued, so the flush hands the
        egress port a ready total instead of re-summing ``wire_len``
        over the whole queue.  Two emit closures share the queues,
        selected per entry by the compiled program's ``mutates`` tag:

        * ``emit`` (mutating programs) re-attaches the carried parse to
          whatever the program hands back — an emitted frame identical
          to the ingress frame keeps its parse wholesale, a rewritten
          frame gets a parse *derived* from it, so still-valid layers
          are never decoded again;
        * ``emit_carry`` (non-mutating programs) skips even that
          identity check: such a program only ever emits the ingress
          frame object itself, so the carried parse (and its
          already-known size) is forwarded as-is.

        Pure-output entries (``compiled.out_port`` set) bypass all of
        this: the batch loops inline the enqueue per entry and never
        rebind ``carried`` for them.  Every enqueue site inlines the hot
        case (a port that already has a queue) and hands the miss arm —
        first frame for a port, FLOOD, unknown port — to :meth:`_route`
        with ``enqueue`` as its delivery.
        """

        def enqueue(number: int, port: SwitchPort,
                    parsed: ParsedFrame) -> None:
            acc = queues.get(number)
            if acc is None:
                queues[number] = [[parsed], parsed.wire_len]
            else:
                acc[0].append(parsed)
                acc[1] += parsed.wire_len

        route = self._route

        def emit(out_port: int, in_port: int, frame: EthernetFrame) -> None:
            parsed = carried[0]
            if frame is not parsed.eth:
                parsed = parsed.derive(frame)
                size = parsed.wire_len
            else:
                size = carried[1]
            acc = queues.get(out_port)
            if acc is not None:
                acc[0].append(parsed)
                acc[1] += size
            else:
                route(out_port, in_port, parsed, enqueue)

        def emit_carry(out_port: int, in_port: int,
                       frame: EthernetFrame) -> None:
            acc = queues.get(out_port)
            if acc is not None:
                acc[0].append(carried[0])
                acc[1] += carried[1]
            else:
                route(out_port, in_port, carried[0], enqueue)

        return emit, emit_carry, enqueue

    def _flush_batch(self, pending: dict, queues: dict[int, list]) -> None:
        """Write the flow counters and drain the egress queues of one
        batch run (rx counters are flushed by the caller, whose
        accumulation shape differs per ingress path).  Each queue
        carries its byte total alongside the frames, so no second
        ``wire_len`` pass happens here."""
        table = self.table
        for entry, packets, nbytes in pending.values():
            table.credit(entry, packets, nbytes)
        for port_no, (frames, nbytes) in queues.items():
            port = self.ports.get(port_no)
            if port is None:  # removed by a tap/handler mid-batch
                self.dropped += len(frames)
                continue
            port.deliver_out_batch(frames, nbytes)

    def _begin_batch(self) -> _BatchState:
        """Build the shared state of one batch invocation."""
        state = _BatchState()
        state.pending = {}
        state.queues = {}
        state.emit, state.emit_carry, state.enqueue = \
            self._batch_emit(state.queues, self.carried)
        # Fusion engages unless a tap is attached: a tap must see every
        # frame per hop, which a fused chain by design does not do.
        state.fusion = None if self.taps else self.fusion
        state.fused = {}
        tracer = self.tracer
        if tracer is None:
            state.trace = None
        else:
            # Inline 1-in-N batch sampler: the unsampled path is this
            # counter bump and compare, with no call and no clock read.
            n = tracer.batch_counter + 1
            if n >= tracer.sample_every:
                tracer.batch_counter = 0
                state.trace = tracer.begin_batch(self.name)
            else:
                tracer.batch_counter = n
                state.trace = None
        return state

    def _run_ingress(self, in_port: int,
                     frames: "Iterable[EthernetFrame | ParsedFrame]",
                     state: _BatchState) -> None:
        """The one batch inner loop: run a same-ingress-port run of
        frames into the batch state.  Both batch entry points reduce
        to calls of this (their only difference is how runs are
        segmented), so the fusion fallback has exactly one per-hop body
        to stay equivalent to.

        Taps run in a pre-pass (frames are parsed once, here or in the
        loop, never twice); rx counters flush in this method's
        ``finally``, once per run, covering exactly the frames pulled
        from the iterator.
        """
        port = self.ports.get(in_port)
        if port is None:
            raise KeyError(
                f"frame from unknown port {in_port} on {self.name}")
        taps = self.taps
        if taps:
            frames = [frame if type(frame) is ParsedFrame
                      else parse_frame(frame) for frame in frames]
            for parsed in frames:
                eth = parsed.eth
                for tap in taps:
                    tap(in_port, eth)
        table = self.table
        pending = state.pending
        queues = state.queues
        emit = state.emit
        emit_carry = state.emit_carry
        enqueue = state.enqueue
        route = self._route
        fusion = state.fusion
        fused = state.fused
        carried = self.carried
        dispatch = None
        if fusion is not None:
            dispatch = fusion.dispatch.get(in_port)
            if dispatch is None:
                dispatch = fusion.dispatch[in_port] = {}
        packets = 0
        nbytes = 0

        try:
            for frame in frames:
                if dispatch is not None:
                    # Dispatch fast path: one dict probe and a version
                    # compare takes the frame straight to its fused
                    # program — no table walk, no pending bookkeeping,
                    # and (for raw ingress frames) no ``ParsedFrame``
                    # allocation at all: the frame is parked as-is and
                    # the program normalizes at delivery, so a plain
                    # fused chain never decodes past L2.  The group's
                    # dispatch counters settle the ingress lookup/flow
                    # totals at flush.  The version is checked per
                    # frame so a mid-batch flow-mod re-resolves the
                    # slice immediately.
                    if type(frame) is ParsedFrame:
                        eth = frame.eth
                        size = frame.wire_len
                    else:
                        if frame.__class__ is bytes:
                            frame = EthernetFrame.from_bytes(frame)
                        eth = frame
                        size = len(frame)
                    packets += 1
                    nbytes += size
                    slot = dispatch.get(eth.vlan)
                    if slot is None or slot[0] != table.version:
                        slot = fusion.build_slot(dispatch, in_port,
                                                 eth.vlan)
                    entry = slot[1]
                    if entry is not None:
                        group = fused.get(entry.entry_id)
                        if group is None:
                            fused[entry.entry_id] = [slot[2], [frame],
                                                     size, in_port,
                                                     1, size]
                        else:
                            group[1].append(frame)
                            group[2] += size
                            group[4] += 1
                            group[5] += size
                        continue
                    parsed = (frame if type(frame) is ParsedFrame
                              else parse_frame(frame))
                else:
                    parsed = (frame if type(frame) is ParsedFrame
                              else parse_frame(frame))
                    size = parsed.wire_len
                    packets += 1
                    nbytes += size
                entry = table.lookup(in_port, parsed, count=False)
                if entry is None:
                    self.table_misses += 1
                    if self.packet_in_handler is not None:
                        self.packet_in_handler(self, in_port, parsed.eth)
                    else:
                        self.dropped += 1
                    continue
                acc = pending.get(entry.entry_id)
                if acc is None:
                    pending[entry.entry_id] = [entry, 1, size]
                else:
                    acc[1] += 1
                    acc[2] += size
                if fusion is not None:
                    program = entry.fused
                    if type(program) is int:
                        program = (None if program != fusion.epoch
                                   else program)
                    if program is None:
                        program = fusion.trace(entry)
                    if type(program) is not int:
                        # Whole-chain hop: park the frame for one
                        # straight-line settlement at flush instead of
                        # walking it hop by hop.
                        group = fused.get(entry.entry_id)
                        if group is None:
                            fused[entry.entry_id] = [program, [parsed],
                                                     size, in_port,
                                                     0, 0]
                        else:
                            group[1].append(parsed)
                            group[2] += size
                        continue
                out_fast = entry.fast_out
                if out_fast is not None:
                    # Pure-output hop: enqueue the carried parse with
                    # one dict hit and an append — no carried rebind, no
                    # program call, no emit closure.
                    acc = queues.get(out_fast)
                    if acc is not None:
                        acc[0].append(parsed)
                        acc[1] += size
                    else:
                        route(out_fast, in_port, parsed, enqueue)
                    continue
                carried[0] = parsed
                carried[1] = size
                program = entry.compiled
                program(self, in_port, parsed.eth,
                        emit if program.mutates else emit_carry)
        finally:
            # A bad frame or raising handler must not lose the run's
            # prefix: account what was actually pulled and processed.
            self.rx_packets += packets
            port.rx_packets += packets
            port.rx_bytes += nbytes

    def _fused_fallback(self, entry: FlowEntry, frames: list[ParsedFrame],
                        in_port: int, state: _BatchState) -> None:
        """Per-hop execution of a fused group whose program went stale
        between collection and flush (mid-batch flow-mod, port removal,
        tap attach...).  The frames' ingress rx and flow counters are
        already accounted; this replays only the execution arm of
        :meth:`_run_ingress` into the live queues, after which the
        normal flush carries them to the (possibly changed) next hop.

        Dispatch-hit frames were parked *raw* (no ingress parse); they
        get their one ``ParsedFrame`` here — the same single parse per
        frame the per-hop path would have paid at ingress.
        """
        queues = state.queues
        carried = self.carried
        frames = [parsed if type(parsed) is ParsedFrame
                  else parse_frame(parsed) for parsed in frames]
        out_fast = entry.fast_out
        if out_fast is not None:
            for parsed in frames:
                acc = queues.get(out_fast)
                if acc is not None:
                    acc[0].append(parsed)
                    acc[1] += parsed.wire_len
                else:
                    self._route(out_fast, in_port, parsed, state.enqueue)
            return
        program = entry.compiled
        deliver = state.emit if program.mutates else state.emit_carry
        for parsed in frames:
            carried[0] = parsed
            carried[1] = parsed.wire_len
            program(self, in_port, parsed.eth, deliver)

    def _finish_batch(self, state: _BatchState) -> None:
        """Settle one batch: run (or fall back) the fused groups, then
        flush flow counters and drain the egress queues.

        Every fused program is re-validated *immediately before*
        running, so a mid-batch change anywhere along its chain —
        flow-mod, replica change, port removal, tap attach, link
        rewire — can never run a stale program: the group takes the
        per-hop path and the program is dropped for re-tracing.
        """
        fusion = state.fusion
        if fusion is not None:
            hits = 0
            dispatched = 0
            table = self.table
            # Per-graph attribution: cookie -> [matched, hits,
            # dispatched] this batch.
            shares = {}
            for group in state.fused.values():
                program, frames, nbytes, in_port, disp_n, disp_bytes = \
                    group
                if disp_n:
                    # Dispatch-hit frames skipped table.lookup() and
                    # the pending accumulator; settle the ingress
                    # lookup/match/flow counters they owe *before*
                    # running or falling back, so both arms start from
                    # per-hop-identical counter state.
                    dispatched += disp_n
                    table.lookups += disp_n
                    table.credit(program.ingress_entry, disp_n,
                                 disp_bytes)
                if program.valid():
                    program.run(frames, nbytes)
                    group_hits = len(frames)
                    hits += group_hits
                else:
                    fusion.invalidations += 1
                    entry = program.ingress_entry
                    entry.fused = None
                    slots = entry.dispatch
                    if slots:
                        # No slice may keep dispatching to a program
                        # that just failed validation.
                        for slot in slots:
                            slot[0] = -1
                            slot[1] = None
                            slot[2] = None
                        del slots[:]
                    self._fused_fallback(entry, frames, in_port, state)
                    group_hits = 0
                cookie = program.ingress_entry.cookie
                if cookie:
                    row = shares.get(cookie)
                    if row is None:
                        row = shares[cookie] = [0, 0, 0]
                    row[0] += disp_n
                    row[1] += group_hits
                    row[2] += disp_n
            matched = dispatched
            for acc in state.pending.values():
                matched += acc[1]
            fusion.hits += hits
            fusion.misses += matched - hits
            fusion.dispatch_hits += dispatched
            fusion.dispatch_misses += matched - dispatched
            # Lookup-path frames count toward their entry's cookie;
            # settle each graph's share with the same matched-minus
            # arithmetic as the aggregates above.
            for acc in state.pending.values():
                cookie = acc[0].cookie
                if cookie:
                    row = shares.get(cookie)
                    if row is None:
                        row = shares[cookie] = [0, 0, 0]
                    row[0] += acc[1]
            cookie_stats = fusion.cookie_stats
            for cookie, (c_matched, c_hits, c_disp) in shares.items():
                totals = cookie_stats.get(cookie)
                if totals is None:
                    totals = cookie_stats[cookie] = [0, 0, 0, 0]
                totals[0] += c_hits
                totals[1] += c_matched - c_hits
                totals[2] += c_disp
                totals[3] += c_matched - c_disp
        self._flush_batch(state.pending, state.queues)
        if state.trace is not None:
            self.tracer.finish_batch(state.trace, self, state)

    def process_batch(self,
                      batch: "Iterable[tuple[int, EthernetFrame | ParsedFrame]]") -> None:
        """Run a batch of ``(in_port, frame)`` through the pipeline.

        Behaviorally equivalent to calling :meth:`process` per frame,
        except that side effects are amortized: the batch is segmented
        into runs of consecutive same-``in_port`` frames, each handed
        to the shared inner loop (:meth:`_run_ingress` — port resolved
        once per run, taps in a pre-pass, rx counters flushed once per
        run), while flow counters and egress queues span the whole
        batch and flush once at the end (a tap or packet-in handler
        that inspects them mid-batch sees pre-batch values).  Egress is
        coalesced per output port — virtual links forward one batch to
        the far LSI instead of recursing per frame — and whole-chain
        fused entries settle straight to the terminal at flush.
        Per-port egress order is preserved among matched frames of any
        one flow entry.  A packet-in handler that re-injects via
        :meth:`process` delivers immediately, i.e. ahead of frames
        still queued for the batch flush.

        Frames may be raw :class:`EthernetFrame` objects or
        :class:`ParsedFrame` views carried from an upstream hop; the
        latter are *not* re-parsed (see the module docstring).
        """
        state = self._begin_batch()
        run_port: Optional[int] = None
        run: list = []
        try:
            for in_port, frame in batch:
                if in_port != run_port and run:
                    flushing, run = run, []
                    self._run_ingress(run_port, flushing, state)
                run_port = in_port
                run.append(frame)
            if run:
                self._run_ingress(run_port, run, state)
        finally:
            self._finish_batch(state)

    def process_batch_from(
            self, in_port: int,
            frames: "Iterable[EthernetFrame | ParsedFrame]") -> None:
        """Run a batch of frames arriving on one ingress port.

        Semantically ``process_batch((in_port, f) for f in frames)``,
        but the single-port shape — what a virtual link carries to the
        next LSI and what a batch-aware :class:`NetDevice` hands its
        handler — is exactly one run of the shared inner loop: no
        ``(port, frame)`` tuples and no segmentation scan.  This is
        the chain hot path.
        """
        state = self._begin_batch()
        try:
            self._run_ingress(in_port, frames, state)
        finally:
            self._finish_batch(state)

    def execute_interpreted(self, actions: Iterable, in_port: int,
                            frame: EthernetFrame,
                            deliver: Optional[EmitFn] = None) -> None:
        """Reference action interpreter: per-frame type dispatch.

        Kept as the semantic baseline for the compiled closures — the
        perf sweep times it, the test-side reference switch executes
        every entry through it, and a property suite asserts both
        paths produce identical emissions and counters.
        It is also the right path for one-shot action lists (OpenFlow
        packet-out), which would waste a compile per message.
        """
        if deliver is None:
            deliver = self._emit
        current = frame
        emitted = False
        for action in actions:
            if isinstance(action, Output):
                emitted = True
                deliver(action.port, in_port, current)
            elif isinstance(action, SelectOutput):
                # Reference semantics of hash-select: the same
                # rendezvous / state-table resolution as the compiled
                # form (resolve_select), computed from the carried
                # parse when the pipeline provided one (ingress-frame
                # identity), from a one-off parse otherwise.
                emitted = True
                parsed = self.carried[0]
                if parsed is None or parsed.eth is not frame:
                    parsed = parse_frame(frame)
                deliver(resolve_select(self, action, parsed),
                        in_port, current)
            elif isinstance(action, Controller):
                emitted = True
                if self.packet_in_handler is not None:
                    self.packet_in_handler(self, in_port, current)
            elif isinstance(action, (PushVlan, PopVlan, SetField)):
                try:
                    current = action.apply(current)
                except ActionError:
                    self.action_errors += 1
                    return
            else:  # pragma: no cover - action union is closed
                raise TypeError(f"unknown action {action!r}")
        if not emitted:
            self.dropped += 1

    def _route(self, out_port: int, in_port: int, frame: EthernetFrame,
               deliver: Callable[[int, SwitchPort, EthernetFrame],
                                 None]) -> None:
        """Routing policy shared by the single-frame and batched paths:
        FLOOD expands to every port but the ingress, unknown ports count
        as drops."""
        if out_port == FLOOD_PORT:
            for number, port in self.ports.items():
                if number != in_port:
                    deliver(number, port, frame)
            return
        port = self.ports.get(out_port)
        if port is None:
            self.dropped += 1
            return
        deliver(out_port, port, frame)

    def _emit(self, out_port: int, in_port: int,
              frame: EthernetFrame) -> None:
        self._route(out_port, in_port, frame,
                    lambda number, port, fr: port.deliver_out(fr))

    # -- convenience -----------------------------------------------------------
    def install(self, entry: FlowEntry) -> None:
        """Direct table write (tests); production path is OpenFlow."""
        self.table.add(entry)

    def describe(self) -> str:
        lines = [f"datapath {self.name} dpid={self.dpid:#x} "
                 f"ports={len(self.ports)} flows={len(self.table)}"]
        for number in sorted(self.ports):
            port = self.ports[number]
            lines.append(f"  port {number}: {port.name}")
        lines.extend("  " + text for text in self.table.dump())
        return "\n".join(lines)
