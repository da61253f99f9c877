"""Chain fusion: compile whole LSI chains into straight-line programs.

The batched pipeline already amortizes per-frame overheads *within*
one LSI, but a chain of LSIs (Figure 1: LSI-0 classifies into a graph
LSI, which steers through the NFs) still pays Python per hop: lookup,
compiled closure, egress queue, ``carry_batch``, and another full
``process_batch_from`` on the far side.  Steering rules are stable
between flow-mods, so that whole traversal is a *constant* per flow
entry — the same observation that let :func:`compile_actions` fuse an
action list one level down.

:class:`FusionEngine` (one per :class:`~repro.switch.datapath.Datapath`,
created in ``Datapath.__init__``) traces the chain a flow entry's
frames would take — ingress lookup, pure-output/rewrite hops over
virtual links, terminal egress — and lowers it into one
:class:`FusedChain`: a straight-line program that runs a **single**
table lookup at the chain ingress, crosses every link with zero
intermediate ``carry_batch``/``process_batch_from`` round-trips,
applies the *composed* header rewrite once per frame, and settles
every per-hop counter (flow packets/bytes, table lookups/matches,
port rx/tx, link ``carried``, datapath rx) arithmetically at flush.

Fuseability.  A hop fuses when its winning entry's actions are VLAN /
MAC transforms followed by exactly one concrete ``Output``, and the
*next* hop's winner is frame-independent: the first entry of the far
table compatible with ``(in_port, vlan-state)`` must match on those
two fields alone (``FlowMatch._port_vlan_only``) and must be the same
entry for every alive VLAN branch.  A chain may also *end* in a
``SelectOutput`` replica spread over device-backed ports: the trace
then lowers into a :class:`FusedSelectChain`, which settles the
prefix hops arithmetically and runs the per-frame replica pick — the
same ``rendezvous_select`` / :class:`~repro.switch.state.FlowStateTable`
pin lookup the compiled shapes use, constants hoisted at trace time —
inside the fused program instead of bailing to the interpreter.
Anything else — FLOOD, drops, punts, taps on a datapath, table
misses, cycles — bails the trace, and the entry simply stays on the
per-hop batch path.

Terminal delivery is a *byte splice*: the composed header rewrite of
the whole chain is precomputed at trace time into a field-merge
closure that builds each egress :class:`EthernetFrame` directly
(``__new__`` + dict splice), skipping both the per-hop
``replace``/``__post_init__`` validation chain and the terminal
``ParsedFrame.derive`` entirely — the rewrite constants were
validated once, when the splice was compiled.

Dispatch.  On top of per-entry programs, the engine keeps a per-port
**dispatch table**: ``in_port -> {vlan-state -> slot}`` where a slot
pins the frame-independent lookup winner of that ``(in_port, vlan)``
traffic slice (:meth:`~repro.switch.flowtable.FlowTable.slice_winner`)
together with its fused program.  When a slot is live, the batch
ingress loop jumps straight from frame to program — no ``FlowTable``
walk, no per-frame pending bookkeeping (ingress lookup/match/flow
counters settle arithmetically at flush, like every downstream hop).
Slots are stamped with ``FlowTable.version`` and re-checked per frame,
so a mid-batch flow-mod re-resolves the slice immediately; steering
invalidation and reactive fallbacks tear slots down through the
``FlowEntry.dispatch`` back-references.  Slices whose winner depends
on frame fields (or whose winner is not fused) hold a *negative* slot
and take the normal lookup path at one dict probe of extra cost.

VLAN state is tracked *symbolically* with up to two branches: an
ingress match with a wildcard VLAN admits both initially-tagged and
initially-untagged frames, whose wire lengths diverge by 4 bytes the
moment a push/pop happens.  Each hop records per-branch byte deltas,
so the settled byte counters are exact: frames are classified once at
run time (tagged vs untagged) only when the branches actually differ.

Invalidation.  A fused program records the ``version`` of every
:class:`~repro.switch.flowtable.FlowTable` it traversed plus the
identity of every port/link/closure it relies on, and re-validates all
of it at flush time, immediately before running — so a flow-mod, port
removal, tap attach or replica change *anywhere* along the chain
(even mid-batch, from a packet-in handler) can never run a stale
program: the group falls back to the per-hop path and the program is
dropped for re-tracing.  The steering layer additionally drops every
program *before* its strict deletes reach the tables
(:meth:`~repro.core.steering.TrafficSteeringManager.invalidate_fusion`),
so the window where a stale positive exists at all is confined to
direct table writes, which the version check covers.
"""

from __future__ import annotations

from typing import Optional

from repro.net.addresses import MacAddress
from repro.net.builder import ParsedFrame, parse_frame
from repro.net.ethernet import EthernetFrame
from repro.switch.actions import (
    FLOOD_PORT,
    Output,
    PopVlan,
    PushVlan,
    SelectOutput,
    SetField,
    flow_hash,
    hoisted_select,
    rendezvous_select,
)
from repro.switch.flowtable import ANY_VLAN, NO_VLAN, FlowEntry, FlowTable

__all__ = ["FusedChain", "FusedSelectChain", "FusionEngine",
           "MAX_CHAIN_DEPTH"]

#: Trace depth cap: chains longer than this stay per-hop.  Real
#: steering chains are 2-3 hops; the cap only guards degenerate wiring.
MAX_CHAIN_DEPTH = 32

#: Wire-length delta of gaining/losing an 802.1Q tag.
_TAG_BYTES = 4

#: VLAN id of a tagged branch whose concrete id is not statically known
#: (wildcard/ANY_VLAN ingress match).  Distinct from every real id and
#: from ``None`` (untagged).
_UNKNOWN = object()


class _Hop:
    """One traversed hop of a fused chain: identities to re-validate
    and the counter deltas to settle.

    ``in_dt``/``in_du`` are the wire-length offsets (vs the ingress
    frame) of frames *arriving* at this hop, per branch (initially-
    tagged / initially-untagged); ``out_dt``/``out_du`` after this
    hop's transforms.  ``link``/``far_port``/``far_dp`` are ``None``
    on the terminal hop.
    """

    __slots__ = ("dp", "table", "version", "entry", "compiled",
                 "in_dt", "in_du", "out_no", "out_port",
                 "out_dt", "out_du", "link", "far_port", "far_dp")


def _compile_splice(kwargs: dict):
    """The byte-splice closure for one composed rewrite, or ``None``.

    ``replace(eth, **kwargs)`` runs the dataclass constructor — and
    its ``__post_init__`` range checks — once per frame.  The fused
    terminal already validated the rewrite constants at trace time
    (:func:`_splice_fields_valid`), so the splice builds the egress
    frame structurally: allocate with ``__new__`` and merge the field
    dict.  One dict splice per frame, no validation re-run.
    """
    if not kwargs:
        return None
    fields = dict(kwargs)

    def splice(eth: EthernetFrame, _new=EthernetFrame.__new__,
               _cls=EthernetFrame, _fields=fields) -> EthernetFrame:
        out = _new(_cls)
        out.__dict__ = {**eth.__dict__, **_fields}
        return out
    return splice


def _splice_fields_valid(kwargs: dict) -> bool:
    """Whether the composed rewrite passes the ``EthernetFrame``
    constructor checks for every frame.  A constant the constructor
    would reject must keep the chain on the per-hop path, where the
    per-frame ``replace`` raises exactly as it always did."""
    vlan = kwargs.get("vlan")
    if vlan is not None and not 0 <= vlan <= 0xFFF:
        return False
    pcp = kwargs.get("vlan_pcp")
    if pcp is not None and not 0 <= pcp <= 7:
        return False
    return True


class FusedChain:
    """The straight-line program for one (ingress entry, chain) pair."""

    __slots__ = ("hops", "kwargs", "splice", "two_branch",
                 "ingress_entry", "device")

    def __init__(self, hops: list[_Hop], kwargs: dict,
                 two_branch: bool) -> None:
        self.hops = tuple(hops)
        #: Composition of every transform along the chain; empty for
        #: identity chains, where frames forward untouched.  Applied
        #: once per frame at the terminal through :attr:`splice`.
        self.kwargs = kwargs
        self.splice = _compile_splice(kwargs)
        self.two_branch = two_branch
        self.ingress_entry = hops[0].entry
        self.device = hops[-1].out_port.device

    def valid(self) -> bool:
        """Cheap staleness check, run per group immediately before
        :meth:`run`: every traversed table is at its traced version and
        every identity the trace relied on still holds."""
        for hop in self.hops:
            dp = hop.dp
            if (hop.table.version != hop.version
                    or hop.entry.compiled is not hop.compiled
                    or dp.taps
                    or dp.ports.get(hop.out_no) is not hop.out_port
                    or hop.out_port.peer_link is not hop.link):
                return False
            link = hop.link
            if link is not None and hop.far_port.datapath is not hop.far_dp:
                return False
        return self.hops[-1].out_port.device is self.device

    def run(self, frames: list, nbytes: int) -> None:
        """Run the whole chain for one batch group: settle every
        per-hop counter arithmetically, then deliver at the terminal.

        ``frames`` all matched the ingress entry (whose own flow/rx
        counters the ingress loop accounted, exactly as on the per-hop
        path); everything downstream of the ingress lookup is settled
        here.  Per-flow egress order is preserved — frames of one
        ingress entry leave the terminal port in arrival order.

        A group may mix :class:`ParsedFrame` views (lookup-path or
        carried arrivals) with *raw* ``EthernetFrame`` objects (the
        dispatch fast path parks frames unparsed — a plain fused chain
        never needs anything past L2, so the parse is skipped, not
        deferred).
        """
        n = len(frames)
        nu = 0
        if self.two_branch:
            for parsed in frames:
                eth = parsed.eth if parsed.__class__ is ParsedFrame \
                    else parsed
                if eth.vlan is None:
                    nu += 1
        nt = n - nu
        first = True
        for hop in self.hops:
            if first:
                first = False
            else:
                # Downstream hop bookkeeping the per-hop path would do
                # in process_batch_from: datapath + port rx (the port rx
                # was settled by the previous hop's link segment below),
                # one lookup+match per frame, and the flow counters with
                # the frames' wire length *as they arrived here*.
                hop.dp.rx_packets += n
                table = hop.table
                table.lookups += n
                table.matches += n
                entry = hop.entry
                entry.packets += n
                entry.bytes += nbytes + nt * hop.in_dt + nu * hop.in_du
            out_bytes = nbytes + nt * hop.out_dt + nu * hop.out_du
            port = hop.out_port
            port.tx_packets += n
            port.tx_bytes += out_bytes
            link = hop.link
            if link is not None:
                link.carried += n
                far = hop.far_port
                far.rx_packets += n
                far.rx_bytes += out_bytes
        device = self.device
        if device is None:
            # Counting sink: counters are settled, nothing materializes.
            return
        splice = self.splice
        if splice is None:
            device.transmit_batch([
                parsed.eth if parsed.__class__ is ParsedFrame else parsed
                for parsed in frames])
        else:
            device.transmit_batch([
                splice(parsed.eth if parsed.__class__ is ParsedFrame
                       else parsed)
                for parsed in frames])


class FusedSelectChain:
    """A fused chain ending in a ``SelectOutput`` replica spread.

    The prefix hops settle exactly like a :class:`FusedChain`; the
    tail hop then runs the per-frame replica pick *inside* the fused
    program: ``rendezvous_select`` over trace-hoisted seeds for
    stateless spreads, the datapath's
    :class:`~repro.switch.state.FlowStateTable` ``steer`` (pin /
    remap / adopt, identical counter evolution) for stateful ones —
    in frame arrival order, so state-table side effects match the
    per-hop path bit for bit.  Frames bucket per chosen replica and
    leave through the terminal byte splice.

    Validity additionally pins the replica ports: any port removal,
    device rebind, or a replica port growing a virtual link (the
    trace only accepts device/sink replicas) fails :meth:`valid` and
    the group falls back per-hop.  A replica-set or state-group
    change arrives as a rule reinstall, which the steering layer
    precedes with a full invalidation; direct table writes are caught
    by the tail's table-version stamp.
    """

    __slots__ = ("hops", "kwargs", "splice", "two_branch",
                 "ingress_entry", "dp", "table", "version", "entry",
                 "compiled", "in_dt", "in_du", "out_dt", "out_du",
                 "ports", "seeds", "port_set", "group", "state",
                 "replicas")

    def __init__(self, hops: list[_Hop], kwargs: dict, two_branch: bool,
                 tail_dp, tail_entry: FlowEntry, in_dt: int, in_du: int,
                 out_dt: int, out_du: int, select: SelectOutput,
                 state, replicas: dict) -> None:
        self.hops = tuple(hops)
        self.kwargs = kwargs
        self.splice = _compile_splice(kwargs)
        self.two_branch = two_branch
        self.ingress_entry = hops[0].entry
        self.dp = tail_dp
        self.table = tail_dp.table
        self.version = tail_dp.table.version
        self.entry = tail_entry
        self.compiled = tail_entry.compiled
        self.in_dt, self.in_du = in_dt, in_du
        self.out_dt, self.out_du = out_dt, out_du
        self.ports, self.seeds, self.port_set, self.group = \
            hoisted_select(select)
        #: The state table resolved at trace time (``group`` spreads);
        #: identity is re-checked in :meth:`valid` so a dropped-and-
        #: recreated group (graph teardown) can never run against the
        #: stale table object.
        self.state = state
        #: ``out_no -> (SwitchPort, device)`` for every replica.
        self.replicas = replicas

    def valid(self) -> bool:
        for hop in self.hops:
            dp = hop.dp
            if (hop.table.version != hop.version
                    or hop.entry.compiled is not hop.compiled
                    or dp.taps
                    or dp.ports.get(hop.out_no) is not hop.out_port
                    or hop.out_port.peer_link is not hop.link):
                return False
            link = hop.link
            if link is not None and hop.far_port.datapath is not hop.far_dp:
                return False
        dp = self.dp
        if (self.table.version != self.version
                or self.entry.compiled is not self.compiled
                or dp.taps):
            return False
        if self.group is not None and \
                dp.flow_state.peek(self.group) is not self.state:
            return False
        ports = dp.ports
        for out_no, (port, device) in self.replicas.items():
            if (ports.get(out_no) is not port
                    or port.peer_link is not None
                    or port.device is not device):
                return False
        return True

    def run(self, frames: list, nbytes: int) -> None:
        # The replica pick hashes L3/L4, so this program *does* need
        # full parses; frames the dispatch fast path parked raw get
        # their one ParsedFrame here (same single parse per frame the
        # per-hop path pays at ingress).
        frames = [parsed if parsed.__class__ is ParsedFrame
                  else parse_frame(parsed) for parsed in frames]
        n = len(frames)
        nu = 0
        two_branch = self.two_branch
        if two_branch:
            for parsed in frames:
                if parsed.eth.vlan is None:
                    nu += 1
        nt = n - nu
        first = True
        for hop in self.hops:
            if first:
                first = False
            else:
                hop.dp.rx_packets += n
                table = hop.table
                table.lookups += n
                table.matches += n
                entry = hop.entry
                entry.packets += n
                entry.bytes += nbytes + nt * hop.in_dt + nu * hop.in_du
            out_bytes = nbytes + nt * hop.out_dt + nu * hop.out_du
            port = hop.out_port
            port.tx_packets += n
            port.tx_bytes += out_bytes
            link = hop.link
            if link is not None:
                link.carried += n
                far = hop.far_port
                far.rx_packets += n
                far.rx_bytes += out_bytes
        # Tail-hop arrival bookkeeping (the prefix's last link segment
        # settled the far port's rx above).
        self.dp.rx_packets += n
        table = self.table
        table.lookups += n
        table.matches += n
        entry = self.entry
        entry.packets += n
        entry.bytes += nbytes + nt * self.in_dt + nu * self.in_du
        # Per-frame replica pick, in arrival order; buckets keep
        # insertion order, so per-replica egress order matches the
        # per-hop queues exactly.
        ports = self.ports
        seeds = self.seeds
        state = self.state
        out_dt = self.out_dt
        out_du = self.out_du
        buckets: dict = {}
        if state is None:
            for parsed in frames:
                out = rendezvous_select(ports, flow_hash(parsed), seeds)
                size = parsed.wire_len + (
                    out_dt if not two_branch or parsed.eth.vlan is not None
                    else out_du)
                acc = buckets.get(out)
                if acc is None:
                    buckets[out] = [[parsed], size]
                else:
                    acc[0].append(parsed)
                    acc[1] += size
        else:
            port_set = self.port_set
            for parsed in frames:
                out = state.steer(parsed, ports, port_set, seeds)
                size = parsed.wire_len + (
                    out_dt if not two_branch or parsed.eth.vlan is not None
                    else out_du)
                acc = buckets.get(out)
                if acc is None:
                    buckets[out] = [[parsed], size]
                else:
                    acc[0].append(parsed)
                    acc[1] += size
        splice = self.splice
        replicas = self.replicas
        for out, (bucket, bucket_bytes) in buckets.items():
            port, device = replicas[out]
            port.tx_packets += len(bucket)
            port.tx_bytes += bucket_bytes
            if device is None:  # counting sink
                continue
            if splice is None:
                device.transmit_batch([parsed.eth for parsed in bucket])
            else:
                device.transmit_batch([splice(parsed.eth)
                                       for parsed in bucket])


def _ingress_branches(vlan_vid: Optional[int]) -> list[list]:
    """Symbolic VLAN state(s) admitted by the ingress match.

    Branch = ``[tagged, vid, delta]``; when two branches exist the
    first is always the initially-tagged one (run-time classification
    keys on ``eth.vlan is None``).
    """
    if vlan_vid is None:
        return [[True, _UNKNOWN, 0], [False, None, 0]]
    if vlan_vid == ANY_VLAN:
        return [[True, _UNKNOWN, 0]]
    if vlan_vid == NO_VLAN:
        return [[False, None, 0]]
    return [[True, vlan_vid, 0]]


def _resolve_next(table: FlowTable, in_port: int,
                  branches: list[list]) -> Optional[FlowEntry]:
    """The unique frame-independent winner of the far table's lookup.

    Walks the priority-sorted entries once; an entry is the winner for
    a branch when it is the first one compatible with ``(in_port,
    vlan-state)``.  Any compatible candidate that also matches frame
    fields (not ``_port_vlan_only``), an undecidable comparison
    (unknown tagged vid vs a concrete match), a branch with no winner
    (table miss), or branches disagreeing on the winner → ``None``.
    """
    winners: list = [None] * len(branches)
    unassigned = len(branches)
    for entry in table:
        match = entry.match
        want_port = match.in_port
        if want_port is not None and want_port != in_port:
            continue
        want_vid = match.vlan_vid
        pending = []
        for index, branch in enumerate(branches):
            if winners[index] is not None:
                continue
            tagged, vid = branch[0], branch[1]
            if want_vid is None:
                ok = True
            elif want_vid == NO_VLAN:
                ok = not tagged
            elif want_vid == ANY_VLAN:
                ok = tagged
            elif not tagged:
                ok = False
            elif vid is _UNKNOWN:
                return None
            else:
                ok = vid == want_vid
            if ok:
                pending.append(index)
        if not pending:
            continue
        if not match._port_vlan_only:
            return None
        for index in pending:
            winners[index] = entry
        unassigned -= len(pending)
        if not unassigned:
            break
    if unassigned:
        return None
    first = winners[0]
    for winner in winners:
        if winner is not first:
            return None
    return first


class FusionEngine:
    """Per-datapath fusion state: tracing, caching, counters.

    An engine traces chains whose *ingress* is its datapath; programs
    are cached on the ingress :class:`FlowEntry` (``entry.fused``).
    Failed traces are negative-cached with the engine's ``epoch`` —
    :meth:`invalidate` bumps it, so a steering-level change retries
    every trace while per-frame cost for unfuseable entries stays at
    one attribute read and an int compare.
    """

    __slots__ = ("dp", "epoch", "dispatch", "hits", "misses",
                 "dispatch_hits", "dispatch_misses", "invalidations",
                 "programs_built", "cookie_stats")

    def __init__(self, dp) -> None:
        self.dp = dp
        self.epoch = 1
        #: ``in_port -> {vlan-state -> [version, entry, program]}``
        #: dispatch slots.  ``vlan-state`` is the frame's tag state
        #: (concrete vid or ``None``).  A slot whose version is stale
        #: is rebuilt by :meth:`build_slot`; ``entry is None`` marks a
        #: negative slot (the slice cannot be dispatched at this table
        #: version) and sends frames down the normal lookup path.
        self.dispatch: dict = {}
        #: Frames delivered through fused programs.
        self.hits = 0
        #: Matched frames that took the per-hop path while fusion was
        #: engaged for the batch (unfuseable entries and fallbacks).
        self.misses = 0
        #: Matched frames that skipped the ingress ``FlowTable`` walk
        #: entirely via a live dispatch slot / matched frames that ran
        #: the lookup while dispatch was engaged.  Cumulative, like
        #: every other telemetry counter; :meth:`invalidate` tears the
        #: dispatch *table* down but never rewinds these.
        self.dispatch_hits = 0
        self.dispatch_misses = 0
        #: Fused programs dropped — proactive (steering invalidate) or
        #: reactive (flush-time validity failure → per-hop fallback).
        self.invalidations = 0
        self.programs_built = 0
        #: Per-cookie attribution: ``cookie -> [hits, misses,
        #: dispatch_hits, dispatch_misses]`` (cookie-0 entries are not
        #: counted).  Chains that fuse at node-ingress LSI-0 never touch
        #: their graph LSI's engine, so this is how a graph's share of
        #: LSI-0 traffic is recovered — every flow entry of graph ``g``
        #: carries ``g``'s cookie.
        self.cookie_stats: dict = {}

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "dispatch-hits": self.dispatch_hits,
                "dispatch-misses": self.dispatch_misses,
                "invalidations": self.invalidations,
                "programs-built": self.programs_built}

    def stats_for_cookie(self, cookie: int) -> dict:
        """One graph's share of this engine's fused/dispatch traffic
        (zeroes when nothing arrived)."""
        totals = self.cookie_stats.get(cookie)
        if totals is None:
            return {"hits": 0, "misses": 0,
                    "dispatch-hits": 0, "dispatch-misses": 0}
        return {"hits": totals[0], "misses": totals[1],
                "dispatch-hits": totals[2], "dispatch-misses": totals[3]}

    def invalidate(self) -> int:
        """Drop every cached program/verdict traced from this LSI's
        entries, and the whole dispatch table with them; returns how
        many live programs went.  Bumping the epoch also retires
        negative caches, so entries re-trace against the post-change
        rule set."""
        self.epoch += 1
        self.dispatch.clear()
        dropped = 0
        for entry in self.dp.table:
            slots = entry.dispatch
            if slots:
                # A batch loop that hoisted a per-port slot dict before
                # this invalidation ran (packet-in handler mid-batch)
                # still holds these slots; stamp them stale so not one
                # more frame dispatches through them.
                for slot in slots:
                    slot[0] = -1
                    slot[1] = None
                    slot[2] = None
                del slots[:]
            cached = entry.fused
            if cached is not None:
                if type(cached) is not int:
                    dropped += 1
                entry.fused = None
        self.invalidations += dropped
        if dropped:
            tracer = self.dp.tracer
            if tracer is not None:
                # Live programs were torn down: feed the invalidation-
                # storm detector (deploy-time invalidates with nothing
                # cached don't count — no live work was lost).
                tracer.note_invalidation(self.dp.name, dropped)
        return dropped

    def build_slot(self, port_dispatch: dict, in_port: int,
                   vlan: Optional[int]) -> list:
        """(Re)build the dispatch slot of one ``(in_port, vlan)`` slice.

        Called from the batch ingress loop when a slice has no slot or
        its version stamp went stale.  Resolves the slice's frame-
        independent winner, traces it if needed, and installs a
        ``[version, entry, program]`` slot — positive only when the
        winner exists *and* fused, negative otherwise.  Positive slots
        register on ``entry.dispatch`` so reactive teardown reaches
        them without scanning the table.
        """
        table = self.dp.table
        slot = [table.version, None, None]
        entry = table.slice_winner(in_port, vlan)
        if entry is not None:
            program = entry.fused
            if type(program) is int:
                program = None if program != self.epoch else program
            if program is None:
                program = self.trace(entry)
            if type(program) is not int:
                slot[1] = entry
                slot[2] = program
                entry.dispatch.append(slot)
        port_dispatch[vlan] = slot
        return slot

    def trace(self, entry: FlowEntry):
        """Trace from ``entry`` and cache the outcome on it: a
        :class:`FusedChain`, or the current epoch (not fuseable)."""
        program = self._trace(entry)
        if program is None:
            result = self.epoch
        else:
            self.programs_built += 1
            result = program
        entry.fused = result
        return result

    def _trace(self, entry: FlowEntry) -> Optional[FusedChain]:
        dp = self.dp
        branches = _ingress_branches(entry.match.vlan_vid)
        kwargs: dict = {}
        hops: list[_Hop] = []
        seen: set = set()
        in_dt = in_du = 0
        while True:
            if len(hops) >= MAX_CHAIN_DEPTH:
                return None
            key = (id(dp), entry.entry_id)
            if key in seen:  # cycle
                return None
            seen.add(key)
            if dp.taps:
                return None
            actions = entry.actions
            if not actions:  # drop rule
                return None
            last = actions[-1]
            tail_select: Optional[SelectOutput] = None
            kind = type(last)
            if kind is Output:
                out_no = last.port
            elif kind is SelectOutput:
                if len(last.ports) == 1:
                    # Degenerate spread: the compiled form is a plain
                    # output (run_select_one), treat it the same here.
                    out_no = last.ports[0]
                elif hops:
                    tail_select = last
                    out_no = None
                else:
                    # A spread at the chain ingress is a single-hop
                    # "chain" — already optimal per-hop.
                    return None
            else:
                return None
            if tail_select is None:
                if out_no == FLOOD_PORT:
                    return None
                port = dp.ports.get(out_no)
                if port is None:
                    return None
            for action in actions[:-1]:
                kind = type(action)
                if kind is PushVlan:
                    if not 0 <= action.pcp <= 7:
                        # The frame constructor would reject it; the
                        # per-hop path must keep raising per frame.
                        return None
                    for branch in branches:
                        if not branch[0]:
                            branch[2] += _TAG_BYTES
                        branch[0] = True
                        branch[1] = action.vid
                    kwargs["vlan"] = action.vid
                    kwargs["vlan_pcp"] = action.pcp
                elif kind is PopVlan:
                    for branch in branches:
                        if not branch[0]:  # would be an action error
                            return None
                        branch[2] -= _TAG_BYTES
                        branch[0] = False
                        branch[1] = None
                    kwargs["vlan"] = None
                    kwargs["vlan_pcp"] = 0
                elif kind is SetField:
                    field = action.field
                    if field == "vlan_vid":
                        vid = int(action.value)
                        if not 0 <= vid <= 0xFFF:
                            # Out-of-range retag: the per-frame replace
                            # raises in the constructor; stay per-hop.
                            return None
                        for branch in branches:
                            if not branch[0]:
                                return None
                            branch[1] = vid
                        kwargs["vlan"] = vid
                    elif field == "eth_src":
                        kwargs["src"] = MacAddress(action.value)
                    else:
                        kwargs["dst"] = MacAddress(action.value)
                else:  # Controller / SelectOutput / extra Output
                    return None
            if tail_select is not None:
                return self._finish_select(dp, entry, tail_select,
                                           branches, in_dt, in_du,
                                           hops, kwargs)
            hop = _Hop()
            hop.dp = dp
            hop.table = dp.table
            hop.version = dp.table.version
            hop.entry = entry
            hop.compiled = entry.compiled
            hop.in_dt, hop.in_du = in_dt, in_du
            hop.out_no = out_no
            hop.out_port = port
            hop.out_dt = branches[0][2]
            hop.out_du = branches[-1][2]
            hop.link = None
            hop.far_port = None
            hop.far_dp = None
            hops.append(hop)
            link = port.peer_link
            if link is None:
                break  # terminal: device egress or counting sink
            far = link._far(port)
            if far is None or far.datapath is None:
                return None
            hop.link = link
            hop.far_port = far
            hop.far_dp = far.datapath
            next_entry = _resolve_next(far.datapath.table, far.port_no,
                                       branches)
            if next_entry is None:
                return None
            in_dt, in_du = hop.out_dt, hop.out_du
            dp = far.datapath
            entry = next_entry
        if len(hops) < 2:
            # Single-hop "chains" are already optimal on the per-hop
            # path (the fast_out specialization); fusing them would
            # only add bookkeeping.
            return None
        if not _splice_fields_valid(kwargs):
            return None
        two_branch = any(hop.in_dt != hop.in_du or hop.out_dt != hop.out_du
                         for hop in hops)
        return FusedChain(hops, kwargs, two_branch)

    def _finish_select(self, dp, entry: FlowEntry, select: SelectOutput,
                       branches: list[list], in_dt: int, in_du: int,
                       hops: list[_Hop],
                       kwargs: dict) -> Optional[FusedSelectChain]:
        """Lower a select-terminated trace into a
        :class:`FusedSelectChain`, or bail (``None``) when the tail
        cannot be replicated exactly.

        Bails when: any replica port is missing, is FLOOD, or leads to
        a virtual link (the tail delivers straight to devices/sinks —
        a linked replica would need its own downstream trace *per
        frame*); or the composed rewrite touches MAC fields (non-IPv4
        frames hash their L2 conversation, so a MAC rewrite upstream
        changes the flow hash the per-hop path would compute at the
        select hop — not reproducible from the ingress parse).
        """
        if "src" in kwargs or "dst" in kwargs:
            return None
        if not _splice_fields_valid(kwargs):
            return None
        replicas: dict = {}
        for out_no in select.ports:
            if out_no == FLOOD_PORT:
                return None
            port = dp.ports.get(out_no)
            if port is None or port.peer_link is not None:
                return None
            replicas[out_no] = (port, port.device)
        group = select.group
        state = dp.flow_state.table(group) if group is not None else None
        out_dt, out_du = branches[0][2], branches[-1][2]
        two_branch = (any(hop.in_dt != hop.in_du
                          or hop.out_dt != hop.out_du for hop in hops)
                      or in_dt != in_du or out_dt != out_du)
        return FusedSelectChain(hops, kwargs, two_branch, dp, entry,
                                in_dt, in_du, out_dt, out_du, select,
                                state, replicas)
