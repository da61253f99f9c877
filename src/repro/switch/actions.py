"""Flow-entry actions: output, VLAN tag manipulation, header rewrites.

Actions are applied in sequence to a frame; an action list with no
Output action drops the packet (OpenFlow semantics).

Two execution forms exist:

* **Interpreted** — :meth:`~repro.switch.datapath.Datapath.execute_interpreted`
  walks the action list per frame, dispatching on each action's type.
  This is the reference semantics and the baseline the perf sweep
  measures against.
* **Compiled** — :func:`compile_actions` specializes an action list
  *once* into a single fused closure.  The hot steering shapes
  (``Output``, ``PushVlan+Output``, ``PopVlan+Output``,
  ``PopVlan+PushVlan+Output``) collapse to straight-line code with at
  most one frame copy; anything else falls back to a pre-dispatched
  opcode loop that never touches ``isinstance`` per frame.
  :class:`~repro.switch.flowtable.FlowEntry` compiles its list at
  construction and caches the closure, so the datapath executes one
  call per frame.

A compiled program is bound to the exact action tuple it was built
from; see :meth:`FlowEntry.invalidate` for the (rare) rebinding case.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence, Union

from repro.net.addresses import MacAddress
from repro.net.builder import ParsedFrame, parse_frame
from repro.net.ethernet import EthernetFrame

__all__ = ["Action", "ActionError", "CompiledActions", "Controller",
           "EmitFn", "FLOOD_PORT", "Output", "PopVlan", "PushVlan",
           "SelectOutput", "SetField", "compile_actions", "flow_hash",
           "flow_key", "hoisted_select", "rendezvous_select",
           "resolve_select"]

#: Pseudo port number: send to every port except ingress.
FLOOD_PORT = 0xFFFB
#: Pseudo port number: punt to the OpenFlow controller.
CONTROLLER_PORT = 0xFFFD


class ActionError(Exception):
    """Invalid action application (e.g. pop on an untagged frame)."""


@dataclass(frozen=True)
class Output:
    """Emit the frame on a port (or FLOOD)."""

    port: int

    def __str__(self) -> str:
        return "output:FLOOD" if self.port == FLOOD_PORT \
            else f"output:{self.port}"


@dataclass(frozen=True)
class Controller:
    """Punt the frame to the controller (packet-in)."""

    max_len: int = 128

    def __str__(self) -> str:
        return "output:CONTROLLER"


@dataclass(frozen=True)
class PushVlan:
    """Tag the frame; the traffic-marking primitive of the adaptation layer."""

    vid: int
    pcp: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.vid <= 4095:
            raise ValueError(f"bad VLAN id {self.vid}")

    def apply(self, frame: EthernetFrame) -> EthernetFrame:
        return frame.with_vlan(self.vid, self.pcp)

    def __str__(self) -> str:
        return f"push_vlan:{self.vid}"


@dataclass(frozen=True)
class PopVlan:
    """Strip the outer VLAN tag."""

    def apply(self, frame: EthernetFrame) -> EthernetFrame:
        if frame.vlan is None:
            raise ActionError("pop_vlan on an untagged frame")
        return frame.without_vlan()

    def __str__(self) -> str:
        return "pop_vlan"


#: 32-bit golden-ratio multiplier (Knuth); the per-step mixer of
#: :func:`flow_hash`.
_HASH_MULT = 0x9E3779B1


def flow_hash(parsed: ParsedFrame) -> int:
    """Deterministic 5-tuple hash of a parsed frame.

    Reads the :class:`~repro.net.builder.ParsedFrame`'s cached views —
    ``ip_ints`` for the addresses, the lazy UDP/TCP decode for the
    ports — so on the batched pipeline (which carries the parse across
    every hop) hashing a frame costs a few integer multiplies and **no
    parsing**.  The value is a pure function of (src, dst, proto,
    sport, dport): every frame of one flow hashes identically in both
    directions of the pipeline and across process restarts (no
    ``hash()`` randomization).  Non-IPv4 frames (ARP, raw L2) hash
    their (src MAC, dst MAC, ethertype): every L2 conversation gets a
    stable value of its own instead of all collapsing to 0 — so
    L2-only traffic both spreads across a replica group *and* keeps
    per-conversation affinity.  Never raises, whatever the payload.
    """
    ints = parsed.ip_ints
    if ints is None:
        eth = parsed.eth
        h = ((int(eth.src) * _HASH_MULT) ^ int(eth.dst)) & 0xFFFFFFFF
        h = ((h * _HASH_MULT) ^ eth.ethertype) & 0xFFFFFFFF
        h = (h * _HASH_MULT) & 0xFFFFFFFF
        return (h ^ (h >> 16)) & 0xFFFF
    h = ((ints[0] * _HASH_MULT) ^ ints[1]) & 0xFFFFFFFF
    h = ((h * _HASH_MULT) ^ parsed.ipv4.proto) & 0xFFFFFFFF
    udp = parsed.udp
    if udp is not None:
        l4 = (udp.src_port << 16) | udp.dst_port
    else:
        tcp = parsed.tcp
        l4 = ((tcp.src_port << 16) | tcp.dst_port) if tcp is not None else 0
    h = ((h ^ l4) * _HASH_MULT) & 0xFFFFFFFF
    # Small replica counts read few bits; finish with a fold so every
    # bit carries entropy from the whole word.
    return (h ^ (h >> 16)) & 0xFFFF


def flow_key(parsed: ParsedFrame) -> tuple:
    """Exact flow identity of a frame (state-table key).

    Where :func:`flow_hash` folds the flow down to 16 bits for the
    rendezvous weights, the *state* table needs collision-free
    identity: a hash collision between two flows must never glue their
    connection state together.  IPv4 frames key on the full 5-tuple
    ints; everything else keys on the L2 conversation (src MAC, dst
    MAC, ethertype).  Pure function of the frame, never raises.
    """
    ints = parsed.ip_ints
    if ints is None:
        eth = parsed.eth
        return (int(eth.src), int(eth.dst), eth.ethertype)
    udp = parsed.udp
    if udp is not None:
        l4 = (udp.src_port << 16) | udp.dst_port
    else:
        tcp = parsed.tcp
        l4 = ((tcp.src_port << 16) | tcp.dst_port) if tcp is not None else 0
    return (ints[0], ints[1], parsed.ipv4.proto, l4)


def _port_seed(port: int) -> int:
    """Per-port rendezvous seed: a 32-bit avalanche of the port number.

    Computed once per compiled program (or once per selection for the
    uncompiled reference path) — never per frame per port.
    """
    x = (port + 0x9E3779B9) & 0xFFFFFFFF
    x = ((x ^ (x >> 16)) * 0x85EBCA6B) & 0xFFFFFFFF
    x = ((x ^ (x >> 13)) * 0xC2B2AE35) & 0xFFFFFFFF
    return (x ^ (x >> 16)) & 0xFFFFFFFF


def rendezvous_select(ports: "tuple[int, ...]", flow: int,
                      seeds: "tuple[int, ...] | None" = None) -> int:
    """Highest-random-weight (rendezvous) port choice for a flow.

    Every (flow, port) pair gets an independent 32-bit weight; the
    port with the highest weight wins (ties break to the lowest port
    number, deterministically).  The defining property — what replaces
    the old ``ports[hash % N]`` — is *minimal churn*: adding a port
    moves exactly the flows the new port now wins (≈1/(N+1) of them),
    removing a port moves exactly the flows it owned (≈1/N), and every
    other flow keeps its port.  Pure integer arithmetic on
    :func:`flow_hash` output: deterministic across process restarts.

    ``seeds`` is the precomputed :func:`_port_seed` tuple aligned with
    ``ports``; hot paths pass it, one-shot callers may omit it.
    """
    if seeds is None:
        seeds = tuple(_port_seed(port) for port in ports)
    best = ports[0]
    x = (flow ^ seeds[0]) & 0xFFFFFFFF
    x = ((x ^ (x >> 16)) * 0x85EBCA6B) & 0xFFFFFFFF
    best_weight = (x ^ (x >> 13)) & 0xFFFFFFFF
    for i in range(1, len(ports)):
        x = (flow ^ seeds[i]) & 0xFFFFFFFF
        x = ((x ^ (x >> 16)) * 0x85EBCA6B) & 0xFFFFFFFF
        weight = (x ^ (x >> 13)) & 0xFFFFFFFF
        if weight > best_weight or (weight == best_weight
                                    and ports[i] < best):
            best_weight = weight
            best = ports[i]
    return best


def _carried_parse(dp: Any, frame: EthernetFrame) -> ParsedFrame:
    """The pipeline's parse of ``frame``, without re-parsing.

    Every datapath ingress path rebinds ``dp.carried[0]`` to the
    current frame's :class:`ParsedFrame` before actions run, so this
    is an attribute read plus an identity check.  A caller executing
    actions *outside* a pipeline pass (OpenFlow packet-out, direct
    ``execute`` in tests) has no carried parse and pays a one-off
    ``parse_frame`` — never the fast path.
    """
    cell = getattr(dp, "carried", None)
    if cell is not None:
        parsed = cell[0]
        if parsed is not None and parsed.eth is frame:
            return parsed
    return parse_frame(frame)


@dataclass(frozen=True)
class SelectOutput:
    """Hash-select one of several output ports (replica load balancing).

    The steering layer installs this on rules whose destination NF is a
    replica group: the frame leaves on the *rendezvous* winner of its
    flow hash over ``ports`` (:func:`rendezvous_select`), so every
    frame of one 5-tuple always takes the same port — *flow affinity* —
    and a stateful replica behind each port sees complete flows.  When
    the replica set changes, rendezvous hashing bounds the damage to
    ~1/N of flows (the old modulo remapped nearly all of them).

    ``group``, when set, names a per-flow *state table* on the
    executing datapath (:mod:`repro.switch.state`): established flows
    then stick to the replica that owns their state even across
    replica-set changes, not just across hash-stable ones.  The group
    id is codec-serializable (it rides the OpenFlow flow-mod) and is
    chosen by the steering layer to be stable across scale events —
    that stability is what carries ownership from one replica set to
    the next.
    """

    ports: tuple[int, ...]
    group: "str | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "ports", tuple(self.ports))
        if not self.ports:
            raise ValueError("select-output needs at least one port")

    def __str__(self) -> str:
        text = "select:" + "|".join(str(port) for port in self.ports)
        return text if self.group is None else f"{text}@{self.group}"


@dataclass(frozen=True)
class SetField:
    """Rewrite a header field (eth_src / eth_dst / vlan_vid)."""

    field: str
    value: "int | str | MacAddress"

    _ALLOWED = ("eth_src", "eth_dst", "vlan_vid")

    def __post_init__(self) -> None:
        if self.field not in self._ALLOWED:
            raise ValueError(f"unsupported set-field {self.field!r}; "
                             f"one of {self._ALLOWED}")

    def apply(self, frame: EthernetFrame) -> EthernetFrame:
        if self.field == "eth_src":
            return replace(frame, src=MacAddress(self.value))
        if self.field == "eth_dst":
            return replace(frame, dst=MacAddress(self.value))
        if frame.vlan is None:
            raise ActionError("set vlan_vid on an untagged frame")
        return replace(frame, vlan=int(self.value))

    def __str__(self) -> str:
        return f"set_{self.field}:{self.value}"


def resolve_select(dp: Any, action: SelectOutput,
                   parsed: ParsedFrame) -> int:
    """Reference semantics of :class:`SelectOutput` for one frame.

    The interpreted action loop (and anything else outside a compiled
    program) resolves the output port through here, so the compiled
    shapes have exactly one oracle: stateless selects are pure
    rendezvous over the flow hash; stateful selects (``group`` set)
    consult the executing datapath's per-flow state table
    (:mod:`repro.switch.state`).
    """
    if action.group is None:
        return rendezvous_select(action.ports, flow_hash(parsed))
    table = dp.flow_state.table(action.group)
    return table.steer(parsed, action.ports, frozenset(action.ports))


def hoisted_select(action: SelectOutput) -> tuple:
    """``(ports, seeds, port_set, group)`` of one SelectOutput, hoisted.

    Everything a per-frame replica pick needs that is derivable from
    the action alone: the port tuple, the aligned rendezvous seed
    tuple (:func:`_port_seed`), the frozen live-port set the stateful
    steer consults, and the state-group name.  Computed once — at
    compile time by :func:`_compile_select`, at trace time by the
    chain-fusion select tail (:mod:`repro.switch.fusion`) — so both
    consumers pick replicas from identical constants.
    """
    ports = action.ports
    return (ports, tuple(_port_seed(port) for port in ports),
            frozenset(ports), action.group)


def _compile_select(action: SelectOutput):
    """The per-frame port picker of one SelectOutput, constants hoisted.

    Returns ``pick(dp, parsed) -> port`` with everything derivable
    from the action (see :func:`hoisted_select`) computed here, once
    per install.  A stateful picker resolves its datapath's state
    table on first use and caches it (a compiled program only ever
    runs on the datapath whose table holds its entry).
    """
    ports, seeds, port_set, group = hoisted_select(action)
    if group is None:
        def pick(dp: Any, parsed: ParsedFrame) -> int:
            return rendezvous_select(ports, flow_hash(parsed), seeds)
        return pick
    cache: list = [None, None]

    def pick_stateful(dp: Any, parsed: ParsedFrame) -> int:
        if cache[0] is not dp:
            cache[0] = dp
            cache[1] = dp.flow_state.table(group)
        return cache[1].steer(parsed, ports, port_set, seeds)
    return pick_stateful


Action = Union[Output, Controller, PushVlan, PopVlan, SetField,
               SelectOutput]

#: ``emit(out_port, in_port, frame)`` — how a compiled program hands a
#: frame to the datapath's routing policy (FLOOD expansion, drops).
EmitFn = Callable[[int, int, EthernetFrame], None]

#: ``compiled(dp, in_port, frame, emit)`` — one call runs the whole
#: action list for one frame.  ``dp`` is duck-typed: the program only
#: touches ``packet_in_handler``, ``action_errors``, ``dropped`` and —
#: for hash-select programs — ``carried``, the two-slot
#: ``[ParsedFrame, wire_len]`` cell every datapath ingress path rebinds
#: to the current frame before actions run (see :func:`_carried_parse`).
#: Every compiled program carries a ``mutates`` attribute: True when the
#: list contains a frame transform (push/pop/set-field), i.e. when an
#: emitted frame can be a different object than the input frame.  The
#: batched pipeline dispatches on the tag: a non-mutating program always
#: emits the ingress frame itself, so it runs with a carry-only emit
#: that forwards the existing :class:`~repro.net.builder.ParsedFrame`
#: to the next hop without even an identity check (see
#: ``Datapath._batch_emit``).
CompiledActions = Callable[[Any, int, EthernetFrame, EmitFn], None]

# Opcodes of the generic (non-specialized) compiled program.
_OP_XFORM = 0   # arg: frame -> frame (may raise ActionError)
_OP_OUT = 1     # arg: output port number
_OP_CTRL = 2    # arg: unused (packet-in punt)
_OP_SELECT = 3  # arg: the SelectOutput action (rendezvous-select one port)


def _compile_transform(action: "PushVlan | PopVlan | SetField"):
    """One frame transform, specialized at compile time.

    Everything per-frame is reduced to a single ``replace``: VLAN ids
    and PCPs are closed over as ints, and — the point of this function —
    a :class:`SetField` MAC target is converted to a
    :class:`MacAddress` exactly once here, not once per frame inside
    ``SetField.apply``.
    """
    if isinstance(action, PushVlan):
        vid, pcp = action.vid, action.pcp

        def push(frame: EthernetFrame) -> EthernetFrame:
            return replace(frame, vlan=vid, vlan_pcp=pcp)
        return push
    if isinstance(action, PopVlan):
        def pop(frame: EthernetFrame) -> EthernetFrame:
            if frame.vlan is None:
                raise ActionError("pop_vlan on an untagged frame")
            return replace(frame, vlan=None, vlan_pcp=0)
        return pop
    if action.field == "eth_src":
        src_mac = MacAddress(action.value)

        def set_src(frame: EthernetFrame) -> EthernetFrame:
            return replace(frame, src=src_mac)
        return set_src
    if action.field == "eth_dst":
        dst_mac = MacAddress(action.value)

        def set_dst(frame: EthernetFrame) -> EthernetFrame:
            return replace(frame, dst=dst_mac)
        return set_dst
    new_vid = int(action.value)

    def set_vid(frame: EthernetFrame) -> EthernetFrame:
        if frame.vlan is None:
            raise ActionError("set vlan_vid on an untagged frame")
        return replace(frame, vlan=new_vid)
    return set_vid


def compile_actions(actions: Sequence[Action]) -> CompiledActions:
    """Compile an action list into a single fused per-frame closure.

    The returned program is semantically identical to interpreting the
    list: transforms apply left to right, an :class:`ActionError`
    increments ``dp.action_errors`` and aborts the rest of the list
    (frames already emitted stay emitted), and a list containing no
    Output/Controller counts the frame as dropped.  A property suite
    asserts this equivalence against
    :meth:`~repro.switch.datapath.Datapath.execute_interpreted` over
    random action lists and frames.

    Constant work happens here, not per frame: set-field targets (e.g.
    MAC addresses given as strings) are converted once, and the program
    is tagged with ``mutates`` (see :data:`CompiledActions`).

    Unknown action types fail here, at compile time, instead of on the
    first matching packet.
    """
    acts = tuple(actions)
    kinds = tuple(type(action) for action in acts)

    # Fused fast shapes — everything the steering layer emits
    # (see TrafficSteeringManager._install_rule) compiles to one of
    # these: straight-line code, at most one frame copy, no loop.
    if kinds == (Output,):
        out = acts[0].port

        def run_out(dp: Any, in_port: int, frame: EthernetFrame,
                    emit: EmitFn) -> None:
            emit(out, in_port, frame)
        run_out.mutates = False
        # Pure-output marker: the batched pipeline reads this to skip
        # the program call (and the carried-cell rebind) entirely and
        # enqueue the parsed frame straight on the port — the per-emit
        # specialization of chain hops (see Datapath.process_batch_from).
        run_out.out_port = out
        return run_out

    if kinds == (SelectOutput,):
        select_ports = acts[0].ports
        if len(select_ports) == 1:
            only = select_ports[0]

            def run_select_one(dp: Any, in_port: int, frame: EthernetFrame,
                               emit: EmitFn) -> None:
                emit(only, in_port, frame)
            run_select_one.mutates = False
            run_select_one.out_port = only
            return run_select_one
        pick = _compile_select(acts[0])

        def run_select(dp: Any, in_port: int, frame: EthernetFrame,
                       emit: EmitFn) -> None:
            emit(pick(dp, _carried_parse(dp, frame)), in_port, frame)
        run_select.mutates = False
        return run_select

    if kinds == (PopVlan, SelectOutput):
        # The LB tail of an inter-LSI segment: strip the internal tag,
        # rendezvous-spread across the replica ports.  The hash reads
        # the *carried* parse of the ingress frame — VLAN ops never
        # touch the 5-tuple, so affinity is computed before the copy.
        pick = _compile_select(acts[1])

        def run_pop_select(dp: Any, in_port: int, frame: EthernetFrame,
                           emit: EmitFn) -> None:
            if frame.vlan is None:
                dp.action_errors += 1
                return
            out = pick(dp, _carried_parse(dp, frame))
            emit(out, in_port, replace(frame, vlan=None, vlan_pcp=0))
        run_pop_select.mutates = True
        return run_pop_select

    if kinds == (PushVlan, Output):
        vid, pcp, out = acts[0].vid, acts[0].pcp, acts[1].port

        def run_push_out(dp: Any, in_port: int, frame: EthernetFrame,
                         emit: EmitFn) -> None:
            emit(out, in_port, replace(frame, vlan=vid, vlan_pcp=pcp))
        run_push_out.mutates = True
        return run_push_out

    if kinds == (PopVlan, Output):
        out = acts[1].port

        def run_pop_out(dp: Any, in_port: int, frame: EthernetFrame,
                        emit: EmitFn) -> None:
            if frame.vlan is None:
                dp.action_errors += 1
                return
            emit(out, in_port, replace(frame, vlan=None, vlan_pcp=0))
        run_pop_out.mutates = True
        return run_pop_out

    if kinds == (PopVlan, PushVlan, Output):
        # Retag: pop+push fuse into a single replace (one frame copy
        # instead of two) — the inter-LSI segment's exact shape.
        vid, pcp, out = acts[1].vid, acts[1].pcp, acts[2].port

        def run_retag_out(dp: Any, in_port: int, frame: EthernetFrame,
                          emit: EmitFn) -> None:
            if frame.vlan is None:
                dp.action_errors += 1
                return
            emit(out, in_port, replace(frame, vlan=vid, vlan_pcp=pcp))
        run_retag_out.mutates = True
        return run_retag_out

    if kinds == (SetField, PushVlan, Output) \
            and acts[0].field in ("eth_src", "eth_dst"):
        # MAC rewrite + tag fuse into one replace; the MacAddress target
        # is built here, once per install, never per frame.
        mac_kw = {"src" if acts[0].field == "eth_src" else "dst":
                  MacAddress(acts[0].value)}
        vid, pcp, out = acts[1].vid, acts[1].pcp, acts[2].port

        def run_setmac_push_out(dp: Any, in_port: int, frame: EthernetFrame,
                                emit: EmitFn) -> None:
            emit(out, in_port,
                 replace(frame, vlan=vid, vlan_pcp=pcp, **mac_kw))
        run_setmac_push_out.mutates = True
        return run_setmac_push_out

    # Generic program: dispatch resolved at compile time into small-int
    # opcodes; transforms are closures specialized per action (see
    # :func:`_compile_transform`).
    steps: list[tuple[int, Any]] = []
    emits = False
    mutates = False
    for action in acts:
        if isinstance(action, Output):
            steps.append((_OP_OUT, action.port))
            emits = True
        elif isinstance(action, Controller):
            steps.append((_OP_CTRL, None))
            emits = True
        elif isinstance(action, SelectOutput):
            steps.append((_OP_SELECT, _compile_select(action)))
            emits = True
        elif isinstance(action, (PushVlan, PopVlan, SetField)):
            steps.append((_OP_XFORM, _compile_transform(action)))
            mutates = True
        else:
            raise TypeError(f"unknown action {action!r}")
    program = tuple(steps)
    drops = not emits

    def run_generic(dp: Any, in_port: int, frame: EthernetFrame,
                    emit: EmitFn) -> None:
        current = frame
        for op, arg in program:
            if op == _OP_OUT:
                emit(arg, in_port, current)
            elif op == _OP_XFORM:
                try:
                    current = arg(current)
                except ActionError:
                    dp.action_errors += 1
                    return
            elif op == _OP_SELECT:
                # Hash on the *ingress* frame's parse: the transforms a
                # program may have applied are all L2-only, so the
                # 5-tuple is the carried one either way.
                parsed = _carried_parse(dp, frame)
                emit(arg(dp, parsed), in_port, current)
            else:
                handler = dp.packet_in_handler
                if handler is not None:
                    handler(dp, in_port, current)
        if drops:
            dp.dropped += 1
    run_generic.mutates = mutates
    return run_generic
