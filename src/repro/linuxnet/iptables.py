"""iptables: filter/nat/mangle tables, builtin + user chains, targets.

This is the rules engine; :mod:`repro.linuxnet.cmdline` parses
``iptables ...`` command strings (what the NNF plugin "scripts" emit)
into these objects.

Semantics follow netfilter:

* the ``nat`` table sees only the first packet of a connection (NEW);
  translations are recorded in conntrack and replayed for the rest of
  the flow in both directions;
* ``MARK``/``CONNMARK``/``LOG`` are non-terminating targets;
* user-defined chains are reached with jumps, ``RETURN`` resumes the
  caller, and exhausting a user chain falls back to the caller too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from repro.linuxnet.conntrack import ConnState
from repro.net.addresses import compile_cidr, ip_to_int

if TYPE_CHECKING:  # pragma: no cover
    from repro.linuxnet.namespace import SkBuff

__all__ = [
    "BUILTIN_CHAINS",
    "Chain",
    "IptablesError",
    "Match",
    "Rule",
    "Ruleset",
    "Table",
    "Verdict",
]


class IptablesError(Exception):
    """Bad table/chain/rule manipulation."""


class Verdict:
    ACCEPT = "ACCEPT"
    DROP = "DROP"
    RETURN = "RETURN"
    CONTINUE = "CONTINUE"  # internal: fell off the end of a user chain


#: Which builtin chains each table owns (netfilter layout).
BUILTIN_CHAINS: dict[str, tuple[str, ...]] = {
    "filter": ("INPUT", "FORWARD", "OUTPUT"),
    "nat": ("PREROUTING", "INPUT", "OUTPUT", "POSTROUTING"),
    "mangle": ("PREROUTING", "INPUT", "FORWARD", "OUTPUT", "POSTROUTING"),
}

#: Targets that do not stop rule traversal.
_NON_TERMINATING = {"MARK", "CONNMARK", "LOG"}


@dataclass
class Match:
    """Rule match criteria; ``None`` fields are wildcards."""

    in_iface: Optional[str] = None
    out_iface: Optional[str] = None
    src: Optional[str] = None            # CIDR
    dst: Optional[str] = None            # CIDR
    proto: Optional[int] = None
    sport: Optional[tuple[int, int]] = None   # inclusive range
    dport: Optional[tuple[int, int]] = None
    mark: Optional[tuple[int, int]] = None    # (value, mask)
    ctstate: Optional[frozenset[ConnState]] = None
    invert_src: bool = False
    invert_dst: bool = False
    # (network >> shift, shift) of src/dst; compiled once, hits() only shifts
    _src: Optional[tuple[int, int]] = field(init=False, repr=False,
                                            compare=False, default=None)
    _dst: Optional[tuple[int, int]] = field(init=False, repr=False,
                                            compare=False, default=None)

    def __post_init__(self) -> None:
        if self.src is not None:
            self._src = compile_cidr(self.src)
        if self.dst is not None:
            self._dst = compile_cidr(self.dst)

    def hits(self, skb: "SkBuff") -> bool:
        if self.in_iface is not None and skb.in_iface != self.in_iface:
            return False
        if self.out_iface is not None and skb.out_iface != self.out_iface:
            return False
        if skb.ipv4 is None:
            return False
        if self._src is not None:
            network, shift = self._src
            if ((ip_to_int(skb.ipv4.src) >> shift == network)
                    == self.invert_src):
                return False
        if self._dst is not None:
            network, shift = self._dst
            if ((ip_to_int(skb.ipv4.dst) >> shift == network)
                    == self.invert_dst):
                return False
        if self.proto is not None and skb.ipv4.proto != self.proto:
            return False
        if self.sport is not None:
            if skb.sport is None or not (
                    self.sport[0] <= skb.sport <= self.sport[1]):
                return False
        if self.dport is not None:
            if skb.dport is None or not (
                    self.dport[0] <= skb.dport <= self.dport[1]):
                return False
        if self.mark is not None:
            value, mask = self.mark
            if (skb.mark & mask) != (value & mask):
                return False
        if self.ctstate is not None:
            if skb.ct_entry is None:
                return False
            # netfilter semantics: any reply-direction packet belongs to
            # an ESTABLISHED connection; the first orig packet is NEW.
            if skb.ct_direction == "reply":
                state = ConnState.ESTABLISHED
            elif skb.ct_is_new:
                state = ConnState.NEW
            else:
                state = skb.ct_entry.state
            if state not in self.ctstate:
                return False
        return True


@dataclass
class Rule:
    """One iptables rule: match criteria plus a target.

    ``target`` is a chain name for jumps or a special target; special
    targets take keyword arguments in ``target_args`` (e.g.
    ``{"to_ip": "1.2.3.4", "to_port": 8080}`` for DNAT, or
    ``{"set_mark": 7, "mask": 0xffffffff}`` for MARK).
    """

    match: Match
    target: str
    target_args: dict = field(default_factory=dict)
    comment: str = ""
    packets: int = 0
    bytes: int = 0

    def spec(self) -> str:
        """Human-readable one-line form (for ``iptables -L`` output)."""
        parts = []
        m = self.match
        if m.in_iface:
            parts.append(f"-i {m.in_iface}")
        if m.out_iface:
            parts.append(f"-o {m.out_iface}")
        if m.src:
            parts.append(f"{'! ' if m.invert_src else ''}-s {m.src}")
        if m.dst:
            parts.append(f"{'! ' if m.invert_dst else ''}-d {m.dst}")
        if m.proto is not None:
            parts.append(f"-p {m.proto}")
        if m.sport:
            parts.append(f"--sport {m.sport[0]}:{m.sport[1]}")
        if m.dport:
            parts.append(f"--dport {m.dport[0]}:{m.dport[1]}")
        if m.mark:
            parts.append(f"-m mark --mark {m.mark[0]:#x}/{m.mark[1]:#x}")
        if m.ctstate:
            states = ",".join(sorted(s.value for s in m.ctstate))
            parts.append(f"-m conntrack --ctstate {states}")
        parts.append(f"-j {self.target}")
        for key, value in sorted(self.target_args.items()):
            parts.append(f"{key}={value}")
        return " ".join(parts)


class Chain:
    def __init__(self, name: str, builtin: bool, policy: str = Verdict.ACCEPT):
        self.name = name
        self.builtin = builtin
        self.policy = policy
        self.rules: list[Rule] = []

    def append(self, rule: Rule) -> None:
        self.rules.append(rule)

    def insert(self, index: int, rule: Rule) -> None:
        self.rules.insert(index, rule)

    def delete(self, index: int) -> Rule:
        try:
            return self.rules.pop(index)
        except IndexError:
            raise IptablesError(
                f"chain {self.name} has no rule #{index}") from None

    def flush(self) -> None:
        self.rules.clear()


class Table:
    def __init__(self, name: str) -> None:
        if name not in BUILTIN_CHAINS:
            raise IptablesError(f"unknown table {name!r}")
        self.name = name
        self.chains: dict[str, Chain] = {
            chain: Chain(chain, builtin=True)
            for chain in BUILTIN_CHAINS[name]
        }

    def chain(self, name: str) -> Chain:
        try:
            return self.chains[name]
        except KeyError:
            raise IptablesError(
                f"table {self.name} has no chain {name!r}") from None

    def new_chain(self, name: str) -> Chain:
        if name in self.chains:
            raise IptablesError(f"chain {name!r} already exists")
        chain = Chain(name, builtin=False)
        self.chains[name] = chain
        return chain

    def delete_chain(self, name: str) -> None:
        chain = self.chain(name)
        if chain.builtin:
            raise IptablesError(f"cannot delete builtin chain {name!r}")
        if chain.rules:
            raise IptablesError(f"chain {name!r} is not empty")
        for other in self.chains.values():
            for rule in other.rules:
                if rule.target == name:
                    raise IptablesError(f"chain {name!r} is referenced")
        del self.chains[name]


class Ruleset:
    """All tables of one namespace, plus the traversal engine."""

    def __init__(self) -> None:
        self.tables: dict[str, Table] = {
            name: Table(name) for name in BUILTIN_CHAINS
        }

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise IptablesError(f"unknown table {name!r}") from None

    def append(self, table: str, chain: str, rule: Rule) -> None:
        self.table(table).chain(chain).append(rule)

    def traverse(self, table_name: str, chain_name: str,
                 skb: "SkBuff") -> str:
        """Run ``skb`` through a hook chain; returns ACCEPT or DROP.

        Jump depth is bounded to catch accidental rule cycles in plugin
        scripts (netfilter bounds it too).
        """
        table = self.table(table_name)
        verdict = self._walk(table, table.chain(chain_name), skb, depth=0)
        if verdict in (Verdict.RETURN, Verdict.CONTINUE):
            return table.chain(chain_name).policy
        return verdict

    def _walk(self, table: Table, chain: Chain, skb: "SkBuff",
              depth: int) -> str:
        if depth > 16:
            raise IptablesError(
                f"jump depth exceeded in table {table.name}")
        for rule in chain.rules:
            if not rule.match.hits(skb):
                continue
            rule.packets += 1
            rule.bytes += skb.ipv4.total_length if skb.ipv4 else 0
            verdict = self._apply_target(table, rule, skb, depth)
            if verdict == Verdict.CONTINUE:
                continue
            return verdict
        return Verdict.CONTINUE if not chain.builtin else chain.policy

    def _apply_target(self, table: Table, rule: Rule, skb: "SkBuff",
                      depth: int) -> str:
        target = rule.target
        args = rule.target_args
        if target in (Verdict.ACCEPT, Verdict.DROP, Verdict.RETURN):
            return target
        if target == "MARK":
            mask = args.get("mask", 0xFFFFFFFF)
            skb.mark = (skb.mark & ~mask) | (args["set_mark"] & mask)
            return Verdict.CONTINUE
        if target == "CONNMARK":
            op = args.get("op", "set")
            if skb.ct_entry is None:
                return Verdict.CONTINUE
            if op == "set":
                skb.ct_entry.mark = args["set_mark"]
            elif op == "save":
                skb.ct_entry.mark = skb.mark
            elif op == "restore":
                skb.mark = skb.ct_entry.mark
            else:
                raise IptablesError(f"unknown CONNMARK op {op!r}")
            return Verdict.CONTINUE
        if target == "LOG":
            return Verdict.CONTINUE
        if target == "SNAT":
            if table.name != "nat":
                raise IptablesError("SNAT only valid in the nat table")
            if skb.ct_entry is not None:
                skb.ct_entry.snat = (args["to_ip"],
                                     args.get("to_port", 0))
            return Verdict.ACCEPT
        if target == "DNAT":
            if table.name != "nat":
                raise IptablesError("DNAT only valid in the nat table")
            if skb.ct_entry is not None:
                skb.ct_entry.dnat = (args["to_ip"],
                                     args.get("to_port", 0))
            return Verdict.ACCEPT
        if target == "MASQUERADE":
            if table.name != "nat":
                raise IptablesError("MASQUERADE only valid in the nat table")
            if skb.ct_entry is not None and skb.out_device is not None:
                if not skb.out_device.addresses:
                    raise IptablesError(
                        f"MASQUERADE: {skb.out_device.name} has no address")
                nat_ip = skb.out_device.addresses[0][0]
                skb.ct_entry.snat = (nat_ip, 0)
            return Verdict.ACCEPT
        # Anything else is a jump to a user chain.
        user_chain = table.chain(target)
        verdict = self._walk(table, user_chain, skb, depth + 1)
        if verdict in (Verdict.RETURN, Verdict.CONTINUE):
            return Verdict.CONTINUE
        return verdict

    # -- inspection --------------------------------------------------------
    def list_rules(self, table_name: str) -> list[str]:
        """``iptables -S``-style dump of one table."""
        table = self.table(table_name)
        lines = []
        for chain in table.chains.values():
            if chain.builtin:
                lines.append(f"-P {chain.name} {chain.policy}")
            else:
                lines.append(f"-N {chain.name}")
        for chain in table.chains.values():
            for rule in chain.rules:
                lines.append(f"-A {chain.name} {rule.spec()}")
        return lines
