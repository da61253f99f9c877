"""Flow table matching, priority and modification semantics."""

import pytest

from repro.net import MacAddress, make_udp_frame, parse_frame
from repro.net.ethernet import ETHERTYPE_IPV4
from repro.switch import FlowEntry, FlowMatch, FlowTable, Output
from repro.switch.flowtable import ANY_VLAN, NO_VLAN

MAC_A = MacAddress("02:00:00:00:00:01")
MAC_B = MacAddress("02:00:00:00:00:02")


def parsed(vlan=None, src_ip="10.0.0.1", dst_ip="10.0.0.2",
           sport=1000, dport=2000):
    return parse_frame(make_udp_frame(MAC_A, MAC_B, src_ip, dst_ip,
                                      sport, dport, b"x", vlan=vlan))


def test_wildcard_matches_everything():
    assert FlowMatch().hits(1, parsed())
    assert FlowMatch().hits(99, parsed(vlan=7))


def test_field_matching():
    match = FlowMatch(in_port=3, eth_src=MAC_A, eth_type=ETHERTYPE_IPV4,
                      ip_dst="10.0.0.0/24", ip_proto=17, tp_dst=2000)
    assert match.hits(3, parsed())
    assert not match.hits(4, parsed())
    assert not match.hits(3, parsed(dst_ip="10.1.0.2"))
    assert not match.hits(3, parsed(dport=2001))


def test_vlan_three_way_semantics():
    tagged = parsed(vlan=42)
    untagged = parsed()
    assert FlowMatch(vlan_vid=42).hits(1, tagged)
    assert not FlowMatch(vlan_vid=42).hits(1, untagged)
    assert not FlowMatch(vlan_vid=43).hits(1, tagged)
    assert FlowMatch(vlan_vid=ANY_VLAN).hits(1, tagged)
    assert not FlowMatch(vlan_vid=ANY_VLAN).hits(1, untagged)
    assert FlowMatch(vlan_vid=NO_VLAN).hits(1, untagged)
    assert not FlowMatch(vlan_vid=NO_VLAN).hits(1, tagged)


def test_l3_match_requires_ipv4():
    from repro.net import EthernetFrame
    arp = parse_frame(EthernetFrame(dst=MAC_B, src=MAC_A, ethertype=0x0806,
                                    payload=b"arp"))
    assert not FlowMatch(ip_src="10.0.0.0/8").hits(1, arp)
    assert FlowMatch(eth_type=0x0806).hits(1, arp)


def test_priority_order():
    table = FlowTable()
    table.add(FlowEntry(match=FlowMatch(), actions=(Output(1),),
                        priority=1))
    table.add(FlowEntry(match=FlowMatch(ip_dst="10.0.0.2/32"),
                        actions=(Output(2),), priority=200))
    entry = table.lookup(1, parsed())
    assert entry.actions == (Output(2),)


def test_add_replaces_same_match_and_priority():
    table = FlowTable()
    match = FlowMatch(in_port=1)
    table.add(FlowEntry(match=match, actions=(Output(1),), priority=5))
    table.add(FlowEntry(match=match, actions=(Output(2),), priority=5))
    assert len(table) == 1
    assert table.lookup(1, parsed()).actions == (Output(2),)


def test_delete_by_cookie():
    table = FlowTable()
    table.add(FlowEntry(match=FlowMatch(in_port=1), actions=(),
                        cookie=0xAA))
    table.add(FlowEntry(match=FlowMatch(in_port=2), actions=(),
                        cookie=0xAA))
    table.add(FlowEntry(match=FlowMatch(in_port=3), actions=(),
                        cookie=0xBB))
    assert table.delete(cookie=0xAA) == 2
    assert len(table) == 1


def test_miss_returns_none_and_counts():
    table = FlowTable()
    table.add(FlowEntry(match=FlowMatch(in_port=5), actions=()))
    assert table.lookup(1, parsed()) is None
    assert table.lookups == 1
    assert table.matches == 0


def test_counters_accumulate():
    table = FlowTable()
    table.add(FlowEntry(match=FlowMatch(), actions=(Output(1),)))
    for _ in range(3):
        table.lookup(1, parsed())
    (entry,) = list(table)
    assert entry.packets == 3
    assert entry.bytes > 0


def test_bad_vlan_vid_rejected():
    with pytest.raises(ValueError):
        FlowMatch(vlan_vid=5000)


def test_bad_cidr_rejected_at_construction():
    with pytest.raises(ValueError):
        FlowMatch(ip_src="10.0.0.0/33")
    with pytest.raises(ValueError):
        FlowMatch(ip_dst="not-an-address")


def test_lookup_never_parses_cidr_strings(monkeypatch):
    """The fast path must be string-free: CIDRs compile at construction."""
    from repro.switch import flowtable as ft

    table = FlowTable()
    table.add(FlowEntry(match=FlowMatch(in_port=1, vlan_vid=7,
                                        ip_dst="10.0.0.0/24"),
                        actions=(Output(1),)))
    table.add(FlowEntry(match=FlowMatch(ip_src="10.0.0.0/8"),
                        actions=(Output(2),), priority=10))

    def explode(cidr):
        raise AssertionError(f"parse_cidr({cidr!r}) on the fast path")

    monkeypatch.setattr(ft, "parse_cidr", explode)
    assert table.lookup(1, parsed(vlan=7)) is not None
    assert table.lookup(2, parsed()) is not None
    assert table.lookup(2, parsed(src_ip="172.16.0.1")) is None


def test_exact_bucket_and_wildcards_merge_by_priority():
    table = FlowTable()
    exact = FlowEntry(match=FlowMatch(in_port=1, vlan_vid=5),
                      actions=(Output(1),), priority=50)
    port_wild = FlowEntry(match=FlowMatch(in_port=1),
                          actions=(Output(2),), priority=100)
    full_wild = FlowEntry(match=FlowMatch(), actions=(Output(3),),
                          priority=200)
    for entry in (exact, port_wild, full_wild):
        table.add(entry)
    # All three could match; the highest priority must win regardless of
    # which index level it lives at.
    assert table.lookup(1, parsed(vlan=5)) is full_wild
    table.delete(match=full_wild.match, priority=200, strict=True)
    assert table.lookup(1, parsed(vlan=5)) is port_wild
    table.delete(match=port_wild.match, priority=100, strict=True)
    assert table.lookup(1, parsed(vlan=5)) is exact


def test_any_vlan_entry_reached_from_port_bucket():
    table = FlowTable()
    any_vlan = FlowEntry(match=FlowMatch(in_port=1, vlan_vid=ANY_VLAN),
                         actions=(Output(1),))
    table.add(any_vlan)
    assert table.lookup(1, parsed(vlan=9)) is any_vlan
    assert table.lookup(1, parsed()) is None


def test_lookup_matches_linear_scan_on_consistent_table():
    table = FlowTable()
    port_rule = FlowEntry(match=FlowMatch(in_port=1), actions=(Output(1),))
    wildcard = FlowEntry(match=FlowMatch(), actions=(Output(2),),
                         priority=10)
    table.add(port_rule)
    table.add(wildcard)
    for in_port, expected in ((1, port_rule), (9, wildcard)):
        frame = parsed()
        assert table.lookup(in_port, frame) is expected
        assert table.lookup_linear(in_port, frame) is expected


def test_count_false_defers_counters_until_credit():
    table = FlowTable()
    table.add(FlowEntry(match=FlowMatch(), actions=(Output(1),)))
    entry = table.lookup(1, parsed(), count=False)
    assert entry.packets == 0 and table.matches == 0
    table.credit(entry, 3, 300)
    assert entry.packets == 3
    assert entry.bytes == 300
    assert table.matches == 3


def test_clear_resets_index():
    table = FlowTable()
    table.add(FlowEntry(match=FlowMatch(in_port=1, vlan_vid=5),
                        actions=(Output(1),)))
    table.add(FlowEntry(match=FlowMatch(), actions=(Output(2),)))
    assert table.clear() == 2
    assert len(table) == 0
    assert table.lookup(1, parsed(vlan=5)) is None
