"""Conntrack table unit tests."""

import pytest

from repro.linuxnet.conntrack import ConnState, ConnTrack, FlowTuple


FLOW = FlowTuple("10.0.0.1", "8.8.8.8", 17, 1234, 53)


def test_create_and_lookup_both_directions():
    table = ConnTrack()
    entry = table.create(FLOW)
    hit, direction = table.lookup(FLOW)
    assert hit is entry and direction == "orig"
    hit, direction = table.lookup(FLOW.reversed())
    assert hit is entry and direction == "reply"


def test_new_until_confirmed():
    table = ConnTrack()
    entry = table.create(FLOW)
    assert entry.state is ConnState.NEW
    table.confirm(entry)
    assert entry.state is ConnState.ESTABLISHED


def test_snat_reindexes_reply():
    table = ConnTrack()
    entry = table.create(FLOW)
    entry.snat = ("203.0.113.1", 40000)
    table.apply_nat(entry)
    reply = FlowTuple("8.8.8.8", "203.0.113.1", 17, 53, 40000)
    hit, direction = table.lookup(reply)
    assert hit is entry and direction == "reply"
    # The pre-NAT reply tuple no longer matches.
    assert table.lookup(FLOW.reversed()) is None


def test_snat_port_zero_keeps_original_port():
    table = ConnTrack()
    entry = table.create(FLOW)
    entry.snat = ("203.0.113.1", 0)
    table.apply_nat(entry)
    reply = FlowTuple("8.8.8.8", "203.0.113.1", 17, 53, 1234)
    assert table.lookup(reply) is not None


def test_dnat_reindexes_reply():
    table = ConnTrack()
    entry = table.create(FLOW)
    entry.dnat = ("192.168.1.10", 8053)
    table.apply_nat(entry)
    reply = FlowTuple("192.168.1.10", "10.0.0.1", 17, 8053, 1234)
    assert table.lookup(reply) is not None


def test_remove_clears_both_directions():
    table = ConnTrack()
    entry = table.create(FLOW)
    table.remove(entry)
    assert table.lookup(FLOW) is None
    assert table.lookup(FLOW.reversed()) is None


def test_capacity_limit():
    table = ConnTrack(max_entries=2)
    table.create(FLOW)
    table.create(FlowTuple("10.0.0.2", "8.8.8.8", 17, 1, 53))
    with pytest.raises(OverflowError):
        table.create(FlowTuple("10.0.0.3", "8.8.8.8", 17, 2, 53))
    assert table.insert_failures == 1


def test_entries_lists_each_connection_once():
    table = ConnTrack()
    table.create(FLOW)
    table.create(FlowTuple("10.0.0.2", "8.8.8.8", 17, 9, 53))
    assert len(table.entries()) == 2


def test_keep_port_snat_clash_picks_free_port():
    """Two clients, one source port, one server: the second keep-port
    SNAT moves to the next free port instead of taking over the first
    connection's reply tuple."""
    table = ConnTrack()
    first = table.create(FLOW)
    first.snat = ("203.0.113.1", 0)
    assert table.apply_nat(first)
    second = table.create(FlowTuple("10.0.0.2", "8.8.8.8", 17, 1234, 53))
    second.snat = ("203.0.113.1", 0)
    assert table.apply_nat(second)
    assert second.snat == ("203.0.113.1", 1235)
    assert table.lookup(FlowTuple("8.8.8.8", "203.0.113.1", 17, 53,
                                  1234)) == (first, "reply")
    assert table.lookup(FlowTuple("8.8.8.8", "203.0.113.1", 17, 53,
                                  1235)) == (second, "reply")
    assert table.insert_failures == 0


def test_keep_port_search_stays_in_the_original_ports_range():
    table = ConnTrack()
    for client, sport, expected in (("10.0.0.1", 1023, 1023),
                                    ("10.0.0.2", 1023, 600),
                                    ("10.0.0.3", 511, 511),
                                    ("10.0.0.4", 511, 1),
                                    ("10.0.0.5", 65535, 65535),
                                    ("10.0.0.6", 65535, 1024)):
        entry = table.create(FlowTuple(client, "8.8.8.8", 17, sport, 53))
        entry.snat = ("203.0.113.1", 0)
        assert table.apply_nat(entry)
        assert table.lookup(FlowTuple("8.8.8.8", "203.0.113.1", 17, 53,
                                      expected)) == (entry, "reply")


def test_explicit_port_clash_is_an_insert_failure():
    table = ConnTrack()
    first = table.create(FLOW)
    first.snat = ("203.0.113.1", 40000)
    assert table.apply_nat(first)
    second = table.create(FlowTuple("10.0.0.2", "8.8.8.8", 17, 999, 53))
    second.snat = ("203.0.113.1", 40000)
    assert not table.apply_nat(second)
    assert table.insert_failures == 1
    # Neither connection lost its keys.
    reply = FlowTuple("8.8.8.8", "203.0.113.1", 17, 53, 40000)
    assert table.lookup(reply) == (first, "reply")
    assert table.lookup(second.reply) == (second, "reply")


def test_dnat_clash_is_an_insert_failure():
    table = ConnTrack()
    first = table.create(FlowTuple("10.0.0.1", "1.1.1.1", 6, 5000, 80))
    first.dnat = ("192.168.1.10", 8080)
    assert table.apply_nat(first)
    second = table.create(FlowTuple("10.0.0.1", "2.2.2.2", 6, 5000, 80))
    second.dnat = ("192.168.1.10", 8080)
    assert not table.apply_nat(second)
    assert table.lookup(FlowTuple("192.168.1.10", "10.0.0.1", 6, 8080,
                                  5000)) == (first, "reply")
