"""Differential oracles for the byte-proportional ESP-path kernels.

The production kernels replace per-byte and per-word Python loops with
one C-speed big-int operation each.  The loops they replaced live on
here as reference implementations, and Hypothesis asserts that every
kernel agrees with its reference:

* ``internet_checksum`` (big-int residue mod 0xFFFF) against the
  per-word RFC 1071 end-around-carry sum;
* ``KeystreamCipher.encrypt`` (int XOR, one digest state copied per
  block) against a fresh SHA-256 per block and a per-byte XOR;
* ``Selector.covers`` and the iptables ``Match`` address test (both
  precompiled CIDRs) against per-packet string CIDR parsing.
"""

import hashlib
import struct

from hypothesis import given, strategies as st

from repro.ipsec import KeystreamCipher
from repro.linuxnet.iptables import Match
from repro.linuxnet.namespace import SkBuff
from repro.linuxnet.xfrm import Selector
from repro.net.addresses import int_to_ip, ip_to_int, parse_cidr
from repro.net.checksum import internet_checksum
from repro.net.ipv4 import IPPROTO_TCP, IPPROTO_UDP, IPv4Packet


# -- reference implementations ------------------------------------------------

def reference_checksum(data: bytes) -> int:
    """RFC 1071: one's-complement sum of 16-bit words, folded."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def reference_encrypt(key: bytes, iv: bytes, plaintext: bytes) -> bytes:
    """SHA-256(key || iv || counter) blocks, XORed byte by byte."""
    blocks = [hashlib.sha256(key + iv + struct.pack("!Q", counter)).digest()
              for counter in range((len(plaintext) + 31) // 32)]
    stream = b"".join(blocks)[:len(plaintext)]
    return bytes(p ^ s for p, s in zip(plaintext, stream))


def reference_cidr_contains(cidr: str, address: str) -> bool:
    network, plen = parse_cidr(cidr)
    if plen == 0:
        return True
    shift = 32 - plen
    return (ip_to_int(address) >> shift) == (network >> shift)


def reference_match_hits(match: Match, packet: IPv4Packet) -> bool:
    """A bare address is a /32; each invert flag negates its test."""
    for cidr, address, invert in ((match.src, packet.src, match.invert_src),
                                  (match.dst, packet.dst, match.invert_dst)):
        if cidr is None:
            continue
        if "/" not in cidr:
            cidr += "/32"
        if reference_cidr_contains(cidr, address) == invert:
            return False
    return True


def reference_covers(selector: Selector, packet: IPv4Packet) -> bool:
    if selector.proto is not None and packet.proto != selector.proto:
        return False
    return (reference_cidr_contains(selector.src_cidr, packet.src)
            and reference_cidr_contains(selector.dst_cidr, packet.dst))


# -- strategies ---------------------------------------------------------------

def _filled(byte: int):
    return st.integers(0, 1500).map(lambda n: bytes([byte]) * n)


payloads = st.one_of(st.binary(max_size=1500), _filled(0x00), _filled(0xFF),
                     st.just(b""))
addresses = st.integers(0, 0xFFFFFFFF).map(int_to_ip)
cidrs = st.builds(lambda addr, plen: f"{addr}/{plen}", addresses,
                  st.sampled_from([0, 1, 8, 16, 24, 31, 32])
                  | st.integers(0, 32))
#: what ``iptables -s``/``-d`` accepts: a CIDR, a bare address, or nothing
match_cidrs = st.none() | cidrs | addresses
protos = st.sampled_from([None, IPPROTO_TCP, IPPROTO_UDP])


# -- checksum -----------------------------------------------------------------

class TestChecksumOracle:
    @given(payloads)
    def test_matches_per_word_sum(self, data):
        assert internet_checksum(data) == reference_checksum(data)

    @given(st.binary(min_size=1, max_size=1500).filter(lambda d: len(d) % 2))
    def test_odd_lengths_match(self, data):
        assert internet_checksum(data) == reference_checksum(data)

    def test_edge_values(self):
        for data in (b"", b"\x00", b"\x00\x00", b"\xff", b"\xff\xff",
                     b"\xff" * 1499, b"\x00" * 1500, b"\xff\xfe\x00\x01"):
            assert internet_checksum(data) == reference_checksum(data), data

    @given(st.binary(min_size=20, max_size=60).map(
        lambda d: d[:len(d) & ~1]))
    def test_filled_in_header_verifies_to_zero(self, header):
        header = header[:10] + b"\x00\x00" + header[12:]
        checksum = internet_checksum(header)
        assert checksum == reference_checksum(header)
        filled = header[:10] + checksum.to_bytes(2, "big") + header[12:]
        assert internet_checksum(filled) == 0
        assert reference_checksum(filled) == 0


# -- keystream cipher ---------------------------------------------------------

class TestCipherOracle:
    @given(st.binary(min_size=16, max_size=48), st.binary(min_size=8,
                                                         max_size=8),
           payloads)
    def test_matches_per_byte_xor(self, key, iv, plaintext):
        cipher = KeystreamCipher(key)
        ciphertext = cipher.encrypt(iv, plaintext)
        assert ciphertext == reference_encrypt(key, iv, plaintext)
        assert cipher.decrypt(iv, ciphertext) == plaintext

    def test_block_boundaries(self):
        key, iv = b"k" * 32, b"i" * 8
        cipher = KeystreamCipher(key)
        for length in (0, 1, 31, 32, 33, 63, 64, 65, 1432, 1500):
            plaintext = bytes(range(256)) * 6
            plaintext = plaintext[:length]
            assert (cipher.encrypt(iv, plaintext)
                    == reference_encrypt(key, iv, plaintext)), length


# -- XFRM selector ------------------------------------------------------------

class TestSelectorOracle:
    @given(cidrs, cidrs, protos, addresses, addresses,
           st.sampled_from([IPPROTO_TCP, IPPROTO_UDP, 1, 50]))
    def test_matches_string_cidr_covers(self, src_cidr, dst_cidr, proto,
                                        src, dst, packet_proto):
        selector = Selector(src_cidr, dst_cidr, proto)
        packet = IPv4Packet(src=src, dst=dst, proto=packet_proto,
                            payload=b"")
        assert selector.covers(packet) == reference_covers(selector, packet)

    @given(cidrs, cidrs, protos, st.sampled_from([IPPROTO_TCP, IPPROTO_UDP]))
    def test_network_addresses_covered(self, src_cidr, dst_cidr, proto,
                                       packet_proto):
        """Each CIDR's own network address is inside it, so only the
        proto restriction can refuse the packet."""
        selector = Selector(src_cidr, dst_cidr, proto)
        packet = IPv4Packet(src=int_to_ip(parse_cidr(src_cidr)[0]),
                            dst=int_to_ip(parse_cidr(dst_cidr)[0]),
                            proto=packet_proto, payload=b"")
        expected = proto in (None, packet_proto)
        assert reference_covers(selector, packet) == expected
        assert selector.covers(packet) == expected

    def test_slash0_slash32_and_proto(self):
        packet = IPv4Packet(src="10.1.2.3", dst="192.168.7.9",
                            proto=IPPROTO_UDP, payload=b"")
        cases = [
            Selector("0.0.0.0/0", "0.0.0.0/0"),
            Selector("10.1.2.3/32", "192.168.7.9/32"),
            Selector("10.1.2.4/32", "192.168.7.9/32"),
            Selector("0.0.0.0/0", "192.168.7.0/24", IPPROTO_UDP),
            Selector("0.0.0.0/0", "192.168.7.0/24", IPPROTO_TCP),
        ]
        got = [selector.covers(packet) for selector in cases]
        assert got == [reference_covers(s, packet) for s in cases]
        assert got == [True, True, False, True, False]

    def test_compiled_fields_do_not_affect_equality(self):
        a = Selector("10.0.0.0/8", "0.0.0.0/0")
        b = Selector("10.0.0.0/8", "0.0.0.0/0")
        assert a == b and hash(a) == hash(b)
        assert a != Selector("10.0.0.0/8", "0.0.0.0/0", IPPROTO_UDP)
        assert "_compiled" not in repr(a)


# -- iptables Match -----------------------------------------------------------

class TestMatchOracle:
    @given(match_cidrs, match_cidrs, st.booleans(), st.booleans(), addresses,
           addresses)
    def test_matches_string_cidr_hits(self, src_cidr, dst_cidr, invert_src,
                                      invert_dst, src, dst):
        match = Match(src=src_cidr, dst=dst_cidr, invert_src=invert_src,
                      invert_dst=invert_dst)
        packet = IPv4Packet(src=src, dst=dst, proto=IPPROTO_UDP, payload=b"")
        assert (match.hits(SkBuff(ipv4=packet))
                == reference_match_hits(match, packet))

    def test_slash0_slash32_bare_and_inverted(self):
        packet = IPv4Packet(src="10.1.2.3", dst="192.168.7.9",
                            proto=IPPROTO_UDP, payload=b"")
        cases = [
            Match(src="0.0.0.0/0"),
            Match(src="0.0.0.0/0", invert_src=True),
            Match(src="10.1.2.3/32", dst="192.168.7.9"),
            Match(src="10.1.2.3"),
            Match(src="10.1.2.4", invert_src=True),
            Match(dst="192.168.7.9", invert_dst=True),
            Match(dst="192.168.0.0/16", invert_dst=True),
            Match(src="10.0.0.0/8", dst="192.168.7.0/24"),
        ]
        skb = SkBuff(ipv4=packet)
        got = [match.hits(skb) for match in cases]
        assert got == [reference_match_hits(m, packet) for m in cases]
        assert got == [True, False, True, True, True, False, False, True]

    def test_compiled_fields_do_not_affect_equality(self):
        assert Match(src="10.0.0.0/8") == Match(src="10.0.0.0/8")
        assert Match(src="10.0.0.0/8") != Match(src="10.0.0.0/16")
        assert "(10, 24)" not in repr(Match(src="10.0.0.0/8"))
