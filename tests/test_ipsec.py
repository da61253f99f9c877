"""Tests for crypto helpers, SAs (anti-replay) and ESP tunnel mode."""

import hashlib

import pytest
from hypothesis import given, strategies as st

from repro.ipsec import (
    EspError,
    KeystreamCipher,
    ReplayError,
    SecurityAssociation,
    SpiAllocator,
    derive_keys,
    esp_decapsulate,
    esp_encapsulate,
    hmac_sha256,
)
from repro.ipsec.esp import esp_overhead
from repro.net.ipv4 import IPPROTO_ESP, IPPROTO_UDP, IPv4Packet


def make_sa(spi=0x1001, src="203.0.113.1", dst="203.0.113.2"):
    enc, auth = derive_keys(b"pre-shared-secret", b"nonce-i", b"nonce-r", spi)
    return SecurityAssociation(spi=spi, src=src, dst=dst,
                               enc_key=enc, auth_key=auth)


def inner_packet(payload=b"secret data", src="192.168.1.10",
                 dst="10.8.0.1"):
    return IPv4Packet(src=src, dst=dst, proto=IPPROTO_UDP, payload=payload)


class TestCrypto:
    def test_keystream_roundtrip(self):
        cipher = KeystreamCipher(b"0123456789abcdef")
        ciphertext = cipher.encrypt(b"iv000000", b"attack at dawn")
        assert ciphertext != b"attack at dawn"
        assert cipher.decrypt(b"iv000000", ciphertext) == b"attack at dawn"

    def test_different_iv_different_keystream(self):
        cipher = KeystreamCipher(b"0123456789abcdef")
        a = cipher.encrypt(b"iv000001", b"\x00" * 32)
        b = cipher.encrypt(b"iv000002", b"\x00" * 32)
        assert a != b

    def test_short_key_rejected(self):
        with pytest.raises(ValueError):
            KeystreamCipher(b"short")

    def test_hmac_known_vector(self):
        # RFC 4231 test case 2
        tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?")
        assert tag.hex().startswith("5bdcc146bf60754e6a042426089575c7")

    def test_derive_keys_deterministic_and_distinct(self):
        enc1, auth1 = derive_keys(b"s", b"ni", b"nr", 0x1000)
        enc2, auth2 = derive_keys(b"s", b"ni", b"nr", 0x1000)
        assert enc1 == enc2 and auth1 == auth2
        assert enc1 != auth1
        enc3, _ = derive_keys(b"s", b"ni", b"nr", 0x1001)
        assert enc3 != enc1

    def test_empty_secret_rejected(self):
        with pytest.raises(ValueError):
            derive_keys(b"", b"a", b"b", 1)


class TestKnownAnswers:
    """Wire-format vectors captured before the cipher, ICV and checksum
    kernels were rewritten; the rewrite must reproduce them exactly."""

    KEY = bytes(range(32))
    IV = bytes.fromhex("0011223344556677")
    BLOCK = ("122c6a38343527284f34624ecd503214"
             "eb1252758cd8db181a4f03c1c03d11d0a4")
    # SHA-256 of the 1432-byte ciphertext (too long to inline).
    LONG_SHA256 = ("9a57ffc462a50c3f9d6f4053e43d927f"
                   "e549f2f810708e48fd35170af06ed000")
    ESP_WIRE = (
        "45000054000040004032c273cb007101cb007102000010010000002a00001001"
        "0000002a391c005016f7b16ebb7d050eee52d4e4e074f470c0653ac159da6ae5"
        "801c4b45b35c58e7c9c19dbe4ac8a9a0c29539cc")

    @staticmethod
    def plaintext(length):
        return bytes((7 * i + 3) & 0xFF for i in range(length))

    @pytest.mark.parametrize("length", [0, 1, 31, 32, 33])
    def test_keystream_vectors(self, length):
        cipher = KeystreamCipher(self.KEY)
        ciphertext = cipher.encrypt(self.IV, self.plaintext(length))
        assert ciphertext.hex() == self.BLOCK[:2 * length]

    def test_keystream_vector_1432(self):
        ciphertext = KeystreamCipher(self.KEY).encrypt(
            self.IV, self.plaintext(1432))
        assert len(ciphertext) == 1432
        assert hashlib.sha256(ciphertext).hexdigest() == self.LONG_SHA256

    def test_esp_wire_vector(self):
        sa = SecurityAssociation(spi=0x1001, src="203.0.113.1",
                                 dst="203.0.113.2",
                                 enc_key=bytes(range(16, 48)),
                                 auth_key=bytes(range(48, 80)), seq_out=41)
        inner = IPv4Packet(src="192.168.1.10", dst="10.8.0.1",
                           proto=IPPROTO_UDP, payload=b"known answer",
                           identification=0x1234)
        outer = esp_encapsulate(sa, inner)
        assert sa.seq_out == 42
        assert outer.to_bytes().hex() == self.ESP_WIRE
        assert esp_decapsulate(make_sa_like(sa), outer) == inner

    def test_keystream_longer_than_64k_rejected(self):
        with pytest.raises(ValueError):
            KeystreamCipher(self.KEY).encrypt(self.IV, bytes(65537))


def make_sa_like(sa):
    """A fresh inbound SA with ``sa``'s keys and endpoints."""
    return SecurityAssociation(spi=sa.spi, src=sa.src, dst=sa.dst,
                               enc_key=sa.enc_key, auth_key=sa.auth_key)


class TestSecurityAssociation:
    def test_sequence_numbers_monotonic(self):
        sa = make_sa()
        assert sa.next_seq() == 1
        assert sa.next_seq() == 2

    def test_replay_window_accepts_in_order(self):
        sa = make_sa()
        for seq in range(1, 100):
            sa.check_replay(seq)
            sa.mark_seen(seq)

    def test_replay_detected(self):
        sa = make_sa()
        sa.mark_seen(5)
        with pytest.raises(ReplayError):
            sa.check_replay(5)

    def test_out_of_order_within_window_ok(self):
        sa = make_sa()
        sa.mark_seen(10)
        sa.check_replay(7)  # unseen, inside window
        sa.mark_seen(7)
        with pytest.raises(ReplayError):
            sa.check_replay(7)

    def test_stale_sequence_rejected(self):
        sa = make_sa()
        sa.mark_seen(100)
        with pytest.raises(ReplayError):
            sa.check_replay(100 - 64)

    def test_sequence_zero_invalid(self):
        sa = make_sa()
        with pytest.raises(ReplayError):
            sa.check_replay(0)

    def test_hard_lifetime_enforced(self):
        sa = make_sa()
        sa.hard_packet_limit = 2
        sa.next_seq()
        sa.next_seq()
        with pytest.raises(OverflowError):
            sa.next_seq()

    def test_bad_spi_rejected(self):
        with pytest.raises(ValueError):
            SecurityAssociation(spi=0, src="1.1.1.1", dst="2.2.2.2",
                                enc_key=b"k" * 16, auth_key=b"k" * 16)


class TestSpiAllocator:
    def test_unique_allocation(self):
        allocator = SpiAllocator()
        spis = {allocator.allocate() for _ in range(100)}
        assert len(spis) == 100

    def test_reserve_collision_rejected(self):
        allocator = SpiAllocator()
        spi = allocator.allocate()
        with pytest.raises(ValueError):
            allocator.reserve(spi)

    def test_reserved_range_rejected(self):
        allocator = SpiAllocator()
        with pytest.raises(ValueError):
            allocator.reserve(10)


class TestEsp:
    def test_encap_decap_roundtrip(self):
        out_sa = make_sa()
        in_sa = make_sa()  # same keys, fresh replay state
        inner = inner_packet()
        outer = esp_encapsulate(out_sa, inner)
        assert outer.proto == IPPROTO_ESP
        assert outer.src == out_sa.src and outer.dst == out_sa.dst
        recovered = esp_decapsulate(in_sa, outer)
        assert recovered == inner

    def test_payload_is_encrypted(self):
        sa = make_sa()
        outer = esp_encapsulate(sa, inner_packet(b"plaintext-marker"))
        assert b"plaintext-marker" not in outer.payload

    def test_tampering_detected(self):
        out_sa, in_sa = make_sa(), make_sa()
        outer = esp_encapsulate(out_sa, inner_packet())
        tampered = IPv4Packet(src=outer.src, dst=outer.dst, proto=outer.proto,
                              payload=outer.payload[:-1] +
                              bytes([outer.payload[-1] ^ 1]))
        with pytest.raises(EspError, match="ICV"):
            esp_decapsulate(in_sa, tampered)

    def test_replayed_packet_rejected(self):
        out_sa, in_sa = make_sa(), make_sa()
        outer = esp_encapsulate(out_sa, inner_packet())
        esp_decapsulate(in_sa, outer)
        with pytest.raises(ReplayError):
            esp_decapsulate(in_sa, outer)

    def test_wrong_sa_rejected(self):
        out_sa = make_sa(spi=0x1001)
        other = make_sa(spi=0x2002)
        outer = esp_encapsulate(out_sa, inner_packet())
        with pytest.raises(EspError):
            esp_decapsulate(other, outer)

    def test_non_esp_packet_rejected(self):
        with pytest.raises(EspError):
            esp_decapsulate(make_sa(), inner_packet())

    def test_overhead_formula_matches_reality(self):
        out_sa = make_sa()
        for size in (0, 1, 2, 3, 4, 100, 1399, 1400):
            inner = inner_packet(b"q" * size)
            outer = esp_encapsulate(out_sa, inner)
            assert (outer.total_length - inner.total_length
                    == esp_overhead(inner.total_length)), size

    def test_counters_track_traffic(self):
        out_sa, in_sa = make_sa(), make_sa()
        for _ in range(3):
            esp_decapsulate(in_sa, esp_encapsulate(out_sa, inner_packet()))
        assert out_sa.packets_out == 3
        assert in_sa.packets_in == 3

    @given(st.binary(max_size=1400))
    def test_roundtrip_property(self, payload):
        out_sa, in_sa = make_sa(), make_sa()
        inner = inner_packet(payload)
        assert esp_decapsulate(in_sa, esp_encapsulate(out_sa, inner)) == inner
