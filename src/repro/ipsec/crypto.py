"""Cryptographic primitives built on hashlib/hmac only.

**Substitution note** (README "Substitutions"): the paper's strongSwan
setup uses AES for ESP encryption.  No AES implementation is available
in the standard library, so encryption here is a keystream cipher:

    block_i = SHA256(key || iv || counter_i)

XORed over the plaintext.  It has the two properties the reproduction
needs — the transform is length-preserving-modulo-padding and invertible
only with the key — while remaining a few lines of auditable code.  It
is NOT a secure cipher for production use (no claims about
indistinguishability are needed here: the experiments measure packet
processing paths, not cryptanalysis).
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import struct

__all__ = ["KeystreamCipher", "derive_keys", "hmac_sha256"]

_BLOCK = 32  # SHA-256 digest size
# Counter bytes packed once; 2048 blocks = 64 KiB, the largest IPv4 packet.
_COUNTERS = [struct.pack("!Q", counter) for counter in range(2048)]


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    """Full 32-byte HMAC-SHA256 tag."""
    return _hmac.new(key, data, hashlib.sha256).digest()


class KeystreamCipher:
    """Counter-mode keystream cipher over SHA-256 (AES stand-in)."""

    def __init__(self, key: bytes) -> None:
        if len(key) < 16:
            raise ValueError("cipher key must be at least 128 bits")
        self._key = key

    def _keystream(self, iv: bytes, length: int) -> bytes:
        if length > _BLOCK * len(_COUNTERS):
            raise ValueError("keystream longer than 64 KiB")
        copy = hashlib.sha256(self._key + iv).copy  # key || iv hashed once
        blocks = []
        for counter in _COUNTERS[:-(-length // _BLOCK)]:
            block = copy()
            block.update(counter)
            blocks.append(block.digest())
        return b"".join(blocks)[:length]

    def encrypt(self, iv: bytes, plaintext: bytes) -> bytes:
        stream = self._keystream(iv, len(plaintext))
        return (int.from_bytes(plaintext, "big") ^ int.from_bytes(
            stream, "big")).to_bytes(len(plaintext), "big")

    # XOR keystream: decryption is the same operation.
    decrypt = encrypt


def derive_keys(shared_secret: bytes, nonce_i: bytes, nonce_r: bytes,
                spi: int) -> tuple[bytes, bytes]:
    """Derive (encryption_key, authentication_key) for one SA.

    HKDF-shaped: extract with the concatenated nonces as salt, then two
    labelled expansions.  Both sides of the toy IKE handshake call this
    with the same inputs and obtain the same key material.
    """
    if not shared_secret:
        raise ValueError("empty shared secret")
    salt = nonce_i + nonce_r + struct.pack("!I", spi)
    prk = _hmac.new(salt, shared_secret, hashlib.sha256).digest()
    enc_key = _hmac.new(prk, b"ENCR" + b"\x01", hashlib.sha256).digest()
    auth_key = _hmac.new(prk, b"AUTH" + b"\x02", hashlib.sha256).digest()
    return enc_key, auth_key
