"""RFC 1071 internet checksum."""

from __future__ import annotations

__all__ = ["internet_checksum"]


def internet_checksum(data: bytes) -> int:
    """One's-complement sum over 16-bit words, odd tail zero-padded."""
    # 2**16 ≡ 1 (mod 0xFFFF): the folded word sum is the data's residue as
    # one big integer, except that a non-zero sum folds to 0xFFFF, not 0.
    value = int.from_bytes(data, "big") << (8 * (len(data) & 1))
    return 0xFFFF - (value % 0xFFFF or 0xFFFF) if value else 0xFFFF
