"""Autonomous System Number anonymization (paper Section 4.4).

Public ASNs (1–64511) are globally unique and publicly mapped to owners, so
they are anonymized with a random permutation.  Private ASNs (64512–65535)
and ASN 0 carry no identity and pass through unchanged.

The permutation is a keyed 4-round Feistel cipher over the 16-bit space,
cycle-walked so that public ASNs map to public ASNs.  Compared with a
shuffled lookup table this is deterministic from the owner secret alone
(no 64 K-entry state to persist or share) and is efficiently invertible,
which the validation suites use to check round-trips.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Union

from repro.core.secrets import derive_key, normalize_salt

#: Inclusive public ASN range (BGPv4, 16-bit ASN era of the paper).
PUBLIC_ASN_MIN = 1
PUBLIC_ASN_MAX = 64511
#: Inclusive private ASN range.
PRIVATE_ASN_MIN = 64512
PRIVATE_ASN_MAX = 65535

_ROUNDS = 4


def is_public_asn(asn: int) -> bool:
    """Whether *asn* is in the public (globally assigned) range."""
    return PUBLIC_ASN_MIN <= asn <= PUBLIC_ASN_MAX


def is_private_asn(asn: int) -> bool:
    """Whether *asn* is in the private-use range."""
    return PRIVATE_ASN_MIN <= asn <= PRIVATE_ASN_MAX


class Feistel16:
    """A keyed permutation of the 16-bit integers (4-round Feistel)."""

    def __init__(self, key: bytes):
        self.key = key

    def _round(self, round_index: int, half: int) -> int:
        material = bytes((round_index, half))
        return hmac.new(self.key, material, hashlib.sha256).digest()[0]

    def encrypt(self, value: int) -> int:
        if not 0 <= value <= 0xFFFF:
            raise ValueError("not a 16-bit value: {!r}".format(value))
        left, right = value >> 8, value & 0xFF
        for round_index in range(_ROUNDS):
            left, right = right, left ^ self._round(round_index, right)
        return (left << 8) | right

    def decrypt(self, value: int) -> int:
        if not 0 <= value <= 0xFFFF:
            raise ValueError("not a 16-bit value: {!r}".format(value))
        left, right = value >> 8, value & 0xFF
        for round_index in reversed(range(_ROUNDS)):
            left, right = right ^ self._round(round_index, left), left
        return (left << 8) | right


class AsnPermutation:
    """The ASN anonymization map: permute publics, pass privates through."""

    def __init__(self, salt: Union[bytes, str] = b""):
        self._feistel = Feistel16(derive_key(normalize_salt(salt), "asn-permutation"))
        self._seen = {}

    def map_asn(self, asn: int) -> int:
        """Anonymize one ASN."""
        if not 0 <= asn <= 0xFFFF:
            raise ValueError("not a 16-bit ASN: {!r}".format(asn))
        if not is_public_asn(asn):
            return asn
        # `_seen` memoizes the mapping: the Feistel walk costs several
        # HMAC-SHA256 rounds per ASN and corpora repeat the same few ASNs
        # millions of times.
        cached = self._seen.get(asn)
        if cached is not None:
            return cached
        mapped = self._feistel.encrypt(asn)
        # Cycle-walk until the image lands back in the public range; the
        # orbit of a public ASN always contains another public ASN (itself),
        # so this terminates and stays a bijection on the public range.
        while not is_public_asn(mapped):
            mapped = self._feistel.encrypt(mapped)
        self._seen[asn] = mapped
        return mapped

    def unmap_asn(self, asn: int) -> int:
        """Invert :meth:`map_asn` (used by tests and validation only)."""
        if not 0 <= asn <= 0xFFFF:
            raise ValueError("not a 16-bit ASN: {!r}".format(asn))
        if not is_public_asn(asn):
            return asn
        mapped = self._feistel.decrypt(asn)
        while not is_public_asn(mapped):
            mapped = self._feistel.decrypt(mapped)
        return mapped
