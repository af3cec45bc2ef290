"""Owner-secret handling and key derivation.

The paper salts the SHA1 hash "with a secret chosen by the network owner"
(Section 6.1).  All randomness in the anonymizer — string hashes, the IP
trie flip bits, the ASN and community permutations — is derived from this
one owner secret, so anonymization is fully deterministic and repeatable
for a given (salt, input) pair, while two different owners' mappings are
cryptographically unrelated.
"""

from __future__ import annotations

import hashlib
import hmac


def normalize_salt(salt) -> bytes:
    """Coerce a user-provided salt (str or bytes) to bytes."""
    if isinstance(salt, bytes):
        return salt
    if isinstance(salt, str):
        return salt.encode("utf-8")
    raise TypeError("salt must be str or bytes, not {}".format(type(salt).__name__))


def derive_key(salt: bytes, purpose: str) -> bytes:
    """Derive an independent subkey for one component of the anonymizer.

    Uses HMAC-SHA256 as a KDF so that, e.g., the ASN permutation key cannot
    be related to the string-hashing key even if one is compromised.
    """
    return hmac.new(salt, purpose.encode("utf-8"), hashlib.sha256).digest()
