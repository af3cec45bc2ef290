"""Prefix-preserving IP address anonymization (paper Section 4.3).

The mapping is a binary trie in which every node carries a *flip bit*.
Mapping an address walks its bits MSB-first; output bit *i* is input bit
*i* XOR the flip bit of the node reached by the first *i* input bits.
Because the flip bit is a function of the input prefix alone, two
addresses sharing a k-bit prefix map to two addresses sharing a k-bit
prefix and vice versa — the *prefix-preserving* property that keeps the
``subnet contains`` relationship intact across a whole network's configs.

The paper stores Minshall's trie because a stored trie can be *shaped*.
Here no trie is stored: every flip bit is a bit of a keyed PRF, as in
Xu's Crypto-PAn, and shaping is a fixed set of pinned nodes.  A node's
flip bit is a pure function of (owner secret, shaping set, node), so the
mapping does not depend on insertion order, on which process maps an
address, or on what was mapped before.

One implementation, :class:`PrefixPreservingMap`, serves both address
families: its width (32 or 128 bits) is a class attribute, and
:class:`Prefix6PreservingMap` only sets the IPv6 width, key domain,
specials, shaping cap and text format.

**Flip bits.**  The trie is cut into 8-level strides.  The 255 nodes of
the stride below the ``top``-bit prefix ``p`` take their flip bits from
one digest, ``HMAC(key, "top:p")``: bit ``2**j | q`` of the digest
(little-endian) belongs to the node ``j`` levels into the stride whose
last ``j`` prefix bits are ``q``.  The map memoizes, per 8-bit boundary,
the stride's flip bits and the output prefix above it, so a new address
walks only the strides below the deepest boundary already mapped.

The paper's three extensions:

* **Class preservation** (IPv4 only) — the flip bits of the nodes along
  the all-ones path at depths 0–3 are pinned to zero, so the
  classful-prefix bits (0 / 10 / 110 / 1110 / 1111) pass through unchanged
  and a class-A address always maps to a class-A address (old classful
  commands such as RIP ``network`` statements stay meaningful).  IPv6 has
  no classful addressing, so its map pins nothing.
* **Special addresses pass through unchanged** — for IPv4, netmasks
  (``255.255.255.0``), inverse masks (``0.0.0.255``), multicast/reserved
  (224/3) and loopback addresses are fixed points; for IPv6, ``::``,
  ``::1`` and ``ff00::/8``.  When a *non*-special address happens to map
  onto a special value, ``collision_policy`` decides what happens:

  - ``"walk"`` — the paper's behavior: recursively re-map until the value
    leaves the special set.  The paper claims this "maintains the
    structure-preserving property"; in strict pairwise terms it cannot —
    every walked address loses its prefix relations, and because some /8
    must map onto 0/8 (where the inverse masks live), a network that uses
    that unlucky /8 gets a *cluster* of walked addresses and its
    validation suites genuinely diverge (observed on the synthetic corpus;
    see bench E6).  A walked value's nodes get the same pins as any
    other node's: those of the shaping rule below.
  - ``"allow"`` (default) — outputs are permitted to *equal* special
    values.  Input specials still pass through unchanged (all that config
    semantics requires), prefix relations stay exact everywhere, and the
    only cost is cosmetic: an anonymized host address may happen to look
    like a wildcard value.  Occurrences are counted in
    ``collision_allowed`` for review.
* **Subnet-address shaping** — the *shaping set* Z′ holds the scanned
  non-special addresses with at least ``subnet_shaping_min_zeros``
  trailing zero bits (the subnet addresses, such as ``10.1.1.0``).  A
  node at depth ``d >= bits - shaping_max_zeros`` whose zero extension
  ``prefix << (bits - d)`` lies in Z′ is pinned to zero, so every
  address in Z′ maps to an address with at least as many trailing zeros
  below the cap.  These are exactly the nodes Minshall's trie pinned
  when the freeze inserted addresses most-trailing-zeros-first.  Only
  the last IPv4 octet is ever pinned (depths 24 and deeper); for IPv6,
  the 80 bits below a /48.  A zero suffix says nothing about the mask:
  ``32.1.0.0`` may be a /24 as well as a /16, and pinning all 16 of its
  zeros would also pin the nodes its /24 neighbours share, so in a dense
  network unbounded pins would map most addresses to themselves.

The freeze fixes Z′ (:meth:`PrefixPreservingMap.freeze`) once per
lineage: a map whose Z′ came from an imported state, or that mapped an
address before its first freeze (an empty Z′), keeps it, so a later
freeze never pins a node an earlier run walked unpinned.  With an empty
Z′ the map is Crypto-PAn with class preservation.
"""

from __future__ import annotations

import functools
import hmac
from typing import Iterable, Optional, Union

from repro.core.secrets import derive_key, normalize_salt
from repro.netutil import (
    IPV4_MAX,
    int_to_ip,
    int_to_ip6,
    ip6_to_int,
    ip_to_int,
    mask_for_len,
    trailing_zero_bits,
)

#: Digest bits of the class nodes: the all-ones prefixes at depths 0-3,
#: in the root stride.
_CLASS_PINS = sum(1 << ((2 << depth) - 1) for depth in range(4))


@functools.lru_cache(maxsize=None)
def _path_pins(chunk: int, level: int) -> int:
    """Digest bits of the nodes at *level* and deeper on the path of the
    8-bit *chunk* through one stride (at most 256 x 8 distinct calls)."""
    return sum(1 << (1 << j | chunk >> (8 - j)) for j in range(level, 8))


class SpecialAddresses:
    """The set of addresses with special meaning that must not be remapped.

    Membership is tested by value (the paper: "all special IP addresses
    (e.g., netmasks, multicast) are passed through unchanged").
    """

    def __init__(
        self,
        include_masks: bool = True,
        include_inverse_masks: bool = True,
        include_multicast: bool = True,
        include_loopback: bool = False,
        extra=(),
    ) -> None:
        # Loopback is OFF by default, deliberately: the paper's special set
        # is "netmasks, multicast".  With class preservation, ordinary
        # config addresses essentially never collide with that set (masks
        # live in class E, multicast in class D, inverse masks are 33 exact
        # values), so the recursive-remap path almost never fires and
        # pairwise prefix preservation stays exact.  Declaring all of
        # 127/8 special would make ~0.8% of class-A mappings cycle-walk,
        # each walk sacrificing that address's prefix relations.
        self._exact = set(int(v) for v in extra)
        # 0.0.0.0 and 255.255.255.255 are members of both mask families.
        if include_masks:
            self._exact.update(mask_for_len(n) for n in range(33))
        if include_inverse_masks:
            self._exact.update(mask_for_len(n) ^ IPV4_MAX for n in range(33))
        self.include_multicast = include_multicast
        self.include_loopback = include_loopback

    def __contains__(self, value: int) -> bool:
        if value in self._exact:
            return True
        if self.include_multicast and value >= 0xE0000000:  # 224.0.0.0 and up
            return True
        if self.include_loopback and (value >> 24) == 127:
            return True
        return False

    def why_special(self, value: int) -> Optional[str]:
        """Human-readable reason a value is special (None if it is not)."""
        if value in self._exact:
            return "mask-or-configured"
        if self.include_multicast and value >= 0xE0000000:
            return "multicast-or-reserved"
        if self.include_loopback and (value >> 24) == 127:
            return "loopback"
        return None


class IPv6SpecialAddresses:
    """The IPv6 fixed points: the unspecified address (``::``), loopback
    (``::1``) and multicast (``ff00::/8``).  IPv6 configs carry prefix
    lengths, not dotted masks, so there is no mask family."""

    def __contains__(self, value: int) -> bool:
        return value <= 1 or (value >> 120) == 0xFF


class PrefixPreservingMap:
    """Keyed prefix-preserving anonymization map (IPv4 by default).

    The class attributes fix the address family: :attr:`bits`, the key
    derivation domain, the subnet-shaping cap and the text format.
    :class:`Prefix6PreservingMap` overrides only those.

    Parameters
    ----------
    salt:
        Owner secret; every flip bit derives from it, so the map is a
        pure function of (salt, shaping set).
    class_preserving:
        Pin the classful-prefix bits (default True, per the paper).
    subnet_shaping:
        Map subnet addresses to subnet addresses (default True, per the
        paper); off, the freeze fixes an empty shaping set.
    preserve_specials:
        Pass special addresses through unchanged and cycle-walk collisions
        (default True, per the paper).
    specials:
        A :class:`SpecialAddresses` instance (a default one is built when
        omitted).
    """

    #: Address width in bits (a multiple of the 8-level stride).
    bits = 32
    #: Key derivation domain: the flip-bit PRF key is derived under
    #: ``<domain>-flip-bits``.
    key_domain = "ip-trie"
    #: Subnet shaping pins at most this many trailing bits: the last
    #: octet, the host part of a /24.
    shaping_max_zeros = 8
    #: Text parse and format at the map_address boundary.
    parse = staticmethod(ip_to_int)
    format = staticmethod(int_to_ip)

    def __init__(
        self,
        salt: Union[bytes, str] = b"",
        class_preserving: bool = True,
        subnet_shaping: bool = True,
        preserve_specials: bool = True,
        specials: Optional[SpecialAddresses] = None,
        subnet_shaping_min_zeros: int = 2,
        collision_policy: str = "allow",
    ) -> None:
        if collision_policy not in ("allow", "walk"):
            raise ValueError(
                "collision_policy must be 'allow' or 'walk', not {!r}".format(
                    collision_policy
                )
            )
        self.collision_policy = collision_policy
        self._key = derive_key(normalize_salt(salt), self.key_domain + "-flip-bits")
        self.class_preserving = class_preserving
        self.subnet_shaping = subnet_shaping
        self.preserve_specials = preserve_specials
        self.subnet_shaping_min_zeros = subnet_shaping_min_zeros
        self.specials = specials if specials is not None else SpecialAddresses()
        self.collision_walks = 0
        self.collision_allowed = 0
        self.addresses_mapped = 0
        # value -> raw_map(value) memo.
        self._raw_cache = {}
        # address text -> rule-level outcome memo, owned by
        # RuleContext.map_ip_text / map_ip6_text_or_none (stored here so
        # it shares this map's lifecycle and invalidation).
        self._text_cache = {}
        # Boundary key ``1 << top | prefix`` (one int per top-bit prefix
        # at an 8-bit boundary) -> (output prefix, the stride's flip
        # bits).  Every walk fills every boundary above its last stride,
        # so the memo is prefix-closed.
        self._strides = {}
        self.set_shaping(None)

    # -- the shaping set -------------------------------------------------

    def set_shaping(self, shaping: Optional[Iterable[int]]) -> None:
        """Install the shaping set Z′ as given (``None``: not fixed yet)
        and forget every memo, since the pins may have moved."""
        self.shaping = None if shaping is None else frozenset(shaping)
        bits = self.bits
        floor = bits - self.shaping_max_zeros
        # Boundary key -> digest bits of the stride's pinned nodes.
        pins = {1: _CLASS_PINS} if self.class_preserving else {}
        for value in self.shaping or ():
            first = max(floor, bits - trailing_zero_bits(value, bits))
            for top in range(first & ~7, bits, 8):
                key = 1 << top | value >> (bits - top)
                chunk = value >> (bits - top - 8) & 0xFF
                pins[key] = pins.get(key, 0) | _path_pins(chunk, max(first - top, 0))
        self._pins = pins
        self._raw_cache.clear()
        self._text_cache.clear()
        self._strides.clear()

    def freeze(self, values: Iterable[int]) -> None:
        """The freeze's part: fix Z′ from the scanned *values*, unless
        this map's lineage already fixed it, then map every value.

        Z′ is the non-special values with at least
        ``subnet_shaping_min_zeros`` trailing zeros (empty without
        subnet shaping).  Mapping every value warms the memos, so the
        rewrite finds the freeze's addresses already mapped.
        """
        values = set(values)
        if self.shaping is None:
            bits = self.bits
            self.set_shaping(
                value
                for value in values
                if self.subnet_shaping
                and trailing_zero_bits(value, bits) >= self.subnet_shaping_min_zeros
                and not (self.preserve_specials and value in self.specials)
            )
        map_int = self.map_int
        for value in values:
            map_int(value)

    # -- the keyed walk --------------------------------------------------

    def _stride(self, top: int, prefix: int) -> int:
        """Flip bits of the stride below the *top*-bit *prefix*."""
        digest = hmac.digest(self._key, b"%d:%d" % (top, prefix), "sha256")
        return int.from_bytes(digest, "little") & ~self._pins.get(1 << top | prefix, 0)

    def raw_map(self, value: int) -> int:
        """The pure keyed permutation (no special handling)."""
        cached = self._raw_cache.get(value)
        if cached is not None:
            return cached
        bits = self.bits
        if value < 0 or value >> bits:
            raise ValueError("not a {}-bit address: {!r}".format(bits, value))
        strides = self._strides
        # Start at the deepest boundary already mapped.
        top = bits - 8
        entry = strides.get(1 << top | value >> 8)
        while entry is None and top:
            top -= 8
            entry = strides.get(1 << top | value >> (bits - top))
        if entry is None:
            if self.shaping is None:
                # The lineage's first walk fixes Z′ (empty): a later
                # freeze must not pin a node this walk left unpinned.
                self.set_shaping(())
            entry = strides[1] = (0, self._stride(0, 0))
        output, flips = entry
        while True:
            node = 1
            for shift in range(bits - top - 1, bits - top - 9, -1):
                bit = value >> shift & 1
                output = output << 1 | (bit ^ (flips >> node & 1))
                node = node << 1 | bit
            top += 8
            if top == bits:
                break
            prefix = value >> (bits - top)
            flips = self._stride(top, prefix)
            strides[1 << top | prefix] = (output, flips)
        self._raw_cache[value] = output
        return output

    @property
    def stride_digests(self) -> int:
        """Stride digests computed since the memos were last cleared."""
        return len(self._strides)

    # -- public mapping --------------------------------------------------

    def map_int(self, value: int) -> int:
        """Map one address, honoring special-address passthrough."""
        self.addresses_mapped += 1
        if self.preserve_specials and value in self.specials:
            return value
        mapped = self.raw_map(value)
        if self.preserve_specials and mapped in self.specials:
            if self.collision_policy == "allow":
                self.collision_allowed += 1
                return mapped
            # Cycle-walk (paper behavior): raw_map is a permutation and the
            # orbit of `value` returns to the non-special `value` itself,
            # so some element of the orbit after `mapped` is non-special
            # and the loop terminates — at the cost of this address's
            # prefix relations.
            while mapped in self.specials:
                self.collision_walks += 1
                mapped = self.raw_map(mapped)
        return mapped

    def map_address(self, text: str) -> str:
        """Map one address's text (IPv6 output is RFC 5952 canonical)."""
        return self.format(self.map_int(self.parse(text)))

    def map_prefix(self, text: str) -> str:
        """Map ``addr/len`` notation, keeping the length."""
        addr_text, slash, len_text = text.partition("/")
        if not slash:
            raise ValueError("missing /len in {!r}".format(text))
        return "{}/{}".format(self.map_address(addr_text), len_text)


class Prefix6PreservingMap(PrefixPreservingMap):
    """The IPv6 map, contributed by the ``ipv6`` recognizer plugin.

    The same keyed walk, shaping rule and text-cache slot as the IPv4
    map; only the family differs:

    * 128 bits, keyed under the ``ip6-trie`` domain, so the v6
      permutation is independent of the v4 one under the same secret;
    * no class preservation (IPv6 has no classful addressing);
    * specials ``::``, ``::1`` and ``ff00::/8``;
    * shaping pins up to the 80 bits below a /48 site prefix, so a site's
      subnet ID and interface ID stay shapeable and the routing prefix
      above them is never pinned;
    * RFC 5952 text.
    """

    bits = 128
    key_domain = "ip6-trie"
    shaping_max_zeros = 80
    parse = staticmethod(ip6_to_int)
    format = staticmethod(int_to_ip6)

    def __init__(
        self,
        salt: Union[bytes, str] = b"",
        subnet_shaping: bool = True,
        preserve_specials: bool = True,
        subnet_shaping_min_zeros: int = 2,
        collision_policy: str = "allow",
    ) -> None:
        super().__init__(
            salt,
            class_preserving=False,
            subnet_shaping=subnet_shaping,
            preserve_specials=preserve_specials,
            specials=IPv6SpecialAddresses(),
            subnet_shaping_min_zeros=subnet_shaping_min_zeros,
            collision_policy=collision_policy,
        )
