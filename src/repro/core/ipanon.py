"""Prefix-preserving IP address anonymization (paper Section 4.3).

The mapping is the data-structure-based scheme the paper extends from
Minshall's tcpdpriv ``-a50``: a binary trie in which every node carries a
*flip bit* chosen when the node is first created.  Mapping an address walks
its bits MSB-first; output bit *i* is input bit *i* XOR the flip bit of the
node reached by the first *i* input bits.  Because the flip bit is a pure
function of the input prefix, two addresses sharing a k-bit prefix map to
two addresses sharing a k-bit prefix and vice versa — the
*prefix-preserving* property that keeps the ``subnet contains``
relationship intact across a whole network's configs.

One implementation, :class:`PrefixPreservingMap`, serves both address
families: its width (32 or 128 bits) is a class attribute, and
:class:`Prefix6PreservingMap` only sets the IPv6 width, key domains,
specials, shaping cap and text format.

The paper's three extensions, realized by "controlling how new entries are
added to the data-structure":

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
    see bench E6).
  - ``"allow"`` (default) — outputs are permitted to *equal* special
    values.  Input specials still pass through unchanged (all that config
    semantics requires), prefix relations stay exact everywhere, and the
    only cost is cosmetic: an anonymized host address may happen to look
    like a wildcard value.  Occurrences are counted in
    ``collision_allowed`` for review.
* **Subnet-address shaping** — when a new trie node is created along a
  suffix of all-zero input bits (the host part of a subnet address such as
  ``10.1.1.0``), its flip bit is pinned to zero, so subnet addresses map to
  subnet addresses whenever they are inserted before conflicting hosts
  (best-effort, exactly as the paper describes: a readability aid, not a
  security property).  Only the last IPv4 octet is ever pinned (depths 24
  and deeper); for IPv6, the 80 bits below a /48.  A zero suffix says
  nothing about the mask: ``32.1.0.0`` may be a /24 as well as a /16, and
  pinning all 16 of its zeros would also pin the nodes its /24 neighbours
  share.  The mapping freeze inserts addresses most-trailing-zeros-first
  (:meth:`PrefixPreservingMap.preload`), so in a dense network unbounded
  pins would set nearly every node above the last octet to 0 and map most
  addresses to themselves.

The walk resumes where the previous one left off.  Two addresses that
share their first *k* bits share the trie nodes at depths 0..*k*, so once
one of them has been walked, those nodes exist and their output bits are
known.  ``raw_map`` remembers the last walked value and its output, and
starts the next walk at the depth where the new value diverges from it.
The skipped levels are exactly those where a full walk would only find
existing nodes.  From there it probes down to the first missing node and
creates every deeper one without probing: each walk creates its whole
path, so no node exists below a missing one.  Node creations and RNG
draws happen in the order a full walk from the root makes them, and
``_flips`` comes out identical, insertion order included.  The corpus
preload inserts addresses in sorted runs, where neighbours share most of
their bits, so most of its walking is skipped.  Replacing ``_flips`` on a
map that has already walked must be followed by
:meth:`PrefixPreservingMap.invalidate_cache`, which forgets the
remembered path along with the memos.
"""

from __future__ import annotations

import hashlib
import hmac
import random
from typing import Iterable, Optional, Union

from repro.core.secrets import derive_key, derive_seed_int, normalize_salt
from repro.netutil import (
    IPV4_MAX,
    int_to_ip,
    int_to_ip6,
    ip6_to_int,
    ip_to_int,
    mask_for_len,
    trailing_zero_bits,
)

#: ``_last_walk`` before any walk: no value to share a prefix with.
_NO_WALK = (-1, 0)


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
    """Stateful prefix-preserving anonymization map (IPv4 by default).

    The class attributes fix the address family: :attr:`bits`, the key
    derivation domain, the subnet-shaping cap and the text format.
    :class:`Prefix6PreservingMap` overrides only those.

    Parameters
    ----------
    salt:
        Owner secret; all flip-bit randomness derives from it, so the map
        is deterministic for a fixed (salt, insertion order) pair.
    class_preserving:
        Pin the classful-prefix bits (default True, per the paper).
    subnet_shaping:
        Map subnet addresses to subnet addresses, best-effort
        (default True, per the paper).
    preserve_specials:
        Pass special addresses through unchanged and cycle-walk collisions
        (default True, per the paper).
    specials:
        A :class:`SpecialAddresses` instance (a default one is built when
        omitted).
    """

    #: Address width in bits.
    bits = 32
    #: Key derivation domain: the pre-freeze RNG seed and the post-freeze
    #: flip key are derived under ``<domain>-flip-bits`` and
    #: ``<domain>-frozen-flip-bits``.
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
        salt = normalize_salt(salt)
        self._rng = random.Random(
            derive_seed_int(salt, self.key_domain + "-flip-bits")
        )
        self._flips = {}
        # value -> raw_map(value) memo.  A trie node's flip bit never
        # changes once created, so the mapping of a given value is stable
        # for the life of the trie and the walk (one dict probe per level
        # plus a keyed hash per fresh node) collapses to one dict hit for
        # every repeat — the common case, since the freeze phase preloads
        # every corpus address before the rewrite starts.  Invalidated
        # only when `_flips` is *replaced* wholesale (state import).
        self._raw_cache = {}
        # address text -> rule-level outcome memo, owned by
        # RuleContext.map_ip_text / map_ip6_text_or_none (stored here so
        # it shares this trie's lifecycle: same stability argument, same
        # invalidation).
        self._text_cache = {}
        # (value, output) of the last trie walk; raw_map resumes below
        # the prefix a new value shares with it.  Reset with the memos.
        self._last_walk = _NO_WALK
        self._frozen = False
        self._frozen_flip_key = derive_key(
            salt, self.key_domain + "-frozen-flip-bits"
        )
        self.class_preserving = class_preserving
        self.subnet_shaping = subnet_shaping
        self.preserve_specials = preserve_specials
        self.subnet_shaping_min_zeros = subnet_shaping_min_zeros
        self.specials = specials if specials is not None else SpecialAddresses()
        self.collision_walks = 0
        self.collision_allowed = 0
        self.addresses_mapped = 0

    # -- raw trie walk ---------------------------------------------------

    def raw_map(self, value: int) -> int:
        """The pure trie permutation (no special handling)."""
        cached = self._raw_cache.get(value)
        if cached is not None:
            return cached
        bits = self.bits
        if value < 0 or value >> bits:
            raise ValueError("not a {}-bit address: {!r}".format(bits, value))
        low = bits - 1
        # Resume below the prefix this value shares with the last walk:
        # every node down to that depth exists, so skipping those levels
        # creates no node and draws no RNG bit a full walk would not.
        last_value, last_output = self._last_walk
        depth = bits - (value ^ last_value).bit_length() if last_value >= 0 else 0
        output = last_output >> (bits - depth)
        flips = self._flips
        while depth < bits:
            flip = flips.get((depth, value >> (bits - depth)))
            if flip is None:
                break
            output = (output << 1) | (((value >> (low - depth)) & 1) ^ flip)
            depth += 1
        # Every walk creates its whole path, so below the first missing
        # node every node is missing too: create the rest in one loop.
        if depth < bits:
            # Class nodes, pinned to 0 so classful prefixes survive: the
            # all-ones paths "", "1", "11", "111" at depths 0-3.
            class_depth = 4 if self.class_preserving else 0
            frozen = self._frozen
            if frozen:
                key = self._frozen_flip_key
            else:
                getrandbits = self._rng.getrandbits
                pin_depth = bits
                if self.subnet_shaping:
                    pin_depth -= self._shapeable_zeros(value)
            for depth in range(depth, bits):
                prefix = value >> (bits - depth)
                class_node = depth < class_depth and prefix == (1 << depth) - 1
                if frozen:
                    # Post-freeze flip bits are a pure function of (secret,
                    # depth, prefix) -- never of `value` or of RNG position
                    # -- so a node gets the same bit no matter which address
                    # creates it first, in which process.  The shaping pin
                    # is deliberately NOT applied: it depends on the
                    # creating address's zero suffix, which would
                    # reintroduce order dependence.  Shaping is best-effort
                    # for addresses the freeze scan missed (per the paper),
                    # and exact for everything it preloaded.
                    if class_node:
                        flip = 0
                    else:
                        material = b"%d:%d" % (depth, prefix)
                        flip = hmac.new(key, material, hashlib.sha256).digest()[0] & 1
                else:
                    # Draw even for a pinned node, so the RNG stream
                    # advances identically whatever the pins (keeps
                    # unrelated subtrees independent of shaping decisions).
                    flip = getrandbits(1)
                    if class_node or depth >= pin_depth:
                        flip = 0
                flips[depth, prefix] = flip
                output = (output << 1) | (((value >> (low - depth)) & 1) ^ flip)
        self._raw_cache[value] = output
        self._last_walk = (value, output)
        return output

    def invalidate_cache(self) -> None:
        """Drop the mapping memos (call after replacing ``_flips``)."""
        self._raw_cache.clear()
        self._text_cache.clear()
        self._last_walk = _NO_WALK

    def freeze(self) -> None:
        """Detach any *future* flip bits from the RNG stream.

        Before freezing, flip bits are drawn from a salted RNG stream, so
        the trie depends on insertion order (that is what enables subnet
        shaping, and what forces sequential file processing).  After
        :meth:`freeze`, a node created for a previously-unseen prefix gets
        its flip bit from a keyed hash of ``(depth, prefix)`` — a pure
        function of the owner secret, independent of when or in which
        process the node is created.  The mapping-freeze phase preloads
        every address it can find and then calls this, so that even an
        address the corpus scan missed maps identically in every worker
        and in the sequential pipeline.

        Freezing is one-way for a given instance; already-created nodes
        keep their RNG-drawn bits.
        """
        self._frozen = True

    @property
    def frozen(self) -> bool:
        return self._frozen

    def _shapeable_zeros(self, value: int) -> int:
        """How many trailing zeros of *value* qualify for shaping."""
        zeros = trailing_zero_bits(value, self.bits)
        if zeros >= self.subnet_shaping_min_zeros:
            return min(zeros, self.shaping_max_zeros)
        return 0

    def preload(self, values: Iterable[int]) -> None:
        """Map *values* most-trailing-zeros-first, then by value.

        Subnet addresses go in before the hosts below them, so their
        shaping pins always apply (the freeze's shaping guarantee), and
        the sorted runs let the resuming walk skip most levels.
        """
        bits = self.bits
        map_int = self.map_int
        for value in sorted(
            values, key=lambda v: (bits - trailing_zero_bits(v, bits)) << bits | v
        ):
            map_int(value)

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

    @property
    def nodes_created(self) -> int:
        return len(self._flips)


class Prefix6PreservingMap(PrefixPreservingMap):
    """The IPv6 map, contributed by the ``ipv6`` recognizer plugin.

    The same trie, freeze contract and text-cache slot as the IPv4 map;
    only the family differs:

    * 128 bits, keyed under the ``ip6-trie-*`` domains, so the v6
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
