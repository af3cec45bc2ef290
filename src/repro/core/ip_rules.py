"""The IP-locating rules — R22 through R25 (paper Section 4.3).

IP addresses are rewritten through the shared prefix-preserving map; the
map itself passes special values (netmasks, inverse masks, multicast,
loopback) through unchanged, so these rules only need to *find* the
addresses.  Four contexts are distinguished because they carry different
semantics worth asserting (address+mask pairs, prefix notation, classful
``network`` statements, and the generic catch-all).
"""

from __future__ import annotations

import re
from typing import List, Optional

from repro.core.context import RuleContext
from repro.core.rulebase import Rule, ShapePattern
from repro.netutil import (
    classful_prefix_len,
    int_to_ip,
    ip_to_int,
    network_address,
    wildcard_to_len,
)

_QUAD = r"\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}"

#: Prefilter triggers of the quad-matching rules, written against the
#: line's shape (digit runs collapsed to ``0``): each ``\d{1,3}`` group
#: of a match lies inside one maximal digit run, so a quad's shape always
#: contains ``0.0.0.0``.  The dispatch decides them once per distinct
#: shape, so a repeated line shape pays no search.  Regexes, not
#: literals: as a literal, ``0.0.0.0/0`` can begin inside a matched
#: ``0.0.0.0``, and the overlap closure would admit R23 on every quad line.
QUAD_SHAPE = ShapePattern(r"0\.0\.0\.0")
PREFIX_SHAPE = ShapePattern(r"0\.0\.0\.0/0")

#: IS-IS NET lines (rule X1); also used by the mapping-freeze corpus scan
#: to shape with and map decodable system ids.
ISIS_NET_RE = re.compile(
    r"^(\s*net )(\d{2}(?:\.[0-9a-fA-F]{4})?)((?:\.[0-9a-fA-F]{4}){3})(\.\d{2})\s*$",
    re.IGNORECASE,
)


def decode_system_id(dotted: str) -> Optional[int]:
    """Decode a ``.hhhh.hhhh.hhhh`` system id into the IPv4 int it encodes.

    Returns ``None`` when the system id does not follow the
    loopback-encoding convention (non-decimal digits or octets > 255).
    """
    digits = dotted.replace(".", "")
    if digits.isdigit() and len(digits) == 12:
        octets = [int(digits[i : i + 3]) for i in range(0, 12, 3)]
        if all(o <= 255 for o in octets):
            return (octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8) | octets[3]
    return None


def build_ip_rules() -> List[Rule]:
    rules: List[Rule] = []

    addr_mask_re = re.compile(
        r"(\bip address )(" + _QUAD + r")( )(" + _QUAD + r")", re.IGNORECASE
    )

    def apply_addr_mask(line, ctx):
        def handler(match):
            # Both quads must be valid before either is mapped (mapping
            # eagerly would skew counters when the other one is bogus).
            if not (ctx.quad_valid(match.group(2)) and ctx.quad_valid(match.group(4))):
                return None
            return [
                (match.group(1), False),
                (ctx.map_ip_text(match.group(2)), True),
                (match.group(3), False),
                (ctx.map_ip_text(match.group(4)), True),
            ]

        return line.apply_rule(addr_mask_re, handler)

    rules.append(
        Rule(
            "R22",
            "ip-address-mask",
            "ip",
            "`ip address <addr> <mask>` interface pairs (Figure 1 lines "
            "10, 14); the netmask is special and passes through unchanged.",
            apply_addr_mask,
            trigger="ip address ",
        )
    )

    prefix_re = re.compile(r"\b(" + _QUAD + r")/(\d{1,2})\b")

    def apply_prefix(line, ctx):
        def handler(match):
            if int(match.group(2)) > 32:
                return None
            mapped = ctx.map_ip_text_or_none(match.group(1))
            if mapped is None:
                return None
            return [
                (mapped, True),
                ("/" + match.group(2), True),
            ]

        return line.apply_rule(prefix_re, handler)

    rules.append(
        Rule(
            "R23",
            "prefix-notation",
            "ip",
            "`a.b.c.d/len` prefixes; the length is structural and kept.",
            apply_prefix,
            trigger=PREFIX_SHAPE,
        )
    )

    network_re = re.compile(r"^(\s*network )(" + _QUAD + r")(\s.*)?$", re.IGNORECASE)

    def apply_network(line, ctx):
        def handler(match):
            mapped = ctx.map_ip_text_or_none(match.group(2))
            if mapped is None:
                return None
            if not match.group(3):
                # A bare `network <addr>` (RIP/IGRP/EIGRP classful form):
                # IOS canonicalizes these to the classful network address,
                # so truncate the mapped address the same way.  Class
                # preservation guarantees the classful length is unchanged.
                value = ip_to_int(mapped)
                length = classful_prefix_len(value)
                mapped = int_to_ip(network_address(value, length))
            return [
                (match.group(1), False),
                (mapped, True),
                (match.group(3) or "", False),
            ]

        return line.apply_rule(network_re, handler)

    rules.append(
        Rule(
            "R24",
            "classful-network",
            "ip",
            "`network <addr>` statements of RIP/IGRP/EIGRP/BGP (Figure 1 "
            "line 35); class preservation keeps classful semantics valid.",
            apply_network,
            trigger="network ",
        )
    )

    pair_re = re.compile(r"\b(" + _QUAD + r")(\s+)(" + _QUAD + r")\b")
    bare_re = re.compile(r"\b(" + _QUAD + r")\b")

    def apply_bare(line, ctx):
        def pair_handler(match):
            wildcard_text = match.group(3)
            try:
                wildcard = ip_to_int(wildcard_text)
            except ValueError:
                return None
            if wildcard_to_len(wildcard) is None or wildcard == 0:
                return None  # not an address + contiguous-wildcard pair
            pair = ctx.map_ip_text_value(match.group(1))
            if pair is None:
                return None
            # Clear the wildcard (don't-care) bits of the mapped base: the
            # ACL semantics are identical and the output reads like the
            # canonical form operators write.
            mapped = pair[1] & ~wildcard & 0xFFFFFFFF
            return [
                (int_to_ip(mapped), True),
                (match.group(2), False),
                (wildcard_text, True),
            ]

        def handler(match):
            mapped = ctx.map_ip_text_or_none(match.group(1))
            if mapped is None:
                return None
            return [(mapped, True)]

        hits = line.apply_rule(pair_re, pair_handler)
        return hits + line.apply_rule(bare_re, handler)

    rules.append(
        Rule(
            "R25",
            "bare-dotted-quad",
            "ip",
            "Catch-all for any remaining dotted quad (neighbor addresses, "
            "ACL address/wildcard pairs, server addresses, static routes); "
            "wildcards are special values and pass through unchanged.",
            apply_bare,
            trigger=QUAD_SHAPE,
        )
    )

    net_re = ISIS_NET_RE

    def apply_isis_net(line, ctx):
        def handler(match):
            mapped = _map_system_id(ctx, match.group(3))
            return [
                (match.group(1), False),
                (match.group(2), True),   # AFI+area: locally significant
                (mapped, True),
                (match.group(4), True),
            ]

        return line.apply_rule(net_re, handler)

    rules.append(
        Rule(
            "X1",
            "isis-net-system-id",
            "extension",
            "IS-IS NET system ids conventionally encode the loopback "
            "address (6.0.0.3 -> 0060.0000.0003); decode, map through the "
            "shared IP trie, and re-encode so the correspondence survives. "
            "Non-decodable system ids are hashed. (Extension beyond the "
            "paper's 28 IOS rules.)",
            apply_isis_net,
            trigger="net ",
        )
    )

    return rules


def _map_system_id(ctx: RuleContext, dotted: str) -> str:
    """Map a `.hhhh.hhhh.hhhh` system id, preserving the loopback link."""
    value = decode_system_id(dotted)
    if value is not None:
        mapped = ctx.ip_map.map_int(value)
        padded = "{:03d}{:03d}{:03d}{:03d}".format(
            (mapped >> 24) & 0xFF, (mapped >> 16) & 0xFF,
            (mapped >> 8) & 0xFF, mapped & 0xFF,
        )
        return ".{}.{}.{}".format(padded[0:4], padded[4:8], padded[8:12])
    import hashlib

    digits = dotted.replace(".", "")
    digest = hashlib.sha1(ctx.hasher.salt + b"sysid:" + digits.encode()).hexdigest()
    return ".{}.{}.{}".format(digest[0:4], digest[4:8], digest[8:12])
