"""IPv6 prefix-preserving anonymization (family ``ipv6``, rules V*).

Extends the paper's Section 4.3 trie scheme to 128 bits via
:class:`~repro.core.ipanon.Prefix6PreservingMap`, the IPv4 trie at
another width: the same keyed walk and the same shaping rule, keyed
under a distinct derivation domain so the v6 permutation is independent
of the v4 one.  Output is RFC 5952
canonical (zero-compressed, lowercase), so one address renders
identically however the input spelled it — the cross-file consistency
the paper requires of every mapping.

Trigger soundness: any valid IPv6 literal either contains ``::`` or is
the full 8-group form, which contains an ``h:h:`` digram (two hex groups
joined *and followed* by a colon).  BGP communities (``65000:100``) and
MAC addresses in dotted notation have no such digram, so ordinary IOS
lines never pay the candidate-regex pass.
"""

from __future__ import annotations

import re

from repro.core.rulebase import Rule, ShapePattern
from repro.core.ipanon import Prefix6PreservingMap
from repro.netutil import ip6_to_int
from repro.plugins.base import RecognizerPlugin

#: Dispatch trigger: a necessary condition of any IPv6 literal, written
#: against the line's shape (digit runs collapsed to ``0``) so the
#: dispatch decides it once per distinct shape.  A hex group keeps its
#: letters and loses digits, so it stays 1-4 characters of ``[0a-f]``.
TRIGGER = ShapePattern(r"::|[0a-f]{1,4}:[0a-f]{1,4}:")

#: Candidate extraction: a maximal hex/colon run not embedded in a larger
#: word, with an optional ``/len``.  Validation (is it really IPv6?) is
#: delegated to the stdlib parser inside the context memo, with negative
#: caching, so times (``12:30:00``) and MAC-ish tokens cost one failed
#: parse per distinct text, not per occurrence.
CANDIDATE_RE = re.compile(
    r"(?<![0-9A-Za-z:.])([0-9A-Fa-f:]*:[0-9A-Fa-f:]+)(/\d{1,3})?(?![0-9A-Za-z:.])"
)


def _apply_ipv6(line, ctx):
    def handler(match):
        token = match.group(1)
        if token.count(":") < 2:
            return None
        mapped = ctx.map_ip6_text_or_none(token)
        if mapped is None:
            return None
        return [(mapped, True), (match.group(2) or "", True)]

    return line.apply_rule(CANDIDATE_RE, handler)


class IPv6Plugin(RecognizerPlugin):
    family = "ipv6"
    rule_prefix = "V"
    description = (
        "128-bit prefix-preserving anonymization of IPv6 addresses and "
        "prefixes, RFC 5952 canonical output."
    )

    def setup(self, anonymizer) -> None:
        config = anonymizer.config
        anonymizer.ip6_map = Prefix6PreservingMap(
            config.salt,
            subnet_shaping=config.subnet_shaping,
            preserve_specials=config.preserve_specials,
            collision_policy=config.ip_collision_policy,
        )

    def build_rules(self):
        return [
            Rule(
                "V1",
                "ipv6-addresses",
                "ip",
                "Every IPv6 address or prefix, anywhere on a line, is "
                "mapped through the 128-bit prefix-preserving trie; the "
                "prefix length is kept, specials (::, ::1, ff00::/8) pass "
                "through unchanged.",
                _apply_ipv6,
                trigger=TRIGGER,
            )
        ]

    def passlist_words(self):
        # The R1 segmenter looks "ipv6"/"ipv4" up as the alpha run
        # "ipv"; the curated list only carries the whole tokens (dead
        # entries for the segmenter), so contribute the run itself.
        return ("ipv", "ipv6")

    def freeze_scan(self, anonymizer, configs, stats) -> None:
        """Fix the IPv6 shaping set from every corpus IPv6 address and
        map each one, as the IPv4 freeze does."""
        ip6_map = anonymizer.ip6_map
        if ip6_map is None:
            return
        texts = set()
        for text in configs.values():
            for match in CANDIDATE_RE.finditer(text):
                token = match.group(1)
                if token.count(":") >= 2:
                    texts.add(token)
        values = set()
        for token in texts:
            try:
                values.add(ip6_to_int(token))
            except ValueError:
                continue
        ip6_map.freeze(values)
        stats.ipv6_addresses = len(values)


PLUGIN = IPv6Plugin()
