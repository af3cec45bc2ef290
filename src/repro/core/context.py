"""Shared mutable state passed to every anonymization rule."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.asn import AsnPermutation, is_public_asn
from repro.core.community import CommunityAnonymizer
from repro.core.config import AnonymizerConfig
from repro.core.ipanon import PrefixPreservingMap
from repro.core.regexlang import rewrite_aspath_regex, rewrite_community_regex
from repro.core.report import AnonymizationReport
from repro.core.strings import StringHasher
from repro.core.tokens import TokenAnonymizer
from repro.netutil import (
    int_to_ip,
    int_to_ip6,
    ip6_to_int,
    ip_to_int,
    is_ipv4,
    is_private_rfc1918,
)

#: Cache sentinel for quad-shaped texts that are not valid addresses
#: (an octet above 255), so repeats skip the failed parse too.
_BAD_QUAD = ()


@dataclass
class RuleContext:
    """Everything a rule needs: the maps, the policy, and the report."""

    config: AnonymizerConfig
    ip_map: PrefixPreservingMap
    asn_map: AsnPermutation
    community: CommunityAnonymizer
    hasher: StringHasher
    token_anon: TokenAnonymizer
    report: AnonymizationReport
    source: str = "<config>"
    line_number: int = 0
    #: Memo for AS-path / community regexp rewriting outcomes, shared
    #: across every context the owning anonymizer creates.  An outcome is
    #: a pure function of (salt, config, pattern) — the permutations
    #: behind it are keyed Feistel networks — so one language enumeration
    #: (up to 65536 regex probes) serves every repeat of the same policy
    #: regexp across the corpus.
    regex_memo: Optional[Dict] = field(default=None, repr=False)
    #: The 128-bit prefix-preserving map contributed by the ``ipv6``
    #: recognizer plugin; ``None`` when that family is inactive.
    ip6_map: Optional[object] = None

    # -- helpers used by several rule modules ---------------------------

    def rewrite_aspath_cached(self, pattern_text: str, anchored: bool = False):
        """Rewrite an AS-path regexp, memoized on the pattern text."""
        memo = self.regex_memo
        key = ("aspath", pattern_text, anchored)
        if memo is not None:
            outcome = memo.get(key)
            if outcome is not None:
                return outcome
        outcome = rewrite_aspath_regex(
            pattern_text,
            self.asn_map.map_asn,
            style=self.config.regex_style,
            max_language=self.config.max_regex_language,
            anchored=anchored,
        )
        if memo is not None:
            memo[key] = outcome
        return outcome

    def rewrite_community_cached(self, pattern_text: str, anchored: bool = False):
        """Rewrite a community regexp, memoized on the pattern text."""
        memo = self.regex_memo
        key = ("community", pattern_text, anchored)
        if memo is not None:
            outcome = memo.get(key)
            if outcome is not None:
                return outcome
        outcome = rewrite_community_regex(
            pattern_text,
            self.asn_map.map_asn,
            self.community.map_value,
            style=self.config.regex_style,
            max_language=self.config.max_regex_language,
            anchored=anchored,
        )
        if memo is not None:
            memo[key] = outcome
        return outcome

    def map_asn_text(self, text: str) -> str:
        """Map a decimal ASN string, recording it for the leak scanner."""
        asn = int(text)
        if asn > 0xFFFF:
            self.flag("R?", "value {} exceeds the 16-bit ASN space".format(text))
            return text
        if is_public_asn(asn):
            self.report.seen_asns.add(asn)
        self.report.asns_mapped += 1
        return str(self.asn_map.map_asn(asn))

    def _ip_entry(self, text: str):
        """The memoized mapping entry for one dotted-quad text.

        Parse, trie walk, and re-format all collapse to one dict hit for
        repeats — the dominant case once the freeze phase has preloaded
        the corpus.  Entries are ``(mapped text, is_special, public value
        or None, collision_walks delta, collision_allowed delta, mapped
        value)``; a hit replays the trie counter increments the first
        mapping produced, so every counter stays an exact occurrence
        count.  Returns ``None`` for quad-shaped text that is not a valid
        address (negative caching: the failed parse is skipped too).
        """
        ip_map = self.ip_map
        cache = ip_map._text_cache
        entry = cache.get(text)
        if entry is None:
            try:
                value = ip_to_int(text)
            except ValueError:
                cache[text] = _BAD_QUAD
                return None
            special = value in ip_map.specials
            public = None if special or is_private_rfc1918(value) else value
            walks = ip_map.collision_walks
            allowed = ip_map.collision_allowed
            mapped_value = ip_map.map_int(value)
            entry = (
                int_to_ip(mapped_value),
                special,
                public,
                ip_map.collision_walks - walks,
                ip_map.collision_allowed - allowed,
                mapped_value,
            )
            cache[text] = entry
            return entry
        if entry is _BAD_QUAD:
            return None
        ip_map.addresses_mapped += 1
        ip_map.collision_walks += entry[3]
        ip_map.collision_allowed += entry[4]
        return entry

    def _record_ip(self, entry) -> None:
        report = self.report
        if entry[1]:
            report.special_ips_preserved += 1
        else:
            if entry[2] is not None:
                report.seen_public_ips.add(entry[2])
            report.ips_mapped += 1

    def quad_valid(self, text: str) -> bool:
        """Cache-aware ``is_ipv4``: no counters are touched either way.

        For rules that must validate *several* quads before mapping *any*
        of them (``ip address <addr> <mask>``) — mapping eagerly and
        backing out would skew the occurrence counters.
        """
        cache = self.ip_map._text_cache
        entry = cache.get(text)
        if entry is not None:
            return entry is not _BAD_QUAD
        if is_ipv4(text):
            # Not cached: populating would require mapping (trie counters).
            # The subsequent map_ip_text call caches it for the next hit.
            return True
        cache[text] = _BAD_QUAD
        return False

    def map_ip_text(self, text: str) -> str:
        """Map a dotted-quad string, recording public inputs."""
        entry = self._ip_entry(text)
        if entry is None:
            raise ValueError("not a dotted quad: {!r}".format(text))
        self._record_ip(entry)
        return entry[0]

    def map_ip_text_or_none(self, text: str):
        """Like :meth:`map_ip_text`, but ``None`` for invalid quads.

        Lets handlers fold their ``is_ipv4`` pre-check into the memoized
        lookup instead of re-parsing every occurrence.
        """
        entry = self._ip_entry(text)
        if entry is None:
            return None
        self._record_ip(entry)
        return entry[0]

    def map_ip_text_value(self, text: str):
        """``(mapped text, mapped value)`` or ``None`` for invalid quads."""
        entry = self._ip_entry(text)
        if entry is None:
            return None
        self._record_ip(entry)
        return entry[0], entry[5]

    def map_ip6_text_or_none(self, text: str):
        """Map IPv6 text through the plugin's 128-bit trie, or ``None``.

        ``None`` when the ``ipv6`` family is inactive or *text* is not a
        valid IPv6 literal.  Mirrors :meth:`map_ip_text_or_none`: the
        parse, trie walk, and RFC 5952 re-render are memoized on the v6
        map's text cache with counter-replay entries, and invalid texts
        are negatively cached so the candidate regex's false positives
        (``12:30:00``-style tokens) cost one failed parse per distinct
        text.
        """
        ip6_map = self.ip6_map
        if ip6_map is None:
            return None
        cache = ip6_map._text_cache
        entry = cache.get(text)
        if entry is None:
            try:
                value = ip6_to_int(text)
            except ValueError:
                cache[text] = _BAD_QUAD
                return None
            special = value in ip6_map.specials
            walks = ip6_map.collision_walks
            allowed = ip6_map.collision_allowed
            mapped_value = ip6_map.map_int(value)
            entry = (
                int_to_ip6(mapped_value),
                special,
                ip6_map.collision_walks - walks,
                ip6_map.collision_allowed - allowed,
            )
            cache[text] = entry
        elif entry is _BAD_QUAD:
            return None
        else:
            ip6_map.addresses_mapped += 1
            ip6_map.collision_walks += entry[2]
            ip6_map.collision_allowed += entry[3]
        if entry[1]:
            self.report.special_ips_preserved += 1
        else:
            self.report.ips_mapped += 1
        return entry[0]

    def map_community_text(self, text: str) -> str:
        mapped = self.community.map_community(text)
        if mapped != text:
            self.report.communities_mapped += 1
            left, _, _ = text.partition(":")
            if left.isdigit() and is_public_asn(int(left)):
                self.report.seen_asns.add(int(left))
        return mapped

    def hash_secret(self, text: str) -> str:
        self.report.secrets_hashed += 1
        return self.hasher.hash_token(text)

    def flag(self, rule_id: str, message: str) -> None:
        self.report.flag(self.source, self.line_number, rule_id, message)
