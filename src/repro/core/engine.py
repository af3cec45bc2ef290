"""The anonymization engine: ties the rule pipeline together.

Per config file::

    text -> lines -> [comment stripper R3-R5]
         -> per line: [rule prefilter gates]
                      [secret rules R26-R28] -> [ASN rules R10-R21]
                      -> [IP rules R22-R25] -> [misc rules R6-R9]
                      -> [token pass R1-R2]
         -> text

One :class:`Anonymizer` instance holds the mapping state shared by all the
files of one network, which is what preserves cross-file relationships
(the same loopback address, route-map name, or peer ASN anonymizes
identically everywhere it appears in the network).

There is one pipeline, **freeze-then-rewrite**:
:meth:`Anonymizer.freeze_mappings` scans the whole corpus once, preloading
every address (most-trailing-zeros-first, so subnet shaping is
guaranteed) and pre-hashing the corpus vocabulary; the IP trie is then
*frozen* (future flip bits become a pure function of the owner secret).
After the freeze, a file's anonymized bytes depend only on (salt, file
text) — not on which other files exist, their order, or which process
rewrites them — which is what lets :mod:`repro.core.parallel` fan
rewriting out over worker processes with byte-identical results.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.asn import AsnPermutation
from repro.core.comments import CommentStripper
from repro.core.community import CommunityAnonymizer
from repro.core.config import AnonymizerConfig
from repro.core.context import RuleContext
from repro.core.faults import build_fault_plan
from repro.core.ipanon import PrefixPreservingMap
from repro.core.line import SegmentedLine
from repro.core.dispatch import CompiledDispatch
from repro.core.report import AnonymizationReport
from repro.core.junos_rules import build_junos_rules
from repro.core.rulebase import Rule
from repro.core.rules import build_line_rules
from repro.core.strings import StringHasher
from repro.core.tokens import TokenAnonymizer
from repro.netutil import looks_like_junos
from repro.plugins.base import FinalLine
from repro.plugins.registry import resolve_active_plugins

#: Dotted-quad scanner used by the corpus preload (compiled once at import).
DOTTED_QUAD_RE = re.compile(r"\b(\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3})\b")


@dataclass
class AnonymizedNetwork:
    """Result of anonymizing all the configs of one network."""

    configs: Dict[str, str]
    report: AnonymizationReport
    name_map: Dict[str, str] = field(default_factory=dict)


@dataclass
class FreezeStats:
    """What :meth:`Anonymizer.freeze_mappings` preloaded: distinct
    addresses (dotted quads, then IS-IS system ids not among them) and
    zero-hash words.  ASN and community memos are not preloaded; the
    rewrite fills them on first use."""

    addresses: int = 0
    system_ids: int = 0
    words_warmed: int = 0
    #: Distinct IPv6 addresses preloaded by the ``ipv6`` plugin's freeze
    #: scan (0 when that family is inactive).
    ipv6_addresses: int = 0


class Anonymizer:
    """Structure-preserving config anonymizer (the paper's contribution)."""

    def __init__(self, config: Optional[AnonymizerConfig] = None, **kwargs):
        if config is None:
            config = AnonymizerConfig(**kwargs)
        elif kwargs:
            raise TypeError("pass either a config object or keyword options, not both")
        self.config = config
        salt = config.salt

        self.ip_map = PrefixPreservingMap(
            salt,
            class_preserving=config.class_preserving,
            subnet_shaping=config.subnet_shaping,
            preserve_specials=config.preserve_specials,
            collision_policy=config.ip_collision_policy,
        )
        self.asn_map = AsnPermutation(salt)
        self.community = CommunityAnonymizer(salt, asn_map=self.asn_map)
        self.hasher = StringHasher(salt, length=config.hash_length)
        self.token_anon = TokenAnonymizer(config.passlist, self.hasher)
        self._ios_stripper = CommentStripper(junos=False)
        self._junos_stripper = CommentStripper(junos=True)
        ios_rules = [
            rule
            for rule in build_line_rules()
            if rule.rule_id not in config.disabled_rules
        ]
        junos_extra = [
            rule
            for rule in build_junos_rules()
            if rule.rule_id not in config.disabled_rules
        ]
        # Compose the active recognizer plugin set (see
        # :mod:`repro.plugins`).  Plugin line rules run *before* the
        # builtin rules — vendor-specific secret formats must not be
        # half-consumed by the generic patterns — and plugin rules with
        # ``apply=None`` are structural (realized by block filters), so
        # they stay out of the line pipeline just like R1-R5.
        self.ip6_map = None
        self.plugins = resolve_active_plugins(config.plugins)
        self.active_plugin_families: Tuple[str, ...] = tuple(
            plugin.family for plugin in self.plugins
        )
        self._block_filters = []
        plugin_rules: List[Rule] = []
        plugin_words: List[str] = []
        for plugin in self.plugins:
            plugin.setup(self)
            plugin_rules.extend(
                rule
                for rule in plugin.build_rules()
                if rule.apply is not None
                and rule.rule_id not in config.disabled_rules
            )
            block_filter = plugin.block_filter()
            if block_filter is not None:
                self._block_filters.append(block_filter)
            plugin_words.extend(plugin.passlist_words())
        if plugin_words:
            # Union into a fresh PassList: the configured pass-list (often
            # the shared module default) is never mutated, so engines
            # running without these plugins keep pre-plugin byte identity.
            from repro.core.passlist import PassList

            self.token_anon.passlist = self.token_anon.passlist.union(
                PassList(plugin_words)
            )
        ios_rules = plugin_rules + ios_rules
        self.rules: List[Rule] = ios_rules
        self._junos_rules: List[Rule] = junos_extra + ios_rules
        # The compiled dispatch layer: all rule triggers combined into one
        # scanner per syntax, so each line is classified into its
        # candidate-rule tuple in a single C-level pass (see
        # :mod:`repro.core.dispatch`).  ``rule_prefilter=False`` keeps the
        # objects but makes them classify every line to the full rule set.
        self._dispatch_ios = CompiledDispatch(
            ios_rules, enabled=config.rule_prefilter
        )
        self._dispatch_junos = CompiledDispatch(
            self._junos_rules, enabled=config.rule_prefilter
        )
        #: Memo for AS-path / community regexp rewriting outcomes; a pure
        #: function of (salt, config, pattern), so one rewrite serves
        #: every repeat of the same policy regexp across the corpus.
        self._regex_memo: Dict = {}
        self.report = AnonymizationReport()
        self.fault_plan = build_fault_plan(config)
        #: Stats of the last :meth:`freeze_mappings` call (``None`` until
        #: a freeze runs); the service's session-info endpoint reports it.
        self.last_freeze_stats: Optional[FreezeStats] = None

    def _syntax_for(self, text: str) -> str:
        if self.config.syntax != "auto":
            return self.config.syntax
        return "junos" if looks_like_junos(text) else "ios"

    def _make_context(self, source: str) -> RuleContext:
        """A rule context bound to this anonymizer's shared maps."""
        return RuleContext(
            config=self.config,
            ip_map=self.ip_map,
            asn_map=self.asn_map,
            community=self.community,
            hasher=self.hasher,
            token_anon=self.token_anon,
            report=AnonymizationReport(),
            source=source,
            regex_memo=self._regex_memo,
            ip6_map=self.ip6_map,
        )

    # -- public API ------------------------------------------------------

    def anonymize_text(self, text: str, source: str = "<config>") -> str:
        """Anonymize one config file's text."""
        result, file_report = self.anonymize_file(text, source)
        self.report.merge(file_report)
        return result

    def anonymize_file(
        self, text: str, source: str = "<config>"
    ) -> Tuple[str, AnonymizationReport]:
        """Anonymize one file, returning ``(text, per-file report)``.

        Unlike :meth:`anonymize_text` this does *not* fold the file's
        counters into :attr:`report`; the parallel pipeline uses it to
        collect per-file reports from workers and merge them in a
        deterministic order.
        """
        lines = text.splitlines()
        syntax = self._syntax_for(text)
        dispatch = self._dispatch_junos if syntax == "junos" else self._dispatch_ios
        stripper = self._junos_stripper if syntax == "junos" else self._ios_stripper
        file_report = AnonymizationReport()
        file_report.lines_in = len(lines)
        ctx = RuleContext(
            config=self.config,
            ip_map=self.ip_map,
            asn_map=self.asn_map,
            community=self.community,
            hasher=self.hasher,
            token_anon=self.token_anon,
            report=file_report,
            source=source,
            regex_memo=self._regex_memo,
            ip6_map=self.ip6_map,
        )

        if self.config.strip_comments:
            lines, comment_stats = stripper.strip(lines)
            file_report.words_in = comment_stats.total_words
            file_report.comment_words_removed = comment_stats.comment_words
            file_report.comment_lines_removed = comment_stats.comment_lines
            file_report.banners_removed = comment_stats.banners
            file_report.record_rule_hit("R3", comment_stats.banners)
            file_report.record_rule_hit("R4+R5", comment_stats.comment_lines)
            for message in comment_stats.flagged:
                file_report.flag(source, 0, "R3", message)
        else:
            file_report.words_in = sum(len(line.split()) for line in lines)

        # Plugin block filters: multi-line recognizers (certificate
        # blobs, ...) replace whole blocks with placeholder FinalLines
        # before the per-line pipeline sees them.
        for block_filter in self._block_filters:
            lines = block_filter(lines, ctx)

        out_lines: List[str] = []
        token_anon = self.token_anon
        anonymize_text = token_anon.anonymize_text
        hashed_before = token_anon.tokens_hashed
        seen_before = token_anon.tokens_seen
        fault_plan = self.fault_plan
        classify = dispatch.classify
        record_rule_hit = file_report.record_rule_hit
        for line_number, raw_line in enumerate(lines, start=1):
            ctx.line_number = line_number
            if isinstance(raw_line, FinalLine):
                # A block filter already anonymized this line end-to-end
                # (it is a salted-digest placeholder): emit it verbatim.
                out_lines.append(str(raw_line))
                continue
            # Fail-closed guarantee: if anything below raises, the whole
            # line is replaced by a salted-hash placeholder.  The raw line
            # never reaches the output, and the report records the event.
            try:
                candidates = classify(raw_line.lower())
                if candidates:
                    line = SegmentedLine(raw_line)
                    for rule in candidates:
                        hits = rule.apply(line, ctx)
                        if hits:
                            record_rule_hit(rule.rule_id, hits)
                            if fault_plan is not None:
                                fault_plan.on_rule_hits(rule.rule_id, hits)
                    line.map_live_text(anonymize_text)
                    rendered = line.render()
                else:
                    # No rule can match this line: only the token pass
                    # applies — one memo hit for the whole line in the
                    # common (repeated-line) case, byte-identical to the
                    # segmented path, without building segment objects.
                    rendered = anonymize_text(raw_line)
            except Exception as exc:
                rendered = self.fail_closed_placeholder(raw_line)
                file_report.lines_failed_closed += 1
                file_report.record_rule_hit("FAIL-CLOSED")
                # Only the exception class name: its message may quote the
                # raw line, and flags travel in shareable report JSON.
                file_report.flag(
                    source,
                    line_number,
                    "FAIL-CLOSED",
                    "line replaced by fail-closed placeholder after "
                    "{}".format(type(exc).__name__),
                )
            out_lines.append(rendered)
        file_report.tokens_hashed = token_anon.tokens_hashed - hashed_before
        file_report.tokens_seen = token_anon.tokens_seen - seen_before
        file_report.lines_out = len(out_lines)

        result = "\n".join(out_lines)
        if text.endswith("\n"):
            result += "\n"
        return result, file_report

    def fail_closed_placeholder(self, raw_line: str) -> str:
        """The replacement emitted for a line whose anonymization failed.

        Deterministic (salted SHA-256 of the raw line) so a faulted run
        and its retry agree, and content-free: the digest lets the owner
        locate the original line locally without revealing it.  Computed
        directly rather than through :class:`StringHasher` so the raw line
        never enters the hash cache that rides back from workers.
        """
        digest = hashlib.sha256(
            self.config.salt + raw_line.encode("utf-8", "backslashreplace")
        ).hexdigest()[:16]
        return "! REPRO-FAIL-CLOSED {}".format(digest)

    def _scan_addresses(self, words) -> set:
        """Every distinct valid dotted-quad value among *words*.

        *words* are the whitespace-split tokens of the corpus.  A match
        holds only digits and dots, and ``\\b`` treats whitespace and the
        ends of a string alike, so joining the distinct words with spaces
        finds exactly the quads a scan of the texts finds.
        """
        seen = set()
        for quad in set(DOTTED_QUAD_RE.findall(" ".join(words))):
            a, b, c, d = map(int, quad.split("."))
            if a <= 255 and b <= 255 and c <= 255 and d <= 255:
                seen.add(a << 24 | b << 16 | c << 8 | d)
        return seen

    def _scan_system_ids(self, configs: Dict[str, str]) -> set:
        """Every address encoded in a decodable IS-IS NET system id."""
        from repro.core.ip_rules import ISIS_NET_RE, decode_system_id

        seen = set()
        for text in configs.values():
            for line in text.splitlines():
                match = ISIS_NET_RE.match(line)
                if match is not None:
                    value = decode_system_id(match.group(3))
                    if value is not None:
                        seen.add(value)
        return seen

    def freeze_mappings(self, configs: Dict[str, str]) -> FreezeStats:
        """Scan the whole corpus once and freeze all shared mapping state.

        The first phase of :meth:`anonymize_network`.  The paper's
        subnet-address shaping is best-effort because it depends on
        insertion order ("whenever they are inserted before colliding
        hosts"); in one pass over the raw text this

        1. preloads every dotted-quad address *and* every address encoded
           in an IS-IS NET system id into the IP trie
           (most-trailing-zeros-first, so subnet shaping is guaranteed),
        2. pre-hashes the corpus vocabulary whose anonymization involves
           no salted hashing (pure pass-list words, numbers, punctuation)
           into the whole-word memo cache,

        and then calls :meth:`PrefixPreservingMap.freeze` so any address
        the scan missed still gets an order-independent mapping.  ASNs
        and communities need no preload: their maps are keyed
        permutations, so the rewrite fills their memos on first use with
        the same result.  After this returns, rewriting a file performs
        only read-only lookups on the shared maps (plus pure-function
        cache fills), so files may be rewritten in any order — or in
        parallel worker processes — with byte-identical output.
        """
        stats = FreezeStats()
        words = set()
        for text in configs.values():
            words.update(text.split())
        addresses = self._scan_addresses(words)
        system_ids = self._scan_system_ids(configs) - addresses
        stats.addresses = len(addresses)
        stats.system_ids = len(system_ids)
        self.ip_map.preload(addresses | system_ids)

        # Warm the vocabulary that needs no salted hash (see
        # TokenAnonymizer.warm for why hashable words are skipped).
        warm = self.token_anon.warm
        stats.words_warmed = sum(1 for word in words if warm(word))

        # Plugin freeze scans (e.g. the IPv6 trie preload) run before the
        # freeze point so their insertions are order-guaranteed too.
        for plugin in self.plugins:
            plugin.freeze_scan(self, configs, stats)

        self.mark_frozen()
        self.last_freeze_stats = stats
        return stats

    def tries(self) -> Dict[str, PrefixPreservingMap]:
        """Every address trie this anonymizer has, keyed by the prefix of
        its state-document fields: ``ip`` always, then ``ip6`` when the
        ``ipv6`` plugin contributed a map.  State export, import, deltas,
        snapshots and :meth:`mark_frozen` all iterate this."""
        tries = {"ip": self.ip_map}
        if self.ip6_map is not None:
            tries["ip6"] = self.ip6_map
        return tries

    def mark_frozen(self) -> None:
        """Freeze every mapping trie (the v4 map and any plugin maps).

        The replay/restore paths use this instead of touching
        ``ip_map.freeze()`` directly so plugin-contributed address
        families freeze in lockstep with the builtin one.
        """
        for ip_map in self.tries().values():
            ip_map.freeze()

    @property
    def frozen(self) -> bool:
        """True once :meth:`freeze_mappings` has frozen the IP trie, i.e.
        every future mapping is a pure function of (salt, input) and the
        anonymizer may serve files in any order with byte-identical
        output."""
        return self.ip_map.frozen

    def anonymize_network(
        self,
        configs: Dict[str, str],
        jobs: Optional[int] = None,
    ) -> AnonymizedNetwork:
        """Anonymize every config of a network with shared mapping state.

        Runs :meth:`freeze_mappings` over the whole corpus, then rewrites
        every file (over ``jobs`` worker processes when ``jobs > 1``;
        default :attr:`AnonymizerConfig.jobs`).  Output is byte-identical
        for every worker count.  A file whose rewrite raises is
        quarantined (recorded in ``report.quarantined_files`` and absent
        from the result) while every other file completes.

        File names themselves usually embed hostnames, so the returned
        mapping renames each file by hashing the alphabetic runs of its
        name through the same token pass.
        """
        from repro.core.parallel import anonymize_files

        if jobs is None:
            jobs = self.config.jobs
        self.freeze_mappings(configs)
        outputs = anonymize_files(self, configs, jobs=jobs)
        out: Dict[str, str] = {}
        name_map: Dict[str, str] = {}
        for name in sorted(outputs):
            new_name = self.anonymize_file_name(name)
            name_map[name] = new_name
            out[new_name] = outputs[name]
        return AnonymizedNetwork(configs=out, report=self.report, name_map=name_map)

    def anonymize_file_name(self, name: str) -> str:
        """Hash a file name per dot-label, exactly like the hostname/domain
        rule (R9), so a renamed file still matches its hashed hostname."""
        return ".".join(self.hasher.hash_token(label) for label in name.split("."))
