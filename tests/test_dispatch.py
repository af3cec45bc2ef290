"""Tests for the compiled single-pass rule dispatch.

The contract under test (see :mod:`repro.core.dispatch`): for every
line, ``classify`` returns a **superset** of the rules whose individual
:func:`~repro.core.rulebase.compile_gate` predicates pass, in rule
application order.  Extra candidates are harmless (a rule only rewrites
where its own pattern matches); a missing candidate would silently skip
a rewrite, so the superset direction is property-tested over fuzzed
IOS/Junos-flavored lines, crafted overlap cases, and digit-shape
families.
"""

from __future__ import annotations

import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import Anonymizer, AnonymizerConfig
from repro.core import dispatch as dispatch_module
from repro.core.dispatch import CompiledDispatch, _literal_overlap
from repro.core.rulebase import Rule, compile_gate
from repro.plugins.registry import discover_plugins


@pytest.fixture(scope="module")
def anonymizer():
    return Anonymizer(salt=b"dispatch")


def _gated_ids(rules, lowered):
    """Rule ids the per-rule gates select for a lowered line (the
    reference the compiled dispatch must stay a superset of)."""
    out = []
    for rule in rules:
        gate = compile_gate(rule.trigger)
        if gate is None or gate(lowered):
            out.append(rule.rule_id)
    return out


def _assert_superset(dispatch, rules, raw_line):
    lowered = raw_line.lower()
    candidate_ids = [rule.rule_id for rule in dispatch.classify(lowered)]
    missing = set(_gated_ids(rules, lowered)) - set(candidate_ids)
    assert not missing, (
        "dispatch dropped rules {} on {!r}".format(sorted(missing), raw_line)
    )


# Realistic fragments plus noise: fuzzed lines hit trigger literals at
# arbitrary offsets, split across digits, and glued to one another.
_FRAGMENTS = st.sampled_from(
    [
        "ip address ", "network ", "router bgp ", " remote-as ",
        "set community ", "community ", "ip community-list ",
        "as-path ", "peer-as ", "neighbor ", "snmp-server community ",
        "username ", "password 7 ", " net ", "hostname ",
        "10.1.2.3", "255.255.255.0", "0.0.0.255", "192.168.255.254/30",
        "701:120", "65001", "49.0001.1720.3125.5254.00",
        "aabb.ccdd.eeff", "{", "}", ";", "[ ", " ]", '"', "!",
    ]
)

_NOISE = st.text(
    alphabet=string.ascii_letters + string.digits + " .:/-_#\"[]{};",
    max_size=12,
)

_LINES = st.lists(st.one_of(_FRAGMENTS, _NOISE), max_size=8).map("".join)


class TestSupersetContract:
    @settings(max_examples=300, deadline=None)
    @given(line=_LINES)
    def test_fuzzed_lines_ios(self, anonymizer, line):
        _assert_superset(anonymizer._dispatch_ios, anonymizer.rules, line)

    @settings(max_examples=300, deadline=None)
    @given(line=_LINES)
    def test_fuzzed_lines_junos(self, anonymizer, line):
        _assert_superset(
            anonymizer._dispatch_junos, anonymizer._junos_rules, line
        )

    def test_corpus_lines(self, anonymizer):
        from repro.iosgen import NetworkSpec, generate_network

        spec = NetworkSpec(
            name="disp-net", kind="isp", seed=7, num_pops=2,
            use_community_regexps=True,
        )
        for text in generate_network(spec).configs.values():
            for raw_line in text.splitlines():
                _assert_superset(
                    anonymizer._dispatch_ios, anonymizer.rules, raw_line
                )

    def test_every_literal_trigger_alone_and_concatenated(self, anonymizer):
        """Every literal trigger, alone, doubled, and glued to every
        other literal — the overlap-closure stress: ``finditer`` yields
        non-overlapping matches, so a literal hidden inside another
        literal's span must still be dispatched."""
        literals = []
        for rule in anonymizer._junos_rules:
            trigger = rule.trigger
            if isinstance(trigger, str):
                literals.append(trigger)
            elif isinstance(trigger, (tuple, list, frozenset, set)):
                literals.extend(trigger)
        assert literals
        dispatch = anonymizer._dispatch_junos
        rules = anonymizer._junos_rules
        for a in literals:
            _assert_superset(dispatch, rules, a)
            _assert_superset(dispatch, rules, a + a)
            for b in literals:
                _assert_superset(dispatch, rules, a + b)

    def test_digit_shape_families(self, anonymizer):
        """Lines differing only in digit runs share one memo shape and
        must all classify to supersets of their own gate verdicts."""
        templates = [
            "ip address {0}.{1}.{2}.{3} 255.255.{0}.0",
            " network {0}.{1}.0.0",
            "router bgp {0}{1}",
            "ip community-list {0} permit {1}:{2}",
            " neighbor {0}.{1}.{2}.{3} remote-as {0}",
        ]
        fills = [(10, 1, 2, 3), (192, 168, 255, 254), (7, 0, 1, 99)]
        for template in templates:
            for fill in fills:
                _assert_superset(
                    anonymizer._dispatch_ios,
                    anonymizer.rules,
                    template.format(*fill),
                )


class TestDispatchMechanics:
    def test_candidates_in_application_order(self, anonymizer):
        dispatch = anonymizer._dispatch_ios
        order = {rule.rule_id: i for i, rule in enumerate(dispatch.rules)}
        candidates = dispatch.classify(
            "ip address 10.1.2.3 255.255.255.0 network 10.0.0.0"
        )
        indices = [order[rule.rule_id] for rule in candidates]
        assert indices == sorted(indices)

    def test_memo_hit_on_digit_variants(self):
        rules = [
            Rule("T1", "t1", "t", "", lambda l, c: 0, trigger="network "),
            Rule("T2", "t2", "t", "", lambda l, c: 0, trigger="bgp "),
        ]
        dispatch = CompiledDispatch(rules)
        first = dispatch.classify("network 10.0.0.0")
        assert dispatch.memo_entries == 1
        # A digit variant shares the shape: no new memo entry, same
        # (interned) candidate tuple.
        second = dispatch.classify("network 192.168.4.0")
        assert dispatch.memo_entries == 1
        assert second is first
        assert [rule.rule_id for rule in first] == ["T1"]

    def test_memo_size_bound_respected(self):
        rules = [Rule("T1", "t1", "t", "", lambda l, c: 0, trigger="x")]
        dispatch = CompiledDispatch(rules, memo_size=2)
        for index in range(5):
            dispatch.classify("line variant {}".format("a" * index))
        assert dispatch.memo_entries <= 2
        # Past the bound, classification still works, just un-memoized.
        assert [r.rule_id for r in dispatch.classify("zzz x zzz")] == ["T1"]

    def test_disabled_dispatch_returns_all_rules(self):
        rules = [
            Rule("T1", "t1", "t", "", lambda l, c: 0, trigger="never-there"),
            Rule("T2", "t2", "t", "", lambda l, c: 0, trigger=None),
        ]
        dispatch = CompiledDispatch(rules, enabled=False)
        assert dispatch.classify("completely unrelated") == tuple(rules)

    def test_triggerless_rule_always_candidate(self, anonymizer):
        dispatch = anonymizer._dispatch_ios
        always = [r.rule_id for r in dispatch.rules if r.trigger is None]
        candidates = [r.rule_id for r in dispatch.classify("nothing here")]
        for rule_id in always:
            assert rule_id in candidates

    def test_regex_triggers_see_real_digits(self):
        """Shape collapse must not be applied to regex triggers: this
        pattern only matches a run of >= 3 digits, which the collapsed
        shape ("0") never contains."""
        import re

        rules = [
            Rule(
                "T1", "t1", "t", "", lambda l, c: 0,
                trigger=re.compile(r"\d{3,}"),
            )
        ]
        dispatch = CompiledDispatch(rules)
        assert [r.rule_id for r in dispatch.classify("seq 12345 end")] == ["T1"]
        assert dispatch.classify("seq 12 end") == ()

    def test_describe_mentions_counts(self, anonymizer):
        text = anonymizer._dispatch_ios.describe()
        assert "CompiledDispatch(" in text and "rules=" in text


def _reference_overlap(a, b):
    """The plain offset loop the C-level scan must agree with: slice *b*
    against *a* at every offset of *a*."""
    if a == b:
        return False
    for offset in range(len(a)):
        take = min(len(b), len(a) - offset)
        if b[:take] == a[offset : offset + take]:
            return True
    return False


def _plugin_compositions():
    families = sorted(discover_plugins())
    return [tuple(families), ()] + [(family,) for family in families]


class TestLiteralOverlap:
    @settings(max_examples=400, deadline=None)
    @given(
        st.text(alphabet="ab0 1", max_size=7),
        st.text(alphabet="ab0 1", max_size=7),
    )
    @example("", "")
    @example("", "a")
    @example("a", "")
    def test_matches_offset_loop(self, a, b):
        assert _literal_overlap(a, b) == _reference_overlap(a, b)

    @pytest.mark.parametrize(
        "plugins", _plugin_compositions(), ids=lambda p: "+".join(p) or "none"
    )
    def test_closure_matches_reference(self, plugins, monkeypatch):
        engine = Anonymizer(AnonymizerConfig(salt=b"closure", plugins=plugins))
        built = [engine._dispatch_ios, engine._dispatch_junos]
        monkeypatch.setattr(dispatch_module, "_literal_overlap", _reference_overlap)
        for compiled in built:
            reference = CompiledDispatch(compiled.rules)
            assert compiled._group_masks == reference._group_masks
            assert compiled._literal_re.pattern == reference._literal_re.pattern

    def test_contained_literal_overlaps(self):
        assert _literal_overlap("set community ", "community ")
        assert _literal_overlap("set community ", "unity")

    def test_suffix_prefix_seam_overlaps(self):
        # An occurrence of "b" can hang off the end of a match of "ab".
        assert _literal_overlap("ab", "ba")

    def test_shared_start_overlaps(self):
        assert _literal_overlap("community", "community-list")
        assert _literal_overlap("community-list", "community")

    def test_disjoint_literals_do_not(self):
        assert not _literal_overlap("alpha", "zzz")
        assert not _literal_overlap("x", "x")  # identity excluded


class TestPrefilterFlag:
    def test_prefilter_off_still_byte_identical(self):
        configs = {
            "r1.cfg": (
                "hostname r1.corp.example\n"
                "ip address 10.1.2.3 255.255.255.0\n"
                "router bgp 701\n"
                " neighbor 6.1.1.1 remote-as 1239\n"
            )
        }
        on = Anonymizer(AnonymizerConfig(salt=b"pf2", rule_prefilter=True))
        off = Anonymizer(AnonymizerConfig(salt=b"pf2", rule_prefilter=False))
        assert (
            on.anonymize_network(dict(configs)).configs
            == off.anonymize_network(dict(configs)).configs
        )
