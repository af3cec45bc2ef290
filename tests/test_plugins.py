"""Tests for the recognizer plugin registry (src/repro/plugins/).

Four contract groups:

* **Registry** — discovery is fail-soft (broken plugins are skipped with
  a named warning), activation by unknown family is a hard error, and
  out-of-tree files load via ``REPRO_PLUGINS``.
* **Dispatch** — every plugin rule's trigger is a necessary condition of
  its pattern (the compiled-dispatch prefilter contract), checked as a
  property over a corpus that exercises every plugin rule.
* **IPv6** — the 128-bit trie preserves common-prefix length at *every*
  bit depth, renders RFC 5952 canonical text, and passes specials
  through.
* **Round trip** — a generated EOS + IPv6 corpus anonymizes with zero
  textual leaks and with all pairwise prefix relationships intact; the
  frozen plugin set is pinned in snapshots, state docs, and journals.
"""

from __future__ import annotations

import itertools
import warnings
from pathlib import Path

import pytest

from repro.core import Anonymizer, AnonymizerConfig
from repro.core.ipanon import Prefix6PreservingMap
from repro.core.line import SegmentedLine
from repro.core.parallel import FrozenSnapshot
from repro.core.rulebase import Rule, compile_gate
from repro.core.runner import salt_fingerprint
from repro.core.state import StateError, export_state, import_state
from repro.core.status import EXIT_UNKNOWN_PLUGIN
from repro.attacks.textual import scan_for_leaks
from repro.iosgen import NetworkSpec, generate_network
from repro.netutil import int_to_ip6, ip6_to_int
from repro.plugins.base import RecognizerPlugin
from repro.plugins.registry import (
    ENV_PLUGIN_DISABLE,
    ENV_PLUGIN_PATHS,
    PluginRegistrationWarning,
    UnknownPluginError,
    discover_plugins,
    resolve_active_plugins,
)
from repro.service.journal import RecoveredSession, RecoveryError, replay_into

BUILTIN_FAMILIES = ("blobs", "eos", "ipv6")


def _eos_network():
    """A dual-stack multi-vendor corpus exercising every plugin rule."""
    spec = NetworkSpec(
        name="eos-net",
        kind="enterprise",
        seed=7,
        num_pops=2,
        eos_fraction=0.5,
    )
    return generate_network(spec)


@pytest.fixture(scope="module")
def eos_network():
    return _eos_network()


def _common_prefix_len(a: int, b: int) -> int:
    """Length of the shared leading bits of two 128-bit values."""
    if a == b:
        return 128
    return 128 - (a ^ b).bit_length()


# ---------------------------------------------------------------------------
# Registry behavior
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_builtin_families_discovered(self):
        available = discover_plugins()
        for family in BUILTIN_FAMILIES:
            assert family in available

    def test_unknown_family_is_hard_error(self):
        with pytest.raises(UnknownPluginError) as excinfo:
            resolve_active_plugins(["no-such-family"])
        assert "no-such-family" in str(excinfo.value)
        assert "available" in str(excinfo.value)

    def test_default_selection_is_sorted_families(self, monkeypatch):
        monkeypatch.delenv(ENV_PLUGIN_DISABLE, raising=False)
        active = [p.family for p in resolve_active_plugins()]
        assert active == sorted(active)
        for family in BUILTIN_FAMILIES:
            assert family in active

    def test_disable_env_prunes_default_selection(self, monkeypatch):
        monkeypatch.setenv(ENV_PLUGIN_DISABLE, "ipv6")
        active = [p.family for p in resolve_active_plugins()]
        assert "ipv6" not in active
        assert "eos" in active
        # An explicit selection overrides the disable list.
        explicit = [p.family for p in resolve_active_plugins(["ipv6"])]
        assert explicit == ["ipv6"]

    def test_broken_plugin_skipped_with_named_warning(
        self, tmp_path, monkeypatch
    ):
        broken = tmp_path / "broken_plugin.py"
        broken.write_text("raise RuntimeError('boom at import time')\n")
        monkeypatch.setenv(ENV_PLUGIN_PATHS, str(broken))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            available = discover_plugins(refresh=True)
        messages = [
            str(w.message)
            for w in caught
            if issubclass(w.category, PluginRegistrationWarning)
        ]
        assert any(str(broken) in m and "boom" in m for m in messages)
        # A broken plugin degrades coverage; it never takes down the rest.
        for family in BUILTIN_FAMILIES:
            assert family in available

    def test_plugin_without_export_skipped(self, tmp_path, monkeypatch):
        empty = tmp_path / "no_export.py"
        empty.write_text("x = 1\n")
        monkeypatch.setenv(ENV_PLUGIN_PATHS, str(empty))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            discover_plugins(refresh=True)
        assert any(
            issubclass(w.category, PluginRegistrationWarning)
            and "no PLUGIN" in str(w.message)
            for w in caught
        )

    def test_duplicate_family_skipped(self, tmp_path, monkeypatch):
        clash = tmp_path / "clash.py"
        clash.write_text(
            "from repro.plugins.base import RecognizerPlugin\n"
            "class Clash(RecognizerPlugin):\n"
            "    family = 'ipv6'\n"
            "PLUGIN = Clash()\n"
        )
        monkeypatch.setenv(ENV_PLUGIN_PATHS, str(clash))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            available = discover_plugins(refresh=True)
        assert any(
            issubclass(w.category, PluginRegistrationWarning)
            and "already registered" in str(w.message)
            for w in caught
        )
        # The builtin ipv6 plugin (registered first) wins.
        assert type(available["ipv6"]).__name__ == "IPv6Plugin"

    def test_out_of_tree_plugin_activates(self, tmp_path, monkeypatch):
        example = tmp_path / "example_plugin.py"
        example.write_text(
            "import re\n"
            "from repro.core.rulebase import Rule\n"
            "from repro.plugins.base import RecognizerPlugin\n"
            "PATTERN = re.compile(r'(\\bexample-token )(\\S+)')\n"
            "def _apply(line, ctx):\n"
            "    def handler(match):\n"
            "        return [(match.group(1), True),\n"
            "                (ctx.hash_secret(match.group(2)), True)]\n"
            "    return line.apply_rule(PATTERN, handler)\n"
            "class Example(RecognizerPlugin):\n"
            "    family = 'example'\n"
            "    rule_prefix = 'Z'\n"
            "    def build_rules(self):\n"
            "        return [Rule('Z1', 'example', 'misc', 'example rule',\n"
            "                     _apply, trigger='example-token')]\n"
            "PLUGIN = Example()\n"
        )
        monkeypatch.setenv(ENV_PLUGIN_PATHS, str(example))
        discover_plugins(refresh=True)
        engine = Anonymizer(
            AnonymizerConfig(salt=b"oot", plugins=("example",))
        )
        assert engine.active_plugin_families == ("example",)
        out, _ = engine.anonymize_file(
            "example-token hunter2\n", source="r1.cfg"
        )
        assert "hunter2" not in out


# ---------------------------------------------------------------------------
# Dispatch contract
# ---------------------------------------------------------------------------


class TestDispatchContract:
    def test_plugin_rule_fires_implies_gate_passes(self, eos_network):
        """Property over a dual-stack corpus: whenever a plugin rule
        rewrites a line, its compiled trigger gate accepts that line."""
        reference = Anonymizer(
            AnonymizerConfig(salt=b"gate6", plugins=BUILTIN_FAMILIES)
        )
        lines = set()
        for text in eos_network.configs.values():
            lines.update(text.splitlines())
        lines.update(
            [
                " IPV6 address 2001:DB8::1/64",
                "enable secret sha512 $6$aaaa$bbbb",
                "   match as-range 64500-64510",
                " protocol https certificate a.crt key a.key",
                "username ops sshkey ssh-rsa AAAAB3NzaC1yc2EAAAADAQ ops@x",
                "snmp-server user ops grp v3 auth sha pw priv aes 128 pw2",
                "no rules here at all",
                # Shape triggers and the raw MAC regex.
                "ip route 10.1.0.0/16 Null0",
                "ipv6 route 2001:DB8::/32 FE80::1",
                " 2001:db8:0:0:1:0:0:1",
                "neighbor 2001:db8:0:1::7 remote-as 65001",
                " mac-address aabb.ccdd.eeff",
            ]
        )
        plugin_rules = [
            rule for rule in reference.rules if rule.rule_id[0] in "VBE"
        ]
        assert plugin_rules, "plugin rules must be composed into the engine"
        for rule in plugin_rules:
            if rule.apply is None:
                continue
            gate = compile_gate(rule.trigger)
            if gate is None:
                continue
            for raw_line in lines:
                ctx = reference._make_context("gate6")
                hits = rule.apply(SegmentedLine(raw_line), ctx)
                if hits:
                    assert gate(raw_line.lower()), (
                        "plugin rule {} fired on {!r} but its prefilter "
                        "gate rejected the line".format(rule.rule_id, raw_line)
                    )

    def test_too_narrow_trigger_is_detected_by_the_property(self):
        """A rule whose trigger misses lines its pattern rewrites fails
        the superset property — the exact bug the contract exists for."""
        import re

        pattern = re.compile(r"(\bsecret )(\S+)")

        def _apply(line, ctx):
            def handler(match):
                return [(match.group(1), True), ("X", True)]

            return line.apply_rule(pattern, handler)

        bad = Rule(
            "X9",
            "bad-trigger",
            "misc",
            "trigger is not a necessary condition of the pattern",
            _apply,
            trigger="zzz-never-there",
        )
        gate = compile_gate(bad.trigger)
        ctx = Anonymizer(salt=b"narrow")._make_context("t")
        line_text = "enable secret hunter2"
        hits = bad.apply(SegmentedLine(line_text), ctx)
        assert hits  # the pattern rewrites the line ...
        assert not gate(line_text.lower())  # ... but the gate rejects it

    def test_plugin_rules_precede_builtin_rules(self):
        engine = Anonymizer(
            AnonymizerConfig(salt=b"order", plugins=BUILTIN_FAMILIES)
        )
        applied = [r.rule_id for r in engine.rules if r.apply is not None]
        first_builtin = min(
            i for i, rid in enumerate(applied) if rid.startswith("R")
        )
        plugin_positions = [
            i for i, rid in enumerate(applied) if rid[0] in "VBE"
        ]
        assert plugin_positions and max(plugin_positions) < first_builtin


# ---------------------------------------------------------------------------
# CLI flags
# ---------------------------------------------------------------------------


class TestCliPluginFlags:
    def _write_corpus(self, tmp_path) -> str:
        config = tmp_path / "r1.cfg"
        config.write_text("router bgp 701\n")
        return str(config)

    def test_unknown_plugin_distinct_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write_corpus(tmp_path)
        rc = main([path, "--salt", "s", "--plugins", "nonexistent"])
        assert rc == EXIT_UNKNOWN_PLUGIN
        err = capsys.readouterr().err
        assert "nonexistent" in err and "available" in err

    def test_no_plugins_runs_clean(self, tmp_path):
        from repro.cli import main

        path = self._write_corpus(tmp_path)
        out_dir = tmp_path / "out"
        assert (
            main([path, "--salt", "s", "--no-plugins",
                  "--out-dir", str(out_dir)])
            == 0
        )

    def test_plugins_and_no_plugins_conflict(self, tmp_path):
        from repro.cli import main

        path = self._write_corpus(tmp_path)
        with pytest.raises(SystemExit):
            main([path, "--salt", "s", "--plugins", "ipv6", "--no-plugins"])


# ---------------------------------------------------------------------------
# IPv6 prefix preservation
# ---------------------------------------------------------------------------


class TestIPv6PrefixPreservation:
    def test_common_prefix_preserved_at_every_bit_length(self):
        """For each k in 0..128: addresses sharing *exactly* k leading
        bits map to addresses sharing exactly k leading bits."""
        mapper = Prefix6PreservingMap(b"v6-prop")
        base = ip6_to_int("2001:db8:85a3:8d3:1319:8a2e:370:7344")
        for k in range(128):
            other = base ^ (1 << (127 - k))
            assert _common_prefix_len(base, other) == k
            mapped_base = mapper.map_int(base)
            mapped_other = mapper.map_int(other)
            assert _common_prefix_len(mapped_base, mapped_other) == k, (
                "common prefix of length {} not preserved".format(k)
            )
        # k == 128: equal inputs map equally (it is a function).
        assert mapper.map_int(base) == mapper.map_int(base)

    def test_output_is_rfc5952_canonical(self):
        import ipaddress

        mapper = Prefix6PreservingMap(b"v6-canon")
        for text in (
            "2001:db8::1",
            "2001:0DB8:0000:0000:0000:0000:0000:0001",
            "2001:db8:0:0:0:0:0:1",
        ):
            mapped = mapper.map_address(text)
            assert mapped == str(ipaddress.IPv6Address(mapped))
        # One address, three spellings, one output: cross-file consistency.
        outputs = {
            mapper.map_address("2001:db8::1"),
            mapper.map_address("2001:0DB8::0001"),
            mapper.map_address("2001:db8:0:0:0:0:0:1"),
        }
        assert len(outputs) == 1

    def test_specials_pass_through(self):
        mapper = Prefix6PreservingMap(b"v6-special")
        for text in ("::", "::1", "ff02::1", "ff05::2"):
            assert mapper.map_address(text) == text

    def test_frozen_map_is_order_independent(self):
        addresses = [
            "2001:db8::1",
            "2001:db8::2",
            "2001:db8:1::",
            "fd00::5",
            "2620:0:2d0:200::7",
        ]
        values = [ip6_to_int(a) for a in addresses]
        first = Prefix6PreservingMap(b"frz6")
        first.freeze(values)
        second = Prefix6PreservingMap(b"frz6")
        second.freeze(reversed(values))
        forward = [first.map_address(a) for a in addresses]
        backward = [second.map_address(a) for a in reversed(addresses)]
        assert forward == list(reversed(backward))

    def test_subnet_shaping_pins_zero_tails(self):
        mapper = Prefix6PreservingMap(b"shape6", subnet_shaping=True)
        anchor = ip6_to_int("2001:db8:17::")  # 80 trailing zero bits
        mapper.freeze([anchor])
        mapped = mapper.map_int(anchor)
        assert mapped & ((1 << 80) - 1) == 0
        assert int_to_ip6(mapped).endswith("::")

    def test_dense_freeze_does_not_pin_routing_prefix(self):
        # Every /48 of 2001:db8::/40 in use and in the shaping set: bits
        # 32-47 must not come out unchanged, as they would if each zero
        # tail below 2001:db8:: were pinned in full.
        values = [ip6_to_int("2001:db8::")]
        for site in range(256):
            base = ip6_to_int("2001:db8:{:x}::".format(site))
            values += [base, base | (1 << 64), base | (1 << 64) | 1]
        field = ((1 << 16) - 1) << 80
        kept = total = 0
        for salt in range(4):
            mapper = Prefix6PreservingMap(b"dense6-%d" % salt)
            mapper.freeze(values)
            for value in set(values):
                mapped = mapper.map_int(value)
                total += 1
                kept += (mapped ^ value) & field == 0
        assert kept / total < 0.01


# ---------------------------------------------------------------------------
# Blob fail-closed behavior
# ---------------------------------------------------------------------------


class TestBlobFailClosed:
    def test_unterminated_pem_never_leaks_partial_material(self):
        text = (
            "hostname r1.corp.example\n"
            "-----BEGIN CERTIFICATE-----\n"
            "MIIBpartialKeyMaterialThatMustNotSurvive+base64==\n"
        )
        engine = Anonymizer(
            AnonymizerConfig(salt=b"blob", plugins=("blobs",))
        )
        out, _ = engine.anonymize_file(text, source="r1.cfg")
        assert "MIIBpartialKeyMaterial" not in out
        assert "BEGIN CERTIFICATE" not in out
        assert "REPRO-BLOB-PARTIAL" in out

    def test_complete_pem_replaced_by_digest_placeholder(self):
        text = (
            "hostname r1.corp.example\n"
            "-----BEGIN CERTIFICATE-----\n"
            "MIIBCompleteBlockOfKeyMaterial+base64lines==\n"
            "-----END CERTIFICATE-----\n"
            "router bgp 701\n"
        )
        engine = Anonymizer(
            AnonymizerConfig(salt=b"blob", plugins=("blobs",))
        )
        out, _ = engine.anonymize_file(text, source="r1.cfg")
        assert "MIIBComplete" not in out
        assert "REPRO-PEM-BLOB" in out
        assert "router bgp" in out  # the rest of the file still flows

    def test_file_without_blob_markers_returned_untouched(self):
        from repro.plugins.builtin.blobs import BlobBlockFilter

        engine = Anonymizer(AnonymizerConfig(salt=b"blob", plugins=("blobs",)))
        lines = ["hostname r1", " crypto key generate rsa", "end"]
        ctx = engine._make_context("r1.cfg")
        assert BlobBlockFilter()(lines, ctx) is lines
        assert ctx.report.rule_hits.get("B1", 0) == 0

    def test_mixed_case_certificate_header_still_filtered(self):
        text = (
            "crypto pki certificate chain TP\n"
            " CERTIFICATE ca 01\n"
            "  30820229 30820192 A0030201 02020101\n"
            "  quit\n"
        )
        engine = Anonymizer(AnonymizerConfig(salt=b"blob", plugins=("blobs",)))
        out, _ = engine.anonymize_file(text, source="r1.cfg")
        assert "REPRO-CERT-BLOB" in out
        assert "30820229" not in out

    @pytest.mark.parametrize("header", ["CERT\u0131F\u0131CATE", "CERT\u0130F\u0130CATE"])
    def test_dotless_and_dotted_i_certificate_header_still_filtered(self, header):
        """The header regex is IGNORECASE, which matches ``i`` with
        ``\u0131`` and ``\u0130``; str.lower() does not fold them to ``i``,
        so the whole-file skip must not be a plain lowered scan."""
        text = (
            "crypto pki trustpoint TP\n"
            " {} ca 01\n".format(header)
            + "  30820229 30820192 A0030201 02020101\n"
            "  quit\n"
        )
        engine = Anonymizer(AnonymizerConfig(salt=b"blob", plugins=("blobs",)))
        out, _ = engine.anonymize_file(text, source="r1.cfg")
        assert "REPRO-CERT-BLOB" in out
        assert "30820229" not in out


# ---------------------------------------------------------------------------
# EOS + IPv6 corpus round trip
# ---------------------------------------------------------------------------


class TestEosCorpusRoundTrip:
    def test_zero_textual_leaks(self, eos_network):
        anonymizer = Anonymizer(
            AnonymizerConfig(salt=b"eos-e2e", plugins=BUILTIN_FAMILIES)
        )
        result = anonymizer.anonymize_network(dict(eos_network.configs))
        report = anonymizer.report
        leaks = scan_for_leaks(
            result.configs,
            seen_asns=report.seen_asns,
            hashed_tokens=anonymizer.hasher.hashed_inputs.keys(),
            public_ips=report.seen_public_ips,
        )
        assert leaks == []

    def test_original_ipv6_literals_absent_from_output(self, eos_network):
        from repro.plugins.builtin.ipv6 import CANDIDATE_RE

        anonymizer = Anonymizer(
            AnonymizerConfig(salt=b"eos-e2e", plugins=BUILTIN_FAMILIES)
        )
        result = anonymizer.anonymize_network(dict(eos_network.configs))
        originals = set()
        for text in eos_network.configs.values():
            for match in CANDIDATE_RE.finditer(text):
                token = match.group(1)
                if token.count(":") >= 2:
                    try:
                        originals.add(ip6_to_int(token))
                    except ValueError:
                        continue
        assert originals, "the EOS corpus must actually carry IPv6"
        joined = "\n".join(result.configs.values())
        for value in originals:
            if value in anonymizer.ip6_map.specials:
                continue
            assert int_to_ip6(value) not in joined

    def test_corpus_prefix_relationships_preserved(self, eos_network):
        from repro.plugins.builtin.ipv6 import CANDIDATE_RE

        anonymizer = Anonymizer(
            AnonymizerConfig(salt=b"eos-e2e", plugins=BUILTIN_FAMILIES)
        )
        anonymizer.anonymize_network(dict(eos_network.configs))
        values = set()
        for text in eos_network.configs.values():
            for match in CANDIDATE_RE.finditer(text):
                token = match.group(1)
                if token.count(":") >= 2:
                    try:
                        value = ip6_to_int(token)
                    except ValueError:
                        continue
                    if value not in anonymizer.ip6_map.specials:
                        values.add(value)
        assert len(values) > 10
        mapped = {v: anonymizer.ip6_map.map_int(v) for v in values}
        for a, b in itertools.combinations(sorted(values), 2):
            assert _common_prefix_len(a, b) == _common_prefix_len(
                mapped[a], mapped[b]
            )

    def test_plugin_rules_all_fire_on_the_corpus(self, eos_network):
        anonymizer = Anonymizer(
            AnonymizerConfig(salt=b"eos-e2e", plugins=BUILTIN_FAMILIES)
        )
        anonymizer.anonymize_network(dict(eos_network.configs))
        hits = anonymizer.report.rule_hits
        for rule_id in ("V1", "E1", "E2", "E3", "B1", "B2", "B3"):
            assert hits.get(rule_id, 0) > 0, (
                "{} never fired on the EOS corpus".format(rule_id)
            )


# ---------------------------------------------------------------------------
# Plugin-set pinning: snapshots, state docs, journals
# ---------------------------------------------------------------------------


class TestPluginSetPinning:
    def test_snapshot_pins_plugin_set_against_worker_env(self, monkeypatch):
        monkeypatch.delenv(ENV_PLUGIN_DISABLE, raising=False)
        parent = Anonymizer(AnonymizerConfig(salt=b"pin"))
        assert "ipv6" in parent.active_plugin_families
        parent.freeze_mappings(
            {"r1.cfg": "interface Loopback0\n ipv6 address 2001:db8::7/64\n"}
        )
        expected = parent.ip6_map.map_address("2001:db8::7")
        snapshot = FrozenSnapshot.capture(parent)
        # A worker whose environment would drop ipv6 from the default set
        # must still restore the frozen composition.
        monkeypatch.setenv(ENV_PLUGIN_DISABLE, "ipv6")
        restored = snapshot.restore()
        assert restored.active_plugin_families == parent.active_plugin_families
        assert restored.ip6_map is not None
        assert restored.frozen and restored.ip6_map.shaping == parent.ip6_map.shaping
        assert restored.ip6_map.map_address("2001:db8::7") == expected

    def test_state_doc_records_and_restores_ip6_trie(self):
        first = Anonymizer(
            AnonymizerConfig(salt=b"st6", plugins=BUILTIN_FAMILIES)
        )
        first.freeze_mappings(
            {"r1.cfg": "ipv6 address 2001:db8:85a3::/64\nntp server 2001:db8:85a3::1\n"}
        )
        first.ip6_map.map_address("2001:db8:85a3::8a2e:370:7334")
        document = export_state(first)
        assert sorted(document["active_plugins"]) == sorted(
            first.active_plugin_families
        )
        second = Anonymizer(
            AnonymizerConfig(salt=b"st6", plugins=BUILTIN_FAMILIES)
        )
        import_state(second, document)
        assert second.ip6_map.shaping == first.ip6_map.shaping == {
            ip6_to_int("2001:db8:85a3::")
        }
        assert second.ip6_map.map_address("2001:db8:85a3::") == (
            first.ip6_map.map_address("2001:db8:85a3::")
        )
        assert (
            second.ip6_map.addresses_mapped == first.ip6_map.addresses_mapped
        )

    def test_state_import_refuses_plugin_mismatch(self):
        exporter = Anonymizer(
            AnonymizerConfig(salt=b"st-mismatch", plugins=("ipv6",))
        )
        document = export_state(exporter)
        importer = Anonymizer(
            AnonymizerConfig(salt=b"st-mismatch", plugins=())
        )
        with pytest.raises(StateError) as excinfo:
            import_state(importer, document)
        assert "plugins" in str(excinfo.value)

    def test_legacy_state_doc_without_plugin_field_imports(self):
        exporter = Anonymizer(AnonymizerConfig(salt=b"legacy"))
        document = export_state(exporter)
        document.pop("active_plugins")
        document.pop("ip6_shaping", None)
        document.pop("ip6_counters", None)
        importer = Anonymizer(AnonymizerConfig(salt=b"legacy"))
        import_state(importer, document)  # must not raise

    def test_journal_replay_refuses_plugin_mismatch(self, tmp_path):
        salt = b"journal-pin"
        recovered = RecoveredSession(
            session_id="s1",
            directory=Path(tmp_path),
            meta={
                "salt_fingerprint": salt_fingerprint(salt),
                "active_plugins": ["blobs", "eos", "ipv6"],
            },
            snapshot=None,
            records=[],
            valid_length=0,
            torn_discarded=0,
        )
        mismatched = Anonymizer(AnonymizerConfig(salt=salt, plugins=()))
        with pytest.raises(RecoveryError) as excinfo:
            replay_into(mismatched, recovered)
        assert "plugins" in str(excinfo.value)
        matching = Anonymizer(
            AnonymizerConfig(salt=salt, plugins=("blobs", "eos", "ipv6"))
        )
        outcome = replay_into(matching, recovered)
        assert outcome["requests_replayed"] == 0
