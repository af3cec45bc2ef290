"""Unit tests for smaller pieces: report accounting, rule context helpers,
JunOS comment stripping, secrets/KDF, validation plumbing, dialect corpus."""

import pytest

from repro.core import Anonymizer, AnonymizerConfig
from repro.core.comments import CommentStripper
from repro.core.report import AnonymizationReport
from repro.core.secrets import derive_key, normalize_salt
from repro.netutil import format_prefix, ip_to_int
from repro.validation.compare import ValidationResult, compare_values


class TestSecretsKdf:
    def test_normalize_salt(self):
        assert normalize_salt("abc") == b"abc"
        assert normalize_salt(b"abc") == b"abc"
        with pytest.raises(TypeError):
            normalize_salt(123)

    def test_purpose_separation(self):
        assert derive_key(b"s", "a") != derive_key(b"s", "b")
        assert derive_key(b"s1", "a") != derive_key(b"s2", "a")


class TestReport:
    def test_merge_accumulates(self):
        a = AnonymizationReport(lines_in=5, tokens_hashed=2)
        a.seen_asns.add(701)
        a.record_rule_hit("R10", 3)
        b = AnonymizationReport(lines_in=7, tokens_hashed=1)
        b.seen_asns.add(1239)
        b.record_rule_hit("R10", 1)
        b.flag("f", 3, "R14", "check me")
        a.merge(b)
        assert a.lines_in == 12
        assert a.tokens_hashed == 3
        assert a.seen_asns == {701, 1239}
        assert a.rule_hits["R10"] == 4
        assert len(a.flags) == 1

    def test_comment_fraction_zero_safe(self):
        assert AnonymizationReport().comment_word_fraction == 0.0

    def test_summary_renders(self):
        report = AnonymizationReport(lines_in=10, lines_out=9, words_in=100,
                                     comment_words_removed=5)
        text = report.summary()
        assert "5.00%" in text
        assert "10 in, 9 out" in text


class TestValidationPlumbing:
    def test_compare_values_records_difference(self):
        result = ValidationResult(suite="t", passed=True)
        compare_values(result, "x", 1, 1)
        assert result.passed
        compare_values(result, "y", 1, 2)
        assert not result.passed
        assert "y" in result.differences[0]

    def test_summary_format(self):
        result = ValidationResult(suite="t", passed=True)
        assert result.summary() == "[PASS] t"
        result.add_difference("boom")
        assert "[FAIL]" in result.summary()
        assert "boom" in result.summary()


class TestJunosCommentStripping:
    def _strip(self, text):
        return CommentStripper(junos=True).strip(text.splitlines())

    def test_block_comment_single_line(self):
        lines, stats = self._strip("/* juniper config */\nsystem {")
        assert lines == ["system {"]
        assert stats.comment_lines == 1

    def test_block_comment_multi_line(self):
        lines, stats = self._strip("/* one\ntwo words here\n*/\nsystem {")
        assert lines == ["system {"]
        assert stats.comment_words >= 4

    def test_unterminated_block_flagged(self):
        _, stats = self._strip("/* never closed\nsystem {")
        assert stats.flagged

    def test_hash_comment_lines(self):
        lines, stats = self._strip("# generated by ops\nsystem {")
        assert lines == ["system {"]

    def test_trailing_annotation_stripped(self):
        lines, stats = self._strip('    encrypted-password "x"; ## SECRET-DATA')
        assert lines == ['    encrypted-password "x";']
        assert stats.comment_lines == 1

    def test_description_removed(self):
        lines, _ = self._strip('    description "secret site";\n    mtu 1500;')
        assert lines == ["    mtu 1500;"]


class TestContextHelpers:
    def test_oversize_asn_flagged_not_mapped(self):
        anonymizer = Anonymizer(salt=b"c")
        ctx = anonymizer._make_context("t")
        assert ctx.map_asn_text("99999") == "99999"
        assert ctx.report.flags

    def test_special_ip_counted(self):
        anonymizer = Anonymizer(salt=b"c")
        ctx = anonymizer._make_context("t")
        ctx.map_ip_text("255.255.255.0")
        assert ctx.report.special_ips_preserved == 1
        assert ctx.report.ips_mapped == 0

    def test_private_ip_not_recorded_as_leakable(self):
        anonymizer = Anonymizer(salt=b"c")
        ctx = anonymizer._make_context("t")
        ctx.map_ip_text("10.1.2.3")
        assert ctx.report.seen_public_ips == set()
        ctx.map_ip_text("12.1.2.3")
        assert ip_to_int("12.1.2.3") in ctx.report.seen_public_ips


class TestNetutilFormat:
    def test_format_prefix(self):
        assert format_prefix(ip_to_int("10.1.0.0"), 16) == "10.1.0.0/16"


class TestEngineEdgeCases:
    def test_empty_config(self):
        assert Anonymizer(salt=b"e").anonymize_text("") == ""

    def test_whitespace_only_lines_preserved_shape(self):
        out = Anonymizer(salt=b"e").anonymize_text("router rip\n\n!\n")
        assert out.count("\n") == 3

    def test_report_counts_flags_in_summary(self):
        anonymizer = Anonymizer(salt=b"e")
        anonymizer.anonymize_text("ip as-path access-list 5 permit _70{2}_\n")
        assert len(anonymizer.report.flags) == 1
        assert "flags for human review: 1" in anonymizer.report.summary()

    def test_unparseable_regexp_neutralized_in_output(self):
        anonymizer = Anonymizer(salt=b"e")
        out = anonymizer.anonymize_text("ip as-path access-list 5 permit _70{2}_\n")
        assert "70{2}" not in out
        assert "never-match" in out
