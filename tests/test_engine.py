"""End-to-end engine tests, centered on the paper's Figure 1 (experiment E1)."""

import re

import pytest

from repro.core import Anonymizer, AnonymizerConfig
from repro.core.regexlang import asn_language
from repro.netutil import classful_prefix_len, ip_to_int, network_address


class TestFigure1:
    """Every transformation Section 2 requires of the Figure 1 config."""

    @pytest.fixture(autouse=True)
    def _setup(self, figure1_text):
        self.anon = Anonymizer(salt=b"foo-corp-secret")
        self.output = self.anon.anonymize_text(figure1_text)
        self.lines = self.output.splitlines()

    def test_comments_and_banner_stripped(self):
        assert "FooNet" not in self.output
        assert "prohibited" not in self.output
        assert "description" not in self.output
        assert "banner" not in self.output

    def test_hostname_hashed(self):
        assert "foo.com" not in self.output
        assert "cr1.lax" not in self.output
        hostname_line = [l for l in self.lines if l.startswith("hostname")][0]
        assert hostname_line != "hostname cr1.lax.foo.com"

    def test_owner_asn_permuted(self):
        expected = self.anon.asn_map.map_asn(1111)
        assert "router bgp {}".format(expected) in self.output
        assert not re.search(r"\brouter bgp 1111\b", self.output)

    def test_peer_asn_permuted(self):
        expected = self.anon.asn_map.map_asn(701)
        assert "remote-as {}".format(expected) in self.output

    def test_netmasks_unchanged(self):
        assert "255.255.255.0" in self.output
        assert "255.255.255.252" in self.output
        assert "0.0.0.255" in self.output
        assert "0.255.255.255" in self.output

    def test_public_addresses_mapped(self):
        for original in ("1.1.1.1", "1.2.3.4", "2.3.4.5"):
            assert not re.search(
                r"(?<![\d.])" + re.escape(original) + r"(?![\d.])", self.output
            )

    def test_route_map_referential_integrity(self):
        # The `uses` relationship: the neighbor reference and the
        # definitions must share the same (hashed) name.
        refs = re.findall(r"route-map (\S+) (?:in|out)", self.output)
        defs = re.findall(r"^route-map (\S+) (?:permit|deny)", self.output, re.M)
        assert refs and defs
        assert set(refs) <= set(defs)

    def test_route_map_name_hashed(self):
        assert "UUNET" not in self.output

    def test_subnet_contains_relationship_preserved(self):
        # RIP `network` statement must still cover the Ethernet0 address.
        rip_net = re.search(r"^ network (\S+)$", self.output, re.M).group(1)
        eth_addr = re.search(r"ip address (\S+) 255.255.255.0", self.output).group(1)
        net_value = ip_to_int(rip_net)
        addr_value = ip_to_int(eth_addr)
        length = classful_prefix_len(net_value)
        assert network_address(addr_value, length) == net_value

    def test_class_preserved_for_classful_commands(self):
        rip_net = re.search(r"^ network (\S+)$", self.output, re.M).group(1)
        assert classful_prefix_len(ip_to_int(rip_net)) == 8  # class A stays A

    def test_aspath_regexp_rewritten_to_permuted_language(self):
        line = [l for l in self.lines if "as-path access-list" in l][0]
        pattern = line.split("permit ", 1)[1]
        original_language = asn_language("(_1239_|_70[2-5]_)")
        expected = {self.anon.asn_map.map_asn(n) for n in original_language}
        assert asn_language(pattern) == expected

    def test_community_regexp_rewritten(self):
        line = [l for l in self.lines if "community-list" in l][0]
        mapped_asn = str(self.anon.asn_map.map_asn(701))
        assert mapped_asn in line
        assert "701:7" not in line

    def test_set_community_mapped(self):
        expected = "{}:{}".format(
            self.anon.asn_map.map_asn(701), self.anon.community.map_value(7100)
        )
        assert "set community {}".format(expected) in self.output

    def test_interface_types_survive(self):
        assert "interface Ethernet0" in self.output
        assert "interface Serial1/0.5 point-to-point" in self.output

    def test_acl_wildcard_pair_semantics(self):
        acl = [l for l in self.lines if l.startswith("access-list 143")][0]
        parts = acl.split()
        base, wildcard = parts[4], parts[5]
        assert wildcard == "0.0.0.255"
        # Mapped Ethernet0 address must fall inside the rewritten range.
        eth_addr = re.search(r"ip address (\S+) 255.255.255.0", self.output).group(1)
        mask = (~ip_to_int(wildcard)) & 0xFFFFFFFF
        assert ip_to_int(eth_addr) & mask == ip_to_int(base) & mask

    def test_no_flags_raised(self):
        assert self.anon.report.flags == []


class TestDeterminism:
    def test_same_salt_same_output(self, figure1_text):
        out1 = Anonymizer(salt=b"s1").anonymize_text(figure1_text)
        out2 = Anonymizer(salt=b"s1").anonymize_text(figure1_text)
        assert out1 == out2

    def test_different_salt_different_output(self, figure1_text):
        out1 = Anonymizer(salt=b"s1").anonymize_text(figure1_text)
        out2 = Anonymizer(salt=b"s2").anonymize_text(figure1_text)
        assert out1 != out2

    def test_string_salt_accepted(self, figure1_text):
        out1 = Anonymizer(salt="text-salt").anonymize_text(figure1_text)
        out2 = Anonymizer(salt=b"text-salt").anonymize_text(figure1_text)
        assert out1 == out2


class TestNetworkLevel:
    def test_cross_file_consistency(self):
        anon = Anonymizer(salt=b"net")
        a = anon.anonymize_text("interface Loopback0\n ip address 6.0.0.1 255.255.255.255\n")
        b = anon.anonymize_text(" neighbor 6.0.0.1 remote-as 65001\n")
        loop = re.search(r"ip address (\S+)", a).group(1)
        neigh = re.search(r"neighbor (\S+)", b).group(1)
        assert loop == neigh

    def test_anonymize_network_renames_files(self):
        anon = Anonymizer(salt=b"net2")
        result = anon.anonymize_network({"cr1.foo.com": "hostname cr1.foo.com\n"})
        assert "cr1.foo.com" not in result.configs
        assert result.name_map["cr1.foo.com"] in result.configs

    def test_report_accumulates(self):
        anon = Anonymizer(salt=b"net3")
        anon.anonymize_text("router bgp 701\n")
        anon.anonymize_text("router bgp 1239\n")
        assert anon.report.asns_mapped == 2
        assert anon.report.lines_in == 2


class TestConfigOptions:
    def test_keep_comments(self):
        config = AnonymizerConfig(salt=b"s", strip_comments=False)
        out = Anonymizer(config).anonymize_text(" description hello world\n")
        assert "description" in out  # line kept (words still hashed)

    def test_config_and_kwargs_mutually_exclusive(self):
        with pytest.raises(TypeError):
            Anonymizer(AnonymizerConfig(salt=b"s"), salt=b"t")

    def test_invalid_regex_style_rejected(self):
        with pytest.raises(ValueError):
            AnonymizerConfig(salt=b"s", regex_style="bogus")

    def test_mindfa_style_end_to_end(self, figure1_text):
        config = AnonymizerConfig(salt=b"s", regex_style="mindfa")
        anon = Anonymizer(config)
        out = anon.anonymize_text(figure1_text)
        line = [l for l in out.splitlines() if "as-path access-list" in l][0]
        pattern = line.split("permit ", 1)[1]
        expected = {anon.asn_map.map_asn(n) for n in asn_language("(_1239_|_70[2-5]_)")}
        assert asn_language(pattern) == expected

    def test_disabled_rules(self):
        config = AnonymizerConfig(salt=b"s", disabled_rules=frozenset({"R10"}))
        out = Anonymizer(config).anonymize_text("router bgp 701\n")
        assert out == "router bgp 701\n"

    def test_trailing_newline_preserved(self):
        anon = Anonymizer(salt=b"s")
        assert anon.anonymize_text("router rip\n").endswith("\n")
        assert not anon.anonymize_text("router rip").endswith("\n")


class TestFreezeShaping:
    def test_freeze_guarantees_subnet_shaping(self):
        from repro.netutil import ip_to_int, trailing_zero_bits

        # Hosts appear BEFORE their subnet addresses in the file: trie
        # shaping in encounter order is best-effort here, the freeze makes
        # it exact.
        config = "\n".join(
            [" ip address 10.{}.{}.{} 255.255.255.0".format(i, j, 5)
             for i in range(1, 4) for j in range(1, 4)]
            + ["access-list 10 permit 10.{}.{}.0 0.0.0.255".format(i, j)
               for i in range(1, 4) for j in range(1, 4)]
        )
        anon = Anonymizer(salt=b"tp2")
        result = anon.anonymize_network({"r1": config})
        text = next(iter(result.configs.values()))
        import re as _re

        bases = _re.findall(r"access-list 10 permit (\S+) 0.0.0.255", text)
        assert bases
        for base in bases:
            assert trailing_zero_bits(ip_to_int(base)) >= 8, base

    def test_dense_network_does_not_map_to_itself(self):
        # One classful /8 with every /24 of 32.0.0.0/16 in use: the
        # freeze inserts 32.0.0.0, 32.a.0.0, 32.a.b.0 first, and pinning
        # their whole zero tails would leave the middle two octets of
        # every address unchanged (and, for a quarter of salts, whole
        # addresses).  Shaping pins only the last octet.
        lines = ["ip route 32.0.0.0 255.0.0.0 Null0"]
        for a in range(16):
            for b in range(16):
                lines.append("network 32.{}.{}.0 0.0.0.255 area 0".format(a, b))
                for host in (1, 2, 5, 9, 130):
                    lines.append(
                        " ip address 32.{}.{}.{} 255.255.255.0".format(a, b, host)
                    )
        configs = {"r1": "\n".join(lines) + "\n"}
        fixed = kept = total = 0
        for salt in range(8):
            anon = Anonymizer(salt=b"dense-%d" % salt)
            anon.freeze_mappings(configs)
            ip_map = anon.ip_map
            for value in anon._scan_addresses(configs["r1"].split()):
                if value in ip_map.specials:
                    continue
                mapped = ip_map.raw_map(value)
                total += 1
                fixed += mapped == value
                kept += (mapped ^ value) & 0x00FFFF00 == 0
        assert total == 8 * 16 * 16 * 6
        assert fixed / total < 0.01
        assert kept / total < 0.01

    def test_output_is_file_order_independent(self):
        configs_a = {"a": "logging 6.1.1.1\n", "b": "logging 6.2.2.2\n"}
        configs_b = {"b": "logging 6.2.2.2\n", "a": "logging 6.1.1.1\n"}
        out1 = Anonymizer(salt=b"tp3").anonymize_network(dict(configs_a))
        out2 = Anonymizer(salt=b"tp3").anonymize_network(dict(configs_b))
        assert out1.configs == out2.configs
