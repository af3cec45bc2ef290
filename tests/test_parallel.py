"""Tests for the parallel anonymization pipeline and the rule prefilter.

The headline guarantee: parallel output is byte-identical to sequential
output for any worker count, because all mapping state is frozen before
any rewriting happens.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.core import Anonymizer, AnonymizerConfig, parallel
from repro.core.context import RuleContext
from repro.core.engine import FreezeStats
from repro.core.line import SegmentedLine
from repro.core.parallel import FrozenSnapshot, _rewrite_with, anonymize_files
from repro.core.rulebase import compile_gate
from repro.iosgen import NetworkSpec, generate_network
from repro.netutil import ip_to_int

JUNOS_CONFIG = """\
system {
    host-name core1.pop3.example.net;
    root-authentication {
        encrypted-password "$1$abadsecret$xyz";
    }
}
protocols {
    bgp {
        group transit {
            peer-as 1239;
            neighbor 6.4.2.9;
        }
    }
}
policy-options {
    as-path from-sprint "1239 .*";
    community cust-tag members [ 701:120 701:121 ];
    policy-statement tag-it {
        term one {
            then {
                community add cust-tag;
                as-path-prepend "65001 65001";
            }
        }
    }
}
"""

ISIS_CONFIG = """\
hostname isis-r1.corp.example
interface Loopback0
 ip address 6.0.0.3 255.255.255.255
router isis
 net 49.0001.1720.3125.5254.00
 is-type level-2-only
"""


def _network_configs():
    """A multi-file synthetic network exercising every rule family."""
    spec = NetworkSpec(
        name="par-net",
        kind="enterprise",
        seed=23,
        num_pops=3,
        igp="isis",
        lans_per_access=(2, 4),
        static_burst=(0, 3),
        use_community_regexps=True,
        dialer_backup=True,
        comment_density=0.3,
    )
    configs = dict(generate_network(spec).configs)
    configs["core1.pop3.example.net"] = JUNOS_CONFIG
    configs["isis-r1.corp.example"] = ISIS_CONFIG
    return configs


HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="fork start method unavailable on this platform"
)
#: Every snapshot transport this platform can run.
_TRANSPORTS = (("fork",) if HAS_FORK else ()) + ("shm", "pickle")


@pytest.fixture(scope="module")
def network_configs():
    return _network_configs()


@pytest.fixture(scope="module")
def sequential_run(network_configs):
    """The jobs=1 freeze-then-rewrite baseline every worker count must hit."""
    anonymizer = Anonymizer(salt=b"parallel-secret")
    result = anonymizer.anonymize_network(dict(network_configs), jobs=1)
    return anonymizer, result


class TestParallelByteIdentity:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_output_matches_sequential(self, network_configs, sequential_run, jobs):
        _, expected = sequential_run
        anonymizer = Anonymizer(salt=b"parallel-secret")
        result = anonymizer.anonymize_network(dict(network_configs), jobs=jobs)
        assert result.configs == expected.configs
        assert result.name_map == expected.name_map

    def test_config_default_jobs_used(self, network_configs, sequential_run):
        _, expected = sequential_run
        config = AnonymizerConfig(salt=b"parallel-secret", jobs=2)
        result = Anonymizer(config).anonymize_network(dict(network_configs))
        assert result.configs == expected.configs

    def test_file_order_does_not_matter(self, network_configs, sequential_run):
        _, expected = sequential_run
        reordered = dict(reversed(list(network_configs.items())))
        anonymizer = Anonymizer(salt=b"parallel-secret")
        result = anonymizer.anonymize_network(reordered, jobs=2)
        assert result.configs == expected.configs


class TestMergedReport:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_report_counters_equal_sequential(
        self, network_configs, sequential_run, jobs
    ):
        sequential_anon, _ = sequential_run
        anonymizer = Anonymizer(salt=b"parallel-secret")
        anonymizer.anonymize_network(dict(network_configs), jobs=jobs)
        assert anonymizer.report.to_dict() == sequential_anon.report.to_dict()
        assert anonymizer.report.seen_asns == sequential_anon.report.seen_asns
        assert (
            anonymizer.report.seen_public_ips
            == sequential_anon.report.seen_public_ips
        )

    def test_hashed_inputs_complete_after_parallel_run(
        self, network_configs, sequential_run
    ):
        # The leak scanner's ground truth must not lose tokens that were
        # hashed only inside worker processes.
        sequential_anon, _ = sequential_run
        anonymizer = Anonymizer(salt=b"parallel-secret")
        anonymizer.anonymize_network(dict(network_configs), jobs=2)
        assert dict(anonymizer.hasher.hashed_inputs) == dict(
            sequential_anon.hasher.hashed_inputs
        )


class TestFreezePhase:
    def test_freeze_stats_cover_corpus(self, network_configs):
        anonymizer = Anonymizer(salt=b"freeze")
        stats = anonymizer.freeze_mappings(dict(network_configs))
        assert isinstance(stats, FreezeStats)
        assert stats.addresses > 0
        # The IS-IS NET encodes 172.31.255.254, which appears nowhere in
        # the corpus as a dotted quad — only the system-id scan finds it.
        assert stats.system_ids > 0
        assert stats.words_warmed > 0
        # ASN and community memos fill lazily during the rewrite.
        assert not anonymizer.asn_map._seen
        assert anonymizer.frozen and anonymizer.ip_map.shaping

    def test_freeze_counts_addresses(self):
        anonymizer = Anonymizer(salt=b"tp")
        stats = anonymizer.freeze_mappings(
            {"r1": "ip address 6.1.1.1 255.255.255.0\nlogging 6.1.1.1\n"}
        )
        assert stats.addresses == 2  # 6.1.1.1 + the netmask value

    def test_frozen_trie_is_insertion_order_independent(self):
        addresses = ["10.1.0.0", "10.1.1.5", "10.2.3.4", "6.1.2.0", "6.1.2.9"]
        values = [ip_to_int(a) for a in addresses]
        first = Anonymizer(salt=b"frz")
        first.ip_map.freeze(values)
        second = Anonymizer(salt=b"frz")
        second.ip_map.freeze(reversed(values))
        mapped_forward = [first.ip_map.map_address(a) for a in addresses]
        mapped_reverse = [
            second.ip_map.map_address(a) for a in reversed(addresses)
        ]
        assert mapped_forward == list(reversed(mapped_reverse))

    def test_freeze_does_not_pollute_hashed_inputs(self, network_configs):
        # Only zero-hash words are warmed: freezing must not record corpus
        # words as "hashed" when the rewrite never hashes them.
        anonymizer = Anonymizer(salt=b"freeze2")
        anonymizer.freeze_mappings(dict(network_configs))
        assert dict(anonymizer.hasher.hashed_inputs) == {}

    def test_hash_cache_delta_merge_with_overlapping_tokens(self):
        # Two workers hashing the SAME new token must both report it in
        # their deltas with identical digests, and merging must neither
        # lose it nor re-include tokens hashed before the snapshot.
        configs = {
            "a.cfg": "hostname shared-word.example.com\n",
            "b.cfg": "hostname shared-word.example.net\n",
        }
        parent = Anonymizer(salt=b"delta")
        parent.hasher.hash_token("presnap")  # cached before capture
        parent.freeze_mappings(dict(configs))
        snapshot = FrozenSnapshot.capture(parent)

        worker_a = snapshot.restore()
        worker_b = snapshot.restore()
        _, _, _, delta_a = _rewrite_with(worker_a, "a.cfg", configs["a.cfg"])
        _, _, _, delta_b = _rewrite_with(worker_b, "b.cfg", configs["b.cfg"])

        # Both workers hashed "shared-word" independently; the keyed hash
        # makes their answers identical, so merge order cannot matter.
        overlap = set(delta_a) & set(delta_b)
        assert "shared-word" in overlap
        for token in overlap:
            assert delta_a[token] == delta_b[token]
        # Pre-snapshot cache entries are not part of any worker delta.
        assert "presnap" not in delta_a and "presnap" not in delta_b

        # The merged ground truth equals a sequential run over the same
        # corpus (plus the pre-snapshot token).
        sequential = Anonymizer(salt=b"delta")
        sequential.hasher.hash_token("presnap")
        sequential.freeze_mappings(dict(configs))
        for name in sorted(configs):
            sequential.anonymize_file(configs[name], source=name)
        merged = dict(parent.hasher.hashed_inputs)
        for delta in (delta_a, delta_b):
            for token, digest in delta.items():
                merged.setdefault(token, digest)
        assert merged == dict(sequential.hasher.hashed_inputs)

    def test_snapshot_round_trip(self, network_configs):
        anonymizer = Anonymizer(salt=b"snap")
        anonymizer.freeze_mappings(dict(network_configs))
        restored = FrozenSnapshot.capture(anonymizer).restore()
        name = sorted(network_configs)[0]
        text = network_configs[name]
        assert (
            restored.anonymize_file(text, source=name)[0]
            == anonymizer.anonymize_file(text, source=name)[0]
        )


class TestRulePrefilter:
    def test_prefilter_never_changes_which_rules_fire(self, network_configs):
        """Property over every corpus line: a firing rule's gate passes."""
        reference = Anonymizer(salt=b"gatecheck")
        lines = set()
        for text in network_configs.values():
            lines.update(text.splitlines())
        # Crafted edge lines: triggers split across case, leading spaces,
        # and rule keywords embedded mid-line.
        lines.update(
            [
                " Router BGP 65000",
                "ip community-list 120 permit 701:7[1-5]..",
                "  net 49.0001.0060.0000.0003.00",
                "snmp-server community S3cret RO",
                "username Admin password 7 0501abcdef",
                "set as-path prepend 701 701",
                "neighbor 6.1.1.1 remote-as 1239",
                "no rules here at all",
                # Shape triggers (R23, R25, V1) and the raw MAC regex (R8).
                "ip route 10.1.0.0/16 Null0",
                "ip prefix-list P seq 5 permit 192.168.0.0/24 le 32",
                "route 172.16.4.0/22 next-hop 12345.1.2.3",
                "ipv6 route 2001:DB8::/32 FE80::1",
                " 2001:db8:0:0:1:0:0:1",
                " mac-address aabb.ccdd.eeff",
                "arp 10.1.2.3 0011.2233.4455 arpa",
            ]
        )
        for rule in reference.rules + reference._junos_rules:
            if rule.apply is None:
                continue
            gate = compile_gate(rule.trigger)
            if gate is None:
                continue
            for raw_line in lines:
                ctx = reference._make_context("gatecheck")
                hits = rule.apply(SegmentedLine(raw_line), ctx)
                if hits:
                    assert gate(raw_line.lower()), (
                        "rule {} fired on {!r} but its prefilter gate "
                        "rejected the line".format(rule.rule_id, raw_line)
                    )

    def test_prefilter_output_identical_to_unfiltered(self, network_configs):
        with_filter = Anonymizer(
            AnonymizerConfig(salt=b"pf", rule_prefilter=True)
        )
        without_filter = Anonymizer(
            AnonymizerConfig(salt=b"pf", rule_prefilter=False)
        )
        out_a = with_filter.anonymize_network(dict(network_configs))
        out_b = without_filter.anonymize_network(dict(network_configs))
        assert out_a.configs == out_b.configs
        assert (
            with_filter.report.to_dict() == without_filter.report.to_dict()
        )


class TestAnonymizeFiles:
    def test_original_names_preserved(self, network_configs):
        anonymizer = Anonymizer(salt=b"names")
        anonymizer.freeze_mappings(dict(network_configs))
        outputs = anonymize_files(anonymizer, dict(network_configs), jobs=2)
        assert sorted(outputs) == sorted(network_configs)

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            AnonymizerConfig(salt=b"x", jobs=0)


class TestPluginParallelByteIdentity:
    """Registry-era guarantees: an IPv4-only corpus is byte-identical
    whether the plugin registry is composed in or not, and a dual-stack
    EOS corpus is byte-identical across every transport and worker
    count (the v6 trie rides the same freeze-then-rewrite contract)."""

    @pytest.fixture(scope="class")
    def eos_configs(self):
        spec = NetworkSpec(
            name="par-eos", kind="enterprise", seed=11,
            num_pops=2, eos_fraction=0.6,
        )
        return dict(generate_network(spec).configs)

    @pytest.fixture(scope="class")
    def eos_sequential(self, eos_configs):
        anonymizer = Anonymizer(
            AnonymizerConfig(
                salt=b"eos-par", plugins=("blobs", "eos", "ipv6")
            )
        )
        result = anonymizer.anonymize_network(dict(eos_configs), jobs=1)
        return {
            original: result.configs[renamed]
            for original, renamed in result.name_map.items()
        }

    def test_ipv4_corpus_identical_with_and_without_registry(
        self, network_configs, sequential_run
    ):
        # The default plugin set must be a no-op on a corpus that never
        # exercises it: same bytes as an engine with the registry off.
        _, expected = sequential_run
        bare = Anonymizer(
            AnonymizerConfig(salt=b"parallel-secret", plugins=())
        )
        result = bare.anonymize_network(dict(network_configs), jobs=1)
        assert result.configs == expected.configs
        assert result.name_map == expected.name_map

    @pytest.mark.parametrize("transport", ["fork", "shm", "pickle"])
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_eos_corpus_byte_identity_per_transport(
        self, eos_configs, eos_sequential, transport, jobs
    ):
        import multiprocessing

        if (
            transport == "fork"
            and "fork" not in multiprocessing.get_all_start_methods()
        ):
            pytest.skip("fork start method unavailable on this platform")
        anonymizer = Anonymizer(
            AnonymizerConfig(
                salt=b"eos-par", plugins=("blobs", "eos", "ipv6")
            )
        )
        anonymizer.freeze_mappings(dict(eos_configs))
        outputs = anonymize_files(
            anonymizer, dict(eos_configs), jobs=jobs, transport=transport
        )
        assert outputs == eos_sequential


class TestCliFlags:
    def test_jobs_flag_end_to_end(self, tmp_path):
        from repro.cli import main

        for index in range(3):
            (tmp_path / "r{}.cfg".format(index)).write_text(
                "hostname r{}.corp.example\n"
                "ip address 10.0.{}.1 255.255.255.0\n"
                "router bgp 701\n".format(index, index)
            )
        out_seq = tmp_path / "out-seq"
        out_par = tmp_path / "out-par"
        assert (
            main(
                [str(tmp_path), "--salt", "s", "--out-dir", str(out_seq)]
            )
            == 0
        )
        assert (
            main(
                [str(tmp_path), "--salt", "s", "--jobs", "2",
                 "--out-dir", str(out_par)]
            )
            == 0
        )
        anon_files = sorted(out_seq.glob("*.anon"))
        assert anon_files  # the run manifest is not an output file
        for path in anon_files:
            assert (out_par / path.name).read_text() == path.read_text()


class TestSnapshotTransports:
    """Byte-identity across every snapshot transport, worker count, and
    chunk size — the tentpole guarantee of the compiled-dispatch PR."""

    def _expected_by_original_name(self, sequential_run):
        _, expected = sequential_run
        return {
            original: expected.configs[renamed]
            for original, renamed in expected.name_map.items()
        }

    @pytest.mark.parametrize("transport", ["fork", "shm", "pickle"])
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_byte_identity_per_transport(
        self, network_configs, sequential_run, transport, jobs
    ):
        import multiprocessing

        if (
            transport == "fork"
            and "fork" not in multiprocessing.get_all_start_methods()
        ):
            pytest.skip("fork start method unavailable on this platform")
        anonymizer = Anonymizer(salt=b"parallel-secret")
        anonymizer.freeze_mappings(dict(network_configs))
        outputs = anonymize_files(
            anonymizer, dict(network_configs), jobs=jobs, transport=transport
        )
        assert outputs == self._expected_by_original_name(sequential_run)

    @pytest.mark.parametrize("chunk_files", [1, 3, 1000])
    def test_byte_identity_per_chunk_size(
        self, network_configs, sequential_run, chunk_files
    ):
        anonymizer = Anonymizer(salt=b"parallel-secret")
        anonymizer.freeze_mappings(dict(network_configs))
        outputs = anonymize_files(
            anonymizer,
            dict(network_configs),
            jobs=2,
            chunk_files=chunk_files,
        )
        assert outputs == self._expected_by_original_name(sequential_run)

    def test_transport_report_counters_match_sequential(
        self, network_configs, sequential_run
    ):
        sequential_anon, _ = sequential_run
        for transport in _TRANSPORTS:
            anonymizer = Anonymizer(salt=b"parallel-secret")
            anonymizer.freeze_mappings(dict(network_configs))
            anonymize_files(
                anonymizer, dict(network_configs), jobs=2, transport=transport
            )
            report = anonymizer.report
            assert report.to_dict() == sequential_anon.report.to_dict()
            assert report.seen_asns == sequential_anon.report.seen_asns
            assert report.seen_public_ips == sequential_anon.report.seen_public_ips
            assert dict(anonymizer.hasher.hashed_inputs) == dict(
                sequential_anon.hasher.hashed_inputs
            )

    def test_resolve_transport_rejects_unknown(self):
        from repro.core.parallel import resolve_transport

        with pytest.raises(ValueError):
            resolve_transport("carrier-pigeon")
        assert resolve_transport("shm") == "shm"
        assert resolve_transport("auto") in ("fork", "shm")

    def test_config_validates_transport_and_chunk(self):
        with pytest.raises(ValueError):
            AnonymizerConfig(salt=b"x", snapshot_transport="nope")
        with pytest.raises(ValueError):
            AnonymizerConfig(salt=b"x", chunk_files=-1)

    def test_chunk_names_covers_every_file_once(self):
        from repro.core.parallel import _chunk_names

        names = ["f{:02d}".format(i) for i in range(17)]
        for jobs in (1, 2, 4):
            for chunk_files in (0, 1, 5, 100):
                chunks = _chunk_names(list(names), jobs, chunk_files)
                flat = [name for chunk in chunks for name in chunk]
                assert flat == names


#: Set by TestForkWorkersStartWarm before the pool forks; workers inherit it.
_PROBE = {}


def _probing_chunk(tasks):
    """``_rewrite_chunk`` plus a record of the worker's map around it."""
    ip_map = parallel._WORKER_ANONYMIZER.ip_map
    before = ip_map.stride_digests
    cold = sorted(_PROBE["preloaded"] - set(ip_map._raw_cache))
    outcomes = _PROBE["chunk"](tasks)
    path = os.path.join(_PROBE["dir"], "{}-{}.json".format(os.getpid(), tasks[0][0]))
    with open(path, "w") as handle:
        json.dump(
            {
                "pid": os.getpid(),
                "cold": cold,
                "digests_before": before,
                "digests_after": ip_map.stride_digests,
            },
            handle,
        )
    return outcomes


class TestForkWorkersStartWarm:
    """Fork workers adopt the frozen parent whole: every memo the freeze
    filled is warm, and the worker's fault plan still starts fresh."""

    @needs_fork
    def test_no_trie_node_created_for_preloaded_addresses(
        self, network_configs, sequential_run, monkeypatch, tmp_path
    ):
        anonymizer = Anonymizer(salt=b"parallel-secret")
        anonymizer.freeze_mappings(dict(network_configs))
        preloaded = set(anonymizer.ip_map._raw_cache)
        assert preloaded
        monkeypatch.setitem(_PROBE, "preloaded", preloaded)
        monkeypatch.setitem(_PROBE, "dir", str(tmp_path))
        monkeypatch.setitem(_PROBE, "chunk", parallel._rewrite_chunk)
        monkeypatch.setattr(parallel, "_rewrite_chunk", _probing_chunk)
        outputs = anonymize_files(
            anonymizer, dict(network_configs), jobs=2, transport="fork",
            chunk_files=2,
        )
        _, expected = sequential_run
        assert outputs == {
            original: expected.configs[renamed]
            for original, renamed in expected.name_map.items()
        }
        probes = [json.loads(path.read_text()) for path in tmp_path.iterdir()]
        assert len(probes) == len(parallel._chunk_names(sorted(network_configs), 2, 2))
        assert os.getpid() not in {probe["pid"] for probe in probes}
        for probe in probes:
            assert probe["cold"] == []  # every preloaded walk is memoized
            assert probe["digests_after"] == probe["digests_before"]

    @needs_fork
    def test_worker_fault_plan_starts_fresh(self):
        # The parent's plan has already fired its one rule fault.  A fork
        # worker must count from a fresh plan, as a restored snapshot's
        # anonymizer does, so the fault fires again in the workers: once
        # in each worker that ran a chunk.
        configs = {
            "r{}.cfg".format(index): "router bgp 701\n neighbor 6.1.1.{} remote-as 1239\n".format(index)
            for index in range(4)
        }
        anonymizer = Anonymizer(AnonymizerConfig(salt=b"plan", fault_plan="rule:R10:1"))
        anonymizer.anonymize_file(configs["r0.cfg"], source="r0.cfg")
        assert anonymizer.fault_plan._rules_fired == {"R10"}
        anonymizer.freeze_mappings(dict(configs))
        outputs = anonymize_files(
            anonymizer, dict(configs), jobs=2, transport="fork", chunk_files=2
        )
        assert sorted(outputs) == sorted(configs)
        assert 1 <= anonymizer.report.lines_failed_closed <= 2
