"""Tests for mapping-state persistence (longitudinal consistency)."""

import json
from pathlib import Path

import pytest

from repro.core import Anonymizer, AnonymizerConfig
from repro.core.state import (
    STATE_FORMAT_VERSION,
    StateError,
    apply_state_delta,
    export_state,
    export_state_json,
    import_state,
    import_state_json,
    load_state,
    save_state,
)

#: A dual-stack EOS session recorded by an earlier version of the code;
#: regenerate with ``PYTHONPATH=src python -m tests.test_state``.
FIXTURE_DIR = Path(__file__).parent / "data" / "dualstack_eos"
FIXTURE_SALT = "dualstack-fixture"
FIXTURE_PLUGINS = ["blobs", "eos", "ipv6"]


def record_dualstack_session(directory, configs):
    """Drive one durable service session over *configs*: freeze over every
    other file, then anonymize every file, so the journal holds a freeze
    delta and post-freeze deltas for both tries.  Returns the journal
    bytes and the session's exported state document."""
    from repro.service.journal import SessionStore
    from repro.service.sessions import SessionManager

    manager = SessionManager(store=SessionStore(directory), snapshot_every=1000)
    session = manager.create(FIXTURE_SALT, {"plugins": FIXTURE_PLUGINS})
    names = sorted(configs)
    session.freeze({name: configs[name] for name in names[::2]})
    for name in names:
        session.anonymize(configs[name], source=name)
    state = session.export_state()
    manager.close_all()
    journal = Path(directory, "sessions", session.id, "journal.jsonl").read_bytes()
    return journal, state


class TestStateRoundTrip:
    def test_ip_mapping_consistent_across_sessions(self, tmp_path):
        first = Anonymizer(salt=b"owner")
        # Session 1 maps some addresses in an order that shapes the trie.
        mapped_day1 = {
            t: first.ip_map.map_address(t)
            for t in ("10.1.1.5", "10.1.1.0", "6.2.3.4")
        }
        path = tmp_path / "state.json"
        save_state(first, str(path))

        second = Anonymizer(salt=b"owner")
        load_state(second, str(path))
        for text, expected in mapped_day1.items():
            assert second.ip_map.map_address(text) == expected

    def test_new_addresses_after_restore_stay_prefix_consistent(self, tmp_path):
        first = Anonymizer(salt=b"owner")
        day1 = first.ip_map.map_address("10.1.1.1")
        path = tmp_path / "state.json"
        save_state(first, str(path))

        second = Anonymizer(salt=b"owner")
        load_state(second, str(path))
        day2 = second.ip_map.map_address("10.1.1.2")
        # same /30: mapped addresses must share 30 bits
        from repro.netutil import ip_to_int

        xor = ip_to_int(day1) ^ ip_to_int(day2)
        assert xor.bit_length() <= 2

    def test_rng_stream_continues(self, tmp_path):
        """Mapping unseen addresses after a restore must match what the
        original instance would have produced."""
        first = Anonymizer(salt=b"owner")
        first.ip_map.map_address("10.0.0.1")
        path = tmp_path / "state.json"
        save_state(first, str(path))

        second = Anonymizer(salt=b"owner")
        load_state(second, str(path))
        assert second.ip_map.map_address("99.1.2.3") == first.ip_map.map_address(
            "99.1.2.3"
        )

    def test_hash_cache_restored(self, tmp_path):
        first = Anonymizer(salt=b"owner")
        digest = first.hasher.hash_token("FOOCORP")
        path = tmp_path / "state.json"
        save_state(first, str(path))
        second = Anonymizer(salt=b"owner")
        load_state(second, str(path))
        assert second.hasher.hash_token("FOOCORP") == digest
        assert "FOOCORP" in second.hasher.hashed_inputs

    def test_seen_asns_restored(self, tmp_path):
        first = Anonymizer(salt=b"owner")
        first.anonymize_text("router bgp 701\n")
        path = tmp_path / "state.json"
        save_state(first, str(path))
        second = Anonymizer(salt=b"owner")
        load_state(second, str(path))
        assert 701 in second.report.seen_asns

    def test_full_config_longitudinal_consistency(self, tmp_path, figure1_text):
        first = Anonymizer(salt=b"owner")
        day1 = first.anonymize_text(figure1_text)
        save_state(first, str(tmp_path / "s.json"))
        second = Anonymizer(salt=b"owner")
        load_state(second, str(tmp_path / "s.json"))
        day2 = second.anonymize_text(figure1_text)
        assert day1 == day2


class TestStateValidation:
    def test_version_checked(self):
        anonymizer = Anonymizer(salt=b"o")
        state = export_state(anonymizer)
        state["format_version"] = 999
        with pytest.raises(ValueError):
            import_state(Anonymizer(salt=b"o"), state)

    def test_hash_length_checked(self):
        state = export_state(Anonymizer(salt=b"o"))
        other = Anonymizer(AnonymizerConfig(salt=b"o", hash_length=8))
        with pytest.raises(ValueError):
            import_state(other, state)

    def test_state_is_json_serializable(self):
        anonymizer = Anonymizer(salt=b"o")
        anonymizer.anonymize_text("interface Ethernet0\n ip address 6.1.1.1 255.0.0.0\n")
        text = json.dumps(export_state(anonymizer))
        assert json.loads(text)["format_version"] == STATE_FORMAT_VERSION

    def test_export_import_round_trip_is_lossless(self, tmp_path):
        first = Anonymizer(salt=b"rt")
        first.anonymize_text(
            "hostname r1.example.com\n"
            "router bgp 701\n"
            " neighbor 6.1.1.1 remote-as 1239\n"
        )
        path = tmp_path / "state.json"
        save_state(first, str(path))
        second = Anonymizer(salt=b"rt")
        load_state(second, str(path))
        assert export_state(second) == export_state(first)


class TestStateCorruption:
    """A bad state file must produce one clear :class:`StateError` and
    never a raw traceback or a half-restored anonymizer."""

    def _load(self, tmp_path, payload):
        path = tmp_path / "state.json"
        if isinstance(payload, bytes):
            path.write_bytes(payload)
        else:
            path.write_text(payload)
        load_state(Anonymizer(salt=b"o"), str(path))
        return path

    def test_not_json_at_all(self, tmp_path):
        with pytest.raises(StateError, match="not valid JSON"):
            self._load(tmp_path, "this is not json {]")

    def test_truncated_json(self, tmp_path):
        whole = json.dumps(export_state(Anonymizer(salt=b"o")))
        with pytest.raises(StateError, match="corrupt or truncated"):
            self._load(tmp_path, whole[: len(whole) // 2])

    def test_json_but_not_an_object(self, tmp_path):
        with pytest.raises(StateError, match="JSON object"):
            self._load(tmp_path, "[1, 2, 3]")

    def test_wrong_format_version(self, tmp_path):
        state = export_state(Anonymizer(salt=b"o"))
        state["format_version"] = 999
        with pytest.raises(StateError, match="version"):
            self._load(tmp_path, json.dumps(state))

    def test_missing_required_key(self, tmp_path):
        state = export_state(Anonymizer(salt=b"o"))
        del state["ip_rng_state"]
        with pytest.raises(StateError, match="malformed"):
            self._load(tmp_path, json.dumps(state))

    def test_mangled_trie_keys(self, tmp_path):
        state = export_state(Anonymizer(salt=b"o"))
        state["ip_trie"] = {"not-a-depth-prefix-pair": 1}
        with pytest.raises(StateError, match="malformed"):
            self._load(tmp_path, json.dumps(state))

    def test_error_names_the_file(self, tmp_path):
        with pytest.raises(StateError) as excinfo:
            self._load(tmp_path, "garbage")
        assert "state.json" in str(excinfo.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(StateError, match="cannot read"):
            load_state(Anonymizer(salt=b"o"), str(tmp_path / "absent.json"))

    def test_malformed_state_leaves_anonymizer_untouched(self, tmp_path):
        good = export_state(Anonymizer(salt=b"o"))
        bad = dict(good)
        bad["ip_rng_state"] = "nope"
        anonymizer = Anonymizer(salt=b"o")
        baseline = Anonymizer(salt=b"o")
        with pytest.raises(StateError):
            import_state(anonymizer, bad)
        # Decode-before-mutate: the failed import changed nothing, so the
        # anonymizer still behaves exactly like a fresh instance.
        assert anonymizer.ip_map.map_address("10.1.2.3") == baseline.ip_map.map_address(
            "10.1.2.3"
        )
        assert export_state(anonymizer) == export_state(baseline)

    @pytest.mark.parametrize("prefix", ["ip", "ip6"])
    def test_non_integer_counter_rejected(self, prefix):
        config = AnonymizerConfig(salt=b"o", plugins=["ipv6"])
        bad = export_state(Anonymizer(config))
        bad[prefix + "_counters"] = dict(
            bad[prefix + "_counters"], addresses_mapped="seven"
        )
        anonymizer = Anonymizer(config)
        with pytest.raises(StateError, match="malformed"):
            import_state(anonymizer, bad)
        assert export_state(anonymizer) == export_state(Anonymizer(config))
        # Had the counter been stored, every IPv4 line would fail closed.
        out = anonymizer.anonymize_text("ip address 10.1.1.2 255.255.255.0\n")
        assert "REPRO-FAIL-CLOSED" not in out


class TestDualStackFixture:
    """Documents written before the one-trie refactor still load, replay
    to the same mappings, and re-export byte for byte."""

    @staticmethod
    def _records(journal):
        return [json.loads(line.partition(b" ")[2]) for line in journal.splitlines()]

    @pytest.fixture(scope="class")
    def recorded(self):
        configs = json.loads((FIXTURE_DIR / "configs.json").read_text())
        state = (FIXTURE_DIR / "state.json").read_text()
        journal = (FIXTURE_DIR / "journal.jsonl").read_bytes()
        return configs, state, journal, self._records(journal)

    @staticmethod
    def _fresh():
        return Anonymizer(
            AnonymizerConfig(salt=FIXTURE_SALT.encode(), plugins=FIXTURE_PLUGINS)
        )

    @staticmethod
    def _assert_mappings(anonymizer, configs, records):
        for record in records:
            if record["op"] == "anonymize":
                text, _ = anonymizer.anonymize_file(
                    configs[record["source"]], source=record["source"]
                )
                assert text == record["result"]["text"]

    def test_fixture_covers_both_tries(self, recorded):
        _, state, _, records = recorded
        assert json.loads(state)["ip6_trie"]
        assert [r["op"] for r in records][0] == "freeze"
        assert any(r["op"] == "anonymize" and r["delta"]["ip6_trie"] for r in records)
        assert any(r["op"] == "anonymize" and r["delta"]["ip_trie"] for r in records)

    def _replay(self, records, state):
        anonymizer = self._fresh()
        for record in records:
            apply_state_delta(anonymizer, record["delta"])
            if record["op"] == "freeze":
                anonymizer.mark_frozen()
        replayed, recorded_state = json.loads(export_state_json(anonymizer)), json.loads(state)
        # Not compared: the RNG states (the freeze record's delta is taken
        # after the freeze, so it lacks the position the preload reached).
        for key in ("ip_trie", "ip6_trie", "ip_counters", "ip6_counters",
                    "hash_cache", "active_plugins", "hash_length"):
            assert replayed[key] == recorded_state[key], key
        return anonymizer, replayed["seen_asns"], recorded_state["seen_asns"]

    def test_journal_replays_to_recorded_state(self, recorded):
        configs, state, _, records = recorded
        anonymizer, replayed_asns, recorded_asns = self._replay(records, state)
        assert replayed_asns == recorded_asns
        self._assert_mappings(anonymizer, configs, records)

    def test_legacy_journal_still_replays(self, recorded):
        # Recorded before each record carried its own request's ASNs: a
        # delta held the ASNs of the request before it, so the last
        # request's never reached the journal.
        configs, state, _, _ = recorded
        records = self._records((FIXTURE_DIR / "journal_lagging_asns.jsonl").read_bytes())
        anonymizer, replayed_asns, recorded_asns = self._replay(records, state)
        assert set(replayed_asns) < set(recorded_asns)
        self._assert_mappings(anonymizer, configs, records)

    def test_state_document_round_trips(self, recorded):
        configs, state, _, records = recorded
        anonymizer = self._fresh()
        import_state_json(anonymizer, state)
        assert export_state_json(anonymizer) == state
        anonymizer.mark_frozen()
        self._assert_mappings(anonymizer, configs, records)

    def test_rerecorded_session_is_byte_identical(self, recorded, tmp_path):
        configs, state, journal, _ = recorded
        assert record_dualstack_session(tmp_path, configs) == (journal, state)


if __name__ == "__main__":
    import tempfile

    from repro.iosgen import NetworkSpec, generate_network

    network = generate_network(
        NetworkSpec(name="eos-net", kind="enterprise", seed=11, num_pops=1,
                    eos_fraction=1.0)
    )
    fixture_configs = dict(sorted(network.configs.items())[:4])
    with tempfile.TemporaryDirectory() as scratch:
        journal_bytes, state_text = record_dualstack_session(scratch, fixture_configs)
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    (FIXTURE_DIR / "configs.json").write_text(
        json.dumps(fixture_configs, indent=1, sort_keys=True) + "\n"
    )
    (FIXTURE_DIR / "state.json").write_text(state_text)
    (FIXTURE_DIR / "journal.jsonl").write_bytes(journal_bytes)
