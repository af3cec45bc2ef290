"""Crash-safety tests: durable journal, restart recovery, retrying client.

The contract under test, end to end:

* every **acknowledged** request survives a daemon crash (the journal
  record is fsync'd before the response goes out);
* a torn *final* journal record is the expected crash artifact — its
  request was never acknowledged, so recovery discards it and a client
  resubmission converges;
* anything else (mid-journal corruption, sequence gaps, mixed
  fingerprints) is quarantined **fail-closed** — the daemon never serves
  guessed state;
* the salt is never stored: a recovered session only comes back to life
  when the owner re-presents it and the keyed fingerprint matches;
* the retrying client turns all of the above into exactly-once *effects*
  over an at-least-once wire: bounded backoff with jitter, ``Retry-After``
  honored, idempotency keys from content digests, automatic resume.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core import Anonymizer, AnonymizerConfig
from repro.core.digests import digest_text, idempotency_key_for
from repro.core.parallel import anonymize_files
from repro.core.state import StateCursor, apply_state_delta, export_state, state_delta_since
from repro.core.status import EXIT_JOURNAL_CORRUPT, EXIT_RECOVERY_FAILED
from repro.service.client import (
    RetryPolicy,
    RetryingServiceClient,
    ServiceClient,
    ServiceClientError,
    ServiceUnavailableError,
)
from repro.service.journal import (
    JournalError,
    RecoveryError,
    SessionStore,
    replay_into,
)
from repro.service.metrics import ServiceMetrics
from repro.service.server import AnonymizationService
from repro.service.sessions import (
    SessionError,
    SessionManager,
    SessionOptionsError,
)

SALT = "recovery-test-secret"


def _corpus(figure1_text: str) -> dict:
    return {
        "siteA/cr1.cfg": figure1_text,
        "siteA/cr2.cfg": (
            "hostname cr2.lax.foo.com\n"
            "interface Loopback0\n"
            " ip address 1.2.3.4 255.255.255.255\n"
            "router bgp 1111\n"
            " neighbor 2.3.4.5 remote-as 701\n"
        ),
        "siteB/cr1.cfg": (
            "hostname edge.sfo.foo.com\n"
            "router bgp 701\n"
            " neighbor 1.2.3.4 remote-as 1111\n"
            "access-list 10 permit 1.1.1.0 0.0.0.255\n"
        ),
    }


def _batch_reference(configs: dict, jobs: int = 2) -> dict:
    anonymizer = Anonymizer(AnonymizerConfig(salt=SALT.encode()))
    anonymizer.freeze_mappings(configs)
    return anonymize_files(anonymizer, configs, jobs=jobs)


def _durable_manager(state_dir, snapshot_every: int = 64):
    store = SessionStore(state_dir, snapshot_every=snapshot_every)
    store.recover()
    metrics = ServiceMetrics()
    manager = SessionManager(
        store=store, metrics=metrics, snapshot_every=snapshot_every
    )
    return manager, store, metrics


class TestDigests:
    """Pin the shared digest format: the runner's resume manifest and
    the service's idempotency keys must agree forever."""

    def test_digest_is_plain_sha256_hexdigest(self):
        assert digest_text("abc") == hashlib.sha256(b"abc").hexdigest()
        assert len(digest_text("")) == 64

    def test_idempotency_key_shape_and_determinism(self):
        key = idempotency_key_for("rtr1.cfg", "hostname a\n")
        assert len(key) == 32
        assert key == idempotency_key_for("rtr1.cfg", "hostname a\n")

    def test_idempotency_key_separates_source_and_text(self):
        # The key is a keyed hash over (source, text) with a separator:
        # moving bytes between the two fields must change the key.
        assert idempotency_key_for("a", "b") != idempotency_key_for("ab", "")
        assert idempotency_key_for("a", "x") != idempotency_key_for("b", "x")

    def test_runner_manifest_uses_the_shared_digest(self):
        from repro.core.runner import _digest_text

        assert _digest_text is digest_text


class TestStateDelta:
    """Snapshot + ordered deltas must equal a full state export."""

    def test_delta_replay_reproduces_state(self, figure1_text):
        a = Anonymizer(AnonymizerConfig(salt=SALT.encode()))
        cursor = StateCursor(a)
        a.anonymize_file(figure1_text, source="x.cfg")
        delta = state_delta_since(a, cursor)

        b = Anonymizer(AnonymizerConfig(salt=SALT.encode()))
        apply_state_delta(b, delta)
        assert export_state(b) == export_state(a)

    def test_empty_delta_is_a_noop(self):
        a = Anonymizer(AnonymizerConfig(salt=SALT.encode()))
        before = export_state(a)
        apply_state_delta(a, state_delta_since(a, StateCursor(a)))
        assert export_state(a) == before


class TestRecovery:
    def test_empty_journal_recovers(self, tmp_path):
        manager, store, _ = _durable_manager(tmp_path / "state")
        session = manager.create(SALT)
        manager.close_all()

        manager2, store2, _ = _durable_manager(tmp_path / "state")
        assert store2.is_recoverable(session.id)
        restored = manager2.resume(SALT, session.id)
        assert restored.id == session.id
        assert restored.describe()["frozen"] is False
        assert restored.describe()["requests_replayed"] == 0
        manager2.close_all()

    def test_truncated_last_record_discarded(self, tmp_path, figure1_text):
        manager, store, _ = _durable_manager(tmp_path / "state")
        session = manager.create(SALT)
        session.anonymize(figure1_text, source="a.cfg")
        reference = session.anonymize(figure1_text, source="b.cfg")
        manager.close_all()

        journal_path = store.sessions_dir / session.id / "journal.jsonl"
        good = journal_path.read_bytes()
        # Simulate a crash mid-append: half of an unacknowledged record.
        journal_path.write_bytes(good + b"deadbeef0000 {\"seq\": 3, \"op")

        manager2, store2, metrics2 = _durable_manager(tmp_path / "state")
        assert store2.summary.torn_discarded == 1
        restored = manager2.resume(SALT, session.id)
        assert restored.describe()["requests_replayed"] == 2
        # State equals the pre-torn state: the same input maps the same.
        again = restored.anonymize(figure1_text, source="b.cfg")
        assert again["text"] == reference["text"]
        manager2.close_all()

    def test_mid_journal_corruption_quarantines(self, tmp_path, figure1_text):
        manager, store, _ = _durable_manager(tmp_path / "state")
        session = manager.create(SALT)
        session.anonymize(figure1_text, source="a.cfg")
        session.anonymize(figure1_text, source="b.cfg")
        manager.close_all()

        journal_path = store.sessions_dir / session.id / "journal.jsonl"
        lines = journal_path.read_bytes().splitlines(keepends=True)
        assert len(lines) == 3  # the first request's implicit freeze + 2
        # Flip bytes inside the FIRST record: this cannot be a torn tail.
        lines[0] = lines[0][:20] + b"XX" + lines[0][22:]
        journal_path.write_bytes(b"".join(lines))

        manager2, store2, _ = _durable_manager(tmp_path / "state")
        assert session.id in store2.summary.quarantined
        assert not store2.is_recoverable(session.id)
        quarantined = list(
            store2.sessions_dir.glob(session.id + ".quarantined*")
        )
        assert quarantined, "corrupt session directory was not set aside"
        with pytest.raises(RecoveryError):
            manager2.resume(SALT, session.id)
        manager2.close_all()

    def test_sequence_gap_quarantines(self, tmp_path, figure1_text):
        manager, store, _ = _durable_manager(tmp_path / "state")
        session = manager.create(SALT)
        session.anonymize(figure1_text, source="a.cfg")
        session.anonymize(figure1_text, source="b.cfg")
        session.anonymize(figure1_text, source="c.cfg")
        manager.close_all()

        journal_path = store.sessions_dir / session.id / "journal.jsonl"
        lines = journal_path.read_bytes().splitlines(keepends=True)
        # Drop the middle record: seq jumps 1 -> 3.
        journal_path.write_bytes(lines[0] + lines[2])

        _, store2, _ = _durable_manager(tmp_path / "state")
        assert session.id in store2.summary.quarantined

    def test_snapshot_newer_than_journal(self, tmp_path, figure1_text):
        """A crash between snapshot rename and journal truncate leaves
        records with seq <= snapshot.seq; replay must skip them."""
        manager, store, _ = _durable_manager(tmp_path / "state")
        session = manager.create(SALT)
        key_a = idempotency_key_for("a.cfg", figure1_text)
        key_b = idempotency_key_for("b.cfg", figure1_text)
        session.anonymize(figure1_text, source="a.cfg", idempotency_key=key_a)
        reference = session.anonymize(
            figure1_text, source="b.cfg", idempotency_key=key_b
        )
        journal_path = store.sessions_dir / session.id / "journal.jsonl"
        stale = journal_path.read_bytes()
        session._write_snapshot()  # rotates: journal now empty
        journal_path.write_bytes(stale)  # ...crash un-truncated it
        manager.close_all()

        manager2, store2, _ = _durable_manager(tmp_path / "state")
        recovered = store2.recoverable(session.id)
        assert recovered is not None and recovered.records == []
        restored = manager2.resume(SALT, session.id)
        # Replayed from the snapshot alone, including the committed
        # idempotency results: the resubmission is answered from them.
        replay = restored.anonymize(
            figure1_text, source="b.cfg", idempotency_key=key_b
        )
        assert replay.get("replayed") is True
        assert replay["text"] == reference["text"]
        manager2.close_all()

    def test_wrong_salt_refused(self, tmp_path, figure1_text):
        manager, store, _ = _durable_manager(tmp_path / "state")
        session = manager.create(SALT)
        session.anonymize(figure1_text, source="a.cfg")
        manager.close_all()

        manager2, _, _ = _durable_manager(tmp_path / "state")
        with pytest.raises(RecoveryError, match="fingerprint"):
            manager2.resume("not-the-owner-secret", session.id)
        # The right salt still works afterwards: the refusal mutated
        # nothing.
        restored = manager2.resume(SALT, session.id)
        assert restored.fingerprint == session.fingerprint
        manager2.close_all()

    def test_restored_then_frozen_matches_uninterrupted(
        self, tmp_path, figure1_text
    ):
        """Restart, resume, freeze, warm up, restart again — byte-identical
        to the same operations without the restarts."""
        corpus = _corpus(figure1_text)
        # Uninterrupted reference: freeze, warm-up request, full corpus.
        ref_manager = SessionManager()
        ref = ref_manager.create(SALT)
        ref.freeze(corpus)
        ref.anonymize(corpus["siteA/cr1.cfg"], source="siteA/cr1.cfg")
        expected = {
            name: ref.anonymize(text, source=name)["text"]
            for name, text in sorted(corpus.items())
        }

        # Same operations, with a daemon restart before the freeze.
        # snapshot_every=1 forces the snapshot path into the replay too.
        manager, store, _ = _durable_manager(
            tmp_path / "state", snapshot_every=1
        )
        session = manager.create(SALT)
        manager.close_all()

        manager2, _, metrics2 = _durable_manager(
            tmp_path / "state", snapshot_every=1
        )
        restored = manager2.resume(SALT, session.id)
        restored.freeze(corpus)
        restored.anonymize(corpus["siteA/cr1.cfg"], source="siteA/cr1.cfg")
        assert metrics2.counter_value("repro_session_recoveries_total") == 1
        # A client-frozen session answers a re-freeze "already frozen",
        # which RetryingServiceClient.freeze converges on.
        with pytest.raises(SessionError, match="already frozen"):
            restored.freeze(corpus)

        # ...and a restart after the warm-up preserves frozenness.
        manager2.close_all()
        manager3, _, _ = _durable_manager(
            tmp_path / "state", snapshot_every=1
        )
        restored3 = manager3.resume(SALT, session.id)
        assert restored3.describe()["frozen"] is True
        outputs3 = {
            name: restored3.anonymize(text, source=name)["text"]
            for name, text in sorted(corpus.items())
        }
        assert outputs3 == expected
        manager3.close_all()

    def test_resume_at_session_limit_keeps_history(
        self, tmp_path, figure1_text
    ):
        """A resume refused by the session limit must not destroy the
        session's durable history: the client deletes a session and
        retries, and the full replay is still there."""
        manager, store, _ = _durable_manager(tmp_path / "state")
        session = manager.create(SALT)
        reference = session.anonymize(figure1_text, source="a.cfg")
        manager.close_all()

        store2 = SessionStore(tmp_path / "state")
        store2.recover()
        manager2 = SessionManager(
            max_sessions=1, store=store2, metrics=ServiceMetrics()
        )
        blocker = manager2.create(SALT)
        with pytest.raises(SessionError, match="session limit"):
            manager2.resume(SALT, session.id)
        # Refused, but nothing lost: directory and resumability intact.
        assert (store2.sessions_dir / session.id / "journal.jsonl").exists()
        assert store2.is_recoverable(session.id)
        manager2.delete(blocker.id)
        restored = manager2.resume(SALT, session.id)
        assert restored.describe()["requests_replayed"] == 1
        again = restored.anonymize(figure1_text, source="a.cfg")
        assert again["text"] == reference["text"]
        manager2.close_all()

    def test_resume_live_session_with_bad_salt_is_options_error(
        self, tmp_path
    ):
        """A missing/non-string salt on resume of a *live* session must
        be a 4xx options error, not a TypeError-turned-500."""
        manager, _, _ = _durable_manager(tmp_path / "state")
        session = manager.create(SALT)
        with pytest.raises(SessionOptionsError):
            manager.resume(None, session.id)
        with pytest.raises(SessionOptionsError):
            manager.resume("", session.id)
        # The owner's salt still resumes idempotently afterwards.
        assert manager.resume(SALT, session.id) is session
        manager.close_all()

    def test_unreadable_journal_quarantines_not_crashes(
        self, tmp_path, figure1_text
    ):
        """An I/O error reading one session's journal quarantines that
        session; it must not escape recover() and kill the daemon."""
        manager, store, _ = _durable_manager(tmp_path / "state")
        session = manager.create(SALT)
        session.anonymize(figure1_text, source="a.cfg")
        manager.close_all()
        journal_path = store.sessions_dir / session.id / "journal.jsonl"
        journal_path.unlink()
        journal_path.mkdir()  # read_bytes() raises IsADirectoryError

        manager2, store2, _ = _durable_manager(tmp_path / "state")
        assert session.id in store2.summary.quarantined
        assert not store2.is_recoverable(session.id)
        manager2.close_all()

    def test_delete_removes_durable_history(self, tmp_path, figure1_text):
        manager, store, _ = _durable_manager(tmp_path / "state")
        session = manager.create(SALT)
        session.anonymize(figure1_text, source="a.cfg")
        manager.delete(session.id)
        assert not (store.sessions_dir / session.id).exists()

        manager2, store2, _ = _durable_manager(tmp_path / "state")
        assert not store2.is_recoverable(session.id)


class TestIdempotency:
    def test_replay_skips_the_engine(self, tmp_path, figure1_text):
        manager, _, metrics = _durable_manager(tmp_path / "state")
        session = manager.create(SALT)
        key = idempotency_key_for("a.cfg", figure1_text)
        first = session.anonymize(
            figure1_text, source="a.cfg", idempotency_key=key
        )
        # Resubmit with DIFFERENT text under the same key: a replay must
        # return the journaled result, proving the engine never ran.
        second = session.anonymize(
            "hostname should-not-be-seen\n", source="a.cfg",
            idempotency_key=key,
        )
        assert second["replayed"] is True
        assert second["text"] == first["text"]
        assert session.idempotent_replays == 1
        assert metrics.counter_value("repro_idempotent_replays_total") == 1
        manager.close_all()

    def test_rotation_snapshot_covers_its_own_key(
        self, tmp_path, figure1_text
    ):
        """snapshot_every=1 makes every append trigger a snapshot that
        truncates the very record carrying the idempotency key — the
        snapshot's committed map must still include that key, so a
        post-restart resubmission replays instead of re-anonymizing."""
        manager, _, _ = _durable_manager(tmp_path / "state", snapshot_every=1)
        session = manager.create(SALT)
        key = idempotency_key_for("a.cfg", figure1_text)
        first = session.anonymize(
            figure1_text, source="a.cfg", idempotency_key=key
        )
        manager.close_all()

        manager2, _, metrics2 = _durable_manager(
            tmp_path / "state", snapshot_every=1
        )
        restored = manager2.resume(SALT, session.id)
        again = restored.anonymize(
            "hostname should-not-be-seen\n", source="a.cfg",
            idempotency_key=key,
        )
        assert again["replayed"] is True
        assert again["text"] == first["text"]
        assert metrics2.counter_value("repro_idempotent_replays_total") == 1
        manager2.close_all()

    def test_torn_append_fails_the_request_not_the_history(
        self, tmp_path, figure1_text
    ):
        manager, store, _ = _durable_manager(tmp_path / "state")
        session = manager.create(
            SALT, {"fault_plan": "journal-torn:torn.cfg"}
        )
        ok = session.anonymize(figure1_text, source="fine.cfg")
        with pytest.raises(JournalError):
            session.anonymize(figure1_text, source="torn.cfg")
        # The journal now has a torn tail: further appends must refuse
        # rather than bury it mid-file.
        with pytest.raises(JournalError):
            session.anonymize(figure1_text, source="another.cfg")
        manager.close_all()

        manager2, store2, _ = _durable_manager(tmp_path / "state")
        assert store2.summary.torn_discarded == 1
        restored = manager2.resume(SALT, session.id)
        # Only the acknowledged request was replayed.
        assert restored.describe()["requests_replayed"] == 1
        again = restored.anonymize(figure1_text, source="fine.cfg")
        assert again["text"] == ok["text"]
        manager2.close_all()


class TestFreezeStatsDurability:
    V6_CORPUS = {"r1.cfg": "interface Loopback0\n ipv6 address 2001:db8:1::1/64\n"}

    @pytest.mark.parametrize("snapshot_every", [1, 64])
    def test_ipv6_count_in_response_info_and_resume(
        self, tmp_path, snapshot_every
    ):
        manager, _, _ = _durable_manager(
            tmp_path / "state", snapshot_every=snapshot_every
        )
        session = manager.create(SALT, {"plugins": ["ipv6"]})
        assert session.freeze(dict(self.V6_CORPUS))["ipv6_addresses"] == 1
        assert session.describe()["freeze_stats"]["ipv6_addresses"] == 1
        manager.close_all()

        manager2, _, _ = _durable_manager(
            tmp_path / "state", snapshot_every=snapshot_every
        )
        restored = manager2.resume(SALT, session.id)
        assert restored.describe()["freeze_stats"]["ipv6_addresses"] == 1
        manager2.close_all()

    def test_five_key_freeze_record_still_replays(self, tmp_path):
        from repro.service.journal import _parse_line, _record_line

        # Freeze records as older daemons wrote them: five keys (no IPv6
        # count), then six (with it).  Both carry the ASN and community
        # warm-up counts the freeze no longer makes.
        for shape, ipv6 in (("five-key", None), ("six-key", 1)):
            manager, store, _ = _durable_manager(tmp_path / shape)
            session = manager.create(SALT, {"plugins": ["ipv6"]})
            session.freeze(dict(self.V6_CORPUS))
            manager.close_all()

            journal_path = store.sessions_dir / session.id / "journal.jsonl"
            (line,) = journal_path.read_bytes().splitlines(keepends=True)
            record = _parse_line(line)
            stats = dict(record["stats"], asns_warmed=3, communities_warmed=4)
            if ipv6 is None:
                del stats["ipv6_addresses"]
            assert len(stats) == (5 if ipv6 is None else 6)
            record["stats"] = stats
            journal_path.write_bytes(_record_line(record))

            manager2, _, _ = _durable_manager(tmp_path / shape)
            restored = manager2.resume(SALT, session.id)
            info = restored.describe()
            assert info["frozen"] is True
            assert info["freeze_stats"] == {
                "addresses": stats["addresses"],
                "system_ids": stats["system_ids"],
                "words_warmed": stats["words_warmed"],
                "ipv6_addresses": ipv6 or 0,
            }
            manager2.close_all()


class TestImplicitFreezeDurability:
    """A session that froze itself on its first request refuses an
    explicit freeze with "served requests" after a restart too — never
    "already frozen", which a retrying client would take for its own
    freeze."""

    @pytest.mark.parametrize("snapshot_every", [1, 64])
    def test_refusal_survives_restart(self, tmp_path, figure1_text, snapshot_every):
        manager, _, _ = _durable_manager(
            tmp_path / "state", snapshot_every=snapshot_every
        )
        session = manager.create(SALT)
        session.anonymize(figure1_text, source="a.cfg")
        manager.close_all()

        manager2, _, _ = _durable_manager(
            tmp_path / "state", snapshot_every=snapshot_every
        )
        restored = manager2.resume(SALT, session.id)
        with pytest.raises(SessionError, match="served requests"):
            restored.freeze({"a.cfg": figure1_text})
        manager2.close_all()

    def test_refusal_survives_crash_before_first_record(
        self, tmp_path, figure1_text
    ):
        from repro.service.journal import _parse_line, _record_line

        manager, store, _ = _durable_manager(tmp_path / "state")
        session = manager.create(SALT)
        session.anonymize(figure1_text, source="a.cfg")
        manager.close_all()

        # Crash between the implicit freeze record and the anonymize
        # record: only the freeze is on disk.
        journal_path = store.sessions_dir / session.id / "journal.jsonl"
        freeze_line, _ = journal_path.read_bytes().splitlines(keepends=True)
        assert _parse_line(freeze_line)["implicit"] is True
        journal_path.write_bytes(freeze_line)

        manager2, _, _ = _durable_manager(tmp_path / "state")
        restored = manager2.resume(SALT, session.id)
        assert restored.describe()["requests_replayed"] == 0
        with pytest.raises(SessionError, match="served requests") as err:
            restored.freeze({"a.cfg": figure1_text})
        assert "already frozen" not in str(err.value)
        manager2.close_all()

    def test_client_freeze_record_still_answers_already_frozen(
        self, tmp_path, figure1_text
    ):
        manager, _, _ = _durable_manager(tmp_path / "state", snapshot_every=1)
        session = manager.create(SALT)
        session.freeze({"a.cfg": figure1_text})
        session.anonymize(figure1_text, source="a.cfg")
        manager.close_all()

        manager2, _, _ = _durable_manager(tmp_path / "state", snapshot_every=1)
        restored = manager2.resume(SALT, session.id)
        with pytest.raises(SessionError, match="already frozen"):
            restored.freeze({"a.cfg": figure1_text})
        manager2.close_all()


class TestRetryPolicy:
    def _client(self, policy, clock=None):
        sleeps = []
        client = RetryingServiceClient(
            base_url="http://127.0.0.1:9",
            salt=SALT,
            policy=policy,
            sleep=sleeps.append,
            rng=None,
            clock=clock or (lambda: 0.0),
        )
        return client, sleeps

    def test_backoff_sequence_and_exhaustion(self):
        client, sleeps = self._client(
            RetryPolicy(max_attempts=4, base_delay=0.1, jitter=0.0)
        )
        calls = []

        def fail():
            calls.append(1)
            raise ServiceUnavailableError(429, "busy")

        with pytest.raises(ServiceUnavailableError):
            client._with_retries(fail)
        assert len(calls) == 4
        assert sleeps == [0.1, 0.2, 0.4]

    def test_jitter_stretches_but_never_shrinks(self):
        class FixedRng:
            def random(self):
                return 1.0

        client, sleeps = self._client(
            RetryPolicy(max_attempts=2, base_delay=1.0, jitter=0.5)
        )
        client._rng = FixedRng()
        with pytest.raises(ServiceUnavailableError):
            client._with_retries(
                lambda: (_ for _ in ()).throw(
                    ServiceUnavailableError(429, "busy")
                )
            )
        assert sleeps == [1.5]

    def test_retry_after_floors_the_backoff(self):
        client, sleeps = self._client(
            RetryPolicy(max_attempts=3, base_delay=0.1, jitter=0.0)
        )

        def fail():
            raise ServiceUnavailableError(503, "busy", retry_after=3.0)

        with pytest.raises(ServiceUnavailableError):
            client._with_retries(fail)
        assert sleeps == [3.0, 3.0]

    def test_deadline_stops_retrying(self):
        clock_value = [0.0]

        def clock():
            return clock_value[0]

        client, sleeps = self._client(
            RetryPolicy(
                max_attempts=10,
                base_delay=4.0,
                max_delay=4.0,
                jitter=0.0,
                deadline=10.0,
            ),
            clock=clock,
        )
        calls = []

        def fail():
            calls.append(1)
            clock_value[0] += 1.0
            raise ServiceUnavailableError(429, "busy")

        with pytest.raises(ServiceUnavailableError):
            client._with_retries(fail)
        # Every backoff is 4s; the clock ticks 1s per attempt.  The loop
        # gives up as soon as sleeping would overrun t=10 — well before
        # max_attempts.
        assert len(calls) < 10
        assert all(s == 4.0 for s in sleeps)
        assert clock_value[0] + 4.0 > 10.0

    def test_client_errors_are_not_retried(self):
        client, sleeps = self._client(RetryPolicy(max_attempts=5))
        calls = []

        def fail():
            calls.append(1)
            raise ServiceClientError(400, "bad request")

        with pytest.raises(ServiceClientError):
            client._with_retries(fail)
        assert len(calls) == 1 and sleeps == []

    def test_connection_refused_is_retried(self):
        client, sleeps = self._client(
            RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0)
        )
        with pytest.raises(OSError):
            client._with_retries(lambda: client.healthz())
        assert len(sleeps) == 2


class TestTimeouts:
    def test_timed_out_request_gets_503_and_gauges_recover(
        self, tmp_path, figure1_text
    ):
        service = AnonymizationService(
            port=0,
            workers=1,
            queue_limit=8,
            request_timeout=0.2,
            state_dir=str(tmp_path / "state"),
        )
        service.start_background()
        try:
            client = ServiceClient(service.base_url, timeout=30)
            session = client.create_session(SALT)
            release = threading.Event()
            service.executor.submit(lambda: release.wait(10))
            with pytest.raises(ServiceUnavailableError) as excinfo:
                client.anonymize(
                    session["id"], figure1_text, source="slow.cfg"
                )
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after is not None
            assert (
                service.metrics.counter_value("repro_requests_timed_out_total")
                == 1
            )
            release.set()
            deadline = time.time() + 5
            while time.time() < deadline and (
                service.executor.in_flight() or service.executor.depth()
            ):
                time.sleep(0.02)
            # The abandoned job was skipped; gauges are back to zero.
            assert service.executor.in_flight() == 0
            assert service.executor.depth() == 0
        finally:
            service.shutdown()

    def test_abandoned_job_still_commits_and_replays(
        self, tmp_path, figure1_text
    ):
        """The ambiguous timeout: the worker finishes after the 503.
        Its journal commit must land, and a retry with the same
        idempotency key must return that committed result."""
        service = AnonymizationService(
            port=0,
            workers=2,
            queue_limit=8,
            request_timeout=0.3,
            state_dir=str(tmp_path / "state"),
        )
        service.start_background()
        try:
            client = ServiceClient(service.base_url, timeout=30)
            session_info = client.create_session(SALT)
            session = service.sessions.get(session_info["id"])
            key = idempotency_key_for("a.cfg", figure1_text)
            with session.lock:  # the job starts, then blocks on this lock
                with pytest.raises(ServiceUnavailableError):
                    client.anonymize(
                        session_info["id"],
                        figure1_text,
                        source="a.cfg",
                        idempotency_key=key,
                    )
            deadline = time.time() + 5
            while time.time() < deadline and service.executor.in_flight():
                time.sleep(0.02)
            result = client.anonymize(
                session_info["id"],
                figure1_text,
                source="a.cfg",
                idempotency_key=key,
            )
            assert result.get("replayed") is True
        finally:
            service.shutdown()


class TestDropFaults:
    def _service(self, tmp_path):
        service = AnonymizationService(
            port=0, workers=2, queue_limit=8,
            state_dir=str(tmp_path / "state"),
        )
        service.start_background()
        return service

    def _retrying(self, service):
        return RetryingServiceClient(
            service.base_url,
            timeout=30,
            salt=SALT,
            policy=RetryPolicy(max_attempts=5, base_delay=0.01, jitter=0.0),
        )

    def test_drop_post_commit_replays_on_retry(self, tmp_path, figure1_text):
        service = self._service(tmp_path)
        try:
            client = self._retrying(service)
            session = client.create_session(
                SALT, options={"fault_plan": "drop-post-commit:cr1.cfg"}
            )
            result = client.anonymize(
                session["id"], figure1_text, source="siteA/cr1.cfg"
            )
            # First attempt committed then dropped; the retry was
            # answered from the journal.
            assert result.get("replayed") is True
            assert (
                service.metrics.counter_value("repro_idempotent_replays_total")
                == 1
            )
            clean = client.anonymize(
                session["id"], figure1_text, source="siteA/cr2.cfg"
            )
            assert "replayed" not in clean
        finally:
            service.shutdown()

    def test_drop_pre_commit_reruns_on_retry(self, tmp_path, figure1_text):
        service = self._service(tmp_path)
        try:
            client = self._retrying(service)
            session = client.create_session(
                SALT, options={"fault_plan": "drop-pre-commit:cr1.cfg"}
            )
            result = client.anonymize(
                session["id"], figure1_text, source="siteA/cr1.cfg"
            )
            # Nothing was committed before the drop: the retry re-ran
            # the work for real.
            assert "replayed" not in result
            assert (
                service.metrics.counter_value("repro_idempotent_replays_total")
                == 0
            )
        finally:
            service.shutdown()


def _spawn_daemon(tmp_path, name, state_dir, extra_env=None, extra_args=()):
    ready = tmp_path / (name + ".ready")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra_env or {})
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            "0",
            "--state-dir",
            str(state_dir),
            "--ready-file",
            str(ready),
            *extra_args,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.time() + 30
    while not ready.exists() and time.time() < deadline:
        if proc.poll() is not None:
            raise RuntimeError("daemon died: " + (proc.stdout.read() or ""))
        time.sleep(0.05)
    assert ready.exists(), "daemon never became ready"
    return proc, ready.read_text().strip()


class TestChaos:
    def test_kill_mid_journal_write_then_recover(
        self, tmp_path, figure1_text
    ):
        """The headline chaos test.  A fault kills the daemon *mid*-
        journal-append (half a record on disk, no response sent).  After
        a restart the retrying client resumes the session, resubmits the
        committed files (answered from the journal) and the killed one
        (re-run), and the corpus output is byte-identical to the batch
        ``--jobs N`` pipeline."""
        corpus = _corpus(figure1_text)
        reference = _batch_reference(corpus)
        state_dir = tmp_path / "state"
        policy = RetryPolicy(
            max_attempts=3, base_delay=0.05, max_delay=0.2, jitter=0.0
        )

        proc1, url1 = _spawn_daemon(
            tmp_path,
            "daemon1",
            state_dir,
            extra_env={"REPRO_FAULT_PLAN": "journal-kill:siteB/cr1.cfg"},
        )
        outputs = {}
        try:
            client1 = RetryingServiceClient(
                url1, timeout=30, salt=SALT, policy=policy
            )
            session = client1.create_session(SALT)
            session_id = session["id"]
            client1.freeze(session_id, corpus)
            for name in ["siteA/cr1.cfg", "siteA/cr2.cfg"]:
                outputs[name] = client1.anonymize(
                    session_id, corpus[name], source=name
                )["text"]
            # This request dies mid-journal-write: no response, daemon
            # gone, retries exhaust against the corpse.
            import http.client as _http

            with pytest.raises((OSError, _http.HTTPException)):
                client1.anonymize(
                    session_id, corpus["siteB/cr1.cfg"], source="siteB/cr1.cfg"
                )
            proc1.wait(timeout=10)
            assert proc1.returncode == 3  # the injected os._exit
        finally:
            if proc1.poll() is None:
                proc1.kill()
                proc1.communicate(timeout=10)

        proc2, url2 = _spawn_daemon(tmp_path, "daemon2", state_dir)
        try:
            client2 = RetryingServiceClient(
                url2, timeout=30, salt=SALT, policy=policy
            )
            # No explicit resume: the first 404 carries "recoverable"
            # and the client resumes automatically.
            for name in sorted(corpus):
                outputs[name] = client2.anonymize(
                    session_id, corpus[name], source=name
                )["text"]
            assert outputs == reference

            plain = ServiceClient(url2, timeout=30)
            metrics = plain.metrics_text()
            assert "repro_session_recoveries_total 1" in metrics
            assert "repro_service_journal_torn_discarded_total 1" in metrics

            def counter(name):
                for line in metrics.splitlines():
                    if line.startswith(name + " "):
                        return int(line.split()[1])
                return 0

            # siteA/cr1.cfg and siteA/cr2.cfg were committed before the
            # kill: their resubmissions replay from the journal.
            assert counter("repro_idempotent_replays_total") >= 2
            info = plain.session(session_id)
            assert info["frozen"] is True and info["durable"] is True
        finally:
            proc2.send_signal(signal.SIGTERM)
            try:
                proc2.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc2.kill()
                proc2.communicate(timeout=10)
        assert proc2.returncode == 0

    def test_sigkill_between_requests_then_recover(
        self, tmp_path, figure1_text
    ):
        """SIGKILL with a clean journal tail: everything acknowledged
        survives, nothing is torn."""
        corpus = _corpus(figure1_text)
        reference = _batch_reference(corpus)
        state_dir = tmp_path / "state"
        policy = RetryPolicy(max_attempts=4, base_delay=0.05, jitter=0.0)

        proc1, url1 = _spawn_daemon(tmp_path, "daemon1", state_dir)
        try:
            client1 = RetryingServiceClient(
                url1, timeout=30, salt=SALT, policy=policy
            )
            session_id = client1.create_session(SALT)["id"]
            client1.freeze(session_id, corpus)
            first = client1.anonymize(
                session_id, corpus["siteA/cr1.cfg"], source="siteA/cr1.cfg"
            )["text"]
        finally:
            proc1.kill()  # SIGKILL: no drain, no goodbye
            proc1.communicate(timeout=10)

        proc2, url2 = _spawn_daemon(tmp_path, "daemon2", state_dir)
        try:
            client2 = RetryingServiceClient(
                url2, timeout=30, salt=SALT, policy=policy
            )
            outputs = {
                name: client2.anonymize(session_id, corpus[name], source=name)[
                    "text"
                ]
                for name in sorted(corpus)
            }
            assert outputs == reference
            assert outputs["siteA/cr1.cfg"] == first
            metrics = ServiceClient(url2, timeout=30).metrics_text()
            assert "repro_session_recoveries_total 1" in metrics
            assert "repro_service_journal_torn_discarded_total 0" in metrics
        finally:
            proc2.kill()
            proc2.communicate(timeout=10)


class TestServeExitCodes:
    def test_strict_recovery_exits_journal_corrupt(self, tmp_path):
        state_dir = tmp_path / "state"
        bad = state_dir / "sessions" / "deadbeef"
        bad.mkdir(parents=True)
        (bad / "meta.json").write_text("not json at all")
        from repro.service.cli import serve_main

        code = serve_main(
            ["--port", "0", "--state-dir", str(state_dir), "--strict-recovery"]
        )
        assert code == EXIT_JOURNAL_CORRUPT

    def test_without_strict_recovery_quarantines_and_serves(self, tmp_path):
        state_dir = tmp_path / "state"
        bad = state_dir / "sessions" / "deadbeef"
        bad.mkdir(parents=True)
        (bad / "meta.json").write_text("not json at all")
        service = AnonymizationService(port=0, state_dir=str(state_dir))
        try:
            assert "deadbeef" in service.recovery_summary.quarantined
            assert (
                service.metrics.counter_value(
                    "repro_service_journal_quarantined_total"
                )
                == 1
            )
        finally:
            service.executor.shutdown(wait=True)
            service.httpd.server_close()

    def test_unusable_state_dir_exits_recovery_failed(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")  # a file where the state dir must go
        from repro.service.cli import serve_main

        code = serve_main(
            ["--port", "0", "--state-dir", str(blocker / "state")]
        )
        assert code == EXIT_RECOVERY_FAILED


class TestDiskFaultDegradation:
    """ENOSPC on the journal parks the session instead of tearing it.

    The contract: a disk-level append failure rolls the record back
    cleanly (no torn tail, no phantom seq), the request fails with
    :class:`JournalDiskError` (the HTTP layer turns it into 507 +
    Retry-After), and the *next* successful append clears the
    degradation — the client's retry is the half-open probe.
    """

    def test_enospc_rolls_back_cleanly_and_retry_heals(
        self, tmp_path, figure1_text
    ):
        from repro.service.journal import JournalDiskError

        manager, store, _ = _durable_manager(tmp_path / "state")
        session = manager.create(
            SALT, {"fault_plan": "journal-enospc:full.cfg"}
        )
        ok = session.anonymize(figure1_text, source="fine.cfg")
        with pytest.raises(JournalDiskError):
            session.anonymize(figure1_text, source="full.cfg")
        assert session.disk_degraded is True
        assert session.describe()["disk_degraded"] is True
        assert manager.disk_degraded_count() == 1

        # The retry (the fault is one-shot) succeeds and un-parks.
        healed = session.anonymize(figure1_text, source="full.cfg")
        assert session.disk_degraded is False
        assert manager.disk_degraded_count() == 0
        manager.close_all()

        # No torn tail was left behind: recovery replays both
        # acknowledged requests and nothing else.
        manager2, store2, _ = _durable_manager(tmp_path / "state")
        assert store2.summary.torn_discarded == 0
        assert session.id in store2.summary.recoverable
        restored = manager2.resume(SALT, session.id)
        assert restored.describe()["requests_replayed"] == 2
        again = restored.anonymize(figure1_text, source="full.cfg")
        assert again["text"] == healed["text"]
        assert ok["text"] == restored.anonymize(
            figure1_text, source="fine.cfg"
        )["text"]
        manager2.close_all()

    def test_failed_append_leaves_asns_and_each_record_carries_its_own(
        self, tmp_path
    ):
        from repro.service.journal import JournalDiskError

        text = "router bgp 64500\n neighbor 1.2.3.4 remote-as 701\n"
        manager, _, _ = _durable_manager(tmp_path / "state")
        session = manager.create(
            SALT, {"fault_plan": "journal-enospc:full.cfg"}
        )
        report = session.anonymizer.report
        session.anonymize("hostname r1\n", source="fine.cfg")
        before = (set(report.seen_asns), report.lines_in)
        with pytest.raises(JournalDiskError):
            session.anonymize(text, source="full.cfg")
        assert (set(report.seen_asns), report.lines_in) == before
        session.anonymize(text, source="full.cfg")
        live = set(report.seen_asns)
        assert {64500, 701} <= live
        manager.close_all()

        # The last request's ASNs are in its own record, so a journal-only
        # recovery (no snapshot was written) sees all of them.
        manager2, _, _ = _durable_manager(tmp_path / "state")
        restored = manager2.resume(SALT, session.id)
        assert restored.anonymizer.report.seen_asns == live
        manager2.close_all()

    def test_enospc_freeze_is_retained_and_flushed_on_retry(
        self, tmp_path, figure1_text
    ):
        from repro.service.journal import JournalDiskError

        corpus = _corpus(figure1_text)
        manager, _, _ = _durable_manager(tmp_path / "state")
        session = manager.create(
            SALT, {"fault_plan": "journal-enospc:<freeze>"}
        )
        with pytest.raises(JournalDiskError):
            session.freeze(corpus)
        assert session.disk_degraded is True

        # The retry flushes the retained freeze record (the in-memory
        # freeze is irreversible, so the record must not be lost).
        result = session.freeze(corpus)
        assert result["frozen"] is True
        assert session.disk_degraded is False
        reference = _batch_reference(corpus)
        live = session.anonymize(corpus["siteA/cr1.cfg"], source="siteA/cr1.cfg")
        assert live["text"] == reference["siteA/cr1.cfg"]
        manager.close_all()

        # Restart: the journal carries the freeze, so the recovered
        # session produces the same frozen mappings.
        manager2, _, _ = _durable_manager(tmp_path / "state")
        restored = manager2.resume(SALT, session.id)
        again = restored.anonymize(
            corpus["siteB/cr1.cfg"], source="siteB/cr1.cfg"
        )
        assert again["text"] == reference["siteB/cr1.cfg"]
        manager2.close_all()

    def test_enospc_then_snapshot_eio_same_session_heals_losslessly(
        self, tmp_path, figure1_text
    ):
        """Two different disk faults in one session: ENOSPC parks the
        append, the healing retry's own snapshot rotation then hits EIO
        — park, heal, and replay must still lose nothing."""
        from repro.service.journal import JournalDiskError

        # snapshot_every=2: the first request's implicit freeze record
        # plus the healed record make the healing retry's append the one
        # that rotates.
        manager, _, metrics = _durable_manager(
            tmp_path / "state", snapshot_every=2
        )
        session = manager.create(
            SALT,
            {"fault_plan": "journal-enospc:full.cfg;snapshot-eio:snapshot"},
        )
        # Append fails at the disk level: rolled back, parked read-only.
        with pytest.raises(JournalDiskError):
            session.anonymize(figure1_text, source="full.cfg")
        assert session.disk_degraded is True

        # The healing retry commits the record — and its snapshot
        # rotation immediately hits the injected EIO.
        # The request must still succeed: the journal record is durable,
        # only the rotation is skipped.
        healed = session.anonymize(figure1_text, source="full.cfg")
        assert session.disk_degraded is False
        assert (
            metrics.counter_value(
                "repro_service_journal_snapshot_failures_total"
            )
            == 1
        )
        assert session.journal.appended_since_snapshot == 2

        # Both one-shot faults are spent: the next append rotates fine.
        ok = session.anonymize(figure1_text, source="fine.cfg")
        assert session.journal.appended_since_snapshot == 0
        manager.close_all()

        # Restart: nothing quarantined, nothing torn, both acknowledged
        # requests replay byte-identically.
        manager2, store2, _ = _durable_manager(tmp_path / "state")
        assert store2.summary.quarantined == {}
        assert store2.summary.torn_discarded == 0
        restored = manager2.resume(SALT, session.id)
        # The last rotation succeeded, so the whole history lives in the
        # snapshot and no journal deltas are left to replay.
        assert restored.describe()["requests_replayed"] == 0
        assert restored.anonymize(figure1_text, source="full.cfg")[
            "text"
        ] == healed["text"]
        assert restored.anonymize(figure1_text, source="fine.cfg")[
            "text"
        ] == ok["text"]
        manager2.close_all()

    def test_snapshot_eio_is_nonfatal_and_selfheals(
        self, tmp_path, figure1_text
    ):
        manager, _, metrics = _durable_manager(
            tmp_path / "state", snapshot_every=1
        )
        session = manager.create(
            SALT, {"fault_plan": "snapshot-eio:snapshot"}
        )
        # snapshot_every=1: this append triggers a snapshot whose write
        # fails with EIO.  The request must still succeed — the journal
        # record is already durable; only the rotation is skipped.
        ok = session.anonymize(figure1_text, source="a.cfg")
        assert ok["status"] in ("ok", "failed-closed")
        assert (
            metrics.counter_value(
                "repro_service_journal_snapshot_failures_total"
            )
            == 1
        )
        # The fault is one-shot: the next boundary snapshot succeeds,
        # so the journal rotates and the backlog self-heals.
        session.anonymize(figure1_text, source="b.cfg")
        assert session.journal.appended_since_snapshot == 0
        manager.close_all()

        manager2, _, _ = _durable_manager(tmp_path / "state")
        restored = manager2.resume(SALT, session.id)
        assert restored.anonymize(figure1_text, source="a.cfg")[
            "text"
        ] == ok["text"]
        manager2.close_all()


class TestReadOnlyStateRecovery:
    """recover() on a read-only or failing state dir: quarantine the
    affected sessions (in place if the rename itself fails) and keep
    serving everything else."""

    def _seed_sessions(self, state_dir, figure1_text, count=2):
        manager, store, _ = _durable_manager(state_dir)
        ids = []
        for i in range(count):
            session = manager.create(SALT)
            session.anonymize(figure1_text, source="cfg-{}.cfg".format(i))
            ids.append(session.id)
        manager.close_all()
        return ids

    def test_unreadable_journal_quarantines_only_that_session(
        self, tmp_path, figure1_text
    ):
        state_dir = tmp_path / "state"
        healthy_id, victim_id = self._seed_sessions(
            state_dir, figure1_text
        )
        # Replace the victim's journal with a directory: read_bytes()
        # raises OSError, the classic symptom of a disk gone bad.
        journal_path = state_dir / "sessions" / victim_id / "journal.jsonl"
        journal_path.unlink()
        journal_path.mkdir()

        manager2, store2, _ = _durable_manager(state_dir)
        assert victim_id in store2.summary.quarantined
        assert "unreadable" in store2.summary.quarantined[victim_id]
        assert healthy_id in store2.summary.recoverable
        restored = manager2.resume(SALT, healthy_id)
        assert restored.describe()["requests_replayed"] == 1
        manager2.close_all()

    def test_quarantine_move_failure_quarantines_in_place(
        self, tmp_path, figure1_text, monkeypatch
    ):
        state_dir = tmp_path / "state"
        healthy_id, victim_id = self._seed_sessions(
            state_dir, figure1_text
        )
        (state_dir / "sessions" / victim_id / "meta.json").write_text(
            "not json at all"
        )

        # A read-only filesystem fails the quarantine rename itself.
        import errno as _errno

        import repro.service.journal as journal_module

        real_replace = os.replace

        def replace_fails(src, dst, *args, **kwargs):
            if str(state_dir) in str(src):
                raise OSError(_errno.EROFS, "read-only file system")
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(journal_module.os, "replace", replace_fails)
        store = SessionStore(state_dir)
        summary = store.recover()
        assert victim_id in summary.quarantined
        assert "quarantined in place" in summary.quarantined[victim_id]
        # The directory was NOT renamed...
        assert (state_dir / "sessions" / victim_id).exists()
        # ...the session is not resumable...
        assert victim_id not in summary.recoverable
        # ...and the healthy session still is.
        assert healthy_id in summary.recoverable


class TestRetryAfterHardening:
    """Malformed or absurd Retry-After headers must never stall the
    client: anything unparsable or outside [0, 60] falls back to the
    client's own bounded backoff."""

    @pytest.mark.parametrize(
        "header",
        [
            "garbage",
            "Wed, 21 Oct 2015 07:28:00 GMT",  # HTTP-date form: unsupported
            "",
            "nan",
            "inf",
            "-5",
            "1e12",
            "86400",  # absurd: over the 60s cap
        ],
    )
    def test_garbage_headers_are_ignored(self, header):
        from repro.service.client import _parse_retry_after

        assert _parse_retry_after(header) is None

    def test_sane_headers_parse_and_clamp(self):
        from repro.service.client import MAX_RETRY_AFTER, _parse_retry_after

        assert _parse_retry_after("2") == 2.0
        assert _parse_retry_after("0") == 0.0
        assert _parse_retry_after("1.5") == 1.5
        assert _parse_retry_after(str(MAX_RETRY_AFTER)) == MAX_RETRY_AFTER
        assert _parse_retry_after(None) is None

    def test_mock_server_garbage_retry_after_bounded_backoff(self):
        """A server answering 503 with a garbage Retry-After must be
        retried on the normal exponential schedule, not a parsed-garbage
        one (and never crash the parser)."""
        import http.server
        import socketserver

        hits = []

        class Garbage503(http.server.BaseHTTPRequestHandler):
            def do_GET(self):
                hits.append(self.path)
                if len(hits) < 3:
                    body = b'{"error": "busy"}'
                    self.send_response(503)
                    self.send_header("Retry-After", "over 9000!!")
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                    return
                body = json.dumps({"status": "ok"}).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        with socketserver.TCPServer(("127.0.0.1", 0), Garbage503) as httpd:
            thread = threading.Thread(
                target=httpd.serve_forever, daemon=True
            )
            thread.start()
            sleeps = []
            client = RetryingServiceClient(
                base_url="http://127.0.0.1:{}".format(
                    httpd.server_address[1]
                ),
                salt=SALT,
                policy=RetryPolicy(
                    max_attempts=5, base_delay=0.1, jitter=0.0
                ),
                sleep=sleeps.append,
            )
            try:
                health = client._with_retries(client.healthz)
            finally:
                client.close()
                httpd.shutdown()
        assert health["status"] == "ok"
        assert len(hits) == 3
        # The garbage header was ignored: pure exponential backoff, not
        # a 9000-second stall.
        assert sleeps == [0.1, 0.2]
