"""Tests for the corpus fan-out client (src/repro/service/corpus.py).

The headline invariant: ``submit --corpus`` fanned out across per-shard
sessions — with failovers, breaker trips, and interrupt/resume in the
middle — is byte-identical to the batch ``--jobs N`` pipeline over the
same corpus, because every per-shard session is frozen over the *full*
corpus under the same salt.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

import pytest

from repro.core import Anonymizer, AnonymizerConfig
from repro.core.digests import digest_text
from repro.core.parallel import anonymize_files
from repro.core.runner import resolve_out_paths, salt_fingerprint
from repro.core.status import EXIT_OK, EXIT_PARTIAL_CORPUS, EXIT_SERVICE_ERROR
from repro.service.client import RetryingServiceClient, ServiceClientError
from repro.service.corpus import (
    CorpusAborted,
    CorpusRunner,
    ManifestError,
    ResumeManifest,
    ShardBreaker,
)
from repro.service.server import AnonymizationService
from repro.service.sharding import shard_for

SALT = "corpus-test-secret"


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
        "siteB/cr3.cfg": (
            "hostname cr3.sfo.foo.com\n"
            "interface Ethernet0\n"
            " ip address 10.20.30.1 255.255.255.0\n"
        ),
    }


def _batch_reference(configs: dict, jobs: int = 2) -> dict:
    anonymizer = Anonymizer(AnonymizerConfig(salt=SALT.encode()))
    anonymizer.freeze_mappings(configs)
    return anonymize_files(anonymizer, configs, jobs=jobs)


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestShardBreaker:
    def test_closed_allows_and_failures_below_threshold_stay_closed(self):
        clock = _Clock()
        breaker = ShardBreaker(threshold=3, cooldown=1.0, clock=clock)
        assert breaker.state == "closed"
        assert breaker.allow()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()

    def test_opens_after_threshold_consecutive_failures(self):
        clock = _Clock()
        breaker = ShardBreaker(threshold=3, cooldown=1.0, clock=clock)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_success_resets_the_consecutive_count(self):
        clock = _Clock()
        breaker = ShardBreaker(threshold=2, cooldown=1.0, clock=clock)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_admits_exactly_one_probe(self):
        clock = _Clock()
        breaker = ShardBreaker(threshold=1, cooldown=1.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.now = 1.5
        assert breaker.state == "half-open"
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # everyone else keeps waiting

    def test_probe_success_closes(self):
        clock = _Clock()
        breaker = ShardBreaker(threshold=1, cooldown=1.0, clock=clock)
        breaker.record_failure()
        clock.now = 1.5
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_probe_failure_reopens_for_a_fresh_cooldown(self):
        clock = _Clock()
        breaker = ShardBreaker(threshold=1, cooldown=1.0, clock=clock)
        breaker.record_failure()
        clock.now = 1.5
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        clock.now = 2.0  # only 0.5s into the *new* cooldown
        assert not breaker.allow()
        clock.now = 2.6
        assert breaker.allow()


class TestResumeManifest:
    def _fingerprint(self) -> str:
        return salt_fingerprint(SALT.encode())

    def test_roundtrip_and_completed_digest_check(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        manifest = ResumeManifest(path, self._fingerprint(), ".anon")
        manifest.open_append(fresh=True)
        out = tmp_path / "a.cfg.anon"
        out.write_text("anonymized\n")
        manifest.record(
            "a.cfg", digest_text("anonymized\n"), str(out), "ok"
        )
        manifest.close()

        loaded = ResumeManifest.load(path, self._fingerprint(), ".anon")
        assert loaded.completed("a.cfg", out)
        # A hand-edited output must re-drive, not be trusted.
        out.write_text("tampered\n")
        assert not loaded.completed("a.cfg", out)
        out.unlink()
        assert not loaded.completed("a.cfg", out)

    def test_quarantined_entries_are_not_completed(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        manifest = ResumeManifest(path, self._fingerprint(), ".anon")
        manifest.open_append(fresh=True)
        out = tmp_path / "q.cfg.anon"
        manifest.record("q.cfg", "", str(out), "quarantined")
        manifest.close()
        loaded = ResumeManifest.load(path, self._fingerprint(), ".anon")
        assert not loaded.completed("q.cfg", out)

    def test_torn_final_line_is_ignored_and_truncated_on_reopen(
        self, tmp_path
    ):
        path = tmp_path / "manifest.jsonl"
        manifest = ResumeManifest(path, self._fingerprint(), ".anon")
        manifest.open_append(fresh=True)
        out = tmp_path / "a.cfg.anon"
        out.write_text("done\n")
        manifest.record("a.cfg", digest_text("done\n"), str(out), "ok")
        manifest.close()
        with open(path, "ab") as handle:
            handle.write(b'{"name": "b.cfg", "dig')  # torn mid-append

        loaded = ResumeManifest.load(path, self._fingerprint(), ".anon")
        assert loaded.completed("a.cfg", out)
        assert "b.cfg" not in loaded.entries
        loaded.open_append(fresh=False)
        out_b = tmp_path / "b.cfg.anon"
        out_b.write_text("later\n")
        loaded.record("b.cfg", digest_text("later\n"), str(out_b), "ok")
        loaded.close()
        reloaded = ResumeManifest.load(path, self._fingerprint(), ".anon")
        assert reloaded.completed("a.cfg", out)
        assert reloaded.completed("b.cfg", out_b)

    def test_wrong_salt_fingerprint_refuses_resume(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        manifest = ResumeManifest(path, self._fingerprint(), ".anon")
        manifest.open_append(fresh=True)
        manifest.close()
        other = salt_fingerprint(b"some-other-salt")
        with pytest.raises(ManifestError, match="different salt"):
            ResumeManifest.load(path, other, ".anon")

    def test_wrong_suffix_refuses_resume(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        manifest = ResumeManifest(path, self._fingerprint(), ".anon")
        manifest.open_append(fresh=True)
        manifest.close()
        with pytest.raises(ManifestError, match="--suffix"):
            ResumeManifest.load(path, self._fingerprint(), ".masked")

    def test_garbage_header_refuses_resume(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_bytes(b"not json at all\n")
        with pytest.raises(ManifestError, match="header"):
            ResumeManifest.load(path, self._fingerprint(), ".anon")

    def test_empty_manifest_refuses_resume(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_bytes(b"")
        with pytest.raises(ManifestError, match="empty"):
            ResumeManifest.load(path, self._fingerprint(), ".anon")


@pytest.fixture(scope="module")
def shard_services():
    """Two independent in-process services standing in for two shards."""
    services = []
    for _ in range(2):
        svc = AnonymizationService(port=0, workers=2, queue_limit=16)
        svc.start_background()
        services.append(svc)
    yield services
    for svc in services:
        svc.shutdown()


def _runner(configs, out_dir, shard_urls, **overrides):
    kwargs = dict(
        base_url=shard_urls[0],
        unix_socket=None,
        salt=SALT,
        configs=configs,
        out_paths=resolve_out_paths(configs, out_dir, ".anon"),
        jobs=3,
        manifest_path=Path(out_dir) / "manifest.jsonl",
        retries=2,
        retry_base_delay=0.01,
        breaker_cooldown=0.05,
        sleep=lambda _s: None,
        log=lambda _m: None,
    )
    kwargs.update(overrides)
    runner = CorpusRunner(**kwargs)
    runner._discover_shards = lambda: list(shard_urls)
    return runner


def _read_outputs(out_paths) -> dict:
    return {
        name: Path(path).read_text(encoding="utf-8")
        for name, path in out_paths.items()
        if Path(path).exists()
    }


class TestCorpusFanOut:
    def test_fanout_matches_batch_pipeline(
        self, shard_services, tmp_path, figure1_text
    ):
        configs = _corpus(figure1_text)
        reference = _batch_reference(configs)
        urls = [svc.base_url for svc in shard_services]
        runner = _runner(configs, tmp_path / "out", urls)
        try:
            code = runner.run()
        finally:
            runner.close()
        report = runner.report
        assert report["files_ok"] == len(configs)
        assert report["files_quarantined"] == []
        assert runner._in_flight == [0, 0]
        assert code in (EXIT_OK, 3)  # flags depend on the corpus
        outputs = _read_outputs(runner.out_paths)
        assert set(outputs) == set(configs)
        for name in configs:
            assert outputs[name] == reference[name]

    def _recording_threads(self, monkeypatch):
        threads = []
        record = CorpusRunner._record

        def recording(runner, *args, **kwargs):
            threads.append(threading.current_thread().name)
            return record(runner, *args, **kwargs)

        monkeypatch.setattr(CorpusRunner, "_record", recording)
        return threads

    def test_outputs_are_written_behind_the_drivers(
        self, shard_services, tmp_path, figure1_text, monkeypatch
    ):
        configs = _corpus(figure1_text)
        threads = self._recording_threads(monkeypatch)
        urls = [svc.base_url for svc in shard_services]
        runner = _runner(configs, tmp_path / "out", urls)
        try:
            runner.run()
        finally:
            runner.close()
        assert threads == ["repro-corpus-writer"] * len(configs)
        manifest = ResumeManifest.load(
            tmp_path / "out" / "manifest.jsonl",
            salt_fingerprint(SALT.encode()),
            ".anon",
        )
        outputs = _read_outputs(runner.out_paths)
        assert set(manifest.entries) == set(outputs) == set(configs)
        for name, entry in manifest.entries.items():
            assert entry["digest"] == digest_text(outputs[name])

    def test_abort_seam_records_on_the_driver(
        self, shard_services, tmp_path, figure1_text, monkeypatch
    ):
        configs = _corpus(figure1_text)
        threads = self._recording_threads(monkeypatch)
        monkeypatch.setenv("REPRO_CORPUS_ABORT_AFTER", "2")
        urls = [svc.base_url for svc in shard_services]
        runner = _runner(configs, tmp_path / "out", urls, jobs=1)
        with pytest.raises(CorpusAborted):
            try:
                runner.run()
            finally:
                runner.close()
        # In step with the requests: no third file was even driven.
        assert threads == ["repro-corpus-0"] * 2

    def test_failover_from_dead_shard_completes_everything(
        self, shard_services, tmp_path, figure1_text
    ):
        configs = _corpus(figure1_text)
        reference = _batch_reference(configs)
        live = shard_services[0].base_url
        # Shard 1 is a dead address: anything routed there fails over.
        runner = _runner(
            configs,
            tmp_path / "out",
            [live, "http://127.0.0.1:9"],
            retries=1,
            breaker_threshold=1,
        )
        # Sessions cannot be created on the dead shard either, so open
        # them both against the live one (the sessions are exchangeable:
        # same salt, same full-corpus freeze).
        runner._discover_shards = lambda: [live, live]
        real_open = runner._open_sessions

        def open_then_redirect(urls):
            real_open(urls)
            # Repoint shard 1's transport at the dead address after its
            # session exists, so only the anonymize path fails.
            from repro.service.client import RetryingServiceClient

            dead = RetryingServiceClient(
                base_url="http://127.0.0.1:9",
                salt=SALT,
                policy=runner.clients[1].policy,
                sleep=lambda _s: None,
            )
            runner.clients[1].close()
            runner.clients[1] = dead

        runner._open_sessions = open_then_redirect
        try:
            code = runner.run()
        finally:
            runner.close()
        report = runner.report
        assert report["files_quarantined"] == []
        assert report["files_ok"] == len(configs)
        assert report["failovers_total"] > 0
        assert report["breakers"]["1"] in ("open", "half-open")
        outputs = _read_outputs(runner.out_paths)
        for name in configs:
            assert outputs[name] == reference[name]
        assert code in (EXIT_OK, 3)

    def test_expired_deadline_quarantines_and_exits_partial(
        self, shard_services, tmp_path, figure1_text
    ):
        configs = _corpus(figure1_text)
        urls = [svc.base_url for svc in shard_services]
        runner = _runner(configs, tmp_path / "out", urls, deadline=0.0)
        try:
            code = runner.run()
        finally:
            runner.close()
        assert code == EXIT_PARTIAL_CORPUS
        report = runner.report
        assert sorted(report["files_quarantined"]) == sorted(configs)
        assert report["files_ok"] == 0

    def test_resume_skips_completed_files(
        self, shard_services, tmp_path, figure1_text
    ):
        configs = _corpus(figure1_text)
        urls = [svc.base_url for svc in shard_services]
        out_dir = tmp_path / "out"
        first = _runner(configs, out_dir, urls)
        try:
            first.run()
        finally:
            first.close()
        before = _read_outputs(first.out_paths)

        second = _runner(configs, out_dir, urls, resume=True)
        try:
            code = second.run()
        finally:
            second.close()
        report = second.report
        assert report["files_skipped_resume"] == len(configs)
        assert report["files_driven"] == 0
        assert _read_outputs(second.out_paths) == before
        assert code in (EXIT_OK, 3)

    def test_abort_seam_then_resume_is_byte_identical(
        self, shard_services, tmp_path, figure1_text, monkeypatch
    ):
        configs = _corpus(figure1_text)
        reference = _batch_reference(configs)
        urls = [svc.base_url for svc in shard_services]
        out_dir = tmp_path / "out"

        monkeypatch.setenv("REPRO_CORPUS_ABORT_AFTER", "1")
        first = _runner(configs, out_dir, urls, jobs=1)
        with pytest.raises(CorpusAborted):
            try:
                first.run()
            finally:
                first.close()
        manifest = ResumeManifest.load(
            Path(out_dir) / "manifest.jsonl",
            salt_fingerprint(SALT.encode()),
            ".anon",
        )
        assert 1 <= len(manifest.entries) < len(configs)

        monkeypatch.delenv("REPRO_CORPUS_ABORT_AFTER")
        second = _runner(configs, out_dir, urls, resume=True)
        try:
            code = second.run()
        finally:
            second.close()
        report = second.report
        assert report["files_skipped_resume"] >= 1
        assert report["files_quarantined"] == []
        outputs = _read_outputs(second.out_paths)
        for name in configs:
            assert outputs[name] == reference[name]
        assert code in (EXIT_OK, 3)

    def test_resume_redrives_deleted_output(
        self, shard_services, tmp_path, figure1_text
    ):
        configs = _corpus(figure1_text)
        urls = [svc.base_url for svc in shard_services]
        out_dir = tmp_path / "out"
        first = _runner(configs, out_dir, urls)
        try:
            first.run()
        finally:
            first.close()
        victim = sorted(configs)[0]
        before = Path(first.out_paths[victim]).read_text(encoding="utf-8")
        Path(first.out_paths[victim]).unlink()

        second = _runner(configs, out_dir, urls, resume=True)
        try:
            second.run()
        finally:
            second.close()
        assert second.report["files_driven"] == 1
        assert (
            Path(second.out_paths[victim]).read_text(encoding="utf-8")
            == before
        )


class TestPrimaryChoice:
    """The primary shard is the least busy one, ties going to the hash."""

    NAMES = ["net{:02d}/r{}.cfg".format(n, r) for n in range(4) for r in range(4)]

    @staticmethod
    def _bare_runner(in_flight):
        runner = CorpusRunner(None, None, SALT, {}, {}, log=lambda _m: None)
        runner._in_flight = list(in_flight)
        return runner

    def test_idle_shards_tie_to_the_hash_shard(self):
        for count in (1, 2, 3):
            runner = self._bare_runner([0] * count)
            for name in self.NAMES:
                assert runner._least_busy(name) == shard_for(name, count)

    def test_picks_the_shard_with_fewest_in_flight(self):
        for name in self.NAMES:
            assert self._bare_runner([1, 0])._least_busy(name) == 1
            assert self._bare_runner([0, 1])._least_busy(name) == 0
            assert self._bare_runner([2, 1, 3])._least_busy(name) == 1

    def test_busy_hash_shard_ties_break_in_failover_order(self):
        for name in self.NAMES:
            home = shard_for(name, 3)
            in_flight = [0, 0, 0]
            in_flight[home] = 1
            # Both other shards are idle: the one right after the hash
            # shard wins, as the failover ring would visit it first.
            assert self._bare_runner(in_flight)._least_busy(name) == (home + 1) % 3

    def test_one_job_keeps_the_hash_spread(
        self, shard_services, tmp_path, figure1_text
    ):
        configs = _corpus(figure1_text)
        urls = [svc.base_url for svc in shard_services]
        runner = _runner(configs, tmp_path / "out", urls, jobs=1)
        landed = {}
        drive = runner._drive_file

        def recording_drive(name, deadline):
            result, shard, failovers = drive(name, deadline)
            landed[name] = shard
            return result, shard, failovers

        runner._drive_file = recording_drive
        try:
            runner.run()
        finally:
            runner.close()
        assert landed == {name: shard_for(name, 2) for name in configs}
        assert runner._in_flight == [0, 0]


class TestConcurrentOpen:
    """``_open_sessions`` freezes every shard at once, and an error from
    any freeze surfaces exactly as the one-by-one loop raised it."""

    def test_freezes_overlap(
        self, shard_services, tmp_path, figure1_text, monkeypatch
    ):
        configs = _corpus(figure1_text)
        urls = [svc.base_url for svc in shard_services]
        # Each freeze waits until the other has started: a serial loop
        # would break the barrier on its timeout.
        barrier = threading.Barrier(2, timeout=10)
        freeze = RetryingServiceClient.freeze

        def meeting_freeze(self, session_id, files):
            barrier.wait()
            return freeze(self, session_id, files)

        monkeypatch.setattr(RetryingServiceClient, "freeze", meeting_freeze)
        runner = _runner(configs, tmp_path / "out", urls)
        try:
            runner.run()
        finally:
            runner.close()
        assert runner.report["files_ok"] == len(configs)

    @staticmethod
    def _fail_second_shard(monkeypatch, urls, error):
        bad_port = int(urls[1].rsplit(":", 1)[1])
        freeze = RetryingServiceClient.freeze

        def failing_freeze(self, session_id, files):
            if self._port == bad_port:
                raise error
            return freeze(self, session_id, files)

        monkeypatch.setattr(RetryingServiceClient, "freeze", failing_freeze)
        monkeypatch.setattr(
            CorpusRunner, "_discover_shards", lambda self: list(urls)
        )

    @pytest.mark.parametrize(
        "error",
        [ServiceClientError(500, "InternalError"), ConnectionRefusedError()],
        ids=["http-error", "connection-refused"],
    )
    def test_one_failed_freeze_raises_its_error(
        self, shard_services, tmp_path, figure1_text, monkeypatch, error
    ):
        configs = _corpus(figure1_text)
        urls = [svc.base_url for svc in shard_services]
        self._fail_second_shard(monkeypatch, urls, error)
        runner = _runner(configs, tmp_path / "out", urls)
        try:
            with pytest.raises(type(error)) as raised:
                runner.run()
        finally:
            runner.close()
        assert raised.value is error
        assert runner.report == {}

    def test_one_failed_freeze_exits_with_service_error(
        self, shard_services, tmp_path, figure1_text, monkeypatch
    ):
        from repro.cli import main

        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        for name, text in _corpus(figure1_text).items():
            (corpus_dir / name.replace("/", "-")).write_text(text)
        urls = [svc.base_url for svc in shard_services]
        self._fail_second_shard(
            monkeypatch, urls, ServiceClientError(500, "InternalError")
        )
        code = main(
            [
                "submit",
                "--corpus",
                str(corpus_dir),
                "--server",
                urls[0],
                "--salt",
                SALT,
                "--out-dir",
                str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_SERVICE_ERROR
        assert not list((tmp_path / "out").rglob("*.anon"))


class TestDiskDegradedCorpus:
    def test_507_park_heals_via_client_retry(
        self, tmp_path, figure1_text, monkeypatch
    ):
        """ENOSPC on one shard's journal answers 507; the per-shard
        client's retry is the half-open probe and the corpus completes
        byte-identically, with the failover surfaced in the report."""
        configs = _corpus(figure1_text)
        reference = _batch_reference(configs)
        victim = sorted(configs)[0]
        monkeypatch.setenv(
            "REPRO_FAULT_PLAN", "journal-enospc:{}".format(victim)
        )
        services = []
        try:
            for i in range(2):
                svc = AnonymizationService(
                    port=0,
                    workers=2,
                    queue_limit=16,
                    state_dir=str(tmp_path / "state-{}".format(i)),
                )
                svc.start_background()
                services.append(svc)
            urls = [svc.base_url for svc in services]
            runner = _runner(configs, tmp_path / "out", urls, retries=3)
            try:
                code = runner.run()
            finally:
                runner.close()
            report = runner.report
            assert report["files_quarantined"] == []
            assert report["failovers_total"] > 0
            outputs = _read_outputs(runner.out_paths)
            for name in configs:
                assert outputs[name] == reference[name]
            assert code in (EXIT_OK, 3)
            degraded = sum(
                svc.metrics.snapshot()["counters"][
                    "repro_disk_degraded_responses_total"
                ][1]
                for svc in services
            )
            assert degraded >= 1
        finally:
            for svc in services:
                svc.shutdown()

    def test_corpus_headers_feed_server_counters(
        self, shard_services, tmp_path, figure1_text
    ):
        configs = _corpus(figure1_text)
        urls = [svc.base_url for svc in shard_services]
        runner = _runner(configs, tmp_path / "out", urls)
        try:
            runner.run()
        finally:
            runner.close()
        tagged = sum(
            svc.metrics.snapshot()["counters"]["repro_corpus_files_total"][1]
            for svc in shard_services
        )
        assert tagged >= len(configs)
