"""Tests for the anonymization service daemon (src/repro/service/).

The headline invariant: a corpus submitted file-by-file (or streamed
line-by-line) through a *frozen* session — over any number of concurrent
client connections — is byte-identical to the batch ``--jobs N``
pipeline over the same corpus.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core import Anonymizer, AnonymizerConfig
from repro.core.parallel import anonymize_files
from repro.core.status import EXIT_OK, EXIT_SERVICE_ERROR
from repro.service.client import (
    ServiceClient,
    ServiceClientError,
    ServiceUnavailableError,
)
from repro.service.server import (
    MAIN_THREAD_SIGNALS,
    AnonymizationService,
    BoundedExecutor,
    QueueFullError,
)
from repro.service.sessions import SessionManager, SessionOptionsError

SALT = "service-test-secret"


def _corpus(figure1_text: str) -> dict:
    """A small multi-file corpus with cross-file shared identifiers."""
    return {
        "siteA/cr1.cfg": figure1_text,
        "siteA/cr2.cfg": (
            "hostname cr2.lax.foo.com\n"
            "interface Loopback0\n"
            " ip address 1.2.3.4 255.255.255.255\n"
            "router bgp 1111\n"
            " neighbor 2.3.4.5 remote-as 701\n"
        ),
        # Same basename as siteA/cr1.cfg: exercises the mirrored
        # out-path scheme wherever the corpus is written to an --out-dir.
        "siteB/cr1.cfg": (
            "hostname edge.sfo.foo.com\n"
            "router bgp 701\n"
            " neighbor 1.2.3.4 remote-as 1111\n"
            "access-list 10 permit 1.1.1.0 0.0.0.255\n"
        ),
    }


def _batch_reference(configs: dict, jobs: int = 2) -> dict:
    """The batch ``--jobs N`` pipeline's output for the same corpus."""
    anonymizer = Anonymizer(AnonymizerConfig(salt=SALT.encode()))
    anonymizer.freeze_mappings(configs)
    return anonymize_files(anonymizer, configs, jobs=jobs)


@pytest.fixture(scope="module")
def service():
    svc = AnonymizationService(port=0, workers=4, queue_limit=32)
    svc.start_background()
    yield svc
    svc.shutdown()


@pytest.fixture
def client(service):
    return ServiceClient(service.base_url, timeout=60)


class TestLifecycle:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert "queue_depth" in health and "sessions" in health

    def test_session_create_info_delete(self, client):
        session = client.create_session(SALT)
        assert session["frozen"] is False
        assert len(session["salt_fingerprint"]) == 16
        info = client.session(session["id"])
        assert info["id"] == session["id"]
        listed = client.sessions()["sessions"]
        assert any(s["id"] == session["id"] for s in listed)
        client.delete_session(session["id"])
        with pytest.raises(ServiceClientError) as err:
            client.session(session["id"])
        assert err.value.status == 404

    def test_same_salt_same_fingerprint(self, client):
        a = client.create_session(SALT)
        b = client.create_session(SALT)
        c = client.create_session(SALT + "-other")
        try:
            assert a["salt_fingerprint"] == b["salt_fingerprint"]
            assert a["salt_fingerprint"] != c["salt_fingerprint"]
        finally:
            for session in (a, b, c):
                client.delete_session(session["id"])

    def test_bad_options_rejected(self, client):
        with pytest.raises(ServiceClientError) as err:
            client.create_session(SALT, options={"jobs": 4})
        assert err.value.status == 400
        with pytest.raises(ServiceClientError) as err:
            client.create_session("")
        assert err.value.status == 400

    def test_unknown_endpoint_404(self, client):
        with pytest.raises(ServiceClientError) as err:
            client._json("GET", "/nope")
        assert err.value.status == 404

    def test_double_freeze_rejected(self, client, figure1_text):
        session = client.create_session(SALT)
        try:
            client.freeze(session["id"], {"a.cfg": figure1_text})
            with pytest.raises(ServiceClientError) as err:
                client.freeze(session["id"], {"a.cfg": figure1_text})
            assert err.value.status == 409
        finally:
            client.delete_session(session["id"])


    def test_freeze_after_serving_rejected(self, service, figure1_text):
        from repro.service.client import RetryingServiceClient

        client = RetryingServiceClient(service.base_url, timeout=60, salt=SALT)
        session = client.create_session(SALT)
        try:
            client.anonymize(session["id"], figure1_text, source="a.cfg")
            with pytest.raises(ServiceClientError) as err:
                client.freeze(session["id"], {"a.cfg": figure1_text})
            assert err.value.status == 409
            assert "served requests" in err.value.message
            assert "already frozen" not in err.value.message
        finally:
            client.delete_session(session["id"])


class TestOnePipeline:
    """Every entry point computes the same function of the inputs."""

    @pytest.fixture(scope="class")
    def network(self):
        from tests.test_parallel import _network_configs

        return _network_configs()

    def test_cli_engine_and_frozen_session_agree(self, tmp_path, network):
        from repro.cli import main

        result = Anonymizer(salt=b"s").anonymize_network(dict(network))
        expected = {
            name: result.configs[renamed]
            for name, renamed in result.name_map.items()
        }
        in_dir = tmp_path / "in"
        in_dir.mkdir()
        for name, text in network.items():
            (in_dir / name).write_text(text)
        for jobs in ("1", "2"):
            out_dir = tmp_path / ("out-j" + jobs)
            assert main(
                [str(in_dir), "--salt", "s", "--jobs", jobs,
                 "--out-dir", str(out_dir)]
            ) == 0
            for name, text in expected.items():
                assert (out_dir / (name + ".anon")).read_text() == text, name

        session = SessionManager().create("s")
        session.freeze(dict(network))
        for name, text in sorted(network.items()):
            assert session.anonymize(text, source=name)["text"] == expected[name]

    def test_request_order_does_not_matter(self, tmp_path, network):
        from repro.service.journal import SessionStore

        names = sorted(network)

        def serve(session, order):
            return {
                name: session.anonymize(network[name], source=name)["text"]
                for name in order
            }

        forward = serve(SessionManager().create(SALT), names)
        backward = serve(SessionManager().create(SALT), names[::-1])
        assert backward == forward

        # A durable session restarted mid-stream gives the same bytes.
        def durable():
            store = SessionStore(tmp_path / "state")
            store.recover()
            return SessionManager(store=store)

        manager = durable()
        session = manager.create(SALT)
        resumed = serve(session, names[:5])
        manager.close_all()
        manager2 = durable()
        resumed.update(serve(manager2.resume(SALT, session.id), names[5:]))
        manager2.close_all()
        assert resumed == forward


class TestByteIdentity:
    """The acceptance-criteria invariant."""

    def test_file_by_file_equals_batch(self, client, figure1_text):
        configs = _corpus(figure1_text)
        reference = _batch_reference(configs, jobs=2)
        session = client.create_session(SALT)
        try:
            stats = client.freeze(session["id"], configs)
            assert stats["frozen"] and stats["addresses"] > 0
            for name, text in configs.items():
                result = client.anonymize(session["id"], text, source=name)
                assert result["status"] == "ok"
                assert result["text"] == reference[name], name
        finally:
            client.delete_session(session["id"])

    def test_line_by_line_stream_equals_batch(self, client, figure1_text):
        configs = _corpus(figure1_text)
        reference = _batch_reference(configs, jobs=2)
        session = client.create_session(SALT)
        try:
            client.freeze(session["id"], configs)
            for name, text in configs.items():
                chunks = (line + "\n" for line in text.splitlines())
                result = client.anonymize(
                    session["id"], chunks=chunks, source=name
                )
                assert result["text"] == reference[name], name
        finally:
            client.delete_session(session["id"])

    def test_concurrent_clients_byte_identical(
        self, service, figure1_text, small_enterprise
    ):
        configs = dict(_corpus(figure1_text))
        for name, text in sorted(small_enterprise.configs.items())[:6]:
            configs["ent/" + name] = text
        reference = _batch_reference(configs, jobs=2)

        setup = ServiceClient(service.base_url, timeout=60)
        session = setup.create_session(SALT)
        setup.freeze(session["id"], configs)

        results: dict = {}
        errors: list = []

        def worker(names):
            # Each thread uses its own client (its own connections).
            local = ServiceClient(service.base_url, timeout=60)
            for name in names:
                try:
                    response = local.anonymize(
                        session["id"], configs[name], source=name
                    )
                    results[name] = response["text"]
                except Exception as exc:  # pragma: no cover - fail loudly
                    errors.append((name, exc))

        names = sorted(configs)
        shards = [names[i::4] for i in range(4)]
        threads = [
            threading.Thread(target=worker, args=(shard,)) for shard in shards
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        setup.delete_session(session["id"])

        assert not errors
        assert set(results) == set(reference)
        for name in names:
            assert results[name] == reference[name], name

    def test_repeated_submission_is_deterministic(self, client, figure1_text):
        session = client.create_session(SALT)
        try:
            client.freeze(session["id"], {"cr1.cfg": figure1_text})
            first = client.anonymize(
                session["id"], figure1_text, source="cr1.cfg"
            )
            second = client.anonymize(
                session["id"], figure1_text, source="cr1.cfg"
            )
            assert first["text"] == second["text"]
        finally:
            client.delete_session(session["id"])


class TestFailClosed:
    def test_rule_exception_yields_placeholder_not_500(self, client):
        session = client.create_session(
            SALT, options={"fault_plan": "rule:R10"}
        )
        try:
            result = client.anonymize(
                session["id"], "router bgp 1111\nrouter rip\n", source="f.cfg"
            )
            assert result["status"] == "ok"  # per-line fail-closed
            assert "REPRO-FAIL-CLOSED" in result["text"]
            assert "router bgp 1111" not in result["text"]
            assert result["report"]["lines_failed_closed"] == 1
            flags = result["report"]["flags"]
            assert any(f["rule_id"] == "FAIL-CLOSED" for f in flags)
            # The flag message carries the exception class only, never
            # the raw line.
            assert all("1111" not in f["message"] for f in flags)
        finally:
            client.delete_session(session["id"])

    def test_file_level_failure_fails_closed(self, figure1_text):
        manager = SessionManager()
        session = manager.create(SALT)

        def boom(text, source="<config>"):
            raise RuntimeError("secret text: " + text[:20])

        session.anonymizer.anonymize_file = boom
        result = session.anonymize(figure1_text, source="cr1.cfg")
        assert result["status"] == "fail_closed"
        assert "hostname" not in result["text"]
        assert all(
            line.startswith("! REPRO-FAIL-CLOSED")
            for line in result["text"].splitlines()
        )
        # The report flags the event with the class name only.
        flags = result["report"]["flags"]
        assert flags and "RuntimeError" in flags[0]["message"]
        assert "secret text" not in json.dumps(result["report"])


class TestBackpressure:
    def test_executor_queue_full(self):
        executor = BoundedExecutor(workers=1, queue_limit=1)
        release = threading.Event()
        blocker = executor.submit(release.wait)
        # Wait until the blocker occupies the worker (queue drains).
        deadline = time.time() + 5
        while executor.depth() > 0 and time.time() < deadline:
            time.sleep(0.01)
        filler = executor.submit(lambda: "queued")
        with pytest.raises(QueueFullError):
            executor.submit(lambda: "rejected")
        assert executor.depth() == 1
        release.set()
        assert filler.wait(10) == "queued"
        assert blocker.wait(10) is True
        executor.shutdown()

    def test_full_queue_returns_429(self, figure1_text):
        svc = AnonymizationService(port=0, workers=1, queue_limit=1)
        svc.start_background()
        try:
            client = ServiceClient(svc.base_url, timeout=30)
            session = client.create_session(SALT)
            release = threading.Event()
            svc.executor.submit(release.wait)  # occupy the worker
            deadline = time.time() + 5
            while svc.executor.depth() > 0 and time.time() < deadline:
                time.sleep(0.01)
            svc.executor.submit(lambda: None)  # occupy the queue slot
            with pytest.raises(ServiceUnavailableError) as err:
                client.anonymize(session["id"], figure1_text)
            assert err.value.status == 429
            release.set()
            # After the backlog drains, the same request succeeds.
            deadline = time.time() + 10
            while time.time() < deadline:
                try:
                    result = client.anonymize(session["id"], figure1_text)
                    break
                except ServiceUnavailableError:
                    time.sleep(0.05)
            assert result["status"] == "ok"
        finally:
            svc.shutdown()

    def test_request_too_large_413(self, figure1_text):
        svc = AnonymizationService(port=0, workers=1, queue_limit=4, max_request_bytes=256)
        svc.start_background()
        try:
            client = ServiceClient(svc.base_url, timeout=30)
            session = client.create_session(SALT)
            with pytest.raises(ServiceClientError) as err:
                client.anonymize(session["id"], "x" * 1000)
            assert err.value.status == 413
            # Chunked bodies hit the same cap mid-stream.
            with pytest.raises(ServiceClientError) as err:
                client.anonymize(
                    session["id"], chunks=("y" * 100 for _ in range(10))
                )
            assert err.value.status == 413
            small = client.anonymize(session["id"], "router bgp 1111\n")
            assert small["status"] == "ok"
        finally:
            svc.shutdown()


class TestMetrics:
    def test_metrics_exposition(self, client, figure1_text):
        session = client.create_session(SALT)
        client.anonymize(session["id"], figure1_text, source="cr1.cfg")
        client.delete_session(session["id"])
        text = client.metrics_text()
        assert 'repro_requests_total{code="200",endpoint="anonymize"}' in text
        assert 'repro_rule_family_hits_total{family="asn"}' in text
        assert 'repro_rule_family_hits_total{family="ip"}' in text
        assert "repro_queue_depth" in text
        assert "repro_sessions" in text
        assert 'repro_request_seconds_bucket{endpoint="anonymize",le="+Inf"}' in text
        assert "repro_request_seconds_count" in text

    def test_active_plugin_families_preregistered(self, client):
        # The gauge and the per-family hit counters exist from startup —
        # a scrape before the first V*/B*/E* hit must already show the
        # family at 0, not appear only after its first hit.
        from repro.plugins import resolve_active_plugins

        expected = [p.family for p in resolve_active_plugins()]
        assert expected  # at least the builtin families resolve
        text = client.metrics_text()
        for family in expected:
            assert 'repro_active_plugins{{family="{}"}}'.format(family) in text
            assert (
                'repro_rule_family_hits_total{{family="{}"}}'.format(family)
                in text
            )

    def test_rule_family_grouping(self):
        from repro.core.report import rule_family

        assert rule_family("R1") == "token"
        assert rule_family("R4+R5") == "comment"
        assert rule_family("R10") == "asn"
        assert rule_family("R22") == "ip"
        assert rule_family("R28") == "secret"
        assert rule_family("J3") == "junos"
        assert rule_family("FAIL-CLOSED") == "fail_closed"
        assert rule_family("weird") == "other"


class TestStateEndpoints:
    def test_state_round_trip(self, client, figure1_text):
        first = client.create_session(SALT)
        out1 = client.anonymize(first["id"], figure1_text, source="a.cfg")
        state = client.export_state(first["id"])
        client.delete_session(first["id"])

        second = client.create_session(SALT)
        try:
            client.import_state(second["id"], state)
            out2 = client.anonymize(second["id"], figure1_text, source="a.cfg")
            assert out1["text"] == out2["text"]
        finally:
            client.delete_session(second["id"])

    def test_corrupt_state_rejected(self, client):
        session = client.create_session(SALT)
        try:
            with pytest.raises(ServiceClientError) as err:
                client.import_state(session["id"], {"format_version": 999})
            assert err.value.status == 400
        finally:
            client.delete_session(session["id"])


class TestUnixSocket:
    def test_unix_socket_round_trip(self, tmp_path, figure1_text):
        socket_path = str(tmp_path / "repro.sock")
        svc = AnonymizationService(unix_socket=socket_path, workers=2, queue_limit=4)
        svc.start_background()
        try:
            client = ServiceClient(unix_socket=socket_path)
            assert client.healthz()["status"] == "ok"
            session = client.create_session(SALT)
            result = client.anonymize(
                session["id"], figure1_text, source="cr1.cfg"
            )
            assert result["status"] == "ok"
            assert "foo.com" not in result["text"]
            assert all(
                not handler.disable_nagle_algorithm
                for handler in _live_handlers(svc)
            )
        finally:
            svc.shutdown()
        assert not os.path.exists(socket_path)


def _live_handlers(svc):
    with svc.httpd._handlers_lock:
        return list(svc.httpd._handlers)


class TestNoDelay:
    def test_tcp_connections_disable_nagle(self, figure1_text):
        # Headers and body leave in two sends; with Nagle on, the body
        # would wait for the client's delayed ACK.
        svc = AnonymizationService(port=0, workers=1, queue_limit=4)
        svc.start_background()
        client = ServiceClient(svc.base_url, timeout=60)
        try:
            session = client.create_session(SALT)
            client.anonymize(session["id"], figure1_text, source="cr1.cfg")
            handlers = _live_handlers(svc)  # the parked keep-alive one
            assert handlers
            for handler in handlers:
                assert handler.connection.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                ) != 0
        finally:
            client.close()
            svc.shutdown()


_TIMER_IN_BUSY_WORKER = """
import select, signal, time
from repro.service.server import BoundedExecutor

ticks = []
signal.signal(signal.SIGVTALRM, lambda *_: ticks.append(1))
executor = BoundedExecutor(workers=1, queue_limit=1)

def burn():
    started = time.process_time()
    while time.process_time() - started < 0.5:
        pass

signal.setitimer(signal.ITIMER_VIRTUAL, 0.01, 0.01)
job = executor.submit(burn)
deadline = time.monotonic() + 30
while not job._done.is_set() and time.monotonic() < deadline:
    select.select([], [], [], 0.5)  # an accept loop's poll
signal.setitimer(signal.ITIMER_VIRTUAL, 0)
executor.shutdown()
print(len(ticks))
"""


class TestSignalsToMainThread:
    def test_executor_threads_block_async_signals(self):
        executor = BoundedExecutor(workers=1, queue_limit=1)
        try:
            job = executor.submit(lambda: signal.pthread_sigmask(signal.SIG_BLOCK, []))
            assert MAIN_THREAD_SIGNALS <= job.wait(timeout=10)
        finally:
            executor.shutdown()
        assert signal.SIGTERM not in signal.pthread_sigmask(signal.SIG_BLOCK, [])

    def test_handler_threads_block_async_signals(self, service, client):
        masks = []
        original = service.httpd.RequestHandlerClass.do_GET

        def recording_get(handler):
            masks.append(signal.pthread_sigmask(signal.SIG_BLOCK, []))
            return original(handler)

        service.httpd.RequestHandlerClass.do_GET = recording_get
        try:
            assert client.healthz()["status"] == "ok"
        finally:
            service.httpd.RequestHandlerClass.do_GET = original
        assert masks and all(MAIN_THREAD_SIGNALS <= mask for mask in masks)

    def test_cpu_timer_reaches_main_thread_while_a_worker_computes(self):
        # Without the block the timer signal lands on the busy executor
        # thread and runs only when select() next times out: ~1 tick.
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", _TIMER_IN_BUSY_WORKER],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        ).stdout
        assert int(out) >= 10


class TestServeSubmitCli:
    @pytest.fixture
    def daemon(self, tmp_path):
        """A real ``repro-anonymize serve`` subprocess on an ephemeral port."""
        ready = tmp_path / "ready.txt"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--ready-file",
                str(ready),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        deadline = time.time() + 30
        while not ready.exists() and time.time() < deadline:
            if proc.poll() is not None:
                raise RuntimeError(
                    "daemon died: " + (proc.stdout.read() or "")
                )
            time.sleep(0.05)
        assert ready.exists(), "daemon never became ready"
        yield proc, ready.read_text().strip()
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=10)

    def test_submit_matches_batch_cli_and_sigterm_drains(
        self, daemon, tmp_path, figure1_text
    ):
        from repro.cli import main

        proc, url = daemon
        corpus = _corpus(figure1_text)
        in_dir = tmp_path / "in"
        for name, text in corpus.items():
            path = in_dir / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)

        # _collect_files walks one directory level, so pass the two site
        # directories (whose basenames collide) explicitly — which also
        # exercises the mirrored out-path scheme through submit.
        site_dirs = [str(in_dir / "siteA"), str(in_dir / "siteB")]

        submit_dir = tmp_path / "via-service"
        code = main(
            [
                "submit",
                *site_dirs,
                "--server",
                url,
                "--salt",
                SALT,
                "--out-dir",
                str(submit_dir),
            ]
        )
        assert code == EXIT_OK

        batch_dir = tmp_path / "via-batch"
        assert (
            main(
                [
                    *site_dirs,
                    "--salt",
                    SALT,
                    "--jobs",
                    "2",
                    "--out-dir",
                    str(batch_dir),
                ]
            )
            == EXIT_OK
        )

        submitted = sorted(
            p.relative_to(submit_dir) for p in submit_dir.rglob("*.anon")
        )
        batched = sorted(
            p.relative_to(batch_dir) for p in batch_dir.rglob("*.anon")
        )
        assert submitted == batched and submitted
        for rel in submitted:
            assert (submit_dir / rel).read_bytes() == (
                batch_dir / rel
            ).read_bytes(), str(rel)

        # Graceful drain: SIGTERM -> exit code 0, drain message printed.
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0
        assert "drained" in out

    def test_submit_unreachable_server(self, tmp_path, figure1_text):
        from repro.cli import main

        config = tmp_path / "a.cfg"
        config.write_text(figure1_text)
        code = main(
            [
                "submit",
                str(config),
                "--server",
                "http://127.0.0.1:9",  # discard port: nothing listens
                "--salt",
                SALT,
                "--out-dir",
                str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_SERVICE_ERROR


class TestSessionManagerUnits:
    def test_session_limit(self):
        manager = SessionManager(max_sessions=1)
        manager.create(SALT)
        with pytest.raises(Exception):
            manager.create(SALT)

    def test_option_allowlist(self):
        manager = SessionManager()
        with pytest.raises(SessionOptionsError):
            manager.create(SALT, {"snapshot_transport": "fork"})
        session = manager.create(SALT, {"strip_comments": False})
        assert session.anonymizer.config.strip_comments is False

    def test_freeze_requires_mapping_shape(self):
        manager = SessionManager()
        session = manager.create(SALT)
        with pytest.raises(SessionOptionsError):
            session.freeze({"a.cfg": 42})


class TestKeepAlive:
    """The pooled keep-alive client (one TCP connection, many requests)."""

    def test_connection_reused_across_requests(self, service):
        client = ServiceClient(service.base_url, timeout=60)
        try:
            client.healthz()
            pool = client._pool()
            assert len(pool) == 1
            connection = next(iter(pool.values()))
            client.healthz()
            client.sessions()
            assert next(iter(client._pool().values())) is connection
        finally:
            client.close()

    def test_stale_connection_replayed(self, service):
        # Park a keep-alive connection, have the server close it (what a
        # drain or worker respawn does), and the next request must
        # transparently replace the dead connection and succeed.
        client = ServiceClient(service.base_url, timeout=60)
        try:
            client.healthz()
            assert len(client._pool()) == 1
            service.close_idle_connections()
            time.sleep(0.1)  # let the server's shutdown reach our socket
            health = client.healthz()
            assert health["status"] == "ok"
        finally:
            client.close()

    def test_close_empties_the_pool(self, service):
        client = ServiceClient(service.base_url, timeout=60)
        client.healthz()
        assert client._pool()
        client.close()
        assert not client._pool()

    def test_full_session_flow_on_one_connection(self, service, figure1_text):
        client = ServiceClient(service.base_url, timeout=60)
        try:
            session = client.create_session(SALT)
            connection = next(iter(client._pool().values()))
            result = client.anonymize(
                session["id"], figure1_text, source="cr1.cfg"
            )
            assert result["status"] == "ok"
            client.delete_session(session["id"])
            assert next(iter(client._pool().values())) is connection
        finally:
            client.close()
