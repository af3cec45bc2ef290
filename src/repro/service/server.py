"""The anonymization daemon: stdlib HTTP server over TCP or Unix socket.

``repro-anonymize serve`` turns the batch anonymizer into a long-lived
service so the per-invocation setup cost (pass-list load, rule
compilation, state load, mapping freeze) is paid once per *session* and
amortized over many requests.  Everything here is stdlib only:
:mod:`http.server` + :mod:`socketserver` for transport, a bounded
thread-pool executor for work, :mod:`repro.service.metrics` for
observability.

API (all request/response bodies UTF-8; JSON unless noted):

====================================  =======================================
``GET /healthz``                      liveness + ``draining`` flag
``GET /metrics``                      Prometheus text exposition
``GET /sessions``                     list live sessions
``POST /sessions``                    ``{"salt": ..., "options": {...}}``
``GET /sessions/<id>``                session info (fingerprint, freeze...)
``DELETE /sessions/<id>``             drain + remove the session
``POST /sessions/<id>/freeze``        ``{"files": {name: text}}`` manifest
``POST /sessions/<id>/anonymize``     raw config text (Content-Length or
                                      chunked); ``X-Repro-Source`` names the
                                      file; response carries the anonymized
                                      text and the per-file report (flags =
                                      the leak-highlight lines)
``GET/PUT /sessions/<id>/state``      export / import mapping state (treat
                                      like the salt!)
====================================  =======================================

Operational guarantees:

* **Fail-closed.**  A rule exception yields the salted placeholder line
  and a flagged report (handled in the engine / session layer); the
  handler never answers 500 with raw input echoed back.  Unexpected
  handler errors answer with the exception *class name* only.
* **Bounded.**  Request bodies above ``max_request_bytes`` get 413
  without being buffered; when the work queue is full the request gets
  429 + ``Retry-After`` instead of piling onto the heap.
* **Drainable.**  SIGTERM (see :mod:`repro.service.cli`) stops accepting
  connections, lets in-flight requests finish, drains the executor, and
  exits 0 — no request is ever dropped mid-anonymization.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import signal
import socket
import socketserver
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Callable, Dict, Optional, Tuple
from urllib.parse import urlparse

from repro.service.journal import (
    JournalDiskError,
    RecoveryError,
    SessionStore,
)
from repro.service.metrics import (
    ServiceMetrics,
    merge_snapshots,
    render_snapshot,
)
from repro.service.sharding import ShardInfo
from repro.service.sessions import (
    SessionError,
    SessionManager,
    SessionOptionsError,
    SessionStateError,
    UnknownSessionError,
)

__all__ = [
    "AnonymizationService",
    "BoundedExecutor",
    "QueueFullError",
    "RequestTooLargeError",
]

#: Default cap on one request body (32 MiB — far above any single router
#: config, far below a memory-exhaustion payload).
DEFAULT_MAX_REQUEST_BYTES = 32 * 1024 * 1024

#: Durability counters, pre-registered at 0 so scrapers and CI see the
#: full set before the first journal event.
DURABILITY_COUNTERS = (
    (
        "repro_service_journal_records_total",
        "Journal records durably appended (fsync'd before the response).",
    ),
    (
        "repro_service_journal_snapshots_total",
        "Full-state snapshots written (journal rotations).",
    ),
    (
        "repro_service_journal_torn_discarded_total",
        "Torn trailing journal records discarded at recovery "
        "(unacknowledged requests).",
    ),
    (
        "repro_service_journal_quarantined_total",
        "Session directories quarantined at recovery (corrupt history).",
    ),
    (
        "repro_session_recoveries_total",
        "Sessions resumed from durable state after a restart.",
    ),
    (
        "repro_idempotent_replays_total",
        "Anonymize requests answered from the journal by idempotency key.",
    ),
    (
        "repro_requests_timed_out_total",
        "Requests abandoned after exceeding the request timeout (503).",
    ),
    (
        "repro_service_journal_snapshot_failures_total",
        "Snapshot writes that failed at the disk level (non-fatal; the "
        "journal is intact and rotation retries at the next boundary).",
    ),
    (
        "repro_disk_degraded_responses_total",
        "Mutating requests answered 507 because a journal append failed "
        "at the disk level (the record was rolled back, never torn).",
    ),
)

#: Corpus fan-out counters, pre-registered at 0 so a scrape before the
#: first ``submit --corpus`` run is well-formed.
CORPUS_COUNTERS = (
    (
        "repro_corpus_files_total",
        "Anonymize requests tagged as part of a corpus fan-out run "
        "(X-Repro-Corpus header).",
    ),
    (
        "repro_corpus_failovers_total",
        "Corpus files re-driven on another shard after their primary "
        "failed (X-Repro-Failover header).",
    ),
)


class QueueFullError(RuntimeError):
    """The bounded work queue is full (maps to 429)."""


class RequestTooLargeError(RuntimeError):
    """The request body exceeds ``max_request_bytes`` (maps to 413)."""


class _Job:
    """A unit of work submitted to :class:`BoundedExecutor`."""

    __slots__ = ("fn", "abandoned", "_done", "_result", "_exc")

    def __init__(self, fn: Callable):
        self.fn = fn
        #: Set when the waiting handler gave up (timeout).  A worker that
        #: has not started the job yet skips it entirely; one that has
        #: finishes normally — the session's journal commit still happens,
        #: only the response is lost, which is exactly the ambiguous
        #: failure the idempotency key exists for.
        self.abandoned = False
        self._done = threading.Event()
        self._result = None
        self._exc: Optional[BaseException] = None

    def run(self) -> None:
        try:
            self._result = self.fn()
        except BaseException as exc:  # re-raised in the waiting thread
            self._exc = exc
        finally:
            self._done.set()

    def abandon(self) -> None:
        self.abandoned = True

    def wait(self, timeout: Optional[float] = None):
        if not self._done.wait(timeout):
            raise TimeoutError("request did not complete in time")
        if self._exc is not None:
            raise self._exc
        return self._result


_SHUTDOWN = object()

#: Signals the daemon's own threads block, leaving them to the main thread.
MAIN_THREAD_SIGNALS = frozenset(
    {
        signal.SIGALRM,
        signal.SIGHUP,
        signal.SIGINT,
        signal.SIGPROF,
        signal.SIGTERM,
        signal.SIGUSR1,
        signal.SIGUSR2,
        signal.SIGVTALRM,
    }
)


def leave_signals_to_main_thread() -> None:
    """Block :data:`MAIN_THREAD_SIGNALS` in the calling thread.

    Python runs signal handlers only in the main thread: a signal the
    kernel hands to any other thread just sets a flag, and the handler
    waits until the main thread next runs bytecode -- up to a whole
    accept-poll interval (0.5 s) while it sleeps in ``select``.  A
    ``kill`` already reaches the main thread, but a CPU-time timer
    signal (``SIGPROF``/``SIGVTALRM``, what sampling profilers use) goes
    to the thread that is running, in a busy worker an executor thread,
    so a profiler sampled the worker about twice a second instead of at
    its set rate.  With every thread the daemon starts blocking them,
    the kernel picks the main thread and its ``select`` returns at once.
    """
    signal.pthread_sigmask(signal.SIG_BLOCK, MAIN_THREAD_SIGNALS)


def _serve_off_main_thread(httpd) -> None:
    leave_signals_to_main_thread()
    httpd.serve_forever()


class BoundedExecutor:
    """A fixed thread pool fed by a bounded queue.

    ``submit`` never blocks: when the queue is full it raises
    :class:`QueueFullError` immediately, which the handler turns into a
    429 — backpressure is pushed to the client instead of growing an
    unbounded backlog inside the daemon.
    """

    def __init__(self, workers: int = 4, queue_limit: int = 16):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self._queue: "queue.Queue" = queue.Queue(maxsize=queue_limit)
        self._in_flight = 0
        self._lock = threading.Lock()
        self._threads = [
            threading.Thread(
                target=self._worker, name="repro-worker-{}".format(i)
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    def _worker(self) -> None:
        leave_signals_to_main_thread()
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            if item.abandoned:
                # The handler already answered 503; running the job now
                # would do work nobody will read and skew the gauges.
                item._done.set()
                continue
            with self._lock:
                self._in_flight += 1
            try:
                item.run()
            finally:
                with self._lock:
                    self._in_flight -= 1

    def submit(self, fn: Callable) -> _Job:
        job = _Job(fn)
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            raise QueueFullError(
                "work queue full ({} queued)".format(self._queue.maxsize)
            )
        return job

    def depth(self) -> int:
        """Jobs waiting for a worker (the backpressure gauge)."""
        return self._queue.qsize()

    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def shutdown(self, wait: bool = True) -> None:
        for _ in self._threads:
            self._queue.put(_SHUTDOWN)
        if wait:
            for thread in self._threads:
                thread.join()


class _ThreadingHTTPServer(socketserver.ThreadingMixIn, HTTPServer):
    """TCP transport: one (joinable) thread per connection.

    ``daemon_threads = False`` + ``block_on_close = True`` make
    ``server_close()`` wait for in-flight connections — the heart of the
    graceful drain.  Keep-alive clients park their connection between
    requests, so the server tracks every live handler and, at drain,
    closes the *idle* ones (mid-request connections finish their
    response first and then close, because ``_send_bytes`` refuses to
    keep a connection alive while draining).
    """

    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True
    request_queue_size = 128
    service: "AnonymizationService"

    def __init__(self, *args, **kwargs):
        self._handlers = set()
        self._handlers_lock = threading.Lock()
        super().__init__(*args, **kwargs)

    def service_actions(self) -> None:
        """Called by ``serve_forever`` between accepts (every poll
        interval): refreshes this worker's watchdog heartbeat, so a
        wedged accept loop is exactly what stops the heartbeat."""
        super().service_actions()
        service = getattr(self, "service", None)
        if service is not None:
            service.heartbeat_tick()

    def process_request_thread(self, request, client_address) -> None:
        leave_signals_to_main_thread()
        super().process_request_thread(request, client_address)

    def register_handler(self, handler) -> None:
        with self._handlers_lock:
            self._handlers.add(handler)

    def unregister_handler(self, handler) -> None:
        with self._handlers_lock:
            self._handlers.discard(handler)

    def close_idle_connections(self) -> None:
        """Wake keep-alive connections parked between requests.

        Without this, ``server_close()`` would block on every idle
        keep-alive thread until the client went away or the per-request
        socket timeout fired.  A connection that is mid-request is left
        alone — its in-flight work finishes and the draining flag closes
        it after the response.
        """
        with self._handlers_lock:
            handlers = list(self._handlers)
        for handler in handlers:
            if getattr(handler, "_busy", False):
                continue
            try:
                handler.connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


class _UnixHTTPServer(_ThreadingHTTPServer):
    """The same server bound to a Unix domain socket."""

    address_family = socket.AF_UNIX
    allow_reuse_address = False

    def server_bind(self):
        # HTTPServer.server_bind assumes (host, port); bind directly, and
        # replace a stale socket file left by a previous daemon.
        import os

        if os.path.exists(self.server_address):
            os.unlink(self.server_address)
        socketserver.TCPServer.server_bind(self)
        self.server_name = "localhost"
        self.server_port = 0


class ServiceRequestHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-anonymize-service/1.0"
    #: Backstop: an idle keep-alive connection that survives the drain's
    #: targeted close (raced a new request) still times out eventually.
    timeout = 30

    def setup(self):
        # The response goes out in two sends (headers, then body); with
        # Nagle on, the body waits for the client's delayed ACK, about
        # 40 ms per request.  TCP only: a Unix socket has no such option.
        self.disable_nagle_algorithm = self.request.family != socket.AF_UNIX
        super().setup()
        self._busy = False
        self.server.register_handler(self)

    def finish(self):
        self.server.unregister_handler(self)
        super().finish()

    # The access log is /metrics, not stderr chatter.
    def log_message(self, format, *args):  # noqa: A002 (stdlib signature)
        pass

    def address_string(self):
        # client_address is "" over a Unix socket; the default impl
        # indexes it as a (host, port) pair.
        if isinstance(self.client_address, str):
            return self.client_address or "unix"
        return super().address_string()

    # -- dispatch --------------------------------------------------------

    def do_GET(self) -> None:
        self._route("GET")

    def do_POST(self) -> None:
        self._route("POST")

    def do_PUT(self) -> None:
        self._route("PUT")

    def do_DELETE(self) -> None:
        self._route("DELETE")

    def _route(self, method: str) -> None:
        self._busy = True
        try:
            self._route_inner(method)
        finally:
            self._busy = False

    def _route_inner(self, method: str) -> None:
        service = self.server.service
        path = urlparse(self.path).path
        parts = [part for part in path.split("/") if part]
        try:
            if method == "GET" and parts == ["healthz"]:
                return self._handle_healthz()
            if method == "GET" and parts == ["metrics"]:
                return self._handle_metrics()
            if method == "GET" and parts == ["metrics", "local"]:
                return self._handle_metrics_local()
            if parts[:1] == ["sessions"]:
                if (
                    len(parts) >= 2
                    and service.shard is not None
                    and not service.shard.owns(parts[1])
                ):
                    # Not this worker's shard: 307 to the owner's direct
                    # listener.  The body may be unread, so the
                    # connection closes; the client pins the affinity and
                    # goes direct from then on.
                    return self._redirect_to_shard(parts[1])
                if len(parts) == 1:
                    if method == "GET":
                        listing = {
                            "sessions": [
                                self._shard_fields(info)
                                for info in service.sessions.list()
                            ]
                        }
                        if service.shard is not None:
                            listing["shard"] = service.shard.index
                            listing["workers"] = service.shard.count
                        return self._send_counted("sessions", listing)
                    if method == "POST":
                        return self._handle_create_session()
                elif len(parts) == 2:
                    if method == "GET":
                        return self._send_counted(
                            "sessions",
                            self._shard_fields(
                                service.sessions.get(parts[1]).describe()
                            ),
                        )
                    if method == "DELETE":
                        return self._send_counted(
                            "sessions", service.sessions.delete(parts[1])
                        )
                elif len(parts) == 3 and parts[2] == "freeze" and method == "POST":
                    return self._handle_freeze(parts[1])
                elif len(parts) == 3 and parts[2] == "anonymize" and method == "POST":
                    return self._handle_anonymize(parts[1])
                elif len(parts) == 3 and parts[2] == "state":
                    if method == "GET":
                        return self._handle_state_export(parts[1])
                    if method in ("PUT", "POST"):
                        return self._handle_state_import(parts[1])
            self._send_error_json(404, "no such endpoint: {} {}".format(method, path))
        except RequestTooLargeError:
            self.close_connection = True
            self._send_error_json(
                413,
                "request body exceeds the {} byte limit".format(
                    service.max_request_bytes
                ),
            )
        except QueueFullError:
            self._send_error_json(
                429, "work queue full; retry shortly", retry_after=1
            )
        except UnknownSessionError as exc:
            # "recoverable": the session's durable history survived a
            # restart; POST /sessions {"salt", "resume"} brings it back.
            self._send_error_json(
                404,
                str(exc),
                body_extra={
                    "recoverable": bool(getattr(exc, "recoverable", False))
                },
            )
        except (SessionOptionsError, SessionStateError) as exc:
            self._send_error_json(400, str(exc))
        except SessionError as exc:
            self._send_error_json(409, str(exc))
        except RecoveryError as exc:
            # Resume refused (wrong salt / quarantined history): the
            # client must not retry blindly — fail-closed, not a 500.
            self._send_error_json(409, str(exc))
        except JournalDiskError as exc:
            # Disk-level write failure (ENOSPC/EIO): the append was
            # rolled back cleanly — nothing was acknowledged, nothing
            # torn — so the condition is transient.  507 + Retry-After
            # parks the session read-only; the client's retry is the
            # half-open probe that clears it once writes succeed.
            service.metrics.inc_counter("repro_disk_degraded_responses_total")
            self._send_error_json(507, str(exc), retry_after=2)
        except BrokenPipeError:
            self.close_connection = True
        except Exception as exc:
            # Never echo request content: class name only.
            self.close_connection = True
            try:
                self._send_error_json(
                    500, "internal error ({})".format(type(exc).__name__)
                )
            except Exception:
                pass

    # -- endpoint handlers ----------------------------------------------

    def _handle_healthz(self) -> None:
        service = self.server.service
        document = {
            "status": "draining" if service.draining else "ok",
            "sessions": len(service.sessions),
            "queue_depth": service.executor.depth(),
            "in_flight": service.executor.in_flight(),
            "pid": os.getpid(),
        }
        if service.shard is not None:
            document["shard"] = service.shard.index
            document["workers"] = service.shard.count
            document["generation"] = service.generation
            document["shards"] = service.shard.table()
        if service.status_board is not None and service.shard is not None:
            board = service.status_board
            count = service.shard.count
            age = board.heartbeat_age(service.shard.index)
            document["watchdog"] = {
                "timeout": service.watchdog_timeout or None,
                "heartbeat_age": None if age is None else round(age, 3),
            }
            document["respawns"] = {
                str(i): board.respawns(i) for i in range(count)
            }
            if service.respawn_limit is not None:
                document["respawn_budget"] = {
                    str(i): max(0, service.respawn_limit - board.respawns(i))
                    for i in range(count)
                }
        if service.store is not None:
            document["durable"] = True
            document["recoverable_sessions"] = len(
                service.store.summary.recoverable
            )
            document["quarantined_sessions"] = len(
                service.store.summary.quarantined
            )
        self._send_json(200, document)
        service.metrics.observe_request("healthz", 200)

    def _handle_metrics(self) -> None:
        """The scrape: local registry, or the cross-worker aggregate.

        In the pre-fork daemon every worker's counters are per-process;
        a scrape that only saw one shard would under-report by ~N.  So
        the worker that fields ``GET /metrics`` collects every shard's
        snapshot — its own under the registry lock, its siblings via
        ``GET /metrics/local`` on their direct listeners — and renders
        the merged exposition, with ``repro_worker_up{shard=...}``
        showing who answered.  A worker mid-respawn reports as 0 rather
        than failing the scrape.
        """
        service = self.server.service
        if service.shard is None:
            body = service.metrics.render().encode("utf-8")
        else:
            snapshots = []
            worker_up: Dict[int, int] = {}
            for index, address in enumerate(service.shard.addresses):
                if index == service.shard.index:
                    snapshots.append(service.metrics.snapshot())
                    worker_up[index] = 1
                    continue
                snap = _fetch_shard_snapshot(address)
                if snap is None:
                    worker_up[index] = 0
                else:
                    snapshots.append(snap)
                    worker_up[index] = 1
            body = render_snapshot(
                merge_snapshots(snapshots), worker_up=worker_up
            ).encode("utf-8")
        self._send_bytes(200, body, "text/plain; version=0.0.4; charset=utf-8")
        service.metrics.observe_request("metrics", 200)

    def _handle_metrics_local(self) -> None:
        """This worker's registry snapshot as JSON (the aggregation wire)."""
        service = self.server.service
        self._send_json(200, service.metrics.snapshot())
        service.metrics.observe_request("metrics", 200)

    def _redirect_to_shard(self, session_id: str) -> None:
        service = self.server.service
        shard = service.shard
        target = shard.address_for(session_id)
        index = next(
            i for i, addr in enumerate(shard.addresses) if addr == target
        )
        # The request body may be wholly unread: close, don't reuse.
        self.close_connection = True
        location = target + self.path
        self._send_bytes(
            307,
            json.dumps(
                {"redirect": location, "shard": index}, sort_keys=True
            ).encode("utf-8"),
            "application/json",
            extra_headers={
                "Location": location,
                "X-Repro-Shard": str(index),
            },
        )
        service.metrics.observe_request("redirect", 307)

    def _shard_fields(self, document: Dict) -> Dict:
        """Stamp a session document with its shard and direct URL."""
        service = self.server.service
        if service.shard is not None and isinstance(document, dict):
            document = dict(
                document,
                shard=service.shard.index,
                shard_url=service.shard.own_address,
            )
        return document

    def _handle_create_session(self) -> None:
        service = self.server.service
        if service.draining:
            return self._send_error_json(503, "service is draining")
        document = self._read_json()
        if document.get("resume"):
            resume_id = document["resume"]
            if service.shard is not None and not service.shard.owns(
                str(resume_id)
            ):
                # The durable history lives in the owning worker's shard
                # directory; only that worker may replay it.
                return self._redirect_to_shard(str(resume_id))
            session = service.sessions.resume(
                document.get("salt"), resume_id
            )
            service.metrics.observe_request("sessions", 200)
            return self._send_json(200, self._shard_fields(session.describe()))
        session = service.sessions.create(
            document.get("salt"), document.get("options")
        )
        if "state" in document:
            try:
                session.import_state(json.dumps(document["state"]))
            except SessionError:
                service.sessions.delete(session.id)
                raise
        service.metrics.observe_request("sessions", 201)
        self._send_json(201, self._shard_fields(session.describe()))

    def _handle_freeze(self, session_id: str) -> None:
        service = self.server.service
        session = service.sessions.get(session_id)
        document = self._read_json()
        started = time.perf_counter()
        job = service.executor.submit(
            lambda: session.freeze(document.get("files"))
        )
        result = self._wait_or_503("freeze", job)
        if result is None:
            return
        service.metrics.observe_request(
            "freeze", 200, time.perf_counter() - started
        )
        self._send_json(200, result)

    def _handle_anonymize(self, session_id: str) -> None:
        service = self.server.service
        if service.draining:
            return self._send_error_json(503, "service is draining")
        session = service.sessions.get(session_id)
        source = self.headers.get("X-Repro-Source", "<config>")
        idempotency_key = self.headers.get("X-Repro-Idempotency-Key") or None
        if self.headers.get("X-Repro-Corpus"):
            service.metrics.inc_counter("repro_corpus_files_total")
        if self.headers.get("X-Repro-Failover"):
            service.metrics.inc_counter("repro_corpus_failovers_total")
        text = self._read_body().decode("utf-8", errors="replace")
        fault_plan = session.anonymizer.fault_plan
        if fault_plan is not None and fault_plan.hang_worker_once(source):
            # Injected live-hang: wedge this worker's serve loops — the
            # process stays alive, the sockets stay bound, the heartbeat
            # stops.  Nothing inside the process recovers from this;
            # only the supervisor's watchdog can (SIGKILL + respawn).
            service.request_hang()
            self.close_connection = True
            return
        if fault_plan is not None and fault_plan.drop_connection_once(
            "pre-commit", source
        ):
            # Injected ambiguous failure: nothing was committed, so a
            # retry re-runs the work from scratch.
            self.close_connection = True
            return
        started = time.perf_counter()
        job = service.executor.submit(
            lambda: session.anonymize(
                text, source=source, idempotency_key=idempotency_key
            )
        )
        result = self._wait_or_503("anonymize", job)
        if result is None:
            return
        if fault_plan is not None and fault_plan.drop_connection_once(
            "post-commit", source
        ):
            # Injected ambiguous failure: the journal record is durably
            # committed but the response is lost.  A retry presenting the
            # same idempotency key gets the journaled result back.
            self.close_connection = True
            return
        service.metrics.observe_request(
            "anonymize", 200, time.perf_counter() - started
        )
        service.metrics.record_rule_hits(result["report"]["rule_hits"])
        self._send_json(200, result)

    def _wait_or_503(self, endpoint: str, job: _Job):
        """Wait out a job; on timeout abandon it and answer 503.

        The abandoned job may still complete inside a worker — its
        journal commit happens (making the retry idempotent) but its
        response is discarded, and the executor's gauges stay honest
        because the worker's in-flight accounting runs regardless.
        Returns ``None`` after answering the 503.
        """
        service = self.server.service
        try:
            return job.wait(service.request_timeout)
        except TimeoutError:
            job.abandon()
            service.metrics.inc_counter("repro_requests_timed_out_total")
            self._send_error_json(
                503,
                "{} did not complete within {:g}s; retry with the same "
                "idempotency key to pick up the committed result".format(
                    endpoint, service.request_timeout
                ),
                retry_after=1,
            )
            return None

    def _handle_state_export(self, session_id: str) -> None:
        service = self.server.service
        session = service.sessions.get(session_id)
        self._send_bytes(
            200, session.export_state().encode("utf-8"), "application/json"
        )
        service.metrics.observe_request("state", 200)

    def _handle_state_import(self, session_id: str) -> None:
        service = self.server.service
        session = service.sessions.get(session_id)
        session.import_state(self._read_body().decode("utf-8", errors="replace"))
        service.metrics.observe_request("state", 200)
        self._send_json(200, {"imported": True})

    def _send_counted(self, endpoint: str, document) -> None:
        self._send_json(200, document)
        self.server.service.metrics.observe_request(endpoint, 200)

    # -- body / response plumbing ---------------------------------------

    def _read_body(self) -> bytes:
        limit = self.server.service.max_request_bytes
        encoding = (self.headers.get("Transfer-Encoding") or "").lower()
        if "chunked" in encoding:
            return self._read_chunked(limit)
        length_header = self.headers.get("Content-Length")
        length = int(length_header) if length_header else 0
        if length > limit:
            raise RequestTooLargeError()
        if length <= 0:
            return b""
        return self.rfile.read(length)

    def _read_chunked(self, limit: int) -> bytes:
        """Decode a chunked request body (``http.server`` does not)."""
        data = bytearray()
        while True:
            size_line = self.rfile.readline(66)
            if b";" in size_line:  # chunk extensions
                size_line = size_line.split(b";", 1)[0]
            try:
                size = int(size_line.strip() or b"0", 16)
            except ValueError:
                raise SessionOptionsError("malformed chunked request body")
            if size == 0:
                while True:  # trailers, then the final blank line
                    line = self.rfile.readline(1024)
                    if line in (b"\r\n", b"\n", b""):
                        break
                return bytes(data)
            if len(data) + size > limit:
                raise RequestTooLargeError()
            chunk = self.rfile.read(size)
            if len(chunk) != size:
                raise SessionOptionsError("truncated chunked request body")
            data += chunk
            self.rfile.read(2)  # the CRLF after each chunk

    def _read_json(self) -> dict:
        body = self._read_body()
        try:
            document = json.loads(body.decode("utf-8", errors="replace") or "{}")
        except ValueError:
            raise SessionOptionsError("request body is not valid JSON")
        if not isinstance(document, dict):
            raise SessionOptionsError("request body must be a JSON object")
        return document

    def _send_json(self, code: int, document) -> None:
        self._send_bytes(
            code,
            json.dumps(document, sort_keys=True).encode("utf-8"),
            "application/json",
        )

    def _send_error_json(
        self,
        code: int,
        message: str,
        retry_after: Optional[int] = None,
        body_extra: Optional[dict] = None,
    ) -> None:
        # The request body may be partly unread on an error path; closing
        # the connection keeps HTTP/1.1 keep-alive framing honest.
        self.close_connection = True
        extra = {}
        if retry_after is not None:
            extra["Retry-After"] = str(retry_after)
        body = dict(body_extra or {}, error=message)
        self._send_bytes(
            code,
            json.dumps(body, sort_keys=True).encode("utf-8"),
            "application/json",
            extra_headers=extra,
        )
        endpoint = urlparse(self.path).path.split("/")
        name = endpoint[1] if len(endpoint) > 1 and endpoint[1] else "unknown"
        self.server.service.metrics.observe_request(name, code)

    def _send_bytes(
        self,
        code: int,
        body: bytes,
        content_type: str,
        extra_headers: Optional[dict] = None,
    ) -> None:
        if self.server.service.draining:
            # Never park a keep-alive connection on a draining daemon:
            # in-flight responses go out, then the connection closes so
            # server_close() is not held hostage by idle clients.
            self.close_connection = True
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for key, value in (extra_headers or {}).items():
            self.send_header(key, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)


def _fetch_shard_snapshot(base_url: str, timeout: float = 2.0) -> Optional[Dict]:
    """One sibling worker's ``/metrics/local`` snapshot, or None.

    Any failure — connection refused while the worker respawns, a slow
    answer, garbage — degrades to "worker down" in the aggregate rather
    than failing the scrape.
    """
    parsed = urlparse(base_url)
    try:
        connection = http.client.HTTPConnection(
            parsed.hostname, parsed.port, timeout=timeout
        )
        try:
            connection.request("GET", "/metrics/local")
            response = connection.getresponse()
            if response.status != 200:
                return None
            document = json.loads(response.read().decode("utf-8"))
        finally:
            connection.close()
    except (OSError, ValueError, http.client.HTTPException):
        return None
    return document if isinstance(document, dict) else None


def _adopt_http_server(sock: socket.socket) -> "_ThreadingHTTPServer":
    """Wrap a pre-bound TCP socket in the threading HTTP server.

    The pre-fork supervisor binds sockets before forking (or a worker
    binds its own ``SO_REUSEPORT`` socket); either way the server must
    adopt the existing file descriptor instead of binding a fresh one.
    ``server_activate`` (re-)listens, which is idempotent for an
    already-listening inherited socket.
    """
    server = _ThreadingHTTPServer(
        sock.getsockname()[:2], ServiceRequestHandler, bind_and_activate=False
    )
    server.socket.close()
    server.socket = sock
    host, port = sock.getsockname()[:2]
    server.server_address = (host, port)
    server.server_name = host
    server.server_port = port
    server.server_activate()
    return server


class AnonymizationService:
    """One daemon process: transport + sessions + executor + metrics.

    Construct, then either :meth:`serve_forever` (the CLI) or
    :meth:`start_background` (tests).  :meth:`shutdown` performs the
    graceful drain in either case.

    In the pre-fork sharded daemon each worker process constructs one of
    these with *shard* (its :class:`~repro.service.sharding.ShardInfo`),
    *listen_socket* (the shared accept socket), and *direct_socket* (its
    own per-shard listener, used for redirects and metrics aggregation);
    ``workers`` here is the per-process request *thread* pool, not the
    process count — that lives in the supervisor.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_socket: Optional[str] = None,
        workers: int = 4,
        queue_limit: int = 16,
        max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
        max_sessions: int = 64,
        request_timeout: float = 300.0,
        state_dir: Optional[str] = None,
        snapshot_every: int = 64,
        shard: Optional[ShardInfo] = None,
        listen_socket: Optional[socket.socket] = None,
        direct_socket: Optional[socket.socket] = None,
        generation: int = 0,
        status_board=None,
        watchdog_timeout: float = 0.0,
        respawn_limit: Optional[int] = None,
    ):
        self.metrics = ServiceMetrics()
        for name, help_text in DURABILITY_COUNTERS + CORPUS_COUNTERS:
            self.metrics.register_counter(name, help_text)
        # Pre-seed every rule family this daemon can produce — the
        # builtin groupings plus each active recognizer plugin — so the
        # per-family hit counters render from the very first scrape
        # (no first-hit gaps in rate() queries or CI asserts).
        from repro.plugins import resolve_active_plugins

        self.active_plugins = tuple(
            plugin.family for plugin in resolve_active_plugins()
        )
        for family in (
            "token",
            "comment",
            "misc",
            "asn",
            "ip",
            "secret",
            "junos",
            "fail_closed",
        ) + self.active_plugins:
            self.metrics.register_rule_family(family)
        self.store: Optional[SessionStore] = None
        self.recovery_summary = None
        if state_dir is not None:
            # Recovery runs before the listener exists: a state dir the
            # daemon cannot trust must abort startup (JournalError
            # propagates to the CLI → EXIT_RECOVERY_FAILED), never serve.
            self.store = SessionStore(state_dir, snapshot_every=snapshot_every)
            self.recovery_summary = self.store.recover()
            if self.recovery_summary.torn_discarded:
                self.metrics.inc_counter(
                    "repro_service_journal_torn_discarded_total",
                    self.recovery_summary.torn_discarded,
                )
            if self.recovery_summary.quarantined:
                self.metrics.inc_counter(
                    "repro_service_journal_quarantined_total",
                    len(self.recovery_summary.quarantined),
                )
        self.sessions = SessionManager(
            max_sessions=max_sessions,
            store=self.store,
            metrics=self.metrics,
            snapshot_every=snapshot_every,
            shard=shard,
        )
        self.executor = BoundedExecutor(workers=workers, queue_limit=queue_limit)
        self.max_request_bytes = max_request_bytes
        self.request_timeout = request_timeout
        self.draining = False
        self.unix_socket = unix_socket
        self.shard = shard
        self.generation = generation
        #: Supervisor-shared heartbeat/counter slots (pre-fork mode only).
        self.status_board = status_board
        self.watchdog_timeout = watchdog_timeout
        self.respawn_limit = respawn_limit
        self._hang_forever = False
        if listen_socket is not None:
            self.httpd: _ThreadingHTTPServer = _adopt_http_server(listen_socket)
        elif unix_socket is not None:
            self.httpd = _UnixHTTPServer(unix_socket, ServiceRequestHandler)
        else:
            self.httpd = _ThreadingHTTPServer(
                (host, port), ServiceRequestHandler
            )
        self.httpd.service = self
        self.direct_httpd: Optional[_ThreadingHTTPServer] = None
        if direct_socket is not None:
            self.direct_httpd = _adopt_http_server(direct_socket)
            self.direct_httpd.service = self
        self.metrics.register_gauge(
            "repro_queue_depth",
            "Anonymization jobs waiting for a worker.",
            self.executor.depth,
        )
        self.metrics.register_gauge(
            "repro_requests_in_flight",
            "Anonymization jobs currently running.",
            self.executor.in_flight,
        )
        self.metrics.register_gauge(
            "repro_sessions",
            "Live anonymization sessions.",
            lambda: len(self.sessions),
        )
        self.metrics.register_gauge(
            "repro_disk_degraded",
            "Sessions parked read-only by a disk-level journal write "
            "failure (clears when an append succeeds again).",
            self.sessions.disk_degraded_count,
        )
        for family in self.active_plugins:
            self.metrics.register_labeled_gauge(
                "repro_active_plugins",
                "Recognizer plugin families composed into this daemon's "
                "rule pipeline (1 per active family and worker; "
                "aggregated scrapes sum to the worker count).",
                {"family": family},
                lambda: 1.0,
            )
        self.metrics.register_labeled_gauge(
            "repro_circuit_open",
            "Whether this shard's journal write path is open (any "
            "session disk-degraded); per-shard series merge across "
            "workers on the aggregated scrape.",
            {"shard": str(shard.index if shard is not None else 0)},
            lambda: 1.0 if self.sessions.disk_degraded_count() else 0.0,
        )
        if status_board is not None and shard is not None:
            # Each worker exposes only its OWN shard's series: the
            # aggregated scrape merges one series per live worker, so
            # the supervisor-owned counts are never multiplied by N.
            own = shard.index
            self.metrics.register_labeled_gauge(
                "repro_worker_respawns_total",
                "Times the supervisor respawned this shard's worker "
                "(pre-registered at 0; counted by the supervisor).",
                {"shard": str(own)},
                lambda: float(status_board.respawns(own)),
            )
            self.metrics.register_labeled_gauge(
                "repro_worker_hung_total",
                "Times the watchdog SIGKILLed this shard's worker for a "
                "stale heartbeat (hang, not crash).",
                {"shard": str(own)},
                lambda: float(status_board.hung(own)),
            )
        self._thread: Optional[threading.Thread] = None
        self._direct_thread: Optional[threading.Thread] = None

    # -- addressing ------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` for TCP, ``(socket path, 0)`` for Unix."""
        if self.unix_socket is not None:
            return (self.unix_socket, 0)
        return self.httpd.server_address[:2]

    @property
    def base_url(self) -> str:
        host, port = self.address
        if self.unix_socket is not None:
            return "unix://{}".format(host)
        return "http://{}:{}".format(host, port)

    # -- watchdog heartbeat ----------------------------------------------

    def heartbeat_tick(self) -> None:
        """Refresh this worker's heartbeat slot (called by every serve
        loop between accepts).  An injected live-hang wedges the caller
        right here — which is the point: the loop that would have beaten
        the heart is the loop that is stuck."""
        if self._hang_forever:
            while True:
                time.sleep(3600)
        if self.status_board is not None and self.shard is not None:
            self.status_board.beat(self.shard.index)

    def request_hang(self) -> None:
        """Arm the injected live-hang (``worker-hang`` fault): every
        serve loop wedges at its next ``heartbeat_tick``."""
        self._hang_forever = True

    # -- lifecycle -------------------------------------------------------

    def _start_direct(self) -> None:
        if self.direct_httpd is not None and self._direct_thread is None:
            thread = threading.Thread(
                target=_serve_off_main_thread,
                args=(self.direct_httpd,),
                name="repro-shard-direct",
                daemon=True,
            )
            thread.start()
            self._direct_thread = thread

    def serve_forever(self) -> None:
        self._start_direct()
        self.httpd.serve_forever()

    def start_background(self) -> threading.Thread:
        self._start_direct()
        thread = threading.Thread(
            target=_serve_off_main_thread,
            args=(self.httpd,),
            name="repro-service",
            daemon=True,
        )
        thread.start()
        self._thread = thread
        return thread

    def begin_drain(self) -> None:
        """Flag the drain (healthz reports it; new work gets 503)."""
        self.draining = True

    def stop_serving(self) -> None:
        """Stop both accept loops (blocks until they have exited)."""
        self.httpd.shutdown()
        if self.direct_httpd is not None:
            self.direct_httpd.shutdown()

    def close_idle_connections(self) -> None:
        self.httpd.close_idle_connections()
        if self.direct_httpd is not None:
            self.direct_httpd.close_idle_connections()

    def drain_close(self) -> None:
        """After the accept loops stopped: join connections, drain work.

        Idle keep-alive connections are closed first so ``server_close``
        (which joins every connection thread) is not held hostage by a
        client parked between requests; connection threads mid-request
        finish — their queued jobs still complete because the executor
        is drained *after* — then the executor and sessions go.
        """
        self.close_idle_connections()
        self.httpd.server_close()
        if self.direct_httpd is not None:
            self.direct_httpd.server_close()
        self.executor.shutdown(wait=True)
        self.sessions.close_all()

    def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, tear down."""
        self.begin_drain()
        self.stop_serving()
        self.drain_close()
        if self.unix_socket is not None:
            try:
                os.unlink(self.unix_socket)
            except OSError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=10)
        if self._direct_thread is not None:
            self._direct_thread.join(timeout=10)
