"""``repro-anonymize serve`` and ``repro-anonymize submit``.

``serve`` runs the daemon in the foreground until SIGTERM/SIGINT, then
drains gracefully (in-flight requests finish) and exits 0.  ``submit`` is
the batch CLI's service-backed twin: it collects the same input files,
creates a session, freezes the mapping state over the whole corpus (so
the result is byte-identical to ``repro-anonymize --jobs N``), submits
file by file, writes outputs with the same atomic writer, and maps its
outcome to the shared exit codes of :mod:`repro.core.status`.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from pathlib import Path

from repro.core.status import (
    EXIT_BAD_FAULT_PLAN,
    EXIT_JOURNAL_CORRUPT,
    EXIT_NO_INPUT,
    EXIT_OK,
    EXIT_RECOVERY_FAILED,
    EXIT_SERVICE_ERROR,
    EXIT_STATE_ERROR,
    exit_code_for,
)

__all__ = ["serve_main", "submit_main"]


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-anonymize serve",
        description="Run the anonymization service daemon (stdlib HTTP "
        "over TCP or a Unix socket).",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port",
        type=int,
        default=8753,
        help="TCP port (0 picks an ephemeral port, printed on startup)",
    )
    parser.add_argument(
        "--unix-socket",
        default=None,
        metavar="PATH",
        help="serve on a Unix domain socket instead of TCP",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="pre-forked worker processes sharing the listening port "
        "through SO_REUSEPORT; sessions are sharded across them by a "
        "stable hash of the session id (TCP only)",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=4,
        help="anonymization worker threads per process",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=16,
        help="queued requests beyond the workers before 429s",
    )
    parser.add_argument(
        "--max-request-bytes",
        type=int,
        default=32 * 1024 * 1024,
        help="reject request bodies larger than this with 413",
    )
    parser.add_argument(
        "--max-sessions", type=int, default=64, help="live session cap"
    )
    parser.add_argument(
        "--request-timeout",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="abandon a request that has not completed after this long "
        "(the client gets 503 + Retry-After)",
    )
    parser.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="make sessions durable: write-ahead journal + snapshots "
        "here, and recover them after a crash or restart",
    )
    parser.add_argument(
        "--snapshot-every",
        type=int,
        default=64,
        metavar="N",
        help="rotate a session's journal into a full snapshot every N "
        "records",
    )
    parser.add_argument(
        "--strict-recovery",
        action="store_true",
        help="refuse to start if recovery quarantined any session "
        "(exit {})".format(EXIT_JOURNAL_CORRUPT),
    )
    parser.add_argument(
        "--ready-file",
        default=None,
        metavar="PATH",
        help="after binding, write the service URL here (scripts/CI poll it)",
    )
    parser.add_argument(
        "--watchdog-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="with --workers > 1, SIGKILL and respawn a worker whose "
        "heartbeat is older than this (0 disables the watchdog)",
    )
    return parser


def serve_main(argv=None) -> int:
    parser = build_serve_parser()
    args = parser.parse_args(argv)
    if args.workers < 1 or args.threads < 1 or args.queue_limit < 1:
        parser.error("--workers, --threads, and --queue-limit must be >= 1")
    # A typo'd fault plan must refuse to start, not inject nothing or
    # explode mid-request: validate the environment spec before binding.
    from repro.core.faults import FaultPlanError, parse_env_fault_plan

    try:
        parse_env_fault_plan()
    except FaultPlanError as exc:
        print(
            "error: invalid REPRO_FAULT_PLAN: {}".format(exc),
            file=sys.stderr,
        )
        return EXIT_BAD_FAULT_PLAN
    if args.workers > 1:
        if args.unix_socket is not None:
            parser.error(
                "--workers > 1 shares a TCP port; it cannot be combined "
                "with --unix-socket"
            )
        from repro.service.supervisor import run_supervisor

        return run_supervisor(args)

    from repro.service.journal import JournalError
    from repro.service.server import AnonymizationService
    from repro.service.sharding import (
        TopologyError,
        check_topology,
        write_topology,
    )

    if args.state_dir is not None:
        try:
            check_topology(args.state_dir, 1)
            write_topology(args.state_dir, 1)
        except TopologyError as exc:
            print("error: {}".format(exc), file=sys.stderr)
            return EXIT_RECOVERY_FAILED
        except OSError as exc:
            print(
                "error: cannot use state dir {}: {}".format(
                    args.state_dir, exc
                ),
                file=sys.stderr,
            )
            return EXIT_RECOVERY_FAILED
    try:
        service = AnonymizationService(
            host=args.host,
            port=args.port,
            unix_socket=args.unix_socket,
            workers=args.threads,
            queue_limit=args.queue_limit,
            max_request_bytes=args.max_request_bytes,
            max_sessions=args.max_sessions,
            request_timeout=args.request_timeout,
            state_dir=args.state_dir,
            snapshot_every=args.snapshot_every,
        )
    except JournalError as exc:
        print(
            "error: state recovery failed: {}".format(exc), file=sys.stderr
        )
        return EXIT_RECOVERY_FAILED
    summary = service.recovery_summary
    if summary is not None:
        print("state recovery: {}".format(summary.describe()))
        for session_id, reason in sorted(summary.quarantined.items()):
            print(
                "quarantined session {}: {}".format(session_id, reason),
                file=sys.stderr,
            )
        if args.strict_recovery and summary.quarantined:
            print(
                "error: --strict-recovery set and {} session(s) were "
                "quarantined; inspect the *.quarantined directories under "
                "{} before serving".format(
                    len(summary.quarantined), args.state_dir
                ),
                file=sys.stderr,
            )
            # serve_forever never ran, so httpd.shutdown() would block
            # on its never-set event: close the pieces directly.
            service.drain_close()
            return EXIT_JOURNAL_CORRUPT
    print("repro-anonymize service listening on {}".format(service.base_url))
    sys.stdout.flush()
    if args.ready_file:
        Path(args.ready_file).write_text(service.base_url + "\n")

    def _drain(signum, frame):
        # serve_forever() runs in this (main) thread, so the actual
        # shutdown handshake must happen elsewhere.
        service.begin_drain()
        threading.Thread(target=service.stop_serving, daemon=True).start()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    try:
        service.serve_forever()
    finally:
        # serve_forever returned: the accept loop stopped.  Close idle
        # keep-alive connections, join the busy ones, drain the
        # executor, drop the sessions.
        service.drain_close()
    print("repro-anonymize service drained; exiting")
    return EXIT_OK


def build_submit_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-anonymize submit",
        description="Anonymize config files through a running "
        "repro-anonymize service.",
    )
    parser.add_argument("paths", nargs="*", help="config files or directories")
    parser.add_argument(
        "--corpus",
        default=None,
        metavar="DIR",
        help="corpus fan-out mode: freeze once over every file under DIR, "
        "open one session per shard, and drive the files across the "
        "shards with failover (requires --out-dir and --salt)",
    )
    parser.add_argument(
        "--corpus-jobs",
        type=int,
        default=4,
        metavar="N",
        help="concurrent in-flight files in --corpus mode",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="overall budget for the corpus run; files that cannot be "
        "completed on any shard before it expires are quarantined "
        "(exit code 10, EXIT_PARTIAL_CORPUS)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted --corpus run from the manifest in "
        "--out-dir (files whose recorded digests still match on-disk "
        "outputs are skipped; byte-identical to an uninterrupted run)",
    )
    parser.add_argument(
        "--corpus-report",
        default=None,
        metavar="PATH",
        help="write the merged corpus report (failovers, breaker states, "
        "quarantines) as JSON",
    )
    parser.add_argument(
        "--server",
        default=None,
        metavar="URL",
        help="service base URL (http://host:port or unix:///path)",
    )
    parser.add_argument(
        "--unix-socket", default=None, metavar="PATH", help="service socket"
    )
    parser.add_argument(
        "--salt", default=None, help="owner secret (required; keep private!)"
    )
    parser.add_argument(
        "--session",
        default=None,
        metavar="ID",
        help="reuse an existing session instead of creating one "
        "(it is left alive afterwards)",
    )
    parser.add_argument(
        "--out-dir", default=None, help="directory for anonymized outputs"
    )
    parser.add_argument(
        "--suffix", default=".anon", help="suffix for outputs next to inputs"
    )
    parser.add_argument(
        "--report", action="store_true", help="print each file's flag count"
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=5,
        metavar="N",
        help="attempts per request before giving up (transient failures "
        "back off exponentially with jitter; 1 disables retrying)",
    )
    parser.add_argument(
        "--retry-base-delay",
        type=float,
        default=0.1,
        metavar="SECONDS",
        help="first backoff delay; doubles per attempt up to 5s",
    )
    parser.add_argument(
        "--retry-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="cap the total time spent retrying any one request",
    )
    return parser


def submit_main(argv=None) -> int:
    parser = build_submit_parser()
    args = parser.parse_args(argv)
    if args.server is None and args.unix_socket is None:
        parser.error("pass --server URL or --unix-socket PATH")
    if args.session is None and args.salt is None:
        parser.error("--salt is required (unless --session reuses one)")
    if args.corpus is None and not args.paths:
        parser.error("pass config files/directories or --corpus DIR")
    if args.retries < 1:
        parser.error("--retries must be >= 1")

    from repro.cli import _collect_files
    from repro.core.runner import RunnerError, atomic_write_text, resolve_out_paths
    from repro.service.client import (
        RetryingServiceClient,
        RetryPolicy,
        ServiceClientError,
    )

    if args.corpus is not None:
        if args.out_dir is None:
            parser.error("--corpus requires --out-dir (the resume manifest "
                         "lives there)")
        if args.salt is None:
            parser.error("--corpus requires --salt")
        if args.session is not None:
            parser.error("--corpus opens its own per-shard sessions; "
                         "--session cannot be combined with it")
        if args.corpus_jobs < 1:
            parser.error("--corpus-jobs must be >= 1")
        from repro.service.corpus import run_corpus_main

        try:
            configs = _collect_files(list(args.paths) + [args.corpus])
        except FileNotFoundError as exc:
            print("error: {}".format(exc), file=sys.stderr)
            return EXIT_NO_INPUT
        if not configs:
            print("error: no readable config files found", file=sys.stderr)
            return EXIT_NO_INPUT
        try:
            out_paths = resolve_out_paths(configs, args.out_dir, args.suffix)
        except RunnerError as exc:
            print("error: {}".format(exc), file=sys.stderr)
            return EXIT_STATE_ERROR
        return run_corpus_main(args, configs, out_paths)

    configs = _collect_files(args.paths)
    if not configs:
        print("error: no readable config files found", file=sys.stderr)
        return EXIT_NO_INPUT
    try:
        out_paths = resolve_out_paths(configs, args.out_dir, args.suffix)
    except RunnerError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return EXIT_STATE_ERROR

    client = RetryingServiceClient(
        base_url=args.server,
        unix_socket=args.unix_socket,
        salt=args.salt,
        policy=RetryPolicy(
            max_attempts=args.retries,
            base_delay=args.retry_base_delay,
            deadline=args.retry_deadline,
        ),
    )
    created = False
    try:
        if args.session is not None:
            session_id = args.session
        else:
            session = client.create_session(args.salt)
            session_id = session["id"]
            created = True
            print(
                "session {} (salt fingerprint {})".format(
                    session_id, session["salt_fingerprint"]
                )
            )
            stats = client.freeze(session_id, configs)
            print(
                "froze mappings over {} files ({} addresses)".format(
                    len(configs), stats["addresses"]
                )
            )

        leaks = False
        dirty = False
        for name in sorted(configs):
            result = client.anonymize(
                session_id, configs[name], source=name
            )
            if result["status"] != "ok":
                dirty = True
                print(
                    "fail-closed: {} ({} placeholder lines)".format(
                        name, result["report"]["lines_failed_closed"]
                    ),
                    file=sys.stderr,
                )
            flags = result["report"]["flags"]
            if flags:
                leaks = True
            if args.report:
                print(
                    "{}: {} lines, {} flags".format(
                        name,
                        result["report"]["lines_out"],
                        len(flags),
                    )
                )
            out_path = Path(out_paths[name])
            try:
                atomic_write_text(out_path, result["text"])
            except OSError as exc:
                dirty = True
                print(
                    "write failed for {} ({}): output withheld".format(
                        name, type(exc).__name__
                    ),
                    file=sys.stderr,
                )
                continue
            print("wrote {}".format(out_path))
        return exit_code_for(leaks=leaks, dirty=dirty)
    except ServiceClientError as exc:
        print("error: service request failed: {}".format(exc), file=sys.stderr)
        return EXIT_SERVICE_ERROR
    except (ConnectionError, OSError) as exc:
        print(
            "error: cannot reach the service ({})".format(
                type(exc).__name__
            ),
            file=sys.stderr,
        )
        return EXIT_SERVICE_ERROR
    finally:
        if created:
            try:
                client.delete_session(session_id)
            except Exception:
                pass
