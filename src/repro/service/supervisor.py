"""The pre-fork supervisor: N worker processes behind one socket.

``repro-anonymize serve --workers N`` (N >= 2) escapes the single-GIL
ceiling of the threaded daemon: a parent process binds the listening
socket(s), forks N workers, and from then on only supervises — every
byte of request traffic is handled inside a worker.  The design:

**Sockets.**  Each worker binds its *own* listening socket to the
shared address with ``SO_REUSEPORT`` (Linux >= 3.9) and the kernel
load-balances incoming connections across them; the parent holds a
bound-but-never-listening reservation socket so the port cannot be
stolen while workers respawn.  A platform without ``SO_REUSEPORT``
cannot run ``--workers > 1``.  A connection lands on an arbitrary
worker; session *requests* are then routed by shard (below).

**Sharding.**  Sessions are assigned to workers by a stable hash of the
session id (:func:`repro.service.sharding.shard_for`).  Each worker also
listens on a private per-shard address (bound by the parent before the
fork, so every worker knows the full table); a request that lands on the
wrong worker is answered ``307 Temporary Redirect`` +
``X-Repro-Shard`` pointing at the owner's direct address — the client
library follows it once and pins the affinity.  Under ``--state-dir``
worker *i* owns ``state-dir/shard-0i/`` exclusively: its journals, its
snapshots, its recovery.  Killing one worker mid-write tears one
shard's journal tail and nobody else's.

**Supervision.**  SIGTERM/SIGINT fan out to every worker, each drains
gracefully (in-flight requests finish), and the parent exits 0 once all
are reaped.  A worker that dies any other way is respawned with the
*same shard index* — the replacement re-runs recovery over exactly its
shard's journals, while the surviving shards keep serving throughout.
Fault plans (``REPRO_FAULT_PLAN``) are one-shot per supervisor run: the
injected fault fires in the original worker, and respawned workers start
clean, so chaos drills converge instead of crash-looping.  Respawns are
budgeted (:data:`RESPAWN_LIMIT` per shard) so a genuinely broken worker
becomes a loud exit, not an infinite fork loop.
"""

from __future__ import annotations

import os
import select
import signal
import socket
import sys
import threading
import time
import traceback
from typing import Dict, List, Optional, Tuple

from repro.core.faults import FAULT_PLAN_ENV
from repro.core.status import (
    EXIT_JOURNAL_CORRUPT,
    EXIT_OK,
    EXIT_RECOVERY_FAILED,
)
from repro.service.sharding import (
    ShardInfo,
    TopologyError,
    check_topology,
    shard_state_dir,
    write_topology,
)
from repro.service.watchdog import WorkerStatusBoard

__all__ = ["RESPAWN_LIMIT", "run_supervisor"]

#: Respawns allowed per shard before the supervisor declares a crash
#: loop and tears the daemon down (fail loudly, never fork forever).
RESPAWN_LIMIT = 20

#: Worker exit codes that must not be answered with a respawn: the
#: replacement would hit the identical condition immediately.
_FATAL_EXITS = frozenset({EXIT_RECOVERY_FAILED, EXIT_JOURNAL_CORRUPT})

_READY_TIMEOUT = 60.0


def _bind_tcp(
    host: str, port: int, reuseport: bool = False, listen: bool = True
) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    if reuseport:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind((host, port))
    if listen:
        sock.listen(128)
    return sock


def _worker_process(
    index: int,
    args,
    bind_address: Tuple[str, int],
    direct_socket: socket.socket,
    shard: ShardInfo,
    generation: int,
    ready_fd: int,
    board: Optional[WorkerStatusBoard] = None,
    supervisor_pid: Optional[int] = None,
) -> int:
    """Run one worker (inside the forked child); returns its exit code."""
    from repro.service.journal import JournalError
    from repro.service.server import AnonymizationService

    listen_socket = _bind_tcp(*bind_address, reuseport=True, listen=True)
    state_dir = (
        str(shard_state_dir(args.state_dir, index))
        if args.state_dir is not None
        else None
    )
    try:
        service = AnonymizationService(
            workers=args.threads,
            queue_limit=args.queue_limit,
            max_request_bytes=args.max_request_bytes,
            max_sessions=args.max_sessions,
            request_timeout=args.request_timeout,
            state_dir=state_dir,
            snapshot_every=args.snapshot_every,
            shard=shard,
            listen_socket=listen_socket,
            direct_socket=direct_socket,
            generation=generation,
            status_board=board,
            watchdog_timeout=getattr(args, "watchdog_timeout", 0.0),
            respawn_limit=RESPAWN_LIMIT,
            supervisor_pid=supervisor_pid,
        )
    except JournalError as exc:
        print(
            "worker {}: state recovery failed: {}".format(index, exc),
            file=sys.stderr,
            flush=True,
        )
        os.write(ready_fd, b"F")
        os.close(ready_fd)
        return EXIT_RECOVERY_FAILED
    summary = service.recovery_summary
    if summary is not None and (summary.recoverable or summary.quarantined):
        print(
            "worker {} (shard {}): state recovery: {}".format(
                index, index, summary.describe()
            ),
            flush=True,
        )
        for session_id, reason in sorted(summary.quarantined.items()):
            print(
                "worker {}: quarantined session {}: {}".format(
                    index, session_id, reason
                ),
                file=sys.stderr,
                flush=True,
            )
    if args.strict_recovery and summary is not None and summary.quarantined:
        print(
            "worker {}: --strict-recovery set and {} session(s) were "
            "quarantined under {}".format(
                index, len(summary.quarantined), state_dir
            ),
            file=sys.stderr,
            flush=True,
        )
        service.drain_close()
        os.write(ready_fd, b"F")
        os.close(ready_fd)
        return EXIT_JOURNAL_CORRUPT

    def _drain(signum, frame):
        service.begin_drain()
        threading.Thread(target=service.stop_serving, daemon=True).start()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    os.write(ready_fd, b"R")
    os.close(ready_fd)
    try:
        service.serve_forever()
    finally:
        service.drain_close()
    return EXIT_OK


class _Supervisor:
    def __init__(self, args):
        self.args = args
        self.workers = args.workers
        self.shutting_down = False
        self.pids: Dict[int, int] = {}  # pid -> shard index
        self.generations: List[int] = [0] * self.workers
        self.respawns: List[int] = [0] * self.workers
        #: Shared heartbeat/counter slots, created pre-fork so every
        #: worker generation inherits the same pages.
        self.board = WorkerStatusBoard(self.workers)
        self.watchdog_timeout = float(
            getattr(args, "watchdog_timeout", 0.0) or 0.0
        )
        self.reservation: Optional[socket.socket] = None
        self.direct_sockets: List[socket.socket] = []
        self.addresses: Tuple[str, ...] = ()
        self.bind_address: Tuple[str, int] = (args.host, args.port)

    # -- sockets ---------------------------------------------------------

    def bind(self) -> None:
        host, port = self.args.host, self.args.port
        # Bound but never listening: reserves the port across worker
        # respawns without ever black-holing a connection (TCP SYNs are
        # only delivered to *listening* sockets).
        self.reservation = _bind_tcp(host, port, reuseport=True, listen=False)
        self.bind_address = self.reservation.getsockname()[:2]
        self.direct_sockets = [
            _bind_tcp("127.0.0.1", 0, listen=True) for _ in range(self.workers)
        ]
        self.addresses = tuple(
            "http://127.0.0.1:{}".format(sock.getsockname()[1])
            for sock in self.direct_sockets
        )

    @property
    def base_url(self) -> str:
        return "http://{}:{}".format(*self.bind_address)

    # -- forking ---------------------------------------------------------

    def spawn(self, index: int) -> int:
        """Fork the worker for *index*; returns the readiness read-fd."""
        # 0.0 = "not serving yet": the watchdog only judges a worker
        # after its serve loops post the first real heartbeat, so slow
        # recovery at startup is never mistaken for a hang (that window
        # is covered by the readiness timeout instead).
        self.board.beat(index, now=0.0)
        read_fd, write_fd = os.pipe()
        # Taken before the fork: a child that asked getppid() itself
        # could already see init if the supervisor died in between.
        supervisor_pid = os.getpid()
        pid = os.fork()
        if pid == 0:
            # Child: drop the parent's signal disposition before anything
            # else, close every inherited listener that is not ours, run.
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            signal.signal(signal.SIGINT, signal.SIG_DFL)
            os.close(read_fd)
            code = 1
            try:
                if self.reservation is not None:
                    self.reservation.close()
                for other, sock in enumerate(self.direct_sockets):
                    if other != index:
                        sock.close()
                shard = ShardInfo(index, self.workers, self.addresses)
                code = _worker_process(
                    index,
                    self.args,
                    self.bind_address,
                    self.direct_sockets[index],
                    shard,
                    self.generations[index],
                    write_fd,
                    board=self.board,
                    supervisor_pid=supervisor_pid,
                )
            except SystemExit as exc:
                code = int(exc.code or 0)
            except BaseException:
                traceback.print_exc()
                code = 1
            finally:
                os._exit(code)
        os.close(write_fd)
        self.pids[pid] = index
        return read_fd

    def wait_ready(self, index: int, read_fd: int) -> bool:
        """Block until the worker signals readiness (or fails/time out)."""
        deadline = time.monotonic() + _READY_TIMEOUT
        try:
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    print(
                        "worker {} never became ready".format(index),
                        file=sys.stderr,
                        flush=True,
                    )
                    return False
                readable, _, _ = select.select([read_fd], [], [], remaining)
                if not readable:
                    continue
                data = os.read(read_fd, 1)
                return data == b"R"
        finally:
            os.close(read_fd)

    # -- supervision -----------------------------------------------------

    def signal_workers(self, signum: int) -> None:
        for pid in list(self.pids):
            try:
                os.kill(pid, signum)
            except ProcessLookupError:
                pass

    def _on_signal(self, signum, frame):
        self.shutting_down = True
        self.signal_workers(signal.SIGTERM)

    # -- the hung-worker watchdog ----------------------------------------

    def _watchdog_loop(self) -> None:
        """SIGKILL any worker whose heartbeat went stale.

        A worker that *exits* is caught by ``os.wait``; this thread
        catches the one that *hangs* — process alive, sockets bound,
        serve loops wedged.  The kill feeds the killed pid straight into
        the normal ``os.wait`` respawn path (same budget, same one-shot
        fault-plan stripping), so detection and recovery share one code
        path.
        """
        interval = max(0.05, min(1.0, self.watchdog_timeout / 4.0))
        while not self.shutting_down and self.pids:
            time.sleep(interval)
            if self.shutting_down:
                return
            for pid, index in list(self.pids.items()):
                age = self.board.heartbeat_age(index)
                if age is None or age <= self.watchdog_timeout:
                    continue
                self.board.record_hung(index)
                # Reset the slot so one hang is one kill: the respawn
                # only starts the clock again after its first beat.
                self.board.beat(index, now=0.0)
                print(
                    "worker {} (shard {}) hung: no heartbeat for "
                    "{:.1f}s (watchdog timeout {:.1f}s); killing "
                    "pid {}".format(
                        index, index, age, self.watchdog_timeout, pid
                    ),
                    file=sys.stderr,
                    flush=True,
                )
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

    def run(self) -> int:
        self.bind()
        signal.signal(signal.SIGTERM, self._on_signal)
        signal.signal(signal.SIGINT, self._on_signal)
        for index in range(self.workers):
            read_fd = self.spawn(index)
            if not self.wait_ready(index, read_fd):
                code = self._reap_specific(index)
                self.shutting_down = True
                self.signal_workers(signal.SIGTERM)
                self._reap_all()
                return code if code is not None else EXIT_RECOVERY_FAILED
        print(
            "repro-anonymize service listening on {} ({} workers, "
            "reuseport sockets)".format(self.base_url, self.workers),
            flush=True,
        )
        if self.args.ready_file:
            from pathlib import Path

            Path(self.args.ready_file).write_text(self.base_url + "\n")

        if self.watchdog_timeout > 0:
            threading.Thread(
                target=self._watchdog_loop,
                name="hung-worker-watchdog",
                daemon=True,
            ).start()

        final_code = EXIT_OK
        while self.pids:
            try:
                pid, status = os.wait()
            except ChildProcessError:
                break
            except InterruptedError:
                continue
            if pid not in self.pids:
                continue
            index = self.pids.pop(pid)
            code = os.waitstatus_to_exitcode(status)
            if self.shutting_down:
                continue
            if code in _FATAL_EXITS:
                print(
                    "worker {} exited {} (fatal); shutting down".format(
                        index, code
                    ),
                    file=sys.stderr,
                    flush=True,
                )
                final_code = code
                self.shutting_down = True
                self.signal_workers(signal.SIGTERM)
                continue
            self.respawns[index] += 1
            self.board.record_respawn(index)
            if self.respawns[index] > RESPAWN_LIMIT:
                print(
                    "worker {} crash-looped past {} respawns; shutting "
                    "down".format(index, RESPAWN_LIMIT),
                    file=sys.stderr,
                    flush=True,
                )
                final_code = EXIT_RECOVERY_FAILED
                self.shutting_down = True
                self.signal_workers(signal.SIGTERM)
                continue
            # Fault plans are one-shot per supervisor run: the injected
            # fault already fired in the dead worker; its replacement
            # starts clean so a chaos drill converges.
            os.environ.pop(FAULT_PLAN_ENV, None)
            self.generations[index] += 1
            print(
                "worker {} (shard {}) exited {}; respawning "
                "(generation {})".format(
                    index, index, code, self.generations[index]
                ),
                flush=True,
            )
            time.sleep(0.05)
            read_fd = self.spawn(index)
            if not self.wait_ready(index, read_fd):
                code = self._reap_specific(index)
                final_code = code if code is not None else EXIT_RECOVERY_FAILED
                self.shutting_down = True
                self.signal_workers(signal.SIGTERM)
        self._close_sockets()
        print("repro-anonymize service drained; exiting", flush=True)
        return final_code

    def _reap_specific(self, index: int) -> Optional[int]:
        """Reap the (just-failed) worker for *index*; returns its code."""
        for pid, owner in list(self.pids.items()):
            if owner != index:
                continue
            try:
                _, status = os.waitpid(pid, 0)
            except ChildProcessError:
                self.pids.pop(pid, None)
                return None
            self.pids.pop(pid, None)
            return os.waitstatus_to_exitcode(status)
        return None

    def _reap_all(self) -> None:
        while self.pids:
            try:
                pid, _status = os.wait()
            except (ChildProcessError, InterruptedError):
                break
            self.pids.pop(pid, None)

    def _close_sockets(self) -> None:
        for sock in self.direct_sockets:
            try:
                sock.close()
            except OSError:
                pass
        if self.reservation is not None:
            try:
                self.reservation.close()
            except OSError:
                pass


def run_supervisor(args) -> int:
    """``repro-anonymize serve --workers N`` for N >= 2 (the CLI entry)."""
    if not hasattr(os, "fork"):
        print(
            "error: --workers > 1 requires os.fork (not available on this "
            "platform); run one daemon per port instead",
            file=sys.stderr,
        )
        return EXIT_RECOVERY_FAILED
    if not hasattr(socket, "SO_REUSEPORT"):
        print(
            "error: --workers > 1 needs SO_REUSEPORT (not available on "
            "this platform); run one daemon per port instead",
            file=sys.stderr,
        )
        return EXIT_RECOVERY_FAILED
    if args.state_dir is not None:
        try:
            check_topology(args.state_dir, args.workers)
            write_topology(args.state_dir, args.workers)
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
    return _Supervisor(args).run()
