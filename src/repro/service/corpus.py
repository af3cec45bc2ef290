"""Corpus fan-out: drive a whole corpus across the sharded service.

``repro-anonymize submit --corpus DIR`` is the service-backed twin of
the batch ``--jobs N`` pipeline at corpus scale.  One session = one
shard = one worker in the pre-fork daemon, so a single session can
never use more than one core; this layer opens **one session per
shard** (created over each shard's direct listener, so rejection
sampling makes that worker the owner), freezes every session over the
*full* corpus manifest, and fans the files across the per-shard
sessions from a bounded thread pool.  The freezes run at the same time,
one thread per shard, since each runs in its own worker process; the
first shard's error (in shard order) is raised after all have joined.
One writer thread writes the outputs and manifest lines behind the
drivers, so a file's fsyncs overlap the next file's request.

**Why failover is safe.**  After a freeze every mapping is a pure
function of (salt, input): any session frozen over the same corpus
under the same salt produces byte-identical output for any file.  A
file's *primary* shard is the one with the fewest of this runner's
files in flight, ties going to ``shard_for(name, shard_count)`` and the
shards after it — a spread, nothing more: with one file in flight at a
time every file goes to its hash shard, and with more, no request
queues behind another on one session while a shard sits idle.  When
the primary's worker is dead, parked on a full disk (507), or behind an
open circuit breaker, the file is simply re-driven on the next shard.
Duplicated work is harmless
(idempotency keys make retries converge server-side; identical bytes
make cross-shard duplicates invisible), so the fan-out can be as
aggressive as the deadline budget allows.

Robustness machinery, bottom-up:

* :class:`ShardBreaker` — a per-shard circuit breaker.  ``threshold``
  consecutive disconnect-class failures open it; after ``cooldown``
  seconds one half-open probe is allowed, and its outcome closes or
  re-opens the breaker.  An open breaker makes the fan-out *skip* the
  shard instead of burning its deadline budget on a worker that is
  mid-respawn.
* Hedged retries — each per-shard client is a
  :class:`~repro.service.client.RetryingServiceClient` with a modest
  attempt budget, so brief blips (a respawn the parent-bound direct
  socket bridges, a 507 disk park that clears) heal invisibly; its
  ``retries``/``resumes`` counters surface those invisible saves into
  the corpus report's failover accounting.
* :class:`ResumeManifest` — a client-side JSONL manifest (fsync'd per
  line, torn-tail tolerant, salt-fingerprint guarded like the batch
  runner's run manifest) recording each file's output digest.  An
  interrupted run re-invoked with ``--resume`` skips every file whose
  recorded digest still matches the bytes on disk and re-drives the
  rest — byte-identical to a never-interrupted run, because every
  output is a pure function of (salt, input).

Exit codes: ``EXIT_PARTIAL_CORPUS`` when the run *completed* but some
files were quarantined (every shard exhausted / deadline spent),
``EXIT_LEAKS`` when flags were raised, ``EXIT_SERVICE_ERROR`` when the
service could not be reached at all.

``REPRO_CORPUS_ABORT_AFTER=N`` is a test seam: the run aborts (as if
interrupted) once N files have been recorded, so the chaos drill can
prove ``--resume`` byte-identity deterministically.
"""

from __future__ import annotations

import json
import os
import queue
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.crashpoints import crash_here
from repro.core.digests import digest_text
from repro.core.runner import atomic_write_text, salt_fingerprint
from repro.core.status import (
    EXIT_LEAKS,
    EXIT_OK,
    EXIT_PARTIAL_CORPUS,
    EXIT_SERVICE_ERROR,
    EXIT_STATE_ERROR,
)
from repro.service.client import (
    RetryingServiceClient,
    RetryPolicy,
    ServiceClientError,
)
from repro.service.sharding import shard_for

__all__ = [
    "ABORT_AFTER_ENV",
    "CorpusAborted",
    "CorpusRunner",
    "MANIFEST_NAME",
    "ResumeManifest",
    "ShardBreaker",
]

MANIFEST_NAME = ".repro-corpus-manifest.jsonl"
MANIFEST_FORMAT_VERSION = 1

ABORT_AFTER_ENV = "REPRO_CORPUS_ABORT_AFTER"

#: Full failover laps across every shard before a file is quarantined
#: when no ``--deadline`` bounds the run.
DEFAULT_MAX_LAPS = 5


class CorpusAborted(RuntimeError):
    """The run was interrupted (``REPRO_CORPUS_ABORT_AFTER`` test seam
    or Ctrl-C); the resume manifest holds everything completed so far."""


class ShardBreaker:
    """Circuit breaker for one shard's request path.

    closed → (``threshold`` consecutive failures) → open → (``cooldown``
    elapsed) → half-open, where exactly one probe is allowed; its
    success closes the breaker, its failure re-opens it for another
    cooldown.  Thread-safe; *clock* is injectable for tests.
    """

    def __init__(
        self,
        threshold: int = 3,
        cooldown: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False

    @property
    def state(self) -> str:
        with self._lock:
            if self._opened_at is None:
                return "closed"
            if self._probing:
                return "half-open"
            if self._clock() - self._opened_at >= self.cooldown:
                return "half-open"
            return "open"

    def allow(self) -> bool:
        """May a request go to this shard right now?

        While open, returns False until the cooldown has elapsed; then
        exactly one caller gets True (the half-open probe) and everyone
        else keeps getting False until the probe reports back.
        """
        with self._lock:
            if self._opened_at is None:
                return True
            if self._probing:
                return False
            if self._clock() - self._opened_at < self.cooldown:
                return False
            self._probing = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._opened_at = None
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            if self._probing:
                # The half-open probe failed: re-open for a fresh cooldown.
                self._probing = False
                self._opened_at = self._clock()
                return
            self._failures += 1
            if self._failures >= self.threshold and self._opened_at is None:
                self._opened_at = self._clock()


class ResumeManifest:
    """The client-side JSONL resume manifest for one corpus run.

    Line 1 is a header binding the manifest to a salt (by keyed
    fingerprint, never the salt) and an output scheme; every later line
    records one completed file: name, output digest, output path, and
    status.  Appends are flushed and fsync'd before the next file is
    driven, so the manifest is at worst missing (or tearing) its final
    line — and a torn final line is simply ignored at load, exactly
    like the journal's torn-tail discard.
    """

    def __init__(self, path: Path, fingerprint: str, suffix: str):
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.suffix = suffix
        self._handle = None
        self._lock = threading.Lock()
        #: name -> {"digest", "out_path", "status"} loaded or appended.
        self.entries: Dict[str, Dict] = {}

    # -- load ------------------------------------------------------------

    @classmethod
    def load(
        cls, path: Path, fingerprint: str, suffix: str
    ) -> "ResumeManifest":
        """Load an existing manifest for ``--resume``.

        A fingerprint mismatch is fail-closed (the outputs on disk were
        written under a different salt — resuming would silently mix
        mapping universes); a torn or missing final line is tolerated.
        """
        manifest = cls(path, fingerprint, suffix)
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise ManifestError(
                "cannot read resume manifest {}: {}".format(path, exc)
            ) from exc
        lines = data.split(b"\n")
        if data.endswith(b"\n"):
            lines = lines[:-1]
        else:
            # Unterminated final line: the canonical interrupt artifact.
            lines = lines[:-1]
        if not lines:
            raise ManifestError(
                "resume manifest {} is empty".format(path)
            )
        header = _parse_manifest_line(lines[0])
        if (
            header is None
            or header.get("kind") != "corpus-resume"
            or header.get("format_version") != MANIFEST_FORMAT_VERSION
        ):
            raise ManifestError(
                "resume manifest {} has an unrecognized header".format(path)
            )
        if header.get("salt_fingerprint") != fingerprint:
            raise ManifestError(
                "resume manifest {} was written under a different salt "
                "(fingerprint {} != {}); refusing to mix mapping "
                "universes".format(
                    path, header.get("salt_fingerprint"), fingerprint
                )
            )
        if header.get("suffix") != suffix:
            raise ManifestError(
                "resume manifest {} was written with --suffix {!r}, not "
                "{!r}".format(path, header.get("suffix"), suffix)
            )
        for line in lines[1:]:
            entry = _parse_manifest_line(line)
            if entry is None or not isinstance(entry.get("name"), str):
                # A torn mid-file line cannot happen (appends are
                # sequential + fsync'd); a torn *final* line was already
                # dropped above, so anything unparsable here is best
                # skipped rather than trusted.
                continue
            manifest.entries[entry["name"]] = entry
        return manifest

    def completed(self, name: str, out_path: Path) -> bool:
        """Is *name* already done, with its recorded bytes still on disk?

        The digest re-check makes a deleted or hand-edited output file
        re-drive instead of being trusted blindly — the same discipline
        as ``runner.py --resume``.
        """
        entry = self.entries.get(name)
        if entry is None or entry.get("status") == "quarantined":
            return False
        try:
            text = Path(out_path).read_text(encoding="utf-8")
        except OSError:
            return False
        return digest_text(text) == entry.get("digest")

    # -- append ----------------------------------------------------------

    def open_append(self, fresh: bool) -> None:
        """Open for appending; *fresh* truncates and writes the header."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        mode = "wb" if fresh else "ab"
        self._handle = open(self.path, mode)
        if fresh:
            self._append_line(
                {
                    "format_version": MANIFEST_FORMAT_VERSION,
                    "kind": "corpus-resume",
                    "salt_fingerprint": self.fingerprint,
                    "suffix": self.suffix,
                }
            )
        elif self._handle.tell() == 0:
            raise ManifestError(
                "resume manifest {} vanished between load and "
                "append".format(self.path)
            )
        elif not self._ends_with_newline():
            # Resume over a torn tail: drop the unacknowledged bytes so
            # the next append starts on a fresh line.
            with self._lock:
                offset = self._valid_length()
                self._handle.truncate(offset)
                self._handle.seek(offset)

    def _ends_with_newline(self) -> bool:
        data = self.path.read_bytes()
        return data.endswith(b"\n")

    def _valid_length(self) -> int:
        data = self.path.read_bytes()
        if data.endswith(b"\n"):
            return len(data)
        cut = data.rfind(b"\n")
        return cut + 1 if cut != -1 else 0

    def record(self, name: str, digest: str, out_path: str, status: str) -> None:
        entry = {
            "name": name,
            "digest": digest,
            "out_path": str(out_path),
            "status": status,
        }
        self._append_line(entry)
        self.entries[name] = entry

    def _append_line(self, document: Dict) -> None:
        line = json.dumps(document, sort_keys=True).encode("utf-8") + b"\n"
        with self._lock:
            self._handle.write(line)
            self._handle.flush()
            crash_here("corpus.manifest.pre-fsync")
            os.fsync(self._handle.fileno())
            crash_here("corpus.manifest.post-fsync")

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            finally:
                self._handle = None


class ManifestError(RuntimeError):
    """The resume manifest cannot be used (corrupt header, wrong salt)."""


def _parse_manifest_line(line: bytes) -> Optional[Dict]:
    try:
        document = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    return document if isinstance(document, dict) else None


class _ShardDown(RuntimeError):
    """One shard failed this file (internal to the failover loop)."""


class CorpusRunner:
    """Drive one corpus through the (possibly sharded) service.

    Construct, then :meth:`run`.  All the knobs are plain attributes so
    tests can build runners against in-process services with injectable
    sleep/clock and zero cooldowns.
    """

    def __init__(
        self,
        base_url: Optional[str],
        unix_socket: Optional[str],
        salt: str,
        configs: Dict[str, str],
        out_paths: Dict[str, Path],
        jobs: int = 4,
        deadline: Optional[float] = None,
        resume: bool = False,
        manifest_path: Optional[Path] = None,
        retries: int = 3,
        retry_base_delay: float = 0.1,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 1.0,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        log: Callable[[str], None] = print,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.base_url = base_url
        self.unix_socket = unix_socket
        self.salt = salt
        self.configs = configs
        self.out_paths = out_paths
        self.jobs = jobs
        self.deadline = deadline
        self.resume = resume
        self.manifest_path = manifest_path
        self.retries = retries
        self.retry_base_delay = retry_base_delay
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self._sleep = sleep
        self._clock = clock
        self._log = log
        self._abort_after = _abort_after_from_env()
        self._completed_count = 0
        self._stop = threading.Event()
        self._lock = threading.Lock()
        # Populated by run():
        self.clients: List[RetryingServiceClient] = []
        self.session_ids: List[str] = []
        self.breakers: List[ShardBreaker] = []
        #: Per shard: files this runner is driving with it as primary.
        self._in_flight: List[int] = []
        self.manifest: Optional[ResumeManifest] = None
        self.report: Dict = {}

    # -- topology ---------------------------------------------------------

    def _discover_shards(self) -> List[str]:
        """Each shard's direct base URL (one entry for a plain daemon)."""
        probe = RetryingServiceClient(
            base_url=self.base_url,
            unix_socket=self.unix_socket,
            salt=self.salt,
            policy=RetryPolicy(
                max_attempts=self.retries, base_delay=self.retry_base_delay
            ),
            sleep=self._sleep,
            clock=self._clock,
        )
        try:
            health = probe.healthz()
        finally:
            probe.close()
        shards = health.get("shards")
        if isinstance(shards, dict) and shards:
            return [
                url
                for _, url in sorted(
                    shards.items(), key=lambda item: int(item[0])
                )
            ]
        return [self.base_url or "unix://{}".format(self.unix_socket)]

    def _open_sessions(self, shard_urls: List[str]) -> None:
        """One client + one frozen session per shard.

        Creating over shard *i*'s direct listener makes worker *i* own
        the session (ids are rejection-sampled server-side), and every
        session freezes over the *full* corpus — the invariant that
        makes any shard interchangeable for any file.  The sessions are
        created in shard order and then frozen concurrently.
        """
        policy = RetryPolicy(
            max_attempts=self.retries, base_delay=self.retry_base_delay
        )
        self._in_flight = [0] * len(shard_urls)
        for url in shard_urls:
            if url.startswith("unix://"):
                client = RetryingServiceClient(
                    unix_socket=url[len("unix://"):],
                    salt=self.salt,
                    policy=policy,
                    sleep=self._sleep,
                    clock=self._clock,
                )
            else:
                client = RetryingServiceClient(
                    base_url=url,
                    salt=self.salt,
                    policy=policy,
                    sleep=self._sleep,
                    clock=self._clock,
                )
            self.clients.append(client)
            self.breakers.append(
                ShardBreaker(
                    threshold=self.breaker_threshold,
                    cooldown=self.breaker_cooldown,
                    clock=self._clock,
                )
            )
        for client in self.clients:
            self.session_ids.append(client.create_session(self.salt)["id"])
        # Each freeze uploads the whole corpus and runs in its shard's
        # own worker process, so one thread per shard overlaps them.
        with ThreadPoolExecutor(max_workers=len(self.clients)) as pool:
            freezes = [
                pool.submit(client.freeze, session_id, self.configs)
                for client, session_id in zip(self.clients, self.session_ids)
            ]
        for index, freeze in enumerate(freezes):
            stats = freeze.result()  # the first error, in shard order
            self._log(
                "shard {}: session {} frozen over {} files "
                "({} addresses)".format(
                    index,
                    self.session_ids[index],
                    len(self.configs),
                    stats.get("addresses", "?"),
                )
            )

    # -- the per-file failover chain --------------------------------------

    def _drive_file(
        self, name: str, overall_deadline: Optional[float]
    ) -> Tuple[Optional[Dict], int, int]:
        """Drive one file to a terminal state.

        Returns ``(result, shard_index, failovers)`` — result is None
        when every shard (and the deadline budget) was exhausted and the
        file must be quarantined.  The first attempt goes to the file's
        primary shard (:meth:`_least_busy`), which counts the file as in
        flight until it is done; every later attempt is a *failover*,
        tagged with ``X-Repro-Failover`` so the server-side counter sees
        it too.
        """
        with self._lock:
            primary = self._least_busy(name)
            self._in_flight[primary] += 1
        try:
            return self._failover_chain(name, primary, overall_deadline)
        finally:
            with self._lock:
                self._in_flight[primary] -= 1

    def _least_busy(self, name: str) -> int:
        """The shard with the fewest of this runner's files in flight
        (call with ``self._lock`` held).

        Ties go to ``shard_for(name, N)`` and then to the shards after it
        in failover order, so with one file in flight at a time
        (``jobs=1``) every file goes to its hash shard.  Any frozen shard
        gives the same bytes, so the choice only spreads load: two
        requests never queue on one session while another shard idles.
        """
        count = len(self._in_flight)
        home = shard_for(name, count)
        return min(
            range(count),
            key=lambda index: (self._in_flight[index], (index - home) % count),
        )

    def _failover_chain(
        self, name: str, primary: int, overall_deadline: Optional[float]
    ) -> Tuple[Optional[Dict], int, int]:
        """Drive *name* around the shard ring, starting at *primary*."""
        count = len(self.clients)
        text = self.configs[name]
        failovers = 0
        attempts = 0
        laps = 0
        max_laps = DEFAULT_MAX_LAPS if overall_deadline is None else None
        while True:
            for offset in range(count):
                index = (primary + offset) % count
                if self._stop.is_set():
                    raise CorpusAborted("corpus run interrupted")
                if (
                    overall_deadline is not None
                    and self._clock() >= overall_deadline
                ):
                    return None, index, failovers
                if not self.breakers[index].allow():
                    continue
                headers = {"X-Repro-Corpus": "1"}
                if attempts > 0:
                    headers["X-Repro-Failover"] = "1"
                attempts += 1
                try:
                    result = self.clients[index].anonymize(
                        self.session_ids[index],
                        text,
                        source=name,
                        extra_headers=headers,
                    )
                except (ServiceClientError, OSError) as exc:
                    self.breakers[index].record_failure()
                    failovers += 1
                    self._log(
                        "shard {} failed {} ({}); failing over".format(
                            index, name, type(exc).__name__
                        )
                    )
                    continue
                self.breakers[index].record_success()
                return result, index, failovers
            laps += 1
            if max_laps is not None and laps >= max_laps:
                return None, primary, failovers
            # Every shard is open or failing: wait out the shortest
            # cooldown (bounded by the remaining deadline) and lap again.
            pause = self.breaker_cooldown
            if overall_deadline is not None:
                remaining = overall_deadline - self._clock()
                if remaining <= 0:
                    return None, primary, failovers
                pause = min(pause, remaining)
            self._sleep(max(pause, 0.05))

    # -- the fan-out ------------------------------------------------------

    def run(self) -> int:
        started = self._clock()
        overall_deadline = (
            None if self.deadline is None else started + self.deadline
        )
        fingerprint = salt_fingerprint(self.salt.encode("utf-8"))

        skipped: List[str] = []
        todo: List[str] = []
        if self.manifest_path is not None:
            if self.resume:
                self.manifest = ResumeManifest.load(
                    self.manifest_path, fingerprint, self._suffix()
                )
                for name in sorted(self.configs):
                    if self.manifest.completed(name, self.out_paths[name]):
                        skipped.append(name)
                    else:
                        todo.append(name)
                self.manifest.open_append(fresh=False)
            else:
                self.manifest = ResumeManifest(
                    self.manifest_path, fingerprint, self._suffix()
                )
                self.manifest.open_append(fresh=True)
                todo = sorted(self.configs)
        else:
            todo = sorted(self.configs)
        if skipped:
            self._log(
                "resume: {} of {} files already complete (digests "
                "verified); re-driving {}".format(
                    len(skipped), len(self.configs), len(todo)
                )
            )

        shard_urls = self._discover_shards()
        self._open_sessions(shard_urls)

        results: Dict[str, Dict] = {}
        quarantined: Dict[str, str] = {}
        failovers_total = 0
        work: "queue.Queue[str]" = queue.Queue()
        for name in todo:
            work.put(name)
        errors: List[BaseException] = []
        jobs = min(self.jobs, max(len(todo), 1))
        # Outputs and manifest lines are written by one writer thread, so
        # a driver sends its next file while the last one's fsyncs run.
        # The abort seam stops after exactly N recorded files, so with it
        # armed each driver records its own file before taking the next.
        records: "queue.Queue" = queue.Queue(maxsize=jobs)
        pipelined = self._abort_after is None

        def fail(exc: BaseException) -> None:  # surfaced after the join
            with self._lock:
                errors.append(exc)
            self._stop.set()

        def worker() -> None:
            nonlocal failovers_total
            while not self._stop.is_set():
                try:
                    name = work.get_nowait()
                except queue.Empty:
                    return
                try:
                    result, shard, failovers = self._drive_file(
                        name, overall_deadline
                    )
                    with self._lock:
                        failovers_total += failovers
                    if pipelined:
                        records.put((name, result))
                    else:
                        self._record(name, result, quarantined, results)
                except CorpusAborted:
                    return
                except BaseException as exc:
                    fail(exc)
                    return

        def writer() -> None:
            while True:
                item = records.get()
                if item is None:
                    return
                try:
                    self._record(item[0], item[1], quarantined, results)
                except BaseException as exc:
                    fail(exc)  # and keep draining: no driver blocks on put

        threads = [
            threading.Thread(
                target=worker, name="repro-corpus-{}".format(i), daemon=True
            )
            for i in range(jobs)
        ]
        writer_thread = threading.Thread(
            target=writer, name="repro-corpus-writer", daemon=True
        )
        writer_thread.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        records.put(None)
        writer_thread.join()

        aborted = self._stop.is_set() and not errors
        if errors:
            raise errors[0]

        client_retries = sum(client.retries for client in self.clients)
        client_resumes = sum(client.resumes for client in self.clients)
        leaks = any(
            len(result["report"]["flags"]) > 0 for result in results.values()
        )
        self.report = {
            "files_total": len(self.configs),
            "files_driven": len(results) + len(quarantined),
            "files_ok": sum(
                1 for r in results.values() if r["status"] == "ok"
            ),
            "files_fail_closed": sum(
                1 for r in results.values() if r["status"] != "ok"
            ),
            "files_skipped_resume": len(skipped),
            "files_quarantined": sorted(quarantined),
            "quarantine_reasons": quarantined,
            "failovers": failovers_total,
            "client_retries": client_retries,
            "client_resumes": client_resumes,
            "failovers_total": failovers_total
            + client_retries
            + client_resumes,
            "shards": len(self.clients),
            "breakers": {
                str(i): breaker.state
                for i, breaker in enumerate(self.breakers)
            },
            "leaks": leaks,
            "aborted": aborted,
            "elapsed": self._clock() - started,
        }
        if aborted:
            raise CorpusAborted(
                "corpus run interrupted after {} file(s); re-run with "
                "--resume to continue".format(self._completed_count)
            )
        if quarantined:
            return EXIT_PARTIAL_CORPUS
        if leaks:
            return EXIT_LEAKS
        return EXIT_OK

    def _record(
        self,
        name: str,
        result: Optional[Dict],
        quarantined: Dict[str, str],
        results: Dict[str, Dict],
    ) -> None:
        """Write one file's outcome (output + manifest line), or
        quarantine it; then honor the abort-after test seam."""
        if result is None:
            with self._lock:
                quarantined[name] = (
                    "every shard exhausted (deadline or failover budget "
                    "spent); output withheld"
                )
            if self.manifest is not None:
                self.manifest.record(
                    name, "", str(self.out_paths[name]), "quarantined"
                )
            self._log(
                "quarantined: {} (no shard could complete it)".format(name),
            )
        else:
            out_path = Path(self.out_paths[name])
            try:
                digest = atomic_write_text(out_path, result["text"])
            except OSError as exc:
                with self._lock:
                    quarantined[name] = "output write failed ({})".format(
                        type(exc).__name__
                    )
                if self.manifest is not None:
                    self.manifest.record(
                        name, "", str(out_path), "quarantined"
                    )
                return
            with self._lock:
                results[name] = result
            if self.manifest is not None:
                self.manifest.record(
                    name, digest, str(out_path), result["status"]
                )
        with self._lock:
            self._completed_count += 1
            if (
                self._abort_after is not None
                and self._completed_count >= self._abort_after
            ):
                self._stop.set()

    def _suffix(self) -> str:
        """The output suffix, inferred from one resolved out path."""
        for name, path in self.out_paths.items():
            tail = Path(path).name
            base = Path(name).name
            if tail.startswith(base):
                return tail[len(base):]
        return ""

    def close(self, delete_sessions: bool = True) -> None:
        for index, client in enumerate(self.clients):
            if delete_sessions and index < len(self.session_ids):
                try:
                    client.delete_session(self.session_ids[index])
                except Exception:
                    pass
            try:
                client.close()
            except Exception:
                pass
        if self.manifest is not None:
            self.manifest.close()


def _abort_after_from_env() -> Optional[int]:
    raw = os.environ.get(ABORT_AFTER_ENV)
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value > 0 else None


def run_corpus_main(args, configs, out_paths) -> int:
    """The ``submit --corpus`` entry point (called from service.cli).

    Returns a process exit code; prints progress like the rest of the
    CLI.  The resume manifest lives in ``--out-dir`` (required for
    corpus mode, so interrupted and resumed runs agree on where outputs
    and the manifest live).
    """
    manifest_path = Path(args.out_dir) / MANIFEST_NAME
    runner = CorpusRunner(
        base_url=args.server,
        unix_socket=args.unix_socket,
        salt=args.salt,
        configs=configs,
        out_paths=out_paths,
        jobs=args.corpus_jobs,
        deadline=args.deadline,
        resume=args.resume,
        manifest_path=manifest_path,
        retries=args.retries,
        retry_base_delay=args.retry_base_delay,
    )
    try:
        try:
            code = runner.run()
        except KeyboardInterrupt:
            raise CorpusAborted("interrupted; re-run with --resume")
        report = runner.report
        print(
            "corpus: {} files over {} shard(s); {} ok, {} fail-closed, "
            "{} skipped (resume), {} quarantined; failovers_total={} "
            "(re-drives={}, client retries={}, resumes={})".format(
                report["files_total"],
                report["shards"],
                report["files_ok"],
                report["files_fail_closed"],
                report["files_skipped_resume"],
                len(report["files_quarantined"]),
                report["failovers_total"],
                report["failovers"],
                report["client_retries"],
                report["client_resumes"],
            )
        )
        if args.corpus_report:
            report_path = Path(args.corpus_report)
            atomic_write_text(
                report_path,
                json.dumps(report, indent=2, sort_keys=True) + "\n",
            )
            print("wrote corpus report {}".format(report_path))
        return code
    except ManifestError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return EXIT_STATE_ERROR
    except CorpusAborted as exc:
        print("interrupted: {}".format(exc), file=sys.stderr)
        return 130
    except ServiceClientError as exc:
        print(
            "error: service request failed: {}".format(exc), file=sys.stderr
        )
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
        runner.close()
