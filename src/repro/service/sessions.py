"""Service sessions: long-lived anonymizers keyed by id + salt fingerprint.

A *session* is the daemon-resident analogue of one batch CLI run: an
:class:`~repro.core.engine.Anonymizer` constructed once (pass-list load,
rule compilation) and then reused for every request, which is the whole
point of running a daemon — the per-invocation setup cost the batch CLI
pays on every run is paid once per session.

Sessions follow the same determinism contract as the batch pipeline:
every session is frozen (:meth:`Anonymizer.freeze_mappings`) before it
rewrites anything.  A client freezes it over an uploaded corpus manifest;
a session that receives its first ``anonymize`` unfrozen freezes itself
over an empty manifest.  After the freeze every mapping is a pure
function of (salt, input), so files may be submitted in any order, over
any number of connections, with byte-identical output — and a session
frozen over a corpus matches the batch run over that corpus, the
service's headline invariant.

The anonymizer's shared maps are not thread-safe, so each session owns a
lock and requests against one session serialize; different sessions
proceed in parallel.  Determinism never depends on that lock — it comes
from the freeze — the lock only protects the report accumulators and
lazy cache fills from torn updates.

Every request is fail-closed end to end: per-line rule exceptions are
already absorbed by the engine (salted placeholder line + flag), and a
file-level failure (e.g. a crashing comment stripper) replaces *every*
line with the salted placeholder and flags the file — the raw input is
never echoed back, and the handler never turns it into a 500.
"""

from __future__ import annotations

import json
import threading
import uuid
from dataclasses import asdict, fields
from typing import Dict, List, Optional

from repro.core import Anonymizer, AnonymizerConfig
from repro.core.engine import FreezeStats
from repro.core.report import AnonymizationReport
from repro.core.runner import salt_fingerprint
from repro.service.journal import JournalDiskError
from repro.core.state import (
    StateCursor,
    export_state,
    export_state_json,
    import_state_json,
    state_delta_since,
)

__all__ = [
    "SESSION_OPTION_KEYS",
    "Session",
    "SessionError",
    "SessionManager",
    "SessionOptionsError",
    "SessionStateError",
    "UnknownSessionError",
]

#: AnonymizerConfig knobs a client may set at session creation.  Anything
#: else (notably ``jobs``, a batch-pipeline shape knob, not per-session
#: policy) is rejected with a clear error.
SESSION_OPTION_KEYS = frozenset(
    {
        "hash_length",
        "regex_style",
        "subnet_shaping",
        "class_preserving",
        "preserve_specials",
        "ip_collision_policy",
        "strip_comments",
        "anonymize_private_asns",
        "syntax",
        "plugins",  # recognizer plugin families for this session's pipeline
        "fault_plan",  # test seam: deterministic fault injection
    }
)


class SessionError(ValueError):
    """A session request cannot be served (maps to a 4xx, never a 500)."""


class UnknownSessionError(SessionError):
    """No session with that id (expired, drained, or never created)."""


class SessionOptionsError(SessionError):
    """The session-creation options are invalid."""


class SessionStateError(SessionError):
    """A state import/export failed (corrupt or incompatible document)."""


class Session:
    """One live anonymizer plus its serialization lock and counters.

    With a *journal* attached (daemon started with ``--state-dir``),
    every mutating operation appends a fsync'd journal record — the
    mapping-state delta plus the request result — *before* returning, so
    an acknowledged request always survives a crash.  The per-request
    results are also indexed by idempotency key: a resubmission of an
    already-committed (source, content) pair returns the journaled
    result without touching the engine.
    """

    def __init__(self, session_id: str, anonymizer: Anonymizer, journal=None,
                 metrics=None):
        self.id = session_id
        self.anonymizer = anonymizer
        self.fingerprint = salt_fingerprint(anonymizer.config.salt)
        self.lock = threading.Lock()
        self.requests_served = 0
        self.lines_served = 0
        self.files_failed_closed = 0
        self.idempotent_replays = 0
        self.requests_replayed = 0
        self.journal = journal
        self.snapshot_every = 64
        #: True while the last journal append failed at the disk level
        #: (ENOSPC/EIO).  The session is parked read-only: mutating
        #: requests answer 507 + Retry-After, and the next successful
        #: append clears the flag — the client's retry *is* the
        #: half-open probe.
        self.disk_degraded = False
        self._metrics = metrics
        self._committed: Dict[str, Dict] = {}
        self._cursor = StateCursor(anonymizer)
        #: A freeze record whose journal append hit a disk error.  The
        #: in-memory freeze cannot be undone, so the exact record is
        #: retained and re-appended before the next successful commit —
        #: replay then still sees the freeze in order.
        self._pending_freeze: Optional[Dict] = None
        #: True once a first ``anonymize`` froze the session itself: an
        #: explicit freeze must then be refused, even while that
        #: empty-manifest freeze record is still pending.  Durable: the
        #: freeze record and every snapshot carry it, so a resumed
        #: session refuses the same way.
        self._frozen_implicitly = False

    # -- journal plumbing -------------------------------------------------

    def _inc_metric(self, name: str, amount: int = 1) -> None:
        if self._metrics is not None:
            self._metrics.inc_counter(name, amount)

    def _journal_append(self, record: Dict, source: str) -> None:
        """Durably commit one operation (call with the lock held).

        A disk-level failure (:class:`JournalDiskError`) marks the
        session ``disk_degraded`` and re-raises — the handler maps it to
        507 + Retry-After.  A later successful append clears the flag.
        """
        try:
            self._flush_pending_freeze()
            self.journal.append(
                record,
                fault_plan=self.anonymizer.fault_plan,
                fault_source=source,
            )
        except JournalDiskError:
            self.disk_degraded = True
            raise
        self.disk_degraded = False
        self._cursor = StateCursor(self.anonymizer)
        self._inc_metric("repro_service_journal_records_total")
        if self.journal.appended_since_snapshot >= self.snapshot_every:
            self._write_snapshot()

    def _flush_pending_freeze(self) -> None:
        """Re-append a freeze record whose original append hit a disk
        error (call with the lock held; raises on continued failure)."""
        if self._pending_freeze is None:
            return
        self.journal.append(
            self._pending_freeze,
            fault_plan=self.anonymizer.fault_plan,
            fault_source="<freeze>",
        )
        self._pending_freeze = None
        self._inc_metric("repro_service_journal_records_total")

    def _write_snapshot(self) -> None:
        stats = self.anonymizer.last_freeze_stats
        try:
            self.journal.write_snapshot(
                {
                    "salt_fingerprint": self.fingerprint,
                    "state": export_state(self.anonymizer),
                    "frozen": self.anonymizer.frozen,
                    "frozen_implicitly": self._frozen_implicitly,
                    "freeze_stats": None if stats is None else asdict(stats),
                    "committed": self._committed,
                },
                fault_plan=self.anonymizer.fault_plan,
            )
        except (JournalDiskError, OSError):
            # Non-fatal: every record this snapshot would cover is
            # already fsync'd in the journal.  Count the failure and
            # retry at the next boundary (appended_since_snapshot keeps
            # growing, so the next append triggers another attempt).
            self._inc_metric("repro_service_journal_snapshot_failures_total")
            return
        self._inc_metric("repro_service_journal_snapshots_total")

    def restore_replay(self, replay: Dict) -> None:
        """Adopt the outcome of a journal replay (resume path)."""
        self._committed = dict(replay.get("committed") or {})
        self.requests_replayed = int(replay.get("requests_replayed", 0))
        self._frozen_implicitly = bool(replay.get("frozen_implicitly"))
        stats = replay.get("freeze_stats")
        if replay.get("frozen") and stats is not None:
            # Older records carry fields FreezeStats has since dropped
            # (asns_warmed, communities_warmed): keep the known ones.
            known = {f.name for f in fields(FreezeStats)}
            self.anonymizer.last_freeze_stats = FreezeStats(
                **{name: value for name, value in stats.items() if name in known}
            )
        self._cursor = StateCursor(self.anonymizer)

    # -- info ------------------------------------------------------------

    def describe(self) -> Dict:
        """JSON-able session info (never the salt or any mapped value)."""
        with self.lock:
            stats = self.anonymizer.last_freeze_stats
            return {
                "id": self.id,
                "salt_fingerprint": self.fingerprint,
                "frozen": self.anonymizer.frozen,
                "active_plugins": list(self.anonymizer.active_plugin_families),
                "durable": self.journal is not None,
                "disk_degraded": self.disk_degraded,
                "requests_served": self.requests_served,
                "requests_replayed": self.requests_replayed,
                "idempotent_replays": self.idempotent_replays,
                "lines_served": self.lines_served,
                "files_failed_closed": self.files_failed_closed,
                "freeze_stats": None if stats is None else asdict(stats),
            }

    # -- lifecycle -------------------------------------------------------

    def freeze(self, files: Dict[str, str]) -> Dict:
        """Freeze all mapping state over an uploaded corpus manifest."""
        if not isinstance(files, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in files.items()
        ):
            raise SessionOptionsError(
                "freeze body must be a JSON object {name: text, ...}"
            )
        with self.lock:
            if self._frozen_implicitly:
                raise SessionError(
                    "session {} has served requests, so its mappings were "
                    "frozen by the first one; create a new session and "
                    "freeze it before anonymizing".format(self.id)
                )
            if self.anonymizer.frozen:
                if self._pending_freeze is not None:
                    # The earlier freeze answered 507: its in-memory
                    # state transition happened but the journal record
                    # never landed.  This retry is the half-open probe —
                    # flush the retained record now, or park again.
                    try:
                        self._flush_pending_freeze()
                    except JournalDiskError:
                        self.disk_degraded = True
                        raise
                    self.disk_degraded = False
                    stats = self.anonymizer.last_freeze_stats
                    return dict(
                        {} if stats is None else asdict(stats),
                        frozen=True,
                    )
                raise SessionError(
                    "session {} is already frozen; create a new session to "
                    "freeze over a different corpus".format(self.id)
                )
            stats = self._freeze_locked(files)
        return dict(asdict(stats), frozen=True)

    def _freeze_locked(
        self, files: Dict[str, str], implicit: bool = False
    ) -> FreezeStats:
        """Freeze over *files* and journal it (call with the lock held).

        *implicit* marks the empty-manifest freeze a first ``anonymize``
        performs; the record carries the mark so replay restores it.
        """
        stats = self.anonymizer.freeze_mappings(files)
        self._frozen_implicitly = implicit
        if self.journal is not None:
            record = {
                "op": "freeze",
                "delta": state_delta_since(self.anonymizer, self._cursor),
                "stats": asdict(stats),
            }
            if implicit:
                record["implicit"] = True
            try:
                self._journal_append(record, source="<freeze>")
            except JournalDiskError:
                # The in-memory freeze cannot be undone.  Retain the
                # exact record and advance the cursor so later deltas
                # exclude it; it is re-appended before the next
                # successful commit (or by a freeze retry above).
                self._pending_freeze = record
                self._cursor = StateCursor(self.anonymizer)
                raise
        return stats

    # -- anonymization ---------------------------------------------------

    def anonymize(
        self,
        text: str,
        source: str = "<config>",
        idempotency_key: Optional[str] = None,
    ) -> Dict:
        """Anonymize one file's text; always returns, never re-raises.

        Returns ``{"status", "source", "text", "report"}`` where status is
        ``"ok"`` or ``"fail_closed"`` (file-level failure: every line is
        the salted placeholder).  The report is the per-file report dict —
        counters, rule hits, and the leak-highlight ``flags`` — which by
        construction never contains raw input.

        With a journal attached and an *idempotency_key* the daemon has
        already committed, the journaled result is returned verbatim
        (plus ``"replayed": true``) and the engine is not touched — a
        client retrying after an ambiguous failure never double-maps.
        """
        with self.lock:
            if (
                self.journal is not None
                and idempotency_key
                and idempotency_key in self._committed
            ):
                self.idempotent_replays += 1
                self.requests_served += 1
                self._inc_metric("repro_idempotent_replays_total")
                return dict(self._committed[idempotency_key], replayed=True)
            if not self.anonymizer.frozen:
                # Nobody froze this session: freeze it over an empty
                # manifest, so flip bits are keyed hashes and the output
                # does not depend on request order.
                self._freeze_locked({}, implicit=True)
            try:
                out, file_report = self.anonymizer.anonymize_file(
                    text, source=source
                )
                status = "ok"
            except Exception as exc:
                out, file_report = self._fail_closed_file(text, source, exc)
                status = "fail_closed"
                self.files_failed_closed += 1
            result = {
                "status": status,
                "source": source,
                "text": out,
                "report": file_report.to_dict(),
            }
            if self.journal is not None:
                # Commit before acknowledging: the response is only sent
                # after this record is on disk (fsync), so a crash can
                # lose at most an *unacknowledged* request.  The key goes
                # into the committed map first so a snapshot triggered by
                # this very append (which truncates the journal record
                # carrying the key) still covers it; a failed append
                # rolls the entry back out.  This request's ASNs join the
                # live set the same way, so the record's delta (and such
                # a snapshot) carries them, not the next record.
                if idempotency_key:
                    self._committed[idempotency_key] = result
                seen_asns = self.anonymizer.report.seen_asns
                new_asns = file_report.seen_asns - seen_asns
                seen_asns |= new_asns
                try:
                    self._journal_append(
                        {
                            "op": "anonymize",
                            "key": idempotency_key,
                            "source": source,
                            "delta": state_delta_since(self.anonymizer, self._cursor),
                            "result": result,
                        },
                        source=source,
                    )
                except Exception:
                    if idempotency_key:
                        self._committed.pop(idempotency_key, None)
                    seen_asns -= new_asns
                    raise
            self.anonymizer.report.merge(file_report)
            self.requests_served += 1
            self.lines_served += file_report.lines_in
        return result

    def _fail_closed_file(self, text: str, source: str, exc: Exception):
        """Whole-file fail-closed replacement (mirrors the engine's
        per-line guarantee at file granularity): every input line becomes
        the salted placeholder, and the report flags the event with the
        exception class only — its message may quote raw input."""
        lines = text.splitlines()
        placeholder = self.anonymizer.fail_closed_placeholder
        out_lines = [placeholder(line) for line in lines]
        report = AnonymizationReport()
        report.lines_in = len(lines)
        report.lines_out = len(out_lines)
        report.lines_failed_closed = len(lines)
        report.record_rule_hit("FAIL-CLOSED", max(len(lines), 1))
        report.flag(
            source,
            0,
            "FAIL-CLOSED",
            "entire file replaced by fail-closed placeholders after "
            "{}".format(type(exc).__name__),
        )
        out = "\n".join(out_lines)
        if text.endswith("\n"):
            out += "\n"
        return out, report

    # -- state persistence ----------------------------------------------

    def export_state(self) -> str:
        with self.lock:
            return export_state_json(self.anonymizer)

    def import_state(self, text: str) -> None:
        from repro.core.state import StateError

        with self.lock:
            try:
                import_state_json(self.anonymizer, text)
            except StateError as exc:
                raise SessionStateError(str(exc)) from exc
            if self.journal is not None:
                self._journal_append(
                    {"op": "import", "state": json.loads(text)},
                    source="<import>",
                )


class SessionManager:
    """Registry of live sessions; all operations are thread-safe.

    With a :class:`~repro.service.journal.SessionStore` attached, new
    sessions get a write-ahead journal, ``delete`` removes the durable
    history (the owner is done with it), and :meth:`resume` brings a
    recovered session back to life after the owner re-presents the salt.
    """

    def __init__(self, max_sessions: int = 64, store=None, metrics=None,
                 snapshot_every: int = 64, shard=None):
        self.max_sessions = max_sessions
        self.store = store
        self.metrics = metrics
        self.snapshot_every = snapshot_every
        #: A :class:`~repro.service.sharding.ShardInfo` in the pre-fork
        #: daemon: new session ids are drawn until this worker owns them,
        #: so whichever worker fields the create also serves the session.
        self.shard = shard
        self._lock = threading.Lock()
        self._resume_lock = threading.Lock()
        self._sessions: Dict[str, Session] = {}

    def _new_session_id(self) -> str:
        """A fresh id this manager's shard owns (rejection sampling).

        With N shards the expected draw count is N — microseconds next
        to building the Anonymizer — and it keeps shard assignment a
        pure function of the id, with no routing table to persist.
        """
        while True:
            session_id = uuid.uuid4().hex[:12]
            if self.shard is None or self.shard.owns(session_id):
                return session_id

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def _build_anonymizer(self, salt: str, options: Dict) -> Anonymizer:
        if not isinstance(salt, str) or not salt:
            raise SessionOptionsError("a non-empty string salt is required")
        unknown = set(options) - SESSION_OPTION_KEYS
        if unknown:
            raise SessionOptionsError(
                "unknown session options: {} (allowed: {})".format(
                    ", ".join(sorted(unknown)),
                    ", ".join(sorted(SESSION_OPTION_KEYS)),
                )
            )
        try:
            config = AnonymizerConfig(salt=salt.encode("utf-8"), **options)
            return Anonymizer(config)
        except (TypeError, ValueError) as exc:
            raise SessionOptionsError(
                "invalid session options: {}".format(exc)
            ) from exc

    def _register(self, session: Session, discard_on_limit: bool = False) -> None:
        """Publish *session*; on a full registry, fail without data loss.

        *discard_on_limit* is True only for brand-new sessions, whose
        just-created durable directory holds no history worth keeping.
        A *resumed* session's directory is the owner's only copy of its
        mapping history, so it is closed but kept — the resume can be
        retried after the client deletes another session.
        """
        with self._lock:
            if len(self._sessions) >= self.max_sessions:
                if session.journal is not None:
                    session.journal.close()
                    if discard_on_limit and self.store is not None:
                        self.store.discard(session.id)
                raise SessionError(
                    "session limit reached ({}); delete a session "
                    "first".format(self.max_sessions)
                )
            self._sessions[session.id] = session

    def create(self, salt: str, options: Optional[Dict] = None) -> Session:
        """Create a session for *salt* with the given config options."""
        options = dict(options or {})
        anonymizer = self._build_anonymizer(salt, options)
        session_id = self._new_session_id()
        journal = None
        if self.store is not None:
            # The fault plan is a test seam, not session policy: persisting
            # it would re-inject the fault on every resume of the session.
            persisted = {k: v for k, v in options.items() if k != "fault_plan"}
            journal = self.store.create_journal(
                session_id,
                salt_fingerprint(anonymizer.config.salt),
                persisted,
                active_plugins=list(anonymizer.active_plugin_families),
            )
        session = Session(
            session_id, anonymizer, journal=journal, metrics=self.metrics
        )
        session.snapshot_every = self.snapshot_every
        self._register(session, discard_on_limit=True)
        return session

    def resume(self, salt: str, session_id: str) -> Session:
        """Resume a recovered session: verify the salt, replay history.

        Idempotent: resuming an already-live session with the right salt
        returns it (so a retrying client that crossed a daemon restart
        can blindly re-send its resume).  Every failure is fail-closed —
        wrong salt, quarantined or unknown history — and leaves nothing
        half-registered.
        """
        from repro.service.journal import RecoveryError, replay_into

        if not isinstance(salt, str) or not salt:
            raise SessionOptionsError("a non-empty string salt is required")
        with self._resume_lock:
            with self._lock:
                live = self._sessions.get(session_id)
            if live is not None:
                if live.fingerprint != salt_fingerprint(
                    salt.encode("utf-8")
                ):
                    raise RecoveryError(
                        "session {} is live under a different salt".format(
                            session_id
                        )
                    )
                return live
            if self.store is None:
                raise UnknownSessionError(
                    "no session {!r} and this daemon has no --state-dir to "
                    "resume from".format(session_id)
                )
            reason = self.store.quarantine_reason(session_id)
            if reason is not None:
                raise RecoveryError(
                    "session {} was quarantined at recovery ({}); refusing "
                    "to guess its state".format(session_id, reason)
                )
            recovered = self.store.recoverable(session_id)
            if recovered is None:
                raise UnknownSessionError(
                    "no session {!r} (expired, deleted, or never "
                    "created)".format(session_id)
                )
            anonymizer = self._build_anonymizer(salt, recovered.options)
            replay = replay_into(anonymizer, recovered)
            from repro.service.journal import SessionJournal

            journal = SessionJournal(recovered.directory)
            journal.resume_appending(recovered.valid_length, replay["seq"])
            session = Session(
                session_id, anonymizer, journal=journal, metrics=self.metrics
            )
            session.snapshot_every = self.snapshot_every
            session.restore_replay(replay)
            self._register(session)
            self.store.summary.recoverable.pop(session_id, None)
            if self.metrics is not None:
                self.metrics.inc_counter("repro_session_recoveries_total")
            return session

    def is_recoverable(self, session_id: str) -> bool:
        return self.store is not None and self.store.is_recoverable(session_id)

    def disk_degraded_count(self) -> int:
        """Sessions currently parked read-only by a disk-level write
        failure (drives the ``repro_disk_degraded`` gauge)."""
        with self._lock:
            sessions = list(self._sessions.values())
        return sum(1 for session in sessions if session.disk_degraded)

    def get(self, session_id: str) -> Session:
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            error = UnknownSessionError(
                "no session {!r} (expired, drained, or never "
                "created)".format(session_id)
            )
            error.recoverable = self.is_recoverable(session_id)
            raise error
        return session

    def delete(self, session_id: str) -> Dict:
        """Drain and remove a session (and its durable history).

        The session is unregistered first (new requests get 404), then the
        session lock is taken so any in-flight request finishes before the
        mapping state is dropped.
        """
        with self._lock:
            session = self._sessions.pop(session_id, None)
        if session is None:
            raise UnknownSessionError(
                "no session {!r} (expired, drained, or never "
                "created)".format(session_id)
            )
        with session.lock:  # wait out in-flight requests
            info = {
                "id": session.id,
                "requests_served": session.requests_served,
                "lines_served": session.lines_served,
            }
            if session.journal is not None:
                session.journal.close()
                if self.store is not None:
                    self.store.discard(session_id)
        return info

    def list(self) -> List[Dict]:
        with self._lock:
            sessions = list(self._sessions.values())
        return [session.describe() for session in sessions]

    def close_all(self) -> None:
        """Drain every session (used by graceful shutdown).

        Journals are closed but *kept*: a drained daemon's sessions stay
        resumable after the next start — that is the durability contract.
        """
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for session in sessions:
            with session.lock:
                if session.journal is not None:
                    session.journal.close()
