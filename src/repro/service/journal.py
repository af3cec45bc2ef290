"""Durable session state: write-ahead journal, snapshots, recovery.

The paper's consistency contract — the same token or prefix maps to the
same output across an entire corpus and across publication rounds — only
holds while the mapping state survives.  PR 3's daemon held that state
in memory, so a crash mid-corpus silently destroyed the guarantee.  This
module makes sessions durable under a ``--state-dir``::

    state-dir/
      sessions/
        <session-id>/
          meta.json        # fingerprint + options (never the salt)
          snapshot.json    # periodic full state, written atomically
          journal.jsonl    # append-only per-request state deltas
        <session-id>.quarantined/   # corrupt history, set aside

**Write discipline.**  Every mutating request (anonymize, freeze, state
import) appends one journal record — the mapping-state *delta* plus the
request's result — and the record is flushed and ``fsync``'d *before*
the response is sent.  An acknowledged request is therefore always on
disk; an unacknowledged one may at worst leave a torn final record.
Every ``snapshot_every`` records the full state is written to
``snapshot.json`` via the same tmp+rename atomic writer as the batch
runner, and the journal is rotated.

**Recovery.**  At startup the daemon scans the state dir and verifies
each session's history: checksummed records, contiguous sequence
numbers, consistent salt fingerprints.  A torn *final* record is the
expected crash artifact — its request was never acknowledged (the fsync
happens before the response), so it is discarded and counted.  Anything
else — a corrupt record mid-journal, a sequence gap, a fingerprint
mismatch between files — quarantines the whole session directory
fail-closed: the daemon refuses to guess state it cannot prove, and the
session cannot be resumed until an operator inspects the quarantine.

**The salt is never stored.**  ``meta.json`` holds only the keyed
fingerprint (:func:`repro.core.runner.salt_fingerprint`).  A recovered
session is *resumable*, not live: the owner must present the salt again
(``POST /sessions`` with ``{"salt": ..., "resume": "<id>"}``), the
daemon verifies the fingerprint, and only then replays
journal-over-snapshot into a fresh anonymizer.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.crashpoints import crash_here, would_crash
from repro.core.faults import FaultPlan
from repro.core.runner import atomic_write_text, salt_fingerprint
from repro.core.state import (
    StateError,
    apply_state_delta,
    import_state,
)

__all__ = [
    "JOURNAL_FORMAT_VERSION",
    "JournalCorruptError",
    "JournalDiskError",
    "JournalError",
    "RecoveredSession",
    "RecoveryError",
    "RecoverySummary",
    "SessionJournal",
    "SessionStore",
    "replay_into",
]

JOURNAL_FORMAT_VERSION = 1

META_NAME = "meta.json"
SNAPSHOT_NAME = "snapshot.json"
JOURNAL_NAME = "journal.jsonl"
QUARANTINE_SUFFIX = ".quarantined"


class JournalError(RuntimeError):
    """A journal operation failed (append, snapshot, or scan)."""


class JournalCorruptError(JournalError):
    """A session's durable history cannot be trusted (checksum or
    sequence violation anywhere before the final record, or inconsistent
    metadata).  Fail-closed: the session is quarantined, never guessed."""


class RecoveryError(JournalError):
    """A resume request cannot be honored (wrong salt, quarantined or
    unknown history).  Maps to a 409 at the HTTP layer, never a 500."""


class _CreationArtifact(Exception):
    """Internal: a session directory is crash-mid-create debris (no
    meta, no records, no snapshot) and may be removed, not quarantined."""


class JournalDiskError(JournalError):
    """A journal or snapshot write failed at the disk level (ENOSPC,
    EIO, read-only filesystem).  The append was rolled back cleanly —
    no torn tail, no acknowledged-but-lost record — so the condition is
    *transient*: the session parks read-only (507 + Retry-After at the
    HTTP layer) and the next successful append clears it."""


def _record_line(record: Dict) -> bytes:
    """One journal line: ``<sha256[:12]> <payload>\\n``.

    The checksum covers the exact payload bytes, so recovery can tell a
    torn append (truncated line) and a corrupted record (checksum
    mismatch) apart from a valid one without trusting JSON error
    positions.
    """
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    data = payload.encode("utf-8")
    checksum = hashlib.sha256(data).hexdigest()[:12]
    return checksum.encode("ascii") + b" " + data + b"\n"


def _parse_line(line: bytes) -> Dict:
    """Decode one complete journal line; raise ``ValueError`` if invalid."""
    if not line.endswith(b"\n"):
        raise ValueError("unterminated record")
    checksum, _, payload = line.rstrip(b"\n").partition(b" ")
    if hashlib.sha256(payload).hexdigest()[:12] != checksum.decode("ascii", "replace"):
        raise ValueError("checksum mismatch")
    record = json.loads(payload.decode("utf-8"))
    if not isinstance(record, dict) or not isinstance(record.get("seq"), int):
        raise ValueError("record is not an object with an integer seq")
    return record


class SessionJournal:
    """The append side of one session's durable history."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.journal_path = self.directory / JOURNAL_NAME
        self.snapshot_path = self.directory / SNAPSHOT_NAME
        self.meta_path = self.directory / META_NAME
        self._handle = None
        self._broken = False
        #: Last sequence number on disk (journal or snapshot).
        self.seq = 0
        #: Appends since the last snapshot (drives rotation).
        self.appended_since_snapshot = 0

    @classmethod
    def create(
        cls,
        directory: Path,
        session_id: str,
        fingerprint: str,
        options: Dict,
        active_plugins: Optional[List[str]] = None,
    ) -> "SessionJournal":
        """Create the directory + meta for a brand-new session."""
        journal = cls(directory)
        journal.directory.mkdir(parents=True, exist_ok=True)
        meta = {
            "format_version": JOURNAL_FORMAT_VERSION,
            "session_id": session_id,
            "salt_fingerprint": fingerprint,
            "options": options,
        }
        if active_plugins is not None:
            # Which recognizer-plugin families the session's rule
            # pipeline was composed from; resume refuses a mismatch.
            meta["active_plugins"] = sorted(active_plugins)
        atomic_write_text(
            journal.meta_path,
            json.dumps(meta, indent=2, sort_keys=True),
            crash_scope="session.meta",
        )
        journal._open(truncate_to=0)
        return journal

    def _open(self, truncate_to: Optional[int] = None) -> None:
        self.close()
        self._handle = open(self.journal_path, "ab")
        if truncate_to is not None and self._handle.tell() != truncate_to:
            # Resume over a torn tail: drop the unacknowledged bytes.
            self._handle.truncate(truncate_to)
            self._handle.seek(truncate_to)

    def resume_appending(self, valid_length: int, seq: int) -> None:
        """Reopen for appends after recovery, truncating any torn tail."""
        self._open(truncate_to=valid_length)
        self.seq = seq

    def append(
        self,
        record: Dict,
        fault_plan: Optional[FaultPlan] = None,
        fault_source: str = "",
    ) -> int:
        """Durably append one record; returns its sequence number.

        The record is written, flushed, and ``fsync``'d before this
        returns — callers respond to the client only afterwards, which
        is what makes a torn trailing record safely discardable (its
        request was never acknowledged).
        """
        if self._broken:
            # A torn append left unacknowledged bytes at the tail; any
            # further append would bury them mid-journal and turn a
            # recoverable crash artifact into unrecoverable corruption.
            raise JournalError(
                "journal has a torn tail; restart the daemon to recover"
            )
        if self._handle is None:
            self._open()
        self.seq += 1
        record = dict(record)
        record["seq"] = self.seq
        line = _record_line(record)
        crash_here("journal.append.pre-write")
        # Each fault trigger is consulted exactly once per append: under
        # the chaos scheduler every call burns a PRNG draw, so asking the
        # same question twice could get two different answers.
        kill = fault_plan is not None and fault_plan.should_kill_journal(
            fault_source
        )
        torn = (
            not kill
            and fault_plan is not None
            and fault_plan.torn_append_once(fault_source)
        )
        if kill or torn or would_crash("journal.append.torn"):
            # Torn append: half the record reaches disk, never the rest.
            self._handle.write(line[: max(1, len(line) // 2)])
            self._handle.flush()
            os.fsync(self._handle.fileno())
            crash_here("journal.append.torn")
            if kill:
                os._exit(3)  # simulated crash mid-journal-write
            self.seq -= 1
            self._broken = True
            raise JournalError(
                "injected torn journal append for {}".format(fault_source)
            )
        offset = self._handle.tell()
        try:
            if fault_plan is not None and fault_plan.enospc_append_once(
                fault_source
            ):
                raise OSError(errno.ENOSPC, "injected: no space left on device")
            self._handle.write(line)
            self._handle.flush()
            crash_here("journal.append.pre-fsync")
            os.fsync(self._handle.fileno())
            crash_here("journal.append.post-fsync")
        except OSError as exc:
            # Full or failing disk.  Roll the append back cleanly: the
            # write may have landed partially in the OS buffer, so
            # truncate back to the pre-append offset (truncation frees
            # blocks, which works even when the disk is full).  The
            # journal then has *no* trace of this record — the request
            # was never acknowledged — and the session can keep serving
            # once the disk recovers.
            self.seq -= 1
            try:
                self._handle.truncate(offset)
                self._handle.seek(offset)
            except OSError:
                # Cannot even truncate: the tail is untrustworthy.  Park
                # the journal fail-closed; restart recovery will discard
                # the torn tail like any other crash artifact.
                self._broken = True
            raise JournalDiskError(
                "journal append failed at the disk level ({}: {}); the "
                "record was rolled back and the session is parked until "
                "writes succeed again".format(type(exc).__name__, exc)
            ) from exc
        self.appended_since_snapshot += 1
        return self.seq

    def write_snapshot(
        self,
        document: Dict,
        fault_plan: Optional[FaultPlan] = None,
        fault_source: str = "snapshot",
    ) -> None:
        """Atomically persist a full-state snapshot and rotate the journal.

        The snapshot lands via tmp+rename (the batch runner's write
        discipline), then the journal is truncated.  A crash between the
        two leaves journal records with ``seq <= snapshot.seq``, which
        replay simply skips — never a window where state could be lost.

        A disk-level failure raises :class:`JournalDiskError`; the
        journal itself is untouched (every record is already committed),
        so the caller may treat it as non-fatal and retry at the next
        snapshot boundary.
        """
        document = dict(document)
        document["format_version"] = JOURNAL_FORMAT_VERSION
        document["seq"] = self.seq
        try:
            if fault_plan is not None and fault_plan.snapshot_eio_once(
                fault_source
            ):
                raise OSError(errno.EIO, "injected: input/output error")
            atomic_write_text(
                self.snapshot_path,
                json.dumps(document, sort_keys=True),
                crash_scope="snapshot",
            )
        except OSError as exc:
            raise JournalDiskError(
                "snapshot write failed at the disk level ({}: {}); the "
                "journal is intact, rotation skipped".format(
                    type(exc).__name__, exc
                )
            ) from exc
        crash_here("journal.rotate.pre-truncate")
        self._open(truncate_to=None)
        self._handle.truncate(0)
        self._handle.seek(0)
        os.fsync(self._handle.fileno())
        crash_here("journal.rotate.post-truncate")
        self.appended_since_snapshot = 0

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            finally:
                self._handle = None


class RecoveredSession:
    """One session's verified durable history, ready to resume."""

    def __init__(
        self,
        session_id: str,
        directory: Path,
        meta: Dict,
        snapshot: Optional[Dict],
        records: List[Dict],
        valid_length: int,
        torn_discarded: int,
    ):
        self.session_id = session_id
        self.directory = directory
        self.meta = meta
        self.snapshot = snapshot
        self.records = records
        #: Byte length of the valid journal prefix (appends resume here).
        self.valid_length = valid_length
        self.torn_discarded = torn_discarded

    @property
    def salt_fingerprint(self) -> str:
        return self.meta.get("salt_fingerprint", "")

    @property
    def options(self) -> Dict:
        options = self.meta.get("options")
        return options if isinstance(options, dict) else {}

    @property
    def last_seq(self) -> int:
        if self.records:
            return self.records[-1]["seq"]
        if self.snapshot is not None:
            return int(self.snapshot.get("seq", 0))
        return 0


class RecoverySummary:
    """What a startup scan of the state dir found."""

    def __init__(self):
        self.recoverable: Dict[str, RecoveredSession] = {}
        self.quarantined: Dict[str, str] = {}
        self.torn_discarded = 0
        #: Directories discarded as crash-mid-create debris (no meta, no
        #: records, no snapshot — nothing was ever acknowledged).
        self.artifacts_discarded = 0

    def describe(self) -> str:
        return (
            "{} resumable session(s), {} quarantined, "
            "{} torn record(s) discarded".format(
                len(self.recoverable),
                len(self.quarantined),
                self.torn_discarded,
            )
        )


def _scan_journal(path: Path) -> Tuple[List[Dict], int, int]:
    """Verify a journal file; return (records, valid_length, torn).

    Raises :class:`JournalCorruptError` for anything that cannot be
    explained by a single crash mid-append: a bad record anywhere before
    the final one, or non-contiguous sequence numbers.
    """
    if not path.exists():
        return [], 0, 0
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise JournalCorruptError(
            "journal {} is unreadable ({}) — history cannot be "
            "verified".format(path, type(exc).__name__)
        ) from exc
    records: List[Dict] = []
    offset = 0
    torn = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline == -1:
            # Unterminated final line: the canonical torn append.
            torn = 1
            break
        line = data[offset : newline + 1]
        try:
            record = _parse_line(line)
        except ValueError as exc:
            if newline + 1 >= len(data):
                # Final record, terminated but invalid: a torn write that
                # happened to include the newline.  Still unacknowledged.
                torn = 1
                break
            raise JournalCorruptError(
                "corrupt journal record at byte {} of {} ({}) — history "
                "cannot be trusted".format(offset, path, exc)
            )
        if records and record["seq"] != records[-1]["seq"] + 1:
            raise JournalCorruptError(
                "journal {} sequence jumps from {} to {} — records are "
                "missing".format(path, records[-1]["seq"], record["seq"])
            )
        records.append(record)
        offset = newline + 1
    return records, offset, torn


def _load_json(path: Path, what: str) -> Optional[Dict]:
    if not path.exists():
        return None
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise JournalCorruptError(
            "{} {} is unreadable or corrupt ({})".format(
                what, path, type(exc).__name__
            )
        )
    if not isinstance(document, dict):
        raise JournalCorruptError(
            "{} {} is not a JSON object".format(what, path)
        )
    return document


class SessionStore:
    """All durable sessions under one ``--state-dir``."""

    def __init__(self, state_dir, snapshot_every: int = 64):
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        self.state_dir = Path(state_dir)
        self.sessions_dir = self.state_dir / "sessions"
        self.snapshot_every = snapshot_every
        self.summary = RecoverySummary()

    # -- lifecycle -------------------------------------------------------

    def create_journal(
        self,
        session_id: str,
        fingerprint: str,
        options: Dict,
        active_plugins: Optional[List[str]] = None,
    ) -> SessionJournal:
        """The journal for a brand-new session (meta written, fsync'd)."""
        return SessionJournal.create(
            self.sessions_dir / session_id,
            session_id,
            fingerprint,
            options,
            active_plugins=active_plugins,
        )

    def discard(self, session_id: str) -> None:
        """Remove a session's durable history (used by DELETE)."""
        self.summary.recoverable.pop(session_id, None)
        directory = self.sessions_dir / session_id
        if directory.exists():
            shutil.rmtree(directory, ignore_errors=True)

    # -- recovery --------------------------------------------------------

    def recover(self) -> RecoverySummary:
        """Scan the state dir; verify, index, or quarantine every session.

        Raises :class:`JournalError` only if the state dir itself cannot
        be read or created — per-session corruption quarantines that
        session and the scan continues.
        """
        summary = RecoverySummary()
        try:
            self.sessions_dir.mkdir(parents=True, exist_ok=True)
            entries = sorted(self.sessions_dir.iterdir())
        except OSError as exc:
            raise JournalError(
                "cannot use state dir {}: {}".format(self.state_dir, exc)
            ) from exc
        for directory in entries:
            if not directory.is_dir() or directory.name.endswith(
                QUARANTINE_SUFFIX
            ) or QUARANTINE_SUFFIX + "." in directory.name:
                continue
            session_id = directory.name
            try:
                recovered = self._scan_session(session_id, directory)
            except _CreationArtifact:
                shutil.rmtree(directory, ignore_errors=True)
                summary.artifacts_discarded += 1
                continue
            except JournalError as exc:
                try:
                    quarantined = self._quarantine(directory)
                except OSError as move_exc:
                    # Read-only or full state dir: the rename itself
                    # failed.  Quarantine *in place* — record the reason
                    # so the session is not resumable and keep scanning;
                    # a bad disk must not take down the healthy sessions.
                    summary.quarantined[session_id] = (
                        "{} (quarantined in place; move failed: "
                        "{})".format(exc, move_exc)
                    )
                    continue
                summary.quarantined[session_id] = "{} (moved to {})".format(
                    exc, quarantined.name
                )
                continue
            summary.recoverable[session_id] = recovered
            summary.torn_discarded += recovered.torn_discarded
        self.summary = summary
        return summary

    def _scan_session(self, session_id: str, directory: Path) -> RecoveredSession:
        meta = _load_json(directory / META_NAME, "session meta")
        if meta is None:
            if not (directory / SNAPSHOT_NAME).exists():
                records, _, _ = _scan_journal(directory / JOURNAL_NAME)
                if not records:
                    # A crash mid-create (before meta.json was renamed
                    # into place) leaves a directory holding at most tmp
                    # debris.  Nothing in it was ever acknowledged, so
                    # it is a discardable crash artifact, not corruption.
                    raise _CreationArtifact(session_id)
            raise JournalCorruptError(
                "session {} has no meta.json".format(session_id)
            )
        if meta.get("format_version") != JOURNAL_FORMAT_VERSION:
            raise JournalCorruptError(
                "session {} journal format_version {!r} is unsupported "
                "(expected {})".format(
                    session_id, meta.get("format_version"), JOURNAL_FORMAT_VERSION
                )
            )
        fingerprint = meta.get("salt_fingerprint")
        if not isinstance(fingerprint, str) or not fingerprint:
            raise JournalCorruptError(
                "session {} meta has no salt fingerprint".format(session_id)
            )
        snapshot = _load_json(directory / SNAPSHOT_NAME, "session snapshot")
        if snapshot is not None and snapshot.get("salt_fingerprint") != fingerprint:
            raise JournalCorruptError(
                "session {} snapshot fingerprint disagrees with meta — "
                "files from different sessions mixed in one "
                "directory".format(session_id)
            )
        records, valid_length, torn = _scan_journal(directory / JOURNAL_NAME)
        snapshot_seq = int(snapshot.get("seq", 0)) if snapshot else 0
        live = [r for r in records if r["seq"] > snapshot_seq]
        if live and live[0]["seq"] != snapshot_seq + 1:
            raise JournalCorruptError(
                "session {} journal starts at seq {} but the snapshot "
                "covers only up to {} — records are missing".format(
                    session_id, live[0]["seq"], snapshot_seq
                )
            )
        return RecoveredSession(
            session_id, directory, meta, snapshot, live, valid_length, torn
        )

    def _quarantine(self, directory: Path) -> Path:
        target = directory.with_name(directory.name + QUARANTINE_SUFFIX)
        counter = 0
        while target.exists():
            counter += 1
            target = directory.with_name(
                "{}{}.{}".format(directory.name, QUARANTINE_SUFFIX, counter)
            )
        os.replace(directory, target)
        return target

    # -- lookups ---------------------------------------------------------

    def recoverable(self, session_id: str) -> Optional[RecoveredSession]:
        return self.summary.recoverable.get(session_id)

    def is_recoverable(self, session_id: str) -> bool:
        return session_id in self.summary.recoverable

    def quarantine_reason(self, session_id: str) -> Optional[str]:
        return self.summary.quarantined.get(session_id)


def replay_into(anonymizer, recovered: RecoveredSession) -> Dict:
    """Rebuild a session's state: snapshot first, then journal deltas.

    The anonymizer must have been constructed with the owner's salt; the
    keyed fingerprint is verified before any mutation and a mismatch is
    fail-closed (:class:`RecoveryError`).  Returns the replay outcome::

        {"frozen": bool, "frozen_implicitly": bool,
         "freeze_stats": dict|None,
         "committed": {idempotency_key: result}, "seq": int,
         "requests_replayed": int}

    ``frozen_implicitly`` is true when the session froze itself on its
    first ``anonymize`` rather than over a client's corpus manifest.
    """
    if salt_fingerprint(anonymizer.config.salt) != recovered.salt_fingerprint:
        raise RecoveryError(
            "salt fingerprint mismatch for session {}: the presented salt "
            "is not the one this session's history was written under — "
            "refusing to resume".format(recovered.session_id)
        )
    if "active_plugins" in recovered.meta:
        stored = sorted(str(f) for f in recovered.meta["active_plugins"] or [])
        active = sorted(getattr(anonymizer, "active_plugin_families", ()))
        if stored != active:
            raise RecoveryError(
                "session {} was frozen under plugins {} but this daemon "
                "composed {} — mapping state from one rule set must not "
                "serve another; refusing to resume".format(
                    recovered.session_id, stored or "[]", active or "[]"
                )
            )
    frozen = False
    frozen_implicitly = False
    freeze_stats: Optional[Dict] = None
    committed: Dict[str, Dict] = {}
    try:
        if recovered.snapshot is not None:
            import_state(anonymizer, recovered.snapshot["state"])
            frozen = bool(recovered.snapshot.get("frozen"))
            frozen_implicitly = bool(recovered.snapshot.get("frozen_implicitly"))
            freeze_stats = recovered.snapshot.get("freeze_stats")
            snapshot_committed = recovered.snapshot.get("committed")
            if isinstance(snapshot_committed, dict):
                committed.update(snapshot_committed)
        requests_replayed = 0
        for record in recovered.records:
            op = record.get("op")
            if op == "anonymize":
                apply_state_delta(anonymizer, record["delta"])
                key = record.get("key")
                if key:
                    committed[key] = record["result"]
                requests_replayed += 1
            elif op == "freeze":
                apply_state_delta(anonymizer, record["delta"])
                anonymizer.mark_frozen()
                frozen = True
                frozen_implicitly = bool(record.get("implicit"))
                freeze_stats = record.get("stats")
            elif op == "import":
                import_state(anonymizer, record["state"])
            else:
                raise RecoveryError(
                    "session {} journal contains unknown op {!r} — written "
                    "by a newer daemon?".format(recovered.session_id, op)
                )
    except (StateError, KeyError, TypeError) as exc:
        raise RecoveryError(
            "session {} journal replay failed ({}: {}) — refusing to "
            "serve guessed state".format(
                recovered.session_id, type(exc).__name__, exc
            )
        ) from exc
    if frozen:
        anonymizer.mark_frozen()
    return {
        "frozen": frozen,
        "frozen_implicitly": frozen_implicitly,
        "freeze_stats": freeze_stats,
        "committed": committed,
        "seq": recovered.last_seq,
        "requests_replayed": requests_replayed,
    }
