"""Fail-closed run orchestration: atomic outputs, manifest, resume.

The paper's premise is that anonymization must be trustworthy enough to
*publish* the output (Section 2: a single leaked identifier breaks the
anonymization of the corpus).  That demands two operational guarantees on
top of the engine's per-line fail-closed rule:

* **No output file is ever observable half-written.**  Every output is
  written to a ``*.tmp`` sibling and moved into place with
  :func:`os.replace` (atomic on POSIX and Windows).  A crash mid-write
  leaves at most a ``*.tmp`` that the next run overwrites — never a
  truncated ``*.anon`` that an operator might mistake for a complete,
  safe-to-share file.

* **A crashed run can be resumed without re-anonymizing what already
  completed.**  Each run writes a JSON *manifest* recording per-file
  status and the SHA-256 digest of each written output.  ``resume=True``
  skips files whose recorded digest still matches the file on disk and
  re-runs everything else (quarantined, write-failed, or missing).
  Because callers freeze mapping state over the *full* corpus before
  rewriting, a resumed run is byte-identical to a clean one.

The manifest records a fingerprint of the owner salt (a keyed hash — the
salt itself is never stored) and refuses to resume under a different
salt: mixing outputs of two salts in one directory would silently break
the corpus-wide referential integrity the paper depends on.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Optional

from repro.core.crashpoints import crash_here
from repro.core.digests import digest_text
from repro.core.engine import Anonymizer
from repro.core.faults import FaultPlan
from repro.core.parallel import anonymize_files

__all__ = [
    "MANIFEST_FORMAT_VERSION",
    "MANIFEST_NAME",
    "FileOutcome",
    "RunResult",
    "RunnerError",
    "atomic_write_text",
    "load_manifest",
    "resolve_out_paths",
    "run_anonymization",
    "salt_fingerprint",
]

MANIFEST_FORMAT_VERSION = 1

#: Default manifest file name (written inside the output directory).
MANIFEST_NAME = ".repro-run-manifest.json"


class RunnerError(RuntimeError):
    """A run cannot proceed safely (corrupt manifest, salt mismatch...)."""


# The manifest digest is the shared content digest of repro.core.digests
# (also the basis of the service's idempotency keys); kept under the old
# private name for the handful of in-module callers.
_digest_text = digest_text


def salt_fingerprint(salt: bytes) -> str:
    """Keyed fingerprint of an owner salt (equality only, never the salt).

    Keyed so the fingerprint reveals nothing about a low-entropy salt
    beyond equality between runs.  Shared by the run manifest (refuses to
    resume under a different salt) and the service (a session advertises
    its fingerprint so a client can verify it is talking to the mapping
    universe it expects without ever sending the salt again).
    """
    return hashlib.sha256(b"repro-run-manifest\x00" + salt).hexdigest()[:16]


def resolve_out_paths(names, out_dir, suffix: str) -> Dict[str, Path]:
    """Map every input name to a collision-free output path.

    Without *out_dir* each output lands next to its input
    (``<input><suffix>``), which cannot collide.  With *out_dir* the
    natural ``out_dir/<basename><suffix>`` scheme silently overwrites
    outputs when two inputs share a basename (``siteA/rtr1.conf`` and
    ``siteB/rtr1.conf``) — exactly the corpus shape of a multi-site
    network.  When that happens, the input paths are mirrored below their
    common ancestor instead (``out_dir/siteA/rtr1.conf<suffix>``), so
    every input keeps a distinct output.  If even the mirrored paths
    collide (two spellings of the same file), the run refuses to start
    rather than guess which output to keep.
    """
    names = list(names)
    if out_dir is None:
        return {
            name: Path(name).with_name(Path(name).name + suffix)
            for name in names
        }
    out_dir = Path(out_dir)
    by_basename: Dict[str, int] = {}
    for name in names:
        base = Path(name).name
        by_basename[base] = by_basename.get(base, 0) + 1
    if all(count == 1 for count in by_basename.values()):
        return {name: out_dir / (Path(name).name + suffix) for name in names}
    absolutes = {name: os.path.abspath(name) for name in names}
    common = os.path.commonpath(list(absolutes.values()))
    if len(names) == 1 or os.path.isfile(common):
        common = os.path.dirname(common)
    paths = {
        name: out_dir / (os.path.relpath(absolutes[name], common) + suffix)
        for name in names
    }
    taken: Dict[Path, str] = {}
    for name, path in sorted(paths.items()):
        if path in taken:
            raise RunnerError(
                "output path collision: {!r} and {!r} both map to {} — "
                "rename one input or pass distinct paths".format(
                    taken[path], name, path
                )
            )
        taken[path] = name
    return paths


def atomic_write_text(
    path: Path,
    text: str,
    fault_plan: Optional[FaultPlan] = None,
    name: Optional[str] = None,
    crash_scope: Optional[str] = None,
) -> str:
    """Write *text* to *path* atomically; return its content digest.

    The text lands in ``<path>.tmp`` (fsynced) and is moved into place
    with :func:`os.replace`, so *path* either keeps its old content or
    holds the complete new content — never a prefix.  On any failure the
    temporary file is removed before the exception propagates.

    *crash_scope* names the durability boundary this write implements
    (``"snapshot"``, ``"topology"``, ...): the two crash points
    ``<scope>.tmp-written`` and ``<scope>.renamed`` bracket the rename so
    the explorer can kill the process on either side of it.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        if crash_scope is not None:
            crash_here(crash_scope + ".tmp-written")
        if fault_plan is not None and fault_plan.fail_write_once(
            name if name is not None else str(path)
        ):
            raise OSError("injected write failure for {}".format(path.name))
        os.replace(tmp, path)
        if crash_scope is not None:
            crash_here(crash_scope + ".renamed")
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    return _digest_text(text)


@dataclass
class FileOutcome:
    """What happened to one input file during a run."""

    name: str
    #: "written" | "skipped" (resume hit) | "quarantined" | "write-failed"
    status: str
    out_path: Optional[str] = None
    digest: Optional[str] = None
    detail: str = ""


@dataclass
class RunResult:
    """Everything a caller needs to report on (and exit from) a run."""

    #: Anonymized text per input name — written *and* resume-skipped files
    #: (skipped text is re-read from disk so leak scanning and model
    #: export still cover the whole corpus).  Quarantined/write-failed
    #: files are absent: their output is withheld.
    outputs: Dict[str, str] = field(default_factory=dict)
    outcomes: Dict[str, FileOutcome] = field(default_factory=dict)
    manifest_path: Optional[str] = None

    @property
    def quarantined(self) -> Dict[str, str]:
        return {
            o.name: o.detail
            for o in self.outcomes.values()
            if o.status == "quarantined"
        }

    @property
    def write_failed(self) -> Dict[str, str]:
        return {
            o.name: o.detail
            for o in self.outcomes.values()
            if o.status == "write-failed"
        }

    @property
    def dirty(self) -> bool:
        """True when any file's output was withheld (unsafe to call the
        run complete)."""
        return any(
            o.status in ("quarantined", "write-failed")
            for o in self.outcomes.values()
        )


def load_manifest(path) -> Optional[Dict]:
    """Load a run manifest; ``None`` if absent, :class:`RunnerError` if
    unusable (corrupt JSON, wrong version) — resuming over a manifest we
    cannot trust would risk keeping stale or foreign outputs."""
    path = Path(path)
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise RunnerError(
            "run manifest {} is corrupt or unreadable ({}); delete it or "
            "rerun without --resume".format(path, type(exc).__name__)
        ) from exc
    if not isinstance(data, dict) or data.get("format_version") != MANIFEST_FORMAT_VERSION:
        raise RunnerError(
            "run manifest {} has unsupported format_version {!r} "
            "(expected {})".format(
                path,
                data.get("format_version") if isinstance(data, dict) else None,
                MANIFEST_FORMAT_VERSION,
            )
        )
    return data


def _resume_skips(
    previous: Dict,
    configs: Dict[str, str],
    out_path_for: Callable[[str], Path],
) -> Dict[str, tuple]:
    """Files a resumed run may skip — recorded as written, still on disk,
    digest intact — as ``{name: (outcome, anonymized text)}``.  Anything
    else (quarantined last time, write-failed, edited, deleted) re-runs."""
    skips: Dict[str, tuple] = {}
    for name in configs:
        entry = previous.get(name)
        if not isinstance(entry, dict):
            continue
        if entry.get("status") != "written" or not entry.get("digest"):
            continue
        out_path = Path(out_path_for(name))
        if not out_path.is_file():
            continue
        try:
            text = out_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            continue
        if _digest_text(text) != entry["digest"]:
            continue
        outcome = FileOutcome(
            name, "skipped", out_path=str(out_path), digest=entry["digest"]
        )
        skips[name] = (outcome, text)
    return skips


def run_anonymization(
    anonymizer: Anonymizer,
    configs: Dict[str, str],
    out_path_for: Callable[[str], Path],
    jobs: int = 1,
    resume: bool = False,
    manifest_path=None,
) -> RunResult:
    """Anonymize *configs* and write each output atomically.

    The caller must already have frozen mapping state over the full
    corpus (:meth:`Anonymizer.freeze_mappings`) — the freeze is what
    makes a resumed or parallel run byte-identical to a clean ``jobs=1``
    one.

    Per-file failures never abort the run: quarantined files (engine
    error or dead worker) and failed writes are recorded in the result
    and the manifest, and their output is withheld entirely.
    """
    plan = anonymizer.fault_plan
    fingerprint = salt_fingerprint(anonymizer.config.salt)

    previous: Dict = {}
    if resume:
        if manifest_path is None:
            raise RunnerError("resume requires a manifest path")
        manifest = load_manifest(manifest_path)
        if manifest is not None:
            if manifest.get("salt_fingerprint") != fingerprint:
                raise RunnerError(
                    "run manifest {} was written under a different salt; "
                    "resuming would mix incompatible mappings in one "
                    "output directory".format(manifest_path)
                )
            files = manifest.get("files")
            previous = files if isinstance(files, dict) else {}

    result = RunResult(
        manifest_path=str(manifest_path) if manifest_path is not None else None
    )
    skips = _resume_skips(previous, configs, out_path_for) if previous else {}
    for name, (outcome, text) in skips.items():
        result.outputs[name] = text
        result.outcomes[name] = outcome

    todo = {name: text for name, text in configs.items() if name not in skips}
    rewritten = anonymize_files(anonymizer, todo, jobs=jobs) if todo else {}

    for name in sorted(todo):
        if name not in rewritten:
            reason = anonymizer.report.quarantined_files.get(
                name, "anonymization failed"
            )
            result.outcomes[name] = FileOutcome(
                name, "quarantined", detail=reason
            )
            continue
        out_path = Path(out_path_for(name))
        try:
            digest = atomic_write_text(
                out_path, rewritten[name], plan, name,
                crash_scope="runner.output",
            )
        except OSError as exc:
            result.outcomes[name] = FileOutcome(
                name, "write-failed", str(out_path), detail=type(exc).__name__
            )
            continue
        result.outputs[name] = rewritten[name]
        result.outcomes[name] = FileOutcome(
            name, "written", str(out_path), digest
        )

    if manifest_path is not None:
        manifest = {
            "format_version": MANIFEST_FORMAT_VERSION,
            "salt_fingerprint": fingerprint,
            "files": {
                name: {
                    # A resume-skipped file is still a written file.
                    "status": "written"
                    if outcome.status == "skipped"
                    else outcome.status,
                    "digest": outcome.digest,
                    "out_path": outcome.out_path,
                    "detail": outcome.detail,
                }
                for name, outcome in sorted(result.outcomes.items())
            },
        }
        atomic_write_text(
            Path(manifest_path),
            json.dumps(manifest, indent=2, sort_keys=True),
            crash_scope="runner.manifest",
        )
    return result
