"""Parallel network anonymization with frozen mapping state.

The paper's corpus was 4.3M lines.  :meth:`Anonymizer.anonymize_network`
always freezes the mapping state before any file is rewritten, so a
file's rewrite no longer depends on the prefix-preserving trie's
insertion-order RNG stream.  This module runs the rewrite phase, fanning
it out over a :class:`~concurrent.futures.ProcessPoolExecutor` when
``jobs > 1``, while keeping the headline guarantee:

    **output is byte-identical for any worker count** (``jobs=1``
    included), because all mapping state is frozen before any rewriting
    happens.

The pipeline:

1. **Freeze** — :meth:`Anonymizer.freeze_mappings` scans the whole corpus
   once, preloads every address into the IP trie
   (most-trailing-zeros-first, guaranteeing subnet shaping), pre-hashes
   the vocabulary, and freezes the trie (any address the scan missed maps
   through a pure keyed hash instead of the RNG stream, so even a scanner
   gap cannot introduce order dependence).
2. **Publish** — the frozen parent is made visible to every worker
   **once**, via a *snapshot transport*:

   - ``fork`` (the default where available) — the frozen parent
     :class:`Anonymizer` itself is published in a module global and
     worker processes are forked, inheriting it through copy-on-write
     pages: zero serialization, zero copies, zero rebuilding.
   - ``shm`` — the frozen maps are captured in a :class:`FrozenSnapshot`
     and pickled **once** into a :mod:`multiprocessing.shared_memory`
     segment; each worker attaches to the segment by name and
     deserializes from the shared buffer (one parent-side pickle total,
     instead of one per worker).
   - ``pickle`` — the legacy path: the snapshot travels in the pool
     initializer's arguments.

3. **Rewrite** — a ``fork`` worker adopts the inherited anonymizer as
   is, so every memo the freeze filled (raw trie walks, words) is warm
   and the rule dispatch is already compiled; ASN and community memos,
   which the freeze leaves empty, fill lazily in each worker (keyed
   permutations: same values in any process).  Only its fault plan is
   rebuilt, so injected faults count per worker.  A
   ``shm`` or ``pickle`` worker builds an :class:`Anonymizer` *around*
   the snapshot's dicts (``restore(share=True)``: rules and compiled
   regexes are rebuilt in-process, the frozen dicts are adopted, not
   copied; the raw-walk memo starts cold).  Either way the worker
   rewrites whole files.  Files are batched into **chunked tasks** so
   submit/result overhead is amortized over many small configs; failure
   isolation stays per-file (a chunk catches each file's exceptions
   individually).  After a worker death, the in-process retry tail runs
   on a restored snapshot on every transport.
4. **Merge** — per-file :class:`AnonymizationReport`\\ s and hash-cache
   deltas are folded into the parent in sorted-file-name order — the same
   order the sequential pipeline uses — so the combined report equals the
   sequential one and the leak scanner sees every hashed token.

With ``jobs=1`` everything runs in-process through the very same
freeze-then-rewrite code path, which is what the byte-identity tests
compare against.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import AnonymizerConfig
from repro.core.engine import Anonymizer
from repro.core.faults import build_fault_plan
from repro.core.report import AnonymizationReport

__all__ = [
    "FrozenSnapshot",
    "SNAPSHOT_TRANSPORTS",
    "anonymize_files",
    "resolve_transport",
]

#: Recognized snapshot transports (``auto`` resolves at run time).
SNAPSHOT_TRANSPORTS = ("auto", "fork", "shm", "pickle")


@dataclass
class FrozenSnapshot:
    """Read-only mapping state shipped to ``shm`` and ``pickle`` workers.

    Everything here is either a pure function of the owner secret
    (reconstructed from ``config.salt`` in the worker) or a plain dict of
    already-computed mappings.  Workers never send state to each other;
    determinism comes from the freeze, not from synchronization.
    """

    config: AnonymizerConfig
    #: ``(flips, frozen)`` per address trie, keyed like
    #: :meth:`Anonymizer.tries`.
    tries: Dict[str, Tuple[Dict[Tuple[int, int], int], bool]]
    hash_cache: Dict[str, str]
    word_cache: Dict[str, Tuple[str, int, int]]
    asn_cache: Dict[int, int]
    community_cache: Dict[str, str]
    #: The resolved recognizer-plugin families active at capture time.
    #: Restore pins the worker's config to exactly this set, so a worker
    #: can never compose a different rule pipeline than the parent did
    #: (e.g. when the parent resolved a ``plugins=None`` default against
    #: environment variables the worker might not share).
    active_plugins: Optional[Tuple[str, ...]] = None

    @classmethod
    def capture(cls, anonymizer: Anonymizer) -> "FrozenSnapshot":
        return cls(
            config=anonymizer.config,
            tries={
                prefix: (dict(ip_map._flips), ip_map.frozen)
                for prefix, ip_map in anonymizer.tries().items()
            },
            hash_cache=dict(anonymizer.hasher._cache),
            word_cache=dict(anonymizer.token_anon._word_cache),
            asn_cache=dict(anonymizer.asn_map._seen),
            community_cache=dict(anonymizer.community._cache),
            active_plugins=tuple(
                getattr(anonymizer, "active_plugin_families", ())
            ),
        )

    def restore(self, share: bool = False) -> Anonymizer:
        """Build a worker-local Anonymizer over this frozen state.

        ``share=False`` (the default, for arbitrary callers) copies every
        dict so the snapshot stays pristine.  ``share=True`` adopts the
        snapshot's dicts directly — the right choice whenever the
        snapshot exists solely to back one restore: a worker that just
        unpickled its own private snapshot, or the in-process retry tail
        (one local anonymizer for the whole tail).
        Restores sharing one snapshot see each other's cache *additions*;
        every addition is a pure function of the salt, so outputs are
        unaffected — only ``share=False`` guarantees the snapshot's dicts
        never grow.
        """
        config = self.config
        if self.active_plugins is not None and config.plugins != self.active_plugins:
            # Pin the worker to the parent's resolved plugin set: a
            # `plugins=None` default would re-resolve against the
            # worker's environment, which may differ.
            from dataclasses import replace

            config = replace(config, plugins=self.active_plugins)
        anonymizer = Anonymizer(config)
        adopt = (lambda d: d) if share else dict
        for prefix, ip_map in anonymizer.tries().items():
            flips, frozen = self.tries[prefix]
            ip_map._flips = adopt(flips)
            if frozen:
                ip_map.freeze()
        anonymizer.hasher._cache = adopt(self.hash_cache)
        anonymizer.token_anon._word_cache = adopt(self.word_cache)
        anonymizer.asn_map._seen = adopt(self.asn_cache)
        anonymizer.community._cache = adopt(self.community_cache)
        return anonymizer


def resolve_transport(requested: str = "auto") -> str:
    """Resolve a snapshot transport name to a concrete strategy."""
    if requested not in SNAPSHOT_TRANSPORTS:
        raise ValueError(
            "snapshot transport must be one of {}, not {!r}".format(
                "/".join(SNAPSHOT_TRANSPORTS), requested
            )
        )
    if requested != "auto":
        return requested
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "shm"


#: One worker's Anonymizer, set once per process by the initializers.
_WORKER_ANONYMIZER: Optional[Anonymizer] = None

#: True only in pool worker processes (set by the initializers).  The
#: ``worker-exit`` fault consults it so an injected crash can never kill
#: the parent when a task falls back to in-process rewriting.
_IN_WORKER = False

#: The frozen parent anonymizer published for fork-transport workers;
#: children inherit it through copy-on-write, so it is never serialized
#: and never rebuilt.
_FORK_PARENT: Optional[Anonymizer] = None


def _adopt(anonymizer: Anonymizer) -> None:
    global _WORKER_ANONYMIZER, _IN_WORKER
    _WORKER_ANONYMIZER = anonymizer
    _IN_WORKER = True


def _init_worker(snapshot: FrozenSnapshot) -> None:
    """Legacy ``pickle`` transport: the snapshot rode in the initargs."""
    _adopt(snapshot.restore(share=True))


def _init_worker_fork() -> None:
    """``fork`` transport: adopt the inherited frozen parent whole.

    Every memo the freeze filled (raw trie walks, words) and the
    compiled rule dispatch come along warm; ASN and community memos fill
    lazily in each worker.  Only the fault plan is rebuilt, so injected
    faults count per worker from the same fresh state a restored
    snapshot would give.
    """
    anonymizer = _FORK_PARENT
    anonymizer.fault_plan = build_fault_plan(anonymizer.config)
    _adopt(anonymizer)


def _init_worker_shm(segment_name: str, payload_size: int) -> None:
    """``shm`` transport: deserialize from the shared-memory segment."""
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(name=segment_name)
    try:
        snapshot = pickle.loads(bytes(segment.buf[:payload_size]))
    finally:
        segment.close()
        _untrack_shm(segment_name)
    _adopt(snapshot.restore(share=True))


def _untrack_shm(name: str) -> None:
    """Undo the attach-side resource-tracker registration (< 3.13).

    Before Python 3.13 every ``SharedMemory`` attach registers the
    segment with the process's resource tracker, which would then try to
    unlink it again when the worker exits; the parent owns the segment's
    lifecycle, so the duplicate registration is dropped.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister("/" + name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary
        pass


class _WorkerPools:
    """Process-pool factory whose workers all see one frozen anonymizer.

    Publishes the parent once according to the transport: the anonymizer
    itself in a module global for ``fork``, its snapshot pickled once into
    shared memory for ``shm``, nothing up front for ``pickle`` (the
    snapshot rides in each pool's initializer arguments).  Builds any
    number of pools against it and tears the shared resources down on
    exit.  The parent must not change while pools are in use.
    """

    def __init__(self, anonymizer: Anonymizer, transport: str):
        self.transport = transport
        self._anonymizer = anonymizer
        self._snapshot: Optional[FrozenSnapshot] = None
        self._shm = None
        self._payload_size = 0

    @property
    def snapshot(self) -> FrozenSnapshot:
        """The parent's snapshot, captured on first use (never, on the
        ``fork`` transport's happy path)."""
        if self._snapshot is None:
            self._snapshot = FrozenSnapshot.capture(self._anonymizer)
        return self._snapshot

    def __enter__(self) -> "_WorkerPools":
        if self.transport == "fork":
            global _FORK_PARENT
            _FORK_PARENT = self._anonymizer
        elif self.transport == "shm":
            from multiprocessing import shared_memory

            payload = pickle.dumps(
                self.snapshot, protocol=pickle.HIGHEST_PROTOCOL
            )
            self._payload_size = len(payload)
            self._shm = shared_memory.SharedMemory(
                create=True, size=max(1, len(payload))
            )
            self._shm.buf[: len(payload)] = payload
        return self

    def make_pool(self, max_workers: int):
        from concurrent.futures import ProcessPoolExecutor

        if self.transport == "fork":
            import multiprocessing

            return ProcessPoolExecutor(
                max_workers=max_workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_init_worker_fork,
            )
        if self.transport == "shm":
            return ProcessPoolExecutor(
                max_workers=max_workers,
                initializer=_init_worker_shm,
                initargs=(self._shm.name, self._payload_size),
            )
        return ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=_init_worker,
            initargs=(self.snapshot,),
        )

    def __exit__(self, *exc_info) -> bool:
        if self.transport == "fork":
            global _FORK_PARENT
            _FORK_PARENT = None
        if self._shm is not None:
            self._shm.close()
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self._shm = None
        return False


def _rewrite_with(anonymizer: Anonymizer, name: str, text: str):
    """Anonymize one file, returning its result and hash-cache delta.

    Returns ``(name, text, per-file report, new hash-cache entries)``.
    The hash-cache delta (tokens first hashed while rewriting this file)
    rides back so the parent's ``hashed_inputs`` record — the leak
    scanner's ground truth — stays as complete as a sequential run's.
    The hasher tracks new keys incrementally, so extracting the delta is
    O(new tokens) rather than O(cache): at corpus scale the cache holds
    the whole warmed vocabulary, and materializing it per file was the
    dominant per-task cost.
    """
    hasher = anonymizer.hasher
    hasher.begin_cache_delta()
    out, file_report = anonymizer.anonymize_file(text, source=name)
    return name, out, file_report, hasher.take_cache_delta()


def _maybe_kill_worker(anonymizer: Anonymizer, name: str) -> None:
    plan = anonymizer.fault_plan
    if plan is not None and _IN_WORKER and plan.should_kill_worker(name):
        import os

        os._exit(87)  # simulate a hard worker death (segfault / OOM-kill)


def _rewrite_one(task: Tuple[str, str]):
    """Worker task: anonymize one file against the frozen snapshot."""
    name, text = task
    anonymizer = _WORKER_ANONYMIZER
    _maybe_kill_worker(anonymizer, name)
    return _rewrite_with(anonymizer, name, text)


def _rewrite_chunk(tasks: Sequence[Tuple[str, str]]):
    """Worker task: anonymize a batch of files against the snapshot.

    Chunking amortizes submit/result/pickling overhead over many small
    files while keeping failure isolation per-file: each file's
    exceptions are caught individually, so one poisoned file quarantines
    itself, not its chunk-mates.  (A hard worker death still takes the
    whole chunk down; the caller's retry pass settles those per-file.)
    """
    anonymizer = _WORKER_ANONYMIZER
    outcomes = []
    for name, text in tasks:
        _maybe_kill_worker(anonymizer, name)
        try:
            outcomes.append(("ok", _rewrite_with(anonymizer, name, text)))
        except Exception as exc:
            outcomes.append(("err", (name, _quarantine_reason(exc))))
    return outcomes


def _quarantine_reason(exc: BaseException) -> str:
    """A shareable reason string: class name only, never message text
    (exception messages can quote raw config lines)."""
    return type(exc).__name__


def _chunk_names(names: List[str], jobs: int, chunk_files: int) -> List[List[str]]:
    """Batch sorted file names into chunked tasks.

    ``chunk_files <= 0`` picks a size automatically: about four chunks
    per worker (so a slow chunk cannot serialize the pool) capped at 32
    files (so one chunk's results never balloon a single IPC message).
    """
    if chunk_files <= 0:
        chunk_files = max(1, min(32, -(-len(names) // (jobs * 4))))
    return [
        names[index : index + chunk_files]
        for index in range(0, len(names), chunk_files)
    ]


def anonymize_files(
    anonymizer: Anonymizer,
    configs: Dict[str, str],
    jobs: int = 1,
    transport: Optional[str] = None,
    chunk_files: Optional[int] = None,
) -> Dict[str, str]:
    """Rewrite every file of an already-frozen corpus, possibly in parallel.

    Returns ``{original name: anonymized text}`` and folds every per-file
    report into ``anonymizer.report`` in sorted-name order (the sequential
    pipeline's order, so the merged report is identical).  The caller is
    responsible for having run :meth:`Anonymizer.freeze_mappings` —
    without the freeze, output would depend on which file (or worker)
    first saw each address.

    ``transport`` picks how the frozen snapshot reaches the workers (one
    of :data:`SNAPSHOT_TRANSPORTS`) and ``chunk_files`` how many files
    ride in one worker task; both default to the anonymizer's config.
    Output is byte-identical across every transport, chunk size, and
    worker count.

    Failure isolation is per file and fail-closed: a file whose rewrite
    raises — or whose worker process dies, surfacing as
    ``BrokenProcessPool`` — is *quarantined*: it is absent from the
    returned dict and recorded in ``anonymizer.report.quarantined_files``,
    while every other file still completes.  After a pool break the pool
    is respawned exactly once and the unfinished files are retried one at
    a time, so the poisoned file is identified definitively instead of
    taking innocent pending tasks down with it.
    """
    names = sorted(configs)
    outputs: Dict[str, str] = {}
    if jobs <= 1 or len(names) <= 1:
        for name in names:
            try:
                out, file_report = anonymizer.anonymize_file(
                    configs[name], source=name
                )
            except Exception as exc:
                anonymizer.report.quarantine(name, _quarantine_reason(exc))
                continue
            anonymizer.report.merge(file_report)
            outputs[name] = out
        return outputs

    from concurrent.futures.process import BrokenProcessPool

    config = anonymizer.config
    if transport is None:
        transport = config.snapshot_transport
    transport = resolve_transport(transport)
    if chunk_files is None:
        chunk_files = config.chunk_files

    results: Dict[str, Tuple[str, AnonymizationReport, Dict[str, str]]] = {}
    quarantined: Dict[str, str] = {}
    unfinished: List[str] = []
    chunks = _chunk_names(names, jobs, chunk_files)

    with _WorkerPools(anonymizer, transport) as pools:
        with pools.make_pool(min(jobs, len(chunks))) as pool:
            futures = [
                (
                    chunk,
                    pool.submit(
                        _rewrite_chunk, [(name, configs[name]) for name in chunk]
                    ),
                )
                for chunk in chunks
            ]
            for chunk, future in futures:
                try:
                    outcomes = future.result()
                except BrokenProcessPool:
                    # The dying worker poisons every unfinished future;
                    # which file actually killed it is settled by the
                    # per-file retry below.
                    unfinished.extend(chunk)
                except Exception as exc:
                    for name in chunk:
                        quarantined[name] = _quarantine_reason(exc)
                else:
                    for status, payload in outcomes:
                        if status == "ok":
                            name, out, file_report, hashed_delta = payload
                            results[name] = (out, file_report, hashed_delta)
                        else:
                            name, reason = payload
                            quarantined[name] = reason

        if unfinished:
            # Respawn the pool once and retry with a single file in
            # flight at a time: if the pool breaks again, the in-flight
            # file *is* the poisoned one.  Files after it finish
            # in-process (the snapshot restore is exactly what a worker
            # would have run).
            in_process_from = len(unfinished)
            with pools.make_pool(1) as retry_pool:
                for index, name in enumerate(unfinished):
                    try:
                        _, out, file_report, hashed_delta = retry_pool.submit(
                            _rewrite_one, (name, configs[name])
                        ).result()
                    except BrokenProcessPool as exc:
                        quarantined[name] = _quarantine_reason(exc)
                        in_process_from = index + 1
                        break
                    except Exception as exc:
                        quarantined[name] = _quarantine_reason(exc)
                    else:
                        results[name] = (out, file_report, hashed_delta)
            remaining = unfinished[in_process_from:]
            if remaining:
                # One worker-equivalent anonymizer finishes the whole
                # tail, adopting the snapshot's dicts instead of copying
                # them per file (a pool worker reuses its anonymizer
                # across files the same way).
                local = pools.snapshot.restore(share=True)
                for name in remaining:
                    try:
                        _, out, file_report, hashed_delta = _rewrite_with(
                            local, name, configs[name]
                        )
                    except Exception as exc:
                        quarantined[name] = _quarantine_reason(exc)
                    else:
                        results[name] = (out, file_report, hashed_delta)

    for name in names:  # merge in the sequential pipeline's order
        if name in quarantined:
            anonymizer.report.quarantine(name, quarantined[name])
            continue
        out, file_report, hashed_delta = results[name]
        outputs[name] = out
        anonymizer.report.merge(file_report)
        for token, digest in hashed_delta.items():
            anonymizer.hasher._cache.setdefault(token, digest)
    return outputs

