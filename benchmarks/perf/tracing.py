"""Spans around the program's layers, installed from benchmark code.

:func:`install` replaces public functions of the ``repro`` modules with
wrappers that time each call, and :meth:`Tracer.uninstall` puts the
originals back.  Nothing under ``src/`` changes: the wrappers are attribute
patches on classes and modules, made in whichever process calls
:func:`install` and inherited by the processes it forks (pool workers,
daemon workers).

Two kinds of record keep a traced run small enough to hold in memory:

* a **span** — name, start, end, parent span, request id and self time —
  for calls made once per file, request or run;
* a **tally** — calls, seconds, self seconds, hits and an amount — for
  calls made once per line or token.  A tally is keyed by the span it ran
  under and by the tallied call that called it (if any).

Both count as child time of their caller, so self time (duration minus the
time child records cover) stays exact at every level.  Every process writes
its records to ``spans-<pid>.json`` in the trace directory when it ends;
:func:`summarize` turns the merged records into the per-layer metrics.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import threading
import time
from typing import Callable, Dict, List, Optional

clock = time.monotonic

#: Record-name prefix of each program layer (the smoke test requires at
#: least one record per layer across the five workloads).
LAYERS = {
    "core.engine": "engine.",
    "core.comments": "comments.",
    "core.dispatch": "dispatch.",
    "core.rules": "rules.",
    "core.tokens": "tokens.",
    "core.strings": "strings.",
    "core.ipanon": "ipanon.",
    "plugins": "plugins.",
    "core.parallel": "parallel.",
    "core.runner": "runner.",
    "core.state": "state.",
    "service.client": "client.",
    "service.corpus": "corpus.",
    "service.server": "server.",
    "service.sessions": "sessions.",
    "service.journal": "journal.",
}

#: Rule families reported one by one (``report.rule_family`` groups).
RULE_FAMILIES = ("ip", "asn", "misc", "secret", "junos", "ipv6", "blobs", "eos")


class _Frame:
    __slots__ = ("name", "tally", "start", "child", "span", "parent", "under", "via", "rid")


class Tracer:
    """Per-process span and tally store; thread-safe."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []
        self._reset()
        # A forked child starts with an empty store; its records are its own.
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.spans: List[list] = []
        self.tallies: Dict[tuple, list] = {}
        self.counters: Dict[str, float] = {}
        self._ids = itertools.count()

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str, tally: bool, rid: Optional[str]) -> _Frame:
        stack = self._stack()
        top = stack[-1] if stack else getattr(self._local, "adopted", None)
        frame = _Frame()
        frame.name = name
        frame.tally = tally
        frame.child = 0.0
        frame.rid = rid if rid is not None else (top.rid if top else None)
        if tally:
            frame.span = top.span if top else None
            frame.under = top.under if top else None
            frame.via = top.name if top is not None and top.tally else None
        else:
            frame.span = "{}.{}".format(os.getpid(), next(self._ids))
            frame.parent = top.span if top else None
            frame.under = name
        stack.append(frame)
        frame.start = clock()
        return frame

    def _exit(self, frame: _Frame, hit: int = 0, amount: float = 0, extra=None) -> None:
        end = clock()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        if stack:
            stack[-1].child += duration
        with self._lock:
            if frame.tally:
                key = (frame.under, frame.via, frame.name)
                entry = self.tallies.get(key)
                if entry is None:
                    entry = self.tallies[key] = [0, 0.0, 0.0, 0, 0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame.child
                entry[3] += hit
                entry[4] += amount
            else:
                self.spans.append(
                    [frame.span, frame.name, frame.start, end, frame.parent,
                     frame.rid, duration - frame.child, extra]
                )

    def record(self, name: str, start: float, end: float, parent=None, rid=None) -> None:
        """Record a span whose ends were stamped elsewhere (a queue wait)."""
        with self._lock:
            span = "{}.{}".format(os.getpid(), next(self._ids))
            self.spans.append([span, name, start, end, parent, rid, end - start, None])

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def current(self) -> Optional[_Frame]:
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(
        self,
        fn: Callable,
        name: str,
        tally: bool = False,
        rid: Optional[Callable] = None,
        hit: Optional[Callable] = None,
        amount: Optional[Callable] = None,
        extra: Optional[Callable] = None,
    ) -> Callable:
        """*fn* recorded as *name*.  ``rid(args, kwargs)`` names the request;
        ``hit``/``amount``/``extra`` read the call's result."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name, tally, rid(args, kwargs) if rid else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(frame)
                raise
            tracer._exit(
                frame,
                hit(result) if hit else 0,
                amount(args, result) if amount else 0,
                extra(result) if extra else None,
            )
            return result

        traced.traced_by_benchmark = True
        return traced

    def patch(self, owner, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` with its traced wrapper (undone by
        :meth:`uninstall`); class- and static methods keep their kind.
        A patch point the program no longer has raises ``KeyError``."""
        original = vars(owner)[attr]
        if isinstance(original, (classmethod, staticmethod)):
            wrapped = type(original)(self.wrap(original.__func__, name, **options))
        else:
            wrapped = self.wrap(original, name, **options)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def replace(self, owner, attr: str, wrapper: Callable) -> None:
        """Install a hand-written *wrapper* for ``owner.attr``."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def document(self) -> Dict:
        with self._lock:
            return {
                "pid": os.getpid(),
                "spans": list(self.spans),
                "tallies": [list(key) + list(value) for key, value in self.tallies.items()],
                "counters": dict(self.counters),
            }

    def dump(self, directory: str) -> None:
        path = os.path.join(directory, "spans-{}.json".format(os.getpid()))
        with open(path + ".tmp", "w") as handle:
            json.dump(self.document(), handle)
        os.replace(path + ".tmp", path)


# -- the patch points ----------------------------------------------------


def _request_id(session_id, source) -> str:
    return "{}|{}".format(session_id, source)


def _client_rid(args, kwargs) -> str:
    source = kwargs.get("source", args[3] if len(args) > 3 else "<config>")
    return _request_id(args[1], source)


def _server_rid(args, kwargs) -> Optional[str]:
    from launch import anonymize_source

    handler = args[0]
    source = anonymize_source(handler)
    if source is None:
        return None
    return _request_id(handler.path.split("/")[2], source)


def _file_extra(result) -> Dict:
    report = result[1]
    return {
        "lines": report.lines_in,
        "tokens_seen": report.tokens_seen,
        "tokens_hashed": report.tokens_hashed,
        "fail_closed": report.lines_failed_closed,
    }


def install(tracer: Tracer, trace_dir: Optional[str] = None) -> None:
    """Wrap every traced layer of the ``repro`` package.

    With *trace_dir*, processes forked later (parallel pool workers and
    pre-fork daemon workers) write their records there when they end.
    """
    from repro.core import (
        asn, comments, community, dispatch, engine, ipanon, parallel, runner,
        strings, tokens,
    )
    from repro.core.report import rule_family
    from repro.service import client, corpus, journal, server, sessions

    # core.engine and the per-line passes it calls.
    def after_construct(self, *args, **kwargs):
        construct(self, *args, **kwargs)
        for rule in {id(r): r for r in self.rules + self._junos_rules}.values():
            if not getattr(rule.apply, "traced_by_benchmark", False):
                rule.apply = tracer.wrap(
                    rule.apply, "rules.{}.apply".format(rule_family(rule.rule_id)),
                    tally=True, hit=lambda hits: 1 if hits else 0,
                )
        self._block_filters = [
            tracer.wrap(block_filter, "plugins.block_filter", tally=True)
            for block_filter in self._block_filters
        ]
        for plugin in self.plugins:
            owner = next(c for c in type(plugin).__mro__ if "freeze_scan" in vars(c))
            if not getattr(owner.freeze_scan, "traced_by_benchmark", False):
                tracer.patch(owner, "freeze_scan", "plugins.freeze_scan", tally=True)

    construct = tracer.wrap(engine.Anonymizer.__init__, "engine.construct")
    tracer.replace(engine.Anonymizer, "__init__", functools.wraps(construct)(after_construct))
    tracer.patch(engine.Anonymizer, "freeze_mappings", "engine.freeze")
    tracer.patch(engine.Anonymizer, "anonymize_file", "engine.anonymize_file", extra=_file_extra)
    tracer.patch(comments.CommentStripper, "strip", "comments.strip", tally=True)
    tracer.patch(
        dispatch.CompiledDispatch, "classify", "dispatch.classify", tally=True,
        hit=lambda candidates: 1 if candidates else 0,
    )
    tracer.patch(tokens.TokenAnonymizer, "anonymize_text", "tokens.anonymize_text", tally=True)
    tracer.patch(tokens.TokenAnonymizer, "warm", "tokens.warm", tally=True)
    tracer.patch(strings.StringHasher, "hash_token", "strings.hash_token", tally=True)
    tracer.patch(ipanon.PrefixPreservingMap, "map_int", "ipanon.map_int", tally=True)
    tracer.patch(asn.AsnPermutation, "map_asn", "asn.map_asn", tally=True)
    tracer.patch(community.CommunityAnonymizer, "map_community", "community.map_community", tally=True)

    # core.parallel: the fan-out in the parent, chunks and restores in workers.
    tracer.patch(parallel.FrozenSnapshot, "capture", "parallel.snapshot_capture")
    tracer.patch(parallel.FrozenSnapshot, "restore", "parallel.snapshot_restore")
    tracer.patch(parallel, "_rewrite_chunk", "parallel.worker_chunk")
    tracer.patch(runner, "anonymize_files", "parallel.anonymize_files")
    if trace_dir is not None:
        from launch import at_daemon_worker_exit, at_pool_worker_exit

        flush = functools.partial(tracer.dump, trace_dir)
        at_pool_worker_exit(tracer.replace, flush)
        at_daemon_worker_exit(tracer.replace, flush)

    # core.runner
    tracer.patch(runner, "run_anonymization", "runner.run")
    tracer.patch(
        runner, "atomic_write_text", "runner.write", tally=True,
        amount=lambda args, result: len(args[1]),
    )

    # service.client and service.corpus (the benchmark process).
    tracer.patch(client.ServiceClient, "anonymize", "client.request", rid=_client_rid)
    tracer.patch(corpus.CorpusRunner, "run", "corpus.run")
    tracer.patch(corpus.CorpusRunner, "_open_sessions", "corpus.open_sessions")
    tracer.patch(corpus.ResumeManifest, "record", "corpus.manifest_record")

    # service.server: one span per routed request.  Not handle_one_request:
    # on a keep-alive connection it also waits for the next request line.
    tracer.patch(server.ServiceRequestHandler, "_route", "server.handle", rid=_server_rid)
    tracer.patch(server.ServiceRequestHandler, "_read_body", "server.read_body")
    tracer.patch(server.ServiceRequestHandler, "_send_bytes", "server.respond")
    submit = server.BoundedExecutor.submit

    @functools.wraps(submit)
    def traced_submit(self, fn):
        queued = clock()
        handler = tracer.current()

        def job():
            started = clock()
            tracer.record(
                "server.queue_wait", queued, started,
                parent=handler.span if handler else None,
                rid=handler.rid if handler else None,
            )
            tracer._local.adopted = handler
            try:
                return fn()
            finally:
                tracer._local.adopted = None

        return submit(self, job)

    tracer.replace(server.BoundedExecutor, "submit", traced_submit)

    # service.sessions, core.state and service.journal.
    tracer.patch(sessions.Session, "anonymize", "sessions.anonymize")
    tracer.patch(sessions.Session, "freeze", "sessions.freeze")
    tracer.patch(sessions, "state_delta_since", "state.delta")
    tracer.patch(journal.SessionJournal, "append", "journal.append")
    tracer.patch(journal.SessionJournal, "write_snapshot", "journal.snapshot")
    tracer.patch(
        journal, "_record_line", "journal.record_line", tally=True,
        amount=lambda args, result: len(result),
    )


# -- analysis ------------------------------------------------------------


def load_documents(trace_dir: str) -> List[Dict]:
    documents = []
    for entry in sorted(os.listdir(trace_dir)):
        if entry.startswith("spans-") and entry.endswith(".json"):
            with open(os.path.join(trace_dir, entry)) as handle:
                documents.append(json.load(handle))
    return documents


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_counts(documents: List[Dict]) -> Dict[str, int]:
    """Records (spans plus tallied calls) per program layer."""
    counts = {layer: 0 for layer in LAYERS}
    for document in documents:
        names = [(span[1], 1) for span in document["spans"]]
        names += [(row[2], row[3]) for row in document["tallies"]]
        for name, calls in names:
            for layer, prefix in LAYERS.items():
                if name.startswith(prefix):
                    counts[layer] += calls
    return counts


def summarize(documents: List[Dict], jobs: int) -> Dict[str, float]:
    """The per-layer metrics of one traced rep (units are in BENCHMARK.json)."""
    spans: Dict[str, list] = {}
    tallies: Dict[tuple, list] = {}
    counters: Dict[str, float] = {}
    for document in documents:
        for span in document["spans"]:
            spans.setdefault(span[1], []).append(span)
        for under, via, name, *values in document["tallies"]:
            entry = tallies.setdefault((under, via, name), [0, 0.0, 0.0, 0, 0])
            for index, value in enumerate(values):
                entry[index] += value
        for name, value in document["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def durations(name, requests_only=False):
        return [
            span[3] - span[2]
            for span in spans.get(name, ())
            if not requests_only or span[5] is not None
        ]

    def total(name):
        return sum(durations(name))

    def self_total(name):
        return sum(span[6] for span in spans.get(name, ()))

    def p50_ms(name, requests_only=False):
        return _median(durations(name, requests_only)) * 1000.0

    def tally(name, under, direct=True):
        out = [0, 0.0, 0.0, 0, 0]
        for (t_under, t_via, t_name), values in tallies.items():
            if t_name == name and t_under == under and (t_via is None or not direct):
                out = [a + b for a, b in zip(out, values)]
        return out

    files = [span[7] for span in spans.get("engine.anonymize_file", ()) if span[7]]
    lines = sum(f["lines"] for f in files)
    rewrite_s = total("engine.anonymize_file")
    freeze = "engine.freeze"
    rewrite = "engine.anonymize_file"

    # Fan-outs are the anonymize_files calls that ran worker chunks; a chunk
    # belongs to the fan-out whose interval contains it.
    chunks = spans.get("parallel.worker_chunk", [])
    fanout_s = busy = tail = 0.0
    for call in spans.get("parallel.anonymize_files", ()):
        inside = [c for c in chunks if call[2] <= c[2] and c[3] <= call[3]]
        if inside:
            fanout_s += call[3] - call[2]
            busy += sum(c[3] - c[2] for c in inside)
            tail += call[3] - max(c[3] for c in inside)

    client = {span[5]: span[3] - span[2] for span in spans.get("client.request", ())}
    transport = [
        client[span[5]] - (span[3] - span[2])
        for span in spans.get("server.handle", ())
        if span[5] in client
    ]

    metrics = {
        "engine.construct_s": _median(durations("engine.construct")),
        "engine.freeze_s": total(freeze),
        "engine.freeze.addr_insert_s": tally("ipanon.map_int", freeze)[1],
        "engine.freeze.addr_inserts": tally("ipanon.map_int", freeze)[0],
        "engine.freeze.vocab_warm_s": tally("tokens.warm", freeze)[1],
        "engine.freeze.asn_comm_warm_s": (
            tally("asn.map_asn", freeze)[1] + tally("community.map_community", freeze)[1]
        ),
        "engine.freeze.plugin_scan_s": tally("plugins.freeze_scan", freeze)[1],
        "engine.freeze.self_s": self_total(freeze),
        "engine.rewrite_s": rewrite_s,
        "engine.rewrite_us_per_line": _ratio(rewrite_s, lines) * 1e6,
        "engine.lines": lines,
        "engine.rewrite.self_s": self_total(rewrite),
        "engine.fail_closed_lines": sum(f["fail_closed"] for f in files),
        "comments.strip_s": tally("comments.strip", rewrite)[1],
        "plugins.block_filter_s": tally("plugins.block_filter", rewrite)[1],
        "dispatch.classify_s": tally("dispatch.classify", rewrite)[1],
        "dispatch.candidate_lines_frac": _ratio(
            tally("dispatch.classify", rewrite)[3], tally("dispatch.classify", rewrite)[0]
        ),
    }
    for family in RULE_FAMILIES:
        calls, seconds, _, hits, _ = tally("rules.{}.apply".format(family), rewrite)
        metrics["rules.{}.apply_s".format(family)] = seconds
        metrics["rules.{}.hit_frac".format(family)] = _ratio(hits, calls)
    hash_calls = tally("strings.hash_token", rewrite, direct=False)
    metrics.update({
        "tokens.anonymize_text_s": tally("tokens.anonymize_text", rewrite)[1],
        "tokens.hashed_frac": _ratio(
            sum(f["tokens_hashed"] for f in files), sum(f["tokens_seen"] for f in files)
        ),
        "strings.hash_token_s": hash_calls[1],
        "strings.hash_token_calls": hash_calls[0],
        "ipanon.map_int_calls.rewrite": tally("ipanon.map_int", rewrite, direct=False)[0],
        "parallel.snapshot_capture_s": total("parallel.snapshot_capture"),
        "parallel.snapshot_restore_s": total("parallel.snapshot_restore"),
        "parallel.fanout_s": fanout_s,
        "parallel.worker_util": _ratio(busy, jobs * fanout_s),
        "parallel.tail_s": tail,
        "runner.run_s": total("runner.run"),
        "runner.write_s": tally("runner.write", "runner.run")[1],
        "runner.bytes_written": tally("runner.write", "runner.run")[4],
        "client.request_ms.p50": p50_ms("client.request"),
        "client.retries": counters.get("client.retries", 0),
        "corpus.failovers": counters.get("corpus.failovers", 0),
        "corpus.open_sessions_s": total("corpus.open_sessions"),
        "corpus.manifest_record_ms": p50_ms("corpus.manifest_record"),
        "server.handle_ms.p50": p50_ms("server.handle", requests_only=True),
        "server.read_body_ms.p50": p50_ms("server.read_body", requests_only=True),
        "server.respond_ms.p50": p50_ms("server.respond", requests_only=True),
        "server.queue_wait_ms.p50": p50_ms("server.queue_wait", requests_only=True),
        "server.transport_ms.p50": _median(transport) * 1000.0,
        # A delayed-ACK stall costs one 40 ms timer; half of it marks one.
        "server.transport_stalled_frac": _ratio(
            sum(1 for t in transport if t > 0.020), len(transport)
        ),
        "sessions.anonymize_ms.p50": p50_ms("sessions.anonymize"),
        "sessions.freeze_s": total("sessions.freeze"),
        "journal.append_ms.p50": p50_ms("journal.append"),
        "journal.bytes": tally("journal.record_line", "journal.append")[4],
        "journal.snapshot_s": total("journal.snapshot"),
        "state.delta_ms.p50": p50_ms("state.delta"),
    })
    return metrics
