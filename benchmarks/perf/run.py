"""One benchmark for the batch CLI and the corpus service.

    python benchmarks/perf/run.py [--workload NAME]... [--seed N] [--seconds S]
                                  [--trace [0|1]] [--scale F] [--reps N] [--out FILE]
    python benchmarks/perf/run.py --compare A.jsonl B.jsonl

Each workload runs the program through its real entry points, from outside:
``repro.cli`` processes for batch and a ``serve --workers 2`` daemon driven
by ``CorpusRunner`` — the client ``submit --corpus`` uses — for the
service, both started through ``launch.py``, which marks when set-up ends,
times each file and request, and samples the host's speed.  Reps repeat for
``--seconds`` (or exactly ``--reps``), with set-up-only starts around them;
every end-to-end metric is printed by name and unit, the outputs are
checked, and the last line of standard output is the JSON summary.
``--trace 1`` runs one untraced and one traced rep per workload and reports
the per-layer metrics of ``tracing.summarize`` instead.  See README.md for
what each workload and metric means.

The inputs come from ``--seed``, which draws each network's owner salt and
its public address block.  Everything else — routers, config structure,
names, ASNs, regexps — is ``repro.iosgen.paper_dataset(42, scale)``, which
seed 42 reproduces exactly.  So a seed changes every input address and every
output byte but not the amount or kind of work: a content-drawn corpus moves
net01 between 60k and 90k lines, and with it every batch latency.
Everything the benchmark writes lives under ``.perf_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import dataclasses
import functools
import hashlib
import http.client
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlparse

from launch import REFERENCE_PROBE_S, vm_hwm_kb

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perf_work"
SPEC = ROOT / "BENCHMARK.json"

#: The seed whose paper-dataset shape every run uses (see module doc).
SHAPE_SEED = 42
ALL_NETWORKS = tuple("net{:02d}".format(i) for i in range(31))
ENTERPRISE = ALL_NETWORKS[6:]
#: Daemon shape and client concurrency of the service workloads: at most
#: two requests in flight, on a machine with two usable cores.
DAEMON_WORKERS = 2
DAEMON_THREADS = 2
CLIENT_THREADS = 2
#: Files of one seeded network checked byte for byte against the library.
REFERENCE_FILES = 8
FAIL_CLOSED_MARK = "REPRO-FAIL-CLOSED"


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    networks: Tuple[str, ...]
    #: Batch: ``--jobs``.  Service: client threads (requests in flight).
    jobs: int = 1
    service: bool = False
    durable: bool = False
    #: Set-up-only starts around each measured rep, half before and half
    #: after it, so ``setup_s`` is a median of samples spread over the run.
    #: A batch start costs about 0.2 s, a daemon start and drain 0.5 s.
    #: Only for workloads whose rep starts the program once: a set-up
    #: sample of ``batch_paper31`` is the sum over its 31 processes.
    extra_setups: int = 0
    #: Run one untimed rep first.  The first ``--jobs 2`` process of a run
    #: rewrites its large files at half the speed of every later one, while
    #: the speed probe reads the same; its forked pool workers are likely
    #: the first to touch that much fresh memory in the virtual machine.
    warmup: bool = False


WORKLOADS = (
    Workload("batch_large", ("net01",), extra_setups=4),
    Workload("batch_large_j2", ("net01",), jobs=2, extra_setups=4, warmup=True),
    Workload("batch_paper31", ALL_NETWORKS),
    Workload("service_corpus", ENTERPRISE, jobs=CLIENT_THREADS, service=True, extra_setups=12),
    Workload(
        "service_durable", ENTERPRISE, jobs=CLIENT_THREADS, service=True, durable=True,
        extra_setups=12,
    ),
)
BY_NAME = {workload.name: workload for workload in WORKLOADS}


def salt_for(network: str, seed: int) -> str:
    return "s-{}-{}".format(network, seed)


def seeded_spec(spec, seed: int):
    """*spec* with its public address block drawn from *seed*."""
    if seed == SHAPE_SEED:
        return spec
    rng = random.Random("{}/{}".format(seed, spec.name))
    if spec.kind == "backbone":
        block = (rng.choice([octet for octet in range(1, 127) if octet != 10]) << 24, 8)
    else:
        block = ((128 + rng.randrange(64)) << 24 | rng.randrange(256) << 16, 16)
    return dataclasses.replace(spec, public_block=block)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def percentile(values, pct: float) -> float:
    """The lower nearest-rank percentile: a value some sample took (0 if none)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[math.floor((len(ordered) - 1) * pct / 100.0)]


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# -- inputs ----------------------------------------------------------------


class Corpus:
    """The generated configs of some networks, written under *root*."""

    def __init__(self, root: Path, seed: int, scale: float, networks):
        from repro.iosgen.dataset import paper_dataset_specs
        from repro.iosgen.generate import generate_network

        self.root = root
        self.seed = seed
        self.configs: Dict[str, Dict[str, str]] = {}
        for spec in paper_dataset_specs(SHAPE_SEED, scale):
            if spec.name not in networks:
                continue
            network = generate_network(seeded_spec(spec, seed))
            directory = root / spec.name
            directory.mkdir(parents=True)
            files = {}
            for router, text in sorted(network.configs.items()):
                path = directory / (router + ".cfg")
                path.write_text(text, encoding="utf-8")
                files[str(path)] = text
            self.configs[spec.name] = files

    def directory(self, network: str) -> Path:
        return self.root / network

    def lines(self, networks) -> int:
        return sum(
            len(text.splitlines())
            for network in networks
            for text in self.configs[network].values()
        )

    def files(self, networks) -> int:
        return sum(len(self.configs[network]) for network in networks)


def key_for(network: str, path: str) -> str:
    return "{}/{}".format(network, Path(path).name)


# -- the host's speed ------------------------------------------------------


class Samples:
    """One process's speed-probe samples, ``[start, seconds]`` in time order."""

    def __init__(self, samples):
        self.samples = sorted(samples)
        self.times = [start for start, _ in self.samples]

    def within(self, start: float, end: float) -> list:
        return self.samples[bisect.bisect_left(self.times, start):
                            bisect.bisect_right(self.times, end)]

    def speed(self, start: float, end: float) -> float:
        """The host's mean speed over [start, end] relative to the
        reference (``REFERENCE_PROBE_S`` ÷ probe seconds): from the samples
        taken inside, or else from the last before and the first after.

        Samples come at equal steps of CPU time, so the mean of the
        speeds, not of the probe times, weighs each step by the work done.
        """
        chosen = self.within(start, end)
        if not chosen:
            index = bisect.bisect_left(self.times, start)
            chosen = self.samples[max(index - 1, 0):index + 1]
        if not chosen:
            raise RuntimeError("no speed samples: did launch.py run?")
        return statistics.fmean(REFERENCE_PROBE_S / seconds for _, seconds in chosen)


class Program:
    """What one program started through ``launch.py`` reported: the main
    process's report and those of the workers it forked."""

    def __init__(self, reports: Path):
        self.main: Dict = {}
        self.reports: List[Dict] = []
        for path in sorted(reports.iterdir()):
            with contextlib.suppress(OSError, ValueError):
                report = json.loads(path.read_text())
                self.reports.append(report)
                if path.name == "report.json":
                    self.main = report
        self.speeds = {report["pid"]: Samples(report["speed"]) for report in self.reports}
        self.all = Samples(s for report in self.reports for s in report["speed"])

    def normalize(self, start: float, end: float) -> float:
        """Seconds [start, end] would take at the reference speed."""
        return (end - start) * self.all.speed(start, end)

    def normalize_in(self, pid: int, start: float, end: float) -> float:
        """The same for one call timed in process *pid*, less the time that
        process spent probing during it.  Over a whole rep the probes cost
        a constant 2% of CPU time; in a single file they land at random."""
        samples = self.speeds[pid]
        probing = sum(seconds for _, seconds in samples.within(start, end))
        return (end - start - probing) * samples.speed(start, end)

    def calls(self, kind: str):
        """``(source, raw seconds, normalized seconds)`` of every timed
        ``files`` or ``requests`` entry."""
        for report in self.reports:
            for source, start, end in report[kind]:
                yield source, end - start, self.normalize_in(report["pid"], start, end)

    def peak_rss_kb(self) -> int:
        return max((report["peak_rss_kb"] for report in self.reports), default=0)


# -- one rep ---------------------------------------------------------------


@dataclasses.dataclass
class Times:
    #: Timed work: CLI processes after their set-up (batch) or the
    #: ``CorpusRunner`` runs (service).
    work: float = 0.0
    #: One per CLI process (batch) or daemon start (service).
    setups: List[float] = dataclasses.field(default_factory=list)
    #: ``network/file`` -> seconds: ``anonymize_file`` in the CLI (batch),
    #: the client's round trip (service).
    latencies: Dict[str, float] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class Rep:
    """One rep's measurements: ``times`` normalized to the reference speed
    (see ``Samples.speed``), ``raw`` as measured."""

    times: Times = dataclasses.field(default_factory=Times)
    raw: Times = dataclasses.field(default_factory=Times)
    peak_rss_kb: int = 0
    lines: int = 0
    #: ``network/file`` -> output digest; absent = no output.
    outputs: Dict[str, str] = dataclasses.field(default_factory=dict)
    attempted: int = 0
    failed: Dict[str, str] = dataclasses.field(default_factory=dict)


def collect_outputs(rep: Rep, corpus: Corpus, network: str, out_dir: Path) -> None:
    """Record each input's output digest, or why it counts as failed."""
    from repro.core.runner import resolve_out_paths

    configs = corpus.configs[network]
    for path, out_path in resolve_out_paths(configs, str(out_dir), ".anon").items():
        key = key_for(network, path)
        rep.attempted += 1
        rep.lines += len(configs[path].splitlines())
        if key in rep.failed:
            continue
        try:
            text = Path(out_path).read_text(encoding="utf-8")
        except OSError:
            rep.failed[key] = "missing"
            continue
        rep.outputs[key] = digest(text)
        if FAIL_CLOSED_MARK in text:
            rep.failed[key] = "fail-closed " + rep.outputs[key]


def launch(workload: Workload, corpus: Corpus, network: str, work: Path, options=()):
    """One CLI process over *network*: its exit code, spawn and exit times,
    and what it reported (see ``launch.py``)."""
    reports = work / "launch"
    shutil.rmtree(reports, ignore_errors=True)
    reports.mkdir()
    out_dir = work / "out" / network
    shutil.rmtree(out_dir, ignore_errors=True)
    command = [
        sys.executable, str(HERE / "launch.py"), str(reports / "report.json"), *options,
        "--", str(corpus.directory(network)), "--salt", salt_for(network, corpus.seed),
        "--out-dir", str(out_dir), "--two-pass", "--jobs", str(workload.jobs),
    ]
    with open(work / "launch.log", "ab") as log:
        started = time.monotonic()
        code = subprocess.call(command, env=child_env(), stdout=subprocess.DEVNULL, stderr=log)
        ended = time.monotonic()
    return code, started, ended, Program(reports)


def batch_rep(workload: Workload, corpus: Corpus, work: Path, trace_dir=None) -> Rep:
    """One CLI process per network, one after another."""
    rep = Rep()
    options = () if trace_dir is None else ("--trace-dir", str(trace_dir))
    for network in workload.networks:
        code, started, ended, program = launch(workload, corpus, network, work, options)
        # A process that died before its set-up ended has no set-up.
        setup_done = program.main.get("setup_done", started)
        rep.times.setups.append(program.normalize(started, setup_done))
        rep.raw.setups.append(setup_done - started)
        rep.times.work += program.normalize(setup_done, ended)
        rep.raw.work += ended - setup_done
        for source, raw, normalized in program.calls("files"):
            rep.times.latencies[key_for(network, source)] = normalized
            rep.raw.latencies[key_for(network, source)] = raw
        rep.peak_rss_kb = max(rep.peak_rss_kb, program.peak_rss_kb())
        if code != 0:
            for path in corpus.configs[network]:
                rep.failed[key_for(network, path)] = "exit {}".format(code)
        collect_outputs(rep, corpus, network, work / "out" / network)
    return rep


def _get_json(url: str, path: str, timeout: float = 5.0) -> Dict:
    parsed = urlparse(url)
    connection = http.client.HTTPConnection(parsed.hostname, parsed.port, timeout=timeout)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        body = response.read()
        if response.status != 200:
            raise OSError("HTTP {} from {}{}".format(response.status, url, path))
        return json.loads(body.decode("utf-8"))
    finally:
        connection.close()


class Daemon:
    """A ``serve --workers 2`` daemon started through ``launch.py``.

    It is ready when its supervisor writes the ready file, which it does
    once every worker has reported that it serves; the shards' ``/healthz``
    answers are checked after that, untimed.  Timing them would add the
    response stall of README finding (b), 0 or 40 ms per request.
    """

    START_TIMEOUT = 60.0

    def __init__(self, work: Path, durable: bool, trace_dir=None):
        ready = work / "daemon.ready"
        ready.unlink(missing_ok=True)
        self.reports = work / "daemon-reports"
        shutil.rmtree(self.reports, ignore_errors=True)
        self.reports.mkdir()
        command = [sys.executable, str(HERE / "launch.py"), str(self.reports / "report.json")]
        if trace_dir is not None:
            command += ["--trace-dir", str(trace_dir)]
        command += [
            "--", "serve", "--host", "127.0.0.1", "--port", "0",
            "--workers", str(DAEMON_WORKERS), "--threads", str(DAEMON_THREADS),
            "--ready-file", str(ready),
        ]
        if durable:
            state = work / "state"
            shutil.rmtree(state, ignore_errors=True)
            command += ["--state-dir", str(state)]
        self._log = open(work / "daemon.log", "ab")
        self.started = time.monotonic()
        self.process = subprocess.Popen(
            command, env=child_env(), stdout=self._log, stderr=self._log
        )
        self.pids = [self.process.pid]
        try:
            self.url = self._wait(lambda: ready.read_text().strip() or None)
            self.ready = time.monotonic()
            shards = self._wait(lambda: _get_json(self.url, "/healthz")["shards"])
            for shard_url in shards.values():
                self.pids.append(self._wait(lambda: _get_json(shard_url, "/healthz")["pid"]))
        except BaseException:
            self._terminate()
            raise

    def _wait(self, probe):
        deadline = time.monotonic() + self.START_TIMEOUT
        while True:
            if self.process.poll() is not None:
                raise RuntimeError("daemon exited {} during start-up".format(self.process.returncode))
            try:
                value = probe()
            except (OSError, ValueError, KeyError, http.client.HTTPException):
                value = None
            if value:
                return value
            if time.monotonic() > deadline:
                raise RuntimeError("daemon not ready after {:.0f}s".format(self.START_TIMEOUT))
            time.sleep(0.001)

    def peak_rss_kb(self) -> int:
        """Largest ``VmHWM`` over the supervisor and its workers."""
        return max(vm_hwm_kb(pid) for pid in self.pids)

    def _terminate(self) -> int:
        """SIGTERM (graceful drain), then wait; SIGKILL stragglers."""
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
            try:
                return self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                for pid in reversed(self.pids):
                    with contextlib.suppress(OSError):
                        os.kill(pid, signal.SIGKILL)
                return self.process.wait()
        finally:
            self._log.close()

    def stop(self) -> Program:
        """Drain and stop the daemon; what its processes reported."""
        code = self._terminate()
        if code != 0:
            raise RuntimeError("daemon exited {} after its drain".format(code))
        return Program(self.reports)


@contextlib.contextmanager
def client_timings():
    """Time, in this process, every client ``anonymize`` call (retries
    included) as ``requests`` and every ``CorpusRunner._open_sessions`` as
    ``opens``: lists of ``(source, start, end)`` and ``(start, end)``."""
    from repro.service.client import RetryingServiceClient
    from repro.service.corpus import CorpusRunner

    timings = {"requests": [], "opens": []}
    anonymize = RetryingServiceClient.__dict__["anonymize"]
    open_sessions = CorpusRunner.__dict__["_open_sessions"]

    @functools.wraps(anonymize)
    def timed_anonymize(self, *args, **kwargs):
        started = time.monotonic()
        try:
            return anonymize(self, *args, **kwargs)
        finally:
            source = kwargs.get("source", args[2] if len(args) > 2 else "<config>")
            timings["requests"].append((source, started, time.monotonic()))

    @functools.wraps(open_sessions)
    def timed_open_sessions(self, *args, **kwargs):
        started = time.monotonic()
        try:
            return open_sessions(self, *args, **kwargs)
        finally:
            timings["opens"].append((started, time.monotonic()))

    RetryingServiceClient.anonymize = timed_anonymize
    CorpusRunner._open_sessions = timed_open_sessions
    try:
        yield timings
    finally:
        RetryingServiceClient.anonymize = anonymize
        CorpusRunner._open_sessions = open_sessions


def service_rep(workload: Workload, corpus: Corpus, work: Path, trace_dir=None, tracer=None) -> Rep:
    """Submit the networks one at a time through ``CorpusRunner``."""
    from repro.core.runner import resolve_out_paths
    from repro.service.corpus import MANIFEST_NAME, CorpusRunner

    rep = Rep()
    daemon = Daemon(work, workload.durable, trace_dir)
    runs = []  # (network, started, ended, opens, requests)
    try:
        with client_timings() as timings:
            for network in workload.networks:
                configs = corpus.configs[network]
                out_dir = work / "out" / network
                shutil.rmtree(out_dir, ignore_errors=True)
                runner = CorpusRunner(
                    daemon.url, None, salt_for(network, corpus.seed), configs,
                    resolve_out_paths(configs, str(out_dir), ".anon"),
                    jobs=workload.jobs, manifest_path=out_dir / MANIFEST_NAME,
                    log=lambda line: None,
                )
                started = time.monotonic()
                try:
                    runner.run()
                except Exception as exc:  # counted as failed files, run goes on
                    for path in configs:
                        rep.failed[key_for(network, path)] = type(exc).__name__
                finally:
                    runner.close()
                runs.append((network, started, time.monotonic(),
                             list(timings["opens"]), list(timings["requests"])))
                timings["opens"].clear()
                timings["requests"].clear()
                for path in runner.report.get("files_quarantined", ()):
                    rep.failed[key_for(network, path)] = "quarantined"
                if tracer is not None:
                    tracer.count("client.retries", runner.report.get("client_retries", 0))
                    tracer.count("corpus.failovers", runner.report.get("failovers", 0))
                collect_outputs(rep, corpus, network, out_dir)
        rep.peak_rss_kb = daemon.peak_rss_kb()
    finally:
        program = daemon.stop()
    rep.times.setups.append(program.normalize(daemon.started, daemon.ready))
    rep.raw.setups.append(daemon.ready - daemon.started)
    handled: Dict[str, Tuple[float, float]] = {}  # source -> server time, raw and normalized
    for source, raw, normalized in program.calls("requests"):
        before = handled.get(source, (0.0, 0.0))
        handled[source] = (before[0] + raw, before[1] + normalized)
    for network, started, ended, opens, requests in runs:
        rep.raw.work += ended - started
        opened = sum(end - start for start, end in opens)
        rep.times.work += sum(program.normalize(start, end) for start, end in opens)
        # A round trip is the server's time, normalized, plus the rest
        # (transport and client) as measured: the rest is mostly a fixed
        # network timer (see README.md), not computation.
        trips, normalized_trips = {}, {}
        for source, start, end in requests:
            trips[source] = trips.get(source, 0.0) + end - start
        for source, trip in trips.items():
            server, server_normalized = handled.get(source, (0.0, 0.0))
            normalized_trips[source] = trip - server + server_normalized
            rep.times.latencies[key_for(network, source)] = normalized_trips[source]
            rep.raw.latencies[key_for(network, source)] = trip
        # The requests phase: two client threads, so its wall is scaled by
        # the share of their round trips that normalization kept.
        if trips:
            share = sum(normalized_trips.values()) / sum(trips.values())
            rep.times.work += (ended - started - opened) * share
    return rep


def run_rep(workload: Workload, corpus: Corpus, work: Path, trace_dir=None, tracer=None) -> Rep:
    if workload.service:
        return service_rep(workload, corpus, work, trace_dir, tracer)
    return batch_rep(workload, corpus, work, trace_dir)


# -- metrics ---------------------------------------------------------------


def end_to_end(reps: List[Rep], times: List[Times], setups: List[float]) -> Dict[str, float]:
    """*times*: each rep's, normalized or raw.  *setups*: one per rep
    (batch: its processes' sum) or daemon start, and one per set-up-only
    start.  Rates and set-up are medians over the run; latency
    percentiles pool every file of every rep."""
    latencies = [seconds for rep in times for seconds in rep.latencies.values()]
    return {
        "lines_per_s": statistics.median(rep.lines / t.work for rep, t in zip(reps, times)),
        "setup_s": statistics.median(setups),
        "latency_p50_ms": percentile(latencies, 50) * 1000.0,
        "latency_p90_ms": percentile(latencies, 90) * 1000.0,
        "peak_rss_mb": max(rep.peak_rss_kb for rep in reps) / 1024.0,
    }


# -- correctness -----------------------------------------------------------


def reference_digests(corpus: Corpus, network: str, keys) -> Dict[str, str]:
    """The library's freeze-then-rewrite output, as digests."""
    from repro.core import Anonymizer, AnonymizerConfig

    configs = corpus.configs[network]
    anonymizer = Anonymizer(AnonymizerConfig(salt=salt_for(network, corpus.seed).encode("utf-8")))
    anonymizer.freeze_mappings(configs)
    wanted = set(keys)
    return {
        key_for(network, path): digest(anonymizer.anonymize_file(text, source=path)[0])
        for path, text in configs.items()
        if key_for(network, path) in wanted
    }


def check(workload: Workload, reps: List[Rep], corpus: Corpus) -> List[str]:
    """Problems found (file names and digests only, never config text).

    Every file must end ok, every rep must write the same bytes, and a
    seeded sample must match the library's own freeze-then-rewrite output.
    """
    problems = []
    first = reps[0].outputs
    for index, rep in enumerate(reps):
        for key, reason in sorted(rep.failed.items()):
            problems.append("rep {}: {} not ok ({})".format(index, key, reason))
        for key, out_digest in sorted(rep.outputs.items()):
            if out_digest != first.get(key):
                problems.append("{}: rep {} wrote {}, rep 0 wrote {}".format(
                    key, index, out_digest, first.get(key)))
    rng = random.Random("{}:{}".format(corpus.seed, workload.name))
    network = rng.choice(workload.networks)
    keys = sorted(key_for(network, path) for path in corpus.configs[network])
    sample = rng.sample(keys, min(REFERENCE_FILES, len(keys)))
    for key, expected in sorted(reference_digests(corpus, network, sample).items()):
        if first.get(key) != expected:
            problems.append("{}: wrote {}, library reference {}".format(key, first.get(key), expected))
    return problems


def cross_check(results: Dict[str, "Result"]) -> List[str]:
    """Workloads sharing a (network, salt) must write identical bytes."""
    problems = []
    names = list(results)
    for index, a in enumerate(names):
        for b in names[index + 1:]:
            left, right = results[a].outputs, results[b].outputs
            for key in sorted(set(left) & set(right)):
                if left[key] != right[key]:
                    problems.append("{}: {} wrote {}, {} wrote {}".format(
                        key, a, left[key], b, right[key]))
    return problems


# -- one workload ----------------------------------------------------------


@dataclasses.dataclass
class Result:
    workload: str
    metrics: Dict[str, float]
    samples: Dict[str, float]
    outputs: Dict[str, str]
    attempted: int
    failed: int
    problems: List[str]
    e2e: Dict[str, float]
    #: The end-to-end metrics as measured, before normalization.
    raw: Dict[str, float]
    trace_file: Optional[str]


def setup_sample(workload: Workload, corpus: Corpus, work: Path) -> Tuple[float, float]:
    """Start the workload's program once, only to time its set-up:
    normalized and raw seconds."""
    if workload.service:
        daemon = Daemon(work, workload.durable)
        program = daemon.stop()
        return program.normalize(daemon.started, daemon.ready), daemon.ready - daemon.started
    (network,) = workload.networks
    code, started, _, program = launch(workload, corpus, network, work, ("--setup-only",))
    if code != 0:
        raise RuntimeError("set-up-only launch exited {}".format(code))
    setup_done = program.main["setup_done"]
    return program.normalize(started, setup_done), setup_done - started


def measure(workload: Workload, corpus: Corpus, work: Path, args) -> Result:
    """Reps for ``--seconds`` (the next rep must fit), or exactly
    ``--reps``; a traced run measures one untraced rep and then one traced
    rep.  Set-up-only starts are not counted in the window."""
    wanted = 1 if args.trace else args.reps
    extra = 0 if args.trace else workload.extra_setups
    if workload.warmup:
        run_rep(workload, corpus, work)
    reps: List[Rep] = []
    # (normalized, raw) set-up samples.  Batch: a rep's set-up is the sum
    # over its processes.  Service: its daemon start.
    setups: List[Tuple[float, float]] = []
    measured = 0.0
    while True:
        setups += [setup_sample(workload, corpus, work) for _ in range(extra // 2)]
        started = time.monotonic()
        reps.append(run_rep(workload, corpus, work))
        measured += time.monotonic() - started
        setups.append((sum(reps[-1].times.setups), sum(reps[-1].raw.setups)))
        setups += [setup_sample(workload, corpus, work) for _ in range(extra - extra // 2)]
        if wanted:
            if len(reps) >= wanted:
                break
        elif measured * (len(reps) + 1) / len(reps) > args.seconds:
            break  # one more rep would end after the window
    e2e = end_to_end(reps, [rep.times for rep in reps], [s for s, _ in setups])
    raw = end_to_end(reps, [rep.raw for rep in reps], [s for _, s in setups])
    samples = {
        "reps": len(reps),
        "setup_samples": len(setups),
        "latency_samples": sum(len(rep.times.latencies) for rep in reps),
        "files_per_rep": corpus.files(workload.networks),
        "lines_per_rep": corpus.lines(workload.networks),
    }
    trace_file = None
    metrics = e2e
    if args.trace:
        metrics, trace_file, traced = trace_rep(workload, corpus, work, reps[0], args)
        reps.append(traced)
    problems = check(workload, reps, corpus)
    return Result(
        workload=workload.name,
        metrics=metrics,
        samples=samples,
        outputs=reps[0].outputs,
        attempted=sum(rep.attempted for rep in reps),
        failed=sum(len(rep.failed) for rep in reps),
        problems=problems,
        e2e=e2e,
        raw=raw,
        trace_file=trace_file,
    )


def trace_rep(workload: Workload, corpus: Corpus, work: Path, untraced: Rep, args):
    """One traced rep: per-layer metrics, its rep, and the trace file."""
    import tracing

    trace_dir = work / "trace"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        traced = run_rep(workload, corpus, work, trace_dir, tracer)
    finally:
        tracer.uninstall()
    documents = tracing.load_documents(str(trace_dir)) + [tracer.document()]
    layers = tracing.summarize(documents, workload.jobs)
    layers["trace.overhead_frac"] = traced.raw.work / untraced.raw.work - 1.0
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / "{}-seed{}-trace.json".format(workload.name, args.seed)
    with open(path, "w") as handle:
        json.dump(
            {
                "workload": workload.name,
                "seed": args.seed,
                "scale": args.scale,
                "layers": tracing.layer_counts(documents),
                "metrics": layers,
                "documents": documents,
            },
            handle,
        )
    return layers, str(path), traced


# -- reporting -------------------------------------------------------------


def git_revision() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def provenance(args) -> Dict:
    from repro.plugins import resolve_active_plugins

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": usable,
        # Two busy processes at once (jobs=2, two daemon workers) need two.
        "cpus_limited": usable < 2,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "active_plugins": sorted(p.family for p in resolve_active_plugins()),
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "reps_requested": args.reps,
        "trace": bool(args.trace),
    }


def print_result(result: Result, spec) -> None:
    samples = result.samples
    print("== {}: {} reps, {} files / {} lines per rep".format(
        result.workload, samples["reps"], samples["files_per_rep"], samples["lines_per_rep"]))
    latency = "over {} file samples".format(samples["latency_samples"])
    notes = {
        "setup_s": "median of {} samples".format(samples["setup_samples"]),
        "latency_p50_ms": latency,
        "latency_p90_ms": latency,
    }
    print("   {:<34} {:>14} {:<8} {:>14}".format("", "normalized", "", "as measured"))
    for metric in spec["end_to_end"]:
        name = metric["name"]
        print("   {:<34} {:>14.6g} {:<8} {:>14.6g}  {}".format(
            name, result.e2e[name], metric["unit"], result.raw[name], notes.get(name, "")))
    if result.trace_file:
        for metric in spec["per_layer"]:
            print("   {:<34} {:>14.6g} {}".format(
                metric["name"], result.metrics[metric["name"]], metric["unit"]))
        print("   trace: {}".format(result.trace_file))
    if result.problems:
        print("   INCORRECT: {} problem(s)".format(len(result.problems)))
        for problem in result.problems[:20]:
            print("     " + problem)
    else:
        print("   correct: {} files attempted, none failed; reps byte-identical; "
              "sampled files match the library".format(result.attempted))


def run(args) -> int:
    spec = json.loads(SPEC.read_text())
    if not (SRC / "repro" / "__init__.py").is_file():
        print("error: no program sources at {}".format(SRC), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import compileall

    # Byte-compile first so no run pays for it inside a set-up.
    compileall.compile_dir(str(SRC / "repro"), quiet=1)
    workloads = [BY_NAME[name] for name in (args.workload or BY_NAME)]
    work = WORK / "run-{}".format(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        networks = sorted({n for workload in workloads for n in workload.networks})
        corpus = Corpus(work / "in", args.seed, args.scale, networks)
        results = {}
        for workload in workloads:
            results[workload.name] = measure(workload, corpus, work, args)
            print_result(results[workload.name], spec)
        cross = cross_check(results)
        for problem in cross:
            print("INCORRECT across workloads: " + problem)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info = provenance(args)
    if args.out:
        with open(args.out, "a") as handle:
            for result in results.values():
                document = dataclasses.asdict(result)
                del document["outputs"]
                document["provenance"] = info
                handle.write(json.dumps(document, sort_keys=True) + "\n")
    correct = not cross and all(not r.problems for r in results.values())
    failed = sum(r.failed for r in results.values())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {}
    for result in results.values():
        for name, value in result.metrics.items():
            label = name if len(results) == 1 else "{}.{}".format(result.workload, name)
            metrics[label] = {"value": value, "unit": units[name]}
    print("provenance: " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0 if correct and failed == 0 else 1


# -- compare ---------------------------------------------------------------


def load_runs(path: str) -> Dict[str, List[Dict]]:
    runs: Dict[str, List[Dict]] = {}
    with open(path) as handle:
        for line in handle:
            if line.strip():
                document = json.loads(line)
                runs.setdefault(document["workload"], []).append(document)
    return runs


def spread(values: List[float]) -> Tuple[float, float, float]:
    """Median and first/third quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def wins(runs_a: List[Dict], runs_b: List[Dict], metric: Dict) -> str:
    """How many seeds run on both sides B measured better than A on."""
    by_seed = [
        {run["provenance"]["seed"]: run["metrics"][metric["name"]]
         for run in runs if metric["name"] in run["metrics"]}
        for runs in (runs_a, runs_b)
    ]
    seeds = set(by_seed[0]) & set(by_seed[1])
    sign = -1 if metric["better"] == "lower" else 1
    won = sum(1 for seed in seeds if sign * (by_seed[1][seed] - by_seed[0][seed]) > 0)
    return "{}/{}".format(won, len(seeds))


def compare(path_a: str, path_b: str) -> int:
    spec = json.loads(SPEC.read_text())
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    metrics = [(m, True) for m in spec["end_to_end"]] + [(m, False) for m in spec["per_layer"]]
    print("{:<16} {:<32} {:>30} {:>30} {:>8} {:>6} {:>7}  {}".format(
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta", "bound",
        "B wins", "verdict"))
    for workload in BY_NAME:
        if workload not in runs_a or workload not in runs_b:
            continue
        for metric, bounded in metrics:
            name = metric["name"]
            a = [run["metrics"][name] for run in runs_a[workload] if name in run["metrics"]]
            b = [run["metrics"][name] for run in runs_b[workload] if name in run["metrics"]]
            if not a or not b:
                continue
            (ma, qa1, qa3), (mb, qb1, qb3) = spread(a), spread(b)
            delta = (mb - ma) / ma if ma else 0.0
            if not bounded:
                verdict, bound = "no bound", ""
            else:
                limit = metric["bound"]
                bound = "{:.0%}".format(limit)
                worse = delta if metric["better"] == "lower" else -delta
                wide = ma and (qa3 - qa1) / ma > limit or mb and (qb3 - qb1) / mb > limit
                if wide:
                    verdict = "unresolved"
                elif worse > limit:
                    verdict = "regressed"
                elif worse < -limit:
                    verdict = "improved"
                else:
                    verdict = "within bound"
            print("{:<16} {:<32} {:>30} {:>30} {:>+8.1%} {:>6} {:>7}  {}".format(
                workload, name,
                "{:.4g} [{:.4g}, {:.4g}]".format(ma, qa1, qa3),
                "{:.4g} [{:.4g}, {:.4g}]".format(mb, qb1, qb3),
                delta, bound, wins(runs_a[workload], runs_b[workload], metric), verdict))
    return 0


def parse_args(argv):
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(BY_NAME),
                        help="workload to run (repeatable; default: all five)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measure reps for this long (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: one untraced and one traced rep; per-layer metrics")
    parser.add_argument("--scale", type=float, default=0.1, help="paper dataset scale")
    parser.add_argument("--reps", type=int, default=0, help="exactly this many reps")
    parser.add_argument("--out", help="append one JSON line per workload to this file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --out files instead of measuring")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
