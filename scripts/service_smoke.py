#!/usr/bin/env python
"""Service smoke test: the CI drive-the-daemon-for-real job.

Starts ``repro-anonymize serve`` as a subprocess, then walks the whole
operational surface end to end:

1. wait for the ready file and ``GET /healthz``,
2. create a session, freeze it over a sample corpus,
3. anonymize a config via the ``submit`` CLI subcommand and verify the
   output is byte-identical to the batch ``--jobs 2`` CLI run,
4. scrape ``GET /metrics`` and check the request/rule-family counters
   and the queue-depth gauge are present,
5. SIGTERM the daemon and require a graceful exit 0.

With ``--chaos`` it instead runs the crash-safety drill: a durable
daemon (``--state-dir``) is killed *mid-journal-write* by an injected
fault halfway through a corpus, a fresh daemon recovers the state dir,
and the retrying client resumes the session and finishes — the final
outputs must be byte-identical to an uninterrupted batch ``--jobs 2``
run, and the journal/recovery metrics must account for every event.

``--workers N`` (default 1) runs either flow against the pre-fork
sharded daemon.  The chaos drill changes shape there: the injected
fault kills *one worker* mid-journal-write, the supervisor respawns it
in place (no second daemon), the replacement recovers exactly its
shard, and a witness session on the *other* shard must sail through the
whole drill undisturbed — same worker pid, no recovery, no retries.

Runs under a hard deadline so a wedged daemon fails loudly instead of
hanging CI.  Exits 0 on success, 1 with a message on any failure.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = str(REPO / "src")
DEADLINE_SECONDS = 120

SAMPLE = """\
hostname cr1.lax.foo.com
interface Ethernet0
 ip address 1.1.1.1 255.255.255.0
router bgp 1111
 neighbor 2.3.4.5 remote-as 701
 neighbor 2.3.4.5 route-map UUNET-import in
access-list 143 permit ip 1.1.1.0 0.0.0.255 2.0.0.0 0.255.255.255
"""


SAMPLE2 = """\
hostname cr2.lax.foo.com
interface Loopback0
 ip address 1.2.3.4 255.255.255.255
router bgp 1111
 neighbor 2.3.4.5 remote-as 701
"""

SAMPLE3 = """\
hostname edge.sfo.foo.com
router bgp 701
 neighbor 1.2.3.4 remote-as 1111
access-list 10 permit 1.1.1.0 0.0.0.255
"""


def fail(message: str) -> "NoReturn":  # noqa: F821 (py3.10 compat)
    print("SMOKE FAIL: {}".format(message), file=sys.stderr)
    sys.exit(1)


def spawn_daemon(env, workdir, name, workers=1, extra_args=(), extra_env=None):
    """Start ``repro-anonymize serve`` and wait for its ready file."""
    ready = workdir / (name + ".ready")
    daemon_env = dict(env)
    daemon_env.update(extra_env or {})
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            "0",
            "--workers",
            str(workers),
            "--threads",
            "2",
            "--ready-file",
            str(ready),
            *extra_args,
        ],
        env=daemon_env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.time() + 30
    while not ready.exists():
        if proc.poll() is not None:
            fail(
                "{} exited early:\n".format(name) + (proc.stdout.read() or "")
            )
        if time.time() > deadline:
            fail("{} never wrote the ready file".format(name))
        time.sleep(0.05)
    return proc, ready.read_text().strip()


def chaos_main() -> int:
    """Kill the daemon mid-journal-write, restart, and finish the corpus."""
    # The single-process drill: recovery happens in a *second* daemon.
    started = time.time()
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    workdir = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    state_dir = workdir / "state"
    corpus = {"cr1.cfg": SAMPLE, "cr2.cfg": SAMPLE2, "cr3.cfg": SAMPLE3}
    (workdir / "in").mkdir()
    for name, text in corpus.items():
        (workdir / "in" / name).write_text(text)

    # The uninterrupted reference: the batch --jobs 2 pipeline.
    batch_dir = workdir / "via-batch"
    code = subprocess.call(
        [
            sys.executable,
            "-m",
            "repro.cli",
            str(workdir / "in"),
            "--salt",
            "chaos-secret",
            "--jobs",
            "2",
            "--out-dir",
            str(batch_dir),
        ],
        env=env,
        timeout=DEADLINE_SECONDS,
    )
    if code != 0:
        fail("batch reference run exited {}".format(code))
    reference = {
        name: (batch_dir / (name + ".anon")).read_bytes() for name in corpus
    }

    sys.path.insert(0, SRC)
    import http.client as httplib

    from repro.service.client import (
        RetryingServiceClient,
        RetryPolicy,
        ServiceClient,
    )

    policy = RetryPolicy(max_attempts=3, base_delay=0.05, max_delay=0.3)

    # Round 1: the daemon dies mid-journal-append while handling cr2.cfg
    # (half a record on disk, no response sent).
    daemon1, url1 = spawn_daemon(
        env,
        workdir,
        "daemon1",
        extra_args=("--state-dir", str(state_dir)),
        extra_env={"REPRO_FAULT_PLAN": "journal-kill:cr2.cfg"},
    )
    try:
        client1 = RetryingServiceClient(
            url1, timeout=60, salt="chaos-secret", policy=policy
        )
        session_id = client1.create_session("chaos-secret")["id"]
        client1.freeze(session_id, corpus)
        outputs = {
            "cr1.cfg": client1.anonymize(
                session_id, corpus["cr1.cfg"], source="cr1.cfg"
            )["text"].encode()
        }
        print("round 1: froze + anonymized cr1.cfg on {}".format(url1))
        try:
            client1.anonymize(session_id, corpus["cr2.cfg"], source="cr2.cfg")
            fail("the journal-kill fault never fired")
        except (OSError, httplib.HTTPException):
            pass
        daemon1.wait(timeout=15)
        if daemon1.returncode != 3:
            fail(
                "daemon1 exited {} (expected the injected crash code "
                "3)".format(daemon1.returncode)
            )
        print("round 1: daemon killed mid-journal-write (exit 3)")
    finally:
        if daemon1.poll() is None:
            daemon1.kill()
            daemon1.communicate(timeout=10)

    # Round 2: a fresh daemon recovers the state dir; the retrying
    # client auto-resumes the session and finishes the corpus.
    daemon2, url2 = spawn_daemon(
        env, workdir, "daemon2", extra_args=("--state-dir", str(state_dir))
    )
    try:
        client2 = RetryingServiceClient(
            url2, timeout=60, salt="chaos-secret", policy=policy
        )
        for name in sorted(corpus):
            outputs[name] = client2.anonymize(
                session_id, corpus[name], source=name
            )["text"].encode()
        if outputs != reference:
            diff = [n for n in corpus if outputs.get(n) != reference[n]]
            fail(
                "post-recovery outputs differ from the uninterrupted "
                "batch run: {}".format(diff)
            )
        print("round 2: resumed session; outputs byte-identical to batch")

        metrics = ServiceClient(url2, timeout=60).metrics_text()

        def counter(name):
            for line in metrics.splitlines():
                if line.startswith(name + " "):
                    return int(float(line.split()[1]))
            fail("metrics missing {!r}".format(name))

        if counter("repro_session_recoveries_total") != 1:
            fail("expected exactly one session recovery")
        if counter("repro_service_journal_torn_discarded_total") != 1:
            fail("expected exactly one torn journal record discarded")
        # Only the files actually re-run on daemon2 append records —
        # the idempotent replay is answered without touching the journal.
        if counter("repro_service_journal_records_total") < 1:
            fail("journal records counter did not grow")
        if counter("repro_idempotent_replays_total") < 1:
            fail("resubmitted committed file was not replayed")
        print(
            "metrics ok: recoveries=1 torn_discarded=1 records={} "
            "replays={}".format(
                counter("repro_service_journal_records_total"),
                counter("repro_idempotent_replays_total"),
            )
        )

        daemon2.send_signal(signal.SIGTERM)
        out, _ = daemon2.communicate(timeout=30)
        if daemon2.returncode != 0:
            fail("daemon2 exited {} after SIGTERM:\n{}".format(daemon2.returncode, out))
        print("graceful drain ok")
        print("CHAOS SMOKE PASS in {:.1f}s".format(time.time() - started))
        return 0
    finally:
        if daemon2.poll() is None:
            daemon2.kill()
            daemon2.communicate(timeout=10)


def chaos_sharded_main(workers: int) -> int:
    """Kill one worker mid-journal-write; its shard alone recovers.

    One supervisor daemon runs the whole drill: the injected fault kills
    the worker owning the drill session, the supervisor respawns that
    shard in place (the retrying client rides the crash out — dropped
    connection, redirect, auto-resume — with no second daemon), and a
    witness session on a *different* shard must never notice: same
    worker pid before and after, generation still 0, no recovery.
    """
    started = time.time()
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    workdir = Path(tempfile.mkdtemp(prefix="repro-chaos-shard-"))
    state_dir = workdir / "state"
    corpus = {"cr1.cfg": SAMPLE, "cr2.cfg": SAMPLE2, "cr3.cfg": SAMPLE3}
    (workdir / "in").mkdir()
    for name, text in corpus.items():
        (workdir / "in" / name).write_text(text)

    # The uninterrupted reference: the batch --jobs 2 pipeline.
    batch_dir = workdir / "via-batch"
    code = subprocess.call(
        [
            sys.executable,
            "-m",
            "repro.cli",
            str(workdir / "in"),
            "--salt",
            "chaos-secret",
            "--jobs",
            "2",
            "--out-dir",
            str(batch_dir),
        ],
        env=env,
        timeout=DEADLINE_SECONDS,
    )
    if code != 0:
        fail("batch reference run exited {}".format(code))
    reference = {
        name: (batch_dir / (name + ".anon")).read_bytes() for name in corpus
    }

    sys.path.insert(0, SRC)
    from repro.service.client import (
        RetryingServiceClient,
        RetryPolicy,
        ServiceClient,
    )

    daemon, url = spawn_daemon(
        env,
        workdir,
        "supervisor",
        workers=workers,
        extra_args=("--state-dir", str(state_dir)),
        extra_env={"REPRO_FAULT_PLAN": "journal-kill:cr2.cfg"},
    )
    try:
        policy = RetryPolicy(max_attempts=10, base_delay=0.1, max_delay=1.0)
        client = RetryingServiceClient(
            url, timeout=60, salt="chaos-secret", policy=policy
        )
        session_id = client.create_session("chaos-secret")["id"]
        victim_shard = client.session(session_id)["shard"]
        shards = client.healthz()["shards"]
        victim_url = shards[str(victim_shard)]
        victim_probe = ServiceClient(victim_url, timeout=60)
        victim_pid = victim_probe.healthz()["pid"]
        victim_probe.close()

        witness_shard = next(
            int(i) for i in shards if int(i) != victim_shard
        )
        witness = ServiceClient(shards[str(witness_shard)], timeout=60)
        witness_pid = witness.healthz()["pid"]
        witness_session = witness.create_session("witness-secret")["id"]
        witness_before = witness.anonymize(
            witness_session, corpus["cr1.cfg"], source="witness.cfg"
        )["text"]
        print(
            "drill session on shard {} (pid {}), witness on shard {} "
            "(pid {})".format(
                victim_shard, victim_pid, witness_shard, witness_pid
            )
        )

        client.freeze(session_id, corpus)
        outputs = {
            "cr1.cfg": client.anonymize(
                session_id, corpus["cr1.cfg"], source="cr1.cfg"
            )["text"].encode()
        }
        # This one kills worker <victim_shard> mid-journal-append.  The
        # retrying client rides it out end to end: dropped connection,
        # retry lands on a surviving worker, 307 to the victim's direct
        # listener (its accept queue is held open by the supervisor),
        # the respawned worker recovers its shard, answers 404
        # recoverable, and the client auto-resumes and re-runs.
        outputs["cr2.cfg"] = client.anonymize(
            session_id, corpus["cr2.cfg"], source="cr2.cfg"
        )["text"].encode()
        outputs["cr3.cfg"] = client.anonymize(
            session_id, corpus["cr3.cfg"], source="cr3.cfg"
        )["text"].encode()
        if outputs != reference:
            diff = [n for n in corpus if outputs.get(n) != reference[n]]
            fail(
                "post-respawn outputs differ from the uninterrupted batch "
                "run: {}".format(diff)
            )
        print("rode out the worker kill; outputs byte-identical to batch")

        if daemon.poll() is not None:
            fail(
                "the supervisor died with its worker (exit {})".format(
                    daemon.returncode
                )
            )
        respawned = ServiceClient(victim_url, timeout=60)
        health = respawned.healthz()
        respawned.close()
        if health["pid"] == victim_pid:
            fail("worker {} was never killed (same pid)".format(victim_shard))
        if health.get("generation", 0) < 1:
            fail("respawned worker does not report a new generation")
        print(
            "shard {} respawned in place (pid {} -> {}, generation "
            "{})".format(
                victim_shard, victim_pid, health["pid"], health["generation"]
            )
        )

        # The witness shard must have sailed through untouched: same
        # process, still generation 0, session alive without resume, and
        # still producing identical bytes over its parked keep-alive
        # connection.
        witness_health = witness.healthz()
        if witness_health["pid"] != witness_pid:
            fail("witness worker was disturbed (pid changed)")
        if witness_health.get("generation", 0) != 0:
            fail("witness worker respawned during the drill")
        witness_after = witness.anonymize(
            witness_session, corpus["cr1.cfg"], source="witness.cfg"
        )["text"]
        if witness_after != witness_before:
            fail("witness shard's output changed across the drill")
        witness.close()
        print("witness shard undisturbed (same pid, generation 0)")

        metrics = ServiceClient(url, timeout=60).metrics_text()

        def counter(name):
            for line in metrics.splitlines():
                if line.startswith(name + " "):
                    return int(float(line.split()[1]))
            fail("metrics missing {!r}".format(name))

        if counter("repro_session_recoveries_total") < 1:
            fail("aggregated metrics show no session recovery")
        if counter("repro_service_journal_torn_discarded_total") != 1:
            fail("expected exactly one torn journal record discarded")
        for shard in range(workers):
            needle = 'repro_worker_up{{shard="{}"}} 1'.format(shard)
            if needle not in metrics:
                fail("aggregated metrics missing {!r}".format(needle))
        print("aggregated metrics ok (all workers up, one torn record)")

        daemon.send_signal(signal.SIGTERM)
        out, _ = daemon.communicate(timeout=30)
        if daemon.returncode != 0:
            fail(
                "supervisor exited {} after SIGTERM:\n{}".format(
                    daemon.returncode, out
                )
            )
        if "respawning" not in out:
            fail("supervisor log never mentioned the respawn:\n" + out)
        if "drained" not in out:
            fail("supervisor did not report a graceful drain:\n" + out)
        print("graceful drain ok")
        print(
            "SHARDED CHAOS SMOKE PASS in {:.1f}s".format(time.time() - started)
        )
        return 0
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.communicate(timeout=10)


def corpus_chaos_main(workers: int) -> int:
    """The corpus fan-out drill: interrupt, full disk, worker kill.

    One sharded durable daemon serves a ``submit --corpus`` run in two
    phases.  Phase A is interrupted client-side after 3 files
    (``REPRO_CORPUS_ABORT_AFTER``) *and* hits an injected ENOSPC on one
    of those files' journal appends — the 507 + Retry-After park, whose
    counter is scraped between the phases while every worker is still
    alive.  Phase B resumes the run while an injected ``journal-kill``
    fault kills a worker mid-journal-append (fault plans are built per
    session, so the failover re-drive can take down the *other* worker
    too — the drill must ride out both).  The resumed run must exit 0
    with a nonzero failover count, and the final outputs must be
    byte-identical to an uninterrupted batch ``--jobs 2`` run.
    """
    if workers < 2:
        fail("--corpus-chaos needs --workers >= 2")
    started = time.time()
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    workdir = Path(tempfile.mkdtemp(prefix="repro-corpus-chaos-"))
    state_dir = workdir / "state"
    in_dir = workdir / "in"
    in_dir.mkdir()

    sys.path.insert(0, SRC)
    from repro.service.sharding import shard_for

    samples = [SAMPLE, SAMPLE2, SAMPLE3]
    names = []
    for index in range(8):
        path = in_dir / "chaos{:02d}.cfg".format(index)
        path.write_text(samples[index % len(samples)])
        names.append(str(path))
    corpus_names = sorted(names)
    # The ENOSPC fault fires in phase A: its target must be among the
    # first 3 sorted files (driven before the interrupt).  The kill
    # fault fires in phase B: its target must be in the tail.
    enospc_target = Path(corpus_names[1]).name
    kill_target = Path(corpus_names[5]).name
    print(
        "corpus of {} files; ENOSPC on {} (phase A), worker-kill on {} "
        "(phase B, hash shard {})".format(
            len(corpus_names),
            enospc_target,
            kill_target,
            shard_for(corpus_names[5], workers),
        )
    )

    # The uninterrupted reference: the batch --jobs 2 pipeline.
    batch_dir = workdir / "via-batch"
    code = subprocess.call(
        [
            sys.executable,
            "-m",
            "repro.cli",
            str(in_dir),
            "--salt",
            "chaos-secret",
            "--jobs",
            "2",
            "--out-dir",
            str(batch_dir),
        ],
        env=env,
        timeout=DEADLINE_SECONDS,
    )
    if code != 0:
        fail("batch reference run exited {}".format(code))
    reference = {
        Path(name).name: (batch_dir / (Path(name).name + ".anon")).read_bytes()
        for name in corpus_names
    }

    from repro.service.client import ServiceClient

    daemon, url = spawn_daemon(
        env,
        workdir,
        "supervisor",
        workers=workers,
        extra_args=("--state-dir", str(state_dir)),
        extra_env={
            "REPRO_FAULT_PLAN": "journal-kill:{};journal-enospc:{}".format(
                kill_target, enospc_target
            )
        },
    )
    try:
        probe = ServiceClient(url, timeout=60)
        shards = probe.healthz()["shards"]
        probe.close()
        pids_before = {}
        for shard, shard_url in shards.items():
            shard_probe = ServiceClient(shard_url, timeout=60)
            pids_before[shard] = shard_probe.healthz()["pid"]
            shard_probe.close()

        out_dir = workdir / "via-corpus"
        submit_args = [
            sys.executable,
            "-m",
            "repro.cli",
            "submit",
            "--corpus",
            str(in_dir),
            "--server",
            url,
            "--salt",
            "chaos-secret",
            "--out-dir",
            str(out_dir),
            "--retries",
            "1",
            "--deadline",
            "60",
            "--corpus-report",
            str(workdir / "report.json"),
        ]

        # Phase A: sequential fan-out, interrupted after 3 files.  The
        # ENOSPC target is among those 3, so the park (507 + Retry-After,
        # client failover, half-open retry) happens here — while both
        # workers are still alive and their in-memory counters intact.
        abort_env = dict(env)
        abort_env["REPRO_CORPUS_ABORT_AFTER"] = "3"
        code = subprocess.call(
            submit_args + ["--corpus-jobs", "1"],
            env=abort_env,
            timeout=DEADLINE_SECONDS,
        )
        if code != 130:
            fail("interrupted corpus run exited {} (expected 130)".format(code))
        manifest_path = out_dir / ".repro-corpus-manifest.jsonl"
        if not manifest_path.exists():
            fail("interrupted run left no resume manifest")
        done = sum(1 for line in manifest_path.read_bytes().splitlines()[1:])
        if done != 3:
            fail("manifest records {} files (expected 3)".format(done))

        # Scrape the disk-fault evidence now: the phase-B kill can take
        # down either worker (fault plans ride every session, so the
        # failover re-drive of the kill target fires on the second shard
        # too) and a killed worker's in-memory counters are lost.
        mid = ServiceClient(url, timeout=60)
        mid_metrics = mid.metrics_text()
        mid.close()
        degraded = 0
        for line in mid_metrics.splitlines():
            if line.startswith("repro_disk_degraded_responses_total "):
                degraded = int(float(line.split()[1]))
        if degraded < 1:
            fail("the ENOSPC park never answered a 507")
        print(
            "phase A: interrupted after 3 files; manifest fsync'd; "
            "ENOSPC answered {} x 507".format(degraded)
        )

        # Phase B: resume.  The journal-kill fault fires mid-corpus on
        # the kill target's primary shard (and possibly on the failover
        # shard as well); the run must still end exit 0.
        code = subprocess.call(
            submit_args + ["--corpus-jobs", "2", "--resume"],
            env=env,
            timeout=DEADLINE_SECONDS,
        )
        if code != 0:
            fail("resumed corpus run exited {} (expected 0)".format(code))
        report = json.loads((workdir / "report.json").read_text())
        if report["files_skipped_resume"] != 3:
            fail(
                "resume skipped {} files (expected 3)".format(
                    report["files_skipped_resume"]
                )
            )
        if report["files_quarantined"]:
            fail("files were quarantined: {}".format(report["files_quarantined"]))
        if report["failovers_total"] < 1:
            fail("the drill produced no failovers")
        print(
            "phase B: resumed and completed; failovers_total={} "
            "(re-drives={}, retries={}, resumes={})".format(
                report["failovers_total"],
                report["failovers"],
                report["client_retries"],
                report["client_resumes"],
            )
        )

        for name in corpus_names:
            base = Path(name).name
            got = (out_dir / (base + ".anon")).read_bytes()
            if got != reference[base]:
                fail(
                    "corpus output for {} differs from the uninterrupted "
                    "batch run".format(base)
                )
        print("outputs byte-identical to batch --jobs 2")

        if daemon.poll() is not None:
            fail("the supervisor died during the drill")
        # The kill fires on whichever shard drives the kill target
        # first: its least-busy primary, which with two files in flight
        # need not be its hash shard.
        respawned = []
        for shard, shard_url in sorted(shards.items()):
            shard_probe = ServiceClient(shard_url, timeout=60)
            health = shard_probe.healthz()
            shard_probe.close()
            if health["pid"] != pids_before[shard]:
                respawned.append((shard, health))
        if not respawned:
            fail("no worker was killed (every shard kept its pid)")
        for shard, health in respawned:
            if health.get("generation", 0) < 1:
                fail("respawned worker does not report a new generation")
            print(
                "shard {} respawned in place (pid {} -> {}, generation "
                "{})".format(
                    shard, pids_before[shard], health["pid"],
                    health["generation"],
                )
            )

        metrics = ServiceClient(url, timeout=60).metrics_text()

        def counter(name):
            for line in metrics.splitlines():
                if line.startswith(name + " "):
                    return int(float(line.split()[1]))
            fail("metrics missing {!r}".format(name))

        if counter("repro_corpus_files_total") < 1:
            fail("no corpus-tagged requests reached the service")
        if counter("repro_corpus_failovers_total") < 1:
            fail("no failover-tagged requests reached the service")
        if "repro_circuit_open{" not in metrics:
            fail("metrics missing the repro_circuit_open gauge")
        for shard in range(workers):
            needle = 'repro_worker_up{{shard="{}"}} 1'.format(shard)
            if needle not in metrics:
                fail("aggregated metrics missing {!r}".format(needle))
        print(
            "metrics ok: corpus_files={} corpus_failovers={} "
            "disk_degraded_responses={} (mid-drill)".format(
                counter("repro_corpus_files_total"),
                counter("repro_corpus_failovers_total"),
                degraded,
            )
        )

        daemon.send_signal(signal.SIGTERM)
        out, _ = daemon.communicate(timeout=30)
        if daemon.returncode != 0:
            fail(
                "supervisor exited {} after SIGTERM:\n{}".format(
                    daemon.returncode, out
                )
            )
        print("graceful drain ok")
        print(
            "CORPUS CHAOS SMOKE PASS in {:.1f}s".format(time.time() - started)
        )
        return 0
    finally:
        if daemon.poll() is None:
            daemon.kill()
            try:
                # wait(), not communicate(): worker processes inherit
                # the stdout pipe and keep it open past the supervisor's
                # death, so communicate() would block on EOF.
                daemon.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass


def hang_drill_main(workers: int) -> int:
    """Wedge one worker's serve loops; the watchdog must revive it.

    An injected ``worker-hang`` fault live-locks the worker owning the
    drill session — process alive, sockets bound, heartbeat stopped.
    The supervisor's watchdog must detect the stale heartbeat within
    ``--watchdog-timeout``, SIGKILL the worker, and respawn it in place
    under the existing budget, while the retrying client rides the hang
    out and a witness session on the other shard never notices.
    """
    if workers < 2:
        fail("--hang needs --workers >= 2")
    started = time.time()
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    workdir = Path(tempfile.mkdtemp(prefix="repro-hang-"))
    state_dir = workdir / "state"

    sys.path.insert(0, SRC)
    from repro.service.client import (
        RetryingServiceClient,
        RetryPolicy,
        ServiceClient,
    )

    daemon, url = spawn_daemon(
        env,
        workdir,
        "supervisor",
        workers=workers,
        extra_args=(
            "--state-dir",
            str(state_dir),
            "--watchdog-timeout",
            "2",
        ),
        extra_env={"REPRO_FAULT_PLAN": "worker-hang:hang-me.cfg"},
    )
    try:
        policy = RetryPolicy(max_attempts=12, base_delay=0.2, max_delay=1.0)
        client = RetryingServiceClient(
            url, timeout=5, salt="hang-secret", policy=policy
        )
        session_id = client.create_session("hang-secret")["id"]
        victim_shard = client.session(session_id)["shard"]
        shards = client.healthz()["shards"]
        victim_url = shards[str(victim_shard)]
        victim_probe = ServiceClient(victim_url, timeout=30)
        victim_pid = victim_probe.healthz()["pid"]
        victim_probe.close()

        witness_shard = next(int(i) for i in shards if int(i) != victim_shard)
        witness = ServiceClient(shards[str(witness_shard)], timeout=30)
        witness_health = witness.healthz()
        witness_pid = witness_health["pid"]
        budget = witness_health.get("respawn_budget", {})
        if not budget:
            fail("healthz does not report the respawn budget")
        full_budget = budget[str(victim_shard)]
        witness_session = witness.create_session("witness-secret")["id"]
        witness_before = witness.anonymize(
            witness_session, SAMPLE, source="witness.cfg"
        )["text"]
        print(
            "drill session on shard {} (pid {}), witness on shard {} "
            "(pid {}), respawn budget {}".format(
                victim_shard, victim_pid, witness_shard, witness_pid,
                full_budget,
            )
        )

        # This request wedges worker <victim_shard>: the handler drops
        # the connection, arms the live-hang, and the next serve-loop
        # tick parks both accept loops in an infinite sleep.  The
        # retrying client rides it out — dropped connection, retries
        # that hang against the wedged (but still bound) socket until
        # its short timeout, then the watchdog's SIGKILL + respawn lets
        # a retry land on the revived worker, which recovers the shard
        # and answers after an auto-resume.
        result = client.anonymize(
            session_id, SAMPLE, source="hang-me.cfg"
        )["text"]
        if "foo.com" in result:
            fail("post-respawn response leaked raw identifiers")
        print("rode out the hang; anonymize answered after respawn")

        if daemon.poll() is not None:
            fail(
                "the supervisor died during the drill (exit {})".format(
                    daemon.returncode
                )
            )
        # The wedge lands at the victim's next serve-loop tick, which
        # can be AFTER the client's retry already succeeded — so the
        # kill + respawn may still be in flight here.  Poll until the
        # revived worker answers with a new pid; probes against the
        # wedged-but-bound socket (or mid-respawn) time out or reset,
        # which just means "keep waiting".
        import http.client as httplib

        from repro.service.client import ServiceClientError

        health = None
        deadline = time.time() + 20
        while time.time() < deadline:
            try:
                respawned = ServiceClient(victim_url, timeout=2)
                health = respawned.healthz()
                respawned.close()
            except (OSError, httplib.HTTPException, ServiceClientError):
                health = None
            if health is not None and health["pid"] != victim_pid:
                break
            time.sleep(0.2)
        if health is None or health["pid"] == victim_pid:
            fail(
                "worker {} was never killed (same pid) — the watchdog "
                "did not fire".format(victim_shard)
            )
        if health.get("generation", 0) < 1:
            fail("respawned worker does not report a new generation")
        watchdog = health.get("watchdog") or {}
        if watchdog.get("timeout") != 2.0:
            fail("healthz does not report the watchdog timeout")
        remaining = health.get("respawn_budget", {}).get(str(victim_shard))
        if remaining != full_budget - 1:
            fail(
                "respawn budget for shard {} is {} (expected {})".format(
                    victim_shard, remaining, full_budget - 1
                )
            )
        print(
            "shard {} respawned in place (pid {} -> {}, generation {}, "
            "budget {} -> {})".format(
                victim_shard,
                victim_pid,
                health["pid"],
                health["generation"],
                full_budget,
                remaining,
            )
        )

        witness_health = witness.healthz()
        if witness_health["pid"] != witness_pid:
            fail("witness worker was disturbed (pid changed)")
        if witness_health.get("generation", 0) != 0:
            fail("witness worker respawned during the drill")
        witness_after = witness.anonymize(
            witness_session, SAMPLE, source="witness.cfg"
        )["text"]
        if witness_after != witness_before:
            fail("witness shard's output changed across the drill")
        witness.close()
        print("witness shard undisturbed (same pid, generation 0)")

        metrics = ServiceClient(url, timeout=30).metrics_text()

        def labeled(name, shard):
            needle = '{}{{shard="{}"}}'.format(name, shard)
            for line in metrics.splitlines():
                if line.startswith(needle + " "):
                    return int(float(line.split()[-1]))
            fail("metrics missing {!r}".format(needle))

        if labeled("repro_worker_hung_total", victim_shard) < 1:
            fail("repro_worker_hung_total did not count the hang")
        if labeled("repro_worker_respawns_total", victim_shard) < 1:
            fail("repro_worker_respawns_total did not count the respawn")
        if labeled("repro_worker_hung_total", witness_shard) != 0:
            fail("the witness shard was counted as hung")
        print(
            "metrics ok: hung={} respawns={} (victim), hung=0 "
            "(witness)".format(
                labeled("repro_worker_hung_total", victim_shard),
                labeled("repro_worker_respawns_total", victim_shard),
            )
        )

        daemon.send_signal(signal.SIGTERM)
        out, _ = daemon.communicate(timeout=30)
        if daemon.returncode != 0:
            fail(
                "supervisor exited {} after SIGTERM:\n{}".format(
                    daemon.returncode, out
                )
            )
        if "hung" not in out:
            fail("supervisor log never mentioned the hang:\n" + out)
        if "respawning" not in out:
            fail("supervisor log never mentioned the respawn:\n" + out)
        print("graceful drain ok")
        print("HANG DRILL PASS in {:.1f}s".format(time.time() - started))
        return 0
    finally:
        if daemon.poll() is None:
            daemon.kill()
            try:
                daemon.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass


def main(workers: int = 1) -> int:
    started = time.time()

    def remaining() -> float:
        left = DEADLINE_SECONDS - (time.time() - started)
        if left <= 0:
            fail("deadline exceeded")
        return left

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    workdir = Path(tempfile.mkdtemp(prefix="repro-smoke-"))
    ready = workdir / "ready.txt"
    (workdir / "in").mkdir()
    (workdir / "in" / "cr1.cfg").write_text(SAMPLE)

    daemon = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            "0",
            "--workers",
            str(workers),
            "--threads",
            "2",
            "--ready-file",
            str(ready),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        while not ready.exists():
            if daemon.poll() is not None:
                fail("daemon exited early:\n" + (daemon.stdout.read() or ""))
            if remaining() < DEADLINE_SECONDS - 30:
                fail("daemon never wrote the ready file")
            time.sleep(0.05)
        url = ready.read_text().strip()
        print("daemon ready at {}".format(url))

        sys.path.insert(0, SRC)
        from repro.service.client import ServiceClient

        client = ServiceClient(url, timeout=min(60, remaining()))
        health = client.healthz()
        if health.get("status") != "ok":
            fail("healthz reported {!r}".format(health))
        print("healthz ok: {}".format(health))

        # submit (the CLI path) against the live daemon.
        submit_dir = workdir / "via-service"
        code = subprocess.call(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "submit",
                str(workdir / "in"),
                "--server",
                url,
                "--salt",
                "smoke-secret",
                "--out-dir",
                str(submit_dir),
            ],
            env=env,
            timeout=remaining(),
        )
        if code != 0:
            fail("submit exited {}".format(code))

        # batch reference run; byte-identity is the headline invariant.
        batch_dir = workdir / "via-batch"
        code = subprocess.call(
            [
                sys.executable,
                "-m",
                "repro.cli",
                str(workdir / "in"),
                "--salt",
                "smoke-secret",
                "--jobs",
                "2",
                "--out-dir",
                str(batch_dir),
            ],
            env=env,
            timeout=remaining(),
        )
        if code != 0:
            fail("batch run exited {}".format(code))
        via_service = (submit_dir / "cr1.cfg.anon").read_bytes()
        via_batch = (batch_dir / "cr1.cfg.anon").read_bytes()
        if via_service != via_batch:
            fail("service output differs from batch output")
        if b"foo.com" in via_service or b"1111" in via_service:
            fail("raw identifiers leaked into the anonymized output")
        print("submit output byte-identical to batch --jobs 2")

        metrics = client.metrics_text()
        for needle in (
            "repro_requests_total",
            'repro_rule_family_hits_total{family="asn"}',
            "repro_queue_depth",
            "repro_request_seconds_bucket",
        ):
            if needle not in metrics:
                fail("metrics missing {!r}".format(needle))
        print("metrics exposition ok ({} lines)".format(len(metrics.splitlines())))

        daemon.send_signal(signal.SIGTERM)
        out, _ = daemon.communicate(timeout=remaining())
        if daemon.returncode != 0:
            fail(
                "daemon exited {} after SIGTERM:\n{}".format(
                    daemon.returncode, out
                )
            )
        if "drained" not in out:
            fail("daemon did not report a graceful drain:\n" + out)
        print("graceful drain ok")
        print("SMOKE PASS in {:.1f}s".format(time.time() - started))
        return 0
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.communicate(timeout=10)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--chaos", action="store_true", help="run the crash-safety drill"
    )
    parser.add_argument(
        "--corpus-chaos",
        action="store_true",
        help="run the corpus fan-out drill (interrupt + resume, worker "
        "kill, ENOSPC park; needs --workers >= 2)",
    )
    parser.add_argument(
        "--hang",
        action="store_true",
        help="run the hung-worker watchdog drill (needs --workers >= 2)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="daemon worker processes (>= 2 uses the sharded drill)",
    )
    cli_args = parser.parse_args()
    if cli_args.hang:
        sys.exit(hang_drill_main(cli_args.workers))
    if cli_args.corpus_chaos:
        sys.exit(corpus_chaos_main(cli_args.workers))
    if cli_args.chaos and cli_args.workers >= 2:
        sys.exit(chaos_sharded_main(cli_args.workers))
    if cli_args.chaos:
        sys.exit(chaos_main())
    sys.exit(main(cli_args.workers))
