#!/usr/bin/env python
"""Crash-point explorer: SIGKILL at every durability boundary, then prove
recovery.

The crash-point registry (:mod:`repro.core.crashpoints`) names every
point where the anonymizer persists state: journal appends (pre-write,
torn, pre-fsync, post-fsync), snapshot rotation, session-meta and
topology writes, the batch runner's output/manifest writes, and the
corpus client's manifest appends.  This script enumerates the registry
and, for each point, re-runs a small seeded workload with
``REPRO_CRASH_POINT=<name>`` so the process SIGKILLs itself the moment
execution reaches that boundary.  It then recovers and asserts the
crash-safety contract:

* **the point fired** — a workload that never reaches an armed point is
  a registry bug (dead instrumentation), reported as a failure;
* **no acknowledged data is lost** — recovery quarantines nothing and
  the resumed run completes;
* **torn tails are discarded, not served** — a half-written journal
  record or crash-mid-create session directory never surfaces;
* **the resumed output is byte-identical** to an uninterrupted batch
  ``--jobs 2`` run over the same corpus and salt.

Points are mapped to workloads by prefix: ``journal.*``, ``snapshot.*``,
``session.meta.*``, and ``topology.*`` run against a durable service
daemon; ``runner.*`` against the batch CLI with ``--out-dir`` and a
``--resume`` rerun; ``corpus.*`` against ``submit --corpus`` (the crash
kills the *client* mid-manifest-append; the daemon stays up).

Exits 0 when every explored point fired and every invariant held; 1
with a per-point message otherwise.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = str(REPO / "src")
sys.path.insert(0, SRC)

from repro.core.crashpoints import registered_points  # noqa: E402

SALT = "crash-explorer-secret"
POINT_DEADLINE = 90  # seconds per crash point

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

CORPUS = {"cr1.cfg": SAMPLE, "cr2.cfg": SAMPLE2, "cr3.cfg": SAMPLE3}


class PointFailure(Exception):
    """One crash point violated an invariant (message says which)."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_CRASH_POINT", None)
    env.pop("REPRO_FAULT_PLAN", None)
    return env


def _write_corpus(in_dir: Path) -> None:
    in_dir.mkdir(parents=True, exist_ok=True)
    for name, text in CORPUS.items():
        (in_dir / name).write_text(text)


def batch_reference(workdir: Path, env: dict) -> dict:
    """The uninterrupted reference: batch ``--jobs 2`` outputs by name."""
    in_dir = workdir / "ref-in"
    out_dir = workdir / "ref-out"
    _write_corpus(in_dir)
    code = subprocess.call(
        [
            sys.executable,
            "-m",
            "repro.cli",
            str(in_dir),
            "--salt",
            SALT,
            "--jobs",
            "2",
            "--out-dir",
            str(out_dir),
        ],
        env=env,
        timeout=POINT_DEADLINE,
    )
    if code != 0:
        raise SystemExit("reference batch run exited {}".format(code))
    return {
        name: (out_dir / (name + ".anon")).read_bytes() for name in CORPUS
    }


def spawn_daemon(env, workdir, name, crash_point=None, expect_death=False):
    """Start a durable single-worker daemon; wait for ready (or death)."""
    ready = workdir / (name + ".ready")
    daemon_env = dict(env)
    if crash_point is not None:
        daemon_env["REPRO_CRASH_POINT"] = crash_point
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            "0",
            "--threads",
            "2",
            "--state-dir",
            str(workdir / "state"),
            "--snapshot-every",
            "1",
            "--ready-file",
            str(ready),
        ],
        env=daemon_env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.time() + 30
    while not ready.exists():
        if proc.poll() is not None:
            if expect_death:
                return proc, None
            raise PointFailure(
                "daemon {} exited {} before ready:\n{}".format(
                    name, proc.returncode, proc.stdout.read() or ""
                )
            )
        if time.time() > deadline:
            proc.kill()
            raise PointFailure("daemon {} never became ready".format(name))
        time.sleep(0.05)
    if expect_death:
        proc.kill()
        proc.communicate(timeout=10)
        raise PointFailure("daemon became ready; the point never fired")
    return proc, ready.read_text().strip()


def _drive(client, session_id, outputs):
    """(Re)drive the corpus through a session: freeze, then each file."""
    client.freeze(session_id, CORPUS)
    for name in sorted(CORPUS):
        outputs[name] = client.anonymize(
            session_id, CORPUS[name], source=name
        )["text"].encode()


def _check_recovery(state_dir: Path):
    """Recover the state dir in-process; nothing may be quarantined."""
    from repro.service.journal import SessionStore

    store = SessionStore(state_dir, snapshot_every=1)
    summary = store.recover()
    if summary.quarantined:
        raise PointFailure(
            "recovery quarantined {}".format(sorted(summary.quarantined))
        )
    return summary


def explore_service(point: str, reference: dict, env: dict) -> str:
    """Service-path point: crash the daemon, recover, resume, compare."""
    import http.client as httplib

    from repro.service.client import (
        RetryingServiceClient,
        RetryPolicy,
        ServiceClientError,
    )

    workdir = Path(tempfile.mkdtemp(prefix="repro-crash-"))
    state_dir = workdir / "state"
    topology_point = point.startswith("topology.")
    daemon2 = None
    try:
        daemon1, url1 = spawn_daemon(
            env,
            workdir,
            "daemon1",
            crash_point=point,
            expect_death=topology_point,
        )
        session_id = None
        if not topology_point:
            policy = RetryPolicy(
                max_attempts=2, base_delay=0.05, max_delay=0.2
            )
            client1 = RetryingServiceClient(
                url1, timeout=30, salt=SALT, policy=policy
            )
            outputs: dict = {}
            fired = False
            try:
                session_id = client1.create_session(SALT)["id"]
                _drive(client1, session_id, outputs)
            except (OSError, httplib.HTTPException, ServiceClientError):
                fired = True
            finally:
                client1.close()
            if not fired and daemon1.poll() is None:
                daemon1.kill()
                daemon1.communicate(timeout=10)
                raise PointFailure(
                    "workload completed and the daemon survived; the "
                    "point never fired"
                )
        daemon1.wait(timeout=15)
        if daemon1.returncode != -signal.SIGKILL:
            raise PointFailure(
                "daemon exited {} (expected SIGKILL -9 from the armed "
                "point)".format(daemon1.returncode)
            )

        summary = _check_recovery(state_dir)
        daemon2, url2 = spawn_daemon(env, workdir, "daemon2")
        policy = RetryPolicy(max_attempts=5, base_delay=0.05, max_delay=0.5)
        client2 = RetryingServiceClient(
            url2, timeout=30, salt=SALT, policy=policy
        )
        if session_id is None or session_id not in summary.recoverable:
            # Crash-mid-create: the half-made session directory must have
            # been discarded, and a fresh session serves the corpus.
            session_id = client2.create_session(SALT)["id"]
        outputs = {}
        _drive(client2, session_id, outputs)
        client2.close()
        if outputs != reference:
            diff = [n for n in CORPUS if outputs.get(n) != reference[n]]
            raise PointFailure(
                "post-recovery outputs differ from the uninterrupted "
                "batch run: {}".format(diff)
            )
        daemon2.send_signal(signal.SIGTERM)
        out, _ = daemon2.communicate(timeout=30)
        if daemon2.returncode != 0:
            raise PointFailure(
                "recovered daemon exited {} after SIGTERM:\n{}".format(
                    daemon2.returncode, out
                )
            )
        return "killed, recovered ({}), outputs byte-identical".format(
            summary.describe()
        )
    finally:
        for proc in (locals().get("daemon1"), daemon2):
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)
        shutil.rmtree(workdir, ignore_errors=True)


def explore_runner(point: str, reference: dict, env: dict) -> str:
    """Batch-path point: kill the CLI mid-write, verify, resume."""
    workdir = Path(tempfile.mkdtemp(prefix="repro-crash-"))
    try:
        in_dir = workdir / "in"
        out_dir = workdir / "out"
        _write_corpus(in_dir)
        # --jobs 1 keeps every write in the process the crash point
        # kills; every run freezes the mappings first, so the resumed
        # rerun stays byte-identical to the --jobs 2 reference.
        base = [
            sys.executable,
            "-m",
            "repro.cli",
            str(in_dir),
            "--salt",
            SALT,
            "--jobs",
            "1",
            "--out-dir",
            str(out_dir),
        ]
        crash_env = dict(env)
        crash_env["REPRO_CRASH_POINT"] = point
        code = subprocess.call(
            base, env=crash_env, timeout=POINT_DEADLINE
        )
        if code != -signal.SIGKILL:
            raise PointFailure(
                "batch run exited {} (expected SIGKILL -9; the point "
                "never fired)".format(code)
            )
        # Fail-closed check: any output that exists must be complete and
        # correct — a crash may lose files, never tear them.
        for name in CORPUS:
            path = out_dir / (name + ".anon")
            if path.exists() and path.read_bytes() != reference[name]:
                raise PointFailure(
                    "torn output survived the crash: {}".format(path.name)
                )
        code = subprocess.call(
            base + ["--resume"], env=env, timeout=POINT_DEADLINE
        )
        if code != 0:
            raise PointFailure("resumed run exited {}".format(code))
        for name in CORPUS:
            got = (out_dir / (name + ".anon")).read_bytes()
            if got != reference[name]:
                raise PointFailure(
                    "resumed output for {} differs from the "
                    "uninterrupted run".format(name)
                )
        return "killed mid-write, no torn outputs, resume byte-identical"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def explore_corpus(point: str, reference: dict, env: dict) -> str:
    """Corpus-client point: kill submit mid-manifest-append, resume."""
    workdir = Path(tempfile.mkdtemp(prefix="repro-crash-"))
    daemon = None
    try:
        in_dir = workdir / "in"
        out_dir = workdir / "out"
        _write_corpus(in_dir)
        daemon, url = spawn_daemon(env, workdir, "daemon")
        base = [
            sys.executable,
            "-m",
            "repro.cli",
            "submit",
            "--corpus",
            str(in_dir),
            "--server",
            url,
            "--salt",
            SALT,
            "--out-dir",
            str(out_dir),
        ]
        crash_env = dict(env)
        crash_env["REPRO_CRASH_POINT"] = point
        code = subprocess.call(
            base, env=crash_env, timeout=POINT_DEADLINE
        )
        if code != -signal.SIGKILL:
            raise PointFailure(
                "submit exited {} (expected SIGKILL -9; the point never "
                "fired)".format(code)
            )
        if daemon.poll() is not None:
            raise PointFailure(
                "the daemon died with its client (exit {})".format(
                    daemon.returncode
                )
            )
        code = subprocess.call(
            base + ["--resume"], env=env, timeout=POINT_DEADLINE
        )
        if code != 0:
            raise PointFailure("resumed corpus run exited {}".format(code))
        for name in CORPUS:
            got = (out_dir / (name + ".anon")).read_bytes()
            if got != reference[name]:
                raise PointFailure(
                    "resumed corpus output for {} differs from the "
                    "uninterrupted run".format(name)
                )
        daemon.send_signal(signal.SIGTERM)
        out, _ = daemon.communicate(timeout=30)
        if daemon.returncode != 0:
            raise PointFailure(
                "daemon exited {} after SIGTERM:\n{}".format(
                    daemon.returncode, out
                )
            )
        return "client killed mid-manifest, resume byte-identical"
    finally:
        if daemon is not None and daemon.poll() is None:
            daemon.kill()
            daemon.communicate(timeout=10)
        shutil.rmtree(workdir, ignore_errors=True)


def explore(point: str, reference: dict, env: dict) -> str:
    if point.startswith("runner."):
        return explore_runner(point, reference, env)
    if point.startswith("corpus."):
        return explore_corpus(point, reference, env)
    return explore_service(point, reference, env)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the registered crash points and exit",
    )
    parser.add_argument(
        "--only",
        default=None,
        metavar="PREFIX[,PREFIX...]",
        help="explore only points matching one of these name prefixes",
    )
    args = parser.parse_args()

    points = registered_points()
    if args.list:
        width = max(len(name) for name in points)
        for name, description in sorted(points.items()):
            print("{:<{}}  {}".format(name, width, description))
        return 0
    selected = sorted(points)
    if args.only:
        prefixes = [p.strip() for p in args.only.split(",") if p.strip()]
        selected = [
            name
            for name in selected
            if any(name.startswith(prefix) for prefix in prefixes)
        ]
        if not selected:
            print(
                "error: no crash points match {!r}".format(args.only),
                file=sys.stderr,
            )
            return 1

    started = time.time()
    env = _env()
    refdir = Path(tempfile.mkdtemp(prefix="repro-crash-ref-"))
    try:
        reference = batch_reference(refdir, env)
    finally:
        shutil.rmtree(refdir, ignore_errors=True)

    failures = []
    for index, point in enumerate(selected, 1):
        label = "[{}/{}] {}".format(index, len(selected), point)
        point_started = time.time()
        try:
            detail = explore(point, reference, env)
        except PointFailure as exc:
            failures.append((point, str(exc)))
            print("{}: FAIL: {}".format(label, exc), file=sys.stderr)
            continue
        print(
            "{}: ok ({:.1f}s): {}".format(
                label, time.time() - point_started, detail
            )
        )
    elapsed = time.time() - started
    if failures:
        print(
            "CRASH EXPLORER FAIL: {}/{} point(s) violated invariants "
            "in {:.1f}s".format(len(failures), len(selected), elapsed),
            file=sys.stderr,
        )
        for point, message in failures:
            print("  {}: {}".format(point, message), file=sys.stderr)
        return 1
    print(
        "CRASH EXPLORER PASS: {} point(s) killed and recovered "
        "in {:.1f}s".format(len(selected), elapsed)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
