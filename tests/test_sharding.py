"""Tests for the pre-fork sharded service tier.

Unit layer: the stable shard hash (known values, uniformity), shard-id
rejection sampling, the topology guard, and the snapshot/merge metrics
pipeline.  Integration layer: a real ``serve --workers 2`` daemon —
wrong-shard redirects, worker kill + in-place respawn reclaiming exactly
its shard's journals, and the topology refusal exit code.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.core.status import EXIT_RECOVERY_FAILED
from repro.service.metrics import (
    ServiceMetrics,
    merge_snapshots,
    render_snapshot,
)
from repro.service.sessions import SessionManager
from repro.service.sharding import (
    ShardInfo,
    TopologyError,
    check_topology,
    shard_for,
    shard_state_dir,
    write_topology,
)

SALT = "shard-test-secret"


class TestShardFor:
    def test_known_values_never_move(self):
        # Frozen forever: these assignments are part of the durable
        # contract (journals live under shard-NN by this function).
        assert shard_for("abc123def456", 2) == 0
        assert shard_for("abc123def456", 4) == 0
        assert shard_for("deadbeef0000", 4) == 2
        assert shard_for("0123456789ab", 2) == 1
        assert shard_for("0123456789ab", 4) == 3

    def test_stable_across_processes(self):
        # Python's salted hash() would fail this: a child process must
        # agree with us on every assignment.
        ids = ["%012x" % n for n in range(0, 4096, 37)]
        script = (
            "import sys, json\n"
            "from repro.service.sharding import shard_for\n"
            "ids = json.load(sys.stdin)\n"
            "json.dump([shard_for(i, 4) for i in ids], sys.stdout)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            input=json.dumps(ids),
            capture_output=True,
            text=True,
            env=dict(
                os.environ,
                PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
            ),
            check=True,
        ).stdout
        assert json.loads(out) == [shard_for(i, 4) for i in ids]

    def test_uniformity_chi_squared(self):
        # 10k session-id-shaped ids over 4 shards; chi-squared upper
        # bound 16.27 = df=3 at p=0.001.  A biased hash would starve a
        # worker of sessions and pile journals onto another.
        rng = random.Random(1234)
        ids = ["%012x" % rng.getrandbits(48) for _ in range(10000)]
        counts = Counter(shard_for(session_id, 4) for session_id in ids)
        expected = len(ids) / 4
        chi2 = sum(
            (counts[shard] - expected) ** 2 / expected for shard in range(4)
        )
        assert chi2 < 16.27, counts

    def test_single_shard_owns_everything(self):
        assert shard_for("anything", 1) == 0

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            shard_for("abc", 0)


class TestShardInfo:
    ADDRS = ("http://127.0.0.1:1", "http://127.0.0.1:2")

    def test_owns_and_address_for_agree(self):
        info = ShardInfo(0, 2, self.ADDRS)
        for session_id in ("abc123def456", "0123456789ab"):
            owner = shard_for(session_id, 2)
            assert info.owns(session_id) == (owner == 0)
            assert info.address_for(session_id) == self.ADDRS[owner]

    def test_table_and_own_address(self):
        info = ShardInfo(1, 2, self.ADDRS)
        assert info.own_address == self.ADDRS[1]
        assert info.table() == {"0": self.ADDRS[0], "1": self.ADDRS[1]}

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardInfo(2, 2, self.ADDRS)
        with pytest.raises(ValueError):
            ShardInfo(0, 2, self.ADDRS[:1])


class TestSessionIdRejectionSampling:
    def test_new_ids_land_on_own_shard(self):
        # The creating worker must own every session it mints, so the
        # keep-alive connection that created a session never redirects.
        addrs = tuple("http://127.0.0.1:{}".format(i) for i in range(4))
        for index in range(4):
            manager = SessionManager(shard=ShardInfo(index, 4, addrs))
            for _ in range(25):
                assert shard_for(manager._new_session_id(), 4) == index

    def test_unsharded_manager_takes_first_id(self):
        assert len(SessionManager()._new_session_id()) == 12


class TestTopologyGuard:
    def test_roundtrip(self, tmp_path):
        assert check_topology(tmp_path, 2) is None  # fresh dir: anything goes
        write_topology(tmp_path, 2)
        assert check_topology(tmp_path, 2) == 2

    def test_mismatch_refused(self, tmp_path):
        write_topology(tmp_path, 2)
        with pytest.raises(TopologyError, match="2-worker"):
            check_topology(tmp_path, 4)
        with pytest.raises(TopologyError):
            check_topology(tmp_path, 1)

    def test_legacy_layout_refused_for_multiworker(self, tmp_path):
        (tmp_path / "sessions" / "abc").mkdir(parents=True)
        with pytest.raises(TopologyError, match="single-process"):
            check_topology(tmp_path, 2)
        # ...but a single-process daemon may keep draining it.
        assert check_topology(tmp_path, 1) is None

    def test_corrupt_topology_refused(self, tmp_path):
        (tmp_path / "topology.json").write_text("not json")
        with pytest.raises(TopologyError, match="cannot read"):
            check_topology(tmp_path, 2)

    def test_shard_state_dir_layout(self, tmp_path):
        assert shard_state_dir(tmp_path, 0).name == "shard-00"
        assert shard_state_dir(tmp_path, 11).name == "shard-11"


class TestReuseportRequired:
    def test_workers_refused_without_so_reuseport(self, monkeypatch, capsys, tmp_path):
        import argparse
        import socket

        from repro.service import supervisor

        monkeypatch.delattr(socket, "SO_REUSEPORT")
        args = argparse.Namespace(workers=2, state_dir=str(tmp_path))
        assert supervisor.run_supervisor(args) == EXIT_RECOVERY_FAILED
        assert "needs SO_REUSEPORT" in capsys.readouterr().err
        assert not (tmp_path / "topology.json").exists()


class TestMetricsSnapshots:
    def _populated(self) -> ServiceMetrics:
        metrics = ServiceMetrics()
        metrics.register_counter("repro_widgets_total", "Widgets.")
        metrics.inc_counter("repro_widgets_total", 3)
        metrics.observe_request("anonymize", 200, 0.05)
        metrics.observe_request("anonymize", 429)
        metrics.record_rule_hits({"R99": 2})  # family "other"
        metrics.register_gauge("repro_depth", "Depth.", lambda: 7)
        return metrics

    def test_render_equals_render_snapshot(self):
        metrics = self._populated()
        assert metrics.render() == render_snapshot(metrics.snapshot())

    def test_snapshot_is_json_able_and_detached(self):
        metrics = self._populated()
        snapshot = json.loads(json.dumps(metrics.snapshot()))
        before = render_snapshot(snapshot)
        metrics.inc_counter("repro_widgets_total", 100)  # must not leak in
        assert render_snapshot(snapshot) == before

    def test_merge_sums_everything(self):
        one, two = self._populated(), self._populated()
        merged = merge_snapshots([one.snapshot(), two.snapshot()])
        text = render_snapshot(merged)
        assert "repro_widgets_total 6" in text
        assert 'repro_requests_total{code="200",endpoint="anonymize"} 2' in text
        assert 'repro_rule_family_hits_total{family="other"} 4' in text
        assert "repro_depth 14" in text  # gauges sum: total backlog
        assert 'repro_request_seconds_bucket{endpoint="anonymize",le="+Inf"} 2' in text

    def test_worker_up_rendering(self):
        text = render_snapshot(
            ServiceMetrics().snapshot(), worker_up={0: 1, 1: 0}
        )
        assert 'repro_worker_up{shard="0"} 1' in text
        assert 'repro_worker_up{shard="1"} 0' in text


# -- integration: a real pre-fork daemon --------------------------------


def _spawn(tmp_path, name, *extra):
    ready = tmp_path / (name + ".ready")
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
    )
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            "0",
            "--workers",
            "2",
            "--threads",
            "2",
            "--ready-file",
            str(ready),
            *extra,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.time() + 30
    while not ready.exists():
        if proc.poll() is not None:
            raise AssertionError(
                "{} exited {} early:\n{}".format(
                    name, proc.returncode, proc.stdout.read() or ""
                )
            )
        assert time.time() < deadline, "daemon never became ready"
        time.sleep(0.05)
    return proc, ready.read_text().strip()


def _terminate(proc) -> str:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        out, _ = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate(timeout=10)
    return out or ""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
class TestPreForkDaemon:
    def test_redirect_routing_and_respawn_reclaims_own_shard(self, tmp_path):
        from repro.service.client import RetryingServiceClient, RetryPolicy, ServiceClient

        state = tmp_path / "state"
        proc, url = _spawn(tmp_path, "daemon", "--state-dir", str(state))
        try:
            client = RetryingServiceClient(
                url,
                timeout=30,
                salt=SALT,
                policy=RetryPolicy(max_attempts=8, base_delay=0.1),
            )
            session = client.create_session(SALT)
            victim_shard = session["shard"]
            shards = client.healthz()["shards"]
            assert set(shards) == {"0", "1"}

            # Route the session through the *wrong* worker's direct
            # listener: the 307 must be followed and pinned.
            other = shards[str(1 - victim_shard)]
            wrong = ServiceClient(other, timeout=30)
            assert wrong.session(session["id"])["shard"] == victim_shard
            assert session["id"] in wrong._affinity
            wrong.close()

            # Both workers wrote their own shard dirs; topology recorded.
            result = client.anonymize(
                session["id"], "hostname cr1.foo.com\n", source="a.cfg"
            )
            assert result["status"] == "ok"
            topo = json.loads((state / "topology.json").read_text())
            assert topo["workers"] == 2
            victim_dir = shard_state_dir(state, victim_shard)
            assert (victim_dir / "sessions").is_dir()
            session_dirs = list((victim_dir / "sessions").iterdir())
            assert [d.name for d in session_dirs] == [session["id"]]

            # SIGKILL the owning worker mid-flight.  The supervisor must
            # respawn the same shard; the survivor keeps its pid; the
            # respawned worker recovers exactly its own journals and the
            # session resumes with history intact.
            probe = ServiceClient(shards[str(victim_shard)], timeout=30)
            victim_pid = probe.healthz()["pid"]
            probe.close()
            survivor = ServiceClient(shards[str(1 - victim_shard)], timeout=30)
            survivor_pid = survivor.healthz()["pid"]
            os.kill(victim_pid, signal.SIGKILL)

            deadline = time.time() + 30
            while True:
                assert time.time() < deadline, "shard never respawned"
                try:
                    again = ServiceClient(
                        shards[str(victim_shard)], timeout=5
                    )
                    health = again.healthz()
                    again.close()
                    if health["pid"] != victim_pid:
                        break
                except Exception:
                    pass
                time.sleep(0.1)
            assert health["shard"] == victim_shard
            assert health["generation"] >= 1
            assert health["recoverable_sessions"] == 1
            assert survivor.healthz()["pid"] == survivor_pid
            survivor.close()

            # Auto-resume (404 recoverable -> resume -> replay): the
            # same request now answers identically from recovered state.
            replay = client.anonymize(
                session["id"], "hostname cr1.foo.com\n", source="a.cfg"
            )
            assert replay["text"] == result["text"]
        finally:
            out = _terminate(proc)
        assert proc.returncode == 0, out
        assert "respawning" in out

    def test_topology_mismatch_refused_at_startup(self, tmp_path):
        state = tmp_path / "state"
        write_topology(state, 4)
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--workers",
                "2",
                "--state-dir",
                str(state),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == EXIT_RECOVERY_FAILED
        assert "4-worker" in proc.stderr
