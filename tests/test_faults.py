"""Fault-injection tests: the runner's fail-closed guarantees.

Injected faults (:mod:`repro.core.faults`) prove that

* a rule that raises mid-line replaces the *whole* line with a hashed
  placeholder — the raw text never reaches the output — and the report
  records the event;
* a worker process dying mid-run quarantines only the poisoned file,
  the pool respawns once, and every other file still completes;
* outputs are written atomically (no observable half-written ``*.anon``)
  and a ``--resume`` rerun is byte-identical to a clean sequential run.
"""

import json
import multiprocessing

import pytest

from repro.cli import (
    EXIT_LEAKS,
    EXIT_OK,
    EXIT_QUARANTINE,
    EXIT_STATE_ERROR,
    main,
)
from repro.core import Anonymizer, AnonymizerConfig
from repro.core.faults import FaultInjected, FaultPlan, build_fault_plan
from repro.core.parallel import FrozenSnapshot, anonymize_files
from repro.core.runner import (
    MANIFEST_NAME,
    RunnerError,
    atomic_write_text,
    load_manifest,
    run_anonymization,
)

#: The line a rule fault replaces; its raw text must never reach output.
SECRET_LINE = "router bgp 1239"


def _corpus():
    """Four small one-network files; ``poison.cfg`` hosts injected faults."""
    return {
        "r0.cfg": (
            "hostname alpha.example.com\n"
            "router bgp 1239\n"
            " neighbor 6.1.1.1 remote-as 701\n"
        ),
        "r1.cfg": (
            "hostname beta.example.com\n"
            "interface Loopback0\n"
            " ip address 6.0.0.1 255.255.255.255\n"
        ),
        "poison.cfg": "hostname gamma.example.com\nrouter bgp 3561\n",
        "r3.cfg": "hostname delta.example.com\nrouter bgp 701\n",
    }


def _write_corpus(directory):
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in _corpus().items():
        (directory / name).write_text(text)
    return directory


class TestFaultPlanParsing:
    def test_parse_all_kinds(self):
        plan = FaultPlan.parse("rule:R10:3; worker-exit:poison; write-fail:r1")
        kinds = [spec.kind for spec in plan.specs]
        assert kinds == ["rule", "worker-exit", "write-fail"]
        assert plan.specs[0].target == "R10"
        assert plan.specs[0].nth == 3
        assert plan.specs[1].nth == 1
        assert "rule:R10:3" in plan.describe()

    def test_underscores_normalized(self):
        plan = FaultPlan.parse("worker_exit:x")
        assert plan.specs[0].kind == "worker-exit"

    @pytest.mark.parametrize(
        "bad", ["frobnicate:x", "rule:", "rule", "", "rule:R10:0"]
    )
    def test_malformed_plans_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_build_from_config(self):
        config = AnonymizerConfig(salt=b"s", fault_plan="rule:R10:1")
        plan = build_fault_plan(config)
        assert plan is not None and plan.specs[0].target == "R10"

    def test_build_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "worker-exit:poison")
        plan = build_fault_plan(AnonymizerConfig(salt=b"s"))
        assert plan is not None and plan.specs[0].kind == "worker-exit"

    def test_config_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "worker-exit:poison")
        config = AnonymizerConfig(salt=b"s", fault_plan="rule:R11:2")
        plan = build_fault_plan(config)
        assert plan.specs[0].kind == "rule"

    def test_no_plan_means_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        assert build_fault_plan(AnonymizerConfig(salt=b"s")) is None

    def test_rule_fault_fires_once(self):
        plan = FaultPlan.parse("rule:R10:2")
        plan.on_rule_hits("R10", 1)  # hit 1: below nth
        with pytest.raises(FaultInjected):
            plan.on_rule_hits("R10", 1)  # hit 2: fires
        plan.on_rule_hits("R10", 5)  # later hits pass


class TestFailClosedLines:
    def test_faulted_line_never_reaches_output(self):
        anonymizer = Anonymizer(
            AnonymizerConfig(salt=b"fc", fault_plan="rule:R10:1")
        )
        text = "hostname alpha.example.com\n{}\nrouter rip\n".format(SECRET_LINE)
        out = anonymizer.anonymize_text(text)
        assert SECRET_LINE not in out
        assert "1239" not in out
        assert "! REPRO-FAIL-CLOSED " in out
        # The rest of the file still anonymizes normally.
        assert "alpha" not in out
        assert "router rip" in out

    def test_report_records_fail_closed_event(self):
        anonymizer = Anonymizer(
            AnonymizerConfig(salt=b"fc", fault_plan="rule:R10:1")
        )
        anonymizer.anonymize_text(SECRET_LINE + "\n", source="r0.cfg")
        report = anonymizer.report
        assert report.lines_failed_closed == 1
        assert report.rule_hits.get("FAIL-CLOSED") == 1
        flags = [f for f in report.flags if f.rule_id == "FAIL-CLOSED"]
        assert len(flags) == 1
        assert flags[0].source == "r0.cfg"
        assert flags[0].line_number == 1
        # The flag message names the exception class, never the raw line.
        assert "FaultInjected" in flags[0].message
        assert "1239" not in flags[0].message

    def test_nth_hit_semantics(self):
        # nth=2: the first `router bgp` line anonymizes normally, the
        # second is replaced, the third (fault already fired) is normal.
        anonymizer = Anonymizer(
            AnonymizerConfig(salt=b"fc2", fault_plan="rule:R10:2")
        )
        text = "router bgp 1239\nrouter bgp 3561\nrouter bgp 701\n"
        out_lines = anonymizer.anonymize_text(text).splitlines()
        assert out_lines[0].startswith("router bgp ")
        assert out_lines[1].startswith("! REPRO-FAIL-CLOSED ")
        assert out_lines[2].startswith("router bgp ")
        assert anonymizer.report.lines_failed_closed == 1

    def test_placeholder_is_deterministic_and_content_free(self):
        config = AnonymizerConfig(salt=b"fc3", fault_plan="rule:R10:1")
        one = Anonymizer(config).anonymize_text(SECRET_LINE + "\n")
        two = Anonymizer(config).anonymize_text(SECRET_LINE + "\n")
        assert one == two
        # Different salt, different placeholder: the digest is salted, so
        # nobody can dictionary-attack the original line from it.
        other = Anonymizer(
            AnonymizerConfig(salt=b"other", fault_plan="rule:R10:1")
        ).anonymize_text(SECRET_LINE + "\n")
        assert other != one

    def test_fail_closed_under_parallel_run(self):
        # (a) no raw faulted-line text in any output, (b) the run
        # completes, (c) the merged report records the events.
        configs = _corpus()
        anonymizer = Anonymizer(
            AnonymizerConfig(salt=b"fcp", fault_plan="rule:R10:1")
        )
        anonymizer.freeze_mappings(dict(configs))
        outputs = anonymize_files(anonymizer, dict(configs), jobs=2)
        assert sorted(outputs) == sorted(configs)  # completed, nothing lost
        joined = "\n".join(outputs.values())
        assert SECRET_LINE not in joined
        assert "! REPRO-FAIL-CLOSED " in joined
        assert anonymizer.report.lines_failed_closed >= 1
        assert anonymizer.report.quarantined_files == {}


class TestQuarantine:
    def test_sequential_engine_error_quarantines_file(self, monkeypatch):
        real = Anonymizer.anonymize_file

        def explode(self, text, source="<config>"):
            if "poison" in source:
                raise RuntimeError("message quoting raw text: " + SECRET_LINE)
            return real(self, text, source)

        monkeypatch.setattr(Anonymizer, "anonymize_file", explode)
        configs = _corpus()
        anonymizer = Anonymizer(salt=b"sq")
        outputs = anonymize_files(anonymizer, dict(configs), jobs=1)
        assert "poison.cfg" not in outputs
        assert sorted(outputs) == sorted(set(configs) - {"poison.cfg"})
        # Reason is the class name only: exception messages may quote raw
        # config text and the report is shareable.
        assert anonymizer.report.quarantined_files == {"poison.cfg": "RuntimeError"}

    def test_worker_death_quarantines_only_poisoned_file(self):
        configs = _corpus()
        clean = Anonymizer(AnonymizerConfig(salt=b"wq"))
        clean.freeze_mappings(dict(configs))
        expected = anonymize_files(clean, dict(configs), jobs=1)

        transports = ["shm", "pickle"]
        if "fork" in multiprocessing.get_all_start_methods():
            transports.insert(0, "fork")
        for transport in transports:
            faulted = Anonymizer(
                AnonymizerConfig(salt=b"wq", fault_plan="worker-exit:poison")
            )
            faulted.freeze_mappings(dict(configs))
            outputs = anonymize_files(
                faulted, dict(configs), jobs=2, transport=transport
            )
            assert sorted(outputs) == sorted(set(configs) - {"poison.cfg"})
            assert set(faulted.report.quarantined_files) == {"poison.cfg"}
            # Every surviving file is byte-identical to the clean run: the
            # crash-and-respawn never perturbs the frozen mappings.
            for name, text in outputs.items():
                assert text == expected[name]


class TestAtomicWrites:
    def test_write_and_digest(self, tmp_path):
        path = tmp_path / "out" / "r0.cfg.anon"
        digest = atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"
        import hashlib

        assert digest == hashlib.sha256(b"hello\n").hexdigest()
        assert not list(tmp_path.rglob("*.tmp"))

    def test_injected_write_failure_leaves_no_partial_file(self, tmp_path):
        plan = FaultPlan.parse("write-fail:r0")
        path = tmp_path / "r0.cfg.anon"
        with pytest.raises(OSError):
            atomic_write_text(path, "new content\n", plan, "r0.cfg")
        assert not path.exists()
        assert not list(tmp_path.iterdir())  # tmp file cleaned up too

    def test_failed_overwrite_keeps_old_content(self, tmp_path):
        path = tmp_path / "r0.cfg.anon"
        path.write_text("old complete content\n")
        plan = FaultPlan.parse("write-fail:r0")
        with pytest.raises(OSError):
            atomic_write_text(path, "new content\n", plan, "r0.cfg")
        assert path.read_text() == "old complete content\n"

    def test_write_fault_fires_once(self, tmp_path):
        plan = FaultPlan.parse("write-fail:r0")
        path = tmp_path / "r0.cfg.anon"
        with pytest.raises(OSError):
            atomic_write_text(path, "text\n", plan, "r0.cfg")
        assert atomic_write_text(path, "text\n", plan, "r0.cfg")
        assert path.read_text() == "text\n"


class TestRunnerResume:
    def _out_path_for(self, out_dir):
        return lambda name: out_dir / (name + ".anon")

    def test_faulted_run_then_resume_matches_clean_run(self, tmp_path):
        configs = _corpus()
        out_dir = tmp_path / "out"
        manifest_path = out_dir / MANIFEST_NAME

        faulted = Anonymizer(
            AnonymizerConfig(salt=b"rr", fault_plan="worker-exit:poison")
        )
        faulted.freeze_mappings(dict(configs))
        result = run_anonymization(
            faulted,
            dict(configs),
            self._out_path_for(out_dir),
            jobs=2,
            manifest_path=manifest_path,
        )
        assert result.dirty
        assert set(result.quarantined) == {"poison.cfg"}
        assert not (out_dir / "poison.cfg.anon").exists()
        assert not list(out_dir.glob("*.tmp"))
        manifest = load_manifest(manifest_path)
        assert manifest["files"]["poison.cfg"]["status"] == "quarantined"
        assert manifest["files"]["r0.cfg"]["status"] == "written"

        # Resume without the fault: quarantined file re-runs, written
        # files are skipped, and the corpus equals a clean jobs=1 run.
        resumed = Anonymizer(AnonymizerConfig(salt=b"rr"))
        resumed.freeze_mappings(dict(configs))
        result2 = run_anonymization(
            resumed,
            dict(configs),
            self._out_path_for(out_dir),
            jobs=2,
            resume=True,
            manifest_path=manifest_path,
        )
        assert not result2.dirty
        statuses = {n: o.status for n, o in result2.outcomes.items()}
        assert statuses["poison.cfg"] == "written"
        assert all(
            status == "skipped"
            for name, status in statuses.items()
            if name != "poison.cfg"
        )

        clean = Anonymizer(AnonymizerConfig(salt=b"rr"))
        clean.freeze_mappings(dict(configs))
        expected = anonymize_files(clean, dict(configs), jobs=1)
        for name, text in expected.items():
            assert (out_dir / (name + ".anon")).read_text() == text

    def test_resume_refuses_foreign_salt(self, tmp_path):
        configs = _corpus()
        out_dir = tmp_path / "out"
        manifest_path = out_dir / MANIFEST_NAME
        first = Anonymizer(AnonymizerConfig(salt=b"one"))
        first.freeze_mappings(dict(configs))
        run_anonymization(
            first,
            dict(configs),
            self._out_path_for(out_dir),
            manifest_path=manifest_path,
        )
        other = Anonymizer(AnonymizerConfig(salt=b"two"))
        other.freeze_mappings(dict(configs))
        with pytest.raises(RunnerError, match="different salt"):
            run_anonymization(
                other,
                dict(configs),
                self._out_path_for(out_dir),
                resume=True,
                manifest_path=manifest_path,
            )

    def test_resume_rejects_corrupt_manifest(self, tmp_path):
        manifest_path = tmp_path / MANIFEST_NAME
        manifest_path.write_text("{ not json")
        anonymizer = Anonymizer(salt=b"cm")
        with pytest.raises(RunnerError, match="corrupt"):
            run_anonymization(
                anonymizer,
                _corpus(),
                self._out_path_for(tmp_path),
                resume=True,
                manifest_path=manifest_path,
            )

    def test_resume_reruns_edited_output(self, tmp_path):
        configs = _corpus()
        out_dir = tmp_path / "out"
        manifest_path = out_dir / MANIFEST_NAME
        first = Anonymizer(AnonymizerConfig(salt=b"ed"))
        first.freeze_mappings(dict(configs))
        run_anonymization(
            first,
            dict(configs),
            self._out_path_for(out_dir),
            manifest_path=manifest_path,
        )
        good = (out_dir / "r0.cfg.anon").read_text()
        (out_dir / "r0.cfg.anon").write_text("tampered\n")
        second = Anonymizer(AnonymizerConfig(salt=b"ed"))
        second.freeze_mappings(dict(configs))
        result = run_anonymization(
            second,
            dict(configs),
            self._out_path_for(out_dir),
            resume=True,
            manifest_path=manifest_path,
        )
        assert result.outcomes["r0.cfg"].status == "written"
        assert (out_dir / "r0.cfg.anon").read_text() == good


class TestCliFaultInjection:
    def test_worker_exit_quarantine_and_resume_byte_identity(
        self, tmp_path, monkeypatch, capsys
    ):
        net = _write_corpus(tmp_path / "net")
        out_dir = tmp_path / "out"
        monkeypatch.setenv("REPRO_FAULT_PLAN", "worker-exit:poison")
        code = main(
            [str(net), "--salt", "s", "--jobs", "2", "--out-dir", str(out_dir)]
        )
        captured = capsys.readouterr()
        assert code == EXIT_QUARANTINE
        assert "fault injection active" in captured.err
        assert "quarantined" in captured.err
        # No partial output for the poisoned file, no tmp droppings.
        assert not (out_dir / "poison.cfg.anon").exists()
        assert not list(out_dir.glob("*.tmp"))
        manifest = json.loads((out_dir / MANIFEST_NAME).read_text())
        poison_key = str(net / "poison.cfg")
        assert manifest["files"][poison_key]["status"] == "quarantined"

        # Resume without the fault plan completes the quarantined file...
        monkeypatch.delenv("REPRO_FAULT_PLAN")
        code = main(
            [
                str(net),
                "--salt",
                "s",
                "--jobs",
                "2",
                "--out-dir",
                str(out_dir),
                "--resume",
            ]
        )
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "skipped" in captured.out
        assert (out_dir / "poison.cfg.anon").exists()

        # ...and the resumed corpus is byte-identical to a clean
        # sequential (--jobs 1) run.
        clean_dir = tmp_path / "clean"
        assert (
            main(
                [
                    str(net),
                    "--salt",
                    "s",
                    "--jobs",
                    "1",
                    "--out-dir",
                    str(clean_dir),
                ]
            )
            == EXIT_OK
        )
        clean_files = sorted(clean_dir.glob("*.anon"))
        assert len(clean_files) == len(_corpus())
        for path in clean_files:
            assert (out_dir / path.name).read_text() == path.read_text()

    def test_write_failure_then_resume(self, tmp_path, monkeypatch, capsys):
        net = _write_corpus(tmp_path / "net")
        out_dir = tmp_path / "out"
        monkeypatch.setenv("REPRO_FAULT_PLAN", "write-fail:r1.cfg")
        code = main([str(net), "--salt", "s", "--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == EXIT_QUARANTINE
        assert "write failed" in captured.err
        assert not (out_dir / "r1.cfg.anon").exists()
        assert not list(out_dir.glob("*.tmp"))

        monkeypatch.delenv("REPRO_FAULT_PLAN")
        code = main(
            [str(net), "--salt", "s", "--out-dir", str(out_dir), "--resume"]
        )
        capsys.readouterr()
        assert code == EXIT_OK
        assert (out_dir / "r1.cfg.anon").exists()

    def test_rule_fault_acceptance(self, tmp_path, monkeypatch, capsys):
        net = _write_corpus(tmp_path / "net")
        out_dir = tmp_path / "out"
        report_path = tmp_path / "report.json"
        monkeypatch.setenv("REPRO_FAULT_PLAN", "rule:R10:1")
        code = main(
            [
                str(net),
                "--salt",
                "s",
                "--jobs",
                "2",
                "--out-dir",
                str(out_dir),
                "--report-json",
                str(report_path),
            ]
        )
        capsys.readouterr()
        # Fail-closed line replacement is not a dirty run: every file
        # completed and nothing leaked.
        assert code == EXIT_OK
        anon_texts = {
            p.name: p.read_text() for p in out_dir.glob("*.anon")
        }
        assert len(anon_texts) == len(_corpus())
        joined = "\n".join(anon_texts.values())
        assert SECRET_LINE not in joined
        assert "! REPRO-FAIL-CLOSED " in joined
        report = json.loads(report_path.read_text())
        assert report["lines_failed_closed"] >= 1
        assert report["quarantined_files"] == {}
        flags = [f for f in report["flags"] if f["rule_id"] == "FAIL-CLOSED"]
        assert flags and all("1239" not in f["message"] for f in flags)


class TestCliExitCodes:
    def test_leak_scan_highlight_exits_nonzero(self, tmp_path, capsys):
        config = tmp_path / "r.cfg"
        # 1239 is seen as an ASN (router bgp) and also survives in a
        # numeric context no rule covers (a prefix-list sequence number),
        # which is exactly what the Section 6.1 scanner highlights.
        config.write_text(
            "router bgp 1239\n"
            "ip prefix-list CUST seq 1239 permit 6.0.0.0/8\n"
        )
        code = main([str(config), "--salt", "s", "--scan-leaks",
                     "--out-dir", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == EXIT_LEAKS
        assert "highlighted for human review" in captured.out

    def test_clean_run_exits_zero(self, tmp_path, capsys):
        config = tmp_path / "r.cfg"
        config.write_text("router bgp 1239\n")
        assert (
            main([str(config), "--salt", "s", "--scan-leaks",
                  "--out-dir", str(tmp_path / "out")])
            == EXIT_OK
        )

    def test_corrupt_state_file_exits_with_one_line_error(
        self, tmp_path, capsys
    ):
        config = tmp_path / "r.cfg"
        config.write_text("router bgp 1239\n")
        state = tmp_path / "state.json"
        state.write_text('{"format_version": 1, "truncated...')
        code = main(
            [str(config), "--salt", "s", "--state-file", str(state)]
        )
        captured = capsys.readouterr()
        assert code == EXIT_STATE_ERROR
        assert "error:" in captured.err
        assert str(state) in captured.err

    def test_binary_and_unreadable_inputs_skipped(self, tmp_path, capsys):
        net = tmp_path / "net"
        net.mkdir()
        (net / "good.cfg").write_text("router bgp 1239\n")
        (net / "blob.bin").write_bytes(b"\x00\x01\x02binary")
        (net / "latin1.cfg").write_bytes(b"hostname caf\xe9\n")  # not UTF-8
        out_dir = tmp_path / "out"
        code = main([str(net), "--salt", "s", "--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "skipping" in captured.err and "binary" in captured.err
        assert (out_dir / "good.cfg.anon").exists()
        # Undecodable bytes are replaced, not fatal.
        assert (out_dir / "latin1.cfg.anon").exists()
        assert not (out_dir / "blob.bin.anon").exists()

    def test_all_inputs_unreadable_is_an_error(self, tmp_path, capsys):
        net = tmp_path / "net"
        net.mkdir()
        (net / "blob.bin").write_bytes(b"\x00\x00\x00")
        code = main([str(net), "--salt", "s", "--out-dir", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 1
        assert "no readable config files" in captured.err

    def test_resume_requires_manifest_location(self, tmp_path):
        config = tmp_path / "r.cfg"
        config.write_text("router bgp 1239\n")
        with pytest.raises(SystemExit):
            main([str(config), "--salt", "s", "--resume"])


class TestSnapshotFaultPropagation:
    def test_fault_plan_travels_in_snapshot_config(self):
        anonymizer = Anonymizer(
            AnonymizerConfig(salt=b"sp", fault_plan="worker-exit:poison")
        )
        anonymizer.freeze_mappings(_corpus())
        restored = FrozenSnapshot.capture(anonymizer).restore()
        assert restored.fault_plan is not None
        assert restored.fault_plan.should_kill_worker("a/poison.cfg")
        assert not restored.fault_plan.should_kill_worker("a/r0.cfg")
