"""End-to-end tests of the repro-anonymize command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main


@pytest.fixture
def config_file(tmp_path, figure1_text):
    path = tmp_path / "cr1.cfg"
    path.write_text(figure1_text)
    return path


class TestCli:
    def test_anonymize_single_file(self, config_file, capsys):
        assert main([str(config_file), "--salt", "s3cret"]) == 0
        output = config_file.with_name("cr1.cfg.anon")
        assert output.exists()
        text = output.read_text()
        assert "foo.com" not in text
        assert "router bgp 1111" not in text
        captured = capsys.readouterr()
        assert "wrote" in captured.out

    def test_out_dir(self, config_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(
            [str(config_file), "--salt", "s", "--out-dir", str(out_dir)]
        ) == 0
        assert (out_dir / "cr1.cfg.anon").exists()

    def test_directory_input(self, tmp_path, figure1_text):
        net_dir = tmp_path / "net"
        net_dir.mkdir()
        (net_dir / "a.cfg").write_text(figure1_text)
        (net_dir / "b.cfg").write_text("router bgp 1111\n")
        out_dir = tmp_path / "out"
        assert main([str(net_dir), "--salt", "s", "--out-dir", str(out_dir)]) == 0
        a = (out_dir / "a.cfg.anon").read_text()
        b = (out_dir / "b.cfg.anon").read_text()
        # Shared mapping state: the same ASN maps identically in both files.
        asn_a = [l for l in a.splitlines() if l.startswith("router bgp")][0]
        asn_b = [l for l in b.splitlines() if l.startswith("router bgp")][0]
        assert asn_a == asn_b

    def test_report_flag(self, config_file, capsys):
        main([str(config_file), "--salt", "s", "--report"])
        assert "tokens:" in capsys.readouterr().out

    def test_scan_leaks_flag(self, config_file, capsys):
        main([str(config_file), "--salt", "s", "--scan-leaks"])
        assert "leak scan: no highlighted lines" in capsys.readouterr().out

    def test_inventory(self, capsys):
        assert main(["--inventory"]) == 0
        out = capsys.readouterr().out
        assert "R1 " in out or "R1\t" in out or "R1" in out
        assert "R28" in out

    def test_salt_required(self, config_file):
        with pytest.raises(SystemExit):
            main([str(config_file)])

    def test_missing_file_errors(self):
        with pytest.raises(FileNotFoundError):
            main(["/does/not/exist.cfg", "--salt", "s"])

    def test_mindfa_style(self, config_file):
        assert main(
            [str(config_file), "--salt", "s", "--regex-style", "mindfa"]
        ) == 0

    def test_keep_comments(self, config_file):
        main([str(config_file), "--salt", "s", "--keep-comments"])
        text = config_file.with_name("cr1.cfg.anon").read_text()
        assert "description" in text


class TestCliStateFile:
    def test_state_round_trip(self, tmp_path, figure1_text, capsys):
        config = tmp_path / "r1.cfg"
        config.write_text(figure1_text)
        state = tmp_path / "state.json"
        main([str(config), "--salt", "s", "--state-file", str(state),
              "--out-dir", str(tmp_path / "a")])
        first = (tmp_path / "a" / "r1.cfg.anon").read_text()
        assert state.exists()
        # Second run in a fresh process-equivalent must be identical.
        main([str(config), "--salt", "s", "--state-file", str(state),
              "--out-dir", str(tmp_path / "b")])
        second = (tmp_path / "b" / "r1.cfg.anon").read_text()
        assert first == second
        assert "loaded mapping state" in capsys.readouterr().out


class TestCliExportModel:
    def test_export_model(self, tmp_path, figure1_text):
        import json

        config = tmp_path / "r1.cfg"
        config.write_text(figure1_text)
        model_path = tmp_path / "model.json"
        main([str(config), "--salt", "s", "--out-dir", str(tmp_path / "o"),
              "--export-model", str(model_path)])
        model = json.loads(model_path.read_text())
        assert model["format_version"] == 1
        router = next(iter(model["routers"].values()))
        assert router["bgp"] is not None
        # The exported model is of the ANONYMIZED network.
        assert router["bgp"]["asn"] != 1111


class TestGenerateCli:
    def test_generate_single_network(self, tmp_path, capsys):
        from repro.genconfigs import main as generate_main

        out = tmp_path / "net"
        assert generate_main([str(out), "--seed", "3", "--pops", "2"]) == 0
        files = list(out.glob("*.cfg"))
        assert files
        assert "hostname" in files[0].read_text()
        assert "wrote" in capsys.readouterr().out

    def test_generate_then_anonymize_round_trip(self, tmp_path):
        from repro.genconfigs import main as generate_main

        out = tmp_path / "net"
        generate_main([str(out), "--seed", "5", "--pops", "2"])
        anon_dir = tmp_path / "anon"
        assert main([str(out), "--salt", "s", "--out-dir", str(anon_dir)]) == 0
        assert list(anon_dir.glob("*.anon"))

    def test_generate_junos(self, tmp_path):
        from repro.genconfigs import main as generate_main

        out = tmp_path / "jnet"
        generate_main([str(out), "--seed", "7", "--pops", "2",
                       "--junos-fraction", "1.0"])
        text = next(out.glob("*.cfg")).read_text()
        assert "system {" in text

    def test_generate_paper_corpus_scaled(self, tmp_path, capsys):
        from repro.genconfigs import main as generate_main

        out = tmp_path / "corpus"
        assert generate_main([str(out), "--paper-corpus", "--scale", "0.02"]) == 0
        subdirs = [p for p in out.iterdir() if p.is_dir()]
        assert len(subdirs) == 31
        assert "31 networks" in capsys.readouterr().out


class TestReportJson:
    def test_report_json_written(self, tmp_path, figure1_text):
        import json

        config = tmp_path / "r1.cfg"
        config.write_text(figure1_text)
        report_path = tmp_path / "report.json"
        main([str(config), "--salt", "s", "--out-dir", str(tmp_path / "o"),
              "--report-json", str(report_path)])
        report = json.loads(report_path.read_text())
        assert report["asns_mapped"] >= 2
        assert report["banners_removed"] == 1
        assert "R10" in report["rule_hits"]
        # Raw privileged values never appear in the machine report.
        assert "seen_asns" not in report
        assert "1111" not in json.dumps(report["rule_hits"])


class TestOutPathCollision:
    def test_duplicate_basenames_mirror_relative_paths(self, tmp_path, capsys):
        """siteA/rtr1.conf and siteB/rtr1.conf must not overwrite each
        other under --out-dir (they used to collapse onto one output)."""
        for site in ("siteA", "siteB"):
            site_dir = tmp_path / site
            site_dir.mkdir()
            (site_dir / "rtr1.conf").write_text(
                "hostname rtr1.{}.foo.com\nrouter bgp 1111\n".format(site)
            )
        out_dir = tmp_path / "out"
        assert main(
            [
                str(tmp_path / "siteA"),
                str(tmp_path / "siteB"),
                "--salt",
                "s",
                "--out-dir",
                str(out_dir),
            ]
        ) == 0
        assert (out_dir / "siteA" / "rtr1.conf.anon").is_file()
        assert (out_dir / "siteB" / "rtr1.conf.anon").is_file()
        site_a = (out_dir / "siteA" / "rtr1.conf.anon").read_text()
        site_b = (out_dir / "siteB" / "rtr1.conf.anon").read_text()
        assert site_a != site_b  # distinct inputs kept distinct outputs

    def test_unique_basenames_stay_flat(self, tmp_path, figure1_text):
        (tmp_path / "a.cfg").write_text(figure1_text)
        (tmp_path / "b.cfg").write_text("router bgp 1111\n")
        out_dir = tmp_path / "out"
        assert main(
            [
                str(tmp_path / "a.cfg"),
                str(tmp_path / "b.cfg"),
                "--salt",
                "s",
                "--out-dir",
                str(out_dir),
            ]
        ) == 0
        assert (out_dir / "a.cfg.anon").is_file()
        assert (out_dir / "b.cfg.anon").is_file()

    def test_resolve_out_paths_refuses_true_collisions(self, tmp_path):
        from repro.core.runner import RunnerError, resolve_out_paths

        (tmp_path / "rtr1.conf").write_text("x\n")
        (tmp_path / "siteA").mkdir()
        name = str(tmp_path / "rtr1.conf")
        alias = str(tmp_path / "siteA" / ".." / "rtr1.conf")  # same file
        with pytest.raises(RunnerError):
            resolve_out_paths([name, alias], str(tmp_path / "out"), ".anon")


class TestExitCodes:
    def test_no_readable_inputs_exit_code(self, tmp_path, capsys):
        """An input set with nothing anonymizable exits EXIT_NO_INPUT, not
        a bare 1-that-means-nothing."""
        from repro.core.status import EXIT_NO_INPUT

        empty = tmp_path / "net"
        empty.mkdir()
        (empty / "image.bin").write_bytes(b"\x00\x01\x02")
        assert main([str(empty), "--salt", "s"]) == EXIT_NO_INPUT
        assert "no readable config files" in capsys.readouterr().err

    def test_cli_reexports_shared_exit_codes(self):
        """CLI constants are the shared module's constants (one source of
        truth for CLI and service status mapping)."""
        from repro import cli
        from repro.core import status

        assert cli.EXIT_OK is status.EXIT_OK
        assert cli.EXIT_LEAKS == status.EXIT_LEAKS == 3
        assert cli.EXIT_QUARANTINE == status.EXIT_QUARANTINE == 4
        assert (
            cli.EXIT_LEAKS_AND_QUARANTINE
            == status.EXIT_LEAKS_AND_QUARANTINE
            == 5
        )
        assert cli.EXIT_STATE_ERROR == status.EXIT_STATE_ERROR == 6
        assert status.EXIT_NO_INPUT == 1
        assert status.EXIT_SERVICE_ERROR == 7
        assert status.exit_code_for() == status.EXIT_OK
        assert status.exit_code_for(leaks=True) == status.EXIT_LEAKS
        assert status.exit_code_for(dirty=True) == status.EXIT_QUARANTINE
        assert (
            status.exit_code_for(leaks=True, dirty=True)
            == status.EXIT_LEAKS_AND_QUARANTINE
        )


class TestCollectFiles:
    def test_binary_file_skipped_with_warning(self, tmp_path, capsys):
        net = tmp_path / "net"
        net.mkdir()
        (net / "good.cfg").write_text("router bgp 701\n")
        (net / "image.bin").write_bytes(b"\x89PNG\x00\x1a\x0b")
        out_dir = tmp_path / "out"
        assert main([str(net), "--salt", "s", "--out-dir", str(out_dir)]) == 0
        captured = capsys.readouterr()
        assert "skipping" in captured.err and "image.bin" in captured.err
        assert (out_dir / "good.cfg.anon").exists()
        assert not (out_dir / "image.bin.anon").exists()

    def test_non_utf8_text_decodes_with_replacement(self, tmp_path, capsys):
        config = tmp_path / "latin1.cfg"
        config.write_bytes(b"hostname caf\xe9.example.com\nrouter bgp 701\n")
        out_dir = tmp_path / "out"
        assert main([str(config), "--salt", "s", "--out-dir", str(out_dir)]) == 0
        out = (out_dir / "latin1.cfg.anon").read_text()
        assert "router bgp" in out  # run completed despite bad bytes


_FOOTPRINT_SCRIPT = """
import json, sys
import repro.cli

def snapshot():
    from repro.core import regexlang

    return {
        "configmodel": "repro.configmodel" in sys.modules,
        "attacks": "repro.attacks" in sys.modules,
        "universe": regexlang._universe.cache_info().currsize,
    }

loaded = "repro.core.regexlang" in sys.modules
steps = {"import": dict(snapshot(), regexlang=loaded)}
from repro.core import regexlang
regexlang.rewrite_aspath_regex("_701_", lambda n: n)
steps["literal"] = snapshot()
regexlang.rewrite_aspath_regex("_70[0-9]_", lambda n: n)
steps["enumerated"] = snapshot()
print(json.dumps(steps))
"""


class TestImportFootprint:
    """What ``import repro.cli`` loads: set-up a batch run pays every time."""

    def test_batch_imports_only_what_it_uses(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _FOOTPRINT_SCRIPT],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        steps = json.loads(proc.stdout)
        # The leak scanner and the config model load only on demand
        # (--scan-leaks, --export-model).
        assert not steps["import"]["configmodel"]
        assert not steps["import"]["attacks"]
        # Every benchmark network has an AS-path regexp, so the regexp
        # machinery is imported up front, not inside the timed rewrite.
        assert steps["import"]["regexlang"]
        # The 65,536-string ASN universe is built only when a pattern
        # needs brute-force enumeration; digit literals never do.
        assert steps["import"]["universe"] == 0
        assert steps["literal"]["universe"] == 0
        assert steps["enumerated"]["universe"] == 1
        assert not steps["enumerated"]["configmodel"]
