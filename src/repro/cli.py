"""Command-line interface: ``repro-anonymize``.

Anonymize one or more router configuration files (or a whole directory of
them as one network) with shared mapping state, print a report, and
optionally run the leak scanner over the output.

Two service subcommands ride on the same entry point:

* ``repro-anonymize serve`` — run the long-lived anonymization daemon.
* ``repro-anonymize submit`` — anonymize files through a running daemon.

Exit codes are shared with the service layer and documented in
:mod:`repro.core.status` (distinct, so CI and scripts can detect the
*kind* of dirty run).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core import Anonymizer, AnonymizerConfig
from repro.core.rules import rule_inventory
from repro.core.status import (
    EXIT_BAD_FAULT_PLAN,
    EXIT_LEAKS,
    EXIT_LEAKS_AND_QUARANTINE,
    EXIT_NO_INPUT,
    EXIT_OK,
    EXIT_QUARANTINE,
    EXIT_STATE_ERROR,
    EXIT_UNKNOWN_PLUGIN,
    exit_code_for,
)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-anonymize",
        description="Structure-preserving anonymization of router configuration data "
        "(Maltz et al., IMC 2004).",
    )
    parser.add_argument("paths", nargs="*", help="config files or directories")
    parser.add_argument(
        "--salt",
        default=None,
        help="owner secret (required to anonymize; keep it private!)",
    )
    parser.add_argument(
        "--out-dir", default=None, help="directory for anonymized outputs"
    )
    parser.add_argument(
        "--suffix", default=".anon", help="suffix for outputs next to inputs"
    )
    parser.add_argument(
        "--hash-length", type=int, default=16, help="hex chars of SHA1 kept"
    )
    parser.add_argument(
        "--regex-style",
        choices=("alternation", "mindfa"),
        default="alternation",
        help="rewrite style for ASN regexps",
    )
    parser.add_argument(
        "--no-subnet-shaping", action="store_true", help="disable subnet shaping"
    )
    parser.add_argument(
        "--no-class-preserving", action="store_true", help="disable class preservation"
    )
    parser.add_argument(
        "--keep-comments",
        action="store_true",
        help="do NOT strip comments (debugging only; comments leak identity)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="parallel rewrite workers (default 1; output is "
        "byte-identical for any N)",
    )
    parser.add_argument(
        "--snapshot-transport",
        choices=("auto", "fork", "shm", "pickle"),
        default="auto",
        help="how the frozen mapping snapshot reaches parallel workers: "
        "fork (copy-on-write, zero serialization), shm (pickled once "
        "into shared memory), pickle (legacy per-pool copy), or auto "
        "(fork where available, else shm); output is byte-identical "
        "across all of them",
    )
    parser.add_argument(
        "--chunk-files",
        type=int,
        default=0,
        metavar="K",
        help="files per parallel worker task (0 = size automatically; "
        "chunking amortizes task overhead over small files)",
    )
    # A no-op (every run freezes first); benchmarks/perf/run.py passes it.
    parser.add_argument("--two-pass", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--state-file",
        default=None,
        help="mapping-state JSON: loaded if it exists, saved after the run "
        "(keeps later uploads consistent; protect it like the salt)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip files the run manifest records as already written with "
        "an intact digest (the resumed output is byte-identical to a "
        "clean run); requires --out-dir or --manifest",
    )
    parser.add_argument(
        "--manifest",
        default=None,
        metavar="FILE",
        help="run-manifest JSON path (default: {} inside --out-dir)".format(
            "the .repro-run-manifest.json file"
        ),
    )
    parser.add_argument(
        "--scan-leaks",
        action="store_true",
        help="run the Section 6.1 leak scanner over the output",
    )
    parser.add_argument(
        "--report", action="store_true", help="print the anonymization report"
    )
    parser.add_argument(
        "--report-json",
        default=None,
        metavar="FILE",
        help="write the anonymization report (counters, rule hits, flags) "
        "as JSON",
    )
    parser.add_argument(
        "--export-model",
        default=None,
        metavar="FILE",
        help="also write a vendor-neutral JSON model of the anonymized "
        "network (the higher-level representation of the paper's "
        "footnote 1)",
    )
    parser.add_argument(
        "--plugins",
        default=None,
        metavar="FAMILIES",
        help="comma-separated recognizer plugin families to enable "
        "(default: every discovered family minus $REPRO_PLUGINS_DISABLE; "
        "out-of-tree plugins are discovered via $REPRO_PLUGINS paths)",
    )
    parser.add_argument(
        "--no-plugins",
        action="store_true",
        help="run with the builtin 28 rules only (no recognizer plugins)",
    )
    parser.add_argument(
        "--inventory",
        action="store_true",
        help="print the 28-rule inventory and exit",
    )
    return parser


def _read_config_text(path: Path):
    """Read one candidate config file defensively.

    Returns its text, or ``None`` (with a warning on stderr) for files
    that cannot be part of a config corpus: unreadable ones and binary
    blobs.  Bytes that are not valid UTF-8 decode with U+FFFD replacement
    instead of aborting the whole corpus run with a
    ``UnicodeDecodeError``.
    """
    try:
        data = path.read_bytes()
    except OSError as exc:
        print(
            "warning: skipping {} (unreadable: {})".format(
                path, type(exc).__name__
            ),
            file=sys.stderr,
        )
        return None
    if b"\x00" in data[:8192]:
        print("warning: skipping {} (binary file)".format(path), file=sys.stderr)
        return None
    return data.decode("utf-8", errors="replace")


def _collect_files(paths) -> dict:
    configs = {}
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for child in sorted(path.iterdir()):
                if child.is_file():
                    text = _read_config_text(child)
                    if text is not None:
                        configs[str(child)] = text
        elif path.is_file():
            text = _read_config_text(path)
            if text is not None:
                configs[str(path)] = text
        else:
            raise FileNotFoundError(raw)
    return configs


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in ("serve", "submit"):
        from repro.service.cli import serve_main, submit_main

        return (serve_main if argv[0] == "serve" else submit_main)(argv[1:])
    parser = build_arg_parser()
    args = parser.parse_args(argv)

    if args.inventory:
        extra_rules = []
        if not args.no_plugins:
            from repro.plugins import UnknownPluginError, resolve_active_plugins

            requested = None
            if args.plugins is not None:
                requested = tuple(
                    name.strip()
                    for name in args.plugins.split(",")
                    if name.strip()
                )
            try:
                active = resolve_active_plugins(requested)
            except UnknownPluginError as exc:
                print("error: {}".format(exc), file=sys.stderr)
                return EXIT_UNKNOWN_PLUGIN
            for plugin in active:
                extra_rules.extend(plugin.build_rules())
        print(rule_inventory(extra_rules=extra_rules))
        return 0
    if not args.paths:
        parser.error("no input files given (or use --inventory)")
    if args.salt is None:
        parser.error("--salt is required when anonymizing")

    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.chunk_files < 0:
        parser.error("--chunk-files must be >= 0")
    if args.resume and not (args.out_dir or args.manifest):
        parser.error("--resume requires --out-dir (or an explicit --manifest)")

    if args.no_plugins and args.plugins:
        parser.error("--no-plugins cannot be combined with --plugins")
    plugins = None
    if args.no_plugins:
        plugins = ()
    elif args.plugins is not None:
        plugins = tuple(
            name.strip() for name in args.plugins.split(",") if name.strip()
        )

    config = AnonymizerConfig(
        salt=args.salt.encode("utf-8"),
        hash_length=args.hash_length,
        regex_style=args.regex_style,
        subnet_shaping=not args.no_subnet_shaping,
        class_preserving=not args.no_class_preserving,
        strip_comments=not args.keep_comments,
        jobs=args.jobs,
        snapshot_transport=args.snapshot_transport,
        chunk_files=args.chunk_files,
        plugins=plugins,
    )
    from repro.core.faults import FaultPlanError
    from repro.plugins import UnknownPluginError

    try:
        anonymizer = Anonymizer(config)
    except FaultPlanError as exc:
        print(
            "error: invalid REPRO_FAULT_PLAN: {}".format(exc),
            file=sys.stderr,
        )
        return EXIT_BAD_FAULT_PLAN
    except UnknownPluginError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return EXIT_UNKNOWN_PLUGIN
    if anonymizer.fault_plan is not None:
        print(
            "WARNING: fault injection active ({}); never publish this "
            "run's output".format(anonymizer.fault_plan.describe()),
            file=sys.stderr,
        )
    if args.state_file and Path(args.state_file).exists():
        from repro.core.state import StateError, load_state

        try:
            load_state(anonymizer, args.state_file)
        except StateError as exc:
            print("error: {}".format(exc), file=sys.stderr)
            return EXIT_STATE_ERROR
        print("loaded mapping state from {}".format(args.state_file))
    configs = _collect_files(args.paths)
    if not configs:
        print("error: no readable config files found", file=sys.stderr)
        return EXIT_NO_INPUT
    anonymizer.freeze_mappings(configs)

    from repro.core.runner import (
        MANIFEST_NAME,
        RunnerError,
        resolve_out_paths,
        run_anonymization,
    )

    try:
        out_paths = resolve_out_paths(configs, args.out_dir, args.suffix)
    except RunnerError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return EXIT_STATE_ERROR

    def out_path_for(name: str) -> Path:
        return out_paths[name]

    manifest_path = args.manifest
    if manifest_path is None and args.out_dir:
        manifest_path = str(Path(args.out_dir) / MANIFEST_NAME)

    try:
        result = run_anonymization(
            anonymizer,
            configs,
            out_path_for,
            jobs=args.jobs,
            resume=args.resume,
            manifest_path=manifest_path,
        )
    except RunnerError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return EXIT_STATE_ERROR

    for name in sorted(result.outcomes):
        outcome = result.outcomes[name]
        if outcome.status == "written":
            print("wrote {}".format(outcome.out_path))
        elif outcome.status == "skipped":
            print("skipped {} (already complete)".format(outcome.out_path))
        elif outcome.status == "quarantined":
            print(
                "quarantined {} ({}): output withheld".format(
                    name, outcome.detail
                ),
                file=sys.stderr,
            )
        else:  # write-failed
            print(
                "write failed for {} ({}): output withheld".format(
                    name, outcome.detail
                ),
                file=sys.stderr,
            )
    outputs = result.outputs

    if args.state_file:
        from repro.core.state import save_state

        save_state(anonymizer, args.state_file)
        print("saved mapping state to {}".format(args.state_file))

    if args.report:
        print()
        print(anonymizer.report.summary())

    if args.report_json:
        import json

        Path(args.report_json).write_text(
            json.dumps(anonymizer.report.to_dict(), indent=2, sort_keys=True)
        )
        print("wrote report to {}".format(args.report_json))

    if args.export_model:
        from repro.configmodel import ParsedNetwork
        from repro.configmodel.export import network_to_json

        model = network_to_json(ParsedNetwork.from_configs(outputs))
        Path(args.export_model).write_text(model)
        print("wrote model to {}".format(args.export_model))

    leaks_found = False
    if args.scan_leaks:
        from repro.attacks.textual import scan_for_leaks

        leaks = scan_for_leaks(
            outputs,
            seen_asns=anonymizer.report.seen_asns,
            hashed_tokens=anonymizer.hasher.hashed_inputs.keys(),
            public_ips=anonymizer.report.seen_public_ips,
        )
        print()
        if leaks:
            leaks_found = True
            print("{} lines highlighted for human review:".format(len(leaks)))
            for leak in leaks[:50]:
                print(
                    "  {}:{} [{}={}] {}".format(
                        leak.source, leak.line_number, leak.kind, leak.value,
                        leak.line_text.strip(),
                    )
                )
        else:
            print("leak scan: no highlighted lines")

    return exit_code_for(leaks=leaks_found, dirty=result.dirty)


if __name__ == "__main__":
    sys.exit(main())
