"""Smoke test of the benchmark: every workload runs end to end, prints every
metric BENCHMARK.json names with its unit, and traces every program layer.

    python -m pytest benchmarks/perf -q

Each workload keeps its code path (batch jobs=1 and jobs=2, one process per
network, the daemon with and without a state dir) but runs a few of the
smallest networks, so the traced run stays under a minute.
"""

import dataclasses
import json
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402

SMALL_NETWORKS = {
    "batch_large": ("net20",),
    "batch_large_j2": ("net20",),
    "batch_paper31": ("net20", "net22", "net29"),
    "service_corpus": ("net22", "net29"),
    "service_durable": ("net22", "net29"),
}


@pytest.fixture
def small_workloads(monkeypatch):
    monkeypatch.setattr(run, "BY_NAME", {
        name: dataclasses.replace(workload, networks=SMALL_NETWORKS[name])
        for name, workload in run.BY_NAME.items()
    })


def test_traced_run_prints_every_metric_and_covers_every_layer(small_workloads, capsys):
    code = run.main(["--scale", "0.02", "--reps", "1", "--trace", "1"])
    out = capsys.readouterr().out
    assert code == 0, out
    spec = json.loads(run.SPEC.read_text())
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] > 0

    sections = re.split(r"^== ", out, flags=re.M)[1:]
    assert [section.split(":")[0] for section in sections] == list(SMALL_NETWORKS)
    for section in sections:
        for metric in spec["end_to_end"]:
            assert re.search(
                r"^\s+{}\s+\S+\s+{}\b".format(re.escape(metric["name"]), re.escape(metric["unit"])),
                section, flags=re.M,
            ), (metric["name"], section[:200])

    for workload in SMALL_NETWORKS:
        for metric in spec["per_layer"]:
            printed = summary["metrics"]["{}.{}".format(workload, metric["name"])]
            assert printed["unit"] == metric["unit"]

    covered = dict.fromkeys(tracing.LAYERS, 0)
    for path in re.findall(r"^\s+trace: (\S+)$", out, flags=re.M):
        for layer, count in json.loads(Path(path).read_text())["layers"].items():
            covered[layer] += count
    assert all(covered.values()), covered
