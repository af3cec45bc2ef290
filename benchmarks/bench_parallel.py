"""E22 — parallel rewrite speedup vs worker count.

The freeze-then-rewrite pipeline makes the rewrite phase embarrassingly
parallel: after :meth:`Anonymizer.freeze_mappings` every shared map is
read-only, so files can be rewritten in any number of worker processes
with byte-identical output.  This benchmark measures end-to-end wall time
(freeze + rewrite + merge) for jobs in {1, 2, 4} on the largest network
of the bench corpus, checks the byte-identity guarantee while it is at
it, and emits a machine-readable ``results/BENCH_parallel.json``
(``results/gate/`` on a gated run, see below).

CPU topology is recorded honestly: ``cpu_count`` is what the machine
has, ``cpus_usable`` is what this process may actually schedule on
(cgroup/affinity limited containers routinely advertise more cores than
they grant).  Sweep points with more workers than usable cores are still
measured — fan-out overhead on a starved container is a real deployment
number — but flagged ``cpus_limited`` and exempt from speedup
assertions (process fan-out on one core can only add overhead).

Single-core throughput is additionally gated against the checked-in
baseline (``baselines/BENCH_parallel_baseline.json``) when
``REPRO_BENCH_BASELINE=1``: CI fails if lines/s regresses more than 20%
below the recorded floor.  The gate is opt-in because absolute
throughput on developer laptops varies far more than 20%.  A gated run
writes its ``BENCH_parallel.json`` and ``E22.txt`` under the ignored
``results/gate/``, so the committed results keep the recorded numbers.
"""

import json
import os
import sys
import time

from _tables import RESULTS_DIR, fmt, report

from repro.core import Anonymizer

JOBS_SWEEP = (1, 2, 4)
REPEATS = 3

BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "baselines", "BENCH_parallel_baseline.json"
)
#: Fail the (opt-in) regression gate below baseline * (1 - tolerance).
BASELINE_TOLERANCE = 0.20
#: Where a gated run writes its results (ignored by git).
GATE_RESULTS_DIR = os.path.join(RESULTS_DIR, "gate")


def _usable_cpus() -> int:
    """Cores this process may schedule on (affinity/cgroup-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _timed_run(configs, jobs):
    """Best-of-REPEATS wall time for a fresh freeze-then-rewrite run."""
    best = float("inf")
    outputs = None
    for _ in range(REPEATS):
        anonymizer = Anonymizer(salt=b"par-bench")
        start = time.perf_counter()
        result = anonymizer.anonymize_network(dict(configs), jobs=jobs)
        best = min(best, time.perf_counter() - start)
        outputs = result.configs
    return best, outputs


def test_parallel_speedup(dataset):
    sample = sorted(dataset, key=lambda n: -len(n.configs))[0]
    total_lines = sum(len(t.splitlines()) for t in sample.configs.values())
    cpus_usable = _usable_cpus()
    cpu_count = os.cpu_count() or 1
    cpus_limited = cpus_usable < max(JOBS_SWEEP)

    timings = {}
    baseline_outputs = None
    for jobs in JOBS_SWEEP:
        if jobs > cpus_usable:
            print(
                "warning: jobs={} exceeds the {} usable core(s); measuring "
                "anyway, but expect overhead, not speedup".format(
                    jobs, cpus_usable
                ),
                file=sys.stderr,
            )
        seconds, outputs = _timed_run(sample.configs, jobs)
        timings[jobs] = seconds
        if baseline_outputs is None:
            baseline_outputs = outputs
        else:
            # The headline guarantee, measured on the bench corpus too.
            assert outputs == baseline_outputs

    probe = Anonymizer(salt=b"par-bench")
    payload = {
        "experiment": "BENCH_parallel",
        "active_plugins": sorted(probe.active_plugin_families),
        "network": sample.name,
        "files": len(sample.configs),
        "lines": total_lines,
        "cpu_count": cpu_count,
        "cpus": cpus_usable,  # usable (affinity-aware); kept under the old key
        "cpus_limited": cpus_limited,
        "repeats": REPEATS,
        "seconds": {str(jobs): timings[jobs] for jobs in JOBS_SWEEP},
        "speedup": {
            str(jobs): timings[1] / timings[jobs] for jobs in JOBS_SWEEP
        },
        "lines_per_second": {
            str(jobs): total_lines / timings[jobs] for jobs in JOBS_SWEEP
        },
    }
    gated = os.environ.get("REPRO_BENCH_BASELINE") == "1"
    results_dir = GATE_RESULTS_DIR if gated else RESULTS_DIR
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "BENCH_parallel.json"), "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    rows = [
        ("sample", "(4.3M lines total)",
         "{} files / {} lines".format(len(sample.configs), total_lines),
         sample.name),
        ("cores (usable/total)", "",
         "{}/{}{}".format(
             cpus_usable, cpu_count, "  [cpus-limited]" if cpus_limited else ""
         ), ""),
    ]
    for jobs in JOBS_SWEEP:
        rows.append((
            "jobs={}".format(jobs), "",
            "{} s  ({}x)".format(
                fmt(timings[jobs], 2), fmt(payload["speedup"][str(jobs)], 2)
            ),
            "{} lines/s".format(fmt(total_lines / timings[jobs], 0)),
        ))
    report("E22", "parallel rewrite speedup", rows, directory=results_dir)

    if cpus_usable >= 4:
        assert payload["speedup"]["4"] >= 2.0, (
            "expected >= 2x speedup at 4 workers on a machine with {} "
            "usable cores, got {:.2f}x".format(
                cpus_usable, payload["speedup"]["4"]
            )
        )

    if gated:
        with open(BASELINE_PATH) as handle:
            baseline = json.load(handle)
        # Scale-invariant gate: compare single-core lines/s, not seconds.
        floor = baseline["lines_per_second"]["1"] * (1.0 - BASELINE_TOLERANCE)
        measured = payload["lines_per_second"]["1"]
        assert measured >= floor, (
            "single-core throughput regressed: {:.0f} lines/s is below the "
            "gate of {:.0f} (baseline {:.0f} - {:.0%} tolerance); if the "
            "slowdown is intentional, refresh {}".format(
                measured, floor, baseline["lines_per_second"]["1"],
                BASELINE_TOLERANCE, BASELINE_PATH,
            )
        )
