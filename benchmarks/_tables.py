"""Paper-vs-measured table reporting for the benchmark harness.

Each experiment calls :func:`report` with rows of
(metric, paper_value, measured_value, note).  Tables print to stdout (run
pytest with ``-s`` to see them live) and accumulate in
``benchmarks/results/`` so EXPERIMENTS.md can be regenerated from a run.
"""

from __future__ import annotations

import os
from typing import Iterable, Tuple

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

Row = Tuple[str, str, str, str]


def report(
    experiment: str, title: str, rows: Iterable[Row], directory: str = RESULTS_DIR
) -> str:
    rows = list(rows)
    width_metric = max([len(r[0]) for r in rows] + [len("metric")])
    width_paper = max([len(r[1]) for r in rows] + [len("paper")])
    width_measured = max([len(r[2]) for r in rows] + [len("measured")])
    lines = [
        "",
        "== {} — {} ==".format(experiment, title),
        "{:<{mw}}  {:>{pw}}  {:>{ew}}  {}".format(
            "metric", "paper", "measured", "note",
            mw=width_metric, pw=width_paper, ew=width_measured,
        ),
    ]
    for metric, paper, measured, note in rows:
        lines.append(
            "{:<{mw}}  {:>{pw}}  {:>{ew}}  {}".format(
                metric, paper, measured, note,
                mw=width_metric, pw=width_paper, ew=width_measured,
            )
        )
    text = "\n".join(lines)
    print(text)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, experiment + ".txt")
    with open(path, "w") as handle:
        handle.write(text.lstrip("\n") + "\n")
    return text


def fmt(value, digits: int = 1) -> str:
    if isinstance(value, float):
        return "{:.{d}f}".format(value, d=digits)
    return str(value)
