"""Summarize a BENCH_<pr>.json file: parent against change, per workload and metric.

    python3 scripts/bench_summary.py BENCH_8.json

For every workload in the file and every end-to-end metric that
``BENCHMARK.json`` declares, one line gives each side's median and
quartiles, the pairs the change won out of the pairs run (a pair is one
seed run on both sides; a tie counts for neither side) and how many tied,
how much worse the change's median is than the parent's against the
metric's bound, and
whether a gain may be claimed: the change wins at least nine tenths of the
pairs and the medians differ, in the better direction, by more than the
distance between the parent's quartiles. A line per workload before them
counts the failed operations of each side.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _fmt(value: float) -> str:
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def pairs(bench: dict, workload: str, metric: str) -> list[tuple[float, float]]:
    """(parent, change) values of ``metric`` for each seed run on both sides."""
    values: dict[int, dict[str, float]] = {}
    for run in bench["runs"]:
        if run["workload"] == workload and metric in run["result"]["metrics"]:
            values.setdefault(run["seed"], {})[run["side"]] = run["result"]["metrics"][metric]["value"]
    return [(v["parent"], v["change"]) for _, v in sorted(values.items())
            if "parent" in v and "change" in v]


def metric_line(workload: str, metric: dict, seed_pairs: list[tuple[float, float]]) -> str:
    """One workload × metric line; ``metric`` is its entry in BENCHMARK.json."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    parent = np.array([p for p, _ in seed_pairs])
    change = np.array([c for _, c in seed_pairs])
    p25, p50, p75 = np.percentile(parent, [25, 50, 75])
    c25, c50, c75 = np.percentile(change, [25, 50, 75])
    won = int(np.sum(sign * (parent - change) > 0))
    tied = int(np.sum(parent == change))
    gain = sign * (p50 - c50)
    claim = won >= 0.9 * len(seed_pairs) and gain > p75 - p25
    worse = -gain / abs(p50) if p50 else 0.0
    return (
        f"{workload} {metric['name']} ({metric['unit']}, {metric['better']} is better): "
        f"parent {_fmt(p50)} [{_fmt(p25)}-{_fmt(p75)}], change {_fmt(c50)} [{_fmt(c25)}-{_fmt(c75)}], "
        f"won {won}/{len(seed_pairs)} ({tied} tied), worse by {worse:+.1%} (bound {metric['bound']:.0%}, "
        f"{'within' if worse <= metric['bound'] else 'OUTSIDE'}), "
        f"claim {'holds' if claim else 'does not hold'}"
    )


def failures_line(bench: dict, workload: str) -> str:
    counts = {"parent": [0, 0], "change": [0, 0]}
    for run in bench["runs"]:
        if run["workload"] == workload:
            counts[run["side"]][0] += run["result"]["failed"]
            counts[run["side"]][1] += run["result"]["attempted"]
    return (f"{workload}: failed operations parent {counts['parent'][0]}/{counts['parent'][1]}, "
            f"change {counts['change'][0]}/{counts['change'][1]}")


def summarize(bench: dict, benchmark: dict) -> list[str]:
    lines = []
    for workload in bench["workloads"]:
        lines.append(failures_line(bench, workload))
        for metric in benchmark["end_to_end"]:
            seed_pairs = pairs(bench, workload, metric["name"])
            if seed_pairs:
                lines.append(metric_line(workload, metric, seed_pairs))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench", type=Path, help="a BENCH_<pr>.json written by bench_row.py")
    args = parser.parse_args(argv)
    bench = json.loads(args.bench.read_text())
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("\n".join(summarize(bench, benchmark)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
