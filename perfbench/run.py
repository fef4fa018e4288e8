"""Run one benchmark workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload replay-logistic --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it imports the program from ``src/``.
With ``--trace 0`` the result holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run. ``--workload all`` runs
every workload in turn and prints one result line for each.
"""

from __future__ import annotations

import os

# One caller, one core for numpy: BLAS may start no threads of its own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import statistics
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def _percentile_us(ns, q: float) -> float:
    return float(np.percentile(np.asarray(ns, dtype=float), q)) / 1e3 if len(ns) else 0.0


def end_to_end(setup_s: list, rounds: list) -> dict:
    """Decision times are each request's median over the rounds, so a moment
    the machine gave to something else does not make a request slow."""
    per_request = np.median(np.stack([r.latencies_ns for r in rounds]), axis=0)
    quality = rounds[0].quality
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "events_per_s": (statistics.median(r.events / r.wall_s for r in rounds), "events/s"),
        "decision_p50_us": (_percentile_us(per_request, 50), "us"),
        "decision_p99_us": (_percentile_us(per_request, 99), "us"),
        "gated_acceptance_rate": (quality.gated_acceptance_rate, "ratio"),
        "accepted_recall": (quality.accepted_recall, "ratio"),
        "roc_auc": (quality.roc_auc, "ratio"),
    }


LAYERS = ("telemetry", "features", "complexity", "model", "gate", "dataset", "evaluation", "stats")


def per_layer(spans, prog, traced: list, plain: list, traced_wall_s: float) -> dict:
    """Per-layer numbers from the traced set-ups and rounds."""
    from suggestgate.features import FEATURE_NAMES

    def median_of(name: str, scale: float) -> float:
        d = spans.durations_ns(name)
        return float(np.median(d)) / scale if d.size else 0.0

    def pct_us(name: str, q: float) -> float:
        return _percentile_us(spans.durations_ns(name), q)

    dur = np.array(spans.ends, dtype=np.int64) - np.array(spans.starts, dtype=np.int64)
    batch = [(prog.rows[i], dur[i]) for i, name in enumerate(spans.names) if name == "model.predict_batch"]
    tree_fits = [dur[i] / 1e9 / prog.rows[i] * 1000 for i, name in enumerate(spans.names)
                 if name == "model.fit_tree"]
    last = traced[-1]
    lo, hi = last.spans
    round_names = np.array(spans.names[lo:hi])
    scored = [(dur[i], grammar, loc) for i, grammar, loc in prog.scored]

    def us_per_kloc(path: bool) -> float:
        picked = [(d, loc) for d, grammar, loc in scored if grammar == path]
        return (sum(d for d, _ in picked) / 1e3) / (sum(loc for _, loc in picked) / 1e3) if picked else 0.0

    stale = 0.0
    if "context_stale" in FEATURE_NAMES:
        stale = float(np.mean(last.vectors[:, list(FEATURE_NAMES).index("context_stale")]))
    self_ns = spans.self_ns_by_layer()
    study = [r.wall_s - r.replay_s for r in traced]
    metrics = {
        "telemetry.ingest_us_p50": (pct_us("telemetry.ingest", 50), "us"),
        "telemetry.events": (int(np.count_nonzero(round_names == "telemetry.ingest")), "count"),
        "telemetry.windows_closed": (last.windows_closed, "count"),
        "features.build_us_p50": (pct_us("features.build", 50), "us"),
        "features.stale_share": (stale, "ratio"),
        "model.predict_row_us_p50": (pct_us("model.predict_row", 50), "us"),
        "model.predict_row_us_p99": (pct_us("model.predict_row", 99), "us"),
        "model.predict_batch_rows_per_s": (
            sum(r for r, _ in batch) / (sum(d for _, d in batch) / 1e9) if batch else 0.0, "rows/s"),
        "model.fit_logistic_s": (median_of("model.fit_logistic", 1e9), "s"),
        "model.fit_tree_s_per_1k_rows": (float(np.median(tree_fits)) if tree_fits else 0.0, "s"),
        "model.load_ms": (median_of("model.load", 1e6), "ms"),
        "gate.should_trigger_us_p50": (pct_us("gate.should_trigger", 50), "us"),
        "gate.should_trigger_us_p99": (pct_us("gate.should_trigger", 99), "us"),
        "gate.select_threshold_ms": (median_of("gate.select_threshold", 1e6), "ms"),
        "gate.suppressed": (last.quality.suppressed, "count"),
        "gate.fail_open": (last.quality.fail_open, "count"),
        "dataset.split_ms": (median_of("dataset.split", 1e6), "ms"),
        "evaluation.metric_report_ms": (median_of("evaluation.metric_report", 1e6), "ms"),
        "evaluation.bootstrap_s": (median_of("evaluation.bootstrap", 1e9), "s"),
        "evaluation.permutation_importance_s": (median_of("evaluation.permutation_importance", 1e9), "s"),
        "offline.study_s": (statistics.median(study) if any(study) else 0.0, "s"),
        "stats.proportion_comparison_ms": (median_of("stats.proportion_comparison", 1e6), "ms"),
        "complexity.grammar_us_per_kloc": (us_per_kloc(True), "us/kLOC"),
        "complexity.heuristic_us_per_kloc": (us_per_kloc(False), "us/kLOC"),
        "complexity.grammar_share": (
            sum(1 for _, grammar, _ in scored if grammar) / len(scored) if scored else 0.0, "ratio"),
        "trace.overhead": (
            statistics.median(r.wall_s for r in traced) / statistics.median(r.wall_s for r in plain) - 1.0,
            "ratio"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (self_ns.get(layer, 0) / 1e9 / traced_wall_s, "ratio")
    return metrics


@contextmanager
def collector_paused():
    """Collect, then keep the cyclic collector out of the work that follows.

    A collection lands on whichever call crosses an allocation threshold,
    and where that falls is set by everything the process did before, the
    benchmark's own inputs and checks included. Paused, the timed work pays
    for what it does itself; its cyclic garbage is collected between phases.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from spans import Spans
    from workloads import (MAX_TRACED_PAIRS, MIN_ROUNDS, SETUP_SECONDS, SETUPS, WORKLOADS, Program,
                           Runner, make_inputs)

    OUT.mkdir(parents=True, exist_ok=True)
    runner = Runner(WORKLOADS[name], make_inputs(seed), OUT)
    # The inputs live as long as the run; frozen, the collections between
    # phases skip them.
    gc.collect()
    gc.freeze()
    plain = Program(None)
    spans = Spans() if trace else None
    traced_prog = Program(spans) if trace else None
    setup_prog = traced_prog if trace else plain

    # Untraced, cheap set-ups repeat until they add up to SETUP_SECONDS, so
    # their median is steady; a traced run keeps the spans of SETUPS set-ups.
    traced_wall = 0.0
    setup_s = []
    while len(setup_s) < SETUPS or (not trace and sum(setup_s) < SETUP_SECONDS):
        start = perf_counter()
        with collector_paused():
            setup_s.append(runner.setup(setup_prog))
        traced_wall += perf_counter() - start

    plain_rounds, traced_rounds = [], []
    measured = 0.0
    while True:
        with collector_paused():
            plain_rounds.append(runner.round(plain))
        measured += plain_rounds[-1].wall_s
        if trace:
            start = perf_counter()
            with collector_paused():
                traced_rounds.append(runner.round(traced_prog))
            traced_wall += perf_counter() - start
            measured += traced_rounds[-1].wall_s
            if measured >= seconds or len(traced_rounds) >= MAX_TRACED_PAIRS:
                break
        elif measured >= seconds and len(plain_rounds) >= MIN_ROUNDS:
            break

    # Every round replays the same log with the same gate, so it must reach
    # the same outcome; one operation per round beyond the first.
    first = plain_rounds[0].quality
    runner.checks.add([r.quality == first for r in plain_rounds[1:] + traced_rounds])

    if trace:
        metrics = per_layer(spans, traced_prog, traced_rounds, plain_rounds, traced_wall)
        spans.write(OUT / f"spans-{name}.jsonl")
    else:
        metrics = end_to_end(setup_s, plain_rounds)
    return {
        "correct": runner.checks.failed == 0,
        "attempted": runner.checks.attempted,
        "failed": runner.checks.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "suggestgate" / "__init__.py").is_file():
        print(f"perfbench: the program is missing: no {src / 'suggestgate'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"perfbench: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    all_correct = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        all_correct &= result["correct"]
        line = json.dumps(result if len(names) == 1 else {"workload": name, **result})
        with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": name, "seed": args.seed, "trace": args.trace, **result}) + "\n")
        print(line, flush=True)
    return 0 if all_correct or len(names) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
