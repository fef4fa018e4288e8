from __future__ import annotations

import importlib.util
import json
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_summary.py"
_spec = importlib.util.spec_from_file_location("bench_summary", _SCRIPT)
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)

BENCHMARK = {
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "events_per_s", "unit": "events/s", "better": "higher", "bound": 0.25},
        {"name": "decision_p50_us", "unit": "us", "better": "lower", "bound": 0.25},
        {"name": "roc_auc", "unit": "ratio", "better": "higher", "bound": 0.15},
        {"name": "decision_p99_us", "unit": "us", "better": "lower", "bound": 0.25},
        {"name": "gated_acceptance_rate", "unit": "ratio", "better": "higher", "bound": 0.25},
    ]
}

# side, seed, failed, setup_s, events_per_s, decision_p50_us, roc_auc,
# decision_p99_us, gated_acceptance_rate
_RUNS = [
    ("parent", 1, 0, 1.0, 100_000.0, 28.0, 0.79, 15.0, 0.2),
    ("change", 1, 0, 2.0, 120_000.0, 12.0, 0.79, 10.0, 0.5),
    ("change", 2, 1, 2.0, 110_000.0, 11.0, 0.80, 20.0, 0.6),
    ("parent", 2, 0, 1.0, 110_000.0, 30.0, 0.80, 16.0, 0.4),
]


def _bench() -> dict:
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    runs = [
        {"side": side, "workload": "replay-logistic", "seed": seed,
         "result": {"correct": True, "attempted": 1000, "failed": failed,
                    "metrics": {name: {"value": v, "unit": "u"} for name, v in zip(names, values)}}}
        for side, seed, failed, *values in _RUNS
    ]
    return {"pr": 8, "workloads": ["replay-logistic"], "seeds": [1, 2], "runs": runs}


def _lines() -> dict[str, str]:
    """Each line keyed by its second word: the metric, or "failed"."""
    return {line.split()[1]: line for line in bench_summary.summarize(_bench(), BENCHMARK)}


def test_pairs_match_seeds_across_sides():
    assert bench_summary.pairs(_bench(), "replay-logistic", "decision_p50_us") == [
        (28.0, 12.0), (30.0, 11.0)]
    assert bench_summary.pairs(_bench(), "replay-tree", "decision_p50_us") == []


def test_claim_holds_when_every_pair_wins_by_more_than_the_parent_spread():
    line = _lines()["decision_p50_us"]
    assert "parent 29 [28.5-29.5], change 11.5 [11.25-11.75]" in line
    assert "won 2/2 (0 tied)" in line
    assert "worse by -60.3% (bound 25%, within)" in line
    assert line.endswith("claim holds")


def test_a_tie_counts_for_neither_side():
    line = _lines()["events_per_s"]
    assert "won 1/2 (1 tied)" in line
    assert line.endswith("claim does not hold")


def test_equal_metric_is_all_ties():
    line = _lines()["roc_auc"]
    assert "won 0/2 (2 tied), worse by +0.0% (bound 15%, within)" in line


def test_regression_beyond_bound_is_flagged():
    line = _lines()["setup_s"]
    assert "worse by +100.0% (bound 25%, OUTSIDE)" in line
    assert line.endswith("claim does not hold")


def test_spread_wider_than_the_bound_is_unresolved():
    # The change's quartiles span 5 us about a 15 us median: a third, wider
    # than the 25% bound, so an equal median shows nothing.
    line = _lines()["decision_p99_us"]
    assert "change 15 [12.5-17.5]" in line
    assert "worse by -3.2% (bound 25%, unresolved)" in line


def test_wide_spread_resolves_when_every_change_run_is_better():
    # The parent's quartiles span a third of its median, but the worst
    # change run still beats the best parent run.
    line = _lines()["gated_acceptance_rate"]
    assert "parent 0.3 [0.25-0.35]" in line
    assert "(bound 25%, within)" in line


def test_failed_operations_per_side():
    assert _lines()["failed"] == (
        "replay-logistic: failed operations parent 0/2000, change 1/2000")


def test_main_reads_the_file(tmp_path, capsys):
    path = tmp_path / "BENCH_8.json"
    path.write_text(json.dumps(_bench()))
    assert bench_summary.main([str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "replay-logistic: failed operations parent 0/2000, change 1/2000"
    assert any(line.startswith("replay-logistic decision_p50_us (us, lower is better)")
               for line in out)
