"""Tests of the benchmark's own code: its generators, its checks and its spans.

    python3 -m pytest perfbench -q
"""

import numpy as np
import pytest

import oracle
from inputs import JAVASCRIPT, PYTHON, PYTHON_BROKEN, generate_corpus, generate_log
from spans import Spans
from suggestgate.complexity import task_complexity
from suggestgate.evaluation import roc_auc
from suggestgate.features import FEATURE_NAMES
from suggestgate.gate import TAU_GRID
from suggestgate.stats import TwoByTwo, fisher_exact
from workloads import Checks, Program, build_records

NAMES = list(FEATURE_NAMES)


def small_log(seed=7, sessions=12):
    return generate_log(np.random.SeedSequence(seed), sessions, 40)


def events_as_json(log):
    return [e.to_json_dict() for e in log.events]


@pytest.fixture(scope="module")
def log():
    return small_log()


@pytest.fixture(scope="module")
def program_vectors(log):
    records = build_records(Program(None), log, corpus=None, editor_path=False)
    return np.array([r.x for r in records])


@pytest.fixture(scope="module")
def expected(log):
    expected, mask = oracle.expected_features(log, NAMES)
    oracle.fill_session_outcomes(log, NAMES, expected, mask, np.ones(len(log.requests), dtype=bool))
    return expected, mask


# --- generators ----------------------------------------------------------


def test_event_log_is_deterministic_per_seed():
    a, b = small_log(3), small_log(3)
    assert events_as_json(a) == events_as_json(b)
    assert a.requests == b.requests
    assert events_as_json(small_log(4)) != events_as_json(a)


def test_event_log_covers_every_kind_in_session_order(log):
    from suggestgate.telemetry import TelemetryKind

    assert {e.kind for e in log.events} == set(TelemetryKind)
    last = {}
    for e in log.events:
        assert e.timestamp >= last.get(e.session_id, 0)
        last[e.session_id] = e.timestamp
    assert log.idle_gaps > 0


def test_corpus_is_deterministic_and_holds_three_kinds():
    a = generate_corpus(np.random.SeedSequence(5), 60)
    assert a == generate_corpus(np.random.SeedSequence(5), 60)
    assert {f.kind for f in a} == {PYTHON, PYTHON_BROKEN, JAVASCRIPT}


# --- feature oracle ------------------------------------------------------


def test_program_vectors_match_the_generator_tallies(program_vectors, expected):
    e, m = expected
    assert oracle.vector_rows_ok(program_vectors, e, m).all()
    assert (program_vectors[:, NAMES.index("context_stale")] == 1.0).any()


@pytest.mark.parametrize("name", ["pause_count", "undo_count", "lines_added", "total_chars_typed",
                                  "session_rejected"])
def test_a_sum_off_by_one_fails(program_vectors, expected, name):
    e, m = expected
    j = NAMES.index(name)
    row = int(np.nonzero(m[:, j] & (program_vectors[:, NAMES.index("context_stale")] == 0))[0][0])
    wrong = program_vectors.copy()
    wrong[row, j] += 1
    ok = oracle.vector_rows_ok(wrong, e, m)
    assert not ok[row] and ok.sum() == ok.size - 1


def test_a_gauge_is_checked_only_where_its_minute_saw_one(log, expected):
    e, m = expected
    j = NAMES.index("file_size")
    fresh = e[:, NAMES.index("context_stale")] == 0
    assert m[fresh, j].any() and not m[fresh, j].all()


# --- decisions, models, metrics ------------------------------------------


def test_a_flipped_decision_fails():
    p = np.array([0.1, 0.5, 0.9])
    triggered = p > 0.3
    none = np.zeros(3, dtype=bool)
    assert oracle.decisions_ok(triggered, p, 0.3, none).all()
    flipped = triggered.copy()
    flipped[1] = False
    assert list(oracle.decisions_ok(flipped, p, 0.3, none)) == [True, False, True]


def test_failing_open_fails_even_when_it_triggers():
    p = np.array([0.9])
    assert not oracle.decisions_ok(np.array([True]), p, 0.3, np.array([True]))[0]


def test_row_and_batch_must_agree():
    p = np.linspace(0.1, 0.9, 5)
    assert oracle.row_batch_ok(p, p.copy())
    assert not oracle.row_batch_ok(p, p + np.array([0, 0, 1e-9, 0, 0]))


def test_auc_matches_the_program_and_a_wrong_one_fails():
    rng = np.random.default_rng(0)
    labels = rng.random(300) < 0.3
    scores = np.round(rng.random(300) + 0.3 * labels, 2)  # ties included
    program = roc_auc(scores, labels.astype(float))
    assert oracle.auc_ok(program, scores, labels)
    assert not oracle.auc_ok(program + 1e-6, scores, labels)


def test_a_model_that_beats_the_truth_fails():
    labels = np.array([0, 0, 1, 1, 0, 1], dtype=bool)
    p_true = np.array([0.1, 0.2, 0.3, 0.9, 0.4, 0.8])  # AUC 8/9
    assert oracle.oracle_ok(p_true, labels, 8 / 9 + oracle.ORACLE_SLACK)
    assert not oracle.oracle_ok(p_true, labels, 1.0)


def test_gating_that_does_not_raise_acceptance_fails():
    assert oracle.gating_ok(0.34, 0.18)
    assert not oracle.gating_ok(0.18, 0.18)


def test_tau_is_the_largest_grid_value_meeting_the_floor():
    labels = np.array([1] * 20 + [0] * 20, dtype=float)
    scores = np.concatenate([[0.305], np.full(19, 0.5), np.linspace(0.0, 0.4, 20)])
    # One positive of twenty may fall at or below tau; at 0.50 all do.
    assert oracle.expected_tau(scores, labels, TAU_GRID, 0.95) == (0.49, True)
    assert oracle.tau_ok(0.49, True, scores, labels, TAU_GRID, 0.95)
    assert not oracle.tau_ok(0.48, True, scores, labels, TAU_GRID, 0.95)
    assert not oracle.tau_ok(0.49, False, scores, labels, TAU_GRID, 0.95)


def test_tau_fallback_must_be_flagged():
    labels = np.array([1, 1, 0, 0], dtype=float)
    scores = np.array([0.0, 0.9, 0.5, 0.1])  # half the positives sit below every grid value
    assert oracle.expected_tau(scores, labels, TAU_GRID, 0.95) == (TAU_GRID[0], False)
    assert oracle.tau_ok(TAU_GRID[0], False, scores, labels, TAU_GRID, 0.95)
    assert not oracle.tau_ok(TAU_GRID[0], True, scores, labels, TAU_GRID, 0.95)


def test_fisher_matches_the_program_and_a_wrong_p_fails():
    table = (40, 200, 35, 110)
    p = fisher_exact(TwoByTwo(*table)).p_value
    assert oracle.fisher_ok(p, *table)
    assert not oracle.fisher_ok(p * 1.01, *table)


# --- complexity ----------------------------------------------------------


def test_complexity_reports_match_the_corpus_construction():
    for source in generate_corpus(np.random.SeedSequence(11), 30):
        assert oracle.complexity_ok(task_complexity(source.text, source.lang), source)


def test_a_wrong_complexity_report_fails():
    from dataclasses import replace

    from suggestgate.complexity import ComplexityMethod

    source = next(f for f in generate_corpus(np.random.SeedSequence(11), 30) if f.kind == PYTHON)
    report = task_complexity(source.text, source.lang)
    assert not oracle.complexity_ok(replace(report, loc=report.loc + 1), source)
    assert not oracle.complexity_ok(replace(report, cyclomatic=report.cyclomatic - 1), source)
    assert not oracle.complexity_ok(replace(report, method=ComplexityMethod.HEURISTIC), source)
    assert not oracle.complexity_ok(replace(report, task_complexity=1.5), source)


# --- bookkeeping ---------------------------------------------------------


def test_checks_count_operations_and_failures():
    checks = Checks()
    checks.add(np.array([True, False, True]))
    checks.add(True)
    assert (checks.attempted, checks.failed) == (4, 1)


def test_self_time_subtracts_child_spans():
    spans = Spans()
    outer = spans.open("gate.should_trigger", request=3)
    inner = spans.open("model.predict_row")
    spans.close(inner)
    spans.close(outer)
    spans.starts[:] = [0, 10]
    spans.ends[:] = [100, 70]
    assert spans.requests == [3, 3] and spans.parents == [-1, 0]
    assert spans.self_ns_by_layer() == {"gate": 40, "model": 60}
