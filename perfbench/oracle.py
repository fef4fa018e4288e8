"""Correctness checks computed apart from the program.

Each check takes a program output and what the benchmark knows from its own
generators, and returns True when they agree. The feature oracle rebuilds
every checkable feature from the generator's tallies; nothing here calls the
program's feature, evaluation or statistics code.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats as scipy_stats

from inputs import PYTHON, EventLog, SourceFile

#: The feature contract's division guard and staleness limit.
EPSILON = 1e-6
STALE_MS = 120_000
WINDOW_S = 60.0

#: Relative and absolute tolerance for float features: sums of the same
#: terms in the same order, so any real fault is far larger.
FEATURE_RTOL = 1e-9
FEATURE_ATOL = 1e-9

#: Row and batch predictions of one vector must agree this closely.
ROW_BATCH_TOL = 1e-12

#: The true-probability oracle may rank the replayed requests worse than the
#: model by at most this much ROC-AUC before the inputs count as broken.
ORACLE_SLACK = 0.02

#: Every feature some check here can rebuild; ``task_complexity`` is checked
#: against the payload or the complexity report the replay used.
KNOWN_FEATURES = (
    "typing_speed", "total_chars_typed", "pause_count", "typing_efficiency", "pause_frequency",
    "lines_added", "file_size", "edit_density", "open_files", "undo_count", "quick_fix_count",
    "terminal_toggles", "palette_actions", "warnings", "errors", "breakpoints", "task_complexity",
    "session_accepted", "session_rejected", "acceptance_ratio", "total_typing_duration",
    "context_stale",
)


def expected_features(log: EventLog, names) -> tuple[np.ndarray, np.ndarray]:
    """Expected feature matrix and a mask of the entries that can be checked.

    Rows follow ``log.requests``. Gauge features are checked only when the
    window's minute saw the event that sets them. The session outcome
    columns and ``task_complexity`` are left for the caller, since they
    depend on the replay's decisions and on the complexity source.
    """
    col = {name: j for j, name in enumerate(names)}
    expected = np.zeros((len(log.requests), len(names)))
    mask = np.zeros_like(expected, dtype=bool)
    for i, req in enumerate(log.requests):
        row: dict[str, float] = {
            "total_chars_typed": float(req.total_chars),
            "total_typing_duration": req.total_typing_s,
        }
        minute = req.window_minute
        fresh = minute is not None and req.timestamp - minute <= STALE_MS
        row["context_stale"] = 0.0 if fresh else 1.0
        if fresh:
            w = log.minutes[(req.session_id, minute)]
            typing = min(w.typing_time_s, WINDOW_S)
            eff = w.chars_typed / (typing + EPSILON)
            row.update({
                "typing_speed": eff,
                "typing_efficiency": eff,
                "pause_count": float(w.pause_count),
                "pause_frequency": w.pause_count / (typing + EPSILON),
                "lines_added": float(w.lines_added),
                "undo_count": float(w.undo_count),
                "quick_fix_count": float(w.quick_fix_count),
                "terminal_toggles": float(w.terminal_toggles),
                "palette_actions": float(w.palette_actions),
            })
            if w.file_lines is not None:
                row["file_size"] = float(w.file_lines)
                row["open_files"] = float(w.open_files)
                row["edit_density"] = w.lines_added / (w.file_lines + EPSILON)
            if w.warnings is not None:
                row["warnings"] = float(w.warnings)
                row["errors"] = float(w.errors)
                row["breakpoints"] = float(w.breakpoints)
        else:
            for name in ("typing_speed", "typing_efficiency", "pause_count", "pause_frequency",
                         "lines_added", "file_size", "edit_density", "open_files", "undo_count",
                         "quick_fix_count", "terminal_toggles", "palette_actions", "warnings",
                         "errors", "breakpoints"):
                row[name] = 0.0
        for name, value in row.items():
            if name in col:
                expected[i, col[name]] = value
                mask[i, col[name]] = True
    return expected, mask


def fill_session_outcomes(log: EventLog, names, expected, mask, delivered) -> None:
    """Fill the session outcome columns from which requests were delivered.

    ``delivered[i]`` tells whether request ``i`` reached the developer; its
    outcome then counts towards the session totals of later requests, next
    to the inline suggestions the generator counted.
    """
    col = {name: j for j, name in enumerate(names)}
    acc: dict[str, int] = {}
    rej: dict[str, int] = {}
    for i, req in enumerate(log.requests):
        a = req.inline_accepted + acc.get(req.session_id, 0)
        r = req.inline_rejected + rej.get(req.session_id, 0)
        for name, value in (("session_accepted", float(a)), ("session_rejected", float(r)),
                            ("acceptance_ratio", a / (a + r + EPSILON))):
            if name in col:
                expected[i, col[name]] = value
                mask[i, col[name]] = True
        if delivered[i]:
            if req.accepted:
                acc[req.session_id] = acc.get(req.session_id, 0) + 1
            else:
                rej[req.session_id] = rej.get(req.session_id, 0) + 1


def vector_rows_ok(actual: np.ndarray, expected: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per row: every checkable entry matches the generator's tally."""
    close = np.isclose(actual, expected, rtol=FEATURE_RTOL, atol=FEATURE_ATOL)
    return np.all(close | ~mask, axis=1)


def decisions_ok(triggered: np.ndarray, p: np.ndarray, tau: float, fail_open: np.ndarray) -> np.ndarray:
    """Per decision: Trigger exactly when p > tau, and never by failing open."""
    return (triggered == (p > tau)) & ~fail_open


def row_batch_ok(row_p: np.ndarray, batch_p: np.ndarray) -> bool:
    row_p = np.asarray(row_p, dtype=float)
    batch_p = np.asarray(batch_p, dtype=float)
    return row_p.shape == batch_p.shape and bool(np.all(np.abs(row_p - batch_p) <= ROW_BATCH_TOL))


def mannwhitney_auc(scores, labels) -> float:
    """ROC-AUC as the Mann-Whitney U of the positives over n_pos * n_neg."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    pos, neg = scores[labels], scores[~labels]
    u = scipy_stats.mannwhitneyu(pos, neg, alternative="two-sided").statistic
    return float(u) / (pos.size * neg.size)


def auc_ok(program_auc: float, scores, labels) -> bool:
    return math.isclose(program_auc, mannwhitney_auc(scores, labels), rel_tol=0.0, abs_tol=1e-9)


def oracle_ok(p_true, labels, model_auc: float) -> bool:
    """The true acceptance probability ranks at least as well as the model, within slack."""
    return mannwhitney_auc(p_true, labels) >= model_auc - ORACLE_SLACK


def gating_ok(gated_rate: float, ungated_rate: float) -> bool:
    return gated_rate > ungated_rate


def expected_tau(scores, labels, grid, floor: float) -> tuple[float, bool]:
    """Largest grid value whose accepted-class recall meets the floor.

    Falls back to the smallest grid value, flagged False, when none does.
    """
    scores = np.asarray(scores, dtype=float)
    positive = np.asarray(labels, dtype=float) == 1.0
    best = None
    for tau in grid:
        recall = np.count_nonzero(positive & (scores > tau)) / np.count_nonzero(positive)
        if recall >= floor:
            best = tau
    if best is None:
        return grid[0], False
    return best, True


def tau_ok(tau: float, satisfied: bool, scores, labels, grid, floor: float) -> bool:
    want_tau, want_satisfied = expected_tau(scores, labels, grid, floor)
    return tau == want_tau and satisfied == want_satisfied


def fisher_ok(p_program: float, k1: int, n1: int, k2: int, n2: int) -> bool:
    p_scipy = scipy_stats.fisher_exact([[k1, n1 - k1], [k2, n2 - k2]]).pvalue
    return math.isclose(p_program, p_scipy, rel_tol=1e-6, abs_tol=1e-300)


def complexity_ok(report, source: SourceFile) -> bool:
    """LOC and cyclomatic count match the construction; grammar path exactly for parseable Python."""
    grammar = report.method.value == "Grammar"
    return (
        report.loc == source.loc
        and report.cyclomatic == source.cyclomatic
        and grammar == (source.kind == PYTHON)
        and 0.0 <= report.task_complexity <= 1.0
    )
