"""Engineered behavioral ratios and the fixed-order feature vector.

The feature order below is the serialization contract: every trained model
stores the list it was trained on. Prediction checks only a vector's length,
so a caller that loads a model checks the names with
``model.require_feature_contract``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .telemetry import SessionState

#: Division guard that makes every ratio total.
EPSILON = 1e-6

#: A closed window older than this (relative to the decision time) no longer
#: describes the current context; one missed window plus slack.
STALE_WINDOW_MS = 120_000

FEATURE_NAMES: tuple[str, ...] = (
    "total_chars_typed",
    "pause_count",
    "typing_efficiency",
    "pause_frequency",
    "lines_added",
    "file_size",
    "edit_density",
    "open_files",
    "undo_count",
    "quick_fix_count",
    "terminal_toggles",
    "palette_actions",
    "warnings",
    "errors",
    "breakpoints",
    "task_complexity",
    "session_accepted",
    "session_rejected",
    "acceptance_ratio",
    "total_typing_duration",
    "context_stale",
)

N_FEATURES = len(FEATURE_NAMES)


@dataclass(frozen=True)
class FeatureVector:
    """Fixed-order numeric view of a session at one point in time."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != N_FEATURES:
            raise ValueError(
                f"feature vector has {len(self.values)} values, expected {N_FEATURES}"
            )


def typing_efficiency(chars_typed: float, typing_time_s: float) -> float:
    """Characters per second of active typing."""
    return chars_typed / (typing_time_s + EPSILON)


def pause_frequency(pause_count: float, typing_time_s: float) -> float:
    """Pauses per second of active typing."""
    return pause_count / (typing_time_s + EPSILON)


def acceptance_ratio(accepted: float, rejected: float) -> float:
    """Share of session suggestions accepted so far (the momentum signal)."""
    return accepted / (accepted + rejected + EPSILON)


def edit_density(lines_added: float, file_lines: float) -> float:
    """Lines added relative to the size of the active file."""
    return lines_added / (file_lines + EPSILON)


#: The window-scoped values, ``pause_count`` to ``breakpoints``, when no
#: fresh window describes the context.
_STALE_WINDOW = (0.0,) * 14


def build_feature_vector(state: SessionState, complexity: float, at: int) -> FeatureVector:
    """Join the freshest closed window with session aggregates at time ``at``.

    Window-scoped fields come from the most recent closed window whose start
    is within 120 s of ``at``; when there is none they are zero and
    ``context_stale`` is set.
    """
    win = state.last_window
    if win is None or at - win.window_start > STALE_WINDOW_MS:
        window, stale = _STALE_WINDOW, 1.0
    else:
        window, stale = (
            float(win.pause_count),
            typing_efficiency(win.chars_typed, win.typing_time_s),
            pause_frequency(win.pause_count, win.typing_time_s),
            float(win.lines_added),
            float(win.file_lines),
            edit_density(win.lines_added, win.file_lines),
            float(win.open_files),
            float(win.undo_count),
            float(win.quick_fix_count),
            float(win.terminal_toggles),
            float(win.palette_actions),
            float(win.warnings),
            float(win.errors),
            float(win.breakpoints),
        ), 0.0

    return FeatureVector(
        values=(
            float(state.total_chars),
            *window,
            float(complexity),
            float(state.accepted_count),
            float(state.rejected_count),
            acceptance_ratio(state.accepted_count, state.rejected_count),
            float(state.total_typing_duration),
            stale,
        )
    )
