from __future__ import annotations

import pytest

from suggestgate.features import (
    EPSILON,
    FEATURE_NAMES,
    N_FEATURES,
    FeatureVector,
    acceptance_ratio,
    build_feature_vector,
    edit_density,
    pause_frequency,
    typing_efficiency,
)
from suggestgate.telemetry import SessionState, TelemetryEvent, TelemetryKind, ingest_event


class TestRatios:
    def test_typing_efficiency_basic(self):
        assert typing_efficiency(300, 60) == pytest.approx(5.0, rel=1e-6)

    def test_typing_efficiency_zero_over_zero(self):
        assert typing_efficiency(0, 0) == 0.0

    def test_typing_efficiency_epsilon_semantics(self):
        # Formula oracle: 1 / (0 + 1e-6) = 1e6.
        assert typing_efficiency(1, 0) == pytest.approx(1e6, rel=1e-9)

    def test_pause_frequency(self):
        assert pause_frequency(6, 60) == pytest.approx(0.1, rel=1e-6)
        assert pause_frequency(0, 60) == 0.0
        assert pause_frequency(3, 0) == pytest.approx(3e6, rel=1e-9)

    def test_acceptance_ratio(self):
        assert acceptance_ratio(0, 0) == 0.0
        # Study-scale counts: 426 / (426 + 1892 + eps).
        assert acceptance_ratio(426, 1892) == pytest.approx(0.1838, abs=5e-5)
        assert acceptance_ratio(5, 5) == pytest.approx(0.5, rel=1e-6)

    def test_edit_density(self):
        assert edit_density(10, 100) == pytest.approx(0.1, rel=1e-6)
        assert edit_density(0, 500) == 0.0
        assert edit_density(7, 0) == pytest.approx(7e6, rel=1e-9)

    def test_ratio_bounds(self):
        assert 0.0 <= acceptance_ratio(3, 7) < 1.0
        assert typing_efficiency(5, 2) >= 0.0
        assert pause_frequency(5, 2) >= 0.0
        assert edit_density(5, 2) >= 0.0

    @pytest.mark.parametrize("fn,args", [
        (typing_efficiency, (120, 30)),
        (pause_frequency, (4, 30)),
        (edit_density, (12, 400)),
        (acceptance_ratio, (3, 9)),
    ])
    def test_epsilon_perturbation_invariance(self, fn, args):
        # Denominators >= 1: the epsilon guard moves the ratio by less than
        # 1e-6 relative from the exact quotient.
        num, den = args
        exact = num / (num + den) if fn is acceptance_ratio else num / den
        assert fn(*args) == pytest.approx(exact, rel=1e-6)


def _typing(t: int, chars: int = 100, duration_ms: int = 20_000) -> TelemetryEvent:
    return TelemetryEvent("s1", t, TelemetryKind.TYPING_BURST,
                          {"chars_typed": chars, "duration_ms": duration_ms})


def features_of(state: SessionState, complexity: float, at: int) -> dict[str, float]:
    """The vector ``build_feature_vector`` builds, keyed by feature name."""
    return dict(zip(FEATURE_NAMES, build_feature_vector(state, complexity, at).values))


class TestFeatureVector:
    def test_fixed_order_contract(self):
        assert len(FEATURE_NAMES) == N_FEATURES == 21
        assert FEATURE_NAMES[0] == "total_chars_typed"
        assert FEATURE_NAMES[-1] == "context_stale"
        with pytest.raises(ValueError):
            FeatureVector(values=(0.0,) * 5)

    def test_fresh_session_all_stale(self):
        fv = features_of(SessionState("s1"), complexity=0.0, at=0)
        assert fv["context_stale"] == 1.0
        assert fv["typing_efficiency"] == 0.0
        assert fv["pause_count"] == 0.0
        assert all(v == v for v in fv.values())  # no NaN

    def test_single_closed_window_identity_join(self):
        state = SessionState("s1")
        ingest_event(state, _typing(1_000, chars=120, duration_ms=20_000))
        ingest_event(state, TelemetryEvent("s1", 2_000, TelemetryKind.PAUSE, {}))
        ingest_event(state, TelemetryEvent("s1", 3_000, TelemetryKind.EDIT_APPLIED, {"lines_added": 6}))
        ingest_event(state, TelemetryEvent("s1", 4_000, TelemetryKind.FILE_NAV,
                                           {"open_files": 2, "file_lines": 200}))
        ingest_event(state, _typing(61_000, chars=0, duration_ms=0))  # roll the window
        fv = features_of(state, complexity=0.4, at=65_000)
        assert fv["context_stale"] == 0.0
        assert fv["pause_count"] == 1.0
        assert fv["lines_added"] == 6.0
        assert fv["file_size"] == 200.0
        assert fv["open_files"] == 2.0
        assert fv["typing_efficiency"] == pytest.approx(120 / 20.000001, rel=1e-9)
        assert fv["edit_density"] == pytest.approx(6 / 200.000001, rel=1e-9)
        assert fv["task_complexity"] == pytest.approx(0.4)
        assert fv["total_chars_typed"] == 120.0

    def test_file_gauges_carry_into_a_minute_without_navigation(self):
        # Minute 1 has an edit but no FileNav; its vector, built in minute 2,
        # divides by the file size carried from minute 0, not by 0.
        state = SessionState("s1")
        ingest_event(state, TelemetryEvent("s1", 4_000, TelemetryKind.FILE_NAV,
                                           {"open_files": 3, "file_lines": 250}))
        ingest_event(state, TelemetryEvent("s1", 70_000, TelemetryKind.EDIT_APPLIED,
                                           {"lines_added": 5}))
        ingest_event(state, _typing(125_000))  # roll the window
        fv = features_of(state, complexity=0.0, at=125_000)
        assert fv["context_stale"] == 0.0
        assert fv["file_size"] == 250.0
        assert fv["open_files"] == 3.0
        assert fv["edit_density"] == 5 / (250 + EPSILON)

    def test_every_slot_joins_its_own_counter(self):
        # Each window counter and session total gets a distinct value, so a
        # slot that reads the wrong field, or two swapped slots, shows here.
        state = SessionState("s1")
        events = [_typing(1_000, chars=300, duration_ms=20_000)]
        events += [TelemetryEvent("s1", 2_000 + i, TelemetryKind.PAUSE, {}) for i in range(3)]
        events.append(TelemetryEvent("s1", 3_000, TelemetryKind.EDIT_APPLIED, {"lines_added": 7}))
        events.append(TelemetryEvent("s1", 4_000, TelemetryKind.FILE_NAV,
                                     {"open_files": 4, "file_lines": 400}))
        t = 5_000
        for command, times in (("Undo", 5), ("QuickFix", 6), ("TerminalToggle", 8),
                               ("PaletteAction", 9)):
            for _ in range(times):
                events.append(TelemetryEvent("s1", t, TelemetryKind.COMMAND_USE,
                                             {"command": command}))
                t += 10
        events.append(TelemetryEvent("s1", 6_000, TelemetryKind.DIAGNOSTIC,
                                     {"warnings": 11, "errors": 12, "breakpoints": 13}))
        events.append(_typing(61_000, chars=0, duration_ms=0))  # roll the window
        for event in events:
            ingest_event(state, event)
        state.accepted_count, state.rejected_count = 14, 15
        expected = {
            "total_chars_typed": 300.0,
            "pause_count": 3.0,
            "typing_efficiency": 300 / (20.0 + 1e-6),
            "pause_frequency": 3 / (20.0 + 1e-6),
            "lines_added": 7.0,
            "file_size": 400.0,
            "edit_density": 7 / (400 + 1e-6),
            "open_files": 4.0,
            "undo_count": 5.0,
            "quick_fix_count": 6.0,
            "terminal_toggles": 8.0,
            "palette_actions": 9.0,
            "warnings": 11.0,
            "errors": 12.0,
            "breakpoints": 13.0,
            "task_complexity": 0.37,
            "session_accepted": 14.0,
            "session_rejected": 15.0,
            "acceptance_ratio": 14 / (29 + 1e-6),
            "total_typing_duration": 20.0,
            "context_stale": 0.0,
        }
        assert tuple(expected) == FEATURE_NAMES
        assert len(set(expected.values())) == N_FEATURES
        assert features_of(state, complexity=0.37, at=65_000) == pytest.approx(expected, rel=1e-12)

    def test_stale_window_zeroed(self):
        # Walkthrough of the staleness rule: the window closed at t=60 s has
        # start 0; a decision 3 minutes later is beyond the 120 s horizon.
        state = SessionState("s1")
        ingest_event(state, _typing(1_000))
        ingest_event(state, _typing(61_000, chars=0, duration_ms=0))
        at = 60_000 + 180_000
        fv = features_of(state, complexity=0.0, at=at)
        assert fv["context_stale"] == 1.0
        assert fv["typing_efficiency"] == 0.0
        # Session-cumulative fields survive staleness.
        assert fv["total_chars_typed"] == 100.0

    def test_window_within_horizon_is_fresh(self):
        state = SessionState("s1")
        ingest_event(state, _typing(1_000))
        ingest_event(state, _typing(61_000, chars=0, duration_ms=0))
        fv = features_of(state, complexity=0.0, at=119_000)
        assert fv["context_stale"] == 0.0

    def test_determinism(self):
        state = SessionState("s1")
        ingest_event(state, _typing(1_000))
        ingest_event(state, _typing(61_000))
        first = build_feature_vector(state, complexity=0.2, at=70_000)
        for _ in range(3):
            assert build_feature_vector(state, complexity=0.2, at=70_000) == first

    def test_momentum_monotonicity(self):
        # With rejected count held fixed and positive, one more acceptance
        # strictly raises the acceptance ratio.
        state = SessionState("s1", accepted_count=3, rejected_count=4)
        before = features_of(state, 0.0, at=0)["acceptance_ratio"]
        state.accepted_count += 1
        after = features_of(state, 0.0, at=0)["acceptance_ratio"]
        assert after > before
