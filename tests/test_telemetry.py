from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suggestgate.errors import PendingLabel, RejectOutOfOrder, SchemaError
from suggestgate.telemetry import (
    OUT_OF_ORDER_TOLERANCE_MS,
    Label,
    SessionState,
    TelemetryEvent,
    TelemetryKind,
    ingest_event,
    label_suggestion,
    parse_event_line,
    read_jsonl,
    record_outcome,
    window_start_for,
    write_jsonl,
)


def ev(kind: TelemetryKind, t: int, session: str = "s1", **payload) -> TelemetryEvent:
    return TelemetryEvent(session_id=session, timestamp=t, kind=kind, payload=payload)


def typing(t: int, chars: int = 10, duration_ms: int = 2000, session: str = "s1"):
    return ev(TelemetryKind.TYPING_BURST, t, session, chars_typed=chars, duration_ms=duration_ms)


def collect_window(state: SessionState, windows: list) -> None:
    """Append the state's latest closed window if it is new since the last call."""
    latest = state.latest_window()
    if latest is not None and (not windows or latest is not windows[-1]):
        windows.append(latest)


class TestWindowing:
    def test_typing_burst_into_empty_window(self):
        state = SessionState("s1")
        ingest_event(state, typing(1_000, chars=120, duration_ms=20_000))
        assert state.open_window.chars_typed == 120
        assert state.open_window.typing_time_s == pytest.approx(20.0)

    def test_two_pauses_accumulate(self):
        state = SessionState("s1")
        ingest_event(state, ev(TelemetryKind.PAUSE, 1_000))
        ingest_event(state, ev(TelemetryKind.PAUSE, 2_000))
        assert state.open_window.pause_count == 2

    def test_minute_boundary_closes_window(self):
        # Oracle: bucket = floor(t / 60 s); an event at 61 s closes [0, 60)
        # and opens [60, 120).
        state = SessionState("s1")
        ingest_event(state, typing(5_000))
        ingest_event(state, typing(61_000))
        closed = state.latest_window()
        assert closed.window_start == 0
        assert closed.duration_s == 60
        assert state.open_window.window_start == 60_000

    def test_partition_matches_floor_oracle(self):
        # Every event lands in the window floor(t/60s); summed chars across
        # closed+open windows equal session total.
        times = [0, 59_999, 60_000, 125_000, 125_001, 240_000, 240_100]
        state = SessionState("s1")
        windows: list = []
        for t in times:
            ingest_event(state, typing(t, chars=7))
            collect_window(state, windows)
        windows.append(state.open_window.close())
        expected_buckets = sorted({window_start_for(t) for t in times})
        assert [w.window_start for w in windows] == expected_buckets
        counted = {w.window_start: w.chars_typed for w in windows}
        for t in times:
            assert counted[window_start_for(t)] > 0
        assert sum(w.chars_typed for w in windows) == state.total_chars == 7 * len(times)

    def test_typing_time_clamped_to_window(self):
        state = SessionState("s1")
        ingest_event(state, typing(0, duration_ms=90_000))
        ingest_event(state, typing(61_000))
        assert state.latest_window().typing_time_s == 60.0

    def test_gauges_and_counters(self):
        state = SessionState("s1")
        ingest_event(state, ev(TelemetryKind.FILE_NAV, 100, open_files=4, file_lines=320))
        ingest_event(state, ev(TelemetryKind.DIAGNOSTIC, 200, warnings=3, errors=1, breakpoints=2))
        ingest_event(state, ev(TelemetryKind.COMMAND_USE, 300, command="Undo"))
        ingest_event(state, ev(TelemetryKind.COMMAND_USE, 400, command="QuickFix"))
        ingest_event(state, ev(TelemetryKind.COMMAND_USE, 500, command="TerminalToggle"))
        ingest_event(state, ev(TelemetryKind.COMMAND_USE, 600, command="Paste"))
        ingest_event(state, ev(TelemetryKind.EDIT_APPLIED, 700, lines_added=5))
        win = state.open_window
        assert (win.open_files, win.file_lines) == (4, 320)
        assert (win.warnings, win.errors, win.breakpoints) == (3, 1, 2)
        assert (win.undo_count, win.quick_fix_count, win.terminal_toggles) == (1, 1, 1)
        assert win.palette_actions == 1
        assert win.lines_added == 5
        assert win.nav_events == 1

    def test_out_of_order_within_tolerance_accepted(self):
        state = SessionState("s1")
        ingest_event(state, typing(10_000))
        ingest_event(state, typing(6_000))  # 4 s late, tolerated
        assert state.last_activity == 10_000

    def test_out_of_order_beyond_tolerance_rejected(self):
        state = SessionState("s1")
        ingest_event(state, typing(20_000))
        with pytest.raises(RejectOutOfOrder):
            ingest_event(state, typing(14_000))

    def test_late_event_before_open_window_refused(self):
        # 659 000 ms is within the tolerance of the last activity, but its
        # minute closed when the window at 660 000 ms opened.
        state = SessionState("s1")
        windows: list = []
        ingest_event(state, typing(660_500, chars=7))
        before = copy.deepcopy(state)
        with pytest.raises(RejectOutOfOrder):
            ingest_event(state, typing(659_000, chars=5))
        assert state == before
        ingest_event(state, typing(780_000))
        collect_window(state, windows)
        assert [(w.window_start, w.chars_typed) for w in windows] == [(660_000, 7)]

    def test_wrong_session_rejected(self):
        state = SessionState("s1")
        with pytest.raises(ValueError):
            ingest_event(state, typing(0, session="other"))

    @pytest.mark.parametrize(
        "kind, payload",
        [
            (TelemetryKind.TYPING_BURST, {"chars_typed": float("nan")}),
            (TelemetryKind.FILE_NAV, {"file_lines": float("inf")}),
            (TelemetryKind.DIAGNOSTIC, {"errors": "many"}),
            (TelemetryKind.EDIT_APPLIED, {"lines_added": None}),
        ],
    )
    def test_bad_numeric_payload_leaves_state_unchanged(self, kind, payload):
        # At 70 s the event would close the first window and passively
        # reject the suggestion shown at 1 s; a bad payload must do neither.
        state = SessionState("s1")
        ingest_event(state, typing(500, chars=9))
        ingest_event(state, ev(TelemetryKind.SUGGESTION_SHOWN, 1_000, suggestion_id="a"))
        window = state.open_window
        before = (window.close(), state.pending_suggestion, state.rejected_count,
                  state.total_chars, state.last_activity)
        with pytest.raises(SchemaError):
            ingest_event(state, ev(kind, 70_000, **payload))
        assert state.open_window is window
        assert state.latest_window() is None
        after = (window.close(), state.pending_suggestion, state.rejected_count,
                 state.total_chars, state.last_activity)
        assert after == before


class TestSessionCounters:
    def test_suggestion_lifecycle_accept(self):
        state = SessionState("s1")
        ingest_event(state, ev(TelemetryKind.SUGGESTION_SHOWN, 1_000, suggestion_id="a"))
        ingest_event(state, ev(TelemetryKind.SUGGESTION_ACCEPTED, 4_000, suggestion_id="a"))
        assert (state.accepted_count, state.rejected_count) == (1, 0)
        assert state.suggestions_seen == 1

    def test_new_request_rejects_pending(self):
        state = SessionState("s1")
        ingest_event(state, ev(TelemetryKind.SUGGESTION_SHOWN, 1_000, suggestion_id="a"))
        ingest_event(state, ev(TelemetryKind.SUGGESTION_REQUESTED, 5_000))
        assert (state.accepted_count, state.rejected_count) == (0, 1)

    def test_passive_timeout_rejects_pending(self):
        state = SessionState("s1")
        ingest_event(state, ev(TelemetryKind.SUGGESTION_SHOWN, 1_000, suggestion_id="a"))
        ingest_event(state, typing(40_000))
        assert (state.accepted_count, state.rejected_count) == (0, 1)
        assert state.pending_suggestion is None

    def test_counters_never_exceed_seen(self):
        state = SessionState("s1")
        events = [
            ev(TelemetryKind.SUGGESTION_SHOWN, 1_000, suggestion_id="a"),
            ev(TelemetryKind.SUGGESTION_ACCEPTED, 2_000, suggestion_id="a"),
            ev(TelemetryKind.SUGGESTION_ACCEPTED, 3_000, suggestion_id="a"),  # spurious
            ev(TelemetryKind.SUGGESTION_SHOWN, 4_000, suggestion_id="b"),
            ev(TelemetryKind.SUGGESTION_SHOWN, 5_000, suggestion_id="c"),
        ]
        for event in events:
            ingest_event(state, event)
        assert state.accepted_count + state.rejected_count <= state.suggestions_seen

    def test_record_outcome_updates_counters(self):
        state = SessionState("s1")
        record_outcome(state, accepted=True)
        record_outcome(state, accepted=False)
        assert (state.accepted_count, state.rejected_count, state.suggestions_seen) == (1, 1, 2)


class TestLabeling:
    def test_accept_before_new_request(self):
        later = [ev(TelemetryKind.SUGGESTION_ACCEPTED, 4_000)]
        assert label_suggestion(0, later) is Label.ACCEPTED

    def test_new_request_is_explicit_rejection(self):
        later = [ev(TelemetryKind.SUGGESTION_REQUESTED, 10_000)]
        assert label_suggestion(0, later) is Label.REJECTED_EXPLICIT

    def test_newly_shown_suggestion_is_explicit_rejection(self):
        later = [
            ev(TelemetryKind.SUGGESTION_SHOWN, 5_000, suggestion_id="b"),
            ev(TelemetryKind.SUGGESTION_ACCEPTED, 6_000, suggestion_id="b"),
        ]
        assert label_suggestion(0, later) is Label.REJECTED_EXPLICIT

    def test_silence_is_passive_rejection(self):
        later = [ev(TelemetryKind.FILE_NAV, 31_000)]
        assert label_suggestion(0, later) is Label.REJECTED_PASSIVE

    def test_late_accept_already_passively_rejected(self):
        later = [ev(TelemetryKind.SUGGESTION_ACCEPTED, 31_000)]
        assert label_suggestion(0, later) is Label.REJECTED_PASSIVE

    def test_activity_resets_inactivity_timer(self):
        later = [
            typing(20_000),
            ev(TelemetryKind.SUGGESTION_ACCEPTED, 45_000),
        ]
        assert label_suggestion(0, later) is Label.ACCEPTED

    def test_navigation_does_not_reset_timer(self):
        later = [
            ev(TelemetryKind.FILE_NAV, 20_000),
            ev(TelemetryKind.SUGGESTION_ACCEPTED, 45_000),
        ]
        assert label_suggestion(0, later) is Label.REJECTED_PASSIVE

    def test_short_stream_is_pending(self):
        with pytest.raises(PendingLabel):
            label_suggestion(0, [typing(5_000)])

    def test_empty_stream_is_pending(self):
        with pytest.raises(PendingLabel):
            label_suggestion(0, [])

    def test_trailing_silence_is_passive(self):
        later = [typing(1_000), ev(TelemetryKind.FILE_NAV, 35_000)]
        assert label_suggestion(0, later) is Label.REJECTED_PASSIVE

    def test_deterministic(self):
        later = [typing(3_000), ev(TelemetryKind.SUGGESTION_REQUESTED, 8_000)]
        first = label_suggestion(0, list(later))
        assert all(label_suggestion(0, list(later)) is first for _ in range(5))

    def test_totality_with_quiet_tail(self):
        # Any stream whose tail holds >= 30 s with no typing/command
        # interaction labels without Pending.
        base = [typing(2_000), ev(TelemetryKind.FILE_NAV, 9_000)]
        later = base + [ev(TelemetryKind.DIAGNOSTIC, 40_000, warnings=1, errors=0)]
        assert label_suggestion(0, later) is Label.REJECTED_PASSIVE


class TestJsonl:
    def test_round_trip_lossless(self, tmp_path):
        events = [
            typing(1_000, chars=42, duration_ms=900),
            ev(TelemetryKind.DIAGNOSTIC, 2_000, warnings=1, errors=0, breakpoints=3),
            ev(TelemetryKind.SUGGESTION_SHOWN, 3_000, suggestion_id="x1"),
        ]
        path = tmp_path / "events.jsonl"
        write_jsonl((event.to_json_dict() for event in events), path)
        assert [TelemetryEvent.from_json_dict(obj) for obj in read_jsonl(path)] == events

    def test_unknown_fields_ignored(self):
        event = parse_event_line(
            '{"session_id":"s1","timestamp":5,"kind":"Pause","payload":{},"extra":"ignored"}'
        )
        assert event.kind is TelemetryKind.PAUSE

    def test_malformed_line_raises_schema_error(self):
        with pytest.raises(SchemaError):
            parse_event_line("not json")
        with pytest.raises(SchemaError):
            parse_event_line('{"session_id":"s1","timestamp":5,"kind":"NoSuchKind"}')
        with pytest.raises(SchemaError):
            parse_event_line('["a","list"]')

    def test_read_jsonl_skips_blank_lines_and_refuses_non_objects(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text('{"a":1}\n\n  \n["a","list"]\n')
        rows = read_jsonl(path)
        assert next(rows) == {"a": 1}
        with pytest.raises(SchemaError):
            next(rows)


# One step of a generated stream: a gap in ms, then an event kind (or a
# delivered outcome) with its numeric payload.
_COMMANDS = ("Undo", "QuickFix", "TerminalToggle", "PaletteAction", "Copy", "Paste")
_STEP = st.tuples(
    st.integers(0, 90_000),
    st.sampled_from(list(TelemetryKind) + ["outcome"]),
    st.integers(0, 500),
    st.integers(0, 30_000),
    st.sampled_from(_COMMANDS),
)


def _step_event(t: int, kind: TelemetryKind, n: int, ms: int, command: str) -> TelemetryEvent:
    payload = {
        TelemetryKind.TYPING_BURST: {"chars_typed": n, "duration_ms": ms},
        TelemetryKind.FILE_NAV: {"open_files": n % 20, "file_lines": n},
        TelemetryKind.COMMAND_USE: {"command": command},
        TelemetryKind.DIAGNOSTIC: {"warnings": n % 7, "errors": n % 3, "breakpoints": n % 2},
        TelemetryKind.EDIT_APPLIED: {"lines_added": n % 40},
        TelemetryKind.SUGGESTION_SHOWN: {"suggestion_id": f"s{t}"},
    }.get(kind, {})
    return ev(kind, t, **payload)


def _event_sums(event: TelemetryEvent) -> tuple:
    """What one event adds to its window: chars, pauses, nav, commands, lines."""
    kind = event.kind
    return (
        event.payload.get("chars_typed", 0),
        int(kind is TelemetryKind.PAUSE),
        int(kind is TelemetryKind.FILE_NAV),
        int(kind is TelemetryKind.COMMAND_USE),
        event.payload.get("lines_added", 0),
    )


def _window_sums(w) -> tuple:
    commands = w.undo_count + w.quick_fix_count + w.terminal_toggles + w.palette_actions
    return (w.chars_typed, w.pause_count, w.nav_events, commands, w.lines_added)


class TestIngestProperties:
    @settings(max_examples=150, deadline=None)
    @given(steps=st.lists(_STEP, max_size=120), start=st.integers(0, 10**12))
    def test_window_sums_conserved_and_outcomes_bounded(self, steps, start):
        state = SessionState("s1")
        windows: list = []
        times = []
        totals = dict.fromkeys(("chars", "pauses", "nav", "commands", "lines"), 0)
        t = start
        for gap, kind, n, ms, command in steps:
            t += gap
            if kind == "outcome":
                record_outcome(state, accepted=n % 2 == 0)
            else:
                event = _step_event(t, kind, n, ms, command)
                ingest_event(state, event)
                collect_window(state, windows)
                times.append(t)
                totals["chars"] += event.payload.get("chars_typed", 0)
                totals["pauses"] += kind is TelemetryKind.PAUSE
                totals["nav"] += kind is TelemetryKind.FILE_NAV
                totals["commands"] += kind is TelemetryKind.COMMAND_USE
                totals["lines"] += event.payload.get("lines_added", 0)
            assert state.accepted_count + state.rejected_count <= state.suggestions_seen
        if state.open_window is not None:
            windows.append(state.open_window.close())

        assert [w.window_start for w in windows] == sorted({window_start_for(t) for t in times})
        assert sum(w.chars_typed for w in windows) == totals["chars"] == state.total_chars
        assert sum(w.pause_count for w in windows) == totals["pauses"]
        assert sum(w.nav_events for w in windows) == totals["nav"]
        assert sum(
            w.undo_count + w.quick_fix_count + w.terminal_toggles + w.palette_actions
            for w in windows
        ) == totals["commands"]
        assert sum(w.lines_added for w in windows) == totals["lines"]

    @settings(max_examples=150, deadline=None)
    @given(
        steps=st.lists(st.tuples(_STEP, st.integers(0, OUT_OF_ORDER_TOLERANCE_MS)), max_size=120),
        start=st.integers(0, 10**12),
    )
    def test_reordering_within_tolerance_counts_each_event_in_its_bucket(self, steps, start):
        # Each event is delivered up to the tolerance after its timestamp,
        # so it is never older than the session's last activity by more.
        # Gaps are shortened so that reordering often crosses a minute.
        stream = []
        t = start
        for (gap, kind, n, ms, command), delay in steps:
            t += gap // 5
            if kind != "outcome":
                stream.append((t + delay, len(stream), _step_event(t, kind, n, ms, command)))
        state = SessionState("s1")
        windows: list = []
        expected: dict = {}
        for _, _, event in sorted(stream, key=lambda item: item[:2]):
            before = copy.deepcopy(state)
            try:
                ingest_event(state, event)
            except RejectOutOfOrder:
                assert state == before
                continue
            collect_window(state, windows)
            bucket = window_start_for(event.timestamp)
            sums = expected.get(bucket, (0,) * 5)
            expected[bucket] = tuple(a + b for a, b in zip(sums, _event_sums(event)))
        if state.open_window is not None:
            windows.append(state.open_window.close())
        assert {w.window_start: _window_sums(w) for w in windows} == expected

    @settings(max_examples=150, deadline=None)
    @given(steps=st.lists(_STEP, max_size=80), start=st.integers(0, 10**12))
    def test_label_suggestion_agrees_with_ingest(self, steps, start):
        # Ingest resolves at most one pending suggestion per event; the
        # counter it moves is that suggestion's outcome.
        state = SessionState("s1")
        events: list = []
        outcome: dict = {}
        pending = None
        t = start
        for gap, kind, n, ms, command in steps:
            if kind == "outcome":
                continue
            t += gap
            event = _step_event(t, kind, n, ms, command)
            accepted, rejected = state.accepted_count, state.rejected_count
            ingest_event(state, event)
            if (state.accepted_count, state.rejected_count) != (accepted, rejected):
                outcome[pending] = state.accepted_count > accepted
            if kind is TelemetryKind.SUGGESTION_SHOWN:
                pending = len(events)
            events.append(event)
        for i, event in enumerate(events):
            if event.kind is not TelemetryKind.SUGGESTION_SHOWN:
                continue
            if i in outcome:
                label = label_suggestion(event.timestamp, events[i + 1:])
                assert (label is Label.ACCEPTED) == outcome[i]
            else:
                with pytest.raises(PendingLabel):
                    label_suggestion(event.timestamp, events[i + 1:])
