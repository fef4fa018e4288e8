from __future__ import annotations

import copy
import json
import pickle
from dataclasses import replace
from pathlib import Path
from tempfile import TemporaryDirectory

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suggestgate.dataset import records_from_events
from suggestgate.errors import RejectOutOfOrder, SchemaError
from suggestgate.model import fit_logistic, save_model, split_to_arrays
from suggestgate.synth import SynthConfig, synth_sessions
from suggestgate.telemetry import (
    OUT_OF_ORDER_TOLERANCE_MS,
    SessionState,
    TelemetryEvent,
    TelemetryKind,
    ingest_event,
    read_events,
    record_outcome,
    window_start_for,
    write_events,
)


def ev(kind: TelemetryKind, t: int, session: str = "s1", **payload) -> TelemetryEvent:
    return TelemetryEvent(session_id=session, timestamp=t, kind=kind, payload=payload)


def typing(t: int, chars: int = 10, duration_ms: int = 2000, session: str = "s1"):
    return ev(TelemetryKind.TYPING_BURST, t, session, chars_typed=chars, duration_ms=duration_ms)


def collect_window(state: SessionState, windows: list) -> None:
    """Append the state's latest closed window if it is new since the last call."""
    latest = state.last_window
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
        closed = state.last_window
        assert closed.window_start == 0
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
        windows.append(state.open_window)
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
        assert state.last_window.typing_time_s == 60.0

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
            (TelemetryKind.TYPING_BURST, {"chars_typed": -50, "duration_ms": -9000}),
            (TelemetryKind.TYPING_BURST, {"chars_typed": 5, "duration_ms": -1}),
            (TelemetryKind.TYPING_BURST, {"duration_ms": 10**400}),
            (TelemetryKind.FILE_NAV, {"open_files": -2}),
            (TelemetryKind.FILE_NAV, {"open_files": 2, "file_lines": -1}),
            (TelemetryKind.DIAGNOSTIC, {"warnings": -1}),
            (TelemetryKind.DIAGNOSTIC, {"errors": -1}),
            (TelemetryKind.DIAGNOSTIC, {"breakpoints": -1}),
            (TelemetryKind.EDIT_APPLIED, {"lines_added": -3}),
            (TelemetryKind.FILE_NAV, {"open_files": True}),
            (TelemetryKind.TYPING_BURST, {"chars_typed": "12"}),
            (TelemetryKind.FILE_NAV, {"file_lines": 3.7}),
            (TelemetryKind.TYPING_BURST, {"duration_ms": 999.9}),
            (TelemetryKind.TYPING_BURST, {"chars_typed": 10**400}),
            (TelemetryKind.EDIT_APPLIED, {"lines_added": 2**53}),
        ],
    )
    def test_bad_numeric_payload_leaves_state_unchanged(self, kind, payload):
        # At 70 s the event would close the first window and passively
        # reject the suggestion shown at 1 s; a bad payload must do neither.
        state = SessionState("s1")
        ingest_event(state, typing(500, chars=9))
        ingest_event(state, ev(TelemetryKind.SUGGESTION_SHOWN, 1_000, suggestion_id="a"))
        window = state.open_window
        before = (copy.copy(window), state.pending_suggestion, state.rejected_count,
                  state.total_chars, state.last_activity)
        with pytest.raises(SchemaError):
            ingest_event(state, ev(kind, 70_000, **payload))
        assert state.open_window is window
        assert state.last_window is None
        after = (copy.copy(window), state.pending_suggestion, state.rejected_count,
                 state.total_chars, state.last_activity)
        assert after == before


class TestSessionCounters:
    def test_suggestion_lifecycle_accept(self):
        state = SessionState("s1")
        ingest_event(state, ev(TelemetryKind.SUGGESTION_SHOWN, 1_000, suggestion_id="a"))
        ingest_event(state, ev(TelemetryKind.SUGGESTION_ACCEPTED, 4_000, suggestion_id="a"))
        assert (state.accepted_count, state.rejected_count) == (1, 0)

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
        shown = sum(event.kind is TelemetryKind.SUGGESTION_SHOWN for event in events)
        assert state.accepted_count + state.rejected_count <= shown

    def test_record_outcome_updates_counters(self):
        state = SessionState("s1")
        record_outcome(state, accepted=True)
        record_outcome(state, accepted=False)
        assert (state.accepted_count, state.rejected_count) == (1, 1)


def request(t: int, suggestion_id: str) -> TelemetryEvent:
    return ev(TelemetryKind.SUGGESTION_REQUESTED, t, suggestion_id=suggestion_id, task_complexity=0.5)


def first_outcome(later: list) -> int | None:
    """The label of a request shown at 0 and followed by ``later``; None while it is pending."""
    records, unresolved = records_from_events(
        [request(0, "r0"), ev(TelemetryKind.SUGGESTION_SHOWN, 0), *later]
    )
    if unresolved[:1] == ["r0"]:
        return None
    assert records[0].timestamp == 0
    return records[0].y


class TestLabeling:
    def test_accept_before_new_request(self):
        later = [ev(TelemetryKind.SUGGESTION_ACCEPTED, 4_000)]
        assert first_outcome(later) == 1

    def test_new_request_is_explicit_rejection(self):
        later = [request(10_000, "r1")]
        assert first_outcome(later) == 0

    def test_newly_shown_suggestion_is_explicit_rejection(self):
        later = [
            ev(TelemetryKind.SUGGESTION_SHOWN, 5_000, suggestion_id="b"),
            ev(TelemetryKind.SUGGESTION_ACCEPTED, 6_000, suggestion_id="b"),
        ]
        assert first_outcome(later) == 0

    def test_silence_is_passive_rejection(self):
        later = [ev(TelemetryKind.FILE_NAV, 31_000)]
        assert first_outcome(later) == 0

    def test_late_accept_already_passively_rejected(self):
        later = [ev(TelemetryKind.SUGGESTION_ACCEPTED, 31_000)]
        assert first_outcome(later) == 0

    def test_activity_resets_inactivity_timer(self):
        later = [
            typing(20_000),
            ev(TelemetryKind.SUGGESTION_ACCEPTED, 45_000),
        ]
        assert first_outcome(later) == 1

    def test_navigation_does_not_reset_timer(self):
        later = [
            ev(TelemetryKind.FILE_NAV, 20_000),
            ev(TelemetryKind.SUGGESTION_ACCEPTED, 45_000),
        ]
        assert first_outcome(later) == 0

    def test_short_stream_is_pending(self):
        stream = [request(0, "r0"), ev(TelemetryKind.SUGGESTION_SHOWN, 0), typing(5_000)]
        assert records_from_events(stream) == ([], ["r0"])

    def test_empty_stream_is_pending(self):
        stream = [request(0, "r0"), ev(TelemetryKind.SUGGESTION_SHOWN, 0)]
        assert records_from_events(stream) == ([], ["r0"])

    def test_trailing_silence_is_passive(self):
        later = [typing(1_000), ev(TelemetryKind.FILE_NAV, 35_000)]
        assert first_outcome(later) == 0

    def test_deterministic(self):
        stream = [request(0, "r0"), ev(TelemetryKind.SUGGESTION_SHOWN, 0), typing(3_000),
                  request(8_000, "r1")]
        records, unresolved = records_from_events(stream)
        assert ([r.y for r in records], unresolved) == ([0], ["r1"])
        assert all(records_from_events(list(stream)) == (records, unresolved) for _ in range(5))

    def test_totality_with_quiet_tail(self):
        # Any stream whose tail holds >= 30 s with no typing/command
        # interaction labels the suggestion; none stays pending.
        base = [typing(2_000), ev(TelemetryKind.FILE_NAV, 9_000)]
        later = base + [ev(TelemetryKind.DIAGNOSTIC, 40_000, warnings=1, errors=0)]
        assert first_outcome(later) == 0


#: A line that holds an event, for files whose later lines are under test.
_PAUSE_LINE = '{"session_id":"s1","timestamp":5,"kind":"Pause","payload":{}}'


def read_lines(tmp_path, *lines: str) -> list[TelemetryEvent]:
    """The events ``read_events`` reads from a file of ``lines``."""
    path = tmp_path / "events.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return list(read_events(path))


class TestJsonl:
    def test_round_trip_lossless(self, tmp_path):
        events = [
            typing(1_000, chars=42, duration_ms=900),
            ev(TelemetryKind.DIAGNOSTIC, 2_000, warnings=1, errors=0, breakpoints=3),
            ev(TelemetryKind.SUGGESTION_SHOWN, 3_000, suggestion_id="x1"),
        ]
        path = tmp_path / "events.jsonl"
        write_events(events, path)
        assert list(read_events(path)) == events

    def test_unknown_fields_ignored_and_a_missing_payload_is_empty(self, tmp_path):
        events = read_lines(
            tmp_path,
            '{"session_id":"s1","timestamp":5,"kind":"Pause","payload":{},"extra":"ignored"}',
            '{"session_id":"s1","timestamp":6,"kind":"TypingBurst"}',
        )
        assert [event.kind for event in events] == [TelemetryKind.PAUSE, TelemetryKind.TYPING_BURST]
        assert dict(events[1].payload) == {}

    @pytest.mark.parametrize(
        "line",
        ["not json", '{"session_id":"s1","timestamp":5,"kind":"NoSuchKind"}', '["a","list"]',
         "[" * 100_000, '{"session_id":"s1","timestamp":5,"kind":"Pause","payload":'
         + "[" * 100_000],
        ids=["not-json", "unknown-kind", "not-an-object", "nested-array", "nested-payload"],
    )
    def test_line_without_an_event_raises_schema_error_naming_it(self, tmp_path, line):
        # Line 1 holds an event and line 2 is blank, so the error names line 3.
        # A line nested past the decoder's depth raised a bare RecursionError.
        with pytest.raises(SchemaError, match="^line 3 "):
            read_lines(tmp_path, _PAUSE_LINE, "", line)

    def test_line_not_utf8_raises_schema_error_naming_it(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_bytes(_PAUSE_LINE.encode() + b'\n{"session_id":"s\xff"}\n')
        with pytest.raises(SchemaError, match="^line 2 "):
            list(read_events(path))

    @pytest.mark.parametrize("payload", ["0", "false", "[]", '""', "null"])
    def test_payload_not_an_object_raises_schema_error(self, tmp_path, payload):
        # It read as an empty payload.
        line = '{"session_id":"s1","timestamp":5,"kind":"Pause","payload":' + payload + "}"
        with pytest.raises(SchemaError, match="^line 1 .*dict payload"):
            read_lines(tmp_path, line)

    @pytest.mark.parametrize(
        "field, value",
        [("timestamp", v) for v in ("Infinity", "-Infinity", "NaN", '"12"', "3.7", "true")]
        + [("session_id", v) for v in ("null", "[1, 2]", "7")],
    )
    def test_bad_value_raises_schema_error(self, tmp_path, field, value):
        fields = {"session_id": '"s"', "timestamp": "5", "kind": '"Pause"', field: value}
        with pytest.raises(SchemaError):
            read_lines(tmp_path, "{" + ",".join(f'"{k}":{v}' for k, v in fields.items()) + "}")

    @pytest.mark.parametrize(
        "field, value",
        [("task_complexity", v) for v in ("Infinity", "-Infinity", "NaN", "1e400", '"0.5"',
                                          "true", "null")]
        + [("suggestion_id", v) for v in ("null", "7", '["a"]')]
        + [("prompt_length", v) for v in ("2.5", "-1", '"many"', str(2**53))],
    )
    def test_bad_request_payload_in_a_line_raises_schema_error(self, tmp_path, field, value):
        # The events file is the one persisted form, so its reader is what
        # keeps a non-finite feature or a fractional count out of the records.
        payload = {"suggestion_id": '"a"', "task_complexity": "0.5", "prompt_length": "40",
                   field: value}
        line = ('{"session_id":"s","timestamp":5,"kind":"SuggestionRequested","payload":{'
                + ",".join(f'"{k}":{v}' for k, v in payload.items()) + "}}")
        with pytest.raises(SchemaError, match=field):
            read_lines(tmp_path, line)

    def test_blank_lines_are_skipped_and_events_before_a_bad_line_are_read(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text(_PAUSE_LINE + '\n\n  \n["a","list"]\n')
        events = read_events(path)
        assert next(events).kind is TelemetryKind.PAUSE
        with pytest.raises(SchemaError, match="^line 4 "):
            next(events)


#: Strings that no output of the package contains unless a payload leaks them.
_MARKER = st.text(max_size=12).map(lambda text: "secret-" + text)


class TestEventContract:
    def test_kind_given_by_value_counts_and_serializes(self):
        event = TelemetryEvent("s", 0, "TypingBurst", {"chars_typed": 50, "duration_ms": 1000})
        assert ingest_event(SessionState("s"), event).total_chars == 50
        assert event.to_json_dict() == {"session_id": "s", "timestamp": 0, "kind": "TypingBurst",
                                        "payload": {"chars_typed": 50, "duration_ms": 1000}}
        with pytest.raises(SchemaError):
            TelemetryEvent("s", 0, "NoSuchKind")

    @pytest.mark.parametrize("obj", [["a", "list"], "text", 7, None])
    def test_from_json_dict_refuses_what_is_not_an_object(self, obj):
        # It raised a bare TypeError.
        with pytest.raises(SchemaError, match="JSON object"):
            TelemetryEvent.from_json_dict(obj)

    def test_payload_is_read_only_and_copies_are_equal(self):
        # Writing into a checked payload would skip the check: -7 chars would
        # ingest, and a code key would be written back out.
        event = typing(0, chars=5)
        with pytest.raises(TypeError):
            event.payload["chars_typed"] = -7
        with pytest.raises(TypeError):
            event.payload["code"] = "def secret(): ..."
        assert ingest_event(SessionState("s1"), event).total_chars == 5
        assert event.to_json_dict()["payload"] == {"chars_typed": 5, "duration_ms": 2000}
        for copied in (pickle.loads(pickle.dumps(event)), copy.deepcopy(event),
                       replace(event, timestamp=7)):
            assert replace(copied, timestamp=0) == event
        with pytest.raises(TypeError):
            copy.deepcopy(event).payload["chars_typed"] = -7

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16),
           extras=st.lists(st.tuples(st.integers(0, 10**6), _MARKER, _MARKER), min_size=1,
                           max_size=40))
    def test_undeclared_payload_values_reach_no_output(self, seed, extras):
        # Each extra puts a marker key holding a marker value into one event's
        # payload and, on a CommandUse, makes another marker its command.
        log = synth_sessions(SynthConfig(n_sessions=4, seed=seed)).events
        bare = [event.to_json_dict() for event in log]
        marked = copy.deepcopy(bare)
        markers = []
        for index, key, value in extras:
            i = index % len(bare)
            marked[i]["payload"][key] = value
            if bare[i]["kind"] == "CommandUse":
                bare[i]["payload"]["command"] = marked[i]["payload"]["command"] = key
            markers += [key, value]
        with TemporaryDirectory() as tmp:
            out = Path(tmp)
            (out / "in.jsonl").write_text("".join(json.dumps(obj) + "\n" for obj in marked),
                                          encoding="utf-8")
            events = list(read_events(out / "in.jsonl"))
            records, _ = records_from_events(events)
            write_events(events, out / "events.jsonl")
            save_model(fit_logistic(*split_to_arrays(records), (1.0, 1.0)), out / "model.json")
            written = "".join((out / name).read_text(encoding="utf-8")
                              for name in ("events.jsonl", "model.json")) + repr(records)
        for marker in markers:
            assert marker not in written and json.dumps(marker)[1:-1] not in written
        plain, _ = records_from_events(TelemetryEvent.from_json_dict(obj) for obj in bare)
        assert [record.x for record in records] == [record.x for record in plain]


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
    """What one event adds to its window: chars, pauses, commands, lines."""
    kind = event.kind
    return (
        event.payload.get("chars_typed", 0),
        int(kind is TelemetryKind.PAUSE),
        int(kind is TelemetryKind.COMMAND_USE),
        event.payload.get("lines_added", 0),
    )


def _window_sums(w) -> tuple:
    commands = w.undo_count + w.quick_fix_count + w.terminal_toggles + w.palette_actions
    return (w.chars_typed, w.pause_count, commands, w.lines_added)


class TestIngestProperties:
    @settings(max_examples=150, deadline=None)
    @given(steps=st.lists(_STEP, max_size=120), start=st.integers(0, 10**12))
    def test_window_sums_conserved_and_outcomes_bounded(self, steps, start):
        # Also: each window's file_lines, open_files and breakpoints are the
        # last values an event of the session set by its end, or 0 before any.
        state = SessionState("s1")
        windows: list = []
        times = []
        totals = dict.fromkeys(("chars", "pauses", "commands", "lines"), 0)
        gauges = {}
        file_lines = open_files = breakpoints = shown = 0
        t = start
        for gap, kind, n, ms, command in steps:
            t += gap
            if kind == "outcome":
                record_outcome(state, accepted=n % 2 == 0)
                shown += 1
            else:
                event = _step_event(t, kind, n, ms, command)
                ingest_event(state, event)
                collect_window(state, windows)
                times.append(t)
                totals["chars"] += event.payload.get("chars_typed", 0)
                totals["pauses"] += kind is TelemetryKind.PAUSE
                shown += kind is TelemetryKind.SUGGESTION_SHOWN
                totals["commands"] += kind is TelemetryKind.COMMAND_USE
                totals["lines"] += event.payload.get("lines_added", 0)
                file_lines = event.payload.get("file_lines", file_lines)
                open_files = event.payload.get("open_files", open_files)
                breakpoints = event.payload.get("breakpoints", breakpoints)
                gauges[window_start_for(t)] = (file_lines, open_files, breakpoints)
            assert state.accepted_count + state.rejected_count <= shown
        if state.open_window is not None:
            windows.append(state.open_window)

        assert [w.window_start for w in windows] == sorted({window_start_for(t) for t in times})
        assert sum(w.chars_typed for w in windows) == totals["chars"] == state.total_chars
        assert sum(w.pause_count for w in windows) == totals["pauses"]
        assert sum(
            w.undo_count + w.quick_fix_count + w.terminal_toggles + w.palette_actions
            for w in windows
        ) == totals["commands"]
        assert sum(w.lines_added for w in windows) == totals["lines"]
        assert {
            w.window_start: (w.file_lines, w.open_files, w.breakpoints) for w in windows
        } == gauges

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
            sums = expected.get(bucket, (0,) * 4)
            expected[bucket] = tuple(a + b for a, b in zip(sums, _event_sums(event)))
        if state.open_window is not None:
            windows.append(state.open_window)
        assert {w.window_start: _window_sums(w) for w in windows} == expected

    @settings(max_examples=150, deadline=None)
    @given(steps=st.lists(_STEP, max_size=80), start=st.integers(0, 10**12))
    def test_records_from_events_agree_with_ingest(self, steps, start):
        # Ingest resolves at most one pending suggestion per event; the
        # counter it moves is the outcome of the request shown last.
        state = SessionState("s1")
        events: list = []
        ids: list = []
        outcome: dict = {}
        latest = shown = None
        t = start
        for gap, kind, n, ms, command in steps:
            if kind == "outcome":
                continue
            t += gap
            event = _step_event(t, kind, n, ms, command)
            if kind is TelemetryKind.SUGGESTION_REQUESTED:
                event = replace(event, payload={"suggestion_id": f"r{len(ids)}", "task_complexity": n / 500})
            accepted, rejected = state.accepted_count, state.rejected_count
            ingest_event(state, event)
            if (state.accepted_count, state.rejected_count) != (accepted, rejected) and shown:
                outcome[shown] = int(state.accepted_count > accepted)
                shown = None
            if kind is TelemetryKind.SUGGESTION_REQUESTED:
                latest = event.payload["suggestion_id"]
                ids.append(latest)
            elif kind is TelemetryKind.SUGGESTION_SHOWN:
                latest, shown = None, latest
            events.append(event)
        records, unresolved = records_from_events(events)
        assert [r.y for r in records] == [outcome[i] for i in ids if i in outcome]
        assert unresolved == [i for i in ids if i not in outcome]
