"""Editor telemetry: event taxonomy, per-session state, one-minute windows, labeling.

Events are content-agnostic: payloads carry counts and durations only, never
source text, prompts, or identifiers. Windows are wall-clock aligned to
``floor(timestamp / 60 s)`` so replays are deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Optional

from .errors import RejectOutOfOrder, SchemaError

WINDOW_SECONDS = 60
WINDOW_MS = WINDOW_SECONDS * 1000

#: Passive rejection: a suggestion neither accepted nor superseded within
#: this much inactivity is labeled rejected.
PASSIVE_REJECT_MS = 30_000

#: Events may arrive at most this far behind the session's last activity.
OUT_OF_ORDER_TOLERANCE_MS = 5_000


class TelemetryKind(str, Enum):
    TYPING_BURST = "TypingBurst"
    PAUSE = "Pause"
    FILE_NAV = "FileNav"
    COMMAND_USE = "CommandUse"
    DIAGNOSTIC = "Diagnostic"
    SUGGESTION_SHOWN = "SuggestionShown"
    SUGGESTION_ACCEPTED = "SuggestionAccepted"
    SUGGESTION_REQUESTED = "SuggestionRequested"
    EDIT_APPLIED = "EditApplied"

    # str's C hash, consistent with ``==`` on the value; Enum's default
    # hashes the name in Python code, once per event in ingest's lookups.
    __hash__ = str.__hash__


class Label(str, Enum):
    ACCEPTED = "Accepted"
    REJECTED_EXPLICIT = "RejectedExplicit"
    REJECTED_PASSIVE = "RejectedPassive"


# Module-level aliases, in definition order, for the comparisons ingest makes on
# every event: a global lookup costs a fraction of an Enum member access.
(
    _TYPING_BURST, _PAUSE, _FILE_NAV, _COMMAND_USE, _DIAGNOSTIC,
    _SUGGESTION_SHOWN, _SUGGESTION_ACCEPTED, _SUGGESTION_REQUESTED, _EDIT_APPLIED,
) = TelemetryKind
_ACCEPTED, _REJECTED_EXPLICIT, _REJECTED_PASSIVE = Label

#: The ``command`` values of a CommandUse that ingest counts apart.
_UNDO, _QUICK_FIX, _TERMINAL_TOGGLE = "Undo", "QuickFix", "TerminalToggle"

#: Ingest refuses counts from 2**53 up: features hold counts as floats, which skip integers there.
_COUNT_LIMIT = 2**53

#: Events that count as developer interaction for the passive-rejection
#: timer. Navigation and diagnostics do not reset inactivity.
_ACTIVITY_KINDS = frozenset({_TYPING_BURST, _COMMAND_USE, _EDIT_APPLIED})


@dataclass(frozen=True)
class TelemetryEvent:
    """One timestamped editor interaction fact.

    ``timestamp`` is milliseconds since epoch. ``payload`` holds
    kind-specific numeric fields (see the collector contract); it never
    contains code, prompt text, or file paths.
    """

    session_id: str
    timestamp: int
    kind: TelemetryKind
    payload: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "session_id": self.session_id,
            "timestamp": self.timestamp,
            "kind": self.kind.value,
            "payload": dict(self.payload),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TelemetryEvent":
        """Build an event from a decoded JSON object; unknown fields ignored."""
        try:
            kind = TelemetryKind(obj["kind"])
            if not isinstance(obj["session_id"], str):
                raise TypeError(f"session_id must be a string, got {obj['session_id']!r}")
            return cls(
                session_id=obj["session_id"],
                timestamp=whole_number(obj["timestamp"]),
                kind=kind,
                payload=dict(obj.get("payload") or {}),
            )
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            raise SchemaError(f"bad telemetry event: {exc}") from exc


@dataclass(slots=True)
class BehaviorWindow:
    """One-minute aggregate of telemetry counters; not written after it closes.

    Sums: chars_typed, typing_time_s (at most 60 s), pause_count,
    nav_events, command counters, lines_added. Gauges (last value seen):
    warnings and errors, per Diagnostic; breakpoints, open_files and
    file_lines, which carry over from the previous window.
    """

    session_id: str
    window_start: int  # ms, multiple of WINDOW_MS
    chars_typed: int = 0
    typing_time_s: float = 0.0
    pause_count: int = 0
    nav_events: int = 0
    undo_count: int = 0
    quick_fix_count: int = 0
    terminal_toggles: int = 0
    palette_actions: int = 0
    warnings: int = 0
    errors: int = 0
    breakpoints: int = 0
    lines_added: int = 0
    file_lines: int = 0
    open_files: int = 0


@dataclass
class SessionState:
    """Accumulated per-session counters, the open window and the last closed one.

    Mutated by exactly one writer at a time. The feature builder reads plain
    numbers and ``last_window``, which is not written after it closes; the
    next window starts with its breakpoints, open_files and file_lines.
    """

    session_id: str
    accepted_count: int = 0
    rejected_count: int = 0
    total_typing_duration: float = 0.0
    total_chars: int = 0
    suggestions_seen: int = 0
    last_activity: int = 0
    last_window: Optional[BehaviorWindow] = None
    open_window: Optional[BehaviorWindow] = None
    # Inactivity anchor (ms) of the unresolved suggestion, if any.
    pending_suggestion: Optional[int] = None

    def latest_window(self) -> Optional[BehaviorWindow]:
        """``last_window``; perfbench's traced ingest calls this name."""
        return self.last_window


def whole_number(value) -> int:
    """``value`` as an int if it is a whole number (3.0 is) other than a bool;
    else ValueError, TypeError or OverflowError, as ``int()`` raises them."""
    if isinstance(value, bool) or value != int(value):
        raise ValueError(f"expected a whole number, got {value!r}")
    return int(value)


def window_start_for(timestamp_ms: int) -> int:
    """Wall-clock aligned window bucket: floor(t / 60 s)."""
    return (timestamp_ms // WINDOW_MS) * WINDOW_MS


def _pending_label(anchor: int, kind: TelemetryKind, timestamp: int) -> Optional[Label]:
    """The label an event gives the pending suggestion, or None if it stays pending.

    The 30 s timer measures inactivity: it anchors at the shown time and
    re-anchors on typing/command interaction, not on navigation or
    diagnostics, so expiry is detected at the next observed event. A new
    request or a newly shown suggestion supersedes the pending one.
    """
    if timestamp - anchor >= PASSIVE_REJECT_MS:
        return _REJECTED_PASSIVE
    if kind is _SUGGESTION_ACCEPTED:
        return _ACCEPTED
    if kind is _SUGGESTION_REQUESTED or kind is _SUGGESTION_SHOWN:
        return _REJECTED_EXPLICIT
    return None


def ingest_event(state: SessionState, event: TelemetryEvent) -> SessionState:
    """Fold one event into the session state, closing windows on minute rollover.

    Raises RejectOutOfOrder if the event is older than the session's last
    activity by more than the tolerance (corrupt stream) or falls in a minute
    before the open window, and SchemaError if a count in the payload is not
    a whole number (``whole_number``) in [0, 2**53); either way the state is
    left as it was.
    """
    if event.session_id != state.session_id:
        raise ValueError(
            f"event for session {event.session_id!r} fed to state {state.session_id!r}"
        )
    if event.timestamp < state.last_activity - OUT_OF_ORDER_TOLERANCE_MS:
        raise RejectOutOfOrder(
            f"event at {event.timestamp} precedes last activity "
            f"{state.last_activity} by more than {OUT_OF_ORDER_TOLERANCE_MS} ms"
        )

    bucket = window_start_for(event.timestamp)
    win = state.open_window
    if win is None:
        win = BehaviorWindow(state.session_id, bucket)
    elif bucket > win.window_start:
        win = BehaviorWindow(state.session_id, bucket, breakpoints=win.breakpoints,
                             file_lines=win.file_lines, open_files=win.open_files)
    elif bucket < win.window_start:
        raise RejectOutOfOrder(
            f"event at {event.timestamp} falls before the open window at {win.window_start}"
        )

    # Each branch parses its payload before it writes, and a new window joins
    # the state only afterwards, so a bad payload changes nothing. A carried
    # gauge the payload omits keeps its last value; any other omitted count
    # is 0.
    payload = event.payload
    kind = event.kind
    try:
        if kind is _TYPING_BURST:
            chars = payload.get("chars_typed", 0)
            duration_ms = payload.get("duration_ms", 0)
            if type(chars) is not int or type(duration_ms) is not int:
                chars, duration_ms = whole_number(chars), whole_number(duration_ms)
            if not (0 <= chars < _COUNT_LIMIT and 0 <= duration_ms < _COUNT_LIMIT):
                raise ValueError("count outside [0, 2**53)")
            seconds = duration_ms / 1000.0
            win.chars_typed += chars
            win.typing_time_s = min(win.typing_time_s + seconds, float(WINDOW_SECONDS))
            state.total_chars += chars
            state.total_typing_duration += seconds
        elif kind is _PAUSE:
            win.pause_count += 1
        elif kind is _FILE_NAV:
            open_files = payload.get("open_files", win.open_files)
            file_lines = payload.get("file_lines", win.file_lines)
            if type(open_files) is not int or type(file_lines) is not int:
                open_files, file_lines = whole_number(open_files), whole_number(file_lines)
            if not (0 <= open_files < _COUNT_LIMIT and 0 <= file_lines < _COUNT_LIMIT):
                raise ValueError("count outside [0, 2**53)")
            win.nav_events += 1
            win.open_files, win.file_lines = open_files, file_lines
        elif kind is _COMMAND_USE:
            command = payload.get("command")
            if command == _UNDO:
                win.undo_count += 1
            elif command == _QUICK_FIX:
                win.quick_fix_count += 1
            elif command == _TERMINAL_TOGGLE:
                win.terminal_toggles += 1
            else:
                # PaletteAction, Copy, Paste: generic command surface.
                win.palette_actions += 1
        elif kind is _DIAGNOSTIC:
            warnings = payload.get("warnings", 0)
            errors = payload.get("errors", 0)
            breakpoints = payload.get("breakpoints", win.breakpoints)
            if type(warnings) is not int or type(errors) is not int or type(breakpoints) is not int:
                warnings, errors, breakpoints = map(whole_number, (warnings, errors, breakpoints))
            if not (0 <= warnings < _COUNT_LIMIT and 0 <= errors < _COUNT_LIMIT
                    and 0 <= breakpoints < _COUNT_LIMIT):
                raise ValueError("count outside [0, 2**53)")
            win.warnings, win.errors, win.breakpoints = warnings, errors, breakpoints
        elif kind is _EDIT_APPLIED:
            lines = payload.get("lines_added", 0)
            if type(lines) is not int:
                lines = whole_number(lines)
            if not 0 <= lines < _COUNT_LIMIT:
                raise ValueError("count outside [0, 2**53)")
            win.lines_added += lines
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"bad {kind.value} payload: {exc}") from exc

    if win is not state.open_window:
        state.last_window = state.open_window
        state.open_window = win
    anchor = state.pending_suggestion
    if anchor is not None:
        label = _pending_label(anchor, kind, event.timestamp)
        if label is None:
            if kind in _ACTIVITY_KINDS:
                state.pending_suggestion = event.timestamp
        else:
            state.pending_suggestion = None
            if label is _ACCEPTED:
                state.accepted_count += 1
            else:
                state.rejected_count += 1
    if kind is _SUGGESTION_SHOWN:
        state.suggestions_seen += 1
        state.pending_suggestion = event.timestamp

    state.last_activity = max(state.last_activity, event.timestamp)
    return state


def record_outcome(state: SessionState, accepted: bool) -> None:
    """Register a delivered suggestion's outcome directly.

    For callers that learn an outcome directly rather than from events,
    such as a replay that simulates the suggestion lifecycle.
    """
    state.suggestions_seen += 1
    if accepted:
        state.accepted_count += 1
    else:
        state.rejected_count += 1


def _json_object(line: str) -> dict:
    """Decode one JSONL line; SchemaError unless it holds a JSON object."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"line is not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError("line is not a JSON object")
    return obj


def write_jsonl(dicts: Iterable[dict], path) -> None:
    """Write one compact JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for obj in dicts:
            fh.write(json.dumps(obj, separators=(",", ":")))
            fh.write("\n")


def read_jsonl(path) -> Iterator[dict]:
    """Yield the objects of a JSONL file, skipping blank lines; raises
    SchemaError at the first line that is not a JSON object."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield _json_object(line)


def parse_event_line(line: str) -> TelemetryEvent:
    return TelemetryEvent.from_json_dict(_json_object(line))
