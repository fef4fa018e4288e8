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

from .errors import PendingLabel, RejectOutOfOrder, SchemaError

WINDOW_SECONDS = 60
WINDOW_MS = WINDOW_SECONDS * 1000

#: Passive rejection: a suggestion neither accepted nor superseded within
#: this much inactivity is labeled rejected.
PASSIVE_REJECT_MS = 30_000

#: Collector-side inter-keystroke gap that counts as a pause (config default).
PAUSE_GAP_SECONDS = 2.0

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


class Command(str, Enum):
    UNDO = "Undo"
    QUICK_FIX = "QuickFix"
    TERMINAL_TOGGLE = "TerminalToggle"
    PALETTE_ACTION = "PaletteAction"
    COPY = "Copy"
    PASTE = "Paste"


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
_UNDO, _QUICK_FIX, _TERMINAL_TOGGLE = (
    c.value for c in (Command.UNDO, Command.QUICK_FIX, Command.TERMINAL_TOGGLE)
)

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
            return cls(
                session_id=str(obj["session_id"]),
                timestamp=int(obj["timestamp"]),
                kind=kind,
                payload=dict(obj.get("payload") or {}),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise SchemaError(f"bad telemetry event: {exc}") from exc


@dataclass(frozen=True)
class BehaviorWindow:
    """One-minute aggregate of telemetry counters; immutable once closed.

    Sums: chars_typed, typing_time_s, pause_count, nav_events, command
    counters, lines_added. Gauges (last value seen in the window):
    warnings, errors, breakpoints, open_files, file_lines.
    """

    session_id: str
    window_start: int  # ms, multiple of WINDOW_MS
    duration_s: int
    chars_typed: int
    typing_time_s: float
    pause_count: int
    nav_events: int
    undo_count: int
    quick_fix_count: int
    terminal_toggles: int
    palette_actions: int
    warnings: int
    errors: int
    breakpoints: int
    lines_added: int
    file_lines: int
    open_files: int


@dataclass(slots=True)
class _OpenWindow:
    """Mutable accumulator for the window currently being filled."""

    session_id: str
    window_start: int
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

    def close(self) -> BehaviorWindow:
        values = {name: getattr(self, name) for name in self.__slots__}
        values["typing_time_s"] = min(self.typing_time_s, float(WINDOW_SECONDS))
        return BehaviorWindow(duration_s=WINDOW_SECONDS, **values)


@dataclass
class SessionState:
    """Accumulated per-session counters plus the last closed window.

    Mutated by exactly one writer at a time; snapshots read by the feature
    builder are plain numbers and the most recent closed window, both of
    which are immutable.
    """

    session_id: str
    accepted_count: int = 0
    rejected_count: int = 0
    total_typing_duration: float = 0.0
    total_chars: int = 0
    suggestions_seen: int = 0
    last_activity: int = 0
    last_window: Optional[BehaviorWindow] = None
    open_window: Optional[_OpenWindow] = None
    # Inactivity anchor (ms) of the unresolved suggestion, if any.
    pending_suggestion: Optional[int] = None

    def latest_window(self) -> Optional[BehaviorWindow]:
        return self.last_window


def window_start_for(timestamp_ms: int) -> int:
    """Wall-clock aligned window bucket: floor(t / 60 s)."""
    return (timestamp_ms // WINDOW_MS) * WINDOW_MS


#: Integer payload fields per event kind, parsed before the state changes.
#: A gauge the payload leaves out keeps the window's value.
_PAYLOAD_COUNTS = {
    _TYPING_BURST: lambda p, w: (
        int(p.get("chars_typed", 0)),
        int(p.get("duration_ms", 0)),
    ),
    _FILE_NAV: lambda p, w: (
        int(p.get("open_files", w.open_files)),
        int(p.get("file_lines", w.file_lines)),
    ),
    _DIAGNOSTIC: lambda p, w: (
        int(p.get("warnings", 0)),
        int(p.get("errors", 0)),
        int(p.get("breakpoints", w.breakpoints)),
    ),
    _EDIT_APPLIED: lambda p, w: (int(p.get("lines_added", 0)),),
}


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
    a finite number; either way the state is left as it was.
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

    # A new window joins the state only once the payload has parsed.
    bucket = window_start_for(event.timestamp)
    win = state.open_window
    if win is None or bucket > win.window_start:
        win = _OpenWindow(state.session_id, bucket)
    elif bucket < win.window_start:
        raise RejectOutOfOrder(
            f"event at {event.timestamp} falls before the open window at {win.window_start}"
        )
    payload = event.payload
    kind = event.kind
    parse = _PAYLOAD_COUNTS.get(kind)
    if parse is not None:
        try:
            counts = parse(payload, win)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"bad {kind.value} payload: {exc}") from exc

    if win is not state.open_window:
        if state.open_window is not None:
            state.last_window = state.open_window.close()
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

    if kind is _TYPING_BURST:
        chars, duration_ms = counts
        duration_s = duration_ms / 1000.0
        win.chars_typed += chars
        win.typing_time_s += duration_s
        state.total_chars += chars
        state.total_typing_duration += duration_s
    elif kind is _PAUSE:
        win.pause_count += 1
    elif kind is _FILE_NAV:
        win.nav_events += 1
        win.open_files, win.file_lines = counts
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
        win.warnings, win.errors, win.breakpoints = counts
    elif kind is _EDIT_APPLIED:
        win.lines_added += counts[0]
    elif kind is _SUGGESTION_SHOWN:
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


def label_suggestion(shown_at: int, later_events: Iterable[TelemetryEvent]) -> Label:
    """Decide a shown suggestion's terminal label from the events after it.

    The rule is ingest's (``_pending_label``): accepted if a
    SuggestionAccepted comes first; explicitly rejected if a new request or
    a newly shown suggestion comes first; passively rejected once 30 s pass
    without interaction. Raises PendingLabel when the stream ends before any
    of those conditions.
    """
    anchor = shown_at
    for event in later_events:
        if event.timestamp < shown_at:
            raise ValueError("later_events must not precede shown_at")
        label = _pending_label(anchor, event.kind, event.timestamp)
        if label is not None:
            return label
        if event.kind in _ACTIVITY_KINDS:
            anchor = event.timestamp
    raise PendingLabel(f"stream ended before the suggestion shown at {shown_at} resolved")


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
