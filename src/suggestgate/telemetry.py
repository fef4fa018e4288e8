"""Editor telemetry: event taxonomy, per-session state, one-minute windows, labeling.

Events are content-agnostic: a payload keeps only its kind's counts, ids,
complexity score and command name, never source text or prompts. Windows are
wall-clock aligned to ``floor(timestamp / 60 s)`` so replays are deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional

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

#: Events refuse counts from 2**53 up: features hold counts as floats, which skip integers there.
_COUNT_LIMIT = 2**53

#: Events that count as developer interaction for the passive-rejection
#: timer. Navigation and diagnostics do not reset inactivity.
_ACTIVITY_KINDS = frozenset({_TYPING_BURST, _COMMAND_USE, _EDIT_APPLIED})


#: The payload fields of each kind; an event drops every other key.
_PAYLOAD_FIELDS = {
    _TYPING_BURST: ("chars_typed", "duration_ms"),
    _PAUSE: (),
    _FILE_NAV: ("open_files", "file_lines"),
    _COMMAND_USE: ("command",),
    _DIAGNOSTIC: ("warnings", "errors", "breakpoints"),
    _SUGGESTION_SHOWN: ("suggestion_id",),
    _SUGGESTION_ACCEPTED: ("suggestion_id",),
    _SUGGESTION_REQUESTED: ("prompt_length", "suggestion_id", "task_complexity"),
    _EDIT_APPLIED: ("lines_added",),
}


def _checked(name: str, value):
    """The value an event keeps: a string id, a finite complexity, a command
    ingest counts apart or else PaletteAction, or a count in [0, 2**53)."""
    if name == "command":
        return value if value in (_UNDO, _QUICK_FIX, _TERMINAL_TOGGLE) else "PaletteAction"
    if name == "suggestion_id":
        ok = isinstance(value, str)
    elif name == "task_complexity":
        ok = not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)
    else:
        value = value if type(value) is int else whole_number(value)
        ok = 0 <= value < _COUNT_LIMIT
    if not ok:
        raise ValueError(f"{value!r} is not a valid {name}")
    return value


@dataclass(frozen=True)
class TelemetryEvent:
    """One timestamped editor interaction fact, checked once, when it is made:
    ``timestamp`` is whole ms since epoch, ``kind`` may be given by value, and
    ``payload`` keeps only its kind's ``_PAYLOAD_FIELDS``, each as ``_checked``
    returns it, so no code or prompt text outlives construction. A field left
    out stays out. The kept payload is read-only, so no value can skip the
    check later. A bad event raises ``SchemaError``."""

    session_id: str
    timestamp: int
    kind: TelemetryKind
    payload: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        # A read-only payload comes back in through dataclasses.replace.
        if not (isinstance(self.session_id, str)
                and isinstance(self.payload, (dict, MappingProxyType))):
            raise SchemaError("an event needs a string session_id and a dict payload")
        kind, payload, name = self.kind, {}, "kind"
        try:
            if type(kind) is not TelemetryKind:
                object.__setattr__(self, "kind", kind := TelemetryKind(kind))
            if type(self.timestamp) is not int:
                name = "timestamp"
                object.__setattr__(self, "timestamp", whole_number(self.timestamp))
            fields = _PAYLOAD_FIELDS[kind]
            for name, value in self.payload.items():
                if name in fields:
                    payload[name] = _checked(name, value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"bad {name} in a telemetry event: {exc}") from exc
        object.__setattr__(self, "payload", MappingProxyType(payload))

    def __reduce__(self):
        # A mappingproxy does not pickle: copies and pickles rebuild through the constructor.
        return type(self), (self.session_id, self.timestamp, self.kind, dict(self.payload))

    def to_json_dict(self) -> dict:
        return {
            "session_id": self.session_id,
            "timestamp": self.timestamp,
            "kind": self.kind.value,
            "payload": dict(self.payload),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TelemetryEvent":
        """Build an event from a decoded JSON object; unknown fields ignored.
        A missing payload is empty; one that is not an object is refused."""
        if not isinstance(obj, dict):
            raise SchemaError("a telemetry event is a JSON object")
        try:
            return cls(obj["session_id"], obj["timestamp"], obj["kind"], obj.get("payload", {}))
        except KeyError as exc:
            raise SchemaError(f"bad telemetry event: no {exc}") from exc


@dataclass(slots=True)
class BehaviorWindow:
    """One-minute aggregate of telemetry counters; not written after it closes.

    Sums: chars_typed, typing_time_s (at most 60 s), pause_count, command
    counters, lines_added. Gauges (last value seen):
    warnings and errors, per Diagnostic; breakpoints, open_files and
    file_lines, which carry over from the previous window.
    """

    window_start: int  # ms, multiple of WINDOW_MS
    chars_typed: int = 0
    typing_time_s: float = 0.0
    pause_count: int = 0
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
    """Fold one event, whose payload was checked when it was made, into the
    session state, closing windows on minute rollover. A carried gauge the
    payload omits keeps its last value; any other omitted count is 0. Raises
    RejectOutOfOrder, leaving the state as it was, if the event is older than
    the session's last activity by more than the tolerance (corrupt stream)
    or falls in a minute before the open window.
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
        win = state.open_window = BehaviorWindow(bucket)
    elif bucket > win.window_start:
        state.last_window = win
        win = state.open_window = BehaviorWindow(
            bucket, breakpoints=win.breakpoints,
            file_lines=win.file_lines, open_files=win.open_files)
    elif bucket < win.window_start:
        raise RejectOutOfOrder(
            f"event at {event.timestamp} falls before the open window at {win.window_start}"
        )

    payload = event.payload
    kind = event.kind
    if kind is _TYPING_BURST:
        chars = payload.get("chars_typed", 0)
        seconds = payload.get("duration_ms", 0) / 1000.0
        win.chars_typed += chars
        win.typing_time_s = min(win.typing_time_s + seconds, float(WINDOW_SECONDS))
        state.total_chars += chars
        state.total_typing_duration += seconds
    elif kind is _PAUSE:
        win.pause_count += 1
    elif kind is _FILE_NAV:
        win.open_files = payload.get("open_files", win.open_files)
        win.file_lines = payload.get("file_lines", win.file_lines)
    elif kind is _COMMAND_USE:
        command = payload.get("command")
        if command == _UNDO:
            win.undo_count += 1
        elif command == _QUICK_FIX:
            win.quick_fix_count += 1
        elif command == _TERMINAL_TOGGLE:
            win.terminal_toggles += 1
        else:
            win.palette_actions += 1
    elif kind is _DIAGNOSTIC:
        win.warnings = payload.get("warnings", 0)
        win.errors = payload.get("errors", 0)
        win.breakpoints = payload.get("breakpoints", win.breakpoints)
    elif kind is _EDIT_APPLIED:
        win.lines_added += payload.get("lines_added", 0)

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
        state.pending_suggestion = event.timestamp

    state.last_activity = max(state.last_activity, event.timestamp)
    return state


def record_outcome(state: SessionState, accepted: bool) -> None:
    """Register a delivered suggestion's outcome directly.

    For callers that learn an outcome directly rather than from events,
    such as a replay that simulates the suggestion lifecycle.
    """
    if accepted:
        state.accepted_count += 1
    else:
        state.rejected_count += 1


def write_events(events: Iterable[TelemetryEvent], path) -> None:
    """Write an event log: one compact JSON object per event, one per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event.to_json_dict(), separators=(",", ":")))
            fh.write("\n")


def read_events(path) -> Iterator[TelemetryEvent]:
    """Yield the events of a log, skipping blank lines. A line that does not
    hold an event (not UTF-8, not JSON, nested deeper than the decoder
    allows, not an object, or not a valid event) raises SchemaError naming
    its number."""
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            try:
                text = line.decode("utf-8")
                if not text.strip():
                    continue
                event = TelemetryEvent.from_json_dict(json.loads(text))
            except (ValueError, RecursionError, SchemaError) as exc:
                raise SchemaError(f"line {number} holds no telemetry event: {exc}") from exc
            yield event
