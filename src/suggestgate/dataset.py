"""Labeled suggestion records, built from an event log, and the
train/validation/test split protocol.

Records live in memory only: the event log is the one persisted form, and
``records_from_events`` rebuilds the records from it.

The split fractions are fixed at 64/16/20 (train/validation/test). Every
split keeps sessions whole, stratified by each session's accepted count;
only the seed varies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import SchemaError, SingleClass, TooFewRecords
from .features import FEATURE_NAMES, build_feature_vector
from .telemetry import SessionState, TelemetryEvent, TelemetryKind, ingest_event

FRACTIONS = (0.64, 0.16, 0.20)
SPLIT_NAMES = ("train", "validation", "test")


@dataclass(frozen=True)
class SuggestionRecord:
    """One suggestion request joined with its behavioral context and label."""

    x: tuple[float, ...]
    y: int  # 1 accepted, 0 rejected
    timestamp: int
    session_id: str

    def __post_init__(self) -> None:
        if self.y not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.y}")
        if len(self.x) != len(FEATURE_NAMES):
            raise ValueError(
                f"record has {len(self.x)} features, expected {len(FEATURE_NAMES)}"
            )


def records_from_events(events: Iterable[TelemetryEvent]) -> tuple[list[SuggestionRecord], list[str]]:
    """Label the suggestion requests of an event log by ingest's lifecycle rule.

    Events stream through ``ingest_event``, one ``SessionState`` per session.
    A request's vector is built before the request is ingested. That order is
    the rule for now: the package has no gate loop to follow, and perfbench's
    replay ingests the request first, which changes about a quarter of its
    vectors. A ``SuggestionShown`` shows the session's latest request
    not yet shown, which resolves at the event that moves ``accepted_count``
    (y = 1) or ``rejected_count`` (y = 0). Returns the records in request
    order, and the ids of requests never shown or still pending at the end.
    A request with no ``suggestion_id``, a repeated one or no
    ``task_complexity`` raises ``SchemaError``.
    """
    states: dict[str, SessionState] = {}
    requests: dict[str, dict] = {}  # suggestion_id -> record fields, in request order
    unshown: dict[str, str] = {}  # session -> its latest request not yet shown
    showing: dict[str, str] = {}  # session -> the request whose suggestion is pending
    for event in events:
        session, payload = event.session_id, event.payload
        state = states.setdefault(session, SessionState(session))
        if event.kind is TelemetryKind.SUGGESTION_REQUESTED:
            sid, complexity = payload.get("suggestion_id"), payload.get("task_complexity")
            if sid is None or sid in requests or complexity is None:
                raise SchemaError(f"request needs a new suggestion_id and a task_complexity, "
                                  f"got {sid!r} and {complexity!r}")
            unshown[session] = sid
            requests[sid] = {"x": build_feature_vector(state, complexity, at=event.timestamp).values,
                             "timestamp": event.timestamp, "session_id": session}
        counts = state.accepted_count, state.rejected_count
        ingest_event(state, event)
        if (state.accepted_count, state.rejected_count) != counts and session in showing:
            requests[showing.pop(session)]["y"] = int(state.accepted_count > counts[0])
        if event.kind is TelemetryKind.SUGGESTION_SHOWN and session in unshown:
            showing[session] = unshown.pop(session)
    records = [SuggestionRecord(**fields) for fields in requests.values() if "y" in fields]
    return records, [sid for sid, fields in requests.items() if "y" not in fields]


@dataclass(frozen=True)
class Split:
    train: tuple[SuggestionRecord, ...]
    validation: tuple[SuggestionRecord, ...]
    test: tuple[SuggestionRecord, ...]
    indices: dict = field(default_factory=dict, compare=False)


def _largest_remainder_sizes(n: int) -> list[int]:
    raw = [n * f for f in FRACTIONS]
    sizes = [int(v) for v in raw]
    remainders = sorted(
        range(len(FRACTIONS)), key=lambda i: (raw[i] - sizes[i], i), reverse=True
    )
    for i in range(n - sum(sizes)):
        sizes[remainders[i]] += 1
    return sizes


def stratified_split(records: Sequence[SuggestionRecord], seed: int = 0) -> Split:
    """Deterministic partition into train/validation/test that keeps sessions whole.

    The split targets are ``FRACTIONS`` of the record count, floored, with
    the remainder handed out by largest fractional part. Sessions are
    shuffled by ``seed``, stable-sorted by accepted count (most first), and
    each goes whole to the split with the largest relative deficit
    ``(target - placed) / target``, so the accepted records spread in
    proportion to the targets. With one record per session the sizes equal
    the targets and each split's positive count is within two records of
    its share (at most one above it).
    """
    labels = [r.y for r in records]
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    if n_pos < 5 or n_neg < 5:
        raise TooFewRecords(
            f"need at least 5 records per class, got {n_pos} positive / {n_neg} negative"
        )

    sessions: dict[str, list[int]] = {}
    for i, record in enumerate(records):
        sessions.setdefault(record.session_id, []).append(i)
    order = sorted(sessions)
    random.Random(seed).shuffle(order)
    order.sort(key=lambda s: sum(labels[i] for i in sessions[s]), reverse=True)
    targets = _largest_remainder_sizes(len(records))
    parts: list[list[int]] = [[], [], []]
    for session in order:
        si = max(range(3), key=lambda j: (targets[j] - len(parts[j])) / targets[j])
        parts[si].extend(sessions[session])
    for part in parts:
        part.sort()

    for name, idx in zip(SPLIT_NAMES, parts):
        if not any(records[i].y == 1 for i in idx) or not any(
            records[i].y == 0 for i in idx
        ):
            raise TooFewRecords(f"class missing from {name} split")

    train_i, val_i, test_i = parts
    return Split(
        train=tuple(records[i] for i in train_i),
        validation=tuple(records[i] for i in val_i),
        test=tuple(records[i] for i in test_i),
        indices={"train": tuple(train_i), "validation": tuple(val_i), "test": tuple(test_i)},
    )


def class_weights(records: Iterable[SuggestionRecord]) -> tuple[float, float]:
    """Balanced class weights w_y = n / (2 * n_y)."""
    n_pos = n_neg = 0
    for record in records:
        if record.y == 1:
            n_pos += 1
        else:
            n_neg += 1
    if n_pos == 0 or n_neg == 0:
        raise SingleClass(f"both classes required, got {n_pos} positive / {n_neg} negative")
    n = n_pos + n_neg
    return n / (2.0 * n_neg), n / (2.0 * n_pos)
