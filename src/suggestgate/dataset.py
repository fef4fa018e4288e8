"""Labeled suggestion records and the train/validation/test split protocol."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import SchemaError, SingleClass, TooFewRecords
from .features import FEATURE_NAMES

DEFAULT_FRACTIONS = (0.64, 0.16, 0.20)
SPLIT_NAMES = ("train", "validation", "test")


@dataclass(frozen=True)
class SuggestionRecord:
    """One suggestion request joined with its behavioral context and label."""

    x: tuple[float, ...]
    y: int  # 1 accepted, 0 rejected
    timestamp: int
    session_id: str
    prompt_length: int = 0
    suggestion_chars: int = 0
    decision_latency_ms: int = 0

    def __post_init__(self) -> None:
        if self.y not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.y}")
        if len(self.x) != len(FEATURE_NAMES):
            raise ValueError(
                f"record has {len(self.x)} features, expected {len(FEATURE_NAMES)}"
            )

    def to_json_dict(self) -> dict:
        return {
            "x": list(self.x),
            "y": self.y,
            "timestamp": self.timestamp,
            "session_id": self.session_id,
            "prompt_length": self.prompt_length,
            "suggestion_chars": self.suggestion_chars,
            "decision_latency_ms": self.decision_latency_ms,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SuggestionRecord":
        try:
            return cls(
                x=tuple(float(v) for v in obj["x"]),
                y=int(obj["y"]),
                timestamp=int(obj.get("timestamp", 0)),
                session_id=str(obj.get("session_id", "")),
                prompt_length=int(obj.get("prompt_length", 0)),
                suggestion_chars=int(obj.get("suggestion_chars", 0)),
                decision_latency_ms=int(obj.get("decision_latency_ms", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad suggestion record: {exc}") from exc


@dataclass(frozen=True)
class Split:
    train: tuple[SuggestionRecord, ...]
    validation: tuple[SuggestionRecord, ...]
    test: tuple[SuggestionRecord, ...]
    fractions: tuple[float, float, float]
    seed: int
    indices: dict = field(default_factory=dict, compare=False)

    def manifest(self) -> dict:
        """Split manifest: record indices per split, plus provenance."""
        return {
            "seed": self.seed,
            "fractions": list(self.fractions),
            **{name: list(self.indices.get(name, ())) for name in SPLIT_NAMES},
        }


def _largest_remainder_sizes(n: int, fractions: Sequence[float]) -> list[int]:
    raw = [n * f for f in fractions]
    sizes = [int(v) for v in raw]
    remainders = sorted(
        range(len(fractions)), key=lambda i: (raw[i] - sizes[i], i), reverse=True
    )
    for i in range(n - sum(sizes)):
        sizes[remainders[i]] += 1
    return sizes


def _class_quotas(
    class_counts: list[int], split_sizes: list[int], n: int
) -> list[list[int]]:
    """Allocate each class across splits, matching both marginals exactly.

    Floors the proportional quota of every (class, split) cell, then hands
    the leftover slots to the cells with the largest fractional parts,
    respecting per-class and per-split totals. Keeps every split's positive
    rate within one record of the global rate.
    """
    quotas = [[0] * len(split_sizes) for _ in class_counts]
    fracs = []
    for ci, count in enumerate(class_counts):
        for si, size in enumerate(split_sizes):
            exact = count * size / n
            quotas[ci][si] = int(exact)
            fracs.append((exact - quotas[ci][si], ci, si))
    class_left = [count - sum(quotas[ci]) for ci, count in enumerate(class_counts)]
    split_left = [size - sum(q[si] for q in quotas) for si, size in enumerate(split_sizes)]
    for _, ci, si in sorted(fracs, key=lambda t: (-t[0], t[1], t[2])):
        if class_left[ci] > 0 and split_left[si] > 0:
            quotas[ci][si] += 1
            class_left[ci] -= 1
            split_left[si] -= 1
    return quotas


def stratified_split(
    records: Sequence[SuggestionRecord],
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    seed: int = 0,
    group_by_session: bool = False,
) -> Split:
    """Deterministic stratified partition into train/validation/test.

    Split sizes are floor-then-distribute-remainder over the full record
    count; each class is then allocated to splits with the same rule so
    per-split positive rates stay within one record of the global rate.

    ``group_by_session`` switches to a session-grouped split (no session
    straddles two splits); stratification is then only approximate.
    """
    if len(fractions) != 3 or abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must be three values summing to 1, got {fractions}")
    labels = [r.y for r in records]
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    if n_pos < 5 or n_neg < 5:
        raise TooFewRecords(
            f"need at least 5 records per class, got {n_pos} positive / {n_neg} negative"
        )

    if group_by_session:
        parts = _split_by_session(records, fractions, seed)
    else:
        parts = _split_by_record(records, fractions, seed)

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
        fractions=tuple(fractions),
        seed=seed,
        indices={"train": tuple(train_i), "validation": tuple(val_i), "test": tuple(test_i)},
    )


def _split_by_record(
    records: Sequence[SuggestionRecord], fractions: Sequence[float], seed: int
) -> list[list[int]]:
    n = len(records)
    split_sizes = _largest_remainder_sizes(n, fractions)
    by_class = {
        0: [i for i, r in enumerate(records) if r.y == 0],
        1: [i for i, r in enumerate(records) if r.y == 1],
    }
    quotas = _class_quotas([len(by_class[0]), len(by_class[1])], split_sizes, n)
    if any(q == 0 for row in quotas for q in row):
        raise TooFewRecords("a class cannot appear in every split")

    rng = random.Random(seed)
    parts: list[list[int]] = [[], [], []]
    for ci in (0, 1):
        indices = list(by_class[ci])
        rng.shuffle(indices)
        offset = 0
        for si in range(3):
            take = quotas[ci][si]
            parts[si].extend(indices[offset : offset + take])
            offset += take
    for part in parts:
        part.sort()
    return parts


def _split_by_session(
    records: Sequence[SuggestionRecord], fractions: Sequence[float], seed: int
) -> list[list[int]]:
    sessions: dict[str, list[int]] = {}
    for i, record in enumerate(records):
        sessions.setdefault(record.session_id, []).append(i)
    order = sorted(sessions)
    random.Random(seed).shuffle(order)
    targets = _largest_remainder_sizes(len(records), fractions)
    parts: list[list[int]] = [[], [], []]
    for session in order:
        # Greedy: put the whole session where the deficit is largest.
        deficits = [targets[si] - len(parts[si]) for si in range(3)]
        si = max(range(3), key=lambda j: deficits[j])
        parts[si].extend(sessions[session])
    for part in parts:
        part.sort()
    return parts


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
