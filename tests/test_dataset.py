from __future__ import annotations

import math
import random

import pytest

from suggestgate.dataset import SuggestionRecord, class_weights, records_from_events, stratified_split
from suggestgate.errors import SchemaError, SingleClass, TooFewRecords
from suggestgate.features import N_FEATURES
from suggestgate.synth import SynthConfig, synth_sessions
from suggestgate.telemetry import TelemetryEvent, TelemetryKind

#: Stands for a payload field left out.
MISSING = object()


def make_records(n_pos: int, n_neg: int, sessions: int = 8) -> list[SuggestionRecord]:
    rng = random.Random(7)
    records = []
    for i in range(n_pos + n_neg):
        records.append(
            SuggestionRecord(
                x=tuple(rng.random() for _ in range(N_FEATURES)),
                y=1 if i < n_pos else 0,
                timestamp=i * 1000,
                session_id=f"s{i % sessions}",
            )
        )
    return records


class TestSuggestionRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            SuggestionRecord(x=(0.0,) * N_FEATURES, y=2, timestamp=0, session_id="s")
        with pytest.raises(ValueError):
            SuggestionRecord(x=(0.0,) * 3, y=1, timestamp=0, session_id="s")


def request(t: int, **payload) -> TelemetryEvent:
    return TelemetryEvent("s1", t, TelemetryKind.SUGGESTION_REQUESTED, payload)


class TestRecordsFromEvents:
    @pytest.mark.parametrize("suggestion_id", [MISSING, None, 7, ["a"]])
    def test_suggestion_id_not_a_string_raises(self, suggestion_id):
        payload = {"task_complexity": 0.5}
        if suggestion_id is not MISSING:
            payload["suggestion_id"] = suggestion_id
        with pytest.raises(SchemaError):
            records_from_events([request(0, **payload)])

    def test_repeated_suggestion_id_raises(self):
        shown = TelemetryEvent("s1", 0, TelemetryKind.SUGGESTION_SHOWN)
        events = [request(0, suggestion_id="a", task_complexity=0.5), shown,
                  request(1_000, suggestion_id="a", task_complexity=0.5)]
        with pytest.raises(SchemaError):
            records_from_events(events)

    @pytest.mark.parametrize("complexity", [MISSING, None, math.nan, math.inf, "0.5", True, 10**400])
    def test_task_complexity_not_a_finite_number_raises(self, complexity):
        payload = {"suggestion_id": "a"}
        if complexity is not MISSING:
            payload["task_complexity"] = complexity
        with pytest.raises(SchemaError):
            records_from_events([request(0, **payload)])

    @pytest.mark.parametrize("prompt_length", [2.5, True, "many", None, math.inf])
    def test_count_not_a_whole_number_raises(self, prompt_length):
        # No record carries prompt_length, but the request event still checks it.
        with pytest.raises(SchemaError, match="prompt_length"):
            request(0, suggestion_id="a", task_complexity=0.5, prompt_length=prompt_length)

    def test_shown_payload_with_the_old_answer_side_keys_is_ignored(self):
        # Logs written before suggestion_chars and decision_latency_ms were
        # dropped still carry them on SuggestionShown, sometimes malformed.
        events = [request(0, suggestion_id="a", task_complexity=0.5, prompt_length=40),
                  TelemetryEvent("s1", 0, TelemetryKind.SUGGESTION_SHOWN,
                                 {"suggestion_chars": "many", "decision_latency_ms": 12.5}),
                  TelemetryEvent("s1", 1_000, TelemetryKind.SUGGESTION_ACCEPTED)]
        plain = events[:1] + [TelemetryEvent("s1", 0, TelemetryKind.SUGGESTION_SHOWN)] + events[2:]
        assert records_from_events(events) == records_from_events(plain)

    def test_whole_number_count_is_kept_as_an_int(self):
        events = [request(0, suggestion_id="a", task_complexity=0.5, prompt_length=40.0),
                  TelemetryEvent("s1", 0, TelemetryKind.SUGGESTION_SHOWN),
                  TelemetryEvent("s1", 1_000, TelemetryKind.SUGGESTION_ACCEPTED)]
        prompt_length = events[0].payload["prompt_length"]
        assert prompt_length == 40 and type(prompt_length) is int
        (record,), unresolved = records_from_events(events)
        assert unresolved == [] and record.y == 1


class TestStratifiedSplit:
    def test_study_scale_sizes(self):
        # 2318 records at (0.64, 0.16, 0.20) must give the held-out test
        # size of 464.
        records = make_records(426, 1892, sessions=2318)
        split = stratified_split(records, seed=13)
        assert (len(split.train), len(split.validation), len(split.test)) == (
            1483, 371, 464,
        )

    def test_partition(self):
        records = make_records(40, 160)
        split = stratified_split(records, seed=3)
        all_indices = sorted(
            split.indices["train"] + split.indices["validation"] + split.indices["test"]
        )
        assert all_indices == list(range(len(records)))

    def test_stratification_within_one_record(self):
        records = make_records(426, 1892, sessions=2318)
        split = stratified_split(records, seed=5)
        global_rate = 426 / 2318
        for part in (split.train, split.validation, split.test):
            positives = sum(r.y for r in part)
            assert abs(positives - global_rate * len(part)) <= 1.0

    def test_divisible_case_exact(self):
        # 50 one-record sessions split 32/8/10, and each split's share of
        # the 25 positives (16/4/5) is whole.
        records = make_records(25, 25, sessions=50)
        split = stratified_split(records, seed=0)
        for part in (split.train, split.validation, split.test):
            assert sum(r.y for r in part) / len(part) == 0.5

    def test_deterministic_given_seed(self):
        records = make_records(30, 120)
        a = stratified_split(records, seed=42)
        b = stratified_split(records, seed=42)
        assert a.indices == b.indices

    def test_different_seeds_same_sizes(self):
        records = make_records(30, 121, sessions=151)
        a = stratified_split(records, seed=1)
        b = stratified_split(records, seed=2)
        assert a.indices != b.indices
        for name in ("train", "validation", "test"):
            assert len(a.indices[name]) == len(b.indices[name])
            pos_a = sum(records[i].y for i in a.indices[name])
            pos_b = sum(records[i].y for i in b.indices[name])
            assert pos_a == pos_b  # stratification is size-exact per class

    def test_too_few_records(self):
        with pytest.raises(TooFewRecords):
            stratified_split(make_records(3, 50), seed=0)

    def test_session_grouped_mode_keeps_sessions_whole(self):
        records = make_records(40, 160, sessions=12)
        split = stratified_split(records, seed=4)
        owner = {}
        for name in ("train", "validation", "test"):
            for i in split.indices[name]:
                session = records[i].session_id
                assert owner.setdefault(session, name) == name
        total = sum(len(split.indices[n]) for n in ("train", "validation", "test"))
        assert total == len(records)

    def test_synth_sessions_stay_whole_and_stratified(self):
        # 60 sessions of about 20 records each, with unequal accepted counts.
        # Over synth seeds 0-5 and split seeds 0-3 the largest gap between a
        # split's positive rate and the global rate was 0.048 (0.034 here);
        # placing shuffled sessions by absolute deficit, unsorted, reached 0.103.
        records, _ = records_from_events(synth_sessions(SynthConfig(n_sessions=60)).events)
        split = stratified_split(records, seed=0)
        parts = (split.train, split.validation, split.test)
        owners = [{r.session_id for r in part} for part in parts]
        assert sum(len(o) for o in owners) == len(set.union(*owners)) == 60
        global_rate = sum(r.y for r in records) / len(records)
        for part in parts:
            assert abs(sum(r.y for r in part) / len(part) - global_rate) <= 0.05


class TestClassWeights:
    def test_study_scale_weights(self):
        records = make_records(426, 1892)
        w0, w1 = class_weights(records)
        assert w1 == pytest.approx(2318 / (2 * 426), rel=1e-12)
        assert w0 == pytest.approx(2318 / (2 * 1892), rel=1e-12)
        assert w1 == pytest.approx(2.72, abs=0.005)
        assert w0 == pytest.approx(0.613, abs=0.001)

    def test_balanced_data(self):
        assert class_weights(make_records(20, 20)) == (1.0, 1.0)

    def test_ratio_identity(self):
        for n_pos, n_neg in [(5, 45), (13, 29), (100, 100)]:
            w0, w1 = class_weights(make_records(n_pos, n_neg))
            assert w1 / w0 == pytest.approx(n_neg / n_pos, rel=1e-12)
            # Weighted totals recover n.
            assert w0 * n_neg + w1 * n_pos == pytest.approx(n_pos + n_neg, rel=1e-12)

    def test_single_class(self):
        with pytest.raises(SingleClass):
            class_weights(make_records(0, 30))
